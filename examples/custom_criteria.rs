//! Customizing Δ, F, and Z — the framework's "flexibility" claim (§1).
//!
//! The paper stresses that different criteria sets and expressions yield
//! "completely different solutions". This example demonstrates three
//! instantiations over the same labels:
//!
//! 1. the paper's Z1 (parsimony matters) — the 1-atom `q3` wins;
//! 2. the paper's Z2 (coverage weighted 3×) — the 3-atom `q1` wins;
//! 3. a *hard-constraint* product Z (any false positive zeroes the score)
//!    with a custom "perfect separation bonus" criterion.
//!
//! Run with: `cargo run --example custom_criteria`

use obx_core::criteria::Criterion;
use obx_core::explain::{ExplainTask, SearchLimits};
use obx_core::paper_example::{PaperExample, PAPER_RADIUS};
use obx_core::score::{ScoreExpr, Scoring};
use std::sync::Arc;

fn main() {
    let ex = PaperExample::new();

    // The paper's two weighted averages.
    for (name, scoring) in [("Z1", ex.z1()), ("Z2", ex.z2())] {
        println!("== {name} ==");
        let mut rows = ex.scores(&scoring).expect("the paper example scores");
        rows.sort_by(|a, b| b.1.score.partial_cmp(&a.1.score).unwrap());
        for (qname, e) in &rows {
            println!("  {qname}: {:.3}", e.score);
        }
        println!("  winner: {}", rows[0].0);
    }

    // A custom instantiation: Z = z_neg_penalty × (z_coverage + bonus)/2,
    // where bonus is a user-defined criterion rewarding perfect separation.
    let bonus = Criterion::Custom {
        name: "perfect-bonus",
        f: Arc::new(|ctx| if ctx.stats.perfect() { 1.0 } else { 0.0 }),
    };
    let scoring = Scoring::new(
        vec![Criterion::NegHitPenalty, Criterion::PosCoverage, bonus],
        ScoreExpr::Product(vec![
            ScoreExpr::Var(0),
            ScoreExpr::Scale(
                0.5,
                Box::new(ScoreExpr::Sum(vec![ScoreExpr::Var(1), ScoreExpr::Var(2)])),
            ),
        ]),
    );
    println!("== custom hard-constraint Z ==");
    let task = ExplainTask::new(
        &ex.system,
        &ex.labels,
        PAPER_RADIUS,
        &scoring,
        SearchLimits::default(),
    )
    .expect("task");
    for (qname, q) in ex.queries() {
        let e = task.score_ucq(q).expect("score");
        println!(
            "  {qname}: {:.3}   (criteria values: {:?})",
            e.score,
            e.criterion_values
                .iter()
                .map(|v| (v * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }
    println!("  q2 is zeroed: it matches the negative example E25.");
}
