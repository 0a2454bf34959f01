//! Bound pruning fires on every strategy.
//!
//! The monotone accelerations report how many candidates they discarded
//! without scoring (`ExplainReport::pruned`). The paper-scenario benches
//! showed `beam_pruned = 0` while greedy pruned freely, which left open
//! whether beam's batch path had the bound guard wired at all. These
//! tests construct scenarios where each strategy *provably* prunes, so a
//! regression that silently disables the guard (or weakens the bound)
//! fails loudly.
//!
//! Why construction is needed: a batch candidate is pruned only when its
//! parent's optimistic bound is *strictly* below both the scored-window
//! guard and the result-pool floor. On flat scenarios every interesting
//! parent is itself in the pool, so its bound ties the floor and nothing
//! prunes. The scenarios below break the ties structurally:
//!
//! * **Beam** — a role hierarchy `r1..r5 < r` plus border constants.
//!   Constant-bound subrole atoms (`r1(x0, c1)`) are *fresh* candidates
//!   that never appeared among the two-variable starts, so the strong
//!   parent `r(x0, c1)` (coverage 1) fills the scored window with high
//!   scores while the weak parent `r(x0, c2)` (coverage 0.85) has a
//!   bound below both the window guard (0.95) and the pool floor
//!   (0.975, set by the subrole starts): all five of its Hasse-down
//!   children are pruned.
//! * **Bottom-up** — a concept chain `C0 < C1` with a toxic sibling
//!   super `C0 < T` where `T(n0)` holds directly. Generalizing the seed
//!   `D0 ∧ C0 ∧ M1 ∧ M2` funnels the beam to exactly `[C1, T]`; `C1`'s
//!   five fact-free supers fill the window at score 1.0 while `T`'s
//!   super `V` inherits `T`'s negative, capping its bound at 0.75 —
//!   strictly below the window guard (1.0) and pool floor (0.875).
//! * **Exhaustive** enumerates the same chain scenario breadth-first and
//!   prunes conjunction extensions of low-bound parents; **greedy**
//!   skips residual-bound-dominated refinements on both scenarios.

use obx_core::criteria::Criterion;
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::{ScoreExpr, Scoring};
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_obdm::{ObdmSpec, ObdmSystem};
use std::sync::Arc;

fn build(schema: &str, facts: &str, tbox: &str, map: &str) -> ObdmSystem {
    let schema = obx_srcdb::parse_schema(schema).expect("schema");
    let mut db = obx_srcdb::parse_database(schema, facts).expect("facts");
    let tbox = obx_ontology::parse_tbox(tbox).expect("tbox");
    let (schema_ref, consts) = db.schema_and_consts_mut();
    let mapping =
        obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, map).expect("mapping");
    ObdmSystem::new(ObdmSpec::new(tbox, mapping), db)
}

/// Twenty positives, one inert negative. Coverage under `r(x, c)` is
/// graded by constant (c1: 1.0 via the hierarchy plus one direct fact,
/// c2: 0.85, c3: 0.5) so the round-2 beam is `[r(x0,c1), r(x0,c2)]`.
fn beam_scenario() -> (ObdmSystem, String) {
    let mut facts = String::new();
    for i in 0..19 {
        facts.push_str(&format!("TA1(p{i})\nTA2(p{i})\nTA3(p{i})\n"));
    }
    for i in 0..18 {
        facts.push_str(&format!("TR1(p{i}, c1)\n"));
    }
    for i in 0..19 {
        for k in 2..=5 {
            facts.push_str(&format!("TR{k}(p{i}, c1)\n"));
        }
    }
    facts.push_str("TR(p19, c1)\n");
    for i in 0..17 {
        facts.push_str(&format!("TR(p{i}, c2)\n"));
    }
    for i in 0..10 {
        facts.push_str(&format!("TR(p{i}, c3)\n"));
    }
    facts.push_str("TDummy(n0)\n");
    let sys = build(
        "TA1/1 TA2/1 TA3/1 TR/2 TR1/2 TR2/2 TR3/2 TR4/2 TR5/2 TDummy/1",
        &facts,
        "concept A1 A2 A3 CDummy\nrole r r1 r2 r3 r4 r5\n\
         r1 < r\nr2 < r\nr3 < r\nr4 < r\nr5 < r\n",
        "TA1(x) ~> A1(x)\nTA2(x) ~> A2(x)\nTA3(x) ~> A3(x)\n\
         TR(x, y) ~> r(x, y)\nTR1(x, y) ~> r1(x, y)\nTR2(x, y) ~> r2(x, y)\n\
         TR3(x, y) ~> r3(x, y)\nTR4(x, y) ~> r4(x, y)\nTR5(x, y) ~> r5(x, y)\n\
         TDummy(x) ~> CDummy(x)\n",
    );
    let mut labels = String::new();
    for i in 0..20 {
        labels.push_str(&format!("+ p{i}\n"));
    }
    labels.push_str("- n0\n");
    (sys, labels)
}

fn beam_limits() -> SearchLimits {
    SearchLimits {
        max_atoms: 1,
        max_vars: 4,
        max_constants: 8,
        beam_width: 2,
        max_rounds: 3,
        top_k: 1,
    }
}

/// Four positives, two negatives. The seed `D0 ∧ C0 ∧ M1 ∧ M2` peels
/// down to `C0`, whose supers are the clean chain head `C1` and the
/// toxic `T` (holds for `n0`).
fn chain_scenario() -> (ObdmSystem, String) {
    let mut facts = String::from("TD0(p0)\n");
    for i in 0..4 {
        facts.push_str(&format!("TC0(p{i})\n"));
    }
    for i in 0..3 {
        facts.push_str(&format!("TM1(p{i})\nTM2(p{i})\n"));
    }
    facts.push_str("TT(n0)\nTD(n1)\n");
    let sys = build(
        "TD0/1 TC0/1 TM1/1 TM2/1 TT/1 TD/1",
        &facts,
        "concept D0 C0 M1 M2 T V C1 C2a C2b C2c C2d C2e CD\n\
         C0 < C1\nC0 < T\nT < V\n\
         C1 < C2a\nC1 < C2b\nC1 < C2c\nC1 < C2d\nC1 < C2e\n",
        "TD0(x) ~> D0(x)\nTC0(x) ~> C0(x)\nTM1(x) ~> M1(x)\n\
         TM2(x) ~> M2(x)\nTT(x) ~> T(x)\nTD(x) ~> CD(x)\n",
    );
    let labels = "+ p0\n+ p1\n+ p2\n+ p3\n- n0\n- n1\n".to_owned();
    (sys, labels)
}

fn chain_limits() -> SearchLimits {
    SearchLimits {
        max_atoms: 6,
        max_vars: 4,
        max_constants: 0,
        beam_width: 2,
        max_rounds: 8,
        top_k: 1,
    }
}

fn run(
    strategy: &dyn Strategy,
    sys: &mut ObdmSystem,
    labels_src: &str,
    limits: SearchLimits,
) -> ExplainReport {
    let labels = Labels::parse(sys.db_mut(), labels_src).expect("labels");
    let scoring = Scoring::new(
        vec![Criterion::PosCoverage, Criterion::NegAvoidance],
        ScoreExpr::weighted_average(&[1.0, 1.0]),
    );
    let task = ExplainTask::new(sys, &labels, 1, &scoring, limits)
        .expect("task")
        .with_engine(Arc::new(ScoringEngine::new()));
    strategy.explain_with_status(&task).expect("search")
}

#[test]
fn beam_prunes_weak_parent_children() {
    let (mut sys, labels) = beam_scenario();
    let report = run(&BeamSearch, &mut sys, &labels, beam_limits());
    // The five Hasse-down children of r(x0, c2) — r1..r5(x0, c2) — are
    // bound-pruned; the best explanation is still the full-coverage
    // r(x0, c1).
    assert_eq!(report.pruned, 5, "beam bound pruning regressed");
    let best = report.explanations.first().expect("one explanation");
    assert!(
        (best.score - 1.0).abs() < 1e-9,
        "expected perfect top score, got {}",
        best.score
    );
}

#[test]
fn bottom_up_prunes_toxic_generalization() {
    let (mut sys, labels) = chain_scenario();
    let strategy = BottomUpGeneralize {
        max_seeds: 1,
        max_seed_atoms: 8,
    };
    let report = run(&strategy, &mut sys, &labels, chain_limits());
    // T's only generalization V inherits T's matched negative, so its
    // bound (0.75) sits strictly below the window guard (1.0, C1's
    // supers) and the pool floor (0.875).
    assert!(report.pruned > 0, "bottom-up bound pruning regressed");
    let best = report.explanations.first().expect("one explanation");
    assert!(
        (best.score - 1.0).abs() < 1e-9,
        "expected perfect top score, got {}",
        best.score
    );
}

#[test]
fn exhaustive_prunes_low_bound_extensions() {
    let (mut sys, labels) = chain_scenario();
    let report = run(
        &ExhaustiveSearch::default(),
        &mut sys,
        &labels,
        chain_limits(),
    );
    assert!(report.pruned > 0, "exhaustive bound pruning regressed");
}

#[test]
fn greedy_prunes_bound_dominated_refinements() {
    let (mut sys, labels) = beam_scenario();
    let report = run(&GreedyUcq::default(), &mut sys, &labels, beam_limits());
    assert!(report.pruned > 0, "greedy bound pruning regressed");
}

/// Pruning must never change the answer: the pruned beam run returns the
/// same ranked explanations as a baseline run that scores everything.
#[test]
fn pruning_preserves_ranked_output() {
    let (mut sys, labels_src) = beam_scenario();
    let labels = Labels::parse(sys.db_mut(), &labels_src).expect("labels");
    let scoring = Scoring::new(
        vec![Criterion::PosCoverage, Criterion::NegAvoidance],
        ScoreExpr::weighted_average(&[1.0, 1.0]),
    );
    let incremental = {
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, beam_limits())
            .expect("task")
            .with_engine(Arc::new(ScoringEngine::new()));
        BeamSearch.explain_with_status(&task).expect("search")
    };
    let baseline = {
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, beam_limits())
            .expect("task")
            .with_engine(Arc::new(ScoringEngine::with_config(false)));
        BeamSearch.explain_with_status(&task).expect("search")
    };
    assert!(incremental.pruned > 0 && baseline.pruned == 0);
    assert_eq!(incremental.explanations.len(), baseline.explanations.len());
    for (a, b) in incremental
        .explanations
        .iter()
        .zip(baseline.explanations.iter())
    {
        assert_eq!(a.query, b.query);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}
