//! Join-evaluator benchmark: wall time of `obx_query::eval` on four
//! panels, best of [`REPS`].
//!
//! Two workloads, each over a uniform university scenario and a
//! power-law (skewed) one, with a single-line JSON summary written to
//! `BENCH_eval.json` at the workspace root:
//!
//! 1. **Search end-to-end** (`*_search_ms`) — the beam strategy over each
//!    scenario at radius 2, on a fresh engine per repetition. Search
//!    candidates are always anchored to the answer variable, so this is
//!    the join shape the scoring engine evaluates on every request.
//! 2. **Hot-path membership** (`*_hotpath_ms`) — goal-directed `member`
//!    checks over each labelled tuple's radius-1 border for ontology
//!    queries whose constant-bearing atoms are existential guards *not*
//!    anchored to the answer variable (the shape ontology rewriting
//!    produces for concepts guarded by role assertions). Unfolding leaves
//!    the constant as the only resolved position of the guard's source
//!    atom, so every check scans that constant's index slice — on the
//!    skewed scenario, a hub's. One sample is [`HOTPATH_PASSES`] passes
//!    over every (query, tuple) pair, so the panel runs long enough
//!    (≥20 ms) for a regression to clear `obx-ci`'s 5 ms absolute floor.
//!
//! Every `*_ms` key is wall time and gated by `obx-ci` against the
//! committed baseline. **Nodes** (candidate database atoms inspected,
//! per search or per membership pass) and engine eval counts are
//! explanatory fields only; they are deterministic, so the bench asserts
//! they do not drift between repetitions, and that every repetition
//! produces the same ranked output and membership bits.
//!
//! Usage: `cargo run --release -p obx-bench --bin eval`

use obx_bench::harness::{ranked, Best, Report};
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::score::Scoring;
use obx_core::strategies::BeamSearch;
use obx_core::ScoringEngine;
use obx_datagen::{skewed_scenario, university_scenario, Scenario, SkewedParams, UniversityParams};
use obx_obdm::CompiledQuery;
use obx_query::eval;
use obx_srcdb::{borders, AtomSet, Tuple, View};
use obx_util::Interrupt;
use std::sync::Arc;

/// Repetitions per panel; the best wall time is kept.
const REPS: usize = 5;

/// Search panel border radius.
const SEARCH_RADIUS: usize = 2;

/// Membership panel border radius: the tuple's own facts plus everything
/// sharing a constant with them. At radius 2 the atom-adjacency BFS
/// already swallows most of the connected component, so the index slices
/// of guard constants lie inside every border; radius 1 keeps the views
/// compact and the guard scans mostly outside them.
const HOTPATH_RADIUS: usize = 1;

/// Passes over the membership panel per timed sample.
const HOTPATH_PASSES: usize = 120;

const N_STUDENTS: usize = 300;
const BEAM_WIDTH: usize = 12;

/// Node delta of the one evaluator across `f`.
fn counting_nodes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (before, _) = eval::node_counts();
    let out = f();
    let (after, _) = eval::node_counts();
    (out, after - before)
}

struct SearchRun {
    nodes: u64,
    engine: Arc<ScoringEngine>,
    report: ExplainReport,
}

fn bench_search(name: &str, scenario: &Scenario, report: &mut Report) {
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: BEAM_WIDTH,
        top_k: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(
        &scenario.system,
        &scenario.labels,
        SEARCH_RADIUS,
        &scoring,
        limits,
    )
    .expect("generated scenarios yield valid tasks");
    let sys = &scenario.system;
    let best = Best::of(
        REPS,
        |kept: &SearchRun, run: &SearchRun| {
            assert_eq!(run.nodes, kept.nodes, "{name}: search nodes drifted");
            assert_eq!(
                ranked(&run.report, sys),
                ranked(&kept.report, sys),
                "{name}: ranked output drifted"
            );
        },
        || {
            let engine = Arc::new(ScoringEngine::with_incremental(true));
            let t = task.with_engine(Arc::clone(&engine));
            let (report, nodes) = counting_nodes(|| {
                BeamSearch
                    .explain_with_status(&t)
                    .expect("benchmark strategies succeed on generated scenarios")
            });
            SearchRun {
                nodes,
                engine,
                report,
            }
        },
    );
    report
        .ms(format!("{name}_search_ms"), best.ms())
        .count(format!("{name}_search_nodes"), best.run().nodes)
        .count(
            format!("{name}_search_evals"),
            best.run().engine.eval_calls(),
        );
}

const PANEL: &[&str] = &[
    // "there is a course taught at uni0" — bare hub guard.
    r#"q(x) :- Student(x), taughtIn(y, "uni0")"#,
    // "some course is taught at a university of the target city" — the
    // guard direction of the planted ground truth.
    r#"q(x) :- Student(x), locatedIn(z, "city0"), taughtIn(y, z)"#,
    // "some student studies subj0 at uni0" — two hub constants joined on
    // an existential student.
    r#"q(x) :- Student(x), studies(z, "subj0"), enrolledAt(z, "uni0")"#,
];

fn bench_hotpath(name: &str, scenario: &mut Scenario, report: &mut Report) {
    let compiled: Vec<CompiledQuery> = PANEL
        .iter()
        .map(|q| {
            let parsed = scenario
                .system
                .parse_query(q)
                .expect("panel queries parse against the university vocabulary");
            scenario
                .system
                .spec()
                .compile(&parsed)
                .expect("panel queries compile within default budgets")
        })
        .collect();
    let db = scenario.system.db();
    let tuples: Vec<&Tuple> = scenario
        .labels
        .pos()
        .iter()
        .chain(scenario.labels.neg().iter())
        .collect();
    let borders: Vec<AtomSet> = borders(
        db,
        tuples.iter().map(|t| &t[..]),
        HOTPATH_RADIUS,
        &Interrupt::none(),
    )
    .into_iter()
    .map(|b| b.atoms)
    .collect();
    // One repetition: (membership bits of the first pass, nodes per pass).
    let best = Best::of(
        REPS,
        |kept: &(Vec<bool>, u64), run: &(Vec<bool>, u64)| {
            assert_eq!(run.1, kept.1, "{name}: hot-path nodes drifted");
            assert_eq!(run.0, kept.0, "{name}: membership bits drifted");
        },
        || {
            let mut bits = Vec::with_capacity(compiled.len() * tuples.len());
            let ((), nodes) = counting_nodes(|| {
                for pass in 0..HOTPATH_PASSES {
                    for cq in &compiled {
                        for (t, b) in tuples.iter().zip(borders.iter()) {
                            let hit = cq.member(View::masked(db, b), t);
                            if pass == 0 {
                                bits.push(hit);
                            }
                        }
                    }
                }
            });
            (bits, nodes / HOTPATH_PASSES as u64)
        },
    );
    let (bits, nodes_per_pass) = best.run();
    report
        .ms(format!("{name}_hotpath_ms"), best.ms())
        .count(format!("{name}_hotpath_nodes_per_pass"), *nodes_per_pass)
        .count(format!("{name}_hotpath_checks_per_pass"), bits.len() as u64)
        .count(
            format!("{name}_hotpath_hits_per_pass"),
            bits.iter().filter(|&&b| b).count() as u64,
        );
}

fn main() {
    let mut uniform = university_scenario(UniversityParams {
        n_students: N_STUDENTS,
        ..UniversityParams::default()
    });
    let mut skewed = skewed_scenario(SkewedParams {
        n_students: N_STUDENTS,
        ..SkewedParams::default()
    });

    let mut report = Report::new("eval");
    report
        .count("radius", SEARCH_RADIUS as u64)
        .count("hotpath_radius", HOTPATH_RADIUS as u64)
        .count("hotpath_passes", HOTPATH_PASSES as u64)
        .count("n_students", N_STUDENTS as u64)
        .count("beam_width", BEAM_WIDTH as u64)
        .count("reps", REPS as u64);
    bench_search("uniform", &uniform, &mut report);
    bench_search("skewed", &skewed, &mut report);
    bench_hotpath("uniform", &mut uniform, &mut report);
    bench_hotpath("skewed", &mut skewed, &mut report);
    report.finish("eval");
}
