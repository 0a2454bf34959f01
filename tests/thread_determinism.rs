//! Thread-count determinism: the scoring engine's worker pool changes
//! neither what a search returns nor how much work it does.
//!
//! Batches score in a chunk schedule that depends only on the batch, and
//! on the pool candidates claim a shared source query in batch order, so
//! every strategy × mode × scenario must render byte-identical reports on
//! one, two and eight scoring threads, with identical engine counters
//! and pruned totals. The pool spawns real threads even on a one-core
//! host. Engines are injected with [`ScoringEngine::with_threads`]; the
//! process environment is never touched.

use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::{ExplainMode, Scoring};
use obx_core::service::render_report_text;
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_datagen::{
    random_scenario, skewed_scenario, university_scenario, RandomParams, SkewedParams,
    UniversityParams,
};
use obx_obdm::{example_3_6_system, ObdmSystem};
use std::sync::Arc;

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// The thread counts compared against one thread.
const THREADS: [usize; 2] = [2, 8];

/// Every built-in strategy; bottom-up seeds and exhaustive enumeration
/// (at `exhaustive_cap` candidates) are capped so the suite stays in
/// test time.
fn strategies(exhaustive_cap: usize) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize {
            max_seeds: 2,
            max_seed_atoms: 6,
        }),
        Box::new(ExhaustiveSearch {
            max_candidates: exhaustive_cap,
        }),
        Box::new(GreedyUcq::default()),
    ]
}

/// What one run must reproduce on any thread count: the rendered report
/// and exit code, the report's pruned total, and the engine's `evals`,
/// `eval_nodes`, `batch_calls`, `cache_hits`, `cache_misses` and
/// `cutoffs`.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    text: String,
    exit_code: i32,
    pruned: usize,
    counters: [u64; 6],
}

fn run(
    system: &ObdmSystem,
    labels: &Labels,
    limits: SearchLimits,
    strategy: &dyn Strategy,
    mode: ExplainMode,
    threads: usize,
) -> Run {
    let scoring = Scoring::for_mode(
        mode,
        || Scoring::paper_weighted(1.0, 1.0, 1.0),
        labels.pos().len(),
        labels.neg().len(),
    );
    let engine = Arc::new(ScoringEngine::with_threads(threads));
    let task = ExplainTask::new(system, labels, 1, &scoring, limits)
        .expect("the scenario labels tuples")
        .with_engine(Arc::clone(&engine));
    let report = strategy
        .explain_with_status(&task)
        .expect("the search runs");
    let (text, exit_code) = render_report_text(&report, system, task.budget().guard_trip(), mode);
    Run {
        text,
        exit_code,
        pruned: report.pruned,
        counters: [
            engine.eval_calls(),
            engine.eval_nodes(),
            engine.batch_calls(),
            engine.cache_hits(),
            engine.cache_misses(),
            engine.cutoffs(),
        ],
    }
}

/// Every strategy in every mode on `system`, on one thread and on each of
/// [`THREADS`]: identical runs. Returns how many batches' worth of work
/// the one-thread runs did, so a caller can check the suite is not vacuous.
fn check_scenario(
    name: &str,
    system: &ObdmSystem,
    labels: &Labels,
    limits: SearchLimits,
    exhaustive_cap: usize,
) -> u64 {
    let mut batch_calls = 0;
    for strategy in strategies(exhaustive_cap) {
        for mode in ExplainMode::ALL {
            let one = run(system, labels, limits, strategy.as_ref(), mode, 1);
            for threads in THREADS {
                let many = run(system, labels, limits, strategy.as_ref(), mode, threads);
                assert_eq!(
                    one,
                    many,
                    "{name}: {} in {mode:?} mode differs on {threads} threads",
                    strategy.name()
                );
            }
            batch_calls += one.counters[2];
        }
    }
    batch_calls
}

#[test]
fn paper_example_is_thread_count_independent() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let limits = SearchLimits {
        beam_width: 8,
        ..SearchLimits::default()
    };
    // The first 5,000 candidates of the paper's lattice are all
    // data-dead: a lower exhaustive cap would evaluate nothing.
    let work = check_scenario("paper", &sys, &labels, limits, 10_000);
    assert!(work > 0);
}

#[test]
fn small_university_is_thread_count_independent() {
    let s = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let limits = SearchLimits {
        max_atoms: 2,
        beam_width: 8,
        ..SearchLimits::default()
    };
    let work = check_scenario("university", &s.system, &s.labels, limits, 300);
    assert!(work > 0);
}

#[test]
fn skewed_scenario_is_thread_count_independent() {
    let s = skewed_scenario(SkewedParams {
        n_students: 60,
        ..SkewedParams::default()
    });
    let limits = SearchLimits {
        max_atoms: 2,
        beam_width: 8,
        ..SearchLimits::default()
    };
    let work = check_scenario("skewed", &s.system, &s.labels, limits, 300);
    assert!(work > 0);
}

#[test]
fn random_scenarios_are_thread_count_independent() {
    for seed in 0..2 {
        let s = random_scenario(RandomParams {
            seed,
            n_individuals: 16,
            n_concept_facts: 22,
            n_role_facts: 26,
            n_concepts: 4,
            n_roles: 3,
            ..RandomParams::default()
        });
        let limits = SearchLimits {
            max_atoms: 2,
            beam_width: 8,
            ..SearchLimits::default()
        };
        let work = check_scenario(
            &format!("random seed {seed}"),
            &s.system,
            &s.labels,
            limits,
            300,
        );
        assert!(work > 0, "random seed {seed}: nothing was evaluated");
    }
}
