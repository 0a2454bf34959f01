//! Output equivalence of the incremental search path with the baseline.
//!
//! The monotone accelerations (`obx-core`'s `prune` module) — parent-delta
//! evaluation and admissible bound pruning — claim to be *exact*: the
//! incremental engine must return byte-identical ranked explanations and
//! Z-scores to a baseline engine that compiles and fully evaluates every
//! candidate. These tests pin that claim on the paper's example, on a
//! deterministic university scenario, and on randomized scenarios across
//! every built-in strategy, and separately check that budget-stopped
//! incremental runs still return only correctly-scored explanations
//! (anytime soundness under pruning).

use obx_core::budget::SearchBudget;
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::Scoring;
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_datagen::{random_scenario, university_scenario, RandomParams, UniversityParams};
use obx_obdm::example_3_6_system;
use proptest::prelude::*;
use std::sync::Arc;

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// The round-loop strategies (exhaustive is exercised separately with a
/// tighter atom limit to stay in test-suite time).
fn lattice_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize::default()),
        Box::new(GreedyUcq::default()),
    ]
}

/// Runs `strategy` twice on the same task — once on a baseline engine
/// (incremental off) and once on an incremental engine — and returns both
/// reports plus the incremental engine's saved-evaluation counter.
fn run_both(
    task: &ExplainTask<'_>,
    strategy: &dyn Strategy,
) -> (ExplainReport, ExplainReport, u64) {
    let base = Arc::new(ScoringEngine::with_config(2, false));
    let incr = Arc::new(ScoringEngine::with_config(2, true));
    let off = strategy
        .explain_with_status(&task.with_engine(Arc::clone(&base)))
        .expect("baseline run succeeds");
    let on = strategy
        .explain_with_status(&task.with_engine(Arc::clone(&incr)))
        .expect("incremental run succeeds");
    (off, on, incr.evals_saved())
}

/// Field-by-field identity of the two ranked reports: same queries in the
/// same order, bit-identical Z-scores and criterion values, equal stats.
/// Quarantine counts are deliberately *not* compared — a pruned candidate
/// is never scored, so fault/budget bookkeeping may differ between modes.
fn assert_reports_identical(ctx: &str, off: &ExplainReport, on: &ExplainReport) {
    assert_eq!(
        off.explanations.len(),
        on.explanations.len(),
        "{ctx}: explanation counts diverge"
    );
    for (i, (a, b)) in off
        .explanations
        .iter()
        .zip(on.explanations.iter())
        .enumerate()
    {
        assert_eq!(a.query, b.query, "{ctx}: rank {i} queries diverge");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{ctx}: rank {i} Z-scores diverge ({} vs {})",
            a.score,
            b.score
        );
        assert_eq!(a.stats, b.stats, "{ctx}: rank {i} stats diverge");
        assert_eq!(
            a.criterion_values.len(),
            b.criterion_values.len(),
            "{ctx}: rank {i} criterion counts diverge"
        );
        for (j, (x, y)) in a
            .criterion_values
            .iter()
            .zip(b.criterion_values.iter())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: rank {i} criterion {j} diverges"
            );
        }
    }
}

#[test]
fn paper_example_identical_across_modes_for_every_strategy() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::accuracy();
    let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
    for strategy in lattice_strategies() {
        let (off, on, _) = run_both(&task, strategy.as_ref());
        assert_reports_identical(strategy.name(), &off, &on);
    }
    // The first 5,000 candidates of the paper's lattice are all
    // data-dead, so a lower cap would compare runs that evaluate nothing.
    let exhaustive = ExhaustiveSearch {
        max_candidates: 10_000,
    };
    let (off, on, _) = run_both(&task, &exhaustive);
    assert_reports_identical("exhaustive", &off, &on);
}

/// Mid-size deterministic scenario: identical output *and* the delta path
/// actually fires (saved evaluations are strictly positive, otherwise the
/// equivalence above would be vacuous).
#[test]
fn university_scenario_identical_and_delta_path_fires() {
    let scenario = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&scenario.system, &scenario.labels, 1, &scoring, limits).unwrap();
    for strategy in lattice_strategies() {
        let (off, on, saved) = run_both(&task, strategy.as_ref());
        assert_reports_identical(strategy.name(), &off, &on);
        assert!(
            saved > 0,
            "{}: incremental engine saved no evaluations",
            strategy.name()
        );
    }
}

/// Lighter strategy settings for the randomized sweeps: random borders
/// are much denser than the curated scenarios', so bottom-up's default
/// 16-atom seeds and greedy's 16-candidate base pool blow the test-suite
/// time budget without exercising anything new.
fn light_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize {
            max_seeds: 2,
            max_seed_atoms: 6,
        }),
        Box::new(GreedyUcq {
            base: Box::new(BeamSearch),
            max_disjuncts: 3,
            base_pool: 8,
        }),
    ]
}

fn scenario_params(seed: u64) -> RandomParams {
    RandomParams {
        seed,
        n_individuals: 16,
        n_concept_facts: 22,
        n_role_facts: 26,
        n_concepts: 4,
        n_roles: 3,
        ..RandomParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Randomized scenarios: every lattice strategy returns byte-identical
    /// ranked output on both engines. Limits are tight — random scenarios
    /// are denser than real ones, and each case runs three full searches
    /// twice; the deterministic tests above cover the default limits.
    #[test]
    fn randomized_scenarios_identical_across_modes(seed in 0u64..500) {
        let s = random_scenario(scenario_params(seed));
        let scoring = Scoring::accuracy();
        let limits = SearchLimits {
            max_atoms: 2,
            max_vars: 3,
            beam_width: 4,
            max_rounds: 3,
            top_k: 4,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
        for strategy in light_strategies() {
            let (off, on, _) = run_both(&task, strategy.as_ref());
            assert_reports_identical(&format!("seed {seed} / {}", strategy.name()), &off, &on);
        }
    }

    /// Exhaustive enumeration (small atom cap so the candidate space stays
    /// tractable) is floor-pruned in the incremental engine; the ranking
    /// must not move.
    #[test]
    fn randomized_exhaustive_identical_across_modes(seed in 0u64..500) {
        let s = random_scenario(scenario_params(seed));
        let scoring = Scoring::accuracy();
        let limits = SearchLimits { max_atoms: 2, top_k: 4, ..SearchLimits::default() };
        let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
        let strategy = ExhaustiveSearch { max_candidates: 3000 };
        let (off, on, _) = run_both(&task, &strategy);
        assert_reports_identical(&format!("seed {seed} / exhaustive"), &off, &on);
    }

    /// Anytime soundness under pruning: a budget-stopped incremental run
    /// may return *fewer* explanations than the baseline (restricted
    /// evaluation charges fewer evals, so the cap fires elsewhere), but
    /// every explanation it does return must re-score identically on a
    /// fresh unlimited baseline task — pruning never fabricates or
    /// mis-scores a result.
    #[test]
    fn budget_stopped_incremental_results_rescore_identically(
        seed in 0u64..500,
        max_evals in 8u64..60,
    ) {
        let s = random_scenario(scenario_params(seed));
        let scoring = Scoring::accuracy();
        let limits = SearchLimits { beam_width: 8, top_k: 5, ..SearchLimits::default() };
        let budget = SearchBudget::unlimited().with_max_evals(max_evals);
        let capped = ExplainTask::new_with_budget(
            &s.system, &s.labels, 1, &scoring, limits, budget,
        ).unwrap();
        let reference = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
        let ref_task = reference.with_engine(Arc::new(ScoringEngine::with_config(2, false)));
        for strategy in light_strategies() {
            let incr = Arc::new(ScoringEngine::with_config(2, true));
            let report = strategy
                .explain_with_status(&capped.with_engine(Arc::clone(&incr)))
                .expect("budget-stopped runs still return a report");
            for e in &report.explanations {
                let fresh = ref_task.score_ucq(&e.query).expect("re-scoring succeeds");
                prop_assert_eq!(
                    e.score.to_bits(), fresh.score.to_bits(),
                    "seed {} / {}: budget-stopped result mis-scored", seed, strategy.name()
                );
                prop_assert_eq!(&e.stats, &fresh.stats);
            }
        }
    }
}
