//! Resilience suite: deadlines, cancellation, eval budgets, and panic
//! isolation across the whole request path.
//!
//! The contract under test (see `DESIGN.md`, "Resilient search runtime"):
//! every built-in strategy is **anytime** — when its [`SearchBudget`]
//! fires, or a candidate's scoring panics or fails permanently, the run
//! returns the best explanations found so far tagged with a
//! [`Termination`] status instead of erroring or crashing. The
//! fault-injection hook (`obx-core`'s `fault-injection` feature) arms a
//! per-engine trap that makes the Nth fresh scoring call fail or panic.

use obx_core::budget::{SearchBudget, Termination};
use obx_core::engine::fault::FaultMode;
use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::Scoring;
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_datagen::{university_scenario, UniversityParams};
use obx_obdm::example_3_6_system;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// Every built-in strategy, with limits small enough that the exhaustive
/// enumeration stays in test-suite time.
fn all_strategies() -> Vec<Box<dyn Strategy>> {
    strategies_with_exhaustive_cap(500)
}

/// [`all_strategies`] with the exhaustive enumeration capped at `cap`
/// candidates.
fn strategies_with_exhaustive_cap(cap: usize) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize::default()),
        Box::new(ExhaustiveSearch {
            max_candidates: cap,
        }),
        Box::new(GreedyUcq::default()),
    ]
}

/// The fresh (cache-missing) scoring call the panic test arms.
const ARMED_MISS: u64 = 3;

#[test]
fn every_strategy_survives_a_panicking_scoring_call() {
    // Exhaustive enumeration on the paper example reaches its first
    // data-live candidates late: its first 5,000 candidates are all
    // data-dead, most because a variable sits in two columns that share
    // no constant, so they share the empty source's one memo slot and
    // make one miss. A 10,000-candidate cap makes it reach the armed
    // miss.
    for strategy in strategies_with_exhaustive_cap(10_000) {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        // Not vacuous: unarmed, the strategy makes at least the armed
        // number of memo misses, so the fault below does fire.
        let unarmed =
            ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        strategy.explain_with_status(&unarmed).unwrap();
        assert!(
            unarmed.engine().cache_misses() >= ARMED_MISS,
            "{}: an unarmed run makes only {} misses",
            strategy.name(),
            unarmed.engine().cache_misses()
        );
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        // The 3rd fresh (cache-missing) scoring call panics.
        task.engine().arm_fault(ARMED_MISS, FaultMode::Panic);
        let report = strategy
            .explain_with_status(&task)
            .unwrap_or_else(|e| panic!("{} aborted on a panic: {e}", strategy.name()));
        assert!(
            !report.explanations.is_empty(),
            "{}: no best-so-far results",
            strategy.name()
        );
        assert_eq!(
            report.termination,
            Termination::Degraded { quarantined: 1 },
            "{}",
            strategy.name()
        );
        assert_eq!(report.quarantined, 1, "{}", strategy.name());
        // Ranked descending even in degraded mode.
        for w in report.explanations.windows(2) {
            assert!(w[0].score >= w[1].score, "{}", strategy.name());
        }
        // The engine and its worker pool stay usable: the fault is spent,
        // a panic is never memoized, so a re-run on the same task covers
        // the quarantined candidate too and completes cleanly.
        let rerun = strategy.explain_with_status(&task).unwrap();
        assert!(
            rerun.termination.is_complete(),
            "{}: rerun ended {}",
            strategy.name(),
            rerun.termination
        );
        assert!(rerun.explanations[0].score >= report.explanations[0].score);
    }
}

#[test]
fn permanent_scoring_failures_are_quarantined_not_fatal() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
    // The 2nd fresh scoring call fails with a permanent ObdmError.
    task.engine().arm_fault(2, FaultMode::Fail);
    let report = BeamSearch.explain_with_status(&task).unwrap();
    assert!(!report.explanations.is_empty());
    assert_eq!(report.termination, Termination::Degraded { quarantined: 1 });
    // `explain` (the report-less entry point) degrades identically instead
    // of erroring: same engine, fault already spent, so it completes.
    let plain = BeamSearch.explain(&task).unwrap();
    assert!(!plain.is_empty());
}

/// Beam search on the paper's example under an eval cap of 12, scored on
/// an engine with `threads` workers. Returns the engine's eval total.
fn beam_under_eval_cap(threads: usize) -> u64 {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    // Each fresh candidate costs at most |λ⁺| + |λ⁻| = 5 evaluations
    // here, so a cap of 12 stops the search inside the very first batch.
    let budget = SearchBudget::unlimited().with_max_evals(12);
    let task =
        ExplainTask::new_with_budget(&sys, &labels, 1, &scoring, SearchLimits::default(), budget)
            .unwrap()
            .with_engine(Arc::new(ScoringEngine::with_threads(threads)));
    let report = BeamSearch.explain_with_status(&task).unwrap();
    assert_eq!(report.termination, Termination::EvalBudgetExhausted);
    assert!(!report.explanations.is_empty());
    task.engine().eval_calls()
}

#[test]
fn eval_budget_exhaustion_returns_best_so_far() {
    // The stop is checked at candidate granularity: on one worker the
    // overshoot is bounded by one candidate's worth of evals.
    let evals = beam_under_eval_cap(1);
    assert!(evals <= 12 + 5, "eval overshoot: {evals}");
}

#[test]
fn eval_budget_overshoot_is_bounded_per_worker() {
    // Each worker checks the stop before each candidate it takes, so up
    // to one candidate per worker can be in flight when the cap is
    // crossed.
    let threads = 2;
    let evals = beam_under_eval_cap(threads);
    assert!(
        evals <= 12 + 5 * threads as u64,
        "eval overshoot on {threads} workers: {evals}"
    );
}

#[test]
fn pre_cancelled_token_yields_graceful_empty_ish_run() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let budget = SearchBudget::unlimited();
    budget.cancel_token().cancel();
    // Border preparation, rewriting, and every batch all see the trigger:
    // the run must return (fast) with Cancelled, never error or hang.
    let task =
        ExplainTask::new_with_budget(&sys, &labels, 1, &scoring, SearchLimits::default(), budget)
            .unwrap();
    for strategy in all_strategies() {
        match strategy.explain_with_status(&task) {
            Ok(report) => assert_eq!(
                report.termination,
                Termination::Cancelled,
                "{}",
                strategy.name()
            ),
            // Bottom-up may find no seeds at all in the truncated borders;
            // that surfaces as NoLabels, which is also acceptable here.
            Err(e) => assert!(
                e.to_string().contains("labels no tuple"),
                "{}: {e}",
                strategy.name()
            ),
        }
    }
}

#[test]
fn mid_run_cancellation_from_another_thread_stops_the_search() {
    let scenario = university_scenario(UniversityParams {
        n_students: 60,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let budget = SearchBudget::unlimited();
    let token = budget.cancel_token().clone();
    let task = ExplainTask::new_with_budget(
        &scenario.system,
        &scenario.labels,
        1,
        &scoring,
        SearchLimits::default(),
        budget,
    )
    .unwrap();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    let report = BeamSearch.explain_with_status(&task).unwrap();
    canceller.join().unwrap();
    // Either the search was quick enough to finish first, or it stopped
    // with Cancelled; it must never error.
    assert!(
        report.termination == Termination::Cancelled || report.termination.is_complete(),
        "unexpected termination: {}",
        report.termination
    );
}

#[test]
fn timeout_is_respected_within_2x_on_the_e6_scenario() {
    // The E6 strategy-benchmark scenario (scaled university). An
    // unbudgeted beam run takes far longer than the timeout here; the
    // deadline must cut it short close to the requested wall-clock.
    let scenario = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let timeout = Duration::from_millis(250);
    let budget = SearchBudget::unlimited().with_timeout(timeout);
    let limits = SearchLimits {
        max_rounds: 40,
        ..SearchLimits::default()
    };
    let started = Instant::now();
    let task = ExplainTask::new_with_budget(
        &scenario.system,
        &scenario.labels,
        1,
        &scoring,
        limits,
        budget,
    )
    .unwrap();
    let report = BeamSearch.explain_with_status(&task).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed <= timeout * 2,
        "deadline overrun: {elapsed:?} for a {timeout:?} budget"
    );
    assert!(
        !report.explanations.is_empty(),
        "anytime contract: best-so-far must not be empty"
    );
    if report.termination.is_complete() {
        // The machine was fast enough to finish inside the budget — the
        // timing bound above still held, which is what this test pins.
        eprintln!("note: E6 beam completed inside the timeout on this machine");
    } else {
        assert_eq!(report.termination, Termination::DeadlineExpired);
    }
}

#[test]
fn transient_budget_failures_are_not_memoized() {
    // A deadline firing mid-compile must not poison the engine's memo
    // cache: re-running with a fresh budget on the same engine must
    // succeed and reach the paper's optimum.
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
    let expired = task.with_budget(
        SearchBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)),
    );
    let stopped = BeamSearch.explain_with_status(&expired).unwrap();
    assert_eq!(stopped.termination, Termination::DeadlineExpired);
    assert_eq!(stopped.quarantined, 0, "budget stops are not quarantine");
    // Same engine, unlimited budget: everything compiles fresh.
    let report = BeamSearch.explain_with_status(&task).unwrap();
    assert!(report.termination.is_complete());
    assert!(report.explanations[0].score >= 0.8333 - 1e-3);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Cancelling (via an eval cap standing in for "cancel after k evals" —
    /// on the sequential scoring path the two stop identically, at the
    /// next candidate boundary) at an arbitrary point never panics, and
    /// every reported explanation is *sound*: re-scoring its query on an
    /// unbudgeted task reproduces the reported Z-score exactly. This is
    /// why `finalize` must not minimize under a fired budget — the
    /// reported queries are exactly the scored ones.
    #[test]
    fn budget_stopped_runs_report_sound_scores(cap in 1u64..200) {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let budget = SearchBudget::unlimited().with_max_evals(cap);
        let limits = SearchLimits::default();
        let budgeted =
            ExplainTask::new_with_budget(&sys, &labels, 1, &scoring, limits, budget).unwrap();
        let report = BeamSearch.explain_with_status(&budgeted).unwrap();
        prop_assert!(matches!(
            report.termination,
            Termination::EvalBudgetExhausted | Termination::Complete
        ));
        // Reference task: fresh engine, no budget.
        let reference =
            ExplainTask::new(&sys, &labels, 1, &scoring, limits).unwrap();
        for e in &report.explanations {
            let fresh = reference.score_ucq(&e.query).unwrap();
            prop_assert!(
                (fresh.score - e.score).abs() < 1e-12,
                "anytime result mis-scored: reported {} vs fresh {}",
                e.score,
                fresh.score
            );
            prop_assert_eq!(fresh.stats.pos_matched, e.stats.pos_matched);
            prop_assert_eq!(fresh.stats.neg_matched, e.stats.neg_matched);
        }
        // Monotonicity of the anytime prefix: a larger budget can only
        // improve (or match) the best reported score, never regress it,
        // because the ranked pool grows monotonically with evals.
        if let (Some(first), Termination::EvalBudgetExhausted) =
            (report.explanations.first(), report.termination)
        {
            let full = BeamSearch.explain_with_status(&reference).unwrap();
            prop_assert!(full.explanations[0].score >= first.score - 1e-12);
        }
    }
}
