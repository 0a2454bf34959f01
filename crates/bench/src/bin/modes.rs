//! Explanation-mode benchmark: sound / complete vs the paper's F-score.
//!
//! Runs the beam strategy under all three [`ExplainMode`] objectives on
//! two workloads — the 600-student university scenario (the paper's
//! running example at scale) and the skewed flagship pruning scenario —
//! and reports per-mode wall time and pruning rates to
//! `BENCH_modes.json` at the workspace root.
//!
//! Beyond timing, the run is a correctness gate for the mode objectives
//! themselves, with three families of hard asserts (exit 1 on any
//! violation):
//!
//! * **sound output is sound** — the top sound-mode explanation matches
//!   zero λ⁻ tuples on every scenario where a sound candidate exists;
//! * **complete output is complete** — the top complete-mode explanation
//!   covers every λ⁺ tuple;
//! * **the objectives are genuinely different** — on the audit scenario
//!   ([`modes_scenario`]), whose best sound / best complete / best
//!   F-score explanations provably differ, the three winners must be
//!   three distinct queries (`vetted`, `screened`, `reviewed`
//!   respectively); any conflation of the lexicographic encodings would
//!   collapse two of them.
//!
//! The skewed runs additionally assert `pruned > 0`: the mode scorings'
//! interval bounds (δS/δC pins + coverage/precision corners) must keep
//! the optimistic-bound pruning path live, not just the plain-criteria
//! bounds the `search` bench guards.
//!
//! Usage: `cargo run --release -p obx-bench --bin modes`

use obx_bench::harness::{ranked, Best, Report};
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::score::{ExplainMode, Scoring};
use obx_core::strategies::{BeamSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_datagen::{
    modes_scenario, skewed_scenario, university_scenario, ModesParams, Scenario, SkewedParams,
    UniversityParams,
};
use std::sync::Arc;

/// Repetitions per (scenario, mode); the best wall time is kept. The
/// three modes are interleaved (fscore, sound, complete, fscore, …) so a
/// slow phase of the machine taxes every mode equally.
const REPS: usize = 5;

struct ModeRun {
    engine: Arc<ScoringEngine>,
    report: ExplainReport,
}

impl ModeRun {
    fn candidates(&self) -> u64 {
        self.engine.cache_hits() + self.engine.cache_misses()
    }

    /// The share of generated candidates pruned. A candidate pruned
    /// before compilation never reaches the engine; one whose evaluation
    /// a cutoff stopped is a cache miss *and* pruned, so it is counted
    /// once.
    fn prune_rate(&self) -> f64 {
        let pruned = self.report.pruned as f64;
        let generated = self.candidates() as f64 + pruned - self.engine.cutoffs() as f64;
        pruned / generated.max(1.0)
    }
}

fn run_once<'a>(task: &ExplainTask<'a>, scoring: &'a Scoring, strategy: &dyn Strategy) -> ModeRun {
    let engine = Arc::new(ScoringEngine::with_incremental(true));
    let t = task.with_scoring(scoring).with_engine(Arc::clone(&engine));
    let report = strategy
        .explain_with_status(&t)
        .expect("benchmark scenarios yield valid searches");
    ModeRun { engine, report }
}

fn scorings_for(scenario: &Scenario, fscore: &Scoring) -> [Scoring; 3] {
    let (p, n) = (scenario.labels.pos().len(), scenario.labels.neg().len());
    [fscore.clone(), Scoring::sound(p), Scoring::complete(p, n)]
}

fn top<'r>(run: &'r ModeRun, what: &str) -> &'r obx_core::explain::Explanation {
    run.report
        .explanations
        .first()
        .unwrap_or_else(|| panic!("{what}: search returned no explanations"))
}

fn assert_sound(scenario_name: &str, run: &ModeRun) {
    let t = top(run, scenario_name);
    assert_eq!(
        t.stats.neg_matched, 0,
        "{scenario_name}: sound-mode winner hits {} λ⁻ tuple(s)",
        t.stats.neg_matched
    );
}

fn assert_complete(scenario_name: &str, run: &ModeRun) {
    let t = top(run, scenario_name);
    assert_eq!(
        t.stats.pos_matched,
        t.stats.pos_total,
        "{scenario_name}: complete-mode winner misses {} λ⁺ tuple(s)",
        t.stats.pos_total - t.stats.pos_matched
    );
}

/// Runs all three modes on one scenario, best of [`REPS`] interleaved,
/// and writes their fields. Returns the kept [fscore, sound, complete]
/// runs for scenario-specific asserts, and their wall times.
fn bench_scenario(
    key: &str,
    scenario: &Scenario,
    fscore: &Scoring,
    strategy: &dyn Strategy,
    radius: usize,
    limits: SearchLimits,
    report: &mut Report,
) -> ([ModeRun; 3], [f64; 3]) {
    let scorings = scorings_for(scenario, fscore);
    let task = ExplainTask::new(
        &scenario.system,
        &scenario.labels,
        radius,
        &scorings[0],
        limits,
    )
    .expect("benchmark scenario yields a valid task");
    let mut best: [_; 3] = std::array::from_fn(|_| {
        Best::new(|kept: &ModeRun, run: &ModeRun| {
            let sys = &scenario.system;
            assert_eq!(
                ranked(&run.report, sys),
                ranked(&kept.report, sys),
                "{key}: ranked output drifted"
            );
        })
    });
    for _ in 0..REPS {
        for (side, scoring) in best.iter_mut().zip(scorings.iter()) {
            side.time(|| run_once(&task, scoring, strategy));
        }
    }
    for (mode, side) in ExplainMode::ALL.iter().zip(best.iter()) {
        let run = side.run();
        report
            .ms(format!("{key}_{mode}_ms"), side.ms())
            .count(format!("{key}_{mode}_candidates"), run.candidates())
            .count(format!("{key}_{mode}_pruned"), run.report.pruned as u64)
            .real(format!("{key}_{mode}_prune_rate"), run.prune_rate(), 4);
    }
    let ms = best.each_ref().map(|side| side.ms());
    (best.map(|side| side.into_run()), ms)
}

fn main() {
    let mut report = Report::new("modes");
    report
        .count("uni_students", 600)
        .count("skewed_students", 300);

    // Workload 1: the university scenario at 600 students, paper Z with
    // unit weights as the fscore reference (the service default).
    let uni = university_scenario(UniversityParams {
        n_students: 600,
        ..UniversityParams::default()
    });
    let fscore = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let (uni_runs, uni_ms) = bench_scenario(
        "uni",
        &uni,
        &fscore,
        &BeamSearch,
        2,
        SearchLimits {
            beam_width: 12,
            top_k: 5,
            ..SearchLimits::default()
        },
        &mut report,
    );
    assert_sound("university", &uni_runs[1]);
    assert_complete("university", &uni_runs[2]);
    // Complete mode is the slowest objective; rising floors and
    // in-evaluation cutoffs must keep pruning it (a specialization of an
    // incomplete parent can never become complete).
    assert!(
        uni_runs[2].report.pruned > 0,
        "uni/complete: bound pruning went dark under the complete scoring"
    );
    report.real(
        "uni_complete_over_fscore",
        uni_ms[2] / uni_ms[0].max(1e-9),
        2,
    );

    // Workload 2: the skewed flagship pruning scenario (see the `search`
    // bench for why this shape makes the optimistic bound bite). Here it
    // guards that the *mode* scorings keep pruning live: the δS/δC
    // indicator pins and the precision corner bounds must discard the
    // dominated registrar branches exactly like the plain coverage
    // criteria do.
    let skewed = skewed_scenario(SkewedParams {
        n_students: 300,
        n_registrar_kinds: 10,
        ..SkewedParams::default()
    });
    let skewed_fscore = Scoring::accuracy();
    let (skewed_runs, _) = bench_scenario(
        "skewed",
        &skewed,
        &skewed_fscore,
        &BeamSearch,
        1,
        SearchLimits {
            max_atoms: 1,
            beam_width: 4,
            top_k: 1,
            ..SearchLimits::default()
        },
        &mut report,
    );
    assert_sound("skewed", &skewed_runs[1]);
    assert_complete("skewed", &skewed_runs[2]);
    assert!(
        skewed_runs[1].report.pruned > 0,
        "skewed/sound: bound pruning went dark under the sound scoring"
    );

    // Workload 2b: the same skewed scenario under greedy-UCQ. Each
    // mode's prune lever is direction-specific. The beam (Specialize)
    // run above proves sound-mode pruning: an unsound parent's children
    // bound at δS's dead pin. Union assembly is the Generalize-flavoured
    // dual, and it is where complete mode prunes: adding a disjunct can
    // only add λ⁻ hits (`lo_n ≥ n_chosen`) and more atoms, so once the
    // chosen union is complete, the interval gate proves every further
    // trial non-improving — precision is capped at P/(P+lo_n) and δ5
    // strictly falls — and skips it unscored. Sound mode prunes here
    // too: a λ⁻-dirty disjunct pins the trial's δS to 0, killing it
    // before evaluation.
    let (skewed_ucq_runs, _) = bench_scenario(
        "skewed_ucq",
        &skewed,
        &skewed_fscore,
        &GreedyUcq::default(),
        1,
        SearchLimits {
            max_atoms: 1,
            beam_width: 4,
            top_k: 1,
            ..SearchLimits::default()
        },
        &mut report,
    );
    assert_sound("skewed-ucq", &skewed_ucq_runs[1]);
    assert_complete("skewed-ucq", &skewed_ucq_runs[2]);
    for (mode, run) in ExplainMode::ALL.iter().zip(skewed_ucq_runs.iter()).skip(1) {
        assert!(
            run.report.pruned > 0,
            "skewed-ucq/{mode}: union bound pruning went dark under the {mode} scoring"
        );
    }

    // Workload 3 (untimed): the audit scenario engineered so the three
    // winners provably differ — the conflation canary.
    let audit = modes_scenario(ModesParams::default());
    let audit_scorings = scorings_for(&audit, &fscore);
    let audit_task = ExplainTask::new(
        &audit.system,
        &audit.labels,
        1,
        &audit_scorings[0],
        SearchLimits {
            max_atoms: 1,
            beam_width: 8,
            top_k: 1,
            ..SearchLimits::default()
        },
    )
    .expect("audit scenario yields a valid task");
    let audit_runs = audit_scorings
        .each_ref()
        .map(|s| run_once(&audit_task, s, &BeamSearch));
    assert_sound("audit", &audit_runs[1]);
    assert_complete("audit", &audit_runs[2]);
    let rendered: Vec<String> = audit_runs
        .iter()
        .map(|r| top(r, "audit").render(&audit.system))
        .collect();
    eprintln!(
        "audit winners: fscore={} sound={} complete={}",
        rendered[0], rendered[1], rendered[2]
    );
    assert!(
        rendered[0] != rendered[1] && rendered[0] != rendered[2] && rendered[1] != rendered[2],
        "audit: mode winners conflated — fscore={}, sound={}, complete={}",
        rendered[0],
        rendered[1],
        rendered[2]
    );

    report.flag("mode_winners_differ", true).finish("modes");
}
