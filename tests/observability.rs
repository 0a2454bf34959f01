//! Observability-core invariants.
//!
//! The recorder must (a) aggregate spans by path with parents listed
//! before children, (b) merge counters additively and `count_max`
//! counters by maximum, (c) estimate histogram quantiles within the
//! documented 25% envelope of a sorted-vector oracle, (d) be fully
//! inert when disabled, and (e) — the load-bearing one — never change
//! ranked explanations: a profiled run and an unprofiled run of the
//! same task return byte-identical queries and scores.

use obx_core::budget::SearchBudget;
use obx_core::criteria::Criterion;
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::{ScoreExpr, Scoring};
use obx_core::service::{run_explain, ExplainRequest};
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_core::ScoringEngine;
use obx_util::obs::{histogram, Recorder};
use proptest::prelude::*;
use std::sync::Arc;

#[test]
fn spans_aggregate_by_path_in_entry_order() {
    let rec = Recorder::new();
    if !rec.is_enabled() {
        return; // compiled without the `obs` feature or OBX_OBS=0
    }
    {
        let _root = rec.enter("explain");
        let _phase = rec.enter_phase("explain/search");
        for i in 0..3 {
            let mut k = rec.kernel("rewrite");
            k.count("disjuncts", 10 + i);
            k.count_max("frontier", 5 * (i + 1));
        }
        let _k2 = rec.kernel("chase");
    }
    let profile = rec.profile();
    let paths: Vec<&str> = profile.spans.iter().map(|s| s.path.as_str()).collect();
    // Entry order, parents before children, one aggregate per path.
    assert_eq!(
        paths,
        [
            "explain",
            "explain/search",
            "explain/search/rewrite",
            "explain/search/chase"
        ]
    );
    let rw = profile
        .span("explain/search/rewrite")
        .expect("rewrite span");
    assert_eq!(
        rw.count, 3,
        "three kernel invocations aggregate into one span"
    );
    assert_eq!(
        rw.counter("disjuncts"),
        10 + 11 + 12,
        "counters merge additively"
    );
    assert_eq!(rw.counter("frontier"), 15, "count_max merges by maximum");
    assert_eq!(rw.depth(), 2);
    assert_eq!(rw.name(), "rewrite");
    // Children iteration sees exactly the two kernels under the phase.
    let kids: Vec<&str> = profile
        .children_of("explain/search")
        .map(|s| s.name())
        .collect();
    assert_eq!(kids, ["rewrite", "chase"]);
    // Exporters stay in sync with the span list.
    let json = profile.to_json();
    assert!(json.contains("\"explain/search/rewrite\""));
    assert!(profile.render_tree().contains("rewrite"));
    assert!(profile.to_flamegraph().contains("explain;search;rewrite"));
}

#[test]
fn disabled_recorder_is_inert() {
    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());
    {
        let mut s = rec.enter("explain");
        assert!(!s.is_live());
        s.count("x", 1);
        let _k = rec.kernel("rewrite");
        rec.count("explain", "y", 2);
        rec.gauge("engine", "z", 3);
        rec.gauge_in_phase("engine", "z", 3);
    }
    assert!(
        rec.profile().is_empty(),
        "disabled recorder records nothing"
    );
    assert_eq!(rec.profile().to_json(), "{\"spans\":[]}");
}

proptest! {
    /// Histogram quantiles vs a sorted-vector oracle: the estimate is
    /// the upper bound of the oracle's bucket, so `oracle ≤ est ≤
    /// oracle + oracle/4` (exact below 4).
    #[test]
    fn histogram_quantile_tracks_oracle(
        seed in 0u64..1_000,
        n in 1usize..400,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Registry histograms are process-wide and dedupe by name, so a
        // reused name would accumulate across cases; lease a unique name
        // per case instead (the handle intentionally leaks, like any
        // registry metric).
        let name: &'static str = Box::leak(format!("test.obs.q{seed}.{n}").into_boxed_str());
        let h = histogram(name);
        let mut oracle: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            // Span several octaves including the exact small-value range.
            let v = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..4u64),
                1 => rng.gen_range(0..1_000u64),
                _ => rng.gen_range(0..1_000_000u64),
            };
            h.record(v);
            oracle.push(v);
        }
        if h.count() > 0 {
            // (Zero means observability is disabled in this build.)
            oracle.sort_unstable();
            for &q in &[0.0, 0.5, 0.95, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let want = oracle[rank - 1];
                let got = h.quantile(q);
                prop_assert!(got >= want, "q={}: estimate {} below oracle {}", q, got, want);
                prop_assert!(
                    got - want <= want / 4,
                    "q={}: estimate {} beyond 25% envelope of oracle {}", q, got, want
                );
            }
            prop_assert_eq!(h.sum(), oracle.iter().sum::<u64>());
        }
    }
}

fn explain_all(with_recorder: bool) -> Vec<ExplainReport> {
    let mut sys = obx_obdm::example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").expect("labels");
    let scoring = Scoring::new(
        vec![Criterion::PosCoverage, Criterion::NegAvoidance],
        ScoreExpr::weighted_average(&[1.0, 1.0]),
    );
    let limits = SearchLimits {
        max_atoms: 2,
        max_vars: 3,
        max_constants: 4,
        beam_width: 6,
        max_rounds: 4,
        top_k: 5,
    };
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize::default()),
        Box::new(ExhaustiveSearch::default()),
        Box::new(GreedyUcq::default()),
    ];
    strategies
        .iter()
        .map(|s| {
            let mut task = ExplainTask::new(&sys, &labels, 1, &scoring, limits)
                .expect("task")
                .with_engine(Arc::new(ScoringEngine::new()));
            if with_recorder {
                task = task.with_budget(
                    obx_core::budget::SearchBudget::unlimited().with_recorder(Recorder::new()),
                );
            }
            s.explain_with_status(&task).expect("search")
        })
        .collect()
}

/// The acceptance bar for instrumentation: profiling on vs off yields
/// byte-identical ranked explanations for every strategy.
#[test]
fn profiling_does_not_change_explanations() {
    let profiled = explain_all(true);
    let plain = explain_all(false);
    assert_eq!(profiled.len(), plain.len());
    for (a, b) in profiled.iter().zip(plain.iter()) {
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(b.explanations.iter()) {
            assert_eq!(x.query, y.query);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "scores must be bit-identical"
            );
        }
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.quarantined, b.quarantined);
        // Only the profiled run carries a profile (when obs is enabled).
        if obx_util::obs::enabled() {
            assert!(!a.profile.is_empty());
        }
        assert!(b.profile.is_empty());
    }
}

/// `engine/eval_nodes` is the run's own join work, not the process-wide
/// evaluator total: two identical runs in one process report the same
/// count.
#[test]
fn eval_nodes_gauge_counts_one_run_only() {
    let first = explain_all(true);
    let second = explain_all(true);
    if obx_util::obs::enabled() {
        for (a, b) in first.iter().zip(&second) {
            let nodes = |r: &ExplainReport| {
                r.profile
                    .span("engine")
                    .expect("engine gauges")
                    .counter("eval_nodes")
            };
            assert!(nodes(a) > 0);
            assert_eq!(nodes(a), nodes(b));
        }
    }
    let mut sys = obx_obdm::example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").expect("labels");
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let nodes: Vec<u64> = (0..2)
        .map(|_| {
            let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default())
                .expect("task")
                .with_engine(Arc::new(ScoringEngine::new()));
            BeamSearch.explain_with_status(&task).expect("search");
            task.engine().eval_nodes()
        })
        .collect();
    assert!(nodes[0] > 0);
    assert_eq!(nodes[0], nodes[1]);
}

/// `engine/dead_disjuncts` counts the source disjuncts the engine's
/// compiles dropped because no fact of the database matches one of their
/// atoms.
#[test]
fn dead_disjuncts_gauge_counts_data_dead_disjuncts() {
    if !obx_util::obs::enabled() {
        return;
    }
    let reports = explain_all(true);
    let dead = |r: &ExplainReport| {
        r.profile
            .span("engine")
            .expect("engine gauges")
            .counter("dead_disjuncts")
    };
    // Beam search's refinements put constants where no fact has them,
    // such as a subject in a city's place (`locatedIn(x, "Math")`).
    assert!(dead(&reports[0]) > 0);
    // Bottom-up generalizes the labelled tuples' border facts, so every
    // source disjunct it compiles matches some fact.
    assert_eq!(dead(&reports[1]), 0);
}

/// The per-round spans of the two refinement-round strategies on the
/// paper scenario (`obx explain --profile`'s default request): every
/// round aggregates under one path, `candidates` sums the rounds' fresh
/// batches, `depth` is the deepest round reached (beam numbers its
/// rounds from 1, bottom-up from 0) and `pruned` sums what the rising
/// floors skipped or cut off.
#[test]
fn round_spans_are_pinned_on_the_paper_scenario() {
    if !obx_util::obs::enabled() {
        return;
    }
    let mut sys = obx_obdm::example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").expect("labels");
    for (strategy, path, rounds, candidates, depth, pruned) in [
        ("beam", "explain/search/beam_round", 5, 4924, 5, 924),
        ("bottom-up", "explain/search/bottom_up_round", 6, 350, 5, 50),
    ] {
        let req = ExplainRequest {
            strategy: strategy.to_owned(),
            ..ExplainRequest::default()
        };
        let budget = SearchBudget::unlimited().with_recorder(Recorder::new());
        let outcome = run_explain(&sys, &labels, &req, budget).expect("explain");
        let report = outcome.report.expect("strategy report");
        let span = report.profile.span(path).expect("round span");
        assert_eq!(
            (
                span.count,
                span.counter("candidates"),
                span.counter("depth"),
                span.counter("pruned")
            ),
            (rounds, candidates, depth, pruned),
            "{strategy}: rounds, candidates, depth, pruned"
        );
    }
}

/// `OBX_OBS=0` must make a fresh recorder inert process-wide. The switch
/// is latched on first use, so probe it in a child process.
#[test]
fn obx_obs_env_disables_recorder() {
    if std::env::var("OBX_OBS_CHILD").is_ok() {
        let rec = Recorder::new();
        drop(rec.enter("explain"));
        assert!(!rec.is_enabled());
        assert!(rec.profile().is_empty());
        return;
    }
    let exe = std::env::current_exe().expect("test exe");
    let out = std::process::Command::new(exe)
        .args(["obx_obs_env_disables_recorder", "--exact", "--nocapture"])
        .env("OBX_OBS", "0")
        .env("OBX_OBS_CHILD", "1")
        .output()
        .expect("spawn child test");
    assert!(
        out.status.success(),
        "child run with OBX_OBS=0 failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
