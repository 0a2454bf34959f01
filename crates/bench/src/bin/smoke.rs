//! Scoring-engine smoke benchmark.
//!
//! Runs a repeated-candidate scoring workload — the access pattern of the
//! search strategies, which re-score the same CQs across rounds and union
//! assemblies — once through the uncached [`PreparedLabels`] path and once
//! through the shared [`ScoringEngine`] (cold on every repetition), best
//! of [`REPS`] each, then writes a single-line JSON summary to
//! `BENCH_scoring.json` at the workspace root. Exits 1 when the cached
//! side is less than 2× faster.
//!
//! Usage: `cargo run --release -p obx-bench --bin smoke`

use obx_bench::harness::{Best, Report};
use obx_core::explain::{ExplainTask, SearchLimits};
use obx_core::score::Scoring;
use obx_core::ScoringEngine;
use obx_datagen::random_scenario::random_query;
use obx_datagen::{university_scenario, UniversityParams};
use obx_query::OntoUcq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Distinct candidate queries in the pool (the 1–3-atom query space over
/// the university vocabulary is small; 16 distinct shapes fill reliably).
const POOL: usize = 16;
/// How many times the workload cycles through the pool.
const ROUNDS: usize = 12;
/// Repetitions per side; the best wall time is kept.
const REPS: usize = 5;

fn main() {
    let scenario = university_scenario(UniversityParams {
        n_students: 60,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let task = ExplainTask::new(
        &scenario.system,
        &scenario.labels,
        1,
        &scoring,
        SearchLimits::default(),
    )
    .expect("university scenario yields a valid task");

    // A pool of distinct compilable candidates, then a workload that cycles
    // through it ROUNDS times (strategies re-visit candidates like this when
    // beam rounds overlap and GreedyUcq assembles unions).
    let mut rng = StdRng::seed_from_u64(0xb0b);
    let mut pool: Vec<OntoUcq> = Vec::new();
    let mut draws = 0usize;
    while pool.len() < POOL {
        draws += 1;
        assert!(draws < 10_000, "candidate pool failed to fill");
        let q = random_query(&scenario.system, &mut rng, 1 + draws % 3);
        if task.prepared().stats_of(&q).is_ok() && !pool.contains(&q) {
            pool.push(q);
        }
    }
    let workload: Vec<&OntoUcq> = (0..POOL * ROUNDS).map(|i| &pool[i % POOL]).collect();

    // Baseline: compile + evaluate every candidate from scratch.
    let uncached = Best::of(
        REPS,
        |a: &usize, b: &usize| assert_eq!(a, b, "uncached checksum drifted"),
        || {
            workload
                .iter()
                .map(|q| {
                    let stats = task.prepared().stats_of(q).expect("pool is compilable");
                    stats.pos_matched + stats.neg_matched
                })
                .sum::<usize>()
        },
    );

    // Engine: canonical-form memo cache + bitset OR for unions, cold on
    // every repetition.
    let cached = Best::of(
        REPS,
        |a: &(usize, ScoringEngine), b: &(usize, ScoringEngine)| {
            assert_eq!(a.0, b.0, "cached checksum drifted")
        },
        || {
            let engine = ScoringEngine::new();
            let checksum = workload
                .iter()
                .map(|q| {
                    let stats = engine
                        .stats_ucq(task.prepared(), q)
                        .expect("pool is compilable");
                    stats.pos_matched + stats.neg_matched
                })
                .sum::<usize>();
            (checksum, engine)
        },
    );
    let (checksum_cached, engine) = cached.run();
    assert_eq!(
        uncached.run(),
        checksum_cached,
        "engine disagrees with the uncached scorer"
    );

    let n = workload.len() as f64;
    let hits = engine.cache_hits();
    let misses = engine.cache_misses();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let speedup = uncached.ms() / cached.ms().max(1e-9);

    // One extra (untimed) profiled pass over the pool through a fresh
    // engine: the recorder rides the task's budget down into the compile
    // kernels, and the resulting pipeline profile is embedded in the
    // bench JSON.
    let recorder = obx_util::obs::Recorder::new();
    {
        let budget =
            obx_core::budget::SearchBudget::unlimited().with_recorder(Arc::clone(&recorder));
        let profiled = task
            .with_budget(budget)
            .with_engine(Arc::new(ScoringEngine::new()));
        let _phase = recorder.enter_phase("scoring");
        for q in &pool {
            let _ = profiled.score_ucq(q);
        }
    }

    Report::new("scoring_smoke")
        .count("candidates", workload.len() as u64)
        .ms("uncached_ms", uncached.ms())
        .ms("cached_ms", cached.ms())
        .real("uncached_cps", n / (uncached.ms() / 1e3).max(1e-12), 1)
        .real("cached_cps", n / (cached.ms() / 1e3).max(1e-12), 1)
        .real("speedup", speedup, 2)
        .real("cache_hit_rate", hit_rate, 4)
        .count("eval_calls", engine.eval_calls())
        .profile(&recorder.profile())
        .finish("scoring");

    if speedup < 2.0 {
        eprintln!("WARNING: speedup {speedup:.2}x below the 2x acceptance target");
        std::process::exit(1);
    }
}
