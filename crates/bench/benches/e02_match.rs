//! E2 — J-matching (Definition 3.4): the cost of checking the paper's
//! three queries against all five borders, split into the compile-once
//! and match-per-tuple parts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use obx_core::paper_example::PaperExample;
use obx_core::ScoringEngine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e02_match");
    let ex = PaperExample::new();
    let prepared = ex.prepared();
    let engine = ScoringEngine::new();
    for (_, q) in ex.queries() {
        engine.stats_ucq(&prepared, q).unwrap(); // warm the memo cache
    }

    for (name, q) in ex.queries() {
        group.bench_function(format!("compile_{name}"), |b| {
            b.iter(|| black_box(ex.system.spec().compile(q).unwrap().src_disjuncts()))
        });
        let compiled = ex.system.spec().compile(q).unwrap();
        group.bench_function(format!("match_all_borders_{name}"), |b| {
            b.iter(|| black_box(prepared.stats(&compiled)))
        });
        group.bench_function(format!("engine_cached_{name}"), |b| {
            b.iter(|| black_box(engine.stats_ucq(&prepared, q).unwrap()))
        });
    }
    group.bench_function("full_match_matrix", |b| {
        b.iter(|| black_box(ex.match_matrix().unwrap().len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
