//! E8 — border computation on databases up to 10^5 atoms.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use obx_bench::experiments::random_border_db;
use obx_srcdb::border;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e08_border_scale");
    for n_atoms in [1_000usize, 10_000, 100_000] {
        let db = random_border_db(17, n_atoms, n_atoms);
        let c0 = db.consts().get("c0").unwrap();
        group.throughput(Throughput::Elements(n_atoms as u64));
        for r in [1usize, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("radius_{r}"), n_atoms),
                &n_atoms,
                |b, _| b.iter(|| black_box(border(&db, &[c0], r).len())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
