//! E1 — border computation (Definition 3.2) on the paper's Example 3.3
//! database and on a medium random database.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use obx_bench::experiments::{example_3_3_db, random_border_db};
use obx_srcdb::border;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e01_border");

    let paper = example_3_3_db();
    let a = paper.consts().get("a").unwrap();
    group.bench_function("example_3_3_radius_2", |b| {
        b.iter(|| black_box(border(&paper, &[a], 2).len()))
    });

    let medium = random_border_db(11, 5_000, 5_000);
    let c0 = medium.consts().get("c0").unwrap();
    for r in [1usize, 2, 3] {
        group.bench_function(format!("random_5k_radius_{r}"), |b| {
            b.iter(|| black_box(border(&medium, &[c0], r).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
