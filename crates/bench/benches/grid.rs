//! Sequential vs parallel execution of the effectiveness grid (25
//! independent experiment cells) on the quick synthetic trace — the
//! speedup running whole cells on scoped threads buys on a multicore host.

use criterion::{criterion_group, criterion_main, Criterion};
use mosaic_sim::experiments::run_scenario;
use mosaic_sim::{Parallelism, Scenario};

fn bench_grid_execution(c: &mut Criterion) {
    let quick = Scenario::parse(include_str!(
        "../../../scenarios/effectiveness-quick.scenario"
    ))
    .expect("checked-in spec parses");
    let grid = |parallelism| quick.clone().with_grid_parallelism(parallelism);
    let mut group = c.benchmark_group("effectiveness");
    group.sample_size(3);
    group.bench_function("sequential", |b| {
        b.iter(|| run_scenario(&grid(Parallelism::Sequential)))
    });
    group.bench_function("parallel_auto", |b| {
        b.iter(|| run_scenario(&grid(Parallelism::Auto)))
    });
    group.bench_function("parallel_4", |b| {
        b.iter(|| run_scenario(&grid(Parallelism::Threads(4))))
    });
    group.finish();
}

criterion_group!(benches, bench_grid_execution);
criterion_main!(benches);
