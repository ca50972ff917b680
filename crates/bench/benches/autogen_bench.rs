//! Criterion benchmarks of the Auto-Gen search: building the energy DP,
//! querying the best schedule for a vector length, and reconstructing the
//! reduction tree (the paper's offline code-generation cost, §5.5).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wse_model::{AutogenSolver, Machine};

fn bench_solver_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("autogen/dp_construction");
    group.sample_size(10);
    for p in [32u64, 64, 128, 256, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bencher, &p| {
            bencher.iter(|| black_box(AutogenSolver::new(black_box(p))))
        });
    }
    group.finish();
}

fn bench_best_cost_queries(c: &mut Criterion) {
    let machine = Machine::wse2();
    let solver = AutogenSolver::new(128);
    c.bench_function("autogen/best_cost_sweep_p128", |bencher| {
        bencher.iter(|| {
            let mut acc = 0.0;
            for b in [1u64, 8, 64, 512, 4096] {
                acc += solver.best_cost(black_box(b), &machine).cycles;
            }
            black_box(acc)
        })
    });
}

fn bench_tree_reconstruction(c: &mut Criterion) {
    let machine = Machine::wse2();
    let solver = AutogenSolver::new(128);
    c.bench_function("autogen/best_tree_p128_b256", |bencher| {
        bencher.iter(|| black_box(solver.best_tree(black_box(256), &machine)))
    });
}

criterion_group!(
    benches,
    bench_solver_construction,
    bench_best_cost_queries,
    bench_tree_reconstruction
);
criterion_main!(benches);
