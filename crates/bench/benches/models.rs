//! Criterion benchmarks of the forward models: the per-level costs that
//! become the `t_l` columns of the paper's Tables 3 and 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use uq_bench::pipeline_bench::theta_chain;
use uq_fem::PoissonModel;
use uq_randfield::circulant::Circulant2d;
use uq_randfield::KlField2d;
use uq_swe::solver::{Boundary, Scheme, SweSolver, SweState};
use uq_swe::tohoku::{Resolution, TsunamiModel};
use uq_swe::Grid2d;

fn bench_poisson_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_forward");
    group.sample_size(10);
    let field = KlField2d::new(0.15, 1.0, 113);
    let thetas = theta_chain(1, 113, 16);
    // level 0 and 1 of the paper's hierarchy (level 2 is benched by the
    // table3 experiment binary; it is too slow for criterion's defaults)
    for n in [16usize, 64] {
        let mut model = PoissonModel::new(n, &field);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut k = 0;
            b.iter(|| {
                let theta = &thetas[k % thetas.len()];
                k += 1;
                black_box(model.forward(theta))
            });
        });
    }
    group.finish();
}

fn bench_swe_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("swe_step");
    for (name, scheme) in [
        ("first_order", Scheme::FirstOrder),
        ("second_order", Scheme::SecondOrder { limiter: false }),
        (
            "second_order_limited",
            Scheme::SecondOrder { limiter: true },
        ),
    ] {
        let grid = Grid2d::new(64, 64, (0.0, 1000.0), (0.0, 1000.0));
        let bathy = vec![-100.0; grid.n_cells()];
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        for j in 0..64 {
            for i in 0..64 {
                let (x, y) = grid.center(i, j);
                let r2 = ((x - 500.0) / 100.0).powi(2) + ((y - 500.0) / 100.0).powi(2);
                state.h[grid.idx(i, j)] += (-r2).exp();
            }
        }
        group.bench_function(name, |b| {
            let mut solver = SweSolver::new(
                grid.clone(),
                bathy.clone(),
                state.clone(),
                scheme,
                Boundary::Outflow,
            );
            b.iter(|| {
                solver.step();
                black_box(solver.time())
            });
        });
    }
    group.finish();
}

fn bench_tsunami_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsunami_forward_tiny");
    group.sample_size(10);
    for level in 0..3 {
        group.bench_with_input(BenchmarkId::from_parameter(level), &level, |b, _| {
            let mut model = TsunamiModel::new(level, Resolution::Custom([9, 13, 17]));
            b.iter(|| black_box(model.forward(&[0.0, 0.0])));
        });
    }
    group.finish();
}

fn bench_randfield(c: &mut Criterion) {
    let circ = Circulant2d::new(65, 65, 1.0 / 64.0, 1.0 / 64.0, |dx, dy| {
        (-(dx + dy) / 0.15).exp()
    })
    .expect("embedding");
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("circulant2d_sample_65x65", |b| {
        b.iter(|| black_box(circ.sample(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_poisson_forward,
    bench_swe_step,
    bench_tsunami_forward,
    bench_randfield
);
criterion_main!(benches);
