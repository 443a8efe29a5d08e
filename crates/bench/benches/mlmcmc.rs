//! Criterion benchmarks of the MCMC/MLMCMC machinery itself: kernel
//! throughput, coupled-chain stepping, the communicator round-trip and
//! end-to-end mini multilevel runs (sequential, thread-parallel,
//! cooperative runtime, DES).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use uq_mcmc::kernel::{mh_step, SamplingState};
use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::coupled::{build_chain_stack, MlChain};
use uq_mlmcmc::{run_sequential, LevelFactory, MlmcmcConfig};
use uq_parallel::des::{simulate, DesConfig};
use uq_parallel::{
    run_parallel, run_runtime, ParallelConfig, Poll, Runtime, RuntimeConfig, Tracer, VCtx,
    VirtualRank,
};

struct Hierarchy;

impl LevelFactory for Hierarchy {
    fn n_levels(&self) -> usize {
        3
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        let mean = [0.6, 0.9, 1.0][level];
        Box::new(GaussianTarget::new(vec![mean; 4], 0.5))
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.5))
    }
    fn subsampling_rate(&self, level: usize) -> usize {
        [8, 5, 0][level]
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0; 4]
    }
}

fn bench_mh_kernel(c: &mut Criterion) {
    let mut problem = GaussianTarget::standard(8);
    let mut proposal = GaussianRandomWalk::new(0.5);
    let mut rng = StdRng::seed_from_u64(1);
    let mut state = SamplingState::initial(&mut problem, vec![0.0; 8]);
    c.bench_function("mh_step_dim8", |b| {
        b.iter(|| {
            let (s, acc) = mh_step(&mut problem, &mut proposal, &state, &mut rng);
            state = s;
            black_box(acc)
        });
    });
}

fn bench_coupled_step(c: &mut Criterion) {
    let mut chain: MlChain = build_chain_stack(&Hierarchy, 2);
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("coupled_stack_step_3level", |b| {
        b.iter(|| black_box(chain.step(&mut rng)));
    });
}

fn bench_sequential_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("sequential_3level", |b| {
        b.iter(|| {
            let config = MlmcmcConfig::new(vec![500, 100, 20]).with_burn_in(vec![50, 20, 5]);
            let mut rng = StdRng::seed_from_u64(3);
            black_box(run_sequential(&Hierarchy, &config, &mut rng))
        });
    });
    group.bench_function("parallel_3level", |b| {
        b.iter(|| {
            let mut config = ParallelConfig::new(vec![500, 100, 20], vec![1, 1, 1]);
            config.burn_in = vec![50, 20, 5];
            black_box(run_parallel(&Hierarchy, &config, &Tracer::disabled()))
        });
    });
    group.bench_function("runtime_3level", |b| {
        b.iter(|| {
            let mut config = RuntimeConfig::new(vec![500, 100, 20], vec![1, 1, 1]);
            config.base.burn_in = vec![50, 20, 5];
            config.n_workers = 2;
            black_box(run_runtime(&Hierarchy, &config, &Tracer::disabled()))
        });
    });
    group.bench_function("runtime_3level_24chains", |b| {
        b.iter(|| {
            let mut config = RuntimeConfig::new(vec![500, 100, 20], vec![12, 8, 4]);
            config.base.burn_in = vec![50, 20, 5];
            config.n_workers = 4;
            config.collector_shards = 2;
            black_box(run_runtime(&Hierarchy, &config, &Tracer::disabled()))
        });
    });
    group.finish();
}

/// One side of a 1000-round ping-pong: rank 0 serves the round number,
/// rank 1 returns each value plus one.
#[derive(Default)]
struct PingPong {
    served: u64,
    received: u64,
    acc: u64,
}

impl VirtualRank<u64> for PingPong {
    type Output = u64;
    fn poll(&mut self, ctx: &mut VCtx<'_, u64>) -> Poll<u64, u64> {
        let peer = 1 - ctx.rank();
        loop {
            if ctx.rank() == 0 && self.served == self.received {
                ctx.send(peer, self.served);
                self.served += 1;
            }
            let Some(env) = ctx.try_recv() else {
                return Poll::Wait(Box::new(|_| true));
            };
            if ctx.rank() == 1 {
                ctx.send(peer, env.msg + 1);
            }
            self.acc += env.msg;
            self.received += 1;
            if self.received == 1000 {
                return Poll::Exit(self.acc);
            }
        }
    }
}

fn bench_comm(c: &mut Criterion) {
    let pool = Runtime::new(2);
    c.bench_function("comm_ping_pong_1000", |b| {
        b.iter(|| {
            let machine = |_, _| Box::new(PingPong::default()) as Box<_>;
            black_box(pool.run(2, machine).results)
        });
    });
}

fn bench_des(c: &mut Criterion) {
    // the shipped role machines in virtual time, on Poisson costs: a
    // tenth of Fig. 11's samples and subsampling (milliseconds a run)
    let cfg = DesConfig {
        eval_time: vec![3.35e-3, 45.6e-3, 0.93],
        eval_jitter: 0.2,
        samples_per_level: vec![1_000, 100, 10],
        burn_in: vec![50, 10, 2],
        subsampling: vec![20, 2, 0],
        chains_per_level: vec![32, 8, 4],
        phonebook_service_time: 2e-4,
        collector_service_time: 1e-5,
        load_balancing: true,
        seed: 4,
    };
    c.bench_function("sim_poisson_role_machines_44chains", |b| {
        b.iter(|| black_box(simulate(&cfg)));
    });
}

criterion_group!(
    benches,
    bench_mh_kernel,
    bench_coupled_step,
    bench_sequential_run,
    bench_comm,
    bench_des
);
criterion_main!(benches);
