//! The kernel ladder: public functions of each layer timed from outside,
//! bottom rung first — vector kernels, SpMV, V-cycle, MG-CG solve, κ
//! field, Poisson forward map per mesh, SWE step and forward run per
//! level, one Metropolis step, the two frame codecs, a service-frame
//! round trip. Fixtures are those of `uq_bench::pipeline_bench`, so the
//! rungs are comparable with `results/BENCH_PR2.json`/`BENCH_PR7.json`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_bench::pipeline_bench::{bench_hierarchy, bench_kappa, theta_chain};
use uq_fem::assembly::assemble;
use uq_fem::problem::constants::{CORR_LEN, FIELD_VARIANCE, PARAM_DIM, TRUTH_SEED};
use uq_fem::{PoissonHierarchy, PoissonModel, StructuredGrid};
use uq_linalg::solvers::{cg, SolverOptions};
use uq_linalg::vector::{axpy, dot};
use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::{mh_step, GaussianRandomWalk, SamplingState};
use uq_mlmcmc::store::{decode_snapshot, encode_snapshot};
use uq_mlmcmc::{RunSnapshot, RunStore};
use uq_parallel::scheduler::Msg;
use uq_parallel::{
    decode_frame, encode_frame, Frame, Service, ServiceClient, ServiceConfig, Tracer,
};
use uq_randfield::KlField2d;
use uq_swe::bathymetry::{self, Fidelity, DOMAIN};
use uq_swe::solver::Boundary;
use uq_swe::tohoku::{constants as tohoku, Resolution};
use uq_swe::{Grid2d, Scheme, SweSolver, SweState, TsunamiHierarchy, TsunamiModel};

use crate::host;
use crate::stats::median;

pub type Rungs = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f` over `samples` batches, each batch
/// sized from a first calibration call to last about `batch_ms`.
fn time_ns(samples: usize, batch_ms: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once_ns = start.elapsed().as_nanos().max(1) as f64;
    let per_batch = ((batch_ms * 1e6 / once_ns) as usize).clamp(1, 1_000_000);
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&times)
}

/// How long each rung is sampled: nine 10 ms batches, or one 1 ms batch
/// in `--quick` mode (every rung still runs).
#[derive(Clone, Copy)]
struct Effort {
    samples: usize,
    batch_ms: f64,
}

impl Effort {
    fn of(quick: bool) -> Effort {
        if quick {
            Effort {
                samples: 1,
                batch_ms: 1.0,
            }
        } else {
            Effort {
                samples: 9,
                batch_ms: 10.0,
            }
        }
    }

    fn ns(self, f: impl FnMut()) -> f64 {
        time_ns(self.samples, self.batch_ms, f)
    }

    /// Median seconds of up to three single calls of a hierarchy build.
    fn build_s(self, mut build: impl FnMut()) -> f64 {
        let times: Vec<f64> = (0..self.samples.min(3))
            .map(|_| {
                let start = Instant::now();
                build();
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    }
}

fn linalg_rungs(effort: Effort, out: &mut Rungs) {
    // 65 × 65 nodes: the n = 64 mesh's vector length
    let n = 4225;
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let mut y: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.25).collect();
    out.push((
        "linalg.dot_n4225_ns",
        effort.ns(|| {
            black_box(dot(black_box(&x), black_box(&y)));
        }),
    ));
    out.push((
        "linalg.axpy_n4225_ns",
        // a = 0 keeps y bounded over millions of calls
        effort.ns(|| axpy(black_box(0.0), black_box(&x), &mut y)),
    ));

    let grid = StructuredGrid::new(64);
    let sys = assemble(&grid, &bench_kappa(&grid));
    let mut z = vec![0.0; grid.n_nodes()];
    out.push((
        "linalg.spmv_n64_ns",
        effort.ns(|| sys.matrix.matvec_into(black_box(&x), &mut z)),
    ));
    let h64 = bench_hierarchy(64);
    out.push((
        "linalg.vcycle_n64_us",
        effort.ns(|| h64.vcycle_into(black_box(&x), &mut z)) * 1e-3,
    ));
    let opts = SolverOptions {
        rel_tol: 1e-8,
        ..Default::default()
    };
    out.push((
        "linalg.mgcg_n64_us",
        effort.ns(|| {
            black_box(cg(h64.matrix(0), &sys.rhs, None, &h64, opts).iterations);
        }) * 1e-3,
    ));
    for (name, n) in [
        ("linalg.mgcg_iters_n16", 16),
        ("linalg.mgcg_iters_n32", 32),
        ("linalg.mgcg_iters_n64", 64),
    ] {
        let grid = StructuredGrid::new(n);
        let sys = assemble(&grid, &bench_kappa(&grid));
        let h = bench_hierarchy(n);
        let solve = cg(h.matrix(0), &sys.rhs, None, &h, opts);
        assert!(solve.converged, "ladder: MG-CG stalled at n = {n}");
        out.push((name, solve.iterations as f64));
    }
}

fn fem_rungs(effort: Effort, out: &mut Rungs) {
    let field = KlField2d::new(CORR_LEN, FIELD_VARIANCE, PARAM_DIM);
    // a correlated θ chain: warm starts help as in MCMC, yet every call
    // is a genuine solve
    let thetas = theta_chain(1, PARAM_DIM, 16);
    for (name, n) in [
        ("fem.forward_n16_us", 16),
        ("fem.forward_n32_us", 32),
        ("fem.forward_n64_us", 64),
    ] {
        let mut model = PoissonModel::new(n, &field);
        let mut k = 0usize;
        let ns = effort.ns(|| {
            k += 1;
            black_box(model.forward(&thetas[k % thetas.len()]));
        });
        out.push((name, ns * 1e-3));
        if n == 64 {
            out.push((
                "randfield.kappa_n64_us",
                effort.ns(|| {
                    k += 1;
                    black_box(model.kappa_elements(&thetas[k % thetas.len()]));
                }) * 1e-3,
            ));
        }
    }
    out.push((
        "fem.hierarchy_build_s",
        effort.build_s(|| {
            black_box(PoissonHierarchy::new(
                PARAM_DIM,
                vec![16, 32, 64],
                TRUTH_SEED,
            ));
        }),
    ));
}

/// A solver in the state `TsunamiModel::forward` starts from, rebuilt
/// from the crate's public parts so that single steps can be timed.
fn tsunami_solver(level: usize) -> SweSolver {
    let n = Resolution::Reduced.cells(level);
    let grid = Grid2d::new(n, n, DOMAIN.0, DOMAIN.1);
    let (fidelity, limiter) = match level {
        0 => (Fidelity::DepthAveraged, false),
        1 => (Fidelity::Smoothed, true),
        _ => (Fidelity::Full, true),
    };
    let bathy = bathymetry::tabulate(&grid, fidelity);
    let rest = SweState::lake_at_rest(&bathy, 0.0);
    let mut solver = SweSolver::new(
        grid,
        bathy,
        rest,
        Scheme::SecondOrder { limiter },
        Boundary::Outflow,
    );
    let (sx, sy) = tohoku::SOURCE_REF;
    let (rx, ry) = tohoku::UPLIFT_RADII;
    solver.displace_surface(|x, y| {
        let dx = (x - sx) / rx;
        let dy = (y - sy) / ry;
        tohoku::UPLIFT_AMPLITUDE * (-dx * dx - dy * dy).exp()
    });
    solver
}

fn swe_rungs(effort: Effort, out: &mut Rungs) {
    const STEP: [&str; 3] = ["swe.step_l0_us", "swe.step_l1_us", "swe.step_l2_us"];
    const FORWARD: [&str; 3] = [
        "swe.forward_l0_ms",
        "swe.forward_l1_ms",
        "swe.forward_l2_ms",
    ];
    for level in 0..3 {
        let mut solver = tsunami_solver(level);
        out.push((
            STEP[level],
            effort.ns(|| {
                black_box(solver.step());
            }) * 1e-3,
        ));
        let mut model = TsunamiModel::new(level, Resolution::Reduced);
        out.push((
            FORWARD[level],
            effort.ns(|| {
                black_box(model.forward(&[0.0, 0.0]));
            }) * 1e-6,
        ));
        if level == 2 {
            out.push(("swe.steps_l2", model.last_stats().timesteps as f64));
        }
    }
    out.push((
        "swe.hierarchy_build_s",
        effort.build_s(|| {
            black_box(TsunamiHierarchy::new(Resolution::Reduced));
        }),
    ));
}

fn mcmc_rungs(effort: Effort, out: &mut Rungs) {
    // closed-form target: the step's own cost, no model behind it
    let mut problem = GaussianTarget::standard(8);
    let mut proposal = GaussianRandomWalk::new(0.5);
    let mut rng = StdRng::seed_from_u64(1);
    let mut state = SamplingState::initial(&mut problem, vec![0.0; 8]);
    out.push((
        "mcmc.step_ns",
        effort.ns(|| {
            state = mh_step(&mut problem, &mut proposal, &state, &mut rng).0;
        }),
    ));
    black_box(&state);
}

fn codec_rungs(effort: Effort, out: &mut Rungs) {
    // the frame that dominates `poisson_net` traffic: one correction
    // with the 1089-point QOI of the Poisson problems
    let qoi: Vec<f64> = (0..1089).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let frame = Frame::Data {
        to: 3,
        from: 5,
        msg: Msg::Correction {
            level: 1,
            y: qoi.clone(),
            theta: vec![0.25; 24],
            fine_qoi: qoi.clone(),
            coarse_qoi: Some(qoi),
        },
    };
    let bytes = encode_frame(&frame);
    out.push((
        "net.frame_encode_ns",
        effort.ns(|| {
            black_box(encode_frame(black_box(&frame)));
        }),
    ));
    out.push((
        "net.frame_decode_ns",
        effort.ns(|| {
            black_box(decode_frame(black_box(&bytes)).expect("own frame decodes"));
        }),
    ));
}

/// One status request and reply over a loopback connection to a
/// listening service: frame encode, two socket hops, decode, and the
/// service's state lock.
fn service_rungs(effort: Effort, scratch: &std::path::Path, out: &mut Rungs) {
    let mut service = Service::start(
        ServiceConfig::new(scratch.join("ladder-service")),
        &Tracer::disabled(),
    );
    let addr = service
        .listen("127.0.0.1:0")
        .expect("bind a loopback port")
        .to_string();
    let mut client = ServiceClient::connect(&addr).expect("connect to own service");
    out.push((
        "service.frame_roundtrip_ns",
        effort.ns(|| {
            black_box(client.status(u64::MAX).expect("status round trip"));
        }),
    ));
    client.bye().expect("orderly goodbye");
    service.shutdown();
}

/// The whole ladder. `scratch` is an existing directory inside the
/// checkout for the rungs that touch disk.
pub fn run(quick: bool, scratch: &std::path::Path) -> Rungs {
    let effort = Effort::of(quick);
    let mut out = Rungs::new();
    out.push(("host.spin_ref_ms", host::spin_ref_ms(effort.samples.min(5))));
    out.push(("host.mem_ref_ms", host::mem_ref_ms(effort.samples.min(5))));
    linalg_rungs(effort, &mut out);
    fem_rungs(effort, &mut out);
    swe_rungs(effort, &mut out);
    mcmc_rungs(effort, &mut out);
    codec_rungs(effort, &mut out);
    service_rungs(effort, scratch, &mut out);
    out
}

/// Checkpoint rungs on a snapshot read back from a finished
/// `service_mix` job store: encoded size, encode, decode, and a full
/// `put_snapshot` (encode + hash + write + rename + manifest append).
pub fn snapshot_rungs(snapshot: &RunSnapshot, quick: bool, scratch: &std::path::Path) -> Rungs {
    let effort = Effort::of(quick);
    let bytes = encode_snapshot(snapshot, 0);
    let mut out: Rungs = vec![("core.snapshot_bytes", bytes.len() as f64)];
    out.push((
        "core.snapshot_encode_us",
        effort.ns(|| {
            black_box(encode_snapshot(black_box(snapshot), 0));
        }) * 1e-3,
    ));
    out.push((
        "core.snapshot_decode_us",
        effort.ns(|| {
            black_box(decode_snapshot(black_box(&bytes)).expect("own snapshot decodes"));
        }) * 1e-3,
    ));
    let store = RunStore::open(scratch.join("ladder-store")).expect("open scratch store");
    // a distinct config hash per call defeats the content-address
    // short-cut, so every call writes a new object
    let mut config_hash = 0u64;
    // fewer, shorter batches than the in-memory rungs: each call leaves
    // a file behind until the caller removes the scratch directory
    let disk = Effort {
        samples: effort.samples.min(5),
        batch_ms: effort.batch_ms.min(4.0),
    };
    out.push((
        "core.store_put_ms",
        disk.ns(|| {
            config_hash += 1;
            black_box(
                store
                    .put_snapshot(snapshot, config_hash)
                    .expect("put snapshot"),
            );
        }) * 1e-6,
    ));
    out
}
