//! Golden bit-identity fixture for the SWE stack.
//!
//! The constants below were recorded from commit df8e266 (the last one
//! with the whole-step MOOD recompute and the allocating step) and are the
//! oracle for every later change to `uq_swe::solver`: forward outputs are
//! compared by `to_bits()`, solver states by an FNV-1a over the
//! little-endian bytes of `h‖hu‖hv`. No old code path is kept to compare
//! against; if a solver change moves any of these, it changed the numbers
//! every digest and reference output in the repo is built on.

mod common;

use common::runup_solver;
use uq_mlmcmc::wire::fnv1a;
use uq_swe::solver::Boundary;
use uq_swe::tohoku::{Resolution, TsunamiModel};
use uq_swe::{Grid2d, Scheme, SweSolver, SweState};

const TINY: Resolution = Resolution::Custom([7, 11, 15]);
const THETAS: [[f64; 2]; 3] = [[0.0, 0.0], [62.5, -41.0], [-120.0, 87.25]];

/// One forward run: observation bits, time steps, limited cells.
type Forward = ([u64; 4], usize, u64);

fn forward(level: usize, resolution: Resolution, theta: &[f64; 2]) -> Forward {
    let mut model = TsunamiModel::new(level, resolution);
    let obs = model.forward(theta);
    let bits: Vec<u64> = obs.iter().map(|x| x.to_bits()).collect();
    let stats = model.last_stats();
    (
        bits.try_into().expect("four observations"),
        stats.timesteps,
        stats.limited_cells,
    )
}

fn state_hash(solver: &SweSolver) -> u64 {
    let s = solver.state();
    let bytes: Vec<u8> =
        s.h.iter()
            .chain(&s.hu)
            .chain(&s.hv)
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
    fnv1a(&bytes)
}

/// A partially emerged island hit by an off-centre hump, inside walls:
/// wetting/drying, the limiter and the reflective ghost states at once.
fn island_solver(scheme: Scheme) -> SweSolver {
    let grid = Grid2d::new(24, 18, (0.0, 1200.0), (0.0, 900.0));
    let mut bathy = Vec::with_capacity(grid.n_cells());
    for j in 0..18 {
        for i in 0..24 {
            let (x, y) = grid.center(i, j);
            let r2 = ((x - 700.0) / 160.0).powi(2) + ((y - 450.0) / 140.0).powi(2);
            bathy.push(-8.0 + 10.0 * (-r2).exp());
        }
    }
    let state = SweState::lake_at_rest(&bathy, 0.0);
    let mut solver = SweSolver::new(grid, bathy, state, scheme, Boundary::Reflective);
    solver.displace_surface(|x, y| {
        let r2 = ((x - 250.0) / 120.0).powi(2) + ((y - 300.0) / 150.0).powi(2);
        2.5 * (-r2).exp()
    });
    solver
}

/// `(state hash, time bits, limited cells)` after `steps` calls of `step`.
fn advance(mut solver: SweSolver, steps: usize) -> (u64, u64, u64) {
    for _ in 0..steps {
        solver.step();
    }
    (
        state_hash(&solver),
        solver.time().to_bits(),
        solver.limited_cells(),
    )
}

#[rustfmt::skip]
const GOLDEN_TINY: [[Forward; 3]; 3] = [
    [
        ([0x3fc58e17bd238000, 0x3fb7d3aa98e80000, 0x4020ab112f6207ef, 0x4030ab4723d7cf90], 23, 0),
        ([0x3fd3f4e0f6a8c000, 0x3fc3c9906faa8000, 0x4020aaaeb14202f7, 0x4030ab0590d2f014], 23, 0),
        ([0x3fc490b6f4fe8000, 0x3fbb8e1068b90000, 0x4030ab2b93bb35bb, 0x4034d60b3967dbf5], 23, 0),
    ],
    [
        ([0x3fd1ef749acc8000, 0x3fc0ad6eff3b0000, 0x402dc85165fa9144, 0x404021fce1d8630c], 39, 9),
        ([0x3fd0f097e4ea8000, 0x3fbe86a2344d0000, 0x4028d1a285766452, 0x403b4d2f6004434d], 39, 11),
        ([0x3fcb64ce5bae0000, 0x3fbfe870c4a80000, 0x403b4d40b4dbc722, 0x404518d159c926b2], 39, 5),
    ],
    [
        ([0x3fd88f2b22e5c000, 0x3fc64cd365720000, 0x4027ce0be39919c7, 0x403e9bd6f3eb550f], 56, 12),
        ([0x3fdaabd694620000, 0x3fc7335fc90c0000, 0x4024679903c180bd, 0x403b35236514a6a0], 56, 12),
        ([0x3fd1a7e815c1c000, 0x3fc5bd5387890000, 0x40361b2ab4777a8f, 0x404467ef68943f2f], 56, 8),
    ],
];
/// `Resolution::Reduced` at θ = (0, 0): what `benchmark/refs/forward.txt`
/// holds, with the step and limiter counts ISSUE 13 quotes.
#[rustfmt::skip]
const GOLDEN_REDUCED: [Forward; 3] = [
    ([0x3fd8330ff560c000, 0x3fc69f21bc368000, 0x40275579a6613f9b, 0x403f1d5c30204913], 49, 0),
    ([0x3fe2eb8f89e74000, 0x3fd4459500b1c000, 0x40316c208bedc70f, 0x40447904eded679e], 110, 367),
    ([0x3fee438be98a6000, 0x3fe0df6b49728000, 0x4032da90120b6769, 0x404811fba4505591], 237, 1953),
];
/// `(state hash, time bits, limited cells)`.
const GOLDEN_RUNUP_40: (u64, u64, u64) = (0xddc2ddc061d5037d, 0x4053acbeb94c7ed7, 40);
const GOLDEN_RUNUP_200: (u64, u64, u64) = (0x4524ab206545730d, 0x40787902ad02e525, 2010);
const GOLDEN_ISLAND_LIMITED: (u64, u64, u64) = (0xe4dac346ff06f450, 0x40723b686fae3bcf, 788);
const GOLDEN_ISLAND_FIRST_ORDER: (u64, u64, u64) = (0xe744300b4fb748bc, 0x40722aad0016420f, 0);

#[test]
fn tiny_hierarchy_forward_outputs_are_bit_identical() {
    for level in 0..3 {
        for (k, theta) in THETAS.iter().enumerate() {
            assert_eq!(
                forward(level, TINY, theta),
                GOLDEN_TINY[level][k],
                "level {level}, theta {theta:?}"
            );
        }
    }
}

#[test]
fn reduced_hierarchy_forward_outputs_are_bit_identical() {
    for (level, want) in GOLDEN_REDUCED.iter().enumerate() {
        assert_eq!(
            forward(level, Resolution::Reduced, &[0.0, 0.0]),
            *want,
            "level {level}"
        );
    }
    // the counts the benchmark's ladder and ISSUE 13 quote
    assert_eq!(GOLDEN_REDUCED.map(|f| f.1), [49, 110, 237]);
    assert_eq!(GOLDEN_REDUCED.map(|f| f.2), [0, 367, 1953]);
}

#[test]
fn solver_states_are_bit_identical() {
    assert_eq!(advance(runup_solver(), 40), GOLDEN_RUNUP_40);
    assert_eq!(advance(runup_solver(), 200), GOLDEN_RUNUP_200);
    let limited = Scheme::SecondOrder { limiter: true };
    assert_eq!(advance(island_solver(limited), 120), GOLDEN_ISLAND_LIMITED);
    assert_eq!(
        advance(island_solver(Scheme::FirstOrder), 120),
        GOLDEN_ISLAND_FIRST_ORDER
    );
}

/// Repeated `forward` calls on one model (the solver is reset, not
/// rebuilt) must not depend on what ran before.
#[test]
fn forward_is_independent_of_the_previous_evaluation() {
    let mut model = TsunamiModel::new(1, TINY);
    for k in [1, 0, 2, 0] {
        let obs = model.forward(&THETAS[k]);
        let bits: Vec<u64> = obs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, GOLDEN_TINY[1][k].0, "theta {:?}", THETAS[k]);
        assert_eq!(model.last_stats().timesteps, GOLDEN_TINY[1][k].1);
        assert_eq!(model.last_stats().limited_cells, GOLDEN_TINY[1][k].2);
    }
}
