//! Fixtures shared by the SWE suites (`swe_golden`, `swe_alloc`).

use uq_swe::solver::Boundary;
use uq_swe::{Grid2d, Scheme, SweSolver, SweState};

/// The fixture of `limiter_activates_on_sharp_coastal_runup`.
pub fn runup_solver() -> SweSolver {
    let grid = Grid2d::new(40, 10, (0.0, 4000.0), (0.0, 1000.0));
    let mut bathy = Vec::with_capacity(grid.n_cells());
    for _j in 0..10 {
        for i in 0..40 {
            let (x, _) = grid.center(i, 0);
            bathy.push(if x < 3000.0 {
                -50.0
            } else {
                -50.0 + 55.0 * (x - 3000.0) / 1000.0
            });
        }
    }
    let mut state = SweState::lake_at_rest(&bathy, 0.0);
    for j in 0..10 {
        for i in 0..8 {
            state.h[grid.idx(i, j)] += 3.0;
        }
    }
    SweSolver::new(
        grid,
        bathy,
        state,
        Scheme::SecondOrder { limiter: true },
        Boundary::Outflow,
    )
}
