//! The SWE step allocates nothing once it is warm, and a repeated
//! `TsunamiModel::forward` only its result: the solver's workspace and the
//! gauges' series buffers are kept between steps and evaluations.
//!
//! A binary of its own because it installs the counting
//! `#[global_allocator]` of `common/counting_alloc.rs`.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::runup_solver;
use counting_alloc::allocations_in;
use uq_swe::tohoku::{Resolution, TsunamiModel};

#[test]
fn a_warm_limited_step_allocates_nothing() {
    // the limiter fires on most steps of the run-up fixture, so the
    // incremental recompute is on the path
    let mut solver = runup_solver();
    solver.step();
    solver.step();
    let limited_before = solver.limited_cells();
    let ((count, _bytes), ()) = allocations_in(|| {
        for _ in 0..100 {
            solver.step();
        }
    });
    assert_eq!(count, 0, "100 warm steps allocated {count} times");
    assert!(
        solver.limited_cells() > limited_before + 100,
        "the limiter must have been at work: {} cells",
        solver.limited_cells() - limited_before
    );
}

#[test]
fn a_repeated_forward_allocates_only_its_result() {
    let mut model = TsunamiModel::new(1, Resolution::Custom([7, 11, 15]));
    let first = model.forward(&[0.0, 0.0]);
    for theta in [[0.0, 0.0], [62.5, -41.0], [-120.0, 87.25], [0.0, 0.0]] {
        let ((count, _bytes), obs) = allocations_in(|| model.forward(&theta));
        assert_eq!(count, 1, "forward({theta:?}) allocated {count} times");
        assert!(model.last_stats().limited_cells > 0);
        if theta == [0.0, 0.0] {
            assert_eq!(obs, first);
        }
    }
}
