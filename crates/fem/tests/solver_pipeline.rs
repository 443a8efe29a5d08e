//! Integration tests of the allocation-free forward-solve pipeline:
//! in-place refill correctness (property-based) and the multigrid
//! iteration-count regression guarding MG-CG's mesh independence.

use proptest::prelude::*;
use std::sync::Arc;
use uq_fem::assembly::assemble;
use uq_fem::poisson::build_mg_hierarchy;
use uq_fem::{StiffnessOperator, StiffnessPattern, StructuredGrid};
use uq_linalg::solvers::{cg, SolverOptions};

proptest! {
    /// The scatter-map refill must reproduce a from-scratch assembly
    /// *bit for bit* (same contributions summed in the same order), for
    /// arbitrary positive coefficient fields.
    #[test]
    fn refill_is_bit_identical_to_assemble(
        seed_vals in prop::collection::vec(0.1f64..10.0, 64),
        n in 3usize..9,
    ) {
        let grid = StructuredGrid::new(n);
        let kappa: Vec<f64> = (0..grid.n_elements())
            .map(|e| seed_vals[e % seed_vals.len()])
            .collect();
        let reference = assemble(&grid, &kappa);
        let mut op = StiffnessOperator::new(Arc::new(StiffnessPattern::new(&grid)));
        op.refill(&kappa);
        prop_assert_eq!(op.matrix().nnz(), reference.matrix.nnz());
        // exact equality on purpose: bitwise, not within-tolerance
        prop_assert_eq!(op.matrix().values(), reference.matrix.values());
        prop_assert_eq!(op.rhs(), &reference.rhs[..]);
    }

    /// Refilling through intermediate κ draws leaves no residue.
    #[test]
    fn refill_history_independent(
        a in prop::collection::vec(0.2f64..5.0, 16),
        b in prop::collection::vec(0.2f64..5.0, 16),
    ) {
        let grid = StructuredGrid::new(4);
        let mut op = StiffnessOperator::new(Arc::new(StiffnessPattern::new(&grid)));
        op.refill(&b);
        op.refill(&a);
        let reference = assemble(&grid, &a);
        prop_assert_eq!(op.matrix().values(), reference.matrix.values());
        prop_assert_eq!(op.rhs(), &reference.rhs[..]);
    }
}

/// Smooth positive diffusion field evaluated at element centers.
fn smooth_kappa(grid: &StructuredGrid) -> Vec<f64> {
    let axis = grid.element_axis();
    axis.iter()
        .flat_map(|&y| {
            axis.iter()
                .map(move |&x| (0.8 * (3.0 * x + 1.0).sin() * (2.0 * y).cos()).exp())
        })
        .collect()
}

/// The headline regression: MG-preconditioned CG iteration counts stay
/// flat (±2) from n = 16 to n = 64. Uses [`build_mg_hierarchy`], i.e.
/// the production hierarchy with its 2×2-averaged coarse κ — not a test
/// reimplementation.
#[test]
fn mg_cg_iterations_mesh_independent() {
    let opts = SolverOptions {
        rel_tol: 1e-8,
        ..Default::default()
    };
    let mut mg_iters = Vec::new();
    for n in [16usize, 32, 64] {
        let grid = StructuredGrid::new(n);
        let sys = assemble(&grid, &smooth_kappa(&grid));
        let h = build_mg_hierarchy(n, &smooth_kappa(&grid)).expect("even n > 4");
        let mg = cg(h.matrix(0), &sys.rhs, None, &h, opts);
        assert!(mg.converged, "MG-CG stalled at n = {n}");
        mg_iters.push(mg.iterations);
    }
    let (mg_min, mg_max) = (
        *mg_iters.iter().min().unwrap(),
        *mg_iters.iter().max().unwrap(),
    );
    assert!(
        mg_max <= mg_min + 2,
        "MG-CG iterations should be mesh-independent (±2): {mg_iters:?}"
    );
}

/// The refilled fine operator really is the one `assemble` would build,
/// end to end through the production hierarchy builder.
#[test]
fn hierarchy_fine_level_matches_assembly() {
    let grid = StructuredGrid::new(16);
    let sys = assemble(&grid, &smooth_kappa(&grid));
    let h = build_mg_hierarchy(16, &smooth_kappa(&grid)).expect("even n > 4");
    assert_eq!(h.matrix(0).values(), sys.matrix.values());
}
