//! Q1 stiffness assembly for `-∇·(κ∇u) = 0` on a [`StructuredGrid`].
//!
//! `κ` is element-wise constant (evaluated at element centers from the
//! random field). Dirichlet conditions are eliminated symmetrically so the
//! assembled system stays SPD for conjugate gradients.

use crate::grid::StructuredGrid;
use uq_linalg::quadrature::gauss_legendre;
use uq_linalg::sparse::{CooMatrix, CsrMatrix};

/// Reference Q1 stiffness matrix on a square element (unit coefficient).
///
/// For bilinear elements on squares the element stiffness is independent
/// of the mesh width in 2-D; the entries are computed once by 2×2 Gauss
/// quadrature of `∫ ∇φ_a · ∇φ_b`.
pub fn reference_stiffness() -> [[f64; 4]; 4] {
    // shape function gradients on the reference square [0,1]²:
    // φ0 = (1-ξ)(1-η), φ1 = ξ(1-η), φ2 = ξη, φ3 = (1-ξ)η
    let grad = |a: usize, xi: f64, eta: f64| -> (f64, f64) {
        match a {
            0 => (-(1.0 - eta), -(1.0 - xi)),
            1 => (1.0 - eta, -xi),
            2 => (eta, xi),
            3 => (-eta, 1.0 - xi),
            _ => unreachable!(),
        }
    };
    let (nodes, weights) = gauss_legendre(2);
    let mut k = [[0.0; 4]; 4];
    for (i, &xq) in nodes.iter().enumerate() {
        for (j, &yq) in nodes.iter().enumerate() {
            let xi = 0.5 * (xq + 1.0);
            let eta = 0.5 * (yq + 1.0);
            let w = 0.25 * weights[i] * weights[j]; // Jacobian of [-1,1]²→[0,1]²
            for a in 0..4 {
                let (gax, gay) = grad(a, xi, eta);
                for b in 0..4 {
                    let (gbx, gby) = grad(b, xi, eta);
                    k[a][b] += w * (gax * gbx + gay * gby);
                }
            }
        }
    }
    k
}

/// Assembled SPD system `A u = b` with Dirichlet rows eliminated.
pub struct AssembledSystem {
    pub matrix: CsrMatrix,
    pub rhs: Vec<f64>,
}

/// Assemble the stiffness system for element-wise diffusion coefficients
/// `kappa` (one value per element, element-index order).
///
/// Dirichlet nodes (left/right edges) are eliminated symmetrically: their
/// rows become identity, their values move to the right-hand side, and
/// the couplings are dropped from both row and column.
///
/// # Panics
/// Panics if `kappa.len() != grid.n_elements()`.
pub fn assemble(grid: &StructuredGrid, kappa: &[f64]) -> AssembledSystem {
    assert_eq!(
        kappa.len(),
        grid.n_elements(),
        "assemble: one kappa per element required"
    );
    let k_ref = reference_stiffness();
    let n_nodes = grid.n_nodes();
    let n = grid.n();
    let mut coo = CooMatrix::new(n_nodes, n_nodes);
    let mut rhs = vec![0.0; n_nodes];
    // Dirichlet values by node (None = free)
    let bc: Vec<Option<f64>> = (0..n_nodes).map(|idx| grid.dirichlet_value(idx)).collect();
    for ey in 0..n {
        for ex in 0..n {
            let kap = kappa[ey * n + ex];
            let nodes = grid.element_nodes(ex, ey);
            for a in 0..4 {
                let ga = nodes[a];
                if bc[ga].is_some() {
                    continue; // row handled as identity below
                }
                for b in 0..4 {
                    let gb = nodes[b];
                    let kab = kap * k_ref[a][b];
                    match bc[gb] {
                        Some(g) => rhs[ga] -= kab * g,
                        None => coo.push(ga, gb, kab),
                    }
                }
            }
        }
    }
    for (idx, bcv) in bc.iter().enumerate() {
        if let Some(g) = bcv {
            coo.push(idx, idx, 1.0);
            rhs[idx] = *g;
        }
    }
    AssembledSystem {
        matrix: coo.to_csr(),
        rhs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uq_linalg::solvers::{cg, IdentityPrecond, SolverOptions};

    #[test]
    fn reference_stiffness_known_values() {
        // classical Q1 Laplace element matrix: diag 2/3, edge -1/6, diag -1/3
        let k = reference_stiffness();
        for a in 0..4 {
            assert!((k[a][a] - 2.0 / 3.0).abs() < 1e-12);
        }
        assert!((k[0][1] + 1.0 / 6.0).abs() < 1e-12);
        assert!((k[0][2] + 1.0 / 3.0).abs() < 1e-12);
        assert!((k[0][3] + 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn reference_stiffness_rows_sum_to_zero() {
        // constants are in the kernel of the element stiffness
        let k = reference_stiffness();
        for a in 0..4 {
            let s: f64 = k[a].iter().sum();
            assert!(s.abs() < 1e-13);
        }
    }

    #[test]
    fn assembled_matrix_is_symmetric() {
        let grid = StructuredGrid::new(8);
        let kappa: Vec<f64> = (0..64).map(|e| 1.0 + 0.1 * (e % 5) as f64).collect();
        let sys = assemble(&grid, &kappa);
        assert!(sys.matrix.is_symmetric(1e-12));
    }

    fn solve(grid: &StructuredGrid, kappa: &[f64]) -> Vec<f64> {
        let sys = assemble(grid, kappa);
        let r = cg(
            &sys.matrix,
            &sys.rhs,
            None,
            &IdentityPrecond,
            SolverOptions::default(),
        );
        assert!(r.converged, "CG failed: {}", r.residual);
        r.x
    }

    #[test]
    fn constant_kappa_gives_linear_solution() {
        // with κ = 1, u = x exactly (representable in Q1)
        let grid = StructuredGrid::new(8);
        let u = solve(&grid, &vec![1.0; 64]);
        for idx in 0..grid.n_nodes() {
            let (x, _) = grid.node_coords(idx);
            assert!(
                (u[idx] - x).abs() < 1e-8,
                "u({idx}) = {} vs x = {x}",
                u[idx]
            );
        }
    }

    #[test]
    fn solution_invariant_under_kappa_scaling() {
        // the PDE has no source: scaling κ globally leaves u unchanged
        let grid = StructuredGrid::new(8);
        let kappa: Vec<f64> = (0..64).map(|e| 1.0 + 0.3 * ((e * 7) % 4) as f64).collect();
        let scaled: Vec<f64> = kappa.iter().map(|k| 10.0 * k).collect();
        let u1 = solve(&grid, &kappa);
        let u2 = solve(&grid, &scaled);
        assert!(uq_linalg::vector::max_abs_diff(&u1, &u2) < 1e-7);
    }

    #[test]
    fn two_layer_interface_matches_1d_theory() {
        // κ = k1 for x < 1/2, k2 for x > 1/2, BCs 0/1: the y-independent
        // 1-D solution has interface value k1/(k1+k2)... flux continuity:
        // k1 u'(left) = k2 u'(right) → u(1/2) = k1/(k1+k2)
        let n = 32;
        let grid = StructuredGrid::new(n);
        let (k1, k2) = (1.0, 4.0);
        let mut kappa = vec![0.0; n * n];
        for ey in 0..n {
            for ex in 0..n {
                kappa[ey * n + ex] = if ex < n / 2 { k1 } else { k2 };
            }
        }
        let u = solve(&grid, &kappa);
        let mid = grid.interpolate(&u, 0.5, 0.5);
        // u(1/2) from flux continuity; derive exactly: u(x) = A x for
        // x < 1/2, u = 1 - B(1-x) for x > 1/2; A/2 = 1 - B/2, k1 A = k2 B
        // → A = 2 k2/(k1+k2), u(1/2) = k2/(k1+k2)
        let expect_exact = k2 / (k1 + k2);
        assert!(
            (mid - expect_exact).abs() < 1e-6,
            "interface value {mid} vs {expect_exact}"
        );
    }

    #[test]
    fn dirichlet_rows_are_identity() {
        let grid = StructuredGrid::new(4);
        let sys = assemble(&grid, &[1.0; 16]);
        for idx in 0..grid.n_nodes() {
            if let Some(g) = grid.dirichlet_value(idx) {
                assert_eq!(sys.matrix.get(idx, idx), 1.0);
                assert_eq!(sys.rhs[idx], g);
                let (cols, _) = sys.matrix.row(idx);
                assert_eq!(cols.len(), 1, "Dirichlet row must be identity");
            }
        }
    }

    #[test]
    fn solution_bounded_by_boundary_values() {
        // discrete maximum principle for M-matrix-ish Q1 discretization:
        // solution stays within [0, 1] for positive κ
        let grid = StructuredGrid::new(16);
        let kappa: Vec<f64> = (0..256)
            .map(|e| (0.5 + ((e * 13) % 7) as f64).exp())
            .collect();
        let u = solve(&grid, &kappa);
        for &v in &u {
            assert!(v > -1e-6 && v < 1.0 + 1e-6, "u = {v} escapes [0,1]");
        }
    }
}
