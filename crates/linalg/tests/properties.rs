//! Property-based tests (proptest) of the linear-algebra kernels.

use proptest::prelude::*;
use uq_linalg::dense::DenseMatrix;
use uq_linalg::quadrature::integrate;
use uq_linalg::solvers::{cg, IdentityPrecond, SolverOptions};
use uq_linalg::sparse::CooMatrix;
use uq_linalg::vector;

/// Random SPD matrix via A = B Bᵀ + (n)·I.
fn spd_from(rows: &[Vec<f64>]) -> DenseMatrix {
    let n = rows.len();
    let b = DenseMatrix::from_fn(n, n, |i, j| rows[i][j]);
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

proptest! {
    #[test]
    fn triangle_inequality(
        x in prop::collection::vec(-1e3f64..1e3, 1..20),
        shift in -10f64..10.0,
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + shift).collect();
        let sum = vector::add(&x, &y);
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&x) + vector::norm2(&y) + 1e-9);
    }

    #[test]
    fn matvec_is_linear(
        rows in prop::collection::vec(prop::collection::vec(-5f64..5.0, 4), 4),
        x in prop::collection::vec(-5f64..5.0, 4),
        y in prop::collection::vec(-5f64..5.0, 4),
        a in -3f64..3.0,
    ) {
        let m = DenseMatrix::from_fn(4, 4, |i, j| rows[i][j]);
        // M(a x + y) = a M x + M y
        let ax_y: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        let lhs = m.matvec(&ax_y);
        let mx = m.matvec(&x);
        let my = m.matvec(&y);
        for i in 0..4 {
            prop_assert!((lhs[i] - (a * mx[i] + my[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_solve_inverts_spd(
        rows in prop::collection::vec(prop::collection::vec(-2f64..2.0, 4), 4),
        b in prop::collection::vec(-5f64..5.0, 4),
    ) {
        let a = spd_from(&rows);
        let l = a.cholesky().expect("SPD by construction");
        let y = l.solve_lower(&b);
        let x = l.solve_lower_t(&y);
        let r = a.matvec(&x);
        for i in 0..4 {
            prop_assert!((r[i] - b[i]).abs() < 1e-7, "residual {}", r[i] - b[i]);
        }
    }

    #[test]
    fn cg_solves_random_spd_systems(
        rows in prop::collection::vec(prop::collection::vec(-2f64..2.0, 5), 5),
        b in prop::collection::vec(-5f64..5.0, 5),
    ) {
        let a = spd_from(&rows);
        // densify into CSR
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            for j in 0..5 {
                coo.push(i, j, a[(i, j)]);
            }
        }
        let csr = coo.to_csr();
        let r = cg(&csr, &b, None, &IdentityPrecond, SolverOptions::default());
        prop_assert!(r.converged, "residual {}", r.residual);
        let back = csr.matvec(&r.x);
        for i in 0..5 {
            prop_assert!((back[i] - b[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn csr_transpose_identity_dot(
        entries in prop::collection::vec((0usize..6, 0usize..6, -5f64..5.0), 0..24),
        x in prop::collection::vec(-3f64..3.0, 6),
        y in prop::collection::vec(-3f64..3.0, 6),
    ) {
        // for symmetric A: x·(A y) == y·(A x)
        let mut coo = CooMatrix::new(6, 6);
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
            if r != c {
                coo.push(c, r, v);
            }
        }
        let a = coo.to_csr();
        let lhs = vector::dot(&x, &a.matvec(&y));
        let rhs = vector::dot(&y, &a.matvec(&x));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (lhs.abs().max(1.0)));
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly(
        coeffs in prop::collection::vec(-3f64..3.0, 1..6),
        a in -2f64..0.0,
        width in 0.1f64..3.0,
    ) {
        let b = a + width;
        let eval = |x: f64| -> f64 {
            coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
        };
        // exact antiderivative
        let anti = |x: f64| -> f64 {
            coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * x.powi(k as i32 + 1) / (k as f64 + 1.0))
                .sum()
        };
        let exact = anti(b) - anti(a);
        let n = coeffs.len().div_ceil(2).max(1); // GL(n) exact to degree 2n-1
        let got = integrate(eval, a, b, n);
        prop_assert!((got - exact).abs() < 1e-9 * exact.abs().max(1.0), "{got} vs {exact}");
    }
}
