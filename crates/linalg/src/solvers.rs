//! Krylov solver: preconditioned conjugate gradients for the SPD FEM
//! systems (every system in the workspace is SPD).
//!
//! Two call styles are provided:
//!
//! * [`cg`] — allocating one-shot driver (tests, setup code, anything
//!   not on a hot path);
//! * [`cg_into`] — allocation-free driver for the MCMC hot loop: the
//!   caller owns the solution vector (which doubles as the warm start)
//!   and a reusable [`SolverWorkspace`] of scratch buffers, so
//!   steady-state solves perform no heap allocation.

use crate::sparse::CsrMatrix;
use crate::vector::{axpy, dot, norm2, xpby};

/// Preconditioner interface: computes `z ≈ A⁻¹ r`.
pub trait Preconditioner: Sync {
    /// Apply the preconditioner into a caller-provided buffer
    /// (`z.len() == r.len()`); the hot-path entry point.
    fn apply_into(&self, r: &[f64], z: &mut [f64]);

    /// Allocating convenience wrapper around
    /// [`apply_into`](Self::apply_into).
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.apply_into(r, &mut z);
        z
    }
}

/// No-op preconditioner.
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Iteration controls of the Krylov solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Relative residual reduction target `‖r‖/‖b‖ ≤ rel_tol`.
    pub rel_tol: f64,
    /// Absolute residual target (guards the `b = 0` case).
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            rel_tol: 1e-10,
            abs_tol: 1e-14,
            max_iter: 10_000,
        }
    }
}

/// Outcome of an in-place iterative solve (the solution lives in the
/// caller's buffer).
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Outcome of an allocating iterative solve.
#[derive(Clone, Debug)]
pub struct IterativeResult {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final (true) residual norm.
    pub residual: f64,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Reusable scratch buffers for [`cg_into`].
///
/// Create once per worker/chain and reuse across solves; buffers are
/// grown on first use for a given size and never shrunk, so steady-state
/// solves of a fixed dimension allocate nothing.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl SolverWorkspace {
    /// Empty workspace; buffers are sized lazily by the solvers.
    pub fn new() -> Self {
        Self::default()
    }

    fn reserve_cg(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Preconditioned conjugate gradient method for SPD `A`, allocation-free.
///
/// `x` holds the initial guess on entry (use zeros for a cold start, the
/// previous solution for a warm start) and the solution on exit. All
/// scratch storage comes from `ws`.
pub fn cg_into(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    precond: &dyn Preconditioner,
    opts: SolverOptions,
    ws: &mut SolverWorkspace,
) -> SolveStats {
    let n = b.len();
    assert_eq!(a.rows(), n, "cg: dimension mismatch");
    assert_eq!(x.len(), n, "cg: solution dimension mismatch");
    ws.reserve_cg(n);
    let (r, z, p, ap) = (
        &mut ws.r[..n],
        &mut ws.z[..n],
        &mut ws.p[..n],
        &mut ws.ap[..n],
    );

    a.matvec_into(x, ap);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    let b_norm = norm2(b).max(opts.abs_tol);
    let target = (opts.rel_tol * b_norm).max(opts.abs_tol);

    precond.apply_into(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);
    let mut iterations = 0;
    let mut res = norm2(r);
    while res > target && iterations < opts.max_iter {
        a.matvec_into(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 {
            // loss of positive definiteness (or numerically zero direction)
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        res = norm2(r);
        iterations += 1;
        if res <= target {
            break;
        }
        precond.apply_into(r, z);
        let rz_new = dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(z, beta, p);
    }
    SolveStats {
        iterations,
        residual: res,
        converged: res <= target,
    }
}

/// Preconditioned conjugate gradient method for SPD `A` (allocating
/// wrapper around [`cg_into`]).
pub fn cg(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    precond: &dyn Preconditioner,
    opts: SolverOptions,
) -> IterativeResult {
    let n = b.len();
    let mut x = x0.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);
    let mut ws = SolverWorkspace::new();
    let stats = cg_into(a, b, &mut x, precond, opts, &mut ws);
    IterativeResult {
        x,
        iterations: stats.iterations,
        residual: stats.residual,
        converged: stats.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// 1-D Laplacian (tridiagonal 2,-1) of order `n`.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_solves_laplacian() {
        let a = laplacian(50);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_true);
        let r = cg(&a, &b, None, &IdentityPrecond, SolverOptions::default());
        assert!(r.converged, "cg failed: residual {}", r.residual);
        assert!(crate::vector::max_abs_diff(&r.x, &x_true) < 1e-7);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian(10);
        let r = cg(
            &a,
            &[0.0; 10],
            None,
            &IdentityPrecond,
            SolverOptions::default(),
        );
        assert!(r.converged);
        assert!(crate::vector::norm2(&r.x) < 1e-12);
    }

    #[test]
    fn cg_warm_start_uses_initial_guess() {
        let a = laplacian(30);
        let x_true: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b = a.matvec(&x_true);
        let cold = cg(&a, &b, None, &IdentityPrecond, SolverOptions::default());
        let warm = cg(
            &a,
            &b,
            Some(&x_true),
            &IdentityPrecond,
            SolverOptions::default(),
        );
        assert_eq!(
            warm.iterations, 0,
            "exact warm start should converge immediately"
        );
        assert!(cold.iterations > 0);
    }

    #[test]
    fn cg_respects_max_iter() {
        let a = laplacian(200);
        let b = vec![1.0; 200];
        let opts = SolverOptions {
            max_iter: 3,
            ..Default::default()
        };
        let r = cg(&a, &b, None, &IdentityPrecond, opts);
        assert!(!r.converged);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn cg_into_reuses_workspace_and_matches_cg() {
        let a = laplacian(60);
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).cos()).collect();
        let reference = cg(&a, &b, None, &IdentityPrecond, SolverOptions::default());
        let mut ws = SolverWorkspace::new();
        let mut x = vec![0.0; 60];
        let s1 = cg_into(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolverOptions::default(),
            &mut ws,
        );
        assert!(s1.converged);
        assert_eq!(s1.iterations, reference.iterations);
        assert!(crate::vector::max_abs_diff(&x, &reference.x) < 1e-12);
        // second solve through the same workspace: warm start converges at once
        let s2 = cg_into(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolverOptions::default(),
            &mut ws,
        );
        assert!(s2.converged);
        assert_eq!(s2.iterations, 0);
    }

    #[test]
    fn solver_residual_is_true_residual() {
        let a = laplacian(25);
        let b = vec![1.0; 25];
        let r = cg(&a, &b, None, &IdentityPrecond, SolverOptions::default());
        let true_res = crate::vector::norm2(&crate::vector::sub(&b, &a.matvec(&r.x)));
        assert!((true_res - r.residual).abs() < 1e-9);
    }
}
