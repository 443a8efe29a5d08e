//! Band LDLᵀ direct solve for small SPD systems with eliminated rows.
//!
//! On a few hundred unknowns a preconditioned Krylov solve is all fixed
//! overhead; a band factorisation (Golub & Van Loan, *Matrix
//! Computations*, §4.3) costs `free · bw² / 2` multiply-adds and no
//! iteration. The work is split as the FEM layer splits assembly:
//! **symbolic**, once per CSR pattern ([`BandedSolver::new`]) — the free
//! unknowns in index order, their half-bandwidth in that numbering, a
//! CSR-value → band-slot scatter map; **numeric**, once per refill
//! ([`BandedSolver::solve_into`]) — scatter, factor in place, substitute.
//! Nothing is allocated and nothing survives from the previous solve, so
//! the result is a pure function of the matrix values and the rhs.

use crate::sparse::CsrMatrix;
use crate::vector::axpy;

/// A pivot of the band factorisation was not a positive finite number:
/// the matrix is not (numerically) symmetric positive definite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NotPositiveDefinite {
    /// Row of the offending pivot, in the full system's numbering.
    pub row: usize,
    /// The pivot found there.
    pub pivot: f64,
}

/// Direct solver for `A x = b` with `A` symmetric positive definite on
/// its free unknowns and an identity row at every fixed one (symmetric
/// Dirichlet elimination: `x = b` there, no coupling left in either
/// direction). Only the upper triangle of `A` is read.
pub struct BandedSolver {
    /// Full-system index of every free unknown, ascending.
    free: Vec<usize>,
    /// Half-bandwidth of the free–free couplings in the free numbering.
    bw: usize,
    /// `(CSR value position, band slot)` of every stored upper-triangle
    /// free–free entry.
    scatter: Vec<(u32, u32)>,
    /// Upper band, `bw + 1` slots per free unknown: `A[k][k + j]` at
    /// `k · (bw + 1) + j`; once factored, `1 / d_k` and `l_{k+j, k}`.
    band: Vec<f64>,
    /// Right-hand side and solution in the free numbering.
    y: Vec<f64>,
    /// Order and stored entries of the analysed matrix.
    shape: (usize, usize),
}

impl BandedSolver {
    /// Analyse the pattern of `a` once; `fixed[i]` marks the eliminated
    /// (identity) rows.
    ///
    /// # Panics
    /// Panics if `a` is not square, the mask has the wrong length, a
    /// free row stores a coupling to a fixed unknown, or the band does
    /// not fit `u32` slots.
    pub fn new(a: &CsrMatrix, fixed: &[bool]) -> Self {
        let n = a.rows();
        assert_eq!(a.cols(), n, "BandedSolver: matrix must be square");
        assert_eq!(fixed.len(), n, "BandedSolver: mask length mismatch");
        let free: Vec<usize> = (0..n).filter(|&i| !fixed[i]).collect();
        let mut number = vec![0; n];
        for (k, &i) in free.iter().enumerate() {
            number[i] = k;
        }
        // (CSR position, free row, distance to the diagonal) per entry
        let mut upper = Vec::new();
        for &i in &free {
            for (pos, &c) in (a.row_ptr()[i]..).zip(a.row(i).0) {
                assert!(
                    !fixed[c],
                    "BandedSolver: free row {i} is coupled to fixed unknown {c}"
                );
                if c >= i {
                    upper.push((pos, number[i], number[c] - number[i]));
                }
            }
        }
        let bw = upper.iter().map(|e| e.2).max().unwrap_or(0);
        let width = bw + 1;
        assert!(
            free.len() * width <= u32::MAX as usize && a.nnz() <= u32::MAX as usize,
            "BandedSolver: system too large for a band solve"
        );
        Self {
            scatter: upper
                .into_iter()
                .map(|(pos, k, j)| (pos as u32, (k * width + j) as u32))
                .collect(),
            band: vec![0.0; free.len() * width],
            y: vec![0.0; free.len()],
            free,
            bw,
            shape: (n, a.nnz()),
        }
    }

    /// Number of free unknowns (the order of the factored band).
    pub fn n_free(&self) -> usize {
        self.free.len()
    }

    /// Half-bandwidth of the free–free couplings in the free numbering.
    pub fn half_bandwidth(&self) -> usize {
        self.bw
    }

    /// Factor the current values of `a` (the analysed pattern) and solve
    /// `A x = b` into `x`; fixed unknowns take their `b` values. Reports
    /// the first non-positive or non-finite pivot, leaving `x` unspecified.
    ///
    /// # Panics
    /// Panics if `a` does not have the analysed pattern's size or a
    /// vector has the wrong length.
    pub fn solve_into(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<(), NotPositiveDefinite> {
        let values = a.values();
        assert_eq!(
            (a.rows(), values.len()),
            self.shape,
            "BandedSolver: pattern changed"
        );
        assert_eq!(
            b.len(),
            self.shape.0,
            "BandedSolver: rhs dimension mismatch"
        );
        assert_eq!(
            x.len(),
            self.shape.0,
            "BandedSolver: solution dimension mismatch"
        );
        let (nf, bw, width) = (self.free.len(), self.bw, self.bw + 1);

        // fill-in lands in slots the pattern does not store: clear first
        self.band.fill(0.0);
        for &(pos, slot) in &self.scatter {
            self.band[slot as usize] = values[pos as usize];
        }
        // right-looking: pivot row k updates each row below it with one
        // contiguous axpy over that row's band segment (the dot-product
        // form measured 2.2× slower at bandwidth 16). The pivots with a
        // full band below them go through a kernel whose segment lengths
        // are compile-time constants; the last `bw` pivots, and every
        // width without a kernel, take the runtime-width loop.
        let interior = nf.saturating_sub(bw);
        let factored = match bw {
            4 => eliminate_interior::<4>(&mut self.band, interior),
            8 => eliminate_interior::<8>(&mut self.band, interior),
            16 => eliminate_interior::<16>(&mut self.band, interior),
            _ => Ok(0),
        }
        .and_then(|done| {
            (done..nf).try_for_each(|k| eliminate(&mut self.band, width, k, bw.min(nf - 1 - k)))
        });
        if let Err(k) = factored {
            return Err(NotPositiveDefinite {
                row: self.free[k],
                pivot: self.band[k * width],
            });
        }

        for (y, &i) in self.y.iter_mut().zip(&self.free) {
            *y = b[i];
        }
        // forward: L z = y, column by column
        for k in 0..nf {
            let m = bw.min(nf - 1 - k);
            let (done, rest) = self.y.split_at_mut(k + 1);
            axpy(-done[k], &self.band[k * width + 1..][..m], &mut rest[..m]);
        }
        // backward: Lᵀ x = D⁻¹ z, row by row
        for k in (0..nf).rev() {
            let m = bw.min(nf - 1 - k);
            let row = &self.band[k * width..][..=m];
            let mut s = self.y[k] * row[0];
            for (l, xj) in row[1..].iter().zip(&self.y[k + 1..][..m]) {
                s -= l * xj;
            }
            self.y[k] = s;
        }
        x.copy_from_slice(b);
        for (&i, &y) in self.free.iter().zip(&self.y) {
            x[i] = y;
        }
        Ok(())
    }
}

/// Whether `d` can be a pivot of an SPD factorisation.
fn positive_finite(d: f64) -> bool {
    d > 0.0 && d.is_finite()
}

/// Eliminate pivot `k`, which has `m` rows below it, in a band of `width`
/// slots per row: pivot `k` becomes `1 / d_k`, its off-diagonal slots
/// the multipliers `l_{k+i, k}`. `Err(k)` if `d_k` is not a positive
/// finite number, leaving the band as it was.
fn eliminate(band: &mut [f64], width: usize, k: usize, m: usize) -> Result<(), usize> {
    let (head, below) = band.split_at_mut((k + 1) * width);
    let pivot_row = &mut head[k * width..];
    let d = pivot_row[0];
    if !positive_finite(d) {
        return Err(k);
    }
    let inv = 1.0 / d;
    for i in 1..=m {
        let l = pivot_row[i] * inv;
        axpy(
            -l,
            &pivot_row[i..=m],
            &mut below[(i - 1) * width..][..=m - i],
        );
        pivot_row[i] = l;
    }
    pivot_row[0] = inv;
    Ok(())
}

/// [`eliminate`] for pivots `0..pivots` of a band of half-bandwidth `BW`,
/// each of which has the full `BW` rows below it. Every loop bound is a
/// compile-time constant, so each row's update compiles to straight-line
/// vector code; the updates and their order are [`eliminate`]'s, so the
/// factors are bit-identical. Returns the number of pivots eliminated.
fn eliminate_interior<const BW: usize>(band: &mut [f64], pivots: usize) -> Result<usize, usize> {
    let width = BW + 1;
    for k in 0..pivots {
        let (head, below) = band.split_at_mut((k + 1) * width);
        let (pivot_row, below) = (&mut head[k * width..], &mut below[..BW * width]);
        let d = pivot_row[0];
        if !positive_finite(d) {
            return Err(k);
        }
        let inv = 1.0 / d;
        // indexed, over exclusive ranges: an inclusive range compiles to
        // a scalar loop with bounds checks, and a zipped iterator read
        // 1.7× slower at BW = 16
        for i in 1..width {
            let l = pivot_row[i] * inv;
            let (x, row) = (&pivot_row[i..], &mut below[(i - 1) * width..][..width - i]);
            for j in 0..width - i {
                row[j] += -l * x[j];
            }
            pivot_row[i] = l;
        }
        pivot_row[0] = inv;
    }
    Ok(pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::sparse::CooMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A seeded SPD system of order `n` whose free rows couple within
    /// `bandwidth` of each other (diagonally dominant) and whose `fixed`
    /// rows are identity rows, as CSR and dense.
    fn banded_system(
        n: usize,
        bandwidth: usize,
        fixed: &[bool],
        seed: u64,
    ) -> (CsrMatrix, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i + 1..n.min(i + bandwidth + 1) {
                if !fixed[i] && !fixed[j] && rng.random::<f64>() < 0.7 {
                    let v = 2.0 * rng.random::<f64>() - 1.0;
                    dense[(i, j)] = v;
                    dense[(j, i)] = v;
                }
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).map(|j| dense[(i, j)].abs()).sum();
            dense[(i, i)] = if fixed[i] {
                1.0
            } else {
                off + 0.1 + rng.random::<f64>()
            };
        }
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, dense[(i, j)]);
            }
        }
        (coo.to_csr(), dense)
    }

    fn dense_reference(dense: &DenseMatrix, b: &[f64]) -> Vec<f64> {
        let l = dense.cholesky().expect("SPD by construction");
        let mut x = vec![0.0; b.len()];
        l.solve_cholesky_into(b, &mut x);
        x
    }

    /// Largest componentwise difference relative to `max(1, ‖want‖∞)`.
    fn rel_err(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        crate::vector::max_abs_diff(got, want) / scale
    }

    proptest! {
        #[test]
        fn matches_dense_cholesky_with_scattered_identity_rows(
            n in 1usize..61,
            bandwidth_frac in 0.0f64..1.0,
            fixed_frac in 0.0f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            let bandwidth = (bandwidth_frac * (n + 1) as f64) as usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let fixed: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < fixed_frac).collect();
            let b: Vec<f64> = (0..n).map(|_| 4.0 * rng.random::<f64>() - 2.0).collect();
            let (csr, dense) = banded_system(n, bandwidth, &fixed, seed);
            let mut solver = BandedSolver::new(&csr, &fixed);
            prop_assert!(solver.half_bandwidth() <= bandwidth);
            prop_assert_eq!(solver.n_free(), fixed.iter().filter(|f| !**f).count());
            let mut x = vec![f64::NAN; n];
            solver.solve_into(&csr, &b, &mut x).expect("SPD by construction");
            let err = rel_err(&x, &dense_reference(&dense, &b));
            prop_assert!(err <= 1e-12, "band vs dense Cholesky: {err:e}");
            for i in 0..n {
                if fixed[i] {
                    prop_assert_eq!(x[i].to_bits(), b[i].to_bits());
                }
            }
        }
    }

    /// The runtime-width right-looking loop and both substitutions,
    /// written out for every pivot of `solver`'s analysed band: the
    /// reference the fixed-width kernels must reproduce to the bit.
    /// Returns the factored band and the solution.
    fn generic_solve(solver: &BandedSolver, a: &CsrMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (nf, bw, width) = (solver.free.len(), solver.bw, solver.bw + 1);
        let mut band = vec![0.0; nf * width];
        for &(pos, slot) in &solver.scatter {
            band[slot as usize] = a.values()[pos as usize];
        }
        for k in 0..nf {
            let m = bw.min(nf - 1 - k);
            let inv = 1.0 / band[k * width];
            for i in 1..=m {
                let l = band[k * width + i] * inv;
                for j in i..=m {
                    band[(k + i) * width + j - i] += -l * band[k * width + j];
                }
                band[k * width + i] = l;
            }
            band[k * width] = inv;
        }
        let mut y: Vec<f64> = solver.free.iter().map(|&i| b[i]).collect();
        for k in 0..nf {
            for j in 1..=bw.min(nf - 1 - k) {
                y[k + j] += -y[k] * band[k * width + j];
            }
        }
        for k in (0..nf).rev() {
            let mut s = y[k] * band[k * width];
            for j in 1..=bw.min(nf - 1 - k) {
                s -= band[k * width + j] * y[k + j];
            }
            y[k] = s;
        }
        let mut x = b.to_vec();
        for (&i, &v) in solver.free.iter().zip(&y) {
            x[i] = v;
        }
        (band, x)
    }

    #[test]
    fn fixed_width_kernels_match_the_generic_loop_to_the_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bw in [4, 8, 16] {
            // one interior pivot then the tail, several, and many
            for nf in [bw + 1, 2 * bw + 3, 80] {
                // identity rows at both ends, as Dirichlet columns leave
                let n = nf + 2;
                let fixed: Vec<bool> = (0..n).map(|i| i == 0 || i == n - 1).collect();
                let (csr, mut solver) = (0..)
                    .map(|seed| {
                        let (csr, _) = banded_system(n, bw, &fixed, seed);
                        let solver = BandedSolver::new(&csr, &fixed);
                        (csr, solver)
                    })
                    .find(|(_, s)| s.half_bandwidth() == bw)
                    .expect("a seed reaches the full bandwidth");
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
                let mut x = vec![f64::NAN; n];
                solver.solve_into(&csr, &b, &mut x).unwrap();
                let (band, want) = generic_solve(&solver, &csr, &b);
                assert_eq!(bits(&solver.band), bits(&band), "factors, bw {bw}, nf {nf}");
                assert_eq!(bits(&x), bits(&want), "solution, bw {bw}, nf {nf}");
            }
        }
    }

    #[test]
    fn refactor_after_refill_leaves_no_residue() {
        // same pattern, new values: stale multipliers or fill-in left in
        // the band from the first factorisation would show in the second
        let n = 40;
        let fixed: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        let (mut csr, _) = banded_system(n, 6, &fixed, 11);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut solver = BandedSolver::new(&csr, &fixed);
        let mut first = vec![0.0; n];
        solver.solve_into(&csr, &b, &mut first).unwrap();
        // scale the free block by 3 and lift its diagonal: SPD stays
        for v in csr.values_mut() {
            *v *= 3.0;
        }
        for i in 0..n {
            let p = csr.entry_position(i, i).unwrap();
            csr.values_mut()[p] = if fixed[i] { 1.0 } else { csr.values()[p] + 0.5 };
        }
        let dense = DenseMatrix::from_fn(n, n, |i, j| csr.get(i, j));
        let mut second = vec![0.0; n];
        solver.solve_into(&csr, &b, &mut second).unwrap();
        assert!(rel_err(&second, &dense_reference(&dense, &b)) <= 1e-12);
        let fresh = {
            let mut s = BandedSolver::new(&csr, &fixed);
            let mut x = vec![0.0; n];
            s.solve_into(&csr, &b, &mut x).unwrap();
            x
        };
        assert_eq!(second, fresh, "a reused solver must equal a fresh one");
        assert_ne!(first, second);
    }

    #[test]
    fn indefinite_matrix_is_reported_not_factorised() {
        // [1 2; 2 1] has eigenvalues 3 and −1: the second pivot is −3
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 1, 2.0);
        let a = coo.to_csr();
        let mut solver = BandedSolver::new(&a, &[true, false, false]);
        let err = solver
            .solve_into(&a, &[1.0; 3], &mut [0.0; 3])
            .expect_err("indefinite");
        assert_eq!(
            err,
            NotPositiveDefinite {
                row: 2,
                pivot: -3.0
            }
        );
        let mut nan = a.clone();
        nan.values_mut()[1] = f64::NAN;
        let err = solver
            .solve_into(&nan, &[1.0; 3], &mut [0.0; 3])
            .expect_err("non-finite");
        assert_eq!(err.row, 1);
    }

    #[test]
    fn empty_and_all_fixed_systems() {
        let empty = CsrMatrix::identity(0);
        let mut solver = BandedSolver::new(&empty, &[]);
        assert_eq!((solver.n_free(), solver.half_bandwidth()), (0, 0));
        solver.solve_into(&empty, &[], &mut []).unwrap();

        let a = CsrMatrix::identity(4);
        let mut solver = BandedSolver::new(&a, &[true; 4]);
        assert_eq!(solver.n_free(), 0);
        let b = [0.5, -1.0, 2.0, 0.0];
        let mut x = [f64::NAN; 4];
        solver.solve_into(&a, &b, &mut x).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    #[should_panic(expected = "coupled to fixed unknown")]
    fn uneliminated_coupling_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(1, 0, -1.0);
        BandedSolver::new(&coo.to_csr(), &[true, false]);
    }
}
