//! Dense row-major matrices with the factorizations the UQ stack needs:
//! Cholesky (for Gaussian proposal covariances), cyclic-Jacobi symmetric
//! eigendecomposition (for Karhunen–Loève modes) and LU with partial
//! pivoting (small saddle-point systems in the DG limiter).

use crate::vector;

/// Dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape mismatch");
        Self { rows, cols, data }
    }

    /// Build an `n × n` matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect()
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// Transposed matrix–vector product into a caller-provided buffer, as
    /// one [`vector::axpy`] along each row: `y ← y + x_i · row_i`. Every
    /// entry is summed in row order from `-0.0`, which is the order and
    /// start of [`vector::dot`], so the result equals
    /// `self.transpose().matvec(x)` to the bit; unlike that column dot, a
    /// dependent chain of adds, the sweep vectorises across `y`. Keeps
    /// the per-step `κ = exp(Φθ)` evaluation, with `Φ` stored
    /// transposed, allocation-free.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t_into: dimension mismatch");
        assert_eq!(
            y.len(),
            self.cols,
            "matvec_t_into: output dimension mismatch"
        );
        y.fill(-0.0);
        for (i, &xi) in x.iter().enumerate() {
            vector::axpy(xi, self.row(i), y);
        }
    }

    /// Matrix product `A B`.
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "matmul: dimension mismatch");
        let mut c = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    c[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        c
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
    ///
    /// Returns `None` if the matrix is not (numerically) symmetric positive
    /// definite.
    pub fn cholesky(&self) -> Option<DenseMatrix> {
        assert_eq!(self.rows, self.cols, "cholesky: matrix must be square");
        let mut l = DenseMatrix::zeros(self.rows, self.rows);
        l.cholesky_from(self).then_some(l)
    }

    /// Overwrite `self` (an `n × n` scratch matrix) with the lower
    /// Cholesky factor of `a`, allocating nothing. Returns `false` (with
    /// `self` in an unspecified state) when `a` is not numerically SPD.
    /// This is the refactorization path for repeatedly refilled
    /// operators (e.g. the multigrid coarse level).
    pub fn cholesky_from(&mut self, a: &DenseMatrix) -> bool {
        assert_eq!(a.rows, a.cols, "cholesky_from: matrix must be square");
        let n = a.rows;
        assert_eq!(self.rows, n, "cholesky_from: scratch shape mismatch");
        assert_eq!(self.cols, n, "cholesky_from: scratch shape mismatch");
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= self[(i, k)] * self[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return false;
                    }
                    self[(i, j)] = s.sqrt();
                } else {
                    self[(i, j)] = s / self[(j, j)];
                }
            }
            for j in i + 1..n {
                self[(i, j)] = 0.0;
            }
        }
        true
    }

    /// Solve `L y = b` for lower-triangular `L` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n, "solve_lower: dimension mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self[(i, j)] * y[j];
            }
            y[i] = s / self[(i, i)];
        }
        y
    }

    /// Solve `Lᵀ x = y` for lower-triangular `L` (back substitution on the
    /// transpose).
    pub fn solve_lower_t(&self, y: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(y.len(), n, "solve_lower_t: dimension mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self[(j, i)] * x[j];
            }
            x[i] = s / self[(i, i)];
        }
        x
    }

    /// Solve `L Lᵀ x = b` in place, treating `self` as the lower Cholesky
    /// factor `L` (as returned by [`cholesky`](Self::cholesky)). Both
    /// substitutions run inside `x`, so the solve allocates nothing —
    /// this is the multigrid coarse-level solver's hot path.
    pub fn solve_cholesky_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.rows;
        assert_eq!(b.len(), n, "solve_cholesky_into: rhs dimension mismatch");
        assert_eq!(x.len(), n, "solve_cholesky_into: output dimension mismatch");
        // forward: L y = b
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self[(i, j)] * x[j];
            }
            x[i] = s / self[(i, i)];
        }
        // backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self[(j, i)] * x[j];
            }
            x[i] = s / self[(i, i)];
        }
    }

    /// Solve `A x = b` by LU with partial pivoting. Returns `None` when the
    /// matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        let n = self.rows;
        assert_eq!(b.len(), n, "solve: dimension mismatch");
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // partial pivot
            let mut p = k;
            let mut best = a[piv[k] * n + k].abs();
            for r in k + 1..n {
                let v = a[piv[r] * n + k].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            piv.swap(k, p);
            let pk = piv[k];
            let akk = a[pk * n + k];
            for r in k + 1..n {
                let pr = piv[r];
                let f = a[pr * n + k] / akk;
                a[pr * n + k] = f;
                for c in k + 1..n {
                    a[pr * n + c] -= f * a[pk * n + c];
                }
                x[pr] -= f * x[pk];
            }
        }
        // back substitution
        let mut out = vec![0.0; n];
        for i in (0..n).rev() {
            let pi = piv[i];
            let mut s = x[pi];
            for j in i + 1..n {
                s -= a[pi * n + j] * out[j];
            }
            out[i] = s / a[pi * n + i];
        }
        Some(out)
    }

    /// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
    ///
    /// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted in
    /// descending order; column `k` of the returned matrix is the
    /// eigenvector for `eigenvalues[k]`.
    pub fn sym_eigen(&self) -> (Vec<f64>, DenseMatrix) {
        assert_eq!(self.rows, self.cols, "sym_eigen: matrix must be square");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = DenseMatrix::identity(n);
        let max_sweeps = 100;
        for _ in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() < 1e-14 {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // rotate rows/cols p and q of a
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[(i, i)], i)).collect();
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        let eigvals: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let eigvecs = DenseMatrix::from_fn(n, n, |i, k| v[(i, pairs[k].1)]);
        (eigvals, eigvecs)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0])
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = DenseMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // column 0 sums two -0.0 products: -0.0 from dot's start, +0.0
        // from a sum started at +0.0; column 2 cancels to +0.0
        let a = DenseMatrix::from_vec(2, 3, vec![-0.0, 2.0, 2.5, 0.0, 5.0, 2.5]);
        let x = [1.0, -1.0];
        let want = a.transpose().matvec(&x);
        assert_eq!(want[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(want[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(bits(&a.matvec_t(&x)), bits(&want));

        // a KL-shaped basis (modes × points): long sums whose rounding
        // depends on their order
        let mut rng = StdRng::seed_from_u64(17);
        let a = DenseMatrix::from_fn(113, 257, |_, _| 2.0 * rng.random::<f64>() - 1.0);
        let x: Vec<f64> = (0..113).map(|_| 6.0 * rng.random::<f64>() - 3.0).collect();
        let mut y = vec![f64::NAN; 257];
        a.matvec_t_into(&x, &mut y);
        assert_eq!(bits(&y), bits(&a.transpose().matvec(&x)));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = a.cholesky().expect("SPD");
        let llt = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((llt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn triangular_solves_invert_cholesky() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let y = l.solve_lower(&b);
        let x = l.solve_lower_t(&y);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_solve_matches_known_solution() {
        let a = DenseMatrix::from_vec(3, 3, vec![0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 3.0]);
        let x_true = vec![1.0, -1.0, 2.0];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).expect("nonsingular");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_solve_detects_singular() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn jacobi_eigen_diagonalizes_known_matrix() {
        // eigenvalues of [[2,1],[1,2]] are 3 and 1
        let a = DenseMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (vals, vecs) = a.sym_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // A v = lambda v for each column
        for k in 0..2 {
            let v: Vec<f64> = (0..2).map(|i| vecs[(i, k)]).collect();
            let av = a.matvec(&v);
            for i in 0..2 {
                assert!((av[i] - vals[k] * v[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn jacobi_eigen_orthonormal_vectors() {
        let a = spd3();
        let (_, vecs) = a.sym_eigen();
        let vtv = vecs.transpose().matmul(&vecs);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn eigen_trace_and_det_invariants() {
        let a = spd3();
        let (vals, _) = a.sym_eigen();
        let trace: f64 = (0..3).map(|i| a[(i, i)]).sum();
        assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-10);
    }
}
