//! Dense row-major matrices with the one factorization the UQ stack
//! needs: Cholesky (Gaussian proposal covariances and the multigrid
//! coarse-level solve). Dense matrices also hold the KL field's 1-D
//! tables and, on the smallest meshes, its tabulated basis.

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

    /// Transposed matrix–vector product `Aᵀ x` into a caller-provided buffer:
    /// `y ← y + x_i · row_i` for each row, four rows per sweep over `y`
    /// (`y_j ← (((y_j + x₀r₀_j) + x₁r₁_j) + x₂r₂_j) + x₃r₃_j`, so `y` is
    /// loaded and stored once per four rows) and one [`vector::axpy`] per
    /// leftover row. Every entry is summed in row order from `-0.0`, which
    /// is the order and start of [`vector::dot`], so the result equals
    /// `self.transpose().matvec(x)` to the bit; unlike that column dot, a
    /// dependent chain of adds, the sweep vectorises across `y`. It is
    /// the second pass of the KL field's sum factorisation (four x-modes
    /// per sweep over a row of grid points) and, on the smallest meshes,
    /// the row sum over the tabulated basis; allocation-free.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t_into: dimension mismatch");
        assert_eq!(
            y.len(),
            self.cols,
            "matvec_t_into: output dimension mismatch"
        );
        y.fill(-0.0);
        let cols = self.cols;
        if cols == 0 {
            return;
        }
        let mut blocks = self.data.chunks_exact(4 * cols);
        let mut xs = x.chunks_exact(4);
        for (block, xb) in blocks.by_ref().zip(xs.by_ref()) {
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let (x0, x1, x2, x3) = (xb[0], xb[1], xb[2], xb[3]);
            for ((((yj, a), b), c), d) in y.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *yj = (((*yj + x0 * a) + x1 * b) + x2 * c) + x3 * d;
            }
        }
        for (row, &xi) in blocks.remainder().chunks_exact(cols).zip(xs.remainder()) {
            vector::axpy(xi, row, y);
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
        let mut y = vec![f64::NAN; 3];
        a.matvec_t_into(&x, &mut y);
        assert_eq!(bits(&y), bits(&want));

        // a KL-shaped basis (modes × points): long sums whose rounding
        // depends on their order
        let mut rng = StdRng::seed_from_u64(17);
        let a = DenseMatrix::from_fn(113, 257, |_, _| 2.0 * rng.random::<f64>() - 1.0);
        let x: Vec<f64> = (0..113).map(|_| 6.0 * rng.random::<f64>() - 3.0).collect();
        let mut y = vec![f64::NAN; 257];
        a.matvec_t_into(&x, &mut y);
        assert_eq!(bits(&y), bits(&a.transpose().matvec(&x)));

        // every split into four-row sweeps and leftover rows (none, a
        // sweep only, leftover rows only, both), signed zeros included, and
        // the empty shapes
        for rows in 0..=9 {
            for cols in [0, 1, 7] {
                let a = DenseMatrix::from_fn(rows, cols, |i, j| match (i + j) % 3 {
                    0 => -0.0,
                    1 => rng.random::<f64>() - 0.5,
                    _ => 0.0,
                });
                let x: Vec<f64> = (0..rows).map(|i| [1.0, -1.0, 0.5][i % 3]).collect();
                let mut y = vec![f64::NAN; cols];
                a.matvec_t_into(&x, &mut y);
                let want = a.transpose().matvec(&x);
                assert_eq!(bits(&y), bits(&want), "{rows} x {cols}");
            }
        }
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
}
