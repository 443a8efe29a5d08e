//! Sparse matrices in COO (assembly) and CSR (compute) formats.
//!
//! FEM assembly accumulates triplets into a [`CooMatrix`]; the solver phase
//! converts once to [`CsrMatrix`] which provides the matrix–vector product
//! plus the row access the multigrid smoother needs.

/// Coordinate-format (triplet) sparse matrix used during assembly.
///
/// Duplicate entries are allowed and are summed when converting to CSR —
/// exactly the semantics element-by-element FEM assembly needs.
#[derive(Clone, Debug)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Empty matrix of shape `rows × cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Accumulate `value` at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the index is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "CooMatrix::push: out of bounds"
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Convert to CSR, summing duplicates.
    ///
    /// The sort is *stable*, so duplicate entries are summed in push
    /// order. This makes the result bit-identical to an in-place refill
    /// through `uq-fem`'s scatter map, which accumulates element
    /// contributions in the same (element-loop) order.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_counts = vec![0usize; self.rows];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if prev == Some((r, c)) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_counts[r] += 1;
                prev = Some((r, c));
            }
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        for &count in &row_counts {
            row_ptr.push(row_ptr.last().unwrap() + count);
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Build from raw CSR arrays (columns must be strictly increasing
    /// within each row). Lets symbolic-pattern holders mint matrices
    /// without keeping a prototype matrix alive.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: `row_ptr` must have
    /// `rows + 1` monotone entries ending at `col_idx.len()`,
    /// `values.len()` must equal `col_idx.len()`, and every column index
    /// must be in range and sorted within its row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "from_raw: row_ptr length");
        assert_eq!(row_ptr[0], 0, "from_raw: row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "from_raw: row_ptr must end at nnz"
        );
        assert_eq!(values.len(), col_idx.len(), "from_raw: values length");
        for i in 0..rows {
            assert!(
                row_ptr[i] <= row_ptr[i + 1],
                "from_raw: row_ptr not monotone"
            );
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "from_raw: columns not strictly sorted in row {i}"
                );
            }
            if let Some(&last) = row.last() {
                assert!(last < cols, "from_raw: column out of range in row {i}");
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The row-pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (length `nnz`), sorted within each row.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored values (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values, for in-place refills that
    /// keep the symbolic pattern fixed (the sparsity structure cannot be
    /// changed through this view).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Position of entry `(i, j)` in the [`values`](Self::values) array,
    /// or `None` if it is not stored. Binary search over the sorted
    /// columns of row `i` — used to build scatter maps once per pattern.
    pub fn entry_position(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// Entry `(i, j)` — O(row nnz) lookup, intended for tests and setup.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        cols.iter().position(|&c| c == j).map_or(0.0, |p| vals[p])
    }

    /// Diagonal entries.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Serial matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Serial matrix–vector product into a caller-provided buffer (avoids
    /// per-iteration allocation in the Krylov loops).
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_into: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output dimension mismatch");
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let mut s = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                s += v * x[c];
            }
            y[i] = s;
        }
    }

    /// Symmetry check up to `tol` (structure-agnostic; O(nnz · log nnz)).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if (v - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_csr() -> CsrMatrix {
        // [2 -1  0]
        // [-1 2 -1]
        // [0 -1  2]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_basic() {
        let a = small_csr();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn coo_with_empty_rows() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 2.0);
        let a = coo.to_csr();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0, 1.0]), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matvec_tridiagonal() {
        let a = small_csr();
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(i.matvec(&x), x);
        assert_eq!(i.nnz(), 5);
    }

    #[test]
    fn symmetry_detection() {
        assert!(small_csr().is_symmetric(1e-14));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-14));
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(small_csr().diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coo_push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(1, 0, 1.0);
    }
}
