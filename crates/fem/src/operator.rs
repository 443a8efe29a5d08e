//! Reusable stiffness operators: symbolic CSR pattern + in-place refill.
//!
//! [`crate::assembly::assemble`] rebuilds a COO triplet list and
//! re-sorts it into CSR on every call — fine for setup code, far too
//! expensive for the MCMC hot loop where only the diffusion field `κ`
//! changes between solves. [`StiffnessPattern`] computes everything
//! `κ`-independent **once per grid**:
//!
//! * the symbolic CSR pattern (row pointers + sorted column indices);
//! * an element → nnz *scatter map*: for each of the 16 local stiffness
//!   entries of each element, the destination index in the CSR value
//!   array (or a skip marker for Dirichlet-eliminated couplings);
//! * the Dirichlet contributions to the right-hand side, reduced to
//!   `(node, element, coefficient)` triples;
//! * the identity rows of eliminated boundary nodes.
//!
//! A refill is then a single fused pass over the scatter map — no COO
//! build, no sort, no allocation — and produces values **bit-identical**
//! to a from-scratch [`assemble`] (both sum element contributions in the
//! same element-loop order; the COO→CSR conversion sorts stably to
//! preserve it).

use crate::assembly::{assemble, reference_stiffness};
use crate::grid::StructuredGrid;
use std::sync::Arc;
use uq_linalg::sparse::CsrMatrix;

/// Skip marker in the value scatter map (entry eliminated by a
/// Dirichlet row or column).
const SKIP: u32 = u32::MAX;

/// A right-hand-side contribution `rhs[node] += κ[element] · coeff`
/// arising from symmetric elimination of a Dirichlet column.
#[derive(Clone, Copy, Debug)]
struct RhsContribution {
    node: u32,
    element: u32,
    /// `−k_ref[a][b] · g` for boundary value `g` (the sign is folded in).
    coeff: f64,
}

/// An eliminated Dirichlet row: identity diagonal + fixed rhs value.
#[derive(Clone, Copy, Debug)]
struct DirichletRow {
    /// Index of the diagonal entry in the CSR value array.
    value_pos: u32,
    node: u32,
    value: f64,
}

/// κ-independent symbolic structure of the Q1 stiffness system on a
/// [`StructuredGrid`], enabling allocation-free per-`κ` refills.
pub struct StiffnessPattern {
    n_elements: usize,
    n_nodes: usize,
    /// Flattened reference element stiffness, `k_ref[a][b]` at `a*4+b`.
    kref: [f64; 16],
    /// `n_elements × 16` destination indices into the CSR value array.
    val_scatter: Vec<u32>,
    rhs_contributions: Vec<RhsContribution>,
    dirichlet_rows: Vec<DirichletRow>,
    /// Symbolic CSR structure (no values — minted matrices get fresh
    /// value storage, so the pattern does not double operator memory).
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Per-node Dirichlet mask (shared with the multigrid layer).
    fixed: Vec<bool>,
}

impl StiffnessPattern {
    /// Analyse the grid once: assemble a prototype system for `κ ≡ 1`
    /// and record where every element contribution lands in it.
    pub fn new(grid: &StructuredGrid) -> Self {
        let n = grid.n();
        let n_elements = grid.n_elements();
        let n_nodes = grid.n_nodes();
        let k_ref = reference_stiffness();
        let mut kref = [0.0; 16];
        for a in 0..4 {
            for b in 0..4 {
                kref[a * 4 + b] = k_ref[a][b];
            }
        }
        let proto = assemble(grid, &vec![1.0; n_elements]).matrix;
        let bc: Vec<Option<f64>> = (0..n_nodes).map(|idx| grid.dirichlet_value(idx)).collect();
        let fixed: Vec<bool> = bc.iter().map(Option::is_some).collect();

        let mut val_scatter = vec![SKIP; n_elements * 16];
        let mut rhs_contributions = Vec::new();
        for ey in 0..n {
            for ex in 0..n {
                let e = ey * n + ex;
                let nodes = grid.element_nodes(ex, ey);
                for a in 0..4 {
                    let ga = nodes[a];
                    if bc[ga].is_some() {
                        continue; // eliminated row: stays identity
                    }
                    for b in 0..4 {
                        let gb = nodes[b];
                        match bc[gb] {
                            Some(g) => {
                                if g != 0.0 {
                                    rhs_contributions.push(RhsContribution {
                                        node: ga as u32,
                                        element: e as u32,
                                        coeff: -kref[a * 4 + b] * g,
                                    });
                                }
                            }
                            None => {
                                let pos = proto
                                    .entry_position(ga, gb)
                                    .expect("pattern entry must exist in prototype");
                                val_scatter[e * 16 + a * 4 + b] = pos as u32;
                            }
                        }
                    }
                }
            }
        }
        let dirichlet_rows = bc
            .iter()
            .enumerate()
            .filter_map(|(idx, bcv)| {
                bcv.map(|g| DirichletRow {
                    value_pos: proto
                        .entry_position(idx, idx)
                        .expect("Dirichlet diagonal must exist")
                        as u32,
                    node: idx as u32,
                    value: g,
                })
            })
            .collect();
        let (row_ptr, col_idx) = (proto.row_ptr().to_vec(), proto.col_indices().to_vec());
        Self {
            n_elements,
            n_nodes,
            kref,
            val_scatter,
            rhs_contributions,
            dirichlet_rows,
            row_ptr,
            col_idx,
            fixed,
        }
    }

    /// Number of degrees of freedom (nodes).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of elements (`κ` entries per refill).
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Per-node Dirichlet mask (`true` = eliminated identity row).
    pub fn fixed_mask(&self) -> &[bool] {
        &self.fixed
    }

    /// A fresh matrix with this pattern (values for `κ ≡ 1`); refill it
    /// through [`refill_values`](Self::refill_values).
    pub fn build_matrix(&self) -> CsrMatrix {
        let mut m = CsrMatrix::from_raw(
            self.n_nodes,
            self.n_nodes,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            vec![0.0; self.col_idx.len()],
        );
        self.refill_values(&vec![1.0; self.n_elements], m.values_mut());
        m
    }

    /// Refill `values` (the value array of a matrix minted by
    /// [`build_matrix`](Self::build_matrix)) in place for the given
    /// element-wise diffusion coefficients.
    ///
    /// # Panics
    /// Panics if `kappa` or `values` have the wrong length.
    pub fn refill_values(&self, kappa: &[f64], values: &mut [f64]) {
        assert_eq!(
            kappa.len(),
            self.n_elements,
            "refill_values: one kappa per element required"
        );
        assert_eq!(
            values.len(),
            self.col_idx.len(),
            "refill_values: value array does not match pattern"
        );
        values.fill(0.0);
        for (e, &kap) in kappa.iter().enumerate() {
            let scatter = &self.val_scatter[e * 16..e * 16 + 16];
            for (pos, kref) in scatter.iter().zip(&self.kref) {
                if *pos != SKIP {
                    values[*pos as usize] += kap * kref;
                }
            }
        }
        for d in &self.dirichlet_rows {
            values[d.value_pos as usize] = 1.0;
        }
    }

    /// Refill the right-hand side in place for the given coefficients.
    ///
    /// # Panics
    /// Panics if `kappa` or `rhs` have the wrong length.
    pub fn refill_rhs(&self, kappa: &[f64], rhs: &mut [f64]) {
        assert_eq!(
            kappa.len(),
            self.n_elements,
            "refill_rhs: one kappa per element required"
        );
        assert_eq!(rhs.len(), self.n_nodes, "refill_rhs: wrong rhs length");
        rhs.fill(0.0);
        for c in &self.rhs_contributions {
            rhs[c.node as usize] += kappa[c.element as usize] * c.coeff;
        }
        for d in &self.dirichlet_rows {
            rhs[d.node as usize] = d.value;
        }
    }
}

/// A single-level operator: a (shared) pattern with the matrix and rhs
/// it refills — the drop-in replacement for calling [`assemble`] per
/// solve.
pub struct StiffnessOperator {
    pattern: Arc<StiffnessPattern>,
    matrix: CsrMatrix,
    rhs: Vec<f64>,
}

impl StiffnessOperator {
    /// A matrix/rhs pair of `pattern` for `κ ≡ 1`.
    pub fn new(pattern: Arc<StiffnessPattern>) -> Self {
        let matrix = pattern.build_matrix();
        let mut rhs = vec![0.0; pattern.n_nodes()];
        pattern.refill_rhs(&vec![1.0; pattern.n_elements()], &mut rhs);
        Self {
            pattern,
            matrix,
            rhs,
        }
    }

    /// Refill matrix values and rhs in place for new coefficients.
    pub fn refill(&mut self, kappa: &[f64]) {
        self.pattern.refill_values(kappa, self.matrix.values_mut());
        self.pattern.refill_rhs(kappa, &mut self.rhs);
    }

    /// The symbolic pattern.
    pub fn pattern(&self) -> &StiffnessPattern {
        &self.pattern
    }

    /// The current matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The current right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied_kappa(n_elements: usize) -> Vec<f64> {
        (0..n_elements)
            .map(|e| (0.3 * ((e * 31 % 17) as f64 - 8.0) / 8.0).exp())
            .collect()
    }

    #[test]
    fn refill_matches_assemble_exactly() {
        for n in [3usize, 4, 8, 16] {
            let grid = StructuredGrid::new(n);
            let kappa = varied_kappa(grid.n_elements());
            let reference = assemble(&grid, &kappa);
            let mut op = StiffnessOperator::new(Arc::new(StiffnessPattern::new(&grid)));
            op.refill(&kappa);
            assert_eq!(op.matrix().nnz(), reference.matrix.nnz());
            // bit-identical, not just close: same summation order
            assert_eq!(op.matrix().values(), reference.matrix.values());
            assert_eq!(op.rhs(), &reference.rhs[..]);
        }
    }

    #[test]
    fn repeated_refills_are_idempotent() {
        let grid = StructuredGrid::new(8);
        let k1 = varied_kappa(grid.n_elements());
        let k2: Vec<f64> = k1.iter().map(|k| 2.0 * k).collect();
        let mut op = StiffnessOperator::new(Arc::new(StiffnessPattern::new(&grid)));
        op.refill(&k2);
        op.refill(&k1);
        // going through a different kappa must leave no residue
        let reference = assemble(&grid, &k1);
        assert_eq!(op.matrix().values(), reference.matrix.values());
        assert_eq!(op.rhs(), &reference.rhs[..]);
    }

    #[test]
    fn fixed_mask_marks_left_and_right_boundaries() {
        let grid = StructuredGrid::new(4);
        let pattern = StiffnessPattern::new(&grid);
        for idx in 0..grid.n_nodes() {
            assert_eq!(
                pattern.fixed_mask()[idx],
                grid.dirichlet_value(idx).is_some()
            );
        }
    }

    #[test]
    #[should_panic(expected = "one kappa per element")]
    fn refill_rejects_wrong_kappa_length() {
        let grid = StructuredGrid::new(4);
        let mut op = StiffnessOperator::new(Arc::new(StiffnessPattern::new(&grid)));
        op.refill(&[1.0; 3]);
    }
}
