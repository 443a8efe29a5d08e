//! Geometric multigrid on structured `(n+1) × (n+1)` node grids.
//!
//! A [`GmgHierarchy`] owns one sparse operator per mesh level (finest
//! first, each coarser level halving the element count per direction)
//! and applies a V-cycle with
//!
//! * full-weighting restriction — exactly `Pᵀ` of the bilinear
//!   prolongation, the FEM-consistent residual transfer for Q1
//!   stiffness matrices (whose entries are `h`-independent in 2-D);
//! * bilinear prolongation of coarse corrections;
//! * one red–black Gauss–Seidel sweep before and one after the coarse
//!   correction, the post-smooth the exact adjoint of the pre-smooth so
//!   the V-cycle stays symmetric — required because the cycle's one use
//!   is to precondition conjugate gradients;
//! * a dense Cholesky direct solve on the coarsest level.
//!
//! Node ordering matches `uq-fem`'s [`StructuredGrid`]: node `(i, j)` at
//! linear index `j·(n+1) + i` (x fastest). Dirichlet-eliminated rows are
//! communicated through a per-level `fixed` mask: residuals at fixed
//! nodes are zeroed before restriction, and coarse corrections at fixed
//! nodes vanish identically, so boundary values are never polluted.
//!
//! Matrix *values* may be refilled in place between solves (the FEM
//! layer re-discretizes each level for every new diffusion field `κ`);
//! call [`GmgHierarchy::refresh`] afterwards to recompute the cached
//! diagonals and the coarse factorization. Steady-state V-cycles
//! allocate nothing: all level scratch lives in an internal workspace
//! created on first use.
//!
//! [`StructuredGrid`]: https://docs.rs/uq-fem

use crate::dense::DenseMatrix;
use crate::solvers::Preconditioner;
use crate::sparse::CsrMatrix;
use parking_lot::Mutex;

/// One level of input to [`GmgHierarchy::new`]: the mesh size `n`
/// (elements per direction, so `(n+1)²` nodes), the assembled operator,
/// and the Dirichlet mask (`true` = fixed node, whose row must be an
/// eliminated identity row).
pub struct GmgLevelSpec {
    /// Elements per direction.
    pub n: usize,
    /// Assembled operator on this level, `(n+1)² × (n+1)²`.
    pub matrix: CsrMatrix,
    /// Per-node Dirichlet mask, length `(n+1)²`.
    pub fixed: Vec<bool>,
}

struct Level {
    n: usize,
    a: CsrMatrix,
    fixed: Vec<bool>,
    inv_diag: Vec<f64>,
    /// Position of each row's diagonal in `a.values()` (the pattern never
    /// changes, so `refresh` reads instead of searching).
    diag_pos: Vec<usize>,
}

/// Per-level scratch vectors; allocated on first V-cycle, reused after.
#[derive(Default)]
struct Work {
    x: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    r: Vec<Vec<f64>>,
    tmp: Vec<Vec<f64>>,
}

/// A geometric multigrid hierarchy, used as a CG preconditioner (one
/// V-cycle per [`Preconditioner::apply_into`] call).
pub struct GmgHierarchy {
    levels: Vec<Level>,
    /// Dense scratch for the coarsest operator, refilled by `refresh`.
    coarse_dense: DenseMatrix,
    /// Lower Cholesky factor of the coarsest operator.
    coarse_chol: DenseMatrix,
    work: Mutex<Work>,
}

impl GmgHierarchy {
    /// Build a hierarchy from per-level operators, finest first.
    ///
    /// # Panics
    /// Panics if fewer than two levels are given, if dimensions are
    /// inconsistent (`matrix` must be `(n+1)² × (n+1)²` and each coarser
    /// level must halve `n`), or if the coarsest operator is not SPD.
    pub fn new(specs: Vec<GmgLevelSpec>) -> Self {
        assert!(specs.len() >= 2, "GmgHierarchy: need at least two levels");
        for w in specs.windows(2) {
            assert_eq!(
                w[1].n * 2,
                w[0].n,
                "GmgHierarchy: each coarser level must halve n"
            );
        }
        let levels: Vec<Level> = specs
            .into_iter()
            .map(|s| {
                let nodes = (s.n + 1) * (s.n + 1);
                assert_eq!(s.matrix.rows(), nodes, "GmgHierarchy: matrix/grid mismatch");
                assert_eq!(
                    s.matrix.cols(),
                    nodes,
                    "GmgHierarchy: matrix must be square"
                );
                assert_eq!(s.fixed.len(), nodes, "GmgHierarchy: mask/grid mismatch");
                let diag_pos = (0..nodes)
                    .map(|i| s.matrix.entry_position(i, i))
                    .collect::<Option<_>>()
                    .expect("GmgHierarchy: every row needs a stored diagonal");
                Level {
                    n: s.n,
                    a: s.matrix,
                    fixed: s.fixed,
                    inv_diag: vec![0.0; nodes],
                    diag_pos,
                }
            })
            .collect();
        let coarse_nodes = levels.last().expect("at least two levels").a.rows();
        let mut h = Self {
            levels,
            coarse_dense: DenseMatrix::zeros(coarse_nodes, coarse_nodes),
            coarse_chol: DenseMatrix::zeros(coarse_nodes, coarse_nodes),
            work: Mutex::new(Work::default()),
        };
        h.refresh();
        h
    }

    /// Number of levels (≥ 2), finest first.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Mesh size `n` of level `l`.
    pub fn level_n(&self, l: usize) -> usize {
        self.levels[l].n
    }

    /// The operator on level `l`.
    pub fn matrix(&self, l: usize) -> &CsrMatrix {
        &self.levels[l].a
    }

    /// Mutable operator access for in-place value refills. After
    /// refilling any level, call [`refresh`](Self::refresh) before the
    /// next V-cycle.
    pub fn matrix_mut(&mut self, l: usize) -> &mut CsrMatrix {
        &mut self.levels[l].a
    }

    /// Recompute the cached reciprocal diagonals and refactor the
    /// coarsest level. Must be called after matrix values change. Runs
    /// entirely in preallocated storage (the per-MCMC-step path).
    ///
    /// # Panics
    /// Panics if a diagonal entry is zero or the coarsest operator is
    /// not SPD.
    pub fn refresh(&mut self) {
        for lev in &mut self.levels {
            let values = lev.a.values();
            for (i, (inv, &pos)) in lev.inv_diag.iter_mut().zip(&lev.diag_pos).enumerate() {
                let d = values[pos];
                assert!(d != 0.0, "GmgHierarchy: zero diagonal at row {i}");
                *inv = 1.0 / d;
            }
        }
        let coarse = self.levels.last().expect("at least two levels");
        let nodes = coarse.a.rows();
        for i in 0..nodes {
            for j in 0..nodes {
                self.coarse_dense[(i, j)] = 0.0;
            }
            let (cols, vals) = coarse.a.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                self.coarse_dense[(i, c)] = v;
            }
        }
        assert!(
            self.coarse_chol.cholesky_from(&self.coarse_dense),
            "GmgHierarchy: coarsest operator must be SPD"
        );
    }

    /// One V-cycle applied to `b` from a zero initial guess: `z ≈ A⁻¹ b`.
    /// This is the preconditioner action; it is symmetric positive
    /// definite.
    pub fn vcycle_into(&self, b: &[f64], z: &mut [f64]) {
        let nodes = self.levels[0].a.rows();
        assert_eq!(b.len(), nodes, "vcycle_into: rhs dimension mismatch");
        assert_eq!(z.len(), nodes, "vcycle_into: output dimension mismatch");
        let mut work = self.work.lock();
        self.ensure_work(&mut work);
        work.b[0].copy_from_slice(b);
        work.x[0].fill(0.0);
        self.vcycle_level(0, &mut work);
        z.copy_from_slice(&work.x[0]);
    }

    fn ensure_work(&self, work: &mut Work) {
        if work.x.len() == self.levels.len() {
            return;
        }
        work.x.clear();
        work.b.clear();
        work.r.clear();
        work.tmp.clear();
        for lev in &self.levels {
            let nodes = lev.a.rows();
            work.x.push(vec![0.0; nodes]);
            work.b.push(vec![0.0; nodes]);
            work.r.push(vec![0.0; nodes]);
            work.tmp.push(vec![0.0; nodes]);
        }
    }

    fn vcycle_level(&self, l: usize, work: &mut Work) {
        if l + 1 == self.levels.len() {
            // coarsest level: direct solve via the cached Cholesky factor
            self.coarse_chol
                .solve_cholesky_into(&work.b[l], &mut work.x[l]);
            return;
        }
        self.smooth(l, work, false);
        // residual, masked at Dirichlet nodes
        let lev = &self.levels[l];
        lev.a.matvec_into(&work.x[l], &mut work.tmp[l]);
        for i in 0..lev.a.rows() {
            work.r[l][i] = if lev.fixed[i] {
                0.0
            } else {
                work.b[l][i] - work.tmp[l][i]
            };
        }
        // restrict to the coarse rhs and recurse from a zero guess
        let next = &self.levels[l + 1];
        restrict_full_weighting(lev.n, &work.r[l], next.n, &mut work.b[l + 1], &next.fixed);
        work.x[l + 1].fill(0.0);
        self.vcycle_level(l + 1, work);
        // prolongate the coarse correction and post-smooth
        let (fine_x, coarse_x) = work.x.split_at_mut(l + 1);
        prolong_add_bilinear(next.n, &coarse_x[0], lev.n, &mut fine_x[l]);
        self.smooth(l, work, true);
    }

    /// One red–black Gauss–Seidel sweep (checkerboard colouring by node
    /// parity) on level `l`. The pre-smooth goes red→black in ascending
    /// node order; the post-smooth (`reverse`) goes black→red in
    /// descending node order, the exact adjoint sweep — needed because
    /// the 9-point Q1 stencil couples same-colour diagonal neighbours —
    /// which makes the V-cycle symmetric.
    fn smooth(&self, l: usize, work: &mut Work, reverse: bool) {
        let colors: [usize; 2] = if reverse { [1, 0] } else { [0, 1] };
        for color in colors {
            gauss_seidel_color(&self.levels[l], &work.b[l], &mut work.x[l], color, reverse);
        }
    }
}

impl Preconditioner for GmgHierarchy {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.vcycle_into(r, z);
    }
}

/// One Gauss–Seidel half-sweep over the nodes of checkerboard `color`
/// (`(i + j) mod 2`), updating in place. The Q1 9-point stencil couples
/// diagonal neighbours, which share a colour, so within-colour update
/// order matters: the adjoint sweep (`descending = true`, used for
/// post-smoothing) must visit nodes in reverse order for the V-cycle to
/// stay symmetric.
fn gauss_seidel_color(lev: &Level, b: &[f64], x: &mut [f64], color: usize, descending: bool) {
    let np = lev.n + 1;
    let update = |x: &mut [f64], idx: usize| {
        let (cols, vals) = lev.a.row(idx);
        let mut s = b[idx];
        for (&c, &v) in cols.iter().zip(vals) {
            if c != idx {
                s -= v * x[c];
            }
        }
        x[idx] = s * lev.inv_diag[idx];
    };
    if descending {
        for j in (0..np).rev() {
            let start = (color + j) % 2;
            for i in (start..np).step_by(2).rev() {
                update(x, j * np + i);
            }
        }
    } else {
        for j in 0..np {
            // nodes of the requested colour in row j: i ≡ color + j (mod 2)
            let start = (color + j) % 2;
            for i in (start..np).step_by(2) {
                update(x, j * np + i);
            }
        }
    }
}

/// Full-weighting restriction `b_c = Pᵀ r_f` on the node grid: coarse
/// node `(I, J)` sits at fine node `(2I, 2J)` and gathers its fine
/// neighbours with weights 1 (centre), 1/2 (edges), 1/4 (corners);
/// stencil points outside the grid are dropped. Fixed coarse nodes are
/// zeroed so Dirichlet rows receive no spurious coarse correction.
fn restrict_full_weighting(
    fine_n: usize,
    r_fine: &[f64],
    coarse_n: usize,
    b_coarse: &mut [f64],
    fixed_coarse: &[bool],
) {
    debug_assert_eq!(coarse_n * 2, fine_n);
    let fnp = fine_n + 1;
    let cnp = coarse_n + 1;
    for jc in 0..cnp {
        let jf = 2 * jc;
        for ic in 0..cnp {
            let idx_c = jc * cnp + ic;
            if fixed_coarse[idx_c] {
                b_coarse[idx_c] = 0.0;
                continue;
            }
            let i_f = 2 * ic;
            let mut s = r_fine[jf * fnp + i_f];
            // edge neighbours (weight 1/2)
            if i_f > 0 {
                s += 0.5 * r_fine[jf * fnp + i_f - 1];
            }
            if i_f < fine_n {
                s += 0.5 * r_fine[jf * fnp + i_f + 1];
            }
            if jf > 0 {
                s += 0.5 * r_fine[(jf - 1) * fnp + i_f];
            }
            if jf < fine_n {
                s += 0.5 * r_fine[(jf + 1) * fnp + i_f];
            }
            // corner neighbours (weight 1/4)
            if i_f > 0 && jf > 0 {
                s += 0.25 * r_fine[(jf - 1) * fnp + i_f - 1];
            }
            if i_f < fine_n && jf > 0 {
                s += 0.25 * r_fine[(jf - 1) * fnp + i_f + 1];
            }
            if i_f > 0 && jf < fine_n {
                s += 0.25 * r_fine[(jf + 1) * fnp + i_f - 1];
            }
            if i_f < fine_n && jf < fine_n {
                s += 0.25 * r_fine[(jf + 1) * fnp + i_f + 1];
            }
            b_coarse[idx_c] = s;
        }
    }
}

/// Bilinear prolongation: adds the interpolated coarse correction to the
/// fine iterate (`x_f += P x_c`). Fine nodes coinciding with coarse
/// nodes inject; edge midpoints average two parents; cell centres
/// average four.
fn prolong_add_bilinear(coarse_n: usize, x_coarse: &[f64], fine_n: usize, x_fine: &mut [f64]) {
    debug_assert_eq!(coarse_n * 2, fine_n);
    let fnp = fine_n + 1;
    let cnp = coarse_n + 1;
    for jf in 0..fnp {
        let jc = jf / 2;
        let j_odd = jf % 2 == 1;
        for i_f in 0..fnp {
            let ic = i_f / 2;
            let i_odd = i_f % 2 == 1;
            let corr = match (i_odd, j_odd) {
                (false, false) => x_coarse[jc * cnp + ic],
                (true, false) => 0.5 * (x_coarse[jc * cnp + ic] + x_coarse[jc * cnp + ic + 1]),
                (false, true) => 0.5 * (x_coarse[jc * cnp + ic] + x_coarse[(jc + 1) * cnp + ic]),
                (true, true) => {
                    0.25 * (x_coarse[jc * cnp + ic]
                        + x_coarse[jc * cnp + ic + 1]
                        + x_coarse[(jc + 1) * cnp + ic]
                        + x_coarse[(jc + 1) * cnp + ic + 1])
                }
            };
            x_fine[jf * fnp + i_f] += corr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{cg, SolverOptions};
    use crate::sparse::CooMatrix;

    /// Q1 Laplace operator on an `n × n` element grid with homogeneous
    /// Dirichlet conditions on the whole boundary, eliminated
    /// symmetrically (identity rows, dropped couplings). Interior nodes
    /// carry the classical 9-point stencil: 8/3 centre, −1/3 for all
    /// eight neighbours — exactly what `uq-fem`'s assembly produces for
    /// `κ ≡ 1`, so the coarse re-discretization matches the Galerkin
    /// operator and the cycle converges at textbook rates.
    fn q1_laplace_dirichlet(n: usize) -> (CsrMatrix, Vec<bool>) {
        let np = n + 1;
        let nodes = np * np;
        let fixed: Vec<bool> = (0..nodes)
            .map(|idx| {
                let (i, j) = (idx % np, idx / np);
                i == 0 || i == n || j == 0 || j == n
            })
            .collect();
        let mut coo = CooMatrix::new(nodes, nodes);
        for idx in 0..nodes {
            if fixed[idx] {
                coo.push(idx, idx, 1.0);
                continue;
            }
            let (i, j) = (idx % np, idx / np);
            coo.push(idx, idx, 8.0 / 3.0);
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    if di == 0 && dj == 0 {
                        continue;
                    }
                    let ni = (i as i64 + di) as usize;
                    let nj = (j as i64 + dj) as usize;
                    let nidx = nj * np + ni;
                    if !fixed[nidx] {
                        coo.push(idx, nidx, -1.0 / 3.0);
                    }
                }
            }
        }
        (coo.to_csr(), fixed)
    }

    fn hierarchy(fine_n: usize) -> GmgHierarchy {
        let mut specs = Vec::new();
        let mut n = fine_n;
        loop {
            let (matrix, fixed) = q1_laplace_dirichlet(n);
            specs.push(GmgLevelSpec { n, matrix, fixed });
            if !n.is_multiple_of(2) || n <= 4 {
                break;
            }
            n /= 2;
        }
        GmgHierarchy::new(specs)
    }

    fn interior_rhs(n: usize) -> Vec<f64> {
        let np = n + 1;
        (0..np * np)
            .map(|idx| {
                let (i, j) = (idx % np, idx / np);
                if i == 0 || i == n || j == 0 || j == n {
                    0.0
                } else {
                    ((i * 13 + j * 7) % 5) as f64 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn mg_preconditioned_cg_iterations_are_mesh_independent() {
        let mut iters = Vec::new();
        for n in [8usize, 16, 32] {
            let h = hierarchy(n);
            let b = interior_rhs(n);
            let r = cg(h.matrix(0), &b, None, &h, SolverOptions::default());
            assert!(r.converged);
            iters.push(r.iterations);
        }
        let (min, max) = (*iters.iter().min().unwrap(), *iters.iter().max().unwrap());
        assert!(
            max <= min + 2,
            "MG-CG iteration counts should be flat across meshes: {iters:?}"
        );
    }

    #[test]
    fn vcycle_is_symmetric() {
        // ⟨B e_i, e_j⟩ = ⟨e_i, B e_j⟩ for the V-cycle operator B — the
        // requirement for use inside CG. Checked on a sample of index
        // pairs.
        let h = hierarchy(8);
        let nodes = h.matrix(0).rows();
        let mut zi = vec![0.0; nodes];
        let mut zj = vec![0.0; nodes];
        for (i, j) in [(20usize, 40usize), (31, 55), (22, 23)] {
            let mut ei = vec![0.0; nodes];
            let mut ej = vec![0.0; nodes];
            ei[i] = 1.0;
            ej[j] = 1.0;
            h.vcycle_into(&ei, &mut zi);
            h.vcycle_into(&ej, &mut zj);
            let bij = zi[j];
            let bji = zj[i];
            assert!(
                (bij - bji).abs() < 1e-12 * bij.abs().max(1.0),
                "V-cycle not symmetric: B[{i},{j}] = {bij} vs B[{j},{i}] = {bji}"
            );
        }
    }

    #[test]
    fn fixed_nodes_keep_zero_correction() {
        let h = hierarchy(8);
        let b = interior_rhs(8);
        let mut z = vec![0.0; b.len()];
        h.vcycle_into(&b, &mut z);
        let np = 9;
        for idx in 0..b.len() {
            let (i, j) = (idx % np, idx / np);
            if i == 0 || i == 8 || j == 0 || j == 8 {
                // identity row with zero rhs: the cycle must return 0 exactly
                assert_eq!(z[idx], 0.0, "boundary node {idx} picked up correction");
            }
        }
    }

    #[test]
    fn refill_and_refresh_track_value_changes() {
        let mut h = hierarchy(8);
        let b = interior_rhs(8);
        let before = cg(h.matrix(0), &b, None, &h, SolverOptions::default());
        assert!(before.converged);
        // scale every level by 2: the solution must exactly halve
        for l in 0..h.n_levels() {
            for v in h.matrix_mut(l).values_mut() {
                *v *= 2.0;
            }
        }
        h.refresh();
        let after = cg(h.matrix(0), &b, None, &h, SolverOptions::default());
        assert!(after.converged);
        for (xa, xb) in after.x.iter().zip(&before.x) {
            assert!((2.0 * xa - xb).abs() < 1e-7, "scaled solve mismatch");
        }
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn single_level_hierarchy_panics() {
        let (matrix, fixed) = q1_laplace_dirichlet(4);
        GmgHierarchy::new(vec![GmgLevelSpec {
            n: 4,
            matrix,
            fixed,
        }]);
    }
}
