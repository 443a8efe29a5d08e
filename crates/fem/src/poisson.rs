//! The Poisson forward model `F: θ ↦ u(x_obs)`.
//!
//! Maps KL coefficients to the PDE solution evaluated at observation
//! points, exactly the paper's Section 3.1 setup: the log-diffusion field
//! is `log κ = Σ_k √λ_k φ_k θ_k` (correlation length 0.15, variance 1,
//! `m = 113`), discretized with Q1 elements on a structured grid.
//!
//! ## Solver pipeline
//!
//! The model is built for the MCMC hot loop: everything `θ`-independent
//! is constructed once and reused across chain steps, so a steady-state
//! forward evaluation performs **no heap allocation** besides the small
//! observation vector [`PoissonModel::forward`] returns (the likelihood
//! reads it from a model-owned buffer instead):
//!
//! 1. `log κ` is evaluated on the element centres into a reusable
//!    buffer, by sum factorisation over the KL field's 1-D tables
//!    ([`KlTensorGrid`]) or, where that costs at most
//!    [`DENSE_KAPPA_MAX_MADDS`], as the row sum over a tabulated basis,
//!    then exponentiated in place;
//! 2. a [`StiffnessPattern`] per mesh level, shared by every model of
//!    that mesh in a [`PoissonHierarchy`](crate::PoissonHierarchy),
//!    refills CSR values and rhs in place (no COO rebuild, no sort);
//! 3. the system is solved **directly** by a band LDLᵀ
//!    ([`BandedSolver`]) where that is cheap — every mesh whose
//!    factorisation costs at most [`DIRECT_MAX_MADDS`] multiply-adds
//!    (`n ≤ 33`; of the meshes used here, `n ≤ 32`), and every mesh that
//!    cannot be coarsened — and
//!    otherwise by conjugate gradients preconditioned with a geometric
//!    multigrid V-cycle whose coarse operators are re-discretizations
//!    on the coarsened `κ` (cached and refilled the same way);
//! 4. on the multigrid path the previous solution warm-starts the next
//!    solve and all Krylov scratch lives in a persistent
//!    [`SolverWorkspace`]; a direct solve keeps nothing, so there
//!    `forward(θ)` is a pure function of `θ`.
//!
//! A stalled solve or failed factorisation **panics in every profile** —
//! a silently wrong forward model would corrupt the posterior, which is
//! strictly worse than crashing the chain. Per-solve iteration/residual
//! statistics are recorded for the paper's cost tables.

use crate::grid::{Stencil, StructuredGrid};
use crate::operator::{StiffnessOperator, StiffnessPattern};
use std::collections::BTreeMap;
use std::sync::Arc;
use uq_linalg::banded::BandedSolver;
use uq_linalg::dense::DenseMatrix;
use uq_linalg::mg::{GmgHierarchy, GmgLevelSpec};
use uq_linalg::solvers::{cg_into, SolveStats, SolverOptions, SolverWorkspace};
use uq_randfield::{KlField2d, KlTensorGrid};

/// The paper's 36 observation points `{2/32, 7/32, 13/32, 19/32, 25/32,
/// 3/32}²` (used verbatim, including the likely-typo `3/32`).
pub fn paper_observation_points() -> Vec<(f64, f64)> {
    let coords = [
        2.0 / 32.0,
        7.0 / 32.0,
        13.0 / 32.0,
        19.0 / 32.0,
        25.0 / 32.0,
        3.0 / 32.0,
    ];
    let mut pts = Vec::with_capacity(36);
    for &x in &coords {
        for &y in &coords {
            pts.push((x, y));
        }
    }
    pts
}

/// QOI evaluation grid of width 1/32 (33×33 points) from the paper:
/// `Q(θ)_k = κ(x_k, θ)`.
pub fn paper_qoi_points() -> Vec<(f64, f64)> {
    let axis = qoi_axis();
    axis.iter()
        .flat_map(|&y| axis.iter().map(move |&x| (x, y)))
        .collect()
}

/// The QOI grid's coordinates along one axis, `i / 32`.
fn qoi_axis() -> Vec<f64> {
    (0..33).map(|i| i as f64 / 32.0).collect()
}

/// Average the four fine child elements of each coarse element
/// (arithmetic mean — adequate for building coarse *preconditioner*
/// operators; the fine operator is always the exact one).
pub fn coarsen_kappa(fine_n: usize, fine: &[f64], coarse: &mut [f64]) {
    let nc = fine_n / 2;
    debug_assert_eq!(fine.len(), fine_n * fine_n);
    debug_assert_eq!(coarse.len(), nc * nc);
    for ey in 0..nc {
        for ex in 0..nc {
            let (fx, fy) = (2 * ex, 2 * ey);
            coarse[ey * nc + ex] = 0.25
                * (fine[fy * fine_n + fx]
                    + fine[fy * fine_n + fx + 1]
                    + fine[(fy + 1) * fine_n + fx]
                    + fine[(fy + 1) * fine_n + fx + 1]);
        }
    }
}

/// Mesh sizes of the multigrid hierarchy built on an `n × n` grid:
/// `n, n/2, …` down to the first odd or `≤ 4` size. A hierarchy exists
/// (and [`PoissonModel`] uses multigrid) only when this has at least two
/// entries.
pub fn mg_level_sizes(fine_n: usize) -> Vec<usize> {
    let mut sizes = vec![fine_n];
    loop {
        let n = *sizes.last().expect("non-empty");
        if n.is_multiple_of(2) && n > 4 {
            sizes.push(n / 2);
        } else {
            break;
        }
    }
    sizes
}

/// Level specs (values filled for `κ ≡ 1`) of the multigrid levels
/// `patterns`, finest first — the single construction path shared by
/// the model, the benches and the regression tests.
fn mg_specs(patterns: &[Arc<StiffnessPattern>], level_sizes: &[usize]) -> Vec<GmgLevelSpec> {
    patterns
        .iter()
        .zip(level_sizes)
        .map(|(pattern, &n)| GmgLevelSpec {
            n,
            matrix: pattern.build_matrix(),
            fixed: pattern.fixed_mask().to_vec(),
        })
        .collect()
}

/// A fresh pattern of the `n × n` mesh.
fn pattern_of(n: usize) -> Arc<StiffnessPattern> {
    Arc::new(StiffnessPattern::new(&StructuredGrid::new(n)))
}

/// Build exactly the multigrid hierarchy [`PoissonModel`] solves with
/// (same level sizes, same symbolic patterns, same 2×2-averaged coarse
/// `κ`), refilled for the given fine-level coefficients. Returns `None`
/// when the mesh cannot be coarsened (odd or `n ≤ 4`). Benches and
/// regression tests use this so they measure the production hierarchy
/// rather than a reimplementation.
pub fn build_mg_hierarchy(fine_n: usize, kappa: &[f64]) -> Option<GmgHierarchy> {
    let sizes = mg_level_sizes(fine_n);
    if sizes.len() < 2 {
        return None;
    }
    assert_eq!(
        kappa.len(),
        fine_n * fine_n,
        "build_mg_hierarchy: one kappa per fine element required"
    );
    let patterns: Vec<_> = sizes.iter().map(|&n| pattern_of(n)).collect();
    let mut specs = mg_specs(&patterns, &sizes);
    let mut current = kappa.to_vec();
    for (l, (pattern, spec)) in patterns.iter().zip(&mut specs).enumerate() {
        if l > 0 {
            let mut coarse = vec![0.0; sizes[l] * sizes[l]];
            coarsen_kappa(sizes[l - 1], &current, &mut coarse);
            current = coarse;
        }
        pattern.refill_values(&current, spec.matrix.values_mut());
    }
    Some(GmgHierarchy::new(specs))
}

/// Largest band factorisation, in multiply-adds (`free · bw² / 2`), that
/// [`PoissonModel`] solves directly rather than by MG-CG. A forward
/// evaluation measured 4× faster direct at `n = 16` (33 k), 1.7× at
/// `n = 24` (166 k), 0.73–0.81× of MG-CG's time at `n = 32` (524 k) and
/// 1.8× slower at `n = 64` (8.4 M); DESIGN §1.1 has the table. The bound
/// sits just past `n = 32`, the largest mesh measured faster direct.
pub const DIRECT_MAX_MADDS: usize = 600_000;

/// Multiply-adds of the band factorisation on `grid`: `(n − 1)(n + 1)`
/// free nodes, whose couplings span one grid row of them plus one (`n`).
fn band_factor_madds(grid: &StructuredGrid) -> usize {
    let n = grid.n();
    (n - 1) * (n + 1) * n * n / 2
}

/// The meshes the solver of an `n × n` model assembles on, finest
/// first: `[n]` for a band solve (within [`DIRECT_MAX_MADDS`], or a mesh
/// that cannot be coarsened), the multigrid levels otherwise.
fn solver_mesh_sizes(n: usize) -> Vec<usize> {
    let sizes = mg_level_sizes(n);
    if sizes.len() < 2 || band_factor_madds(&StructuredGrid::new(n)) <= DIRECT_MAX_MADDS {
        vec![n]
    } else {
        sizes
    }
}

/// Reusable solve machinery, constructed once per model.
enum SolverBackend {
    /// Geometric multigrid V(1,1)-preconditioned CG, warm-started; needs
    /// an even `n ≥ 8` so at least one coarser level exists.
    Multigrid {
        gmg: GmgHierarchy,
        /// Symbolic assembly patterns per level, finest first.
        patterns: Vec<Arc<StiffnessPattern>>,
        /// Elements per direction per level, finest first.
        level_n: Vec<usize>,
        /// Coarsened-κ buffers for levels `1..` (level `l` at `l − 1`).
        coarse_kappa: Vec<Vec<f64>>,
    },
    /// Band LDLᵀ of the free unknowns: meshes within
    /// [`DIRECT_MAX_MADDS`] and meshes that cannot be coarsened.
    Direct {
        op: Box<StiffnessOperator>,
        band: BandedSolver,
    },
}

impl SolverBackend {
    /// The backend on the meshes of [`solver_mesh_sizes`], one pattern
    /// each: a band solve on one, MG-CG on more.
    fn build(patterns: &[Arc<StiffnessPattern>], level_n: Vec<usize>) -> Self {
        if let [pattern] = patterns {
            let op = Box::new(StiffnessOperator::new(Arc::clone(pattern)));
            let band = BandedSolver::new(op.matrix(), op.pattern().fixed_mask());
            return Self::Direct { op, band };
        }
        let gmg = GmgHierarchy::new(mg_specs(patterns, &level_n));
        let coarse_kappa = level_n[1..].iter().map(|&n| vec![0.0; n * n]).collect();
        Self::Multigrid {
            gmg,
            patterns: patterns.to_vec(),
            level_n,
            coarse_kappa,
        }
    }

    /// Human-readable name for logs and cost tables.
    fn name(&self) -> &'static str {
        match self {
            Self::Multigrid { .. } => "mg-cg",
            Self::Direct { .. } => "direct",
        }
    }
}

/// Largest row sum `log κ = Σ_k θ_k √λ_k φ_k` over the element centres,
/// in multiply-adds (`m · n²`), that [`PoissonModel`] evaluates as that
/// sum over a basis tabulated at every centre rather than by sum
/// factorisation ([`KlTensorGrid`]). Below it the factorisation's short
/// loops cost more than the products they save: best of 15, x86-64, the
/// tensor form took 3.2× the row sum's time at 128 (`m = 8, n = 4`),
/// 2.0× at 512, 1.4× at 1 536 and 2 048, and 0.78× at 6 144 (`m = 24,
/// n = 16`), 0.73× at 7 232 (`m = 113, n = 8`), 0.10× at 462 848
/// (`m = 113, n = 64`). The bound sits between 2 048 and 6 144. The QOI
/// grid always takes the tensor form.
pub const DENSE_KAPPA_MAX_MADDS: usize = 4_096;

/// The KL field on a grid of points, as a model evaluates it: on the
/// element centres in the form [`DENSE_KAPPA_MAX_MADDS`] picks, on the
/// QOI grid always by sum factorisation.
enum FieldOnGrid {
    /// The λ-scaled basis at every point, stored transposed (`m ×
    /// points`, row `k` is mode `k`), summed by
    /// [`DenseMatrix::matvec_t_into`]: the row sum
    /// [`KlField2d::log_kappa`], to the bit.
    RowSum(DenseMatrix),
    /// Sum factorisation over the field's 1-D tables.
    Tensor(KlTensorGrid),
}

impl FieldOnGrid {
    /// The field on the centres of the `n × n` mesh's elements, in
    /// element order.
    fn on_elements(field: &KlField2d, n: usize) -> Self {
        let axis = StructuredGrid::new(n).element_axis();
        if field.dim() * n * n > DENSE_KAPPA_MAX_MADDS {
            return Self::Tensor(field.tensor_grid(&axis, &axis));
        }
        Self::RowSum(DenseMatrix::from_fn(field.dim(), n * n, |k, e| {
            field.basis(k, axis[e % n], axis[e / n])
        }))
    }

    /// The field on the QOI grid, in [`paper_qoi_points`] order.
    fn on_qoi_grid(field: &KlField2d) -> Self {
        let axis = qoi_axis();
        Self::Tensor(field.tensor_grid(&axis, &axis))
    }

    fn dim(&self) -> usize {
        match self {
            Self::RowSum(phi) => phi.rows(),
            Self::Tensor(tables) => tables.dim(),
        }
    }

    fn n_points(&self) -> usize {
        match self {
            Self::RowSum(phi) => phi.cols(),
            Self::Tensor(tables) => tables.n_points(),
        }
    }

    fn scratch_len(&self) -> usize {
        match self {
            Self::RowSum(_) => 0,
            Self::Tensor(tables) => tables.scratch_len(),
        }
    }

    /// `out = κ = exp(log κ)` at every point, allocation-free.
    fn kappa_into(&self, theta: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        match self {
            Self::RowSum(phi) => phi.matvec_t_into(theta, out),
            Self::Tensor(tables) => tables.log_kappa_into(theta, scratch, out),
        }
        for k in out {
            *k = k.exp();
        }
    }

    /// `κ` at every point, in a fresh vector.
    fn kappa(&self, theta: &[f64]) -> Vec<f64> {
        let mut kappa = vec![0.0; self.n_points()];
        self.kappa_into(theta, &mut vec![0.0; self.scratch_len()], &mut kappa);
        kappa
    }
}

/// Everything θ-independent that the models of one `n × n` mesh and
/// one KL field share: the field on the element centres and its tables
/// on the QOI grid, and one pattern per mesh the solver assembles on.
pub(crate) struct MeshParts {
    n: usize,
    kl_elements: Arc<FieldOnGrid>,
    kl_qoi: Arc<FieldOnGrid>,
    /// Finest first, one per entry of [`solver_mesh_sizes`]`(n)`.
    patterns: Vec<Arc<StiffnessPattern>>,
}

impl MeshParts {
    /// The parts of a model on each mesh of `sizes` under `field`. Each
    /// distinct mesh's pattern and table set is built once and handed
    /// out by `Arc`, so a band-solved level and a multigrid coarse level
    /// of the same `n` share one pattern, and every level shares the QOI
    /// tables.
    pub(crate) fn build(field: &KlField2d, sizes: &[usize]) -> Vec<Self> {
        let kl_qoi = Arc::new(FieldOnGrid::on_qoi_grid(field));
        let mut tables = BTreeMap::new();
        let mut patterns = BTreeMap::new();
        sizes
            .iter()
            .map(|&n| {
                let kl_elements = tables
                    .entry(n)
                    .or_insert_with(|| Arc::new(FieldOnGrid::on_elements(field, n)));
                Self {
                    n,
                    kl_elements: Arc::clone(kl_elements),
                    kl_qoi: Arc::clone(&kl_qoi),
                    patterns: solver_mesh_sizes(n)
                        .into_iter()
                        .map(|s| Arc::clone(patterns.entry(s).or_insert_with(|| pattern_of(s))))
                        .collect(),
                }
            })
            .collect()
    }

    /// The QOI `κ(x_k, θ)` on the QOI grid, from the field alone.
    pub(crate) fn qoi(&self, theta: &[f64]) -> Vec<f64> {
        self.kl_qoi.kappa(theta)
    }
}

/// One level of the Poisson forward-model hierarchy.
pub struct PoissonModel {
    grid: StructuredGrid,
    /// The KL field on the element centres: `κ = exp(log κ)`.
    kl_elements: Arc<FieldOnGrid>,
    /// The KL field on the QOI grid: `Q(θ) = exp(log κ)`.
    kl_qoi: Arc<FieldOnGrid>,
    /// Scratch of either table set's `log κ` evaluation.
    kl_scratch: Vec<f64>,
    obs_points: Vec<(f64, f64)>,
    /// Interpolation stencil of every observation point, built once.
    obs_stencils: Vec<Stencil>,
    opts: SolverOptions,
    backend: SolverBackend,
    /// Fine-level rhs buffer (multigrid path).
    rhs: Vec<f64>,
    /// Fine-level κ buffer, refilled per solve.
    kappa: Vec<f64>,
    /// Current solution; on the multigrid path it doubles as the warm
    /// start for the next solve.
    solution: Vec<f64>,
    /// The current solution at the observation points.
    prediction: Vec<f64>,
    workspace: SolverWorkspace,
    /// Count of forward solves (cost bookkeeping for the tables).
    evaluations: usize,
    last_stats: Option<SolveStats>,
    total_cg_iterations: usize,
}

impl PoissonModel {
    /// Build a model on an `n × n` grid with the given KL field.
    pub fn new(n: usize, field: &KlField2d) -> Self {
        Self::from_parts(&MeshParts::build(field, &[n])[0])
    }

    /// Build a model from parts shared with the other models of its mesh
    /// (the chains and workers of a hierarchy): only the solver's own
    /// matrices, factorisation and scratch are new.
    pub(crate) fn from_parts(parts: &MeshParts) -> Self {
        let grid = StructuredGrid::new(parts.n);
        let level_n = solver_mesh_sizes(parts.n);
        let backend = SolverBackend::build(&parts.patterns, level_n);
        let n_nodes = grid.n_nodes();
        let n_elements = grid.n_elements();
        let obs_points = paper_observation_points();
        let scratch_len = parts.kl_elements.scratch_len();
        Self {
            kl_scratch: vec![0.0; scratch_len.max(parts.kl_qoi.scratch_len())],
            kl_elements: Arc::clone(&parts.kl_elements),
            kl_qoi: Arc::clone(&parts.kl_qoi),
            prediction: vec![0.0; obs_points.len()],
            obs_stencils: obs_points
                .iter()
                .map(|&(x, y)| grid.stencil(x, y))
                .collect(),
            grid,
            obs_points,
            opts: SolverOptions {
                rel_tol: 1e-8,
                ..Default::default()
            },
            backend,
            rhs: vec![0.0; n_nodes],
            kappa: vec![0.0; n_elements],
            solution: vec![0.0; n_nodes],
            workspace: SolverWorkspace::new(),
            evaluations: 0,
            last_stats: None,
            total_cg_iterations: 0,
        }
    }

    /// Parameter dimension `m`.
    pub fn dim(&self) -> usize {
        self.kl_elements.dim()
    }

    pub fn grid(&self) -> &StructuredGrid {
        &self.grid
    }

    pub fn observation_points(&self) -> &[(f64, f64)] {
        &self.obs_points
    }

    /// Forward solves performed so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// CG iterations of the most recent solve (`0` before any solve and
    /// after a direct one).
    pub fn last_iterations(&self) -> usize {
        self.last_stats.map_or(0, |s| s.iterations)
    }

    /// Final residual of the most recent solve (`0.0` before any solve;
    /// a direct solve does not measure one and reports `0.0`).
    pub fn last_residual(&self) -> f64 {
        self.last_stats.map_or(0.0, |s| s.residual)
    }

    /// Total CG iterations across all solves — the `t_l`-style cost
    /// counter the paper's tables aggregate per level.
    pub fn total_cg_iterations(&self) -> usize {
        self.total_cg_iterations
    }

    /// Which solve backend this model uses (`"mg-cg"` or `"direct"`).
    pub fn solver_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Element-wise diffusion coefficients `κ = exp(log κ)`, in element
    /// order — the values a solve assembles with.
    pub fn kappa_elements(&self, theta: &[f64]) -> Vec<f64> {
        self.kl_elements.kappa(theta)
    }

    /// Refill the per-level operators and solve; the solution lands in
    /// `self.solution`.
    ///
    /// # Panics
    /// Panics if CG stalls or the band factorisation meets a bad pivot:
    /// a wrong forward solve would silently poison the posterior, so it
    /// is fatal in every build profile.
    fn solve_in_place(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), self.dim(), "PoissonModel::solve: wrong dim");
        self.kl_elements
            .kappa_into(theta, &mut self.kl_scratch, &mut self.kappa);
        let outcome = match &mut self.backend {
            SolverBackend::Multigrid {
                gmg,
                patterns,
                level_n,
                coarse_kappa,
            } => {
                patterns[0].refill_values(&self.kappa, gmg.matrix_mut(0).values_mut());
                patterns[0].refill_rhs(&self.kappa, &mut self.rhs);
                for l in 1..level_n.len() {
                    let (done, rest) = coarse_kappa.split_at_mut(l - 1);
                    let src: &[f64] = if l == 1 { &self.kappa } else { &done[l - 2] };
                    coarsen_kappa(level_n[l - 1], src, &mut rest[0]);
                    patterns[l].refill_values(&rest[0], gmg.matrix_mut(l).values_mut());
                }
                gmg.refresh();
                let stats = cg_into(
                    gmg.matrix(0),
                    &self.rhs,
                    &mut self.solution,
                    &*gmg,
                    self.opts,
                    &mut self.workspace,
                );
                stats.converged.then_some(stats).ok_or_else(|| {
                    format!(
                        "CG stalled after {} iterations at residual {:.3e}",
                        stats.iterations, stats.residual
                    )
                })
            }
            SolverBackend::Direct { op, band } => {
                op.refill(&self.kappa);
                band.solve_into(op.matrix(), op.rhs(), &mut self.solution)
                    .map(|()| SolveStats {
                        iterations: 0,
                        residual: 0.0,
                        converged: true,
                    })
                    .map_err(|e| format!("band factorisation failed: {e:?}"))
            }
        };
        let stats = outcome.unwrap_or_else(|why| {
            panic!(
                "PoissonModel::solve ({}): {why} (n = {}) — aborting rather than \
                 corrupting the posterior",
                self.backend.name(),
                self.grid.n(),
            )
        });
        self.evaluations += 1;
        self.total_cg_iterations += stats.iterations;
        self.last_stats = Some(stats);
    }

    /// Solve the PDE for parameters `theta`, returning the nodal solution.
    pub fn solve(&mut self, theta: &[f64]) -> Vec<f64> {
        self.solve_in_place(theta);
        self.solution.clone()
    }

    /// Forward map: PDE solution at the observation points.
    pub fn forward(&mut self, theta: &[f64]) -> Vec<f64> {
        self.forward_in_place(theta).to_vec()
    }

    /// [`forward`](Self::forward) into the model-owned buffer — the
    /// likelihood's form, which allocates nothing.
    pub fn forward_in_place(&mut self, theta: &[f64]) -> &[f64] {
        self.solve_in_place(theta);
        for (p, stencil) in self.prediction.iter_mut().zip(&self.obs_stencils) {
            *p = stencil.eval(&self.solution);
        }
        &self.prediction
    }

    /// The paper's QOI: the diffusion field `κ(x_k, θ)` on the 33×33 QOI
    /// grid. Does not require a PDE solve; allocates only the vector it
    /// returns.
    pub fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        let mut q = vec![0.0; self.kl_qoi.n_points()];
        self.kl_qoi.kappa_into(theta, &mut self.kl_scratch, &mut q);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble;
    use uq_linalg::solvers::{cg, IdentityPrecond};

    fn small_field() -> KlField2d {
        KlField2d::new(0.15, 1.0, 16)
    }

    /// A deterministic 16-dimensional parameter of the given amplitude.
    fn theta_at(scale: f64, phase: f64) -> Vec<f64> {
        (0..16)
            .map(|i| scale * (i as f64 * 1.3 + phase).sin())
            .collect()
    }

    /// From-scratch reference: `assemble` + unpreconditioned CG to 1e-12.
    fn reference_solution(model: &PoissonModel, theta: &[f64]) -> Vec<f64> {
        let sys = assemble(model.grid(), &model.kappa_elements(theta));
        let opts = SolverOptions {
            rel_tol: 1e-12,
            ..Default::default()
        };
        let reference = cg(&sys.matrix, &sys.rhs, None, &IdentityPrecond, opts);
        assert!(reference.converged);
        reference.x
    }

    #[test]
    fn observation_points_count() {
        assert_eq!(paper_observation_points().len(), 36);
        assert_eq!(paper_qoi_points().len(), 1089);
    }

    #[test]
    fn zero_theta_gives_linear_solution() {
        // θ = 0 ⇒ κ ≡ 1 ⇒ u = x
        let field = small_field();
        let mut model = PoissonModel::new(16, &field);
        let obs = model.forward(&[0.0; 16]);
        for (o, &(x, _)) in obs.iter().zip(model.observation_points()) {
            assert!((o - x).abs() < 1e-6, "obs {o} vs x {x}");
        }
    }

    #[test]
    fn qoi_at_zero_theta_is_one() {
        let field = small_field();
        let mut model = PoissonModel::new(16, &field);
        for q in model.qoi(&[0.0; 16]) {
            assert!((q - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_is_deterministic_and_counts_evals() {
        let field = small_field();
        let mut model = PoissonModel::new(16, &field);
        let theta: Vec<f64> = (0..16).map(|i| 0.2 * ((i % 5) as f64 - 2.0)).collect();
        let a = model.forward(&theta);
        let b = model.forward(&theta);
        assert_eq!(model.evaluations(), 2);
        assert!(uq_linalg::vector::max_abs_diff(&a, &b) < 1e-7);
    }

    #[test]
    fn mesh_refinement_converges() {
        // same θ on h = 1/8, 1/16, 1/32: successive differences shrink
        let field = small_field();
        let theta: Vec<f64> = (0..16).map(|i| 0.3 * ((i as f64 * 1.7).sin())).collect();
        let mut coarse = PoissonModel::new(8, &field);
        let mut mid = PoissonModel::new(16, &field);
        let mut fine = PoissonModel::new(32, &field);
        let oc = coarse.forward(&theta);
        let om = mid.forward(&theta);
        let of = fine.forward(&theta);
        let d1 = uq_linalg::vector::max_abs_diff(&oc, &om);
        let d2 = uq_linalg::vector::max_abs_diff(&om, &of);
        assert!(
            d2 < d1,
            "refinement should contract: |F8-F16| = {d1}, |F16-F32| = {d2}"
        );
    }

    #[test]
    fn kappa_elements_positive() {
        let field = small_field();
        let model = PoissonModel::new(8, &field);
        let theta: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) * 0.4).collect();
        for k in model.kappa_elements(&theta) {
            assert!(k > 0.0);
        }
    }

    #[test]
    fn backend_selection_by_mesh_size() {
        let field = small_field();
        for n in [4, 7, 8, 16, 32] {
            assert_eq!(PoissonModel::new(n, &field).solver_name(), "direct");
        }
        assert_eq!(PoissonModel::new(64, &field).solver_name(), "mg-cg");
    }

    #[test]
    fn selection_rule_prices_the_band_the_solver_builds() {
        // the rule reads the grid; the solver reads the pattern: they
        // must agree on what a factorisation costs
        for n in [1, 4, 7, 8, 16, 32] {
            let grid = StructuredGrid::new(n);
            let op = StiffnessOperator::new(pattern_of(n));
            let band = BandedSolver::new(op.matrix(), op.pattern().fixed_mask());
            assert_eq!(band.n_free(), (n - 1) * (n + 1));
            let bw = band.half_bandwidth();
            assert_eq!(band.n_free() * bw * bw / 2, band_factor_madds(&grid), "{n}");
        }
        assert_eq!(band_factor_madds(&StructuredGrid::new(16)), 32_640);
        assert_eq!(band_factor_madds(&StructuredGrid::new(32)), 523_776);
    }

    #[test]
    fn mg_solution_matches_direct_solve() {
        // the full pipeline (refill + MG-CG) against a from-scratch
        // assemble + plain CG, on a non-trivial κ
        let field = small_field();
        let mut model = PoissonModel::new(64, &field);
        assert_eq!(model.solver_name(), "mg-cg");
        let theta: Vec<f64> = (0..16).map(|i| 0.4 * ((i as f64 * 2.3).cos())).collect();
        let u = model.solve(&theta);
        assert!(
            uq_linalg::vector::max_abs_diff(&u, &reference_solution(&model, &theta)) < 1e-6,
            "pipeline and direct solve disagree"
        );
    }

    #[test]
    fn direct_solution_matches_assembled_cg() {
        // the whole direct pipeline (refill + scatter + band LDLᵀ) against
        // a from-scratch assemble + plain CG, across mesh sizes (7: the
        // odd mesh no hierarchy exists for) and κ contrasts (θ scale 2.5 ⇒
        // κ spans several decades), re-solving through one model so a
        // stale band entry would show
        let field = small_field();
        for n in [4, 7, 8, 16, 32] {
            let mut model = PoissonModel::new(n, &field);
            assert_eq!(model.solver_name(), "direct");
            for scale in [0.3, 1.0, 2.5] {
                let theta = theta_at(scale, n as f64);
                let u = model.solve(&theta);
                let err = uq_linalg::vector::max_abs_diff(&u, &reference_solution(&model, &theta));
                assert!(err <= 1e-9, "n = {n}, scale {scale}: {err:e}");
            }
        }
    }

    #[test]
    fn direct_forward_is_a_pure_function_of_theta() {
        // a band solve keeps nothing between solves: forward(θ₁) after an
        // arbitrary forward(θ₀) is, to the bit, forward(θ₁) on a fresh
        // model. n = 64 is NOT pure, by design: MG-CG warm-starts from the
        // previous solution, so its result moves at the 1e-8 level with
        // the chain's history.
        let field = small_field();
        let (theta0, theta1) = (theta_at(2.5, 0.4), theta_at(1.0, 2.0));
        for n in [8, 16, 32] {
            let mut used = PoissonModel::new(n, &field);
            used.forward(&theta0);
            let after = used.forward(&theta1);
            let fresh = PoissonModel::new(n, &field).forward(&theta1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after), bits(&fresh), "n = {n}");
        }
    }

    #[test]
    fn solve_records_iteration_stats() {
        let field = small_field();
        let mut model = PoissonModel::new(64, &field);
        assert_eq!(model.last_iterations(), 0);
        model.forward(&[0.1; 16]);
        assert!(model.last_iterations() > 0);
        assert!(model.last_residual() >= 0.0);
        assert_eq!(model.total_cg_iterations(), model.last_iterations());
        let first = model.total_cg_iterations();
        model.forward(&[0.0; 16]);
        assert!(model.total_cg_iterations() >= first);
        // a direct solve iterates zero times and still counts as a solve
        let mut direct = PoissonModel::new(16, &field);
        direct.forward(&[0.1; 16]);
        assert_eq!(direct.evaluations(), 1);
        assert_eq!(direct.last_iterations(), 0);
        assert_eq!(direct.total_cg_iterations(), 0);
        assert_eq!(direct.last_residual(), 0.0);
    }

    #[test]
    #[should_panic(expected = "CG stalled")]
    fn stalled_solve_panics_in_all_profiles() {
        let field = small_field();
        let mut model = PoissonModel::new(64, &field);
        model.opts = SolverOptions {
            rel_tol: 1e-14,
            abs_tol: 1e-300,
            max_iter: 1,
        };
        model.forward(&[0.3; 16]);
    }

    #[test]
    #[should_panic(expected = "band factorisation failed")]
    fn failed_factorisation_panics_in_all_profiles() {
        // κ = exp(NaN): the first pivot is not a positive finite number
        let mut model = PoissonModel::new(16, &small_field());
        model.forward(&[f64::NAN; 16]);
    }

    #[test]
    fn build_mg_hierarchy_matches_model_solve() {
        // the public hierarchy builder must reproduce the model's
        // internal solve exactly: same fine operator, same coarse
        // operators, hence the same CG iteration count from a cold start
        let field = small_field();
        let mut model = PoissonModel::new(64, &field);
        let theta: Vec<f64> = (0..16).map(|i| 0.3 * ((i as f64 * 1.1).sin())).collect();
        model.forward(&theta); // first solve: cold start from zeros
        let kappa = model.kappa_elements(&theta);
        let h = build_mg_hierarchy(64, &kappa).expect("n = 64 supports MG");
        let sys = assemble(model.grid(), &kappa);
        assert_eq!(h.matrix(0).values(), sys.matrix.values());
        let r = cg(
            h.matrix(0),
            &sys.rhs,
            None,
            &h,
            SolverOptions {
                rel_tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(r.converged);
        assert_eq!(
            r.iterations,
            model.last_iterations(),
            "helper hierarchy diverged from the model's"
        );
    }

    /// The address of each pattern `model`'s solver assembles on.
    fn patterns_of(model: &PoissonModel) -> Vec<*const StiffnessPattern> {
        match &model.backend {
            SolverBackend::Direct { op, .. } => vec![op.pattern() as *const _],
            SolverBackend::Multigrid { patterns, .. } => patterns.iter().map(Arc::as_ptr).collect(),
        }
    }

    #[test]
    fn a_hierarchy_shares_each_mesh_and_moves_no_bit() {
        // n = 8 evaluates the row sum, n = 32 and 64 the tensor form;
        // n = 64's multigrid levels are 64, 32, 16 and 8
        let h = crate::PoissonHierarchy::new(24, vec![8, 32, 64], 3);
        let (a, b) = (h.problem(2), h.problem(2));
        let (a, b) = (a.model(), b.model());
        assert_eq!(patterns_of(a), patterns_of(b));
        assert!(Arc::ptr_eq(&a.kl_elements, &b.kl_elements));
        assert!(Arc::ptr_eq(&a.kl_qoi, &b.kl_qoi));
        let (direct_8, direct_32) = (h.problem(0), h.problem(1));
        assert_eq!(patterns_of(direct_8.model()), [patterns_of(a)[3]]);
        assert_eq!(patterns_of(direct_32.model()), [patterns_of(a)[1]]);
        assert!(Arc::ptr_eq(&direct_8.model().kl_qoi, &a.kl_qoi));
        // sharing changes no bit: each level's forward and QOI are those
        // of a model built on its own
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (level, n) in [8, 32, 64].into_iter().enumerate() {
            let theta: Vec<f64> = (0..24).map(|i| (0.9 * i as f64 + 0.2).sin()).collect();
            let mut shared = h.problem(level);
            let mut alone = PoissonModel::new(n, h.field());
            let forward = shared.model_mut().forward(&theta);
            assert_eq!(bits(&forward), bits(&alone.forward(&theta)), "n = {n}");
            let qoi = shared.model_mut().qoi(&theta);
            assert_eq!(bits(&qoi), bits(&alone.qoi(&theta)), "n = {n}");
        }
        assert_eq!(
            bits(&h.true_qoi()),
            bits(&PoissonModel::new(8, h.field()).qoi(h.truth()))
        );
    }

    #[test]
    fn coarsen_kappa_averages_children() {
        let fine = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            1.0, 1.0, 2.0, 2.0, //
            1.0, 1.0, 2.0, 2.0,
        ];
        let mut coarse = vec![0.0; 4];
        coarsen_kappa(4, &fine, &mut coarse);
        assert_eq!(coarse, vec![2.5, 6.5, 1.0, 2.0]);
    }
}
