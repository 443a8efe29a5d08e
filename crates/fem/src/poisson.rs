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
//! 1. `κ = exp(Φ_e θ)` is evaluated into a reusable buffer, one sweep
//!    per mode over the basis stored transposed;
//! 2. a [`StiffnessPattern`] per mesh level refills CSR values and rhs
//!    in place (no COO rebuild, no sort);
//! 3. the system is solved **directly** by a band LDLᵀ
//!    ([`BandedSolver`]) where that is cheap — every mesh whose
//!    factorisation costs at most [`DIRECT_MAX_MADDS`] multiply-adds
//!    (`n ≤ 24`; of the meshes used here, `n ≤ 16`), and every mesh that cannot be coarsened — and
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
use std::sync::Arc;
use uq_linalg::banded::BandedSolver;
use uq_linalg::dense::DenseMatrix;
use uq_linalg::mg::{GmgHierarchy, GmgLevelSpec, Smoother};
use uq_linalg::solvers::{cg_into, SolveStats, SolverOptions, SolverWorkspace};
use uq_randfield::KlField2d;

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
    let mut pts = Vec::with_capacity(33 * 33);
    for j in 0..33 {
        for i in 0..33 {
            pts.push((i as f64 / 32.0, j as f64 / 32.0));
        }
    }
    pts
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

/// Patterns and level specs (values filled for `κ ≡ 1`) for the given
/// level sizes — the single construction path shared by the model, the
/// benches and the regression tests.
fn mg_components(level_sizes: &[usize]) -> (Vec<StiffnessPattern>, Vec<GmgLevelSpec>) {
    let mut patterns = Vec::with_capacity(level_sizes.len());
    let mut specs = Vec::with_capacity(level_sizes.len());
    for &n in level_sizes {
        let level_grid = StructuredGrid::new(n);
        let pattern = StiffnessPattern::new(&level_grid);
        specs.push(GmgLevelSpec {
            n,
            matrix: pattern.build_matrix(),
            fixed: pattern.fixed_mask().to_vec(),
        });
        patterns.push(pattern);
    }
    (patterns, specs)
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
    let (patterns, mut specs) = mg_components(&sizes);
    let mut current = kappa.to_vec();
    for (l, (pattern, spec)) in patterns.iter().zip(&mut specs).enumerate() {
        if l > 0 {
            let mut coarse = vec![0.0; sizes[l] * sizes[l]];
            coarsen_kappa(sizes[l - 1], &current, &mut coarse);
            current = coarse;
        }
        pattern.refill_values(&current, spec.matrix.values_mut());
    }
    Some(GmgHierarchy::new(
        specs,
        Smoother::RedBlackGaussSeidel,
        1,
        1,
    ))
}

/// Largest band factorisation, in multiply-adds (`free · bw² / 2`), that
/// [`PoissonModel`] solves directly rather than by MG-CG. A forward
/// evaluation measured 4× faster direct at `n = 16` (33 k), 1.7× at
/// `n = 24` (166 k), 0.73–0.81× of MG-CG's time at `n = 32` (524 k) and
/// 1.8× slower at `n = 64` (8.4 M); DESIGN §1.1 has the table.
pub const DIRECT_MAX_MADDS: usize = 250_000;

/// Multiply-adds of the band factorisation on `grid`: `(n − 1)(n + 1)`
/// free nodes, whose couplings span one grid row of them plus one (`n`).
fn band_factor_madds(grid: &StructuredGrid) -> usize {
    let n = grid.n();
    (n - 1) * (n + 1) * n * n / 2
}

/// Reusable solve machinery, constructed once per model.
enum SolverBackend {
    /// Geometric multigrid V(1,1)-preconditioned CG, warm-started; needs
    /// an even `n ≥ 8` so at least one coarser level exists.
    Multigrid {
        gmg: GmgHierarchy,
        /// Symbolic assembly patterns per level, finest first.
        patterns: Vec<StiffnessPattern>,
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
    fn build(grid: &StructuredGrid) -> Self {
        let level_n = mg_level_sizes(grid.n());
        if level_n.len() < 2 || band_factor_madds(grid) <= DIRECT_MAX_MADDS {
            let op = Box::new(StiffnessOperator::new(grid));
            let band = BandedSolver::new(op.matrix(), op.pattern().fixed_mask());
            return Self::Direct { op, band };
        }
        let (patterns, specs) = mg_components(&level_n);
        let gmg = GmgHierarchy::new(specs, Smoother::RedBlackGaussSeidel, 1, 1);
        let coarse_kappa = level_n[1..].iter().map(|&n| vec![0.0; n * n]).collect();
        Self::Multigrid {
            gmg,
            patterns,
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

/// The KL basis of `field` tabulated at `points`, stored transposed
/// (`m × points`, row `k` is mode `k` at every point) as
/// [`PoissonModel::with_tabulated`] takes it.
pub fn tabulate_transposed(field: &KlField2d, points: &[(f64, f64)]) -> Arc<DenseMatrix> {
    Arc::new(field.tabulate(points).transpose())
}

/// One level of the Poisson forward-model hierarchy.
pub struct PoissonModel {
    grid: StructuredGrid,
    /// Tabulated KL basis at element centers, stored transposed (`m ×
    /// elements`, row `k` is mode `k`): `log κ = Σ_k θ_k · row_k`.
    phi_elements: Arc<DenseMatrix>,
    /// Tabulated KL basis at QOI points, stored transposed (`m ×
    /// points`): `Q(θ) = exp(Σ_k θ_k · row_k)`.
    phi_qoi: Arc<DenseMatrix>,
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
        let grid = StructuredGrid::new(n);
        let phi_elements = tabulate_transposed(field, &grid.element_centers());
        let phi_qoi = tabulate_transposed(field, &paper_qoi_points());
        Self::with_tabulated(n, phi_elements, phi_qoi)
    }

    /// Build a model from pre-tabulated KL bases (shared via `Arc`
    /// across the chains/workers of a hierarchy so each worker skips the
    /// expensive tabulation), both stored transposed: `m × points`, one
    /// row per mode ([`tabulate_transposed`]).
    ///
    /// # Panics
    /// Panics if `phi_elements` does not have one column per element of
    /// the `n × n` grid, or `phi_qoi` not one row per mode of
    /// `phi_elements`.
    pub fn with_tabulated(
        n: usize,
        phi_elements: Arc<DenseMatrix>,
        phi_qoi: Arc<DenseMatrix>,
    ) -> Self {
        let grid = StructuredGrid::new(n);
        assert_eq!(
            phi_elements.cols(),
            grid.n_elements(),
            "PoissonModel: tabulated basis (modes × elements) does not match the grid"
        );
        assert_eq!(
            phi_qoi.rows(),
            phi_elements.rows(),
            "PoissonModel: QOI basis (modes × points) has another mode count"
        );
        let backend = SolverBackend::build(&grid);
        let n_nodes = grid.n_nodes();
        let n_elements = grid.n_elements();
        let obs_points = paper_observation_points();
        Self {
            phi_elements,
            phi_qoi,
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
        self.phi_elements.rows()
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

    /// Element-wise diffusion coefficients `κ = exp(Φ_e θ)`.
    pub fn kappa_elements(&self, theta: &[f64]) -> Vec<f64> {
        exp_of(self.phi_elements.matvec_t(theta))
    }

    /// Evaluate `κ` into the reusable buffer.
    fn update_kappa(&mut self, theta: &[f64]) {
        self.phi_elements.matvec_t_into(theta, &mut self.kappa);
        for k in &mut self.kappa {
            *k = k.exp();
        }
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
        self.update_kappa(theta);
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
    /// grid. Does not require a PDE solve.
    pub fn qoi(&self, theta: &[f64]) -> Vec<f64> {
        exp_of(self.phi_qoi.matvec_t(theta))
    }
}

/// `exp` of every entry, in place.
fn exp_of(mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        *x = x.exp();
    }
    v
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
        let model = PoissonModel::new(16, &field);
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
        for n in [4, 7, 8, 16] {
            assert_eq!(PoissonModel::new(n, &field).solver_name(), "direct");
        }
        for n in [32, 64] {
            assert_eq!(PoissonModel::new(n, &field).solver_name(), "mg-cg");
        }
    }

    #[test]
    fn selection_rule_prices_the_band_the_solver_builds() {
        // the rule reads the grid; the solver reads the pattern: they
        // must agree on what a factorisation costs
        for n in [1, 4, 7, 8, 16, 32] {
            let grid = StructuredGrid::new(n);
            let op = StiffnessOperator::new(&grid);
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
        let mut model = PoissonModel::new(32, &field);
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
        for n in [4, 7, 8, 16] {
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
        // model. n = 32 is NOT pure, by design: MG-CG warm-starts from the
        // previous solution, so its result moves at the 1e-8 level with
        // the chain's history.
        let field = small_field();
        let (theta0, theta1) = (theta_at(2.5, 0.4), theta_at(1.0, 2.0));
        for n in [8, 16] {
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
        let mut model = PoissonModel::new(32, &field);
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
        let mut model = PoissonModel::new(32, &field);
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
        let mut model = PoissonModel::new(32, &field);
        let theta: Vec<f64> = (0..16).map(|i| 0.3 * ((i as f64 * 1.1).sin())).collect();
        model.forward(&theta); // first solve: cold start from zeros
        let kappa = model.kappa_elements(&theta);
        let h = build_mg_hierarchy(32, &kappa).expect("n = 32 supports MG");
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
