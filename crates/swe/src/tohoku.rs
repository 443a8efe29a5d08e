//! The synthetic Tohoku source-inversion scenario (paper Sections 3.2 and
//! 5.2).
//!
//! We infer the location `θ = (θ_x, θ_y)` (in km, relative to the
//! reference epicenter near the trench) of an instantaneous sea-floor
//! displacement from the max-wave-height/arrival-time readings of two
//! buoys. The three-level model hierarchy follows the paper's Table 2:
//!
//! | level | scheme              | bathymetry     | grid (paper) |
//! |-------|---------------------|----------------|--------------|
//! | 0     | order 2, no limiter | depth-averaged | 1/25         |
//! | 1     | order 2, limiter    | smoothed       | 1/79         |
//! | 2     | order 2, limiter    | full           | 1/241        |
//!
//! The likelihood is `N(μ_l, Σ_l)` on `[h_max^1, h_max^2, t^1, t^2]` with
//! the level-dependent Table-1 standard deviations; the prior cuts off
//! displacements too close to the domain boundary or on dry land
//! (assigned `-∞` log-density, the paper's "almost zero likelihood").

use crate::bathymetry::{self, Fidelity, DOMAIN};
use crate::gauge::{observation_vector, Gauge};
use crate::grid::Grid2d;
use crate::solver::{Boundary, Scheme, SweSolver, SweState};
use uq_mcmc::SamplingProblem;

/// Grid resolutions of the three levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The paper's mesh widths: 25, 79, 241 cells per direction.
    Paper,
    /// Scaled-down default so the full Table-4 run fits a single machine.
    Reduced,
    /// Explicit cell counts per level.
    Custom([usize; 3]),
}

impl Resolution {
    pub fn cells(self, level: usize) -> usize {
        match self {
            Resolution::Paper => [25, 79, 241][level],
            Resolution::Reduced => [15, 31, 63][level],
            Resolution::Custom(c) => c[level],
        }
    }
}

/// Scenario constants.
pub mod constants {
    /// Reference epicenter (near the trench), meters.
    pub const SOURCE_REF: (f64, f64) = (-50_000.0, 0.0);
    /// θ is measured in km of displacement from the reference.
    pub const THETA_SCALE: f64 = 1_000.0;
    /// Uplift amplitude (m).
    pub const UPLIFT_AMPLITUDE: f64 = 5.0;
    /// Uplift half-widths (m): elongated along-trench (y).
    pub const UPLIFT_RADII: (f64, f64) = (60_000.0, 100_000.0);
    /// Buoy positions (meters), east/north-east of the source — the
    /// geometry of DART 21418 / 21419.
    pub const BUOYS: [(&str, f64, f64); 2] = [
        ("21418", 150_000.0, 50_000.0),
        ("21419", 350_000.0, 150_000.0),
    ];
    /// Simulated duration (s): 95 min, past the second buoy's peak.
    pub const T_END: f64 = 5_700.0;
    /// Prior cut-off half-width in θ units (km): the dark rectangle of
    /// the paper's Fig. 3.
    pub const PRIOR_HALFWIDTH: f64 = 150.0;
    /// Table-1 likelihood standard deviations per level:
    /// `[σ_h1, σ_h2, σ_t1, σ_t2]` (heights in m, times in minutes).
    pub const SIGMA: [[f64; 4]; 3] = [
        [0.15, 0.15, 2.5, 2.5],
        [0.1, 0.1, 1.5, 1.5],
        [0.1, 0.1, 0.75, 0.75],
    ];
}

/// Per-run cost diagnostics (Table 2 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    pub timesteps: usize,
    pub dof_updates: u64,
    pub limited_cells: u64,
}

/// One level of the tsunami forward-model hierarchy. The model owns its
/// solver and gauges; every `forward` rewinds them to the lake at rest.
pub struct TsunamiModel {
    level: usize,
    solver: SweSolver,
    rest_state: SweState,
    gauges: Vec<Gauge>,
    evaluations: usize,
    last_stats: RunStats,
    /// When set, `forward` retains the full gauge series of the last run.
    pub record_series: bool,
    pub last_series: Vec<Vec<(f64, f64)>>,
}

impl TsunamiModel {
    /// Build the level-`level` model (0, 1 or 2) at the given resolution.
    pub fn new(level: usize, resolution: Resolution) -> Self {
        assert!(level < 3, "TsunamiModel: levels are 0, 1, 2");
        let n = resolution.cells(level);
        let grid = Grid2d::new(n, n, DOMAIN.0, DOMAIN.1);
        let fidelity = match level {
            0 => Fidelity::DepthAveraged,
            1 => Fidelity::Smoothed,
            _ => Fidelity::Full,
        };
        let scheme = match level {
            0 => Scheme::SecondOrder { limiter: false },
            _ => Scheme::SecondOrder { limiter: true },
        };
        let bathy = bathymetry::tabulate(&grid, fidelity);
        let rest_state = SweState::lake_at_rest(&bathy, 0.0);
        let solver = SweSolver::new(grid, bathy, rest_state.clone(), scheme, Boundary::Outflow);
        let mut gauges: Vec<Gauge> = constants::BUOYS
            .iter()
            .map(|&(name, x, y)| Gauge::new(name, x, y))
            .collect();
        for g in &mut gauges {
            g.calibrate(&solver);
        }
        Self {
            level,
            solver,
            rest_state,
            gauges,
            evaluations: 0,
            last_stats: RunStats::default(),
            record_series: false,
            last_series: Vec::new(),
        }
    }

    pub fn level(&self) -> usize {
        self.level
    }

    pub fn grid(&self) -> &Grid2d {
        self.solver.grid()
    }

    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Diagnostics of the most recent forward run.
    pub fn last_stats(&self) -> RunStats {
        self.last_stats
    }

    /// Whether the scheme uses the a-posteriori limiter.
    pub fn uses_limiter(&self) -> bool {
        self.solver.scheme() == Scheme::SecondOrder { limiter: true }
    }

    /// Physical source center for parameters `theta` (km offsets).
    pub fn source_center(theta: &[f64]) -> (f64, f64) {
        (
            constants::SOURCE_REF.0 + theta[0] * constants::THETA_SCALE,
            constants::SOURCE_REF.1 + theta[1] * constants::THETA_SCALE,
        )
    }

    /// Whether `theta` is physically admissible: inside the prior box and
    /// not on dry land (checked on the full bathymetry, like the paper).
    pub fn admissible(theta: &[f64]) -> bool {
        if theta[0].abs() > constants::PRIOR_HALFWIDTH
            || theta[1].abs() > constants::PRIOR_HALFWIDTH
        {
            return false;
        }
        let (sx, sy) = Self::source_center(theta);
        !bathymetry::is_land(sx, sy)
    }

    /// Run the tsunami and return the observation vector
    /// `[h_max^1, h_max^2, t^1 (min), t^2 (min)]`.
    pub fn forward(&mut self, theta: &[f64]) -> Vec<f64> {
        assert_eq!(theta.len(), 2, "TsunamiModel::forward: theta is 2-D");
        let (sx, sy) = Self::source_center(theta);
        let (rx, ry) = constants::UPLIFT_RADII;
        let (solver, gauges) = (&mut self.solver, &mut self.gauges);
        solver.reset(&self.rest_state);
        gauges.iter_mut().for_each(Gauge::clear);
        solver.displace_surface(|x, y| {
            let dx = (x - sx) / rx;
            let dy = (y - sy) / ry;
            constants::UPLIFT_AMPLITUDE * (-dx * dx - dy * dy).exp()
        });
        solver.run(constants::T_END, |s| {
            for g in gauges.iter_mut() {
                g.record(s);
            }
        });
        self.evaluations += 1;
        self.last_stats = RunStats {
            timesteps: solver.steps(),
            dof_updates: solver.dof_updates(),
            limited_cells: solver.limited_cells(),
        };
        if self.record_series {
            self.last_series = gauges.iter().map(|g| g.series().to_vec()).collect();
        }
        observation_vector(gauges)
    }
}

/// The Bayesian source-inversion problem on one level.
pub struct TsunamiProblem {
    model: TsunamiModel,
    data: Vec<f64>,
    sigma: [f64; 4],
}

impl TsunamiProblem {
    pub fn new(model: TsunamiModel, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), 4, "TsunamiProblem: observation vector is 4-D");
        let sigma = constants::SIGMA[model.level()];
        Self { model, data, sigma }
    }

    pub fn model(&self) -> &TsunamiModel {
        &self.model
    }

    pub fn model_mut(&mut self) -> &mut TsunamiModel {
        &mut self.model
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

impl SamplingProblem for TsunamiProblem {
    fn dim(&self) -> usize {
        2
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        if !TsunamiModel::admissible(theta) {
            return f64::NEG_INFINITY;
        }
        let obs = self.model.forward(theta);
        obs.iter()
            .zip(&self.data)
            .zip(&self.sigma)
            .map(|((o, d), s)| uq_linalg::prob::normal_logpdf(*o, *d, *s))
            .sum()
    }

    /// The paper's QOI is the uncertain parameter itself.
    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        theta.to_vec()
    }

    fn qoi_dim(&self) -> usize {
        2
    }
}

/// The full three-level hierarchy as a [`uq_mlmcmc::LevelFactory`].
pub struct TsunamiHierarchy {
    resolution: Resolution,
    data: Vec<f64>,
    /// Subsampling rates ρ_0, ρ_1 (paper: 25 and 5).
    pub subsampling: [usize; 2],
}

impl TsunamiHierarchy {
    /// Build the hierarchy; synthetic buoy data is generated from the
    /// **finest** model at the reference source `θ = (0, 0)` (the paper's
    /// Galvez et al. location).
    pub fn new(resolution: Resolution) -> Self {
        let mut finest = TsunamiModel::new(2, resolution);
        let data = finest.forward(&[0.0, 0.0]);
        Self {
            resolution,
            data,
            subsampling: [25, 5],
        }
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Build the sampling problem for one level.
    pub fn problem_for(&self, level: usize) -> TsunamiProblem {
        TsunamiProblem::new(TsunamiModel::new(level, self.resolution), self.data.clone())
    }
}

impl uq_mlmcmc::LevelFactory for TsunamiHierarchy {
    fn n_levels(&self) -> usize {
        3
    }

    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(self.problem_for(level))
    }

    fn proposal(&self, _level: usize) -> Box<dyn uq_mcmc::Proposal> {
        // paper: Adaptive Metropolis with initial N(0, 10 I), adapting
        // every 100 steps (only consulted on level 0)
        Box::new(uq_mcmc::AdaptiveMetropolis::new(2, 10f64.sqrt(), 100))
    }

    fn subsampling_rate(&self, level: usize) -> usize {
        if level < 2 {
            self.subsampling[level]
        } else {
            0
        }
    }

    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0, 0.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Resolution = Resolution::Custom([9, 13, 17]);

    #[test]
    fn forward_returns_physical_observations() {
        let mut model = TsunamiModel::new(0, TINY);
        let obs = model.forward(&[0.0, 0.0]);
        assert_eq!(obs.len(), 4);
        assert!(obs[0] > 0.0 && obs[1] > 0.0, "wave heights {obs:?}");
        assert!(
            obs[2] > 0.0 && obs[3] > obs[2],
            "farther buoy peaks later: {obs:?}"
        );
        assert!(obs[2] < 95.0 && obs[3] < 95.0, "times in minutes: {obs:?}");
    }

    #[test]
    fn nearer_buoy_sees_higher_wave() {
        let mut model = TsunamiModel::new(2, TINY);
        let obs = model.forward(&[0.0, 0.0]);
        assert!(
            obs[0] > obs[1],
            "buoy 21418 (near) should see a higher wave: {obs:?}"
        );
    }

    #[test]
    fn moving_source_changes_arrival_time() {
        let mut model = TsunamiModel::new(1, TINY);
        let near = model.forward(&[100.0, 50.0]); // closer to the buoys
        let far = model.forward(&[-100.0, -50.0]);
        assert!(
            near[2] < far[2],
            "closer source must arrive earlier: near {near:?} far {far:?}"
        );
    }

    #[test]
    fn admissibility_prior_cutoffs() {
        assert!(TsunamiModel::admissible(&[0.0, 0.0]));
        assert!(
            !TsunamiModel::admissible(&[200.0, 0.0]),
            "outside prior box"
        );
        assert!(
            !TsunamiModel::admissible(&[-160.0, 0.0]),
            "outside prior box (west)"
        );
        // a source on land: x = -400 km is behind the coast but inside ±150
        // is not reachable; instead verify land rejection via a point that
        // is in-box yet dry — none exists with halfwidth 150 around the
        // trench, so this guards the check stays consistent:
        assert!(TsunamiModel::admissible(&[-150.0, 0.0]));
    }

    #[test]
    fn unphysical_theta_gets_neg_infinity() {
        let h_data = vec![1.0, 0.5, 30.0, 60.0];
        let model = TsunamiModel::new(0, TINY);
        let mut p = TsunamiProblem::new(model, h_data);
        assert_eq!(p.log_density(&[1e3, 1e3]), f64::NEG_INFINITY);
        // admissible θ gives finite density (and runs the model)
        assert!(p.log_density(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn hierarchy_data_is_self_consistent_at_truth() {
        let h = TsunamiHierarchy::new(TINY);
        let mut p2 = h.problem_for(2);
        let mut p0 = h.problem_for(0);
        let at_truth_fine = p2.log_density(&[0.0, 0.0]);
        let off = p2.log_density(&[80.0, -80.0]);
        assert!(
            at_truth_fine > off,
            "finest-level posterior should peak at the data-generating point: {at_truth_fine} vs {off}"
        );
        // level 0 still produces a finite, informative density
        assert!(p0.log_density(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn finer_levels_cost_more() {
        let mut m0 = TsunamiModel::new(0, TINY);
        let mut m2 = TsunamiModel::new(2, TINY);
        m0.forward(&[0.0, 0.0]);
        m2.forward(&[0.0, 0.0]);
        assert!(
            m2.last_stats().dof_updates > m0.last_stats().dof_updates,
            "level 2 must update more DOFs"
        );
        assert!(m2.last_stats().timesteps >= m0.last_stats().timesteps);
    }

    #[test]
    fn limiter_only_on_upper_levels() {
        assert!(!TsunamiModel::new(0, TINY).uses_limiter());
        assert!(TsunamiModel::new(1, TINY).uses_limiter());
        assert!(TsunamiModel::new(2, TINY).uses_limiter());
    }

    #[test]
    fn series_recording_is_optional() {
        let mut model = TsunamiModel::new(0, TINY);
        model.forward(&[0.0, 0.0]);
        assert!(model.last_series.is_empty());
        model.record_series = true;
        model.forward(&[0.0, 0.0]);
        assert_eq!(model.last_series.len(), 2);
        assert!(!model.last_series[0].is_empty());
    }

    #[test]
    fn factory_interface_is_wired() {
        use uq_mlmcmc::LevelFactory;
        let h = TsunamiHierarchy::new(TINY);
        assert_eq!(h.n_levels(), 3);
        assert_eq!(h.subsampling_rate(0), 25);
        assert_eq!(h.subsampling_rate(1), 5);
        assert_eq!(h.starting_point(2), vec![0.0, 0.0]);
        let mut p = h.problem(0);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.qoi(&[1.0, 2.0]), vec![1.0, 2.0]);
    }
}
