//! Buoy gauges: record sea-surface-height-anomaly time series and extract
//! the paper's observation operator (max wave height + its arrival time,
//! per buoy — Table 1).

use crate::solver::SweSolver;

/// A virtual DART buoy at a fixed location.
#[derive(Clone, Debug)]
pub struct Gauge {
    /// Identifier (the paper uses NDBC numbers 21418 and 21419).
    pub name: String,
    pub x: f64,
    pub y: f64,
    /// Cell the gauge sits in, fixed when it is calibrated.
    cell: usize,
    /// Reference surface elevation subtracted from readings.
    reference: f64,
    /// Recorded `(time, ssha)` series.
    series: Vec<(f64, f64)>,
}

impl Gauge {
    pub fn new(name: impl Into<String>, x: f64, y: f64) -> Self {
        Self {
            name: name.into(),
            x,
            y,
            cell: 0,
            reference: 0.0,
            series: Vec::new(),
        }
    }

    /// Locate the gauge on the solver's grid and capture the undisturbed
    /// surface as the zero reference.
    pub fn calibrate(&mut self, solver: &SweSolver) {
        let (i, j) = solver.grid().locate(self.x, self.y);
        self.cell = solver.grid().idx(i, j);
        self.reference = solver.surface(self.cell);
    }

    /// Record the current sea-surface height anomaly (of the solver the
    /// gauge was calibrated on).
    pub fn record(&mut self, solver: &SweSolver) {
        let eta = solver.surface(self.cell);
        self.series.push((solver.time(), eta - self.reference));
    }

    /// The recorded `(time, ssha)` series.
    pub fn series(&self) -> &[(f64, f64)] {
        &self.series
    }

    /// Maximum wave height and the time (s) at which it occurs.
    ///
    /// Returns `(0.0, 0.0)` for an empty series.
    pub fn max_height_and_time(&self) -> (f64, f64) {
        self.series.iter().fold(
            (0.0, 0.0),
            |(mh, mt), &(t, h)| if h > mh { (h, t) } else { (mh, mt) },
        )
    }

    pub fn clear(&mut self) {
        self.series.clear();
    }
}

/// The observation vector the paper's likelihood compares: for each gauge
/// `[max_height_1, max_height_2, t_max_1, t_max_2]` with times in
/// **minutes** (matching the magnitudes of Table 1's `μ`).
pub fn observation_vector(gauges: &[Gauge]) -> Vec<f64> {
    let mut obs = vec![0.0; 2 * gauges.len()];
    for (k, g) in gauges.iter().enumerate() {
        let (h, t) = g.max_height_and_time();
        obs[k] = h;
        obs[gauges.len() + k] = t / 60.0;
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;
    use crate::solver::{Boundary, Scheme, SweSolver, SweState};

    fn make_solver() -> SweSolver {
        let grid = Grid2d::new(20, 20, (0.0, 1000.0), (0.0, 1000.0));
        let bathy = vec![-100.0; grid.n_cells()];
        let state = SweState::lake_at_rest(&bathy, 0.0);
        SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Outflow)
    }

    #[test]
    fn calibrated_gauge_reads_zero_at_rest() {
        let solver = make_solver();
        let mut g = Gauge::new("21418", 500.0, 500.0);
        g.calibrate(&solver);
        g.record(&solver);
        assert_eq!(g.series()[0].1, 0.0);
    }

    #[test]
    fn gauge_sees_passing_wave() {
        let mut solver = make_solver();
        let mut g = Gauge::new("21418", 700.0, 500.0);
        g.calibrate(&solver);
        solver.displace_surface(|x, y| {
            let r2 = ((x - 500.0) / 80.0).powi(2) + ((y - 500.0) / 80.0).powi(2);
            1.0 * (-r2).exp()
        });
        for _ in 0..200 {
            solver.step();
            g.record(&solver);
            if solver.time() > 20.0 {
                break;
            }
        }
        let (h, t) = g.max_height_and_time();
        assert!(h > 0.02, "gauge should see the wave, max {h}");
        assert!(t > 0.0, "max must occur after t = 0");
    }

    #[test]
    fn observation_vector_layout() {
        let mut g1 = Gauge::new("a", 0.0, 0.0);
        let mut g2 = Gauge::new("b", 0.0, 0.0);
        g1.series = vec![(0.0, 0.1), (60.0, 0.5), (120.0, 0.2)];
        g2.series = vec![(0.0, 0.0), (60.0, 0.1), (300.0, 0.9)];
        let obs = observation_vector(&[g1, g2]);
        assert_eq!(obs, vec![0.5, 0.9, 1.0, 5.0]); // heights, then minutes
    }

    #[test]
    fn empty_series_yields_zeros() {
        let g = Gauge::new("empty", 0.0, 0.0);
        assert_eq!(g.max_height_and_time(), (0.0, 0.0));
    }
}
