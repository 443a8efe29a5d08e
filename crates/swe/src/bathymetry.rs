//! Synthetic Japan-trench-like bathymetry.
//!
//! The paper uses GEBCO bathymetry of the Tohoku region; we substitute an
//! analytic profile with the same qualitative features (DESIGN.md §1):
//! a deep ocean basin, a trench, a continental shelf rising to a coast on
//! the west, and gentle along-shore variation. Three fidelity variants
//! mirror the paper's level hierarchy:
//!
//! * **full** — the profile as-is (level 2);
//! * **smoothed** — transitions broadened so the subcell limiter triggers
//!   in fewer cells (level 1);
//! * **depth-averaged** — a single constant depth over the whole domain,
//!   removing wetting/drying entirely (level 0, "DG only").

use crate::grid::Grid2d;

/// Physical domain of the scenario in meters: 1000 km × 1000 km.
pub const DOMAIN: ((f64, f64), (f64, f64)) = ((-500_000.0, 500_000.0), (-500_000.0, 500_000.0));

/// Deep-ocean reference depth (m, negative down).
pub const OCEAN_DEPTH: f64 = -7_000.0;

/// Fidelity variants of the bathymetry across the model hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Constant depth-average (paper level 0).
    DepthAveraged,
    /// Smoothed transitions (paper level 1).
    Smoothed,
    /// Full profile (paper level 2).
    Full,
}

/// Evaluate the synthetic bathymetry at a physical point.
///
/// `sharpness` scales the transition widths: 1.0 = full, < 1.0 = smoothed.
fn profile(x: f64, y: f64, sharpness: f64) -> f64 {
    let km = 1000.0;
    // coast on the west: land above -350 km, shelf down to the basin
    let coast_x = -350.0 * km + 20.0 * km * (y / (150.0 * km)).sin();
    let shelf_width = 120.0 * km / sharpness;
    let t = ((x - coast_x) / shelf_width).clamp(0.0, 1.0);
    // smoothstep from land (+80 m) down to the ocean depth
    let s = t * t * (3.0 - 2.0 * t);
    let mut b = 80.0 + (OCEAN_DEPTH - 80.0) * s;
    // trench: a deep trough east of the shelf
    let trench_x = -50.0 * km;
    let trench_width = 60.0 * km / sharpness.sqrt();
    let dxt = (x - trench_x) / trench_width;
    let dyt = y / (400.0 * km);
    b += -2_000.0 * (-(dxt * dxt) - dyt * dyt * 0.3).exp() * sharpness;
    // gentle seamounts in the basin
    b += 300.0 * sharpness * ((x / (180.0 * km)).sin() * (y / (230.0 * km)).cos()).powi(2);
    b
}

/// Evaluate the bathymetry variant at a point.
pub fn evaluate(fidelity: Fidelity, x: f64, y: f64) -> f64 {
    match fidelity {
        Fidelity::Full => profile(x, y, 1.0),
        Fidelity::Smoothed => profile(x, y, 0.45),
        Fidelity::DepthAveraged => depth_average(),
    }
}

/// The constant depth used by the level-0 model: the mean of the full
/// profile over the wet part of the domain (precomputed analytically-ish
/// by coarse quadrature, stable across calls).
pub fn depth_average() -> f64 {
    // coarse fixed quadrature of the full profile, wet cells only
    let n = 64;
    let ((x0, x1), (y0, y1)) = DOMAIN;
    let mut sum = 0.0;
    let mut count = 0usize;
    for j in 0..n {
        for i in 0..n {
            let x = x0 + (i as f64 + 0.5) / n as f64 * (x1 - x0);
            let y = y0 + (j as f64 + 0.5) / n as f64 * (y1 - y0);
            let b = profile(x, y, 1.0);
            if b < 0.0 {
                sum += b;
                count += 1;
            }
        }
    }
    sum / count as f64
}

/// Tabulate a bathymetry variant on a grid (cell centers). The
/// depth-averaged variant is one constant, so its quadrature
/// ([`depth_average`]) runs once, not once per cell.
pub fn tabulate(grid: &Grid2d, fidelity: Fidelity) -> Vec<f64> {
    if fidelity == Fidelity::DepthAveraged {
        return vec![depth_average(); grid.n_cells()];
    }
    let mut out = Vec::with_capacity(grid.n_cells());
    for j in 0..grid.ny() {
        for i in 0..grid.nx() {
            let (x, y) = grid.center(i, j);
            out.push(evaluate(fidelity, x, y));
        }
    }
    out
}

/// Whether the full-fidelity sea floor at `(x, y)` is dry land.
pub fn is_land(x: f64, y: f64) -> bool {
    evaluate(Fidelity::Full, x, y) >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn west_is_land_east_is_deep() {
        assert!(
            evaluate(Fidelity::Full, -480_000.0, 0.0) > 0.0,
            "west should be land"
        );
        assert!(
            evaluate(Fidelity::Full, 400_000.0, 0.0) < -5_000.0,
            "east should be deep ocean"
        );
    }

    #[test]
    fn trench_is_deeper_than_basin() {
        let trench = evaluate(Fidelity::Full, -50_000.0, 0.0);
        let basin = evaluate(Fidelity::Full, 400_000.0, 0.0);
        assert!(trench < basin, "trench {trench} vs basin {basin}");
    }

    #[test]
    fn depth_average_is_negative_constant() {
        let avg = depth_average();
        assert!(avg < -2_000.0 && avg > -8_000.0, "average depth {avg}");
        assert_eq!(evaluate(Fidelity::DepthAveraged, 0.0, 0.0), avg);
        assert_eq!(
            evaluate(Fidelity::DepthAveraged, 300_000.0, -200_000.0),
            avg
        );
    }

    #[test]
    fn smoothed_is_smoother_than_full() {
        // total variation along a shore-normal transect must be smaller
        // for the smoothed variant
        let tv = |fid: Fidelity| -> f64 {
            let mut prev = evaluate(fid, -500_000.0, 10_000.0);
            let mut acc = 0.0;
            for k in 1..500 {
                let x = -500_000.0 + k as f64 * 2_000.0;
                let b = evaluate(fid, x, 10_000.0);
                acc += (b - prev).abs();
                prev = b;
            }
            acc
        };
        // compare curvature proxy: sum of second differences
        let curv = |fid: Fidelity| -> f64 {
            let mut acc = 0.0;
            for k in 1..499 {
                let x = -500_000.0 + k as f64 * 2_000.0;
                let b0 = evaluate(fid, x - 2_000.0, 10_000.0);
                let b1 = evaluate(fid, x, 10_000.0);
                let b2 = evaluate(fid, x + 2_000.0, 10_000.0);
                acc += (b2 - 2.0 * b1 + b0).abs();
            }
            acc
        };
        assert!(tv(Fidelity::Smoothed) <= tv(Fidelity::Full) * 1.2);
        assert!(
            curv(Fidelity::Smoothed) < curv(Fidelity::Full),
            "smoothed profile should have less curvature"
        );
    }

    #[test]
    fn tabulate_matches_pointwise() {
        let grid = Grid2d::new(8, 8, DOMAIN.0, DOMAIN.1);
        let b = tabulate(&grid, Fidelity::Full);
        let (x, y) = grid.center(3, 5);
        assert_eq!(b[grid.idx(3, 5)], evaluate(Fidelity::Full, x, y));
    }

    #[test]
    fn tabulated_depth_average_is_the_average_at_every_cell() {
        let grid = Grid2d::new(8, 6, DOMAIN.0, DOMAIN.1);
        let b = tabulate(&grid, Fidelity::DepthAveraged);
        assert_eq!(b.len(), grid.n_cells());
        let avg = depth_average().to_bits();
        assert!(b.iter().all(|d| d.to_bits() == avg));
    }

    #[test]
    fn land_classification() {
        assert!(is_land(-490_000.0, 0.0));
        assert!(!is_land(200_000.0, 0.0));
    }
}
