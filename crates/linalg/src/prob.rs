//! Probability kernels: standard-normal sampling (Box–Muller, no external
//! distribution crate), Gaussian log-densities, and a Cholesky-based
//! multivariate normal used for proposal distributions and priors.

use crate::dense::DenseMatrix;
use rand::{Rng, RngExt};

/// Half of `log(2π)`, the normalization constant of the standard normal.
pub const HALF_LOG_TWO_PI: f64 = 0.918_938_533_204_672_8;

/// Draw one standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // avoid log(0): u1 in (0, 1]
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fill a vector with iid standard-normal draws.
pub fn standard_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// Log-density of `N(mean, sd²)` at `x`.
#[inline]
pub fn normal_logpdf(x: f64, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd > 0.0);
    let z = (x - mean) / sd;
    -0.5 * z * z - sd.ln() - HALF_LOG_TWO_PI
}

/// Log-density of an isotropic Gaussian `N(mean, sd² I)` at `x`.
pub fn isotropic_gaussian_logpdf(x: &[f64], mean: &[f64], sd: f64) -> f64 {
    assert_eq!(
        x.len(),
        mean.len(),
        "isotropic_gaussian_logpdf: length mismatch"
    );
    isotropic_logpdf(x, mean.iter().copied(), sd)
}

/// Log-density of `N(0, sd² I)` at `x`: [`isotropic_gaussian_logpdf`]
/// against a zero mean that is never materialised — same operations in
/// the same order, so equal to it to the bit.
pub fn centered_gaussian_logpdf(x: &[f64], sd: f64) -> f64 {
    isotropic_logpdf(x, std::iter::repeat(0.0), sd)
}

fn isotropic_logpdf(x: &[f64], mean: impl Iterator<Item = f64>, sd: f64) -> f64 {
    let n = x.len() as f64;
    let ss: f64 = x
        .iter()
        .zip(mean)
        .map(|(xi, mi)| {
            let z = (xi - mi) / sd;
            z * z
        })
        .sum();
    -0.5 * ss - n * (sd.ln() + HALF_LOG_TWO_PI)
}

/// Multivariate normal distribution `N(mean, Σ)` backed by the Cholesky
/// factor of `Σ`.
#[derive(Clone, Debug)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    chol: DenseMatrix,
    log_norm_const: f64,
}

impl MultivariateNormal {
    /// Build from mean and covariance.
    ///
    /// Returns `None` if the covariance is not symmetric positive definite.
    pub fn new(mean: Vec<f64>, cov: &DenseMatrix) -> Option<Self> {
        assert_eq!(mean.len(), cov.rows(), "MultivariateNormal: shape mismatch");
        let chol = cov.cholesky()?;
        let n = mean.len() as f64;
        let log_det_half: f64 = (0..mean.len()).map(|i| chol[(i, i)].ln()).sum();
        Some(Self {
            mean,
            chol,
            log_norm_const: -n * HALF_LOG_TWO_PI - log_det_half,
        })
    }

    /// Isotropic `N(mean, sd² I)` convenience constructor.
    pub fn isotropic(mean: Vec<f64>, sd: f64) -> Self {
        assert!(
            sd > 0.0,
            "MultivariateNormal::isotropic: sd must be positive"
        );
        let n = mean.len();
        let cov = DenseMatrix::from_fn(n, n, |i, j| if i == j { sd * sd } else { 0.0 });
        Self::new(mean, &cov).expect("isotropic covariance is SPD")
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Draw a sample `mean + L ξ` with `ξ ~ N(0, I)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let xi = standard_normal_vec(rng, self.dim());
        let mut out = self.mean.clone();
        for i in 0..self.dim() {
            for j in 0..=i {
                out[i] += self.chol[(i, j)] * xi[j];
            }
        }
        out
    }

    /// Log-density at `x`.
    pub fn logpdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "logpdf: dimension mismatch");
        let diff: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
        // solve L y = diff; then quadratic form is ‖y‖²
        let y = self.chol.solve_lower(&diff);
        let quad: f64 = y.iter().map(|v| v * v).sum();
        self.log_norm_const - 0.5 * quad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let xs = standard_normal_vec(&mut rng, n);
        let mean = crate::vector::mean(&xs);
        let var = crate::vector::variance(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_logpdf_matches_closed_form() {
        // N(0,1) at 0 is 1/sqrt(2 pi)
        let expect = -(2.0 * std::f64::consts::PI).sqrt().ln();
        assert!((normal_logpdf(0.0, 0.0, 1.0) - expect).abs() < 1e-14);
        // shift/scale invariance
        assert!(
            (normal_logpdf(3.0, 1.0, 2.0) - (normal_logpdf(1.0, 0.0, 1.0) - 2.0f64.ln())).abs()
                < 1e-14
        );
    }

    #[test]
    fn isotropic_logpdf_sums_univariate() {
        let x = [0.5, -1.0, 2.0];
        let m = [0.0, 0.0, 1.0];
        let sd = 1.5;
        let expect: f64 = x
            .iter()
            .zip(&m)
            .map(|(xi, mi)| normal_logpdf(*xi, *mi, sd))
            .sum();
        assert!((isotropic_gaussian_logpdf(&x, &m, sd) - expect).abs() < 1e-13);
    }

    #[test]
    fn centered_logpdf_equals_a_materialised_zero_mean_to_the_bit() {
        let x = [0.5, -1.0, 2.0, -0.0, 1e-300, 3.7e8];
        for sd in [0.01, 1.5, 2.0] {
            assert_eq!(
                centered_gaussian_logpdf(&x, sd).to_bits(),
                isotropic_gaussian_logpdf(&x, &[0.0; 6], sd).to_bits()
            );
        }
    }

    #[test]
    fn mvn_isotropic_matches_isotropic_helper() {
        let mvn = MultivariateNormal::isotropic(vec![1.0, -1.0], 0.7);
        let x = [0.3, 0.4];
        let expect = isotropic_gaussian_logpdf(&x, &[1.0, -1.0], 0.7);
        assert!((mvn.logpdf(&x) - expect).abs() < 1e-12);
    }

    #[test]
    fn mvn_correlated_logpdf() {
        // 2-D N(0, [[2, 0.5], [0.5, 1]]); check against direct formula
        let cov = DenseMatrix::from_vec(2, 2, vec![2.0, 0.5, 0.5, 1.0]);
        let mvn = MultivariateNormal::new(vec![0.0, 0.0], &cov).unwrap();
        let det: f64 = 2.0 * 1.0 - 0.25;
        let x = [1.0, 0.5];
        // inverse of [[2,.5],[.5,1]] = 1/det [[1,-.5],[-.5,2]]
        let quad = (x[0] * (1.0 * x[0] - 0.5 * x[1]) + x[1] * (-0.5 * x[0] + 2.0 * x[1])) / det;
        let expect = -0.5 * quad - 0.5 * det.ln() - 2.0 * HALF_LOG_TWO_PI;
        assert!((mvn.logpdf(&x) - expect).abs() < 1e-12);
    }

    #[test]
    fn mvn_sample_covariance_converges() {
        let cov = DenseMatrix::from_vec(2, 2, vec![2.0, 0.8, 0.8, 1.0]);
        let mvn = MultivariateNormal::new(vec![3.0, -2.0], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let samples: Vec<Vec<f64>> = (0..n).map(|_| mvn.sample(&mut rng)).collect();
        let mean0 = crate::vector::mean(&samples.iter().map(|s| s[0]).collect::<Vec<_>>());
        let mean1 = crate::vector::mean(&samples.iter().map(|s| s[1]).collect::<Vec<_>>());
        assert!((mean0 - 3.0).abs() < 0.03);
        assert!((mean1 + 2.0).abs() < 0.03);
        let cov01: f64 = samples
            .iter()
            .map(|s| (s[0] - mean0) * (s[1] - mean1))
            .sum::<f64>()
            / (n - 1) as f64;
        assert!((cov01 - 0.8).abs() < 0.05, "cov01 {cov01}");
    }

    #[test]
    fn mvn_rejects_indefinite_covariance() {
        let cov = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(MultivariateNormal::new(vec![0.0, 0.0], &cov).is_none());
    }
}
