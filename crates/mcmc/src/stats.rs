//! Chain statistics: autocorrelation, integrated autocorrelation time
//! (IACT, the `τ_l` column of the paper's Tables 3–4), effective sample
//! size, and mergeable streaming moments for the distributed collectors.

pub use uq_linalg::vector::{mean, variance};

/// Normalized autocorrelation `ρ_t` of a scalar chain at lag `t`.
///
/// Returns 0 when the chain has (numerically) zero variance.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= 1e-300 {
        return 0.0;
    }
    let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
    num / denom
}

/// Integrated autocorrelation time `τ = 1 + 2 Σ_t ρ_t` with Sokal's
/// adaptive windowing: the sum is truncated at the smallest `W` with
/// `W ≥ c·τ(W)` (here `c = 6`), which balances truncation bias against
/// estimator noise.
///
/// An iid chain gives `τ ≈ 1`; the paper reports `τ` per level in Table 3
/// and notes it is "essentially reduced to one" on fine levels.
pub fn integrated_autocorrelation_time(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return 1.0;
    }
    const C: f64 = 6.0;
    let max_lag = n / 2;
    let mut tau = 1.0;
    let mut w = 1;
    while w < max_lag {
        tau += 2.0 * autocorrelation(xs, w);
        if (w as f64) >= C * tau {
            break;
        }
        w += 1;
    }
    tau.max(1.0)
}

/// Effective sample size `n / τ`.
pub fn effective_sample_size(xs: &[f64]) -> f64 {
    xs.len() as f64 / integrated_autocorrelation_time(xs)
}

/// Monte Carlo standard error of the chain mean, `√(τ · var / n)`.
pub fn mcmc_standard_error(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::INFINITY;
    }
    let tau = integrated_autocorrelation_time(xs);
    (tau * variance(xs) / xs.len() as f64).sqrt()
}

/// Streaming mean/variance of a multi-component QOI via Welford's
/// algorithm, mergeable across workers (the pairwise update of Chan,
/// Golub & LeVeque 1983) — the statistic the paper's
/// `DistributedCollection` maintains per telescoping-sum term. Every
/// component has seen the same observations, so the count is stored once
/// and the means and `m2`s flat.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorMoments {
    count: usize,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl VectorMoments {
    pub fn new(dim: usize) -> Self {
        Self {
            count: 0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Absorb one vector observation.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn push(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim(), "VectorMoments: dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        for ((mean, m2), &xi) in self.mean.iter_mut().zip(&mut self.m2).zip(x) {
            let delta = xi - *mean;
            *mean += delta / n;
            *m2 += delta * (xi - *mean);
        }
    }

    pub fn merge(&mut self, other: &VectorMoments) {
        assert_eq!(self.dim(), other.dim(), "VectorMoments: dimension mismatch");
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            return self.clone_from(other);
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let total = n1 + n2;
        let ours = self.mean.iter_mut().zip(&mut self.m2);
        for ((mean, m2), (o_mean, o_m2)) in ours.zip(other.mean.iter().zip(&other.m2)) {
            let delta = o_mean - *mean;
            *mean += delta * n2 / total;
            *m2 += o_m2 + delta * delta * n1 * n2 / total;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn mean(&self) -> Vec<f64> {
        self.mean.clone()
    }

    pub fn variance(&self) -> Vec<f64> {
        if self.count < 2 {
            return vec![0.0; self.dim()];
        }
        let d = (self.count - 1) as f64;
        self.m2.iter().map(|m2| m2 / d).collect()
    }

    /// Per-component `(count, mean, m2)` words. Unlike reconstructing
    /// from [`VectorMoments::variance`], feeding them back through
    /// [`VectorMoments::from_parts`] restores the accumulator
    /// bit-for-bit, so a resumed run pushes into exactly the state the
    /// interrupted run left behind.
    pub fn parts(&self) -> Vec<(usize, f64, f64)> {
        let words = self.mean.iter().zip(&self.m2);
        words.map(|(&mean, &m2)| (self.count, mean, m2)).collect()
    }

    /// Rebuild from [`VectorMoments::parts`].
    pub fn from_parts(parts: &[(usize, f64, f64)]) -> Self {
        Self {
            count: parts.first().map_or(0, |p| p.0),
            mean: parts.iter().map(|p| p.1).collect(),
            m2: parts.iter().map(|p| p.2).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uq_linalg::prob::standard_normal;

    /// AR(1) process with autocorrelation `rho`; IACT = (1+ρ)/(1-ρ).
    fn ar1(rho: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        let innov_sd = (1.0 - rho * rho).sqrt();
        for _ in 0..n {
            x = rho * x + innov_sd * standard_normal(&mut rng);
            xs.push(x);
        }
        xs
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs = ar1(0.5, 1000, 1);
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_ar1_decays_geometrically() {
        let xs = ar1(0.7, 200_000, 2);
        for lag in 1..5 {
            let expect = 0.7f64.powi(lag as i32);
            let got = autocorrelation(&xs, lag);
            assert!((got - expect).abs() < 0.02, "lag {lag}: {got} vs {expect}");
        }
    }

    #[test]
    fn iact_of_iid_is_one() {
        let xs = ar1(0.0, 100_000, 3);
        let tau = integrated_autocorrelation_time(&xs);
        assert!((tau - 1.0).abs() < 0.1, "tau {tau}");
    }

    #[test]
    fn iact_of_ar1_matches_theory() {
        for rho in [0.5, 0.8] {
            let xs = ar1(rho, 400_000, 4);
            let tau = integrated_autocorrelation_time(&xs);
            let expect = (1.0 + rho) / (1.0 - rho);
            assert!(
                (tau - expect).abs() / expect < 0.15,
                "rho {rho}: tau {tau} vs {expect}"
            );
        }
    }

    #[test]
    fn ess_scales_inverse_to_iact() {
        let xs = ar1(0.8, 100_000, 5);
        let ess = effective_sample_size(&xs);
        let expect = 100_000.0 / 9.0; // tau = 1.8/0.2 = 9
        assert!((ess - expect).abs() / expect < 0.25, "ess {ess}");
    }

    #[test]
    fn constant_chain_has_unit_iact() {
        let xs = vec![2.0; 100];
        assert_eq!(integrated_autocorrelation_time(&xs), 1.0);
    }

    /// One-component moments of `xs`.
    fn scalar(xs: &[f64]) -> VectorMoments {
        let mut m = VectorMoments::new(1);
        xs.iter().for_each(|&x| m.push(&[x]));
        m
    }

    #[test]
    fn running_moments_match_batch() {
        let xs = ar1(0.3, 5000, 6);
        let rm = scalar(&xs);
        assert_eq!(rm.count(), 5000);
        assert!((rm.mean()[0] - mean(&xs)).abs() < 1e-12);
        assert!((rm.variance()[0] - variance(&xs)).abs() < 1e-10);
    }

    #[test]
    fn merged_moments_match_single_pass() {
        let xs = ar1(0.3, 3000, 7);
        let (a, b) = xs.split_at(1200);
        let mut ra = scalar(a);
        ra.merge(&scalar(b));
        assert_eq!(ra.count(), 3000);
        assert!((ra.mean()[0] - mean(&xs)).abs() < 1e-12);
        assert!((ra.variance()[0] - variance(&xs)).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = scalar(&[1.0, 3.0]);
        let before = a.clone();
        a.merge(&VectorMoments::new(1));
        assert_eq!(a, before);
        let mut empty = VectorMoments::new(1);
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean()[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn vector_moments_componentwise() {
        let mut vm = VectorMoments::new(2);
        vm.push(&[1.0, 10.0]);
        vm.push(&[3.0, 30.0]);
        assert_eq!(vm.count(), 2);
        assert_eq!(vm.mean(), vec![2.0, 20.0]);
        assert_eq!(vm.variance(), vec![2.0, 200.0]);
    }

    #[test]
    fn vector_moments_match_a_vec_of_running_moments_to_the_bit() {
        // 1 000 random vectors pushed into four accumulators of uneven
        // sizes (one stays empty) and merged in both orders: every word of
        // the flat layout equals that of one one-component accumulator
        // per component
        const DIM: usize = 7;
        let mut rng = StdRng::seed_from_u64(24);
        let mut flat: Vec<VectorMoments> = (0..4).map(|_| VectorMoments::new(DIM)).collect();
        let mut reference = vec![vec![VectorMoments::new(1); DIM]; 4];
        for i in 0..1000 {
            let scale = 10f64.powi(i % 5 - 2);
            let x: Vec<f64> = (0..DIM)
                .map(|k| k as f64 + scale * standard_normal(&mut rng))
                .collect();
            let which = [0, 1, 1, 2, 1, 0][i as usize % 6];
            flat[which].push(&x);
            for (r, &xi) in reference[which].iter_mut().zip(&x) {
                r.push(&[xi]);
            }
        }
        let same = |v: &VectorMoments, r: &[VectorMoments]| {
            let words = |p: Vec<(usize, f64, f64)>| {
                p.into_iter()
                    .map(|(c, m, m2)| (c, m.to_bits(), m2.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                words(v.parts()),
                words(r.iter().flat_map(VectorMoments::parts).collect())
            );
            let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(v.variance()),
                bits(r.iter().flat_map(VectorMoments::variance).collect())
            );
        };
        for (v, r) in flat.iter().zip(&reference) {
            same(v, r);
        }
        // merge into a filled one, into the empty one, and an empty one in
        for (into, from) in [(0, 1), (3, 2), (0, 3), (1, 3)] {
            let other = flat[from].clone();
            flat[into].merge(&other);
            let other = reference[from].clone();
            for (a, b) in reference[into].iter_mut().zip(&other) {
                a.merge(b);
            }
            same(&flat[into], &reference[into]);
        }
        assert_eq!(flat[0].count(), 1000);
    }

    #[test]
    fn parts_roundtrip_is_bit_exact() {
        let xs = ar1(0.4, 777, 11);
        let mut vm = VectorMoments::new(2);
        for &x in &xs {
            vm.push(&[x, 2.0 * x]);
        }
        let back = VectorMoments::from_parts(&vm.parts());
        assert_eq!(back, vm);
        // and pushing after the round-trip continues the same stream
        let mut a = vm.clone();
        let mut b = back;
        a.push(&[0.123, 0.5]);
        b.push(&[0.123, 0.5]);
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(a.mean()), bits(b.mean()));
        assert_eq!(bits(a.variance()), bits(b.variance()));
    }

    #[test]
    fn mcmc_se_larger_for_correlated_chains() {
        let iid = ar1(0.0, 50_000, 8);
        let corr = ar1(0.9, 50_000, 9);
        assert!(mcmc_standard_error(&corr) > 2.0 * mcmc_standard_error(&iid));
    }
}

/// Split-chain Gelman–Rubin potential scale reduction factor `R̂`.
///
/// Each chain is split in half (detecting within-chain drift as well as
/// between-chain disagreement); values near 1 indicate convergence, and
/// the conventional threshold is `R̂ < 1.01–1.1`. This is the diagnostic
/// to run on the per-controller chains of a parallel MLMCMC run before
/// trusting the combined telescoping estimate.
///
/// Returns `f64::INFINITY` when there is not enough data (fewer than two
/// resulting half-chains or fewer than four samples per half).
pub fn gelman_rubin(chains: &[Vec<f64>]) -> f64 {
    // split each chain in half
    let mut halves: Vec<&[f64]> = Vec::with_capacity(chains.len() * 2);
    for c in chains {
        if c.len() >= 8 {
            let (a, b) = c.split_at(c.len() / 2);
            halves.push(a);
            halves.push(b);
        }
    }
    let m = halves.len();
    if m < 2 {
        return f64::INFINITY;
    }
    let n = halves.iter().map(|h| h.len()).min().unwrap();
    if n < 4 {
        return f64::INFINITY;
    }
    let chain_means: Vec<f64> = halves.iter().map(|h| mean(&h[..n])).collect();
    let grand_mean = mean(&chain_means);
    // between-chain variance B/n and within-chain variance W
    let b_over_n: f64 = chain_means
        .iter()
        .map(|cm| (cm - grand_mean) * (cm - grand_mean))
        .sum::<f64>()
        / (m - 1) as f64;
    let w: f64 = halves.iter().map(|h| variance(&h[..n])).sum::<f64>() / m as f64;
    if w <= 1e-300 {
        return if b_over_n <= 1e-300 {
            1.0
        } else {
            f64::INFINITY
        };
    }
    let var_plus = (n - 1) as f64 / n as f64 * w + b_over_n;
    (var_plus / w).sqrt()
}

#[cfg(test)]
mod gelman_rubin_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uq_linalg::prob::standard_normal;

    fn iid_chain(mean: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| mean + standard_normal(&mut rng)).collect()
    }

    #[test]
    fn converged_chains_have_rhat_near_one() {
        let chains: Vec<Vec<f64>> = (0..4).map(|k| iid_chain(0.0, 5000, k)).collect();
        let r = gelman_rubin(&chains);
        assert!((r - 1.0).abs() < 0.01, "R-hat {r}");
    }

    #[test]
    fn disagreeing_chains_have_large_rhat() {
        let chains = vec![iid_chain(0.0, 2000, 1), iid_chain(5.0, 2000, 2)];
        let r = gelman_rubin(&chains);
        assert!(r > 1.5, "R-hat {r} should flag disagreement");
    }

    #[test]
    fn drifting_chain_is_flagged_by_splitting() {
        // a single chain with strong drift: split halves disagree
        let mut rng = StdRng::seed_from_u64(3);
        let chain: Vec<f64> = (0..4000)
            .map(|i| i as f64 / 400.0 + standard_normal(&mut rng))
            .collect();
        let r = gelman_rubin(&[chain]);
        assert!(r > 1.5, "R-hat {r} should flag drift");
    }

    #[test]
    fn insufficient_data_returns_infinity() {
        assert_eq!(gelman_rubin(&[]), f64::INFINITY);
        assert_eq!(gelman_rubin(&[vec![1.0, 2.0, 3.0]]), f64::INFINITY);
    }

    #[test]
    fn constant_chains_are_converged() {
        let chains = vec![vec![2.0; 100], vec![2.0; 100]];
        assert_eq!(gelman_rubin(&chains), 1.0);
    }
}
