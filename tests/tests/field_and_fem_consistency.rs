//! Cross-crate consistency: the KL expansion's truncated variance, and
//! FEM convergence under the KL field.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_fem::PoissonModel;
use uq_linalg::prob::standard_normal_vec;
use uq_randfield::KlField2d;

#[test]
fn kl_truncated_variance_is_just_below_the_field_variance() {
    // the unit-variance separable exponential field, truncated to 200 KL
    // modes: pointwise variance at most 1, and most of it captured
    let field = KlField2d::new(0.15, 1.0, 200);
    let kl_var = field.truncated_variance(0.5, 0.5);
    assert!(kl_var <= 1.0 + 1e-9);
    assert!(
        kl_var > 0.85,
        "200 KL modes should capture most of the variance, got {kl_var}"
    );
}

#[test]
fn fem_observation_converges_under_refinement() {
    // fixed theta: |F_h - F_{h/2}| must shrink as h -> 0 (the property the
    // multilevel hierarchy relies on)
    let field = KlField2d::new(0.15, 1.0, 24);
    let mut rng = StdRng::seed_from_u64(2);
    let theta = standard_normal_vec(&mut rng, 24);
    let mut obs = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let mut model = PoissonModel::new(n, &field);
        obs.push(model.forward(&theta));
    }
    let d1 = uq_linalg::vector::max_abs_diff(&obs[0], &obs[1]);
    let d2 = uq_linalg::vector::max_abs_diff(&obs[1], &obs[2]);
    let d3 = uq_linalg::vector::max_abs_diff(&obs[2], &obs[3]);
    assert!(d2 < d1, "refinement must contract: {d1} -> {d2}");
    assert!(d3 < d2, "refinement must contract: {d2} -> {d3}");
}

#[test]
fn qoi_field_is_log_normal_consistent() {
    // QOI = exp(Phi theta): for theta ~ N(0, I) the log-QOI mean tends to
    // zero and its variance to the truncated field variance
    let field = KlField2d::new(0.15, 1.0, 64);
    let mut model = PoissonModel::new(8, &field);
    let mut rng = StdRng::seed_from_u64(3);
    let n_rep = 2000;
    let center = 16 * 33 + 16;
    let mut acc = 0.0;
    let mut acc2 = 0.0;
    for _ in 0..n_rep {
        let theta = standard_normal_vec(&mut rng, 64);
        let q = model.qoi(&theta)[center].ln();
        acc += q;
        acc2 += q * q;
    }
    let mean = acc / n_rep as f64;
    let var = acc2 / n_rep as f64 - mean * mean;
    let expect_var = field.truncated_variance(0.5, 0.5);
    assert!(mean.abs() < 0.08, "log-QOI mean {mean}");
    assert!(
        (var - expect_var).abs() < 0.1,
        "log-QOI variance {var} vs truncated field variance {expect_var}"
    );
}
