//! Cross-crate property-based tests (proptest) on the core numerical
//! invariants.

use proptest::prelude::*;
use uq_linalg::dense::DenseMatrix;
use uq_linalg::sparse::CooMatrix;
use uq_linalg::vector;
use uq_mcmc::stats::VectorMoments;

proptest! {
    #[test]
    fn dot_is_symmetric(x in prop::collection::vec(-1e3f64..1e3, 1..32)) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        prop_assert!((vector::dot(&x, &y) - vector::dot(&y, &x)).abs() < 1e-9);
    }

    #[test]
    fn cauchy_schwarz(
        x in prop::collection::vec(-1e2f64..1e2, 2..16),
        seed in 0u64..1000,
    ) {
        let y: Vec<f64> = x.iter().enumerate()
            .map(|(i, v)| v * ((i as f64 + seed as f64) * 0.7).sin())
            .collect();
        let lhs = vector::dot(&x, &y).abs();
        let rhs = vector::norm2(&x) * vector::norm2(&y);
        prop_assert!(lhs <= rhs * (1.0 + 1e-12) + 1e-12);
    }

    #[test]
    fn coo_to_csr_preserves_matvec(
        entries in prop::collection::vec((0usize..8, 0usize..8, -10f64..10.0), 0..64),
        x in prop::collection::vec(-5f64..5.0, 8),
    ) {
        let mut coo = CooMatrix::new(8, 8);
        // dense accumulation as the reference
        let mut dense = vec![0.0f64; 64];
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
            dense[r * 8 + c] += v;
        }
        let csr = coo.to_csr();
        let y = csr.matvec(&x);
        for r in 0..8 {
            let expect: f64 = (0..8).map(|c| dense[r * 8 + c] * x[c]).sum();
            prop_assert!((y[r] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_of_gram_matrix_succeeds(
        rows in prop::collection::vec(prop::collection::vec(-2f64..2.0, 3), 3)
    ) {
        // A = B Bᵀ + I is always SPD
        let b = DenseMatrix::from_fn(3, 3, |i, j| rows[i][j]);
        let mut a = b.matmul(&b.transpose());
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let l = a.cholesky();
        prop_assert!(l.is_some());
        let l = l.unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn running_moments_match_batch_any_split(
        xs in prop::collection::vec(-1e3f64..1e3, 0..64),
        dim in 1usize..5,
        split in 0usize..65,
    ) {
        // `dim` components of `xs.len() / dim` observations, split at any
        // point (either half may be empty), merged pairwise
        let rows: Vec<&[f64]> = xs.chunks_exact(dim).collect();
        let split = split.min(rows.len());
        let pushed = |rows: &[&[f64]]| {
            let mut m = VectorMoments::new(dim);
            rows.iter().for_each(|row| m.push(row));
            m
        };
        let one_pass = pushed(&rows);
        let mut merged = pushed(&rows[..split]);
        merged.merge(&pushed(&rows[split..]));
        prop_assert_eq!(merged.count(), one_pass.count());
        // relative to the data's scale: a mean near zero of data near
        // 1e3 is only known to the data's last bits
        let scale = xs.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        for (a, b) in merged.mean().into_iter().zip(one_pass.mean()) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "mean {} vs {}", a, b);
        }
        for (a, b) in merged.variance().into_iter().zip(one_pass.variance()) {
            prop_assert!((a - b).abs() <= 1e-12 * scale * scale, "variance {} vs {}", a, b);
        }
    }

    #[test]
    fn mh_chain_stays_in_support(seed in 0u64..50) {
        use rand::SeedableRng;
        use uq_mcmc::{Chain, ChainConfig, GaussianRandomWalk};
        use uq_mcmc::problem::FnProblem;
        // target supported on [0, 1] only
        let problem = FnProblem::new(1, |th: &[f64]| {
            if th[0] >= 0.0 && th[0] <= 1.0 { 0.0 } else { f64::NEG_INFINITY }
        });
        let mut chain = Chain::new(
            problem,
            GaussianRandomWalk::new(0.5),
            vec![0.5],
            ChainConfig::default(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        chain.run(200, &mut rng);
        for s in chain.samples() {
            prop_assert!((0.0..=1.0).contains(&s[0]));
        }
    }
}
