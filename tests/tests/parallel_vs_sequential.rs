//! The pool and the sequential driver must estimate the same quantities:
//! both implement paper Algorithm 2, only the execution strategy
//! differs. (Placements of the pool, and the pool's own runs of this
//! hierarchy, are rows of the conformance matrix.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_mlmcmc::{run_sequential, MlmcmcConfig};
use uq_parallel::{Placement, Run, Runtime, RuntimeConfig, Tracer};

#[path = "common/gaussians.rs"]
mod gaussians;
use gaussians::{PLANE, PLANE_SAMPLES};

#[test]
fn parallel_matches_sequential_estimate() {
    let samples = PLANE_SAMPLES.to_vec();
    let burn_in = vec![400usize, 150, 60];

    let config = MlmcmcConfig::new(samples.clone()).with_burn_in(burn_in.clone());
    let mut pconfig = RuntimeConfig::new(samples, vec![2, 2, 1]);
    pconfig.base.burn_in = burn_in;
    let off = Tracer::disabled();
    // the two are independent: the sequential driver runs beside the pool
    let (seq, par) = std::thread::scope(|s| {
        let seq = s.spawn(|| run_sequential(&PLANE, &config, &mut StdRng::seed_from_u64(3)));
        let par = Run::new(&PLANE, &pconfig, &off, None, None);
        let par = par.on(Placement::Pool(&Runtime::for_host()));
        (
            seq.join().expect("the sequential run"),
            par.expect("a live run"),
        )
    });

    let se = seq.expectation();
    let pe = par.report.expectation();
    let truth = [1.0, -1.0];
    for k in 0..2 {
        assert!(
            (se[k] - pe[k]).abs() < 0.15,
            "component {k}: sequential {} vs parallel {}",
            se[k],
            pe[k]
        );
        // both close to the finest target mean (1, -1)
        assert!((se[k] - truth[k]).abs() < 0.12, "sequential {k}: {}", se[k]);
        assert!((pe[k] - truth[k]).abs() < 0.12, "parallel {k}: {}", pe[k]);
    }
}
