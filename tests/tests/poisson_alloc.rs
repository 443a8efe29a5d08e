//! A warm Poisson `log_density` allocates nothing, whichever solver its
//! level runs and whichever form its `log κ` takes: the prior is taken
//! without materialising its zero mean, the prediction is interpolated
//! into a model-owned buffer, `log κ` works in model-owned scratch, and
//! both the band solve and MG-CG keep their storage between solves. A
//! warm `qoi` allocates once: the vector it returns.
//!
//! A binary of its own because it installs the counting
//! `#[global_allocator]` of `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use uq_fem::PoissonHierarchy;
use uq_mcmc::SamplingProblem;

#[test]
fn a_warm_log_density_allocates_nothing_on_either_backend() {
    // level 1 on n = 64: the largest mesh the band solve takes is n = 32;
    // level 0 (12 · 16² multiply-adds) evaluates `log κ` as the row sum,
    // level 1 by sum factorisation
    let hierarchy = PoissonHierarchy::new(12, vec![16, 64], 5);
    for (level, backend) in [(0, "direct"), (1, "mg-cg")] {
        let mut problem = hierarchy.problem(level);
        assert_eq!(problem.model().solver_name(), backend);
        let thetas: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..12).map(|i| ((i + 3 * k) as f64).sin()).collect())
            .collect();
        // the first solve sizes the Krylov workspace and the V-cycle scratch
        let warm = problem.log_density(&thetas[0]);
        assert!(warm.is_finite());
        for theta in &thetas {
            let ((count, _bytes), value) = allocations_in(|| problem.log_density(theta));
            assert_eq!(count, 0, "{backend}: log_density allocated {count} times");
            assert!(value.is_finite());
        }
        assert_eq!(problem.model().evaluations(), 5);
        problem.qoi(&thetas[0]);
        for theta in &thetas {
            let ((count, bytes), qoi) = allocations_in(|| problem.qoi(theta));
            assert_eq!((count, bytes), (1, 8 * qoi.len() as u64), "{backend}: qoi");
        }
    }
}
