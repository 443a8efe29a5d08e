//! **Ablation: coarsest-level proposal family** (DESIGN.md §5.4).
//!
//! Compares Gaussian random walk, pCN, independence sampling and
//! Adaptive Metropolis on the Poisson level-0 posterior (113-dimensional
//! KL coefficients): acceptance rate, IACT of a representative QOI
//! component and effective samples per model evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uq_bench::{render_table, to_csv, write_output, ExpArgs};
use uq_fem::problem::constants;
use uq_fem::PoissonHierarchy;
use uq_mcmc::stats::{effective_sample_size, integrated_autocorrelation_time};
use uq_mcmc::{
    AdaptiveMetropolis, Chain, ChainConfig, GaussianRandomWalk, IndependenceProposal, PcnProposal,
    Proposal,
};

fn main() {
    let args = ExpArgs::parse();
    let (m, level_n, n_samples) = if args.paper {
        (constants::PARAM_DIM, vec![16], 20_000)
    } else {
        (constants::PARAM_DIM, vec![16], 4_000)
    };
    println!("Ablation — coarsest-level proposals on the Poisson level-0 posterior (m = {m})\n");
    let hierarchy = PoissonHierarchy::new(m, level_n, args.seed);
    let rep = 16 * 33 + 16; // center of the QOI grid

    let proposals: Vec<(&str, Box<dyn Proposal>)> = vec![
        ("RW sd=0.05", Box::new(GaussianRandomWalk::new(0.05))),
        ("RW sd=0.2", Box::new(GaussianRandomWalk::new(0.2))),
        (
            "pCN beta=0.08",
            Box::new(PcnProposal::new(0.08, vec![0.0; m], constants::PRIOR_SD)),
        ),
        (
            "pCN beta=0.25",
            Box::new(PcnProposal::new(0.25, vec![0.0; m], constants::PRIOR_SD)),
        ),
        (
            "indep N(0,3I)",
            Box::new(IndependenceProposal::isotropic(vec![0.0; m], 3f64.sqrt())),
        ),
        ("AM sd=0.1", Box::new(AdaptiveMetropolis::new(m, 0.1, 100))),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (i, (name, proposal)) in proposals.into_iter().enumerate() {
        let problem = hierarchy.problem(0);
        let mut chain = Chain::new(
            problem,
            proposal,
            vec![0.0; m],
            ChainConfig::with_burn_in(n_samples / 10),
        );
        let mut rng = StdRng::seed_from_u64(args.seed + i as u64);
        chain.run(n_samples, &mut rng);
        let trace = chain.qoi_trace(rep);
        let iact = integrated_autocorrelation_time(&trace);
        let ess = effective_sample_size(&trace);
        let evals = chain.steps_taken() as f64;
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", chain.acceptance_rate()),
            format!("{:.1}", iact),
            format!("{:.1}", ess),
            format!("{:.4}", ess / evals),
        ]);
        csv.push(vec![
            i as f64,
            chain.acceptance_rate(),
            iact,
            ess,
            ess / evals,
        ]);
    }
    println!(
        "{}",
        render_table(&["proposal", "accept", "IACT", "ESS", "ESS/eval"], &rows)
    );
    // what this run's own table shows, and no more: one short chain per
    // proposal and seed is too noisy to rank them
    let range = |col: usize| {
        let values = csv.iter().map(|r| r[col]);
        let lo = values.clone().fold(f64::INFINITY, f64::min);
        (lo, values.fold(f64::NEG_INFINITY, f64::max))
    };
    let ((iact_lo, iact_hi), (ess_lo, ess_hi)) = (range(2), range(3));
    println!("\nIACT ranges {iact_lo:.0}–{iact_hi:.0} across the proposals, i.e. {ess_lo:.1}–{ess_hi:.1}");
    println!("effective samples from {n_samples} evaluations each. One short chain per");
    println!("proposal is too noisy to rank them, so this table chooses no default.");
    write_output(
        &args.out_dir,
        "ablation_proposals.csv",
        &to_csv("variant,acceptance,iact,ess,ess_per_eval", &csv),
    );
}
