//! The cost model and report of the simulated scaling studies.
//!
//! The live executors are bounded by the physical core count; the paper's
//! scaling studies run up to 1024 ranks. [`simulate`] runs a [`DesConfig`]
//! as the **shipped role machines** under the virtual-time executor
//! ([`crate::sim`], through [`run_simulated`]): a stand-in Gaussian target
//! supplies the accept/reject dynamics, an evaluation costs the config's
//! per-level time, and serves, speculation and load balancing cost what
//! [`crate::roles`] makes them cost. No policy is restated here.

use crate::obs::Tracer;
use crate::roles::{run_simulated, RuntimeConfig, SimCost, StandIn};
use crate::sim::SimError;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// Mean model-evaluation time per level (seconds).
    pub eval_time: Vec<f64>,
    /// Lognormal jitter σ applied to each evaluation (0 = deterministic).
    pub eval_jitter: f64,
    /// Target samples per level.
    pub samples_per_level: Vec<usize>,
    /// Burn-in steps per (re)built chain, per level.
    pub burn_in: Vec<usize>,
    /// Subsampling rate ρ_l (serving stride), per level.
    pub subsampling: Vec<usize>,
    /// Initial chain count per level.
    pub chains_per_level: Vec<usize>,
    /// Phonebook service time per message it handles (seconds); the
    /// phonebook is a serialized resource, so this models the
    /// communication bound seen at the largest rank counts.
    pub phonebook_service_time: f64,
    /// Bookkeeping time per message at a per-level collector rank
    /// (seconds), surplus corrections included. Each collector is
    /// serialized: a level whose chains send faster than
    /// `1/collector_service_time` queues up without bound until
    /// `StopProducing` reaches them — the effect behind the paper's
    /// weak-scaling efficiency drop at 1024 ranks.
    pub collector_service_time: f64,
    /// Enable idle-chain reassignment (dynamic load balancing).
    pub load_balancing: bool,
    pub seed: u64,
}

impl DesConfig {
    /// `Err` names the first per-level vector that is not as long as
    /// `samples_per_level` (every one of them, in a hierarchy of no levels).
    pub fn validate(&self) -> Result<(), &'static str> {
        let n_levels = self.samples_per_level.len();
        let lengths = [
            ("eval_time", self.eval_time.len()),
            ("burn_in", self.burn_in.len()),
            ("subsampling", self.subsampling.len()),
            ("chains_per_level", self.chains_per_level.len()),
        ];
        let wrong = |&(_, len): &(_, usize)| len != n_levels || n_levels == 0;
        lengths
            .into_iter()
            .find(wrong)
            .map_or(Ok(()), |(which, _)| Err(which))
    }
}

/// Simulation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct DesResult {
    /// Virtual wall-clock time until the root assembled its report.
    pub makespan: f64,
    /// Model evaluations performed per level.
    pub evals_per_level: Vec<usize>,
    /// Chain-group reassignments performed.
    pub reassignments: usize,
    /// Fraction of chain-time spent evaluating models (utilization).
    pub busy_fraction: f64,
    /// Busy (evaluating/serving) chain-seconds attributed to each level —
    /// the virtual-time counterpart of the live tracer's per-level
    /// activity split (`scaling_live` compares the two level by level).
    pub busy_per_level: Vec<f64>,
}

/// Run the simulation.
///
/// # Panics
/// Panics on a configuration [`DesConfig::validate`] rejects.
pub fn simulate(config: &DesConfig) -> DesResult {
    simulate_within(config, usize::MAX).expect("an unbounded simulated run finishes")
}

/// [`simulate`], abandoned with [`SimError::PollBudget`] once it has
/// taken `poll_budget` polls — the cap for callers simulating on behalf
/// of somebody else (admission).
pub fn simulate_within(config: &DesConfig, poll_budget: usize) -> Result<DesResult, SimError> {
    if let Err(which) = config.validate() {
        panic!("DesConfig: `{which}` does not fit the hierarchy");
    }
    let levels = 1..=config.samples_per_level.len() as i32;
    let model = StandIn {
        means: levels.clone().map(|l| 1.0 - 0.5f64.powi(l)).collect(),
        sds: levels.map(|l| 0.5 + 0.5f64.powi(l + 1)).collect(),
        rho: config.subsampling.clone(),
    };
    let (samples, chains) = (&config.samples_per_level, &config.chains_per_level);
    let mut run = RuntimeConfig::new(samples.clone(), chains.clone());
    run.base.burn_in = config.burn_in.clone();
    run.base.load_balancing = config.load_balancing;
    run.base.seed = config.seed;
    let cost = SimCost {
        eval_time: config.eval_time.clone(),
        eval_jitter: config.eval_jitter,
        phonebook_service_time: config.phonebook_service_time,
        collector_service_time: config.collector_service_time,
        latency: 0.0,
        poll_budget,
    };
    let off = Tracer::disabled();
    let out = run_simulated(&model, &run, &off, &cost, config.seed, None, None)?;
    let report = &out.run.report;
    let chain_time = report.elapsed * chains.iter().sum::<usize>() as f64;
    let busy: f64 = out.busy_per_level.iter().sum();
    Ok(DesResult {
        makespan: report.elapsed,
        evals_per_level: report.levels.iter().map(|l| l.evaluations).collect(),
        reassignments: out.run.phonebook.reassignments,
        busy_fraction: (busy / chain_time.max(f64::MIN_POSITIVE)).min(1.0),
        busy_per_level: out.busy_per_level,
    })
}

/// Distribute `n_chains` chains over levels proportionally to the optimal
/// effort share `√(V_l C_l)` (at least one chain per level).
pub fn distribute_chains(n_chains: usize, variances: &[f64], costs: &[f64]) -> Vec<usize> {
    let n_levels = variances.len();
    assert!(n_chains >= n_levels, "need at least one chain per level");
    let weights: Vec<f64> = variances
        .iter()
        .zip(costs)
        .map(|(&v, &c)| (v.max(1e-30) * c).sqrt())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out = vec![1usize; n_levels];
    let mut remaining = n_chains - n_levels;
    // largest-remainder apportionment
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n_levels);
    for (l, w) in weights.iter().enumerate() {
        let share = w / total * remaining as f64;
        let whole = share.floor() as usize;
        out[l] += whole;
        fracs.push((share - whole as f64, l));
        remaining = remaining.saturating_sub(whole);
    }
    fracs.sort_by(|a, b| b.0.total_cmp(&a.0));
    for &(_, l) in fracs.iter().take(remaining) {
        out[l] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> DesConfig {
        DesConfig {
            eval_time: vec![0.003, 0.045, 0.93],
            eval_jitter: 0.0,
            samples_per_level: vec![1000, 100, 10],
            burn_in: vec![50, 20, 10],
            subsampling: vec![10, 5, 0],
            chains_per_level: vec![2, 2, 1],
            phonebook_service_time: 1e-4,
            collector_service_time: 0.0,
            load_balancing: false,
            seed: 1,
        }
    }

    #[test]
    fn simulation_terminates_and_counts_evals() {
        let r = simulate(&base_config());
        // every level runs at least its own samples
        let own = [1000, 100, 10];
        assert!(r.makespan > 0.0 && r.evals_per_level.iter().zip(own).all(|(&e, n)| e >= n));
        // same seed, same machines: the same result to the bit
        assert_eq!(r, simulate(&base_config()));
    }

    #[test]
    fn validate_names_the_vector_that_does_not_fit() {
        let mut cfg = base_config();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.subsampling.pop();
        assert_eq!(cfg.validate(), Err("subsampling"));
    }

    #[test]
    fn subsampling_inflates_coarse_evals() {
        let r = simulate(&base_config());
        // every level-1 step needs a level-0 serve of >= 10 steps
        let evals = &r.evals_per_level;
        assert!(evals[0] >= 5 * evals[1], "evals {evals:?}");
    }

    #[test]
    fn more_chains_reduce_makespan() {
        let slow = simulate(&base_config()).makespan;
        let mut cfg = base_config();
        cfg.chains_per_level = vec![8, 4, 2];
        let fast = simulate(&cfg).makespan;
        assert!(fast < slow, "more chains, slower: {fast} vs {slow}");
    }

    #[test]
    fn strong_scaling_saturates() {
        // speedup from 4x chains at small chain counts should exceed the
        // speedup from 4x chains at very large chain counts
        let mk = |mult: usize| {
            let mut cfg = base_config();
            cfg.samples_per_level = vec![2000, 200, 20];
            cfg.chains_per_level = vec![2 * mult, mult, mult];
            simulate(&cfg).makespan
        };
        let (small, large) = (mk(1) / mk(4), mk(16) / mk(64));
        assert!(small > large, "speedups {small:.2} then {large:.2}");
    }

    #[test]
    fn phonebook_serialization_limits_throughput() {
        let mut cheap = base_config();
        cheap.samples_per_level = vec![5000, 50, 5];
        cheap.eval_time = vec![1e-4, 0.045, 0.93]; // very fast coarse model
        cheap.chains_per_level = vec![32, 2, 1];
        cheap.phonebook_service_time = 0.0;
        let free = simulate(&cheap).makespan;
        // a fine step's nested serves put some twenty phonebook messages
        // on its critical path: at 50 ms each they outweigh its 0.93 s
        // evaluation (5 ms would vanish in the spread between trajectories)
        cheap.phonebook_service_time = 5e-2;
        let congested = simulate(&cheap).makespan;
        assert!(congested > 1.25 * free, "{congested} vs {free}");
    }

    #[test]
    fn load_balancing_helps_unbalanced_allocation() {
        let mut cfg = base_config();
        cfg.samples_per_level = vec![400, 400, 40];
        // deliberately starve level 1 of chains
        cfg.chains_per_level = vec![6, 1, 1];
        let fixed = simulate(&cfg);
        cfg.load_balancing = true;
        let balanced = simulate(&cfg);
        let (with, without) = (balanced.makespan, fixed.makespan);
        assert!(with <= without * 1.05, "LB hurt: {with} vs {without}");
        assert_eq!(fixed.reassignments, 0);
        assert!(balanced.reassignments > 0, "idle chains should move");
    }

    #[test]
    fn jitter_changes_realization_not_scale() {
        let mut cfg = base_config();
        cfg.eval_jitter = 0.3;
        let a = simulate(&cfg).makespan;
        cfg.seed = 99;
        let b = simulate(&cfg).makespan;
        assert!(a != b && a / b < 3.0 && b / a < 3.0, "{a} vs {b}");
    }

    #[test]
    fn busy_fraction_is_sane() {
        let r = simulate(&base_config());
        assert!(r.busy_fraction > 0.0 && r.busy_fraction <= 1.0);
        let busy: f64 = r.busy_per_level.iter().sum();
        assert!((busy / (5.0 * r.makespan) - r.busy_fraction).abs() < 1e-12);
    }

    #[test]
    fn distribute_chains_respects_weights() {
        let chains = distribute_chains(10, &[0.15, 0.001, 0.00004], &[0.003, 0.045, 0.93]);
        assert_eq!(chains.iter().sum::<usize>(), 10);
        assert!(chains.iter().all(|&c| c >= 1));
        assert!(chains[0] >= chains[2], "coarse carries most: {chains:?}");
    }
}
