//! Proptest-driven chaos fuzz of the **multi-tenant UQ service**
//! (`uq_parallel::service`): arbitrary interleavings of submit / cancel
//! / preempt / resume / quiesce driven against a live service with
//! tiny jobs, checked against an independent mirror of the admission
//! and lifecycle rules. The invariants are the tenant-isolation
//! guarantees the service sells:
//!
//! * **no cross-tenant seed/ledger leakage** — every job runs at
//!   exactly `tenant_seed(base, tenant)`, two tenants never share a
//!   namespace, and every completed job of a tenant lands on the one
//!   standalone digest for that tenant, no matter what the chaos did
//!   around it;
//! * **cancel always frees the budget and never strands a job** — an
//!   accepted cancel always ends `Cancelled`, a below-budget submit is
//!   never denied, and once the dust settles every tenant can admit a
//!   fresh job again;
//! * **nothing is ever stranded** — after draining (resuming any
//!   preempted jobs), every job the chaos created is terminal, and the
//!   measured per-tenant serve books equal the sum of their jobs'
//!   serves.
//!
//! Inputs are op-code vectors from the vendored proptest's `vec` +
//! tuple strategies, so a failing interleaving shrinks structurally to
//! a minimal counterexample with a replayable `PROPTEST_SEED`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use uq_mcmc::problem::GaussianTarget;
use uq_mcmc::proposal::GaussianRandomWalk;
use uq_mcmc::{Proposal, SamplingProblem};
use uq_mlmcmc::ledger::tenant_seed;
use uq_mlmcmc::LevelFactory;
use uq_parallel::{
    levels_digest, run_parallel, Counter, JobSpec, JobState, ParallelConfig, RuntimeConfig,
    Service, ServiceConfig, Tracer,
};

const BASE_SEED: u64 = 99;
const N_TENANTS: u64 = 3;
const BUDGET: usize = 2;

struct TwoLevel;

impl LevelFactory for TwoLevel {
    fn n_levels(&self) -> usize {
        2
    }
    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(GaussianTarget::new(vec![[0.0, 0.3][level]], 0.5))
    }
    fn proposal(&self, _level: usize) -> Box<dyn Proposal> {
        Box::new(GaussianRandomWalk::new(0.4))
    }
    fn subsampling_rate(&self, _level: usize) -> usize {
        2
    }
    fn starting_point(&self, _level: usize) -> Vec<f64> {
        vec![0.0]
    }
}

/// A deliberately tiny job so dozens run per fuzz case.
fn tiny_config() -> ParallelConfig {
    let mut config = ParallelConfig::new(vec![6, 3], vec![1, 1]);
    config.burn_in = vec![2, 1];
    config.seed = BASE_SEED;
    config.load_balancing = false;
    config.record_samples = true;
    config
}

fn tiny_job(tenant: u64) -> JobSpec {
    JobSpec {
        tenant,
        priority: 1.0 + tenant as f64,
        model: "two-level".to_string(),
        config: RuntimeConfig {
            base: tiny_config(),
            n_workers: 1,
            collector_shards: 1,
        },
        deadline: 0.0,
    }
}

/// The one standalone digest per tenant — what every completed serviced
/// job must reproduce regardless of the surrounding chaos.
fn expected_digests() -> &'static [u64; N_TENANTS as usize] {
    static DIGESTS: OnceLock<[u64; N_TENANTS as usize]> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        std::array::from_fn(|t| {
            let mut config = tiny_config();
            config.seed = tenant_seed(BASE_SEED, t as u64);
            levels_digest(&run_parallel(&TwoLevel, &config, &Tracer::disabled()).levels)
        })
    })
}

/// Mirror record of one job the chaos created.
struct MirrorJob {
    tenant: u64,
    cancel_accepted: bool,
}

proptest! {
    #[test]
    fn chaos_never_leaks_across_tenants_or_strands_a_job(
        ops in prop::collection::vec((0u8..6, 0u8..(N_TENANTS as u8), 0u8..8), 0..32),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "uq-svc-fuzz-{}-{:x}",
            std::process::id(),
            ops.iter().fold(0u64, |h, &(a, b, c)| {
                h.wrapping_mul(31).wrapping_add(u64::from(a) << 8 | u64::from(b) << 4 | u64::from(c))
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new();
        let mut cfg = ServiceConfig::new(&dir);
        cfg.lanes = 2;
        cfg.pool_workers = 2;
        cfg.quantum = 2;
        cfg.max_jobs_per_tenant = BUDGET;
        let service = Service::start(cfg, &tracer);
        service.register_model("two-level", Arc::new(TwoLevel));

        let mut mirror: BTreeMap<u64, MirrorJob> = BTreeMap::new();
        let mut admitted = 0u64;
        let mut rejected = 0u64;

        for (op, tenant, pick) in ops {
            let tenant = u64::from(tenant);
            // the pick operand addresses one of the jobs created so far
            let picked = mirror
                .keys()
                .copied()
                .nth(pick as usize % mirror.len().max(1));
            match op {
                // submit for the op's tenant
                0 | 1 => match service.submit(tiny_job(tenant)) {
                    Ok((id, predicted)) => {
                        admitted += 1;
                        prop_assert!(predicted > 0.0, "admission must predict a positive tte");
                        mirror.insert(id, MirrorJob { tenant, cancel_accepted: false });
                    }
                    Err(reason) => {
                        rejected += 1;
                        // only the budget can deny a valid spec here
                        // (deadline 0, registered model, sane config) —
                        // and never below the tenant's total submissions
                        prop_assert!(reason.contains("budget"), "unexpected denial: {}", reason);
                        prop_assert!(
                            mirror.values().filter(|j| j.tenant == tenant).count() >= BUDGET,
                            "denied tenant {} below its budget", tenant
                        );
                    }
                },
                // a submit that fails validation is always denied
                2 => {
                    let mut bad = tiny_job(tenant);
                    bad.priority = 0.0;
                    prop_assert!(service.submit(bad).is_err(), "zero priority must be denied");
                    rejected += 1;
                }
                // cancel a picked job
                3 => {
                    let Some(id) = picked else { continue };
                    let job = mirror.get_mut(&id).expect("picked from mirror");
                    if service.cancel(id) {
                        job.cancel_accepted = true;
                    } else {
                        // refusal means the job was already terminal —
                        // and terminal states never change
                        let st = service.status(id).expect("known job").state;
                        prop_assert!(st.is_terminal(), "cancel refused on live job in {:?}", st);
                    }
                }
                // preempt a picked job (only running jobs accept)
                4 => {
                    let Some(id) = picked else { continue };
                    let _ = service.preempt(id);
                }
                // resume a picked job; acceptance implies it was parked,
                // which a cancel-accepted job can never be
                _ => {
                    let Some(id) = picked else { continue };
                    if service.resume(id) {
                        prop_assert!(
                            !mirror[&id].cancel_accepted,
                            "a cancelled job resurfaced via resume"
                        );
                    }
                }
            }
        }

        // drain: wait the queue out, then resume anything parked until
        // every job is terminal (a resumed job runs unopposed, so this
        // converges in one pass per preemption depth)
        for _ in 0..16 {
            service.quiesce();
            let parked: Vec<u64> = mirror
                .keys()
                .copied()
                .filter(|&id| {
                    service.status(id).expect("known job").state == JobState::Preempted
                })
                .collect();
            if parked.is_empty() {
                break;
            }
            for id in parked {
                prop_assert!(service.resume(id), "parked job refused resume");
            }
        }

        // end-state: nothing stranded, cancels honored, tenants sealed
        let digests = expected_digests();
        let mut serves_by_tenant: BTreeMap<u64, u64> = BTreeMap::new();
        for (&id, job) in &mirror {
            let status = service.status(id).expect("known job");
            prop_assert!(
                status.state.is_terminal(),
                "job {} stranded in {:?}", id, status.state
            );
            prop_assert!(
                status.seed == tenant_seed(BASE_SEED, job.tenant),
                "job {} escaped its tenant namespace", id
            );
            if job.cancel_accepted {
                prop_assert!(
                    status.state == JobState::Cancelled,
                    "accepted cancel did not stick on job {}", id
                );
            }
            if status.state == JobState::Completed {
                prop_assert!(!job.cancel_accepted, "cancelled job {} completed", id);
                prop_assert!(
                    status.digest == digests[job.tenant as usize],
                    "job {} of tenant {} diverged from the standalone digest",
                    id, job.tenant
                );
            }
            *serves_by_tenant.entry(job.tenant).or_insert(0) += status.serves;
        }

        // the service's per-tenant books equal the sum over its jobs
        let books: BTreeMap<u64, u64> = service.per_tenant_serves().into_iter().collect();
        for (tenant, &sum) in &serves_by_tenant {
            if sum > 0 {
                prop_assert_eq!(books.get(tenant).copied().unwrap_or(0), sum);
            }
        }

        // cancel always frees the budget: with everything terminal,
        // every tenant admits again
        for tenant in 0..N_TENANTS {
            let (probe, _) = service
                .submit(tiny_job(tenant))
                .expect("terminal jobs must not hold budget");
            admitted += 1;
            let done = service.wait(probe);
            prop_assert_eq!(done.state, JobState::Completed);
            prop_assert_eq!(done.digest, digests[tenant as usize]);
        }

        // the service counters saw exactly what the mirror saw
        prop_assert_eq!(tracer.counter(Counter::JobsAdmitted), admitted);
        prop_assert_eq!(tracer.counter(Counter::JobsRejected), rejected);

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
