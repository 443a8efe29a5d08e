//! What the multi-tenant UQ service (`uq_parallel::service`) must do
//! beyond giving a job its standalone digest at the tenant seed (the
//! conformance matrix runs the ridge through a loaded service, through a
//! preempt/resume cycle and with two tenants parked and resumed apart):
//! a remote client drives the service over TCP — admission and budget
//! denials, cancel, unknown ids — and two tenants that are separate OS
//! processes (the test binary re-executing itself) each recompute their
//! own standalone digest.
//!
//! Fixture: the tight-ridge two-level Gaussian hierarchy (fine
//! `N(0.35, 0.12²)`, coarse `N(0, 0.15²)`, `ρ = 2`) in its deterministic
//! regime.

use std::env;
use std::sync::Arc;

use uq_mlmcmc::ledger::tenant_seed;
use uq_parallel::{
    JobSpec, JobState, RuntimeConfig, Service, ServiceClient, ServiceConfig, Tracer,
};

#[path = "common/reexec.rs"]
mod reexec;
#[path = "common/ridge.rs"]
mod ridge;
use reexec::{expect_success, spawn_self};
use ridge::{deterministic, pool_digest, Ridge};

fn job(tenant: u64, config: &RuntimeConfig) -> JobSpec {
    JobSpec {
        tenant,
        priority: 1.0,
        model: "ridge".to_string(),
        config: config.clone(),
        deadline: 0.0,
    }
}

/// Standalone reference digest at the job's *effective* (tenant) seed —
/// what the service must reproduce bit-for-bit.
fn standalone_digest(config: &RuntimeConfig, tenant: u64) -> u64 {
    let mut at_tenant_seed = config.clone();
    at_tenant_seed.base.seed = tenant_seed(config.base.seed, tenant);
    pool_digest(&at_tenant_seed)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uq-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn remote_client_lifecycle_cancel_and_denials() {
    let base = deterministic(250, 80, 12_2026);
    let reference = standalone_digest(&base, 42);

    let dir = fresh_dir("remote");
    let tracer = Tracer::new();
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.max_jobs_per_tenant = 2;
    svc_cfg.lanes = 1;
    svc_cfg.pool_workers = 1;
    svc_cfg.quantum = 5;
    let mut service = Service::start(svc_cfg, &tracer);
    service.register_model("ridge", Arc::new(Ridge));
    let addr = service.listen("127.0.0.1:0").expect("listen").to_string();

    let mut client = ServiceClient::connect(&addr).expect("connect");

    // unknown model is denied over the wire
    let mut bogus = job(42, &base);
    bogus.model = "no-such-model".to_string();
    let denied = client.submit(bogus).expect("io").expect_err("must deny");
    assert!(denied.contains("unknown model"), "got: {denied}");

    // an impossible deadline is denied by admission (the job simulated on
    // the measured load)
    let mut rushed = job(42, &base);
    rushed.deadline = 1e-12;
    let denied = client.submit(rushed).expect("io").expect_err("must deny");
    assert!(denied.contains("admission denied"), "got: {denied}");

    // a real submit completes with the standalone digest
    let (id, predicted) = client.submit(job(42, &base)).expect("io").expect("admit");
    assert!(predicted > 0.0, "admission must predict a positive tte");
    let done = client.wait(id).expect("io");
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(
        done.digest, reference,
        "remote job diverged from standalone"
    );

    // budget: tenant 42 has one terminal job; two more — long enough to
    // still be live when the next submit lands — fill the budget, the
    // third is turned away
    let long = deterministic(60_000, 20_000, 12_2026);
    let (second, _) = client.submit(job(42, &long)).expect("io").expect("admit");
    let (third, _) = client.submit(job(42, &long)).expect("io").expect("admit");
    let denied = client
        .submit(job(42, &base))
        .expect("io")
        .expect_err("budget exhausted");
    assert!(denied.contains("budget"), "got: {denied}");

    // cancel always frees the budget — whichever state the jobs are in
    assert!(client.cancel(second).expect("io"));
    assert!(client.cancel(third).expect("io"));
    for id in [second, third] {
        let st = client.wait(id).expect("io");
        assert_eq!(st.state, JobState::Cancelled, "job {id}");
    }
    let (again, _) = client
        .submit(job(42, &base))
        .expect("io")
        .expect("budget freed by the cancels");
    // a short job may complete before the cancel lands: cancel succeeds
    // exactly when the job then ends cancelled
    let cancelled = client.cancel(again).expect("io");
    let end = client.wait(again).expect("io").state;
    assert!(
        matches!(end, JobState::Cancelled | JobState::Completed),
        "job {again} ended {end:?}"
    );
    assert_eq!(cancelled, end == JobState::Cancelled, "job {again}");

    // unknown ids answer cleanly
    assert!(client.status(9_999).expect("io").is_none());
    assert!(!client.cancel(9_999).expect("io"));
    assert!(!client.resume(9_999).expect("io"));

    client.bye().expect("orderly goodbye");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// tenants as separate OS processes (`common/reexec.rs`)
// ---------------------------------------------------------------------

const TENANT_ENV: &str = "UQ_SVC_TENANT";
const ADDR_ENV: &str = "UQ_SVC_ADDR";

#[test]
fn tenant_processes_get_their_standalone_digests_over_tcp() {
    let base = deterministic(400, 150, 18_2026);
    if let Ok(tenant) = env::var(TENANT_ENV) {
        // a tenant's process: submit, wait the job out, recompute the
        // standalone run at the tenant seed here and compare to the bit
        let tenant: u64 = tenant.parse().expect("UQ_SVC_TENANT must be a tenant id");
        let addr = env::var(ADDR_ENV).expect("tenant process without UQ_SVC_ADDR");
        let mut client = ServiceClient::connect(&addr).expect("connect");
        let (id, _) = client
            .submit(job(tenant, &base))
            .expect("io")
            .expect("admit");
        let done = client.wait(id).expect("io");
        assert_eq!(done.state, JobState::Completed);
        assert_eq!(done.seed, tenant_seed(base.base.seed, tenant));
        assert_eq!(
            done.digest,
            standalone_digest(&base, tenant),
            "tenant {tenant}: remote digest diverged from the standalone run"
        );
        client.bye().expect("orderly goodbye");
        return;
    }

    let dir = fresh_dir("procs");
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.lanes = 2;
    svc_cfg.pool_workers = 2;
    let mut service = Service::start(svc_cfg, &Tracer::new());
    service.register_model("ridge", Arc::new(Ridge));
    let addr = service.listen("127.0.0.1:0").expect("listen").to_string();

    let tenants = ["1", "2"].map(|tenant| {
        spawn_self(
            "tenant_processes_get_their_standalone_digests_over_tcp",
            &[(TENANT_ENV, tenant), (ADDR_ENV, &addr)],
        )
    });
    for tenant in tenants {
        expect_success(tenant, "tenant process");
    }
    // a goodbye is counted before it is answered, and both tenants have
    // read their answers and exited
    assert_eq!(service.remote_byes(), 2);
    assert_eq!(service.per_tenant_serves().len(), 2, "one book per tenant");

    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
