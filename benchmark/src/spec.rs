//! The benchmark's catalogue: workload rationales, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! restates it for the driver; a self-test keeps the two in step.

use crate::workloads::Kind;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`): eight
/// (`tsunami_seq`) to twenty repetitions of 0.8–2 s. The driver makes 114
/// runs inside 3420 s including their set-ups and two builds, so a run
/// may average 28 s; at 16 s measured it averages ≈ 19 s.
pub const RUN_SECONDS: u64 = 16;

/// The `--seed` used when none is given.
pub const DEFAULT_SEED: u64 = 20210730;

pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::TsunamiSeq => {
            "run_sequential on the 3-level tsunami hierarchy: swe is >95% of the work and parallel none; the plain single-threaded baseline"
        }
        Kind::PoissonRuntime => {
            "run_runtime, 6 chains on 2 workers, Poisson m=113 n=16/32/64: fem+linalg dominate the CPU; solver work shows here, protocol work should not"
        }
        Kind::RanksRuntime => {
            "run_runtime, 132 virtual ranks on 2 workers, microsecond evals: runtime/roles/ledger dominate; scheduling work shows here, kernel work must not"
        }
        Kind::PoissonNet => {
            "driver + worker over loopback TCP: the blocking scheduler roles, the UQNETFR codec and sockets carry the same protocol the runtime workloads use"
        }
        Kind::ServiceMix => {
            "closed loop of 16 jobs from 4 tenants through Service: dispatch, fair share and a RunStore checkpoint every 50 samples; the only workload that pays core::store"
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, reported by every workload with
/// tracing off. The bounds are the contract's widest: the driver refuses
/// a benchmark whose ten-seed spread exceeds its bound, and the widest
/// seen here was 16 % (README, "A/A check"); `aa` checks that they hold.
pub const END_TO_END: [Metric; 3] = [
    e2e("tte_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
];

/// Single-layer numbers, reported by every workload in the traced pass.
/// A rung or counter of a layer that is not on a workload's path reads 0
/// there (e.g. every `net.*` counter outside `poisson_net`).
pub const PER_LAYER: [Metric; 73] = [
    // linalg (ladder)
    lower("linalg.dot_n4225_ns", "ns"),
    lower("linalg.axpy_n4225_ns", "ns"),
    lower("linalg.spmv_n64_ns", "ns"),
    lower("linalg.vcycle_n64_us", "us"),
    lower("linalg.mgcg_n64_us", "us"),
    lower("linalg.mgcg_iters_n16", "count"),
    lower("linalg.mgcg_iters_n32", "count"),
    lower("linalg.mgcg_iters_n64", "count"),
    // randfield / fem (ladder)
    lower("randfield.kappa_n64_us", "us"),
    lower("fem.forward_n16_us", "us"),
    lower("fem.forward_n32_us", "us"),
    lower("fem.forward_n64_us", "us"),
    lower("fem.hierarchy_build_s", "s"),
    // swe (ladder)
    lower("swe.step_l0_us", "us"),
    lower("swe.step_l1_us", "us"),
    lower("swe.step_l2_us", "us"),
    lower("swe.forward_l0_ms", "ms"),
    lower("swe.forward_l1_ms", "ms"),
    lower("swe.forward_l2_ms", "ms"),
    lower("swe.steps_l2", "count"),
    lower("swe.hierarchy_build_s", "s"),
    // mcmc / core (ladder + traced)
    lower("mcmc.step_ns", "ns"),
    lower("core.chain_overhead_frac", "frac"),
    lower("core.seq_ref_s", "s"),
    lower("core.snapshot_bytes", "bytes"),
    lower("core.snapshot_encode_us", "us"),
    lower("core.snapshot_decode_us", "us"),
    lower("core.store_put_ms", "ms"),
    // every workload (traced, the benchmark's own factory wrapper)
    lower("eval.busy_s_l0", "s"),
    lower("eval.busy_s_l1", "s"),
    lower("eval.busy_s_l2", "s"),
    lower("eval.count_l0", "count"),
    lower("eval.count_l1", "count"),
    lower("eval.count_l2", "count"),
    lower("overhead.cpu_frac", "frac"),
    lower("overhead.idle_frac", "frac"),
    lower("obs.overhead_x", "x"),
    lower("raw.tte_s", "s"),
    lower("raw.cpu_s", "s"),
    lower("host.slowdown_x", "x"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.spin_ref_ms", "ms"),
    lower("host.mem_ref_ms", "ms"),
    // parallel::runtime + roles (RuntimeReport)
    lower("runtime.polls", "count"),
    lower("runtime.wakeups", "count"),
    lower("runtime.steals", "count"),
    lower("runtime.dropped_sends", "count"),
    lower("phonebook.messages", "count"),
    higher("phonebook.mean_batch", "msg/wakeup"),
    lower("phonebook.routed", "count"),
    lower("ledger.serves", "count"),
    lower("ledger.diverged_frac", "frac"),
    lower("ledger.spec_launched", "count"),
    higher("ledger.spec_hit_rate", "frac"),
    higher("runtime.strong_eff_w2", "frac"),
    // parallel::net + core::wire
    lower("net.frame_encode_ns", "ns"),
    lower("net.frame_decode_ns", "ns"),
    lower("net.frames_out", "count"),
    lower("net.bytes_out", "bytes"),
    lower("net.bytes_per_serve", "bytes"),
    lower("net.overhead_x", "x"),
    // parallel::service
    higher("service.jobs_per_s", "1/s"),
    lower("service.job_tte_p50_s", "s"),
    lower("service.job_tte_p90_s", "s"),
    lower("service.queue_wait_p50_s", "s"),
    lower("service.snapshots", "count"),
    lower("service.store_bytes", "bytes"),
    lower("service.des_ratio_p50", "x"),
    higher("service.share_hi_over_lo", "x"),
    lower("service.jobs_rejected", "count"),
    lower("service.frame_roundtrip_ns", "ns"),
    // the repetition counts behind the medians above
    higher("bench.reps_untraced", "count"),
    higher("bench.reps_traced", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Names the driver accepts: a letter or digit first, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units the driver accepts: at most 16 of letters, digits and `_/%.-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for kind in Kind::ALL {
            assert!(valid_name(kind.name()), "workload {}", kind.name());
            assert!(seen.insert(kind.name()), "duplicate {}", kind.name());
            let why = why(kind);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {}",
                kind.name()
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "metric {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("é"));
        assert!(valid_name("0a.b-c_d") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("msg per s"));
    }

    /// `BENCHMARK.json` must restate exactly this catalogue.
    #[test]
    fn benchmark_json_restates_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
        assert_eq!(paths, [Value::Str("benchmark".into())]);
        for arg in doc.get("command").and_then(Value::as_arr).expect("command") {
            let arg = arg.as_str().expect("command strings");
            assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        }

        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Kind::ALL.len());
        for (entry, kind) in workloads.iter().zip(Kind::ALL) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(kind.name()));
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(why(kind)));
        }

        let check = |key: &str, catalogue: &[Metric]| {
            let listed = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, m) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }
}
