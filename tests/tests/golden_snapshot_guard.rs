//! Format-version compatibility guard: a snapshot committed to the
//! repository at format version 1 must keep decoding — bit-for-bit —
//! on every future revision of the codec. Any change to the wire
//! layout must either keep these bytes valid or bump
//! `store::FORMAT_VERSION` (and add a new golden alongside this one);
//! silently re-interpreting old snapshots is the failure mode this
//! test exists to catch.
//!
//! Regenerate (only after an *intentional* format bump) with:
//! `UQ_WRITE_GOLDEN=1 cargo test -p uq-tests --test golden_snapshot_guard`

use std::collections::{HashMap, VecDeque};
use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample, SourceState};
use uq_mlmcmc::estimator::{LevelReport, Term};
use uq_mlmcmc::ledger::{LedgerBook, LedgerStats, ServeOutcome, Session, Speculation};
use uq_mlmcmc::store::{
    decode_snapshot, encode_snapshot, fnv1a, Backend, ChainCkpt, CollectorCkpt, RunSnapshot,
    SequentialCkpt,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_v1.snap");
const GOLDEN_CONFIG: u64 = 0x5EED_CAFE_F00D_0001;

fn cs(theta: f64, ld: f64) -> CoarseSample {
    CoarseSample::plain(vec![theta], ld, vec![theta])
}

/// The pinned snapshot: fixed values through every branch of the codec
/// — nested anchors and mates, a recursive sequential source, parked
/// speculation, sharded collector moments, and a mid-term sequential
/// cursor with one completed level.
fn golden() -> RunSnapshot {
    let anchor = CoarseSample {
        theta: vec![0.125, -2.5],
        log_density: -3.75,
        qoi: Some(vec![0.125].into()),
        sub_anchor: Some(Box::new(cs(-0.5, -1.0))),
        mate: Some(Box::new(cs(0.25, -0.125))),
    };
    let chain = ChainState {
        steps: 421,
        accepted: 137,
        theta: vec![0.75, -0.375],
        log_density: -2.25,
        qoi: vec![0.75].into(),
        anchor: Some(anchor.clone()),
        last_coarse: Some(cs(0.0625, -4.5)),
        last_pairing: None,
        source: Some(Box::new(SourceState {
            session_seed: Some(0xDEAD_BEEF),
            serves: 97,
            diverged_serves: 3,
            pairing: Some(cs(1.5, -0.25)),
            chain: ChainState {
                steps: 850,
                accepted: 512,
                theta: vec![-1.0],
                log_density: -0.5,
                qoi: vec![-1.0].into(),
                anchor: None,
                last_coarse: None,
                last_pairing: None,
                source: None,
            },
        })),
    };
    RunSnapshot {
        backend: Backend::Runtime,
        seed: 0x1234_5678_9ABC_DEF0,
        samples_done: 275,
        chains: vec![ChainCkpt {
            rank: 4,
            level: 1,
            burnin_left: 7,
            producing: true,
            done_levels: vec![false, true],
            shard_rr: 2,
            rng: [1, 2, 3, 0xFFFF_FFFF_FFFF_FFFF],
            chain: chain.clone(),
        }],
        collectors: vec![CollectorCkpt {
            level: 0,
            shard: 1,
            count: 275,
            moments: Some(VectorMoments::from_parts(&[(275, 0.35, 12.25)])),
            theta_samples: vec![vec![0.5], vec![-0.5]],
            correction_pairs: vec![(vec![0.0], vec![0.35])],
        }],
        ledger: Some(LedgerBook {
            sessions: HashMap::from([(
                (5, 0),
                Session {
                    seed: 0xFEED_F00D,
                    serves: 41,
                    pairing: Some(cs(0.875, -1.5)),
                    next_anchor: Some(cs(-0.875, -2.0)),
                    spec_inflight: None,
                    spec: Some(Speculation {
                        serves: 42,
                        outcome: ServeOutcome {
                            proposal: cs(0.9375, -1.25),
                            pairing: cs(-0.9375, -1.75),
                            diverged: true,
                        },
                    }),
                    spec_backoff: 2,
                    spec_cooldown: 1,
                    real_inflight: false,
                },
            )]),
            generations: HashMap::from([((5, 0), 2)]),
            candidates: HashMap::from([(0, VecDeque::from([5]))]),
            stats: LedgerStats {
                sessions: 1,
                serves: 41,
                diverged: 3,
                spec_launched: 9,
                spec_hits: 6,
                spec_misses: 2,
            },
        }),
        sequential: Some(SequentialCkpt {
            level: 1,
            term: Term {
                samples_done: 75,
                moments: VectorMoments::from_parts(&[(75, 0.349, 0.81)]),
                rep_trace: vec![0.3, 0.4, 0.35],
                theta_samples: vec![vec![0.3]],
                qoi_samples: vec![vec![0.3]],
                correction_pairs: vec![(vec![0.28], vec![0.33])],
            },
            chain,
            rng: [11, 13, 17, 19],
            completed: vec![LevelReport {
                level: 0,
                n_samples: 200,
                acceptance_rate: 0.4375,
                mean_correction: vec![0.01],
                var_correction: vec![0.0225],
                iact: 4.5,
                evaluations: 0,
                mean_eval_ms: 0.0,
                theta_samples: vec![vec![0.0]],
                qoi_samples: vec![vec![0.0]],
                correction_pairs: vec![],
            }],
            eval_offsets: vec![900, 300],
        }),
    }
}

#[test]
fn committed_golden_snapshot_still_decodes() {
    let expected = golden();
    if std::env::var("UQ_WRITE_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, encode_snapshot(&expected, GOLDEN_CONFIG)).unwrap();
    }
    let bytes = std::fs::read(GOLDEN_PATH)
        .expect("committed golden snapshot missing — see module docs to regenerate");
    let (snap, config) = decode_snapshot(&bytes)
        .expect("format break: the committed v1 golden snapshot no longer decodes");
    assert_eq!(config, GOLDEN_CONFIG, "golden header config hash drifted");
    assert_eq!(snap, expected, "golden snapshot decoded to different state");
    // the codec must also still *produce* the identical bytes, or every
    // content address ever recorded in a manifest would silently dangle
    assert_eq!(
        encode_snapshot(&snap, config),
        bytes,
        "re-encoding the golden state no longer reproduces the committed bytes"
    );
    assert_eq!(
        format!("{:016x}", fnv1a(&bytes)),
        format!("{:016x}", fnv1a(&encode_snapshot(&expected, GOLDEN_CONFIG))),
        "golden content address drifted"
    );
}
