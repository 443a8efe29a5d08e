//! Format-version compatibility guard: a snapshot committed to the
//! repository at format version 3 must keep decoding — bit-for-bit —
//! on every future revision of the codec. Any change to the wire
//! layout must either keep these bytes valid or bump
//! `store::FORMAT_VERSION`, add a new golden alongside this one and
//! turn this one into the rejection fixture; silently re-interpreting
//! old snapshots is the failure mode this test exists to catch. There
//! is one reader: `golden_v2.snap`, the previous format's golden, must
//! be refused at its version field.
//!
//! Regenerate (only after an *intentional* format bump) with:
//! `UQ_WRITE_GOLDEN=1 cargo test -p uq-tests --test golden_snapshot_guard`

use std::collections::HashMap;
use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample, Cursor};
use uq_mlmcmc::estimator::{LevelReport, Term};
use uq_mlmcmc::ledger::{LedgerBook, LedgerStats, Session};
use uq_mlmcmc::store::{
    decode_snapshot, encode_snapshot, fnv1a, Backend, ChainCkpt, CollectorCkpt, RunSnapshot,
    SequentialCkpt, StoreError,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_v3.snap");
const GOLDEN_V2_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_v2.snap");
const GOLDEN_CONFIG: u64 = 0x5EED_CAFE_F00D_0001;

fn cs(theta: f64, ld: f64) -> CoarseSample {
    CoarseSample::plain(vec![theta], ld, vec![theta])
}

/// The pinned snapshot: fixed values through every branch of the codec
/// — nested anchors and mates, a ledger session, collector moments and
/// recordings, and a mid-term sequential stack of three levels (one
/// cursor pinned, one not yet seeded) with two completed levels.
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
    };
    let base = ChainState {
        steps: 850,
        accepted: 512,
        theta: vec![-1.0],
        log_density: -0.5,
        qoi: vec![-1.0].into(),
        anchor: None,
        last_coarse: None,
        last_pairing: None,
    };
    let top = ChainState {
        steps: 60,
        accepted: 21,
        theta: vec![0.5, 0.25, -0.125],
        log_density: -1.125,
        qoi: vec![0.5].into(),
        anchor: Some(CoarseSample {
            sub_anchor: Some(Box::new(anchor.clone())),
            ..cs(0.5, -2.0)
        }),
        last_coarse: Some(cs(0.375, -2.25)),
        last_pairing: Some(cs(0.4375, -2.125)),
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
            rng: [1, 2, 3, 0xFFFF_FFFF_FFFF_FFFF],
            chain: chain.clone(),
        }],
        collectors: vec![CollectorCkpt {
            level: 0,
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
                },
            )]),
            generations: HashMap::from([((5, 0), 2)]),
            stats: LedgerStats {
                sessions: 1,
                serves: 41,
                diverged: 3,
                ..LedgerStats::default()
            },
        }),
        sequential: Some(SequentialCkpt {
            level: 2,
            term: Term {
                samples_done: 75,
                moments: VectorMoments::from_parts(&[(75, 0.349, 0.81)]),
                rep_trace: vec![0.3, 0.4, 0.35],
                theta_samples: vec![vec![0.3]],
                qoi_samples: vec![vec![0.3]],
                correction_pairs: vec![(vec![0.28], vec![0.33])],
            },
            chains: vec![base, chain, top],
            cursors: vec![
                Cursor {
                    session_seed: Some(0xDEAD_BEEF),
                    serves: 97,
                    diverged_serves: 3,
                    pairing: Some(cs(1.5, -0.25)),
                },
                Cursor {
                    session_seed: None,
                    serves: 0,
                    diverged_serves: 0,
                    pairing: None,
                },
            ],
            rng: [11, 13, 17, 19],
            completed: vec![
                LevelReport {
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
                },
                LevelReport {
                    level: 1,
                    n_samples: 100,
                    acceptance_rate: 0.3125,
                    mean_correction: vec![0.33],
                    var_correction: vec![0.125],
                    iact: 2.5,
                    evaluations: 0,
                    mean_eval_ms: 0.0,
                    theta_samples: vec![vec![0.3, 0.1]],
                    qoi_samples: vec![vec![0.3]],
                    correction_pairs: vec![(vec![0.28], vec![0.33])],
                },
            ],
            eval_offsets: vec![900, 300, 60],
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
        .expect("format break: the committed v3 golden snapshot no longer decodes");
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

/// The v2 golden is the format before (a ledger session carried its
/// speculation state, the book its candidate queues and the statistics
/// their speculation counters). It must be refused at the version field,
/// never decoded into a snapshot.
#[test]
fn committed_v2_snapshot_is_rejected_as_bad_version() {
    let bytes = std::fs::read(GOLDEN_V2_PATH).expect("committed v2 snapshot missing");
    assert!(matches!(
        decode_snapshot(&bytes),
        Err(StoreError::BadVersion { found: 2 })
    ));
}
