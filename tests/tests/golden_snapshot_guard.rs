//! Format-version compatibility guard: a snapshot committed to the
//! repository at format version 6 must keep decoding — bit-for-bit —
//! on every future revision of the codec. Any change to the wire
//! layout must either keep these bytes valid or bump
//! `store::FORMAT_VERSION`, add a new golden alongside this one and
//! turn this one into the rejection fixture; silently re-interpreting
//! old snapshots is the failure mode this test exists to catch. There
//! is one reader: `golden_v5.snap`, the previous format's golden, must
//! be refused at its version field.
//!
//! Regenerate (only after an *intentional* format bump) with:
//! `UQ_WRITE_GOLDEN=1 cargo test -p uq-tests --test golden_snapshot_guard`

use std::collections::HashMap;
use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample};
use uq_mlmcmc::ledger::{LedgerBook, LedgerStats, Session};
use uq_mlmcmc::store::{
    decode_snapshot, encode_snapshot, ChainCkpt, CollectorCkpt, RunSnapshot, RunStore, StoreError,
};
use uq_mlmcmc::wire::frame_check;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_v6.snap");
const GOLDEN_V5_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_v5.snap");
const GOLDEN_CONFIG: u64 = 0x5EED_CAFE_F00D_0001;
/// The run store's name for the golden's bytes (the frame's check),
/// recorded with the golden.
const GOLDEN_ADDRESS: &str = "98341f83b2a7eaf5";

fn cs(theta: f64, ld: f64) -> CoarseSample {
    CoarseSample::plain(vec![theta], ld, vec![theta])
}

/// The pinned snapshot: fixed values through every branch of the codec
/// — nested anchors and mates, a ledger session, collector moments and
/// recordings, and three controllers' chains on levels 0, 1 and 2 (the
/// top one's anchor nesting the middle one's).
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
    let ckpt = |rank: usize, level: usize, chain: ChainState| ChainCkpt {
        rank,
        level,
        burnin_left: 3 * level,
        producing: level != 1,
        done_levels: vec![false, level == 0, true],
        rng: [1, 2, rank as u64, 0xFFFF_FFFF_FFFF_FFFF],
        chain,
    };
    RunSnapshot {
        seed: 0x1234_5678_9ABC_DEF0,
        samples_done: 275,
        chains: vec![ckpt(4, 0, base), ckpt(5, 1, chain), ckpt(6, 2, top)],
        collectors: vec![CollectorCkpt {
            level: 0,
            count: 275,
            moments: Some(VectorMoments::from_parts(&[(275, 0.35, 12.25)])),
            theta_samples: vec![vec![0.5], vec![-0.5]],
            correction_pairs: vec![(vec![0.0], vec![0.35])],
        }],
        ledger: LedgerBook {
            sessions: HashMap::from([(
                (5, 0),
                Session {
                    seed: 0xFEED_F00D,
                    serves: 41,
                    pairing: Some(cs(0.875, -1.5)),
                },
            )]),
            stats: LedgerStats {
                sessions: 1,
                serves: 41,
                diverged: 3,
                ..LedgerStats::default()
            },
        },
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
        .expect("format break: the committed v6 golden snapshot no longer decodes");
    assert_eq!(config, GOLDEN_CONFIG, "golden header config hash drifted");
    assert_eq!(snap, expected, "golden snapshot decoded to different state");
    // the codec must also still *produce* the identical bytes, or every
    // content address ever listed in a store's index would silently dangle
    assert_eq!(
        encode_snapshot(&snap, config),
        bytes,
        "re-encoding the golden state no longer reproduces the committed bytes"
    );
    // and the store must still file them under the same name
    let dir = std::env::temp_dir().join(format!("uq-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).unwrap();
    let address = store.put_snapshot(&expected, GOLDEN_CONFIG).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(address, GOLDEN_ADDRESS, "golden content address drifted");
    let (body, _) = bytes.split_at(bytes.len() - 8);
    assert_eq!(address, format!("{:016x}", frame_check(body)));
}

/// The v5 golden is the format before (a framer of its own: the config
/// hash in the header, the payload length after it, an FNV-1a trailer).
/// It must be refused at the version field, never decoded into a
/// snapshot.
#[test]
fn committed_v5_snapshot_is_rejected_as_bad_version() {
    let bytes = std::fs::read(GOLDEN_V5_PATH).expect("committed v5 snapshot missing");
    assert!(matches!(
        decode_snapshot(&bytes),
        Err(StoreError::BadVersion { found: 5 })
    ));
}
