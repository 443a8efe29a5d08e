//! Protocol-version compatibility guard for the net wire format
//! (`uq_parallel::net`), alongside `golden_snapshot_guard.rs`: a frame
//! committed to the repository at the current `PROTOCOL_VERSION` must
//! keep decoding — bit-for-bit — on every future revision of the codec.
//! Any change to the `Msg`/`Frame` encodings, the frame header or the
//! frame check must either keep these bytes valid or bump
//! `net::PROTOCOL_VERSION`, add a new golden alongside this one, and
//! turn the old one into a rejection fixture; silently re-interpreting
//! frames across a version skew is the failure mode this suite catches.
//! Frames are ephemeral, so exactly one version is ever decoded:
//! `golden_frame_v9.bin` (the previous version's golden) is kept to prove
//! that a skewed version is refused.
//!
//! Regenerate (only after an *intentional* protocol bump) with:
//! `UQ_WRITE_GOLDEN=1 cargo test -p uq-tests --test golden_frame_guard`

use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample};
use uq_mlmcmc::ledger::LedgerLease;
use uq_mlmcmc::store::{ChainCkpt, CollectorCkpt, StoreError};
use uq_parallel::scheduler::Msg;
use uq_parallel::{decode_frame, encode_frame, Frame, ParallelConfig, PROTOCOL_VERSION};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_frame_v10.bin");
const GOLDEN_V9_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_frame_v9.bin");

fn cs(theta: f64, ld: f64) -> CoarseSample {
    CoarseSample::plain(vec![theta], ld, vec![theta])
}

/// A sample as a serve ships it: no QOI.
fn bare(theta: f64, ld: f64) -> CoarseSample {
    CoarseSample {
        qoi: None,
        ..cs(theta, ld)
    }
}

/// The pinned frames, concatenated in the one fixture: an `Assign`
/// carrying the run configuration and a resumable chain checkpoint, then
/// ledger serve round-trips as `Data` frames (a `CoarseRequest` without a
/// mate; a `Serve` whose lease asks for the mate and the `ServeDone` with
/// its pairing state; a `ServeDone` of a lease without a mate — their
/// samples without a QOI, as a serve ships them — and `StopProducing`),
/// then a level's collector state as the root receives it
/// (`CollectorReport`), then a `Correction` that repeats its sender's
/// last `y` (an empty `y`; recording off, so nothing else travels).
fn golden() -> Vec<Frame> {
    let mut config = ParallelConfig::new(vec![400, 150], vec![1, 1]);
    config.burn_in = vec![30, 20];
    config.seed = 0x5EED_0000_0009;
    config.record_samples = true;
    let anchor = CoarseSample {
        theta: vec![0.125, -2.5],
        log_density: -3.75,
        qoi: Some(vec![0.125].into()),
        sub_anchor: Some(Box::new(cs(-0.5, -1.0))),
        mate: Some(Box::new(cs(0.25, -0.125))),
    };
    let ckpt = ChainCkpt {
        rank: 4,
        level: 1,
        burnin_left: 0,
        producing: true,
        done_levels: vec![true, false],
        rng: [1, 2, 3, 0xFFFF_FFFF_FFFF_FFFF],
        chain: ChainState {
            steps: 421,
            accepted: 137,
            theta: vec![0.75, -0.375],
            log_density: -2.25,
            qoi: vec![0.75].into(),
            anchor: Some(anchor.clone()),
            last_coarse: Some(cs(0.0625, -4.5)),
            last_pairing: None,
        },
    };
    let data = |from, msg| Frame::Data { to: 4, from, msg };
    vec![
        Frame::Assign {
            n_ranks: 6,
            ranks: vec![4],
            config,
            ckpts: vec![ckpt],
        },
        data(
            5,
            Msg::CoarseRequest {
                level: 0,
                reply_to: 5,
                anchor: Box::new(bare(0.375, -0.25)),
                mate: false,
            },
        ),
        data(
            1,
            Msg::Serve {
                reply_to: 5,
                lease: Box::new(LedgerLease {
                    session_seed: 0xDEAD_BEEF,
                    serves: 41,
                    mate: true,
                    pairing: Some(bare(0.875, -1.5)),
                    anchor: bare(-0.875, -2.0),
                }),
            },
        ),
        data(
            5,
            Msg::ServeDone {
                requester: 5,
                level: 0,
                serves: 42,
                pairing: Some(Box::new(bare(-0.9375, -1.75))),
                diverged: true,
            },
        ),
        data(
            5,
            Msg::ServeDone {
                requester: 5,
                level: 0,
                serves: 43,
                pairing: None,
                diverged: false,
            },
        ),
        data(0, Msg::StopProducing { level: 0 }),
        Frame::Data {
            to: 0,
            from: 3,
            msg: Msg::CollectorReport(Box::new(CollectorCkpt {
                level: 1,
                count: 150,
                moments: Some(VectorMoments::from_parts(&[
                    (150, 0.125, 2.5),
                    (150, -0.25, 0.75),
                ])),
                theta_samples: vec![vec![0.5, -0.5]],
                correction_pairs: vec![(vec![0.0, 0.25], vec![0.125, -0.25])],
            })),
        },
        Frame::Data {
            to: 3,
            from: 4,
            msg: Msg::Correction {
                level: 1,
                y: Vec::new(),
                theta: Vec::new(),
                fine_qoi: Vec::new(),
                coarse_qoi: None,
            },
        },
    ]
}

#[test]
fn committed_golden_frame_still_decodes() {
    let expected: Vec<u8> = golden().iter().flat_map(encode_frame).collect();
    if std::env::var("UQ_WRITE_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &expected).unwrap();
    }
    let bytes = std::fs::read(GOLDEN_PATH)
        .expect("committed golden frame missing — see module docs to regenerate");
    let mut rest = &bytes[..];
    for _ in golden() {
        // the protocol version baked into the committed header must match
        // the compiled one: bumping PROTOCOL_VERSION without regenerating
        // the golden (or vice versa) fails here by construction
        assert_eq!(
            u32::from_le_bytes(rest[8..12].try_into().unwrap()),
            PROTOCOL_VERSION,
            "committed frame header version differs from net::PROTOCOL_VERSION"
        );
        // header (20 bytes), the payload length it states, check (8 bytes)
        let payload = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let (one, after) = rest.split_at(28 + payload as usize);
        let frame = decode_frame(one)
            .expect("protocol break: a committed v10 golden frame no longer decodes");
        // Frame carries no PartialEq (Msg is not comparable); byte equality
        // after re-encode is the invariant the transport relies on anyway
        assert_eq!(
            encode_frame(&frame),
            one,
            "re-encoding a golden frame no longer reproduces the committed bytes"
        );
        rest = after;
    }
    assert!(rest.is_empty(), "bytes after the last golden frame");
    assert_eq!(
        expected, bytes,
        "the codec now encodes the golden frames differently — bump PROTOCOL_VERSION"
    );
}

/// The v9 fixture is the golden of the version before (its bytes decode
/// under v10's layout, but a v9 collector pushes an empty `y` as it is,
/// where v10's pushes its sender's kept one). It must be refused at the
/// version field — before its check or a single payload byte is looked
/// at — never decoded into a frame.
#[test]
fn committed_v9_frame_is_rejected_as_bad_version() {
    let bytes = std::fs::read(GOLDEN_V9_PATH).expect("committed v9 frame missing");
    assert!(matches!(
        decode_frame(&bytes),
        Err(StoreError::BadVersion { found: 9 })
    ));
}
