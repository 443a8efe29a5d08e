//! Property fuzz for the PR 9 net wire codec: every [`Msg`] variant
//! must round-trip bit-identically through the shared `uq_core` wire
//! primitives, and torn, bit-flipped or padded frames must be rejected
//! with a clear error — never mis-decoded into a plausible message.
//!
//! The frame check is this repo's own (`uq_mlmcmc::wire::frame_check`,
//! which replaced FNV-1a at `PROTOCOL_VERSION = 2`), so the bottom of
//! this file shows what it detects on the frame that dominates net
//! traffic — exhaustively where that is cheap (every single-bit flip of
//! a 26 KB correction frame), by dense sampling where it is not.
//!
//! Round-trips are asserted by re-encode byte equality (`Msg` has no
//! `PartialEq`, and byte equality is the property the transport
//! actually relies on: the driver's digest checks compare runs whose
//! every message crossed this codec). NaN payload bit-exactness gets a
//! deterministic test, mirroring `snapshot_roundtrip_fuzz.rs`.

use proptest::prelude::*;
use std::collections::HashMap;
use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample};
use uq_mlmcmc::ledger::{LedgerBook, LedgerLease, LedgerStats, Session};
use uq_mlmcmc::store::{ChainCkpt, Codec, CollectorCkpt, Dec, Enc, StoreError};
use uq_parallel::roles::PhonebookStats;
use uq_parallel::scheduler::Msg;
use uq_parallel::{decode_frame, encode_frame, Frame, PROTOCOL_VERSION};

// ---------------------------------------------------------------------
// builders: one Msg per tag from flat drawn primitives
// ---------------------------------------------------------------------

/// A sample whose QOI is absent for about half the draws (the sign of
/// `theta[0]`), flipping with each level of nesting.
fn sample(theta: &[f64], log_density: f64, depth: u8) -> CoarseSample {
    CoarseSample {
        theta: theta.to_vec(),
        log_density,
        qoi: ((theta[0] < 0.0) ^ (depth % 2 == 1)).then(|| theta.iter().map(|t| t * 0.5).collect()),
        sub_anchor: (depth > 0).then(|| Box::new(sample(theta, log_density - 1.0, depth - 1))),
        mate: (depth > 1).then(|| Box::new(sample(theta, log_density + 1.0, 0))),
    }
}

fn chain_ckpt(rank: usize, level: usize, theta: &[f64], seed: u64) -> ChainCkpt {
    ChainCkpt {
        rank,
        level,
        burnin_left: rank % 7,
        producing: seed.is_multiple_of(2),
        done_levels: vec![seed.is_multiple_of(3), seed.is_multiple_of(5)],
        rng: [seed, seed ^ 1, seed ^ 2, seed ^ 3],
        chain: ChainState {
            steps: rank + 11,
            accepted: rank,
            theta: theta.to_vec(),
            log_density: -1.25,
            qoi: theta.into(),
            anchor: Some(sample(theta, -0.5, 1)),
            last_coarse: None,
            last_pairing: Some(sample(theta, -2.0, 0)),
        },
    }
}

fn ledger_book(theta: &[f64], seed: u64) -> LedgerBook {
    LedgerBook {
        sessions: HashMap::from([(
            (4, 0),
            Session {
                seed,
                serves: seed % 97,
                pairing: Some(sample(theta, -0.75, 1)),
            },
        )]),
        generations: HashMap::from([((4, 0), seed % 3)]),
        stats: LedgerStats {
            sessions: 1,
            serves: (seed % 97) as usize,
            diverged: (seed % 7) as usize,
            ..LedgerStats::default()
        },
    }
}

/// Build the `tag`-th `Msg` variant (declaration order) from flat
/// primitives, exercising every field of its payload.
fn msg(tag: u8, a: usize, b: usize, seed: u64, flag: bool, theta: &[f64], x: f64) -> Msg {
    match tag {
        0 => Msg::CoarseRequest {
            level: a,
            reply_to: b,
            anchor: Box::new(sample(theta, x, 2)),
        },
        1 => Msg::Serve {
            reply_to: b,
            lease: Box::new(LedgerLease {
                session_seed: seed,
                serves: seed % 101,
                pairing: flag.then(|| sample(theta, x - 1.0, 1)),
                anchor: sample(theta, x, 0),
            }),
        },
        2 => Msg::CoarseSample {
            level: a,
            sample: Box::new(sample(theta, x, 2)),
        },
        3 => Msg::ServeDone {
            requester: a,
            level: b,
            session: seed,
            serves: seed % 103,
            pairing: Box::new(sample(theta, x + 0.5, 1)),
            diverged: flag,
        },
        4 => Msg::Poison,
        5 => Msg::SampleReady { level: a },
        6 => Msg::Correction {
            level: a,
            y: theta.to_vec(),
            theta: theta.to_vec(),
            fine_qoi: vec![x],
            coarse_qoi: flag.then(|| vec![x - 0.25]),
        },
        7 => Msg::LevelDone { level: a },
        8 => Msg::StopProducing { level: a },
        9 => Msg::Reassign { level: a },
        10 => Msg::Shutdown,
        11 => Msg::PhonebookDown,
        12 => Msg::PhonebookReport(Box::new(PhonebookStats {
            wakeups: a,
            messages: a + b,
            max_batch: b,
            routed: a / 2,
            reassignments: b / 3,
            ledger: LedgerStats {
                sessions: a,
                serves: b,
                diverged: a % 7,
                ..LedgerStats::default()
            },
        })),
        13 => Msg::CollectorReport(Box::new(CollectorCkpt {
            level: a,
            count: b,
            moments: Some(VectorMoments::from_parts(&[(b, x, x * x), (b, -x, 0.5)])),
            theta_samples: vec![theta.to_vec(), theta.to_vec()],
            correction_pairs: vec![(theta.to_vec(), vec![x])],
        })),
        14 => Msg::ControllerReport {
            evals: vec![a, b],
            eval_secs: vec![x, x / 2.0],
        },
        15 => Msg::CheckpointTick,
        16 => Msg::Checkpoint,
        17 => Msg::CheckpointFlush,
        18 => Msg::ControllerCkpt(Box::new(chain_ckpt(a, b % 2, theta, seed))),
        19 => Msg::CollectorCkpt(Box::new(CollectorCkpt {
            level: a,
            count: a + b,
            moments: flag.then(|| VectorMoments::from_parts(&[(a, x, x * 2.0)])),
            theta_samples: vec![theta.to_vec()],
            correction_pairs: vec![],
        })),
        20 => Msg::LedgerCkpt(Box::new(ledger_book(theta, seed))),
        21 => Msg::CheckpointDone,
        _ => unreachable!("tag out of range"),
    }
}

fn encode_msg(m: &Msg) -> Vec<u8> {
    let mut enc = Enc::new();
    m.encode(&mut enc);
    enc.into_bytes()
}

/// decode∘encode identity, asserted as re-encode byte equality with no
/// bytes left over.
fn assert_roundtrip(m: &Msg) {
    let bytes = encode_msg(m);
    let mut dec = Dec::new(&bytes);
    let decoded = Msg::decode(&mut dec).expect("valid Msg bytes must decode");
    assert_eq!(dec.remaining(), 0, "decode must consume every byte");
    assert_eq!(
        encode_msg(&decoded),
        bytes,
        "re-encode must reproduce the exact bytes"
    );
}

proptest! {
    #[test]
    fn every_msg_variant_roundtrips(
        tag in 0u8..22,
        a in 0usize..1000,
        seed in 0u64..u64::MAX,
        theta in prop::collection::vec(-1e6f64..1e6, 1..4),
    ) {
        // secondary draws derived from the seed (the strategy tuple
        // caps at four slots)
        let b = (seed % 1000) as usize;
        let flag = seed.is_multiple_of(2);
        let x = (seed % 2_000_001) as f64 / 1000.0 - 1000.0;
        assert_roundtrip(&msg(tag, a, b, seed, flag, &theta, x));
    }

    #[test]
    fn framed_msgs_roundtrip(
        tag in 0u8..22,
        a in 0usize..1000,
        seed in 0u64..u64::MAX,
        theta in prop::collection::vec(-1e6f64..1e6, 1..3),
    ) {
        let m = msg(tag, a, a / 2, seed, seed.is_multiple_of(2), &theta, 0.5);
        let frame = Frame::Data { to: a, from: a / 2, msg: m };
        let bytes = encode_frame(&frame);
        match decode_frame(&bytes).expect("valid frame must decode") {
            Frame::Data { to, from, msg } => {
                prop_assert_eq!(to, a);
                prop_assert_eq!(from, a / 2);
                let inner = Frame::Data { to, from, msg };
                prop_assert_eq!(encode_frame(&inner), bytes);
            }
            f => prop_assert!(false, "wrong frame decoded: {:?}", f),
        }
    }

    #[test]
    fn truncated_frames_are_rejected(
        tag in 0u8..22,
        seed in 0u64..u64::MAX,
        cut in 0usize..100_000,
    ) {
        let m = msg(tag, 3, 7, seed, true, &[0.5, -0.25], 1.5);
        let bytes = encode_frame(&Frame::Data { to: 9, from: 5, msg: m });
        let cut = cut % bytes.len(); // strict prefix
        prop_assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {} must fail", cut);
    }

    #[test]
    fn bit_flipped_frames_are_rejected(
        tag in 0u8..22,
        seed in 0u64..u64::MAX,
        pos in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let m = msg(tag, 3, 7, seed, false, &[0.5, -0.25], 1.5);
        let mut bytes = encode_frame(&Frame::Data { to: 9, from: 5, msg: m });
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_frame(&bytes).is_err(),
            "flipping bit {} of byte {} must fail", bit, pos
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(
        tag in 0u8..22,
        seed in 0u64..u64::MAX,
        pad in 1usize..64,
    ) {
        let m = msg(tag, 3, 7, seed, true, &[0.5], 1.5);
        let mut bytes = encode_frame(&Frame::Data { to: 9, from: 5, msg: m });
        bytes.extend(std::iter::repeat_n(0xABu8, pad));
        prop_assert!(decode_frame(&bytes).is_err(), "{} padded bytes must fail", pad);
    }
}

/// NaN payloads must survive bit-exactly (`f64::to_bits` encoding): a
/// correction carrying NaN/∞ components re-encodes to identical bytes.
#[test]
fn nan_payloads_roundtrip_bit_exactly() {
    let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let m = Msg::Correction {
        level: 1,
        y: vec![weird, f64::NEG_INFINITY],
        theta: vec![f64::NAN],
        fine_qoi: vec![-0.0],
        coarse_qoi: Some(vec![f64::INFINITY]),
    };
    let bytes = encode_msg(&m);
    let decoded = Msg::decode(&mut Dec::new(&bytes)).expect("decode");
    assert_eq!(encode_msg(&decoded), bytes);
    match decoded {
        Msg::Correction { y, theta, .. } => {
            assert_eq!(y[0].to_bits(), weird.to_bits());
            assert_eq!(theta[0].to_bits(), f64::NAN.to_bits());
        }
        _ => panic!("wrong variant"),
    }
}

/// A frame whose payload claims an absurd length is refused before any
/// allocation of that size.
#[test]
fn oversized_length_claims_are_rejected() {
    let mut bytes = encode_frame(&Frame::Ready);
    bytes[12..20].copy_from_slice(&(u64::MAX).to_le_bytes());
    assert!(decode_frame(&bytes).is_err());
    let _ = PROTOCOL_VERSION;
}

/// The frame that dominates net traffic: one correction on the
/// 1089-point QOI of the Poisson problems. `recorded` adds the triple a
/// controller fills under `record_samples` — the QOI three times over,
/// ≈ 26 KB, the frame the benchmark ladder times.
fn correction_frame(recorded: bool) -> Vec<u8> {
    let qoi: Vec<f64> = (0..1089).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let or_empty = |v: &[f64]| if recorded { v.to_vec() } else { Vec::new() };
    encode_frame(&Frame::Data {
        to: 3,
        from: 5,
        msg: Msg::Correction {
            level: 1,
            theta: or_empty(&[0.25; 24]),
            fine_qoi: or_empty(&qoi),
            coarse_qoi: recorded.then(|| qoi.clone()),
            y: qoi,
        },
    })
}

/// Exhaustive: all ≈ 208 k single-bit flips of the frame — header,
/// payload and trailer — are rejected. Within the payload that is a
/// guarantee of the check's construction (each word step is a
/// bijection), not a matter of probability.
#[test]
fn every_single_bit_flip_of_a_correction_frame_is_rejected() {
    let mut bytes = correction_frame(true);
    assert!(bytes.len() > 26_000);
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert!(decode_frame(&bytes).is_err(), "bit {bit} flipped unnoticed");
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    decode_frame(&bytes).expect("the restored frame decodes");
}

/// Swapping two aligned 8-byte words is invisible to a plain sum or xor
/// of words. Every word is swapped with each of its 8 successors (same
/// lane and neighbouring lanes) and with 8 far partners.
#[test]
fn swapped_words_of_a_correction_frame_are_rejected() {
    let mut bytes = correction_frame(true);
    let n_words = bytes.len() / 8;
    let swap = |bytes: &mut [u8], i: usize, j: usize| {
        for k in 0..8 {
            bytes.swap(8 * i + k, 8 * j + k);
        }
    };
    let mut tried = 0;
    for i in 0..n_words {
        let near = (1..=8).map(|d| i + d);
        let far = (1..=8).map(|k| (i + k * 397) % n_words);
        for j in near.chain(far).filter(|&j| j < n_words) {
            if bytes[8 * i..8 * i + 8] == bytes[8 * j..8 * j + 8] {
                continue; // equal words: the swap is the identity
            }
            swap(&mut bytes, i, j);
            assert!(decode_frame(&bytes).is_err(), "words {i} and {j}");
            swap(&mut bytes, i, j);
            tried += 1;
        }
    }
    assert!(tried > 40_000, "only {tried} distinct swaps tried");
}

/// Short by 1..=32 bytes, padded with 1..=32 zeros, or a length field
/// that lies in either direction: each has its own error, and none
/// reaches the payload decoder.
#[test]
fn resized_and_length_lying_correction_frames_are_rejected() {
    let bytes = correction_frame(true);
    for cut in 1..=32 {
        assert!(matches!(
            decode_frame(&bytes[..bytes.len() - cut]),
            Err(StoreError::Truncated { .. })
        ));
    }
    for pad in 1..=32 {
        let mut padded = bytes.clone();
        padded.resize(bytes.len() + pad, 0);
        assert!(matches!(
            decode_frame(&padded),
            Err(StoreError::TrailingBytes(n)) if n == pad
        ));
    }
    let stated = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    for (lie, shorter) in [(stated - 8, true), (stated - 1, true), (stated + 1, false)] {
        let mut lied = bytes.clone();
        lied[12..20].copy_from_slice(&lie.to_le_bytes());
        assert_eq!(
            matches!(decode_frame(&lied), Err(StoreError::TrailingBytes(_))),
            shorter
        );
        assert_eq!(
            matches!(decode_frame(&lied), Err(StoreError::Truncated { .. })),
            !shorter
        );
        // the lie made consistent — payload resized to match, trailer
        // kept — fails the check instead: the length field is under it
        let mut consistent = bytes[..bytes.len() - 8].to_vec();
        consistent.resize(20 + lie as usize, 0);
        consistent[12..20].copy_from_slice(&lie.to_le_bytes());
        consistent.extend_from_slice(&bytes[bytes.len() - 8..]);
        assert!(matches!(
            decode_frame(&consistent),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}

/// A correction built without `record_samples` (the default, and every
/// benchmark workload) carries `y` alone: a third of the bytes.
#[test]
fn an_unrecorded_correction_frame_is_a_third_of_a_recorded_one() {
    let lean = correction_frame(false);
    assert!(lean.len() * 3 < correction_frame(true).len() + 300);
    assert!(matches!(
        decode_frame(&lean),
        Ok(Frame::Data {
            msg: Msg::Correction {
                coarse_qoi: None,
                ..
            },
            ..
        })
    ));
}
