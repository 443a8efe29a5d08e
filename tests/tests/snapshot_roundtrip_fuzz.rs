//! Property fuzz for the PR 6 snapshot codec: arbitrary checkpoint
//! state must round-trip **bit-identically** through
//! `encode_snapshot`/`decode_snapshot`, and torn or bit-flipped
//! snapshot bytes must be *rejected with a clear error* — never
//! mis-decoded into a plausible-looking snapshot.
//!
//! Round-trips are asserted two ways: structural equality after decode,
//! and byte equality after a second encode. The re-encode check is the
//! one content addressing actually relies on (equal state ⇒ equal
//! bytes ⇒ equal hash), and it stays meaningful for values whose
//! `PartialEq` is vacuous (NaN payloads, covered by a deterministic
//! test below).

use proptest::prelude::*;
use uq_mcmc::stats::VectorMoments;
use uq_mlmcmc::coupled::{ChainState, CoarseSample};
use uq_mlmcmc::ledger::{LedgerBook, LedgerStats, Session};
use uq_mlmcmc::store::{
    decode_snapshot, encode_snapshot, ChainCkpt, Codec, CollectorCkpt, Dec, Enc, RunSnapshot,
    StoreError,
};
use uq_mlmcmc::wire::frame_id;

// ---------------------------------------------------------------------
// builders: nested checkpoint state from flat drawn primitives
// ---------------------------------------------------------------------

/// A sample whose QOI is absent for about half the draws (the sign of
/// `theta[0]`), flipping with each level of nesting.
fn sample(theta: &[f64], log_density: f64, depth: u8) -> CoarseSample {
    CoarseSample {
        theta: theta.to_vec(),
        log_density,
        qoi: ((theta[0] < 0.0) ^ (depth % 2 == 1))
            .then(|| theta.iter().map(|t| t + 0.25).collect()),
        sub_anchor: (depth > 0).then(|| Box::new(sample(theta, log_density - 1.0, depth - 1))),
        mate: (depth > 1).then(|| Box::new(sample(theta, log_density + 1.0, 0))),
    }
}

fn chain_state(theta: &[f64], log_density: f64, steps: usize, flags: u8) -> ChainState {
    ChainState {
        steps,
        accepted: steps / 2,
        theta: theta.to_vec(),
        log_density,
        qoi: theta.into(),
        anchor: (flags & 1 != 0).then(|| sample(theta, log_density, 2)),
        last_coarse: (flags & 2 != 0).then(|| sample(theta, log_density * 0.5, 1)),
        last_pairing: (flags & 4 != 0).then(|| sample(theta, log_density * 0.25, 0)),
    }
}

fn session(seed: u64, flags: u8, theta: &[f64]) -> Session {
    Session {
        seed,
        serves: seed % 977,
        pairing: (flags & 1 != 0).then(|| sample(theta, -0.5, 1)),
    }
}

/// A book of `sessions`, keyed by `(requester, level)`.
fn ledger(sessions: Vec<((usize, usize), Session)>, seed: u64) -> LedgerBook {
    LedgerBook {
        stats: LedgerStats {
            sessions: sessions.len(),
            serves: (seed % 10_000) as usize,
            diverged: (seed % 97) as usize,
            ..LedgerStats::default()
        },
        sessions: sessions.into_iter().collect(),
    }
}

/// A full snapshot exercising every branch of the codec: controllers'
/// chains with nested anchors, one collector per level, and a ledger —
/// an empty book on half the draws.
fn snapshot(tag: u8, seed: u64, steps: usize, theta: &[f64]) -> RunSnapshot {
    let parts: Vec<(usize, f64, f64)> = theta.iter().map(|t| (steps, *t, t.abs())).collect();
    let moments = VectorMoments::from_parts(&parts);
    let sessions = if tag & 16 != 0 {
        vec![
            ((5, 0), session(seed, tag, theta)),
            ((6, 1), session(seed ^ 7, tag / 2, theta)),
        ]
    } else {
        Vec::new()
    };
    RunSnapshot {
        seed,
        samples_done: steps,
        chains: (0..usize::from(tag) % 3)
            .map(|i| ChainCkpt {
                rank: 4 + i,
                level: i % 2,
                burnin_left: steps % 7,
                producing: tag & 1 != 0,
                done_levels: vec![tag & 2 != 0, tag & 4 != 0],
                rng: [seed, seed ^ 0xA5A5, seed.rotate_left(13), !seed],
                chain: chain_state(theta, -0.25, steps + i, tag.wrapping_add(i as u8)),
            })
            .collect(),
        collectors: (0..usize::from(tag) % 2 + 1)
            .map(|i| CollectorCkpt {
                level: i,
                count: steps + i,
                moments: (tag & 8 != 0).then(|| moments.clone()),
                theta_samples: vec![theta.to_vec(); usize::from(tag) % 3],
                correction_pairs: vec![(theta.to_vec(), theta.to_vec()); usize::from(tag) % 2],
            })
            .collect(),
        ledger: ledger(sessions, seed),
    }
}

/// A book's bytes in the codec's layout with its entries in the order
/// given, sorted or not.
fn book_bytes(sessions: &[((usize, usize), Session)]) -> Vec<u8> {
    let mut enc = Enc::new();
    sessions.to_vec().encode(&mut enc);
    LedgerStats::default().encode(&mut enc);
    enc.into_bytes()
}

fn value_roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) -> (T, Vec<u8>, Vec<u8>) {
    let mut enc = Enc::new();
    v.encode(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Dec::new(&bytes);
    let back = T::decode(&mut dec).expect("value must decode");
    assert_eq!(dec.remaining(), 0, "decode must consume every byte");
    let mut enc2 = Enc::new();
    back.encode(&mut enc2);
    (back, bytes, enc2.into_bytes())
}

proptest! {
    #[test]
    fn snapshots_roundtrip_bit_identically(
        tag in 0u8..255,
        seed in 0u64..u64::MAX,
        steps in 0usize..5_000,
        theta in prop::collection::vec(-1e9f64..1e9, 1..4),
    ) {
        let snap = snapshot(tag, seed, steps, &theta);
        let config_hash = seed ^ 0xDEAD_BEEF;
        let bytes = encode_snapshot(&snap, config_hash);
        let (back, hash) = decode_snapshot(&bytes).expect("framed snapshot must decode");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(hash, config_hash);
        // content addressing: equal state ⇒ equal bytes ⇒ equal hash
        let again = encode_snapshot(&back, hash);
        prop_assert_eq!(&again, &bytes);
        prop_assert_eq!(frame_id(&again), frame_id(&bytes));
    }

    #[test]
    fn session_and_chain_values_roundtrip(
        flags in 0u8..255,
        seed in 0u64..u64::MAX,
        steps in 0usize..10_000,
        theta in prop::collection::vec(-1e6f64..1e6, 1..5),
    ) {
        let key = (steps % 31, steps % 3);
        let s = session(seed, flags, &theta);
        let (back, bytes, again) = value_roundtrip(&s);
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(again, bytes);

        let c = chain_state(&theta, -0.125, steps, flags);
        let (back, bytes, again) = value_roundtrip(&c);
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(again, bytes);

        let l = ledger(vec![(key, s)], seed);
        let (back, bytes, again) = value_roundtrip(&l);
        prop_assert_eq!(&back, &l);
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn non_canonical_books_and_moments_are_refused(
        flags in 0u8..255,
        seed in 0u64..u64::MAX,
        count in 0usize..5_000,
        theta in prop::collection::vec(-1e6f64..1e6, 1..4),
    ) {
        let (a, b) = (((3, 0), session(seed, flags, &theta)), ((5, 1), session(!seed, flags / 2, &theta)));
        let sessions = [a.clone(), b.clone()];
        let decoded = |bytes: Vec<u8>| LedgerBook::decode(&mut Dec::new(&bytes));
        let refused = |bytes| matches!(decoded(bytes), Err(StoreError::Corrupt(_)));
        // the canonical layout decodes, and is what the book encodes
        let canonical = book_bytes(&sessions);
        let book = decoded(canonical.clone()).expect("canonical bytes decode");
        prop_assert_eq!(value_roundtrip(&book).1, canonical);
        // two sessions swapped, a session duplicated
        prop_assert!(refused(book_bytes(&[b, a.clone()])));
        prop_assert!(refused(book_bytes(&[a.clone(), a])));
        // moments whose per-component counts disagree
        let parts: Vec<(usize, f64, f64)> =
            theta.iter().enumerate().map(|(i, t)| (count + i, *t, t.abs())).collect();
        let mut enc = Enc::new();
        parts.encode(&mut enc);
        let moments = VectorMoments::decode(&mut Dec::new(&enc.into_bytes()));
        prop_assert_eq!(matches!(moments, Err(StoreError::Corrupt(_))), theta.len() > 1);
    }

    #[test]
    fn truncated_snapshots_are_rejected(
        tag in 0u8..255,
        seed in 0u64..u64::MAX,
        cut in 0usize..100_000,
        theta in prop::collection::vec(-10f64..10.0, 1..3),
    ) {
        let bytes = encode_snapshot(&snapshot(tag, seed, 17, &theta), seed);
        let cut = cut % bytes.len(); // strict prefix
        prop_assert!(
            decode_snapshot(&bytes[..cut]).is_err(),
            "a torn {cut}-byte prefix of a {}-byte snapshot must be rejected",
            bytes.len()
        );
    }

    #[test]
    fn bit_flipped_snapshots_are_rejected(
        tag in 0u8..255,
        seed in 0u64..u64::MAX,
        flip in (0usize..1_000_000, 0u8..8),
        theta in prop::collection::vec(-10f64..10.0, 1..3),
    ) {
        let (pos, bit) = flip;
        let mut bytes = encode_snapshot(&snapshot(tag, seed, 23, &theta), seed);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_snapshot(&bytes).is_err(),
            "a single flipped bit (byte {pos}, bit {bit}) must never decode"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(
        tag in 0u8..255,
        seed in 0u64..u64::MAX,
        extra in prop::collection::vec(0u8..255, 1..9),
    ) {
        let mut bytes = encode_snapshot(&snapshot(tag, seed, 5, &[1.5]), seed);
        bytes.extend(extra.iter().copied());
        prop_assert!(decode_snapshot(&bytes).is_err());
    }
}

/// NaN payload bits survive the codec exactly — `PartialEq` can't see
/// this, so it is asserted at the bit level.
#[test]
fn nan_payloads_roundtrip_bit_exactly() {
    for bits in [
        f64::NAN.to_bits(),
        f64::NAN.to_bits() ^ 0xdead, // payload-tweaked quiet NaN
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
    ] {
        let x = f64::from_bits(bits);
        let mut enc = Enc::new();
        x.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = f64::decode(&mut dec).unwrap();
        assert_eq!(back.to_bits(), bits, "f64 codec must preserve payload bits");
    }
}
