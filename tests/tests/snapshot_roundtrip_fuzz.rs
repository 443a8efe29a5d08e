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
use uq_mlmcmc::coupled::{ChainState, CoarseSample, SourceState};
use uq_mlmcmc::ledger::{LedgerState, LedgerStats, SessionState, SpeculationState};
use uq_mlmcmc::store::{
    decode_snapshot, encode_snapshot, fnv1a, Backend, ChainCkpt, Codec, CollectorCkpt, Dec, Enc,
    LevelReportCkpt, RunSnapshot, SequentialCkpt,
};

// ---------------------------------------------------------------------
// builders: nested checkpoint state from flat drawn primitives
// ---------------------------------------------------------------------

fn sample(theta: &[f64], log_density: f64, depth: u8) -> CoarseSample {
    CoarseSample {
        theta: theta.to_vec(),
        log_density,
        qoi: theta.iter().map(|t| t + 0.25).collect(),
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
        source: (flags & 8 != 0).then(|| {
            Box::new(SourceState {
                session_seed: (flags & 16 != 0).then_some(steps as u64),
                serves: steps as u64,
                diverged_serves: (steps / 3) as u64,
                pairing: (flags & 32 != 0).then(|| sample(theta, log_density, 0)),
                chain: ChainState {
                    steps: steps + 1,
                    accepted: steps / 3,
                    theta: theta.to_vec(),
                    log_density: log_density - 2.0,
                    qoi: vec![].into(),
                    anchor: None,
                    last_coarse: None,
                    last_pairing: None,
                    source: None,
                },
            })
        }),
    }
}

fn session(requester: usize, level: usize, seed: u64, flags: u8, theta: &[f64]) -> SessionState {
    SessionState {
        requester,
        level,
        seed,
        serves: seed % 977,
        pairing: (flags & 1 != 0).then(|| sample(theta, -0.5, 1)),
        next_anchor: (flags & 2 != 0).then(|| sample(theta, -1.5, 0)),
        spec_inflight: (flags & 4 != 0).then_some(seed % 13),
        spec: (flags & 8 != 0).then(|| SpeculationState {
            serves: seed % 31,
            proposal: sample(theta, 0.75, 1),
            pairing: sample(theta, -0.75, 0),
            diverged: flags & 16 != 0,
        }),
        spec_backoff: u32::from(flags) % 17,
        spec_cooldown: u32::from(flags / 2) % 9,
        real_inflight: flags & 32 != 0,
    }
}

fn ledger(sessions: Vec<SessionState>, seed: u64) -> LedgerState {
    LedgerState {
        generations: sessions
            .iter()
            .map(|s| (s.requester, s.level, s.serves))
            .collect(),
        candidates: vec![(0, vec![3, 5]), (1, vec![4])],
        stats: LedgerStats {
            sessions: sessions.len(),
            serves: (seed % 10_000) as usize,
            diverged: (seed % 97) as usize,
            spec_launched: (seed % 53) as usize,
            spec_hits: (seed % 29) as usize,
            spec_misses: (seed % 23) as usize,
        },
        sessions,
    }
}

fn backend(tag: u8) -> Backend {
    match tag % 3 {
        0 => Backend::Sequential,
        1 => Backend::Thread,
        _ => Backend::Runtime,
    }
}

/// A full snapshot exercising every branch of the codec: parallel
/// chains with nested anchors and recursive sources, sharded
/// collectors, a ledger with parked speculation, and a sequential
/// cursor with completed terms.
fn snapshot(tag: u8, seed: u64, steps: usize, theta: &[f64]) -> RunSnapshot {
    let moments: Vec<(usize, f64, f64)> = theta
        .iter()
        .enumerate()
        .map(|(i, t)| (steps + i, *t, t.abs()))
        .collect();
    RunSnapshot {
        backend: backend(tag),
        seed,
        samples_done: steps,
        chains: (0..usize::from(tag) % 3)
            .map(|i| ChainCkpt {
                rank: 4 + i,
                level: i % 2,
                burnin_left: steps % 7,
                producing: tag & 1 != 0,
                done_levels: vec![tag & 2 != 0, tag & 4 != 0],
                shard_rr: i,
                rng: [seed, seed ^ 0xA5A5, seed.rotate_left(13), !seed],
                chain: chain_state(theta, -0.25, steps + i, tag.wrapping_add(i as u8)),
            })
            .collect(),
        collectors: (0..usize::from(tag) % 2 + 1)
            .map(|i| CollectorCkpt {
                level: i,
                shard: 0,
                count: steps + i,
                moments: (tag & 8 != 0).then(|| moments.clone()),
                theta_samples: vec![theta.to_vec(); usize::from(tag) % 3],
                correction_pairs: vec![(theta.to_vec(), theta.to_vec()); usize::from(tag) % 2],
            })
            .collect(),
        ledger: (tag & 16 != 0).then(|| {
            ledger(
                vec![
                    session(5, 0, seed, tag, theta),
                    session(6, 1, seed ^ 7, tag / 2, theta),
                ],
                seed,
            )
        }),
        sequential: (tag & 32 != 0).then(|| SequentialCkpt {
            level: 1,
            samples_done: steps,
            chain: chain_state(theta, 0.5, steps, tag / 3),
            rng: [!seed, seed, seed ^ 1, seed.rotate_right(7)],
            moments: moments.clone(),
            rep_trace: theta.to_vec(),
            theta_samples: vec![theta.to_vec()],
            qoi_samples: vec![theta.to_vec()],
            correction_pairs: vec![(theta.to_vec(), theta.to_vec())],
            completed: vec![LevelReportCkpt {
                level: 0,
                n_samples: steps,
                acceptance_rate: 0.234,
                mean_correction: theta.to_vec(),
                var_correction: theta.iter().map(|t| t * t).collect(),
                iact: 3.5,
                theta_samples: vec![theta.to_vec()],
                qoi_samples: vec![],
                correction_pairs: vec![],
            }],
            eval_offsets: vec![steps, steps / 2],
        }),
    }
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
        prop_assert_eq!(fnv1a(&again), fnv1a(&bytes));
    }

    #[test]
    fn session_and_chain_values_roundtrip(
        flags in 0u8..255,
        seed in 0u64..u64::MAX,
        steps in 0usize..10_000,
        theta in prop::collection::vec(-1e6f64..1e6, 1..5),
    ) {
        let s = session(steps % 31, steps % 3, seed, flags, &theta);
        let (back, bytes, again) = value_roundtrip(&s);
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(again, bytes);

        let c = chain_state(&theta, -0.125, steps, flags);
        let (back, bytes, again) = value_roundtrip(&c);
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(again, bytes);

        let l = ledger(vec![s], seed);
        let (back, bytes, again) = value_roundtrip(&l);
        prop_assert_eq!(&back, &l);
        prop_assert_eq!(again, bytes);
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
