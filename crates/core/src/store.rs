//! The content-addressed **run store**: versioned snapshots of a run's
//! full logical state, plus an index that lists them.
//!
//! ## Snapshot format
//!
//! A snapshot file is one frame of the shared framer
//! ([`crate::wire::frame_encode`]) under its own magic and version, and
//! its payload is the config hash followed by the [`RunSnapshot`]:
//!
//! ```text
//! magic    8 bytes  b"UQSNAP\0\0"
//! version  u32 LE   FORMAT_VERSION
//! len      u64 LE   payload length in bytes (8 + the snapshot's)
//! config   u64 LE   caller-supplied config hash (resume refuses a
//!                   snapshot taken under a different configuration)
//! payload  the encoded RunSnapshot (the codecs below)
//! check    u64 LE   frame_check over everything before it
//! ```
//!
//! Any truncation fails the length check and any bit flip fails either a
//! structured decode check or the trailing check — a damaged snapshot is
//! *rejected with an error*, never mis-decoded (fuzzed by
//! `tests/snapshot_roundtrip_fuzz.rs`).
//!
//! ## Content addressing
//!
//! The object name is the hex of the frame's trailing check
//! ([`crate::wire::frame_id`]), so identical logical states produce
//! identical files at identical addresses, and the bytes are hashed once.
//! The hash-map-backed state ([`crate::ledger::LedgerBook`]) is written
//! sorted by key for exactly this reason, and keys that are not strictly
//! increasing are refused as corrupt. Objects are written to
//! `objects/<hex>.snap` via a temp file + rename, so a crash mid-write
//! can only lose the newest snapshot, never corrupt an older one.
//!
//! ## Index
//!
//! `index` lists the cuts: one object name (16 lowercase hex digits)
//! per line, in the order they were written. It records nothing else —
//! a cut's configuration, seed and progress are read from its own frame,
//! so the index cannot disagree with an object about them. Each name is
//! appended in one write that begins with its newline, so an append torn
//! by a crash is a line that is not a name: it is skipped, and the next
//! append starts a line of its own.

use crate::coupled::{ChainState, CoarseSample};
use crate::ledger::{LedgerBook, LedgerLease, LedgerStats, PairingMode, Session};
use crate::wire::{
    codec, decode_qoi, encode_qoi, frame_decode, frame_encode, frame_id, FrameFormat,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs;
use std::hash::Hash;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use uq_mcmc::stats::VectorMoments;

pub use crate::wire::{fnv1a, Codec, Dec, Enc, StoreError};

/// Version of the snapshot format. Bump on any layout change; the
/// decoder refuses other versions (the committed golden snapshot in
/// `tests/fixtures/` pins readability of the current one, and the
/// previous one's golden that it is refused).
pub const FORMAT_VERSION: u32 = 6;

/// The snapshot file's frame. A snapshot is read whole into memory, so
/// the cap only has to refuse a length no file can have: 1 TiB, far
/// above any cut a run holds (a `service_mix` cut is about 80 KB).
const SNAP_FORMAT: FrameFormat = FrameFormat {
    magic: b"UQSNAP\0\0",
    version: FORMAT_VERSION,
    max_len: 1 << 40,
};

/// Hand-written: the QOI slot has no tag byte (`encode_qoi`).
impl Codec for CoarseSample {
    fn encode(&self, enc: &mut Enc) {
        self.theta.encode(enc);
        self.log_density.encode(enc);
        encode_qoi(&self.qoi, enc);
        self.sub_anchor.encode(enc);
        self.mate.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(CoarseSample {
            theta: Vec::decode(dec)?,
            log_density: f64::decode(dec)?,
            qoi: decode_qoi(dec)?,
            sub_anchor: Option::decode(dec)?,
            mate: Option::decode(dec)?,
        })
    }
}

codec! { struct ChainState {
    steps, accepted, theta, log_density, qoi, anchor, last_coarse, last_pairing,
} }

codec! { struct Session { seed, serves, pairing } }

codec! { struct LedgerLease { session_seed, serves, mate, pairing, anchor } }

codec! { enum PairingMode { 0 => Proposal, 1 => Ledger } }

/// Hand-written: the always-zero `spec_*` fields are not written.
impl Codec for LedgerStats {
    fn encode(&self, enc: &mut Enc) {
        self.sessions.encode(enc);
        self.serves.encode(enc);
        self.diverged.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(LedgerStats {
            sessions: usize::decode(dec)?,
            serves: usize::decode(dec)?,
            diverged: usize::decode(dec)?,
            ..LedgerStats::default()
        })
    }
}

/// Write `map` as a vector of `(key, value)` entries in increasing key
/// order: the one place hash-map state gets its canonical order.
fn encode_sorted<K: Codec + Ord, V: Codec>(map: &HashMap<K, V>, enc: &mut Enc) {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries.len().encode(enc);
    for (key, value) in entries {
        key.encode(enc);
        value.encode(enc);
    }
}

/// Read what [`encode_sorted`] wrote, refusing keys that are not strictly
/// increasing: a duplicate or a reordering is not a cut any book encodes.
fn decode_sorted<K: Codec + Ord + Hash, V: Codec>(
    dec: &mut Dec,
    what: &'static str,
) -> Result<HashMap<K, V>, StoreError> {
    let entries = Vec::<(K, V)>::decode(dec)?;
    if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(StoreError::Corrupt(what));
    }
    Ok(entries.into_iter().collect())
}

/// Hand-written: sessions as `(requester, level, session)` sorted by key,
/// and out-of-order keys refused; then the statistics.
impl Codec for LedgerBook {
    fn encode(&self, enc: &mut Enc) {
        encode_sorted(&self.sessions, enc);
        self.stats.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(LedgerBook {
            sessions: decode_sorted(dec, "ledger sessions out of order")?,
            stats: LedgerStats::decode(dec)?,
        })
    }
}

/// Hand-written: the per-component `(count, mean, m2)` parts, and parts
/// whose counts disagree refused (no accumulator has them).
impl Codec for VectorMoments {
    fn encode(&self, enc: &mut Enc) {
        self.parts().encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let parts = Vec::<(usize, f64, f64)>::decode(dec)?;
        if parts.windows(2).any(|w| w[0].0 != w[1].0) {
            return Err(StoreError::Corrupt("moment counts disagree"));
        }
        Ok(VectorMoments::from_parts(&parts))
    }
}

// ---------------------------------------------------------------------
// snapshot sections
// ---------------------------------------------------------------------

/// One controller's checkpointed state: chain, counters and RNG stream
/// position, captured at a clean step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainCkpt {
    pub rank: usize,
    pub level: usize,
    /// Burn-in steps still owed (a controller can checkpoint
    /// mid-burn-in).
    pub burnin_left: usize,
    pub producing: bool,
    /// Levels whose `StopProducing` this controller has observed.
    pub done_levels: Vec<bool>,
    /// xoshiro256++ state words of the controller's own stream.
    pub rng: [u64; 4],
    pub chain: ChainState,
}

codec! { struct ChainCkpt { rank, level, burnin_left, producing, done_levels, rng, chain } }

/// One level's collector state — what the collector accumulates, what a
/// checkpoint cuts and what it reports at shutdown: streaming moments
/// plus any retained recordings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectorCkpt {
    pub level: usize,
    pub count: usize,
    /// `None` before the first correction arrives (the QOI dimension is
    /// not yet known).
    pub moments: Option<VectorMoments>,
    pub theta_samples: Vec<Vec<f64>>,
    pub correction_pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

codec! { struct CollectorCkpt { level, count, moments, theta_samples, correction_pairs } }

/// A whole run's consistent cut: one snapshot per checkpoint barrier,
/// written by the root of the role machines on every placement.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSnapshot {
    /// Base seed of the run (sanity cross-check on resume).
    pub seed: u64,
    /// Progress marker: top-level samples collected at the cut.
    pub samples_done: usize,
    /// One entry per controller rank.
    pub chains: Vec<ChainCkpt>,
    /// One entry per level's collector, in level order.
    pub collectors: Vec<CollectorCkpt>,
    /// The phonebook's full session ledger.
    pub ledger: LedgerBook,
}

codec! { struct RunSnapshot { seed, samples_done, chains, collectors, ledger } }

// ---------------------------------------------------------------------
// snapshot files
// ---------------------------------------------------------------------

/// Serialize a snapshot into its file: the frame of `(config_hash,
/// snapshot)` (see the module docs for the layout).
pub fn encode_snapshot(snapshot: &RunSnapshot, config_hash: u64) -> Vec<u8> {
    frame_encode(&SNAP_FORMAT, &(config_hash, Cow::Borrowed(snapshot)))
}

/// Parse and verify a snapshot file; returns the snapshot and the
/// config hash recorded with it. Rejects bad magic, other format
/// versions, absurd lengths, truncation, trailing bytes and any bit
/// corruption.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(RunSnapshot, u64), StoreError> {
    let (config_hash, snapshot) = frame_decode::<(u64, Cow<RunSnapshot>)>(&SNAP_FORMAT, bytes)?;
    Ok((snapshot.into_owned(), config_hash))
}

// ---------------------------------------------------------------------
// the run store
// ---------------------------------------------------------------------

/// The on-disk run store: `objects/<hex>.snap` content-addressed
/// snapshots plus `index`, the names of the cuts in the order they were
/// written.
pub struct RunStore {
    root: PathBuf,
}

/// Whether `line` is an object name: 16 lowercase hex digits.
fn is_name(line: &[u8]) -> bool {
    line.len() == 16 && line.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

impl RunStore {
    /// Open (creating directories as needed) the store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Self { root })
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index")
    }

    fn object_path(&self, hash: &str) -> PathBuf {
        self.root.join("objects").join(format!("{hash}.snap"))
    }

    /// Store a snapshot; returns its content address (hex hash). The
    /// object write is atomic (temp file + rename), and its name is
    /// appended to the index after the object exists, so a listed cut
    /// always names a complete object. The name goes out in one write
    /// that begins with its newline: a torn earlier append ends where
    /// this one begins.
    pub fn put_snapshot(
        &self,
        snapshot: &RunSnapshot,
        config_hash: u64,
    ) -> Result<String, StoreError> {
        let bytes = encode_snapshot(snapshot, config_hash);
        let hash = format!("{:016x}", frame_id(&bytes));
        let path = self.object_path(&hash);
        if !path.exists() {
            let tmp = self.root.join("objects").join(format!("{hash}.tmp"));
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())?
            .write_all(format!("\n{hash}").as_bytes())?;
        Ok(hash)
    }

    /// The names of the stored cuts, oldest first. A line that is not a
    /// name is a torn append and is skipped.
    pub fn cuts(&self) -> Result<Vec<String>, StoreError> {
        let index = match fs::read(self.index_path()) {
            Err(err) if err.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            index => index?,
        };
        Ok(index
            .split(|&b| b == b'\n')
            .filter(|line| is_name(line))
            .map(|line| String::from_utf8_lossy(line).into_owned())
            .collect())
    }

    /// Load and verify the snapshot at `hash`.
    pub fn get_snapshot(&self, hash: &str) -> Result<(RunSnapshot, u64), StoreError> {
        let bytes = fs::read(self.object_path(hash))?;
        decode_snapshot(&bytes)
    }

    /// Load and verify the snapshot at `hash`, refusing one whose own
    /// recorded config hash is not `config_hash`.
    pub fn get_snapshot_of(&self, hash: &str, config_hash: u64) -> Result<RunSnapshot, StoreError> {
        match self.get_snapshot(hash)? {
            (snapshot, found) if found == config_hash => Ok(snapshot),
            (_, found) => Err(StoreError::ConfigMismatch {
                expected: config_hash,
                found,
            }),
        }
    }

    /// The newest cut, optionally the newest whose own frame records
    /// `config_hash`: the cuts are read newest first, and one that does
    /// not read back is an error.
    pub fn latest_snapshot(
        &self,
        config_hash: Option<u64>,
    ) -> Result<Option<(String, RunSnapshot)>, StoreError> {
        for hash in self.cuts()?.into_iter().rev() {
            let (snapshot, found) = self.get_snapshot(&hash)?;
            if config_hash.is_none_or(|want| want == found) {
                return Ok(Some((hash, snapshot)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(theta: f64) -> CoarseSample {
        CoarseSample {
            theta: vec![theta, theta * 0.5],
            log_density: -theta * theta,
            qoi: Some(vec![theta].into()),
            sub_anchor: Some(Box::new(CoarseSample::plain(
                vec![theta * 0.1],
                -1.0,
                vec![],
            ))),
            mate: None,
        }
    }

    fn snapshot() -> RunSnapshot {
        RunSnapshot {
            seed: 4321,
            samples_done: 200,
            chains: vec![ChainCkpt {
                rank: 5,
                level: 1,
                burnin_left: 0,
                producing: true,
                done_levels: vec![false, false],
                rng: [1, 2, 3, 4],
                chain: ChainState {
                    steps: 17,
                    accepted: 9,
                    theta: vec![0.25],
                    log_density: -0.5,
                    qoi: vec![0.25].into(),
                    anchor: Some(sample(0.2)),
                    last_coarse: Some(sample(0.3)),
                    last_pairing: Some(sample(0.31)),
                },
            }],
            collectors: vec![CollectorCkpt {
                level: 1,
                count: 3,
                moments: Some(VectorMoments::from_parts(&[(3, 0.1, 0.02)])),
                theta_samples: vec![vec![0.1], vec![0.2]],
                correction_pairs: vec![(vec![0.0], vec![0.1])],
            }],
            ledger: LedgerBook {
                sessions: HashMap::from([(
                    (5, 0),
                    Session {
                        seed: 99,
                        serves: 7,
                        pairing: Some(sample(0.4)),
                    },
                )]),
                stats: LedgerStats {
                    sessions: 1,
                    serves: 7,
                    diverged: 2,
                    ..LedgerStats::default()
                },
            },
        }
    }

    #[test]
    fn roundtrip_is_exact_and_content_addressed() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap, 0xDEAD_BEEF);
        let (decoded, config) = decode_snapshot(&bytes).expect("decode");
        assert_eq!(decoded, snap);
        assert_eq!(config, 0xDEAD_BEEF);
        // determinism: identical state → identical bytes → same address
        assert_eq!(bytes, encode_snapshot(&snapshot(), 0xDEAD_BEEF));
    }

    #[test]
    fn nan_and_infinities_roundtrip_bit_exactly() {
        let mut snap = snapshot();
        snap.chains[0].chain.log_density = f64::NEG_INFINITY;
        snap.collectors[0].moments =
            Some(VectorMoments::from_parts(&[(1, f64::NAN, f64::INFINITY)]));
        let bytes = encode_snapshot(&snap, 1);
        let (decoded, _) = decode_snapshot(&bytes).unwrap();
        // NaN breaks PartialEq — compare re-encoded bytes instead
        assert_eq!(bytes, encode_snapshot(&decoded, 1));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_snapshot(&snapshot(), 7);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_snapshot(&snapshot(), 7);
        bytes.push(0);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StoreError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_snapshot(&snapshot(), 7);
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_snapshot(&bytes), Err(StoreError::BadMagic)));
        let mut bytes = encode_snapshot(&snapshot(), 7);
        bytes[8] = 99; // version field
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StoreError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let bytes = encode_snapshot(&snapshot(), 7);
        // flip one bit in every byte position (magic and version errors
        // surface as their own variants; everything else, the config
        // hash included, must fail the length, the check or a structured
        // check — never Ok)
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            assert!(
                decode_snapshot(&corrupted).is_err(),
                "bit flip at byte {pos} must be rejected"
            );
        }
    }

    #[test]
    fn an_absurd_length_word_is_an_error_not_a_panic() {
        // both words after the version carry u64::MAX − 8, so the test
        // does not depend on which of them is the length
        let mut bytes = encode_snapshot(&snapshot(), 7);
        for word in bytes[12..28].chunks_exact_mut(8) {
            word.copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        }
        assert!(decode_snapshot(&bytes).is_err());
    }

    /// A fresh store in its own temp directory, removed on drop.
    struct Scratch(PathBuf, RunStore);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("uq-store-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let store = RunStore::open(&dir).unwrap();
            Self(dir, store)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn store_roundtrips_and_indexes_snapshots() {
        let Scratch(_, store) = &Scratch::new("roundtrip");
        let snap = snapshot();
        let hash = store.put_snapshot(&snap, 42).unwrap();
        let (loaded, config) = store.get_snapshot(&hash).unwrap();
        assert_eq!(loaded, snap);
        assert_eq!(config, 42);
        // the object's name is the check its frame ends with
        let object = fs::read(store.object_path(&hash)).unwrap();
        let (body, _) = object.split_at(object.len() - 8);
        assert_eq!(hash, format!("{:016x}", crate::wire::frame_check(body)));

        let mut later = snap.clone();
        later.samples_done = 300;
        let hash2 = store.put_snapshot(&later, 42).unwrap();
        assert_ne!(hash, hash2, "different states must get different addresses");
        assert_eq!(store.cuts().unwrap(), [hash.as_str(), &hash2]);
        let (latest_hash, latest) = store.latest_snapshot(Some(42)).unwrap().expect("latest");
        assert_eq!(latest_hash, hash2);
        assert_eq!(latest.samples_done, 300);
        assert!(store.latest_snapshot(Some(43)).unwrap().is_none());
        let (latest_hash, _) = store.latest_snapshot(None).unwrap().expect("latest");
        assert_eq!(latest_hash, hash2);
    }

    #[test]
    fn the_latest_cut_of_a_config_is_read_from_the_frames() {
        let Scratch(_, store) = &Scratch::new("interleaved");
        let cuts: Vec<String> = [0xa, 0xb, 0xa, 0xb]
            .into_iter()
            .enumerate()
            .map(|(i, config)| {
                let mut snap = snapshot();
                snap.samples_done = i;
                store.put_snapshot(&snap, config).unwrap()
            })
            .collect();
        assert_eq!(store.cuts().unwrap(), cuts);
        let (hash, snap) = store.latest_snapshot(Some(0xa)).unwrap().expect("a's");
        assert_eq!((hash, snap.samples_done), (cuts[2].clone(), 2));
        let (hash, snap) = store.latest_snapshot(None).unwrap().expect("the newest");
        assert_eq!((hash, snap.samples_done), (cuts[3].clone(), 3));
        assert!(store.latest_snapshot(Some(0xc)).unwrap().is_none());
    }

    #[test]
    fn a_put_after_a_torn_index_line_is_kept() {
        let Scratch(_, store) = &Scratch::new("torn");
        let first = store.put_snapshot(&snapshot(), 1).unwrap();
        // a crash mid-append leaves the first bytes of a record
        let torn = format!("\n{}", &first[..8]);
        let index = fs::OpenOptions::new().append(true).open(store.index_path());
        index.unwrap().write_all(torn.as_bytes()).unwrap();
        assert_eq!(store.cuts().unwrap(), [first.as_str()]);
        let mut later = snapshot();
        later.samples_done = 300;
        let second = store.put_snapshot(&later, 1).unwrap();
        let (latest, _) = store.latest_snapshot(None).unwrap().expect("latest");
        assert_eq!(latest, second);
        assert_eq!(store.cuts().unwrap(), [first, second]);
    }

    #[test]
    fn get_snapshot_of_refuses_another_config() {
        let Scratch(_, store) = &Scratch::new("config");
        let hash = store.put_snapshot(&snapshot(), 0xa).unwrap();
        match store.get_snapshot_of(&hash, 0xb) {
            Err(StoreError::ConfigMismatch { expected, found }) => {
                assert_eq!((expected, found), (0xb, 0xa))
            }
            other => panic!("not a mismatch: {other:?}"),
        }
        assert_eq!(store.get_snapshot_of(&hash, 0xa).unwrap(), snapshot());
    }

    #[test]
    fn idempotent_put_reuses_the_object() {
        let Scratch(dir, store) = &Scratch::new("idem");
        let snap = snapshot();
        let h1 = store.put_snapshot(&snap, 1).unwrap();
        let h2 = store.put_snapshot(&snap, 1).unwrap();
        assert_eq!(h1, h2);
        // two cuts listed, one object
        assert_eq!(store.cuts().unwrap(), [h1, h2]);
        let objects = fs::read_dir(dir.join("objects")).unwrap().count();
        assert_eq!(objects, 1);
    }
}
