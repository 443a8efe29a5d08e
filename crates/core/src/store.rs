//! The content-addressed **run store**: versioned snapshots of a run's
//! full logical state, plus a manifest of queryable run records.
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
//! ## Manifest
//!
//! `manifest.jsonl` is an append-only JSON-lines index: one record per
//! stored snapshot. Lines of another `kind` (older commits registered
//! bench artifacts as `"kind":"bench"`) are kept and skipped.
//! The format is a flat string→string object per line; a tiny extractor
//! ([`manifest_field`]) keeps querying dependency-free.

use crate::coupled::{ChainState, CoarseSample};
use crate::ledger::{LedgerBook, LedgerLease, LedgerStats, PairingMode, Session};
use crate::wire::{
    codec, decode_qoi, encode_qoi, frame_decode, frame_encode, frame_id, FrameFormat,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs;
use std::hash::Hash;
use std::io::Write as _;
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

/// One line of the manifest, parsed to flat string pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestRecord {
    pub fields: Vec<(String, String)>,
}

impl ManifestRecord {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Extract the string value of `key` from one flat JSON-object line —
/// the manifest's dependency-free query primitive. Handles only the
/// subset the manifest writes (string keys/values, `\"` and `\\`
/// escapes), which is exactly enough.
pub fn manifest_field(line: &str, key: &str) -> Option<String> {
    let records = parse_flat_json(line)?;
    records.into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_flat_json(line: &str) -> Option<Vec<(String, String)>> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        // skip separators/whitespace to the next key
        while matches!(chars.peek(), Some(c) if *c == ',' || c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Some(fields);
        }
        let key = parse_json_string(&mut chars)?;
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return None;
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let value = if chars.peek() == Some(&'"') {
            parse_json_string(&mut chars)?
        } else {
            // bare scalar (number/bool): read to the next comma
            let mut v = String::new();
            while matches!(chars.peek(), Some(c) if *c != ',') {
                v.push(chars.next().unwrap());
            }
            v.trim().to_string()
        };
        fields.push((key, value));
    }
}

fn parse_json_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// The on-disk run store: `objects/<hex>.snap` content-addressed
/// snapshots plus the append-only `manifest.jsonl` index.
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (creating directories as needed) the store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Self { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.jsonl")
    }

    fn object_path(&self, hash: &str) -> PathBuf {
        self.root.join("objects").join(format!("{hash}.snap"))
    }

    /// Store a snapshot; returns its content address (hex hash). The
    /// object write is atomic (temp file + rename) and the manifest
    /// line is appended after the object exists, so a manifest entry
    /// always points at a complete object.
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
        self.append_manifest(&format!(
            "{{\"kind\":\"snapshot\",\"hash\":\"{hash}\",\
             \"config\":\"{config_hash:016x}\",\"seed\":\"{}\",\"samples\":\"{}\"}}",
            snapshot.seed, snapshot.samples_done
        ))?;
        Ok(hash)
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

    /// The most recently recorded snapshot (by manifest order),
    /// optionally restricted to a config hash: the manifest's record
    /// selects it, and the snapshot's own recorded hash must agree.
    pub fn latest_snapshot(
        &self,
        config_hash: Option<u64>,
    ) -> Result<Option<(String, RunSnapshot)>, StoreError> {
        let want = config_hash.map(|h| format!("{h:016x}"));
        let Some(record) = self.manifest_records()?.into_iter().rev().find(|r| {
            r.get("kind") == Some("snapshot")
                && want.as_deref().is_none_or(|w| r.get("config") == Some(w))
        }) else {
            return Ok(None);
        };
        let hash = record
            .get("hash")
            .ok_or(StoreError::Corrupt("manifest snapshot record without hash"))?
            .to_string();
        let snapshot = match config_hash {
            Some(config_hash) => self.get_snapshot_of(&hash, config_hash)?,
            None => self.get_snapshot(&hash)?.0,
        };
        Ok(Some((hash, snapshot)))
    }

    /// All manifest records, in append order.
    pub fn manifest_records(&self) -> Result<Vec<ManifestRecord>, StoreError> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = fs::read_to_string(path)?;
        Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| parse_flat_json(l).map(|fields| ManifestRecord { fields }))
            .collect())
    }

    fn append_manifest(&self, line: &str) -> Result<(), StoreError> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.manifest_path())?;
        writeln!(f, "{line}")?;
        Ok(())
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

    #[test]
    fn store_roundtrips_and_indexes_snapshots() {
        let dir = std::env::temp_dir().join(format!("uq-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
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
        let (latest_hash, latest) = store.latest_snapshot(Some(42)).unwrap().expect("latest");
        assert_eq!(latest_hash, hash2);
        assert_eq!(latest.samples_done, 300);
        assert!(store.latest_snapshot(Some(43)).unwrap().is_none());

        // a line older commits appended for each bench artifact: still
        // parsed, and skipped when looking for the latest snapshot
        store
            .append_manifest(
                "{\"kind\":\"bench\",\"name\":\"BENCH_PR6.json\",\
                 \"hash\":\"4cb2b2bb6b3b0f4d\",\"bytes\":\"7\"}",
            )
            .unwrap();
        let records = store.manifest_records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].get("kind"), Some("snapshot"));
        assert_eq!(records[2].get("kind"), Some("bench"));
        assert_eq!(records[2].get("name"), Some("BENCH_PR6.json"));
        let (latest_hash, _) = store.latest_snapshot(None).unwrap().expect("latest");
        assert_eq!(latest_hash, hash2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_record_naming_another_config_is_refused() {
        let dir = std::env::temp_dir().join(format!("uq-store-config-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let hash = store.put_snapshot(&snapshot(), 0xa).unwrap();
        // the record says the cut is configuration 0xb's; the object says 0xa
        let manifest = fs::read_to_string(store.manifest_path()).unwrap();
        let record = |c: char| format!("\"config\":\"{:0>16}\"", c);
        let edited = manifest.replace(&record('a'), &record('b'));
        assert_ne!(edited, manifest);
        fs::write(store.manifest_path(), edited).unwrap();
        let latest = store.latest_snapshot(Some(0xb)).unwrap_err();
        for err in [latest, store.get_snapshot_of(&hash, 0xb).unwrap_err()] {
            let (expected, found) = match err {
                StoreError::ConfigMismatch { expected, found } => (expected, found),
                err => panic!("not a mismatch: {err}"),
            };
            assert_eq!((expected, found), (0xb, 0xa));
        }
        assert!(store.latest_snapshot(Some(0xa)).unwrap().is_none());
        // unfiltered, the record is still the latest, and reads back as 0xa's
        let (_, snap) = store.latest_snapshot(None).unwrap().expect("latest");
        assert_eq!(snap, snapshot());
        assert_eq!(store.get_snapshot_of(&hash, 0xa).unwrap(), snapshot());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_field_extracts_values() {
        let line = "{\"kind\":\"bench\",\"name\":\"a \\\"b\\\".json\",\"bytes\":\"12\"}";
        assert_eq!(manifest_field(line, "kind").as_deref(), Some("bench"));
        assert_eq!(
            manifest_field(line, "name").as_deref(),
            Some("a \"b\".json")
        );
        assert_eq!(manifest_field(line, "bytes").as_deref(), Some("12"));
        assert_eq!(manifest_field(line, "missing"), None);
        assert_eq!(manifest_field("not json", "kind"), None);
    }

    #[test]
    fn idempotent_put_reuses_the_object() {
        let dir = std::env::temp_dir().join(format!("uq-store-idem-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let snap = snapshot();
        let h1 = store.put_snapshot(&snap, 1).unwrap();
        let h2 = store.put_snapshot(&snap, 1).unwrap();
        assert_eq!(h1, h2);
        // two manifest lines, one object
        assert_eq!(store.manifest_records().unwrap().len(), 2);
        let objects = fs::read_dir(dir.join("objects")).unwrap().count();
        assert_eq!(objects, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
