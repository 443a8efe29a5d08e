//! The content-addressed **run store**: versioned snapshots of a run's
//! full logical state, plus a manifest of queryable run records.
//!
//! ## Snapshot format
//!
//! A snapshot file is self-describing and integrity-checked:
//!
//! ```text
//! magic    8 bytes  b"UQSNAP\0\0"
//! version  u32 LE   FORMAT_VERSION
//! config   u64 LE   caller-supplied config hash (resume refuses a
//!                   snapshot taken under a different configuration)
//! len      u64 LE   payload length in bytes
//! payload  len bytes (hand-rolled little-endian codec, below)
//! check    u64 LE   FNV-1a over everything before it
//! ```
//!
//! Any truncation fails the length check and any bit flip fails either a
//! structured decode check or the trailing FNV check — a damaged
//! snapshot is *rejected with an error*, never mis-decoded (fuzzed by
//! `tests/snapshot_roundtrip_fuzz.rs`).
//!
//! ## Content addressing
//!
//! The object name is the hex of the same FNV-1a hash, so identical
//! logical states produce identical files at identical addresses. The
//! hash-map-backed state ([`crate::ledger::LedgerBook`]) is written
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

use crate::coupled::{ChainState, CoarseSample, Cursor};
use crate::estimator::{LevelReport, Term};
use crate::ledger::{LedgerBook, LedgerStats, Session};
use crate::wire::{decode_qoi, encode_qoi};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use uq_mcmc::stats::VectorMoments;

// The codec primitives were hoisted into [`crate::wire`] when the net
// transport became a second consumer; re-exported here so every
// existing `store::` path keeps working.
pub use crate::wire::{fnv1a, Codec, Dec, Enc, StoreError};

/// Version of the snapshot byte format. Bump on any layout change; the
/// decoder refuses other versions (the committed golden snapshot in
/// `tests/fixtures/` pins readability of the current one, and the
/// previous one's golden that it is refused).
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"UQSNAP\0\0";

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

impl Codec for ChainState {
    fn encode(&self, enc: &mut Enc) {
        self.steps.encode(enc);
        self.accepted.encode(enc);
        self.theta.encode(enc);
        self.log_density.encode(enc);
        self.qoi.encode(enc);
        self.anchor.encode(enc);
        self.last_coarse.encode(enc);
        self.last_pairing.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(ChainState {
            steps: usize::decode(dec)?,
            accepted: usize::decode(dec)?,
            theta: Vec::decode(dec)?,
            log_density: f64::decode(dec)?,
            qoi: Codec::decode(dec)?,
            anchor: Option::decode(dec)?,
            last_coarse: Option::decode(dec)?,
            last_pairing: Option::decode(dec)?,
        })
    }
}

impl Codec for Cursor {
    fn encode(&self, enc: &mut Enc) {
        self.session_seed.encode(enc);
        self.serves.encode(enc);
        self.diverged_serves.encode(enc);
        self.pairing.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Cursor {
            session_seed: Option::decode(dec)?,
            serves: u64::decode(dec)?,
            diverged_serves: u64::decode(dec)?,
            pairing: Option::decode(dec)?,
        })
    }
}

impl Codec for Session {
    fn encode(&self, enc: &mut Enc) {
        self.seed.encode(enc);
        self.serves.encode(enc);
        self.pairing.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Session {
            seed: u64::decode(dec)?,
            serves: u64::decode(dec)?,
            pairing: Option::decode(dec)?,
        })
    }
}

/// The always-zero `spec_*` fields are not written.
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

/// Sessions as `(requester, level, session)` and generations as
/// `(requester, level, generation)`, each sorted by key, then the
/// statistics.
impl Codec for LedgerBook {
    fn encode(&self, enc: &mut Enc) {
        encode_sorted(&self.sessions, enc);
        encode_sorted(&self.generations, enc);
        self.stats.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(LedgerBook {
            sessions: decode_sorted(dec, "ledger sessions out of order")?,
            generations: decode_sorted(dec, "ledger generations out of order")?,
            stats: LedgerStats::decode(dec)?,
        })
    }
}

/// The per-component `(count, mean, m2)` parts; parts whose counts
/// disagree are refused (no accumulator has them).
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

impl Codec for crate::ledger::LedgerLease {
    fn encode(&self, enc: &mut Enc) {
        self.session_seed.encode(enc);
        self.serves.encode(enc);
        self.pairing.encode(enc);
        self.anchor.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(crate::ledger::LedgerLease {
            session_seed: u64::decode(dec)?,
            serves: u64::decode(dec)?,
            pairing: Option::decode(dec)?,
            anchor: CoarseSample::decode(dec)?,
        })
    }
}

// ---------------------------------------------------------------------
// snapshot sections
// ---------------------------------------------------------------------

/// Whose state a snapshot holds: the sequential driver's cursor, or a
/// consistent cut of the parallel role machines (neither resumes the
/// other's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Sequential,
    Runtime,
}

/// Tags 0 and 2; tag 1 (a retired stamp) is refused.
impl Codec for Backend {
    fn encode(&self, enc: &mut Enc) {
        let tag: u8 = match self {
            Backend::Sequential => 0,
            Backend::Runtime => 2,
        };
        tag.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        match u8::decode(dec)? {
            0 => Ok(Backend::Sequential),
            2 => Ok(Backend::Runtime),
            _ => Err(StoreError::Corrupt("backend tag")),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Sequential => "sequential",
            Backend::Runtime => "runtime",
        })
    }
}

/// One controller's checkpointed state (parallel backends): chain,
/// counters and RNG stream position, captured at a clean step boundary.
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

impl Codec for ChainCkpt {
    fn encode(&self, enc: &mut Enc) {
        self.rank.encode(enc);
        self.level.encode(enc);
        self.burnin_left.encode(enc);
        self.producing.encode(enc);
        self.done_levels.encode(enc);
        self.rng.encode(enc);
        self.chain.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(ChainCkpt {
            rank: usize::decode(dec)?,
            level: usize::decode(dec)?,
            burnin_left: usize::decode(dec)?,
            producing: bool::decode(dec)?,
            done_levels: Vec::decode(dec)?,
            rng: <[u64; 4]>::decode(dec)?,
            chain: ChainState::decode(dec)?,
        })
    }
}

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

impl Codec for CollectorCkpt {
    fn encode(&self, enc: &mut Enc) {
        self.level.encode(enc);
        self.count.encode(enc);
        self.moments.encode(enc);
        self.theta_samples.encode(enc);
        self.correction_pairs.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(CollectorCkpt {
            level: usize::decode(dec)?,
            count: usize::decode(dec)?,
            moments: Option::decode(dec)?,
            theta_samples: Vec::decode(dec)?,
            correction_pairs: Vec::decode(dec)?,
        })
    }
}

/// A completed sequential term. Its evaluation count and mean cost are
/// not written: inside a cut they are always 0 (the driver fills them in
/// after the last term, from counters and offsets), and decode sets 0.
impl Codec for LevelReport {
    fn encode(&self, enc: &mut Enc) {
        self.level.encode(enc);
        self.n_samples.encode(enc);
        self.acceptance_rate.encode(enc);
        self.mean_correction.encode(enc);
        self.var_correction.encode(enc);
        self.iact.encode(enc);
        self.theta_samples.encode(enc);
        self.qoi_samples.encode(enc);
        self.correction_pairs.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(LevelReport {
            level: usize::decode(dec)?,
            n_samples: usize::decode(dec)?,
            acceptance_rate: f64::decode(dec)?,
            mean_correction: Vec::decode(dec)?,
            var_correction: Vec::decode(dec)?,
            iact: f64::decode(dec)?,
            evaluations: 0,
            mean_eval_ms: 0.0,
            theta_samples: Vec::decode(dec)?,
            qoi_samples: Vec::decode(dec)?,
            correction_pairs: Vec::decode(dec)?,
        })
    }
}

/// The sequential driver's cursor: which term is running, how far it
/// got, and every accumulator needed to continue bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SequentialCkpt {
    /// Level of the term in progress.
    pub level: usize,
    /// The term in progress (burn-in done).
    pub term: Term,
    /// The term's chain stack, levels `0..=level`.
    pub chains: Vec<ChainState>,
    /// The session each coarse level serves to the one above, levels
    /// `0..level`.
    pub cursors: Vec<Cursor>,
    pub rng: [u64; 4],
    /// Reports of terms already finished.
    pub completed: Vec<LevelReport>,
    /// Per-level model-evaluation counts at the cut (the resumed run's
    /// counters restart at zero; these offsets keep the reported totals
    /// equal to the uninterrupted run's).
    pub eval_offsets: Vec<usize>,
}

impl Codec for SequentialCkpt {
    fn encode(&self, enc: &mut Enc) {
        let term = &self.term;
        self.level.encode(enc);
        term.samples_done.encode(enc);
        self.chains.encode(enc);
        self.cursors.encode(enc);
        self.rng.encode(enc);
        term.moments.encode(enc);
        term.rep_trace.encode(enc);
        term.theta_samples.encode(enc);
        term.qoi_samples.encode(enc);
        term.correction_pairs.encode(enc);
        self.completed.encode(enc);
        self.eval_offsets.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let level = usize::decode(dec)?;
        let samples_done = usize::decode(dec)?;
        let chains = Vec::<ChainState>::decode(dec)?;
        let cursors = Vec::<Cursor>::decode(dec)?;
        if cursors.len() != level || chains.len() != level + 1 {
            return Err(StoreError::Corrupt("sequential stack off its level"));
        }
        let rng = <[u64; 4]>::decode(dec)?;
        Ok(SequentialCkpt {
            level,
            term: Term {
                samples_done,
                moments: VectorMoments::decode(dec)?,
                rep_trace: Vec::decode(dec)?,
                theta_samples: Vec::decode(dec)?,
                qoi_samples: Vec::decode(dec)?,
                correction_pairs: Vec::decode(dec)?,
            },
            chains,
            cursors,
            rng,
            completed: Vec::decode(dec)?,
            eval_offsets: Vec::decode(dec)?,
        })
    }
}

/// A whole run's consistent cut: one snapshot per checkpoint barrier.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSnapshot {
    pub backend: Backend,
    /// Base seed of the run (sanity cross-check on resume).
    pub seed: u64,
    /// Progress marker: top-level samples collected at the cut.
    pub samples_done: usize,
    /// Parallel backends: one entry per controller rank.
    pub chains: Vec<ChainCkpt>,
    /// Parallel backends: one entry per level's collector, in level order.
    pub collectors: Vec<CollectorCkpt>,
    /// Parallel backends: the phonebook's full session ledger.
    pub ledger: Option<LedgerBook>,
    /// Sequential driver's cursor (`None` for parallel backends).
    pub sequential: Option<SequentialCkpt>,
}

impl Codec for RunSnapshot {
    fn encode(&self, enc: &mut Enc) {
        self.backend.encode(enc);
        self.seed.encode(enc);
        self.samples_done.encode(enc);
        self.chains.encode(enc);
        self.collectors.encode(enc);
        self.ledger.encode(enc);
        self.sequential.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(RunSnapshot {
            backend: Backend::decode(dec)?,
            seed: u64::decode(dec)?,
            samples_done: usize::decode(dec)?,
            chains: Vec::decode(dec)?,
            collectors: Vec::decode(dec)?,
            ledger: Option::decode(dec)?,
            sequential: Option::decode(dec)?,
        })
    }
}

// ---------------------------------------------------------------------
// snapshot file framing
// ---------------------------------------------------------------------

/// Serialize a snapshot into the self-describing, integrity-checked
/// file format (see the module docs for the layout).
pub fn encode_snapshot(snapshot: &RunSnapshot, config_hash: u64) -> Vec<u8> {
    let mut payload = Enc::new();
    snapshot.encode(&mut payload);
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 36);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&config_hash.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let check = fnv1a(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Parse and verify a snapshot file; returns the snapshot and the
/// config hash recorded in its header. Rejects bad magic, unknown
/// format versions, truncation, trailing bytes and any bit corruption.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(RunSnapshot, u64), StoreError> {
    let header_len = MAGIC.len() + 4 + 8 + 8;
    if bytes.len() < header_len + 8 {
        return Err(StoreError::Truncated {
            needed: header_len + 8,
            available: bytes.len(),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let config_hash = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload_len =
        usize::try_from(payload_len).map_err(|_| StoreError::Corrupt("payload length"))?;
    let total = header_len + payload_len + 8;
    if bytes.len() < total {
        return Err(StoreError::Truncated {
            needed: total,
            available: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(StoreError::TrailingBytes(bytes.len() - total));
    }
    let expected = fnv1a(&bytes[..total - 8]);
    let found = u64::from_le_bytes(bytes[total - 8..].try_into().unwrap());
    if expected != found {
        return Err(StoreError::ChecksumMismatch { expected, found });
    }
    let mut dec = Dec::new(&bytes[header_len..total - 8]);
    let snapshot = RunSnapshot::decode(&mut dec)?;
    if dec.remaining() != 0 {
        return Err(StoreError::TrailingBytes(dec.remaining()));
    }
    Ok((snapshot, config_hash))
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
        let hash = format!("{:016x}", fnv1a(&bytes));
        let path = self.object_path(&hash);
        if !path.exists() {
            let tmp = self.root.join("objects").join(format!("{hash}.tmp"));
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        self.append_manifest(&format!(
            "{{\"kind\":\"snapshot\",\"hash\":\"{hash}\",\"backend\":\"{}\",\
             \"config\":\"{config_hash:016x}\",\"seed\":\"{}\",\"samples\":\"{}\"}}",
            snapshot.backend, snapshot.seed, snapshot.samples_done
        ))?;
        Ok(hash)
    }

    /// Load and verify the snapshot at `hash`.
    pub fn get_snapshot(&self, hash: &str) -> Result<(RunSnapshot, u64), StoreError> {
        let bytes = fs::read(self.object_path(hash))?;
        decode_snapshot(&bytes)
    }

    /// The most recently recorded snapshot (by manifest order),
    /// optionally restricted to a config hash.
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
        let (snapshot, _) = self.get_snapshot(&hash)?;
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
            backend: Backend::Runtime,
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
            ledger: Some(LedgerBook {
                sessions: HashMap::from([(
                    (5, 0),
                    Session {
                        seed: 99,
                        serves: 7,
                        pairing: Some(sample(0.4)),
                    },
                )]),
                generations: HashMap::from([((5, 0), 1)]),
                stats: LedgerStats {
                    sessions: 1,
                    serves: 7,
                    diverged: 2,
                    ..LedgerStats::default()
                },
            }),
            sequential: None,
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
    fn the_retired_thread_stamp_is_corrupt() {
        let stamp = |tag: u8| Backend::decode(&mut Dec::new(&[tag]));
        assert!(matches!(stamp(0), Ok(Backend::Sequential)));
        assert!(matches!(stamp(2), Ok(Backend::Runtime)));
        assert!(matches!(stamp(1), Err(StoreError::Corrupt("backend tag"))));
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let bytes = encode_snapshot(&snapshot(), 7);
        // flip one bit in every byte position (magic/version/config
        // errors surface as their own variants; everything else must
        // fail the checksum or a structured check — never Ok)
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
    fn store_roundtrips_and_indexes_snapshots() {
        let dir = std::env::temp_dir().join(format!("uq-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let snap = snapshot();
        let hash = store.put_snapshot(&snap, 42).unwrap();
        let (loaded, config) = store.get_snapshot(&hash).unwrap();
        assert_eq!(loaded, snap);
        assert_eq!(config, 42);

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
