//! The one wire layer: the hand-rolled little-endian [`Codec`], the
//! [`codec!`] macro that declares a type's layout once, and the one framer
//! ([`frame_encode`] / [`frame_decode`] / [`frame_read`]). Every byte
//! that leaves a process goes through it: the socket frames of
//! `uq_parallel::net` and `uq_parallel::service`, and the run store's
//! snapshot files ([`crate::store`]), which are frames of their own
//! [`FrameFormat`].
//!
//! One framer, so one integrity check: the word-parallel
//! [`frame_check`], which costs what reading the bytes costs. A frame
//! states its format's version, and each format decodes exactly one, so
//! changing the check bumps every format's version (the socket
//! protocols' and the snapshot format's) and turns their goldens into
//! rejection fixtures. [`fnv1a`] stays for digests that are not frames
//! (report digests, config hashes, golden constants).
//!
//! Design rules, shared by every consumer:
//!
//! * little-endian integers, `f64` via `to_bits` (NaN payloads survive
//!   a round-trip bit-for-bit — content addressing and bit-parity
//!   conformance both rely on it);
//! * every decode is bounds-checked, and every collection length is
//!   validated against the remaining bytes **before** allocation, so a
//!   corrupt length fails cleanly instead of attempting an absurd
//!   allocation;
//! * encoding is deterministic: equal values produce equal bytes;
//! * a type's layout is stated once, by [`codec!`]; a hand-written
//!   [`Codec`] impl is one that validates or skips a field, and says so
//!   at the impl.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

/// Errors raised by the wire codec, the framer (socket frames and
/// snapshot files alike) and the run store.
#[derive(Debug)]
pub enum StoreError {
    /// Fewer bytes than the format requires (torn/truncated input).
    Truncated {
        needed: usize,
        available: usize,
    },
    /// The input does not start with the expected magic.
    BadMagic,
    /// The format version is not the one this build reads.
    BadVersion {
        found: u32,
    },
    /// The trailing integrity check does not match (bit rot / torn write).
    ChecksumMismatch {
        expected: u64,
        found: u64,
    },
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        expected: u64,
        found: u64,
    },
    /// A structured field decoded to an impossible value.
    Corrupt(&'static str),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { needed, available } => write!(
                f,
                "truncated input: needed {needed} bytes, only {available} available"
            ),
            StoreError::BadMagic => write!(f, "bad magic (not a snapshot / net frame)"),
            StoreError::BadVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch (expected {expected:016x}, found {found:016x})"
            ),
            StoreError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different run configuration \
                 (expected config hash {expected:016x}, snapshot has {found:016x})"
            ),
            StoreError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            StoreError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete decode")
            }
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// FNV-1a 64-bit hash — the digest of bytes that are not a frame (run
/// reports, config hashes, golden constants); frames and snapshot files
/// carry [`frame_check`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Byte-buffer encoder (little-endian throughout, `f64` via `to_bits`).
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes (frame magics and the like; structured values
    /// should go through [`Codec::encode`]).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor decoder over a byte slice; every read is bounds-checked and
/// every collection length is validated against the remaining bytes
/// before allocation, so corrupt lengths fail cleanly instead of
/// attempting absurd allocations.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes (frame magics and the like; structured values
    /// should go through [`Codec::decode`]).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `len` back-to-back `f64`s, exact-size: a `Vec` or an `Arc<[f64]>`
    /// collects them into one allocation.
    fn f64s(&mut self, len: usize) -> Result<impl ExactSizeIterator<Item = f64> + 'a, StoreError> {
        // `take` fails on `len * 8 > remaining` before anything is allocated
        let words = self.take(len.saturating_mul(8))?.chunks_exact(8);
        let bits = words.map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        Ok(bits.map(f64::from_bits))
    }
}

/// A value with a hand-rolled binary encoding. Encoding is
/// deterministic: equal values produce equal bytes (content addressing
/// relies on it), including NaN payload bits for floats.
pub trait Codec: Sized {
    fn encode(&self, enc: &mut Enc);
    fn decode(dec: &mut Dec) -> Result<Self, StoreError>;

    /// Encode `items` back to back (what `Vec<Self>` writes after its
    /// length). An override must produce exactly these bytes.
    fn encode_slice(items: &[Self], enc: &mut Enc) {
        for item in items {
            item.encode(enc);
        }
    }

    /// Decode `len` back-to-back items (what `Vec<Self>` reads after
    /// its length), refusing a `len` the remaining bytes cannot hold
    /// before allocating for it.
    fn decode_vec(len: usize, dec: &mut Dec) -> Result<Vec<Self>, StoreError> {
        // every element occupies at least one byte, so a corrupt length
        // can never demand more elements than bytes remain
        if len > dec.remaining() {
            return Err(StoreError::Truncated {
                needed: len,
                available: dec.remaining(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(dec)?);
        }
        Ok(out)
    }
}

impl Codec for u8 {
    fn encode(&self, enc: &mut Enc) {
        enc.bytes(&[*self]);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(dec.take(1)?[0])
    }
}

impl Codec for u32 {
    fn encode(&self, enc: &mut Enc) {
        enc.bytes(&self.to_le_bytes());
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(u32::from_le_bytes(dec.take(4)?.try_into().unwrap()))
    }
}

impl Codec for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.bytes(&self.to_le_bytes());
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(u64::from_le_bytes(dec.take(8)?.try_into().unwrap()))
    }
}

impl Codec for usize {
    fn encode(&self, enc: &mut Enc) {
        (*self as u64).encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let v = u64::decode(dec)?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt("usize overflow"))
    }
}

impl Codec for f64 {
    fn encode(&self, enc: &mut Enc) {
        self.to_bits().encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(f64::from_bits(u64::decode(dec)?))
    }

    /// One resize and a check-free copy loop instead of a capacity test
    /// per element (a QOI is 1089 of them).
    fn encode_slice(items: &[Self], enc: &mut Enc) {
        let start = enc.buf.len();
        enc.buf.resize(start + items.len() * 8, 0);
        for (dst, x) in enc.buf[start..].chunks_exact_mut(8).zip(items) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    fn decode_vec(len: usize, dec: &mut Dec) -> Result<Vec<Self>, StoreError> {
        Ok(dec.f64s(len)?.collect())
    }
}

/// A shared QOI vector: the bytes of a `Vec<f64>`, decoded straight into
/// the shared slice.
impl Codec for Arc<[f64]> {
    fn encode(&self, enc: &mut Enc) {
        self.len().encode(enc);
        f64::encode_slice(self, enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let len = usize::decode(dec)?;
        Ok(dec.f64s(len)?.collect())
    }
}

/// Length word of an absent QOI: no slice in memory has `u64::MAX`
/// elements, and a decoder that expects a present QOI refuses it as
/// longer than the bytes left instead of misreading it.
const ABSENT_QOI: u64 = u64::MAX;

/// Encode a QOI slot without a tag byte: a present QOI is the bytes of
/// its `Arc<[f64]>` (so a slot that holds one writes what a QOI always
/// wrote), an absent one the length word `u64::MAX` alone.
pub fn encode_qoi(slot: &Option<Arc<[f64]>>, enc: &mut Enc) {
    match slot {
        Some(qoi) => qoi.encode(enc),
        None => ABSENT_QOI.encode(enc),
    }
}

/// Decode what [`encode_qoi`] wrote.
pub fn decode_qoi(dec: &mut Dec) -> Result<Option<Arc<[f64]>>, StoreError> {
    match u64::decode(dec)? {
        ABSENT_QOI => Ok(None),
        len => {
            let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("usize overflow"))?;
            Ok(Some(dec.f64s(len)?.collect()))
        }
    }
}

impl Codec for bool {
    fn encode(&self, enc: &mut Enc) {
        enc.bytes(&[u8::from(*self)]);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        match dec.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Corrupt("bool tag")),
        }
    }
}

impl Codec for String {
    fn encode(&self, enc: &mut Enc) {
        self.len().encode(enc);
        enc.bytes(self.as_bytes());
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let len = usize::decode(dec)?;
        let bytes = dec.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt("utf-8 string"))
    }
}

impl Codec for [u64; 4] {
    fn encode(&self, enc: &mut Enc) {
        for w in self {
            w.encode(enc);
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok([
            u64::decode(dec)?,
            u64::decode(dec)?,
            u64::decode(dec)?,
            u64::decode(dec)?,
        ])
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        self.len().encode(enc);
        T::encode_slice(self, enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        let len = usize::decode(dec)?;
        T::decode_vec(len, dec)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.bytes(&[0]),
            Some(v) => {
                enc.bytes(&[1]);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        match dec.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(StoreError::Corrupt("option tag")),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Box::new(T::decode(dec)?))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

/// A borrowed value writes its own bytes and decodes to an owned one, so
/// a frame can carry a value it does not own.
impl<T: Codec + Clone> Codec for Cow<'_, T> {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
        Ok(Cow::Owned(T::decode(dec)?))
    }
}

/// Implement [`Codec`] from one declaration of a type's wire layout, so
/// its encode and its decode cannot disagree.
///
/// * `codec! { struct Name { a, b, c } }` — every field, in wire order.
/// * `codec! { enum Name { 0 => A { x, y }, 1 => B(z), 2 => C } }` — every
///   variant: a tag byte, then the variant's fields in order. A tag the
///   declaration does not list is refused as `Corrupt("invalid Name tag")`.
///
/// A field or a variant left out does not compile: encode destructures
/// the value and matches every variant, decode builds it whole.
#[macro_export]
macro_rules! codec {
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Codec for $name {
            fn encode(&self, enc: &mut $crate::wire::Enc) {
                let $name { $($field),+ } = self;
                $($crate::wire::Codec::encode($field, enc);)+
            }
            fn decode(dec: &mut $crate::wire::Dec) -> Result<Self, $crate::wire::StoreError> {
                Ok($name { $($field: $crate::wire::Codec::decode(dec)?),+ })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $variant:ident
            $({ $($field:ident),+ $(,)? })?
            $(( $($item:ident),+ $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::wire::Codec for $name {
            fn encode(&self, enc: &mut $crate::wire::Enc) {
                match self {
                    $($name::$variant $({ $($field),+ })? $(( $($item),+ ))? => {
                        <u8 as $crate::wire::Codec>::encode(&$tag, enc);
                        $($($crate::wire::Codec::encode($field, enc);)+)?
                        $($($crate::wire::Codec::encode($item, enc);)+)?
                    })+
                }
            }
            fn decode(dec: &mut $crate::wire::Dec) -> Result<Self, $crate::wire::StoreError> {
                match <u8 as $crate::wire::Codec>::decode(dec)? {
                    $($tag => {
                        $($(let $field = $crate::wire::Codec::decode(dec)?;)+)?
                        $($(let $item = $crate::wire::Codec::decode(dec)?;)+)?
                        Ok($name::$variant $({ $($field),+ })? $(( $($item),+ ))?)
                    })+
                    _ => Err($crate::wire::StoreError::Corrupt(concat!(
                        "invalid ",
                        stringify!($name),
                        " tag"
                    ))),
                }
            }
        }
    };
}
pub use crate::codec;

// ---------------------------------------------------------------------
// frames: socket messages and snapshot files
// ---------------------------------------------------------------------

/// One framed format — a socket wire or the snapshot file: its magic,
/// the single version this build reads, and the largest payload a
/// header may claim.
pub struct FrameFormat {
    pub magic: &'static [u8; 8],
    pub version: u32,
    pub max_len: u64,
}

/// `magic(8) ‖ version(4, LE) ‖ payload_len(8, LE)`.
const FRAME_HEADER_LEN: usize = 20;
/// Header plus the trailing 8-byte check.
const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + 8;
/// A reader never allocates more than this beyond the bytes received.
const READ_CHUNK: usize = 64 << 10;

const CHECK_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const CHECK_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One multiply-xorshift round: a bijection of `h` for fixed `w` and of
/// `w` for fixed `h`, which is what makes any change confined to one
/// word certain (not merely likely) to change the check.
#[inline(always)]
fn check_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(CHECK_MUL);
    h ^ (h >> 32)
}

/// The frame integrity check: four independent `check_step` lanes
/// over the little-endian `u64` words of `bytes` (word `i` goes to lane
/// `i mod 4`, the last word zero-padded), then the byte length and the
/// four lanes folded through the same step. DESIGN §9 spells it out.
pub fn frame_check(bytes: &[u8]) -> u64 {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut lanes = CHECK_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = check_step(*lane, word(w));
        }
    }
    for (lane, c) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        *lane = check_step(*lane, u64::from_le_bytes(w));
    }
    lanes
        .iter()
        .fold(check_step(CHECK_MUL, bytes.len() as u64), |h, &lane| {
            check_step(h, lane)
        })
}

/// Encode `value` into its full on-wire form, built in one buffer:
/// `magic(8) ‖ version(4, LE) ‖ payload_len(8, LE) ‖ payload ‖ check(8, LE)`
/// with [`frame_check`] taken over everything before it.
pub fn frame_encode<T: Codec>(format: &FrameFormat, value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.bytes(format.magic);
    format.version.encode(&mut enc);
    0u64.encode(&mut enc); // payload length, known once the payload is written
    value.encode(&mut enc);
    let mut out = enc.into_bytes();
    let len = (out.len() - FRAME_HEADER_LEN) as u64;
    out[12..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let check = frame_check(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Validate the frame header `bytes` starts with and return the size
/// of the whole frame it announces.
fn frame_total_len(format: &FrameFormat, bytes: &[u8]) -> Result<usize, StoreError> {
    let mut header = Dec::new(bytes);
    if header.take(8)? != format.magic {
        return Err(StoreError::BadMagic);
    }
    let version = u32::decode(&mut header)?;
    if version != format.version {
        return Err(StoreError::BadVersion { found: version });
    }
    let len = u64::decode(&mut header)?;
    // checked: no cap may make the frame's size overflow
    usize::try_from(len)
        .ok()
        .filter(|&len| len as u64 <= format.max_len)
        .and_then(|len| FRAME_OVERHEAD.checked_add(len))
        .ok_or(StoreError::Corrupt("frame length exceeds cap"))
}

/// Decode one full on-wire frame (the exact inverse of
/// [`frame_encode`]); rejects bad magic, version skew, length lies,
/// check mismatches and trailing bytes, each with its own error.
pub fn frame_decode<T: Codec>(format: &FrameFormat, bytes: &[u8]) -> Result<T, StoreError> {
    let total = frame_total_len(format, bytes)?;
    if bytes.len() < total {
        return Err(StoreError::Truncated {
            needed: total,
            available: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(StoreError::TrailingBytes(bytes.len() - total));
    }
    let (body, trailer) = bytes.split_at(total - 8);
    let expected = frame_check(body);
    let found = u64::decode(&mut Dec::new(trailer))?;
    if expected != found {
        return Err(StoreError::ChecksumMismatch { expected, found });
    }
    let mut dec = Dec::new(&body[FRAME_HEADER_LEN..]);
    let value = T::decode(&mut dec)?;
    if dec.remaining() != 0 {
        return Err(StoreError::TrailingBytes(dec.remaining()));
    }
    Ok(value)
}

/// Read one frame from a stream; returns the value and the frame's size
/// on the wire, or `None` on a clean end of stream at a frame boundary.
/// A [`StoreError`] from the decoder travels inside an `InvalidData`
/// error; a stream that ends inside a frame is `UnexpectedEof`. The
/// buffer grows with the bytes received, never with the stated length.
pub fn frame_read<T: Codec>(
    format: &FrameFormat,
    r: &mut impl Read,
) -> io::Result<Option<(T, usize)>> {
    let invalid = |e: StoreError| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut buf = vec![0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < FRAME_HEADER_LEN {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let total = frame_total_len(format, &buf).map_err(invalid)?;
    while buf.len() < total {
        let received = buf.len();
        buf.resize(total.min(received + READ_CHUNK), 0);
        r.read_exact(&mut buf[received..])?;
    }
    frame_decode(format, &buf)
        .map(|value| Some((value, total)))
        .map_err(invalid)
}

/// The check a frame ends with (what [`frame_decode`] verifies it
/// against): a name for the frame's bytes, read without hashing them
/// again. Panics on fewer than 8 bytes, which no encoded frame has.
pub fn frame_id(frame: &[u8]) -> u64 {
    let trailer = frame.len() - 8;
    u64::from_le_bytes(frame[trailer..].try_into().expect("8-byte check"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMAT: FrameFormat = FrameFormat {
        magic: b"UQTESTF\0",
        version: 7,
        max_len: 1 << 30,
    };

    /// Deterministic filler with no repeated 8-byte words.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678_9ABC_DEF1u64;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn check_sees_every_single_bit_flip() {
        // lengths on and off the 8- and 32-byte boundaries
        for len in [1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 257] {
            let mut bytes = noise(len);
            let clean = frame_check(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_check(&bytes), clean, "len {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn check_sees_any_two_aligned_words_swapped() {
        let bytes = noise(8 * 96 + 5);
        let clean = frame_check(&bytes);
        for i in 0..96 {
            for j in i + 1..96 {
                let mut swapped = bytes.clone();
                for k in 0..8 {
                    swapped.swap(8 * i + k, 8 * j + k);
                }
                assert_ne!(frame_check(&swapped), clean, "words {i} and {j}");
            }
        }
    }

    #[test]
    fn check_separates_zero_runs_by_length() {
        // zero words leave a word-xor untouched and zero padding makes
        // `[0; n]` and `[0; n + 1]` the same words: the length fold and
        // the non-zero lane seeds are what tell these apart
        let zeros = [0u8; 200];
        let mut seen: Vec<u64> = (0..=200).map(|n| frame_check(&zeros[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 201);
        // and a trailing zero is not absorbed by the padded last word
        assert_ne!(frame_check(&[1, 2, 3]), frame_check(&[1, 2, 3, 0]));
    }

    #[test]
    fn decoder_ladder_is_typed() {
        let value: Vec<f64> = (0..100).map(f64::from).collect();
        let good = frame_encode(&FORMAT, &value);
        assert_eq!(good.len(), FRAME_OVERHEAD + 8 + 800);
        assert_eq!(frame_decode::<Vec<f64>>(&FORMAT, &good).unwrap(), value);

        for cut in 1..=32 {
            assert!(matches!(
                frame_decode::<Vec<f64>>(&FORMAT, &good[..good.len() - cut]),
                Err(StoreError::Truncated { .. })
            ));
        }
        for pad in 1..=32 {
            let mut padded = good.clone();
            padded.resize(good.len() + pad, 0);
            assert!(matches!(
                frame_decode::<Vec<f64>>(&FORMAT, &padded),
                Err(StoreError::TrailingBytes(n)) if n == pad
            ));
        }
        let with_len = |len: u64| {
            let mut lied = good.clone();
            lied[12..20].copy_from_slice(&len.to_le_bytes());
            frame_decode::<Vec<f64>>(&FORMAT, &lied)
        };
        assert!(matches!(with_len(807), Err(StoreError::TrailingBytes(1))));
        assert!(matches!(with_len(809), Err(StoreError::Truncated { .. })));
        assert!(matches!(with_len(0), Err(StoreError::TrailingBytes(808))));
        assert!(matches!(with_len(u64::MAX), Err(StoreError::Corrupt(_))));
        // a length that lies consistently (bytes cut to match) still
        // fails: the length is under the check
        let mut shorter = good[..good.len() - 16].to_vec();
        shorter[12..20].copy_from_slice(&800u64.to_le_bytes());
        shorter.extend_from_slice(&good[good.len() - 8..]);
        assert!(matches!(
            frame_decode::<Vec<f64>>(&FORMAT, &shorter),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        let mut magic = good.clone();
        magic[0] ^= 1;
        assert!(matches!(
            frame_decode::<Vec<f64>>(&FORMAT, &magic),
            Err(StoreError::BadMagic)
        ));
        let mut version = good.clone();
        version[8] = 6;
        assert!(matches!(
            frame_decode::<Vec<f64>>(&FORMAT, &version),
            Err(StoreError::BadVersion { found: 6 })
        ));
        let mut flipped = good.clone();
        flipped[40] ^= 0x10;
        assert!(matches!(
            frame_decode::<Vec<f64>>(&FORMAT, &flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // a payload the value does not fill is trailing bytes too
        assert!(matches!(
            frame_decode::<u64>(&FORMAT, &frame_encode(&FORMAT, &(1u64, 2u64))),
            Err(StoreError::TrailingBytes(8))
        ));
    }

    /// A stream that hands out at most `step` bytes per `read`.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn reading_is_independent_of_how_the_stream_was_chunked() {
        // two frames back to back, the first longer than one READ_CHUNK
        let big: Vec<f64> = (0..20_000).map(|i| f64::from(i) * 0.5).collect();
        let small = vec![f64::NAN, -0.0];
        let mut stream = frame_encode(&FORMAT, &big);
        let first_len = stream.len();
        assert!(first_len > READ_CHUNK);
        stream.extend(frame_encode(&FORMAT, &small));
        for step in [1, 3, 19, 20, 21, 4096, usize::MAX] {
            let mut r = Dribble {
                bytes: &stream,
                step,
            };
            let (first, n) = frame_read::<Vec<f64>>(&FORMAT, &mut r).unwrap().unwrap();
            assert_eq!((first, n), (big.clone(), first_len), "step {step}");
            let (second, _) = frame_read::<Vec<f64>>(&FORMAT, &mut r).unwrap().unwrap();
            assert_eq!(second[0].to_bits(), f64::NAN.to_bits());
            assert_eq!(second[1].to_bits(), (-0.0f64).to_bits());
            assert!(frame_read::<Vec<f64>>(&FORMAT, &mut r).unwrap().is_none());
        }
    }

    #[test]
    fn reader_errors_keep_their_type() {
        let good = frame_encode(&FORMAT, &vec![1.0f64, 2.0]);
        let read = |bytes: &[u8]| frame_read::<Vec<f64>>(&FORMAT, &mut &bytes[..]);
        // the stream ends inside the header, inside the payload
        for cut in [1, 19, 20, 27, good.len() - 1] {
            let err = read(&good[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        let store_error = |bytes: &[u8]| {
            let err = read(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            *err.into_inner().unwrap().downcast::<StoreError>().unwrap()
        };
        let mut bad = good.clone();
        bad[8] = 1;
        assert!(matches!(
            store_error(&bad),
            StoreError::BadVersion { found: 1 }
        ));
        let mut bad = good.clone();
        bad[3] ^= 4;
        assert!(matches!(store_error(&bad), StoreError::BadMagic));
        let mut bad = good.clone();
        bad[30] ^= 4;
        assert!(matches!(
            store_error(&bad),
            StoreError::ChecksumMismatch { .. }
        ));
        let mut bad = good.clone();
        bad[12..20].copy_from_slice(&((1u64 << 30) + 1).to_le_bytes());
        assert!(matches!(store_error(&bad), StoreError::Corrupt(_)));
    }

    /// `f64` without the slice overrides: the per-element reference.
    #[derive(Clone, Copy)]
    struct PerElement(f64);

    impl Codec for PerElement {
        fn encode(&self, enc: &mut Enc) {
            self.0.encode(enc);
        }
        fn decode(dec: &mut Dec) -> Result<Self, StoreError> {
            f64::decode(dec).map(PerElement)
        }
    }

    fn encoded<T: Codec>(value: &T) -> Vec<u8> {
        let mut enc = Enc::new();
        7u8.encode(&mut enc); // knock the floats off 8-byte alignment
        value.encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn bulk_f64_codec_matches_the_per_element_path() {
        let weird = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF0_0000_0000_0001), // signalling NaN
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            1.0 / 3.0,
        ];
        for len in [0, 1, 2, weird.len(), 1089] {
            let bulk: Vec<f64> = weird.iter().copied().cycle().take(len).collect();
            let reference: Vec<PerElement> = bulk.iter().map(|&x| PerElement(x)).collect();
            let bytes = encoded(&bulk);
            assert_eq!(bytes, encoded(&reference), "len {len}");
            // a shared slice is the same bytes, both ways
            let shared: Arc<[f64]> = bulk.clone().into();
            assert_eq!(bytes, encoded(&shared), "len {len}");
            let mut dec = Dec::new(&bytes[1..]);
            let shared_back = Arc::<[f64]>::decode(&mut dec).unwrap();
            assert_eq!(dec.remaining(), 0);

            let mut dec = Dec::new(&bytes[1..]);
            let back = Vec::<f64>::decode(&mut dec).unwrap();
            assert_eq!(dec.remaining(), 0);
            let mut dec = Dec::new(&bytes[1..]);
            let back_ref = Vec::<PerElement>::decode(&mut dec).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&bulk));
            assert_eq!(bits(&shared_back), bits(&bulk));
            assert_eq!(
                bits(&back),
                back_ref.iter().map(|x| x.0.to_bits()).collect::<Vec<_>>()
            );
            // one byte short fails on both paths
            let mut dec = Dec::new(&bytes[1..bytes.len() - 1]);
            assert!(len == 0 || Vec::<f64>::decode(&mut dec).is_err());
            let mut dec = Dec::new(&bytes[1..bytes.len() - 1]);
            assert!(len == 0 || Arc::<[f64]>::decode(&mut dec).is_err());
        }
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u8,
        b: Vec<f64>,
    }

    codec! { struct Pair { a, b } }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Named { x: u64, pair: Pair },
        Tuple(bool, u8),
        Unit,
    }

    codec! { enum Shape { 0 => Named { x, pair }, 7 => Tuple(p, q), 2 => Unit } }

    #[test]
    fn a_declaration_is_its_layout() {
        let bytes = |value: &Shape| {
            let mut enc = Enc::new();
            value.encode(&mut enc);
            enc.into_bytes()
        };
        let named = Shape::Named {
            x: 5,
            pair: Pair { a: 9, b: vec![1.5] },
        };
        // the tag byte, then the fields in declared order
        let mut expected = vec![0];
        expected.extend(5u64.to_le_bytes());
        expected.push(9);
        expected.extend(1u64.to_le_bytes());
        expected.extend(1.5f64.to_bits().to_le_bytes());
        for (value, expected) in [
            (named, expected),
            (Shape::Tuple(true, 3), vec![7, 1, 3]),
            (Shape::Unit, vec![2]),
        ] {
            assert_eq!(bytes(&value), expected);
            let mut dec = Dec::new(&expected);
            assert_eq!(Shape::decode(&mut dec).unwrap(), value);
            assert_eq!(dec.remaining(), 0);
        }
        // a tag the declaration does not list
        assert!(matches!(
            Shape::decode(&mut Dec::new(&[1, 0, 0])),
            Err(StoreError::Corrupt("invalid Shape tag"))
        ));
    }

    #[test]
    fn a_qoi_slot_round_trips_absent_empty_and_present() {
        let present: Arc<[f64]> = vec![0.5, -0.0, f64::from_bits(0x7FF8_0000_DEAD_BEEF)].into();
        for slot in [None, Some(Vec::new().into()), Some(present)] {
            let mut enc = Enc::new();
            encode_qoi(&slot, &mut enc);
            let bytes = enc.into_bytes();
            // a present slot is the bytes of the QOI itself
            if let Some(qoi) = &slot {
                assert_eq!(bytes, encoded(qoi)[1..]);
            }
            let mut dec = Dec::new(&bytes);
            let back = decode_qoi(&mut dec).unwrap();
            assert_eq!(dec.remaining(), 0);
            let bits = |s: &Option<Arc<[f64]>>| {
                s.as_ref()
                    .map(|q| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&back), bits(&slot));
        }
    }

    #[test]
    fn an_absent_qoi_is_refused_where_a_qoi_is_expected_and_cut_short() {
        let mut enc = Enc::new();
        encode_qoi(&None, &mut enc);
        enc.bytes(&[0u8; 16]);
        let bytes = enc.into_bytes();
        // a decoder that reads a present QOI (an older peer) refuses the
        // length word as longer than the bytes left, before allocating
        assert!(matches!(
            Arc::<[f64]>::decode(&mut Dec::new(&bytes)),
            Err(StoreError::Truncated { available: 16, .. })
        ));
        // a length word cut short is refused, not taken for absent
        for cut in 0..8 {
            assert!(matches!(
                decode_qoi(&mut Dec::new(&bytes[..cut])),
                Err(StoreError::Truncated { needed: 8, .. })
            ));
        }
        // one below the sentinel is a length like any other
        let mut bytes = (ABSENT_QOI - 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_qoi(&mut Dec::new(&bytes)),
            Err(StoreError::Truncated { available: 16, .. })
        ));
    }

    #[test]
    fn absurd_f64_vector_lengths_fail_before_allocating() {
        // len * 8 overflows u64; len alone is far beyond any allocation
        for len in [u64::MAX / 8 + 1, u64::MAX, 1 << 40, 3] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0u8; 16]);
            assert!(matches!(
                Vec::<f64>::decode(&mut Dec::new(&bytes)),
                Err(StoreError::Truncated { available: 16, .. })
            ));
            assert!(matches!(
                Arc::<[f64]>::decode(&mut Dec::new(&bytes)),
                Err(StoreError::Truncated { available: 16, .. })
            ));
        }
    }
}
