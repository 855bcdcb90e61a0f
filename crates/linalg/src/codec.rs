//! The workspace's one byte codec.
//!
//! Every persisted or transmitted format in the workspace — the evald
//! wire, the trial store, the fitted-pipeline and trained-model
//! payloads, the serve wire and the serve artifact — is built from the
//! primitives here:
//!
//! - integers little-endian, `f64` as its IEEE-754 bit pattern
//!   (`f64::to_bits`), `bool` as one `0`/`1` byte;
//! - strings as a `u32` byte length plus UTF-8, `f64` vectors as a
//!   `u32` element count plus the elements, `Option<u64>` as a `0`/`1`
//!   flag byte plus the value;
//! - checksummed records as `[u32 len][payload][u64 FNV-1a of payload]`.
//!
//! Encoding is canonical: the bytes are a pure function of the value.
//! Decoding is total: [`Dec`] never panics and never allocates more
//! than the input could hold, so a corrupt length prefix is an error,
//! not an out-of-memory abort. Each format keeps its own golden-bytes
//! tests; the tests here cover the primitives.
//!
//! `linalg` is the one crate below both `preprocess` and `models`,
//! which is why the codec lives here rather than in `core`.

use std::fmt;

/// Hard cap on one checksummed record's payload (16 MiB). A larger
/// length prefix is treated as a torn record, so a corrupt prefix can
/// never make a reader allocate unbounded memory.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms
/// and compiler versions (unlike `DefaultHasher`, whose algorithm is
/// unspecified). Cache-key fingerprints, record checksums and registry
/// seeds all hash with it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// MurmurHash3_x64_128 (seed 0) over the little-endian bytes of
/// `words`, returned as `h2 << 64 | h1`: [`Murmur3x64_128`] fed every
/// word in order. Hand-written for the same reason as [`fnv1a`]: its
/// output is a pure function of the input words. The evaluator's fit
/// memo keys on it (shapes, fraction bits, then the words its trainer
/// reads: every `f64` bit of the train and valid matrices for LR and
/// MLP, bin codes for XGB), where 64 bits would leave too little
/// collision margin and the full key would cost megabytes. So does the
/// power transform's λ memo (a column's length, then its bits). Both
/// write their words through [`crate::memo::KeyWords`].
#[inline]
pub fn murmur3_x64_128(words: impl IntoIterator<Item = u64>) -> u128 {
    let mut hash = Murmur3x64_128::new();
    for w in words {
        hash.write_u64(w);
    }
    hash.finish()
}

/// The incremental form of [`murmur3_x64_128`]: the same digest of the
/// words passed to [`Murmur3x64_128::write_u64`], without collecting
/// them first.
#[derive(Debug, Default)]
pub struct Murmur3x64_128 {
    h1: u64,
    h2: u64,
    /// The first word of a 16-byte block whose second has not arrived.
    pending: Option<u64>,
    /// Words written so far.
    count: u64,
}

impl Murmur3x64_128 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    /// An empty digest (seed 0).
    #[inline]
    pub fn new() -> Murmur3x64_128 {
        Murmur3x64_128::default()
    }

    #[inline]
    fn mix_k1(k: u64) -> u64 {
        k.wrapping_mul(Self::C1).rotate_left(31).wrapping_mul(Self::C2)
    }

    #[inline]
    fn mix_k2(k: u64) -> u64 {
        k.wrapping_mul(Self::C2).rotate_left(33).wrapping_mul(Self::C1)
    }

    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }

    /// Append one word. Every pair of words is one 16-byte block.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.count += 1;
        match self.pending.take() {
            Some(k1) => self.block(k1, w),
            None => self.pending = Some(w),
        }
    }

    /// Append the bit pattern of every value in order: the digest of one
    /// [`Murmur3x64_128::write_u64`] per value, with the block loop
    /// inlined over the slice.
    #[inline]
    pub fn write_f64_bits(&mut self, values: &[f64]) {
        let mut values = values;
        if self.pending.is_some() {
            let Some((first, rest)) = values.split_first() else { return };
            self.write_u64(first.to_bits());
            values = rest;
        }
        let (blocks, tail) = values.as_chunks::<2>();
        for &[k1, k2] in blocks {
            self.block(k1.to_bits(), k2.to_bits());
        }
        self.count += 2 * blocks.len() as u64;
        if let [last] = tail {
            self.write_u64(last.to_bits());
        }
    }

    /// Mix one 16-byte block.
    #[inline]
    fn block(&mut self, k1: u64, k2: u64) {
        self.h1 = (self.h1 ^ Self::mix_k1(k1))
            .rotate_left(27)
            .wrapping_add(self.h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        self.h2 = (self.h2 ^ Self::mix_k2(k2))
            .rotate_left(31)
            .wrapping_add(self.h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }

    /// The digest of every word written, as `h2 << 64 | h1`. An odd
    /// last word is the 8-byte tail.
    pub fn finish(&self) -> u128 {
        let (mut h1, mut h2) = (self.h1, self.h2);
        if let Some(k1) = self.pending {
            h1 ^= Self::mix_k1(k1);
        }
        let len = self.count.wrapping_mul(8);
        h1 ^= len;
        h2 ^= len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = Self::fmix64(h1);
        h2 = Self::fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (u128::from(h2) << 64) | u128::from(h1)
    }
}

/// A payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of the first violation.
    pub detail: String,
}

impl DecodeError {
    /// An error carrying `detail`.
    pub fn new(detail: impl Into<String>) -> DecodeError {
        DecodeError { detail: detail.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Canonical encoder: appends primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[inline]
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// An encoder whose payload starts with the one-byte `tag`.
    #[inline]
    pub fn tagged(tag: u8) -> Enc {
        Enc { buf: vec![tag] }
    }

    /// The encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `bool` as one `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// `u32` byte length plus UTF-8.
    #[inline]
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `0` for `None`; `1` plus the value for `Some`.
    #[inline]
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    /// The elements with no length prefix (the reader knows the count).
    #[inline]
    pub fn f64s(&mut self, v: &[f64]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.f64(x);
        }
    }

    /// `u32` element count plus the elements.
    #[inline]
    pub fn f64_vec(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        self.f64s(v);
    }
}

/// Total decoder over a borrowed payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or an error if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(slice)
    }

    #[cold]
    fn truncated(&self, n: usize) -> DecodeError {
        DecodeError::new(format!(
            "truncated: {n} byte(s) needed at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A strict `0`/`1` byte; any other value is an error.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::new(format!("bad bool byte {v}"))),
        }
    }

    /// `u32` byte length plus UTF-8.
    #[inline]
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::new("string is not UTF-8"))
    }

    /// `0` → `None`; `1` plus a `u64` → `Some`; any other flag is an
    /// error.
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(DecodeError::new(format!("bad Option flag {v}"))),
        }
    }

    /// `n` elements with no length prefix. The byte span is
    /// bounds-checked before anything is allocated.
    #[inline]
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| DecodeError::new(format!("vector of {n} elements overflows")))?;
        let raw = self.take(bytes)?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(a));
        }
        Ok(out)
    }

    /// `u32` element count plus the elements.
    #[inline]
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.u32()? as usize;
        self.f64s(n)
    }

    /// Succeed only if every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::new(format!("{n} trailing bytes"))),
        }
    }
}

/// Why [`next_record`] could not return a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The bytes end inside the record, or its length prefix is larger
    /// than [`MAX_RECORD`] or than the bytes left: the signature of an
    /// interrupted write.
    Torn,
    /// The record is complete but its checksum does not match the
    /// payload.
    BadChecksum,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordError::Torn => "torn record",
            RecordError::BadChecksum => "record checksum mismatch",
        })
    }
}

/// Append one checksummed record to `out`:
/// `[u32 LE len][payload][u64 LE FNV-1a of payload]`.
pub fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(4 + payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Read the record starting at `*pos`, advancing `*pos` past it.
/// `Ok(None)` when `*pos` is at the end of `bytes`. On error `*pos` is
/// left at the start of the bad record.
pub fn next_record<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Option<&'a [u8]>, RecordError> {
    let rest = bytes.get(*pos..).unwrap_or_default();
    if rest.is_empty() {
        return Ok(None);
    }
    let mut d = Dec::new(rest);
    let len = d.u32().map_err(|_| RecordError::Torn)?;
    if len > MAX_RECORD {
        return Err(RecordError::Torn);
    }
    let payload = d.take(len as usize).map_err(|_| RecordError::Torn)?;
    let sum = d.u64().map_err(|_| RecordError::Torn)?;
    if sum != fnv1a(payload) {
        return Err(RecordError::BadChecksum);
    }
    *pos += rest.len() - d.remaining();
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every primitive, in one payload.
    fn mixed() -> Vec<u8> {
        let mut e = Enc::tagged(9);
        e.u32(70_000);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.bool(true);
        e.string("héllo");
        e.opt_u64(Some(5));
        e.opt_u64(None);
        e.f64_vec(&[1.5, f64::NAN]);
        e.f64s(&[2.5]);
        e.into_bytes()
    }

    fn decode_mixed(bytes: &[u8]) -> Result<(), DecodeError> {
        let mut d = Dec::new(bytes);
        assert_eq!(d.u8()?, 9);
        assert_eq!(d.u32()?, 70_000);
        assert_eq!(d.u64()?, u64::MAX - 1);
        assert_eq!(d.f64()?.to_bits(), (-0.0f64).to_bits());
        assert!(d.bool()?);
        assert_eq!(d.string()?, "héllo");
        assert_eq!(d.opt_u64()?, Some(5));
        assert_eq!(d.opt_u64()?, None);
        let v = d.f64_vec()?;
        assert_eq!((v.len(), v[0], v[1].is_nan()), (2, 1.5, true));
        assert_eq!(d.f64s(1)?, vec![2.5]);
        d.finish()
    }

    #[test]
    fn mixed_encoding_round_trips() {
        decode_mixed(&mixed()).expect("round trip");
    }

    #[test]
    fn golden_primitive_bytes_are_locked() {
        let mut want = vec![9u8];
        want.extend_from_slice(&70_000u32.to_le_bytes());
        want.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        want.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        want.push(1);
        want.extend_from_slice(&6u32.to_le_bytes());
        want.extend_from_slice("héllo".as_bytes());
        want.push(1);
        want.extend_from_slice(&5u64.to_le_bytes());
        want.push(0);
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        want.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert_eq!(mixed(), want);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn murmur3_of_nothing_is_zero() {
        // Seed 0, no blocks, length 0: every finalization step maps 0 to 0.
        assert_eq!(murmur3_x64_128(std::iter::empty()), 0);
    }

    #[test]
    fn golden_murmur3_digests_are_locked() {
        // Digests of the iterator form before it wrapped the incremental
        // one: one word (a tail only), three (a block and a tail) and 37.
        let long = (0..37u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_eq!(murmur3_x64_128([1u64]), 0x3d8acdb4d36d9c06004403b7fb05c44a);
        assert_eq!(murmur3_x64_128([1u64, 2, 3]), 0x57f6887b59f04f45b50a97f8b297f541);
        assert_eq!(murmur3_x64_128(long.clone()), 0x4757b36a3b893689b24fc6c085f60440);
        // `finish` does not consume: a digest can be read mid-stream.
        let mut hash = Murmur3x64_128::new();
        for w in long.take(3) {
            hash.write_u64(w);
        }
        let mid = hash.finish();
        assert_eq!(mid, hash.finish());
        hash.write_u64(0);
        assert_ne!(mid, hash.finish());
    }

    #[test]
    fn bulk_f64_writes_digest_like_one_word_per_value() {
        let values: Vec<f64> = (0..9).map(|i| f64::from(i) * -0.75).chain([-0.0, 0.0]).collect();
        // Every split point, so the bulk run starts on either half of a
        // block and ends on a full block or a tail.
        for lead in 0..3usize {
            for len in 0..=values.len() {
                let lead_words = (0..lead as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let want = murmur3_x64_128(
                    lead_words.clone().chain(values[..len].iter().map(|v| v.to_bits())),
                );
                let mut hash = Murmur3x64_128::new();
                lead_words.for_each(|w| hash.write_u64(w));
                hash.write_f64_bits(&values[..len]);
                assert_eq!(hash.finish(), want, "lead {lead}, len {len}");
            }
        }
    }

    #[test]
    fn murmur3_changes_with_every_flipped_bit() {
        // Odd and even word counts, so the tail word is covered too.
        for len in [1usize, 4, 5] {
            let words: Vec<u64> = (0..len as u64).map(|i| 0x9e37_79b9_7f4a_7c15 ^ i).collect();
            let base = murmur3_x64_128(words.iter().copied());
            let mut seen = std::collections::BTreeSet::from([base]);
            for at in 0..len {
                for bit in 0..64 {
                    let mut flipped = words.clone();
                    flipped[at] ^= 1 << bit;
                    let digest = murmur3_x64_128(flipped);
                    assert!(seen.insert(digest), "len {len}: word {at} bit {bit} collides");
                }
            }
        }
    }

    #[test]
    fn murmur3_separates_signed_zeros_shapes_and_lengths() {
        let bits = |header: [u64; 2], values: &[f64]| {
            murmur3_x64_128(header.into_iter().chain(values.iter().map(|v| v.to_bits())))
        };
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_ne!(bits([1, 1], &[0.0]), bits([1, 1], &[-0.0]));
        assert_ne!(bits([2, 3], &values), bits([3, 2], &values));
        // A trailing zero word is not padding.
        assert_ne!(murmur3_x64_128([7u64]), murmur3_x64_128([7u64, 0]));
    }

    #[test]
    fn every_strict_prefix_of_a_mixed_encoding_errors() {
        let bytes = mixed();
        for cut in 0..bytes.len() {
            assert!(decode_mixed(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn huge_vector_length_errors_before_allocating() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        e.f64(1.0);
        let bytes = e.into_bytes();
        let err = Dec::new(&bytes).f64_vec().expect_err("u32::MAX elements cannot fit");
        assert!(err.detail.contains("truncated"), "{err}");
        assert!(Dec::new(&bytes).f64s(usize::MAX).is_err(), "byte count overflow");
        assert!(Dec::new(&bytes).string().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.u8(), Ok(1));
        assert_eq!(d.remaining(), 2);
        assert_eq!(d.finish().expect_err("two bytes left").detail, "2 trailing bytes");
        assert_eq!(Dec::new(&[]).finish(), Ok(()));
    }

    #[test]
    fn strict_flags_and_utf8_are_enforced() {
        assert!(Dec::new(&[2]).bool().is_err());
        assert!(Dec::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).opt_u64().is_err());
        assert!(Dec::new(&[1, 0, 0, 0, 0xff]).string().is_err());
    }

    #[test]
    fn records_frame_and_unframe() {
        let mut bytes = Vec::new();
        frame_record(&mut bytes, b"abc");
        frame_record(&mut bytes, b"");
        let mut want = 3u32.to_le_bytes().to_vec();
        want.extend_from_slice(b"abc");
        want.extend_from_slice(&fnv1a(b"abc").to_le_bytes());
        want.extend_from_slice(&0u32.to_le_bytes());
        want.extend_from_slice(&fnv1a(b"").to_le_bytes());
        assert_eq!(bytes, want);
        let mut pos = 0;
        assert_eq!(next_record(&bytes, &mut pos), Ok(Some(&b"abc"[..])));
        assert_eq!(next_record(&bytes, &mut pos), Ok(Some(&b""[..])));
        assert_eq!(next_record(&bytes, &mut pos), Ok(None));
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn next_record_tells_torn_records_from_checksum_mismatches() {
        let mut bytes = Vec::new();
        frame_record(&mut bytes, b"payload");
        // Every strict prefix is torn, and the position stays put.
        for cut in 1..bytes.len() {
            let mut pos = 0;
            assert_eq!(next_record(&bytes[..cut], &mut pos), Err(RecordError::Torn), "cut {cut}");
            assert_eq!(pos, 0);
        }
        // A flipped payload or checksum byte is a mismatch, not a tear.
        for at in 4..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            let mut pos = 0;
            assert_eq!(next_record(&flipped, &mut pos), Err(RecordError::BadChecksum), "byte {at}");
        }
        // An oversized length prefix is torn even with bytes to spare.
        let mut huge = (MAX_RECORD + 1).to_le_bytes().to_vec();
        huge.resize(64, 0);
        assert_eq!(next_record(&huge, &mut 0), Err(RecordError::Torn));
    }
}
