//! Little-endian fixed-width encoding helpers for the on-disk format.
//!
//! The graph files use explicit little-endian encoding rather than
//! `#[repr(C)]` casts so the format is byte-stable across platforms and can be
//! validated field by field.

use crate::error::{Error, Result};

/// Encode a `u32` into `buf[at..at + 4]`.
#[inline]
pub fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Encode a `u64` into `buf[at..at + 8]`.
#[inline]
pub fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Decode a `u32` from `buf[at..at + 4]`.
#[inline]
pub fn get_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Decode a `u64` from `buf[at..at + 8]`.
#[inline]
pub fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decode a `u32`, returning a corruption error when the slice is short.
#[inline]
pub fn try_get_u32(buf: &[u8], at: usize, what: &str) -> Result<u32> {
    if buf.len() < at + 4 {
        return Err(Error::corrupt(format!("truncated while reading {what}")));
    }
    Ok(get_u32(buf, at))
}

/// Decode a `u64`, returning a corruption error when the slice is short.
#[inline]
pub fn try_get_u64(buf: &[u8], at: usize, what: &str) -> Result<u64> {
    if buf.len() < at + 8 {
        return Err(Error::corrupt(format!("truncated while reading {what}")));
    }
    Ok(get_u64(buf, at))
}

/// Lookup table for [`crc32`] (IEEE 802.3 polynomial, reflected).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) checksum of `bytes` — the integrity check stamped on every
/// durability artefact (catalog, checkpoints, WAL records). A software table
/// implementation: plenty for the metadata-sized payloads it guards.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Reinterpret a byte slice as little-endian `u32` values, copying into `out`.
///
/// The adjacency lists are stored as raw `u32` runs; this is the single place
/// where bytes become node ids, so the bounds/alignment story lives here.
#[inline]
pub fn decode_u32_run(bytes: &[u8], out: &mut Vec<u32>) -> Result<()> {
    if !bytes.len().is_multiple_of(4) {
        return Err(Error::corrupt(format!(
            "adjacency byte run of length {} is not a multiple of 4",
            bytes.len()
        )));
    }
    out.reserve(bytes.len() / 4);
    for chunk in bytes.chunks_exact(4) {
        let mut b = [0u8; 4];
        b.copy_from_slice(chunk);
        out.push(u32::from_le_bytes(b));
    }
    Ok(())
}

/// Encode a `u32` slice into its little-endian byte representation.
#[inline]
pub fn encode_u32_run(values: &[u32], out: &mut Vec<u8>) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Maximum encoded length of one varint-encoded `u32` (5 × 7 bits ≥ 32).
pub const MAX_VARINT_LEN: usize = 5;

/// Append the LEB128 varint encoding of `v` (1–5 bytes).
#[inline]
pub fn put_varint_u32(out: &mut Vec<u8>, v: u32) {
    put_varint_u64(out, v.into());
}

/// Append the LEB128 varint encoding of `v` (1–10 bytes).
#[inline]
pub fn put_varint_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append the delta-gap varint encoding of a **strictly ascending** `u32`
/// run: the first id absolute, every later id as the gap to its
/// predecessor. This was the wire encoding of one adjacency list in the
/// retired edge-table format v2; no table holds it any more, and the pair
/// [`encode_gap_run`] / [`decode_gap_run`] stays as the byte-at-a-time
/// baseline the benchmark measures the v3 decoder against.
///
/// Debug-asserts strict sortedness; the builders validate before encoding.
pub fn encode_gap_run(values: &[u32], out: &mut Vec<u8>) {
    let mut prev: Option<u32> = None;
    for &v in values {
        match prev {
            None => put_varint_u32(out, v),
            Some(p) => {
                debug_assert!(v > p, "gap run input must be strictly ascending");
                put_varint_u32(out, v - p);
            }
        }
        prev = Some(v);
    }
}

/// The decoder behind [`decode_gap_run`]: one delta-gap varint run of a
/// known length. Every structural violation — a varint longer than
/// [`MAX_VARINT_LEN`] bytes, an id overflowing `u32`, a zero gap
/// (sortedness broken) — surfaces as a corruption [`Error`], never a panic.
#[derive(Debug)]
struct GapDecoder {
    remaining: usize,
    acc: u64,
    shift: u32,
    prev: Option<u32>,
}

impl GapDecoder {
    /// Decoder expecting exactly `count` ids.
    pub fn new(count: usize) -> GapDecoder {
        GapDecoder {
            remaining: count,
            acc: 0,
            shift: 0,
            prev: None,
        }
    }

    /// True once all expected ids have been produced.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Consume bytes from `chunk`, appending decoded ids to `out`. Returns
    /// the number of bytes consumed — all of `chunk` unless the run
    /// completed mid-slice. Call again with the next chunk while
    /// [`GapDecoder::is_done`] is false.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<u32>) -> Result<usize> {
        for (i, &byte) in chunk.iter().enumerate() {
            if self.remaining == 0 {
                return Ok(i);
            }
            self.acc |= ((byte & 0x7F) as u64) << self.shift;
            if byte & 0x80 != 0 {
                self.shift += 7;
                if self.shift as usize >= MAX_VARINT_LEN * 7 {
                    return Err(Error::corrupt("varint exceeds 5 bytes"));
                }
                continue;
            }
            let value = self.acc;
            self.acc = 0;
            self.shift = 0;
            let id = match self.prev {
                None => value,
                Some(p) => {
                    if value == 0 {
                        return Err(Error::corrupt(
                            "zero gap in adjacency run (list not strictly sorted)",
                        ));
                    }
                    p as u64 + value
                }
            };
            if id > u32::MAX as u64 {
                return Err(Error::corrupt("adjacency id overflows u32"));
            }
            self.prev = Some(id as u32);
            out.push(id as u32);
            self.remaining -= 1;
            if self.remaining == 0 {
                return Ok(i + 1);
            }
        }
        Ok(chunk.len())
    }
}

/// One-shot decode of a `count`-id gap run from contiguous `bytes`
/// (appended to `out`). Returns the encoded length consumed; errors when
/// `bytes` ends before the run does or the encoding is structurally
/// invalid.
pub fn decode_gap_run(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    let mut dec = GapDecoder::new(count);
    // One reservation up front: the hot decode paths must never re-grow
    // the output push by push.
    out.reserve(count);
    let used = dec.feed(bytes, out)?;
    if !dec.is_done() {
        return Err(Error::corrupt(format!(
            "gap run truncated: expected {count} ids in {} bytes",
            bytes.len()
        )));
    }
    Ok(used)
}

// ---------------------------------------------------------------------------
// Format v3: stream-vbyte group runs.
// ---------------------------------------------------------------------------

/// Stored byte length per 2-bit group code (format v3): `{0, 1, 2, 4}`.
/// The 0-length code makes consecutive ids (gap 1) free, and skipping the
/// 3-byte length keeps every quad decodable with one table-driven shuffle.
const GROUP_LENS: [usize; 4] = [0, 1, 2, 4];

/// Maximum encoded bytes one id can take in a v3 group run: a quarter
/// control byte (rounds up to 1) plus up to 4 data bytes.
pub const MAX_GROUP_BYTES_PER_ID: usize = 5;

/// Number of control bytes a `count`-id group run starts with (2-bit codes,
/// four per byte). Also the run's minimum possible encoded length — every
/// data length can be zero but the control region cannot.
#[inline]
pub fn group_ctrl_len(count: usize) -> usize {
    count.div_ceil(4)
}

/// Total data bytes of one quad, by control byte — how far the SIMD loop
/// advances its input cursor per quad, and what [`group_run_len`] sums.
static QUAD_TOTAL: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        t[c] = (GROUP_LENS[c & 3]
            + GROUP_LENS[(c >> 2) & 3]
            + GROUP_LENS[(c >> 4) & 3]
            + GROUP_LENS[(c >> 6) & 3]) as u8;
        c += 1;
    }
    t
};

/// Readable bytes past the end of a run that keep [`decode_group_run`]'s
/// vector loop — two unaligned 16-byte loads per eight ids — reading in
/// place to the run's last id; with fewer, it finishes the run from a
/// zero-padded copy of what is left.
pub const GROUP_DECODE_SLACK: usize = 32;

/// Encoded length of the `count`-id group run whose control region is
/// `ctrl` (its first [`group_ctrl_len`]`(count)` bytes): the control region
/// plus the data bytes its codes announce. Codes past `count` in the last
/// control byte are padding and announce nothing. This is what makes a v3
/// read exact-extent — the run's end is known from its head.
pub fn group_run_len(ctrl: &[u8], count: usize) -> usize {
    let ctrl = &ctrl[..group_ctrl_len(count)];
    let (full, ragged) = ctrl.split_at(count / 4);
    let mut len = ctrl.len() + quad_totals(full);
    if let Some(&c) = ragged.first() {
        len += QUAD_TOTAL[(c & ((1u8 << ((count % 4) * 2)) - 1)) as usize] as usize;
    }
    len
}

/// Sum of [`QUAD_TOTAL`] over `ctrl`, every code counted.
fn quad_totals(ctrl: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if vector_tier() {
        // SAFETY: AVX2 presence just checked.
        return unsafe { avx2::quad_totals(ctrl) };
    }
    quad_totals_scalar(ctrl)
}

/// [`quad_totals`] one table lookup per control byte.
fn quad_totals_scalar(ctrl: &[u8]) -> usize {
    ctrl.iter().map(|&c| QUAD_TOTAL[c as usize] as usize).sum()
}

/// The 2-bit code whose stored length minimally holds `s`, as a sum of
/// comparisons so the encoder's loop carries no data-dependent branch.
#[inline]
fn group_code(s: u32) -> usize {
    (s != 0) as usize + (s > 0xFF) as usize + (s > 0xFFFF) as usize
}

/// Append the stream-vbyte group encoding of a **strictly ascending** `u32`
/// run — the edge-table format-v3 wire encoding of one adjacency list (see
/// [`crate::format`]).
///
/// Layout: [`group_ctrl_len`] control bytes (value *i*'s 2-bit length code
/// at `ctrl[i / 4] >> ((i % 4) * 2)`), then the raw little-endian data
/// bytes. The first value is stored verbatim; every later value stores
/// `gap − 1`, so a gap of one (consecutive ids, common in clustered
/// adjacency) takes zero data bytes and unsorted lists are unrepresentable
/// by construction. An empty run encodes to zero bytes.
///
/// Debug-asserts strict sortedness; the builders validate before encoding.
pub fn encode_group_run(values: &[u32], out: &mut Vec<u8>) {
    let start = out.len();
    let ctrl_len = group_ctrl_len(values.len());
    // Room for the worst case up front: every value is written as four
    // bytes wherever the data cursor stands and the cursor then moves by
    // the stored length, so the next value overwrites what was not kept.
    out.resize(start + ctrl_len + 4 * values.len(), 0);
    let (ctrl, data) = out[start..].split_at_mut(ctrl_len);
    let mut at = 0;
    // `v − MAX − 1` wraps to `v`: the first value stored verbatim.
    let mut prev = u32::MAX;
    for (q, (quad, ctrl)) in values.chunks(4).zip(ctrl).enumerate() {
        let mut codes = 0;
        for (i, &v) in quad.iter().enumerate() {
            debug_assert!(
                (q, i) == (0, 0) || v > prev,
                "group run input must be strictly ascending"
            );
            let s = v.wrapping_sub(prev).wrapping_sub(1);
            let code = group_code(s);
            data[at..at + 4].copy_from_slice(&s.to_le_bytes());
            at += GROUP_LENS[code];
            codes |= code << (i * 2);
            prev = v;
        }
        *ctrl = codes as u8;
    }
    out.truncate(start + ctrl_len + at);
}

/// Keeps the low bytes of a 4-byte load that a stored length of 0/1/2/4
/// covers (3 is unreachable).
const STORED_MASK: [u32; 5] = [0, 0xFF, 0xFFFF, 0, 0xFFFF_FFFF];

/// Truncation error shared by every group-run decode path.
fn group_truncated(count: usize, len: usize) -> Error {
    Error::corrupt(format!(
        "group run truncated: expected {count} ids in {len} bytes"
    ))
}

/// Overflow error shared by every group-run decode path.
fn group_overflow() -> Error {
    Error::corrupt("adjacency id overflows u32")
}

/// The vector tier: eight ids per step. One 256-bit `vpshufb` spreads two
/// quads' packed data bytes into eight little-endian `u32` lanes and the
/// ids are reconstructed in-register (add-one, prefix sum inside each
/// 128-bit half, the lower half's last lane carried into the upper,
/// broadcast-prev add). Overflow needs no separate check: an id wrapping
/// past `u32::MAX` cannot stay strictly ascending, so the unsigned ascent
/// comparison catches it — the scalar-vs-vector differential in
/// `tests/group_codec.rs` pins bit-identical outputs and equal errors.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{group_ctrl_len, group_overflow, group_truncated, GROUP_LENS, QUAD_TOTAL};
    use std::arch::x86_64::*;

    /// Per-control-byte shuffle masks: lane `l` byte `b` selects source
    /// byte `SHUFFLE[c][l * 4 + b]`; `0x80` zero-fills the lane's high
    /// bytes.
    static SHUFFLE: [[u8; 16]; 256] = {
        let mut t = [[0x80u8; 16]; 256];
        let mut c = 0usize;
        while c < 256 {
            let mut src = 0u8;
            let mut lane = 0usize;
            while lane < 4 {
                let len = GROUP_LENS[(c >> (lane * 2)) & 3];
                let mut b = 0usize;
                while b < len {
                    t[c][lane * 4 + b] = src;
                    src += 1;
                    b += 1;
                }
                lane += 1;
            }
            c += 1;
        }
        t
    };

    /// Data bytes two codes announce, by nibble of a control byte.
    static NIBBLE_TOTAL: [u8; 16] = {
        let mut t = [0u8; 16];
        let mut n = 0usize;
        while n < 16 {
            t[n] = (GROUP_LENS[n & 3] + GROUP_LENS[n >> 2]) as u8;
            n += 1;
        }
        t
    };

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load16(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes; `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// [`super::quad_totals`], sixteen control bytes per step: a `pshufb`
    /// lookup of each nibble's total, summed across the bytes by `psadbw`.
    #[target_feature(enable = "avx2")]
    pub(super) fn quad_totals(ctrl: &[u8]) -> usize {
        let (chunks, rest) = ctrl.as_chunks::<16>();
        let table = load16(&NIBBLE_TOTAL);
        let low = _mm_set1_epi8(0x0F);
        let mut acc = _mm_setzero_si128();
        for chunk in chunks {
            let c = load16(chunk);
            // At most 8 per nibble, so a byte's total fits the byte.
            let totals = _mm_add_epi8(
                _mm_shuffle_epi8(table, _mm_and_si128(c, low)),
                _mm_shuffle_epi8(table, _mm_and_si128(_mm_srli_epi16::<4>(c), low)),
            );
            acc = _mm_add_epi64(acc, _mm_sad_epu8(totals, _mm_setzero_si128()));
        }
        let acc = _mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc));
        _mm_cvtsi128_si64(acc) as usize + super::quad_totals_scalar(rest)
    }

    /// One-shot contiguous decode of a whole group run.
    ///
    /// Per step of eight ids: gather, `+1` per gap (lane 0 of the run's
    /// first vector stores the absolute first id, so its increment is 0),
    /// inclusive prefix sum, broadcast-prev add, and a strict unsigned
    /// ascent compare of every lane against its predecessor that doubles as
    /// the overflow check (a wrap mod 2³² can never ascend past the
    /// previous id). The compare is only *accumulated* in the loop and
    /// tested once per run: until then the ids are stored into `out`'s
    /// reserved spare capacity and the length is raised after the test, so
    /// a corrupt run leaves `out` as it was.
    ///
    /// The loop reads in place while 32 data bytes remain. After that the
    /// remaining bytes are bounced once through a zero-padded stack buffer
    /// and the same loop, then a 128-bit step for a last whole quad, finish
    /// from there — a run that ends with its slice (an exact-length
    /// buffer, the tail of a cache frame) still decodes all but its last
    /// `count % 4` ids in vectors. A quad announcing more data than the
    /// slice holds stops the vectors; [`super::group_tail_scalar`] decodes
    /// the ragged tail and reports truncation in id order.
    #[target_feature(enable = "avx2")]
    pub(super) fn decode_contiguous(
        bytes: &[u8],
        count: usize,
        out: &mut Vec<u32>,
    ) -> super::Result<usize> {
        if count == 0 {
            return Ok(0);
        }
        let ctrl_len = group_ctrl_len(count);
        if bytes.len() < ctrl_len {
            return Err(group_truncated(count, bytes.len()));
        }
        let (ctrl, data) = bytes.split_at(ctrl_len);
        let base = out.len();
        out.reserve(count);
        // SAFETY: `base` is within the allocation.
        let dst = unsafe { out.as_mut_ptr().add(base) };
        let mut produced = 0usize;
        // The read cursor: `left` data bytes are still unconsumed and start
        // at `src`, which points into `data` or, once bounced, into `pad`.
        let mut src = data.as_ptr();
        let mut left = data.len();
        let mut pad = [0u8; 64];
        let mut in_pad = false;

        let ones = _mm256_set1_epi32(1);
        let bias = _mm256_set1_epi32(i32::MIN);
        let rotate = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
        // Lane 0 of the run's first vector: no increment, no predecessor.
        let mut exempt = _mm256_setr_epi32(-1, 0, 0, 0, 0, 0, 0, 0);
        let mut prev = _mm256_setzero_si256();
        // Biased ids rotated up a lane; lane 0 is the last id before them.
        let mut before = _mm256_setzero_si256();
        let mut ascending = _mm256_set1_epi32(-1);
        while count - produced >= 8 {
            let (c0, c1) = (ctrl[produced / 4], ctrl[produced / 4 + 1]);
            let t0 = QUAD_TOTAL[c0 as usize] as usize;
            let t = t0 + QUAD_TOTAL[c1 as usize] as usize;
            if left < 32 {
                if t > left {
                    break;
                }
                if !in_pad {
                    pad[..left].copy_from_slice(&data[data.len() - left..]);
                    src = pad.as_ptr();
                    in_pad = true;
                }
            }
            // SAFETY: 32 bytes are readable at `src` and `t0 <= 16`. In
            // `data`, `left >= 32` of them remain. In `pad`, fewer than 32
            // bytes were bounced and `t <= left` keeps the cursor among
            // them, so both loads end inside its 64 bytes.
            let (lo, hi) = unsafe {
                (
                    _mm_loadu_si128(src.cast()),
                    _mm_loadu_si128(src.add(t0).cast()),
                )
            };
            let raw = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(lo), hi);
            let mask = _mm256_inserti128_si256::<1>(
                _mm256_castsi128_si256(load16(&SHUFFLE[c0 as usize])),
                load16(&SHUFFLE[c1 as usize]),
            );
            let mut v = _mm256_shuffle_epi8(raw, mask);
            v = _mm256_add_epi32(v, _mm256_add_epi32(ones, exempt));
            v = _mm256_add_epi32(v, _mm256_slli_si256::<4>(v));
            v = _mm256_add_epi32(v, _mm256_slli_si256::<8>(v));
            // The shifts stay inside each 128-bit half: carry the lower
            // half's total (its lane 3) into all four upper lanes.
            let lower = _mm256_permute2x128_si256::<0x08>(v, v);
            v = _mm256_add_epi32(v, _mm256_shuffle_epi32::<0xFF>(lower));
            v = _mm256_add_epi32(v, prev);
            let biased = _mm256_xor_si256(v, bias);
            let rotated = _mm256_permutevar8x32_epi32(biased, rotate);
            let gt = _mm256_cmpgt_epi32(biased, _mm256_blend_epi32::<1>(rotated, before));
            ascending = _mm256_and_si256(ascending, _mm256_or_si256(gt, exempt));
            exempt = _mm256_setzero_si256();
            before = rotated;
            prev = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
            // SAFETY: `produced + 8 <= count`, and `reserve(count)` made
            // room for `count` ids at `dst`; `storeu` needs no alignment.
            unsafe { _mm256_storeu_si256(dst.add(produced).cast(), v) };
            // SAFETY: `t <= left` bytes remain at `src`.
            src = unsafe { src.add(t) };
            left -= t;
            produced += 8;
        }

        // The same step at half width, for whole quads the loop left.
        let mut exempt = _mm256_castsi256_si128(exempt);
        let mut prev = _mm256_castsi256_si128(prev);
        let mut before = _mm256_castsi256_si128(before);
        let mut ascending = _mm_and_si128(
            _mm256_castsi256_si128(ascending),
            _mm256_extracti128_si256::<1>(ascending),
        );
        while count - produced >= 4 {
            let c = ctrl[produced / 4];
            let t = QUAD_TOTAL[c as usize] as usize;
            if left < 32 {
                if t > left {
                    break;
                }
                if !in_pad {
                    pad[..left].copy_from_slice(&data[data.len() - left..]);
                    src = pad.as_ptr();
                    in_pad = true;
                }
            }
            // SAFETY: as above — 16 readable bytes at `src`.
            let raw = unsafe { _mm_loadu_si128(src.cast()) };
            let mut v = _mm_shuffle_epi8(raw, load16(&SHUFFLE[c as usize]));
            v = _mm_add_epi32(v, _mm_add_epi32(_mm256_castsi256_si128(ones), exempt));
            v = _mm_add_epi32(v, _mm_slli_si128::<4>(v));
            v = _mm_add_epi32(v, _mm_slli_si128::<8>(v));
            v = _mm_add_epi32(v, prev);
            let biased = _mm_xor_si128(v, _mm256_castsi256_si128(bias));
            let shifted = _mm_blend_epi32::<1>(_mm_slli_si128::<4>(biased), before);
            let gt = _mm_cmpgt_epi32(biased, shifted);
            ascending = _mm_and_si128(ascending, _mm_or_si128(gt, exempt));
            exempt = _mm_setzero_si128();
            before = _mm_shuffle_epi32::<0xFF>(biased);
            prev = _mm_shuffle_epi32::<0xFF>(v);
            // SAFETY: `produced + 4 <= count` ids fit the reserved room.
            unsafe { _mm_storeu_si128(dst.add(produced).cast(), v) };
            // SAFETY: `t <= left` bytes remain at `src`.
            src = unsafe { src.add(t) };
            left -= t;
            produced += 4;
        }

        if _mm_movemask_epi8(ascending) != 0xFFFF {
            return Err(group_overflow());
        }
        // SAFETY: exactly `produced` ids were stored past `base` above.
        unsafe { out.set_len(base + produced) };
        let prev = match produced {
            0 => 0,
            _ => out[base + produced - 1] as u64,
        };
        let p = data.len() - left;
        super::group_tail_scalar(ctrl, data, count, produced, p, prev, out).inspect_err(|_| {
            out.truncate(base);
        })
    }
}

/// True when the vector tier can run on this CPU.
#[cfg(target_arch = "x86_64")]
fn vector_tier() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Decode the trailing `produced..count` ids of a group run one value at a
/// time — the shared endgame of every contiguous path, and the whole loop
/// of the portable one. `prev` is the last id already decoded (ignored
/// while `produced == 0`, where value 0 is stored absolute); `p` is the
/// data-byte cursor. Returns the run's total encoded length.
fn group_tail_scalar(
    ctrl: &[u8],
    data: &[u8],
    count: usize,
    mut produced: usize,
    mut p: usize,
    mut prev: u64,
    out: &mut Vec<u32>,
) -> Result<usize> {
    while produced < count {
        let len = GROUP_LENS[((ctrl[produced / 4] >> ((produced % 4) * 2)) & 3) as usize];
        let s = if data.len() - p >= 4 {
            // Common case: enough slack for one unaligned masked load.
            get_u32(data, p) & STORED_MASK[len]
        } else if data.len() - p >= len {
            let mut b = [0u8; 4];
            b[..len].copy_from_slice(&data[p..p + len]);
            u32::from_le_bytes(b)
        } else {
            return Err(group_truncated(count, ctrl.len() + data.len()));
        };
        let id = if produced == 0 {
            s as u64
        } else {
            prev + s as u64 + 1
        };
        if id > u32::MAX as u64 {
            return Err(group_overflow());
        }
        out.push(id as u32);
        prev = id;
        p += len;
        produced += 1;
    }
    Ok(ctrl.len() + p)
}

/// Portable contiguous decode: whole quads — one control byte, four
/// unaligned 4-byte little-endian loads masked down to each value's stored
/// length — while 16 bytes of input slack remain (the last value starts at
/// most 12 bytes in), with a widened (`u64`) delta accumulator, then the
/// byte-careful tail. No SIMD anywhere — this is the reference half of the
/// scalar-vs-vector differential and the decoder of CPUs without AVX2.
/// Like the vector tier, an error leaves `out` as it was.
fn decode_contiguous_scalar(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    let base = out.len();
    scalar_quads_then_tail(bytes, count, out).inspect_err(|_| out.truncate(base))
}

/// [`decode_contiguous_scalar`]'s loops; an error leaves what was decoded
/// before it in `out`.
fn scalar_quads_then_tail(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    if count == 0 {
        return Ok(0);
    }
    let ctrl_len = group_ctrl_len(count);
    if bytes.len() < ctrl_len {
        return Err(group_truncated(count, bytes.len()));
    }
    let (ctrl, data) = bytes.split_at(ctrl_len);
    out.reserve(count);
    let mut produced = 0usize;
    let mut p = 0usize;
    let mut prev = 0u64;
    while count - produced >= 4 && data.len() - p >= 16 {
        let c = ctrl[produced / 4];
        for lane in 0..4 {
            let len = GROUP_LENS[((c >> (lane * 2)) & 3) as usize];
            let s = get_u32(data, p) & STORED_MASK[len];
            let id = if produced == 0 && lane == 0 {
                s as u64
            } else {
                prev + s as u64 + 1
            };
            if id > u32::MAX as u64 {
                return Err(group_overflow());
            }
            out.push(id as u32);
            prev = id;
            p += len;
        }
        produced += 4;
    }
    group_tail_scalar(ctrl, data, count, produced, p, prev, out)
}

/// One-shot decode of a `count`-id group run from contiguous `bytes`
/// (appended to `out`; untouched on error). Returns the encoded length
/// consumed; errors when `bytes` ends before the run does or the encoding
/// is structurally invalid. `bytes` may extend past the run: nothing beyond
/// the returned length influences the output, and [`GROUP_DECODE_SLACK`]
/// readable bytes there let the vector loop finish the run in place.
/// Dispatches to the AVX2 tier when the CPU has it — this is the one v3
/// decoder; the disk read path (`BlockReader::read_group_run`) hands it
/// whole runs.
pub fn decode_group_run(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    #[cfg(target_arch = "x86_64")]
    if vector_tier() {
        // SAFETY: AVX2 presence just checked.
        return unsafe { avx2::decode_contiguous(bytes, count, out) };
    }
    decode_contiguous_scalar(bytes, count, out)
}

/// [`decode_group_run`] pinned to the portable path (no SIMD) — the
/// baseline half of the scalar-vs-vector differential tests and the decode
/// bandwidth bench.
pub fn decode_group_run_scalar(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    decode_contiguous_scalar(bytes, count, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let mut buf = [0u8; 8];
        put_u32(&mut buf, 1, 0xDEAD_BEEF);
        assert_eq!(get_u32(&buf, 1), 0xDEAD_BEEF);
    }

    #[test]
    fn u64_round_trip() {
        let mut buf = [0u8; 16];
        put_u64(&mut buf, 3, u64::MAX - 7);
        assert_eq!(get_u64(&buf, 3), u64::MAX - 7);
    }

    #[test]
    fn try_get_reports_truncation() {
        let buf = [0u8; 3];
        let err = try_get_u32(&buf, 0, "header magic").unwrap_err();
        assert!(err.to_string().contains("header magic"));
        let err = try_get_u64(&buf, 0, "node count").unwrap_err();
        assert!(err.is_corrupt());
    }

    #[test]
    fn u32_run_round_trip() {
        let values = vec![0, 1, 42, u32::MAX];
        let mut bytes = Vec::new();
        encode_u32_run(&values, &mut bytes);
        let mut back = Vec::new();
        decode_u32_run(&bytes, &mut back).unwrap();
        assert_eq!(values, back);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Any flipped bit must change the sum.
        assert_ne!(crc32(b"abcd"), crc32(b"abce"));
    }

    #[test]
    fn odd_length_run_is_corrupt() {
        let mut out = Vec::new();
        assert!(decode_u32_run(&[1, 2, 3], &mut out)
            .unwrap_err()
            .is_corrupt());
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, 1 << 21, u32::MAX] {
            let mut bytes = Vec::new();
            put_varint_u32(&mut bytes, v);
            assert!(bytes.len() <= MAX_VARINT_LEN);
            let mut out = Vec::new();
            let used = decode_gap_run(&bytes, 1, &mut out).unwrap();
            assert_eq!((used, out.as_slice()), (bytes.len(), &[v][..]), "{v}");
        }
    }

    #[test]
    fn gap_run_round_trips() {
        for values in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![5, 6, 7, 1000, 1_000_000],
        ] {
            let mut bytes = Vec::new();
            encode_gap_run(&values, &mut bytes);
            let mut back = Vec::new();
            let used = decode_gap_run(&bytes, values.len(), &mut back).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, values);
        }
    }

    #[test]
    fn truncated_gap_run_is_corrupt() {
        let mut bytes = Vec::new();
        encode_gap_run(&[1, 200, 70_000], &mut bytes);
        for cut in 0..bytes.len() {
            let mut out = Vec::new();
            assert!(
                decode_gap_run(&bytes[..cut], 3, &mut out)
                    .unwrap_err()
                    .is_corrupt(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn group_run_round_trips() {
        for values in [
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            vec![5, 6, 7, 8, 9],
            vec![5, 6, 7, 1000, 1_000_000],
            (0..1000).map(|i| i * 3).collect(),
        ] {
            let mut bytes = Vec::new();
            encode_group_run(&values, &mut bytes);
            assert!(bytes.len() >= group_ctrl_len(values.len()));
            assert!(bytes.len() <= group_ctrl_len(values.len()) + 4 * values.len());
            for decode in [decode_group_run, decode_group_run_scalar] {
                let mut back = Vec::new();
                let used = decode(&bytes, values.len(), &mut back).unwrap();
                assert_eq!(used, bytes.len());
                assert_eq!(back, values);
            }
        }
    }

    #[test]
    fn consecutive_ids_cost_zero_data_bytes() {
        // gap − 1 == 0 for every later value: only the first id's data
        // byte plus the control region remain.
        let values: Vec<u32> = (10..10 + 64).collect();
        let mut bytes = Vec::new();
        encode_group_run(&values, &mut bytes);
        assert_eq!(bytes.len(), group_ctrl_len(64) + 1);
    }

    #[test]
    fn truncated_group_run_is_corrupt() {
        let mut bytes = Vec::new();
        encode_group_run(&[1, 200, 70_000, 70_001, 70_002], &mut bytes);
        for cut in 0..bytes.len() {
            let mut out = Vec::new();
            assert!(
                decode_group_run(&bytes[..cut], 5, &mut out)
                    .unwrap_err()
                    .is_corrupt(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn group_overflow_is_corrupt() {
        // First value u32::MAX (code 3), then a zero-length stored value:
        // id = MAX + 0 + 1 overflows u32.
        let bytes = [0b0000_0011u8, 0xFF, 0xFF, 0xFF, 0xFF];
        let mut out = Vec::new();
        assert!(decode_group_run(&bytes, 2, &mut out)
            .unwrap_err()
            .is_corrupt());
    }

    #[test]
    fn overlong_varint_and_zero_gap_are_corrupt() {
        // Six continuation bytes: longer than any u32 varint.
        let mut out = Vec::new();
        let overlong = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(decode_gap_run(&overlong, 1, &mut out)
            .unwrap_err()
            .is_corrupt());
        // A zero gap after the first id breaks strict sortedness.
        let mut out = Vec::new();
        assert!(decode_gap_run(&[5, 0], 2, &mut out)
            .unwrap_err()
            .is_corrupt());
        // An id overflowing u32: MAX followed by any gap.
        let mut bytes = Vec::new();
        put_varint_u32(&mut bytes, u32::MAX);
        put_varint_u32(&mut bytes, 1);
        let mut out = Vec::new();
        assert!(decode_gap_run(&bytes, 2, &mut out)
            .unwrap_err()
            .is_corrupt());
    }
}
