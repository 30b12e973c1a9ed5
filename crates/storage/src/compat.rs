//! Kbench-only names (ROADMAP item 12b), re-exported under their pinned
//! paths `graphstore::EvictionPolicy` and `graphstore::codec::{
//! encode_gap_run, decode_gap_run}`.

use crate::codec::{put_varint_u32, MAX_VARINT_LEN};
use crate::error::{Error, Result};

/// How the pool picks eviction victims: one way, [`crate::cache`]'s
/// scan-resistant policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Scan-resistant hybrid: CLOCK for re-referenced frames, newest-first
    /// for one-shot traffic. Best for cyclic ascending scans.
    #[default]
    ScanLifo,
}

/// Append the delta-gap varint encoding of a **strictly ascending** `u32`
/// run (the first id absolute, then each gap to its predecessor): the
/// retired edge-table format v2's adjacency encoding, kept as the
/// byte-at-a-time baseline kbench measures the v3 decoder against.
pub fn encode_gap_run(values: &[u32], out: &mut Vec<u8>) {
    let mut prev: Option<u32> = None;
    for &v in values {
        debug_assert!(prev.is_none_or(|p| v > p), "gap run must be ascending");
        put_varint_u32(out, v - prev.unwrap_or(0));
        prev = Some(v);
    }
}

/// Decode a `count`-id gap run from `bytes` (appended to `out`); returns
/// the bytes consumed. A varint longer than [`MAX_VARINT_LEN`] bytes, a
/// zero gap, an id past `u32` or a truncated run is [`Error::Corrupt`].
pub fn decode_gap_run(bytes: &[u8], count: usize, out: &mut Vec<u32>) -> Result<usize> {
    out.reserve(count);
    let (mut at, mut prev) = (0, None);
    for _ in 0..count {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let &byte = bytes.get(at).ok_or_else(|| {
                Error::corrupt(format!(
                    "gap run truncated: expected {count} ids in {} bytes",
                    bytes.len()
                ))
            })?;
            at += 1;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift >= MAX_VARINT_LEN * 7 {
                return Err(Error::corrupt("varint exceeds 5 bytes"));
            }
        }
        let id = match prev {
            Some(_) if value == 0 => return Err(Error::corrupt("zero gap in adjacency run")),
            Some(p) => u64::from(p) + value,
            None => value,
        };
        let id = u32::try_from(id).map_err(|_| Error::corrupt("adjacency id overflows u32"))?;
        prev = Some(id);
        out.push(id);
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;

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
