//! Property tests for the format-v3 stream-vbyte group codec: round-trips
//! over arbitrary sorted lists (empty, single-element and max-`u32`-gap
//! cases included), a scalar-vs-SIMD decoder differential, and fuzz-ish
//! decoder runs over truncated and garbage bytes, which must surface as
//! [`graphstore::Error`] — never a panic or a wrong-but-silent decode.
//! Mirrors `varint_codec.rs`, the v2 suite.

use graphstore::codec::{
    decode_group_run, decode_group_run_scalar, encode_group_run, group_ctrl_len, group_run_len,
    GROUP_DECODE_SLACK, MAX_GROUP_BYTES_PER_ID,
};
use proptest::prelude::*;

/// Strategy: an arbitrary strictly ascending `u32` list (possibly empty),
/// skewed so small gaps, huge gaps and the `u32::MAX` endpoint all occur.
/// Consecutive runs matter more for v3 (gap 1 encodes to zero data bytes),
/// so the spread distribution leans low.
fn arb_sorted_list() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec((any::<u32>(), 0u32..1000), 0usize..200),
        0u32..4,
    )
        .prop_map(|(pairs, tail)| {
            let mut values: Vec<u32> = pairs
                .into_iter()
                .flat_map(|(base, spread)| {
                    // A short consecutive run off each base, plus the
                    // spread endpoint: exercises the 0-, 1- and 2-byte
                    // codes together.
                    [
                        base,
                        base.saturating_add(1),
                        base.saturating_add(2),
                        base.saturating_add(spread),
                    ]
                })
                .collect();
            // Pin the extreme endpoints in a fraction of cases so the
            // max-gap encodings are exercised, not just sampled by luck.
            if tail == 0 {
                values.push(0);
                values.push(u32::MAX);
            }
            values.sort_unstable();
            values.dedup();
            values
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_trips_arbitrary_sorted_lists(values in arb_sorted_list()) {
        let mut bytes = Vec::new();
        encode_group_run(&values, &mut bytes);
        prop_assert!(bytes.len() >= group_ctrl_len(values.len()));
        prop_assert!(bytes.len() <= values.len() * MAX_GROUP_BYTES_PER_ID);
        let mut back = Vec::new();
        let used = decode_group_run(&bytes, values.len(), &mut back).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, values);
    }

    #[test]
    fn scalar_and_simd_decoders_are_bit_identical(values in arb_sorted_list()) {
        // `decode_group_run` uses the quad fast paths (SSSE3 where the CPU
        // has it); `decode_group_run_scalar` is pinned to the careful
        // byte-slice path. Their outputs must match exactly.
        let mut bytes = Vec::new();
        encode_group_run(&values, &mut bytes);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let used_fast = decode_group_run(&bytes, values.len(), &mut fast).unwrap();
        let used_slow = decode_group_run_scalar(&bytes, values.len(), &mut slow).unwrap();
        prop_assert_eq!(used_fast, used_slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn extent_is_known_from_the_head_and_trailing_bytes_are_inert(
        values in arb_sorted_list(),
        tail in proptest::collection::vec(any::<u8>(), 0usize..2 * GROUP_DECODE_SLACK),
        pad in any::<u8>(),
    ) {
        // The disk path sizes its read from the control region alone and
        // hands the decoder a slice that runs on past the run (the rest of
        // a frame, or scratch slack): the announced extent must be the
        // encoded length, and whatever follows must not reach the output.
        let mut bytes = Vec::new();
        encode_group_run(&values, &mut bytes);
        let run_len = bytes.len();
        prop_assert_eq!(group_run_len(&bytes, values.len()), run_len);
        // Padding codes in a ragged last control byte announce nothing.
        if !values.len().is_multiple_of(4) {
            let last = group_ctrl_len(values.len()) - 1;
            let mut noisy = bytes.clone();
            noisy[last] |= pad << ((values.len() % 4) * 2);
            prop_assert_eq!(group_run_len(&noisy, values.len()), run_len);
        }
        bytes.extend_from_slice(&tail);
        for decode in [decode_group_run, decode_group_run_scalar] {
            let mut out = Vec::new();
            prop_assert_eq!(decode(&bytes, values.len(), &mut out).unwrap(), run_len);
            prop_assert_eq!(&out, &values);
        }
    }

    #[test]
    fn truncation_always_errors_never_panics(values in arb_sorted_list()) {
        if values.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::new();
        encode_group_run(&values, &mut bytes);
        for cut in 0..bytes.len() {
            let mut out = Vec::new();
            prop_assert!(
                decode_group_run(&bytes[..cut], values.len(), &mut out).is_err(),
                "cut {} of {} decoded anyway",
                cut,
                bytes.len()
            );
        }
    }

    #[test]
    fn garbage_bytes_error_or_decode_valid_ids(
        bytes in proptest::collection::vec(any::<u8>(), 0usize..64),
        count in 1usize..32,
    ) {
        // Fuzz the decoder with raw noise — including garbage control
        // bytes, whose every 2-bit code maps to a valid length: every
        // outcome must be either a clean error or a structurally valid
        // (strictly ascending) run of exactly `count` ids. Panics and
        // over-reads are the failure modes.
        for decode in [decode_group_run, decode_group_run_scalar] {
            let mut out = Vec::new();
            match decode(&bytes, count, &mut out) {
                Err(_) => {}
                Ok(used) => {
                    prop_assert!(used <= bytes.len());
                    prop_assert_eq!(out.len(), count);
                    prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }
}

#[test]
fn explicit_edge_cases() {
    // Empty list: zero bytes, zero control bytes.
    let mut bytes = Vec::new();
    encode_group_run(&[], &mut bytes);
    assert!(bytes.is_empty());
    let mut out = Vec::new();
    assert_eq!(decode_group_run(&[], 0, &mut out).unwrap(), 0);

    // Single element at both extremes.
    for v in [0u32, u32::MAX] {
        let mut bytes = Vec::new();
        encode_group_run(&[v], &mut bytes);
        let mut out = Vec::new();
        decode_group_run(&bytes, 1, &mut out).unwrap();
        assert_eq!(out, vec![v]);
    }

    // The maximal gap: [0, u32::MAX] stores `MAX − 1` as the second value.
    let mut bytes = Vec::new();
    encode_group_run(&[0, u32::MAX], &mut bytes);
    let mut out = Vec::new();
    decode_group_run(&bytes, 2, &mut out).unwrap();
    assert_eq!(out, vec![0, u32::MAX]);

    // A consecutive run: one data byte total (the first id), the rest is
    // control bytes.
    let values: Vec<u32> = (7..7 + 40).collect();
    let mut bytes = Vec::new();
    encode_group_run(&values, &mut bytes);
    assert_eq!(bytes.len(), group_ctrl_len(40) + 1);
    let mut out = Vec::new();
    decode_group_run(&bytes, 40, &mut out).unwrap();
    assert_eq!(out, values);
}

#[test]
fn structural_garbage_is_rejected() {
    // u32 overflow: first value u32::MAX (4-byte code), then a zero-length
    // value — id would be MAX + 1.
    let overflow = [0b0000_0011u8, 0xFF, 0xFF, 0xFF, 0xFF];
    let mut out = Vec::new();
    assert!(decode_group_run(&overflow, 2, &mut out).is_err());
    let mut out = Vec::new();
    assert!(decode_group_run_scalar(&overflow, 2, &mut out).is_err());

    // Truncation mid-control-region: 5 ids need 2 control bytes.
    let mut out = Vec::new();
    assert!(decode_group_run(&[0b0101_0101], 5, &mut out).is_err());

    // Truncation mid-value: a 4-byte code with 2 data bytes present.
    let mut out = Vec::new();
    assert!(decode_group_run(&[0b0000_0011, 0xAA, 0xBB], 1, &mut out).is_err());
}
