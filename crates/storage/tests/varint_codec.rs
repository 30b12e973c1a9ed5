//! Property tests for the delta-gap varint codec (the retired format v2's
//! wire encoding, kept as the benchmark's byte-at-a-time baseline):
//! round-trips over arbitrary sorted lists (empty, single-element and
//! max-`u32`-gap cases included) and fuzz-ish decoder runs over truncated
//! and garbage bytes, which must surface as [`graphstore::Error`] — never a
//! panic or a wrong-but-silent decode.

use graphstore::codec::{decode_gap_run, encode_gap_run, MAX_VARINT_LEN};
use proptest::prelude::*;

/// Strategy: an arbitrary strictly ascending `u32` list (possibly empty),
/// skewed so small gaps, huge gaps and the `u32::MAX` endpoint all occur.
fn arb_sorted_list() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec((any::<u32>(), 0u32..1000), 0usize..200),
        0u32..4,
    )
        .prop_map(|(pairs, tail)| {
            let mut values: Vec<u32> = pairs
                .into_iter()
                .flat_map(|(base, spread)| [base, base.saturating_add(spread)])
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
        encode_gap_run(&values, &mut bytes);
        prop_assert!(bytes.len() <= values.len() * MAX_VARINT_LEN);
        let mut back = Vec::new();
        let used = decode_gap_run(&bytes, values.len(), &mut back).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, values);
    }

    #[test]
    fn truncation_always_errors_never_panics(values in arb_sorted_list()) {
        if values.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::new();
        encode_gap_run(&values, &mut bytes);
        for cut in 0..bytes.len() {
            let mut out = Vec::new();
            prop_assert!(
                decode_gap_run(&bytes[..cut], values.len(), &mut out).is_err(),
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
        // Fuzz the decoder with raw noise: every outcome must be either a
        // clean error or a structurally valid (strictly ascending) run of
        // exactly `count` ids — the two things the disk layer's validation
        // relies on. Panics and over-reads are the failure modes.
        let mut out = Vec::new();
        match decode_gap_run(&bytes, count, &mut out) {
            Err(_) => {}
            Ok(used) => {
                prop_assert!(used <= bytes.len());
                prop_assert_eq!(out.len(), count);
                prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}

#[test]
fn explicit_edge_cases() {
    // Empty list: zero bytes.
    let mut bytes = Vec::new();
    encode_gap_run(&[], &mut bytes);
    assert!(bytes.is_empty());
    let mut out = Vec::new();
    assert_eq!(decode_gap_run(&[], 0, &mut out).unwrap(), 0);

    // Single element at both extremes.
    for v in [0u32, u32::MAX] {
        let mut bytes = Vec::new();
        encode_gap_run(&[v], &mut bytes);
        let mut out = Vec::new();
        decode_gap_run(&bytes, 1, &mut out).unwrap();
        assert_eq!(out, vec![v]);
    }

    // The maximal gap: [0, u32::MAX] encodes the full-range delta.
    let mut bytes = Vec::new();
    encode_gap_run(&[0, u32::MAX], &mut bytes);
    let mut out = Vec::new();
    decode_gap_run(&bytes, 2, &mut out).unwrap();
    assert_eq!(out, vec![0, u32::MAX]);
}

#[test]
fn structural_garbage_is_rejected() {
    // Overlong varint (six continuation bytes).
    let mut out = Vec::new();
    assert!(decode_gap_run(&[0x80; 6], 1, &mut out).is_err());
    // Zero gap = sortedness violation.
    let mut out = Vec::new();
    assert!(decode_gap_run(&[7, 0], 2, &mut out).is_err());
    // u32 overflow via accumulated gaps.
    let mut bytes = Vec::new();
    encode_gap_run(&[u32::MAX], &mut bytes);
    bytes.push(2); // a further gap past the ceiling
    let mut out = Vec::new();
    assert!(decode_gap_run(&bytes, 2, &mut out).is_err());
}
