//! Property tests for the format-v3 stream-vbyte group codec: round-trips
//! over arbitrary sorted lists (empty, single-element and max-`u32`-gap
//! cases included), a scalar-vs-vector decoder differential, and fuzz-ish
//! decoder runs over truncated and garbage bytes, which must surface as
//! [`graphstore::Error`] — never a panic or a wrong-but-silent decode.
//! Mirrors `varint_codec.rs`, the v2 suite. The exhaustive matrix at the
//! end walks the vector tier's own seams: every count around its 8- and
//! 4-id steps, every amount of readable slack around its 32-byte in-place
//! bound, every truncation cut, and an overflow planted in every lane.

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
        // `decode_group_run` uses the vector tier (AVX2 where the CPU has
        // it); `decode_group_run_scalar` is pinned to the careful
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

/// Ids `out` holds before every differential decode: decoders append, and
/// an error must leave exactly these behind.
const SENTINEL: [u32; 2] = [7, 9];

/// Decode `count` ids from `bytes` with the dispatched decoder and the
/// scalar twin: equal consumed length and ids, or equal errors with `out`
/// untouched. Returns what both agreed on.
fn decode_both(bytes: &[u8], count: usize, tag: &str) -> Result<(usize, Vec<u32>), String> {
    let run = |decode: fn(&[u8], usize, &mut Vec<u32>) -> graphstore::Result<usize>| {
        let mut out = SENTINEL.to_vec();
        match decode(bytes, count, &mut out) {
            Ok(used) => {
                assert_eq!(out[..2], SENTINEL, "{tag}: decoders append");
                Ok((used, out.split_off(2)))
            }
            Err(e) => {
                assert_eq!(out, SENTINEL, "{tag}: out touched on error");
                Err(e.to_string())
            }
        }
    };
    let (vector, scalar) = (run(decode_group_run), run(decode_group_run_scalar));
    assert_eq!(vector, scalar, "{tag}");
    vector
}

/// Encode raw *stored* values — the first id, then `gap − 1` per later id
/// — with minimal codes, bypassing `encode_group_run`'s ascent assertion so
/// a test can plant an overflow at a chosen id.
fn encode_stored(stored: &[u32]) -> Vec<u8> {
    let mut bytes = vec![0u8; group_ctrl_len(stored.len())];
    for (i, &s) in stored.iter().enumerate() {
        let (code, len) = match s {
            0 => (0u8, 0),
            1..=0xFF => (1, 1),
            0x100..=0xFFFF => (2, 2),
            _ => (3, 4),
        };
        bytes[i / 4] |= code << ((i % 4) * 2);
        bytes.extend_from_slice(&s.to_le_bytes()[..len]);
    }
    bytes
}

/// `count` ascending ids whose gaps cycle through the listed stored sizes.
fn ids_with_gaps(count: usize, first: u32, gaps: &[u32]) -> Vec<u32> {
    let mut next = first;
    (0..count)
        .map(|i| {
            let id = next;
            next += gaps[i % gaps.len()];
            id
        })
        .collect()
}

#[test]
fn vector_equals_scalar_for_every_count_slack_and_truncation_cut() {
    // Gap mixes: every code length interleaved; all 0-byte codes (many ids
    // in one data byte — the whole run decodes from the padded bounce);
    // all 4-byte codes (16 data bytes per quad, the widest step).
    let mixes: [(u32, &[u32]); 3] = [
        (300, &[1, 200, 1, 70_000, 3, 1 << 20, 1, 1, 255, 257]),
        (5, &[1]),
        (1 << 17, &[1 << 16, 1 << 24, 1 << 18]),
    ];
    // Trailing garbage, never zero: a decoder that lets bytes past the
    // run's end reach an id shows up as a difference.
    let garbage: Vec<u8> = (0..4096u32).map(|i| (i * 37 + 11) as u8 | 1).collect();
    for (first, gaps) in mixes {
        for count in 0..=67usize {
            let values = ids_with_gaps(count, first, gaps);
            let mut run = Vec::new();
            encode_group_run(&values, &mut run);
            assert_eq!(group_run_len(&run, count), run.len());
            let frame_slack = 4096 - run.len();
            for slack in (0..=40).chain([frame_slack]) {
                let mut bytes = run.clone();
                bytes.extend_from_slice(&garbage[..slack]);
                let tag = format!("gaps {gaps:?} count {count} slack {slack}");
                assert_eq!(
                    decode_both(&bytes, count, &tag),
                    Ok((run.len(), values.clone())),
                    "{tag}"
                );
            }
            for cut in 0..run.len() {
                let tag = format!("gaps {gaps:?} count {count} cut {cut}");
                let err = decode_both(&run[..cut], count, &tag).unwrap_err();
                assert!(err.contains("truncated"), "{tag}: {err}");
            }
        }
    }
}

#[test]
fn overflow_is_caught_in_every_lane_of_every_step() {
    // 35 ids: three 8-id vectors (first, middle, last), one 4-id quad,
    // three scalar ids. The id before `k` is made exactly `u32::MAX`, so
    // *any* gap at `k` overflows — also the gap of 2³² that wraps back
    // onto `u32::MAX` itself, and the gap of 1 that wraps to 0 and ascends
    // again from there, which only lane `k`'s own compare can see. For `k`
    // in lanes 4–7 nothing wraps inside the upper half alone: only the
    // lower half's carry pushes it over.
    const N: usize = 35;
    for filler in [0u32, 1, 300] {
        for k in 1..N {
            let lead = (k as u32 - 1) * (filler + 1);
            let mut stored = vec![filler; N];
            stored[0] = u32::MAX - lead;
            // Up to `k` the run is valid and ends on `u32::MAX` exactly.
            let valid = encode_stored(&stored[..k]);
            let tag = format!("filler {filler} k {k}");
            let (_, ids) = decode_both(&valid, k, &tag).unwrap();
            assert_eq!(ids.last(), Some(&u32::MAX), "{tag}");
            for gap_minus_one in [0u32, 5, u32::MAX] {
                stored[k] = gap_minus_one;
                let run = encode_stored(&stored);
                // In place (32+ readable bytes throughout) and from the
                // padded bounce (the slice ends with the run).
                for slack in [0usize, 64] {
                    let mut bytes = run.clone();
                    bytes.resize(run.len() + slack, 0xA5);
                    let tag = format!("{tag} gap-1 {gap_minus_one} slack {slack}");
                    let err = decode_both(&bytes, N, &tag).unwrap_err();
                    assert!(err.contains("overflows"), "{tag}: {err}");
                }
            }
        }
    }
}

#[test]
fn long_runs_of_zero_byte_codes_decode_from_the_padded_bounce() {
    // Hundreds of quads in fewer than 32 data bytes: an exact-length slice
    // never offers the in-place loop its 32 readable bytes, so every
    // vector step reads the zero-padded copy — and must stop at the real
    // end of the data, not at the end of the padding.
    for count in [68usize, 100, 255, 256, 257, 1000] {
        for jumps in [&[][..], &[3, 40], &[0, 9, 64, 65]] {
            let mut values: Vec<u32> = Vec::with_capacity(count);
            let mut next = 1u32 << 20;
            for i in 0..count {
                next += if jumps.contains(&i) { 1 << 16 } else { 1 };
                values.push(next);
            }
            let mut run = Vec::new();
            encode_group_run(&values, &mut run);
            assert!(run.len() - group_ctrl_len(count) < 32);
            assert_eq!(group_run_len(&run, count), run.len());
            let tag = format!("count {count} jumps {jumps:?}");
            assert_eq!(
                decode_both(&run, count, &tag),
                Ok((run.len(), values.clone())),
                "{tag}"
            );
            // Every cut inside the data region (and the last control byte).
            for cut in group_ctrl_len(count) - 1..run.len() {
                let err = decode_both(&run[..cut], count, &tag).unwrap_err();
                assert!(err.contains("truncated"), "{tag} cut {cut}: {err}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The encoder against its reference.
// ---------------------------------------------------------------------------

/// The encoder as it stood before it went branch-light — a length branch
/// and a variable-length append per id — kept verbatim as the reference
/// `encode_group_run` must match byte for byte.
fn reference_encode_group_run(values: &[u32], out: &mut Vec<u8>) {
    const GROUP_LENS: [usize; 4] = [0, 1, 2, 4];
    fn group_code(s: u32) -> u8 {
        if s == 0 {
            0
        } else if s < 1 << 8 {
            1
        } else if s < 1 << 16 {
            2
        } else {
            3
        }
    }
    if values.is_empty() {
        return;
    }
    let ctrl_at = out.len();
    out.resize(ctrl_at + group_ctrl_len(values.len()), 0);
    let mut prev: Option<u32> = None;
    for (i, &v) in values.iter().enumerate() {
        let s = match prev {
            None => v,
            Some(p) => {
                debug_assert!(v > p, "group run input must be strictly ascending");
                v - p - 1
            }
        };
        let code = group_code(s);
        out[ctrl_at + i / 4] |= code << ((i % 4) * 2);
        out.extend_from_slice(&s.to_le_bytes()[..GROUP_LENS[code as usize]]);
        prev = Some(v);
    }
}

/// Both encoders appending to `prefix`: equal bytes, prefix intact, nothing
/// left behind past the run (the worst-case reservation is given back).
fn assert_encodes_like_reference(values: &[u32], prefix: &[u8], tag: &str) {
    let mut expect = prefix.to_vec();
    reference_encode_group_run(values, &mut expect);
    let mut got = prefix.to_vec();
    encode_group_run(values, &mut got);
    assert_eq!(got, expect, "{tag}");
    assert_eq!(&got[..prefix.len()], prefix, "{tag}: prefix");
    assert_eq!(
        got.len() - prefix.len(),
        if values.is_empty() {
            0
        } else {
            group_run_len(&got[prefix.len()..], values.len())
        },
        "{tag}: slack bytes left behind"
    );
}

/// The stored values on either side of every length-class boundary.
const CLASS_EDGES: [u32; 7] = [0, 1, 255, 256, 65_535, 65_536, u32::MAX];

#[test]
fn encoder_matches_reference_on_every_class_boundary() {
    let prefix = [0xA5u8, 0x5A, 0xFF, 0x00, 0x81];
    for &first in &CLASS_EDGES {
        // The first value is stored verbatim: every class as a first value,
        // alone ...
        assert_encodes_like_reference(&[first], &[], &format!("first {first}"));
        assert_encodes_like_reference(&[first], &prefix, &format!("first {first} after prefix"));
        // ... and ahead of each class as the stored gap of the second.
        for &stored in &CLASS_EDGES {
            let Some(second) = first.checked_add(1).and_then(|x| x.checked_add(stored)) else {
                continue;
            };
            let tag = format!("first {first} then stored {stored}");
            assert_encodes_like_reference(&[first, second], &[], &tag);
            assert_encodes_like_reference(&[first, second], &prefix, &tag);
        }
    }
    // Every class in every position of a quad, ragged tails included.
    for count in 1..=9 {
        for rotate in 0..CLASS_EDGES.len() - 1 {
            let gaps: Vec<u32> = (0..count)
                .map(|i| CLASS_EDGES[(i + rotate) % (CLASS_EDGES.len() - 1)] + 1)
                .collect();
            let values = ids_with_gaps(count, 0, &gaps);
            let tag = format!("count {count} rotate {rotate}");
            assert_encodes_like_reference(&values, &prefix, &tag);
        }
    }
}

#[test]
fn encoder_matches_reference_for_every_count_and_prefix() {
    // Counts 0..=67 walk every ragged last control byte past two full
    // vector steps; the gap cycles put each stored size under each code
    // position.
    for count in 0..=67usize {
        for gaps in [
            &[1u32][..],
            &[1, 2, 300, 70_000],
            &[70_000, 300, 2, 1, 1],
            &[256, 257],
        ] {
            for first in [0u32, 9, 1 << 20] {
                let values = ids_with_gaps(count, first, gaps);
                for prefix_len in [0usize, 1, 3, 64] {
                    let prefix: Vec<u8> = (0..prefix_len).map(|i| (i * 37 + 11) as u8).collect();
                    let tag =
                        format!("count {count} gaps {gaps:?} first {first} prefix {prefix_len}");
                    assert_encodes_like_reference(&values, &prefix, &tag);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoder_matches_reference_on_arbitrary_sorted_lists(
        values in arb_sorted_list(),
        prefix in proptest::collection::vec(any::<u8>(), 0usize..9),
    ) {
        let mut expect = prefix.clone();
        reference_encode_group_run(&values, &mut expect);
        let mut got = prefix;
        encode_group_run(&values, &mut got);
        prop_assert_eq!(got, expect);
    }
}
