//! The fixed-width fast path of the codec: a `Vec` of fixed-width items
//! encodes and decodes as one block, and must give exactly the bytes of the
//! item-by-item encoding, round-trip every float bit pattern, and reject a
//! corrupt length before allocating for it.

use bytes::{BufMut, Bytes, BytesMut};
use pmr_cluster::codec::write_framed_record;
use pmr_cluster::{CodecError, RawRecord, Wire};
use proptest::prelude::*;

/// The item-by-item encoding a `Vec` had before the fast path: the `u32`
/// count, then each item's own `encode`.
fn per_item<T: Wire>(items: &[T]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32(items.len() as u32);
    for item in items {
        item.encode(&mut buf);
    }
    buf.freeze()
}

/// Encodes through the fast path, checks the bytes against the per-item
/// reference, decodes them back and returns the items as raw bits.
fn check_block<T: Wire + Clone>(
    items: Vec<T>,
    bits: impl Fn(&T) -> Vec<u64>,
) -> Result<(), TestCaseError> {
    assert!(T::FIXED_WIDTH.is_some());
    let fast = items.to_bytes();
    prop_assert_eq!(&fast, &per_item(&items));
    let back = Vec::<T>::from_bytes(fast).map_err(|e| TestCaseError::Fail(e.to_string()))?;
    let want: Vec<Vec<u64>> = items.iter().map(&bits).collect();
    let got: Vec<Vec<u64>> = back.iter().map(&bits).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

/// A float drawn to cover the edges: NaNs with payloads and either sign,
/// ±0.0, ±∞, subnormals, and arbitrary bit patterns.
fn edge_f64(selector: u8, bits: u64) -> f64 {
    const SIGN: u64 = 1 << 63;
    const MANTISSA: u64 = (1 << 52) - 1;
    match selector % 8 {
        0 => f64::from_bits((bits & SIGN) | 0x7FF0_0000_0000_0000 | (bits & MANTISSA) | 1),
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::from_bits((bits & SIGN) | (bits & MANTISSA)),
        5 => 0.0,
        _ => f64::from_bits(bits),
    }
}

fn items() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..64)
}

proptest! {
    #[test]
    fn fixed_width_vecs_match_per_item_bytes_and_round_trip(raw in items()) {
        let f = |&(sel, bits, _): &(u8, u64, u64)| edge_f64(sel, bits);
        let u64s: Vec<u64> = raw.iter().map(|r| r.1).collect();
        check_block(u64s, |&x| vec![x])?;
        let u32s: Vec<u32> = raw.iter().map(|r| r.2 as u32).collect();
        check_block(u32s, |&x| vec![x as u64])?;
        let f64s: Vec<f64> = raw.iter().map(f).collect();
        check_block(f64s, |x| vec![x.to_bits()])?;
        let pairs: Vec<(u64, f64)> = raw.iter().map(|r| (r.2, f(r))).collect();
        check_block(pairs, |(a, x)| vec![*a, x.to_bits()])?;
        let narrow: Vec<(u32, f64)> = raw.iter().map(|r| (r.2 as u32, f(r))).collect();
        check_block(narrow, |(a, x)| vec![*a as u64, x.to_bits()])?;
        let triples: Vec<(u64, u32, f64)> =
            raw.iter().map(|r| (r.2, (r.2 >> 32) as u32, f(r))).collect();
        check_block(triples, |(a, b, x)| vec![*a, *b as u64, x.to_bits()])?;
        let signed: Vec<(i64, u16, u8)> =
            raw.iter().map(|r| (r.1 as i64, r.2 as u16, r.0)).collect();
        check_block(signed, |(a, b, c)| vec![*a as u64, *b as u64, *c as u64])?;
    }

    /// The in-place framed writer gives the bytes of framing the separately
    /// encoded key and value, after whatever the buffer already holds.
    #[test]
    fn in_place_framing_equals_write_framed(
        prefix in prop::collection::vec(any::<u8>(), 0..16),
        records in prop::collection::vec((any::<u64>(), items(), ".*"), 0..8),
    ) {
        let mut fixed = BytesMut::new();
        let mut mixed = BytesMut::new();
        let mut want_fixed = BytesMut::new();
        let mut want_mixed = BytesMut::new();
        for buf in [&mut fixed, &mut mixed, &mut want_fixed, &mut want_mixed] {
            buf.extend_from_slice(&prefix);
        }
        for (key, raw, text) in records {
            let row: Vec<(u64, f64)> = raw.iter().map(|r| (r.1, edge_f64(r.0, r.2))).collect();
            write_framed_record(&mut fixed, &key, &row);
            RawRecord { key: key.to_bytes(), value: row.to_bytes() }.write_framed(&mut want_fixed);
            let words: Vec<String> = vec![text.clone(); raw.len() % 3];
            write_framed_record(&mut mixed, &text, &(key, words.clone()));
            RawRecord { key: text.to_bytes(), value: (key, words).to_bytes() }
                .write_framed(&mut want_mixed);
        }
        prop_assert_eq!(fixed, want_fixed);
        prop_assert_eq!(mixed, want_mixed);
    }
}

#[test]
fn fixed_widths_are_pinned() {
    assert_eq!(<(u64, f64)>::FIXED_WIDTH, Some(16));
    assert_eq!(<(u32, f64)>::FIXED_WIDTH, Some(12));
    assert_eq!(<(u64, u32, f64)>::FIXED_WIDTH, Some(20));
    assert_eq!(<(u8, u16)>::FIXED_WIDTH, Some(3));
    assert_eq!(i64::FIXED_WIDTH, Some(8));
    assert_eq!(<(u64, String)>::FIXED_WIDTH, None);
    assert_eq!(<(u64, u32, bool)>::FIXED_WIDTH, None);
    assert_eq!(bool::FIXED_WIDTH, None);
    assert_eq!(<()>::FIXED_WIDTH, None);
    assert_eq!(Option::<u64>::FIXED_WIDTH, None);
    assert_eq!(String::FIXED_WIDTH, None);
    assert_eq!(Bytes::FIXED_WIDTH, None);
    assert_eq!(Vec::<u64>::FIXED_WIDTH, None);
}

/// A count above what the remaining bytes hold is `Truncated`, checked
/// once before anything is allocated: a `u32::MAX` count over 40 bytes
/// would otherwise ask for 64 GiB of `(u64, f64)` items.
#[test]
fn overlong_counts_are_truncated_before_allocating() {
    let row: Vec<(u64, f64)> = vec![(1, 0.5), (2, -0.0)];
    let body = row.to_bytes().slice(4..);
    for count in [3u32, 4, 1 << 20, u32::MAX / 16, u32::MAX / 16 + 1, u32::MAX] {
        let mut evil = BytesMut::new();
        evil.put_u32(count);
        evil.extend_from_slice(&body);
        evil.extend_from_slice(&[0xAB; 8]);
        let err = Vec::<(u64, f64)>::from_bytes(evil.freeze()).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "count {count}: {err}");
    }
    // A count that fits leaves the rest behind as trailing bytes.
    let mut short = BytesMut::new();
    short.put_u32(1);
    short.extend_from_slice(&body);
    let err = Vec::<(u64, f64)>::from_bytes(short.freeze()).unwrap_err();
    assert!(matches!(err, CodecError::Corrupt { .. }));
    // A missing count is truncated too.
    let err = Vec::<u64>::from_bytes(Bytes::from_static(&[0, 0, 1])).unwrap_err();
    assert!(matches!(err, CodecError::Truncated { .. }));
}
