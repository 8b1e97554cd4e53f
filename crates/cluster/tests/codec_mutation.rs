//! Mutation tests for the framed codecs (transport-hardening satellite):
//! truncated, bit-flipped, or entirely arbitrary byte streams must come
//! back as `CodecError`s or clean decodes — never a panic, never a read
//! past the buffer, never an allocation sized by a corrupt length prefix.

use bytes::{Bytes, BytesMut};
use pmr_cluster::codec::{
    decode_raw_stream, decode_record_stream, encode_record_stream, RawRecord,
};
use pmr_cluster::CodecError;
use proptest::prelude::*;

fn encode(records: &[(Vec<u8>, Vec<u8>)]) -> Bytes {
    let mut buf = BytesMut::new();
    for (k, v) in records {
        let rec = RawRecord { key: Bytes::from(k.clone()), value: Bytes::from(v.clone()) };
        rec.write_framed(&mut buf);
    }
    buf.freeze()
}

proptest! {
    /// Cutting a valid stream at any byte either yields a clean prefix of
    /// the original records (cut on a record boundary) or a `Truncated`
    /// error — never a panic.
    #[test]
    fn truncation_yields_prefix_or_truncated_error(
        records in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..40), prop::collection::vec(any::<u8>(), 0..40)),
            1..10,
        ),
        cut_seed in any::<u16>(),
    ) {
        let full = encode(&records);
        let cut = cut_seed as usize % (full.len() + 1);
        match decode_raw_stream(full.slice(..cut)) {
            Ok(decoded) => {
                prop_assert!(decoded.len() <= records.len());
                for (d, (k, v)) in decoded.iter().zip(&records) {
                    prop_assert_eq!(&d.key[..], &k[..]);
                    prop_assert_eq!(&d.value[..], &v[..]);
                }
                // A clean decode consumed exactly the cut bytes.
                let consumed: usize = decoded.iter().map(|r| r.framed_len()).sum();
                prop_assert_eq!(consumed, cut);
            }
            Err(e) => prop_assert!(matches!(e, CodecError::Truncated { .. })),
        }
    }

    /// Flipping any single byte of a valid stream never panics, and when
    /// the mutated stream still decodes, the decoder consumed exactly the
    /// bytes it was given (no over-read).
    #[test]
    fn single_byte_flips_never_panic_or_over_read(
        records in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..32), prop::collection::vec(any::<u8>(), 0..32)),
            1..8,
        ),
        pos_seed in any::<u16>(),
        flip in 1u8..255,
    ) {
        let full = encode(&records);
        let mut mutated = full.to_vec();
        let pos = pos_seed as usize % mutated.len();
        mutated[pos] ^= flip;
        let len = mutated.len();
        if let Ok(decoded) = decode_raw_stream(Bytes::from(mutated)) {
            let consumed: usize = decoded.iter().map(|r| r.framed_len()).sum();
            prop_assert_eq!(consumed, len);
        }
    }

    /// Arbitrary garbage never panics the raw or the typed decoder.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let raw = decode_raw_stream(Bytes::from(data.clone()));
        if let Ok(decoded) = &raw {
            let consumed: usize = decoded.iter().map(|r| r.framed_len()).sum();
            prop_assert_eq!(consumed, data.len());
        }
        let _ = decode_record_stream::<u64, u64>(Bytes::from(data));
    }

    /// A `u64 → Vec<(u64, f64)>` stream — the MR workloads' output rows,
    /// decoded through the fixed-width block path — cut at any byte or with
    /// any byte flipped: never a panic, and a clean decode re-encodes to
    /// exactly the bytes it was given (nothing over- or under-read).
    #[test]
    fn fixed_width_row_streams_survive_cuts_and_flips(
        rows in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((any::<u64>(), any::<f64>()), 0..12)),
            1..6,
        ),
        pos_seed in any::<u16>(),
        flip in 1u8..255,
    ) {
        let (full, _) = encode_record_stream(rows.clone());
        let cut = pos_seed as usize % (full.len() + 1);
        match decode_record_stream::<u64, Vec<(u64, f64)>>(full.slice(..cut)) {
            Ok(decoded) => {
                prop_assert!(decoded.len() <= rows.len());
                prop_assert_eq!(encode_record_stream(decoded).0, full.slice(..cut));
            }
            Err(e) => prop_assert!(matches!(e, CodecError::Truncated { .. })),
        }
        let mut mutated = full.to_vec();
        let pos = pos_seed as usize % mutated.len();
        mutated[pos] ^= flip;
        let mutated = Bytes::from(mutated);
        if let Ok(decoded) = decode_record_stream::<u64, Vec<(u64, f64)>>(mutated.clone()) {
            prop_assert_eq!(encode_record_stream(decoded).0, mutated);
        }
    }

    /// A length prefix beyond the item bound is `Corrupt`, rejected before
    /// the decoder ever tries to materialize the announced size.
    #[test]
    fn oversized_length_prefix_is_corrupt(tail in prop::collection::vec(any::<u8>(), 0..32)) {
        let mut evil = (u32::MAX).to_be_bytes().to_vec();
        evil.extend_from_slice(&tail);
        let err = decode_raw_stream(Bytes::from(evil)).unwrap_err();
        prop_assert!(matches!(err, CodecError::Corrupt { .. }));
    }
}
