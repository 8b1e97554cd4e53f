//! Wire format for keys, values, and records.
//!
//! Intermediate data in the engine is real serialized bytes — that is what
//! makes the paper's *communication cost* and *intermediate storage* metrics
//! (Table 1, Figures 8–9) measurable rather than estimated. The format is a
//! minimal length-prefixed binary encoding:
//!
//! * integers: fixed-width **big-endian** (so lexicographic byte order on
//!   encoded keys equals numeric order — the shuffle sorts raw bytes, like
//!   Hadoop's raw comparator);
//! * byte strings / strings / vectors: `u32` length prefix + payload;
//! * records: `key-len, key-bytes, value-len, value-bytes`.
//!
//! A type whose every encoding has one width (integers, `f64`, tuples of
//! them) declares it in [`Wire::FIXED_WIDTH`]. A `Vec` of such items
//! encodes and decodes as one block — one resize, one bounds check — and
//! produces exactly the bytes of the item-by-item encoding.
//!
//! Encodings must be *canonical*: two values compare equal iff their
//! encodings are byte-identical, because the shuffle groups by encoded key.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes available than the decoder needed.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix or tag had an invalid value.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated input while decoding {what}"),
            CodecError::Corrupt { what } => write!(f, "corrupt encoding of {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, CodecError>;

/// A type with a canonical binary encoding.
///
/// ```
/// use pmr_cluster::Wire;
///
/// let v = (7u64, String::from("hi"), vec![1u32, 2]);
/// let bytes = v.to_bytes();
/// let back = <(u64, String, Vec<u32>)>::from_bytes(bytes).unwrap();
/// assert_eq!(back, v);
/// // u64 keys sort correctly as raw bytes (big-endian encoding):
/// assert!(1u64.to_bytes() < 256u64.to_bytes());
/// ```
pub trait Wire: Sized + Send + 'static {
    /// The width in bytes of every encoding of `Self`, when it has one and
    /// every byte pattern of that width decodes (so `bool` has none).
    const FIXED_WIDTH: Option<usize> = None;

    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes one value from the front of `buf`, consuming its bytes.
    fn decode(buf: &mut Bytes) -> DecodeResult<Self>;

    /// Writes the encoding into `out`, which is exactly
    /// `FIXED_WIDTH` bytes long. Called only when `FIXED_WIDTH` is `Some`.
    fn encode_fixed(&self, _out: &mut [u8]) {
        unreachable!("encode_fixed on a type without a fixed width")
    }

    /// Decodes `bytes`, which are exactly `FIXED_WIDTH` bytes long.
    /// Called only when `FIXED_WIDTH` is `Some`.
    fn decode_fixed(_bytes: &[u8]) -> Self {
        unreachable!("decode_fixed on a type without a fixed width")
    }

    /// Encodes into a fresh buffer (convenience).
    fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::new();
        self.encode(&mut b);
        b.freeze()
    }

    /// Decodes a value that must consume the entire buffer.
    fn from_bytes(bytes: Bytes) -> DecodeResult<Self> {
        let mut b = bytes;
        let v = Self::decode(&mut b)?;
        if !b.is_empty() {
            return Err(CodecError::Corrupt { what: "trailing bytes" });
        }
        Ok(v)
    }
}

macro_rules! impl_wire_uint {
    ($t:ty, $get:ident, $put:ident, $n:expr, $name:expr) => {
        impl Wire for $t {
            const FIXED_WIDTH: Option<usize> = Some($n);
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
                if buf.len() < $n {
                    return Err(CodecError::Truncated { what: $name });
                }
                Ok(buf.$get())
            }
            fn encode_fixed(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_be_bytes());
            }
            fn decode_fixed(bytes: &[u8]) -> Self {
                <$t>::from_be_bytes(bytes.try_into().expect("fixed-width slice"))
            }
        }
    };
}

impl_wire_uint!(u8, get_u8, put_u8, 1, "u8");
impl_wire_uint!(u16, get_u16, put_u16, 2, "u16");
impl_wire_uint!(u32, get_u32, put_u32, 4, "u32");
impl_wire_uint!(u64, get_u64, put_u64, 8, "u64");

impl Wire for i64 {
    const FIXED_WIDTH: Option<usize> = Some(8);
    /// Encoded as sign-flipped big-endian so byte order equals numeric order.
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64((*self as u64) ^ (1 << 63));
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        if buf.len() < 8 {
            return Err(CodecError::Truncated { what: "i64" });
        }
        Ok((buf.get_u64() ^ (1 << 63)) as i64)
    }
    fn encode_fixed(&self, out: &mut [u8]) {
        ((*self as u64) ^ (1 << 63)).encode_fixed(out);
    }
    fn decode_fixed(bytes: &[u8]) -> Self {
        (u64::decode_fixed(bytes) ^ (1 << 63)) as i64
    }
}

impl Wire for f64 {
    const FIXED_WIDTH: Option<usize> = Some(8);
    /// IEEE-754 bits, big-endian. (Not order-preserving for negatives; use
    /// only as a value type, not a key, when ordering matters.)
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64(*self);
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        if buf.len() < 8 {
            return Err(CodecError::Truncated { what: "f64" });
        }
        Ok(buf.get_f64())
    }
    fn encode_fixed(&self, out: &mut [u8]) {
        self.to_bits().encode_fixed(out);
    }
    fn decode_fixed(bytes: &[u8]) -> Self {
        f64::from_bits(u64::decode_fixed(bytes))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        if buf.is_empty() {
            return Err(CodecError::Truncated { what: "bool" });
        }
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt { what: "bool" }),
        }
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> DecodeResult<Self> {
        Ok(())
    }
}

/// Upper bound on any single length-prefixed item (1 GiB). A prefix above
/// this is treated as corrupt outright — even when a decoder is handed a
/// buffer that happens to be large enough — so a flipped high bit in a
/// frame header can never trigger a gigabyte-sized `split_to`.
pub const MAX_ITEM_LEN: usize = 1 << 30;

fn put_len(buf: &mut BytesMut, len: usize) {
    debug_assert!(len <= u32::MAX as usize);
    buf.put_u32(len as u32);
}

fn get_len(buf: &mut Bytes, what: &'static str) -> DecodeResult<usize> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated { what });
    }
    let len = buf.get_u32() as usize;
    if len > MAX_ITEM_LEN {
        return Err(CodecError::Corrupt { what });
    }
    if buf.len() < len {
        return Err(CodecError::Truncated { what });
    }
    Ok(len)
}

impl Wire for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        buf.extend_from_slice(self);
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        let len = get_len(buf, "bytes")?;
        Ok(buf.split_to(len))
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        let len = get_len(buf, "string")?;
        String::from_utf8(buf.split_to(len).to_vec())
            .map_err(|_| CodecError::Corrupt { what: "string utf-8" })
    }
}

impl<T: Wire> Wire for Vec<T>
where
    Vec<T>: Send,
{
    fn encode(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        if let Some(w) = T::FIXED_WIDTH {
            let start = buf.len();
            buf.resize(start + self.len() * w, 0);
            for (item, out) in self.iter().zip(buf[start..].chunks_exact_mut(w)) {
                item.encode_fixed(out);
            }
            return;
        }
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        if buf.len() < 4 {
            return Err(CodecError::Truncated { what: "vec" });
        }
        let n = buf.get_u32() as usize;
        if let Some(w) = T::FIXED_WIDTH {
            let len = n
                .checked_mul(w)
                .filter(|&len| len <= buf.len())
                .ok_or(CodecError::Truncated { what: "vec" })?;
            let out = buf[..len].chunks_exact(w).map(T::decode_fixed).collect();
            buf.advance(len);
            return Ok(out);
        }
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        if buf.is_empty() {
            return Err(CodecError::Truncated { what: "option" });
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Corrupt { what: "option tag" }),
        }
    }
}

/// The width of a fixed-width part of a tuple that is fixed as a whole.
fn part_width<T: Wire>() -> usize {
    T::FIXED_WIDTH.expect("part of a fixed-width tuple")
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const FIXED_WIDTH: Option<usize> = match (A::FIXED_WIDTH, B::FIXED_WIDTH) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn encode_fixed(&self, out: &mut [u8]) {
        let (a, b) = out.split_at_mut(part_width::<A>());
        self.0.encode_fixed(a);
        self.1.encode_fixed(b);
    }
    fn decode_fixed(bytes: &[u8]) -> Self {
        let (a, b) = bytes.split_at(part_width::<A>());
        (A::decode_fixed(a), B::decode_fixed(b))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const FIXED_WIDTH: Option<usize> = match (A::FIXED_WIDTH, B::FIXED_WIDTH, C::FIXED_WIDTH) {
        (Some(a), Some(b), Some(c)) => Some(a + b + c),
        _ => None,
    };
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> DecodeResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    fn encode_fixed(&self, out: &mut [u8]) {
        let (a, rest) = out.split_at_mut(part_width::<A>());
        let (b, c) = rest.split_at_mut(part_width::<B>());
        self.0.encode_fixed(a);
        self.1.encode_fixed(b);
        self.2.encode_fixed(c);
    }
    fn decode_fixed(bytes: &[u8]) -> Self {
        let (a, rest) = bytes.split_at(part_width::<A>());
        let (b, c) = rest.split_at(part_width::<B>());
        (A::decode_fixed(a), B::decode_fixed(b), C::decode_fixed(c))
    }
}

/// A raw (encoded-key, encoded-value) record as moved by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Canonical encoding of the key.
    pub key: Bytes,
    /// Canonical encoding of the value.
    pub value: Bytes,
}

impl RawRecord {
    /// Serialized size of this record in a record stream.
    pub fn framed_len(&self) -> usize {
        8 + self.key.len() + self.value.len()
    }

    /// Appends the framed record (`u32` key len, key, `u32` value len,
    /// value) to `buf`. [`write_framed_record`] writes the same bytes from
    /// a typed key and value without encoding them into buffers first.
    pub fn write_framed(&self, buf: &mut BytesMut) {
        put_len(buf, self.key.len());
        buf.extend_from_slice(&self.key);
        put_len(buf, self.value.len());
        buf.extend_from_slice(&self.value);
    }

    /// Reads one framed record from the front of `buf`.
    pub fn read_framed(buf: &mut Bytes) -> DecodeResult<RawRecord> {
        let klen = get_len(buf, "record key")?;
        let key = buf.split_to(klen);
        let vlen = get_len(buf, "record value")?;
        let value = buf.split_to(vlen);
        Ok(RawRecord { key, value })
    }
}

/// Appends the framed record of `(key, value)` to `buf`, encoding both in
/// place: each `u32` length is written as a placeholder and patched once its
/// item is encoded. The bytes equal
/// `RawRecord { key: key.to_bytes(), value: value.to_bytes() }.write_framed(buf)`.
pub fn write_framed_record<K: Wire, V: Wire>(buf: &mut BytesMut, key: &K, value: &V) {
    fn framed<T: Wire>(buf: &mut BytesMut, item: &T) {
        let at = buf.len();
        buf.put_u32(0);
        item.encode(buf);
        let len = u32::try_from(buf.len() - at - 4).expect("record item under 4 GiB");
        buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
    framed(buf, key);
    framed(buf, value);
}

/// Encodes a typed record stream into framed bytes, returning the buffer and
/// the byte offset of each record start (for record-aligned DFS splits).
pub fn encode_record_stream<K: Wire, V: Wire>(
    records: impl IntoIterator<Item = (K, V)>,
) -> (Bytes, Vec<u64>) {
    let mut buf = BytesMut::new();
    let mut offsets = Vec::new();
    for (k, v) in records {
        offsets.push(buf.len() as u64);
        write_framed_record(&mut buf, &k, &v);
    }
    (buf.freeze(), offsets)
}

/// Decodes a framed byte stream back into typed records.
pub fn decode_record_stream<K: Wire, V: Wire>(mut data: Bytes) -> DecodeResult<Vec<(K, V)>> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let raw = RawRecord::read_framed(&mut data)?;
        out.push((K::from_bytes(raw.key)?, V::from_bytes(raw.value)?));
    }
    Ok(out)
}

/// Decodes a framed byte stream into raw records (no typing).
pub fn decode_raw_stream(mut data: Bytes) -> DecodeResult<Vec<RawRecord>> {
    let mut out = Vec::new();
    while !data.is_empty() {
        out.push(RawRecord::read_framed(&mut data)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(b).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(54321u16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(i64::MIN);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo wörld"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Bytes::from_static(b"raw"));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u64, String::from("x")));
        roundtrip((1u64, 2.5f64, vec![9u8]));
    }

    #[test]
    fn u64_byte_order_is_numeric_order() {
        let mut pairs = vec![(0u64, 1u64), (255, 256), (u64::MAX - 1, u64::MAX), (7, 1 << 40)];
        pairs.push((12345, 12346));
        for (a, b) in pairs {
            assert!(a.to_bytes() < b.to_bytes(), "{a} vs {b}");
        }
    }

    #[test]
    fn i64_byte_order_is_numeric_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(w[0].to_bytes() < w[1].to_bytes(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn truncated_input_detected() {
        let b = 0xAABBCCDDu32.to_bytes();
        let mut short = b.slice(0..2);
        assert!(matches!(u32::decode(&mut short), Err(CodecError::Truncated { .. })));
        let mut empty = Bytes::new();
        assert!(String::decode(&mut empty).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        buf.put_u8(99);
        assert!(matches!(u32::from_bytes(buf.freeze()), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn corrupt_tags_detected() {
        assert!(matches!(
            bool::from_bytes(Bytes::from_static(&[2])),
            Err(CodecError::Corrupt { .. })
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(Bytes::from_static(&[9])),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn record_stream_roundtrip_with_offsets() {
        let recs: Vec<(u64, String)> = (0..10).map(|i| (i, format!("value-{i}"))).collect();
        let (bytes, offsets) = encode_record_stream(recs.clone());
        assert_eq!(offsets.len(), 10);
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        let back: Vec<(u64, String)> = decode_record_stream(bytes).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn framed_len_matches_actual() {
        let r = RawRecord { key: Bytes::from_static(b"key"), value: Bytes::from_static(b"val!") };
        let mut buf = BytesMut::new();
        r.write_framed(&mut buf);
        assert_eq!(buf.len(), r.framed_len());
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_a_huge_read() {
        // Length prefix claims 2 GiB (> MAX_ITEM_LEN) with 4 bytes behind it.
        let mut buf = BytesMut::new();
        buf.put_u32(0x8000_0000);
        buf.extend_from_slice(b"data");
        let mut b = buf.freeze();
        assert!(matches!(RawRecord::read_framed(&mut b), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_panic() {
        // A record whose value length prefix promises more than remains.
        let mut buf = BytesMut::new();
        put_len(&mut buf, 1);
        buf.put_u8(b'k');
        put_len(&mut buf, 100);
        buf.put_u8(b'v');
        assert!(matches!(decode_raw_stream(buf.freeze()), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let v: Vec<(u64, u64)> = decode_record_stream(Bytes::new()).unwrap();
        assert!(v.is_empty());
    }
}
