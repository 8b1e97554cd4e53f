//! Vector payload types with wire encodings, shared by the applications.

use bytes::{Bytes, BytesMut};
use pmr_mapreduce::{CodecError, Wire};

/// A dense `f64` vector payload (gene-expression profile, matrix row,
/// feature vector).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector(pub Vec<f64>);

impl DenseVector {
    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Inner product with another vector. Panics when the dimensions
    /// differ, as the distances do; the batch kernels' inner loops check
    /// in debug builds only, because [`crate::kernels::validate_uniform_dim`]
    /// validates datasets once up front.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Arithmetic mean of the entries.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

impl Wire for DenseVector {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(DenseVector(Vec::<f64>::decode(buf)?))
    }
}

/// A sparse vector payload: sorted `(feature id, weight)` pairs (document
/// term vectors).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector(pub Vec<(u32, f64)>);

impl SparseVector {
    /// Builds from unsorted entries, merging duplicate ids by summation.
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> SparseVector {
        entries.sort_by_key(|(id, _)| *id);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for (id, w) in entries {
            match merged.last_mut() {
                Some((last, lw)) if *last == id => *lw += w,
                _ => merged.push((id, w)),
            }
        }
        SparseVector(merged)
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.0.len()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Sparse inner product (merge join over sorted ids).
    ///
    /// When one operand is much longer than the other the join gallops:
    /// each short-side id is located in the long side by exponential +
    /// binary search instead of a linear scan. Matched products are
    /// still accumulated in ascending-id order and `a*b` commutes
    /// bit-exactly in IEEE 754, so the result is bit-identical to the
    /// linear merge on every input.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (a, b) = (&self.0[..], &other.0[..]);
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if !short.is_empty() && long.len() / short.len() >= GALLOP_RATIO {
            gallop_dot(short, long)
        } else {
            merge_dot(a, b)
        }
    }

    /// Cosine similarity (0 when either vector is all-zero).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }
}

/// Length ratio at which [`SparseVector::dot`] switches from the linear
/// merge to galloping. Below this the scan's branch predictability wins;
/// above it the `O(short · log long)` search does.
const GALLOP_RATIO: usize = 8;

/// Linear merge-join inner product over two sorted entry lists.
fn merge_dot(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// First index `≥ from` in `list` whose id is `≥ id`, found by doubling
/// steps then binary search over the last doubling window.
fn gallop_lower_bound(list: &[(u32, f64)], from: usize, id: u32) -> usize {
    if from >= list.len() || list[from].0 >= id {
        return from;
    }
    // list[from].0 < id; double until we overshoot (or run off the end).
    let mut step = 1usize;
    while from + step < list.len() && list[from + step].0 < id {
        step *= 2;
    }
    // Invariant: list[lo] < id ≤ list[hi] (hi may be len).
    let mut lo = from + step / 2;
    let mut hi = (from + step).min(list.len());
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if list[mid].0 < id {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Galloping inner product: walk the short side, gallop the long side.
fn gallop_dot(short: &[(u32, f64)], long: &[(u32, f64)]) -> f64 {
    let mut acc = 0.0;
    let mut pos = 0usize;
    for &(id, w) in short {
        pos = gallop_lower_bound(long, pos, id);
        if pos >= long.len() {
            break;
        }
        if long[pos].0 == id {
            acc += w * long[pos].1;
            pos += 1;
        }
    }
    acc
}

impl Wire for SparseVector {
    fn encode(&self, buf: &mut BytesMut) {
        let ids: Vec<u32> = self.0.iter().map(|(i, _)| *i).collect();
        let ws: Vec<f64> = self.0.iter().map(|(_, w)| *w).collect();
        ids.encode(buf);
        ws.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let ids = Vec::<u32>::decode(buf)?;
        let ws = Vec::<f64>::decode(buf)?;
        // Every dot product assumes strictly ascending ids.
        if ids.len() != ws.len() || ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Corrupt { what: "sparse vector" });
        }
        Ok(SparseVector(ids.into_iter().zip(ws).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_and_math() {
        let v = DenseVector(vec![3.0, 4.0]);
        let b = v.to_bytes();
        assert_eq!(DenseVector::from_bytes(b).unwrap(), v);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(&DenseVector(vec![1.0, 2.0])), 11.0);
        assert_eq!(v.mean(), 3.5);
    }

    #[test]
    fn sparse_merge_join_dot() {
        let a = SparseVector::from_entries(vec![(1, 2.0), (5, 3.0), (9, 1.0)]);
        let b = SparseVector::from_entries(vec![(5, 4.0), (9, 2.0), (20, 7.0)]);
        assert_eq!(a.dot(&b), 3.0 * 4.0 + 1.0 * 2.0);
        assert_eq!(a.dot(&SparseVector::default()), 0.0);
    }

    #[test]
    fn gallop_dot_bit_identical_to_merge() {
        // Deterministic LCG so the corpus is reproducible.
        let mut state = 0x1234_5678_u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..50 {
            let short_n = 1 + next(6) as usize;
            let long_n = 64 + next(512) as usize;
            let mk = |n: usize, next: &mut dyn FnMut(u64) -> u64| {
                SparseVector::from_entries(
                    (0..n).map(|_| (next(2048) as u32, next(1000) as f64 / 999.0 - 0.5)).collect(),
                )
            };
            let short = mk(short_n, &mut next);
            let mut long = mk(long_n, &mut next);
            // Force some overlap so matches actually occur.
            for &(id, w) in short.0.iter().take(short_n / 2 + (round % 2)) {
                long = SparseVector::from_entries(
                    long.0.iter().copied().chain([(id, w + 0.25)]).collect(),
                );
            }
            assert!(long.nnz() / short.nnz() >= GALLOP_RATIO, "corpus must exercise galloping");
            let linear = merge_dot(&short.0, &long.0);
            assert_eq!(gallop_dot(&short.0, &long.0).to_bits(), linear.to_bits());
            assert_eq!(short.dot(&long).to_bits(), linear.to_bits());
            assert_eq!(long.dot(&short).to_bits(), linear.to_bits());
        }
    }

    #[test]
    fn gallop_lower_bound_finds_first_ge() {
        let list: Vec<(u32, f64)> =
            [2u32, 4, 8, 16, 32, 64, 128].iter().map(|&i| (i, 0.0)).collect();
        assert_eq!(gallop_lower_bound(&list, 0, 0), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 2), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 3), 1);
        assert_eq!(gallop_lower_bound(&list, 0, 128), 6);
        assert_eq!(gallop_lower_bound(&list, 0, 129), 7);
        assert_eq!(gallop_lower_bound(&list, 3, 8), 3);
        assert_eq!(gallop_lower_bound(&list, 5, 2), 5);
    }

    #[test]
    fn sparse_duplicate_ids_merged() {
        let a = SparseVector::from_entries(vec![(3, 1.0), (3, 2.0), (1, 5.0)]);
        assert_eq!(a.0, vec![(1, 5.0), (3, 3.0)]);
    }

    #[test]
    fn sparse_roundtrip() {
        let a = SparseVector::from_entries(vec![(1, 2.0), (7, -1.5)]);
        assert_eq!(SparseVector::from_bytes(a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn sparse_decode_rejects_ids_out_of_order() {
        // Hand-written frames: the id array, then the weight array.
        let frame = |ids: &[u32], ws: &[f64]| {
            let mut buf = BytesMut::new();
            ids.to_vec().encode(&mut buf);
            ws.to_vec().encode(&mut buf);
            buf.freeze()
        };
        let valid = SparseVector::from_bytes(frame(&[1, 7, 8], &[2.0, -1.5, 0.5])).unwrap();
        assert_eq!(valid.0, vec![(1, 2.0), (7, -1.5), (8, 0.5)]);
        assert_eq!(SparseVector::from_bytes(frame(&[], &[])).unwrap(), SparseVector::default());
        for (ids, ws) in [
            (&[7u32, 1][..], &[2.0, -1.5][..]), // unsorted
            (&[1, 7, 7], &[2.0, -1.5, 0.5]),    // duplicate id
            (&[1, 7], &[2.0]),                  // arrays of unequal length
        ] {
            let err = SparseVector::from_bytes(frame(ids, ws)).unwrap_err();
            assert!(matches!(err, CodecError::Corrupt { what: "sparse vector" }), "{err}");
        }
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = SparseVector::from_entries(vec![(0, 1.0), (2, 2.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&SparseVector::default()), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dense_dot_dimension_checked() {
        let _ = DenseVector(vec![1.0]).dot(&DenseVector(vec![1.0, 2.0]));
    }
}
