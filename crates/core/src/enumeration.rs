//! Exact enumeration of the upper triangle of the pair matrix.
//!
//! The broadcast scheme (paper §5.1, Figure 5) labels all unordered pairs
//! `(s_i, s_j)`, `i > j`, column-major: `p(i, j) = (i−1)(i−2)/2 + j` in the
//! paper's 1-based notation. The block scheme (§5.2, Figure 6) labels the
//! blocks of the tiled triangle *including* the diagonal:
//! `p(I, J) = I(I−1)/2 + J`, `J ≤ I`.
//!
//! This module implements both enumerations **0-based** with exact integer
//! inverses (`u128` intermediates, no floating-point error):
//!
//! * strict: `rank(a, b) = a(a−1)/2 + b` for `a > b` — pair labels;
//! * inclusive: `rank(i, j) = i(i+1)/2 + j` for `i ≥ j` — block labels.

use pmr_designs::primes::isqrt;

/// Number of unordered pairs of `v` elements: `v(v−1)/2`.
///
/// Panics if the count overflows `u64` (v > ~6.07e9).
#[inline]
pub fn pair_count(v: u64) -> u64 {
    let c = (v as u128) * (v as u128 - v.min(1) as u128) / 2;
    u64::try_from(c).expect("pair count overflows u64")
}

/// Number of blocks in an inclusive triangle with `h` stripes:
/// `h(h+1)/2` (the paper's "number of tasks" for the block approach).
#[inline]
pub fn diag_count(h: u64) -> u64 {
    let c = (h as u128) * (h as u128 + 1) / 2;
    u64::try_from(c).expect("block count overflows u64")
}

/// Rank of the strict pair `(a, b)` with `a > b`, 0-based.
///
/// Equals the paper's `p(i, j) − 1` under `i = a+1`, `j = b+1`.
#[inline]
pub fn pair_rank(a: u64, b: u64) -> u64 {
    debug_assert!(a > b, "pair_rank requires a > b (got {a}, {b})");
    let r = (a as u128) * (a as u128 - 1) / 2 + b as u128;
    u64::try_from(r).expect("pair rank overflows u64")
}

/// Inverse of [`pair_rank`]: the pair `(a, b)`, `a > b`, with the given
/// 0-based rank.
#[inline]
pub fn pair_unrank(rank: u64) -> (u64, u64) {
    // a is the unique integer with a(a−1)/2 ≤ rank < a(a+1)/2.
    // First guess from the real solution of a² − a − 2·rank = 0.
    let mut a = isqrt(8 * rank.min(u64::MAX / 8) + 1).div_ceil(2);
    // For very large ranks fall back to u128-exact adjustment anyway:
    let tri = |x: u64| (x as u128) * (x as u128 - x.min(1) as u128) / 2;
    while tri(a) > rank as u128 {
        a -= 1;
    }
    while tri(a + 1) <= rank as u128 {
        a += 1;
    }
    let b = rank - u64::try_from(tri(a)).unwrap();
    debug_assert!(b < a);
    (a, b)
}

/// Rank of the inclusive cell `(i, j)` with `i ≥ j`, 0-based
/// (block-position labels; equals the paper's `p(I, J) − 1` under
/// `I = i+1`, `J = j+1`).
#[inline]
pub fn diag_rank(i: u64, j: u64) -> u64 {
    debug_assert!(i >= j, "diag_rank requires i ≥ j (got {i}, {j})");
    let r = (i as u128) * (i as u128 + 1) / 2 + j as u128;
    u64::try_from(r).expect("diag rank overflows u64")
}

/// Inverse of [`diag_rank`].
#[inline]
pub fn diag_unrank(rank: u64) -> (u64, u64) {
    // i is the unique integer with i(i+1)/2 ≤ rank < (i+1)(i+2)/2.
    let mut i = (isqrt(8 * rank.min(u64::MAX / 8) + 1).saturating_sub(1)) / 2;
    let tri = |x: u64| (x as u128) * (x as u128 + 1) / 2;
    while tri(i) > rank as u128 {
        i -= 1;
    }
    while tri(i + 1) <= rank as u128 {
        i += 1;
    }
    let j = rank - u64::try_from(tri(i)).unwrap();
    debug_assert!(j <= i);
    (i, j)
}

/// Iterator over the pairs with ranks in `[start, end)`, yielding `(a, b)`
/// with `a > b` — one broadcast task's share of the pair matrix.
pub fn pairs_in_range(start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> {
    // Unrank once, then walk: successor of (a, b) is (a, b+1) if b+1 < a,
    // else (a+1, 0). O(1) per step instead of O(isqrt) per pair.
    let mut cur = if start < end { Some(pair_unrank(start)) } else { None };
    let mut remaining = end.saturating_sub(start);
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let (a, b) = cur?;
        remaining -= 1;
        cur = if b + 1 < a { Some((a, b + 1)) } else { Some((a + 1, 0)) };
        Some((a, b))
    })
}

/// Edge length of the square index tiles used by the cache-blocked pair
/// walks below. A tile touches at most 64 operands: inside a 48 KB L1 for
/// payloads up to ~512 B each (dim-64 `f64` vectors), in L2 beyond that
/// (256 KB at dim 512), which is why a kernel that shares each partner
/// load between two rows of the tile gains there.
pub const TILE_EDGE: u64 = 32;

/// Walks the full cross product `cols × rows` (every `(a, b)` with
/// `a ∈ cols`, `b ∈ rows`) in [`TILE_EDGE`]-square tiles so both operand
/// runs stay cache-hot across a tile. Callers guarantee `cols` holds the
/// larger indexes (all emitted pairs satisfy `a > b`).
pub fn for_each_pair_rect(
    cols: std::ops::Range<u64>,
    rows: std::ops::Range<u64>,
    f: &mut dyn FnMut(u64, u64),
) {
    let mut a0 = cols.start;
    while a0 < cols.end {
        let a1 = (a0 + TILE_EDGE).min(cols.end);
        let mut b0 = rows.start;
        while b0 < rows.end {
            let b1 = (b0 + TILE_EDGE).min(rows.end);
            for a in a0..a1 {
                for b in b0..b1 {
                    f(a, b);
                }
            }
            b0 = b1;
        }
        a0 = a1;
    }
}

/// Walks the strict lower triangle of `range × range` (every `(a, b)` with
/// `range.start ≤ b < a < range.end`) in [`TILE_EDGE`]-square tiles:
/// full tiles left of the diagonal, then the triangular diagonal tile.
pub fn for_each_pair_triangle(range: std::ops::Range<u64>, f: &mut dyn FnMut(u64, u64)) {
    let mut a0 = range.start;
    while a0 < range.end {
        let a1 = (a0 + TILE_EDGE).min(range.end);
        let mut b0 = range.start;
        while b0 < a0 {
            let b1 = (b0 + TILE_EDGE).min(a0);
            for a in a0..a1 {
                for b in b0..b1 {
                    f(a, b);
                }
            }
            b0 = b1;
        }
        for a in a0..a1 {
            for b in a0..a {
                f(a, b);
            }
        }
        a0 = a1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_walks_cover_exactly() {
        // Rect: multiset equals the plain cross product.
        for (cols, rows) in [(10u64..75, 0u64..10), (5..6, 0..5), (40..40, 0..10), (33..97, 0..33)]
        {
            let mut got = Vec::new();
            for_each_pair_rect(cols.clone(), rows.clone(), &mut |a, b| got.push((a, b)));
            let mut expect: Vec<(u64, u64)> =
                cols.clone().flat_map(|a| rows.clone().map(move |b| (a, b))).collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "cols {cols:?} rows {rows:?}");
        }
        // Triangle: multiset equals the strict triangle.
        for range in [0u64..1, 0..2, 0..31, 0..32, 0..33, 7..100, 64..64] {
            let mut got = Vec::new();
            for_each_pair_triangle(range.clone(), &mut |a, b| got.push((a, b)));
            let mut expect: Vec<(u64, u64)> =
                range.clone().flat_map(|a| (range.start..a).map(move |b| (a, b))).collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "range {range:?}");
        }
    }

    #[test]
    fn figure5_labels_match_paper() {
        // Paper Figure 5 (1-based): p(2,1)=1, p(3,1)=2, p(3,2)=3, p(4,1)=4,
        // p(4,2)=5, p(4,3)=6, p(5,1)=7, ..., p(7,2)=17, p(7,4)=19, p(7,6)=21.
        // In the figure's (row i, col j) display: row 1 shows 1 2 4 7 11 16.
        let one_based = |i: u64, j: u64| pair_rank(i - 1, j - 1) + 1;
        assert_eq!(one_based(2, 1), 1);
        assert_eq!(one_based(3, 1), 2);
        assert_eq!(one_based(3, 2), 3);
        assert_eq!(one_based(4, 1), 4);
        assert_eq!(one_based(4, 2), 5);
        assert_eq!(one_based(4, 3), 6);
        assert_eq!(one_based(5, 1), 7);
        assert_eq!(one_based(6, 1), 11);
        assert_eq!(one_based(7, 1), 16);
        assert_eq!(one_based(7, 6), 21);
    }

    #[test]
    fn figure6_block_labels_match_paper() {
        // Paper Figure 6: p=1→(1,1), p=2→(1,2), p=3→(2,2), p=4→(1,3),
        // p=5→(2,3), p=6→(3,3), where the tuple is (J=row, I=col).
        let pos = |p: u64| {
            let (i, j) = diag_unrank(p - 1);
            (j + 1, i + 1) // back to the paper's (row, col)
        };
        assert_eq!(pos(1), (1, 1));
        assert_eq!(pos(2), (1, 2));
        assert_eq!(pos(3), (2, 2));
        assert_eq!(pos(4), (1, 3));
        assert_eq!(pos(5), (2, 3));
        assert_eq!(pos(6), (3, 3));
    }

    #[test]
    fn pair_rank_unrank_roundtrip_exhaustive() {
        let mut expect = 0u64;
        for a in 1..200u64 {
            for b in 0..a {
                assert_eq!(pair_rank(a, b), expect);
                assert_eq!(pair_unrank(expect), (a, b));
                expect += 1;
            }
        }
        assert_eq!(expect, pair_count(200));
    }

    #[test]
    fn diag_rank_unrank_roundtrip_exhaustive() {
        let mut expect = 0u64;
        for i in 0..150u64 {
            for j in 0..=i {
                assert_eq!(diag_rank(i, j), expect);
                assert_eq!(diag_unrank(expect), (i, j));
                expect += 1;
            }
        }
        assert_eq!(expect, diag_count(150));
    }

    #[test]
    fn large_values_no_overflow() {
        let v = 3_000_000_000u64;
        let total = pair_count(v);
        let (a, b) = pair_unrank(total - 1);
        assert_eq!((a, b), (v - 1, v - 2));
        assert_eq!(pair_rank(a, b), total - 1);
        // Round-trip at scattered large ranks.
        for r in [total / 3, total / 2, total - 12345] {
            let (a, b) = pair_unrank(r);
            assert_eq!(pair_rank(a, b), r);
        }
    }

    #[test]
    fn pairs_in_range_matches_unrank() {
        let total = pair_count(30);
        let walked: Vec<(u64, u64)> = pairs_in_range(0, total).collect();
        let direct: Vec<(u64, u64)> = (0..total).map(pair_unrank).collect();
        assert_eq!(walked, direct);
        // Sub-ranges too.
        let sub: Vec<(u64, u64)> = pairs_in_range(100, 150).collect();
        assert_eq!(sub, (100..150).map(pair_unrank).collect::<Vec<_>>());
        // Empty and reversed ranges.
        assert_eq!(pairs_in_range(5, 5).count(), 0);
        assert_eq!(pairs_in_range(9, 3).count(), 0);
    }

    #[test]
    fn counts() {
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
        assert_eq!(pair_count(2), 1);
        assert_eq!(pair_count(7), 21);
        assert_eq!(diag_count(0), 0);
        assert_eq!(diag_count(1), 1);
        assert_eq!(diag_count(3), 6);
    }
}
