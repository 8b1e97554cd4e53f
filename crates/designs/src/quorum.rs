//! Difference covers and cyclic quorums (Kleinheksel–Somani, arXiv
//! 1608.05174).
//!
//! A **difference cover** of `Z_v` is a set `A` whose ordered differences
//! `a − b (mod v)` hit every residue. Its *development* — the `v` rotations
//! `B_t = { (a + t) mod v : a ∈ A }` — is a **cyclic quorum system**: for
//! every unordered pair `{x, y} ⊂ Z_v` some rotation contains both
//! elements, which is exactly the all-pairs property the quorum
//! distribution scheme in `pmr-core` exploits.
//!
//! Two constructions, both closed-form:
//!
//! * when `v = q² + q + 1` for a prime `q`, the [Singer](mod@crate::singer)
//!   perfect difference set is an **optimal** cover of size `q + 1 ≈ √v`;
//! * for every other `v ≥ 4`, a **Wichmann ruler** (Wichmann, "A note on
//!   restricted difference bases", 1963) of length `L ≥ ⌊v/2⌋`. Its gaps
//!   are `1` (`r` times), `r + 1`, `2r + 1` (`r` times), `4r + 3` (`s`
//!   times), `2r + 2` (`r + 1` times) and `1` (`r` times), so it has
//!   `k = 4r + s + 3` marks and length `L = 4r(r + s + 2) + 3(s + 1)`, and
//!   every integer in `[1, L]` is a difference of two marks. A circular
//!   distance of `Z_v` is at most `⌊v/2⌋`, so the marks cover `Z_v`. The
//!   ruler with the fewest marks reaching `⌊v/2⌋` has `k ≈ √(1.5 v)`,
//!   within `√1.5` of the counting bound `k(k−1) ≥ v−1`.
//!
//! `v ≤ 3` is trivial: `{0}` or `{0, 1}`.

use crate::primes::{is_prime, isqrt, plane_size};
use crate::singer::singer_difference_set;

/// True iff every nonzero residue mod `v` occurs among the ordered
/// differences `a − b (mod v)` of distinct elements of `a`.
///
/// (`v = 1` has no nonzero residues, so any set — even the empty one — is
/// trivially a cover.)
pub fn is_difference_cover(a: &[u64], v: u64) -> bool {
    if v <= 1 {
        return true;
    }
    let mut seen = vec![false; v as usize];
    for &x in a {
        for &y in a {
            if x != y {
                seen[(((x + v) - y) % v) as usize] = true;
            }
        }
    }
    seen[1..].iter().all(|&c| c)
}

/// Builds a small difference cover of `Z_v`, sorted ascending.
///
/// The optimal Singer set when `v = q² + q + 1` with `q` prime, the
/// Wichmann ruler of [`difference_cover_size`]`(v)` marks otherwise (module
/// docs). The result always satisfies [`is_difference_cover`]; its size is
/// the quorum size `k ≈ √v` of the cyclic quorum system it generates.
pub fn difference_cover(v: u64) -> Vec<u64> {
    assert!(v >= 1, "difference cover needs a nonempty cyclic group");
    if v <= 3 {
        return (0..v.min(2)).collect();
    }
    if let Some(q) = singer_order(v) {
        return singer_difference_set(q);
    }
    let (r, s) = wichmann(v / 2);
    let gaps = [(1, r), (r + 1, 1), (2 * r + 1, r), (4 * r + 3, s), (2 * r + 2, r + 1), (1, r)];
    let mut marks = vec![0];
    for (gap, times) in gaps {
        for _ in 0..times {
            marks.push(marks[marks.len() - 1] + gap);
        }
    }
    debug_assert!(marks[marks.len() - 1] < v, "v={v}: the ruler must fit in Z_v");
    marks
}

/// The quorum size `k = |difference_cover(v)|`, in closed form.
pub fn difference_cover_size(v: u64) -> u64 {
    if v <= 3 {
        return v.min(2);
    }
    if let Some(q) = singer_order(v) {
        return q + 1;
    }
    let (r, s) = wichmann(v / 2);
    4 * r + s + 3
}

/// The prime `q` with `v = q² + q + 1`, if there is one.
fn singer_order(v: u64) -> Option<u64> {
    let q = isqrt(v);
    (plane_size(q) == v && is_prime(q)).then_some(q)
}

/// The Wichmann ruler `(r, s)` with the fewest marks whose length is at
/// least `len`: for each `r`, the fewest `s` with
/// `4r(r + 2) + 3 + s(4r + 3) ≥ len`, keeping the first `r` with the fewest
/// marks. Past `4r + 3 ≥ k` no ruler has fewer than `k` marks.
fn wichmann(len: u64) -> (u64, u64) {
    let (mut best, mut k) = ((0, 0), u64::MAX);
    let mut r = 0;
    while 4 * r + 3 < k {
        let s = len.saturating_sub(4 * r * (r + 2) + 3).div_ceil(4 * r + 3);
        if 4 * r + s + 3 < k {
            (best, k) = ((r, s), 4 * r + s + 3);
        }
        r += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_small_v_exhaustively() {
        for v in 1..5_000u64 {
            let a = difference_cover(v);
            assert!(is_difference_cover(&a, v), "v={v}: {a:?}");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "v={v}: not sorted/dedup: {a:?}");
            assert!(a.iter().all(|&x| x < v), "v={v}: out of range: {a:?}");
            let k = a.len() as u64;
            // Counting bound: k(k−1) ordered differences must cover the
            // v−1 nonzero residues.
            assert!(k * (k - 1) >= v - 1, "v={v} k={k} below counting bound");
            assert_eq!(difference_cover_size(v), k, "v={v}: closed-form size");
        }
    }

    #[test]
    fn singer_route_is_optimal_for_plane_sizes() {
        // v = q² + q + 1, q prime ⇒ perfect difference set of size q + 1.
        for (v, k) in [(7u64, 3u64), (13, 4), (31, 6), (57, 8), (133, 12)] {
            assert_eq!(difference_cover(v).len() as u64, k, "v={v}");
        }
    }

    #[test]
    fn wichmann_sizes_are_pinned() {
        for (v, k) in [(500u64, 27u64), (1_000, 39), (2_048, 56), (3_072, 68), (10_000, 122)] {
            assert_eq!(difference_cover_size(v), k, "v={v}");
            assert_eq!(difference_cover(v).len() as u64, k, "v={v}");
        }
        assert!(is_difference_cover(&difference_cover(10_000), 10_000));
    }

    #[test]
    fn size_stays_near_sqrt_v() {
        for v in [10u64, 50, 100, 500, 1000, 2048, 5000, 100_000] {
            let k = difference_cover_size(v);
            let sqrt_v = (v as f64).sqrt();
            assert!(k as f64 >= sqrt_v, "v={v} k={k} vs √v={sqrt_v}");
            assert!((k as f64) <= (1.5 * v as f64).sqrt() + 3.0, "v={v} k={k} vs √v={sqrt_v}");
        }
    }

    #[test]
    fn rejects_non_covers() {
        assert!(!is_difference_cover(&[0, 1, 2], 7)); // covers ±1, ±2; misses 3, 4
        assert!(!is_difference_cover(&[0], 2));
        assert!(is_difference_cover(&[0, 1, 3], 7)); // the Fano set
        assert!(is_difference_cover(&[], 1)); // trivially
    }

    #[test]
    fn tiny_groups() {
        assert_eq!(difference_cover(1), vec![0]);
        assert_eq!(difference_cover(2), vec![0, 1]);
        let a3 = difference_cover(3);
        assert_eq!(a3.len(), 2, "{a3:?}");
    }
}
