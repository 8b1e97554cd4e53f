//! The quorum distribution scheme (Kleinheksel–Somani, arXiv 1608.05174).
//!
//! Working sets are the `v` rotations of a difference cover `A` of `Z_v` —
//! a cyclic quorum system: task `t` holds
//! `B_t = { (a + t) mod v : a ∈ A }`, so every element sits in exactly
//! `k = |A| ≈ √v` working sets. That is the same `√v` replication scaling
//! as the design scheme, but defined for **every** `v` (no plane-order
//! jumps), with perfectly uniform working sets and exactly `v` tasks.
//!
//! **Exactly-once pair ownership.** Every unordered pair `{x, y}` has a
//! unique circular distance `d = min((x−y) mod v, (y−x) mod v) ∈
//! [1, ⌊v/2⌋]` and, for `d < v/2`, a unique ordered representative
//! `(x₀, (x₀ + d) mod v)`. Because `A` is a difference cover there is a
//! canonical `α_d ∈ A` with `(α_d + d) mod v ∈ A`; the pair is assigned to
//! task `t = (x₀ − α_d) mod v`, whose working set contains both endpoints
//! (`x₀ = α_d + t` paired with `(α_d + d) + t`). Each task therefore owns
//! exactly one pair per distance; for even `v` the antipodal distance
//! `d = v/2` yields each pair under two rotations and the representative
//! with the smaller first endpoint wins. Totals check out:
//! `v·(v−1)/2` pairs, `⌊v/2⌋` (±1) per task.
//!
//! Table-1 characteristics: `v` tasks, working sets of `k ≈ √v` elements,
//! replication exactly `k`, `≈ (v−1)/2` evaluations per task.

use std::ops::Range;

use pmr_designs::quorum::{difference_cover, difference_cover_size, is_difference_cover};

use crate::scheme::{GroupedScheme, PairCover, Shape};

/// Quorum scheme backed by the cyclic development of a difference cover.
///
/// ```
/// use pmr_core::scheme::{QuorumScheme, DistributionScheme, verify_exactly_once};
///
/// let s = QuorumScheme::new(57);          // 57 = 7² + 7 + 1: Singer cover
/// assert_eq!(s.quorum_size(), 8);         // k = q + 1 = 8 ≈ √57
/// assert_eq!(s.num_tasks(), 57);          // one rotation per element
/// verify_exactly_once(&s).unwrap();       // every pair in exactly one task
/// ```
pub type QuorumScheme = GroupedScheme<Rotations>;

/// The quorum cover: every element is its own group and every rotation of
/// the difference cover is a line owning one pair per circular distance.
#[derive(Debug, Clone)]
pub struct Rotations {
    v: u64,
    /// The difference cover `A`, sorted ascending.
    cover: Vec<u64>,
    /// `owner[d − 1] = α_d` for `d ∈ [1, ⌊v/2⌋]`: the canonical cover
    /// element with `(α_d + d) mod v ∈ A`.
    owner: Vec<u64>,
}

impl QuorumScheme {
    /// Builds the scheme for `v` elements from the generated difference
    /// cover ([`difference_cover`]).
    pub fn new(v: u64) -> QuorumScheme {
        assert!(v >= 2, "need at least 2 elements");
        Self::from_cover(v, difference_cover(v))
    }

    /// Builds the scheme from a caller-supplied difference cover of `Z_v`
    /// (sorted, deduplicated). Panics if `cover` is not a difference cover.
    pub fn from_cover(v: u64, cover: Vec<u64>) -> QuorumScheme {
        assert!(v >= 2, "need at least 2 elements");
        assert!(is_difference_cover(&cover, v), "not a difference cover of Z_{v}: {cover:?}");
        let half = (v / 2) as usize;
        let mut owner = vec![u64::MAX; half];
        // Every distance d ≤ v/2 (or its mirror v − d) occurs as an ordered
        // difference b − a over A, and both directions are enumerated here,
        // so the cover property guarantees the table fills completely.
        for &a in &cover {
            for &b in &cover {
                if a == b {
                    continue;
                }
                let d = ((b + v) - a) % v;
                if d as usize <= half && owner[d as usize - 1] == u64::MAX {
                    owner[d as usize - 1] = a;
                }
            }
        }
        debug_assert!(owner.iter().all(|&x| x != u64::MAX));
        GroupedScheme { v, cover: Rotations { v, cover, owner } }
    }

    /// The closed form of `QuorumScheme::new(v)`: `v` rotations of a
    /// [`difference_cover_size`]`(v)`-element cover.
    pub fn shape(v: u64) -> Shape {
        rotations(v, difference_cover_size(v))
    }

    /// The quorum size `k = |A|`: working-set size and exact replication.
    pub fn quorum_size(&self) -> u64 {
        self.cover.cover.len() as u64
    }

    /// The underlying difference cover, sorted ascending.
    pub fn cover(&self) -> &[u64] {
        &self.cover.cover
    }
}

impl PairCover for Rotations {
    fn group(&self, g: u64) -> Range<u64> {
        g..g + 1
    }

    fn group_of(&self, e: u64) -> Option<u64> {
        Some(e)
    }

    fn groups_on(&self, line: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self.cover.iter().map(|&a| (a + line) % self.v).collect();
        out.sort_unstable();
        out
    }

    fn lines_through(&self, g: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self.cover.iter().map(|&a| ((g + self.v) - a) % self.v).collect();
        out.sort_unstable();
        out
    }

    fn for_each_owned(&self, line: u64, mut f: impl FnMut(u64, u64)) {
        // One pair per circular distance.
        let v = self.v;
        for (i, &alpha) in self.owner.iter().enumerate() {
            let d = i as u64 + 1;
            let x = (alpha + line) % v;
            let y = (x + d) % v;
            if 2 * d == v && x > y {
                continue; // antipodal dedupe: the rotation starting low wins
            }
            if x > y {
                f(x, y);
            } else {
                f(y, x);
            }
        }
    }

    fn num_pairs(&self, line: u64) -> u64 {
        let half = self.v / 2;
        if self.v % 2 == 1 {
            half
        } else {
            // Distances 1..v/2−1 always emit; the antipodal distance emits
            // only from the rotation whose walk starts in the lower half.
            let x = (self.owner[half as usize - 1] + line) % self.v;
            (half - 1) + u64::from(x < half)
        }
    }

    /// `(x₀ − α_d) mod v` (module docs); either argument order works.
    fn owner(&self, x: u64, y: u64) -> Option<u64> {
        let v = self.v;
        let fwd = ((y + v) - x) % v; // distance walking x → y
        let (x0, d) = if fwd <= v - fwd { (x, fwd) } else { (y, v - fwd) };
        let alpha = self.owner[d as usize - 1];
        if 2 * d == v {
            // Antipodal pair: two rotations contain it; the one whose walk
            // starts at the endpoint below v/2 emits it (`for_each_owned`
            // skips the wrapped representative), and exactly one endpoint
            // of an antipodal pair lies below v/2.
            return Some(((x.min(y) + v) - alpha) % v);
        }
        Some(((x0 + v) - alpha) % v)
    }

    fn shape(&self) -> Shape {
        rotations(self.v, self.cover.len() as u64)
    }
}

/// The shape of the `v` rotations of a `k`-element difference cover.
fn rotations(v: u64, k: u64) -> Shape {
    Shape {
        scheme: "quorum",
        lines: v,
        replication: k,
        working_set: k,
        pairs_per_line: (v / 2) as f64, // the largest rotation
        communication: 2 * v * k,       // capped at 2vn like design's
        node_cap: Some(2 * v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::pair_count;
    use crate::scheme::{measure, verify_exactly_once, DistributionScheme};

    #[test]
    fn covers_every_pair_exactly_once() {
        for v in [2u64, 3, 4, 5, 6, 7, 8, 12, 13, 16, 21, 30, 31, 57, 64, 100, 133] {
            let s = QuorumScheme::new(v);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v}: {e:?}"));
            let m = measure(&s);
            assert_eq!(m.total_pairs, pair_count(v), "v={v}");
        }
    }

    #[test]
    fn num_pairs_closed_form_matches_enumeration() {
        for v in [2u64, 5, 6, 8, 13, 20, 21, 57] {
            let s = QuorumScheme::new(v);
            for t in 0..v {
                assert_eq!(s.num_pairs(t), s.pairs(t).len() as u64, "v={v} t={t}");
            }
        }
    }

    #[test]
    fn working_sets_are_uniform_rotations() {
        let s = QuorumScheme::new(57);
        let k = s.quorum_size();
        assert_eq!(k, 8); // Singer cover: q = 7 ⇒ k = q + 1
        for t in 0..57 {
            assert_eq!(s.working_set(t).len() as u64, k, "t={t}");
        }
        // Replication is exactly k for every element.
        for e in 0..57u64 {
            assert_eq!(s.subsets_of(e).len() as u64, k, "e={e}");
        }
    }

    #[test]
    fn subsets_inverse_of_working_sets() {
        let s = QuorumScheme::new(40);
        for e in 0..40u64 {
            for t in s.subsets_of(e) {
                assert!(s.working_set(t).contains(&e));
            }
        }
        for t in 0..s.num_tasks() {
            for e in s.working_set(t) {
                assert!(s.subsets_of(e).contains(&t));
            }
        }
    }

    #[test]
    fn owner_of_agrees_with_enumeration() {
        for v in [5u64, 6, 12, 13, 30] {
            let s = QuorumScheme::new(v);
            for t in 0..v {
                for (a, b) in s.pairs(t) {
                    assert_eq!(s.owner_of(a, b), Some(t), "v={v} pair=({a},{b})");
                    assert_eq!(s.owner_of(b, a), Some(t), "v={v} pair=({b},{a})");
                }
            }
        }
    }

    #[test]
    fn metrics_match_measurement() {
        for v in [30u64, 57, 100] {
            let s = QuorumScheme::new(v);
            let analytic = s.metrics(64);
            let measured = measure(&s);
            assert_eq!(analytic.num_tasks, v);
            assert_eq!(measured.max_working_set, analytic.working_set_size, "v={v}");
            assert_eq!(measured.min_working_set, analytic.working_set_size, "v={v}");
            assert!((measured.replication_factor - analytic.replication_factor).abs() < 1e-9);
            assert_eq!(measured.max_evaluations as f64, analytic.evaluations_per_task, "v={v}");
        }
    }

    #[test]
    fn communication_capped_by_nodes() {
        let s = QuorumScheme::new(100);
        let k = s.quorum_size();
        // Many nodes: 2vk; few nodes: capped at 2vn.
        assert_eq!(s.metrics(1_000).communication_elements, 2 * 100 * k);
        assert_eq!(s.metrics(2).communication_elements, 2 * 100 * 2);
    }

    #[test]
    fn replication_beats_broadcast_and_tracks_design() {
        // k ≈ √v: far below broadcast's p ≈ v replication at p = v tasks,
        // within a small factor of the design scheme's q + 1.
        let v = 100u64;
        let s = QuorumScheme::new(v);
        let k = s.quorum_size() as f64;
        let sqrt_v = (v as f64).sqrt();
        assert!(k >= sqrt_v, "k={k} below √v");
        assert!(k <= 2.0 * sqrt_v + 2.0, "k={k} vs √v={sqrt_v}");
    }
}
