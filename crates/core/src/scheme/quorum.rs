//! The quorum distribution scheme (Kleinheksel–Somani, arXiv 1608.05174).
//!
//! Working sets are the `v` rotations of a difference cover `A` of `Z_v` —
//! a cyclic quorum system: task `t` holds
//! `B_t = { (a + t) mod v : a ∈ A }`, so every element sits in exactly
//! `k = |A|` working sets (`q + 1` for a Singer cover, `≈ √(1.5 v)` for a
//! Wichmann ruler; see `pmr_designs::quorum`). That is the same `√v`
//! replication scaling as the design scheme, but defined for **every** `v`
//! (no plane-order jumps), with perfectly uniform working sets and exactly
//! `v` tasks.
//!
//! **Exactly-once pair ownership.** Every unordered pair `{x, y}` has a
//! unique circular distance `d = min((x−y) mod v, (y−x) mod v) ∈
//! [1, ⌊v/2⌋]` and, for `d < v/2`, a unique ordered representative
//! `(x₀, (x₀ + d) mod v)`. Because `A` is a difference cover there is a
//! canonical *anchor* `α_d ∈ A` (the smallest) with `(α_d + d) mod v ∈ A`;
//! the pair is assigned to task `t = (x₀ − α_d) mod v`, whose working set
//! contains both endpoints (`x₀ = α_d + t` paired with `(α_d + d) + t`).
//! Each task therefore owns exactly one pair per distance; for even `v`
//! the antipodal distance `d = v/2` yields each pair under two rotations
//! and the representative with the smaller first endpoint wins. Totals
//! check out: `v·(v−1)/2` pairs, `⌊v/2⌋` (±1) per task.
//!
//! **One static pair table.** Every task is a rotation of task 0, so the
//! cover builds task 0's owned pairs `(α_d, d)` once, sorted anchor-major
//! (`α` ascending, then `d`), and task `t` walks that table shifted by `t`:
//! one conditional subtract per anchor, one add per pair (and one
//! subtract where the pair wraps past `v`), no `%`. Anchor-major order
//! keeps an anchor `α + t` on consecutive pairs, so a tile's operand runs
//! are as long as the distances an anchor owns.
//!
//! Table-1 characteristics: `v` tasks, working sets of `k` elements,
//! replication exactly `k`, `≈ (v−1)/2` evaluations per task.

use std::ops::Range;

use pmr_designs::quorum::{difference_cover, difference_cover_size};

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
    /// Task 0's owned pairs `(α_d, d)`, anchor-major, as runs: each
    /// `(α, end)` owns `dists[start..end]` (ascending), `start` being the
    /// previous run's `end`. Task `t` owns the same pairs shifted by `t`.
    anchors: Vec<(u64, usize)>,
    dists: Vec<u64>,
}

impl QuorumScheme {
    /// Builds the scheme for `v` elements from the generated difference
    /// cover ([`difference_cover`]).
    pub fn new(v: u64) -> QuorumScheme {
        assert!(v >= 2, "need at least 2 elements");
        Self::from_cover(v, difference_cover(v))
    }

    /// Builds the scheme from a caller-supplied difference cover of `Z_v`.
    /// Panics unless `cover` is strictly ascending, below `v`, and a
    /// difference cover.
    pub fn from_cover(v: u64, cover: Vec<u64>) -> QuorumScheme {
        assert!(v >= 2, "need at least 2 elements");
        let sorted = cover.windows(2).all(|w| w[0] < w[1]) && cover.last().is_some_and(|&a| a < v);
        assert!(sorted, "not a sorted subset of Z_{v}: {cover:?}");
        let half = v / 2;
        let mut owner = vec![u64::MAX; half as usize];
        let (mut anchors, mut dists) = (Vec::new(), Vec::with_capacity(half as usize));
        // Anchors ascend, and each anchor `a` meets the other marks in
        // increasing distance `(b − a) mod v` — those above it, then those
        // below it wrapped — so the first anchor to reach a distance owns
        // it and the table comes out anchor-major with no sort.
        for (i, &a) in cover.iter().enumerate() {
            for &b in cover[i + 1..].iter().chain(&cover[..i]) {
                let d = ((b + v) - a) % v;
                if d <= half && owner[d as usize - 1] == u64::MAX {
                    owner[d as usize - 1] = a;
                    dists.push(d);
                }
            }
            if anchors.last().map_or(0, |&(_, end)| end) < dists.len() {
                anchors.push((a, dists.len()));
            }
        }
        // Every distance d ≤ v/2 (or its mirror v − d) occurs as an ordered
        // difference over A, and both directions are walked above, so the
        // table fills exactly when A is a difference cover.
        assert_eq!(dists.len() as u64, half, "not a difference cover of Z_{v}: {cover:?}");
        GroupedScheme { v, cover: Rotations { v, cover, owner, anchors, dists } }
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
        // Task 0's table shifted by `line`: one conditional subtract puts
        // the anchor `x = α + line` in Z_v. Its distances below `v − x`
        // stay above it (`x` second), the rest wrap below it (`x` first);
        // distances ascend, so the branch flips at most once per anchor.
        let v = self.v;
        debug_assert!(line < v);
        let mut start = 0;
        for &(alpha, end) in &self.anchors {
            let x = if alpha + line >= v { alpha + line - v } else { alpha + line };
            for &d in &self.dists[start..end] {
                if d < v - x {
                    f(x + d, x);
                } else if 2 * d != v {
                    // Antipodal dedupe: of the two rotations holding a pair
                    // at distance v/2, the one whose walk does not wrap
                    // emits it.
                    f(x, x + d - v);
                }
            }
            start = end;
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
        // Every v below 300, so every even v (the antipodal rule) too.
        for v in 2u64..300 {
            let s = QuorumScheme::new(v);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v}: {e:?}"));
            let m = measure(&s);
            assert_eq!(m.total_pairs, pair_count(v), "v={v}");
        }
    }

    #[test]
    fn num_pairs_closed_form_matches_enumeration() {
        for v in 2u64..300 {
            let s = QuorumScheme::new(v);
            for t in 0..v {
                let mut n = 0;
                s.for_each_pair(t, &mut |_, _| n += 1);
                assert_eq!(s.num_pairs(t), n, "v={v} t={t}");
            }
        }
    }

    #[test]
    fn pairs_walk_anchor_major() {
        // Each pair's anchor is x = α_d + t for its circular distance d;
        // the stream visits the anchors in ascending α, each one's pairs
        // back to back.
        for v in [2u64, 6, 7, 64, 100, 133, 500, 3_072] {
            let s = QuorumScheme::new(v);
            for t in [0, 1, v / 2, v - 1] {
                let mut alphas = Vec::new();
                s.for_each_pair(t, &mut |a, b| {
                    let fwd = a - b;
                    let alpha = s.cover.owner[fwd.min(v - fwd) as usize - 1];
                    let x = (alpha + t) % v;
                    assert!(x == a || x == b, "v={v} t={t}: ({a}, {b}) misses its anchor {x}");
                    alphas.push(alpha);
                });
                assert!(alphas.windows(2).all(|w| w[0] <= w[1]), "v={v} t={t}: {alphas:?}");
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
        for v in 2u64..300 {
            let s = QuorumScheme::new(v);
            for t in 0..v {
                s.for_each_pair(t, &mut |a, b| {
                    assert_eq!(s.owner_of(a, b), Some(t), "v={v} pair=({a},{b})");
                    assert_eq!(s.owner_of(b, a), Some(t), "v={v} pair=({b},{a})");
                });
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
