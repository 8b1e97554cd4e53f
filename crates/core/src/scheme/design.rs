//! The design distribution scheme (paper §5.3).
//!
//! Working sets are the blocks of a `(v, k, 1)`-design: a projective plane
//! of order `q` — the smallest prime power with `q² + q + 1 ≥ v` — truncated
//! to `v` points when `v < q̂`. Every 2-element subset of `S` lies in exactly
//! one block, so the pair relation of each task is simply the full strict
//! upper triangle of its working set:
//! `P_l = {(s_i, s_j) | s_i, s_j ∈ D_l, i > j}`.
//!
//! Table-1 characteristics: `q² + q + 1 ≥ v` tasks, working sets of
//! `≈ √v` elements, replication `≈ √v`, `≈ (v−1)/2` evaluations per task.

use std::ops::Range;

use pmr_designs::plane::truncated_plane;
use pmr_designs::primes::smallest_plane_order;
use pmr_designs::BlockDesign;

use crate::scheme::{GroupedScheme, PairCover, Shape};

/// Design scheme backed by a (possibly truncated) projective plane.
///
/// ```
/// use pmr_core::scheme::{DesignScheme, DistributionScheme, verify_exactly_once};
///
/// let s = DesignScheme::new(57);          // 57 = 7² + 7 + 1: exact plane
/// assert_eq!(s.order(), 7);
/// assert!(s.working_set(0).len() <= 8);   // blocks have ≤ q + 1 elements
/// verify_exactly_once(&s).unwrap();       // every pair in exactly one task
/// ```
pub type DesignScheme = GroupedScheme<DesignBlocks>;

/// The design cover: every element is its own group and every block of the
/// design is a line owning all pairs of its points.
#[derive(Debug, Clone)]
pub struct DesignBlocks {
    q: u64,
    design: BlockDesign,
    /// Inverted index: element → blocks containing it.
    point_to_blocks: Vec<Vec<u32>>,
}

impl DesignScheme {
    /// Builds the scheme for `v` elements: the truncated plane of the
    /// smallest adequate prime-power order.
    pub fn new(v: u64) -> DesignScheme {
        assert!(v >= 2, "need at least 2 elements");
        let (design, q) = truncated_plane(v);
        let point_to_blocks = design.point_to_blocks();
        GroupedScheme { v, cover: DesignBlocks { q, design, point_to_blocks } }
    }

    /// Builds the scheme from a caller-supplied design (must be pairwise
    /// balanced; verified in debug builds).
    pub fn from_design(design: BlockDesign, q: u64) -> DesignScheme {
        debug_assert!(design.verify().is_ok(), "design is not pairwise balanced");
        let point_to_blocks = design.point_to_blocks();
        GroupedScheme { v: design.v(), cover: DesignBlocks { q, design, point_to_blocks } }
    }

    /// The closed form of `DesignScheme::new(v)`: `q² + q + 1` lines (the
    /// built scheme drops those truncation empties) of `q + 1` points, each
    /// point on `q + 1` lines, for the `q` of [`smallest_plane_order`].
    pub fn shape(v: u64) -> Shape {
        plane(v, smallest_plane_order(v))
    }

    /// The plane order `q` used.
    pub fn order(&self) -> u64 {
        self.cover.q
    }

    /// The underlying block design.
    pub fn design(&self) -> &BlockDesign {
        &self.cover.design
    }
}

impl PairCover for DesignBlocks {
    fn group(&self, g: u64) -> Range<u64> {
        g..g + 1
    }

    fn group_of(&self, e: u64) -> Option<u64> {
        Some(e)
    }

    fn groups_on(&self, line: u64) -> Vec<u64> {
        self.design.blocks()[line as usize].clone()
    }

    fn lines_through(&self, g: u64) -> Vec<u64> {
        self.point_to_blocks[g as usize].iter().map(|&b| b as u64).collect()
    }

    fn for_each_owned(&self, line: u64, mut f: impl FnMut(u64, u64)) {
        let block = &self.design.blocks()[line as usize];
        for (idx, &a) in block.iter().enumerate().skip(1) {
            for &b in &block[..idx] {
                f(a, b); // blocks are sorted ascending, so a > b
            }
        }
    }

    fn num_pairs(&self, line: u64) -> u64 {
        let k = self.design.blocks()[line as usize].len() as u64;
        k * k.saturating_sub(1) / 2
    }

    fn owner(&self, a: u64, b: u64) -> Option<u64> {
        // The one block on both points: merge their ascending block lists.
        let (mut on_a, mut on_b) =
            (self.point_to_blocks[a as usize].iter(), self.point_to_blocks[b as usize].iter());
        let (mut x, mut y) = (on_a.next(), on_b.next());
        while let (Some(&p), Some(&q)) = (x, y) {
            match p.cmp(&q) {
                std::cmp::Ordering::Less => x = on_a.next(),
                std::cmp::Ordering::Greater => y = on_b.next(),
                std::cmp::Ordering::Equal => return Some(p as u64),
            }
        }
        None // only a design that is not pairwise balanced gets here
    }

    fn shape(&self) -> Shape {
        Shape { lines: self.design.num_blocks() as u64, ..plane(self.design.v(), self.q) }
    }
}

/// The shape of a plane of order `q` over `v` points.
fn plane(v: u64, q: u64) -> Shape {
    Shape {
        scheme: "design",
        lines: q * q + q + 1,
        replication: q + 1, // ≈ √v
        working_set: q + 1,
        // C(q+1, 2): the paper's (v−1)/2 when v = q² + q + 1.
        pairs_per_line: (q * (q + 1)) as f64 / 2.0,
        // Table 1's "≈ 2v√v, max 2vn".
        communication: (2.0 * v as f64 * (v as f64).sqrt()) as u64,
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
        for v in [2u64, 3, 7, 8, 13, 14, 20, 21, 31, 57, 60, 91, 100, 133] {
            let s = DesignScheme::new(v);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v}: {e:?}"));
            let m = measure(&s);
            assert_eq!(m.total_pairs, pair_count(v), "v={v}");
        }
    }

    #[test]
    fn fano_plane_for_v7() {
        let s = DesignScheme::new(7);
        assert_eq!(s.order(), 2);
        assert_eq!(s.num_tasks(), 7);
        for t in 0..7 {
            assert_eq!(s.working_set(t).len(), 3);
            assert_eq!(s.num_pairs(t), 3);
        }
        // Figure 4: work split into 7 independent tasks, each with 3 pairs.
        let m = measure(&s);
        assert_eq!(m.total_pairs, 21);
        assert!((m.replication_factor - 3.0).abs() < 1e-9);
    }

    #[test]
    fn exact_plane_block_sizes_are_q_plus_1() {
        // v = 13 = 3² + 3 + 1: exact projective plane, all blocks k = 4.
        let s = DesignScheme::new(13);
        assert_eq!(s.order(), 3);
        let m = measure(&s);
        assert_eq!(m.max_working_set, 4);
        assert_eq!(m.min_working_set, 4);
    }

    #[test]
    fn truncated_plane_block_sizes_at_most_q_plus_1() {
        let s = DesignScheme::new(100); // q̂(9) = 91 < 100 ≤ 111 = q̂(10)?
        let m = measure(&s);
        assert!(m.max_working_set <= s.order() + 1);
        // Majority of blocks within 1 of each other (paper: "about the
        // same number of elements (with a difference of at most 1)").
        assert!(m.max_working_set - m.min_working_set <= s.order());
    }

    #[test]
    fn working_set_scales_as_sqrt_v() {
        for v in [50u64, 100, 200, 500] {
            let s = DesignScheme::new(v);
            let sqrt_v = (v as f64).sqrt();
            let m = measure(&s);
            assert!(
                (m.max_working_set as f64) < 2.5 * sqrt_v,
                "v={v}: ws {} vs √v {sqrt_v}",
                m.max_working_set
            );
        }
    }

    #[test]
    fn subsets_inverse_of_working_sets() {
        let s = DesignScheme::new(40);
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
    fn num_tasks_at_least_v_for_exact_planes() {
        // Paper: "because it is the same as the number of elements, no
        // scalability issues occur... p ≥ v > n" (for untruncated planes).
        let s = DesignScheme::new(13);
        assert!(s.num_tasks() >= 13);
    }

    #[test]
    fn metrics_match_table1_shape() {
        let s = DesignScheme::new(10_000);
        assert_eq!(s.order(), 101); // the paper's example
        let m = s.metrics(64);
        assert_eq!(m.replication_factor, 102.0);
        assert_eq!(m.working_set_size, 102);
        assert_eq!(m.evaluations_per_task, 5_151.0); // C(102, 2); ≈ (v−1)/2
                                                     // Communication capped at 2vn for few nodes.
        assert_eq!(m.communication_elements, 2 * 10_000 * 64);
        let m2 = s.metrics(1_000_000);
        assert_eq!(m2.communication_elements, (2.0 * 10_000.0f64 * 100.0) as u64);
    }
}
