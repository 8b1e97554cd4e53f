//! The block distribution scheme (paper §5.2).
//!
//! The pair matrix's upper triangle is tiled with `e × e` blocks,
//! `e = ⌈v/h⌉` for a *blocking factor* `h`. Block `p` sits at column-stripe
//! `I` and row-stripe `J` (`J ≤ I`, Figure 6); its working set is the union
//! of the two stripes `D_p = R_p ∪ C_p`; off-diagonal blocks evaluate the
//! full cross product, diagonal blocks the strict upper triangle.
//!
//! Table-1 characteristics: `h(h+1)/2` tasks, working sets of `≤ 2e`
//! elements, each element in `h` blocks, at most `e²` evaluations per task.
//!
//! As [`PairCover`]s the stripes are the groups: [`Blocks`] makes each cell
//! of the stripe triangle a line and [`PairedBlocks`] merges neighbouring
//! diagonal cells. The two-level rounds of [`crate::hierarchical`] are
//! batches of a [`BlockScheme`]'s lines.

use std::ops::Range;

use crate::enumeration::{diag_count, diag_rank, diag_unrank, pair_rank, pair_unrank};
use crate::scheme::{GroupedScheme, PairCover, Shape};

/// `n` contiguous stripes of `e` elements over `0..len`; the trailing
/// stripes may be short or empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stripes {
    len: u64,
    /// Number of stripes, clamped to `1..=len` so stripes are nonempty.
    n: u64,
    /// Stripe width `e = ⌈len/n⌉`.
    e: u64,
}

impl Stripes {
    fn new(len: u64, n: u64) -> Stripes {
        let n = n.clamp(1, len.max(1));
        Stripes { len, n, e: len.div_ceil(n).max(1) }
    }

    fn range(&self, g: u64) -> Range<u64> {
        (g * self.e).min(self.len)..((g + 1) * self.e).min(self.len)
    }

    fn of(&self, x: u64) -> Option<u64> {
        (x < self.len).then(|| x / self.e)
    }

    /// The shape of a block cover with `lines` lines over these stripes.
    fn shape(&self, scheme: &'static str, lines: u64) -> Shape {
        Shape {
            scheme,
            lines,
            replication: self.n,
            working_set: 2 * self.e,
            pairs_per_line: (self.e * self.e) as f64,
            communication: 2 * self.len * self.n,
            node_cap: None,
        }
    }
}

/// Block scheme with blocking factor `h`.
///
/// ```
/// use pmr_core::scheme::{BlockScheme, DistributionScheme};
///
/// let s = BlockScheme::new(15, 3);        // the paper's Figure 6: e = 5
/// assert_eq!(s.num_tasks(), 6);           // h(h+1)/2
/// assert_eq!(s.subsets_of(7).len(), 3);   // every element in h blocks
/// assert!(s.working_set(1).len() <= 10);  // ≤ 2e elements
/// ```
pub type BlockScheme = GroupedScheme<Blocks>;

/// The block cover: stripes are the groups, and each cell `(I, J)`, `I ≥ J`,
/// of the stripe triangle is a line owning that one stripe pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocks {
    stripes: Stripes,
}

impl BlockScheme {
    /// Creates a block scheme over `v` elements with blocking factor `h`
    /// (clamped to `v` so stripes are nonempty).
    pub fn new(v: u64, h: u64) -> BlockScheme {
        assert!(v >= 2, "need at least 2 elements");
        assert!(h >= 1, "blocking factor must be ≥ 1");
        GroupedScheme { v, cover: Blocks { stripes: Stripes::new(v, h) } }
    }

    /// The closed form of `BlockScheme::new(v, h)`: `h(h+1)/2` lines,
    /// replication `h`, working sets of `2⌈v/h⌉`, `⌈v/h⌉²` pairs per line
    /// and `2vh` sends, with `h` clamped to `v` as the scheme clamps it.
    pub fn shape(v: u64, h: u64) -> Shape {
        Blocks { stripes: Stripes::new(v, h) }.shape()
    }

    /// The blocking factor `h`.
    pub fn blocking_factor(&self) -> u64 {
        self.cover.stripes.n
    }

    /// The block edge length `e = ⌈v/h⌉`.
    pub fn edge(&self) -> u64 {
        self.cover.stripes.e
    }

    /// The `(column-stripe, row-stripe)` position of a task (`I ≥ J`,
    /// 0-based; the paper's `(I(p), J(p))` shifted by one).
    pub fn position(&self, task: u64) -> (u64, u64) {
        diag_unrank(task)
    }
}

impl PairCover for Blocks {
    fn group(&self, g: u64) -> Range<u64> {
        self.stripes.range(g)
    }

    fn group_of(&self, e: u64) -> Option<u64> {
        self.stripes.of(e)
    }

    fn groups_on(&self, line: u64) -> Vec<u64> {
        let (i, j) = diag_unrank(line);
        // Row stripe (smaller indexes) then column stripe.
        if i == j {
            vec![i]
        } else {
            vec![j, i]
        }
    }

    fn lines_through(&self, g: u64) -> Vec<u64> {
        // Blocks (g, j) for j ≤ g and (i, g) for i > g: h lines, the
        // diagonal block counted once.
        (0..=g)
            .map(|j| diag_rank(g, j))
            .chain((g + 1..self.stripes.n).map(|i| diag_rank(i, g)))
            .collect()
    }

    fn for_each_owned(&self, line: u64, mut f: impl FnMut(u64, u64)) {
        let (i, j) = diag_unrank(line);
        f(i, j);
    }

    fn owner(&self, g: u64, h: u64) -> Option<u64> {
        Some(diag_rank(g, h))
    }

    fn shape(&self) -> Shape {
        self.stripes.shape("block", diag_count(self.stripes.n))
    }
}

/// Block scheme with **paired diagonal blocks** — the paper's §5.2 remark
/// that a diagonal block evaluates "only about half of the pairs", so the
/// working-set bound `2e` (and replication `h`) also holds "if always two
/// such diagonal blocks are processed together".
///
/// Off-diagonal blocks are unchanged; diagonal blocks `(g, g)` and
/// `(g+1, g+1)` merge into one task holding both stripes and evaluating
/// both strict triangles (their cross pairs belong to the off-diagonal
/// block `(g+1, g)`). Task count drops from `h(h+1)/2` to
/// `h(h−1)/2 + ⌈h/2⌉` and diagonal tasks carry `e(e−1)` evaluations —
/// comparable to the `e²` of off-diagonal tasks, improving balance.
pub type PairedBlockScheme = GroupedScheme<PairedBlocks>;

/// The paired-diagonal cover: lines `0..h(h−1)/2` are the off-diagonal
/// cells in strict-triangle order, the rest own two diagonals each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairedBlocks {
    stripes: Stripes,
}

impl PairedBlockScheme {
    /// Creates the paired-diagonal variant with blocking factor `h`.
    pub fn new(v: u64, h: u64) -> PairedBlockScheme {
        let Blocks { stripes } = BlockScheme::new(v, h).cover;
        GroupedScheme { v, cover: PairedBlocks { stripes } }
    }

    /// The effective blocking factor.
    pub fn blocking_factor(&self) -> u64 {
        self.cover.stripes.n
    }

    /// The block edge length `e = ⌈v/h⌉`.
    pub fn edge(&self) -> u64 {
        self.cover.stripes.e
    }
}

impl PairedBlocks {
    fn num_offdiag(&self) -> u64 {
        self.stripes.n * (self.stripes.n - 1) / 2
    }

    /// The diagonals a merged line owns: `first` and, unless it is the
    /// last stripe, `first + 1`.
    fn diagonals(&self, line: u64) -> Range<u64> {
        let first = 2 * (line - self.num_offdiag());
        first..(first + 2).min(self.stripes.n)
    }
}

impl PairCover for PairedBlocks {
    fn group(&self, g: u64) -> Range<u64> {
        self.stripes.range(g)
    }

    fn group_of(&self, e: u64) -> Option<u64> {
        self.stripes.of(e)
    }

    fn groups_on(&self, line: u64) -> Vec<u64> {
        if line < self.num_offdiag() {
            let (col, row) = pair_unrank(line);
            vec![row, col]
        } else {
            self.diagonals(line).collect()
        }
    }

    fn lines_through(&self, g: u64) -> Vec<u64> {
        // Off-diagonal cells with g as column or row stripe, then the
        // merged diagonal line holding stripe g.
        (0..g)
            .map(|j| pair_rank(g, j))
            .chain((g + 1..self.stripes.n).map(|i| pair_rank(i, g)))
            .chain([self.num_offdiag() + g / 2])
            .collect()
    }

    fn for_each_owned(&self, line: u64, mut f: impl FnMut(u64, u64)) {
        if line < self.num_offdiag() {
            let (col, row) = pair_unrank(line);
            f(col, row);
        } else {
            self.diagonals(line).for_each(|g| f(g, g));
        }
    }

    fn owner(&self, g: u64, h: u64) -> Option<u64> {
        Some(if g == h { self.num_offdiag() + g / 2 } else { pair_rank(g, h) })
    }

    fn shape(&self) -> Shape {
        let lines = self.num_offdiag() + self.stripes.n.div_ceil(2);
        self.stripes.shape("block-paired-diagonal", lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::pair_count;
    use crate::scheme::{measure, verify_exactly_once, DistributionScheme};

    #[test]
    fn figure6_layout() {
        // Paper Figure 6: v = 15, h = 3, e = 5; block p=2 (1-based) is at
        // (I, J) = (2, 1): columns 6–10, rows 1–5.
        let s = BlockScheme::new(15, 3);
        assert_eq!(s.edge(), 5);
        assert_eq!(s.num_tasks(), 6);
        // 0-based task 1 = the paper's p=2.
        let (i, j) = s.position(1);
        assert_eq!((i, j), (1, 0));
        let ws = s.working_set(1);
        // R₂ = rows 1..5 (0-based 0..4), C₂ = columns 6..10 (0-based 5..9).
        assert_eq!(ws, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(s.num_pairs(1), 25);
        // Diagonal block p=1 evaluates only the strict triangle.
        assert_eq!(s.num_pairs(0), 10);
    }

    #[test]
    fn covers_every_pair_exactly_once() {
        for (v, h) in [(2u64, 1u64), (7, 2), (15, 3), (16, 3), (17, 4), (40, 5), (41, 7), (9, 9)] {
            let s = BlockScheme::new(v, h);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v} h={h}: {e:?}"));
        }
    }

    #[test]
    fn replication_factor_is_h() {
        let s = BlockScheme::new(40, 5);
        for e in 0..40u64 {
            assert_eq!(s.subsets_of(e).len(), 5, "element {e}");
        }
        let m = measure(&s);
        assert!((m.replication_factor - 5.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_at_most_2e() {
        for (v, h) in [(100u64, 7u64), (101, 7), (99, 10)] {
            let s = BlockScheme::new(v, h);
            let m = measure(&s);
            assert!(m.max_working_set <= 2 * s.edge(), "v={v} h={h}");
            assert_eq!(m.total_pairs, pair_count(v));
        }
    }

    #[test]
    fn evaluations_at_most_e_squared() {
        let s = BlockScheme::new(33, 4);
        let m = measure(&s);
        assert!(m.max_evaluations <= s.edge() * s.edge());
    }

    #[test]
    fn subsets_and_working_sets_consistent() {
        let s = BlockScheme::new(23, 4);
        for e in 0..23u64 {
            for t in s.subsets_of(e) {
                assert!(s.working_set(t).contains(&e), "element {e} task {t}");
            }
        }
        for t in 0..s.num_tasks() {
            for e in s.working_set(t) {
                assert!(s.subsets_of(e).contains(&t), "task {t} element {e}");
            }
        }
    }

    #[test]
    fn h_equals_one_is_trivial_solution() {
        // The paper's trivial solution: b = 1, D₁ = S.
        let s = BlockScheme::new(10, 1);
        assert_eq!(s.num_tasks(), 1);
        assert_eq!(s.working_set(0), (0..10).collect::<Vec<_>>());
        verify_exactly_once(&s).unwrap();
    }

    #[test]
    fn h_larger_than_v_is_clamped() {
        let s = BlockScheme::new(5, 100);
        assert_eq!(s.blocking_factor(), 5);
        verify_exactly_once(&s).unwrap();
    }

    #[test]
    fn metrics_match_table1() {
        let s = BlockScheme::new(1000, 10);
        let m = s.metrics(8);
        assert_eq!(m.num_tasks, 55);
        assert_eq!(m.communication_elements, 2 * 1000 * 10);
        assert_eq!(m.replication_factor, 10.0);
        assert_eq!(m.working_set_size, 200);
        assert_eq!(m.evaluations_per_task, 10_000.0);
    }

    #[test]
    fn paired_covers_every_pair_exactly_once() {
        for (v, h) in [(2u64, 1u64), (7, 2), (15, 3), (16, 3), (17, 4), (40, 5), (41, 7), (9, 9)] {
            let s = PairedBlockScheme::new(v, h);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v} h={h}: {e:?}"));
        }
    }

    #[test]
    fn paired_replication_still_h() {
        // The paper's claim: pairing diagonal blocks keeps replication h.
        let s = PairedBlockScheme::new(40, 5);
        for e in 0..40u64 {
            assert_eq!(s.subsets_of(e).len(), 5, "element {e}");
        }
    }

    #[test]
    fn paired_has_fewer_tasks_than_plain() {
        let plain = BlockScheme::new(100, 8);
        let paired = PairedBlockScheme::new(100, 8);
        // h(h+1)/2 = 36 vs h(h−1)/2 + ⌈h/2⌉ = 28 + 4 = 32.
        assert_eq!(plain.num_tasks(), 36);
        assert_eq!(paired.num_tasks(), 32);
        assert_eq!(measure(&paired).total_pairs, pair_count(100));
    }

    #[test]
    fn paired_working_set_still_2e() {
        for (v, h) in [(100u64, 7u64), (101, 7), (64, 8)] {
            let s = PairedBlockScheme::new(v, h);
            let m = measure(&s);
            assert!(m.max_working_set <= 2 * s.edge(), "v={v} h={h}");
            assert!(m.max_evaluations <= s.edge() * s.edge());
        }
    }

    #[test]
    fn paired_improves_balance_over_plain() {
        // Diagonal tasks of the plain scheme do only e(e−1)/2 evaluations;
        // merged pairs do e(e−1) — closer to the off-diagonal e².
        let plain = measure(&BlockScheme::new(120, 6));
        let paired = measure(&PairedBlockScheme::new(120, 6));
        let spread = |m: &crate::scheme::MeasuredMetrics| {
            m.max_evaluations as f64 / m.min_evaluations.max(1) as f64
        };
        assert!(
            spread(&paired) < spread(&plain),
            "paired {:?} vs plain {:?}",
            (paired.min_evaluations, paired.max_evaluations),
            (plain.min_evaluations, plain.max_evaluations)
        );
    }

    #[test]
    fn paired_h1_single_task() {
        let s = PairedBlockScheme::new(10, 1);
        assert_eq!(s.num_tasks(), 1);
        verify_exactly_once(&s).unwrap();
    }
}
