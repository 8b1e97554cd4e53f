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

use crate::enumeration::{
    diag_count, diag_rank, diag_unrank, for_each_pair_rect, for_each_pair_triangle, pair_rank,
};
use crate::scheme::{DistributionScheme, SchemeMetrics};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockScheme {
    v: u64,
    h: u64,
    /// Edge length `e = ⌈v/h⌉`.
    e: u64,
}

impl BlockScheme {
    /// Creates a block scheme over `v` elements with blocking factor `h`
    /// (clamped to `v` so stripes are nonempty).
    pub fn new(v: u64, h: u64) -> BlockScheme {
        assert!(v >= 2, "need at least 2 elements");
        assert!(h >= 1, "blocking factor must be ≥ 1");
        let h = h.min(v);
        BlockScheme { v, h, e: v.div_ceil(h) }
    }

    /// The blocking factor `h`.
    pub fn blocking_factor(&self) -> u64 {
        self.h
    }

    /// The block edge length `e = ⌈v/h⌉`.
    pub fn edge(&self) -> u64 {
        self.e
    }

    /// The stripe (0-based) an element belongs to.
    #[inline]
    fn stripe_of(&self, element: u64) -> u64 {
        element / self.e
    }

    /// Element range of stripe `g`: `[g·e, min((g+1)·e, v))`.
    #[inline]
    fn stripe_range(&self, g: u64) -> std::ops::Range<u64> {
        (g * self.e).min(self.v)..((g + 1) * self.e).min(self.v)
    }

    /// The `(column-stripe, row-stripe)` position of a task (`I ≥ J`,
    /// 0-based; the paper's `(I(p), J(p))` shifted by one).
    pub fn position(&self, task: u64) -> (u64, u64) {
        diag_unrank(task)
    }

    /// The task id of the block at `(column-stripe, row-stripe)`.
    pub fn task_at(&self, col: u64, row: u64) -> u64 {
        diag_rank(col, row)
    }
}

impl DistributionScheme for BlockScheme {
    fn v(&self) -> u64 {
        self.v
    }

    fn num_tasks(&self) -> u64 {
        diag_count(self.h)
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        debug_assert!(element < self.v);
        let g = self.stripe_of(element);
        // Element in stripe g joins: blocks (g, j) for j ≤ g and blocks
        // (i, g) for i ≥ g — h tasks total (the diagonal block counted once).
        let mut tasks = Vec::with_capacity(self.h as usize);
        for j in 0..=g {
            tasks.push(diag_rank(g, j));
        }
        for i in g + 1..self.h {
            tasks.push(diag_rank(i, g));
        }
        tasks
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        let (i, j) = self.position(task);
        if i == j {
            self.stripe_range(i).collect()
        } else {
            // Row stripe (smaller indexes) then column stripe.
            self.stripe_range(j).chain(self.stripe_range(i)).collect()
        }
    }

    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        let (i, j) = self.position(task);
        let mut out = Vec::new();
        if i == j {
            let r = self.stripe_range(i);
            for a in r.clone() {
                for b in r.start..a {
                    out.push((a, b));
                }
            }
        } else {
            // Column stripe i holds the larger indexes: all cross pairs
            // already satisfy a > b.
            for a in self.stripe_range(i) {
                for b in self.stripe_range(j) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        let (i, j) = self.position(task);
        if i == j {
            for_each_pair_triangle(self.stripe_range(i), f);
        } else {
            for_each_pair_rect(self.stripe_range(i), self.stripe_range(j), f);
        }
    }

    fn num_pairs(&self, task: u64) -> u64 {
        let (i, j) = self.position(task);
        let span = |r: std::ops::Range<u64>| r.end - r.start;
        let ci = span(self.stripe_range(i));
        if i == j {
            ci * ci.saturating_sub(1) / 2
        } else {
            ci * span(self.stripe_range(j))
        }
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        debug_assert!(b < a && a < self.v);
        // `a > b` puts `a` in the column stripe, `b` in the row stripe.
        Some(diag_rank(self.stripe_of(a), self.stripe_of(b)))
    }

    fn name(&self) -> &'static str {
        "block"
    }

    fn metrics(&self, _n_nodes: u64) -> SchemeMetrics {
        SchemeMetrics {
            scheme: self.name(),
            num_tasks: diag_count(self.h),
            communication_elements: 2 * self.v * self.h,
            replication_factor: self.h as f64,
            working_set_size: 2 * self.e,
            evaluations_per_task: (self.e * self.e) as f64,
        }
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairedBlockScheme {
    inner: BlockScheme,
}

impl PairedBlockScheme {
    /// Creates the paired-diagonal variant with blocking factor `h`.
    pub fn new(v: u64, h: u64) -> PairedBlockScheme {
        PairedBlockScheme { inner: BlockScheme::new(v, h) }
    }

    /// The effective blocking factor.
    pub fn blocking_factor(&self) -> u64 {
        self.inner.h
    }

    /// The block edge length `e = ⌈v/h⌉`.
    pub fn edge(&self) -> u64 {
        self.inner.e
    }

    fn num_offdiag(&self) -> u64 {
        self.inner.h * (self.inner.h - 1) / 2
    }

    /// Splits a task id into `OffDiag(col, row)` or `DiagPair(first stripe)`.
    fn classify(&self, task: u64) -> PairedTask {
        let off = self.num_offdiag();
        if task < off {
            // Strict-triangle enumeration over (col, row), col > row:
            // rank = col(col−1)/2 + row.
            let (col, row) = crate::enumeration::pair_unrank(task);
            PairedTask::OffDiag { col, row }
        } else {
            PairedTask::DiagPair { first: 2 * (task - off) }
        }
    }
}

enum PairedTask {
    OffDiag { col: u64, row: u64 },
    DiagPair { first: u64 },
}

impl DistributionScheme for PairedBlockScheme {
    fn v(&self) -> u64 {
        self.inner.v
    }

    fn num_tasks(&self) -> u64 {
        self.num_offdiag() + self.inner.h.div_ceil(2)
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        debug_assert!(element < self.inner.v);
        let g = self.inner.stripe_of(element);
        let h = self.inner.h;
        let mut tasks = Vec::with_capacity(h as usize);
        // Off-diagonal blocks where g is the column stripe (g > j)…
        for j in 0..g {
            tasks.push(pair_rank(g, j));
        }
        // …or the row stripe (i > g).
        for i in g + 1..h {
            tasks.push(pair_rank(i, g));
        }
        // Plus the merged diagonal task containing stripe g.
        tasks.push(self.num_offdiag() + g / 2);
        tasks
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        match self.classify(task) {
            PairedTask::OffDiag { col, row } => {
                self.inner.stripe_range(row).chain(self.inner.stripe_range(col)).collect()
            }
            PairedTask::DiagPair { first } => {
                let mut ws: Vec<u64> = self.inner.stripe_range(first).collect();
                if first + 1 < self.inner.h {
                    ws.extend(self.inner.stripe_range(first + 1));
                }
                ws
            }
        }
    }

    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        match self.classify(task) {
            PairedTask::OffDiag { col, row } => {
                let mut out = Vec::new();
                for a in self.inner.stripe_range(col) {
                    for b in self.inner.stripe_range(row) {
                        out.push((a, b));
                    }
                }
                out
            }
            PairedTask::DiagPair { first } => {
                let mut out = Vec::new();
                let mut triangle = |g: u64| {
                    let r = self.inner.stripe_range(g);
                    for a in r.clone() {
                        for b in r.start..a {
                            out.push((a, b));
                        }
                    }
                };
                triangle(first);
                if first + 1 < self.inner.h {
                    triangle(first + 1);
                }
                out
            }
        }
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        match self.classify(task) {
            PairedTask::OffDiag { col, row } => {
                for_each_pair_rect(self.inner.stripe_range(col), self.inner.stripe_range(row), f);
            }
            PairedTask::DiagPair { first } => {
                for_each_pair_triangle(self.inner.stripe_range(first), f);
                if first + 1 < self.inner.h {
                    for_each_pair_triangle(self.inner.stripe_range(first + 1), f);
                }
            }
        }
    }

    fn num_pairs(&self, task: u64) -> u64 {
        let span = |r: std::ops::Range<u64>| r.end - r.start;
        match self.classify(task) {
            PairedTask::OffDiag { col, row } => {
                span(self.inner.stripe_range(col)) * span(self.inner.stripe_range(row))
            }
            PairedTask::DiagPair { first } => {
                let tri = |g: u64| {
                    let c = span(self.inner.stripe_range(g));
                    c * c.saturating_sub(1) / 2
                };
                tri(first) + if first + 1 < self.inner.h { tri(first + 1) } else { 0 }
            }
        }
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        debug_assert!(b < a && a < self.inner.v);
        let (col, row) = (self.inner.stripe_of(a), self.inner.stripe_of(b));
        Some(if col == row { self.num_offdiag() + col / 2 } else { pair_rank(col, row) })
    }

    fn name(&self) -> &'static str {
        "block-paired-diagonal"
    }

    fn metrics(&self, _n_nodes: u64) -> SchemeMetrics {
        let e = self.inner.e;
        SchemeMetrics {
            scheme: self.name(),
            num_tasks: self.num_tasks(),
            communication_elements: 2 * self.inner.v * self.inner.h,
            replication_factor: self.inner.h as f64,
            working_set_size: 2 * e,
            evaluations_per_task: (e * e) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::pair_count;
    use crate::scheme::{measure, verify_exactly_once};

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
