//! Hierarchical (two-level) distribution schemes — the paper's §7 outlook,
//! implemented.
//!
//! *"For the block approach, e.g., it is possible to build coarse-grained
//! blocks and to process them sequentially. Each of these first level blocks
//! is processed in parallel by building fine-grained second level blocks…
//! Each block is aggregated before the next one is processed. This method
//! eases both limits."*
//!
//! [`TwoLevelBlock`] realizes exactly that: the coarse tiling yields
//! *rounds* processed one after another; within a round, a fine tiling
//! yields the parallel tasks. Working sets shrink with the fine factor
//! while materialized intermediate data is bounded by one round's
//! replication instead of the whole dataset's.
//!
//! [`BatchedDesign`] realizes the design-scheme variant: *"it is similarly
//! possible to process and aggregate subsets of all blocks sequentially,
//! which reduces the requirements for intermediate storage."*

use std::sync::Arc;

use crate::enumeration::{
    diag_count, diag_rank, diag_unrank, for_each_pair_rect, for_each_pair_triangle, pair_count,
};
use crate::scheme::{DesignScheme, DistributionScheme, SchemeMetrics};

// ---------------------------------------------------------------------------
// Round building blocks
// ---------------------------------------------------------------------------

/// A block-scheme round over a contiguous element range
/// `[base, base + len)` — the fine tiling of a coarse *diagonal* block.
#[derive(Debug, Clone)]
pub struct SubsetBlockScheme {
    v: u64,
    base: u64,
    len: u64,
    h: u64,
    e: u64,
}

impl SubsetBlockScheme {
    /// Fine-tiles the strict upper triangle of `[base, base+len)` with
    /// factor `h`. `v` is the *global* element count (ids stay global).
    pub fn new(v: u64, base: u64, len: u64, h: u64) -> SubsetBlockScheme {
        assert!(base + len <= v);
        let h = h.clamp(1, len.max(1));
        SubsetBlockScheme { v, base, len, h, e: len.div_ceil(h).max(1) }
    }

    fn stripe(&self, g: u64) -> std::ops::Range<u64> {
        let s = self.base + (g * self.e).min(self.len);
        let e = self.base + ((g + 1) * self.e).min(self.len);
        s..e
    }
}

impl DistributionScheme for SubsetBlockScheme {
    fn v(&self) -> u64 {
        self.v
    }

    fn num_tasks(&self) -> u64 {
        diag_count(self.h)
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        if element < self.base || element >= self.base + self.len {
            return Vec::new();
        }
        let g = (element - self.base) / self.e;
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
        let (i, j) = diag_unrank(task);
        if i == j {
            self.stripe(i).collect()
        } else {
            self.stripe(j).chain(self.stripe(i)).collect()
        }
    }

    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        let (i, j) = diag_unrank(task);
        let mut out = Vec::new();
        if i == j {
            let r = self.stripe(i);
            for a in r.clone() {
                for b in r.start..a {
                    out.push((a, b));
                }
            }
        } else {
            for a in self.stripe(i) {
                for b in self.stripe(j) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        let (i, j) = diag_unrank(task);
        if i == j {
            for_each_pair_triangle(self.stripe(i), f);
        } else {
            for_each_pair_rect(self.stripe(i), self.stripe(j), f);
        }
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        let range = self.base..self.base + self.len;
        (range.contains(&a) && range.contains(&b))
            .then(|| diag_rank((a - self.base) / self.e, (b - self.base) / self.e))
    }

    fn name(&self) -> &'static str {
        "two-level-block/diagonal-round"
    }

    fn metrics(&self, _n: u64) -> SchemeMetrics {
        SchemeMetrics {
            scheme: self.name(),
            num_tasks: self.num_tasks(),
            communication_elements: 2 * self.len * self.h,
            replication_factor: self.h as f64,
            working_set_size: 2 * self.e,
            evaluations_per_task: (self.e * self.e) as f64,
        }
    }
}

/// A grid round over two disjoint contiguous ranges — the fine tiling of a
/// coarse *off-diagonal* block (a bipartite rectangle of pairs).
#[derive(Debug, Clone)]
pub struct BipartiteGridScheme {
    v: u64,
    row_base: u64,
    row_len: u64,
    col_base: u64,
    col_len: u64,
    /// Fine grid factor: the rectangle is tiled `f × f`.
    f: u64,
    re: u64,
    ce: u64,
}

impl BipartiteGridScheme {
    /// Tiles `cols × rows` (all `col > row` element pairs) into an `f × f`
    /// grid. Requires `col_base ≥ row_base + row_len` so every cross pair
    /// satisfies `a > b`.
    pub fn new(
        v: u64,
        row_base: u64,
        row_len: u64,
        col_base: u64,
        col_len: u64,
        f: u64,
    ) -> BipartiteGridScheme {
        assert!(col_base >= row_base + row_len, "ranges must be disjoint and ordered");
        assert!(col_base + col_len <= v && row_base + row_len <= v);
        let f = f.clamp(1, row_len.max(col_len).max(1));
        BipartiteGridScheme {
            v,
            row_base,
            row_len,
            col_base,
            col_len,
            f,
            re: row_len.div_ceil(f).max(1),
            ce: col_len.div_ceil(f).max(1),
        }
    }

    fn row_tile(&self, y: u64) -> std::ops::Range<u64> {
        let s = self.row_base + (y * self.re).min(self.row_len);
        let e = self.row_base + ((y + 1) * self.re).min(self.row_len);
        s..e
    }

    fn col_tile(&self, x: u64) -> std::ops::Range<u64> {
        let s = self.col_base + (x * self.ce).min(self.col_len);
        let e = self.col_base + ((x + 1) * self.ce).min(self.col_len);
        s..e
    }
}

impl DistributionScheme for BipartiteGridScheme {
    fn v(&self) -> u64 {
        self.v
    }

    fn num_tasks(&self) -> u64 {
        self.f * self.f
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        if element >= self.row_base && element < self.row_base + self.row_len {
            let y = (element - self.row_base) / self.re;
            (0..self.f).map(|x| x * self.f + y).collect()
        } else if element >= self.col_base && element < self.col_base + self.col_len {
            let x = (element - self.col_base) / self.ce;
            (0..self.f).map(|y| x * self.f + y).collect()
        } else {
            Vec::new()
        }
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        let (x, y) = (task / self.f, task % self.f);
        self.row_tile(y).chain(self.col_tile(x)).collect()
    }

    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        let (x, y) = (task / self.f, task % self.f);
        let mut out = Vec::new();
        for a in self.col_tile(x) {
            for b in self.row_tile(y) {
                out.push((a, b));
            }
        }
        out
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        let (x, y) = (task / self.f, task % self.f);
        for_each_pair_rect(self.col_tile(x), self.row_tile(y), f);
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        let cols = self.col_base..self.col_base + self.col_len;
        let rows = self.row_base..self.row_base + self.row_len;
        (cols.contains(&a) && rows.contains(&b))
            .then(|| (a - self.col_base) / self.ce * self.f + (b - self.row_base) / self.re)
    }

    fn name(&self) -> &'static str {
        "two-level-block/grid-round"
    }

    fn metrics(&self, _n: u64) -> SchemeMetrics {
        SchemeMetrics {
            scheme: self.name(),
            num_tasks: self.num_tasks(),
            communication_elements: (self.row_len + self.col_len) * self.f * 2,
            replication_factor: self.f as f64,
            working_set_size: self.re + self.ce,
            evaluations_per_task: (self.re * self.ce) as f64,
        }
    }
}

/// A sequential *slice* of another scheme's tasks (for processing "subsets
/// of all blocks sequentially").
#[derive(Clone)]
pub struct TaskSliceScheme {
    inner: Arc<dyn DistributionScheme>,
    tasks: Vec<u64>,
}

impl TaskSliceScheme {
    /// Wraps the given task ids of `inner`, strictly ascending, as a
    /// standalone round.
    pub fn new(inner: Arc<dyn DistributionScheme>, tasks: Vec<u64>) -> TaskSliceScheme {
        assert!(tasks.windows(2).all(|w| w[0] < w[1]), "slice tasks must be strictly ascending");
        TaskSliceScheme { inner, tasks }
    }
}

impl DistributionScheme for TaskSliceScheme {
    fn v(&self) -> u64 {
        self.inner.v()
    }

    fn num_tasks(&self) -> u64 {
        self.tasks.len() as u64
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        let inner = self.inner.subsets_of(element);
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| inner.contains(t))
            .map(|(i, _)| i as u64)
            .collect()
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        self.inner.working_set(self.tasks[task as usize])
    }

    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        self.inner.pairs(self.tasks[task as usize])
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        self.inner.for_each_pair(self.tasks[task as usize], f);
    }

    fn num_pairs(&self, task: u64) -> u64 {
        self.inner.num_pairs(self.tasks[task as usize])
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        let owner = self.inner.owner_of(a, b)?;
        self.tasks.binary_search(&owner).ok().map(|slot| slot as u64)
    }

    fn name(&self) -> &'static str {
        "task-slice"
    }

    fn metrics(&self, n: u64) -> SchemeMetrics {
        let mut m = self.inner.metrics(n);
        m.num_tasks = self.tasks.len() as u64;
        m
    }
}

// ---------------------------------------------------------------------------
// Two-level block scheme
// ---------------------------------------------------------------------------

/// The §7 two-level block scheme: `coarse(coarse+1)/2` sequential rounds,
/// each fine-tiled into parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelBlock {
    /// Element count.
    pub v: u64,
    /// Coarse (first-level, sequential) blocking factor `H`.
    pub coarse: u64,
    /// Fine (second-level, parallel) factor applied inside each round.
    pub fine: u64,
}

impl TwoLevelBlock {
    /// Creates the two-level scheme.
    pub fn new(v: u64, coarse: u64, fine: u64) -> TwoLevelBlock {
        assert!(v >= 2 && coarse >= 1 && fine >= 1);
        TwoLevelBlock { v, coarse: coarse.min(v), fine }
    }

    /// Coarse stripe width `E = ⌈v/H⌉`.
    pub fn coarse_edge(&self) -> u64 {
        self.v.div_ceil(self.coarse)
    }

    /// Number of sequential rounds, `H(H+1)/2`.
    pub fn num_rounds(&self) -> u64 {
        diag_count(self.coarse)
    }

    /// Builds round `r` as a standalone scheme over global element ids.
    pub fn round(&self, r: u64) -> Box<dyn DistributionScheme> {
        let e = self.coarse_edge();
        let (i, j) = diag_unrank(r);
        let sbase = (j * e).min(self.v);
        let slen = ((j + 1) * e).min(self.v) - sbase;
        if i == j {
            Box::new(SubsetBlockScheme::new(self.v, sbase, slen, self.fine))
        } else {
            let cbase = (i * e).min(self.v);
            let clen = ((i + 1) * e).min(self.v) - cbase;
            Box::new(BipartiteGridScheme::new(self.v, sbase, slen, cbase, clen, self.fine))
        }
    }

    /// All rounds.
    pub fn rounds(&self) -> Vec<Box<dyn DistributionScheme>> {
        (0..self.num_rounds()).map(|r| self.round(r)).collect()
    }

    /// Upper bound on any task's working set, in elements:
    /// `2⌈E/fine⌉` (the §7 claim that the working-set limit is eased).
    pub fn max_working_set(&self) -> u64 {
        2 * self.coarse_edge().div_ceil(self.fine)
    }

    /// Upper bound on element copies materialized in any single round:
    /// `2E · fine` (the §7 claim that the intermediate-storage limit is
    /// eased — compare a flat block scheme's `v · h`).
    pub fn max_round_copies(&self) -> u64 {
        2 * self.coarse_edge() * self.fine
    }
}

/// The §7 batched-design scheme: the design's blocks processed in
/// `batches` sequential slices.
pub struct BatchedDesign {
    inner: Arc<DesignScheme>,
    batches: u64,
}

impl BatchedDesign {
    /// Splits the design scheme for `v` elements into `batches` rounds.
    pub fn new(v: u64, batches: u64) -> BatchedDesign {
        assert!(batches >= 1);
        BatchedDesign { inner: Arc::new(DesignScheme::new(v)), batches }
    }

    /// The underlying design scheme.
    pub fn design_scheme(&self) -> &DesignScheme {
        &self.inner
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> u64 {
        self.batches.min(self.inner.num_tasks().max(1))
    }

    /// Builds round `r`: a contiguous slice of the design's blocks.
    pub fn round(&self, r: u64) -> TaskSliceScheme {
        let total = self.inner.num_tasks();
        let rounds = self.num_rounds();
        let per = total.div_ceil(rounds);
        let start = (r * per).min(total);
        let end = ((r + 1) * per).min(total);
        TaskSliceScheme::new(
            Arc::clone(&self.inner) as Arc<dyn DistributionScheme>,
            (start..end).collect(),
        )
    }

    /// All rounds.
    pub fn rounds(&self) -> Vec<TaskSliceScheme> {
        (0..self.num_rounds()).map(|r| self.round(r)).collect()
    }
}

/// Verifies that a set of rounds jointly covers every pair of `0..v`
/// exactly once (the hierarchical analogue of
/// [`crate::scheme::verify_exactly_once`]).
pub fn verify_rounds_exactly_once(
    rounds: &[Box<dyn DistributionScheme>],
    v: u64,
) -> Result<(), crate::scheme::SchemeError> {
    let total = pair_count(v);
    let mut cover = vec![0u8; total as usize];
    for round in rounds {
        for t in 0..round.num_tasks() {
            let ws = round.working_set(t);
            for (a, b) in round.pairs(t) {
                if a <= b || a >= v {
                    return Err(crate::scheme::SchemeError::MalformedPair {
                        task: t,
                        pair: (a, b),
                    });
                }
                if ws.binary_search(&a).is_err() || ws.binary_search(&b).is_err() {
                    return Err(crate::scheme::SchemeError::PairOutsideWorkingSet {
                        task: t,
                        pair: (a, b),
                    });
                }
                let r = crate::enumeration::pair_rank(a, b) as usize;
                cover[r] = cover[r].saturating_add(1);
            }
        }
    }
    for (r, &c) in cover.iter().enumerate() {
        if c != 1 {
            let (a, b) = crate::enumeration::pair_unrank(r as u64);
            return Err(crate::scheme::SchemeError::Coverage { a, b, count: c as u64 });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::measure;
    use crate::scheme::tests::owner_of_is_the_enumeration;
    use proptest::prelude::*;

    #[test]
    fn two_level_rounds_cover_exactly_once() {
        for (v, coarse, fine) in
            [(20u64, 2u64, 2u64), (30, 3, 2), (31, 3, 3), (40, 4, 5), (17, 5, 2), (12, 1, 3)]
        {
            let tlb = TwoLevelBlock::new(v, coarse, fine);
            let rounds = tlb.rounds();
            assert_eq!(rounds.len() as u64, tlb.num_rounds());
            verify_rounds_exactly_once(&rounds, v)
                .unwrap_or_else(|e| panic!("v={v} H={coarse} f={fine}: {e:?}"));
        }
    }

    #[test]
    fn two_level_working_sets_bounded() {
        let tlb = TwoLevelBlock::new(100, 4, 5);
        for round in tlb.rounds() {
            let m = measure(round.as_ref());
            assert!(
                m.max_working_set <= tlb.max_working_set(),
                "round ws {} > bound {}",
                m.max_working_set,
                tlb.max_working_set()
            );
            assert!(m.total_copies <= tlb.max_round_copies());
        }
    }

    #[test]
    fn two_level_eases_both_limits_vs_flat() {
        // Flat block scheme with the same parallelism (h = H·f tasks-ish):
        // compare bounds. Two-level with (H=4, f=4) has ws 2⌈(v/4)/4⌉ =
        // 2⌈v/16⌉, same as flat h=16, but per-round copies 2(v/4)·4 = 2v
        // instead of the flat scheme's 16v materialized at once.
        let v = 160u64;
        let tlb = TwoLevelBlock::new(v, 4, 4);
        let flat = crate::scheme::BlockScheme::new(v, 16);
        assert_eq!(tlb.max_working_set(), flat.metrics(4).working_set_size);
        let flat_copies: u64 = measure(&flat).total_copies;
        assert!(
            tlb.max_round_copies() * 2 < flat_copies,
            "round copies {} vs flat {}",
            tlb.max_round_copies(),
            flat_copies
        );
    }

    #[test]
    fn batched_design_rounds_cover_exactly_once() {
        for (v, batches) in [(13u64, 3u64), (31, 4), (40, 7), (57, 1)] {
            let bd = BatchedDesign::new(v, batches);
            let rounds: Vec<Box<dyn DistributionScheme>> = (0..bd.num_rounds())
                .map(|r| Box::new(bd.round(r)) as Box<dyn DistributionScheme>)
                .collect();
            verify_rounds_exactly_once(&rounds, v)
                .unwrap_or_else(|e| panic!("v={v} batches={batches}: {e:?}"));
        }
    }

    #[test]
    fn batched_design_reduces_per_round_copies() {
        let v = 57u64;
        let bd = BatchedDesign::new(v, 6);
        let full_copies = measure(bd.design_scheme()).total_copies;
        for r in 0..bd.num_rounds() {
            let round = bd.round(r);
            let copies = measure(&round).total_copies;
            assert!(copies < full_copies, "round {r}: {copies} vs {full_copies}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every round scheme — both two-level round kinds, a batched
        /// design round, a slice of a two-level round — owns exactly the
        /// pairs its tasks enumerate and answers `None` for the rest.
        #[test]
        fn round_owner_of_is_some_exactly_on_the_round(
            v in 2u64..160,
            coarse in 1u64..5,
            fine in 1u64..4,
            batches in 1u64..5,
        ) {
            let tlb = TwoLevelBlock::new(v, coarse, fine);
            let mut rounds = tlb.rounds();
            let bd = BatchedDesign::new(v, batches);
            rounds.extend(bd.rounds().into_iter().map(|r| Box::new(r) as Box<dyn DistributionScheme>));
            let last: Arc<dyn DistributionScheme> = Arc::from(tlb.round(tlb.num_rounds() - 1));
            let odd = (0..last.num_tasks()).filter(|t| t % 2 == 1).collect();
            rounds.push(Box::new(TaskSliceScheme::new(last, odd)));
            for round in &rounds {
                prop_assert_eq!(owner_of_is_the_enumeration(round.as_ref()), Ok(()));
            }
        }
    }

    #[test]
    fn task_slice_subsets_consistent() {
        let bd = BatchedDesign::new(31, 3);
        let round = bd.round(1);
        for e in 0..31u64 {
            for t in round.subsets_of(e) {
                assert!(round.working_set(t).contains(&e));
            }
        }
    }
}
