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
//! replication instead of the whole dataset's. Both kinds of round are
//! [`GroupedScheme`]s: a diagonal round is the block cover of one coarse
//! stripe, an off-diagonal round an `f × f` grid over two.
//!
//! [`BatchedDesign`] realizes the design-scheme variant: *"it is similarly
//! possible to process and aggregate subsets of all blocks sequentially,
//! which reduces the requirements for intermediate storage."*

use std::sync::Arc;

use crate::enumeration::{diag_count, diag_unrank};
use crate::scheme::block::{Blocks, Grid, Stripes};
use crate::scheme::{DesignScheme, DistributionScheme, GroupedScheme, SchemeError, Shape};

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

    fn shape(&self) -> Shape {
        Shape { lines: self.tasks.len() as u64, ..self.inner.shape() }
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

    /// Builds round `r` as a standalone scheme over global element ids: a
    /// coarse diagonal block is fine-tiled as a block scheme over its
    /// stripe, an off-diagonal one as an `f × f` grid.
    pub fn round(&self, r: u64) -> Box<dyn DistributionScheme> {
        let coarse = Stripes::new(0..self.v, self.coarse);
        let (i, j) = diag_unrank(r);
        if i == j {
            let name = "two-level-block/diagonal-round";
            let cover = Blocks::over(coarse.range(j), self.fine, name);
            Box::new(GroupedScheme { v: self.v, cover })
        } else {
            let cover = Grid::over(coarse.range(j), coarse.range(i), self.fine);
            Box::new(GroupedScheme { v: self.v, cover })
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
/// [`crate::scheme::verify_exactly_once`], over the same stream walk).
pub fn verify_rounds_exactly_once(
    rounds: &[Box<dyn DistributionScheme>],
    v: u64,
) -> Result<(), SchemeError> {
    crate::scheme::verify_rounds(rounds.iter().map(|r| r.as_ref()), v)
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
