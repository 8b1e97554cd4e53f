//! Hierarchical (two-level) processing — the paper's §7 outlook,
//! implemented.
//!
//! *"For the block approach, e.g., it is possible to build coarse-grained
//! blocks and to process them sequentially. Each of these first level blocks
//! is processed in parallel by building fine-grained second level blocks…
//! Each block is aggregated before the next one is processed. This method
//! eases both limits."*
//!
//! A §7 plan is one flat scheme plus a partition of its tasks into
//! [`Rounds`]: the batches run one after another, each as a
//! [`TaskSliceScheme`] of parallel tasks, and on MR each round's results
//! are aggregated into the driver's one set of rows before the next round
//! starts. Materialized intermediate data is bounded by one round's
//! replication instead of the whole dataset's, while working sets are the
//! flat scheme's.
//!
//! [`TwoLevelBlock`] batches the lines of `BlockScheme::new(v, H·f)` by
//! coarse cell: a coarse stripe is `f` fine stripes, and each cell of the
//! coarse triangle is one round. [`BatchedDesign`] realizes the
//! design-scheme variant: *"it is similarly possible to process and
//! aggregate subsets of all blocks sequentially, which reduces the
//! requirements for intermediate storage."*

use std::sync::Arc;

use crate::enumeration::{diag_count, diag_rank};
use crate::scheme::{BlockScheme, DesignScheme, DistributionScheme, SchemeError, Shape};

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
        let mut slots: Vec<u64> = self
            .inner
            .subsets_of(element)
            .into_iter()
            .filter_map(|t| self.tasks.binary_search(&t).ok().map(|slot| slot as u64))
            .collect();
        slots.sort_unstable();
        slots
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

/// A §7 plan: one flat scheme whose tasks run in sequential batches.
/// Round `r` is the [`TaskSliceScheme`] of batch `r`.
#[derive(Clone)]
pub struct Rounds {
    scheme: Arc<dyn DistributionScheme>,
    batches: Vec<Vec<u64>>,
}

impl Rounds {
    /// Splits `scheme`'s tasks into `batches`, run in order.
    ///
    /// # Panics
    ///
    /// Unless the batches partition `0..scheme.num_tasks()` into nonempty,
    /// strictly ascending batches.
    pub fn new(scheme: Arc<dyn DistributionScheme>, batches: Vec<Vec<u64>>) -> Rounds {
        let n = scheme.num_tasks();
        let mut seen = vec![false; n as usize];
        for (r, batch) in batches.iter().enumerate() {
            assert!(!batch.is_empty(), "round {r} is empty");
            assert!(batch.windows(2).all(|w| w[0] < w[1]), "round {r} is not strictly ascending");
            for &t in batch {
                assert!(t < n, "round {r}: task {t} is not below num_tasks {n}");
                assert!(
                    !std::mem::replace(&mut seen[t as usize], true),
                    "task {t} is in two rounds"
                );
            }
        }
        let missing = seen.iter().position(|&s| !s);
        assert!(missing.is_none(), "task {} is in no round", missing.unwrap_or_default());
        Rounds { scheme, batches }
    }

    /// The flat scheme whose tasks the rounds split.
    pub fn scheme(&self) -> &Arc<dyn DistributionScheme> {
        &self.scheme
    }

    /// Number of sequential rounds.
    pub fn num_rounds(&self) -> usize {
        self.batches.len()
    }

    /// Round `r` as a standalone scheme over global element ids.
    pub fn round(&self, r: usize) -> TaskSliceScheme {
        TaskSliceScheme::new(Arc::clone(&self.scheme), self.batches[r].clone())
    }

    /// Every round, in order.
    pub fn iter(&self) -> impl Iterator<Item = TaskSliceScheme> + '_ {
        (0..self.num_rounds()).map(|r| self.round(r))
    }

    /// Verifies that the rounds jointly cover every pair of `0..v` exactly
    /// once, walking each round's pair stream (the hierarchical form of
    /// [`crate::scheme::verify_exactly_once`]).
    pub fn verify_exactly_once(&self) -> Result<(), SchemeError> {
        let rounds: Vec<TaskSliceScheme> = self.iter().collect();
        crate::scheme::verify_rounds(rounds.iter().map(|r| r as _), self.scheme.v())
    }
}

/// The §7 two-level block scheme: the lines of a flat block scheme with
/// `H·f` stripes, run in `H(H+1)/2` sequential rounds of `f` × `f` (or, on
/// the diagonal, `f(f+1)/2`) parallel tasks each.
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

    /// The flat scheme whose lines the rounds batch: `H·f` stripes,
    /// clamped to `v` as [`BlockScheme`] clamps them.
    fn fine_blocks(&self) -> BlockScheme {
        BlockScheme::new(self.v, self.coarse.saturating_mul(self.fine))
    }

    /// Coarse stripe width `E = f·⌈v/(H·f)⌉`: `f` fine stripes.
    pub fn coarse_edge(&self) -> u64 {
        self.fine * self.fine_blocks().edge()
    }

    /// Number of sequential rounds: `H(H+1)/2`, one per cell of the coarse
    /// triangle (fewer when `H·f` is clamped to `v`).
    pub fn num_rounds(&self) -> u64 {
        diag_count(self.fine_blocks().blocking_factor().div_ceil(self.fine))
    }

    /// The plan: fine line `(I, J)` runs in the round of coarse cell
    /// `(I/f, J/f)`, rounds in coarse-cell rank order.
    pub fn rounds(&self) -> Rounds {
        let flat = self.fine_blocks();
        let mut batches = vec![Vec::new(); self.num_rounds() as usize];
        for line in 0..flat.num_tasks() {
            let (i, j) = flat.position(line);
            batches[diag_rank(i / self.fine, j / self.fine) as usize].push(line);
        }
        Rounds::new(Arc::new(flat), batches)
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

    /// The plan: contiguous slices of `⌈tasks/batches⌉` of the design's
    /// blocks — at most `batches` rounds, none of them empty.
    pub fn rounds(&self) -> Rounds {
        let tasks: Vec<u64> = (0..self.inner.num_tasks()).collect();
        let per = tasks.len().div_ceil(self.batches as usize);
        let batches = tasks.chunks(per).map(<[u64]>::to_vec).collect();
        Rounds::new(Arc::clone(&self.inner) as Arc<dyn DistributionScheme>, batches)
    }
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
            assert_eq!(rounds.num_rounds() as u64, tlb.num_rounds());
            rounds
                .verify_exactly_once()
                .unwrap_or_else(|e| panic!("v={v} H={coarse} f={fine}: {e:?}"));
        }
    }

    #[test]
    fn two_level_working_sets_bounded() {
        let tlb = TwoLevelBlock::new(100, 4, 5);
        for round in tlb.rounds().iter() {
            let m = measure(&round);
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
        for (v, batches) in [(13u64, 3u64), (13, 6), (31, 4), (40, 7), (57, 1)] {
            let rounds = BatchedDesign::new(v, batches).rounds();
            assert!(rounds.num_rounds() as u64 <= batches, "v={v} batches={batches}");
            for round in rounds.iter() {
                assert!(round.num_tasks() > 0, "v={v} batches={batches}: an empty round");
            }
            rounds
                .verify_exactly_once()
                .unwrap_or_else(|e| panic!("v={v} batches={batches}: {e:?}"));
        }
    }

    #[test]
    fn batched_design_reduces_per_round_copies() {
        let rounds = BatchedDesign::new(57, 6).rounds();
        let full_copies = measure(rounds.scheme().as_ref()).total_copies;
        for (r, round) in rounds.iter().enumerate() {
            let copies = measure(&round).total_copies;
            assert!(copies < full_copies, "round {r}: {copies} vs {full_copies}");
        }
    }

    /// `Rounds::new` refuses every batching that is not a partition of the
    /// scheme's tasks into nonempty ascending batches.
    #[test]
    #[should_panic(expected = "task 2 is in two rounds")]
    fn rounds_reject_a_task_twice() {
        Rounds::new(Arc::new(BlockScheme::new(9, 2)), vec![vec![0, 2], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "task 1 is in no round")]
    fn rounds_reject_a_missing_task() {
        Rounds::new(Arc::new(BlockScheme::new(9, 2)), vec![vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "round 1 is empty")]
    fn rounds_reject_an_empty_batch() {
        Rounds::new(Arc::new(BlockScheme::new(9, 2)), vec![vec![0, 1, 2], vec![]]);
    }

    #[test]
    #[should_panic(expected = "task 3 is not below num_tasks 3")]
    fn rounds_reject_a_task_past_the_scheme() {
        Rounds::new(Arc::new(BlockScheme::new(9, 2)), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    #[should_panic(expected = "round 0 is not strictly ascending")]
    fn rounds_reject_a_descending_batch() {
        Rounds::new(Arc::new(BlockScheme::new(9, 2)), vec![vec![1, 0], vec![2]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every round scheme — a two-level round, a batched design round,
        /// a slice of a two-level round — owns exactly the pairs its tasks
        /// enumerate and answers `None` for the rest.
        #[test]
        fn round_owner_of_is_some_exactly_on_the_round(
            v in 2u64..160,
            coarse in 1u64..5,
            fine in 1u64..4,
            batches in 1u64..5,
        ) {
            let tlb = TwoLevelBlock::new(v, coarse, fine).rounds();
            let mut rounds: Vec<TaskSliceScheme> = tlb.iter().collect();
            rounds.extend(BatchedDesign::new(v, batches).rounds().iter());
            let last: Arc<dyn DistributionScheme> = Arc::new(tlb.round(tlb.num_rounds() - 1));
            let odd = (0..last.num_tasks()).filter(|t| t % 2 == 1).collect();
            rounds.push(TaskSliceScheme::new(last, odd));
            for round in &rounds {
                prop_assert_eq!(owner_of_is_the_enumeration(round), Ok(()));
            }
        }

        /// A slice's `subsets_of` is its definition: the ascending slots of
        /// the slice's tasks whose working set holds the element.
        #[test]
        fn task_slice_subsets_consistent(
            v in 2u64..80,
            h in 1u64..9,
            keep in prop::collection::vec(any::<bool>(), 1..46),
        ) {
            let schemes: Vec<Arc<dyn DistributionScheme>> =
                vec![Arc::new(BlockScheme::new(v, h)), Arc::new(DesignScheme::new(v))];
            for inner in schemes {
                let tasks: Vec<u64> =
                    (0..inner.num_tasks()).filter(|&t| keep[t as usize % keep.len()]).collect();
                let slice = TaskSliceScheme::new(Arc::clone(&inner), tasks.clone());
                for e in 0..v {
                    let want: Vec<u64> = (0u64..)
                        .zip(&tasks)
                        .filter(|&(_, &t)| inner.working_set(t).contains(&e))
                        .map(|(slot, _)| slot)
                        .collect();
                    prop_assert_eq!(slice.subsets_of(e), want, "{} element {}", inner.name(), e);
                }
            }
        }
    }
}
