//! Candidate pruning for thresholded ("some pairs") joins.
//!
//! The paper's schemes enumerate *every* pair of each working set, but
//! thresholded similarity joins (document dedup, near-neighbor search)
//! only need the pairs whose result clears a threshold — Ullman's *Some
//! Pairs Problems* (arXiv 1602.01443). A [`PairFilter`] is the capability
//! that pushes that knowledge **below the scheme's enumeration**: every
//! backend streams a task's pairs through the filter before the tiled
//! kernel sees them, so non-candidate pairs are never resolved, never
//! buffered into a tile, and never evaluated.
//!
//! The filter sits at exactly one seam, written once: `evaluate_tiled`,
//! the evaluation core every backend calls with its own sink, wraps the
//! `for_each_pair` stream in the filter and keeps the tallies — which is
//! why all schemes, batch kernels, fused aggregation, and all backends
//! (sequential/local/MR/process) work unchanged. Distribution,
//! replication, and working-set validation are untouched: the charged cost
//! model and the unthresholded Table-1 numbers stay byte-identical, and
//! the output still contains every element (an element whose pairs were
//! all pruned gets an empty result row).
//!
//! ## Cost accounting
//!
//! Pruned runs charge *enumerated* and *evaluated* pairs separately:
//!
//! * [`CANDIDATE_PAIRS_COUNTER`] — pairs the scheme enumerated while a
//!   filter was active (the candidate pair relation the filter screened).
//! * [`PRUNED_PAIRS_COUNTER`] — pairs the filter rejected.
//! * [`EVALUATED_PAIRS_COUNTER`] — pairs that reached the kernel.
//!
//! Mirroring the chaos-counter rule, these counters exist **only when a
//! pruner is active**: an unfiltered run creates none of them, so its
//! report is byte-identical to one produced before this module existed.

/// A predicate over element-id pairs, applied below scheme enumeration.
///
/// Implementations are index structures built once over the dataset
/// (prefix index, LSH bands — see `pmr-apps`'s `prune` module) whose
/// `is_candidate` is cheap relative to the pairwise `comp`. The filter
/// must be **sound for the caller's purpose**: an `exact()` filter
/// guarantees every pair at or above its threshold is admitted (recall
/// 1.0 by construction); a probabilistic filter (LSH) may drop true
/// pairs and trades recall for pruning power.
///
/// Filters see *ids*, not payloads — they run identically on every
/// backend, including multi-process runs where evaluation happens
/// coordinator-side against the shared element store.
pub trait PairFilter: Send + Sync {
    /// Human-readable pruner name (report meta, CLI).
    fn name(&self) -> &'static str;

    /// Whether the pair `(a, b)` (with `a > b`, ids below the scheme's
    /// `v`) might clear the threshold and must be evaluated.
    fn is_candidate(&self, a: u64, b: u64) -> bool;

    /// True when the filter admits **every** pair at or above its
    /// threshold (recall 1.0 by construction, e.g. prefix filtering);
    /// false for probabilistic filters like LSH banding.
    fn exact(&self) -> bool {
        false
    }
}

/// User counter (pruned runs only): pairs enumerated by the scheme while
/// a filter was active — the candidate relation the filter screened.
pub const CANDIDATE_PAIRS_COUNTER: &str = "pairwise.candidates.pairs";

/// User counter (pruned runs only): enumerated pairs the filter rejected.
pub const PRUNED_PAIRS_COUNTER: &str = "pairwise.pruned.pairs";

/// User counter (pruned runs only): enumerated pairs that survived the
/// filter and were evaluated by the kernel.
pub const EVALUATED_PAIRS_COUNTER: &str = "pairwise.evaluated.pairs";

/// Pair-pruning tallies for one task, worker, or whole run. `candidates`
/// counts enumerated pairs, `pruned` the rejected subset; both are
/// unordered-pair counts regardless of symmetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Pairs the scheme enumerated (presented to the filter).
    pub candidates: u64,
    /// Pairs the filter rejected below the enumeration.
    pub pruned: u64,
}

impl PruneStats {
    /// Pairs that survived the filter and reached the kernel.
    pub fn evaluated(&self) -> u64 {
        self.candidates - self.pruned
    }

    /// Folds another tally (a task's, a worker's) into this one.
    pub fn absorb(&mut self, other: PruneStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
    }

    /// The three pruning counters this tally stands for. Callers merge
    /// these into a report **only when a filter was active** — see the
    /// module docs' counter-hygiene rule.
    pub fn counters(&self) -> [(&'static str, u64); 3] {
        [
            (CANDIDATE_PAIRS_COUNTER, self.candidates),
            (PRUNED_PAIRS_COUNTER, self.pruned),
            (EVALUATED_PAIRS_COUNTER, self.evaluated()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ParityFilter;
    impl PairFilter for ParityFilter {
        fn name(&self) -> &'static str {
            "parity"
        }
        fn is_candidate(&self, a: u64, b: u64) -> bool {
            (a + b).is_multiple_of(2)
        }
    }

    #[test]
    fn default_filters_are_inexact() {
        assert!(!ParityFilter.exact());
        assert!(ParityFilter.is_candidate(3, 1));
        assert!(!ParityFilter.is_candidate(2, 1));
    }

    #[test]
    fn stats_absorb_and_counters() {
        let mut s = PruneStats { candidates: 10, pruned: 7 };
        s.absorb(PruneStats { candidates: 5, pruned: 1 });
        assert_eq!(s.candidates, 15);
        assert_eq!(s.pruned, 8);
        assert_eq!(s.evaluated(), 7);
        let counters = s.counters();
        assert_eq!(counters[0], (CANDIDATE_PAIRS_COUNTER, 15));
        assert_eq!(counters[1], (PRUNED_PAIRS_COUNTER, 8));
        assert_eq!(counters[2], (EVALUATED_PAIRS_COUNTER, 7));
    }
}
