//! Candidate pruning for thresholded ("some pairs") joins.
//!
//! The paper's schemes enumerate *every* pair of each working set, but
//! thresholded similarity joins (document dedup, near-neighbor search)
//! only need the pairs whose result clears a threshold — Ullman's *Some
//! Pairs Problems* (arXiv 1602.01443). A [`PairFilter`] is the capability
//! that pushes that knowledge **below the scheme's enumeration**: every
//! backend hands a task's pairs through the filter before the tiled
//! kernel sees them, so non-candidate pairs are never resolved, never
//! buffered into a tile, and never evaluated.
//!
//! The filter sits at exactly one seam, written once: `evaluate_tiled`,
//! the evaluation core every backend calls with its own sink, takes a
//! task's pairs from `for_each_candidate` (the sequential oracle's full
//! triangle is probed pair by pair) and keeps the tallies — which is why
//! all schemes, batch kernels, fused aggregation, and all backends
//! (sequential/local/MR/process) work unchanged. Distribution,
//! replication, and working-set validation are untouched: the charged cost
//! model and the unthresholded Table-1 numbers stay byte-identical, and
//! the output still contains every element (an element whose pairs were
//! all pruned gets an empty result row).
//!
//! ## Generating instead of probing
//!
//! Probing costs the all-pairs relation even when a handful of pairs
//! survive. A filter that can name its candidates from a set of ids
//! implements [`PairFilter::generate_candidates`]: from a task's working
//! set it emits a superset of the set's candidate pairs (for a prefix
//! filter, the pairs sharing a prefix term). `for_each_candidate` keeps
//! a generated pair only where the scheme's
//! [`owner_of`](DistributionScheme::owner_of) names the task and
//! `is_candidate` admits it, so a task's survivors are exactly the ones
//! the probe would keep. A filter that cannot generate, and a task whose
//! generation would walk more pairs than the task owns (all-identical
//! documents, a broadcast working set of all `v`), are probed instead —
//! no input costs more than the probe plus the abandoned generation.
//!
//! ## Cost accounting
//!
//! Pruned runs charge the relation and the *evaluated* pairs separately:
//!
//! * [`CANDIDATE_PAIRS_COUNTER`] — the pairs of the relation of every task
//!   run while a filter was active (`num_pairs(t)` summed: `C(v, 2)` for a
//!   full scheme), whether the task probed them or generated its
//!   candidates.
//! * [`PRUNED_PAIRS_COUNTER`] — those pairs that did not reach the kernel.
//! * [`EVALUATED_PAIRS_COUNTER`] — pairs that reached the kernel.
//!
//! Mirroring the chaos-counter rule, these counters exist **only when a
//! pruner is active**: an unfiltered run creates none of them, so its
//! report is byte-identical to one produced before this module existed.

use crate::scheme::DistributionScheme;

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
/// coordinator-side against the shared element store — and never scheme
/// geometry: which generated pair a task owns is decided by the caller.
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

    /// Generates the candidates of one working set instead of having each
    /// pair probed: calls `f(a, b)`, `a > b`, once for each pair of
    /// `working_set` (ascending ids) in a superset of the set's candidate
    /// pairs, first-operand-major (all of one `a`'s pairs back to back),
    /// and returns `true`. Returns `false` having called `f` not at all
    /// when generating would walk more than `limit` pairs — the task's own
    /// pair count, past which the probe is cheaper. The default cannot
    /// generate and always returns `false`; the caller then probes every
    /// pair with [`is_candidate`](Self::is_candidate).
    fn generate_candidates(
        &self,
        working_set: &[u64],
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> bool {
        let _ = (working_set, limit, f);
        false
    }
}

/// Streams task `task`'s candidate pairs under `filter` into `f` and
/// returns the task's tallies; `working_set` is the task's working set,
/// ascending. When the filter generates, a generated pair reaches `f`
/// only if `scheme` assigns it to `task` and `is_candidate` admits it, in
/// the filter's first-operand-major order; otherwise every pair of
/// `for_each_pair(task)` is probed. Either way `f` sees the same pairs,
/// `candidates` is `num_pairs(task)` and `pruned` counts the rest.
pub(crate) fn for_each_candidate(
    scheme: &dyn DistributionScheme,
    task: u64,
    working_set: &[u64],
    filter: &dyn PairFilter,
    f: &mut dyn FnMut(u64, u64),
) -> PruneStats {
    let relation = scheme.num_pairs(task);
    let mut survivors = 0u64;
    let generated = filter.generate_candidates(working_set, relation, &mut |a, b| {
        if scheme.owner_of(a, b) == Some(task) && filter.is_candidate(a, b) {
            survivors += 1;
            f(a, b);
        }
    });
    if generated {
        PruneStats { candidates: relation, pruned: relation - survivors }
    } else {
        probe(filter, |g| scheme.for_each_pair(task, g), f)
    }
}

/// Screens every pair of `stream` with `is_candidate`, passing survivors
/// to `f`: [`for_each_candidate`]'s fallback and the sequential oracle.
pub(crate) fn probe(
    filter: &dyn PairFilter,
    stream: impl FnOnce(&mut dyn FnMut(u64, u64)),
    f: &mut dyn FnMut(u64, u64),
) -> PruneStats {
    let mut prune = PruneStats::default();
    stream(&mut |a, b| {
        prune.candidates += 1;
        if filter.is_candidate(a, b) {
            f(a, b);
        } else {
            prune.pruned += 1;
        }
    });
    prune
}

/// User counter (pruned runs only): pairs of the relation of every task
/// run while a filter was active, probed or not.
pub const CANDIDATE_PAIRS_COUNTER: &str = "pairwise.candidates.pairs";

/// User counter (pruned runs only): pairs of the relation that did not
/// reach the kernel.
pub const PRUNED_PAIRS_COUNTER: &str = "pairwise.pruned.pairs";

/// User counter (pruned runs only): pairs that survived the filter and
/// were evaluated by the kernel.
pub const EVALUATED_PAIRS_COUNTER: &str = "pairwise.evaluated.pairs";

/// Pair-pruning tallies for one task, worker, or whole run. `candidates`
/// counts the pairs of the tasks' relations, `pruned` those that did not
/// reach the kernel; both are unordered-pair counts regardless of
/// symmetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Pairs of the tasks' relations (what a probe would screen).
    pub candidates: u64,
    /// Of those, the pairs the filter kept from the kernel.
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
        // Nor do they generate: the caller probes.
        assert!(!ParityFilter.generate_candidates(&[1, 2, 3], u64::MAX, &mut |_, _| panic!()));
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
