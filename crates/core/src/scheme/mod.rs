//! Distribution schemes: partitioning the Cartesian product (paper §5).
//!
//! A scheme answers the two questions of the paper's abstract solution:
//! *which working sets does an element belong to* (`getSubsets`, here
//! [`DistributionScheme::subsets_of`]) and *which pairs does a task
//! evaluate* (`getPairs`, here [`DistributionScheme::for_each_pair`]).
//!
//! Elements are identified by **dense indexes** `0..v` (the paper's
//! `s₁…s_v`, shifted to 0-based). Applications with sparse ids map them to
//! indexes first.
//!
//! Correctness contract (the paper's §5 "Problem" statement): across all
//! tasks, every unordered pair `{a, b} ⊂ 0..v` appears in **exactly one**
//! task's pair relation, and each task's pairs draw only from its working
//! set. [`DistributionScheme::owner_of`] names that one task for any pair
//! in closed form; [`verify_exactly_once`] checks the contract
//! exhaustively, over the same pair stream the runners walk.
//!
//! Three types implement the trait. [`GroupedScheme`] is every scheme that
//! splits `0..v` into element groups and covers the group pairs with lines
//! ([`grouped`]): block, paired-diagonal block, design and quorum.
//! [`BroadcastScheme`] splits pair *labels*, not elements, and
//! [`crate::hierarchical::TaskSliceScheme`] takes a slice of any scheme's
//! tasks — one round of a §7 [`Rounds`](crate::hierarchical::Rounds) plan.

pub mod block;
pub mod broadcast;
pub mod design;
pub mod grouped;
pub mod quorum;

pub use block::{BlockScheme, PairedBlockScheme};
pub use broadcast::BroadcastScheme;
pub use design::DesignScheme;
pub use grouped::{GroupedScheme, PairCover};
pub use quorum::QuorumScheme;

/// A partitioning of the Cartesian product `S × S` into per-task work.
pub trait DistributionScheme: Send + Sync {
    /// Number of elements `v`.
    fn v(&self) -> u64;

    /// Number of tasks `p` (working sets) the work is split into.
    fn num_tasks(&self) -> u64 {
        self.shape().lines
    }

    /// The working sets containing element `e` — the paper's
    /// `getSubsets(id(element))`. Determines the element's replication.
    fn subsets_of(&self, element: u64) -> Vec<u64>;

    /// All elements of task `t`'s working set, ascending.
    fn working_set(&self, task: u64) -> Vec<u64>;

    /// Streams the pairs task `t` evaluates into `f` — the paper's
    /// `getPairs`. Every pair `(a, b)` satisfies `a > b` and both endpoints
    /// lie in `working_set(t)`. Grouped schemes walk cache-blocked
    /// [`TILE_EDGE`](crate::enumeration::TILE_EDGE)-square tiles so both
    /// operands stay L1-hot across a tile; all consumers of pair streams
    /// are order-insensitive: evaluation results are keyed by `(a, b)` and
    /// aggregators sort per-element lists by neighbor id.
    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64));

    /// Number of pairs task `t` evaluates, in closed form.
    fn num_pairs(&self, task: u64) -> u64;

    /// Task `t`'s pairs collected from [`for_each_pair`](Self::for_each_pair)
    /// — for tests and small tools; runners stream.
    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.num_pairs(task) as usize);
        self.for_each_pair(task, &mut |a, b| out.push((a, b)));
        out
    }

    /// The task whose pair relation holds `(a, b)` (`a > b`, both below
    /// `v`), or `None` when no task of this scheme evaluates it — the
    /// exactly-once contract stated one pair at a time:
    /// `owner_of(a, b) == Some(t)` exactly when `(a, b)` is one of
    /// `for_each_pair(t)`'s pairs. A full scheme owns every pair; a
    /// hierarchical round owns only its share. Every scheme answers in
    /// closed form, without enumerating — a filter that *generates* its
    /// candidates from a working set keeps a pair only where its task
    /// owns it (see [`crate::runner::filter`]).
    fn owner_of(&self, a: u64, b: u64) -> Option<u64>;

    /// Human-readable scheme name.
    fn name(&self) -> &'static str {
        self.shape().scheme
    }

    /// The scheme's closed form: its cover family's shape at its parameter.
    fn shape(&self) -> Shape;

    /// The analytic Table-1 row for this scheme on `n` nodes.
    fn metrics(&self, n_nodes: u64) -> SchemeMetrics {
        self.shape().metrics(n_nodes)
    }
}

/// The closed form of a cover family at `(v, parameter)`, computed without
/// building the scheme (`BlockScheme::shape(v, h)`, …). Table 1, the cost
/// model and the feasibility limits read it, and a built scheme answers
/// [`DistributionScheme::metrics`] from its own, so the two agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Scheme name.
    pub scheme: &'static str,
    /// Lines (tasks) `p`.
    pub lines: u64,
    /// Lines through a group: the copies of each element.
    pub replication: u64,
    /// Groups per line × group size: the largest working set.
    pub working_set: u64,
    /// Pairs of the largest line (broadcast: the even share of its
    /// nonempty lines, Table 1's `v(v−1)/2p`).
    pub pairs_per_line: f64,
    /// Element sends in the family's Table-1 form: each copy travels to its
    /// task and back (`2vp`, `2vh`, design's `≈ 2v√v`).
    pub communication: u64,
    /// Sends per node when Table 1 caps communication at every node holding
    /// every element once (design's "max 2vn", and quorum's): `2v`.
    pub node_cap: Option<u64>,
}

impl Shape {
    /// The Table-1 row on `n_nodes` nodes.
    pub fn metrics(&self, n_nodes: u64) -> SchemeMetrics {
        SchemeMetrics {
            scheme: self.scheme,
            num_tasks: self.lines,
            communication_elements: self
                .node_cap
                .map_or(self.communication, |c| self.communication.min(c.saturating_mul(n_nodes))),
            replication_factor: self.replication as f64,
            working_set_size: self.working_set,
            evaluations_per_task: self.pairs_per_line,
        }
    }
}

/// Analytic per-scheme metrics — one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeMetrics {
    /// Scheme name.
    pub scheme: &'static str,
    /// Number of tasks `p`.
    pub num_tasks: u64,
    /// Communication cost in *element transmissions* (each element copy is
    /// sent once for the computation and once for the aggregation):
    /// `2vp` broadcast, `2vh` block, `≈ 2v√v` design.
    pub communication_elements: u64,
    /// Replication factor: working sets per element.
    pub replication_factor: f64,
    /// Working-set size in elements (the largest task).
    pub working_set_size: u64,
    /// Function evaluations per task (the largest task).
    pub evaluations_per_task: f64,
}

/// Metrics *measured* by walking a scheme exhaustively; the experimental
/// counterpart of [`SchemeMetrics`] used to validate Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredMetrics {
    /// Tasks that own at least one pair.
    pub nonempty_tasks: u64,
    /// Total element copies across all working sets.
    pub total_copies: u64,
    /// Mean replication factor (`total_copies / v`).
    pub replication_factor: f64,
    /// Largest working set.
    pub max_working_set: u64,
    /// Smallest nonempty working set.
    pub min_working_set: u64,
    /// Largest per-task pair count.
    pub max_evaluations: u64,
    /// Smallest nonempty per-task pair count.
    pub min_evaluations: u64,
    /// Total pairs across tasks (must equal `v(v−1)/2` for a valid scheme).
    pub total_pairs: u64,
}

/// Walks every task of a scheme and measures the Table-1 quantities.
pub fn measure(scheme: &dyn DistributionScheme) -> MeasuredMetrics {
    let mut total_copies = 0u64;
    let mut max_ws = 0u64;
    let mut min_ws = u64::MAX;
    let mut max_ev = 0u64;
    let mut min_ev = u64::MAX;
    let mut total_pairs = 0u64;
    let mut nonempty = 0u64;
    for t in 0..scheme.num_tasks() {
        let ws = scheme.working_set(t).len() as u64;
        let ev = scheme.num_pairs(t);
        total_copies += ws;
        total_pairs += ev;
        if ev > 0 {
            nonempty += 1;
            max_ws = max_ws.max(ws);
            min_ws = min_ws.min(ws);
            max_ev = max_ev.max(ev);
            min_ev = min_ev.min(ev);
        }
    }
    if nonempty == 0 {
        min_ws = 0;
        min_ev = 0;
    }
    MeasuredMetrics {
        nonempty_tasks: nonempty,
        total_copies,
        replication_factor: total_copies as f64 / scheme.v().max(1) as f64,
        max_working_set: max_ws,
        min_working_set: min_ws,
        max_evaluations: max_ev,
        min_evaluations: min_ev,
        total_pairs,
    }
}

/// Error from [`verify_exactly_once`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// Some pair is covered `count ≠ 1` times.
    Coverage {
        /// Larger element of the pair.
        a: u64,
        /// Smaller element of the pair.
        b: u64,
        /// How many tasks evaluate it.
        count: u64,
    },
    /// A task emitted a pair outside its working set.
    PairOutsideWorkingSet {
        /// Offending task.
        task: u64,
        /// The pair.
        pair: (u64, u64),
    },
    /// A pair is malformed (`a ≤ b` or endpoint `≥ v`).
    MalformedPair {
        /// Offending task.
        task: u64,
        /// The pair.
        pair: (u64, u64),
    },
}

/// Exhaustively verifies the paper's exactly-once demand:
/// every unordered pair of `0..v` is evaluated by exactly one task, all
/// pairs are well-formed, and tasks only pair elements of their working
/// set. Walks [`DistributionScheme::for_each_pair`], the stream runners
/// evaluate. `O(v²)` memory — for tests and small `v`.
pub fn verify_exactly_once(scheme: &dyn DistributionScheme) -> Result<(), SchemeError> {
    verify_rounds([scheme], scheme.v())
}

/// [`verify_exactly_once`] over the tasks of several rounds together.
pub(crate) fn verify_rounds<'a>(
    rounds: impl IntoIterator<Item = &'a dyn DistributionScheme>,
    v: u64,
) -> Result<(), SchemeError> {
    let mut cover = vec![0u8; crate::enumeration::pair_count(v) as usize];
    for round in rounds {
        for task in 0..round.num_tasks() {
            let ws = round.working_set(task);
            let mut err = None;
            round.for_each_pair(task, &mut |a, b| {
                if a <= b || a >= v {
                    err.get_or_insert(SchemeError::MalformedPair { task, pair: (a, b) });
                } else if ws.binary_search(&a).is_err() || ws.binary_search(&b).is_err() {
                    err.get_or_insert(SchemeError::PairOutsideWorkingSet { task, pair: (a, b) });
                } else {
                    let r = crate::enumeration::pair_rank(a, b) as usize;
                    cover[r] = cover[r].saturating_add(1);
                }
            });
            err.map_or(Ok(()), Err)?;
        }
    }
    let Some(r) = cover.iter().position(|&c| c != 1) else { return Ok(()) };
    let (a, b) = crate::enumeration::pair_unrank(r as u64);
    Err(SchemeError::Coverage { a, b, count: cover[r] as u64 })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::enumeration::{pair_count, pair_rank};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// `owner_of(a, b) == Some(t)` exactly when `for_each_pair(t)` yields
    /// `(a, b)`, and `None` for every pair no task yields (a round's
    /// complement); a pair yielded by two tasks is an error too.
    pub(crate) fn owner_of_is_the_enumeration(
        scheme: &dyn DistributionScheme,
    ) -> Result<(), String> {
        let v = scheme.v();
        let mut owner = vec![None; pair_count(v) as usize];
        let mut twice = None;
        for t in 0..scheme.num_tasks() {
            scheme.for_each_pair(t, &mut |a, b| {
                if owner[pair_rank(a, b) as usize].replace(t).is_some() {
                    twice = Some((a, b));
                }
            });
        }
        if let Some((a, b)) = twice {
            return Err(format!("{}: ({a}, {b}) enumerated twice", scheme.name()));
        }
        for a in 1..v {
            for b in 0..a {
                let (got, want) = (scheme.owner_of(a, b), owner[pair_rank(a, b) as usize]);
                if got != want {
                    return Err(format!(
                        "{}: owner_of({a}, {b}) = {got:?}, enumerated by {want:?}",
                        scheme.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// `BlockScheme` whose task-0 stream drops (or repeats) its first pair
    /// while `pairs()` still lists every pair once.
    struct Tampered {
        inner: BlockScheme,
        duplicate: bool,
    }

    impl DistributionScheme for Tampered {
        fn v(&self) -> u64 {
            self.inner.v()
        }
        fn num_tasks(&self) -> u64 {
            self.inner.num_tasks()
        }
        fn subsets_of(&self, element: u64) -> Vec<u64> {
            self.inner.subsets_of(element)
        }
        fn working_set(&self, task: u64) -> Vec<u64> {
            self.inner.working_set(task)
        }
        fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
            let mut first = task == 0;
            self.inner.for_each_pair(task, &mut |a, b| {
                if std::mem::take(&mut first) {
                    if !self.duplicate {
                        return;
                    }
                    f(a, b);
                }
                f(a, b);
            });
        }
        fn num_pairs(&self, task: u64) -> u64 {
            self.inner.num_pairs(task)
        }
        fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
            self.inner.pairs(task)
        }
        fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
            self.inner.owner_of(a, b)
        }
        fn name(&self) -> &'static str {
            "tampered-block"
        }
        fn shape(&self) -> Shape {
            self.inner.shape()
        }
    }

    /// Both verifiers walk the stream the runners evaluate, so a dropped or
    /// repeated pair fails them even though `pairs()` is intact.
    #[test]
    fn verifiers_reject_a_tampered_stream() {
        for (duplicate, count) in [(false, 0), (true, 2)] {
            let scheme = Tampered { inner: BlockScheme::new(20, 3), duplicate };
            let got = verify_exactly_once(&scheme);
            assert!(
                matches!(got, Err(SchemeError::Coverage { count: c, .. }) if c == count),
                "duplicate={duplicate}: {got:?}"
            );
            let batches = vec![vec![0, 2, 4], vec![1, 3, 5]];
            let got =
                crate::hierarchical::Rounds::new(Arc::new(scheme), batches).verify_exactly_once();
            assert!(
                matches!(got, Err(SchemeError::Coverage { count: c, .. }) if c == count),
                "rounds, duplicate={duplicate}: {got:?}"
            );
        }
        let intact = Tampered { inner: BlockScheme::new(20, 3), duplicate: false };
        assert_eq!(
            (0..intact.num_tasks()).map(|t| intact.pairs(t).len() as u64).sum::<u64>(),
            pair_count(20)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The exactly-once contract, one pair at a time, on the five flat
        /// schemes at several task counts.
        #[test]
        fn owner_of_names_the_enumerating_task(v in 2u64..300, h in 1u64..12, p in 1u64..40) {
            let schemes: Vec<Box<dyn DistributionScheme>> = vec![
                Box::new(BlockScheme::new(v, h)),
                Box::new(PairedBlockScheme::new(v, h)),
                Box::new(DesignScheme::new(v)),
                Box::new(QuorumScheme::new(v)),
                Box::new(BroadcastScheme::new(v, p)),
            ];
            for scheme in &schemes {
                prop_assert_eq!(owner_of_is_the_enumeration(scheme.as_ref()), Ok(()));
            }
        }
    }
}
