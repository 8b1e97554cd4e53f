//! The broadcast distribution scheme (paper §5.1).
//!
//! "The broadcast approach is based on the assumption that the dataset size
//! is moderate but the function to evaluate is expensive." Every working set
//! is the whole dataset (`D₁ = … = D_b = S`); the pair matrix's strict upper
//! triangle is enumerated (Figure 5) and split into `p` contiguous label
//! ranges of `h = ⌈v(v−1)/2p⌉` pairs each.

use crate::enumeration::{pair_count, pair_rank, pairs_in_range};
use crate::scheme::{DistributionScheme, Shape};

/// Broadcast scheme: full replication, contiguous pair-label ranges.
///
/// ```
/// use pmr_core::scheme::{BroadcastScheme, DistributionScheme};
///
/// let s = BroadcastScheme::new(100, 4);
/// // 4 tasks share the 4,950 pairs in ranges of ⌈4950/4⌉ = 1238 labels.
/// assert_eq!(s.pairs_per_task(), 1238);
/// assert_eq!(s.working_set(0).len(), 100); // each task sees everything
/// let total: u64 = (0..4).map(|t| s.num_pairs(t)).sum();
/// assert_eq!(total, 4950);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastScheme {
    v: u64,
    tasks: u64,
    /// Pairs per task `h = ⌈total / tasks⌉`.
    chunk: u64,
}

impl BroadcastScheme {
    /// Creates a broadcast scheme over `v` elements with `tasks` tasks
    /// (the paper notes the number of tasks "can be any number, e.g., the
    /// number of nodes"). Tasks beyond the number of pairs stay empty.
    pub fn new(v: u64, tasks: u64) -> BroadcastScheme {
        assert!(v >= 2, "need at least 2 elements");
        assert!(tasks >= 1, "need at least 1 task");
        let total = pair_count(v);
        let chunk = total.div_ceil(tasks).max(1);
        BroadcastScheme { v, tasks, chunk }
    }

    /// The closed form of `BroadcastScheme::new(v, tasks)`. Elements travel
    /// only to tasks that own a pair: with more tasks than pairs the
    /// trailing label ranges are empty, so replication and communication
    /// count the `⌈P/⌈P/p⌉⌉` nonempty tasks, `P = v(v−1)/2`.
    pub fn shape(v: u64, tasks: u64) -> Shape {
        let total = pair_count(v);
        let nonempty = total.div_ceil(total.div_ceil(tasks).max(1));
        Shape {
            scheme: "broadcast",
            lines: tasks,
            replication: nonempty,
            working_set: v,
            pairs_per_line: total as f64 / nonempty as f64,
            communication: 2 * v * nonempty,
            node_cap: None,
        }
    }

    /// The label range `[start, end)` of task `t`.
    pub fn label_range(&self, task: u64) -> (u64, u64) {
        let total = pair_count(self.v);
        let start = (task * self.chunk).min(total);
        let end = ((task + 1) * self.chunk).min(total);
        (start, end)
    }

    /// Pairs per full task, `h = ⌈v(v−1)/(2p)⌉`.
    pub fn pairs_per_task(&self) -> u64 {
        self.chunk
    }
}

impl DistributionScheme for BroadcastScheme {
    fn v(&self) -> u64 {
        self.v
    }

    fn subsets_of(&self, element: u64) -> Vec<u64> {
        debug_assert!(element < self.v);
        // The paper replicates every element to every task; we match that
        // for the nonempty tasks, which come first.
        (0..self.shape().replication).collect()
    }

    fn working_set(&self, task: u64) -> Vec<u64> {
        let (s, e) = self.label_range(task);
        if s >= e {
            return Vec::new();
        }
        (0..self.v).collect()
    }

    fn for_each_pair(&self, task: u64, f: &mut dyn FnMut(u64, u64)) {
        // A label range walks rows of the triangle: `b` advances
        // contiguously within each row, which is already cache-friendly —
        // no tiling needed, just avoid the vector.
        let (s, e) = self.label_range(task);
        for (a, b) in pairs_in_range(s, e) {
            f(a, b);
        }
    }

    fn num_pairs(&self, task: u64) -> u64 {
        let (s, e) = self.label_range(task);
        e - s
    }

    fn owner_of(&self, a: u64, b: u64) -> Option<u64> {
        debug_assert!(b < a && a < self.v);
        Some(pair_rank(a, b) / self.chunk)
    }

    fn shape(&self) -> Shape {
        BroadcastScheme::shape(self.v, self.tasks) // the closed form above
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{measure, verify_exactly_once};

    #[test]
    fn covers_every_pair_exactly_once() {
        for (v, tasks) in [(2u64, 1u64), (7, 3), (10, 4), (25, 8), (40, 40), (13, 100)] {
            let s = BroadcastScheme::new(v, tasks);
            verify_exactly_once(&s).unwrap_or_else(|e| panic!("v={v} p={tasks}: {e:?}"));
        }
    }

    #[test]
    fn task_sizes_balanced() {
        let s = BroadcastScheme::new(100, 7);
        let total = pair_count(100);
        let m = measure(&s);
        assert_eq!(m.total_pairs, total);
        // Max and min differ by at most the chunk rounding.
        assert!(m.max_evaluations - m.min_evaluations <= s.pairs_per_task());
        assert_eq!(m.max_evaluations, s.pairs_per_task());
    }

    #[test]
    fn label_ranges_partition_labels() {
        let s = BroadcastScheme::new(50, 6);
        let total = pair_count(50);
        let mut pos = 0;
        for t in 0..6 {
            let (a, b) = s.label_range(t);
            assert_eq!(a, pos);
            pos = b;
        }
        assert_eq!(pos, total);
    }

    #[test]
    fn working_set_is_whole_dataset() {
        let s = BroadcastScheme::new(12, 3);
        for t in 0..3 {
            assert_eq!(s.working_set(t), (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn metrics_match_table1() {
        let s = BroadcastScheme::new(1000, 16);
        let m = s.metrics(16);
        assert_eq!(m.num_tasks, 16);
        assert_eq!(m.communication_elements, 2 * 1000 * 16);
        assert_eq!(m.replication_factor, 16.0);
        assert_eq!(m.working_set_size, 1000);
        assert!((m.evaluations_per_task - 499_500.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn more_tasks_than_pairs() {
        let s = BroadcastScheme::new(3, 10); // only 3 pairs
        verify_exactly_once(&s).unwrap();
        let m = measure(&s);
        assert_eq!(m.total_pairs, 3);
        assert_eq!(m.nonempty_tasks, 3);
    }

    #[test]
    fn analytic_metrics_agree_with_measurement_for_tiny_v() {
        // Empty tasks must not inflate the analytic numbers: with 3 pairs
        // across 10 tasks, only 3 tasks receive the dataset.
        for (v, tasks) in [(3u64, 10u64), (4, 100), (5, 5), (40, 8)] {
            let s = BroadcastScheme::new(v, tasks);
            let analytic = s.metrics(tasks);
            let measured = measure(&s);
            assert_eq!(analytic.num_tasks, tasks, "v={v} tasks={tasks}");
            assert_eq!(
                analytic.communication_elements,
                2 * measured.total_copies,
                "v={v} tasks={tasks}: one copy in, one result out, per element copy"
            );
            assert!(
                (analytic.replication_factor - measured.replication_factor).abs() < 1e-9,
                "v={v} tasks={tasks}"
            );
            assert_eq!(analytic.working_set_size, measured.max_working_set, "v={v} tasks={tasks}");
            assert!(
                analytic.evaluations_per_task <= measured.max_evaluations as f64,
                "v={v} tasks={tasks}: mean over nonempty tasks can't exceed the max"
            );
        }
    }
}
