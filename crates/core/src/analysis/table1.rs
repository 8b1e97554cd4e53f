//! The paper's Table 1: analytic comparison of the distribution schemes
//! (the paper's three plus the cyclic-quorum extension), plus validation
//! against measured scheme walks.

use crate::enumeration::pair_count;
use crate::scheme::{
    measure, BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme, QuorumScheme,
    SchemeMetrics,
};

/// Shared scenario parameters: the paper's `v`, `n` and, for the block
/// approach, `h`. Broadcast runs one task per node (paper: the task count
/// "can be any number, e.g., the number of nodes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Dataset cardinality.
    pub v: u64,
    /// Number of nodes.
    pub n: u64,
    /// Blocking factor for the block approach.
    pub h: u64,
}

impl Scenario {
    /// The scenario `(v, n, h)`.
    pub fn new(v: u64, n: u64, h: u64) -> Scenario {
        Scenario { v, n, h }
    }
}

/// All four Table-1 rows for a scenario (the paper's three schemes plus
/// the cyclic-quorum extension), from each family's closed-form
/// [`Shape`](crate::scheme::Shape): valid at any scale.
pub fn table1(sc: Scenario) -> [SchemeMetrics; 4] {
    [
        BroadcastScheme::shape(sc.v, sc.n),
        BlockScheme::shape(sc.v, sc.h),
        DesignScheme::shape(sc.v),
        QuorumScheme::shape(sc.v),
    ]
    .map(|shape| shape.metrics(sc.n))
}

/// One scheme's analytic-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Analytic Table-1 row.
    pub analytic: SchemeMetrics,
    /// Measured quantities from an exhaustive scheme walk.
    pub measured: crate::scheme::MeasuredMetrics,
    /// Measured total pairs equals `v(v−1)/2`.
    pub covers_all_pairs: bool,
    /// Measured max working set is within the analytic bound.
    pub working_set_within_bound: bool,
    /// Measured max evaluations is within the analytic bound (rounded up).
    pub evaluations_within_bound: bool,
}

/// Walks all four schemes for a scenario and checks the analytic claims.
pub fn validate(sc: Scenario) -> Vec<ValidationRow> {
    let schemes: Vec<Box<dyn DistributionScheme>> = vec![
        Box::new(BroadcastScheme::new(sc.v, sc.n)),
        Box::new(BlockScheme::new(sc.v, sc.h)),
        Box::new(DesignScheme::new(sc.v)),
        Box::new(QuorumScheme::new(sc.v)),
    ];
    schemes
        .iter()
        .map(|s| {
            let analytic = s.metrics(sc.n);
            let measured = measure(s.as_ref());
            ValidationRow {
                scheme: s.name(),
                covers_all_pairs: measured.total_pairs == pair_count(sc.v),
                working_set_within_bound: measured.max_working_set <= analytic.working_set_size,
                evaluations_within_bound: measured.max_evaluations as f64
                    <= analytic.evaluations_per_task.ceil() + 1.0,
                analytic,
                measured,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_constructed_schemes() {
        // Each family's closed form against the scheme it describes, field
        // by field, including task counts above the pair count (empty
        // broadcast ranges) and blocking factors above v (clamped).
        for v in 2u64..64 {
            for n in [1u64, 8, 1_000] {
                for p in [1u64, 2, 3, 7, 16, 100, 5_000] {
                    let (row, built) = (BroadcastScheme::shape(v, p), BroadcastScheme::new(v, p));
                    assert_eq!(row.metrics(n), built.metrics(n), "broadcast v={v} p={p} n={n}");
                }
                for h in [1u64, 2, 3, 5, 8, 13, 40, 70] {
                    let (row, built) = (BlockScheme::shape(v, h), BlockScheme::new(v, h));
                    assert_eq!(row.metrics(n), built.metrics(n), "block v={v} h={h} n={n}");
                }
                let (row, built) = (QuorumScheme::shape(v), QuorumScheme::new(v));
                assert_eq!(row.metrics(n), built.metrics(n), "quorum v={v} n={n}");
                // The constructed design drops truncation-emptied blocks, so
                // its task count can be below the closed form's q² + q + 1.
                let (row, de) =
                    (DesignScheme::shape(v).metrics(n), DesignScheme::new(v).metrics(n));
                assert!(de.num_tasks <= row.num_tasks, "design v={v}");
                assert_eq!(SchemeMetrics { num_tasks: row.num_tasks, ..de }, row, "design v={v}");
            }
        }
        // Slightly below, at a large truncation.
        let (row, de) = (DesignScheme::shape(500).metrics(8), DesignScheme::new(500).metrics(8));
        assert!(de.num_tasks + row.replication_factor as u64 >= row.num_tasks);
    }

    #[test]
    fn validation_passes_for_moderate_scenarios() {
        for sc in [Scenario::new(100, 4, 5), Scenario::new(273, 8, 7), Scenario::new(500, 16, 10)] {
            for row in validate(sc) {
                assert!(row.covers_all_pairs, "{} v={}", row.scheme, sc.v);
                assert!(row.working_set_within_bound, "{} v={}", row.scheme, sc.v);
                assert!(row.evaluations_within_bound, "{} v={}", row.scheme, sc.v);
            }
        }
    }

    #[test]
    fn paper_table1_formula_spotcheck() {
        // v = 10,000, n = 100 nodes, h = 20.
        let [bc, bl, de, qu] = table1(Scenario::new(10_000, 100, 20));
        assert_eq!(bc.communication_elements, 2 * 10_000 * 100);
        assert_eq!(bc.working_set_size, 10_000);
        assert_eq!(bl.num_tasks, 210); // h(h+1)/2
        assert_eq!(bl.working_set_size, 1000); // 2⌈v/h⌉
        assert_eq!(bl.evaluations_per_task, 250_000.0); // ⌈v/h⌉²
        assert_eq!(de.num_tasks, 10_303); // q=101 ⇒ q²+q+1
        assert_eq!(de.replication_factor, 102.0);
        assert_eq!(de.evaluations_per_task, 5_151.0); // C(q+1, 2) ≈ (v−1)/2
        assert_eq!(qu.num_tasks, 10_000); // one rotation per element
        assert_eq!(qu.evaluations_per_task, 5_000.0); // ⌊v/2⌋
                                                      // k ≈ √v: between the counting bound and 2√v.
        let k = qu.working_set_size;
        assert!(k * (k - 1) >= 9_999, "k={k}");
        assert!((k as f64) <= 2.0 * 100.0 + 2.0, "k={k}");
    }
}
