//! The paper's headline quantitative claims, asserted as tests.
//!
//! Each test cites the section of *Pairwise Element Computation with
//! MapReduce* (HPDC 2010) it checks. These are the "shape" claims a
//! reproduction must get right even though the hardware differs.

use pairwise_mr::core::analysis::limits::{
    block_design_crossover, fig9b_point, h_bounds, max_dataset_bytes_block, max_v_broadcast,
    max_v_design, units::*,
};
use pairwise_mr::core::analysis::table1::{table1, Scenario};
use pairwise_mr::core::enumeration::pair_count;
use pairwise_mr::core::scheme::{measure, verify_exactly_once, DesignScheme};
use pairwise_mr::designs::primes::{plane_size, smallest_plane_order};

/// §3: "Assume a dataset of 10,000 elements, 500KB each … The resulting
/// dataset is about 6.5GB (instead of 50TB that would result from
/// quadratic expansion)."
#[test]
fn section3_storage_example() {
    let v: u64 = 10_000;
    let element = 500u64 << 10; // 500 KB
    let entry = 16u64; // 8 B id + 8 B result
    let per_element_results = (v - 1) * entry;
    // "each element is about 650KB; 500KB … and 9,999 ∗ 16B ≈ 150KB"
    assert!((per_element_results as f64 / 1024.0 - 156.2).abs() < 1.0);
    let total = v * (element + per_element_results);
    // "about 6.5GB"
    assert!((total as f64 / 1e9 - 6.5).abs() < 0.3, "{total}");
    // "instead of 50TB": v(v−1)/2 pairs × (2 element copies of 500KB each)
    // — the naive quadratic materialization.
    let quadratic = pair_count(v) as f64 * 2.0 * element as f64;
    assert!((quadratic / 1e12 - 51.2).abs() < 2.0, "{quadratic}");
}

/// §5.3: "If, e.g., v = 10,000, then q = 101; hence, the first q + 1 = 102
/// working sets are dominated by the following 10,201 working sets."
#[test]
fn section53_worked_example() {
    let q = smallest_plane_order(10_000);
    assert_eq!(q, 101);
    assert_eq!(plane_size(q), 10_303);
    assert_eq!(plane_size(q) - (q + 1), 10_201);
}

/// §5 Problem statement: "each pair of elements is evaluated exactly once
/// among all nodes" — checked exhaustively for the design scheme at an
/// irregular (truncated) size.
#[test]
fn section5_exactly_once_for_truncated_design() {
    let s = DesignScheme::new(137);
    verify_exactly_once(&s).unwrap();
    assert_eq!(measure(&s).total_pairs, pair_count(137));
}

/// Table 1: the three communication-cost formulas at the paper's
/// parameters and the working-set/replication columns.
#[test]
fn table1_formulas() {
    let (v, n, h) = (10_000u64, 100u64, 20u64);
    let [broadcast, block, design, _] = table1(Scenario::new(v, n, h));
    assert_eq!(broadcast.communication_elements, 2 * v * n);
    assert_eq!(block.communication_elements, 2 * v * h);
    // Design comm ≈ 2v√v capped at 2vn; with n = 100 < √v + 1 the cap binds.
    assert_eq!(design.communication_elements, 2 * v * n);
    assert_eq!(block.working_set_size, 2 * (v / h));
    assert_eq!(design.replication_factor, 102.0);
}

/// Figure 8(a): broadcast limit `maxws/s` at chart anchor points.
#[test]
fn figure8a_anchor_points() {
    assert_eq!(max_v_broadcast(10.0 * KB, 200.0 * MB), 20_000.0);
    assert_eq!(max_v_broadcast(10.0 * MB, 1.0 * GB), 100.0);
}

/// Figure 8(b): design limit `(maxis/s)^(2/3)` at chart anchor points.
#[test]
fn figure8b_anchor_points() {
    assert_eq!(max_v_design(1.0 * MB, 1.0 * TB), 10_000.0);
    assert_eq!(max_v_design(100.0 * KB, 100.0 * GB), 10_000.0);
}

/// §6 / Figure 9(a): "Having, e.g., a dataset of size 4GB, it follows that
/// h can be chosen arbitrarily between 39 and 263." (Exact decimal values
/// are [40, 250]; the paper reads its own log-log chart.)
#[test]
fn figure9a_4gb_datum() {
    let (lo, hi) = h_bounds(4.0 * GB, 200.0 * MB, 1.0 * TB).unwrap();
    assert!((38..=42).contains(&lo), "lo = {lo}");
    assert!((245..=265).contains(&hi), "hi = {hi}");
}

/// §6: the necessary condition `vs ≤ sqrt(maxws·maxis/2)` — 10 GB for the
/// default limits.
#[test]
fn figure9a_existence_threshold() {
    let t = max_dataset_bytes_block(200_000_000, 1_000_000_000_000) as f64;
    assert!((t - 10.0 * GB).abs() < 1e3);
    assert!(h_bounds(9.0 * GB, 200.0 * MB, 1.0 * TB).is_some());
    assert!(h_bounds(11.0 * GB, 200.0 * MB, 1.0 * TB).is_none());
}

/// §6 / Figure 9(b): "the design and block approach have a cross-over
/// point and … for large elements (> 1MB) the design approach allows a few
/// more elements in the dataset than the block approach does."
#[test]
fn figure9b_crossover_claim() {
    let s_star = block_design_crossover(200.0 * MB, 1.0 * TB);
    assert!((s_star / MB - 1.0).abs() < 0.01, "crossover at {} MB", s_star / MB);
    let below = fig9b_point(300.0 * KB, 200.0 * MB, 1.0 * TB);
    assert!(below.block > below.design);
    let above = fig9b_point(2.0 * MB, 200.0 * MB, 1.0 * TB);
    assert!(above.design > above.block, "design wins above 1MB");
    // "the broadcast approach is only reasonable for smaller datasets".
    for s in [10.0 * KB, 1.0 * MB, 10.0 * MB] {
        let p = fig9b_point(s, 200.0 * MB, 1.0 * TB);
        assert!(p.broadcast <= p.block && p.broadcast <= p.design);
    }
}

/// §5.1: broadcast tasks are "well balanced" — contiguous ⌈total/p⌉-sized
/// label ranges, so only the last task can fall short, by less than `p`
/// pairs (a vanishing fraction of the ~v²/2p pairs per task).
#[test]
fn section51_balance() {
    use pairwise_mr::core::scheme::BroadcastScheme;
    for (v, p) in [(1000u64, 7u64), (999, 13), (500, 64)] {
        let m = measure(&BroadcastScheme::new(v, p));
        // Structural bound: with chunk = ⌈total/p⌉ only the last task runs
        // short, by p·chunk − total < p pairs.
        assert!(m.max_evaluations - m.min_evaluations < p, "v={v} p={p}: {m:?}");
    }
}
