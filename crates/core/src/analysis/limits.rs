//! Feasibility limits (paper §6, Figures 8 and 9).
//!
//! Two environment limits constrain each scheme:
//!
//! * `maxws` — main memory available to one task for its working set;
//! * `maxis` — storage available for materialized intermediate data.
//!
//! With element size `s` (bytes) and dataset cardinality `v`:
//!
//! | scheme    | working set      | intermediate data        |
//! |-----------|------------------|--------------------------|
//! | broadcast | `v·s`            | `v·s·p`                  |
//! | block     | `2·v·s/h`        | `v·s·h`                  |
//! | design    | `≈ √v·s`         | `≈ v·s·√v = v^{3/2}·s`   |
//!
//! Quorum working sets and intermediate data grow as design's, so quorum
//! is held to design's curves.
//!
//! Figure 8(a): largest `v` before the broadcast working set hits `maxws`.
//! Figure 8(b): largest `v` before the design intermediate data hits
//! `maxis`. Figure 9(a): the valid range of the blocking factor `h`.
//! Figure 9(b): the largest `v` for all three schemes.
//!
//! All functions take byte quantities; closed forms mirror the paper's
//! curves and are certified against exact integer predicates where byte
//! budgets are integers. [`max_v_design_exact`] uses the exact plane order
//! instead of the `√v` approximation.

use pmr_designs::primes::{isqrt128, smallest_plane_order};

/// `x` as an exact `u64` byte quantity, if it is one (integral, in range).
/// The limit curves take `f64` arguments for the paper's continuous plots;
/// byte budgets are integers in practice, and the integer paths below keep
/// those exact where `f64` would round.
fn as_exact_u64(x: f64) -> Option<u64> {
    (x.fract() == 0.0 && x >= 1.0 && x <= u64::MAX as f64).then_some(x as u64)
}

/// Figure 8(a): the largest `v` such that the broadcast working set
/// (`v` elements of `s` bytes) fits in `maxws`.
pub fn max_v_broadcast(element_size: f64, maxws: f64) -> f64 {
    (maxws / element_size).floor()
}

/// Exact integer form of the paper's design storage curve:
/// `v^{3/2}·s ≤ maxis ⇔ v³·s² ≤ maxis²`, evaluated over `u128`
/// (multiplication overflow means the left side is astronomically large,
/// i.e. infeasible).
pub fn design_curve_fits(v: u64, element_size: u64, maxis: u64) -> bool {
    let (v, s, m) = (v as u128, element_size as u128, maxis as u128);
    v.checked_mul(v)
        .and_then(|x| x.checked_mul(v))
        .and_then(|x| x.checked_mul(s * s))
        .is_some_and(|lhs| lhs <= m * m)
}

/// Figure 8(b): the largest `v` such that the design scheme's materialized
/// intermediate data (`v^{3/2}·s`, from the `√v` replication factor) fits
/// in `maxis` — the paper's curve.
///
/// For integer byte quantities the floor is certified against the exact
/// predicate [`design_curve_fits`]: the continuous form floors
/// `(maxis/s)^{2/3}` after adding a `1e-6` epsilon, which absorbs float
/// error at exact powers but used to overshoot the true limit by 1 when
/// the curve sat within `1e-6` *below* an integer.
pub fn max_v_design(element_size: f64, maxis: f64) -> f64 {
    let approx = ((maxis / element_size).powf(2.0 / 3.0) + 1e-6).floor();
    if let (Some(s), Some(m)) = (as_exact_u64(element_size), as_exact_u64(maxis)) {
        let mut v = if approx >= 0.0 && approx <= u64::MAX as f64 { approx as u64 } else { 0 };
        while v > 0 && !design_curve_fits(v, s, m) {
            v -= 1;
        }
        while design_curve_fits(v + 1, s, m) {
            v += 1;
        }
        return v as f64;
    }
    approx
}

/// Design-scheme limit honoring **both** constraints: [`max_v_design`] and
/// the working-set limit `√v·s ≤ maxws ⇒ v ≤ (maxws/s)²`, which the paper's
/// Figure 9(b) curve leaves out. Stricter than that curve for large
/// elements; see EXPERIMENTS.md. Quorum's limit too.
pub fn max_v_design_both(element_size: f64, maxws: f64, maxis: f64) -> f64 {
    max_v_design(element_size, maxis).min((maxws / element_size).powi(2).floor())
}

/// Exact Figure 8(b): the largest `v ≥ 2` with
/// `v · s · (q(v) + 1) ≤ maxis`, using the true plane order
/// `q(v)` = smallest prime power with `q² + q + 1 ≥ v`.
pub fn max_v_design_exact(element_size: u64, maxis: u64) -> u64 {
    let fits = |v: u64| -> bool {
        let q = smallest_plane_order(v);
        (v as u128) * (element_size as u128) * ((q + 1) as u128) <= maxis as u128
    };
    if !fits(2) {
        return 0;
    }
    // Exponential probe then binary search; `fits(lo)` holds throughout, and
    // the predicate is monotone: v and q(v) both never decrease.
    let mut hi = 2u64;
    while fits(hi) && hi < 1 << 40 {
        hi *= 2;
    }
    let (mut lo, mut hi) = (hi / 2, hi);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The largest dataset size `D` in bytes for which the block approach has a
/// valid blocking factor: `2·D² ≤ maxws·maxis`, the paper's necessary
/// condition `vs ≤ √(maxws·maxis/2)`, via a `u128` integer square root. The
/// `f64` form loses integer precision once the product exceeds `2^53` and
/// could flip feasibility by one byte.
pub fn max_dataset_bytes_block(maxws: u64, maxis: u64) -> u64 {
    // 2D² ≤ W·I ⇔ D² ≤ ⌊W·I/2⌋ (both sides integral), so the floor sqrt
    // is exact. The result fits u64: √(2^128/2) < 2^64.
    isqrt128((maxws as u128) * (maxis as u128) / 2) as u64
}

/// Figure 9(b) block curve: the largest `v` such that *some* valid `h`
/// exists, i.e. `v·s ≤ √(maxws·maxis/2)`. Integer byte quantities take the
/// exact path ([`max_dataset_bytes_block`]).
pub fn max_v_block(element_size: f64, maxws: f64, maxis: f64) -> f64 {
    if let (Some(s), Some(w), Some(i)) =
        (as_exact_u64(element_size), as_exact_u64(maxws), as_exact_u64(maxis))
    {
        return (max_dataset_bytes_block(w, i) / s) as f64;
    }
    ((maxws * maxis / 2.0).sqrt() / element_size).floor()
}

/// Afrati–Ullman (arXiv 1206.4377) replication-rate lower bound for the
/// all-pairs problem: a reducer receiving at most `q` elements pairs each
/// of its inputs with at most `q − 1` partners, and every element must
/// meet the other `v − 1`, so **any** correct mapping scheme replicates
/// each input at least `(v − 1)/(q − 1)` times. Returns `∞` when
/// `q < 2` (no reducer can form a pair at all).
pub fn replication_rate_lower_bound(v: u64, reducer_elements: u64) -> f64 {
    if v < 2 {
        return 0.0;
    }
    if reducer_elements < 2 {
        return f64::INFINITY;
    }
    ((v - 1) as f64 / (reducer_elements - 1) as f64).max(1.0)
}

/// The reducer capacity in elements that `maxws` affords: the `q` to feed
/// [`replication_rate_lower_bound`] for a given environment.
pub fn reducer_capacity(element_size: f64, maxws: f64) -> u64 {
    max_v_broadcast(element_size, maxws) as u64 // a broadcast task is one reducer
}

/// Figure 9(a): the valid blocking-factor range for a dataset of
/// `vs_bytes` total size: `⌈2·vs/maxws⌉ ≤ h ≤ ⌊maxis/vs⌋`.
/// Returns `None` when the range is empty.
pub fn h_bounds(vs_bytes: f64, maxws: f64, maxis: f64) -> Option<(u64, u64)> {
    let lo = (2.0 * vs_bytes / maxws).ceil().max(1.0) as u64;
    let hi = (maxis / vs_bytes).floor() as u64;
    (lo <= hi).then_some((lo, hi))
}

/// Figure 9(b): all three curves at one element size. Fields are the
/// largest feasible `v` per scheme (the paper's curve definitions:
/// broadcast by `maxws`, block by the `h`-range existence condition,
/// design by `maxis`; quorum's curve is `design_both`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9bPoint {
    /// Broadcast limit.
    pub broadcast: f64,
    /// Block limit.
    pub block: f64,
    /// Design limit (paper's storage-only curve).
    pub design: f64,
    /// Design limit honoring the working-set constraint too.
    pub design_both: f64,
}

/// Evaluates Figure 9(b) at one element size.
pub fn fig9b_point(element_size: f64, maxws: f64, maxis: f64) -> Fig9bPoint {
    Fig9bPoint {
        broadcast: max_v_broadcast(element_size, maxws),
        block: max_v_block(element_size, maxws, maxis),
        design: max_v_design(element_size, maxis),
        design_both: max_v_design_both(element_size, maxws, maxis),
    }
}

/// The element size where the block and design curves of Figure 9(b) cross
/// (paper: "the design and block approach have a cross-over point" near
/// 1 MB for `maxws` = 200 MB, `maxis` = 1 TB). Solves
/// `√(maxws·maxis/2)/s = (maxis/s)^{2/3}` for `s`.
pub fn block_design_crossover(maxws: f64, maxis: f64) -> f64 {
    // C_b/s = maxis^{2/3}·s^{−2/3} with C_b = √(maxws·maxis/2)
    // ⇒ s^{1/3} = C_b / maxis^{2/3} ⇒ s = C_b³ / maxis².
    let ratio = (maxws * maxis / 2.0).sqrt() / maxis.powf(2.0 / 3.0);
    ratio.powi(3)
}

/// Convenience byte-unit constants (decimal, as the paper's axes).
pub mod units {
    /// One kilobyte (10³).
    pub const KB: f64 = 1e3;
    /// One megabyte (10⁶).
    pub const MB: f64 = 1e6;
    /// One gigabyte (10⁹).
    pub const GB: f64 = 1e9;
    /// One terabyte (10¹²).
    pub const TB: f64 = 1e12;
}

#[cfg(test)]
mod tests {
    use super::units::*;
    use super::*;

    #[test]
    fn fig8a_broadcast_examples() {
        // 200 MB budget, 100 KB elements ⇒ 2000 elements.
        assert_eq!(max_v_broadcast(100.0 * KB, 200.0 * MB), 2000.0);
        // 1 GB budget, 10 KB elements ⇒ 100,000 elements.
        assert_eq!(max_v_broadcast(10.0 * KB, 1.0 * GB), 100_000.0);
        // Larger budget ⇒ larger v, monotone in maxws, antitone in s.
        assert!(max_v_broadcast(10.0 * KB, 400.0 * MB) > max_v_broadcast(10.0 * KB, 200.0 * MB));
        assert!(max_v_broadcast(20.0 * KB, 200.0 * MB) < max_v_broadcast(10.0 * KB, 200.0 * MB));
    }

    #[test]
    fn fig8b_design_examples() {
        // maxis = 1 TB, s = 1 MB ⇒ v = (1e6)^{2/3} = 10,000.
        assert_eq!(max_v_design(1.0 * MB, 1.0 * TB), 10_000.0);
        // maxis = 1 TB, s = 10 KB ⇒ v = (1e8)^{2/3} ≈ 215,443.
        let v = max_v_design(10.0 * KB, 1.0 * TB);
        assert!((v - 215_443.0).abs() <= 1.0, "{v}");
    }

    #[test]
    fn design_exact_close_to_approximation() {
        // Exact uses q+1 (≥ √v), so it is a bit smaller than the paper's
        // √v-approximation curve but within a constant factor.
        for (s, maxis) in [(1_000u64, 1u64 << 30), (10_000, 1 << 34), (100_000, 1 << 40)] {
            let exact = max_v_design_exact(s, maxis);
            let approx = max_v_design(s as f64, maxis as f64);
            assert!(exact > 0);
            assert!((exact as f64) <= approx * 1.05, "exact {exact} vs approx {approx}");
            assert!((exact as f64) >= approx * 0.5, "exact {exact} vs approx {approx}");
            // Verify exactness of the boundary.
            let q = smallest_plane_order(exact);
            assert!(exact * s * (q + 1) <= maxis);
            let q2 = smallest_plane_order(exact + 1);
            assert!((exact + 1) * s * (q2 + 1) > maxis);
        }
    }

    #[test]
    fn fig9a_paper_datum() {
        // Paper: maxws = 200 MB, maxis = 1 TB, dataset 4 GB ⇒ h ∈ [39, 263]
        // (paper values read off a log-log chart; decimal-exact is
        // [40, 250]).
        let (lo, hi) = h_bounds(4.0 * GB, 200.0 * MB, 1.0 * TB).unwrap();
        assert!((38..=42).contains(&lo), "lo={lo}");
        assert!((245..=265).contains(&hi), "hi={hi}");
    }

    #[test]
    fn fig9a_existence_condition() {
        let maxws = 200.0 * MB;
        let maxis = 1.0 * TB;
        let threshold = max_dataset_bytes_block(maxws as u64, maxis as u64) as f64; // = 10 GB
        assert!((threshold - 10.0 * GB).abs() < 1.0);
        assert!(h_bounds(threshold * 0.99, maxws, maxis).is_some());
        assert!(h_bounds(threshold * 1.25, maxws, maxis).is_none());
    }

    #[test]
    fn fig9b_crossover_near_1mb() {
        // Paper: block/design crossover around 1 MB elements for
        // maxws = 200 MB, maxis = 1 TB.
        let s = block_design_crossover(200.0 * MB, 1.0 * TB);
        assert!((0.5 * MB..2.0 * MB).contains(&s), "crossover at {s} bytes");
        // At the crossover the curves agree.
        let p = fig9b_point(s, 200.0 * MB, 1.0 * TB);
        assert!((p.block - p.design).abs() / p.block < 0.01);
        // Below the crossover block wins; above, design wins (paper's
        // "for large elements (> 1MB) the design approach allows a few
        // more elements").
        let below = fig9b_point(s / 4.0, 200.0 * MB, 1.0 * TB);
        assert!(below.block > below.design);
        let above = fig9b_point(s * 4.0, 200.0 * MB, 1.0 * TB);
        assert!(above.design > above.block);
    }

    #[test]
    fn fig9b_broadcast_is_lowest_for_small_elements() {
        let p = fig9b_point(10.0 * KB, 200.0 * MB, 1.0 * TB);
        assert!(p.broadcast < p.block);
        assert!(p.broadcast < p.design);
    }

    #[test]
    fn design_both_never_exceeds_paper_curve() {
        for s in [1.0 * KB, 100.0 * KB, 1.0 * MB, 10.0 * MB] {
            let p = fig9b_point(s, 200.0 * MB, 1.0 * TB);
            assert!(p.design_both <= p.design);
        }
    }

    #[test]
    fn design_epsilon_no_longer_overshoots() {
        // Regression: maxis = 1,284,253 with s = 1 puts the continuous
        // curve within 1e-6 *below* 11,815, so the epsilon-then-floor form
        // returned 11,815 even though 11,815³ > maxis². True limit: 11,814.
        let (s, maxis) = (1u64, 1_284_253u64);
        let old = ((maxis as f64 / s as f64).powf(2.0 / 3.0) + 1e-6).floor();
        assert_eq!(old, 11_815.0, "the buggy formula no longer reproduces the premise");
        assert!(!design_curve_fits(11_815, s, maxis));
        assert_eq!(max_v_design(s as f64, maxis as f64), 11_814.0);
        assert!(design_curve_fits(11_814, s, maxis));
    }

    #[test]
    fn design_limit_certified_against_exact_predicate() {
        for s in [1u64, 2, 17, 1_000, 1 << 20] {
            for maxis in [1u64, 999, 1_284_253, 1 << 30, 10u64.pow(12), (1 << 53) - 1] {
                let v = max_v_design(s as f64, maxis as f64) as u64;
                assert!(v == 0 || design_curve_fits(v, s, maxis), "s={s} maxis={maxis} v={v}");
                assert!(!design_curve_fits(v + 1, s, maxis), "s={s} maxis={maxis} v={v}");
            }
        }
    }

    #[test]
    fn block_exact_boundary_parity() {
        // The defining property 2D² ≤ W·I < 2(D+1)² at byte budgets well
        // above 2^53, where the old f64 √ form could flip feasibility.
        for (w, i) in [
            (200u64 * 1_000_000, 10u64.pow(12)),
            ((1 << 53) + 1, (1 << 53) + 3),
            (u64::MAX, u64::MAX),
            (3, u64::MAX),
            (1, 1),
        ] {
            let d = max_dataset_bytes_block(w, i) as u128;
            let budget = w as u128 * i as u128;
            assert!(2 * d * d <= budget, "w={w} i={i} d={d}");
            assert!(
                (2u128).checked_mul((d + 1) * (d + 1)).is_none_or(|x| x > budget),
                "w={w} i={i} d={d}"
            );
        }
        // A perfect-square product beyond 2^53: exact answer recovered.
        let d0 = (1u64 << 53) + 12_345;
        // 2·d0² = w·i with w = 2·d0, i = d0.
        assert_eq!(max_dataset_bytes_block(2 * d0, d0), d0);
    }

    #[test]
    fn max_v_block_exact_agrees_with_f64_path_in_range() {
        // Below 2^53 products the two forms must agree (parity check).
        for (s, w, i) in
            [(100_000u64, 200_000_000u64, 1_000_000_000u64), (1_000, 1 << 20, 1 << 30), (1, 4, 8)]
        {
            let exact = max_dataset_bytes_block(w, i) / s;
            let f = ((w as f64 * i as f64 / 2.0).sqrt() / s as f64).floor();
            assert_eq!(exact as f64, f, "s={s} w={w} i={i}");
            assert_eq!(max_v_block(s as f64, w as f64, i as f64), exact as f64);
        }
    }

    #[test]
    fn afrati_ullman_lower_bound() {
        // Broadcast-sized reducers (q = v): bound collapses to 1.
        assert_eq!(replication_rate_lower_bound(1_000, 1_000), 1.0);
        // Pair-sized reducers (q = 2): every pair its own reducer, r = v−1.
        assert_eq!(replication_rate_lower_bound(1_000, 2), 999.0);
        // √v-sized reducers: r ≥ ≈ √v — the regime quorum/design attain.
        let r = replication_rate_lower_bound(10_000, 100);
        assert!((r - 9_999.0 / 99.0).abs() < 1e-9);
        // Degenerate reducers can never pair anything.
        assert_eq!(replication_rate_lower_bound(10, 1), f64::INFINITY);
        // Capacity from the environment.
        assert_eq!(reducer_capacity(500.0 * KB, 200.0 * MB), 400);
    }
}
