//! Analytic makespan model: which scheme is fastest for a given workload?
//!
//! Table 1 compares the schemes metric-by-metric but stops short of a
//! combined time estimate. This module composes those metrics into a
//! simple makespan model so the trade-offs become one number:
//!
//! ```text
//! T(scheme) ≈ waves · (task_overhead + W·s/bw + E·c)  +  2·v·r·s / (n·bw)
//! ```
//!
//! with `waves = ⌈p / (n·slots)⌉` task waves, `W` working-set elements per
//! task, `E` evaluations per task, `c` the cost of one `comp`, `r` the
//! replication factor, `s` the element size, `bw` per-link bandwidth — the
//! first term is the critical path through the compute phase (each task
//! first pulls its working set, then evaluates), the second the
//! aggregation-phase shuffle spread over `n` parallel links.
//!
//! The model is deliberately coarse (no overlap of transfer and compute, no
//! stragglers); its value is *ordering* schemes and locating crossovers,
//! which `pmr-bench --bin scheme_advisor` validates against real measured
//! wall times on the local backend.

use std::ops::RangeInclusive;

use crate::analysis::limits::{
    h_bounds, max_v_broadcast, max_v_design_both, reducer_capacity, replication_rate_lower_bound,
};
use crate::scheme::{BlockScheme, BroadcastScheme, DesignScheme, QuorumScheme, Shape};

/// Workload and environment parameters for the makespan model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Dataset cardinality `v`.
    pub v: u64,
    /// Element size in bytes.
    pub element_bytes: u64,
    /// Number of nodes `n`.
    pub n_nodes: u64,
    /// Concurrent task slots per node.
    pub slots_per_node: u64,
    /// Cost of one `comp(a, b)` evaluation, microseconds.
    pub comp_cost_us: f64,
    /// Per-link network bandwidth, bytes per second.
    pub network_bytes_per_sec: f64,
    /// Fixed per-task overhead (scheduling, process spin-up), microseconds.
    pub task_overhead_us: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            v: 10_000,
            element_bytes: 500 << 10, // the paper's §3 example: 500 KB
            n_nodes: 16,
            slots_per_node: 2,
            comp_cost_us: 1_000.0,
            network_bytes_per_sec: 117.0 * (1 << 20) as f64,
            task_overhead_us: 2_000_000.0, // ~2 s JVM-era task launch
        }
    }
}

/// Makespan estimate for one scheme, with the phase breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Scheme name.
    pub scheme: &'static str,
    /// Task waves through the cluster's slots.
    pub waves: u64,
    /// Critical-path compute+distribute time, microseconds.
    pub compute_us: f64,
    /// Aggregation shuffle time, microseconds.
    pub aggregate_us: f64,
    /// Total estimated makespan, microseconds.
    pub total_us: f64,
}

/// The makespan estimate for one cover family at one parameter, from its
/// [`Shape`].
pub fn estimate(p: &CostParams, shape: &Shape) -> CostEstimate {
    let slots = (p.n_nodes * p.slots_per_node).max(1);
    let waves = shape.lines.div_ceil(slots).max(1);
    let bw_us = p.network_bytes_per_sec / 1_000_000.0; // bytes per µs
    let ws_transfer_us = (shape.working_set * p.element_bytes) as f64 / bw_us;
    let per_task_us = p.task_overhead_us + ws_transfer_us + shape.pairs_per_line * p.comp_cost_us;
    let compute_us = waves as f64 * per_task_us;
    // Aggregation: each of the v·r copies travels once more; n links in
    // parallel.
    let aggregate_bytes = shape.replication as f64 * (p.v * p.element_bytes) as f64;
    let aggregate_us = aggregate_bytes / (bw_us * p.n_nodes as f64);
    CostEstimate {
        scheme: shape.scheme,
        waves,
        compute_us,
        aggregate_us,
        total_us: compute_us + aggregate_us,
    }
}

/// The blocking factor in `hs` with the lowest model makespan (the knob
/// the paper leaves to the user): a geometric sweep, `h ← max(h·num/den,
/// h+1)`, then every `h` within `r` of the sweep's best. The first minimum
/// wins.
fn cheapest_h(p: &CostParams, hs: RangeInclusive<u64>, (num, den): (u64, u64), r: u64) -> u64 {
    let cost = |h| estimate(p, &BlockScheme::shape(p.v, h)).total_us;
    let pick = |best: (u64, f64), h| match cost(h) {
        c if c < best.1 => (h, c),
        _ => best,
    };
    let start = (*hs.start(), cost(*hs.start()));
    let sweep = std::iter::successors(Some(*hs.start()), |&h| Some((h * num / den).max(h + 1)));
    let coarse = sweep.take_while(|h| hs.contains(h)).fold(start, pick);
    let near = coarse.0.saturating_sub(r)..=coarse.0 + r;
    near.filter(|h| hs.contains(h)).fold(coarse, pick).0
}

/// Each family at the parameter the model picks, and whether it fits the
/// environment `(maxws, maxis)` on the paper's curves (all fit without
/// one): one broadcast task per slot, and block's cheapest `h` — over
/// `1..=v`, swept coarsely and refined, or finely over its `h_bounds`.
fn choices(p: &CostParams, env: Option<(f64, f64)>) -> [(Shape, Option<u64>, bool); 4] {
    let (v, s) = (p.v, p.element_bytes as f64);
    let fits = |max_v: f64| v as f64 <= max_v;
    let h_range = env.map(|(maxws, maxis)| {
        h_bounds(v as f64 * s, maxws, maxis)
            .map(|(lo, hi)| lo..=hi.min(v))
            .filter(|r| !r.is_empty())
    });
    let (h, block_fits) = match h_range {
        Some(Some(range)) => (cheapest_h(p, range, (5, 4), 0), true),
        unbounded_or_infeasible => {
            (cheapest_h(p, 1..=v, (3, 2), 4), unbounded_or_infeasible.is_none())
        }
    };
    let design_fits = env.is_none_or(|(maxws, maxis)| fits(max_v_design_both(s, maxws, maxis)));
    [
        (
            BroadcastScheme::shape(v, (p.n_nodes * p.slots_per_node).max(1)),
            None,
            env.is_none_or(|(maxws, _)| fits(max_v_broadcast(s, maxws))),
        ),
        (BlockScheme::shape(v, h), Some(h), block_fits),
        (DesignScheme::shape(v), None, design_fits),
        (QuorumScheme::shape(v), None, design_fits),
    ]
}

fn rank(p: &CostParams, env: Option<(f64, f64)>) -> Vec<(CostEstimate, Option<u64>)> {
    let mut out: Vec<_> = choices(p, env)
        .into_iter()
        .filter(|&(_, _, fits)| fits)
        .map(|(shape, h, _)| (estimate(p, &shape), h))
        .collect();
    out.sort_by(|(a, _), (b, _)| a.total_us.total_cmp(&b.total_us));
    out
}

/// Ranks all four approaches for the given parameters, fastest first,
/// with block's blocking factor.
pub fn rank_schemes(p: &CostParams) -> Vec<(CostEstimate, Option<u64>)> {
    rank(p, None)
}

/// Like [`rank_schemes`] but drops schemes that violate the environment
/// limits (`maxws`, `maxis` — the paper's §6 feasibility analysis), and
/// restricts the blocking-factor search to its valid range. Returns an
/// empty vector when nothing fits.
pub fn rank_feasible_schemes(
    p: &CostParams,
    maxws: f64,
    maxis: f64,
) -> Vec<(CostEstimate, Option<u64>)> {
    rank(p, Some((maxws, maxis)))
}

/// One scheme's placement against the Afrati–Ullman replication-rate lower
/// bound for a given environment (`maxws`, `maxis`).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// The scheme's analytic replication rate at this `v`.
    pub replication: f64,
    /// The scheme's working-set size in elements (its reducer size).
    pub working_set: u64,
    /// The environment lower bound `(v−1)/(q_cap−1)` at the reducer
    /// capacity `q_cap = ⌊maxws/s⌋` — no scheme that fits `maxws` can
    /// replicate less.
    pub env_lower_bound: f64,
    /// The bound at the scheme's *own* reducer size `(v−1)/(W−1)`: how much
    /// replication its working-set choice forces. `replication /
    /// own_lower_bound` is the scheme's distance from the frontier.
    pub own_lower_bound: f64,
    /// Whether the scheme fits both environment limits at this `v`.
    pub feasible: bool,
}

/// Places every scheme against the Afrati–Ullman replication-rate lower
/// bound (arXiv 1206.4377) for the environment `maxws`/`maxis`: the
/// replication-rate frontier the `scheme_advisor` reports. The block row
/// uses the best feasible `h` (the best `h` overall, marked infeasible,
/// when none is feasible).
pub fn replication_frontier(p: &CostParams, maxws: f64, maxis: f64) -> Vec<FrontierRow> {
    let env_lower_bound =
        replication_rate_lower_bound(p.v, reducer_capacity(p.element_bytes as f64, maxws));
    choices(p, Some((maxws, maxis)))
        .into_iter()
        .map(|(shape, _, feasible)| FrontierRow {
            scheme: shape.scheme,
            replication: shape.replication as f64,
            working_set: shape.working_set,
            env_lower_bound,
            own_lower_bound: replication_rate_lower_bound(p.v, shape.working_set),
            feasible,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(ranked: &[(CostEstimate, Option<u64>)], scheme: &str) -> (CostEstimate, Option<u64>) {
        *ranked.iter().find(|(e, _)| e.scheme == scheme).unwrap()
    }

    #[test]
    fn expensive_comp_dominates_everything() {
        // When comp is very expensive, total time ≈ total evals / slots ·
        // cost for every scheme; they converge within task-overhead noise.
        let p =
            CostParams { comp_cost_us: 1e6, element_bytes: 1 << 10, v: 1000, ..Default::default() };
        let ranked = rank_schemes(&p);
        let (b, bl, d) =
            (cost(&ranked, "broadcast").0, cost(&ranked, "block").0, cost(&ranked, "design").0);
        let lo = b.total_us.min(bl.total_us).min(d.total_us);
        let hi = b.total_us.max(bl.total_us).max(d.total_us);
        assert!(hi / lo < 3.0, "b={} bl={} d={}", b.total_us, bl.total_us, d.total_us);
    }

    #[test]
    fn cheap_comp_large_elements_favor_low_replication() {
        // Data movement dominates: block with a small optimal h should beat
        // broadcast (which replicates the whole dataset per task wave).
        let p = CostParams {
            comp_cost_us: 0.01,
            element_bytes: 1 << 20,
            v: 5_000,
            task_overhead_us: 0.0,
            ..Default::default()
        };
        let ranking = rank_schemes(&p);
        // Block with a small optimal h wins; broadcast pays full
        // replication per task, design pays √v replication in aggregation.
        assert_eq!(ranking[0].0.scheme, "block", "{ranking:?}");
        let block_t = ranking[0].0.total_us;
        let broadcast_t = ranking.iter().find(|(e, _)| e.scheme == "broadcast").unwrap().0.total_us;
        assert!(broadcast_t > 2.0 * block_t);
    }

    #[test]
    fn best_h_beats_extremes() {
        let p = CostParams::default();
        let (best, h) = cost(&rank_schemes(&p), "block");
        assert!(h.unwrap() >= 1);
        assert!(best.total_us <= estimate(&p, &BlockScheme::shape(p.v, 1)).total_us);
        assert!(best.total_us <= estimate(&p, &BlockScheme::shape(p.v, p.v)).total_us);
    }

    #[test]
    fn makespan_decreases_with_more_nodes() {
        let small = CostParams { n_nodes: 4, ..Default::default() };
        let big = CostParams { n_nodes: 64, ..Default::default() };
        let design = DesignScheme::shape(10_000);
        assert!(estimate(&big, &design).total_us < estimate(&small, &design).total_us);
        assert!(rank_schemes(&big)[0].0.total_us < rank_schemes(&small)[0].0.total_us);
    }

    #[test]
    fn feasible_ranking_excludes_limit_violations() {
        // The paper's §3 workload: 10,000 × 500 KB with maxws = 200 MB —
        // broadcast's 5 GB working set is infeasible, block and design fit.
        let p = CostParams::default();
        let ranked = rank_feasible_schemes(&p, 200e6, 1e12);
        assert!(!ranked.is_empty());
        assert!(ranked.iter().all(|(e, _)| e.scheme != "broadcast"), "{ranked:?}");
        // The unfiltered ranking does include broadcast.
        assert!(rank_schemes(&p).iter().any(|(e, _)| e.scheme == "broadcast"));
        // Block's chosen h lies in the feasible interval [50, 200].
        let h = ranked.iter().find_map(|(e, h)| (e.scheme == "block").then_some(*h)).flatten();
        if let Some(h) = h {
            assert!((50..=200).contains(&h), "h = {h}");
        }
        // Nothing fits a hopeless environment.
        assert!(rank_feasible_schemes(&p, 1e3, 1e6).is_empty());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = CostParams::default();
        let shapes = [
            BroadcastScheme::shape(p.v, 32),
            BlockScheme::shape(p.v, 16),
            DesignScheme::shape(p.v),
            QuorumScheme::shape(p.v),
        ];
        for est in shapes.map(|shape| estimate(&p, &shape)) {
            assert!((est.compute_us + est.aggregate_us - est.total_us).abs() < 1e-6);
            assert!(est.waves >= 1);
        }
    }

    #[test]
    fn frontier_places_every_scheme_above_the_lower_bound() {
        // The paper's §3 workload: 10,000 × 500 KB, maxws 200 MB, maxis 1 TB.
        let p = CostParams::default();
        let rows = replication_frontier(&p, 200e6, 1e12);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // No scheme beats the Afrati–Ullman bound at its own reducer
            // size (replication ≥ (v−1)/(W−1), with a hair of slack for
            // the broadcast row's p < bound-at-v case).
            assert!(
                r.replication >= r.own_lower_bound * 0.999 || !r.feasible,
                "{}: r={} own bound={}",
                r.scheme,
                r.replication,
                r.own_lower_bound
            );
            // q_cap = ⌊200 MB / 512 KB⌋ = 390 elements.
            assert_eq!(
                r.env_lower_bound,
                crate::analysis::limits::replication_rate_lower_bound(10_000, 390),
                "{}",
                r.scheme
            );
        }
        // Broadcast cannot fit 5 GB in 200 MB; quorum and design can.
        let by_name = |n: &str| rows.iter().find(|r| r.scheme == n).unwrap();
        assert!(!by_name("broadcast").feasible);
        assert!(by_name("design").feasible);
        assert!(by_name("quorum").feasible);
        // Quorum sits near the frontier: within a small factor of the bound
        // at its own reducer size (k(k−1) ≥ v−1 ⇒ ratio ≤ ~k/(k−1)·c).
        let q = by_name("quorum");
        assert!(
            q.replication <= 2.5 * q.own_lower_bound,
            "quorum r={} vs own bound {}",
            q.replication,
            q.own_lower_bound
        );
    }

    #[test]
    fn feasible_ranking_includes_quorum_when_it_fits() {
        let p = CostParams::default();
        let ranked = rank_feasible_schemes(&p, 200e6, 1e12);
        assert!(ranked.iter().any(|(e, _)| e.scheme == "quorum"), "{ranked:?}");
        assert!(rank_schemes(&p).iter().any(|(e, _)| e.scheme == "quorum"));
    }
}
