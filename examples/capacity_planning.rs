//! Capacity planning with the paper's feasibility models: given your
//! element size, cluster limits, and `comp` cost, which scheme fits and
//! how should you parameterize it?
//!
//! Walks the §6 analysis end-to-end for a concrete workload — the paper's
//! own §3 example of 10,000 × 500 KB elements.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use pairwise_mr::core::analysis::costmodel::{rank_feasible_schemes, CostParams};
use pairwise_mr::core::analysis::limits::{
    block_design_crossover, fig9b_point, h_bounds, units::*,
};
use pairwise_mr::core::scheme::DesignScheme;
use pairwise_mr::designs::primes::smallest_plane_order;

fn main() {
    // The paper's §3 example workload.
    let v: u64 = 10_000;
    let element = 500.0 * KB;
    let dataset = v as f64 * element;
    let maxws = 200.0 * MB;
    let maxis = 1.0 * TB;
    println!("workload: v = {v} elements × 500 KB = {:.1} GB dataset", dataset / GB);
    println!("limits:   maxws = 200 MB per task, maxis = 1 TB intermediate\n");

    // --- Which schemes are feasible at all? (Figure 9(b) math) ---
    let p = fig9b_point(element, maxws, maxis);
    println!("feasibility (max v at this element size):");
    println!("  broadcast: {:>10}  {}", p.broadcast, verdict(v, p.broadcast));
    println!("  block:     {:>10}  {}", p.block, verdict(v, p.block));
    println!("  design:    {:>10}  {}", p.design.min(p.design_both), verdict(v, p.design_both));

    // --- If block: the valid h range (Figure 9(a) math). ---
    match h_bounds(dataset, maxws, maxis) {
        Some((lo, hi)) => {
            println!("\nblock approach: any blocking factor h in [{lo}, {hi}] fits both limits");
            println!("  h = {lo}: biggest tasks, least replication ({lo}× data materialized)");
            println!(
                "  h = {hi}: smallest working sets ({:.1} MB each)",
                2.0 * dataset / hi as f64 / MB
            );
        }
        None => println!("\nblock approach: no valid h — dataset too large for these limits"),
    }

    // --- If design: the plane parameters (§5.3). ---
    let design = DesignScheme::shape(v);
    println!(
        "\ndesign approach: projective plane of order q = {} (q̂ = {} tasks),\n  \
         working sets of {} elements = {:.1} MB, replication {}×",
        smallest_plane_order(v),
        design.lines,
        design.working_set,
        design.working_set as f64 * element / MB,
        design.replication
    );

    // --- Crossover context. ---
    println!(
        "\nblock/design feasibility crossover at {:.2} MB elements (you are at 0.5 MB,\n\
         the block side)",
        block_design_crossover(maxws, maxis) / MB
    );

    // --- Time estimates for three comp-cost regimes. ---
    println!("\nestimated makespans (16 nodes × 2 slots, ~117 MB/s links):");
    for (label, comp_us) in [
        ("cheap comp (1 µs)", 1.0),
        ("moderate (1 ms)", 1_000.0),
        ("expensive (100 ms)", 100_000.0),
    ] {
        let params = CostParams {
            v,
            element_bytes: element as u64,
            comp_cost_us: comp_us,
            ..Default::default()
        };
        let ranking = rank_feasible_schemes(&params, maxws, maxis);
        let (best, h) = &ranking[0];
        let cfg = h.map(|h| format!(" (h = {h})")).unwrap_or_default();
        println!(
            "  {label:>20}: {}{} — ~{:.1} min (runner-up {}: ~{:.1} min)",
            best.scheme,
            cfg,
            best.total_us / 60e6,
            ranking[1].0.scheme,
            ranking[1].0.total_us / 60e6,
        );
    }
    println!("\n(the model orders schemes; see EXPERIMENTS.md A1 for its validation)");
}

fn verdict(v: u64, max_v: f64) -> &'static str {
    if (v as f64) <= max_v {
        "feasible ✓"
    } else {
        "INFEASIBLE ✗"
    }
}
