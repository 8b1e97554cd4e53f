//! Experiment E3 — the paper's §7 future-work extensions, implemented and
//! measured: hierarchical two-level block processing and batched design
//! processing "ease both limits" (working-set size and intermediate
//! storage) relative to their flat counterparts.
//!
//! ```sh
//! cargo run --release -p pmr-bench --bin hierarchical
//! ```

use pmr_apps::generate::opaque_elements;
use pmr_bench::{fmt_u64, print_table};
use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::hierarchical::{BatchedDesign, TwoLevelBlock};
use pmr_core::runner::{comp_fn, Backend, CompFn, PairwiseJob};
use pmr_core::scheme::{BlockScheme, DesignScheme};

fn comp() -> CompFn<bytes::Bytes, u64> {
    comp_fn(|a: &bytes::Bytes, b: &bytes::Bytes| (a[0] ^ b[0]) as u64)
}

fn main() {
    let v = 240u64;
    let element_size = 512usize;
    let payloads = opaque_elements(v as usize, element_size, 3);

    // --- Two-level block vs flat block at equal task working-set size. ---
    // Flat h = 12 and two-level (H = 4, f = 3) both bound working sets by
    // 2⌈v/12⌉ = 40 elements, but the two-level variant materializes only
    // one coarse round at a time.
    let flat = BlockScheme::new(v, 12);
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let flat_run = PairwiseJob::new(&payloads, comp())
        .scheme(flat)
        .backend(Backend::Mr(&cluster))
        .run()
        .expect("flat block run failed");
    let flat_report = &flat_run.mr[0];

    let tlb = TwoLevelBlock::new(v, 4, 3);
    let cluster2 = Cluster::new(ClusterConfig::with_nodes(4));
    let tlb_run = PairwiseJob::new(&payloads, comp())
        .rounds(tlb.rounds())
        .backend(Backend::Mr(&cluster2))
        .run()
        .expect("two-level run failed");
    let tlb_reports = &tlb_run.mr;
    assert_eq!(flat_run.output, tlb_run.output, "hierarchical result must equal flat result");

    let tlb_peak = tlb_reports.iter().map(|r| r.peak_intermediate_bytes).max().unwrap();
    let tlb_ws = tlb_reports.iter().map(|r| r.max_working_set_bytes).max().unwrap();
    let rows = vec![
        vec![
            "flat block h=12".into(),
            "1".into(),
            fmt_u64(flat_report.max_working_set_bytes),
            fmt_u64(flat_report.peak_intermediate_bytes),
            fmt_u64(flat_report.evaluations),
        ],
        vec![
            "two-level H=4, f=3".into(),
            fmt_u64(tlb.num_rounds()),
            fmt_u64(tlb_ws),
            fmt_u64(tlb_peak),
            fmt_u64(tlb_reports.iter().map(|r| r.evaluations).sum::<u64>()),
        ],
    ];
    print_table(
        &format!("two-level block vs flat (v = {v}, 512-B elements, equal ws bound)"),
        &["scheme", "sequential rounds", "peak ws [B]", "peak intermediate [B]", "evaluations"],
        &rows,
    );
    println!(
        "intermediate-storage reduction: {:.1}× (results identical)",
        flat_report.peak_intermediate_bytes as f64 / tlb_peak as f64
    );

    // --- Batched design vs flat design. ---
    let flat_design = DesignScheme::new(v);
    let cluster3 = Cluster::new(ClusterConfig::with_nodes(4));
    let design_run = PairwiseJob::new(&payloads, comp())
        .scheme(flat_design)
        .backend(Backend::Mr(&cluster3))
        .run()
        .expect("flat design run failed");
    let design_report = &design_run.mr[0];

    let mut rows = vec![vec![
        "flat design".into(),
        "1".into(),
        fmt_u64(design_report.peak_intermediate_bytes),
        fmt_u64(design_report.evaluations),
    ]];
    for batches in [4u64, 16] {
        let cluster4 = Cluster::new(ClusterConfig::with_nodes(4));
        let run = PairwiseJob::new(&payloads, comp())
            .rounds(BatchedDesign::new(v, batches).rounds())
            .backend(Backend::Mr(&cluster4))
            .run()
            .expect("batched design run failed");
        assert_eq!(run.output, design_run.output, "batched design must equal flat design");
        let reports = &run.mr;
        let peak = reports.iter().map(|r| r.peak_intermediate_bytes).max().unwrap();
        rows.push(vec![
            format!("batched design ({batches} rounds)"),
            fmt_u64(reports.len() as u64),
            fmt_u64(peak),
            fmt_u64(reports.iter().map(|r| r.evaluations).sum::<u64>()),
        ]);
    }
    print_table(
        &format!("batched design vs flat design (v = {v})"),
        &["scheme", "sequential rounds", "peak intermediate [B]", "evaluations"],
        &rows,
    );
    println!("\nboth §7 mechanisms trade sequential rounds for strictly lower peak");
    println!("intermediate storage at unchanged results — 'this method eases both limits'");
}
