//! Perf-trajectory harness — records dense/sparse pairs-per-second into
//! `BENCH_pairwise.json` at the repo root, independently of `cargo bench`,
//! so hot-path changes can be compared against the committed baseline.
//!
//! ```sh
//! cargo run --release -p pmr-bench --bin perf_baseline            # print only
//! cargo run --release -p pmr-bench --bin perf_baseline -- --record <label>
//! cargo run --release -p pmr-bench --bin perf_baseline -- --record-mp
//! cargo run --release -p pmr-bench --bin perf_baseline -- --record-quorum
//! cargo run --release -p pmr-bench --bin perf_baseline -- --record-pruned
//! cargo run --release -p pmr-bench --bin perf_baseline -- --record-trace-overhead
//! cargo run --release -p pmr-bench --bin perf_baseline -- --smoke # CI fast mode
//! ```
//!
//! Every invocation also drives the dense workload end-to-end over real
//! `pmr-worker` processes (UDS) and reports the bytes physically measured
//! on the worker sockets; `--record-mp` pins that as the
//! `multiprocess-shuffle` entry. Build the worker binary first
//! (`cargo build --release -p pmr-cluster --bin pmr-worker`).
//!
//! The dense workload is the acceptance configuration: v = 2048 vectors of
//! dim 64, squared Euclidean distance, block scheme, 8 threads. The scalar
//! comp uses the same 4-accumulator summation order as the batch kernel so
//! results are bit-identical across the scalar and batched paths — speedups
//! must come from execution machinery, never from changing the math.

use std::sync::Arc;
use std::time::Instant;

use pmr_apps::distance::euclidean_comp;
use pmr_apps::docsim::tfidf;
use pmr_apps::generate::{gene_expression, zipf_documents};
use pmr_apps::kernels::{DenseSqDistKernel, SparseDotKernel};
use pmr_apps::prune::PrefixFilter;
use pmr_apps::{DenseVector, SparseVector};
use pmr_cluster::{Cluster, ClusterConfig, SocketMode, Telemetry, TransportKind};
use pmr_core::runner::local::run_local;
use pmr_core::runner::{
    aggregate_all, comp_fn, Aggregator, Backend, BatchComp, CompFn, ConcatSort, FilterAggregator,
    FnAggregator, PairFilter, PairwiseJob, PairwiseOutput, Symmetry,
};
use pmr_core::scheme::{BlockScheme, DistributionScheme, QuorumScheme};

const BENCH_FILE: &str = "BENCH_pairwise.json";

/// Squared Euclidean distance with four independent accumulators combined
/// as `(s0 + s1) + (s2 + s3)` — the exact summation order of the dense
/// batch kernels, fixed here so recorded entries stay comparable bit-wise.
fn sq_dist(a: &DenseVector, b: &DenseVector) -> f64 {
    let (x, y) = (&a.0[..], &b.0[..]);
    debug_assert_eq!(x.len(), y.len(), "dimension mismatch");
    let n = x.len().min(y.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i + 4 <= n {
        let d0 = x[i] - y[i];
        let d1 = x[i + 1] - y[i + 1];
        let d2 = x[i + 2] - y[i + 2];
        let d3 = x[i + 3] - y[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        i += 4;
    }
    while i < n {
        let d = x[i] - y[i];
        s0 += d * d;
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

struct Workload<T> {
    data: Vec<T>,
    scheme: Box<dyn DistributionScheme>,
    comp: CompFn<T, f64>,
    threads: usize,
    iters: usize,
}

/// Runs the workload `iters` times and returns (pairs/sec of the best
/// iteration, output of the last run for identity checks).
fn measure<T: Send + Sync>(w: &Workload<T>) -> (f64, PairwiseOutput<f64>) {
    let v = w.data.len() as u64;
    let pairs = v * (v - 1) / 2;
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..w.iters {
        let start = Instant::now();
        let (o, _stats) = run_local(
            &w.data,
            w.scheme.as_ref(),
            &w.comp,
            Symmetry::Symmetric,
            &ConcatSort,
            w.threads,
        );
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(o);
    }
    (pairs as f64 / best, out.unwrap())
}

/// [`measure`] through a batch kernel under a caller-chosen aggregator —
/// `&ConcatSort` takes the fused path, a [`FnAggregator`] control hides
/// decomposability and forces the unfused path (every partial gathered,
/// then aggregated once per element).
fn measure_kernel<T: Send + Sync>(
    w: &Workload<T>,
    kernel: &dyn BatchComp<T, f64>,
    aggregator: &dyn Aggregator<f64>,
) -> (f64, PairwiseOutput<f64>) {
    let v = w.data.len() as u64;
    let pairs = v * (v - 1) / 2;
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..w.iters {
        let start = Instant::now();
        let (o, _stats) = run_local(
            &w.data,
            w.scheme.as_ref(),
            kernel,
            Symmetry::Symmetric,
            aggregator,
            w.threads,
        );
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(o);
    }
    (pairs as f64 / best, out.unwrap())
}

/// The unfused control: aggregates with the exact `ConcatSort` logic but
/// through a closure adapter, which does not advertise decomposability,
/// so the runner takes the unfused path.
fn unfused_concat_sort() -> impl Aggregator<f64> {
    FnAggregator::new(|id, partials| aggregate_all(&ConcatSort, id, partials))
}

/// Asserts two outputs are byte-identical: same elements, same neighbor
/// ids, and bitwise-equal `f64` results (NaN-proof, `±0.0`-proof).
fn assert_bit_identical(a: &PairwiseOutput<f64>, b: &PairwiseOutput<f64>, what: &str) {
    assert_eq!(a.per_element.len(), b.per_element.len(), "{what}: element count");
    for ((ida, rowa), (idb, rowb)) in a.per_element.iter().zip(&b.per_element) {
        assert_eq!(ida, idb, "{what}: element order");
        assert_eq!(rowa.len(), rowb.len(), "{what}: row {ida} length");
        for ((oa, ra), (ob, rb)) in rowa.iter().zip(rowb) {
            assert_eq!(oa, ob, "{what}: row {ida} neighbor order");
            assert_eq!(ra.to_bits(), rb.to_bits(), "{what}: result ({ida},{oa}) differs");
        }
    }
}

fn dense_workload(smoke: bool) -> Workload<DenseVector> {
    let (v, iters) = if smoke { (256, 1) } else { (2048, 5) };
    Workload {
        data: gene_expression(v, 64, 8, 0.3, 42),
        scheme: Box::new(BlockScheme::new(v as u64, if smoke { 4 } else { 16 })),
        comp: comp_fn(sq_dist),
        threads: 8,
        iters,
    }
}

/// The dense workload redistributed by the cyclic-quorum scheme: identical
/// data and comp, √v-sized working sets instead of 2⌈v/h⌉ blocks. Output
/// must be bit-identical to [`dense_workload`]'s.
fn dense_quorum_workload(smoke: bool) -> Workload<DenseVector> {
    let (v, iters) = if smoke { (256, 1) } else { (2048, 5) };
    Workload {
        data: gene_expression(v, 64, 8, 0.3, 42),
        scheme: Box::new(QuorumScheme::new(v as u64)),
        comp: comp_fn(sq_dist),
        threads: 8,
        iters,
    }
}

fn sparse_workload(smoke: bool) -> Workload<SparseVector> {
    let (v, iters) = if smoke { (256, 1) } else { (1024, 5) };
    Workload {
        data: zipf_documents(v, 4096, 64, 1.1, 7),
        scheme: Box::new(BlockScheme::new(v as u64, 8)),
        comp: comp_fn(|a: &SparseVector, b: &SparseVector| a.dot(b)),
        threads: 8,
        iters,
    }
}

/// Thresholds swept by the pruned-join measurement.
const PRUNED_THRESHOLDS: [f64; 4] = [0.5, 0.7, 0.8, 0.9];
/// The headline threshold: throughput and the 10× pruning claim are
/// asserted here.
const PRUNED_DEFAULT_T: f64 = 0.8;

/// One threshold point of the pruned-join sweep.
struct PrunedRow {
    threshold: f64,
    candidates: u64,
    evaluated: u64,
    survivors: u64,
}

/// Exact vs prefix-filtered thresholded join on the skewed corpus.
struct PrunedResult {
    v: usize,
    exact_pps: f64,
    pruned_pps: f64,
    sweep: Vec<PrunedRow>,
}

/// Measures the thresholded similarity join: a skewed Zipf corpus,
/// tf-idf-reweighted and unit-normalized (so the dot product is the
/// cosine), joined exactly and through the prefix filter. At the default
/// threshold the pruned output must be bit-identical to the exact one
/// (recall 1.0) while evaluating ≥ 10× fewer pairs; the full sweep
/// records how candidates/evaluated/survivors move with the threshold.
fn measure_pruned(smoke: bool) -> PrunedResult {
    let (v, iters) = if smoke { (256usize, 1) } else { (2048, 3) };
    let mut raw = zipf_documents(v, 8192, 64, 1.2, 13);
    // Plant near-duplicates (every 64th document copied with its last
    // term dropped) so the join has a real survivor set at every
    // threshold, not just pairs to prune.
    for i in (0..v.saturating_sub(1)).step_by(64) {
        let mut twin = raw[i].clone();
        twin.0.pop();
        raw[i + 1] = twin;
    }
    let corpus: Vec<SparseVector> = tfidf(&raw)
        .into_iter()
        .map(|vec| {
            let n = vec.norm();
            if n == 0.0 {
                vec
            } else {
                SparseVector(vec.0.into_iter().map(|(i, w)| (i, w / n)).collect())
            }
        })
        .collect();
    let pairs = (v as u64) * (v as u64 - 1) / 2;
    // Throughput is pairs of the *full relation* resolved per second for
    // both runs, so the pruned number is directly comparable.
    let time_join = |filter: Option<&Arc<dyn PairFilter>>, t: f64, iters: usize| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..iters {
            let mut job =
                PairwiseJob::new(&corpus, comp_fn(|a: &SparseVector, b: &SparseVector| a.dot(b)))
                    .scheme(BlockScheme::new(v as u64, 8))
                    .aggregator_arc(Arc::new(FilterAggregator::new(move |r: &f64| *r >= t))
                        as Arc<dyn Aggregator<f64>>)
                    .backend(Backend::Local { threads: 8 });
            if let Some(f) = filter {
                job = job.pair_filter_arc(Arc::clone(f));
            }
            let start = Instant::now();
            let run = job.run().expect("thresholded join run");
            best = best.min(start.elapsed().as_secs_f64());
            out = Some(run);
        }
        (pairs as f64 / best, out.unwrap())
    };

    let (exact_pps, exact) = time_join(None, PRUNED_DEFAULT_T, iters);
    let mut sweep = Vec::new();
    let mut pruned_pps = 0.0;
    for &t in &PRUNED_THRESHOLDS {
        let headline = (t - PRUNED_DEFAULT_T).abs() < 1e-12;
        let filter: Arc<dyn PairFilter> = Arc::new(PrefixFilter::build(&corpus, t));
        let (pps, run) = time_join(Some(&filter), t, if headline { iters } else { 1 });
        let p = run.report.pruning.as_ref().expect("filtered run reports pruning");
        let (candidates, evaluated) = (p.candidates, p.evaluated);
        let survivors: u64 =
            run.output.per_element.iter().map(|(_, r)| r.len() as u64).sum::<u64>() / 2;
        if headline {
            assert_bit_identical(
                &exact.output,
                &run.output,
                "prefix-pruned vs exact thresholded join",
            );
            assert!(
                evaluated * 10 <= candidates,
                "pruning claim violated at t={t}: evaluated {evaluated} of {candidates}"
            );
            pruned_pps = pps;
        }
        sweep.push(PrunedRow { threshold: t, candidates, evaluated, survivors });
    }
    PrunedResult { v, exact_pps, pruned_pps, sweep }
}

/// Records the thresholded-join row: exact vs pruned throughput at the
/// default threshold plus the candidate/evaluated/survivor sweep.
fn record_pruned(r: &PrunedResult) {
    let sweep = r
        .sweep
        .iter()
        .map(|row| {
            format!(
                "{{ \"threshold\": {:.2}, \"candidates\": {}, \"evaluated\": {}, \
                 \"survivors\": {} }}",
                row.threshold, row.candidates, row.evaluated, row.survivors
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    record_entry(
        "pruned-join",
        format!(
            "    {{ \"label\": \"pruned-join\", \"pruner\": \"prefix\", \"threshold\": {:.2}, \
             \"pairs_per_sec_exact\": {:.0}, \"pairs_per_sec_pruned\": {:.0}, \
             \"sweep\": [ {sweep} ] }}",
            PRUNED_DEFAULT_T, r.exact_pps, r.pruned_pps
        ),
    );
}

/// Throughput and physically-moved wire bytes of a full two-job pipeline
/// over real `pmr-worker` processes (UDS sockets).
struct MpResult {
    pairs_per_sec: f64,
    wire_mb_per_sec: f64,
    wire_mb: f64,
}

/// Runs the dense workload end-to-end on the multi-process transport and
/// reports pairs/s plus MB/s physically measured on the worker sockets —
/// the per-run [`WireSnapshot`](pmr_cluster::WireSnapshot) delta, so the
/// shuffle/seed traffic is byte-exact, not modelled. Asserts the output
/// is bit-identical to an in-process run of the same configuration.
fn measure_multiprocess(smoke: bool) -> MpResult {
    let (v, workers, iters) = if smoke { (128usize, 2, 1) } else { (512, 4, 3) };
    let data = gene_expression(v, 64, 8, 0.3, 42);
    let pairs = (v as u64) * (v as u64 - 1) / 2;

    let run_once = |cluster: &Cluster| {
        PairwiseJob::new(&data, euclidean_comp())
            .scheme(BlockScheme::new(v as u64, 8))
            .backend(Backend::Mr(cluster))
            .run()
            .expect("multiprocess pairwise run")
    };

    let inproc = Cluster::new(ClusterConfig::with_nodes(workers));
    let reference = run_once(&inproc);

    let mut best = f64::INFINITY;
    let mut wire_bytes = 0u64;
    for _ in 0..iters {
        let cluster = Cluster::try_new(
            ClusterConfig::with_nodes(workers)
                .transport(TransportKind::Process { socket: SocketMode::Uds }),
        )
        .expect("spawn pmr-worker processes (cargo build -p pmr-cluster --bin pmr-worker first)");
        let start = Instant::now();
        let run = run_once(&cluster);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(
            run.output, reference.output,
            "multiprocess output must be bit-identical to in-process"
        );
        if elapsed < best {
            best = elapsed;
            wire_bytes = run.mr[0].wire.total_bytes();
        }
    }
    let wire_mb = wire_bytes as f64 / (1024.0 * 1024.0);
    MpResult { pairs_per_sec: pairs as f64 / best, wire_mb_per_sec: wire_mb / best, wire_mb }
}

/// Tracing-on vs tracing-off multiprocess throughput. The distributed
/// trace rings (worker-side frame spans + heartbeats + the shutdown
/// drain/merge) are supposed to cost < 3% end-to-end.
struct TraceOverhead {
    untraced_pairs_per_sec: f64,
    traced_pairs_per_sec: f64,
}

impl TraceOverhead {
    fn overhead_pct(&self) -> f64 {
        100.0 * (1.0 - self.traced_pairs_per_sec / self.untraced_pairs_per_sec)
    }
}

/// Runs the dense workload over real worker processes twice per
/// iteration — tracing disabled, then fully traced (worker rings +
/// clock-offset pings + drain/merge) — and compares best-iteration
/// throughput. The traced run must still drain events from every worker,
/// so the comparison covers the whole telemetry path, not just the arm
/// flag.
fn measure_trace_overhead(smoke: bool) -> TraceOverhead {
    let (v, workers, iters) = if smoke { (128usize, 2, 1) } else { (512, 4, 3) };
    let data = gene_expression(v, 64, 8, 0.3, 42);
    let pairs = (v as u64) * (v as u64 - 1) / 2;
    let mut best = [f64::INFINITY; 2]; // [untraced, traced]
    for _ in 0..iters {
        for (slot, traced) in [(0usize, false), (1, true)] {
            let telemetry = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
            let cluster = Cluster::try_new(
                ClusterConfig::with_nodes(workers)
                    .transport(TransportKind::Process { socket: SocketMode::Uds }),
            )
            .expect("spawn pmr-worker processes")
            .with_telemetry(telemetry.clone());
            let start = Instant::now();
            let run = PairwiseJob::new(&data, euclidean_comp())
                .scheme(BlockScheme::new(v as u64, 8))
                .backend(Backend::Mr(&cluster))
                .telemetry(telemetry.clone())
                .run()
                .expect("multiprocess pairwise run");
            best[slot] = best[slot].min(start.elapsed().as_secs_f64());
            if traced {
                assert!(
                    !run.report.trace.is_empty(),
                    "traced run must actually merge worker events"
                );
            }
        }
    }
    TraceOverhead {
        untraced_pairs_per_sec: pairs as f64 / best[0],
        traced_pairs_per_sec: pairs as f64 / best[1],
    }
}

/// Locates the repo root by walking up from CWD until `BENCH_FILE`'s
/// directory (the one holding `Cargo.toml` with a `[workspace]`) is found.
fn repo_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(s) = std::fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

fn entry_json(label: &str, dense_pps: f64, sparse_pps: f64, unfused: Option<(f64, f64)>) -> String {
    let unfused = unfused
        .map(|(d, s)| {
            format!(
                ", \"dense_pairs_per_sec_unfused\": {d:.0}, \
                 \"sparse_pairs_per_sec_unfused\": {s:.0}"
            )
        })
        .unwrap_or_default();
    format!(
        "    {{ \"label\": \"{label}\", \"dense_pairs_per_sec\": {dense_pps:.0}, \
         \"sparse_pairs_per_sec\": {sparse_pps:.0}{unfused} }}"
    )
}

/// Appends an entry line to `BENCH_pairwise.json`, preserving prior
/// entries. The file is always written by this binary in a fixed layout,
/// so prior entry lines are recognizable as the lines starting with
/// `    {`. An entry whose label already exists is replaced, so re-running
/// a recorder refreshes its row instead of duplicating it.
fn record_entry(label: &str, entry: String) {
    let path = repo_root().join(BENCH_FILE);
    let needle = format!("\"label\": \"{label}\"");
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            if line.starts_with("    {") && !line.contains(&needle) {
                entries.push(line.trim_end_matches(',').to_string());
            }
        }
    }
    entries.push(entry);
    let body = entries.join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"pmr.perf/1\",\n  \"bench\": {{\n    \"dense\": {{ \"v\": 2048, \
         \"dim\": 64, \"threads\": 8, \"scheme\": \"block(h=16)\", \"comp\": \
         \"squared_euclidean\" }},\n    \"sparse\": {{ \"v\": 1024, \"vocab\": 4096, \"nnz\": 64, \
         \"threads\": 8, \"scheme\": \"block(h=8)\", \"comp\": \"dot\" }},\n    \"multiprocess\": \
         {{ \"v\": 512, \"dim\": 64, \"workers\": 4, \"scheme\": \"block(h=8)\", \"socket\": \
         \"uds\", \"comp\": \"euclidean\" }},\n    \"quorum\": {{ \"v\": 2048, \"dim\": 64, \
         \"threads\": 8, \"scheme\": \"quorum(k≈45)\", \"comp\": \"squared_euclidean\" }},\n    \
         \"pruned\": {{ \"v\": 2048, \"vocab\": 8192, \"nnz\": 64, \"zipf_s\": 1.2, \
         \"near_dups\": 32, \"threads\": 8, \"scheme\": \"block(h=8)\", \"comp\": \"dot(tfidf, \
         unit-normalized)\", \"pruner\": \"prefix\" }}\n  }},\n  \"entries\": [\n{body}\n  ]\n}}\n"
    );
    std::fs::write(&path, json).expect("write BENCH_pairwise.json");
    println!("recorded entry '{label}' in {}", path.display());
}

fn record(label: &str, dense_pps: f64, sparse_pps: f64, unfused: Option<(f64, f64)>) {
    record_entry(label, entry_json(label, dense_pps, sparse_pps, unfused));
}

/// Records the multi-process transport row: end-to-end pairs/s over real
/// worker processes plus the MB/s physically measured on their sockets.
fn record_multiprocess(mp: &MpResult) {
    let label = "multiprocess-shuffle";
    record_entry(
        label,
        format!(
            "    {{ \"label\": \"{label}\", \"pairs_per_sec\": {:.0}, \
             \"wire_mb_per_sec\": {:.2}, \"wire_mb\": {:.2} }}",
            mp.pairs_per_sec, mp.wire_mb_per_sec, mp.wire_mb
        ),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let label = args
        .iter()
        .position(|a| a == "--record")
        .map(|i| args.get(i + 1).expect("--record needs a label").clone());

    let dense = dense_workload(smoke);
    let (dense_scalar_pps, dense_out) = measure(&dense);
    let dense_kern = DenseSqDistKernel::for_dataset(&dense.data).expect("uniform dims");
    let (dense_pps, dense_kout) = measure_kernel(&dense, &dense_kern, &ConcatSort);
    assert_bit_identical(&dense_out, &dense_kout, "dense scalar vs kernel");
    let (dense_unfused_pps, dense_uout) =
        measure_kernel(&dense, &dense_kern, &unfused_concat_sort());
    assert_bit_identical(&dense_kout, &dense_uout, "dense fused vs unfused");
    println!(
        "dense  (v={}, dim=64, {} threads): {:>12.0} pairs/s scalar, {:>12.0} pairs/s kernel \
         ({:>12.0} unfused)",
        dense.data.len(),
        dense.threads,
        dense_scalar_pps,
        dense_pps,
        dense_unfused_pps
    );

    let sparse = sparse_workload(smoke);
    let (sparse_scalar_pps, sparse_out) = measure(&sparse);
    let (sparse_pps, sparse_kout) = measure_kernel(&sparse, &SparseDotKernel, &ConcatSort);
    assert_bit_identical(&sparse_out, &sparse_kout, "sparse scalar vs kernel");
    let (sparse_unfused_pps, sparse_uout) =
        measure_kernel(&sparse, &SparseDotKernel, &unfused_concat_sort());
    assert_bit_identical(&sparse_kout, &sparse_uout, "sparse fused vs unfused");
    println!(
        "sparse (v={}, nnz≈64, {} threads): {:>12.0} pairs/s scalar, {:>12.0} pairs/s kernel \
         ({:>12.0} unfused)",
        sparse.data.len(),
        sparse.threads,
        sparse_scalar_pps,
        sparse_pps,
        sparse_unfused_pps
    );

    // Quorum redistribution of the dense workload: same data, same comp,
    // same kernel — the aggregated output must be bit-identical to the
    // block-scheme run even though the task decomposition is disjoint.
    let quorum = dense_quorum_workload(smoke);
    let (quorum_scalar_pps, quorum_out) = measure(&quorum);
    assert_bit_identical(&dense_out, &quorum_out, "dense block vs quorum scalar");
    let (quorum_pps, quorum_kout) = measure_kernel(&quorum, &dense_kern, &ConcatSort);
    assert_bit_identical(&quorum_out, &quorum_kout, "quorum scalar vs kernel");
    println!(
        "quorum (v={}, dim=64, {} threads): {:>12.0} pairs/s scalar, {:>12.0} pairs/s kernel",
        quorum.data.len(),
        quorum.threads,
        quorum_scalar_pps,
        quorum_pps,
    );

    // Sanity: every element has v−1 neighbors (exactly-once coverage made
    // it into the aggregated output), so a scheduler bug fails fast here.
    for out in [&dense_out, &sparse_out, &quorum_out] {
        let v = out.per_element.len();
        assert!(out.per_element.iter().all(|(_, r)| r.len() == v - 1), "missing pair results");
    }

    let pruned = measure_pruned(smoke);
    let headline =
        pruned.sweep.iter().find(|r| (r.threshold - PRUNED_DEFAULT_T).abs() < 1e-12).unwrap();
    println!(
        "pruned (v={}, t={}, prefix): {:>12.0} pairs/s exact, {:>12.0} pairs/s pruned \
         ({:.1}× — {} of {} pairs evaluated, {} survivors)",
        pruned.v,
        PRUNED_DEFAULT_T,
        pruned.exact_pps,
        pruned.pruned_pps,
        pruned.pruned_pps / pruned.exact_pps,
        headline.evaluated,
        headline.candidates,
        headline.survivors
    );

    let mp = measure_multiprocess(smoke);
    println!(
        "multiproc (v={}, {} workers, uds): {:>12.0} pairs/s end-to-end, {:>8.2} MB on the wire \
         ({:>8.2} MB/s)",
        if smoke { 128 } else { 512 },
        if smoke { 2 } else { 4 },
        mp.pairs_per_sec,
        mp.wire_mb,
        mp.wire_mb_per_sec
    );

    if let Some(label) = label {
        record(&label, dense_pps, sparse_pps, Some((dense_unfused_pps, sparse_unfused_pps)));
    }
    if args.iter().any(|a| a == "--record-mp") {
        assert!(!smoke, "--record-mp needs the full workload, not --smoke");
        record_multiprocess(&mp);
    }
    let overhead = measure_trace_overhead(smoke);
    println!(
        "trace overhead (multiproc, {} workers): {:>12.0} pairs/s untraced, {:>12.0} pairs/s \
         traced ({:+.2}% overhead, target < 3%)",
        if smoke { 2 } else { 4 },
        overhead.untraced_pairs_per_sec,
        overhead.traced_pairs_per_sec,
        overhead.overhead_pct()
    );

    if args.iter().any(|a| a == "--record-trace-overhead") {
        assert!(!smoke, "--record-trace-overhead needs the full workload, not --smoke");
        record_entry(
            "distributed-trace-overhead",
            format!(
                "    {{ \"label\": \"distributed-trace-overhead\", \
                 \"pairs_per_sec_untraced\": {:.0}, \"pairs_per_sec_traced\": {:.0}, \
                 \"overhead_pct\": {:.2} }}",
                overhead.untraced_pairs_per_sec,
                overhead.traced_pairs_per_sec,
                overhead.overhead_pct()
            ),
        );
    }
    if args.iter().any(|a| a == "--record-pruned") {
        assert!(!smoke, "--record-pruned needs the full workload, not --smoke");
        record_pruned(&pruned);
    }
    if args.iter().any(|a| a == "--record-quorum") {
        assert!(!smoke, "--record-quorum needs the full workload, not --smoke");
        record_entry(
            "quorum",
            format!(
                "    {{ \"label\": \"quorum\", \"dense_pairs_per_sec\": {quorum_pps:.0}, \
                 \"dense_pairs_per_sec_scalar\": {quorum_scalar_pps:.0} }}"
            ),
        );
    }
    if smoke {
        println!("smoke mode OK");
    }
}
