//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use pmr_apps::distance::{cosine_distance, euclidean, manhattan};
use pmr_apps::generate::{gaussian_clusters, gene_expression, random_matrix_rows};
use pmr_apps::prune::{LshFilter, PrefixFilter};
use pmr_cluster::{Cluster, ClusterConfig, SocketMode, TransportKind};
use pmr_core::analysis::costmodel::{rank_feasible_schemes, replication_frontier, CostParams};
use pmr_core::analysis::limits::{fig9b_point, h_bounds, reducer_capacity};
use pmr_core::analysis::table1::{table1 as table1_rows, Scenario};
use pmr_core::runner::{comp_fn, Aggregator, Backend, CompFn, FilterAggregator, PairwiseJob};
use pmr_core::scheme::{
    measure, verify_exactly_once, BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme,
    PairedBlockScheme, QuorumScheme,
};
use pmr_designs::primes::smallest_plane_order;
use pmr_obs::{export, RunReport, Telemetry, TraceDiff};

use crate::args::{ArgError, Args};
use crate::data::{read_vectors, write_results, write_vectors};

/// Top-level usage text.
pub const USAGE: &str = "\
pairwise — parallel pairwise element computation (HPDC 2010 reproduction)

USAGE: pairwise <command> [--flag value ...]

COMMANDS
  run       evaluate a function on all pairs of a CSV dataset
              --input FILE        CSV: one element per line, comma-separated
              --comp NAME         euclidean | manhattan | cosine  [euclidean]
              --scheme NAME       block | broadcast | design | quorum | paired  [block]
              --h N               blocking factor (block/paired)  [8]
              --tasks N           task count (broadcast)  [16]
              --backend NAME      local | mr | process | sequential  [local]
              --threads N         worker threads (local)  [4]
              --nodes N           simulated cluster nodes (mr)  [4]
              --workers N         real worker processes (process)  [4]
              --socket MODE       worker socket: uds | tcp (process)  [uds]
              --chaos-nodes N     crash N nodes at seeded points (mr/process)  [0]
              --chaos-seed N      seed for the crash schedule (mr/process)
              --speculation X     back up tasks slower than X × median (mr/process)
              --max-result X      keep only results ≤ X (ε-pruning)
              --threshold T       thresholded join: keep only pairs with
                                  cosine similarity ≥ T (requires --comp cosine)
              --pruner NAME       candidate pruning below the pair relation:
                                  prefix | lsh | none  [prefix]
                                  (requires --threshold; none = exact all-pairs)
              --fuse on|off       fold results where pairs are evaluated,
                                  skipping the aggregation job (local/mr/process)  [on]
              --output FILE       TSV results  [stdout]
              --report FILE       write the run report as JSON
              --live DEST         emit live JSONL progress records while the
                                  run is in flight; DEST is a file path, or
                                  '-' / 'stderr' for standard error
  generate  write a synthetic CSV dataset
              --kind NAME         clusters | genes | matrix  [clusters]
              --n N --dim D       size/shape  [200, 3]
              --seed N            RNG seed  [42]
              --output FILE       destination  [stdout]
  plan      feasibility + scheme recommendation for a workload
              --v N --element-bytes SIZE (e.g. 500KB)
              --maxws SIZE        task memory limit  [200MB]
              --maxis SIZE        intermediate storage limit  [1TB]
              --nodes N           cluster size  [16]
              --comp-us F         cost of one evaluation, µs  [1000]
  verify    exhaustively check a scheme evaluates every pair exactly once
              --scheme NAME --v N [--h N] [--tasks N]
  table1    print the paper's Table 1 for given parameters
              --v N [--nodes N] [--h N]
  trace     inspect run reports written with `run --report`
              analyze FILE        critical path, skew, and straggler summary
              export FILE --chrome OUT
                                  write a Chrome-trace JSON (chrome://tracing)
              diff A B            compare critical paths of two runs
              follow FILE         tail a --live JSONL file, printing progress
                                  until the run's done marker
              --timeout SECS      give up if no done marker arrives (follow)  [60]
  help      this text
";

/// Runs the subcommand in `args`.
pub fn dispatch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    match args.command.as_str() {
        "run" => run(args),
        "generate" => generate(args),
        "plan" => plan(args),
        "verify" => verify(args),
        "table1" => table1(args),
        "trace" => trace(args),
        other => {
            Err(Box::new(ArgError(format!("unknown command '{other}' (try 'pairwise help')"))))
        }
    }
}

fn scheme_from_args(
    args: &Args,
    v: u64,
) -> Result<Box<dyn DistributionScheme>, Box<dyn std::error::Error>> {
    let name = args.optional("scheme").unwrap_or("block");
    Ok(match name {
        "block" => Box::new(BlockScheme::new(v, args.num_or("h", 8)?)),
        "paired" => Box::new(PairedBlockScheme::new(v, args.num_or("h", 8)?)),
        "broadcast" => Box::new(BroadcastScheme::new(v, args.num_or("tasks", 16)?)),
        "design" => Box::new(DesignScheme::new(v)),
        "quorum" => Box::new(QuorumScheme::new(v)),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown scheme '{other}' (block | paired | broadcast | design | quorum)"
            ))))
        }
    })
}

/// Cluster sizing plus the chaos/speculation flags shared by the `mr` and
/// `process` backends.
fn cluster_config_from_args(
    args: &Args,
    nodes: usize,
) -> Result<ClusterConfig, Box<dyn std::error::Error>> {
    let mut config = ClusterConfig::with_nodes(nodes);
    let chaos_nodes = args.num_or("chaos-nodes", 0usize)?;
    if chaos_nodes > 0 {
        let seed = args.num_or("chaos-seed", config.chaos_seed)?;
        config = config.chaos(chaos_nodes, seed);
    }
    if let Some(s) = args.optional("speculation") {
        let mult: f64 =
            s.parse().map_err(|_| ArgError("--speculation must be a number ≥ 1".into()))?;
        if mult < 1.0 {
            return Err(Box::new(ArgError("--speculation must be ≥ 1".into())));
        }
        config = config.speculation(mult);
    }
    Ok(config)
}

/// Starts the `--live` JSONL reporter when requested. `"-"` and
/// `"stderr"` stream to standard error; anything else is a file path.
/// The returned monitor stops (writing its `done` record) on drop, so
/// callers bind it for the duration of the run.
fn start_live_monitor(
    dest: Option<&str>,
    telemetry: &Telemetry,
    probe: Option<pmr_obs::TransportProbe>,
) -> Result<Option<pmr_obs::LiveMonitor>, Box<dyn std::error::Error>> {
    let Some(dest) = dest else { return Ok(None) };
    let sink = match dest {
        "-" | "stderr" => pmr_obs::LiveSink::Stderr,
        path => pmr_obs::LiveSink::File(path.into()),
    };
    let monitor =
        pmr_obs::LiveMonitor::start(telemetry, sink, std::time::Duration::from_millis(200), probe)
            .map_err(|e| ArgError(format!("cannot start live monitor: {e}")))?;
    Ok(Some(monitor))
}

/// Builds the live monitor's transport probe over a cluster: wire bytes
/// per class plus worker liveness, sampled once per reporting interval.
fn transport_probe(cluster: &Cluster) -> pmr_obs::TransportProbe {
    let transport = std::sync::Arc::clone(cluster.transport());
    Box::new(move || {
        let snap = transport.wire_snapshot();
        pmr_obs::LiveTransportSample {
            frames: snap.frames,
            classes: snap.series(),
            workers: transport
                .workers()
                .iter()
                .map(|w| pmr_obs::LiveWorker { node: w.node.0, alive: w.alive })
                .collect(),
        }
    })
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.no_positionals()?;
    args.check_known(&[
        "input",
        "comp",
        "scheme",
        "h",
        "tasks",
        "backend",
        "threads",
        "nodes",
        "workers",
        "socket",
        "chaos-nodes",
        "chaos-seed",
        "speculation",
        "max-result",
        "threshold",
        "pruner",
        "fuse",
        "output",
        "report",
        "live",
    ])?;
    let input = args.required("input")?;
    let data = read_vectors(BufReader::new(File::open(input)?)).map_err(ArgError)?;
    let v = data.len() as u64;
    let comp: CompFn<pmr_apps::DenseVector, f64> =
        match args.optional("comp").unwrap_or("euclidean") {
            "euclidean" => comp_fn(euclidean),
            "manhattan" => comp_fn(manhattan),
            "cosine" => comp_fn(cosine_distance),
            other => {
                return Err(Box::new(ArgError(format!(
                    "unknown comp '{other}' (euclidean | manhattan | cosine)"
                ))))
            }
        };
    let scheme: std::sync::Arc<dyn DistributionScheme> =
        std::sync::Arc::from(scheme_from_args(args, v)?);
    let scheme_name = scheme.name();
    let threads = args.num_or("threads", 4usize)?;
    let nodes = args.num_or("nodes", 4usize)?;
    let report_path = args.optional("report");
    let live_dest = args.optional("live");
    // Telemetry costs nothing when neither a report nor live monitoring
    // is requested.
    let telemetry = if report_path.is_some() || live_dest.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let mut job = PairwiseJob::new(&data, comp).scheme_arc(scheme).telemetry(telemetry.clone());
    match args.optional("fuse") {
        None | Some("on") => {}
        Some("off") => job = job.fuse(false),
        Some(other) => {
            return Err(Box::new(ArgError(format!("flag --fuse must be on or off, got '{other}'"))))
        }
    }
    // --max-result and --threshold both become one FilterAggregator cut on
    // the comp result (a distance): the tighter bound wins.
    let mut cut: Option<f64> = match args.optional("max-result") {
        None => None,
        Some(s) => match s.parse::<f64>() {
            // A NaN bound compares false with every result and would drop
            // every pair without a word.
            Ok(x) if !x.is_nan() => Some(x),
            _ => return Err(Box::new(ArgError("--max-result must be a number".into()))),
        },
    };
    let threshold: Option<f64> = match args.optional("threshold") {
        None => None,
        Some(s) => {
            let t: f64 = s.parse().map_err(|_| ArgError("--threshold must be a number".into()))?;
            if !(t > 0.0 && t <= 1.0) {
                return Err(Box::new(ArgError(format!("--threshold must be in (0, 1], got {t}"))));
            }
            if args.optional("comp").unwrap_or("euclidean") != "cosine" {
                return Err(Box::new(ArgError(
                    "--threshold is a cosine-similarity bound and requires --comp cosine".into(),
                )));
            }
            // cos(a, b) ≥ t  ⟺  cosine distance 1 − cos(a, b) ≤ 1 − t.
            cut = Some(cut.map_or(1.0 - t, |e: f64| e.min(1.0 - t)));
            Some(t)
        }
    };
    if let Some(eps) = cut {
        let agg: std::sync::Arc<dyn Aggregator<f64>> =
            std::sync::Arc::new(FilterAggregator::new(move |r: &f64| *r <= eps));
        job = job.aggregator_arc(agg);
    }
    match (args.optional("pruner"), threshold) {
        (Some(_), None) => return Err(Box::new(ArgError("--pruner requires --threshold".into()))),
        (None, None) => {}
        (name, Some(t)) => {
            // The pruners index term sets, so sparsify the dense rows
            // (column index = term id, zero entries dropped).
            let sparse: Vec<pmr_apps::SparseVector> = data
                .iter()
                .map(|row| {
                    pmr_apps::SparseVector::from_entries(
                        row.0
                            .iter()
                            .enumerate()
                            .filter(|(_, w)| **w != 0.0)
                            .map(|(i, &w)| (i as u32, w))
                            .collect(),
                    )
                })
                .collect();
            match name.unwrap_or("prefix") {
                "prefix" => job = job.pair_filter(PrefixFilter::build(&sparse, t)),
                "lsh" => job = job.pair_filter(LshFilter::with_defaults(&sparse)),
                "none" => {} // exact all-pairs reference, still thresholded
                other => {
                    return Err(Box::new(ArgError(format!(
                        "unknown pruner '{other}' (prefix | lsh | none)"
                    ))))
                }
            }
        }
    }
    let backend = args.optional("backend").unwrap_or("local");
    // Backend-specific flags are rejected with a pointer to the backends
    // they apply to, instead of being silently ignored.
    let gate = |flag: &str, allowed: &[&str]| -> Result<(), ArgError> {
        if args.optional(flag).is_some() && !allowed.contains(&backend) {
            return Err(ArgError(format!(
                "flag --{flag} only applies to --backend {} (got --backend {backend})",
                allowed.join(" | ")
            )));
        }
        Ok(())
    };
    gate("threads", &["local"])?;
    gate("nodes", &["mr"])?;
    gate("workers", &["process"])?;
    gate("socket", &["process"])?;
    gate("chaos-nodes", &["mr", "process"])?;
    gate("chaos-seed", &["mr", "process"])?;
    gate("speculation", &["mr", "process"])?;
    gate("fuse", &["local", "mr", "process"])?;
    let cluster; // owns the cluster for the 'mr' / 'process' backends
    let run = match backend {
        "sequential" => {
            let _monitor = start_live_monitor(live_dest, &telemetry, None)?;
            job.run()?
        }
        "local" => {
            let _monitor = start_live_monitor(live_dest, &telemetry, None)?;
            job.backend(Backend::Local { threads }).run()?
        }
        "mr" => {
            cluster = Cluster::new(cluster_config_from_args(args, nodes)?)
                .with_telemetry(telemetry.clone());
            let _monitor =
                start_live_monitor(live_dest, &telemetry, Some(transport_probe(&cluster)))?;
            job.backend(Backend::Mr(&cluster)).run()?
        }
        "process" => {
            let workers = args.num_or("workers", 4usize)?;
            let socket = match args.optional("socket").unwrap_or("uds") {
                "uds" => SocketMode::Uds,
                "tcp" => SocketMode::Tcp,
                other => {
                    return Err(Box::new(ArgError(format!(
                        "flag --socket must be uds or tcp, got '{other}'"
                    ))))
                }
            };
            let config = cluster_config_from_args(args, workers)?
                .transport(TransportKind::Process { socket });
            cluster = Cluster::try_new(config)
                .map_err(|e| ArgError(format!("cannot start worker processes: {e}")))?
                .with_telemetry(telemetry.clone());
            let _monitor =
                start_live_monitor(live_dest, &telemetry, Some(transport_probe(&cluster)))?;
            job.backend(Backend::Mr(&cluster)).run()?
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown backend '{other}' (local | mr | process | sequential)"
            ))))
        }
    };
    let tasks = run
        .local
        .as_ref()
        .map(|s| s.tasks)
        .or_else(|| run.mr.first().map(|r| r.job1.stats.reduce_tasks as u64))
        .unwrap_or(1);
    eprintln!(
        "evaluated {} pairs of {} elements across {} tasks ({} scheme, {} backend)",
        run.evaluations(),
        v,
        tasks,
        scheme_name,
        backend
    );
    if let Some(p) = &run.report.pruning {
        eprintln!(
            "{} pruner rejected {} of {} candidate pairs ({} evaluated)",
            p.pruner, p.pruned, p.candidates, p.evaluated
        );
    }
    let crashes: u64 = run.mr.iter().map(|r| r.node_crashes).sum();
    if crashes > 0 {
        eprintln!(
            "survived {crashes} node crash(es): re-ran {} lost map task(s), \
             launched {} speculative attempt(s)",
            run.mr.iter().map(|r| r.map_reruns).sum::<u64>(),
            run.mr.iter().map(|r| r.speculative_launched).sum::<u64>(),
        );
    }
    if let Some(path) = report_path {
        run.report.write_json_file(path)?;
        eprintln!(
            "run report: {path} ({} task spans, {} µs wall time)",
            run.report.task_spans.len(),
            run.report.wall_time_us
        );
    }
    match args.optional("output") {
        Some(path) => write_results(BufWriter::new(File::create(path)?), &run.output)?,
        None => write_results(std::io::stdout().lock(), &run.output)?,
    }
    Ok(())
}

fn generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.no_positionals()?;
    args.check_known(&["kind", "n", "dim", "seed", "output"])?;
    let n = args.num_or("n", 200usize)?;
    let dim = args.num_or("dim", 3usize)?;
    let seed = args.num_or("seed", 42u64)?;
    let data = match args.optional("kind").unwrap_or("clusters") {
        "clusters" => gaussian_clusters(n, 4, dim, 0.6, seed).0,
        "genes" => gene_expression(n, dim.max(16), 6, 0.25, seed),
        "matrix" => random_matrix_rows(n, dim, seed),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown kind '{other}' (clusters | genes | matrix)"
            ))))
        }
    };
    match args.optional("output") {
        Some(path) => write_vectors(BufWriter::new(File::create(path)?), &data)?,
        None => write_vectors(std::io::stdout().lock(), &data)?,
    }
    eprintln!("wrote {n} elements of dimension {}", data[0].dim());
    Ok(())
}

fn plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.no_positionals()?;
    args.check_known(&["v", "element-bytes", "maxws", "maxis", "nodes", "comp-us"])?;
    let v: u64 = args.required_num("v")?;
    let s = args.bytes_or("element-bytes", 0)?;
    if s == 0 {
        return Err(Box::new(ArgError("missing required flag --element-bytes".into())));
    }
    let maxws = args.bytes_or("maxws", 200_000_000)? as f64;
    let maxis = args.bytes_or("maxis", 1_000_000_000_000)? as f64;
    let n = args.num_or("nodes", 16u64)?;
    let comp_us = args.num_or("comp-us", 1000.0f64)?;
    if !(comp_us.is_finite() && comp_us >= 0.0) {
        return Err(Box::new(ArgError(format!(
            "--comp-us must be a finite, non-negative number of µs, got {comp_us}"
        ))));
    }

    let point = fig9b_point(s as f64, maxws, maxis);
    println!("feasibility for v = {v}, {s}-byte elements:");
    let check = |name: &str, max_v: f64| {
        println!(
            "  {name:<10} max v = {:>12}   {}",
            max_v as u64,
            if (v as f64) <= max_v { "feasible" } else { "INFEASIBLE" }
        );
    };
    check("broadcast", point.broadcast);
    check("block", point.block);
    check("design", point.design_both);
    check("quorum", point.design_both);
    if let Some((lo, hi)) = h_bounds((v * s) as f64, maxws, maxis) {
        println!("  block h range: [{lo}, {hi}]");
    }
    println!("  design plane order: q = {}", smallest_plane_order(v));

    let params =
        CostParams { v, element_bytes: s, n_nodes: n, comp_cost_us: comp_us, ..Default::default() };

    // Replication-rate frontier: each scheme against the Afrati–Ullman
    // lower bound (arXiv 1206.4377) at the environment's reducer capacity.
    let q_cap = reducer_capacity(s as f64, maxws);
    let frontier = replication_frontier(&params, maxws, maxis);
    if let Some(row) = frontier.first() {
        println!(
            "\nreplication-rate frontier (reducer capacity {q_cap} elements, \
             Afrati–Ullman lower bound r ≥ {:.2}):",
            row.env_lower_bound
        );
        println!(
            "  {:<10}  {:>11}  {:>12}  {:>11}  {:>10}",
            "scheme", "replication", "working set", "own bound", "status"
        );
        for r in &frontier {
            println!(
                "  {:<10}  {:>11.2}  {:>12}  {:>11.2}  {:>10}",
                r.scheme,
                r.replication,
                r.working_set,
                r.own_lower_bound,
                if r.feasible { "feasible" } else { "INFEASIBLE" }
            );
        }
    }

    let ranked = rank_feasible_schemes(&params, maxws, maxis);
    if ranked.is_empty() {
        println!("no scheme fits these limits — consider the hierarchical extensions (§7)");
    } else {
        println!("\nrecommendation (estimated makespan on {n} nodes, comp = {comp_us} µs):");
        for (est, h) in ranked {
            let cfg = h.map(|h| format!(" (h = {h})")).unwrap_or_default();
            println!("  {:<10}{cfg:<10} ~{:.1} s", est.scheme, est.total_us / 1e6);
        }
    }
    Ok(())
}

fn verify(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.no_positionals()?;
    args.check_known(&["scheme", "v", "h", "tasks"])?;
    let v: u64 = args.required_num("v")?;
    let scheme = scheme_from_args(args, v)?;
    verify_exactly_once(scheme.as_ref()).map_err(|e| ArgError(format!("scheme INVALID: {e:?}")))?;
    let m = measure(scheme.as_ref());
    println!(
        "{} over v = {v}: VALID — {} pairs exactly once across {} tasks, \
         replication {:.2}, max working set {}",
        scheme.name(),
        m.total_pairs,
        m.nonempty_tasks,
        m.replication_factor,
        m.max_working_set
    );
    Ok(())
}

fn table1(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.no_positionals()?;
    args.check_known(&["v", "nodes", "h"])?;
    let v: u64 = args.required_num("v")?;
    let n = args.num_or("nodes", 16u64)?;
    let h = args.num_or("h", 16u64)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "Table 1 for v = {v}, n = {n}, h = {h} (broadcast p = n):")?;
    writeln!(
        out,
        "{:>10}  {:>10}  {:>14}  {:>12}  {:>12}  {:>14}",
        "scheme", "tasks", "comm [sends]", "replication", "working set", "evals/task"
    )?;
    for m in table1_rows(Scenario::new(v, n, h)) {
        writeln!(
            out,
            "{:>10}  {:>10}  {:>14}  {:>12.1}  {:>12}  {:>14.1}",
            m.scheme,
            m.num_tasks,
            m.communication_elements,
            m.replication_factor,
            m.working_set_size,
            m.evaluations_per_task
        )?;
    }
    Ok(())
}

fn load_report(path: &str) -> Result<RunReport, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read report '{path}': {e}")))?;
    let report =
        RunReport::from_json(&text).map_err(|e| ArgError(format!("bad report '{path}': {e}")))?;
    Ok(report)
}

/// Tails a `--live` JSONL file, printing one progress line per record
/// until the `"done": true` marker. Malformed lines are an error; a
/// missing done marker within `timeout` is an error (the run stalled or
/// the file is not a live stream).
fn follow_live(path: &str, timeout: std::time::Duration) -> Result<(), Box<dyn std::error::Error>> {
    let started = std::time::Instant::now();
    let mut seen = 0usize;
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let complete = text.ends_with('\n');
        let lines: Vec<&str> = text.lines().collect();
        let ready = if complete { lines.len() } else { lines.len().saturating_sub(1) };
        for line in &lines[seen.min(ready)..ready] {
            let v = pmr_obs::JsonValue::parse(line)
                .map_err(|e| ArgError(format!("malformed live record: {e} in {line:?}")))?;
            if v.str_or_empty("schema") != pmr_obs::live::LIVE_SCHEMA {
                return Err(Box::new(ArgError(format!(
                    "not a live stream: unexpected schema {:?}",
                    v.str_or_empty("schema")
                ))));
            }
            let done = v.get("done").and_then(pmr_obs::JsonValue::as_bool).unwrap_or(false);
            let workers = v.get("workers").and_then(pmr_obs::JsonValue::as_array);
            let liveness = workers
                .map(|ws| {
                    let alive = ws
                        .iter()
                        .filter(|w| {
                            w.get("alive").and_then(pmr_obs::JsonValue::as_bool) == Some(true)
                        })
                        .count();
                    format!("  workers {alive}/{} alive", ws.len())
                })
                .unwrap_or_default();
            println!(
                "[{:>6.2}s] tasks {:>5}  pairs {:>9}  {:>10.0} pairs/s  trace events {:>6}{}{}",
                v.u64_or_zero("t_us") as f64 / 1e6,
                v.u64_or_zero("tasks"),
                v.u64_or_zero("evaluations"),
                v.get("pairs_per_s").and_then(pmr_obs::JsonValue::as_f64).unwrap_or(0.0),
                v.u64_or_zero("trace_events"),
                liveness,
                if done { "  [done]" } else { "" },
            );
            if done {
                return Ok(());
            }
        }
        seen = ready;
        if started.elapsed() > timeout {
            return Err(Box::new(ArgError(format!(
                "no done marker in '{path}' after {}s — run still in flight or stream truncated",
                timeout.as_secs()
            ))));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

fn trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let action = args.required_positional(0, "analyze | export | diff | follow")?;
    match action {
        "analyze" => {
            args.max_positionals(2)?;
            args.check_known(&[])?;
            let report = load_report(args.required_positional(1, "report.json")?)?;
            print!("{}", export::text_summary(&report));
        }
        "export" => {
            args.max_positionals(2)?;
            args.check_known(&["chrome"])?;
            let path = args.required_positional(1, "report.json")?;
            let report = load_report(path)?;
            let out = args.required("chrome")?;
            let (chrome, events) = export::chrome_trace(&report);
            std::fs::write(out, chrome)?;
            eprintln!(
                "wrote Chrome trace for {path} ({events} Chrome events) to {out} — \
                 open with chrome://tracing or https://ui.perfetto.dev"
            );
        }
        "diff" => {
            args.max_positionals(3)?;
            args.check_known(&[])?;
            let a = load_report(args.required_positional(1, "a.json")?)?;
            let b = load_report(args.required_positional(2, "b.json")?)?;
            let d = TraceDiff::compute(&a, &b);
            let mut out = std::io::stdout().lock();
            writeln!(out, "A: {}", d.label_a)?;
            writeln!(out, "B: {}", d.label_b)?;
            writeln!(out, "{:<16}{:>14} {:>14}", "", "A [µs]", "B [µs]")?;
            let row = |name: &str, a: u64, b: u64| format!("{name:<16}{a:>14} {b:>14}");
            writeln!(out, "{}", row("makespan", d.makespan_us.0, d.makespan_us.1))?;
            writeln!(out, "{}", row("critical path", d.critical_path_us.0, d.critical_path_us.1))?;
            writeln!(out, "{}", row("  compute", d.attribution_a.0, d.attribution_b.0))?;
            writeln!(out, "{}", row("  shuffle", d.attribution_a.1, d.attribution_b.1))?;
            writeln!(out, "{}", row("  recovery", d.attribution_a.2, d.attribution_b.2))?;
            writeln!(out, "{}", row("  wait", d.attribution_a.3, d.attribution_b.3))?;
            writeln!(out, "longer critical path: {}", d.longer_critical_path)?;
        }
        "follow" => {
            args.max_positionals(2)?;
            args.check_known(&["timeout"])?;
            let path = args.required_positional(1, "live.jsonl")?;
            let timeout_s: u64 = args.num_or("timeout", 60u64)?;
            follow_live(path, std::time::Duration::from_secs(timeout_s))?;
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown trace action '{other}' (analyze | export | diff | follow)"
            ))))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn verify_accepts_all_schemes() {
        for line in [
            "verify --scheme block --v 30 --h 4",
            "verify --scheme paired --v 30 --h 4",
            "verify --scheme broadcast --v 30 --tasks 5",
            "verify --scheme design --v 30",
            "verify --scheme quorum --v 30",
            "verify --scheme quorum --v 31",
        ] {
            dispatch(&args(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn unknown_command_and_flags_rejected() {
        assert!(dispatch(&args("frobnicate")).is_err());
        assert!(dispatch(&args("verify --scheme block --v 10 --bogus 1")).is_err());
        assert!(dispatch(&args("verify --scheme nope --v 10")).is_err());
    }

    #[test]
    fn plan_produces_recommendation() {
        // Just exercise it end-to-end (prints to stdout).
        dispatch(&args("plan --v 10000 --element-bytes 500KB")).unwrap();
        dispatch(&args("plan --v 10000 --element-bytes 500KB --maxws 1GB --maxis 100GB")).unwrap();
    }

    #[test]
    fn table1_runs() {
        dispatch(&args("table1 --v 10000 --nodes 100 --h 20")).unwrap();
    }

    #[test]
    fn run_generate_roundtrip_via_tempfiles() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        let tsv = dir.join("out.tsv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 40 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --comp euclidean --scheme design --output {}",
            csv.display(),
            tsv.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&tsv).unwrap();
        // 40 elements × 39 neighbors + header.
        assert_eq!(text.lines().count(), 40 * 39 + 1);
        // ε-pruned run keeps fewer lines.
        dispatch(&args(&format!(
            "run --input {} --comp euclidean --scheme block --h 4 --max-result 2.0 --output {}",
            csv.display(),
            tsv.display()
        )))
        .unwrap();
        let pruned = std::fs::read_to_string(&tsv).unwrap();
        assert!(pruned.lines().count() < text.lines().count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thresholded_run_matches_exact_reference_and_reports_pruning() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-prune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 40 --dim 3 --output {}",
            csv.display()
        )))
        .unwrap();
        let exact = dir.join("exact.tsv");
        let pruned = dir.join("pruned.tsv");
        let report = dir.join("pruned.json");
        dispatch(&args(&format!(
            "run --input {} --comp cosine --threshold 0.9 --pruner none --output {}",
            csv.display(),
            exact.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --comp cosine --threshold 0.9 --pruner prefix \
             --report {} --output {}",
            csv.display(),
            report.display(),
            pruned.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&exact).unwrap(),
            std::fs::read_to_string(&pruned).unwrap(),
            "prefix filtering is exact: pruned output must match the reference"
        );
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"pruning\""), "report carries the pruning section");
        assert!(json.contains("\"pruner\": \"prefix\""));
        assert!(json.contains("\"exact\": true"));
        assert!(json.contains("pairwise.candidates.pairs"));
        // LSH path runs end-to-end too (probabilistic, so no output diff).
        dispatch(&args(&format!(
            "run --input {} --comp cosine --threshold 0.9 --pruner lsh --output {}",
            csv.display(),
            pruned.display()
        )))
        .unwrap();
        // Unfiltered reports omit the section entirely (counter hygiene).
        let plain_report = dir.join("plain.json");
        dispatch(&args(&format!(
            "run --input {} --comp cosine --report {} --output {}",
            csv.display(),
            plain_report.display(),
            pruned.display()
        )))
        .unwrap();
        let plain = std::fs::read_to_string(&plain_report).unwrap();
        assert!(!plain.contains("\"pruning\""));
        assert!(!plain.contains("pairwise.candidates.pairs"));
        // Flag validation: threshold needs cosine, pruner needs threshold.
        for (line, needle) in [
            (format!("run --input {} --threshold 0.9", csv.display()), "requires --comp cosine"),
            (
                format!("run --input {} --comp cosine --threshold 1.5", csv.display()),
                "must be in (0, 1]",
            ),
            (format!("run --input {} --pruner prefix", csv.display()), "requires --threshold"),
            (
                format!(
                    "run --input {} --comp cosine --threshold 0.9 --pruner magic",
                    csv.display()
                ),
                "unknown pruner",
            ),
        ] {
            let err = dispatch(&args(&line)).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: expected '{needle}' in '{err}'");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_survives_chaos_flags() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        let clean = dir.join("clean.tsv");
        let chaotic = dir.join("chaotic.tsv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 30 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --scheme block --h 4 --backend mr --nodes 4 --output {}",
            csv.display(),
            clean.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --scheme block --h 4 --backend mr --nodes 4 \
             --chaos-nodes 1 --chaos-seed 11 --speculation 4.0 --output {}",
            csv.display(),
            chaotic.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&clean).unwrap(),
            std::fs::read_to_string(&chaotic).unwrap(),
            "output must be identical with and without chaos"
        );
        // Bad speculation multipliers are rejected before the run starts.
        assert!(dispatch(&args(&format!(
            "run --input {} --backend mr --speculation 0.5 --output {}",
            csv.display(),
            chaotic.display()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fuse_flag_toggles_without_changing_output() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-fuse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        let fused = dir.join("fused.tsv");
        let unfused = dir.join("unfused.tsv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 30 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        for (flag, out) in [("on", &fused), ("off", &unfused)] {
            dispatch(&args(&format!(
                "run --input {} --scheme block --h 4 --backend mr --nodes 3 \
                 --max-result 3.0 --fuse {flag} --output {}",
                csv.display(),
                out.display()
            )))
            .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&fused).unwrap(),
            std::fs::read_to_string(&unfused).unwrap(),
            "fused and unfused runs must produce identical output"
        );
        assert!(dispatch(&args(&format!(
            "run --input {} --fuse maybe --output {}",
            csv.display(),
            fused.display()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_flag_combinations_are_validated() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 10 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        let c = csv.display();
        for (line, needle) in [
            (format!("run --input {c} --chaos-nodes 1"), "--chaos-nodes only applies"),
            (format!("run --input {c} --backend sequential --fuse on"), "--fuse only applies"),
            (format!("run --input {c} --backend local --speculation 2.0"), "--speculation only"),
            (format!("run --input {c} --backend mr --workers 2"), "--workers only applies"),
            (format!("run --input {c} --backend process --nodes 2"), "--nodes only applies"),
            (format!("run --input {c} --backend process --threads 2"), "--threads only applies"),
            (format!("run --input {c} --backend process --socket pigeon"), "uds or tcp"),
            (format!("run --input {c} --backend mr --socket tcp"), "--socket only applies"),
        ] {
            let err = dispatch(&args(&line)).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: expected '{needle}' in '{err}'");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 10 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        let c = csv.display();
        for (line, needle) in [
            (format!("run --input {c} --max-result nan"), "--max-result must be a number"),
            (format!("run --input {c} --max-result NaN"), "--max-result must be a number"),
            ("plan --v 100 --element-bytes nan".into(), "bad byte quantity 'nan'"),
            ("plan --v 100 --element-bytes infMB".into(), "bad byte quantity 'infMB'"),
            ("plan --v 100 --element-bytes 1KB --comp-us nan".into(), "--comp-us must be"),
            ("plan --v 100 --element-bytes 1KB --comp-us inf".into(), "--comp-us must be"),
            ("plan --v 100 --element-bytes 1KB --comp-us -1".into(), "--comp-us must be"),
        ] {
            let err = dispatch(&args(&line)).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: expected '{needle}' in '{err}'");
        }
        let out = dir.join("out.tsv");
        dispatch(&args(&format!("run --input {c} --max-result inf --output {}", out.display())))
            .unwrap();
        dispatch(&args("plan --v 100 --element-bytes 1KB --comp-us 0")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// End-to-end over real worker processes: same output as the
    /// in-process cluster, and the report carries the transport section.
    #[test]
    fn process_backend_matches_mr_and_reports_transport() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 24 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        let mr_out = dir.join("mr.tsv");
        let proc_out = dir.join("proc.tsv");
        let report = dir.join("proc.json");
        dispatch(&args(&format!(
            "run --input {} --scheme block --h 4 --backend mr --nodes 2 --output {}",
            csv.display(),
            mr_out.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --scheme block --h 4 --backend process --workers 2 \
             --report {} --output {}",
            csv.display(),
            report.display(),
            proc_out.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&mr_out).unwrap(),
            std::fs::read_to_string(&proc_out).unwrap(),
            "in-process and multi-process backends must agree bit-for-bit"
        );
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"backend\": \"process\""));
        assert!(json.contains("\"transport\""));
        assert!(json.contains("\"wire_bytes\""));
        assert!(json.contains("\"workers\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_report_writes_json_for_each_backend() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 30 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        for backend in ["local", "mr", "sequential"] {
            let json_path = dir.join(format!("report-{backend}.json"));
            let tsv = dir.join("out.tsv");
            let nodes = if backend == "mr" { " --nodes 3" } else { "" };
            dispatch(&args(&format!(
                "run --input {} --scheme block --h 4 --backend {backend}{nodes} \
                 --report {} --output {}",
                csv.display(),
                json_path.display(),
                tsv.display()
            )))
            .unwrap();
            let json = std::fs::read_to_string(&json_path).unwrap();
            assert!(json.contains("\"schema\": \"pmr.run_report/10\""), "{backend}");
            assert!(json.contains(&format!("\"backend\": \"{backend}\"")), "{backend}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_monitor_writes_jsonl_and_follow_replays_it() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        let live = dir.join("live.jsonl");
        dispatch(&args(&format!(
            "generate --kind clusters --n 30 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        dispatch(&args(&format!(
            "run --input {} --scheme block --h 4 --backend mr --nodes 3 --live {} --output {}",
            csv.display(),
            live.display(),
            dir.join("out.tsv").display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&live).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let v = pmr_obs::JsonValue::parse(line).expect("each live record is valid JSON");
            assert_eq!(v.str_or_empty("schema"), pmr_obs::live::LIVE_SCHEMA);
        }
        let last = pmr_obs::JsonValue::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("done").and_then(pmr_obs::JsonValue::as_bool), Some(true));
        // follow terminates on the done marker and rejects non-live files.
        dispatch(&args(&format!("trace follow {}", live.display()))).unwrap();
        let bogus = dir.join("bogus.jsonl");
        std::fs::write(&bogus, "{\"schema\": \"other/1\"}\n").unwrap();
        assert!(dispatch(&args(&format!("trace follow {} --timeout 1", bogus.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_subcommand_analyzes_exports_and_diffs() {
        let dir = std::env::temp_dir().join(format!("pmr-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pts.csv");
        dispatch(&args(&format!(
            "generate --kind clusters --n 30 --dim 2 --output {}",
            csv.display()
        )))
        .unwrap();
        let report_a = dir.join("a.json");
        let report_b = dir.join("b.json");
        for (h, report) in [(3, &report_a), (6, &report_b)] {
            dispatch(&args(&format!(
                "run --input {} --scheme block --h {h} --backend mr --nodes 3 \
                 --chaos-nodes 1 --chaos-seed 7 --report {} --output {}",
                csv.display(),
                report.display(),
                dir.join("out.tsv").display()
            )))
            .unwrap();
        }
        dispatch(&args(&format!("trace analyze {}", report_a.display()))).unwrap();
        let chrome = dir.join("chrome.json");
        dispatch(&args(&format!(
            "trace export {} --chrome {}",
            report_a.display(),
            chrome.display()
        )))
        .unwrap();
        let trace_json = std::fs::read_to_string(&chrome).unwrap();
        pmr_obs::JsonValue::parse(&trace_json).expect("chrome trace must be valid JSON");
        assert!(trace_json.contains("\"traceEvents\""));
        dispatch(&args(&format!("trace diff {} {}", report_a.display(), report_b.display())))
            .unwrap();
        // Stray arguments and missing files are rejected.
        assert!(dispatch(&args("trace")).is_err());
        assert!(dispatch(&args("trace frobnicate")).is_err());
        assert!(dispatch(&args("trace analyze a.json b.json")).is_err());
        assert!(dispatch(&args("trace analyze /nonexistent/report.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
