//! The traced run (`--trace 1`): one number per layer, as a ladder.
//!
//! Each rung adds one layer to the rung below it and is timed on its own:
//!
//! ```text
//! enumerate          DistributionScheme::for_each_pair into a checksum
//! + filter           PairFilter::is_candidate            (similarity join)
//! + kernel           gather 1024-pair tiles, BatchComp::eval_batch
//! + fold, finish     Aggregator::{init, fold, finish} into a dense Vec
//! sequential         Backend::Sequential, the single-thread baseline
//! local 1, n threads Backend::Local
//! mr, unfused        Backend::Mr, in-process cluster     (MR workloads)
//! process uds, tcp   Backend::Mr, pmr-worker processes   (process workload)
//! ```
//!
//! A rung's own cost is its time minus the rung below; what the local
//! runner adds on top of the hand-assembled rungs is reported as
//! `local.overhead_ns_per_pair`, so the layer numbers add up to
//! `local.t1_ns_per_pair`. The harness wraps every call into a layer's
//! public functions in a span (see [`crate::spans`]); end-to-end numbers
//! are never taken in this mode.
//!
//! Every rung's output is digested and compared with the sequential scalar
//! reference, so a layer number is never reported for a wrong answer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pmr_cluster::{Cluster, NodeId, SocketMode, Telemetry, TransportKind};
use pmr_core::runner::{Accumulator, Backend, PairFilter, PairwiseRun};
use pmr_core::scheme::{measure, DistributionScheme};
use pmr_mapreduce::{
    decode_record_stream, encode_record_stream, write_sharded, Engine, IdentityMapper, JobSpec,
    ReduceContext, Reducer, Values,
};

use crate::defs::{per_layer, BackendKind, Metrics, SchemeKind, THREADS};
use crate::digest::{digest_output, digest_rows};
use crate::host::cpu_seconds;
use crate::problem::{cluster_config, make_scheme, transport_of, Element, Parts, Problem};
use crate::spans::Tracer;
use crate::stats::median;

/// Pairs per kernel tile; the runner's own tile size.
const TILE: usize = 1024;
/// Most repetitions of one rung.
const MAX_REPEATS: usize = 5;
/// A rung stops repeating once it has used this share of the run's
/// seconds, but is repeated at least once unless a single repetition took
/// twice that.
const RUNG_SHARE: f64 = 1.0 / 6.0;
/// Untimed runs of the workload's job before the first rung, as in the
/// end-to-end run: the allocator's per-thread arenas and the page cache
/// are warm before anything is timed.
const WARM_UPS: usize = 2;

const MIB: usize = 1 << 20;
const DFS_FILES: usize = 64;
const IDENTITY_RECORDS: u64 = 1_000_000;
const RTT_PUTS: usize = 2000;

pub struct Outcome {
    pub metrics: Metrics,
    /// Rung repetitions made.
    pub attempted: u64,
    /// Repetitions that erred or produced a wrong answer.
    pub failed: u64,
    pub failures: Vec<String>,
    /// The ladder's accounting: informational, not metrics.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    pub tracer: Tracer,
}

/// Counts the values of each key: the cheapest reducer that still makes
/// the engine group, so the identity job times map/sort/shuffle/reduce.
struct CountReducer;

impl Reducer for CountReducer {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = u64;

    fn reduce(
        &self,
        key: u64,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, u64>,
    ) -> pmr_mapreduce::Result<()> {
        ctx.emit(key, values.len() as u64);
        Ok(())
    }
}

/// A tile of gathered operands, as the runner's kernel seam builds them.
struct Tile<'d, T> {
    ids: Vec<(u64, u64)>,
    a: Vec<&'d T>,
    b: Vec<&'d T>,
}

impl<T> Tile<'_, T> {
    fn clear(&mut self) {
        self.ids.clear();
        self.a.clear();
        self.b.clear();
    }
}

/// Streams every task's pairs (past `filter`, if any) into tiles of
/// `TILE` pairs, flushing at each task's end like the runner does, and
/// hands each tile to `on_tile`. With a tracer, every `for_each_pair` call
/// gets a span and `on_tile` may open spans below it. Returns the pairs
/// that reached a tile.
fn walk_tiles<'d, T>(
    scheme: &dyn DistributionScheme,
    filter: Option<&dyn PairFilter>,
    data: &'d [T],
    mut spans: Option<&mut Tracer>,
    mut on_tile: impl FnMut(&Tile<'d, T>, Option<&mut Tracer>),
) -> u64 {
    let mut tile = Tile {
        ids: Vec::with_capacity(TILE),
        a: Vec::with_capacity(TILE),
        b: Vec::with_capacity(TILE),
    };
    let mut reached = 0u64;
    for task in 0..scheme.num_tasks() {
        let span = spans.as_deref_mut().map(|tr| tr.enter("core.scheme.for_each_pair"));
        scheme.for_each_pair(task, &mut |a, b| {
            if filter.is_some_and(|f| !f.is_candidate(a, b)) {
                return;
            }
            tile.ids.push((a, b));
            tile.a.push(&data[a as usize]);
            tile.b.push(&data[b as usize]);
            if tile.ids.len() == TILE {
                reached += TILE as u64;
                on_tile(&tile, spans.as_deref_mut());
                tile.clear();
            }
        });
        if !tile.ids.is_empty() {
            reached += tile.ids.len() as u64;
            on_tile(&tile, spans.as_deref_mut());
            tile.clear();
        }
        if let (Some(tr), Some(span)) = (spans.as_deref_mut(), span) {
            tr.exit(span);
        }
    }
    reached
}

/// Runs `f` under a span when a tracer is present, plainly otherwise.
fn spanned<R>(spans: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(tr) => {
            let id = tr.enter(name);
            let out = f();
            tr.exit(id);
            out
        }
        None => f(),
    }
}

fn check_digest(digest: u64, expected: u64) -> Result<(), String> {
    if digest == expected {
        Ok(())
    } else {
        Err(format!("digest {digest:016x} != reference {expected:016x}"))
    }
}

/// Median of `pick` over a rung's repetitions, or 0 when every repetition
/// failed (the failures are already recorded).
fn median_by<R>(samples: &[R], pick: impl Fn(&R) -> f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(&samples.iter().map(pick).collect::<Vec<_>>())
    }
}

/// How a job rung runs the workload's job.
#[derive(Clone)]
struct JobRung {
    /// The cluster's transport; `None` runs without a cluster.
    transport: Option<TransportKind>,
    /// Without a cluster: 0 = `Backend::Sequential`, else local threads.
    threads: usize,
    telemetry: bool,
    fuse: bool,
    /// Replaces the workload's scheme (the sweep).
    scheme: Option<Arc<dyn DistributionScheme>>,
}

impl JobRung {
    fn local(threads: usize) -> JobRung {
        JobRung { transport: None, threads, telemetry: false, fuse: true, scheme: None }
    }

    fn cluster(transport: TransportKind) -> JobRung {
        JobRung { transport: Some(transport), ..JobRung::local(0) }
    }
}

struct Ladder<'p, T> {
    problem: &'p Problem<T>,
    tracer: Tracer,
    metrics: Metrics,
    rung_budget: Duration,
    attempted: u64,
    failures: Vec<String>,
    /// Digest of the sequential scalar reference.
    expected: u64,
}

impl<'p, T: Element> Ladder<'p, T> {
    /// Repeats `f` under a span called `name`, each repetition in a child
    /// span, until `MAX_REPEATS` or the rung's budget is reached (see
    /// [`RUNG_SHARE`]). `f` gets
    /// the tracer on its first repetition only, so fine-grained spans are
    /// recorded once and later repetitions run undisturbed. Returns what
    /// the successful repetitions returned.
    fn repeat<R>(
        &mut self,
        name: &str,
        mut f: impl FnMut(Option<&mut Tracer>) -> Result<R, String>,
    ) -> Vec<R> {
        let rung = self.tracer.enter(name);
        let started = Instant::now();
        let mut out = Vec::new();
        for i in 0..MAX_REPEATS {
            let used = started.elapsed();
            if (i == 1 && used >= 2 * self.rung_budget) || (i > 1 && used >= self.rung_budget) {
                break;
            }
            let id = self.tracer.enter(&format!("{name}#{i}"));
            let result = if i == 0 { f(Some(&mut self.tracer)) } else { f(None) };
            self.tracer.exit(id);
            self.attempted += 1;
            match result {
                Ok(r) => out.push(r),
                Err(e) => self.failures.push(format!("{name}#{i}: {e}")),
            }
        }
        self.tracer.exit(rung);
        out
    }

    /// Seconds of one enumeration of every task of `scheme` into a sink.
    fn enumerate_rung(&mut self, name: &str, scheme: &dyn DistributionScheme) -> f64 {
        let pairs = self.problem.pairs();
        let samples = self.repeat(name, |mut spans| {
            let start = Instant::now();
            let (mut count, mut sum) = (0u64, 0u64);
            for task in 0..scheme.num_tasks() {
                spanned(spans.as_deref_mut(), "core.scheme.for_each_pair", || {
                    scheme.for_each_pair(task, &mut |a, b| {
                        count += 1;
                        sum = sum.wrapping_add(a.wrapping_mul(31).wrapping_add(b));
                    })
                });
            }
            let secs = start.elapsed().as_secs_f64();
            black_box(sum);
            if count == pairs {
                Ok(secs)
            } else {
                Err(format!("enumerated {count} of {pairs} pairs"))
            }
        });
        median_by(&samples, |s| *s)
    }

    /// Runs the workload's job as `how` says, repeated; the job is rebuilt
    /// (untimed) for every repetition and only `run()` is timed. `inspect`
    /// sees each correct run with its seconds and the CPU seconds it used;
    /// returns `(seconds, inspect's result)` per repetition.
    fn job_rung<R>(
        &mut self,
        name: &str,
        how: JobRung,
        mut inspect: impl FnMut(&PairwiseRun<f64>, f64, f64) -> R,
    ) -> Vec<(f64, R)> {
        let problem = self.problem;
        let expected = self.expected;
        self.repeat(name, |spans| {
            let handle = if how.telemetry { Telemetry::enabled() } else { Telemetry::disabled() };
            let mut parts: Parts<T> =
                spanned(spans, "harness.set_up", || problem.set_up_on(how.transport));
            if how.telemetry {
                parts.cluster = parts.cluster.map(|c| c.with_telemetry(handle.clone()));
            }
            if let Some(scheme) = &how.scheme {
                parts.scheme = Arc::clone(scheme);
            }
            let backend = match &parts.cluster {
                Some(cluster) => Backend::Mr(cluster),
                None if how.threads == 0 => Backend::Sequential,
                None => Backend::Local { threads: how.threads },
            };
            let job = problem.job(&parts).backend(backend).telemetry(handle).fuse(how.fuse);
            let cpu = cpu_seconds();
            let start = Instant::now();
            let run = job.run().map_err(|e| format!("run() failed: {e}"))?;
            let secs = start.elapsed().as_secs_f64();
            let cpu_used = match (cpu, cpu_seconds()) {
                (Some(before), Some(after)) => after - before,
                _ => 0.0,
            };
            check_digest(digest_output(&run.output), expected)?;
            Ok((secs, inspect(&run, secs, cpu_used)))
        })
    }

    /// `core.scheme`, the kernel seam, aggregation, the filter seam, and
    /// the sequential and local runners: on every workload.
    fn compute_layers(&mut self) {
        let problem = self.problem;
        let spec = problem.spec;
        let data = &problem.data[..];
        let pairs = problem.pairs() as f64;
        let per_pair = |secs: f64| secs * 1e9 / pairs;

        // --- core.scheme
        let v = problem.v();
        let builds = self.repeat("core.scheme.build", |_| {
            let start = Instant::now();
            black_box(make_scheme(spec.scheme, v));
            Ok(start.elapsed().as_secs_f64())
        });
        self.metrics.set("scheme.build_us", median_by(&builds, |s| *s) * 1e6);
        let parts = problem.set_up_on(None);
        let scheme = parts.scheme.as_ref();
        let (measured, _) = self.tracer.scope("core.scheme.measure", |_| measure(scheme));
        self.attempted += 1;
        if measured.total_pairs != problem.pairs() {
            self.failures.push(format!(
                "scheme covers {} of {} pairs",
                measured.total_pairs,
                problem.pairs()
            ));
        }
        self.metrics.set_exact("scheme.tasks", measured.nonempty_tasks as f64);
        self.metrics.set_exact("scheme.replication", measured.replication_factor);
        self.metrics.set_exact("scheme.max_working_set", measured.max_working_set as f64);
        let t_enumerate = self.enumerate_rung("rung.enumerate", scheme);
        self.metrics.set("scheme.enumerate_ns_per_pair", per_pair(t_enumerate));

        // --- core.runner.filter + apps.prune
        let filter = parts.filter.as_deref();
        let mut t_filter = t_enumerate;
        let mut evaluated = pairs;
        if let (Some(f), Some(threshold)) = (filter, spec.prefix_threshold) {
            let builds = self.repeat("apps.prune.build", |_| {
                let start = Instant::now();
                black_box(T::prefix_filter(data, threshold));
                Ok(start.elapsed().as_secs_f64())
            });
            self.metrics.set("filter.build_ms", median_by(&builds, |s| *s) * 1e3);
            // Same walk as the kernel rung, with nothing done per tile, so
            // that the kernel rung minus this one is the kernel alone.
            let checks = self.repeat("rung.filter", |spans| {
                let start = Instant::now();
                let passed = walk_tiles(scheme, Some(f), data, spans, |tile, _| {
                    black_box(tile.ids.len());
                });
                Ok((start.elapsed().as_secs_f64(), passed))
            });
            t_filter = median_by(&checks, |c| c.0);
            evaluated = checks.first().map_or(0.0, |(_, passed)| *passed as f64);
            self.metrics.set("filter.check_ns_per_pair", per_pair(t_filter - t_enumerate));
            self.metrics.set_exact("filter.evaluated_share", evaluated / pairs);
        }

        // --- core.runner.kernel + apps.kernels
        let kernel = parts.kernel.as_ref();
        let kernel_rung = |ladder: &mut Self, name: &str, batch: bool| {
            let samples = ladder.repeat(name, |spans| {
                let mut out: Vec<f64> = Vec::with_capacity(TILE);
                let mut check = 0u64;
                let start = Instant::now();
                let reached = walk_tiles(scheme, filter, data, spans, |tile, spans| {
                    out.clear();
                    if batch {
                        spanned(spans, "apps.kernels.eval_batch", || {
                            kernel.eval_batch(&tile.a, &tile.b, &mut out)
                        });
                    } else {
                        spanned(spans, "apps.kernels.eval", || {
                            out.extend(tile.a.iter().zip(&tile.b).map(|(x, y)| kernel.eval(x, y)))
                        });
                    }
                    for r in &out {
                        check = check.wrapping_add(r.to_bits());
                    }
                });
                let secs = start.elapsed().as_secs_f64();
                black_box(check);
                if reached as f64 == evaluated {
                    Ok(secs)
                } else {
                    Err(format!("kernel saw {reached} pairs, expected {evaluated}"))
                }
            });
            median_by(&samples, |s| *s)
        };
        let t_kernel = kernel_rung(self, "rung.kernel", true);
        let t_scalar = kernel_rung(self, "rung.kernel_scalar", false);
        let batch_ns = (t_kernel - t_filter) * 1e9 / evaluated.max(1.0);
        let (ops, bytes) = T::computed_work(data);
        self.metrics.set("kernel.batch_ns_per_pair", batch_ns);
        self.metrics
            .set("kernel.scalar_ns_per_pair", (t_scalar - t_filter) * 1e9 / evaluated.max(1.0));
        self.metrics.set("kernel.gflop_per_s", if batch_ns > 0.0 { ops / batch_ns } else { 0.0 });
        self.metrics.set_exact("kernel.bytes_per_pair_computed", bytes);

        // --- core.runner aggregation
        let aggregator = parts.aggregator.as_ref();
        let expected = self.expected;
        let folds = self.repeat("rung.aggregate", |mut spans| {
            let mut accs: Vec<Accumulator<f64>> = (0..v).map(|id| aggregator.init(id)).collect();
            let mut out: Vec<f64> = Vec::with_capacity(TILE);
            let start = Instant::now();
            walk_tiles(scheme, filter, data, spans.as_deref_mut(), |tile, mut spans| {
                out.clear();
                spanned(spans.as_deref_mut(), "apps.kernels.eval_batch", || {
                    kernel.eval_batch(&tile.a, &tile.b, &mut out)
                });
                spanned(spans, "core.runner.fold", || {
                    for (&(a, b), &r) in tile.ids.iter().zip(&out) {
                        aggregator.fold(&mut accs[a as usize], b, r);
                        aggregator.fold(&mut accs[b as usize], a, r);
                    }
                });
            });
            let fold_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let rows: Vec<(u64, Vec<(u64, f64)>)> = spanned(spans, "core.runner.finish", || {
                accs.into_iter().map(|acc| (acc.element(), aggregator.finish(acc))).collect()
            });
            let finish_secs = start.elapsed().as_secs_f64();
            check_digest(
                digest_rows(rows.iter().map(|(id, row)| (*id, row.as_slice()))),
                expected,
            )?;
            let results: usize = rows.iter().map(|(_, row)| row.len()).sum();
            Ok((fold_secs, finish_secs, results))
        });
        let t_fold = median_by(&folds, |f| f.0);
        let t_finish = median_by(&folds, |f| f.1);
        let results = folds.first().map_or(0, |f| f.2);
        self.metrics.set("aggregate.fold_ns_per_pair", per_pair(t_fold - t_kernel));
        self.metrics.set("aggregate.finish_ns_per_pair", per_pair(t_finish));
        // Each result is a (u64 neighbour, f64) entry; computed, not measured.
        self.metrics.set_exact("aggregate.output_mb", results as f64 * 16.0 / 1e6);
        if spec.prefix_threshold.is_some() {
            self.metrics.set_exact("filter.survivors", results as f64 / 2.0);
        }
        drop(parts);

        // --- core.runner.sequential, core.runner.local
        let sequential = self.job_rung("rung.sequential", JobRung::local(0), |_, _, _| ());
        self.metrics.set("sequential.ns_per_pair", per_pair(median_by(&sequential, |r| r.0)));
        let t1_runs = self.job_rung("rung.local_t1", JobRung::local(1), |_, _, _| ());
        let tn_runs = self.job_rung("rung.local_tn", JobRung::local(THREADS), |_, secs, cpu| {
            cpu / (secs * THREADS as f64)
        });
        let (t1, tn) = (median_by(&t1_runs, |r| r.0), median_by(&tn_runs, |r| r.0));
        self.metrics.set("local.t1_ns_per_pair", per_pair(t1));
        self.metrics.set("local.tn_ns_per_pair", per_pair(tn));
        self.metrics.set(
            "local.parallel_efficiency",
            if tn > 0.0 { t1 / (THREADS as f64 * tn) } else { 0.0 },
        );
        self.metrics.set("local.overhead_ns_per_pair", per_pair(t1 - (t_fold + t_finish)));
        self.metrics.set("local.cpu_util", median_by(&tn_runs, |r| r.1));
    }

    /// The same data under each of the four schemes: enumeration alone and
    /// the local runner. Explains scheme gaps without more workloads.
    fn scheme_sweep(&mut self) {
        let problem = self.problem;
        let v = problem.v();
        let block_tasks = make_scheme(problem.spec.scheme, v).num_tasks();
        let kinds = [
            SchemeKind::Broadcast { tasks: block_tasks },
            problem.spec.scheme,
            SchemeKind::Design,
            SchemeKind::Quorum,
        ];
        let pairs = problem.pairs() as f64;
        for kind in kinds {
            let prefix = format!("sweep.{}", kind.label());
            let scheme = make_scheme(kind, v);
            let t_enum = self.enumerate_rung(&format!("{prefix}.enumerate"), scheme.as_ref());
            let how = JobRung { scheme: Some(scheme), ..JobRung::local(THREADS) };
            let locals = self.job_rung(&format!("{prefix}.local"), how, |_, _, _| ());
            let enum_name = per_layer(&format!("{prefix}.enumerate_ns_per_pair"));
            let local_name = per_layer(&format!("{prefix}.local_ns_per_pair"));
            self.metrics.set(enum_name, t_enum * 1e9 / pairs);
            self.metrics.set(local_name, median_by(&locals, |r| r.0) * 1e9 / pairs);
        }
    }

    /// `core.runner.mr`, `mapreduce.engine`, `cluster.codec`, `cluster.dfs`
    /// and `obs`: on the MR and process workloads. `own` is the workload's
    /// own transport (in-process or worker processes).
    fn mr_layers(&mut self, own: TransportKind, reference_rows: Vec<(u64, Vec<(u64, f64)>)>) {
        let pairs = self.problem.pairs() as f64;
        let per_pair = |secs: f64| secs * 1e9 / pairs;

        // --- core.runner.mr, on the in-process cluster
        let in_process = JobRung::cluster(TransportKind::InProcess);
        let fused =
            self.job_rung("rung.mr", in_process.clone(), |run, _, _| run.mr.first().cloned());
        let t_mr = median_by(&fused, |r| r.0);
        let unfused = JobRung { fuse: false, ..in_process };
        let unfused = self.job_rung("rung.mr_unfused", unfused, |_, _, _| ());
        self.metrics.set("mr.ns_per_pair", per_pair(t_mr));
        self.metrics.set("mr.unfused_ns_per_pair", per_pair(median_by(&unfused, |r| r.0)));
        let local_ns = self.metrics.get("local.tn_ns_per_pair").unwrap_or(0.0);
        self.metrics.set("mr.overhead_vs_local_ns_per_pair", per_pair(t_mr) - local_ns);
        if let Some(report) = fused.first().and_then(|(_, r)| r.as_ref()) {
            self.metrics.set_exact("mr.shuffle_charged_bytes", report.shuffle_bytes as f64);
            self.metrics.set_exact("mr.shuffle_moved_bytes", report.shuffle_moved_bytes as f64);
            self.metrics
                .set_exact("mr.moved_bytes_per_pair", report.shuffle_moved_bytes as f64 / pairs);
            self.metrics.set_exact("mr.replicated_records", report.replicated_records as f64);
            self.metrics.set_exact("mr.max_working_set_bytes", report.max_working_set_bytes as f64);
            self.metrics.set("mr.peak_intermediate_bytes", report.peak_intermediate_bytes as f64);
        }
        // Charged bytes are the paper's cost model: they may never move,
        // not between repetitions and not between fused and unfused runs
        // (checked by the repo's own suites); here: between repetitions.
        let charged: Vec<u64> =
            fused.iter().filter_map(|(_, r)| r.as_ref().map(|r| r.shuffle_bytes)).collect();
        self.attempted += 1;
        if charged.windows(2).any(|w| w[0] != w[1]) {
            self.failures.push(format!("charged shuffle bytes vary between runs: {charged:?}"));
        }

        // --- obs, and where the MR wall-clock goes: telemetry on, own transport
        let plain = self.job_rung("rung.own_transport", JobRung::cluster(own), |_, _, _| ());
        let telemetry = JobRung { telemetry: true, ..JobRung::cluster(own) };
        let traced = self.job_rung("rung.telemetry", telemetry, |run, _, _| {
            let phases = &run.report.job_phases;
            let phase_secs = |keep: &dyn Fn(&str, &str) -> bool| {
                phases
                    .iter()
                    .filter(|p| keep(&p.job, &p.phase))
                    .map(|p| p.end_us.saturating_sub(p.start_us))
                    .sum::<u64>() as f64
                    / 1e6
            };
            let map = phase_secs(&|job, phase| job.contains("-j1-") && phase == "map");
            let reduce = phase_secs(&|job, phase| job.contains("-j1-") && phase == "reduce");
            let all = phase_secs(&|_, _| true);
            let (busy, idle) = run
                .report
                .node_timelines
                .iter()
                .fold((0u64, 0u64), |(b, i), n| (b + n.busy_us, i + n.idle_us));
            let busy_share = if busy + idle > 0 { busy as f64 / (busy + idle) as f64 } else { 0.0 };
            (map, reduce, all - map - reduce, busy_share)
        });
        let (t_plain, t_traced) = (median_by(&plain, |r| r.0), median_by(&traced, |r| r.0));
        if t_plain > 0.0 {
            self.metrics.set("obs.telemetry_overhead_pct", 100.0 * (t_traced / t_plain - 1.0));
        }
        if let Some((_, (map, reduce, other, busy_share))) = traced.first() {
            self.metrics.set("mr.job1_map_s", *map);
            self.metrics.set("mr.job1_reduce_s", *reduce);
            self.metrics.set("mr.other_phases_s", *other);
            self.metrics.set("mr.node_busy_share", *busy_share);
        }

        // --- mapreduce.engine: bare map/sort/shuffle/reduce
        let identity = self.repeat("mapreduce.engine.run", |_| {
            let cluster = Cluster::try_new(cluster_config(own)).map_err(|e| e.to_string())?;
            let records = (0..IDENTITY_RECORDS).map(|i| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let inputs = write_sharded(&cluster, "identity/in", 2 * crate::defs::NODES, records)
                .map_err(|e| e.to_string())?;
            let spec = JobSpec::new(
                "identity",
                inputs,
                "identity/out",
                IdentityMapper::<u64, u64>::new(),
                CountReducer,
                crate::defs::NODES,
            );
            let start = Instant::now();
            let out = Engine::new(&cluster).run(spec).map_err(|e| e.to_string())?;
            let secs = start.elapsed().as_secs_f64();
            let groups = out.counters.get(pmr_mapreduce::builtin::REDUCE_INPUT_GROUPS).copied();
            if groups != Some(IDENTITY_RECORDS) {
                return Err(format!("identity job reduced {groups:?} groups"));
            }
            Ok(secs)
        });
        let t_identity = median_by(&identity, |s| *s);
        if t_identity > 0.0 {
            self.metrics.set("engine.identity_records_per_s", IDENTITY_RECORDS as f64 / t_identity);
        }

        // --- cluster.codec, on the workload's own output rows
        let codec = self.repeat("cluster.codec", |mut spans| {
            let rows = reference_rows.clone();
            let start = Instant::now();
            let (encoded, _) = spanned(spans.as_deref_mut(), "cluster.codec.encode", || {
                encode_record_stream(rows)
            });
            let encode_secs = start.elapsed().as_secs_f64();
            let len = encoded.len();
            let start = Instant::now();
            let decoded = spanned(spans, "cluster.codec.decode", || {
                decode_record_stream::<u64, Vec<(u64, f64)>>(encoded)
            })
            .map_err(|e| format!("decode failed: {e:?}"))?;
            let decode_secs = start.elapsed().as_secs_f64();
            if decoded != reference_rows {
                return Err("codec round trip changed the rows".into());
            }
            Ok((len as f64 / 1e6 / encode_secs, len as f64 / 1e6 / decode_secs))
        });
        self.metrics.set("codec.encode_mb_per_s", median_by(&codec, |c| c.0));
        self.metrics.set("codec.decode_mb_per_s", median_by(&codec, |c| c.1));

        // --- cluster.dfs, through the workload's own transport
        let block = Bytes::from((0..MIB).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let dfs = self.repeat("cluster.dfs", |mut spans| {
            let cluster = Cluster::try_new(cluster_config(own)).map_err(|e| e.to_string())?;
            let start = Instant::now();
            for i in 0..DFS_FILES {
                spanned(spans.as_deref_mut(), "cluster.dfs.create", || {
                    cluster.dfs().create(&format!("bench/{i}"), block.clone())
                })
                .map_err(|e| e.to_string())?;
            }
            let write_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for i in 0..DFS_FILES {
                let data = spanned(spans.as_deref_mut(), "cluster.dfs.read", || {
                    cluster.dfs().read(&format!("bench/{i}"))
                })
                .map_err(|e| e.to_string())?;
                if data != block {
                    return Err(format!("dfs returned other bytes for file {i}"));
                }
            }
            let read_secs = start.elapsed().as_secs_f64();
            let mb = (DFS_FILES * MIB) as f64 / 1e6;
            Ok((mb / write_secs, mb / read_secs))
        });
        self.metrics.set("dfs.write_mb_per_s", median_by(&dfs, |d| d.0));
        self.metrics.set("dfs.read_mb_per_s", median_by(&dfs, |d| d.1));
    }

    /// `cluster.transport`: worker spawn, raw put/get and round trip on one
    /// worker's `NodeStore`, the physically measured wire bytes of one run,
    /// and the process rungs over both socket kinds.
    fn transport_layers(&mut self) {
        let pairs = self.problem.pairs() as f64;
        let per_pair = |secs: f64| secs * 1e9 / pairs;
        let uds = TransportKind::Process { socket: SocketMode::Uds };
        let tcp = TransportKind::Process { socket: SocketMode::Tcp };

        let spawns = self.repeat("cluster.transport.spawn", |_| {
            let start = Instant::now();
            let cluster = Cluster::try_new(cluster_config(uds)).map_err(|e| e.to_string())?;
            let secs = start.elapsed().as_secs_f64();
            drop(cluster);
            Ok(secs)
        });
        self.metrics.set("transport.spawn_ms", median_by(&spawns, |s| *s) * 1e3);

        let block = Bytes::from((0..MIB).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
        let small = Bytes::from(vec![7u8; 64]);
        let raw = self.repeat("cluster.transport.store", |mut spans| {
            let cluster = Cluster::try_new(cluster_config(uds)).map_err(|e| e.to_string())?;
            let store = cluster.transport().store(NodeId(0));
            let start = Instant::now();
            for i in 0..DFS_FILES {
                spanned(spans.as_deref_mut(), "cluster.transport.put", || {
                    store.put(&format!("bench/{i}"), block.clone())
                })
                .map_err(|e| e.to_string())?;
            }
            let put_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for i in 0..DFS_FILES {
                let data = spanned(spans.as_deref_mut(), "cluster.transport.get", || {
                    store.get(&format!("bench/{i}"))
                })
                .map_err(|e| e.to_string())?;
                if data != block {
                    return Err(format!("worker returned other bytes for file {i}"));
                }
            }
            let get_secs = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for _ in 0..RTT_PUTS {
                store.put("bench/rtt", small.clone()).map_err(|e| e.to_string())?;
            }
            let rtt_secs = start.elapsed().as_secs_f64() / RTT_PUTS as f64;
            let mb = (DFS_FILES * MIB) as f64 / 1e6;
            Ok((mb / put_secs, mb / get_secs, rtt_secs * 1e6))
        });
        self.metrics.set("transport.put_mb_per_s", median_by(&raw, |r| r.0));
        self.metrics.set("transport.get_mb_per_s", median_by(&raw, |r| r.1));
        self.metrics.set("transport.rtt_us", median_by(&raw, |r| r.2));

        let over_uds = self.job_rung("rung.process_uds", JobRung::cluster(uds), |run, _, _| {
            run.mr.first().map(|mr| mr.wire)
        });
        let over_tcp = self.job_rung("rung.process_tcp", JobRung::cluster(tcp), |_, _, _| ());
        let t_uds = median_by(&over_uds, |r| r.0);
        self.metrics.set("transport.uds_ns_per_pair", per_pair(t_uds));
        self.metrics.set("transport.tcp_ns_per_pair", per_pair(median_by(&over_tcp, |r| r.0)));
        let mr_ns = self.metrics.get("mr.ns_per_pair").unwrap_or(0.0);
        self.metrics.set("transport.overhead_vs_mr_ns_per_pair", per_pair(t_uds) - mr_ns);
        if let Some(wire) = over_uds.first().and_then(|(_, w)| *w) {
            self.metrics.set_exact("transport.wire_seed_bytes", wire.seed_bytes as f64);
            self.metrics.set_exact("transport.wire_shuffle_bytes", wire.shuffle_bytes as f64);
            self.metrics.set_exact("transport.wire_dfs_bytes", wire.dfs_bytes as f64);
            self.metrics.set_exact("transport.wire_frames", wire.frames as f64);
            self.metrics
                .set_exact("transport.wire_bytes_per_pair", wire.total_bytes() as f64 / pairs);
        }
        // Exact on healthy runs: every repetition puts the same bytes on
        // the sockets.
        let totals: Vec<u64> =
            over_uds.iter().filter_map(|(_, w)| w.map(|w| w.total_bytes())).collect();
        self.attempted += 1;
        if totals.windows(2).any(|w| w[0] != w[1]) {
            self.failures.push(format!("wire bytes vary between runs: {totals:?}"));
        }
    }
}

/// The ladder's accounting: the hand-assembled rungs plus the runner's
/// overhead add up to `local.t1_ns_per_pair`. Kernel time is per evaluated
/// pair, so it is weighted by the evaluated share when a filter prunes.
fn ladder_notes(m: &Metrics) -> Vec<(&'static str, f64, &'static str)> {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let filtered = get("filter.evaluated_share") > 0.0;
    let kernel_share = if filtered { get("filter.evaluated_share") } else { 1.0 };
    let rungs = get("scheme.enumerate_ns_per_pair")
        + get("filter.check_ns_per_pair")
        + get("kernel.batch_ns_per_pair") * kernel_share
        + get("aggregate.fold_ns_per_pair")
        + get("aggregate.finish_ns_per_pair");
    vec![
        ("ladder.rungs_sum_ns_per_pair", rungs, "ns/pair"),
        (
            "ladder.rungs_plus_overhead_ns_per_pair",
            rungs + get("local.overhead_ns_per_pair"),
            "ns/pair",
        ),
        ("ladder.local_t1_ns_per_pair", get("local.t1_ns_per_pair"), "ns/pair"),
    ]
}

pub fn run<T: Element>(problem: &Problem<T>, seconds: f64, sweep: bool) -> Outcome {
    let mut tracer = Tracer::new(problem.spec.name);
    let root = tracer.enter("traced_run");
    let (reference, _) = tracer.scope("harness.reference", |_| {
        problem.reference_job().run().expect("the sequential reference runs")
    });
    tracer.scope("harness.warm_up", |_| {
        for _ in 0..WARM_UPS {
            let parts = problem.set_up();
            black_box(problem.workload_job(&parts).run().expect("the warm-up runs"));
        }
    });
    let mut ladder = Ladder {
        problem,
        tracer,
        metrics: Metrics::default(),
        rung_budget: Duration::from_secs_f64(seconds * RUNG_SHARE),
        attempted: 0,
        failures: Vec::new(),
        expected: digest_output(&reference.output),
    };
    ladder.compute_layers();
    if sweep {
        ladder.scheme_sweep();
    }
    if let Some(own) = transport_of(problem.spec.backend) {
        ladder.mr_layers(own, reference.output.per_element);
        if problem.spec.backend == BackendKind::Process {
            ladder.transport_layers();
        }
    }
    ladder.tracer.exit(root);
    Outcome {
        notes: ladder_notes(&ladder.metrics),
        metrics: ladder.metrics,
        attempted: ladder.attempted,
        failed: ladder.failures.len() as u64,
        failures: ladder.failures,
        tracer: ladder.tracer,
    }
}
