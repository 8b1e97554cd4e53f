//! The unified [`PairwiseJob`] builder — one entry point over the
//! sequential, local-threads, and MapReduce backends.
//!
//! ```ignore
//! let run = PairwiseJob::new(&payloads, comp)
//!     .scheme(BlockScheme::new(v, b))
//!     .backend(Backend::Mr(&cluster))
//!     .aggregator(ConcatSort)
//!     .telemetry(Telemetry::enabled())
//!     .run()?;
//! run.report.write_json_file("report.json")?;
//! ```
//!
//! The distribution plan ([`PairwiseJob::scheme`],
//! [`PairwiseJob::broadcast`], [`PairwiseJob::rounds`]) is orthogonal to
//! the execution [`Backend`], and every run yields a
//! [`pmr_obs::RunReport`] alongside the output. The dataset is ingested
//! once into an [`ElementStore`] shared by all backends; pass an existing
//! store with [`PairwiseJob::from_store`] to skip the ingest copy.

use std::sync::Arc;

use pmr_cluster::Cluster;
use pmr_mapreduce::{MrError, Wire};
use pmr_obs::{RunReport, Telemetry};

use crate::hierarchical::Rounds;
use crate::runner::filter::PairFilter;
use crate::runner::kernel::BatchComp;
use crate::runner::local::{run_local_impl, LocalRunStats};
use crate::runner::mr::{
    open_io_phase, run_mr_impl, MrPairwiseOptions, MrRunReport, EVALUATIONS_COUNTER,
};
use crate::runner::sequential::run_sequential_impl;
use crate::runner::store::ElementStore;
use crate::runner::{Aggregator, CompFn, ConcatSort, PairwiseOutput, Symmetry};
use crate::scheme::{BroadcastScheme, DistributionScheme};

/// Where a [`PairwiseJob`] executes.
#[derive(Clone, Copy)]
pub enum Backend<'a> {
    /// Single-threaded reference execution (no scheme required).
    Sequential,
    /// Multi-threaded shared-memory execution of the scheme's tasks.
    Local {
        /// Worker threads (clamped to at least 1).
        threads: usize,
    },
    /// The paper's MapReduce pipeline on a simulated cluster.
    Mr(&'a Cluster),
}

impl Backend<'_> {
    fn name(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::Local { .. } => "local",
            // A cluster whose node storage lives in worker processes
            // reports as its own backend so runs are distinguishable in
            // report meta without inspecting the transport section.
            Backend::Mr(cluster) if cluster.is_distributed() => "process",
            Backend::Mr(_) => "mr",
        }
    }
}

/// How elements are distributed into tasks.
pub(crate) enum Plan {
    /// No scheme chosen (valid only for [`Backend::Sequential`]).
    None,
    /// A single distribution scheme (two-job pipeline on MR).
    Scheme(Arc<dyn DistributionScheme>),
    /// The broadcast scheme via the single-job distributed-cache variant
    /// (paper §5.1) on MR; plain task execution elsewhere.
    Broadcast(Arc<dyn DistributionScheme>),
    /// A flat scheme's tasks in sequential rounds (paper §7).
    Rounds(Rounds),
}

impl Plan {
    /// The flat scheme whose tasks the plan runs.
    pub(crate) fn scheme(&self) -> Option<&Arc<dyn DistributionScheme>> {
        match self {
            Plan::None => None,
            Plan::Scheme(s) | Plan::Broadcast(s) => Some(s),
            Plan::Rounds(rounds) => Some(rounds.scheme()),
        }
    }
}

/// A completed [`PairwiseJob`]: output plus observability artifacts.
#[derive(Debug)]
pub struct PairwiseRun<R> {
    /// Per-element aggregated results.
    pub output: PairwiseOutput<R>,
    /// The run report (meta, counters, spans, timelines, histograms).
    /// Empty when telemetry was never enabled.
    pub report: RunReport,
    /// Per-MR-run metrics: one entry for a plain/broadcast run, one per
    /// round for [`PairwiseJob::rounds`]; empty for non-MR backends.
    pub mr: Vec<MrRunReport>,
    /// Local-backend statistics, when [`Backend::Local`] ran.
    pub local: Option<LocalRunStats>,
}

impl<R> PairwiseRun<R> {
    /// Total pairwise function evaluations across the run.
    pub fn evaluations(&self) -> u64 {
        if let Some(local) = &self.local {
            return local.evaluations;
        }
        if !self.mr.is_empty() {
            return self.mr.iter().map(|r| r.evaluations).sum();
        }
        self.report.counter(EVALUATIONS_COUNTER).unwrap_or(0)
    }
}

/// Builder for one pairwise computation: elements + `comp`, a distribution
/// plan, a backend, and optional aggregation/telemetry. See the module
/// docs for an example.
pub struct PairwiseJob<'a, T, R> {
    store: Arc<ElementStore<T>>,
    comp: CompFn<T, R>,
    kernel: Option<Arc<dyn BatchComp<T, R>>>,
    plan: Plan,
    backend: Backend<'a>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    filter: Option<Arc<dyn PairFilter>>,
    telemetry: Telemetry,
    fuse: bool,
    options: MrPairwiseOptions,
}

impl<'a, T, R> PairwiseJob<'a, T, R>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Send + Sync,
{
    /// Starts a job over `elements` (element `i` has id `i`) with an
    /// already-wrapped [`CompFn`]. The elements are ingested once into an
    /// [`ElementStore`] — the only payload copy the pipeline makes.
    pub fn new(elements: &'a [T], comp: CompFn<T, R>) -> Self {
        PairwiseJob::from_store(ElementStore::from_slice(elements), comp)
    }

    /// Starts a job over an existing shared [`ElementStore`] (no copy).
    pub fn from_store(store: Arc<ElementStore<T>>, comp: CompFn<T, R>) -> Self {
        PairwiseJob {
            store,
            comp,
            kernel: None,
            plan: Plan::None,
            backend: Backend::Sequential,
            symmetry: Symmetry::Symmetric,
            aggregator: Arc::new(ConcatSort),
            filter: None,
            telemetry: Telemetry::disabled(),
            fuse: true,
            options: MrPairwiseOptions::default(),
        }
    }

    /// Starts a job from a plain closure (wrapped via [`crate::runner::comp_fn`]).
    pub fn from_fn(elements: &'a [T], comp: impl Fn(&T, &T) -> R + Send + Sync + 'static) -> Self {
        PairwiseJob::new(elements, Arc::new(comp))
    }

    /// Distributes elements with `scheme` (two-job pipeline on MR).
    pub fn scheme(self, scheme: impl DistributionScheme + 'static) -> Self {
        self.scheme_arc(Arc::new(scheme))
    }

    /// [`PairwiseJob::scheme`] for an already-shared scheme.
    pub fn scheme_arc(mut self, scheme: Arc<dyn DistributionScheme>) -> Self {
        self.plan = Plan::Scheme(scheme);
        self
    }

    /// Uses the broadcast scheme via the single-job distributed-cache
    /// variant on MR (paper §5.1).
    pub fn broadcast(mut self, scheme: BroadcastScheme) -> Self {
        self.plan = Plan::Broadcast(Arc::new(scheme));
        self
    }

    /// Runs a flat scheme's tasks in sequential rounds (paper §7). On MR
    /// each round is one job 1 in its own DFS directory, whose results are
    /// aggregated into the driver's one set of rows (or accumulators) and
    /// whose files are deleted before the next round starts, so job 2
    /// never runs, fused or not; aggregation follows the same rule as
    /// every other run (see [`fuse`](PairwiseJob::fuse)).
    /// [`PairwiseRun::mr`] holds one report per round, so peak
    /// intermediate storage shows bounded by the largest round. Local runs
    /// have no intermediate storage to bound and run the flat scheme in
    /// one pass.
    pub fn rounds(mut self, rounds: Rounds) -> Self {
        self.plan = Plan::Rounds(rounds);
        self
    }

    /// Selects the execution backend (default: [`Backend::Sequential`]).
    pub fn backend(mut self, backend: Backend<'a>) -> Self {
        self.backend = backend;
        self
    }

    /// Evaluates through a batch kernel instead of the scalar comp — the
    /// hot path for comps with a vectorized/tiled form (see
    /// [`BatchComp`]). The kernel **replaces** the `comp` on every
    /// backend; its `eval` must compute the same function.
    pub fn kernel(self, kernel: impl BatchComp<T, R> + 'static) -> Self {
        self.kernel_arc(Arc::new(kernel))
    }

    /// [`PairwiseJob::kernel`] for an already-shared kernel.
    pub fn kernel_arc(mut self, kernel: Arc<dyn BatchComp<T, R>>) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Declares `comp`'s symmetry (default: [`Symmetry::Symmetric`]).
    pub fn symmetry(mut self, symmetry: Symmetry) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the result aggregator (default: [`ConcatSort`]).
    pub fn aggregator(self, aggregator: impl Aggregator<R> + 'static) -> Self {
        self.aggregator_arc(Arc::new(aggregator))
    }

    /// [`PairwiseJob::aggregator`] for an already-shared aggregator.
    pub fn aggregator_arc(mut self, aggregator: Arc<dyn Aggregator<R>>) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Installs a candidate-pruning [`PairFilter`] for a thresholded
    /// ("some pairs") join: every backend streams each task's pairs
    /// through the filter **below the scheme's enumeration**, so pruned
    /// pairs are never resolved or evaluated. Distribution, replication,
    /// and the charged cost model are untouched; the run's report gains
    /// the three pruning counters and a `pruning` section (filtered runs
    /// only — unfiltered reports are byte-identical to before).
    pub fn pair_filter(self, filter: impl PairFilter + 'static) -> Self {
        self.pair_filter_arc(Arc::new(filter))
    }

    /// [`PairwiseJob::pair_filter`] for an already-shared filter.
    pub fn pair_filter_arc(mut self, filter: Arc<dyn PairFilter>) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Attaches a telemetry handle; [`PairwiseRun::report`] snapshots it
    /// after the run. On [`Backend::Mr`] the cluster's own handle (see
    /// `Cluster::with_telemetry`) takes precedence when enabled, so engine
    /// task spans and the report come from one sink.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the MR execution options (memory overhead, DFS dir).
    pub fn mr_options(mut self, options: MrPairwiseOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables or disables fused aggregation (default: enabled). Every
    /// backend applies one rule. Fused, a
    /// [`DecomposableAggregator`](crate::runner::DecomposableAggregator)
    /// folds each result into the aggregator's own accumulators (or, for
    /// `ConcatSort` over every pair, writes its rows in place); any other
    /// aggregator — and every aggregator unfused — gathers all partials of
    /// an element and runs once over them, in ascending neighbour id. On
    /// the MR backend a fused run aggregates job 1's output on the driver
    /// and skips job 2 and its shuffle entirely, whatever the aggregator;
    /// unfused, a one-batch plan runs the paper's two jobs. Charged bytes
    /// are unchanged either way.
    pub fn fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Executes the job.
    ///
    /// Errors if the plan/backend combination is invalid (a scheme is
    /// required by every backend except [`Backend::Sequential`]) or the MR
    /// pipeline fails; payload-count mismatches surface as
    /// [`MrError::InvalidJob`]. A run that writes its rows in place (all
    /// pairs, [`ConcatSort`], fused, unfiltered) also checks that the scheme
    /// delivered every pair exactly once: on the local backend a duplicate
    /// or missing pair is [`MrError::InvalidJob`], on the MR backend
    /// [`MrError::User`] from the driver merge.
    pub fn run(self) -> pmr_mapreduce::Result<PairwiseRun<R>> {
        let PairwiseJob {
            store,
            comp,
            kernel,
            plan,
            backend,
            symmetry,
            aggregator,
            filter,
            telemetry,
            fuse,
            options,
        } = self;
        // Every backend evaluates through one kernel: the caller's batched
        // one, or the comp itself (bit-identical results either way).
        let kernel: Arc<dyn BatchComp<T, R>> = kernel.unwrap_or_else(|| Arc::new(comp));
        // One sink for the whole run: the cluster's when it has one (the
        // engine records spans there), otherwise the builder's.
        let effective = match backend {
            Backend::Mr(cluster) if cluster.telemetry().is_enabled() => cluster.telemetry().clone(),
            _ => telemetry,
        };
        // The run's clock starts here: its first phase opens at entry, so
        // the driver's setup falls inside the report's wall, and every
        // later phase hands over from the one before. An MR run's phases
        // all go to the cluster's sink, where the engine records its own:
        // a builder sink beside a cluster without one gets none of them.
        match backend {
            Backend::Sequential => effective.job_phase("sequential", "evaluate"),
            Backend::Local { .. } => effective.job_phase("local", "evaluate"),
            Backend::Mr(cluster) => open_io_phase(cluster, &options.dfs_dir),
        }
        effective.set_meta("backend", backend.name());
        effective.set_meta("symmetry", format!("{symmetry:?}"));
        effective.set_meta("elements", store.len());
        if let Some(f) = &filter {
            effective.set_meta("pruner", f.name());
            effective.set_meta("pruner.exact", f.exact());
        }
        match &plan {
            Plan::None => {}
            Plan::Scheme(s) | Plan::Broadcast(s) => {
                effective.set_meta("scheme", s.name());
                effective.set_meta("scheme.v", s.v());
                effective.set_meta("scheme.tasks", s.num_tasks());
            }
            Plan::Rounds(rounds) => {
                effective.set_meta("scheme", "hierarchical-rounds");
                effective.set_meta("scheme.rounds", rounds.num_rounds());
            }
        }

        let run = match (backend, plan.scheme()) {
            (Backend::Sequential, _) => {
                let (output, evaluations, pruning) = run_sequential_impl(
                    store.elements(),
                    kernel.as_ref(),
                    symmetry,
                    aggregator.as_ref(),
                    filter.as_deref(),
                );
                let v = store.len() as u64;
                Ok(PairwiseRun {
                    output,
                    report: RunReport::default(),
                    mr: Vec::new(),
                    local: Some(LocalRunStats {
                        tasks: 1,
                        evaluations,
                        max_working_set: v,
                        pruning,
                    }),
                })
            }
            (_, None) => {
                let which = if let Backend::Mr(_) = backend { "MR" } else { "local" };
                Err(MrError::InvalidJob(format!(
                    "the {which} backend needs a scheme (scheme/broadcast/rounds)"
                )))
            }
            (Backend::Local { threads }, Some(scheme)) => run_local_impl(
                store.elements(),
                scheme.as_ref(),
                kernel.as_ref(),
                symmetry,
                aggregator.as_ref(),
                threads,
                fuse,
                filter.as_deref(),
                &effective,
            )
            .map(|(output, stats)| PairwiseRun {
                output,
                report: RunReport::default(),
                mr: Vec::new(),
                local: Some(stats),
            }),
            (Backend::Mr(cluster), Some(_)) => run_mr_impl(
                cluster,
                &plan,
                &store,
                kernel,
                symmetry,
                aggregator,
                fuse,
                filter.clone(),
                options,
            )
            .map(|(output, mr)| PairwiseRun {
                output,
                report: RunReport::default(),
                mr,
                local: None,
            }),
        };
        // A failed run ends its phase chain where it failed, so a sink the
        // next run reuses does not stretch the failed phase over the idle
        // time in between.
        let mut run = run.inspect_err(|_| effective.close_phase())?;

        // Final drain: catch worker-side trace events recorded after the
        // last job's finalize drain (no-op in-process / tracing off).
        if let Backend::Mr(cluster) = backend {
            cluster.drain_worker_traces();
        }
        // Assemble the report last: it closes the run's last phase at the
        // reading that ends the wall. Then fold in the framework counters
        // (and the evaluation counts the non-MR backends tracked outside
        // the counter system).
        let mut report = effective.report();
        for mr in &run.mr {
            report.merge_counters(mr.job1.counters.iter().map(|(k, v)| (k.as_str(), *v)));
            if let Some(job2) = &mr.job2 {
                report.merge_counters(job2.counters.iter().map(|(k, v)| (k.as_str(), *v)));
            }
        }
        if let Some(local) = &run.local {
            report.merge_counters([(EVALUATIONS_COUNTER, local.evaluations)]);
            // Pruning counters only exist on filtered runs (the MR path
            // enforces the same rule task-side), so unfiltered reports are
            // byte-identical to pre-pruning ones.
            if let Some(p) = local.pruning {
                report.merge_counters(p.counters());
            }
        }
        if let Some(f) = &filter {
            report.pruning = Some(pmr_obs::PruningReport {
                pruner: f.name().to_string(),
                exact: f.exact(),
                candidates: report.counter(crate::runner::CANDIDATE_PAIRS_COUNTER).unwrap_or(0),
                pruned: report.counter(crate::runner::PRUNED_PAIRS_COUNTER).unwrap_or(0),
                evaluated: report.counter(crate::runner::EVALUATED_PAIRS_COUNTER).unwrap_or(0),
            });
        }
        // Distributed runs carry the physically measured wire traffic and
        // the worker-process table; in-process runs have no wire, so the
        // section stays absent and the report is unchanged from before the
        // transport layer existed.
        if let Backend::Mr(cluster) = backend {
            if cluster.is_distributed() {
                let snap = cluster.wire_snapshot();
                report.transport = Some(pmr_obs::TransportReport {
                    name: cluster.transport().name().to_string(),
                    workers: cluster
                        .workers()
                        .iter()
                        .map(|w| pmr_obs::WorkerProc {
                            node: w.node.0,
                            pid: w.pid,
                            alive: w.alive,
                            offset_us: w.offset_us,
                            trace_events: w.trace_events,
                            trace_dropped: w.trace_dropped,
                        })
                        .collect(),
                    wire_bytes: snap.series().iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    wire_frames: snap.frames,
                });
            }
        }
        run.report = report;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::comp_fn;
    use crate::scheme::BlockScheme;
    use pmr_cluster::{Cluster, ClusterConfig};

    fn payloads(v: usize) -> Vec<i64> {
        (0..v as i64).map(|i| i * 31 % 101).collect()
    }

    fn comp() -> CompFn<i64, i64> {
        comp_fn(|a: &i64, b: &i64| (a - b).abs())
    }

    #[test]
    fn all_backends_agree() {
        let data = payloads(24);
        let reference = PairwiseJob::new(&data, comp()).run().unwrap();
        let local = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(24, 4))
            .backend(Backend::Local { threads: 3 })
            .run()
            .unwrap();
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let mr = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(24, 4))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap();
        assert_eq!(local.output, reference.output);
        assert_eq!(mr.output, reference.output);
        assert_eq!(local.evaluations(), 24 * 23 / 2);
        assert_eq!(mr.evaluations(), 24 * 23 / 2);
        assert_eq!(mr.mr.len(), 1);
    }

    #[test]
    fn scheme_required_off_sequential() {
        let data = payloads(6);
        let err = PairwiseJob::new(&data, comp())
            .backend(Backend::Local { threads: 2 })
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("needs a scheme"), "{err}");
    }

    #[test]
    fn telemetry_report_covers_local_run() {
        let data = payloads(18);
        let t = Telemetry::enabled();
        let run = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(18, 3))
            .backend(Backend::Local { threads: 2 })
            .telemetry(t)
            .run()
            .unwrap();
        assert!(run.report.wall_time_us > 0);
        assert!(!run.report.task_spans.is_empty());
        assert_eq!(run.report.counter(EVALUATIONS_COUNTER), Some(18 * 17 / 2));
        assert!(run.report.meta.iter().any(|(k, v)| k == "backend" && v == "local"));
        assert!(run.report.meta.iter().any(|(k, v)| k == "scheme" && v == "block"));
    }

    #[test]
    fn mr_backend_uses_cluster_sink() {
        let data = payloads(12);
        let cluster =
            Cluster::new(ClusterConfig::with_nodes(2)).with_telemetry(Telemetry::enabled());
        let run = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(12, 3))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap();
        assert!(!run.report.task_spans.is_empty());
        assert!(run.report.task_spans.iter().any(|s| s.kind == "map"));
        assert!(run.report.task_spans.iter().any(|s| s.kind == "reduce"));
        // Framework counters were folded into the report.
        assert!(run.report.counter(pmr_mapreduce::builtin::SHUFFLE_BYTES).unwrap_or(0) > 0);
    }
}
