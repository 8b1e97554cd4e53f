//! MapReduce execution of the pairwise algorithm — the paper's Algorithms
//! 1 and 2, plus the single-job distributed-cache variant for the broadcast
//! scheme (§5.1).
//!
//! The pipeline moves **element ids, not payloads**. The dataset lives in
//! an id-indexed [`ElementStore`] attached to each job as the node-local
//! resolver; every place the paper's algorithm would shuffle an element
//! copy, we shuffle its `u64` id and *charge* the copy's encoded payload
//! bytes to the cost model (`emit_charged`), so the measured communication
//! cost, working-set pressure, and intermediate-storage pressure stay
//! exactly the paper's while the physically moved bytes collapse to
//! O(ids).
//!
//! Job 1 (*distribution and pairwise comparison*): `map` replicates each
//! element id to the working sets `getSubsets` names; the sort/shuffle
//! phase routes every working set to one reducer; `reduce` resolves ids
//! through the store, evaluates `getPairs`, folds each result into its
//! element's accumulator and emits each element id with its partial
//! `(other, result)` list.
//!
//! **Aggregation** follows the one rule every backend applies
//! (`runner::aggregation_rule`): job 1 folds under `dec` — a decomposable
//! aggregator itself on a fused run, `ConcatSort` (a plain push) otherwise
//! — and an aggregator that is not `dec` runs once per element over all of
//! its partials, in ascending neighbour id. With fusion on (the default)
//! **job 2 never runs**, whatever the aggregator: the driver merges each
//! part of job 1's output into per-element accumulators — or, when the
//! run places rows (`runner::place`), writes every entry straight to its
//! index in the element's row — as soon as the part's reduce task commits,
//! in part order, while the rest of the reduce phase runs
//! (`Engine::run_with_sink`); then it runs the aggregator on each finished
//! row when it is not `dec`. Only `fuse(false)` on a one-batch plan runs
//! job 2 (*aggregation*): `map` groups by element id (charging the payload
//! copy the paper's identity map would carry), and `reduce` sorts an
//! element's partials by neighbour id and applies `aggregateResults` once.
//! The §5.1 broadcast job aggregates in its reduce with the same reducer.
//! The driver collects job 2's or the broadcast job's rows the same way,
//! part by part as they commit.
//!
//! A run deletes every part as soon as it is read, and everything else
//! under its DFS directory — and the dataset copy it seeded into each
//! worker process — before it returns, on success and on error.
//!
//! **Phases** form one chain on the telemetry sink: `PairwiseJob::run`
//! opens the first on the runner's I/O track (job `{dir}-io`), each job
//! hands over to its own, and the driver hands over to `merge-aggregate`
//! or `collect-output` after the last job; only the report closes the
//! last one, so the phases tile its wall.
//!
//! Charged bytes are the same either way: job 1 books the shuffle job 2
//! charges under [`FUSED_CHARGED_SHUFFLE_COUNTER`] on every run, and a run
//! without job 2 adds it to its charged shuffle, while the physically
//! moved shuffle bytes of job 2 disappear.
//!
//! **Rounds (§7).** A [`Rounds`](crate::hierarchical::Rounds) plan runs one
//! job 1 per round and merges each round into the same rows or
//! accumulators before the next one starts, fused or not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use pmr_cluster::{Cluster, WireSnapshot};
use pmr_mapreduce::{
    write_sharded, Counters, Engine, JobOutput, JobSpec, MapContext, Mapper, ModuloPartitioner,
    MrError, RawRecord, ReduceContext, Reducer, Values, Wire,
};
use pmr_obs::{hist, trace, Telemetry};

use crate::runner::filter::PairFilter;
use crate::runner::job::Plan;
use crate::runner::kernel::{evaluate_tiled, BatchComp, Pairs, SlotIndex};
use crate::runner::place::{finish_rows, place, places_rows, PlacedRow};
use crate::runner::store::ElementStore;
use crate::runner::{
    aggregate_all, aggregation_rule, Accumulator, Aggregator, ConcatSort, DecomposableAggregator,
    PairwiseOutput, Symmetry,
};
use crate::scheme::DistributionScheme;

/// User counter: pairwise function evaluations performed inside tasks.
pub const EVALUATIONS_COUNTER: &str = "pairwise.evaluations";

/// Run event: the driver read (and merged or collected) one part of a
/// job's output.
pub const PART_CONSUME_EVENT: &str = "part.consume";

/// User counter: the shuffle bytes job 2 charges for the records a job-1
/// reduce task emitted — frame, key, length prefix, every pre-fold
/// `(other, result)` entry, and the payload-copy charge. Accrued on every
/// run through the task's scratch counters, so the total is exactly-once
/// under crashes and speculation: on a two-job run it equals job 2's
/// charged shuffle, and a run without job 2 adds it to job 1's charged
/// shuffle to reproduce the two-job total byte-for-byte.
pub const FUSED_CHARGED_SHUFFLE_COUNTER: &str = "pairwise.fused.charged.shuffle.bytes";

/// Options for an MR pairwise run. The job shapes follow from the cluster
/// size `n`: `2n` input shards (`n` task shards for broadcast), and
/// `min(num_tasks, 4n)` job-1 and `min(v, 4n)` aggregation reducers.
#[derive(Debug, Clone)]
pub struct MrPairwiseOptions {
    /// Memory-accounting overhead factor for working sets (paper §6 saw
    /// limits hit "a little earlier than expected"; `(1, 1)` = none).
    pub memory_overhead: (u64, u64),
    /// Base DFS directory for this run's files (must be unused; the run
    /// deletes everything under it before it returns).
    pub dfs_dir: String,
}

impl Default for MrPairwiseOptions {
    fn default() -> Self {
        static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
        MrPairwiseOptions {
            memory_overhead: (1, 1),
            dfs_dir: format!("pairwise-run-{}", RUN_SEQ.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

/// Metrics of a completed MR pairwise run.
#[derive(Debug, Clone)]
pub struct MrRunReport {
    /// Job 1 (or the single broadcast job) output.
    pub job1: JobOutput,
    /// Job 2 output (absent for the single-job broadcast path and for
    /// fused runs, which skip it).
    pub job2: Option<JobOutput>,
    /// True when the driver aggregated job 1's output and job 2 was
    /// skipped: every fused run, and every run of a rounds plan. False on
    /// the two-job pipeline and the §5.1 broadcast job.
    pub fused: bool,
    /// Pairwise function evaluations performed.
    pub evaluations: u64,
    /// Element copies materialized by job 1's map phase — `v ×` the
    /// measured replication factor.
    pub replicated_records: u64,
    /// Total *charged* shuffle bytes across jobs (the measured
    /// communication cost of the paper's model, payload copies included).
    pub shuffle_bytes: u64,
    /// Total bytes the shuffle physically moved across jobs — id records
    /// only, the engineering win of the id-indexed store.
    pub shuffle_moved_bytes: u64,
    /// Peak per-group working-set bytes (measured `maxws` pressure).
    pub max_working_set_bytes: u64,
    /// Total network bytes across jobs (shuffle + remote reads + cache).
    pub network_bytes: u64,
    /// Peak cluster-wide intermediate storage (measured `maxis` pressure).
    pub peak_intermediate_bytes: u64,
    /// Node crashes observed while the run's jobs executed (chaos
    /// injection; 0 on healthy runs).
    pub node_crashes: u64,
    /// Completed map tasks re-executed because their output died with a
    /// node (Dean–Ghemawat recovery).
    pub map_reruns: u64,
    /// Speculative backup attempts launched for straggling tasks.
    pub speculative_launched: u64,
    /// Speculative backup attempts that beat the original and won commit.
    pub speculative_won: u64,
    /// Transport the run executed on (`"in-process"` or `"process"`).
    pub transport: &'static str,
    /// Bytes this run *physically* put on the transport's sockets, by wire
    /// class (the delta over the run; all-zero on the in-process
    /// transport). On a healthy multi-process run `wire.shuffle_bytes`
    /// equals [`shuffle_moved_bytes`](MrRunReport::shuffle_moved_bytes)
    /// exactly — the measured proof behind the reported counter.
    pub wire: WireSnapshot,
}

// ---------------------------------------------------------------------------
// Job 1: distribution + pairwise comparison (paper Algorithm 1)
// ---------------------------------------------------------------------------

/// Job-1 mapper: `getSubsets` replication, ids only. Each emitted copy is
/// charged the element's encoded payload bytes so the replication cost the
/// paper measures is unchanged.
struct DistributeMapper<T> {
    scheme: Arc<dyn DistributionScheme>,
    _pd: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire + Sync> Mapper for DistributeMapper<T> {
    type KIn = u64;
    type VIn = T;
    type KOut = u64;
    type VOut = u64;

    fn map(
        &self,
        id: u64,
        _payload: T,
        ctx: &mut MapContext<'_, u64, u64>,
    ) -> pmr_mapreduce::Result<()> {
        let charge = payload_charge(attached_store::<T>(ctx.store(), "job 1")?, id, "distribute")?;
        for ws in self.scheme.subsets_of(id) {
            ctx.emit_charged(ws, id, charge);
        }
        Ok(())
    }
}

/// The job's node-local element store, or the typed error for a job that
/// was submitted without one.
fn attached_store<'a, T: 'static>(
    store: Option<&'a ElementStore<T>>,
    job: &str,
) -> pmr_mapreduce::Result<&'a ElementStore<T>> {
    store.ok_or_else(|| MrError::InvalidJob(format!("element store not attached to {job}")))
}

/// The payload-copy charge of element `id`. A corrupt or foreign record
/// (an id the store does not hold) surfaces as an error, not a worker
/// panic.
fn payload_charge<T: Wire>(
    store: &ElementStore<T>,
    id: u64,
    stage: impl std::fmt::Display,
) -> pmr_mapreduce::Result<u64> {
    if store.get(id).is_none() {
        return Err(MrError::User(format!("{stage}: element id {id} is not in the store")));
    }
    Ok(store.encoded_len(id))
}

/// Validates that a job-1 reduce group received exactly the scheme's
/// working set and that every id resolves in the store. Returns the sorted
/// ids and the working set's charged payload bytes — what the task memory
/// budget constrains (paper §6): the engine reserved the id records'
/// physical bytes, this charges the payload bytes they stand for.
fn validate_working_set<T: Wire + Sync>(
    scheme: &dyn DistributionScheme,
    ws: u64,
    values: Values<'_, u64>,
    store: &ElementStore<T>,
) -> pmr_mapreduce::Result<(Vec<u64>, u64)> {
    let mut ids: Vec<u64> = values.collect();
    ids.sort_unstable();
    let mut expected = scheme.working_set(ws);
    expected.sort_unstable();
    if ids.len() != expected.len() {
        return Err(MrError::User(format!(
            "working set {ws}: received {} elements, scheme expects {}",
            ids.len(),
            expected.len()
        )));
    }
    if ids != expected {
        return Err(MrError::User(format!(
            "working set {ws}: received ids differ from the scheme's working set"
        )));
    }
    let payload_bytes = ids
        .iter()
        .map(|&id| payload_charge(store, id, format_args!("working set {ws}")))
        .sum::<pmr_mapreduce::Result<u64>>()?;
    Ok((ids, payload_bytes))
}

/// What the two evaluators — the job-1 reducer and the broadcast mapper —
/// share: one task's pairs go through the filter and the kernel tiles, and
/// each per-direction result is handed to the caller's sink under the
/// receiving element's working-set slot.
struct TaskEvaluator<T, R> {
    scheme: Arc<dyn DistributionScheme>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    filter: Option<Arc<dyn PairFilter>>,
}

impl<T: Wire + Sync, R: Clone> TaskEvaluator<T, R> {
    /// Evaluates `task` over its sorted working set `ids` (every one
    /// already resolved against `store`), calling `sink(slot, other,
    /// result)` for both sides of each surviving pair — `comp(a, b)` to
    /// `a`'s slot first, then the reverse (or shared) value to `b`'s, the
    /// per-direction order the scalar runners always used. Returns the
    /// evaluations, already counted, for the caller's histogram.
    fn run(
        &self,
        task: u64,
        ids: &[u64],
        store: &ElementStore<T>,
        counters: &Counters,
        mut sink: impl FnMut(usize, u64, R),
    ) -> u64 {
        let index = SlotIndex::new(ids);
        let filter = self.filter.as_deref();
        let (evals, prune) = evaluate_tiled(
            self.kernel.as_ref(),
            self.symmetry,
            filter,
            |id| store.get(id).expect("working-set id validated against the store"),
            Pairs::Task { scheme: self.scheme.as_ref(), task, working_set: ids },
            |a, b, rf, rr| {
                let rb = rr.unwrap_or_else(|| rf.clone());
                sink(index.slot(a), b, rf);
                sink(index.slot(b), a, rb);
            },
        );
        counters.add(EVALUATIONS_COUNTER, evals);
        // Pruning counters exist only on filtered runs; accrued through
        // the task's scratch counters they stay exactly-once under crashes
        // and speculation, like every other user counter.
        if filter.is_some() {
            for (name, value) in prune.counters() {
                counters.add(name, value);
            }
        }
        evals
    }
}

/// Job-1 reducer: `getPairs` + `evaluate` + `addResult` (both directions),
/// resolving ids through the node-local element store. Pair results are
/// folded under the run's `dec` (see `runner::aggregation_rule`) into
/// per-element accumulators at the tile flush, and each element copy's
/// emitted record carries its folded partials. Unfused, `dec` is
/// `ConcatSort`, whose fold is a plain push: the record is the paper's
/// partial list, in evaluation order.
///
/// Every pre-fold `(other, result)` entry is weighed, and the shuffle bytes
/// job 2 charges for this task's records accrue under
/// [`FUSED_CHARGED_SHUFFLE_COUNTER`].
struct EvaluateReducer<T, R> {
    eval: TaskEvaluator<T, R>,
    aggregator: Arc<dyn Aggregator<R>>,
    fuse: bool,
}

impl<T: Wire + Sync, R: Wire + Clone + Sync> Reducer for EvaluateReducer<T, R> {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn reduce(
        &self,
        ws: u64,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = attached_store::<T>(ctx.store(), "job 1")?;
        let (ids, payload_bytes) =
            validate_working_set(self.eval.scheme.as_ref(), ws, values, store)?;
        ctx.memory().try_reserve(payload_bytes)?;
        let (dec, _) = aggregation_rule(self.aggregator.as_ref(), self.fuse);
        // By slot: the accumulator (created through `dec` on first touch)
        // and the wire size of the `(other, result)` entries the unfused
        // partial list carries — 8-byte other id plus the result's
        // canonical encoding: its fixed width, or else measured in one
        // reused buffer.
        let mut accs: Vec<Option<Accumulator<R>>> = vec![None; ids.len()];
        let mut folded_bytes = vec![0u64; ids.len()];
        let mut entry = BytesMut::new();
        let evals = self.eval.run(ws, &ids, store, ctx.counters(), |slot, other, r| {
            let width = R::FIXED_WIDTH.unwrap_or_else(|| {
                entry.clear();
                r.encode(&mut entry);
                entry.len()
            });
            folded_bytes[slot] += 8 + width as u64;
            let acc = accs[slot].get_or_insert_with(|| dec.init(ids[slot]));
            dec.fold(acc, other, r);
        });
        ctx.record_value(hist::EVALUATIONS_PER_TASK, evals);
        // Emit every copy with its folded partials (paper: "The output of
        // the reduce phase contains each element (including all copies)") —
        // as ids, not payloads — charging what job 2's map shuffles for the
        // unfused record: frame header (8) + u64 key (8) + Vec length
        // prefix (4) + the pre-fold entries + the element's payload-copy
        // charge.
        let mut job2_charge = 0u64;
        for ((&id, acc), folded) in ids.iter().zip(accs).zip(folded_bytes) {
            job2_charge += 20 + folded + store.encoded_len(id);
            ctx.emit(id, acc.map(Accumulator::into_partials).unwrap_or_default());
        }
        ctx.counters().add(FUSED_CHARGED_SHUFFLE_COUNTER, job2_charge);
        ctx.memory().release(payload_bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Job 2: aggregation (paper Algorithm 2)
// ---------------------------------------------------------------------------

/// Job-2 mapper: groups partial lists by element id. The paper's identity
/// map would re-ship each copy's payload; this ships the id and charges
/// the payload bytes instead.
struct GroupByElementMapper<T, R> {
    _pd: std::marker::PhantomData<fn() -> (T, R)>,
}

impl<T: Wire + Sync, R: Wire + Sync> Mapper for GroupByElementMapper<T, R> {
    type KIn = u64;
    type VIn = Vec<(u64, R)>;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn map(
        &self,
        id: u64,
        partial: Vec<(u64, R)>,
        ctx: &mut MapContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let charge = payload_charge(attached_store::<T>(ctx.store(), "job 2")?, id, "aggregate")?;
        ctx.emit_charged(id, partial, charge);
        Ok(())
    }
}

/// Job-2 reducer, and the §5.1 broadcast job's reduce: the paper's
/// `aggregateResults`. Gathers every partial of an element from its
/// copies, sorts them by neighbour id (`ConcatSort`) and applies the
/// aggregator once — the unfused side of `runner::aggregation_rule`, so an
/// aggregator that places rows takes the sorted row as it is.
struct AggregateReducer<T, R> {
    aggregator: Arc<dyn Aggregator<R>>,
    _pd: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire + Sync, R: Wire + Sync> Reducer for AggregateReducer<T, R> {
    type KIn = u64;
    type VIn = Vec<(u64, R)>;
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn reduce(
        &self,
        id: u64,
        values: Values<'_, Vec<(u64, R)>>,
        ctx: &mut ReduceContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = attached_store::<T>(ctx.store(), "job 2")?;
        // Charge the payload copy each grouped record used to carry, so
        // the measured `maxws` pressure matches the paper's model.
        let payload_bytes = payload_charge(store, id, "aggregate")? * values.len() as u64;
        ctx.memory().try_reserve(payload_bytes)?;
        let row = ConcatSort.finish(Accumulator::from_parts(id, values.flatten().collect()));
        let row = match aggregation_rule(self.aggregator.as_ref(), false).1 {
            None => row,
            Some(agg) => aggregate_all(agg, id, row),
        };
        ctx.emit(id, row);
        ctx.memory().release(payload_bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Broadcast single-job variant (paper §5.1)
// ---------------------------------------------------------------------------

/// Broadcast mapper: evaluates one task's label range against the
/// node-local store ("the evaluation of pairs can then be done in the map
/// function"). The dataset is still shipped to every node through the
/// distributed cache — that is the paper's §5.1 seeding cost and it is
/// recorded unchanged — but payload resolution goes through the store.
struct BroadcastEvalMapper<T, R>(TaskEvaluator<T, R>);

impl<T: Wire + Sync, R: Wire + Clone + Sync> Mapper for BroadcastEvalMapper<T, R> {
    type KIn = u64;
    type VIn = ();
    type KOut = u64;
    type VOut = Vec<(u64, R)>;

    fn map(
        &self,
        task: u64,
        _unit: (),
        ctx: &mut MapContext<'_, u64, Vec<(u64, R)>>,
    ) -> pmr_mapreduce::Result<()> {
        let store = attached_store::<T>(ctx.store(), "broadcast job")?;
        // The working set is the whole dataset, `0..v`; one bound check
        // makes the tiled resolution below infallible.
        if (store.len() as u64) < self.0.scheme.v() {
            return Err(MrError::User(format!(
                "broadcast: element id {} not in store",
                store.len()
            )));
        }
        let ids = self.0.scheme.working_set(task);
        let mut results: Vec<Vec<(u64, R)>> = vec![Vec::new(); ids.len()];
        let evals = self.0.run(task, &ids, store, ctx.counters(), |slot, other, r| {
            results[slot].push((other, r));
        });
        ctx.record_value(hist::EVALUATIONS_PER_TASK, evals);
        // Only elements this task's label range touched are emitted, in id
        // order.
        for (id, partial) in ids.into_iter().zip(results) {
            if !partial.is_empty() {
                ctx.emit_charged(id, partial, store.encoded_len(id));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Reduce tasks for a job over `cap` keys on `n` nodes: `min(cap, 4n)`.
fn auto(n: usize, cap: u64) -> usize {
    (4 * n).min(cap.max(1) as usize)
}

/// The store handle as attached to a [`JobSpec`] (type-erased; tasks get
/// it back typed via `ctx.store::<ElementStore<T>>()`).
fn store_handle<T: Wire + Sync>(
    store: &Arc<ElementStore<T>>,
) -> Arc<dyn std::any::Any + Send + Sync> {
    Arc::clone(store) as Arc<dyn std::any::Any + Send + Sync>
}

/// The run's report over its jobs — job 1 (or the single broadcast job)
/// and, on the unfused two-job pipeline, job 2. Charged, moved and network
/// bytes and the recovery counters are summed over the jobs (the engine
/// creates a recovery counter only when it fires), peak intermediate bytes
/// is the maximum, and a run without job 2 adds the charge job 1 booked
/// for it to the charged shuffle.
fn mr_report(
    cluster: &Cluster,
    wire_start: &WireSnapshot,
    job1: JobOutput,
    job2: Option<JobOutput>,
    fused: bool,
) -> MrRunReport {
    let jobs = || std::iter::once(&job1).chain(job2.as_ref());
    let sum =
        |name: &str| -> u64 { jobs().map(|j| j.counters.get(name).copied().unwrap_or(0)).sum() };
    MrRunReport {
        evaluations: job1.counters.get(EVALUATIONS_COUNTER).copied().unwrap_or(0),
        replicated_records: job1.counters[pmr_mapreduce::builtin::MAP_OUTPUT_RECORDS],
        shuffle_bytes: sum(pmr_mapreduce::builtin::SHUFFLE_BYTES)
            + if job2.is_none() { sum(FUSED_CHARGED_SHUFFLE_COUNTER) } else { 0 },
        shuffle_moved_bytes: sum(pmr_mapreduce::builtin::SHUFFLE_MOVED_BYTES),
        max_working_set_bytes: job1.stats.max_working_set_bytes,
        network_bytes: jobs().map(|j| j.stats.network_bytes).sum(),
        peak_intermediate_bytes: jobs().map(|j| j.stats.peak_intermediate_bytes).max().unwrap_or(0),
        node_crashes: sum(pmr_mapreduce::builtin::NODE_CRASHES),
        map_reruns: sum(pmr_mapreduce::builtin::MAP_RERUNS),
        speculative_launched: sum(pmr_mapreduce::builtin::SPECULATIVE_LAUNCHED),
        speculative_won: sum(pmr_mapreduce::builtin::SPECULATIVE_WON),
        transport: cluster.transport().name(),
        wire: cluster.wire_snapshot().delta(wire_start),
        job1,
        job2,
        fused,
    }
}

/// Stamps the scheme's closed-form predictions (Table 1) into the report
/// meta so the skew diagnoser can compare measured working sets and
/// evaluation counts against what the analysis promised.
fn record_analytic_meta(telemetry: &Telemetry, scheme: &dyn DistributionScheme, n: u64) {
    if !telemetry.is_enabled() {
        return;
    }
    let analytic = scheme.metrics(n);
    telemetry.set_meta("scheme.analytic.working_set", analytic.working_set_size);
    telemetry.set_meta(
        "scheme.analytic.evals_per_task",
        format!("{:.1}", analytic.evaluations_per_task),
    );
}

/// Hands each `(id, partials)` frame of one part file — job 1's or the
/// aggregated output's — to `copy` with the id's entry of the id-indexed
/// `slots`. A corrupt frame or an id outside the store is an error, as in
/// job 2.
fn for_each_copy<S, R: Wire>(
    mut part: Bytes,
    slots: &mut [S],
    mut copy: impl FnMut(&mut S, u64, Vec<(u64, R)>) -> pmr_mapreduce::Result<()>,
) -> pmr_mapreduce::Result<()> {
    while !part.is_empty() {
        let raw = RawRecord::read_framed(&mut part)?;
        let id = u64::from_bytes(raw.key)?;
        let slot = usize::try_from(id).ok().and_then(|i| slots.get_mut(i)).ok_or_else(|| {
            MrError::User(format!("merge: element id {id} in the output is not in the store"))
        })?;
        copy(slot, id, Wire::from_bytes(raw.value)?)?;
    }
    Ok(())
}

/// Merges one job-1 part file into the id-indexed accumulators: an
/// element's first copy is adopted as its accumulator, every later one
/// merged into it.
fn merge_part<R: Wire>(
    part: Bytes,
    dec: &dyn DecomposableAggregator<R>,
    accs: &mut [Option<Accumulator<R>>],
) -> pmr_mapreduce::Result<()> {
    for_each_copy(part, accs, |slot, id, partials| {
        let copy = Accumulator::from_parts(id, partials);
        match slot {
            Some(acc) => dec.merge(acc, copy),
            None => *slot = Some(copy),
        }
        Ok(())
    })
}

/// Writes one job-1 part file's entries straight into the id-indexed
/// placed rows (`runner::place`); a neighbour outside the run, the element
/// itself, or one written twice is an error.
fn place_part<R: Wire + Clone>(
    part: Bytes,
    rows: &mut [Option<PlacedRow<R>>],
) -> pmr_mapreduce::Result<()> {
    let v = rows.len() as u64;
    for_each_copy(part, rows, |row, id, entries| {
        place(row, id, v, entries).map_err(|err| MrError::User(format!("merge: {err}")))
    })
}

/// Runs `spec` and hands each of its parts to `consume` on the calling
/// thread, in part order, as the part's reduce task commits — while the
/// rest of the reduce phase runs. A part is deleted from the DFS as soon
/// as it is read, so its stored copy and the driver's are never both
/// held through the merge. Each consumed part is recorded as a
/// `part.consume` event on the driver (no node), carrying the read and
/// merge time.
fn run_consuming<M, R>(
    engine: &Engine<'_>,
    spec: JobSpec<M, R>,
    mut consume: impl FnMut(Bytes) -> pmr_mapreduce::Result<()>,
) -> pmr_mapreduce::Result<JobOutput>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let cluster = engine.cluster();
    let telemetry = cluster.telemetry();
    engine.run_with_sink(spec, |path| {
        let started = Instant::now();
        let part = cluster.dfs().read(path)?;
        let (len, read) = (part.len(), started.elapsed());
        cluster.dfs().delete(path);
        let merging = Instant::now();
        consume(part)?;
        if telemetry.is_enabled() {
            telemetry.event_traced(
                PART_CONSUME_EVENT,
                trace::NONE,
                started.elapsed().as_micros() as u64,
                format!(
                    "{path}: {len} B, read {} µs, merge {} µs",
                    read.as_micros(),
                    merging.elapsed().as_micros()
                ),
            );
        }
        Ok(())
    })
}

/// A run's files: every DFS file under its directory, and the dataset
/// copy seeded into each worker process. [`RunFiles::clear`] deletes them,
/// and again when the guard drops, so a run that fails part-way leaves
/// nothing behind either.
struct RunFiles<'c> {
    cluster: &'c Cluster,
    /// The directory with its trailing `/`.
    dir: String,
    /// The workers' store name of the seeded dataset, until it is removed
    /// (distributed runs only).
    seed: Option<String>,
}

impl RunFiles<'_> {
    fn clear(&mut self) {
        for path in self.cluster.dfs().list(&self.dir) {
            self.cluster.dfs().delete(&path);
        }
        // Best effort, like the DFS: a dead worker has lost its copy.
        if let Some(name) = self.seed.take() {
            for node in self.cluster.live_nodes() {
                let _ = self.cluster.transport().store(node).remove(&name);
            }
        }
    }
}

impl Drop for RunFiles<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Opens a run's first phase on the MR backend, on the cluster's sink
/// like every later one. Runner-level I/O has its own phase track, job
/// `{dir}-io`, which starts with shipping the dataset to the worker
/// processes on a distributed cluster.
pub(crate) fn open_io_phase(cluster: &Cluster, dir: &str) {
    let phase = if cluster.is_distributed() { "seed-store" } else { "distribute-input" };
    cluster.telemetry().job_phase(&format!("{dir}-io"), phase);
}

/// The one MR driver, over the job's plan. Job 1 is the paper's
/// distribute-and-evaluate job — or, for a broadcast plan, the §5.1 single
/// job that evaluates in the map over the distributed-cache dataset and
/// aggregates in the reduce. A rounds plan of several batches runs job 1
/// once per round, in `{dir}/round-{i}`; a plain scheme is one batch in
/// `{dir}`. Aggregation follows `runner::aggregation_rule`: a fused run,
/// or one of several rounds, merges each job 1's output on the driver; an
/// unfused one-batch run aggregates in job 2, and a broadcast run in its
/// reduce, and either collects `{dir}/out`. Every job's output reaches
/// the driver through `run_consuming`, and no file under `{dir}` outlives
/// the call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mr_impl<T, R>(
    cluster: &Cluster,
    plan: &Plan,
    store: &Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    fuse: bool,
    filter: Option<Arc<dyn PairFilter>>,
    options: MrPairwiseOptions,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, Vec<MrRunReport>)>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    let scheme = plan.scheme().expect("the caller rejects a plan without a scheme");
    if store.len() as u64 != scheme.v() {
        return Err(MrError::InvalidJob(format!(
            "payload count {} != scheme v {}",
            store.len(),
            scheme.v()
        )));
    }
    let broadcast = matches!(plan, Plan::Broadcast(_));
    let telemetry = cluster.telemetry().clone();
    let dir = &options.dfs_dir;
    let rounds: Vec<(String, Arc<dyn DistributionScheme>)> = match plan {
        Plan::Rounds(rounds) if rounds.num_rounds() > 1 => (0..)
            .zip(rounds.iter())
            .map(|(i, round)| (format!("{dir}/round-{i}"), Arc::new(round) as _))
            .collect(),
        _ => vec![(dir.clone(), Arc::clone(scheme))],
    };
    // Whatever the run leaves under its directory or in the workers goes
    // when it returns, on success or error.
    let distributed = cluster.is_distributed();
    let seed = distributed.then(|| format!("seed/{dir}/store"));
    let mut files = RunFiles { cluster, dir: format!("{dir}/"), seed };
    // The caller has opened the run's first phase (`open_io_phase`); every
    // phase below hands over from the one before it.
    let io_job = format!("{dir}-io");
    // The driver aggregates job 1's output unless the run asked for the
    // paper's literal two jobs on a single batch; several rounds are each
    // aggregated before the next (§7). The §5.1 variant is inherently
    // single-job and aggregates in its reduce; its map-side emission stays
    // as is so the charged seeding/shuffle costs are the paper's.
    let on_driver = !broadcast && (fuse || rounds.len() > 1);
    let (dec, then) = aggregation_rule(aggregator.as_ref(), fuse);
    if !broadcast {
        telemetry.set_meta("mr.fused", on_driver);
    }
    let n = cluster.num_nodes();
    record_analytic_meta(&telemetry, scheme.as_ref(), n as u64);
    let mut wire_start = cluster.wire_snapshot();
    // The encoded dataset: the §5.1 broadcast's cache file, and what
    // distributed runs ship to every worker once up front — the
    // id-indexed resolver a real deployment would hold node-locally.
    // Measured on the wire (`seed` class), never charged.
    let dataset_bytes = (broadcast || distributed).then(|| store.dataset_bytes());
    if let (Some(dataset), Some(seed)) = (&dataset_bytes, &files.seed) {
        cluster.seed_workers(seed, dataset)?;
        telemetry.job_phase(&io_job, "distribute-input");
    }
    // Written once per run: every round's job 1 reads the same shards.
    let inputs = if broadcast {
        // Input = one record per (nonempty) task: the unit of map-side work.
        let tasks: Vec<(u64, ())> =
            (0..scheme.num_tasks()).filter(|&t| scheme.num_pairs(t) > 0).map(|t| (t, ())).collect();
        let shards = n.min(tasks.len().max(1));
        write_sharded(cluster, &format!("{dir}/tasks"), shards, tasks)?
    } else {
        let elements = store.elements().iter().cloned().enumerate().map(|(i, p)| (i as u64, p));
        write_sharded(cluster, &format!("{dir}/input"), 2 * n, elements)?
    };
    let engine = Engine::new(cluster);
    let eval = |scheme: &Arc<dyn DistributionScheme>| TaskEvaluator {
        scheme: Arc::clone(scheme),
        kernel: Arc::clone(&kernel),
        symmetry,
        filter: filter.clone(),
    };
    // Job 1 (distribute, then evaluate) over one round's scheme.
    let job1 = |round_dir: &str, round: &Arc<dyn DistributionScheme>| {
        let mapper =
            DistributeMapper::<T> { scheme: Arc::clone(round), _pd: std::marker::PhantomData };
        let reducer =
            EvaluateReducer { eval: eval(round), aggregator: Arc::clone(&aggregator), fuse };
        JobSpec::new(
            format!("{round_dir}-j1-distribute-evaluate"),
            inputs.clone(),
            format!("{round_dir}/mid"),
            mapper,
            reducer,
            auto(n, round.num_tasks()),
        )
        .partitioner(Arc::new(ModuloPartitioner))
        .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
        .store(store_handle(store))
    };

    if on_driver {
        // Job 2 is skipped outright: each round's job 1 hands its parts to
        // the driver as their reduce tasks commit, and the driver merges
        // the per-copy accumulators off each one — or, placing, writes the
        // output rows themselves — while the rest of the reduce phase runs.
        // Parts go over in part order, on the calling thread, each read
        // once and frame by frame, so the merge sequence (and with it
        // every aggregator's output) does not depend on commit order, and
        // the driver holds one part's bytes and one set of rows. The
        // shuffle job 2 would have charged was accrued (exactly-once) by
        // the job-1 reduce tasks, so the reported charged bytes still equal
        // the two-job total while nothing extra moved.
        let placed = places_rows(dec, filter.is_some(), scheme.as_ref());
        let placed_len = if placed { store.len() } else { 0 };
        let mut rows: Vec<Option<PlacedRow<R>>> = (0..placed_len).map(|_| None).collect();
        let mut accs: Vec<Option<Accumulator<R>>> = vec![None; store.len() - placed_len];
        let mut reports = Vec::with_capacity(rounds.len());
        for (i, (round_dir, round)) in rounds.iter().enumerate() {
            let job1 = run_consuming(&engine, job1(round_dir, round), |part| {
                if placed {
                    place_part(part, &mut rows)
                } else {
                    merge_part(part, dec, &mut accs)
                }
            })?;
            telemetry.job_phase(&io_job, "merge-aggregate");
            if i + 1 == rounds.len() {
                files.clear();
            }
            reports.push(mr_report(cluster, &wire_start, job1, None, true));
            wire_start = cluster.wire_snapshot();
        }
        let rows = if placed {
            finish_rows(rows, store.len() as u64)
                .map_err(|err| MrError::User(format!("merge: {err}")))?
                .per_element
        } else {
            (0u64..).zip(accs).filter_map(|(id, acc)| Some((id, dec.finish(acc?)))).collect()
        };
        let per_element = match then {
            None => rows,
            Some(agg) => {
                rows.into_iter().map(|(id, row)| (id, aggregate_all(agg, id, row))).collect()
            }
        };
        return Ok((PairwiseOutput { per_element }, reports));
    }

    // The aggregated output is collected the same way, off the last job's
    // parts as they commit: one record per element that received a
    // partial.
    let mut rows: Vec<Option<Vec<(u64, R)>>> = vec![None; store.len()];
    let collect = |part: Bytes| {
        for_each_copy(part, &mut rows, |row, id, aggregated| match row.replace(aggregated) {
            None => Ok(()),
            Some(_) => Err(MrError::User(format!("collect: element id {id} output twice"))),
        })
    };
    let aggregate = || AggregateReducer::<T, R> {
        aggregator: Arc::clone(&aggregator),
        _pd: std::marker::PhantomData,
    };
    let (job1, job2) = match dataset_bytes.filter(|_| broadcast) {
        Some(dataset) => {
            let spec = JobSpec::new(
                format!("{dir}-broadcast-evaluate-aggregate"),
                inputs,
                format!("{dir}/out"),
                BroadcastEvalMapper::<T, R>(eval(scheme)),
                aggregate(),
                auto(n, scheme.v()),
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .cache_file("dataset", dataset)
            .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
            .store(store_handle(store));
            (run_consuming(&engine, spec, collect)?, None)
        }
        None => {
            let job1 = engine.run(job1(dir, scheme))?;
            let spec = JobSpec::new(
                format!("{dir}-j2-aggregate"),
                job1.output_paths.clone(),
                format!("{dir}/out"),
                GroupByElementMapper::<T, R> { _pd: std::marker::PhantomData },
                aggregate(),
                auto(n, scheme.v()),
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
            .store(store_handle(store));
            let job2 = run_consuming(&engine, spec, collect)?;
            (job1, Some(job2))
        }
    };

    // An id no record carried (the broadcast mapper emits only elements
    // with results, so a filter that prunes every pair of an element
    // leaves none) gets the aggregator over zero partials.
    telemetry.job_phase(&io_job, "collect-output");
    files.clear();
    let per_element = (0u64..)
        .zip(rows)
        .map(|(id, row)| {
            (id, row.unwrap_or_else(|| aggregate_all(aggregator.as_ref(), id, Vec::new())))
        })
        .collect();
    let report = mr_report(cluster, &wire_start, job1, job2, false);
    Ok((PairwiseOutput { per_element }, vec![report]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::TwoLevelBlock;
    use crate::runner::kernel::DENSE_SPAN;
    use crate::runner::{comp_fn, ConcatSort};
    use crate::scheme::{BlockScheme, BroadcastScheme, DesignScheme, QuorumScheme};
    use bytes::BufMut;
    use pmr_cluster::{Cluster, ClusterConfig};
    use pmr_mapreduce::{encode_record_stream, IdentityMapper};
    use proptest::prelude::*;

    fn job2_with_record(record: (u64, Vec<(u64, u64)>)) -> pmr_mapreduce::Result<JobOutput> {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let store: Arc<ElementStore<u64>> = ElementStore::from_slice(&[10u64, 20, 30]);
        let inputs = write_sharded(&cluster, "corrupt/in", 1, [record])?;
        Engine::new(&cluster).run(
            JobSpec::new(
                "corrupt-j2",
                inputs,
                "corrupt/out",
                GroupByElementMapper::<u64, u64> { _pd: std::marker::PhantomData },
                AggregateReducer::<u64, u64> {
                    aggregator: Arc::new(crate::runner::ConcatSort),
                    _pd: std::marker::PhantomData,
                },
                2,
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .store(store_handle(&store)),
        )
    }

    /// A corrupt intermediate record (an element id outside the store)
    /// surfaces as an `MrError`, not a worker panic.
    #[test]
    fn corrupt_intermediate_id_is_an_error_not_a_panic() {
        let err = job2_with_record((999, vec![(1, 7)])).unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains("not in the store")),
            "expected the corrupt-record error, got: {err}"
        );
        // A well-formed record on the same pipeline succeeds.
        let out = job2_with_record((1, vec![(0, 7)])).unwrap();
        assert_eq!(out.counters[pmr_mapreduce::builtin::REDUCE_OUTPUT_RECORDS], 1);
    }

    /// The aggregation reducer itself (not just the grouping mapper)
    /// rejects unknown ids — exercised by bypassing the mapper's check
    /// with an identity map.
    #[test]
    fn aggregate_reducer_rejects_unknown_id() {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let store: Arc<ElementStore<u64>> = ElementStore::from_slice(&[10u64, 20, 30]);
        let inputs =
            write_sharded(&cluster, "corrupt-r/in", 1, [(999u64, vec![(1u64, 7u64)])]).unwrap();
        let err = Engine::new(&cluster)
            .run(
                JobSpec::new(
                    "corrupt-r-j2",
                    inputs,
                    "corrupt-r/out",
                    IdentityMapper::<u64, Vec<(u64, u64)>>::new(),
                    AggregateReducer::<u64, u64> {
                        aggregator: Arc::new(crate::runner::ConcatSort),
                        _pd: std::marker::PhantomData,
                    },
                    2,
                )
                .partitioner(Arc::new(ModuloPartitioner))
                .store(store_handle(&store)),
            )
            .unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains("not in the store")),
            "expected the corrupt-record error, got: {err}"
        );
    }

    /// The fused driver merge, handed a hand-written part file: a record
    /// whose id is not in the store is the same error job 2 raises, never
    /// a foreign row in the output or an out-of-bounds index.
    #[test]
    fn fused_merge_rejects_unknown_id() {
        let (part, _) = encode_record_stream([
            (1u64, vec![(0u64, 7u64)]),
            (3, vec![(1, 7)]),
            (1, vec![(2, 9)]),
        ]);
        let mut accs: Vec<Option<Accumulator<u64>>> = vec![None; 3];
        let err = merge_part(part.clone(), &ConcatSort, &mut accs).unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains("element id 3") && msg.contains("not in the store")),
            "expected the corrupt-record error, got: {err}"
        );
        // The same file against a store that holds id 3 merges copy by
        // copy, in file order.
        let mut accs: Vec<Option<Accumulator<u64>>> = vec![None; 4];
        merge_part(part, &ConcatSort, &mut accs).unwrap();
        assert_eq!(accs[1].as_ref().unwrap().partials(), [(0, 7), (2, 9)]);
        assert_eq!(accs[3].as_ref().unwrap().partials(), [(1, 7)]);
        assert!(accs[0].is_none() && accs[2].is_none());
    }

    /// The placing merge, handed hand-written part files: a neighbour
    /// outside the run, the element itself as its own neighbour, and a
    /// neighbour delivered twice (across two copies) are each an error; a
    /// well-formed file lands every entry at its index.
    #[test]
    fn fused_placing_merge_rejects_foreign_self_and_duplicate_neighbours() {
        let place = |records: Vec<(u64, Vec<(u64, u64)>)>| {
            let mut rows: Vec<Option<PlacedRow<u64>>> = (0..3).map(|_| None).collect();
            place_part(encode_record_stream(records).0, &mut rows).map(|()| rows)
        };
        for (records, want) in [
            (vec![(1u64, vec![(3u64, 7u64)])], "3 is not a neighbour"),
            (vec![(1, vec![(1, 7)])], "1 is not a neighbour"),
            (vec![(1, vec![(0, 7)]), (1, vec![(2, 9), (0, 7)])], "neighbour 0 written twice"),
        ] {
            let err = place(records).unwrap_err();
            assert!(matches!(&err, MrError::User(msg) if msg.contains(want)), "{want}: {err}");
        }
        let rows = place(vec![(1, vec![(2, 9)]), (0, vec![(1, 7)]), (1, vec![(0, 7)])]).unwrap();
        let err = finish_rows(rows, 3).unwrap_err();
        assert!(err.contains("element 0: 1 of 2"), "{err}");
        let all =
            vec![(0, vec![(2, 5), (1, 7)]), (1, vec![(2, 9), (0, 7)]), (2, vec![(0, 5), (1, 9)])];
        let out = finish_rows(place(all).unwrap(), 3).unwrap();
        assert_eq!(out.results_of(1), Some(&[(0, 7), (2, 9)][..]));
        assert_eq!(out.results_of(2), Some(&[(0, 5), (1, 9)][..]));
    }

    /// A truncated or corrupt frame in a part file surfaces as a codec
    /// error from the fused merge, not a panic.
    #[test]
    fn fused_merge_surfaces_corrupt_frames_as_errors() {
        let merge = |part: Bytes| {
            let mut accs: Vec<Option<Accumulator<u64>>> = vec![None; 3];
            merge_part(part, &ConcatSort, &mut accs)
        };
        let (part, _) = encode_record_stream([(1u64, vec![(0u64, 7u64), (2, 9)])]);
        merge(part.clone()).unwrap();
        for cut in 1..part.len() {
            let err = merge(part.slice(..cut)).unwrap_err();
            assert!(matches!(err, MrError::Codec(_)), "cut at {cut}: {err}");
        }
        // A 4-byte key, and a value whose entry count overstates its bytes.
        let mut short_key = BytesMut::new();
        RawRecord { key: 1u32.to_bytes(), value: Vec::<(u64, u64)>::new().to_bytes() }
            .write_framed(&mut short_key);
        assert!(matches!(merge(short_key.freeze()), Err(MrError::Codec(_))));
        let mut value = BytesMut::new();
        value.put_u32(u32::MAX);
        value.put_u64(0);
        let mut overcount = BytesMut::new();
        RawRecord { key: 1u64.to_bytes(), value: value.freeze() }.write_framed(&mut overcount);
        assert!(matches!(merge(overcount.freeze()), Err(MrError::Codec(_))));
    }

    fn sorted_working_set(scheme: &dyn DistributionScheme, task: u64) -> Vec<u64> {
        let mut ws = scheme.working_set(task);
        ws.sort_unstable();
        ws
    }

    /// Which representation a working set gets: every block task (two
    /// stripes, however far apart) the dense table, a quorum set spread
    /// over `Z_v` the binary search.
    #[test]
    fn slot_index_is_dense_for_block_and_searched_for_a_wide_quorum() {
        let block = BlockScheme::new(2048, 16);
        for t in 0..block.num_tasks() {
            let ws = sorted_working_set(&block, t);
            assert!(matches!(SlotIndex::new(&ws), SlotIndex::Dense { .. }), "block task {t}");
        }
        let ws = sorted_working_set(&QuorumScheme::new(2048), 0);
        assert!(ws[ws.len() - 1] - ws[0] >= DENSE_SPAN * ws.len() as u64);
        assert!(matches!(SlotIndex::new(&ws), SlotIndex::Sorted(_)));
        assert!(matches!(SlotIndex::new(&[]), SlotIndex::Sorted(_)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For every task of every scheme family, the index built from the
        /// sorted working set is a bijection onto `0..len` and maps every
        /// id `for_each_pair` yields to the slot holding that id — under
        /// the representation `new` picks and under the binary search.
        #[test]
        fn slot_index_resolves_every_enumerated_id(v in 2u64..300, h in 1u64..9) {
            let schemes: Vec<Box<dyn DistributionScheme>> = vec![
                Box::new(BroadcastScheme::new(v, h + 1)),
                Box::new(BlockScheme::new(v, h)),
                Box::new(DesignScheme::new(v)),
                Box::new(QuorumScheme::new(v)),
                Box::new(TwoLevelBlock::new(v, h.clamp(1, 4), 2).rounds().round(0)),
            ];
            for scheme in &schemes {
                for t in 0..scheme.num_tasks() {
                    let ws = sorted_working_set(scheme.as_ref(), t);
                    for index in [SlotIndex::new(&ws), SlotIndex::Sorted(&ws)] {
                        for (slot, &id) in ws.iter().enumerate() {
                            prop_assert_eq!(index.slot(id), slot, "{} task {}", scheme.name(), t);
                        }
                        scheme.for_each_pair(t, &mut |a, b| {
                            assert_eq!((ws[index.slot(a)], ws[index.slot(b)]), (a, b));
                        });
                    }
                }
            }
        }
    }

    /// Neither job runs without a store attached: both fail cleanly.
    #[test]
    fn missing_store_is_invalid_job() {
        let cluster = Cluster::new(ClusterConfig::with_nodes(2));
        let inputs =
            write_sharded(&cluster, "nostore/in", 1, [(1u64, vec![(0u64, 7u64)])]).unwrap();
        let err = Engine::new(&cluster)
            .run(JobSpec::new(
                "nostore-j2",
                inputs,
                "nostore/out",
                GroupByElementMapper::<u64, u64> { _pd: std::marker::PhantomData },
                AggregateReducer::<u64, u64> {
                    aggregator: Arc::new(crate::runner::ConcatSort),
                    _pd: std::marker::PhantomData,
                },
                1,
            ))
            .unwrap_err();
        assert!(matches!(&err, MrError::InvalidJob(msg) if msg.contains("store")), "{err}");

        // Job 1's map phase takes its payload charge from the store too.
        let scheme: Arc<dyn DistributionScheme> = Arc::new(BlockScheme::new(3, 2));
        let inputs = write_sharded(&cluster, "nostore1/in", 1, [(0u64, 10u64)]).unwrap();
        let err = Engine::new(&cluster)
            .run(JobSpec::new(
                "nostore-j1",
                inputs,
                "nostore1/out",
                DistributeMapper::<u64> {
                    scheme: Arc::clone(&scheme),
                    _pd: std::marker::PhantomData,
                },
                EvaluateReducer::<u64, u64> {
                    eval: TaskEvaluator {
                        scheme,
                        kernel: Arc::new(comp_fn(|a: &u64, b: &u64| a + b)),
                        symmetry: Symmetry::Symmetric,
                        filter: None,
                    },
                    aggregator: Arc::new(crate::runner::ConcatSort),
                    fuse: true,
                },
                1,
            ))
            .unwrap_err();
        assert!(matches!(&err, MrError::InvalidJob(msg) if msg.contains("job 1")), "{err}");
    }
}
