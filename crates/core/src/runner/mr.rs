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
//! through the store, evaluates `getPairs`, and emits each element id with
//! its partial `(other, result)` list.
//!
//! Job 2 (*aggregation*): `map` groups by element id (charging the payload
//! copy the paper's identity map would carry); `reduce` merges the partial
//! lists with the application's `aggregateResults`.
//!
//! **Fused path.** When the aggregator advertises
//! [`DecomposableAggregator`] (and [`MrPairwiseOptions::fuse`] is set — the
//! default), aggregation is fused into job 1's reduce tasks and **job 2 is
//! skipped entirely**: pair results fold into per-element accumulators at
//! the tile flush, each emitted copy carries folded partials, and the
//! driver merges the copies' accumulators — or, when the run places rows
//! (`runner::place`), writes every entry straight to its index in the
//! element's row. Charged bytes stay byte-identical to the two-job model —
//! the shuffle job 2 would have charged accrues under
//! [`FUSED_CHARGED_SHUFFLE_COUNTER`] — while the physically moved shuffle
//! bytes of job 2 disappear.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use pmr_cluster::{Cluster, WireSnapshot};
use pmr_mapreduce::{
    read_output, write_sharded, Counters, Engine, JobOutput, JobSpec, MapContext, Mapper,
    ModuloPartitioner, MrError, RawRecord, ReduceContext, Reducer, Values, Wire,
};
use pmr_obs::{hist, Telemetry};

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::kernel::{evaluate_tiled, BatchComp};
use crate::runner::place::{finish_rows, place, places_rows, PlacedRow};
use crate::runner::store::ElementStore;
use crate::runner::{Accumulator, Aggregator, DecomposableAggregator, PairwiseOutput, Symmetry};
use crate::scheme::{BroadcastScheme, DistributionScheme};

/// User counter: pairwise function evaluations performed inside tasks.
pub const EVALUATIONS_COUNTER: &str = "pairwise.evaluations";

/// User counter (fused path only): the shuffle bytes job 2 *would have
/// charged* for the records a fused reduce task emitted — frame, key,
/// length prefix, every pre-fold `(other, result)` entry, and the
/// payload-copy charge. Accrued through the task's scratch counters, so
/// the total is exactly-once under crashes and speculation, and adding it
/// to job 1's charged shuffle reproduces the unfused two-job total
/// byte-for-byte.
pub const FUSED_CHARGED_SHUFFLE_COUNTER: &str = "pairwise.fused.charged.shuffle.bytes";

/// One aggregated output row as stored on the DFS: element id with its
/// merged `(other, result)` list. Payloads never round-trip through the
/// output — callers resolve ids against the store.
type OutputRow<R> = (u64, Vec<(u64, R)>);

/// Options for an MR pairwise run.
#[derive(Debug, Clone)]
pub struct MrPairwiseOptions {
    /// Input shards written to the DFS (models the output of a preceding
    /// job). 0 = twice the node count.
    pub input_shards: usize,
    /// Reduce tasks for job 1 (working-set evaluation). 0 = auto:
    /// `min(num_tasks, 4n)`.
    pub reducers_job1: usize,
    /// Reduce tasks for job 2 (aggregation). 0 = auto: `min(v, 4n)`.
    pub reducers_job2: usize,
    /// Memory-accounting overhead factor for working sets (paper §6 saw
    /// limits hit "a little earlier than expected"; `(1, 1)` = none).
    pub memory_overhead: (u64, u64),
    /// Base DFS directory for this run's files (must be unused).
    pub dfs_dir: String,
    /// Fuse aggregation into job-1 reduce tasks when the aggregator is
    /// decomposable, skipping job 2 and its shuffle entirely (charged
    /// bytes are unchanged; only physically moved bytes collapse). Ignored
    /// — the two-job pipeline runs — when the aggregator does not
    /// advertise [`DecomposableAggregator`].
    pub fuse: bool,
}

impl Default for MrPairwiseOptions {
    fn default() -> Self {
        static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
        MrPairwiseOptions {
            input_shards: 0,
            reducers_job1: 0,
            reducers_job2: 0,
            memory_overhead: (1, 1),
            dfs_dir: format!("pairwise-run-{}", RUN_SEQ.fetch_add(1, Ordering::Relaxed)),
            fuse: true,
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
    /// True when aggregation was fused into job 1's reduce tasks and job 2
    /// was skipped (decomposable aggregator + `MrPairwiseOptions::fuse`).
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

/// Working-set-local `id → slot` index: `slot(id)` is the position of `id`
/// in the task's sorted working set, so per-element task state lives in
/// plain `Vec`s instead of id-keyed hash maps. Sized once per task.
pub(crate) enum SlotIndex<'a> {
    /// `table[id - min]` is the slot, `u32::MAX` — past any per-slot `Vec`
    /// — in the gaps: block, broadcast and small design sets, whose span
    /// is a small multiple of their size.
    Dense { min: u64, table: Vec<u32> },
    /// Binary search on the sorted ids — a quorum set spread over `Z_v`
    /// must not pay an O(v) table per task.
    Sorted(&'a [u64]),
}

/// A working set gets the dense table while `max − min < DENSE_SPAN · len`.
const DENSE_SPAN: u64 = 16;

impl<'a> SlotIndex<'a> {
    pub(crate) fn new(sorted: &'a [u64]) -> Self {
        match (sorted.first(), sorted.last()) {
            (Some(&min), Some(&max)) if max - min < DENSE_SPAN * sorted.len() as u64 => {
                let mut table = vec![u32::MAX; (max - min) as usize + 1];
                for (slot, &id) in sorted.iter().enumerate() {
                    table[(id - min) as usize] = slot as u32;
                }
                SlotIndex::Dense { min, table }
            }
            _ => SlotIndex::Sorted(sorted),
        }
    }

    /// An id outside the working set is a scheme bug (pairs are only
    /// enumerated within the set the scheme named): it panics here or, from
    /// a dense-table gap, at the caller's first use of the slot.
    pub(crate) fn slot(&self, id: u64) -> usize {
        match self {
            SlotIndex::Dense { min, table } => table[id.wrapping_sub(*min) as usize] as usize,
            SlotIndex::Sorted(ids) => {
                ids.binary_search(&id).expect("scheme enumerated a pair outside its working set")
            }
        }
    }
}

/// What the three evaluators — job-1 reducer, its fused variant, and the
/// broadcast mapper — share: one task's pairs go through the filter and the
/// kernel tiles, and each per-direction result is handed to the caller's
/// sink under the receiving element's working-set slot.
struct TaskEvaluator<T, R> {
    scheme: Arc<dyn DistributionScheme>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    filter: Option<Arc<dyn PairFilter>>,
    telemetry: Telemetry,
}

impl<T: Wire + Sync, R: Clone> TaskEvaluator<T, R> {
    /// Evaluates `task` over its sorted working set `ids` (every one
    /// already resolved against `store`), calling `sink(slot, other,
    /// result)` for both sides of each surviving pair — `comp(a, b)` to
    /// `a`'s slot first, then the reverse (or shared) value to `b`'s, the
    /// per-direction order the scalar runners always used.
    fn run(
        &self,
        task: u64,
        ids: &[u64],
        store: &ElementStore<T>,
        counters: &Counters,
        mut sink: impl FnMut(usize, u64, R),
    ) {
        let index = SlotIndex::new(ids);
        let mut prune = PruneStats::default();
        let filter = self.filter.as_deref();
        let evals = evaluate_tiled(
            self.kernel.as_ref(),
            self.symmetry,
            |id| store.get(id).expect("working-set id validated against the store"),
            |f| match filter {
                None => self.scheme.for_each_pair(task, f),
                Some(pf) => self.scheme.for_each_pair(task, &mut |a, b| {
                    prune.candidates += 1;
                    if pf.is_candidate(a, b) {
                        f(a, b);
                    } else {
                        prune.pruned += 1;
                    }
                }),
            },
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
        self.telemetry.record_value(hist::EVALUATIONS_PER_TASK, evals);
    }
}

/// Job-1 reducer: `getPairs` + `evaluate` + `addResult` (both directions),
/// resolving ids through the node-local element store.
struct EvaluateReducer<T, R>(TaskEvaluator<T, R>);

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
        let (ids, payload_bytes) = validate_working_set(self.0.scheme.as_ref(), ws, values, store)?;
        ctx.memory().try_reserve(payload_bytes)?;
        let mut results: Vec<Vec<(u64, R)>> = vec![Vec::new(); ids.len()];
        self.0.run(ws, &ids, store, ctx.counters(), |slot, other, r| {
            results[slot].push((other, r));
        });
        // Emit every copy with its partial results (paper: "The output of
        // the reduce phase contains each element (including all copies)") —
        // as ids, not payloads.
        for (id, partial) in ids.into_iter().zip(results) {
            ctx.emit(id, partial);
        }
        ctx.memory().release(payload_bytes);
        Ok(())
    }
}

/// Fused job-1 reducer: evaluation *and* aggregation in one pass. Pair
/// results are folded into per-element accumulators at the tile flush
/// (never materialized as a per-pair list), and each element copy's
/// emitted record already carries folded — filtered, compacted — partials.
/// The driver merges the per-copy accumulators and job 2 never runs.
///
/// The charged-byte model is kept byte-identical to the unfused pipeline:
/// every pre-fold `(other, result)` entry is weighed and the shuffle
/// bytes job 2 would have charged for this task's records accrue under
/// [`FUSED_CHARGED_SHUFFLE_COUNTER`].
struct FusedEvaluateReducer<T, R> {
    eval: TaskEvaluator<T, R>,
    aggregator: Arc<dyn Aggregator<R>>,
}

impl<T: Wire + Sync, R: Wire + Clone + Sync> Reducer for FusedEvaluateReducer<T, R> {
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
        let aggregator = self.aggregator.as_ref();
        // By slot: the accumulator (created through the aggregator on first
        // touch) and the wire size of the `(other, result)` entries the
        // unfused partial list would carry — 8-byte other id plus the
        // result's canonical encoding, measured in one reused buffer.
        let mut accs: Vec<Option<Accumulator<R>>> = vec![None; ids.len()];
        let mut folded_bytes = vec![0u64; ids.len()];
        let mut entry = BytesMut::new();
        self.eval.run(ws, &ids, store, ctx.counters(), |slot, other, r| {
            entry.clear();
            r.encode(&mut entry);
            folded_bytes[slot] += 8 + entry.len() as u64;
            let acc = accs[slot].get_or_insert_with(|| aggregator.init(ids[slot]));
            aggregator.fold(acc, other, r);
        });
        // Emit every copy with its folded partials, charging what job 2's
        // map would have shuffled for the unfused record: frame header (8)
        // + u64 key (8) + Vec length prefix (4) + the pre-fold entries +
        // the element's payload-copy charge.
        let mut fused_charge = 0u64;
        for ((&id, acc), folded) in ids.iter().zip(accs).zip(folded_bytes) {
            fused_charge += 20 + folded + store.encoded_len(id);
            ctx.emit(id, acc.map(Accumulator::into_partials).unwrap_or_default());
        }
        ctx.counters().add(FUSED_CHARGED_SHUFFLE_COUNTER, fused_charge);
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

/// Job-2 reducer: merges an element's copies with `aggregateResults`.
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
        // Stream each copy's entries through the accumulator API; for the
        // default fold this is exactly the old concatenate-then-aggregate.
        let mut acc = self.aggregator.init(id);
        for rs in values {
            for (other, r) in rs {
                self.aggregator.fold(&mut acc, other, r);
            }
        }
        let merged = self.aggregator.finish(acc);
        ctx.emit(id, merged);
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
        self.0.run(task, &ids, store, ctx.counters(), |slot, other, r| {
            results[slot].push((other, r));
        });
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

fn auto(n: usize, cap: u64, requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        (4 * n).min(cap.max(1) as usize)
    }
}

/// The store handle as attached to a [`JobSpec`] (type-erased; tasks get
/// it back typed via `ctx.store::<ElementStore<T>>()`).
fn store_handle<T: Wire + Sync>(
    store: &Arc<ElementStore<T>>,
) -> Arc<dyn std::any::Any + Send + Sync> {
    Arc::clone(store) as Arc<dyn std::any::Any + Send + Sync>
}

fn moved_counter(job: &JobOutput) -> u64 {
    job.counters.get(pmr_mapreduce::builtin::SHUFFLE_MOVED_BYTES).copied().unwrap_or(0)
}

/// Sums a recovery counter over the run's jobs (absent on healthy runs —
/// the engine only creates these counters when they fire).
fn recovery_counter<'a>(jobs: impl IntoIterator<Item = &'a JobOutput>, name: &str) -> u64 {
    jobs.into_iter().map(|j| j.counters.get(name).copied().unwrap_or(0)).sum()
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

/// Hands each `(id, folded partials)` frame of one fused job-1 part file to
/// `copy` with the id's entry of the id-indexed `slots`. A corrupt frame or
/// an id outside the store is an error, as in job 2.
fn for_each_copy<S, R: Wire>(
    mut part: Bytes,
    slots: &mut [S],
    mut copy: impl FnMut(&mut S, u64, Vec<(u64, R)>) -> pmr_mapreduce::Result<()>,
) -> pmr_mapreduce::Result<()> {
    while !part.is_empty() {
        let raw = RawRecord::read_framed(&mut part)?;
        let id = u64::from_bytes(raw.key)?;
        let slot = usize::try_from(id).ok().and_then(|i| slots.get_mut(i)).ok_or_else(|| {
            MrError::User(format!("merge: element id {id} in job-1 output is not in the store"))
        })?;
        copy(slot, id, Wire::from_bytes(raw.value)?)?;
    }
    Ok(())
}

/// Merges one fused part file into the id-indexed accumulators: an
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

/// Writes one fused part file's entries straight into the id-indexed
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

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mr_impl<T, R>(
    cluster: &Cluster,
    scheme: Arc<dyn DistributionScheme>,
    store: &Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    filter: Option<Arc<dyn PairFilter>>,
    options: MrPairwiseOptions,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, MrRunReport)>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    if store.len() as u64 != scheme.v() {
        return Err(MrError::InvalidJob(format!(
            "payload count {} != scheme v {}",
            store.len(),
            scheme.v()
        )));
    }
    // Fuse only when asked *and* the aggregator advertises the capability;
    // anything else runs the paper's two-job pipeline unchanged.
    let fused = options.fuse && aggregator.decomposable().is_some();
    let placed = places_rows(aggregator.as_ref(), fused, filter.is_some(), scheme.as_ref());
    let telemetry = cluster.telemetry().clone();
    telemetry.set_meta("scheme", scheme.name());
    telemetry.set_meta("scheme.v", scheme.v());
    telemetry.set_meta("scheme.tasks", scheme.num_tasks());
    telemetry.set_meta("backend", if cluster.is_distributed() { "process" } else { "mr" });
    telemetry.set_meta("symmetry", format!("{symmetry:?}"));
    telemetry.set_meta("mr.fused", fused);
    let n = cluster.num_nodes();
    record_analytic_meta(&telemetry, scheme.as_ref(), n as u64);
    let dir = &options.dfs_dir;
    let wire_start = cluster.wire_snapshot();
    // Distributed runs ship the encoded element store to every worker once
    // up front — the id-indexed resolver a real deployment would hold
    // node-locally. Measured on the wire (`seed` class), never charged.
    if cluster.is_distributed() {
        let io = telemetry.job_phase(&format!("{dir}-io"), "seed-store");
        cluster.seed_workers(&format!("seed/{dir}/store"), &store.dataset_bytes())?;
        drop(io);
    }
    let shards = if options.input_shards == 0 { 2 * n } else { options.input_shards };
    // Runner-level I/O gets its own phase track (job `{dir}-io`) so the
    // report's phases tile the whole run, not just the engine jobs.
    let io = telemetry.job_phase(&format!("{dir}-io"), "distribute-input");
    let inputs = write_sharded(
        cluster,
        &format!("{dir}/input"),
        shards,
        store.elements().iter().cloned().enumerate().map(|(i, p)| (i as u64, p)),
    )?;
    drop(io);

    let engine = Engine::new(cluster);
    let reducers_job1 = auto(n, scheme.num_tasks(), options.reducers_job1);
    let eval = TaskEvaluator {
        scheme: Arc::clone(&scheme),
        kernel,
        symmetry,
        filter,
        telemetry: telemetry.clone(),
    };
    let job1 = if fused {
        engine.run(
            JobSpec::new(
                format!("{dir}-j1-distribute-evaluate"),
                inputs,
                format!("{dir}/mid"),
                DistributeMapper::<T> {
                    scheme: Arc::clone(&scheme),
                    _pd: std::marker::PhantomData,
                },
                FusedEvaluateReducer::<T, R> { eval, aggregator: Arc::clone(&aggregator) },
                reducers_job1,
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
            .store(store_handle(store)),
        )?
    } else {
        engine.run(
            JobSpec::new(
                format!("{dir}-j1-distribute-evaluate"),
                inputs,
                format!("{dir}/mid"),
                DistributeMapper::<T> {
                    scheme: Arc::clone(&scheme),
                    _pd: std::marker::PhantomData,
                },
                EvaluateReducer::<T, R>(eval),
                reducers_job1,
            )
            .partitioner(Arc::new(ModuloPartitioner))
            .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
            .store(store_handle(store)),
        )?
    };

    if fused {
        // Job 2 is skipped outright: the driver merges the per-copy
        // accumulators off job 1's output and finishes each element. The
        // shuffle job 2 would have charged was accrued (exactly-once) by
        // the fused reduce tasks, so the reported charged bytes still
        // equal the unfused two-job total while nothing extra moved.
        let dec = aggregator.decomposable().expect("fused run requires a decomposable aggregator");
        let io = telemetry.job_phase(&format!("{dir}-io"), "merge-aggregate");
        // One streaming pass on the calling thread: each part file is read
        // once, in part order, and merged frame by frame, so the driver
        // holds one part's bytes and the accumulators (or, placing, the
        // output rows themselves) — never a second row vector.
        let parts = cluster.dfs().list(&format!("{dir}/mid/"));
        let per_element = if placed {
            let mut rows: Vec<Option<PlacedRow<R>>> = (0..store.len()).map(|_| None).collect();
            for path in parts {
                place_part(cluster.dfs().read(&path)?, &mut rows)?;
            }
            finish_rows(rows, store.len() as u64)
                .map_err(|err| MrError::User(format!("merge: {err}")))?
                .per_element
        } else {
            let mut accs: Vec<Option<Accumulator<R>>> = vec![None; store.len()];
            for path in parts {
                merge_part(cluster.dfs().read(&path)?, dec, &mut accs)?;
            }
            (0u64..).zip(accs).filter_map(|(id, acc)| Some((id, dec.finish(acc?)))).collect()
        };
        drop(io);

        let fused_charge = job1.counters.get(FUSED_CHARGED_SHUFFLE_COUNTER).copied().unwrap_or(0);
        let report = MrRunReport {
            evaluations: job1.counters.get(EVALUATIONS_COUNTER).copied().unwrap_or(0),
            replicated_records: job1.counters[pmr_mapreduce::builtin::MAP_OUTPUT_RECORDS],
            shuffle_bytes: job1.counters[pmr_mapreduce::builtin::SHUFFLE_BYTES] + fused_charge,
            shuffle_moved_bytes: moved_counter(&job1),
            max_working_set_bytes: job1.stats.max_working_set_bytes,
            network_bytes: job1.stats.network_bytes,
            peak_intermediate_bytes: job1.stats.peak_intermediate_bytes,
            node_crashes: recovery_counter([&job1], pmr_mapreduce::builtin::NODE_CRASHES),
            map_reruns: recovery_counter([&job1], pmr_mapreduce::builtin::MAP_RERUNS),
            speculative_launched: recovery_counter(
                [&job1],
                pmr_mapreduce::builtin::SPECULATIVE_LAUNCHED,
            ),
            speculative_won: recovery_counter([&job1], pmr_mapreduce::builtin::SPECULATIVE_WON),
            transport: cluster.transport().name(),
            wire: cluster.wire_snapshot().delta(&wire_start),
            job1,
            job2: None,
            fused: true,
        };
        return Ok((PairwiseOutput { per_element }, report));
    }

    let job2 = engine.run(
        JobSpec::new(
            format!("{dir}-j2-aggregate"),
            job1.output_paths.clone(),
            format!("{dir}/out"),
            GroupByElementMapper::<T, R> { _pd: std::marker::PhantomData },
            AggregateReducer::<T, R> { aggregator, _pd: std::marker::PhantomData },
            auto(n, scheme.v(), options.reducers_job2),
        )
        .partitioner(Arc::new(ModuloPartitioner))
        .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
        .store(store_handle(store)),
    )?;

    let io = telemetry.job_phase(&format!("{dir}-io"), "collect-output");
    let mut per_element: Vec<OutputRow<R>> = read_output(cluster, &format!("{dir}/out"))?;
    per_element.sort_by_key(|(id, _)| *id);
    drop(io);

    let report = MrRunReport {
        evaluations: job1.counters.get(EVALUATIONS_COUNTER).copied().unwrap_or(0),
        replicated_records: job1.counters[pmr_mapreduce::builtin::MAP_OUTPUT_RECORDS],
        shuffle_bytes: job1.counters[pmr_mapreduce::builtin::SHUFFLE_BYTES]
            + job2.counters[pmr_mapreduce::builtin::SHUFFLE_BYTES],
        shuffle_moved_bytes: moved_counter(&job1) + moved_counter(&job2),
        max_working_set_bytes: job1.stats.max_working_set_bytes,
        network_bytes: job1.stats.network_bytes + job2.stats.network_bytes,
        peak_intermediate_bytes: job1
            .stats
            .peak_intermediate_bytes
            .max(job2.stats.peak_intermediate_bytes),
        node_crashes: recovery_counter([&job1, &job2], pmr_mapreduce::builtin::NODE_CRASHES),
        map_reruns: recovery_counter([&job1, &job2], pmr_mapreduce::builtin::MAP_RERUNS),
        speculative_launched: recovery_counter(
            [&job1, &job2],
            pmr_mapreduce::builtin::SPECULATIVE_LAUNCHED,
        ),
        speculative_won: recovery_counter([&job1, &job2], pmr_mapreduce::builtin::SPECULATIVE_WON),
        transport: cluster.transport().name(),
        wire: cluster.wire_snapshot().delta(&wire_start),
        job1,
        job2: Some(job2),
        fused: false,
    };
    Ok((PairwiseOutput { per_element }, report))
}

/// Runs a hierarchical scheme's rounds **sequentially**, each round as the
/// full two-job pipeline, aggregating between rounds — the paper's §7
/// extension ("each block is aggregated before the next one is processed").
///
/// Per-round partial results are concatenated and the caller's aggregator
/// is applied once over the merged lists. Returns the per-round reports so
/// experiments can show that peak intermediate storage is bounded by the
/// largest *round* rather than the whole dataset's replication.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mr_rounds_impl<T, R>(
    cluster: &Cluster,
    rounds: Vec<Arc<dyn DistributionScheme>>,
    store: &Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    filter: Option<Arc<dyn PairFilter>>,
    options: MrPairwiseOptions,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, Vec<MrRunReport>)>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    // By element id: every round's rows were checked against the store.
    let mut merged: Vec<Vec<(u64, R)>> = vec![Vec::new(); store.len()];
    let mut reports = Vec::with_capacity(rounds.len());
    for (i, round) in rounds.into_iter().enumerate() {
        let opts = MrPairwiseOptions {
            dfs_dir: format!("{}/round-{i}", options.dfs_dir),
            ..options.clone()
        };
        let (out, report) = run_mr_impl(
            cluster,
            round,
            store,
            Arc::clone(&kernel),
            symmetry,
            Arc::new(crate::runner::ConcatSort),
            filter.clone(),
            opts,
        )?;
        for (id, mut partial) in out.per_element {
            merged[id as usize].append(&mut partial);
        }
        reports.push(report);
        // The round's DFS files are no longer needed once merged.
        cluster.dfs().list(&format!("{}/round-{i}/", options.dfs_dir)).iter().for_each(|p| {
            cluster.dfs().delete(p);
        });
    }
    let per_element = (0u64..)
        .zip(merged)
        .map(|(id, partials)| (id, crate::runner::aggregate_all(aggregator.as_ref(), id, partials)))
        .collect();
    Ok((PairwiseOutput { per_element }, reports))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mr_broadcast_impl<T, R>(
    cluster: &Cluster,
    scheme: &BroadcastScheme,
    store: &Arc<ElementStore<T>>,
    kernel: Arc<dyn BatchComp<T, R>>,
    symmetry: Symmetry,
    aggregator: Arc<dyn Aggregator<R>>,
    filter: Option<Arc<dyn PairFilter>>,
    options: MrPairwiseOptions,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, MrRunReport)>
where
    T: Wire + Clone + Sync,
    R: Wire + Clone + Sync,
{
    if store.len() as u64 != scheme.v() {
        return Err(MrError::InvalidJob(format!(
            "payload count {} != scheme v {}",
            store.len(),
            scheme.v()
        )));
    }
    let telemetry = cluster.telemetry().clone();
    telemetry.set_meta("scheme", scheme.name());
    telemetry.set_meta("scheme.v", scheme.v());
    telemetry.set_meta("scheme.tasks", scheme.num_tasks());
    telemetry.set_meta("backend", if cluster.is_distributed() { "process" } else { "mr" });
    telemetry.set_meta("symmetry", format!("{symmetry:?}"));
    let n = cluster.num_nodes();
    record_analytic_meta(&telemetry, scheme, n as u64);
    let dir = &options.dfs_dir;
    let wire_start = cluster.wire_snapshot();
    // The §5.1 seeding cost: the dataset is broadcast to every node, and
    // the per-node store view resolves against it. Distributed runs also
    // ship the encoded store to every worker (`seed` wire class).
    let dataset_bytes = store.dataset_bytes();
    if cluster.is_distributed() {
        let io = telemetry.job_phase(&format!("{dir}-io"), "seed-store");
        cluster.seed_workers(&format!("seed/{dir}/store"), &dataset_bytes)?;
        drop(io);
    }

    // Input = one record per (nonempty) task: the unit of map-side work.
    let tasks: Vec<(u64, ())> =
        (0..scheme.num_tasks()).filter(|&t| scheme.num_pairs(t) > 0).map(|t| (t, ())).collect();
    let shards = if options.input_shards == 0 { n } else { options.input_shards };
    let io = telemetry.job_phase(&format!("{dir}-io"), "distribute-input");
    let inputs =
        write_sharded(cluster, &format!("{dir}/tasks"), shards.min(tasks.len().max(1)), tasks)?;
    drop(io);

    let engine = Engine::new(cluster);
    let job = engine.run(
        JobSpec::new(
            format!("{dir}-broadcast-evaluate-aggregate"),
            inputs,
            format!("{dir}/out"),
            BroadcastEvalMapper::<T, R>(TaskEvaluator {
                scheme: Arc::new(scheme.clone()),
                kernel,
                symmetry,
                filter: filter.clone(),
                telemetry: telemetry.clone(),
            }),
            AggregateReducer::<T, R> {
                aggregator: Arc::clone(&aggregator),
                _pd: std::marker::PhantomData,
            },
            auto(n, scheme.v(), options.reducers_job2),
        )
        .partitioner(Arc::new(ModuloPartitioner))
        .cache_file("dataset", dataset_bytes)
        .memory_overhead(options.memory_overhead.0, options.memory_overhead.1)
        .store(store_handle(store)),
    )?;

    let io = telemetry.job_phase(&format!("{dir}-io"), "collect-output");
    let mut per_element: Vec<OutputRow<R>> = read_output(cluster, &format!("{dir}/out"))?;
    per_element.sort_by_key(|(id, _)| *id);
    // The broadcast mapper only emits elements that produced results, so a
    // filter that prunes *every* pair of an element would drop its row.
    // Backfill the empty rows the other backends produce (aggregator run
    // over zero partials), keeping pruned output identical across
    // backends. Unfiltered runs never hit this: every element has v−1
    // pairs, so every id was emitted.
    if filter.is_some() && per_element.len() < store.len() {
        let mut filled: Vec<OutputRow<R>> = Vec::with_capacity(store.len());
        let mut have = per_element.into_iter().peekable();
        for id in 0..store.len() as u64 {
            match have.peek() {
                Some((next, _)) if *next == id => filled.push(have.next().unwrap()),
                _ => filled
                    .push((id, crate::runner::aggregate_all(aggregator.as_ref(), id, Vec::new()))),
            }
        }
        per_element = filled;
    }
    drop(io);

    let report = MrRunReport {
        evaluations: job.counters.get(EVALUATIONS_COUNTER).copied().unwrap_or(0),
        replicated_records: job.counters[pmr_mapreduce::builtin::MAP_OUTPUT_RECORDS],
        shuffle_bytes: job.counters[pmr_mapreduce::builtin::SHUFFLE_BYTES],
        shuffle_moved_bytes: moved_counter(&job),
        max_working_set_bytes: job.stats.max_working_set_bytes,
        network_bytes: job.stats.network_bytes,
        peak_intermediate_bytes: job.stats.peak_intermediate_bytes,
        node_crashes: recovery_counter([&job], pmr_mapreduce::builtin::NODE_CRASHES),
        map_reruns: recovery_counter([&job], pmr_mapreduce::builtin::MAP_RERUNS),
        speculative_launched: recovery_counter(
            [&job],
            pmr_mapreduce::builtin::SPECULATIVE_LAUNCHED,
        ),
        speculative_won: recovery_counter([&job], pmr_mapreduce::builtin::SPECULATIVE_WON),
        transport: cluster.transport().name(),
        wire: cluster.wire_snapshot().delta(&wire_start),
        job1: job,
        job2: None,
        // The §5.1 variant is inherently single-job; its map-side emission
        // stays unfused so the charged seeding/shuffle costs are the
        // paper's unchanged.
        fused: false,
    };
    Ok((PairwiseOutput { per_element }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::TwoLevelBlock;
    use crate::runner::ConcatSort;
    use crate::scheme::{BlockScheme, DesignScheme, QuorumScheme};
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
                TwoLevelBlock::new(v, h.clamp(1, 4), 2).round(0),
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
                EvaluateReducer::<u64, u64>(TaskEvaluator {
                    scheme,
                    kernel: Arc::new(crate::runner::ScalarComp::new(crate::runner::comp_fn(
                        |a: &u64, b: &u64| a + b,
                    ))),
                    symmetry: Symmetry::Symmetric,
                    filter: None,
                    telemetry: cluster.telemetry().clone(),
                }),
                1,
            ))
            .unwrap_err();
        assert!(matches!(&err, MrError::InvalidJob(msg) if msg.contains("job 1")), "{err}");
    }
}
