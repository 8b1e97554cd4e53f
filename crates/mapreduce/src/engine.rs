//! The job executor: map → sort/shuffle → reduce over the simulated
//! cluster.
//!
//! Execution model (paper §3): tasks run in parallel on nodes, each task
//! touches only node-local data plus data explicitly moved to it; moves are
//! accounted as network traffic. Scheduling is deterministic — map tasks go
//! to the least-loaded live replica holder of their split (locality first),
//! reduce task `r` goes to node `r mod n` — so byte-level metrics are
//! reproducible run to run while tasks still execute on real parallel
//! threads (one worker thread per configured task slot).
//!
//! # Fault tolerance
//!
//! The engine survives node crashes with Dean–Ghemawat semantics:
//!
//! * Every task attempt runs against a *scratch* counter bag and commits
//!   atomically: the first attempt of a task to finish wins (a CAS on the
//!   task's winner slot), merges its scratch counters into the job
//!   counters, and publishes its output; losing sibling attempts are
//!   discarded wholesale (span cancelled, counters dropped). A winner whose
//!   output cannot be published (a replica node died under the write)
//!   reopens the task for its re-queued attempt. Logical
//!   counters — `pairwise.evaluations`, record and byte totals — therefore
//!   count each task exactly once no matter how many attempts ran.
//! * A crashed node loses its local files, including completed map
//!   outputs. Reducers detect this during the shuffle (a dead node answers
//!   `NodeDead`, not `NoSuchFile`) and re-execute the lost map task on
//!   their own node; the re-run's input re-read is charged as recovery
//!   traffic, but its counters are discarded — the logical work was
//!   already committed by the original attempt.
//! * Queued tasks of a dead node are drained to live nodes; attempts that
//!   die mid-flight (their node crashed under them) are re-queued.
//! * With `speculation_multiplier` configured, a task running longer than
//!   that multiple of the median completed-task time gets a backup attempt
//!   on another node; the commit CAS arbitrates, and the loser's partial
//!   output is never observed (map outputs are read via the winner's
//!   recorded site; reduce output is published only by the winner).
//!
//! # Streaming the output
//!
//! [`Engine::run`] writes each reduce task's output to the DFS as a part
//! file, the input of a next job. [`Engine::run_with_sink`], the same
//! body, writes nothing: the winning attempt's output travels with its
//! commit announcement to the calling thread — which otherwise would only
//! wait for the workers — and goes to the caller's sink there, in part
//! order, during the reduce phase. Only a commit announces a part, so a
//! part is handed over exactly once whatever retries, speculation and
//! crashes happened.
//!
//! Per-attempt histograms (group sizes, shuffle bytes per partition) are
//! recorded as attempts run, so under speculation a losing attempt may
//! contribute observations; counters never do.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use pmr_cluster::{Cluster, ClusterError, MemoryGauge, NodeId, TaskAttemptId, TaskKind};
use pmr_obs::{hist, Span, SpanKind};

use crate::api::{MapContext, Mapper, ReduceContext, Reducer, Values};
use crate::codec::{decode_raw_stream, RawRecord, Wire};
use crate::counters::{builtin, Counters};
use crate::error::{MrError, Result};
use crate::job::{JobOutput, JobSpec, JobStats};

/// Runs MapReduce jobs on a cluster. Cheap to create; jobs it runs get
/// sequential ids for task naming and failure injection.
pub struct Engine<'c> {
    cluster: &'c Cluster,
    job_seq: AtomicU32,
}

/// Name of the engine counter recording the peak per-group working set.
pub const WS_PEAK_COUNTER: &str = "mr.reduce.ws.peak.bytes";
/// Name of the engine counter recording peak intermediate bytes.
pub const INTERMEDIATE_PEAK_COUNTER: &str = "mr.intermediate.peak.bytes";

/// Counter-name suffix merged with `max` (not `+`) when an attempt's
/// scratch counters are committed.
const PEAK_SUFFIX: &str = ".peak.bytes";

/// How often a parked worker re-scans for stragglers when speculation is
/// enabled. Without speculation, idle workers park indefinitely — every
/// event they could react to advances the board's wake epoch.
const SPECULATION_RECHECK: Duration = Duration::from_micros(200);

/// Sentinel in a task's winner slot: no attempt has committed yet.
const OPEN: u32 = u32::MAX;

/// Per-phase scheduling state: node work queues plus the commit, retry,
/// and speculation bookkeeping of every task in the phase.
struct PhaseBoard {
    /// Which kind of task the phase runs.
    kind: TaskKind,
    /// Per-node FIFO of task indices.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks not yet committed.
    remaining: AtomicUsize,
    /// Committed attempt id per task (`OPEN` until an attempt wins).
    winner: Vec<AtomicU32>,
    /// Next attempt id per task (shared by retries, re-queues, backups).
    next_attempt: Vec<AtomicU32>,
    /// Injected-failure count per task (drives `max_task_attempts`).
    failures: Vec<AtomicU32>,
    /// Whether a speculative backup was already launched for the task.
    speculated: Vec<AtomicBool>,
    /// Wall times (µs) of committed attempts; median feeds speculation.
    durations: Mutex<Vec<u64>>,
    /// Currently running attempts `(task, node, start)`.
    running: Mutex<Vec<(usize, u32, Instant)>>,
    /// Wake epoch: advanced (under the lock) by every event a parked
    /// worker must observe — a commit, a requeued task, a drained dead
    /// node, a phase error. Workers snapshot it before scanning for work
    /// and park only while it is unchanged, so no wake is ever lost.
    epoch: Mutex<u64>,
    /// Parked idle workers wait here; `wake_all` rouses them to re-scan.
    parked: Condvar,
}

impl PhaseBoard {
    /// Builds a board with `assignment[t]` = node index of task `t`.
    fn new(kind: TaskKind, n: usize, assignment: &[usize]) -> PhaseBoard {
        let tasks = assignment.len();
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        for (t, &nd) in assignment.iter().enumerate() {
            queues[nd].lock().push_back(t);
        }
        PhaseBoard {
            kind,
            queues,
            remaining: AtomicUsize::new(tasks),
            winner: (0..tasks).map(|_| AtomicU32::new(OPEN)).collect(),
            next_attempt: (0..tasks).map(|_| AtomicU32::new(0)).collect(),
            failures: (0..tasks).map(|_| AtomicU32::new(0)).collect(),
            speculated: (0..tasks).map(|_| AtomicBool::new(false)).collect(),
            durations: Mutex::new(Vec::new()),
            running: Mutex::new(Vec::new()),
            epoch: Mutex::new(0),
            parked: Condvar::new(),
        }
    }

    /// The kind's name in task names and trace details.
    fn name(&self) -> &'static str {
        match self.kind {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }

    /// Snapshot of the wake epoch, taken *before* scanning for work so a
    /// wake landing between a failed scan and the park is never lost —
    /// `park` returns immediately when the epoch has already moved on.
    fn wake_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Advances the wake epoch and rouses every parked worker to re-scan.
    fn wake_all(&self) {
        *self.epoch.lock() += 1;
        self.parked.notify_all();
    }

    /// Parks the calling worker until the epoch moves past `seen` — or,
    /// when `recheck` is set (speculation needs periodic straggler
    /// scans), until that much time has elapsed.
    fn park(&self, seen: u64, recheck: Option<Duration>) {
        let mut guard = self.epoch.lock();
        while *guard == seen {
            match recheck {
                Some(d) => {
                    let (g, timeout) =
                        self.parked.wait_timeout(guard, d).unwrap_or_else(|e| e.into_inner());
                    guard = g;
                    if timeout.timed_out() {
                        return;
                    }
                }
                None => {
                    guard = self.parked.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// True iff no attempt of the task has committed yet.
    fn is_open(&self, task: usize) -> bool {
        self.winner[task].load(Ordering::SeqCst) == OPEN
    }

    /// Tries to commit `attempt` as the task's winner.
    fn try_win(&self, task: usize, attempt: u32) -> bool {
        self.winner[task]
            .compare_exchange(OPEN, attempt, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Undoes a win whose output could not be published.
    fn reopen(&self, task: usize) {
        self.winner[task].store(OPEN, Ordering::SeqCst);
    }

    /// Marks a committed task done.
    fn finish(&self, duration_us: u64) {
        self.durations.lock().push(duration_us);
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Pushes a task onto the least-loaded live node's queue and wakes
    /// parked workers — the target node's workers may all be idle.
    fn requeue_on_live(&self, cluster: &Cluster, task: usize) {
        let target = cluster
            .live_nodes()
            .into_iter()
            .min_by_key(|nd| (self.queues[nd.index()].lock().len(), nd.0))
            .expect("cluster always keeps at least one live node");
        self.queues[target.index()].lock().push_back(task);
        self.wake_all();
    }

    /// Moves every queued task of a (dead) node to live nodes.
    fn drain_dead(&self, cluster: &Cluster, node_idx: usize) {
        while let Some(task) = self.queues[node_idx].lock().pop_front() {
            self.requeue_on_live(cluster, task);
        }
    }

    fn note_start(&self, task: usize, node: u32, started: Instant) {
        self.running.lock().push((task, node, started));
    }

    fn note_end(&self, task: usize, node: u32) {
        let mut running = self.running.lock();
        if let Some(i) = running.iter().position(|&(t, nd, _)| t == task && nd == node) {
            running.swap_remove(i);
        }
    }

    /// Picks a straggler to back up on node `me`: a task running on
    /// another node for longer than `mult ×` the median committed-task
    /// time, not yet committed, not yet speculated. Marks it speculated.
    fn pick_speculation(&self, me: usize, mult: f64) -> Option<usize> {
        let median = {
            let durations = self.durations.lock();
            if durations.is_empty() {
                return None;
            }
            let mut sorted = durations.clone();
            sorted.sort_unstable();
            sorted[sorted.len() / 2]
        };
        let threshold_us = (median as f64 * mult).max(1.0) as u128;
        let running = self.running.lock();
        for &(task, node, started) in running.iter() {
            if node as usize == me
                || !self.is_open(task)
                || started.elapsed().as_micros() < threshold_us
            {
                continue;
            }
            if !self.speculated[task].swap(true, Ordering::SeqCst) {
                return Some(task);
            }
        }
        None
    }
}

/// DFS path of reduce task `task`'s part file under `output`.
fn part_path(output: &str, task: usize) -> String {
    format!("{output}/part-{task:05}")
}

/// Merges an attempt's scratch counters into the job counters: `*.peak.bytes`
/// entries merge with `max`, everything else sums.
fn commit_scratch(counters: &Counters, scratch: &Counters) {
    for (name, value) in scratch.snapshot() {
        if name.ends_with(PEAK_SUFFIX) {
            counters.record_max(&name, value);
        } else {
            counters.add(&name, value);
        }
    }
}

/// What every task of one job shares: the job's identity, spec and
/// counters, the map side's splits and published output, and the locks
/// that serialize recovery of lost map outputs.
struct JobCtx<'a, M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    cluster: &'a Cluster,
    jid: u32,
    spec: &'a JobSpec<M, R>,
    counters: Counters,
    splits: Vec<pmr_cluster::InputSplit>,
    /// Per-(map task, partition) extra charge billed via `emit_charged`:
    /// bytes the cost model prices into the shuffle transfer of that
    /// partition even though they are never materialized. Published at
    /// commit (and idempotently re-published by recovery re-runs — the
    /// values are a deterministic function of the task), read by reduce
    /// tasks.
    charges: Vec<AtomicU64>,
    /// Node each map task's committed output lives on: initialized to the
    /// assignment, overwritten by the winning attempt's node and by
    /// recovery re-runs.
    map_sites: Vec<AtomicU32>,
    map_board: PhaseBoard,
    /// Serializes recovery of one lost map output; re-runs continue the
    /// map task's attempt numbering.
    recovery: Vec<Mutex<()>>,
}

/// A reduce attempt's output, held back until the attempt wins commit.
struct ReduceDone {
    out: Bytes,
    /// The DFS record index, built only for a part that is written.
    offsets: Option<Vec<u64>>,
    lap_at: Instant,
}

impl<'c> Engine<'c> {
    /// Creates an engine bound to a cluster.
    pub fn new(cluster: &'c Cluster) -> Engine<'c> {
        Engine { cluster, job_seq: AtomicU32::new(0) }
    }

    /// The cluster this engine runs on.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Runs one job to completion, writing each reduce task's output to
    /// the DFS part file its [`JobOutput::output_paths`] names.
    pub fn run<M, R>(&self, spec: JobSpec<M, R>) -> Result<JobOutput>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        self.run_job(spec, None)
    }

    /// Runs one job to completion, handing each reduce task's committed
    /// output to `sink` while the rest of the reduce phase runs. Nothing
    /// is written to the DFS, so [`JobOutput::output_paths`] is empty.
    ///
    /// `sink(part, bytes)` runs on the calling thread, once per part, in
    /// part order: part `k` only after parts `0..k`, each as soon as the
    /// task's winning attempt has committed (never a losing or failed
    /// attempt's output). `bytes` is the framed record stream
    /// [`Engine::run`] would write as the part file; a part that commits
    /// ahead of an earlier one waits on the calling thread. An error from
    /// `sink` fails the job with that error, like a task error: the
    /// workers stop, parts still waiting are dropped and the job's
    /// node-local files are removed.
    pub fn run_with_sink<M, R>(
        &self,
        spec: JobSpec<M, R>,
        mut sink: impl FnMut(usize, Bytes) -> Result<()>,
    ) -> Result<JobOutput>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        self.run_job(spec, Some(&mut sink))
    }

    /// The one job body: reduce output goes to `sink` when there is one,
    /// to DFS part files otherwise.
    fn run_job<M, R>(
        &self,
        spec: JobSpec<M, R>,
        mut sink: Option<&mut dyn FnMut(usize, Bytes) -> Result<()>>,
    ) -> Result<JobOutput>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        let started = Instant::now();
        if spec.num_reducers == 0 {
            return Err(MrError::InvalidJob("num_reducers must be ≥ 1".into()));
        }
        if spec.inputs.is_empty() {
            return Err(MrError::InvalidJob("job has no inputs".into()));
        }
        // Each phase hands over to the next at one clock reading (the
        // sink's phase chain), so the job's phases tile its window exactly.
        // The last, `finalize`, stays open until the caller's next phase.
        let cluster = self.cluster;
        let telemetry = cluster.telemetry().clone();
        telemetry.job_phase(&spec.name, "setup");
        let jid = self.job_seq.fetch_add(1, Ordering::Relaxed);
        let counters = Counters::new();
        let n = cluster.num_nodes();
        let net_before = cluster.traffic().remote_bytes();
        let sim_before = cluster.traffic().simulated_time_us();
        let crashes_before = cluster.node_crashes();

        // --- Plan input splits: one per DFS block. ---
        let mut splits = Vec::new();
        for path in &spec.inputs {
            if !cluster.dfs().exists(path) {
                return Err(MrError::InvalidJob(format!("input path not found: {path}")));
            }
            let per_block =
                cluster.dfs().len(path)?.div_ceil(cluster.dfs().block_size()).max(1) as usize;
            splits.extend(cluster.dfs().splits(path, per_block)?);
        }
        if splits.is_empty() {
            return Err(MrError::InvalidJob("inputs contain no records".into()));
        }

        // --- Distribute cache files to every live node (paper §5.1). ---
        // A failed copy or capacity check removes the copies already made,
        // so a rejected job leaves nothing billed to the nodes.
        let cache_prefix = format!("mr/{jid}/cache/");
        let live_count = cluster.live_nodes().len();
        let distributed = spec.cache_files.iter().try_for_each(|(name, data)| {
            for node in cluster.nodes() {
                if node.is_alive() {
                    node.write_local(&format!("{cache_prefix}{name}"), data.clone())?;
                }
            }
            cluster.traffic().record_broadcast(
                &cluster.config().network,
                NodeId(0),
                live_count,
                data.len() as u64,
            );
            counters.add(builtin::DISTRIBUTED_CACHE_BYTES, data.len() as u64 * live_count as u64);
            cluster.check_intermediate_capacity()
        });
        if let Err(e) = distributed {
            self.cleanup(jid, 0);
            return Err(e.into());
        }

        // --- Assign map tasks: locality-aware over live nodes. ---
        let mut load = vec![0usize; n];
        let map_assignment: Vec<usize> = splits
            .iter()
            .map(|s| {
                let chosen = s
                    .preferred_nodes
                    .iter()
                    .copied()
                    .filter(|nd| cluster.is_alive(*nd))
                    .min_by_key(|nd| (load[nd.index()], nd.0))
                    .unwrap_or_else(|| {
                        (0..n as u32)
                            .map(NodeId)
                            .filter(|nd| cluster.is_alive(*nd))
                            .min_by_key(|nd| (load[nd.index()], nd.0))
                            .expect("cluster always keeps at least one live node")
                    });
                load[chosen.index()] += 1;
                chosen.index()
            })
            .collect();

        // --- Map phase. ---
        telemetry.job_phase(&spec.name, "map");
        let num_maps = splits.len();
        let job = JobCtx {
            cluster,
            jid,
            spec: &spec,
            counters,
            splits,
            charges: (0..num_maps * spec.num_reducers).map(|_| AtomicU64::new(0)).collect(),
            map_sites: map_assignment.iter().map(|&nd| AtomicU32::new(nd as u32)).collect(),
            map_board: PhaseBoard::new(TaskKind::Map, n, &map_assignment),
            recovery: (0..num_maps).map(|_| Mutex::new(())).collect(),
        };
        let counters = &job.counters;
        let error: Mutex<Option<MrError>> = Mutex::new(None);
        job.run_phase(
            &job.map_board,
            cluster.config().node.map_slots,
            &error,
            |task, me, backup| job.attempt_map(task, me, backup),
            |_, ()| Ok(()),
        );
        let charged_total: u64 = job.charges.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if let Some(e) = error.lock().take() {
            self.cleanup(jid, charged_total);
            return Err(e);
        }
        telemetry.phase_bytes(
            counters.get(builtin::MAP_OUTPUT_BYTES),
            counters.get(builtin::MAP_OUTPUT_MOVED_BYTES),
        );

        // Intermediate data is fully materialized (and charged) now:
        // record the peak.
        let peak_intermediate = cluster.intermediate_bytes();
        counters.record_max(INTERMEDIATE_PEAK_COUNTER, peak_intermediate);

        // --- Reduce phase. ---
        telemetry.job_phase(&spec.name, "reduce");
        let reduce_assignment: Vec<usize> = (0..spec.num_reducers).map(|r| r % n).collect();
        let reduce_board = PhaseBoard::new(TaskKind::Reduce, n, &reduce_assignment);
        let hand_over = sink.is_some();
        job.run_phase(
            &reduce_board,
            cluster.config().node.reduce_slots,
            &error,
            |task, me, backup| {
                job.drive(
                    &reduce_board,
                    task,
                    me,
                    backup,
                    |scratch, span| job.reduce_body(task, me, !hand_over, scratch, span),
                    |done, span| {
                        if hand_over {
                            Ok(Some(done.out))
                        } else {
                            job.write_part(task, done, span).map(|()| None)
                        }
                    },
                )
            },
            |task, out| match (sink.as_mut(), out) {
                (Some(sink), Some(out)) => sink(task, out),
                _ => Ok(()),
            },
        );
        telemetry.phase_bytes(
            counters.get(builtin::SHUFFLE_BYTES),
            counters.get(builtin::SHUFFLE_MOVED_BYTES),
        );
        telemetry.job_phase(&spec.name, "finalize");
        self.cleanup(jid, charged_total);
        if let Some(e) = error.lock().take() {
            return Err(e);
        }

        let crash_delta = cluster.node_crashes() - crashes_before;
        if crash_delta > 0 {
            counters.add(builtin::NODE_CRASHES, crash_delta);
        }
        let parts = if hand_over { 0 } else { spec.num_reducers };
        let output_paths: Vec<String> = (0..parts).map(|r| part_path(&spec.output, r)).collect();
        let stats = JobStats {
            map_tasks: num_maps,
            reduce_tasks: spec.num_reducers,
            network_bytes: cluster.traffic().remote_bytes() - net_before,
            max_working_set_bytes: counters.get(WS_PEAK_COUNTER),
            peak_intermediate_bytes: peak_intermediate,
            simulated_network_time_us: cluster.traffic().simulated_time_us() - sim_before,
            wall_time_us: 0, // read once the job's state is released, below
        };
        let mut output = JobOutput { output_paths, counters: counters.snapshot(), stats };
        // Releasing the job's state belongs to its wall time.
        drop(job);
        drop(spec);
        output.stats.wall_time_us = started.elapsed().as_micros() as u64;
        Ok(output)
    }

    /// Deletes the job's node-local files and releases the job's charged
    /// (unmaterialized) intermediate bytes.
    fn cleanup(&self, jid: u32, charged: u64) {
        for node in self.cluster.nodes() {
            node.delete_local_prefix(&format!("mr/{jid}/"));
        }
        self.cluster.uncharge_intermediate(charged);
    }
}

impl<M, R> JobCtx<'_, M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Runs one phase to completion on `slots` worker threads per node.
    /// Each worker pops its node's queue (or, idle, backs up a straggler)
    /// and hands the task to `attempt(task, node, is_backup)`, which
    /// returns what it published if it committed the task; an attempt
    /// whose node died under it is re-queued on a live node, and the first
    /// other error stops every worker of the phase.
    ///
    /// Meanwhile the calling thread hands the committed tasks, each with
    /// what its winner published, to `on_commit` in task order: a worker
    /// announces each task it commits on a channel, a task committed ahead
    /// of an earlier one is held here, and task `k` goes over once `0..k`
    /// have. The channel closes when the last worker exits. An `on_commit`
    /// error becomes the phase error, and the tasks still held are dropped.
    fn run_phase<P: Send>(
        &self,
        board: &PhaseBoard,
        slots: usize,
        error: &Mutex<Option<MrError>>,
        attempt: impl Fn(usize, NodeId, bool) -> Result<Option<P>> + Sync,
        mut on_commit: impl FnMut(usize, P) -> Result<()>,
    ) {
        let cluster = self.cluster;
        let attempt = &attempt;
        let (announce, committed) = mpsc::channel::<(usize, P)>();
        crossbeam::thread::scope(|scope| {
            for node_idx in 0..cluster.num_nodes() {
                for _slot in 0..slots.max(1) {
                    let announce = announce.clone();
                    scope.spawn(move |_| {
                        let me = NodeId(node_idx as u32);
                        loop {
                            // Snapshot first: the error flag is part of what
                            // a parked worker waits on, so a failure (and its
                            // wake) landing after the check below must still
                            // move the epoch past `seen`.
                            let seen = board.wake_epoch();
                            if error.lock().is_some() {
                                return;
                            }
                            if !cluster.is_alive(me) {
                                board.drain_dead(cluster, node_idx);
                                return;
                            }
                            let popped = board.queues[node_idx].lock().pop_front();
                            let (task, is_backup) = match popped {
                                Some(t) => (t, false),
                                None => {
                                    if board.remaining.load(Ordering::SeqCst) == 0 {
                                        return;
                                    }
                                    let mult = cluster.config().speculation_multiplier;
                                    match mult.and_then(|m| board.pick_speculation(node_idx, m)) {
                                        Some(t) => (t, true),
                                        None => {
                                            board.park(seen, mult.map(|_| SPECULATION_RECHECK));
                                            continue;
                                        }
                                    }
                                }
                            };
                            match attempt(task, me, is_backup) {
                                // The receiver is gone only after an
                                // `on_commit` error, which stops the phase.
                                Ok(Some(published)) => {
                                    let _ = announce.send((task, published));
                                }
                                Ok(None) => {}
                                Err(MrError::Cluster(ClusterError::NodeDead(_))) => {
                                    board.requeue_on_live(cluster, task);
                                }
                                Err(e) => {
                                    error.lock().get_or_insert(e);
                                    board.wake_all();
                                    return;
                                }
                            }
                            // The attempt may have committed (remaining
                            // moved), requeued work, or triggered a chaos
                            // crash via task-completion accounting — parked
                            // workers must re-scan either way.
                            board.wake_all();
                        }
                    });
                }
            }
            drop(announce);
            let mut held: Vec<Option<P>> = board.winner.iter().map(|_| None).collect();
            let mut next = 0;
            for (task, published) in committed {
                held[task] = Some(published);
                while let Some(published) = held.get_mut(next).and_then(Option::take) {
                    if let Err(e) = on_commit(next, published) {
                        error.lock().get_or_insert(e);
                        board.wake_all();
                        return;
                    }
                    next += 1;
                }
            }
        })
        .unwrap_or_else(|_| panic!("{} worker panicked", board.name()));
    }

    /// Retry wrapper and commit protocol of one task on node `me`, shared
    /// by both kinds. `body` runs an attempt against scratch counters and
    /// the attempt's span and returns its held-back output; only the
    /// attempt that wins the task's commit CAS hands that output to
    /// `publish`, merges its scratch counters and records its span. A
    /// failed or losing attempt's span is cancelled and its counters
    /// dropped. Returns what `publish` returned if this call committed the
    /// task.
    fn drive<T, P>(
        &self,
        board: &PhaseBoard,
        task: usize,
        me: NodeId,
        is_backup: bool,
        body: impl FnOnce(&Counters, &mut Span) -> Result<T>,
        publish: impl FnOnce(T, &mut Span) -> Result<P>,
    ) -> Result<Option<P>> {
        let cluster = self.cluster;
        let kind = board.name();
        if is_backup {
            self.counters.inc(builtin::SPECULATIVE_LAUNCHED);
            cluster.telemetry().event(
                "speculative.launch",
                me.0,
                0,
                format!("backup attempt of {kind} task {task} on {me}"),
            );
        }
        let attempts_counter = match board.kind {
            TaskKind::Map => builtin::MAP_TASK_ATTEMPTS,
            TaskKind::Reduce => builtin::REDUCE_TASK_ATTEMPTS,
        };
        let max_attempts = cluster.config().max_task_attempts.max(1);
        let attempt = loop {
            if !board.is_open(task) {
                return Ok(None); // a sibling attempt already committed
            }
            if !cluster.is_alive(me) {
                return Err(ClusterError::NodeDead(me).into());
            }
            let attempt = board.next_attempt[task].fetch_add(1, Ordering::SeqCst);
            self.counters.inc(attempts_counter);
            let aid = TaskAttemptId { job: self.jid, kind: board.kind, task: task as u32, attempt };
            if !cluster.injector().should_fail(aid) {
                break attempt;
            }
            self.counters.inc(builtin::FAILED_ATTEMPTS);
            if board.failures[task].fetch_add(1, Ordering::SeqCst) + 1 >= max_attempts {
                return Err(MrError::TaskFailed {
                    task: format!("job{}/{kind}{task}", self.jid),
                    attempts: max_attempts,
                });
            }
        };
        let run_started = Instant::now();
        board.note_start(task, me.0, run_started);
        let scratch = Counters::new();
        let span_kind = match board.kind {
            TaskKind::Map => SpanKind::Map,
            TaskKind::Reduce => SpanKind::Reduce,
        };
        let mut span =
            cluster.telemetry().span(&self.spec.name, span_kind, task as u32, attempt, me.0);
        let done = body(&scratch, &mut span);
        board.note_end(task, me.0);
        let out = match done {
            Ok(out) if board.try_win(task, attempt) => out,
            lost_or_failed => {
                span.cancel();
                return lost_or_failed.map(|_| None);
            }
        };
        // A failed publish made nothing visible (a reduce part is deleted
        // before it is written): reopen the task, or its re-queued attempt
        // would find it won and the phase would wait for it forever.
        let published = publish(out, &mut span).inspect_err(|_| {
            span.cancel();
            board.reopen(task);
        })?;
        commit_scratch(&self.counters, &scratch);
        drop(span);
        board.finish(run_started.elapsed().as_micros() as u64);
        if is_backup {
            self.counters.inc(builtin::SPECULATIVE_WON);
            let detail = format!("backup of {kind} task {task} won on {me}");
            cluster.telemetry().event("speculative.win", me.0, 0, detail);
        }
        let _ = cluster.note_task_completion();
        Ok(Some(published))
    }

    /// One map task through the commit protocol: the winner publishes its
    /// per-partition charges and output site, charges the extra bytes as
    /// intermediate storage, and the cluster's capacity is checked.
    fn attempt_map(&self, task: usize, me: NodeId, is_backup: bool) -> Result<Option<()>> {
        let cluster = self.cluster;
        let committed = self.drive(
            &self.map_board,
            task,
            me,
            is_backup,
            |scratch, span| self.map_body(task, me, scratch, span),
            |partition_charges, _| {
                cluster.charge_intermediate(self.publish_map_output(task, me, &partition_charges));
                Ok(())
            },
        )?;
        if committed.is_some() {
            cluster.check_intermediate_capacity()?;
        }
        Ok(committed)
    }

    /// Makes map task `m`'s output readable by reducers: its per-partition
    /// charges and the node its partition files live on. Returns the
    /// task's total charge.
    fn publish_map_output(&self, m: usize, site: NodeId, partition_charges: &[u64]) -> u64 {
        for (p, &c) in partition_charges.iter().enumerate() {
            self.charges[m * self.spec.num_reducers + p].store(c, Ordering::Relaxed);
        }
        self.map_sites[m].store(site.0, Ordering::SeqCst);
        partition_charges.iter().sum()
    }

    /// Body of one map attempt: read split, map into partition buffers,
    /// then sort, frame and write each partition to the local store. Returns
    /// the per-partition extra charges; nothing globally visible is
    /// published here — that is the committer's job.
    fn map_body(
        &self,
        task: usize,
        node_id: NodeId,
        scratch: &Counters,
        span: &mut Span,
    ) -> Result<Vec<u64>> {
        let (cluster, spec, jid) = (self.cluster, self.spec, self.jid);
        let split = &self.splits[task];
        let node = cluster.node(node_id);
        let mut lap_at = Instant::now();
        let data = cluster.dfs().read_range_from(
            &split.path,
            split.offset,
            split.len,
            node_id,
            cluster.traffic(),
            &cluster.config().network,
        )?;
        span.add_bytes_in(data.len() as u64);
        let records = decode_raw_stream(data)?;
        span.add_records_in(records.len() as u64);
        span.lap("read", &mut lap_at);
        let mut partitions: Vec<Vec<RawRecord>> = vec![Vec::new(); spec.num_reducers];
        let mut ctx: MapContext<'_, M::KOut, M::VOut> = MapContext::new(
            &mut partitions,
            spec.partitioner.as_ref(),
            scratch,
            spec.store.as_deref(),
            span,
        );
        for raw in records {
            scratch.inc(builtin::MAP_INPUT_RECORDS);
            let k = M::KIn::from_bytes(raw.key)?;
            let v = M::VIn::from_bytes(raw.value)?;
            spec.mapper.map(k, v, &mut ctx)?;
        }
        let output_bytes = ctx.take_output_bytes();
        let moved_bytes = ctx.take_moved_bytes();
        let partition_charges = ctx.take_partition_charges();
        scratch.add(builtin::MAP_OUTPUT_BYTES, output_bytes);
        scratch.add(builtin::MAP_OUTPUT_MOVED_BYTES, moved_bytes);
        span.add_bytes_out(output_bytes);
        span.lap("map", &mut lap_at);

        // Sort each partition by key bytes, frame it, and write it to the
        // node-local store (charged against the node's storage capacity).
        for (p, part) in partitions.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            part.sort_by(|a, b| a.key.cmp(&b.key));
            let mut buf = BytesMut::new();
            for rec in part.iter() {
                rec.write_framed(&mut buf);
            }
            scratch.add(builtin::SPILLED_RECORDS, part.len() as u64);
            span.add_records_out(part.len() as u64);
            node.write_local(&format!("mr/{jid}/m/{task}/p/{p}"), buf.freeze())?;
        }
        span.lap("sort", &mut lap_at);
        Ok(partition_charges)
    }

    /// Body of one reduce attempt: shuffle (with lost-map recovery), sort,
    /// reduce. The output is returned, not written — the committer
    /// publishes it only for the winning attempt. `index` asks for the
    /// record offsets a written part needs.
    fn reduce_body(
        &self,
        task: usize,
        node_id: NodeId,
        index: bool,
        scratch: &Counters,
        span: &mut Span,
    ) -> Result<ReduceDone> {
        let (cluster, spec, jid) = (self.cluster, self.spec, self.jid);
        let mut lap_at = Instant::now();

        // Shuffle: fetch this task's partition from every map output's
        // committed site. Each transfer physically moves the partition file
        // but is *charged* the file plus the map task's extra charge for
        // this partition, so the paper's communication-cost series is
        // unchanged by id-only emits. A dead site (NodeDead — distinct
        // from NoSuchFile, which a live node returns for a genuinely empty
        // partition) triggers re-execution of the lost map task here.
        let mut records: Vec<RawRecord> = Vec::new();
        let mut fetched_bytes = 0u64;
        for m in 0..self.splits.len() {
            let name = format!("mr/{jid}/m/{m}/p/{task}");
            loop {
                let src = NodeId(self.map_sites[m].load(Ordering::SeqCst));
                match cluster.node(src).read_local(&name) {
                    Ok(data) => {
                        let moved = data.len() as u64;
                        let extra =
                            self.charges[m * spec.num_reducers + task].load(Ordering::Relaxed);
                        scratch.add(builtin::SHUFFLE_BYTES, moved + extra);
                        scratch.add(builtin::SHUFFLE_MOVED_BYTES, moved);
                        fetched_bytes += moved + extra;
                        cluster.traffic().record_with_charge(
                            &cluster.config().network,
                            src,
                            node_id,
                            moved,
                            moved + extra,
                        );
                        records.extend(decode_raw_stream(data)?);
                        break;
                    }
                    Err(ClusterError::NoSuchFile(_)) => break, // empty partition on a live node
                    Err(ClusterError::NodeDead(_)) => self.recover_map_output(m, node_id)?,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        span.add_bytes_in(fetched_bytes);
        span.add_records_in(records.len() as u64);
        span.record_value(hist::SHUFFLE_BYTES_PER_PARTITION, fetched_bytes);
        span.lap("shuffle", &mut lap_at);

        // Sort (stable, so value order within a key is deterministic).
        records.sort_by(|a, b| a.key.cmp(&b.key));
        span.lap("sort", &mut lap_at);

        // Reduce each group under the working-set memory budget.
        let (on, od) = spec.memory_overhead;
        let gauge = MemoryGauge::new(cluster.config().node.task_memory_budget)
            .with_overhead_factor(on.max(od), od.max(1));
        let (mut out, store) = (BytesMut::new(), spec.store.as_deref());
        let mut offsets = index.then(Vec::new);
        let mut i = 0;
        while i < records.len() {
            let mut j = i + 1;
            while j < records.len() && records[j].key == records[i].key {
                j += 1;
            }
            let group_bytes: u64 = records[i..j].iter().map(|r| r.framed_len() as u64).sum();
            gauge.try_reserve(group_bytes)?;
            scratch.inc(builtin::REDUCE_INPUT_GROUPS);
            scratch.add(builtin::REDUCE_INPUT_RECORDS, (j - i) as u64);
            span.record_value(hist::GROUP_SIZE, (j - i) as u64);
            let key = R::KIn::from_bytes(records[i].key.clone())?;
            let values: Values<'_, R::VIn> = Values::new(&records[i..j]);
            let mut ctx: ReduceContext<'_, R::KOut, R::VOut> =
                ReduceContext::new(&mut out, offsets.as_mut(), scratch, store, &gauge, span);
            spec.reducer.reduce(key, values, &mut ctx)?;
            gauge.release(group_bytes);
            i = j;
        }
        scratch.record_max(WS_PEAK_COUNTER, gauge.peak());
        span.record_peak_working_set(gauge.peak());
        span.lap("reduce", &mut lap_at);

        scratch.add(builtin::REDUCE_OUTPUT_BYTES, out.len() as u64);
        span.add_bytes_out(out.len() as u64);
        span.add_records_out(scratch.get(builtin::REDUCE_OUTPUT_RECORDS));
        Ok(ReduceDone { out: out.freeze(), offsets, lap_at })
    }

    /// Publishes a winning reduce attempt of a job without a sink: its DFS
    /// part file. Only the winner touches the output path, so a losing
    /// sibling can never clobber or merge into committed output; the
    /// delete keeps re-running a whole job over the same output directory
    /// idempotent.
    fn write_part(&self, task: usize, mut done: ReduceDone, span: &mut Span) -> Result<()> {
        let path = part_path(&self.spec.output, task);
        self.cluster.dfs().delete(&path);
        self.cluster.dfs().create_with_records(&path, done.out, done.offsets)?;
        span.lap("write", &mut done.lap_at);
        Ok(())
    }

    /// Re-executes a committed map task whose output died with its node
    /// (Dean–Ghemawat recovery), on the calling reducer's node.
    ///
    /// The re-run's counters are discarded — the original commit already
    /// counted the logical work — but its input re-read and the local
    /// rewrite of the partition files are real recovery costs and are
    /// charged through the traffic accountant and storage ledgers. The
    /// per-partition charges it republishes are a deterministic function
    /// of the task, so the idempotent `store` leaves them unchanged.
    fn recover_map_output(&self, m: usize, me: NodeId) -> Result<()> {
        let cluster = self.cluster;
        let _serialized = self.recovery[m].lock();
        let site = NodeId(self.map_sites[m].load(Ordering::SeqCst));
        if cluster.is_alive(site) {
            return Ok(()); // another reducer recovered it while we waited
        }
        if !cluster.is_alive(me) {
            return Err(ClusterError::NodeDead(me).into());
        }
        self.counters.inc(builtin::MAP_RERUNS);
        let rerun_started = Instant::now();
        self.map_board.next_attempt[m].fetch_add(1, Ordering::SeqCst);
        let partition_charges = self.map_body(m, me, &Counters::new(), &mut Span::default())?;
        self.publish_map_output(m, me, &partition_charges);
        // Emitted after the re-run so the event carries its measured
        // duration — the critical-path analyzer attributes this window
        // of the recovering reducer's shuffle to recovery.
        cluster.telemetry().event(
            "map.rerun",
            me.0,
            rerun_started.elapsed().as_micros() as u64,
            format!("map task {m} re-run on {me}: committed output was lost with {site}"),
        );
        Ok(())
    }
}
