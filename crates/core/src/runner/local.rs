//! Multi-threaded shared-memory execution of a distribution scheme.
//!
//! This is the backend a downstream user runs on one machine: the scheme's
//! tasks are the units of parallelism (exactly the paper's step 2, "perform
//! pairwise element computation on all subsets in parallel"); the
//! per-element partial results are merged and aggregated afterwards
//! (step 3).
//!
//! ## Scheduling
//!
//! Tasks are seeded **longest-first** (by `num_pairs`, descending — in the
//! block scheme diagonal blocks carry ~half the pairs of off-diagonal
//! ones) round-robin into per-worker deques. A worker pops from the front
//! of its own deque and, when empty, steals from the *back* of the other
//! deques — the victim keeps its large front tasks, the thief drains the
//! small tail, and tail latency stays bounded by one task instead of one
//! queue. No task is ever spawned mid-phase, so a failed steal scan means
//! the phase is draining and the worker exits immediately: surplus workers
//! (`threads > tasks` never even spawn — the pool is clamped) neither spin
//! nor sleep.
//!
//! ## Evaluation
//!
//! Pairs are streamed via `DistributionScheme::for_each_pair` (no per-task
//! pair vector) into L1-sized tiles evaluated by a [`BatchComp`] kernel;
//! the [`CompFn`] entry point wraps the comp in a [`ScalarComp`], which
//! evaluates tiles with the identical per-pair arithmetic — results are
//! bit-for-bit the same on both paths.

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::Mutex;
use pmr_mapreduce::MrError;
use pmr_obs::{hist, SpanKind, Telemetry};

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::kernel::{evaluate_tiled, evaluate_tiled_fused, BatchComp, ScalarComp};
use crate::runner::mr::SlotIndex;
use crate::runner::place::{finish_rows, place, places_rows, PlacedRow};
use crate::runner::{
    aggregate_all, Accumulator, Aggregator, CompFn, DecomposableAggregator, PairwiseOutput,
    Symmetry,
};
use crate::scheme::DistributionScheme;

/// Statistics from a local run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalRunStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Function evaluations performed (per direction for non-symmetric).
    pub evaluations: u64,
    /// Largest working set (elements) seen by any task.
    pub max_working_set: u64,
    /// Enumerated/pruned pair tallies — `Some` only when a
    /// [`PairFilter`] was active, mirroring the counter-hygiene rule.
    pub pruning: Option<PruneStats>,
}

/// Evaluates all pairs of `payloads` under `scheme` on `threads` worker
/// threads. Element `i` has id `i`; `payloads.len()` must equal
/// `scheme.v()`.
pub fn run_local<T, R>(
    payloads: &[T],
    scheme: &dyn DistributionScheme,
    comp: &CompFn<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    threads: usize,
) -> (PairwiseOutput<R>, LocalRunStats)
where
    T: Sync,
    R: Clone + Send,
{
    let kernel = ScalarComp::new(comp.clone());
    run_local_kernel(payloads, scheme, &kernel, symmetry, aggregator, threads)
}

/// [`run_local`] evaluating through a batch kernel instead of a scalar
/// [`CompFn`] — the fast path for comps with a vectorized form.
///
/// # Panics
///
/// If the scheme enumerates a pair twice or misses one while its
/// `num_pairs` add up to every pair (see [`PairwiseJob`], which returns
/// that as an error).
///
/// [`PairwiseJob`]: crate::runner::PairwiseJob
pub fn run_local_kernel<T, R>(
    payloads: &[T],
    scheme: &dyn DistributionScheme,
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    threads: usize,
) -> (PairwiseOutput<R>, LocalRunStats)
where
    T: Sync,
    R: Clone + Send,
{
    run_local_impl(
        payloads,
        scheme,
        kernel,
        symmetry,
        aggregator,
        threads,
        true,
        None,
        &Telemetry::disabled(),
    )
    .unwrap_or_else(|err| panic!("{err}"))
}

/// Seeds per-worker deques longest-task-first, round-robin: sorting by
/// descending `num_pairs` (stable, so ties keep ascending task order)
/// starts the heavy tasks everywhere at once.
fn seed_deques(scheme: &dyn DistributionScheme, workers: usize) -> Vec<Mutex<VecDeque<u64>>> {
    let mut order: Vec<u64> = (0..scheme.num_tasks()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(scheme.num_pairs(t)));
    let deques: Vec<Mutex<VecDeque<u64>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, &t) in order.iter().enumerate() {
        deques[i % workers].lock().push_back(t);
    }
    deques
}

/// Per-worker emission state: flat result triples for the general path,
/// per-element accumulators when the aggregator is decomposable and the
/// run is fused (results fold in-tile; the commit merges accumulators
/// instead of scatter-filling rows), or one task's staged results when the
/// run places rows.
enum WorkerData<R> {
    Flat {
        /// Result triples, appended sequentially — the cheap emit layout;
        /// grouping by element happens once, in the aggregate phase. For a
        /// symmetric comp one `(a, b, r)` entry covers both directions;
        /// for a non-symmetric comp each direction gets its own
        /// `(with, other, r)` entry.
        emitted: Vec<(u64, u64, R)>,
        /// Per-element row sizes this worker contributes — counted during
        /// emission (the array is L1-resident) so the merge can size every
        /// row exactly without re-scanning the emit buffers.
        counts: Vec<usize>,
    },
    Fused {
        /// Dense per-element accumulators this worker folds into across
        /// all its tasks.
        accs: Vec<Accumulator<R>>,
    },
    Placed {
        /// `stage[slot]` holds the current task's `(other, result)` entries
        /// for the working set's `slot`-th element until the task ends and
        /// copies them into their rows; the buffers are reused across tasks.
        stage: Vec<Vec<(u64, R)>>,
    },
}

/// The heart of the runner, shared with [`PairwiseJob`](crate::runner::job):
/// each task becomes a [`SpanKind::Task`] span (node = worker index), and
/// the run's evaluate/aggregate windows are emitted as job phases of job
/// `"local"`. When the run places rows (`runner::place`), each task
/// stages its results by working-set slot and copies them, one row lock per
/// touched element, into the exact-size rows at task end. Otherwise, with
/// `fuse` set and a decomposable aggregator, per-pair results are folded
/// into per-worker accumulators at the tile flush and merged at commit; and
/// failing that the flat emit + scatter path runs. A [`PairFilter`] gates
/// the pair stream below enumeration: pruned pairs never enter a tile, and
/// the enumerated/pruned tallies land in [`LocalRunStats::pruning`].
///
/// A pair enumerated twice or never, on a placed run, is an
/// [`MrError::InvalidJob`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local_impl<T, R>(
    payloads: &[T],
    scheme: &dyn DistributionScheme,
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    threads: usize,
    fuse: bool,
    filter: Option<&dyn PairFilter>,
    telemetry: &Telemetry,
) -> pmr_mapreduce::Result<(PairwiseOutput<R>, LocalRunStats)>
where
    T: Sync,
    R: Clone + Send,
{
    assert_eq!(payloads.len() as u64, scheme.v(), "payload count must match the scheme's v");
    let v = payloads.len();
    let num_tasks = scheme.num_tasks();
    let decomposable = if fuse { aggregator.decomposable() } else { None };
    let placed = places_rows(aggregator, fuse, filter.is_some(), scheme);
    // `rows[id]` is element `id`'s output row; only a placed run has them.
    let rows: Vec<Mutex<Option<PlacedRow<R>>>> =
        if placed { (0..v).map(|_| Mutex::new(None)).collect() } else { Vec::new() };
    // Never spawn more workers than tasks: a surplus worker would only
    // scan empty deques and exit, so don't pay its spawn either.
    let workers = threads.max(1).min(num_tasks.max(1) as usize);
    let deques = seed_deques(scheme, workers);

    struct WorkerResult<R> {
        data: WorkerData<R>,
        tasks: u64,
        evaluations: u64,
        max_working_set: u64,
        prune: PruneStats,
        /// The first placement error; the worker stops at it.
        error: Option<String>,
    }

    // Each worker accumulates privately; merge after the scope ends.
    let eval_phase = telemetry.job_phase("local", "evaluate");
    let results: Vec<WorkerResult<R>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (deques, rows) = (&deques, &rows);
                scope.spawn(move |_| {
                    let data = match decomposable {
                        Some(_) if placed => WorkerData::Placed { stage: Vec::new() },
                        Some(_) => WorkerData::Fused {
                            accs: (0..v as u64).map(|id| aggregator.init(id)).collect(),
                        },
                        None => WorkerData::Flat { emitted: Vec::new(), counts: vec![0; v] },
                    };
                    let mut res = WorkerResult {
                        data,
                        tasks: 0,
                        evaluations: 0,
                        max_working_set: 0,
                        prune: PruneStats::default(),
                        error: None,
                    };
                    loop {
                        // Pop-then-steal as separate statements: the own-
                        // deque guard must drop before any victim is
                        // locked, or two stealing workers can hold their
                        // own (empty) deques while waiting on each other.
                        let own = deques[w].lock().pop_front();
                        let t = own.or_else(|| {
                            (1..workers)
                                .find_map(|off| deques[(w + off) % workers].lock().pop_back())
                        });
                        // All deques empty: tasks still in flight elsewhere
                        // spawn no new work, so this worker is done.
                        let Some(t) = t else { break };
                        let mut span =
                            telemetry.span("local", SpanKind::Task, t as u32, 0, w as u32);
                        let mut lap_at = Instant::now();
                        let ws = scheme.working_set(t);
                        res.max_working_set = res.max_working_set.max(ws.len() as u64);
                        span.add_records_in(ws.len() as u64);
                        // The filter gates the pair stream below the
                        // scheme's enumeration: a pruned pair never enters
                        // a tile. With no filter the stream is handed over
                        // untouched — no per-pair branch, no tallies.
                        let mut task_prune = PruneStats::default();
                        let task_evals = match &mut res.data {
                            WorkerData::Placed { stage } => {
                                let index = SlotIndex::new(&ws);
                                if stage.len() < ws.len() {
                                    stage.resize_with(ws.len(), Vec::new);
                                }
                                let evals = evaluate_tiled(
                                    kernel,
                                    symmetry,
                                    |id| &payloads[id as usize],
                                    |f| scheme.for_each_pair(t, f),
                                    |a, b, rf, rr| {
                                        let rb = rr.unwrap_or_else(|| rf.clone());
                                        stage[index.slot(a)].push((b, rf));
                                        stage[index.slot(b)].push((a, rb));
                                    },
                                );
                                if let Err(err) = place_staged(rows, &ws, stage) {
                                    res.error = Some(err);
                                    break;
                                }
                                evals
                            }
                            WorkerData::Fused { accs } => evaluate_tiled_fused(
                                kernel,
                                symmetry,
                                |id| &payloads[id as usize],
                                |f| match filter {
                                    None => scheme.for_each_pair(t, f),
                                    Some(pf) => scheme.for_each_pair(t, &mut |a, b| {
                                        task_prune.candidates += 1;
                                        if pf.is_candidate(a, b) {
                                            f(a, b);
                                        } else {
                                            task_prune.pruned += 1;
                                        }
                                    }),
                                },
                                aggregator,
                                accs,
                            ),
                            WorkerData::Flat { emitted, counts } => {
                                let per_pair = match symmetry {
                                    Symmetry::Symmetric => 1,
                                    Symmetry::NonSymmetric => 2,
                                };
                                // Under a filter `num_pairs` is only an
                                // upper bound — let the emit vector grow
                                // instead of reserving for pruned pairs.
                                if filter.is_none() {
                                    emitted.reserve(per_pair * scheme.num_pairs(t) as usize);
                                }
                                evaluate_tiled(
                                    kernel,
                                    symmetry,
                                    |id| &payloads[id as usize],
                                    |f| match filter {
                                        None => scheme.for_each_pair(t, f),
                                        Some(pf) => scheme.for_each_pair(t, &mut |a, b| {
                                            task_prune.candidates += 1;
                                            if pf.is_candidate(a, b) {
                                                f(a, b);
                                            } else {
                                                task_prune.pruned += 1;
                                            }
                                        }),
                                    },
                                    |a, b, rf, rr| {
                                        counts[a as usize] += 1;
                                        counts[b as usize] += 1;
                                        let rev = rr.map(|rr| (b, a, rr));
                                        emitted.push((a, b, rf));
                                        if let Some(entry) = rev {
                                            emitted.push(entry);
                                        }
                                    },
                                )
                            }
                        };
                        res.tasks += 1;
                        res.evaluations += task_evals;
                        res.prune.absorb(task_prune);
                        span.lap("evaluate", &mut lap_at);
                        telemetry.record_value(hist::EVALUATIONS_PER_TASK, task_evals);
                    }
                    res
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
    .expect("thread scope failed");
    drop(eval_phase);
    if let Some(err) = results.iter().find_map(|res| res.error.as_ref()) {
        return Err(MrError::InvalidJob(format!("placed rows: {err}")));
    }
    let agg_phase = telemetry.job_phase("local", "aggregate");

    let mut stats = LocalRunStats::default();
    let mut prune_total = PruneStats::default();
    let mut emitted: Vec<Vec<(u64, u64, R)>> = Vec::with_capacity(results.len());
    let mut counts = vec![0usize; v];
    let mut worker_accs: Vec<Vec<Accumulator<R>>> = Vec::with_capacity(results.len());
    for res in results {
        stats.tasks += res.tasks;
        stats.evaluations += res.evaluations;
        stats.max_working_set = stats.max_working_set.max(res.max_working_set);
        prune_total.absorb(res.prune);
        match res.data {
            WorkerData::Flat { emitted: e, counts: wc } => {
                for (c, w) in counts.iter_mut().zip(&wc) {
                    *c += w;
                }
                emitted.push(e);
            }
            WorkerData::Fused { accs } => worker_accs.push(accs),
            WorkerData::Placed { .. } => {}
        }
    }
    debug_assert_eq!(stats.tasks, num_tasks, "every task runs exactly once");
    // Counter hygiene: only a filtered run reports pruning tallies, so an
    // unfiltered run's stats (and report) are unchanged by this feature.
    if filter.is_some() {
        stats.pruning = Some(prune_total);
    }
    let out = match decomposable {
        Some(_) if placed => finish_rows(rows.into_iter().map(Mutex::into_inner), v as u64)
            .map_err(|err| MrError::InvalidJob(format!("placed rows: {err}")))?,
        Some(dec) => merge_fused(worker_accs, dec, threads),
        None => merge_aggregate(emitted, counts, symmetry, aggregator, threads),
    };
    drop(agg_phase);
    Ok((out, stats))
}

/// Copies one task's staged results into their rows — one lock per touched
/// working-set element — leaving the stage empty for the next task.
fn place_staged<R: Clone>(
    rows: &[Mutex<Option<PlacedRow<R>>>],
    ws: &[u64],
    stage: &mut [Vec<(u64, R)>],
) -> Result<(), String> {
    let v = rows.len() as u64;
    for (&id, staged) in ws.iter().zip(stage.iter_mut()).filter(|(_, s)| !s.is_empty()) {
        place(&mut rows[id as usize].lock(), id, v, staged.drain(..))?;
    }
    Ok(())
}

/// Merges the per-worker accumulator vectors in worker order, then
/// finishes every element in parallel over contiguous id ranges. Merge
/// order is irrelevant to the output — that is exactly the decomposability
/// law the aggregator advertises — so the result is byte-identical across
/// thread counts and to the unfused path.
fn merge_fused<R: Clone + Send>(
    worker_accs: Vec<Vec<Accumulator<R>>>,
    dec: &dyn DecomposableAggregator<R>,
    threads: usize,
) -> PairwiseOutput<R> {
    let mut workers = worker_accs.into_iter();
    let Some(base) = workers.next() else {
        return PairwiseOutput { per_element: Vec::new() };
    };
    let mut slots: Vec<Option<Accumulator<R>>> = base.into_iter().map(Some).collect();
    for accs in workers {
        for (slot, other) in slots.iter_mut().zip(accs) {
            if !other.is_empty() {
                dec.merge(slot.as_mut().expect("slot taken during merge"), other);
            }
        }
    }
    let v = slots.len();
    if v == 0 {
        return PairwiseOutput { per_element: Vec::new() };
    }
    let mut per_element: Vec<(u64, Vec<(u64, R)>)> =
        (0..v as u64).map(|id| (id, Vec::new())).collect();
    let hw = std::thread::available_parallelism().map_or(threads, |p| p.get());
    let chunk = v.div_ceil(threads.max(1).min(hw).min(v));
    crossbeam::thread::scope(|scope| {
        for (acc_chunk, out_chunk) in slots.chunks_mut(chunk).zip(per_element.chunks_mut(chunk)) {
            scope.spawn(move |_| {
                for (slot, out) in acc_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    let acc = slot.take().expect("accumulator finished twice");
                    out.1 = dec.finish(acc);
                }
            });
        }
    })
    .expect("finish scope failed");
    PairwiseOutput { per_element }
}

/// Groups the workers' flat emissions into per-element rows sized exactly
/// from the worker-side `counts` (no `Vec` growth in the scatter), then
/// aggregates the rows in parallel over contiguous id ranges. A symmetric
/// entry `(a, b, r)` lands in both rows; a non-symmetric `(with, other, r)`
/// entry only in `with`'s. For each element the partials land in worker
/// order — exactly the order a sequential merge produces — and every
/// aggregator orders by the unique neighbor id, so the output is
/// byte-identical no matter which thread aggregates which range.
fn merge_aggregate<R: Clone + Send>(
    emitted: Vec<Vec<(u64, u64, R)>>,
    counts: Vec<usize>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    threads: usize,
) -> PairwiseOutput<R> {
    let v = counts.len();
    if v == 0 {
        return PairwiseOutput { per_element: Vec::new() };
    }
    let mut rows: Vec<Vec<(u64, R)>> = counts.into_iter().map(Vec::with_capacity).collect();
    for flat in emitted {
        for (a, b, r) in flat {
            match symmetry {
                Symmetry::Symmetric => {
                    rows[a as usize].push((b, r.clone()));
                    rows[b as usize].push((a, r));
                }
                Symmetry::NonSymmetric => rows[a as usize].push((b, r)),
            }
        }
    }

    // More aggregation threads than hardware threads only adds context
    // switches (unlike the eval workers, no telemetry references these).
    let hw = std::thread::available_parallelism().map_or(threads, |p| p.get());
    let chunk = v.div_ceil(threads.max(1).min(hw).min(v));
    crossbeam::thread::scope(|scope| {
        for (k, out_chunk) in rows.chunks_mut(chunk).enumerate() {
            scope.spawn(move |_| {
                for (i, row) in out_chunk.iter_mut().enumerate() {
                    let id = (k * chunk + i) as u64;
                    *row = aggregate_all(aggregator, id, std::mem::take(row));
                }
            });
        }
    })
    .expect("aggregate scope failed");
    PairwiseOutput {
        per_element: rows.into_iter().enumerate().map(|(id, r)| (id as u64, r)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sequential::run_sequential;
    use crate::runner::{comp_fn, ConcatSort};
    use crate::scheme::{BlockScheme, BroadcastScheme, DesignScheme};

    fn payloads(v: usize) -> Vec<i64> {
        (0..v as i64).map(|i| i * i % 97).collect()
    }

    fn comp() -> CompFn<i64, i64> {
        comp_fn(|a: &i64, b: &i64| (a - b).abs())
    }

    #[test]
    fn matches_sequential_for_all_schemes() {
        let data = payloads(40);
        let reference = run_sequential(&data, &comp(), Symmetry::Symmetric, &ConcatSort);
        let schemes: Vec<Box<dyn DistributionScheme>> = vec![
            Box::new(BroadcastScheme::new(40, 6)),
            Box::new(BlockScheme::new(40, 5)),
            Box::new(DesignScheme::new(40)),
        ];
        for s in &schemes {
            for threads in [1usize, 4] {
                let (out, stats) = run_local(
                    &data,
                    s.as_ref(),
                    &comp(),
                    Symmetry::Symmetric,
                    &ConcatSort,
                    threads,
                );
                assert_eq!(out, reference, "{} threads={threads}", s.name());
                assert_eq!(stats.evaluations, 40 * 39 / 2, "{}", s.name());
            }
        }
    }

    #[test]
    fn non_symmetric_matches_sequential() {
        let data = payloads(20);
        let comp: CompFn<i64, i64> = comp_fn(|a: &i64, b: &i64| a * 2 - b);
        let reference = run_sequential(&data, &comp, Symmetry::NonSymmetric, &ConcatSort);
        let s = BlockScheme::new(20, 4);
        let (out, stats) = run_local(&data, &s, &comp, Symmetry::NonSymmetric, &ConcatSort, 3);
        assert_eq!(out, reference);
        assert_eq!(stats.evaluations, 20 * 19);
    }

    #[test]
    fn stats_report_working_set() {
        let data = payloads(30);
        let s = BlockScheme::new(30, 5); // e = 6, ws ≤ 12
        let (_, stats) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &ConcatSort, 2);
        assert!(stats.max_working_set <= 12);
        assert_eq!(stats.tasks, 15);
    }

    #[test]
    fn more_threads_than_tasks() {
        // BlockScheme(10, 2) has 3 tasks; 16 requested workers must neither
        // spin nor break coverage — the pool clamps to the task count.
        let data = payloads(10);
        let reference = run_sequential(&data, &comp(), Symmetry::Symmetric, &ConcatSort);
        let s = BlockScheme::new(10, 2);
        let (out, stats) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &ConcatSort, 16);
        assert_eq!(out, reference);
        assert_eq!(stats.tasks, 3);
    }

    #[test]
    fn kernel_path_matches_scalar_path() {
        struct AbsDiff;
        impl BatchComp<i64, i64> for AbsDiff {
            fn eval(&self, a: &i64, b: &i64) -> i64 {
                (a - b).abs()
            }
            fn name(&self) -> &'static str {
                "absdiff"
            }
        }
        let data = payloads(50);
        let s = BlockScheme::new(50, 4);
        let (scalar, _) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &ConcatSort, 4);
        let (batched, stats) =
            run_local_kernel(&data, &s, &AbsDiff, Symmetry::Symmetric, &ConcatSort, 4);
        assert_eq!(batched, scalar);
        assert_eq!(stats.evaluations, 50 * 49 / 2);
    }

    #[test]
    fn longest_first_seeding_orders_by_pairs() {
        let s = BlockScheme::new(40, 4); // off-diag 100 pairs, diag 45
        let deques = seed_deques(&s, 2);
        let first_of_0 = *deques[0].lock().front().unwrap();
        let first_of_1 = *deques[1].lock().front().unwrap();
        assert_eq!(s.num_pairs(first_of_0), 100);
        assert_eq!(s.num_pairs(first_of_1), 100);
        // Every task seeded exactly once.
        let mut all: Vec<u64> =
            deques.iter().flat_map(|d| d.lock().iter().copied().collect::<Vec<_>>()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..s.num_tasks()).collect::<Vec<_>>());
    }

    #[test]
    fn fused_path_matches_unfused_and_sequential() {
        use crate::runner::{aggregate_all, FilterAggregator, FnAggregator, TopKAggregator};
        let data = payloads(40);
        let s = BlockScheme::new(40, 5);
        // Semantically identical to ConcatSort but hides decomposability,
        // forcing the flat scatter path for a direct comparison.
        let unfused = FnAggregator::new(|id, partials| aggregate_all(&ConcatSort, id, partials));
        let reference = run_sequential(&data, &comp(), Symmetry::Symmetric, &ConcatSort);
        for threads in [1usize, 4] {
            let (fused, _) =
                run_local(&data, &s, &comp(), Symmetry::Symmetric, &ConcatSort, threads);
            let (flat, _) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &unfused, threads);
            assert_eq!(fused, reference, "fused threads={threads}");
            assert_eq!(flat, reference, "unfused threads={threads}");
        }
        // Filter and top-k fuse too, and still match the sequential path.
        let filter = FilterAggregator::new(|r: &i64| *r < 10);
        let topk = TopKAggregator::new(3, |r: &i64| *r as f64);
        let (f_local, _) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &filter, 4);
        assert_eq!(f_local, run_sequential(&data, &comp(), Symmetry::Symmetric, &filter));
        let (k_local, _) = run_local(&data, &s, &comp(), Symmetry::Symmetric, &topk, 4);
        assert_eq!(k_local, run_sequential(&data, &comp(), Symmetry::Symmetric, &topk));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_payload_count_rejected() {
        let s = BlockScheme::new(10, 2);
        let _ = run_local(&payloads(9), &s, &comp(), Symmetry::Symmetric, &ConcatSort, 1);
    }
}
