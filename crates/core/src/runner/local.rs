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
//! pair vector) — under a generating [`PairFilter`], a task's candidates
//! instead — into L1-sized tiles evaluated by a [`BatchComp`] kernel; a
//! [`CompFn`](crate::runner::CompFn) is a kernel whose tiles run the
//! scalar loop, so results are bit-for-bit the same on both paths.

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::Mutex;
use pmr_mapreduce::MrError;
use pmr_obs::{hist, SpanKind, Telemetry};

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::kernel::{evaluate_tiled, BatchComp, Pairs, SlotIndex};
use crate::runner::place::{finish_rows, place, places_rows, PlacedRow};
use crate::runner::{
    aggregate_all, aggregation_rule, Accumulator, Aggregator, DecomposableAggregator,
    PairwiseOutput, Symmetry,
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

impl LocalRunStats {
    /// Folds another task's or worker's statistics into these.
    pub(crate) fn absorb(&mut self, other: LocalRunStats) {
        self.tasks += other.tasks;
        self.evaluations += other.evaluations;
        self.max_working_set = self.max_working_set.max(other.max_working_set);
        if let Some(p) = other.pruning {
            self.pruning.get_or_insert_with(Default::default).absorb(p);
        }
    }
}

/// Evaluates all pairs of `payloads` under `scheme` on `threads` worker
/// threads. Element `i` has id `i`; `payloads.len()` must equal
/// `scheme.v()`. A [`CompFn`](crate::runner::CompFn) is a kernel, so
/// `&comp` works as well as a batched [`BatchComp`].
///
/// # Panics
///
/// If the scheme enumerates a pair twice or misses one while its
/// `num_pairs` add up to every pair (see [`PairwiseJob`], which returns
/// that as an error).
///
/// [`PairwiseJob`]: crate::runner::PairwiseJob
pub fn run_local<T, R>(
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

/// Per-worker state: dense per-element accumulators the worker folds into
/// across all its tasks, or — when the run places rows — one task's
/// staged results.
enum WorkerData<R> {
    Folded {
        /// `accs[id]` is element `id`'s accumulator for this worker.
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
/// each task becomes a [`SpanKind::Task`] span (node = worker index). The
/// run's phases are job `"local"`'s: the caller opens `evaluate`, and the
/// runner hands over to `aggregate` once every task has run.
///
/// Results are collected under `dec` — the aggregator's decomposable form
/// on a fused run, otherwise [`ConcatSort`](crate::runner::ConcatSort)
/// followed by the aggregator once per finished row (the one aggregation
/// rule, `runner::aggregation_rule`). When `dec` places rows
/// (`runner::place`), each task stages its results by working-set slot
/// and copies them, one row lock per touched element, into the exact-size
/// rows at task end; otherwise each worker folds into accumulators of
/// `dec` at the tile flush, merged at commit. A [`PairFilter`]
/// gates each task's pairs below enumeration (generating them where it
/// can), and the prune tallies land in [`LocalRunStats::pruning`].
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
    // `then` is the aggregator still to run over each finished row.
    let (dec, then) = aggregation_rule(aggregator, fuse);
    let placed = places_rows(dec, filter.is_some(), scheme);
    // `rows[id]` is element `id`'s output row; only a placed run has them.
    let rows: Vec<Mutex<Option<PlacedRow<R>>>> =
        if placed { (0..v).map(|_| Mutex::new(None)).collect() } else { Vec::new() };
    // Never spawn more workers than tasks: a surplus worker would only
    // scan empty deques and exit, so don't pay its spawn either.
    let workers = threads.max(1).min(num_tasks.max(1) as usize);
    let deques = seed_deques(scheme, workers);

    struct WorkerResult<R> {
        data: WorkerData<R>,
        stats: LocalRunStats,
        /// The first placement error; the worker stops at it.
        error: Option<String>,
    }

    // Each worker accumulates privately; merge after the scope ends.
    let results: Vec<WorkerResult<R>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (deques, rows) = (&deques, &rows);
                scope.spawn(move |_| {
                    let data = if placed {
                        WorkerData::Placed { stage: Vec::new() }
                    } else {
                        WorkerData::Folded { accs: (0..v as u64).map(|id| dec.init(id)).collect() }
                    };
                    let mut res =
                        WorkerResult { data, stats: LocalRunStats::default(), error: None };
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
                        span.add_records_in(ws.len() as u64);
                        let resolve = |id: u64| &payloads[id as usize];
                        let pairs = || Pairs::Task { scheme, task: t, working_set: &ws };
                        let (task_evals, task_prune) = match &mut res.data {
                            WorkerData::Placed { stage } => {
                                let index = SlotIndex::new(&ws);
                                if stage.len() < ws.len() {
                                    stage.resize_with(ws.len(), Vec::new);
                                }
                                let out = evaluate_tiled(
                                    kernel,
                                    symmetry,
                                    filter,
                                    resolve,
                                    pairs(),
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
                                out
                            }
                            WorkerData::Folded { accs } => evaluate_tiled(
                                kernel,
                                symmetry,
                                filter,
                                resolve,
                                pairs(),
                                |a, b, rf, rr| {
                                    let rb = rr.unwrap_or_else(|| rf.clone());
                                    dec.fold(&mut accs[a as usize], b, rf);
                                    dec.fold(&mut accs[b as usize], a, rb);
                                },
                            ),
                        };
                        res.stats.absorb(LocalRunStats {
                            tasks: 1,
                            evaluations: task_evals,
                            max_working_set: ws.len() as u64,
                            // Counter hygiene: only a filtered run reports
                            // pruning tallies.
                            pruning: filter.map(|_| task_prune),
                        });
                        span.lap("evaluate", &mut lap_at);
                        span.record_value(hist::EVALUATIONS_PER_TASK, task_evals);
                    }
                    res
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
    .expect("thread scope failed");
    if let Some(err) = results.iter().find_map(|res| res.error.as_ref()) {
        return Err(MrError::InvalidJob(format!("placed rows: {err}")));
    }
    telemetry.job_phase("local", "aggregate");

    let mut stats =
        LocalRunStats { pruning: filter.map(|_| PruneStats::default()), ..Default::default() };
    let mut worker_accs: Vec<Vec<Accumulator<R>>> = Vec::with_capacity(results.len());
    for res in results {
        stats.absorb(res.stats);
        if let WorkerData::Folded { accs } = res.data {
            worker_accs.push(accs);
        }
    }
    debug_assert_eq!(stats.tasks, num_tasks, "every task runs exactly once");
    let out = if placed {
        let out = finish_rows(rows.into_iter().map(Mutex::into_inner), v as u64)
            .map_err(|err| MrError::InvalidJob(format!("placed rows: {err}")))?;
        match then {
            None => out,
            Some(agg) => finish_in_parallel(out.per_element, threads, |id, (_, row)| {
                aggregate_all(agg, id, row)
            }),
        }
    } else {
        let accs = merge_workers(worker_accs, dec);
        finish_in_parallel(accs, threads, |id, acc| {
            let row = dec.finish(acc);
            match then {
                None => row,
                Some(agg) => aggregate_all(agg, id, row),
            }
        })
    };
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

/// Merges the per-worker accumulator vectors into the first, in worker
/// order. Merge order is irrelevant to the output — that is exactly the
/// decomposability law the aggregator advertises — so the result is
/// byte-identical across thread counts.
fn merge_workers<R>(
    worker_accs: Vec<Vec<Accumulator<R>>>,
    dec: &dyn DecomposableAggregator<R>,
) -> Vec<Accumulator<R>> {
    let mut workers = worker_accs.into_iter();
    let mut base = workers.next().unwrap_or_default();
    for accs in workers {
        for (acc, other) in base.iter_mut().zip(accs) {
            if !other.is_empty() {
                dec.merge(acc, other);
            }
        }
    }
    base
}

/// Turns each element's item (`items[id]`) into its finished row with
/// `finish(id, item)`, in parallel over contiguous id ranges.
fn finish_in_parallel<X: Send, R: Send>(
    items: Vec<X>,
    threads: usize,
    finish: impl Fn(u64, X) -> Vec<(u64, R)> + Sync,
) -> PairwiseOutput<R> {
    let v = items.len();
    if v == 0 {
        return PairwiseOutput { per_element: Vec::new() };
    }
    let mut slots: Vec<Option<X>> = items.into_iter().map(Some).collect();
    let mut per_element: Vec<(u64, Vec<(u64, R)>)> =
        (0..v as u64).map(|id| (id, Vec::new())).collect();
    // More finishing threads than hardware threads only adds context
    // switches (unlike the eval workers, no telemetry references these).
    let hw = std::thread::available_parallelism().map_or(threads, |p| p.get());
    let chunk = v.div_ceil(threads.max(1).min(hw).min(v));
    let finish = &finish;
    crossbeam::thread::scope(|scope| {
        for (in_chunk, out_chunk) in slots.chunks_mut(chunk).zip(per_element.chunks_mut(chunk)) {
            scope.spawn(move |_| {
                for (slot, out) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    out.1 = finish(out.0, slot.take().expect("element finished twice"));
                }
            });
        }
    })
    .expect("finish scope failed");
    PairwiseOutput { per_element }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sequential::run_sequential;
    use crate::runner::{comp_fn, CompFn, ConcatSort};
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
        let (batched, stats) = run_local(&data, &s, &AbsDiff, Symmetry::Symmetric, &ConcatSort, 4);
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
        // Semantically identical to ConcatSort but hides decomposability, so
        // the runner gathers every partial and aggregates each row once.
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
