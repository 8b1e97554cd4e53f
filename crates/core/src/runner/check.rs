//! [`PairwiseRun::check`]: the run's bookkeeping laws, each stated once.

use pmr_mapreduce::builtin::{
    FAILED_ATTEMPTS, MAP_INPUT_RECORDS, MAP_OUTPUT_BYTES, MAP_OUTPUT_MOVED_BYTES,
    MAP_OUTPUT_RECORDS, MAP_TASK_ATTEMPTS, REDUCE_INPUT_RECORDS, REDUCE_OUTPUT_RECORDS,
    REDUCE_TASK_ATTEMPTS, SHUFFLE_BYTES, SHUFFLE_MOVED_BYTES, SPILLED_RECORDS,
};
use pmr_mapreduce::JobOutput;
use pmr_obs::{hist, RunEvent, TaskSpan};

use crate::runner::mr::{EVALUATIONS_COUNTER, FUSED_CHARGED_SHUFFLE_COUNTER, PART_CONSUME_EVENT};
use crate::runner::PairwiseRun;

/// Returns the formatted failure from the enclosing function unless the
/// law holds.
macro_rules! law {
    ($holds:expr, $($failure:tt)+) => {
        if !$holds {
            return Err(format!($($failure)+));
        }
    };
}

fn counter(job: &JobOutput, name: &str) -> u64 {
    job.counters.get(name).copied().unwrap_or(0)
}

impl<R> PairwiseRun<R> {
    /// Checks the run's conservation laws and returns the first that
    /// fails. The report, the MR jobs' counters and the transport's wire
    /// bytes observe the run independently, so a failed law is a bug in
    /// one of them. Laws over phases, spans, histograms and events need
    /// telemetry and are skipped when the run's sink recorded none.
    pub fn check(&self) -> Result<(), String> {
        let r = &self.report;
        let jobs: Vec<&JobOutput> =
            self.mr.iter().flat_map(|m| std::iter::once(&m.job1).chain(&m.job2)).collect();
        for job in &jobs {
            let (spilled, written) =
                (counter(job, SPILLED_RECORDS), counter(job, MAP_OUTPUT_RECORDS));
            law!(spilled == written, "{spilled} records spilled, {written} written");
        }
        // The within-run charge law: the shuffle job 1 books for job 2 is
        // what job 2 charges.
        for m in &self.mr {
            if let Some(job2) = &m.job2 {
                let booked = counter(&m.job1, FUSED_CHARGED_SHUFFLE_COUNTER);
                let charged = counter(job2, SHUFFLE_BYTES);
                law!(
                    booked == charged,
                    "job 1 booked {booked} B for job 2, job 2 charged {charged} B"
                );
            }
        }
        if let Some(p) = &r.pruning {
            let (pruned, evaluated, candidates) = (p.pruned, p.evaluated, p.candidates);
            law!(pruned + evaluated == candidates, "{pruned} + {evaluated} != {candidates} pairs");
        }
        for m in self.mr.iter().filter(|m| m.transport == "process") {
            // Crash recovery and backups may move bytes no counter books.
            let healthy = m.node_crashes == 0 && m.speculative_launched == 0;
            let moved =
                |name| counter(&m.job1, name) + m.job2.as_ref().map_or(0, |j| counter(j, name));
            let pairs = [
                (m.wire.shuffle_bytes, moved(SHUFFLE_MOVED_BYTES)),
                (m.wire.map_output_bytes, moved(MAP_OUTPUT_MOVED_BYTES)),
            ];
            for (wire, moved) in pairs {
                law!(wire == moved || (!healthy && wire > moved), "{wire} B wire, {moved} B moved");
            }
        }

        // Every traced run opens its first phase at entry.
        let (phases, wall) = (&r.job_phases, r.wall_time_us);
        if phases.is_empty() {
            return Ok(());
        }
        for w in phases.windows(2) {
            law!(w[1].start_us == w[0].end_us, "a gap between phases {:?} and {:?}", w[0], w[1]);
        }
        let total: u64 = phases.iter().map(|p| p.end_us.saturating_sub(p.start_us)).sum();
        law!(total == wall, "phases sum to {total} µs, wall {wall} µs");
        for n in &r.node_timelines {
            law!(n.busy_us + n.idle_us == wall, "{n:?} against wall {wall} µs");
        }
        for (histogram, name) in [
            (hist::EVALUATIONS_PER_TASK, EVALUATIONS_COUNTER),
            (hist::SHUFFLE_BYTES_PER_PARTITION, SHUFFLE_BYTES),
            (hist::GROUP_SIZE, REDUCE_INPUT_RECORDS),
        ] {
            if let Some((_, h)) = r.histograms.iter().find(|(n, _)| n == histogram) {
                let counted = r.counter(name).unwrap_or(0);
                law!(h.sum == counted, "{histogram} sums to {}, {name} is {counted}", h.sum);
            }
        }

        // The engine's jobs open `setup` in the order the MR reports list
        // them; a sink that saw none of them skips the span laws.
        let names: Vec<&str> =
            phases.iter().filter(|p| p.phase == "setup").map(|p| p.job.as_str()).collect();
        if names.is_empty() {
            return Ok(());
        }
        law!(names.len() == jobs.len(), "{} traced jobs, {} ran", names.len(), jobs.len());
        for (name, job) in names.iter().zip(&jobs) {
            let sum = |kind: &str, field: fn(&TaskSpan) -> u64| -> u64 {
                r.task_spans.iter().filter(|s| s.job == *name && s.kind == kind).map(field).sum()
            };
            for (spans, key) in [
                (sum("reduce", |s| s.bytes_in), SHUFFLE_BYTES),
                (sum("map", |s| s.bytes_out), MAP_OUTPUT_BYTES),
                (sum("map", |s| s.records_in), MAP_INPUT_RECORDS),
                (sum("reduce", |s| s.records_in), REDUCE_INPUT_RECORDS),
                (sum("reduce", |s| s.records_out), REDUCE_OUTPUT_RECORDS),
            ] {
                let counted = counter(job, key);
                law!(spans == counted, "{name}: the spans sum to {spans}, {key} is {counted}");
            }
        }
        // Each attempt the engine starts past its failure injector opens a
        // span, which either commits or is cancelled.
        let started: u64 = jobs
            .iter()
            .map(|j| {
                counter(j, MAP_TASK_ATTEMPTS) + counter(j, REDUCE_TASK_ATTEMPTS)
                    - counter(j, FAILED_ATTEMPTS)
            })
            .sum();
        let spans = r.task_spans.iter().filter(|s| matches!(s.kind, "map" | "reduce")).count();
        let cancels = r.events.iter().filter(|e| e.kind == RunEvent::TASK_CANCEL).count();
        law!(
            (spans + cancels) as u64 == started,
            "{spans} spans and {cancels} cancelled attempts for {started} started attempts"
        );
        // The driver takes each part of every run's last job as it commits.
        let parts: usize =
            self.mr.iter().map(|m| m.job2.as_ref().unwrap_or(&m.job1).stats.reduce_tasks).sum();
        let consumed = r.events.iter().filter(|e| e.kind == PART_CONSUME_EVENT).count();
        law!(consumed == parts, "{consumed} parts consumed of {parts}");
        Ok(())
    }
}
