//! Post-hoc analysis over a [`RunReport`]: critical-path extraction,
//! skew/straggler diagnosis, and run-to-run comparison.
//!
//! # Critical path
//!
//! The engine runs phases and jobs back-to-back (barriers between map
//! and reduce, and between chained jobs), so the task DAG of a run has
//! two edge families:
//!
//! * **stage edges** — every task of stage *k* (a `(job, kind)` group)
//!   depends on all tasks of stage *k−1*; the binding predecessor is the
//!   one that finished last;
//! * **slot edges** — tasks serialized on the same node's worker slots;
//!   the binding predecessor is the latest same-node task that finished
//!   before this one started.
//!
//! [`CriticalPath::from_report`] walks backwards from the last-finishing
//! task, at each step following the binding predecessor (the candidate
//! with the greatest end time among both families). The resulting chain
//! is contiguous in the sense that `duration = last.end − first.start =
//! Σ task time + Σ wait`, which is ≤ the makespan by construction and
//! equals it when every task is serialized (single node, one slot).
//! Per-segment time is attributed to *shuffle* (the reduce shuffle lap),
//! *recovery* (timed `map.rerun` run events that ran inside the
//! segment's window on its node), *compute* (everything else inside the
//! task), and *wait* (the gap to the binding predecessor).

use crate::report::RunReport;
use crate::telemetry::TaskSpan;

/// One task on the critical path, with its time attribution.
#[derive(Debug, Clone)]
pub struct CriticalPathSegment {
    /// Job the task belongs to.
    pub job: String,
    /// Task kind ("map" / "reduce" / "task").
    pub kind: &'static str,
    /// Task index.
    pub task: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: u32,
    /// Task start, µs since the telemetry epoch.
    pub start_us: u64,
    /// Task end, µs since the telemetry epoch.
    pub end_us: u64,
    /// Gap between the binding predecessor's end and this task's start
    /// (0 for the chain head).
    pub wait_us: u64,
    /// Time in non-shuffle task phases (plus unattributed overhead).
    pub compute_us: u64,
    /// Time in the shuffle phase, net of recovery.
    pub shuffle_us: u64,
    /// Time spent re-running lost map work inside this task's window.
    pub recovery_us: u64,
    /// Edge to the binding predecessor: "start" (chain head), "stage"
    /// (previous-stage barrier), or "slot" (same-node serialization).
    pub edge: &'static str,
}

impl CriticalPathSegment {
    /// The task's own wall time (excludes `wait_us`).
    pub fn span_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The makespan-bounding chain of a run.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// `max end − min start` over all task spans.
    pub makespan_us: u64,
    /// `last.end − first.start` over the chain; ≤ `makespan_us`.
    pub duration_us: u64,
    /// Chain start, µs since the telemetry epoch.
    pub start_us: u64,
    /// Chain end, µs since the telemetry epoch.
    pub end_us: u64,
    /// The chain, earliest task first.
    pub segments: Vec<CriticalPathSegment>,
    /// Total compute time along the chain.
    pub compute_us: u64,
    /// Total shuffle time along the chain.
    pub shuffle_us: u64,
    /// Total recovery time along the chain.
    pub recovery_us: u64,
    /// Total wait time along the chain.
    pub wait_us: u64,
}

impl CriticalPath {
    /// Extracts the critical path from a report's task spans and events
    /// (None when the report has no spans).
    pub fn from_report(r: &RunReport) -> Option<CriticalPath> {
        let spans = &r.task_spans;
        if spans.is_empty() {
            return None;
        }
        let min_start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let max_end = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        let makespan_us = max_end.saturating_sub(min_start);

        // Stage index of each span: (job, kind) groups ordered by their
        // earliest start. Chained jobs and the map→reduce barrier both
        // fall out of this ordering.
        let mut stages: Vec<(&str, &str, u64)> = Vec::new();
        for s in spans {
            match stages.iter_mut().find(|(j, k, _)| *j == s.job && *k == s.kind) {
                Some(slot) => slot.2 = slot.2.min(s.start_us),
                None => stages.push((&s.job, s.kind, s.start_us)),
            }
        }
        stages.sort_by_key(|&(_, _, start)| start);
        let stage_of = |s: &TaskSpan| -> usize {
            stages.iter().position(|(j, k, _)| *j == s.job && *k == s.kind).unwrap_or(0)
        };

        // Walk back from the last-finishing span.
        let mut cur = spans.iter().max_by_key(|s| (s.end_us, s.start_us))?;
        let mut chain: Vec<(&TaskSpan, &'static str, u64)> = Vec::new(); // (span, edge, wait)
        let mut edge: &'static str = "start";
        let mut wait = 0u64;
        loop {
            chain.push((cur, edge, wait));
            let cur_stage = stage_of(cur);
            let pred = spans
                .iter()
                .filter(|p| p.end_us <= cur.start_us && p.start_us < cur.start_us)
                .filter(|p| p.node == cur.node || stage_of(p) + 1 == cur_stage)
                .max_by_key(|p| (p.end_us, p.start_us));
            match pred {
                Some(p) => {
                    wait = cur.start_us.saturating_sub(p.end_us);
                    edge = if stage_of(p) == cur_stage { "slot" } else { "stage" };
                    cur = p;
                }
                None => break,
            }
        }
        chain.reverse();
        // The edge/wait recorded with each entry describe the link to its
        // *predecessor*; after reversal they sit one position too early.
        let links: Vec<(&'static str, u64)> =
            chain.iter().map(|&(_, edge, wait)| (edge, wait)).collect();
        let segments: Vec<CriticalPathSegment> = chain
            .iter()
            .enumerate()
            .map(|(i, &(s, _, _))| {
                let (edge, wait_us) = if i == 0 { ("start", 0) } else { links[i - 1] };
                build_segment(s, r, edge, wait_us)
            })
            .collect();

        let start_us = segments.first().map(|s| s.start_us).unwrap_or(0);
        let end_us = segments.last().map(|s| s.end_us).unwrap_or(0);
        Some(CriticalPath {
            makespan_us,
            duration_us: end_us.saturating_sub(start_us),
            start_us,
            end_us,
            compute_us: segments.iter().map(|s| s.compute_us).sum(),
            shuffle_us: segments.iter().map(|s| s.shuffle_us).sum(),
            recovery_us: segments.iter().map(|s| s.recovery_us).sum(),
            wait_us: segments.iter().map(|s| s.wait_us).sum(),
            segments,
        })
    }
}

/// Attributes one chain task's time from its laps and the run events.
fn build_segment(
    s: &TaskSpan,
    r: &RunReport,
    edge: &'static str,
    wait_us: u64,
) -> CriticalPathSegment {
    let span_us = s.end_us.saturating_sub(s.start_us);
    let shuffle_laps: u64 =
        s.phases.iter().filter(|(name, _)| *name == "shuffle").map(|(_, us)| *us).sum();
    // Map re-runs execute inside the shuffle loop of the reduce task that
    // hit the dead node; timed rerun events in this task's window on its
    // node are carved out of shuffle time.
    let recovery_raw: u64 = r
        .events
        .iter()
        .filter(|e| {
            e.kind == "map.rerun"
                && e.node == s.node
                && e.at_us >= s.start_us
                && e.at_us <= s.end_us
        })
        .map(|e| e.dur_us)
        .sum();
    let recovery_us = recovery_raw.min(span_us);
    let shuffle_us = shuffle_laps.saturating_sub(recovery_us).min(span_us);
    let compute_us = span_us.saturating_sub(shuffle_us + recovery_us);
    CriticalPathSegment {
        job: s.job.clone(),
        kind: s.kind,
        task: s.task,
        attempt: s.attempt,
        node: s.node,
        start_us: s.start_us,
        end_us: s.end_us,
        wait_us,
        compute_us,
        shuffle_us,
        recovery_us,
        edge,
    }
}

/// Busy/idle picture of one node, as a fraction of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeUtilization {
    /// Node id.
    pub node: u32,
    /// Task attempts that ran on the node.
    pub tasks: u64,
    /// Microseconds the node ran ≥ 1 task.
    pub busy_us: u64,
    /// Microseconds the node sat idle.
    pub idle_us: u64,
    /// `busy / (busy + idle)`; 0.0 for an empty window.
    pub busy_fraction: f64,
}

/// Max/mean/imbalance of one per-task quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceStat {
    /// Largest per-task value.
    pub max: u64,
    /// Mean per-task value.
    pub mean: f64,
    /// `max / mean` (1.0 = perfectly balanced; 0.0 when empty).
    pub ratio: f64,
}

impl ImbalanceStat {
    fn from_values(values: impl Iterator<Item = u64>) -> Option<ImbalanceStat> {
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut n = 0u64;
        for v in values {
            max = max.max(v);
            sum += v;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let mean = sum as f64 / n as f64;
        Some(ImbalanceStat { max, mean, ratio: if mean > 0.0 { max as f64 / mean } else { 0.0 } })
    }
}

/// Skew & straggler diagnosis: per-node utilization plus measured
/// working-set / pair-count imbalance, compared against the analytic
/// `maxws`/`maxis`-style predictions the runner records as
/// `scheme.analytic.*` metadata.
#[derive(Debug, Clone)]
pub struct SkewReport {
    /// Per-node busy/idle utilization, ascending by node.
    pub utilization: Vec<NodeUtilization>,
    /// Pairwise evaluations per task (measured), from the
    /// [`crate::hist::EVALUATIONS_PER_TASK`] histogram.
    pub evaluations: Option<ImbalanceStat>,
    /// Working-set size per evaluating reduce task in elements
    /// (measured as records received).
    pub working_set: Option<ImbalanceStat>,
    /// Analytic working-set prediction (`scheme.analytic.working_set`).
    pub analytic_working_set: Option<f64>,
    /// Analytic evaluations-per-task prediction
    /// (`scheme.analytic.evals_per_task`).
    pub analytic_evals_per_task: Option<f64>,
    /// The longest task attempt: `(job, kind, task, node, wall µs)`.
    pub straggler: Option<(String, &'static str, u32, u32, u64)>,
}

impl SkewReport {
    /// Builds the diagnosis from a report.
    pub fn from_report(r: &RunReport) -> SkewReport {
        let utilization = r
            .node_timelines
            .iter()
            .map(|t| {
                let window = t.busy_us + t.idle_us;
                NodeUtilization {
                    node: t.node,
                    tasks: t.tasks,
                    busy_us: t.busy_us,
                    idle_us: t.idle_us,
                    busy_fraction: if window > 0 { t.busy_us as f64 / window as f64 } else { 0.0 },
                }
            })
            .collect();
        let evaluations = r
            .histograms
            .iter()
            .find(|(name, _)| name == crate::hist::EVALUATIONS_PER_TASK)
            .and_then(|(_, h)| {
                if h.count == 0 {
                    None
                } else {
                    Some(ImbalanceStat {
                        max: h.max,
                        mean: h.mean(),
                        ratio: h.max as f64 / h.mean().max(1e-9),
                    })
                }
            });
        // Working sets materialize in the reduce tasks of the evaluating
        // job(s); their records_in is the working-set size in elements.
        let working_set = ImbalanceStat::from_values(
            r.task_spans
                .iter()
                .filter(|s| s.kind == "reduce" && s.job.contains("evaluate"))
                .map(|s| s.records_in),
        );
        let meta_f64 = |key: &str| -> Option<f64> {
            r.meta.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.parse::<f64>().ok())
        };
        SkewReport {
            utilization,
            evaluations,
            working_set,
            analytic_working_set: meta_f64("scheme.analytic.working_set"),
            analytic_evals_per_task: meta_f64("scheme.analytic.evals_per_task"),
            straggler: r.straggler().map(|s| {
                (s.job.clone(), s.kind, s.task, s.node, s.end_us.saturating_sub(s.start_us))
            }),
        }
    }
}

/// Comparison of two runs: makespan, critical-path duration, and
/// per-category attribution deltas.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Label of the first run (its scheme, unless overridden).
    pub label_a: String,
    /// Label of the second run.
    pub label_b: String,
    /// Makespans of the two runs, µs.
    pub makespan_us: (u64, u64),
    /// Critical-path durations of the two runs, µs (0 = no spans).
    pub critical_path_us: (u64, u64),
    /// Chain attribution `(compute, shuffle, recovery, wait)` of run A.
    pub attribution_a: (u64, u64, u64, u64),
    /// Chain attribution `(compute, shuffle, recovery, wait)` of run B.
    pub attribution_b: (u64, u64, u64, u64),
    /// Label of the run with the longer critical path (ties go to A).
    pub longer_critical_path: String,
}

/// A run's display label: its `scheme` metadata plus the task count,
/// which distinguishes e.g. two block schemes with different `h`.
pub fn scheme_label(r: &RunReport) -> String {
    let get = |key: &str| r.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    match (get("scheme"), get("scheme.tasks")) {
        (Some(s), Some(t)) => format!("{s} (tasks={t})"),
        (Some(s), None) => s.to_string(),
        _ => "unlabeled run".to_string(),
    }
}

impl TraceDiff {
    /// Compares two reports using their scheme metadata as labels.
    pub fn compute(a: &RunReport, b: &RunReport) -> TraceDiff {
        TraceDiff::compute_labeled(a, b, scheme_label(a), scheme_label(b))
    }

    /// Compares two reports with caller-provided labels.
    pub fn compute_labeled(
        a: &RunReport,
        b: &RunReport,
        label_a: String,
        label_b: String,
    ) -> TraceDiff {
        let cp_a = CriticalPath::from_report(a);
        let cp_b = CriticalPath::from_report(b);
        let dur = |cp: &Option<CriticalPath>| cp.as_ref().map(|c| c.duration_us).unwrap_or(0);
        let attr = |cp: &Option<CriticalPath>| {
            cp.as_ref()
                .map(|c| (c.compute_us, c.shuffle_us, c.recovery_us, c.wait_us))
                .unwrap_or((0, 0, 0, 0))
        };
        let longer = if dur(&cp_a) >= dur(&cp_b) { label_a.clone() } else { label_b.clone() };
        TraceDiff {
            label_a,
            label_b,
            makespan_us: (
                cp_a.as_ref().map(|c| c.makespan_us).unwrap_or(0),
                cp_b.as_ref().map(|c| c.makespan_us).unwrap_or(0),
            ),
            critical_path_us: (dur(&cp_a), dur(&cp_b)),
            attribution_a: attr(&cp_a),
            attribution_b: attr(&cp_b),
            longer_critical_path: longer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        job: &str,
        kind: &'static str,
        task: u32,
        node: u32,
        start: u64,
        end: u64,
        phases: Vec<(&'static str, u64)>,
    ) -> TaskSpan {
        TaskSpan {
            job: job.into(),
            kind,
            task,
            node,
            start_us: start,
            end_us: end,
            phases,
            ..TaskSpan::default()
        }
    }

    fn report(spans: Vec<TaskSpan>) -> RunReport {
        let wall = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        RunReport { wall_time_us: wall, task_spans: spans, ..RunReport::default() }.assemble()
    }

    #[test]
    fn serialized_run_critical_path_equals_makespan() {
        // One node, one slot: maps 0..2 then reduces 0..1, back to back
        // with small scheduling gaps.
        let r = report(vec![
            span("j", "map", 0, 0, 0, 100, vec![("map", 100)]),
            span("j", "map", 1, 0, 105, 200, vec![("map", 95)]),
            span("j", "reduce", 0, 0, 210, 400, vec![("shuffle", 50), ("reduce", 140)]),
            span("j", "reduce", 1, 0, 400, 450, vec![("shuffle", 10), ("reduce", 40)]),
        ]);
        let cp = CriticalPath::from_report(&r).unwrap();
        assert_eq!(cp.makespan_us, 450);
        assert_eq!(cp.duration_us, 450, "serialized chain must cover the makespan");
        assert_eq!(cp.segments.len(), 4);
        assert_eq!(cp.segments[0].edge, "start");
        assert_eq!(cp.segments[1].wait_us, 5);
        // Identity: duration = Σ span + Σ wait.
        let total: u64 = cp.segments.iter().map(|s| s.span_us() + s.wait_us).sum();
        assert_eq!(total, cp.duration_us);
        assert_eq!(cp.shuffle_us, 60);
    }

    #[test]
    fn parallel_run_critical_path_is_bounded_by_makespan() {
        // Two nodes; node 1's map is the straggler feeding both reduces.
        let r = report(vec![
            span("j", "map", 0, 0, 0, 50, vec![]),
            span("j", "map", 1, 1, 0, 300, vec![]),
            span("j", "reduce", 0, 0, 310, 500, vec![("shuffle", 100)]),
            span("j", "reduce", 1, 1, 305, 480, vec![]),
        ]);
        let cp = CriticalPath::from_report(&r).unwrap();
        assert_eq!(cp.makespan_us, 500);
        assert!(cp.duration_us <= cp.makespan_us);
        // Chain: map 1 (straggler) → reduce 0 via a stage edge.
        assert_eq!(cp.segments.len(), 2);
        assert_eq!((cp.segments[0].kind, cp.segments[0].task), ("map", 1));
        assert_eq!(cp.segments[1].edge, "stage");
        assert_eq!(cp.segments[1].wait_us, 10);
    }

    #[test]
    fn recovery_time_is_carved_out_of_shuffle() {
        let mut r = report(vec![
            span("j", "map", 0, 0, 0, 100, vec![]),
            span("j", "reduce", 0, 1, 100, 500, vec![("shuffle", 300), ("reduce", 100)]),
        ]);
        r.events.push(crate::RunEvent {
            at_us: 250,
            kind: "map.rerun",
            node: 1,
            dur_us: 120,
            detail: String::new(),
        });
        let cp = CriticalPath::from_report(&r).unwrap();
        let reduce = cp.segments.last().unwrap();
        assert_eq!(reduce.recovery_us, 120);
        assert_eq!(reduce.shuffle_us, 180);
        assert_eq!(reduce.compute_us, 100);
    }

    #[test]
    fn empty_report_has_no_critical_path() {
        assert!(CriticalPath::from_report(&RunReport::default()).is_none());
    }

    #[test]
    fn skew_report_compares_measured_to_analytic() {
        let mut spans = vec![
            span("run-j1-distribute-evaluate", "reduce", 0, 0, 0, 100, vec![]),
            span("run-j1-distribute-evaluate", "reduce", 1, 1, 0, 300, vec![]),
        ];
        spans[0].records_in = 10;
        spans[1].records_in = 30;
        let mut r = report(spans);
        r.meta.push(("scheme.analytic.working_set".into(), "24".into()));
        r.meta.push(("scheme.analytic.evals_per_task".into(), "45.0".into()));
        let skew = SkewReport::from_report(&r);
        let ws = skew.working_set.unwrap();
        assert_eq!(ws.max, 30);
        assert_eq!(ws.mean, 20.0);
        assert!((ws.ratio - 1.5).abs() < 1e-9);
        assert_eq!(skew.analytic_working_set, Some(24.0));
        assert_eq!(skew.analytic_evals_per_task, Some(45.0));
        assert_eq!(skew.utilization.len(), 2);
        let straggler = skew.straggler.unwrap();
        assert_eq!((straggler.2, straggler.3), (1, 1));
    }

    #[test]
    fn diff_names_the_run_with_the_longer_critical_path() {
        let fast = report(vec![span("j", "map", 0, 0, 0, 100, vec![])]);
        let slow = report(vec![span("j", "map", 0, 0, 0, 900, vec![])]);
        let d = TraceDiff::compute_labeled(&fast, &slow, "fast".into(), "slow".into());
        assert_eq!(d.longer_critical_path, "slow");
        assert_eq!(d.critical_path_us, (100, 900));
        let d2 = TraceDiff::compute_labeled(&slow, &fast, "slow".into(), "fast".into());
        assert_eq!(d2.longer_critical_path, "slow");
    }
}
