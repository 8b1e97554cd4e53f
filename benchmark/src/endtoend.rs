//! The untraced run (`--trace 0`): the end-to-end metrics of one workload.
//!
//! One process, closed loop, one job at a time. Two warm-up iterations,
//! then timed iterations for the run's seconds. An iteration is what a
//! caller does: set up, `PairwiseJob::run()`, look at the output, drop
//! everything. `run()` alone is the iteration's time; building and dropping
//! around it is the iteration's set-up sample. The reference is computed
//! last, after peak memory has been read, so it cannot inflate it.
//!
//! Set-up is sampled between the runs, not in a loop of its own: straight
//! after a run the caches and the allocator are in the state a caller finds
//! them in, and it differs a little from iteration to iteration, so the
//! median does not lock onto one lucky or unlucky heap layout, which a tight
//! loop of sub-millisecond set-ups does for the whole life of a process.

use std::time::{Duration, Instant};

use pmr_core::runner::PairwiseRun;

use crate::defs::{BackendKind, Metrics, NODES, SLOTS, THREADS};
use crate::digest::digest_output;
use crate::host::vm_hwm_kb;
use crate::problem::{Element, Problem};
use crate::stats::Summary;

/// Untimed runs before the first timed one (caches, allocator, lazy init).
const WARM_UPS: usize = 2;
/// Fewest timed iterations, however slow the machine.
const MIN_SAMPLES: usize = 5;

pub struct Outcome {
    pub metrics: Metrics,
    /// Timed iterations made.
    pub attempted: u64,
    /// Iterations that erred or failed a check.
    pub failed: u64,
    /// Seconds per `run()`.
    pub iteration_s: Summary,
    /// Seconds per single set-up (build and drop), one sample an iteration.
    pub setup_s: Summary,
    /// Data generation plus the reference run: harness cost, informational.
    pub harness_prepare_s: f64,
    pub failures: Vec<String>,
}

/// What one iteration leaves behind for the checks.
struct Observed {
    digest: u64,
    /// Charged shuffle bytes (MR backends), which must not vary.
    shuffle_charged: Option<u64>,
    /// Peak resident memory of the iteration's worker processes, kB.
    workers_hwm_kb: u64,
}

/// Checks one finished run against the pair-count laws and digests it.
fn observe<T: Element>(
    problem: &Problem<T>,
    run: &PairwiseRun<f64>,
    worker_pids: &[u32],
) -> Result<Observed, String> {
    let pairs = problem.pairs();
    match (&run.report.pruning, problem.spec.prefix_threshold) {
        (Some(p), Some(_)) => {
            if p.candidates != pairs || p.evaluated + p.pruned != p.candidates {
                return Err(format!(
                    "pruning law broken: candidates {} evaluated {} pruned {} of {pairs} pairs",
                    p.candidates, p.evaluated, p.pruned
                ));
            }
        }
        (None, Some(_)) => return Err("filtered run reported no pruning section".into()),
        (_, None) => {
            if run.evaluations() != pairs {
                return Err(format!("evaluated {} of {pairs} pairs", run.evaluations()));
            }
        }
    }
    Ok(Observed {
        digest: digest_output(&run.output),
        shuffle_charged: run.mr.first().map(|mr| mr.shuffle_bytes),
        workers_hwm_kb: worker_pids.iter().filter_map(|&pid| vm_hwm_kb(Some(pid))).sum(),
    })
}

/// What one iteration measured.
struct Iteration {
    /// Seconds of `run()` alone.
    run_s: f64,
    /// Seconds of one set-up: building everything before `run()` and
    /// dropping afterwards what `run()` did not consume, the mean of the
    /// workload's `setup_k`.
    setup_s: f64,
    observed: Result<Observed, String>,
}

/// Sets up (`setup_k` times, keeping the last), runs once, checks the
/// output and drops everything.
fn iteration<T: Element>(problem: &Problem<T>) -> Iteration {
    let k = problem.spec.setup_k;
    let start = Instant::now();
    for _ in 1..k {
        let parts = problem.set_up();
        drop(std::hint::black_box(problem.workload_job(&parts)));
    }
    let parts = problem.set_up();
    let job = problem.workload_job(&parts);
    let build = start.elapsed();

    let start = Instant::now();
    let result = job.run();
    let run_s = start.elapsed().as_secs_f64();

    let pids: Vec<u32> = parts
        .cluster
        .as_ref()
        .map(|c| c.workers().iter().map(|w| w.pid).collect())
        .unwrap_or_default();
    let observed = match &result {
        Ok(run) => observe(problem, run, &pids),
        Err(e) => Err(format!("run() failed: {e}")),
    };

    let start = Instant::now();
    drop(parts);
    let setup_s = (build + start.elapsed()).as_secs_f64() / k as f64;
    Iteration { run_s, setup_s, observed }
}

pub fn run<T: Element>(problem: &Problem<T>, seconds: f64, generate_s: f64) -> Outcome {
    for _ in 0..WARM_UPS {
        if let Err(e) = iteration(problem).observed {
            // A workload that cannot run at all is not worth timing.
            panic!("{}: warm-up failed: {e}", problem.spec.name);
        }
    }

    let mut failures = Vec::new();
    let mut times = Vec::new();
    let mut setups = Vec::new();
    let mut observed = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while times.len() < MIN_SAMPLES || started.elapsed() < budget {
        let it = iteration(problem);
        times.push(it.run_s);
        setups.push(it.setup_s);
        match it.observed {
            Ok(o) => observed.push(o),
            Err(e) => failures.push(format!("iteration {}: {e}", times.len())),
        }
    }
    // Peak memory: this process's high-water mark plus the largest any
    // iteration's worker processes reached.
    let self_hwm_kb = vm_hwm_kb(None).unwrap_or(0);
    let workers_hwm_kb = observed.iter().map(|o| o.workers_hwm_kb).max().unwrap_or(0);

    let start = Instant::now();
    let mut failed = failures.len() as u64;
    match problem.reference_job().run() {
        Ok(reference) => {
            let expected = digest_output(&reference.output);
            for (i, o) in observed.iter().enumerate() {
                let mut bad = Vec::new();
                if o.digest != expected {
                    bad.push(format!("digest {:016x} != reference {expected:016x}", o.digest));
                }
                if o.shuffle_charged != observed[0].shuffle_charged {
                    bad.push(format!(
                        "charged shuffle bytes {:?} != {:?} of the first iteration",
                        o.shuffle_charged, observed[0].shuffle_charged
                    ));
                }
                if !bad.is_empty() {
                    failed += 1;
                    failures.push(format!("iteration {}: {}", i + 1, bad.join("; ")));
                }
            }
        }
        Err(e) => {
            failed = times.len() as u64;
            failures.push(format!("reference run failed: {e}"));
        }
    }
    let reference_s = start.elapsed().as_secs_f64();

    let iteration_s = Summary::of(&times);
    let setup_s = Summary::of(&setups);
    let mut metrics = Metrics::default();
    metrics.set("pairs_per_s", problem.pairs() as f64 / iteration_s.median);
    metrics.set("setup_s", setup_s.median);
    metrics.set("peak_rss_mb", (self_hwm_kb + workers_hwm_kb) as f64 * 1024.0 / 1e6);
    Outcome {
        metrics,
        attempted: times.len() as u64,
        failed,
        iteration_s,
        setup_s,
        harness_prepare_s: generate_s + reference_s,
        failures,
    }
}

/// Threads, nodes and slots a workload computes with, for the fingerprint.
pub fn shape(backend: BackendKind) -> String {
    match backend {
        BackendKind::Local => format!("{THREADS} threads"),
        BackendKind::Mr => format!("{NODES} nodes x ({SLOTS} map + {SLOTS} reduce slot)"),
        BackendKind::Process => {
            format!("{NODES} nodes x ({SLOTS} map + {SLOTS} reduce slot), {NODES} workers")
        }
    }
}
