//! `pairbench` — the repo benchmark (see `BENCHMARK.json` at the repo
//! root and `benchmark/README.md`).
//!
//! ```text
//! pairbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--smoke]
//! ```
//!
//! One invocation measures one workload in a fresh process. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! traced ladder run. Every metric is printed by name with its unit, and
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Use `benchmark/run.sh`,
//! which builds everything first.

mod defs;
mod digest;
mod endtoend;
mod host;
mod layers;
mod problem;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pmr_obs::JsonWriter;

use defs::{declared, DataKind, Spec, Value};
use host::Fingerprint;
use problem::{generate_dense, generate_sparse, Element, Problem};
use stats::Summary;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where result and trace files go; nothing is written without it.
    out: Option<PathBuf>,
    smoke: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = declared().workloads.iter().map(|(name, _)| name.as_str()).collect();
    eprintln!(
        "usage: pairbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
         [--smoke]\nworkloads: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: declared().run_seconds as f64,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        usage();
    }
    if args.smoke && !seconds_given {
        // A smoke run only shows that everything runs: fewest samples.
        args.seconds = 0.0;
    }
    args
}

/// One measured run, ready to print and to write.
struct Report {
    values: Vec<Value>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `(name, summary, unit)` of the timed samples behind the medians.
    samples: Vec<(&'static str, Summary, &'static str)>,
    /// Informational numbers that are not metrics.
    notes: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans: `(summary lines, trace file content)`.
    trace: Option<(Vec<String>, String)>,
}

fn measure<T: Element>(spec: &'static Spec, data: Vec<T>, args: &Args, generate_s: f64) -> Report {
    let problem = Problem { spec, data };
    if args.trace {
        let out = layers::run(&problem, args.seconds, spec.sweep);
        Report {
            values: out.metrics.emit(&declared().per_layer, true),
            attempted: out.attempted,
            failed: out.failed,
            failures: out.failures,
            samples: Vec::new(),
            notes: out.notes,
            trace: Some((span_lines(&out.tracer), out.tracer.to_json())),
        }
    } else {
        let out = endtoend::run(&problem, args.seconds, generate_s);
        Report {
            values: out.metrics.emit(&declared().end_to_end, false),
            attempted: out.attempted,
            failed: out.failed,
            failures: out.failures,
            samples: vec![
                ("iteration_s", out.iteration_s, "s"),
                ("setup_sample_s", out.setup_s, "s"),
            ],
            notes: vec![("harness_prepare_s", out.harness_prepare_s, "s")],
            trace: None,
        }
    }
}

/// One line per span name: count, total and self time.
fn span_lines(tracer: &spans::Tracer) -> Vec<String> {
    tracer
        .summary()
        .into_iter()
        .map(|(name, count, total_ns, self_ns)| {
            format!(
                "span {name}: n={count} total={:.3} ms self={:.3} ms",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            )
        })
        .collect()
}

/// A number as JSON: all its digits; non-finite values cannot be written
/// and are reported as a failure by the caller.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The contract's result line.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                JsonWriter::quote(&v.def.name),
                number(v.value),
                JsonWriter::quote(&v.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The full record of a run, with the fingerprint, for `benchmark/out/`.
fn result_file(spec: &Spec, args: &Args, v: usize, fp: &Fingerprint, report: &Report) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("schema", "pairbench.result/1");
    w.str_field("workload", spec.name);
    w.str_field("mode", if args.trace { "per_layer" } else { "end_to_end" });
    w.begin_object_key("fingerprint");
    w.str_field("cpu_model", &fp.cpu_model);
    w.u64_field("nproc", fp.nproc as u64);
    w.str_field("kernel", &fp.kernel);
    w.str_field("rustc", &fp.rustc);
    w.str_field("commit", &fp.commit);
    w.u64_field("seed", args.seed);
    w.f64_field("seconds", args.seconds);
    w.u64_field("v", v as u64);
    w.str_field("shape", &endtoend::shape(spec.backend));
    w.u64_field("setup_k", spec.setup_k as u64);
    w.end_object();
    w.bool_field("correct", report.failed == 0);
    w.u64_field("attempted", report.attempted);
    w.u64_field("failed", report.failed);
    w.begin_object_key("metrics");
    for v in &report.values {
        w.begin_object_key(&v.def.name);
        w.raw_field("value", &number(v.value));
        w.str_field("unit", &v.def.unit);
        w.str_field("better", &v.def.better);
        if let Some(bound) = v.def.bound {
            w.f64_field("bound", bound);
        }
        if v.exact {
            w.bool_field("exact", true);
        }
        w.end_object();
    }
    w.end_object();
    w.begin_object_key("samples");
    for (name, s, unit) in &report.samples {
        w.begin_object_key(name);
        w.u64_field("n", s.n as u64);
        for (key, value) in
            [("min", s.min), ("q1", s.q1), ("median", s.median), ("q3", s.q3), ("max", s.max)]
        {
            w.raw_field(key, &number(value));
        }
        w.str_field("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.begin_object_key("notes");
    for (name, value, _) in &report.notes {
        w.raw_field(name, &number(*value));
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn write_file(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, content))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some((spec, why)) = defs::workload(&args.workload) else { usage() };
    let fp = Fingerprint::collect();
    if fp.nproc < defs::THREADS && !args.smoke {
        eprintln!(
            "pairbench: {} core(s) available, the benchmark computes with {}; refusing to \
             record numbers",
            fp.nproc,
            defs::THREADS
        );
        return ExitCode::from(3);
    }
    let v = if args.smoke { spec.smoke_v } else { spec.v };

    let start = Instant::now();
    let mut report = match spec.data {
        DataKind::Dense { .. } => {
            let data = generate_dense(spec, v, args.seed);
            measure(spec, data, &args, start.elapsed().as_secs_f64())
        }
        DataKind::Sparse { .. } | DataKind::SparseTfidf { .. } => {
            let data = generate_sparse(spec, v, args.seed);
            measure(spec, data, &args, start.elapsed().as_secs_f64())
        }
    };
    for v in &report.values {
        if !v.value.is_finite() {
            report.failed += 1;
            report.failures.push(format!("{} is not a finite number", v.def.name));
        }
    }

    println!(
        "# {} seed={} seconds={} v={v} trace={} {}{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        endtoend::shape(spec.backend),
        if args.smoke { " SMOKE (not recorded)" } else { "" }
    );
    println!("# why: {why}");
    println!(
        "# cpu=\"{}\" nproc={} kernel={} rustc=\"{}\" commit={}",
        fp.cpu_model, fp.nproc, fp.kernel, fp.rustc, fp.commit
    );
    for v in &report.values {
        let exact = if v.exact { " (exact)" } else { "" };
        println!("{} = {} {}{exact}", v.def.name, number(v.value), v.def.unit);
    }
    for (name, s, unit) in &report.samples {
        println!(
            "{name}: n={} min={} q1={} median={} q3={} max={} {unit} (spread {:.4})",
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            s.spread()
        );
    }
    for (name, value, unit) in &report.notes {
        println!("{name} = {value} {unit} (informational)");
    }
    for line in report.trace.iter().flat_map(|(lines, _)| lines) {
        println!("{line}");
    }
    let error_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "ops_attempted = {} count\nops_failed = {} count\nerror_share = {error_share} share",
        report.attempted, report.failed
    );
    for failure in &report.failures {
        println!("FAILED {failure}");
    }

    if let (Some(dir), false) = (&args.out, args.smoke) {
        let kind = if args.trace { "layers" } else { "result" };
        write_file(
            dir,
            &format!("{}.{kind}.json", spec.name),
            &result_file(spec, &args, v, &fp, &report),
        );
        if let Some((_, trace)) = &report.trace {
            write_file(dir, &format!("{}.trace.json", spec.name), trace);
        }
    }
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defs::MetricDef;
    use pmr_obs::JsonValue;

    fn report_of(defs: &'static [MetricDef]) -> Report {
        Report {
            values: defs
                .iter()
                .enumerate()
                .map(|(i, def)| Value { def, value: i as f64 + 0.123456789, exact: false })
                .collect(),
            attempted: 12,
            failed: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
            trace: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_declared_metrics() {
        for defs in [&declared().end_to_end, &declared().per_layer] {
            let line = result_line(&report_of(defs));
            assert!(!line.contains('\n'));
            let json = JsonValue::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> =
                json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(json.u64_or_zero("attempted"), 12);
            let metrics = json.get("metrics").and_then(JsonValue::as_object).unwrap();
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(printed, declared);
            for ((_, m), def) in metrics.iter().zip(defs.iter()) {
                assert_eq!(m.str_or_empty("unit"), def.unit);
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
        }
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(18446744073709.55), "18446744073709.55");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn a_failed_run_reads_incorrect() {
        let mut report = report_of(&declared().end_to_end);
        report.failed = 1;
        let json = JsonValue::parse(&result_line(&report)).unwrap();
        assert_eq!(json.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(json.u64_or_zero("failed"), 1);
    }
}
