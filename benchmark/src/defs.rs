//! The benchmark's definitions.
//!
//! `BENCHMARK.json` at the repo root is the one place that names the
//! workloads and the metrics (unit, direction, bound) and fixes the run
//! length. It is compiled in and parsed by [`declared`]; nothing here
//! repeats it. This file adds what that file has no key for: the
//! parameters of each workload, looked up by the declared name.
//! [`Metrics::emit`] refuses a name that is not declared, so what the
//! harness prints is exactly what the file promises.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use pmr_obs::JsonValue;

/// Compute threads of the local backend, and nodes of every cluster.
pub const THREADS: usize = 2;
pub const NODES: usize = 2;
/// Map and reduce slots per node (so at most two tasks compute at once).
pub const SLOTS: usize = 1;

/// A metric as `BENCHMARK.json` declares it. `bound` is the share of the
/// parent's median an end-to-end metric may worsen by; per-layer metrics
/// have none.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: u64,
    /// `(name, why)` of every workload, in the file's order.
    pub workloads: Vec<(String, String)>,
    /// What a user of the system sees, on every workload.
    pub end_to_end: Vec<MetricDef>,
    /// Single layers, named after the modules. A layer that is not on a
    /// workload's path reports 0 there.
    pub per_layer: Vec<MetricDef>,
}

fn parse_declared(text: &str) -> Declared {
    let json = JsonValue::parse(text).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| {
        json.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
    };
    let metrics = |key: &str| {
        list(key)
            .iter()
            .map(|m| MetricDef {
                name: m.str_or_empty("name").to_string(),
                unit: m.str_or_empty("unit").to_string(),
                better: m.str_or_empty("better").to_string(),
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
            .collect()
    };
    Declared {
        run_seconds: json.u64_or_zero("run_seconds"),
        workloads: list("workloads")
            .iter()
            .map(|w| (w.str_or_empty("name").to_string(), w.str_or_empty("why").to_string()))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The definitions in `BENCHMARK.json`, as compiled in.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| parse_declared(include_str!("../../BENCHMARK.json")))
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// `gene_expression(v, dim, 8, 0.3, seed)`.
    Dense { dim: usize },
    /// `zipf_documents(v, vocab, nnz, s, seed)`, raw term counts.
    Sparse { vocab: usize, nnz: usize, s: f64 },
    /// The Zipf corpus tf-idf weighted and unit-normalised (dot = cosine),
    /// with document `i + 1` a near-duplicate of `i` for every
    /// `dup_every`-th `i`.
    SparseTfidf { vocab: usize, nnz: usize, s: f64, dup_every: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    Block { h: u64 },
    Quorum,
    Broadcast { tasks: u64 },
    Design,
}

impl SchemeKind {
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Block { .. } => "block",
            SchemeKind::Quorum => "quorum",
            SchemeKind::Broadcast { .. } => "broadcast",
            SchemeKind::Design => "design",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggKind {
    /// Keep every result, sorted by neighbour (`ConcatSort`).
    All,
    /// The `k` smallest results per element (`TopKAggregator`).
    Nearest { k: usize },
    /// Results `>= t` only (`FilterAggregator`).
    AtLeast { t: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `Backend::Local { threads: THREADS }`.
    Local,
    /// `Backend::Mr` on an in-process cluster.
    Mr,
    /// `Backend::Mr` on `pmr-worker` processes over Unix sockets.
    Process,
}

/// The parameters of one workload declared in `BENCHMARK.json`: its input
/// and its job.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub v: usize,
    /// `v` under `--smoke`.
    pub smoke_v: usize,
    pub data: DataKind,
    pub scheme: SchemeKind,
    pub aggregator: AggKind,
    /// `PrefixFilter` threshold, for the similarity join.
    pub prefix_threshold: Option<f64>,
    pub backend: BackendKind,
    /// Set-ups per iteration; one set-up sample is their mean (see
    /// `endtoend`).
    pub setup_k: usize,
    /// Whether the traced run also sweeps the four schemes over this data.
    pub sweep: bool,
}

const DENSE_64: DataKind = DataKind::Dense { dim: 64 };

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "allpairs-dense-block",
        v: 2048,
        smoke_v: 192,
        data: DENSE_64,
        scheme: SchemeKind::Block { h: 16 },
        aggregator: AggKind::All,
        prefix_threshold: None,
        backend: BackendKind::Local,
        setup_k: 1,
        sweep: true,
    },
    Spec {
        name: "knn-dense-block",
        v: 3072,
        smoke_v: 192,
        data: DataKind::Dense { dim: 512 },
        scheme: SchemeKind::Block { h: 24 },
        aggregator: AggKind::Nearest { k: 10 },
        prefix_threshold: None,
        backend: BackendKind::Local,
        setup_k: 1,
        sweep: false,
    },
    Spec {
        name: "knn-dense-quorum",
        v: 3072,
        smoke_v: 192,
        data: DataKind::Dense { dim: 512 },
        scheme: SchemeKind::Quorum,
        aggregator: AggKind::Nearest { k: 10 },
        prefix_threshold: None,
        backend: BackendKind::Local,
        setup_k: 1,
        sweep: false,
    },
    Spec {
        name: "allpairs-sparse-block",
        v: 2048,
        smoke_v: 192,
        data: DataKind::Sparse { vocab: 8192, nnz: 64, s: 1.1 },
        scheme: SchemeKind::Block { h: 16 },
        aggregator: AggKind::All,
        prefix_threshold: None,
        backend: BackendKind::Local,
        setup_k: 1,
        sweep: false,
    },
    Spec {
        name: "allpairs-dense-mr",
        v: 2048,
        smoke_v: 128,
        data: DENSE_64,
        scheme: SchemeKind::Block { h: 16 },
        aggregator: AggKind::All,
        prefix_threshold: None,
        backend: BackendKind::Mr,
        setup_k: 1,
        sweep: false,
    },
    Spec {
        name: "allpairs-dense-process",
        v: 2048,
        smoke_v: 128,
        data: DENSE_64,
        scheme: SchemeKind::Block { h: 16 },
        aggregator: AggKind::All,
        prefix_threshold: None,
        backend: BackendKind::Process,
        // Bring-up polls for its workers every 2 ms, so one set-up takes
        // one poll or two: the mean of four is steadier than either.
        setup_k: 4,
        sweep: false,
    },
    Spec {
        name: "simjoin-sparse-prefix",
        v: 4096,
        smoke_v: 256,
        data: DataKind::SparseTfidf { vocab: 8192, nnz: 64, s: 1.2, dup_every: 64 },
        scheme: SchemeKind::Block { h: 32 },
        aggregator: AggKind::AtLeast { t: 0.8 },
        prefix_threshold: Some(0.8),
        backend: BackendKind::Local,
        setup_k: 1,
        sweep: false,
    },
];

/// The parameters and the declared reason of the workload called `name`.
pub fn workload(name: &str) -> Option<(&'static Spec, &'static str)> {
    let spec = WORKLOADS.iter().find(|w| w.name == name)?;
    let (_, why) = declared().workloads.iter().find(|(declared, _)| declared == name)?;
    Some((spec, why))
}

/// The declared per-layer metric called `name`, for names assembled at run
/// time; an undeclared name is a harness bug.
pub fn per_layer(name: &str) -> &'static str {
    declared()
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name.as_str())
        .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
}

/// One measured metric. `exact` marks a count made by the program (or
/// computed from its input), which repeats exactly between runs of the
/// same code and seed; `repeat.sh` holds those to equality.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub def: &'static MetricDef,
    pub value: f64,
    pub exact: bool,
}

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, bool)>);

impl Metrics {
    /// Records a timing or anything else that varies from run to run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, false));
    }

    /// Records a count that repeats exactly (see [`Value::exact`]).
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, true));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(value, _)| *value)
    }

    /// The values in declaration order, one per metric of `declared`.
    /// A recorded name that is not declared is a harness bug. A declared
    /// name that was not recorded reads 0 when `off_path_is_zero` (layers
    /// a workload does not touch) and is a bug otherwise.
    pub fn emit(&self, declared: &'static [MetricDef], off_path_is_zero: bool) -> Vec<Value> {
        for name in self.0.keys() {
            assert!(declared.iter().any(|d| d.name == *name), "undeclared metric {name}");
        }
        declared
            .iter()
            .map(|def| match self.0.get(def.name.as_str()) {
                Some(&(value, exact)) => Value { def, value, exact },
                None if off_path_is_zero => Value { def, value: 0.0, exact: false },
                None => panic!("metric {} was not measured", def.name),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_declared_name_and_unit_is_well_formed_and_unique() {
        let d = declared();
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &d.workloads {
            assert!(well_formed(name), "workload {name}");
            assert!(seen.insert(name.as_str()), "duplicate {name}");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(well_formed(&m.name), "metric {}", m.name);
            assert!(unit_ok(&m.unit), "unit {} of {}", m.unit, m.name);
            assert!(matches!(m.better.as_str(), "higher" | "lower"), "better of {}", m.name);
            assert!(seen.insert(m.name.as_str()), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!((1..=60).contains(&d.run_seconds));
    }

    #[test]
    fn every_declared_workload_has_its_parameters() {
        let declared: Vec<&str> = declared().workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, ours);
        for w in WORKLOADS {
            assert!(workload(w.name).is_some());
            assert!(w.setup_k >= 1 && w.smoke_v >= 2 && w.smoke_v <= w.v);
            if w.prefix_threshold.is_some() {
                assert!(
                    !matches!(w.data, DataKind::Dense { .. }),
                    "{}: the prefix filter needs sparse vectors",
                    w.name
                );
            }
        }
        assert!(workload("made-up").is_none());
    }

    #[test]
    fn bounds_are_within_the_contract() {
        let d = declared();
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // The contract's ceiling.
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = d.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s takes the largest bound");
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn emit_prints_exactly_the_declared_names() {
        let per_layer = &declared().per_layer;
        let mut m = Metrics::default();
        m.set_exact("scheme.tasks", 7.0);
        let out = m.emit(per_layer, true);
        let names: Vec<&str> = out.iter().map(|v| v.def.name.as_str()).collect();
        let declared: Vec<&str> = per_layer.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, declared);
        let tasks = out.iter().find(|v| v.def.name == "scheme.tasks").unwrap();
        assert_eq!((tasks.value, tasks.exact), (7.0, true));
        let off_path = out.iter().find(|v| v.def.name == "mr.ns_per_pair").unwrap();
        assert_eq!((off_path.value, off_path.exact), (0.0, false));
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn emit_refuses_an_undeclared_name() {
        let mut m = Metrics::default();
        m.set("made.up", 1.0);
        m.emit(&declared().per_layer, true);
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn emit_refuses_a_missing_end_to_end_metric() {
        Metrics::default().emit(&declared().end_to_end, false);
    }
}
