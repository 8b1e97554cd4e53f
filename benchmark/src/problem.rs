//! A workload made concrete: generated inputs plus everything a caller
//! builds before `PairwiseJob::run()`.
//!
//! Only API the roadmap keeps is used: the `PairwiseJob` builder with
//! `Backend::{Sequential, Local, Mr}`, the scheme constructors, the batch
//! kernels, the aggregators and the `PrefixFilter`.

use std::sync::Arc;

use pmr_apps::docsim::tfidf;
use pmr_apps::generate::{gene_expression, zipf_documents};
use pmr_apps::kernels::{DenseSqDistKernel, SparseDotKernel};
use pmr_apps::prune::PrefixFilter;
use pmr_apps::{DenseVector, SparseVector};
use pmr_cluster::{Cluster, ClusterConfig, NodeConfig, SocketMode, TransportKind, Wire};
use pmr_core::runner::{
    comp_fn, Aggregator, Backend, BatchComp, ConcatSort, FilterAggregator, PairFilter, PairwiseJob,
    TopKAggregator,
};
use pmr_core::scheme::{
    BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme, QuorumScheme,
};

use crate::defs::{AggKind, BackendKind, DataKind, SchemeKind, Spec, NODES, SLOTS, THREADS};

/// What differs between dense and sparse payloads.
pub trait Element: Wire + Clone + Send + Sync + 'static {
    /// The batch kernel of the workload's `comp` for this dataset.
    fn kernel(data: &[Self]) -> Arc<dyn BatchComp<Self, f64>>;
    /// The similarity join's candidate filter.
    fn prefix_filter(data: &[Self], threshold: f64) -> Arc<dyn PairFilter>;
    /// Mean arithmetic operations and mean operand bytes per pair, worked
    /// out from the payload sizes (computed, not measured).
    fn computed_work(data: &[Self]) -> (f64, f64);
}

impl Element for DenseVector {
    fn kernel(data: &[Self]) -> Arc<dyn BatchComp<Self, f64>> {
        Arc::new(DenseSqDistKernel::for_dataset(data).expect("generated vectors share one dim"))
    }

    fn prefix_filter(_: &[Self], _: f64) -> Arc<dyn PairFilter> {
        unreachable!("the prefix filter is defined on sparse vectors (checked by the spec test)")
    }

    fn computed_work(data: &[Self]) -> (f64, f64) {
        // Per coordinate: subtract, multiply, add; two f64 operands.
        let dim = data.first().map_or(0, DenseVector::dim) as f64;
        (3.0 * dim, 16.0 * dim)
    }
}

impl Element for SparseVector {
    fn kernel(_: &[Self]) -> Arc<dyn BatchComp<Self, f64>> {
        Arc::new(SparseDotKernel)
    }

    fn prefix_filter(data: &[Self], threshold: f64) -> Arc<dyn PairFilter> {
        Arc::new(PrefixFilter::build(data, threshold))
    }

    fn computed_work(data: &[Self]) -> (f64, f64) {
        // A merge join steps through both postings lists once: one compare
        // per step, 16 bytes (u32 id padded + f64 weight) per entry.
        let mean_nnz =
            data.iter().map(SparseVector::nnz).sum::<usize>() as f64 / data.len().max(1) as f64;
        (2.0 * mean_nnz, 32.0 * mean_nnz)
    }
}

pub fn generate_dense(spec: &Spec, v: usize, seed: u64) -> Vec<DenseVector> {
    match spec.data {
        DataKind::Dense { dim } => gene_expression(v, dim, 8, 0.3, seed),
        other => panic!("{}: {other:?} is not dense data", spec.name),
    }
}

pub fn generate_sparse(spec: &Spec, v: usize, seed: u64) -> Vec<SparseVector> {
    match spec.data {
        DataKind::Sparse { vocab, nnz, s } => zipf_documents(v, vocab, nnz, s, seed),
        DataKind::SparseTfidf { vocab, nnz, s, dup_every } => {
            let mut raw = zipf_documents(v, vocab, nnz, s, seed);
            // Near-duplicates (a copy with its last term dropped) give the
            // join a real survivor set, not only pairs to prune.
            for i in (0..v.saturating_sub(1)).step_by(dup_every) {
                let mut twin = raw[i].clone();
                twin.0.pop();
                raw[i + 1] = twin;
            }
            tfidf(&raw)
                .into_iter()
                .map(|doc| {
                    let norm = doc.norm();
                    if norm == 0.0 {
                        doc
                    } else {
                        SparseVector(doc.0.into_iter().map(|(i, w)| (i, w / norm)).collect())
                    }
                })
                .collect()
        }
        other => panic!("{}: {other:?} is not sparse data", spec.name),
    }
}

pub fn make_scheme(kind: SchemeKind, v: u64) -> Arc<dyn DistributionScheme> {
    match kind {
        SchemeKind::Block { h } => Arc::new(BlockScheme::new(v, h)),
        SchemeKind::Quorum => Arc::new(QuorumScheme::new(v)),
        SchemeKind::Broadcast { tasks } => Arc::new(BroadcastScheme::new(v, tasks)),
        SchemeKind::Design => Arc::new(DesignScheme::new(v)),
    }
}

pub fn make_aggregator(kind: AggKind) -> Arc<dyn Aggregator<f64>> {
    match kind {
        AggKind::All => Arc::new(ConcatSort),
        AggKind::Nearest { k } => Arc::new(TopKAggregator::new(k, |r: &f64| *r)),
        AggKind::AtLeast { t } => Arc::new(FilterAggregator::new(move |r: &f64| *r >= t)),
    }
}

/// The cluster every MR rung runs on: `NODES` nodes with one map and one
/// reduce slot each, so at most `THREADS` tasks compute at a time.
pub fn cluster_config(transport: TransportKind) -> ClusterConfig {
    let mut config = ClusterConfig::with_nodes(NODES).transport(transport);
    config.node = NodeConfig { map_slots: SLOTS, reduce_slots: SLOTS, ..NodeConfig::default() };
    config
}

pub fn transport_of(backend: BackendKind) -> Option<TransportKind> {
    match backend {
        BackendKind::Local => None,
        BackendKind::Mr => Some(TransportKind::InProcess),
        BackendKind::Process => Some(TransportKind::Process { socket: SocketMode::Uds }),
    }
}

/// Everything built before `run()`: what `setup_s` times.
pub struct Parts<T> {
    pub scheme: Arc<dyn DistributionScheme>,
    pub kernel: Arc<dyn BatchComp<T, f64>>,
    pub aggregator: Arc<dyn Aggregator<f64>>,
    pub filter: Option<Arc<dyn PairFilter>>,
    pub cluster: Option<Cluster>,
}

pub struct Problem<T> {
    pub spec: &'static Spec,
    pub data: Vec<T>,
}

impl<T: Element> Problem<T> {
    pub fn v(&self) -> u64 {
        self.data.len() as u64
    }

    /// `C(v, 2)`: the pairs of the full relation.
    pub fn pairs(&self) -> u64 {
        self.v() * (self.v() - 1) / 2
    }

    /// Builds scheme, kernel, aggregator, filter and (for MR workloads) a
    /// fresh cluster, spawning its workers.
    pub fn set_up(&self) -> Parts<T> {
        self.set_up_on(transport_of(self.spec.backend))
    }

    /// [`set_up`](Self::set_up) with the cluster's transport chosen by the
    /// caller (`None` = no cluster), for the ladder's other rungs.
    pub fn set_up_on(&self, transport: Option<TransportKind>) -> Parts<T> {
        Parts {
            scheme: make_scheme(self.spec.scheme, self.v()),
            kernel: T::kernel(&self.data),
            aggregator: make_aggregator(self.spec.aggregator),
            filter: self.spec.prefix_threshold.map(|t| T::prefix_filter(&self.data, t)),
            cluster: transport.map(|t| {
                Cluster::try_new(cluster_config(t)).expect(
                    "cluster bring-up failed (is PMR_WORKER_BIN set to a built pmr-worker?)",
                )
            }),
        }
    }

    /// The job without a backend: store ingest, kernel, scheme, aggregator
    /// and filter plugged in.
    pub fn job<'a>(&'a self, parts: &'a Parts<T>) -> PairwiseJob<'a, T, f64> {
        let eval = Arc::clone(&parts.kernel);
        let mut job = PairwiseJob::new(&self.data, comp_fn(move |a: &T, b: &T| eval.eval(a, b)))
            .kernel_arc(Arc::clone(&parts.kernel))
            .scheme_arc(Arc::clone(&parts.scheme))
            .aggregator_arc(Arc::clone(&parts.aggregator));
        if let Some(filter) = &parts.filter {
            job = job.pair_filter_arc(Arc::clone(filter));
        }
        job
    }

    /// The workload's own job: [`job`](Self::job) on the workload's backend.
    pub fn workload_job<'a>(&'a self, parts: &'a Parts<T>) -> PairwiseJob<'a, T, f64> {
        let backend = match &parts.cluster {
            Some(cluster) => Backend::Mr(cluster),
            None => Backend::Local { threads: THREADS },
        };
        self.job(parts).backend(backend)
    }

    /// The reference: `Backend::Sequential`, every pair through the scalar
    /// `BatchComp::eval`, no scheme and no candidate filter — for the
    /// similarity join that is the unfiltered thresholded join.
    pub fn reference_job(&self) -> PairwiseJob<'_, T, f64> {
        let kernel = T::kernel(&self.data);
        PairwiseJob::new(&self.data, comp_fn(move |a: &T, b: &T| kernel.eval(a, b)))
            .aggregator_arc(make_aggregator(self.spec.aggregator))
            .backend(Backend::Sequential)
    }
}
