//! Job specification and results.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::api::{Mapper, Reducer};
use crate::partition::{HashPartitioner, Partitioner};

/// Specification of one MapReduce job.
///
/// `M` and `R` are the mapper and reducer; the reducer's input types must
/// match the mapper's output types.
pub struct JobSpec<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Job name (used in DFS/task paths and diagnostics).
    pub name: String,
    /// DFS input paths. Each must be a framed record file of `(M::KIn,
    /// M::VIn)` records.
    pub inputs: Vec<String>,
    /// DFS output directory; under [`Engine::run`](crate::Engine::run)
    /// reduce task `r` writes `/{output}/part-{r:05}`. A job run with a
    /// sink writes no part file.
    pub output: String,
    /// The map function.
    pub mapper: M,
    /// The reduce function.
    pub reducer: R,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Files broadcast to every node before the job starts (the paper's
    /// §5.1 distributed cache).
    pub cache_files: Vec<(String, Bytes)>,
    /// Partitioner routing intermediate keys to reducers.
    pub partitioner: Arc<dyn Partitioner>,
    /// Working-set accounting overhead factor `(num, den)` applied to the
    /// per-task memory gauge; `(1, 1)` = none. Models the paper's §6
    /// observation that "next to the elements themselves, other variables
    /// and data need to be kept in memory".
    pub memory_overhead: (u64, u64),
    /// Optional node-shared resolver handle (e.g. an element store) exposed
    /// to mappers and reducers through [`crate::api::MapContext::store`] and
    /// [`crate::api::ReduceContext::store`].
    /// Typed at the user layer; the engine only threads the `Arc` through.
    pub store: Option<Arc<dyn std::any::Any + Send + Sync>>,
}

impl<M, R> JobSpec<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Creates a job spec with defaults: hash partitioning, no cache files,
    /// no store. The engine runs one map task per DFS block of input.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        output: impl Into<String>,
        mapper: M,
        reducer: R,
        num_reducers: usize,
    ) -> Self {
        JobSpec {
            name: name.into(),
            inputs,
            output: output.into(),
            mapper,
            reducer,
            num_reducers,
            cache_files: Vec::new(),
            partitioner: Arc::new(HashPartitioner),
            memory_overhead: (1, 1),
            store: None,
        }
    }

    /// Adds a distributed-cache file, builder-style.
    pub fn cache_file(mut self, name: impl Into<String>, data: Bytes) -> Self {
        self.cache_files.push((name.into(), data));
        self
    }

    /// Sets the partitioner, builder-style.
    pub fn partitioner(mut self, p: Arc<dyn Partitioner>) -> Self {
        self.partitioner = p;
        self
    }

    /// Sets the memory-accounting overhead factor, builder-style.
    pub fn memory_overhead(mut self, num: u64, den: u64) -> Self {
        self.memory_overhead = (num, den);
        self
    }

    /// Attaches a node-shared resolver handle, builder-style. Tasks read it
    /// back (typed) via their context's `store`.
    pub fn store(mut self, store: Arc<dyn std::any::Any + Send + Sync>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Result of a completed job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// DFS paths of the reduce outputs, in task order. Empty for a job run
    /// with a sink ([`Engine::run_with_sink`](crate::Engine::run_with_sink)),
    /// which writes no part file.
    pub output_paths: Vec<String>,
    /// Counter snapshot (engine builtins + user counters).
    pub counters: BTreeMap<String, u64>,
    /// Execution statistics.
    pub stats: JobStats,
}

/// Aggregate execution statistics for one job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Map tasks run (first attempts).
    pub map_tasks: usize,
    /// Reduce tasks run (first attempts).
    pub reduce_tasks: usize,
    /// Bytes moved across the network during this job (shuffle + remote
    /// DFS reads + cache broadcast).
    pub network_bytes: u64,
    /// Peak working-set bytes observed by any single reduce group
    /// (after overhead): the measured counterpart of the paper's
    /// working-set-size metric.
    pub max_working_set_bytes: u64,
    /// Peak cluster-wide intermediate storage during the job: the measured
    /// counterpart of the paper's replication-factor cost.
    pub peak_intermediate_bytes: u64,
    /// Sum of simulated network transfer time, microseconds.
    pub simulated_network_time_us: u64,
    /// Wall-clock execution time of the job, microseconds.
    pub wall_time_us: u64,
}
