//! Cluster and node configuration.
//!
//! The defaults model the environment of the paper's §6 evaluation scaled
//! down to a laptop: a handful of nodes, a per-task working-set budget
//! (`maxws`), and a cluster-wide intermediate-storage budget (`maxis`).

use crate::network::NetworkModel;

/// Socket family used by the multi-process transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketMode {
    /// Unix-domain sockets (the default; lowest overhead, Unix only).
    Uds,
    /// TCP over loopback (the portable fallback).
    Tcp,
}

/// Where node-local storage physically lives (see [`crate::transport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The simulated in-process cluster — deterministic, the default, and
    /// byte-identical to the historical behavior.
    InProcess,
    /// One spawned `pmr-worker` process per node; every store operation
    /// crosses a real socket.
    Process {
        /// Socket family for the worker connections.
        socket: SocketMode,
    },
}

/// Per-node resource configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Per-task main-memory budget in bytes — the paper's `maxws`.
    /// `None` disables enforcement.
    pub task_memory_budget: Option<u64>,
    /// Local storage capacity for intermediate data, in bytes.
    /// `None` disables enforcement.
    pub storage_capacity: Option<u64>,
    /// Concurrent map-task slots on this node.
    pub map_slots: usize,
    /// Concurrent reduce-task slots on this node.
    pub reduce_slots: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            task_memory_budget: None,
            storage_capacity: None,
            map_slots: 2,
            reduce_slots: 2,
        }
    }
}

/// Whole-cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes (`n` in the paper).
    pub num_nodes: usize,
    /// Per-node resources.
    pub node: NodeConfig,
    /// Network cost model for shuffle / DFS-remote-read accounting.
    pub network: NetworkModel,
    /// DFS block size in bytes.
    pub dfs_block_size: u64,
    /// DFS replication factor (each block stored on this many nodes).
    pub dfs_replication: usize,
    /// Cluster-wide cap on materialized intermediate data — the paper's
    /// `maxis`. `None` disables enforcement.
    pub intermediate_storage_capacity: Option<u64>,
    /// Probability in `[0, 1]` that a task attempt fails (injected,
    /// deterministic per attempt id); retried attempts use fresh draws.
    pub task_failure_probability: f64,
    /// Maximum attempts per task before the job is declared failed.
    pub max_task_attempts: u32,
    /// Seed for deterministic failure injection and DFS placement jitter.
    pub seed: u64,
    /// Number of nodes to crash (chaos injection) over the cluster's
    /// lifetime. Clamped so at least one node survives. `0` disables
    /// chaos entirely.
    pub chaos_nodes: usize,
    /// Seed for the deterministic crash schedule (victim choice and crash
    /// points). Independent of `seed` so chaos can vary while task-failure
    /// draws stay fixed.
    pub chaos_seed: u64,
    /// Speculative execution: when a running task's elapsed time exceeds
    /// this multiple of the median completed-task time, a backup attempt is
    /// launched on another node. `None` disables speculation.
    pub speculation_multiplier: Option<f64>,
    /// Where node-local storage lives: simulated in-process (default) or
    /// in spawned worker processes behind real sockets.
    pub transport: TransportKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_nodes: 4,
            node: NodeConfig::default(),
            network: NetworkModel::default(),
            dfs_block_size: 1 << 20, // 1 MiB
            dfs_replication: 2,
            intermediate_storage_capacity: None,
            task_failure_probability: 0.0,
            max_task_attempts: 4,
            seed: 0x9E37_79B9_7F4A_7C15,
            chaos_nodes: 0,
            chaos_seed: 0xDEAD_BEEF_0BAD_C0DE,
            speculation_multiplier: None,
            transport: TransportKind::InProcess,
        }
    }
}

impl ClusterConfig {
    /// A small cluster with `n` nodes and otherwise default settings.
    pub fn with_nodes(n: usize) -> Self {
        ClusterConfig { num_nodes: n, ..Default::default() }
    }

    /// Sets the per-task memory budget (`maxws`), builder-style.
    pub fn task_memory_budget(mut self, bytes: u64) -> Self {
        self.node.task_memory_budget = Some(bytes);
        self
    }

    /// Sets the cluster-wide intermediate-storage cap (`maxis`),
    /// builder-style.
    pub fn intermediate_storage(mut self, bytes: u64) -> Self {
        self.intermediate_storage_capacity = Some(bytes);
        self
    }

    /// Sets the failure-injection probability, builder-style.
    pub fn failure_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.task_failure_probability = p;
        self
    }

    /// Sets the RNG seed, builder-style.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables chaos injection: crash `nodes` nodes at seeded points,
    /// builder-style.
    pub fn chaos(mut self, nodes: usize, seed: u64) -> Self {
        self.chaos_nodes = nodes;
        self.chaos_seed = seed;
        self
    }

    /// Enables speculative execution with the given slowness multiplier,
    /// builder-style.
    pub fn speculation(mut self, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0, "speculation multiplier must be >= 1");
        self.speculation_multiplier = Some(multiplier);
        self
    }

    /// Selects the transport backing node-local storage, builder-style.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.num_nodes * self.node.map_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::with_nodes(8)
            .task_memory_budget(200 << 20)
            .intermediate_storage(1 << 40)
            .failure_probability(0.1)
            .seed(42);
        assert_eq!(c.num_nodes, 8);
        assert_eq!(c.node.task_memory_budget, Some(200 << 20));
        assert_eq!(c.intermediate_storage_capacity, Some(1 << 40));
        assert_eq!(c.task_failure_probability, 0.1);
        assert_eq!(c.total_map_slots(), 16);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = ClusterConfig::default().failure_probability(1.5);
    }

    #[test]
    fn chaos_and_speculation_builders() {
        let c = ClusterConfig::with_nodes(4).chaos(1, 7).speculation(2.5);
        assert_eq!(c.chaos_nodes, 1);
        assert_eq!(c.chaos_seed, 7);
        assert_eq!(c.speculation_multiplier, Some(2.5));
        // Defaults keep chaos off.
        assert_eq!(ClusterConfig::default().chaos_nodes, 0);
        assert_eq!(ClusterConfig::default().speculation_multiplier, None);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn rejects_bad_speculation_multiplier() {
        let _ = ClusterConfig::default().speculation(0.5);
    }

    #[test]
    fn transport_defaults_to_in_process() {
        assert_eq!(ClusterConfig::default().transport, TransportKind::InProcess);
        let c = ClusterConfig::with_nodes(2)
            .transport(TransportKind::Process { socket: SocketMode::Tcp });
        assert_eq!(c.transport, TransportKind::Process { socket: SocketMode::Tcp });
    }
}
