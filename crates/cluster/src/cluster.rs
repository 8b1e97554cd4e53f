//! The assembled cluster: nodes + DFS + network + failure injection,
//! over a pluggable [`Transport`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use pmr_obs::Telemetry;

use crate::config::{ClusterConfig, TransportKind};
use crate::dfs::Dfs;
use crate::error::{ClusterError, Result};
use crate::failure::{ChaosPlan, FailureInjector};
use crate::ids::NodeId;
use crate::memory::MemoryGauge;
use crate::network::TrafficAccountant;
use crate::node::Node;
use crate::transport::{
    InProcessTransport, MultiProcessTransport, Transport, WireSnapshot, WorkerInfo,
};

/// Mutable state of the deterministic crash schedule.
#[derive(Debug)]
struct ChaosRuntime {
    /// `(completed-task threshold, victim)` pairs, ascending.
    plan: Vec<(u64, NodeId)>,
    /// Index of the next crash to fire.
    next: usize,
    /// Tasks committed so far (drives the thresholds).
    completed: u64,
}

/// A simulated shared-nothing cluster (paper §3's execution model).
pub struct Cluster {
    config: ClusterConfig,
    transport: Arc<dyn Transport>,
    nodes: Vec<Arc<Node>>,
    dfs: Dfs,
    traffic: TrafficAccountant,
    injector: FailureInjector,
    telemetry: Telemetry,
    /// Model-charged intermediate bytes with no physical backing (e.g.
    /// payload bytes an id-only shuffle no longer materializes). Counted
    /// into [`Cluster::intermediate_bytes`] so the paper's `maxis` cap
    /// keeps billing the full replicated volume.
    charged_extra: std::sync::atomic::AtomicU64,
    chaos: Mutex<ChaosRuntime>,
    crashes: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .field("transport", &self.transport.name())
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster from a configuration.
    ///
    /// Panics when the transport cannot be brought up (only possible with
    /// [`TransportKind::Process`]); use [`Cluster::try_new`] to handle
    /// that gracefully.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster::try_new(config).expect("cluster construction failed")
    }

    /// Builds a cluster from a configuration, surfacing transport
    /// bring-up failures (missing worker binary, socket trouble,
    /// handshake timeout) as [`ClusterError::Transport`].
    pub fn try_new(config: ClusterConfig) -> Result<Cluster> {
        assert!(config.num_nodes > 0, "cluster needs at least one node");
        let transport: Arc<dyn Transport> = match config.transport {
            TransportKind::InProcess => Arc::new(InProcessTransport::new(config.num_nodes)),
            TransportKind::Process { socket } => {
                Arc::new(MultiProcessTransport::spawn(config.num_nodes, socket)?)
            }
        };
        let nodes: Vec<Arc<Node>> = (0..config.num_nodes)
            .map(|i| {
                let id = NodeId(i as u32);
                Arc::new(Node::with_store(id, config.node.storage_capacity, transport.store(id)))
            })
            .collect();
        let stores = (0..config.num_nodes).map(|i| transport.store(NodeId(i as u32))).collect();
        let dfs = Dfs::with_stores(config.dfs_block_size, config.dfs_replication, stores);
        let injector = FailureInjector::new(config.task_failure_probability, config.seed);
        let plan = if config.chaos_nodes > 0 {
            ChaosPlan::new(config.chaos_nodes, config.chaos_seed, config.num_nodes)
                .crashes()
                .to_vec()
        } else {
            Vec::new()
        };
        Ok(Cluster {
            config,
            transport,
            nodes,
            dfs,
            traffic: TrafficAccountant::new(),
            injector,
            telemetry: Telemetry::disabled(),
            charged_extra: std::sync::atomic::AtomicU64::new(0),
            chaos: Mutex::new(ChaosRuntime { plan, next: 0, completed: 0 }),
            crashes: AtomicU64::new(0),
        })
    }

    /// The transport backing node-local storage.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// True when node storage lives in separate worker processes.
    pub fn is_distributed(&self) -> bool {
        self.transport.is_distributed()
    }

    /// Payload bytes physically serialized over worker sockets so far
    /// (all zero on the in-process transport).
    pub fn wire_snapshot(&self) -> WireSnapshot {
        self.transport.wire_snapshot()
    }

    /// The worker process table (empty on the in-process transport).
    pub fn workers(&self) -> Vec<WorkerInfo> {
        self.transport.workers()
    }

    /// Ships `data` once to every live worker's store under `name` —
    /// the §5.1 element-store distribution step. The shipment is
    /// *unledgered*: physically measured on the wire (the `seed` class)
    /// but never billed as intermediate data, so charged counters stay
    /// identical across transports. A no-op in-process, where every
    /// "worker" already shares the coordinator's memory.
    pub fn seed_workers(&self, name: &str, data: &Bytes) -> Result<()> {
        if !self.is_distributed() {
            return Ok(());
        }
        for node in self.live_nodes() {
            self.transport.store(node).put(name, data.clone())?;
        }
        Ok(())
    }

    /// Attaches a telemetry handle (builder-style, before the cluster is
    /// shared): the DFS emits placement samples and the traffic accountant
    /// transfer samples into it, and the engine picks it up from here for
    /// task spans and job phases. A distributed transport records each
    /// RPC it issues to a worker, and each worker it loses, into it too.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Cluster {
        self.traffic.set_telemetry(telemetry.clone());
        self.dfs.set_telemetry(telemetry.clone());
        self.transport.set_telemetry(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle events are recorded into (disabled unless
    /// attached with [`Cluster::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Handle to a node.
    pub fn node(&self, id: NodeId) -> &Arc<Node> {
        &self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// The distributed file system.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The network traffic accountant.
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.traffic
    }

    /// The failure injector.
    pub fn injector(&self) -> &FailureInjector {
        &self.injector
    }

    /// Creates a task-scoped memory gauge honoring the configured `maxws`.
    pub fn task_memory_gauge(&self) -> MemoryGauge {
        MemoryGauge::new(self.config.node.task_memory_budget)
    }

    /// True iff the node has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_alive()
    }

    /// Ids of nodes that have not crashed, ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.is_alive()).map(|n| n.id()).collect()
    }

    /// Number of node crashes so far.
    pub fn node_crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Notes one committed task against the chaos schedule; when the
    /// completion count reaches the next planned crash point, the planned
    /// victim crashes. Returns the victim if a crash fired.
    ///
    /// Called by the engine each time a task attempt commits. With chaos
    /// disabled (`chaos_nodes == 0`) the plan is empty and this is a cheap
    /// counter bump.
    pub fn note_task_completion(&self) -> Option<NodeId> {
        let victim = {
            let mut rt = self.chaos.lock();
            rt.completed += 1;
            if rt.next < rt.plan.len() && rt.completed >= rt.plan[rt.next].0 {
                let v = rt.plan[rt.next].1;
                rt.next += 1;
                Some(v)
            } else {
                None
            }
        };
        victim.filter(|&v| self.crash_node(v))
    }

    /// Crashes a node: its local files (map outputs, cache copies) are
    /// lost, its DFS replicas are re-replicated onto live nodes (charged
    /// through the traffic accountant), and it accepts no further work.
    ///
    /// Refuses to crash the last live node (the cluster must stay able to
    /// finish the job) and is idempotent per node. Returns whether the node
    /// actually crashed.
    pub fn crash_node(&self, id: NodeId) -> bool {
        let node = &self.nodes[id.index()];
        if !node.is_alive() || self.nodes.iter().filter(|n| n.is_alive()).count() <= 1 {
            return false;
        }
        let (lost_files, lost_bytes) = node.crash();
        let (re_blocks, re_bytes) =
            self.dfs.handle_node_crash(id, &self.traffic, &self.config.network);
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.telemetry.event(
            "node.crash",
            id.0,
            0,
            format!(
                "{id} crashed: lost {lost_files} local files ({lost_bytes} B); \
                 re-replicated {re_blocks} DFS blocks ({re_bytes} B)"
            ),
        );
        true
    }

    /// Bytes of node-local (intermediate) data currently billed across all
    /// nodes: physically materialized bytes plus any outstanding charged
    /// extra (see [`Cluster::charge_intermediate`]).
    pub fn intermediate_bytes(&self) -> u64 {
        let physical: u64 = self.nodes.iter().map(|n| n.storage_used()).sum();
        physical + self.charged_extra.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bills `bytes` of intermediate storage that the paper's cost model
    /// charges but no file materializes (id-only shuffle standing in for
    /// replicated payloads). Balanced by [`Cluster::uncharge_intermediate`].
    pub fn charge_intermediate(&self, bytes: u64) {
        self.charged_extra.fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    /// Releases a prior [`Cluster::charge_intermediate`] billing (saturating).
    pub fn uncharge_intermediate(&self, bytes: u64) {
        let _ = self.charged_extra.fetch_update(
            std::sync::atomic::Ordering::Relaxed,
            std::sync::atomic::Ordering::Relaxed,
            |cur| Some(cur.saturating_sub(bytes)),
        );
    }

    /// Checks the cluster-wide intermediate-storage cap (`maxis`): errors if
    /// current usage exceeds it.
    pub fn check_intermediate_capacity(&self) -> Result<()> {
        if let Some(cap) = self.config.intermediate_storage_capacity {
            let used = self.intermediate_bytes();
            if used > cap {
                return Err(ClusterError::IntermediateStorageExceeded {
                    requested: used,
                    capacity: cap,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn assembly() {
        let c = Cluster::new(ClusterConfig::with_nodes(3));
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.node(NodeId(1)).id(), NodeId(1));
        assert_eq!(c.intermediate_bytes(), 0);
        c.check_intermediate_capacity().unwrap();
    }

    #[test]
    fn charged_intermediate_counts_against_cap() {
        let c = Cluster::new(ClusterConfig::with_nodes(2).intermediate_storage(10));
        c.charge_intermediate(16);
        assert_eq!(c.intermediate_bytes(), 16);
        assert!(c.check_intermediate_capacity().is_err());
        c.uncharge_intermediate(16);
        assert_eq!(c.intermediate_bytes(), 0);
        c.check_intermediate_capacity().unwrap();
        // Uncharging below zero saturates rather than wrapping.
        c.uncharge_intermediate(1);
        assert_eq!(c.intermediate_bytes(), 0);
    }

    #[test]
    fn intermediate_cap_detected() {
        let c = Cluster::new(ClusterConfig::with_nodes(2).intermediate_storage(10));
        c.node(NodeId(0)).write_local("a", Bytes::from(vec![0u8; 8])).unwrap();
        c.check_intermediate_capacity().unwrap();
        c.node(NodeId(1)).write_local("b", Bytes::from(vec![0u8; 8])).unwrap();
        assert!(matches!(
            c.check_intermediate_capacity(),
            Err(ClusterError::IntermediateStorageExceeded { requested: 16, capacity: 10 })
        ));
    }

    #[test]
    fn crash_node_loses_local_files_and_marks_dead() {
        let c = Cluster::new(ClusterConfig::with_nodes(3));
        c.node(NodeId(1)).write_local("tmp", Bytes::from(vec![0u8; 8])).unwrap();
        assert!(c.crash_node(NodeId(1)));
        assert!(!c.is_alive(NodeId(1)));
        assert_eq!(c.live_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(c.node_crashes(), 1);
        assert_eq!(c.node(NodeId(1)).storage_used(), 0);
        assert!(matches!(
            c.node(NodeId(1)).write_local("x", Bytes::new()),
            Err(ClusterError::NodeDead(NodeId(1)))
        ));
        // Idempotent.
        assert!(!c.crash_node(NodeId(1)));
        assert_eq!(c.node_crashes(), 1);
    }

    #[test]
    fn last_live_node_cannot_crash() {
        let c = Cluster::new(ClusterConfig::with_nodes(2));
        assert!(c.crash_node(NodeId(0)));
        assert!(!c.crash_node(NodeId(1)), "the last live node must survive");
        assert!(c.is_alive(NodeId(1)));
    }

    #[test]
    fn chaos_schedule_fires_on_task_completions() {
        let c = Cluster::new(ClusterConfig::with_nodes(4).chaos(2, 42));
        let mut victims = Vec::new();
        for _ in 0..64 {
            if let Some(v) = c.note_task_completion() {
                victims.push(v);
            }
        }
        assert_eq!(victims.len(), 2, "both planned crashes fire");
        assert_eq!(c.node_crashes(), 2);
        assert_eq!(c.live_nodes().len(), 2);
        // Deterministic: a fresh cluster with the same seed crashes the
        // same nodes at the same points.
        let c2 = Cluster::new(ClusterConfig::with_nodes(4).chaos(2, 42));
        let mut victims2 = Vec::new();
        for _ in 0..64 {
            if let Some(v) = c2.note_task_completion() {
                victims2.push(v);
            }
        }
        assert_eq!(victims, victims2);
    }

    #[test]
    fn no_chaos_means_no_crashes() {
        let c = Cluster::new(ClusterConfig::with_nodes(2));
        for _ in 0..100 {
            assert_eq!(c.note_task_completion(), None);
        }
        assert_eq!(c.node_crashes(), 0);
    }

    #[test]
    fn memory_gauge_uses_config() {
        let c = Cluster::new(ClusterConfig::with_nodes(1).task_memory_budget(64));
        let g = c.task_memory_gauge();
        assert!(g.try_reserve(64).is_ok());
        assert!(g.try_reserve(1).is_err());
    }
}
