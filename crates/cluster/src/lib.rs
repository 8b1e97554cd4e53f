//! # pmr-cluster — shared-nothing cluster simulator
//!
//! The execution substrate for the MapReduce framework in `pmr-mapreduce`,
//! modeling the environment of *Pairwise Element Computation with MapReduce*
//! (Kiefer, Volk, Lehner; HPDC 2010, §3 and §6):
//!
//! * [`node`] — worker nodes with local file stores and storage ledgers;
//! * [`dfs`] — an in-memory distributed file system with block placement,
//!   replication, record-aligned input splits, and locality accounting;
//! * [`network`] — traffic accounting and a latency/bandwidth cost model
//!   (the paper's *communication cost* metric);
//! * [`memory`] — per-task working-set budgets (the paper's `maxws`);
//! * [`failure`] — deterministic task-failure injection and seeded
//!   node-crash schedules (chaos testing);
//! * [`codec`] — the wire codecs ([`codec::Wire`], [`codec::RawRecord`])
//!   shared by the MapReduce engine and the transport frames;
//! * [`transport`] — the [`Transport`] seam: node-local storage either
//!   in-process (simulated, deterministic) or in spawned worker processes
//!   speaking length-prefixed frames over Unix-domain/TCP sockets;
//! * [`cluster`] — the assembled [`Cluster`], including the cluster-wide
//!   intermediate-storage cap (the paper's `maxis`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod config;
pub mod dfs;
pub mod error;
pub mod failure;
pub mod ids;
pub mod memory;
pub mod network;
pub mod node;
pub mod transport;

pub use cluster::Cluster;
pub use codec::{CodecError, RawRecord, Wire};
pub use config::{ClusterConfig, NodeConfig, SocketMode, TransportKind};
pub use dfs::{Dfs, InputSplit};
pub use error::{ClusterError, Result};
pub use failure::{ChaosPlan, FailureInjector};
pub use ids::{NodeId, TaskAttemptId, TaskKind};
pub use memory::MemoryGauge;
pub use network::{NetworkModel, TrafficAccountant};
pub use node::Node;
pub use pmr_obs::Telemetry;
pub use transport::{NodeStore, Transport, WireSnapshot, WorkerInfo};
