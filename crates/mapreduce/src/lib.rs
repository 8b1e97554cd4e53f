//! # pmr-mapreduce — an in-process MapReduce framework
//!
//! A faithful, instrumented miniature of the Hadoop MapReduce model the
//! paper (*Pairwise Element Computation with MapReduce*, HPDC 2010)
//! implements against, running on the simulated shared-nothing cluster of
//! `pmr-cluster`:
//!
//! * typed [`api::Mapper`] / [`api::Reducer`] user code and a distributed
//!   cache (paper §5.1) broadcast to every live node and charged;
//! * one fixed map-output path: emit into partition buffers, sort each
//!   partition, frame it, and write it to node-local storage, where it
//!   counts against the node's storage capacity;
//! * real serialized intermediate data ([`codec`]) with hash partitioning
//!   ([`partition`]), per-partition byte-order sorting, and a shuffle that
//!   moves bytes between node-local stores with full network accounting;
//! * working-set memory budgets (`maxws`) enforced per reduce group and an
//!   intermediate-storage cap (`maxis`) enforced cluster-wide — the two
//!   limits the paper's §6 feasibility analysis revolves around;
//! * deterministic task retry under injected failures;
//! * Hadoop-style [`counters`] from which the experiment harness *measures*
//!   the paper's Table-1 metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::too_many_arguments)]

pub mod api;
pub mod counters;
pub mod engine;
pub mod error;
pub mod io;
pub mod job;
pub mod partition;

pub use api::{IdentityMapper, MapContext, Mapper, ReduceContext, Reducer, Values};
pub use codec::{
    decode_raw_stream, decode_record_stream, encode_record_stream, CodecError, RawRecord, Wire,
};
pub use counters::{builtin, Counters};
pub use engine::{Engine, INTERMEDIATE_PEAK_COUNTER, WS_PEAK_COUNTER};
pub use error::{MrError, Result};
pub use io::{read_output, read_records, write_records, write_sharded};
pub use job::{JobOutput, JobSpec, JobStats};
pub use partition::{fnv1a, HashPartitioner, ModuloPartitioner, Partitioner};
/// The wire codecs, relocated to `pmr-cluster` so the transport layer can
/// frame RPCs with the same encoding; re-exported here so every historical
/// `pmr_mapreduce::codec::…` path keeps working.
pub use pmr_cluster::codec;
