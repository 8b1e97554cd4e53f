//! An in-memory distributed file system.
//!
//! Models the premise of the paper's execution model (§3): "The input
//! dataset is stored as files, distributed on the participating nodes.
//! Random access to single elements may not be possible" — files are
//! immutable byte sequences split into fixed-size blocks, each replicated on
//! a few nodes; readers on non-replica nodes pay network cost; MapReduce
//! input splits are derived from block boundaries (record-aligned when the
//! writer recorded record offsets).
//!
//! Since the transport refactor, block *metadata* (offsets, lengths,
//! replica lists, record offsets) lives here on the coordinator while block
//! *payloads* live in the per-node [`NodeStore`]s under `dfs/…` keys — the
//! same stores that hold MapReduce intermediate files, so on the
//! multi-process transport DFS reads and re-replication physically cross
//! the worker sockets. DFS payloads are deliberately *unledgered*: they are
//! input data, not intermediate data, and must not count toward the
//! paper's `maxis` accounting.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use pmr_obs::Telemetry;

use crate::error::{ClusterError, Result};
use crate::ids::NodeId;
use crate::network::{NetworkModel, TrafficAccountant};
use crate::transport::{InProcessStore, NodeStore};

/// One replicated block of a DFS file (metadata only — the payload lives
/// in the replica nodes' stores under `key`).
#[derive(Debug, Clone)]
struct DfsBlock {
    /// Byte offset of this block within the file.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
    /// Store key of the payload on every replica node.
    key: String,
    replicas: Vec<NodeId>,
}

/// One immutable DFS file.
#[derive(Debug, Clone)]
struct DfsFile {
    blocks: Vec<DfsBlock>,
    len: u64,
    /// Byte offsets of record starts (ascending, starting at 0), when the
    /// writer supplied them. Enables record-aligned input splits.
    record_offsets: Option<Arc<Vec<u64>>>,
}

/// A contiguous slice of a DFS file assigned to one map task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// File the split belongs to.
    pub path: String,
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Nodes holding a replica of the split's first block — scheduling
    /// there makes the read local.
    pub preferred_nodes: Vec<NodeId>,
}

/// The distributed file system.
///
/// ```
/// use bytes::Bytes;
/// use pmr_cluster::Dfs;
///
/// let dfs = Dfs::new(4, 16, 2); // 4 nodes, 16-B blocks, 2 replicas
/// dfs.create("data", Bytes::from(vec![7u8; 100])).unwrap();
/// assert_eq!(dfs.len("data").unwrap(), 100);
/// let splits = dfs.splits("data", 3).unwrap();
/// assert_eq!(splits.iter().map(|s| s.len).sum::<u64>(), 100);
/// ```
pub struct Dfs {
    block_size: u64,
    replication: usize,
    num_nodes: usize,
    files: RwLock<HashMap<String, DfsFile>>,
    /// Per-node payload stores, indexed by node id.
    stores: Vec<Arc<dyn NodeStore>>,
    placement: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// `dead[i]` is set once node `i` crashes: it receives no new replicas
    /// and its existing replicas are re-replicated elsewhere.
    dead: RwLock<Vec<bool>>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Dfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfs")
            .field("block_size", &self.block_size)
            .field("replication", &self.replication)
            .field("num_nodes", &self.num_nodes)
            .field("files", &self.files.read().len())
            .finish()
    }
}

impl Dfs {
    /// Creates a self-contained DFS over `num_nodes` nodes, with private
    /// in-process payload stores (test/driver use).
    pub fn new(num_nodes: usize, block_size: u64, replication: usize) -> Dfs {
        let stores = (0..num_nodes)
            .map(|i| Arc::new(InProcessStore::new(NodeId(i as u32))) as Arc<dyn NodeStore>)
            .collect();
        Dfs::with_stores(block_size, replication, stores)
    }

    /// Creates a DFS whose block payloads live in the given per-node
    /// transport stores (one per node, indexed by node id). This is how
    /// [`crate::Cluster`] shares a single set of stores between the DFS and
    /// node-local intermediate files.
    pub fn with_stores(
        block_size: u64,
        replication: usize,
        stores: Vec<Arc<dyn NodeStore>>,
    ) -> Dfs {
        let num_nodes = stores.len();
        assert!(num_nodes > 0 && block_size > 0 && replication > 0);
        Dfs {
            block_size,
            replication: replication.min(num_nodes),
            num_nodes,
            files: RwLock::new(HashMap::new()),
            stores,
            placement: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            dead: RwLock::new(vec![false; num_nodes]),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Nodes currently eligible to hold replicas.
    fn live_nodes(&self) -> Vec<NodeId> {
        let dead = self.dead.read();
        (0..self.num_nodes as u32).map(NodeId).filter(|n| !dead[n.index()]).collect()
    }

    /// True iff the node has not crashed (from the DFS's point of view).
    pub fn is_node_live(&self, node: NodeId) -> bool {
        !self.dead.read()[node.index()]
    }

    /// Attaches a telemetry handle: every subsequent block-replica
    /// placement is also emitted as a telemetry event.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Creates an immutable file. Fails if the path exists.
    pub fn create(&self, path: &str, data: Bytes) -> Result<()> {
        self.create_with_records(path, data, None)
    }

    /// Creates an immutable file and remembers record-start offsets so
    /// [`Dfs::splits`] can cut on record boundaries.
    ///
    /// `record_offsets` must be ascending and start at 0 (checked with
    /// `debug_assert`); pass `None` for raw byte files.
    pub fn create_with_records(
        &self,
        path: &str,
        data: Bytes,
        record_offsets: Option<Vec<u64>>,
    ) -> Result<()> {
        if let Some(offs) = &record_offsets {
            debug_assert!(offs.windows(2).all(|w| w[0] < w[1]), "record offsets must ascend");
            debug_assert!(offs.first().is_none_or(|&o| o == 0));
            debug_assert!(offs.last().is_none_or(|&o| o <= data.len() as u64));
        }
        let mut files = self.files.write();
        if files.contains_key(path) {
            return Err(ClusterError::FileExists(path.to_string()));
        }
        let len = data.len() as u64;
        let mut blocks = Vec::new();
        let mut off = 0u64;
        // Replicas only land on live nodes. When nothing has crashed this
        // reduces exactly to round-robin over all nodes.
        let live = self.live_nodes();
        assert!(!live.is_empty(), "cannot create DFS files with every node dead");
        let replication = self.replication.min(live.len());
        // Zero-length files get a single empty block so they still have a
        // placement (and splits() yields nothing).
        loop {
            let end = (off + self.block_size).min(len);
            let slice = data.slice(off as usize..end as usize);
            let start = self.placement.fetch_add(1, Ordering::Relaxed) as usize;
            let replicas: Vec<NodeId> =
                (0..replication).map(|i| live[(start + i) % live.len()]).collect();
            let key = format!("dfs/{path}/{off}");
            for (i, r) in replicas.iter().enumerate() {
                self.telemetry.placement(r.0, slice.len() as u64);
                if slice.is_empty() {
                    continue;
                }
                if let Err(e) = self.stores[r.index()].put(&key, slice.clone()) {
                    // No file will point at what this call stored: take it
                    // back, this block's replicas so far included.
                    let replicas = replicas[..i].to_vec();
                    blocks.push(DfsBlock { offset: off, len: slice.len() as u64, key, replicas });
                    self.drop_payloads(&blocks);
                    return Err(e);
                }
            }
            blocks.push(DfsBlock { offset: off, len: slice.len() as u64, key, replicas });
            off = end;
            if off >= len {
                break;
            }
        }
        self.bytes_written.fetch_add(len, Ordering::Relaxed);
        files.insert(
            path.to_string(),
            DfsFile { blocks, len, record_offsets: record_offsets.map(Arc::new) },
        );
        Ok(())
    }

    /// Fetches one block's payload, preferring the reader-local replica and
    /// falling back across the remaining replicas when a store has died
    /// under us (replica-resilient read).
    fn fetch_block(&self, b: &DfsBlock, reader: Option<NodeId>) -> Result<Bytes> {
        if b.len == 0 {
            return Ok(Bytes::new());
        }
        let local = reader.filter(|r| b.replicas.contains(r));
        let rest = b.replicas.iter().copied().filter(|r| Some(*r) != local);
        for r in local.into_iter().chain(rest) {
            if let Ok(data) = self.stores[r.index()].get(&b.key) {
                return Ok(data);
            }
        }
        Err(ClusterError::NoSuchFile(format!("dfs block {}", b.key)))
    }

    /// Concatenates `[offset, offset+len)` out of a file's blocks.
    fn concat_range(
        &self,
        f: &DfsFile,
        offset: u64,
        len: u64,
        reader: Option<NodeId>,
    ) -> Result<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        // Fast path: a single block covers the whole range.
        for b in &f.blocks {
            if b.offset <= offset && offset + len <= b.offset + b.len {
                let data = self.fetch_block(b, reader)?;
                let s = (offset - b.offset) as usize;
                return Ok(data.slice(s..s + len as usize));
            }
        }
        let mut out = BytesMut::with_capacity(len as usize);
        for b in &f.blocks {
            let b_end = b.offset + b.len;
            if b_end <= offset || b.offset >= offset + len {
                continue;
            }
            let data = self.fetch_block(b, reader)?;
            let s = offset.max(b.offset);
            let e = b_end.min(offset + len);
            out.extend_from_slice(&data[(s - b.offset) as usize..(e - b.offset) as usize]);
        }
        Ok(out.freeze())
    }

    /// True iff the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// File length in bytes.
    pub fn len(&self, path: &str) -> Result<u64> {
        self.files
            .read()
            .get(path)
            .map(|f| f.len)
            .ok_or_else(|| ClusterError::NoSuchFile(path.to_string()))
    }

    /// True iff no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }

    /// Reads a whole file without network accounting (test/driver use).
    pub fn read(&self, path: &str) -> Result<Bytes> {
        let files = self.files.read();
        let f = files.get(path).ok_or_else(|| ClusterError::NoSuchFile(path.to_string()))?;
        self.concat_range(f, 0, f.len, None)
    }

    /// Reads `[offset, offset+len)` of a file as node `reader`, charging
    /// network cost for every block that has no replica on `reader`.
    pub fn read_range_from(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        reader: NodeId,
        traffic: &TrafficAccountant,
        model: &NetworkModel,
    ) -> Result<Bytes> {
        let files = self.files.read();
        let f = files.get(path).ok_or_else(|| ClusterError::NoSuchFile(path.to_string()))?;
        assert!(offset + len <= f.len, "read past end of {path}");
        for b in &f.blocks {
            let b_end = b.offset + b.len;
            if b_end <= offset || b.offset >= offset + len || b.len == 0 {
                continue;
            }
            let overlap = b_end.min(offset + len) - b.offset.max(offset);
            // Replica lists only ever reference live nodes (crash handling
            // rewrites them), so the first replica is a valid remote source.
            let src = if b.replicas.contains(&reader) {
                reader
            } else {
                b.replicas.first().copied().unwrap_or(reader)
            };
            traffic.record(model, src, reader, overlap);
        }
        self.bytes_read.fetch_add(len, Ordering::Relaxed);
        self.concat_range(f, offset, len, Some(reader))
    }

    /// Record-start offsets stored for a file, if any.
    pub fn record_offsets(&self, path: &str) -> Result<Option<Arc<Vec<u64>>>> {
        let files = self.files.read();
        let f = files.get(path).ok_or_else(|| ClusterError::NoSuchFile(path.to_string()))?;
        Ok(f.record_offsets.clone())
    }

    /// Deletes a file (idempotent), dropping its payloads from the replica
    /// stores: one prefix remove per replica node, or one remove per block
    /// replica when another file's blocks share the prefix (a file under
    /// `{path}/`).
    pub fn delete(&self, path: &str) {
        let mut files = self.files.write();
        let Some(f) = files.remove(path) else { return };
        let dir = format!("{path}/");
        if files.keys().any(|p| p.starts_with(&dir)) {
            self.drop_payloads(&f.blocks);
            return;
        }
        let nodes: BTreeSet<NodeId> =
            f.blocks.iter().filter(|b| b.len > 0).flat_map(|b| b.replicas.clone()).collect();
        for n in nodes {
            // Best-effort, like `drop_payloads`.
            let _ = self.stores[n.index()].remove_prefix(&format!("dfs/{dir}"));
        }
    }

    /// Removes the blocks' payloads from their replica stores
    /// (best-effort — a dead replica has already lost them).
    fn drop_payloads(&self, blocks: &[DfsBlock]) {
        for b in blocks.iter().filter(|b| b.len > 0) {
            for r in &b.replicas {
                let _ = self.stores[r.index()].remove(&b.key);
            }
        }
    }

    /// Lists paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> =
            self.files.read().keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        v.sort();
        v
    }

    /// Splits a file into about `desired` contiguous ranges for map tasks.
    ///
    /// Boundaries are aligned to record starts when the file has record
    /// offsets (no record is ever split across two map tasks), otherwise to
    /// block boundaries. Every byte belongs to exactly one split.
    pub fn splits(&self, path: &str, desired: usize) -> Result<Vec<InputSplit>> {
        let files = self.files.read();
        let f = files.get(path).ok_or_else(|| ClusterError::NoSuchFile(path.to_string()))?;
        if f.len == 0 {
            return Ok(Vec::new());
        }
        let desired = desired.max(1) as u64;
        let target = f.len.div_ceil(desired);

        // Candidate boundaries: record starts if present, else block starts.
        let boundaries: Vec<u64> = match &f.record_offsets {
            Some(offs) => offs.as_ref().clone(),
            None => f.blocks.iter().map(|b| b.offset).collect(),
        };

        let mut splits = Vec::new();
        let mut start = 0u64;
        while start < f.len {
            let want_end = start + target;
            // Smallest boundary ≥ want_end, or EOF.
            let end = if want_end >= f.len {
                f.len
            } else {
                match boundaries.binary_search(&want_end) {
                    Ok(i) => boundaries[i],
                    Err(i) if i < boundaries.len() => boundaries[i],
                    Err(_) => f.len,
                }
            };
            let end = end.max(start + 1).min(f.len);
            let first_block =
                f.blocks.iter().find(|b| b.offset + b.len.max(1) > start).unwrap_or(&f.blocks[0]);
            splits.push(InputSplit {
                path: path.to_string(),
                offset: start,
                len: end - start,
                preferred_nodes: first_block.replicas.clone(),
            });
            start = end;
        }
        Ok(splits)
    }

    /// Handles a node crash: marks the node dead, strips it from every
    /// block's replica list, and re-replicates under-replicated blocks onto
    /// live nodes — physically copying the payload from a surviving
    /// replica's store into the new replica's store, charging the copy
    /// traffic (surviving replica → new replica) through `traffic`. Returns
    /// `(blocks re-replicated, bytes re-replicated)`. Idempotent per node.
    pub fn handle_node_crash(
        &self,
        victim: NodeId,
        traffic: &TrafficAccountant,
        model: &NetworkModel,
    ) -> (u64, u64) {
        {
            let mut dead = self.dead.write();
            if dead[victim.index()] {
                return (0, 0);
            }
            dead[victim.index()] = true;
        }
        let live = self.live_nodes();
        if live.is_empty() {
            // Nothing left to copy to; data on the victim is simply lost.
            return (0, 0);
        }
        let target = self.replication.min(live.len());
        let mut files = self.files.write();
        let mut blocks_fixed = 0u64;
        let mut bytes_fixed = 0u64;
        for f in files.values_mut() {
            for b in f.blocks.iter_mut() {
                let before = b.replicas.len();
                b.replicas.retain(|r| *r != victim);
                if b.replicas.len() == before {
                    continue;
                }
                while b.replicas.len() < target {
                    let start = self.placement.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(dst) = (0..live.len())
                        .map(|i| live[(start + i) % live.len()])
                        .find(|n| !b.replicas.contains(n))
                    else {
                        break;
                    };
                    let len = b.len;
                    // Copy from a surviving replica when one exists; an
                    // empty block costs nothing to restore.
                    if len > 0 {
                        let Some((src, data)) = b
                            .replicas
                            .iter()
                            .find_map(|&r| self.stores[r.index()].get(&b.key).ok().map(|d| (r, d)))
                        else {
                            // No surviving replica still holds the payload;
                            // the block is lost and cannot be restored.
                            break;
                        };
                        if self.stores[dst.index()].put(&b.key, data).is_err() {
                            break;
                        }
                        traffic.record(model, src, dst, len);
                    }
                    self.telemetry.placement(dst.0, len);
                    b.replicas.push(dst);
                    blocks_fixed += 1;
                    bytes_fixed += len;
                }
            }
        }
        drop(files);
        if blocks_fixed > 0 {
            self.telemetry.event_traced(
                "dfs.rereplicate",
                victim.0,
                0,
                format!(
                    "restored replication after {victim}: {blocks_fixed} blocks \
                     ({bytes_fixed} B) copied onto live nodes"
                ),
            );
        }
        (blocks_fixed, bytes_fixed)
    }

    /// Sum of all file lengths currently stored.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.len).sum()
    }

    /// Cumulative bytes written since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Cumulative bytes read since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs() -> Dfs {
        Dfs::new(4, 16, 2)
    }

    #[test]
    fn create_read_roundtrip() {
        let d = dfs();
        let data = Bytes::from((0..100u8).collect::<Vec<_>>());
        d.create("f", data.clone()).unwrap();
        assert_eq!(d.read("f").unwrap(), data);
        assert_eq!(d.len("f").unwrap(), 100);
        assert!(d.exists("f"));
        assert_eq!(d.total_bytes(), 100);
    }

    #[test]
    fn duplicate_create_rejected() {
        let d = dfs();
        d.create("f", Bytes::from_static(b"x")).unwrap();
        assert!(matches!(d.create("f", Bytes::new()), Err(ClusterError::FileExists(_))));
    }

    #[test]
    fn ranged_reads_cross_blocks() {
        let d = dfs(); // block size 16
        let data: Vec<u8> = (0..64).collect();
        d.create("f", Bytes::from(data.clone())).unwrap();
        let t = TrafficAccountant::new();
        let m = NetworkModel::default();
        let got = d.read_range_from("f", 10, 30, NodeId(0), &t, &m).unwrap();
        assert_eq!(&got[..], &data[10..40]);
    }

    #[test]
    fn remote_reads_charge_network() {
        let d = Dfs::new(4, 16, 1); // replication 1: most blocks are remote
        d.create("f", Bytes::from(vec![7u8; 64])).unwrap();
        let t = TrafficAccountant::new();
        let m = NetworkModel::default();
        d.read_range_from("f", 0, 64, NodeId(3), &t, &m).unwrap();
        // 4 blocks with single replicas on nodes 0..3 round-robin; exactly
        // one is local to node 3.
        assert_eq!(t.remote_bytes(), 48);
        assert_eq!(t.local_bytes(), 16);
    }

    #[test]
    fn splits_cover_file_exactly_once() {
        let d = dfs();
        d.create("f", Bytes::from(vec![1u8; 100])).unwrap();
        for desired in [1usize, 2, 3, 7, 100] {
            let splits = d.splits("f", desired).unwrap();
            assert!(!splits.is_empty());
            let mut pos = 0;
            for s in &splits {
                assert_eq!(s.offset, pos, "desired={desired}");
                assert!(s.len > 0);
                pos += s.len;
            }
            assert_eq!(pos, 100, "desired={desired}");
        }
    }

    #[test]
    fn record_aligned_splits_never_cut_records() {
        let d = Dfs::new(2, 8, 1);
        // Ten 7-byte records.
        let offsets: Vec<u64> = (0..10).map(|i| i * 7).collect();
        d.create_with_records("f", Bytes::from(vec![0u8; 70]), Some(offsets.clone())).unwrap();
        let splits = d.splits("f", 4).unwrap();
        let mut pos = 0;
        for s in &splits {
            assert!(offsets.contains(&s.offset) || s.offset == 0);
            pos = s.offset + s.len;
        }
        assert_eq!(pos, 70);
        // Every split boundary is a record start.
        for s in &splits[1..] {
            assert!(offsets.contains(&s.offset), "offset {} not a record start", s.offset);
        }
    }

    #[test]
    fn empty_file_yields_no_splits() {
        let d = dfs();
        d.create("e", Bytes::new()).unwrap();
        assert!(d.splits("e", 4).unwrap().is_empty());
        assert_eq!(d.read("e").unwrap().len(), 0);
    }

    #[test]
    fn list_and_delete() {
        let d = dfs();
        d.create("dir/a", Bytes::from_static(b"1")).unwrap();
        d.create("dir/b", Bytes::from_static(b"2")).unwrap();
        d.create("other", Bytes::from_static(b"3")).unwrap();
        assert_eq!(d.list("dir/"), vec!["dir/a", "dir/b"]);
        d.delete("dir/a");
        assert!(!d.exists("dir/a"));
        assert_eq!(d.total_bytes(), 2);
    }

    #[test]
    fn crash_re_replicates_and_charges_traffic() {
        let d = Dfs::new(4, 16, 2);
        d.create("f", Bytes::from(vec![3u8; 64])).unwrap(); // 4 blocks × 2 replicas
        let t = TrafficAccountant::new();
        let m = NetworkModel::default();
        let (blocks, bytes) = d.handle_node_crash(NodeId(0), &t, &m);
        assert!(blocks > 0, "node 0 held at least one replica");
        assert_eq!(bytes, blocks * 16);
        assert_eq!(t.remote_bytes(), bytes, "every restored copy is a remote transfer");
        assert!(!d.is_node_live(NodeId(0)));
        // All replica lists now reference live nodes only, at full
        // replication, and reads still return the data.
        for s in d.splits("f", 4).unwrap() {
            assert_eq!(s.preferred_nodes.len(), 2);
            assert!(!s.preferred_nodes.contains(&NodeId(0)));
        }
        assert_eq!(d.read("f").unwrap(), Bytes::from(vec![3u8; 64]));
        // Idempotent: a second crash of the same node does nothing.
        assert_eq!(d.handle_node_crash(NodeId(0), &t, &m), (0, 0));
    }

    #[test]
    fn new_files_avoid_dead_nodes() {
        let d = Dfs::new(3, 16, 2);
        let t = TrafficAccountant::new();
        let m = NetworkModel::default();
        d.handle_node_crash(NodeId(1), &t, &m);
        d.create("f", Bytes::from(vec![0u8; 48])).unwrap();
        for s in d.splits("f", 3).unwrap() {
            assert!(!s.preferred_nodes.contains(&NodeId(1)));
        }
    }

    #[test]
    fn replication_capped_at_cluster_size() {
        let d = Dfs::new(2, 16, 5);
        d.create("f", Bytes::from(vec![0u8; 16])).unwrap();
        let splits = d.splits("f", 1).unwrap();
        assert_eq!(splits[0].preferred_nodes.len(), 2);
    }

    #[test]
    fn payloads_live_in_replica_stores_and_survive_one_store_loss() {
        let stores: Vec<Arc<dyn NodeStore>> = (0..3)
            .map(|i| Arc::new(InProcessStore::new(NodeId(i))) as Arc<dyn NodeStore>)
            .collect();
        let d = Dfs::with_stores(16, 2, stores.clone());
        let data = Bytes::from((0..48u8).collect::<Vec<_>>());
        d.create("f", data.clone()).unwrap();
        // Every block payload physically lives under a `dfs/` key on
        // exactly its replicas.
        let held: usize = stores
            .iter()
            .map(|s| {
                ["dfs/f/0", "dfs/f/16", "dfs/f/32"].iter().filter(|k| s.get(k).is_ok()).count()
            })
            .sum();
        assert_eq!(held, 6, "3 blocks x 2 replicas");
        // Killing one store: reads fall back to the surviving replica.
        stores[0].kill();
        assert_eq!(d.read("f").unwrap(), data);
        // Deleting drops payloads from the surviving stores.
        d.delete("f");
        assert!(stores[1].get("dfs/f/0").is_err() && stores[2].get("dfs/f/0").is_err());
    }

    #[test]
    fn failed_create_leaves_no_orphan_blocks() {
        let stores: Vec<Arc<InProcessStore>> =
            (0..3).map(|i| Arc::new(InProcessStore::new(NodeId(i)))).collect();
        let d = Dfs::with_stores(16, 2, stores.iter().map(|s| s.clone() as _).collect());
        // "a" is one block, on nodes 0 and 1.
        d.create("a", Bytes::from(vec![1u8; 16])).unwrap();
        // Node 0's store dies without the DFS being told: "f"'s block 0
        // lands on nodes 1 and 2, block 1's second replica on node 0 fails.
        stores[0].kill();
        assert!(d.create("f", Bytes::from(vec![2u8; 96])).is_err());
        assert!(!d.exists("f"));
        let files = d.list("");
        for store in stores.iter().filter(|s| s.is_alive()) {
            for name in store.names().into_iter().filter(|n| n.starts_with("dfs/")) {
                let owned = files.iter().any(|p| name.starts_with(&format!("dfs/{p}/")));
                assert!(owned, "{name} outlived its failed create");
            }
        }
        assert!(stores[1].get("dfs/a/0").is_ok(), "a file's own blocks stay");
    }

    #[test]
    fn delete_never_drops_another_files_blocks() {
        let stores: Vec<Arc<InProcessStore>> =
            (0..3).map(|i| Arc::new(InProcessStore::new(NodeId(i)))).collect();
        let d = Dfs::with_stores(16, 2, stores.iter().map(|s| s.clone() as _).collect());
        let data = Bytes::from(vec![7u8; 40]);
        ["a", "a/b", "ab"].iter().for_each(|p| d.create(p, data.clone()).unwrap());
        let keys = || -> Vec<String> { stores.iter().flat_map(|s| s.names()).collect() };
        d.delete("a"); // "a/b" shares its prefix: removed block by block
        d.delete("ab");
        assert!(keys().iter().all(|k| k.starts_with("dfs/a/b/")) && d.read("a/b").unwrap() == data);
        d.delete("a/b");
        assert!(keys().is_empty(), "{:?}", keys());
    }
}
