//! The transport seam: where node-local storage physically lives.
//!
//! Everything the engine does against a node — map-output partitions,
//! cache files, DFS block payloads — goes through a [`NodeStore`], and a
//! [`Transport`] supplies one store per node:
//!
//! * [`InProcessTransport`] — the simulated cluster of the paper model:
//!   stores are in-process hash maps, byte movement is accounted by
//!   [`crate::network::TrafficAccountant`] but never serialized.
//!   Deterministic, the default, and byte-identical to the pre-transport
//!   code path.
//! * [`MultiProcessTransport`] — one spawned `pmr-worker` process per
//!   node, speaking length-prefixed frames (the [`crate::codec`] wire
//!   format) over a Unix-domain socket (TCP on request). Every store
//!   operation physically crosses the process boundary, so the *moved*
//!   byte series becomes a measured number: [`WireSnapshot`] reports the
//!   payload bytes per traffic class, and killing a worker process
//!   (SIGKILL) is a real crash the engine's recovery protocol must
//!   survive. With telemetry attached, the coordinator records each RPC
//!   as a `worker.*` trace sample where it books the RPC's wire class, so
//!   the samples and the wire series agree byte for byte.
//!
//! The scheduler, commit protocol, and all *charged* cost accounting stay
//! on the coordinator, which is what keeps output and charged counters
//! bit-identical across transports — the transport moves storage, not
//! semantics.
//!
//! ## Frame format
//!
//! Every message is one frame: a `u32` big-endian payload length followed
//! by the payload. Requests start with a one-byte opcode, then
//! [`crate::codec::Wire`]-encoded operands; responses start with a
//! one-byte status (`0` ok, `1` missing), then the result. Frames above
//! [`MAX_FRAME_LEN`] are rejected without allocating.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use pmr_obs::{trace, RunEvent, Telemetry};

use crate::codec::{Wire, MAX_ITEM_LEN};
use crate::config::SocketMode;
use crate::error::{ClusterError, Result};
use crate::ids::NodeId;

/// Upper bound on one transport frame: the largest length-prefixed codec
/// item plus header room. A frame announcing more is a protocol error and
/// is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = MAX_ITEM_LEN + 1024;

/// How long the coordinator waits for worker processes to connect back
/// after spawning, and for any single RPC response, before declaring the
/// worker dead.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounds of the nap between empty accept polls while workers attach.
const ATTACH_NAP_MIN: Duration = Duration::from_micros(50);
const ATTACH_NAP_MAX: Duration = Duration::from_millis(2);

// ---------------------------------------------------------------------------
// NodeStore: one node's byte-addressed local storage
// ---------------------------------------------------------------------------

/// Byte storage of a single node, keyed by file name.
///
/// [`crate::node::Node`] keeps the *ledger* (which files exist, their
/// sizes, capacity accounting) on the coordinator; the store holds the
/// payload bytes — in-process or in a worker process. The split is what
/// makes capacity checks, `NoSuchFile` semantics, and every charged
/// counter identical across transports.
pub trait NodeStore: Send + Sync {
    /// Stores `data` under `name`, replacing any previous content.
    fn put(&self, name: &str, data: Bytes) -> Result<()>;
    /// Retrieves the content of `name`.
    fn get(&self, name: &str) -> Result<Bytes>;
    /// Removes `name` (a no-op if absent).
    fn remove(&self, name: &str) -> Result<()>;
    /// Removes every file whose name starts with `prefix`.
    fn remove_prefix(&self, prefix: &str) -> Result<()>;
    /// Irrevocably kills the store: in-process data is dropped, a worker
    /// process receives SIGKILL. Idempotent.
    fn kill(&self);
    /// OS process id backing this store, when one exists.
    fn pid(&self) -> Option<u32>;
    /// Whether the backing store is still live (not killed / exited).
    fn is_alive(&self) -> bool;
}

// ---------------------------------------------------------------------------
// Wire accounting
// ---------------------------------------------------------------------------

/// Traffic class of a store operation, derived from the engine's file
/// naming conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireClass {
    Dfs,
    Seed,
    Cache,
    MapOutput,
    Shuffle,
    Other,
}

fn classify(name: &str, is_get: bool) -> WireClass {
    if name.starts_with("dfs/") {
        WireClass::Dfs
    } else if name.starts_with("seed/") {
        WireClass::Seed
    } else if name.contains("/cache/") {
        WireClass::Cache
    } else if name.contains("/p/") {
        if is_get {
            WireClass::Shuffle
        } else {
            WireClass::MapOutput
        }
    } else {
        WireClass::Other
    }
}

impl WireClass {
    /// The class's key in [`WireSnapshot::series`] and in a worker RPC's
    /// trace sample.
    fn name(self) -> &'static str {
        match self {
            WireClass::Dfs => "dfs",
            WireClass::Seed => "seed",
            WireClass::Cache => "cache",
            WireClass::MapOutput => "map_output",
            WireClass::Shuffle => "shuffle",
            WireClass::Other => "other",
        }
    }
}

/// Payload bytes physically serialized over worker sockets, by traffic
/// class. All zero on the in-process transport (nothing is serialized).
///
/// On a healthy, speculation-free run the partition classes equal the
/// engine's committed *moved* counters exactly (`map_output_bytes` ==
/// `mr.map.output.moved.bytes`, `shuffle_bytes` ==
/// `mr.shuffle.moved.bytes`); under chaos or speculation the wire may
/// carry more (losing attempts move bytes whose scratch counters are
/// discarded), never less.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Total frames exchanged (requests + responses).
    pub frames: u64,
    /// DFS block payloads (creation, replica reads, re-replication).
    pub dfs_bytes: u64,
    /// Element-store seeding (`seed/…`, the §5.1 dataset shipment).
    pub seed_bytes: u64,
    /// Distributed-cache files (`mr/<job>/cache/…`).
    pub cache_bytes: u64,
    /// Map-output partitions written by map attempts.
    pub map_output_bytes: u64,
    /// Map-output partitions fetched by reduce attempts (the shuffle).
    pub shuffle_bytes: u64,
    /// Anything outside the known naming conventions.
    pub other_bytes: u64,
}

impl WireSnapshot {
    /// Sum of all payload byte classes.
    pub fn total_bytes(&self) -> u64 {
        self.dfs_bytes
            + self.seed_bytes
            + self.cache_bytes
            + self.map_output_bytes
            + self.shuffle_bytes
            + self.other_bytes
    }

    /// Bytes moved since `earlier` (fields subtract pairwise).
    pub fn delta(&self, earlier: &WireSnapshot) -> WireSnapshot {
        WireSnapshot {
            frames: self.frames - earlier.frames,
            dfs_bytes: self.dfs_bytes - earlier.dfs_bytes,
            seed_bytes: self.seed_bytes - earlier.seed_bytes,
            cache_bytes: self.cache_bytes - earlier.cache_bytes,
            map_output_bytes: self.map_output_bytes - earlier.map_output_bytes,
            shuffle_bytes: self.shuffle_bytes - earlier.shuffle_bytes,
            other_bytes: self.other_bytes - earlier.other_bytes,
        }
    }

    /// The classes as `(name, bytes)` pairs, stable order.
    pub fn series(&self) -> Vec<(&'static str, u64)> {
        vec![
            (WireClass::Dfs.name(), self.dfs_bytes),
            (WireClass::Seed.name(), self.seed_bytes),
            (WireClass::Cache.name(), self.cache_bytes),
            (WireClass::MapOutput.name(), self.map_output_bytes),
            (WireClass::Shuffle.name(), self.shuffle_bytes),
            (WireClass::Other.name(), self.other_bytes),
        ]
    }
}

#[derive(Default)]
struct WireStats {
    frames: AtomicU64,
    dfs: AtomicU64,
    seed: AtomicU64,
    cache: AtomicU64,
    map_output: AtomicU64,
    shuffle: AtomicU64,
    other: AtomicU64,
}

impl WireStats {
    fn add(&self, class: WireClass, payload: u64) {
        self.frames.fetch_add(2, Ordering::Relaxed); // request + response
        let cell = match class {
            WireClass::Dfs => &self.dfs,
            WireClass::Seed => &self.seed,
            WireClass::Cache => &self.cache,
            WireClass::MapOutput => &self.map_output,
            WireClass::Shuffle => &self.shuffle,
            WireClass::Other => &self.other,
        };
        cell.fetch_add(payload, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            frames: self.frames.load(Ordering::Relaxed),
            dfs_bytes: self.dfs.load(Ordering::Relaxed),
            seed_bytes: self.seed.load(Ordering::Relaxed),
            cache_bytes: self.cache.load(Ordering::Relaxed),
            map_output_bytes: self.map_output.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle.load(Ordering::Relaxed),
            other_bytes: self.other.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// One live worker process, as reported in the run report's worker table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerInfo {
    /// The node the worker backs.
    pub node: NodeId,
    /// OS process id.
    pub pid: u32,
    /// Whether the process is still running.
    pub alive: bool,
}

/// Supplies the per-node [`NodeStore`]s and the physical-wire accounting.
pub trait Transport: Send + Sync {
    /// Short transport name (`"in-process"` / `"process"`).
    fn name(&self) -> &'static str;
    /// True when node storage lives in separate worker processes.
    fn is_distributed(&self) -> bool;
    /// Number of nodes this transport was built for.
    fn num_nodes(&self) -> usize;
    /// The store backing `node`'s local files.
    fn store(&self, node: NodeId) -> Arc<dyn NodeStore>;
    /// Payload bytes physically serialized so far (all zero in-process).
    fn wire_snapshot(&self) -> WireSnapshot;
    /// The worker process table (empty in-process).
    fn workers(&self) -> Vec<WorkerInfo>;
    /// Attaches the coordinator's telemetry handle. A distributed
    /// transport records each worker RPC and each lost worker in it; a
    /// no-op by default.
    fn set_telemetry(&self, _telemetry: &Telemetry) {}
}

// ---------------------------------------------------------------------------
// In-process implementation
// ---------------------------------------------------------------------------

/// In-process [`NodeStore`]: a hash map behind a mutex. `kill` drops the
/// map; operations on a killed store report [`ClusterError::NodeDead`].
pub struct InProcessStore {
    node: NodeId,
    files: Mutex<Option<HashMap<String, Bytes>>>,
}

impl InProcessStore {
    /// An empty live store for `node`.
    pub fn new(node: NodeId) -> Self {
        InProcessStore { node, files: Mutex::new(Some(HashMap::new())) }
    }

    /// The names a live store holds (none once killed).
    #[cfg(test)]
    pub(crate) fn names(&self) -> Vec<String> {
        self.files.lock().iter().flat_map(|files| files.keys().cloned()).collect()
    }
}

impl NodeStore for InProcessStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let mut guard = self.files.lock();
        let files = guard.as_mut().ok_or(ClusterError::NodeDead(self.node))?;
        files.insert(name.to_string(), data);
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        let guard = self.files.lock();
        let files = guard.as_ref().ok_or(ClusterError::NodeDead(self.node))?;
        files
            .get(name)
            .cloned()
            .ok_or_else(|| ClusterError::NoSuchFile(format!("{}:{name}", self.node)))
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut guard = self.files.lock();
        let files = guard.as_mut().ok_or(ClusterError::NodeDead(self.node))?;
        files.remove(name);
        Ok(())
    }

    fn remove_prefix(&self, prefix: &str) -> Result<()> {
        let mut guard = self.files.lock();
        let files = guard.as_mut().ok_or(ClusterError::NodeDead(self.node))?;
        files.retain(|name, _| !name.starts_with(prefix));
        Ok(())
    }

    fn kill(&self) {
        *self.files.lock() = None;
    }

    fn pid(&self) -> Option<u32> {
        None
    }

    fn is_alive(&self) -> bool {
        self.files.lock().is_some()
    }
}

/// The simulated transport: every node's store is in-process, nothing is
/// serialized, behavior is exactly the pre-transport cluster.
pub struct InProcessTransport {
    stores: Vec<Arc<InProcessStore>>,
}

impl InProcessTransport {
    /// Builds `n` empty in-process stores.
    pub fn new(n: usize) -> Self {
        InProcessTransport {
            stores: (0..n).map(|i| Arc::new(InProcessStore::new(NodeId(i as u32)))).collect(),
        }
    }
}

impl Transport for InProcessTransport {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn is_distributed(&self) -> bool {
        false
    }

    fn num_nodes(&self) -> usize {
        self.stores.len()
    }

    fn store(&self, node: NodeId) -> Arc<dyn NodeStore> {
        Arc::clone(&self.stores[node.index()]) as Arc<dyn NodeStore>
    }

    fn wire_snapshot(&self) -> WireSnapshot {
        WireSnapshot::default()
    }

    fn workers(&self) -> Vec<WorkerInfo> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

mod op {
    pub const HELLO: u8 = 1;
    pub const PUT: u8 = 2;
    pub const GET: u8 = 3;
    pub const REMOVE: u8 = 4;
    pub const REMOVE_PREFIX: u8 = 5;
    pub const SHUTDOWN: u8 = 6;
}

mod status {
    pub const OK: u8 = 0;
    pub const MISSING: u8 = 1;
}

/// Writes the length header and `body` as one vectored write (one
/// segment on a `TCP_NODELAY` socket), looping on partial writes.
fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_LEN);
    let header = (body.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(body)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

fn read_frame<R: Read>(r: &mut R) -> io::Result<Bytes> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized transport frame"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Bytes::from(body))
}

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed transport frame: {what}"))
}

/// A connected stream, UDS or TCP.
enum Conn {
    #[cfg(unix)]
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// A TCP connection with Nagle's algorithm off: every frame is a
    /// request or a reply someone waits for.
    fn tcp(s: TcpStream) -> io::Result<Conn> {
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Uds(s) => s.write_vectored(bufs),
            Conn::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serves one worker's store over `addr` until the coordinator shuts the
/// connection down. This is the entire body of the `pmr-worker` binary:
/// connect, identify (`HELLO <node>`), then answer put/get/remove frames
/// against an in-memory file map.
///
/// Returns cleanly when the coordinator sends `SHUTDOWN` or closes the
/// socket (coordinator death must not leave orphan workers serving
/// nobody).
pub fn run_worker(addr: &str, node: u64, mode: SocketMode) -> io::Result<()> {
    let mut conn = match mode {
        #[cfg(unix)]
        SocketMode::Uds => Conn::Uds(UnixStream::connect(addr)?),
        #[cfg(not(unix))]
        SocketMode::Uds => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are unavailable on this platform",
            ))
        }
        SocketMode::Tcp => Conn::tcp(TcpStream::connect(addr)?)?,
    };
    let mut hello = BytesMut::new();
    hello.put_u8(op::HELLO);
    node.encode(&mut hello);
    write_frame(&mut conn, &hello)?;

    let mut files: HashMap<String, Bytes> = HashMap::new();
    loop {
        let mut req = match read_frame(&mut conn) {
            Ok(frame) => frame,
            // Coordinator hung up: exit quietly.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let opcode = u8::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
        let mut resp = BytesMut::new();
        match opcode {
            op::PUT => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                let data = Bytes::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                files.insert(name, data);
                resp.put_u8(status::OK);
            }
            op::GET => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                match files.get(&name) {
                    Some(data) => {
                        resp.put_u8(status::OK);
                        data.encode(&mut resp);
                    }
                    None => resp.put_u8(status::MISSING),
                }
            }
            op::REMOVE => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                files.remove(&name);
                resp.put_u8(status::OK);
            }
            op::REMOVE_PREFIX => {
                let prefix = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                files.retain(|name, _| !name.starts_with(&prefix));
                resp.put_u8(status::OK);
            }
            op::SHUTDOWN => {
                resp.put_u8(status::OK);
                let _ = write_frame(&mut conn, &resp);
                return Ok(());
            }
            other => return Err(proto_err(&format!("unknown opcode {other}"))),
        }
        write_frame(&mut conn, &resp)?;
    }
}

// ---------------------------------------------------------------------------
// Coordinator side: RemoteStore + MultiProcessTransport
// ---------------------------------------------------------------------------

/// Coordinator-side client of one worker process's store. All RPCs go
/// over a single framed connection; any transport failure (worker killed,
/// socket broken, malformed response) marks the connection dead and
/// surfaces as [`ClusterError::NodeDead`] — the same thing a lost node
/// means to the engine.
struct RemoteStore {
    node: NodeId,
    pid: u32,
    lane: Mutex<Lane>,
    child: Mutex<Option<Child>>,
    stats: Arc<WireStats>,
}

/// One worker's connection and the telemetry its RPCs are recorded in.
/// The lock serializes the worker's RPCs, so the `worker.*` samples of
/// one worker are recorded in issue order and never overlap.
struct Lane {
    /// `None` once the worker was killed or an RPC to it failed.
    conn: Option<Conn>,
    telemetry: Telemetry,
}

impl Lane {
    /// Fails the connection for good and returns the error the caller
    /// surfaces. The first failure records `worker.lost` on the node.
    fn fail(&mut self, node: NodeId, why: &str) -> ClusterError {
        if self.conn.take().is_some() && self.telemetry.is_enabled() {
            let detail = format!("worker of {node} lost: {why}");
            self.telemetry.event(RunEvent::WORKER_LOST, node.0, 0, detail);
        }
        ClusterError::NodeDead(node)
    }
}

impl RemoteStore {
    /// One store op: sends `req` and reads the reply, whose body is the
    /// data a GET returns. Books the op's payload — `sent` bytes plus the
    /// returned data — in its wire `class` and, with telemetry on, records
    /// it as a `kind` sample timed over the round trip on the
    /// coordinator's clock. A broken exchange or a malformed reply fails
    /// the connection for good: a half-completed frame exchange would
    /// desynchronize every later RPC.
    fn op(
        &self,
        kind: &'static str,
        name: &str,
        class: WireClass,
        req: &[u8],
        sent: u64,
    ) -> Result<Bytes> {
        let mut lane = self.lane.lock();
        let start_us = lane.telemetry.now_us();
        let conn = lane.conn.as_mut().ok_or(ClusterError::NodeDead(self.node))?;
        let mut reply = match write_frame(conn, req).and_then(|()| read_frame(conn)) {
            Ok(reply) => reply,
            Err(e) => return Err(lane.fail(self.node, &format!("RPC failed: {e}"))),
        };
        let data = match u8::decode(&mut reply) {
            Ok(status::MISSING) => {
                return Err(ClusterError::NoSuchFile(format!("{}:{name}", self.node)))
            }
            Ok(status::OK) if kind != trace::kind::WORKER_GET => Bytes::new(),
            Ok(status::OK) => match Bytes::decode(&mut reply) {
                Ok(data) => data,
                Err(_) => return Err(lane.fail(self.node, "malformed reply")),
            },
            _ => return Err(lane.fail(self.node, "malformed reply")),
        };
        let bytes = sent + data.len() as u64;
        self.stats.add(class, bytes);
        lane.telemetry.worker_op(kind, self.node.0, class.name(), bytes, start_us);
        Ok(data)
    }
}

/// A store op's request: `opcode`, then the file `name` it acts on.
fn request(opcode: u8, name: &str) -> BytesMut {
    let mut req = BytesMut::new();
    req.put_u8(opcode);
    name.to_string().encode(&mut req);
    req
}

impl NodeStore for RemoteStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let mut req = request(op::PUT, name);
        let len = data.len() as u64;
        data.encode(&mut req);
        self.op(trace::kind::WORKER_PUT, name, classify(name, false), &req, len).map(drop)
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        let req = request(op::GET, name);
        self.op(trace::kind::WORKER_GET, name, classify(name, true), &req, 0)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let req = request(op::REMOVE, name);
        self.op(trace::kind::WORKER_REMOVE, name, classify(name, false), &req, 0).map(drop)
    }

    fn remove_prefix(&self, prefix: &str) -> Result<()> {
        let req = request(op::REMOVE_PREFIX, prefix);
        self.op(trace::kind::WORKER_REMOVE_PREFIX, prefix, WireClass::Other, &req, 0).map(drop)
    }

    fn kill(&self) {
        // SIGKILL — the worker gets no chance to flush or reply, exactly
        // the failure mode Dean–Ghemawat recovery is specified against.
        if let Some(child) = self.child.lock().as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.lane.lock().fail(self.node, "killed");
    }

    fn pid(&self) -> Option<u32> {
        Some(self.pid)
    }

    fn is_alive(&self) -> bool {
        match self.child.lock().as_mut() {
            Some(child) => matches!(child.try_wait(), Ok(None)),
            None => false,
        }
    }
}

/// The real-process transport: one spawned `pmr-worker` per node.
///
/// The coordinator binds a listener (Unix-domain socket by default, TCP
/// loopback on request), spawns the workers with the listener address,
/// and each worker connects back and identifies itself with a `HELLO`
/// frame. Dropping the transport shuts surviving workers down gracefully
/// and reaps every child.
pub struct MultiProcessTransport {
    stores: Vec<Arc<RemoteStore>>,
    stats: Arc<WireStats>,
    socket_path: Option<PathBuf>,
}

/// Resolves the worker binary: the `PMR_WORKER_BIN` environment variable
/// when set, otherwise [`worker_near`] the running executable.
fn worker_binary() -> Result<PathBuf> {
    if let Ok(path) = std::env::var("PMR_WORKER_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(ClusterError::Transport(format!(
            "PMR_WORKER_BIN points at a missing file: {}",
            path.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| ClusterError::Transport(format!("cannot locate current executable: {e}")))?;
    worker_near(&exe).ok_or_else(|| {
        ClusterError::Transport(
            "pmr-worker binary not found next to the current executable; \
             build it (cargo build -p pmr-cluster --bin pmr-worker) or set PMR_WORKER_BIN"
                .to_string(),
        )
    })
}

/// The `pmr-worker` beside `exe` (`target/<profile>/`), or one directory up
/// when `exe` is a test executable in `target/<profile>/deps/`. Nowhere
/// else: a walk further up could pick a stale worker of another profile.
fn worker_near(exe: &Path) -> Option<PathBuf> {
    let dir = exe.parent()?;
    let up = dir.file_name().is_some_and(|name| name == "deps").then(|| dir.parent()).flatten();
    [Some(dir), up].into_iter().flatten().map(|d| d.join("pmr-worker")).find(|w| w.is_file())
}

enum Listener {
    #[cfg(unix)]
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Conn::tcp(s)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Uds(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

impl MultiProcessTransport {
    /// Spawns `n` worker processes and completes the connection
    /// handshake. Fails (cleaning up every spawned child) if the worker
    /// binary is missing or any worker does not connect within the
    /// timeout.
    pub fn spawn(n: usize, mode: SocketMode) -> Result<Self> {
        let bin = worker_binary()?;
        let terr = |what: &str, e: io::Error| ClusterError::Transport(format!("{what}: {e}"));

        let (listener, addr, socket_path) = match mode {
            #[cfg(unix)]
            SocketMode::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "pmr-{}-{}.sock",
                    std::process::id(),
                    SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                let listener =
                    UnixListener::bind(&path).map_err(|e| terr("bind unix socket", e))?;
                let addr = path.display().to_string();
                (Listener::Uds(listener), addr, Some(path))
            }
            #[cfg(not(unix))]
            SocketMode::Uds => {
                return Err(ClusterError::Transport(
                    "unix-domain sockets are unavailable on this platform; use TCP".to_string(),
                ))
            }
            SocketMode::Tcp => {
                let listener =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| terr("bind tcp socket", e))?;
                let addr =
                    listener.local_addr().map_err(|e| terr("tcp local addr", e))?.to_string();
                (Listener::Tcp(listener), addr, None)
            }
        };

        let mut children: Vec<Child> = Vec::with_capacity(n);
        let cleanup = |children: &mut Vec<Child>| {
            for child in children.iter_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(path) = &socket_path {
                let _ = std::fs::remove_file(path);
            }
        };
        for node in 0..n {
            let spawned = Command::new(&bin)
                .arg("--socket")
                .arg(&addr)
                .arg("--node")
                .arg(node.to_string())
                .arg("--mode")
                .arg(match mode {
                    SocketMode::Uds => "uds",
                    SocketMode::Tcp => "tcp",
                })
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn();
            match spawned {
                Ok(child) => children.push(child),
                Err(e) => {
                    cleanup(&mut children);
                    return Err(terr(&format!("spawn worker {node}"), e));
                }
            }
        }

        // Accept until every worker has said HELLO, with a hard deadline.
        // An empty poll naps, 50 µs at first and doubling up to 2 ms, so a
        // worker that connects soon after spawn is not kept waiting.
        listener.set_nonblocking(true).map_err(|e| terr("listener nonblocking", e))?;
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut conns: Vec<Option<Conn>> = (0..n).map(|_| None).collect();
        let mut connected = 0usize;
        let mut nap = ATTACH_NAP_MIN;
        while connected < n {
            match listener.accept() {
                Ok(conn) => {
                    nap = ATTACH_NAP_MIN;
                    let accepted = (|| -> io::Result<(u64, Conn)> {
                        conn.set_read_timeout(Some(IO_TIMEOUT))?;
                        let mut conn = conn;
                        let mut hello = read_frame(&mut conn)?;
                        let opcode =
                            u8::decode(&mut hello).map_err(|e| proto_err(&e.to_string()))?;
                        if opcode != op::HELLO {
                            return Err(proto_err("expected HELLO"));
                        }
                        let node =
                            u64::decode(&mut hello).map_err(|e| proto_err(&e.to_string()))?;
                        Ok((node, conn))
                    })();
                    match accepted {
                        Ok((node, conn)) if (node as usize) < n => {
                            if conns[node as usize].replace(conn).is_none() {
                                connected += 1;
                            }
                        }
                        _ => {
                            cleanup(&mut children);
                            return Err(ClusterError::Transport(
                                "worker handshake failed".to_string(),
                            ));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        cleanup(&mut children);
                        return Err(ClusterError::Transport(format!(
                            "timed out waiting for workers to connect ({connected}/{n})"
                        )));
                    }
                    std::thread::sleep(nap);
                    nap = (nap * 2).min(ATTACH_NAP_MAX);
                }
                Err(e) => {
                    cleanup(&mut children);
                    return Err(terr("accept worker connection", e));
                }
            }
        }

        let stats = Arc::new(WireStats::default());
        let stores = children
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(i, (child, conn))| {
                Arc::new(RemoteStore {
                    node: NodeId(i as u32),
                    pid: child.id(),
                    lane: Mutex::new(Lane { conn, telemetry: Telemetry::disabled() }),
                    child: Mutex::new(Some(child)),
                    stats: Arc::clone(&stats),
                })
            })
            .collect();
        Ok(MultiProcessTransport { stores, stats, socket_path })
    }
}

impl Transport for MultiProcessTransport {
    fn name(&self) -> &'static str {
        "process"
    }

    fn is_distributed(&self) -> bool {
        true
    }

    fn num_nodes(&self) -> usize {
        self.stores.len()
    }

    fn store(&self, node: NodeId) -> Arc<dyn NodeStore> {
        Arc::clone(&self.stores[node.index()]) as Arc<dyn NodeStore>
    }

    fn wire_snapshot(&self) -> WireSnapshot {
        self.stats.snapshot()
    }

    fn workers(&self) -> Vec<WorkerInfo> {
        self.stores
            .iter()
            .map(|s| WorkerInfo { node: s.node, pid: s.pid, alive: s.is_alive() })
            .collect()
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        for store in &self.stores {
            store.lane.lock().telemetry = telemetry.clone();
        }
    }
}

impl Drop for MultiProcessTransport {
    fn drop(&mut self) {
        for store in &self.stores {
            // A worker shut down is not lost: its lane records nothing more.
            let mut lane = store.lane.lock();
            lane.telemetry = Telemetry::disabled();
            // Polite shutdown first so healthy workers exit on their own…
            if let Some(conn) = lane.conn.as_mut() {
                let _ = write_frame(conn, &[op::SHUTDOWN]).and_then(|()| read_frame(conn));
            }
            drop(lane);
            // …then make sure, and reap.
            store.kill();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_lookup_stays_beside_the_executable() {
        let root = std::env::temp_dir().join(format!("pmr-worker-lookup-{}", std::process::id()));
        let release = root.join("target/release");
        std::fs::create_dir_all(release.join("deps")).unwrap();
        let touch = |p: &Path| std::fs::write(p, b"").unwrap();
        // A decoy two levels above `deps/`, and one above a plain binary.
        touch(&root.join("target/pmr-worker"));
        touch(&root.join("pmr-worker"));
        assert_eq!(worker_near(&release.join("deps/test-abc")), None);
        assert_eq!(worker_near(&release.join("pairwise")), None);
        touch(&release.join("pmr-worker"));
        assert_eq!(worker_near(&release.join("pairwise")), Some(release.join("pmr-worker")));
        assert_eq!(worker_near(&release.join("deps/test-abc")), Some(release.join("pmr-worker")));
        // Only a directory named `deps` looks one level up.
        std::fs::create_dir_all(release.join("examples")).unwrap();
        assert_eq!(worker_near(&release.join("examples/quickstart")), None);
        touch(&release.join("deps/pmr-worker"));
        assert_eq!(
            worker_near(&release.join("deps/test-abc")),
            Some(release.join("deps/pmr-worker"))
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn classification_follows_engine_naming() {
        assert_eq!(classify("dfs/run/input-0/3", false), WireClass::Dfs);
        assert_eq!(classify("seed/dataset", false), WireClass::Seed);
        assert_eq!(classify("mr/3/cache/dataset", false), WireClass::Cache);
        assert_eq!(classify("mr/3/m/1/p/2", false), WireClass::MapOutput);
        assert_eq!(classify("mr/3/m/1/p/2", true), WireClass::Shuffle);
        assert_eq!(classify("scratch", false), WireClass::Other);
    }

    #[test]
    fn in_process_store_roundtrip_and_kill() {
        let store = InProcessStore::new(NodeId(0));
        store.put("a/b", Bytes::from_static(b"xy")).unwrap();
        assert_eq!(store.get("a/b").unwrap(), Bytes::from_static(b"xy"));
        assert!(matches!(store.get("a/c"), Err(ClusterError::NoSuchFile(_))));
        store.remove_prefix("a/").unwrap();
        assert!(store.get("a/b").is_err());
        assert!(store.is_alive());
        store.kill();
        assert!(!store.is_alive());
        assert!(matches!(store.get("a/b"), Err(ClusterError::NodeDead(_))));
        assert!(matches!(store.put("a/b", Bytes::new()), Err(ClusterError::NodeDead(_))));
    }

    #[test]
    fn frame_roundtrip_and_oversize_rejection() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Bytes::from_static(b"hello"));

        // A header promising more than MAX_FRAME_LEN is rejected before
        // any allocation happens.
        let huge = (u32::MAX).to_be_bytes().to_vec();
        let mut r = io::Cursor::new(huge);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_survive_short_vectored_writes() {
        /// Takes at most 3 bytes of one buffer per call, and is
        /// interrupted every other call.
        struct Trickle(Vec<u8>, bool);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Trickle(Vec::new(), false);
        for body in [&b"a frame longer than one write"[..], b"", b"x"] {
            write_frame(&mut w, body).unwrap();
        }
        let mut r = io::Cursor::new(w.0);
        for body in [&b"a frame longer than one write"[..], b"", b"x"] {
            assert_eq!(&read_frame(&mut r).unwrap()[..], body);
        }
        assert_eq!(r.position() as usize, r.get_ref().len());
    }

    #[test]
    fn wire_snapshot_delta_and_series() {
        let stats = WireStats::default();
        stats.add(WireClass::Shuffle, 100);
        let early = stats.snapshot();
        stats.add(WireClass::Shuffle, 50);
        stats.add(WireClass::Dfs, 7);
        let late = stats.snapshot();
        let delta = late.delta(&early);
        assert_eq!(delta.shuffle_bytes, 50);
        assert_eq!(delta.dfs_bytes, 7);
        assert_eq!(delta.frames, 4);
        assert_eq!(delta.total_bytes(), 57);
        let series = delta.series();
        assert_eq!(series.iter().find(|(k, _)| *k == "shuffle").unwrap().1, 50);
    }
}
