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
//!   survive.
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

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use pmr_obs::{trace, Telemetry, TraceEvent};

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

/// Single-byte encoding of a [`WireClass`] for worker trace frames. Codes
/// are never reused; 3 is unassigned.
fn class_code(class: WireClass) -> u8 {
    match class {
        WireClass::Dfs => 0,
        WireClass::Seed => 1,
        WireClass::Cache => 2,
        WireClass::MapOutput => 4,
        WireClass::Shuffle => 5,
        WireClass::Other => 6,
    }
}

/// Class name for a worker-reported class code, matching the keys of
/// [`WireSnapshot::series`]. Unknown codes collapse to `"other"`.
fn class_name(code: u8) -> &'static str {
    match code {
        0 => "dfs",
        1 => "seed",
        2 => "cache",
        4 => "map_output",
        5 => "shuffle",
        _ => "other",
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
            ("dfs", self.dfs_bytes),
            ("seed", self.seed_bytes),
            ("cache", self.cache_bytes),
            ("map_output", self.map_output_bytes),
            ("shuffle", self.shuffle_bytes),
            ("other", self.other_bytes),
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
    /// Estimated clock offset (worker clock minus coordinator telemetry
    /// clock) in µs; `0` when the worker was never traced.
    pub offset_us: i64,
    /// Worker-side trace events drained into the merged trace so far.
    pub trace_events: u64,
    /// Events the worker's bounded ring evicted before they were drained.
    pub trace_dropped: u64,
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
    /// Attaches the coordinator's telemetry handle. On a distributed
    /// transport with telemetry enabled this switches the worker trace
    /// rings on and estimates each worker's clock offset via a PING
    /// exchange; otherwise a no-op (the default).
    fn set_telemetry(&self, _telemetry: &Telemetry) {}
    /// Drains every live worker's trace ring into the attached telemetry
    /// sink, rebasing worker timestamps onto the coordinator's epoch.
    /// Unreachable (e.g. SIGKILL'd) workers are marked with a one-time
    /// `worker.lost` event at their last sign of life. No-op by default
    /// and whenever no enabled telemetry was attached.
    fn drain_traces(&self) {}
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
    /// Clock probe: replies `OK` + the worker's clock (µs since its own
    /// epoch). Used by the coordinator's offset estimator.
    pub const PING: u8 = 7;
    /// Enables (operand `1`) or disables (`0`) the worker's trace ring.
    pub const TRACE_CTL: u8 = 8;
    /// Drains the worker's trace ring: replies `OK` + a
    /// [`super::WorkerTraceReport`], then clears the ring.
    pub const TRACE_DRAIN: u8 = 9;
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
// Worker-side tracing
// ---------------------------------------------------------------------------

/// Upper bound on events a worker retains between drains. The ring is
/// bounded: under backpressure the oldest events are evicted and counted
/// in [`WorkerTraceReport::dropped`], never blocking the serve loop.
const WORKER_RING_CAPACITY: usize = 1 << 15;

/// How often a tracing worker stamps a heartbeat event into its ring.
const HEARTBEAT_INTERVAL_US: u64 = 50_000;

/// Rounds of the PING exchange behind the clock-offset estimator; the
/// round with the smallest RTT wins (NTP-style minimum filter).
const PING_ROUNDS: usize = 8;

/// One frame-level span recorded inside a worker process. Timestamps are
/// µs on the *worker's* clock (its process-start epoch); the coordinator
/// rebases them onto its telemetry epoch using the PING-estimated offset
/// before merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTraceEvent {
    /// Frame opcode handled (`op::PUT` …), or `0` for a heartbeat.
    pub opcode: u8,
    /// Traffic-class code (see `class_code`); meaningless for heartbeats.
    pub class: u8,
    /// Start of handling, µs since the worker's epoch.
    pub at_us: u64,
    /// Handling duration in µs (decode + store op + response encode).
    pub dur_us: u64,
    /// Payload bytes: data written on PUT, data returned on GET, else 0.
    pub bytes: u64,
    /// Heartbeat stats (`ops=… bytes=…`), empty for op spans.
    pub detail: String,
}

impl Wire for WorkerTraceEvent {
    fn encode(&self, buf: &mut BytesMut) {
        self.opcode.encode(buf);
        self.class.encode(buf);
        self.at_us.encode(buf);
        self.dur_us.encode(buf);
        self.bytes.encode(buf);
        self.detail.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> crate::codec::DecodeResult<Self> {
        Ok(WorkerTraceEvent {
            opcode: u8::decode(buf)?,
            class: u8::decode(buf)?,
            at_us: u64::decode(buf)?,
            dur_us: u64::decode(buf)?,
            bytes: u64::decode(buf)?,
            detail: String::decode(buf)?,
        })
    }
}

/// Converts one drained worker event — already rebased to `at_us` on the
/// coordinator's telemetry axis — into a merged-trace event on that
/// node's process lane.
fn worker_trace_event(node: u32, at_us: u64, ev: &WorkerTraceEvent) -> TraceEvent {
    let kind = match ev.opcode {
        op::PUT => trace::kind::WORKER_PUT,
        op::GET => trace::kind::WORKER_GET,
        op::REMOVE => trace::kind::WORKER_REMOVE,
        op::REMOVE_PREFIX => trace::kind::WORKER_REMOVE_PREFIX,
        _ => trace::kind::WORKER_HEARTBEAT,
    };
    TraceEvent {
        at_us,
        kind,
        node,
        phase: if ev.opcode == 0 { String::new() } else { class_name(ev.class).to_string() },
        bytes: ev.bytes,
        dur_us: ev.dur_us,
        detail: ev.detail.clone(),
        ..TraceEvent::default()
    }
}

/// Payload of a `TRACE_DRAIN` response: the ring contents in recording
/// order plus the eviction count since the previous drain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerTraceReport {
    /// Events evicted from the bounded ring since the last drain.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<WorkerTraceEvent>,
}

impl Wire for WorkerTraceReport {
    fn encode(&self, buf: &mut BytesMut) {
        self.dropped.encode(buf);
        self.events.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> crate::codec::DecodeResult<Self> {
        Ok(WorkerTraceReport { dropped: u64::decode(buf)?, events: Vec::decode(buf)? })
    }
}

/// The worker process's trace state: a bounded ring plus heartbeat
/// bookkeeping. Disabled until the coordinator sends `TRACE_CTL 1`, and
/// the serve loop takes no timestamps while disabled — an untraced worker
/// does no extra work per frame.
struct WorkerTrace {
    enabled: bool,
    epoch: Instant,
    ring: VecDeque<WorkerTraceEvent>,
    dropped: u64,
    last_heartbeat_us: u64,
    ops: u64,
    payload_bytes: u64,
}

impl WorkerTrace {
    fn new() -> Self {
        WorkerTrace {
            enabled: false,
            epoch: Instant::now(),
            ring: VecDeque::new(),
            dropped: 0,
            last_heartbeat_us: 0,
            ops: 0,
            payload_bytes: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&mut self, ev: WorkerTraceEvent) {
        if self.ring.len() >= WORKER_RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Records one handled data frame and, when due, a heartbeat after it.
    fn record(&mut self, opcode: u8, class: WireClass, at_us: u64, bytes: u64) {
        let now = self.now_us();
        self.ops += 1;
        self.payload_bytes += bytes;
        self.push(WorkerTraceEvent {
            opcode,
            class: class_code(class),
            at_us,
            dur_us: now.saturating_sub(at_us),
            bytes,
            detail: String::new(),
        });
        if now.saturating_sub(self.last_heartbeat_us) >= HEARTBEAT_INTERVAL_US {
            self.last_heartbeat_us = now;
            let detail = format!("ops={} bytes={}", self.ops, self.payload_bytes);
            self.push(WorkerTraceEvent {
                opcode: 0,
                class: class_code(WireClass::Other),
                at_us: now,
                dur_us: 0,
                bytes: 0,
                detail,
            });
        }
    }

    /// Hands the ring over, closing it with one final heartbeat so every
    /// drained batch carries the worker's cumulative frame stats (and a
    /// later crash always has a "last heartbeat" to anchor against).
    fn drain(&mut self) -> WorkerTraceReport {
        let now = self.now_us();
        self.last_heartbeat_us = now;
        let detail = format!("ops={} bytes={}", self.ops, self.payload_bytes);
        self.push(WorkerTraceEvent {
            opcode: 0,
            class: class_code(WireClass::Other),
            at_us: now,
            dur_us: 0,
            bytes: 0,
            detail,
        });
        WorkerTraceReport {
            dropped: std::mem::take(&mut self.dropped),
            events: std::mem::take(&mut self.ring).into(),
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
    let mut trace = WorkerTrace::new();
    loop {
        let mut req = match read_frame(&mut conn) {
            Ok(frame) => frame,
            // Coordinator hung up: exit quietly.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let opcode = u8::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
        // Timestamp only when tracing: an untraced worker does not touch
        // the clock per frame (the zero-overhead guarantee).
        let at_us = if trace.enabled { trace.now_us() } else { 0 };
        let mut resp = BytesMut::new();
        match opcode {
            op::PUT => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                let data = Bytes::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                let bytes = data.len() as u64;
                let class = classify(&name, false);
                files.insert(name, data);
                resp.put_u8(status::OK);
                if trace.enabled {
                    trace.record(op::PUT, class, at_us, bytes);
                }
            }
            op::GET => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                let mut bytes = 0u64;
                match files.get(&name) {
                    Some(data) => {
                        bytes = data.len() as u64;
                        resp.put_u8(status::OK);
                        data.encode(&mut resp);
                    }
                    None => resp.put_u8(status::MISSING),
                }
                if trace.enabled {
                    trace.record(op::GET, classify(&name, true), at_us, bytes);
                }
            }
            op::REMOVE => {
                let name = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                files.remove(&name);
                resp.put_u8(status::OK);
                if trace.enabled {
                    trace.record(op::REMOVE, classify(&name, false), at_us, 0);
                }
            }
            op::REMOVE_PREFIX => {
                let prefix = String::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                files.retain(|name, _| !name.starts_with(&prefix));
                resp.put_u8(status::OK);
                if trace.enabled {
                    trace.record(op::REMOVE_PREFIX, WireClass::Other, at_us, 0);
                }
            }
            // Control frames are never recorded in the ring and never
            // counted in a wire class: the byte-parity invariant (wire ==
            // moved) and the per-class sums must not see the trace plane.
            op::PING => {
                resp.put_u8(status::OK);
                trace.now_us().encode(&mut resp);
            }
            op::TRACE_CTL => {
                let on = u8::decode(&mut req).map_err(|e| proto_err(&e.to_string()))?;
                trace.enabled = on != 0;
                if trace.enabled {
                    // Heartbeats count from the enable point.
                    trace.last_heartbeat_us = trace.now_us();
                }
                resp.put_u8(status::OK);
            }
            op::TRACE_DRAIN => {
                resp.put_u8(status::OK);
                trace.drain().encode(&mut resp);
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
    conn: Mutex<Option<Conn>>,
    child: Mutex<Option<Child>>,
    stats: Arc<WireStats>,
    trace: TraceState,
}

/// Coordinator-side distributed-tracing state for one worker.
struct TraceState {
    /// Worker ring switched on and offset estimated.
    enabled: AtomicBool,
    /// The coordinator sink drains merge into (disabled until attached).
    telemetry: Mutex<Telemetry>,
    /// Estimated worker-minus-coordinator clock offset, µs.
    offset_us: AtomicI64,
    /// Coordinator-clock µs of the last successful RPC (liveness mark).
    last_seen_us: AtomicU64,
    /// Largest rebased timestamp merged for this worker's lane, so later
    /// drains (and the `worker.lost` mark) stay monotone per lane even
    /// when the offset estimate is off by a few µs.
    high_water_us: AtomicU64,
    /// Events drained so far / evicted worker-side before a drain.
    events: AtomicU64,
    dropped: AtomicU64,
    /// The one-time `worker.lost` mark was already emitted.
    lost_marked: AtomicBool,
}

impl Default for TraceState {
    fn default() -> Self {
        TraceState {
            enabled: AtomicBool::new(false),
            telemetry: Mutex::new(Telemetry::disabled()),
            offset_us: AtomicI64::new(0),
            last_seen_us: AtomicU64::new(0),
            high_water_us: AtomicU64::new(0),
            events: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lost_marked: AtomicBool::new(false),
        }
    }
}

impl RemoteStore {
    fn rpc(&self, req: &[u8]) -> Result<Bytes> {
        let mut guard = self.conn.lock();
        let conn = guard.as_mut().ok_or(ClusterError::NodeDead(self.node))?;
        let roundtrip = write_frame(conn, req).and_then(|()| read_frame(conn));
        match roundtrip {
            Ok(resp) => {
                // One clock read per RPC, traced workers only: the
                // liveness mark a later `worker.lost` event anchors to.
                if self.trace.enabled.load(Ordering::Relaxed) {
                    let now = self.trace.telemetry.lock().now_us();
                    self.trace.last_seen_us.store(now, Ordering::Relaxed);
                }
                Ok(resp)
            }
            Err(_) => {
                // Fail the connection permanently: a half-completed frame
                // exchange would desynchronize every later RPC.
                *guard = None;
                Err(ClusterError::NodeDead(self.node))
            }
        }
    }

    /// Switches the worker's trace ring on and estimates its clock offset
    /// with a minimum-RTT PING exchange: each round brackets the worker's
    /// reply `w` between coordinator reads `t0`/`t2`, and the round with
    /// the smallest RTT pins `offset = w - (t0 + t2) / 2`.
    fn enable_trace(&self, telemetry: &Telemetry) -> Result<()> {
        *self.trace.telemetry.lock() = telemetry.clone();
        let mut ctl = BytesMut::new();
        ctl.put_u8(op::TRACE_CTL);
        1u8.encode(&mut ctl);
        let resp = self.rpc(&ctl)?;
        self.expect_ok(resp)?;

        let mut best: Option<(u64, i64)> = None;
        for _ in 0..PING_ROUNDS {
            let mut ping = BytesMut::new();
            ping.put_u8(op::PING);
            let t0 = telemetry.now_us();
            let resp = self.rpc(&ping)?;
            let t2 = telemetry.now_us();
            let mut body = self.expect_ok(resp)?;
            let w_us = u64::decode(&mut body).map_err(|_| ClusterError::NodeDead(self.node))?;
            let rtt = t2.saturating_sub(t0);
            let offset = w_us as i64 - ((t0 + t2) / 2) as i64;
            if best.is_none_or(|(r, _)| rtt < r) {
                best = Some((rtt, offset));
            }
        }
        let (_, offset) = best.expect("PING_ROUNDS > 0");
        self.trace.offset_us.store(offset, Ordering::Relaxed);
        self.trace.last_seen_us.store(telemetry.now_us(), Ordering::Relaxed);
        self.trace.enabled.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Drains the worker's ring into `telemetry`, rebasing each event's
    /// worker-clock timestamp onto the coordinator epoch and clamping the
    /// lane monotone. A dead worker gets a one-time `worker.lost` mark at
    /// its last observed liveness instead.
    fn drain_trace(&self, telemetry: &Telemetry) {
        if !self.trace.enabled.load(Ordering::Relaxed) {
            return;
        }
        let offset = self.trace.offset_us.load(Ordering::Relaxed);
        let node = self.node.0;
        let mut req = BytesMut::new();
        req.put_u8(op::TRACE_DRAIN);
        let drained = self.rpc(&req).and_then(|resp| self.expect_ok(resp)).and_then(|mut body| {
            WorkerTraceReport::decode(&mut body).map_err(|_| ClusterError::NodeDead(self.node))
        });
        match drained {
            Ok(report) => {
                self.trace.events.fetch_add(report.events.len() as u64, Ordering::Relaxed);
                self.trace.dropped.fetch_add(report.dropped, Ordering::Relaxed);
                let mut high = self.trace.high_water_us.load(Ordering::Relaxed);
                let events: Vec<TraceEvent> = report
                    .events
                    .iter()
                    .map(|ev| {
                        let rebased = (ev.at_us as i64 - offset).max(0) as u64;
                        let at_us = rebased.max(high);
                        high = at_us;
                        worker_trace_event(node, at_us, ev)
                    })
                    .collect();
                self.trace.high_water_us.store(high, Ordering::Relaxed);
                telemetry.merge_worker_events(events);
            }
            Err(_) => {
                // Worker unreachable (SIGKILL, broken socket): mark the
                // lane once, at the worker's last observed sign of life.
                if !self.trace.lost_marked.swap(true, Ordering::Relaxed) {
                    let last_seen = self.trace.last_seen_us.load(Ordering::Relaxed);
                    let at_us = last_seen.max(self.trace.high_water_us.load(Ordering::Relaxed));
                    telemetry.merge_worker_events([TraceEvent {
                        at_us,
                        kind: trace::kind::WORKER_LOST,
                        node,
                        detail: format!("worker unreachable; last heartbeat at {last_seen}us"),
                        ..TraceEvent::default()
                    }]);
                }
            }
        }
    }

    fn expect_ok(&self, mut resp: Bytes) -> Result<Bytes> {
        match u8::decode(&mut resp) {
            Ok(s) if s == status::OK => Ok(resp),
            Ok(s) if s == status::MISSING => Err(ClusterError::NoSuchFile(String::new())),
            _ => {
                *self.conn.lock() = None;
                Err(ClusterError::NodeDead(self.node))
            }
        }
    }
}

impl NodeStore for RemoteStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let mut req = BytesMut::new();
        req.put_u8(op::PUT);
        name.to_string().encode(&mut req);
        let len = data.len() as u64;
        data.encode(&mut req);
        let resp = self.rpc(&req)?;
        self.expect_ok(resp)?;
        self.stats.add(classify(name, false), len);
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        let mut req = BytesMut::new();
        req.put_u8(op::GET);
        name.to_string().encode(&mut req);
        let resp = self.rpc(&req)?;
        let mut body = match self.expect_ok(resp) {
            Ok(body) => body,
            Err(ClusterError::NoSuchFile(_)) => {
                return Err(ClusterError::NoSuchFile(format!("{}:{name}", self.node)))
            }
            Err(e) => return Err(e),
        };
        let data = Bytes::decode(&mut body).map_err(|_| ClusterError::NodeDead(self.node))?;
        self.stats.add(classify(name, true), data.len() as u64);
        Ok(data)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut req = BytesMut::new();
        req.put_u8(op::REMOVE);
        name.to_string().encode(&mut req);
        let resp = self.rpc(&req)?;
        self.expect_ok(resp)?;
        self.stats.add(classify(name, false), 0);
        Ok(())
    }

    fn remove_prefix(&self, prefix: &str) -> Result<()> {
        let mut req = BytesMut::new();
        req.put_u8(op::REMOVE_PREFIX);
        prefix.to_string().encode(&mut req);
        let resp = self.rpc(&req)?;
        self.expect_ok(resp)?;
        self.stats.add(WireClass::Other, 0);
        Ok(())
    }

    fn kill(&self) {
        // SIGKILL — the worker gets no chance to flush or reply, exactly
        // the failure mode Dean–Ghemawat recovery is specified against.
        if let Some(child) = self.child.lock().as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        *self.conn.lock() = None;
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
    /// Coordinator telemetry attached via [`Transport::set_telemetry`];
    /// disabled until then. Drains target this sink.
    telemetry: Mutex<Telemetry>,
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
                    conn: Mutex::new(conn),
                    child: Mutex::new(Some(child)),
                    stats: Arc::clone(&stats),
                    trace: TraceState::default(),
                })
            })
            .collect();
        Ok(MultiProcessTransport {
            stores,
            stats,
            socket_path,
            telemetry: Mutex::new(Telemetry::disabled()),
        })
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
            .map(|s| WorkerInfo {
                node: s.node,
                pid: s.pid,
                alive: s.is_alive(),
                offset_us: s.trace.offset_us.load(Ordering::Relaxed),
                trace_events: s.trace.events.load(Ordering::Relaxed),
                trace_dropped: s.trace.dropped.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn set_telemetry(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        *self.telemetry.lock() = telemetry.clone();
        for store in &self.stores {
            // A worker that fails the enable handshake is already dead to
            // the engine (its connection was failed permanently); tracing
            // simply proceeds without it.
            let _ = store.enable_trace(telemetry);
        }
    }

    fn drain_traces(&self) {
        let telemetry = self.telemetry.lock().clone();
        if !telemetry.is_enabled() {
            return;
        }
        for store in &self.stores {
            store.drain_trace(&telemetry);
        }
    }
}

impl Drop for MultiProcessTransport {
    fn drop(&mut self) {
        // Final drain: whatever the last job left in the worker rings
        // still makes it into the merged trace before the sockets close.
        self.drain_traces();
        for store in &self.stores {
            // Polite shutdown first so healthy workers exit on their own…
            let mut req = BytesMut::new();
            req.put_u8(op::SHUTDOWN);
            let _ = store.rpc(&req);
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
    fn class_codes_roundtrip_to_series_names() {
        let classes = [
            WireClass::Dfs,
            WireClass::Seed,
            WireClass::Cache,
            WireClass::MapOutput,
            WireClass::Shuffle,
            WireClass::Other,
        ];
        let names: Vec<&str> = classes.iter().map(|c| class_name(class_code(*c))).collect();
        assert_eq!(names, vec!["dfs", "seed", "cache", "map_output", "shuffle", "other"]);
        // Every series key is reachable from a class code and vice versa.
        let series = WireSnapshot::default().series();
        assert_eq!(series.iter().map(|(k, _)| *k).collect::<Vec<_>>(), names);
    }

    #[test]
    fn worker_trace_report_roundtrips_on_the_wire() {
        let report = WorkerTraceReport {
            dropped: 3,
            events: vec![
                WorkerTraceEvent {
                    opcode: op::PUT,
                    class: class_code(WireClass::MapOutput),
                    at_us: 1_000,
                    dur_us: 12,
                    bytes: 4096,
                    detail: String::new(),
                },
                WorkerTraceEvent {
                    opcode: 0,
                    class: class_code(WireClass::Other),
                    at_us: 51_000,
                    dur_us: 0,
                    bytes: 0,
                    detail: "ops=1 bytes=4096".to_string(),
                },
            ],
        };
        let back = WorkerTraceReport::from_bytes(report.to_bytes()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn worker_ring_is_bounded_and_drain_resets() {
        let mut trace = WorkerTrace::new();
        trace.enabled = true;
        for _ in 0..(WORKER_RING_CAPACITY + 10) {
            trace.push(WorkerTraceEvent {
                opcode: op::GET,
                class: 5,
                at_us: 0,
                dur_us: 0,
                bytes: 1,
                detail: String::new(),
            });
        }
        assert_eq!(trace.ring.len(), WORKER_RING_CAPACITY);
        assert_eq!(trace.dropped, 10);
        // Drain closes the batch with one final heartbeat (evicting one
        // more event from the already-full ring).
        let report = trace.drain();
        assert_eq!(report.events.len(), WORKER_RING_CAPACITY);
        assert_eq!(report.dropped, 11);
        let last = report.events.last().unwrap();
        assert_eq!(last.opcode, 0, "drain ends on a heartbeat");
        assert!(last.detail.contains("ops="));
        // A second drain starts from a clean ring: just its heartbeat.
        let again = trace.drain();
        assert_eq!(again.events.len(), 1);
        assert_eq!(again.events[0].opcode, 0);
        assert_eq!(again.dropped, 0);
    }

    #[test]
    fn worker_events_convert_onto_the_node_lane() {
        let ev = WorkerTraceEvent {
            opcode: op::GET,
            class: class_code(WireClass::Shuffle),
            at_us: 999,
            dur_us: 5,
            bytes: 128,
            detail: String::new(),
        };
        let out = worker_trace_event(2, 1_234, &ev);
        assert_eq!(out.kind, trace::kind::WORKER_GET);
        assert_eq!(out.node, 2);
        assert_eq!(out.at_us, 1_234, "caller-supplied rebased stamp wins");
        assert_eq!(out.phase, "shuffle");
        assert_eq!(out.bytes, 128);
        let hb = WorkerTraceEvent {
            opcode: 0,
            class: 6,
            at_us: 0,
            dur_us: 0,
            bytes: 0,
            detail: "ops=9 bytes=1".to_string(),
        };
        let out = worker_trace_event(0, 7, &hb);
        assert_eq!(out.kind, trace::kind::WORKER_HEARTBEAT);
        assert_eq!(out.phase, "");
        assert_eq!(out.detail, "ops=9 bytes=1");
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
