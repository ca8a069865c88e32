//! The TCP segmentation daemon.
//!
//! Two serving cores share one protocol, one warm [`SegmentPipeline`], and
//! one statistics block, selected by [`ServerConfig::mode`]:
//!
//! * [`ServeMode::Threads`] — one *acceptor* thread owns the listening
//!   socket and spawns one *connection* thread per client.  Each connection
//!   thread reads frames, executes them against the shared pipeline, and
//!   writes the reply before reading the next frame — requests on one
//!   connection are processed in order, while connections run concurrently.
//!   Concurrency across requests is bounded by
//!   [`ServerConfig::max_inflight`] via a small semaphore whose permit is
//!   taken only once a `Segment` frame has been fully read and decoded —
//!   never across a read, so a stalled peer cannot pin an execution slot.
//! * [`ServeMode::Evented`] (the default) — a small fixed set of reactor
//!   threads owns *all* connections on nonblocking sockets behind a
//!   `poll(2)` readiness loop (see the `evented` module), feeding complete
//!   frames through the sans-io [`crate::protocol::FrameDecoder`] to a
//!   worker pool of `max_inflight` threads, and queueing completion-order
//!   replies back through per-connection write buffers.  Per-connection
//!   cost is one buffered frame, not one OS thread — this is the mode that
//!   holds a thousand pipelined connections with flat memory.
//!
//! Shutdown is identical in both modes: a `Shutdown` frame (or
//! [`Server::shutdown_now`]) flips a flag, the server stops accepting, and
//! every connection finishes the frames already on the wire — a request
//! whose bytes reached the server is always answered — then closes once its
//! socket goes idle.  [`Server::join`] returns when the last connection has
//! drained.  Both modes also enforce the same per-frame read deadline
//! ([`ServerConfig::frame_deadline`]): once a frame has started, the rest of
//! it must arrive within the budget, so a client dripping bytes cannot pin
//! a connection (or the drain) forever.

use crate::protocol::{self, Header, Message, ProtocolError, HEADER_LEN};
use crate::stats::{ServerStats, StatsSnapshot};
use iqft_pipeline::{CacheConfig, PipelineConfig, SegmentPipeline, SnapshotError, SnapshotStats};
use iqft_seg::IqftClassifier;
use seg_engine::xpar::{self, Backend};
use seg_engine::SegmentPlan;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle connection waits between checks of the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// After shutdown is signalled, how long a connection keeps listening for
/// frames already in flight before closing an idle socket.
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_millis(200);
/// Once a frame's first byte has arrived, the *whole* rest of the frame must
/// arrive within this wall-clock budget — enforced as an overall deadline,
/// not a per-read timeout, so a client dripping one byte at a time cannot
/// keep a connection thread (and thus the drain) alive forever.  This is the
/// default for [`ServerConfig::frame_deadline`].
pub const FRAME_READ_DEADLINE: Duration = Duration::from_secs(10);
/// Per-read poll granularity while a frame deadline is in force.
const FRAME_POLL: Duration = Duration::from_millis(200);

/// Which serving core a [`Server`] runs (see the module docs for the
/// trade-off).  Both modes speak the same protocol, share the same pipeline
/// and statistics, and reply byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// One OS thread per connection; `max_inflight` enforced by a semaphore.
    Threads,
    /// Nonblocking readiness loop on a fixed reactor-thread count, with a
    /// `max_inflight`-sized worker pool.  On non-unix targets (no `poll(2)`)
    /// this silently falls back to [`ServeMode::Threads`].
    #[default]
    Evented,
}

impl ServeMode {
    /// The mode's CLI / stats spelling (`threads` | `evented`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServeMode::Threads => "threads",
            ServeMode::Evented => "evented",
        }
    }
}

impl std::fmt::Display for ServeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ServeMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(ServeMode::Threads),
            "evented" => Ok(ServeMode::Evented),
            other => Err(format!(
                "unknown serve mode '{other}' (expected threads|evented)"
            )),
        }
    }
}

/// Tuning for a [`Server`].
///
/// Build one with [`ServerConfig::new`] and the chainable `with_*` setters —
/// struct-literal construction is discouraged so future knobs stop being
/// breaking changes:
///
/// ```no_run
/// use iqft_serve::{Server, ServerConfig, ServeMode};
/// use iqft_pipeline::CacheConfig;
///
/// let config = ServerConfig::new("classifier=table;tile=off;backend=serial".parse().unwrap())
///     .with_cache(CacheConfig::with_capacity_mb(64))
///     .with_mode(ServeMode::Evented)
///     .with_max_queue(32);
/// let server = Server::bind("127.0.0.1:0", config).unwrap();
/// # drop(server);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// The segmentation strategy (classifier × tiling × backend) the server
    /// materialises once and serves from.
    pub plan: SegmentPlan,
    /// Maximum concurrently-executing `Segment` requests across all
    /// connections (0 = one per core, whatever the plan's backend).
    pub max_inflight: usize,
    /// Content-addressed result cache for `SegmentCached` requests
    /// (default: disabled).  The cache key is salted with the plan spec, so
    /// a server never serves entries recorded under a different strategy.
    pub cache: CacheConfig,
    /// Which serving core to run (default: [`ServeMode::Evented`]).
    pub mode: ServeMode,
    /// Wall-clock budget for the rest of a frame once its first byte has
    /// arrived (default: [`FRAME_READ_DEADLINE`]).  Tests shrink this to
    /// exercise slow-loris handling without ten-second waits.
    pub frame_deadline: Duration,
    /// Admission limit: segment requests arriving while the worker pool is
    /// saturated *and* this many requests are already queued get an
    /// immediate typed `Busy` reply instead of queueing unboundedly
    /// (default 0 = unbounded queueing, the pre-admission behaviour).
    pub max_queue: usize,
    /// Startup-calibration summary to surface through Stats (empty when the
    /// plan was chosen explicitly rather than by `--plan auto`).
    pub calibration: String,
    /// Where to persist the result cache across restarts (default: `None`,
    /// no persistence).  On boot a snapshot at this path is warm-loaded —
    /// unless its salt (plan spec) or checksum disagrees, which is a clean
    /// cold start — and on a drain-then-stop shutdown the resident entries
    /// are written back.  Requires [`ServerConfig::cache`] to be enabled.
    pub cache_persist: Option<PathBuf>,
}

impl ServerConfig {
    /// A config serving `plan` with every other knob at its default.
    pub fn new(plan: SegmentPlan) -> Self {
        ServerConfig {
            plan,
            ..ServerConfig::default()
        }
    }

    /// Sets the result cache for `SegmentCached`/`SegmentDelta` requests.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Selects the serving core.
    pub fn with_mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-frame read deadline.
    pub fn with_frame_deadline(mut self, deadline: Duration) -> Self {
        self.frame_deadline = deadline;
        self
    }

    /// Sets the admission limit (0 = unbounded queueing).
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Caps concurrently-executing segment requests (0 = one per core,
    /// whatever the plan's backend).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Attaches a calibration summary for the Stats reply.
    pub fn with_calibration(mut self, calibration: String) -> Self {
        self.calibration = calibration;
        self
    }

    /// Persists the result cache to `path`: warm-load on boot, save on a
    /// drain-then-stop shutdown.
    pub fn with_cache_persist(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_persist = Some(path.into());
        self
    }
}

impl Default for ServerConfig {
    /// Serves the default plan on the serial backend: requests already run
    /// in parallel across the worker pool, so splitting each one across
    /// threads as well would only add spawns and oversubscribe the cores.
    fn default() -> Self {
        ServerConfig {
            plan: SegmentPlan::default().with_backend(Backend::Serial),
            max_inflight: 0,
            cache: CacheConfig::default(),
            mode: ServeMode::default(),
            frame_deadline: FRAME_READ_DEADLINE,
            max_queue: 0,
            calibration: String::new(),
            cache_persist: None,
        }
    }
}

/// A counting semaphore bounding concurrent segment requests (std-only),
/// with a waiter count so admission control can refuse instead of queueing.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Debug)]
struct GateState {
    permits: usize,
    waiters: usize,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                permits: permits.max(1),
                waiters: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit; the returned guard gives it back on drop, so a panic
    /// while segmenting can never leak a permit and starve later requests.
    ///
    /// When every permit is taken and `max_queue` other requests are already
    /// waiting, returns `None` immediately — the admission-control rejection
    /// the caller turns into a typed `Busy` reply.  `max_queue == 0` means
    /// unbounded queueing (the pre-admission behaviour).
    fn acquire(&self, max_queue: usize) -> Option<GatePermit<'_>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.permits == 0 {
            if max_queue != 0 && state.waiters >= max_queue {
                return None;
            }
            state.waiters += 1;
            while state.permits == 0 {
                state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.waiters -= 1;
        }
        state.permits -= 1;
        Some(GatePermit(self))
    }

    fn release(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).permits += 1;
        self.freed.notify_one();
    }
}

struct GatePermit<'a>(&'a Gate);

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// State shared by every serving thread (acceptor + connection threads in
/// threads mode; reactors + workers in evented mode).
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) pipeline: SegmentPipeline<IqftClassifier>,
    plan: SegmentPlan,
    pub(crate) stats: ServerStats,
    gate: Gate,
    pub(crate) max_inflight: usize,
    /// Admission limit shared by both cores (0 = unbounded queueing).
    pub(crate) max_queue: usize,
    /// Segment jobs dispatched to the evented worker pool but not yet picked
    /// up — the evented core's admission gauge.
    pub(crate) queued_jobs: std::sync::atomic::AtomicUsize,
    /// Startup-calibration summary (empty when the plan was explicit).
    calibration: String,
    /// Result-cache persistence path (None = no persistence).
    cache_persist: Option<PathBuf>,
    /// What the boot-time warm load brought in (zero when persistence is off,
    /// the snapshot was absent, or it was rejected).
    warm_loaded: SnapshotStats,
    /// Why the boot-time warm load was rejected, if it was (a fresh boot
    /// with no snapshot yet is not an error and leaves this empty).
    warm_error: Option<String>,
    shutting_down: AtomicBool,
    started: Instant,
    addr: SocketAddr,
    /// The mode actually running (after any platform fallback).
    mode: ServeMode,
    pub(crate) frame_deadline: Duration,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn snapshot(&self, conn: &ConnStats) -> StatsSnapshot {
        let uptime_secs = self.started.elapsed().as_secs_f64();
        let pixels_total = self.stats.pixels_total();
        let cache = self
            .pipeline
            .cache()
            .map(|cache| cache.stats())
            .unwrap_or_default();
        let mut snapshot = StatsSnapshot {
            plan: self.plan.to_spec(),
            serve_mode: self.mode.as_str().to_string(),
            uptime_secs,
            connections_total: self.stats.connections_total(),
            connections_open: self.stats.connections_open(),
            requests_total: self.stats.requests_total(),
            segment_requests: self.stats.segment_requests(),
            pixels_total,
            mpix_per_sec: if uptime_secs > 0.0 {
                pixels_total as f64 / 1e6 / uptime_secs
            } else {
                0.0
            },
            protocol_errors: self.stats.protocol_errors(),
            arena_allocations: self.pipeline.arena().allocations(),
            arena_reuses: self.pipeline.arena().reuses(),
            arena_pooled: self.pipeline.arena().pooled(),
            max_inflight: self.max_inflight,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_capacity_bytes: cache.capacity_bytes,
            delta_tiles_hit: cache.tile_hits,
            delta_tiles_recomputed: cache.tile_recomputed,
            quant_fallback_pixels: self.pipeline.classifier().quant_fallback_pixels(),
            max_queue: self.max_queue,
            busy_rejections: self.stats.busy_rejections(),
            accept_errors: self.stats.accept_errors(),
            calibration: self.calibration.clone(),
            conn_requests: conn.requests,
            conn_pixels: conn.pixels,
            ..StatsSnapshot::default()
        };
        snapshot.set_latency(self.stats.latency_summary());
        // Persistence figures ride the forward-compat `extra` map: older
        // clients relay them untouched, newer ones read them through
        // `StatsSnapshot::extra_u64`.
        if self.cache_persist.is_some() {
            snapshot.extra.insert(
                "cache_warm_loaded_entries".to_string(),
                self.warm_loaded.entries.to_string(),
            );
            snapshot.extra.insert(
                "cache_warm_loaded_bytes".to_string(),
                self.warm_loaded.label_bytes.to_string(),
            );
            if let Some(why) = &self.warm_error {
                snapshot
                    .extra
                    .insert("cache_warm_error".to_string(), why.replace('\n', " "));
            }
        }
        snapshot
    }

    /// Writes the result cache back to the persistence path, if one is
    /// configured.  Runs exactly once, after the drain has finished (the
    /// acceptor has exited and every connection is joined), so the snapshot
    /// reflects the final resident set.  A failed save is best-effort: the
    /// next boot simply starts cold.
    fn persist_cache(&self) {
        if let (Some(path), Some(cache)) = (&self.cache_persist, self.pipeline.cache()) {
            let _ = cache.save_to(path);
        }
    }

    /// Flips the shutdown flag and pokes the (possibly blocked) acceptor
    /// with a throwaway loopback connection so it observes the flag.
    pub(crate) fn signal_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // A wildcard bind (0.0.0.0 / ::) is not itself connectable; poke
        // the loopback of the same family instead.  A failed poke just
        // means the listener is already gone.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
    }
}

/// Per-connection counters (folded into the Stats reply for that client).
#[derive(Debug, Default)]
pub(crate) struct ConnStats {
    pub(crate) requests: usize,
    pub(crate) pixels: u64,
}

/// A running segmentation service bound to a TCP address.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), builds the
    /// warm pipeline for `config.plan`, and starts the acceptor thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let plan = config.plan;
        let pipeline = SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
            .with_config(PipelineConfig {
                tiling: plan.tiling(),
                ..PipelineConfig::default()
            })
            .with_cache(config.cache, &plan.to_spec());
        let max_inflight = if config.max_inflight == 0 {
            xpar::default_threads()
        } else {
            config.max_inflight
        };
        // `poll(2)` only exists on unix; elsewhere the evented request
        // silently degrades to the thread-per-connection core, which speaks
        // the identical protocol.
        let mode = if cfg!(unix) {
            config.mode
        } else {
            ServeMode::Threads
        };
        // Warm-load a persisted cache snapshot before the first connection
        // is accepted, so the very first request can already hit.  Any
        // defect in the snapshot — truncation, corruption, a different
        // plan's salt — is a clean cold start, never a bind failure and
        // never a wrong label.  A simply-absent snapshot (first boot) is
        // not an error.
        let mut warm_loaded = SnapshotStats::default();
        let mut warm_error = None;
        if let (Some(path), Some(cache)) = (&config.cache_persist, pipeline.cache()) {
            match cache.load_from(path) {
                Ok(stats) => warm_loaded = stats,
                Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                Err(err) => warm_error = Some(err.to_string()),
            }
        }
        let shared = Arc::new(Shared {
            pipeline,
            plan,
            stats: ServerStats::new(),
            gate: Gate::new(max_inflight),
            max_inflight,
            max_queue: config.max_queue,
            queued_jobs: std::sync::atomic::AtomicUsize::new(0),
            calibration: config.calibration,
            cache_persist: config.cache_persist,
            warm_loaded,
            warm_error,
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            addr,
            mode,
            frame_deadline: config.frame_deadline,
        });
        let acceptor = match mode {
            ServeMode::Threads => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("iqft-serve-acceptor".to_string())
                        .spawn(move || accept_loop(listener, shared))?,
                )
            }
            #[cfg(unix)]
            ServeMode::Evented => Some(crate::evented::spawn(listener, Arc::clone(&shared))?),
            #[cfg(not(unix))]
            ServeMode::Evented => unreachable!("evented mode is gated to unix above"),
        };
        Ok(Server { shared, acceptor })
    }

    /// The serving core actually running (after any platform fallback).
    pub fn mode(&self) -> ServeMode {
        self.shared.mode
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The plan the server is executing.
    pub fn plan(&self) -> SegmentPlan {
        self.shared.plan
    }

    /// Effective cap on concurrently-executing segment requests.
    pub fn max_inflight(&self) -> usize {
        self.shared.max_inflight
    }

    /// Whether a shutdown has been requested (by frame or locally).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Total frames handled so far (for post-shutdown reporting).
    pub fn requests_total(&self) -> usize {
        self.shared.stats.requests_total()
    }

    /// Total pixels segmented so far (for post-shutdown reporting).
    pub fn pixels_total(&self) -> u64 {
        self.shared.stats.pixels_total()
    }

    /// Triggers the same drain-then-stop shutdown a `Shutdown` frame does.
    pub fn shutdown_now(&self) {
        self.shared.signal_shutdown();
    }

    /// Blocks until the server has fully drained and stopped: the acceptor
    /// has exited and every connection thread has been joined.
    pub fn join(self) {
        let _ = self.join_with_counters();
    }

    /// What the boot-time warm load brought in: `(entries, label_bytes)`.
    /// Zero unless the server was configured with a persistence path and a
    /// valid matching snapshot existed.
    pub fn cache_warm_loaded(&self) -> (usize, usize) {
        (
            self.shared.warm_loaded.entries,
            self.shared.warm_loaded.label_bytes,
        )
    }

    /// Like [`Server::join`], but returns the final
    /// `(requests_total, pixels_total)` counters observed after the drain —
    /// what a supervising CLI prints as its exit summary.
    pub fn join_with_counters(mut self) -> (usize, u64) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
            self.shared.persist_cache();
        }
        (
            self.shared.stats.requests_total(),
            self.shared.stats.pixels_total(),
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server must not leak a live acceptor blocked in accept().
        if let Some(handle) = self.acceptor.take() {
            self.shared.signal_shutdown();
            let _ = handle.join();
            self.shared.persist_cache();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let draining = shared.shutting_down();
                // A connection accepted during shutdown may be a real client
                // that raced the poke and already has a frame on the wire —
                // serve it (drain semantics answer anything that arrived and
                // close once idle); the poke itself just EOFs immediately.
                spawn_connection(stream, &shared, &mut connections);
                if draining {
                    break;
                }
                // Reap handles of connections that already finished, so a
                // long-lived daemon's handle list tracks *live* connections
                // instead of growing with every client ever served.
                connections.retain(|handle| !handle.is_finished());
            }
            Err(_) => {
                if shared.shutting_down() {
                    break;
                }
                shared.stats.accept_error();
                // Transient accept errors (e.g. ECONNABORTED) are not
                // fatal, but persistent ones (e.g. EMFILE) would otherwise
                // hot-loop the acceptor at 100% CPU — back off briefly.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        }
    }
    // Serve whatever was already queued in the accept backlog at shutdown,
    // so a client that connected just before the flag flipped is answered
    // rather than silently dropped.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((stream, _peer)) = listener.accept() {
            spawn_connection(stream, &shared, &mut connections);
        }
    }
    drop(listener);
    // Drain: every connection finishes its in-flight frames before we stop.
    for handle in connections {
        let _ = handle.join();
    }
}

/// Drop-guard so the open-connection gauge stays correct even if the
/// connection thread unwinds.
struct OpenConn<'a>(&'a ServerStats);

impl Drop for OpenConn<'_> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

fn spawn_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    connections: &mut Vec<JoinHandle<()>>,
) {
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("iqft-serve-conn".to_string())
        .spawn(move || {
            shared.stats.connection_opened();
            let _open = OpenConn(&shared.stats);
            let _ = serve_connection(stream, &shared);
        });
    if let Ok(handle) = handle {
        connections.push(handle);
    }
}

/// Outcome of waiting for the first byte of the next frame.
enum FirstByte {
    Byte(u8),
    TimedOut,
    Eof,
}

fn wait_first_byte(stream: &mut TcpStream, wait: Duration) -> io::Result<FirstByte> {
    stream.set_read_timeout(Some(wait))?;
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => Ok(FirstByte::Eof),
        Ok(_) => Ok(FirstByte::Byte(byte[0])),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(FirstByte::TimedOut)
        }
        Err(e) => Err(e),
    }
}

/// `read_exact` bounded by an overall wall-clock `deadline` (enforced across
/// reads, so progress cannot reset the budget the way a per-read timeout
/// would).
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> io::Result<()> {
    stream.set_read_timeout(Some(FRAME_POLL))?;
    let mut filled = 0;
    while filled < buf.len() {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read deadline exceeded",
            ));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Backlog-drained sockets may inherit the listener's non-blocking mode
    // on some platforms; the read-timeout machinery below needs blocking.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let mut conn = ConnStats::default();
    loop {
        let draining = shared.shutting_down();
        let wait = if draining {
            SHUTDOWN_GRACE
        } else {
            POLL_INTERVAL
        };
        let first = match wait_first_byte(&mut stream, wait)? {
            FirstByte::Byte(byte) => byte,
            FirstByte::Eof => break,
            FirstByte::TimedOut => {
                if draining {
                    break;
                }
                continue;
            }
        };
        match handle_frame(first, &mut stream, shared, &mut conn) {
            Ok(keep_open) => {
                if !keep_open {
                    break;
                }
            }
            // Reply was unsendable or the frame unreadable at the transport
            // level: nothing more to do for this client.
            Err(ProtocolError::Io(e)) => return Err(e),
            Err(_) => break,
        }
    }
    Ok(())
}

/// Reads the remainder of one frame (whose first byte is `first`), executes
/// it, and writes the reply.  Returns whether the connection stays open.
///
/// Malformed frames get a best-effort [`Message::Error`] reply (with request
/// id 0 if the header never parsed) and close the connection, since framing
/// may be lost.
fn handle_frame(
    first: u8,
    stream: &mut TcpStream,
    shared: &Shared,
    conn: &mut ConnStats,
) -> Result<bool, ProtocolError> {
    // A frame has started: each phase of it (header, then payload) must
    // arrive within its own wall-clock deadline, so a half-sent or dripped
    // frame cannot hang the drain forever.
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_deadline(
        stream,
        &mut header[1..],
        Instant::now() + shared.frame_deadline,
    )?;
    shared.stats.request();
    conn.requests += 1;
    let header = match protocol::parse_header(&header) {
        Ok(parsed) => parsed,
        Err(err) => {
            shared.stats.protocol_error();
            // If the magic matched, the id field's offset is shared by every
            // protocol version — echo it so e.g. a v1 client can correlate
            // the typed version error with its request.  Otherwise the
            // stream is not speaking this protocol at all; echo 0.
            let id = if header[0..4] == protocol::MAGIC {
                u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"))
            } else {
                0
            };
            reply_error(stream, id, &err);
            return Ok(false);
        }
    };
    // (Allocation bounded by MAX_PAYLOAD_BYTES; parse_header checked.)
    let mut payload = vec![0u8; header.payload_len];
    read_exact_deadline(stream, &mut payload, Instant::now() + shared.frame_deadline)?;
    let message = match protocol::decode_body(header.op, &payload) {
        Ok(message) => message,
        Err(err) => {
            shared.stats.protocol_error();
            reply_error(stream, header.request_id, &err);
            return Ok(false);
        }
    };
    // The execution permit is taken only once the whole frame has been
    // buffered and decoded — never across a read.  A peer stalling
    // mid-payload therefore burns its own frame deadline, not a
    // `max_inflight` slot, and can never delay replies on healthy
    // connections.  The permit is held through execution and released when
    // this function returns.
    let _permit = if matches!(
        header.op,
        protocol::Op::Segment | protocol::Op::SegmentCached | protocol::Op::SegmentDelta
    ) {
        match shared.gate.acquire(shared.max_queue) {
            Some(permit) => Some(permit),
            None => {
                // Admission refused: the pool and the queue are both full.
                // Count before the reply ships, answer with the typed Busy
                // frame, and keep the connection open — the request was
                // well-formed and may be retried.
                shared.stats.busy_rejection();
                protocol::write_message(stream, header.request_id, &Message::Busy)?;
                return Ok(true);
            }
        }
    } else {
        None
    };
    execute(stream, shared, conn, header, message)
}

fn reply_error(stream: &mut TcpStream, request_id: u64, err: &ProtocolError) {
    let _ = protocol::write_message(
        stream,
        request_id,
        &Message::Error {
            message: err.to_string(),
        },
    );
}

fn execute(
    stream: &mut TcpStream,
    shared: &Shared,
    conn: &mut ConnStats,
    header: Header,
    message: Message,
) -> Result<bool, ProtocolError> {
    match message {
        Message::Segment { image } => {
            // The caller (handle_frame) already holds the gate permit.
            let started = Instant::now();
            let labels = shared.pipeline.segment_request(&image);
            // Count the work before the reply ships, so a client that has
            // its reply in hand can never read a stale snapshot.
            shared.stats.record_latency(started.elapsed());
            shared.stats.segmented(labels.len());
            conn.pixels += labels.len() as u64;
            let reply = Message::SegmentReply { labels };
            let result = protocol::write_message(stream, header.request_id, &reply);
            // Reply bytes are on the wire (or the connection is dead); either
            // way the buffer can go back to the arena for the next request.
            if let Message::SegmentReply { labels } = reply {
                shared.pipeline.recycle(labels);
            }
            result?;
            Ok(true)
        }
        Message::SegmentCached { image, bypass } => {
            // Same shape as Segment, but routed through the result cache:
            // a hit is a hash + memcpy, a miss segments and stores a copy.
            let started = Instant::now();
            let (labels, cached) = shared.pipeline.segment_request_cached(&image, bypass);
            shared.stats.record_latency(started.elapsed());
            shared.stats.segmented(labels.len());
            conn.pixels += labels.len() as u64;
            let reply = Message::SegmentCachedReply { labels, cached };
            let result = protocol::write_message(stream, header.request_id, &reply);
            if let Message::SegmentCachedReply { labels, .. } = reply {
                shared.pipeline.recycle(labels);
            }
            result?;
            Ok(true)
        }
        Message::SegmentDelta { image } => {
            // Per-tile variant of SegmentCached: unchanged tiles are stitched
            // from cached label tiles, changed tiles are re-classified.
            let started = Instant::now();
            let (labels, tiles_hit, tiles_recomputed) =
                shared.pipeline.segment_request_delta(&image);
            shared.stats.record_latency(started.elapsed());
            shared.stats.segmented(labels.len());
            conn.pixels += labels.len() as u64;
            let reply = Message::SegmentDeltaReply {
                labels,
                tiles_hit,
                tiles_recomputed,
            };
            let result = protocol::write_message(stream, header.request_id, &reply);
            if let Message::SegmentDeltaReply { labels, .. } = reply {
                shared.pipeline.recycle(labels);
            }
            result?;
            Ok(true)
        }
        Message::Ping => {
            protocol::write_message(stream, header.request_id, &Message::Pong)?;
            Ok(true)
        }
        Message::Stats => {
            let text = shared.snapshot(conn).to_text();
            protocol::write_message(stream, header.request_id, &Message::StatsReply { text })?;
            Ok(true)
        }
        Message::Shutdown => {
            protocol::write_message(stream, header.request_id, &Message::ShutdownReply)?;
            shared.signal_shutdown();
            Ok(false)
        }
        // A reply op arriving as a request is a protocol violation; say so
        // precisely (the op *is* known, it is just not a request).
        other => {
            shared.stats.protocol_error();
            let _ = protocol::write_message(
                stream,
                header.request_id,
                &Message::Error {
                    message: format!(
                        "{} is a reply op and cannot be sent as a request",
                        other.name()
                    ),
                },
            );
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use imaging::{Rgb, RgbImage};
    use seg_engine::{ClassifierKind, SegmentEngine, Tiling};
    use std::io::Write;
    use std::path::Path;

    fn test_image(seed: u8) -> RgbImage {
        RgbImage::from_fn(31, 17, move |x, y| {
            Rgb::new(
                (x * 7 + seed as usize) as u8,
                (y * 11) as u8,
                ((x + y) * 5) as u8,
            )
        })
    }

    fn open_client(addr: SocketAddr) -> io::Result<Client> {
        Client::open(&crate::client::ClientConfig::new(addr.to_string()))
    }

    #[test]
    fn ephemeral_server_serves_ping_segment_stats_and_drains() {
        let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
            width: 16,
            height: 16,
        });
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(plan)
                .with_max_inflight(2)
                .with_max_queue(7),
        )
        .unwrap();
        assert_eq!(server.max_inflight(), 2);
        assert_eq!(server.plan(), plan);
        assert!(!server.is_shutting_down());

        let mut client = open_client(server.local_addr()).unwrap();
        client.ping().unwrap();
        let img = test_image(3);
        let (labels, _) = client.segment(&img).unwrap().unwrap_done();
        let expected = SegmentEngine::serial()
            .segment_rgb(&IqftClassifier::paper_default(ClassifierKind::Exact), &img);
        assert_eq!(labels, expected);

        let stats = client.stats().unwrap();
        assert_eq!(stats.segment_requests, 1);
        assert_eq!(stats.pixels_total, img.len() as u64);
        assert_eq!(stats.conn_requests, 3, "ping + segment + stats");
        assert_eq!(stats.max_inflight, 2);
        assert_eq!(stats.max_queue, 7);
        assert_eq!(stats.busy_rejections, 0);
        assert_eq!(stats.plan, plan.to_spec());
        assert_eq!(stats.lat_count, 1, "one segment = one latency sample");
        assert!(stats.lat_p50_us <= stats.lat_max_us);

        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn cached_requests_hit_after_first_miss_and_stats_report_it() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8)),
        )
        .unwrap();
        let mut client = open_client(server.local_addr()).unwrap();
        let img = test_image(5);
        let expected = SegmentEngine::serial()
            .segment_rgb(&IqftClassifier::paper_default(ClassifierKind::Exact), &img);
        let (first, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(!hit, "cold cache misses");
        assert_eq!(first, expected);
        let (second, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(hit, "warm cache hits");
        assert_eq!(second, expected, "hit is byte-identical to a fresh pass");
        // Bypass skips the cache but still answers identically.
        let (third, hit) = client.segment_cached(&img, true).unwrap().unwrap_done();
        assert!(!hit);
        assert_eq!(third, expected);
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits, 1, "{stats:?}");
        assert_eq!(stats.cache_misses, 1, "{stats:?}");
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.cache_capacity_bytes, 8 << 20);
        assert!(stats.cache_bytes > 0);
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn restarted_server_serves_warm_hits_from_a_persisted_cache() {
        let dir = std::env::temp_dir().join("iqft-serve-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("restart-{}.snap", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = || {
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8))
                .with_cache_persist(&path)
        };

        // First life: populate the cache and drain (which saves).
        let server = Server::bind("127.0.0.1:0", config()).unwrap();
        assert_eq!(server.cache_warm_loaded(), (0, 0), "first boot is cold");
        let mut client = open_client(server.local_addr()).unwrap();
        let img = test_image(9);
        let (first, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(!hit);
        let stats = client.stats().unwrap();
        assert_eq!(stats.extra_u64("cache_warm_loaded_entries"), Some(0));
        client.shutdown().unwrap();
        server.join();
        assert!(path.exists(), "drain-then-stop wrote the snapshot");

        // Second life: the very first request must hit the warm-loaded
        // entry and answer byte-identically.
        let server = Server::bind("127.0.0.1:0", config()).unwrap();
        let (entries, bytes) = server.cache_warm_loaded();
        assert_eq!(entries, 1);
        assert_eq!(bytes, img.len() * 4);
        let mut client = open_client(server.local_addr()).unwrap();
        let (second, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(hit, "first post-restart request is a warm hit");
        assert_eq!(second, first, "warm hit is byte-identical");
        let stats = client.stats().unwrap();
        assert_eq!(stats.extra_u64("cache_warm_loaded_entries"), Some(1));
        assert_eq!(
            stats.extra_u64("cache_warm_loaded_bytes"),
            Some(img.len() as u64 * 4)
        );
        assert!(stats.extra_u64("cache_warm_error").is_none());
        client.shutdown().unwrap();
        server.join();

        // Third life under a *different plan*: the salt mismatch is a clean
        // cold start, surfaced through the stats extras — never a wrong
        // label served from a foreign snapshot.
        let other_plan: SegmentPlan = "classifier=simd;tile=off;backend=serial".parse().unwrap();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(other_plan)
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8))
                .with_cache_persist(&path),
        )
        .unwrap();
        assert_eq!(server.cache_warm_loaded(), (0, 0));
        let mut client = open_client(server.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.extra_u64("cache_warm_loaded_entries"), Some(0));
        assert!(
            stats
                .extra
                .get("cache_warm_error")
                .is_some_and(|why| why.contains("salt")),
            "{:?}",
            stats.extra
        );
        let (_, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(!hit, "foreign snapshot never produces a hit");
        client.shutdown().unwrap();
        server.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gate_admission_refuses_only_past_the_queue_limit() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.acquire(1).expect("free permit admits immediately");
        // One request may wait in the queue (max_queue = 1)…
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire(1).is_some())
        };
        while gate.state.lock().unwrap().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …but a second is refused instead of queueing unboundedly.
        assert!(gate.acquire(1).is_none(), "pool + queue saturated → Busy");
        // Unbounded mode (max_queue = 0) would still queue; verify it does
        // not refuse by checking the waiter count path is the only gate.
        drop(held);
        assert!(waiter.join().unwrap(), "queued request ran after release");
        // Pool free again: admission succeeds with the same limit.
        drop(gate.acquire(1).expect("released permit re-admits"));
    }

    #[test]
    fn config_builder_chains_every_knob() {
        let plan = SegmentPlan::default().with_classifier(ClassifierKind::Simd);
        let config = ServerConfig::new(plan)
            .with_cache(CacheConfig::with_capacity_mb(4))
            .with_mode(ServeMode::Threads)
            .with_frame_deadline(Duration::from_secs(3))
            .with_max_queue(9)
            .with_max_inflight(5)
            .with_calibration("cores=2;probes=3".to_string())
            .with_cache_persist("/tmp/iqft-cache.snap");
        assert_eq!(config.plan, plan);
        assert_eq!(config.cache, CacheConfig::with_capacity_mb(4));
        assert_eq!(config.mode, ServeMode::Threads);
        assert_eq!(config.frame_deadline, Duration::from_secs(3));
        assert_eq!(config.max_queue, 9);
        assert_eq!(config.max_inflight, 5);
        assert_eq!(config.calibration, "cores=2;probes=3");
        assert_eq!(
            config.cache_persist.as_deref(),
            Some(Path::new("/tmp/iqft-cache.snap"))
        );
        assert_eq!(ServerConfig::new(plan).max_queue, 0, "default: unbounded");
    }

    #[test]
    fn default_config_serves_the_serial_simd_plan() {
        let plan = ServerConfig::default().plan;
        assert_eq!(plan.to_spec(), "classifier=simd;tile=off;backend=serial");
        assert_eq!(plan, SegmentPlan::default().with_backend(Backend::Serial));
    }

    #[test]
    fn zero_max_inflight_means_one_worker_per_core_even_for_a_serial_plan() {
        let plan: SegmentPlan = "classifier=simd;tile=off;backend=serial".parse().unwrap();
        let server =
            Server::bind("127.0.0.1:0", ServerConfig::new(plan).with_max_inflight(0)).unwrap();
        let mut client = open_client(server.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.max_inflight, xpar::default_threads());
        assert_eq!(stats.plan, plan.to_spec());
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn calibration_summary_travels_through_stats() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default().with_calibration("cores=1;probes=4;exhausted=0".to_string()),
        )
        .unwrap();
        let mut client = open_client(server.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.calibration, "cores=1;probes=4;exhausted=0");
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn dropped_server_does_not_leak_its_acceptor() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        drop(server); // Drop joins the acceptor; a hang here fails the test.
        assert!(
            open_client(addr).is_err() || {
                // The OS may briefly accept on the dead listener's backlog; a
                // subsequent request must still fail.
                let mut c = open_client(addr).unwrap();
                c.ping().is_err()
            }
        );
    }

    #[test]
    fn garbage_frames_get_an_error_reply_not_a_crash() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        stream.write_all(&[0u8; 16]).unwrap();
        let (id, reply) = protocol::read_message(&mut stream).unwrap();
        assert_eq!(id, 0, "header never parsed, so the error echoes id 0");
        assert!(
            matches!(reply, Message::Error { ref message } if message.contains("magic")),
            "{reply:?}"
        );
        // A well-formed frame carrying a reply op is diagnosed precisely.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&protocol::encode_message(5, &Message::Pong).unwrap())
            .unwrap();
        let (id, reply) = protocol::read_message(&mut stream).unwrap();
        assert_eq!(id, 5);
        assert!(
            matches!(reply, Message::Error { ref message } if message.contains("reply op")),
            "{reply:?}"
        );
        // The server survives and still serves fresh connections.
        let mut client = open_client(server.local_addr()).unwrap();
        client.ping().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.protocol_errors, 2, "bad magic + reply-op request");
        server.shutdown_now();
        server.join();
    }
}
