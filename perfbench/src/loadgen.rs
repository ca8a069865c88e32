//! The wire load generator: one thread per connection, each multiplexing its
//! own sends and replies over `ppoll(2)`.
//!
//! * **Closed pace** keeps `depth` requests in flight per connection; it
//!   measures throughput.
//! * **Open pace** sends on a fixed schedule whatever the replies do, and
//!   times every request from its *intended* send time, so a stall shows up
//!   in the latency of every request it delays (no coordinated omission).
//!   How late the generator itself got round to a request is kept apart as
//!   lag.
//!
//! Every reply is decoded with the protocol's own `FrameDecoder` and checked
//! label for label against the exact oracle.

use crate::report::median;
use crate::workload::{Inputs, Req};
use imaging::{Rgb, RgbImage};
use iqft_serve::protocol::{self, FrameDecoder, Message, MAX_PIPELINE_DEPTH};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Width of the windows closed-phase throughput is taken over.
const THROUGHPUT_WINDOW: Duration = Duration::from_millis(500);

/// How long a phase may run past its end to collect outstanding replies
/// before the connection is declared failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Which request op a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// `SegmentCached` through the whole-image result cache.
    Cached,
    /// `SegmentDelta` through the per-tile delta cache.
    Delta,
}

/// A fixed send schedule: request `k` of a connection is due at
/// `start + offset + k · interval`, independent of any reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Phase start shared by every connection.
    pub start: Instant,
    /// This connection's stagger inside one interval.
    pub offset: Duration,
    /// Time between two sends of this connection.
    pub interval: Duration,
}

impl Schedule {
    /// The schedule of connection `conn` of `conns` when all of them
    /// together offer `rate` requests per second.
    pub fn for_connection(start: Instant, rate: f64, conn: usize, conns: usize) -> Schedule {
        let interval = Duration::from_secs_f64(conns as f64 / rate);
        Schedule {
            start,
            offset: interval.mul_f64(conn as f64 / conns as f64),
            interval,
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.offset + self.interval.mul_f64(k as f64)
    }
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep `depth` requests in flight until `until`, or until `limit`
    /// requests were sent, whichever is later.
    Closed {
        /// Requests in flight per connection.
        depth: usize,
        /// Minimum number of requests to send.
        limit: u64,
    },
    /// Send on the connection's schedule until `until`.
    Open(Schedule),
}

/// Client-side span of one request of a traced phase.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// When the generator started building it.
    pub issued: Instant,
    /// When its frame was encoded.
    pub encoded: Instant,
    /// When its last byte was handed to the socket.
    pub written: Option<Instant>,
    /// When its reply frame was complete.
    pub replied: Instant,
    /// When the reply was decoded into labels.
    pub decoded: Instant,
}

/// What one phase saw, summed over its connections.
#[derive(Debug, Default)]
pub struct Tally {
    /// Segment requests sent.
    pub sent: u64,
    /// Replies whose labels matched the oracle.
    pub ok: u64,
    /// Requests the daemon refused with `Busy`.
    pub busy: u64,
    /// Requests lost to a transport or protocol failure.
    pub transport: u64,
    /// Replies whose labels differ from the oracle.
    pub mismatched: u64,
    /// Pixels of the matching replies.
    pub pixels: u64,
    /// Replies flagged as whole-image cache hits.
    pub cache_hits: u64,
    /// Delta tiles stitched from the cache.
    pub tiles_hit: u64,
    /// Delta tiles re-classified.
    pub tiles_recomputed: u64,
    /// (intended send, nanoseconds from it to the decoded reply) per
    /// matching reply of an open phase.
    pub latency: Vec<(Instant, u64)>,
    /// Intended send → generator started the request, in nanoseconds.
    pub lag_ns: Vec<u64>,
    /// Phase start.
    pub start: Option<Instant>,
    /// When the phase stopped issuing requests.
    pub until: Option<Instant>,
    /// When the last reply of the phase was decoded.
    pub end: Option<Instant>,
    /// (reply decoded, verified pixels) per matching reply.
    pub completions: Vec<(Instant, u64)>,
    /// Client-side spans (traced phases only).
    pub spans: Vec<Span>,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    /// Requests that failed in any way (refused, lost or wrong).
    pub fn failed(&self) -> u64 {
        self.busy + self.transport + self.mismatched
    }

    /// Verified megapixels per second: the median over the whole
    /// [`THROUGHPUT_WINDOW`]s between the phase start and the moment it
    /// stopped issuing, so a short stall of the host moves it little.
    pub fn mpx_per_s(&self) -> f64 {
        let (Some(start), Some(until)) = (self.start, self.until) else {
            return 0.0;
        };
        let window = THROUGHPUT_WINDOW.as_secs_f64();
        let windows = ((until.saturating_duration_since(start)).as_secs_f64() / window) as usize;
        if windows == 0 {
            return self.mean_mpx_per_s();
        }
        let mut pixels = vec![0u64; windows];
        for &(at, px) in &self.completions {
            let slot = (at.saturating_duration_since(start).as_secs_f64() / window) as usize;
            if let Some(sum) = pixels.get_mut(slot) {
                *sum += px;
            }
        }
        median(&pixels) as f64 / 1e6 / window
    }

    /// Verified megapixels per second from phase start to the last reply.
    pub fn mean_mpx_per_s(&self) -> f64 {
        match (self.start, self.end) {
            (Some(start), Some(end)) if end > start => {
                self.pixels as f64 / 1e6 / (end - start).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Latencies in nanoseconds, in the order the requests were due.
    pub fn latency_in_send_order(&self) -> Vec<u64> {
        let mut latency = self.latency.clone();
        latency.sort_by_key(|&(intended, _)| intended);
        latency.into_iter().map(|(_, ns)| ns).collect()
    }

    /// Folds another connection's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.busy += other.busy;
        self.transport += other.transport;
        self.mismatched += other.mismatched;
        self.pixels += other.pixels;
        self.cache_hits += other.cache_hits;
        self.tiles_hit += other.tiles_hit;
        self.tiles_recomputed += other.tiles_recomputed;
        self.latency.extend(other.latency);
        self.lag_ns.extend(other.lag_ns);
        self.spans.extend(other.spans);
        self.start = match (self.start, other.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.end = self.end.max(other.end);
        self.until = self.until.max(other.until);
        self.completions.extend(other.completions);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One client connection and its position in the request sequence.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    index: usize,
    next_id: u64,
    next_req: u64,
    scratch: RgbImage,
    broken: bool,
}

struct Pending {
    id: u64,
    req: Req,
    intended: Instant,
    issued: Instant,
    encoded: Instant,
    end_offset: u64,
    written: Option<Instant>,
}

impl Conn {
    /// Dials connection number `index` to `addr`.
    pub fn open(addr: &str, index: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            index,
            next_id: 1,
            next_req: 0,
            scratch: RgbImage::new(1, 1, Rgb::BLACK),
            broken: false,
        })
    }
}

/// Runs one phase on every connection at once (one thread each, the first
/// on the calling thread) and returns the merged tally.
pub fn run_phase(
    conns: &mut [Conn],
    inputs: &Inputs,
    op: RequestOp,
    pace: impl Fn(usize) -> Pace + Sync,
    until: Instant,
    trace: bool,
) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let (first, rest) = conns.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|conn| {
                let pace = pace(conn.index);
                scope.spawn(move || drive(conn, inputs, op, pace, until, trace))
            })
            .collect();
        total.merge(drive(first, inputs, op, pace(first.index), until, trace));
        for handle in handles {
            total.merge(handle.join().expect("load generator thread panicked"));
        }
    });
    total
}

/// The single-connection event loop behind [`run_phase`].
fn drive(
    conn: &mut Conn,
    inputs: &Inputs,
    op: RequestOp,
    pace: Pace,
    until: Instant,
    trace: bool,
) -> Tally {
    tighten_timer_slack();
    let start = match pace {
        Pace::Open(schedule) => schedule.start,
        Pace::Closed { .. } => Instant::now(),
    };
    let mut tally = Tally {
        start: Some(start),
        until: Some(until),
        ..Tally::default()
    };
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut queued_bytes = 0u64;
    let mut written_bytes = 0u64;
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut rbuf = vec![0u8; 1 << 18];
    let mut slot = 0u64;
    let mut issued_count = 0u64;
    let hard_deadline = until + DRAIN_LIMIT;
    loop {
        // Issue whatever the pace allows right now.
        loop {
            if conn.broken {
                break;
            }
            let now = Instant::now();
            let intended = match pace {
                Pace::Closed { depth, limit } => {
                    if inflight.len() >= depth || (now >= until && issued_count >= limit) {
                        break;
                    }
                    now
                }
                Pace::Open(schedule) => {
                    let due = schedule.due(slot);
                    if due >= until || due > now || inflight.len() >= MAX_PIPELINE_DEPTH {
                        break;
                    }
                    slot += 1;
                    due
                }
            };
            let req = inputs.layout.request(conn.index, conn.next_req);
            conn.next_req += 1;
            let id = conn.next_id;
            conn.next_id += 1;
            let image = inputs.image(req, &mut conn.scratch);
            let frame = match op {
                RequestOp::Cached => protocol::encode_segment_cached(id, image, false),
                RequestOp::Delta => protocol::encode_segment_delta(id, image),
            }
            .expect("a 256x192 request is within protocol limits");
            let encoded = Instant::now();
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
            out.extend_from_slice(&frame);
            queued_bytes += frame.len() as u64;
            inflight.push_back(Pending {
                id,
                req,
                intended,
                issued: now,
                encoded,
                end_offset: queued_bytes,
                written: None,
            });
            tally.sent += 1;
            issued_count += 1;
            if let Pace::Open(_) = pace {
                tally
                    .lag_ns
                    .push(duration_ns(now.saturating_duration_since(intended)));
            }
        }

        let more_to_issue = !conn.broken
            && match pace {
                Pace::Closed { limit, .. } => Instant::now() < until || issued_count < limit,
                Pace::Open(schedule) => schedule.due(slot) < until,
            };
        if inflight.is_empty() && !more_to_issue {
            break;
        }
        if conn.broken || Instant::now() > hard_deadline {
            let lost = inflight.len() as u64;
            tally.transport += lost;
            inflight.clear();
            if tally.first_error.is_none() {
                tally.first_error = Some(format!(
                    "connection {}: {lost} requests unanswered",
                    conn.index
                ));
            }
            conn.broken = true;
            break;
        }

        // Push pending bytes.
        while out_pos < out.len() {
            match conn.stream.write(&out[out_pos..]) {
                Ok(0) => {
                    fail(conn, &mut tally, "socket accepted no bytes");
                    break;
                }
                Ok(n) => {
                    out_pos += n;
                    written_bytes += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    fail(conn, &mut tally, &format!("write: {e}"));
                    break;
                }
            }
        }
        if trace {
            let now = Instant::now();
            for pending in inflight.iter_mut().filter(|p| p.written.is_none()) {
                if pending.end_offset > written_bytes {
                    break;
                }
                pending.written = Some(now);
            }
        }

        // Wait for a reply, for room to write, or for the next due send.
        let now = Instant::now();
        let wait = match pace {
            Pace::Open(schedule) if more_to_issue && inflight.len() < MAX_PIPELINE_DEPTH => {
                schedule.due(slot).saturating_duration_since(now)
            }
            Pace::Closed { depth, .. } if more_to_issue && inflight.len() < depth => Duration::ZERO,
            _ => Duration::from_millis(50),
        };
        let want_write = out_pos < out.len();
        let ready = match wait_ready(&conn.stream, want_write, wait) {
            Ok(ready) => ready,
            Err(e) => {
                fail(conn, &mut tally, &format!("ppoll: {e}"));
                continue;
            }
        };
        if !ready {
            continue;
        }

        // Drain everything readable.
        loop {
            let n = match conn.stream.read(&mut rbuf) {
                Ok(0) => {
                    fail(conn, &mut tally, "daemon closed the connection");
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    fail(conn, &mut tally, &format!("read: {e}"));
                    break;
                }
            };
            let mut offset = 0;
            while offset < n {
                let (used, event) = conn.decoder.feed(&rbuf[offset..n]);
                offset += used;
                match event {
                    Some(Ok(frame)) => {
                        let replied = Instant::now();
                        let id = frame.header.request_id;
                        let Some(pos) = inflight.iter().position(|p| p.id == id) else {
                            fail(conn, &mut tally, &format!("reply for unknown request {id}"));
                            break;
                        };
                        let pending = inflight.remove(pos).expect("position is in range");
                        let message = frame.message();
                        let decoded = Instant::now();
                        settle(&mut tally, inputs, &pending, message, decoded, &pace);
                        if trace {
                            tally.spans.push(Span {
                                issued: pending.issued,
                                encoded: pending.encoded,
                                written: pending.written,
                                replied,
                                decoded,
                            });
                        }
                    }
                    Some(Err(e)) => {
                        fail(conn, &mut tally, &format!("undecodable reply: {e}"));
                        break;
                    }
                    None if used == 0 => break,
                    None => {}
                }
            }
            if conn.broken {
                break;
            }
        }
    }
    tally
}

/// Files one decoded reply into the tally.
fn settle(
    tally: &mut Tally,
    inputs: &Inputs,
    pending: &Pending,
    message: Result<Message, protocol::ProtocolError>,
    decoded: Instant,
    pace: &Pace,
) {
    let labels = match message {
        Ok(Message::SegmentCachedReply { labels, cached }) => {
            tally.cache_hits += u64::from(cached);
            labels
        }
        Ok(Message::SegmentDeltaReply {
            labels,
            tiles_hit,
            tiles_recomputed,
        }) => {
            tally.tiles_hit += u64::from(tiles_hit);
            tally.tiles_recomputed += u64::from(tiles_recomputed);
            labels
        }
        Ok(Message::Busy) => {
            tally.busy += 1;
            return;
        }
        Ok(other) => {
            tally.transport += 1;
            tally
                .first_error
                .get_or_insert_with(|| format!("unexpected reply {}", other.name()));
            return;
        }
        Err(e) => {
            tally.transport += 1;
            tally
                .first_error
                .get_or_insert_with(|| format!("bad reply body: {e}"));
            return;
        }
    };
    if !inputs.check(pending.req, labels.as_slice()) {
        tally.mismatched += 1;
        tally.first_error.get_or_insert_with(|| {
            format!(
                "labels differ from the exact oracle (base {}, stamp {:?})",
                pending.req.base, pending.req.stamp
            )
        });
        return;
    }
    tally.ok += 1;
    tally.pixels += labels.len() as u64;
    tally.end = tally.end.max(Some(decoded));
    tally.completions.push((decoded, labels.len() as u64));
    if let Pace::Open(_) = pace {
        let took = duration_ns(decoded.saturating_duration_since(pending.intended));
        tally.latency.push((pending.intended, took));
    }
}

fn fail(conn: &mut Conn, tally: &mut Tally, why: &str) {
    conn.broken = true;
    tally
        .first_error
        .get_or_insert_with(|| format!("connection {}: {why}", conn.index));
}

/// Saturating nanoseconds of a duration.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::os::raw::c_int;
    fn prctl(option: std::os::raw::c_int, arg2: std::os::raw::c_ulong, ...) -> std::os::raw::c_int;
}

const POLLIN: std::os::raw::c_short = 0x001;
const POLLOUT: std::os::raw::c_short = 0x004;
const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;

/// Asks the kernel to wake the calling thread's timed waits within a microsecond
/// instead of the default 50 µs slack, so open-pace sends leave on time.
/// Best effort: on failure the lag metric shows the extra slack.
pub(crate) fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000);
    }
}

/// Waits up to `timeout` (nanosecond precision) for `stream` to be readable,
/// or writable when `want_write`.  Returns whether it became ready.
fn wait_ready(stream: &TcpStream, want_write: bool, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let spec = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `fd` is one valid, exclusively borrowed pollfd, `spec` a valid
    // timespec, and a null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &spec, std::ptr::null()) };
    match rc {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Layout, Workload};
    use iqft_serve::{CacheConfig, Client, ClientConfig, Server, ServerConfig};

    fn tiny_hot_inputs() -> Inputs {
        let layout = Layout::new(Workload::HotHit, 11, 1);
        let bases = (0..layout.base_count())
            .map(|i| {
                RgbImage::from_fn(12, 8, move |x, y| {
                    Rgb::new((x * 20 + i) as u8, (y * 30) as u8, 90)
                })
            })
            .collect();
        Inputs::with_bases(layout, bases)
    }

    #[test]
    fn schedule_is_fixed_and_staggered() {
        let start = Instant::now();
        let a = Schedule::for_connection(start, 100.0, 0, 2);
        let b = Schedule::for_connection(start, 100.0, 1, 2);
        assert_eq!(a.interval, Duration::from_millis(20));
        assert_eq!(a.due(0), start);
        assert_eq!(a.due(3), start + Duration::from_millis(60));
        assert_eq!(b.due(0), start + Duration::from_millis(10));
        assert_eq!(b, Schedule::for_connection(start, 100.0, 1, 2));
    }

    #[test]
    fn open_pace_times_from_the_intended_send_and_reports_lag() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default().with_cache(CacheConfig::with_capacity_mb(1)),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let inputs = tiny_hot_inputs();
        let mut conns = vec![Conn::open(&addr, 0).unwrap()];
        // A schedule that began 80 ms ago: the generator is late for every
        // request due before now, and that lateness must be both reported
        // as lag and included in latency.
        let late = Duration::from_millis(80);
        let start = Instant::now() - late;
        let schedule = Schedule::for_connection(start, 200.0, 0, 1);
        let until = start + late + Duration::from_millis(100);
        let tally = run_phase(
            &mut conns,
            &inputs,
            RequestOp::Cached,
            |_| Pace::Open(schedule),
            until,
            true,
        );
        assert_eq!(tally.failed(), 0, "{:?}", tally.first_error);
        assert_eq!(tally.sent, 36, "requests due in [start, until) at 200/s");
        assert_eq!(tally.latency.len(), 36);
        let max_lag = *tally.lag_ns.iter().max().unwrap();
        assert!(
            max_lag >= duration_ns(late),
            "first request was sent 80 ms late"
        );
        assert_eq!(tally.spans.len(), 36);
        assert!(tally
            .spans
            .iter()
            .all(|s| s.decoded >= s.replied && s.encoded >= s.issued));
        let max_latency = tally.latency.iter().map(|&(_, ns)| ns).max().unwrap();
        assert!(
            max_latency >= max_lag,
            "latency counts the generator's own lateness"
        );
        Client::open(&ClientConfig::new(addr))
            .unwrap()
            .shutdown()
            .unwrap();
        server.join();
    }

    #[test]
    fn closed_pace_verifies_every_reply_and_counts_hits() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default().with_cache(CacheConfig::with_capacity_mb(1)),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let inputs = tiny_hot_inputs();
        let mut conns = vec![Conn::open(&addr, 0).unwrap()];
        let pace = Pace::Closed {
            depth: 4,
            limit: 48,
        };
        let tally = run_phase(
            &mut conns,
            &inputs,
            RequestOp::Cached,
            |_| pace,
            Instant::now(),
            false,
        );
        assert_eq!((tally.sent, tally.ok, tally.failed()), (48, 48, 0));
        assert_eq!(
            tally.cache_hits,
            48 - 16,
            "first visit of each image misses"
        );
        assert!(tally.latency.is_empty(), "closed pace records no latency");
        Client::open(&ClientConfig::new(addr))
            .unwrap()
            .shutdown()
            .unwrap();
        server.join();
    }
}
