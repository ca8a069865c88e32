//! The `serve` and `loadgen` subcommands: the network face of the harness.
//!
//! `serve` boots a long-lived [`iqft_serve::Server`] around one warm
//! [`seg_engine::SegmentPlan`] and blocks until a Shutdown frame drains it;
//! `loadgen` plays the millions-of-users side: `--clients C` concurrent
//! connections stream `--images N` synthetic frames through the daemon,
//! cross-check every reply byte-for-byte against a local serial
//! [`SegmentEngine`] pass (default on, like the `throughput` subcommand),
//! and report client-side throughput plus the server's own statistics
//! snapshot.  With `--shutdown`, loadgen finishes by asking the server to
//! drain and stop — which is exactly what the CI `service-smoke` job does.

use crate::plans::{resolve_plan, ResolvedPlan};
use crate::throughput::{throughput_images, ThroughputConfig};
use imaging::{LabelMap, Segmenter};
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftRgbSegmenter;
use iqft_serve::{
    protocol, Client, ClientConfig, FleetClient, SegmentOutcome, ServeMode, Server, ServerConfig,
};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan, Tiling};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of the `serve` subcommand (mirrors its CLI flags).
#[derive(Debug, Clone)]
pub struct ServeCliConfig {
    /// Listen address (`--addr`), e.g. `127.0.0.1:7870`.
    pub addr: String,
    /// Whole-plan flag (`--plan`): a `classifier=…;tile=…;backend=…` spec,
    /// `auto` to probe the host at boot ([`crate::plans`]), or empty to
    /// compose the plan from the per-axis flags below.
    pub plan: String,
    /// Classifier flag (`--classifier`), one of
    /// [`seg_engine::ClassifierKind::FLAG_HELP`].
    pub classifier: String,
    /// Tiling flag (`--tile off|WxH`).
    pub tile: String,
    /// Backend flag (`--backend serial|threads|rayon`).
    pub backend: String,
    /// Thread count for the threads backend (`--threads`).
    pub threads: usize,
    /// Cap on concurrently-executing segment requests (`--workers`,
    /// 0 = one per core, whatever the plan's backend).
    pub workers: usize,
    /// Admission-control queue bound (`--max-queue`, 0 = unbounded): once
    /// every worker is busy and this many segment requests are already
    /// waiting, further ones get an immediate typed Busy reply.
    pub max_queue: usize,
    /// Serving core (`--serve-mode threads|evented`).  `evented` (the
    /// default) multiplexes every connection over a small reactor set;
    /// `threads` is the classic thread-per-connection core.
    pub serve_mode: String,
    /// Byte budget of the content-addressed result cache in MiB
    /// (`--cache-mb`, 0 = caching disabled).
    pub cache_mb: usize,
    /// When set, the bound address is written to this file once the server
    /// is listening (`--addr-file`) — with `--addr 127.0.0.1:0` this is how
    /// a supervising script learns the ephemeral port.
    pub addr_file: Option<PathBuf>,
    /// Result-cache persistence path (`--cache-persist`): warm-load a
    /// snapshot from here on boot (salt mismatch ⟹ clean cold start) and
    /// write the resident entries back on a drain-then-stop shutdown.
    pub cache_persist: Option<PathBuf>,
}

impl Default for ServeCliConfig {
    /// The flags resolve to the same plan as [`ServerConfig::default`]:
    /// the SIMD classifier, untiled, on the serial backend, with one worker
    /// per core carrying the parallelism across requests.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7870".to_string(),
            plan: String::new(),
            classifier: ClassifierKind::Simd.flag().to_string(),
            tile: "off".to_string(),
            backend: "serial".to_string(),
            threads: 0,
            workers: 0,
            max_queue: 0,
            serve_mode: ServeMode::default().as_str().to_string(),
            cache_mb: 0,
            addr_file: None,
            cache_persist: None,
        }
    }
}

impl ServeCliConfig {
    /// Resolves the plan flags: `--plan` when given, else the per-axis
    /// flags.
    pub fn resolve_plan(&self) -> Result<ResolvedPlan, String> {
        resolve_plan(&self.plan, || {
            let engine = SegmentEngine::from_flags(&self.backend, self.threads)?;
            Ok(SegmentPlan::new(
                ClassifierKind::from_flag(&self.classifier)?,
                Tiling::from_flag(&self.tile)?,
                engine.backend(),
            ))
        })
    }
}

/// Boots the daemon described by `config` and blocks until it has drained
/// and stopped (a client sent Shutdown).  Returns a one-line exit summary.
///
/// The boot line is printed to stdout *before* blocking so a supervising
/// script (the CI smoke job) can tell the server is up.
pub fn serve_command(config: &ServeCliConfig) -> Result<String, String> {
    let resolved = config.resolve_plan()?;
    let plan = resolved.plan;
    if let Some(report) = &resolved.calibration {
        println!("iqft-serve calibrated [{plan}]: {}", report.summary());
    }
    let mode: ServeMode = config.serve_mode.parse()?;
    // A thousand-connection sweep needs more descriptors than the common
    // 1024 soft default; raise it best-effort before binding.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(8192);
    let mut server_config = ServerConfig::new(plan)
        .with_max_inflight(config.workers)
        .with_max_queue(config.max_queue)
        .with_cache(CacheConfig::with_capacity_mb(config.cache_mb))
        .with_mode(mode)
        .with_calibration(resolved.calibration_summary());
    if let Some(path) = &config.cache_persist {
        server_config = server_config.with_cache_persist(path);
    }
    let server = Server::bind(config.addr.as_str(), server_config)
        .map_err(|e| format!("failed to bind {}: {e}", config.addr))?;
    if let Some(path) = &config.addr_file {
        // Written only after the bind succeeded, so a supervising script can
        // treat the file's existence as "the port is known and listening".
        std::fs::write(path, server.local_addr().to_string())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    }
    println!(
        "iqft-serve listening on {} ({}; mode={}; max_inflight={}; max_queue={}; cache={})",
        server.local_addr(),
        plan.describe(),
        server.mode().as_str(),
        server.max_inflight(),
        if config.max_queue > 0 {
            config.max_queue.to_string()
        } else {
            "unbounded".to_string()
        },
        if config.cache_mb > 0 {
            format!("{}MiB", config.cache_mb)
        } else {
            "off".to_string()
        },
    );
    if config.cache_persist.is_some() {
        let (entries, bytes) = server.cache_warm_loaded();
        println!(
            "iqft-serve cache persistence on: warm-loaded {entries} entries ({:.1} MiB)",
            bytes as f64 / (1 << 20) as f64
        );
    }
    let (total, pixels) = server.join_with_counters();
    Ok(format!(
        "iqft-serve drained and stopped after {total} requests ({:.3} Mpx segmented)",
        pixels as f64 / 1e6
    ))
}

/// The `ping` subcommand: probes a server with bounded retries — the
/// readiness check a supervising script (the CI smoke job) runs between
/// booting the daemon and launching traffic at it.
pub fn ping_command(addr: &str, retries: usize, interval_ms: u64) -> Result<String, String> {
    let attempts = retries.max(1);
    let mut last = String::from("never attempted");
    for attempt in 1..=attempts {
        match Client::open(&ClientConfig::new(addr)) {
            Ok(mut client) => match client.ping() {
                Ok(()) => {
                    return Ok(format!("pong from {addr} (attempt {attempt}/{attempts})"));
                }
                Err(e) => last = e.to_string(),
            },
            Err(e) => last = e.to_string(),
        }
        if attempt < attempts {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
    Err(format!(
        "no pong from {addr} after {attempts} attempts: {last}"
    ))
}

/// Configuration of the `loadgen` subcommand (mirrors its CLI flags).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`--addr`).
    pub addr: String,
    /// Plan for the *local* verification reference (`--plan`): empty keeps
    /// the exact serial pass, `auto` calibrates the reference backend, and
    /// an explicit spec pins it.  Byte-identity makes every choice produce
    /// the same labels; the knob only changes how fast the reference side
    /// keeps up with a big run.
    pub plan: String,
    /// Concurrent client connections (`--clients`).
    pub clients: usize,
    /// Total images to stream across all clients (`--images`).
    pub images: usize,
    /// Square-ish image edge length (`--size`).
    pub image_size: usize,
    /// Dataset seed (`--seed`).
    pub seed: u64,
    /// Cross-check every reply against a local serial pass (`--no-verify`
    /// turns this off; the default runs it).
    pub verify: bool,
    /// Send a Shutdown frame once traffic (and stats) are done
    /// (`--shutdown`).
    pub shutdown: bool,
    /// Fraction of requests that repeat an earlier image
    /// (`--repeat-ratio`, 0.0–1.0) — Zipf-ish, head-biased repeated
    /// traffic, the shape a warm result cache is built for.
    pub repeat_ratio: f64,
    /// Requests each client keeps in flight on its connection
    /// (`--pipeline`, clamped to `1..=MAX_PIPELINE_DEPTH`).
    pub pipeline_depth: usize,
    /// Fail loudly unless the server's final stats snapshot reports at
    /// least one cache hit (`--expect-cache-hits`) — the CI cache leg's
    /// assertion.  In `--video` mode the assertion counts delta *tile* hits
    /// instead of whole-image hits.
    pub expect_cache_hits: bool,
    /// Stream synthetic video instead of independent images (`--video`):
    /// each client plays its own deterministic frame stream through the
    /// per-tile delta op (`SegmentDelta`), so consecutive frames share most
    /// of their tiles and the server's delta cache can prove itself.
    pub video: bool,
    /// Fraction of each frame's blocks mutated per frame in `--video` mode
    /// (`--change-rate`, 0.0–1.0).
    pub change_rate: f64,
    /// Fleet endpoints (`--fleet addr,addr,...`): when nonempty, traffic is
    /// routed by content hash over the consistent-hash ring through a
    /// [`FleetClient`] instead of dialing `--addr` directly.
    pub fleet: Vec<String>,
    /// Chaos mode (`--kill-one`): boot an in-process fleet of three cached
    /// daemons, kill one mid-run, and require byte-identity plus at least
    /// one recorded failover — proving a dead daemon degrades to misses,
    /// never to errors.
    pub kill_one: bool,
    /// How long the initial connection keeps retrying (milliseconds), so
    /// loadgen can be launched concurrently with a booting server.  No CLI
    /// flag; tests shrink it.
    pub connect_deadline_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7870".to_string(),
            plan: String::new(),
            clients: 4,
            images: 32,
            image_size: 160,
            seed: 42,
            verify: true,
            shutdown: false,
            repeat_ratio: 0.0,
            pipeline_depth: 1,
            expect_cache_hits: false,
            video: false,
            change_rate: 0.1,
            fleet: Vec::new(),
            kill_one: false,
            connect_deadline_ms: 15_000,
        }
    }
}

const CONNECT_RETRY: Duration = Duration::from_millis(250);

/// Per-dial connect timeout for loadgen workers: a thousand-way fan-out can
/// momentarily overflow the listener's accept backlog, and a dropped SYN
/// would otherwise sit in the OS default connect timeout for minutes.
const CLIENT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The client configuration every loadgen worker dials with: a bounded
/// connect deadline (a thousand-way fan-out can momentarily overflow the
/// accept backlog) and the run's pipeline depth.
fn worker_config(addr: &str, pipeline_depth: usize) -> ClientConfig {
    ClientConfig::new(addr)
        .with_connect_deadline(CLIENT_CONNECT_TIMEOUT)
        .with_pipeline_depth(pipeline_depth)
}

/// Dials one loadgen worker connection under a bounded timeout, retrying a
/// few times so transient backlog overflow does not fail the whole run.
fn connect_worker(addr: &str, client_idx: usize, pipeline_depth: usize) -> Result<Client, String> {
    let mut last = String::new();
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(CONNECT_RETRY);
        }
        match Client::open(&worker_config(addr, pipeline_depth)) {
            Ok(client) => return Ok(client),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("client {client_idx}: connect failed: {last}"))
}

/// Connects with retries until `deadline_ms` elapses, so loadgen can be
/// launched concurrently with a still-booting server (as the CI smoke job
/// does).
fn connect_with_retry(addr: &str, deadline_ms: u64) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    loop {
        match Client::open(&ClientConfig::new(addr)) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(CONNECT_RETRY);
            }
            Err(e) => return Err(format!("could not connect to {addr}: {e}")),
        }
    }
}

/// Per-client outcome of a loadgen run.
#[derive(Debug, Default, Clone)]
struct ClientOutcome {
    requests: usize,
    pixels: u64,
    mismatches: usize,
    busy: usize,
    cache_hits: usize,
    tiles_hit: u64,
    tiles_recomputed: u64,
    elapsed_secs: f64,
}

/// Resolves loadgen's `--plan` flag for the local reference pass: `None`
/// when the flag is empty (keep the exact serial reference), otherwise the
/// parsed or calibrated plan.
fn resolve_local_plan(config: &LoadgenConfig) -> Result<Option<ResolvedPlan>, String> {
    if config.plan.trim().is_empty() {
        return Ok(None);
    }
    resolve_plan(&config.plan, || Ok(SegmentPlan::default())).map(Some)
}

/// Deterministic xorshift64* generator for the traffic shape (no external
/// RNG on this path; the dataset generator owns its own seeding).
struct TrafficRng(u64);

impl TrafficRng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request sequence for a loadgen run: request `i` either introduces
/// image `i` or — with probability `repeat_ratio` — repeats the image of an
/// earlier request, biased quadratically toward the head of the sequence
/// (Zipf-ish popularity: a few images soak up most of the repeats).
/// Deterministic in `seed`.
fn request_sequence(n: usize, repeat_ratio: f64, seed: u64) -> Vec<usize> {
    let mut rng = TrafficRng::new(seed);
    let mut seq: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.next_unit() < repeat_ratio {
            let u = rng.next_unit();
            let j = ((u * u) * i as f64) as usize;
            seq.push(seq[j.min(i - 1)]);
        } else {
            seq.push(i);
        }
    }
    seq
}

/// Drives the configured traffic and renders the report.
///
/// Errors (rather than reporting) on connection failure, any protocol/server
/// error, or — when verification is on — any reply that is not
/// byte-identical to the local serial reference, so a supervising script
/// fails loudly.
pub fn loadgen_report(config: &LoadgenConfig) -> Result<String, String> {
    if config.kill_one || !config.fleet.is_empty() {
        return loadgen_fleet_report(config);
    }
    if config.video {
        return loadgen_video_report(config);
    }
    let clients = config.clients.max(1);
    // Each client holds one socket (and the kernel a few more); a
    // thousand-client run overruns the common 1024 soft descriptor limit.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit((clients as u64).saturating_mul(2) + 512);
    let depth = config.pipeline_depth.clamp(1, protocol::MAX_PIPELINE_DEPTH);
    let images = throughput_images(&ThroughputConfig {
        images: config.images,
        image_size: config.image_size,
        seed: config.seed,
        ..ThroughputConfig::default()
    });
    // Which image each request carries: with --repeat-ratio this is
    // Zipf-ish repeated traffic, the shape the server's result cache is
    // built for; at 0.0 every request is a distinct image.
    let sequence = request_sequence(config.images, config.repeat_ratio, config.seed);
    // The reference pass runs locally: whatever classifier/tiling/backend
    // the *server* was booted with, its replies — cache hits and misses
    // alike — must be byte-identical to this by construction.  `--plan`
    // only picks the backend the reference pass runs on (labels are
    // byte-identical across backends); the default stays the serial engine.
    let resolved = resolve_local_plan(config)?;
    let reference: Vec<LabelMap> = if config.verify {
        let engine = resolved
            .as_ref()
            .map(|r| r.plan.engine())
            .unwrap_or_else(SegmentEngine::serial);
        let local = IqftRgbSegmenter::paper_default().with_engine(engine);
        images.iter().map(|img| local.segment_rgb(img)).collect()
    } else {
        Vec::new()
    };

    // Probe once with retries so a freshly-booted server has time to bind.
    let mut probe = connect_with_retry(&config.addr, config.connect_deadline_ms)?;
    probe.ping().map_err(|e| format!("ping failed: {e}"))?;

    let started = Instant::now();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_idx| {
                let images = &images;
                let reference = &reference;
                let sequence = &sequence;
                let addr = config.addr.as_str();
                let verify = config.verify;
                scope.spawn(move || -> Result<ClientOutcome, String> {
                    let mut client = connect_worker(addr, client_idx, depth)?;
                    // This client's share of the request sequence, pipelined
                    // over one connection with up to `depth` in flight.
                    let mine: Vec<usize> = (0..sequence.len())
                        .filter(|idx| idx % clients == client_idx)
                        .collect();
                    let refs: Vec<&imaging::RgbImage> =
                        mine.iter().map(|&idx| &images[sequence[idx]]).collect();
                    let started = Instant::now();
                    let replies = client.segment_pipelined(&refs, true).map_err(|e| {
                        format!("client {client_idx}: pipelined segment failed: {e}")
                    })?;
                    let mut outcome = ClientOutcome {
                        elapsed_secs: started.elapsed().as_secs_f64(),
                        ..ClientOutcome::default()
                    };
                    for (&idx, reply) in mine.iter().zip(&replies) {
                        match reply {
                            SegmentOutcome::Done { labels, cached }
                            | SegmentOutcome::Failover { labels, cached, .. } => {
                                outcome.requests += 1;
                                outcome.pixels += labels.len() as u64;
                                outcome.cache_hits += usize::from(*cached);
                                if verify && labels != &reference[sequence[idx]] {
                                    outcome.mismatches += 1;
                                }
                            }
                            // The server shed this request under overload;
                            // it was never executed, so there is nothing to
                            // verify.
                            SegmentOutcome::Busy => outcome.busy += 1,
                        }
                    }
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let unique_images = {
        let mut seen = sequence.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Loadgen: {} requests over {} unique images ({}x{}) across {} clients \
         (pipeline depth {}) against {}",
        config.images,
        unique_images,
        config.image_size,
        config.image_size * 3 / 4,
        clients,
        depth,
        config.addr,
    );
    if let Some(resolved) = &resolved {
        let _ = writeln!(out, "  local reference plan: [{}]", resolved.plan);
        if let Some(report) = &resolved.calibration {
            let _ = writeln!(out, "  local calibration: {}", report.summary());
        }
    }
    let mut total = ClientOutcome::default();
    for (idx, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().map_err(|e| e.clone())?;
        let _ = writeln!(
            out,
            "  client {idx}: {:>4} requests  {:>3} busy  {:>4} cache hits  {:>8.3} Mpx  \
             {:>8.2} ms  {:>7.2} Mpx/s",
            outcome.requests,
            outcome.busy,
            outcome.cache_hits,
            outcome.pixels as f64 / 1e6,
            outcome.elapsed_secs * 1e3,
            outcome.pixels as f64 / 1e6 / outcome.elapsed_secs.max(1e-9),
        );
        total.requests += outcome.requests;
        total.pixels += outcome.pixels;
        total.mismatches += outcome.mismatches;
        total.busy += outcome.busy;
        total.cache_hits += outcome.cache_hits;
    }
    let _ = writeln!(
        out,
        "  total: {} requests ({} cache hits, {} busy-rejected), {:.3} Mpx in {:.2} ms -> \
         {:.2} Mpx/s over the wire",
        total.requests,
        total.cache_hits,
        total.busy,
        total.pixels as f64 / 1e6,
        wall_secs * 1e3,
        total.pixels as f64 / 1e6 / wall_secs.max(1e-9),
    );
    if config.verify {
        if total.mismatches > 0 {
            return Err(format!(
                "verify: FAILED — {} of {} replies differ from the local serial reference",
                total.mismatches, total.requests
            ));
        }
        let _ = writeln!(
            out,
            "  verify: all {} replies (hits and misses alike) byte-identical to the local \
             serial reference",
            total.requests
        );
    }

    finish_report(&mut out, &mut probe, config)?;
    Ok(out)
}

/// The shared report tail: fetches the server's statistics snapshot, renders
/// it, enforces `--expect-cache-hits` (whole-image hits in the default mode,
/// delta *tile* hits in `--video` mode), and sends the shutdown frame when
/// asked.
fn finish_report(
    out: &mut String,
    probe: &mut Client,
    config: &LoadgenConfig,
) -> Result<(), String> {
    let stats = probe
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    let _ = writeln!(
        out,
        "  server: plan [{}], {} mode, {} conns ({} open), {} requests ({} segment), \
         {:.3} Mpx, {:.2} Mpx/s since boot",
        stats.plan,
        if stats.serve_mode.is_empty() {
            "unknown"
        } else {
            stats.serve_mode.as_str()
        },
        stats.connections_total,
        stats.connections_open,
        stats.requests_total,
        stats.segment_requests,
        stats.pixels_total as f64 / 1e6,
        stats.mpix_per_sec,
    );
    let _ = writeln!(
        out,
        "  server arena: {} allocations, {} reuses ({} pooled); max_inflight {}; {} protocol errors",
        stats.arena_allocations,
        stats.arena_reuses,
        stats.arena_pooled,
        stats.max_inflight,
        stats.protocol_errors,
    );
    let _ = writeln!(
        out,
        "  server admission: max_queue {}, {} busy rejections, {} accept errors",
        if stats.max_queue > 0 {
            stats.max_queue.to_string()
        } else {
            "unbounded".to_string()
        },
        stats.busy_rejections,
        stats.accept_errors,
    );
    if stats.lat_count > 0 {
        let _ = writeln!(
            out,
            "  server latency: p50 {} us, p90 {} us, p99 {} us, p999 {} us, max {} us \
             over {} ops",
            stats.lat_p50_us,
            stats.lat_p90_us,
            stats.lat_p99_us,
            stats.lat_p999_us,
            stats.lat_max_us,
            stats.lat_count,
        );
    }
    if !stats.calibration.is_empty() {
        let _ = writeln!(out, "  server calibration: {}", stats.calibration);
    }
    if stats.cache_capacity_bytes > 0 {
        let _ = writeln!(
            out,
            "  server cache: {} hits, {} misses, {} evictions; {} entries, \
             {:.1}/{:.0} MiB used",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_entries,
            stats.cache_bytes as f64 / (1 << 20) as f64,
            stats.cache_capacity_bytes as f64 / (1 << 20) as f64,
        );
    } else {
        let _ = writeln!(out, "  server cache: off");
    }
    // Forward-compatible keys travel in `extra`; read them through the
    // typed accessor instead of re-parsing the snapshot text.
    if let Some(entries) = stats.extra_u64("cache_warm_loaded_entries") {
        let _ = writeln!(
            out,
            "  server cache persistence: warm-loaded {} entries ({:.1} MiB){}",
            entries,
            stats.extra_u64("cache_warm_loaded_bytes").unwrap_or(0) as f64 / (1 << 20) as f64,
            match stats.extra.get("cache_warm_error") {
                Some(why) => format!("; last load error: {why}"),
                None => String::new(),
            },
        );
    }
    let delta_total = stats.delta_tiles_hit + stats.delta_tiles_recomputed;
    if delta_total > 0 {
        let _ = writeln!(
            out,
            "  server delta: {} tiles hit, {} recomputed ({:.1}% tile hit ratio)",
            stats.delta_tiles_hit,
            stats.delta_tiles_recomputed,
            stats.delta_tiles_hit as f64 * 100.0 / delta_total as f64,
        );
    }
    if config.expect_cache_hits {
        if config.video {
            if stats.delta_tiles_hit == 0 {
                return Err(format!(
                    "expected delta tile hits, but the server reports none (cache {}; {} tiles \
                     recomputed)",
                    if stats.cache_capacity_bytes > 0 {
                        "enabled"
                    } else {
                        "DISABLED"
                    },
                    stats.delta_tiles_recomputed,
                ));
            }
        } else if stats.cache_hits == 0 {
            return Err(format!(
                "expected cache hits, but the server reports none (cache {}; {} misses)",
                if stats.cache_capacity_bytes > 0 {
                    "enabled"
                } else {
                    "DISABLED"
                },
                stats.cache_misses,
            ));
        }
    }

    if config.shutdown {
        probe
            .shutdown()
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        let _ = writeln!(out, "  shutdown: acknowledged, server is draining");
    }
    Ok(())
}

/// The `--fleet` / `--kill-one` traffic shape: route the whole request
/// sequence by content hash over a [`FleetClient`] (per-endpoint pipelined
/// bursts), optionally killing one daemon halfway through.
///
/// With `--kill-one` the fleet is self-contained: three cached in-process
/// daemons boot on ephemeral loopback ports, the run streams its first half
/// against all three, then the daemon owning the next image is stopped
/// hard, and the second half must still verify byte-identically — the dead
/// daemon's keys come back as counted failover *misses*, never errors.
/// Without it, `--fleet addr,addr,...` drives externally-booted daemons.
fn loadgen_fleet_report(config: &LoadgenConfig) -> Result<String, String> {
    if config.video {
        return Err("--fleet/--kill-one and --video are mutually exclusive".to_string());
    }
    if config.kill_one && !config.fleet.is_empty() {
        return Err(
            "--kill-one boots its own in-process fleet; it cannot be combined with --fleet"
                .to_string(),
        );
    }
    // Chaos mode boots its own three-daemon fleet, caches on, so the run is
    // self-contained and the kill is a real (hard) stop.
    let mut booted: Vec<Option<Server>> = Vec::new();
    let addrs: Vec<String> = if config.kill_one {
        for _ in 0..3 {
            let server = Server::bind(
                "127.0.0.1:0",
                ServerConfig::new(SegmentPlan::default())
                    .with_cache(CacheConfig::with_capacity_mb(64)),
            )
            .map_err(|e| format!("failed to boot chaos fleet daemon: {e}"))?;
            booted.push(Some(server));
        }
        booted
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr().to_string())
            .collect()
    } else {
        config.fleet.clone()
    };
    if addrs.is_empty() {
        return Err("--fleet needs at least one addr".to_string());
    }

    // Preflight the external daemons.  A dead endpoint is not fatal — its
    // keys fail over to the next ring owner and get counted — but a fleet
    // with *no* live endpoint is a configuration error worth failing fast.
    if !config.kill_one {
        let mut live = 0usize;
        for addr in &addrs {
            match connect_with_retry(addr, config.connect_deadline_ms) {
                Ok(mut probe) => {
                    probe
                        .ping()
                        .map_err(|e| format!("ping {addr} failed: {e}"))?;
                    live += 1;
                }
                Err(_) => eprintln!(
                    "loadgen: fleet endpoint {addr} is unreachable; its keys will fail over"
                ),
            }
        }
        if live == 0 {
            return Err(format!(
                "no fleet endpoint answered a ping (tried {})",
                addrs.join(", ")
            ));
        }
    }

    let depth = config.pipeline_depth.clamp(1, protocol::MAX_PIPELINE_DEPTH);
    let images = throughput_images(&ThroughputConfig {
        images: config.images,
        image_size: config.image_size,
        seed: config.seed,
        ..ThroughputConfig::default()
    });
    let sequence = request_sequence(config.images, config.repeat_ratio, config.seed);
    let resolved = resolve_local_plan(config)?;
    let reference: Vec<LabelMap> = if config.verify {
        let engine = resolved
            .as_ref()
            .map(|r| r.plan.engine())
            .unwrap_or_else(SegmentEngine::serial);
        let local = IqftRgbSegmenter::paper_default().with_engine(engine);
        images.iter().map(|img| local.segment_rgb(img)).collect()
    } else {
        Vec::new()
    };

    let fleet_config = ClientConfig::fleet(addrs.iter().cloned())
        .with_connect_deadline(CLIENT_CONNECT_TIMEOUT)
        .with_pipeline_depth(depth);
    let mut fleet = FleetClient::open(&fleet_config).map_err(|e| e.to_string())?;

    // Two halves so --kill-one has a "mid-run" to kill at; without the
    // chaos flag the split is invisible (same connections, same ring).
    let split = if config.kill_one {
        (sequence.len() / 2).max(1)
    } else {
        sequence.len()
    };
    let started = Instant::now();
    let mut outcome = ClientOutcome::default();
    let mut failovers = 0usize;
    let mut victim: Option<usize> = None;
    for (half, range) in [(0usize, 0..split), (1, split..sequence.len())] {
        if range.is_empty() {
            continue;
        }
        if half == 1 && config.kill_one {
            // Kill the daemon that owns the next image, so the second half
            // is guaranteed to exercise failover.
            let owner = fleet
                .ring()
                .owner(iqft_pipeline::route_hash(&images[sequence[range.start]]));
            if let Some(server) = booted[owner].take() {
                server.shutdown_now();
                server.join();
            }
            victim = Some(owner);
        }
        let slice: Vec<usize> = sequence[range].to_vec();
        let refs: Vec<&imaging::RgbImage> = slice.iter().map(|&img| &images[img]).collect();
        let replies = fleet
            .segment_pipelined(&refs, true)
            .map_err(|e| format!("fleet pipelined segment failed: {e}"))?;
        for (&img, reply) in slice.iter().zip(&replies) {
            failovers += usize::from(reply.tried() > 0);
            match reply.labels() {
                Some(labels) => {
                    outcome.requests += 1;
                    outcome.pixels += labels.len() as u64;
                    outcome.cache_hits += usize::from(reply.cached());
                    if config.verify && labels != &reference[img] {
                        outcome.mismatches += 1;
                    }
                }
                None => outcome.busy += 1,
            }
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Loadgen (fleet): {} requests ({}x{}) by content hash over {} daemons \
         (pipeline depth {}{})",
        config.images,
        config.image_size,
        config.image_size * 3 / 4,
        addrs.len(),
        depth,
        if config.kill_one {
            "; chaos: kill one mid-run"
        } else {
            ""
        },
    );
    if let Some(resolved) = &resolved {
        let _ = writeln!(out, "  local reference plan: [{}]", resolved.plan);
    }
    for (idx, (addr, stats)) in addrs.iter().zip(fleet.stats()).enumerate() {
        let _ = writeln!(
            out,
            "  endpoint {idx} ({addr}): {:>4} requests  {:>4} hits  {:>3} busy  \
             {:>3} errors  {:>3} failovers{}",
            stats.requests,
            stats.hits,
            stats.busy,
            stats.errors,
            stats.failovers,
            if victim == Some(idx) {
                "  [killed mid-run]"
            } else {
                ""
            },
        );
    }
    let _ = writeln!(
        out,
        "  total: {} requests ({} cache hits, {} busy, {} failed over), {:.3} Mpx in \
         {:.2} ms -> {:.2} Mpx/s over the wire",
        outcome.requests,
        outcome.cache_hits,
        outcome.busy,
        failovers,
        outcome.pixels as f64 / 1e6,
        wall_secs * 1e3,
        outcome.pixels as f64 / 1e6 / wall_secs.max(1e-9),
    );
    if config.verify {
        if outcome.mismatches > 0 {
            return Err(format!(
                "verify: FAILED — {} of {} replies differ from the local serial reference",
                outcome.mismatches, outcome.requests
            ));
        }
        let _ = writeln!(
            out,
            "  verify: all {} replies (hits, misses, and failovers alike) byte-identical \
             to the local serial reference",
            outcome.requests
        );
    }
    if config.kill_one {
        if failovers == 0 {
            return Err(
                "chaos: killed a daemon mid-run but recorded no failovers — the kill was \
                 not exercised"
                    .to_string(),
            );
        }
        let _ = writeln!(
            out,
            "  chaos: killed endpoint {} mid-run; {} requests degraded to graceful \
             failover misses, zero errors",
            victim.expect("kill-one picked a victim"),
            failovers,
        );
    }
    if config.expect_cache_hits && outcome.cache_hits == 0 {
        return Err(format!(
            "expected cache hits, but no fleet endpoint served one ({} requests)",
            outcome.requests
        ));
    }
    if config.shutdown {
        let acknowledged = fleet.shutdown_all();
        let _ = writeln!(
            out,
            "  shutdown: acknowledged by {acknowledged} of {} daemons",
            addrs.len()
        );
    }
    for server in booted.into_iter().flatten() {
        // Self-booted chaos daemons must come down with the run: without
        // `--shutdown` no drain was sent, and joining a still-listening
        // server would block forever.
        if !config.shutdown {
            server.shutdown_now();
        }
        server.join();
    }
    Ok(out)
}

/// The `--video` traffic shape: each client plays its own deterministic
/// synthetic video stream ([`datasets::synthetic_video`]) through the
/// per-tile delta op in lockstep, so consecutive frames share most of their
/// tiles and the server's delta cache answers the unchanged ones.  Every
/// stitched reply is cross-checked byte-for-byte against a local serial pass
/// (unless `--no-verify`).
fn loadgen_video_report(config: &LoadgenConfig) -> Result<String, String> {
    let clients = config.clients.max(1);
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit((clients as u64).saturating_mul(2) + 512);
    let frames_per_client = config.images.div_ceil(clients).max(2);
    let width = config.image_size;
    let height = config.image_size * 3 / 4;

    let mut probe = connect_with_retry(&config.addr, config.connect_deadline_ms)?;
    probe.ping().map_err(|e| format!("ping failed: {e}"))?;

    let started = Instant::now();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_idx| {
                let addr = config.addr.as_str();
                let verify = config.verify;
                let change_rate = config.change_rate;
                let seed = config.seed;
                scope.spawn(move || -> Result<ClientOutcome, String> {
                    // Each client is its own camera: a distinct seed gives it
                    // a distinct (still deterministic) scene and motion.
                    let frames = datasets::synthetic_video(&datasets::VideoConfig {
                        frames: frames_per_client,
                        width,
                        height,
                        change_rate,
                        block: 0,
                        seed: seed ^ ((client_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    });
                    let serial =
                        IqftRgbSegmenter::paper_default().with_engine(SegmentEngine::serial());
                    let mut client = connect_worker(addr, client_idx, 1)?;
                    let started = Instant::now();
                    let mut outcome = ClientOutcome::default();
                    for frame in &frames {
                        let (reply, hit, recomputed) =
                            client.segment_delta(frame).map_err(|e| {
                                format!("client {client_idx}: delta segment failed: {e}")
                            })?;
                        let Some(labels) = reply.labels() else {
                            // Overload shedding: the frame was refused, not
                            // mis-served; keep streaming the rest.
                            outcome.busy += 1;
                            continue;
                        };
                        outcome.requests += 1;
                        outcome.pixels += labels.len() as u64;
                        outcome.tiles_hit += u64::from(hit);
                        outcome.tiles_recomputed += u64::from(recomputed);
                        if verify && *labels != serial.segment_rgb(frame) {
                            outcome.mismatches += 1;
                        }
                    }
                    outcome.elapsed_secs = started.elapsed().as_secs_f64();
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Loadgen (video): {} clients x {} frames ({}x{}, change rate {:.0}%) against {}",
        clients,
        frames_per_client,
        width,
        height,
        config.change_rate * 100.0,
        config.addr,
    );
    let mut total = ClientOutcome::default();
    for (idx, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().map_err(|e| e.clone())?;
        let _ = writeln!(
            out,
            "  client {idx}: {:>4} frames  {:>5} tiles hit  {:>5} recomputed  {:>8.3} Mpx  \
             {:>7.2} Mpx/s",
            outcome.requests,
            outcome.tiles_hit,
            outcome.tiles_recomputed,
            outcome.pixels as f64 / 1e6,
            outcome.pixels as f64 / 1e6 / outcome.elapsed_secs.max(1e-9),
        );
        total.requests += outcome.requests;
        total.pixels += outcome.pixels;
        total.mismatches += outcome.mismatches;
        total.busy += outcome.busy;
        total.tiles_hit += outcome.tiles_hit;
        total.tiles_recomputed += outcome.tiles_recomputed;
    }
    let tile_total = total.tiles_hit + total.tiles_recomputed;
    let _ = writeln!(
        out,
        "  total: {} frames ({} busy-rejected), {} of {} tiles from cache ({:.1}% tile hit \
         ratio), {:.3} Mpx in {:.2} ms -> {:.2} Mpx/s over the wire",
        total.requests,
        total.busy,
        total.tiles_hit,
        tile_total,
        if tile_total > 0 {
            total.tiles_hit as f64 * 100.0 / tile_total as f64
        } else {
            0.0
        },
        total.pixels as f64 / 1e6,
        wall_secs * 1e3,
        total.pixels as f64 / 1e6 / wall_secs.max(1e-9),
    );
    if config.verify {
        if total.mismatches > 0 {
            return Err(format!(
                "verify: FAILED — {} of {} stitched replies differ from the local serial \
                 reference",
                total.mismatches, total.requests
            ));
        }
        let _ = writeln!(
            out,
            "  verify: all {} stitched replies byte-identical to the local serial reference",
            total.requests
        );
    }
    finish_report(&mut out, &mut probe, config)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::{ClassifierKind, Tiling};

    fn boot(plan: SegmentPlan) -> Server {
        boot_with_cache(plan, 0)
    }

    fn boot_with_cache(plan: SegmentPlan, cache_mb: usize) -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(plan).with_cache(CacheConfig::with_capacity_mb(cache_mb)),
        )
        .expect("ephemeral bind")
    }

    fn small_loadgen(addr: String) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            clients: 3,
            images: 9,
            image_size: 40,
            seed: 7,
            verify: true,
            shutdown: true,
            connect_deadline_ms: 2_000,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn loadgen_drives_verifies_and_shuts_down_a_real_server() {
        let plan = SegmentPlan::default()
            .with_classifier(ClassifierKind::Table)
            .with_tiling(Tiling::Tiles {
                width: 16,
                height: 16,
            });
        let server = boot(plan);
        let report = loadgen_report(&small_loadgen(server.local_addr().to_string())).unwrap();
        assert!(
            report.contains("verify: all 9 replies (hits and misses alike) byte-identical"),
            "{report}"
        );
        assert!(report.contains("client 0"), "{report}");
        assert!(report.contains("server cache: off"), "{report}");
        assert!(report.contains("shutdown: acknowledged"), "{report}");
        assert!(report.contains(&plan.to_spec()), "{report}");
        // The Shutdown frame drains the server; join must not hang.
        server.join();
    }

    #[test]
    fn repeated_traffic_against_a_cached_server_reports_hits() {
        let server = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(server.local_addr().to_string());
        config.images = 24;
        config.repeat_ratio = 0.8;
        config.pipeline_depth = 4;
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("server cache:"), "{report}");
        assert!(!report.contains("server cache: off"), "{report}");
        assert!(!report.contains(" 0 hits"), "{report}");
        server.join();
    }

    #[test]
    fn expect_cache_hits_fails_loudly_against_an_uncached_server() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.shutdown = false;
        config.repeat_ratio = 0.8;
        config.expect_cache_hits = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("expected cache hits"), "{err}");
        assert!(err.contains("DISABLED"), "{err}");
        server.shutdown_now();
        server.join();
    }

    #[test]
    fn video_loadgen_hits_the_delta_cache_and_verifies_stitched_replies() {
        let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
            width: 48,
            height: 48,
        });
        let server = boot_with_cache(plan, 64);
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.change_rate = 0.2;
        config.clients = 2;
        config.images = 6; // 3 frames per client
        config.image_size = 160; // 160x120 frames: 12 tiles of 48x48
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("Loadgen (video)"), "{report}");
        assert!(
            report.contains("stitched replies byte-identical"),
            "{report}"
        );
        assert!(report.contains("server delta:"), "{report}");
        assert!(report.contains("tile hit ratio"), "{report}");
        server.join();
    }

    #[test]
    fn video_loadgen_without_a_cache_fails_the_hit_expectation() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.shutdown = false;
        config.expect_cache_hits = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("expected delta tile hits"), "{err}");
        server.shutdown_now();
        server.join();
    }

    #[test]
    fn overloaded_server_sheds_with_busy_and_the_rest_verifies() {
        // One worker, a one-deep queue: a pipelined burst of 12 requests
        // from 2 clients must overflow admission at least once.
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(1)
                .with_max_queue(1),
        )
        .expect("ephemeral bind");
        let mut config = small_loadgen(server.local_addr().to_string());
        config.clients = 2;
        config.images = 16;
        config.image_size = 120;
        config.pipeline_depth = 8;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("server admission: max_queue 1"), "{report}");
        assert!(
            !report.contains(", 0 busy rejections"),
            "a 2x8-deep burst against 1 worker + 1 queue slot must shed:\n{report}"
        );
        // Whatever was admitted verified byte-identically; loadgen reports
        // rather than fails when the shed count is nonzero.
        assert!(report.contains("byte-identical"), "{report}");
        server.join();
    }

    #[test]
    fn loadgen_plan_flag_resolves_the_reference_backend() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.plan = "classifier=table;tile=off;backend=threads:2".to_string();
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("local reference plan: [classifier=table;tile=off;backend=threads:2]"),
            "{report}"
        );
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("server admission:"), "{report}");
        server.join();

        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.plan = "classifier=warp".to_string();
        config.shutdown = false;
        assert!(loadgen_report(&config).is_err());
    }

    #[test]
    fn request_sequences_are_deterministic_and_respect_the_ratio() {
        let seq = request_sequence(64, 0.0, 7);
        assert_eq!(seq, (0..64).collect::<Vec<_>>(), "no repeats at ratio 0");
        let seq = request_sequence(200, 0.8, 7);
        assert_eq!(seq, request_sequence(200, 0.8, 7), "deterministic in seed");
        assert_ne!(seq, request_sequence(200, 0.8, 8));
        let repeats = seq.iter().enumerate().filter(|&(i, &img)| img != i).count();
        // 80% nominal; leave generous slack for the small sample.
        assert!(
            (120..=190).contains(&repeats),
            "expected roughly 160 repeats, got {repeats}"
        );
        // Every repeated request replays an image introduced earlier.
        for (i, &img) in seq.iter().enumerate() {
            assert!(img <= i);
        }
    }

    #[test]
    fn ping_command_reports_liveness_and_bounded_failure() {
        let server = boot(SegmentPlan::default());
        let addr = server.local_addr().to_string();
        let ok = ping_command(&addr, 5, 10).unwrap();
        assert!(ok.contains("pong"), "{ok}");
        server.shutdown_now();
        server.join();
        let err = ping_command("127.0.0.1:1", 2, 1).unwrap_err();
        assert!(err.contains("after 2 attempts"), "{err}");
    }

    #[test]
    fn loadgen_fails_loudly_when_no_server_listens() {
        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.shutdown = false;
        config.connect_deadline_ms = 100;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("could not connect"), "{err}");
    }

    #[test]
    fn serve_cli_defaults_resolve_to_the_server_default_plan() {
        let resolved = ServeCliConfig::default().resolve_plan().unwrap();
        assert_eq!(resolved.plan, ServerConfig::default().plan);
        assert!(resolved.calibration.is_none());
        assert_eq!(ServeCliConfig::default().workers, 0, "one worker per core");
    }

    #[test]
    fn serve_command_rejects_bad_flags() {
        let config = ServeCliConfig {
            classifier: "gpu".to_string(),
            ..ServeCliConfig::default()
        };
        assert!(serve_command(&config).is_err());
        let config = ServeCliConfig {
            addr: "256.256.256.256:99999".to_string(),
            ..ServeCliConfig::default()
        };
        assert!(serve_command(&config).unwrap_err().contains("bind"));
    }

    #[test]
    fn fleet_loadgen_routes_over_external_daemons_and_reports_per_endpoint() {
        let a = boot_with_cache(SegmentPlan::default(), 64);
        let b = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(String::new());
        config.fleet = vec![a.local_addr().to_string(), b.local_addr().to_string()];
        config.images = 16;
        config.repeat_ratio = 0.6;
        config.pipeline_depth = 4;
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("Loadgen (fleet)"), "{report}");
        assert!(report.contains("over 2 daemons"), "{report}");
        assert!(report.contains("endpoint 0"), "{report}");
        assert!(report.contains("endpoint 1"), "{report}");
        assert!(
            report.contains("byte-identical to the local serial reference"),
            "{report}"
        );
        assert!(
            report.contains("shutdown: acknowledged by 2 of 2"),
            "{report}"
        );
        a.join();
        b.join();
    }

    #[test]
    fn fleet_loadgen_degrades_when_an_endpoint_is_already_dead() {
        let live = boot_with_cache(SegmentPlan::default(), 64);
        // An address nothing listens on: bind an ephemeral port, then drop
        // the listener before the run.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let mut config = small_loadgen(String::new());
        config.fleet = vec![live.local_addr().to_string(), dead];
        config.connect_deadline_ms = 300;
        config.images = 12;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        assert!(
            report.contains("shutdown: acknowledged by 1 of 2"),
            "{report}"
        );
        live.join();
    }

    #[test]
    fn kill_one_chaos_run_degrades_to_failovers_and_still_verifies() {
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.images = 12;
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("chaos: kill one mid-run"), "{report}");
        assert!(report.contains("[killed mid-run]"), "{report}");
        assert!(report.contains("chaos: killed endpoint"), "{report}");
        assert!(
            report.contains("byte-identical to the local serial reference"),
            "{report}"
        );
        // Exactly one of the three booted daemons was killed; the other two
        // acknowledge the shutdown.
        assert!(report.contains("acknowledged by 2 of 3"), "{report}");
    }

    #[test]
    fn kill_one_chaos_fleet_tears_down_without_explicit_shutdown() {
        // Regression: the self-booted chaos fleet must hard-stop its
        // surviving daemons when no --shutdown drain was requested —
        // otherwise the final join blocks forever.
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.shutdown = false;
        config.images = 12;
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("chaos: killed endpoint"), "{report}");
        assert!(!report.contains("shutdown: acknowledged"), "{report}");
    }

    #[test]
    fn fleet_flags_reject_incompatible_combinations() {
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.video = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.fleet = vec!["127.0.0.1:1".to_string()];
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn loadgen_reports_a_warm_loaded_cache_after_a_persisted_restart() {
        let dir = std::env::temp_dir().join("iqft-experiments-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("loadgen-{}.snap", std::process::id()));
        std::fs::remove_file(&path).ok();
        let boot = || {
            Server::bind(
                "127.0.0.1:0",
                ServerConfig::new(SegmentPlan::default())
                    .with_cache(CacheConfig::with_capacity_mb(64))
                    .with_cache_persist(&path),
            )
            .expect("ephemeral bind")
        };

        // First life: populate, then `--shutdown` drains, which saves.
        let server = boot();
        let report = loadgen_report(&small_loadgen(server.local_addr().to_string())).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        server.join();

        // Second life: the report must surface the warm load through the
        // typed `extra_u64` accessor, and repeats hit without re-populating.
        let server = boot();
        let mut config = small_loadgen(server.local_addr().to_string());
        config.repeat_ratio = 0.0; // only warm entries can hit
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("server cache persistence: warm-loaded 9 entries"),
            "{report}"
        );
        assert!(report.contains("byte-identical"), "{report}");
        server.join();
        std::fs::remove_file(&path).ok();
    }
}
