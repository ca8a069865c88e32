//! `perfbench`: the repository's end-to-end benchmark with a traced
//! per-layer ladder.  See `perfbench/README.md` for the workloads, the
//! metrics and what each layer metric is expected to move.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --daemon PATH --run-dir DIR [--commit ID] [--rustc VERSION]
//! ```
//!
//! The last line of standard output is the JSON result; everything before
//! it is the human-readable report.  Exit code 0 means every reply matched
//! the exact oracle; 1 means a label mismatch or a lost request; 2 means
//! the benchmark could not run.

mod daemon;
mod ladder;
mod loadgen;
mod report;
mod workload;

use daemon::Daemon;
use iqft_pipeline::{PipelineConfig, SegmentPipeline};
use iqft_seg::{IqftClassifier, SimdLevel};
use iqft_serve::StatsSnapshot;
use ladder::Layers;
use loadgen::{duration_ns, run_phase, Conn, Pace, RequestOp, Schedule, Span, Tally};
use report::{median, median_us, metric, quantile, result_line, sliced_tail, tail, Metric};
use seg_engine::SegmentPlan;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Layout, Profile, Workload, HEIGHT, OFFLINE_BATCH, WIDTH};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// In-process set-ups per `offline_batch` run (each takes well under 1 ms).
const OFFLINE_SETUP_REPS: usize = 101;
/// Head start given to the open-phase threads before the first send is due.
const OPEN_LEAD: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    run_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut daemon, mut run_dir) = (None, None);
    let (mut commit, mut rustc) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err("--seconds must be between 0.5 and 600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        run_dir: run_dir.ok_or("--run-dir is required")?,
        commit,
        rustc,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload.is_wire() {
        run_wire(&args)
    } else {
        run_offline(&args)
    };
    match outcome {
        Ok(outcome) => {
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What a run reports on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Connections (and load threads): one per core.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn host_record(args: &Args, plan: &str) {
    println!(
        "host: {{\"nproc\": {}, \"simd\": \"{:?}\", \"commit\": \"{}\", \"rustc\": \"{}\", \"plan\": \"{plan}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        connections(),
        SimdLevel::detect(),
        args.commit,
        args.rustc,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

/// Both timed phases of one daemon's life, plus its counters around them.
struct WireRun {
    warm: Tally,
    closed: Tally,
    open: Tally,
    /// Daemon `VmHWM` right after the warm-up: the memory a fixed amount of
    /// work left behind, whatever the host's speed.
    rss_warm: u64,
    /// Daemon `VmHWM` at the end of the run, after the open phase's bursts.
    rss_end: u64,
    before: StatsSnapshot,
    after: StatsSnapshot,
    cpu: Duration,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// timed phases.
    steal: f64,
}

impl WireRun {
    fn tallies(&self) -> [&Tally; 3] {
        [&self.warm, &self.closed, &self.open]
    }

    fn attempted(&self) -> u64 {
        self.tallies().iter().map(|t| t.sent).sum()
    }

    fn failed(&self) -> u64 {
        self.tallies().iter().map(|t| t.failed()).sum()
    }

    fn correct(&self) -> bool {
        self.tallies()
            .iter()
            .all(|t| t.mismatched == 0 && t.transport == 0)
    }

    fn requests(&self) -> f64 {
        (self.after.segment_requests - self.before.segment_requests) as f64
    }

    fn cache_hit_ratio(&self) -> f64 {
        let hits = (self.after.cache_hits - self.before.cache_hits) as f64;
        let misses = (self.after.cache_misses - self.before.cache_misses) as f64;
        ratio(hits, hits + misses)
    }

    fn tile_hit_ratio(&self) -> f64 {
        let hit = (self.after.delta_tiles_hit - self.before.delta_tiles_hit) as f64;
        let recomputed =
            (self.after.delta_tiles_recomputed - self.before.delta_tiles_recomputed) as f64;
        ratio(hit, hit + recomputed)
    }
}

/// Seconds each set of phases measures: a traced run measures an untraced
/// and a traced set, each for half of `--seconds`.
fn phase_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn request_op(workload: Workload) -> RequestOp {
    if workload == Workload::VideoDelta {
        RequestOp::Delta
    } else {
        RequestOp::Cached
    }
}

/// Warm-up, then the closed and the open phase, against one daemon.
fn wire_phases(
    daemon: &Daemon,
    inputs: &Inputs,
    profile: Profile,
    seconds: f64,
    trace: bool,
) -> Result<WireRun, String> {
    let n = inputs.layout.conns;
    let op = request_op(inputs.layout.workload);
    let mut conns = (0..n)
        .map(|i| Conn::open(daemon.addr(), i))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    let closed = |limit: u64| {
        move |_| Pace::Closed {
            depth: profile.depth,
            limit,
        }
    };
    let warm = run_phase(
        &mut conns,
        inputs,
        op,
        closed(profile.warmup as u64),
        Instant::now(),
        false,
    );
    let rss_warm = daemon.peak_rss_bytes()?;
    let before = daemon.stats()?;
    let cpu_before = daemon.cpu_time()?;
    let host_before = daemon::host_cpu_ticks()?;
    let closed_time = Duration::from_secs_f64(seconds * profile.closed_share);
    let closed = run_phase(
        &mut conns,
        inputs,
        op,
        closed(0),
        Instant::now() + closed_time,
        trace,
    );
    let start = Instant::now() + OPEN_LEAD;
    let until = start + Duration::from_secs_f64(seconds) - closed_time;
    let pace = |conn| Pace::Open(Schedule::for_connection(start, profile.open_rate, conn, n));
    let open = run_phase(&mut conns, inputs, op, pace, until, trace);
    drop(conns);
    let after = daemon.stats()?;
    let cpu = daemon.cpu_time()?.saturating_sub(cpu_before);
    let rss_end = daemon.peak_rss_bytes()?;
    let steal = steal_share(host_before)?;
    Ok(WireRun {
        warm,
        closed,
        open,
        rss_warm,
        rss_end,
        before,
        after,
        cpu,
        steal,
    })
}

/// The share of host CPU time stolen since `before` was read.
fn steal_share(before: (u64, u64)) -> Result<f64, String> {
    let (steal, total) = daemon::host_cpu_ticks()?;
    Ok(ratio(
        steal.saturating_sub(before.0) as f64,
        total.saturating_sub(before.1) as f64,
    ))
}

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Open-phase latency in milliseconds: the median over all requests and
/// the sliced tail (see [`report::sliced_tail`]).
struct Latency {
    p50_ms: f64,
    tail_ms: f64,
    tail_pct: f64,
    slices: usize,
    samples: usize,
}

fn latency_ms(open: &Tally) -> Latency {
    let in_order = open.latency_in_send_order();
    let (tail_ns, tail_pct, slices) = sliced_tail(&in_order);
    Latency {
        p50_ms: quantile(&sorted(&in_order), 0.5) as f64 / 1e6,
        tail_ms: tail_ns / 1e6,
        tail_pct,
        slices,
        samples: in_order.len(),
    }
}

fn print_phase(name: &str, t: &Tally) {
    let mut line = format!(
        "  {name:<6} sent {:>6}  ok {:>6}  busy {}  failed {}  mismatched {}  {:>8.2} Mpx/s",
        t.sent,
        t.ok,
        t.busy,
        t.transport,
        t.mismatched,
        t.mean_mpx_per_s(),
    );
    if !t.latency.is_empty() {
        let latency = latency_ms(t);
        line += &format!(
            "  p50 {:.3} ms  p{:.1} {:.3} ms (n={}, {} slices)  lag p99 {:.3} ms",
            latency.p50_ms,
            latency.tail_pct,
            latency.tail_ms,
            latency.samples,
            latency.slices,
            tail(&sorted(&t.lag_ns)).0 as f64 / 1e6,
        );
    }
    println!("{line}");
    if let Some(e) = &t.first_error {
        println!("         first failure: {e}");
    }
}

fn print_wire_run(label: &str, run: &WireRun) {
    println!("{label}:");
    print_phase("warm", &run.warm);
    print_phase("closed", &run.closed);
    print_phase("open", &run.open);
    println!(
        "  daemon: cache hit ratio {:.4}, tile hit ratio {:.4}, {} segment requests, cpu {:.1} us/request, error_rate {:.6}, VmHWM after warm-up {:.1} MiB, at end {:.1} MiB, host CPU steal {:.1}%",
        run.cache_hit_ratio(),
        run.tile_hit_ratio(),
        run.requests(),
        run.cpu.as_secs_f64() * 1e6 / run.requests().max(1.0),
        ratio(run.failed() as f64, run.attempted() as f64),
        run.rss_warm as f64 / (1 << 20) as f64,
        run.rss_end as f64 / (1 << 20) as f64,
        run.steal * 100.0,
    );
}

fn run_wire(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.run_dir).map_err(|e| format!("cannot create run dir: {e}"))?;
    let conns = connections();
    let profile = args.workload.profile(conns);
    let inputs = Inputs::build(Layout::new(args.workload, args.seed, conns));

    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (spawned, took) = Daemon::spawn(&args.daemon, &args.run_dir, &format!("setup{rep}"))?;
        setups.push(duration_ns(took));
        if rep + 1 < SETUP_REPS {
            spawned.shutdown()?;
        } else {
            daemon = Some(spawned);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let served = daemon.stats()?.plan;
    host_record(args, &served);
    println!(
        "workload {}: {} connections, depth {}, open rate {} req/s, {}x{} images",
        args.workload.name(),
        conns,
        profile.depth,
        profile.open_rate,
        WIDTH,
        HEIGHT
    );

    let run = wire_phases(&daemon, &inputs, profile, phase_seconds(args), false)?;
    let rss = run.rss_warm;
    daemon.shutdown()?;
    print_wire_run("untraced", &run);
    let latency = latency_ms(&run.open);
    let setup_s = median(&setups) as f64 / 1e9;
    println!(
        "end-to-end: setup {setup_s:.6} s (median of {SETUP_REPS}), throughput {:.3} Mpx/s, latency p50 {:.4} ms, p{:.1} {:.4} ms (n={}, median of {} slices), peak rss {:.1} MiB",
        run.closed.mpx_per_s(),
        latency.p50_ms,
        latency.tail_pct,
        latency.tail_ms,
        latency.samples,
        latency.slices,
        rss as f64 / (1 << 20) as f64,
    );
    let mut outcome = Outcome {
        correct: run.correct(),
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput_mpx_s", run.closed.mpx_per_s(), "Mpx/s"),
            metric("latency_p50_ms", latency.p50_ms, "ms"),
            metric("peak_rss_mb", rss as f64 / (1 << 20) as f64, "MiB"),
        ],
    };
    if !args.trace {
        return Ok(outcome);
    }

    // Traced run: a fresh daemon that serves only this phase, so its
    // cumulative latency histogram describes nothing else.
    let (daemon, _) = Daemon::spawn(&args.daemon, &args.run_dir, "traced")?;
    let traced = wire_phases(&daemon, &inputs, profile, phase_seconds(args), true)?;
    daemon.shutdown()?;
    print_wire_run("traced", &traced);
    let plan =
        SegmentPlan::from_spec(&served).map_err(|e| format!("served plan '{served}': {e}"))?;
    let layers = ladder::measure(&inputs, plan, request_op(args.workload));
    print_wire_ladder(args.workload, &layers, &traced, &run);
    outcome.correct &= traced.correct() && layers.mismatches == 0;
    outcome.attempted += traced.attempted() + layers.checked;
    outcome.failed += traced.failed() + layers.mismatches;
    let service_p50 = traced.after.lat_p50_us as f64;
    let requests = traced.requests().max(1.0);
    let arena = (traced.after.arena_allocations - traced.before.arena_allocations) as f64;
    let open_p50 = latency_ms(&traced.open).p50_ms;
    outcome.metrics = layer_metrics(&layers);
    outcome.metrics.extend([
        metric(
            "pipeline.cache_hit_ratio",
            traced.cache_hit_ratio(),
            "ratio",
        ),
        metric("pipeline.tile_hit_ratio", traced.tile_hit_ratio(), "ratio"),
        metric("pipeline.arena_allocs_per_req", arena / requests, "count"),
        metric("server.service_us_p50", service_p50, "us"),
        metric(
            "server.service_us_p99",
            traced.after.lat_p99_us as f64,
            "us",
        ),
        metric(
            "server.cpu_us_per_req",
            traced.cpu.as_secs_f64() * 1e6 / requests,
            "us",
        ),
        metric(
            "server.busy_rejections",
            (traced.after.busy_rejections - traced.before.busy_rejections) as f64,
            "count",
        ),
        metric(
            "server.protocol_errors",
            (traced.after.protocol_errors - traced.before.protocol_errors) as f64,
            "count",
        ),
        metric("wire.overhead_us_p50", open_p50 * 1e3 - service_p50, "us"),
        metric("client.latency_p99_ms", latency.tail_ms, "ms"),
        metric(
            "loadgen.lag_ms_p99",
            tail(&sorted(&traced.open.lag_ns)).0 as f64 / 1e6,
            "ms",
        ),
    ]);
    Ok(outcome)
}

/// The per-layer metrics timed in-process.
fn layer_metrics(layers: &Layers) -> Vec<Metric> {
    vec![
        metric(
            "iqft_seg.classify_ns_per_px",
            layers.classify_ns_per_px,
            "ns/px",
        ),
        metric(
            "iqft_seg.fallback_px_ratio",
            layers.fallback_px_ratio,
            "ratio",
        ),
        metric("seg_engine.segment_us_p50", layers.segment_us, "us"),
        metric("seg_engine.dispatch_us", layers.dispatch_us(), "us"),
        metric("pipeline.miss_us_p50", layers.miss_us, "us"),
        metric("pipeline.hit_us_p50", layers.hit_us, "us"),
        metric("pipeline.key_hash_us", layers.key_hash_us, "us"),
        metric("pipeline.delta_us_p50", layers.delta_us, "us"),
        metric("pipeline.batch_ms_p50", layers.batch_ms, "ms"),
        metric(
            "pipeline.queue_overhead_ratio",
            ratio(layers.batch_ms, layers.serial_batch_ms),
            "ratio",
        ),
        metric("protocol.encode_us", layers.encode_us, "us"),
        metric("protocol.decode_us", layers.decode_us, "us"),
    ]
}

/// Median client-side span pieces of the traced open phase, in µs:
/// (encode, write, await reply, decode).
fn span_breakdown(spans: &[Span]) -> (f64, f64, f64, f64) {
    let part = |f: &dyn Fn(&Span) -> Option<Duration>| {
        let samples: Vec<u64> = spans.iter().filter_map(f).map(duration_ns).collect();
        median_us(&samples)
    };
    (
        part(&|s| Some(s.encoded - s.issued)),
        part(&|s| s.written.map(|w| w.saturating_duration_since(s.encoded))),
        part(&|s| s.written.map(|w| s.replied.saturating_duration_since(w))),
        part(&|s| Some(s.decoded - s.replied)),
    )
}

fn rung(layer: &str, call: &str, us: f64, below: Option<f64>, note: &str) {
    let step = below.map_or(String::new(), |b| format!("{:+10.1}  {note}", us - b));
    println!("  {layer:<14} {call:<34} {us:>10.1} {step}");
}

fn change(traced: f64, untraced: f64) -> String {
    format!(
        "{traced:.4} traced vs {untraced:.4} untraced ({:+.1}%)",
        (traced / untraced - 1.0) * 100.0
    )
}

fn print_wire_ladder(workload: Workload, layers: &Layers, traced: &WireRun, untraced: &WireRun) {
    let service = traced.after.lat_p50_us as f64;
    let client = latency_ms(&traced.open).p50_ms * 1e3;
    let (encode, write, wait, decode) = span_breakdown(&traced.open.spans);
    println!("ladder {} (us per {WIDTH}x{HEIGHT} request, medians; step = remainder over the rung below):", workload.name());
    let pipeline = match workload {
        Workload::HotHit => {
            rung(
                "iqft-pipeline",
                "SegmentCache::key_for",
                layers.key_hash_us,
                None,
                "",
            );
            rung(
                "iqft-pipeline",
                "segment_request_cached (hit)",
                layers.hit_us,
                Some(layers.key_hash_us),
                "lookup + copy-out",
            );
            layers.hit_us
        }
        Workload::VideoDelta => {
            rung(
                "iqft-seg",
                "classify (whole frame)",
                layers.kernel_us(),
                None,
                "",
            );
            rung(
                "iqft-pipeline",
                "segment_request_delta",
                layers.delta_us,
                None,
                "tile hashing, stitching, partial classify",
            );
            layers.delta_us
        }
        _ => {
            rung(
                "iqft-seg",
                "classify_rgb_slice_into",
                layers.kernel_us(),
                None,
                "",
            );
            rung(
                "seg-engine",
                "SegmentPlan::segment_rgb_into",
                layers.segment_us,
                Some(layers.kernel_us()),
                "backend dispatch",
            );
            rung(
                "iqft-pipeline",
                "segment_request_cached (miss)",
                layers.miss_us,
                Some(layers.segment_us),
                "hash + cache insert",
            );
            layers.miss_us
        }
    };
    rung(
        "iqft-serve",
        "daemon service p50 (Stats)",
        service,
        Some(pipeline),
        "unexplained in the daemon",
    );
    rung(
        "client",
        "open-loop latency p50",
        client,
        Some(service),
        "wire + client",
    );
    println!(
        "  client spans (traced open phase): encode {encode:.1}, write {write:.1}, await reply {wait:.1}, decode {decode:.1}; protocol layer alone: encode {:.1}, decode {:.1}",
        layers.encode_us, layers.decode_us
    );
    let mut order = vec![pipeline, service, client];
    if !matches!(workload, Workload::HotHit | Workload::VideoDelta) {
        order.splice(0..0, [layers.kernel_us(), layers.segment_us]);
    }
    let monotone = order.windows(2).all(|w| w[0] <= w[1] * 1.1);
    println!(
        "  order kernel <= engine <= pipeline ~ service <= client (10% slack): {}; pipeline/service {:.2}",
        if monotone { "holds" } else { "VIOLATED" },
        pipeline / service.max(1.0)
    );
    let traced_p50 = latency_ms(&traced.open).p50_ms;
    let untraced_p50 = latency_ms(&untraced.open).p50_ms;
    println!(
        "  tracing overhead: throughput {} Mpx/s; latency p50 {} ms",
        change(traced.closed.mpx_per_s(), untraced.closed.mpx_per_s()),
        change(traced_p50, untraced_p50)
    );
}

/// Both timed phases of the in-process batch workload.  The closed phase's
/// clock only runs inside `run_batch`, so checking the labels costs it
/// nothing.
struct OfflineRun {
    warm: Tally,
    closed: Tally,
    open: Tally,
    arena_allocations: usize,
    /// Share of the host's CPU time stolen during the timed phases.
    steal: f64,
}

impl OfflineRun {
    fn tallies(&self) -> [&Tally; 3] {
        [&self.warm, &self.closed, &self.open]
    }

    fn mpx_per_s(&self) -> f64 {
        self.closed.mpx_per_s()
    }
}

/// Runs one batch, checks it, and files it into `tally`.  Returns when
/// `run_batch` was entered and when it returned.
fn offline_batch(
    pipeline: &SegmentPipeline<IqftClassifier>,
    inputs: &Inputs,
    k: u64,
    tally: &mut Tally,
) -> (Instant, Instant) {
    let first = (k as usize * OFFLINE_BATCH) % inputs.bases.len();
    let images = &inputs.bases[first..first + OFFLINE_BATCH];
    let started = Instant::now();
    let (maps, _) = pipeline.run_batch(images);
    let done = Instant::now();
    tally.start.get_or_insert(started);
    tally.end = Some(done);
    tally.sent += images.len() as u64;
    for (i, map) in maps.into_iter().enumerate() {
        let req = inputs.layout.request(0, (first + i) as u64);
        if inputs.check(req, map.as_slice()) {
            tally.ok += 1;
            tally.pixels += map.len() as u64;
        } else {
            tally.mismatched += 1;
            tally.first_error.get_or_insert_with(|| {
                format!(
                    "run_batch labels differ from the oracle (image {})",
                    req.base
                )
            });
        }
        pipeline.recycle(map);
    }
    (started, done)
}

fn offline_phases(
    pipeline: &SegmentPipeline<IqftClassifier>,
    inputs: &Inputs,
    profile: Profile,
    seconds: f64,
) -> Result<OfflineRun, String> {
    let mut k = 0u64;
    let mut warm = Tally::default();
    while k < profile.warmup as u64 {
        offline_batch(pipeline, inputs, k, &mut warm);
        k += 1;
    }
    let arena_before = pipeline.arena().allocations();
    let host_before = daemon::host_cpu_ticks()?;

    let mut closed = Tally::default();
    let mut busy = Duration::ZERO;
    let closed_time = Duration::from_secs_f64(seconds * profile.closed_share);
    let phase_start = Instant::now();
    let until = phase_start + closed_time;
    while Instant::now() < until {
        let verified = closed.pixels;
        let (started, done) = offline_batch(pipeline, inputs, k, &mut closed);
        busy += done - started;
        closed
            .completions
            .push((phase_start + busy, closed.pixels - verified));
        k += 1;
    }
    closed.start = Some(phase_start);
    closed.until = Some(phase_start + busy);
    closed.end = closed.until;

    // Open phase: batches are due on a fixed schedule; a late batch counts
    // its wait in its latency.
    let mut open = Tally::default();
    let start = Instant::now() + OPEN_LEAD;
    let schedule = Schedule::for_connection(start, profile.open_rate, 0, 1);
    let until = start + Duration::from_secs_f64(seconds) - closed_time;
    for slot in 0.. {
        let due = schedule.due(slot);
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (started, done) = offline_batch(pipeline, inputs, k, &mut open);
        k += 1;
        open.lag_ns
            .push(duration_ns(started.saturating_duration_since(due)));
        open.latency.push((due, duration_ns(done - due)));
    }
    Ok(OfflineRun {
        warm,
        closed,
        open,
        arena_allocations: pipeline.arena().allocations() - arena_before,
        steal: steal_share(host_before)?,
    })
}

fn print_offline_run(label: &str, run: &OfflineRun) {
    println!("{label}:");
    print_phase("warm", &run.warm);
    print_phase("closed", &run.closed);
    print_phase("open", &run.open);
    println!(
        "  run_batch throughput {:.3} Mpx/s (median over windows of time inside run_batch), host CPU steal {:.1}%",
        run.mpx_per_s(),
        run.steal * 100.0
    );
}

fn run_offline(args: &Args) -> Result<Outcome, String> {
    let profile = args.workload.profile(1);
    let inputs = Inputs::build(Layout::new(args.workload, args.seed, 1));
    let plan = SegmentPlan::default();
    host_record(args, &plan.to_spec());
    println!(
        "workload {}: run_batch of {OFFLINE_BATCH} images, open rate {} batches/s, {WIDTH}x{HEIGHT} images",
        args.workload.name(),
        profile.open_rate
    );
    let mut setups = Vec::new();
    let mut pipeline = None;
    for _ in 0..OFFLINE_SETUP_REPS {
        let started = Instant::now();
        let built = SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
            .with_config(PipelineConfig::default());
        setups.push(duration_ns(started.elapsed()));
        pipeline = Some(built);
    }
    let pipeline = pipeline.expect("at least one set-up");
    loadgen::tighten_timer_slack();
    let run = offline_phases(&pipeline, &inputs, profile, phase_seconds(args))?;
    let rss = daemon::peak_rss_bytes(std::process::id())?;
    print_offline_run("untraced", &run);
    let latency = latency_ms(&run.open);
    let setup_s = median(&setups) as f64 / 1e9;
    println!(
        "end-to-end: setup {setup_s:.6} s (median of {OFFLINE_SETUP_REPS}), throughput {:.3} Mpx/s, batch latency p50 {:.4} ms, p{:.1} {:.4} ms (n={}, median of {} slices), peak rss {:.1} MiB (this process)",
        run.mpx_per_s(),
        latency.p50_ms,
        latency.tail_pct,
        latency.tail_ms,
        latency.samples,
        latency.slices,
        rss as f64 / (1 << 20) as f64,
    );
    let tallies = run.tallies();
    let mut outcome = Outcome {
        correct: tallies.iter().all(|t| t.mismatched == 0),
        attempted: tallies.iter().map(|t| t.sent).sum(),
        failed: tallies.iter().map(|t| t.failed()).sum(),
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput_mpx_s", run.mpx_per_s(), "Mpx/s"),
            metric("latency_p50_ms", latency.p50_ms, "ms"),
            metric("peak_rss_mb", rss as f64 / (1 << 20) as f64, "MiB"),
        ],
    };
    if !args.trace {
        return Ok(outcome);
    }

    let traced = offline_phases(&pipeline, &inputs, profile, phase_seconds(args))?;
    print_offline_run("traced", &traced);
    let layers = ladder::measure(&inputs, plan, RequestOp::Cached);
    println!("ladder offline_batch (us per {WIDTH}x{HEIGHT} image, medians; step = remainder over the rung below):");
    rung(
        "iqft-seg",
        "classify_rgb_slice_into",
        layers.kernel_us(),
        None,
        "",
    );
    rung(
        "seg-engine",
        "SegmentPlan::segment_rgb_into",
        layers.segment_us,
        Some(layers.kernel_us()),
        "backend dispatch",
    );
    let batch_per_image = layers.batch_ms * 1e3 / OFFLINE_BATCH as f64;
    rung(
        "iqft-pipeline",
        "run_batch / images (wall)",
        batch_per_image,
        Some(layers.segment_us),
        "queue + worker threads",
    );
    rung(
        "end-to-end",
        "closed phase, per image",
        layers.pixels / traced.mpx_per_s(),
        Some(batch_per_image),
        "other images' batches, noise",
    );
    println!(
        "  queue overhead: run_batch {:.3} ms vs serial engine {:.3} ms for the same {OFFLINE_BATCH} images",
        layers.batch_ms, layers.serial_batch_ms
    );
    println!(
        "  tracing overhead: throughput {} Mpx/s; batch latency p50 {} ms",
        change(traced.mpx_per_s(), run.mpx_per_s()),
        change(latency_ms(&traced.open).p50_ms, latency.p50_ms)
    );
    let traced_tallies = traced.tallies();
    outcome.correct &= traced_tallies.iter().all(|t| t.mismatched == 0) && layers.mismatches == 0;
    outcome.attempted += traced_tallies.iter().map(|t| t.sent).sum::<u64>() + layers.checked;
    outcome.failed += traced_tallies.iter().map(|t| t.failed()).sum::<u64>() + layers.mismatches;
    let images = (traced.closed.sent + traced.open.sent).max(1) as f64;
    outcome.metrics = layer_metrics(&layers);
    outcome.metrics.extend([
        // No daemon, cache or wire on this path: those layers read zero.
        metric("pipeline.cache_hit_ratio", 0.0, "ratio"),
        metric("pipeline.tile_hit_ratio", 0.0, "ratio"),
        metric(
            "pipeline.arena_allocs_per_req",
            traced.arena_allocations as f64 / images,
            "count",
        ),
        metric("server.service_us_p50", 0.0, "us"),
        metric("server.service_us_p99", 0.0, "us"),
        metric("server.cpu_us_per_req", 0.0, "us"),
        metric("server.busy_rejections", 0.0, "count"),
        metric("server.protocol_errors", 0.0, "count"),
        metric("wire.overhead_us_p50", 0.0, "us"),
        metric("client.latency_p99_ms", latency.tail_ms, "ms"),
        metric(
            "loadgen.lag_ms_p99",
            tail(&sorted(&traced.open.lag_ns)).0 as f64 / 1e6,
            "ms",
        ),
    ]);
    Ok(outcome)
}
