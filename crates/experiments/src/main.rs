//! `iqft-experiments` — CLI that regenerates every table and figure of the
//! reproduced paper.
//!
//! ```text
//! iqft-experiments <subcommand> [options]
//!
//! Subcommands:
//!   table1                     θ ↔ threshold values (paper Table I)
//!   table2  [--samples N]      θ ↔ max segment count (paper Table II)
//!   table3  [--voc N] [--xview N] [--size S] [--seed S]
//!                              mIOU / runtime comparison (paper Table III)
//!   fig1-3                     worked example: patterns and probabilities
//!   fig4    [--out DIR]        multiple thresholding on the balls scene
//!   fig5    [--out DIR]        normalisation ablation
//!   fig6    [--out DIR]        θ sweep on real scenes
//!   fig7    [--out DIR]        Otsu ↔ θ equivalence
//!   fig8    [--out DIR]        qualitative wins (VOC-like)
//!   fig9    [--out DIR]        qualitative wins (xVIEW2-like)
//!   fig10                      per-image θ adjustment
//!   throughput [--images N] [--batch B] [--size S] [--seed S]
//!              [--classifier exact|lut|table|quant|simd] [--tile WxH]
//!              [--plan SPEC|auto] [--cache-mb M] [--video]
//!              [--change-rate R] [--no-verify]
//!                              batched pipeline service workload
//!                              (--tile splits images into tile jobs;
//!                              --plan takes a whole classifier=…;tile=…;
//!                              backend=… spec, or `auto` to probe the host
//!                              and take the fastest measured plan;
//!                              --cache-mb attaches the result cache and
//!                              runs the per-request serving path; --video
//!                              streams synthetic video through the
//!                              per-tile delta path, mutating a fraction
//!                              --change-rate of each frame's blocks)
//!   serve   [--addr A] [--classifier C] [--tile T] [--plan SPEC|auto]
//!           [--workers W] [--max-queue Q]
//!           [--serve-mode threads|evented] [--cache-mb M] [--addr-file PATH]
//!           [--cache-persist PATH]
//!                              boot the iqft-serve TCP daemon and block
//!                              until a client sends Shutdown; the default
//!                              plan is classifier=simd;tile=off;
//!                              backend=serial, and --workers 0 (the
//!                              default) runs one request per core whatever
//!                              the backend; --addr-file
//!                              records the bound (possibly ephemeral) port;
//!                              --plan auto calibrates the plan at boot (the
//!                              evidence is surfaced through Stats);
//!                              --max-queue bounds waiting segment requests
//!                              (0 = unbounded) — saturated admission gets a
//!                              typed Busy reply instead of queueing;
//!                              --serve-mode picks the serving core (default
//!                              evented: a nonblocking reactor loop that
//!                              holds 1000+ pipelined connections);
//!                              --cache-persist warm-loads the result cache
//!                              from a snapshot on boot and writes it back
//!                              on a drain-then-stop shutdown
//!   loadgen [--addr A] [--clients C] [--images N] [--size S] [--seed S]
//!           [--plan SPEC|auto] [--repeat-ratio R] [--pipeline K]
//!           [--expect-cache-hits] [--video] [--change-rate R]
//!           [--fleet A,A,...] [--kill-one] [--no-verify] [--shutdown]
//!                              drive concurrent clients against a running
//!                              daemon (byte-identity verified by default;
//!                              --plan picks the local reference pass's
//!                              plan — labels are identical either way;
//!                              --repeat-ratio generates Zipf-ish repeated
//!                              traffic, --pipeline keeps K requests in
//!                              flight per connection; --video streams each
//!                              client's own synthetic video through the
//!                              per-tile delta op; typed Busy rejections
//!                              from an admission-bounded server are
//!                              counted, not fatal; --fleet routes by
//!                              content hash over a consistent-hash ring of
//!                              daemons, failing over when one dies;
//!                              --kill-one boots a three-daemon in-process
//!                              fleet and kills one mid-run to prove
//!                              graceful degradation)
//!   ping    [--addr A] [--retries N]
//!                              readiness probe with bounded retries
//!   all     [--out DIR]        everything above with reduced sizes
//!
//! Global options:
//!   --backend serial|threads|rayon   execution backend for every experiment
//!                                    (default: threads; serve: serial)
//!   --threads N                      worker threads for the threads backend
//!                                    (default: 0 = one per core)
//! ```
//!
//! Label maps and scores are byte-identical across backends; the knob only
//! changes how the work is scheduled.

use experiments::figures;
use experiments::service::{self, LoadgenConfig, ServeCliConfig};
use experiments::tables::{self, Table3Config};
use experiments::throughput::{self, ThroughputConfig};
use experiments::SegmentEngine;
use std::path::PathBuf;

struct Args {
    command: String,
    out_dir: Option<PathBuf>,
    samples: usize,
    voc: usize,
    xview: usize,
    size: usize,
    seed: u64,
    /// `--backend`; `None` keeps the subcommand's own default.
    backend: Option<String>,
    threads: usize,
    images: usize,
    batch: usize,
    /// `--classifier`; `None` keeps the subcommand's own default.
    classifier: Option<String>,
    tile: String,
    plan: String,
    max_queue: usize,
    verify: bool,
    addr: String,
    clients: usize,
    workers: usize,
    serve_mode: String,
    shutdown: bool,
    cache_mb: usize,
    repeat_ratio: f64,
    pipeline: usize,
    expect_cache_hits: bool,
    video: bool,
    change_rate: f64,
    addr_file: Option<PathBuf>,
    cache_persist: Option<PathBuf>,
    fleet: Vec<String>,
    kill_one: bool,
    retries: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        out_dir: None,
        samples: 100_000,
        voc: 200,
        xview: 148,
        size: 160,
        seed: 42,
        backend: None,
        threads: 0,
        images: 64,
        batch: 16,
        classifier: None,
        tile: "off".to_string(),
        plan: String::new(),
        max_queue: 0,
        verify: true,
        addr: "127.0.0.1:7870".to_string(),
        clients: 4,
        workers: 0,
        serve_mode: "evented".to_string(),
        shutdown: false,
        cache_mb: 0,
        repeat_ratio: 0.0,
        pipeline: 1,
        expect_cache_hits: false,
        video: false,
        change_rate: 0.1,
        addr_file: None,
        cache_persist: None,
        fleet: Vec::new(),
        kill_one: false,
        retries: 40,
    };
    let mut iter = std::env::args().skip(1);
    if let Some(cmd) = iter.next() {
        args.command = cmd;
    }
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_default();
        match flag.as_str() {
            "--out" => args.out_dir = Some(PathBuf::from(value())),
            "--samples" => args.samples = value().parse().unwrap_or(args.samples),
            "--voc" => args.voc = value().parse().unwrap_or(args.voc),
            "--xview" => args.xview = value().parse().unwrap_or(args.xview),
            "--size" => args.size = value().parse().unwrap_or(args.size),
            "--seed" => args.seed = value().parse().unwrap_or(args.seed),
            "--backend" => args.backend = Some(value()),
            "--threads" => args.threads = value().parse().unwrap_or(args.threads),
            "--images" => args.images = value().parse().unwrap_or(args.images),
            "--batch" => args.batch = value().parse().unwrap_or(args.batch),
            "--classifier" => args.classifier = Some(value()),
            "--tile" => args.tile = value(),
            "--plan" => args.plan = value(),
            "--max-queue" => args.max_queue = value().parse().unwrap_or(args.max_queue),
            "--no-verify" => args.verify = false,
            "--addr" => args.addr = value(),
            "--clients" => args.clients = value().parse().unwrap_or(args.clients),
            "--workers" => args.workers = value().parse().unwrap_or(args.workers),
            "--serve-mode" => args.serve_mode = value(),
            "--shutdown" => args.shutdown = true,
            "--cache-mb" => args.cache_mb = value().parse().unwrap_or(args.cache_mb),
            "--repeat-ratio" => args.repeat_ratio = value().parse().unwrap_or(args.repeat_ratio),
            "--pipeline" => args.pipeline = value().parse().unwrap_or(args.pipeline),
            "--expect-cache-hits" => args.expect_cache_hits = true,
            "--video" => args.video = true,
            "--change-rate" => args.change_rate = value().parse().unwrap_or(args.change_rate),
            "--addr-file" => args.addr_file = Some(PathBuf::from(value())),
            "--cache-persist" => args.cache_persist = Some(PathBuf::from(value())),
            "--fleet" => {
                args.fleet = value()
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--kill-one" => args.kill_one = true,
            "--retries" => args.retries = value().parse().unwrap_or(args.retries),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    args
}

fn run_table3(args: &Args, engine: &SegmentEngine) -> String {
    let config = Table3Config {
        voc_images: args.voc,
        xview_images: args.xview,
        image_size: args.size,
        seed: args.seed,
        backend: engine.backend(),
        ..Table3Config::default()
    };
    let summaries = tables::table3_run(&config);
    tables::table3_text(&summaries)
}

fn main() {
    let args = parse_args();
    // Offline subcommands default to the phase table on one thread per
    // core; `serve` keeps its own defaults (see `ServeCliConfig`).
    let backend = args.backend.as_deref().unwrap_or("threads");
    let classifier = args.classifier.as_deref().unwrap_or("table").to_string();
    let engine = match SegmentEngine::from_flags(backend, args.threads) {
        Ok(engine) => engine,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let out = args.out_dir.as_deref();
    let report = match args.command.as_str() {
        "table1" => tables::table1_text(),
        "table2" => tables::table2_text(args.samples, args.seed),
        "table3" => run_table3(&args, &engine),
        "fig1-3" | "fig1" | "fig2" | "fig3" => figures::fig1_3_text(),
        "fig4" => figures::fig4_report(&engine, out),
        "fig5" => figures::fig5_report(&engine, out),
        "fig6" => figures::fig6_report(&engine, out),
        "fig7" => figures::fig7_report(&engine, out),
        "fig8" => figures::fig8_9_report(&engine, false, out, 30),
        "fig9" => figures::fig8_9_report(&engine, true, out, 30),
        "fig10" => figures::fig10_report(&engine, 30),
        "serve" => {
            let defaults = ServeCliConfig::default();
            let config = ServeCliConfig {
                addr: args.addr.clone(),
                plan: args.plan.clone(),
                classifier: args.classifier.clone().unwrap_or(defaults.classifier),
                tile: args.tile.clone(),
                backend: args.backend.clone().unwrap_or(defaults.backend),
                threads: args.threads,
                workers: args.workers,
                max_queue: args.max_queue,
                serve_mode: args.serve_mode.clone(),
                cache_mb: args.cache_mb,
                addr_file: args.addr_file.clone(),
                cache_persist: args.cache_persist.clone(),
            };
            match service::serve_command(&config) {
                Ok(summary) => summary,
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(2);
                }
            }
        }
        "loadgen" => {
            let config = LoadgenConfig {
                addr: args.addr.clone(),
                plan: args.plan.clone(),
                clients: args.clients,
                images: args.images,
                image_size: args.size,
                seed: args.seed,
                verify: args.verify,
                shutdown: args.shutdown,
                repeat_ratio: args.repeat_ratio,
                pipeline_depth: args.pipeline,
                expect_cache_hits: args.expect_cache_hits,
                video: args.video,
                change_rate: args.change_rate,
                fleet: args.fleet.clone(),
                kill_one: args.kill_one,
                ..LoadgenConfig::default()
            };
            match service::loadgen_report(&config) {
                Ok(report) => report,
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(1);
                }
            }
        }
        "ping" => match service::ping_command(&args.addr, args.retries, 250) {
            Ok(report) => report,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(1);
            }
        },
        "throughput" => throughput::throughput_report(
            &engine,
            &ThroughputConfig {
                images: args.images,
                batch: args.batch,
                image_size: args.size,
                seed: args.seed,
                classifier: classifier.clone(),
                tile: args.tile.clone(),
                plan: args.plan.clone(),
                cache_mb: args.cache_mb,
                verify: args.verify,
                video: args.video,
                change_rate: args.change_rate,
            },
        ),
        "all" => {
            let mut all = String::new();
            all.push_str(&tables::table1_text());
            all.push('\n');
            all.push_str(&tables::table2_text(args.samples.min(20_000), args.seed));
            all.push('\n');
            let quick = Args {
                command: args.command.clone(),
                out_dir: args.out_dir.clone(),
                backend: args.backend.clone(),
                samples: args.samples,
                voc: args.voc.min(20),
                xview: args.xview.min(20),
                size: args.size.min(96),
                seed: args.seed,
                threads: args.threads,
                images: args.images,
                batch: args.batch,
                classifier: args.classifier.clone(),
                tile: args.tile.clone(),
                plan: args.plan.clone(),
                max_queue: args.max_queue,
                verify: args.verify,
                addr: args.addr.clone(),
                clients: args.clients,
                workers: args.workers,
                serve_mode: args.serve_mode.clone(),
                shutdown: args.shutdown,
                cache_mb: args.cache_mb,
                repeat_ratio: args.repeat_ratio,
                pipeline: args.pipeline,
                expect_cache_hits: args.expect_cache_hits,
                video: args.video,
                change_rate: args.change_rate,
                addr_file: args.addr_file.clone(),
                cache_persist: args.cache_persist.clone(),
                fleet: args.fleet.clone(),
                kill_one: args.kill_one,
                retries: args.retries,
            };
            all.push_str(&run_table3(&quick, &engine));
            all.push('\n');
            all.push_str(&figures::fig1_3_text());
            all.push('\n');
            all.push_str(&figures::fig4_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig5_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig6_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig7_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig8_9_report(&engine, false, out, 12));
            all.push('\n');
            all.push_str(&figures::fig8_9_report(&engine, true, out, 12));
            all.push('\n');
            all.push_str(&figures::fig10_report(&engine, 12));
            all.push('\n');
            all.push_str(&throughput::throughput_report(
                &engine,
                &ThroughputConfig {
                    images: args.images.min(16),
                    batch: args.batch.min(8),
                    image_size: args.size.min(96),
                    seed: args.seed,
                    classifier: classifier.clone(),
                    tile: args.tile.clone(),
                    cache_mb: 0,
                    verify: args.verify,
                    ..ThroughputConfig::default()
                },
            ));
            let untiled = matches!(
                seg_engine::Tiling::from_flag(&args.tile),
                Ok(seg_engine::Tiling::Whole)
            );
            if untiled {
                // `all` always exercises the tiled pipeline path too (with
                // its default-on byte-identity verification), even when the
                // user did not pass --tile.
                all.push('\n');
                all.push_str(&throughput::throughput_report(
                    &engine,
                    &ThroughputConfig {
                        images: args.images.min(16),
                        batch: args.batch.min(8),
                        image_size: args.size.min(96),
                        seed: args.seed,
                        classifier: classifier.clone(),
                        tile: "48x48".to_string(),
                        cache_mb: 0,
                        verify: args.verify,
                        ..ThroughputConfig::default()
                    },
                ));
            }
            // ... and the quantized SIMD classifier (whose default-on
            // verification doubles as the exactness-oracle check), even when
            // the user did not pass --classifier.
            let quantized = matches!(
                seg_engine::ClassifierKind::from_flag(&classifier),
                Ok(kind) if kind.is_quantized()
            );
            if !quantized {
                all.push('\n');
                all.push_str(&throughput::throughput_report(
                    &engine,
                    &ThroughputConfig {
                        images: args.images.min(16),
                        batch: args.batch.min(8),
                        image_size: args.size.min(96),
                        seed: args.seed,
                        classifier: "simd".to_string(),
                        tile: args.tile.clone(),
                        cache_mb: 0,
                        verify: args.verify,
                        ..ThroughputConfig::default()
                    },
                ));
            }
            // ... and the cached per-request serving path (byte-identity
            // verified the same way), even when the user did not pass
            // --cache-mb.
            all.push('\n');
            all.push_str(&throughput::throughput_report(
                &engine,
                &ThroughputConfig {
                    images: args.images.min(16),
                    batch: args.batch.min(8),
                    image_size: args.size.min(96),
                    seed: args.seed,
                    classifier: classifier.clone(),
                    tile: args.tile.clone(),
                    cache_mb: if args.cache_mb > 0 { args.cache_mb } else { 32 },
                    verify: args.verify,
                    ..ThroughputConfig::default()
                },
            ));
            // ... and the streaming-video per-tile delta path (stitched
            // byte-identity verified the same way).
            all.push('\n');
            all.push_str(&throughput::throughput_report(
                &engine,
                &ThroughputConfig {
                    images: args.images.min(8),
                    batch: args.batch.min(4),
                    image_size: args.size.min(128),
                    seed: args.seed,
                    classifier: classifier.clone(),
                    tile: "32x32".to_string(),
                    plan: String::new(),
                    cache_mb: if args.cache_mb > 0 { args.cache_mb } else { 32 },
                    verify: args.verify,
                    video: true,
                    change_rate: 0.25,
                },
            ));
            all
        }
        "" | "help" | "--help" | "-h" => {
            // The classifier set comes from ClassifierKind::FLAG_HELP — the
            // one place the workspace enumerates it — so this usage line can
            // never drift from what `--classifier` actually accepts.
            eprintln!(
                "usage: iqft-experiments <table1|table2|table3|fig1-3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|throughput|serve|loadgen|ping|all> [--out DIR] [--samples N] [--voc N] [--xview N] [--size S] [--seed S] [--backend serial|threads|rayon] [--threads N] [--images N] [--batch B] [--classifier {}] [--tile WxH] [--plan SPEC|auto] [--cache-mb M] [--no-verify] [--addr A] [--addr-file PATH] [--clients C] [--workers W] [--max-queue Q] [--serve-mode threads|evented] [--repeat-ratio R] [--pipeline K] [--expect-cache-hits] [--video] [--change-rate R] [--fleet A,A,...] [--kill-one] [--cache-persist PATH] [--retries N] [--shutdown]",
                seg_engine::ClassifierKind::FLAG_HELP
            );
            return;
        }
        other => {
            eprintln!("unknown subcommand '{other}'; run with --help for usage");
            std::process::exit(2);
        }
    };
    println!("{report}");
}
