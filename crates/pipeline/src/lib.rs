#![warn(missing_docs)]
//! `iqft-pipeline` — a batched, high-throughput segmentation service.
//!
//! PR 1's `SegmentEngine` made a *single* segmentation fast; this crate makes
//! *many* segmentations fast.  A [`SegmentPipeline`] owns an engine plus a
//! pixel classifier and drives whole image streams through three pieces:
//!
//! * [`queue::JobQueue`] — a bounded MPMC work queue with backpressure and
//!   drain-then-stop shutdown; worker threads pull image jobs from it.
//! * [`arena::LabelArena`] — a recycling pool of label buffers, so the
//!   steady-state hot path performs **zero per-image allocations** (the
//!   report's allocation/reuse counters prove it).
//! * [`stats`] — per-batch throughput/latency accounting built on
//!   [`xpar::Progress`], rolled up into a [`PipelineReport`].
//! * [`cache::SegmentCache`] — an opt-in sharded, content-addressed,
//!   byte-budgeted LRU cache of finished segmentations
//!   ([`SegmentPipeline::with_cache`]): repeated images are answered with a
//!   memcpy instead of a classification pass, byte-identically.
//!
//! The pipeline parallelises **across images** by default: each worker
//! segments its image with a serial per-pixel pass, so the output of
//! [`run_batch`] is byte-identical to per-image serial segmentation no
//! matter how many workers run (`tests/engine_determinism.rs` at the
//! workspace root enforces this across backends).  When a stream contains
//! images too large for that to balance — one satellite frame would
//! serialise onto a single worker — configure a
//! [`seg_engine::Tiling::Tiles`] decomposition ([`PipelineConfig::tiling`]):
//! every image then splits into zero-copy tile jobs whose scratch buffers
//! recycle through the same [`LabelArena`], and the stitched output remains
//! byte-identical.  For the steady-state fast path, hand the pipeline an
//! [`iqft_seg::PhaseTable`]: classification collapses to three table lookups
//! per pixel.
//!
//! [`run_batch`]: SegmentPipeline::run_batch
//!
//! # Example
//!
//! ```
//! use imaging::{Rgb, RgbImage};
//! use iqft_pipeline::SegmentPipeline;
//! use iqft_seg::PhaseTable;
//! use seg_engine::SegmentEngine;
//!
//! let images: Vec<RgbImage> = (0..6)
//!     .map(|i| RgbImage::from_fn(32, 24, move |x, y| {
//!         Rgb::new((x * 8) as u8, (y * 10) as u8, (i * 40) as u8)
//!     }))
//!     .collect();
//!
//! let pipeline = SegmentPipeline::new(
//!     SegmentEngine::with_threads(2),
//!     PhaseTable::paper_default(),
//! );
//! // Stream the images in batches of 3, recycling buffers between batches.
//! let report = pipeline.run_stream(&images, 3, |_idx, labels| {
//!     assert_eq!(labels.dimensions(), (32, 24));
//!     pipeline.recycle(labels);
//! });
//! assert_eq!(report.images(), 6);
//! assert_eq!(report.batches.len(), 2);
//! // Steady state reuses the warm buffers instead of allocating.
//! assert!(report.arena_reuses > 0);
//! ```

pub mod arena;
pub mod cache;
pub mod hist;
pub mod queue;
pub mod stats;

pub use arena::LabelArena;
pub use cache::{route_hash, CacheConfig, CacheStats, SegmentCache, SnapshotError, SnapshotStats};
pub use hist::{LatencyHistogram, LatencySummary};
pub use queue::JobQueue;
pub use stats::{BatchStats, PipelineReport};

use imaging::view::{LabelViewMut, TileRect};
use imaging::{LabelMap, PixelClassifier, RgbImage};
use seg_engine::{SegmentEngine, Tiling};
use xpar::Progress;

/// Tuning knobs for a [`SegmentPipeline`].
///
/// The default (all zeros, whole-image work units) derives the worker count
/// from the engine and the queue capacity from the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineConfig {
    /// Worker threads pulling jobs from the queue (0 = the engine's
    /// effective thread count).
    pub workers: usize,
    /// Bounded job-queue capacity (0 = twice the worker count).
    pub queue_capacity: usize,
    /// Work decomposition: [`Tiling::Whole`] enqueues one job per image;
    /// [`Tiling::Tiles`] splits every image into tile jobs, so one oversized
    /// frame no longer serialises onto a single worker.  Tile label buffers
    /// recycle through the same [`LabelArena`] as image buffers, keeping the
    /// steady state allocation-free, and the output stays byte-identical to
    /// whole-image segmentation.
    pub tiling: Tiling,
}

/// Closes the queue if the holding worker unwinds, so the producer cannot
/// block forever on a full queue whose consumers are all dead.
struct CloseOnPanic<'q, T>(&'q JobQueue<T>);

impl<T> Drop for CloseOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// A batched segmentation service: owns a [`SegmentEngine`], a pixel
/// classifier, and a label-buffer arena, and drives image streams through a
/// bounded work queue on a fixed set of worker threads.
///
/// Outputs are byte-identical to per-image serial segmentation for any
/// worker count, because each image is classified independently by a serial
/// per-pixel pass.
#[derive(Debug)]
pub struct SegmentPipeline<C> {
    engine: SegmentEngine,
    classifier: C,
    arena: LabelArena,
    config: PipelineConfig,
    cache: Option<SegmentCache>,
}

impl<C: PixelClassifier + Sync> SegmentPipeline<C> {
    /// Creates a pipeline executing on `engine` with the given per-pixel
    /// `classifier` and default tuning.
    pub fn new(engine: SegmentEngine, classifier: C) -> Self {
        Self {
            engine,
            classifier,
            arena: LabelArena::new(),
            config: PipelineConfig::default(),
            cache: None,
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a content-addressed result cache (see [`cache`]).  `salt`
    /// should identify the segmentation strategy — callers pass the
    /// serialized `SegmentPlan::to_spec()` — so caches built for different
    /// strategies can never alias.  A disabled config
    /// (`capacity_bytes == 0`) leaves the pipeline uncached.
    pub fn with_cache(mut self, config: CacheConfig, salt: &str) -> Self {
        self.cache = config.enabled().then(|| SegmentCache::new(config, salt));
        self
    }

    /// The engine this pipeline was built with.
    pub fn engine(&self) -> SegmentEngine {
        self.engine
    }

    /// The classifier driving per-pixel classification.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// Effective number of worker threads.
    pub fn workers(&self) -> usize {
        if self.config.workers == 0 {
            self.engine.threads()
        } else {
            self.config.workers
        }
    }

    /// Effective job-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        if self.config.queue_capacity == 0 {
            self.workers() * 2
        } else {
            self.config.queue_capacity
        }
    }

    /// The work decomposition jobs are enqueued with.
    pub fn tiling(&self) -> Tiling {
        self.config.tiling
    }

    /// The label-buffer arena (for inspection; see [`LabelArena`]).
    pub fn arena(&self) -> &LabelArena {
        &self.arena
    }

    /// The attached result cache, if any (see [`SegmentPipeline::with_cache`]).
    pub fn cache(&self) -> Option<&SegmentCache> {
        self.cache.as_ref()
    }

    /// Returns a finished label map's buffer to the arena so a later image
    /// can reuse it without allocating.
    pub fn recycle(&self, labels: LabelMap) {
        self.arena.recycle(labels);
    }

    /// Shared single-image wrapper: takes an arena buffer, lets `fill` write
    /// the labels, and shapes the result to `img`'s dimensions.
    fn segment_with<F>(&self, img: &RgbImage, fill: F) -> LabelMap
    where
        F: FnOnce(&mut Vec<u32>),
    {
        let mut buf = self.arena.take();
        fill(&mut buf);
        let (w, h) = img.dimensions();
        LabelMap::from_vec(w, h, buf).expect("label buffer matches image size")
    }

    /// Segments a single image on the pipeline's engine (per-pixel parallel,
    /// arena-backed).  Recycle the result to keep the hot path allocation-free.
    pub fn segment_one(&self, img: &RgbImage) -> LabelMap {
        self.segment_with(img, |buf| {
            self.engine.segment_rgb_into(&self.classifier, img, buf)
        })
    }

    /// Per-request submit/completion entry point for long-lived services.
    ///
    /// Unlike [`SegmentPipeline::run_batch`], which owns a whole batch and a
    /// join barrier, this segments exactly one image synchronously — the
    /// shape a connection-per-client server (`iqft-serve`) needs: each
    /// connection thread submits its request here and the call completes
    /// when the labels are ready.  And unlike [`SegmentPipeline::segment_one`]
    /// it honours the configured [`PipelineConfig::tiling`], so one oversized
    /// frame still fans out across the engine's backend.  The scratch buffer
    /// comes from the shared [`LabelArena`]; recycle the result and the
    /// steady state stays allocation-free across all callers.
    ///
    /// Byte-identical to a serial whole-image pass for any configuration.
    pub fn segment_request(&self, img: &RgbImage) -> LabelMap {
        self.segment_with(img, |buf| match self.config.tiling {
            Tiling::Whole => self.engine.segment_rgb_into(&self.classifier, img, buf),
            Tiling::Tiles { width, height } => {
                self.engine
                    .segment_tiled_into(&self.classifier, img, width, height, buf)
            }
        })
    }

    /// Cache-aware variant of [`SegmentPipeline::segment_request`]: when a
    /// cache is attached (and `bypass` is false) the request is content-
    /// addressed first, and a hit is answered by copying the cached labels
    /// into an arena buffer — no classification at all.  A miss segments as
    /// usual and stores a copy for the next identical request.
    ///
    /// Returns the labels plus whether they came from the cache.  Hit or
    /// miss, the result is byte-identical to [`segment_request`] by
    /// construction: the cache only ever stores this pipeline's own output.
    ///
    /// [`segment_request`]: SegmentPipeline::segment_request
    pub fn segment_request_cached(&self, img: &RgbImage, bypass: bool) -> (LabelMap, bool) {
        let cache = match (&self.cache, bypass) {
            (Some(cache), false) => cache,
            _ => return (self.segment_request(img), false),
        };
        let key = cache.key_for(img);
        if let Some(labels) = cache.lookup(key, &self.arena) {
            return (labels, true);
        }
        let labels = self.segment_request(img);
        cache.insert(key, &labels);
        (labels, false)
    }

    /// Per-tile delta variant of [`SegmentPipeline::segment_request_cached`]
    /// for video-like streams: instead of content-addressing the whole frame
    /// (where one changed pixel forfeits the entire cached result), the frame
    /// is split into tiles — the plan's own tile shape, or
    /// [`Tiling::DEFAULT_DELTA_TILE`]-square tiles for a whole-image plan —
    /// and each tile is content-addressed independently.  Unchanged tiles are
    /// answered by copying their cached labels straight into the stitch
    /// buffer; only tiles whose hash changed are re-classified (and stored
    /// for the next frame).  Frame cost therefore scales with how much of
    /// the frame changed, not with its area.
    ///
    /// Returns `(labels, tiles_hit, tiles_recomputed)`.  Without an attached
    /// cache every tile counts as recomputed and the call is equivalent to
    /// [`SegmentPipeline::segment_request`].
    ///
    /// The stitched output is byte-identical to fresh whole-image
    /// segmentation by construction: each label depends only on its own
    /// pixel (classification is per-pixel), cached tiles hold exactly the
    /// bytes a fresh classification of identical pixel content produces, and
    /// the 128-bit content hash plus the entry dimension check make a
    /// cross-content collision practically impossible.  This is the same
    /// argument that makes tiled execution byte-identical to whole-image
    /// execution, composed with the cache's "only ever stores the pipeline's
    /// own output" invariant.
    pub fn segment_request_delta(&self, img: &RgbImage) -> (LabelMap, u32, u32) {
        let (tile_w, tile_h) = self.config.tiling.delta_shape();
        let Some(cache) = &self.cache else {
            let total = img.tile_rects(tile_w, tile_h).count() as u32;
            return (self.segment_request(img), 0, total);
        };
        let mut hit_tiles = 0u32;
        let mut recomputed_tiles = 0u32;
        let mut scratch: Option<Vec<u32>> = None;
        let labels = self.segment_with(img, |buf| {
            buf.clear();
            buf.resize(img.len(), 0);
            for rect in img.tile_rects(tile_w, tile_h) {
                let view = img.view(rect).expect("tile rects lie inside their image");
                let key = cache.key_for_tile(&view, tile_w, tile_h);
                let mut dest = LabelViewMut::new(buf, img.width(), rect)
                    .expect("tile rects lie inside the label buffer");
                if cache.lookup_tile_into(key, &mut dest) {
                    hit_tiles += 1;
                    continue;
                }
                recomputed_tiles += 1;
                let tile_buf = scratch.get_or_insert_with(|| self.arena.take());
                tile_buf.clear();
                tile_buf.resize(rect.area(), 0);
                let mut out = LabelViewMut::contiguous(tile_buf, rect.width, rect.height)
                    .expect("tile buffer matches tile area");
                self.classifier.classify_rgb_view_into(&view, &mut out);
                LabelViewMut::new(buf, img.width(), rect)
                    .expect("tile rects lie inside the label buffer")
                    .copy_from_tile(tile_buf);
                cache.insert_tile(key, tile_buf, rect.width, rect.height);
            }
        });
        if let Some(tile_buf) = scratch {
            self.arena.put(tile_buf);
        }
        (labels, hit_tiles, recomputed_tiles)
    }

    /// Streams a video-like sequence of `frames` through the per-tile delta
    /// path ([`SegmentPipeline::segment_request_delta`]), batching
    /// `batch_size` consecutive frames per [`BatchStats`] entry so throughput
    /// is comparable with the other stream runners.  The sink receives
    /// `(index, labels, tiles_hit, tiles_recomputed)` and should recycle the
    /// labels.  The returned report carries per-run cache/arena deltas plus
    /// the delta-tile counters.
    pub fn run_stream_deltas<F>(
        &self,
        frames: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap, u32, u32),
    {
        let batch_size = batch_size.max(1);
        let allocations_before = self.arena.allocations();
        let reuses_before = self.arena.reuses();
        let cache_before = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let mut report = PipelineReport {
            workers: self.workers(),
            ..PipelineReport::default()
        };
        let latency = LatencyHistogram::new();
        for (batch_idx, chunk) in frames.chunks(batch_size).enumerate() {
            let offset = batch_idx * batch_size;
            let started = std::time::Instant::now();
            for (i, img) in chunk.iter().enumerate() {
                let op_started = std::time::Instant::now();
                let (labels, hit, recomputed) = self.segment_request_delta(img);
                latency.record(op_started.elapsed());
                report.delta_tiles_hit += hit as usize;
                report.delta_tiles_recomputed += recomputed as usize;
                sink(offset + i, labels, hit, recomputed);
            }
            report.batches.push(BatchStats {
                batch: batch_idx,
                images: chunk.len(),
                pixels: chunk.iter().map(|img| img.len()).sum(),
                elapsed_secs: started.elapsed().as_secs_f64(),
            });
        }
        report.latency = latency.summary();
        report.arena_allocations = self.arena.allocations() - allocations_before;
        report.arena_reuses = self.arena.reuses() - reuses_before;
        report.arena_pooled = self.arena.pooled();
        if let Some(cache) = &self.cache {
            let now = cache.stats();
            report.cache_hits = now.hits - cache_before.hits;
            report.cache_misses = now.misses - cache_before.misses;
            report.cache_evictions = now.evictions - cache_before.evictions;
            report.cache_entries = now.entries;
            report.cache_bytes = now.bytes;
        }
        report
    }

    /// Segments one batch of images through the bounded queue on the
    /// pipeline's worker threads.
    ///
    /// Returns the label maps in input order plus the batch's throughput
    /// stats.  The output is byte-identical to calling
    /// `SegmentEngine::serial().segment_rgb(..)` per image.
    pub fn run_batch(&self, images: &[RgbImage]) -> (Vec<LabelMap>, BatchStats) {
        self.run_batch_indexed(0, images, &LatencyHistogram::new())
    }

    fn run_batch_indexed(
        &self,
        batch: usize,
        images: &[RgbImage],
        latency: &LatencyHistogram,
    ) -> (Vec<LabelMap>, BatchStats) {
        if let Tiling::Tiles { width, height } = self.config.tiling {
            return self.run_batch_tiled(batch, images, width, height, latency);
        }
        let progress = Progress::new(images.len());
        let workers = self.workers();
        let queue: JobQueue<usize> = JobQueue::bounded(self.queue_capacity());
        let serial = SegmentEngine::serial();
        let mut results: Vec<Option<LabelMap>> = Vec::new();
        results.resize_with(images.len(), || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let queue = queue.clone();
                let progress = &progress;
                let arena = &self.arena;
                let classifier = &self.classifier;
                handles.push(scope.spawn(move || {
                    let _guard = CloseOnPanic(&queue);
                    let mut done: Vec<(usize, LabelMap)> = Vec::new();
                    while let Some(idx) = queue.pop() {
                        let img = &images[idx];
                        let started = std::time::Instant::now();
                        let mut buf = arena.take();
                        serial.segment_rgb_into(classifier, img, &mut buf);
                        let (w, h) = img.dimensions();
                        let map =
                            LabelMap::from_vec(w, h, buf).expect("label buffer matches image");
                        latency.record(started.elapsed());
                        done.push((idx, map));
                        progress.inc(1);
                    }
                    done
                }));
            }
            // Feed jobs with backpressure: push blocks while the queue is at
            // capacity, so at most queue_capacity images are in flight ahead
            // of the workers.  A push can only fail if a dying worker closed
            // the queue; stop producing and let the joins below re-raise the
            // worker's panic.
            for idx in 0..images.len() {
                if queue.push(idx).is_err() {
                    break;
                }
            }
            queue.close();
            for handle in handles {
                match handle.join() {
                    Ok(done) => {
                        for (idx, map) in done {
                            results[idx] = Some(map);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let stats = BatchStats {
            batch,
            images: images.len(),
            pixels: images.iter().map(|img| img.len()).sum(),
            elapsed_secs: progress.elapsed_secs(),
        };
        debug_assert!(progress.is_complete());
        let labels = results
            .into_iter()
            .map(|slot| slot.expect("every job produced a label map"))
            .collect();
        (labels, stats)
    }

    /// Tiled variant of [`SegmentPipeline::run_batch_indexed`]: every image
    /// is split into `tile_w × tile_h` tile jobs (edge tiles clamped), so a
    /// single oversized frame fans out across all workers instead of
    /// serialising onto one.
    ///
    /// Each tile job takes a scratch buffer from the [`LabelArena`],
    /// classifies its zero-copy [`imaging::ImageView`], and the buffer goes
    /// straight back to the arena after the stitch — tile buffers and
    /// whole-image buffers recycle through the same pool, so the steady
    /// state stays allocation-free.  Stitching happens in deterministic tile
    /// order and each label depends only on its own pixel, so the output is
    /// byte-identical to the whole-image path for any worker count.
    fn run_batch_tiled(
        &self,
        batch: usize,
        images: &[RgbImage],
        tile_w: usize,
        tile_h: usize,
        latency: &LatencyHistogram,
    ) -> (Vec<LabelMap>, BatchStats) {
        // Jobs are materialised in (image, tile) order, so the grouped
        // assembly below can walk them with a single cursor.
        let jobs: Vec<(usize, TileRect)> = images
            .iter()
            .enumerate()
            .flat_map(|(idx, img)| img.tile_rects(tile_w, tile_h).map(move |rect| (idx, rect)))
            .collect();
        let progress = Progress::new(jobs.len());
        let workers = self.workers();
        let queue: JobQueue<usize> = JobQueue::bounded(self.queue_capacity());
        let mut tiles: Vec<Option<Vec<u32>>> = Vec::new();
        tiles.resize_with(jobs.len(), || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let queue = queue.clone();
                let progress = &progress;
                let arena = &self.arena;
                let classifier = &self.classifier;
                let jobs = &jobs;
                handles.push(scope.spawn(move || {
                    let _guard = CloseOnPanic(&queue);
                    let mut done: Vec<(usize, Vec<u32>)> = Vec::new();
                    while let Some(job) = queue.pop() {
                        let (img_idx, rect) = jobs[job];
                        let started = std::time::Instant::now();
                        let tile = images[img_idx]
                            .view(rect)
                            .expect("tile rects lie inside their image");
                        let mut buf = arena.take();
                        buf.clear();
                        buf.resize(rect.area(), 0);
                        let mut out = LabelViewMut::contiguous(&mut buf, rect.width, rect.height)
                            .expect("tile buffer matches tile area");
                        classifier.classify_rgb_view_into(&tile, &mut out);
                        latency.record(started.elapsed());
                        done.push((job, buf));
                        progress.inc(1);
                    }
                    done
                }));
            }
            for job in 0..jobs.len() {
                if queue.push(job).is_err() {
                    break;
                }
            }
            queue.close();
            for handle in handles {
                match handle.join() {
                    Ok(done) => {
                        for (job, buf) in done {
                            tiles[job] = Some(buf);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        debug_assert!(progress.is_complete());

        // Stitch tiles into per-image label maps, returning every tile
        // buffer to the arena so the next batch reuses it.
        let mut labels = Vec::with_capacity(images.len());
        let mut cursor = 0usize;
        for (idx, img) in images.iter().enumerate() {
            let mut buf = self.arena.take();
            buf.clear();
            buf.resize(img.len(), 0);
            while cursor < jobs.len() && jobs[cursor].0 == idx {
                let rect = jobs[cursor].1;
                let tile = tiles[cursor]
                    .take()
                    .expect("every tile job produced labels");
                LabelViewMut::new(&mut buf, img.width(), rect)
                    .expect("tile rects lie inside the label buffer")
                    .copy_from_tile(&tile);
                self.arena.put(tile);
                cursor += 1;
            }
            let (w, h) = img.dimensions();
            labels.push(LabelMap::from_vec(w, h, buf).expect("label buffer matches image size"));
        }
        // The clock stops only after the stitch: the tile-copy pass is real
        // per-batch work the whole-image path does not pay, and it must not
        // be excluded from tiled throughput/latency figures.
        let stats = BatchStats {
            batch,
            images: images.len(),
            pixels: images.iter().map(|img| img.len()).sum(),
            elapsed_secs: progress.elapsed_secs(),
        };
        (labels, stats)
    }

    /// Streams `images` through the pipeline in batches of `batch_size`,
    /// handing each finished label map (with its global image index, in
    /// order) to `sink`, and returns the aggregated [`PipelineReport`].
    ///
    /// The sink typically consumes the labels and calls
    /// [`SegmentPipeline::recycle`] so subsequent batches reuse the buffers —
    /// that is what makes the steady state allocation-free.
    ///
    /// Each batch runs on a fresh set of scoped worker threads with a join
    /// barrier at the batch boundary; that barrier is what gives the
    /// per-batch latency figures their meaning (and thread spawns are cheap
    /// next to a batch of pixel work).  The arena counters in the returned
    /// report are deltas for *this* run, so repeated `run_stream` calls on
    /// one pipeline each report their own allocation behaviour.
    pub fn run_stream<F>(
        &self,
        images: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap),
    {
        let batch_size = batch_size.max(1);
        let allocations_before = self.arena.allocations();
        let reuses_before = self.arena.reuses();
        let mut report = PipelineReport {
            workers: self.workers(),
            ..PipelineReport::default()
        };
        let latency = LatencyHistogram::new();
        for (batch_idx, chunk) in images.chunks(batch_size).enumerate() {
            let offset = batch_idx * batch_size;
            let (labels, stats) = self.run_batch_indexed(batch_idx, chunk, &latency);
            report.batches.push(stats);
            for (i, map) in labels.into_iter().enumerate() {
                sink(offset + i, map);
            }
        }
        report.latency = latency.summary();
        report.arena_allocations = self.arena.allocations() - allocations_before;
        report.arena_reuses = self.arena.reuses() - reuses_before;
        report.arena_pooled = self.arena.pooled();
        report
    }

    /// Streams `images` through the *per-request* path — the shape a serving
    /// deployment sees: each image goes through
    /// [`SegmentPipeline::segment_request_cached`] (honouring the configured
    /// tiling and the attached cache), so repeated images are answered from
    /// the cache instead of being re-classified.  Parallelism comes from
    /// within each request (the engine's backend plus tiled fan-out), not
    /// from batching across images.
    ///
    /// The sink receives `(index, labels, cache_hit)` and should recycle the
    /// labels like [`SegmentPipeline::run_stream`]'s sink does.  The
    /// returned report carries per-run cache and arena counter deltas;
    /// batches group `batch_size` consecutive requests so throughput is
    /// comparable with the batched path.
    pub fn run_stream_requests<F>(
        &self,
        images: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap, bool),
    {
        let batch_size = batch_size.max(1);
        let allocations_before = self.arena.allocations();
        let reuses_before = self.arena.reuses();
        let cache_before = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let mut report = PipelineReport {
            workers: self.workers(),
            ..PipelineReport::default()
        };
        let latency = LatencyHistogram::new();
        for (batch_idx, chunk) in images.chunks(batch_size).enumerate() {
            let offset = batch_idx * batch_size;
            let started = std::time::Instant::now();
            for (i, img) in chunk.iter().enumerate() {
                let op_started = std::time::Instant::now();
                let (labels, hit) = self.segment_request_cached(img, false);
                latency.record(op_started.elapsed());
                sink(offset + i, labels, hit);
            }
            report.batches.push(BatchStats {
                batch: batch_idx,
                images: chunk.len(),
                pixels: chunk.iter().map(|img| img.len()).sum(),
                elapsed_secs: started.elapsed().as_secs_f64(),
            });
        }
        report.latency = latency.summary();
        report.arena_allocations = self.arena.allocations() - allocations_before;
        report.arena_reuses = self.arena.reuses() - reuses_before;
        report.arena_pooled = self.arena.pooled();
        if let Some(cache) = &self.cache {
            let now = cache.stats();
            report.cache_hits = now.hits - cache_before.hits;
            report.cache_misses = now.misses - cache_before.misses;
            report.cache_evictions = now.evictions - cache_before.evictions;
            report.cache_entries = now.entries;
            report.cache_bytes = now.bytes;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;
    use iqft_seg::{IqftRgbSegmenter, PhaseTable};

    fn test_images(count: usize) -> Vec<RgbImage> {
        (0..count)
            .map(|i| {
                RgbImage::from_fn(23 + i % 5, 17 + i % 3, move |x, y| {
                    Rgb::new((x * 11 + i * 29) as u8, (y * 13) as u8, ((x + y) * 7) as u8)
                })
            })
            .collect()
    }

    #[test]
    fn batch_output_is_byte_identical_to_serial_per_image() {
        let images = test_images(9);
        let exact = IqftRgbSegmenter::paper_default();
        let expected: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&exact, img))
            .collect();
        for workers in [1usize, 2, 4] {
            let pipeline = SegmentPipeline::new(
                SegmentEngine::with_threads(workers),
                IqftRgbSegmenter::paper_default(),
            )
            .with_config(PipelineConfig {
                workers,
                queue_capacity: 2,
                ..PipelineConfig::default()
            });
            let (labels, stats) = pipeline.run_batch(&images);
            assert_eq!(labels, expected, "workers={workers}");
            assert_eq!(stats.images, 9);
            assert_eq!(stats.pixels, images.iter().map(|i| i.len()).sum::<usize>());
        }
    }

    #[test]
    fn phase_table_fast_path_matches_exact_through_the_pipeline() {
        let images = test_images(6);
        let exact_pipe = SegmentPipeline::new(
            SegmentEngine::with_threads(2),
            IqftRgbSegmenter::paper_default(),
        );
        let table_pipe =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default());
        let (exact_labels, _) = exact_pipe.run_batch(&images);
        let (table_labels, _) = table_pipe.run_batch(&images);
        assert_eq!(exact_labels, table_labels);
    }

    #[test]
    fn stream_recycling_makes_steady_state_allocation_free() {
        let images: Vec<RgbImage> = (0..12)
            .map(|i| {
                RgbImage::from_fn(32, 32, move |x, y| {
                    Rgb::new((x * 8) as u8, (y * 8) as u8, (i * 20) as u8)
                })
            })
            .collect();
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                .with_config(PipelineConfig {
                    workers: 2,
                    queue_capacity: 2,
                    ..PipelineConfig::default()
                });
        let mut seen = Vec::new();
        let report = pipeline.run_stream(&images, 4, |idx, labels| {
            seen.push(idx);
            pipeline.recycle(labels);
        });
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(report.images(), 12);
        assert_eq!(report.batches.len(), 3);
        assert_eq!(report.workers, 2);
        // Per-op service latency was recorded for every image.
        assert_eq!(report.latency.count, 12, "{report:?}");
        assert!(report.latency.p50_ns <= report.latency.p99_ns);
        assert!(report.latency.p999_ns <= report.latency.max_ns);
        // Every take after the warm-up buffers exist is served from the pool:
        // allocations are bounded by the in-flight image count, not by the
        // stream length.
        assert!(report.arena_allocations <= 8, "{report:?}");
        assert_eq!(
            report.arena_allocations + report.arena_reuses,
            12,
            "every image took exactly one buffer"
        );
        assert!(report.arena_reuses >= 4, "{report:?}");
    }

    #[test]
    fn segment_one_matches_engine_and_recycles() {
        let img = &test_images(1)[0];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        let labels = pipeline.segment_one(img);
        assert_eq!(
            labels,
            SegmentEngine::serial().segment_rgb(pipeline.classifier(), img)
        );
        pipeline.recycle(labels);
        assert_eq!(pipeline.arena().pooled(), 1);
        let again = pipeline.segment_one(img);
        assert_eq!(pipeline.arena().reuses(), 1);
        drop(again);
    }

    #[test]
    fn segment_request_honours_tiling_and_recycles_through_the_arena() {
        let img = &test_images(1)[0];
        let expected = SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img);
        for tiling in [
            seg_engine::Tiling::Whole,
            seg_engine::Tiling::Tiles {
                width: 8,
                height: 8,
            },
        ] {
            let pipeline =
                SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                    .with_config(PipelineConfig {
                        tiling,
                        ..PipelineConfig::default()
                    });
            let labels = pipeline.segment_request(img);
            assert_eq!(labels, expected, "{tiling:?}");
            pipeline.recycle(labels);
            let again = pipeline.segment_request(img);
            assert_eq!(again, expected, "{tiling:?} (recycled)");
            assert!(pipeline.arena().reuses() >= 1, "{tiling:?}");
        }
    }

    #[test]
    #[should_panic(expected = "classifier exploded")]
    fn worker_panic_propagates_instead_of_deadlocking_the_producer() {
        // A classifier that dies on the very first pixel, with a single
        // worker and a queue smaller than the image count: without the
        // close-on-panic guard the producer would block forever on a full
        // queue with no consumer left.
        let bomb = |_p: Rgb<u8>| -> u32 { panic!("classifier exploded") };
        let pipeline =
            SegmentPipeline::new(SegmentEngine::serial(), bomb).with_config(PipelineConfig {
                workers: 1,
                queue_capacity: 1,
                ..PipelineConfig::default()
            });
        let images = test_images(8);
        let _ = pipeline.run_batch(&images);
    }

    #[test]
    fn repeated_streams_report_per_run_arena_deltas() {
        let images = test_images(6);
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                .with_config(PipelineConfig {
                    workers: 2,
                    queue_capacity: 2,
                    ..PipelineConfig::default()
                });
        let first = pipeline.run_stream(&images, 3, |_, labels| pipeline.recycle(labels));
        let second = pipeline.run_stream(&images, 3, |_, labels| pipeline.recycle(labels));
        assert_eq!(first.arena_allocations + first.arena_reuses, 6);
        // The second run starts with a warm pool: every take is a reuse and
        // the counters do not accumulate across runs.
        assert_eq!(second.arena_allocations, 0, "{second:?}");
        assert_eq!(second.arena_reuses, 6, "{second:?}");
        assert_eq!(second.arena_pooled, pipeline.arena().pooled());
    }

    #[test]
    fn tiled_batches_are_byte_identical_to_whole_image_batches() {
        let images = test_images(7);
        let reference: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img))
            .collect();
        for workers in [1usize, 2, 4] {
            for (tw, th) in [(1usize, 1usize), (7, 3), (64, 64)] {
                let pipeline = SegmentPipeline::new(
                    SegmentEngine::with_threads(workers),
                    PhaseTable::paper_default(),
                )
                .with_config(PipelineConfig {
                    workers,
                    queue_capacity: 2,
                    tiling: seg_engine::Tiling::Tiles {
                        width: tw,
                        height: th,
                    },
                });
                assert_eq!(
                    pipeline.tiling(),
                    seg_engine::Tiling::Tiles {
                        width: tw,
                        height: th
                    }
                );
                let (labels, stats) = pipeline.run_batch(&images);
                assert_eq!(labels, reference, "workers={workers} tile={tw}x{th}");
                assert_eq!(stats.images, 7);
                assert_eq!(stats.pixels, images.iter().map(|i| i.len()).sum::<usize>());
            }
        }
    }

    #[test]
    fn tiled_streams_recycle_tile_buffers_through_the_arena() {
        let images: Vec<RgbImage> = (0..8)
            .map(|i| {
                RgbImage::from_fn(48, 32, move |x, y| {
                    Rgb::new((x * 5) as u8, (y * 7) as u8, (i * 31) as u8)
                })
            })
            .collect();
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                .with_config(PipelineConfig {
                    workers: 2,
                    queue_capacity: 2,
                    tiling: seg_engine::Tiling::Tiles {
                        width: 16,
                        height: 16,
                    },
                });
        let first = pipeline.run_stream(&images, 4, |_, labels| pipeline.recycle(labels));
        assert_eq!(first.images(), 8);
        // Warm pool: the second stream takes every tile and image buffer from
        // the arena without a single fresh allocation.
        let second = pipeline.run_stream(&images, 4, |_, labels| pipeline.recycle(labels));
        assert_eq!(second.arena_allocations, 0, "{second:?}");
        assert!(second.arena_reuses > 0, "{second:?}");
    }

    #[test]
    fn cached_requests_are_byte_identical_to_fresh_segmentation() {
        let images = test_images(4);
        let expected: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img))
            .collect();
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(
                CacheConfig::with_capacity_mb(4),
                "classifier=table;tile=off;backend=serial",
            );
        // First pass: all misses, results stored.
        for (img, expected) in images.iter().zip(&expected) {
            let (labels, hit) = pipeline.segment_request_cached(img, false);
            assert!(!hit);
            assert_eq!(&labels, expected);
            pipeline.recycle(labels);
        }
        // Second pass: all hits, byte-identical to the fresh pass.
        for (img, expected) in images.iter().zip(&expected) {
            let (labels, hit) = pipeline.segment_request_cached(img, false);
            assert!(hit);
            assert_eq!(&labels, expected);
            pipeline.recycle(labels);
        }
        // Bypass skips the cache but still answers identically.
        let (labels, hit) = pipeline.segment_request_cached(&images[0], true);
        assert!(!hit);
        assert_eq!(labels, expected[0]);
        let stats = pipeline.cache().expect("cache attached").stats();
        assert_eq!((stats.hits, stats.misses), (4, 4), "{stats:?}");
    }

    #[test]
    fn uncached_pipeline_reports_misses_as_fresh_segmentations() {
        let img = &test_images(1)[0];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        assert!(pipeline.cache().is_none());
        let (labels, hit) = pipeline.segment_request_cached(img, false);
        assert!(!hit);
        assert_eq!(labels, pipeline.segment_request(img));
        // A disabled config is a no-op.
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(CacheConfig::default(), "");
        assert!(pipeline.cache().is_none());
    }

    #[test]
    fn request_streams_report_cache_and_arena_deltas() {
        let unique = test_images(3);
        // A repeated-traffic stream: each unique image appears three times.
        let stream: Vec<RgbImage> = (0..9).map(|i| unique[i % 3].clone()).collect();
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(
                CacheConfig::with_capacity_mb(4),
                "classifier=table;tile=off;backend=serial",
            );
        let mut hits_seen = 0usize;
        let report = pipeline.run_stream_requests(&stream, 3, |_, labels, hit| {
            hits_seen += usize::from(hit);
            pipeline.recycle(labels);
        });
        assert_eq!(report.images(), 9);
        assert_eq!(report.batches.len(), 3);
        assert_eq!(report.latency.count, 9, "one latency sample per request");
        assert_eq!(report.cache_misses, 3, "{report:?}");
        assert_eq!(report.cache_hits, 6, "{report:?}");
        assert_eq!(hits_seen, 6);
        assert_eq!(report.cache_entries, 3);
        assert!(report.cache_bytes > 0);
        // A second run is all hits and reports its own deltas.
        let second = pipeline.run_stream_requests(&stream, 3, |_, labels, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(second.cache_hits, 9, "{second:?}");
        assert_eq!(second.cache_misses, 0, "{second:?}");
        assert_eq!(second.arena_allocations, 0, "warm arena: {second:?}");
    }

    #[test]
    fn delta_requests_are_byte_identical_and_reuse_unchanged_tiles() {
        let base = RgbImage::from_fn(53, 37, |x, y| {
            Rgb::new((x * 3) as u8, (y * 5) as u8, ((x ^ y) * 7) as u8)
        });
        // Frame 2 differs from frame 1 in a single pixel.
        let mut changed = base.clone();
        changed.set(40, 30, Rgb::new(200, 10, 10));
        let exact = IqftRgbSegmenter::paper_default();
        for tiling in [
            seg_engine::Tiling::Whole,
            seg_engine::Tiling::Tiles {
                width: 16,
                height: 16,
            },
            seg_engine::Tiling::Tiles {
                width: 53,
                height: 37,
            },
        ] {
            let pipeline =
                SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
                    .with_config(PipelineConfig {
                        tiling,
                        ..PipelineConfig::default()
                    })
                    .with_cache(CacheConfig::with_capacity_mb(4), "delta-test");
            let (tw, th) = tiling.delta_shape();
            let total = base.tile_rects(tw, th).count() as u32;
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&base);
            assert_eq!(
                labels,
                SegmentEngine::serial().segment_rgb(&exact, &base),
                "{tiling:?} cold frame"
            );
            assert_eq!((hit, recomputed), (0, total), "{tiling:?} cold frame");
            pipeline.recycle(labels);
            // The identical frame again: every tile hits.
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&base);
            assert_eq!(labels, SegmentEngine::serial().segment_rgb(&exact, &base));
            assert_eq!((hit, recomputed), (total, 0), "{tiling:?} repeat frame");
            pipeline.recycle(labels);
            // One changed pixel: exactly one tile recomputes, the rest stitch
            // from cache, and the output is still byte-identical to fresh.
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&changed);
            assert_eq!(
                labels,
                SegmentEngine::serial().segment_rgb(&exact, &changed),
                "{tiling:?} delta frame"
            );
            assert_eq!((hit, recomputed), (total - 1, 1), "{tiling:?} delta frame");
            pipeline.recycle(labels);
        }
    }

    #[test]
    fn delta_without_a_cache_recomputes_everything_but_stays_correct() {
        let img = &test_images(1)[0];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        let (labels, hit, recomputed) = pipeline.segment_request_delta(img);
        assert_eq!(labels, pipeline.segment_request(img));
        assert_eq!(hit, 0);
        let (tw, th) = pipeline.tiling().delta_shape();
        assert_eq!(recomputed as usize, img.tile_rects(tw, th).count());
    }

    #[test]
    fn delta_streams_report_tile_counters_and_recycle_buffers() {
        // A 3-frame "video": frame 0, an identical frame, then one changed
        // tile.
        let base = RgbImage::from_fn(64, 48, |x, y| Rgb::new(x as u8, y as u8, 0));
        let mut moved = base.clone();
        moved.set(5, 5, Rgb::new(255, 255, 255));
        let frames = vec![base.clone(), base.clone(), moved];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_config(PipelineConfig {
                tiling: seg_engine::Tiling::Tiles {
                    width: 16,
                    height: 16,
                },
                ..PipelineConfig::default()
            })
            .with_cache(CacheConfig::with_capacity_mb(4), "delta-stream-test");
        let tiles_per_frame = base.tile_rects(16, 16).count();
        let report = pipeline.run_stream_deltas(&frames, 2, |_, labels, _, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(report.images(), 3);
        assert_eq!(
            report.delta_tiles_hit + report.delta_tiles_recomputed,
            tiles_per_frame * 3
        );
        assert_eq!(
            report.delta_tiles_recomputed,
            tiles_per_frame + 1,
            "first frame recomputes all, third frame exactly one: {report:?}"
        );
        assert!(report.delta_tile_hit_ratio() > 0.5, "{report:?}");
        assert_eq!(
            (report.cache_hits, report.cache_misses),
            (0, 0),
            "tile traffic stays out of the whole-image counters: {report:?}"
        );
        // A second pass over the same frames is all hits and allocation-free.
        let second = pipeline.run_stream_deltas(&frames, 2, |_, labels, _, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(second.delta_tiles_recomputed, 0, "{second:?}");
        assert_eq!(second.arena_allocations, 0, "warm arena: {second:?}");
    }

    #[test]
    fn empty_batch_and_defaults_are_handled() {
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(3), PhaseTable::paper_default());
        assert_eq!(pipeline.workers(), 3);
        assert_eq!(pipeline.queue_capacity(), 6);
        assert_eq!(pipeline.engine(), SegmentEngine::with_threads(3));
        let (labels, stats) = pipeline.run_batch(&[]);
        assert!(labels.is_empty());
        assert_eq!(stats.images, 0);
        let report = pipeline.run_stream(&[], 4, |_, _| panic!("no images"));
        assert_eq!(report.images(), 0);
    }
}
