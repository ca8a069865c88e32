//! The traced half: each layer's public calls timed from outside, on the
//! workload's own images, while no wire phase runs.

use crate::loadgen::{duration_ns, RequestOp};
use crate::report::{median, median_us};
use crate::workload::{Inputs, Req, CACHE_MB, OFFLINE_BATCH, VIDEO_FRAMES};
use imaging::{LabelMap, PixelClassifier, Rgb, RgbImage};
use iqft_pipeline::{CacheConfig, PipelineConfig, SegmentPipeline};
use iqft_seg::IqftClassifier;
use iqft_serve::protocol::{self, FrameDecoder, Message};
use seg_engine::{SegmentEngine, SegmentPlan};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of every per-image measurement.
const REPS: usize = 5;
/// Distinct images each measurement runs over (video: frames, in order).
const SAMPLE: usize = 24;

/// Per-layer timings of one workload's images under one plan.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Pixels per image.
    pub pixels: f64,
    /// Kernel: `classify_rgb_slice_into`, nanoseconds per pixel (median).
    pub classify_ns_per_px: f64,
    /// Pixels the kernel sent to its exact fallback, per pixel classified.
    pub fallback_px_ratio: f64,
    /// Engine: `SegmentPlan::segment_rgb_into`, µs per image (median).
    pub segment_us: f64,
    /// Pipeline: `segment_request_cached` on a miss, µs (median).
    pub miss_us: f64,
    /// Pipeline: `segment_request_cached` on a hit, µs (median).
    pub hit_us: f64,
    /// Pipeline: `SegmentCache::key_for`, µs (median).
    pub key_hash_us: f64,
    /// Pipeline: `segment_request_delta` over the images in order, µs.
    pub delta_us: f64,
    /// Pipeline: one `run_batch` of `OFFLINE_BATCH` images, ms (median).
    pub batch_ms: f64,
    /// The same images one after another on the serial engine, ms.
    pub serial_batch_ms: f64,
    /// Protocol: request encode plus reply encode, µs (median).
    pub encode_us: f64,
    /// Protocol: request decode plus reply decode, µs (median).
    pub decode_us: f64,
    /// Outputs of the layer calls that differ from the oracle.
    pub mismatches: u64,
    /// Outputs of the layer calls that were checked.
    pub checked: u64,
}

impl Layers {
    /// Kernel time for one whole image, µs.
    pub fn kernel_us(&self) -> f64 {
        self.classify_ns_per_px * self.pixels / 1e3
    }

    /// Engine time not spent in the kernel: backend fan-out and joins.
    pub fn dispatch_us(&self) -> f64 {
        self.segment_us - self.kernel_us()
    }
}

/// The pipeline a daemon builds for `plan` (mirrors `Server::bind`).
fn served_pipeline(plan: SegmentPlan) -> SegmentPipeline<IqftClassifier> {
    SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
        .with_config(PipelineConfig {
            tiling: plan.tiling(),
            ..PipelineConfig::default()
        })
        .with_cache(CacheConfig::with_capacity_mb(CACHE_MB), &plan.to_spec())
}

/// The workload's own images: distinct requests of connection 0, in the
/// order the load generator sends them.
fn sample(inputs: &Inputs) -> Vec<(Req, RgbImage)> {
    let wanted = if inputs.layout.workload == crate::workload::Workload::VideoDelta {
        2 * VIDEO_FRAMES
    } else {
        SAMPLE
    };
    let mut seen = Vec::new();
    let mut scratch = RgbImage::new(1, 1, Rgb::BLACK);
    for k in 0..inputs.layout.working_set() as u64 {
        let req = inputs.layout.request(0, k);
        if !seen.iter().any(|(r, _)| *r == req) {
            seen.push((req, inputs.image(req, &mut scratch).clone()));
        }
        if seen.len() == wanted {
            break;
        }
    }
    seen
}

/// Times every layer on the workload's images under `plan`.
pub fn measure(inputs: &Inputs, plan: SegmentPlan, op: RequestOp) -> Layers {
    let images = sample(inputs);
    let pixels = images[0].1.len();
    let mut layers = Layers {
        pixels: pixels as f64,
        ..Layers::default()
    };
    let check = |layers: &mut Layers, req: Req, labels: &[u32]| {
        layers.checked += 1;
        layers.mismatches += u64::from(!inputs.check(req, labels));
    };

    // Kernel.
    let classifier = IqftClassifier::for_plan(&plan);
    let mut out = vec![0u32; pixels];
    let mut per_px = Vec::new();
    for _ in 0..REPS {
        for (req, img) in &images {
            let t = Instant::now();
            classifier.classify_rgb_slice_into(black_box(img.as_slice()), &mut out);
            per_px.push(duration_ns(t.elapsed()) * 1000 / pixels as u64);
            check(&mut layers, *req, &out);
        }
    }
    layers.classify_ns_per_px = median(&per_px) as f64 / 1e3;
    layers.fallback_px_ratio =
        classifier.quant_fallback_pixels() as f64 / (REPS * images.len() * pixels) as f64;

    // Engine.
    let mut labels = Vec::new();
    let mut times = Vec::new();
    for _ in 0..REPS {
        for (req, img) in &images {
            let t = Instant::now();
            plan.segment_rgb_into(&classifier, black_box(img), &mut labels);
            times.push(duration_ns(t.elapsed()));
            check(&mut layers, *req, &labels);
        }
    }
    layers.segment_us = median_us(&times);

    // Pipeline: cold then warm passes of the cached path, on fresh caches.
    let (mut miss, mut hit, mut hash) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let pipeline = served_pipeline(plan);
        for pass in [&mut miss, &mut hit] {
            for (req, img) in &images {
                let t = Instant::now();
                let (labels, _) = pipeline.segment_request_cached(black_box(img), false);
                pass.push(duration_ns(t.elapsed()));
                check(&mut layers, *req, labels.as_slice());
                pipeline.recycle(labels);
            }
        }
        let cache = pipeline.cache().expect("served pipeline has a cache");
        for (_, img) in &images {
            let t = Instant::now();
            black_box(cache.key_for(black_box(img)));
            hash.push(duration_ns(t.elapsed()));
        }
    }
    layers.miss_us = median_us(&miss);
    layers.hit_us = median_us(&hit);
    layers.key_hash_us = median_us(&hash);

    // Pipeline: the delta path over the images in sending order.
    let mut delta = Vec::new();
    for _ in 0..REPS {
        let pipeline = served_pipeline(plan);
        for (req, img) in &images {
            let t = Instant::now();
            let (labels, _, _) = pipeline.segment_request_delta(black_box(img));
            delta.push(duration_ns(t.elapsed()));
            check(&mut layers, *req, labels.as_slice());
            pipeline.recycle(labels);
        }
    }
    layers.delta_us = median_us(&delta);

    // Pipeline: run_batch against the serial engine on the same images.
    let batch_pipeline = SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
        .with_config(PipelineConfig {
            tiling: plan.tiling(),
            ..PipelineConfig::default()
        });
    let batches: Vec<(Vec<Req>, Vec<RgbImage>)> = images
        .chunks_exact(OFFLINE_BATCH)
        .map(|chunk| chunk.iter().cloned().unzip())
        .collect();
    let (mut batch, mut serial) = (Vec::new(), Vec::new());
    let serial_engine = SegmentEngine::serial();
    for _ in 0..REPS {
        for (reqs, imgs) in &batches {
            let t = Instant::now();
            let (maps, _) = batch_pipeline.run_batch(black_box(imgs));
            batch.push(duration_ns(t.elapsed()));
            for (req, map) in reqs.iter().zip(maps) {
                check(&mut layers, *req, map.as_slice());
                batch_pipeline.recycle(map);
            }
            let t = Instant::now();
            for img in imgs {
                serial_engine.segment_rgb_into(&classifier, black_box(img), &mut labels);
            }
            serial.push(duration_ns(t.elapsed()));
        }
    }
    layers.batch_ms = median(&batch) as f64 / 1e6;
    layers.serial_batch_ms = median(&serial) as f64 / 1e6;

    // Protocol: both directions of one request, encoded and decoded.
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (id, (req, img)) in images.iter().enumerate() {
            let map =
                LabelMap::from_vec(img.width(), img.height(), inputs.oracle[req.base].clone())
                    .expect("oracle matches the image");
            let reply_message = match op {
                RequestOp::Cached => Message::SegmentCachedReply {
                    labels: map,
                    cached: false,
                },
                RequestOp::Delta => Message::SegmentDeltaReply {
                    labels: map,
                    tiles_hit: 0,
                    tiles_recomputed: 0,
                },
            };
            let id = id as u64;
            let t = Instant::now();
            let request = match op {
                RequestOp::Cached => protocol::encode_segment_cached(id, black_box(img), false),
                RequestOp::Delta => protocol::encode_segment_delta(id, black_box(img)),
            }
            .expect("request within protocol limits");
            let reply = protocol::encode_message(id, black_box(&reply_message))
                .expect("reply within protocol limits");
            encode.push(duration_ns(t.elapsed()));
            let t = Instant::now();
            let decoded_request = decode_one(&request);
            let decoded_reply = decode_one(&reply);
            decode.push(duration_ns(t.elapsed()));
            layers.checked += 1;
            let request_ok = matches!(&decoded_request, Message::SegmentCached { image, .. }
                | Message::SegmentDelta { image } if image == img);
            layers.mismatches += u64::from(!request_ok || decoded_reply != reply_message);
        }
    }
    layers.encode_us = median_us(&encode);
    layers.decode_us = median_us(&decode);
    layers
}

/// Decodes one whole frame with the incremental decoder.
fn decode_one(bytes: &[u8]) -> Message {
    let mut decoder = FrameDecoder::new();
    let mut offset = 0;
    loop {
        let (used, event) = decoder.feed(&bytes[offset..]);
        offset += used;
        if let Some(frame) = event {
            return frame
                .expect("own frame decodes")
                .message()
                .expect("own payload decodes");
        }
        assert!(
            used > 0 && offset < bytes.len(),
            "a whole frame yields an event"
        );
    }
}
