//! Property-based integration tests on the core invariants of the
//! reproduction: probability conservation, quantum/classical agreement,
//! θ ↔ threshold consistency, metric bounds and parallel determinism.
//!
//! The offline build environment has no `proptest`, so the properties run on
//! a small deterministic harness: each property is checked against `CASES`
//! pseudo-random inputs drawn from a seeded generator, and failures report
//! the case index so the exact input can be replayed.

use imaging::{LabelMap, Rgb, RgbImage, Segmenter, VOID_LABEL};
use iqft_seg::rgb::NUM_STATES;
use iqft_seg::{IqftGraySegmenter, IqftRgbSegmenter, ThetaParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;
use xpar::Backend;

const CASES: usize = 64;

/// Runs `property` against `CASES` deterministic pseudo-random inputs.
fn check<F: FnMut(usize, &mut ChaCha8Rng)>(seed: u64, mut property: F) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// Algorithm 1's per-pixel output is always a probability distribution whose
/// arg-max is a valid label, for any angles in the paper's range.
#[test]
fn rgb_probabilities_are_a_distribution() {
    check(101, |case, rng| {
        let pixel = Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>());
        let seg = IqftRgbSegmenter::new(ThetaParams::new(
            rng.gen_range(0.0..2.0 * PI),
            rng.gen_range(0.0..2.0 * PI),
            rng.gen_range(0.0..2.0 * PI),
        ));
        let probs = seg.probabilities(pixel);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
        assert!(
            probs.iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)),
            "case {case}: {probs:?}"
        );
        assert!((seg.classify(pixel) as usize) < NUM_STATES, "case {case}");
    });
}

/// The fast factorised probability path always agrees with the explicit
/// matrix multiplication of Algorithm 1 line 4.
#[test]
fn fast_path_equals_matrix_path() {
    check(102, |case, rng| {
        let (gamma, beta, alpha) = (
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-10.0..10.0),
        );
        let seg = IqftRgbSegmenter::paper_default();
        let fast = seg.probabilities_from_phases(gamma, beta, alpha);
        let matrix = seg.probabilities_via_matrix(gamma, beta, alpha);
        for (a, b) in fast.iter().zip(matrix.iter()) {
            assert!((a - b).abs() < 1e-9, "case {case}: {a} vs {b}");
        }
    });
}

/// The classical pipeline agrees with the state-vector simulator for any
/// pixel and any uniform θ.
#[test]
fn classical_matches_quantum() {
    check(103, |case, rng| {
        let pixel = Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>());
        let theta = rng.gen_range(0.1..2.0 * PI);
        let seg = IqftRgbSegmenter::new(ThetaParams::uniform(theta));
        let [gamma, beta, alpha] = seg.phases(pixel);
        let mut state = quantum::phase_product_state(&[alpha, beta, gamma]);
        quantum::Circuit::iqft(3).apply(&mut state);
        let classical = seg.probabilities(pixel);
        for (c, q) in classical.iter().zip(state.probabilities()) {
            assert!((c - q).abs() < 1e-9, "case {case}: {c} vs {q}");
        }
    });
}

/// The grayscale class probabilities of eq. 14 always sum to one, and the
/// decision flips exactly at the eq. 15 thresholds.
#[test]
fn gray_probabilities_and_thresholds_are_consistent() {
    check(104, |case, rng| {
        let intensity = rng.gen_range(0.0..=1.0);
        let theta = rng.gen_range(0.2..4.0 * PI);
        let seg = IqftGraySegmenter::new(theta);
        let (p1, p2) = seg.probabilities(intensity);
        assert!((p1 + p2 - 1.0).abs() < 1e-12, "case {case}");
        let label = seg.classify_intensity(intensity);
        // The label equals the parity of the number of thresholds below the
        // intensity (bands alternate), except exactly at a boundary.
        let thresholds = seg.thresholds();
        let at_boundary = thresholds.iter().any(|t| (t - intensity).abs() < 1e-9);
        if !at_boundary {
            let bands_below = thresholds.iter().filter(|&&t| intensity > t).count() as u32;
            assert_eq!(label, bands_below % 2, "case {case}");
        }
    });
}

/// θ → threshold → θ round-trips through eq. 15 (primary branch).
#[test]
fn theta_threshold_roundtrip() {
    check(105, |case, rng| {
        let threshold = rng.gen_range(0.05..=1.0);
        let theta = iqft_seg::theta::theta_for_threshold(threshold);
        let back = iqft_seg::theta::primary_threshold(theta).unwrap();
        assert!((back - threshold).abs() < 1e-9, "case {case}: {back}");
    });
}

fn random_binary_map(rng: &mut ChaCha8Rng) -> LabelMap {
    let bits: Vec<u32> = (0..36).map(|_| rng.gen_range(0u32..2)).collect();
    LabelMap::from_vec(6, 6, bits).unwrap()
}

/// mIOU is bounded, symmetric for binary maps, and 1 exactly on equality.
#[test]
fn miou_bounds_and_symmetry() {
    check(106, |case, rng| {
        let a = random_binary_map(rng);
        let b = random_binary_map(rng);
        let ab = metrics::mean_iou(&a, &b);
        let ba = metrics::mean_iou(&b, &a);
        assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
        assert!((ab - ba).abs() < 1e-12, "case {case}");
        assert_eq!(metrics::mean_iou(&a, &a), 1.0, "case {case}");
    });
}

/// Void pixels never change the score, wherever they are.
#[test]
fn void_pixels_are_ignored() {
    check(107, |case, rng| {
        let void_positions: Vec<usize> = (0..rng.gen_range(0usize..10))
            .map(|_| rng.gen_range(0usize..36))
            .collect();
        let gt_bits: Vec<u32> = (0..36).map(|i| u32::from(i % 3 == 0)).collect();
        let pred_bits: Vec<u32> = (0..36).map(|i| u32::from(i % 4 == 0)).collect();
        let gt = LabelMap::from_vec(6, 6, gt_bits.clone()).unwrap();
        let pred = LabelMap::from_vec(6, 6, pred_bits).unwrap();
        let baseline = metrics::mean_iou(&pred, &gt);
        // Flipping the prediction only under void pixels never changes the
        // score.
        let mut gt_void = gt.clone();
        for &pos in &void_positions {
            gt_void.as_mut_slice()[pos] = VOID_LABEL;
        }
        let mut pred_flipped = pred.clone();
        for &pos in &void_positions {
            pred_flipped.as_mut_slice()[pos] = 1 - pred_flipped.as_slice()[pos];
        }
        assert_eq!(
            metrics::mean_iou(&pred, &gt_void),
            metrics::mean_iou(&pred_flipped, &gt_void),
            "case {case}"
        );
        // And without void pixels the baseline is reproducible.
        assert_eq!(metrics::mean_iou(&pred, &gt), baseline, "case {case}");
    });
}

/// Whole-image segmentation is independent of the parallel backend.
#[test]
fn segmentation_is_deterministic_across_backends() {
    check(108, |case, rng| {
        let seed = rng.gen_range(0u64..1000);
        let img = RgbImage::from_fn(23, 11, |x, y| {
            let v = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((x * 31 + y * 17) as u64);
            Rgb::new(
                (v % 256) as u8,
                ((v >> 8) % 256) as u8,
                ((v >> 16) % 256) as u8,
            )
        });
        let serial = IqftRgbSegmenter::paper_default()
            .with_backend(Backend::Serial)
            .segment_rgb(&img);
        let threaded = IqftRgbSegmenter::paper_default()
            .with_backend(Backend::Threads(3))
            .segment_rgb(&img);
        let rayon = IqftRgbSegmenter::paper_default()
            .with_backend(Backend::Rayon)
            .segment_rgb(&img);
        assert_eq!(serial, threaded, "case {case}");
        assert_eq!(serial, rayon, "case {case}");
    });
}

/// A stats snapshot survives the wire round-trip (`to_text` → `from_text`)
/// exactly, for arbitrary counter values — including unknown forward-compat
/// keys, which must land in `extra` and re-encode without loss.
#[test]
fn stats_snapshot_round_trips_through_its_wire_text() {
    use iqft_serve::StatsSnapshot;
    check(109, |case, rng| {
        let mut snapshot = StatsSnapshot {
            plan: format!(
                "classifier=table;tile={}x{};backend=threads:{}",
                rng.gen_range(8usize..128),
                rng.gen_range(8usize..128),
                rng.gen_range(1usize..16),
            ),
            serve_mode: if rng.gen::<bool>() {
                "threads"
            } else {
                "evented"
            }
            .to_string(),
            // `to_text` renders floats with three decimals, so only
            // millis-grained values round-trip bit-exactly.
            uptime_secs: rng.gen_range(0u64..10_000_000) as f64 / 1000.0,
            connections_total: rng.gen_range(0usize..1 << 20),
            connections_open: rng.gen_range(0usize..1 << 10),
            requests_total: rng.gen_range(0usize..1 << 30),
            segment_requests: rng.gen_range(0usize..1 << 30),
            pixels_total: rng.gen::<u64>() >> 16,
            mpix_per_sec: rng.gen_range(0u64..100_000_000) as f64 / 1000.0,
            protocol_errors: rng.gen_range(0usize..1 << 10),
            arena_allocations: rng.gen_range(0usize..1 << 20),
            arena_reuses: rng.gen_range(0usize..1 << 20),
            arena_pooled: rng.gen_range(0usize..64),
            max_inflight: rng.gen_range(1usize..64),
            cache_hits: rng.gen_range(0usize..1 << 20),
            cache_misses: rng.gen_range(0usize..1 << 20),
            cache_evictions: rng.gen_range(0usize..1 << 20),
            cache_entries: rng.gen_range(0usize..1 << 16),
            cache_bytes: rng.gen_range(0usize..1 << 30),
            cache_capacity_bytes: rng.gen_range(0usize..1 << 30),
            delta_tiles_hit: rng.gen_range(0usize..1 << 20),
            delta_tiles_recomputed: rng.gen_range(0usize..1 << 20),
            quant_fallback_pixels: rng.gen::<u64>() >> 16,
            max_queue: rng.gen_range(0usize..256),
            busy_rejections: rng.gen_range(0usize..1 << 20),
            accept_errors: rng.gen_range(0usize..1 << 20),
            calibration: if rng.gen::<bool>() {
                // Calibration summaries themselves contain '=' — the parser
                // must split on the first one only.
                format!(
                    "cores={};probes={}",
                    rng.gen_range(1u32..64),
                    rng.gen_range(1u32..32)
                )
            } else {
                String::new()
            },
            lat_count: rng.gen::<u64>() >> 32,
            lat_p50_us: rng.gen::<u64>() >> 40,
            lat_p90_us: rng.gen::<u64>() >> 40,
            lat_p99_us: rng.gen::<u64>() >> 40,
            lat_p999_us: rng.gen::<u64>() >> 40,
            lat_max_us: rng.gen::<u64>() >> 40,
            conn_requests: rng.gen_range(0usize..1 << 20),
            conn_pixels: rng.gen::<u64>() >> 16,
            extra: std::collections::BTreeMap::new(),
        };
        // Unknown keys from a future server version.
        for k in 0..rng.gen_range(0usize..4) {
            snapshot.extra.insert(
                format!("future_key_{k}"),
                format!("value={}", rng.gen::<u32>()),
            );
        }
        let text = snapshot.to_text();
        let parsed = StatsSnapshot::from_text(&text)
            .unwrap_or_else(|err| panic!("case {case}: round-trip parse failed: {err}\n{text}"));
        assert_eq!(parsed, snapshot, "case {case}");
        // Re-encoding the parsed snapshot is stable (extra keys included).
        assert_eq!(parsed.to_text(), text, "case {case}");
    });
}
