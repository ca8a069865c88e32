//! The four workloads: their fixed load shape, the seeded request sequence,
//! the generated images and the exact oracle every reply is checked against.
//!
//! Every input is a pure function of the workload seed.  The program under
//! test only ever sees the generated images; the seed, the schedule and the
//! oracle stay on this side.
//!
//! Unique images are built as *base image + stamp*: a stamp overwrites a few
//! fixed pixels with seeded colours, which gives a request distinct content
//! (so a distinct cache key) without holding thousands of full images in
//! memory.  Classification is per pixel, so the oracle of a stamped image is
//! the base image's exact labels with the stamp pixels' exact labels written
//! over them.  Both come from `ClassifierKind::Exact` on the serial engine,
//! computed once per base image and once per stamp, before any timing.

use datasets::{synthetic_video, PascalVocLikeConfig, PascalVocLikeDataset, VideoConfig};
use imaging::{Rgb, RgbImage};
use iqft_seg::IqftClassifier;
use seg_engine::{ClassifierKind, SegmentEngine};

/// Image width of every request (the paper's real-time target size).
pub const WIDTH: usize = 256;
/// Image height of every request.
pub const HEIGHT: usize = 192;
/// The daemon's result-cache budget, the one non-default daemon setting.
pub const CACHE_MB: usize = 64;

/// `hot_hit`: distinct images, all resident in the cache after warm-up.
pub const HOT_IMAGES: usize = 16;
/// `cold_miss`: base scenes the stamped requests are made from.
pub const COLD_BASES: usize = 32;
/// `cold_miss`: distinct requests cycled over (base × stamp combinations).
pub const COLD_WORKING_SET: usize = 1536;
/// `cold_miss`: pixels of row 0 a stamp overwrites.
pub const COLD_STAMP_PX: usize = 4;
/// `video_delta`: frames per stream before a scene cut.
pub const VIDEO_FRAMES: usize = 40;
/// `video_delta`: share of 64-pixel blocks that change from frame to frame.
pub const VIDEO_CHANGE_RATE: f64 = 0.1;
/// `video_delta`: scene stamps per stream; the stream repeats after this
/// many scene cuts, long after its tiles have left the cache.
pub const VIDEO_SCENES: usize = 512;
/// `video_delta`: a scene stamp sets one pixel on this grid, so every tile
/// of at least this edge changes at a scene cut.
pub const VIDEO_STAMP_GRID: usize = 16;
/// Open-phase frame rate of each video stream (the paper's real-time case).
pub const VIDEO_FPS: f64 = 30.0;
/// `offline_batch`: distinct images the batches are drawn from.
pub const OFFLINE_IMAGES: usize = 32;
/// `offline_batch`: images per `run_batch` call.
pub const OFFLINE_BATCH: usize = 8;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request misses the daemon's cache, inserts and evicts.
    ColdMiss,
    /// Every timed request is a whole-image cache hit.
    HotHit,
    /// Video streams through the per-tile delta cache.
    VideoDelta,
    /// In-process `SegmentPipeline::run_batch`, no daemon.
    OfflineBatch,
}

/// The fixed load shape of a workload.  The open-phase rates were set to
/// roughly half of the closed-loop capacity measured on a 2-core host; they
/// are constants so that no change to the program can move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Offered load of the open phase, all connections together, in
    /// requests per second (`offline_batch`: batches per second).
    pub open_rate: f64,
    /// Share of `--seconds` spent in the closed phase; the rest is open.
    pub closed_share: f64,
    /// Requests kept in flight per connection in the closed phase.
    pub depth: usize,
    /// Untimed requests per connection before the timed phases
    /// (`offline_batch`: batches).  A count, not a time, so the daemon's
    /// memory after it reflects a fixed amount of work.
    pub warmup: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMiss,
        Workload::HotHit,
        Workload::VideoDelta,
        Workload::OfflineBatch,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMiss => "cold_miss",
            Workload::HotHit => "hot_hit",
            Workload::VideoDelta => "video_delta",
            Workload::OfflineBatch => "offline_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// Whether the workload goes over the wire to a daemon.
    pub fn is_wire(self) -> bool {
        self != Workload::OfflineBatch
    }

    /// The fixed load shape for `conns` connections.
    pub fn profile(self, conns: usize) -> Profile {
        match self {
            Workload::ColdMiss => Profile {
                open_rate: 450.0,
                closed_share: 0.4,
                depth: 4,
                warmup: 512,
            },
            Workload::HotHit => Profile {
                open_rate: 1200.0,
                closed_share: 0.4,
                depth: 4,
                warmup: 1000,
            },
            Workload::VideoDelta => Profile {
                open_rate: VIDEO_FPS * conns as f64,
                closed_share: 0.2,
                depth: 4,
                warmup: 50 * VIDEO_FRAMES,
            },
            Workload::OfflineBatch => Profile {
                open_rate: 95.0,
                closed_share: 0.4,
                depth: 1,
                warmup: 100,
            },
        }
    }
}

/// Which image one request carries: a base image, optionally stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Inputs::bases`].
    pub base: usize,
    /// Index into [`Layout::stamps`], if the request is stamped.
    pub stamp: Option<usize>,
}

/// The seeded, image-free half of a workload's inputs: the request sequence
/// and the stamp colours.  Cheap to build, so tests can check it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// The workload this layout belongs to.
    pub workload: Workload,
    /// The seed everything below is derived from.
    pub seed: u64,
    /// Connections the request sequence is split over.
    pub conns: usize,
    /// Pixel indices (row-major, sorted) a stamp overwrites.
    pub stamp_at: Vec<usize>,
    /// Stamp colours, one entry per `stamp_at` position.
    pub stamps: Vec<Vec<Rgb<u8>>>,
    /// `hot_hit`: each connection's visiting order of the base images.
    /// `cold_miss`: one permutation of the working set.
    order: Vec<Vec<usize>>,
}

impl Layout {
    /// The layout of `workload` under `seed` for `conns` connections.
    pub fn new(workload: Workload, seed: u64, conns: usize) -> Layout {
        let conns = conns.max(1);
        let mut rng = SplitMix::new(seed ^ 0x5eed_0000_0000_0000 ^ workload as u64);
        let (stamp_at, stamp_count, order) = match workload {
            Workload::HotHit => {
                let order = (0..conns)
                    .map(|_| rng.permutation(HOT_IMAGES))
                    .collect::<Vec<_>>();
                (Vec::new(), 0, order)
            }
            Workload::ColdMiss => (
                (0..COLD_STAMP_PX).collect(),
                COLD_WORKING_SET,
                vec![rng.permutation(COLD_WORKING_SET)],
            ),
            Workload::VideoDelta => {
                let at = (0..HEIGHT)
                    .step_by(VIDEO_STAMP_GRID)
                    .flat_map(|y| {
                        (0..WIDTH)
                            .step_by(VIDEO_STAMP_GRID)
                            .map(move |x| y * WIDTH + x)
                    })
                    .collect();
                (at, VIDEO_SCENES * conns, Vec::new())
            }
            Workload::OfflineBatch => (Vec::new(), 0, Vec::new()),
        };
        let stamps = (0..stamp_count)
            .map(|_| stamp_at.iter().map(|_| rng.color()).collect())
            .collect();
        Layout {
            workload,
            seed,
            conns,
            stamp_at,
            stamps,
            order,
        }
    }

    /// Number of base images the workload needs.
    pub fn base_count(&self) -> usize {
        match self.workload {
            Workload::HotHit => HOT_IMAGES,
            Workload::ColdMiss => COLD_BASES,
            Workload::VideoDelta => VIDEO_FRAMES * self.conns,
            Workload::OfflineBatch => OFFLINE_IMAGES,
        }
    }

    /// Distinct images the request sequence cycles over.
    pub fn working_set(&self) -> usize {
        match self.workload {
            Workload::HotHit => HOT_IMAGES,
            Workload::ColdMiss => COLD_WORKING_SET,
            Workload::VideoDelta => VIDEO_FRAMES * VIDEO_SCENES * self.conns,
            Workload::OfflineBatch => OFFLINE_IMAGES,
        }
    }

    /// The `k`-th request of connection `conn` (`offline_batch`: the `k`-th
    /// image of the batch stream).
    pub fn request(&self, conn: usize, k: u64) -> Req {
        let conn = conn % self.conns;
        match self.workload {
            Workload::HotHit => {
                let order = &self.order[conn];
                Req {
                    base: order[(k % order.len() as u64) as usize],
                    stamp: None,
                }
            }
            Workload::ColdMiss => {
                // Connections take disjoint residues of one global cycle.
                let slot = (conn as u64 + self.conns as u64 * k) % COLD_WORKING_SET as u64;
                let unique = self.order[0][slot as usize];
                Req {
                    base: unique % COLD_BASES,
                    stamp: Some(unique),
                }
            }
            Workload::VideoDelta => {
                let frame = (k % VIDEO_FRAMES as u64) as usize;
                let scene = ((k / VIDEO_FRAMES as u64) % VIDEO_SCENES as u64) as usize;
                Req {
                    base: conn * VIDEO_FRAMES + frame,
                    stamp: Some(conn * VIDEO_SCENES + scene),
                }
            }
            Workload::OfflineBatch => Req {
                base: (k % OFFLINE_IMAGES as u64) as usize,
                stamp: None,
            },
        }
    }

    /// Generates the workload's base images.
    pub fn base_images(&self) -> Vec<RgbImage> {
        match self.workload {
            Workload::VideoDelta => (0..self.conns)
                .flat_map(|conn| {
                    synthetic_video(&VideoConfig {
                        frames: VIDEO_FRAMES,
                        width: WIDTH,
                        height: HEIGHT,
                        change_rate: VIDEO_CHANGE_RATE,
                        block: 0,
                        seed: mix(self.seed, 0x71de0 + conn as u64),
                    })
                })
                .collect(),
            _ => {
                let dataset = PascalVocLikeDataset::new(PascalVocLikeConfig {
                    len: self.base_count(),
                    width: WIDTH,
                    height: HEIGHT,
                    seed: mix(self.seed, 0x0c + self.workload as u64),
                    ..PascalVocLikeConfig::default()
                });
                dataset.iter().map(|sample| sample.image).collect()
            }
        }
    }
}

/// A layout plus its images and the exact labels of every base and stamp.
#[derive(Debug)]
pub struct Inputs {
    /// The request sequence and stamps.
    pub layout: Layout,
    /// The base images.
    pub bases: Vec<RgbImage>,
    /// Exact labels of each base image.
    pub oracle: Vec<Vec<u32>>,
    /// Exact labels of each stamp's pixels, aligned with `layout.stamp_at`.
    pub stamp_labels: Vec<Vec<u32>>,
}

impl Inputs {
    /// Generates the images of `layout` and computes their oracle.
    pub fn build(layout: Layout) -> Inputs {
        let bases = layout.base_images();
        Inputs::with_bases(layout, bases)
    }

    /// Computes the oracle for `layout` over the given base images (tests
    /// use small images here).
    pub fn with_bases(layout: Layout, bases: Vec<RgbImage>) -> Inputs {
        let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
        let serial = SegmentEngine::serial();
        let oracle = bases
            .iter()
            .map(|img| serial.segment_rgb(&exact, img).into_vec())
            .collect();
        let per_stamp = layout.stamp_at.len();
        let colors: Vec<Rgb<u8>> = layout.stamps.iter().flatten().copied().collect();
        let stamp_labels = if colors.is_empty() {
            Vec::new()
        } else {
            let strip =
                RgbImage::from_vec(colors.len(), 1, colors).expect("one row of stamp colours");
            let labels = serial.segment_rgb(&exact, &strip).into_vec();
            labels.chunks(per_stamp).map(<[u32]>::to_vec).collect()
        };
        Inputs {
            layout,
            bases,
            oracle,
            stamp_labels,
        }
    }

    /// The image `req` carries.  Stamped requests are written into
    /// `scratch`, so no per-request allocation is needed.
    pub fn image<'a>(&'a self, req: Req, scratch: &'a mut RgbImage) -> &'a RgbImage {
        let base = &self.bases[req.base];
        let Some(stamp) = req.stamp else {
            return base;
        };
        if scratch.dimensions() != base.dimensions() {
            *scratch = base.clone();
        } else {
            scratch.as_mut_slice().copy_from_slice(base.as_slice());
        }
        let pixels = scratch.as_mut_slice();
        for (&at, &color) in self.layout.stamp_at.iter().zip(&self.layout.stamps[stamp]) {
            pixels[at] = color;
        }
        scratch
    }

    /// Whether `labels` equal the exact oracle of `req`'s image, label for
    /// label.
    pub fn check(&self, req: Req, labels: &[u32]) -> bool {
        let oracle = &self.oracle[req.base];
        if labels.len() != oracle.len() {
            return false;
        }
        let Some(stamp) = req.stamp else {
            return labels == oracle.as_slice();
        };
        let mut from = 0;
        for (&at, &label) in self.layout.stamp_at.iter().zip(&self.stamp_labels[stamp]) {
            if labels[from..at] != oracle[from..at] || labels[at] != label {
                return false;
            }
            from = at + 1;
        }
        labels[from..] == oracle[from..]
    }
}

/// SplitMix64: a tiny seeded generator for everything the benchmark draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn color(&mut self) -> Rgb<u8> {
        let bits = self.next_u64();
        Rgb::new(bits as u8, (bits >> 8) as u8, (bits >> 16) as u8)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
        items
    }
}

/// Derives an independent seed for one purpose from the workload seed.
pub fn mix(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.rotate_left(32)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqft_pipeline::cache::ENTRY_OVERHEAD_BYTES;

    fn requests(layout: &Layout, conn: usize, n: u64) -> Vec<Req> {
        (0..n).map(|k| layout.request(conn, k)).collect()
    }

    #[test]
    fn request_sequences_and_stamps_are_deterministic_in_the_seed() {
        for workload in Workload::ALL {
            let a = Layout::new(workload, 7, 2);
            let b = Layout::new(workload, 7, 2);
            assert_eq!(a, b, "{}", workload.name());
            for conn in 0..2 {
                assert_eq!(requests(&a, conn, 500), requests(&b, conn, 500));
            }
        }
        let a = Layout::new(Workload::ColdMiss, 7, 2);
        let c = Layout::new(Workload::ColdMiss, 8, 2);
        assert_ne!(requests(&a, 0, 64), requests(&c, 0, 64));
        assert_ne!(a.stamps, c.stamps);
        let hot_a = Layout::new(Workload::HotHit, 7, 2);
        let hot_c = Layout::new(Workload::HotHit, 8, 2);
        assert_ne!(requests(&hot_a, 0, 16), requests(&hot_c, 0, 16));
    }

    #[test]
    fn images_are_deterministic_in_the_seed() {
        let mut layout = Layout::new(Workload::HotHit, 3, 1);
        let first = layout.base_images();
        assert_eq!(first.len(), HOT_IMAGES);
        assert_eq!(first, layout.base_images());
        layout.seed = 4;
        assert_ne!(first[0], layout.base_images()[0]);
    }

    #[test]
    fn workload_shapes_hold_against_the_cache_budget() {
        let budget = CACHE_MB << 20;
        let entry = WIDTH * HEIGHT * 4 + ENTRY_OVERHEAD_BYTES;
        let cold = Layout::new(Workload::ColdMiss, 1, 2);
        assert!(
            cold.working_set() * entry >= 4 * budget,
            "cold_miss must cycle over several cache budgets"
        );
        // Every slot of the cycle is a distinct image.
        let mut seen: Vec<Req> = (0..2)
            .flat_map(|conn| requests(&cold, conn, (COLD_WORKING_SET / 2) as u64))
            .collect();
        seen.sort_by_key(|r| r.stamp);
        seen.dedup();
        assert_eq!(seen.len(), COLD_WORKING_SET);
        let hot = Layout::new(Workload::HotHit, 1, 2);
        assert!(
            hot.working_set() * entry * 8 <= budget,
            "hot_hit must stay far below the cache budget"
        );
        // The video stream changes scene stamp only at scene cuts.
        let video = Layout::new(Workload::VideoDelta, 1, 2);
        let stream = requests(&video, 1, 2 * VIDEO_FRAMES as u64);
        assert!(stream[..VIDEO_FRAMES]
            .iter()
            .all(|r| r.stamp == stream[0].stamp));
        assert_ne!(stream[0].stamp, stream[VIDEO_FRAMES].stamp);
        assert_eq!(stream[0].base, VIDEO_FRAMES);
    }

    #[test]
    fn stamped_oracle_matches_an_exact_pass_over_the_stamped_image() {
        let layout = Layout::new(Workload::ColdMiss, 5, 2);
        let bases: Vec<RgbImage> = (0..COLD_BASES)
            .map(|i| {
                RgbImage::from_fn(8, 2, move |x, y| {
                    Rgb::new((x * 31 + i) as u8, (y * 97) as u8, 40)
                })
            })
            .collect();
        let inputs = Inputs::with_bases(layout, bases);
        let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
        let mut scratch = RgbImage::new(1, 1, Rgb::BLACK);
        for k in 0..40 {
            let req = inputs.layout.request(k % 2, k as u64);
            let img = inputs.image(req, &mut scratch).clone();
            let labels = SegmentEngine::serial().segment_rgb(&exact, &img).into_vec();
            assert!(inputs.check(req, &labels));
            let mut wrong = labels.clone();
            wrong[1] ^= 1;
            assert!(!inputs.check(req, &wrong));
        }
    }
}
