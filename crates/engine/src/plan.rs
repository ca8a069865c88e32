//! [`SegmentPlan`] — the single dispatch point for segmentation strategy.
//!
//! Before this module existed the workspace chose its execution strategy in
//! three stringly-typed places: the experiments CLI parsed
//! `--classifier exact|lut|table` ad hoc, the bench targets hard-coded the
//! same three names, and tiling did not exist.  A [`SegmentPlan`] makes the
//! whole choice — *which classifier* ([`ClassifierKind`]) × *which work
//! decomposition* ([`Tiling`]) × *which backend* ([`xpar::Backend`]) — a
//! first-class value that every caller builds once and passes down, so
//! strategy parsing and dispatch live in exactly one place.
//!
//! The plan is deliberately algorithm-agnostic: it names classifier
//! *families*, and algorithm crates (e.g. `iqft-seg`'s `IqftClassifier`)
//! materialise the concrete [`imaging::PixelClassifier`] for a kind.  The
//! plan then executes any classifier through [`SegmentPlan::segment_rgb`],
//! which routes to the whole-image or tiled engine path; both are
//! byte-identical by construction.

use crate::SegmentEngine;
use imaging::{LabelMap, PixelClassifier, RgbImage};
use xpar::Backend;

/// The classifier families the workspace implements for the paper's RGB
/// algorithm, as selected by the `--classifier` flag.
///
/// This enum is the single source of truth for the
/// `exact|lut|table|quant|simd` flag vocabulary previously duplicated across
/// the experiments CLI and the bench targets; help text and error messages
/// render it via [`ClassifierKind::FLAG_HELP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierKind {
    /// Direct statevector-equivalent math per pixel (`IqftRgbSegmenter`).
    Exact,
    /// Lazy per-colour memoisation (`LutRgbSegmenter`).
    Lut,
    /// Eager precomputed phase table, three lookups per pixel (`PhaseTable`).
    Table,
    /// Fixed-point log-space quantization of the phase table, scalar integer
    /// inner loop (`QuantizedPhaseTable` pinned to its scalar kernel) —
    /// labels bit-identical to `exact` via the built-in f64 oracle fallback.
    Quant,
    /// The quantized table with runtime-dispatched `std::arch` SIMD kernels
    /// (AVX2 → SSE4.1 → SSE2, scalar elsewhere; `IQFT_SIMD` env overrides) —
    /// same bit-identical labels, the raw-speed hot path and the default.
    #[default]
    Simd,
}

impl ClassifierKind {
    /// Every classifier kind, in flag order — handy for sweeps.
    pub const ALL: [ClassifierKind; 5] = [
        ClassifierKind::Exact,
        ClassifierKind::Lut,
        ClassifierKind::Table,
        ClassifierKind::Quant,
        ClassifierKind::Simd,
    ];

    /// The full `--classifier` flag vocabulary, rendered once for help text
    /// and error messages so every subcommand and bench enumerates the same
    /// set.
    pub const FLAG_HELP: &'static str = "exact|lut|table|quant|simd";

    /// Parses the `--classifier` flag (one of
    /// [`ClassifierKind::FLAG_HELP`]).
    pub fn from_flag(flag: &str) -> Result<Self, String> {
        match flag {
            "exact" => Ok(ClassifierKind::Exact),
            "lut" => Ok(ClassifierKind::Lut),
            "table" => Ok(ClassifierKind::Table),
            "quant" => Ok(ClassifierKind::Quant),
            "simd" => Ok(ClassifierKind::Simd),
            other => Err(format!(
                "unknown classifier '{other}' (expected one of {})",
                Self::FLAG_HELP
            )),
        }
    }

    /// The flag spelling of this kind (the inverse of
    /// [`ClassifierKind::from_flag`]).
    pub fn flag(self) -> &'static str {
        match self {
            ClassifierKind::Exact => "exact",
            ClassifierKind::Lut => "lut",
            ClassifierKind::Table => "table",
            ClassifierKind::Quant => "quant",
            ClassifierKind::Simd => "simd",
        }
    }

    /// Whether this kind classifies through the quantized fixed-point table
    /// (and therefore reports oracle-fallback pixel counts).
    pub fn is_quantized(self) -> bool {
        matches!(self, ClassifierKind::Quant | ClassifierKind::Simd)
    }
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

/// How an image's pixels are decomposed into units of parallel work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tiling {
    /// One chunk-parallel pass over the whole label buffer (the default).
    #[default]
    Whole,
    /// Split the image into `width × height` tiles (edge tiles clamped) and
    /// fan the tiles out as independent jobs.
    Tiles {
        /// Tile width in pixels (clamped to at least 1).
        width: usize,
        /// Tile height in pixels (clamped to at least 1).
        height: usize,
    },
}

impl Tiling {
    /// Parses the `--tile` flag: `off` (or the empty string) selects
    /// [`Tiling::Whole`], `WxH` (e.g. `64x64`) selects [`Tiling::Tiles`].
    pub fn from_flag(flag: &str) -> Result<Self, String> {
        if flag.is_empty() || flag == "off" || flag == "whole" {
            return Ok(Tiling::Whole);
        }
        let parse = |part: &str| part.parse::<usize>().ok().filter(|&v| v > 0);
        if let Some((w, h)) = flag.split_once('x') {
            if let (Some(width), Some(height)) = (parse(w), parse(h)) {
                return Ok(Tiling::Tiles { width, height });
            }
        }
        Err(format!(
            "invalid tile shape '{flag}' (expected WxH with positive integers, e.g. 64x64, or off)"
        ))
    }

    /// The flag spelling of this tiling (the inverse of
    /// [`Tiling::from_flag`]).
    pub fn flag(self) -> String {
        match self {
            Tiling::Whole => "off".to_string(),
            Tiling::Tiles { width, height } => format!("{width}x{height}"),
        }
    }

    /// The tile shape, or `None` for a whole-image pass.
    pub fn shape(self) -> Option<(usize, usize)> {
        match self {
            Tiling::Whole => None,
            Tiling::Tiles { width, height } => Some((width, height)),
        }
    }

    /// Default tile edge for the per-tile delta cache when the plan does not
    /// pick one (i.e. [`Tiling::Whole`]): 64 pixels balances hash overhead
    /// against change-granularity for video-sized frames.
    pub const DEFAULT_DELTA_TILE: usize = 64;

    /// The tile shape the per-tile delta-cache path uses.  A tiled plan
    /// deltas at its own tile shape; a whole-image plan still needs *some*
    /// tile granularity to delta at, so it falls back to
    /// [`Tiling::DEFAULT_DELTA_TILE`]-square tiles.
    pub fn delta_shape(self) -> (usize, usize) {
        match self {
            Tiling::Whole => (Self::DEFAULT_DELTA_TILE, Self::DEFAULT_DELTA_TILE),
            Tiling::Tiles { width, height } => (width, height),
        }
    }
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.flag())
    }
}

/// The parse/display form of a [`SegmentPlan`]: the same three strategy
/// axes as public fields, round-tripping through the canonical
/// `classifier=…;tile=…;backend=…` spec string.
///
/// This is the single owner of plan serialization.  [`SegmentPlan`]'s
/// `FromStr`/`Display` impls (and the older `to_spec`/`from_spec` methods)
/// all delegate here, so every CLI flag, Stats reply, and baseline record
/// speaks exactly one vocabulary.
///
/// # Example
///
/// ```
/// use seg_engine::{PlanSpec, SegmentPlan};
///
/// let spec: PlanSpec = "classifier=simd;tile=48x48;backend=threads:4".parse().unwrap();
/// let plan = SegmentPlan::from(spec);
/// assert_eq!(plan.to_string().parse::<SegmentPlan>().unwrap(), plan);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanSpec {
    /// Classifier family (`classifier=` key).
    pub classifier: ClassifierKind,
    /// Work decomposition (`tile=` key).
    pub tiling: Tiling,
    /// Execution backend (`backend=` key).
    pub backend: Backend,
}

impl std::str::FromStr for PlanSpec {
    type Err = String;

    /// Parses a spec such as `classifier=table;tile=48x48;backend=threads:4`.
    /// Keys may appear in any order; missing keys keep their defaults;
    /// unknown keys error.
    fn from_str(spec: &str) -> Result<Self, String> {
        let mut parsed = PlanSpec::default();
        for part in spec.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("plan spec part '{part}' has no '='"))?;
            match key {
                "classifier" => parsed.classifier = ClassifierKind::from_flag(value)?,
                "tile" => parsed.tiling = Tiling::from_flag(value)?,
                "backend" => parsed.backend = SegmentPlan::backend_from_spec(value)?,
                other => return Err(format!("unknown plan spec key '{other}'")),
            }
        }
        Ok(parsed)
    }
}

impl std::fmt::Display for PlanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "classifier={};tile={};backend={}",
            self.classifier.flag(),
            self.tiling.flag(),
            SegmentPlan::backend_spec(self.backend)
        )
    }
}

impl From<SegmentPlan> for PlanSpec {
    fn from(plan: SegmentPlan) -> Self {
        PlanSpec {
            classifier: plan.classifier,
            tiling: plan.tiling,
            backend: plan.backend,
        }
    }
}

impl From<PlanSpec> for SegmentPlan {
    fn from(spec: PlanSpec) -> Self {
        SegmentPlan::new(spec.classifier, spec.tiling, spec.backend)
    }
}

/// A complete segmentation strategy: classifier family × work decomposition
/// × execution backend.
///
/// Every consumer — the experiments CLI, the throughput pipeline, the bench
/// targets — builds one of these (usually by parsing a [`PlanSpec`] string)
/// and executes through it, so strategy choice has a single owner.  Whatever
/// the plan, the resulting labels are byte-identical: classifier kinds agree
/// exactly by construction, and tiling/backends only reschedule independent
/// per-pixel work.
///
/// # Example
///
/// ```
/// use imaging::{Rgb, RgbImage};
/// use seg_engine::{SegmentPlan, Tiling};
///
/// let plan: SegmentPlan = "classifier=table;tile=32x32;backend=threads:2"
///     .parse()
///     .unwrap();
/// assert_eq!(plan.tiling(), Tiling::Tiles { width: 32, height: 32 });
///
/// // The plan executes any per-pixel rule; tiled and whole-image plans
/// // produce byte-identical labels.
/// let img = RgbImage::from_fn(70, 50, |x, y| Rgb::new(x as u8, y as u8, 0));
/// let rule = |p: Rgb<u8>| u32::from(p.r() > p.g());
/// let whole = SegmentPlan::default().segment_rgb(&rule, &img);
/// assert_eq!(plan.segment_rgb(&rule, &img), whole);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentPlan {
    classifier: ClassifierKind,
    tiling: Tiling,
    backend: Backend,
}

impl SegmentPlan {
    /// Creates a plan from its three strategy axes.
    pub fn new(classifier: ClassifierKind, tiling: Tiling, backend: Backend) -> Self {
        Self {
            classifier,
            tiling,
            backend,
        }
    }

    /// Parses the harness flags `--classifier exact|lut|table`,
    /// `--tile off|WxH`, and `--backend serial|threads|rayon --threads N`
    /// into a plan.
    #[deprecated(
        note = "parse a PlanSpec string instead (`\"classifier=…;tile=…;backend=…\".parse()`)"
    )]
    pub fn from_flags(
        classifier: &str,
        tile: &str,
        backend: &str,
        threads: usize,
    ) -> Result<Self, String> {
        Ok(Self::new(
            ClassifierKind::from_flag(classifier)?,
            Tiling::from_flag(tile)?,
            SegmentEngine::from_flags(backend, threads)?.backend(),
        ))
    }

    /// Replaces the classifier kind.
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> Self {
        self.classifier = classifier;
        self
    }

    /// Replaces the work decomposition.
    pub fn with_tiling(mut self, tiling: Tiling) -> Self {
        self.tiling = tiling;
        self
    }

    /// Replaces the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The classifier family this plan selects.
    pub fn classifier(&self) -> ClassifierKind {
        self.classifier
    }

    /// The work decomposition this plan selects.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// The execution backend this plan selects.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// An engine executing on the plan's backend.
    pub fn engine(&self) -> SegmentEngine {
        SegmentEngine::new(self.backend)
    }

    /// A one-line human-readable summary (`classifier=… tile=… backend=…`),
    /// used by reports.
    pub fn describe(&self) -> String {
        format!(
            "classifier={} tile={} backend={:?}",
            self.classifier, self.tiling, self.backend
        )
    }

    /// The flag spelling of a backend: `serial`, `threads:N` (N = 0 means
    /// one per core) or `rayon`.  The inverse of
    /// [`SegmentPlan::backend_from_spec`].
    pub fn backend_spec(backend: Backend) -> String {
        match backend {
            Backend::Serial => "serial".to_string(),
            Backend::Threads(n) => format!("threads:{n}"),
            Backend::Rayon => "rayon".to_string(),
        }
    }

    /// Parses a backend spec produced by [`SegmentPlan::backend_spec`]
    /// (`threads` without a count is accepted and means `threads:0`).
    pub fn backend_from_spec(spec: &str) -> Result<Backend, String> {
        match spec {
            "serial" => Ok(Backend::Serial),
            "rayon" => Ok(Backend::Rayon),
            "threads" => Ok(Backend::Threads(0)),
            other => match other.strip_prefix("threads:") {
                Some(count) => count
                    .parse::<usize>()
                    .map(Backend::Threads)
                    .map_err(|_| format!("invalid thread count in backend spec '{other}'")),
                None => Err(format!(
                    "unknown backend spec '{other}' (expected serial, threads[:N] or rayon)"
                )),
            },
        }
    }

    /// Serializes the whole plan into a compact machine-readable spec,
    /// e.g. `classifier=table;tile=48x48;backend=threads:4`.
    ///
    /// This is the form the `iqft-serve` Stats reply carries, so a remote
    /// client can reconstruct the exact strategy a server runs with
    /// [`SegmentPlan::from_spec`].  Round-trips losslessly.  Equivalent to
    /// the plan's `Display` impl (which delegates to [`PlanSpec`]).
    pub fn to_spec(&self) -> String {
        self.to_string()
    }

    /// Parses a spec produced by [`SegmentPlan::to_spec`].  Keys may appear
    /// in any order; missing keys keep their defaults; unknown keys error.
    /// Equivalent to the plan's `FromStr` impl (which delegates to
    /// [`PlanSpec`]).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        spec.parse()
    }

    /// Segments `img` with `classifier` according to the plan's tiling on
    /// the plan's backend.  Byte-identical across every plan configuration.
    pub fn segment_rgb<C>(&self, classifier: &C, img: &RgbImage) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        match self.tiling {
            Tiling::Whole => self.engine().segment_rgb(classifier, img),
            Tiling::Tiles { width, height } => {
                self.engine().segment_tiled(classifier, img, width, height)
            }
        }
    }

    /// Allocation-reusing variant of [`SegmentPlan::segment_rgb`]: fills
    /// `labels` in place.
    pub fn segment_rgb_into<C>(&self, classifier: &C, img: &RgbImage, labels: &mut Vec<u32>)
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        match self.tiling {
            Tiling::Whole => self.engine().segment_rgb_into(classifier, img, labels),
            Tiling::Tiles { width, height } => self
                .engine()
                .segment_tiled_into(classifier, img, width, height, labels),
        }
    }
}

impl std::str::FromStr for SegmentPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        spec.parse::<PlanSpec>().map(Self::from)
    }
}

impl std::fmt::Display for SegmentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        PlanSpec::from(*self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;

    #[test]
    fn classifier_flags_round_trip() {
        for kind in ClassifierKind::ALL {
            assert_eq!(ClassifierKind::from_flag(kind.flag()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.flag());
        }
        assert!(ClassifierKind::from_flag("gpu").is_err());
        assert_eq!(ClassifierKind::default(), ClassifierKind::Simd);
    }

    #[test]
    fn tiling_flags_round_trip() {
        for flag in ["off", "", "whole"] {
            assert_eq!(Tiling::from_flag(flag).unwrap(), Tiling::Whole);
        }
        assert_eq!(
            Tiling::from_flag("64x48").unwrap(),
            Tiling::Tiles {
                width: 64,
                height: 48
            }
        );
        let tiled = Tiling::Tiles {
            width: 7,
            height: 3,
        };
        assert_eq!(Tiling::from_flag(&tiled.flag()).unwrap(), tiled);
        assert_eq!(tiled.shape(), Some((7, 3)));
        assert_eq!(Tiling::Whole.shape(), None);
        assert_eq!(tiled.delta_shape(), (7, 3));
        assert_eq!(
            Tiling::Whole.delta_shape(),
            (Tiling::DEFAULT_DELTA_TILE, Tiling::DEFAULT_DELTA_TILE),
            "whole-image plans delta at the default square tile"
        );
        assert_eq!(Tiling::Whole.flag(), "off");
        for bad in ["64", "0x4", "4x0", "axb", "4x4x4"] {
            assert!(Tiling::from_flag(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[allow(deprecated)]
    fn plan_flags_compose_the_three_axes() {
        let plan = SegmentPlan::from_flags("lut", "16x8", "threads", 3).unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Lut);
        assert_eq!(
            plan.tiling(),
            Tiling::Tiles {
                width: 16,
                height: 8
            }
        );
        assert_eq!(plan.backend(), Backend::Threads(3));
        assert_eq!(plan.engine(), SegmentEngine::with_threads(3));
        assert!(plan.describe().contains("classifier=lut"));
        assert!(plan.describe().contains("tile=16x8"));
        assert!(SegmentPlan::from_flags("gpu", "off", "serial", 0).is_err());
        assert!(SegmentPlan::from_flags("table", "?", "serial", 0).is_err());
        assert!(SegmentPlan::from_flags("table", "off", "gpu", 0).is_err());
    }

    #[test]
    fn plan_specs_round_trip_losslessly() {
        let backends = [
            Backend::Serial,
            Backend::Threads(0),
            Backend::Threads(7),
            Backend::Rayon,
        ];
        for kind in ClassifierKind::ALL {
            for tiling in [
                Tiling::Whole,
                Tiling::Tiles {
                    width: 48,
                    height: 32,
                },
            ] {
                for backend in backends {
                    let plan = SegmentPlan::new(kind, tiling, backend);
                    let spec = plan.to_spec();
                    assert_eq!(SegmentPlan::from_spec(&spec).unwrap(), plan, "{spec}");
                }
            }
        }
        let spec = SegmentPlan::new(
            ClassifierKind::Table,
            Tiling::Tiles {
                width: 48,
                height: 48,
            },
            Backend::Threads(4),
        )
        .to_spec();
        assert_eq!(spec, "classifier=table;tile=48x48;backend=threads:4");
    }

    #[test]
    fn plan_spec_type_round_trips_and_converts_both_ways() {
        let spec = PlanSpec {
            classifier: ClassifierKind::Simd,
            tiling: Tiling::Tiles {
                width: 48,
                height: 32,
            },
            backend: Backend::Threads(4),
        };
        let rendered = spec.to_string();
        assert_eq!(rendered, "classifier=simd;tile=48x32;backend=threads:4");
        assert_eq!(rendered.parse::<PlanSpec>().unwrap(), spec);
        // SegmentPlan's FromStr/Display delegate through PlanSpec.
        let plan = SegmentPlan::from(spec);
        assert_eq!(plan.to_string(), rendered);
        assert_eq!(rendered.parse::<SegmentPlan>().unwrap(), plan);
        assert_eq!(PlanSpec::from(plan), spec);
        assert_eq!(
            "".parse::<PlanSpec>().unwrap(),
            PlanSpec::default(),
            "missing keys keep their defaults"
        );
        assert!("flavour=mint".parse::<SegmentPlan>().is_err());
    }

    #[test]
    fn plan_spec_parsing_is_order_insensitive_and_rejects_junk() {
        let plan = SegmentPlan::from_spec("backend=threads;classifier=lut;tile=8x8").unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Lut);
        assert_eq!(plan.backend(), Backend::Threads(0));
        assert_eq!(
            SegmentPlan::from_spec("").unwrap(),
            SegmentPlan::default(),
            "missing keys keep their defaults"
        );
        for bad in [
            "classifier=gpu",
            "tile=64",
            "backend=gpu",
            "backend=threads:lots",
            "flavour=mint",
            "classifier",
        ] {
            assert!(SegmentPlan::from_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn builder_methods_replace_single_axes() {
        let plan = SegmentPlan::default()
            .with_classifier(ClassifierKind::Exact)
            .with_tiling(Tiling::Tiles {
                width: 4,
                height: 4,
            })
            .with_backend(Backend::Serial);
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(plan.backend(), Backend::Serial);
        assert_eq!(
            SegmentPlan::default().tiling(),
            Tiling::Whole,
            "default plan is a whole-image pass"
        );
    }

    #[test]
    fn tiled_and_whole_plans_agree_for_closures() {
        let img = RgbImage::from_fn(37, 23, |x, y| {
            Rgb::new((x * 7) as u8, (y * 11) as u8, ((x * y) % 251) as u8)
        });
        let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 + p.b() as u16) % 5;
        let whole = SegmentPlan::default().segment_rgb(&rule, &img);
        for (tw, th) in [(1, 1), (7, 3), (64, 64), (37, 23)] {
            let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
                width: tw,
                height: th,
            });
            assert_eq!(plan.segment_rgb(&rule, &img), whole, "{tw}x{th}");
            let mut buf = Vec::new();
            plan.segment_rgb_into(&rule, &img, &mut buf);
            assert_eq!(buf, whole.as_slice(), "{tw}x{th} (_into)");
        }
    }
}
