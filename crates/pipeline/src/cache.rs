//! A sharded, content-addressed cache of finished segmentations.
//!
//! Real segmentation traffic is highly repetitive — the same frames arrive
//! again and again with the same θ-parameters — yet every request used to pay
//! the full classification cost.  [`SegmentCache`] keys a finished label
//! buffer by the *content* of the request (a 128-bit hand-rolled hash over
//! the pixel bytes, the image dimensions, and a caller-provided salt such as
//! `SegmentPlan::to_spec()`), so a repeated image is answered with a memcpy
//! instead of a classification pass.
//!
//! Design points:
//!
//! * **Sharded locking** — the key space is split across N independent
//!   mutex-guarded shards, so concurrent connections rarely contend on the
//!   same lock.
//! * **Byte-budget LRU eviction** — every shard owns an equal slice of the
//!   configured byte budget and evicts its least-recently-used entries when
//!   an insert would overflow it.  An entry larger than a whole shard's
//!   budget is never stored (it would evict everything for one request).
//! * **Exact-size entries** — an entry owns an exact-size copy of its
//!   labels, so the bytes it pins are the bytes it is charged for.  An
//!   evicted entry's buffer is reused only by the insert that evicted it,
//!   and only when the sizes match; otherwise evicted and replaced entries
//!   are freed.  Only hit copy-outs draw on the pipeline's [`LabelArena`]
//!   (they are request buffers); cache storage never passes through it, so
//!   the arena's pool cannot fill up with recycled cache buffers.
//! * **Correctness over capacity** — a hit is produced by copying the cached
//!   labels into a fresh arena buffer; the cache never hands out a buffer it
//!   still owns, so eviction can never corrupt a reply already in flight.
//!   Keys are 128 bits (two 64-bit halves of one streaming hash) and carry
//!   the image dimensions, which makes an accidental collision between distinct
//!   requests astronomically unlikely and a dimension mix-up impossible.
//!
//! Hit results are byte-identical to a fresh segmentation by construction:
//! the cache only ever stores bytes produced by the pipeline itself, and
//! `tests/service_roundtrip.rs` plus the loadgen's default-on verification
//! enforce the identity end to end.

use crate::arena::LabelArena;
use imaging::{rgb_bytes, ImageView, LabelMap, LabelViewMut, Rgb, RgbImage};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default shard count when [`CacheConfig::shards`] is 0.
pub const DEFAULT_SHARDS: usize = 8;

/// Approximate per-entry bookkeeping overhead charged against the byte
/// budget (map nodes, LRU stamp, entry header) in addition to the label
/// bytes themselves.
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Tuning for a [`SegmentCache`].  `Default` (and `capacity_bytes == 0`)
/// means *no cache* — callers opt in, typically via the `--cache-mb` CLI
/// knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Total byte budget across all shards (0 = caching disabled).
    pub capacity_bytes: usize,
    /// Number of mutex-sharded LRU shards (0 = [`DEFAULT_SHARDS`]).
    pub shards: usize,
}

impl CacheConfig {
    /// A config with an `mb`-megabyte budget and the default shard count
    /// (the shape the `--cache-mb N` flag builds).
    pub fn with_capacity_mb(mb: usize) -> Self {
        Self {
            capacity_bytes: mb.saturating_mul(1 << 20),
            shards: 0,
        }
    }

    /// Whether this config enables caching at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// The effective shard count.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_SHARDS
        } else {
            self.shards
        }
    }
}

/// A 128-bit content address: two 64-bit finalisations of one 256-bit
/// `ByteHasher` state over the request bytes.  The pair (plus the
/// dimensions stored in the entry) makes accidental collisions between
/// distinct images astronomically unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    lo: u64,
    hi: u64,
}

impl CacheKey {
    /// The shard index this key maps to.
    fn shard(&self, shards: usize) -> usize {
        // The high hash picks the shard and the low hash addresses within
        // it, so shard choice and map lookup use independent bits.
        (self.hi % shards as u64) as usize
    }
}

const PRIME_A: u64 = 0xFF51_AFD7_ED55_8CCD;
const PRIME_B: u64 = 0xC4CE_B9FE_1A85_EC53;
const SEED_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const SEED_HI: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// FNV-1a over a byte string — used to fold the caller's salt (e.g. the
/// plan spec) into the image-hash seeds.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut state = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// One multiply-rotate-multiply mixing step (xxHash-style).
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word.wrapping_mul(PRIME_A))
        .rotate_left(27)
        .wrapping_mul(SEED_LO)
        .wrapping_add(0x2545_F491_4F6C_DD1D)
}

/// Final avalanche so every input bit affects every output bit.
#[inline]
fn finish(mut state: u64) -> u64 {
    state ^= state >> 33;
    state = state.wrapping_mul(PRIME_A);
    state ^= state >> 29;
    state = state.wrapping_mul(PRIME_B);
    state ^ (state >> 32)
}

/// Bytes the [`ByteHasher`] consumes per step: one 8-byte word per lane.
const BLOCK: usize = 32;

/// Per-lane multipliers (odd, high-entropy 64-bit constants), so identical
/// words in different lanes fold differently.
const LANE_K: [u64; 4] = [
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5899_65CC_7537_4CC3,
];

/// The folded multiply: the full 128-bit product of `a` and `b` with its
/// two halves xored together, so every input bit reaches the result.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ (product >> 64) as u64
}

/// Absorbs one 32-byte block: each lane folds its own word against its own
/// multiplier.  The four lanes carry no dependency on one another, so the
/// four multiplies of a block run in parallel.  Adding the word back after
/// the fold keeps a lane from collapsing to a fixed value when the word
/// happens to equal the lane's state.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], block: &[u8; BLOCK]) {
    let (words, _) = block.as_chunks::<8>();
    for ((lane, word), k) in lanes.iter_mut().zip(words).zip(LANE_K) {
        let word = u64::from_le_bytes(*word);
        *lane = fold(*lane ^ word, k).wrapping_add(word);
    }
}

/// The streaming content hasher behind every cache key and route.
///
/// Four independent folded-multiply lanes consume the input 32 bytes at a
/// time (the xxh3/wyhash family of designs).  Bytes that do not fill a block
/// wait in a tail buffer, so the result depends only on the byte sequence
/// fed, never on how it was split across [`ByteHasher::write`] calls: a
/// whole image fed as one slice and a tile fed row by row hash exactly as
/// the concatenation of their bytes.  [`ByteHasher::finish`] zero-pads the
/// last partial block and mixes in the total length, so padding cannot alias
/// real zero bytes, then folds the lanes into two 64-bit halves through two
/// different mixing orders.
///
/// This is not a cryptographic hash: it separates benign content with
/// 128 bits of key, it does not resist a peer that crafts collisions.
struct ByteHasher {
    lanes: [u64; 4],
    tail: [u8; BLOCK],
    tail_len: usize,
    len: u64,
}

impl ByteHasher {
    fn new(seed_lo: u64, seed_hi: u64) -> Self {
        Self {
            lanes: [
                seed_lo,
                seed_hi,
                mix(seed_lo, seed_hi),
                mix(seed_hi, seed_lo),
            ],
            tail: [0u8; BLOCK],
            tail_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < BLOCK {
                return;
            }
            let block = self.tail;
            absorb(&mut self.lanes, &block);
            self.tail_len = 0;
        }
        let (blocks, rest) = bytes.as_chunks::<BLOCK>();
        let mut lanes = self.lanes;
        for block in blocks {
            absorb(&mut lanes, block);
        }
        self.lanes = lanes;
        if !rest.is_empty() {
            self.tail[..rest.len()].copy_from_slice(rest);
            self.tail_len = rest.len();
        }
    }

    fn finish(mut self) -> CacheKey {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            let block = self.tail;
            absorb(&mut self.lanes, &block);
        }
        let [a, b, c, d] = self.lanes;
        CacheKey {
            lo: finish(mix(mix(mix(mix(SEED_LO, a), b), c), d ^ self.len)),
            hi: finish(mix(mix(mix(mix(SEED_HI, c), d), a), b ^ self.len)),
        }
    }
}

/// Hashes an image's pixel bytes (plus dimensions) into a [`CacheKey`]: the
/// dimensions are mixed into the seeds, then the pixels are fed as one
/// contiguous byte slice.
fn hash_image(img: &RgbImage, seed_lo: u64, seed_hi: u64) -> CacheKey {
    let dims = ((img.width() as u64) << 32) | img.height() as u64;
    let mut hasher = ByteHasher::new(mix(seed_lo, dims), mix(seed_hi, dims));
    hasher.write(rgb_bytes(img.as_slice()));
    hasher.finish()
}

/// A stable 64-bit content hash of an image for *routing* (consistent-hash
/// placement across a fleet of daemons), using the same `ByteHasher` as
/// the cache keys but with the fixed, unsalted seeds — every client
/// computes the same route for the same pixels no matter what plan its
/// servers run.
pub fn route_hash(img: &RgbImage) -> u64 {
    hash_image(img, SEED_LO, SEED_HI).lo
}

/// Snapshot file magic: the first four bytes of a persisted cache.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"IQCS";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Fixed snapshot header size: magic, version, reserved, salt fingerprint,
/// entry count.
pub const SNAPSHOT_HEADER_LEN: usize = 24;
/// Hard upper bound on one snapshot entry record (matches the wire
/// protocol's 64 MiB frame bound): a record declaring more is rejected
/// before any allocation.
pub const SNAPSHOT_MAX_RECORD_BYTES: usize = 64 << 20;

/// Figures from a snapshot save or warm load: how many entries and how many
/// label bytes crossed the file boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Entries written (save) or resident after the load.
    pub entries: usize,
    /// Label payload bytes written or loaded (4 bytes per pixel label).
    pub label_bytes: usize,
}

/// Everything that can make a snapshot unusable.  Every variant means the
/// same thing operationally: start cold.  Loading never panics and never
/// installs a partially-validated snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes do not form a valid snapshot (bad magic, truncation,
    /// inconsistent lengths, or a checksum mismatch).
    Corrupt(String),
    /// The snapshot declares an unsupported format version.
    BadVersion(u16),
    /// The snapshot was written under a different salt (plan spec), so its
    /// keys would never match this cache's lookups — loading it would be
    /// dead weight at best and a label-aliasing hazard at worst.
    SaltMismatch {
        /// The fingerprint this cache's salt produces.
        expected: u64,
        /// The fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot is corrupt: {why}"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::SaltMismatch { expected, found } => write!(
                f,
                "snapshot salt fingerprint {found:#018x} does not match this \
                 cache's {expected:#018x} (different plan spec)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// Incremental FNV-1a over the snapshot byte stream — the trailer checksum.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One cached segmentation.
#[derive(Debug)]
struct Entry {
    labels: Vec<u32>,
    width: usize,
    height: usize,
    /// LRU stamp; also the entry's key in the shard's recency index.
    stamp: u64,
}

impl Entry {
    fn charged_bytes(&self) -> usize {
        self.labels.len() * 4 + ENTRY_OVERHEAD_BYTES
    }
}

/// Counters and live figures for one shard (or, summed, the whole cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that found nothing (the caller then segments and inserts).
    pub misses: usize,
    /// Entries stored.
    pub insertions: usize,
    /// Entries evicted to make room under the byte budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget (labels + overhead).
    pub bytes: usize,
    /// The configured total byte budget.
    pub capacity_bytes: usize,
    /// Delta-path tiles answered from the cache (whole-cache figure; not
    /// counted into [`CacheStats::hits`], which tracks whole-image lookups).
    pub tile_hits: usize,
    /// Delta-path tiles that missed and were re-classified.
    pub tile_recomputed: usize,
}

impl CacheStats {
    fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.tile_hits += other.tile_hits;
        self.tile_recomputed += other.tile_recomputed;
    }
}

/// One mutex-guarded slice of the key space: a content-addressed map plus a
/// recency index ordered by LRU stamp.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// stamp → key, ordered oldest-first; eviction pops the first entry.
    recency: BTreeMap<u64, CacheKey>,
    bytes: usize,
    next_stamp: u64,
    hits: usize,
    misses: usize,
    insertions: usize,
    evictions: usize,
}

impl Shard {
    fn touch(&mut self, key: CacheKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            self.recency.remove(&entry.stamp);
            entry.stamp = stamp;
            self.recency.insert(stamp, key);
        }
    }

    /// Evicts least-recently-used entries until `needed` more bytes fit
    /// under `budget`.  The first evicted buffer that holds exactly
    /// `reuse_len` labels is handed back, so an insert of that size can copy
    /// into it instead of allocating; every other evicted buffer is freed.
    fn evict_for(&mut self, needed: usize, budget: usize, reuse_len: usize) -> Option<Vec<u32>> {
        let mut reusable = None;
        while self.bytes + needed > budget {
            let Some((&stamp, &key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&stamp);
            let entry = self
                .entries
                .remove(&key)
                .expect("recency index entries always exist in the map");
            self.bytes -= entry.charged_bytes();
            self.evictions += 1;
            if reusable.is_none() && entry.labels.len() == reuse_len {
                reusable = Some(entry.labels);
            }
        }
        reusable
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            ..CacheStats::default()
        }
    }
}

/// A sharded, content-addressed, byte-budgeted LRU cache of segmentations.
///
/// See the [module docs](self) for the design; build one through
/// [`CacheConfig`] (usually via `SegmentPipeline::with_cache`).
#[derive(Debug)]
pub struct SegmentCache {
    shards: Vec<Mutex<Shard>>,
    /// Each shard owns an equal slice of the total budget.
    shard_budget: usize,
    capacity_bytes: usize,
    seed_lo: u64,
    seed_hi: u64,
    /// Delta-path tiles served from cache.  Kept outside the shard counters
    /// (and outside `hits`/`misses`) so tile traffic and whole-image traffic
    /// stay separately attributable in every report.
    tile_hits: AtomicU64,
    /// Delta-path tiles that missed and were re-classified.
    tile_recomputed: AtomicU64,
}

impl SegmentCache {
    /// Builds a cache for `config`, salting the content hash with `salt`
    /// (callers pass the serialized segmentation strategy, e.g.
    /// `SegmentPlan::to_spec()`, so caches built for different strategies
    /// can never alias even if their buffers were somehow shared).
    ///
    /// `config.capacity_bytes` must be non-zero; gate on
    /// [`CacheConfig::enabled`] first.
    pub fn new(config: CacheConfig, salt: &str) -> Self {
        assert!(config.enabled(), "SegmentCache requires a non-zero budget");
        let shards = config.effective_shards();
        let salt_hash = fnv1a_64(salt.as_bytes());
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (config.capacity_bytes / shards).max(1),
            capacity_bytes: config.capacity_bytes,
            seed_lo: SEED_LO ^ salt_hash,
            seed_hi: SEED_HI ^ salt_hash.rotate_left(32),
            tile_hits: AtomicU64::new(0),
            tile_recomputed: AtomicU64::new(0),
        }
    }

    /// The content address of `img` under this cache's salt.
    pub fn key_for(&self, img: &RgbImage) -> CacheKey {
        hash_image(img, self.seed_lo, self.seed_hi)
    }

    /// The content address of one tile of an image under this cache's salt,
    /// for the per-tile delta path.
    ///
    /// `tile_w`/`tile_h` are the plan's *configured* tile geometry (edge
    /// tiles are smaller than this); the geometry is mixed into the seeds
    /// before any pixel, so tile keys from different tilings — and tile keys
    /// vs whole-image keys — can never alias even on identical pixel bytes.
    /// The view's own (clamped) dimensions are hashed next, then the pixels
    /// row by row, so the key depends only on the logical pixel sequence:
    /// the same tile content hashes identically wherever the view sits in
    /// its parent buffer and whatever that parent's stride is.  The tile's
    /// *position* is deliberately not part of the key — classification is
    /// per-pixel, so identical content segments identically anywhere in the
    /// frame, and content-only keys let a panning scene reuse tiles across
    /// positions.
    pub fn key_for_tile(
        &self,
        view: &ImageView<'_, Rgb<u8>>,
        tile_w: usize,
        tile_h: usize,
    ) -> CacheKey {
        let geometry = ((tile_w as u64) << 32) | tile_h as u64;
        let (width, height) = view.dimensions();
        let dims = ((width as u64) << 32) | height as u64;
        let mut hasher = ByteHasher::new(
            mix(mix(self.seed_lo, geometry), dims),
            mix(mix(self.seed_hi, geometry), dims),
        );
        for row in view.rows() {
            hasher.write(rgb_bytes(row));
        }
        hasher.finish()
    }

    /// Looks a tile key up and, on a hit, copies the cached labels straight
    /// into `dest` (a tile-shaped window over the caller's stitch buffer).
    /// Returns whether the copy happened.  An entry whose dimensions do not
    /// match `dest` is treated as a miss — the 128-bit key makes that
    /// practically impossible, but a dimension check costs nothing and keeps
    /// a collision from ever mis-stitching a frame.
    ///
    /// Counts into the cache-wide `tile_hits`/`tile_recomputed` figures, not
    /// the shard `hits`/`misses` (those track whole-image lookups).
    pub fn lookup_tile_into(&self, key: CacheKey, dest: &mut LabelViewMut<'_>) -> bool {
        let mut shard = self.shards[key.shard(self.shards.len())]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let hit = match shard.entries.get(&key) {
            Some(entry) if (entry.width, entry.height) == dest.dimensions() => {
                let width = entry.width;
                for y in 0..entry.height {
                    dest.row_mut(y)
                        .copy_from_slice(&entry.labels[y * width..(y + 1) * width]);
                }
                true
            }
            _ => false,
        };
        if hit {
            shard.touch(key);
        }
        drop(shard);
        if hit {
            self.tile_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.tile_recomputed.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores one re-classified tile's labels (row-major, `width × height`)
    /// under `key`.  Same byte-budget rules as [`SegmentCache::insert`].
    pub fn insert_tile(&self, key: CacheKey, labels: &[u32], width: usize, height: usize) {
        debug_assert_eq!(labels.len(), width * height);
        self.install(key, labels, width, height);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured total byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Looks `key` up; on a hit the cached labels are copied into a buffer
    /// taken from `arena` and returned as a fresh [`LabelMap`] — the cache
    /// keeps its own copy, so a later eviction can never touch the returned
    /// map.  Counts a hit or a miss either way.
    pub fn lookup(&self, key: CacheKey, arena: &LabelArena) -> Option<LabelMap> {
        let mut shard = self.shards[key.shard(self.shards.len())]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(entry) = shard.entries.get(&key) else {
            shard.misses += 1;
            return None;
        };
        let (width, height) = (entry.width, entry.height);
        let mut buf = arena.take();
        buf.clear();
        buf.extend_from_slice(&entry.labels);
        shard.hits += 1;
        shard.touch(key);
        drop(shard);
        Some(LabelMap::from_vec(width, height, buf).expect("cached labels match their dimensions"))
    }

    /// Stores a finished segmentation under `key` as an exact-size copy.
    /// Entries evicted to make room, and any replaced duplicate, are freed
    /// (or, for one evicted entry of the same size, refilled as the new
    /// entry).  An entry larger than one shard's whole budget is not stored.
    pub fn insert(&self, key: CacheKey, labels: &LabelMap) {
        let (width, height) = labels.dimensions();
        self.install(key, labels.as_slice(), width, height);
    }

    /// Whether an entry of `labels` labels fits within one shard's budget.
    fn fits(&self, labels: usize) -> bool {
        labels * 4 + ENTRY_OVERHEAD_BYTES <= self.shard_budget
    }

    /// Stores an exact-size copy of `labels` under `key`, evicting
    /// least-recently-used entries to make room.  Room is made first: when
    /// that evicts an entry of the same size, its buffer takes the copy, so
    /// a steady stream of same-shape inserts neither allocates nor
    /// fragments the heap.  The copy runs between the two lock holds, so
    /// concurrent misses on one shard serialise only on the bookkeeping.
    fn install(&self, key: CacheKey, labels: &[u32], width: usize, height: usize) {
        if !self.fits(labels.len()) {
            return;
        }
        let charged = labels.len() * 4 + ENTRY_OVERHEAD_BYTES;
        let shard = &self.shards[key.shard(self.shards.len())];
        let recycled = shard.lock().unwrap_or_else(|e| e.into_inner()).evict_for(
            charged,
            self.shard_budget,
            labels.len(),
        );
        let buf = match recycled {
            Some(mut buf) => {
                buf.copy_from_slice(labels);
                buf
            }
            None => labels.to_vec(),
        };
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = shard.entries.remove(&key) {
            // Two threads raced to segment the same image; keep one copy.
            shard.recency.remove(&existing.stamp);
            shard.bytes -= existing.charged_bytes();
        }
        // Concurrent inserts may have refilled the room made above; any
        // buffer this second pass evicts is freed.
        drop(shard.evict_for(charged, self.shard_budget, labels.len()));
        let stamp = shard.next_stamp;
        shard.next_stamp += 1;
        shard.recency.insert(stamp, key);
        shard.bytes += charged;
        shard.insertions += 1;
        shard.entries.insert(
            key,
            Entry {
                labels: buf,
                width,
                height,
                stamp,
            },
        );
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            capacity_bytes: self.capacity_bytes,
            tile_hits: self.tile_hits.load(Ordering::Relaxed) as usize,
            tile_recomputed: self.tile_recomputed.load(Ordering::Relaxed) as usize,
            ..CacheStats::default()
        };
        for stats in self.shard_stats() {
            total.absorb(&stats);
        }
        total
    }

    /// Per-shard counters, in shard order (each reports `capacity_bytes` 0;
    /// the budget is a whole-cache figure).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(|e| e.into_inner()).stats())
            .collect()
    }

    /// The fingerprint of this cache's salt as recorded in snapshots.  The
    /// seeds are `SEED_LO ^ fnv1a(salt)` by construction, so the salt hash
    /// is recoverable without retaining the salt string itself.
    fn salt_fingerprint(&self) -> u64 {
        self.seed_lo ^ SEED_LO
    }

    /// Writes a versioned, checksummed snapshot of every resident entry to
    /// `path`, using the same length-prefixed framing discipline as the wire
    /// protocol: a fixed header (magic, version, salt fingerprint, entry
    /// count), one length-prefixed record per entry (key, dimensions, label
    /// bytes, all little-endian), and a trailing FNV-1a checksum over every
    /// preceding byte.
    ///
    /// The snapshot is written to a `.tmp` sibling and renamed into place,
    /// so a crash mid-save leaves any previous snapshot intact and never a
    /// half-written file under `path`.
    pub fn save_to(&self, path: &Path) -> Result<SnapshotStats, SnapshotError> {
        let tmp = path.with_extension("tmp");
        let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
        let mut sum = Fnv64::new();
        let mut put = |file: &mut io::BufWriter<std::fs::File>, bytes: &[u8]| -> io::Result<()> {
            sum.update(bytes);
            file.write_all(bytes)
        };

        // Header.  The entry count requires a pass over the shards first;
        // shard locks are taken one at a time, so a concurrent insert can
        // change the count between the two passes — snapshot under load is
        // best-effort, which is fine because saves run on the drain path
        // when traffic has already stopped.  To stay safe anyway, entries
        // are counted and serialized in one pass into a per-shard buffer.
        let mut body = Vec::new();
        let mut stats = SnapshotStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, entry) in &shard.entries {
                let record_len = 8 + 8 + 4 + 4 + entry.labels.len() * 4;
                body.extend_from_slice(&(record_len as u32).to_le_bytes());
                body.extend_from_slice(&key.lo.to_le_bytes());
                body.extend_from_slice(&key.hi.to_le_bytes());
                body.extend_from_slice(&(entry.width as u32).to_le_bytes());
                body.extend_from_slice(&(entry.height as u32).to_le_bytes());
                for label in &entry.labels {
                    body.extend_from_slice(&label.to_le_bytes());
                }
                stats.entries += 1;
                stats.label_bytes += entry.labels.len() * 4;
            }
        }
        let mut header = [0u8; SNAPSHOT_HEADER_LEN];
        header[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        header[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        // Bytes 6..8 are reserved (zero).
        header[8..16].copy_from_slice(&self.salt_fingerprint().to_le_bytes());
        header[16..24].copy_from_slice(&(stats.entries as u64).to_le_bytes());
        put(&mut file, &header)?;
        put(&mut file, &body)?;
        let trailer = sum.0.to_le_bytes();
        file.write_all(&trailer)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(stats)
    }

    /// Warm-loads a snapshot previously written by [`SegmentCache::save_to`]
    /// into this cache.
    ///
    /// The whole file is validated — magic, version, salt fingerprint,
    /// per-record framing, and the trailing checksum — *before* a single
    /// entry is installed, so a truncated, corrupted, or wrong-salt snapshot
    /// is a typed error and a clean cold start, never a partially-loaded
    /// cache and never a wrong label.  Entries are installed through the
    /// normal insert path, so the byte budget and LRU rules apply: loading
    /// a big snapshot into a small cache keeps the budget's worth and drops
    /// the rest.
    pub fn load_from(&self, path: &Path) -> Result<SnapshotStats, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let corrupt = |why: String| SnapshotError::Corrupt(why);
        if bytes.len() < SNAPSHOT_HEADER_LEN + 8 {
            return Err(corrupt(format!(
                "{} bytes is shorter than header plus checksum",
                bytes.len()
            )));
        }
        if bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(corrupt(format!("bad magic {:?}", &bytes[0..4])));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let expected = self.salt_fingerprint();
        if found != expected {
            return Err(SnapshotError::SaltMismatch { expected, found });
        }
        let declared = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));

        // Checksum covers everything up to the 8-byte trailer.
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut sum = Fnv64::new();
        sum.update(body);
        let recorded = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
        if sum.0 != recorded {
            return Err(corrupt(format!(
                "checksum {recorded:#018x} does not match computed {:#018x}",
                sum.0
            )));
        }

        // Parse every record fully before touching the cache.
        let mut records: Vec<(CacheKey, usize, usize, &[u8])> = Vec::new();
        let mut cursor = &body[SNAPSHOT_HEADER_LEN..];
        while !cursor.is_empty() {
            if cursor.len() < 4 {
                return Err(corrupt("dangling record length prefix".to_string()));
            }
            let record_len =
                u32::from_le_bytes(cursor[0..4].try_into().expect("4-byte slice")) as usize;
            if record_len > SNAPSHOT_MAX_RECORD_BYTES {
                return Err(corrupt(format!(
                    "record of {record_len} bytes exceeds the \
                     {SNAPSHOT_MAX_RECORD_BYTES}-byte limit"
                )));
            }
            cursor = &cursor[4..];
            if cursor.len() < record_len {
                return Err(corrupt(format!(
                    "record declares {record_len} bytes, only {} remain",
                    cursor.len()
                )));
            }
            let (record, rest) = cursor.split_at(record_len);
            cursor = rest;
            if record.len() < 24 {
                return Err(corrupt(format!(
                    "record of {} bytes is shorter than its fixed fields",
                    record.len()
                )));
            }
            let key = CacheKey {
                lo: u64::from_le_bytes(record[0..8].try_into().expect("8-byte slice")),
                hi: u64::from_le_bytes(record[8..16].try_into().expect("8-byte slice")),
            };
            let width =
                u32::from_le_bytes(record[16..20].try_into().expect("4-byte slice")) as usize;
            let height =
                u32::from_le_bytes(record[20..24].try_into().expect("4-byte slice")) as usize;
            let label_bytes = &record[24..];
            let pixels = width
                .checked_mul(height)
                .ok_or_else(|| corrupt(format!("dimensions {width}x{height} overflow")))?;
            if label_bytes.len() != pixels * 4 {
                return Err(corrupt(format!(
                    "record carries {} label bytes for {width}x{height} \
                     (expected {})",
                    label_bytes.len(),
                    pixels * 4
                )));
            }
            records.push((key, width, height, label_bytes));
        }
        if records.len() as u64 != declared {
            return Err(corrupt(format!(
                "header declares {declared} entries, found {}",
                records.len()
            )));
        }

        // Everything checks out: install through the normal insert path so
        // budget and LRU rules hold.
        let mut stats = SnapshotStats::default();
        for (key, width, height, label_bytes) in records {
            let labels: Vec<u32> = label_bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            // Entries the budget would refuse (larger than one shard's whole
            // slice) are skipped by `install` and not counted as loaded.
            if self.fits(labels.len()) {
                stats.entries += 1;
                stats.label_bytes += labels.len() * 4;
            }
            self.install(key, &labels, width, height);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;

    fn image(seed: u8, w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, move |x, y| {
            Rgb::new(
                (x * 3 + seed as usize) as u8,
                (y * 5) as u8,
                ((x ^ y) * 7) as u8,
            )
        })
    }

    fn labels_for(img: &RgbImage, fill: u32) -> LabelMap {
        LabelMap::from_vec(img.width(), img.height(), vec![fill; img.len()]).unwrap()
    }

    fn small_cache(capacity: usize, shards: usize) -> SegmentCache {
        SegmentCache::new(
            CacheConfig {
                capacity_bytes: capacity,
                shards,
            },
            "classifier=table;tile=off;backend=serial",
        )
    }

    #[test]
    fn lookup_after_insert_returns_byte_identical_labels() {
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 4);
        let img = image(1, 16, 12);
        let labels = labels_for(&img, 3);
        let key = cache.key_for(&img);
        assert!(cache.lookup(key, &arena).is_none(), "cold cache misses");
        cache.insert(key, &labels);
        let hit = cache.lookup(key, &arena).expect("warm cache hits");
        assert_eq!(hit, labels);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes >= img.len() * 4);
        assert_eq!(stats.capacity_bytes, 1 << 20);
    }

    #[test]
    fn keys_are_content_addressed_and_salted() {
        let cache = small_cache(1 << 20, 4);
        let img = image(1, 16, 12);
        assert_eq!(cache.key_for(&img), cache.key_for(&img.clone()));
        // A single-byte difference changes the key.
        let mut other = img.clone();
        other.set(3, 4, Rgb::new(255, 0, 0));
        assert_ne!(cache.key_for(&img), cache.key_for(&other));
        // Same pixel bytes, different dimensions → different key.
        let wide = RgbImage::from_vec(img.len(), 1, img.as_slice().to_vec()).unwrap();
        assert_ne!(cache.key_for(&img), cache.key_for(&wide));
        // Same content, different salt (plan spec) → different key.
        let other_salt = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=exact;tile=off;backend=serial",
        );
        assert_ne!(cache.key_for(&img), other_salt.key_for(&img));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let arena = LabelArena::new();
        let entry_bytes = 8 * 8 * 4 + ENTRY_OVERHEAD_BYTES;
        // One shard that fits exactly two entries.
        let cache = small_cache(entry_bytes * 2, 1);
        let imgs: Vec<RgbImage> = (0..3).map(|i| image(i as u8, 8, 8)).collect();
        let keys: Vec<CacheKey> = imgs.iter().map(|img| cache.key_for(img)).collect();
        cache.insert(keys[0], &labels_for(&imgs[0], 0));
        cache.insert(keys[1], &labels_for(&imgs[1], 1));
        assert_eq!(cache.stats().entries, 2);
        // Touch entry 0 so entry 1 is the LRU, then overflow the budget.
        assert!(cache.lookup(keys[0], &arena).is_some());
        let labels_ptr = |key: CacheKey| {
            cache.shards[0].lock().unwrap().entries[&key]
                .labels
                .as_ptr()
        };
        let evicted = labels_ptr(keys[1]);
        cache.insert(keys[2], &labels_for(&imgs[2], 2));
        assert_eq!(
            labels_ptr(keys[2]),
            evicted,
            "a same-size insert copies into the evicted entry's buffer"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= entry_bytes * 2, "{stats:?}");
        assert!(cache.lookup(keys[1], &arena).is_none(), "LRU entry evicted");
        assert!(
            cache.lookup(keys[0], &arena).is_some(),
            "touched entry kept"
        );
        assert!(
            cache.lookup(keys[2], &arena).is_some(),
            "new entry resident"
        );
        // Evicted entries are freed, never pooled.
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn entries_larger_than_a_shard_budget_are_not_stored() {
        let arena = LabelArena::new();
        let cache = small_cache(256, 1);
        let img = image(0, 32, 32); // 4 KiB of labels ≫ 256-byte budget
        let key = cache.key_for(&img);
        cache.insert(key, &labels_for(&img, 1));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(key, &arena).is_none());
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = small_cache(8 << 20, 8);
        for i in 0..64u8 {
            let img = image(i, 8, 8);
            cache.insert(cache.key_for(&img), &labels_for(&img, i as u32));
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 8);
        let populated = per_shard.iter().filter(|s| s.entries > 0).count();
        assert!(
            populated >= 6,
            "64 distinct keys should land in most of 8 shards, got {populated}: {per_shard:?}"
        );
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            cache.stats().entries
        );
    }

    #[test]
    fn duplicate_insert_keeps_one_copy_and_frees_the_other() {
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 1);
        let img = image(3, 8, 8);
        let key = cache.key_for(&img);
        cache.insert(key, &labels_for(&img, 1));
        let bytes_before = cache.stats().bytes;
        cache.insert(key, &labels_for(&img, 1));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, bytes_before);
        assert_eq!(stats.insertions, 2);
        // The replaced duplicate is freed; the arena is never involved.
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.allocations() + arena.reuses(), 0);
    }

    /// Summed heap capacity of every resident entry.
    fn resident_capacity(cache: &SegmentCache) -> usize {
        cache
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().unwrap();
                shard
                    .entries
                    .values()
                    .map(|e| e.labels.capacity() * 4 + ENTRY_OVERHEAD_BYTES)
                    .sum::<usize>()
            })
            .sum()
    }

    #[test]
    fn entries_pin_exactly_the_label_bytes_they_are_charged_for() {
        // A frame-sized buffer sits in the arena, as it does in a serving
        // pipeline between requests.  A tile insert must not adopt it.
        let arena = LabelArena::with_warm_buffers(1, 256 * 192);
        let budget = 64 << 10;
        let cache = small_cache(budget, 2);
        let img = image(1, 40, 30);
        let tile = img.view(imaging::TileRect::new(0, 0, 16, 16)).unwrap();
        let key = cache.key_for_tile(&tile, 16, 16);
        cache.insert_tile(key, &[3; 16 * 16], 16, 16);
        {
            let shard = cache.shards[key.shard(2)].lock().unwrap();
            let entry = &shard.entries[&key];
            assert_eq!(entry.labels.capacity(), entry.labels.len());
        }
        assert_eq!(arena.pooled(), 1, "the frame buffer stays in the arena");

        // A mixed stream of whole-image and tile inserts, with hit copy-outs
        // recycled through the arena, never pins more than the budget.
        for i in 0..200u32 {
            let (w, h) = [(8, 8), (20, 10), (16, 16), (33, 7)][i as usize % 4];
            let img = image(i as u8, w, h);
            if i % 3 == 0 {
                let view = img.view(imaging::TileRect::new(0, 0, w, h)).unwrap();
                let labels = vec![i; w * h];
                cache.insert_tile(cache.key_for_tile(&view, w, h), &labels, w, h);
            } else {
                let key = cache.key_for(&img);
                cache.insert(key, &labels_for(&img, i));
                if let Some(hit) = cache.lookup(key, &arena) {
                    arena.recycle(hit);
                }
            }
            assert!(cache.stats().bytes <= budget);
            assert!(resident_capacity(&cache) <= budget, "after insert {i}");
        }
        assert!(
            cache.stats().evictions > 0,
            "the stream overflowed the budget"
        );
    }

    #[test]
    fn eviction_under_concurrency_never_corrupts_returned_maps() {
        // A tiny budget forces constant eviction while many threads hit the
        // same shard set; every returned map must still carry exactly the
        // bytes that were inserted for its image.
        let arena = LabelArena::new();
        let entry_bytes = 8 * 8 * 4 + ENTRY_OVERHEAD_BYTES;
        let cache = small_cache(entry_bytes * 4, 2);
        let imgs: Vec<RgbImage> = (0..16).map(|i| image(i as u8, 8, 8)).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let arena = &arena;
                let imgs = &imgs;
                scope.spawn(move || {
                    for round in 0..50 {
                        let img = &imgs[(t * 7 + round * 3) % imgs.len()];
                        let expected = ((t * 7 + round * 3) % imgs.len()) as u32;
                        let key = cache.key_for(img);
                        match cache.lookup(key, arena) {
                            Some(map) => {
                                assert_eq!(map.dimensions(), img.dimensions());
                                assert!(map.as_slice().iter().all(|&l| l == expected));
                                arena.recycle(map);
                            }
                            None => {
                                let labels = LabelMap::from_vec(
                                    img.width(),
                                    img.height(),
                                    vec![expected; img.len()],
                                )
                                .unwrap();
                                cache.insert(key, &labels);
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "tiny budget must have evicted: {stats:?}"
        );
        assert!(stats.bytes <= entry_bytes * 4);
    }

    #[test]
    fn tile_keys_depend_only_on_logical_pixel_content() {
        use imaging::TileRect;
        let cache = small_cache(1 << 20, 4);
        // The same 6x4 pixel content planted at two different offsets in two
        // differently-sized parents (different strides).
        let content = |x: usize, y: usize| Rgb::new((x * 11) as u8, (y * 13) as u8, (x ^ y) as u8);
        let a = RgbImage::from_fn(40, 30, |x, y| {
            if (3..9).contains(&x) && (5..9).contains(&y) {
                content(x - 3, y - 5)
            } else {
                Rgb::new(255, 255, 255)
            }
        });
        let b = RgbImage::from_fn(17, 21, |x, y| {
            if (10..16).contains(&x) && (2..6).contains(&y) {
                content(x - 10, y - 2)
            } else {
                Rgb::new(0, 0, 0)
            }
        });
        let va = a.view(TileRect::new(3, 5, 6, 4)).unwrap();
        let vb = b.view(TileRect::new(10, 2, 6, 4)).unwrap();
        let key = cache.key_for_tile(&va, 8, 8);
        assert_eq!(
            key,
            cache.key_for_tile(&vb, 8, 8),
            "same content, different offset/stride → same key"
        );
        // A one-pixel difference changes the key.
        let mut c = a.clone();
        c.set(4, 6, Rgb::new(99, 99, 99));
        let vc = c.view(TileRect::new(3, 5, 6, 4)).unwrap();
        assert_ne!(key, cache.key_for_tile(&vc, 8, 8));
        // Distinct configured tile geometry → distinct key for identical
        // content, and a tile key never aliases the whole-image key.
        assert_ne!(key, cache.key_for_tile(&va, 16, 16));
        assert_ne!(key, cache.key_for_tile(&va, 8, 16));
        let tile_img = RgbImage::from_fn(6, 4, content);
        let whole_view = tile_img.view(TileRect::new(0, 0, 6, 4)).unwrap();
        assert_eq!(key, cache.key_for_tile(&whole_view, 8, 8));
        assert_ne!(
            cache.key_for(&tile_img),
            key,
            "geometry salt separates tile keys from whole-image keys"
        );
        // Distinct plan salt → distinct tile key.
        let other_salt = small_cache(1 << 20, 4);
        let other_plan = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=simd;tile=off;backend=serial",
        );
        assert_eq!(key, other_salt.key_for_tile(&va, 8, 8));
        assert_ne!(key, other_plan.key_for_tile(&va, 8, 8));
    }

    #[test]
    fn tile_lookup_stitches_into_a_window_and_counts_separately() {
        use imaging::TileRect;
        let cache = small_cache(1 << 20, 2);
        let img = image(7, 20, 10);
        let rect = TileRect::new(8, 4, 6, 5);
        let view = img.view(rect).unwrap();
        let key = cache.key_for_tile(&view, 8, 8);
        let tile_labels: Vec<u32> = (0..30).collect();

        let mut stitch = vec![u32::MAX; img.len()];
        let mut dest = LabelViewMut::new(&mut stitch, img.width(), rect).unwrap();
        assert!(!cache.lookup_tile_into(key, &mut dest), "cold tile misses");
        cache.insert_tile(key, &tile_labels, 6, 5);
        let mut dest = LabelViewMut::new(&mut stitch, img.width(), rect).unwrap();
        assert!(cache.lookup_tile_into(key, &mut dest), "warm tile hits");
        // The copy landed exactly inside the window.
        for y in 0..5 {
            for x in 0..6 {
                assert_eq!(stitch[(4 + y) * img.width() + 8 + x], (y * 6 + x) as u32);
            }
        }
        assert_eq!(
            stitch.iter().filter(|&&l| l == u32::MAX).count(),
            img.len() - 30,
            "labels outside the window untouched"
        );
        let stats = cache.stats();
        assert_eq!((stats.tile_hits, stats.tile_recomputed), (1, 1));
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "tile traffic stays out of the whole-image counters"
        );
        assert_eq!(stats.insertions, 1);

        // A dimension mismatch is a (counted) miss, never a mis-stitch.
        let mut wrong = vec![0u32; 36];
        let mut wrong_dest = LabelViewMut::contiguous(&mut wrong, 6, 6).unwrap();
        assert!(!cache.lookup_tile_into(key, &mut wrong_dest));
        assert_eq!(cache.stats().tile_recomputed, 2);
    }

    #[test]
    fn config_helpers() {
        assert!(!CacheConfig::default().enabled());
        let config = CacheConfig::with_capacity_mb(64);
        assert!(config.enabled());
        assert_eq!(config.capacity_bytes, 64 << 20);
        assert_eq!(config.effective_shards(), DEFAULT_SHARDS);
        assert_eq!(
            CacheConfig {
                shards: 3,
                ..config
            }
            .effective_shards(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "non-zero budget")]
    fn zero_budget_cache_is_a_construction_error() {
        let _ = SegmentCache::new(CacheConfig::default(), "");
    }

    /// A scratch path under the target-adjacent temp dir, unique per test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("iqft-cache-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.snap", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_byte_identical_labels() {
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 4);
        let imgs: Vec<RgbImage> = (0..10).map(|i| image(i as u8, 12, 9)).collect();
        for (i, img) in imgs.iter().enumerate() {
            cache.insert(cache.key_for(img), &labels_for(img, i as u32));
        }
        let path = scratch("round-trip");
        let saved = cache.save_to(&path).unwrap();
        assert_eq!(saved.entries, 10);
        assert_eq!(saved.label_bytes, 10 * 12 * 9 * 4);

        let warm = small_cache(1 << 20, 2); // different shard count is fine
        let loaded = warm.load_from(&path).unwrap();
        assert_eq!(loaded, saved);
        for (i, img) in imgs.iter().enumerate() {
            let hit = warm
                .lookup(warm.key_for(img), &arena)
                .expect("warm-loaded entry hits");
            assert_eq!(hit, labels_for(img, i as u32), "image {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_corrupted_snapshots_are_a_clean_cold_start() {
        let cache = small_cache(1 << 20, 4);
        let img = image(5, 16, 16);
        cache.insert(cache.key_for(&img), &labels_for(&img, 9));
        let path = scratch("corrupt");
        cache.save_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Every truncation point — including mid-header and mid-record —
        // yields a typed error and an empty cache, never a panic.
        for cut in [
            0,
            3,
            SNAPSHOT_HEADER_LEN - 1,
            SNAPSHOT_HEADER_LEN + 10,
            good.len() - 1,
        ] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let warm = small_cache(1 << 20, 4);
            assert!(warm.load_from(&path).is_err(), "cut at {cut} must fail");
            assert_eq!(warm.stats().entries, 0, "cut at {cut} must load nothing");
        }

        // A single flipped payload byte fails the checksum before any entry
        // is installed.
        let mut flipped = good.clone();
        let mid = SNAPSHOT_HEADER_LEN + 30;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let warm = small_cache(1 << 20, 4);
        match warm.load_from(&path) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        assert_eq!(warm.stats().entries, 0);

        // Bad magic and future versions are typed errors too.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            warm.load_from(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        // Version 1 snapshots carry keys from the previous content hasher,
        // which can never match again: they are refused like any other
        // unsupported version.
        for version in [1u16, 9] {
            let mut bad_version = good.clone();
            bad_version[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bad_version).unwrap();
            match warm.load_from(&path) {
                Err(err @ SnapshotError::BadVersion(v)) if v == version => {
                    assert!(err.to_string().contains(&format!("version {version}")))
                }
                other => panic!("expected BadVersion({version}), got {other:?}"),
            }
            assert_eq!(warm.stats().entries, 0);
        }
        // A missing file is an i/o error, not a panic.
        assert!(matches!(
            warm.load_from(Path::new("/nonexistent/iqft.snap")),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salt_mismatched_snapshot_refuses_to_load() {
        let cache = small_cache(1 << 20, 4);
        let img = image(2, 8, 8);
        cache.insert(cache.key_for(&img), &labels_for(&img, 4));
        let path = scratch("salt");
        cache.save_to(&path).unwrap();

        // A cache built for a different plan spec must start cold: its salted
        // keys would never match the snapshot's anyway, and loading foreign
        // keys would waste the budget on unreachable entries.
        let other = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=simd;tile=32x32;backend=threads:4",
        );
        assert!(matches!(
            other.load_from(&path),
            Err(SnapshotError::SaltMismatch { .. })
        ));
        assert_eq!(other.stats().entries, 0);
        // The matching salt still loads.
        let same = small_cache(1 << 20, 4);
        assert_eq!(same.load_from(&path).unwrap().entries, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loading_into_a_smaller_cache_respects_the_byte_budget() {
        let big = small_cache(1 << 20, 1);
        let imgs: Vec<RgbImage> = (0..8).map(|i| image(i as u8, 8, 8)).collect();
        for (i, img) in imgs.iter().enumerate() {
            big.insert(big.key_for(img), &labels_for(img, i as u32));
        }
        let path = scratch("budget");
        assert_eq!(big.save_to(&path).unwrap().entries, 8);

        // Room for exactly two entries: the load keeps the budget's worth.
        let entry_bytes = 8 * 8 * 4 + ENTRY_OVERHEAD_BYTES;
        let tiny = small_cache(entry_bytes * 2, 1);
        let loaded = tiny.load_from(&path).unwrap();
        assert_eq!(loaded.entries, 8, "all records fit one-at-a-time");
        let stats = tiny.stats();
        assert_eq!(stats.entries, 2, "budget holds only two");
        assert!(stats.bytes <= entry_bytes * 2);
        assert!(stats.evictions >= 6);
        std::fs::remove_file(&path).ok();
    }

    /// The fixed 7×3 image and salt the golden-value test pins.
    fn golden_image() -> RgbImage {
        RgbImage::from_fn(7, 3, |x, y| {
            Rgb::new(
                (x * 37 + y * 11) as u8,
                (x * y * 5 + 3) as u8,
                (255 - x * 19 - y) as u8,
            )
        })
    }

    /// Pins the content hasher's output.  Keys are persisted in snapshots
    /// and routes decide fleet placement on every client, so a change to
    /// any of these values changes what a persisted key means: it requires
    /// a `SNAPSHOT_VERSION` bump (and moves every route).
    #[test]
    fn hasher_golden_values_are_pinned() {
        let cache = small_cache(1 << 20, 4);
        let img = golden_image();
        let key = cache.key_for(&img);
        let view = img.view(imaging::TileRect::new(2, 1, 4, 2)).unwrap();
        let tile = cache.key_for_tile(&view, 4, 4);
        let got = [key.lo, key.hi, tile.lo, tile.hi, route_hash(&img)];
        let pinned = [
            0xaa1e_8800_91fc_e7b3,
            0x8088_d271_0b7d_7fd8,
            0x8803_3f5d_0f00_98e9,
            0xea1e_24c3_6aa5_acd7,
            0x8494_94fc_4bfc_f0da,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
        assert_eq!(SNAPSHOT_VERSION, 2);
    }

    #[test]
    fn byte_hasher_is_split_invariant() {
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 73 + 19) as u8).collect();
        let whole = |bytes: &[u8]| {
            let mut hasher = ByteHasher::new(SEED_LO, SEED_HI);
            hasher.write(bytes);
            hasher.finish()
        };
        let reference = whole(&bytes);
        for cut in 0..=bytes.len() {
            let mut hasher = ByteHasher::new(SEED_LO, SEED_HI);
            hasher.write(&bytes[..cut]);
            hasher.write(&bytes[cut..]);
            assert_eq!(hasher.finish(), reference, "split at {cut}");
        }
        for chunk in 1..=BLOCK + 1 {
            let mut hasher = ByteHasher::new(SEED_LO, SEED_HI);
            for piece in bytes.chunks(chunk) {
                hasher.write(piece);
            }
            assert_eq!(hasher.finish(), reference, "{chunk}-byte pieces");
        }
        // Every prefix hashes differently, including the zero-padded tail
        // against real trailing zero bytes.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_ne!(whole(&padded), reference);
        assert_ne!(whole(&bytes[..99]), reference);
    }

    #[test]
    fn changing_any_single_byte_changes_the_key() {
        let cache = small_cache(1 << 20, 4);
        let img = golden_image();
        let key = cache.key_for(&img);
        for i in 0..img.len() {
            for channel in 0..3 {
                let mut changed = img.clone();
                let mut px = changed.as_slice()[i];
                px.0[channel] ^= 0x01;
                changed.set(i % 7, i / 7, px);
                assert_ne!(cache.key_for(&changed), key, "pixel {i} channel {channel}");
            }
        }

        // A 6×4 view inside a wider parent: 18 bytes per row, so rows
        // straddle block boundaries and the last bytes sit in the tail.
        let parent = image(4, 11, 7);
        let rect = imaging::TileRect::new(3, 2, 6, 4);
        let tile_key = cache.key_for_tile(&parent.view(rect).unwrap(), 8, 8);
        for y in 0..parent.height() {
            for x in 0..parent.width() {
                for channel in 0..3 {
                    let mut changed = parent.clone();
                    let mut px = changed.get(x, y);
                    px.0[channel] ^= 0x80;
                    changed.set(x, y, px);
                    let got = cache.key_for_tile(&changed.view(rect).unwrap(), 8, 8);
                    let inside = (3..9).contains(&x) && (2..6).contains(&y);
                    assert_eq!(got != tile_key, inside, "({x}, {y}) channel {channel}");
                }
            }
        }
    }

    #[test]
    fn route_hash_is_content_addressed_and_salt_free() {
        let img = image(1, 16, 12);
        assert_eq!(route_hash(&img), route_hash(&img.clone()));
        let mut other = img.clone();
        other.set(3, 4, Rgb::new(255, 0, 0));
        assert_ne!(route_hash(&img), route_hash(&other));
        // Routing ignores the plan salt entirely — both ends of a fleet
        // agree on placement regardless of the plan each daemon runs.
        let a = small_cache(1 << 20, 4);
        let b = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=exact;tile=off;backend=serial",
        );
        assert_ne!(a.key_for(&img), b.key_for(&img));
        assert_eq!(route_hash(&img), route_hash(&img));
    }
}
