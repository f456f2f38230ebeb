//! Epoch-keyed cache of prepared images.
//!
//! Fleet provisioning runs in *waves*: the same firmware is packaged
//! for batch after batch of devices, often interleaved with other
//! images. [`SoftwareSource::prepare_image`] is the device-independent
//! half of that work (payload assembly, coverage-map construction,
//! segment-leaf hashing) — identical for every wave that shares an
//! image and an [`EncryptionConfig`], so repeating it per wave is pure
//! waste. [`PreparedImageCache`] memoizes it.
//!
//! Entries are found by **exact match**, so a lookup hashes nothing.
//! An entry keeps the configuration it was prepared under (key epoch
//! included) and, where `prepare_image` reads them, the image's
//! instruction boundaries; its [`PreparedImage`] holds the payload and
//! geometry. That gives the two invalidation rules for free:
//!
//! * **Source change** — a rebuilt image differs from every entry in
//!   some byte or field, so a stale preparation can never be served
//!   for new bytes. This rests on equality, not on a hash.
//! * **Credential rotation** — the epoch is part of the configuration,
//!   so a rotated fleet naturally misses;
//!   [`PreparedImageCache::invalidate_stale_epochs`] additionally
//!   purges the dead entries so they stop occupying capacity (and a
//!   stale-epoch credential is still rejected at packaging time — the
//!   cache can only ever *skip preparation*, never widen what a
//!   credential can decrypt).
//!
//! Entries are `Arc<PreparedImage>`, so a hit is a pointer clone; the
//! entries are guarded by a [`Mutex`], and the least-recently-used one
//! is evicted beyond a fixed capacity.

use super::daemon::lock_clean;
use crate::config::{EncryptionConfig, EncryptionMode};
use crate::error::EricError;
use crate::source::{PreparedImage, SoftwareSource};
use eric_asm::image::InstBoundary;
use eric_asm::Image;
use std::sync::{Arc, Mutex};

/// Aggregate counters of one cache's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without running `prepare_image`.
    pub hits: u64,
    /// Lookups that had to prepare (and then populated the cache).
    pub misses: u64,
    /// Entries dropped to make room (least-recently-used first).
    pub evictions: u64,
    /// Entries purged by explicit epoch invalidation.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// The result of one [`PreparedImageCache::get_or_prepare`] lookup.
#[derive(Clone, Debug)]
pub struct CacheLookup {
    /// The shared, immutable prepared image.
    pub prepared: Arc<PreparedImage>,
    /// `true` when the preparation was served from cache — no
    /// `prepare_image` ran for this lookup.
    pub hit: bool,
}

struct Entry {
    config: EncryptionConfig,
    /// The boundaries `prepare_image` read ([`boundaries_read`]).
    boundaries: Vec<InstBoundary>,
    prepared: Arc<PreparedImage>,
    last_used: u64,
}

impl Entry {
    /// Whether this entry is the preparation of `image` × `config`:
    /// the cheap fields first, then the payload byte for byte (a slice
    /// comparison checks the lengths before any byte).
    fn matches(&self, image: &Image, config: &EncryptionConfig) -> bool {
        let p = &self.prepared;
        let (text, data) = p.payload.split_at(p.text_len as usize);
        self.config == *config
            && (p.text_base, p.data_base, p.entry)
                == (image.text_base, image.data_base, image.entry)
            && text == image.text
            && data == image.data
            && self.boundaries == boundaries_read(image, config)
    }
}

/// The instruction boundaries `prepare_image` reads under `config`:
/// all of them for a partial map or the field-level compressed-image
/// check, none for full encryption.
fn boundaries_read<'a>(image: &'a Image, config: &EncryptionConfig) -> &'a [InstBoundary] {
    match config.mode {
        EncryptionMode::Full => &[],
        _ => &image.boundaries,
    }
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// A bounded, thread-safe, epoch-keyed memo of
/// [`SoftwareSource::prepare_image`] results.
///
/// # Examples
///
/// ```
/// use eric_core::{EncryptionConfig, PreparedImageCache, SoftwareSource};
/// use std::sync::Arc;
///
/// let source = SoftwareSource::new("vendor");
/// let cache = PreparedImageCache::new(4);
/// let image = source
///     .compile("main:\n li a0, 0\n li a7, 93\n ecall\n", false)
///     .unwrap();
///
/// let config = EncryptionConfig::full();
/// let miss = cache.get_or_prepare(&source, &image, &config).unwrap();
/// let hit = cache.get_or_prepare(&source, &image, &config).unwrap();
/// assert!(!miss.hit);
/// assert!(hit.hit);
/// assert!(Arc::ptr_eq(&miss.prepared, &hit.prepared)); // shared, not re-prepared
///
/// // A rotated key epoch is a different configuration: no stale reuse.
/// let rotated = config.with_epoch(1);
/// assert!(!cache.get_or_prepare(&source, &image, &rotated).unwrap().hit);
/// assert_eq!(cache.invalidate_stale_epochs(1), 1); // epoch-0 entry purged
/// ```
pub struct PreparedImageCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PreparedImageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PreparedImageCache {{ {}/{} entries, {} hits, {} misses }}",
            s.entries, self.capacity, s.hits, s.misses
        )
    }
}

impl PreparedImageCache {
    /// A cache holding at most `capacity` prepared images (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        PreparedImageCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up the preparation for `image` × `config`, running
    /// [`SoftwareSource::prepare_image`] only on a miss.
    ///
    /// A lookup hashes nothing. It costs at most `capacity` byte
    /// comparisons, each stopping at the first differing byte, and
    /// only entries whose configuration and geometry match get that far.
    ///
    /// The comparisons run under the cache's lock; preparation does
    /// **not**, so a slow preparation never blocks hits on other
    /// images. Two threads racing the same cold image may both prepare
    /// (the results are identical — the last insert wins).
    ///
    /// # Errors
    ///
    /// Whatever `prepare_image` reports (configuration errors).
    pub fn get_or_prepare(
        &self,
        source: &SoftwareSource,
        image: &Image,
        config: &EncryptionConfig,
    ) -> Result<CacheLookup, EricError> {
        {
            let mut inner = lock_clean(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.iter_mut().find(|e| e.matches(image, config)) {
                entry.last_used = tick;
                let prepared = entry.prepared.clone();
                inner.hits += 1;
                return Ok(CacheLookup {
                    prepared,
                    hit: true,
                });
            }
            inner.misses += 1;
        }
        let prepared = Arc::new(source.prepare_image(image, config)?);
        let boundaries = boundaries_read(image, config).to_vec();
        let mut inner = lock_clean(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        // A thread racing the same cold image may have inserted it.
        inner.entries.retain(|e| !e.matches(image, config));
        while inner.entries.len() >= self.capacity {
            let lru = (0..inner.entries.len())
                .min_by_key(|&i| inner.entries[i].last_used)
                .expect("non-empty at capacity");
            inner.entries.swap_remove(lru);
            inner.evictions += 1;
        }
        inner.entries.push(Entry {
            config: config.clone(),
            boundaries,
            prepared: prepared.clone(),
            last_used: tick,
        });
        Ok(CacheLookup {
            prepared,
            hit: false,
        })
    }

    /// Purge every entry prepared for a key epoch other than
    /// `live_epoch` (credential rotation), returning how many were
    /// dropped.
    ///
    /// Stale entries could never be *served* for a rotated
    /// configuration (the epoch is part of the configuration an entry
    /// must match); this reclaims their capacity and memory.
    pub fn invalidate_stale_epochs(&self, live_epoch: u64) -> usize {
        let mut inner = lock_clean(&self.inner);
        let before = inner.entries.len();
        inner.entries.retain(|e| e.config.epoch == live_epoch);
        let dropped = before - inner.entries.len();
        inner.invalidations += dropped as u64;
        dropped
    }

    /// Drop every entry.
    pub fn clear(&self) {
        let mut inner = lock_clean(&self.inner);
        let dropped = inner.entries.len();
        inner.entries.clear();
        inner.invalidations += dropped as u64;
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        lock_clean(&self.inner).entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_clean(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "main:\n li a0, 3\n li a7, 93\n ecall\n";

    fn setup() -> (SoftwareSource, Image) {
        let source = SoftwareSource::new("vendor");
        let image = source.compile(PROGRAM, false).unwrap();
        (source, image)
    }

    #[test]
    fn hit_returns_the_same_preparation_without_repreparing() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(4);
        let config = EncryptionConfig::full();
        let a = cache.get_or_prepare(&source, &image, &config).unwrap();
        let b = cache.get_or_prepare(&source, &image, &config).unwrap();
        assert!(!a.hit);
        assert!(b.hit);
        assert!(Arc::ptr_eq(&a.prepared, &b.prepared));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn source_change_invalidates_by_content() {
        let (source, image) = setup();
        let changed = source
            .compile("main:\n li a0, 4\n li a7, 93\n ecall\n", false)
            .unwrap();
        let cache = PreparedImageCache::new(4);
        let config = EncryptionConfig::full();
        let a = cache.get_or_prepare(&source, &image, &config).unwrap();
        let b = cache.get_or_prepare(&source, &changed, &config).unwrap();
        assert!(!b.hit, "changed source must miss");
        assert!(!Arc::ptr_eq(&a.prepared, &b.prepared));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn config_differences_are_distinct_keys() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(16);
        let configs = [
            EncryptionConfig::full(),
            EncryptionConfig::full().with_legacy_signature(),
            EncryptionConfig::full().with_segments(8),
            EncryptionConfig::full().with_epoch(1),
            EncryptionConfig::partial(0.5, 1),
            EncryptionConfig::partial(0.5, 2),
            EncryptionConfig::partial(0.25, 1),
        ];
        for c in &configs {
            assert!(!cache.get_or_prepare(&source, &image, c).unwrap().hit);
        }
        assert_eq!(cache.len(), configs.len());
        // And every one of them hits the second time around.
        for c in &configs {
            assert!(cache.get_or_prepare(&source, &image, c).unwrap().hit);
        }
    }

    #[test]
    fn epoch_rotation_misses_and_invalidation_purges() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(4);
        cache
            .get_or_prepare(&source, &image, &EncryptionConfig::full())
            .unwrap();
        let rotated = EncryptionConfig::full().with_epoch(1);
        assert!(!cache.get_or_prepare(&source, &image, &rotated).unwrap().hit);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidate_stale_epochs(1), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        // The surviving entry is the live-epoch one.
        assert!(cache.get_or_prepare(&source, &image, &rotated).unwrap().hit);
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(2);
        let c0 = EncryptionConfig::full();
        let c1 = EncryptionConfig::partial(0.5, 1);
        let c2 = EncryptionConfig::partial(0.5, 2);
        cache.get_or_prepare(&source, &image, &c0).unwrap();
        cache.get_or_prepare(&source, &image, &c1).unwrap();
        // Touch c0 so c1 is the least recently used, then overflow.
        cache.get_or_prepare(&source, &image, &c0).unwrap();
        cache.get_or_prepare(&source, &image, &c2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_or_prepare(&source, &image, &c0).unwrap().hit);
        assert!(!cache.get_or_prepare(&source, &image, &c1).unwrap().hit);
    }

    #[test]
    fn data_differing_in_its_last_byte_hits_its_own_preparation() {
        let (source, mut a) = setup();
        a.data = vec![0x5A; 64];
        let mut b = a.clone();
        *b.data.last_mut().unwrap() ^= 1;
        let cache = PreparedImageCache::new(4);
        let config = EncryptionConfig::full();
        let first_a = cache.get_or_prepare(&source, &a, &config).unwrap();
        let first_b = cache.get_or_prepare(&source, &b, &config).unwrap();
        assert!(!first_a.hit && !first_b.hit);
        for (image, first) in [(&a, &first_a), (&b, &first_b)] {
            let again = cache.get_or_prepare(&source, image, &config).unwrap();
            assert!(again.hit);
            assert!(Arc::ptr_eq(&again.prepared, &first.prepared));
        }
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn partial_mode_misses_on_different_boundaries() {
        let (source, image) = setup();
        let mut relabelled = image.clone();
        relabelled.boundaries.pop();
        let cache = PreparedImageCache::new(4);
        let partial = EncryptionConfig::partial(0.5, 1);
        assert!(!cache.get_or_prepare(&source, &image, &partial).unwrap().hit);
        assert!(
            !cache
                .get_or_prepare(&source, &relabelled, &partial)
                .unwrap()
                .hit
        );
        // Full encryption never reads the boundaries.
        let full = EncryptionConfig::full();
        assert!(!cache.get_or_prepare(&source, &image, &full).unwrap().hit);
        assert!(
            cache
                .get_or_prepare(&source, &relabelled, &full)
                .unwrap()
                .hit
        );
    }

    #[test]
    fn compressed_boundaries_are_refused_despite_cached_bytes() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(4);
        let config = EncryptionConfig::field_level(eric_hde::FieldPolicy::AllButOpcode);
        cache.get_or_prepare(&source, &image, &config).unwrap();
        let mut compressed = image.clone();
        compressed.boundaries[0].kind = eric_asm::ParcelKind::Compressed;
        let err = cache
            .get_or_prepare(&source, &compressed, &config)
            .unwrap_err();
        assert!(matches!(err, EricError::Config(_)), "{err}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalid_config_is_not_cached() {
        let (source, image) = setup();
        let cache = PreparedImageCache::new(4);
        let bad = EncryptionConfig::partial(0.0, 1);
        assert!(cache.get_or_prepare(&source, &image, &bad).is_err());
        assert!(cache.is_empty());
    }
}
