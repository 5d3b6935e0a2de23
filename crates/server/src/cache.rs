//! The sharded LRU answer cache.
//!
//! MaxRS queries are pure functions of `(dataset contents, solver, query
//! shape)`, so the service can hand back a previously rendered answer
//! whenever the same query repeats — the Zipfian reuse real query logs show.
//! Keys embed the dataset's **epoch** (bumped every time a dataset is
//! (re)loaded) *and* its **version** (bumped by every mutation), so
//! invalidation is fine-grained: a reload silently invalidates every cached
//! answer for the old contents (stale keys can never match again and age
//! out of the LRU order naturally), while a mutation invalidates only the
//! answers of **that dataset's** older versions — the service additionally
//! purges those eagerly through [`AnswerCache::invalidate_dataset_below`],
//! so one hot mutable dataset cannot pollute the LRU with unreachable
//! entries, and the purge count is surfaced as a counter.
//!
//! The map is split into shards, each behind its own mutex, so concurrent
//! workers contend only when their keys hash to the same shard.  Within a
//! shard, recency is tracked with a monotone clock: a `BTreeMap` from clock
//! stamp to key makes "evict the least recently used entry" an `O(log n)`
//! pop of the smallest stamp.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mrs_core::engine::{BatchQuery, ProblemKind, RangeShape};

/// A query shape reduced to hashable bits (`f64::to_bits`; `-0.0` and `0.0`
/// therefore key differently, which only costs a duplicate cache entry).
/// Works in any ambient dimension — box extents carry one bit pattern per
/// axis.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ShapeKey {
    /// A ball of the given radius bits.
    Ball(u64),
    /// An axis box of the given extent bits, one per axis.
    Box(Vec<u64>),
}

impl<const D: usize> From<&RangeShape<D>> for ShapeKey {
    fn from(shape: &RangeShape<D>) -> Self {
        match shape {
            RangeShape::Ball { radius } => ShapeKey::Ball(radius.to_bits()),
            RangeShape::AxisBox { extents } => {
                ShapeKey::Box(extents.iter().map(|e| e.to_bits()).collect())
            }
        }
    }
}

/// What uniquely identifies a cacheable answer: which dataset *contents*
/// (epoch + version), which problem family, which solver, and which query
/// shape.
///
/// The ambient dimension needs no field of its own: an epoch belongs to one
/// dataset, and a dataset has one dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The dataset epoch the answer was computed against (identifies one
    /// load of one dataset).
    pub epoch: u64,
    /// The dataset version within that epoch (bumped by every mutation).
    pub version: u64,
    /// Weighted or colored MaxRS.
    pub problem: ProblemKind,
    /// The registry name of the solver.
    pub solver: String,
    /// The query shape, bit-exact.
    pub shape: ShapeKey,
}

impl CacheKey {
    /// The key for one batch query against a dataset epoch and version.
    pub fn for_query<const D: usize>(epoch: u64, version: u64, query: &BatchQuery<D>) -> Self {
        Self {
            epoch,
            version,
            problem: query.problem,
            solver: query.solver.clone(),
            shape: ShapeKey::from(&query.shape),
        }
    }
}

/// One shard: a bounded LRU map from key to rendered answer.
struct Shard {
    /// Key → (answer, recency stamp).
    map: HashMap<CacheKey, (Arc<str>, u64)>,
    /// Recency stamp → key; the smallest stamp is the LRU entry.
    order: BTreeMap<u64, CacheKey>,
    /// Monotone recency clock (shard-local).
    clock: u64,
}

impl Shard {
    fn new() -> Self {
        Self { map: HashMap::new(), order: BTreeMap::new(), clock: 0 }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<str>> {
        let stamp = self.tick();
        let (value, old) = self.map.get_mut(key)?;
        let value = Arc::clone(value);
        let previous = std::mem::replace(old, stamp);
        self.order.remove(&previous);
        self.order.insert(stamp, key.clone());
        Some(value)
    }

    /// Inserts, evicting least-recently-used entries to stay within
    /// `capacity`.  Returns how many entries were evicted.
    fn insert(&mut self, key: CacheKey, value: Arc<str>, capacity: usize) -> u64 {
        let stamp = self.tick();
        if let Some((_, old)) = self.map.remove(&key) {
            self.order.remove(&old);
        }
        let mut evicted = 0;
        while self.map.len() >= capacity {
            let Some((&oldest, _)) = self.order.iter().next() else { break };
            let victim = self.order.remove(&oldest).expect("stamp was present");
            self.map.remove(&victim);
            evicted += 1;
        }
        self.map.insert(key.clone(), (value, stamp));
        self.order.insert(stamp, key);
        evicted
    }
}

/// Point-in-time cache counters, as served by `/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries purged by fine-grained version invalidation (see
    /// [`AnswerCache::invalidate_dataset_below`]).
    pub invalidations: u64,
    /// Live entries right now, across all shards.
    pub entries: usize,
    /// Maximum live entries (shards × per-shard capacity).
    pub capacity: usize,
}

impl CacheCounters {
    /// Hit fraction over all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded LRU answer cache.  All methods take `&self`; sharding keeps
/// lock contention per-key.
pub struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl AnswerCache {
    /// A cache of `shards` shards with `capacity` total entries (rounded up
    /// to a multiple of the shard count; both are clamped to at least 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks the key up, counting a hit or a miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let result = self.shard(key).lock().expect("cache shard poisoned").get(key);
        match &result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores a rendered answer, evicting LRU entries as needed.
    pub fn insert(&self, key: CacheKey, value: Arc<str>) {
        let evicted = self.shard(&key).lock().expect("cache shard poisoned").insert(
            key,
            value,
            self.per_shard_capacity,
        );
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Eagerly purges every entry of dataset `epoch` whose version is
    /// below `version` — the fine-grained invalidation a mutation triggers.
    /// Keys of other datasets (other epochs) and of the new version are
    /// untouched.  Returns how many entries were purged (also accumulated
    /// into [`CacheCounters::invalidations`]).
    ///
    /// Strictly speaking the purge is an optimization: stale keys could
    /// never match again anyway (lookups embed the current version).  It
    /// keeps a hot mutable dataset from filling the LRU with unreachable
    /// entries, and gives operators a counter that proves invalidation is
    /// per-dataset, not catalog-wide.
    pub fn invalidate_dataset_below(&self, epoch: u64, version: u64) -> u64 {
        let mut purged = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            // Collect the victims' recency stamps (cheap u64s, no key
            // clones); each stamp owns its key in `order`, so removal pulls
            // the key back out of the recency index for the map removal.
            let stamps: Vec<u64> = shard
                .map
                .iter()
                .filter(|(k, _)| k.epoch == epoch && k.version < version)
                .map(|(_, (_, stamp))| *stamp)
                .collect();
            for stamp in stamps {
                if let Some(key) = shard.order.remove(&stamp) {
                    shard.map.remove(&key);
                    purged += 1;
                }
            }
        }
        if purged > 0 {
            self.invalidations.fetch_add(purged, Ordering::Relaxed);
        }
        purged
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum live entries.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, radius: f64) -> CacheKey {
        versioned_key(epoch, 1, radius)
    }

    fn versioned_key(epoch: u64, version: u64, radius: f64) -> CacheKey {
        CacheKey {
            epoch,
            version,
            problem: ProblemKind::Weighted,
            solver: "exact-disk-2d".to_string(),
            shape: ShapeKey::Ball(radius.to_bits()),
        }
    }

    fn value(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let cache = AnswerCache::new(4, 64);
        assert!(cache.get(&key(1, 0.5)).is_none());
        cache.insert(key(1, 0.5), value("a"));
        assert_eq!(cache.get(&key(1, 0.5)).as_deref(), Some("a"));
        // A new epoch is a different key: the old answer can never match.
        assert!(cache.get(&key(2, 0.5)).is_none());
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 2));
        assert!((counters.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(counters.entries, 1);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        // One shard, capacity 3: inserting a 4th evicts the least recently
        // used, and a get() refreshes recency.
        let cache = AnswerCache::new(1, 3);
        for i in 0..3 {
            cache.insert(key(1, i as f64 + 1.0), value("v"));
        }
        assert_eq!(cache.len(), 3);
        // Touch the oldest (radius 1): radius 2 becomes the LRU victim.
        assert!(cache.get(&key(1, 1.0)).is_some());
        cache.insert(key(1, 4.0), value("v"));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key(1, 1.0)).is_some(), "refreshed entry survives");
        assert!(cache.get(&key(1, 2.0)).is_none(), "LRU entry was evicted");
        assert_eq!(cache.counters().evictions, 1);
        // Reinserting an existing key replaces in place, no eviction.
        cache.insert(key(1, 4.0), value("w"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&key(1, 4.0)).as_deref(), Some("w"));
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn shape_keys_distinguish_queries() {
        let ball = ShapeKey::from(&RangeShape::<2>::ball(1.0));
        let other = ShapeKey::from(&RangeShape::<2>::ball(2.0));
        let rect = ShapeKey::from(&RangeShape::rect(1.0, 2.0));
        assert_ne!(ball, other);
        assert_ne!(ball, rect);
        assert_eq!(rect, ShapeKey::Box(vec![1.0f64.to_bits(), 2.0f64.to_bits()]));
        // 1-D interval queries key as balls of half the length.
        let interval = ShapeKey::from(&RangeShape::<1>::interval(3.0));
        assert_eq!(interval, ShapeKey::Ball(1.5f64.to_bits()));
        let q = BatchQuery::colored("approx-colored-ball", RangeShape::<2>::ball(1.0));
        let k = CacheKey::for_query(7, 3, &q);
        assert_eq!(k.problem, ProblemKind::Colored);
        assert_eq!(k.epoch, 7);
        assert_eq!(k.version, 3);
        assert_eq!(k.solver, "approx-colored-ball");
    }

    #[test]
    fn version_invalidation_is_per_dataset_and_counted() {
        let cache = AnswerCache::new(4, 64);
        // Dataset epoch 1 at versions 1 and 2; dataset epoch 2 at version 1.
        cache.insert(versioned_key(1, 1, 0.5), value("old"));
        cache.insert(versioned_key(1, 1, 0.7), value("old"));
        cache.insert(versioned_key(1, 2, 0.5), value("new"));
        cache.insert(versioned_key(2, 1, 0.5), value("other"));
        // A mutation bumps dataset 1 to version 2: only its older entries go.
        let purged = cache.invalidate_dataset_below(1, 2);
        assert_eq!(purged, 2);
        assert!(cache.get(&versioned_key(1, 1, 0.5)).is_none());
        assert!(cache.get(&versioned_key(1, 1, 0.7)).is_none());
        assert_eq!(cache.get(&versioned_key(1, 2, 0.5)).as_deref(), Some("new"));
        assert_eq!(
            cache.get(&versioned_key(2, 1, 0.5)).as_deref(),
            Some("other"),
            "other datasets' entries must survive a mutation elsewhere"
        );
        assert_eq!(cache.counters().invalidations, 2);
        assert_eq!(cache.invalidate_dataset_below(1, 2), 0, "idempotent");
    }
}
