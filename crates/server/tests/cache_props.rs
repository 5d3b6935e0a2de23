//! Property and concurrency tests for the sharded LRU answer cache: the
//! cache never exceeds its capacity, and within a shard eviction is
//! strictly oldest-first (least recently used).

use std::sync::Arc;

use mrs_core::engine::ProblemKind;
use mrs_server::cache::{AnswerCache, CacheKey, ShapeKey};
use proptest::prelude::*;

fn key(epoch: u64, id: u64) -> CacheKey {
    CacheKey {
        epoch,
        version: 1 + id % 3,
        problem: if id.is_multiple_of(2) { ProblemKind::Colored } else { ProblemKind::Weighted },
        solver: format!("solver-{}", id % 5),
        shape: ShapeKey::Ball(id),
    }
}

fn value(id: u64) -> Arc<str> {
    Arc::from(format!("answer-{id}").as_str())
}

proptest! {
    #[test]
    fn never_exceeds_capacity_under_random_workloads(
        shards in 1usize..6,
        capacity in 1usize..40,
        ops in proptest::collection::vec((0u64..60, 0usize..3), 1..200),
    ) {
        let cache = AnswerCache::new(shards, capacity);
        for &(id, kind) in &ops {
            match kind {
                0 | 1 => cache.insert(key(1, id), value(id)),
                _ => {
                    let _ = cache.get(&key(1, id));
                }
            }
            prop_assert!(
                cache.len() <= cache.capacity(),
                "{} entries exceed capacity {}",
                cache.len(),
                cache.capacity()
            );
        }
        let counters = cache.counters();
        prop_assert_eq!(counters.entries, cache.len());
        prop_assert!(counters.capacity >= capacity);
    }

    #[test]
    fn single_shard_evicts_oldest_first(
        capacity in 1usize..12,
        inserts in proptest::collection::vec(0u64..1000, 1..60),
    ) {
        // One shard makes the LRU order total.  Model recency as a list
        // where every insert moves its key to the back (a re-insert
        // refreshes recency): eviction must be oldest-first, so exactly the
        // `capacity` most recently inserted distinct keys survive.
        let cache = AnswerCache::new(1, capacity);
        let mut recency: Vec<u64> = Vec::new();
        for &id in &inserts {
            recency.retain(|&seen| seen != id);
            recency.push(id);
            cache.insert(key(1, id), value(id));
        }
        let survivors: Vec<u64> =
            recency.iter().rev().take(capacity).copied().collect();
        for &id in &recency {
            let should_live = survivors.contains(&id);
            prop_assert_eq!(
                cache.get(&key(1, id)).is_some(),
                should_live,
                "key {} has the wrong fate (capacity {})",
                id,
                capacity
            );
        }
    }
}

/// A `get` refreshes recency: repeatedly touched entries survive inserts
/// that evict everything else around them.
#[test]
fn touched_entries_survive_eviction_pressure() {
    let cache = AnswerCache::new(1, 4);
    cache.insert(key(1, 0), value(0));
    for id in 1..100u64 {
        cache.insert(key(1, id), value(id));
        assert!(cache.get(&key(1, 0)).is_some(), "hot key evicted at insert {id}");
    }
    assert_eq!(cache.len(), 4);
    let counters = cache.counters();
    assert_eq!(counters.evictions, 96, "each overflow insert evicts exactly one entry");
}

/// Hammer the cache from several threads: no lock poisoning, the capacity
/// invariant holds throughout, and the counters add up.
#[test]
fn concurrent_access_keeps_invariants() {
    let cache = Arc::new(AnswerCache::new(4, 64));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let id = (t * 1_000 + i * 7) % 300;
                    if i % 3 == 0 {
                        let _ = cache.get(&key(1, id));
                    } else {
                        cache.insert(key(1, id), value(id));
                    }
                    assert!(cache.len() <= cache.capacity());
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("worker panicked");
    }
    let counters = cache.counters();
    assert!(counters.entries <= counters.capacity);
    // Each thread issues a get for i = 0, 3, ..., 1998: 667 lookups.
    assert_eq!(counters.hits + counters.misses, 4 * 667);
    assert!(counters.hit_rate() > 0.0, "some lookups must have hit");
}
