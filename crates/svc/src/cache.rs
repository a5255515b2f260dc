//! Memoized score cache.
//!
//! Score queries are pure functions of (spec shape, node budget,
//! platform, workload map, evaluation settings) — closed-form scoring
//! is deterministic (see the scheduler's determinism tests), so identical
//! queries can be answered from memory without touching the predictor.
//! Keys are the *canonical description string* of the query, not a hash
//! of it: collisions are then impossible by construction, and the key
//! doubles as a debugging artifact.
//!
//! Eviction keeps the newest writes at a fixed capacity (the window
//! [`crate::image`]'s fold holds entries in) — cheap, deterministic,
//! and good enough for a cache whose entries are all equally expensive
//! to rebuild.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::image::Window;

/// A bounded memo table with hit/miss accounting.
pub struct ScoreCache<V> {
    window: Mutex<Window<String, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> ScoreCache<V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            window: Mutex::new(Window::new(capacity.max(1))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.get_either(key, None)
    }

    /// Returns the entry under `key`, else the one under `alt`,
    /// counting the whole probe as **one** hit or one miss — for a
    /// request that either stored entry can answer.
    pub fn get_either(&self, key: &str, alt: Option<&str>) -> Option<Arc<V>> {
        let found = self.hit(key, alt);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`get_either`](Self::get_either) that counts a hit and leaves a
    /// miss uncounted — for a caller that looks again, and counts there,
    /// before it acts on the miss.
    pub fn hit(&self, key: &str, alt: Option<&str>) -> Option<Arc<V>> {
        let window = self.window.lock().expect("cache lock");
        let found = window.get(key).or_else(|| window.get(alt?)).map(Arc::clone);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts `value` under `key` as the newest entry, evicting the
    /// oldest at capacity. Racing inserts of the same key keep the newer
    /// value (both are correct: entries are deterministic functions of
    /// the key).
    pub fn insert(&self, key: String, value: V) -> Arc<V> {
        let value = Arc::new(value);
        self.window.lock().expect("cache lock").put(key, Arc::clone(&value));
        value
    }

    /// Drops every entry (hit/miss counters keep running). Used by the
    /// cold-path benchmark.
    pub fn clear(&self) {
        self.window.lock().expect("cache lock").clear();
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.window.lock().expect("cache lock").len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let cache: ScoreCache<u32> = ScoreCache::new(4);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), 1);
        assert_eq!(*cache.get("a").unwrap(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn a_two_key_probe_counts_once() {
        let cache: ScoreCache<u32> = ScoreCache::new(4);
        assert!(cache.get_either("a", Some("b")).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert("b".into(), 2);
        assert_eq!(cache.get_either("a", Some("b")).as_deref(), Some(&2));
        cache.insert("a".into(), 1);
        assert_eq!(cache.get_either("a", Some("b")).as_deref(), Some(&1), "the first key wins");
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn a_hit_probe_leaves_a_miss_uncounted() {
        let cache: ScoreCache<u32> = ScoreCache::new(4);
        assert!(cache.hit("a", Some("b")).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.insert("b".into(), 2);
        assert_eq!(cache.hit("a", Some("b")).as_deref(), Some(&2));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn evicts_oldest_first() {
        let cache: ScoreCache<u32> = ScoreCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("c".into(), 3);
        assert!(cache.get("a").is_none(), "oldest entry evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_same_key_does_not_grow_order() {
        let cache: ScoreCache<u32> = ScoreCache::new(2);
        for _ in 0..10 {
            cache.insert("a".into(), 1);
        }
        cache.insert("b".into(), 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn reinserting_refreshes_the_fifo_slot() {
        // Regression: a re-inserted key used to keep its original FIFO
        // position, so a just-refreshed entry could be evicted as if it
        // were the oldest.
        let cache: ScoreCache<u32> = ScoreCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("a".into(), 10); // refresh: "b" is now the oldest
        cache.insert("c".into(), 3); // evicts "b", not "a"
        assert_eq!(cache.get("a").as_deref(), Some(&10), "refreshed entry survives");
        assert!(cache.get("b").is_none(), "oldest-by-refresh is the one evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: ScoreCache<u32> = ScoreCache::new(4);
        cache.insert("a".into(), 1);
        cache.get("a");
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}
