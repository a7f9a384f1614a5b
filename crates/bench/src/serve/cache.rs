//! Deterministic bounded LRU for canonical run results.
//!
//! Keys are the FNV-1a 64 fingerprints of canonical request keys
//! ([`mst_core::wire::RunRequest::fingerprint`]); values are rendered
//! response bodies — the exact bytes a cold execution produced, stored
//! behind `Arc<str>` so a hit fans out without copying. Recency is an
//! explicit monotone stamp in a `BTreeMap`, not pointer identity or a
//! hashed order, so eviction order is a pure function of the access
//! sequence: the same request trace always evicts the same entries.
//!
//! Deterministic *errors* are cached too — a bad graph spec or a
//! fault-induced `run.*` failure reproduces bit-for-bit, so replaying it
//! for every duplicate request would be pure waste. The `ok` flag rides
//! along with the body so the response envelope stays truthful.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A cached outcome: whether the execution succeeded and the rendered
/// body fragment (a `result` value on success, an `error` object
/// otherwise).
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// `true` if `body` is a success payload.
    pub ok: bool,
    /// Rendered JSON fragment, byte-identical to the cold execution.
    pub body: Arc<str>,
}

#[derive(Debug)]
struct Entry {
    ok: bool,
    body: Arc<str>,
    stamp: u64,
}

/// Bounded LRU keyed by request fingerprint. A capacity of zero disables
/// caching entirely (every lookup misses, every insert is dropped) —
/// handy for tests that want to exercise the execution path repeatedly.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<u64, Entry>,
    recency: BTreeMap<u64, u64>,
    /// Total entries evicted to make room (monotone).
    pub evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            ..ResultCache::default()
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `fingerprint`, refreshing its recency on a hit.
    pub fn get(&mut self, fingerprint: u64) -> Option<CachedResult> {
        let entry = self.entries.get_mut(&fingerprint)?;
        self.recency.remove(&entry.stamp);
        self.tick += 1;
        entry.stamp = self.tick;
        self.recency.insert(entry.stamp, fingerprint);
        Some(CachedResult {
            ok: entry.ok,
            body: Arc::clone(&entry.body),
        })
    }

    /// Inserts (or refreshes) a result, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&mut self, fingerprint: u64, ok: bool, body: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            self.recency.remove(&entry.stamp);
            entry.stamp = self.tick;
            entry.ok = ok;
            entry.body = body;
            self.recency.insert(self.tick, fingerprint);
            return;
        }
        if self.entries.len() == self.capacity {
            // Oldest stamp = least recently used; BTreeMap iteration is
            // ordered, so this is deterministic by construction.
            let (&oldest, &victim) = self.recency.iter().next().expect("full cache has entries");
            self.recency.remove(&oldest);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            fingerprint,
            Entry {
                ok,
                body,
                stamp: self.tick,
            },
        );
        self.recency.insert(self.tick, fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let mut c = ResultCache::new(4);
        c.insert(1, true, body("alpha"));
        c.insert(2, false, body("beta"));
        let hit = c.get(1).unwrap();
        assert!(hit.ok);
        assert_eq!(&*hit.body, "alpha");
        let err = c.get(2).unwrap();
        assert!(!err.ok);
        assert_eq!(&*err.body, "beta");
        assert!(c.get(3).is_none());
    }

    #[test]
    fn evicts_least_recently_used_deterministically() {
        let mut c = ResultCache::new(2);
        c.insert(1, true, body("a"));
        c.insert(2, true, body("b"));
        assert!(c.get(1).is_some()); // 1 is now fresher than 2
        c.insert(3, true, body("c")); // evicts 2
        assert_eq!(c.evictions, 1);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = ResultCache::new(2);
        c.insert(1, true, body("a"));
        c.insert(2, true, body("b"));
        c.insert(1, true, body("a2")); // refresh, no eviction
        assert_eq!(c.evictions, 0);
        assert_eq!(c.len(), 2);
        c.insert(3, true, body("c")); // evicts 2 (1 was refreshed)
        assert!(c.get(2).is_none());
        assert_eq!(&*c.get(1).unwrap().body, "a2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(1, true, body("a"));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn same_access_trace_same_final_state() {
        let trace: Vec<(u64, bool)> = (0..300)
            .map(|i: u64| ((i * 7) % 13, i.is_multiple_of(3)))
            .collect();
        let run = || {
            let mut c = ResultCache::new(5);
            for &(fp, insert) in &trace {
                if insert {
                    c.insert(fp, true, body(&format!("v{fp}")));
                } else {
                    let _ = c.get(fp);
                }
            }
            let keys: Vec<u64> = c.entries.keys().copied().collect();
            (keys, c.evictions)
        };
        assert_eq!(run(), run());
    }
}
