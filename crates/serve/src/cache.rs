//! Bounded in-memory results cache with disk spill.
//!
//! Completed campaigns' `summary.json` bytes are kept in an LRU cache
//! so repeated `/results` fetches don't re-read the disk; the artifacts
//! on disk **are** the spill tier — eviction costs a file read, never
//! data. Entries larger than the whole cache are served straight from
//! disk without ever being admitted. Bodies are exact-size `Arc<[u8]>`
//! slices with no spare capacity, so the byte count the cap is checked
//! against is the heap the bodies really hold.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct CacheInner {
    /// LRU order: front = coldest, back = hottest.
    entries: Vec<(String, Arc<[u8]>)>,
    used_bytes: usize,
}

/// A byte-bounded LRU of owned response bodies.
#[derive(Debug)]
pub struct ResultsCache {
    cap_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl ResultsCache {
    /// Cache holding at most `cap_bytes` of payload.
    pub fn new(cap_bytes: usize) -> Self {
        ResultsCache {
            cap_bytes,
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                used_bytes: 0,
            }),
        }
    }

    /// Fetch and mark hot.
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        let mut inner = lock(&self.inner);
        let pos = inner.entries.iter().position(|(k, _)| k == key)?;
        let entry = inner.entries.remove(pos);
        let bytes = Arc::clone(&entry.1);
        inner.entries.push(entry);
        Some(bytes)
    }

    /// Insert (replacing any same-key entry), evicting coldest entries
    /// to fit. Oversized payloads are not admitted. Returns the number
    /// of entries evicted.
    pub fn insert(&self, key: &str, bytes: Arc<[u8]>) -> u64 {
        if bytes.len() > self.cap_bytes {
            return 0;
        }
        let mut inner = lock(&self.inner);
        if let Some(pos) = inner.entries.iter().position(|(k, _)| k == key) {
            let (_, old) = inner.entries.remove(pos);
            inner.used_bytes -= old.len();
        }
        let mut evicted = 0;
        while inner.used_bytes + bytes.len() > self.cap_bytes {
            let (_, cold) = inner.entries.remove(0);
            inner.used_bytes -= cold.len();
            evicted += 1;
        }
        inner.used_bytes += bytes.len();
        inner.entries.push((key.to_string(), bytes));
        evicted
    }

    /// Drop an entry (a cancelled job's partial results, say).
    pub fn remove(&self, key: &str) {
        let mut inner = lock(&self.inner);
        if let Some(pos) = inner.entries.iter().position(|(k, _)| k == key) {
            let (_, bytes) = inner.entries.remove(pos);
            inner.used_bytes -= bytes.len();
        }
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        lock(&self.inner).used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Arc<[u8]> {
        vec![0u8; n].into()
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let c = ResultsCache::new(100);
        c.insert("a", bytes(40));
        c.insert("b", bytes(40));
        assert!(c.get("a").is_some()); // a is now hottest
        assert_eq!(c.insert("c", bytes(40)), 1); // evicts b, not a
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.used_bytes(), 80);
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let c = ResultsCache::new(10);
        assert_eq!(c.insert("big", bytes(11)), 0);
        assert!(c.get("big").is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let c = ResultsCache::new(100);
        c.insert("a", bytes(60));
        c.insert("a", bytes(30));
        assert_eq!(c.used_bytes(), 30);
        c.remove("a");
        assert_eq!(c.used_bytes(), 0);
    }
}
