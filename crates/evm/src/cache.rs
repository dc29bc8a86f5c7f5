//! Shared cache of pre-decoded programs.
//!
//! Decoding bytecode on every call is pure constant-factor overhead that
//! the optimistic parallel executor pays once *per speculation attempt*.
//! The [`CodeCache`] memoizes the per-program work behind interior
//! mutability so one decode serves every speculation, every retry, and
//! every execution mode. Decoded programs are keyed by the keccak-256
//! content hash of the raw bytecode. Content addressing is the only
//! sound key: a failed deploy does not bump `DeployCount`, so the *same
//! address* can later hold different code, while identical bytes always
//! decode identically.
//!
//! A [`CodeCache::disabled`] cache never stores or serves anything — it
//! is the fresh-decode-every-call baseline the differential tests and
//! benches compare against.

use crate::program::EvmProgram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Decoded programs served from the cache.
    pub hits: u64,
    /// Lookups that had to decode from scratch.
    pub misses: u64,
    /// Total nanoseconds spent decoding programs.
    pub decode_ns: u64,
}

/// Interior-mutable, thread-safe memo of decoded programs, shared by
/// every speculation thread of a block (see the module docs for keying
/// and soundness).
pub struct CodeCache {
    enabled: bool,
    programs: RwLock<HashMap<[u8; 32], Arc<EvmProgram>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    decode_ns: AtomicU64,
}

impl std::fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeCache")
            .field("enabled", &self.enabled)
            .field("programs", &self.programs.read().expect("cache lock").len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for CodeCache {
    fn default() -> CodeCache {
        CodeCache::new()
    }
}

impl CodeCache {
    /// An enabled, empty cache.
    pub fn new() -> CodeCache {
        CodeCache::with_enabled(true)
    }

    /// A cache that never stores or serves entries: every lookup takes
    /// the decode path, giving the fresh-decode-every-call baseline while
    /// still counting misses and decode time honestly.
    pub fn disabled() -> CodeCache {
        CodeCache::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> CodeCache {
        CodeCache {
            enabled,
            programs: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
        }
    }

    /// The decoded program stored under the content hash `key`, decoding
    /// (and timing the decode of) a fresh one on miss.
    pub(crate) fn get_or_decode(
        &self,
        key: [u8; 32],
        decode: impl FnOnce() -> EvmProgram,
    ) -> Arc<EvmProgram> {
        if self.enabled {
            if let Some(hit) = self.programs.read().expect("cache lock").get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let decoded = Arc::new(decode());
        self.decode_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if self.enabled {
            self.programs.write().expect("cache lock").insert(key, Arc::clone(&decoded));
        }
        decoded
    }

    /// Current counter values.
    pub fn stats(&self) -> CodeCacheStats {
        CodeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stop() -> EvmProgram {
        EvmProgram::decode(vec![0x00])
    }

    #[test]
    fn program_entries_hit_after_first_decode() {
        let cache = CodeCache::new();
        let first = cache.get_or_decode([7; 32], stop);
        let second = cache.get_or_decode([7; 32], || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let cache = CodeCache::disabled();
        let first = cache.get_or_decode([7; 32], stop);
        let again = cache.get_or_decode([7; 32], stop);
        assert!(!Arc::ptr_eq(&first, &again), "disabled cache must re-decode");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }
}
