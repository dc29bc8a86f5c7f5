//! Shared cache of pre-decoded programs.
//!
//! Decoding bytecode on every call is pure constant-factor overhead that
//! the optimistic parallel executor pays once *per speculation attempt*.
//! The [`CodeCache`] memoizes the per-program work behind interior
//! mutability so one decode serves every speculation, every retry, and
//! every execution mode.
//!
//! A program's identity is its bytes. A failed deploy does not bump
//! `DeployCount`, so the *same address* can later hold different code,
//! while identical bytes always decode identically. The cache establishes
//! that identity in two steps:
//!
//! 1. an **address front** remembers the program last resolved at each
//!    address and serves it when the code in state still equals the bytes
//!    that program was decoded from: one `memcmp`, strictly stronger
//!    than comparing hashes, and the only work a repeat call pays;
//! 2. behind it a **content map** keyed by the keccak-256 of the code, so
//!    every instance of one template shares a single decode. Only a front
//!    miss (an address's first call, or code that changed under it)
//!    hashes, and the front then holds the program it resolved to in
//!    place of whatever it held before.
//!
//! Init code is decoded for its one deployment and never retained: it
//! carries its constructor arguments, so no later lookup could ask for it.
//!
//! A [`CodeCache::disabled`] cache never stores, serves or hashes
//! anything — it is the fresh-decode-every-call baseline the differential
//! tests and benches compare against.

use crate::program::EvmProgram;
use pol_crypto::keccak256;
use pol_ledger::Address;
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

/// The two indexes over the retained programs (see the module docs).
#[derive(Default)]
struct Programs {
    by_address: HashMap<Address, Arc<EvmProgram>>,
    by_hash: HashMap<[u8; 32], Arc<EvmProgram>>,
}

/// Interior-mutable, thread-safe memo of decoded programs, shared by
/// every speculation thread of a block (see the module docs for keying
/// and soundness).
pub struct CodeCache {
    enabled: bool,
    programs: RwLock<Programs>,
    hits: AtomicU64,
    misses: AtomicU64,
    decode_ns: AtomicU64,
}

impl std::fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeCache")
            .field("enabled", &self.enabled)
            .field("programs", &self.programs.read().expect("cache lock").by_hash.len())
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
            programs: RwLock::new(Programs::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decode_ns: AtomicU64::new(0),
        }
    }

    /// The program for `code`, the bytes state holds at `address`: served
    /// by the address front when it was decoded from these very bytes, by
    /// the content map otherwise, and decoded (a counted miss) when no
    /// address has held this code before.
    pub(crate) fn resolve(&self, address: Address, code: Vec<u8>) -> Arc<EvmProgram> {
        if !self.enabled {
            return Arc::new(self.decode(code));
        }
        if let Some(front) = self.programs.read().expect("cache lock").by_address.get(&address) {
            if front.code() == code {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(front);
            }
        }
        let key = keccak256(&code);
        let known = self.programs.read().expect("cache lock").by_hash.get(&key).cloned();
        let program = match known {
            Some(program) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                program
            }
            None => Arc::new(self.decode(code)),
        };
        let mut programs = self.programs.write().expect("cache lock");
        // Two threads can miss on the same code at once: the first insert
        // wins, so equal bytes share one program whatever the interleaving.
        let program = Arc::clone(programs.by_hash.entry(key).or_insert(program));
        programs.by_address.insert(address, Arc::clone(&program));
        program
    }

    /// Decodes `code` as a counted, timed miss and retains nothing: the
    /// whole of a disabled cache, and how a deployment runs its init code.
    pub(crate) fn decode(&self, code: Vec<u8>) -> EvmProgram {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let program = EvmProgram::decode(code);
        self.decode_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        program
    }

    /// How many decoded programs the cache is holding on to.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.programs.read().expect("cache lock").by_hash.len()
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

    const A: Address = Address([0xa1; 20]);
    const B: Address = Address([0xb2; 20]);

    /// `PUSH1 n; STOP`: distinct bytes per `n`.
    fn code(n: u8) -> Vec<u8> {
        vec![0x60, n, 0x00]
    }

    #[test]
    fn a_repeat_call_is_served_by_the_front() {
        let cache = CodeCache::new();
        let first = cache.resolve(A, code(1));
        let second = cache.resolve(A, code(1));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// The cache does not know the chain's deployment rules: whatever put
    /// other bytes at an address it has seen (a failed deploy's code and
    /// then a successful one's, an init image and then a runtime image),
    /// the front must notice.
    #[test]
    fn other_bytes_at_the_same_address_never_serve_the_stale_program() {
        let cache = CodeCache::new();
        for n in [1, 2, 1] {
            let program = cache.resolve(A, code(n));
            assert_eq!(program.code(), code(n), "stale program served for code({n})");
        }
        // The third lookup found code(1) in the content map and moved the
        // front back to it: two decodes, and from here on front hits.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(cache.retained(), 2);
        assert_eq!(cache.programs.read().unwrap().by_address.len(), 1, "one front entry");
        assert_eq!(cache.resolve(A, code(1)).code(), code(1));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn equal_bytes_at_two_addresses_share_one_program_and_one_miss() {
        let cache = CodeCache::new();
        let at_a = cache.resolve(A, code(1));
        let at_b = cache.resolve(B, code(1));
        assert!(Arc::ptr_eq(&at_a, &at_b), "forty instances of a template decode once");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.retained(), 1);
    }

    #[test]
    fn disabled_cache_always_misses_and_stores_nothing() {
        let cache = CodeCache::disabled();
        let first = cache.resolve(A, code(1));
        let again = cache.resolve(A, code(1));
        assert!(!Arc::ptr_eq(&first, &again), "disabled cache must re-decode");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        let programs = cache.programs.read().unwrap();
        assert!(programs.by_address.is_empty() && programs.by_hash.is_empty());
    }
}
