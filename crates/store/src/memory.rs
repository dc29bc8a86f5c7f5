//! The in-memory backend: the default store behind `WorldState`, and the
//! image the write-ahead log replays into. Volatile by design — its job
//! is to be the fastest commit and read path and the semantic baseline
//! the persistent backends are conformance-tested against.

use crate::trie::map_root;
use crate::{BatchEntry, StateBackend, StoreError};
use std::collections::HashMap;

/// A volatile byte hash map. Nothing is kept in key order: reads are one
/// hash lookup, and [`StateBackend::entries`] and the WAL's snapshot sort
/// on demand. [`StateBackend::root`] recomputes the canonical trie
/// commitment from scratch on every call (`O(n log n)`) — the cost the
/// benchmark's `state-churn` workload contrasts with the trie's, which
/// hashes only what a block dirtied, at the flush, and then reads its
/// root from a memo (`store.memory.root_ms` against
/// `store.trie.flush_ms` + `store.trie.root_ms`).
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    map: HashMap<Box<[u8]>, Box<[u8]>>,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Builds a store from an entry list (snapshot restore).
    pub fn from_entries(entries: Vec<(Vec<u8>, Vec<u8>)>) -> MemoryBackend {
        let map = entries.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
        MemoryBackend { map }
    }

    /// Every entry, borrowed and sorted by key (the WAL's snapshot writer
    /// and [`StateBackend::entries`]).
    pub(crate) fn sorted(&self) -> Vec<(&[u8], &[u8])> {
        let mut entries: Vec<(&[u8], &[u8])> =
            self.map.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Number of live entries (the WAL's snapshot header).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Applies one put (`Some`) or delete (`None`): the single mutation
    /// every commit, WAL replay and snapshot load goes through. A value
    /// of unchanged length is overwritten in its own buffer.
    pub(crate) fn apply(&mut self, key: &[u8], value: Option<&[u8]>) {
        let Some(value) = value else {
            self.map.remove(key);
            return;
        };
        match self.map.get_mut(key) {
            Some(old) if old.len() == value.len() => old.copy_from_slice(value),
            Some(old) => *old = value.into(),
            None => {
                self.map.insert(key.into(), value.into());
            }
        }
    }
}

impl StateBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn commit(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError> {
        for (key, value) in batch {
            self.apply(key, value.as_deref());
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|value| &value[..])
    }

    fn root(&self) -> [u8; 32] {
        map_root(&self.map)
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.sorted().into_iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}
