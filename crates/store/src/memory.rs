//! The in-memory backend: the historical `WorldState` map, extracted
//! behind [`StateBackend`] and kept as the default. Volatile by design —
//! its job is to be the fastest commit path and the semantic baseline
//! the persistent backends are conformance-tested against.

use crate::trie::map_root;
use crate::{BatchEntry, StateBackend, StoreError};
use std::collections::BTreeMap;

/// A volatile sorted-map backend. [`StateBackend::root`] recomputes the
/// canonical trie commitment from scratch on every call (`O(n log n)`) —
/// the cost the benchmark's `state-churn` workload contrasts with the
/// trie's, which hashes only what a block dirtied, at the flush, and
/// then reads its root from a memo (`store.memory.root_ms` against
/// `store.trie.flush_ms` + `store.trie.root_ms`).
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Builds a store from an entry list (snapshot restore).
    pub fn from_entries(entries: Vec<(Vec<u8>, Vec<u8>)>) -> MemoryBackend {
        MemoryBackend { map: entries.into_iter().collect() }
    }

    /// Every entry in key order, borrowed (the WAL's snapshot writer).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Vec<u8>)> {
        self.map.iter()
    }

    /// Number of live entries (the WAL's snapshot header).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Applies one owned put (`Some`) or delete (`None`): the single
    /// mutation every commit, WAL replay and snapshot load goes through.
    pub(crate) fn apply(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        match value {
            Some(v) => {
                self.map.insert(key, v);
            }
            None => {
                self.map.remove(&key);
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
            self.apply(key.clone(), value.clone());
        }
        Ok(())
    }

    fn root(&self) -> [u8; 32] {
        map_root(&self.map)
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}
