//! The in-memory backend: the default store behind `WorldState`, and the
//! image the write-ahead log replays into. Volatile by design — its job
//! is to be the fastest commit and read path and the semantic baseline
//! the persistent backends are conformance-tested against.

use crate::trie::map_root;
use crate::{BatchEntry, StateBackend, StoreError};
use std::hash::{BuildHasher, RandomState};

/// One entry: `key ‖ value` in one allocation, the key's length beside
/// it.
#[derive(Debug, Clone)]
struct Entry {
    bytes: Box<[u8]>,
    key_len: usize,
}

impl Entry {
    fn new(key: &[u8], value: &[u8]) -> Entry {
        let mut bytes = Vec::with_capacity(key.len() + value.len());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        Entry { bytes: bytes.into_boxed_slice(), key_len: key.len() }
    }

    fn key(&self) -> &[u8] {
        &self.bytes[..self.key_len]
    }

    fn value(&self) -> &[u8] {
        &self.bytes[self.key_len..]
    }
}

/// The tag of an empty slot.
const EMPTY: u8 = 0;
/// Fewest slots a table that holds anything has.
const MIN_SLOTS: usize = 8;

/// A slot's tag: the top seven bits of its key's hash, and a set high
/// bit so that no tag is [`EMPTY`].
fn tag(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// A volatile hash table of entries. Nothing is kept in key order: reads
/// are one hash lookup, and [`StateBackend::entries`] and the WAL's
/// snapshot sort on demand. [`StateBackend::root`] recomputes the
/// canonical trie commitment from scratch on every call (`O(n log n)`) —
/// the cost the benchmark's `state-churn` workload contrasts with the
/// trie's, which hashes only what a block dirtied, at the flush, and then
/// reads its root from a memo (`store.memory.root_ms` against
/// `store.trie.flush_ms` + `store.trie.root_ms`).
///
/// The table is open-addressed and probed linearly, with a tag byte
/// beside each slot, so a probe reads an entry only when its tag
/// matches. It doubles before it is more than seven eighths full, as the
/// standard library's maps do, so it holds as many slots as they would. It is not a `HashSet<Entry>` because
/// a set's elements cannot be edited in place: a rewrite of unchanged
/// length — every balance, nonce and storage word a transaction writes —
/// would take the entry out and put it back, two probes and two hashes
/// where this table takes one of each. Neither allocates.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    /// A power of two long (none before the first insert), [`EMPTY`] or
    /// the [`tag`] of the entry in the same place of `slots`.
    tags: Vec<u8>,
    slots: Vec<Option<Entry>>,
    /// Entries held.
    len: usize,
    /// Randomly keyed, as `HashMap`'s is: keys can come from outside the
    /// program, and a chosen set must not collide into one probe run.
    hasher: RandomState,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Builds a store from an entry list (snapshot restore).
    pub fn from_entries(entries: Vec<(Vec<u8>, Vec<u8>)>) -> MemoryBackend {
        let mut memory = MemoryBackend::new();
        for (key, value) in &entries {
            memory.apply(key, Some(value));
        }
        memory
    }

    fn entries_unsorted(&self) -> impl Iterator<Item = &Entry> {
        self.slots.iter().flatten()
    }

    /// Every entry, borrowed and sorted by key (the WAL's snapshot writer
    /// and [`StateBackend::entries`]).
    pub(crate) fn sorted(&self) -> Vec<(&[u8], &[u8])> {
        let mut entries: Vec<(&[u8], &[u8])> =
            self.entries_unsorted().map(|entry| (entry.key(), entry.value())).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Number of live entries (the WAL's snapshot header).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot holding `key`, whose hash is `hash`, or the empty slot
    /// that ends its probe run. The table must have slots; at most seven
    /// eighths are full, so a run always ends.
    fn probe(&self, key: &[u8], hash: u64) -> Result<usize, usize> {
        let mask = self.tags.len() - 1;
        let tag = tag(hash);
        let mut at = hash as usize & mask;
        loop {
            match self.tags[at] {
                EMPTY => return Err(at),
                t if t == tag && self.slots[at].as_ref().is_some_and(|e| e.key() == key) => {
                    return Ok(at)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The slot holding `key`, if one does.
    fn find(&self, key: &[u8]) -> Option<usize> {
        match self.len {
            0 => None,
            _ => self.probe(key, self.hasher.hash_one(key)).ok(),
        }
    }

    /// Applies one put (`Some`) or delete (`None`): the single mutation
    /// every commit, WAL replay and snapshot load goes through. A value
    /// of unchanged length is written over the old one in the entry's
    /// own buffer.
    pub(crate) fn apply(&mut self, key: &[u8], value: Option<&[u8]>) {
        let Some(value) = value else {
            if let Some(at) = self.find(key) {
                self.remove(at);
            }
            return;
        };
        let hash = self.hasher.hash_one(key);
        let at = match (!self.tags.is_empty()).then(|| self.probe(key, hash)) {
            Some(Ok(at)) => {
                let entry = self.slots[at].as_mut().expect("a tagged slot holds an entry");
                match entry.value().len() == value.len() {
                    true => entry.bytes[entry.key_len..].copy_from_slice(value),
                    false => *entry = Entry::new(key, value),
                }
                return;
            }
            Some(Err(at)) if 8 * (self.len + 1) <= 7 * self.tags.len() => at,
            _ => {
                self.grow();
                self.vacant(hash)
            }
        };
        self.tags[at] = tag(hash);
        self.slots[at] = Some(Entry::new(key, value));
        self.len += 1;
    }

    /// The empty slot that ends the probe run from `hash`'s home.
    fn vacant(&self, hash: u64) -> usize {
        let mask = self.tags.len() - 1;
        let mut at = hash as usize & mask;
        while self.tags[at] != EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    /// Doubles the table and places every entry again.
    fn grow(&mut self) {
        let len = (2 * self.tags.len()).max(MIN_SLOTS);
        let held =
            std::mem::replace(&mut self.slots, std::iter::repeat_with(|| None).take(len).collect());
        self.tags = vec![EMPTY; len];
        for entry in held.into_iter().flatten() {
            let hash = self.hasher.hash_one(entry.key());
            let at = self.vacant(hash);
            self.tags[at] = tag(hash);
            self.slots[at] = Some(entry);
        }
    }

    /// Empties slot `hole` and closes the gap: each later entry of its
    /// probe run whose home is not after the hole moves back into it, so
    /// every run stays unbroken and no slot is left as a tombstone.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.tags.len() - 1;
        self.tags[hole] = EMPTY;
        self.slots[hole] = None;
        self.len -= 1;
        let mut at = (hole + 1) & mask;
        while self.tags[at] != EMPTY {
            let entry = self.slots[at].as_ref().expect("a tagged slot holds an entry");
            let home = self.hasher.hash_one(entry.key()) as usize & mask;
            // Distances back from `at`: its home is the hole or before it.
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at].take();
                self.tags[hole] = std::mem::replace(&mut self.tags[at], EMPTY);
                hole = at;
            }
            at = (at + 1) & mask;
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
        self.find(key).and_then(|at| self.slots[at].as_ref()).map(Entry::value)
    }

    fn root(&self) -> [u8; 32] {
        map_root(self.entries_unsorted().map(|entry| (entry.key(), entry.value())))
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.sorted().into_iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot is an entry, a boxed slice and a length, in three words: a
    /// field that widens it widens every slot of the table.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_slot_is_three_words() {
        assert_eq!(std::mem::size_of::<Option<Entry>>(), 24);
    }

    #[test]
    fn deletes_keep_every_probe_run_whole() {
        let mut memory = MemoryBackend::new();
        let mut model = std::collections::BTreeMap::new();
        let key = |i: u32| [&[0xEE; 3][..i as usize % 4], &i.to_be_bytes()].concat();
        // Up to seven eighths full at every size, emptied out of
        // insertion order and filled again, so runs wrap past the end.
        for round in 0..3u32 {
            for i in 0..1_500u32 {
                let value = vec![round as u8; i as usize % 5];
                memory.apply(&key(i), Some(&value));
                model.insert(key(i), value);
            }
            for i in (0..1_500u32).filter(|i| (i * 7 + round) % 3 != 0) {
                memory.apply(&key(i * 13 % 1_500), None);
                model.remove(&key(i * 13 % 1_500));
                if i % 97 == 0 {
                    let held = (0..1_500).map(key).filter(|k| memory.get(k).is_some()).count();
                    assert_eq!(held, model.len(), "round {round}, {i}");
                }
            }
            assert_eq!(memory.len(), model.len());
            for i in 0..1_500u32 {
                assert_eq!(memory.get(&key(i)), model.get(&key(i)).map(Vec::as_slice), "{i}");
            }
        }
        let sorted: Vec<_> = model.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(memory.sorted(), sorted);
    }

    #[test]
    fn a_rewrite_of_unchanged_length_stays_in_its_buffer() {
        let mut memory = MemoryBackend::new();
        memory.apply(b"key", Some(b"old value"));
        let buffer = |memory: &MemoryBackend| memory.get(b"key").map(<[u8]>::as_ptr);
        let before = buffer(&memory);
        memory.apply(b"key", Some(b"new value"));
        assert_eq!(memory.get(b"key"), Some(&b"new value"[..]));
        assert_eq!(buffer(&memory), before, "rewritten where it lay");
        memory.apply(b"key", Some(b"a longer value"));
        assert_eq!(memory.get(b"key"), Some(&b"a longer value"[..]));
        memory.apply(b"key", None);
        assert_eq!(memory.get(b"key"), None);
        assert_eq!(memory.len(), 0);
    }
}
