//! The hazards of hashing lazily and editing in place: a memo left
//! filled above an edited node, a node edited while a snapshot still
//! points at it, a hash computed for one side of a snapshot and read by
//! the other after they diverged.
//!
//! Random interleavings of commits (puts, overwrites, deletes, a key
//! repeated within one batch, batches large enough to send the flush to
//! worker threads), block flushes, mid-block roots, mid-block proofs and
//! snapshots — taken while memos are empty, then *both* sides edited
//! further. Each side carries a [`MemoryBackend`] fed the same batches,
//! whose root is the from-scratch definition. Nothing reads a root
//! except where the stream says so, so memos stay empty across steps in
//! a way the conformance suite (which checks the root after every
//! commit) never leaves them.

use pol_store::{verify_proof, BatchEntry, MemoryBackend, StateBackend, TrieBackend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Side {
    trie: TrieBackend,
    model: MemoryBackend,
}

/// A small universe, so overwrites, deletes and absent-key proofs all hit.
fn key(rng: &mut StdRng) -> Vec<u8> {
    rng.gen_range(0u16..600).to_be_bytes().to_vec()
}

fn batch(rng: &mut StdRng, len: usize) -> Vec<BatchEntry> {
    (0..len)
        .map(|_| {
            let value = (0..rng.gen_range(0..12usize)).map(|_| rng.gen()).collect();
            (key(rng), (!rng.gen_bool(0.25)).then_some(value))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_side_of_every_snapshot_keeps_its_own_root(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sides =
            vec![Side { trie: TrieBackend::new(), model: MemoryBackend::new() }];
        for step in 0..80u64 {
            let room_for_a_copy = sides.len() < 4;
            let at = rng.gen_range(0..sides.len());
            let side = &mut sides[at];
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    // Past the parallel-flush threshold once in a while.
                    let len =
                        if rng.gen_bool(0.2) { rng.gen_range(100..300) } else { rng.gen_range(0..6) };
                    let mut batch = batch(&mut rng, len);
                    if let Some(first) = batch.first().cloned() {
                        // The same key twice in one batch: the last write wins.
                        batch.push((first.0, Some(vec![step as u8])));
                    }
                    side.trie.commit(&batch).unwrap();
                    side.model.commit(&batch).unwrap();
                }
                4 => side.trie.flush_block(step).unwrap(),
                5 => prop_assert_eq!(side.trie.root(), side.model.root(), "step {}", step),
                6 | 7 => {
                    // The proof first, while the memos it needs are empty.
                    let key = key(&mut rng);
                    let proof = side.trie.prove(&key).expect("the trie proves every key");
                    let stored =
                        side.model.entries().into_iter().find(|(k, _)| *k == key).map(|(_, v)| v);
                    prop_assert_eq!(
                        verify_proof(&side.model.root(), &key, &proof),
                        Ok(stored),
                        "step {}", step
                    );
                }
                _ if room_for_a_copy => {
                    let copy = Side { trie: side.trie.clone(), model: side.model.clone() };
                    sides.push(copy);
                }
                _ => {}
            }
        }
        // Whatever was done to the others, each side is its own entry set.
        for side in &sides {
            prop_assert_eq!(side.trie.root(), side.model.root());
            prop_assert_eq!(side.trie.entries(), side.model.entries());
        }
    }
}
