//! Shared conformance suite: every backend must behave as the same
//! key/value store. One deterministic operation stream is applied to all
//! three backends and to a plain `BTreeMap` model; after every commit the
//! backends must agree with the model on the entry list and — the
//! authenticated part of the contract — on the root. The WAL backend
//! is additionally closed and reopened mid-stream: replay must land it
//! back in the same state.

use pol_store::{MemoryBackend, StateBackend, TrieBackend, WalBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pol-store-conf-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(rng: &mut StdRng) -> Vec<u8> {
    // A small key universe so deletes and overwrites actually hit.
    let k: u8 = rng.gen_range(0..40);
    vec![7, k, k ^ 0x5A]
}

fn value(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..24usize);
    (0..len).map(|_| rng.gen()).collect()
}

fn assert_agrees(backend: &dyn StateBackend, model: &BTreeMap<Vec<u8>, Vec<u8>>, step: usize) {
    let name = backend.name();
    let entries: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(backend.entries(), entries, "entries diverge on {name} at step {step}");
    let expect = MemoryBackend::from_entries(entries).root();
    assert_eq!(backend.root(), expect, "root diverges on {name} at step {step}");
}

#[test]
fn backends_conform_to_model_under_random_ops() {
    for seed in [3u64, 17, 99] {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir(&format!("ops-{seed}"));
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut memory = MemoryBackend::new();
        let mut trie = TrieBackend::new();
        let mut wal = Some(WalBackend::open(&dir, 3).unwrap());

        for step in 0..120 {
            let batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let k = key(&mut rng);
                    if rng.gen_bool(0.25) {
                        (k, None)
                    } else {
                        (k, Some(value(&mut rng)))
                    }
                })
                .collect();
            // Batches may repeat a key; last write wins everywhere.
            for (k, v) in &batch {
                match v {
                    Some(v) => {
                        model.insert(k.clone(), v.clone());
                    }
                    None => {
                        model.remove(k);
                    }
                }
            }
            memory.commit(&batch).unwrap();
            trie.commit(&batch).unwrap();
            wal.as_mut().unwrap().commit(&batch).unwrap();

            if step % 7 == 0 {
                memory.flush_block(step as u64).unwrap();
                trie.flush_block(step as u64).unwrap();
                wal.as_mut().unwrap().flush_block(step as u64).unwrap();
            }
            if step % 31 == 30 {
                // Clean mid-stream restart of the persistent backend.
                drop(wal.take());
                wal = Some(WalBackend::open(&dir, 3).unwrap());
            }

            assert_agrees(&memory, &model, step);
            assert_agrees(&trie, &model, step);
            assert_agrees(wal.as_ref().unwrap(), &model, step);
        }

        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn empty_backends_share_the_empty_root() {
    let dir = temp_dir("empty");
    let wal = WalBackend::open(&dir, 8).unwrap();
    assert_eq!(MemoryBackend::new().root(), pol_store::EMPTY_ROOT);
    assert_eq!(TrieBackend::new().root(), pol_store::EMPTY_ROOT);
    assert_eq!(wal.root(), pol_store::EMPTY_ROOT);
    assert!(MemoryBackend::new().entries().is_empty());
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
