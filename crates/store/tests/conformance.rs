//! Shared conformance suite: every backend must behave as the same
//! key/value store. One deterministic operation stream is applied to all
//! three backends and to a plain `BTreeMap` model; after every commit the
//! backends must agree with the model on every key's read, on the entry
//! list and — the authenticated part of the contract — on the root. The
//! WAL backend is additionally closed and reopened mid-stream: replay
//! must land it back in the same state.

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

/// Key `k` of the universe.
fn nth_key(k: u8) -> Vec<u8> {
    vec![7, k, k ^ 0x5A]
}

fn key(rng: &mut StdRng) -> Vec<u8> {
    // A small key universe so deletes and overwrites actually hit.
    nth_key(rng.gen_range(0..40))
}

fn value(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..24usize);
    (0..len).map(|_| rng.gen()).collect()
}

fn assert_agrees(backend: &dyn StateBackend, model: &BTreeMap<Vec<u8>, Vec<u8>>, step: usize) {
    let name = backend.name();
    for k in 0..42 {
        let key = nth_key(k);
        let read = backend.get(&key);
        assert_eq!(read, model.get(&key).map(Vec::as_slice), "{name} reads {key:?} at step {step}");
    }
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

#[test]
fn every_backend_reads_each_commit_pending_or_flushed() {
    let dir = temp_dir("reads");
    let put = |k: &str, v: &str| (k.as_bytes().to_vec(), Some(v.as_bytes().to_vec()));
    let del = |k: &str| (k.as_bytes().to_vec(), None);
    let mut backends: Vec<Box<dyn StateBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(WalBackend::open(&dir, 2).unwrap()),
        Box::new(TrieBackend::new()),
    ];
    for backend in &mut backends {
        let name = backend.name();
        let read =
            |backend: &dyn StateBackend, k: &str| backend.get(k.as_bytes()).map(<[u8]>::to_vec);
        backend.commit(&[put("a", "1"), put("b", "2")]).unwrap();
        assert_eq!(read(&**backend, "a"), Some(b"1".to_vec()), "{name}: a pending write");
        backend.flush_block(1).unwrap();
        assert_eq!(read(&**backend, "b"), Some(b"2".to_vec()), "{name}: a flushed write");
        // One block: an overwrite within a batch and across two, and a
        // delete of a flushed key and of a pending one.
        backend.commit(&[put("a", "3"), put("a", "4"), put("c", "5")]).unwrap();
        backend.commit(&[put("a", "6"), del("b")]).unwrap();
        backend.commit(&[del("c")]).unwrap();
        for at in ["pending", "flushed"] {
            assert_eq!(read(&**backend, "a"), Some(b"6".to_vec()), "{name}: last write, {at}");
            assert_eq!(read(&**backend, "b"), None, "{name}: a deleted key, {at}");
            assert_eq!(read(&**backend, "c"), None, "{name}: written then deleted, {at}");
            assert_eq!(read(&**backend, "d"), None, "{name}: never written, {at}");
            backend.flush_block(2).unwrap();
        }
    }
    // A reopened log reads what was committed, flushed or not.
    let wal = &mut backends[1];
    wal.commit(&[put("d", "7"), put("a", "8")]).unwrap();
    drop(backends);
    let reopened = WalBackend::open(&dir, 2).unwrap();
    assert_eq!(reopened.get(b"a"), Some(&b"8"[..]));
    assert_eq!(reopened.get(b"b"), None);
    assert_eq!(reopened.get(b"d"), Some(&b"7"[..]));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every backend's view of `model`: each key's read, the entry list, the
/// root, and the trie's proof of each key checked against the others'
/// roots.
fn assert_all_agree(
    backends: &[&dyn StateBackend],
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    probes: &[Vec<u8>],
    stage: &str,
) {
    let entries: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let root = MemoryBackend::from_entries(entries.clone()).root();
    let trie = backends.iter().find(|b| b.name() == "trie").expect("a trie among the backends");
    for backend in backends {
        let name = backend.name();
        for key in probes {
            let expect = model.get(key).map(Vec::as_slice);
            assert_eq!(backend.get(key), expect, "{name} reads a {}-byte key, {stage}", key.len());
        }
        assert!(backend.entries() == entries, "{name} lists the entries, {stage}");
        assert_eq!(backend.root(), root, "{name}'s root, {stage}");
    }
    for key in probes {
        let proof = trie.prove(key).expect("the trie proves every key");
        let proven = pol_store::verify_proof(&root, key, &proof);
        assert_eq!(
            proven,
            Ok(model.get(key).cloned()),
            "a {}-byte key's proof, {stage}",
            key.len()
        );
    }
}

#[test]
fn backends_agree_over_keys_and_values_of_every_length() {
    let dir = temp_dir("lengths");
    let mut rng = StdRng::seed_from_u64(53);
    let bytes = |rng: &mut StdRng, len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen()).collect() };
    // Keys of 1 to 80 bytes, one a prefix of another, and one whose
    // length no 16-bit field holds.
    let mut keys: Vec<Vec<u8>> = (1..=80).map(|len| bytes(&mut rng, len)).collect();
    keys.push(keys[79][..33].to_vec());
    keys.push(bytes(&mut rng, 70_000));
    let mut probes = keys.clone();
    probes.push(keys[79][..34].to_vec());
    probes.push(Vec::new());

    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut memory = MemoryBackend::new();
    let mut trie = TrieBackend::new();
    let mut wal = WalBackend::open(&dir, 2).unwrap();
    // Rounds: first writes (a fifth of them empty), rewrites at the same
    // length, rewrites at another (some to and from empty), a third of
    // the keys deleted, and those written again.
    for round in 0..5 {
        let mut batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let old = model.get(key).map(Vec::len);
            let value = match (round, old) {
                (0, _) => Some(if i % 5 == 0 { Vec::new() } else { bytes(&mut rng, i % 41) }),
                (1, Some(len)) => Some(bytes(&mut rng, len)),
                (2, Some(len)) => Some(bytes(&mut rng, if len == 0 { 9 } else { (len * 3) % 7 })),
                (3, Some(_)) if i % 3 == 0 => None,
                (4, None) => Some(bytes(&mut rng, i % 13)),
                _ => continue,
            };
            match &value {
                Some(value) => model.insert(key.clone(), value.clone()),
                None => model.remove(key),
            };
            batch.push((key.clone(), value));
        }
        // Two commits a round, so the trie reads some writes from its
        // pending index and some from a settled copy.
        let (first, second) = batch.split_at(batch.len() / 2);
        for commit in [first, second] {
            memory.commit(commit).unwrap();
            trie.commit(commit).unwrap();
            wal.commit(commit).unwrap();
        }
        assert_all_agree(&[&memory, &trie, &wal], &model, &probes, &format!("round {round}"));
        memory.flush_block(round).unwrap();
        trie.flush_block(round).unwrap();
        wal.flush_block(round).unwrap();
        assert_all_agree(
            &[&memory, &trie, &wal],
            &model,
            &probes,
            &format!("round {round} flushed"),
        );
        if round % 2 == 0 {
            // Each reopen replays a snapshot, the log after it, or both.
            drop(wal);
            wal = WalBackend::open(&dir, 2).unwrap();
            let stage = format!("round {round} reopened");
            assert_all_agree(&[&memory, &trie, &wal], &model, &probes, &stage);
        }
    }
    assert!(model.values().any(Vec::is_empty), "an empty value survives to the end");
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
