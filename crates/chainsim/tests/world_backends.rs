//! Differential property test of the typed state layer: one random stream
//! of write sets, reads and block flushes runs through a `WorldState`
//! over each `pol-store` backend and through a reference
//! `HashMap<StateKey, StateValue>`. The worlds keep no typed copy of
//! their entries, so every read decodes the backend's bytes — mid-block
//! ones included, which on the trie find pending writes — except a
//! compiled AVM program's, which comes from the world's side table. Every
//! read must equal the model's, and at every flush the three roots must
//! equal the root of the model's encoded entries.

use pol_avm::opcode::AvmOp::{PushInt, Return};
use pol_avm::AvmProgram;
use pol_ledger::codec::{encode_key, encode_value};
use pol_ledger::{Address, StateKey, StateValue, WorldState, WriteSet};
use pol_store::{MemoryBackend, StateBackend, TrieBackend, WalBackend};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Keys per variant family, so writes, deletes and reads collide.
const KEYS: u16 = 24;

/// Key `k` of a small universe that spans every variant family: fixed
/// width keys, AVM names short enough to encode on the stack and one too
/// long to, and the program slots that hold blobs.
fn key(k: u16) -> StateKey {
    let addr = Address([(k % KEYS) as u8; 20]);
    let app = u64::from(k % 3);
    match k / KEYS {
        0 => StateKey::Balance(addr),
        1 => StateKey::Nonce(addr),
        2 => StateKey::Storage(addr, [(k % 5) as u8; 32]),
        3 => StateKey::Code(addr),
        4 => StateKey::AppGlobal(app, vec![b'g'; usize::from(k % 4)]),
        5 => StateKey::AppBox(app, vec![b'b'; 60 + usize::from(k % 4) * 10]),
        _ => StateKey::AppProgram(app),
    }
}

/// A value of the shape `key` holds; `AppProgram` slots mostly get a
/// compiled program, sometimes plain bytes (which must retire the old
/// program).
fn value(key: &StateKey, seed: u64) -> StateValue {
    match key {
        StateKey::Balance(_) => StateValue::U128(u128::from(seed) << 40),
        StateKey::Nonce(_) => StateValue::U64(seed),
        StateKey::Storage(..) => StateValue::Word([seed as u8; 32]),
        StateKey::Code(_) => StateValue::Bytes(vec![seed as u8; (seed % 90) as usize]),
        StateKey::AppGlobal(..) if seed.is_multiple_of(2) => StateValue::U64(seed),
        StateKey::AppProgram(_) if seed.is_multiple_of(5) => {
            StateValue::Bytes(seed.to_be_bytes().to_vec())
        }
        StateKey::AppProgram(_) => {
            StateValue::Blob(Arc::new(AvmProgram::new(vec![PushInt(seed % 4), Return])))
        }
        _ => StateValue::Bytes(seed.to_be_bytes()[..(seed % 9) as usize].to_vec()),
    }
}

fn temp_dir(case: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pol-chainsim-worlds-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The root of the model's entries, built from scratch.
fn model_root(model: &HashMap<StateKey, StateValue>) -> [u8; 32] {
    let entries = model.iter().map(|(k, v)| (encode_key(k), encode_value(v))).collect();
    MemoryBackend::from_entries(entries).root()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn worlds_over_every_backend_read_and_root_as_the_model(
        steps in proptest::collection::vec((0u8..10, 0u16..7 * KEYS, any::<u64>()), 1..160),
        case in any::<u64>(),
    ) {
        let dir = temp_dir(case);
        let mut worlds: Vec<WorldState> = [
            Box::new(MemoryBackend::new()) as Box<dyn StateBackend>,
            Box::new(WalBackend::open(&dir, 4).unwrap()),
            Box::new(TrieBackend::new()),
        ]
        .into_iter()
        .map(|backend| WorldState::with_backend(backend).0)
        .collect();
        let mut model: HashMap<StateKey, StateValue> = HashMap::new();
        let mut writes = WriteSet::new();
        for (at, &(op, k, seed)) in steps.iter().enumerate() {
            let key = key(k);
            match op {
                // Stage a put or a delete in the open write set.
                0..=3 => {
                    writes.insert(key.clone(), Some(value(&key, seed)));
                }
                4 => {
                    writes.insert(key, None);
                }
                // Commit the write set.
                5 | 6 => {
                    for (key, value) in &writes {
                        match value {
                            Some(value) => model.insert(key.clone(), value.clone()),
                            None => model.remove(key),
                        };
                    }
                    for world in &mut worlds {
                        world.apply(writes.clone());
                    }
                    writes.clear();
                }
                // Close the block: every root equals the model's.
                7 => {
                    let expected = model_root(&model);
                    for world in &mut worlds {
                        world.flush_block(at as u64).unwrap();
                        let name = world.backend_name();
                        prop_assert_eq!(world.state_root(), expected, "{} at step {}", name, at);
                    }
                }
                // Read, mid-block or not.
                _ => {
                    for world in &worlds {
                        let (name, expected) = (world.backend_name(), model.get(&key).cloned());
                        prop_assert_eq!(world.get(&key), expected, "{} reads {:?} at {}", name, key, at);
                    }
                }
            }
        }
        // Every key reads as the model, and the whole-world views agree.
        let digest = worlds[0].digest_input();
        for world in &worlds {
            for k in 0..7 * KEYS {
                let expected = model.get(&key(k)).cloned();
                prop_assert_eq!(world.get(&key(k)), expected, "{} final read", world.backend_name());
            }
            prop_assert_eq!(world.keys().count(), model.len());
            prop_assert_eq!(world.state_root(), model_root(&model));
            prop_assert!(world.digest_input() == digest);
        }
        drop(worlds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
