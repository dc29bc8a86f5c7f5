//! Micro-benchmarks of the journaled state layer: overlay open/commit
//! cycles, backend commit costs on ledger-shaped batches, a
//! `state-churn`-shaped block on the bare trie, and typed reads through
//! `WorldState` on the memory and trie backends.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pol_ledger::codec::{encode_key, encode_value};
use pol_ledger::state::StateBase;
use pol_ledger::{Address, Overlay, StateKey, StateValue, WorldState, WriteSet};
use pol_store::{BatchEntry, MemoryBackend, StateBackend, TrieBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const ACCOUNTS: u64 = 256;
const TOUCHES: u64 = 64;

fn seeded_world(backend: Box<dyn StateBackend>) -> WorldState {
    let (mut world, _) = WorldState::with_backend(backend);
    for i in 0..ACCOUNTS {
        let mut addr = [0u8; 20];
        addr[12..20].copy_from_slice(&i.to_be_bytes());
        world.set(StateKey::Balance(Address(addr)), StateValue::U128(1_000_000));
    }
    world
}

fn addr(i: u64) -> Address {
    let mut bytes = [0u8; 20];
    bytes[12..20].copy_from_slice(&(i % ACCOUNTS).to_be_bytes());
    Address(bytes)
}

/// One speculation round: read-modify-write `TOUCHES` balances through an
/// overlay, exactly what the executor does per transaction attempt.
fn touch(view: &mut Overlay<'_>, round: u64) {
    for i in 0..TOUCHES {
        let key = StateKey::Balance(addr(round.wrapping_mul(31).wrapping_add(i)));
        let have = view.get(&key).and_then(|v| v.as_u128()).unwrap_or(0);
        view.put(key, StateValue::U128(have + 1));
    }
}

fn overlay_rounds(c: &mut Criterion) {
    let world = seeded_world(Box::new(MemoryBackend::new()));
    let mut group = c.benchmark_group("overlay");
    group.throughput(Throughput::Elements(TOUCHES));

    group.bench_function("round/fresh", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut view = Overlay::new(&world);
            touch(&mut view, round);
            let (reads, writes) = view.into_parts();
            black_box((reads.len(), writes.len()))
        })
    });
    group.finish();
}

fn backend_commits(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend");
    group.throughput(Throughput::Elements(TOUCHES));

    // Apply a write set through WorldState so the batch takes the same
    // mirror-and-commit path block commits do, then close the block the
    // way `Chain::produce_block` does: flush, then publish the root. On
    // memory the flush is free and the root is the from-scratch build; on
    // the trie the flush is the block's hashing and the root a memo read.
    let mut apply = |name: &str, backend: fn() -> Box<dyn StateBackend>| {
        group.bench_function(name, |b| {
            let mut world = seeded_world(backend());
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                let mut view = Overlay::new(&world);
                touch(&mut view, round);
                let (_, writes) = view.into_parts();
                world.apply(writes);
                world.flush_block(round).expect("volatile backends do not fail");
                black_box(world.state_root())
            })
        });
    };
    apply("apply/memory", || Box::new(MemoryBackend::new()));
    apply("apply/trie", || Box::new(TrieBackend::new()));
    group.finish();
}

/// Accounts of the churn stream, each preloaded with a balance and a
/// nonce: a 40,000-key trie.
const CHURN_ACCOUNTS: usize = 20_000;
/// Write sets per churn block, four keys each.
const CHURN_SETS: usize = 256;
/// Contracts whose storage the churn stream writes.
const CHURN_CONTRACTS: usize = 16;

/// `state-churn`'s stream as the encoded batches `WorldState::apply`
/// hands a backend: each write set moves a balance between two accounts,
/// bumps the sender's nonce and writes a fresh storage slot or, one time
/// in ten, deletes a live one.
struct Churn {
    rng: StdRng,
    accounts: Vec<Address>,
    contracts: Vec<Address>,
    live: Vec<StateKey>,
    round: u64,
}

impl Churn {
    fn new() -> Churn {
        let mut rng = StdRng::seed_from_u64(29);
        let mut address = || Address(rng.gen());
        let accounts = (0..CHURN_ACCOUNTS).map(|_| address()).collect();
        let contracts = (0..CHURN_CONTRACTS).map(|_| address()).collect();
        Churn { rng, accounts, contracts, live: Vec::new(), round: 0 }
    }

    fn preload(&self) -> Vec<Vec<BatchEntry>> {
        let put = |key, value| (encode_key(&key), Some(encode_value(&value)));
        self.accounts
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .flat_map(|&a| {
                        [
                            put(StateKey::Balance(a), StateValue::U128(1_000_000_000)),
                            put(StateKey::Nonce(a), StateValue::U64(0)),
                        ]
                    })
                    .collect()
            })
            .collect()
    }

    fn block(&mut self) -> Vec<Vec<BatchEntry>> {
        self.round += 1;
        let put = |key, value| (encode_key(&key), Some(encode_value(&value)));
        (0..CHURN_SETS)
            .map(|_| {
                let from = self.accounts[self.rng.gen_range(0..CHURN_ACCOUNTS)];
                let to = self.accounts[self.rng.gen_range(0..CHURN_ACCOUNTS)];
                let amount = u128::from(self.rng.gen_range(0..1_000u32));
                let storage = if !self.live.is_empty() && self.rng.gen_bool(0.1) {
                    let slot = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
                    (encode_key(&slot), None)
                } else {
                    let contract = self.contracts[self.rng.gen_range(0..CHURN_CONTRACTS)];
                    let slot = StateKey::Storage(contract, self.rng.gen());
                    self.live.push(slot.clone());
                    put(slot, StateValue::Word(self.rng.gen()))
                };
                vec![
                    put(StateKey::Balance(from), StateValue::U128(1_000_000_000 - amount)),
                    put(StateKey::Balance(to), StateValue::U128(1_000_000_000 + amount)),
                    put(StateKey::Nonce(from), StateValue::U64(self.round)),
                    storage,
                ]
            })
            .collect()
    }
}

/// One `state-churn` block on the bare trie: its 256 write sets
/// committed, the flush, the root. The blocks are drawn outside the
/// timing, where a [`MemoryBackend`] twin takes them too; the two roots
/// must agree at the end.
fn churn_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend");
    group.throughput(Throughput::Elements(4 * CHURN_SETS as u64));
    group.bench_function("block-1024/trie", |b| {
        let mut churn = Churn::new();
        let (mut trie, mut twin) = (TrieBackend::new(), MemoryBackend::new());
        for batch in churn.preload() {
            trie.commit(&batch).expect("volatile backends do not fail");
            twin.commit(&batch).expect("volatile backends do not fail");
        }
        trie.flush_block(0).expect("volatile backends do not fail");
        let mut height = 0;
        b.iter_batched(
            || {
                let block = churn.block();
                for batch in &block {
                    twin.commit(batch).expect("volatile backends do not fail");
                }
                block
            },
            |block| {
                for batch in &block {
                    trie.commit(batch).expect("volatile backends do not fail");
                }
                height += 1;
                trie.flush_block(height).expect("volatile backends do not fail");
                trie.root()
            },
            BatchSize::LargeInput,
        );
        assert_eq!(trie.root(), twin.root(), "the trie's root left its memory twin's");
    });
    group.finish();
}

/// Typed reads per `world/read` iteration.
const READS: usize = 1_024;

/// Typed reads of present keys through `WorldState` (`StateBase::load`,
/// the path every overlay read falls through to) over a flushed world of
/// 2,000 and of 75,000 entries — about `state-churn`'s size at the end of
/// a run — shaped like its accounts: a balance, a nonce and a storage
/// slot each. A row's keys mix the three kinds in random order.
fn world_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("world");
    group.throughput(Throughput::Elements(READS as u64));
    for entries in [2_000u64, 75_000] {
        let mut rng = StdRng::seed_from_u64(entries);
        let keys: Vec<StateKey> = (0..entries / 3)
            .flat_map(|_| {
                let account = Address(rng.gen());
                [
                    StateKey::Balance(account),
                    StateKey::Nonce(account),
                    StateKey::Storage(account, rng.gen()),
                ]
            })
            .collect();
        let probes: Vec<StateKey> =
            (0..READS).map(|_| keys[rng.gen_range(0..keys.len())].clone()).collect();
        let backends: [Box<dyn StateBackend>; 2] =
            [Box::new(MemoryBackend::new()), Box::new(TrieBackend::new())];
        for backend in backends {
            let name = backend.name();
            let (mut world, _) = WorldState::with_backend(backend);
            for chunk in keys.chunks(256) {
                let writes: WriteSet = chunk
                    .iter()
                    .map(|key| {
                        let value = match key {
                            StateKey::Balance(_) => StateValue::U128(rng.gen()),
                            StateKey::Nonce(_) => StateValue::U64(rng.gen()),
                            _ => StateValue::Word(rng.gen()),
                        };
                        (key.clone(), Some(value))
                    })
                    .collect();
                world.apply(writes);
            }
            world.flush_block(1).expect("volatile backends do not fail");
            group.bench_function(format!("read/{name}/{entries}"), |b| {
                b.iter(|| {
                    let found = probes.iter().filter(|key| world.load(key).is_some()).count();
                    assert_eq!(found, READS, "every probed key is present");
                    black_box(found)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, overlay_rounds, backend_commits, churn_blocks, world_reads);
criterion_main!(benches);
