//! Micro-benchmarks of the journaled state layer: overlay open/commit
//! cycles and backend commit costs on ledger-shaped batches.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pol_ledger::{Address, Overlay, StateKey, StateValue, WorldState};
use pol_store::{MemoryBackend, StateBackend, TrieBackend};
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

criterion_group!(benches, overlay_rounds, backend_commits);
criterion_main!(benches);
