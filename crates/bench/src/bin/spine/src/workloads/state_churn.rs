//! `state-churn`: the state layer without a chain. A `WorldState` over
//! the Merkle trie takes blocks of transaction-shaped write sets, then
//! publishes its root and serves inclusion and exclusion proofs; the
//! identical stream is replayed over the memory and WAL backends.
//!
//! It uses the state layer two ways at once — writes (cheap on memory,
//! dear on the trie) beside authenticated reads (free on the trie,
//! O(n log n) on memory) — plus durability. A gain for commits that
//! costs roots or proofs, or the reverse, shows here; the node workloads
//! barely touch the backend.

use super::{timed_setup, Cfg, Outcome};
use crate::gen::{Fingerprint, Rng};
use crate::layers::{self, Address, ProofKey, RawBackend, StoreKind, World, Write};
use crate::stats::{self, SEGMENTS};
use crate::trace::{Tracer, NO_OP};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAME: &str = "state-churn";
pub const WHY: &str = "writes (dear on the trie) beside roots and proofs (dear on memory) plus WAL durability: the state layer pulled both ways, with no chain around it";

/// Accounts preloaded before the measured phase.
const ACCOUNTS: usize = 20_000;
/// Accounts per preload write set.
const PRELOAD_SET: usize = 64;
/// Write sets (two balances, a nonce, one storage slot) per block.
const SETS_PER_BLOCK: usize = 256;
/// Share of storage writes that delete a live slot instead.
const DELETE_SHARE: f64 = 0.10;
/// Proofs served per block: half inclusion, half exclusion.
const PROOFS_PER_BLOCK: usize = 16;
const CONTRACTS: usize = 16;
/// Blocks per second of `--seconds`: what the trie sustains on the
/// 2-core host.
const BLOCKS_PER_SECOND: f64 = 52.0;
/// Cold WAL reopenings `restart_ms` is the median of.
const RESTARTS: usize = 3;

struct Block {
    sets: Vec<Vec<Write>>,
    /// Key and whether it must be present.
    proofs: Vec<(ProofKey, bool)>,
}

struct Inputs {
    preload: Vec<Vec<Write>>,
    blocks: Vec<Block>,
    user_bytes: usize,
    keys_per_block: usize,
    fingerprint: u64,
}

fn address(rng: &mut Rng) -> Address {
    Address(rng.bytes())
}

fn generate(seed: u64, blocks: usize) -> Inputs {
    let mut rng = Rng::fork(seed, "state-churn.stream");
    let accounts: Vec<Address> = (0..ACCOUNTS).map(|_| address(&mut rng)).collect();
    let contracts: Vec<Address> = (0..CONTRACTS).map(|_| address(&mut rng)).collect();
    let mut balances = vec![1_000_000_000u128; ACCOUNTS];
    let mut nonces = vec![0u64; ACCOUNTS];
    let mut live: Vec<(usize, [u8; 32])> = Vec::new();
    let mut fp = Fingerprint::default();
    let mut user_bytes = 0usize;

    let preload: Vec<Vec<Write>> = accounts
        .chunks(PRELOAD_SET)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|a| [Write::Balance(*a, 1_000_000_000), Write::Nonce(*a, 0)])
                .collect()
        })
        .collect();
    for set in &preload {
        user_bytes += layers::encoded_len(set);
    }

    let blocks: Vec<Block> = (0..blocks)
        .map(|_| {
            let sets: Vec<Vec<Write>> = (0..SETS_PER_BLOCK)
                .map(|_| {
                    let from = rng.below(ACCOUNTS as u64) as usize;
                    let to = (from + 1 + rng.below(ACCOUNTS as u64 - 1) as usize) % ACCOUNTS;
                    let amount = u128::from(rng.below(1_000));
                    balances[from] -= amount.min(balances[from]);
                    balances[to] += amount;
                    nonces[from] += 1;
                    let storage = if !live.is_empty() && rng.unit() < DELETE_SHARE {
                        let (c, slot) = live.swap_remove(rng.below(live.len() as u64) as usize);
                        Write::DeleteStorage(contracts[c], slot)
                    } else {
                        let c = rng.below(CONTRACTS as u64) as usize;
                        let slot: [u8; 32] = rng.bytes();
                        live.push((c, slot));
                        Write::Storage(contracts[c], slot, rng.bytes())
                    };
                    let set = vec![
                        Write::Balance(accounts[from], balances[from]),
                        Write::Balance(accounts[to], balances[to]),
                        Write::Nonce(accounts[from], nonces[from]),
                        storage,
                    ];
                    user_bytes += layers::encoded_len(&set);
                    fp.update(&accounts[from].0);
                    fp.update(&balances[to].to_le_bytes());
                    set
                })
                .collect();
            let proofs = (0..PROOFS_PER_BLOCK)
                .map(|i| {
                    if i % 2 == 0 {
                        (ProofKey::Balance(accounts[rng.below(ACCOUNTS as u64) as usize]), true)
                    } else if i % 4 == 1 {
                        (ProofKey::Balance(address(&mut rng)), false)
                    } else {
                        let c = contracts[rng.below(CONTRACTS as u64) as usize];
                        (ProofKey::Storage(c, rng.bytes()), false)
                    }
                })
                .collect();
            Block { sets, proofs }
        })
        .collect();
    Inputs {
        preload,
        blocks,
        user_bytes,
        keys_per_block: SETS_PER_BLOCK * 4,
        fingerprint: fp.value(),
    }
}

fn preloaded(kind: StoreKind, wal_dir: &Path, inputs: &Inputs) -> World {
    let mut world = World::open(kind, wal_dir);
    for set in &inputs.preload {
        world.apply(set);
    }
    world.flush_block(0);
    world
}

fn fresh_wal_dir(cfg: &Cfg, tag: &str) -> PathBuf {
    let dir = cfg.out_dir.join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Roots at the end of each segment and at the end of the stream.
type Checkpoints = Vec<[u8; 32]>;

struct TriePass {
    block_us: Vec<f64>,
    proof_us: Vec<f64>,
    seg_wall_s: [f64; SEGMENTS],
    seg_blocks: [f64; SEGMENTS],
    checkpoints: Checkpoints,
    proofs_ok: bool,
    tamper_caught: bool,
    wall_s: f64,
}

/// The measured phase: every block applied, flushed, rooted and proven
/// on the trie-backed world.
fn trie_pass(world: &mut World, inputs: &Inputs, tracer: &mut Tracer) -> TriePass {
    let n = inputs.blocks.len();
    let mut pass = TriePass {
        block_us: Vec::with_capacity(n),
        proof_us: Vec::with_capacity(n * PROOFS_PER_BLOCK),
        seg_wall_s: [0.0; SEGMENTS],
        seg_blocks: [0.0; SEGMENTS],
        checkpoints: Vec::with_capacity(SEGMENTS),
        proofs_ok: true,
        tamper_caught: true,
        wall_s: 0.0,
    };
    let started = Instant::now();
    tracer.enter("spine.measure", NO_OP);
    for (seg, range) in stats::segment_bounds(n).into_iter().enumerate() {
        let seg_start = Instant::now();
        let mut root = [0u8; 32];
        for b in range {
            let block = &inputs.blocks[b];
            let op = b as u32;
            let t = Instant::now();
            for set in &block.sets {
                tracer.enter("ledger.apply", op);
                world.apply(set);
                tracer.exit();
            }
            tracer.span("ledger.flush_block", op, || world.flush_block(b as u64 + 1));
            root = tracer.span("ledger.state_root", op, || world.state_root());
            let mut tamper = None;
            for (key, present) in &block.proofs {
                let t = Instant::now();
                let proof = tracer.span("ledger.prove", op, || world.prove(key));
                let proof = proof.expect("the trie proves every key");
                let verdict =
                    tracer.span("store.verify_proof", op, || layers::verify_proof(&root, &proof));
                pass.proof_us.push(t.elapsed().as_secs_f64() * 1e6);
                pass.proofs_ok &= verdict == Ok(*present);
                tamper.get_or_insert(proof);
            }
            pass.block_us.push(t.elapsed().as_secs_f64() * 1e6);
            // One forged proof per block, outside every timing sample.
            if let Some(proof) = tamper {
                pass.tamper_caught &=
                    layers::verify_proof(&root, &layers::tampered(&proof)).is_err();
            }
            pass.seg_blocks[seg] += 1.0;
        }
        pass.seg_wall_s[seg] = seg_start.elapsed().as_secs_f64();
        pass.checkpoints.push(root);
    }
    tracer.exit();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// The same stream on another backend, roots taken at the checkpoints.
fn replay_pass(world: &mut World, inputs: &Inputs) -> Checkpoints {
    stats::segment_bounds(inputs.blocks.len())
        .into_iter()
        .map(|range| {
            for b in range {
                for set in &inputs.blocks[b].sets {
                    world.apply(set);
                }
                world.flush_block(b as u64 + 1);
            }
            world.state_root()
        })
        .collect()
}

/// Per-backend costs from bare `StateBackend` twins fed the encoded
/// batches `WorldState::apply` would hand them.
///
/// Runs before anything else of a traced run and keeps every backend
/// alive until the last is built, so each `VmRSS` growth is that
/// backend's own footprint and not memory a freed one left behind. (In
/// a process that ran other workloads first the allocator's free lists
/// absorb part of it; the driver runs one workload per process.)
fn raw_twins(out: &mut Outcome, cfg: &Cfg, inputs: &Inputs, tracer: &mut Tracer) -> f64 {
    let mut trie_s = 0.0;
    let mut alive = Vec::new();
    for kind in StoreKind::ALL {
        let dir = fresh_wal_dir(cfg, kind.name());
        let rss_before = super::rss_mb("VmRSS:");
        let mut backend = RawBackend::open(kind, &dir);
        for set in &inputs.preload {
            backend.commit(&layers::encoded_batch(set));
        }
        let label: &'static str = match kind {
            StoreKind::Memory => "twin.store.memory",
            StoreKind::Wal => "twin.store.wal",
            StoreKind::Trie => "twin.store.trie",
        };
        tracer.enter(label, NO_OP);
        let (mut commit_s, mut flush_s, mut root_s) = (0.0, 0.0, 0.0);
        let (mut keys, mut roots) = (0usize, 0usize);
        let checkpoints: Vec<usize> =
            stats::segment_bounds(inputs.blocks.len()).into_iter().map(|r| r.end).collect();
        for (b, block) in inputs.blocks.iter().enumerate() {
            let batches: Vec<_> = block.sets.iter().map(|s| layers::encoded_batch(s)).collect();
            let t = Instant::now();
            tracer.enter("store.commit", b as u32);
            for batch in &batches {
                backend.commit(batch);
            }
            tracer.exit();
            commit_s += t.elapsed().as_secs_f64();
            keys += inputs.keys_per_block;
            let t = Instant::now();
            tracer.span("store.flush_block", b as u32, || backend.flush_block(b as u64 + 1));
            flush_s += t.elapsed().as_secs_f64();
            // The trie's root is maintained, so it is read every block;
            // the others recompute it from scratch and are read at the
            // checkpoints only.
            if kind == StoreKind::Trie || checkpoints.contains(&(b + 1)) {
                let t = Instant::now();
                std::hint::black_box(tracer.span("store.root", b as u32, || backend.root()));
                root_s += t.elapsed().as_secs_f64();
                roots += 1;
            }
        }
        tracer.exit();
        let name = kind.name();
        let blocks = inputs.blocks.len().max(1) as f64;
        out.layer(
            format!("store.{name}.commit_us_per_key"),
            commit_s * 1e6 / keys.max(1) as f64,
            "us",
        );
        out.layer(format!("store.{name}.flush_ms"), flush_s * 1e3 / blocks, "ms");
        out.layer(format!("store.{name}.root_ms"), root_s * 1e3 / roots.max(1) as f64, "ms");
        out.layer(format!("store.{name}.rss_mb"), super::rss_mb("VmRSS:") - rss_before, "MiB");
        if kind == StoreKind::Trie {
            trie_s = commit_s + flush_s + root_s;
        }
        alive.push((backend, dir));
    }
    for (backend, dir) in alive {
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
    }
    trie_s
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let blocks = cfg.count(BLOCKS_PER_SECOND, 2 * SEGMENTS);
    let trie_twin_s = if tracer.enabled() {
        raw_twins(&mut out, cfg, &generate(cfg.seed, blocks), tracer)
    } else {
        0.0
    };
    let wal_dir = fresh_wal_dir(cfg, "world");
    let ((inputs, mut trie, mut wal, mut memory), setup_s) = timed_setup(tracer, || {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let inputs = generate(cfg.seed, blocks);
        let trie = preloaded(StoreKind::Trie, &wal_dir, &inputs);
        let wal = preloaded(StoreKind::Wal, &wal_dir, &inputs);
        let memory = preloaded(StoreKind::Memory, &wal_dir, &inputs);
        (inputs, trie, wal, memory)
    });
    out.push("setup_s", setup_s, "s");
    out.inputs_fp = inputs.fingerprint;

    let mut quiet = Tracer::new(false);
    let pass = trie_pass(&mut trie, &inputs, &mut quiet);
    out.attempted = blocks as u64;
    let rates = stats::segment_rates(&pass.seg_blocks, &pass.seg_wall_s);
    out.push_op_metrics(rates, pass.block_us.clone());
    out.push("proof_p50_us", stats::median(&pass.proof_us), "us");

    // Durability and the cross-backend oracle.
    let wal_roots = replay_pass(&mut wal, &inputs);
    let memory_roots = replay_pass(&mut memory, &inputs);
    drop(wal);
    let wal_bytes = dir_bytes(&wal_dir);
    let mut restart_ms = Vec::with_capacity(RESTARTS);
    let mut reopened_root = [0u8; 32];
    for _ in 0..RESTARTS {
        let t = Instant::now();
        reopened_root = layers::wal_reopen_root(&wal_dir);
        restart_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let restart = stats::median(&restart_ms);
    out.push("restart_ms", restart, "ms");
    let write_amp = wal_bytes as f64 / inputs.user_bytes as f64;
    out.push("write_amp", write_amp, "x");

    let final_root = *pass.checkpoints.last().expect("five checkpoints");
    out.check(
        "memory, WAL and trie roots equal at every checkpoint",
        pass.checkpoints == wal_roots && pass.checkpoints == memory_roots,
        format!("{} checkpoints", pass.checkpoints.len()),
    );
    out.check("every proof verifies against the block's root", pass.proofs_ok, "");
    out.check("a tampered proof fails in every block", pass.tamper_caught, "");
    out.check("the reopened WAL replays to the final root", reopened_root == final_root, "");
    let failed = [pass.proofs_ok, pass.tamper_caught].iter().filter(|ok| !**ok).count() as u64;
    out.failed = failed;
    out.push("failed_share", failed as f64 / out.attempted.max(1) as f64, "share");
    let mut fp = Fingerprint::default();
    fp.update(&final_root);
    fp.update(&wal_bytes.to_le_bytes());
    out.virtual_fp = fp.value();
    drop(memory);

    if tracer.enabled() {
        drop(trie);
        let dir = fresh_wal_dir(cfg, "traced");
        let mut traced_world = preloaded(StoreKind::Trie, &dir, &inputs);
        let traced = trie_pass(&mut traced_world, &inputs, tracer);
        drop(traced_world);
        let keys = (inputs.keys_per_block * blocks) as f64;
        out.layer(
            "ledger.apply_us_per_key",
            tracer.total_ns("ledger.apply") as f64 / 1e3 / keys,
            "us",
        );
        out.layer(
            "ledger.root_ms",
            stats::median(&tracer.durations("ledger.state_root")) / 1e6,
            "ms",
        );
        out.layer(
            "store.trie.prove_us",
            stats::median(&tracer.durations("ledger.prove")) / 1e3,
            "us",
        );
        out.layer(
            "store.verify_proof_us",
            stats::median(&tracer.durations("store.verify_proof")) / 1e3,
            "us",
        );
        out.layer("store.wal.replay_ms", restart, "ms");
        let prove_s = tracer.total_ns("ledger.prove") as f64 / 1e9;
        out.layer("store.trie.wall_share", (trie_twin_s + prove_s) / traced.wall_s, "share");
        out.layer("spine.sum_gap_share", super::sum_gap_share(tracer, "spine.measure"), "share");
        let traced_rate = stats::segment_rates(&traced.seg_blocks, &traced.seg_wall_s);
        out.layer_trace_overhead(&traced_rate);
    }
    out
}
