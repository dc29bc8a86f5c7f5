//! What each backend holds per entry: the growth of the process's
//! `VmRSS` while each backend takes 160,000 entries shaped like
//! `state-churn`'s (balances, nonces and storage words, as the ledger's
//! codec encodes them), committed and flushed in blocks of 1,024.
//! Every backend stays alive until the last is built, as the benchmark's
//! raw twins do, so a growth is that backend's own footprint and not
//! memory a dropped one left to the allocator.
//!
//! A measurement, not a check, and alone in its test binary so no other
//! test's allocations land in its readings. Run it with
//! `cargo test --release -p pol-store -- --ignored`; the table goes to
//! standard error unbuffered, so it shows without `--nocapture`.

use pol_crypto::sha256;
use pol_store::{BatchEntry, MemoryBackend, StateBackend, TrieBackend, WalBackend};
use std::io::Write;

const ENTRIES: usize = 160_000;
/// Accounts, each a balance and a nonce; the rest are storage words.
const ACCOUNTS: usize = 20_000;
const BLOCK: usize = 1_024;

/// Entry `i`: a balance (`0x01 ‖ address` → `0x02 ‖ u128`), a nonce
/// (`0x02 ‖ address` → `0x01 ‖ u64`) or a storage word (`0x04 ‖ contract ‖
/// slot` → `0x03 ‖ word`), with pseudo-random bytes.
fn entry(i: usize) -> (Vec<u8>, Vec<u8>) {
    let seed = sha256(&(i as u64).to_be_bytes());
    let (key, value) = match i {
        i if i < 2 * ACCOUNTS => {
            let address = &sha256(&((i / 2) as u64).to_le_bytes())[..20];
            match i % 2 {
                0 => ([&[1u8][..], address].concat(), [&[2u8][..], &seed[..16]].concat()),
                _ => ([&[2u8][..], address].concat(), [&[1u8][..], &seed[..8]].concat()),
            }
        }
        _ => {
            let contract = [(i % 16) as u8; 20];
            ([&[4u8][..], &contract, &seed].concat(), [&[3u8][..], &sha256(&seed)].concat())
        }
    };
    (key, value)
}

fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmRSS:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

#[test]
#[ignore = "a measurement, not a check"]
fn bytes_per_entry() {
    let mut out = std::io::stderr();
    if rss_mib().is_none() {
        writeln!(out, "bytes_per_entry: no /proc/self/status on this host").unwrap();
        return;
    }
    let dir = std::env::temp_dir().join(format!("pol-store-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut alive = Vec::new();
    writeln!(out, "\n{ENTRIES} entries, blocks of {BLOCK}\nbackend   VmRSS growth   per entry")
        .unwrap();
    for name in ["memory", "wal", "trie"] {
        let before = rss_mib().unwrap();
        let mut backend: Box<dyn StateBackend> = match name {
            "memory" => Box::new(MemoryBackend::new()),
            // Never snapshots, as the benchmark's log does not.
            "wal" => Box::new(WalBackend::open(&dir, u64::MAX).unwrap()),
            _ => Box::new(TrieBackend::new()),
        };
        for (height, start) in (0..ENTRIES).step_by(BLOCK).enumerate() {
            let block: Vec<BatchEntry> = (start..(start + BLOCK).min(ENTRIES))
                .map(|i| {
                    let (key, value) = entry(i);
                    (key, Some(value))
                })
                .collect();
            backend.commit(&block).unwrap();
            backend.flush_block(height as u64).unwrap();
        }
        let grown = rss_mib().unwrap() - before;
        let per_entry = grown * 1024.0 * 1024.0 / ENTRIES as f64;
        writeln!(out, "{name:<9} {grown:>8.1} MiB   {per_entry:>5.0} B").unwrap();
        alive.push(backend);
    }
    // Checked once every reading is taken: the lists and roots allocate.
    let roots: Vec<[u8; 32]> = alive.iter().map(|backend| backend.root()).collect();
    assert!(roots.windows(2).all(|w| w[0] == w[1]), "the backends agree on the root");
    assert!(alive.iter().all(|backend| backend.entries().len() == ENTRIES));
    drop(alive);
    let _ = std::fs::remove_dir_all(&dir);
}
