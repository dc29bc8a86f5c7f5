//! The `pol-node` binary: resolve layered configuration, run the node's
//! block-production loop for the configured virtual duration with an
//! optional built-in local workload, print periodic metrics, then drain
//! gracefully.
//!
//! ```text
//! pol-node [--config node.conf] [--key value ...] \
//!          [--local-users N] [--local-rate TX_PER_S]
//! ```
//!
//! Every configuration key also works as `POL_NODE_*` in the environment
//! and as `key = value` in the config file; CLI wins. `--local-users`
//! and `--local-rate` are binary-only: they fund N accounts and replace
//! the (absent) network with local Poisson transfer traffic so a bare
//! `cargo run -p pol-node` demonstrates the full loop. The open-workload
//! measurements are the `report-storm` and `area-hotspot` workloads of
//! the repository's benchmark (`BENCHMARK.json`).

use pol_node::{NodeConfig, NodeService, PoissonArrivals};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pol-node: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw_args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    // Peel off the binary-only flags; everything else goes through the
    // layered resolver.
    let mut config_path: Option<PathBuf> = None;
    let mut local_users: usize = 4;
    let mut local_rate: f64 = 50.0;
    let mut passthrough = Vec::new();
    let mut args = raw_args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("flag {name} is missing its value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            "--config" => config_path = Some(PathBuf::from(take("--config")?)),
            "--local-users" => local_users = take("--local-users")?.parse()?,
            "--local-rate" => local_rate = take("--local-rate")?.parse()?,
            _ => passthrough.push(arg),
        }
    }

    let config =
        NodeConfig::layered(config_path.as_deref(), &|var| std::env::var(var).ok(), &passthrough)?;
    println!("pol-node starting with configuration:\n{}", config.describe());

    let mut service = NodeService::from_config(&config)?;
    let senders: Vec<_> = (0..local_users)
        .map(|_| service.chain_mut().create_funded_account(10u128.pow(21)))
        .collect();

    if senders.is_empty() || local_rate <= 0.0 {
        // No local traffic: just run the block-production loop.
        service.run_until(config.duration_ms);
    } else {
        let mut arrivals = PoissonArrivals::new(config.seed ^ 0x706f_6c5f_6e6f_6465, local_rate);
        for n in 0usize.. {
            let at_ms = arrivals.next_arrival_ms();
            if at_ms >= config.duration_ms {
                break;
            }
            let (sender, recipient) = local_pair(n, senders.len());
            let (keypair, from) = &senders[sender];
            let to = senders[recipient].1;
            service.run_until(at_ms);
            let nonce = service.chain().next_nonce(*from);
            let (max_fee, priority) = service.chain().suggested_fees();
            let tx = pol_ledger::Transaction::transfer(*from, to, 1, nonce)
                .with_fees(max_fee, priority)
                .signed(keypair);
            if let Err(e) = service.submit_at(at_ms, tx) {
                eprintln!("t={at_ms}ms submission refused: {e}");
            }
        }
        service.run_until(config.duration_ms);
    }

    for snapshot in service.snapshots() {
        println!("{snapshot}");
    }
    let report = service.shutdown();
    println!(
        "drained in {} blocks: {} admitted, {} confirmed, {} dropped ({} parked on unfilled \
         gaps), {} lost",
        report.drained_blocks,
        service.admitted(),
        service.confirmed(),
        service.dropped(),
        report.dropped_parked,
        report.lost,
    );
    let latency = service.latency_summary();
    if latency.count > 0 {
        println!(
            "confirmation latency over {} txs: mean {:.0} ms, p50 {} ms, p95 {} ms, p99 {} ms, \
             max {} ms",
            latency.count,
            latency.mean_ms,
            latency.p50_ms,
            latency.p95_ms,
            latency.p99_ms,
            latency.max_ms,
        );
    }
    if report.lost > 0 {
        return Err(format!("{} admitted transactions lost at shutdown", report.lost).into());
    }
    Ok(())
}

/// Sender and recipient of the `n`-th local transfer: the accounts take
/// turns sending, each paying the next one round-robin.
fn local_pair(n: usize, accounts: usize) -> (usize, usize) {
    (n % accounts, (n + 1) % accounts)
}

fn usage() -> String {
    let defaults = NodeConfig::default();
    format!(
        "pol-node — long-lived proof-of-location node service\n\n\
         USAGE:\n  pol-node [--config FILE] [--KEY VALUE ...] [--local-users N] [--local-rate R]\n\n\
         Configuration keys (CLI flag > POL_NODE_* env > config file > default):\n{}\n\n\
         Binary-only flags:\n  \
         --config FILE        layered config file of `key = value` lines\n  \
         --local-users N      accounts generating built-in local traffic (default 4)\n  \
         --local-rate R       local traffic rate, tx per virtual second (default 50)",
        defaults.describe()
    )
}

#[cfg(test)]
mod tests {
    use super::local_pair;

    #[test]
    fn local_transfers_never_pay_their_own_sender() {
        for accounts in 2..=4 {
            for n in 0..2 * accounts {
                let (from, to) = local_pair(n, accounts);
                assert_ne!(from, to, "transfer {n} of {accounts} accounts pays itself");
                assert!(from < accounts && to < accounts);
            }
        }
    }
}
