//! The `pol-node` binary: parse the configuration flags, run the node's
//! block-production loop for the configured virtual duration with
//! optional built-in local traffic, print periodic metrics, then drain
//! gracefully.
//!
//! ```text
//! pol-node [--key value | --key=value ...]
//! ```
//!
//! `--local-users N` funds N accounts and `--local-rate R` sends
//! Poisson transfers among them, standing in for the (absent) network so
//! a bare `cargo run -p pol-node` demonstrates the full loop;
//! `--local-users 0` runs the loop with no traffic. `--help` lists every
//! key with its default. The open-workload measurements are the
//! `report-storm` and `area-hotspot` workloads of the repository's
//! benchmark (`BENCHMARK.json`).

use pol_node::{NodeConfig, NodeService, PoissonArrivals};
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

fn run(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "pol-node — long-lived proof-of-location node service\n\n\
             USAGE:\n  pol-node [--KEY VALUE | --KEY=VALUE ...]\n\nKEYS:\n{}",
            NodeConfig::help()
        );
        return Ok(());
    }
    let config = NodeConfig::from_args(&args)?;
    println!("pol-node starting with configuration:\n{}", config.describe());

    let mut service = NodeService::from_config(&config)?;
    let senders: Vec<_> = (0..config.local_users)
        .map(|_| service.chain_mut().create_funded_account(10u128.pow(21)))
        .collect();

    if senders.is_empty() {
        // No local traffic: just run the block-production loop.
        service.run_until(config.duration_ms);
    } else {
        let mut arrivals =
            PoissonArrivals::new(config.seed ^ 0x706f_6c5f_6e6f_6465, config.local_rate);
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
/// turns sending, each paying the next one round-robin. The parser
/// refuses one account, the only count at which a sender pays itself.
fn local_pair(n: usize, accounts: usize) -> (usize, usize) {
    (n % accounts, (n + 1) % accounts)
}

#[cfg(test)]
mod tests {
    use super::local_pair;
    use pol_node::NodeConfig;

    #[test]
    fn local_transfers_never_pay_their_own_sender() {
        let parses = |n: usize| NodeConfig::from_args(&[format!("--local-users={n}")]).is_ok();
        assert!(!parses(1), "one account would pay itself on every transfer");
        for accounts in 2..=4 {
            assert!(parses(accounts));
            for n in 0..2 * accounts {
                let (from, to) = local_pair(n, accounts);
                assert_ne!(from, to, "transfer {n} of {accounts} accounts pays itself");
                assert!(from < accounts && to < accounts);
            }
        }
    }
}
