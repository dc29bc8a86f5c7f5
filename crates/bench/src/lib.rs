//! The evaluation harness: regenerates every table and figure of the
//! paper's Chapter 5 from the simulated networks.
//!
//! * `cargo run --release -p pol-bench --bin results` — Tables 5.1–5.4
//!   (deploy and attach statistics for 16 and 32 users on Goerli, Mumbai
//!   and Algorand) beside the paper's reported values, Fig. 5.1
//!   (conservative analysis), the per-user latency series of
//!   Figs. 5.2–5.5 and the [`robustness`] sweep, all written under
//!   `results/`;
//! * `cargo bench` — Criterion micro-benchmarks of every substrate plus
//!   the ablations listed in DESIGN.md.

#![forbid(unsafe_code)]

pub mod robustness;

use pol_chainsim::presets::{self, ChainPreset};
use pol_core::system::OpKind;
use pol_crowdsense::simulation::{self, SimulationConfig, SimulationResults, Stats};
use pol_ledger::Currency;

/// Default RNG seed for reproducible evaluation runs.
pub const EVAL_SEED: u64 = 42;

/// A row of one latency table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Network name.
    pub network: String,
    /// Latency statistics, seconds.
    pub stats: Stats,
    /// Mean fee per operation (native units).
    pub fee: pol_ledger::Amount,
}

/// The paper's reported values for one table row (for side-by-side
/// comparison in the output and EXPERIMENTS.md).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Network name.
    pub network: &'static str,
    /// Reported mean, s.
    pub mean_s: f64,
    /// Reported std dev, s.
    pub std_s: f64,
    /// Reported fee (native units).
    pub fee: f64,
    /// Fee currency.
    pub currency: Currency,
}

/// Paper values, Table 5.1 (deploy, 16 users).
pub const PAPER_TABLE_5_1: [PaperRow; 3] = [
    PaperRow {
        network: "Ethereum Goerli",
        mean_s: 56.15,
        std_s: 11.52,
        fee: 0.06,
        currency: Currency::Eth,
    },
    PaperRow {
        network: "Polygon Mumbai",
        mean_s: 23.44,
        std_s: 2.4,
        fee: 0.002,
        currency: Currency::Matic,
    },
    PaperRow {
        network: "Algorand Testnet",
        mean_s: 28.53,
        std_s: 0.76,
        fee: 0.005,
        currency: Currency::Algo,
    },
];

/// Paper values, Table 5.2 (deploy, 32 users).
pub const PAPER_TABLE_5_2: [PaperRow; 3] = [
    PaperRow {
        network: "Ethereum Goerli",
        mean_s: 54.4,
        std_s: 11.74,
        fee: 0.019,
        currency: Currency::Eth,
    },
    PaperRow {
        network: "Polygon Mumbai",
        mean_s: 25.78,
        std_s: 4.02,
        fee: 0.002,
        currency: Currency::Matic,
    },
    PaperRow {
        network: "Algorand Testnet",
        mean_s: 28.93,
        std_s: 0.64,
        fee: 0.005,
        currency: Currency::Algo,
    },
];

/// Paper values, Table 5.3 (attach, 16 users).
pub const PAPER_TABLE_5_3: [PaperRow; 3] = [
    PaperRow {
        network: "Ethereum Goerli",
        mean_s: 35.95,
        std_s: 7.84,
        fee: 0.0137,
        currency: Currency::Eth,
    },
    PaperRow {
        network: "Polygon Mumbai",
        mean_s: 20.6,
        std_s: 1.44,
        fee: 0.00053,
        currency: Currency::Matic,
    },
    PaperRow {
        network: "Algorand Testnet",
        mean_s: 14.54,
        std_s: 0.31,
        fee: 0.009,
        currency: Currency::Algo,
    },
];

/// Paper values, Table 5.4 (attach, 32 users).
pub const PAPER_TABLE_5_4: [PaperRow; 3] = [
    PaperRow {
        network: "Ethereum Goerli",
        mean_s: 25.56,
        std_s: 4.06,
        fee: 0.003,
        currency: Currency::Eth,
    },
    PaperRow {
        network: "Polygon Mumbai",
        mean_s: 19.35,
        std_s: 2.09,
        fee: 0.00053,
        currency: Currency::Matic,
    },
    PaperRow {
        network: "Algorand Testnet",
        mean_s: 14.54,
        std_s: 0.5,
        fee: 0.009,
        currency: Currency::Algo,
    },
];

/// Runs the simulation for one network.
///
/// # Panics
///
/// Panics on protocol failure — all actors are honest here.
pub fn run_network(preset: &ChainPreset, users: usize, seed: u64) -> SimulationResults {
    let config = SimulationConfig { users, seed, verify: false, ..Default::default() };
    simulation::run(preset, &config).expect("honest simulation succeeds")
}

/// Runs all three evaluation networks.
pub fn run_all(users: usize, seed: u64) -> Vec<SimulationResults> {
    presets::evaluation_networks().iter().map(|preset| run_network(preset, users, seed)).collect()
}

/// Builds the measured rows of one table.
pub fn table_rows(results: &[SimulationResults], op: OpKind) -> Vec<TableRow> {
    results
        .iter()
        .map(|r| {
            let latencies = match op {
                OpKind::Deploy => r.deploy_latencies(),
                _ => r.attach_latencies(),
            };
            TableRow {
                network: r.network.clone(),
                stats: Stats::from_latencies_ms(&latencies),
                fee: r.mean_fee(op),
            }
        })
        .collect()
}

/// Renders one table in the paper's layout, measured beside reported.
pub fn render_table(title: &str, rows: &[TableRow], paper: &[PaperRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>14} {:>10} | {:>10} {:>8} {:>12}\n",
        "Testnet",
        "Mean",
        "Max",
        "Min",
        "StdDev",
        "Fees",
        "Euro",
        "paperMean",
        "paperStd",
        "paperFees"
    ));
    for row in rows {
        let paper_row = paper.iter().find(|p| p.network == row.network);
        let (pm, ps, pf) = match paper_row {
            Some(p) => (
                format!("{:.2}s", p.mean_s),
                format!("{:.2}s", p.std_s),
                format!("{} {}", p.fee, p.currency.symbol()),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<18} {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s {:>14} {:>9.4}€ | {:>10} {:>8} {:>12}\n",
            row.network,
            row.stats.mean_s,
            row.stats.max_s,
            row.stats.min_s,
            row.stats.std_s,
            format!("{:.6} {}", row.fee.as_coins(), row.fee.currency().symbol()),
            row.fee.as_eur(),
            pm,
            ps,
            pf,
        ));
    }
    out
}

/// Renders the per-user series of one run as CSV (`user,kind,latency_s`),
/// the data behind each bar of Figs. 5.2–5.5.
pub fn figure_csv(results: &SimulationResults) -> String {
    let mut out = String::from("user,kind,latency_s,fee_native,txs\n");
    for m in &results.measurements {
        out.push_str(&format!(
            "{},{},{:.3},{:.9},{}\n",
            m.user,
            match m.kind {
                OpKind::Deploy => "deploy",
                _ => "attach",
            },
            m.latency_ms as f64 / 1000.0,
            m.fee.as_coins(),
            m.txs,
        ));
    }
    out
}

/// The Fig. 5.1 conservative-analysis report of the PoL contract.
///
/// # Panics
///
/// Panics if the bundled program stops compiling — a build invariant.
pub fn conservative_analysis() -> pol_lang::analyze::Analysis {
    pol_lang::analyze::analyze(&pol_core::contract::pol_program()).expect("program analyzes")
}

/// Checks the headline *shape* criteria of the evaluation (used by tests
/// and the harness output): Algorand must be the most stable network and
/// the fastest at attach; Goerli the slowest and the most expensive in
/// euro.
pub fn shape_report(results: &[SimulationResults]) -> Vec<(String, bool)> {
    let find = |name: &str| results.iter().find(|r| r.network.contains(name));
    let mut checks = Vec::new();
    if let (Some(goerli), Some(mumbai), Some(algo)) =
        (find("Goerli"), find("Mumbai"), find("Algorand"))
    {
        checks.push((
            "Goerli deploy slowest".into(),
            goerli.deploy_stats().mean_s > mumbai.deploy_stats().mean_s
                && goerli.deploy_stats().mean_s > algo.deploy_stats().mean_s,
        ));
        checks.push((
            "Algorand attach fastest".into(),
            algo.attach_stats().mean_s < mumbai.attach_stats().mean_s
                && algo.attach_stats().mean_s < goerli.attach_stats().mean_s,
        ));
        checks.push((
            "Algorand most stable (deploy)".into(),
            algo.deploy_stats().std_s < mumbai.deploy_stats().std_s
                && algo.deploy_stats().std_s < goerli.deploy_stats().std_s,
        ));
        checks.push((
            "Algorand most stable (attach)".into(),
            algo.attach_stats().std_s < mumbai.attach_stats().std_s
                && algo.attach_stats().std_s < goerli.attach_stats().std_s,
        ));
        checks.push((
            "Goerli most expensive in EUR (deploy)".into(),
            goerli.mean_fee(OpKind::Deploy).as_eur() > mumbai.mean_fee(OpKind::Deploy).as_eur()
                && goerli.mean_fee(OpKind::Deploy).as_eur()
                    > algo.mean_fee(OpKind::Deploy).as_eur(),
        ));
        checks.push((
            "Algorand deploy uses most txs".into(),
            algo.measurements.iter().filter(|m| m.kind == OpKind::Deploy).all(|m| m.txs == 8)
                && goerli
                    .measurements
                    .iter()
                    .filter(|m| m.kind == OpKind::Deploy)
                    .all(|m| m.txs == 3),
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_report_renders() {
        let analysis = conservative_analysis();
        assert!(analysis.verified);
        let text = analysis.to_string();
        assert!(text.contains("deployment"));
    }

    /// Regression: wallets funded with 10¹⁸ base units could not cover
    /// `Chain::submit`'s worst-case-fee precheck once Goerli's base fee
    /// spiked, so the first sweep of `tables` died with
    /// `InsufficientBalance`.
    #[test]
    fn goerli_16_user_sweep_stays_funded_through_fee_spikes() {
        let results = run_network(&presets::goerli(), 16, EVAL_SEED);
        assert_eq!(results.measurements.len(), 16);
    }

    #[test]
    fn table_render_smoke() {
        // A tiny devnet run just to exercise the rendering path.
        let results = vec![run_network(&presets::devnet_algo(), 4, 1)];
        let rows = table_rows(&results, OpKind::Deploy);
        let table = render_table("smoke", &rows, &PAPER_TABLE_5_1);
        assert!(table.contains("smoke"));
        assert!(table.contains("AVM devnet"));
        let csv = figure_csv(&results[0]);
        assert!(csv.lines().count() > 1);
    }
}
