//! Regenerates the paper's evaluation under `results/`:
//!
//! * Tables 5.1–5.4 — deploy and attach performance with 16 and 32 users
//!   on Goerli, Mumbai and Algorand, beside the paper's reported values
//!   (`tables.txt`);
//! * Fig. 5.1 — the conservative compiler analysis, with the paper's
//!   figures as a labelled reference (`fig5.1-analysis.txt`);
//! * Fig. 5.2 — Ropsten, 8 users; Figs. 5.3–5.5 — Goerli, Polygon Mumbai
//!   and Algorand with 8/16/24/32 users (one `fig5.*.csv` series each);
//! * the robustness sweep — DHT lookups and DFS fetches under message
//!   loss, node churn and a partition/heal cycle (`robustness.csv`).
//!
//! ```sh
//! cargo run --release -p pol-bench --bin results [-- --seed N]
//! ```
//!
//! Every run is deterministic: the same seed writes the same bytes.
//! Exit status: 0 when every file is written, 1 when one cannot be,
//! 2 on a usage error (reported before any simulation runs).

use pol_bench::robustness::{run_sweep, summary_table, sweep_csv};
use pol_bench::{
    conservative_analysis, figure_csv, render_table, run_all, run_network, shape_report,
    table_rows, EVAL_SEED, PAPER_TABLE_5_1, PAPER_TABLE_5_2, PAPER_TABLE_5_3, PAPER_TABLE_5_4,
};
use pol_chainsim::presets;
use pol_core::system::OpKind;
use std::process::ExitCode;

const DIR: &str = "results";

/// The paper's Fig. 5.1 figures (§5.1.1), printed under the report as a
/// reference: Reach's runtime is not `pol-lang`'s, so they are not a
/// target.
const PAPER_FIG_5_1: &str =
    "Reference, the paper's Reach 0.1.11 output: deployment 1440385 gas; insert_data 82437 gas\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => Some(EVAL_SEED),
        [flag, n] if flag == "--seed" => n.parse().ok(),
        _ => None,
    };
    let Some(seed) = seed else {
        eprintln!("usage: results [--seed N]   (N: u64, default {EVAL_SEED})");
        return ExitCode::from(2);
    };
    match regenerate(seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("results: {e}");
            ExitCode::FAILURE
        }
    }
}

fn regenerate(seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(DIR).map_err(|e| format!("cannot create {DIR}/: {e}"))?;
    tables(seed)?;
    figures(seed)?;
    robustness(seed)
}

fn write(name: &str, contents: &str) -> Result<(), String> {
    let path = format!("{DIR}/{name}");
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Tables 5.1–5.4 plus the paper's shape checks.
fn tables(seed: u64) -> Result<(), String> {
    eprintln!("running 16-user sweep on Goerli, Mumbai and Algorand …");
    let results_16 = run_all(16, seed);
    eprintln!("running 32-user sweep …");
    let results_32 = run_all(32, seed.wrapping_add(1));

    let mut output = String::new();
    for (title, results, op, paper) in [
        ("Table 5.1 — Deploy | 16 users", &results_16, OpKind::Deploy, &PAPER_TABLE_5_1),
        ("Table 5.2 — Deploy | 32 users", &results_32, OpKind::Deploy, &PAPER_TABLE_5_2),
        ("Table 5.3 — Attach | 16 users", &results_16, OpKind::Attach, &PAPER_TABLE_5_3),
        ("Table 5.4 — Attach | 32 users", &results_32, OpKind::Attach, &PAPER_TABLE_5_4),
    ] {
        output.push_str(&render_table(title, &table_rows(results, op), paper));
        output.push('\n');
    }
    output.push_str("Shape checks (paper's conclusions):\n");
    for (name, ok) in shape_report(&results_16) {
        output.push_str(&format!("  [{}] {}\n", if ok { "PASS" } else { "FAIL" }, name));
    }

    println!("{output}");
    write("tables.txt", &output)
}

/// Fig. 5.1 and the per-user latency series of Figs. 5.2–5.5.
fn figures(seed: u64) -> Result<(), String> {
    let analysis = format!("{}{PAPER_FIG_5_1}", conservative_analysis());
    println!("=== Fig. 5.1 — conservative analysis ===\n{analysis}");
    write("fig5.1-analysis.txt", &analysis)?;

    let ropsten = run_network(&presets::ropsten(), 8, seed);
    write("fig5.2-ropsten-8users.csv", &figure_csv(&ropsten))?;
    summarize("Fig. 5.2 Ropsten 8 users", &ropsten);

    let sweeps = [
        ("fig5.3-goerli", presets::goerli()),
        ("fig5.4-mumbai", presets::mumbai()),
        ("fig5.5-algorand", presets::algorand_testnet()),
    ];
    for (stem, preset) in sweeps {
        for (sub, users) in [("a", 8), ("b", 16), ("c", 24), ("d", 32)] {
            let results = run_network(&preset, users, seed.wrapping_add(users as u64));
            write(&format!("{stem}{sub}-{users}users.csv"), &figure_csv(&results))?;
            summarize(&format!("{} {} users", results.network, users), &results);
        }
    }
    Ok(())
}

fn summarize(title: &str, results: &pol_crowdsense::SimulationResults) {
    let deploy = results.deploy_stats();
    let attach = results.attach_stats();
    println!(
        "{title}: deploy mean {:.2}s (σ {:.2}) | attach mean {:.2}s (σ {:.2})",
        deploy.mean_s, deploy.std_s, attach.mean_s, attach.std_s
    );
}

/// The loss × churn × partition sweep over the simulated network.
fn robustness(seed: u64) -> Result<(), String> {
    let rows = run_sweep(seed);
    write("robustness.csv", &sweep_csv(&rows))?;
    println!("=== robustness sweep (seed {seed}) ===");
    print!("{}", summary_table(&rows));
    Ok(())
}
