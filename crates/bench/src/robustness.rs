//! The robustness sweep: DHT lookups and DFS fetches over a faulty
//! simulated network.
//!
//! Every scenario drives the *same* overlay code as the ideal-network
//! evaluation — only the transport underneath changes. The sweep covers a
//! loss × churn grid plus a partition-then-heal scenario, and reports per
//! layer: operation success rate, hop statistics (DHT), latency
//! percentiles in virtual time, and the transport's raw counters.
//!
//! Everything is seeded; the same seed produces a byte-identical CSV.

use pol_geo::{olc, Coordinates, OlcCode, RBitKey};
use pol_hypercube::{Hypercube, NetworkStats, HOP_BUCKETS};
use pol_net::transport::SimTransport;
use pol_net::NodeId;
use rand::{Rng, SeedableRng};

/// Hypercube dimensionality used by the sweep (64 nodes).
const R: u8 = 6;
/// Registered areas / stored blocks per scenario.
const ITEMS: usize = 24;
/// Operations per layer per scenario.
const OPS: usize = 200;
/// DFS peers per scenario.
const PEERS: usize = 32;

/// Header line of `results/robustness.csv`.
pub const CSV_HEADER: &str = "scenario,layer,loss_pct,churn_pct,ops,successes,success_rate,\
mean_hops,p50_hops,p99_hops,p50_ms,p95_ms,p99_ms,sent,delivered,dropped,retried,timed_out";

/// One fault scenario of the sweep.
#[derive(Debug, Clone)]
pub(crate) struct Scenario {
    /// Scenario name (first CSV column).
    pub name: String,
    /// Per-message drop probability.
    pub loss: f64,
    /// Fraction of nodes/peers taken offline before the run.
    pub churn: f64,
    /// Whether the network is split for the first half of the operations
    /// and healed for the second.
    pub partition: bool,
}

/// The full scenario grid: loss ∈ {0, 1, 5, 10}% × churn ∈ {0, 10, 25}%,
/// plus a partition/heal scenario.
pub(crate) fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for loss_pct in [0u32, 1, 5, 10] {
        for churn_pct in [0u32, 10, 25] {
            out.push(Scenario {
                name: format!("loss{loss_pct:02}_churn{churn_pct:02}"),
                loss: f64::from(loss_pct) / 100.0,
                churn: f64::from(churn_pct) / 100.0,
                partition: false,
            });
        }
    }
    out.push(Scenario {
        name: "partition_heal".to_string(),
        loss: 0.0,
        churn: 0.0,
        partition: true,
    });
    out
}

/// One result row (one scenario × one layer).
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Scenario name.
    pub scenario: String,
    /// `"dht"` or `"dfs"`.
    pub layer: &'static str,
    /// Loss percentage of the scenario.
    pub loss_pct: u32,
    /// Churn percentage of the scenario.
    pub churn_pct: u32,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned the expected result.
    pub successes: u64,
    /// Hop statistics accumulated by successful DHT routes (zeroes for
    /// the DFS layer).
    pub hops: NetworkStats,
    /// Transport counters accumulated during the scenario.
    pub transport: pol_net::TransportStats,
}

impl RobustnessRow {
    /// Fraction of operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.successes as f64 / self.ops as f64
        }
    }

    /// Renders the row in the `CSV_HEADER` schema.
    pub(crate) fn to_csv(&self) -> String {
        let lat = &self.transport.latency;
        format!(
            "{},{},{},{},{},{},{:.4},{:.3},{},{},{:.3},{:.3},{:.3},{},{},{},{},{}",
            self.scenario,
            self.layer,
            self.loss_pct,
            self.churn_pct,
            self.ops,
            self.successes,
            self.success_rate(),
            self.hops.mean_hops(),
            self.hops.p50_hops(),
            self.hops.p99_hops(),
            lat.p50_us() as f64 / 1_000.0,
            lat.p95_us() as f64 / 1_000.0,
            lat.p99_us() as f64 / 1_000.0,
            self.transport.sent,
            self.transport.delivered,
            self.transport.dropped,
            self.transport.retried,
            self.transport.timed_out,
        )
    }
}

/// Runs the whole sweep. Same seed → identical rows.
pub fn run_sweep(seed: u64) -> Vec<RobustnessRow> {
    let mut rows = Vec::new();
    for (i, scenario) in scenarios().iter().enumerate() {
        let scenario_seed = seed.wrapping_add(1_000 * i as u64);
        rows.push(run_dht(scenario_seed, scenario));
        rows.push(run_dfs(scenario_seed.wrapping_add(500), scenario));
    }
    rows
}

/// Renders rows as the full CSV document (header + one line per row).
pub fn sweep_csv(rows: &[RobustnessRow]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_csv());
        out.push('\n');
    }
    out
}

/// A human-oriented summary table of the sweep.
pub fn summary_table(rows: &[RobustnessRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<4} {:>5} {:>6} {:>8} {:>9} {:>8} {:>8} {:>8}\n",
        "scenario", "layer", "loss", "churn", "success", "mean_hops", "p50_ms", "p99_ms", "retries"
    ));
    for row in rows {
        let lat = &row.transport.latency;
        out.push_str(&format!(
            "{:<16} {:<4} {:>4}% {:>5}% {:>7.1}% {:>9.2} {:>8.2} {:>8.2} {:>8}\n",
            row.scenario,
            row.layer,
            row.loss_pct,
            row.churn_pct,
            row.success_rate() * 100.0,
            row.hops.mean_hops(),
            lat.p50_us() as f64 / 1_000.0,
            lat.p99_us() as f64 / 1_000.0,
            row.transport.retried,
        ));
    }
    out
}

/// The distinct areas every scenario registers, then looks up.
fn areas() -> Vec<OlcCode> {
    (0..ITEMS)
        .map(|i| {
            let lat = 36.0 + i as f64 * 0.83;
            let lon = -7.0 + i as f64 * 1.37;
            olc::encode(Coordinates::new(lat, lon).expect("grid stays in range"), 10)
                .expect("full-precision code")
        })
        .collect()
}

/// Deterministically samples `count` distinct ids from `1..n` (id 0 — the
/// lookup source / DFS requester — is never churned out).
fn churn_targets(seed: u64, n: u64, frac: f64) -> Vec<u64> {
    let count = ((n - 1) as f64 * frac).round() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool: Vec<u64> = (1..n).collect();
    let mut picked = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..pool.len());
        picked.push(pool.swap_remove(i));
    }
    picked.sort_unstable();
    picked
}

fn hop_delta(after: &NetworkStats, before: &NetworkStats) -> NetworkStats {
    let mut hist = [0u64; HOP_BUCKETS];
    for (i, slot) in hist.iter_mut().enumerate() {
        *slot = after.hop_histogram[i] - before.hop_histogram[i];
    }
    let max_hops = hist.iter().rposition(|&n| n > 0).unwrap_or(0) as u32;
    NetworkStats {
        lookups: after.lookups - before.lookups,
        total_hops: after.total_hops - before.total_hops,
        max_hops,
        hop_histogram: hist,
    }
}

fn run_dht(seed: u64, scenario: &Scenario) -> RobustnessRow {
    let dht = Hypercube::new(R);
    let areas = areas();
    // Setup is out of band (ideal network): the sweep measures lookups.
    for (i, code) in areas.iter().enumerate() {
        dht.register_contract(code, format!("app:{i}")).expect("registration on a healthy network");
    }
    let baseline = dht.stats();

    let transport = SimTransport::new(seed, scenario.loss);
    for node in churn_targets(seed ^ 0xD47, 1 << R, scenario.churn) {
        dht.fail_node(RBitKey::from_bits(node as u32, R));
        transport.set_online(NodeId(node), false);
    }
    if scenario.partition {
        transport.partition((0..(1u64 << R) / 2).map(NodeId));
    }

    let mut successes = 0u64;
    for i in 0..OPS {
        if scenario.partition && i == OPS / 2 {
            transport.heal();
        }
        let code = &areas[i % areas.len()];
        if matches!(dht.find_contract_via(&transport, code), Ok(Some(_))) {
            successes += 1;
        }
    }

    RobustnessRow {
        scenario: scenario.name.clone(),
        layer: "dht",
        loss_pct: (scenario.loss * 100.0).round() as u32,
        churn_pct: (scenario.churn * 100.0).round() as u32,
        ops: OPS as u64,
        successes,
        hops: hop_delta(&dht.stats(), &baseline),
        transport: transport.stats(),
    }
}

fn run_dfs(seed: u64, scenario: &Scenario) -> RobustnessRow {
    let dfs = pol_dfs::DfsNetwork::new();
    let peers: Vec<pol_dfs::PeerId> = (0..PEERS).map(|_| dfs.create_peer()).collect();
    let requester = peers[0];
    // Each block lives on three providers (none of them the requester).
    let cids: Vec<pol_dfs::Cid> = (0..ITEMS)
        .map(|i| {
            let host = peers[1 + i % (PEERS - 1)];
            let cid =
                dfs.add(host, format!("report payload #{i}").into_bytes()).expect("host exists");
            for offset in [7, 13] {
                let replica = peers[1 + (i + offset) % (PEERS - 1)];
                if replica != host {
                    dfs.replicate(replica, &cid).expect("content just added");
                }
            }
            cid
        })
        .collect();

    let transport = SimTransport::new(seed, scenario.loss);
    for peer in churn_targets(seed ^ 0xDF5, PEERS as u64, scenario.churn) {
        // Transport-level churn only: the provider records still point at
        // the peer, so the fetch has to discover unreachability by timing
        // out and falling back to the next provider.
        transport.set_online(NodeId(peer), false);
    }
    if scenario.partition {
        transport.partition((0..PEERS as u64 / 2).map(NodeId));
    }

    let mut successes = 0u64;
    for i in 0..OPS {
        if scenario.partition && i == OPS / 2 {
            transport.heal();
        }
        let cid = &cids[i % cids.len()];
        if dfs.get_via(&transport, requester, cid).is_ok() {
            successes += 1;
        }
    }

    RobustnessRow {
        scenario: scenario.name.clone(),
        layer: "dfs",
        loss_pct: (scenario.loss * 100.0).round() as u32,
        churn_pct: (scenario.churn * 100.0).round() as u32,
        ops: OPS as u64,
        successes,
        hops: NetworkStats::default(),
        transport: transport.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_net::transport::MAX_ATTEMPTS;

    #[test]
    fn scenario_grid_shape() {
        let all = scenarios();
        assert_eq!(all.len(), 13);
        assert_eq!(all.iter().filter(|s| s.partition).count(), 1);
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "scenario names are unique");
    }

    #[test]
    fn healthy_scenario_is_lossless() {
        let scenario = &scenarios()[0];
        assert_eq!(scenario.name, "loss00_churn00");
        let row = run_dht(7, scenario);
        assert_eq!(row.successes, row.ops);
        assert_eq!(row.transport.timed_out, 0);
        assert!(row.hops.p50_hops() <= row.hops.p99_hops());
        assert!(row.hops.p99_hops() <= u32::from(R));
    }

    #[test]
    fn loss_degrades_but_retries_recover_most() {
        let lossy = Scenario { name: "t".into(), loss: 0.10, churn: 0.0, partition: false };
        let row = run_dht(7, &lossy);
        assert!(row.transport.retried > 0, "10% loss must trigger retries");
        assert!(
            row.success_rate() > 0.9,
            "retries should recover most lookups, got {}",
            row.success_rate()
        );
    }

    #[test]
    fn partition_halves_then_heals() {
        let scenario = scenarios().pop().expect("partition scenario is last");
        let dht = run_dht(7, &scenario);
        assert!(dht.success_rate() < 1.0, "cross-island lookups fail while split");
        assert!(dht.success_rate() > 0.5, "island lookups and the healed half succeed");
        let dfs = run_dfs(7, &scenario);
        assert!(dfs.success_rate() > 0.5);
    }

    #[test]
    fn every_attempt_is_delivered_or_dropped() {
        for row in run_sweep(crate::EVAL_SEED) {
            let c = &row.transport;
            let at = format!("{} {}", row.scenario, row.layer);
            assert_eq!(c.sent, c.delivered + c.dropped, "{at}");
            // A timeout follows one drop per attempt.
            assert!(c.timed_out * u64::from(MAX_ATTEMPTS) <= c.dropped, "{at}");
            // Every exchange's first attempt is a send but not a retry.
            assert!(c.sent == 0 || c.retried < c.sent, "{at}");
        }
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let scenario = &scenarios()[0];
        let row = run_dht(3, scenario);
        assert_eq!(row.to_csv().split(',').count(), CSV_HEADER.split(',').count());
    }
}
