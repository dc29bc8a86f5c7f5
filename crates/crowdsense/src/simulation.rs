//! The automated test-suite of §4.3: generate N provers, place them in
//! the paper's eight fixed areas (four users per area contract, creator
//! included), run every interaction against a simulated network and
//! measure per-user interaction times and fees.

use crate::report::{Report, ReportCategory};
use pol_chainsim::presets::ChainPreset;
use pol_core::system::{OpKind, PolSystem, SystemConfig};
use pol_core::PolError;
use pol_geo::{Coordinates, OlcCode};
use pol_ledger::{Amount, Currency};

/// The eight deployment areas used by the paper's Goerli runs (§5.1.2).
pub(crate) const PAPER_POSITIONS: [&str; 8] = [
    "7H369F4W+Q8",
    "7H369F4W+Q9",
    "7H368FRV+FM",
    "7H368FWV+X6",
    "7H367FWH+9J",
    "7H368F5R+4V",
    "7H369FXP+FH",
    "7H369F2W+3R",
];

/// Users attached to each contract, creator included.
pub const GROUP_SIZE: usize = 4;

/// One user's measured interaction with the chain.
#[derive(Debug, Clone)]
pub struct UserMeasurement {
    /// User index within the run.
    pub user: usize,
    /// Deploy (creator) or attach.
    pub kind: OpKind,
    /// Total interaction latency, milliseconds.
    pub latency_ms: u64,
    /// Total fees across the interaction's transactions.
    pub fee: Amount,
    /// Transactions in the interaction.
    pub txs: usize,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Total provers (a multiple of [`GROUP_SIZE`]; the paper uses 8, 16,
    /// 24 and 32).
    pub users: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether to run the verifier over every area afterwards.
    pub verify: bool,
    /// Reward per verified prover, base units.
    pub reward: u128,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig { users: 16, seed: 1, verify: false, reward: 1_000_000 }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct SimulationResults {
    /// Network name.
    pub network: String,
    /// Native currency.
    pub currency: Currency,
    /// Per-user interaction measurements, in execution order.
    pub measurements: Vec<UserMeasurement>,
}

/// Summary statistics over a latency series (reported in seconds, as in
/// Tables 5.1–5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Mean, seconds.
    pub mean_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
    /// Minimum, seconds.
    pub min_s: f64,
    /// Population standard deviation, seconds.
    pub std_s: f64,
}

impl Stats {
    /// Computes statistics over latency samples in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on an empty series.
    pub fn from_latencies_ms(samples: &[u64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let secs: Vec<f64> = samples.iter().map(|&ms| ms as f64 / 1000.0).collect();
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        let var = secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / secs.len() as f64;
        Stats {
            mean_s: mean,
            max_s: secs.iter().cloned().fold(f64::MIN, f64::max),
            min_s: secs.iter().cloned().fold(f64::MAX, f64::min),
            std_s: var.sqrt(),
        }
    }
}

impl SimulationResults {
    /// Latencies of the deploy interactions, ms.
    pub fn deploy_latencies(&self) -> Vec<u64> {
        self.of_kind(OpKind::Deploy).map(|m| m.latency_ms).collect()
    }

    /// Latencies of the attach interactions, ms.
    pub fn attach_latencies(&self) -> Vec<u64> {
        self.of_kind(OpKind::Attach).map(|m| m.latency_ms).collect()
    }

    /// Statistics over deploys.
    pub fn deploy_stats(&self) -> Stats {
        Stats::from_latencies_ms(&self.deploy_latencies())
    }

    /// Statistics over attaches.
    pub fn attach_stats(&self) -> Stats {
        Stats::from_latencies_ms(&self.attach_latencies())
    }

    /// Mean fee of one kind of interaction.
    pub fn mean_fee(&self, kind: OpKind) -> Amount {
        let fees: Vec<u128> = self.of_kind(kind).map(|m| m.fee.base_units()).collect();
        if fees.is_empty() {
            return Amount::zero(self.currency);
        }
        Amount::from_base_units(fees.iter().sum::<u128>() / fees.len() as u128, self.currency)
    }

    fn of_kind(&self, kind: OpKind) -> impl Iterator<Item = &UserMeasurement> {
        self.measurements.iter().filter(move |m| m.kind == kind)
    }
}

/// The eight paper areas as coordinates (cell centres).
///
/// # Panics
///
/// Never: the constants are valid full codes.
pub fn paper_positions() -> Vec<(OlcCode, Coordinates)> {
    PAPER_POSITIONS
        .iter()
        .map(|s| {
            let code: OlcCode = s.parse().expect("constant codes are valid");
            let center = code.center();
            (code, center)
        })
        .collect()
}

/// Runs one simulation on one network preset.
///
/// # Errors
///
/// Propagates protocol failures (none are expected with honest actors).
pub fn run(preset: &ChainPreset, config: &SimulationConfig) -> Result<SimulationResults, PolError> {
    let system_config = SystemConfig {
        max_users: GROUP_SIZE as u64,
        reward: config.reward,
        seed: config.seed,
        ..SystemConfig::default()
    };
    let mut system = PolSystem::new(preset.build(config.seed), system_config);
    assert!(
        config.users > 0 && config.users.is_multiple_of(GROUP_SIZE),
        "users must be a positive multiple of {GROUP_SIZE}"
    );
    let positions = paper_positions();
    let groups = config.users / GROUP_SIZE;

    let mut user_idx = 0usize;
    let mut areas = Vec::new();
    for g in 0..groups {
        let (_, center) = &positions[g % positions.len()];
        // Distinct cells for a second pass over the same eight codes;
        // snap to the cell centre so the whole group shares one area
        // regardless of the offset.
        let shifted =
            center.offset_m(120.0 * (g / positions.len()) as f64, 0.0).expect("offset stays valid");
        let center = pol_geo::olc::encode(shifted, 10).expect("valid coordinates").center();
        // One witness per group, at the cell centre.
        let witness = system.register_witness(center.latitude(), center.longitude())?;
        for k in 0..GROUP_SIZE {
            // Provers a few metres apart inside the cell.
            let pos = center
                .offset_m(-3.0 + 1.5 * k as f64, -3.0 + 1.5 * k as f64)
                .expect("offset stays valid");
            let prover = system.register_prover(pos.latitude(), pos.longitude())?;
            let report = Report::new(
                format!("report #{user_idx}"),
                format!("automated report from user {user_idx}"),
                ReportCategory::Other,
            );
            let outcome = system.submit_report(prover, witness, report.to_bytes())?;
            if k == GROUP_SIZE - 1 {
                areas.push(outcome.area.clone());
            }
            user_idx += 1;
        }
    }

    if config.verify {
        for area in &areas {
            system.run_verifier(area)?;
        }
    }

    let measurements = system
        .operations()
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Deploy | OpKind::Attach))
        .map(|op| UserMeasurement {
            user: op.user,
            kind: op.kind,
            latency_ms: op.latency_ms,
            fee: op.fee,
            txs: op.txs,
        })
        .collect();
    Ok(SimulationResults {
        network: system.chain().config.name.clone(),
        currency: system.chain().config.currency,
        measurements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_chainsim::presets;

    #[test]
    fn paper_positions_decode_to_distinct_cells() {
        let positions = paper_positions();
        assert_eq!(positions.len(), 8);
        let mut codes: Vec<String> = positions.iter().map(|(c, _)| c.to_string()).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 8);
    }

    #[test]
    fn devnet_run_produces_expected_measurement_mix() {
        let config = SimulationConfig { users: 8, seed: 3, verify: true, ..Default::default() };
        let results = run(&presets::devnet_algo(), &config).unwrap();
        assert_eq!(results.measurements.len(), 8);
        assert_eq!(results.deploy_latencies().len(), 2);
        assert_eq!(results.attach_latencies().len(), 6);
    }

    #[test]
    fn stats_math() {
        let stats = Stats::from_latencies_ms(&[1000, 2000, 3000]);
        assert!((stats.mean_s - 2.0).abs() < 1e-9);
        assert!((stats.max_s - 3.0).abs() < 1e-9);
        assert!((stats.min_s - 1.0).abs() < 1e-9);
        assert!((stats.std_s - (2.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn odd_user_count_rejected() {
        let config = SimulationConfig { users: 5, ..Default::default() };
        let _ = run(&presets::devnet_algo(), &config);
    }
}
