//! Calibrated configurations for the networks of the paper's evaluation.
//!
//! Calibration targets are the latency/fee characteristics reported in
//! Chapter 5 (Tables 5.1–5.4, Figures 5.2–5.5):
//!
//! | network | cadence | finality | fee regime |
//! |---|---|---|---|
//! | Ropsten | 12 s slots | 1 conf, ~45 % missed/unseen slots | EIP-1559, heavily congested (deprecated era) |
//! | Goerli | 12 s slots | inclusion, ~30 % missed/unseen slots | EIP-1559, moderately congested |
//! | Mumbai | 2 s blocks | 3 confs | EIP-1559, cheap gas, jittery |
//! | Algorand | ~3.63 s rounds | instant | flat 1000 µAlgo |

use crate::chain::{Chain, ChainConfig, VmKind};
use crate::congestion::CongestionModel;
use pol_ledger::units::GWEI;
use pol_ledger::Currency;

/// A reusable chain configuration.
#[derive(Debug, Clone)]
pub struct ChainPreset {
    /// The network name.
    pub name: String,
    /// The full configuration (mutable before [`ChainPreset::build`] for
    /// experiment variations).
    pub config: ChainConfig,
}

impl ChainPreset {
    /// Instantiates a chain with the given RNG seed.
    pub fn build(&self, seed: u64) -> Chain {
        Chain::new(self.config.clone(), seed)
    }

    /// Instantiates a chain committing through the given state backend
    /// (see `Chain::new_with_backend`).
    pub fn build_with_backend(
        &self,
        seed: u64,
        backend: Box<dyn pol_store::StateBackend>,
    ) -> Chain {
        Chain::new_with_backend(self.config.clone(), seed, backend)
    }
}

fn evm_base(name: &str, currency: Currency) -> ChainConfig {
    ChainConfig {
        name: name.to_string(),
        currency,
        vm: VmKind::Evm,
        block_ms: 12_000,
        block_jitter_ms: 0,
        missed_slot_prob: 0.3,
        confirmations: 0,
        gas_target: 15_000_000,
        gas_limit: 30_000_000,
        initial_base_fee: 45 * GWEI,
        priority_fee: GWEI * 3 / 2,
        flat_fee: 0,
        congestion: CongestionModel::new(0.5, 0.25),
        propagation_ms: (200, 3_000),
        client_delay_ms: (500, 11_500),
        validators: 16,
    }
}

/// Ethereum Ropsten (as measured shortly before its deprecation):
/// 12-second slots under heavy, erratic congestion — the paper's Fig. 5.2
/// calls its latencies "unstable and very high".
pub fn ropsten() -> ChainPreset {
    let mut config = evm_base("Ethereum Ropsten", Currency::Eth);
    config.confirmations = 1;
    config.missed_slot_prob = 0.45;
    config.initial_base_fee = 20 * GWEI;
    config.congestion = CongestionModel::new(0.8, 0.45);
    config.client_delay_ms = (500, 11_500);
    ChainPreset { name: config.name.clone(), config }
}

/// Ethereum Goerli: the main EVM evaluation network (Figs. 5.3a–d).
pub fn goerli() -> ChainPreset {
    let config = evm_base("Ethereum Goerli", Currency::Eth);
    ChainPreset { name: config.name.clone(), config }
}

/// Polygon Mumbai: layer-2 cadence (≈2-second blocks) with cheap gas but
/// congestion-sensitive fees (Figs. 5.4a–d).
pub fn mumbai() -> ChainPreset {
    let mut config = evm_base("Polygon Mumbai", Currency::Matic);
    config.block_ms = 2_000;
    config.block_jitter_ms = 150;
    config.missed_slot_prob = 0.05;
    config.confirmations = 3;
    config.initial_base_fee = 35 * GWEI;
    config.congestion = CongestionModel::new(0.4, 0.3);
    config.propagation_ms = (100, 1_500);
    config.client_delay_ms = (500, 3_500);
    config.validators = 8;
    ChainPreset { name: config.name.clone(), config }
}

/// Algorand testnet: ~3.63-second rounds, instant finality, flat
/// 0.001-Algo fees — the low-dispersion column of Tables 5.1–5.4.
pub fn algorand_testnet() -> ChainPreset {
    let config = ChainConfig {
        name: "Algorand Testnet".to_string(),
        currency: Currency::Algo,
        vm: VmKind::Avm,
        block_ms: 3_630,
        block_jitter_ms: 400,
        missed_slot_prob: 0.0,
        confirmations: 0,
        gas_target: 0,
        gas_limit: u64::MAX,
        initial_base_fee: 0,
        priority_fee: 0,
        flat_fee: 1_000,
        congestion: CongestionModel::calm(),
        propagation_ms: (50, 400),
        client_delay_ms: (0, 0),
        validators: 8,
    };
    ChainPreset { name: config.name.clone(), config }
}

/// A fast, deterministic EVM devnet for unit tests (`reach run`-style
/// local network): instant-ish blocks, no congestion, no client delays.
pub fn devnet_evm() -> ChainPreset {
    let mut config = evm_base("EVM devnet", Currency::Eth);
    config.block_ms = 100;
    config.confirmations = 0;
    config.missed_slot_prob = 0.0;
    config.congestion = CongestionModel::calm();
    config.propagation_ms = (0, 0);
    config.client_delay_ms = (0, 0);
    config.initial_base_fee = 10 * GWEI;
    config.validators = 4;
    ChainPreset { name: config.name.clone(), config }
}

/// A fast AVM devnet for unit tests.
pub fn devnet_algo() -> ChainPreset {
    let mut preset = algorand_testnet();
    preset.config.block_ms = 100;
    preset.config.block_jitter_ms = 0;
    preset.config.propagation_ms = (0, 0);
    preset.config.name = "AVM devnet".to_string();
    preset.name = preset.config.name.clone();
    preset
}

/// Every network of the paper's evaluation, in presentation order.
pub fn evaluation_networks() -> Vec<ChainPreset> {
    vec![goerli(), mumbai(), algorand_testnet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        for preset in
            [ropsten(), goerli(), mumbai(), algorand_testnet(), devnet_evm(), devnet_algo()]
        {
            let chain = preset.build(1);
            assert_eq!(chain.height(), 0);
            assert!(!chain.config.name.is_empty());
        }
    }

    #[test]
    fn cadences_match_paper() {
        assert_eq!(goerli().config.block_ms, 12_000);
        assert_eq!(mumbai().config.block_ms, 2_000);
        assert_eq!(algorand_testnet().config.block_ms, 3_630);
        assert_eq!(algorand_testnet().config.confirmations, 0, "instant finality");
        assert_eq!(algorand_testnet().config.flat_fee, 1_000, "0.001 Algo min fee");
    }

    #[test]
    fn evaluation_set_is_three_networks() {
        assert_eq!(evaluation_networks().len(), 3);
    }
}
