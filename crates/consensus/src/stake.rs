//! Validator sets and stake accounting.

use pol_ledger::Address;

/// A staked validator.
#[derive(Debug, Clone)]
pub struct Validator {
    /// The validator's account.
    pub address: Address,
    /// Stake in base units; selection probability is proportional to it.
    pub stake: u64,
}

/// The validator set of one chain.
#[derive(Debug, Clone, Default)]
pub struct StakeRegistry {
    validators: Vec<Validator>,
}

impl StakeRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> StakeRegistry {
        StakeRegistry::default()
    }

    /// Adds a validator.
    ///
    /// # Panics
    ///
    /// Panics on zero stake — a validator with no stake can never be
    /// selected and always indicates a misconfigured simulation.
    pub(crate) fn register(&mut self, validator: Validator) {
        assert!(validator.stake > 0, "validators must hold stake");
        self.validators.push(validator);
    }

    /// Total stake across validators.
    pub fn total_stake(&self) -> u64 {
        self.validators.iter().map(|v| v.stake).sum()
    }

    /// Picks the validator owning the `point`-th unit of stake
    /// (`point < total_stake`), i.e. stake-weighted selection.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or `point` out of range.
    pub fn by_stake_point(&self, point: u64) -> &Validator {
        assert!(!self.validators.is_empty(), "empty registry");
        let mut acc = 0u64;
        for v in &self.validators {
            acc += v.stake;
            if point < acc {
                return v;
            }
        }
        panic!("stake point {point} beyond total stake {acc}");
    }

    /// Builds a registry of `n` equal-stake validators whose addresses
    /// come from seeded keys — the standard fixture for simulations.
    pub fn equal_stake(n: usize, stake: u64) -> StakeRegistry {
        let mut registry = StakeRegistry::new();
        for i in 0..n {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            seed[8] = 0x7a;
            let public = pol_crypto::ed25519::Keypair::from_seed(&seed).public;
            registry.register(Validator { address: Address::from_public_key(&public), stake });
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_pick() {
        let mut registry = StakeRegistry::equal_stake(2, 10);
        registry.validators[1].stake = 30;
        assert_eq!(registry.total_stake(), 40);
        assert_eq!(registry.by_stake_point(5).address, registry.validators[0].address);
        assert_eq!(registry.by_stake_point(10).address, registry.validators[1].address);
        assert_eq!(registry.by_stake_point(39).address, registry.validators[1].address);
    }

    #[test]
    #[should_panic(expected = "must hold stake")]
    fn zero_stake_rejected() {
        let mut registry = StakeRegistry::new();
        registry.register(Validator { address: Address::ZERO, stake: 0 });
    }

    #[test]
    fn equal_stake_fixture() {
        let registry = StakeRegistry::equal_stake(8, 32);
        assert_eq!(registry.validators.len(), 8);
        assert_eq!(registry.total_stake(), 8 * 32);
    }
}
