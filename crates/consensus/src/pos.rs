//! Slot-based proof of stake (post-merge Ethereum and Polygon).

use crate::stake::StakeRegistry;
use crate::ConsensusError;
use pol_crypto::ed25519::Signature;
use pol_crypto::sha256;

/// Selects the block proposer for `slot`, stake-weighted, from the RANDAO
/// seed.
///
/// # Errors
///
/// Returns [`ConsensusError::EmptyRegistry`] with no validators.
pub fn select_proposer<'r>(
    registry: &'r StakeRegistry,
    slot: u64,
    randao_seed: &[u8; 32],
) -> Result<&'r crate::stake::Validator, ConsensusError> {
    if registry.is_empty() {
        return Err(ConsensusError::EmptyRegistry);
    }
    let mut preimage = b"pos-proposer".to_vec();
    preimage.extend_from_slice(randao_seed);
    preimage.extend_from_slice(&slot.to_be_bytes());
    let digest = sha256(&preimage);
    let mut b = [0u8; 8];
    b.copy_from_slice(&digest[..8]);
    let point = u64::from_le_bytes(b) % registry.total_stake();
    Ok(registry.by_stake_point(point))
}

/// Evolves the RANDAO seed with a proposer's contribution.
pub fn next_randao(seed: &[u8; 32], proposer_sig: &Signature) -> [u8; 32] {
    let mut preimage = seed.to_vec();
    preimage.extend_from_slice(&proposer_sig.to_bytes());
    sha256(&preimage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposer_is_deterministic_and_varies() {
        let (registry, _) = StakeRegistry::equal_stake(16, 32);
        let seed = [7u8; 32];
        let p1 = select_proposer(&registry, 5, &seed).unwrap().address;
        let p2 = select_proposer(&registry, 5, &seed).unwrap().address;
        assert_eq!(p1, p2);
        // Over many slots, more than one validator proposes.
        let mut distinct = std::collections::HashSet::new();
        for slot in 0..64 {
            distinct.insert(select_proposer(&registry, slot, &seed).unwrap().address);
        }
        assert!(distinct.len() > 4, "selection should spread: {}", distinct.len());
    }

    #[test]
    fn stake_weighting_biases_selection() {
        let (mut registry, _) = StakeRegistry::equal_stake(2, 1);
        registry = {
            let mut r = StakeRegistry::new();
            for (i, v) in registry.validators().iter().enumerate() {
                r.register(crate::stake::Validator {
                    stake: if i == 0 { 1000 } else { 1 },
                    ..v.clone()
                });
            }
            r
        };
        let whale = registry.validators()[0].address;
        let seed = [1u8; 32];
        let wins = (0..200)
            .filter(|&s| select_proposer(&registry, s, &seed).unwrap().address == whale)
            .count();
        assert!(wins > 180, "whale won only {wins}/200");
    }

    #[test]
    fn empty_registry_errors() {
        let registry = StakeRegistry::new();
        assert_eq!(
            select_proposer(&registry, 0, &[0u8; 32]).unwrap_err(),
            ConsensusError::EmptyRegistry
        );
    }
}
