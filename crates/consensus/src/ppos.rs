//! Pure proof of stake: VRF cryptographic sortition and BA★-style round
//! certification (Algorand, §1.4.2 of the paper).

use crate::stake::StakeRegistry;
use crate::ConsensusError;
use pol_crypto::ed25519::{Keypair, PublicKey};
use pol_crypto::sha256;
use pol_crypto::vrf::{self, VrfOutput, VrfProof};

/// The role sortition is run for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Proposes the round's block.
    Leader,
    /// Certifies the proposed block.
    Committee,
}

impl Role {
    fn domain(&self) -> &'static [u8] {
        match self {
            Role::Leader => b"leader",
            Role::Committee => b"committee",
        }
    }
}

/// A sortition credential: proof that an account was (privately) selected
/// for a role in a round, verifiable by everyone.
#[derive(Debug, Clone)]
pub struct Credential {
    /// The selected account's key.
    pub public: PublicKey,
    /// The role the credential grants.
    pub role: Role,
    /// The round it applies to.
    pub round: u64,
    /// VRF output (used to rank competing leaders).
    pub output: VrfOutput,
    /// The VRF proof.
    pub proof: VrfProof,
    /// How many of the account's stake units were selected (the paper's
    /// parameter *j*).
    pub weight: u64,
}

fn alpha(seed: &[u8; 32], round: u64, role: Role) -> Vec<u8> {
    let mut msg = b"ppos-sortition".to_vec();
    msg.extend_from_slice(seed);
    msg.extend_from_slice(&round.to_be_bytes());
    msg.extend_from_slice(role.domain());
    msg
}

/// Runs local sortition for one account.
///
/// The account is selected with probability
/// `expected_size × stake ⁄ total_stake` (clamped to 1); `weight`
/// approximates the binomial count by scaling how far below the threshold
/// the VRF output landed. Returns `None` when not selected — selection is
/// private until the credential is broadcast.
pub(crate) fn sortition(
    keypair: &Keypair,
    stake: u64,
    total_stake: u64,
    expected_size: f64,
    seed: &[u8; 32],
    round: u64,
    role: Role,
) -> Option<Credential> {
    assert!(total_stake > 0, "total stake must be positive");
    let (output, proof) = vrf::prove(keypair, &alpha(seed, round, role));
    let p = (expected_size * stake as f64 / total_stake as f64).min(1.0);
    let x = output.as_fraction();
    if x < p {
        // Scale the margin into an integer weight ≥ 1.
        let weight = ((p - x) / p * stake as f64).ceil().max(1.0) as u64;
        Some(Credential { public: keypair.public, role, round, output, proof, weight })
    } else {
        None
    }
}

/// Outcome of one certified round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The winning leader's key.
    pub leader: PublicKey,
    /// Committee credentials that certified the block.
    pub committee: Vec<Credential>,
    /// Total certifying weight.
    pub certified_weight: u64,
    /// Seed for the next round.
    pub next_seed: [u8; 32],
}

/// Expected committee size used by the round runner.
pub(crate) const COMMITTEE_SIZE: f64 = 20.0;
/// Expected number of leader candidates per round.
pub(crate) const LEADER_CANDIDATES: f64 = 3.0;

/// Runs a full round: every key runs leader and committee sortition, the
/// lowest VRF output leads, and the committee certifies if ≥ 2/3 of the
/// *selected* committee weight agrees (all honest here; Byzantine members
/// are modelled by passing fewer keys).
///
/// # Errors
///
/// * [`ConsensusError::EmptyRegistry`] — no keys;
/// * [`ConsensusError::NotCertified`] — committee weight below threshold
///   (can happen when the caller withholds validators to model failures);
///   the caller should retry with the next round number, as Algorand's
///   recovery does.
pub fn run_round(
    registry: &StakeRegistry,
    keys: &[Keypair],
    seed: &[u8; 32],
    round: u64,
) -> Result<RoundOutcome, ConsensusError> {
    if keys.is_empty() || registry.is_empty() {
        return Err(ConsensusError::EmptyRegistry);
    }
    let total = registry.total_stake();
    let stake_of = |pk: &PublicKey| {
        registry.validators().iter().find(|v| v.public == *pk).map_or(0, |v| v.stake)
    };

    // Leader selection: retry with a tweaked seed until some key wins
    // (with few accounts the expected-3 draw can come up empty).
    let mut leader: Option<Credential> = None;
    let mut attempt_seed = *seed;
    for _ in 0..64 {
        for kp in keys {
            if let Some(cred) = sortition(
                kp,
                stake_of(&kp.public),
                total,
                LEADER_CANDIDATES,
                &attempt_seed,
                round,
                Role::Leader,
            ) {
                let better = match &leader {
                    None => true,
                    Some(best) => cred.output.0 < best.output.0,
                };
                if better {
                    leader = Some(cred);
                }
            }
        }
        if leader.is_some() {
            break;
        }
        attempt_seed = sha256(&attempt_seed);
    }
    let leader = leader.ok_or(ConsensusError::EmptyRegistry)?;

    // Committee sortition and certification. Credential weights average
    // half the selected stake (uniform margin), so the expected certifying
    // weight with full participation is `full_weight / 2`; the 2/3
    // agreement threshold is therefore `full_weight / 3`. A round whose
    // draw falls short is retried with a recovery seed, as Algorand's
    // period recovery does.
    let mut full_weight = 0u64;
    for v in registry.validators() {
        let p = (COMMITTEE_SIZE * v.stake as f64 / total as f64).min(1.0);
        full_weight += (p * v.stake as f64) as u64;
    }
    let required = (full_weight / 3).max(1);
    let mut committee = Vec::new();
    let mut certified_weight = 0u64;
    let mut committee_seed = attempt_seed;
    for recovery in 0..8 {
        committee.clear();
        certified_weight = 0;
        for kp in keys {
            if let Some(cred) = sortition(
                kp,
                stake_of(&kp.public),
                total,
                COMMITTEE_SIZE,
                &committee_seed,
                round,
                Role::Committee,
            ) {
                certified_weight += cred.weight;
                committee.push(cred);
            }
        }
        if certified_weight >= required {
            break;
        }
        if recovery == 7 {
            return Err(ConsensusError::NotCertified { voted: certified_weight, required });
        }
        committee_seed = sha256(&committee_seed);
    }

    let mut next = b"ppos-seed".to_vec();
    next.extend_from_slice(&attempt_seed);
    next.extend_from_slice(&leader.output.0);
    Ok(RoundOutcome {
        leader: leader.public,
        committee,
        certified_weight,
        next_seed: sha256(&next),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sortition_private_and_verifiable() {
        let (_, keys) = StakeRegistry::equal_stake(10, 100);
        let seed = [3u8; 32];
        let mut selected = 0;
        for kp in &keys {
            if let Some(cred) = sortition(kp, 100, 1000, COMMITTEE_SIZE, &seed, 1, Role::Committee)
            {
                selected += 1;
                let msg = alpha(&seed, 1, Role::Committee);
                assert_eq!(vrf::verify(&kp.public, &msg, &cred.proof), Some(cred.output));
            }
        }
        // expected_size=20 with 10 validators of p=min(20*0.1,1)=1 → all.
        assert_eq!(selected, 10);
    }

    #[test]
    fn rounds_certify_and_rotate_leaders() {
        let (registry, keys) = StakeRegistry::equal_stake(12, 50);
        let mut seed = [9u8; 32];
        let mut leaders = std::collections::HashSet::new();
        for round in 0..16 {
            let outcome = run_round(&registry, &keys, &seed, round).unwrap();
            leaders.insert(outcome.leader);
            seed = outcome.next_seed;
            assert!(!outcome.committee.is_empty());
        }
        assert!(leaders.len() > 2, "leaders should rotate: {}", leaders.len());
    }

    #[test]
    fn withheld_committee_fails_certification() {
        let (registry, keys) = StakeRegistry::equal_stake(12, 50);
        // Only 2 of 12 validators participate: certification must fail.
        let result = run_round(&registry, &keys[..2], &[4u8; 32], 0);
        assert!(
            matches!(
                result,
                Err(ConsensusError::NotCertified { .. }) | Err(ConsensusError::EmptyRegistry)
            ),
            "got {result:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (registry, keys) = StakeRegistry::equal_stake(8, 10);
        let a = run_round(&registry, &keys, &[1u8; 32], 7).unwrap();
        let b = run_round(&registry, &keys, &[1u8; 32], 7).unwrap();
        assert_eq!(a.leader, b.leader);
        assert_eq!(a.next_seed, b.next_seed);
    }
}
