//! Account and contract addressing.

use pol_crypto::ed25519::PublicKey;
use pol_crypto::{hex, keccak256};

/// A 20-byte account address, derived Ethereum-style from the public key
/// (last 20 bytes of its Keccak-256 hash).
///
/// The same address form is used on every simulated chain so that wallets
/// are portable across them — mirroring how the paper's test accounts were
/// reused per network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address, used as the "burn"/system sink.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Derives the address controlled by an Ed25519 public key.
    pub fn from_public_key(pk: &PublicKey) -> Address {
        let digest = keccak256(&pk.0);
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest[12..]);
        Address(out)
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl std::fmt::Debug for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// Identifier of a deployed contract.
///
/// On the EVM chains this wraps the contract address; on Algorand it wraps
/// the numeric application ID. Keeping both in one enum lets the
/// blockchain-agnostic layers pass contract references around untyped —
/// the same role Reach's "contract info" plays in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContractId {
    /// EVM contract address.
    Evm(Address),
    /// Algorand application ID.
    App(u64),
}

impl ContractId {
    /// The EVM address, if this is an EVM contract.
    pub fn as_evm(&self) -> Option<Address> {
        match self {
            ContractId::Evm(a) => Some(*a),
            ContractId::App(_) => None,
        }
    }

    /// The application ID, if this is an Algorand app.
    pub fn as_app(&self) -> Option<u64> {
        match self {
            ContractId::App(id) => Some(*id),
            ContractId::Evm(_) => None,
        }
    }
}

impl std::fmt::Display for ContractId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractId::Evm(a) => write!(f, "evm:{a}"),
            ContractId::App(id) => write!(f, "app:{id}"),
        }
    }
}

impl std::fmt::Debug for ContractId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// Computes the address of an EVM contract created by `deployer` at `nonce`
/// (simplified CREATE semantics: keccak(deployer ‖ nonce)[12..]).
pub fn contract_address(deployer: &Address, nonce: u64) -> Address {
    let mut preimage = Vec::with_capacity(28);
    preimage.extend_from_slice(&deployer.0);
    preimage.extend_from_slice(&nonce.to_be_bytes());
    let digest = keccak256(&preimage);
    let mut out = [0u8; 20];
    out.copy_from_slice(&digest[12..]);
    Address(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::ed25519::Keypair;

    #[test]
    fn derivation_is_deterministic() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        assert_eq!(Address::from_public_key(&kp.public), Address::from_public_key(&kp.public));
    }

    #[test]
    fn distinct_keys_distinct_addresses() {
        let a = Address::from_public_key(&Keypair::from_seed(&[1u8; 32]).public);
        let b = Address::from_public_key(&Keypair::from_seed(&[2u8; 32]).public);
        assert_ne!(a, b);
    }

    #[test]
    fn displays_as_0x_hex() {
        let a = Address([0xab; 20]);
        assert_eq!(a.to_string(), format!("0x{}", "ab".repeat(20)));
    }

    #[test]
    fn contract_addresses_vary_with_nonce() {
        let d = Address([7u8; 20]);
        assert_ne!(contract_address(&d, 0), contract_address(&d, 1));
    }

    #[test]
    fn contract_id_accessors() {
        let a = ContractId::Evm(Address::ZERO);
        assert_eq!(a.as_evm(), Some(Address::ZERO));
        assert_eq!(a.as_app(), None);
        let b = ContractId::App(42);
        assert_eq!(b.as_app(), Some(42));
        assert_eq!(b.as_evm(), None);
    }
}
