//! Blocks and block hashes.

use crate::address::Address;
use crate::tx::{Transaction, TxId};
use pol_crypto::{hex, sha256};

/// A block hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockHash(pub [u8; 32]);

impl BlockHash {
    /// The hash used as parent by the genesis block.
    pub const GENESIS_PARENT: BlockHash = BlockHash([0u8; 32]);
}

impl std::fmt::Display for BlockHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl std::fmt::Debug for BlockHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// A produced block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Height in the chain (genesis is 0).
    pub number: u64,
    /// Hash of the parent block.
    pub parent: BlockHash,
    /// Simulation timestamp in milliseconds.
    pub timestamp_ms: u64,
    /// Proposer / leader that produced the block.
    pub proposer: Address,
    /// EIP-1559 base fee per gas in force for this block (EVM chains; the
    /// Algorand chain carries its flat min fee here for uniform reporting).
    pub base_fee_per_gas: u128,
    /// Total gas consumed by the block's transactions.
    pub gas_used: u64,
    /// Included transactions.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Computes the block hash from header fields and transaction ids.
    pub fn hash(&self) -> BlockHash {
        let ids: Vec<TxId> = self.transactions.iter().map(Transaction::id).collect();
        self.hash_with_ids(&ids)
    }

    /// The block hash over the header fields and `ids`, which must be the
    /// ids of `transactions` in order: a producer that already holds them
    /// skips re-encoding and re-hashing every transaction. Debug builds
    /// check that they are.
    pub fn hash_with_ids(&self, ids: &[TxId]) -> BlockHash {
        debug_assert_eq!(ids.len(), self.transactions.len(), "one id per transaction");
        debug_assert!(
            ids.iter().zip(&self.transactions).all(|(id, tx)| *id == tx.id()),
            "ids are the transactions' ids, in order"
        );
        let mut preimage = Vec::with_capacity(128 + ids.len() * 32);
        preimage.extend_from_slice(&self.number.to_be_bytes());
        preimage.extend_from_slice(&self.parent.0);
        preimage.extend_from_slice(&self.timestamp_ms.to_be_bytes());
        preimage.extend_from_slice(&self.proposer.0);
        preimage.extend_from_slice(&self.base_fee_per_gas.to_be_bytes());
        for id in ids {
            preimage.extend_from_slice(&id.0);
        }
        BlockHash(sha256(&preimage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: u64) -> Block {
        Block {
            number: n,
            parent: BlockHash::GENESIS_PARENT,
            timestamp_ms: 1000 * n,
            proposer: Address::ZERO,
            base_fee_per_gas: 10,
            gas_used: 0,
            transactions: Vec::new(),
        }
    }

    #[test]
    fn hash_depends_on_header() {
        assert_ne!(block(1).hash(), block(2).hash());
    }

    #[test]
    fn hash_depends_on_transactions() {
        let kp = pol_crypto::ed25519::Keypair::from_seed(&[1u8; 32]);
        let from = Address::from_public_key(&kp.public);
        let mut b1 = block(1);
        let b2 = block(1);
        b1.transactions.push(Transaction::transfer(from, Address::ZERO, 1, 0));
        assert_ne!(b1.hash(), b2.hash());
    }
}
