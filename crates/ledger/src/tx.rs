//! Transactions: the unit of interaction with every simulated chain.

use crate::address::{Address, ContractId};
use crate::LedgerError;
use pol_crypto::ed25519::{Keypair, PublicKey, Signature};
use pol_crypto::{hex, sha256};

/// A transaction hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub [u8; 32]);

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl std::fmt::Debug for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// What a transaction does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxKind {
    /// A plain native-currency transfer.
    Transfer,
    /// Deploys contract code (`data` holds the VM program image).
    ContractCreate,
    /// Calls a deployed contract (`data` holds the call payload).
    ContractCall(ContractId),
}

/// A chain-neutral transaction.
///
/// Fee semantics differ per chain: the EVM chains read `gas_limit`,
/// `max_fee_per_gas` and `max_priority_fee_per_gas` (EIP-1559); Algorand
/// charges the flat minimum fee and ignores the gas fields.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Sender address.
    pub from: Address,
    /// Recipient for transfers; `None` for contract creation.
    pub to: Option<Address>,
    /// Value moved, in base units.
    pub value: u128,
    /// Sender account nonce.
    pub nonce: u64,
    /// What the transaction does.
    pub kind: TxKind,
    /// VM payload (code image or call data).
    pub data: Vec<u8>,
    /// Maximum gas the sender will buy (EVM chains).
    pub gas_limit: u64,
    /// EIP-1559 fee cap per gas, in base units.
    pub max_fee_per_gas: u128,
    /// EIP-1559 priority fee ("tip") per gas, in base units.
    pub max_priority_fee_per_gas: u128,
    /// Sender public key and signature over the transaction id.
    pub authorization: Option<(PublicKey, Signature)>,
}

impl Transaction {
    /// Builds an unsigned transfer.
    pub fn transfer(from: Address, to: Address, value: u128, nonce: u64) -> Transaction {
        Transaction {
            from,
            to: Some(to),
            value,
            nonce,
            kind: TxKind::Transfer,
            data: Vec::new(),
            gas_limit: 21_000,
            max_fee_per_gas: 0,
            max_priority_fee_per_gas: 0,
            authorization: None,
        }
    }

    /// Builds an unsigned contract-creation transaction.
    pub fn create(from: Address, code: Vec<u8>, nonce: u64) -> Transaction {
        Transaction {
            from,
            to: None,
            value: 0,
            nonce,
            kind: TxKind::ContractCreate,
            data: code,
            gas_limit: 3_000_000,
            max_fee_per_gas: 0,
            max_priority_fee_per_gas: 0,
            authorization: None,
        }
    }

    /// Builds an unsigned contract call.
    pub fn call(
        from: Address,
        contract: ContractId,
        data: Vec<u8>,
        value: u128,
        nonce: u64,
    ) -> Transaction {
        Transaction {
            from,
            to: contract.as_evm(),
            value,
            nonce,
            kind: TxKind::ContractCall(contract),
            data,
            gas_limit: 1_000_000,
            max_fee_per_gas: 0,
            max_priority_fee_per_gas: 0,
            authorization: None,
        }
    }

    /// Sets the EIP-1559 fee fields (builder style).
    pub fn with_fees(mut self, max_fee_per_gas: u128, priority_fee_per_gas: u128) -> Transaction {
        self.max_fee_per_gas = max_fee_per_gas;
        self.max_priority_fee_per_gas = priority_fee_per_gas;
        self
    }

    /// Sets the gas limit (builder style).
    pub fn with_gas_limit(mut self, gas_limit: u64) -> Transaction {
        self.gas_limit = gas_limit;
        self
    }

    /// The canonical byte encoding hashed to form the [`TxId`].
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.data.len());
        out.extend_from_slice(&self.from.0);
        match &self.to {
            Some(a) => {
                out.push(1);
                out.extend_from_slice(&a.0);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.value.to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        match &self.kind {
            TxKind::Transfer => out.push(0),
            TxKind::ContractCreate => out.push(1),
            TxKind::ContractCall(id) => {
                out.push(2);
                match id {
                    ContractId::Evm(a) => {
                        out.push(0);
                        out.extend_from_slice(&a.0);
                    }
                    ContractId::App(n) => {
                        out.push(1);
                        out.extend_from_slice(&n.to_be_bytes());
                    }
                }
            }
        }
        out.extend_from_slice(&(self.data.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&self.gas_limit.to_be_bytes());
        out.extend_from_slice(&self.max_fee_per_gas.to_be_bytes());
        out.extend_from_slice(&self.max_priority_fee_per_gas.to_be_bytes());
        out
    }

    /// The transaction id (hash of the signing bytes).
    pub fn id(&self) -> TxId {
        TxId(sha256(&self.signing_bytes()))
    }

    /// Signs the transaction with the sender keypair (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the keypair's address does not match `from` — signing for
    /// another account is always a programming error.
    pub fn signed(mut self, keypair: &Keypair) -> Transaction {
        assert_eq!(
            Address::from_public_key(&keypair.public),
            self.from,
            "signer does not control the sender address"
        );
        let sig = keypair.sign(&self.signing_bytes());
        self.authorization = Some((keypair.public, sig));
        self
    }

    /// Verifies the signature and that the signer controls `from`.
    pub fn verify_signature(&self) -> bool {
        self.authorized_over(&self.signing_bytes())
    }

    /// The check itself, over signing bytes the caller already encoded.
    fn authorized_over(&self, signing_bytes: &[u8]) -> bool {
        match &self.authorization {
            Some((pk, sig)) => {
                Address::from_public_key(pk) == self.from && pk.verify(signing_bytes, sig)
            }
            None => false,
        }
    }
}

/// A [`Transaction`] whose signature and sender have been checked, with
/// its [`TxId`] — proof, carried in the type, that the check ran.
///
/// The only way to obtain one is [`VerifiedTx::new`], which runs the same
/// check as [`Transaction::verify_signature`]; the transaction inside can
/// be read but never changed, so the proof cannot go stale. Admission
/// verifies once and hands this on, through parking, to the chain, which
/// accepts it without checking again. The signing bytes are encoded once,
/// for the signature check and the id both.
///
/// ```
/// use pol_crypto::ed25519::Keypair;
/// use pol_ledger::{Address, LedgerError, Transaction, VerifiedTx};
///
/// let kp = Keypair::from_seed(&[7u8; 32]);
/// let from = Address::from_public_key(&kp.public);
/// let tx = Transaction::transfer(from, Address::ZERO, 1, 0);
/// assert_eq!(VerifiedTx::new(tx.clone()).unwrap_err(), LedgerError::BadSignature);
/// let verified = VerifiedTx::new(tx.signed(&kp)).unwrap();
/// assert_eq!(verified.id(), verified.tx().id());
/// ```
///
/// No other construction and no mutation compiles:
///
/// ```compile_fail
/// # use pol_ledger::{Address, Transaction, VerifiedTx};
/// let tx = Transaction::transfer(Address::ZERO, Address::ZERO, 1, 0);
/// let id = tx.id();
/// let forged = VerifiedTx { tx, id }; // private fields
/// ```
///
/// ```compile_fail
/// # use pol_ledger::VerifiedTx;
/// let forged = VerifiedTx::default(); // no Default
/// ```
///
/// ```compile_fail
/// # use pol_crypto::ed25519::Keypair;
/// # use pol_ledger::{Address, Transaction, VerifiedTx};
/// # let kp = Keypair::from_seed(&[7u8; 32]);
/// # let from = Address::from_public_key(&kp.public);
/// let mut verified =
///     VerifiedTx::new(Transaction::transfer(from, Address::ZERO, 1, 0).signed(&kp)).unwrap();
/// verified.tx().value = 1_000_000; // shared access only
/// ```
#[derive(Debug, Clone)]
pub struct VerifiedTx {
    tx: Transaction,
    id: TxId,
}

impl VerifiedTx {
    /// Checks `tx`'s signature and that the signer controls `from`.
    ///
    /// # Errors
    ///
    /// [`LedgerError::BadSignature`] when the authorization is missing,
    /// signed by another account's key, or does not verify.
    pub fn new(tx: Transaction) -> Result<VerifiedTx, LedgerError> {
        let signing_bytes = tx.signing_bytes();
        if !tx.authorized_over(&signing_bytes) {
            return Err(LedgerError::BadSignature);
        }
        Ok(VerifiedTx { id: TxId(sha256(&signing_bytes)), tx })
    }

    /// The transaction id, hashed once at construction.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The checked transaction.
    pub fn tx(&self) -> &Transaction {
        &self.tx
    }

    /// Gives up the proof and returns the transaction.
    pub fn into_tx(self) -> Transaction {
        self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::ed25519::Keypair;

    fn keypair() -> Keypair {
        Keypair::from_seed(&[42u8; 32])
    }

    fn addr(kp: &Keypair) -> Address {
        Address::from_public_key(&kp.public)
    }

    #[test]
    fn id_changes_with_payload() {
        let kp = keypair();
        let t1 = Transaction::transfer(addr(&kp), Address::ZERO, 1, 0);
        let t2 = Transaction::transfer(addr(&kp), Address::ZERO, 2, 0);
        assert_ne!(t1.id(), t2.id());
    }

    #[test]
    fn signing_round_trip() {
        let kp = keypair();
        let tx = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0).signed(&kp);
        assert!(tx.verify_signature());
    }

    #[test]
    fn verified_tx_is_built_only_by_a_passing_check() {
        let kp = keypair();
        let tx = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0).signed(&kp);
        let verified = VerifiedTx::new(tx.clone()).unwrap();
        assert_eq!(verified.id(), tx.id());
        assert_eq!(verified.tx().signing_bytes(), tx.signing_bytes());

        let mut tampered = tx.clone();
        tampered.value = 6;
        assert_eq!(VerifiedTx::new(tampered).unwrap_err(), LedgerError::BadSignature);
        let unsigned = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0);
        assert_eq!(VerifiedTx::new(unsigned).unwrap_err(), LedgerError::BadSignature);
        let other = Keypair::from_seed(&[43u8; 32]);
        let mut foreign = tx;
        foreign.authorization = Some((other.public, other.sign(&foreign.signing_bytes())));
        assert_eq!(VerifiedTx::new(foreign).unwrap_err(), LedgerError::BadSignature);
    }

    #[test]
    fn unsigned_fails_verification() {
        let kp = keypair();
        let tx = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0);
        assert!(!tx.verify_signature());
    }

    #[test]
    fn foreign_signature_rejected() {
        let kp = keypair();
        let other = Keypair::from_seed(&[43u8; 32]);
        let mut tx = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0);
        let sig = other.sign(&tx.signing_bytes());
        tx.authorization = Some((other.public, sig));
        assert!(!tx.verify_signature());
    }

    #[test]
    #[should_panic(expected = "signer does not control")]
    fn signing_for_wrong_sender_panics() {
        let kp = keypair();
        let other = Keypair::from_seed(&[44u8; 32]);
        let _ = Transaction::transfer(addr(&kp), Address::ZERO, 5, 0).signed(&other);
    }

    #[test]
    fn builder_setters() {
        let kp = keypair();
        let tx = Transaction::create(addr(&kp), vec![1, 2, 3], 7)
            .with_gas_limit(2_000_000)
            .with_fees(30, 2);
        assert_eq!(tx.gas_limit, 2_000_000);
        assert_eq!(tx.max_fee_per_gas, 30);
        assert_eq!(tx.max_priority_fee_per_gas, 2);
        assert_eq!(tx.kind, TxKind::ContractCreate);
        assert!(tx.to.is_none());
    }
}
