//! The journaled world-state layer shared by both virtual machines and
//! the chain simulator.
//!
//! All persistent chain state — account balances and nonces, EVM contract
//! code and storage, AVM application programs, globals and boxes — is
//! addressed by one closed, typed key space ([`StateKey`] →
//! [`StateValue`]) and held once, as canonical bytes ([`crate::codec`]),
//! in the [`StateBackend`] under the [`WorldState`]: a byte hash map by
//! default, a write-ahead log or a Merkle trie. A typed read encodes its
//! key and decodes the bytes the backend returns; the one typed thing the
//! world keeps beside them is each installed compiled program, whose
//! bytes are only a digest. Execution never mutates the committed world
//! directly: every transaction runs inside an [`Overlay`], which
//!
//! * serves **versioned reads** (overlay writes shadow the base world),
//! * keeps a **write journal** so any prefix of the mutations can be
//!   rolled back (nested checkpoints replace the whole-map
//!   `storage.clone()` snapshots the interpreters used to take), and
//! * records the transaction's **read set and write set**, which is what
//!   lets the optimistic-parallel block executor in `pol-chainsim`
//!   validate a speculative execution against the committed prefix and
//!   commit it only when its reads still hold.
//!
//! The same overlay is used by the sequential execution path (committed
//! immediately after each transaction), so both execution modes share one
//! code path and produce byte-identical state transitions.

use crate::address::Address;
use crate::codec;
use pol_store::{BatchEntry, MemoryBackend, MerkleProof, StateBackend, StoreError};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// A key into the world state. The enum is deliberately closed: every
/// piece of consensus-relevant state the simulator tracks is enumerable,
/// which is what makes read/write-set conflict detection exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKey {
    /// An account's spendable balance, base units.
    Balance(Address),
    /// An account's next transaction nonce.
    Nonce(Address),
    /// An EVM contract's runtime bytecode.
    Code(Address),
    /// One EVM storage slot (32-byte big-endian slot key).
    Storage(Address, [u8; 32]),
    /// Number of EVM deployments so far (drives contract addresses).
    DeployCount,
    /// The next AVM application id to assign.
    AppCount,
    /// An AVM application's approval program.
    AppProgram(u64),
    /// An AVM application's creator address.
    AppCreator(u64),
    /// One AVM global-state entry.
    AppGlobal(u64, Vec<u8>),
    /// One AVM box.
    AppBox(u64, Vec<u8>),
}

/// Opaque structured values (compiled programs and the like) stored in
/// the world state behind an `Arc`, so speculative executors share them
/// without deep clones.
pub trait StateBlob: Any + Send + Sync + std::fmt::Debug {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Structural equality against another blob (used by read-set
    /// validation when two distinct `Arc`s hold equal programs).
    fn blob_eq(&self, other: &dyn StateBlob) -> bool;
    /// A canonical byte encoding for state digests.
    fn digest_bytes(&self) -> Vec<u8>;
}

/// A value in the world state.
#[derive(Debug, Clone)]
pub enum StateValue {
    /// A 64-bit unsigned integer (nonces, counters, AVM uints).
    U64(u64),
    /// A 128-bit unsigned integer (balances).
    U128(u128),
    /// A 32-byte big-endian word (EVM storage values).
    Word([u8; 32]),
    /// An octet string (code, box values, AVM byte values).
    Bytes(Vec<u8>),
    /// A shared structured blob (AVM programs).
    Blob(Arc<dyn StateBlob>),
}

impl PartialEq for StateValue {
    fn eq(&self, other: &StateValue) -> bool {
        match (self, other) {
            (StateValue::U64(a), StateValue::U64(b)) => a == b,
            (StateValue::U128(a), StateValue::U128(b)) => a == b,
            (StateValue::Word(a), StateValue::Word(b)) => a == b,
            (StateValue::Bytes(a), StateValue::Bytes(b)) => a == b,
            (StateValue::Blob(a), StateValue::Blob(b)) => {
                // Pointer equality first: speculative re-reads of the same
                // installed program share the Arc.
                Arc::ptr_eq(a, b) || a.blob_eq(other_blob(b))
            }
            _ => false,
        }
    }
}

fn other_blob(b: &Arc<dyn StateBlob>) -> &dyn StateBlob {
    &**b
}

impl Eq for StateValue {}

impl StateValue {
    /// The `U64` payload, if that is the variant.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            StateValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The `U128` payload, if that is the variant.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            StateValue::U128(v) => Some(*v),
            _ => None,
        }
    }

    /// The `Word` payload, if that is the variant.
    pub fn as_word(&self) -> Option<[u8; 32]> {
        match self {
            StateValue::Word(w) => Some(*w),
            _ => None,
        }
    }

    /// The `Bytes` payload, if that is the variant.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            StateValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The `Blob` payload, if that is the variant.
    pub fn as_blob(&self) -> Option<&Arc<dyn StateBlob>> {
        match self {
            StateValue::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Canonical byte encoding used by [`WorldState::digest_input`] and
    /// the storage codec (`crate::codec::encode_value`).
    pub(crate) fn digest_bytes(&self) -> Vec<u8> {
        match self {
            StateValue::U64(v) => codec::tagged(1, &v.to_be_bytes(), &[]),
            StateValue::U128(v) => codec::tagged(2, &v.to_be_bytes(), &[]),
            StateValue::Word(w) => codec::tagged(3, w, &[]),
            StateValue::Bytes(b) => codec::tagged(4, b, &[]),
            StateValue::Blob(b) => codec::tagged(5, &b.digest_bytes(), &[]),
        }
    }
}

/// Anything an [`Overlay`] can read through: the committed world, or a
/// composite base that patches part of the key space (see
/// [`BalancePatchBase`]).
pub trait StateBase: Sync {
    /// Loads the committed value under `key`, if any.
    fn load(&self, key: &StateKey) -> Option<StateValue>;
}

/// The set of values a speculative execution observed from its base,
/// keyed by state key; `None` records "read as absent".
pub type ReadSet = HashMap<StateKey, Option<StateValue>>;

/// The set of mutations an execution produced; `None` deletes the key.
pub type WriteSet = HashMap<StateKey, Option<StateValue>>;

/// The committed world state: a typed view of one byte backend.
///
/// Every entry lives once, in canonical byte form (see [`crate::codec`]),
/// in a pluggable [`StateBackend`] (`pol-store`): the in-memory map by
/// default, or a write-ahead log / Merkle trie for durability and
/// authenticated roots. Writes encode onto it; reads ([`WorldState::get`]
/// and everything built on it) encode the key on the stack, look it up
/// there and decode the bytes, which allocates only for a variable-length
/// value. The one typed state kept beside the backend is a side table of
/// the compiled programs (`StateValue::Blob`) installed through this
/// world: their bytes are only a content digest and cannot be decoded, so
/// a read whose bytes are a digest answers from the table. A backend I/O
/// failure panics: the simulator treats loss of the durability layer as
/// fatal rather than silently diverging from its own log.
pub struct WorldState {
    /// The one copy of every entry, and the authenticated root.
    backend: Box<dyn StateBackend>,
    /// The compiled programs installed through this world, by key.
    blobs: HashMap<StateKey, Arc<dyn StateBlob>>,
}

impl std::fmt::Debug for WorldState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldState")
            .field("backend", &self.backend.name())
            .field("blobs", &self.blobs)
            .finish_non_exhaustive()
    }
}

impl Default for WorldState {
    fn default() -> WorldState {
        WorldState::with_backend(Box::new(MemoryBackend::new())).0
    }
}

impl WorldState {
    /// An empty world over the default in-memory backend.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Builds a world over `backend`, which may already hold entries
    /// (crash-restart recovery). Returns the world plus the raw keys whose
    /// values cannot be decoded into typed values — opaque blobs such as
    /// compiled AVM programs, which only encode by content digest. Those
    /// bytes stay in the backend (and keep counting toward the root) but
    /// read as absent until the program is written again.
    pub fn with_backend(backend: Box<dyn StateBackend>) -> (WorldState, Vec<Vec<u8>>) {
        let opaque = backend
            .entries()
            .into_iter()
            .filter(|(key, value)| {
                codec::decode_key(key).is_none() || codec::decode_value(value).is_none()
            })
            .map(|(key, _)| key)
            .collect();
        (WorldState { backend, blobs: HashMap::new() }, opaque)
    }

    /// The authenticated root over the committed contents — the canonical
    /// Merkle-trie commitment every backend agrees on. Blocks do not
    /// commit to it (a block header covers its fields and transaction ids
    /// only): the chain simulator's `state_digest` reads it on demand,
    /// and [`WorldState::prove`]'s proofs verify against it.
    pub fn state_root(&self) -> [u8; 32] {
        self.backend.root()
    }

    /// The active backend's name ("memory", "wal", "trie").
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Marks a block boundary on the backend (durability flush and
    /// snapshot policy for the write-ahead log, the block's settle and
    /// node hashing for the trie; a no-op for the memory backend).
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failure.
    pub fn flush_block(&mut self, height: u64) -> Result<(), StoreError> {
        self.backend.flush_block(height)
    }

    /// An inclusion/exclusion proof for `key` against
    /// [`WorldState::state_root`], on backends that support proving (the
    /// Merkle trie; others return `None`).
    pub fn prove(&self, key: &StateKey) -> Option<MerkleProof> {
        self.backend.prove(&codec::encode_key(key))
    }

    /// Keeps the program side table in step with a write of `key`.
    fn track_blob(&mut self, key: &StateKey, value: Option<&StateValue>) {
        match value {
            Some(StateValue::Blob(blob)) => {
                self.blobs.insert(key.clone(), Arc::clone(blob));
            }
            _ if !self.blobs.is_empty() => {
                self.blobs.remove(key);
            }
            _ => {}
        }
    }

    fn write_one(&mut self, key: &StateKey, value: Option<&StateValue>) {
        self.track_blob(key, value);
        let batch = [(codec::encode_key(key), value.map(codec::encode_value))];
        self.backend.commit(&batch).expect("state backend commit failed");
    }

    /// Reads a committed value: the backend's bytes, decoded, or the
    /// installed program they are the digest of.
    pub fn get(&self, key: &StateKey) -> Option<StateValue> {
        let bytes = self.backend.get(&codec::key_bytes(key))?;
        codec::decode_value(bytes)
            .or_else(|| self.blobs.get(key).map(|blob| StateValue::Blob(Arc::clone(blob))))
    }

    /// Writes a committed value directly (genesis funding, faucets and
    /// other out-of-band bookkeeping; transaction execution goes through
    /// an [`Overlay`] instead).
    pub fn set(&mut self, key: StateKey, value: StateValue) {
        self.write_one(&key, Some(&value));
    }

    /// Removes a committed value directly.
    pub(crate) fn remove(&mut self, key: &StateKey) {
        self.write_one(key, None);
    }

    /// An account's balance, base units (absent key reads as 0).
    pub fn balance(&self, address: Address) -> u128 {
        self.get(&StateKey::Balance(address)).and_then(|v| v.as_u128()).unwrap_or(0)
    }

    /// Sets an account's balance.
    pub fn set_balance(&mut self, address: Address, amount: u128) {
        self.set(StateKey::Balance(address), StateValue::U128(amount));
    }

    /// An account's next nonce (absent key reads as 0).
    pub fn nonce(&self, address: Address) -> u64 {
        self.get(&StateKey::Nonce(address)).and_then(|v| v.as_u64()).unwrap_or(0)
    }

    /// Sets an account's next nonce.
    pub fn set_nonce(&mut self, address: Address, nonce: u64) {
        self.set(StateKey::Nonce(address), StateValue::U64(nonce));
    }

    /// Applies a write set atomically (the commit step of the executor).
    pub fn apply(&mut self, writes: WriteSet) {
        if writes.is_empty() {
            return;
        }
        let mut batch: Vec<BatchEntry> = Vec::with_capacity(writes.len());
        for (key, value) in &writes {
            self.track_blob(key, value.as_ref());
            batch.push((codec::encode_key(key), value.as_ref().map(codec::encode_value)));
        }
        // Write sets iterate in hash order; sorting the batch keeps the
        // persistent log bytes deterministic for a given block.
        batch.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.backend.commit(&batch).expect("state backend commit failed");
    }

    /// Validates a read set against the current committed world: every
    /// key must still hold exactly the value the speculation observed.
    pub fn validates(&self, reads: &ReadSet) -> bool {
        reads.iter().all(|(key, observed)| self.get(key) == *observed)
    }

    /// Every committed entry that reads as present, decoded, sorted by
    /// encoded key: a walk of the whole backend (explorer-style
    /// inspection and digests, never a hot path).
    fn decoded_entries(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>, StateKey)> + '_ {
        self.backend.entries().into_iter().filter_map(|(key_bytes, value_bytes)| {
            let key = codec::decode_key(&key_bytes)?;
            let readable =
                codec::decode_value(&value_bytes).is_some() || self.blobs.contains_key(&key);
            readable.then_some((key_bytes, value_bytes, key))
        })
    }

    /// All committed keys that read as present, in encoded-key order.
    pub fn keys(&self) -> impl Iterator<Item = StateKey> + '_ {
        self.decoded_entries().map(|(_, _, key)| key)
    }

    /// A canonical digest input of the whole world: sorted, length-framed
    /// `encode(key) ‖ encode(value)` records in the storage codec's byte
    /// form, over the entries that read as present. Hash it with the
    /// caller's digest of choice; two worlds are identical iff these bytes
    /// are. ([`WorldState::state_root`] authenticates the backend's whole
    /// entry set as a Merkle trie.)
    pub fn digest_input(&self) -> Vec<u8> {
        let mut lines: Vec<Vec<u8>> = self
            .decoded_entries()
            .map(|(key, value, _)| {
                let mut line = Vec::with_capacity(8 + key.len() + value.len());
                line.extend_from_slice(&(key.len() as u32).to_be_bytes());
                line.extend_from_slice(&key);
                line.extend_from_slice(&(value.len() as u32).to_be_bytes());
                line.extend_from_slice(&value);
                line
            })
            .collect();
        lines.sort();
        lines.concat()
    }
}

impl StateBase for WorldState {
    fn load(&self, key: &StateKey) -> Option<StateValue> {
        self.get(key)
    }
}

/// A checkpoint into an overlay's journal (see [`Overlay::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

/// One journal entry: the key touched and the overlay-local entry it had
/// before (`None` = the overlay had no local write for the key yet).
type JournalEntry = (StateKey, Option<Option<StateValue>>);

/// A speculative overlay over a base state: writes shadow the base, a
/// journal makes any suffix of them revertible, and the first read of
/// every key that falls through to the base is recorded for validation.
pub struct Overlay<'a> {
    base: &'a dyn StateBase,
    writes: WriteSet,
    journal: Vec<JournalEntry>,
    reads: ReadSet,
}

impl<'a> Overlay<'a> {
    /// Opens an overlay over a base.
    pub fn new(base: &'a dyn StateBase) -> Overlay<'a> {
        Overlay { base, writes: WriteSet::new(), journal: Vec::new(), reads: ReadSet::new() }
    }

    /// Consumes the overlay, returning its read and write sets.
    pub fn into_parts(self) -> (ReadSet, WriteSet) {
        (self.reads, self.writes)
    }

    /// The write set only (drops read tracking).
    pub fn into_writes(self) -> WriteSet {
        self.writes
    }

    fn record_write(&mut self, key: StateKey, value: Option<StateValue>) {
        let prior = self.writes.get(&key).cloned();
        self.journal.push((key.clone(), prior));
        self.writes.insert(key, value);
    }

    /// Reads a value, recording its first fall-through to the base in
    /// the read set.
    pub fn get(&mut self, key: &StateKey) -> Option<StateValue> {
        if let Some(local) = self.writes.get(key) {
            return local.clone();
        }
        let from_base = self.base.load(key);
        // First observation of this key: it is part of the read set even
        // if a later (possibly rolled-back) branch overwrites it.
        if !self.reads.contains_key(key) {
            self.reads.insert(key.clone(), from_base.clone());
        }
        from_base
    }

    /// Writes a value.
    pub fn put(&mut self, key: StateKey, value: StateValue) {
        self.record_write(key, Some(value));
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: StateKey) {
        self.record_write(key, None);
    }

    /// Opens a checkpoint; [`Overlay::rollback_to`] undoes every write
    /// made after it. Checkpoints nest (inner frames roll back first).
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint(self.journal.len())
    }

    /// Rolls the write journal back to a checkpoint.
    pub fn rollback_to(&mut self, checkpoint: Checkpoint) {
        while self.journal.len() > checkpoint.0 {
            let (key, prior) = self.journal.pop().expect("journal non-empty");
            match prior {
                Some(entry) => {
                    self.writes.insert(key, entry);
                }
                None => {
                    self.writes.remove(&key);
                }
            }
        }
    }

    /// Convenience: an account balance (absent reads as 0).
    pub fn balance_of(&mut self, address: Address) -> u128 {
        self.get(&StateKey::Balance(address)).and_then(|v| v.as_u128()).unwrap_or(0)
    }

    /// Convenience: overwrite an account balance.
    pub fn set_balance_of(&mut self, address: Address, amount: u128) {
        self.put(StateKey::Balance(address), StateValue::U128(amount));
    }
}

/// A base that reads balances from a caller-owned map and everything else
/// from a [`WorldState`] — the bridge that lets the standalone `Evm` /
/// `Avm` façades keep their historical `&mut Balances` APIs while the
/// machines execute against an [`Overlay`].
pub struct BalancePatchBase<'a> {
    world: &'a WorldState,
    balances: &'a HashMap<Address, u128>,
}

impl<'a> BalancePatchBase<'a> {
    /// Composes a world with a balance map.
    pub fn new(
        world: &'a WorldState,
        balances: &'a HashMap<Address, u128>,
    ) -> BalancePatchBase<'a> {
        BalancePatchBase { world, balances }
    }
}

impl StateBase for BalancePatchBase<'_> {
    fn load(&self, key: &StateKey) -> Option<StateValue> {
        match key {
            StateKey::Balance(address) => {
                self.balances.get(address).map(|amount| StateValue::U128(*amount))
            }
            _ => self.world.load(key),
        }
    }
}

/// Splits a write set produced over a [`BalancePatchBase`] back into the
/// caller's balance map and the world (the inverse of the composition).
pub fn apply_split(
    writes: WriteSet,
    world: &mut WorldState,
    balances: &mut HashMap<Address, u128>,
) {
    for (key, value) in writes {
        match key {
            StateKey::Balance(address) => match value {
                Some(v) => {
                    balances.insert(address, v.as_u128().unwrap_or(0));
                }
                None => {
                    balances.remove(&address);
                }
            },
            _ => match value {
                Some(v) => world.set(key, v),
                None => world.remove(&key),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    #[test]
    fn overlay_reads_through_and_shadows() {
        let mut world = WorldState::new();
        world.set_balance(addr(1), 100);
        let mut view = Overlay::new(&world);
        assert_eq!(view.balance_of(addr(1)), 100);
        view.set_balance_of(addr(1), 40);
        assert_eq!(view.balance_of(addr(1)), 40);
        // The base is untouched until the write set is applied.
        assert_eq!(world.balance(addr(1)), 100);
    }

    #[test]
    fn nested_checkpoints_roll_back_exactly() {
        let world = WorldState::new();
        let mut view = Overlay::new(&world);
        view.put(StateKey::DeployCount, StateValue::U64(1));
        let outer = view.checkpoint();
        view.put(StateKey::DeployCount, StateValue::U64(2));
        view.put(StateKey::AppCount, StateValue::U64(9));
        let inner = view.checkpoint();
        view.delete(StateKey::DeployCount);
        assert_eq!(view.get(&StateKey::DeployCount), None);
        view.rollback_to(inner);
        assert_eq!(view.get(&StateKey::DeployCount), Some(StateValue::U64(2)));
        view.rollback_to(outer);
        assert_eq!(view.get(&StateKey::DeployCount), Some(StateValue::U64(1)));
        assert_eq!(view.get(&StateKey::AppCount), None);
    }

    #[test]
    fn read_set_records_first_observation_only() {
        let mut world = WorldState::new();
        world.set_balance(addr(2), 7);
        let mut view = Overlay::new(&world);
        let _ = view.balance_of(addr(2));
        view.set_balance_of(addr(2), 8);
        let _ = view.balance_of(addr(2)); // served locally, not re-recorded
        let _ = view.balance_of(addr(3)); // absent read
        let (reads, writes) = view.into_parts();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[&StateKey::Balance(addr(2))], Some(StateValue::U128(7)));
        assert_eq!(reads[&StateKey::Balance(addr(3))], None);
        assert_eq!(writes.len(), 1);
    }

    #[test]
    fn validation_detects_conflicts() {
        let mut world = WorldState::new();
        world.set_balance(addr(4), 50);
        let mut view = Overlay::new(&world);
        let _ = view.balance_of(addr(4));
        let (reads, _) = view.into_parts();
        assert!(world.validates(&reads));
        world.set_balance(addr(4), 51);
        assert!(!world.validates(&reads), "changed value must invalidate");
    }

    #[test]
    fn apply_and_digest_round_trip() {
        let mut world = WorldState::new();
        let mut view = Overlay::new(&world);
        view.set_balance_of(addr(5), 123);
        view.put(StateKey::Nonce(addr(5)), StateValue::U64(1));
        let writes = view.into_writes();
        world.apply(writes);
        assert_eq!(world.balance(addr(5)), 123);
        assert_eq!(world.nonce(addr(5)), 1);
        let d1 = world.digest_input();
        let mut world2 = WorldState::new();
        world2.set_nonce(addr(5), 1);
        world2.set_balance(addr(5), 123);
        assert_eq!(d1, world2.digest_input(), "insertion order must not matter");
    }

    #[test]
    fn state_root_is_backend_agnostic() {
        let mut mem_world = WorldState::new();
        let (mut trie_world, opaque) =
            WorldState::with_backend(Box::new(pol_store::TrieBackend::new()));
        assert!(opaque.is_empty());
        for world in [&mut mem_world, &mut trie_world] {
            world.set_balance(addr(9), 1_000);
            world.set_nonce(addr(9), 3);
            world.set(StateKey::Storage(addr(9), [1u8; 32]), StateValue::Word([2u8; 32]));
            world.remove(&StateKey::Nonce(addr(9)));
        }
        assert_ne!(mem_world.state_root(), pol_store::EMPTY_ROOT);
        assert_eq!(mem_world.state_root(), trie_world.state_root());
        assert_eq!(mem_world.backend_name(), "memory");
        assert_eq!(trie_world.backend_name(), "trie");
        // The trie proves inclusion; the standalone verifier recovers the
        // encoded value from root + proof alone.
        let key = StateKey::Balance(addr(9));
        let proof = trie_world.prove(&key).expect("trie backend proves");
        let recovered =
            pol_store::verify_proof(&trie_world.state_root(), &codec::encode_key(&key), &proof)
                .expect("proof verifies");
        assert_eq!(recovered, Some(codec::encode_value(&StateValue::U128(1_000))));
        assert!(mem_world.prove(&key).is_none(), "memory backend does not prove");
    }

    #[test]
    fn with_backend_restores_typed_entries() {
        let mut world = WorldState::new();
        world.set_balance(addr(7), 77);
        world.set(StateKey::AppGlobal(1, b"k".to_vec()), StateValue::Bytes(b"v".to_vec()));
        let backend = MemoryBackend::from_entries(world.backend.entries());
        let (restored, opaque) = WorldState::with_backend(Box::new(backend));
        assert!(opaque.is_empty());
        assert_eq!(restored.balance(addr(7)), 77);
        assert_eq!(
            restored.get(&StateKey::AppGlobal(1, b"k".to_vec())),
            Some(StateValue::Bytes(b"v".to_vec()))
        );
        assert_eq!(restored.state_root(), world.state_root());
        assert_eq!(restored.digest_input(), world.digest_input());
    }

    /// A stand-in compiled program.
    #[derive(Debug, PartialEq)]
    struct Program(u8);

    impl StateBlob for Program {
        fn as_any(&self) -> &dyn Any {
            self
        }

        fn blob_eq(&self, other: &dyn StateBlob) -> bool {
            other.as_any().downcast_ref::<Program>() == Some(self)
        }

        fn digest_bytes(&self) -> Vec<u8> {
            vec![0xD1, self.0]
        }
    }

    #[test]
    fn programs_read_from_the_side_table_while_installed() {
        let mut world = WorldState::new();
        let key = StateKey::AppProgram(1);
        let program = StateValue::Blob(Arc::new(Program(7)));
        world.set(key.clone(), program.clone());
        assert_eq!(world.get(&key), Some(program.clone()));
        // Overwritten by plain bytes, then installed again and deleted:
        // the table keeps no program the state no longer holds.
        world.set(key.clone(), StateValue::Bytes(vec![1]));
        assert_eq!(world.get(&key), Some(StateValue::Bytes(vec![1])));
        assert!(world.blobs.is_empty());
        world.set(key.clone(), program.clone());
        let mut writes = WriteSet::new();
        writes.insert(key.clone(), None);
        world.apply(writes);
        assert_eq!(world.get(&key), None);
        assert!(world.blobs.is_empty());
        // A restored world reports the digest as opaque and reads it as
        // absent until the program is written again.
        world.set(key.clone(), program.clone());
        let backend = MemoryBackend::from_entries(world.backend.entries());
        let (mut restored, opaque) = WorldState::with_backend(Box::new(backend));
        assert_eq!(opaque, vec![codec::encode_key(&key)]);
        assert_eq!(restored.get(&key), None);
        assert_eq!(restored.keys().count(), 0);
        assert_eq!(restored.state_root(), world.state_root());
        restored.set(key.clone(), program.clone());
        assert_eq!(restored.get(&key), Some(program));
        assert_eq!(restored.digest_input(), world.digest_input());
    }

    #[test]
    fn balance_patch_base_splits_writes() {
        let mut world = WorldState::new();
        world.set(StateKey::DeployCount, StateValue::U64(3));
        let mut balances = HashMap::new();
        balances.insert(addr(6), 10u128);
        let base = BalancePatchBase::new(&world, &balances);
        let mut view = Overlay::new(&base);
        assert_eq!(view.balance_of(addr(6)), 10);
        assert_eq!(view.get(&StateKey::DeployCount), Some(StateValue::U64(3)));
        view.set_balance_of(addr(6), 4);
        view.put(StateKey::DeployCount, StateValue::U64(4));
        let writes = view.into_writes();
        apply_split(writes, &mut world, &mut balances);
        assert_eq!(balances[&addr(6)], 4);
        assert_eq!(world.get(&StateKey::DeployCount), Some(StateValue::U64(4)));
    }
}
