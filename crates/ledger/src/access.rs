//! Static access claims: a finite, sound description of the
//! [`StateKey`]s a transaction may read or write, produced by
//! compile-time analysis (the contract language's access summaries) and
//! consumed by the parallel scheduler.
//!
//! A claim is either an exact key or a *prefix* over the canonical
//! [`crate::codec::encode_key`] byte form. Because the codec is
//! injective and tag-disjoint, prefixes carve out natural families:
//! `[TAG_BALANCE]` is "any balance", `[TAG_STORAGE] ‖ addr` is "all
//! storage of one contract", `[TAG_APP_BOX] ‖ id ‖ b"m:"` is "every
//! entry of one AVM map". The empty prefix is ⊤ — any key at all.
//!
//! Soundness contract: a resolver that returns [`AccessClaims`] for a
//! transaction promises that every key the execution actually reads is
//! covered by `reads` and every key it writes by `writes`. The executor
//! cross-checks this promise at commit time when its access sanitizer
//! is enabled, so an unsound summary fails loudly instead of
//! corrupting a schedule.

use crate::codec;
use crate::state::{ReadSet, StateKey, WriteSet};

/// One claimed key or key family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyClaim {
    /// Exactly this key.
    Exact(StateKey),
    /// Every key whose canonical encoding starts with these bytes; the
    /// empty prefix claims every key (⊤).
    Prefix(Vec<u8>),
}

impl KeyClaim {
    /// Whether the claim covers `key`.
    pub(crate) fn covers(&self, key: &StateKey) -> bool {
        match self {
            KeyClaim::Exact(k) => k == key,
            KeyClaim::Prefix(p) => p.is_empty() || codec::encode_key(key).starts_with(p),
        }
    }

    /// Whether two claims can both cover some key. Exact-vs-prefix is a
    /// `starts_with` test; two prefixes overlap iff one extends the
    /// other (prefix families are laminar under the injective codec).
    pub(crate) fn overlaps(&self, other: &KeyClaim) -> bool {
        match (self, other) {
            (KeyClaim::Exact(a), KeyClaim::Exact(b)) => a == b,
            (KeyClaim::Exact(k), KeyClaim::Prefix(p))
            | (KeyClaim::Prefix(p), KeyClaim::Exact(k)) => codec::encode_key(k).starts_with(p),
            (KeyClaim::Prefix(a), KeyClaim::Prefix(b)) => a.starts_with(b) || b.starts_with(a),
        }
    }

    /// Whether the claim is a family rather than a single key.
    pub(crate) fn is_wild(&self) -> bool {
        matches!(self, KeyClaim::Prefix(_))
    }
}

/// The full may-read / may-write claim set of one transaction (or one
/// contract method resolved against concrete call arguments).
///
/// Invariant kept by the constructors here: every written key is also
/// claimed as read. Both VM paths read a cell before writing it
/// (balance settlement, storage warm/cold accounting, box presence
/// checks), so a write-only claim would be unsound; folding writes into
/// reads also simplifies the commutativity test.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessClaims {
    /// Keys the transaction may read (a superset of `writes`).
    pub reads: Vec<KeyClaim>,
    /// Keys the transaction may write.
    pub writes: Vec<KeyClaim>,
}

impl AccessClaims {
    /// Claims a read of exactly `key`.
    pub fn read(&mut self, key: StateKey) {
        self.reads.push(KeyClaim::Exact(key));
    }

    /// Claims a read of a key family.
    pub fn read_prefix(&mut self, prefix: Vec<u8>) {
        self.reads.push(KeyClaim::Prefix(prefix));
    }

    /// Claims a read *and* write of exactly `key`.
    pub fn read_write(&mut self, key: StateKey) {
        self.reads.push(KeyClaim::Exact(key.clone()));
        self.writes.push(KeyClaim::Exact(key));
    }

    /// Claims a read and write of a key family.
    pub fn read_write_prefix(&mut self, prefix: Vec<u8>) {
        self.reads.push(KeyClaim::Prefix(prefix.clone()));
        self.writes.push(KeyClaim::Prefix(prefix));
    }

    /// Merges another claim set into this one.
    pub fn extend(&mut self, other: AccessClaims) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }

    /// Whether every claim is an exact key (no ⊤ or family claims).
    pub fn is_exact(&self) -> bool {
        !self.reads.iter().chain(&self.writes).any(KeyClaim::is_wild)
    }

    /// The first observed read not covered by the read claims, if any.
    pub fn first_uncovered_read<'a>(&self, reads: &'a ReadSet) -> Option<&'a StateKey> {
        reads.keys().find(|k| !self.reads.iter().any(|c| c.covers(k)))
    }

    /// The first observed write not covered by the write claims, if any.
    pub fn first_uncovered_write<'a>(&self, writes: &'a WriteSet) -> Option<&'a StateKey> {
        writes.keys().find(|k| !self.writes.iter().any(|c| c.covers(k)))
    }

    /// Whether two claimed transactions commute: neither's writes can
    /// touch anything the other reads. Because writes are folded into
    /// reads, this also covers write-write overlap; read-read sharing
    /// is allowed (every call to one contract reads its code).
    pub fn commutes_with(&self, other: &AccessClaims) -> bool {
        let disjoint = |writes: &[KeyClaim], reads: &[KeyClaim]| {
            !writes.iter().any(|w| reads.iter().any(|r| w.overlaps(r)))
        };
        disjoint(&self.writes, &other.reads) && disjoint(&other.writes, &self.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    #[test]
    fn exact_claims_cover_and_overlap_by_equality() {
        let c = KeyClaim::Exact(StateKey::Balance(addr(1)));
        assert!(c.covers(&StateKey::Balance(addr(1))));
        assert!(!c.covers(&StateKey::Balance(addr(2))));
        assert!(c.overlaps(&KeyClaim::Exact(StateKey::Balance(addr(1)))));
        assert!(!c.overlaps(&KeyClaim::Exact(StateKey::Nonce(addr(1)))));
    }

    #[test]
    fn prefix_claims_cover_their_family_and_nothing_else() {
        // [TAG_STORAGE] ‖ addr — all storage of one contract.
        let p = KeyClaim::Prefix(codec::encode_key(&StateKey::Code(addr(7)))[..21].to_vec());
        // Same 21-byte head only when the tag matches, so build from a
        // Storage key instead.
        let storage_prefix =
            codec::encode_key(&StateKey::Storage(addr(7), [0u8; 32]))[..21].to_vec();
        let p_storage = KeyClaim::Prefix(storage_prefix);
        assert!(p_storage.covers(&StateKey::Storage(addr(7), [9u8; 32])));
        assert!(!p_storage.covers(&StateKey::Storage(addr(8), [9u8; 32])));
        assert!(!p_storage.covers(&StateKey::Balance(addr(7))));
        assert!(!p.covers(&StateKey::Storage(addr(7), [0u8; 32])), "code prefix is not storage");
        let all = KeyClaim::Prefix(Vec::new());
        assert!(all.covers(&StateKey::DeployCount));
        assert!(all.overlaps(&p_storage));
    }

    #[test]
    fn box_prefix_scopes_one_map_of_one_app() {
        let mut prefix = codec::encode_key(&StateKey::AppProgram(3))[..9].to_vec();
        prefix[0] = codec::encode_key(&StateKey::AppBox(3, vec![]))[0];
        prefix.extend_from_slice(b"m:");
        let claim = KeyClaim::Prefix(prefix);
        assert!(claim.covers(&StateKey::AppBox(3, b"m:\0\0\0\0\0\0\0\x05".to_vec())));
        assert!(!claim.covers(&StateKey::AppBox(3, b"n:\0\0\0\0\0\0\0\x05".to_vec())));
        assert!(!claim.covers(&StateKey::AppBox(4, b"m:\0\0\0\0\0\0\0\x05".to_vec())));
        assert!(!claim.covers(&StateKey::AppGlobal(3, b"m:x".to_vec())));
    }

    #[test]
    fn commutativity_allows_shared_reads_and_rejects_write_overlap() {
        let mut a = AccessClaims::default();
        a.read(StateKey::Code(addr(9)));
        a.read_write(StateKey::Balance(addr(1)));
        let mut b = AccessClaims::default();
        b.read(StateKey::Code(addr(9)));
        b.read_write(StateKey::Balance(addr(2)));
        assert!(a.commutes_with(&b), "shared code read must commute");

        let mut c = AccessClaims::default();
        c.read_write(StateKey::Balance(addr(1)));
        assert!(!a.commutes_with(&c), "write-write on one balance");

        let mut d = AccessClaims::default();
        d.read(StateKey::Balance(addr(1)));
        assert!(!a.commutes_with(&d), "a writes what d reads");

        let mut top = AccessClaims::default();
        top.read_write_prefix(Vec::new());
        assert!(!top.commutes_with(&b), "⊤ overlaps everything");
    }

    #[test]
    fn coverage_checks_report_the_escaping_key() {
        let mut claims = AccessClaims::default();
        claims.read_write(StateKey::Balance(addr(1)));
        let mut reads = ReadSet::new();
        reads.insert(StateKey::Balance(addr(1)), None);
        assert_eq!(claims.first_uncovered_read(&reads), None);
        reads.insert(StateKey::Nonce(addr(1)), None);
        assert_eq!(claims.first_uncovered_read(&reads), Some(&StateKey::Nonce(addr(1))));
        let mut writes = WriteSet::new();
        writes.insert(StateKey::Balance(addr(1)), None);
        assert_eq!(claims.first_uncovered_write(&writes), None);
        claims.is_exact().then_some(()).expect("exact claims");
    }
}
