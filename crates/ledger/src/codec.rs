//! Canonical binary encoding of [`StateKey`]/[`StateValue`] — the byte
//! representation the storage backends persist and Merkleize.
//!
//! The encoding is injective (distinct keys/values encode to distinct
//! byte strings): tags are disjoint, all fixed-width fields precede the
//! single variable-length tail, and decoding is strict about lengths.
//! That injectivity is what makes the backend root an honest commitment
//! to the typed world state, and what lets `digest_input` equality keep
//! meaning "observably identical worlds".
//!
//! Values reuse the digest encoding [`StateValue`] always had (a tag
//! byte then the payload). The [`StateValue::Blob`] variant (tag 5,
//! compiled AVM programs) encodes by content digest and is therefore
//! *not* decodable: a restore surfaces such keys as opaque — their
//! bytes still count toward the authenticated root, but re-registering
//! the program object is the caller's job (see
//! `WorldState::with_backend`).

use crate::address::Address;
use crate::state::{StateKey, StateValue};

const TAG_BALANCE: u8 = 1;
const TAG_NONCE: u8 = 2;
const TAG_CODE: u8 = 3;
const TAG_STORAGE: u8 = 4;
const TAG_DEPLOY_COUNT: u8 = 5;
const TAG_APP_COUNT: u8 = 6;
const TAG_APP_PROGRAM: u8 = 7;
const TAG_APP_CREATOR: u8 = 8;
const TAG_APP_GLOBAL: u8 = 9;
const TAG_APP_BOX: u8 = 10;

/// Encodes a state key to its canonical byte form.
pub fn encode_key(key: &StateKey) -> Vec<u8> {
    match key {
        StateKey::Balance(a) => tagged(TAG_BALANCE, &a.0, &[]),
        StateKey::Nonce(a) => tagged(TAG_NONCE, &a.0, &[]),
        StateKey::Code(a) => tagged(TAG_CODE, &a.0, &[]),
        StateKey::Storage(a, slot) => tagged(TAG_STORAGE, &a.0, slot),
        StateKey::DeployCount => vec![TAG_DEPLOY_COUNT],
        StateKey::AppCount => vec![TAG_APP_COUNT],
        StateKey::AppProgram(id) => tagged(TAG_APP_PROGRAM, &id.to_be_bytes(), &[]),
        StateKey::AppCreator(id) => tagged(TAG_APP_CREATOR, &id.to_be_bytes(), &[]),
        StateKey::AppGlobal(id, k) => tagged(TAG_APP_GLOBAL, &id.to_be_bytes(), k),
        StateKey::AppBox(id, k) => tagged(TAG_APP_BOX, &id.to_be_bytes(), k),
    }
}

/// `tag ‖ head ‖ tail` in a buffer allocated once at its final length.
pub(crate) fn tagged(tag: u8, head: &[u8], tail: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + head.len() + tail.len());
    out.push(tag);
    out.extend_from_slice(head);
    out.extend_from_slice(tail);
    out
}

/// Strict inverse of [`encode_key`]; `None` on any framing violation.
pub(crate) fn decode_key(bytes: &[u8]) -> Option<StateKey> {
    let (&tag, rest) = bytes.split_first()?;
    let addr = |b: &[u8]| -> Option<Address> { Some(Address(b.try_into().ok()?)) };
    match tag {
        TAG_BALANCE => Some(StateKey::Balance(addr(rest)?)),
        TAG_NONCE => Some(StateKey::Nonce(addr(rest)?)),
        TAG_CODE => Some(StateKey::Code(addr(rest)?)),
        TAG_STORAGE if rest.len() == 52 => {
            Some(StateKey::Storage(addr(&rest[..20])?, rest[20..].try_into().ok()?))
        }
        TAG_DEPLOY_COUNT if rest.is_empty() => Some(StateKey::DeployCount),
        TAG_APP_COUNT if rest.is_empty() => Some(StateKey::AppCount),
        TAG_APP_PROGRAM if rest.len() == 8 => {
            Some(StateKey::AppProgram(u64::from_be_bytes(rest.try_into().ok()?)))
        }
        TAG_APP_CREATOR if rest.len() == 8 => {
            Some(StateKey::AppCreator(u64::from_be_bytes(rest.try_into().ok()?)))
        }
        TAG_APP_GLOBAL if rest.len() >= 8 => Some(StateKey::AppGlobal(
            u64::from_be_bytes(rest[..8].try_into().ok()?),
            rest[8..].to_vec(),
        )),
        TAG_APP_BOX if rest.len() >= 8 => Some(StateKey::AppBox(
            u64::from_be_bytes(rest[..8].try_into().ok()?),
            rest[8..].to_vec(),
        )),
        _ => None,
    }
}

/// Encodes a state value to its canonical byte form (the digest
/// encoding: tag byte + payload).
pub fn encode_value(value: &StateValue) -> Vec<u8> {
    value.digest_bytes()
}

/// Inverse of [`encode_value`] for the decodable variants; `None` for
/// malformed input *and* for opaque blobs (tag 5), which only encode by
/// content digest.
pub fn decode_value(bytes: &[u8]) -> Option<StateValue> {
    let (&tag, rest) = bytes.split_first()?;
    match tag {
        1 if rest.len() == 8 => Some(StateValue::U64(u64::from_be_bytes(rest.try_into().ok()?))),
        2 if rest.len() == 16 => Some(StateValue::U128(u128::from_be_bytes(rest.try_into().ok()?))),
        3 if rest.len() == 32 => Some(StateValue::Word(rest.try_into().ok()?)),
        4 => Some(StateValue::Bytes(rest.to_vec())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    fn sample_keys() -> Vec<StateKey> {
        vec![
            StateKey::Balance(addr(1)),
            StateKey::Nonce(addr(1)),
            StateKey::Code(addr(2)),
            StateKey::Storage(addr(2), [7u8; 32]),
            StateKey::DeployCount,
            StateKey::AppCount,
            StateKey::AppProgram(42),
            StateKey::AppCreator(42),
            StateKey::AppGlobal(42, b"counter".to_vec()),
            StateKey::AppGlobal(42, Vec::new()),
            StateKey::AppBox(42, b"box".to_vec()),
        ]
    }

    #[test]
    fn keys_round_trip_and_are_distinct() {
        let keys = sample_keys();
        let mut encodings = HashSet::new();
        for key in &keys {
            let bytes = encode_key(key);
            assert!(encodings.insert(bytes.clone()), "duplicate encoding for {key:?}");
            assert_eq!(decode_key(&bytes).as_ref(), Some(key));
        }
    }

    #[test]
    fn values_round_trip() {
        let values = vec![
            StateValue::U64(7),
            StateValue::U128(10u128.pow(30)),
            StateValue::Word([9u8; 32]),
            StateValue::Bytes(b"code".to_vec()),
            StateValue::Bytes(Vec::new()),
        ];
        for value in &values {
            let bytes = encode_value(value);
            assert_eq!(decode_value(&bytes).as_ref(), Some(value));
        }
    }

    #[test]
    fn malformed_inputs_decode_to_none() {
        assert_eq!(decode_key(&[]), None);
        assert_eq!(decode_key(&[TAG_BALANCE, 1, 2]), None, "short address");
        assert_eq!(decode_key(&[TAG_DEPLOY_COUNT, 0]), None, "trailing byte");
        assert_eq!(decode_key(&[99]), None, "unknown tag");
        assert_eq!(decode_value(&[]), None);
        assert_eq!(decode_value(&[1, 2]), None, "short u64");
        assert_eq!(decode_value(&[5, 1, 2, 3]), None, "blob digests are opaque");
    }
}
