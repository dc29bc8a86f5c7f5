//! The verifiable data registry used for DID resolution.
//!
//! On the full architecture DID documents are anchored by a smart contract;
//! the registry here reproduces the interface (register once, resolve by
//! DID, registrations must be signed by the controller) with an in-memory
//! store shared by all actors.

use crate::did::Did;
use crate::document::DidDocument;
use crate::DidError;
use parking_lot::RwLock;
use pol_crypto::ed25519::Signature;
use std::collections::HashMap;

/// A shared DID → document registry.
#[derive(Debug, Default)]
pub struct DidRegistry {
    documents: RwLock<HashMap<Did, DidDocument>>,
}

impl DidRegistry {
    /// Creates an empty registry.
    pub fn new() -> DidRegistry {
        DidRegistry::default()
    }

    /// Registers a document. The registration must be signed by the key
    /// the DID is derived from, proving control.
    ///
    /// # Errors
    ///
    /// * [`DidError::KeyMismatch`] — document keys don't derive its DID;
    /// * [`DidError::BadSignature`] — the registration signature is wrong.
    pub(crate) fn register(
        &self,
        document: DidDocument,
        signature: &Signature,
    ) -> Result<(), DidError> {
        let pk = document.verification_public_key()?;
        if !pk.verify(&document.canonical_bytes(), signature) {
            return Err(DidError::BadSignature);
        }
        self.documents.write().insert(document.id.clone(), document);
        Ok(())
    }

    /// Convenience: build, sign and register the document for `keypair`.
    ///
    /// # Errors
    ///
    /// Propagates `DidRegistry::register` failures.
    pub fn register_identity(
        &self,
        identity: &crate::identity::Identity,
        created_ms: u64,
    ) -> Result<DidDocument, DidError> {
        let doc = identity.document(created_ms);
        let sig = identity.signing.sign(&doc.canonical_bytes());
        self.register(doc.clone(), &sig)?;
        Ok(doc)
    }

    /// Resolves a DID to its document (the *DID resolution* of §1.6).
    ///
    /// # Errors
    ///
    /// Returns [`DidError::NotRegistered`] for unknown DIDs.
    pub fn resolve(&self, did: &Did) -> Result<DidDocument, DidError> {
        self.documents
            .read()
            .get(did)
            .cloned()
            .ok_or_else(|| DidError::NotRegistered(did.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;

    #[test]
    fn register_and_resolve() {
        let registry = DidRegistry::new();
        let id = Identity::from_seed(1);
        let doc = registry.register_identity(&id, 42).unwrap();
        assert_eq!(registry.resolve(&id.did).unwrap(), doc);
    }

    #[test]
    fn unregistered_resolution_fails() {
        let registry = DidRegistry::new();
        let id = Identity::from_seed(2);
        assert!(matches!(registry.resolve(&id.did), Err(DidError::NotRegistered(_))));
    }

    #[test]
    fn forged_registration_rejected() {
        let registry = DidRegistry::new();
        let victim = Identity::from_seed(3);
        let attacker = Identity::from_seed(4);
        let doc = victim.document(0);
        // Attacker signs the victim's document with their own key.
        let sig = attacker.signing.sign(&doc.canonical_bytes());
        assert_eq!(registry.register(doc, &sig), Err(DidError::BadSignature));
        assert!(registry.resolve(&victim.did).is_err());
    }

    #[test]
    fn impersonating_document_rejected() {
        let registry = DidRegistry::new();
        let victim = Identity::from_seed(5);
        let attacker = Identity::from_seed(6);
        // Attacker claims the victim's DID with attacker keys.
        let mut doc = attacker.document(0);
        doc.id = victim.did.clone();
        let sig = attacker.signing.sign(&doc.canonical_bytes());
        assert_eq!(registry.register(doc, &sig), Err(DidError::KeyMismatch));
    }
}
