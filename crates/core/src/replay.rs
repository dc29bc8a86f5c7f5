//! Replay protection: witness-issued nonces are single-use.
//!
//! §2.3.1.1: the nonce inside a proof request is generated *by the
//! witness* and echoed back by the prover, so an outdated proof request
//! cannot be rebroadcast to the same witness (the attack of Saroiu et
//! al. the paper cites).

use crate::PolError;
use std::collections::HashSet;

/// Per-witness nonce issuance: a nonce is valid while outstanding, and
/// consuming it removes it.
#[derive(Debug, Default)]
pub(crate) struct NonceRegistry {
    next: u64,
    outstanding: HashSet<u64>,
}

impl NonceRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> NonceRegistry {
        NonceRegistry::default()
    }

    /// Issues a fresh nonce to a requesting prover.
    pub(crate) fn issue(&mut self) -> u64 {
        let nonce = self.next;
        self.next += 1;
        self.outstanding.insert(nonce);
        nonce
    }

    /// Consumes a nonce when the witness signs a proof carrying it.
    ///
    /// # Errors
    ///
    /// [`PolError::ReplayDetected`] if the nonce was never issued or was
    /// already used.
    pub(crate) fn consume(&mut self, nonce: u64) -> Result<(), PolError> {
        if self.outstanding.remove(&nonce) {
            Ok(())
        } else {
            Err(PolError::ReplayDetected(nonce))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_use() {
        let mut reg = NonceRegistry::new();
        let n = reg.issue();
        assert!(reg.consume(n).is_ok());
        assert!(matches!(reg.consume(n), Err(PolError::ReplayDetected(_))));
    }

    #[test]
    fn unissued_rejected() {
        let mut reg = NonceRegistry::new();
        assert!(matches!(reg.consume(99), Err(PolError::ReplayDetected(99))));
    }

    #[test]
    fn nonces_are_unique() {
        let mut reg = NonceRegistry::new();
        let a = reg.issue();
        let b = reg.issue();
        assert_ne!(a, b);
        assert!(reg.consume(a).is_ok());
        assert!(reg.consume(b).is_ok());
    }
}
