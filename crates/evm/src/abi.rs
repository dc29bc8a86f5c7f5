//! The ABI's 4-byte function selectors.

use pol_crypto::keccak256;

/// Computes the 4-byte function selector `keccak256(signature)[..4]`.
///
/// # Examples
///
/// ```
/// let sel = pol_evm::abi::selector("insert_data(bytes,uint256)");
/// assert_eq!(sel.len(), 4);
/// ```
pub fn selector(signature: &str) -> [u8; 4] {
    let digest = keccak256(signature.as_bytes());
    [digest[0], digest[1], digest[2], digest[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_is_stable() {
        assert_eq!(selector("transfer(address,uint256)"), [0xa9, 0x05, 0x9c, 0xbb]);
    }
}
