//! The gas schedule — the yellow-paper fee table the paper reproduces as
//! Fig. 1.4. Constant names follow the paper (`G_zero`, `G_verylow`, …).

/// Nothing paid for operations of the set W_zero.
pub(crate) const G_ZERO: u64 = 0;
/// Amount of gas to pay for a JUMPDEST operation.
pub(crate) const G_JUMPDEST: u64 = 1;
/// Amount of gas to pay for operations of the set W_base.
pub(crate) const G_BASE: u64 = 2;
/// Amount of gas to pay for operations of the set W_verylow.
pub const G_VERYLOW: u64 = 3;
/// Amount of gas to pay for operations of the set W_low.
pub(crate) const G_LOW: u64 = 5;
/// Amount of gas to pay for operations of the set W_mid.
pub(crate) const G_MID: u64 = 8;
/// Amount of gas to pay for operations of the set W_high.
pub(crate) const G_HIGH: u64 = 10;
/// Cost of a warm account or storage access.
pub const G_WARMACCESS: u64 = 100;
/// Cost of a cold account access.
pub const G_COLDACCOUNTACCESS: u64 = 2600;
/// Cost of a cold storage access.
pub const G_COLDSLOAD: u64 = 2100;
/// Paid for an SSTORE operation when the storage value is set to non-zero from zero.
pub const G_SSET: u64 = 20_000;
/// Paid for an SSTORE operation when the value's zeroness is unchanged or zeroed.
pub const G_SRESET: u64 = 2900;
/// Refund when a storage value is set to zero from non-zero.
pub(crate) const R_SCLEAR: u64 = 15_000;
/// Paid per byte for a CREATE operation to succeed in placing code into state.
pub const G_CODEDEPOSIT: u64 = 200;
/// Paid for a non-zero value transfer as part of the CALL operation.
pub const G_CALLVALUE: u64 = 9000;
/// Stipend subtracted from G_CALLVALUE for the called contract.
pub const G_CALLSTIPEND: u64 = 2300;
/// Paid for every additional word when expanding memory.
pub const G_MEMORY: u64 = 3;
/// Paid by all contract-creating transactions.
pub const G_TXCREATE: u64 = 32_000;
/// Paid for every zero byte of data or code for a transaction.
pub const G_TXDATAZERO: u64 = 4;
/// Paid for every non-zero byte of data or code for a transaction.
pub const G_TXDATANONZERO: u64 = 16;
/// Paid for every transaction.
pub const G_TRANSACTION: u64 = 21_000;
/// Partial payment for a LOG operation.
pub const G_LOG: u64 = 375;
/// Paid for each byte in a LOG operation's data.
pub const G_LOGDATA: u64 = 8;
/// Paid for each topic of a LOG operation.
pub const G_LOGTOPIC: u64 = 375;
/// Paid for each KECCAK256 operation.
pub const G_KECCAK256: u64 = 30;
/// Paid per word (rounded up) of KECCAK256 input.
pub const G_KECCAK256WORD: u64 = 6;
/// Partial payment for *COPY operations, per word copied.
pub const G_COPY: u64 = 3;
/// Partial payment for an EXP operation.
pub(crate) const G_EXP: u64 = 10;
/// Per-byte payment for an EXP operation's exponent.
pub(crate) const G_EXPBYTE: u64 = 50;

/// Intrinsic gas of a transaction: the 21 000 base plus per-byte calldata
/// costs, plus the creation surcharge for deploys.
pub fn intrinsic_gas(data: &[u8], is_create: bool) -> u64 {
    let mut gas = G_TRANSACTION;
    if is_create {
        gas += G_TXCREATE;
    }
    for &b in data {
        gas += if b == 0 { G_TXDATAZERO } else { G_TXDATANONZERO };
    }
    gas
}

/// Words (32-byte units) needed to hold `bytes`, rounded up.
pub fn words(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_matches_manual_sum() {
        let data = [0u8, 1, 0, 2];
        assert_eq!(intrinsic_gas(&data, false), 21_000 + 4 + 16 + 4 + 16);
        assert_eq!(intrinsic_gas(&data, true), 53_000 + 4 + 16 + 4 + 16);
        assert_eq!(intrinsic_gas(&[], false), 21_000);
    }

    #[test]
    fn word_rounding() {
        assert_eq!(words(0), 0);
        assert_eq!(words(1), 1);
        assert_eq!(words(32), 1);
        assert_eq!(words(33), 2);
    }
}
