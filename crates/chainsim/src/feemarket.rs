//! The EIP-1559 fee market.
//!
//! Each block carries a protocol-determined *base fee* (burned) that rises
//! when blocks run above their gas target and falls when below, by at most
//! 12.5 % per block — §1.4.1.3 of the paper. Users add a *priority fee*
//! to incentivise inclusion under congestion.

/// Maximum base-fee change per block: 1/8 = 12.5 %.
pub(crate) const BASE_FEE_MAX_CHANGE_DENOMINATOR: u128 = 8;
/// Base fee never drops below 7 wei (protocol floor).
pub const MIN_BASE_FEE: u128 = 7;

/// Computes the next block's base fee from the parent's fullness.
///
/// `gas_used` is the parent block's consumption and `gas_target` the
/// per-block target (half the limit on mainnet).
pub fn next_base_fee(current: u128, gas_used: u64, gas_target: u64) -> u128 {
    if gas_target == 0 {
        return current.max(MIN_BASE_FEE);
    }
    let used = u128::from(gas_used);
    let target = u128::from(gas_target);
    let next = if used > target {
        let delta = mul_div(current, used - target, target) / BASE_FEE_MAX_CHANGE_DENOMINATOR;
        current.saturating_add(delta.max(1))
    } else if used < target {
        let delta = mul_div(current, target - used, target) / BASE_FEE_MAX_CHANGE_DENOMINATOR;
        current.saturating_sub(delta)
    } else {
        current
    };
    next.max(MIN_BASE_FEE)
}

/// `a * b / d` without intermediate overflow: near `u128::MAX` the naive
/// product panics in debug builds and wraps in release, collapsing an
/// extreme base fee back to a tiny one. Splitting `a = q·d + r` gives
/// `a·b/d = q·b + r·b/d` exactly (the two floors agree); the remaining
/// products saturate, which can only understate an already-astronomical
/// delta — [`next_base_fee`] saturates the final add anyway.
fn mul_div(a: u128, b: u128, d: u128) -> u128 {
    match a.checked_mul(b) {
        Some(product) => product / d,
        None => {
            let (q, r) = (a / d, a % d);
            q.saturating_mul(b).saturating_add(r.saturating_mul(b) / d)
        }
    }
}

/// The effective per-gas price a transaction pays under EIP-1559:
/// `min(max_fee, base_fee + priority_fee)`, or `None` if the fee cap is
/// below the base fee (the transaction cannot be included).
pub(crate) fn effective_gas_price(
    base_fee: u128,
    max_fee: u128,
    priority_fee: u128,
) -> Option<u128> {
    if max_fee < base_fee {
        return None;
    }
    // Saturation is exact here: if `base_fee + priority_fee` overflows,
    // the true sum exceeds every representable `max_fee`, and the
    // saturated `u128::MAX` min's down to the same `max_fee`.
    Some(base_fee.saturating_add(priority_fee).min(max_fee))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_block_raises_by_12_5_percent() {
        let next = next_base_fee(1000, 30_000_000, 15_000_000);
        assert_eq!(next, 1125);
    }

    #[test]
    fn empty_block_lowers_by_12_5_percent() {
        let next = next_base_fee(1000, 0, 15_000_000);
        assert_eq!(next, 875);
    }

    #[test]
    fn on_target_is_stable() {
        assert_eq!(next_base_fee(1000, 15_000_000, 15_000_000), 1000);
    }

    #[test]
    fn floor_respected() {
        assert_eq!(next_base_fee(7, 0, 15_000_000), MIN_BASE_FEE);
    }

    #[test]
    fn effective_price_caps() {
        assert_eq!(effective_gas_price(100, 150, 10), Some(110));
        assert_eq!(effective_gas_price(100, 105, 10), Some(105));
        assert_eq!(effective_gas_price(100, 99, 10), None);
    }

    /// Regression: `current * (used - target)` used to overflow for
    /// extreme base fees — a panic in debug builds, a wrap to a tiny
    /// delta in release. The update must saturate instead.
    #[test]
    fn extreme_base_fee_saturates_instead_of_overflowing() {
        // Full block at the ceiling: the raise saturates at u128::MAX.
        assert_eq!(next_base_fee(u128::MAX, 30_000_000, 15_000_000), u128::MAX);
        // Near the ceiling the raise also saturates rather than wrapping
        // past zero (pre-fix release builds produced a *lower* fee here).
        assert_eq!(next_base_fee(u128::MAX - 1, 30_000_000, 15_000_000), u128::MAX);
        // An empty block steps an extreme fee *down* by exactly 1/8,
        // which the split-product path computes without overflow.
        assert_eq!(next_base_fee(u128::MAX, 0, 15_000_000), u128::MAX - u128::MAX / 8);
        // On-target stays put even at the ceiling.
        assert_eq!(next_base_fee(u128::MAX, 15_000_000, 15_000_000), u128::MAX);
    }

    /// Regression: `base_fee + priority_fee` used to overflow when an
    /// adversarial fee cap rode a huge tip. The sum saturates, which the
    /// `min(max_fee)` clamp makes exact.
    #[test]
    fn effective_price_with_extreme_caps_does_not_overflow() {
        assert_eq!(effective_gas_price(u128::MAX, u128::MAX, u128::MAX), Some(u128::MAX));
        assert_eq!(effective_gas_price(100, u128::MAX, u128::MAX), Some(u128::MAX));
        // Saturation is observably exact: the true sum exceeds max_fee,
        // so the cap binds either way.
        assert_eq!(effective_gas_price(u128::MAX - 5, u128::MAX, 10), Some(u128::MAX));
        assert_eq!(effective_gas_price(u128::MAX, u128::MAX - 1, 0), None);
    }

    #[test]
    fn mul_div_is_exact_when_the_product_fits() {
        assert_eq!(mul_div(1000, 15_000_000, 15_000_000), 1000);
        assert_eq!(mul_div(7, 3, 2), 10);
        // Overflowing product: q·b + r·b/d keeps the exact floor.
        let big = u128::MAX / 2;
        assert_eq!(mul_div(big, 4, 8), big / 2);
    }

    #[test]
    fn sustained_congestion_compounds() {
        // ~8 full blocks roughly double the base fee (1.125^8 ≈ 2.57).
        let mut fee = 1_000u128;
        for _ in 0..8 {
            fee = next_base_fee(fee, 30_000_000, 15_000_000);
        }
        assert!(fee > 2_000, "{fee}");
    }
}
