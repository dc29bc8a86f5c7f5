//! Currency units and fiat conversion.
//!
//! Every chain accounts in integer *base units*: wei on the EVM chains
//! (10⁻¹⁸ of a coin) and microAlgos on Algorand (10⁻⁶). The paper's cost
//! tables convert fees to euro at the prices of 2022-11-17 (€1156/ETH,
//! €0.85/MATIC, €0.26/ALGO); the same constants are used here so the
//! regenerated tables are directly comparable.

/// Euro price of one ETH on 2022-11-17, per the paper.
pub(crate) const EUR_PER_ETH: f64 = 1156.0;
/// Euro price of one MATIC on 2022-11-17, per the paper.
pub(crate) const EUR_PER_MATIC: f64 = 0.85;
/// Euro price of one ALGO on 2022-11-17, per the paper.
pub(crate) const EUR_PER_ALGO: f64 = 0.26;

/// One gwei in wei.
pub const GWEI: u128 = 1_000_000_000;
/// One ether (or MATIC) in wei.
pub(crate) const WEI_PER_COIN: u128 = 1_000_000_000_000_000_000;
/// One Algo in microAlgos.
pub(crate) const MICROALGO_PER_ALGO: u128 = 1_000_000;

/// The native currency of a simulated chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Currency {
    /// Ether (Ropsten/Goerli testnets).
    Eth,
    /// MATIC (Polygon Mumbai).
    Matic,
    /// ALGO (Algorand testnet).
    Algo,
}

impl Currency {
    /// Base units per whole coin.
    pub(crate) fn base_units_per_coin(&self) -> u128 {
        match self {
            Currency::Eth | Currency::Matic => WEI_PER_COIN,
            Currency::Algo => MICROALGO_PER_ALGO,
        }
    }

    /// Ticker symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            Currency::Eth => "ETH",
            Currency::Matic => "MATIC",
            Currency::Algo => "ALGO",
        }
    }

    /// Euro price of one coin at the paper's evaluation date.
    pub fn eur_price(&self) -> f64 {
        match self {
            Currency::Eth => EUR_PER_ETH,
            Currency::Matic => EUR_PER_MATIC,
            Currency::Algo => EUR_PER_ALGO,
        }
    }
}

impl std::fmt::Display for Currency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An amount of a chain's native currency in base units.
///
/// # Examples
///
/// ```
/// use pol_ledger::{Amount, Currency};
///
/// let fee = Amount::from_base_units(60_000_000_000_000_000, Currency::Eth);
/// assert!((fee.as_eur() - 69.36).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Amount {
    base_units: u128,
    currency: Currency,
}

impl Amount {
    /// Zero in the given currency.
    pub fn zero(currency: Currency) -> Amount {
        Amount { base_units: 0, currency }
    }

    /// Builds an amount from raw base units (wei / µAlgo).
    pub fn from_base_units(base_units: u128, currency: Currency) -> Amount {
        Amount { base_units, currency }
    }

    /// The raw base-unit count.
    pub fn base_units(&self) -> u128 {
        self.base_units
    }

    /// The currency.
    pub fn currency(&self) -> Currency {
        self.currency
    }

    /// The amount as fractional coins.
    pub fn as_coins(&self) -> f64 {
        self.base_units as f64 / self.currency.base_units_per_coin() as f64
    }

    /// The amount in euro at the evaluation-date price.
    pub fn as_eur(&self) -> f64 {
        self.as_coins() * self.currency.eur_price()
    }

    /// Checked addition; `None` if currencies differ or on overflow.
    pub fn checked_add(&self, other: &Amount) -> Option<Amount> {
        if self.currency != other.currency {
            return None;
        }
        Some(Amount {
            base_units: self.base_units.checked_add(other.base_units)?,
            currency: self.currency,
        })
    }
}

impl std::fmt::Display for Amount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.as_coins(), self.currency.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gwei_conversion() {
        let a = Amount::from_base_units(21_000 * 12 * GWEI, Currency::Eth);
        assert!((a.as_coins() - 0.000252).abs() < 1e-12);
    }

    #[test]
    fn paper_price_constants() {
        assert_eq!(Currency::Eth.eur_price(), 1156.0);
        assert_eq!(Currency::Algo.eur_price(), 0.26);
        assert_eq!(Currency::Matic.eur_price(), 0.85);
    }

    #[test]
    fn checked_add_mixed_currencies() {
        let a = Amount::from_base_units(10u128.pow(18), Currency::Eth);
        let b = Amount::from_base_units(1_000_000, Currency::Algo);
        assert!(a.checked_add(&b).is_none());
        let c = a.checked_add(&a).unwrap();
        assert_eq!(c.as_coins(), 2.0);
    }
}
