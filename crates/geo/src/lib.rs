//! Location encoding for the proof-of-location system.
//!
//! Two encodings are provided:
//!
//! * [`olc`] — Google's **Open Location Code** ("plus codes"), the location
//!   representation the paper adopts for privacy (a code names an *area*,
//!   not a point; the default 10-digit code covers ~10.5 m × 13.9 m), and
//! * [`rbit`] — the dual encoding of Zichichi et al. that maps an OLC onto
//!   the ID of the hypercube DHT node responsible for that area.
//!
//! # Examples
//!
//! ```
//! use pol_geo::{olc, rbit, Coordinates};
//!
//! let bologna = Coordinates::new(44.4949, 11.3426)?;
//! let code = olc::encode(bologna, 10)?;
//! let key = rbit::encode(&code, 6);
//! assert_eq!(key.dimensions(), 6);
//! # Ok::<(), pol_geo::GeoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod coords;
pub mod olc;
pub mod rbit;

pub use coords::Coordinates;
pub use olc::OlcCode;
pub use rbit::RBitKey;

/// Error raised by location encoding operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Latitude outside −90..=90 or longitude not a finite number.
    InvalidCoordinates {
        /// Offending latitude.
        latitude: f64,
        /// Offending longitude.
        longitude: f64,
    },
    /// Requested code length is unsupported.
    InvalidLength(usize),
    /// A string is not a valid Open Location Code.
    InvalidCode(String),
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::InvalidCoordinates { latitude, longitude } => {
                write!(f, "invalid coordinates ({latitude}, {longitude})")
            }
            GeoError::InvalidLength(n) => write!(f, "invalid code length {n}"),
            GeoError::InvalidCode(code) => write!(f, "invalid open location code {code:?}"),
        }
    }
}

impl std::error::Error for GeoError {}
