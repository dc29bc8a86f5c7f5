//! The simulated short-range radio (Bluetooth) channel.
//!
//! The architecture is infrastructure-independent: physical proximity is
//! established by the radio itself — a witness only ever *hears* provers
//! within range, so a spoofed GPS position cannot put a distant prover
//! next to an honest witness (§2.2).

use crate::PolError;
use pol_geo::Coordinates;

/// Typical Bluetooth class-2 range, metres.
pub(crate) const DEFAULT_RANGE_M: f64 = 30.0;

/// A short-range radio channel between two positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RadioChannel {
    /// Radio range in metres.
    pub range_m: f64,
}

impl Default for RadioChannel {
    fn default() -> Self {
        RadioChannel { range_m: DEFAULT_RANGE_M }
    }
}

impl RadioChannel {
    /// Ensures two devices are mutually reachable.
    ///
    /// # Errors
    ///
    /// [`PolError::OutOfRange`] with the measured distance otherwise.
    pub(crate) fn require_in_range(
        &self,
        a: &Coordinates,
        b: &Coordinates,
    ) -> Result<(), PolError> {
        let distance_m = a.distance_m(b);
        if distance_m <= self.range_m {
            Ok(())
        } else {
            Err(PolError::OutOfRange { distance_m, range_m: self.range_m })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(lat: f64, lon: f64) -> Coordinates {
        Coordinates::new(lat, lon).unwrap()
    }

    #[test]
    fn nearby_in_range() {
        let radio = RadioChannel::default();
        let a = at(44.4949, 11.3426);
        let b = a.offset_m(10.0, 5.0).unwrap();
        assert!(radio.require_in_range(&a, &b).is_ok());
    }

    #[test]
    fn distant_out_of_range() {
        let radio = RadioChannel::default();
        let bologna = at(44.4949, 11.3426);
        let milan = at(45.4642, 9.19);
        let err = radio.require_in_range(&bologna, &milan).unwrap_err();
        assert!(matches!(err, PolError::OutOfRange { .. }));
    }
}
