//! WGS-84 coordinates and great-circle distances.

use crate::GeoError;

/// Mean Earth radius in metres, used by the haversine distance.
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A validated latitude/longitude pair.
///
/// # Examples
///
/// ```
/// use pol_geo::Coordinates;
///
/// let rome = Coordinates::new(41.9028, 12.4964)?;
/// assert!(rome.latitude() > 41.0);
/// # Ok::<(), pol_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coordinates {
    latitude: f64,
    longitude: f64,
}

impl Coordinates {
    /// Creates coordinates, normalising longitude into `[-180, 180)`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidCoordinates`] if latitude is outside
    /// `[-90, 90]` or either value is not finite.
    pub fn new(latitude: f64, longitude: f64) -> Result<Coordinates, GeoError> {
        if !latitude.is_finite() || !longitude.is_finite() || !(-90.0..=90.0).contains(&latitude) {
            return Err(GeoError::InvalidCoordinates { latitude, longitude });
        }
        let mut lon = longitude;
        while lon < -180.0 {
            lon += 360.0;
        }
        while lon >= 180.0 {
            lon -= 360.0;
        }
        Ok(Coordinates { latitude, longitude: lon })
    }

    /// The latitude in degrees.
    pub fn latitude(&self) -> f64 {
        self.latitude
    }

    /// The longitude in degrees, normalised into `[-180, 180)`.
    pub fn longitude(&self) -> f64 {
        self.longitude
    }

    /// Great-circle (haversine) distance to `other`, in metres.
    ///
    /// # Examples
    ///
    /// ```
    /// use pol_geo::Coordinates;
    ///
    /// let bologna = Coordinates::new(44.4949, 11.3426)?;
    /// let milan = Coordinates::new(45.4642, 9.1900)?;
    /// let d = bologna.distance_m(&milan);
    /// assert!((190_000.0..230_000.0).contains(&d));
    /// # Ok::<(), pol_geo::GeoError>(())
    /// ```
    pub fn distance_m(&self, other: &Coordinates) -> f64 {
        let phi1 = self.latitude.to_radians();
        let phi2 = other.latitude.to_radians();
        let dphi = (other.latitude - self.latitude).to_radians();
        let dlambda = (other.longitude - self.longitude).to_radians();
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Returns a point offset by roughly `north_m` metres north and
    /// `east_m` metres east — handy for placing simulated users around a
    /// spot.
    pub fn offset_m(&self, north_m: f64, east_m: f64) -> Result<Coordinates, GeoError> {
        let dlat = north_m / 111_320.0;
        let dlon = east_m / (111_320.0 * self.latitude.to_radians().cos().max(1e-9));
        Coordinates::new((self.latitude + dlat).clamp(-90.0, 90.0), self.longitude + dlon)
    }
}

impl std::fmt::Display for Coordinates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.latitude, self.longitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_latitude() {
        assert!(Coordinates::new(90.0001, 0.0).is_err());
        assert!(Coordinates::new(-91.0, 0.0).is_err());
        assert!(Coordinates::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn normalises_longitude() {
        let c = Coordinates::new(0.0, 190.0).unwrap();
        assert!((c.longitude() - (-170.0)).abs() < 1e-9);
        let c = Coordinates::new(0.0, -190.0).unwrap();
        assert!((c.longitude() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn distance_zero_to_self() {
        let c = Coordinates::new(44.0, 11.0).unwrap();
        assert!(c.distance_m(&c) < 1e-6);
    }

    #[test]
    fn equator_degree_is_about_111km() {
        let a = Coordinates::new(0.0, 0.0).unwrap();
        let b = Coordinates::new(0.0, 1.0).unwrap();
        let d = a.distance_m(&b);
        assert!((110_000.0..112_500.0).contains(&d), "{d}");
    }

    #[test]
    fn offset_roundtrip_scale() {
        let c = Coordinates::new(44.4949, 11.3426).unwrap();
        let moved = c.offset_m(100.0, 0.0).unwrap();
        let d = c.distance_m(&moved);
        assert!((95.0..105.0).contains(&d), "{d}");
    }
}
