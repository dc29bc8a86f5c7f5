//! Open Location Code ("plus code") encoding and decoding.
//!
//! Ported from the public-domain reference algorithm. A full code encodes a
//! rectangle on the Earth's surface; the number of digits controls the size
//! of the rectangle (10 digits ≈ 13.9 m, the default the paper uses).

use crate::{Coordinates, GeoError};

/// The 20-character OLC digit alphabet.
pub(crate) const ALPHABET: &[u8; 20] = b"23456789CFGHJMPQRVWX";
/// Separator placed after the eighth digit.
pub(crate) const SEPARATOR: char = '+';
/// Padding digit for short area codes (e.g. `6P000000+`).
pub(crate) const PADDING: char = '0';
/// Number of digits encoded as latitude/longitude pairs.
pub(crate) const PAIR_CODE_LENGTH: usize = 10;
/// Maximum number of digits in a code.
pub(crate) const MAX_DIGIT_COUNT: usize = 15;

const ENCODING_BASE: i64 = 20;
const GRID_COLUMNS: i64 = 4;
const GRID_ROWS: i64 = 5;
const GRID_CODE_LENGTH: usize = MAX_DIGIT_COUNT - PAIR_CODE_LENGTH;
/// Latitude is encoded to 1/8000/3125 of a degree in 15 digits.
const FINAL_LAT_PRECISION: i64 = 8000 * 3125;
/// Longitude is encoded to 1/8000/1024 of a degree in 15 digits.
const FINAL_LNG_PRECISION: i64 = 8000 * 1024;

/// A validated full Open Location Code.
///
/// # Examples
///
/// ```
/// use pol_geo::OlcCode;
///
/// let code: OlcCode = "8FPHF8WV+X2".parse()?;
/// assert_eq!(code.as_str(), "8FPHF8WV+X2");
/// # Ok::<(), pol_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OlcCode(String);

/// The rectangle of the Earth's surface described by a code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeArea {
    /// Southern latitude bound (degrees).
    pub south: f64,
    /// Western longitude bound (degrees).
    pub west: f64,
    /// Northern latitude bound (degrees).
    pub north: f64,
    /// Eastern longitude bound (degrees).
    pub east: f64,
    /// Number of significant digits in the code.
    pub digits: usize,
}

impl CodeArea {
    /// The centre of the area.
    pub fn center(&self) -> Coordinates {
        Coordinates::new(((self.south + self.north) / 2.0).min(90.0), (self.west + self.east) / 2.0)
            .expect("decoded area centre is always valid")
    }

    /// Whether a point lies within the area.
    pub fn contains(&self, point: &Coordinates) -> bool {
        point.latitude() >= self.south
            && point.latitude() < self.north
            && point.longitude() >= self.west
            && point.longitude() < self.east
    }
}

impl OlcCode {
    /// Returns the textual code, separator included.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The code with separator and padding stripped: the "significant"
    /// digits used by the r-bit hypercube key encoding.
    pub(crate) fn significant_digits(&self) -> String {
        self.0.chars().filter(|c| *c != SEPARATOR && *c != PADDING).collect()
    }

    /// Decodes the code into the area it describes.
    pub fn decode(&self) -> CodeArea {
        let digits: Vec<usize> = self
            .significant_digits()
            .bytes()
            .map(|b| ALPHABET.iter().position(|&a| a == b).expect("validated"))
            .collect();
        let mut south = -90.0f64;
        let mut west = -180.0f64;
        let mut lat_res = 400.0f64; // resolution *before* consuming a pair
        let mut lng_res = 400.0f64;
        let pair_digits = digits.len().min(PAIR_CODE_LENGTH);
        let mut i = 0;
        while i < pair_digits {
            lat_res /= ENCODING_BASE as f64;
            lng_res /= ENCODING_BASE as f64;
            south += lat_res * digits[i] as f64;
            if i + 1 < pair_digits {
                west += lng_res * digits[i + 1] as f64;
            }
            i += 2;
        }
        let mut idx = PAIR_CODE_LENGTH;
        while idx < digits.len() {
            let d = digits[idx] as i64;
            lat_res /= GRID_ROWS as f64;
            lng_res /= GRID_COLUMNS as f64;
            south += lat_res * (d / GRID_COLUMNS) as f64;
            west += lng_res * (d % GRID_COLUMNS) as f64;
            idx += 1;
        }
        CodeArea { south, west, north: south + lat_res, east: west + lng_res, digits: digits.len() }
    }

    /// The area's centre point, a convenience for `decode().center()`.
    pub fn center(&self) -> Coordinates {
        self.decode().center()
    }
}

impl std::fmt::Display for OlcCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for OlcCode {
    type Err = GeoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if !is_valid(s) || !is_full(s) {
            return Err(GeoError::InvalidCode(s.to_string()));
        }
        Ok(OlcCode(s.to_ascii_uppercase()))
    }
}

/// Encodes coordinates into a full code of `code_length` significant digits.
///
/// # Errors
///
/// Returns [`GeoError::InvalidLength`] for lengths below 2, odd lengths
/// below 10, or lengths above 15.
///
/// # Examples
///
/// ```
/// use pol_geo::{olc, Coordinates};
///
/// let c = Coordinates::new(47.365590, 8.524997)?;
/// assert_eq!(olc::encode(c, 10)?.as_str(), "8FVC9G8F+6X");
/// # Ok::<(), pol_geo::GeoError>(())
/// ```
pub fn encode(coords: Coordinates, code_length: usize) -> Result<OlcCode, GeoError> {
    if code_length < 2
        || (code_length < PAIR_CODE_LENGTH && code_length % 2 == 1)
        || code_length > MAX_DIGIT_COUNT
    {
        return Err(GeoError::InvalidLength(code_length));
    }
    let mut latitude = coords.latitude();
    let longitude = coords.longitude();
    if latitude >= 90.0 {
        latitude -= latitude_precision(code_length);
    }

    let mut lat_val: i64 = {
        let v = ((latitude + 90.0) * FINAL_LAT_PRECISION as f64).round() as i64;
        v.clamp(0, 180 * FINAL_LAT_PRECISION - 1)
    };
    let mut lng_val: i64 = {
        let v = ((longitude + 180.0) * FINAL_LNG_PRECISION as f64).round() as i64;
        v.clamp(0, 360 * FINAL_LNG_PRECISION - 1)
    };

    let mut digits = [0u8; MAX_DIGIT_COUNT];
    if code_length > PAIR_CODE_LENGTH {
        for i in 0..GRID_CODE_LENGTH {
            let lat_digit = lat_val % GRID_ROWS;
            let lng_digit = lng_val % GRID_COLUMNS;
            digits[MAX_DIGIT_COUNT - 1 - i] =
                ALPHABET[(lat_digit * GRID_COLUMNS + lng_digit) as usize];
            lat_val /= GRID_ROWS;
            lng_val /= GRID_COLUMNS;
        }
    } else {
        lat_val /= GRID_ROWS.pow(GRID_CODE_LENGTH as u32);
        lng_val /= GRID_COLUMNS.pow(GRID_CODE_LENGTH as u32);
    }
    for i in 0..(PAIR_CODE_LENGTH / 2) {
        digits[PAIR_CODE_LENGTH - 1 - 2 * i] = ALPHABET[(lng_val % ENCODING_BASE) as usize];
        digits[PAIR_CODE_LENGTH - 2 - 2 * i] = ALPHABET[(lat_val % ENCODING_BASE) as usize];
        lat_val /= ENCODING_BASE;
        lng_val /= ENCODING_BASE;
    }

    let significant: String = digits[..code_length.clamp(8, MAX_DIGIT_COUNT)]
        .iter()
        .take(code_length)
        .map(|&b| b as char)
        .collect();
    let mut out = String::new();
    if code_length >= 8 {
        out.push_str(&significant[..8]);
        out.push(SEPARATOR);
        out.push_str(&significant[8..]);
    } else {
        out.push_str(&significant);
        for _ in code_length..8 {
            out.push(PADDING);
        }
        out.push(SEPARATOR);
    }
    Ok(OlcCode(out))
}

/// The height in degrees of an area encoded with `code_length` digits.
pub(crate) fn latitude_precision(code_length: usize) -> f64 {
    if code_length <= PAIR_CODE_LENGTH {
        (ENCODING_BASE as f64).powi((code_length as i32) / -2 + 2)
    } else {
        (ENCODING_BASE as f64).powi(-3) / (GRID_ROWS as f64).powi(code_length as i32 - 10)
    }
}

/// Whether `code` is syntactically a valid Open Location Code (full or
/// short).
pub(crate) fn is_valid(code: &str) -> bool {
    let upper = code.to_ascii_uppercase();
    let sep_pos = match upper.find(SEPARATOR) {
        Some(p) => p,
        None => return false,
    };
    if upper.matches(SEPARATOR).count() > 1 || sep_pos > 8 || sep_pos % 2 == 1 {
        return false;
    }
    let chars: Vec<char> = upper.chars().collect();
    // Padding, if present, must be before the separator, in pairs, and the
    // separator must then terminate the code.
    if let Some(first_pad) = upper.find(PADDING) {
        if first_pad == 0 || first_pad > sep_pos {
            return false;
        }
        let pad_run: String = chars[first_pad..sep_pos].iter().collect();
        if pad_run.chars().any(|c| c != PADDING) || pad_run.len() % 2 == 1 {
            return false;
        }
        if sep_pos != upper.len() - 1 {
            return false;
        }
    }
    if upper.len() - sep_pos == 2 {
        return false; // a single digit after the separator is illegal
    }
    let digit_count = chars.iter().filter(|c| **c != SEPARATOR && **c != PADDING).count();
    if digit_count > MAX_DIGIT_COUNT {
        return false;
    }
    chars.iter().all(|&c| c == SEPARATOR || c == PADDING || ALPHABET.contains(&(c as u8)))
}

/// Whether `code` is a valid *full* (non-short) code.
pub fn is_full(code: &str) -> bool {
    if !is_valid(code) {
        return false;
    }
    let upper = code.to_ascii_uppercase();
    // A full code has the separator at index 8.
    upper.find(SEPARATOR) == Some(8) && {
        // First digit pair must decode within valid lat/lng ranges.
        let first = upper.as_bytes()[0];
        let idx = ALPHABET.iter().position(|&a| a == first);
        match idx {
            Some(i) => (i as i64) * ENCODING_BASE < 180,
            None => upper.as_bytes()[0] == PADDING as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(lat: f64, lon: f64) -> Coordinates {
        Coordinates::new(lat, lon).unwrap()
    }

    #[test]
    fn reference_encodings() {
        // Vectors from the open-location-code repository test data.
        assert_eq!(encode(c(20.375, 2.775), 6).unwrap().as_str(), "7FG49Q00+");
        assert_eq!(encode(c(20.3700625, 2.7821875), 10).unwrap().as_str(), "7FG49QCJ+2V");
        assert_eq!(encode(c(20.3701125, 2.782234375), 11).unwrap().as_str(), "7FG49QCJ+2VX");
        assert_eq!(encode(c(20.3701135, 2.78223535156), 13).unwrap().as_str(), "7FG49QCJ+2VXGJ");
        assert_eq!(encode(c(47.0000625, 8.0000625), 10).unwrap().as_str(), "8FVC2222+22");
        assert_eq!(encode(c(-41.2730625, 174.7859375), 10).unwrap().as_str(), "4VCPPQGP+Q9");
        assert_eq!(encode(c(0.5, -179.5), 4).unwrap().as_str(), "62G20000+");
        assert_eq!(encode(c(-89.5, -179.5), 4).unwrap().as_str(), "22220000+");
    }

    #[test]
    fn poles_and_antimeridian() {
        assert_eq!(encode(c(90.0, 1.0), 4).unwrap().as_str(), "CFX30000+");
        assert_eq!(encode(c(-90.0, -180.0), 2).unwrap().as_str(), "22000000+");
    }

    #[test]
    fn decode_inverts_encode_within_cell() {
        for &(lat, lon) in &[
            (44.4949, 11.3426),
            (-33.8688, 151.2093),
            (40.7128, -74.0060),
            (0.0, 0.0),
            (89.99999, 179.99999),
        ] {
            let code = encode(c(lat, lon), 10).unwrap();
            let area = code.decode();
            assert!(
                area.contains(&c(lat, lon)) || {
                    // boundary effects at the extreme north-east corner
                    lat > 89.9 || lon > 179.9
                },
                "{code} should contain ({lat}, {lon}): {area:?}"
            );
            assert_eq!(area.digits, 10);
        }
    }

    #[test]
    fn ten_digit_cell_is_about_14m_tall() {
        let code = encode(c(44.4949, 11.3426), 10).unwrap();
        let area = code.decode();
        let height_m = (area.north - area.south) * 111_320.0;
        assert!((12.0..16.0).contains(&height_m), "{height_m}");
    }

    #[test]
    fn validation() {
        assert!(is_valid("8FWC2345+G6"));
        assert!(is_valid("8FWC2345+G6G"));
        assert!(is_valid("8fwc2345+"));
        assert!(is_valid("8FWCX400+"));
        assert!(!is_valid("8FWC2345+G"));
        assert!(!is_valid("8FWC2_45+G6"));
        assert!(!is_valid("8FWC2η45+G6"));
        assert!(!is_valid("8FWC2345+G6+"));
        assert!(!is_valid("8FWC2300+G6"));
        assert!(!is_valid("WC2300+G6g"));
        assert!(!is_valid("WC2300+0"));
    }

    #[test]
    fn fullness() {
        assert!(is_full("8FWC2345+G6"));
        assert!(!is_full("WC2345+G6")); // short code
        assert!(!is_full("8FWC2345+G")); // invalid
    }

    #[test]
    fn parse_rejects_and_uppercases() {
        let code: OlcCode = "8fvc9g8f+6x".parse().unwrap();
        assert_eq!(code.as_str(), "8FVC9G8F+6X");
        assert!("not-a-code".parse::<OlcCode>().is_err());
        assert!("WC2345+G6".parse::<OlcCode>().is_err()); // short codes rejected
    }

    #[test]
    fn invalid_lengths_rejected() {
        let p = c(1.0, 1.0);
        assert!(encode(p, 0).is_err());
        assert!(encode(p, 1).is_err());
        assert!(encode(p, 3).is_err());
        assert!(encode(p, 9).is_err());
        assert!(encode(p, 16).is_err());
        assert!(encode(p, 10).is_ok());
        assert!(encode(p, 11).is_ok());
        assert!(encode(p, 15).is_ok());
    }

    #[test]
    fn significant_digits_strips_decoration() {
        let code: OlcCode = "7FG49Q00+".parse().unwrap();
        assert_eq!(code.significant_digits(), "7FG49Q");
    }

    #[test]
    fn precision_table() {
        assert!((latitude_precision(2) - 20.0).abs() < 1e-12);
        assert!((latitude_precision(4) - 1.0).abs() < 1e-12);
        assert!((latitude_precision(10) - 0.000125).abs() < 1e-12);
        assert!((latitude_precision(11) - 0.000025).abs() < 1e-12);
    }
}
