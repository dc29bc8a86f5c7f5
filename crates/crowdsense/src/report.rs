//! Environmental issue reports.

use serde::{Deserialize, Serialize};

/// The kind of situation being reported (§3.1: "a hole in the road,
/// contaminated ground, waste on the street, a crowded place…").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportCategory {
    /// Water/ground/air contamination.
    Pollution,
    /// Illegally abandoned waste.
    Waste,
    /// Damaged road infrastructure.
    RoadDamage,
    /// Vandalised public property.
    Vandalism,
    /// Dangerous crowding.
    Crowding,
    /// Anything else.
    Other,
}

impl std::fmt::Display for ReportCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReportCategory::Pollution => "pollution",
            ReportCategory::Waste => "waste",
            ReportCategory::RoadDamage => "road-damage",
            ReportCategory::Vandalism => "vandalism",
            ReportCategory::Crowding => "crowding",
            ReportCategory::Other => "other",
        };
        f.write_str(s)
    }
}

/// A report as uploaded to the DFS (title, description and an optional
/// photo, §3.1.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Short title.
    pub title: String,
    /// Free-form description.
    pub description: String,
    /// Category.
    pub category: ReportCategory,
    /// Optional photo bytes.
    pub photo: Option<Vec<u8>>,
}

impl Report {
    /// Creates a report without a photo.
    pub fn new(
        title: impl Into<String>,
        description: impl Into<String>,
        category: ReportCategory,
    ) -> Report {
        Report { title: title.into(), description: description.into(), category, photo: None }
    }

    /// Serializes for DFS storage (length-prefixed fields; stable across
    /// versions).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_field = |out: &mut Vec<u8>, bytes: &[u8]| {
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        };
        push_field(&mut out, self.title.as_bytes());
        push_field(&mut out, self.description.as_bytes());
        push_field(&mut out, self.category.to_string().as_bytes());
        match &self.photo {
            Some(photo) => push_field(&mut out, photo),
            None => push_field(&mut out, &[]),
        }
        out
    }

    /// Parses the DFS form.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on malformed data.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Report, String> {
        let mut cursor = 0usize;
        let mut next = || -> Result<Vec<u8>, String> {
            if cursor + 4 > bytes.len() {
                return Err("truncated report".into());
            }
            let mut len_bytes = [0u8; 4];
            len_bytes.copy_from_slice(&bytes[cursor..cursor + 4]);
            let len = u32::from_be_bytes(len_bytes) as usize;
            cursor += 4;
            if cursor + len > bytes.len() {
                return Err("truncated report field".into());
            }
            let field = bytes[cursor..cursor + len].to_vec();
            cursor += len;
            Ok(field)
        };
        let title = String::from_utf8(next()?).map_err(|e| e.to_string())?;
        let description = String::from_utf8(next()?).map_err(|e| e.to_string())?;
        let category = match String::from_utf8(next()?).map_err(|e| e.to_string())?.as_str() {
            "pollution" => ReportCategory::Pollution,
            "waste" => ReportCategory::Waste,
            "road-damage" => ReportCategory::RoadDamage,
            "vandalism" => ReportCategory::Vandalism,
            "crowding" => ReportCategory::Crowding,
            "other" => ReportCategory::Other,
            other => return Err(format!("unknown category {other:?}")),
        };
        let photo_bytes = next()?;
        let photo = if photo_bytes.is_empty() { None } else { Some(photo_bytes) };
        Ok(Report { title, description, category, photo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut report =
            Report::new("Oily river", "slick near the bridge", ReportCategory::Pollution);
        report.photo = Some(vec![1, 2, 3]);
        let parsed = Report::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn round_trip_without_photo() {
        let report = Report::new("Waste", "tires dumped", ReportCategory::Waste);
        assert_eq!(Report::from_bytes(&report.to_bytes()).unwrap(), report);
    }

    #[test]
    fn truncated_rejected() {
        assert!(Report::from_bytes(&[0, 0, 0, 9, 1]).is_err());
        assert!(Report::from_bytes(&[]).is_err());
    }
}
