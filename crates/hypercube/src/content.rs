//! Content stored at hypercube nodes.

use serde::{Deserialize, Serialize};

/// The record a node keeps for one location area — the JSON document of
/// Fig. 2.9 in the paper: the contract deployed for the area, the area's
/// Open Location Code, and the CIDs of verified reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocationRecord {
    /// Identifier of the smart contract (or application) for this area.
    pub contract_id: String,
    /// The Open Location Code the contract was deployed for.
    pub olc: String,
    /// Content identifiers of verified reports, in insertion order.
    pub cids: Vec<String>,
}

impl LocationRecord {
    /// Creates a record with no verified reports yet.
    pub(crate) fn new(contract_id: impl Into<String>, olc: impl Into<String>) -> LocationRecord {
        LocationRecord { contract_id: contract_id.into(), olc: olc.into(), cids: Vec::new() }
    }

    /// Appends a verified report CID, ignoring exact duplicates.
    ///
    /// Returns `true` if the CID was newly added.
    pub(crate) fn push_cid(&mut self, cid: impl Into<String>) -> bool {
        let cid = cid.into();
        if self.cids.contains(&cid) {
            return false;
        }
        self.cids.push(cid);
        true
    }

    /// Renders the record as the JSON document the paper's node content
    /// shows (Fig. 2.9).
    pub fn to_json(&self) -> String {
        let cids: Vec<String> = self.cids.iter().map(|c| format!("\"{c}\"")).collect();
        format!(
            "{{\"contractID\":\"{}\",\"OLC\":\"{}\",\"CIDs\":[{}]}}",
            self.contract_id,
            self.olc,
            cids.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_cid_deduplicates() {
        let mut r = LocationRecord::new("app:1", "8FPH47Q3+HM");
        assert!(r.push_cid("bafy1"));
        assert!(!r.push_cid("bafy1"));
        assert!(r.push_cid("bafy2"));
        assert_eq!(r.cids, vec!["bafy1", "bafy2"]);
    }

    #[test]
    fn json_shape() {
        let mut r = LocationRecord::new("app:7", "8FPH47Q3+HM");
        r.push_cid("bafyA");
        assert_eq!(
            r.to_json(),
            "{\"contractID\":\"app:7\",\"OLC\":\"8FPH47Q3+HM\",\"CIDs\":[\"bafyA\"]}"
        );
    }
}
