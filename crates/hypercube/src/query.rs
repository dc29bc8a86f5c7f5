//! Keyword-set queries over the hypercube (after Joung et al.).
//!
//! Beyond single-key lookups, the hypercube supports *complex queries*: a
//! query bit-vector `q` matches every node whose ID is a superset of `q`'s
//! bits. **Pin search** locates the unique "pin" node (the match with the
//! fewest extra bits — `q` itself), while **superset search** walks the
//! spanning binomial tree rooted at the pin to enumerate all matching
//! nodes, the operation the paper's DApp uses to gather reports over a
//! region of nearby areas.

use crate::content::LocationRecord;
use crate::network::Hypercube;
use pol_geo::RBitKey;

/// Result of a superset search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Node keys visited, in traversal order.
    pub visited: Vec<RBitKey>,
    /// Messages exchanged (tree edges traversed).
    pub messages: u64,
    /// Records found on the visited nodes.
    pub records: Vec<LocationRecord>,
}

/// Enumerates all node IDs that are bit-supersets of `query`, visiting each
/// exactly once via the spanning binomial tree rooted at `query` itself.
///
/// The tree rule: from node `n`, recurse into `n | (1 << d)` for every
/// dimension `d` strictly above the highest bit in which `n` differs from
/// `query` — this partitions the superset lattice so no node is visited
/// twice.
pub(crate) fn superset_keys(query: RBitKey) -> Vec<RBitKey> {
    let r = query.dimensions();
    let mut out = Vec::new();
    // (node bits, minimum dimension allowed to be added next)
    let mut stack = vec![(query.bits(), 0u8)];
    while let Some((bits, min_dim)) = stack.pop() {
        out.push(RBitKey::from_bits(bits, r));
        for d in min_dim..r {
            if (bits >> d) & 1 == 0 {
                stack.push((bits | (1 << d), d + 1));
            }
        }
    }
    out
}

/// Runs a superset search on `dht`, gathering the records stored on every
/// matching node. `limit` bounds the number of nodes visited (the paper's
/// "maximum number of hops permitted" for complex queries).
pub fn superset_search(dht: &Hypercube, query: RBitKey, limit: usize) -> QueryResult {
    let keys = superset_keys(query);
    let mut visited = Vec::new();
    let mut records = Vec::new();
    let mut messages = 0u64;
    for key in keys.into_iter().take(limit) {
        messages += 1;
        if !dht.is_online(key) {
            continue;
        }
        visited.push(key);
        records.extend(dht.records_at(key));
    }
    QueryResult { visited, messages, records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_geo::{olc, Coordinates, OlcCode};

    #[test]
    fn superset_count_is_power_of_two() {
        // A query with k zero bits has 2^k supersets.
        let q = RBitKey::from_bits(0b1010, 4);
        let keys = superset_keys(q);
        assert_eq!(keys.len(), 4); // two zero bits -> 4 supersets
        for k in &keys {
            assert_eq!(k.bits() & q.bits(), q.bits(), "{k} must contain query bits");
        }
    }

    #[test]
    fn supersets_are_unique() {
        let q = RBitKey::from_bits(0b0001, 6);
        let keys = superset_keys(q);
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(keys.len(), dedup.len());
        assert_eq!(keys.len(), 1 << 5);
    }

    #[test]
    fn full_query_only_matches_itself() {
        let q = RBitKey::from_bits(0b1111, 4);
        assert_eq!(superset_keys(q), vec![q]);
    }

    #[test]
    fn search_collects_records() {
        let dht = Hypercube::new(6);
        let code: OlcCode = olc::encode(Coordinates::new(44.4949, 11.3426).unwrap(), 10).unwrap();
        dht.register_contract(&code, "app:5").unwrap();
        // Query with zero bits matches every node, so it must find the record.
        let q = RBitKey::from_bits(0, 6);
        let res = superset_search(&dht, q, 1 << 6);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].contract_id, "app:5");
        assert_eq!(res.messages, 64);
    }

    #[test]
    fn limit_caps_messages() {
        let dht = Hypercube::new(6);
        let q = RBitKey::from_bits(0, 6);
        let res = superset_search(&dht, q, 10);
        assert_eq!(res.messages, 10);
        assert!(res.visited.len() <= 10);
    }

    #[test]
    fn offline_nodes_skipped() {
        let dht = Hypercube::new(4);
        let dead = RBitKey::from_bits(0b0011, 4);
        dht.fail_node(dead);
        let res = superset_search(&dht, RBitKey::from_bits(0b0011, 4), 16);
        assert!(!res.visited.contains(&dead));
    }
}
