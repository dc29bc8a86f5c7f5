//! The in-memory hypercube network: 2^r logical nodes with content storage,
//! routing statistics and churn.

use crate::content::LocationRecord;
use crate::routing::{self, Route, RoutingError};
use parking_lot::RwLock;
use pol_geo::{rbit, OlcCode, RBitKey};
use pol_net::transport::{DirectTransport, Transport, TransportError};
use pol_net::NodeId;
use std::collections::HashMap;

/// Number of fixed hop-count buckets in [`NetworkStats`]: hop counts
/// `0..=31` each get a bucket, anything larger lands in the last one
/// (greedy routing never exceeds `r ≤ 20` hops while all nodes are
/// online, so the clamp bucket only fills under heavy detouring).
pub const HOP_BUCKETS: usize = 33;

/// Aggregate statistics over all lookups performed on the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total lookups routed.
    pub lookups: u64,
    /// Total hops across all lookups.
    pub total_hops: u64,
    /// Worst single-lookup hop count observed.
    pub max_hops: u32,
    /// Fixed-bucket histogram of per-lookup hop counts: bucket `h` counts
    /// lookups that took exactly `h` hops (last bucket clamps).
    pub hop_histogram: [u64; HOP_BUCKETS],
}

impl Default for NetworkStats {
    fn default() -> NetworkStats {
        NetworkStats { lookups: 0, total_hops: 0, max_hops: 0, hop_histogram: [0; HOP_BUCKETS] }
    }
}

impl NetworkStats {
    /// Average hops per lookup.
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.lookups as f64
        }
    }

    fn record(&mut self, hops: u32) {
        self.lookups += 1;
        self.total_hops += u64::from(hops);
        self.max_hops = self.max_hops.max(hops);
        self.hop_histogram[(hops as usize).min(HOP_BUCKETS - 1)] += 1;
    }

    /// The hop count at quantile `q` (`0 < q ≤ 1`), from the histogram.
    /// Returns 0 when no lookups were recorded.
    pub(crate) fn quantile_hops(&self, q: f64) -> u32 {
        if self.lookups == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.lookups as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (hops, &n) in self.hop_histogram.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return hops as u32;
            }
        }
        self.max_hops
    }

    /// Median hop count.
    pub fn p50_hops(&self) -> u32 {
        self.quantile_hops(0.50)
    }

    /// 99th-percentile hop count.
    pub fn p99_hops(&self) -> u32 {
        self.quantile_hops(0.99)
    }
}

struct NodeState {
    online: bool,
    records: HashMap<String, LocationRecord>,
}

/// An r-dimensional hypercube DHT.
///
/// The structure is shared-friendly: all operations take `&self`, so an
/// `Arc<Hypercube>` can be handed to every actor in a simulation.
pub struct Hypercube {
    r: u8,
    nodes: Vec<RwLock<NodeState>>,
    stats: RwLock<NetworkStats>,
    /// Hop budget for lookups: `4·r`, room for detours around offline
    /// nodes (`r` hops suffice when every node is online).
    max_hops: u32,
}

impl std::fmt::Debug for Hypercube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hypercube").field("r", &self.r).field("nodes", &self.nodes.len()).finish()
    }
}

impl Hypercube {
    /// Creates a hypercube with `2^r` online nodes.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero or greater than 20 (over a million nodes is
    /// beyond any sensible simulation).
    pub fn new(r: u8) -> Hypercube {
        assert!((1..=20).contains(&r), "r must be in 1..=20");
        let nodes = (0..(1usize << r))
            .map(|_| RwLock::new(NodeState { online: true, records: HashMap::new() }))
            .collect();
        Hypercube {
            r,
            nodes,
            stats: RwLock::new(NetworkStats::default()),
            max_hops: u32::from(r) * 4,
        }
    }

    /// The dimensionality `r`.
    pub fn dimensions(&self) -> u8 {
        self.r
    }

    /// The key (node ID) responsible for an Open Location Code.
    pub fn key_for(&self, code: &OlcCode) -> RBitKey {
        rbit::encode(code, self.r)
    }

    /// Routes a lookup for `code` from node 0, recording statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingError`] from the underlying greedy router.
    pub fn lookup(&self, code: &OlcCode) -> Result<Route, RoutingError> {
        self.route(&DirectTransport, code)
    }

    /// Routes `code` from node 0 to the node responsible for it, charging
    /// every hop to `transport` as one exchange and recording statistics
    /// on success. Lookups and stores take the same path.
    ///
    /// # Errors
    ///
    /// Propagates [`RoutingError`] from the greedy router, and returns
    /// [`RoutingError::Timeout`] when the transport exhausts its retries
    /// on any hop of the route.
    fn route(&self, transport: &dyn Transport, code: &OlcCode) -> Result<Route, RoutingError> {
        let source = RBitKey::from_bits(0, self.r);
        let target = self.key_for(code);
        let route = routing::route(source, target, self.max_hops, |k| self.is_online(k))?;
        for pair in route.path.windows(2) {
            transport.deliver(NodeId(pair[0].index()), NodeId(pair[1].index())).map_err(
                |TransportError::Timeout { to, attempts, .. }| RoutingError::Timeout {
                    node: to.0,
                    attempts,
                },
            )?;
        }
        self.stats.write().record(route.hops());
        Ok(route)
    }

    /// Looks up the contract registered for an area, if any.
    ///
    /// # Errors
    ///
    /// Propagates routing failures (offline nodes, hop budget).
    pub fn find_contract(&self, code: &OlcCode) -> Result<Option<String>, RoutingError> {
        self.find_contract_via(&DirectTransport, code)
    }

    /// [`Hypercube::find_contract`] with every hop charged to `transport`.
    ///
    /// # Errors
    ///
    /// Propagates routing failures, including transport timeouts.
    pub fn find_contract_via(
        &self,
        transport: &dyn Transport,
        code: &OlcCode,
    ) -> Result<Option<String>, RoutingError> {
        let route = self.route(transport, code)?;
        let node = &self.nodes[route.target().index() as usize];
        Ok(node.read().records.get(code.as_str()).map(|r| r.contract_id.clone()))
    }

    /// Registers the contract deployed for an area. Returns `false` (and
    /// leaves the existing record in place) if one was already registered —
    /// first writer wins, as in the paper's deploy-then-insert flow.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn register_contract(
        &self,
        code: &OlcCode,
        contract_id: impl Into<String>,
    ) -> Result<bool, RoutingError> {
        let route = self.route(&DirectTransport, code)?;
        let node = &self.nodes[route.target().index() as usize];
        let mut state = node.write();
        if state.records.contains_key(code.as_str()) {
            return Ok(false);
        }
        state
            .records
            .insert(code.as_str().to_string(), LocationRecord::new(contract_id, code.as_str()));
        Ok(true)
    }

    /// Appends a verified report CID to an area's record ("garbage-in" —
    /// callers are expected to be verifiers).
    ///
    /// Returns `false` if no contract is registered for the area or the CID
    /// was already present.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn append_cid(&self, code: &OlcCode, cid: impl Into<String>) -> Result<bool, RoutingError> {
        let route = self.route(&DirectTransport, code)?;
        let node = &self.nodes[route.target().index() as usize];
        let mut state = node.write();
        match state.records.get_mut(code.as_str()) {
            Some(rec) => Ok(rec.push_cid(cid)),
            None => Ok(false),
        }
    }

    /// Returns a copy of the record for an area, if present.
    ///
    /// # Errors
    ///
    /// Propagates routing failures.
    pub fn record(&self, code: &OlcCode) -> Result<Option<LocationRecord>, RoutingError> {
        let route = self.route(&DirectTransport, code)?;
        let node = &self.nodes[route.target().index() as usize];
        Ok(node.read().records.get(code.as_str()).cloned())
    }

    /// Takes a node offline (simulated churn). Content is retained and
    /// becomes reachable again after [`Hypercube::rejoin`].
    pub fn fail_node(&self, key: RBitKey) {
        self.nodes[key.index() as usize].write().online = false;
    }

    /// Brings a node back online.
    pub fn rejoin(&self, key: RBitKey) {
        self.nodes[key.index() as usize].write().online = true;
    }

    /// Whether a node is online.
    pub(crate) fn is_online(&self, key: RBitKey) -> bool {
        self.nodes[key.index() as usize].read().online
    }

    /// Snapshot of routing statistics.
    pub fn stats(&self) -> NetworkStats {
        self.stats.read().clone()
    }

    /// Total number of records stored across all nodes.
    pub fn record_count(&self) -> usize {
        self.nodes.iter().map(|n| n.read().records.len()).sum()
    }

    /// Records stored at one node (cloned), for complex queries.
    pub(crate) fn records_at(&self, key: RBitKey) -> Vec<LocationRecord> {
        self.nodes[key.index() as usize].read().records.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_geo::{olc, Coordinates};

    fn code(lat: f64, lon: f64) -> OlcCode {
        olc::encode(Coordinates::new(lat, lon).unwrap(), 10).unwrap()
    }

    #[test]
    fn register_then_find() {
        let dht = Hypercube::new(6);
        let c = code(44.4949, 11.3426);
        assert_eq!(dht.find_contract(&c).unwrap(), None);
        assert!(dht.register_contract(&c, "evm:0xabc").unwrap());
        assert_eq!(dht.find_contract(&c).unwrap().as_deref(), Some("evm:0xabc"));
    }

    #[test]
    fn first_registration_wins() {
        let dht = Hypercube::new(6);
        let c = code(44.4949, 11.3426);
        assert!(dht.register_contract(&c, "app:1").unwrap());
        assert!(!dht.register_contract(&c, "app:2").unwrap());
        assert_eq!(dht.find_contract(&c).unwrap().as_deref(), Some("app:1"));
    }

    #[test]
    fn append_cid_requires_registration() {
        let dht = Hypercube::new(6);
        let c = code(41.9, 12.5);
        assert!(!dht.append_cid(&c, "bafy1").unwrap());
        dht.register_contract(&c, "app:3").unwrap();
        assert!(dht.append_cid(&c, "bafy1").unwrap());
        assert!(!dht.append_cid(&c, "bafy1").unwrap());
        assert_eq!(dht.record(&c).unwrap().unwrap().cids, vec!["bafy1"]);
    }

    #[test]
    fn stats_accumulate_and_bound() {
        let dht = Hypercube::new(8);
        for i in 0..20 {
            let c = code(40.0 + f64::from(i) * 0.3, 9.0 + f64::from(i) * 0.17);
            let _ = dht.lookup(&c).unwrap();
        }
        let stats = dht.stats();
        assert_eq!(stats.lookups, 20);
        assert!(stats.max_hops <= 8);
        assert!(stats.mean_hops() <= 8.0);
    }

    #[test]
    fn churn_blocks_then_recovers() {
        let dht = Hypercube::new(5);
        let c = code(44.4949, 11.3426);
        dht.register_contract(&c, "app:9").unwrap();
        let key = dht.key_for(&c);
        dht.fail_node(key);
        assert!(matches!(dht.find_contract(&c), Err(RoutingError::NodeOffline(_))));
        dht.rejoin(key);
        assert_eq!(dht.find_contract(&c).unwrap().as_deref(), Some("app:9"));
    }

    #[test]
    fn distinct_areas_distinct_records() {
        let dht = Hypercube::new(10);
        let a = code(44.4949, 11.3426);
        let b = code(45.4642, 9.1900);
        dht.register_contract(&a, "app:1").unwrap();
        dht.register_contract(&b, "app:2").unwrap();
        assert_eq!(dht.record_count(), 2);
        assert_eq!(dht.find_contract(&a).unwrap().as_deref(), Some("app:1"));
        assert_eq!(dht.find_contract(&b).unwrap().as_deref(), Some("app:2"));
    }

    #[test]
    #[should_panic(expected = "r must be")]
    fn rejects_zero_dimensions() {
        let _ = Hypercube::new(0);
    }

    #[test]
    fn ungraceful_failure_still_blocks() {
        let dht = Hypercube::new(5);
        let c = code(44.4949, 11.3426);
        dht.register_contract(&c, "app:3").unwrap();
        let key = dht.key_for(&c);
        dht.fail_node(key); // crash, no handover
        assert!(dht.find_contract(&c).is_err());
    }

    #[test]
    fn hop_histogram_tracks_quantiles() {
        let dht = Hypercube::new(8);
        for i in 0..40 {
            let c = code(35.0 + f64::from(i) * 0.41, -3.0 + f64::from(i) * 0.73);
            let _ = dht.lookup(&c).unwrap();
        }
        let stats = dht.stats();
        assert_eq!(stats.hop_histogram.iter().sum::<u64>(), stats.lookups);
        assert!(stats.p50_hops() <= stats.p99_hops());
        assert!(stats.p99_hops() <= stats.max_hops);
        assert!(u64::from(stats.p50_hops()) <= stats.total_hops);
    }

    #[test]
    fn quantiles_on_empty_stats_are_zero() {
        let stats = NetworkStats::default();
        assert_eq!(stats.p50_hops(), 0);
        assert_eq!(stats.p99_hops(), 0);
    }

    #[test]
    fn lossy_transport_surfaces_typed_timeout() {
        use pol_net::transport::{SimTransport, MAX_ATTEMPTS};

        let dht = Hypercube::new(6);
        let c = code(44.4949, 11.3426);
        dht.register_contract(&c, "app:1").unwrap();
        let transport = SimTransport::new(11, 1.0);
        match dht.find_contract_via(&transport, &c) {
            Err(RoutingError::Timeout { attempts, .. }) => assert_eq!(attempts, MAX_ATTEMPTS),
            other => panic!("expected a transport timeout, got {other:?}"),
        }
        // The same lookup through the default transport still succeeds:
        // the DHT itself is healthy, only the faulty network was in the way.
        assert_eq!(dht.find_contract(&c).unwrap().as_deref(), Some("app:1"));
    }

    #[test]
    fn reliable_sim_transport_matches_direct_results() {
        use pol_net::transport::SimTransport;

        let direct = Hypercube::new(6);
        let simulated = Hypercube::new(6);
        let transport = SimTransport::new(5, 0.0);
        for i in 0..10 {
            let c = code(40.0 + f64::from(i) * 0.29, 9.0 + f64::from(i) * 0.31);
            assert!(direct.register_contract(&c, format!("app:{i}")).unwrap());
            assert!(simulated.register_contract(&c, format!("app:{i}")).unwrap());
            assert_eq!(
                direct.find_contract(&c).unwrap(),
                simulated.find_contract_via(&transport, &c).unwrap()
            );
        }
        assert_eq!(direct.stats(), simulated.stats());
        assert!(transport.stats().delivered > 0);
    }
}
