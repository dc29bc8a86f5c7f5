//! The peer-to-peer block store with provider records, pinning and GC.

use crate::cid::Cid;
use crate::DfsError;
use parking_lot::RwLock;
use pol_net::transport::{DirectTransport, Transport};
use pol_net::NodeId;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Identifier of a DFS peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u64);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

#[derive(Default)]
struct PeerState {
    /// Blocks this peer hosts.
    blocks: HashMap<Cid, Vec<u8>>,
    /// Blocks protected from garbage collection.
    pins: HashSet<Cid>,
}

/// The shared DFS network: peers, provider records, retrieval.
///
/// All operations take `&self`; an `Arc<DfsNetwork>` is shared between
/// every actor of a simulation.
#[derive(Default)]
pub struct DfsNetwork {
    peers: RwLock<Vec<PeerState>>,
    /// Provider DHT: which peers claim to host a CID, in peer-id order.
    providers: RwLock<HashMap<Cid, BTreeSet<PeerId>>>,
}

impl std::fmt::Debug for DfsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfsNetwork")
            .field("peers", &self.peers.read().len())
            .field("blocks", &self.providers.read().len())
            .finish()
    }
}

impl DfsNetwork {
    /// Creates an empty network.
    pub fn new() -> DfsNetwork {
        DfsNetwork::default()
    }

    /// Registers a new peer.
    pub fn create_peer(&self) -> PeerId {
        let mut peers = self.peers.write();
        peers.push(PeerState::default());
        PeerId(peers.len() as u64 - 1)
    }

    /// Adds content at `peer`, pinning it there, and announces the
    /// provider record. Returns the content's CID.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownPeer`] for an unregistered peer.
    pub fn add(&self, peer: PeerId, content: Vec<u8>) -> Result<Cid, DfsError> {
        let cid = Cid::for_content(&content);
        {
            let mut peers = self.peers.write();
            let state = peers.get_mut(peer.0 as usize).ok_or(DfsError::UnknownPeer(peer.0))?;
            state.blocks.insert(cid.clone(), content);
            state.pins.insert(cid.clone());
        }
        self.providers.write().entry(cid.clone()).or_default().insert(peer);
        Ok(cid)
    }

    /// Retrieves content from any provider: [`DfsNetwork::get_via`] over
    /// the zero-latency [`DirectTransport`], which reads no endpoint, so
    /// the requester is nominal.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::NotFound`] when no provider hosts it.
    pub fn get(&self, cid: &Cid) -> Result<Vec<u8>, DfsError> {
        self.get_via(&DirectTransport, PeerId(0), cid)
    }

    /// Retrieves content for `requester` over `transport`: providers are
    /// tried in peer-id order (deterministic), each with one request
    /// exchange to the provider and one block exchange back. A provider
    /// whose exchange times out is skipped and the next is tried.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] when no provider hosts the content;
    /// [`DfsError::Unreachable`] when hosts exist but every exchange timed
    /// out.
    pub fn get_via(
        &self,
        transport: &dyn Transport,
        requester: PeerId,
        cid: &Cid,
    ) -> Result<Vec<u8>, DfsError> {
        let providers = self.providers.read();
        let hosts = providers.get(cid).ok_or_else(|| DfsError::NotFound(cid.to_string()))?;
        let peers = self.peers.read();
        let me = NodeId(requester.0);
        let mut tried = 0u32;
        for host in hosts {
            let Some(data) = peers.get(host.0 as usize).and_then(|state| state.blocks.get(cid))
            else {
                continue;
            };
            tried += 1;
            let provider = NodeId(host.0);
            if transport.deliver(me, provider).is_ok() && transport.deliver(provider, me).is_ok() {
                return Ok(data.clone());
            }
        }
        if tried > 0 {
            Err(DfsError::Unreachable { cid: cid.to_string(), providers_tried: tried })
        } else {
            Err(DfsError::NotFound(cid.to_string()))
        }
    }

    /// Replicates content to `peer` (fetch + host + announce), as a pinning
    /// service or an interested verifier would.
    ///
    /// # Errors
    ///
    /// Fails if the content is unavailable or the peer unknown.
    pub fn replicate(&self, peer: PeerId, cid: &Cid) -> Result<(), DfsError> {
        let data = self.get(cid)?;
        {
            let mut peers = self.peers.write();
            let state = peers.get_mut(peer.0 as usize).ok_or(DfsError::UnknownPeer(peer.0))?;
            state.blocks.insert(cid.clone(), data);
            state.pins.insert(cid.clone());
        }
        self.providers.write().entry(cid.clone()).or_default().insert(peer);
        Ok(())
    }

    /// Removes the pin protecting `cid` on `peer`; the block remains until
    /// [`DfsNetwork::gc`] runs there.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownPeer`] for an unregistered peer.
    pub fn unpin(&self, peer: PeerId, cid: &Cid) -> Result<(), DfsError> {
        let mut peers = self.peers.write();
        let state = peers.get_mut(peer.0 as usize).ok_or(DfsError::UnknownPeer(peer.0))?;
        state.pins.remove(cid);
        Ok(())
    }

    /// Garbage-collects unpinned blocks at `peer`, withdrawing their
    /// provider records. Returns the number of blocks dropped.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownPeer`] for an unregistered peer.
    pub fn gc(&self, peer: PeerId) -> Result<usize, DfsError> {
        let dropped: Vec<Cid> = {
            let mut peers = self.peers.write();
            let state = peers.get_mut(peer.0 as usize).ok_or(DfsError::UnknownPeer(peer.0))?;
            let doomed: Vec<Cid> =
                state.blocks.keys().filter(|c| !state.pins.contains(*c)).cloned().collect();
            for cid in &doomed {
                state.blocks.remove(cid);
            }
            doomed
        };
        let mut providers = self.providers.write();
        for cid in &dropped {
            if let Some(hosts) = providers.get_mut(cid) {
                hosts.remove(&peer);
                if hosts.is_empty() {
                    providers.remove(cid);
                }
            }
        }
        Ok(dropped.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_round_trip() {
        let dfs = DfsNetwork::new();
        let p = dfs.create_peer();
        let cid = dfs.add(p, b"hello".to_vec()).unwrap();
        assert_eq!(dfs.get(&cid).unwrap(), b"hello");
    }

    #[test]
    fn unknown_cid_not_found() {
        let dfs = DfsNetwork::new();
        let cid = Cid::for_content(b"never added");
        assert_eq!(dfs.get(&cid), Err(DfsError::NotFound(cid.to_string())));
    }

    #[test]
    fn unknown_peer_rejected() {
        let dfs = DfsNetwork::new();
        assert_eq!(dfs.add(PeerId(9), b"x".to_vec()), Err(DfsError::UnknownPeer(9)));
    }

    #[test]
    fn content_survives_while_any_provider_hosts() {
        let dfs = DfsNetwork::new();
        let a = dfs.create_peer();
        let b = dfs.create_peer();
        let cid = dfs.add(a, b"shared".to_vec()).unwrap();
        dfs.replicate(b, &cid).unwrap();
        dfs.unpin(a, &cid).unwrap();
        assert_eq!(dfs.gc(a).unwrap(), 1);
        assert_eq!(dfs.get(&cid).unwrap(), b"shared");
    }

    #[test]
    fn content_disappears_when_last_host_collects() {
        let dfs = DfsNetwork::new();
        let a = dfs.create_peer();
        let cid = dfs.add(a, b"ephemeral".to_vec()).unwrap();
        dfs.unpin(a, &cid).unwrap();
        assert_eq!(dfs.gc(a).unwrap(), 1);
        assert!(dfs.get(&cid).is_err());
        assert!(!dfs.providers.read().contains_key(&cid), "provider record withdrawn");
    }

    #[test]
    fn gc_spares_pinned_blocks() {
        let dfs = DfsNetwork::new();
        let a = dfs.create_peer();
        let cid = dfs.add(a, b"pinned".to_vec()).unwrap();
        assert_eq!(dfs.gc(a).unwrap(), 0);
        assert_eq!(dfs.get(&cid).unwrap(), b"pinned");
    }

    #[test]
    fn get_via_direct_matches_get() {
        let dfs = DfsNetwork::new();
        let a = dfs.create_peer();
        let requester = dfs.create_peer();
        let cid = dfs.add(a, b"block".to_vec()).unwrap();
        assert_eq!(dfs.get_via(&DirectTransport, requester, &cid).unwrap(), dfs.get(&cid).unwrap());
    }

    #[test]
    fn get_via_times_out_when_links_are_dead() {
        use pol_net::transport::SimTransport;

        let dfs = DfsNetwork::new();
        let a = dfs.create_peer();
        let b = dfs.create_peer();
        let requester = dfs.create_peer();
        let cid = dfs.add(a, b"unfetchable".to_vec()).unwrap();
        dfs.replicate(b, &cid).unwrap();
        let transport = SimTransport::new(3, 1.0);
        assert_eq!(
            dfs.get_via(&transport, requester, &cid),
            Err(DfsError::Unreachable { cid: cid.to_string(), providers_tried: 2 })
        );
    }

    #[test]
    fn get_via_falls_back_to_reachable_provider() {
        use pol_net::transport::{SimTransport, MAX_ATTEMPTS};

        let dfs = DfsNetwork::new();
        let a = dfs.create_peer(); // peer-0: will be cut off
        let b = dfs.create_peer(); // peer-1: healthy
        let requester = dfs.create_peer(); // peer-2
        let cid = dfs.add(a, b"replicated".to_vec()).unwrap();
        dfs.replicate(b, &cid).unwrap();
        let transport = SimTransport::new(9, 0.0);
        // Sever both directions between the requester and provider a only.
        transport.partition([NodeId(requester.0), NodeId(b.0)]);
        assert_eq!(dfs.get_via(&transport, requester, &cid).unwrap(), b"replicated");
        // The request to a drops every attempt and times out; b answers
        // the request and sends the block back, each on its first attempt.
        let stats = transport.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.dropped, u64::from(MAX_ATTEMPTS));
        assert_eq!((stats.sent, stats.delivered), (u64::from(MAX_ATTEMPTS) + 2, 2));
    }
}
