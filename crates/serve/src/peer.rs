//! The fleet layer: a consistent-hash ring of peer nodes backing the
//! reuse plane's *network* tier.
//!
//! A fleet of `pwcet-serve` nodes shares one warm store with no shared
//! filesystem: every node knows the full membership, context keys hash
//! onto a [`PeerRing`] (consistent hashing with virtual nodes — the
//! fleet-wide generalization of the in-process `key % shards` routing in
//! [`ShardPool`](crate::ShardPool)), and each key has one *owner* node.
//!
//! * **Read-through**: on a local miss (memory, disk, derived) the plane
//!   asks the fleet ([`PeerFleet::fetch`]); the fleet asks the key's ring
//!   owners in ring order, skipping itself and backed-off peers. The
//!   first peer that *answers* is authoritative — `Some` is a hit,
//!   `None` a miss; only transport failures fall through to the next
//!   owner.
//! * **Write-back**: after a cold build persists, the plane offers the
//!   encoded entry to the fleet ([`PeerFleet::offer`]); offers to the
//!   key's owner are enqueued and sent by one background worker so the
//!   analysis path never blocks on a peer's socket.
//! * **Health**: a peer that fails transport gets an exponential backoff
//!   (doubling from [`FleetConfig::backoff_base`], capped at
//!   [`FleetConfig::backoff_max`]) and is skipped until it expires; any
//!   successful exchange resets it.
//! * **Correctness**: fetched bytes are decoded and validated by the
//!   plane against the live CFG before use — a corrupt or malicious
//!   peer degrades the request to a counted cold rebuild, never a wrong
//!   answer. The fleet itself only moves opaque bytes.

use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pwcet_core::{fnv1a_checksum, NetworkTier};
use pwcet_obs::{Counter, Registry};

use crate::client::{Client, ClientConfig};

/// Virtual nodes per peer on the ring. Enough that four peers land
/// within ~2× of a uniform split (see the property tests below) while
/// keeping ring construction trivial.
pub const VNODES: usize = 64;

/// Per-phase deadline for peer sockets. Deliberately much shorter than
/// the server's frame deadline: a dead peer costs the request a couple
/// of seconds once (then backoff makes it free), and the cold rebuild is
/// always available as the fallback.
pub const PEER_DEADLINE: Duration = Duration::from_secs(2);

/// First backoff step after a peer failure; doubles per consecutive
/// failure up to [`FleetConfig::backoff_max`].
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(250);

/// Backoff ceiling — a down peer is re-probed at least this often.
pub const DEFAULT_BACKOFF_MAX: Duration = Duration::from_secs(30);

/// Bound on queued write-back offers; beyond it new offers are dropped
/// (and counted) rather than blocking the analysis path.
pub const OFFER_QUEUE: usize = 256;

/// A consistent-hash ring over peer addresses.
///
/// Each peer contributes [`VNODES`] points at
/// `fnv1a(addr_bytes ++ vnode_index_le)`; a key hashes to a point and is
/// owned by the next peer point clockwise (wrapping). Adding or removing
/// one peer therefore remaps only the arcs adjacent to its points —
/// about `1/N` of the key space — where the modulo routing the shards
/// use in-process would reshuffle nearly everything.
#[derive(Debug, Clone)]
pub struct PeerRing {
    addrs: Vec<String>,
    /// Sorted `(point, peer index)` pairs.
    points: Vec<(u64, usize)>,
}

/// Finalizes a hash into a well-avalanched ring position (the 64-bit
/// mixer from splitmix64). FNV-1a alone is too weak here: the vnode
/// seeds differ in a few bytes, and ring ordering keys on the *high*
/// bits, exactly where FNV's avalanche is poorest — unmixed points
/// cluster and peers end up owning wildly uneven arcs.
fn mix_point(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PeerRing {
    /// Builds the ring. Order of `addrs` is irrelevant to ownership
    /// (only the hashed points matter); duplicates are kept verbatim and
    /// simply double that peer's share.
    pub fn new(addrs: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let addrs: Vec<String> = addrs.into_iter().map(Into::into).collect();
        let mut points = Vec::with_capacity(addrs.len() * VNODES);
        for (index, addr) in addrs.iter().enumerate() {
            let mut seed = Vec::with_capacity(addr.len() + 8);
            seed.extend_from_slice(addr.as_bytes());
            for vnode in 0..VNODES {
                seed.truncate(addr.len());
                seed.extend_from_slice(&(vnode as u64).to_le_bytes());
                points.push((mix_point(fnv1a_checksum(&seed)), index));
            }
        }
        points.sort_unstable();
        Self { addrs, points }
    }

    /// Number of peers (not points) on the ring.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the ring has no peers at all.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The address of peer `index`.
    pub fn addr(&self, index: usize) -> &str {
        &self.addrs[index]
    }

    /// The ring position a key lands on. Keys are content fingerprints
    /// and already well-mixed, but re-hashing decouples ring placement
    /// from whatever structure the fingerprint has.
    fn point_of(key: u64) -> u64 {
        mix_point(fnv1a_checksum(&key.to_le_bytes()))
    }

    /// The owning peer of `key`, or `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<usize> {
        self.owners(key).next()
    }

    /// All peers in ring order starting from `key`'s owner, each peer
    /// once. The order is the fetch fallback order: owner first, then
    /// the successor peers that would inherit the key if the owner left.
    pub fn owners(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self
            .points
            .partition_point(|&(point, _)| point < Self::point_of(key));
        let n = self.points.len();
        let mut seen = vec![false; self.addrs.len()];
        (0..n).filter_map(move |step| {
            let (_, index) = self.points[(start + step) % n];
            if std::mem::replace(&mut seen[index], true) {
                None
            } else {
                Some(index)
            }
        })
    }
}

/// Fleet membership and backoff tuning for one node. The ring's
/// [`VNODES`], the [`PEER_DEADLINE`] of every peer socket phase and the
/// [`OFFER_QUEUE`] bound are fixed.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Full fleet membership (typically including this node itself) —
    /// every node must be configured with the same list for the ring to
    /// agree on owners.
    pub peers: Vec<String>,
    /// This node's own address as it appears in `peers`, so the fleet
    /// never fetches from or offers to itself.
    pub self_addr: String,
    /// First backoff step after a peer failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl FleetConfig {
    /// The default tuning for a node at `self_addr` in fleet `peers`.
    pub fn new(
        self_addr: impl Into<String>,
        peers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Self {
            peers: peers.into_iter().map(Into::into).collect(),
            self_addr: self_addr.into(),
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_max: DEFAULT_BACKOFF_MAX,
        }
    }

    /// Whether the configuration names at least one peer other than this
    /// node — a fleet of one is just single-node mode.
    pub fn has_peers(&self) -> bool {
        self.peers.iter().any(|p| *p != self.self_addr)
    }
}

/// Per-peer transport health. Failures back the peer off exponentially;
/// any success resets it.
#[derive(Debug, Default)]
struct Health {
    failures: u32,
    down_until: Option<Instant>,
}

struct FleetInner {
    ring: PeerRing,
    /// This node's index on the ring, when it is a member.
    self_index: Option<usize>,
    client: ClientConfig,
    backoff_base: Duration,
    backoff_max: Duration,
    health: Vec<Mutex<Health>>,
    /// One cached connection per peer, reused across exchanges (a
    /// connect per fetch would pay the peer's accept path every time).
    /// The lock doubles as per-peer serialization of exchanges.
    conns: Vec<Mutex<Option<Client>>>,
    /// Fetches answered `Some` by a peer. This and the five counters
    /// below are the node's metrics rows of the same names.
    fleet_fetch_hits: Arc<Counter>,
    /// Fetches answered `None` (authoritative miss) or with every
    /// candidate peer skipped.
    fleet_fetch_misses: Arc<Counter>,
    /// Transport failures during fetches.
    fleet_fetch_errors: Arc<Counter>,
    /// Write-back offers delivered (whether or not the peer stored).
    fleet_offers_sent: Arc<Counter>,
    /// Write-back offers that failed transport.
    fleet_offers_failed: Arc<Counter>,
    /// Write-back offers dropped because the queue was full.
    fleet_offers_dropped: Arc<Counter>,
}

impl FleetInner {
    fn is_self(&self, index: usize) -> bool {
        self.self_index == Some(index) || self.ring.addr(index) == self.self_addr()
    }

    fn self_addr(&self) -> &str {
        self.self_index.map_or("", |i| self.ring.addr(i))
    }

    fn backed_off(&self, index: usize) -> bool {
        let health = self.health[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        health.down_until.is_some_and(|t| Instant::now() < t)
    }

    fn mark_failure(&self, index: usize) {
        let mut health = self.health[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        health.failures = health.failures.saturating_add(1);
        let exp = health.failures.saturating_sub(1).min(20);
        let delay = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_max);
        health.down_until = Some(Instant::now() + delay);
    }

    fn mark_healthy(&self, index: usize) {
        let mut health = self.health[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        health.failures = 0;
        health.down_until = None;
    }

    /// One peer exchange over the cached connection (dialing a fresh one
    /// when there is none), classifying the transport outcome into the
    /// health tracker. A failure on a *cached* connection gets one
    /// fresh-connection retry — the peer may simply have restarted and
    /// closed its old sockets. Returns `Err(())` on transport failure.
    fn exchange<T>(
        &self,
        index: usize,
        run: impl Fn(&mut Client) -> Result<T, crate::protocol::WireError>,
    ) -> Result<T, ()> {
        #[cfg(feature = "chaos")]
        {
            use pwcet_chaos::FaultPoint;
            // A refused dial and a timed-out exchange look identical to
            // the caller (a transport failure that backs the peer off);
            // both are injected here, before any socket is touched, so
            // the storm never actually burns a peer deadline waiting.
            if pwcet_chaos::should_fire(FaultPoint::PeerDialRefusal)
                || pwcet_chaos::should_fire(FaultPoint::PeerTimeout)
            {
                self.mark_failure(index);
                return Err(());
            }
        }
        let mut slot = self.conns[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cached = slot.take();
        let had_cached = cached.is_some();
        let mut client = match cached {
            Some(client) => client,
            None => match Client::connect_with(self.ring.addr(index), self.client) {
                Ok(client) => client,
                Err(_) => {
                    self.mark_failure(index);
                    return Err(());
                }
            },
        };
        match run(&mut client) {
            Ok(value) => {
                *slot = Some(client);
                self.mark_healthy(index);
                return Ok(value);
            }
            Err(_) if had_cached => {
                drop(client);
                if let Ok(mut fresh) = Client::connect_with(self.ring.addr(index), self.client) {
                    if let Ok(value) = run(&mut fresh) {
                        *slot = Some(fresh);
                        self.mark_healthy(index);
                        return Ok(value);
                    }
                }
            }
            Err(_) => {}
        }
        self.mark_failure(index);
        Err(())
    }

    fn fetch_from_peers(&self, key: u64) -> Option<Vec<u8>> {
        // The fetch runs on a traced shard-worker thread (inside its
        // `trace_scope`), so the requester's trace ID is one TLS read
        // away — stamped into the frame, the serving node records its
        // `peer_serve` span under the *same* trace and the hop shows up
        // on both nodes' rings.
        let trace = pwcet_obs::current_trace().map_or(0, |t| t.0);
        for index in self.ring.owners(key) {
            if self.is_self(index) || self.backed_off(index) {
                continue;
            }
            match self.exchange(index, |client| client.fetch_entry(key, trace)) {
                Ok(Some(bytes)) => {
                    #[cfg(feature = "chaos")]
                    let bytes = {
                        let mut bytes = bytes;
                        if let Some(entropy) =
                            pwcet_chaos::roll(pwcet_chaos::FaultPoint::PeerCorruptEntry)
                        {
                            if !bytes.is_empty() {
                                let at = (entropy as usize) % bytes.len();
                                bytes[at] ^= 0xff;
                            }
                        }
                        bytes
                    };
                    self.fleet_fetch_hits.inc();
                    return Some(bytes);
                }
                Ok(None) => {
                    // The peer that answers is authoritative for the
                    // key; an explicit miss means the fleet does not
                    // have it and the cold build should start now.
                    self.fleet_fetch_misses.inc();
                    return None;
                }
                Err(()) => {
                    self.fleet_fetch_errors.inc();
                }
            }
        }
        self.fleet_fetch_misses.inc();
        None
    }

    fn send_offer(&self, key: u64, bytes: &[u8]) {
        for index in self.ring.owners(key) {
            if self.is_self(index) {
                // This node *is* the key's owner (or next in line) —
                // its local tiers already hold the entry.
                return;
            }
            if self.backed_off(index) {
                continue;
            }
            match self.exchange(index, |client| client.offer_entry(key, bytes)) {
                Ok(_stored) => {
                    self.fleet_offers_sent.inc();
                }
                Err(()) => {
                    self.fleet_offers_failed.inc();
                }
            }
            // One delivery attempt to the best reachable owner; the
            // entry is still on this node (and re-derivable), so a lost
            // offer only costs a future peer fetch miss.
            return;
        }
    }
}

/// A queued write-back offer: the entry's content key plus its encoded
/// `PWCX` payload.
type OfferMsg = (u64, Vec<u8>);

/// The running fleet client of one node. Implements
/// [`NetworkTier`] so the reuse plane can be
/// pointed at it directly.
pub struct PeerFleet {
    inner: Arc<FleetInner>,
    offer_tx: Mutex<Option<mpsc::SyncSender<OfferMsg>>>,
    offer_worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for PeerFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerFleet")
            .field("peers", &self.inner.ring.len())
            .field("self_index", &self.inner.self_index)
            .finish_non_exhaustive()
    }
}

impl PeerFleet {
    /// Builds the ring, registers the fleet's counters in `metrics` and
    /// starts the offer worker.
    pub fn start(config: FleetConfig, metrics: &Registry) -> Self {
        let ring = PeerRing::new(config.peers.iter().cloned());
        let self_index = config.peers.iter().position(|p| *p == config.self_addr);
        let health = (0..ring.len())
            .map(|_| Mutex::new(Health::default()))
            .collect();
        let conns = (0..ring.len()).map(|_| Mutex::new(None)).collect();
        let inner = Arc::new(FleetInner {
            ring,
            self_index,
            client: ClientConfig::with_deadline(PEER_DEADLINE),
            backoff_base: config.backoff_base,
            backoff_max: config.backoff_max,
            health,
            conns,
            fleet_fetch_hits: metrics.register_counter("fleet_fetch_hits"),
            fleet_fetch_misses: metrics.register_counter("fleet_fetch_misses"),
            fleet_fetch_errors: metrics.register_counter("fleet_fetch_errors"),
            fleet_offers_sent: metrics.register_counter("fleet_offers_sent"),
            fleet_offers_failed: metrics.register_counter("fleet_offers_failed"),
            fleet_offers_dropped: metrics.register_counter("fleet_offers_dropped"),
        });
        let (tx, rx) = mpsc::sync_channel::<(u64, Vec<u8>)>(OFFER_QUEUE);
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("pwcq-offer".into())
            .spawn(move || {
                while let Ok((key, bytes)) = rx.recv() {
                    worker_inner.send_offer(key, &bytes);
                }
            })
            .expect("spawn offer worker");
        Self {
            inner,
            offer_tx: Mutex::new(Some(tx)),
            offer_worker: Mutex::new(Some(worker)),
        }
    }

    /// Peers on the ring other than this node.
    pub fn peer_count(&self) -> usize {
        self.inner.ring.len() - usize::from(self.inner.self_index.is_some())
    }

    /// How many remote peers are currently backed off.
    pub fn unhealthy_count(&self) -> usize {
        (0..self.inner.ring.len())
            .filter(|&i| !self.inner.is_self(i) && self.inner.backed_off(i))
            .count()
    }

    /// Stops accepting offers, drains the queued ones, and joins the
    /// worker. Idempotent; also run by drop.
    pub fn shutdown(&self) {
        drop(
            self.offer_tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let worker = self
            .offer_worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl Drop for PeerFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl NetworkTier for PeerFleet {
    fn fetch(&self, key: u64) -> Option<Vec<u8>> {
        self.inner.fetch_from_peers(key)
    }

    fn offer(&self, key: u64, bytes: &[u8]) {
        #[cfg(feature = "chaos")]
        if pwcet_chaos::should_fire(pwcet_chaos::FaultPoint::PeerOfferDrop) {
            // A dropped offer is the same degradation a full queue
            // causes: the entry stays local and a future peer fetch
            // misses. Count it in the same place.
            self.inner.fleet_offers_dropped.inc();
            return;
        }
        let guard = self.offer_tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else { return };
        if tx.try_send((key, bytes.to_vec())).is_err() {
            // Queue full (or worker gone): drop rather than block the
            // analysis path — the entry stays available locally.
            self.inner.fleet_offers_dropped.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashMap;

    use proptest::prelude::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{}:7411", i + 1)).collect()
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = PeerRing::new(Vec::<String>::new());
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert_eq!(ring.owners(42).count(), 0);
    }

    #[test]
    fn owners_cover_every_peer_exactly_once() {
        let ring = PeerRing::new(addrs(5));
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut order: Vec<usize> = ring.owners(key).collect();
            assert_eq!(order.len(), 5);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn ownership_is_stable_under_membership_order() {
        // The ring hashes addresses, so two nodes configured with the
        // same membership in different order agree on every owner.
        let forward = PeerRing::new(addrs(4));
        let mut reversed_addrs = addrs(4);
        reversed_addrs.reverse();
        let reversed = PeerRing::new(reversed_addrs);
        for key in 0..512u64 {
            let a = forward.addr(forward.owner(key).unwrap());
            let b = reversed.addr(reversed.owner(key).unwrap());
            assert_eq!(a, b, "owner disagreement for key {key}");
        }
    }

    proptest! {
        /// Every peer's share of a large key sample stays within 2× of
        /// the uniform share — the balance the vnode count buys.
        #[test]
        fn ring_balance_within_2x_of_uniform(
            peers in 2usize..8,
            seed in any::<u64>(),
        ) {
            let ring = PeerRing::new(addrs(peers));
            let samples = 4096u64;
            let mut counts: HashMap<usize, u64> = HashMap::new();
            for i in 0..samples {
                // A cheap splitmix-style scramble keyed by the seed, so
                // different cases probe different key populations.
                let key = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                *counts.entry(ring.owner(key).unwrap()).or_default() += 1;
            }
            let uniform = samples as f64 / peers as f64;
            for index in 0..peers {
                let share = counts.get(&index).copied().unwrap_or(0) as f64;
                prop_assert!(
                    share <= 2.0 * uniform,
                    "peer {index} owns {share} of {samples} keys (uniform {uniform:.0})"
                );
                prop_assert!(
                    share >= uniform / 2.0,
                    "peer {index} owns only {share} of {samples} keys (uniform {uniform:.0})"
                );
            }
        }

        /// Removing one peer remaps only the keys it owned (~1/N), and
        /// every key it owned moves while no other key does — the
        /// property modulo routing does not have.
        #[test]
        fn removing_a_peer_remaps_about_one_nth(
            peers in 3usize..8,
            removed in 0usize..8,
            seed in any::<u64>(),
        ) {
            let removed = removed % peers;
            let full_addrs = addrs(peers);
            let mut reduced_addrs = full_addrs.clone();
            reduced_addrs.remove(removed);
            let full = PeerRing::new(full_addrs.clone());
            let reduced = PeerRing::new(reduced_addrs);

            let samples = 2048u64;
            let mut moved = 0u64;
            for i in 0..samples {
                let key = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                // Compare by address — indices shift when a peer leaves.
                let before = full.addr(full.owner(key).unwrap()).to_string();
                let after = reduced.addr(reduced.owner(key).unwrap()).to_string();
                if before == after {
                    continue;
                }
                moved += 1;
                // Only keys the removed peer owned may move.
                prop_assert_eq!(
                    &before,
                    &full_addrs[removed],
                    "key {} moved away from a surviving peer", key
                );
            }
            // The removed peer's share is ~1/N; with 2× balance slack on
            // either side, strictly fewer than half the keys may move
            // even at N = 3.
            let limit = (samples as f64) * 2.0 / (peers as f64);
            prop_assert!(
                (moved as f64) <= limit,
                "removing one of {peers} peers remapped {moved}/{samples} keys (limit {limit:.0})"
            );
        }
    }
}
