//! The simulated network: nodes, simplex links, routing and delivery.
//!
//! A [`Network`] is a cheaply clonable handle shared by every protocol
//! entity. End-systems register a [`NodeHandler`]; intermediate nodes
//! without handlers act as store-and-forward switches. Routing is
//! shortest-path by hop count, computed once and cached (topologies are
//! static after construction, as in the Lancaster testbed).

use crate::clock::NodeClock;
use crate::engine::{Engine, FlightCell};
use crate::link::{DropReason, Link, LinkOutcome, LinkParams};
use crate::multicast::{GroupId, GroupTree};
use crate::packet::{FlightKind, Packet, PacketFlight};
use crate::reservation::{AdmissionError, ReservationTable};
use cm_core::address::{NetAddr, VcId};
use cm_core::qos::{ErrorRate, QosParams};
use cm_core::rng::DetRng;
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_telemetry::{Layer, Telemetry};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Identifies one simplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Receives packets addressed to a node.
///
/// Handlers take `&self`: implementations wrap their mutable state in
/// `RefCell`, which is safe because the engine is single-threaded and the
/// network never re-enters a handler while it is running.
pub trait NodeHandler {
    /// Called when `pkt` arrives at `at` (which is always `pkt.dst`).
    fn on_packet(&self, net: &Network, at: NetAddr, pkt: Packet);
}

struct NodeState {
    clock: NodeClock,
    handler: Option<Rc<dyn NodeHandler>>,
    /// Fault state: a down node neither forwards, delivers nor originates
    /// packets (fail-stop with state preserved across recovery).
    up: bool,
}

struct LinkState {
    from: NetAddr,
    to: NetAddr,
    link: Link,
    /// Fault state: a down link rejects submissions and drops any flight
    /// still riding it (queued or propagating) when the flight fires.
    up: bool,
}

/// Network-wide drop counters by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Packets handed to a registered handler.
    pub delivered: u64,
    /// Packets that reached a node with no handler registered.
    pub no_handler: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Packets dropped by link queue overflow.
    pub queue_overflow: u64,
    /// Packets dropped by link loss processes.
    pub link_loss: u64,
    /// Packets dropped at or addressed through a crashed node.
    pub node_down: u64,
    /// Packets dropped on a link that went down while they rode it.
    pub link_down: u64,
}

/// What [`Network::group_refresh`] did to a shared tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupRefresh {
    /// Members dropped because no live root → member path exists any more.
    pub unreachable: Vec<NetAddr>,
    /// Detour links the rebuilt tree newly reserves.
    pub links_added: usize,
    /// Abandoned links the rebuilt tree released.
    pub links_removed: usize,
}

/// `parent[v]` = (parent node, link parent→v) on the BFS shortest-path
/// tree rooted at one node; `None` where `v` is unreachable (or the root).
type Parents = Rc<[Option<(NetAddr, LinkId)>]>;

/// State of one multicast group (see [`crate::multicast`]).
struct GroupState {
    root: NetAddr,
    /// Bandwidth reserved on every tree link (one rate per tree).
    bandwidth: Bandwidth,
    members: BTreeSet<NetAddr>,
    /// The BFS parent forest rooted at `root` (see [`Parents`]), shared
    /// with the groups on the same root; `None` once the group is released.
    parent: Option<Parents>,
    /// Current immutable snapshot; sends capture it, so membership churn
    /// never affects packets already in flight.
    tree: Rc<GroupTree>,
}

impl GroupState {
    /// `v`'s hop toward the root: `None` if `v` is cut off under the
    /// forest, or the group is released.
    fn parent_of(&self, v: NetAddr) -> Option<(NetAddr, LinkId)> {
        self.parent.as_ref()?[v.0 as usize]
    }
}

struct NetworkInner {
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    /// Outgoing link ids per node.
    adjacency: Vec<Vec<LinkId>>,
    /// `next_hop[from][dst]` = link to take, or `None` (lazily built).
    next_hop: Vec<Option<Vec<Option<LinkId>>>>,
    /// BFS parent forest per multicast root (lazily built, one per root
    /// however many groups it roots; cleared with `next_hop`).
    mcast_parents: Vec<Option<Parents>>,
    /// Set the first time routes are computed; `add_link`/`add_node` refuse
    /// afterwards. Kept separately from the `next_hop` caches because fault
    /// transitions clear those to force recomputation around dead elements
    /// — the topology itself stays frozen.
    frozen: bool,
    groups: Vec<GroupState>,
    counters: NetworkCounters,
    reservations: ReservationTable,
}

impl NetworkInner {
    fn build_routes_from(&mut self, from: usize) {
        // BFS by hop count; first-added link wins ties, so routing is
        // deterministic and independent of query order. Down nodes and
        // down links are invisible: routes only use live elements.
        self.frozen = true;
        let n = self.nodes.len();
        let mut first_link: Vec<Option<LinkId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[from] = true;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for &lid in &self.adjacency[u] {
                let ls = &self.links[lid.0 as usize];
                if !ls.up {
                    continue;
                }
                let v = ls.to.0 as usize;
                if !self.nodes[v].up {
                    continue;
                }
                if !visited[v] {
                    visited[v] = true;
                    // The first hop toward v is inherited from u, unless u
                    // is the origin, in which case it is this link itself.
                    first_link[v] = if u == from { Some(lid) } else { first_link[u] };
                    q.push_back(v);
                }
            }
        }
        self.next_hop[from] = Some(first_link);
    }

    /// Throw away every cached route (fault transitions call this so the
    /// next lookup recomputes around the new up/down state).
    fn invalidate_routes(&mut self) {
        for r in &mut self.next_hop {
            *r = None;
        }
        for p in &mut self.mcast_parents {
            *p = None;
        }
    }

    fn next_hop(&mut self, from: NetAddr, dst: NetAddr) -> Option<LinkId> {
        let f = from.0 as usize;
        if self.next_hop[f].is_none() {
            self.build_routes_from(f);
        }
        self.next_hop[f].as_ref().expect("routes just built")[dst.0 as usize]
    }

    /// The parent forest rooted at `root` under the current up/down state,
    /// built on first use and shared until the next fault transition.
    fn mcast_parents(&mut self, root: NetAddr) -> Parents {
        let r = root.0 as usize;
        if self.mcast_parents[r].is_none() {
            self.mcast_parents[r] = Some(self.build_mcast_parents(r).into());
        }
        self.mcast_parents[r].clone().expect("forest just built")
    }

    /// BFS from `root` recording, for every reachable node, the edge it was
    /// first discovered through. Same deterministic tie-break as unicast
    /// routing (first-added link wins), so the shared tree is stable.
    fn build_mcast_parents(&self, root: usize) -> Vec<Option<(NetAddr, LinkId)>> {
        let n = self.nodes.len();
        let mut parent: Vec<Option<(NetAddr, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[root] = true;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &lid in &self.adjacency[u] {
                let ls = &self.links[lid.0 as usize];
                if !ls.up {
                    continue;
                }
                let v = ls.to.0 as usize;
                if !self.nodes[v].up {
                    continue;
                }
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some((NetAddr(u as u32), lid));
                    q.push_back(v);
                }
            }
        }
        parent
    }

    /// The links `member`'s branch would add to a tree currently holding
    /// `existing` links: the parent-walk from `member` toward the root,
    /// stopping at the graft point. `None` if `member` is unreachable.
    fn branch_links(
        group: &GroupState,
        member: NetAddr,
        existing: &BTreeSet<LinkId>,
    ) -> Option<Vec<LinkId>> {
        let mut acc = Vec::new();
        let mut v = member;
        while v != group.root {
            let (p, lid) = group.parent_of(v)?;
            if existing.contains(&lid) {
                break; // grafted onto the existing tree
            }
            acc.push(lid);
            v = p;
        }
        Some(acc)
    }

    /// Walk `member`'s parent chain to the root, or `None` if some hop is
    /// missing (the member is cut off under the current parent forest).
    fn member_branch(group: &GroupState, member: NetAddr) -> Option<Vec<LinkId>> {
        let mut acc = Vec::new();
        let mut v = member;
        while v != group.root {
            let (p, lid) = group.parent_of(v)?;
            acc.push(lid);
            v = p;
        }
        Some(acc)
    }

    /// Rebuild a group's immutable tree snapshot from its member set.
    ///
    /// Members whose parent walk no longer reaches the root (possible once
    /// nodes and links can go down) contribute no branch and are left out
    /// of the snapshot's member set — [`Network::group_refresh`] is the
    /// operation that reconciles membership after a fault.
    fn rebuild_tree(&self, g: GroupId) -> Rc<GroupTree> {
        let group = &self.groups[g.0 as usize];
        let mut links = BTreeSet::new();
        let mut reached = BTreeSet::new();
        let mut out_links: BTreeMap<NetAddr, Vec<LinkId>> = BTreeMap::new();
        for &m in &group.members {
            // Allocation-free reachability walk: a member with a severed
            // parent chain contributes no branch and is left out of the
            // snapshot (`group_refresh` reconciles membership after faults).
            let mut v = m;
            let reachable = loop {
                if v == group.root {
                    break true;
                }
                match group.parent_of(v) {
                    Some((p, _)) => v = p,
                    None => break false,
                }
            };
            if !reachable {
                continue;
            }
            reached.insert(m);
            let mut v = m;
            while v != group.root {
                let (p, lid) = group.parent_of(v).expect("branch walk just succeeded");
                if !links.insert(lid) {
                    break; // remainder of the walk is already in the tree
                }
                out_links.entry(p).or_default().push(lid);
                v = p;
            }
        }
        // Fan-out order at each branch node is part of the deterministic
        // schedule (copy order assigns packet seqs): keep the ascending
        // child-node order the old whole-forest scan produced.
        for fanout in out_links.values_mut() {
            fanout.sort_unstable_by_key(|lid| self.links[lid.0 as usize].to.0);
        }
        Rc::new(GroupTree {
            root: group.root,
            members: reached,
            out_links,
            links,
        })
    }
}

/// Handle to the simulated network (clones share state).
#[derive(Clone)]
pub struct Network {
    engine: Engine,
    /// Cached clone of the engine's recorder: packet paths check the
    /// `enabled` fast path without re-borrowing the engine.
    tel: Telemetry,
    inner: Rc<RefCell<NetworkInner>>,
}

impl Network {
    /// An empty network bound to `engine`. Registers the engine's flight
    /// dispatcher (one network per engine).
    pub fn new(engine: Engine) -> Network {
        let net = Network {
            tel: engine.telemetry().clone(),
            engine,
            inner: Rc::new(RefCell::new(NetworkInner {
                nodes: Vec::new(),
                links: Vec::new(),
                adjacency: Vec::new(),
                next_hop: Vec::new(),
                mcast_parents: Vec::new(),
                frozen: false,
                groups: Vec::new(),
                counters: NetworkCounters::default(),
                reservations: ReservationTable::default(),
            })),
        };
        // The dispatcher holds the inner state weakly so a dropped network
        // does not keep itself alive through the engine. Relay hops (the
        // common case) run on borrowed parts — no refcount traffic at all;
        // only terminal deliveries rebuild a full `Network` handle for the
        // node handler.
        let weak = Rc::downgrade(&net.inner);
        net.engine.set_flight_dispatch_cells(move |engine, cell| {
            if let Some(inner) = weak.upgrade() {
                Network::dispatch_flight(engine, &inner, cell);
            }
            // else: the network is gone; the cell drops with its packet.
        });
        net
    }

    /// The engine driving this network.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Add a node with the given clock; returns its address.
    pub fn add_node(&self, clock: NodeClock) -> NetAddr {
        let mut inner = self.inner.borrow_mut();
        let addr = NetAddr(inner.nodes.len() as u32);
        assert!(!inner.frozen, "topology frozen once routing has begun");
        inner.nodes.push(NodeState {
            clock,
            handler: None,
            up: true,
        });
        inner.adjacency.push(Vec::new());
        inner.next_hop.push(None);
        inner.mcast_parents.push(None);
        addr
    }

    /// Add a simplex link `from → to`; returns its id.
    ///
    /// Panics if routes have already been computed (topology must be fixed
    /// before traffic starts).
    pub fn add_link(&self, from: NetAddr, to: NetAddr, params: LinkParams, rng: DetRng) -> LinkId {
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.frozen, "topology frozen once routing has begun");
        assert!(
            (from.0 as usize) < inner.nodes.len() && (to.0 as usize) < inner.nodes.len(),
            "link endpoints must exist"
        );
        assert_ne!(from, to, "self-links are not allowed");
        let id = LinkId(inner.links.len() as u32);
        inner.links.push(LinkState {
            from,
            to,
            link: Link::new(params, rng),
            up: true,
        });
        inner.adjacency[from.0 as usize].push(id);
        id
    }

    /// Add a pair of simplex links (`a → b` and `b → a`) with identical
    /// parameters; returns both ids.
    pub fn add_duplex(
        &self,
        a: NetAddr,
        b: NetAddr,
        params: LinkParams,
        rng: &mut DetRng,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, params.clone(), rng.fork(&format!("l{}-{}", a.0, b.0)));
        let rev = self.add_link(b, a, params, rng.fork(&format!("l{}-{}", b.0, a.0)));
        (fwd, rev)
    }

    /// Register the packet handler for a node (replacing any previous one).
    pub fn set_handler(&self, node: NetAddr, handler: Rc<dyn NodeHandler>) {
        self.inner.borrow_mut().nodes[node.0 as usize].handler = Some(handler);
    }

    /// The node's local clock.
    pub fn clock(&self, node: NetAddr) -> NodeClock {
        self.inner.borrow().nodes[node.0 as usize].clock
    }

    /// Read a node's local clock *now*.
    pub fn local_time(&self, node: NetAddr) -> SimTime {
        self.clock(node).local_of(self.engine.now())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Network-wide counters.
    pub fn counters(&self) -> NetworkCounters {
        self.inner.borrow().counters
    }

    /// Counters of one link.
    pub fn link_counters(&self, id: LinkId) -> crate::link::LinkCounters {
        self.inner.borrow().links[id.0 as usize].link.counters
    }

    // ==================================================================
    // Fault API (up/down state used by cm-chaos and the healing layers)
    // ==================================================================

    /// Number of simplex links (ids are `0..link_count()`).
    pub fn link_count(&self) -> usize {
        self.inner.borrow().links.len()
    }

    /// The `(from, to)` endpoints of a simplex link.
    pub fn link_endpoints(&self, id: LinkId) -> (NetAddr, NetAddr) {
        let inner = self.inner.borrow();
        let ls = &inner.links[id.0 as usize];
        (ls.from, ls.to)
    }

    /// All simplex links `from → to`, in creation order.
    pub fn links_between(&self, from: NetAddr, to: NetAddr) -> Vec<LinkId> {
        let inner = self.inner.borrow();
        inner.adjacency[from.0 as usize]
            .iter()
            .copied()
            .filter(|&lid| inner.links[lid.0 as usize].to == to)
            .collect()
    }

    /// Whether `node` is currently up.
    pub fn is_node_up(&self, node: NetAddr) -> bool {
        self.inner.borrow().nodes[node.0 as usize].up
    }

    /// Whether `link` is currently up.
    pub fn is_link_up(&self, link: LinkId) -> bool {
        self.inner.borrow().links[link.0 as usize].up
    }

    /// Crash or recover a node. A down node originates, forwards and
    /// delivers nothing: flights landing on it are dropped, and routing
    /// recomputes around it. Its protocol state is preserved (fail-stop
    /// with amnesia-free recovery). Route caches are invalidated on every
    /// transition; multicast trees are only reconciled by an explicit
    /// [`Network::group_refresh`].
    pub fn set_node_up(&self, node: NetAddr, up: bool) {
        let mut inner = self.inner.borrow_mut();
        let n = &mut inner.nodes[node.0 as usize];
        if n.up == up {
            return;
        }
        n.up = up;
        inner.invalidate_routes();
    }

    /// Take a link down or bring it back up. A down link refuses new
    /// submissions and drops every flight still riding it (queued or
    /// propagating) when that flight fires. Route caches are invalidated
    /// on every transition.
    pub fn set_link_up(&self, link: LinkId, up: bool) {
        let mut inner = self.inner.borrow_mut();
        let l = &mut inner.links[link.0 as usize];
        if l.up == up {
            return;
        }
        l.up = up;
        inner.invalidate_routes();
    }

    /// Forcibly revoke the reservation held by `vc` (the network-initiated
    /// teardown a resource-reservation protocol can impose). Returns the
    /// bandwidth that was held, or `None` if `vc` held nothing. The holder
    /// is *not* notified through the data path — cm-chaos models the
    /// out-of-band revocation indication by poking the transport directly.
    pub fn revoke_reservation(&self, vc: VcId) -> Option<Bandwidth> {
        let mut inner = self.inner.borrow_mut();
        let held = inner.reservations.bandwidth_of(vc)?;
        inner.reservations.release(vc);
        Some(held)
    }

    /// The links a packet would traverse from `from` to `dst`, or `None`
    /// if unreachable.
    pub fn route(&self, from: NetAddr, dst: NetAddr) -> Option<Vec<LinkId>> {
        if from == dst {
            return Some(Vec::new());
        }
        let mut inner = self.inner.borrow_mut();
        let mut at = from;
        let mut path = Vec::new();
        while at != dst {
            let lid = inner.next_hop(at, dst)?;
            path.push(lid);
            at = inner.links[lid.0 as usize].to;
            if path.len() > inner.nodes.len() {
                return None; // routing loop guard (cannot happen with BFS)
            }
        }
        Some(path)
    }

    /// Estimate the QoS achievable on the path `from → dst` for packets of
    /// `mtu` bytes, used as the provider's offer in end-to-end QoS
    /// negotiation: throughput is the tightest link bandwidth, delay the
    /// sum of propagation and per-hop serialisation, jitter the sum of the
    /// links' maximum jitter, and the error rates the route's combined loss
    /// and bit-error probabilities.
    pub fn path_qos(&self, from: NetAddr, dst: NetAddr, mtu: usize) -> Option<QosParams> {
        let route = self.route(from, dst)?;
        Some(self.qos_over_links(&route, mtu))
    }

    /// QoS achievable over an explicit link sequence (shared by unicast
    /// routes and multicast branches).
    fn qos_over_links(&self, route: &[LinkId], mtu: usize) -> QosParams {
        let inner = self.inner.borrow();
        let mut throughput = Bandwidth::bps(u64::MAX);
        let mut delay = SimDuration::ZERO;
        let mut jitter = SimDuration::ZERO;
        let mut p_deliver = 1.0f64;
        let mut p_intact = 1.0f64;
        for &lid in route {
            let p = inner.links[lid.0 as usize].link.params();
            throughput = throughput.min(p.bandwidth);
            delay += p.propagation + p.bandwidth.transmission_time(mtu);
            jitter += match p.jitter {
                crate::link::JitterModel::None => SimDuration::ZERO,
                crate::link::JitterModel::Uniform(m) => m,
                crate::link::JitterModel::Exponential(m) => m.saturating_mul(10),
            };
            p_deliver *= 1.0 - p.loss.as_prob();
            p_intact *= 1.0 - p.bit_error.as_prob();
        }
        QosParams {
            throughput,
            delay,
            jitter,
            packet_error_rate: ErrorRate::from_prob(1.0 - p_deliver),
            bit_error_rate: ErrorRate::from_prob(1.0 - p_intact),
        }
    }

    /// Reserve `bandwidth` for `vc` along the route `from → dst`
    /// (ST-II-style, §7). Fails with `NoRoute` mapped to
    /// [`AdmissionError::InsufficientBandwidth`] semantics kept separate:
    /// returns `None` if the nodes are not connected at all.
    pub fn reserve_path(
        &self,
        vc: VcId,
        from: NetAddr,
        dst: NetAddr,
        bandwidth: Bandwidth,
    ) -> Option<Result<(), AdmissionError>> {
        let route = self.route(from, dst)?;
        let outcome = {
            let mut inner = self.inner.borrow_mut();
            let with_caps: Vec<(LinkId, Bandwidth)> = route
                .iter()
                .map(|&lid| (lid, inner.links[lid.0 as usize].link.params().bandwidth))
                .collect();
            inner.reservations.admit(vc, &with_caps, bandwidth)
        };
        self.trace_reserve("net.reserve", vc.0, bandwidth, &outcome);
        Some(outcome)
    }

    /// A reservation admission decision (unicast VC or multicast branch).
    fn trace_reserve(
        &self,
        name: &'static str,
        id: u64,
        bandwidth: Bandwidth,
        outcome: &Result<(), AdmissionError>,
    ) {
        if !self.tel.enabled() {
            return;
        }
        self.tel
            .instant(self.engine.now(), Layer::Netsim, name, |e| {
                e.u64("id", id).u64("bps", bandwidth.as_bps());
                match outcome {
                    Ok(()) => {
                        e.bool("ok", true);
                    }
                    Err(AdmissionError::InsufficientBandwidth {
                        link, available, ..
                    }) => {
                        e.bool("ok", false)
                            .str("reason", "insufficient_bandwidth")
                            .u64("link", link.0 as u64)
                            .u64("available_bps", available.as_bps());
                    }
                    Err(AdmissionError::AlreadyReserved) => {
                        e.bool("ok", false).str("reason", "already_reserved");
                    }
                }
            });
    }

    /// Release any reservation held by `vc`.
    pub fn release_reservation(&self, vc: VcId) {
        self.inner.borrow_mut().reservations.release(vc);
    }

    /// Whether `vc` holds a reservation whose links are all currently up.
    /// `None` when `vc` holds no reservation at all — the self-healing
    /// probe distinguishes "revoked" (re-admit) from "routed over a dead
    /// link" (release, then re-admit on a detour).
    pub fn reservation_intact(&self, vc: VcId) -> Option<bool> {
        let inner = self.inner.borrow();
        let route = inner.reservations.route_of(vc)?;
        Some(route.iter().all(|&lid| inner.links[lid.0 as usize].up))
    }

    /// Adjust `vc`'s reservation to `bandwidth` in place (QoS
    /// renegotiation support, §4.1.3).
    pub fn renegotiate_reservation(
        &self,
        vc: VcId,
        bandwidth: Bandwidth,
    ) -> Result<(), AdmissionError> {
        let mut inner = self.inner.borrow_mut();
        let caps: std::collections::HashMap<LinkId, Bandwidth> = inner
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l.link.params().bandwidth))
            .collect();
        inner.reservations.renegotiate(vc, &caps, bandwidth)
    }

    /// The bandwidth still reservable along `from → dst` (the tightest
    /// unreserved share over the route), or `None` if unreachable.
    pub fn available_bandwidth(&self, from: NetAddr, dst: NetAddr) -> Option<Bandwidth> {
        let route = self.route(from, dst)?;
        let inner = self.inner.borrow();
        let mut avail = Bandwidth::bps(u64::MAX);
        for lid in route {
            let cap = inner.links[lid.0 as usize].link.params().bandwidth;
            avail = avail.min(inner.reservations.available_on(lid, cap));
        }
        Some(avail)
    }

    /// Number of live reservations (for experiments).
    pub fn reservation_count(&self) -> usize {
        self.inner.borrow().reservations.count()
    }

    /// Bandwidth currently reserved on one link (unicast VCs plus shared
    /// multicast trees) — the observable for branch-accounting tests.
    pub fn reserved_on(&self, link: LinkId) -> Bandwidth {
        self.inner.borrow().reservations.reserved_on(link)
    }

    // ==================================================================
    // Multicast groups (shared-tree 1:N delivery, see `crate::multicast`)
    // ==================================================================

    /// Create a multicast group rooted at `root`, reserving `bandwidth` on
    /// every link its shared tree comes to hold. Freezes the topology.
    /// The group shares its root's BFS forest with every group created on
    /// that root until the next fault transition; a group made afterwards
    /// gets the forest around the fault, while older groups keep theirs
    /// until [`Network::group_refresh`].
    pub fn create_group(&self, root: NetAddr, bandwidth: Bandwidth) -> GroupId {
        let mut inner = self.inner.borrow_mut();
        // Freeze the topology exactly like unicast routing does, so links
        // cannot be added under a computed tree.
        if inner.next_hop[root.0 as usize].is_none() {
            inner.build_routes_from(root.0 as usize);
        }
        let id = GroupId(inner.groups.len() as u32);
        let parent = Some(inner.mcast_parents(root));
        inner.groups.push(GroupState {
            root,
            bandwidth,
            members: BTreeSet::new(),
            parent,
            tree: Rc::new(GroupTree::empty(root)),
        });
        id
    }

    /// Graft `member` onto `g`'s shared tree, reserving the group's
    /// bandwidth on **only the links the new branch adds** (ST-II-style 1:N
    /// reservation). Returns `None` if `member` is unreachable from the
    /// root; `Some(Err(_))` if a branch link lacks bandwidth (nothing is
    /// charged, existing members are untouched); joining twice is a no-op.
    pub fn group_join(&self, g: GroupId, member: NetAddr) -> Option<Result<(), AdmissionError>> {
        let mut inner = self.inner.borrow_mut();
        let group = &inner.groups[g.0 as usize];
        assert_ne!(member, group.root, "the root is the sender, not a receiver");
        if group.members.contains(&member) {
            return Some(Ok(()));
        }
        let new_links = NetworkInner::branch_links(group, member, &group.tree.links)?;
        let bandwidth = group.bandwidth;
        let with_caps: Vec<(LinkId, Bandwidth)> = new_links
            .iter()
            .map(|&lid| (lid, inner.links[lid.0 as usize].link.params().bandwidth))
            .collect();
        if let Err(e) = inner
            .reservations
            .admit_links(g.reservation_vc(), &with_caps, bandwidth)
        {
            drop(inner);
            self.trace_reserve("net.group.join", g.0 as u64, bandwidth, &Err(e));
            return Some(Err(e));
        }
        inner.groups[g.0 as usize].members.insert(member);
        let tree = inner.rebuild_tree(g);
        inner.groups[g.0 as usize].tree = tree;
        drop(inner);
        self.trace_reserve("net.group.join", g.0 as u64, bandwidth, &Ok(()));
        Some(Ok(()))
    }

    /// Prune `member` from `g`'s shared tree, releasing **only the links
    /// its departure removes** (links still serving other members stay
    /// reserved). No-op if `member` is not in the group. Packets already in
    /// flight keep the snapshot they were sent with.
    pub fn group_leave(&self, g: GroupId, member: NetAddr) {
        let mut inner = self.inner.borrow_mut();
        if !inner.groups[g.0 as usize].members.remove(&member) {
            return;
        }
        let old_links = inner.groups[g.0 as usize].tree.links.clone();
        let new_tree = inner.rebuild_tree(g);
        let released: Vec<LinkId> = old_links.difference(&new_tree.links).copied().collect();
        inner
            .reservations
            .release_links(g.reservation_vc(), &released);
        inner.groups[g.0 as usize].tree = new_tree;
        drop(inner);
        if self.tel.enabled() {
            self.tel
                .instant(self.engine.now(), Layer::Netsim, "net.group.leave", |e| {
                    e.u64("id", g.0 as u64)
                        .u64("member", member.0 as u64)
                        .u64("links_released", released.len() as u64);
                });
        }
    }

    /// Reconcile `g`'s shared tree with the current up/down state of the
    /// network: recompute the BFS parent forest around dead elements,
    /// drop members that no longer have any live path from the root, and
    /// move the tree's reservations onto the links of the rebuilt tree
    /// (charging detour links, releasing abandoned ones — all-or-nothing:
    /// if a detour link lacks bandwidth nothing changes and the caller
    /// retries later). This is the multicast re-graft primitive the
    /// transport's healing layer drives. A released group stays released.
    pub fn group_refresh(&self, g: GroupId) -> Result<GroupRefresh, AdmissionError> {
        let mut inner = self.inner.borrow_mut();
        if inner.groups[g.0 as usize].parent.is_none() {
            return Ok(GroupRefresh::default());
        }
        let root = inner.groups[g.0 as usize].root;
        let parent = if inner.nodes[root.0 as usize].up {
            inner.mcast_parents(root)
        } else {
            vec![None; inner.nodes.len()].into() // dead root: nobody is reachable
        };
        inner.groups[g.0 as usize].parent = Some(parent);
        let unreachable: Vec<NetAddr> = {
            let group = &inner.groups[g.0 as usize];
            group
                .members
                .iter()
                .copied()
                .filter(|&m| NetworkInner::member_branch(group, m).is_none())
                .collect()
        };
        for &m in &unreachable {
            inner.groups[g.0 as usize].members.remove(&m);
        }
        let new_tree = inner.rebuild_tree(g);
        let old_links = inner.groups[g.0 as usize].tree.links.clone();
        let bandwidth = inner.groups[g.0 as usize].bandwidth;
        // Charge against the ledger, not the old tree: a tree link whose
        // reservation was revoked out-of-band is re-admitted here too, so
        // one refresh heals both detours and revocations.
        let added: Vec<(LinkId, Bandwidth)> = new_tree
            .links
            .iter()
            .filter(|&&lid| !inner.reservations.holds(g.reservation_vc(), lid))
            .map(|&lid| (lid, inner.links[lid.0 as usize].link.params().bandwidth))
            .collect();
        let removed: Vec<LinkId> = old_links
            .difference(&new_tree.links)
            .filter(|&&lid| inner.reservations.holds(g.reservation_vc(), lid))
            .copied()
            .collect();
        if !added.is_empty() {
            if let Err(e) = inner
                .reservations
                .admit_links(g.reservation_vc(), &added, bandwidth)
            {
                // Keep the old tree and membership so a later retry (or a
                // renegotiation to a thinner rate) starts from known state.
                for &m in &unreachable {
                    inner.groups[g.0 as usize].members.insert(m);
                }
                drop(inner);
                self.trace_reserve("net.group.refresh", g.0 as u64, bandwidth, &Err(e));
                return Err(e);
            }
        }
        inner
            .reservations
            .release_links(g.reservation_vc(), &removed);
        inner.groups[g.0 as usize].tree = new_tree;
        drop(inner);
        self.trace_reserve("net.group.refresh", g.0 as u64, bandwidth, &Ok(()));
        Ok(GroupRefresh {
            unreachable,
            links_added: added.len(),
            links_removed: removed.len(),
        })
    }

    /// Dissolve `g`: drop all members, release every tree reservation and
    /// the group's hold on its parent forest. Later operations on `g` are
    /// no-ops: joins find no path, refreshes and leaves change nothing.
    pub fn group_release(&self, g: GroupId) {
        let mut inner = self.inner.borrow_mut();
        inner.reservations.release(g.reservation_vc());
        let group = &mut inner.groups[g.0 as usize];
        group.members.clear();
        group.parent = None;
        group.tree = Rc::new(GroupTree::empty(group.root));
    }

    /// The group's current tree snapshot.
    pub fn group_tree(&self, g: GroupId) -> Rc<GroupTree> {
        self.inner.borrow().groups[g.0 as usize].tree.clone()
    }

    /// Current members of the group, in address order.
    pub fn group_members(&self, g: GroupId) -> Vec<NetAddr> {
        self.inner.borrow().groups[g.0 as usize]
            .members
            .iter()
            .copied()
            .collect()
    }

    /// QoS achievable on the tree path from `g`'s root to `member` (whether
    /// or not it has joined yet) — the provider's offer for per-receiver
    /// admission. `None` if unreachable.
    pub fn group_path_qos(&self, g: GroupId, member: NetAddr, mtu: usize) -> Option<QosParams> {
        let path = {
            let inner = self.inner.borrow();
            let group = &inner.groups[g.0 as usize];
            if member == group.root {
                return None;
            }
            // Full parent-walk (ignore the current tree): the branch a
            // packet would traverse root → member.
            let mut acc = Vec::new();
            let mut v = member;
            while v != group.root {
                let (p, lid) = group.parent_of(v)?;
                acc.push(lid);
                v = p;
            }
            acc
        };
        Some(self.qos_over_links(&path, mtu))
    }

    /// Inject `pkt` into group `g` at its root. The packet is forwarded
    /// once per tree link and copied only at branch points; a copy is
    /// delivered to every member (with `dst` rewritten to that member).
    /// The tree is snapshotted now: later joins/leaves do not affect this
    /// packet.
    pub fn send_to_group(&self, g: GroupId, mut pkt: Packet) {
        let tree = self.group_tree(g);
        pkt.mgroup = Some(g);
        let root = tree.root;
        if !self.is_node_up(root) {
            self.inner.borrow_mut().counters.node_down += 1;
            self.trace_drop(self.engine.now(), None, "node_down");
            return;
        }
        self.mcast_forward(&tree, root, pkt);
    }

    /// A flight fired: continue the packet's journey at its landing node.
    /// Takes the network's pieces by reference so the engine dispatcher can
    /// relay a mid-path hop without cloning any `Rc`.
    fn dispatch_flight(engine: &Engine, inner: &Rc<RefCell<NetworkInner>>, mut cell: FlightCell) {
        let f = (*cell).as_ref().expect("fired flight cell is full");
        // Relay: a unicast flight short of its destination rides the same
        // cell onward — no copy, `hop_cell` just rewrites the next node.
        if matches!(f.kind, FlightKind::Unicast) && f.pkt.dst != f.next {
            Self::hop_cell_parts(engine, engine.telemetry(), inner, cell);
            return;
        }
        // Terminal: unicast arrival, or a multicast tree node. Fault check
        // first: a flight whose carrying link or landing node died after it
        // was scheduled never lands.
        {
            let mut inn = inner.borrow_mut();
            let via_down = f.via.is_some_and(|l| !inn.links[l.0 as usize].up);
            let node_down = !inn.nodes[f.next.0 as usize].up;
            if via_down || node_down {
                let (reason, lid) = if via_down {
                    inn.counters.link_down += 1;
                    ("link_down", f.via)
                } else {
                    inn.counters.node_down += 1;
                    ("node_down", None)
                };
                drop(inn);
                (*cell).take();
                engine.recycle_flight_cell(cell);
                Self::trace_drop_parts(engine.telemetry(), engine.now(), lid, reason);
                return;
            }
        }
        // Handlers get a full `&Network`, so rebuild the owned handle here
        // only.
        let net = Network {
            tel: engine.telemetry().clone(),
            engine: engine.clone(),
            inner: inner.clone(),
        };
        let f = (*cell).take().expect("fired flight cell is full");
        net.engine.recycle_flight_cell(cell);
        match f.kind {
            FlightKind::Unicast => net.arrive(f.next, f.pkt),
            FlightKind::Mcast(tree) => net.mcast_arrive(tree, f.next, f.pkt),
        }
    }

    /// Submit `pkt` to `lid` under one `inner` borrow, folding the drop
    /// counters in. `Err` carries the telemetry reason for the drop.
    fn submit_to_link(
        &self,
        now: SimTime,
        lid: LinkId,
        pkt: &Packet,
    ) -> Result<(SimTime, bool, NetAddr, SimDuration), &'static str> {
        let mut inner = self.inner.borrow_mut();
        if !inner.links[lid.0 as usize].up {
            inner.counters.link_down += 1;
            return Err("link_down");
        }
        let ls = &mut inner.links[lid.0 as usize];
        let next = ls.to;
        match ls.link.submit(now, pkt.class, pkt.wire_size) {
            LinkOutcome::Deliver {
                arrival,
                corrupted,
                queued,
            } => Ok((arrival, corrupted, next, queued)),
            LinkOutcome::Drop(DropReason::QueueOverflow) => {
                inner.counters.queue_overflow += 1;
                Err("queue_overflow")
            }
            LinkOutcome::Drop(DropReason::Loss) => {
                inner.counters.link_loss += 1;
                Err("loss")
            }
        }
    }

    /// Forward a group packet over the tree edges leaving `at`. The packet
    /// moves (not clones) onto the last outgoing edge; earlier branch
    /// copies are field copies plus payload-`Rc` bumps.
    fn mcast_forward(&self, tree: &Rc<GroupTree>, at: NetAddr, pkt: Packet) {
        let now = self.engine.now();
        let Some(outs) = tree.out_links.get(&at) else {
            return;
        };
        let last = outs.len() - 1;
        let mut pkt = Some(pkt);
        for (i, &lid) in outs.iter().enumerate() {
            let p = pkt.as_ref().expect("packet moved before last branch");
            match self.submit_to_link(now, lid, p) {
                Ok((arrival, corrupted, next, queued)) => {
                    self.trace_tx(now, lid, p, arrival);
                    let mut branch_pkt = if i == last {
                        pkt.take().expect("last branch takes the packet")
                    } else {
                        p.clone()
                    };
                    branch_pkt.corrupted |= corrupted;
                    // Branch copies inherit the upstream queue wait and then
                    // accumulate their own — per-receiver attribution.
                    if let Some(t) = branch_pkt.trace.as_mut() {
                        t.queued_us += queued.as_micros();
                    }
                    self.engine.schedule_flight(
                        arrival,
                        PacketFlight {
                            next,
                            via: Some(lid),
                            pkt: branch_pkt,
                            kind: FlightKind::Mcast(tree.clone()),
                        },
                    );
                }
                Err(reason) => self.trace_drop(now, Some(lid), reason),
            }
        }
    }

    /// A group packet reached `node`: deliver locally if it is a member,
    /// then keep forwarding down the subtree. A leaf member (no outgoing
    /// tree edges) takes the packet by move — no copy at the fan-out edge.
    fn mcast_arrive(&self, tree: Rc<GroupTree>, node: NetAddr, mut pkt: Packet) {
        let has_out = tree.out_links.get(&node).is_some_and(|o| !o.is_empty());
        if tree.members.contains(&node) {
            if !has_out {
                pkt.dst = node;
                self.arrive(node, pkt);
                return;
            }
            let mut copy = pkt.clone();
            copy.dst = node;
            self.arrive(node, copy);
        }
        if has_out {
            self.mcast_forward(&tree, node, pkt);
        }
    }

    /// Inject a packet at `from` and route it toward `pkt.dst`.
    ///
    /// Local delivery (`from == pkt.dst`) is scheduled after a fixed 10 µs
    /// intra-host hop, preserving "no handler runs inside its caller".
    pub fn send(&self, from: NetAddr, pkt: Packet) {
        if from == pkt.dst {
            let next = pkt.dst;
            self.engine.schedule_flight_in(
                SimDuration::from_micros(10),
                PacketFlight {
                    next,
                    via: None,
                    pkt,
                    kind: FlightKind::Unicast,
                },
            );
            return;
        }
        let mut cell = self.engine.take_flight_cell();
        *cell = Some(PacketFlight {
            next: from,
            via: None,
            pkt,
            kind: FlightKind::Unicast,
        });
        self.hop_cell(cell);
    }

    /// Forward the flight in `cell` one hop from its current node
    /// (`f.next`): one `inner` borrow for routing, link submission and
    /// counters, then the same cell goes back on the wheel with its next
    /// node rewritten — no boxed closure, no `Network` clone, and the
    /// packet is never copied between injection and delivery.
    fn hop_cell(&self, cell: FlightCell) {
        Self::hop_cell_parts(&self.engine, &self.tel, &self.inner, cell);
    }

    /// [`Network::hop_cell`] on borrowed parts — the form the engine's
    /// flight dispatcher calls so a relay hop does zero `Rc` traffic.
    fn hop_cell_parts(
        engine: &Engine,
        tel: &Telemetry,
        inner: &RefCell<NetworkInner>,
        mut cell: FlightCell,
    ) {
        let now = engine.now();
        let f = (*cell).as_mut().expect("flight cell is full");
        // Routing, link submission and counters under a single borrow. The
        // fault checks come first: a dead carrying link or a dead relay
        // node swallows the flight.
        let outcome = {
            let mut inner = inner.borrow_mut();
            if f.via.is_some_and(|l| !inner.links[l.0 as usize].up) {
                inner.counters.link_down += 1;
                Err((f.via, "link_down"))
            } else if !inner.nodes[f.next.0 as usize].up {
                inner.counters.node_down += 1;
                Err((None, "node_down"))
            } else {
                match inner.next_hop(f.next, f.pkt.dst) {
                    None => {
                        inner.counters.no_route += 1;
                        Err((None, "no_route"))
                    }
                    Some(lid) => {
                        let ls = &mut inner.links[lid.0 as usize];
                        let next = ls.to;
                        match ls.link.submit(now, f.pkt.class, f.pkt.wire_size) {
                            LinkOutcome::Deliver {
                                arrival,
                                corrupted,
                                queued,
                            } => Ok((arrival, corrupted, next, lid, queued)),
                            LinkOutcome::Drop(DropReason::QueueOverflow) => {
                                inner.counters.queue_overflow += 1;
                                Err((Some(lid), "queue_overflow"))
                            }
                            LinkOutcome::Drop(DropReason::Loss) => {
                                inner.counters.link_loss += 1;
                                Err((Some(lid), "loss"))
                            }
                        }
                    }
                }
            }
        };
        match outcome {
            Ok((arrival, corrupted, next, lid, queued)) => {
                Self::trace_tx_parts(tel, now, lid, &f.pkt, arrival);
                f.pkt.corrupted |= corrupted;
                if let Some(t) = f.pkt.trace.as_mut() {
                    t.queued_us += queued.as_micros();
                }
                f.next = next;
                f.via = Some(lid);
                engine.schedule_flight_cell(arrival, cell);
            }
            Err((lid, reason)) => {
                engine.recycle_flight_cell(cell);
                Self::trace_drop_parts(tel, now, lid, reason);
            }
        }
    }

    /// One packet accepted by a link: a `net.link.tx` span covering the
    /// submit → arrival interval (queueing + transmission + propagation).
    fn trace_tx(&self, now: SimTime, lid: LinkId, pkt: &Packet, arrival: SimTime) {
        Self::trace_tx_parts(&self.tel, now, lid, pkt, arrival);
    }

    fn trace_tx_parts(tel: &Telemetry, now: SimTime, lid: LinkId, pkt: &Packet, arrival: SimTime) {
        if !tel.enabled() {
            return;
        }
        tel.span(now, arrival - now, Layer::Netsim, "net.link.tx", |e| {
            e.u64("link", lid.0 as u64)
                .u64("bytes", pkt.wire_size as u64)
                .str("class", pkt.class.name());
        });
    }

    /// One packet dropped inside the network (no route, queue overflow or
    /// the link's loss process).
    fn trace_drop(&self, now: SimTime, lid: Option<LinkId>, reason: &'static str) {
        Self::trace_drop_parts(&self.tel, now, lid, reason);
    }

    fn trace_drop_parts(tel: &Telemetry, now: SimTime, lid: Option<LinkId>, reason: &'static str) {
        if !tel.enabled() {
            return;
        }
        tel.count("net.pkt.drop", 1);
        tel.instant(now, Layer::Netsim, "net.pkt.drop", |e| {
            if let Some(l) = lid {
                e.u64("link", l.0 as u64);
            }
            e.str("reason", reason);
        });
    }

    /// Final delivery at the destination node.
    fn arrive(&self, node: NetAddr, pkt: Packet) {
        let handler = {
            let mut inner = self.inner.borrow_mut();
            let h = inner.nodes[node.0 as usize].handler.clone();
            if h.is_some() {
                inner.counters.delivered += 1;
            } else {
                inner.counters.no_handler += 1;
            }
            h
        };
        if self.tel.enabled() {
            let now = self.engine.now();
            self.tel.count("net.pkt.delivered", 1);
            self.tel
                .record_duration("net.pkt.latency_us", now - pkt.sent_at);
            if handler.is_none() {
                self.tel
                    .instant(now, Layer::Netsim, "net.pkt.no_handler", |e| {
                        e.u64("node", node.0 as u64);
                    });
            }
        }
        if let Some(h) = handler {
            h.on_packet(self, node, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketClass;
    use std::cell::RefCell;

    /// Collects every packet delivered to it, with arrival times.
    pub struct Collector {
        pub got: RefCell<Vec<(SimTime, Packet)>>,
    }

    impl Collector {
        pub fn new() -> Rc<Collector> {
            Rc::new(Collector {
                got: RefCell::new(Vec::new()),
            })
        }
    }

    impl NodeHandler for Collector {
        fn on_packet(&self, net: &Network, _at: NetAddr, pkt: Packet) {
            self.got.borrow_mut().push((net.engine().now(), pkt));
        }
    }

    fn line3() -> (Network, NetAddr, NetAddr, NetAddr, Rc<Collector>) {
        // a --10Mb/1ms-- b --10Mb/1ms-- c
        let net = Network::new(Engine::new());
        let mut rng = DetRng::from_seed(11);
        let a = net.add_node(NodeClock::perfect());
        let b = net.add_node(NodeClock::perfect());
        let c = net.add_node(NodeClock::perfect());
        let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
        net.add_duplex(a, b, p.clone(), &mut rng);
        net.add_duplex(b, c, p, &mut rng);
        let col = Collector::new();
        net.set_handler(c, col.clone());
        (net, a, b, c, col)
    }

    #[test]
    fn multi_hop_delivery_and_timing() {
        let (net, a, _b, c, col) = line3();
        // 1250 B: 1 ms tx + 1 ms prop per hop = 4 ms total.
        net.send(a, Packet::control(a, c, 1250, net.engine().now(), "x"));
        net.engine().run();
        let got = col.got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(4));
        assert_eq!(got[0].1.payload_as::<&str>(), Some(&"x"));
    }

    #[test]
    fn route_is_shortest() {
        let (net, a, b, c, _) = line3();
        assert_eq!(net.route(a, c).unwrap().len(), 2);
        assert_eq!(net.route(a, b).unwrap().len(), 1);
        assert_eq!(net.route(a, a).unwrap().len(), 0);
    }

    #[test]
    fn unreachable_is_counted() {
        let net = Network::new(Engine::new());
        let a = net.add_node(NodeClock::perfect());
        let _lonely = net.add_node(NodeClock::perfect());
        net.send(a, Packet::control(a, NetAddr(1), 100, SimTime::ZERO, ()));
        net.engine().run();
        assert_eq!(net.counters().no_route, 1);
    }

    #[test]
    fn local_delivery_loops_back() {
        let net = Network::new(Engine::new());
        let a = net.add_node(NodeClock::perfect());
        let col = Collector::new();
        net.set_handler(a, col.clone());
        net.send(a, Packet::control(a, a, 10, SimTime::ZERO, 7u32));
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 1);
        assert_eq!(col.got.borrow()[0].0, SimTime::from_micros(10));
    }

    #[test]
    fn no_handler_is_counted_not_fatal() {
        let (net, a, _b, c, _col) = line3();
        // Remove handler by pointing packets at b (which has none).
        net.send(a, Packet::control(a, NetAddr(1), 100, SimTime::ZERO, ()));
        let _ = c;
        net.engine().run();
        assert_eq!(net.counters().no_handler, 1);
    }

    #[test]
    fn path_qos_estimates_route() {
        let (net, a, _b, c, _) = line3();
        let q = net.path_qos(a, c, 1250).unwrap();
        assert_eq!(q.throughput, Bandwidth::mbps(10));
        // 2 × (1 ms prop + 1 ms tx).
        assert_eq!(q.delay, SimDuration::from_millis(4));
        assert_eq!(q.jitter, SimDuration::ZERO);
        assert_eq!(q.packet_error_rate, ErrorRate::ZERO);
    }

    #[test]
    fn data_class_carries_vc_and_queues() {
        use cm_core::address::VcId;
        let (net, a, _b, c, col) = line3();
        for i in 0..3u64 {
            net.send(a, Packet::data(a, c, VcId(1), 12_500, SimTime::ZERO, i));
        }
        net.engine().run();
        let got = col.got.borrow();
        assert_eq!(got.len(), 3);
        // 12.5 KB at 10 Mb/s = 10 ms tx per packet per hop; pipelined over
        // two hops: first arrives at 22 ms, then every 10 ms.
        assert_eq!(got[0].0, SimTime::from_millis(22));
        assert_eq!(got[1].0, SimTime::from_millis(32));
        assert_eq!(got[2].0, SimTime::from_millis(42));
        // FIFO payload order preserved.
        let tags: Vec<u64> = got
            .iter()
            .map(|(_, p)| *p.payload_as::<u64>().unwrap())
            .collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn topology_freezes_after_routing() {
        let (net, a, b, _c, _) = line3();
        net.route(a, b);
        net.add_link(
            a,
            b,
            LinkParams::clean(Bandwidth::mbps(1), SimDuration::ZERO),
            DetRng::from_seed(0),
        );
    }

    /// Star-of-chains topology for multicast tests:
    /// `root — hub — {r0, r1, r2}` (duplex everywhere, 10 Mb/s, 1 ms).
    fn mcast_net() -> (Network, NetAddr, NetAddr, [NetAddr; 3], Vec<Rc<Collector>>) {
        let net = Network::new(Engine::new());
        let mut rng = DetRng::from_seed(23);
        let root = net.add_node(NodeClock::perfect());
        let hub = net.add_node(NodeClock::perfect());
        let rs = [
            net.add_node(NodeClock::perfect()),
            net.add_node(NodeClock::perfect()),
            net.add_node(NodeClock::perfect()),
        ];
        let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
        net.add_duplex(root, hub, p.clone(), &mut rng);
        let mut cols = Vec::new();
        for &r in &rs {
            net.add_duplex(hub, r, p.clone(), &mut rng);
            let c = Collector::new();
            net.set_handler(r, c.clone());
            cols.push(c);
        }
        (net, root, hub, rs, cols)
    }

    #[test]
    fn group_delivers_exactly_once_per_member() {
        let (net, root, _hub, rs, cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        for &r in &rs {
            net.group_join(g, r).unwrap().unwrap();
        }
        for i in 0..5u64 {
            net.send_to_group(
                g,
                Packet::group(
                    root,
                    g,
                    None,
                    PacketClass::Data,
                    1000,
                    net.engine().now(),
                    i,
                ),
            );
        }
        net.engine().run();
        for (i, c) in cols.iter().enumerate() {
            let got = c.got.borrow();
            assert_eq!(got.len(), 5, "receiver {i}");
            let tags: Vec<u64> = got
                .iter()
                .map(|(_, p)| *p.payload_as::<u64>().unwrap())
                .collect();
            assert_eq!(tags, vec![0, 1, 2, 3, 4]);
            assert_eq!(got[0].1.dst, rs[i]);
            assert_eq!(got[0].1.mgroup, Some(g));
        }
    }

    #[test]
    fn shared_link_carries_stream_once() {
        let (net, root, _hub, rs, _cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        for &r in &rs {
            net.group_join(g, r).unwrap().unwrap();
        }
        let first_hop = net.route(root, rs[0]).unwrap()[0];
        for i in 0..10u64 {
            net.send_to_group(
                g,
                Packet::group(
                    root,
                    g,
                    None,
                    PacketClass::Data,
                    1000,
                    net.engine().now(),
                    i,
                ),
            );
        }
        net.engine().run();
        // 3 receivers, but the root→hub link carried each packet once.
        assert_eq!(net.link_counters(first_hop).submitted, 10);
        assert_eq!(net.link_counters(first_hop).bytes, 10_000);
    }

    #[test]
    fn join_reserves_branch_only_and_leave_releases_it() {
        let (net, root, hub, rs, _cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        let shared = net.route(root, rs[0]).unwrap()[0]; // root→hub
        net.group_join(g, rs[0]).unwrap().unwrap();
        let b0 = net.route(root, rs[0]).unwrap()[1]; // hub→r0
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
        assert_eq!(net.reserved_on(b0), Bandwidth::mbps(2));
        // Second join charges only its own branch; shared link unchanged.
        net.group_join(g, rs[1]).unwrap().unwrap();
        let b1 = net.route(hub, rs[1]).unwrap()[0];
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
        assert_eq!(net.reserved_on(b1), Bandwidth::mbps(2));
        assert_eq!(net.reservation_count(), 1);
        // Leaving r0 releases hub→r0 but keeps the shared link (r1 lives).
        net.group_leave(g, rs[0]);
        assert_eq!(net.reserved_on(b0), Bandwidth::ZERO);
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
        // Last leave releases everything.
        net.group_leave(g, rs[1]);
        assert_eq!(net.reserved_on(shared), Bandwidth::ZERO);
        assert_eq!(net.reservation_count(), 0);
    }

    #[test]
    fn join_denied_leaves_members_untouched() {
        let (net, root, _hub, rs, _cols) = mcast_net();
        // Group wants 6 Mb/s per tree link; r0 joins, then a unicast VC
        // fills r1's branch so its graft must be denied.
        let g = net.create_group(root, Bandwidth::mbps(6));
        net.group_join(g, rs[0]).unwrap().unwrap();
        net.reserve_path(VcId(77), NetAddr(1), rs[1], Bandwidth::mbps(6))
            .unwrap()
            .unwrap();
        let denied = net.group_join(g, rs[1]).unwrap();
        assert!(matches!(
            denied,
            Err(AdmissionError::InsufficientBandwidth { .. })
        ));
        // r0's branch (and the shared link) still reserved.
        let shared = net.route(root, rs[0]).unwrap()[0];
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(6));
        assert_eq!(net.group_members(g), vec![rs[0]]);
    }

    #[test]
    fn in_flight_packets_use_send_time_tree() {
        let (net, root, _hub, rs, cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(1));
        net.group_join(g, rs[0]).unwrap().unwrap();
        net.group_join(g, rs[1]).unwrap().unwrap();
        // Send, then immediately change membership before delivery (~2 ms).
        net.send_to_group(
            g,
            Packet::group(
                root,
                g,
                None,
                PacketClass::Data,
                100,
                net.engine().now(),
                1u64,
            ),
        );
        net.group_leave(g, rs[0]);
        net.group_join(g, rs[2]).unwrap().unwrap();
        net.engine().run();
        // The in-flight packet went to the send-time members {r0, r1} only.
        assert_eq!(cols[0].got.borrow().len(), 1);
        assert_eq!(cols[1].got.borrow().len(), 1);
        assert_eq!(cols[2].got.borrow().len(), 0);
    }

    #[test]
    fn leaf_member_takes_packet_by_move() {
        // root — mid — leaf, both mid and leaf group members. An interior
        // member must clone for local delivery (the original keeps
        // forwarding), but a leaf member takes the packet by move: its
        // handler must see the payload Rc at strong count 1.
        struct CountProbe {
            seen: RefCell<Vec<(NetAddr, usize)>>,
        }
        impl NodeHandler for CountProbe {
            fn on_packet(&self, _net: &Network, at: NetAddr, pkt: Packet) {
                self.seen
                    .borrow_mut()
                    .push((at, Rc::strong_count(&pkt.payload)));
            }
        }
        let net = Network::new(Engine::new());
        let mut rng = DetRng::from_seed(31);
        let root = net.add_node(NodeClock::perfect());
        let mid = net.add_node(NodeClock::perfect());
        let leaf = net.add_node(NodeClock::perfect());
        let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
        net.add_duplex(root, mid, p.clone(), &mut rng);
        net.add_duplex(mid, leaf, p, &mut rng);
        let probe = Rc::new(CountProbe {
            seen: RefCell::new(Vec::new()),
        });
        net.set_handler(mid, probe.clone());
        net.set_handler(leaf, probe.clone());
        let g = net.create_group(root, Bandwidth::mbps(1));
        net.group_join(g, mid).unwrap().unwrap();
        net.group_join(g, leaf).unwrap().unwrap();
        net.send_to_group(
            g,
            Packet::group(
                root,
                g,
                None,
                PacketClass::Data,
                500,
                net.engine().now(),
                vec![0u8; 64],
            ),
        );
        net.engine().run();
        let seen = probe.seen.borrow();
        assert_eq!(seen.len(), 2);
        // Interior member: delivery clone + the original still in
        // `mcast_arrive`, about to be forwarded.
        assert_eq!(seen[0], (mid, 2));
        // Leaf member: the one and only Packet, moved all the way in.
        assert_eq!(seen[1], (leaf, 1));
    }

    #[test]
    fn unreachable_member_is_none() {
        let net = Network::new(Engine::new());
        let root = net.add_node(NodeClock::perfect());
        let lonely = net.add_node(NodeClock::perfect());
        let g = net.create_group(root, Bandwidth::mbps(1));
        assert!(net.group_join(g, lonely).is_none());
    }

    /// Square topology with two disjoint 2-hop paths a→c (via b, via d).
    fn square() -> (Network, [NetAddr; 4], Rc<Collector>) {
        let net = Network::new(Engine::new());
        let mut rng = DetRng::from_seed(41);
        let a = net.add_node(NodeClock::perfect());
        let b = net.add_node(NodeClock::perfect());
        let c = net.add_node(NodeClock::perfect());
        let d = net.add_node(NodeClock::perfect());
        let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
        net.add_duplex(a, b, p.clone(), &mut rng);
        net.add_duplex(b, c, p.clone(), &mut rng);
        net.add_duplex(a, d, p.clone(), &mut rng);
        net.add_duplex(d, c, p, &mut rng);
        let col = Collector::new();
        net.set_handler(c, col.clone());
        (net, [a, b, c, d], col)
    }

    #[test]
    fn link_down_reroutes_new_traffic() {
        let (net, [a, b, c, d], col) = square();
        // Primary route goes through b (first-added links win BFS ties).
        assert_eq!(net.route(a, c).unwrap()[0], net.links_between(a, b)[0]);
        net.set_link_up(net.links_between(a, b)[0], false);
        // Recomputed route detours through d, still 2 hops, no drops.
        assert_eq!(net.route(a, c).unwrap()[0], net.links_between(a, d)[0]);
        net.send(a, Packet::control(a, c, 100, net.engine().now(), 1u64));
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 1);
        assert_eq!(net.counters().link_down, 0);
    }

    #[test]
    fn link_down_drops_flights_riding_it() {
        let (net, [a, b, c, _d], col) = square();
        net.send(a, Packet::control(a, c, 100, net.engine().now(), 1u64));
        // The packet is mid-flight on a→b when the link dies under it.
        let ab = net.links_between(a, b)[0];
        net.engine().schedule_at(SimTime::from_micros(500), {
            let net = net.clone();
            move |_| net.set_link_up(ab, false)
        });
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 0);
        assert_eq!(net.counters().link_down, 1);
    }

    #[test]
    fn node_down_drops_in_flight_and_recovery_restores() {
        let (net, [a, b, c, _d], col) = square();
        net.send(a, Packet::control(a, c, 100, net.engine().now(), 1u64));
        // b crashes while the packet is in flight toward it.
        net.engine().schedule_at(SimTime::from_micros(500), {
            let net = net.clone();
            move |_| net.set_node_up(b, false)
        });
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 0);
        assert_eq!(net.counters().node_down, 1);
        // New traffic detours around the dead node…
        net.send(a, Packet::control(a, c, 100, net.engine().now(), 2u64));
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 1);
        // …and recovery makes b usable again.
        net.set_node_up(b, true);
        assert_eq!(net.route(a, c).unwrap()[0], net.links_between(a, b)[0]);
    }

    #[test]
    fn dead_destination_is_unroutable() {
        let (net, [a, _b, c, d], _col) = square();
        net.set_node_up(c, false);
        assert!(net.route(a, c).is_none());
        net.send(a, Packet::control(a, c, 100, net.engine().now(), 1u64));
        net.engine().run();
        assert_eq!(net.counters().no_route, 1);
        let _ = d;
    }

    #[test]
    fn fault_transitions_keep_topology_frozen() {
        let (net, [a, b, _c, _d], _col) = square();
        net.route(a, b);
        net.set_link_up(LinkId(0), false);
        net.set_link_up(LinkId(0), true);
        // Route caches were invalidated, but the topology stays frozen.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.add_link(
                a,
                b,
                LinkParams::clean(Bandwidth::mbps(1), SimDuration::ZERO),
                DetRng::from_seed(0),
            );
        }));
        assert!(r.is_err(), "add_link must still panic after fault churn");
    }

    /// `root—hubA—r` and `root—hubB—r`: the BFS forest prefers hubA.
    fn diamond() -> (Network, NetAddr, NetAddr, NetAddr, NetAddr) {
        let net = Network::new(Engine::new());
        let mut rng = DetRng::from_seed(43);
        let root = net.add_node(NodeClock::perfect());
        let hub_a = net.add_node(NodeClock::perfect());
        let hub_b = net.add_node(NodeClock::perfect());
        let r = net.add_node(NodeClock::perfect());
        let p = LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1));
        net.add_duplex(root, hub_a, p.clone(), &mut rng);
        net.add_duplex(root, hub_b, p.clone(), &mut rng);
        net.add_duplex(hub_a, r, p.clone(), &mut rng);
        net.add_duplex(hub_b, r, p, &mut rng);
        (net, root, hub_a, hub_b, r)
    }

    #[test]
    fn group_refresh_regrafts_around_dead_hub() {
        // The tree prefers hubA, then hubA dies and refresh moves the
        // branch (and its reservation) to hubB.
        let (net, root, hub_a, hub_b, r) = diamond();
        let g = net.create_group(root, Bandwidth::mbps(2));
        net.group_join(g, r).unwrap().unwrap();
        let via_a = net.links_between(hub_a, r)[0];
        let via_b = net.links_between(hub_b, r)[0];
        assert_eq!(net.reserved_on(via_a), Bandwidth::mbps(2));
        net.set_node_up(hub_a, false);
        let outcome = net.group_refresh(g).unwrap();
        assert!(outcome.unreachable.is_empty());
        assert_eq!(outcome.links_added, 2);
        assert_eq!(outcome.links_removed, 2);
        assert_eq!(net.reserved_on(via_a), Bandwidth::ZERO);
        assert_eq!(net.reserved_on(via_b), Bandwidth::mbps(2));
        assert_eq!(net.group_members(g), vec![r]);
        // Delivery works over the re-grafted tree.
        let col = Collector::new();
        net.set_handler(r, col.clone());
        net.send_to_group(
            g,
            Packet::group(
                root,
                g,
                None,
                PacketClass::Data,
                500,
                net.engine().now(),
                9u64,
            ),
        );
        net.engine().run();
        assert_eq!(col.got.borrow().len(), 1);
    }

    #[test]
    fn group_created_after_a_fault_uses_the_detoured_forest() {
        let (net, root, hub_a, hub_b, r) = diamond();
        let via_a = net.links_between(hub_a, r)[0];
        let via_b = net.links_between(hub_b, r)[0];
        let joined = net.create_group(root, Bandwidth::mbps(1));
        net.group_join(joined, r).unwrap().unwrap();
        // Made before the fault, joined after it.
        let empty = net.create_group(root, Bandwidth::mbps(1));
        net.set_node_up(hub_a, false);
        let fresh = net.create_group(root, Bandwidth::mbps(1));
        net.group_join(fresh, r).unwrap().unwrap();
        assert!(net.group_tree(fresh).links.contains(&via_b));
        // Older groups keep the forest they were made with...
        net.group_join(empty, r).unwrap().unwrap();
        assert!(net.group_tree(empty).links.contains(&via_a));
        assert!(net.group_tree(joined).links.contains(&via_a));
        // ...until a refresh moves them onto the detour.
        for g in [joined, empty] {
            net.group_refresh(g).unwrap();
            assert!(net.group_tree(g).links.contains(&via_b));
            assert!(!net.group_tree(g).links.contains(&via_a));
        }
        assert_eq!(net.reserved_on(via_a), Bandwidth::ZERO);
        assert_eq!(net.reserved_on(via_b), Bandwidth::mbps(3));
    }

    #[test]
    fn groups_share_their_root_forest_until_released() {
        let (net, root, _hub, rs, _cols) = mcast_net();
        let groups: Vec<GroupId> = (0..3)
            .map(|_| net.create_group(root, Bandwidth::mbps(1)))
            .collect();
        let forest = |g: GroupId| net.inner.borrow().groups[g.0 as usize].parent.clone();
        let shared = forest(groups[0]).expect("live group holds a forest");
        // The cache plus three groups, plus the clone above.
        assert_eq!(Rc::strong_count(&shared), 1 + 3 + 1);
        for &g in &groups {
            net.group_join(g, rs[0]).unwrap().unwrap();
            net.group_release(g);
            assert!(forest(g).is_none());
        }
        assert_eq!(Rc::strong_count(&shared), 1 + 1);
        // A fault transition drops the cache's reference too.
        net.set_node_up(rs[2], false);
        assert_eq!(Rc::strong_count(&shared), 1);
    }

    #[test]
    fn released_group_operations_are_inert() {
        let (net, root, _hub, rs, cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        net.group_join(g, rs[0]).unwrap().unwrap();
        net.group_release(g);
        assert_eq!(net.reservation_count(), 0);
        assert_eq!(net.group_join(g, rs[1]), None);
        assert_eq!(net.group_path_qos(g, rs[1], 1500), None);
        assert_eq!(net.group_refresh(g), Ok(GroupRefresh::default()));
        net.group_leave(g, rs[0]);
        assert_eq!(net.reservation_count(), 0);
        assert!(net.group_members(g).is_empty());
        assert!(net.group_tree(g).links.is_empty());
        net.send_to_group(
            g,
            Packet::group(
                root,
                g,
                None,
                PacketClass::Data,
                500,
                net.engine().now(),
                1u64,
            ),
        );
        net.engine().run();
        assert!(cols.iter().all(|c| c.got.borrow().is_empty()));
    }

    #[test]
    fn group_refresh_drops_unreachable_members() {
        let (net, root, hub, rs, _cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        for &r in &rs {
            net.group_join(g, r).unwrap().unwrap();
        }
        // r0 is cut off entirely (star topology: single access link pair).
        net.set_link_up(net.links_between(hub, rs[0])[0], false);
        net.set_link_up(net.links_between(rs[0], hub)[0], false);
        let outcome = net.group_refresh(g).unwrap();
        assert_eq!(outcome.unreachable, vec![rs[0]]);
        assert_eq!(net.group_members(g), vec![rs[1], rs[2]]);
        // r0's branch reservation was released, the rest kept.
        let b0 = net.links_between(hub, rs[0])[0];
        assert_eq!(net.reserved_on(b0), Bandwidth::ZERO);
        let shared = net.links_between(root, hub)[0];
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
    }

    #[test]
    fn revoke_reservation_frees_the_route() {
        let (net, [a, _b, c, _d], _col) = square();
        net.reserve_path(VcId(5), a, c, Bandwidth::mbps(4))
            .unwrap()
            .unwrap();
        assert_eq!(net.revoke_reservation(VcId(5)), Some(Bandwidth::mbps(4)));
        assert_eq!(net.revoke_reservation(VcId(5)), None);
        assert_eq!(net.reservation_count(), 0);
    }

    #[test]
    fn group_refresh_heals_a_revoked_tree_reservation() {
        let (net, root, hub, rs, _cols) = mcast_net();
        let g = net.create_group(root, Bandwidth::mbps(2));
        for &r in &rs {
            net.group_join(g, r).unwrap().unwrap();
        }
        let shared = net.links_between(root, hub)[0];
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
        // The network revokes the whole tree reservation out-of-band; the
        // tree itself is unchanged, so a refresh re-admits every tree link.
        let vc = g.reservation_vc();
        assert_eq!(net.revoke_reservation(vc), Some(Bandwidth::mbps(2)));
        assert_eq!(net.reserved_on(shared), Bandwidth::ZERO);
        let outcome = net.group_refresh(g).unwrap();
        assert!(outcome.unreachable.is_empty());
        assert_eq!(outcome.links_added, 1 + rs.len());
        assert_eq!(outcome.links_removed, 0);
        assert_eq!(net.reserved_on(shared), Bandwidth::mbps(2));
    }

    #[test]
    fn skewed_node_clock_readable() {
        let net = Network::new(Engine::new());
        let a = net.add_node(NodeClock::with_skew(100));
        net.engine().schedule_at(SimTime::from_secs(10_000), |_| {});
        net.engine().run();
        assert_eq!(net.local_time(a), SimTime::from_secs(10_001));
    }
}
