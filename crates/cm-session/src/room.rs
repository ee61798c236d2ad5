//! Rooms: the peer/stream registry and its admission control.
//!
//! A room admits a peer only when every published stream's group VC can
//! reach the peer's node within the stream's acceptable QoS tolerance —
//! the transport consults shared-tree path QoS and branch reservations
//! before confirming each subscription, so an unservable peer is denied
//! with a typed [`JoinDenied`] and the admitted receivers are untouched.

use crate::control::{RoomCtl, RoomOrchestrator};
use crate::health::{HealthEvent, HealthState};
use crate::session::{SessionInner, SinkBinding};
use cm_core::address::{NetAddr, TransportAddr, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::osdu::Osdu;
use cm_core::qos::{QosParams, QosRequirement};
use cm_core::service_class::ServiceClass;
use cm_core::time::SimDuration;
use cm_telemetry::{FieldSink, Layer};
use cm_transport::{QosReport, TransportService};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

/// Give an emptied map's root node back. An emptied `BTreeMap` keeps it
/// allocated, so a room that empties would otherwise hold memory for its
/// history rather than its live state.
pub(crate) fn release_if_empty<K, V>(map: &mut BTreeMap<K, V>) {
    if map.is_empty() {
        *map = BTreeMap::new();
    }
}

/// Remove the `i`th join in flight, releasing the buffer once none is left.
fn take_pending(pending: &mut Vec<PendingJoin>, i: usize) -> PendingJoin {
    let p = pending.remove(i);
    if pending.is_empty() {
        *pending = Vec::new();
    }
    p
}

/// Identifies a peer within one room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u64);

/// Why a room join was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinDenied {
    /// The room is at its configured peer capacity.
    RoomFull,
    /// Another peer (admitted or joining) already uses this name.
    NameTaken,
    /// Another peer already occupies this node — the session layer runs
    /// one agent (one group-VC sink set) per node.
    NodeInUse,
    /// The peer's network path cannot carry `stream` within its
    /// acceptable QoS tolerance, or the branch reservation was refused:
    /// `reason` is the transport's typed denial. Receivers already
    /// admitted to the stream are untouched.
    Qos {
        /// The stream whose subscription failed.
        stream: String,
        /// The transport-level denial.
        reason: DisconnectReason,
    },
    /// The owning [`Session`](crate::Session) has been dropped, so the
    /// room can no longer reach the platform. Keep the `Session` alive for
    /// as long as its rooms are in use.
    SessionClosed,
}

impl JoinDenied {
    /// Stable lower-case slug (telemetry fields).
    pub fn kind(&self) -> &'static str {
        match self {
            JoinDenied::RoomFull => "room_full",
            JoinDenied::NameTaken => "name_taken",
            JoinDenied::NodeInUse => "node_in_use",
            JoinDenied::Qos { .. } => "qos",
            JoinDenied::SessionClosed => "session_closed",
        }
    }
}

/// Callbacks delivered to a room member. Every method has a default empty
/// implementation, so members override only what they need.
#[allow(unused_variables)]
pub trait RoomMember {
    /// A new peer was admitted.
    fn on_peer_joined(&self, room: &str, peer: PeerId, name: &str) {}
    /// A peer left (or was removed with) the room.
    fn on_peer_left(&self, room: &str, peer: PeerId, name: &str) {}
    /// A stream was published into the room.
    fn on_stream_published(&self, room: &str, stream: &str, publisher: PeerId) {}
    /// A stream was withdrawn from the room.
    fn on_stream_closed(&self, room: &str, stream: &str) {}
    /// One logical unit of `stream` arrived at this member.
    fn on_media(&self, room: &str, stream: &str, osdu: Osdu) {}
    /// A room-wide orchestration opcode arrived on the group control
    /// channel.
    fn on_ctl(&self, room: &str, stream: &str, ctl: RoomCtl) {}
    /// This member could not be subscribed to a stream published after it
    /// joined (its membership is unaffected).
    fn on_subscribe_denied(&self, room: &str, stream: &str, reason: DisconnectReason) {}
    /// A room health transition: a branch degraded or recovered, or a
    /// peer was lost involuntarily (DESIGN.md §9). Without a handler the
    /// room still repairs its roster — this is the typed notification.
    fn on_health(&self, room: &str, event: &HealthEvent) {}
}

#[derive(Clone)]
struct PeerEntry {
    id: PeerId,
    /// Shared so roster broadcasts clone a refcount, not a heap string.
    name: Rc<str>,
    node: NetAddr,
    handler: Rc<dyn RoomMember>,
}

struct RoomStream {
    vc: VcId,
    publisher: PeerId,
    publisher_node: NetAddr,
}

/// One-shot verdict callback for a join in flight.
type JoinDone = Box<dyn FnOnce(Result<PeerId, JoinDenied>)>;

/// A join in flight: the candidate plus the per-stream subscriptions still
/// awaiting their transport admission verdict.
struct PendingJoin {
    entry: PeerEntry,
    /// Outstanding subscriptions: group VC → stream name.
    waiting: BTreeMap<VcId, String>,
    /// Subscriptions already confirmed (rolled back if a later one fails).
    admitted: Vec<VcId>,
    done: Option<JoinDone>,
}

struct RoomInner {
    name: String,
    session: Weak<SessionInner>,
    max_peers: usize,
    next_peer: Cell<u64>,
    peers: RefCell<BTreeMap<PeerId, PeerEntry>>,
    streams: RefCell<BTreeMap<String, RoomStream>>,
    pending: RefCell<Vec<PendingJoin>>,
    health: RefCell<HealthState>,
}

/// A handle to one room. Clones share the room state.
#[derive(Clone)]
pub struct Room {
    inner: Rc<RoomInner>,
}

impl Room {
    pub(crate) fn new(session: &Rc<SessionInner>, name: &str, max_peers: usize) -> Room {
        Room {
            inner: Rc::new(RoomInner {
                name: name.to_string(),
                session: Rc::downgrade(session),
                max_peers,
                next_peer: Cell::new(0),
                peers: RefCell::new(BTreeMap::new()),
                streams: RefCell::new(BTreeMap::new()),
                pending: RefCell::new(Vec::new()),
                health: RefCell::new(HealthState::default()),
            }),
        }
    }

    /// The room's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The admitted peers, in id order.
    pub fn peers(&self) -> Vec<(PeerId, String, NetAddr)> {
        self.inner
            .peers
            .borrow()
            .values()
            .map(|p| (p.id, p.name.to_string(), p.node))
            .collect()
    }

    /// The published stream names, in name order.
    pub fn streams(&self) -> Vec<String> {
        self.inner.streams.borrow().keys().cloned().collect()
    }

    /// The group VC behind a published stream.
    pub fn stream_vc(&self, stream: &str) -> Option<VcId> {
        self.inner.streams.borrow().get(stream).map(|s| s.vc)
    }

    /// The publisher-side transport service of a published stream (for
    /// writing media into the room).
    pub fn stream_service(&self, stream: &str) -> Option<TransportService> {
        let session = self.inner.session.upgrade()?;
        let node = self.inner.streams.borrow().get(stream)?.publisher_node;
        Some(session.platform.service(node))
    }

    /// Join the room from `node`. Capacity/name admission is checked
    /// immediately; QoS admission asks the transport to graft the peer
    /// onto every published stream's shared tree, which succeeds only if
    /// the path can carry the stream's worst-acceptable tolerance and the
    /// branch reservations are granted. The verdict arrives via `done`.
    pub fn join(
        &self,
        node: NetAddr,
        peer_name: &str,
        handler: Rc<dyn RoomMember>,
        done: impl FnOnce(Result<PeerId, JoinDenied>) + 'static,
    ) {
        let Some(session) = self.inner.session.upgrade() else {
            // No engine to schedule through any more: deliver the denial
            // synchronously rather than swallowing the callback.
            done(Err(JoinDenied::SessionClosed));
            return;
        };
        let engine = session.platform.engine().clone();
        let deny = {
            let peers = self.inner.peers.borrow();
            let pending = self.inner.pending.borrow();
            if peers.len() + pending.len() >= self.inner.max_peers {
                Some(JoinDenied::RoomFull)
            } else if peers.values().any(|p| &*p.name == peer_name)
                || pending.iter().any(|p| &*p.entry.name == peer_name)
            {
                Some(JoinDenied::NameTaken)
            } else if peers.values().any(|p| p.node == node)
                || pending.iter().any(|p| p.entry.node == node)
            {
                Some(JoinDenied::NodeInUse)
            } else {
                None
            }
        };
        if let Some(reason) = deny {
            self.trace("room.join.deny", |e| {
                e.text("peer_name", peer_name.to_string())
                    .str("reason", reason.kind());
            });
            engine.schedule_in(SimDuration::ZERO, move |_| done(Err(reason)));
            return;
        }
        let id = PeerId(self.inner.next_peer.get());
        self.inner.next_peer.set(id.0 + 1);
        let entry = PeerEntry {
            id,
            name: Rc::from(peer_name),
            node,
            handler,
        };
        let streams: Vec<(String, VcId, NetAddr)> = self
            .inner
            .streams
            .borrow()
            .iter()
            .map(|(n, s)| (n.clone(), s.vc, s.publisher_node))
            .collect();
        let agent = session.agent(node);
        let mut waiting = BTreeMap::new();
        for (sname, vc, publisher_node) in &streams {
            agent.expect_stream(
                *vc,
                SinkBinding {
                    room: self.inner.name.clone(),
                    stream: sname.clone(),
                    handler: entry.handler.clone(),
                },
            );
            match session
                .platform
                .service(*publisher_node)
                .t_group_add_receiver(*vc, agent.addr())
            {
                Ok(()) => {
                    waiting.insert(*vc, sname.clone());
                }
                Err(_) => agent.forget_stream(*vc),
            }
        }
        if waiting.is_empty() {
            // No streams to clear (or none reachable at the misuse level):
            // admit on capacity alone, as an event of its own.
            let room = self.clone();
            engine.schedule_in(SimDuration::ZERO, move |_| {
                room.admit(entry);
                done(Ok(id));
            });
            return;
        }
        self.inner.pending.borrow_mut().push(PendingJoin {
            entry,
            waiting,
            admitted: Vec::new(),
            done: Some(Box::new(done)),
        });
    }

    /// Leave the room: streams this peer published are closed for
    /// everyone; its sink branches on the remaining streams are pruned —
    /// releasing only that branch's reservations — and the remaining
    /// members are told.
    pub fn leave(&self, peer: PeerId) {
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let (entry, roster) = {
            let mut peers = self.inner.peers.borrow_mut();
            let Some(entry) = peers.remove(&peer) else {
                return;
            };
            release_if_empty(&mut peers);
            (entry, peers.len())
        };
        session.member_departed(roster);
        self.inner.health.borrow_mut().forget_member(entry.node);
        self.trace("room.leave", |e| {
            e.u64("peer", entry.id.0)
                .text("name", entry.name.to_string());
        });
        let published: Vec<String> = self
            .inner
            .streams
            .borrow()
            .iter()
            .filter(|(_, s)| s.publisher == peer)
            .map(|(n, _)| n.clone())
            .collect();
        for name in published {
            let _ = self.close_stream(&name);
        }
        let agent = session.agent(entry.node);
        let remaining: Vec<(VcId, NetAddr)> = self
            .inner
            .streams
            .borrow()
            .values()
            .map(|s| (s.vc, s.publisher_node))
            .collect();
        for (vc, publisher_node) in remaining {
            let _ = session
                .platform
                .service(publisher_node)
                .t_group_remove_receiver(vc, entry.node);
            agent.forget_stream(vc);
        }
        self.broadcast(None, |p| {
            p.handler
                .on_peer_left(&self.inner.name, entry.id, &entry.name)
        });
    }

    /// Publish a stream into the room: opens a group VC at the
    /// publisher's node, exports `room/<room>/stream/<name>` through the
    /// trader and invites every other member onto the shared tree.
    pub fn publish(
        &self,
        peer: PeerId,
        stream: &str,
        class: ServiceClass,
        qos: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        let session = self
            .inner
            .session
            .upgrade()
            .ok_or(ServiceError::WrongState("session gone"))?;
        let publisher = self
            .inner
            .peers
            .borrow()
            .get(&peer)
            .cloned()
            .ok_or(ServiceError::BadArgument("publisher is not a room peer"))?;
        if self.inner.streams.borrow().contains_key(stream) {
            return Err(ServiceError::BadArgument("stream name taken"));
        }
        let agent = session.agent(publisher.node);
        let vc = agent.svc.t_group_open(agent.tsap, class, qos)?;
        // Label the stream for attribution rollups: identical in home and
        // guest zones, so mirrored legs merge under one room key.
        if agent.svc.obs().enabled() {
            agent
                .svc
                .obs()
                .label(vc.0, &format!("room:{}/{}", self.inner.name, stream));
        }
        self.inner.streams.borrow_mut().insert(
            stream.to_string(),
            RoomStream {
                vc,
                publisher: peer,
                publisher_node: publisher.node,
            },
        );
        session.vc_rooms.borrow_mut().insert(vc, self.clone());
        session.platform.trader().export(
            &format!("room/{}/stream/{}", self.inner.name, stream),
            agent.addr(),
        );
        let members: Vec<PeerEntry> = self
            .inner
            .peers
            .borrow()
            .values()
            .filter(|p| p.id != peer)
            .cloned()
            .collect();
        for m in &members {
            let magent = session.agent(m.node);
            magent.expect_stream(
                vc,
                SinkBinding {
                    room: self.inner.name.clone(),
                    stream: stream.to_string(),
                    handler: m.handler.clone(),
                },
            );
            let _ = agent.svc.t_group_add_receiver(vc, magent.addr());
        }
        self.broadcast(None, |p| {
            p.handler
                .on_stream_published(&self.inner.name, stream, peer)
        });
        Ok(vc)
    }

    /// Withdraw a stream: close its group VC (disconnecting every member
    /// and releasing the whole shared tree) and retract its trader export.
    pub fn close_stream(&self, stream: &str) -> Result<(), ServiceError> {
        let session = self
            .inner
            .session
            .upgrade()
            .ok_or(ServiceError::WrongState("session gone"))?;
        let s = {
            let mut streams = self.inner.streams.borrow_mut();
            let s = streams.remove(stream);
            release_if_empty(&mut streams);
            s.ok_or(ServiceError::BadArgument("no such stream"))?
        };
        session.vc_rooms.borrow_mut().remove(&s.vc);
        self.inner.health.borrow_mut().forget_stream(s.vc);
        session
            .platform
            .trader()
            .withdraw(&format!("room/{}/stream/{}", self.inner.name, stream));
        let _ = session
            .platform
            .service(s.publisher_node)
            .t_group_close(s.vc);
        for p in self.inner.peers.borrow().values() {
            if let Some(agent) = session.agents.borrow().get(&p.node) {
                agent.forget_stream(s.vc);
            }
        }
        self.broadcast(None, |p| {
            p.handler.on_stream_closed(&self.inner.name, stream)
        });
        Ok(())
    }

    /// The room-wide orchestrator of a published stream.
    pub fn orchestrator(&self, stream: &str) -> Option<RoomOrchestrator> {
        let session = self.inner.session.upgrade()?;
        let streams = self.inner.streams.borrow();
        let s = streams.get(stream)?;
        Some(RoomOrchestrator::new(
            session.platform.service(s.publisher_node),
            s.vc,
        ))
    }

    /// Route one subscription verdict from the transport.
    pub(crate) fn on_join_confirm(
        &self,
        vc: VcId,
        member: TransportAddr,
        result: Result<QosParams, DisconnectReason>,
    ) {
        let mut pending = self.inner.pending.borrow_mut();
        let idx = pending
            .iter()
            .position(|p| p.entry.node == member.node && p.waiting.contains_key(&vc));
        let Some(i) = idx else {
            drop(pending);
            self.on_invite_confirm(vc, member, result);
            return;
        };
        match result {
            Ok(_) => {
                let complete = {
                    let p = &mut pending[i];
                    p.waiting.remove(&vc);
                    p.admitted.push(vc);
                    p.waiting.is_empty()
                };
                if complete {
                    let mut p = take_pending(&mut pending, i);
                    drop(pending);
                    let id = p.entry.id;
                    let done = p.done.take();
                    self.admit(p.entry);
                    if let Some(done) = done {
                        done(Ok(id));
                    }
                }
            }
            Err(reason) => {
                let mut p = take_pending(&mut pending, i);
                drop(pending);
                let stream = p.waiting.remove(&vc).unwrap_or_default();
                // Roll back every branch the candidate already holds (and
                // retract invitations still in flight) — only this
                // candidate's branches; admitted receivers are untouched.
                if let Some(session) = self.inner.session.upgrade() {
                    let agent = session.agent(p.entry.node);
                    agent.forget_stream(vc);
                    let others = p.admitted.iter().chain(p.waiting.keys());
                    for &ovc in others {
                        if let Some(publisher_node) = self.publisher_node_of(ovc) {
                            let _ = session
                                .platform
                                .service(publisher_node)
                                .t_group_remove_receiver(ovc, p.entry.node);
                        }
                        agent.forget_stream(ovc);
                    }
                }
                if let Some(done) = p.done.take() {
                    self.trace("room.join.deny", |e| {
                        e.text("peer_name", p.entry.name.to_string())
                            .str("reason", "qos")
                            .text("stream", stream.clone())
                            .str("transport_reason", reason.kind());
                    });
                    done(Err(JoinDenied::Qos { stream, reason }));
                }
            }
        }
    }

    /// A subscription verdict for an already-admitted member (a stream
    /// published after it joined).
    fn on_invite_confirm(
        &self,
        vc: VcId,
        member: TransportAddr,
        result: Result<QosParams, DisconnectReason>,
    ) {
        let Err(reason) = result else {
            return;
        };
        let stream = {
            let streams = self.inner.streams.borrow();
            streams
                .iter()
                .find(|(_, s)| s.vc == vc)
                .map(|(n, _)| n.clone())
        };
        let Some(stream) = stream else {
            return;
        };
        let handler = self
            .inner
            .peers
            .borrow()
            .values()
            .find(|p| p.node == member.node)
            .map(|p| p.handler.clone());
        if let Some(session) = self.inner.session.upgrade() {
            if let Some(agent) = session.agents.borrow().get(&member.node) {
                agent.forget_stream(vc);
            }
        }
        if let Some(h) = handler {
            h.on_subscribe_denied(&self.inner.name, &stream, reason);
        }
    }

    /// A per-member QoS violation report on a published stream's group VC
    /// (publisher side). Edge-detects into [`HealthEvent::Degraded`] and
    /// arms the recovery probe.
    pub(crate) fn on_group_qos(&self, vc: VcId, member: NetAddr, report: &QosReport) {
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let (stream, peer) = {
            let streams = self.inner.streams.borrow();
            let Some(stream) = streams
                .iter()
                .find(|(_, s)| s.vc == vc)
                .map(|(n, _)| n.clone())
            else {
                return;
            };
            let peers = self.inner.peers.borrow();
            let Some(peer) = peers.values().find(|p| p.node == member).map(|p| p.id) else {
                return;
            };
            (stream, peer)
        };
        let now = session.platform.engine().now();
        let newly = self
            .inner
            .health
            .borrow_mut()
            .report(vc, member, report.sample_period, now);
        if newly {
            self.trace("room.degraded", |e| {
                e.text("stream", stream.clone())
                    .u64("peer", peer.0)
                    .u64("violations", report.violations.len() as u64);
            });
            let ev = HealthEvent::Degraded {
                stream,
                peer,
                violations: report.violations.iter().map(|v| v.error_number()).collect(),
            };
            self.broadcast(None, |p| p.handler.on_health(&self.inner.name, &ev));
        }
        self.arm_recovery_probe(vc, member);
    }

    /// Schedule the pending recovery probe for a degraded branch, if the
    /// tracker wants one.
    fn arm_recovery_probe(&self, vc: VcId, member: NetAddr) {
        let Some(delay) = self.inner.health.borrow_mut().arm_probe(vc, member) else {
            return;
        };
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let weak = Rc::downgrade(&self.inner);
        session.platform.engine().schedule_in(delay, move |_| {
            if let Some(inner) = weak.upgrade() {
                Room { inner }.recovery_probe_fire(vc, member);
            }
        });
    }

    fn recovery_probe_fire(&self, vc: VcId, member: NetAddr) {
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let now = session.platform.engine().now();
        let verdict = self.inner.health.borrow_mut().probe(vc, member, now);
        match verdict {
            Some(true) => {
                let (stream, peer) = {
                    let streams = self.inner.streams.borrow();
                    let stream = streams
                        .iter()
                        .find(|(_, s)| s.vc == vc)
                        .map(|(n, _)| n.clone());
                    let peers = self.inner.peers.borrow();
                    let peer = peers.values().find(|p| p.node == member).map(|p| p.id);
                    (stream, peer)
                };
                let (Some(stream), Some(peer)) = (stream, peer) else {
                    return; // stream closed or peer gone while degraded
                };
                self.trace("room.recovered", |e| {
                    e.text("stream", stream.clone()).u64("peer", peer.0);
                });
                let ev = HealthEvent::Recovered { stream, peer };
                self.broadcast(None, |p| p.handler.on_health(&self.inner.name, &ev));
            }
            Some(false) => self.arm_recovery_probe(vc, member),
            None => {}
        }
    }

    /// A member left a stream's shared tree involuntarily (its node died
    /// or the branch could not be healed): evict it from the room and
    /// tell the survivors. Voluntary releases are roster traffic, not a
    /// health event.
    pub(crate) fn on_member_gone(
        &self,
        _vc: VcId,
        member: TransportAddr,
        reason: DisconnectReason,
    ) {
        if reason == DisconnectReason::UserRelease {
            return;
        }
        let peer = {
            let peers = self.inner.peers.borrow();
            peers.values().find(|p| p.node == member.node).map(|p| p.id)
        };
        // Several streams report the same dead member; the first eviction
        // empties the roster entry, the rest find nothing.
        if let Some(peer) = peer {
            self.evict(peer, reason);
        }
    }

    /// A member-side stream end died. Only the publisher's death explains
    /// a sink disconnect the publisher itself cannot report — confirmed
    /// against the infrastructure (as the transport healer and the
    /// supervisor do) before the publisher is declared lost.
    pub(crate) fn on_stream_dead(&self, vc: VcId, reason: DisconnectReason) {
        if reason == DisconnectReason::UserRelease {
            return;
        }
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let (publisher, publisher_node) = {
            let streams = self.inner.streams.borrow();
            let Some(s) = streams.values().find(|s| s.vc == vc) else {
                return;
            };
            (s.publisher, s.publisher_node)
        };
        let net = session.platform.service(publisher_node).network().clone();
        if net.is_node_up(publisher_node) {
            // The publisher is alive: a branch-level fault, which the
            // publisher-side leave indication reports with attribution.
            return;
        }
        self.evict(publisher, reason);
    }

    /// Remove a peer the infrastructure took from us: repair the roster
    /// (its streams closed, its branches pruned — all best-effort, the
    /// node may be gone) and broadcast the typed loss.
    fn evict(&self, peer: PeerId, reason: DisconnectReason) {
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let (entry, roster) = {
            let mut peers = self.inner.peers.borrow_mut();
            let Some(entry) = peers.remove(&peer) else {
                return;
            };
            release_if_empty(&mut peers);
            (entry, peers.len())
        };
        session.member_departed(roster);
        self.inner.health.borrow_mut().forget_member(entry.node);
        self.trace("room.member_lost", |e| {
            e.u64("peer", entry.id.0)
                .text("name", entry.name.to_string())
                .str("reason", reason.kind());
        });
        let published: Vec<String> = self
            .inner
            .streams
            .borrow()
            .iter()
            .filter(|(_, s)| s.publisher == peer)
            .map(|(n, _)| n.clone())
            .collect();
        for name in published {
            let _ = self.close_stream(&name);
        }
        let agent = session.agent(entry.node);
        let remaining: Vec<(VcId, NetAddr)> = self
            .inner
            .streams
            .borrow()
            .values()
            .map(|s| (s.vc, s.publisher_node))
            .collect();
        for (vc, publisher_node) in remaining {
            let _ = session
                .platform
                .service(publisher_node)
                .t_group_remove_receiver(vc, entry.node);
            agent.forget_stream(vc);
        }
        let ev = HealthEvent::MemberLost {
            peer: entry.id,
            name: entry.name.to_string(),
            reason,
        };
        self.broadcast(None, |p| {
            p.handler.on_health(&self.inner.name, &ev);
            p.handler
                .on_peer_left(&self.inner.name, entry.id, &entry.name);
        });
    }

    /// Streams×members currently in QoS violation (empty when healthy).
    pub fn degraded_branches(&self) -> Vec<(String, PeerId)> {
        let streams = self.inner.streams.borrow();
        let peers = self.inner.peers.borrow();
        self.inner
            .health
            .borrow()
            .degraded_branches()
            .into_iter()
            .filter_map(|(vc, node)| {
                let stream = streams.iter().find(|(_, s)| s.vc == vc)?.0.clone();
                let peer = peers.values().find(|p| p.node == node)?.id;
                Some((stream, peer))
            })
            .collect()
    }

    fn admit(&self, entry: PeerEntry) {
        self.trace("room.join", |e| {
            e.u64("peer", entry.id.0)
                .text("name", entry.name.to_string());
        });
        self.broadcast(None, |p| {
            p.handler
                .on_peer_joined(&self.inner.name, entry.id, &entry.name)
        });
        let roster = {
            let mut peers = self.inner.peers.borrow_mut();
            peers.insert(entry.id, entry);
            peers.len()
        };
        if let Some(session) = self.inner.session.upgrade() {
            session.member_admitted(roster);
        }
    }

    /// Emit one session-layer instant tagged with this room's name.
    fn trace(&self, name: &'static str, fields: impl FnOnce(&mut FieldSink)) {
        let Some(session) = self.inner.session.upgrade() else {
            return;
        };
        let engine = session.platform.engine();
        let tel = engine.telemetry();
        if tel.enabled() {
            tel.instant(engine.now(), Layer::Session, name, |e| {
                e.text("room", self.inner.name.clone());
                fields(e);
            });
        }
    }

    fn publisher_node_of(&self, vc: VcId) -> Option<NetAddr> {
        self.inner
            .streams
            .borrow()
            .values()
            .find(|s| s.vc == vc)
            .map(|s| s.publisher_node)
    }

    /// Call `f` on every admitted peer except `skip`, outside any borrow
    /// (handlers may call back into the room).
    fn broadcast(&self, skip: Option<PeerId>, f: impl Fn(&PeerEntry)) {
        let entries: Vec<PeerEntry> = self
            .inner
            .peers
            .borrow()
            .values()
            .filter(|p| Some(p.id) != skip)
            .cloned()
            .collect();
        for e in &entries {
            f(e);
        }
    }
}
