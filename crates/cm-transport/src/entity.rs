//! The per-node transport entity: connection management, demultiplexing
//! and the driver of the per-VC data path.
//!
//! One [`TransportEntity`] runs on every end-system, registered as the
//! node's packet handler. It implements the full service of §4:
//!
//! - three-party connection establishment and release (§3.5, §4.1.1,
//!   figures 2–3), with end-to-end QoS negotiation and ST-II-style
//!   resource reservation;
//! - QoS monitoring with `T-QoS.indication` (§4.1.2) and in-place QoS
//!   renegotiation (§4.1.3);
//! - the rate-based data path (paced transmission, credit backpressure,
//!   per-class error control) and the window-based baseline;
//! - the orchestration-facing hooks (§5–6): per-VC control channel, receive
//!   gating, source-side drops, rate retuning and blocking-time harvest.
//!
//! The data path itself is a sans-I/O machine ([`crate::datapath`]); this
//! entity is its one driver, for timer fires, packet demultiplexing and
//! service calls alike.
//!
//! **The driver rule.** The entity's state sits in one `RefCell`. Every
//! data-path input runs under exactly one borrow of it and leaves its
//! effects, in order, in the outbox; the driver then releases the borrow
//! and performs those effects in emission order — sends, timer arms,
//! buffer parks and wake-ups, user and tap dispatches (each an engine
//! event at the current instant), the egress tap, healing signals. No
//! effect is performed while the borrow is held, so anything an effect
//! calls back into finds the entity free; and since the emission order is
//! the order the effects always had, the engine schedule is unchanged.

use crate::datapath::{Ctx, Indication, Outbox, Output, TapEvent, To};
use crate::heal::HealReason;
use crate::monitor::QosMonitor;
use crate::service::{EgressTap, EntityConfig, TransportService, TransportUser, VcTap};
use crate::tpdu::{ControlMsg, DataTpdu, CONTROL_WIRE_SIZE};
use crate::vc::{SinkEnd, SourceEnd, Vc, VcPhase, VcRole};
use crate::window::GoBackNSender;
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::qos::{GuaranteeMode, QosParams, QosRequirement, QosTolerance};
use cm_core::service_class::{ProtocolProfile, ServiceClass};
use cm_core::slab::{Slab, SlabHandle};
use cm_core::time::{SimDuration, SimTime};
use cm_core::FastMap;
use cm_telemetry::{Layer, Telemetry};
use netsim::{Network, NodeHandler, Packet, PeriodicTimer};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// What travels inside simulated packets between transport entities.
pub(crate) enum WirePdu {
    /// Rate-profile data fragment.
    Data(DataTpdu),
    /// Window-profile data fragment with its window sequence number.
    WindowData { wseq: u64, tpdu: DataTpdu },
    /// Everything else.
    Control(ControlMsg),
}

/// Destination-side record of a connect awaiting the local user's response.
struct PendingDst {
    triple: AddressTriple,
    class: ServiceClass,
    requirement: QosRequirement,
    agreed: QosParams,
    capacity: u32,
    /// Set when the pending connect is a group-VC invitation: the backing
    /// multicast group, answered with `GroupConnectResponse`.
    group: Option<netsim::GroupId>,
    /// Group invitations only: first OSDU sequence this receiver is owed.
    start_seq: u64,
}

/// Source-side record of a connect in progress.
struct PendingSrc {
    triple: AddressTriple,
    class: ServiceClass,
    requirement: QosRequirement,
    /// Awaiting the local source user's T-Connect.response (remote connect
    /// leg 1) rather than the destination's answer.
    awaiting_user: bool,
}

/// Initiator-side record of a remote connect (initiator ∉ {source, dest}).
struct PendingRemote {
    triple: AddressTriple,
}

/// Everything the entity holds for one VC endpoint, in one slab slot:
/// the connection state plus the driver-side resources that serve it —
/// the orchestration taps, the self-healing state and the timers that
/// schedule the data path's inputs. One slot, one cache line
/// neighbourhood, one lookup.
pub(crate) struct VcEntry {
    pub(crate) vc: Vc,
    /// The orchestration tap, when registered.
    pub(crate) tap: Option<Rc<dyn VcTap>>,
    /// The source-side egress tap, when registered (fires synchronously
    /// inside `write_osdu`).
    pub(crate) egress: Option<Rc<dyn EgressTap>>,
    /// Self-healing state (probe timer + lifetime counters).
    pub(crate) heal: Option<crate::heal::HealState>,
    /// Pacing-tick timer (source ends); each re-arm implicitly drops the
    /// previous deadline. Attached after the entry is inserted so the
    /// closure can capture the slab handle; set back to `None` at
    /// teardown, which frees the engine's timer slot.
    tick: Option<PeriodicTimer>,
    /// Window RTO timer (source ends; same lifecycle as `tick`).
    rto: Option<PeriodicTimer>,
    /// Monitor period timer (monitored sink ends).
    monitor: Option<PeriodicTimer>,
}

/// A VC addressed by id (demultiplex points, service calls) or by its
/// slab handle (timers, wakers).
pub(crate) enum VcKey {
    Id(VcId),
    Handle(SlabHandle),
}

impl From<VcId> for VcKey {
    fn from(vc: VcId) -> VcKey {
        VcKey::Id(vc)
    }
}

impl From<SlabHandle> for VcKey {
    fn from(h: SlabHandle) -> VcKey {
        VcKey::Handle(h)
    }
}

/// Slab-indexed VC store. The id→handle map is consulted once per event
/// at the demultiplex point (packet arrival, service call); timers and
/// hot loops then address the slab directly through generation-tagged
/// handles. The map-keyed accessors keep the cold call sites unchanged.
pub(crate) struct VcTable {
    slots: Slab<VcEntry>,
    by_id: FastMap<VcId, SlabHandle>,
}

impl VcTable {
    fn new() -> VcTable {
        VcTable {
            slots: Slab::new(),
            by_id: FastMap::default(),
        }
    }

    /// Resolve an id to its slab handle (the once-per-event lookup).
    pub(crate) fn resolve(&self, vc: VcId) -> Option<SlabHandle> {
        self.by_id.get(&vc).copied()
    }

    /// The full entry behind a handle.
    pub(crate) fn at(&self, h: SlabHandle) -> Option<&VcEntry> {
        self.slots.get(h)
    }

    /// Mutable entry behind a handle.
    pub(crate) fn at_mut(&mut self, h: SlabHandle) -> Option<&mut VcEntry> {
        self.slots.get_mut(h)
    }

    /// The entry behind a key, with its handle.
    fn lookup(&mut self, key: VcKey) -> Option<(SlabHandle, &mut VcEntry)> {
        let h = match key {
            VcKey::Id(vc) => self.resolve(vc)?,
            VcKey::Handle(h) => h,
        };
        self.slots.get_mut(h).map(|e| (h, e))
    }

    /// The full entry behind an id.
    pub(crate) fn entry(&self, vc: &VcId) -> Option<&VcEntry> {
        self.resolve(*vc).and_then(|h| self.slots.get(h))
    }

    /// Mutable entry behind an id.
    pub(crate) fn entry_mut(&mut self, vc: &VcId) -> Option<&mut VcEntry> {
        let h = self.resolve(*vc)?;
        self.slots.get_mut(h)
    }

    pub(crate) fn get(&self, vc: &VcId) -> Option<&Vc> {
        self.entry(vc).map(|e| &e.vc)
    }

    pub(crate) fn get_mut(&mut self, vc: &VcId) -> Option<&mut Vc> {
        self.entry_mut(vc).map(|e| &mut e.vc)
    }

    /// Insert a fresh VC endpoint (taps, heal and timers start empty).
    /// Ids are wire-global and never reused, so a duplicate insert
    /// replaces the whole entry.
    pub(crate) fn insert(&mut self, vc: VcId, v: Vc) -> SlabHandle {
        if let Some(h) = self.resolve(vc) {
            self.slots.remove(h);
        }
        let h = self.slots.insert(VcEntry {
            vc: v,
            tap: None,
            egress: None,
            heal: None,
            tick: None,
            rto: None,
            monitor: None,
        });
        self.by_id.insert(vc, h);
        h
    }

    pub(crate) fn heal(&self, vc: &VcId) -> Option<&crate::heal::HealState> {
        self.entry(vc).and_then(|e| e.heal.as_ref())
    }

    pub(crate) fn heal_mut(&mut self, vc: &VcId) -> Option<&mut crate::heal::HealState> {
        self.entry_mut(vc).and_then(|e| e.heal.as_mut())
    }
}

pub(crate) struct State {
    pub(crate) users: FastMap<Tsap, Rc<dyn TransportUser>>,
    pub(crate) vcs: VcTable,
    pending_dst: FastMap<VcId, PendingDst>,
    pending_src: FastMap<VcId, PendingSrc>,
    pending_remote: FastMap<VcId, PendingRemote>,
    /// Remote-connect triples remembered at the initiator for later
    /// remote release.
    initiated: FastMap<VcId, AddressTriple>,
    next_vc: u64,
    /// The data path's reusable outbox, lent to one input at a time.
    outbox: Outbox,
}

/// The transport entity of one node.
pub struct TransportEntity {
    pub(crate) node: NetAddr,
    pub(crate) net: Network,
    pub(crate) config: EntityConfig,
    /// Cached clone of the engine-wide flight recorder.
    pub(crate) tel: Telemetry,
    /// Cached clone of the causal-tracing registry (from the config).
    pub(crate) obs: cm_obs::Obs,
    pub(crate) state: RefCell<State>,
}

/// The node handler: an `Rc` wrapper so event closures can hold the entity
/// strongly.
pub(crate) struct EntityRef(pub(crate) Rc<TransportEntity>);

impl NodeHandler for EntityRef {
    fn on_packet(&self, _net: &Network, _at: NetAddr, pkt: Packet) {
        TransportEntity::handle_packet(&self.0, pkt);
    }
}

impl TransportEntity {
    /// Create an entity for `node`, register it as the node's handler, and
    /// return its service interface.
    pub fn install(net: &Network, node: NetAddr, config: EntityConfig) -> TransportService {
        let entity = Rc::new(TransportEntity {
            node,
            net: net.clone(),
            obs: config.obs.clone(),
            config,
            tel: net.engine().telemetry().clone(),
            state: RefCell::new(State {
                users: FastMap::default(),
                vcs: VcTable::new(),
                pending_dst: FastMap::default(),
                pending_src: FastMap::default(),
                pending_remote: FastMap::default(),
                initiated: FastMap::default(),
                next_vc: 0,
                outbox: Outbox::default(),
            }),
        });
        net.set_handler(node, Rc::new(EntityRef(entity.clone())));
        TransportService::new(entity)
    }

    /// The causal-tracing registry this entity stamps spans into.
    pub(crate) fn obs(&self) -> &cm_obs::Obs {
        &self.obs
    }

    pub(crate) fn now(&self) -> SimTime {
        self.net.engine().now()
    }

    /// This node's local clock reading. The rate-based pacing clock runs
    /// on *local* time: real protocol engines pace off their own crystal,
    /// which is exactly the clock-rate discrepancy the orchestrator exists
    /// to correct (§3.6).
    pub(crate) fn local_now(&self) -> SimTime {
        self.net.local_time(self.node)
    }

    /// Convert a node-local instant to global engine time for scheduling.
    fn local_to_global(&self, local: SimTime) -> SimTime {
        self.net.clock(self.node).global_of(local)
    }

    pub(crate) fn alloc_vc(&self) -> VcId {
        let mut st = self.state.borrow_mut();
        st.next_vc += 1;
        VcId(((self.node.0 as u64 + 1) << 40) | st.next_vc)
    }

    pub(crate) fn send_control(&self, to: NetAddr, msg: ControlMsg) {
        let pkt = Packet::control(
            self.node,
            to,
            CONTROL_WIRE_SIZE,
            self.now(),
            WirePdu::Control(msg),
        );
        self.net.send(self.node, pkt);
    }

    // ------------------------------------------------------------------
    // The data-path driver
    // ------------------------------------------------------------------

    fn ctx<'a>(&'a self, local: &'a dyn Fn() -> SimTime) -> Ctx<'a> {
        Ctx {
            now: self.now(),
            local,
            node: self.node,
            mtu: self.config.mtu,
            rto_patience: self.config.heal_rto_patience,
            tel: &self.tel,
            obs: &self.obs,
        }
    }

    /// Run one data-path input against the VC behind `key`: the input
    /// runs under one state borrow and fills the outbox; the borrow is
    /// released and the outputs are performed in emission order. `None`
    /// when no such VC exists.
    pub(crate) fn drive<R>(
        self: &Rc<Self>,
        key: impl Into<VcKey>,
        input: impl FnOnce(&mut VcEntry, &Ctx<'_>, &mut Outbox) -> R,
    ) -> Option<R> {
        let local = || self.local_now();
        let cx = self.ctx(&local);
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let (h, e) = st.vcs.lookup(key.into())?;
        let (vc, r) = (e.vc.id, input(e, &cx, &mut st.outbox));
        if st.outbox.is_empty() {
            return Some(r);
        }
        // Perform with the borrow released. An effect may re-enter the
        // driver (the egress tap may write): the nested input finds the
        // outbox empty and fills its own.
        let mut out = st.outbox.take_out();
        drop(guard);
        for o in out.drain(..) {
            self.perform(h, vc, cx.now, o);
        }
        self.state.borrow_mut().outbox.give_back(out);
        Some(r)
    }

    /// Perform one output of VC `vc` (behind `h`) at `now`, with no
    /// state borrow held across the effect.
    fn perform(self: &Rc<Self>, h: SlabHandle, vc: VcId, now: SimTime, o: Output) {
        match o {
            Output::Data { to, tpdu } => {
                let (seq, wire) = (tpdu.osdu_seq, tpdu.wire_size());
                let pdu = WirePdu::Data(tpdu);
                let pkt = match to {
                    To::Node(node) => Packet::data(self.node, node, vc, wire, now, pdu),
                    To::Group(g) => Packet::group(
                        self.node,
                        g,
                        Some(vc),
                        netsim::PacketClass::Data,
                        wire,
                        now,
                        pdu,
                    ),
                };
                self.send(to, self.traced(pkt, vc, seq));
            }
            Output::WindowData { to, wseq, tpdu } => {
                let (seq, wire) = (tpdu.osdu_seq, tpdu.wire_size());
                let pdu = WirePdu::WindowData { wseq, tpdu };
                let pkt = Packet::data(self.node, to, vc, wire, now, pdu);
                self.net.send(self.node, self.traced(pkt, vc, seq));
            }
            Output::Control {
                to: To::Node(node),
                msg,
            } => self.send_control(node, msg.into_control(vc)),
            Output::Control {
                to: To::Group(g),
                msg,
            } => {
                let msg = msg.into_control(vc);
                let pkt = Packet::group(
                    self.node,
                    g,
                    Some(vc),
                    netsim::PacketClass::Control,
                    CONTROL_WIRE_SIZE,
                    now,
                    WirePdu::Control(msg),
                );
                self.net.send_to_group(g, pkt);
            }
            Output::ArmTick { local, floor } => {
                let at = self.local_to_global(local).max(floor);
                self.timer(h, |e| &e.tick, |t| t.arm_at(at));
            }
            Output::DisarmTick => self.timer(h, |e| &e.tick, PeriodicTimer::disarm),
            Output::ArmRto(at) => self.timer(
                h,
                |e| &e.rto,
                |t| match at {
                    Some(at) => t.arm_at(at.max(now)),
                    None => t.disarm(),
                },
            ),
            Output::ArmMonitor(at) => self.timer(h, |e| &e.monitor, |t| t.arm_at(at)),
            Output::ParkSource(buf) => {
                buf.park_consumer(now, self.wake_later(h, Vc::on_send_buffer_ready))
            }
            Output::ParkSink(buf) => buf.park_producer(now, self.wake_later(h, Vc::drain_pending)),
            Output::Wake(waker) => waker(),
            Output::LossIndication { tsap, seq } => self.indicate(tsap, Indication::Error(vc, seq)),
            Output::QosIndication { tsap, report } => self.indicate(tsap, Indication::Qos(*report)),
            Output::Tap(ev) => {
                let tap = self.state.borrow().vcs.at(h).and_then(|e| e.tap.clone());
                if let Some(tap) = tap {
                    self.net
                        .engine()
                        .schedule_in(SimDuration::ZERO, move |_| match ev {
                            TapEvent::Arrived(opdu) => tap.on_osdu_arrived(vc, opdu),
                            TapEvent::Control(payload) => tap.on_control(vc, payload),
                            TapEvent::Loss(seq) => tap.on_loss_indicated(vc, seq),
                        });
                }
            }
            Output::Egress(osdu) => {
                let tap = self.state.borrow().vcs.at(h).and_then(|e| e.egress.clone());
                if let Some(tap) = tap {
                    tap.on_osdu_written(vc, &osdu, now.as_micros());
                }
            }
            Output::Heal(reason) => {
                if reason == HealReason::Stall {
                    self.trace_stall(vc, now);
                }
                self.heal_kick(vc, reason);
            }
        }
    }

    fn send(&self, to: To, pkt: Packet) {
        match to {
            To::Node(_) => self.net.send(self.node, pkt),
            To::Group(g) => self.net.send_to_group(g, pkt),
        }
    }

    /// Tag a data packet for causal tracing, so the completing copy's
    /// queue wait reaches the sink attribution.
    fn traced(&self, mut pkt: Packet, vc: VcId, seq: u64) -> Packet {
        if self.obs.enabled() {
            pkt.trace = Some(netsim::PacketTrace {
                stream: vc.0,
                seq,
                queued_us: 0,
            });
        }
        pkt
    }

    /// Apply `f` to one of the timers of the entry behind `h`, if it is
    /// still attached.
    fn timer(
        &self,
        h: SlabHandle,
        which: impl Fn(&VcEntry) -> &Option<PeriodicTimer>,
        f: impl FnOnce(&PeriodicTimer),
    ) {
        let st = self.state.borrow();
        if let Some(t) = st.vcs.at(h).and_then(|e| which(e).as_ref()) {
            f(t);
        }
    }

    /// A buffer waker that re-enters the driver with `input` as an engine
    /// event at the current instant (never synchronously: the buffer
    /// operation that wakes it may run inside another input).
    fn wake_later(
        self: &Rc<Self>,
        h: SlabHandle,
        input: fn(&mut Vc, &Ctx<'_>, &mut Outbox),
    ) -> impl FnOnce() + 'static {
        let weak = Rc::downgrade(self);
        move || {
            if let Some(me) = weak.upgrade() {
                let weak = Rc::downgrade(&me);
                me.net.engine().schedule_in(SimDuration::ZERO, move |_| {
                    if let Some(me) = weak.upgrade() {
                        me.drive(h, |e, cx, ob| input(&mut e.vc, cx, ob));
                    }
                });
            }
        }
    }

    /// Dispatch an indication to the user bound at `tsap`, as an event at
    /// the current instant (so the user may call straight back into the
    /// service).
    pub(crate) fn indicate(self: &Rc<Self>, tsap: Tsap, ind: Indication) {
        let Some(user) = self.state.borrow().users.get(&tsap).cloned() else {
            return;
        };
        let me = self.clone();
        self.net.engine().schedule_in(SimDuration::ZERO, move |_| {
            ind.deliver(&TransportService::new(me), &*user)
        });
    }

    /// A source newly stalled on exhausted receiver credit.
    fn trace_stall(&self, vc: VcId, now: SimTime) {
        if !self.tel.enabled() {
            return;
        }
        self.tel.count("vc.credit.stall", 1);
        self.tel
            .instant(now, Layer::Transport, "vc.credit.stall", |e| {
                e.u64("vc", vc.0);
            });
    }

    /// Attach the timers that schedule the data path of the entry behind
    /// `h` — tick and RTO for a source end, the monitor for a monitored
    /// sink — then run its opening input. One engine slot and one boxed
    /// closure per timer for the life of the VC; the closures capture the
    /// generation-tagged slab handle, so every fire addresses the entry
    /// directly and a fire after teardown or slot reuse is a no-op.
    /// Creating a timer consumes no event sequence number, so the attach
    /// never shifts the schedule.
    pub(crate) fn open_entry(self: &Rc<Self>, h: SlabHandle) {
        let timer = |input: fn(&mut Vc, &Ctx<'_>, &mut Outbox)| {
            let weak = Rc::downgrade(self);
            Some(PeriodicTimer::new(self.net.engine(), move |_| {
                if let Some(me) = weak.upgrade() {
                    me.drive(h, |e, cx, ob| input(&mut e.vc, cx, ob));
                }
            }))
        };
        {
            let mut st = self.state.borrow_mut();
            let Some(e) = st.vcs.at_mut(h) else { return };
            if e.vc.source.is_some() {
                e.tick = timer(Vc::tick);
                e.rto = timer(Vc::on_rto);
            } else if e.vc.sink.as_ref().is_some_and(|k| k.monitor.is_some()) {
                e.monitor = timer(Vc::on_monitor);
            }
        }
        self.drive(h, |e, cx, ob| e.vc.start(cx, ob));
    }

    // ------------------------------------------------------------------
    // Service requests (called through TransportService)
    // ------------------------------------------------------------------

    /// `T-Connect.request` (table 1). Must be called at the initiator node.
    pub(crate) fn t_connect_request(
        self: &Rc<Self>,
        triple: AddressTriple,
        class: ServiceClass,
        requirement: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        if triple.initiator.node != self.node {
            return Err(ServiceError::BadArgument(
                "T-Connect.request must be issued at the initiator node",
            ));
        }
        if !requirement.tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        let vc = self.alloc_vc();
        if triple.is_conventional() {
            // The initiator is the source: go straight to leg 2.
            self.state.borrow_mut().pending_src.insert(
                vc,
                PendingSrc {
                    triple,
                    class,
                    requirement,
                    awaiting_user: false,
                },
            );
            self.send_control(
                triple.destination.node,
                ControlMsg::ConnectRequest {
                    vc,
                    triple,
                    class,
                    qos: requirement,
                },
            );
        } else {
            // Remote connect (§3.5): ask the source entity to raise the
            // indication at the source user.
            self.state
                .borrow_mut()
                .pending_remote
                .insert(vc, PendingRemote { triple });
            self.state.borrow_mut().initiated.insert(vc, triple);
            self.send_control(
                triple.source.node,
                ControlMsg::RemoteConnectRequest {
                    vc,
                    triple,
                    class,
                    qos: requirement,
                },
            );
        }
        Ok(vc)
    }

    /// `T-Connect.response` / rejection via `T-Disconnect.request` during
    /// connect (table 1, fig. 3).
    pub(crate) fn t_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        accept: bool,
    ) -> Result<(), ServiceError> {
        // Destination answering its indication?
        let dst = self.state.borrow_mut().pending_dst.remove(&vc);
        if let Some(p) = dst {
            // Group invitation: answer the sender with the group handshake
            // (reservations live on the shared tree, keyed by the group).
            if p.group.is_some() {
                let member = TransportAddr {
                    node: self.node,
                    tsap: p.triple.destination.tsap,
                };
                if accept {
                    self.open_sink(vc, &p);
                    self.send_control(
                        p.triple.source.node,
                        ControlMsg::GroupConnectResponse {
                            vc,
                            member,
                            result: Ok((p.agreed, p.capacity)),
                        },
                    );
                } else {
                    self.send_control(
                        p.triple.source.node,
                        ControlMsg::GroupConnectResponse {
                            vc,
                            member,
                            result: Err(DisconnectReason::UserRejected),
                        },
                    );
                }
                return Ok(());
            }
            if accept {
                self.open_sink(vc, &p);
                self.send_control(
                    p.triple.source.node,
                    ControlMsg::ConnectResponse {
                        vc,
                        result: Ok((p.agreed, p.capacity)),
                    },
                );
            } else {
                self.net.release_reservation(vc);
                self.send_control(
                    p.triple.source.node,
                    ControlMsg::ConnectResponse {
                        vc,
                        result: Err(DisconnectReason::UserRejected),
                    },
                );
            }
            return Ok(());
        }
        // Source user answering a remote-connect indication?
        let go = {
            let mut st = self.state.borrow_mut();
            match st.pending_src.get_mut(&vc) {
                Some(p) if p.awaiting_user => {
                    p.awaiting_user = false;
                    Some((p.triple, p.class, p.requirement))
                }
                _ => None,
            }
        };
        if let Some((triple, class, requirement)) = go {
            if accept {
                self.send_control(
                    triple.destination.node,
                    ControlMsg::ConnectRequest {
                        vc,
                        triple,
                        class,
                        qos: requirement,
                    },
                );
            } else {
                self.state.borrow_mut().pending_src.remove(&vc);
                self.send_control(
                    triple.initiator.node,
                    ControlMsg::RemoteConnectReply {
                        vc,
                        result: Err(DisconnectReason::UserRejected),
                    },
                );
            }
            return Ok(());
        }
        Err(ServiceError::UnknownVc)
    }

    /// `T-Disconnect.request` (table 1). Valid at either endpoint or at the
    /// remote initiator.
    pub(crate) fn t_disconnect_request(
        self: &Rc<Self>,
        vc: VcId,
        reason: DisconnectReason,
    ) -> Result<(), ServiceError> {
        // Endpoint with live state: tear down and tell the peer (and the
        // remote initiator, if any — §3.5: responses go to both).
        let info = {
            let st = self.state.borrow();
            st.vcs
                .get(&vc)
                .filter(|v| v.phase != VcPhase::Closed)
                .map(|v| (v.peer_node, v.triple))
        };
        if let Some((peer, triple)) = info {
            self.teardown_local(vc, reason.clone(), false);
            self.send_control(
                peer,
                ControlMsg::Disconnect {
                    vc,
                    reason: reason.clone(),
                    notify: None,
                },
            );
            if triple.initiator.node != self.node
                && triple.initiator != triple.source
                && triple.initiator != triple.destination
            {
                self.send_control(
                    triple.initiator.node,
                    ControlMsg::Disconnect {
                        vc,
                        reason,
                        notify: None,
                    },
                );
            }
            return Ok(());
        }
        // Remote initiator: relay the release request to the source, whose
        // user receives the indication and performs the actual release
        // (§4.1.1 "remotely released").
        let triple = self.state.borrow().initiated.get(&vc).copied();
        if let Some(triple) = triple {
            self.send_control(
                triple.source.node,
                ControlMsg::Disconnect {
                    vc,
                    reason,
                    notify: Some(triple.initiator),
                },
            );
            return Ok(());
        }
        Err(ServiceError::UnknownVc)
    }

    /// `T-Renegotiate.request` (table 3), issued at either endpoint.
    pub(crate) fn t_renegotiate_request(
        self: &Rc<Self>,
        vc: VcId,
        new_tolerance: QosTolerance,
    ) -> Result<(), ServiceError> {
        if !new_tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        let peer = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            if v.phase != VcPhase::Open {
                return Err(ServiceError::WrongState("renegotiate on non-open VC"));
            }
            v.peer_node
        };
        self.send_control(peer, ControlMsg::RenegotiateRequest { vc, new_tolerance });
        Ok(())
    }

    /// `T-Renegotiate.response` (table 3): the peer user's verdict. On
    /// acceptance the entity renegotiates resources and, if that succeeds,
    /// applies the new contract at both ends.
    pub(crate) fn t_renegotiate_response(
        self: &Rc<Self>,
        vc: VcId,
        accept: bool,
    ) -> Result<(), ServiceError> {
        let (peer, triple) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            (v.peer_node, v.triple)
        };
        if !accept {
            self.send_control(
                peer,
                ControlMsg::RenegotiateResponse {
                    vc,
                    result: Err(DisconnectReason::RenegotiationRefused),
                },
            );
            return Ok(());
        }
        let pending = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            v.pending_renegotiation().take()
        };
        let new_tolerance = match pending {
            Some(t) => t,
            None => return Err(ServiceError::WrongState("no renegotiation pending")),
        };
        let result = self.apply_renegotiation(vc, triple, new_tolerance);
        match &result {
            Ok(qos) => {
                self.send_control(
                    peer,
                    ControlMsg::RenegotiateResponse {
                        vc,
                        result: Ok(*qos),
                    },
                );
            }
            Err(reason) => {
                self.send_control(
                    peer,
                    ControlMsg::RenegotiateResponse {
                        vc,
                        result: Err(reason.clone()),
                    },
                );
            }
        }
        Ok(())
    }

    /// Negotiate the new tolerance against the path and the reservation
    /// ledger; on success the local contract is replaced in place —
    /// protocol state, buffers and sequence numbers survive (§4.1.3).
    fn apply_renegotiation(
        self: &Rc<Self>,
        vc: VcId,
        triple: AddressTriple,
        new_tolerance: QosTolerance,
    ) -> Result<QosParams, DisconnectReason> {
        let src = triple.source.node;
        let dst = triple.destination.node;
        let mut achievable = self
            .net
            .path_qos(src, dst, self.config.mtu)
            .ok_or(DisconnectReason::Unreachable)?;
        // Capacity available = unreserved + what this VC already holds.
        let held = {
            let st = self.state.borrow();
            st.vcs.get(&vc).map(|v| v.contract.throughput)
        }
        .unwrap_or(cm_core::time::Bandwidth::ZERO);
        if let Some(avail) = self.net.available_bandwidth(src, dst) {
            achievable.throughput = (avail + held).min(achievable.throughput);
        }
        let agreed = new_tolerance
            .negotiate(&achievable)
            .map_err(|_| DisconnectReason::RenegotiationRefused)?;
        self.net
            .renegotiate_reservation(vc, agreed.throughput)
            .map_err(|_| DisconnectReason::RenegotiationRefused)?;
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.vcs.get_mut(&vc) {
            v.contract = agreed;
            v.requirement.tolerance = new_tolerance;
        }
        Ok(agreed)
    }

    // ------------------------------------------------------------------
    // VC endpoint construction
    // ------------------------------------------------------------------

    pub(crate) fn buffer_slots(&self, requirement: &QosRequirement) -> usize {
        if let Some(n) = self.config.buffer_slots_override {
            return n;
        }
        // Half a second of media, clamped to [4, 64] slots.
        let per_half_s = requirement
            .osdu_rate
            .units_in(cm_core::time::SimDuration::from_millis(500));
        (per_half_s as usize).clamp(4, 64)
    }

    fn open_sink(self: &Rc<Self>, vc: VcId, p: &PendingDst) {
        let monitor = (p.requirement.guarantee != GuaranteeMode::BestEffort)
            .then(|| QosMonitor::new(self.config.monitor_period, self.now()));
        let window = p.class.profile == ProtocolProfile::WindowBased;
        let sink = SinkEnd::new(
            p.capacity as usize,
            p.class.error_control,
            window,
            monitor,
            // Mid-stream group join: the stream position starts at the
            // invitation point, not zero.
            p.start_seq,
        );
        let v = Vc {
            id: vc,
            triple: p.triple,
            class: p.class,
            requirement: p.requirement,
            contract: p.agreed,
            role: VcRole::Sink,
            peer_node: p.triple.source.node,
            local_tsap: p.triple.destination.tsap,
            phase: VcPhase::Open,
            source: None,
            sink: Some(sink),
            group: None,
            pending_reneg: None,
        };
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        self.open_entry(h);
    }

    fn open_source(
        self: &Rc<Self>,
        vc: VcId,
        p: &PendingSrc,
        agreed: QosParams,
        recv_capacity: u32,
    ) {
        let gbn = (p.class.profile == ProtocolProfile::WindowBased)
            .then(|| GoBackNSender::new(self.config.window_size, self.config.rto));
        let source = SourceEnd::new(
            self.buffer_slots(&p.requirement),
            p.requirement.osdu_rate,
            self.local_now(),
            gbn,
            recv_capacity as u64,
            (recv_capacity as usize) * 4,
        );
        let v = Vc {
            id: vc,
            triple: p.triple,
            class: p.class,
            requirement: p.requirement,
            contract: agreed,
            role: VcRole::Source,
            peer_node: p.triple.destination.node,
            local_tsap: p.triple.source.tsap,
            phase: VcPhase::Open,
            source: Some(source),
            sink: None,
            group: None,
            pending_reneg: None,
        };
        // Register the negotiated contract with the auditor: the delay
        // bound is the end-to-end deadline, and the loss budget doubles as
        // the deadline-miss budget (a late CM OSDU is as lost as a dropped
        // one).
        if self.obs.enabled() {
            self.obs.set_contract(
                vc.0,
                agreed.delay.as_micros(),
                agreed.packet_error_rate.as_ppb() / 1_000,
            );
        }
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        // Arm the pacing/pump machinery; it will park on the empty buffer.
        self.open_entry(h);
    }

    pub(crate) fn teardown_local(
        self: &Rc<Self>,
        vc: VcId,
        reason: DisconnectReason,
        indicate: bool,
    ) {
        let tsap = {
            let mut st = self.state.borrow_mut();
            let entry = st.vcs.resolve(vc).and_then(|h| st.vcs.at_mut(h));
            match entry {
                Some(e) => {
                    e.tap = None;
                    e.egress = None;
                    e.heal = None;
                    let v = &mut e.vc;
                    if v.phase == VcPhase::Closed {
                        None
                    } else {
                        v.phase = VcPhase::Closed;
                        // Closed entries stay in the table so late control
                        // messages resolve (and are ignored by phase
                        // checks), but they shed everything heavy: timers
                        // give their engine slots and boxed closures back,
                        // and the caches that scale with traffic are
                        // dropped. At city scale this is the difference
                        // between memory tracking *live* VCs and memory
                        // tracking *every VC that ever existed*.
                        e.tick = None;
                        e.rto = None;
                        e.monitor = None;
                        if let Some(s) = &mut v.source {
                            s.gbn = None;
                            s.pending_frags = std::collections::VecDeque::new();
                            s.retrans_cache = std::collections::VecDeque::new();
                        }
                        if let Some(k) = &mut v.sink {
                            k.monitor = None;
                            k.pending_delivery = std::collections::VecDeque::new();
                        }
                        Some(v.local_tsap)
                    }
                }
                None => None,
            }
        };
        self.net.release_reservation(vc);
        if indicate {
            if let Some(tsap) = tsap {
                self.indicate(tsap, Indication::Disconnect(vc, reason));
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet handling
    // ------------------------------------------------------------------

    fn handle_packet(self: &Rc<Self>, pkt: Packet) {
        // Take the payload out (avoid double-Rc clones of big TPDUs).
        let corrupted = pkt.corrupted;
        let from = pkt.src;
        // Link-queue wait the packet accumulated along its path (zero
        // unless tracing stamped it at the source).
        let queued_us = pkt.trace.map_or(0, |t| t.queued_us);
        if let Some(pdu) = pkt.payload_as::<WirePdu>() {
            match pdu {
                WirePdu::Data(tpdu) => {
                    self.drive(tpdu.vc, |e, cx, ob| {
                        e.vc.on_data(cx, tpdu.clone(), corrupted, queued_us, ob)
                    });
                }
                WirePdu::WindowData { wseq, tpdu } => {
                    self.drive(tpdu.vc, |e, cx, ob| {
                        e.vc.on_window_data(cx, *wseq, tpdu.clone(), corrupted, queued_us, ob)
                    });
                }
                WirePdu::Control(msg) => self.on_control(from, msg.clone()),
            }
        }
    }

    /// `from` is the originating node — group VCs demultiplex per-receiver
    /// feedback (credit, nacks, QoS reports, releases) on it.
    pub(crate) fn on_control(self: &Rc<Self>, from: NetAddr, msg: ControlMsg) {
        match msg {
            ControlMsg::RemoteConnectRequest {
                vc,
                triple,
                class,
                qos,
            } => {
                // Leg 1 arrival at the source entity: indication to the
                // source user (fig. 3).
                let bound = self.state.borrow().users.contains_key(&triple.source.tsap);
                if !bound {
                    self.send_control(
                        triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Err(DisconnectReason::NoSuchTsap),
                        },
                    );
                    return;
                }
                self.state.borrow_mut().pending_src.insert(
                    vc,
                    PendingSrc {
                        triple,
                        class,
                        requirement: qos,
                        awaiting_user: true,
                    },
                );
                self.indicate(
                    triple.source.tsap,
                    Indication::Connect(vc, triple, class, qos),
                );
            }
            ControlMsg::ConnectRequest {
                vc,
                triple,
                class,
                qos,
            } => self.on_connect_request(vc, triple, class, qos),
            ControlMsg::ConnectResponse { vc, result } => self.on_connect_response(vc, result),
            ControlMsg::RemoteConnectReply { vc, result } => {
                let p = self.state.borrow_mut().pending_remote.remove(&vc);
                if let Some(p) = p {
                    let tsap = p.triple.initiator.tsap;
                    match result {
                        Ok(qos) => self.indicate(tsap, Indication::ConnectConfirm(vc, Ok(qos))),
                        Err(reason) => {
                            self.state.borrow_mut().initiated.remove(&vc);
                            self.indicate(tsap, Indication::ConnectConfirm(vc, Err(reason)))
                        }
                    }
                }
            }
            ControlMsg::GroupConnectRequest {
                vc,
                group,
                triple,
                class,
                requirement,
                agreed,
                start_seq,
            } => self.on_group_connect_request(
                vc,
                group,
                triple,
                class,
                requirement,
                agreed,
                start_seq,
            ),
            ControlMsg::GroupConnectResponse { vc, member, result } => {
                self.on_group_connect_response(vc, member, result)
            }
            ControlMsg::Disconnect { vc, reason, notify } => {
                // At a group sender a release from a member means that
                // member leaves — the group VC itself stays up.
                let group_sender = {
                    let st = self.state.borrow();
                    st.vcs.get(&vc).is_some_and(|v| v.group.is_some())
                };
                if group_sender {
                    self.group_member_left(vc, from, reason);
                    return;
                }
                if let Some(to_notify) = notify {
                    // Remote release request: indication only; the user
                    // decides whether to actually release (§4.1.1).
                    let tsap = {
                        let st = self.state.borrow();
                        st.vcs.get(&vc).map(|v| v.local_tsap)
                    };
                    if let Some(tsap) = tsap {
                        let reason = reason.clone();
                        self.indicate(tsap, Indication::Disconnect(vc, reason));
                    } else {
                        // VC unknown: report back to the requester.
                        let _ = to_notify;
                    }
                } else {
                    self.teardown_local(vc, reason, true);
                }
            }
            ControlMsg::RenegotiateRequest { vc, new_tolerance } => {
                let tsap = {
                    let mut st = self.state.borrow_mut();
                    match st.vcs.get_mut(&vc) {
                        Some(v) if v.phase == VcPhase::Open => {
                            *v.pending_renegotiation() = Some(new_tolerance);
                            Some(v.local_tsap)
                        }
                        _ => None,
                    }
                };
                if let Some(tsap) = tsap {
                    self.indicate(tsap, Indication::Renegotiate(vc, new_tolerance));
                }
            }
            ControlMsg::RenegotiateResponse { vc, result } => {
                let tsap = {
                    let st = self.state.borrow();
                    st.vcs.get(&vc).map(|v| v.local_tsap)
                };
                let Some(tsap) = tsap else { return };
                match result {
                    Ok(qos) => {
                        {
                            let mut st = self.state.borrow_mut();
                            if let Some(v) = st.vcs.get_mut(&vc) {
                                v.contract = qos;
                            }
                        }
                        self.indicate(tsap, Indication::RenegotiateConfirm(vc, qos));
                    }
                    Err(reason) => {
                        // §4.1.3: refusal arrives as T-Disconnect.indication
                        // but the existing VC is *not* torn down.
                        self.indicate(tsap, Indication::Disconnect(vc, reason));
                    }
                }
            }
            ControlMsg::Credit { vc, freed_total } => {
                self.drive(vc, |e, cx, ob| e.vc.on_credit(cx, from, freed_total, ob));
            }
            ControlMsg::CreditProbe { vc } => {
                self.drive(vc, |e, _, ob| e.vc.sink_credit(true, ob));
            }
            ControlMsg::Dropped { vc, seqs } => {
                self.drive(vc, |e, cx, ob| e.vc.on_dropped(cx, &seqs, ob));
            }
            ControlMsg::Nack { vc, seqs } => {
                self.drive(vc, |e, cx, ob| e.vc.on_nack(cx, from, seqs, ob));
            }
            ControlMsg::Ack { vc, upto } => {
                self.drive(vc, |e, cx, ob| e.vc.on_ack(cx, upto, ob));
            }
            ControlMsg::QosReportMsg(report) => {
                // A whole monitoring period at zero throughput with the
                // contract violated is starvation — the path under this VC
                // is suspect (self-healing, DESIGN.md §9).
                if report.measured.throughput.as_bps() == 0 && !report.violations.is_empty() {
                    self.heal_kick(report.vc, HealReason::Starved);
                }
                let info = {
                    let st = self.state.borrow();
                    st.vcs
                        .get(&report.vc)
                        .map(|v| (v.local_tsap, v.group.is_some()))
                };
                if let Some((tsap, is_group)) = info {
                    if is_group {
                        // Per-receiver monitoring: attribute the report to
                        // the member that measured it.
                        let vc = report.vc;
                        self.indicate(tsap, Indication::GroupQos(vc, from, report));
                    } else {
                        self.indicate(tsap, Indication::Qos(report));
                    }
                }
            }
            ControlMsg::UserControl { vc, payload } => {
                let h = self.state.borrow().vcs.resolve(vc);
                if let Some(h) = h {
                    self.perform(h, vc, self.now(), Output::Tap(TapEvent::Control(payload)));
                }
            }
            ControlMsg::Datagram {
                to_tsap,
                from,
                payload,
                wire_size: _,
            } => {
                self.indicate(to_tsap, Indication::Datagram(from, payload));
            }
        }
    }

    /// Connectionless send to a TSAP (control-class priority).
    pub(crate) fn send_datagram(
        self: &Rc<Self>,
        from_tsap: Tsap,
        to: cm_core::address::TransportAddr,
        payload: Rc<dyn Any>,
        wire_size: usize,
    ) {
        let msg = ControlMsg::Datagram {
            to_tsap: to.tsap,
            from: cm_core::address::TransportAddr {
                node: self.node,
                tsap: from_tsap,
            },
            payload,
            wire_size,
        };
        let pkt = Packet::control(
            self.node,
            to.node,
            CONTROL_WIRE_SIZE + wire_size,
            self.now(),
            WirePdu::Control(msg),
        );
        self.net.send(self.node, pkt);
    }

    fn on_connect_request(
        self: &Rc<Self>,
        vc: VcId,
        triple: AddressTriple,
        class: ServiceClass,
        qos: QosRequirement,
    ) {
        let reply_to = triple.source.node;
        let reject = |reason: DisconnectReason| {
            if self.tel.enabled() {
                self.tel.count("vc.connect.reject", 1);
                self.tel
                    .instant(self.now(), Layer::Transport, "vc.connect.reject", |e| {
                        e.u64("vc", vc.0).str("reason", reason.kind());
                    });
            }
            self.send_control(
                reply_to,
                ControlMsg::ConnectResponse {
                    vc,
                    result: Err(reason),
                },
            );
        };
        if !self
            .state
            .borrow()
            .users
            .contains_key(&triple.destination.tsap)
        {
            reject(DisconnectReason::NoSuchTsap);
            return;
        }
        // End-to-end QoS negotiation against what the path can offer
        // (§3.2: full option negotiation at connect time).
        let src = triple.source.node;
        let dst = triple.destination.node;
        let Some(mut achievable) = self.net.path_qos(src, dst, self.config.mtu) else {
            reject(DisconnectReason::Unreachable);
            return;
        };
        if qos.guarantee != GuaranteeMode::BestEffort {
            if let Some(avail) = self.net.available_bandwidth(src, dst) {
                achievable.throughput = achievable.throughput.min(avail);
            }
        }
        let agreed = match qos.tolerance.negotiate(&achievable) {
            Ok(a) => a,
            Err(violations) => {
                reject(DisconnectReason::from_violations(&violations));
                return;
            }
        };
        if qos.guarantee != GuaranteeMode::BestEffort {
            match self.net.reserve_path(vc, src, dst, agreed.throughput) {
                Some(Ok(())) => {}
                Some(Err(_)) => {
                    reject(DisconnectReason::AdmissionDenied);
                    return;
                }
                None => {
                    reject(DisconnectReason::Unreachable);
                    return;
                }
            }
        }
        let capacity = self.buffer_slots(&qos) as u32;
        if self.tel.enabled() {
            self.tel.count("vc.connect.admit", 1);
            self.tel
                .instant(self.now(), Layer::Transport, "vc.connect.admit", |e| {
                    e.u64("vc", vc.0)
                        .u64("agreed_bps", agreed.throughput.as_bps())
                        .u64("agreed_delay_us", agreed.delay.as_micros());
                });
        }
        self.state.borrow_mut().pending_dst.insert(
            vc,
            PendingDst {
                triple,
                class,
                requirement: qos,
                agreed,
                capacity,
                group: None,
                start_seq: 0,
            },
        );
        self.indicate(
            triple.destination.tsap,
            Indication::Connect(vc, triple, class, qos),
        );
    }

    /// A group-VC invitation arrived at a prospective receiver. QoS and
    /// reservation were settled at the sender against this member's
    /// branch; here only the local user's consent and buffer capacity are
    /// needed (answered through the ordinary `t_connect_response`).
    #[allow(clippy::too_many_arguments)]
    fn on_group_connect_request(
        self: &Rc<Self>,
        vc: VcId,
        group: netsim::GroupId,
        triple: AddressTriple,
        class: ServiceClass,
        requirement: QosRequirement,
        agreed: QosParams,
        start_seq: u64,
    ) {
        if !self
            .state
            .borrow()
            .users
            .contains_key(&triple.destination.tsap)
        {
            self.send_control(
                triple.source.node,
                ControlMsg::GroupConnectResponse {
                    vc,
                    member: triple.destination,
                    result: Err(DisconnectReason::NoSuchTsap),
                },
            );
            return;
        }
        let capacity = self.buffer_slots(&requirement) as u32;
        self.state.borrow_mut().pending_dst.insert(
            vc,
            PendingDst {
                triple,
                class,
                requirement,
                agreed,
                capacity,
                group: Some(group),
                start_seq,
            },
        );
        self.indicate(
            triple.destination.tsap,
            Indication::Connect(vc, triple, class, requirement),
        );
    }

    fn on_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        result: Result<(QosParams, u32), DisconnectReason>,
    ) {
        let p = self.state.borrow_mut().pending_src.remove(&vc);
        let Some(p) = p else { return };
        let remote = !p.triple.is_conventional();
        match result {
            Ok((agreed, capacity)) => {
                self.open_source(vc, &p, agreed, capacity);
                // Confirm to the source user...
                self.indicate(
                    p.triple.source.tsap,
                    Indication::ConnectConfirm(vc, Ok(agreed)),
                );
                // ...and to the remote initiator (§3.5: responses to both).
                if remote {
                    self.send_control(
                        p.triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Ok(agreed),
                        },
                    );
                }
            }
            Err(reason) => {
                let src_tsap = p.triple.source.tsap;
                if remote {
                    let r = reason.clone();
                    self.indicate(src_tsap, Indication::Disconnect(vc, r));
                    self.send_control(
                        p.triple.initiator.node,
                        ControlMsg::RemoteConnectReply {
                            vc,
                            result: Err(reason),
                        },
                    );
                } else {
                    self.indicate(src_tsap, Indication::ConnectConfirm(vc, Err(reason)));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // TSAP binding and orchestration hooks
    // ------------------------------------------------------------------

    /// Attach a user to a TSAP.
    pub(crate) fn bind(&self, tsap: Tsap, user: Rc<dyn TransportUser>) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        if st.users.contains_key(&tsap) {
            return Err(ServiceError::TsapBusy);
        }
        st.users.insert(tsap, user);
        Ok(())
    }

    /// Detach the user from a TSAP.
    pub(crate) fn unbind(&self, tsap: Tsap) -> Result<(), ServiceError> {
        self.state
            .borrow_mut()
            .users
            .remove(&tsap)
            .map(|_| ())
            .ok_or(ServiceError::TsapUnbound)
    }

    /// Register the orchestration tap for a VC.
    /// Set (or, with `None`, clear) the orchestration tap for a VC.
    pub(crate) fn set_tap(&self, vc: VcId, tap: Option<Rc<dyn VcTap>>) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        let e = st.vcs.entry_mut(&vc).ok_or(ServiceError::UnknownVc)?;
        e.tap = tap;
        Ok(())
    }

    /// Set (or, with `None`, clear) the source-side egress tap for a VC.
    pub(crate) fn set_egress_tap(
        &self,
        vc: VcId,
        tap: Option<Rc<dyn EgressTap>>,
    ) -> Result<(), ServiceError> {
        let mut st = self.state.borrow_mut();
        let e = st.vcs.entry_mut(&vc).ok_or(ServiceError::UnknownVc)?;
        e.egress = tap;
        Ok(())
    }
}

impl Vc {
    /// Slot for a tolerance received in a `RenegotiateRequest`, awaiting
    /// the local user's response.
    pub(crate) fn pending_renegotiation(&mut self) -> &mut Option<QosTolerance> {
        &mut self.pending_reneg
    }
}

impl Indication {
    /// Call the user method this indication stands for.
    fn deliver(self, svc: &TransportService, u: &dyn TransportUser) {
        match self {
            Indication::Connect(vc, triple, class, qos) => {
                u.t_connect_indication(svc, vc, triple, class, qos)
            }
            Indication::ConnectConfirm(vc, result) => u.t_connect_confirm(svc, vc, result),
            Indication::Disconnect(vc, reason) => u.t_disconnect_indication(svc, vc, reason),
            Indication::Qos(report) => u.t_qos_indication(svc, report),
            Indication::Renegotiate(vc, tolerance) => {
                u.t_renegotiate_indication(svc, vc, tolerance)
            }
            Indication::RenegotiateConfirm(vc, qos) => u.t_renegotiate_confirm(svc, vc, qos),
            Indication::Error(vc, seq) => u.t_error_indication(svc, vc, seq),
            Indication::Datagram(from, payload) => u.t_datagram_indication(svc, from, payload),
            Indication::GroupJoinConfirm(vc, member, result) => {
                u.t_group_join_confirm(svc, vc, member, result)
            }
            Indication::GroupLeave(vc, member, reason) => {
                u.t_group_leave_indication(svc, vc, member, reason)
            }
            Indication::GroupQos(vc, member, report) => {
                u.t_group_qos_indication(svc, vc, member, report)
            }
        }
    }
}
