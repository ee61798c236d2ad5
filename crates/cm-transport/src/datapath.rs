//! The per-VC data path as a sans-I/O machine (§3.7, §4).
//!
//! Every data-path input — a pacing tick, an arriving TPDU, a credit or
//! NACK report, an RTO, a monitor period, an application write or read,
//! an orchestration hook — is a method on [`Vc`]. It takes the instant it
//! runs at ([`Ctx`]), updates the VC's state and appends the effects it
//! wants to an [`Outbox`], in order, as plain data: packets to send,
//! timers to arm, buffers to park on, wake-ups to run, indications for
//! the user and the tap, healing signals. The machine owns the VC's state
//! and its shared buffers; it never touches the network, the engine or a
//! timer, and it never runs foreign code — even a buffer operation that
//! releases a parked side hands its wake-up back as an output. It does
//! record into telemetry and the causal tracer directly: those calls only
//! record and never call back.
//!
//! The transport entity is the one driver: it runs each input under one
//! state borrow, releases the borrow, then performs the outputs in the
//! order they were emitted. That order is the spec: every effect that
//! takes an engine sequence number is an output, so the emission order
//! fixes the event schedule and the telemetry stream (DESIGN.md §14).

use crate::buffer::{BufferHandle, PushOutcome, Waker};
use crate::heal::HealReason;
use crate::receiver::{Arrival, SinkAction};
use crate::tpdu::{fragment_sizes, ControlMsg, DataTpdu, QosReport};
use crate::vc::{EndStats, SourceEnd, Vc, VcRole};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::osdu::{Opdu, Osdu, Payload};
use cm_core::qos::{QosParams, QosRequirement, QosTolerance};
use cm_core::service_class::{ProtocolProfile, ServiceClass};
use cm_core::time::{SimDuration, SimTime};
use cm_obs::Obs;
use cm_telemetry::{Layer, Telemetry};
use netsim::GroupId;
use std::any::Any;
use std::rc::Rc;

/// The instant an input runs at, plus the entity-wide settings and
/// recorders the machine reads.
pub(crate) struct Ctx<'a> {
    /// Global engine time.
    pub(crate) now: SimTime,
    /// This node's local clock reading now: the pacing clock runs on
    /// local time (§3.6), and the driver converts it back when arming the
    /// tick. Read on demand — only the pacing inputs need it.
    pub(crate) local: &'a dyn Fn() -> SimTime,
    /// This node (the tracer's node id).
    pub(crate) node: NetAddr,
    /// MTU the source fragments against.
    pub(crate) mtu: usize,
    /// Consecutive no-progress RTOs that open a healing episode.
    pub(crate) rto_patience: u32,
    /// The engine's flight recorder.
    pub(crate) tel: &'a Telemetry,
    /// The causal-tracing registry.
    pub(crate) obs: &'a Obs,
}

impl Ctx<'_> {
    fn local(&self) -> SimTime {
        (self.local)()
    }

    /// Credit returned; the stall that began at `since` is over.
    fn trace_resume(&self, vc: VcId, since: SimTime) {
        let dur = self.now.saturating_since(since);
        if self.obs.enabled() {
            self.obs.stalled(vc.0, dur.as_micros());
        }
        if self.tel.enabled() {
            self.tel.record_duration("vc.credit.stall_us", dur);
            self.tel
                .span(since, dur, Layer::Transport, "vc.credit.stalled", |e| {
                    e.u64("vc", vc.0);
                });
        }
    }
}

/// Where a packet goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum To {
    /// One node.
    Node(NetAddr),
    /// Every member of a group VC, over its shared tree.
    Group(GroupId),
}

/// One effect of a data-path input, performed by the driver in emission
/// order.
pub(crate) enum Output {
    /// Send a rate-profile data fragment.
    Data { to: To, tpdu: DataTpdu },
    /// Send a window-profile data fragment with its window sequence.
    WindowData {
        to: NetAddr,
        wseq: u64,
        tpdu: DataTpdu,
    },
    /// Send a control message about this VC (on a group VC, source
    /// feedback fans out to every member).
    Control { to: To, msg: Msg },
    /// Arm the pacing tick at the local instant `local`, converted to
    /// global time and floored at `floor`.
    ArmTick { local: SimTime, floor: SimTime },
    /// Drop the pending pacing tick.
    DisarmTick,
    /// Arm the window RTO at this global instant (floored at now), or
    /// disarm it.
    ArmRto(Option<SimTime>),
    /// Arm the QoS monitor for the end of the current period.
    ArmMonitor(SimTime),
    /// Park the protocol as consumer on the send buffer; the wake-up
    /// re-enters [`Vc::on_send_buffer_ready`].
    ParkSource(BufferHandle),
    /// Park the protocol as producer on the full receive buffer; the
    /// wake-up re-enters [`Vc::drain_pending`].
    ParkSink(BufferHandle),
    /// Run a wake-up a buffer operation released.
    Wake(Waker),
    /// Indicate unrepairable loss of an OSDU to the user at `tsap`.
    LossIndication { tsap: Tsap, seq: u64 },
    /// Indicate a QoS violation to the user at `tsap`.
    QosIndication { tsap: Tsap, report: Box<QosReport> },
    /// Dispatch to the VC's orchestration tap.
    Tap(TapEvent),
    /// Show an accepted write to the VC's egress tap (synchronously).
    Egress(Osdu),
    /// Raise a self-healing signal (a credit stall also leaves its
    /// telemetry record).
    Heal(HealReason),
}

/// The control messages the data path sends about its own VC; the driver
/// stamps the VC id on when it builds the [`ControlMsg`]. (Kept apart
/// from `ControlMsg` so an output stays small: the connection-management
/// messages are much larger.)
pub(crate) enum Msg {
    Credit(u64),
    Ack(u64),
    Nack(Vec<u64>),
    Dropped(Vec<u64>),
    CreditProbe,
    UserControl(Rc<dyn Any>),
    QosReport(Box<QosReport>),
}

impl Msg {
    pub(crate) fn into_control(self, vc: VcId) -> ControlMsg {
        match self {
            Msg::Credit(freed_total) => ControlMsg::Credit { vc, freed_total },
            Msg::Ack(upto) => ControlMsg::Ack { vc, upto },
            Msg::Nack(seqs) => ControlMsg::Nack { vc, seqs },
            Msg::Dropped(seqs) => ControlMsg::Dropped { vc, seqs },
            Msg::CreditProbe => ControlMsg::CreditProbe { vc },
            Msg::UserControl(payload) => ControlMsg::UserControl { vc, payload },
            Msg::QosReport(report) => ControlMsg::QosReportMsg(*report),
        }
    }
}

/// A `TransportUser` callback as plain data: one variant per method,
/// carrying the method's arguments in order.
pub(crate) enum Indication {
    Connect(VcId, AddressTriple, ServiceClass, QosRequirement),
    ConnectConfirm(VcId, Result<QosParams, DisconnectReason>),
    Disconnect(VcId, DisconnectReason),
    Qos(QosReport),
    Renegotiate(VcId, QosTolerance),
    RenegotiateConfirm(VcId, QosParams),
    Error(VcId, u64),
    Datagram(TransportAddr, Rc<dyn Any>),
    GroupJoinConfirm(VcId, TransportAddr, Result<QosParams, DisconnectReason>),
    GroupLeave(VcId, TransportAddr, DisconnectReason),
    GroupQos(VcId, NetAddr, QosReport),
}

/// A `VcTap` callback as plain data.
pub(crate) enum TapEvent {
    /// An OSDU entered the receive buffer.
    Arrived(Opdu),
    /// A control-channel payload arrived.
    Control(Rc<dyn Any>),
    /// An OSDU was lost beyond repair.
    Loss(u64),
}

/// The reusable effect buffer of one input: its outputs, plus scratch
/// for the sink engine's actions. The driver keeps one and lends it to
/// every input, so steady-state inputs allocate nothing here.
#[derive(Default)]
pub(crate) struct Outbox {
    out: Vec<Output>,
    actions: Vec<SinkAction>,
}

impl Outbox {
    fn push(&mut self, o: Output) {
        self.out.push(o);
    }

    fn wake(&mut self, waker: Option<Waker>) {
        if let Some(w) = waker {
            self.out.push(Output::Wake(w));
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Take the outputs, in emission order, to perform them.
    pub(crate) fn take_out(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.out)
    }

    /// Return the (emptied) output buffer for reuse.
    pub(crate) fn give_back(&mut self, out: Vec<Output>) {
        if out.capacity() > self.out.capacity() {
            self.out = out;
        }
    }
}

/// The fragments of `osdu`, stamped as sent at `now`; the payload rides
/// on the last one.
fn fragments(
    vc: VcId,
    osdu: &Osdu,
    now: SimTime,
    mtu: usize,
) -> impl Iterator<Item = DataTpdu> + '_ {
    let sizes = fragment_sizes(osdu.wire_size(), mtu);
    let count = sizes.len() as u32;
    sizes
        .into_iter()
        .enumerate()
        .map(move |(i, bytes)| DataTpdu {
            vc,
            osdu_seq: osdu.seq(),
            frag_index: i as u32,
            frag_count: count,
            frag_bytes: bytes,
            opdu: osdu.opdu,
            payload: (i as u32 + 1 == count).then(|| osdu.payload.clone()),
            osdu_sent_at: now,
        })
}

impl Vc {
    fn src(&mut self) -> &mut SourceEnd {
        self.source.as_mut().expect("source end")
    }

    /// Where source feedback goes: the peer, or the whole group.
    fn feedback_to(&self) -> To {
        match &self.group {
            Some(ge) => To::Group(ge.group),
            None => To::Node(self.peer_node),
        }
    }

    /// The VC just opened: arm the pacing tick or pump the window
    /// (source), or arm the first monitor period (monitored sink).
    pub(crate) fn start(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        if let Some(k) = &self.sink {
            if let Some(m) = &k.monitor {
                ob.push(Output::ArmMonitor(m.period_end()));
            }
            return;
        }
        match self.class.profile {
            ProtocolProfile::RateBasedCm => self.arm_tick(cx.now, ob),
            ProtocolProfile::WindowBased => self.pump(cx, ob),
            ProtocolProfile::Datagram => {}
        }
    }

    // ------------------------------------------------------------------
    // Source end: rate profile
    // ------------------------------------------------------------------

    /// Ask for the pacing tick at the clock's next due instant (none
    /// while paused), no earlier than `floor`.
    fn arm_tick(&self, floor: SimTime, ob: &mut Outbox) {
        if let Some(local) = self.source.as_ref().and_then(|s| s.clock.next_due()) {
            ob.push(Output::ArmTick { local, floor });
        }
    }

    /// One pacing tick of the rate-based source — the hottest periodic
    /// input in the stack.
    pub(crate) fn tick(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let s = self.src();
        // 1 µs tolerance: the local→global→local conversion truncates, so
        // an exactly-due tick can read as infinitesimally early; an early
        // wake re-arms strictly in the future, or it would spin forever
        // without advancing virtual time.
        let slack = SimDuration::from_micros(1);
        let local = cx.local();
        match s.clock.next_due() {
            None => return, // paused
            Some(due) if due > local + slack => {
                ob.push(Output::ArmTick {
                    local: due,
                    floor: cx.now + slack,
                });
                return;
            }
            Some(_) => {}
        }
        if !s.has_credit() {
            if !s.stalled_credit {
                s.stalled_at = Some(cx.now);
                ob.push(Output::Heal(HealReason::Stall));
            }
            s.stalled_credit = true;
            return;
        }
        let (osdu, waker) = s.send_buf.pop_deferred(cx.now);
        ob.wake(waker);
        let Some(osdu) = osdu else {
            // Protocol blocked: application slow producing (§6.3.1.2).
            if !s.waiting_buffer {
                ob.push(Output::ParkSource(s.send_buf.clone()));
            }
            s.waiting_buffer = true;
            return;
        };
        self.transmit(cx, osdu, false, None, ob);
        let s = self.src();
        s.clock.consume_slot();
        // Never burst more than a couple of units of backlog after a
        // stall — rate-based senders pace.
        s.clock.limit_backlog(local, 2);
        self.arm_tick(cx.now, ob);
    }

    /// Fragment and transmit one OSDU, fresh or retransmitted. Fresh
    /// sends on a group VC fan out over the shared tree; `to` overrides
    /// the destination for per-receiver unicast repair.
    fn transmit(
        &mut self,
        cx: &Ctx<'_>,
        osdu: Osdu,
        is_retrans: bool,
        to: Option<NetAddr>,
        ob: &mut Outbox,
    ) {
        let to = to.map_or(self.feedback_to(), To::Node);
        let vc = self.id;
        let corrects = self.class.error_control.corrects();
        let seq = osdu.seq();
        if !is_retrans {
            let s = self.src();
            s.charged += 1;
            s.sent += 1;
            if corrects {
                s.retrans_cache.push_back(osdu.clone());
                while s.retrans_cache.len() > s.retrans_cache_cap {
                    s.retrans_cache.pop_front();
                }
            }
            // The first fresh transmission closes the send-buffer wait.
            cx.obs.transmitted(vc.0, seq, cx.now.as_micros());
        }
        for tpdu in fragments(vc, &osdu, cx.now, cx.mtu) {
            ob.push(Output::Data { to, tpdu });
        }
    }

    /// A receiver's cumulative credit report. On a group VC it updates
    /// that member and re-derives the group; otherwise a stall that the
    /// credit lifts resumes transmission.
    pub(crate) fn on_credit(
        &mut self,
        cx: &Ctx<'_>,
        from: NetAddr,
        freed_total: u64,
        ob: &mut Outbox,
    ) {
        if let Some(ge) = &mut self.group {
            if let Some(r) = ge.receivers.get_mut(&from) {
                r.freed = r.freed.max(freed_total);
                self.regroup(cx, ob);
            }
            return;
        }
        let vc = self.id;
        let Some(s) = self.source.as_mut() else {
            return;
        };
        s.freed_remote = s.freed_remote.max(freed_total);
        if !(s.stalled_credit && s.has_credit()) {
            return;
        }
        s.stalled_credit = false;
        if let Some(since) = s.stalled_at.take() {
            cx.trace_resume(vc, since);
        }
        match self.class.profile {
            ProtocolProfile::RateBasedCm => self.tick(cx, ob),
            ProtocolProfile::WindowBased => self.pump(cx, ob),
            ProtocolProfile::Datagram => {}
        }
    }

    /// Re-derive a group VC's contract, credit line and pacing factor
    /// from its receiver set:
    ///
    /// - contract = the preferred level weakened to every member's
    ///   contract (the slowest acceptable level in force, §3.2);
    /// - credit = the slowest member's window (conservative: smallest
    ///   capacity, smallest cumulative freed);
    /// - pacing = base rate × contracted/preferred throughput.
    pub(crate) fn regroup(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let preferred = self.requirement.tolerance.preferred;
        let Some(ge) = self.group.as_ref() else {
            return;
        };
        let contract = ge
            .receivers
            .values()
            .fold(preferred, |acc, r| acc.weaken_to(&r.contract));
        let credit = ge
            .receivers
            .values()
            .map(|r| r.base_charged + r.freed)
            .min()
            .zip(ge.receivers.values().map(|r| r.capacity).min());
        self.contract = contract;
        // The audited deadline follows the contract in force: joins may
        // weaken it, leaves restore it.
        if cx.obs.enabled() {
            cx.obs.set_contract(
                self.id.0,
                contract.delay.as_micros(),
                contract.packet_error_rate.as_ppb() / 1_000,
            );
        }
        let s = self.src();
        match credit {
            Some((freed, cap)) => {
                s.freed_remote = freed;
                s.recv_capacity = cap;
            }
            None => {
                s.freed_remote = s.charged;
                s.recv_capacity = u64::MAX;
            }
        }
        let num = contract.throughput.as_bps();
        let den = preferred.throughput.as_bps();
        if num > 0 && den > 0 {
            s.clock.set_factor(num.min(den), den, cx.local());
        } else {
            s.clock.set_factor(1, 1, cx.local());
        }
        if s.stalled_credit && s.has_credit() {
            s.stalled_credit = false;
            self.tick(cx, ob);
        } else {
            self.arm_tick(cx.now, ob);
        }
    }

    /// Per-receiver error control: retransmissions (and give-up notices
    /// for cache-evicted sequences) go *unicast* to the requesting node,
    /// so one lossy receiver never triggers a resend to the whole group.
    pub(crate) fn on_nack(&mut self, cx: &Ctx<'_>, from: NetAddr, seqs: Vec<u64>, ob: &mut Outbox) {
        if self.source.is_none() {
            return;
        }
        let vc = self.id;
        let mut gone = Vec::new();
        for seq in seqs {
            // Each nacked sequence is a traced unit the network lost (or
            // corrupted) on the way to `from`.
            cx.obs.net_drop(vc.0);
            let cached = self
                .src()
                .retrans_cache
                .iter()
                .find(|o| o.seq() == seq)
                .cloned();
            match cached {
                Some(osdu) => self.transmit(cx, osdu, true, Some(from), ob),
                None => gone.push(seq),
            }
        }
        if !gone.is_empty() {
            // Evicted from the cache: give up so the receiver can move on.
            ob.push(Output::Control {
                to: To::Node(from),
                msg: Msg::Dropped(gone),
            });
        }
    }

    /// Clear a credit wedge on a rate-profile source whose in-flight
    /// OSDUs died with the old path (self-healing, DESIGN.md §9):
    /// retransmit the cached suffix, declare the uncached prefix dropped,
    /// and ask the sink to re-advertise its cumulative credit. Returns
    /// whether anything was sent.
    pub(crate) fn unstick(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) -> bool {
        let Some(s) = self.source.as_ref() else {
            return false;
        };
        // The window profile recovers through go-back-N itself.
        if !s.stalled_credit || s.gbn.is_some() {
            return false;
        }
        let resend: Vec<Osdu> = s
            .retrans_cache
            .iter()
            .filter(|o| o.seq() >= s.freed_remote)
            .cloned()
            .collect();
        // FIFO cache with ascending seqs: everything below the first
        // cached survivor is unrecoverable — declare it dropped so the
        // sink frees the slots instead of waiting forever.
        let cover_from = resend.first().map(|o| o.seq()).unwrap_or(s.charged);
        let dropped: Vec<u64> = (s.freed_remote..cover_from).collect();
        let to = self.feedback_to();
        for osdu in resend {
            self.transmit(cx, osdu, true, None, ob);
        }
        if !dropped.is_empty() {
            ob.push(Output::Control {
                to,
                msg: Msg::Dropped(dropped),
            });
        }
        ob.push(Output::Control {
            to,
            msg: Msg::CreditProbe,
        });
        true
    }

    // ------------------------------------------------------------------
    // Source end: window profile
    // ------------------------------------------------------------------

    fn arm_rto(&self, ob: &mut Outbox) {
        let at = self
            .source
            .as_ref()
            .and_then(|s| s.gbn.as_ref())
            .and_then(|g| g.timeout_at());
        ob.push(Output::ArmRto(at));
    }

    /// Transmit as much as window and credit allow (window profile).
    pub(crate) fn pump(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let (vc, peer) = (self.id, self.peer_node);
        loop {
            let s = self.src();
            let gbn = s.gbn.as_mut().expect("window sender");
            if !gbn.can_send() {
                break;
            }
            if let Some(tpdu) = s.pending_frags.pop_front() {
                let wseq = gbn.on_send(tpdu.clone(), cx.now);
                ob.push(Output::WindowData {
                    to: peer,
                    wseq,
                    tpdu,
                });
                continue;
            }
            // Pull the next OSDU and fragment it into `pending_frags`.
            if !s.has_credit() {
                if !s.stalled_credit {
                    s.stalled_at = Some(cx.now);
                    ob.push(Output::Heal(HealReason::Stall));
                }
                s.stalled_credit = true;
                break;
            }
            let (osdu, waker) = s.send_buf.pop_deferred(cx.now);
            ob.wake(waker);
            let Some(osdu) = osdu else {
                if !s.waiting_buffer {
                    ob.push(Output::ParkSource(s.send_buf.clone()));
                }
                s.waiting_buffer = true;
                break;
            };
            s.pending_frags.extend(fragments(vc, &osdu, cx.now, cx.mtu));
            s.charged += 1;
            s.sent += 1;
            // The OSDU left the send buffer: close its pacing/credit wait.
            cx.obs.transmitted(vc.0, osdu.seq(), cx.now.as_micros());
        }
        self.arm_rto(ob);
    }

    /// The window RTO fired: go back N.
    pub(crate) fn on_rto(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let (vc, peer) = (self.id, self.peer_node);
        let s = self.src();
        let gbn = s.gbn.as_mut().expect("window sender");
        // wseqs of cached entries are base..next, in order.
        let resend = gbn.check_timeout(cx.now);
        let base = gbn.base();
        // A timeout that actually retransmitted is a strike; enough of
        // them in a row and the path itself is suspect (DESIGN.md §9).
        let strikes = match &resend {
            Some(tpdus) if !tpdus.is_empty() => {
                s.rto_strikes += 1;
                s.rto_strikes
            }
            _ => 0,
        };
        if strikes == cx.rto_patience {
            ob.push(Output::Heal(HealReason::Rto));
        }
        if let Some(tpdus) = resend {
            if cx.tel.enabled() && !tpdus.is_empty() {
                cx.tel.count("vc.rto", 1);
                cx.tel.instant(cx.now, Layer::Transport, "vc.rto", |e| {
                    e.u64("vc", vc.0)
                        .u64("base", base)
                        .u64("resent", tpdus.len() as u64);
                });
            }
            for (i, tpdu) in tpdus.into_iter().enumerate() {
                ob.push(Output::WindowData {
                    to: peer,
                    wseq: base + i as u64,
                    tpdu,
                });
            }
        }
        self.arm_rto(ob);
    }

    /// A cumulative window ACK.
    pub(crate) fn on_ack(&mut self, cx: &Ctx<'_>, upto: u64, ob: &mut Outbox) {
        let Some(s) = self.source.as_mut() else {
            return;
        };
        let slid = s.gbn.as_mut().is_some_and(|g| g.on_ack(upto, cx.now));
        if slid {
            // Window progress: the path works, clear the strikes.
            s.rto_strikes = 0;
            self.pump(cx, ob);
        } else {
            self.arm_rto(ob);
        }
    }

    /// The send buffer woke the parked protocol: the application wrote.
    pub(crate) fn on_send_buffer_ready(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        if let Some(s) = self.source.as_mut() {
            s.waiting_buffer = false;
        }
        match self.class.profile {
            ProtocolProfile::WindowBased => self.pump(cx, ob),
            _ => self.tick(cx, ob),
        }
    }

    // ------------------------------------------------------------------
    // Source end: application interface and orchestration hooks
    // ------------------------------------------------------------------

    /// Application-side OSDU write: assigns the next sequence number
    /// (OPDU numbering starts at zero from first use of the connection,
    /// §5) and pushes into the send buffer. `echo` asks for an
    /// [`Output::Egress`] copy (an egress tap is registered).
    pub(crate) fn write(
        &mut self,
        cx: &Ctx<'_>,
        payload: Payload,
        event: Option<u64>,
        echo: bool,
        ob: &mut Outbox,
    ) -> Result<bool, ServiceError> {
        if self.role != VcRole::Source {
            return Err(ServiceError::WrongState("write on sink end"));
        }
        if payload.len() > self.requirement.max_osdu_size {
            return Err(ServiceError::BadArgument("OSDU exceeds max_osdu_size"));
        }
        let vc = self.id;
        let s = self.src();
        // Assign the sequence number only if there is room (a refused
        // write must not burn a seq).
        if s.send_buf.is_full() {
            return Ok(false);
        }
        let seq = s.next_write_seq;
        let mut osdu = Osdu::new(seq, payload);
        osdu.opdu.event = event;
        // Payloads are tag+len synthetics or refcounted bytes: the echo
        // clone is cheap either way.
        let echo = echo.then(|| osdu.clone());
        let (outcome, waker) = s.send_buf.push_deferred(cx.now, osdu);
        ob.wake(waker);
        if let PushOutcome::Full(_) = outcome {
            return Ok(false);
        }
        s.next_write_seq += 1;
        // Mint the causal span: the budget clock starts when the OSDU
        // enters the send buffer.
        cx.obs.mint(vc.0, seq, cx.now.as_micros());
        if let Some(osdu) = echo {
            ob.push(Output::Egress(osdu));
        }
        Ok(true)
    }

    /// Freeze transmission instantly (Orch.Stop, §6.2.3).
    pub(crate) fn pause(&mut self, ob: &mut Outbox) -> Result<(), ServiceError> {
        let s = self.source.as_mut().ok_or(ServiceError::UnknownVc)?;
        s.clock.pause();
        ob.push(Output::DisarmTick);
        Ok(())
    }

    /// Resume a paused source (Orch.Start, §6.2.2).
    pub(crate) fn resume(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) -> Result<(), ServiceError> {
        let s = self.source.as_mut().ok_or(ServiceError::UnknownVc)?;
        s.clock.resume(cx.local());
        self.arm_tick(cx.now, ob);
        Ok(())
    }

    /// Retune the pacing rate to `base × num/den` (the LLO's fine-grained
    /// regulation, §6.3.1). The factor is validated by the caller.
    pub(crate) fn set_rate_factor(
        &mut self,
        cx: &Ctx<'_>,
        num: u64,
        den: u64,
        ob: &mut Outbox,
    ) -> Result<(), ServiceError> {
        let s = self.source.as_mut().ok_or(ServiceError::UnknownVc)?;
        s.clock.set_factor(num, den, cx.local());
        self.arm_tick(cx.now, ob);
        Ok(())
    }

    /// Discard the oldest unsent OSDU "by incrementing the source shared
    /// buffer pointer" (§6.3.1.1) and tell the receiver, so the gap is
    /// not treated as loss. Returns whether anything was dropped.
    pub(crate) fn drop_one(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) -> Result<bool, ServiceError> {
        let to = self.feedback_to();
        let s = self
            .source
            .as_mut()
            .ok_or(ServiceError::WrongState("drop on sink end"))?;
        let (osdu, waker) = s.send_buf.pop_deferred(cx.now);
        ob.wake(waker);
        let Some(osdu) = osdu else { return Ok(false) };
        s.charged += 1;
        s.dropped += 1;
        ob.push(Output::Control {
            to,
            msg: Msg::Dropped(vec![osdu.seq()]),
        });
        Ok(true)
    }

    /// Send an opaque payload on the VC's control channel (§5's OPDU
    /// channel); on a group VC it fans out to every member.
    pub(crate) fn send_control(
        &mut self,
        payload: Rc<dyn Any>,
        ob: &mut Outbox,
    ) -> Result<(), ServiceError> {
        ob.push(Output::Control {
            to: self.feedback_to(),
            msg: Msg::UserControl(payload),
        });
        Ok(())
    }

    /// Flush this end's buffer (stop + seek, §6.2.1). At the source the
    /// flushed OSDUs are declared dropped so the receiver does not count
    /// them lost; at the sink the freed slots are credited back.
    pub(crate) fn flush(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) -> usize {
        let to = self.feedback_to();
        if self.role == VcRole::Sink {
            let k = self.sink.as_mut().expect("sink end");
            let (flushed, waker) = k.recv_buf.flush_deferred(cx.now);
            ob.wake(waker);
            let n = flushed + k.pending_delivery.len();
            k.pending_delivery.clear();
            // Freed without application delivery.
            k.app_popped += n as u64;
            self.sink_credit(false, ob);
            return n;
        }
        let s = self.src();
        let (n, waker) = s.send_buf.flush_deferred(cx.now);
        ob.wake(waker);
        // FIFO + sequential assignment ⇒ the flushed units were exactly
        // seqs charged..charged+n.
        let first = s.charged;
        s.charged += n as u64;
        s.dropped += n as u64;
        if n > 0 {
            let seqs = (first..first + n as u64).collect();
            ob.push(Output::Control {
                to,
                msg: Msg::Dropped(seqs),
            });
        }
        n
    }

    /// Harvest this end's interval statistics (blocking times mapped to
    /// application/protocol according to the end's role, §6.3.1.2).
    pub(crate) fn end_stats(&mut self, now: SimTime) -> EndStats {
        if self.role == VcRole::Source {
            let s = self.src();
            let b = s.send_buf.take_stats(now);
            let dropped = s.dropped - s.dropped_snap;
            s.dropped_snap = s.dropped;
            return EndStats {
                // At the source the application *produces* (blocked on a
                // full buffer) and the protocol *consumes* (blocked on an
                // empty one).
                app_blocked: b.producer_blocked,
                proto_blocked: b.consumer_blocked,
                seq_progress: s.charged,
                dropped,
                lost: 0,
                app_popped: 0,
            };
        }
        let k = self.sink.as_mut().expect("sink end");
        let b = k.recv_buf.take_stats(now);
        let lost = k.engine.lost - k.lost_snap;
        k.lost_snap = k.engine.lost;
        EndStats {
            // At the sink the protocol produces and the app consumes.
            // Flow control stalls the *sender* before the local producer
            // ever parks, so the honest "protocol blocked" figure is the
            // time the receive buffer sat full.
            app_blocked: b.consumer_blocked,
            proto_blocked: b.full_time.max(b.producer_blocked),
            // Table 6's OSDU# is what was *delivered to the sink
            // application thread* — buffered-but-unread units do not
            // count.
            seq_progress: k.app_popped + k.engine.internal_freed,
            dropped: 0,
            lost,
            app_popped: k.app_popped,
        }
    }

    // ------------------------------------------------------------------
    // Sink end
    // ------------------------------------------------------------------

    /// A rate-profile data TPDU: reassembly, monitor accounting and the
    /// whole delivery batch it releases.
    pub(crate) fn on_data(
        &mut self,
        cx: &Ctx<'_>,
        tpdu: DataTpdu,
        corrupted: bool,
        queued_us: u64,
        ob: &mut Outbox,
    ) {
        let Some(k) = self.sink.as_mut() else { return };
        let (lost, damaged) = (k.engine.lost, k.engine.corrupted);
        let mut actions = std::mem::take(&mut ob.actions);
        let arrival = k.engine.on_tpdu(&tpdu, corrupted, cx.now, &mut actions);
        let clean = k.engine.lost == lost && k.engine.corrupted == damaged;
        // An OSDU counts as received once, at the final fragment that
        // completes it into delivery or into the stash. A final fragment
        // that closes it with no loss or damage counted (a hole left for
        // repair, a declared drop) counts too; a late duplicate never does.
        let received = match arrival {
            Arrival::Delivered | Arrival::Stashed => true,
            Arrival::Resolved => clean,
            Arrival::Fragment | Arrival::Duplicate => false,
        };
        if let Some(m) = &mut k.monitor {
            m.on_lost(k.engine.lost - lost);
            for _ in damaged..k.engine.corrupted {
                m.on_corrupted();
            }
            if received {
                let delay = cx.now.saturating_since(tpdu.osdu_sent_at);
                m.on_delivered(tpdu.frag_bytes, delay);
            }
        }
        if received && cx.obs.enabled() {
            cx.obs.arrived(
                tpdu.vc.0,
                tpdu.osdu_seq,
                cx.node.0 as u64,
                cx.now.as_micros(),
                queued_us,
                tpdu.osdu_sent_at.as_micros(),
            );
        }
        self.apply(cx, &mut actions, ob);
        ob.actions = actions;
    }

    /// A window-profile data TPDU: acknowledge, then feed the in-order
    /// ones to reassembly.
    pub(crate) fn on_window_data(
        &mut self,
        cx: &Ctx<'_>,
        wseq: u64,
        tpdu: DataTpdu,
        corrupted: bool,
        queued_us: u64,
        ob: &mut Outbox,
    ) {
        let peer = self.peer_node;
        let Some(k) = self.sink.as_mut() else { return };
        let g = k.gbn_recv.as_mut().expect("window receiver");
        let (accept, upto) = if corrupted {
            // A damaged TPDU is treated as lost: dup-ack.
            g.discarded += 1;
            (false, g.expected())
        } else {
            g.on_tpdu_seq(wseq)
        };
        ob.push(Output::Control {
            to: To::Node(peer),
            msg: Msg::Ack(upto),
        });
        if accept {
            self.on_data(cx, tpdu, false, queued_us, ob);
        }
    }

    /// The source declared these sequences dropped.
    pub(crate) fn on_dropped(&mut self, cx: &Ctx<'_>, seqs: &[u64], ob: &mut Outbox) {
        let Some(k) = self.sink.as_mut() else { return };
        let mut actions = std::mem::take(&mut ob.actions);
        k.engine.on_drop_notice(seqs, cx.now, &mut actions);
        self.apply(cx, &mut actions, ob);
        ob.actions = actions;
    }

    /// Perform a batch of sink-engine actions in order — deliveries into
    /// the receive buffer (or behind it, pending), NACKs, loss
    /// indications — then the credit step and the producer park.
    fn apply(&mut self, cx: &Ctx<'_>, actions: &mut Vec<SinkAction>, ob: &mut Outbox) {
        let (vc, peer, tsap) = (self.id, self.peer_node, self.local_tsap);
        let Some(k) = self.sink.as_mut() else { return };
        let mut park = false;
        for action in actions.drain(..) {
            match action {
                SinkAction::Deliver(osdu) => {
                    let opdu = osdu.opdu;
                    // The engine released the OSDU (ending any stash-behind-
                    // a-hole wait): stamp it delivered for attribution.
                    cx.obs
                        .sink_delivered(vc.0, osdu.seq(), cx.node.0 as u64, cx.now.as_micros());
                    let osdu = if k.pending_delivery.is_empty() {
                        match k.recv_buf.push_deferred(cx.now, osdu) {
                            (PushOutcome::Pushed { .. }, waker) => {
                                ob.wake(waker);
                                ob.push(Output::Tap(TapEvent::Arrived(opdu)));
                                continue;
                            }
                            (PushOutcome::Full(osdu), _) => osdu,
                        }
                    } else {
                        osdu
                    };
                    k.pending_delivery.push_back(osdu);
                    if !k.producer_parked {
                        k.producer_parked = true;
                        park = true;
                    }
                }
                SinkAction::SendNack(seqs) => ob.push(Output::Control {
                    to: To::Node(peer),
                    msg: Msg::Nack(seqs),
                }),
                SinkAction::IndicateLoss(seq) => {
                    ob.push(Output::LossIndication { tsap, seq });
                    ob.push(Output::Tap(TapEvent::Loss(seq)));
                }
            }
        }
        self.sink_credit(false, ob);
        if park {
            self.park_sink(ob);
        }
    }

    fn park_sink(&self, ob: &mut Outbox) {
        if let Some(k) = &self.sink {
            ob.push(Output::ParkSink(k.recv_buf.clone()));
        }
    }

    /// The sink-end credit step: advertise the cumulative freed total
    /// when it grew, or unconditionally when `force`d (a `CreditProbe`:
    /// the sender may have lost the last report).
    pub(crate) fn sink_credit(&mut self, force: bool, ob: &mut Outbox) {
        let peer = self.peer_node;
        let Some(k) = self.sink.as_mut() else { return };
        let freed = k.freed_total();
        if force || freed > k.last_freed_sent {
            k.last_freed_sent = k.last_freed_sent.max(freed);
            ob.push(Output::Control {
                to: To::Node(peer),
                msg: Msg::Credit(freed),
            });
        }
    }

    /// Move pending deliveries into freed receive-buffer slots (the
    /// receive buffer woke the parked producer, or the application read).
    pub(crate) fn drain_pending(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let Some(k) = self.sink.as_mut() else { return };
        k.producer_parked = false;
        while let Some(osdu) = k.pending_delivery.pop_front() {
            let opdu = osdu.opdu;
            match k.recv_buf.push_deferred(cx.now, osdu) {
                (PushOutcome::Pushed { .. }, waker) => {
                    ob.wake(waker);
                    ob.push(Output::Tap(TapEvent::Arrived(opdu)));
                }
                (PushOutcome::Full(osdu), _) => {
                    k.pending_delivery.push_front(osdu);
                    k.producer_parked = true;
                    break;
                }
            }
        }
        let park = k.producer_parked;
        self.sink_credit(false, ob);
        if park {
            self.park_sink(ob);
        }
    }

    /// Application-side OSDU read from the receive buffer (respects the
    /// orchestration gate): credit for the freed slot, then the pending
    /// drain.
    pub(crate) fn read(
        &mut self,
        cx: &Ctx<'_>,
        ob: &mut Outbox,
    ) -> Result<Option<Osdu>, ServiceError> {
        if self.role != VcRole::Sink {
            return Err(ServiceError::WrongState("read on source end"));
        }
        let vc = self.id;
        let k = self.sink.as_mut().expect("sink end");
        let (osdu, waker) = k.recv_buf.pop_deferred(cx.now);
        ob.wake(waker);
        let Some(osdu) = osdu else { return Ok(None) };
        k.app_popped += 1;
        // The span ends where the paper's service does: at the sink
        // application's read.
        cx.obs
            .closed(vc.0, osdu.seq(), cx.node.0 as u64, cx.now.as_micros());
        self.sink_credit(false, ob);
        self.drain_pending(cx, ob);
        Ok(Some(osdu))
    }

    /// Open or close the receive-delivery gate (Orch.Prime holds data in
    /// the buffers without releasing it, §6.2.1).
    pub(crate) fn set_gate(
        &mut self,
        cx: &Ctx<'_>,
        gated: bool,
        ob: &mut Outbox,
    ) -> Result<(), ServiceError> {
        let k = self.sink.as_ref().ok_or(ServiceError::UnknownVc)?;
        ob.wake(k.recv_buf.set_gated_deferred(cx.now, gated));
        Ok(())
    }

    /// A QoS monitor period ended (§4.1.2): sample, and on violation
    /// indicate locally and report to the source end.
    pub(crate) fn on_monitor(&mut self, cx: &Ctx<'_>, ob: &mut Outbox) {
        let (vc, contract, peer, tsap) = (self.id, self.contract, self.peer_node, self.local_tsap);
        let Some(m) = self.sink.as_mut().and_then(|k| k.monitor.as_mut()) else {
            return;
        };
        let period = m.period();
        let measured = m.end_period(cx.now);
        let violations = measured.violations_of(&contract);
        if cx.tel.enabled() {
            // Every monitor period leaves one sample event (§4.1.2 QoS
            // maintenance observes continuously, not only on violation).
            cx.tel.record("vc.jitter_us", measured.jitter.as_micros());
            cx.tel
                .record("vc.throughput_bps", measured.throughput.as_bps());
            cx.tel
                .instant(cx.now, Layer::Transport, "vc.qos.sample", |e| {
                    e.u64("vc", vc.0)
                        .u64("throughput_bps", measured.throughput.as_bps())
                        .u64("contract_bps", contract.throughput.as_bps())
                        .u64("delay_us", measured.delay.as_micros())
                        .u64("jitter_us", measured.jitter.as_micros())
                        .f64("loss", measured.packet_error_rate.as_prob())
                        .u64("violations", violations.len() as u64);
                });
            if !violations.is_empty() {
                cx.tel.count("vc.qos.violation", violations.len() as u64);
            }
        }
        if !violations.is_empty() {
            let report = QosReport {
                vc,
                contracted: contract,
                measured,
                sample_period: period,
                violations,
            };
            // Indicate locally (sink user)...
            ob.push(Output::QosIndication {
                tsap,
                report: Box::new(report.clone()),
            });
            // ...and report to the source end (§4.1.2's initiator/source
            // notification).
            ob.push(Output::Control {
                to: To::Node(peer),
                msg: Msg::QosReport(Box::new(report)),
            });
        }
        ob.push(Output::ArmMonitor(m.period_end()));
    }
}

#[cfg(test)]
mod tests {
    //! The machine without a network: each test builds a bare `Vc`, feeds
    //! it inputs and reads the outbox.

    use super::*;
    use crate::monitor::QosMonitor;
    use crate::vc::SinkEnd;
    use crate::window::GoBackNSender;
    use cm_core::media::MediaProfile;
    use cm_core::service_class::ErrorControlClass;

    const SRC: NetAddr = NetAddr(0);
    const DST: NetAddr = NetAddr(1);
    const VC: VcId = VcId(7);

    struct Rig {
        tel: Telemetry,
        obs: Obs,
        ob: Outbox,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                tel: Telemetry::disabled(),
                obs: Obs::disabled(),
                ob: Outbox::default(),
            }
        }

        /// Run one input at `ms`, returning its outputs.
        fn at<R>(
            &mut self,
            ms: u64,
            input: impl FnOnce(&Ctx<'_>, &mut Outbox) -> R,
        ) -> (R, Vec<Output>) {
            let now = SimTime::from_millis(ms);
            let local = move || now;
            let cx = Ctx {
                now,
                local: &local,
                node: DST,
                mtu: crate::tpdu::DEFAULT_MTU,
                rto_patience: 3,
                tel: &self.tel,
                obs: &self.obs,
            };
            let r = input(&cx, &mut self.ob);
            (r, self.ob.take_out())
        }
    }

    fn vc(class: ServiceClass, source: Option<SourceEnd>, sink: Option<SinkEnd>) -> Vc {
        let requirement = MediaProfile::audio_telephone().requirement();
        let (role, peer) = match source {
            Some(_) => (VcRole::Source, DST),
            None => (VcRole::Sink, SRC),
        };
        Vc {
            id: VC,
            triple: AddressTriple::conventional(
                TransportAddr {
                    node: SRC,
                    tsap: Tsap(1),
                },
                TransportAddr {
                    node: DST,
                    tsap: Tsap(2),
                },
            ),
            class,
            requirement,
            contract: requirement.tolerance.preferred,
            role,
            peer_node: peer,
            local_tsap: Tsap(2),
            source,
            sink,
            group: None,
            pending_reneg: None,
        }
    }

    /// A rate-profile source (50 OSDUs/s) with `credit` receive slots.
    fn rate_source(credit: u64) -> Vc {
        let rate = MediaProfile::audio_telephone().osdu_rate;
        let s = SourceEnd::new(8, rate, SimTime::ZERO, None, credit, 8);
        vc(ServiceClass::cm_default(), Some(s), None)
    }

    fn sink(slots: usize, monitor: Option<QosMonitor>) -> Vc {
        let k = SinkEnd::new(slots, ErrorControlClass::DetectIndicate, false, monitor, 0);
        vc(ServiceClass::cm_default(), None, Some(k))
    }

    fn tpdu(seq: u64, index: u32, count: u32) -> DataTpdu {
        DataTpdu {
            vc: VC,
            osdu_seq: seq,
            frag_index: index,
            frag_count: count,
            frag_bytes: 40,
            opdu: Opdu { seq, event: None },
            payload: (index + 1 == count).then(|| Payload::synthetic(seq, 80)),
            osdu_sent_at: SimTime::ZERO,
        }
    }

    fn sent_data(out: &[Output]) -> usize {
        out.iter()
            .filter(|o| matches!(o, Output::Data { .. }))
            .count()
    }

    fn credits(out: &[Output]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                Output::Control {
                    msg: Msg::Credit(freed_total),
                    ..
                } => Some(*freed_total),
                _ => None,
            })
            .collect()
    }

    fn arrived(out: &[Output]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                Output::Tap(TapEvent::Arrived(opdu)) => Some(opdu.seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn exhausted_credit_stalls_the_tick_until_credit_returns() {
        let mut rig = Rig::new();
        let mut v = rate_source(1);
        for n in 0..2 {
            let (ok, _) = rig.at(0, |cx, ob| {
                v.write(cx, Payload::synthetic(n, 80), None, false, ob)
            });
            assert_eq!(ok, Ok(true));
        }
        // The first tick spends the only credit slot.
        let (_, out) = rig.at(0, |cx, ob| v.tick(cx, ob));
        assert_eq!(sent_data(&out), 1);
        assert!(matches!(out.last(), Some(Output::ArmTick { .. })));
        // The next is due but finds no credit: no data, a stall.
        let (_, out) = rig.at(20, |cx, ob| v.tick(cx, ob));
        assert_eq!(sent_data(&out), 0);
        assert!(matches!(out.as_slice(), [Output::Heal(HealReason::Stall)]));
        assert!(v.source.as_ref().unwrap().stalled_credit);
        // Credit returns: the stalled tick transmits and re-arms.
        let (_, out) = rig.at(25, |cx, ob| v.on_credit(cx, DST, 1, ob));
        assert_eq!(sent_data(&out), 1);
        assert!(matches!(out.last(), Some(Output::ArmTick { .. })));
        assert!(!v.source.as_ref().unwrap().stalled_credit);
    }

    #[test]
    fn two_fragment_osdu_yields_one_delivery() {
        let mut rig = Rig::new();
        let mut v = sink(4, None);
        let (_, out) = rig.at(1, |cx, ob| v.on_data(cx, tpdu(0, 0, 2), false, 0, ob));
        assert!(arrived(&out).is_empty());
        let (_, out) = rig.at(2, |cx, ob| v.on_data(cx, tpdu(0, 1, 2), false, 0, ob));
        assert_eq!(arrived(&out), vec![0]);
        assert_eq!(v.sink.as_ref().unwrap().recv_buf.len(), 1);
    }

    #[test]
    fn full_receive_buffer_parks_pending_and_a_read_drains_it() {
        let mut rig = Rig::new();
        let mut v = sink(1, None);
        let (_, out) = rig.at(1, |cx, ob| v.on_data(cx, tpdu(0, 0, 1), false, 0, ob));
        assert_eq!(arrived(&out), vec![0]);
        // The one slot is taken: OSDU 1 waits as pending, producer parked.
        let (_, out) = rig.at(2, |cx, ob| v.on_data(cx, tpdu(1, 0, 1), false, 0, ob));
        assert!(arrived(&out).is_empty());
        assert!(matches!(out.as_slice(), [Output::ParkSink(_)]));
        assert_eq!(v.sink.as_ref().unwrap().pending_delivery.len(), 1);
        // The read frees the slot; the drain fills it; one credit report.
        let (read, out) = rig.at(3, |cx, ob| v.read(cx, ob));
        assert_eq!(read.unwrap().map(|o| o.seq()), Some(0));
        assert_eq!(arrived(&out), vec![1]);
        assert_eq!(credits(&out), vec![1]);
        let k = v.sink.as_ref().unwrap();
        assert!(k.pending_delivery.is_empty() && !k.producer_parked);
    }

    #[test]
    fn rto_retransmits_the_window_in_order() {
        let mut rig = Rig::new();
        let rate = MediaProfile::audio_telephone().osdu_rate;
        let gbn = GoBackNSender::new(4, SimDuration::from_millis(200));
        let s = SourceEnd::new(8, rate, SimTime::ZERO, Some(gbn), 8, 32);
        let class = ServiceClass {
            profile: ProtocolProfile::WindowBased,
            error_control: ErrorControlClass::DetectCorrect,
        };
        let mut v = vc(class, Some(s), None);
        for n in 0..3 {
            let (ok, _) = rig.at(0, |cx, ob| {
                v.write(cx, Payload::synthetic(n, 80), None, false, ob)
            });
            assert_eq!(ok, Ok(true));
        }
        let wseqs = |out: &[Output]| -> Vec<(u64, u64)> {
            out.iter()
                .filter_map(|o| match o {
                    Output::WindowData { wseq, tpdu, .. } => Some((*wseq, tpdu.osdu_seq)),
                    _ => None,
                })
                .collect()
        };
        let (_, out) = rig.at(0, |cx, ob| v.start(cx, ob));
        assert_eq!(wseqs(&out), vec![(0, 0), (1, 1), (2, 2)]);
        let rto = SimTime::from_millis(200);
        assert!(matches!(out.last(), Some(Output::ArmRto(Some(at))) if *at == rto));
        // Nothing acknowledged: the timeout goes back to base, in order.
        let (_, out) = rig.at(200, |cx, ob| v.on_rto(cx, ob));
        assert_eq!(wseqs(&out), vec![(0, 0), (1, 1), (2, 2)]);
        assert!(matches!(out.last(), Some(Output::ArmRto(Some(_)))));
    }

    #[test]
    fn violating_monitor_period_indicates_and_reports() {
        let mut rig = Rig::new();
        let monitor = QosMonitor::new(SimDuration::from_secs(1), SimTime::ZERO);
        let mut v = sink(4, Some(monitor));
        // A silent period: zero throughput violates the contract.
        let (_, out) = rig.at(1_000, |cx, ob| v.on_monitor(cx, ob));
        match out.as_slice() {
            [Output::QosIndication {
                tsap,
                report: local,
            }, Output::Control {
                to: To::Node(to),
                msg: Msg::QosReport(sent),
            }, Output::ArmMonitor(next)] => {
                assert_eq!(*tsap, Tsap(2));
                assert_eq!(*to, SRC);
                assert_eq!(local, sent);
                assert!(!sent.violations.is_empty());
                assert_eq!(*next, SimTime::from_secs(2));
            }
            _ => panic!("unexpected outputs: {} of them", out.len()),
        }
    }
}
