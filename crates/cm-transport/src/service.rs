//! The transport service interface — the OSI-style primitives of tables
//! 1–3 plus the data-transfer and orchestration hooks.
//!
//! A [`TransportService`] is a per-node handle over the transport entity.
//! Applications/platform objects implement [`TransportUser`] and bind it to
//! a TSAP; the entity delivers indications and confirms through that trait
//! (each as its own event at the current simulated instant, so users may
//! freely call back into the service). The orchestration layer additionally
//! registers a [`VcTap`] per orchestrated VC for OPDU and arrival
//! monitoring (§5–6).

use crate::buffer::BufferHandle;
use crate::datapath::{Ctx, Outbox};
use crate::entity::{TransportEntity, VcEntry};
use crate::tpdu::QosReport;
use crate::vc::{EndStats, VcRole};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::osdu::{Opdu, Osdu, Payload};
use cm_core::qos::{QosParams, QosRequirement, QosTolerance};
use cm_core::service_class::ServiceClass;
use cm_core::time::{Rate, SimDuration, SimTime};
use std::any::Any;
use std::rc::Rc;

/// Static configuration of a transport entity.
#[derive(Debug, Clone)]
pub struct EntityConfig {
    /// Network MTU the entity fragments against.
    pub mtu: usize,
    /// QoS monitor sample period (§4.1.2).
    pub monitor_period: SimDuration,
    /// Fixed buffer slot count (overrides the rate-derived default).
    pub buffer_slots_override: Option<usize>,
    /// Window size in TPDUs (window-based profile).
    pub window_size: usize,
    /// Retransmission timeout (window-based profile).
    pub rto: SimDuration,
    /// Self-healing: delay between failure detection and the first repair
    /// attempt, and the initial repair-retry backoff. A transient stall
    /// shorter than this never churns reservations.
    pub heal_patience: SimDuration,
    /// Self-healing: cap on the exponential repair-retry backoff.
    pub heal_backoff_cap: SimDuration,
    /// Self-healing: consecutive no-progress RTO firings before a reroute
    /// is attempted (the window profile's failure detector).
    pub heal_rto_patience: u32,
    /// Self-healing: repair attempts per episode before giving up and
    /// tearing the VC down as `Unreachable`.
    pub heal_max_attempts: u32,
    /// Causal-tracing registry (`cm-obs`). Entities installed with clones
    /// of one config share the registry; it is disabled by default and
    /// costs one branch per hook until enabled.
    pub obs: cm_obs::Obs,
}

impl Default for EntityConfig {
    fn default() -> Self {
        EntityConfig {
            mtu: crate::tpdu::DEFAULT_MTU,
            monitor_period: SimDuration::from_secs(1),
            buffer_slots_override: None,
            window_size: 16,
            rto: SimDuration::from_millis(200),
            heal_patience: SimDuration::from_millis(50),
            heal_backoff_cap: SimDuration::from_millis(800),
            heal_rto_patience: 3,
            heal_max_attempts: 8,
            obs: cm_obs::Obs::disabled(),
        }
    }
}

/// Callbacks delivered to a transport user bound to a TSAP.
///
/// Every method has a default empty implementation so users override only
/// what they need. The service handle is passed in so responses
/// (`t_connect_response` etc.) can be issued directly from the callback.
#[allow(unused_variables)]
pub trait TransportUser {
    /// `T-Connect.indication` (table 1): a connection to this TSAP is
    /// proposed. Answer with [`TransportService::t_connect_response`].
    fn t_connect_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        triple: AddressTriple,
        class: ServiceClass,
        qos: QosRequirement,
    ) {
    }

    /// `T-Connect.confirm` (table 1): outcome of a connect this user
    /// initiated (or sourced).
    fn t_connect_confirm(
        &self,
        svc: &TransportService,
        vc: VcId,
        result: Result<QosParams, DisconnectReason>,
    ) {
    }

    /// `T-Disconnect.indication` (table 1). Note §4.1.3: when the reason is
    /// [`DisconnectReason::RenegotiationRefused`] the VC is *still open* —
    /// the indication reports only that the new service level was refused.
    fn t_disconnect_indication(&self, svc: &TransportService, vc: VcId, reason: DisconnectReason) {}

    /// `T-QoS.indication` (table 2): the monitored QoS violated the
    /// contract over the last sample period (soft guarantee, §3.2).
    fn t_qos_indication(&self, svc: &TransportService, report: QosReport) {}

    /// `T-Renegotiate.indication` (table 3): the peer proposes new
    /// tolerance levels. Answer with
    /// [`TransportService::t_renegotiate_response`].
    fn t_renegotiate_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        new_tolerance: QosTolerance,
    ) {
    }

    /// `T-Renegotiate.confirm` (table 3): the renegotiation succeeded and
    /// `qos` is now in force.
    fn t_renegotiate_confirm(&self, svc: &TransportService, vc: VcId, qos: QosParams) {}

    /// Error indication (§3.4 classes (i) and (iii)): OSDU `seq` was lost
    /// or damaged beyond repair.
    fn t_error_indication(&self, svc: &TransportService, vc: VcId, seq: u64) {}

    /// A connectionless datagram arrived at this TSAP.
    fn t_datagram_indication(
        &self,
        svc: &TransportService,
        from: TransportAddr,
        payload: Rc<dyn Any>,
    ) {
    }

    // ---- Group (1:N) VC callbacks, sender side ---------------------------

    /// Outcome of a [`TransportService::t_group_add_receiver`] invitation:
    /// either the per-receiver contract now in force for `member`, or a
    /// typed denial (branch QoS below the acceptable floor, reservation
    /// admission failure, unreachable node, or the member's own refusal).
    /// Denials leave already-admitted receivers untouched.
    fn t_group_join_confirm(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        result: Result<QosParams, DisconnectReason>,
    ) {
    }

    /// A group member released its end (or was torn down remotely); its
    /// branch reservations have been pruned and the group contract
    /// re-derived from the remaining receivers.
    fn t_group_leave_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        reason: DisconnectReason,
    ) {
    }

    /// A QoS violation report from one receiver of a group VC (soft
    /// guarantee, §3.2) — per-member, so one degraded branch is
    /// attributable without implicating the rest of the group.
    fn t_group_qos_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: NetAddr,
        report: QosReport,
    ) {
    }
}

/// Orchestration-layer tap on one VC (the "close implementation
/// relationship between the LLO and the transport service", §6.2.1).
#[allow(unused_variables)]
pub trait VcTap {
    /// An OSDU was written into the receive buffer (sink side); carries
    /// its OPDU for `Orch.Event` matching (§6.3.4).
    fn on_osdu_arrived(&self, vc: VcId, opdu: Opdu) {}

    /// An opaque control payload arrived on the VC's control channel.
    fn on_control(&self, vc: VcId, payload: Rc<dyn Any>) {}

    /// An OSDU was reported lost/damaged beyond repair.
    fn on_loss_indicated(&self, vc: VcId, seq: u64) {}
}

/// Source-side egress tap on one VC: sees every OSDU the instant
/// `write_osdu` accepts it into the send buffer, synchronously, before
/// packetization. This is the capture point for zone-edge relays — a
/// wide-area forwarder observing at the write call costs no extra
/// packets, no receiver slot and no engine events, where a forwarder
/// joined as a *member* would ride the full local delivery path once
/// per OSDU (DESIGN.md §13).
///
/// The callback runs after the entity's state borrow is released, so it
/// may call back into the service (including `write_osdu`) — but it runs
/// inside the writer's call, so it must not assume the OSDU has been
/// transmitted, only buffered.
pub trait EgressTap {
    /// `write_osdu` accepted this OSDU (sequence number assigned, span
    /// minted) at simulated time `now_us`.
    fn on_osdu_written(&self, vc: VcId, osdu: &Osdu, now_us: u64);
}

/// Per-node handle to the transport service.
#[derive(Clone)]
pub struct TransportService {
    entity: Rc<TransportEntity>,
}

impl TransportService {
    pub(crate) fn new(entity: Rc<TransportEntity>) -> TransportService {
        TransportService { entity }
    }

    /// Run one data-path input on `vc` through the entity's driver.
    fn drive<R>(
        &self,
        vc: VcId,
        input: impl FnOnce(&mut VcEntry, &Ctx<'_>, &mut Outbox) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        self.entity
            .drive(vc, input)
            .unwrap_or(Err(ServiceError::UnknownVc))
    }

    /// The causal-tracing registry this entity stamps spans into.
    pub fn obs(&self) -> &cm_obs::Obs {
        self.entity.obs()
    }

    /// Install a transport entity on `node` and return its service handle.
    pub fn install(net: &netsim::Network, node: NetAddr, config: EntityConfig) -> TransportService {
        TransportEntity::install(net, node, config)
    }

    /// The node this service runs on.
    pub fn node(&self) -> NetAddr {
        self.entity.node
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.entity.net.engine().now()
    }

    /// The underlying network handle (topology queries, engine access).
    pub fn network(&self) -> &netsim::Network {
        &self.entity.net
    }

    // ---- TSAP management -------------------------------------------------

    /// Bind `user` to a TSAP.
    pub fn bind(&self, tsap: Tsap, user: Rc<dyn TransportUser>) -> Result<(), ServiceError> {
        self.entity.bind(tsap, user)
    }

    /// Release a TSAP.
    pub fn unbind(&self, tsap: Tsap) -> Result<(), ServiceError> {
        self.entity.unbind(tsap)
    }

    // ---- Connection management (tables 1 & 3) ----------------------------

    /// `T-Connect.request`: initiate a (possibly remote, §3.5) simplex
    /// connection. Returns the allocated VC id; the outcome arrives via
    /// `t_connect_confirm`.
    pub fn t_connect_request(
        &self,
        triple: AddressTriple,
        class: ServiceClass,
        qos: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        self.entity.t_connect_request(triple, class, qos)
    }

    /// `T-Connect.response`: answer a `t_connect_indication`.
    pub fn t_connect_response(&self, vc: VcId, accept: bool) -> Result<(), ServiceError> {
        self.entity.t_connect_response(vc, accept)
    }

    /// `T-Disconnect.request`: release a VC (from an endpoint) or request
    /// remote release (from the initiator, §4.1.1).
    pub fn t_disconnect_request(&self, vc: VcId) -> Result<(), ServiceError> {
        self.entity
            .t_disconnect_request(vc, DisconnectReason::UserRelease)
    }

    /// `T-Renegotiate.request`: propose new tolerance levels for a live VC
    /// (§4.1.3). Outcome arrives as `t_renegotiate_confirm`, or as a
    /// `t_disconnect_indication(RenegotiationRefused)` with the VC intact.
    pub fn t_renegotiate_request(
        &self,
        vc: VcId,
        new_tolerance: QosTolerance,
    ) -> Result<(), ServiceError> {
        self.entity.t_renegotiate_request(vc, new_tolerance)
    }

    /// `T-Renegotiate.response`: answer a `t_renegotiate_indication`.
    pub fn t_renegotiate_response(&self, vc: VcId, accept: bool) -> Result<(), ServiceError> {
        self.entity.t_renegotiate_response(vc, accept)
    }

    // ---- Group (1:N) VCs (§3.1 CM multicast) -----------------------------

    /// Open the sending end of a 1:N group VC at `tsap`. The VC starts
    /// with an empty receiver set; invite members with
    /// [`TransportService::t_group_add_receiver`]. Each OSDU is forwarded
    /// once per shared-tree link and fanned out at branch points, so the
    /// source's first-hop link carries the stream exactly once regardless
    /// of the receiver count.
    pub fn t_group_open(
        &self,
        tsap: Tsap,
        class: ServiceClass,
        qos: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        self.entity.t_group_open(tsap, class, qos)
    }

    /// Invite `to` into group VC `vc`. Synchronous errors cover misuse
    /// only; the admission outcome arrives via
    /// [`TransportUser::t_group_join_confirm`]. The invitee sees an
    /// ordinary `t_connect_indication` and answers with
    /// [`TransportService::t_connect_response`].
    pub fn t_group_add_receiver(&self, vc: VcId, to: TransportAddr) -> Result<(), ServiceError> {
        self.entity.t_group_add_receiver(vc, to)
    }

    /// Remove `member` from the group: its branch reservations are
    /// released (and only those — the rest of the tree is untouched) and
    /// the group contract re-derived from the remaining receivers.
    pub fn t_group_remove_receiver(&self, vc: VcId, member: NetAddr) -> Result<(), ServiceError> {
        self.entity.t_group_remove_receiver(vc, member)
    }

    /// Close the whole group VC: disconnect every member and release the
    /// shared tree.
    pub fn t_group_close(&self, vc: VcId) -> Result<(), ServiceError> {
        self.entity.t_group_close(vc)
    }

    /// The network-layer multicast group behind a group VC.
    pub fn group_id(&self, vc: VcId) -> Result<netsim::GroupId, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.group.as_ref())
            .map(|ge| ge.group)
            .ok_or(ServiceError::UnknownVc)
    }

    /// The admitted receivers of a group VC with their per-member
    /// contracts, in deterministic node order.
    pub fn group_receivers(
        &self,
        vc: VcId,
    ) -> Result<Vec<(TransportAddr, QosParams)>, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.group.as_ref())
            .map(|ge| {
                ge.receivers
                    .values()
                    .map(|r| (r.addr, r.contract))
                    .collect()
            })
            .ok_or(ServiceError::UnknownVc)
    }

    // ---- Data transfer (§3.7) --------------------------------------------

    /// Write one logical unit; the transport assigns its OSDU sequence
    /// number (numbering starts at zero from first use, §5). Returns
    /// `Ok(false)` when the send buffer is full (park on
    /// [`TransportService::send_handle`] to be woken).
    pub fn write_osdu(
        &self,
        vc: VcId,
        payload: Payload,
        event: Option<u64>,
    ) -> Result<bool, ServiceError> {
        self.drive(vc, |e, cx, ob| {
            let echo = e.egress.is_some();
            e.vc.write(cx, payload, event, echo, ob)
        })
    }

    /// Read the next in-order logical unit from the receive buffer
    /// (respects the orchestration gate).
    pub fn read_osdu(&self, vc: VcId) -> Result<Option<Osdu>, ServiceError> {
        self.drive(vc, |e, cx, ob| e.vc.read(cx, ob))
    }

    /// Direct handle to the source-end shared circular buffer.
    pub fn send_handle(&self, vc: VcId) -> Result<BufferHandle, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.source.as_ref())
            .map(|s| s.send_buf.clone())
            .ok_or(ServiceError::UnknownVc)
    }

    /// Direct handle to the sink-end shared circular buffer.
    pub fn recv_handle(&self, vc: VcId) -> Result<BufferHandle, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.sink.as_ref())
            .map(|k| k.recv_buf.clone())
            .ok_or(ServiceError::UnknownVc)
    }

    // ---- Datagrams --------------------------------------------------------

    /// Connectionless send (control-priority) to a remote TSAP.
    pub fn send_datagram(
        &self,
        from_tsap: Tsap,
        to: TransportAddr,
        payload: Rc<dyn Any>,
        wire_size: usize,
    ) {
        self.entity.send_datagram(from_tsap, to, payload, wire_size)
    }

    // ---- Orchestration hooks (§5–6) ----------------------------------------

    /// Register a [`VcTap`] on a VC.
    pub fn register_tap(&self, vc: VcId, tap: Rc<dyn VcTap>) -> Result<(), ServiceError> {
        self.entity.set_tap(vc, Some(tap))
    }

    /// Remove the tap from a VC.
    pub fn clear_tap(&self, vc: VcId) {
        let _ = self.entity.set_tap(vc, None);
    }

    /// Register an [`EgressTap`] on a source-end VC; it fires
    /// synchronously on every accepted `write_osdu`.
    pub fn set_egress_tap(&self, vc: VcId, tap: Rc<dyn EgressTap>) -> Result<(), ServiceError> {
        self.entity.set_egress_tap(vc, Some(tap))
    }

    /// Remove the egress tap from a VC.
    pub fn clear_egress_tap(&self, vc: VcId) {
        let _ = self.entity.set_egress_tap(vc, None);
    }

    /// Send an opaque payload on the VC's out-of-band control channel.
    pub fn send_vc_control(&self, vc: VcId, payload: Rc<dyn Any>) -> Result<(), ServiceError> {
        self.drive(vc, |e, _, ob| e.vc.send_control(payload, ob))
    }

    /// Freeze the source's transmission (Orch.Stop path).
    pub fn pause_source(&self, vc: VcId) -> Result<(), ServiceError> {
        self.drive(vc, |e, _, ob| e.vc.pause(ob))
    }

    /// Resume a frozen source (Orch.Start path).
    pub fn resume_source(&self, vc: VcId) -> Result<(), ServiceError> {
        self.drive(vc, |e, cx, ob| e.vc.resume(cx, ob))
    }

    /// Retune the pacing rate to `base × num/den` (LLO regulation).
    pub fn set_rate_factor(&self, vc: VcId, num: u64, den: u64) -> Result<(), ServiceError> {
        if num == 0 || den == 0 {
            return Err(ServiceError::BadArgument("zero rate factor"));
        }
        self.drive(vc, |e, cx, ob| e.vc.set_rate_factor(cx, num, den, ob))
    }

    /// Discard the oldest unsent OSDU at the source (§6.3.1.1).
    pub fn source_drop_one(&self, vc: VcId) -> Result<bool, ServiceError> {
        self.drive(vc, |e, cx, ob| e.vc.drop_one(cx, ob))
    }

    /// Gate/ungate delivery from the receive buffer (Orch.Prime).
    pub fn set_recv_gate(&self, vc: VcId, gated: bool) -> Result<(), ServiceError> {
        self.drive(vc, |e, cx, ob| e.vc.set_gate(cx, gated, ob))
    }

    /// Cap the total OSDUs releasable to the sink application (the LLO's
    /// paced release, §5). `None` removes the cap.
    pub fn set_release_limit(&self, vc: VcId, limit: Option<u64>) -> Result<(), ServiceError> {
        let now = self.now();
        self.recv_handle(vc)?.set_release_limit(now, limit);
        Ok(())
    }

    /// Flush this end's buffered OSDUs (stop + seek, §6.2.1).
    pub fn flush_local(&self, vc: VcId) -> Result<usize, ServiceError> {
        self.drive(vc, |e, cx, ob| Ok(e.vc.flush(cx, ob)))
    }

    /// Harvest interval statistics for this end of the VC (§6.3.1.2).
    pub fn take_end_stats(&self, vc: VcId) -> Result<EndStats, ServiceError> {
        self.drive(vc, |e, cx, _| Ok(e.vc.end_stats(cx.now)))
    }

    // ---- Self-healing (failure model, DESIGN.md §9) ------------------------

    /// Out-of-band notification that the network revoked this VC's (or its
    /// group tree's) resource reservation: schedules an immediate repair
    /// attempt at the source end. No-op for unknown or sink-side VCs —
    /// revocation repair is the sender's job.
    pub fn on_reservation_revoked(&self, vc: VcId) {
        self.entity.heal_kick(vc, crate::heal::HealReason::Revoked);
    }

    /// Cumulative self-healing statistics for a source-side VC:
    /// `(attempts, repairs)` — repair attempts made and attempts that
    /// succeeded (reroute or regraft). `(0, 0)` if healing never armed.
    pub fn heal_stats(&self, vc: VcId) -> (u64, u64) {
        self.entity.heal_stats(vc)
    }

    // ---- Adversarial-input hooks -------------------------------------------

    /// Deliver `msg` to this entity as if it had arrived on the control
    /// channel from `from`, bypassing the network. Fuzzing/chaos hook:
    /// the entity must absorb arbitrary control traffic — unknown VCs,
    /// stale sequence numbers, replayed or reordered messages — without
    /// panicking or corrupting unrelated VCs.
    pub fn inject_control(&self, from: NetAddr, msg: crate::tpdu::ControlMsg) {
        self.entity.on_control(from, msg);
    }

    /// Deliver `tpdu` to this entity as if it had arrived on a data VC,
    /// bypassing the network. Fuzzing/chaos hook; `corrupted` marks the
    /// fragment as damaged in transit (error-control path).
    pub fn inject_data(&self, tpdu: crate::tpdu::DataTpdu, corrupted: bool) {
        self.entity.drive(tpdu.vc, |e, cx, ob| {
            e.vc.on_data(cx, tpdu, corrupted, 0, ob)
        });
    }

    // ---- Introspection -----------------------------------------------------

    /// The contract currently in force.
    pub fn contract(&self, vc: VcId) -> Result<QosParams, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .map(|v| v.contract)
            .ok_or(ServiceError::UnknownVc)
    }

    /// This end's role on the VC.
    pub fn role(&self, vc: VcId) -> Result<VcRole, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .map(|v| v.role)
            .ok_or(ServiceError::UnknownVc)
    }

    /// The VC's contracted logical-unit rate.
    pub fn osdu_rate(&self, vc: VcId) -> Result<Rate, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .map(|v| v.requirement.osdu_rate)
            .ok_or(ServiceError::UnknownVc)
    }

    /// The VC's address triple.
    pub fn triple(&self, vc: VcId) -> Result<AddressTriple, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .map(|v| v.triple)
            .ok_or(ServiceError::UnknownVc)
    }

    /// Source-end progress: `(charged, dropped, next_write_seq)` — OSDU
    /// sequence slots consumed by transmission or drop, lifetime drops,
    /// and the next sequence the application write will be assigned.
    pub fn source_progress(&self, vc: VcId) -> Result<(u64, u64, u64), ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.source.as_ref())
            .map(|s| (s.charged, s.dropped, s.next_write_seq))
            .ok_or(ServiceError::UnknownVc)
    }

    /// Sink-end application delivery point: units popped by the
    /// application plus units resolved without delivery (drops,
    /// unrepairable losses) — the media position actually reached.
    pub fn sink_delivery_point(&self, vc: VcId) -> Result<u64, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.sink.as_ref())
            .map(|k| k.app_popped + k.engine.internal_freed)
            .ok_or(ServiceError::UnknownVc)
    }

    /// Sink-end progress: the next in-order OSDU sequence owed to the
    /// application (everything below is delivered, lost or dropped).
    pub fn sink_progress(&self, vc: VcId) -> Result<u64, ServiceError> {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .and_then(|v| v.sink.as_ref())
            .map(|k| k.engine.next_expected())
            .ok_or(ServiceError::UnknownVc)
    }

    /// Whether the VC is open at this end.
    pub fn is_open(&self, vc: VcId) -> bool {
        let st = self.entity.state.borrow();
        st.vcs
            .get(&vc)
            .map(|v| v.phase == crate::vc::VcPhase::Open)
            .unwrap_or(false)
    }
}
