//! Per-VC connection state held by a transport entity.
//!
//! Every VC is simplex (§3.1): one end holds a [`SourceEnd`] (send buffer +
//! pacing/window engine), the other a [`SinkEnd`] (receive buffer +
//! reassembly engine + QoS monitor). The same node may of course hold both
//! ends of *different* VCs. The inputs that drive these ends live in
//! [`crate::datapath`]; the timers that schedule them belong to the driver.

use crate::buffer::BufferHandle;
use crate::monitor::QosMonitor;
use crate::rate::RateClock;
use crate::receiver::SinkEngine;
use crate::tpdu::DataTpdu;
use crate::window::{GoBackNReceiver, GoBackNSender};
use cm_core::address::{AddressTriple, NetAddr, Tsap, VcId};
use cm_core::osdu::Osdu;
use cm_core::qos::{QosParams, QosRequirement};
use cm_core::service_class::{ErrorControlClass, ServiceClass};
use cm_core::time::{Rate, SimDuration, SimTime};
use std::collections::VecDeque;

/// Which end of the simplex VC this entity holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcRole {
    /// The data-producing end.
    Source,
    /// The data-consuming end.
    Sink,
}

/// Source-end state.
pub struct SourceEnd {
    /// Shared circular buffer the application writes into (§3.7).
    pub send_buf: BufferHandle,
    /// Pacing clock (rate-based profile).
    pub clock: RateClock,
    /// Window engine (window-based profile).
    pub gbn: Option<GoBackNSender>,
    /// Fragments of a partially-transmitted OSDU awaiting window room.
    pub pending_frags: VecDeque<DataTpdu>,
    /// Next OSDU sequence number to assign at `write_osdu`.
    pub next_write_seq: u64,
    /// Sequence slots consumed (transmitted or intentionally dropped) —
    /// the sender side of the cumulative credit scheme.
    pub charged: u64,
    /// Latest cumulative freed count reported by the receiver.
    pub freed_remote: u64,
    /// Receive-buffer capacity granted at connect.
    pub recv_capacity: u64,
    /// OSDUs intentionally discarded at the source (orchestration
    /// compensation, §6.3.1.1) — lifetime count.
    pub dropped: u64,
    /// OSDUs transmitted (lifetime).
    pub sent: u64,
    /// Recently sent OSDUs kept for selective retransmission.
    pub retrans_cache: VecDeque<Osdu>,
    /// Maximum entries in `retrans_cache`.
    pub retrans_cache_cap: usize,
    /// Parked as consumer on the send buffer (application slow).
    pub waiting_buffer: bool,
    /// Stalled on exhausted receiver credit.
    pub stalled_credit: bool,
    /// When the current credit stall began (telemetry: stall duration).
    pub stalled_at: Option<SimTime>,
    /// Consecutive RTO firings without window progress — the window
    /// profile's path-failure detector (self-healing, DESIGN.md §9).
    pub rto_strikes: u32,
    /// Interval-stats snapshot of `dropped` at last harvest.
    pub dropped_snap: u64,
}

impl SourceEnd {
    /// A fresh source end: `slots` send-buffer slots, pacing at `rate`
    /// from the local instant `local`, with `recv_capacity` slots of
    /// receiver credit and a retransmission cache of `cache_cap` OSDUs.
    pub fn new(
        slots: usize,
        rate: Rate,
        local: SimTime,
        gbn: Option<GoBackNSender>,
        recv_capacity: u64,
        cache_cap: usize,
    ) -> SourceEnd {
        let mut clock = RateClock::new(rate);
        clock.start(local);
        SourceEnd {
            send_buf: BufferHandle::new(slots),
            clock,
            gbn,
            pending_frags: VecDeque::new(),
            next_write_seq: 0,
            charged: 0,
            freed_remote: 0,
            recv_capacity,
            dropped: 0,
            sent: 0,
            retrans_cache: VecDeque::new(),
            retrans_cache_cap: cache_cap,
            waiting_buffer: false,
            stalled_credit: false,
            stalled_at: None,
            rto_strikes: 0,
            dropped_snap: 0,
        }
    }

    /// OSDUs charged against receiver buffer slots but not yet freed.
    pub fn in_flight(&self) -> u64 {
        self.charged.saturating_sub(self.freed_remote)
    }

    /// Whether another OSDU may be charged without overrunning the
    /// receiver's buffer.
    pub fn has_credit(&self) -> bool {
        self.in_flight() < self.recv_capacity
    }
}

/// Sink-end state.
pub struct SinkEnd {
    /// Shared circular buffer the application reads from (§3.7); the
    /// delivery gate on it implements `Orch.Prime` (§6.2).
    pub recv_buf: BufferHandle,
    /// Reassembly/ordering/error-control engine.
    pub engine: SinkEngine,
    /// Window-profile receiver state.
    pub gbn_recv: Option<GoBackNReceiver>,
    /// OSDUs popped by the application (lifetime).
    pub app_popped: u64,
    /// Last cumulative freed total advertised to the sender.
    pub last_freed_sent: u64,
    /// QoS monitor (absent for best-effort VCs).
    pub monitor: Option<QosMonitor>,
    /// In-order OSDUs waiting for receive-buffer space.
    pub pending_delivery: VecDeque<Osdu>,
    /// Producer side (protocol) parked on a full receive buffer.
    pub producer_parked: bool,
    /// Interval-stats snapshot of the engine's lifetime loss counter.
    pub lost_snap: u64,
}

impl SinkEnd {
    /// A fresh sink end with `slots` receive-buffer slots. `window` adds
    /// the window-profile receiver; `start_seq` is the first OSDU owed
    /// (non-zero for a mid-stream group join).
    pub fn new(
        slots: usize,
        class: ErrorControlClass,
        window: bool,
        monitor: Option<QosMonitor>,
        start_seq: u64,
    ) -> SinkEnd {
        let mut engine = SinkEngine::new(class);
        if start_seq > 0 {
            engine.start_at(start_seq);
        }
        SinkEnd {
            recv_buf: BufferHandle::new(slots),
            engine,
            gbn_recv: window.then(GoBackNReceiver::new),
            app_popped: 0,
            last_freed_sent: 0,
            monitor,
            pending_delivery: VecDeque::new(),
            producer_parked: false,
            lost_snap: 0,
        }
    }

    /// Cumulative freed slots: application pops + holes/drops resolved
    /// inside the engine.
    pub fn freed_total(&self) -> u64 {
        self.app_popped + self.engine.internal_freed
    }
}

/// One open VC endpoint. An endpoint exists only while its VC is open:
/// release removes it from the entity, so a released VC is
/// indistinguishable from one that was never known.
pub struct Vc {
    /// Connection id (allocated by the initiating entity).
    pub id: VcId,
    /// The full address triple.
    pub triple: AddressTriple,
    /// Protocol profile + error-control class.
    pub class: ServiceClass,
    /// The requirement as contracted (tolerance, rate, max OSDU size).
    pub requirement: QosRequirement,
    /// The negotiated QoS in force.
    pub contract: QosParams,
    /// Which end this is.
    pub role: VcRole,
    /// The opposite end's node.
    pub peer_node: NetAddr,
    /// The local user's TSAP (for indications).
    pub local_tsap: Tsap,
    /// Source-end machinery (when `role == Source`).
    pub source: Option<SourceEnd>,
    /// Sink-end machinery (when `role == Sink`).
    pub sink: Option<SinkEnd>,
    /// Group state when this is the sending end of a 1:N group VC: the
    /// multicast group id plus the per-receiver book-keeping (credit,
    /// contracts). `None` on ordinary point-to-point VCs and on the sink
    /// ends of group VCs.
    pub group: Option<crate::group::GroupEnd>,
    /// Tolerance received in a `RenegotiateRequest`, awaiting the local
    /// user's `T-Renegotiate.response`.
    pub pending_reneg: Option<cm_core::qos::QosTolerance>,
}

/// Interval statistics harvested from one end of a VC, feeding
/// `Orch.Regulate.indication` (§6.3.1.2): the blocking times of application
/// and protocol threads plus progress/drop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndStats {
    /// Time the application thread spent blocked on the shared buffer.
    pub app_blocked: SimDuration,
    /// Time the protocol thread spent blocked on the shared buffer.
    pub proto_blocked: SimDuration,
    /// Source: OSDU sequence charged so far. Sink: OSDUs accounted for at
    /// the application delivery point (units popped by the application
    /// plus units resolved without delivery — drops and unrepairable
    /// losses), i.e. the media position actually reached.
    pub seq_progress: u64,
    /// OSDUs intentionally dropped this interval (source only).
    pub dropped: u64,
    /// OSDUs lost this interval (sink only).
    pub lost: u64,
    /// OSDUs the application consumed in total (sink only).
    pub app_popped: u64,
}
