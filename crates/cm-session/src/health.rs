//! Typed room health events (DESIGN.md §9).
//!
//! The transport layer reports per-member QoS violations and involuntary
//! leaves on a stream's group VC; without this module those indications
//! die in the session agent and the application observes only a silent
//! stall. [`HealthEvent`] surfaces them, typed, to every
//! [`RoomMember`](crate::RoomMember) via `on_health`:
//!
//! - **`Degraded`** — a member's branch violated the stream's contracted
//!   QoS (the transport's soft guarantee, §3.2). Reported on the
//!   *transition* into violation, not per report.
//! - **`Recovered`** — the degraded branch went a full grace period (two
//!   monitoring periods) without a further violation report.
//! - **`MemberLost`** — a peer left involuntarily: its node died or its
//!   branch could not be healed (`DisconnectReason::Unreachable` from the
//!   transport's regraft path), or the publisher's node died under a
//!   stream. The room evicts the peer and tells the survivors.

use crate::room::{release_if_empty, PeerId};
use cm_core::address::{NetAddr, VcId};
use cm_core::error::DisconnectReason;
use cm_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A room health transition, delivered to every member's
/// [`on_health`](crate::RoomMember::on_health).
#[derive(Debug, Clone)]
pub enum HealthEvent {
    /// A member's branch of `stream` violated its contracted QoS.
    Degraded {
        /// The stream whose branch degraded.
        stream: String,
        /// The member measuring the violation.
        peer: PeerId,
        /// The table-2 error numbers of the degraded tolerances.
        violations: Vec<u8>,
    },
    /// A previously degraded branch went a grace period clean.
    Recovered {
        /// The stream whose branch recovered.
        stream: String,
        /// The member whose branch recovered.
        peer: PeerId,
    },
    /// A peer was lost involuntarily (dead node, unhealable branch).
    MemberLost {
        /// The evicted peer.
        peer: PeerId,
        /// Its room name.
        name: String,
        /// The transport's typed reason.
        reason: DisconnectReason,
    },
}

impl HealthEvent {
    /// Stable lower-case slug (telemetry fields).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::Degraded { .. } => "degraded",
            HealthEvent::Recovered { .. } => "recovered",
            HealthEvent::MemberLost { .. } => "member_lost",
        }
    }
}

/// Floor on the clean-period before a branch is declared recovered, so a
/// very short monitoring period cannot flap Degraded/Recovered per tick.
const MIN_GRACE: SimDuration = SimDuration::from_millis(100);

struct DegradedBranch {
    /// When the latest violation report arrived.
    last_report: SimTime,
    /// Clean time required before the branch counts as recovered.
    grace: SimDuration,
    /// A recovery probe is already scheduled.
    probe_armed: bool,
}

/// Per-room degraded-branch tracker: edge-detects Degraded, times out
/// into Recovered. Purely bookkeeping — the room schedules the probes.
#[derive(Default)]
pub(crate) struct HealthState {
    degraded: BTreeMap<(VcId, NetAddr), DegradedBranch>,
}

impl HealthState {
    /// Record a violation report. Returns `true` on the transition into
    /// the degraded state (the caller broadcasts `Degraded`).
    pub(crate) fn report(
        &mut self,
        vc: VcId,
        member: NetAddr,
        period: SimDuration,
        now: SimTime,
    ) -> bool {
        let grace = period.saturating_mul(2).max(MIN_GRACE);
        match self.degraded.get_mut(&(vc, member)) {
            Some(b) => {
                b.last_report = now;
                b.grace = grace;
                false
            }
            None => {
                self.degraded.insert(
                    (vc, member),
                    DegradedBranch {
                        last_report: now,
                        grace,
                        probe_armed: false,
                    },
                );
                true
            }
        }
    }

    /// Try to arm a recovery probe. Returns the delay to schedule it at,
    /// or `None` if one is already pending.
    pub(crate) fn arm_probe(&mut self, vc: VcId, member: NetAddr) -> Option<SimDuration> {
        let b = self.degraded.get_mut(&(vc, member))?;
        if b.probe_armed {
            return None;
        }
        b.probe_armed = true;
        Some(b.grace)
    }

    /// A recovery probe fired. `Some(true)`: the branch went its grace
    /// period clean and the entry is dropped (the caller broadcasts
    /// `Recovered`). `Some(false)`: a report arrived meanwhile — still
    /// degraded; the caller re-arms via [`HealthState::arm_probe`].
    /// `None`: the branch is no longer tracked.
    pub(crate) fn probe(&mut self, vc: VcId, member: NetAddr, now: SimTime) -> Option<bool> {
        let b = self.degraded.get_mut(&(vc, member))?;
        b.probe_armed = false;
        if now.saturating_since(b.last_report) >= b.grace {
            self.degraded.remove(&(vc, member));
            release_if_empty(&mut self.degraded);
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Forget every branch of `member` (it left or was evicted).
    pub(crate) fn forget_member(&mut self, member: NetAddr) {
        self.degraded.retain(|&(_, m), _| m != member);
        release_if_empty(&mut self.degraded);
    }

    /// Forget every branch of `vc` (the stream closed).
    pub(crate) fn forget_stream(&mut self, vc: VcId) {
        self.degraded.retain(|&(v, _), _| v != vc);
        release_if_empty(&mut self.degraded);
    }

    /// Branches currently in violation, for introspection and tests.
    pub(crate) fn degraded_branches(&self) -> Vec<(VcId, NetAddr)> {
        self.degraded.keys().copied().collect()
    }
}
