//! Transport-layer self-healing (DESIGN.md §9).
//!
//! A CM connection rides on state in the network — a route and, for
//! guaranteed VCs, a bandwidth reservation — that faults can destroy out
//! from under it: links flap, nodes crash, partitions form, reservations
//! get revoked by management action. The transport entity detects the
//! resulting symptoms at the *source* end (the end that owns the pacing
//! machinery and the reservation) and runs a bounded repair loop:
//!
//! | signal (detection)                       | reason    |
//! |------------------------------------------|-----------|
//! | credit stall persisting past patience    | `Stall`   |
//! | N consecutive RTOs without progress      | `Rto`     |
//! | zero-throughput QoS report w/ violations | `Starved` |
//! | out-of-band revocation indication        | `Revoked` |
//!
//! Each signal arms a per-VC probe timer. When it fires the probe checks
//! the infrastructure: is there a live route to the peer, and is the
//! reservation intact (held, and charging only live links)? Broken
//! infrastructure is repaired — release + re-admit on the current route
//! for unicast VCs, [`netsim::Network::group_refresh`] for multicast
//! trees (detour grafts, unreachable-member pruning, revoked-reservation
//! re-admission). Repairs that fail (no route yet, admission denied) back
//! off exponentially up to a cap; after `heal_max_attempts` consecutive
//! failures the VC is torn down with `DisconnectReason::Unreachable` so
//! the layers above see a typed member loss instead of a silent wedge.
//!
//! **Unsticking.** Repairing the path is not enough for the rate profile:
//! OSDUs lost in flight are never freed by the sink, so the source's
//! credit view stays exhausted forever. Once the infrastructure is sound
//! again the probe *unsticks* the source — retransmits the cached suffix
//! of unacknowledged OSDUs, declares the uncached prefix `Dropped` (the
//! sink frees those slots without counting them lost twice), and sends a
//! [`ControlMsg::CreditProbe`] so the sink re-advertises its cumulative
//! freed total even if its last `Credit` message died on the dead path.
//! The window profile needs none of this: go-back-N retransmission is
//! self-healing once the route is back.
//!
//! A plain credit stall is *normal backpressure* (a slow application),
//! not a fault — and so is the zero-throughput QoS report it produces.
//! Corrective actions therefore require the episode to have *observed*
//! broken infrastructure on some probe; a triggering signal alone ends
//! quietly when every probe finds the path healthy, leaving fault-free
//! runs untouched. (The price: a fault that both begins and fully heals
//! between two probes, taking the sink's last `Credit` report with it,
//! is not detected — bounded by `heal_patience`.)

use crate::datapath::Indication;
use crate::entity::TransportEntity;
use cm_core::address::{NetAddr, VcId};
use cm_core::error::DisconnectReason;
use cm_core::qos::GuaranteeMode;
use cm_core::time::{Bandwidth, SimTime};
use cm_telemetry::Layer;
use netsim::{GroupId, PeriodicTimer};
use std::rc::Rc;

/// Why a healing episode was opened (telemetry + evidence weighting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealReason {
    /// Credit stall persisted past the patience window.
    Stall,
    /// Consecutive RTO firings without window progress.
    Rto,
    /// The sink reported a monitoring period with zero throughput and
    /// contract violations.
    Starved,
    /// The network (or a chaos controller) revoked the reservation.
    Revoked,
}

impl HealReason {
    fn kind(self) -> &'static str {
        match self {
            HealReason::Stall => "stall",
            HealReason::Rto => "rto",
            HealReason::Starved => "starved",
            HealReason::Revoked => "revoked",
        }
    }
}

/// Per-VC healing state. Lives in the VC's slab entry for the life of
/// the VC (episodes come and go; the lifetime counters persist).
pub(crate) struct HealState {
    /// Probe timer (holds a `Weak` back-reference; post-teardown fires
    /// are no-ops).
    timer: PeriodicTimer,
    /// An episode is open: the timer is armed or a probe is imminent.
    active: bool,
    /// The signal that opened the current episode.
    reason: HealReason,
    /// The episode has observed actual broken infrastructure on some
    /// probe. Gate for the corrective actions that would be wrong during
    /// ordinary backpressure (see module doc) — a triggering signal alone
    /// is never enough: a zero-throughput report or a stall also occurs
    /// when the application simply stops reading.
    saw_fault: bool,
    /// When the current episode's signal was first raised — recovery time
    /// is measured from here.
    since: SimTime,
    /// Probe attempts in the current episode (bounds the repair loop).
    tries: u32,
    /// Next re-arm delay after a failed attempt.
    backoff: cm_core::time::SimDuration,
    /// Lifetime repair attempts (probes that took action).
    attempts: u64,
    /// Lifetime successful repairs.
    repairs: u64,
}

impl TransportEntity {
    // ------------------------------------------------------------------
    // Detection entry points
    // ------------------------------------------------------------------

    /// Open (or reinforce) a healing episode for `vc`. No-op unless `vc`
    /// is an open source end — repair is the sender's job.
    pub(crate) fn heal_kick(self: &Rc<Self>, vc: VcId, reason: HealReason) {
        let now = self.now();
        let armed = match self.state.borrow().vcs.entry(&vc) {
            Some(e) if e.vc.source.is_some() => e.heal.is_some(),
            _ => return,
        };
        if !armed {
            let weak = Rc::downgrade(self);
            let timer = PeriodicTimer::new(self.net.engine(), move |_| {
                if let Some(me) = weak.upgrade() {
                    me.heal_fire(vc);
                }
            });
            let hs = HealState {
                timer,
                active: false,
                reason,
                saw_fault: false,
                since: now,
                tries: 0,
                backoff: self.config.heal_patience,
                attempts: 0,
                repairs: 0,
            };
            if let Some(e) = self.state.borrow_mut().vcs.entry_mut(&vc) {
                e.heal = Some(hs);
            }
        }
        let patience = self.config.heal_patience;
        let mut st = self.state.borrow_mut();
        let hs = st.vcs.heal_mut(&vc).expect("heal state just ensured");
        if !hs.active {
            hs.active = true;
            hs.reason = reason;
            hs.saw_fault = false;
            hs.since = now;
            hs.tries = 0;
            hs.backoff = patience;
            hs.timer.arm_at(now + patience);
        }
    }

    /// Lifetime `(attempts, repairs)` counters for `vc`'s healing state.
    pub(crate) fn heal_stats(&self, vc: VcId) -> (u64, u64) {
        self.state
            .borrow()
            .vcs
            .heal(&vc)
            .map(|h| (h.attempts, h.repairs))
            .unwrap_or((0, 0))
    }

    // ------------------------------------------------------------------
    // The probe
    // ------------------------------------------------------------------

    pub(crate) fn heal_fire(self: &Rc<Self>, vc: VcId) {
        let now = self.now();
        // A crashed node must not diagnose (and tear down!) its own VCs;
        // hold the episode until the node itself is back.
        if !self.net.is_node_up(self.node) {
            let st = self.state.borrow();
            if let Some(hs) = st.vcs.heal(&vc) {
                if hs.active {
                    hs.timer.arm_at(now + self.config.heal_backoff_cap);
                }
            }
            return;
        }
        enum Probe {
            Unicast {
                peer: NetAddr,
                needs_resv: bool,
                bandwidth: Bandwidth,
                stalled: bool,
                window: bool,
            },
            Group {
                group: GroupId,
                stalled: bool,
            },
        }
        let probe = {
            let st = self.state.borrow();
            // The probe timer lives in the source end's entry and goes
            // with it at release, so a fire finds a live source end.
            let Some((v, s)) = st.vcs.get(&vc).and_then(|v| Some((v, v.source.as_ref()?))) else {
                return;
            };
            let stalled = s.stalled_credit;
            match &v.group {
                Some(ge) => Probe::Group {
                    group: ge.group,
                    stalled,
                },
                None => Probe::Unicast {
                    peer: v.peer_node,
                    needs_resv: v.requirement.guarantee != GuaranteeMode::BestEffort,
                    bandwidth: v.contract.throughput,
                    stalled,
                    window: s.gbn.is_some(),
                },
            }
        };
        match probe {
            Probe::Unicast {
                peer,
                needs_resv,
                bandwidth,
                stalled,
                window,
            } => self.probe_unicast(vc, peer, needs_resv, bandwidth, stalled, window, now),
            Probe::Group { group, stalled } => self.probe_group(vc, group, stalled, now),
        }
    }

    /// Probe + repair a point-to-point source end (the reroute path).
    #[allow(clippy::too_many_arguments)]
    fn probe_unicast(
        self: &Rc<Self>,
        vc: VcId,
        peer: NetAddr,
        needs_resv: bool,
        bandwidth: Bandwidth,
        stalled: bool,
        window: bool,
        now: SimTime,
    ) {
        let route_ok = self.net.route(self.node, peer).is_some();
        let resv = needs_resv
            .then(|| self.net.reservation_intact(vc))
            .flatten();
        let resv_broken = needs_resv && !matches!(resv, Some(true));
        if !route_ok || resv_broken {
            self.heal_note_fault(vc);
        }
        if !route_ok {
            self.heal_attempt_failed(vc, now);
            return;
        }
        let mut rerouted = false;
        if resv_broken {
            if resv == Some(false) {
                // Held, but charging a dead link: move it to the detour.
                self.net.release_reservation(vc);
            }
            match self.net.reserve_path(vc, self.node, peer, bandwidth) {
                Some(Ok(())) => rerouted = true,
                _ => {
                    self.heal_attempt_failed(vc, now);
                    return;
                }
            }
        }
        let saw_fault = {
            let st = self.state.borrow();
            st.vcs.heal(&vc).map(|h| h.saw_fault).unwrap_or(false)
        };
        let mut unstuck = false;
        if stalled && (rerouted || saw_fault) {
            unstuck = self.unstick_source(vc);
        }
        if window && (rerouted || saw_fault) {
            // Nudge the window machinery: clear the strike counter and let
            // go-back-N's own retransmission drive recovery over the
            // repaired path.
            let mut st = self.state.borrow_mut();
            if let Some(s) = st.vcs.get_mut(&vc).and_then(|v| v.source.as_mut()) {
                s.rto_strikes = 0;
            }
        }
        if rerouted || unstuck {
            self.heal_repaired(vc, now, rerouted.then_some("vc.reroute"));
        }
        // Episode state machine: a persisting stall re-probes (bounded by
        // tries); otherwise the episode is over.
        let still_stalled = {
            let st = self.state.borrow();
            st.vcs
                .get(&vc)
                .and_then(|v| v.source.as_ref())
                .map(|s| s.stalled_credit)
                .unwrap_or(false)
        };
        if still_stalled && saw_fault {
            self.heal_reprobe(vc, now);
        } else {
            self.heal_end(vc);
        }
    }

    /// Probe + repair a group source end (the regraft path).
    fn probe_group(self: &Rc<Self>, vc: VcId, group: GroupId, stalled: bool, now: SimTime) {
        let refresh = match self.net.group_refresh(group) {
            Err(_) => {
                // A detour branch exists but was denied admission — the
                // tree cannot be healed yet.
                self.heal_note_fault(vc);
                self.heal_attempt_failed(vc, now);
                return;
            }
            Ok(r) => r,
        };
        let acted =
            refresh.links_added > 0 || refresh.links_removed > 0 || !refresh.unreachable.is_empty();
        if acted {
            self.heal_note_fault(vc);
        }
        // Members with no live path any more left the tree: prune their
        // sender-side state and surface a typed leave.
        let lost = refresh.unreachable.len();
        for member in refresh.unreachable {
            let (gone, tsap) = {
                let mut st = self.state.borrow_mut();
                let Some(v) = st.vcs.get_mut(&vc) else { return };
                let tsap = v.local_tsap;
                let Some(ge) = v.group.as_mut() else { return };
                let gone = ge
                    .receivers
                    .remove(&member)
                    .map(|r| r.addr)
                    .or_else(|| ge.pending.remove(&member).map(|p| p.addr));
                (gone, tsap)
            };
            if let Some(addr) = gone {
                self.indicate(
                    tsap,
                    Indication::GroupLeave(vc, addr, DisconnectReason::Unreachable),
                );
            }
        }
        if lost > 0 {
            // Credit floor and pacing re-derive from the surviving set.
            self.recompute_group(vc);
        }
        let saw_fault = {
            let st = self.state.borrow();
            st.vcs.heal(&vc).map(|h| h.saw_fault).unwrap_or(false)
        };
        let mut unstuck = false;
        if stalled && (acted || saw_fault) {
            unstuck = self.unstick_source(vc);
        }
        if acted || unstuck {
            self.heal_repaired(vc, now, acted.then_some("mcast.regraft"));
            if acted && self.tel.enabled() {
                self.tel
                    .instant(now, Layer::Transport, "mcast.regraft.detail", |e| {
                        e.u64("vc", vc.0)
                            .u64("group", group.0 as u64)
                            .u64("links_added", refresh.links_added as u64)
                            .u64("links_removed", refresh.links_removed as u64)
                            .u64("members_lost", lost as u64);
                    });
            }
        }
        let still_stalled = {
            let st = self.state.borrow();
            st.vcs
                .get(&vc)
                .and_then(|v| v.source.as_ref())
                .map(|s| s.stalled_credit)
                .unwrap_or(false)
        };
        if still_stalled && saw_fault {
            self.heal_reprobe(vc, now);
        } else {
            self.heal_end(vc);
        }
    }

    // ------------------------------------------------------------------
    // Episode bookkeeping
    // ------------------------------------------------------------------

    /// The probe observed broken infrastructure: from here on the episode
    /// may take corrective actions that would be wrong for plain
    /// backpressure.
    fn heal_note_fault(&self, vc: VcId) {
        let mut st = self.state.borrow_mut();
        if let Some(hs) = st.vcs.heal_mut(&vc) {
            hs.saw_fault = true;
        }
    }

    /// A repair attempt failed: exponential backoff, bounded give-up.
    fn heal_attempt_failed(self: &Rc<Self>, vc: VcId, now: SimTime) {
        let give_up = {
            let mut st = self.state.borrow_mut();
            let Some(hs) = st.vcs.heal_mut(&vc) else {
                return;
            };
            hs.attempts += 1;
            hs.tries += 1;
            if hs.tries >= self.config.heal_max_attempts {
                hs.active = false;
                true
            } else {
                hs.timer.arm_at(now + hs.backoff);
                hs.backoff = hs
                    .backoff
                    .saturating_mul(2)
                    .min(self.config.heal_backoff_cap);
                false
            }
        };
        if give_up {
            if self.tel.enabled() {
                self.tel.count("vc.heal.giveup", 1);
                self.tel
                    .instant(now, Layer::Transport, "vc.heal.giveup", |e| {
                        e.u64("vc", vc.0);
                    });
            }
            // The path never came back: surface it as a typed disconnect
            // instead of a silent forever-wedge.
            self.teardown_local(vc, DisconnectReason::Unreachable, true);
        }
    }

    /// A probe repaired something. `event` names the headline telemetry
    /// event (`vc.reroute` / `mcast.regraft`) when the repair touched
    /// network state; a bare unstick counts but stays quiet.
    fn heal_repaired(&self, vc: VcId, now: SimTime, event: Option<&'static str>) {
        let (reason, since, tries) = {
            let mut st = self.state.borrow_mut();
            let Some(hs) = st.vcs.heal_mut(&vc) else {
                return;
            };
            hs.attempts += 1;
            hs.repairs += 1;
            (hs.reason, hs.since, hs.tries)
        };
        if !self.tel.enabled() {
            return;
        }
        let dur = now.saturating_since(since);
        self.tel.record_duration("vc.heal.repair_us", dur);
        if let Some(name) = event {
            self.tel.count(name, 1);
            self.tel.instant(now, Layer::Transport, name, |e| {
                e.u64("vc", vc.0)
                    .str("reason", reason.kind())
                    .u64("tries", tries as u64)
                    .u64("repair_us", dur.as_micros());
            });
        }
    }

    /// Re-probe a repaired-but-still-stalled VC at patience cadence
    /// (counts against the episode's try budget so a truly dead sink
    /// still converges on give-up).
    fn heal_reprobe(self: &Rc<Self>, vc: VcId, now: SimTime) {
        let give_up = {
            let mut st = self.state.borrow_mut();
            let Some(hs) = st.vcs.heal_mut(&vc) else {
                return;
            };
            hs.tries += 1;
            if hs.tries >= self.config.heal_max_attempts {
                hs.active = false;
                true
            } else {
                hs.timer.arm_at(now + self.config.heal_patience);
                false
            }
        };
        if give_up {
            if self.tel.enabled() {
                self.tel.count("vc.heal.giveup", 1);
                self.tel
                    .instant(now, Layer::Transport, "vc.heal.giveup", |e| {
                        e.u64("vc", vc.0);
                    });
            }
            self.teardown_local(vc, DisconnectReason::Unreachable, true);
        }
    }

    /// Close the episode: signal cleared (or was never a fault).
    fn heal_end(&self, vc: VcId) {
        let mut st = self.state.borrow_mut();
        if let Some(hs) = st.vcs.heal_mut(&vc) {
            hs.active = false;
            hs.timer.disarm();
        }
        if let Some(s) = st.vcs.get_mut(&vc).and_then(|v| v.source.as_mut()) {
            // Let the RTO strike detector re-arm from zero.
            s.rto_strikes = 0;
        }
    }

    // ------------------------------------------------------------------
    // Repair actions
    // ------------------------------------------------------------------

    /// Clear a credit wedge on a rate-profile source whose in-flight
    /// OSDUs died with the old path (the data path's unstick input:
    /// retransmit the cached suffix, declare the uncached prefix dropped,
    /// probe the sink's credit). Every step is idempotent at the sink
    /// (duplicate data, repeated drop notices and repeated credit reports
    /// are all absorbed), so repeated unsticks are safe. Returns whether
    /// anything was sent.
    fn unstick_source(self: &Rc<Self>, vc: VcId) -> bool {
        let unstuck = self
            .drive(vc, |e, cx, ob| e.vc.unstick(cx, ob))
            .unwrap_or(false);
        if unstuck && self.tel.enabled() {
            self.tel.count("vc.heal.unstick", 1);
        }
        unstuck
    }
}
