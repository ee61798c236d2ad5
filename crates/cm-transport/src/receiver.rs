//! Sink-side protocol engine: reassembly, ordering, loss accounting and
//! error control.
//!
//! Pure logic, driven by the sink end of the data path: every incoming
//! data TPDU is folded into the engine, which appends [`SinkAction`]s
//! (deliver, nack, indicate) to the caller's buffer and reports what the
//! TPDU did to its OSDU as an [`Arrival`]. Behaviour per error-control
//! class (§3.4):
//!
//! - **detect + indicate**: damaged/missing OSDUs are counted, freed and
//!   reported; the stream keeps flowing (media tolerate loss, §3.2);
//! - **detect + correct (± indicate)**: gaps trigger selective
//!   retransmission requests; in-order delivery stalls until the hole is
//!   repaired (or the source declares it dropped).
//!
//! Links deliver FIFO within the data class, so out-of-order arrival occurs
//! only via retransmission — which is what the stash handles.

use crate::tpdu::DataTpdu;
use cm_core::osdu::Osdu;
use cm_core::service_class::ErrorControlClass;
use cm_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// What the entity must do after feeding a TPDU in.
#[derive(Debug)]
pub enum SinkAction {
    /// Push this OSDU (in order) toward the receive buffer.
    Deliver(Osdu),
    /// Request retransmission of these sequence numbers.
    SendNack(Vec<u64>),
    /// Report unrepairable damage/loss of this OSDU to the user
    /// (indicate classes only).
    IndicateLoss(u64),
}

/// What one data TPDU did to its OSDU. The QoS monitor and the causal
/// tracer count an OSDU when its final fragment lands — once, and never
/// for a late duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A non-final fragment was absorbed into reassembly.
    Fragment,
    /// The final fragment completed the OSDU and it was released in order.
    Delivered,
    /// The final fragment completed the OSDU into the stash behind a hole
    /// under repair.
    Stashed,
    /// The final fragment closed the OSDU without delivering it: damaged,
    /// incomplete or malformed (counted lost, or left as a hole to repair).
    Resolved,
    /// A late copy of an OSDU already resolved: ignored.
    Duplicate,
}

#[derive(Debug)]
struct Partial {
    seq: u64,
    frags_received: u32,
    frag_count: u32,
    corrupted: bool,
}

/// Sink protocol engine for one VC.
#[derive(Debug)]
pub struct SinkEngine {
    class: ErrorControlClass,
    /// Next OSDU sequence number owed to the application (in-order point).
    next_expected: u64,
    /// Highest OSDU sequence number seen starting reassembly.
    highest_seen: Option<u64>,
    partial: Option<Partial>,
    /// Reliable mode: complete OSDUs waiting for an earlier hole.
    stash: BTreeMap<u64, Osdu>,
    /// Reliable mode: holes awaiting retransmission.
    holes: BTreeSet<u64>,
    /// Sequences the source declared intentionally dropped.
    declared_dropped: BTreeSet<u64>,
    /// Holes already freed (credit-wise) but not yet passed by
    /// `next_expected` — resolved out of order in reliable mode.
    resolved_gaps: BTreeSet<u64>,
    /// Holes created during the current `on_tpdu`, nacked in its batch.
    fresh_holes: Vec<u64>,
    /// Slots freed without application delivery (holes + drops).
    pub internal_freed: u64,
    /// OSDUs lost or damaged beyond repair.
    pub lost: u64,
    /// OSDUs that arrived with bit errors (damaged; subset counted in
    /// `lost` when unrepairable).
    pub corrupted: u64,
    /// OSDUs handed toward the receive buffer.
    pub delivered: u64,
    /// When we last sent a nack (for re-nack pacing).
    last_nack: Option<SimTime>,
    /// Re-nack interval while holes persist.
    renack_after: SimDuration,
}

impl SinkEngine {
    /// Engine for one VC with the given error-control class.
    pub fn new(class: ErrorControlClass) -> SinkEngine {
        SinkEngine {
            class,
            next_expected: 0,
            highest_seen: None,
            partial: None,
            stash: BTreeMap::new(),
            holes: BTreeSet::new(),
            declared_dropped: BTreeSet::new(),
            resolved_gaps: BTreeSet::new(),
            fresh_holes: Vec::new(),
            internal_freed: 0,
            lost: 0,
            corrupted: 0,
            delivered: 0,
            last_nack: None,
            renack_after: SimDuration::from_millis(100),
        }
    }

    /// The in-order delivery point.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Start the in-order point at `seq` instead of zero (a receiver
    /// joining a multicast group mid-stream): everything below `seq`
    /// predates this receiver and is neither owed to the application nor
    /// counted as loss. Only valid before any TPDU has been fed in.
    pub fn start_at(&mut self, seq: u64) {
        debug_assert!(
            self.next_expected == 0 && self.highest_seen.is_none(),
            "start_at on a running engine"
        );
        self.next_expected = seq;
        if seq > 0 {
            self.highest_seen = Some(seq - 1);
        }
    }

    /// Outstanding holes (reliable mode).
    pub fn hole_count(&self) -> usize {
        self.holes.len()
    }

    /// Feed one data TPDU; `corrupted` is the carrying packet's bit-error
    /// flag (the simulation's stand-in for a failed checksum). Appends the
    /// actions to perform, in order, to `actions` and reports what the
    /// TPDU did to its OSDU.
    pub fn on_tpdu(
        &mut self,
        tpdu: &DataTpdu,
        corrupted: bool,
        now: SimTime,
        actions: &mut Vec<SinkAction>,
    ) -> Arrival {
        let seq = tpdu.osdu_seq;

        // Stale duplicate (late retransmission of something already
        // resolved): ignore.
        if seq < self.next_expected && !self.holes.contains(&seq) {
            return Arrival::Duplicate;
        }

        // A fragment of a different OSDU than the current partial means the
        // partial is damaged (fragment loss) — resolve it first.
        if let Some(p) = &self.partial {
            if p.seq != seq {
                let dead = p.seq;
                self.partial = None;
                self.resolve_missing(dead, actions);
            }
        }

        // Whole-OSDU gap detection, only when moving forward.
        let forward = self.highest_seen.is_none_or(|h| seq > h);
        if forward {
            let from = self.highest_seen.map_or(0, |h| h + 1);
            for missing in from..seq {
                self.resolve_missing(missing, actions);
            }
            self.highest_seen = Some(seq);
        }

        let p = self.partial.get_or_insert(Partial {
            seq,
            frags_received: 0,
            frag_count: tpdu.frag_count,
            corrupted: false,
        });
        p.frags_received += 1;
        p.corrupted |= corrupted;
        let mut arrival = Arrival::Fragment;
        if tpdu.frag_index + 1 == tpdu.frag_count {
            let complete = p.frags_received == p.frag_count;
            let corrupted = p.corrupted;
            self.partial = None;
            arrival = Arrival::Resolved;
            if complete && !corrupted {
                if let Some(payload) = tpdu.payload.clone() {
                    let mut osdu = Osdu {
                        opdu: tpdu.opdu,
                        payload,
                    };
                    osdu.opdu.seq = seq;
                    arrival = self.accept_complete(seq, osdu, actions);
                } else {
                    // Final fragment without payload is a malformed TPDU.
                    self.resolve_missing(seq, actions);
                }
            } else {
                if corrupted {
                    self.corrupted += 1;
                }
                self.resolve_missing(seq, actions);
            }
        }

        // Nack newly created holes promptly; re-nack persistent ones on
        // the pacing interval.
        if self.class.corrects() && !self.holes.is_empty() {
            if !self.fresh_holes.is_empty() {
                let mut seqs = std::mem::take(&mut self.fresh_holes);
                seqs.retain(|s| self.holes.contains(s));
                if !seqs.is_empty() {
                    self.last_nack = Some(now);
                    actions.push(SinkAction::SendNack(seqs));
                }
            } else {
                let due = match self.last_nack {
                    None => true,
                    Some(t) => now.saturating_since(t) >= self.renack_after,
                };
                if due {
                    let seqs: Vec<u64> = self.holes.iter().copied().collect();
                    self.last_nack = Some(now);
                    actions.push(SinkAction::SendNack(seqs));
                }
            }
        } else {
            self.fresh_holes.clear();
        }
        arrival
    }

    /// The source declared these sequences intentionally dropped
    /// (`ControlMsg::Dropped`): free them without loss accounting or nacks.
    /// Deliveries the notice unblocks are appended to `actions`.
    pub fn on_drop_notice(&mut self, seqs: &[u64], _now: SimTime, actions: &mut Vec<SinkAction>) {
        for &s in seqs {
            if s < self.next_expected {
                continue;
            }
            if self.holes.remove(&s) {
                // An open hole is resolved exactly once, here.
                self.internal_freed += 1;
                if s == self.next_expected {
                    self.next_expected += 1;
                    self.drain_stash(actions);
                } else {
                    self.resolved_gaps.insert(s);
                }
            } else {
                // Not yet noticed missing: remember so the future gap is
                // skipped silently.
                self.declared_dropped.insert(s);
            }
        }
        // Drop notices at the in-order point advance it immediately (a
        // stopped stream must not leave the head parked on a dropped seq).
        self.drain_stash(actions);
    }

    fn resolve_missing(&mut self, seq: u64, actions: &mut Vec<SinkAction>) {
        if seq < self.next_expected {
            return;
        }
        if self.declared_dropped.remove(&seq) {
            // An intentional drop: free silently.
            self.free_without_delivery(seq, actions);
            return;
        }
        if self.class.corrects() {
            if self.holes.insert(seq) {
                // Nacked promptly by the batch at the end of `on_tpdu`.
                self.fresh_holes.push(seq);
            }
        } else {
            self.lost += 1;
            if self.class.indicates() {
                actions.push(SinkAction::IndicateLoss(seq));
            }
            self.free_without_delivery(seq, actions);
        }
    }

    /// Account `seq` as freed without delivery, advancing the in-order
    /// point now (head) or when it is reached (recorded gap).
    fn free_without_delivery(&mut self, seq: u64, actions: &mut Vec<SinkAction>) {
        self.internal_freed += 1;
        if seq == self.next_expected {
            self.next_expected += 1;
            self.drain_stash(actions);
        } else {
            self.resolved_gaps.insert(seq);
        }
    }

    fn accept_complete(&mut self, seq: u64, osdu: Osdu, actions: &mut Vec<SinkAction>) -> Arrival {
        self.holes.remove(&seq);
        if seq == self.next_expected {
            self.next_expected += 1;
            self.delivered += 1;
            actions.push(SinkAction::Deliver(osdu));
            self.drain_stash(actions);
        } else if self.class.corrects() {
            self.stash.insert(seq, osdu);
            return Arrival::Stashed;
        } else {
            // Unreliable: earlier gaps were already freed by
            // `resolve_missing`, so this must now be the in-order point.
            debug_assert!(seq >= self.next_expected);
            self.next_expected = seq + 1;
            self.delivered += 1;
            actions.push(SinkAction::Deliver(osdu));
        }
        Arrival::Delivered
    }

    fn drain_stash(&mut self, actions: &mut Vec<SinkAction>) {
        loop {
            if let Some(osdu) = self.stash.remove(&self.next_expected) {
                self.next_expected += 1;
                self.delivered += 1;
                actions.push(SinkAction::Deliver(osdu));
                continue;
            }
            // A declared-dropped seq at the in-order point frees and
            // advances (counted exactly once, here).
            if self.declared_dropped.remove(&self.next_expected) {
                self.internal_freed += 1;
                self.next_expected += 1;
                continue;
            }
            // A hole resolved out of order earlier (already freed).
            if self.resolved_gaps.remove(&self.next_expected) {
                self.next_expected += 1;
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::osdu::{Opdu, Payload};

    fn tpdu(seq: u64, idx: u32, count: u32) -> DataTpdu {
        DataTpdu {
            vc: cm_core::address::VcId(1),
            osdu_seq: seq,
            frag_index: idx,
            frag_count: count,
            frag_bytes: 100,
            opdu: Opdu { seq, event: None },
            payload: if idx + 1 == count {
                Some(Payload::synthetic(seq, 100))
            } else {
                None
            },
            osdu_sent_at: SimTime::ZERO,
        }
    }

    fn feed(e: &mut SinkEngine, t: DataTpdu, corrupted: bool, now: SimTime) -> Vec<SinkAction> {
        let mut actions = Vec::new();
        e.on_tpdu(&t, corrupted, now, &mut actions);
        actions
    }

    fn notice(e: &mut SinkEngine, seqs: &[u64], now: SimTime) -> Vec<SinkAction> {
        let mut actions = Vec::new();
        e.on_drop_notice(seqs, now, &mut actions);
        actions
    }

    fn deliver_seqs(actions: &[SinkAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                SinkAction::Deliver(o) => Some(o.seq()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_single_fragment_delivery() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        for seq in 0..5 {
            let a = feed(&mut e, tpdu(seq, 0, 1), false, SimTime::ZERO);
            assert_eq!(deliver_seqs(&a), vec![seq]);
        }
        assert_eq!(e.delivered, 5);
        assert_eq!(e.next_expected(), 5);
    }

    #[test]
    fn multi_fragment_reassembly() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        assert!(deliver_seqs(&feed(&mut e, tpdu(0, 0, 3), false, SimTime::ZERO)).is_empty());
        assert!(deliver_seqs(&feed(&mut e, tpdu(0, 1, 3), false, SimTime::ZERO)).is_empty());
        let a = feed(&mut e, tpdu(0, 2, 3), false, SimTime::ZERO);
        assert_eq!(deliver_seqs(&a), vec![0]);
    }

    #[test]
    fn whole_osdu_gap_unreliable_counts_lost_and_continues() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        feed(&mut e, tpdu(0, 0, 1), false, SimTime::ZERO);
        // 1 and 2 vanish.
        let a = feed(&mut e, tpdu(3, 0, 1), false, SimTime::ZERO);
        assert_eq!(e.lost, 2);
        assert_eq!(e.internal_freed, 2);
        assert_eq!(deliver_seqs(&a), vec![3]);
        // Losses are indicated.
        let ind: Vec<u64> = a
            .iter()
            .filter_map(|x| match x {
                SinkAction::IndicateLoss(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(ind, vec![1, 2]);
        assert_eq!(e.next_expected(), 4);
    }

    #[test]
    fn missing_fragment_damages_osdu() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        // OSDU 0 fragment 0 of 2 arrives, fragment 1 lost; OSDU 1 arrives.
        feed(&mut e, tpdu(0, 0, 2), false, SimTime::ZERO);
        let a = feed(&mut e, tpdu(1, 0, 1), false, SimTime::ZERO);
        assert_eq!(e.lost, 1);
        assert_eq!(deliver_seqs(&a), vec![1]);
    }

    #[test]
    fn corrupted_osdu_dropped_and_indicated() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        feed(&mut e, tpdu(0, 0, 2), true, SimTime::ZERO);
        let a = feed(&mut e, tpdu(0, 1, 2), false, SimTime::ZERO);
        assert!(deliver_seqs(&a).is_empty());
        assert_eq!(e.corrupted, 1);
        assert_eq!(e.lost, 1);
        assert!(matches!(a[0], SinkAction::IndicateLoss(0)));
    }

    #[test]
    fn reliable_gap_nacks_and_stalls_then_repairs() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        feed(&mut e, tpdu(0, 0, 1), false, SimTime::ZERO);
        // 1 lost; 2 arrives → nack for 1, delivery stalls.
        let a = feed(&mut e, tpdu(2, 0, 1), false, SimTime::ZERO);
        let nacks: Vec<Vec<u64>> = a
            .iter()
            .filter_map(|x| match x {
                SinkAction::SendNack(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nacks, vec![vec![1]]);
        assert!(deliver_seqs(&a).is_empty());
        assert_eq!(e.next_expected(), 1);
        assert_eq!(e.hole_count(), 1);
        // Retransmission of 1 arrives → 1 and stashed 2 both deliver.
        let a = feed(&mut e, tpdu(1, 0, 1), false, SimTime::from_millis(5));
        assert_eq!(deliver_seqs(&a), vec![1, 2]);
        assert_eq!(e.hole_count(), 0);
        assert_eq!(e.lost, 0);
    }

    #[test]
    fn renack_paces_repeats() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        feed(&mut e, tpdu(0, 0, 1), false, SimTime::ZERO);
        let a = feed(&mut e, tpdu(2, 0, 1), false, SimTime::ZERO);
        assert_eq!(
            a.iter()
                .filter(|x| matches!(x, SinkAction::SendNack(_)))
                .count(),
            1
        );
        // Immediately after: no re-nack yet.
        let a = feed(&mut e, tpdu(3, 0, 1), false, SimTime::from_millis(1));
        assert_eq!(
            a.iter()
                .filter(|x| matches!(x, SinkAction::SendNack(_)))
                .count(),
            0
        );
        // 100 ms later: re-nack fires.
        let a = feed(&mut e, tpdu(4, 0, 1), false, SimTime::from_millis(101));
        let renacks: Vec<&Vec<u64>> = a
            .iter()
            .filter_map(|x| match x {
                SinkAction::SendNack(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(renacks, vec![&vec![1]]);
    }

    #[test]
    fn drop_notice_resolves_hole_without_loss() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        feed(&mut e, tpdu(0, 0, 1), false, SimTime::ZERO);
        feed(&mut e, tpdu(2, 0, 1), false, SimTime::ZERO); // hole at 1
        let a = notice(&mut e, &[1], SimTime::from_millis(1));
        // Hole resolved; stashed 2 delivers; nothing counted lost.
        assert_eq!(deliver_seqs(&a), vec![2]);
        assert_eq!(e.lost, 0);
        assert_eq!(e.internal_freed, 1);
        assert_eq!(e.next_expected(), 3);
    }

    #[test]
    fn drop_notice_ahead_of_data_skips_silently() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        // Source dropped 0 and 1 before sending 2.
        notice(&mut e, &[0, 1], SimTime::ZERO);
        let a = feed(&mut e, tpdu(2, 0, 1), false, SimTime::ZERO);
        assert_eq!(deliver_seqs(&a), vec![2]);
        assert_eq!(e.lost, 0);
        assert_eq!(e.internal_freed, 2);
    }

    #[test]
    fn stale_duplicate_ignored() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        let mut a = Vec::new();
        assert_eq!(
            e.on_tpdu(&tpdu(0, 0, 1), false, SimTime::ZERO, &mut a),
            Arrival::Delivered
        );
        a.clear();
        assert_eq!(
            e.on_tpdu(&tpdu(0, 0, 1), false, SimTime::ZERO, &mut a),
            Arrival::Duplicate
        );
        assert!(a.is_empty());
        assert_eq!(e.delivered, 1);
    }

    #[test]
    fn arrival_reports_what_the_final_fragment_did() {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        let mut a = Vec::new();
        let mut fed = |e: &mut SinkEngine, t: DataTpdu, corrupted: bool| {
            e.on_tpdu(&t, corrupted, SimTime::ZERO, &mut a)
        };
        assert_eq!(fed(&mut e, tpdu(0, 0, 2), false), Arrival::Fragment);
        assert_eq!(fed(&mut e, tpdu(0, 1, 2), false), Arrival::Delivered);
        // 1 lost: 2 completes into the stash behind the hole.
        assert_eq!(fed(&mut e, tpdu(2, 0, 1), false), Arrival::Stashed);
        // A damaged OSDU closes without delivery.
        assert_eq!(fed(&mut e, tpdu(3, 0, 1), true), Arrival::Resolved);
        // The repair of 1 releases it and the stashed 2.
        assert_eq!(fed(&mut e, tpdu(1, 0, 1), false), Arrival::Delivered);
        assert_eq!(fed(&mut e, tpdu(1, 0, 1), false), Arrival::Duplicate);
    }
}
