//! Property-based tests on the transport's core data structures: the
//! shared circular buffer (conservation, FIFO, blocking accounting), the
//! sink reassembly engine (no duplicates, no losses under the correcting
//! class, exact credit conservation), the rate clock (monotone, drift
//! free under factor changes) and fragmentation (exact coverage).

use cm_core::osdu::{Opdu, Osdu, Payload};
use cm_core::service_class::ErrorControlClass;
use cm_core::time::{Rate, SimDuration, SimTime};
use cm_transport::buffer::{BufferHandle, PushOutcome};
use cm_transport::rate::RateClock;
use cm_transport::receiver::{SinkAction, SinkEngine};
use cm_transport::tpdu::{fragment_sizes, DataTpdu, TPDU_HEADER};
use proptest::prelude::*;

fn osdu(seq: u64) -> Osdu {
    Osdu::new(seq, Payload::synthetic(seq, 64))
}

fn tpdu(seq: u64) -> DataTpdu {
    DataTpdu {
        vc: cm_core::address::VcId(1),
        osdu_seq: seq,
        frag_index: 0,
        frag_count: 1,
        frag_bytes: 64,
        opdu: Opdu { seq, event: None },
        payload: Some(Payload::synthetic(seq, 64)),
        osdu_sent_at: SimTime::ZERO,
    }
}

proptest! {
    // ---------- circular buffer ----------

    /// Under any interleaving of pushes and pops, the buffer conserves
    /// units (pushed = popped + stored), never exceeds capacity, and pops
    /// in FIFO order.
    #[test]
    fn buffer_conservation_and_fifo(
        capacity in 1usize..16,
        ops in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let b = BufferHandle::new(capacity);
        let mut next_seq = 0u64;
        let mut expected_pop = 0u64;
        let mut accepted = 0u64;
        let now = SimTime::ZERO;
        for op in ops {
            match op {
                // push
                0..=2 => {
                    match b.try_push(now, osdu(next_seq)) {
                        PushOutcome::Pushed { .. } => {
                            next_seq += 1;
                            accepted += 1;
                            prop_assert!(b.len() <= capacity);
                        }
                        PushOutcome::Full(o) => {
                            prop_assert_eq!(o.seq(), next_seq);
                            prop_assert!(b.is_full());
                        }
                    }
                }
                // pop
                _ => {
                    if let Some(o) = b.try_pop(now) {
                        prop_assert_eq!(o.seq(), expected_pop);
                        expected_pop += 1;
                    }
                }
            }
        }
        let (pushed, popped) = b.totals();
        prop_assert_eq!(pushed, accepted);
        prop_assert_eq!(popped, expected_pop);
        prop_assert_eq!(pushed - popped, b.len() as u64);
    }

    /// The gate and the release limit never corrupt order: whatever subset
    /// of pops they allow, the sequence popped is a prefix-ordered run.
    #[test]
    fn buffer_gate_and_limit_preserve_order(
        limit in 0u64..20,
        toggle_at in 0usize..20,
        n in 1u64..20,
    ) {
        let b = BufferHandle::new(32);
        let now = SimTime::ZERO;
        for seq in 0..n {
            b.try_push(now, osdu(seq));
        }
        b.set_release_limit(now, Some(limit));
        let mut got = Vec::new();
        for i in 0..(n as usize + 4) {
            if i == toggle_at {
                b.set_gated(now, true);
                b.set_gated(now, false);
            }
            if let Some(o) = b.try_pop(now) {
                got.push(o.seq());
            }
        }
        // Popped exactly min(limit, n) units, in order from zero.
        let want: Vec<u64> = (0..n.min(limit)).collect();
        prop_assert_eq!(got, want);
    }

    /// Blocking-time accounting: a consumer parked for d microseconds is
    /// accounted exactly d.
    #[test]
    fn buffer_blocking_time_exact(d in 1u64..1_000_000) {
        let b = BufferHandle::new(4);
        b.park_consumer(SimTime::ZERO, || {});
        b.try_push(SimTime::from_micros(d), osdu(0));
        let stats = b.take_stats(SimTime::from_micros(d));
        prop_assert_eq!(stats.consumer_blocked, SimDuration::from_micros(d));
    }

    // ---------- sink engine ----------

    /// Detect-only: whatever subset of OSDUs the network delivers, the
    /// engine delivers exactly that subset, in order, counts the rest
    /// lost, and the credit ledger (delivered + internal_freed) covers
    /// every sequence number below the in-order point.
    #[test]
    fn sink_unreliable_accounts_every_seq(present in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut e = SinkEngine::new(ErrorControlClass::DetectIndicate);
        let mut delivered = Vec::new();
        for (seq, &ok) in present.iter().enumerate() {
            if !ok {
                continue;
            }
            let mut actions = Vec::new();
            e.on_tpdu(&tpdu(seq as u64), false, SimTime::ZERO, &mut actions);
            for a in actions {
                if let SinkAction::Deliver(o) = a {
                    delivered.push(o.seq());
                }
            }
        }
        // Delivered = exactly the present seqs up to the last present one.
        let want: Vec<u64> = present
            .iter()
            .enumerate()
            .filter(|&(_, &ok)| ok)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(&delivered, &want);
        // Every seq below next_expected is accounted delivered or freed.
        prop_assert_eq!(
            e.delivered + e.internal_freed,
            e.next_expected()
        );
        prop_assert_eq!(e.delivered, delivered.len() as u64);
    }

    /// Detect+correct: losses followed by retransmissions always yield the
    /// complete in-order stream with zero recorded losses.
    #[test]
    fn sink_reliable_repairs_everything(lose in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut e = SinkEngine::new(ErrorControlClass::DetectCorrect);
        let n = lose.len() as u64;
        let mut delivered = Vec::new();
        let mut actions = Vec::new();
        let mut feed = |e: &mut SinkEngine, seq: u64, now: SimTime, delivered: &mut Vec<u64>| {
            e.on_tpdu(&tpdu(seq), false, now, &mut actions);
            for a in actions.drain(..) {
                if let SinkAction::Deliver(o) = a {
                    delivered.push(o.seq());
                }
            }
        };
        for (seq, &lost) in lose.iter().enumerate() {
            if !lost {
                feed(&mut e, seq as u64, SimTime::from_micros(seq as u64), &mut delivered);
            }
        }
        // Retransmission pass for everything that was lost.
        for (seq, &lost) in lose.iter().enumerate() {
            if lost {
                feed(&mut e, seq as u64, SimTime::from_millis(1_000 + seq as u64), &mut delivered);
            }
        }
        prop_assert_eq!(delivered, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(e.lost, 0);
        prop_assert_eq!(e.hole_count(), 0);
    }

    // ---------- rate clock ----------

    /// Due times are non-decreasing across arbitrary sequences of factor
    /// changes, pauses and resumes.
    #[test]
    fn rate_clock_monotone_under_retuning(
        ops in proptest::collection::vec((0u8..4, 1u64..20, 1u64..20), 1..100),
    ) {
        let mut c = RateClock::new(Rate::per_second(50));
        c.start(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut last_due = SimTime::ZERO;
        for (op, a, b) in ops {
            now += SimDuration::from_millis(a);
            match op {
                0 => {
                    if let Some(due) = c.next_due() {
                        // Sends may only happen at/after their due time.
                        if due <= now {
                            prop_assert!(due >= last_due);
                            last_due = due;
                            c.consume_slot();
                        }
                    }
                }
                1 => c.set_factor(a, b, now),
                2 => c.pause(),
                _ => c.resume(now),
            }
        }
    }

    /// `limit_backlog` never moves the next due time backwards.
    #[test]
    fn rate_clock_backlog_limit_safe(gap_ms in 0u64..10_000, max_slots in 0u64..8) {
        let mut c = RateClock::new(Rate::per_second(25));
        c.start(SimTime::ZERO);
        let now = SimTime::from_millis(gap_ms);
        let before = c.next_due().expect("running");
        c.limit_backlog(now, max_slots);
        let after = c.next_due().expect("still running");
        prop_assert!(after >= before || after >= now);
    }

    // ---------- fragmentation ----------

    /// Fragment sizes always cover the OSDU exactly, each fits the MTU,
    /// and only the final fragment may be short.
    #[test]
    fn fragmentation_exact_cover(bytes in 0usize..200_000, mtu in (TPDU_HEADER + 1)..9_000) {
        let sizes = fragment_sizes(bytes, mtu);
        prop_assert!(!sizes.is_empty());
        prop_assert_eq!(sizes.iter().sum::<usize>(), bytes);
        let room = mtu - TPDU_HEADER;
        prop_assert!(sizes.iter().all(|&s| s <= room));
        prop_assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == room));
    }
}
