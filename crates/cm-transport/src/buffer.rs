//! The shared circular-buffer data-transfer interface (§3.7).
//!
//! The paper rejects per-unit `send()`/`recv()` calls for CM in favour of
//! shared circular buffers with producer/consumer contention controlled by
//! semaphores, for four stated reasons: implicit data location (no copy),
//! no per-unit synchronisation when rates match, scheduler visibility of
//! buffer state, and — crucially for orchestration — *measurable blocking
//! time*: "the time spent blocking by both the application and the
//! transport entity can be measured by monitoring the state of the
//! synchronisation semaphores. These statistics are used by the
//! orchestration service" (§3.7, §6.3.1.2).
//!
//! This is the virtual-time implementation used inside the simulation; a
//! byte-for-byte threaded twin for real-time use (and the E8 benchmark)
//! lives in [`crate::sync_buffer`].

use cm_core::osdu::Osdu;
use cm_core::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Blocking-time totals for one accounting interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Time the producer side spent blocked on a full buffer.
    pub producer_blocked: SimDuration,
    /// Time the consumer side spent blocked on an empty (or gated) buffer.
    pub consumer_blocked: SimDuration,
    /// Time the buffer spent completely full. At a sink this measures how
    /// long the protocol was held off by flow control even when the credit
    /// scheme stalls the *sender* rather than parking the local producer —
    /// the "protocol thread blocked" signal of §6.3.1.2.
    pub full_time: SimDuration,
}

/// A parked side's wake-up callback. The `*_deferred` operations hand it
/// back instead of running it, so the data path can run it in its own
/// effect order.
pub(crate) type Waker = Box<dyn FnOnce()>;

fn run(waker: Option<Waker>) {
    if let Some(w) = waker {
        w();
    }
}

struct Inner {
    capacity: usize,
    slots: VecDeque<Osdu>,
    /// While gated, the consumer sees an empty buffer: data accumulates but
    /// is not released (the `Orch.Prime` mechanism, §6.2.1).
    gated: bool,
    /// Release pacing (§5: quanta are "released by the sink LLO instance
    /// to the application thread at times determined by the HLO initiated
    /// targets"): a unit is releasable only while its OSDU sequence number
    /// (= media position) is below this cap, so source-side drops advance
    /// the position without inflating the release budget.
    release_limit: Option<u64>,
    producer_waiter: Option<Waker>,
    consumer_waiter: Option<Waker>,
    producer_blocked_since: Option<SimTime>,
    consumer_blocked_since: Option<SimTime>,
    producer_blocked_acc: SimDuration,
    consumer_blocked_acc: SimDuration,
    /// Invoked (once per transition) when a push fills the last free slot.
    full_watch: Option<Rc<dyn Fn()>>,
    full_since: Option<SimTime>,
    full_acc: SimDuration,
    /// Total OSDUs ever pushed/popped, for invariant checks and tests.
    pushed: u64,
    popped: u64,
}

impl Inner {
    fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    fn finish_producer_block(&mut self, now: SimTime) {
        if let Some(t0) = self.producer_blocked_since.take() {
            self.producer_blocked_acc += now.saturating_since(t0);
        }
    }

    fn finish_consumer_block(&mut self, now: SimTime) {
        if let Some(t0) = self.consumer_blocked_since.take() {
            self.consumer_blocked_acc += now.saturating_since(t0);
        }
    }
}

/// Result of a push attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Stored; `filled` is true when this push used the last free slot.
    Pushed {
        /// Did this push fill the buffer?
        filled: bool,
    },
    /// No room; the OSDU is handed back.
    Full(Osdu),
}

/// Handle to a shared circular buffer (clones share the buffer).
#[derive(Clone)]
pub struct BufferHandle {
    inner: Rc<RefCell<Inner>>,
}

impl BufferHandle {
    /// A buffer with room for `capacity` OSDUs (one logical unit per slot;
    /// slot byte size is bounded by the connection's `max_osdu_size`, §5).
    pub fn new(capacity: usize) -> BufferHandle {
        assert!(capacity > 0, "buffer needs at least one slot");
        BufferHandle {
            inner: Rc::new(RefCell::new(Inner {
                capacity,
                slots: VecDeque::with_capacity(capacity),
                gated: false,
                release_limit: None,
                producer_waiter: None,
                consumer_waiter: None,
                producer_blocked_since: None,
                consumer_blocked_since: None,
                producer_blocked_acc: SimDuration::ZERO,
                consumer_blocked_acc: SimDuration::ZERO,
                full_watch: None,
                full_since: None,
                full_acc: SimDuration::ZERO,
                pushed: 0,
                popped: 0,
            })),
        }
    }

    /// Attempt to append an OSDU.
    ///
    /// On success, a parked consumer (if the gate is open) is woken.
    pub fn try_push(&self, now: SimTime, osdu: Osdu) -> PushOutcome {
        let (outcome, waker) = self.push_deferred(now, osdu);
        run(waker);
        outcome
    }

    /// [`BufferHandle::try_push`] that returns the wake-up (parked
    /// consumer, then the full watch) instead of running it.
    pub(crate) fn push_deferred(&self, now: SimTime, osdu: Osdu) -> (PushOutcome, Option<Waker>) {
        let mut b = self.inner.borrow_mut();
        if b.is_full() {
            return (PushOutcome::Full(osdu), None);
        }
        b.slots.push_back(osdu);
        b.pushed += 1;
        let filled = b.is_full();
        if filled && b.full_since.is_none() {
            b.full_since = Some(now);
        }
        let mut waker = None;
        if !b.gated {
            waker = b.consumer_waiter.take();
            if waker.is_some() {
                b.finish_consumer_block(now);
            }
        }
        if filled {
            if let Some(f) = b.full_watch.clone() {
                // Runs after the borrow drops; the callback may freely
                // re-enter the buffer.
                waker = Some(match waker {
                    Some(w) => Box::new(move || {
                        w();
                        f()
                    }),
                    None => Box::new(move || f()),
                });
            }
        }
        (PushOutcome::Pushed { filled }, waker)
    }

    /// Park the producer until a slot frees; `waker` runs exactly once.
    /// Blocking time is accounted from `now` until the wake.
    ///
    /// Panics if a producer is already parked (buffers are single-producer).
    pub fn park_producer(&self, now: SimTime, waker: impl FnOnce() + 'static) {
        let mut b = self.inner.borrow_mut();
        assert!(b.producer_waiter.is_none(), "producer already parked");
        b.producer_waiter = Some(Box::new(waker));
        if b.producer_blocked_since.is_none() {
            b.producer_blocked_since = Some(now);
        }
    }

    /// Attempt to remove the oldest OSDU. Returns `None` when empty or
    /// gated. On success, a parked producer is woken.
    pub fn try_pop(&self, now: SimTime) -> Option<Osdu> {
        let (osdu, waker) = self.pop_deferred(now);
        run(waker);
        osdu
    }

    /// [`BufferHandle::try_pop`] that returns the parked producer's
    /// wake-up instead of running it.
    pub(crate) fn pop_deferred(&self, now: SimTime) -> (Option<Osdu>, Option<Waker>) {
        let mut b = self.inner.borrow_mut();
        if b.gated {
            return (None, None);
        }
        if let Some(limit) = b.release_limit {
            match b.slots.front() {
                Some(o) if o.seq() >= limit => return (None, None),
                _ => {}
            }
        }
        let was_full = b.is_full();
        let Some(osdu) = b.slots.pop_front() else {
            return (None, None);
        };
        b.popped += 1;
        if was_full {
            if let Some(t0) = b.full_since.take() {
                b.full_acc += now.saturating_since(t0);
            }
        }
        let waker = b.producer_waiter.take().inspect(|_w| {
            b.finish_producer_block(now);
        });
        (Some(osdu), waker)
    }

    /// Park the consumer until data is available and the gate is open.
    ///
    /// Panics if a consumer is already parked (buffers are single-consumer).
    pub fn park_consumer(&self, now: SimTime, waker: impl FnOnce() + 'static) {
        let mut b = self.inner.borrow_mut();
        assert!(b.consumer_waiter.is_none(), "consumer already parked");
        b.consumer_waiter = Some(Box::new(waker));
        if b.consumer_blocked_since.is_none() {
            b.consumer_blocked_since = Some(now);
        }
    }

    /// Open or close the delivery gate (§6.2: primed buffers fill but do
    /// not deliver). Opening the gate wakes a parked consumer if data is
    /// waiting.
    pub fn set_gated(&self, now: SimTime, gated: bool) {
        run(self.set_gated_deferred(now, gated));
    }

    /// [`BufferHandle::set_gated`] that returns the parked consumer's
    /// wake-up instead of running it.
    pub(crate) fn set_gated_deferred(&self, now: SimTime, gated: bool) -> Option<Waker> {
        let mut b = self.inner.borrow_mut();
        b.gated = gated;
        if !gated && !b.slots.is_empty() {
            b.consumer_waiter.take().inspect(|_w| {
                b.finish_consumer_block(now);
            })
        } else {
            None
        }
    }

    /// Whether the gate is closed.
    pub fn is_gated(&self) -> bool {
        self.inner.borrow().gated
    }

    /// Set (or clear) the release cap: the total number of OSDUs the
    /// consumer may ever have popped. Raising the cap (or clearing it)
    /// wakes a parked consumer if data is available and the gate is open.
    pub fn set_release_limit(&self, now: SimTime, limit: Option<u64>) {
        let waker = {
            let mut b = self.inner.borrow_mut();
            b.release_limit = limit;
            let releasable = match (limit, b.slots.front()) {
                (Some(l), Some(o)) => o.seq() < l,
                _ => true,
            };
            if releasable && !b.gated && !b.slots.is_empty() {
                b.consumer_waiter.take().inspect(|_w| {
                    b.finish_consumer_block(now);
                })
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w();
        }
    }

    /// The current release cap.
    pub fn release_limit(&self) -> Option<u64> {
        self.inner.borrow().release_limit
    }

    /// Discard all buffered OSDUs (stop + seek must not leave "a short
    /// burst of media buffered from the previous play", §6.2.1). Wakes a
    /// parked producer. Returns how many units were discarded.
    pub fn flush(&self, now: SimTime) -> usize {
        let (n, waker) = self.flush_deferred(now);
        run(waker);
        n
    }

    /// [`BufferHandle::flush`] that returns the parked producer's wake-up
    /// instead of running it.
    pub(crate) fn flush_deferred(&self, now: SimTime) -> (usize, Option<Waker>) {
        let mut b = self.inner.borrow_mut();
        let n = b.slots.len();
        if let Some(t0) = b.full_since.take() {
            b.full_acc += now.saturating_since(t0);
        }
        b.slots.clear();
        let waker = b.producer_waiter.take().inspect(|_w| {
            b.finish_producer_block(now);
        });
        (n, waker)
    }

    /// Register the buffer-became-full callback (the sink LLO's priming
    /// notification, §6.2.1).
    pub fn set_full_watch(&self, f: impl Fn() + 'static) {
        self.inner.borrow_mut().full_watch = Some(Rc::new(f));
    }

    /// Remove the full-watch callback.
    pub fn clear_full_watch(&self) {
        self.inner.borrow_mut().full_watch = None;
    }

    /// Take-and-reset the blocking statistics, closing any in-progress
    /// block at `now` (it continues accruing into the next interval).
    pub fn take_stats(&self, now: SimTime) -> BufferStats {
        let mut b = self.inner.borrow_mut();
        if let Some(t0) = b.producer_blocked_since {
            let add = now.saturating_since(t0);
            b.producer_blocked_acc += add;
            b.producer_blocked_since = Some(now);
        }
        if let Some(t0) = b.consumer_blocked_since {
            let add = now.saturating_since(t0);
            b.consumer_blocked_acc += add;
            b.consumer_blocked_since = Some(now);
        }
        if let Some(t0) = b.full_since {
            let add = now.saturating_since(t0);
            b.full_acc += add;
            b.full_since = Some(now);
        }
        let s = BufferStats {
            producer_blocked: b.producer_blocked_acc,
            consumer_blocked: b.consumer_blocked_acc,
            full_time: b.full_acc,
        };
        b.producer_blocked_acc = SimDuration::ZERO;
        b.consumer_blocked_acc = SimDuration::ZERO;
        b.full_acc = SimDuration::ZERO;
        s
    }

    /// OSDUs currently stored.
    pub fn len(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    /// True when no OSDUs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.inner.borrow().is_full()
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        let b = self.inner.borrow();
        b.capacity - b.slots.len()
    }

    /// Lifetime counters `(pushed, popped)`.
    pub fn totals(&self) -> (u64, u64) {
        let b = self.inner.borrow();
        (b.pushed, b.popped)
    }

    /// Peek at the sequence number of the oldest stored OSDU without
    /// consuming it (ignores the gate — used by the LLO to observe
    /// progress).
    pub fn peek_seq(&self) -> Option<u64> {
        self.inner.borrow().slots.front().map(|o| o.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::osdu::Payload;
    use std::cell::Cell;

    fn osdu(seq: u64) -> Osdu {
        Osdu::new(seq, Payload::synthetic(seq, 100))
    }

    #[test]
    fn fifo_order_and_boundaries() {
        let b = BufferHandle::new(4);
        for i in 0..3 {
            assert!(matches!(
                b.try_push(SimTime::ZERO, osdu(i)),
                PushOutcome::Pushed { .. }
            ));
        }
        assert_eq!(b.len(), 3);
        for i in 0..3 {
            assert_eq!(b.try_pop(SimTime::ZERO).unwrap().seq(), i);
        }
        assert!(b.try_pop(SimTime::ZERO).is_none());
    }

    #[test]
    fn push_to_full_hands_back() {
        let b = BufferHandle::new(1);
        b.try_push(SimTime::ZERO, osdu(0));
        match b.try_push(SimTime::ZERO, osdu(1)) {
            PushOutcome::Full(o) => assert_eq!(o.seq(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filled_flag_set_on_last_slot() {
        let b = BufferHandle::new(2);
        assert_eq!(
            b.try_push(SimTime::ZERO, osdu(0)),
            PushOutcome::Pushed { filled: false }
        );
        assert_eq!(
            b.try_push(SimTime::ZERO, osdu(1)),
            PushOutcome::Pushed { filled: true }
        );
    }

    #[test]
    fn gate_blocks_pop_but_not_push() {
        let b = BufferHandle::new(4);
        b.set_gated(SimTime::ZERO, true);
        b.try_push(SimTime::ZERO, osdu(0));
        assert!(b.try_pop(SimTime::ZERO).is_none());
        assert_eq!(b.len(), 1);
        b.set_gated(SimTime::ZERO, false);
        assert_eq!(b.try_pop(SimTime::ZERO).unwrap().seq(), 0);
    }

    #[test]
    fn consumer_woken_on_push() {
        let b = BufferHandle::new(2);
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        b.park_consumer(SimTime::ZERO, move || w.set(true));
        b.try_push(SimTime::from_millis(5), osdu(0));
        assert!(woken.get());
        // Blocking time 5 ms accounted to the consumer.
        let stats = b.take_stats(SimTime::from_millis(5));
        assert_eq!(stats.consumer_blocked, SimDuration::from_millis(5));
        assert_eq!(stats.producer_blocked, SimDuration::ZERO);
    }

    #[test]
    fn gated_push_does_not_wake_consumer() {
        let b = BufferHandle::new(2);
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        b.set_gated(SimTime::ZERO, true);
        b.park_consumer(SimTime::ZERO, move || w.set(true));
        b.try_push(SimTime::from_millis(1), osdu(0));
        assert!(!woken.get());
        // Opening the gate delivers the wake.
        b.set_gated(SimTime::from_millis(3), false);
        assert!(woken.get());
        let stats = b.take_stats(SimTime::from_millis(3));
        assert_eq!(stats.consumer_blocked, SimDuration::from_millis(3));
    }

    #[test]
    fn producer_woken_on_pop_with_blocking_time() {
        let b = BufferHandle::new(1);
        b.try_push(SimTime::ZERO, osdu(0));
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        b.park_producer(SimTime::from_millis(10), move || w.set(true));
        b.try_pop(SimTime::from_millis(25));
        assert!(woken.get());
        let stats = b.take_stats(SimTime::from_millis(25));
        assert_eq!(stats.producer_blocked, SimDuration::from_millis(15));
    }

    #[test]
    fn take_stats_resets_and_continues_open_blocks() {
        let b = BufferHandle::new(1);
        b.try_push(SimTime::ZERO, osdu(0));
        b.park_producer(SimTime::ZERO, || {});
        // Interval 1 ends at 10 ms with the producer still blocked.
        let s1 = b.take_stats(SimTime::from_millis(10));
        assert_eq!(s1.producer_blocked, SimDuration::from_millis(10));
        // Interval 2: block continues 10→30 ms.
        let s2 = b.take_stats(SimTime::from_millis(30));
        assert_eq!(s2.producer_blocked, SimDuration::from_millis(20));
    }

    #[test]
    fn flush_empties_and_wakes_producer() {
        let b = BufferHandle::new(2);
        b.try_push(SimTime::ZERO, osdu(0));
        b.try_push(SimTime::ZERO, osdu(1));
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        b.park_producer(SimTime::ZERO, move || w.set(true));
        assert_eq!(b.flush(SimTime::from_millis(2)), 2);
        assert!(b.is_empty());
        assert!(woken.get());
    }

    #[test]
    fn full_watch_fires_on_fill_transition() {
        let b = BufferHandle::new(2);
        let fills = Rc::new(Cell::new(0));
        let f = fills.clone();
        b.set_full_watch(move || f.set(f.get() + 1));
        b.try_push(SimTime::ZERO, osdu(0));
        assert_eq!(fills.get(), 0);
        b.try_push(SimTime::ZERO, osdu(1));
        assert_eq!(fills.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already parked")]
    fn double_park_is_a_bug() {
        let b = BufferHandle::new(1);
        b.park_consumer(SimTime::ZERO, || {});
        b.park_consumer(SimTime::ZERO, || {});
    }

    #[test]
    fn peek_seq_ignores_gate() {
        let b = BufferHandle::new(2);
        b.set_gated(SimTime::ZERO, true);
        b.try_push(SimTime::ZERO, osdu(42));
        assert_eq!(b.peek_seq(), Some(42));
    }

    #[test]
    fn totals_count_lifetime_traffic() {
        let b = BufferHandle::new(2);
        b.try_push(SimTime::ZERO, osdu(0));
        b.try_pop(SimTime::ZERO);
        b.try_push(SimTime::ZERO, osdu(1));
        assert_eq!(b.totals(), (2, 1));
    }
}
