//! The barrier-tick shard runner.
//!
//! One round protocol: one [`Barrier`] wait per round, per-zone windows
//! from a per-pair [`LookaheadMatrix`], and idle-zone fast paths. The
//! round, identical on every worker thread (each worker owns the zones
//! `w, w + workers, w + 2·workers, …`, visited in ascending id):
//!
//! 1. **Gather + publish** — for each owned zone whose mailbox flag is
//!    raised, take the mailbox, sort the envelopes by
//!    `(deliver_at, src_zone, seq)` and inject them. Publish the zone's
//!    earliest pending deadline `T` and earliest possible cross-zone
//!    emission `E` to its slot, then stamp the slot's round sequence —
//!    the release store that makes `(T, E)` visible.
//! 2. **Spin** — wait (spin, then yield) until every zone's slot
//!    carries this round's sequence, then read all `(T, E)` pairs.
//!    The sequence stamp is the only publication order that matters,
//!    so no barrier is needed here. Every worker now computes the same
//!    decisions from the same values: if every `T` is `u64::MAX` the
//!    cluster is drained (mailboxes were injected *before* deadlines
//!    were published, so an idle reading really means idle) and
//!    everyone exits together — without touching the barrier,
//!    symmetrically. Otherwise each zone's window is
//!    `W_z = min_j (E_j + D(j, z))`
//!    where `D` is the min-plus closure of the lookahead matrix: any
//!    influence from zone `j`, even relayed through other zones, needs
//!    at least `D(j, z)` of simulated time to reach `z`, so `z` may
//!    run to `W_z` (inclusive) without missing anything. When no zone
//!    can ever influence `z` again (`W_z = MAX`), `z` runs to drain.
//!    The window *stretch* falls out of `E`: a zone with live
//!    cross-zone traffic publishes `E = T`, but one whose next possible
//!    emission is far away (arrival gap, churn lull, no live relays)
//!    lets every downstream window leap that gap in a single round.
//! 3. **Run + route** — drive each owned zone to its window and route
//!    its outbound envelopes, batched per destination (one lock per
//!    destination per round, envelope `Vec`s reused across rounds).
//!    The runner asserts `deliver_at ≥ W_dst` on every envelope: a
//!    violation means the worker promised less lookahead than its
//!    links actually have, breaking the conservative safety argument.
//!    **Idle fast path:** an owned zone with an empty mailbox and
//!    `T > W_z` is skipped entirely — no engine drive, no outbound
//!    drain, no `RefCell` traffic; its cached `(T, E)` are republished
//!    next round.
//! 4. **Barrier** — the single wait, separating this round's mailbox
//!    writes from the next round's gathers.
//!
//! Safety of the per-zone window (conservative PDES): an envelope from
//! `j` to `z` is emitted at some `t ≥ E_j` and delivered at
//! `t + L(j, z) ≥ E_j + D(j, z) ≥ W_z`; a chain `j → k → z` arrives no
//! earlier than `E_j + D(j, k) + D(k, z) ≥ E_j + D(j, z)`. Liveness:
//! the zone holding the globally smallest deadline always has
//! `W_z > T_z` (every `E_j ≥ T_j ≥ min T`, every `D ≥` the matrix
//! entries), so at least one event executes per round. Windows are
//! monotone: after running to `W_z(r)`, both `T_z` and `E_z` exceed
//! `W_z(r)`, and the min-plus triangle inequality keeps every
//! `W(r + 1) ≥ W(r)` — a zone that idled never sees its window shrink
//! below its clock.
//!
//! Determinism does not depend on the zone→worker assignment: the
//! injection order within a zone is fixed by the sort, every window is
//! a global reduction each worker computes identically from the
//! published slots, and each zone's window execution is
//! single-threaded on whichever worker owns it. Merged results are
//! byte-identical for any worker count.

use crate::envelope::Envelope;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// A shard the runner can drive: one zone's engine plus its stack.
///
/// Implementations are built *on* their worker thread (the builder
/// closures passed to [`run_cluster`] are `Send`, the built worker need
/// not be), so zone stacks full of `Rc`s are fine — only the
/// [`Envelope`] bodies cross threads.
pub trait ZoneWorker {
    /// Cross-zone message body. `Send` is load-bearing: this is the
    /// type that travels between worker threads.
    type Msg: Send + 'static;
    /// Per-zone result returned to the caller after the run.
    type Report: Send + 'static;

    /// Deliver one cross-zone envelope: schedule its effect at exactly
    /// `env.deliver_at_us` on the zone's engine. Called in
    /// `(deliver_at, src_zone, seq)` order before each window.
    fn inject(&mut self, env: Envelope<Self::Msg>);

    /// Deadline of the zone's earliest pending event, or `None` when
    /// the zone is drained. Must not execute anything.
    fn next_deadline_us(&mut self) -> Option<u64>;

    /// Earliest simulated time at which this zone could emit a
    /// cross-zone envelope, given its current state (future injections
    /// cannot make it earlier — they arrive no sooner than the zone's
    /// own window). `None` means the zone will never emit again absent
    /// new input. Must be ≥ [`next_deadline_us`](Self::next_deadline_us)
    /// when both are finite: emissions happen while executing events.
    ///
    /// The default is the safe floor — the next deadline itself. A
    /// worker that knows more (e.g. no live relay and the next
    /// relay-enabling event is minutes away) should say so: every
    /// downstream window stretches by exactly that knowledge.
    fn next_emission_us(&mut self) -> Option<u64> {
        self.next_deadline_us()
    }

    /// Advance the zone's clock to `deadline_us` *inclusive*: every
    /// event at or before the deadline fires, and the clock lands on
    /// the deadline even if the queue drains early.
    fn run_until_us(&mut self, deadline_us: u64);

    /// Run every remaining event; called instead of
    /// [`run_until_us`](Self::run_until_us) when no other zone can ever
    /// influence this one again (its window is unbounded). The clock
    /// should land on the last event, not on `u64::MAX` — override
    /// this if `run_until_us(u64::MAX)` would poison the clock.
    fn run_to_drain_us(&mut self) {
        self.run_until_us(u64::MAX);
    }

    /// Move every cross-zone message emitted since the last drain into
    /// `out`, in emission order, with `dst_zone` and `deliver_at_us`
    /// filled in (`src_zone`/`seq` are stamped by the runner).
    fn drain_outbound(&mut self, out: &mut Vec<Envelope<Self::Msg>>);

    /// Tear down and report; called once after the cluster drains.
    fn finish(self) -> Self::Report;
}

/// The cluster's round protocol. There is only one, and no
/// configuration reads this enum: it exists solely because the frozen
/// `benchmark/src/workloads.rs` calls
/// `run_city_cluster_mode(.., RoundMode::Adaptive)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Single-barrier protocol with per-zone adaptive windows from the
    /// lookahead matrix and idle-zone fast paths.
    Adaptive,
}

/// Per-zone-pair conservative lookahead, microseconds.
///
/// `get(src, dst)` is the minimum simulated time between zone `src`
/// emitting an envelope and that envelope's `deliver_at` in `dst` —
/// `u64::MAX` meaning the pair never communicates (routing an envelope
/// over a `MAX` edge panics the run). Entries must not exceed the real
/// minimum latency of the corresponding link or deliveries land inside
/// a window that already ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadMatrix {
    zones: usize,
    lat: Vec<u64>,
}

impl LookaheadMatrix {
    /// Every pair (the diagonal included, for self-addressed
    /// envelopes) at the same lookahead.
    pub fn uniform(zones: usize, latency_us: u64) -> LookaheadMatrix {
        LookaheadMatrix {
            zones,
            lat: vec![latency_us; zones * zones],
        }
    }

    /// No pair communicates; add edges with [`set`](Self::set).
    pub fn disconnected(zones: usize) -> LookaheadMatrix {
        LookaheadMatrix {
            zones,
            lat: vec![u64::MAX; zones * zones],
        }
    }

    /// Zone count this matrix describes.
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// Flat index of the `src → dst` entry.
    ///
    /// # Panics
    ///
    /// If either zone is out of range — without the check an
    /// out-of-range id would silently alias another pair's entry.
    fn index(&self, src: u32, dst: u32) -> usize {
        let n = self.zones;
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "lookahead matrix pair {src} → {dst} is out of range for {n} zones"
        );
        src as usize * n + dst as usize
    }

    /// Declare (or tighten) the `src → dst` edge.
    ///
    /// # Panics
    ///
    /// If `src` or `dst` is not below [`zones`](Self::zones).
    pub fn set(&mut self, src: u32, dst: u32, latency_us: u64) {
        let i = self.index(src, dst);
        self.lat[i] = self.lat[i].min(latency_us);
    }

    /// The `src → dst` lookahead, `u64::MAX` when the pair never
    /// communicates.
    ///
    /// # Panics
    ///
    /// If `src` or `dst` is not below [`zones`](Self::zones).
    pub fn get(&self, src: u32, dst: u32) -> u64 {
        self.lat[self.index(src, dst)]
    }

    /// Min-plus closure: `closure[j][z]` = the least total lookahead
    /// along any non-empty path `j → … → z` (so the diagonal is the
    /// shortest cycle through the zone, not zero). This is the real
    /// influence bound: an effect relayed through intermediate zones
    /// still pays every edge on the way.
    fn closure(&self) -> Vec<u64> {
        let n = self.zones;
        let mut d = self.lat.clone();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if dik == u64::MAX {
                    continue;
                }
                for j in 0..n {
                    let alt = dik.saturating_add(d[k * n + j]);
                    if alt < d[i * n + j] {
                        d[i * n + j] = alt;
                    }
                }
            }
        }
        d
    }
}

/// Tuning for one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker threads to spread the zones over. Clamped to `1..=zones`.
    pub workers: usize,
    /// Hard cap on barrier rounds; the run aborts beyond it. A cluster
    /// that needs this many rounds is livelocked, not busy.
    pub max_rounds: u64,
    /// Per-pair lookahead; must describe exactly the cluster's zones.
    pub matrix: LookaheadMatrix,
}

/// What one cluster run produced.
#[derive(Debug)]
pub struct ClusterReport<R> {
    /// Per-zone reports, in zone-id order.
    pub reports: Vec<R>,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock for the whole run, in microseconds.
    pub wall_us: u64,
    /// Per-worker busy wall-clock (gather, inject, zone execution and
    /// routing — everything except waiting on other workers), in
    /// microseconds, indexed by worker.
    pub worker_busy_us: Vec<u64>,
    /// Per-worker synchronization wall-clock (slot spins and barrier
    /// waits), in microseconds, indexed by worker.
    pub worker_sync_us: Vec<u64>,
    /// Critical-path wall-clock: Σ over rounds of the busiest worker's
    /// busy time in that round. This is the floor a perfectly parallel
    /// host could reach with this partition — the honest speedup model
    /// when the measuring host has fewer cores than workers.
    pub critical_path_us: u64,
    /// Cross-zone envelopes routed over the whole run.
    pub envelopes_routed: u64,
    /// Envelope buffer growth events (a mailbox, staging or routing
    /// `Vec` had to reallocate). Every buffer is reused across rounds,
    /// so this should flatline after warm-up.
    pub envelope_allocs: u64,
}

/// One zone's published coordination state. The `seq` store (Release)
/// is what publishes `t`/`e` for the round; readers Acquire-load `seq`
/// first. Padded so two zones' slots never share a cache line.
#[repr(align(64))]
struct Slot {
    /// Earliest pending deadline (`u64::MAX` = drained).
    t: AtomicU64,
    /// Earliest possible cross-zone emission (`u64::MAX` = never).
    e: AtomicU64,
    /// Round number these values belong to.
    seq: AtomicU64,
}

struct Mailbox<M> {
    queue: Mutex<Vec<Envelope<M>>>,
    /// Raised by the router, lowered by the gatherer; the barrier
    /// separates the two, so plain Relaxed traffic is enough — the
    /// flag only saves the lock (and the `RefCell` work behind it)
    /// on the idle path.
    nonempty: AtomicBool,
}

struct Shared<M> {
    /// One mailbox per destination zone; drained whole at gather time.
    mailboxes: Vec<Mailbox<M>>,
    /// Per-zone coordination slots.
    slots: Vec<Slot>,
    barrier: Barrier,
    /// A worker failed or hit the round cap; checked right after the
    /// round's single barrier, so every worker acts on it at the same
    /// aligned point.
    abort: AtomicBool,
}

struct WorkerDone<R> {
    reports: Vec<(usize, R)>,
    busy_per_round: Vec<u64>,
    sync_us: u64,
    routed: u64,
    allocs: u64,
}

enum WorkerExit<R> {
    Done(WorkerDone<R>),
    Panicked(Box<dyn std::any::Any + Send>),
    Aborted,
    /// Round cap hit; carries the per-zone diagnostic dump.
    RoundLimit(String),
}

/// Render the per-zone coordination state — every zone's published
/// next-deadline/next-emission and its computed window — so a livelock
/// or lookahead misconfiguration is diagnosable from the panic alone.
fn diag_table(slots: &[Slot], windows: &[u64]) -> String {
    fn t(v: u64) -> String {
        if v == u64::MAX {
            "-".into()
        } else {
            v.to_string()
        }
    }
    let mut s = String::new();
    for (z, slot) in slots.iter().enumerate() {
        s.push_str(&format!(
            "\n  zone {z}: next_deadline={} next_emission={} window={}",
            t(slot.t.load(Ordering::Relaxed)),
            t(slot.e.load(Ordering::Relaxed)),
            t(windows[z]),
        ));
    }
    s
}

/// Append `src` into `dst`, counting a buffer-growth event when the
/// spare capacity wasn't there — the reuse metric the microbench
/// tracks.
fn append_counted<T>(dst: &mut Vec<T>, src: &mut Vec<T>, allocs: &mut u64) {
    if dst.capacity() - dst.len() < src.len() {
        *allocs += 1;
    }
    dst.append(src);
}

/// Drive `builders.len()` zones to completion over `cfg.workers`
/// threads and collect their reports (zone-id order).
///
/// Each builder runs on the worker thread that will own its zone;
/// builders are consumed in zone-id order, zone `z` going to worker
/// `z % workers`. The run is deterministic in everything except the
/// wall-clock fields of the report: same zones, same lookahead
/// matrix → same merged execution for any `workers`.
///
/// # Panics
///
/// Propagates the first worker panic, and panics — with a per-zone
/// deadline/window dump — if `cfg.max_rounds` is exceeded, a worker
/// emits an envelope violating the lookahead bound, or an envelope is
/// routed to a zone that does not exist or over a pair the matrix
/// declares silent.
pub fn run_cluster<W, F>(builders: Vec<F>, cfg: &ClusterConfig) -> ClusterReport<W::Report>
where
    W: ZoneWorker,
    F: FnOnce() -> W + Send,
{
    let zones = builders.len();
    assert!(zones > 0, "run_cluster needs at least one zone");
    let workers = cfg.workers.clamp(1, zones);
    let matrix = &cfg.matrix;
    assert_eq!(
        matrix.zones(),
        zones,
        "lookahead matrix is {}-zone but the cluster has {zones}",
        matrix.zones()
    );
    let dist = matrix.closure();
    let shared = Shared {
        mailboxes: (0..zones)
            .map(|_| Mailbox {
                queue: Mutex::new(Vec::new()),
                nonempty: AtomicBool::new(false),
            })
            .collect(),
        slots: (0..zones)
            .map(|_| Slot {
                t: AtomicU64::new(u64::MAX),
                e: AtomicU64::new(u64::MAX),
                seq: AtomicU64::new(0),
            })
            .collect(),
        barrier: Barrier::new(workers),
        abort: AtomicBool::new(false),
    };

    // Deal builders round-robin: worker w gets zones w, w+workers, …
    let mut decks: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
    for (z, b) in builders.into_iter().enumerate() {
        decks[z % workers].push((z, b));
    }

    let started = Instant::now();
    let exits = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for deck in decks {
            let shared = &shared;
            let dist = &dist;
            handles.push(scope.spawn(move || worker_loop(deck, shared, cfg, dist)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster worker thread itself panicked"))
            .collect::<Vec<_>>()
    });
    let wall_us = started.elapsed().as_micros() as u64;

    let mut reports: Vec<(usize, W::Report)> = Vec::with_capacity(zones);
    let mut round_busy: Vec<Vec<u64>> = Vec::with_capacity(workers);
    let mut worker_sync_us = Vec::with_capacity(workers);
    let mut envelopes_routed = 0u64;
    let mut envelope_allocs = 0u64;
    let mut round_limit = None;
    let mut panic_payload = None;
    for exit in exits {
        match exit {
            WorkerExit::Done(done) => {
                reports.extend(done.reports);
                round_busy.push(done.busy_per_round);
                worker_sync_us.push(done.sync_us);
                envelopes_routed += done.routed;
                envelope_allocs += done.allocs;
            }
            WorkerExit::Panicked(p) => panic_payload = panic_payload.or(Some(p)),
            WorkerExit::RoundLimit(diag) => round_limit = round_limit.or(Some(diag)),
            WorkerExit::Aborted => {}
        }
    }
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    if let Some(diag) = round_limit {
        panic!(
            "cluster exceeded {} barrier rounds — livelock (lookahead too small?); \
             per-zone state at the failing round:{diag}",
            cfg.max_rounds
        );
    }
    reports.sort_by_key(|&(z, _)| z);

    let rounds = round_busy.iter().map(|b| b.len()).max().unwrap_or(0) as u64;
    let worker_busy_us: Vec<u64> = round_busy.iter().map(|b| b.iter().sum()).collect();
    let critical_path_us = (0..rounds as usize)
        .map(|r| {
            round_busy
                .iter()
                .map(|b| b.get(r).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
        })
        .sum();
    ClusterReport {
        reports: reports.into_iter().map(|(_, r)| r).collect(),
        rounds,
        workers,
        wall_us,
        worker_busy_us,
        worker_sync_us,
        critical_path_us,
        envelopes_routed,
        envelope_allocs,
    }
}

/// Wait until `slot` has published round `round`. Spins briefly, then
/// yields — on an undersubscribed host the other worker needs the core
/// more than we need the latency.
fn wait_round(slot: &Slot, round: u64) {
    let mut spins = 0u32;
    while slot.seq.load(Ordering::Acquire) < round {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One owned zone's per-round cache: `(t, e)` are only recomputed when
/// `dirty` (the zone ran, or something was injected) — the idle fast
/// path republishes the cached pair without touching the worker.
struct Owned<W> {
    zone: usize,
    w: W,
    seq: u64,
    t: u64,
    e: u64,
    dirty: bool,
}

fn worker_loop<W, F>(
    deck: Vec<(usize, F)>,
    shared: &Shared<W::Msg>,
    cfg: &ClusterConfig,
    dist: &[u64],
) -> WorkerExit<W::Report>
where
    W: ZoneWorker,
    F: FnOnce() -> W,
{
    let zones = shared.slots.len();
    // Build the zone stacks on this thread — they never leave it.
    let mut owned: Vec<Owned<W>> = deck
        .into_iter()
        .map(|(z, b)| Owned {
            zone: z,
            w: b(),
            seq: 0,
            t: u64::MAX,
            e: u64::MAX,
            dirty: true,
        })
        .collect();
    let mut scratch: Vec<Envelope<W::Msg>> = Vec::new();
    let mut staging: Vec<Envelope<W::Msg>> = Vec::new();
    let mut route: Vec<Vec<Envelope<W::Msg>>> = (0..zones).map(|_| Vec::new()).collect();
    let mut t_all = vec![u64::MAX; zones];
    let mut e_all = vec![u64::MAX; zones];
    let mut w_all = vec![u64::MAX; zones];
    let mut busy_per_round: Vec<u64> = Vec::new();
    let mut sync_us = 0u64;
    let mut routed = 0u64;
    let mut allocs = 0u64;
    let mut rounds = 0u64;

    loop {
        let round = rounds + 1;

        // Phase 1: gather + inject + publish (T, E, round).
        let gather_start = Instant::now();
        let published = Cell::new(0usize);
        let step = catch_unwind(AssertUnwindSafe(|| {
            for (i, o) in owned.iter_mut().enumerate() {
                let mb = &shared.mailboxes[o.zone];
                if mb.nonempty.swap(false, Ordering::Relaxed) {
                    // The barrier separated every router from this
                    // gather, so the take sees the whole round.
                    std::mem::swap(&mut *mb.queue.lock().unwrap(), &mut scratch);
                    scratch.sort_by_key(Envelope::order_key);
                    for env in scratch.drain(..) {
                        o.w.inject(env);
                    }
                    o.dirty = true;
                }
                if o.dirty {
                    o.t = o.w.next_deadline_us().unwrap_or(u64::MAX);
                    o.e = o.w.next_emission_us().unwrap_or(u64::MAX);
                    debug_assert!(
                        o.e >= o.t || o.t == u64::MAX,
                        "zone {}: next_emission {} below next_deadline {}",
                        o.zone,
                        o.e,
                        o.t
                    );
                    o.dirty = false;
                }
                let slot = &shared.slots[o.zone];
                slot.t.store(o.t, Ordering::Relaxed);
                slot.e.store(o.e, Ordering::Relaxed);
                slot.seq.store(round, Ordering::Release);
                published.set(i + 1);
            }
        }));
        if step.is_err() {
            // Keep the protocol's shape: publish inert values for the
            // zones this worker didn't reach, so no peer spins forever,
            // then follow the same phase-2 decision everyone else makes.
            for o in owned.iter().skip(published.get()) {
                let slot = &shared.slots[o.zone];
                slot.t.store(u64::MAX, Ordering::Relaxed);
                slot.e.store(u64::MAX, Ordering::Relaxed);
                slot.seq.store(round, Ordering::Release);
            }
        }
        let mut busy = gather_start.elapsed().as_micros() as u64;

        // Phase 2: wait for every zone's publication, then make the
        // same global decisions from the same values.
        let sync_start = Instant::now();
        for (z, slot) in shared.slots.iter().enumerate() {
            wait_round(slot, round);
            t_all[z] = slot.t.load(Ordering::Relaxed);
            e_all[z] = slot.e.load(Ordering::Relaxed);
        }
        sync_us += sync_start.elapsed().as_micros() as u64;

        if t_all.iter().all(|&t| t == u64::MAX) {
            // Drained everywhere: every worker reads the same slots and
            // breaks in the same round, before the barrier.
            if let Err(p) = step {
                return WorkerExit::Panicked(p);
            }
            break;
        }
        for z in 0..zones {
            w_all[z] = (0..zones)
                .map(|j| e_all[j].saturating_add(dist[j * zones + z]))
                .min()
                .unwrap_or(u64::MAX);
        }

        // Phase 3: run each owned zone to its window, route outbound.
        let run_start = Instant::now();
        let step = match step {
            Err(p) => Err(p),
            Ok(()) => catch_unwind(AssertUnwindSafe(|| {
                for o in owned.iter_mut() {
                    let wz = w_all[o.zone];
                    // Idle fast path: nothing arrived and nothing is
                    // due inside the window — skip the drive and keep
                    // the cached (t, e) for next round's publish.
                    if o.t > wz || o.t == u64::MAX {
                        continue;
                    }
                    if wz == u64::MAX {
                        o.w.run_to_drain_us();
                    } else {
                        o.w.run_until_us(wz);
                    }
                    o.dirty = true;
                    o.w.drain_outbound(&mut staging);
                    for mut env in staging.drain(..) {
                        let dst = env.dst_zone as usize;
                        assert!(
                            dst < zones,
                            "zone {} routed an envelope to zone {dst}, but the cluster \
                             only has zones 0..{zones}; per-zone state:{}",
                            o.zone,
                            diag_table(&shared.slots, &w_all),
                        );
                        assert!(
                            cfg.matrix.get(o.zone as u32, env.dst_zone) != u64::MAX,
                            "zone {} routed an envelope to zone {dst}, but the lookahead \
                             matrix declares that pair silent; per-zone state:{}",
                            o.zone,
                            diag_table(&shared.slots, &w_all),
                        );
                        assert!(
                            env.deliver_at_us >= w_all[dst],
                            "zone {} emitted an envelope for t={} inside zone {dst}'s \
                             window {} — lookahead bound violated; per-zone state:{}",
                            o.zone,
                            env.deliver_at_us,
                            w_all[dst],
                            diag_table(&shared.slots, &w_all),
                        );
                        env.src_zone = o.zone as u32;
                        env.seq = o.seq;
                        o.seq += 1;
                        route[dst].push(env);
                        routed += 1;
                    }
                }
                // Batched delivery: one lock per destination per round.
                for (dst, buf) in route.iter_mut().enumerate() {
                    if buf.is_empty() {
                        continue;
                    }
                    let mb = &shared.mailboxes[dst];
                    append_counted(&mut mb.queue.lock().unwrap(), buf, &mut allocs);
                    mb.nonempty.store(true, Ordering::Relaxed);
                }
            })),
        };
        busy += run_start.elapsed().as_micros() as u64;
        busy_per_round.push(busy);
        rounds = round;
        if step.is_err() || rounds >= cfg.max_rounds {
            shared.abort.store(true, Ordering::SeqCst);
        }
        let bar_start = Instant::now();
        shared.barrier.wait();
        sync_us += bar_start.elapsed().as_micros() as u64;
        if shared.abort.load(Ordering::SeqCst) {
            return match step {
                Err(p) => WorkerExit::Panicked(p),
                Ok(()) if rounds >= cfg.max_rounds => {
                    WorkerExit::RoundLimit(diag_table(&shared.slots, &w_all))
                }
                Ok(()) => WorkerExit::Aborted,
            };
        }
    }

    let reports = owned.into_iter().map(|o| (o.zone, o.w.finish())).collect();
    WorkerExit::Done(WorkerDone {
        reports,
        busy_per_round,
        sync_us,
        routed,
        allocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// What a toy zone saw: every injection (deliver time + the zone
    /// clock at injection), every event it fired, and how many times
    /// the runner drove it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ToyReport {
        injected: Vec<(u64, u64)>,
        fired: Vec<u64>,
        drives: u64,
    }

    /// A toy shard: a clock, a local event heap, and a rule that every
    /// local event at `t` sends a ping to the next zone arriving at
    /// `t + latency`. Pings hop around the ring `hops` times total.
    struct ToyZone {
        zone: u32,
        zones: u32,
        latency_us: u64,
        clock: u64,
        // (fire_time, remaining_hops), min-heap.
        pending: BinaryHeap<Reverse<(u64, u32)>>,
        outbound: Vec<Envelope<(u64, u32)>>,
        injected: Vec<(u64, u64)>,
        fired: Vec<u64>,
        drives: u64,
    }

    impl ZoneWorker for ToyZone {
        type Msg = (u64, u32);
        type Report = ToyReport;

        fn inject(&mut self, env: Envelope<(u64, u32)>) {
            self.injected.push((env.deliver_at_us, self.clock));
            self.pending.push(Reverse((env.deliver_at_us, env.body.1)));
        }

        fn next_deadline_us(&mut self) -> Option<u64> {
            self.pending.peek().map(|Reverse((t, _))| *t)
        }

        fn run_until_us(&mut self, deadline_us: u64) {
            self.drives += 1;
            while let Some(&Reverse((t, hops))) = self.pending.peek() {
                if t > deadline_us {
                    break;
                }
                self.pending.pop();
                self.clock = t;
                self.fired.push(t);
                if hops > 0 {
                    let dst = (self.zone + 1) % self.zones;
                    self.outbound
                        .push(Envelope::to(dst, t + self.latency_us, (t, hops - 1)));
                }
            }
            if deadline_us != u64::MAX {
                self.clock = deadline_us;
            }
        }

        fn drain_outbound(&mut self, out: &mut Vec<Envelope<(u64, u32)>>) {
            out.append(&mut self.outbound);
        }

        fn finish(self) -> ToyReport {
            ToyReport {
                injected: self.injected,
                fired: self.fired,
                drives: self.drives,
            }
        }
    }

    fn ring(zones: u32, latency_us: u64, hops: u32) -> Vec<impl FnOnce() -> ToyZone + Send> {
        (0..zones)
            .map(move |zone| {
                move || {
                    let mut pending = BinaryHeap::new();
                    if zone == 0 {
                        // Seed event at t=100 in zone 0.
                        pending.push(Reverse((100u64, hops)));
                    }
                    ToyZone {
                        zone,
                        zones,
                        latency_us,
                        clock: 0,
                        pending,
                        outbound: Vec::new(),
                        injected: Vec::new(),
                        fired: Vec::new(),
                        drives: 0,
                    }
                }
            })
            .collect()
    }

    fn ring_cfg(workers: usize, zones: u32, max_rounds: u64) -> ClusterConfig {
        ClusterConfig {
            workers,
            max_rounds,
            matrix: LookaheadMatrix::uniform(zones as usize, 500),
        }
    }

    fn run_ring(workers: usize, zones: u32) -> Vec<ToyReport> {
        run_cluster(ring(zones, 500, 10), &ring_cfg(workers, zones, 10_000)).reports
    }

    #[test]
    fn ring_is_worker_count_invariant() {
        let one = run_ring(1, 4);
        for workers in [2, 3, 4, 8] {
            assert_eq!(run_ring(workers, 4), one, "workers={workers} diverged");
        }
        // The ping actually made its hops: zone 1 heard it at 600, 2600, …
        assert_eq!(one[1].injected[0].0, 600);
        assert_eq!(one[2].injected[0].0, 1100);
    }

    #[test]
    fn ring_matches_its_closed_form() {
        // The seed fires in zone 0 at t=100 with 10 hops left; hop k
        // fires at 100 + 500·k in zone k mod 4, and every hop after the
        // seed arrives by injection at exactly that instant.
        let reports = run_ring(2, 4);
        for (z, r) in reports.iter().enumerate() {
            let hops: Vec<u64> = (0..=10u64).filter(|k| k % 4 == z as u64).collect();
            let fired: Vec<u64> = hops.iter().map(|k| 100 + 500 * k).collect();
            let delivered: Vec<u64> = hops
                .iter()
                .filter(|&&k| k > 0)
                .map(|k| 100 + 500 * k)
                .collect();
            assert_eq!(r.fired, fired, "zone {z} fire times");
            let deliver: Vec<u64> = r.injected.iter().map(|&(d, _)| d).collect();
            assert_eq!(deliver, delivered, "zone {z} deliveries");
        }
    }

    #[test]
    fn barrier_edge_delivery_lands_on_the_correct_side() {
        // Zone 0's seed fires at t=100 and its ping to zone 1 is timed
        // to land at t = 100 + 500 = 600 — exactly on the edge of zone
        // 1's first window. The delivery time is preserved and never
        // lands in the receiver's past, though an idle receiver's clock
        // may lag the edge (it skipped the drive entirely).
        let reports = run_cluster(ring(2, 500, 1), &ring_cfg(2, 2, 1_000)).reports;
        let (deliver_at, clock_at_injection) = reports[1].injected[0];
        assert_eq!(deliver_at, 600, "delivery time must be preserved exactly");
        assert!(
            clock_at_injection <= 600,
            "injection must never land in the receiver's past"
        );
        assert_eq!(reports[1].fired, vec![600], "the ping fires at 600");
    }

    #[test]
    fn drained_cluster_terminates_and_reports_in_zone_order() {
        let report = run_cluster(ring(3, 500, 5), &ring_cfg(1, 3, 10_000));
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.workers, 1);
        assert!(report.rounds > 0);
        assert_eq!(report.envelopes_routed, 5);
        // Zone order: zone 0 only hears hops that wrapped the ring.
        assert!(report.reports[0].injected.iter().all(|&(t, _)| t > 1000));
    }

    /// A zone with dense local events whose only cross-zone emission is
    /// far in the future — the case adaptive windows exist for.
    struct EmitAt {
        pending: BinaryHeap<Reverse<u64>>,
        /// (fire_time, dst, latency) — sorted; popped as they execute.
        emissions: Vec<(u64, u32, u64)>,
        clock: u64,
        outbound: Vec<Envelope<u64>>,
        injected: Vec<(u64, u64)>,
        fired: Vec<u64>,
        drives: u64,
    }

    impl EmitAt {
        fn build(locals: Vec<u64>, emissions: Vec<(u64, u32, u64)>) -> EmitAt {
            let mut pending: BinaryHeap<Reverse<u64>> = locals.into_iter().map(Reverse).collect();
            for &(t, _, _) in &emissions {
                pending.push(Reverse(t));
            }
            EmitAt {
                pending,
                emissions,
                clock: 0,
                outbound: Vec::new(),
                injected: Vec::new(),
                fired: Vec::new(),
                drives: 0,
            }
        }
    }

    impl ZoneWorker for EmitAt {
        type Msg = u64;
        type Report = ToyReport;

        fn inject(&mut self, env: Envelope<u64>) {
            self.injected.push((env.deliver_at_us, self.clock));
            self.pending.push(Reverse(env.deliver_at_us));
        }

        fn next_deadline_us(&mut self) -> Option<u64> {
            self.pending.peek().map(|Reverse(t)| *t)
        }

        fn next_emission_us(&mut self) -> Option<u64> {
            self.emissions.first().map(|&(t, _, _)| t)
        }

        fn run_until_us(&mut self, deadline_us: u64) {
            self.drives += 1;
            while let Some(&Reverse(t)) = self.pending.peek() {
                if t > deadline_us {
                    break;
                }
                self.pending.pop();
                self.clock = t;
                self.fired.push(t);
                while let Some(&(et, dst, lat)) = self.emissions.first() {
                    if et != t {
                        break;
                    }
                    self.emissions.remove(0);
                    self.outbound.push(Envelope::to(dst, t + lat, t));
                }
            }
            if deadline_us != u64::MAX {
                self.clock = deadline_us;
            }
        }

        fn drain_outbound(&mut self, out: &mut Vec<Envelope<u64>>) {
            out.append(&mut self.outbound);
        }

        fn finish(self) -> ToyReport {
            ToyReport {
                injected: self.injected,
                fired: self.fired,
                drives: self.drives,
            }
        }
    }

    fn stretch_builders() -> Vec<Box<dyn FnOnce() -> EmitAt + Send>> {
        // Zone 0: locals every 10 µs from 100 to 9000, one emission to
        // zone 1 at t=9000 (latency 500). Zone 1: one emission back to
        // zone 0 at t=20000.
        vec![
            Box::new(|| EmitAt::build((10..=900).map(|k| k * 10).collect(), vec![(9_000, 1, 500)])),
            Box::new(|| EmitAt::build(vec![20_000], vec![(20_000, 0, 500)])),
        ]
    }

    fn stretch_cfg(workers: usize) -> ClusterConfig {
        let mut matrix = LookaheadMatrix::disconnected(2);
        matrix.set(0, 1, 500);
        matrix.set(1, 0, 500);
        ClusterConfig {
            workers,
            max_rounds: 10_000,
            matrix,
        }
    }

    #[test]
    fn emission_aware_windows_collapse_quiet_stretches() {
        let one = run_cluster(stretch_builders(), &stretch_cfg(1));
        // The whole simulation: each emission is also a local event at
        // its own instant (9000 and 20000 fire twice), and each ping
        // lands 500 µs after it left.
        let mut zone0: Vec<u64> = (10..=900).map(|k| k * 10).collect();
        zone0.extend([9_000, 20_500]);
        assert_eq!(one.reports[0].fired, zone0);
        assert_eq!(one.reports[1].fired, vec![9_500, 20_000, 20_000]);
        // A 500 µs lookahead over 20 ms of simulated time, yet each
        // quiet stretch is leapt in one window.
        assert!(
            one.rounds <= 5,
            "emission-aware windows should collapse the run, got {}",
            one.rounds
        );
        // And worker count still does not matter.
        let two = run_cluster(stretch_builders(), &stretch_cfg(2));
        assert_eq!(one.reports, two.reports);
        assert_eq!(one.rounds, two.rounds);
    }

    #[test]
    fn idle_zones_skip_the_engine_entirely() {
        // Chain 0 → 1 → 2; zone 2 additionally has no events of its
        // own until the ping arrives, and nothing ever flows 2 → 0.
        let builders: Vec<Box<dyn FnOnce() -> EmitAt + Send>> = vec![
            Box::new(|| EmitAt::build(vec![100], vec![(100, 1, 500)])),
            Box::new(|| EmitAt::build(vec![], vec![(600, 2, 500)])),
            Box::new(|| EmitAt::build(vec![], vec![])),
        ];
        let mut matrix = LookaheadMatrix::disconnected(3);
        matrix.set(0, 1, 500);
        matrix.set(1, 2, 500);
        let cfg = ClusterConfig {
            workers: 2,
            max_rounds: 1_000,
            matrix,
        };
        let report = run_cluster(builders, &cfg);
        // Zone 2 fires the relayed ping at 1100.
        assert_eq!(report.reports[2].fired, vec![1_100]);
        // Zones 0 and 2 are driven exactly once; zone 1 twice (its own
        // emission window, then the injected ping) — never for an idle
        // round.
        let drives: Vec<u64> = report.reports.iter().map(|r| r.drives).collect();
        assert_eq!(drives, vec![1, 2, 1], "idle zones must not be driven");
    }

    #[test]
    fn routing_over_a_silent_pair_is_caught() {
        let builders: Vec<Box<dyn FnOnce() -> EmitAt + Send>> = vec![
            Box::new(|| EmitAt::build(vec![100], vec![(100, 1, 500)])),
            Box::new(|| EmitAt::build(vec![], vec![])),
        ];
        let cfg = ClusterConfig {
            workers: 1,
            max_rounds: 100,
            // No 0 → 1 edge: the emission must panic the run.
            matrix: LookaheadMatrix::disconnected(2),
        };
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_cluster(builders, &cfg)))
            .expect_err("routing over a silent pair must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("silent"), "unexpected message: {msg}");
        assert!(
            msg.contains("next_deadline"),
            "diagnostic dump missing: {msg}"
        );
    }

    #[test]
    #[should_panic(
        expected = "zone 0 routed an envelope to zone 2, but the cluster only has zones 0..2"
    )]
    fn routing_to_a_missing_zone_is_caught() {
        let builders: Vec<Box<dyn FnOnce() -> EmitAt + Send>> = vec![
            Box::new(|| EmitAt::build(vec![100], vec![(100, 2, 500)])),
            Box::new(|| EmitAt::build(vec![], vec![])),
        ];
        run_cluster(builders, &ring_cfg(1, 2, 100));
    }

    #[test]
    #[should_panic(expected = "lookahead matrix pair 0 → 5 is out of range for 4 zones")]
    fn matrix_set_rejects_an_out_of_range_zone() {
        // 0·4 + 5 would otherwise write the (1, 1) entry.
        LookaheadMatrix::disconnected(4).set(0, 5, 10);
    }

    #[test]
    #[should_panic(expected = "lookahead matrix pair 4 → 0 is out of range for 4 zones")]
    fn matrix_get_rejects_an_out_of_range_zone() {
        LookaheadMatrix::uniform(4, 10).get(4, 0);
    }

    #[test]
    fn lookahead_violation_is_caught() {
        struct Cheater {
            sent: bool,
            pending: bool,
        }
        impl ZoneWorker for Cheater {
            type Msg = ();
            type Report = ();
            fn inject(&mut self, _env: Envelope<()>) {}
            fn next_deadline_us(&mut self) -> Option<u64> {
                self.pending.then_some(100)
            }
            fn run_until_us(&mut self, _deadline_us: u64) {
                self.pending = false;
            }
            fn drain_outbound(&mut self, out: &mut Vec<Envelope<()>>) {
                if !self.sent {
                    self.sent = true;
                    // Claims delivery at t=10 inside the window.
                    out.push(Envelope::to(1, 10, ()));
                }
            }
            fn finish(self) {}
        }
        let builders: Vec<Box<dyn FnOnce() -> Cheater + Send>> = vec![
            Box::new(|| Cheater {
                sent: false,
                pending: true,
            }),
            Box::new(|| Cheater {
                sent: true,
                pending: false,
            }),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cluster(builders, &ring_cfg(2, 2, 100))
        }))
        .expect_err("lookahead violation must panic the run");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(
            msg.contains("lookahead bound violated"),
            "unexpected message: {msg}"
        );
        assert!(
            msg.contains("next_deadline"),
            "per-zone diagnostic dump missing from: {msg}"
        );
    }

    #[test]
    fn round_limit_aborts_with_a_diagnostic_dump() {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cluster(ring(2, 500, 1_000), &ring_cfg(2, 2, 3))
        }))
        .expect_err("round cap must abort the run");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("livelock"), "unexpected message: {msg}");
        assert!(
            msg.contains("next_deadline"),
            "per-zone diagnostic dump missing from: {msg}"
        );
    }

    #[test]
    fn min_plus_closure_bounds_relayed_influence() {
        // 0 → 1 (10) and 1 → 2 (20): influence 0 → 2 needs 30, and the
        // diagonal is the shortest cycle, not zero.
        let mut m = LookaheadMatrix::disconnected(3);
        m.set(0, 1, 10);
        m.set(1, 2, 20);
        m.set(2, 0, 5);
        let d = m.closure();
        assert_eq!(d[2], 30, "0→2 relays through 1");
        assert_eq!(d[0], 35, "0→0 is the full cycle");
        assert_eq!(d[3], 25, "1→0 relays through 2");
    }
}
