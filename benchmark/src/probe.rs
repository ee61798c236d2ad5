//! The benchmark's own instrumentation: host-time samples and spans
//! around every call it makes into a layer, and around every callback
//! the engine makes into the benchmark.
//!
//! Nothing here runs inside the program; each span brackets a public
//! call from outside. A span's self time is its duration minus the part
//! its child spans cover, so `engine.run`'s self time is the engine and
//! the layers it dispatches to, without the benchmark's callbacks.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// How much a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end run: no per-call timing, no telemetry.
    Plain,
    /// Per-layer run: host time around every layer call, telemetry off.
    Layers,
    /// Traced run: as `Layers`, plus the program's telemetry and cm-obs,
    /// plus the span log written out as a Chrome trace.
    Traced,
}

impl Mode {
    /// Parse the command-line spelling.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "plain" => Some(Mode::Plain),
            "layers" => Some(Mode::Layers),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    /// True when calls are timed.
    pub fn timed(self) -> bool {
        self != Mode::Plain
    }

    /// True when the program's telemetry and cm-obs are on.
    pub fn traced(self) -> bool {
        self == Mode::Traced
    }
}

/// A kind of timed call. Each keeps its own sample list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Session::create_room`.
    CreateRoom,
    /// `Room::join`.
    Join,
    /// `Room::publish`.
    Publish,
    /// `Room::leave`.
    Leave,
    /// `TransportService::write_osdu`.
    WriteOsdu,
    /// `Hlo::orchestrate_and_start`.
    OrchStart,
    /// A member's `on_media` (the benchmark's own bookkeeping).
    Member,
    /// Any other engine callback into the benchmark.
    Callback,
}

const OPS: usize = 8;

impl Op {
    fn idx(self) -> usize {
        self as usize
    }

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Op::CreateRoom => "session.create_room",
            Op::Join => "session.join",
            Op::Publish => "session.publish",
            Op::Leave => "session.leave",
            Op::WriteOsdu => "transport.write_osdu",
            Op::OrchStart => "orch.orchestrate_and_start",
            Op::Member => "member.on_media",
            Op::Callback => "bench.callback",
        }
    }
}

/// Spans kept in memory at most; later ones are timed but not logged.
pub const SPAN_CAP: usize = 100_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-call host-time samples and (in traced mode) the span log.
pub struct Probe {
    mode: Mode,
    /// Identifies the run in the span log (the workload seed).
    run_id: u64,
    origin: Instant,
    samples: [RefCell<Vec<u32>>; OPS],
    totals: [Cell<u64>; OPS],
    /// Nesting depth of engine callbacks into the benchmark.
    depth: Cell<u32>,
    /// Host time spent inside outermost benchmark callbacks.
    callback_ns: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    /// Open span stack (indices into `spans`, `u32::MAX` = not logged).
    open: RefCell<Vec<u32>>,
}

impl Probe {
    /// A probe for one run, identified in the span log by `run_id`.
    pub fn new(mode: Mode, run_id: u64) -> Probe {
        Probe {
            mode,
            run_id,
            origin: Instant::now(),
            samples: Default::default(),
            totals: Default::default(),
            depth: Cell::new(0),
            callback_ns: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// The run's mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (traced mode only); returns its start time.
    fn enter(&self, name: &'static str) -> u64 {
        let start = self.now_ns();
        if self.mode.traced() {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let id = if spans.len() < SPAN_CAP {
                spans.push(Span {
                    name,
                    start_ns: start,
                    end_ns: start,
                    parent: open.last().copied().unwrap_or(u32::MAX),
                });
                (spans.len() - 1) as u32
            } else {
                u32::MAX
            };
            open.push(id);
        }
        start
    }

    /// Close the innermost span; returns its duration.
    fn exit(&self, start: u64) -> u64 {
        let end = self.now_ns();
        if self.mode.traced() {
            let id = self.open.borrow_mut().pop().expect("span stack balanced");
            if let Some(s) = self.spans.borrow_mut().get_mut(id as usize) {
                s.end_ns = end;
            }
        }
        end - start
    }

    /// Run `f` as one timed call of `op` (untimed in plain mode).
    #[inline]
    pub fn call<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.mode.timed() {
            return f();
        }
        let start = self.enter(op.name());
        let r = f();
        let dt = self.exit(start);
        let i = op.idx();
        self.samples[i]
            .borrow_mut()
            .push(dt.min(u32::MAX as u64) as u32);
        self.totals[i].set(self.totals[i].get() + dt);
        r
    }

    /// Run `f` as a callback from the engine into the benchmark. Time
    /// spent in outermost callbacks (layer calls made from them
    /// included) is what `engine.self_ms` subtracts.
    #[inline]
    pub fn callback<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.mode.timed() {
            return f();
        }
        let start = self.enter(op.name());
        self.depth.set(self.depth.get() + 1);
        let r = f();
        self.depth.set(self.depth.get() - 1);
        let dt = self.exit(start);
        if self.depth.get() == 0 {
            self.callback_ns.set(self.callback_ns.get() + dt);
        }
        let i = op.idx();
        self.totals[i].set(self.totals[i].get() + dt);
        r
    }

    /// Run `f` as a named top-level span (set-up phases, the engine run).
    /// Returns its result and host duration in nanoseconds; the duration
    /// is measured in every mode.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.enter(name);
        let r = f();
        (r, self.exit(start))
    }

    /// Sorted host-time samples of `op`, ns.
    pub fn sorted(&self, op: Op) -> Vec<u32> {
        let mut v = self.samples[op.idx()].borrow().clone();
        v.sort_unstable();
        v
    }

    /// Total host time inside `op`, ns.
    pub fn total_ns(&self, op: Op) -> u64 {
        self.totals[op.idx()].get()
    }

    /// Host time inside outermost benchmark callbacks, ns.
    pub fn callback_ns(&self) -> u64 {
        self.callback_ns.get()
    }

    /// Free the samples and the span log. Handles to the probe live on
    /// in the room members a leaky world keeps, so the buffers are freed
    /// here rather than with the last handle.
    pub fn release(&self) {
        for s in &self.samples {
            s.take();
        }
        self.spans.take();
    }

    /// Spans in the log (at most [`SPAN_CAP`]).
    pub fn spans_logged(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The span log as a Chrome trace (JSON array of complete events;
    /// `pid` is the run id, `args` carry span id and parent id).
    pub fn chrome_trace(&self) -> String {
        let run_id = self.run_id;
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{run_id},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile<T: Copy + Into<u64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into() as f64
}
