//! A counting global allocator for the benchmark binary.
//!
//! It measures heap use (live bytes, peak, allocation count); it fixes
//! nothing. Counting is off until [`enable`] is called, and then costs
//! a few relaxed loads and stores per allocation. The counters are
//! updated with plain load/store pairs, not read-modify-write, so they
//! are exact only while one thread allocates: the benchmark enables
//! counting on the single-threaded workloads and leaves it off on the
//! sharded one, whose worker threads would race (and contend) on them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus counters. Install it with
/// `#[global_allocator]` in a binary; libraries only read it.
pub struct CountingAlloc;

fn grew(bytes: u64) {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrank(bytes: u64) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(bytes), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrank(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        p
    }
}

/// Start counting. Memory allocated before this call is freed without
/// being subtracted (`LIVE` saturates at zero), so enable it once, before
/// the measured work.
pub fn enable() {
    ON.store(true, Relaxed);
}

/// Whether counting is on.
pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapSnapshot {
    /// Allocations (including reallocations) so far.
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` so far.
    pub peak: u64,
}

/// Read the counters.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}
