//! Memory follows the live city, not its history: a run four times as
//! long at the same concurrency (four times the rooms over four times
//! the arrival window) must not need four times the heap. Released VC
//! endpoints, multicast forests and emptied room maps are given back as
//! the rooms close.
//!
//! A test binary of its own: the counting allocator below sees every
//! allocation in the process, so no other test may run beside it.

use cm_bench::city_run::run_city_schedule;
use cm_testkit::{CityConfig, CitySchedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a live-bytes counter and its high-water mark.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap above the starting level while the flat city `cfg` runs.
fn peak_heap_of(cfg: &CityConfig) -> usize {
    let schedule = CitySchedule::generate(cfg);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let (stats, engine, obs) = run_city_schedule(cfg, schedule, None);
    assert!(stats.joins_ok > 0, "the city admitted nobody");
    drop((engine, obs));
    PEAK.load(Relaxed) - before
}

#[test]
fn four_times_the_rooms_at_equal_concurrency_keep_the_heap_flat() {
    let base = CityConfig::smoke(7);
    let long = CityConfig {
        rooms: base.rooms * 4,
        arrival_window_ms: base.arrival_window_ms * 4,
        ..base.clone()
    };
    let base_peak = peak_heap_of(&base);
    let long_peak = peak_heap_of(&long);
    let ratio = long_peak as f64 / base_peak as f64;
    println!("peak heap: base {base_peak} B, 4x run {long_peak} B ({ratio:.2}x)");
    assert!(
        ratio <= 1.5,
        "peak heap grew {ratio:.2}x over a 4x-longer run \
         ({base_peak} B -> {long_peak} B): memory tracks history, not live rooms"
    );
}
