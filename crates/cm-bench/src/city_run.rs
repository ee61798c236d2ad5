//! The flat city run: one [`cm_testkit::CitySchedule`] replayed on one
//! engine. Flat is the zone executor's one-zone case — a
//! [`ZoneCityWorker`] built from a single-zone [`ZonePlan`] (which is
//! the flat schedule itself) and drained on the calling thread, with no
//! cluster runner in between. Every counter therefore has one
//! definition, shared with the sharded run.

use crate::city_zone::ZoneCityWorker;
use cm_cluster::ZoneWorker;
use cm_testkit::{CityConfig, CitySchedule, ZonePlan};
use netsim::Engine;
use std::sync::Arc;

/// Counters collected over one city run.
#[derive(Debug, Clone, Default)]
pub struct CityStats {
    /// Rooms opened.
    pub rooms_opened: u64,
    /// Joins confirmed by admission.
    pub joins_ok: u64,
    /// Joins denied (capacity/QoS) — expected to be zero on clean runs.
    pub joins_denied: u64,
    /// Streams successfully published.
    pub published: u64,
    /// OSDUs written by publishers.
    pub osdus_written: u64,
    /// Bytes written by publishers.
    pub bytes_written: u64,
    /// OSDUs delivered to member handlers.
    pub osdus_delivered: u64,
    /// Bytes delivered to member handlers.
    pub bytes_delivered: u64,
    /// Engine events executed over the whole run.
    pub events_executed: u64,
    /// Final simulated time, in milliseconds.
    pub sim_ms: u64,
}

/// Build the star world, replay `schedule` to completion on the calling
/// thread, and return the counters together with the engine and the
/// causal-trace registry (so callers can export telemetry and the
/// attribution report after the run). Telemetry is enabled with
/// `telemetry_capacity` events when it is `Some`; tracing rides with it.
/// `cfg.zones` is ignored: the flat run is always one zone.
pub fn run_city_schedule(
    cfg: &CityConfig,
    schedule: CitySchedule,
    telemetry_capacity: Option<usize>,
) -> (CityStats, Engine, cm_obs::Obs) {
    let cfg = CityConfig {
        zones: 1,
        ..cfg.clone()
    };
    let plan = Arc::new(ZonePlan::partition(&cfg, &schedule));
    drop(schedule);
    let mut worker = ZoneCityWorker::build(&cfg, plan, 0, telemetry_capacity);
    worker.run_to_drain_us();
    worker.into_flat()
}
