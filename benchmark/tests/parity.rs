//! Replay parity: the benchmark's flat replayer runs the same
//! simulation as the trajectory's flat executor (`cm_bench::city_run`),
//! so `city_churn` stays comparable with every city number before it.

use cm_bench::city_run::run_city_schedule;
use cm_benchmark::flat::{build_world, replay};
use cm_benchmark::probe::{Mode, Probe};
use cm_testkit::{CityConfig, CitySchedule};
use std::rc::Rc;

fn assert_parity(cfg: &CityConfig, mode: Mode) {
    let schedule = CitySchedule::generate(cfg);
    let (want, _, _) = run_city_schedule(cfg, schedule.clone(), None);
    let world = build_world(cfg, None);
    let (got, _) = replay(&world, schedule, &Rc::new(Probe::new(mode, cfg.seed)));
    assert_eq!(
        world.engine.executed(),
        want.events_executed,
        "events_executed"
    );
    assert_eq!(got.joins_ok, want.joins_ok, "joins_ok");
    assert_eq!(got.osdus_delivered, want.osdus_delivered, "osdus_delivered");
    assert_eq!(
        world.engine.now().as_micros() / 1_000,
        want.sim_ms,
        "sim_ms"
    );
    assert_eq!(got.osdus_written, want.osdus_written, "osdus_written");
    assert_eq!(got.rooms_opened, want.rooms_opened, "rooms_opened");
}

#[test]
fn smoke_city_matches_the_flat_executor() {
    assert_parity(&CityConfig::smoke(7), Mode::Plain);
}

#[test]
fn timing_calls_does_not_change_the_simulation() {
    assert_parity(&CityConfig::smoke(7), Mode::Layers);
    assert_parity(&CityConfig::smoke(11), Mode::Traced);
}

#[test]
fn city_10k_seed_7_matches_the_flat_executor() {
    assert_parity(&CityConfig::city_10k(7), Mode::Plain);
}
