//! Zone-sharded cluster integration: determinism across worker counts,
//! the flat-in-membership wide-area cost (DESIGN.md §11) and the pinned
//! flat smoke surface.

use cm_bench::city_run::run_city_schedule;
use cm_bench::city_zone::run_city_cluster;
use cm_obs::render_report;
use cm_testkit::{CityConfig, CitySchedule, MediaMix};

/// The tentpole determinism claim, end to end: the same seeded workload
/// run on 1 worker thread and on 4 produces byte-identical merged
/// telemetry and the same final simulated time. The logical partition
/// (`cfg.zones = 4`) is part of the workload; only the thread count
/// changes.
#[test]
fn one_worker_and_four_workers_merge_to_identical_bytes() {
    let cfg = CityConfig {
        rooms: 16,
        arrival_window_ms: 10_000,
        ..CityConfig::smoke(42)
    };
    let one = run_city_cluster(&cfg, 1, Some(1 << 16));
    let four = run_city_cluster(&cfg, 4, Some(1 << 16));
    assert_eq!(one.workers, 1);
    assert_eq!(four.workers, 4);
    assert_eq!(one.agg.sim_ms, four.agg.sim_ms, "final sim time");
    assert_eq!(one.agg.events_executed, four.agg.events_executed);
    assert_eq!(one.agg.osdus_delivered, four.agg.osdus_delivered);
    assert_eq!(one.wan_msgs, four.wan_msgs);
    let a = one.merged_jsonl.expect("telemetry enabled");
    let b = four.merged_jsonl.expect("telemetry enabled");
    assert!(!a.is_empty());
    assert_eq!(a, b, "merged telemetry must be byte-identical");
    // And the cross-zone machinery actually ran (the claim is not
    // vacuous): mirrors opened and media crossed the wide area.
    assert!(four.wan_bytes > 0, "wide-area media flowed");
    assert!(
        four.per_zone.iter().any(|z| z.mirrors_opened > 0),
        "guest zones opened mirrors"
    );
}

/// Inter-zone byte count for a cross-zone room is flat in membership:
/// the relay sends one envelope per guest *zone* per OSDU, and the
/// mirror fans out locally. Tripling or quintupling the room's members
/// must not change what crosses the wide area.
#[test]
fn cross_zone_bytes_are_flat_in_membership() {
    let run = |members: u32| {
        let cfg = CityConfig {
            rooms: 1,
            nodes: 16,
            members_min: members,
            members_max: members,
            lifetime_min_ms: 10_000,
            lifetime_max_ms: 10_000,
            churn_percent: 0,
            writes_per_stream: 8,
            // Audio only, so the OSDU size cannot vary between configs.
            mix: MediaMix {
                audio: 1,
                text: 0,
                video: 0,
            },
            zones: 3,
            cross_zone_percent: 100,
            ..CityConfig::smoke(11)
        };
        let c = run_city_cluster(&cfg, 3, None);
        assert_eq!(c.agg.joins_denied, 0);
        assert!(c.wan_bytes > 0, "the room must actually span zones");
        (c.wan_msgs, c.wan_bytes)
    };
    let small = run(3);
    let medium = run(9);
    let large = run(15);
    assert_eq!(small, medium, "3 vs 9 members changed wide-area traffic");
    assert_eq!(small, large, "3 vs 15 members changed wide-area traffic");
}

/// 64-bit FNV-1a, the fingerprint `room_scale --metrics` prints.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The flat smoke city (seed 7) is a pinned deterministic surface: its
/// counters, telemetry JSONL and rendered `cm-obs/v1` report may only
/// change on purpose. The zone executor at `cfg.zones = 1`, run through
/// the cluster runner on one worker, is the same simulation byte for
/// byte and drains in a single round.
#[test]
fn flat_smoke_surface_is_pinned_and_matches_one_zone_cluster() {
    let cfg = CityConfig::smoke(7);
    let schedule = CitySchedule::generate(&cfg);
    let (flat, engine, obs) = run_city_schedule(&cfg, schedule, Some(1 << 20));
    assert_eq!(flat.events_executed, 4127);
    assert_eq!(flat.joins_ok, 261);
    assert_eq!(flat.osdus_written, 300);
    assert_eq!(flat.osdus_delivered, 132);
    assert_eq!(flat.sim_ms, 33031);
    let tel = engine.telemetry();
    let jsonl = tel.export_jsonl();
    let report = render_report(&[obs.finish_report(0, engine.now().as_micros(), tel.overflow())]);
    assert_eq!(fnv64(&jsonl), 0xde22_7350_ae47_fb10, "flat telemetry bytes");
    assert_eq!(
        fnv64(&report),
        0xf042_5ba9_d4de_6882,
        "flat cm-obs/v1 report"
    );

    let one_zone = CityConfig { zones: 1, ..cfg };
    let c = run_city_cluster(&one_zone, 1, Some(1 << 20));
    assert_eq!(c.rounds, 1, "one zone drains in a single round");
    assert_eq!(c.per_zone.len(), 1);
    let z = &c.per_zone[0];
    assert_eq!(z.stats.events_executed, flat.events_executed);
    assert_eq!(z.stats.joins_ok, flat.joins_ok);
    assert_eq!(z.stats.osdus_written, flat.osdus_written);
    assert_eq!(z.stats.bytes_written, flat.bytes_written);
    assert_eq!(z.stats.osdus_delivered, flat.osdus_delivered);
    assert_eq!(z.stats.bytes_delivered, flat.bytes_delivered);
    assert_eq!(z.stats.sim_ms, flat.sim_ms);
    assert_eq!(z.telemetry_jsonl.as_deref(), Some(jsonl.as_str()));
    let zr = z.obs_report.clone().expect("tracing rides with telemetry");
    assert_eq!(render_report(&[zr]), report);
}
