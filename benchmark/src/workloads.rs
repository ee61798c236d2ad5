//! The three workloads. Each runs once, measures, checks its output and
//! returns a [`RunReport`]; `run.py` runs each in a fresh process and
//! takes medians across processes.

use crate::alloc;
use crate::film;
use crate::flat::{self, Observed};
use crate::probe::{percentile, Mode, Op, Probe};
use crate::report::{peak_rss_mb, Fnv, RunReport};
use cm_bench::city_zone::run_city_cluster_mode;
use cm_cluster::RoundMode;
use cm_obs::{render_report, ObsZoneReport, SegClass};
use cm_telemetry::Telemetry;
use cm_testkit::{CityConfig, CitySchedule};
use std::path::Path;
use std::rc::Rc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["city_churn", "city_sharded", "lip_sync"];

/// Flight-recorder ring capacity of a traced run, per engine. Counters
/// and cm-obs are complete regardless; only the event ring wraps.
pub const TELEMETRY_CAP: usize = 1 << 16;

/// Worker threads of the sharded workload (the host has two cores).
pub const SHARD_WORKERS: usize = 2;

/// The telemetry counters a traced run reports, as `tel.<name>`.
pub const TEL_COUNTERS: [(&str, &str); 8] = [
    ("net.pkt.delivered", "tel.net.pkt.delivered"),
    ("net.pkt.drop", "tel.net.pkt.drop"),
    ("vc.connect.admit", "tel.vc.connect.admit"),
    ("vc.credit.stall", "tel.vc.credit.stall"),
    ("vc.rto", "tel.vc.rto"),
    ("hlo.miss", "tel.hlo.miss"),
    ("hlo.escalate", "tel.hlo.escalate"),
    ("engine.events_drained", "tel.engine.events_drained"),
];

/// Run `workload` once. `out` receives the traced run's artifacts.
pub fn run(workload: &str, seed: u64, mode: Mode, out: &Path) -> Result<RunReport, String> {
    match workload {
        "city_churn" => Ok(city_churn(seed, mode, out)),
        "city_sharded" => Ok(city_sharded(seed, mode, out)),
        "lip_sync" => Ok(lip_sync(seed, mode, out)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Host-time metrics of a timed op: p50/p99 in `unit_ns` units.
fn op_percentiles(
    r: &mut RunReport,
    probe: &Probe,
    op: Op,
    names: (&'static str, &'static str),
    unit_ns: f64,
) {
    let s = probe.sorted(op);
    r.set(names.0, percentile(&s, 50.0) / unit_ns);
    r.set(names.1, percentile(&s, 99.0) / unit_ns);
}

/// The traced-run metrics from one or more zones' cm-obs reports, and
/// the report itself written to `out/obs.json`.
fn obs_metrics(r: &mut RunReport, zones: &[ObsZoneReport], out: &Path) {
    let mut seg = [0u64; 7];
    let (mut spans, mut total_us) = (0u64, 0u64);
    for z in zones {
        for s in &z.streams {
            for (i, sum) in seg.iter_mut().enumerate() {
                *sum += s.segs[i].sum_us;
            }
            total_us += s.total.sum_us;
        }
        spans += z.spans;
    }
    r.set("obs.spans", spans as f64);
    r.set(
        "obs.misses",
        zones.iter().map(|z| z.misses).sum::<u64>() as f64,
    );
    r.set(
        "obs.breaches",
        zones.iter().map(|z| z.breaches_total).sum::<u64>() as f64,
    );
    r.set(
        "obs.telemetry_overflow",
        zones.iter().map(|z| z.telemetry_overflow).sum::<u64>() as f64,
    );
    r.set(
        "obs.span_mean_ms",
        if spans == 0 {
            0.0
        } else {
            total_us as f64 / spans as f64 / 1e3
        },
    );
    for (i, c) in SegClass::ALL.iter().enumerate() {
        let name = match c {
            SegClass::Pacing => "obs.seg.pacing_ms",
            SegClass::CreditStall => "obs.seg.credit_stall_ms",
            SegClass::Queueing => "obs.seg.queueing_ms",
            SegClass::Propagation => "obs.seg.propagation_ms",
            SegClass::Repair => "obs.seg.repair_ms",
            SegClass::MirrorRelay => "obs.seg.mirror_relay_ms",
            SegClass::PlayoutHold => "obs.seg.playout_hold_ms",
        };
        r.set(name, seg[i] as f64 / 1e3);
    }
    write_artifact(out, "obs.json", &render_report(zones));
}

fn write_artifact(out: &Path, name: &str, body: &str) {
    let path = out.join(name);
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("cm-benchmark: cannot write {}: {e}", path.display());
    }
}

fn tel_metrics(r: &mut RunReport, tel: &Telemetry) {
    for (counter, metric) in TEL_COUNTERS {
        r.set(metric, tel.counter(counter) as f64);
    }
}

/// Metrics common to every workload, set once its run has ended.
fn finish(r: &mut RunReport, probe: &Probe, out: &Path, run_ns: u64, setup_ns: u64, events: u64) {
    r.set("wall_s", run_ns as f64 / 1e9);
    r.set("setup_s", setup_ns as f64 / 1e9);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("netsim.events", events as f64);
    r.set("engine.ns_per_event", run_ns as f64 / events.max(1) as f64);
    r.set("engine.events_per_s", events as f64 / (run_ns as f64 / 1e9));
    if probe.mode().timed() {
        r.set(
            "engine.self_ms",
            ms(run_ns.saturating_sub(probe.callback_ns())),
        );
    }
    if probe.mode().traced() {
        r.set("trace.bench_spans", probe.spans_logged() as f64);
        write_artifact(out, "trace.json", &probe.chrome_trace());
    }
    r.set(
        "op_failure_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
    );
}

/// `heap.*` from counter readings taken before the world was built and
/// after it was dropped, plus the allocations of the engine run.
fn heap_metrics(r: &mut RunReport, live_before_build: u64, run_allocs: u64, events: u64) {
    if !alloc::enabled() {
        return;
    }
    let h = alloc::snapshot();
    r.set("heap.peak_mb", mb(h.peak));
    r.set(
        "heap.allocs_per_event",
        run_allocs as f64 / events.max(1) as f64,
    );
    r.set(
        "heap.live_after_drop_mb",
        mb(h.live.saturating_sub(live_before_build)),
    );
}

fn city_churn(seed: u64, mode: Mode, out: &Path) -> RunReport {
    let probe = Rc::new(Probe::new(mode, seed));
    let telemetry = mode.traced().then_some(TELEMETRY_CAP);
    let cfg = CityConfig::city_10k(seed);
    let (schedule, gen_ns) = probe.phase("testkit.schedule_gen", || CitySchedule::generate(&cfg));
    let member_slots = schedule.member_slots;
    let live_before_build = alloc::snapshot().live;
    let (world, build_ns) = probe.phase("platform.world_build", || {
        flat::build_world(&cfg, telemetry)
    });
    let allocs_before_run = alloc::snapshot().allocs;
    let (o, run_ns) = flat::replay(&world, schedule, &probe);
    let run_allocs = alloc::snapshot().allocs - allocs_before_run;

    let mut r = RunReport::default();
    let events = world.engine.executed();
    let pending = world.engine.pending();
    let reservations = world.net.reservation_count();
    let links = flat::link_totals(&world.net);
    r.set("testkit.schedule_gen_ms", ms(gen_ns));
    r.set("platform.world_build_ms", ms(build_ns));
    r.set("netsim.pkts_submitted", links.submitted as f64);
    r.set("netsim.pkts_delivered", links.delivered as f64);
    r.set("netsim.pkts_dropped", links.dropped as f64);
    r.set("netsim.link_bytes", links.bytes as f64);
    r.set("netsim.slab_slots", world.engine.slab_slots() as f64);
    r.set("netsim.reservations_open_end", reservations as f64);
    city_observed(&mut r, &o);
    r.set("sim.end_ms", world.engine.now().as_micros() as f64 / 1e3);
    if mode.timed() {
        session_metrics(&mut r, &probe);
    }
    if mode.traced() {
        tel_metrics(&mut r, world.engine.telemetry());
        let report = world.obs.finish_report(
            0,
            world.engine.now().as_micros(),
            world.engine.telemetry().overflow(),
        );
        obs_metrics(&mut r, &[report], out);
    }

    r.ops(
        o.joins + o.publishes + o.write_calls,
        o.joins_denied + o.publish_errors + o.write_errors,
    );
    r.check(
        "engine_drained",
        pending == 0,
        format!("{pending} events pending"),
    );
    r.check(
        "reservations_released",
        reservations == 0,
        format!("{reservations} reservations open"),
    );
    r.check(
        "no_denied_joins",
        o.joins_denied == 0,
        format!("{} joins denied", o.joins_denied),
    );
    r.check(
        "every_join_admitted",
        o.joins_ok == member_slots,
        format!("{} of {member_slots} joins admitted", o.joins_ok),
    );
    r.check(
        "delivery_order",
        o.out_of_order == 0,
        format!("{} deliveries out of seq order", o.out_of_order),
    );
    r.check(
        "tags_match_writes",
        o.stray_tags == 0,
        format!("{} delivered tags match no write", o.stray_tags),
    );
    r.check(
        "media_delivered",
        o.osdus_delivered > 0,
        format!("{} deliveries", o.osdus_delivered),
    );

    finish(&mut r, &probe, out, run_ns, gen_ns + build_ns, events);
    probe.release();
    drop(o);
    drop(world);
    heap_metrics(&mut r, live_before_build, run_allocs, events);
    r
}

fn city_observed(r: &mut RunReport, o: &Observed) {
    let lat = |p| percentile(&o.latency_us, p) / 1e3;
    r.set("osdu_latency_p50_ms", lat(50.0));
    r.set("osdu_latency_p99_ms", lat(99.0));
    let admit = |p| percentile(&o.join_admit_us, p) / 1e3;
    r.set("join_admit_p50_ms", admit(50.0));
    r.set("join_admit_p99_ms", admit(99.0));
    r.set("session.joins_ok", o.joins_ok as f64);
    r.set("session.joins_denied", o.joins_denied as f64);
    r.set("session.on_media_calls", o.osdus_delivered as f64);
    r.set("transport.write_osdu_calls", o.write_calls as f64);
    r.set(
        "transport.write_full_ratio",
        o.write_full as f64 / o.write_calls.max(1) as f64,
    );
    r.set("sim.delivery_fnv", o.delivery_fnv.value());
}

fn session_metrics(r: &mut RunReport, probe: &Probe) {
    let us = 1e3;
    op_percentiles(
        r,
        probe,
        Op::CreateRoom,
        ("session.create_room_us_p50", "session.create_room_us_p99"),
        us,
    );
    op_percentiles(
        r,
        probe,
        Op::Join,
        ("session.join_us_p50", "session.join_us_p99"),
        us,
    );
    op_percentiles(
        r,
        probe,
        Op::Publish,
        ("session.publish_us_p50", "session.publish_us_p99"),
        us,
    );
    op_percentiles(
        r,
        probe,
        Op::Leave,
        ("session.leave_us_p50", "session.leave_us_p99"),
        us,
    );
    let api: u64 = [Op::CreateRoom, Op::Join, Op::Publish, Op::Leave]
        .iter()
        .map(|&op| probe.total_ns(op))
        .sum();
    r.set("session.api_ms_total", ms(api));
    op_percentiles(
        r,
        probe,
        Op::WriteOsdu,
        ("transport.write_osdu_ns_p50", "transport.write_osdu_ns_p99"),
        1.0,
    );
    r.set(
        "transport.write_ms_total",
        ms(probe.total_ns(Op::WriteOsdu)),
    );
    r.set("member.callback_ms", ms(probe.total_ns(Op::Member)));
}

fn city_sharded(seed: u64, mode: Mode, out: &Path) -> RunReport {
    let probe = Rc::new(Probe::new(mode, seed));
    let telemetry = mode.traced().then_some(TELEMETRY_CAP);
    let cfg = CityConfig::city_10k(seed);
    let (schedule, gen_ns) = probe.phase("testkit.schedule_gen", || CitySchedule::generate(&cfg));
    // The executor partitions the city and builds every zone's world on
    // its own worker threads, so that set-up is inside `wall_s` here.
    let (c, run_ns) = probe.phase("cluster.run_city_cluster_mode", || {
        run_city_cluster_mode(
            &cfg,
            &schedule,
            SHARD_WORKERS,
            telemetry,
            RoundMode::Adaptive,
        )
    });

    let mut r = RunReport::default();
    let busy: u64 = c.worker_busy_us.iter().sum();
    let sync: u64 = c.worker_sync_us.iter().sum();
    let max_busy = c.worker_busy_us.iter().copied().max().unwrap_or(0);
    let mean_busy = busy as f64 / c.worker_busy_us.len().max(1) as f64;
    r.set("testkit.schedule_gen_ms", ms(gen_ns));
    r.set("cluster.rounds", c.rounds as f64);
    r.set("cluster.busy_ms", busy as f64 / 1e3);
    r.set("cluster.sync_ms", sync as f64 / 1e3);
    r.set("cluster.critical_path_ms", c.critical_path_us as f64 / 1e3);
    r.set(
        "cluster.parallel_bound",
        busy as f64 / c.critical_path_us.max(1) as f64,
    );
    r.set(
        "cluster.worker_imbalance",
        if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            0.0
        },
    );
    r.set("cluster.envelopes_routed", c.envelopes_routed as f64);
    r.set("cluster.envelope_allocs", c.envelope_allocs as f64);
    r.set("cluster.wan_msgs", c.wan_msgs as f64);
    let wan_dropped: u64 = c.per_zone.iter().map(|z| z.wan_dropped).sum();
    r.set("cluster.wan_dropped", wan_dropped as f64);
    r.set("session.joins_ok", c.agg.joins_ok as f64);
    r.set("session.joins_denied", c.agg.joins_denied as f64);
    r.set("session.on_media_calls", c.agg.osdus_delivered as f64);
    // The executor owns its members, so the fingerprint folds each
    // zone's delivery counters and final clock, not single deliveries.
    let mut fnv = Fnv::default();
    for z in &c.per_zone {
        for w in [
            z.zone as u64,
            z.stats.osdus_delivered,
            z.stats.bytes_delivered,
            z.stats.events_executed,
            z.stats.sim_ms,
        ] {
            fnv.word(w);
        }
    }
    r.set("sim.delivery_fnv", fnv.value());
    r.set("sim.end_ms", c.agg.sim_ms as f64);
    if mode.traced() {
        let mut sums = [0u64; TEL_COUNTERS.len()];
        for z in &c.per_zone {
            let jsonl = z.telemetry_jsonl.as_deref().unwrap_or_default();
            for (i, (counter, _)) in TEL_COUNTERS.iter().enumerate() {
                sums[i] += jsonl_counter(jsonl, counter);
            }
        }
        for (i, (_, metric)) in TEL_COUNTERS.iter().enumerate() {
            r.set(metric, sums[i] as f64);
        }
        let zones: Vec<ObsZoneReport> = c
            .per_zone
            .iter()
            .filter_map(|z| z.obs_report.clone())
            .collect();
        obs_metrics(&mut r, &zones, out);
    }

    r.ops(c.agg.joins_ok + c.agg.joins_denied, c.agg.joins_denied);
    r.check(
        "no_denied_joins",
        c.agg.joins_denied == 0,
        format!("{} joins denied", c.agg.joins_denied),
    );
    r.check(
        "every_join_admitted",
        c.agg.joins_ok == schedule.member_slots,
        format!(
            "{} of {} joins admitted",
            c.agg.joins_ok, schedule.member_slots
        ),
    );
    r.check(
        "no_wan_drops",
        wan_dropped == 0,
        format!("{wan_dropped} wide-area envelopes dropped"),
    );
    r.check(
        "media_delivered",
        c.agg.osdus_delivered > 0,
        format!("{} deliveries", c.agg.osdus_delivered),
    );
    r.check(
        "every_zone_ran",
        c.per_zone.len() == cfg.zones as usize
            && c.per_zone.iter().all(|z| z.stats.events_executed > 0),
        format!("{} zone reports", c.per_zone.len()),
    );
    let events = c.agg.events_executed;
    drop(c);
    finish(&mut r, &probe, out, run_ns, gen_ns, events);
    r
}

/// The value of counter `name` in a telemetry JSONL export (0 if absent).
fn jsonl_counter(jsonl: &str, name: &str) -> u64 {
    let prefix = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
    jsonl
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim_end_matches('}').parse().ok())
        .unwrap_or(0)
}

fn lip_sync(seed: u64, mode: Mode, out: &Path) -> RunReport {
    let probe = Rc::new(Probe::new(mode, seed));
    let telemetry = mode.traced().then_some(TELEMETRY_CAP);
    let (skews, gen_ns) = probe.phase("testkit.schedule_gen", || film::skews(seed));
    let live_before_build = alloc::snapshot().live;
    let (set, build_ns) = probe.phase("platform.world_build", || {
        film::build(seed, &skews, telemetry)
    });
    let allocs_before_run = alloc::snapshot().allocs;
    let played = film::play(&set, &probe);
    let run_allocs = alloc::snapshot().allocs - allocs_before_run;
    let run_ns = played.run_ns;
    let stats = film::skew_stats(&set, played.issued_at);
    let engine = set.stack.engine();
    let events = engine.executed();

    let mut r = RunReport::default();
    let links = flat::link_totals(&set.stack.tb.net);
    r.set("testkit.schedule_gen_ms", ms(gen_ns));
    r.set("platform.world_build_ms", ms(build_ns));
    r.set("netsim.pkts_submitted", links.submitted as f64);
    r.set("netsim.pkts_delivered", links.delivered as f64);
    r.set("netsim.pkts_dropped", links.dropped as f64);
    r.set("netsim.link_bytes", links.bytes as f64);
    r.set("netsim.slab_slots", engine.slab_slots() as f64);
    r.set(
        "netsim.reservations_open_end",
        set.stack.tb.net.reservation_count() as f64,
    );
    let skew_p99_us = percentile(&stats.samples_us, 99.0);
    let skew_max_us = stats.samples_us.last().copied().unwrap_or(0);
    r.set("lip_sync_skew_p99_ms", skew_p99_us / 1e3);
    let history: Vec<_> = played.agents.iter().map(|a| a.history()).collect();
    r.set(
        "orch.regulations",
        history.iter().map(|h| h.len()).sum::<usize>() as f64,
    );
    r.set(
        "orch.drops",
        history.iter().flatten().map(|i| i.dropped).sum::<u64>() as f64,
    );
    r.set("orch.run_ms", ms(run_ns));
    r.set("sim.delivery_fnv", stats.fnv.value());
    r.set("sim.end_ms", engine.now().as_micros() as f64 / 1e3);
    if mode.timed() {
        let starts = probe.sorted(Op::OrchStart);
        r.set("orch.start_us_p50", percentile(&starts, 50.0) / 1e3);
    }
    if mode.traced() {
        tel_metrics(&mut r, engine.telemetry());
        let report =
            set.obs
                .finish_report(0, engine.now().as_micros(), engine.telemetry().overflow());
        obs_metrics(&mut r, &[report], out);
    }

    let films = set.films.len() as u64;
    r.ops(films, films - played.started);
    r.check(
        "every_film_started",
        played.refused == 0 && played.started == films,
        format!(
            "{} of {films} started, {} refused",
            played.started, played.refused
        ),
    );
    r.check(
        "lip_sync_within_80ms",
        !stats.samples_us.is_empty() && skew_max_us <= film::LIP_SYNC_US,
        format!(
            "max skew {} us over {} samples",
            skew_max_us,
            stats.samples_us.len()
        ),
    );
    r.check(
        "presentation_order",
        stats.disordered_logs == 0 && stats.silent_streams == 0,
        format!(
            "{} logs out of order, {} streams silent",
            stats.disordered_logs, stats.silent_streams
        ),
    );

    finish(&mut r, &probe, out, run_ns, gen_ns + build_ns, events);
    probe.release();
    drop(history);
    drop(played);
    drop(stats);
    drop(set);
    heap_metrics(&mut r, live_before_build, run_allocs, events);
    r
}
