//! Barrier-protocol microbench: the same smoke city executed under the
//! classic fixed-lookahead two-barrier round loop and under the
//! adaptive-window single-barrier protocol, isolating the pure
//! coordination cost of the sharded engine — barrier rounds,
//! synchronization time, and envelope-buffer allocations per round.
//!
//! Both runs replay the identical pre-generated schedule at the same
//! worker count, and the simulation outcome (engine events, deliveries,
//! final sim time, wide-area traffic) must agree exactly — the protocols
//! partition time differently but execute the same city. The headline
//! `rounds_reduction` here is the same quantity `room_scale --scaling`
//! records in `BENCH_scale.json`; this bench makes it cheap enough to
//! run on every CI push.
//!
//! Usage: `barrier_rounds [--seed N] [--workers N] [--metrics]
//! [--out PATH]`.

use cm_bench::city_zone::{run_city_cluster_mode, ClusterCityStats};
use cm_cluster::RoundMode;
use cm_testkit::{CityConfig, CitySchedule};

const USAGE: &str = "usage: barrier_rounds [--seed N] [--workers N] [--metrics] [--out PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("barrier_rounds: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The per-protocol numbers this bench compares.
struct Run {
    rounds: u64,
    sync_us: u64,
    busy_us: u64,
    envelopes: u64,
    allocs: u64,
}

fn run(
    cfg: &CityConfig,
    schedule: &CitySchedule,
    workers: usize,
    mode: RoundMode,
) -> (Run, ClusterCityStats) {
    let c = run_city_cluster_mode(cfg, schedule, workers, None, mode);
    let r = Run {
        rounds: c.rounds,
        sync_us: c.worker_sync_us.iter().sum(),
        busy_us: c.worker_busy_us.iter().sum(),
        envelopes: c.envelopes_routed,
        allocs: c.envelope_allocs,
    };
    (r, c)
}

fn per_round(n: u64, rounds: u64) -> f64 {
    n as f64 / rounds.max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 7;
    let mut workers: usize = 1;
    let mut metrics = false;
    let mut out: Option<String> = None;
    fn take(args: &[String], i: &mut usize, name: &str) -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| fail(&format!("{name} needs a value")))
            .clone()
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = take(&args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            "--workers" => {
                workers = take(&args, &mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --workers"))
            }
            "--metrics" => metrics = true,
            "--out" => out = Some(take(&args, &mut i, "--out")),
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if workers == 0 {
        fail("--workers must be >= 1");
    }

    let cfg = CityConfig::smoke(seed);
    let schedule = CitySchedule::generate(&cfg);
    let (classic, c_stats) = run(&cfg, &schedule, workers, RoundMode::Classic);
    let (adaptive, a_stats) = run(&cfg, &schedule, workers, RoundMode::Adaptive);

    // Protocol equivalence: same simulation, different time partition.
    // (Engine callback totals are not compared — zero-effect internal
    // drain wakeups legally differ between round protocols.)
    assert_eq!(c_stats.agg.rooms_opened, a_stats.agg.rooms_opened);
    assert_eq!(c_stats.agg.published, a_stats.agg.published);
    assert_eq!(c_stats.agg.osdus_written, a_stats.agg.osdus_written);
    assert_eq!(c_stats.agg.osdus_delivered, a_stats.agg.osdus_delivered);
    assert_eq!(c_stats.agg.bytes_delivered, a_stats.agg.bytes_delivered);
    assert_eq!(c_stats.wan_msgs, a_stats.wan_msgs);
    assert_eq!(c_stats.wan_bytes, a_stats.wan_bytes);
    // The worker count the runner actually used, not the one asked for.
    let workers = a_stats.workers;

    let reduction = classic.rounds as f64 / adaptive.rounds.max(1) as f64;
    println!(
        "barrier_rounds: smoke city seed {seed}, {} zones, {workers} worker(s)",
        cfg.zones
    );
    println!(
        "  classic : {:>6} rounds, sync {:>8} us, busy {:>8} us, {:>5} envelopes, {:>3} allocs ({:.3}/round)",
        classic.rounds, classic.sync_us, classic.busy_us, classic.envelopes, classic.allocs,
        per_round(classic.allocs, classic.rounds)
    );
    println!(
        "  adaptive: {:>6} rounds, sync {:>8} us, busy {:>8} us, {:>5} envelopes, {:>3} allocs ({:.3}/round)",
        adaptive.rounds, adaptive.sync_us, adaptive.busy_us, adaptive.envelopes, adaptive.allocs,
        per_round(adaptive.allocs, adaptive.rounds)
    );
    println!("  rounds_reduction: {reduction:.2}x");

    if metrics {
        println!("classic_rounds={}", classic.rounds);
        println!("adaptive_rounds={}", adaptive.rounds);
        println!("rounds_reduction={reduction:.2}");
        println!("classic_sync_us={}", classic.sync_us);
        println!("adaptive_sync_us={}", adaptive.sync_us);
        println!("classic_envelope_allocs={}", classic.allocs);
        println!("adaptive_envelope_allocs={}", adaptive.allocs);
        println!("envelopes_routed={}", adaptive.envelopes);
    }

    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"cm-bench/src/bin/barrier_rounds.rs\",\n  \"workload\": \"smoke city, zone-sharded\",\n  \"notes\": \"Classic fixed-lookahead two-barrier rounds vs adaptive-window single-barrier rounds on the identical schedule and worker count; the protocols must execute the same simulation, so only coordination cost differs. rounds_reduction matches the entry room_scale --scaling records in BENCH_scale.json.\",\n  \"config\": {{ \"seed\": {seed}, \"zones\": {}, \"workers\": {workers} }},\n  \"classic\": {{ \"rounds\": {}, \"sync_us\": {}, \"busy_us\": {}, \"envelopes_routed\": {}, \"envelope_allocs\": {}, \"allocs_per_round\": {:.4} }},\n  \"adaptive\": {{ \"rounds\": {}, \"sync_us\": {}, \"busy_us\": {}, \"envelopes_routed\": {}, \"envelope_allocs\": {}, \"allocs_per_round\": {:.4} }},\n  \"rounds_reduction\": {reduction:.2}\n}}\n",
            cfg.zones,
            classic.rounds, classic.sync_us, classic.busy_us, classic.envelopes, classic.allocs,
            per_round(classic.allocs, classic.rounds),
            adaptive.rounds, adaptive.sync_us, adaptive.busy_us, adaptive.envelopes, adaptive.allocs,
            per_round(adaptive.allocs, adaptive.rounds),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        println!("wrote {path}");
    }
}
