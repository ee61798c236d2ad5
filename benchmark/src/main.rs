//! Run one workload once and print its report as one JSON line.
//!
//! ```text
//! cm-benchmark --workload NAME [--seed N] [--mode plain|layers|traced] [--out DIR]
//! ```
//!
//! `--out` (default `benchmark/out`) receives a traced run's Chrome trace
//! of the benchmark's spans (`trace.json`) and its `cm-obs/v1` report
//! (`obs.json`). The exit code is 0 whenever a report was printed, even
//! one whose checks failed; `run.py` judges the report.

use cm_benchmark::alloc::{self, CountingAlloc};
use cm_benchmark::probe::Mode;
use cm_benchmark::workloads;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: cm-benchmark --workload NAME [--seed N] [--mode plain|layers|traced] [--out DIR]";

fn fail(msg: &str) -> ! {
    eprintln!("cm-benchmark: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 7u64;
    let mut mode = Mode::Plain;
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes an unsigned integer"))
            }
            "--mode" => mode = Mode::parse(&value()).unwrap_or_else(|| fail("unknown --mode")),
            "--out" => out = PathBuf::from(value()),
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        fail(&format!("unknown workload {workload:?}"));
    }
    // The sharded workload allocates from two worker threads; the
    // counters are exact only single-threaded, so they stay off there.
    if workload != "city_sharded" {
        alloc::enable();
    }
    let mode_name = match mode {
        Mode::Plain => "plain",
        Mode::Layers => "layers",
        Mode::Traced => "traced",
    };
    match workloads::run(&workload, seed, mode, &out) {
        Ok(report) => println!("{}", report.to_json(&workload, seed, mode_name)),
        Err(e) => fail(&e),
    }
}
