//! # cm-benchmark — the repository benchmark
//!
//! Three workloads over the CM stack, each measured from outside through
//! the layers' public functions: `city_churn` (the city_10k control
//! plane), `city_sharded` (the zone-sharded executor) and `lip_sync`
//! (orchestrated films, the media data plane). The
//! `cm-benchmark` binary runs one workload once and prints one JSON
//! line; `run.py` runs it in fresh processes and aggregates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod film;
pub mod flat;
pub mod probe;
pub mod report;
pub mod workloads;
