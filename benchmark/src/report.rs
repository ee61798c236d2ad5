//! One run's result: named metrics, correctness checks and operation
//! counts, printed as a single JSON line for `run.py` to aggregate.

use std::fmt::Write as _;

/// One correctness check: a stable name, whether it held, and what was
/// observed (printed on failure).
#[derive(Debug)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    metrics: Vec<(&'static str, f64)>,
    checks: Vec<Check>,
    /// Operations the run issued (joins, publishes, writes,
    /// orchestrations) plus the checks made.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
}

impl RunReport {
    /// Set a metric (a later set of the same name replaces it).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Record a check; a failed one counts as a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Count issued operations and how many of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// One-line JSON: `workload`, `seed`, `mode`, `correct`,
    /// `attempted`, `failed`, `checks` and `metrics`.
    pub fn to_json(&self, workload: &str, seed: u64, mode: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"mode\":\"{mode}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                c.name,
                c.ok,
                c.detail.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // JSON has no NaN or infinity; a metric that could not be
            // formed is reported as 0.
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(out, "\"{name}\":{v:?}");
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a, 64-bit, over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash, cut to 52 bits so a JSON double holds it exactly.
    pub fn value(&self) -> f64 {
        (self.0 & ((1 << 52) - 1)) as f64
    }
}

/// `VmHWM` (peak resident set) of this process, MB; 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
