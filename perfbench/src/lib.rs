//! The repository benchmark: seeded workloads that drive the `sunstone`
//! library and the `sunstone-serve` daemon from the outside, time them,
//! and check every answer.
//!
//! * [`library`] — `resnet18-cold`: whole-network
//!   `Scheduler::schedule_batch` calls on fresh sessions.
//! * [`serve`] — `serve-mix`: an open-loop client against the daemon
//!   binary.
//! * [`oracle`] — the correctness checks every operation goes through.
//! * [`trace`] — in-memory spans for the traced (per-layer) run.
//! * [`report`] — the metric catalogue and the result line.

pub mod library;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// Options shared by every workload, parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads for the library, the daemon, and the client: the
    /// machine's available parallelism.
    pub threads: usize,
    /// Directory (inside the checkout) for sockets, stores and traces.
    pub scratch: std::path::PathBuf,
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor stole from this guest since boot, in seconds
/// (the `steal` column of `/proc/stat`, in 1/100 s ticks). A run prints
/// the share stolen during its window, to show how much of its spread
/// the host caused.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// `stolen` seconds as a percentage of `threads` CPUs over `window_s`.
pub fn steal_pct(stolen: f64, window_s: f64, threads: usize) -> f64 {
    100.0 * stolen / (window_s * threads as f64).max(f64::MIN_POSITIVE)
}
