//! Evidence about the host, read for the benchmark's own process only:
//! on-CPU and run-queue-wait time from the per-thread scheduler
//! statistics, and the peak resident set size.

use std::fs;

/// CPU and run-queue-wait nanoseconds summed over the process's live
/// threads (`/proc/self/task/*/schedstat`; the calling thread's entry is
/// `/proc/thread-self/schedstat`). A thread that has ended is missing,
/// so readings are taken while the daemons' threads run. `None` where
/// the kernel exposes no scheduler statistics.
#[must_use]
pub fn schedstat_ns() -> Option<(u64, u64)> {
    let mut cpu = 0;
    let mut wait = 0;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        cpu += fields.next()??;
        wait += fields.next()??;
    }
    Some((cpu, wait))
}

/// Seconds on CPU and waiting on the run queue between two readings.
#[must_use]
pub fn cpu_and_wait_s(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> (f64, f64) {
    match (before, after) {
        (Some((c0, w0)), Some((c1, w1))) => (
            c1.saturating_sub(c0) as f64 / 1e9,
            w1.saturating_sub(w0) as f64 / 1e9,
        ),
        _ => (f64::NAN, f64::NAN),
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
