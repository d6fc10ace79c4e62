//! Process-level readings from /proc.

use std::fs;

/// CPU time this process's live threads have run, in nanoseconds: the sum
/// of the first field of every `/proc/self/task/*/schedstat`. Finer than
/// the clock-tick counters of `/proc/self/stat`; 0 where /proc is absent.
/// A thread that exits takes its time with it, so take differences with
/// [`cpu_since`].
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU time run since an earlier reading `before` (0 if threads that
/// exited in between took more with them than the rest added).
pub fn cpu_since(before: u64) -> u64 {
    process_cpu_ns().saturating_sub(before)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one `Instant::now()` costs here, in nanoseconds (median of a few
/// bursts).
pub fn clock_read_ns() -> f64 {
    let bursts: Vec<f64> = (0..9)
        .map(|_| {
            let n = 20_000;
            let t = std::time::Instant::now();
            for _ in 0..n {
                std::hint::black_box(std::time::Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    crate::stats::median(&bursts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            let before = process_cpu_ns();
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            assert!(process_cpu_ns() >= before);
        }
    }
}
