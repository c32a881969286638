//! The benchmark's one timing source: wall time, process CPU time and peak
//! resident memory. Every other file asks this one.
//!
//! bf-lint: allow(wall_clock): this package exists to measure what the
//! substrate costs on a real CPU, which the virtual clock cannot say; the
//! reads stay behind this module so a later change of source is one edit.

use std::time::{Duration, Instant};

/// A point in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(Instant);

/// The current instant.
pub fn now() -> Stamp {
    Stamp(Instant::now())
}

impl Stamp {
    /// This instant moved `d` into the future.
    pub fn plus(self, d: Duration) -> Stamp {
        Stamp(self.0 + d)
    }

    /// Time from `earlier` to this instant (zero if `earlier` is later).
    pub fn since(self, earlier: Stamp) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }

    /// Time from this instant to now.
    pub fn elapsed(self) -> Duration {
        self.0.elapsed()
    }

    /// Whether this instant has passed.
    pub fn passed(self) -> bool {
        Instant::now() >= self.0
    }
}

/// Microseconds as a float, the unit latencies are reported in.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps until `due`. No spinning: a waiting generator must cost no CPU,
/// because `cpu_ms_per_req` counts the whole process. What the sleep
/// overshoots by is in the latency (it counts from `due`) and is reported
/// as `bench.sched_lag_p95_us`.
pub fn sleep_until(due: Stamp) {
    loop {
        let left = due.since(now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left);
    }
}

/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`), on
/// every architecture it runs on.
const TICK_MS: f64 = 10.0;

/// User plus system CPU time of this process, all threads, in milliseconds.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 * TICK_MS)
}

/// Peak resident set size of this process in megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state, ppid, ... ; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after `)`.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kilobyte value of one `/proc/<pid>/status` key such as `VmHWM`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (e2e (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                        137 21 0 0 20 0 4 0 12345 1000000 250 18446744073709551615";

    #[test]
    fn stat_line_with_awkward_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(137 + 21));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_keys() {
        let status = "Name:\te2e\nVmPeak:\t  500000 kB\nVmHWM:\t   12345 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(500_000));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn stamps_order_and_saturate() {
        let a = now();
        let b = a.plus(Duration::from_millis(5));
        assert!(b > a);
        assert_eq!(b.since(a), Duration::from_millis(5));
        assert_eq!(a.since(b), Duration::ZERO);
    }
}
