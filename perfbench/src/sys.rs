//! Process-level readers from `/proc` (no dependency beyond `std`) and the
//! cost of the clock the layer timers use.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/*/stat`.
/// Linux fixes this user-visible rate (`USER_HZ`) at 100 on every
/// architecture it exports it to.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used so far: every
/// thread, including threads that have already been joined, because the
/// kernel folds an exited thread's times into the thread-group totals that
/// `/proc/self/stat` reports. Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("parse utime/stime in /proc/self/stat")
}

/// `utime + stime` in seconds from the text of a `/proc/<pid>/stat` file.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is in parentheses and may itself hold
    // spaces or parentheses, so fields are counted after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The process's peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parse VmHWM in /proc/self/status") as f64 / 1024.0
}

/// The `VmHWM` value in KiB from the text of a `/proc/<pid>/status` file.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Nanoseconds one `Instant::now()` pair costs where it runs: the median
/// over batches, so that per-call self times can be read net of it.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 10_000;
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            let mut sink = 0u128;
            for _ in 0..PAIRS {
                let a = Instant::now();
                sink = sink.wrapping_add(a.elapsed().as_nanos());
            }
            std::hint::black_box(sink);
            start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&mut batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_fields_after_a_command_name_with_spaces() {
        // Fields 14 and 15 are 250 and 50 ticks.
        let stat = "42 (my (odd) cmd) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
        assert!(timer_pair_ns() > 0.0);
    }
}
