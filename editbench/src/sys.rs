//! Process accounting from `/proc`: CPU time and peak resident memory.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (all its
/// threads); `None` when the process is gone.
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide CPU time stolen from this machine by its hypervisor so far
/// (seconds, summed over CPUs); a run that sees steal ran on a busy host.
pub fn steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let steal: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(steal / TICKS_PER_S)
}

/// CPU count as `nproc` reports it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_s(me).unwrap() >= 0.0);
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        assert!(host_cpus() >= 1);
        assert!(steal_s().unwrap() >= 0.0);
    }
}
