//! Resource accounting from `/proc`: per-thread CPU time grouped by
//! thread-name prefix, and peak resident memory.

use std::collections::BTreeMap;
use std::fs;

/// CPU nanoseconds per thread name (Linux truncates names to 15 bytes,
/// so `afforest-serve-worker-3` reads as `afforest-serve-`).
#[derive(Clone, Debug, Default)]
pub struct CpuSample {
    by_tid: BTreeMap<u32, (String, u64)>,
}

/// Reads every live thread of `pid` (`"self"` for this process).
pub fn sample(pid: &str) -> CpuSample {
    let mut by_tid = BTreeMap::new();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return CpuSample::default();
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let base = entry.path();
        let comm = fs::read_to_string(base.join("comm")).unwrap_or_default();
        // schedstat: "<ns on cpu> <ns waiting> <timeslices>".
        let run_ns = fs::read_to_string(base.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        by_tid.insert(tid, (comm.trim().to_string(), run_ns));
    }
    CpuSample { by_tid }
}

impl CpuSample {
    /// CPU seconds spent between `self` and `later` by threads whose
    /// name starts with any of `prefixes` (all threads when empty).
    /// Threads that started after `self` count from zero.
    pub fn delta_s(&self, later: &CpuSample, prefixes: &[&str]) -> f64 {
        let mut ns = 0u64;
        for (tid, (name, run)) in &later.by_tid {
            if !prefixes.is_empty() && !prefixes.iter().any(|p| name.starts_with(p)) {
                continue;
            }
            let before = self.by_tid.get(tid).map_or(0, |(_, r)| *r);
            ns += run.saturating_sub(before);
        }
        ns as f64 / 1e9
    }
}

/// CPU seconds `pid` has used so far, exited threads included
/// (`/proc/<pid>/stat` utime + stime, in USER_HZ = 100 ticks).
pub fn process_cpu_s(pid: &str) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Host-wide CPU ticks as `(stolen by the hypervisor, all)`, from the
/// first line of `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_threads_are_visible_by_name() {
        let before = sample("self");
        let spinner = std::thread::Builder::new()
            .name("pb-spin-test".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed() < std::time::Duration::from_millis(30) {
                    x = x.wrapping_add(std::hint::black_box(1));
                }
                x
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let during = sample("self");
        spinner.join().unwrap();
        assert!(before.delta_s(&during, &["pb-spin-"]) > 0.0);
        assert!(process_cpu_s("self") > 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
