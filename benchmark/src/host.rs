//! What the harness reads from the host: peak memory, CPU time and the
//! machine fingerprint every result carries.

use std::fs;

/// Peak resident set (`VmHWM`) of `pid` (or of this process) in kB.
pub fn vm_hwm_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds this process has consumed, all threads.
/// `/proc/self/stat` counts in clock ticks; `USER_HZ` is 100 on Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime (14, 15) are at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// `rustc` and `commit` come from the environment (`run.sh` exports
    /// them); the rest is read from `/proc`.
    pub fn collect() -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: nproc(),
            kernel,
            rustc: env("PAIRBENCH_RUSTC"),
            commit: env("PAIRBENCH_COMMIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(vm_hwm_kb(None).unwrap() > 0);
        assert!(vm_hwm_kb(Some(std::process::id())).unwrap() > 0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(nproc() >= 1);
        assert!(!Fingerprint::collect().kernel.is_empty());
    }
}
