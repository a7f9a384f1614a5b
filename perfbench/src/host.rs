//! The host block of a run record: what a number was measured on.

use std::fs;
use std::path::Path;

/// Host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Per-core L2 size in bytes (0 if unknown).
    pub l2_bytes: u64,
    /// Last-level (L3) cache size in bytes (0 if unknown).
    pub l3_bytes: u64,
    /// Total memory in bytes (0 if unknown).
    pub mem_bytes: u64,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

/// Parses a sysfs cache size such as `4096K` or `105M`.
fn parse_size(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    let (digits, scale) = match raw.as_bytes().last()? {
        b'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        b'M' => (&raw[..raw.len() - 1], 1 << 20),
        b'G' => (&raw[..raw.len() - 1], 1 << 30),
        _ => (raw, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

/// Size of the unified/data cache at `level` for cpu0, from sysfs.
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        let read = |f: &str| fs::read_to_string(dir.join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() != "Instruction" {
            if let Some(bytes) = parse_size(&read("size")) {
                return bytes;
            }
        }
    }
    0
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

fn mem_total() -> u64 {
    fs::read_to_string("/proc/meminfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("MemTotal:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// The commit `HEAD` names, read from `.git` in the working directory
/// without running git. A source export without `.git` reports so.
fn git_commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git in the working directory)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// `(steal, total)` jiffies of all CPUs, from the first line of
/// `/proc/stat`: time the hypervisor gave the vCPUs to someone else.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            mem_bytes: mem_total(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: git_commit(),
        }
    }

    /// One `host:` line per fact.
    pub fn render(&self) -> String {
        let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
        format!(
            "host.nproc: {}\nhost.cpu: {}\nhost.l2: {:.1} MiB\nhost.l3: {:.1} MiB\n\
             host.mem: {:.0} MiB\nhost.rustc: {}\nhost.profile: {}\nhost.commit: {}",
            self.nproc,
            self.cpu,
            mib(self.l2_bytes),
            mib(self.l3_bytes),
            mib(self.mem_bytes),
            self.rustc,
            self.profile,
            self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }
}
