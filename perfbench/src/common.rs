//! Shared plumbing: child-process reports, statistics, digests, memory and host facts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Key/value lines a child process prints on stdout, one `key value` pair a line.
/// A key may repeat (latency samples); [`Report::all`] returns every value in order.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<String, Vec<String>>,
}

impl Report {
    pub fn parse(text: &str) -> Report {
        let mut report = Report::default();
        for line in text.lines() {
            if let Some((key, value)) = line.split_once(' ') {
                report.push(key, value.trim());
            }
        }
        report
    }

    pub fn push(&mut self, key: &str, value: impl ToString) {
        self.values
            .entry(key.to_string())
            .or_default()
            .push(value.to_string());
    }

    /// Append every value of `other` after this report's values.
    pub fn extend(&mut self, other: &Report) {
        for (key, values) in &other.values {
            self.values
                .entry(key.clone())
                .or_default()
                .extend(values.iter().cloned());
        }
    }

    pub fn remove(&mut self, key: &str) {
        self.values.remove(key);
    }

    pub fn all(&self, key: &str) -> Vec<f64> {
        self.values
            .get(key)
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_default()
    }

    pub fn text(&self, key: &str) -> Vec<String> {
        self.values.get(key).cloned().unwrap_or_default()
    }

    /// The first value of `key`, or 0 when the key is absent.
    pub fn first(&self, key: &str) -> f64 {
        self.all(key).first().copied().unwrap_or(0.0)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.all(key).iter().sum()
    }

    /// Render as `key value` lines (the child side of the protocol).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, values) in &self.values {
            for v in values {
                let _ = writeln!(out, "{key} {v}");
            }
        }
        out
    }
}

/// Run this executable as a child (`args` after the program name) and parse its report.
/// Its stderr passes through; a non-zero exit is an error carrying that stderr context.
pub fn run_child(args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed with {}", out.status));
    }
    Ok(Report::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a 64 accumulator for the simulated-statistics digest.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one) in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cost of one `Instant::now()` pair in ns (median of many), subtracted from every
/// sampled call time so the per-layer estimates do not include the timer itself.
pub fn timer_overhead_ns() -> f64 {
    let mut samples = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let t = Instant::now();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Host facts recorded with every result: host name, commit, CPUs and toolchain.
pub fn provenance(root: &Path) -> Vec<(String, String)> {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("host".into(), host),
        ("commit".into(), commit),
        ("nproc".into(), nproc().to_string()),
        ("toolchain".into(), rustc),
    ]
}

/// Hard-link every regular file of `from` into a fresh `to` (no recursion; corpora are
/// flat). Linking writes no file data; a copy of a 45 MB corpus every round left
/// writeback that the daemon's `fsync`s of its progress file can wait on.
pub fn link_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::hard_link(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
