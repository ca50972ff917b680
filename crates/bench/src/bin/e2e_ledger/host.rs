//! What the numbers were measured on: core count, toolchain, commit, and a
//! fixed spin loop whose speed shows a throttled or busy host beside them.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub spin_ns_per_iter: f64,
}

/// Nanoseconds per iteration of a dependent xorshift chain: no memory, no
/// branches, so it tracks the core's clock and nothing else. Best of three
/// so a preemption does not read as a slow host.
pub fn spin_ns_per_iter() -> f64 {
    const ITERATIONS: u64 = 5_000_000;
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
            for _ in 0..ITERATIONS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            started.elapsed().as_nanos() as f64 / ITERATIONS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The checked-out commit, read from `.git` without spawning anything;
/// "unknown" outside a git checkout (the driver's checkout is not one).
fn commit() -> String {
    let Ok(cwd) = std::env::current_dir() else { return "unknown".into() };
    for dir in cwd.ancestors() {
        let Ok(head) = std::fs::read_to_string(dir.join(".git/HEAD")) else { continue };
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
        if let Ok(hash) = std::fs::read_to_string(dir.join(".git").join(reference)) {
            return hash.trim().to_string();
        }
        let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).unwrap_or_default();
        return packed
            .lines()
            .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
            .unwrap_or_else(|| "unknown".into());
    }
    "unknown".into()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn record() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: commit(),
            rustc: rustc_version(),
            spin_ns_per_iter: spin_ns_per_iter(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("commit", Json::str(&*self.commit)),
            ("rustc", Json::str(&*self.rustc)),
            ("spin_ns_per_iter", Json::Num(self.spin_ns_per_iter)),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_is_filled_in() {
        let host = Host::record();
        assert!(host.nproc >= 1);
        assert!(host.spin_ns_per_iter > 0.0 && host.spin_ns_per_iter < 1_000.0);
        assert!(!host.commit.is_empty() && !host.rustc.is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(host.to_json().get("nproc").unwrap().as_f64(), Some(host.nproc as f64));
    }
}
