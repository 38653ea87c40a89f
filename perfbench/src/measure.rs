//! Order statistics, the FNV-1a checksum and the `/proc` readings
//! (peak RSS, CPU time) the metrics are built from.

use std::io;

/// The median of `xs` (mean of the middle pair for an even count);
/// NaN for an empty sample, which the output check rejects.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (unsorted);
/// NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a, the repository's checksum currency (the same
/// constants as `brokerset::answers_checksum`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Which process a `/proc` reading is about.
#[derive(Debug, Clone, Copy)]
pub enum Proc {
    /// The benchmark itself.
    This,
    /// A child process (brokerd).
    Pid(u32),
}

impl Proc {
    fn path(self, file: &str) -> String {
        match self {
            Proc::This => format!("/proc/self/{file}"),
            Proc::Pid(pid) => format!("/proc/{pid}/{file}"),
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(self) -> io::Result<f64> {
        let status = std::fs::read_to_string(self.path("status"))?;
        let kb = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
        Ok(kb / 1024.0)
    }

    /// CPU time (user plus system) of the process's live threads, in
    /// seconds. Read from each thread's `schedstat`, which counts in
    /// nanoseconds; `stat`'s utime and stime tick at 10 ms, too coarse
    /// for a per-operation figure. A thread that exits while the list
    /// is read is skipped.
    pub fn cpu_s(self) -> io::Result<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(self.path("task"))? {
            let stat = match std::fs::read_to_string(task?.path().join("schedstat")) {
                Ok(stat) => stat,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed schedstat"))?;
        }
        Ok(ns as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(Proc::This.peak_rss_mb().expect("own status") > 0.0);
        assert!(Proc::This.cpu_s().expect("own stat") >= 0.0);
    }
}
