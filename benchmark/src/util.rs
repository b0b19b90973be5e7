//! Small self-contained helpers: the input PRNG, the input fingerprint,
//! order statistics and `/proc` memory readings.
//!
//! The PRNG and the hash live here, and not in a vendored crate, so that no
//! edit outside `benchmark/` can move the generated inputs unnoticed.

use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose, so adding a draw to one
    /// generator never shifts another's.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = Fnv64::new();
        h.write(purpose.as_bytes());
        Rng(seed ^ h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2⁻⁴⁰ for every `n` used
    /// here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, 64 bit: the fingerprint of a workload's generated inputs.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of a sample, `q` in `[0, 1]`; 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail statistic of one round: the highest percentile that still has at
/// least ten samples beyond it, or `None` when the round is too small to
/// have one.
pub fn tail_with_ten_beyond(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 20 {
        return None;
    }
    let v = sorted(values);
    let idx = v.len() - 11;
    Some((v[idx], idx as f64 / (v.len() - 1) as f64))
}

/// `VmHWM` of a process in MiB (peak resident set), read from `/proc`.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Shortest round-trip rendering of a finite number for JSON; non-finite
/// values (which no metric should produce) render as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", sr::obs::escape_json(s))
}

/// Pins this process, and with it every child it starts later, to one CPU.
///
/// A closed loop with one client never runs client and daemon at the same
/// time, so one CPU loses nothing; what it removes is the scheduler's choice
/// between waking the peer on the same core (a `query` round trip of ~9 µs
/// here) or on another (~40 µs), which otherwise decides the serve numbers
/// per invocation. Uses `taskset` (util-linux); without it the run goes on
/// unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .to_string();
    // The last CPU of a list such as "0-1" or "0,2-3".
    let cpu: usize = allowed.rsplit([',', '-']).next()?.parse().ok()?;
    let done = std::process::Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    match done {
        Ok(s) if s.success() => Some(cpu),
        _ => {
            eprintln!("sysbench: taskset unavailable, running unpinned (serve timings depend on core placement)");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{median, quantile, tail_with_ten_beyond};

    #[test]
    fn quantile_interpolates_like_pythons_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert!(tail_with_ten_beyond(&[1.0; 19]).is_none());
        // 108 ops, as one paper64 translation: the 98th in order, p90.7.
        let v: Vec<f64> = (0..108).rev().map(f64::from).collect();
        let (value, percentile) = tail_with_ten_beyond(&v).expect("large enough");
        assert_eq!(value, 97.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((percentile - 97.0 / 107.0).abs() < 1e-12);
    }
}
