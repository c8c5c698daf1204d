//! Measurement plumbing: process memory, result digests, phase spans and
//! order statistics.

use std::fmt::Write as _;
use std::time::Instant;

use netsim::Stats;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`); `0` where the
/// file is unavailable.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size of this process, kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

/// FNV-1a over the `Debug` rendering of a run's deterministic statistics:
/// equal digests mean byte-identical `Stats`.
pub fn stats_digest(stats: &Stats) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, format!("{stats:?}").as_bytes())
}

/// Folds `bytes` into an FNV-1a state.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One coarse phase (parse, compile, deploy, attach, run, verdict, …) of
/// one run or scenario, in microseconds since the process clock's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Phase name.
    pub name: &'static str,
    /// The run (`r3`) or scenario (`r3/s17`) the phase belongs to.
    pub id: String,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

/// A monotonic clock with a fixed epoch and an in-memory span log, written
/// out when the benchmark ends.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn new() -> Clock {
        Clock { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records the span `[start_ns, end_ns]`.
    pub fn span(&mut self, name: &'static str, id: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            id: id.to_string(),
            start_us: start_ns as f64 / 1e3,
            end_us: end_ns as f64 / 1e3,
        });
    }

    /// The span log as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name, s.id, s.start_us, s.end_us
            );
        }
        out.push(']');
        out
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between order statistics; `0` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn status_fields_parse() {
        assert!(status_kb("VmHWM") > 0);
        assert!(rss_kb() > 0);
        assert_eq!(status_kb("NoSuchField"), 0);
    }
}
