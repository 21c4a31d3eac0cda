//! Result plumbing: named metrics, quantiles, output digests and the one
//! JSON line the binary prints.

use edgellm_trace::Histogram;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    /// `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v, _)| (n.as_str(), *v))
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// keeps. Non-finite values (never expected) print as 0 so the line stays
/// valid JSON; callers flag them as errors first.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank quantile (the repository's own definition); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    Histogram::from_samples(samples.iter().copied()).quantile_or_zero(q)
}

/// Half-width of the window [`windowed_quantile`] averages over.
pub const QUANTILE_WINDOW: f64 = 0.05;

/// The mean of the order statistics between quantiles `q − 0.05` and
/// `q + 0.05`; 0 when empty. The real path's latency quantiles use this
/// rather than nearest rank: its four precisions each serve a quarter of
/// the requests in tight clusters, so the nearest-rank median lands on the
/// edge between two clusters and jumps between them from run to run.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    // The 1e-9 nudges keep products like 0.55 × 40 = 22.000000000000004
    // from widening the window by a rank.
    let lo = (((q - QUANTILE_WINDOW) * n + 1e-9).floor().max(0.0) as usize).min(s.len() - 1);
    let hi = (((q + QUANTILE_WINDOW) * n - 1e-9).ceil() as usize).clamp(lo + 1, s.len());
    let w = &s[lo..hi];
    w.iter().sum::<f64>() / w.len() as f64
}

/// Median of the samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over a stream of 64-bit words: the output digest two commits
/// compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float in by its bits.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (real path) or simulated requests (simulators) attempted.
    pub attempted: u64,
    /// Of those, completed with the expected output.
    pub completed: u64,
    /// Correctness failures, one message each.
    pub errors: Vec<String>,
    /// Digest of the fixed digest work (see each workload's docs).
    pub digest: u64,
    /// Wall time of the fixed digest work (s).
    pub digest_wall_s: f64,
    /// End-to-end metrics (every untraced run).
    pub e2e: Metrics,
    /// The real path's end-to-end times before host-speed scaling (empty
    /// on the simulators, whose figures are not scaled).
    pub raw: Metrics,
    /// Median host-speed scale applied to the real path's times (0 on the
    /// simulators).
    pub host_scale: f64,
    /// Per-layer metrics (filled in traced builds).
    pub layer: Metrics,
}

impl Outcome {
    /// Record a correctness failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

impl Outcome {
    /// Record the process's peak RSS so far as `peak_rss_mib`.
    pub fn record_peak_rss(&mut self) {
        match peak_rss_mib() {
            Some(rss) => self.e2e.put("peak_rss_mib", rss, "MiB"),
            None => self.fail("VmHWM unavailable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_quantiles_average_across_a_cluster_edge() {
        // Two equal clusters: nearest rank sits on the edge, the window
        // straddles it evenly.
        let xs: Vec<f64> = (0..40).map(|i| if i < 20 { 10.0 } else { 20.0 }).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(windowed_quantile(&xs, 0.5), 15.0);
        assert_eq!(windowed_quantile(&xs, 0.9), 20.0);
        assert_eq!(windowed_quantile(&[3.0], 0.9), 3.0);
        assert_eq!(windowed_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", 2.0, "s");
        m.put("a", 3.25, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 3.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}"
        );
    }
}
