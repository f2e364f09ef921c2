//! Small helpers shared by the workloads: timing, order statistics, the
//! JSON writer for the result record, and the process's memory high-water
//! mark.

use std::fmt::Write as _;
use std::time::Instant;

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Run `f` and return its result with its wall time in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, ns_since(t0))
}

/// Per-repetition figures of a measured window. Throughput is the
/// window's operations over the repetitions' summed wall time; each
/// latency figure is the median over the repetitions, so host noise that
/// covers a few repetitions does not move it.
#[derive(Default)]
pub struct Reps {
    rate: Vec<f64>,
    ops: u64,
    wall_ns: u64,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Reps {
    /// Close one repetition: `ops` operations in `wall_ns` of their own
    /// wall time, with per-operation latencies `latency_ns` (drained).
    pub fn push(&mut self, ops: u64, wall_ns: u64, latency_ns: &mut Vec<u64>) {
        self.rate.push(ops as f64 / (wall_ns as f64 / 1e9));
        self.ops += ops;
        self.wall_ns += wall_ns;
        let us: Vec<f64> = latency_ns.drain(..).map(|n| n as f64 / 1e3).collect();
        self.p50_us.push(percentile(&us, 50.0));
        self.p99_us.push(percentile(&us, 99.0));
    }

    pub fn len(&self) -> usize {
        self.rate.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// Operations per second of the repetitions' summed wall time. The
    /// host's speed on a shared machine switches between states within a
    /// run, which makes per-repetition rates multimodal; their median
    /// jumps with the share of time in each state, the aggregate moves in
    /// proportion to it.
    pub fn rate(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Median over repetitions of the repetition's median latency, in µs.
    pub fn p50_us(&self) -> f64 {
        median(&self.p50_us)
    }

    /// Median over repetitions of the repetition's 99th percentile, in µs.
    pub fn p99_us(&self) -> f64 {
        median(&self.p99_us)
    }

    /// Inter-quartile range over median of the per-repetition rates.
    pub fn spread(&self) -> f64 {
        rel_iqr(&self.rate)
    }
}

/// Host-time samples with bounded memory: every value up to [`Samples::CAP`],
/// then a uniform reservoir sample of all values seen. Keeps a run's
/// memory independent of how many operations the program completes.
pub struct Samples {
    kept: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples { kept: Vec::new(), seen: 0, rng: 0x9e37_79b9_7f4a_7c15 }
    }
}

impl Samples {
    pub const CAP: usize = 1 << 14;

    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(ns);
            return;
        }
        // xorshift64: the replacement choice needs no quality beyond
        // uniformity, and a fixed seed keeps it reproducible.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < Self::CAP {
            self.kept[j as usize] = ns;
        }
    }

    /// Number of values pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Median of the kept values, in `ns / per_unit`.
    pub fn median(&self, per_unit: f64) -> f64 {
        median_ns(&self.kept, per_unit)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts);
/// 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a share of the median — the run's own spread
/// of a per-repetition value. 0 with fewer than two repetitions.
pub fn rel_iqr(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (percentile(samples, 75.0) - percentile(samples, 25.0)) / m
}

/// Median of nanosecond samples, in the requested unit divisor (1e3 for
/// µs, 1e6 for ms).
pub fn median_ns(samples: &[u64], per_unit: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&n| n as f64 / per_unit).collect();
    median(&v)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(total, steal)` CPU ticks from `/proc/stat`, where available:
/// the share of time the hypervisor ran something else on this machine's
/// CPUs, recorded beside every result.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Relative closeness used for floating-point kernel results.
pub fn close(got: &[f64], want: &[f64], rel: f64) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= rel * (1.0 + w.abs()))
}

/// Bitwise equality of two result vectors (NaN-safe).
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A minimal JSON value: enough for the result record.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest string that round-trips, so the
                // record keeps every digit the measurement has.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).render(out);
                    out.push_str(": ");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(rel_iqr(&[5.0]), 0.0);
    }

    #[test]
    fn samples_stay_bounded() {
        let mut s = Samples::default();
        for i in 0..(Samples::CAP as u64 * 2) {
            s.push(i % 1000);
        }
        assert_eq!(s.seen(), Samples::CAP as u64 * 2);
        assert_eq!(s.kept.len(), Samples::CAP);
        let p50 = s.median(1.0);
        assert!((450.0..=550.0).contains(&p50), "{p50}");
    }

    #[test]
    fn json_renders_round_trippable_numbers() {
        let mut s = String::new();
        Json::obj(vec![
            ("a", Json::Num(0.1)),
            ("b", Json::Int(7)),
            ("c", Json::Str("x\"y".into())),
            ("d", Json::Num(f64::NAN)),
        ])
        .render(&mut s);
        assert_eq!(s, r#"{"a": 0.1, "b": 7, "c": "x\"y", "d": null}"#);
    }
}
