//! Percentiles with their sample counts.

/// A latency distribution summary; times in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub n: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten
    /// samples beyond it, and its value.
    pub top_label: &'static str,
    pub top_us: f64,
}

impl Timing {
    /// Whether `p99_us` rests on at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.n >= 1000
    }

    /// `n=… top=…` suffix for the report.
    pub fn describe(&self) -> String {
        format!(
            "n={} mean={:.2}us p90={:.2}us {}={:.2}us",
            self.n, self.mean_us, self.p90_us, self.top_label, self.top_us
        )
    }
}

/// Nearest-rank percentile of sorted samples.
fn rank(sorted: &[u32], p: f64) -> f64 {
    let idx = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    f64::from(sorted[idx.min(sorted.len() - 1)])
}

/// Summarize nanosecond samples (sorts them in place).
pub fn summarize(ns: &mut [u32]) -> Timing {
    if ns.is_empty() {
        return Timing {
            top_label: "none",
            ..Timing::default()
        };
    }
    ns.sort_unstable();
    let n = ns.len();
    let mean = ns.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64;
    let (top_label, top_p) = [
        ("p99.99", 99.99),
        ("p99.9", 99.9),
        ("p99", 99.0),
        ("p90", 90.0),
    ]
    .into_iter()
    .find(|&(_, p)| n as f64 * (1.0 - p / 100.0) >= 10.0)
    .unwrap_or(("p50", 50.0));
    Timing {
        n,
        mean_us: mean / 1e3,
        p50_us: rank(ns, 50.0) / 1e3,
        p90_us: rank(ns, 90.0) / 1e3,
        p99_us: rank(ns, 99.0) / 1e3,
        top_label,
        top_us: rank(ns, top_p) / 1e3,
    }
}

/// Percentiles of samples kept in arrival order, over up to ten
/// consecutive slices of at least 1000 samples each.
pub struct Sliced {
    pub slices: usize,
    /// The median over slices of each slice's percentile.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// The whole distribution, for its count, mean and tail.
    pub all: Timing,
}

impl Sliced {
    pub fn describe(&self) -> String {
        format!("{} slices={}", self.all.describe(), self.slices)
    }
}

pub fn sliced(ns: &[u32]) -> Sliced {
    const MAX_SLICES: usize = 10;
    let n = ns.len();
    let slices = (n / 1000).clamp(1, MAX_SLICES);
    let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..slices {
        let t = summarize(&mut ns[i * n / slices..(i + 1) * n / slices].to_vec());
        p50.push(t.p50_us);
        p90.push(t.p90_us);
        p99.push(t.p99_us);
    }
    Sliced {
        slices,
        p50_us: median(&mut p50),
        p90_us: median(&mut p90),
        p99_us: median(&mut p99),
        all: summarize(&mut ns.to_vec()),
    }
}

/// Typical per-op cost in ns: the samples (in arrival order) split into
/// nine consecutive chunks, the median of the chunk means. Robust to a
/// burst of slow ops in one chunk, and not rounded to whole ns.
pub fn chunked_mean_ns(ns: &[u32]) -> f64 {
    const CHUNKS: usize = 9;
    let size = ns.len().div_ceil(CHUNKS).max(1);
    let mut means: Vec<f64> = ns
        .chunks(size)
        .map(|c| c.iter().map(|&x| f64::from(x)).sum::<f64>() / c.len() as f64)
        .collect();
    median(&mut means)
}

/// The upper quartile of `values`: the third-highest of ten. Other
/// tenants of a shared machine only ever slow it, in episodes of about
/// a second; this keeps a quarter of the run but drops the slices they
/// hit.
pub fn upper_quartile(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    values.sort_by(|a, b| b.total_cmp(a));
    values[(values.len() - 1) / 4]
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.total_cmp(b));
    let m = values.len() / 2;
    if values.len() % 2 == 1 {
        values[m]
    } else {
        (values[m - 1] + values[m]) / 2.0
    }
}

/// Nanoseconds since `t0`, saturated into a `u32` sample (4.29 s max).
pub fn ns_since(t0: std::time::Instant, t: std::time::Instant) -> u32 {
    t.saturating_duration_since(t0)
        .as_nanos()
        .min(u128::from(u32::MAX)) as u32
}
