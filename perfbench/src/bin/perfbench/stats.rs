//! Percentiles over raw samples and deltas of the program's `Obs`
//! snapshots, taken over the measured phase only.

use conditional_messaging::mq::{HistogramSnapshot, MetricsSnapshot};

/// A percentile with the number of samples it was taken from.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Of `samples` values, how many lie strictly beyond percentile `q`'s rank.
pub fn beyond(samples: usize, q: f64) -> usize {
    samples - ((samples as f64 * q).ceil() as usize).min(samples)
}

/// Percentile `q` in `[0, 1]` by linear interpolation between closest
/// ranks; 0 with no samples.
pub fn pct(samples: &[f64], q: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    };
    Pct {
        value,
        samples: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5).value
}

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The change of every metric between two snapshots of one hub.
pub struct Delta<'a> {
    pub start: &'a MetricsSnapshot,
    pub end: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        self.end
            .counter(name)
            .saturating_sub(self.start.counter(name))
    }

    /// The histogram's samples recorded between the two snapshots.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let end = self.end.histograms.get(name)?;
        let mut d = end.clone();
        if let Some(start) = self.start.histograms.get(name) {
            for (b, s) in d.buckets.iter_mut().zip(&start.buckets) {
                *b = b.saturating_sub(*s);
            }
            d.count = d.count.saturating_sub(start.count);
            d.sum = d.sum.saturating_sub(start.sum);
        }
        Some(d)
    }

    /// Quantile `q` of the histogram delta, interpolated linearly inside
    /// the bucket holding the rank, with its sample count.
    pub fn histogram_pct(&self, name: &str, q: f64) -> Pct {
        let Some(h) = self.histogram(name) else {
            return Pct {
                value: 0.0,
                samples: 0,
            };
        };
        Pct {
            value: bucket_quantile(&h, q),
            samples: h.count as usize,
        }
    }
}

fn bucket_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let lo = if i == 0 { 0 } else { h.bounds[i - 1] } as f64;
            let hi = h.bounds.get(i).map_or(h.max as f64, |&b| b as f64).max(lo);
            return lo + (hi - lo) * ((rank - seen) / c);
        }
        seen += c;
    }
    h.max as f64
}

/// Machine-wide CPU time in ticks since boot: (stolen by the hypervisor,
/// total), from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&s, 0.0).value, 1.0);
        assert_eq!(pct(&s, 1.0).value, 100.0);
        assert!((pct(&s, 0.5).value - 50.5).abs() < 1e-9);
        assert_eq!(beyond(s.len(), 0.99), 1);
        assert_eq!(pct(&[], 0.5).value, 0.0);
    }

    #[test]
    fn bucket_interpolation() {
        let h = HistogramSnapshot {
            bounds: vec![10, 20],
            buckets: vec![0, 10, 0],
            count: 10,
            sum: 150,
            max: 20,
        };
        assert!((bucket_quantile(&h, 0.5) - 15.0).abs() < 1e-9);
        assert!((bucket_quantile(&h, 1.0) - 20.0).abs() < 1e-9);
    }
}
