//! Exact order statistics over raw samples.

/// Nearest-rank percentile of `samples` (`p` in `0..=1`): the smallest
/// sample with at least `p` of all samples at or below it. Exact — no
/// bucketing — so a 3 µs median is not quantised.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the `p` percentile: the evidence a reported
/// tail percentile rests on.
pub fn beyond(samples: &[u64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&s, 0.5), 500);
        assert_eq!(percentile(&s, 0.99), 990);
        assert_eq!(percentile(&s, 1.0), 1000);
        assert_eq!(beyond(&s, 0.99), 10);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
