//! Order statistics for timings.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, always with the sample
//! count, so a tail figure never rests on one or two outliers.

/// Samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The `p`-th percentile (0–100) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it. NaN
/// for no samples, which the run then reports as a failure.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// Median of unsorted samples (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn supports(n: usize, p: f64) -> bool {
    n >= rank(n, p) + MIN_BEYOND
}

/// The highest candidate percentile `n` samples support, or `None` when
/// even p75 has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| supports(n, p))
}

/// The 99th percentile of unsorted samples, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// Names the shortfall when the series is too short for a p99.
pub fn p99(samples: &[f64]) -> Result<f64, String> {
    if supports(samples.len(), 99.0) {
        Ok(percentile(&sorted(samples), 99.0))
    } else {
        Err(format!(
            "{} samples cannot support a p99 (at least {} needed)",
            samples.len(),
            100 * MIN_BEYOND
        ))
    }
}

/// Median, tail and count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarises a series by the rule in the module docs.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        count: s.len(),
        p50: percentile(&s, 50.0),
        tail: highest_supported(s.len()).map(|p| (p, percentile(&s, p))),
    }
}

impl Summary {
    /// The summary as a JSON object for the record line.
    pub fn to_json(self) -> crate::report::Json {
        use crate::report::Json;
        let (p, v) = self.tail.map_or((Json::Null, Json::Null), |(p, v)| {
            (Json::Num(p), Json::Num(v))
        });
        Json::object(vec![
            ("samples", Json::Num(self.count as f64)),
            ("p50", Json::Num(self.p50)),
            ("tail_percentile", p),
            ("tail", v),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(39), None);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.tail, Some((99.0, 1979.0)));
        assert_eq!(summarize(&[1.0; 5]).tail, None);
        assert_eq!(p99(&v), Ok(1979.0));
        assert!(p99(&v[..999]).is_err());
    }
}
