//! Order statistics: nearest-rank percentiles with the "at least ten
//! samples beyond" rule, and the quartiles the noise self-check uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. Returns 0 for
/// an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples support reporting percentile `p`: a tail estimate
/// resting on fewer than ten samples beyond it is noise.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank && n - rank >= 10
}

/// The highest of the percentiles the benchmark reports (p50, p90, p95,
/// p99) that `n` samples [`supports`].
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 50.0].into_iter().find(|p| supports(n, *p))
}

/// The percentiles the benchmark reports for one timing, with the sample
/// count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len().max(1) as f64,
            p50: nearest_rank(samples, 50.0),
            p90: nearest_rank(samples, 90.0),
            p95: nearest_rank(samples, 95.0),
            p99: nearest_rank(samples, 99.0),
            max: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the self-check agrees with the
/// driver's acceptance rule. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 95.0), 95.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        // Five samples: p50 is the third, p95 the fifth.
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&w, 50.0), 35.0);
        assert_eq!(nearest_rank(&w, 30.0), 20.0);
        assert_eq!(nearest_rank(&w, 95.0), 50.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 leaves 5 % beyond: 200 samples leave exactly ten.
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        // p99 needs a thousand, the median twenty.
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
    }

    #[test]
    fn summary_and_the_highest_supported_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(50), Some(50.0));
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(400), Some(95.0));
        assert_eq!(highest_supported(2000), Some(99.0));
        let mut many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = Summary::of(&mut many);
        assert_eq!((s.n, s.max, s.mean), (2000, 2000.0, 1000.5));
        assert_eq!((s.p50, s.p90, s.p95, s.p99), (1000.0, 1800.0, 1900.0, 1980.0));
        assert_eq!(Summary::of(&mut []).mean, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[3.0]), None);
    }
}
