//! Order statistics and the metric record every workload reports.

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolation percentile, `p` in `[0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, which is how the spread of
/// a metric across runs is judged. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the steadiness measure the
/// benchmark prints beside each metric.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// One reported metric: its value and, for repeated measurements, how many
/// within-run repetitions produced it and how far they spread.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Within-run repetitions behind `value` (1 for single or exact values).
    pub reps: usize,
    /// IQR ÷ median over those repetitions, when `reps > 1`.
    pub spread: Option<f64>,
}

impl Metric {
    /// A single measured or exact value.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value, reps: 1, spread: None }
    }

    /// The median of repeated measurements, with their spread.
    pub fn repeated(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        Self::with_spread(name, unit, median(samples), samples)
    }

    /// A value estimated from repeated measurements some other way than by
    /// their median, with the repetitions' spread as its readout.
    pub fn with_spread(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            reps: samples.len(),
            spread: (samples.len() > 1).then(|| spread(samples)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&values) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(percentile(&values, 0.5), 2.5);
        assert!(median(&[]).is_nan());
    }
}
