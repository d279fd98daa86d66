//! Sample statistics. Every reported timing is a median (and, where a tail
//! is named, the highest percentile the sample supports), never a mean or a
//! total: on a shared two-core box medians repeat within a few percent where
//! totals and raw p90s do not.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the middle two for an even count, 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (0..=1) by nearest rank, 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES_BEYOND: f64 = 10.0;

/// The percentile a `_p90` metric actually reports for `n` samples: 0.9 when
/// at least ten samples lie beyond it (n ≥ 100), otherwise the highest
/// percentile that still has ten beyond, and never below the median.
pub fn supported_tail(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_SAMPLES_BEYOND / n as f64).clamp(0.5, 0.9)
}

/// The tail value of `values` at [`supported_tail`] (exactly the median
/// when that is all the sample supports).
pub fn tail(values: &[f64]) -> f64 {
    match supported_tail(values.len()) {
        p if p > 0.5 => percentile(values, p),
        _ => median(values),
    }
}

/// Geometric mean of positive values, 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default "exclusive"
/// method) — the spread the benchmark's acceptance is judged by. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    let at = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A value as it goes into JSON: every digit `f64` carries, and 0 for a
/// non-finite value (JSON has no NaN).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples support p90: ten lie beyond it.
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(1000), 0.9);
        // 40 samples support only p75; 20 or fewer fall back to the median.
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(20), 0.5);
        assert_eq!(supported_tail(3), 0.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), 90.0);
        assert_eq!(tail(&values[..40]), 30.0);
        assert_eq!(tail(&values[..5]), median(&values[..5]));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn geomean_and_json_numbers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
