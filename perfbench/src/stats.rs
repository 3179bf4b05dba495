//! Order statistics over one run's samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between order statistics; `NaN` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs` (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples beyond it, with its value: `(percentile, value)`. Falls back
/// to the median when fewer than twenty samples exist.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    for p in [99.9, 99.0, 98.0, 95.0, 90.0, 75.0] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            return (p, quantile(xs, p / 100.0));
        }
    }
    (50.0, median(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99.0);
        assert_eq!(tail(&xs[..999]).0, 98.0);
        assert_eq!(tail(&xs[..15]).0, 50.0);
    }
}
