//! Order statistics over small samples.

/// Sorted copy of a sample (NaNs would be a bug upstream: they panic here).
fn sorted(sample: &[f64]) -> Vec<f64> {
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    let v = sorted(sample);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the rule the acceptance check of
/// this benchmark is stated in.
pub fn quartiles(sample: &[f64]) -> (f64, f64) {
    let v = sorted(sample);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Python: j = k·(n+1) / 4 clipped to 1..n-1, δ = k·(n+1) mod 4.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (`0.0` when the median
/// is zero).
pub fn spread(sample: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sample);
    let m = median(sample);
    if m != 0.0 {
        (q3 - q1) / m.abs()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_quantile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.95) - 95.0).abs() < 1e-12);
    }
}
