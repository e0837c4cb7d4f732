//! Summary statistics for experiment campaigns.

use std::cmp::Ordering;

/// Welford's online mean/variance accumulator — numerically stable for
/// long campaigns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Exact quantiles of a sample (sorts a copy; linear interpolation
/// between order statistics, the common "type 7" definition).
#[derive(Debug, Clone)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Build from a sample: numbers sort ascending with ±∞ at the ends,
    /// and every NaN sorts after every number.
    pub fn new(mut data: Vec<f64>) -> Self {
        data.sort_by(nan_last);
        Self { sorted: data }
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Quantile `q ∈ [0, 1]`; NaN for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }
}

/// Ascending order with ±∞ at the ends and every NaN after every number,
/// whatever its sign bit. ±0 compare equal, so a sample without NaN sorts
/// as `partial_cmp` sorts it.
pub(crate) fn nan_last(a: &f64, b: &f64) -> Ordering {
    let numbers = a.partial_cmp(b).unwrap_or(Ordering::Equal);
    a.is_nan().cmp(&b.is_nan()).then(numbers)
}

/// Boxplot statistics as drawn in the paper's Fig. 10: box = interquartile
/// range (Q1–Q3), whiskers at the 12.5 % and 87.5 % quantiles (the paper's
/// "whiskers extend to 75 %" of the data), plus median/min/max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    pub min: f64,
    pub whisker_lo: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub whisker_hi: f64,
    pub max: f64,
}

impl BoxStats {
    /// Compute from a sample; NaN-filled for an empty sample.
    pub fn from_sample(data: Vec<f64>) -> Self {
        let q = Quantiles::new(data);
        Self {
            min: q.min(),
            whisker_lo: q.quantile(0.125),
            q1: q.quantile(0.25),
            median: q.median(),
            q3: q.quantile(0.75),
            whisker_hi: q.quantile(0.875),
            max: q.max(),
        }
    }
}

/// One-pass summary: mean ± std plus quantile landmarks — the shape of the
/// bars in the paper's Figs. 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    pub fn from_sample(data: &[f64]) -> Self {
        let mut w = Welford::new();
        for &x in data {
            w.push(x);
        }
        let q = Quantiles::new(data.to_vec());
        Self {
            count: w.count(),
            mean: w.mean(),
            std_dev: w.std_dev(),
            min: q.min(),
            median: q.median(),
            max: q.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for x in data {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // sample variance of this classic dataset is 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let q = Quantiles::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.median(), 2.5);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 4.0);
        assert_eq!(q.quantile(0.25), 1.75);
    }

    #[test]
    fn quantiles_empty_is_nan() {
        let q = Quantiles::new(vec![]);
        assert!(q.median().is_nan());
    }

    #[test]
    fn quantiles_sort_nan_after_every_number() {
        let q = Quantiles::new(vec![5.0, 4.0, f64::NAN, 2.0, 1.0]);
        assert_eq!((q.min(), q.median(), q.quantile(0.75)), (1.0, 4.0, 5.0));
        assert!(q.max().is_nan());
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let q = Quantiles::new(vec![inf, -nan, 3.0, -inf, nan, -0.0, 0.0]);
        assert_eq!(q.sorted[..5], [-inf, -0.0, 0.0, 3.0, inf]);
        assert!(q.sorted[1].is_sign_negative(), "±0 keep their order");
        assert!(q.sorted[5..].iter().all(|v| v.is_nan()));
        // P² sorts its first five observations the same way.
        let mut p2 = crate::P2Quantile::new(0.5);
        for x in [3.0, nan, 1.0] {
            p2.push(x);
        }
        assert_eq!(p2.estimate(), 3.0);
    }

    #[test]
    fn box_stats_ordering() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = BoxStats::from_sample(data);
        assert!(b.min <= b.whisker_lo);
        assert!(b.whisker_lo <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_hi);
        assert!(b.whisker_hi <= b.max);
        assert!((b.median - 49.5).abs() < 1e-12);
    }

    #[test]
    fn summary_combines_both() {
        let s = Summary::from_sample(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
