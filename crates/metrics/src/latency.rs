//! A streaming quantile estimator for long latency streams, in O(1)
//! memory per quantile.
//!
//! Storing every sample to sort later (the [`crate::Quantiles`] approach)
//! does not fit an unbounded stream. The P² algorithm (Jain & Chlamtác,
//! CACM 1985) tracks one quantile with five markers whose positions are
//! nudged toward their ideal rank after every observation, interpolating
//! marker heights with a piecewise-parabolic fit — constant memory, one
//! pass, no buffering. Below five samples the estimate is exact (the
//! markers are still the sorted sample).

/// A single streaming quantile estimator (the P² algorithm).
///
/// Exact for the first five observations, then a constant-memory
/// approximation whose error shrinks as the stream grows (see the unit
/// tests for observed bounds on known distributions). From the fifth
/// observation on it returns its middle marker, which only approaches
/// quantile `p` as the stream grows: summarise a handful of samples with
/// [`crate::Quantiles`].
///
/// ```
/// use abft_metrics::P2Quantile;
/// let mut p99 = P2Quantile::new(0.99);
/// for ms in 1..=1000 {
///     p99.push(ms as f64 * 1e-3);
/// }
/// assert_eq!(p99.count(), 1000);
/// assert!((p99.estimate() - 0.99).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    /// The tracked quantile, in `[0, 1]`.
    p: f64,
    /// Marker heights (sorted sample below five observations).
    q: [f64; 5],
    /// Marker positions, 1-based as in the paper.
    n: [f64; 5],
    /// Observations seen so far.
    count: u64,
}

impl P2Quantile {
    /// Track quantile `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Self {
        Self {
            p: p.clamp(0.0, 1.0),
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            count: 0,
        }
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            let filled = self.count as usize;
            self.q[..filled].sort_by(crate::stats::nan_last);
            return;
        }
        self.count += 1;

        // Locate the cell and stretch the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[0] <= x < q[4]: exactly one k in 0..=3 has q[k] <= x < q[k+1].
            (0..4)
                .find(|&i| self.q[i] <= x && x < self.q[i + 1])
                .unwrap_or(3)
        };
        for n in &mut self.n[k + 1..] {
            *n += 1.0;
        }

        // Ideal marker positions for the current count.
        let last = (self.count - 1) as f64;
        let d = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for i in 1..4 {
            let desired = 1.0 + last * d[i];
            let diff = desired - self.n[i];
            let ahead = self.n[i + 1] - self.n[i];
            let behind = self.n[i - 1] - self.n[i];
            if (diff >= 1.0 && ahead > 1.0) || (diff <= -1.0 && behind < -1.0) {
                let step = diff.signum();
                let parabolic = self.parabolic(i, step);
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    self.linear(i, step)
                };
                self.n[i] += step;
            }
        }
    }

    /// Piecewise-parabolic height prediction (P²'s namesake formula).
    fn parabolic(&self, i: usize, step: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + step / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola would break marker monotonicity.
    fn linear(&self, i: usize, step: f64) -> f64 {
        let j = if step > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + step * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate; exact below five observations, NaN when empty.
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => f64::NAN,
            c if c < 5 => {
                // Exact type-7 quantile of the sorted prefix.
                let filled = c as usize;
                let pos = self.p * (filled - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                if lo == hi {
                    self.q[lo]
                } else {
                    let frac = pos - lo as f64;
                    self.q[lo] * (1.0 - frac) + self.q[hi] * frac
                }
            }
            _ => self.q[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-shuffle: visit 1..=n in LCG-permuted order so
    /// the streaming estimator never sees a sorted (easy) stream.
    fn permuted(n: u64) -> impl Iterator<Item = f64> {
        // Full-period LCG mod 2^20 restricted to 1..=n by rejection.
        let m = 1u64 << 20;
        let (a, c) = (1_664_525u64 % m, 1_013_904_223u64 % m);
        let mut x = 12345u64;
        std::iter::from_fn(move || loop {
            x = (a.wrapping_mul(x).wrapping_add(c)) % m;
            if (1..=n).contains(&x) {
                return Some(x as f64);
            }
        })
        .take(n as usize)
    }

    /// A median and a 99th-percentile estimator fed the same stream.
    fn p50_p99(stream: impl IntoIterator<Item = f64>) -> (P2Quantile, P2Quantile) {
        let (mut p50, mut p99) = (P2Quantile::new(0.50), P2Quantile::new(0.99));
        for x in stream {
            p50.push(x);
            p99.push(x);
        }
        (p50, p99)
    }

    #[test]
    fn empty_summary_is_nan() {
        let (p50, p99) = p50_p99([]);
        assert_eq!(p50.count(), 0);
        assert!(p50.estimate().is_nan());
        assert!(p99.estimate().is_nan());
    }

    #[test]
    fn small_samples_are_exact() {
        let (mut p50, _) = p50_p99([3.0, 1.0, 2.0]);
        assert_eq!(p50.estimate(), 2.0);
        // Four samples: type-7 interpolation like `Quantiles`.
        p50.push(4.0);
        assert_eq!(p50.estimate(), 2.5);
        let exact = crate::Quantiles::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p50.estimate(), exact.median());
    }

    #[test]
    fn constant_stream_collapses_to_the_constant() {
        let (p50, p99) = p50_p99(std::iter::repeat_n(0.25, 1000));
        assert_eq!(p50.estimate(), 0.25);
        assert_eq!(p99.estimate(), 0.25);
    }

    #[test]
    fn permutation_of_1_to_n_lands_near_true_quantiles() {
        // True quantiles of a permutation of 1..=10000 are known exactly;
        // P² must land within 2 % of the range on this adversarial
        // (integer, shuffled) stream.
        let n = 10_000u64;
        let (p50, p99) = p50_p99(permuted(n));
        assert_eq!(p50.count(), n);
        let range = n as f64;
        let (p50, p99) = (p50.estimate(), p99.estimate());
        assert!((p50 - 0.5 * range).abs() < 0.02 * range, "p50 = {p50}");
        assert!((p99 - 0.99 * range).abs() < 0.02 * range, "p99 = {p99}");
        // The landmark ordering always holds.
        assert!(1.0 <= p50 && p50 <= p99 && p99 <= range);
    }

    #[test]
    fn two_point_distribution_p99_finds_the_rare_mode() {
        // 95 % fast (1 ms), 5 % slow (100 ms) — p50 must sit on the fast
        // mode, p99 on the slow one: the shape a tail-latency summary
        // exists to expose.
        let stream = (0..2000).map(|i| if i % 20 == 19 { 0.100 } else { 0.001 });
        let (p50, p99) = p50_p99(stream);
        let (p50, p99) = (p50.estimate(), p99.estimate());
        assert!((p50 - 0.001).abs() < 0.005, "p50 = {p50}");
        assert!(p99 > 0.05, "p99 = {p99} missed the slow mode");
    }

    #[test]
    fn p2_matches_exact_quantiles_on_uniform_within_tolerance() {
        let data: Vec<f64> = permuted(5000).collect();
        let exact = crate::Quantiles::new(data.clone());
        let mut p50 = P2Quantile::new(0.5);
        let mut p99 = P2Quantile::new(0.99);
        for &x in &data {
            p50.push(x);
            p99.push(x);
        }
        assert!((p50.estimate() - exact.quantile(0.5)).abs() < 100.0);
        assert!((p99.estimate() - exact.quantile(0.99)).abs() < 100.0);
        assert_eq!(p50.count(), 5000);
    }
}
