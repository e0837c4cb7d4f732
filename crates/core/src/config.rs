//! Protector configuration.

use abft_num::Real;

/// Configuration shared by the online and offline protectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbftConfig<T> {
    /// Relative-error detection threshold ε (§3.4; the paper uses `1e-5`
    /// for f32 tiles up to 512×512).
    pub epsilon: T,
    /// Absolute floor for the detection denominator: a checksum entry with
    /// magnitude below this floor is compared absolutely
    /// (`|Δ| > ε·floor`) instead of relatively, which keeps zero-mean
    /// domains from raising false positives on near-zero checksums.
    /// The paper's HotSpot3D sums are always ≫ 1, so this never triggers
    /// there. Default `1.0`.
    pub abs_floor: T,
    /// Offline verification period Δ in iterations (§4; the paper's
    /// default is 16). Ignored by the online protector.
    pub period: usize,
    /// Offline: maximum rollback/recompute attempts per verification
    /// window before giving up (a second fault during recomputation is
    /// possible in an error-prone environment).
    pub max_rollback_retries: usize,
}

impl<T: Real> AbftConfig<T> {
    /// Paper-faithful defaults for the float type: ε = 1e-5 for `f32`
    /// (Table 1), ε = 1e-11 for `f64` (same headroom relative to the
    /// machine epsilon), Δ = 16.
    pub fn paper_defaults() -> Self {
        let epsilon = if T::BITS == 32 { 1e-5 } else { 1e-11 };
        AbftConfig {
            epsilon: T::from_f64(epsilon),
            abs_floor: T::ONE,
            period: 16,
            max_rollback_retries: 3,
        }
    }

    /// Override the detection threshold.
    pub fn with_epsilon(mut self, eps: T) -> Self {
        self.epsilon = eps;
        self
    }

    /// Override the offline verification period.
    pub fn with_period(mut self, period: usize) -> Self {
        assert!(period > 0, "detection period must be at least 1");
        self.period = period;
        self
    }
}

impl<T: Real> Default for AbftConfig<T> {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1() {
        let c = AbftConfig::<f32>::paper_defaults();
        assert_eq!(c.epsilon, 1e-5);
        assert_eq!(c.period, 16);
    }

    #[test]
    fn f64_threshold_is_tighter() {
        let c = AbftConfig::<f64>::paper_defaults();
        assert!(c.epsilon < 1e-9);
    }

    #[test]
    fn builder_methods() {
        let c = AbftConfig::<f32>::paper_defaults()
            .with_epsilon(1e-4)
            .with_period(8);
        assert_eq!(c.epsilon, 1e-4);
        assert_eq!(c.period, 8);
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = AbftConfig::<f32>::paper_defaults().with_period(0);
    }
}
