//! Theorem 2: error detection by comparing interpolated against computed
//! checksum vectors (§3.4).

use abft_num::Real;

/// One checksum-vector entry whose interpolated and computed values
/// disagree beyond the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatch<T> {
    /// Index within the vector (a row `x` or a column `y`).
    pub index: usize,
    /// Checksum computed from the swept data (Eqs. 2–3).
    pub computed: T,
    /// Checksum interpolated from the previous iteration (Eqs. 4–5).
    pub interpolated: T,
}

impl<T: Real> Mismatch<T> {
    /// Checksum excess attributable to the corruption:
    /// `computed − interpolated` (for a single corrupted point this equals
    /// `corrupted − correct`).
    pub fn delta(&self) -> T {
        self.computed - self.interpolated
    }
}

/// Compare one interpolated checksum vector against the vector computed
/// from data, flagging entries whose deviation exceeds the threshold.
///
/// Following the paper (Fig. 4) the comparison is relative —
/// `|interp/computed − 1| > ε` — except that denominators smaller than
/// `floor` are replaced by `floor`, which keeps near-zero checksum entries
/// (possible in zero-mean domains; never in HotSpot3D) from amplifying
/// rounding noise into false positives.
pub fn compare_vectors<T: Real>(
    interpolated: &[T],
    computed: &[T],
    epsilon: T,
    floor: T,
) -> Vec<Mismatch<T>> {
    assert_eq!(interpolated.len(), computed.len(), "vector length mismatch");
    let mut out = Vec::new();
    for (index, (&ip, &cp)) in interpolated.iter().zip(computed).enumerate() {
        let denom = cp.abs_r().max_r(floor);
        let deviating = if ip.is_finite_r() && cp.is_finite_r() {
            (ip - cp).abs_r() > epsilon * denom
        } else {
            // An overflow/NaN in either vector is always a detection
            // (bit-flips in the exponent can push checksums to ±inf).
            !(ip.is_nan_r() && cp.is_nan_r()) && ip.to_bits_u64() != cp.to_bits_u64()
        };
        if deviating {
            out.push(Mismatch {
                index,
                computed: cp,
                interpolated: ip,
            });
        }
    }
    out
}

/// Whether [`compare_vectors`] would flag any entry, without building
/// its list: the clean-vector pre-pass of every verification.
///
/// One branch-free pass clears a vector whose every deviation is within a
/// finite threshold — such an entry is finite on both sides and not
/// flagged. Only when some entry is not cleared (NaN, ±inf, a deviation
/// past the threshold, or a threshold that is itself not finite) does
/// [`compare_vectors`] itself decide, so the answer is exactly whether it
/// flags one.
pub(crate) fn any_deviating<T: Real>(
    interpolated: &[T],
    computed: &[T],
    epsilon: T,
    floor: T,
) -> bool {
    assert_eq!(interpolated.len(), computed.len(), "vector length mismatch");
    let cleared = |(&ip, &cp): (&T, &T)| {
        let bar = epsilon * cp.abs_r().max_r(floor);
        (ip - cp).abs_r() <= bar && bar.is_finite_r()
    };
    let all_cleared = interpolated
        .iter()
        .zip(computed)
        .fold(true, |all, e| all & cleared(e));
    !all_cleared && !compare_vectors(interpolated, computed, epsilon, floor).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compare_flags_only_deviations() {
        let computed = [100.0, 200.0, 300.0];
        let interp = [100.0000001, 210.0, 300.0];
        let mms = compare_vectors(&interp, &computed, 1e-5, 1.0);
        assert_eq!(mms.len(), 1);
        assert_eq!(mms[0].index, 1);
        assert_eq!(mms[0].delta(), -10.0);
    }

    #[test]
    fn compare_is_relative() {
        // deviation of 0.5 on a value of 1e6 is below 1e-5 relative
        let mms = compare_vectors(&[1_000_000.5], &[1_000_000.0], 1e-5, 1.0);
        assert!(mms.is_empty());
        // but the same absolute deviation on 1.0 is way above
        let mms = compare_vectors(&[1.5], &[1.0], 1e-5, 1.0);
        assert_eq!(mms.len(), 1);
    }

    #[test]
    fn compare_floor_prevents_near_zero_blowup() {
        // tiny rounding noise on a near-zero checksum must not flag
        let mms = compare_vectors(&[1e-12], &[0.0], 1e-5, 1.0);
        assert!(mms.is_empty());
        // but a real deviation on a near-zero checksum still flags
        let mms = compare_vectors(&[0.5], &[0.0], 1e-5, 1.0);
        assert_eq!(mms.len(), 1);
    }

    #[test]
    fn compare_handles_infinities() {
        let mms = compare_vectors(&[f64::INFINITY], &[1.0], 1e-5, 1.0);
        assert_eq!(mms.len(), 1);
        let mms = compare_vectors(&[1.0], &[f64::NEG_INFINITY], 1e-5, 1.0);
        assert_eq!(mms.len(), 1);
        // both inf with same sign: bitwise equal -> not flagged (the data
        // checksum agrees with the prediction; nothing to locate)
        let mms = compare_vectors(&[f64::INFINITY], &[f64::INFINITY], 1e-5, 1.0);
        assert!(mms.is_empty());
    }

    /// `x` moved `steps` ulps towards +∞ (towards −∞ for negative steps).
    fn ulps<T: Real>(x: T, steps: i64) -> T {
        let shift = |x: T, up: bool| {
            if x == T::ZERO {
                let tiny = T::from_bits_u64(1);
                return if up { tiny } else { T::ZERO - tiny };
            }
            let away = (x > T::ZERO) == up;
            let bits = x.to_bits_u64();
            T::from_bits_u64(if away { bits + 1 } else { bits - 1 })
        };
        (0..steps.unsigned_abs()).fold(x, |x, _| shift(x, steps > 0))
    }

    /// A drawn entry pair: `computed` from a pool of specials and plain
    /// magnitudes (some below the floor), `interpolated` either special
    /// too or one of a few ulps either side of `computed ± ε·max(|c|,
    /// floor)`, the threshold's own edge.
    fn entry<T: Real>(kind: (usize, usize, f64, i64, bool), epsilon: T, floor: T) -> (T, T) {
        let (ck, ik, mag, step, up) = kind;
        let special = |k: usize| match k {
            0 => T::from_f64(f64::NAN),
            1 => T::from_f64(f64::INFINITY),
            2 => T::from_f64(f64::NEG_INFINITY),
            3 => T::ZERO,
            4 => T::from_f64(-0.0),
            5 => T::MIN_POSITIVE,
            _ => T::from_f64(mag),
        };
        let cp = match ck {
            0..=4 => special(ck),
            5 => floor * T::from_f64(mag.abs().fract() * 0.5),
            _ => T::from_f64(mag),
        };
        let bar = epsilon * cp.abs_r().max_r(floor);
        let ip = match ik {
            0..=5 => special(ik),
            _ => ulps(if up { cp + bar } else { cp - bar }, step),
        };
        (ip, cp)
    }

    fn pre_pass_equals_compare<T: Real>(
        kinds: &[(usize, usize, f64, i64, bool)],
        epsilon: f64,
        floor: f64,
    ) -> Result<(), TestCaseError> {
        let (epsilon, floor) = (T::from_f64(epsilon), T::from_f64(floor));
        let (ip, cp): (Vec<T>, Vec<T>) = kinds.iter().map(|&k| entry(k, epsilon, floor)).unzip();
        let flagged = !compare_vectors(&ip, &cp, epsilon, floor).is_empty();
        prop_assert_eq!(
            any_deviating(&ip, &cp, epsilon, floor),
            flagged,
            "{:?} vs {:?}",
            ip,
            cp
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// The pre-pass says "deviating" exactly when `compare_vectors`
        /// flags some entry, over `f32` and `f64` vectors mixing NaN, ±inf,
        /// ±0, the smallest normal, magnitudes below the floor and entries
        /// a few ulps either side of `ε·max(|c|, floor)`.
        #[test]
        fn pre_pass_equals_compare_vectors(
            kinds in proptest::collection::vec(
                (0usize..9, 0usize..10, -1e3f64..1e3, -2i64..=2, any::<bool>()),
                0..12,
            ),
            epsilon in prop_oneof![Just(1e-5f64), Just(1e-9), 1e-12f64..1e-2],
            floor in prop_oneof![Just(1.0f64), Just(1e-30), 1e-6f64..1e3],
        ) {
            pre_pass_equals_compare::<f32>(&kinds, epsilon, floor)?;
            pre_pass_equals_compare::<f64>(&kinds, epsilon, floor)?;
        }
    }
}
