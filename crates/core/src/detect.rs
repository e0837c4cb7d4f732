//! Theorem 2: error detection by comparing interpolated against computed
//! checksum vectors (§3.4), and the Fig. 5 scenario classification.

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

/// Diagnosis of one layer after both checksum vectors were compared —
/// the scenarios of the paper's Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerDiagnosis<T> {
    /// No mismatches anywhere.
    Clean,
    /// Exactly one row and one column mismatch: a single corrupted point
    /// at `(x, y)` (Fig. 5a) — correctable by Eq. 10.
    SingleError {
        x: usize,
        y: usize,
        row: Mismatch<T>,
        col: Mismatch<T>,
    },
    /// Mismatches on one side only: the corruption hit a checksum vector,
    /// not the domain (Fig. 5b) — refresh checksums from data.
    ChecksumCorruption {
        rows: Vec<Mismatch<T>>,
        cols: Vec<Mismatch<T>>,
    },
    /// Multiple rows *and* columns mismatch: several corrupted points;
    /// pairing is ambiguous (handled per [`crate::MultiErrorPolicy`]).
    MultiError {
        rows: Vec<Mismatch<T>>,
        cols: Vec<Mismatch<T>>,
    },
}

/// Classify one layer from its row-side and column-side mismatch lists.
pub fn classify_layer<T: Real>(
    rows: Vec<Mismatch<T>>,
    cols: Vec<Mismatch<T>>,
) -> LayerDiagnosis<T> {
    match (rows.len(), cols.len()) {
        (0, 0) => LayerDiagnosis::Clean,
        (1, 1) => LayerDiagnosis::SingleError {
            x: rows[0].index,
            y: cols[0].index,
            row: rows[0],
            col: cols[0],
        },
        (_, 0) | (0, _) => LayerDiagnosis::ChecksumCorruption { rows, cols },
        _ => LayerDiagnosis::MultiError { rows, cols },
    }
}

/// Pair row and column mismatches by checksum-delta magnitude (the
/// `DeltaMatch` policy): a single corrupted point shifts its row and its
/// column checksum by the *same* delta, so sorting both sides by delta
/// aligns genuine pairs. Pairs whose deltas disagree by more than
/// `tolerance` (relative) are dropped as unmatchable. A NaN delta (from a
/// NaN entry, or infinite ones on both sides, which [`compare_vectors`]
/// flags) sorts after every number whatever its sign bit, and matches
/// nothing.
pub fn pair_by_delta<T: Real>(
    rows: &[Mismatch<T>],
    cols: &[Mismatch<T>],
    tolerance: T,
) -> Vec<(Mismatch<T>, Mismatch<T>)> {
    let mut rs: Vec<Mismatch<T>> = rows.to_vec();
    let mut cs: Vec<Mismatch<T>> = cols.to_vec();
    let order = |a: &Mismatch<T>, b: &Mismatch<T>| {
        let (a, b) = (a.delta().to_f64(), b.delta().to_f64());
        (a.is_nan().cmp(&b.is_nan())).then(a.total_cmp(&b))
    };
    rs.sort_by(order);
    cs.sort_by(order);
    rs.iter()
        .zip(cs.iter())
        .filter(|(r, c)| {
            let (dr, dc) = (r.delta(), c.delta());
            let scale = dr.abs_r().max_r(dc.abs_r()).max_r(T::MIN_POSITIVE);
            (dr - dc).abs_r() <= tolerance * scale
        })
        .map(|(r, c)| (*r, *c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mm(index: usize, computed: f64, interpolated: f64) -> Mismatch<f64> {
        Mismatch {
            index,
            computed,
            interpolated,
        }
    }

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

    #[test]
    fn classify_clean() {
        assert_eq!(classify_layer::<f64>(vec![], vec![]), LayerDiagnosis::Clean);
    }

    #[test]
    fn classify_single() {
        let d = classify_layer(vec![mm(3, 10.0, 4.0)], vec![mm(7, 11.0, 5.0)]);
        match d {
            LayerDiagnosis::SingleError { x, y, .. } => {
                assert_eq!((x, y), (3, 7));
            }
            other => panic!("expected SingleError, got {other:?}"),
        }
    }

    #[test]
    fn classify_checksum_corruption() {
        let d = classify_layer::<f64>(vec![], vec![mm(2, 1.0, 9.0)]);
        assert!(matches!(d, LayerDiagnosis::ChecksumCorruption { .. }));
        let d = classify_layer::<f64>(vec![mm(2, 1.0, 9.0)], vec![]);
        assert!(matches!(d, LayerDiagnosis::ChecksumCorruption { .. }));
    }

    #[test]
    fn classify_multi() {
        let d = classify_layer(
            vec![mm(1, 1.0, 0.0), mm(2, 2.0, 0.0)],
            vec![mm(3, 1.0, 0.0), mm(4, 2.0, 0.0)],
        );
        assert!(matches!(d, LayerDiagnosis::MultiError { .. }));
    }

    #[test]
    fn delta_match_pairs_correctly() {
        // two errors: deltas +5 (row 1 / col 9) and -3 (row 4 / col 2)
        let rows = vec![mm(1, 5.0, 0.0), mm(4, -3.0, 0.0)];
        let cols = vec![mm(2, -3.0, 0.0), mm(9, 5.0, 0.0)];
        let pairs = pair_by_delta(&rows, &cols, 0.01);
        assert_eq!(pairs.len(), 2);
        let locs: Vec<(usize, usize)> = pairs.iter().map(|(r, c)| (r.index, c.index)).collect();
        assert!(locs.contains(&(1, 9)));
        assert!(locs.contains(&(4, 2)));
    }

    #[test]
    fn delta_match_drops_unmatched() {
        let rows = vec![mm(1, 5.0, 0.0)];
        let cols = vec![mm(2, -50.0, 0.0)];
        assert!(pair_by_delta(&rows, &cols, 0.01).is_empty());
    }

    /// `compare_vectors` flags NaN and infinite entries, so a layer can
    /// hand `DeltaMatch` a NaN delta: the finite pair is kept and the NaN
    /// one dropped as unmatchable (the layer is then uncorrectable),
    /// whatever the NaNs' sign bits.
    #[test]
    fn delta_match_keeps_the_finite_pair_beside_a_nan_delta() {
        for (row_nan, col_nan) in [(f64::NAN, f64::NAN), (-f64::NAN, f64::NAN)] {
            let rows = vec![mm(1, row_nan, 0.0), mm(4, 2.0, 0.0)];
            let cols = vec![mm(2, 2.0, 0.0), mm(9, col_nan, 0.0)];
            let pairs = pair_by_delta(&rows, &cols, 0.01);
            let locs: Vec<(usize, usize)> = pairs.iter().map(|(r, c)| (r.index, c.index)).collect();
            assert_eq!(locs, [(4, 2)], "row NaN {:#x}", row_nan.to_bits());
        }
    }
}
