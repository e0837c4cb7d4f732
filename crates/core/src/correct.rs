//! What a repair did (the paper's Fig. 6 records the corrected point; the
//! online protector repairs by sweeping the point's layer again).

use abft_num::Real;

/// Record of one corrected domain point, in the coordinates of the box
/// the protector verified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionEvent<T> {
    /// Layer of the corrected point.
    pub z: usize,
    /// Row of the corrected point.
    pub x: usize,
    /// Column of the corrected point.
    pub y: usize,
    /// Corrupted value found in the domain.
    pub old: T,
    /// Recovered value written back: what a clean sweep writes there.
    pub new: T,
}

impl<T: Real> CorrectionEvent<T> {
    /// Magnitude of the repaired corruption.
    pub fn magnitude(&self) -> T {
        (self.new - self.old).abs_r()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_reports_repair_size() {
        let ev = CorrectionEvent {
            z: 0,
            x: 0,
            y: 0,
            old: 5.0f64,
            new: 2.0,
        };
        assert_eq!(ev.magnitude(), 3.0);
    }
}
