//! Delivery of a [`BitFlip`] through the sweep hook interface.

use crate::BitFlip;
use abft_num::Real;
use abft_stencil::SweepHook;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a hook's record. The record is a plain value written whole, so a
/// panic elsewhere in the sweep that unwound through a hook call leaves it
/// valid: recover the guard instead of poisoning every later read.
fn lock<R>(record: &Mutex<R>) -> MutexGuard<'_, R> {
    record.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sweep hook that corrupts exactly one point: when the sweep computes
/// the value for the flip's `(x, y, z)`, the configured bit is flipped
/// before the value is stored — the paper's injection site (§5.1).
///
/// The hook records the `(clean, corrupted)` pair it produced so the
/// harness can report the corruption magnitude. Install it only on the
/// flip's target iteration; other iterations should sweep with
/// [`abft_stencil::NoHook`].
#[derive(Debug)]
pub struct FlipHook<T> {
    flip: BitFlip,
    observed: Mutex<Option<(T, T)>>,
}

impl<T: Real> FlipHook<T> {
    pub fn new(flip: BitFlip) -> Self {
        assert!(
            flip.bit < T::BITS,
            "bit {} out of range for a {}-bit float",
            flip.bit,
            T::BITS
        );
        Self {
            flip,
            observed: Mutex::new(None),
        }
    }

    /// The fault this hook delivers.
    pub fn flip(&self) -> BitFlip {
        self.flip
    }

    /// `(clean, corrupted)` values if the hook has fired.
    pub fn observed(&self) -> Option<(T, T)> {
        *lock(&self.observed)
    }

    /// Magnitude `|corrupted − clean|` of the delivered corruption, if the
    /// hook has fired and the corruption is finite.
    pub fn magnitude(&self) -> Option<T> {
        self.observed().map(|(clean, bad)| (bad - clean).abs_r())
    }
}

impl<T: Real> SweepHook<T> for FlipHook<T> {
    #[inline]
    fn transform(&self, x: usize, y: usize, z: usize, value: T) -> T {
        if (x, y, z) == (self.flip.x, self.flip.y, self.flip.z) {
            let corrupted = value.flip_bit(self.flip.bit);
            *lock(&self.observed) = Some((value, corrupted));
            corrupted
        } else {
            value
        }
    }
}

/// A sweep hook delivering **several** bit-flips in one sweep — used by
/// the multi-error campaigns (the paper handles one error per layer per
/// iteration; simultaneous errors are its future-work case).
#[derive(Debug)]
pub struct MultiFlipHook<T> {
    flips: Vec<BitFlip>,
    fired: Mutex<Vec<(BitFlip, T, T)>>,
}

impl<T: Real> MultiFlipHook<T> {
    pub fn new(flips: Vec<BitFlip>) -> Self {
        for f in &flips {
            assert!(f.bit < T::BITS, "bit {} out of range", f.bit);
        }
        Self {
            flips,
            fired: Mutex::new(Vec::new()),
        }
    }

    /// `(flip, clean, corrupted)` for every flip that fired.
    pub fn fired(&self) -> Vec<(BitFlip, T, T)> {
        lock(&self.fired).clone()
    }
}

impl<T: Real> SweepHook<T> for MultiFlipHook<T> {
    #[inline]
    fn transform(&self, x: usize, y: usize, z: usize, value: T) -> T {
        let mut v = value;
        for f in &self.flips {
            if (x, y, z) == (f.x, f.y, f.z) {
                let corrupted = v.flip_bit(f.bit);
                lock(&self.fired).push((*f, v, corrupted));
                v = corrupted;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{BoundarySpec, Grid3D};
    use abft_stencil::{Exec, Stencil3D, StencilSim};

    fn flip(x: usize, y: usize, z: usize, bit: u32) -> BitFlip {
        BitFlip {
            iteration: 0,
            x,
            y,
            z,
            bit,
        }
    }

    #[test]
    fn fires_only_at_target() {
        let h = FlipHook::<f32>::new(flip(1, 2, 0, 31));
        assert_eq!(h.transform(0, 0, 0, 5.0), 5.0);
        assert!(h.observed().is_none());
        assert_eq!(h.transform(1, 2, 0, 5.0), -5.0);
        assert_eq!(h.observed(), Some((5.0, -5.0)));
        assert_eq!(h.magnitude(), Some(10.0));
    }

    #[test]
    fn corrupts_exactly_one_grid_point_through_a_sweep() {
        let g = Grid3D::from_fn(6, 5, 2, |x, y, z| 1.0 + (x + y + z) as f32);
        let stencil = Stencil3D::seven_point(0.4f32, 0.1, 0.1, 0.1);
        let mut clean = StencilSim::new(g.clone(), stencil.clone(), BoundarySpec::clamp())
            .with_exec(Exec::Serial);
        let mut dirty = StencilSim::new(g, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
        clean.step();
        let h = FlipHook::<f32>::new(flip(3, 2, 1, 30));
        dirty.step_hooked(&h);
        let mut diffs = 0;
        for z in 0..2 {
            for y in 0..5 {
                for x in 0..6 {
                    if clean.current().at(x, y, z) != dirty.current().at(x, y, z) {
                        diffs += 1;
                        assert_eq!((x, y, z), (3, 2, 1));
                    }
                }
            }
        }
        assert_eq!(diffs, 1);
        assert!(h.observed().is_some());
    }

    #[test]
    fn double_flip_restores() {
        let h = FlipHook::<f64>::new(flip(0, 0, 0, 52));
        let v = 3.25f64;
        let once = h.transform(0, 0, 0, v);
        assert_eq!(once.flip_bit(52), v);
    }

    #[test]
    #[should_panic]
    fn bit_out_of_range_rejected() {
        let _ = FlipHook::<f32>::new(flip(0, 0, 0, 32));
    }

    #[test]
    fn a_panic_under_the_record_lock_does_not_poison_later_reads() {
        let h = FlipHook::<f32>::new(flip(1, 2, 0, 31));
        assert_eq!(h.transform(1, 2, 0, 5.0), -5.0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = lock(&h.observed);
            panic!("a sweep panics while the hook holds its record");
        }));
        assert!(unwound.is_err() && h.observed.is_poisoned());
        assert_eq!(h.observed(), Some((5.0, -5.0)));
        assert_eq!(h.transform(1, 2, 0, 7.0), -7.0);
        assert_eq!(h.observed(), Some((7.0, -7.0)));
    }

    #[test]
    fn multi_hook_fires_all_targets() {
        let h = MultiFlipHook::<f32>::new(vec![flip(1, 1, 0, 31), flip(2, 2, 0, 31)]);
        assert_eq!(h.transform(0, 0, 0, 1.0), 1.0);
        assert_eq!(h.transform(1, 1, 0, 2.0), -2.0);
        assert_eq!(h.transform(2, 2, 0, 3.0), -3.0);
        assert_eq!(h.fired().len(), 2);
    }

    #[test]
    fn multi_hook_stacks_flips_on_same_point() {
        // Two flips on the same point compose (bit 31 twice = identity).
        let h = MultiFlipHook::<f32>::new(vec![flip(1, 1, 0, 31), flip(1, 1, 0, 31)]);
        assert_eq!(h.transform(1, 1, 0, 5.0), 5.0);
        assert_eq!(h.fired().len(), 2);
    }
}
