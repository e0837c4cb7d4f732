//! Ping-pong double buffering for time stepping.

use crate::Grid3D;
use abft_num::Real;

/// The classic stencil double buffer: sweep reads `src`, writes `dst`,
/// then the roles swap.
///
/// Keeping the *previous* iteration alive is load-bearing for the ABFT
/// scheme: when an error is detected the paper's single-checksum recipe
/// reconstructs the row checksum of iteration `t` from the still-live `t`
/// buffer (§3.2 "only one checksum must be computed every iteration").
#[derive(Debug, Clone)]
pub struct DoubleBuffer<T> {
    a: Grid3D<T>,
    b: Grid3D<T>,
    /// If true, `a` is current; else `b`.
    a_is_current: bool,
}

impl<T: Real> DoubleBuffer<T> {
    /// Create from an initial state; the scratch buffer is a copy.
    pub fn new(initial: Grid3D<T>) -> Self {
        let b = initial.clone();
        Self {
            a: initial,
            b,
            a_is_current: true,
        }
    }

    /// The current (time-`t`) grid.
    pub fn current(&self) -> &Grid3D<T> {
        if self.a_is_current {
            &self.a
        } else {
            &self.b
        }
    }

    /// The previous grid (time `t-1` right after a [`DoubleBuffer::swap`];
    /// scratch otherwise).
    pub fn previous(&self) -> &Grid3D<T> {
        if self.a_is_current {
            &self.b
        } else {
            &self.a
        }
    }

    /// Mutable access to the current grid (e.g. for in-place correction).
    pub fn current_mut(&mut self) -> &mut Grid3D<T> {
        if self.a_is_current {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Disjoint `(src, dst)` pair for a sweep: `src` is the current grid,
    /// `dst` the scratch one.
    pub fn split(&mut self) -> (&Grid3D<T>, &mut Grid3D<T>) {
        if self.a_is_current {
            (&self.a, &mut self.b)
        } else {
            (&self.b, &mut self.a)
        }
    }

    /// The last sweep's `(src, dst)` pair after its [`DoubleBuffer::swap`]:
    /// the previous grid, and the current one to sweep part of again.
    pub fn last_sweep(&mut self) -> (&Grid3D<T>, &mut Grid3D<T>) {
        if self.a_is_current {
            (&self.b, &mut self.a)
        } else {
            (&self.a, &mut self.b)
        }
    }

    /// Make the scratch buffer (the last sweep's destination) current.
    pub fn swap(&mut self) {
        self.a_is_current = !self.a_is_current;
    }

    /// Overwrite the current grid (used by checkpoint restore). The scratch
    /// buffer is left untouched.
    pub fn restore_current(&mut self, g: &Grid3D<T>) {
        self.current_mut().copy_from(g);
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.a.dims()
    }

    /// Heap footprint of both buffers in bytes.
    pub fn bytes(&self) -> usize {
        self.a.bytes() + self.b.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_semantics() {
        let g = Grid3D::from_fn(2, 2, 1, |x, y, _| (x + 2 * y) as f64);
        let mut db = DoubleBuffer::new(g.clone());
        assert_eq!(db.current(), &g);

        {
            let (src, dst) = db.split();
            // emulate a sweep: dst = src + 1
            let src_vals: Vec<f64> = src.as_slice().to_vec();
            for (d, s) in dst.as_mut_slice().iter_mut().zip(src_vals) {
                *d = s + 1.0;
            }
        }
        db.swap();
        assert_eq!(db.current().at(1, 1, 0), 4.0);
        assert_eq!(db.previous().at(1, 1, 0), 3.0);
    }

    #[test]
    fn restore_current() {
        let g = Grid3D::filled(2, 2, 1, 1.0f32);
        let mut db = DoubleBuffer::new(g);
        let snapshot = Grid3D::filled(2, 2, 1, 9.0f32);
        db.restore_current(&snapshot);
        assert_eq!(db.current().at(0, 0, 0), 9.0);
    }

    #[test]
    fn double_swap_is_identity_of_roles() {
        let g = Grid3D::filled(2, 2, 2, 3.0f64);
        let mut db = DoubleBuffer::new(g.clone());
        db.swap();
        db.swap();
        assert_eq!(db.current(), &g);
        assert_eq!(db.dims(), (2, 2, 2));
    }

    #[test]
    fn bytes_counts_both() {
        let g = Grid3D::<f64>::zeros(4, 4, 1);
        let db = DoubleBuffer::new(g);
        assert_eq!(db.bytes(), 2 * 16 * 8);
    }
}
