//! Boundary conditions and per-axis index resolution.

use abft_num::Real;

/// Behaviour of one axis when a stencil tap reaches past the domain edge.
///
/// The paper's reference kernels (Fig. 2/3) use [`Boundary::Clamp`] — the
/// out-of-range neighbour index is clamped to the edge cell ("bounce-back"
/// in the paper's wording). §3.3 additionally discusses periodic, constant
/// and empty (zero) boundaries; [`Boundary::Reflect`] (mirror) rounds out
/// the set. Every kind is self-contained: what lies past a rank's brick
/// is not a boundary but grid memory, the halo in its padded grid, and a
/// read past a protected box resolves through its grid's boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary<T> {
    /// Out-of-range index is clamped to the nearest valid index
    /// (`u[-1] == u[0]`). The paper's default.
    Clamp,
    /// Indices wrap around (`u[-1] == u[n-1]`).
    Periodic,
    /// Out-of-range reads yield `0` (the paper's "empty boundaries").
    Zero,
    /// Out-of-range reads yield a fixed value (Dirichlet halo).
    Constant(T),
    /// Mirror reflection without edge repeat (`u[-m] == u[m]`,
    /// `u[n-1+m] == u[n-1-m]`).
    Reflect,
}

/// Result of resolving a (possibly out-of-range) coordinate on one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisHit<T> {
    /// The coordinate maps to an in-domain index.
    In(usize),
    /// The read yields a fixed value (zero or constant boundary).
    Value(T),
}

impl<T: Real> Boundary<T> {
    /// Resolve signed coordinate `q` on an axis of length `n`.
    ///
    /// Offsets are assumed to be smaller than the axis length (asserted),
    /// which every realistic stencil satisfies; `Reflect` and `Periodic`
    /// would otherwise need iterated folding.
    #[inline]
    pub fn resolve(&self, q: isize, n: usize) -> AxisHit<T> {
        debug_assert!(n > 0, "axis of length 0");
        let ni = n as isize;
        if (0..ni).contains(&q) {
            return AxisHit::In(q as usize);
        }
        debug_assert!(
            q > -ni && q < 2 * ni,
            "stencil offset reaches further than one domain width: q={q}, n={n}"
        );
        match self {
            Boundary::Clamp => AxisHit::In(q.clamp(0, ni - 1) as usize),
            Boundary::Periodic => AxisHit::In(q.rem_euclid(ni) as usize),
            Boundary::Zero => AxisHit::Value(T::ZERO),
            Boundary::Constant(c) => AxisHit::Value(*c),
            Boundary::Reflect => {
                let m = if q < 0 { -q } else { 2 * (ni - 1) - q };
                AxisHit::In(m.clamp(0, ni - 1) as usize)
            }
        }
    }

    /// True when out-of-range reads never touch in-domain data
    /// (zero/constant): the phantom value is independent of the grid.
    #[inline]
    pub fn is_value_like(&self) -> bool {
        matches!(self, Boundary::Zero | Boundary::Constant(_))
    }
}

/// Per-axis boundary behaviour of a 3-D (or single-layer 2-D) domain.
///
/// The same behaviour is applied at both ends of an axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundarySpec<T> {
    pub x: Boundary<T>,
    pub y: Boundary<T>,
    pub z: Boundary<T>,
}

impl<T: Real> BoundarySpec<T> {
    /// All three axes share the same behaviour.
    pub fn uniform(b: Boundary<T>) -> Self {
        Self { x: b, y: b, z: b }
    }

    /// The paper's default: clamped on every axis (Fig. 2).
    pub fn clamp() -> Self {
        Self::uniform(Boundary::Clamp)
    }

    /// Periodic on every axis.
    pub fn periodic() -> Self {
        Self::uniform(Boundary::Periodic)
    }

    /// Zero ("empty") on every axis.
    pub fn zero() -> Self {
        Self::uniform(Boundary::Zero)
    }
}

/// A zero-sized marker that `abft_core::Interpolator::interpolate_col`
/// still takes as its third argument, so that the benchmark's call keeps
/// compiling. It carries nothing: a box's interpolation reads what lies
/// past the box from its grid, resolved through the grid's boundaries,
/// and nothing serves ghost cells. It goes when the benchmark stops
/// naming it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGhosts;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_is_identity() {
        for b in [
            Boundary::<f64>::Clamp,
            Boundary::Periodic,
            Boundary::Zero,
            Boundary::Constant(3.0),
            Boundary::Reflect,
        ] {
            assert_eq!(b.resolve(3, 10), AxisHit::In(3));
            assert_eq!(b.resolve(0, 10), AxisHit::In(0));
            assert_eq!(b.resolve(9, 10), AxisHit::In(9));
        }
    }

    #[test]
    fn clamp_resolution() {
        let b = Boundary::<f64>::Clamp;
        assert_eq!(b.resolve(-1, 5), AxisHit::In(0));
        assert_eq!(b.resolve(-3, 5), AxisHit::In(0));
        assert_eq!(b.resolve(5, 5), AxisHit::In(4));
        assert_eq!(b.resolve(7, 5), AxisHit::In(4));
    }

    #[test]
    fn periodic_resolution() {
        let b = Boundary::<f64>::Periodic;
        assert_eq!(b.resolve(-1, 5), AxisHit::In(4));
        assert_eq!(b.resolve(-2, 5), AxisHit::In(3));
        assert_eq!(b.resolve(5, 5), AxisHit::In(0));
        assert_eq!(b.resolve(6, 5), AxisHit::In(1));
    }

    #[test]
    fn zero_and_constant_resolution() {
        assert_eq!(Boundary::<f64>::Zero.resolve(-1, 5), AxisHit::Value(0.0));
        assert_eq!(
            Boundary::Constant(7.5f64).resolve(5, 5),
            AxisHit::Value(7.5)
        );
    }

    #[test]
    fn reflect_resolution() {
        let b = Boundary::<f64>::Reflect;
        assert_eq!(b.resolve(-1, 5), AxisHit::In(1));
        assert_eq!(b.resolve(-2, 5), AxisHit::In(2));
        assert_eq!(b.resolve(5, 5), AxisHit::In(3));
        assert_eq!(b.resolve(6, 5), AxisHit::In(2));
    }

    #[test]
    fn reflect_tiny_axis() {
        // n = 1: everything reflects back onto the single cell.
        let b = Boundary::<f64>::Reflect;
        assert_eq!(b.resolve(-1, 2), AxisHit::In(1));
        assert_eq!(b.resolve(1, 1), AxisHit::In(0));
    }

    #[test]
    fn value_like_classification() {
        assert!(Boundary::<f64>::Zero.is_value_like());
        assert!(Boundary::Constant(1.0f64).is_value_like());
        assert!(!Boundary::<f64>::Clamp.is_value_like());
        assert!(!Boundary::<f64>::Periodic.is_value_like());
        assert!(!Boundary::<f64>::Reflect.is_value_like());
    }

    #[test]
    fn spec_constructors() {
        let s = BoundarySpec::<f32>::clamp();
        assert_eq!(s.x, Boundary::Clamp);
        assert_eq!(BoundarySpec::<f32>::zero().y, Boundary::Zero);
    }
}
