//! Boundary conditions and per-axis index resolution.

use abft_num::Real;
use std::ops::Range;

/// Behaviour of one axis when a stencil tap reaches past the domain edge.
///
/// The paper's reference kernels (Fig. 2/3) use [`Boundary::Clamp`] — the
/// out-of-range neighbour index is clamped to the edge cell ("bounce-back"
/// in the paper's wording). §3.3 additionally discusses periodic, constant
/// and empty (zero) boundaries; [`Boundary::Reflect`] (mirror) and
/// [`Boundary::Ghost`] (values from outside the domain, which only the
/// checksum interpolation of a box protector reads) round out the set.
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
    /// Out-of-range reads are satisfied by a [`GhostCells`] source. Only
    /// the checksum interpolation reads one: a box protector puts `Ghost`
    /// on the axes its box cuts and serves the cells around the box from
    /// the rest of the grid. The sweep and a simulation refuse it, since a
    /// halo is grid memory (a rank's padded brick).
    Ghost,
}

/// Result of resolving a (possibly out-of-range) coordinate on one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisHit<T> {
    /// The coordinate maps to an in-domain index.
    In(usize),
    /// The read yields a fixed value (zero or constant boundary).
    Value(T),
    /// The read must be satisfied by ghost cells; the original signed
    /// coordinate is passed through.
    Ghost(isize),
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
            Boundary::Ghost => AxisHit::Ghost(q),
        }
    }

    /// True when out-of-range reads never touch in-domain data
    /// (zero/constant/ghost): the phantom value is independent of the grid.
    #[inline]
    pub fn is_value_like(&self) -> bool {
        matches!(
            self,
            Boundary::Zero | Boundary::Constant(_) | Boundary::Ghost
        )
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

    /// True if any axis uses ghost cells.
    pub fn uses_ghosts(&self) -> bool {
        matches!(self.x, Boundary::Ghost)
            || matches!(self.y, Boundary::Ghost)
            || matches!(self.z, Boundary::Ghost)
    }
}

/// Source of ghost-cell values for axes declared [`Boundary::Ghost`]. Its
/// one reader is the checksum interpolation of a box protector, which
/// reads the cells around its box this way (the sweep reads only grid
/// memory).
///
/// Resolution precedence is x → y → z: the first `Ghost` axis hit fires
/// the call, so axes *before* it carry already-resolved in-range indices
/// while the firing axis and every axis *after* it keep their raw signed
/// coordinates — which may themselves be out of range. **Up to all three
/// axes can be out of range at once**: on a brick cut on every axis an
/// edge read carries two raw axes and a corner read all three. The
/// source must finish resolving every trailing axis itself, in the same
/// x → y → z order (against the global boundaries) — only then is the
/// read bitwise-faithful to the undecomposed sweep.
///
/// Reads come a line at a time, through [`GhostCells::ghost_line`]: for a
/// `(y, z)` pair some tap reaches, the interpolation sums all of `0..nx`.
/// A source must therefore answer for every in-range `x` of such a line,
/// and answer the same every time within one step. What still arrives
/// one cell at a time through [`GhostCells::ghost`] is what is not an
/// x-line: reads that leave the domain in `x` (the interpolation's
/// correction terms), and the sums along `y` of the row-checksum side,
/// which runs only after a mismatch.
pub trait GhostCells<T>: Sync {
    /// Value of the ghost cell at global-ish coordinates. Axes preceding
    /// the first ghost hit are already resolved; the firing axis and
    /// every axis after it keep their signed coordinates, each of which
    /// may be out of range.
    fn ghost(&self, x: isize, y: isize, z: isize) -> T;

    /// The bulk read: append the cells `xs` of line `(y, z)` to `out`.
    ///
    /// Every `x` in `xs` is an in-range (already resolved) index; `y` and
    /// `z` are as [`GhostCells::ghost`] receives them when the y or the z
    /// axis fires. An implementation appends **exactly** `xs.len()` cells
    /// and leaves what `out` already holds untouched, and cell `i` of
    /// what it appends is bitwise what `ghost(xs.start + i, y, z)`
    /// returns. This default assembles the line cell by cell; a source
    /// whose lines are contiguous in memory overrides it with a copy.
    fn ghost_line(&self, xs: Range<usize>, y: isize, z: isize, out: &mut Vec<T>) {
        out.extend(xs.map(|x| self.ghost(x as isize, y, z)));
    }
}

/// A [`GhostCells`] implementation that panics — the source to pass an
/// interpolation whose boundary spec contains no `Ghost` axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGhosts;

impl<T: Real> GhostCells<T> for NoGhosts {
    fn ghost(&self, x: isize, y: isize, z: isize) -> T {
        panic!("ghost cell ({x},{y},{z}) requested but no ghost source configured")
    }
}

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
            Boundary::Ghost,
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
    fn ghost_passes_through() {
        let b = Boundary::<f64>::Ghost;
        assert_eq!(b.resolve(-2, 5), AxisHit::Ghost(-2));
        assert_eq!(b.resolve(6, 5), AxisHit::Ghost(6));
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
        assert!(Boundary::<f64>::Ghost.is_value_like());
        assert!(!Boundary::<f64>::Clamp.is_value_like());
        assert!(!Boundary::<f64>::Periodic.is_value_like());
        assert!(!Boundary::<f64>::Reflect.is_value_like());
    }

    #[test]
    fn spec_constructors() {
        let s = BoundarySpec::<f32>::clamp();
        assert_eq!(s.x, Boundary::Clamp);
        assert!(!s.uses_ghosts());
        let g = BoundarySpec {
            y: Boundary::Ghost,
            ..BoundarySpec::<f32>::zero()
        };
        assert!(g.uses_ghosts());
    }

    #[test]
    #[should_panic]
    fn no_ghosts_panics() {
        let _: f64 = NoGhosts.ghost(0, -1, 0);
    }
}
