//! The bridge between the workspace's types and the frozen reference
//! sweep, and the one tolerance every grid check uses.

use abft_grid::{Boundary, BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::Stencil3D;

use crate::reference::{max_abs_diff, relative_l2, Edge, Problem, Scalar, Tap};

/// State a workspace problem for the reference sweep.
///
/// # Panics
/// Panics on a boundary the workloads never use (the reference knows clamp
/// and periodic only).
pub fn problem_of<T: Real + Scalar>(
    dims: (usize, usize, usize),
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
) -> Problem<T> {
    let edge = |b: &Boundary<T>| match b {
        Boundary::Clamp => Edge::Clamp,
        Boundary::Periodic => Edge::Periodic,
        other => panic!("the reference sweep has no {other:?} boundary"),
    };
    Problem {
        dims,
        taps: stencil
            .taps()
            .iter()
            .map(|t| Tap {
                di: t.di,
                dj: t.dj,
                dk: t.dk,
                w: t.w,
            })
            .collect(),
        edges: [edge(&bounds.x), edge(&bounds.y), edge(&bounds.z)],
        constant: constant.map(|c| c.as_slice().to_vec()),
    }
}

/// Whether `got` is the same solution as `want`, to the bound the repo's
/// own fault matrices use: `max |Δ| ≤ 1e-9` for f64 (values are O(100)),
/// and for f32 the paper's ε = 1e-5 on the Eq. 11 error norm relative to
/// the reference's norm. A clean run passes with `Δ = 0`; a run that
/// corrected a flip in place (Eq. 10 recovers the value from checksums, to
/// rounding) passes with a small non-zero residual.
pub fn within_tolerance<T: Scalar>(got: &[T], want: &[T]) -> bool {
    if std::mem::size_of::<T>() == 8 {
        max_abs_diff(got, want) <= 1e-9
    } else {
        relative_l2(got, want) <= 1e-5
    }
}

/// Cell-by-cell equality, as the repo's "bitwise" equivalence matrices
/// assert it (`assert_eq!` on grids).
pub fn bitwise<T: Scalar>(got: &[T], want: &[T]) -> bool {
    got == want
}
