//! The ghost source a rank's sweep and checksum interpolation read
//! out-of-brick cells through.

use crate::{Brick, HaloPlan};
use abft_grid::{AxisHit, BoundarySpec, GhostCells};
use abft_num::Real;
use std::ops::Range;
use std::sync::Arc;

#[cfg(doc)]
use abft_core::OnlineAbft;

/// Time-`t` halo cells for one rank, plus the geometry needed to resolve a
/// brick-local out-of-range read against the **global** boundaries of all
/// three decomposed axes (including edge and corner reads, where two or
/// all three of x, y and z are out of range at once).
///
/// This is the [`GhostCells`] source handed to the sweep *and* to the
/// checksum interpolation, so both see identical neighbour data — the
/// precondition of [`OnlineAbft::sweep_shell_and_verify`].
///
/// Cells are stored as one flat buffer of scalars in the order of the
/// rank's [`HaloPlan`], which maps a resolved global `(x, y, z)` to its
/// payload slot: the box that contains it, plus an offset. Both readers
/// fetch whole lines ([`GhostCells::ghost_line`]): `(y, z)` resolve once
/// per line and the cells are copied box by box, so the lookup is paid
/// per line and the halo is read as memory. [`GhostCells::ghost`] — one
/// cell, three axes resolved — serves what leaves the brick in x, and is
/// the reference the bulk read is held to (on every line in debug builds,
/// and by this module's property test in both profiles). The two share
/// one resolution routine and one lookup routine.
#[derive(Debug, Clone)]
pub struct HaloGhost<T> {
    plan: Arc<HaloPlan>,
    /// The payload, one scalar per slot of `plan`. The stepper fills it
    /// at every exchange and advances it in place between exchanges.
    pub(crate) values: Vec<T>,
    bounds: BoundarySpec<T>,
    x0: usize,
    y0: usize,
    z0: usize,
    nx_global: usize,
    ny_global: usize,
    nz_global: usize,
}

impl<T: Real> HaloGhost<T> {
    /// A ghost source over `plan` whose payload has yet to be exchanged.
    pub(crate) fn new(
        plan: Arc<HaloPlan>,
        bounds: BoundarySpec<T>,
        brick: Brick,
        dims: (usize, usize, usize),
    ) -> Self {
        let (nx_global, ny_global, nz_global) = dims;
        Self {
            values: Vec::with_capacity(plan.len()),
            plan,
            bounds,
            x0: brick.x0,
            y0: brick.y0,
            z0: brick.z0,
            nx_global,
            ny_global,
            nz_global,
        }
    }
}

/// What a brick-local `(y, z)` resolves to against the global y and z
/// boundaries: a global line, or the value a zero/constant hit yields
/// for every cell of it.
enum LineHit<T> {
    At(usize, usize),
    Value(T),
}

impl<T: Real> HaloGhost<T> {
    /// Finish resolving brick-local `(y, z)`, y before z.
    #[inline]
    fn resolve_line(&self, y: isize, z: isize) -> LineHit<T> {
        let gy = match self.bounds.y.resolve(self.y0 as isize + y, self.ny_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return LineHit::Value(v),
            AxisHit::Ghost(_) => unreachable!("global ghost y-boundary rejected up front"),
        };
        let gz = match self.bounds.z.resolve(self.z0 as isize + z, self.nz_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return LineHit::Value(v),
            AxisHit::Ghost(_) => unreachable!("global ghost z-boundary rejected up front"),
        };
        LineHit::At(gy, gz)
    }
}

impl<T: Real> GhostCells<T> for HaloGhost<T> {
    #[inline]
    fn ghost(&self, x: isize, y: isize, z: isize) -> T {
        // The sweep resolves axes in x → y → z order and short-circuits on
        // the first value-like hit, so the axes before the ghost hit are
        // in-range brick-local indices while the rest are still raw.
        // Shifting into global coordinates and finishing the resolution
        // here (global x first, then y, then z) reproduces the serial
        // sweep's read exactly — an already-resolved local index simply
        // maps to an in-range global one.
        let gx = match self.bounds.x.resolve(self.x0 as isize + x, self.nx_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost x-boundary rejected up front"),
        };
        let (gy, gz) = match self.resolve_line(y, z) {
            LineHit::At(gy, gz) => (gy, gz),
            LineHit::Value(v) => return v,
        };
        let slot = self
            .plan
            .slot(gx, gy, gz)
            .unwrap_or_else(|| panic!("halo cell ({gx}, {gy}, {gz}) was not exchanged"));
        self.values[slot]
    }

    /// A line is resolved once and copied: `x` is in range by contract
    /// (so it maps straight to global `x0 + x`), `(y, z)` resolve once for
    /// the whole line, and the payload is copied box by box — a line's
    /// cells are contiguous within each box it crosses. Debug builds
    /// compare every copied cell with [`GhostCells::ghost`].
    fn ghost_line(&self, xs: Range<usize>, y: isize, z: isize, out: &mut Vec<T>) {
        let appended = out.len();
        match self.resolve_line(y, z) {
            LineHit::Value(v) => out.resize(appended + xs.len(), v),
            LineHit::At(gy, gz) => {
                let (mut gx, end) = (self.x0 + xs.start, self.x0 + xs.end);
                while gx < end {
                    let (slot, left) = self.plan.run_at(gx, gy, gz).unwrap_or_else(|| {
                        panic!("halo cell ({gx}, {gy}, {gz}) was not exchanged")
                    });
                    let n = left.min(end - gx);
                    out.extend_from_slice(&self.values[slot..slot + n]);
                    gx += n;
                }
            }
        }
        let copied = &out[appended..];
        debug_assert_eq!(copied.len(), xs.len(), "bulk ghost line length");
        debug_assert!(
            xs.clone()
                .zip(copied)
                .all(|(x, v)| v.to_bits_u64() == self.ghost(x as isize, y, z).to_bits_u64()),
            "bulk ghost line ({xs:?}, {y}, {z}) diverged from the per-cell path"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HaloBox, Partition3};
    use abft_grid::Boundary;
    use proptest::prelude::*;

    /// A ghost source over `plan` whose payload is the slot number, so
    /// every exchanged cell holds a different value.
    fn numbered(
        plan: HaloPlan,
        bounds: BoundarySpec<f64>,
        brick: Brick,
        dims: (usize, usize, usize),
    ) -> HaloGhost<f64> {
        let mut ghost = HaloGhost::new(Arc::new(plan), bounds, brick, dims);
        ghost.values = (0..ghost.plan.len()).map(|s| s as f64 + 0.25).collect();
        ghost
    }

    fn boundary(kind: usize) -> Boundary<f64> {
        match kind {
            0 => Boundary::Clamp,
            1 => Boundary::Periodic,
            2 => Boundary::Reflect,
            3 => Boundary::Zero,
            _ => Boundary::Constant(2.5),
        }
    }

    /// `xs` of line `(y, z)` through the bulk read, appended to a buffer
    /// that already holds something: exactly `xs.len()` cells arrive, each
    /// bitwise the per-cell read, and what was there stays.
    fn assert_line_matches_cells(
        ghost: &HaloGhost<f64>,
        xs: Range<usize>,
        (y, z): (isize, isize),
    ) -> Result<(), TestCaseError> {
        let mut out = vec![-1.0, -2.0];
        ghost.ghost_line(xs.clone(), y, z, &mut out);
        prop_assert_eq!(out.len(), 2 + xs.len(), "cells appended for {:?}", xs);
        prop_assert_eq!(&out[..2], &[-1.0, -2.0][..], "buffer prefix");
        for (x, v) in xs.zip(&out[2..]) {
            prop_assert_eq!(
                v.to_bits(),
                ghost.ghost(x as isize, y, z).to_bits(),
                "cell ({}, {}, {})",
                x,
                y,
                z
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(24))]

        /// Every line a tap can reach around every brick, over the rank
        /// grids, boundary mixes and shell depths the substrate runs:
        /// the bulk read is the per-cell read, in both build profiles.
        #[test]
        fn bulk_read_equals_per_cell_read_bitwise(
            grid in prop_oneof![
                Just((1usize, 2usize, 1usize)),
                Just((2, 2, 1)),
                Just((2, 2, 2)),
                Just((1, 4, 1)),
            ],
            kinds in (0usize..5, 0usize..5, 0usize..5),
            k in 1usize..=2,
            reach in 1usize..=2,
            dims in (8usize..=13, 9usize..=14, 4usize..=6),
            cut in (0usize..64, 0usize..64),
        ) {
            let (rx, ry, rz) = grid;
            let (nx, ny, nz) = dims;
            let bounds = BoundarySpec {
                x: boundary(kinds.0),
                y: boundary(kinds.1),
                z: boundary(kinds.2),
            };
            let part = Partition3::new(nx, ny, nz, rx, ry, rz);
            // An axis exchanges only when it is decomposed; y always is.
            let depth = |ranks: usize| if ranks > 1 { k * reach } else { 0 };
            let halo = (depth(rx), k * reach, depth(rz));
            for me in 0..part.ranks() {
                let brick = part.brick(me);
                let plan = HaloPlan::new(&brick, me, &part, halo, dims, &bounds);
                let ghost = numbered(plan, bounds, brick, dims);
                let (x_len, y_len, z_len) =
                    (brick.x_len, brick.y_len as isize, brick.z_len as isize);
                let (hy, hz) = (halo.1 as isize, halo.2 as isize);
                for z in -hz..z_len + hz {
                    for y in -hy..y_len + hy {
                        if (0..y_len).contains(&y) && (0..z_len).contains(&z) {
                            continue; // the brick's own line is no ghost line
                        }
                        // Empty, single-cell, whole-line and an arbitrary
                        // sub-range (which straddles a box boundary
                        // whenever the line has one).
                        let (a, b) = (cut.0 % x_len, cut.1 % x_len);
                        for xs in [a..a, a..a + 1, 0..x_len, a.min(b)..a.max(b) + 1] {
                            assert_line_matches_cells(&ghost, xs, (y, z))?;
                        }
                    }
                }
            }
        }
    }

    /// A line served by several boxes (two producers, then a gap) on a
    /// 8-wide brick whose row `y = -1` is global row 0.
    fn gapped_line() -> HaloGhost<f64> {
        let row = |owner, x, base| HaloBox {
            owner,
            x,
            y: 0..1,
            z: 0..1,
            base,
        };
        let plan = HaloPlan::from_boxes(vec![row(0, 0..3, 0), row(1, 3..5, 3), row(1, 6..8, 5)]);
        assert_eq!(plan.len(), 7);
        let brick = Brick {
            x0: 0,
            x_len: 8,
            y0: 1,
            y_len: 4,
            z0: 0,
            z_len: 1,
        };
        numbered(plan, BoundarySpec::clamp(), brick, (8, 9, 1))
    }

    #[test]
    fn bulk_read_copies_across_a_run_boundary() {
        let ghost = gapped_line();
        for xs in [0..5, 1..4, 2..3, 3..5, 6..8] {
            assert_line_matches_cells(&ghost, xs, (-1, 0)).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "halo cell (5, 0, 0) was not exchanged")]
    fn bulk_read_of_an_unexchanged_cell_panics_instead_of_reading_the_next_run() {
        let mut out = Vec::new();
        gapped_line().ghost_line(4..8, -1, 0, &mut out);
    }
}
