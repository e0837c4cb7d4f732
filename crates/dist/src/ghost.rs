//! The ghost source a rank's sweep and checksum interpolation read
//! out-of-brick cells through.

use crate::{Brick, HaloIndex};
use abft_grid::{AxisHit, BoundarySpec, GhostCells};
use abft_num::Real;
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
/// Cells are stored as one flat buffer of scalars in the rank's canonical
/// cell order; `index` maps a resolved global `(x, y, z)` to its payload
/// slot through the strip-backed [`HaloIndex`] (a `(z, y)` line-table
/// index plus a range check on the edge-sweep hot path).
#[derive(Debug, Clone)]
pub struct HaloGhost<T> {
    index: Arc<HaloIndex>,
    /// The payload, one scalar per slot of `index`. The stepper fills it
    /// at every exchange and decays it in place between exchanges.
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
    /// A ghost source over `index` whose payload has yet to be exchanged.
    pub(crate) fn new(
        index: Arc<HaloIndex>,
        bounds: BoundarySpec<T>,
        brick: Brick,
        dims: (usize, usize, usize),
    ) -> Self {
        let (nx_global, ny_global, nz_global) = dims;
        Self {
            index,
            values: Vec::new(),
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
        let gy = match self.bounds.y.resolve(self.y0 as isize + y, self.ny_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost y-boundary rejected up front"),
        };
        let gz = match self.bounds.z.resolve(self.z0 as isize + z, self.nz_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost z-boundary rejected up front"),
        };
        let slot = self
            .index
            .slot(gx, gy, gz)
            .unwrap_or_else(|| panic!("halo cell ({gx}, {gy}, {gz}) was not exchanged"));
        self.values[slot]
    }
}
