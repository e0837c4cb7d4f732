//! Dense grid substrate for the `stencil-abft` workspace.
//!
//! Storage is row-major with the **x axis contiguous** and linear index
//! `x + y*nx + z*nx*ny`, exactly matching the listings in the paper
//! (Cavelan & Ciorba, CLUSTER 2019, Fig. 2). The checksum terminology used
//! throughout the workspace follows the paper:
//!
//! * the *row* checksum vector `a` is indexed by `x` and sums along `y`,
//! * the *column* checksum vector `b` is indexed by `y` and sums along `x`.
//!
//! The crate provides:
//!
//! * [`Grid3D`] — the owned dense grid (a 2-D field is a single-layer
//!   one, `nz = 1`);
//! * [`LayerRef`] / [`LayerMut`] — borrowed views of one `z`-layer, the unit
//!   of parallelism ("each thread handles one of the 2-D layers", §5.1);
//! * [`DoubleBuffer`] — the classic ping-pong time-stepping pair;
//! * [`Boundary`] / [`BoundarySpec`] — per-axis boundary behaviour with
//!   pure index resolution ([`Boundary::resolve`]);
//! * [`BoundaryStrips`] — copies of the near-boundary lines of a layer that
//!   feed the α/β correction terms of Theorem 1;
//! * [`box_col_sums`] / [`box_row_sums`] — the checksum vectors `b` and `a`
//!   of a box of a grid, each in its one summation order.

mod boundary;
mod buffer;
#[cfg(test)]
mod grid2d;
mod grid3d;
mod layer;
mod strips;
mod sums;

pub use boundary::{AxisHit, Boundary, BoundarySpec, NoGhosts};
pub use buffer::DoubleBuffer;
pub use grid3d::{copy_box, Grid3D};
pub use layer::{LayerMut, LayerRef};
pub use strips::BoundaryStrips;
pub use sums::{box_col_sums, box_row_sums};
