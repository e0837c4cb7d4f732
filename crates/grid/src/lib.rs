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
//! * [`Grid2D`] / [`Grid3D`] — owned dense grids (a 2-D grid is exactly a
//!   single-layer 3-D grid and converts losslessly);
//! * [`LayerRef`] / [`LayerMut`] — borrowed views of one `z`-layer, the unit
//!   of parallelism ("each thread handles one of the 2-D layers", §5.1);
//! * [`DoubleBuffer`] — the classic ping-pong time-stepping pair;
//! * [`Boundary`] / [`BoundarySpec`] — per-axis boundary behaviour with
//!   pure index resolution ([`Boundary::resolve`]);
//! * [`BoundaryStrips`] — copies of the near-boundary lines of a layer that
//!   feed the α/β correction terms of Theorem 1.

mod boundary;
mod buffer;
mod grid2d;
mod grid3d;
mod layer;
mod strips;

pub use boundary::{AxisHit, Boundary, BoundarySpec, NoGhosts};
pub use buffer::DoubleBuffer;
pub use grid2d::Grid2D;
pub use grid3d::{copy_box, Grid3D};
pub use layer::{LayerMut, LayerRef};
pub use strips::BoundaryStrips;
