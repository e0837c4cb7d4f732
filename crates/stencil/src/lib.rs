//! Stencil descriptions and sweep executors.
//!
//! This crate models the paper's arbitrary stencil sweep (Eq. 1):
//!
//! ```text
//! u(t+1)[x,y,z] = C[x,y,z] + Σ_{(i,j,k,w) ∈ S} w · u(t)[x+i, y+j, z+k]
//! ```
//!
//! with per-tap weights, an optional per-cell constant term and per-axis
//! boundary conditions. Executors come in serial and rayon-parallel
//! (one task per `z`-layer, the paper's OpenMP parallelisation) variants,
//! each optionally fusing the column-checksum accumulation into the sweep —
//! the "single addition operation added to the kernel" of §3.2 (Fig. 2) —
//! and optionally threading a [`SweepHook`] through every point update,
//! which is how the fault-injection campaign corrupts values "after the
//! stencil point has been updated and before it is stored" (§5.1).
//!
//! Out-of-range reads are resolved **per axis with x → y → z precedence**:
//! the first axis whose boundary yields a concrete value (zero, constant)
//! short-circuits the read. Index-mapping boundaries (clamp, periodic,
//! reflect) fold the coordinate back in range and resolution continues
//! with the next axis. The checksum-interpolation machinery in
//! `abft-core` models exactly this ordering. The sweep reads nothing but
//! grid memory: a rank's halo lives in its padded grid.
//!
//! The sweep is one pass with no per-read boundary path. Per output row
//! it folds every tap's `(y+dj, z+dk)` through the y and z boundaries
//! *once* — to an in-grid source row or a broadcast value — and then runs
//! one blocked kernel
//! along x: a block of 16 accumulators (4 on a run shorter than that)
//! starts from the constant term, takes `acc += w·src` for every tap **in
//! tap order**, and is stored. A run's remainder is one more whole block
//! that overlaps the previous one, not a scalar tail, and the `extent_x`
//! cells at each end of a row read through the same folded sources,
//! resolving only x per tap. Every cell therefore sees the same operations
//! in the same order whichever route computes it, which is what makes
//! serial, parallel, row-split and region-tiled sweeps agree bitwise.

mod constant;
mod exec;
mod hook;
mod kernel;
mod library;
mod sim;
mod sweep;

pub use constant::{ConstantField, LineSums};
pub use exec::Exec;
pub use hook::{NoHook, SweepHook};
pub use kernel::{Stencil2D, Stencil3D, Tap2, Tap3};
pub use sim::{InteriorWindow, StencilSim};
pub use sweep::{sweep, sweep_region, ChecksumMode};
