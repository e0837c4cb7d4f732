//! # stencil-abft
//!
//! A production-quality Rust implementation of
//!
//! > A. Cavelan, F. M. Ciorba, **Algorithm-Based Fault Tolerance for
//! > Parallel Stencil Computations**, IEEE CLUSTER 2019
//! > (arXiv:1909.00709).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`num`] | `abft-num` | the [`num::Real`] float abstraction (f32/f64, bit flips) |
//! | [`grid`] | `abft-grid` | dense 3-D grids (a 2-D field is one layer), boundary conditions, double buffering |
//! | [`stencil`] | `abft-stencil` | stencil kernels, serial/rayon sweeps, fused checksums, hooks |
//! | [`core`] | `abft-core` | **the paper's contribution**: checksum interpolation (Thm. 1), detection (Thm. 2), repair by re-sweeping a flagged layer, online/offline protectors |
//! | [`checkpoint`] | `abft-checkpoint` | in-memory checkpoint/rollback |
//! | [`fault`] | `abft-fault` | bit-flip injection and campaign driver (§5.1) |
//! | [`metrics`] | `abft-metrics` | l2 error (Eq. 11), statistics, timers, tables |
//! | [`hotspot`] | `abft-hotspot` | HotSpot3D (Rodinia) port — the paper's evaluation app |
//! | [`dist`] | `abft-dist` | distributed-memory simulation: pipelined halo exchange, per-rank ABFT |
//!
//! ## Quick start
//!
//! Protect a 2-D Jacobi heat kernel with online ABFT:
//!
//! ```
//! use stencil_abft::prelude::*;
//!
//! let initial = Grid3D::from_fn(32, 32, 1, |x, y, _| (x + y) as f32);
//! let mut sim = StencilSim::new(
//!     initial,
//!     Stencil2D::jacobi_heat(0.2f32).into_3d(),
//!     BoundarySpec::clamp(),
//! );
//! let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
//! for _ in 0..100 {
//!     let outcome = abft.step(&mut sim, &NoHook);
//!     assert!(outcome.is_clean());
//! }
//! ```
//!
//! See `examples/` for runnable programs (quickstart, 2-D heat diffusion
//! under every boundary condition, the paper's HotSpot3D scenario, a fault
//! campaign, and a distributed halo-exchange run) and `crates/bench` for
//! the binaries regenerating every table and figure of the paper.

pub use abft_checkpoint as checkpoint;
pub use abft_core as core;
pub use abft_dist as dist;
pub use abft_fault as fault;
pub use abft_grid as grid;
pub use abft_hotspot as hotspot;
pub use abft_metrics as metrics;
pub use abft_num as num;
pub use abft_stencil as stencil;

/// The most commonly used items in one import.
pub mod prelude {
    pub use abft_core::{AbftConfig, OfflineAbft, OnlineAbft, ProtectorStats};
    pub use abft_fault::{BitFlip, Campaign, FlipHook, Method};
    pub use abft_grid::{Boundary, BoundarySpec, Grid3D};
    pub use abft_metrics::{l2_error, Summary, Timer};
    pub use abft_num::Real;
    pub use abft_stencil::{Exec, NoHook, Stencil2D, Stencil3D, StencilSim, SweepHook};
}
