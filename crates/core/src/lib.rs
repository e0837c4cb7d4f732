//! **The paper's contribution**: algorithm-based fault tolerance (ABFT) for
//! arbitrary stencil computations on 2-D and 3-D grids.
//!
//! > A. Cavelan, F. M. Ciorba, *Algorithm-Based Fault Tolerance for
//! > Parallel Stencil Computations*, IEEE CLUSTER 2019.
//!
//! The scheme maintains per-layer checksum vectors of the domain —
//! the row vector `a_x = Σ_y u[x,y]` and the column vector
//! `b_y = Σ_x u[x,y]` (Eqs. 2–3) — and exploits the key observation
//! (**Theorem 1**) that applying the stencil kernel itself to the 1-D
//! checksum vectors of iteration `t`, plus cheap boundary-correction terms
//! `α`/`β`, reproduces the checksum vectors of iteration `t+1` exactly.
//! Comparing the *interpolated* checksums against checksums *computed from
//! the swept data* detects silent data corruption (**Theorem 2**). The
//! paper then locates a single corrupted point at the intersection of the
//! mismatching row and column and recovers it by Eq. 10; here the online
//! protector needs only the column side, and repairs a flagged layer by
//! sweeping it again from the time-`t` grid, which gives every struck cell
//! bitwise its clean value.
//!
//! Two protectors are provided:
//!
//! * [`OnlineAbft`] — verify and repair after **every** sweep (§3);
//! * [`OfflineAbft`] — verify every `Δ` iterations (or only at the end),
//!   recover by checkpoint rollback + recomputation (§4).
//!
//! Everything is generic over the float type ([`abft_num::Real`]), the
//! stencil shape, and the boundary conditions; per-layer work parallelises
//! with rayon exactly like the underlying sweeps.
//!
//! ## Quick start
//!
//! ```
//! use abft_core::{AbftConfig, OnlineAbft};
//! use abft_grid::{BoundarySpec, Grid3D};
//! use abft_stencil::{Exec, NoHook, Stencil2D, StencilSim};
//!
//! // A 2-D Jacobi heat kernel on a 32×32 domain.
//! let initial = Grid3D::from_fn(32, 32, 1, |x, y, _| (x * y) as f64);
//! let sim = StencilSim::new(
//!     initial,
//!     Stencil2D::jacobi_heat(0.2).into_3d(),
//!     BoundarySpec::clamp(),
//! )
//! .with_exec(Exec::Serial);
//!
//! let mut sim = sim;
//! let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
//! for _ in 0..10 {
//!     let outcome = abft.step(&mut sim, &NoHook);
//!     assert_eq!(outcome.detections, 0); // error-free run
//! }
//! ```

mod checksum;
mod config;
mod correct;
mod detect;
mod interpolate;
mod offline;
mod online;
mod phantom;
mod report;

pub use checksum::compute_col_into;
pub use config::AbftConfig;
pub use correct::CorrectionEvent;
pub use detect::{compare_vectors, Mismatch};
pub use interpolate::{needs_strips_x, ColPlan, Interpolator};
pub use offline::{OfflineAbft, OfflineOutcome};
pub use online::{OnlineAbft, StepOutcome};
pub use phantom::{capture_all_layers, StripSet};
pub use report::ProtectorStats;
