//! HotSpot3D — the thermal simulation the paper evaluates on (§5).
//!
//! HotSpot3D (Rodinia benchmark suite) "estimates processor temperature
//! based on an architectural floorplan and simulated power measurements".
//! This crate is a from-scratch Rust port of the Rodinia 7-point kernel:
//! the same chip constants, the same coefficient derivation
//! (`Rx/Ry/Rz/Cap → ce/cw/cn/cs/ct/cb/cc`), the same clamped boundary
//! handling and the same per-cell source term
//! `dt/Cap · power + ct · T_amb`, expressed as an
//! [`abft_stencil::Stencil3D`] plus constant field so that the ABFT
//! machinery applies unchanged.
//!
//! **Substitution note:** Rodinia ships binary power/temperature trace
//! files; this port generates seeded synthetic power maps (uniform
//! background + Gaussian hot spots, magnitudes in the normalised
//! `[0, 1]` range Rodinia's files use). The ABFT method is
//! agnostic to the specific field values; only smooth, physically
//! plausible data at the right magnitude matters for the evaluation.

mod params;
mod power;
mod scenario;

pub use params::{HotspotCoefficients, HotspotParams};
pub use power::{initial_temperature, synthetic_power};
pub use scenario::{build_sim, Scenario};
