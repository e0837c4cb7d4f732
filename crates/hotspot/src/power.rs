//! Synthetic power maps and initial temperature fields.
//!
//! Substitute for Rodinia's binary `power_512x8` / `temp_512x8` inputs:
//! seeded, reproducible fields with the same magnitudes (normalised power
//! in `[0, 1]`, temperatures around the 80-degree ambient).

use crate::HotspotParams;
use abft_grid::Grid3D;
use abft_num::Real;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One Gaussian hot spot of a power map (a functional-unit blob).
struct Blob {
    cx: f64,
    cy: f64,
    amp: f64,
    sigma: f64,
}

/// The seeded parameters of one power map.
struct PowerModel {
    background: f64,
    blobs: Vec<Blob>,
    /// Power dissipates mostly in the active (bottom) layers; scale down
    /// with height like a die stack would.
    layer_scale: Vec<f64>,
}

impl PowerModel {
    fn draw(nx: usize, ny: usize, nz: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let background: f64 = rng.random_range(0.05..0.15);
        let n_blobs = rng.random_range(3..=6);
        let blobs = (0..n_blobs)
            .map(|_| Blob {
                cx: rng.random_range(0.1..0.9) * nx as f64,
                cy: rng.random_range(0.1..0.9) * ny as f64,
                amp: rng.random_range(0.3..0.9),
                sigma: rng.random_range(0.05..0.2) * nx.max(ny) as f64,
            })
            .collect();
        let layer_scale = (0..nz)
            .map(|z| 1.0 - 0.5 * z as f64 / nz.max(1) as f64)
            .collect();
        Self {
            background,
            blobs,
            layer_scale,
        }
    }

    /// Background plus every blob at column `(x, y)`: the part of a
    /// cell's power that is the same on every layer.
    fn column(&self, x: usize, y: usize) -> f64 {
        let mut p = self.background;
        for b in &self.blobs {
            let dx = x as f64 - b.cx;
            let dy = y as f64 - b.cy;
            p += b.amp * (-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma)).exp();
        }
        p
    }

    /// The power of the cell on layer `z` of a column whose sum is `p`.
    fn cell<T: Real>(&self, p: f64, z: usize) -> T {
        T::from_f64((p * self.layer_scale[z]).clamp(0.0, 1.0))
    }
}

/// A normalised power-density map: uniform background plus a few Gaussian
/// hot spots (functional-unit blobs), clamped to `[0, 1]`.
///
/// Deterministic in `(dims, seed)`.
pub fn synthetic_power<T: Real>(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3D<T> {
    let model = PowerModel::draw(nx, ny, nz, seed);
    // The blob sum is 3–6 `exp` calls and does not depend on `z`: summed
    // once per column and scaled per layer, not summed once per cell.
    let mut plane = Vec::with_capacity(nx * ny);
    for y in 0..ny {
        plane.extend((0..nx).map(|x| model.column(x, y)));
    }
    Grid3D::from_fn(nx, ny, nz, |x, y, z| model.cell(plane[y * nx + x], z))
}

/// Initial temperature: ambient plus a mild power-correlated elevation
/// (chips are never run from a cold start in the Rodinia traces either).
/// The bump is kept well below the steady-state temperature rise so that
/// a powered die always heats up from this state.
pub fn initial_temperature<T: Real>(params: &HotspotParams, power: &Grid3D<T>) -> Grid3D<T> {
    assert_eq!(power.dims(), params.dims(), "power-map dimension mismatch");
    let amb = params.amb_temp;
    let (nx, ny, nz) = params.dims();
    Grid3D::from_fn(nx, ny, nz, |x, y, z| {
        let p = power.at(x, y, z).to_f64();
        T::from_f64(amb + 0.5 * p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_deterministic_per_seed() {
        let a = synthetic_power::<f32>(32, 32, 4, 7);
        let b = synthetic_power::<f32>(32, 32, 4, 7);
        assert_eq!(a, b);
        let c = synthetic_power::<f32>(32, 32, 4, 8);
        assert_ne!(a, c);
    }

    /// Summing the blobs once per column changed no bit: every cell is
    /// what evaluating the whole formula at that cell gives.
    #[test]
    fn power_equals_the_per_cell_formula() {
        for seed in [1, 7, 8] {
            let (nx, ny, nz) = (13, 9, 5);
            let model = PowerModel::draw(nx, ny, nz, seed);
            let per_cell = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
                model.cell::<f32>(model.column(x, y), z)
            });
            assert_eq!(synthetic_power::<f32>(nx, ny, nz, seed), per_cell);
        }
    }

    #[test]
    fn power_in_normalised_range() {
        let p = synthetic_power::<f64>(48, 40, 4, 3);
        for &v in p.as_slice() {
            assert!((0.0..=1.0).contains(&v), "power {v} out of range");
        }
    }

    #[test]
    fn power_has_hot_spots_above_background() {
        let p = synthetic_power::<f64>(64, 64, 2, 5);
        let max = p.as_slice().iter().cloned().fold(0.0f64, f64::max);
        let min = p.as_slice().iter().cloned().fold(1.0f64, f64::min);
        assert!(max > min + 0.2, "field too flat: {min}..{max}");
    }

    #[test]
    fn deeper_layers_dissipate_less() {
        let p = synthetic_power::<f64>(32, 32, 8, 11);
        let sum = |z: usize| -> f64 { p.layer(z).as_slice().iter().sum() };
        assert!(sum(0) > sum(7));
    }

    #[test]
    fn initial_temperature_near_ambient() {
        let params = HotspotParams::new(16, 16, 2);
        let power = synthetic_power::<f64>(16, 16, 2, 1);
        let t = initial_temperature(&params, &power);
        for &v in t.as_slice() {
            assert!((80.0..=90.0).contains(&v), "temperature {v} implausible");
        }
    }
}
