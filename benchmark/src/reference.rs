//! The frozen reference sweep: the "plain single-threaded run of the same
//! problem". It is the benchmark's yardstick (every speed metric is a
//! ratio against it, timed in the adjacent slot) and its correctness
//! oracle, so it must never change: it uses no type of the workspace, only
//! slices, and states Eq. 1 of the paper as directly as possible —
//!
//! ```text
//! u(t+1)[x,y,z] = C[x,y,z] + Σ_taps w · u(t)[x+di, y+dj, z+dk]
//! ```
//!
//! one accumulator and one write per output cell, taps in stencil order,
//! out-of-range reads folded per axis (clamp or periodic). Layout is the
//! workspace's: `x` fastest, then `y`, then `z`.

use std::ops::{Add, Mul};

/// The two float types the workloads use.
pub trait Scalar: Copy + Default + PartialEq + Add<Output = Self> + Mul<Output = Self> {
    fn as_f64(self) -> f64;
}

impl Scalar for f32 {
    fn as_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Scalar for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

/// What an axis does with a read past its ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// `u[-1] == u[0]`, `u[n] == u[n-1]`.
    Clamp,
    /// `u[-1] == u[n-1]`, `u[n] == u[0]`.
    Periodic,
}

impl Edge {
    fn fold(self, q: isize, n: usize) -> usize {
        let n = n as isize;
        (match self {
            Edge::Clamp => q.clamp(0, n - 1),
            Edge::Periodic => q.rem_euclid(n),
        }) as usize
    }
}

/// One weighted tap at a relative offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap<T> {
    pub di: isize,
    pub dj: isize,
    pub dk: isize,
    pub w: T,
}

/// A stencil problem: everything but the state.
#[derive(Debug, Clone)]
pub struct Problem<T> {
    pub dims: (usize, usize, usize),
    pub taps: Vec<Tap<T>>,
    /// Edge behaviour of the x, y and z axis.
    pub edges: [Edge; 3],
    /// The per-cell constant term `C`, when the problem has one.
    pub constant: Option<Vec<T>>,
}

impl<T: Scalar> Problem<T> {
    /// Cells of the domain.
    pub fn cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// One sweep: `dst = stencil(src) + C`.
    pub fn sweep(&self, src: &[T], dst: &mut [T]) {
        let (nx, ny, nz) = self.dims;
        assert_eq!(src.len(), self.cells(), "src length");
        assert_eq!(dst.len(), self.cells(), "dst length");
        if let Some(c) = &self.constant {
            assert_eq!(c.len(), self.cells(), "constant length");
        }
        let reach = |f: fn(&Tap<T>) -> isize| {
            self.taps
                .iter()
                .map(|t| f(t).unsigned_abs())
                .max()
                .unwrap_or(0)
        };
        let (rx, ry, rz) = (reach(|t| t.di), reach(|t| t.dj), reach(|t| t.dk));
        let offsets: Vec<isize> = self
            .taps
            .iter()
            .map(|t| t.di + t.dj * nx as isize + t.dk * (nx * ny) as isize)
            .collect();
        let inside = |q: usize, r: usize, n: usize| q >= r && q + r < n;

        for z in 0..nz {
            for y in 0..ny {
                let row = (z * ny + y) * nx;
                let row_inside = inside(y, ry, ny) && inside(z, rz, nz);
                for x in 0..nx {
                    let i = row + x;
                    let mut v = match &self.constant {
                        Some(c) => c[i],
                        None => T::default(),
                    };
                    if row_inside && inside(x, rx, nx) {
                        for (t, &off) in self.taps.iter().zip(&offsets) {
                            v = v + t.w * src[(i as isize + off) as usize];
                        }
                    } else {
                        for t in &self.taps {
                            let xs = self.edges[0].fold(x as isize + t.di, nx);
                            let ys = self.edges[1].fold(y as isize + t.dj, ny);
                            let zs = self.edges[2].fold(z as isize + t.dk, nz);
                            v = v + t.w * src[(zs * ny + ys) * nx + xs];
                        }
                    }
                    dst[i] = v;
                }
            }
        }
    }

    /// `sweeps` sweeps from `initial`, double-buffered.
    pub fn run(&self, initial: &[T], sweeps: usize) -> Vec<T> {
        let mut a = initial.to_vec();
        let mut b = vec![T::default(); a.len()];
        for _ in 0..sweeps {
            self.sweep(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        a
    }
}

/// Largest `|a − b|` over two states.
pub fn max_abs_diff<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "state length");
    a.iter()
        .zip(b)
        .map(|(&p, &q)| (p.as_f64() - q.as_f64()).abs())
        .fold(0.0, f64::max)
}

/// The paper's Eq. 11 error norm, as a share of the reference's own norm:
/// `‖a − b‖₂ / ‖b‖₂`.
pub fn relative_l2<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "state length");
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&p, &q) in a.iter().zip(b) {
        let (p, q) = (p.as_f64(), q.as_f64());
        num += (p - q) * (p - q);
        den += q * q;
    }
    if den > 0.0 {
        (num / den).sqrt()
    } else {
        num.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{problem_of, within_tolerance};
    use crate::workloads::{box27, dist_halo, hotspot, served};
    use abft_grid::{BoundarySpec, Grid3D};
    use abft_num::Real;
    use abft_stencil::{Exec, Stencil3D, StencilSim};

    /// Library `Exec::Serial` run of the same problem.
    fn library_run<T: Real>(
        initial: &Grid3D<T>,
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant: Option<&Grid3D<T>>,
        sweeps: usize,
    ) -> Grid3D<T> {
        let mut sim =
            StencilSim::new(initial.clone(), stencil.clone(), *bounds).with_exec(Exec::Serial);
        if let Some(c) = constant {
            sim = sim.with_constant(c.clone());
        }
        for _ in 0..sweeps {
            sim.step();
        }
        sim.current().clone()
    }

    fn check<T: Real + Scalar>(
        what: &str,
        initial: &Grid3D<T>,
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant: Option<&Grid3D<T>>,
    ) {
        let sweeps = 5;
        let lib = library_run(initial, stencil, bounds, constant, sweeps);
        let problem = problem_of(initial.dims(), stencil, bounds, constant);
        let ours = problem.run(initial.as_slice(), sweeps);
        assert!(
            within_tolerance(&ours, lib.as_slice()),
            "{what}: reference and StencilSim disagree (max |Δ| = {:e})",
            max_abs_diff(&ours, lib.as_slice())
        );
        // A sweep that did nothing would also "agree" on a fixed point.
        assert!(ours != initial.as_slice(), "{what}: state never moved");
    }

    #[test]
    fn matches_stencil_sim_on_the_hotspot_kernel() {
        let sim = hotspot::small_sim(3, (40, 36, 5));
        check(
            "hotspot 7-point + constant, f32, clamp",
            sim.current(),
            sim.stencil(),
            sim.bounds(),
            sim.constant(),
        );
    }

    #[test]
    fn matches_stencil_sim_on_the_box27_kernel() {
        let (initial, stencil, bounds) = box27::problem(3, (20, 18, 7));
        check("27-point, f64, periodic", &initial, &stencil, &bounds, None);
    }

    #[test]
    fn matches_stencil_sim_on_the_dist_halo_kernel() {
        let (initial, stencil, bounds) = dist_halo::problem(3, (48, 16, 8));
        check("27-point, f64, clamp", &initial, &stencil, &bounds, None);
    }

    #[test]
    fn matches_stencil_sim_on_every_served_mix_kernel() {
        for job in served::batch(3) {
            check(
                &job.label,
                &job.spec.initial,
                &job.spec.stencil,
                &job.spec.bounds,
                None,
            );
        }
    }

    #[test]
    fn edges_fold_as_documented() {
        assert_eq!(Edge::Clamp.fold(-2, 5), 0);
        assert_eq!(Edge::Clamp.fold(6, 5), 4);
        assert_eq!(Edge::Periodic.fold(-1, 5), 4);
        assert_eq!(Edge::Periodic.fold(5, 5), 0);
        assert_eq!(Edge::Periodic.fold(3, 5), 3);
    }

    #[test]
    fn a_single_tap_shifts_the_field() {
        // One tap at +1 in x with weight 1: periodic rotates, clamp repeats
        // the last cell.
        let taps = vec![Tap {
            di: 1,
            dj: 0,
            dk: 0,
            w: 1.0f64,
        }];
        let src = [1.0, 2.0, 3.0, 4.0];
        let mut dst = [0.0; 4];
        let mut p = Problem {
            dims: (4, 1, 1),
            taps,
            edges: [Edge::Periodic; 3],
            constant: None,
        };
        p.sweep(&src, &mut dst);
        assert_eq!(dst, [2.0, 3.0, 4.0, 1.0]);
        p.edges = [Edge::Clamp; 3];
        p.constant = Some(vec![10.0; 4]);
        p.sweep(&src, &mut dst);
        assert_eq!(dst, [12.0, 13.0, 14.0, 14.0]);
    }
}
