//! Theorem 1: interpolating the checksum vectors of iteration `t+1` from
//! those of iteration `t` by applying the stencil kernel to the 1-D
//! checksum vectors, plus boundary-correction terms α/β.
//!
//! For the paper's notation, the column checksum `b` satisfies (Eq. 5)
//!
//! ```text
//! b(t+1)[y] = c_y + Σ_{(i,j,w)} w · ( b(t)[y+j] + β[i, y+j] )
//! ```
//!
//! where `b(t)[y+j]` for an out-of-range `y+j` is resolved through the
//! boundary condition of the `y` axis (a *phantom* checksum value) and the
//! correction `β` accounts for the summed (`x`) axis boundary: it is the
//! difference between `Σ_x u[resolve(x+i), ·]` and the plain checksum
//! `Σ_x u[x, ·]`, which only involves the `O(|i|)` grid points nearest the
//! `x` edges. The row checksum `a` is symmetric with `x` and `y` swapped.
//!
//! In 3-D, a tap's `k` offset simply selects the *neighbouring layer's*
//! checksum vector (resolved through the `z` boundary), which is the exact
//! generalisation of the paper's "apply the 2-D scheme on every layer".
//!
//! For periodic boundaries, and for clamped boundaries with axis-symmetric
//! width-1 stencils (the paper's HotSpot3D case), every correction term
//! cancels and the interpolation degenerates to Eqs. 8–9 — the fast path,
//! which needs no time-`t` domain data at all.
//!
//! All resolution follows the sweep's x → y → z precedence exactly (see
//! `abft_stencil::read_resolved`), so in exact arithmetic interpolated and
//! freshly computed checksums are **equal**, not merely close; floating
//! point leaves `O(n·eps)` rounding noise, absorbed by the detection
//! threshold ε.

use crate::phantom::StripSet;
use abft_grid::{AxisHit, Boundary, BoundarySpec, GhostCells, Grid3D};
use abft_num::{line_sum, Real};
use abft_stencil::{LineSums, Stencil3D, StencilSim};
use std::sync::Arc;

/// True when the α/β corrections along the `x` axis (affecting the column
/// checksum `b`) are identically zero for this stencil/boundary pair.
pub fn needs_strips_x<T: Real>(stencil: &Stencil3D<T>, bx: &Boundary<T>) -> bool {
    !(stencil.extent_x() == 0
        || matches!(bx, Boundary::Periodic)
        || (matches!(bx, Boundary::Clamp) && stencil.extent_x() <= 1 && stencil.symmetric_x()))
}

/// True when the corrections along the `y` axis (affecting the row
/// checksum `a`) are identically zero for this stencil/boundary pair.
pub fn needs_strips_y<T: Real>(stencil: &Stencil3D<T>, by: &Boundary<T>) -> bool {
    !(stencil.extent_y() == 0
        || matches!(by, Boundary::Periodic)
        || (matches!(by, Boundary::Clamp) && stencil.extent_y() <= 1 && stencil.symmetric_y()))
}

/// The checksum interpolator for one (stencil, boundary, constant-field,
/// domain-shape) combination. It holds the constant-term sums `c_x`/`c_y`
/// of Theorem 1; each call then runs in `O(nz · n · k²)` time for vectors
/// of length `n`, independent of the domain volume.
#[derive(Debug, Clone)]
pub struct Interpolator<T> {
    stencil: Stencil3D<T>,
    bounds: BoundarySpec<T>,
    /// Constant sums `c_x` (`row`, flat `[z][x]`) and `c_y` (`col`, flat
    /// `[z][y]`); `None` without a constant field.
    constant_sums: Option<Arc<LineSums<T>>>,
    nx: usize,
    ny: usize,
    nz: usize,
    fast_x: bool,
    fast_y: bool,
    /// Per tap with a non-zero `di`, the place of that `di` among the
    /// distinct ones — the β corrections a source line can be asked for —
    /// and how many those are.
    tap_shift: Vec<Option<usize>>,
    shifts: usize,
}

impl<T: Real> Interpolator<T> {
    /// Build an interpolator, summing `constant` afresh. `dims` must
    /// match the grids the checksums are computed from.
    pub fn new(
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant: Option<&Grid3D<T>>,
        dims: (usize, usize, usize),
    ) -> Self {
        if let Some(c) = constant {
            assert_eq!(c.dims(), dims, "constant-field dimension mismatch");
        }
        let sums = constant.map(|c| Arc::new(LineSums::of(c)));
        Self::with_constant_sums(stencil, bounds, sums, dims)
    }

    /// Build the interpolator of a simulation. Its constant field's sums
    /// are computed once per field and shared by every clone of `sim`, so
    /// this costs no pass over the domain.
    pub fn for_sim(sim: &StencilSim<T>) -> Self {
        let sums = sim.constant_field().map(|c| c.line_sums().clone());
        Self::with_constant_sums(sim.stencil(), sim.bounds(), sums, sim.dims())
    }

    fn with_constant_sums(
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant_sums: Option<Arc<LineSums<T>>>,
        (nx, ny, nz): (usize, usize, usize),
    ) -> Self {
        let mut x_shifts: Vec<isize> = Vec::new();
        let tap_shift = stencil.taps().iter().map(|t| {
            (t.di != 0).then(|| {
                x_shifts.iter().position(|&i| i == t.di).unwrap_or_else(|| {
                    x_shifts.push(t.di);
                    x_shifts.len() - 1
                })
            })
        });
        Self {
            tap_shift: tap_shift.collect(),
            shifts: x_shifts.len(),
            stencil: stencil.clone(),
            bounds: *bounds,
            constant_sums,
            nx,
            ny,
            nz,
            fast_x: !needs_strips_x(stencil, &bounds.x),
            fast_y: !needs_strips_y(stencil, &bounds.y),
        }
    }

    /// Width of the `x`-side boundary strips the **column** interpolation
    /// needs (0 on the fast path). One wider than the stencil extent so
    /// that reflected outer reads stay in the captured region.
    pub fn col_strip_width(&self) -> usize {
        if self.fast_x {
            0
        } else {
            self.stencil.extent_x() + 1
        }
    }

    /// Width of the `y`-side boundary strips the **row** interpolation
    /// needs (0 on the fast path).
    pub fn row_strip_width(&self) -> usize {
        if self.fast_y {
            0
        } else {
            self.stencil.extent_y() + 1
        }
    }

    /// `(nx, ny, nz)` this interpolator was built for.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Interpolate the column checksums of iteration `t+1` from those of
    /// iteration `t` (Eq. 5 and its 3-D generalisation).
    ///
    /// `col_t`/`out` are flat `[z][y]` buffers; `source` provides time-`t`
    /// near-boundary data (may be [`StripSet::None`] iff
    /// [`Interpolator::col_strip_width`] is 0 and no ghost axis is used).
    pub fn interpolate_col<G: GhostCells<T>>(
        &self,
        col_t: &[T],
        source: &StripSet<'_, T>,
        ghosts: &G,
        out: &mut [T],
    ) {
        assert_eq!(col_t.len(), self.nz * self.ny, "col_t length");
        assert_eq!(out.len(), self.nz * self.ny, "out length");
        let (ny, nz) = (self.ny as isize, self.nz as isize);
        let cb = self.constant_sums.as_deref().map(|s| &s.col[..]);
        // Phantom lines `(yq, zq)` outside the domain, over the frame the
        // taps can reach. Each is evaluated on first use and kept for the
        // rest of the call: a ghost line is a bulk read of `nx` cells and
        // their sum, and up to `extent`-many taps per neighbouring output
        // read the same one.
        let (ey, ez) = (
            self.stencil.extent_y() as isize,
            self.stencil.extent_z() as isize,
        );
        let frame_ny = ny + 2 * ey;
        let frame = (frame_ny * (nz + 2 * ez)) as usize;
        let mut phantom: Vec<Option<T>> = vec![None; frame];
        // The β correction of source line `(yq, zq)` for each distinct tap
        // `di`, kept the same way: it depends on nothing else, and every
        // tap with that `di` of up to `extent`-many outputs asks for it.
        let shifts = if self.fast_x { 0 } else { self.shifts };
        let mut beta: Vec<Option<T>> = vec![None; shifts * frame];
        // A fetched ghost line; stays unallocated without a ghost axis.
        let mut line_buf: Vec<T> = Vec::new();
        for z in 0..self.nz {
            for y in 0..self.ny {
                // f64 accumulation mirrors the fused checksum computation
                // (see `abft_core::checksum`): keeps the comparison margin
                // at ~1 ulp of T instead of O(k) ulps.
                let mut acc = cb.map_or(0.0, |c| c[z * self.ny + y].to_f64());
                for (tap, shift) in self.stencil.taps().iter().zip(&self.tap_shift) {
                    let yq = y as isize + tap.dj;
                    let zq = z as isize + tap.dk;
                    let at = || ((zq + ez) * frame_ny + yq + ey) as usize;
                    let line = if (0..ny).contains(&yq) && (0..nz).contains(&zq) {
                        col_t[(zq * ny + yq) as usize]
                    } else {
                        *phantom[at()].get_or_insert_with(|| {
                            self.phantom_col(col_t, yq, zq, ghosts, &mut line_buf)
                        })
                    };
                    let mut s = line.to_f64();
                    if let (false, Some(shift)) = (self.fast_x, shift) {
                        let corr = beta[shift * frame + at()]
                            .get_or_insert_with(|| self.corr_x(tap.di, yq, zq, source, ghosts));
                        s += corr.to_f64();
                    }
                    acc += tap.w.to_f64() * s;
                }
                out[z * self.ny + y] = T::from_f64(acc);
            }
        }
    }

    /// Interpolate the row checksums of iteration `t+1` from those of
    /// iteration `t` (Eq. 4 and its 3-D generalisation).
    ///
    /// `row_t`/`out` are flat `[z][x]` buffers.
    pub fn interpolate_row<G: GhostCells<T>>(
        &self,
        row_t: &[T],
        source: &StripSet<'_, T>,
        ghosts: &G,
        out: &mut [T],
    ) {
        assert_eq!(out.len(), self.nz * self.nx, "out length");
        for (z, out_layer) in out.chunks_exact_mut(self.nx).enumerate() {
            self.interpolate_row_layer(z, row_t, source, ghosts, out_layer);
        }
    }

    /// Layer `z` of [`Interpolator::interpolate_row`]: `out` is that
    /// layer's `[x]` vector. Of `row_t` (still the flat `[z][x]` buffer)
    /// only the layers [`Interpolator::row_source_layers`] names are read.
    pub fn interpolate_row_layer<G: GhostCells<T>>(
        &self,
        z: usize,
        row_t: &[T],
        source: &StripSet<'_, T>,
        ghosts: &G,
        out: &mut [T],
    ) {
        assert_eq!(row_t.len(), self.nz * self.nx, "row_t length");
        assert_eq!(out.len(), self.nx, "out layer length");
        let ca = self.constant_sums.as_deref().map(|s| &s.row[..]);
        for (x, o) in out.iter_mut().enumerate() {
            let mut acc = ca.map_or(0.0, |c| c[z * self.nx + x].to_f64());
            for tap in self.stencil.taps() {
                let xq = x as isize + tap.di;
                let zq = z as isize + tap.dk;
                let s = match self.bounds.x.resolve(xq, self.nx) {
                    // The x axis wins the precedence: a value-like x
                    // boundary short-circuits the whole y-sum.
                    AxisHit::Value(vx) => T::from_usize(self.ny) * vx,
                    AxisHit::Ghost(gx) => (0..self.ny)
                        .map(|y| ghosts.ghost(gx, y as isize + tap.dj, zq))
                        .sum(),
                    AxisHit::In(xr) => {
                        let mut s = self.phantom_row(row_t, xr, zq, ghosts);
                        if !self.fast_y && tap.dj != 0 {
                            s += self.corr_y(tap.dj, xr, zq, source, ghosts);
                        }
                        s
                    }
                };
                acc += tap.w.to_f64() * s.to_f64();
            }
            *o = T::from_f64(acc);
        }
    }

    /// The layers of `row_t` that interpolating layer `z`'s row checksums
    /// reads (`z + dk` folded through the z boundary; may repeat).
    pub fn row_source_layers(&self, z: usize) -> impl Iterator<Item = usize> + '_ {
        self.stencil.taps().iter().filter_map(move |tap| {
            match self.bounds.z.resolve(z as isize + tap.dk, self.nz) {
                AxisHit::In(zr) => Some(zr),
                _ => None,
            }
        })
    }

    /// Phantom column-checksum entry `Σ_x u[x, yq, zq]` for a possibly
    /// out-of-range `(yq, zq)` (the in-range case reads `col_t` directly).
    ///
    /// A ghost line is fetched whole into `line` (allocated by the first
    /// one, so a source without a ghost axis costs no allocation) and
    /// summed by [`line_sum`] — *the* order of every checksum line, so the
    /// entry is bitwise what the line's owner holds for it in its own
    /// `b(t)`, and the dependent-add chain is 16 times shorter than a
    /// sequential sum's.
    fn phantom_col<G: GhostCells<T>>(
        &self,
        col_t: &[T],
        yq: isize,
        zq: isize,
        ghosts: &G,
        line: &mut Vec<T>,
    ) -> T {
        let mut ghost_sum = |y: isize, z: isize| {
            line.clear();
            line.reserve_exact(self.nx);
            ghosts.ghost_line(0..self.nx, y, z, line);
            T::from_f64(line_sum(line))
        };
        match self.bounds.y.resolve(yq, self.ny) {
            AxisHit::Value(vy) => T::from_usize(self.nx) * vy,
            AxisHit::Ghost(gy) => ghost_sum(gy, zq),
            AxisHit::In(yr) => match self.bounds.z.resolve(zq, self.nz) {
                AxisHit::Value(vz) => T::from_usize(self.nx) * vz,
                AxisHit::Ghost(gz) => ghost_sum(yr as isize, gz),
                AxisHit::In(zr) => col_t[zr * self.ny + yr],
            },
        }
    }

    /// Phantom row-checksum entry `Σ_y u[xr, y, zq]` for in-range `xr` and
    /// possibly out-of-range `zq`.
    fn phantom_row<G: GhostCells<T>>(&self, row_t: &[T], xr: usize, zq: isize, ghosts: &G) -> T {
        match self.bounds.z.resolve(zq, self.nz) {
            AxisHit::Value(vz) => T::from_usize(self.ny) * vz,
            AxisHit::Ghost(gz) => (0..self.ny)
                .map(|y| ghosts.ghost(xr as isize, y as isize, gz))
                .sum(),
            AxisHit::In(zr) => row_t[zr * self.nx + xr],
        }
    }

    /// β correction for one tap's `x` offset `i` (paper Theorem 1):
    /// `Σ_x u[resolve(x+i), ·] − Σ_x u[x, ·]`, evaluated in `O(|i|)` from
    /// near-boundary data. `(yq, zq)` resolve once, by the sweep's y → z
    /// precedence (x is resolved per term), to where the line's in-range
    /// cells are read.
    fn corr_x<G: GhostCells<T>>(
        &self,
        i: isize,
        yq: isize,
        zq: isize,
        source: &StripSet<'_, T>,
        ghosts: &G,
    ) -> T {
        enum Line<T> {
            Value(T),
            Ghost(isize, isize),
            In(usize, usize),
        }
        let line = match self.bounds.y.resolve(yq, self.ny) {
            AxisHit::Value(vy) => Line::Value(vy),
            AxisHit::Ghost(gy) => Line::Ghost(gy, zq),
            AxisHit::In(yr) => match self.bounds.z.resolve(zq, self.nz) {
                AxisHit::Value(vz) => Line::Value(vz),
                AxisHit::Ghost(gz) => Line::Ghost(yr as isize, gz),
                AxisHit::In(zr) => Line::In(yr, zr),
            },
        };
        let point = |x: usize| match line {
            Line::Value(v) => v,
            Line::Ghost(gy, gz) => ghosts.ghost(x as isize, gy, gz),
            Line::In(yr, zr) => source.near_x(x, yr, zr, self.nx),
        };
        let mut corr = T::ZERO;
        for m in 0..i.unsigned_abs() {
            // In-range index whose contribution the shifted sum loses…
            let x_excl = if i > 0 { m } else { self.nx - 1 - m };
            corr -= point(x_excl);
            // …and the out-of-range read it gains instead.
            let x_raw = if i > 0 {
                (self.nx + m) as isize
            } else {
                -(m as isize) - 1
            };
            corr += match self.bounds.x.resolve(x_raw, self.nx) {
                AxisHit::In(xm) => point(xm),
                AxisHit::Value(v) => v,
                AxisHit::Ghost(gx) => ghosts.ghost(gx, yq, zq),
            };
        }
        corr
    }

    /// Time-`t` value at in-range `(xr, y)` with `zq` resolved.
    fn inner_row_point<G: GhostCells<T>>(
        &self,
        xr: usize,
        y: usize,
        zq: isize,
        source: &StripSet<'_, T>,
        ghosts: &G,
    ) -> T {
        match self.bounds.z.resolve(zq, self.nz) {
            AxisHit::Value(vz) => vz,
            AxisHit::Ghost(gz) => ghosts.ghost(xr as isize, y as isize, gz),
            AxisHit::In(zr) => source.near_y(xr, y, zr, self.ny),
        }
    }

    /// α correction for one tap's `y` offset `j` (paper Theorem 1),
    /// symmetric to [`Interpolator::corr_x`].
    fn corr_y<G: GhostCells<T>>(
        &self,
        j: isize,
        xr: usize,
        zq: isize,
        source: &StripSet<'_, T>,
        ghosts: &G,
    ) -> T {
        let mut corr = T::ZERO;
        for m in 0..j.unsigned_abs() {
            let y_excl = if j > 0 { m } else { self.ny - 1 - m };
            corr -= self.inner_row_point(xr, y_excl, zq, source, ghosts);
            let y_raw = if j > 0 {
                (self.ny + m) as isize
            } else {
                -(m as isize) - 1
            };
            corr += match self.bounds.y.resolve(y_raw, self.ny) {
                AxisHit::In(ym) => self.inner_row_point(xr, ym, zq, source, ghosts),
                AxisHit::Value(v) => v,
                AxisHit::Ghost(gy) => ghosts.ghost(xr as isize, gy, zq),
            };
        }
        corr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumState;
    use crate::phantom::capture_all_layers;
    use abft_grid::NoGhosts;
    use abft_stencil::{sweep, ChecksumMode, Exec, NoHook};

    fn grid(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 13 + y * 7 + z * 29) % 17) as f64 * 0.25 - 1.5
        })
    }

    /// Sweep once, then check that interpolated checksums equal checksums
    /// computed directly from the swept data — the claim of Theorem 2.
    fn assert_interpolation_exact(
        stencil: Stencil3D<f64>,
        bounds: BoundarySpec<f64>,
        dims: (usize, usize, usize),
        with_constant: bool,
        use_strips: bool,
    ) {
        let (nx, ny, nz) = dims;
        let src = grid(nx, ny, nz);
        let constant = with_constant
            .then(|| Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x + y + z) % 5) as f64 * 0.1));
        let mut dst = Grid3D::zeros(nx, ny, nz);
        sweep(
            &src,
            &mut dst,
            &stencil,
            &bounds,
            constant.as_ref(),
            &NoGhosts,
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );

        let cs_t = ChecksumState::compute(&src, true);
        let cs_t1 = ChecksumState::compute(&dst, true);

        let interp = Interpolator::new(&stencil, &bounds, constant.as_ref(), dims);
        let strips;
        let source = if use_strips {
            let w = interp.col_strip_width().max(interp.row_strip_width());
            strips = capture_all_layers(&src, w, w);
            StripSet::Strips(&strips)
        } else {
            StripSet::Grid(&src)
        };

        let mut col_i = vec![0.0; nz * ny];
        let mut row_i = vec![0.0; nz * nx];
        interp.interpolate_col(&cs_t.col, &source, &NoGhosts, &mut col_i);
        let row_t = cs_t.row.as_ref().unwrap();
        interp.interpolate_row(row_t, &source, &NoGhosts, &mut row_i);

        for (k, (&a, &b)) in col_i.iter().zip(&cs_t1.col).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "col mismatch at {k}: interpolated {a} vs computed {b} ({bounds:?})"
            );
        }
        let row_t1 = cs_t1.row.as_ref().unwrap();
        for (k, (&a, &b)) in row_i.iter().zip(row_t1).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "row mismatch at {k}: interpolated {a} vs computed {b} ({bounds:?})"
            );
        }
    }

    fn hotspot_like() -> Stencil3D<f64> {
        Stencil3D::seven_point(0.4, 0.11, 0.07, 0.05)
    }

    fn asymmetric() -> Stencil3D<f64> {
        Stencil3D::from_tuples(&[
            (0, 0, 0, 0.5),
            (-1, 0, 0, 0.2),
            (1, 0, 0, 0.1),
            (0, -1, 0, 0.15),
            (0, 2, 0, 0.05),
            (0, 0, 1, 0.08),
        ])
    }

    fn wide() -> Stencil3D<f64> {
        Stencil3D::from_tuples(&[
            (0, 0, 0, 0.3),
            (-2, 0, 0, 0.1),
            (2, 0, 0, 0.1),
            (0, -2, 0, 0.1),
            (0, 2, 0, 0.1),
            (1, 1, 0, 0.05),
            (-1, -1, -1, 0.05),
        ])
    }

    #[test]
    fn fast_path_detection() {
        let s = hotspot_like();
        // symmetric width-1 + clamp => fast
        assert!(!needs_strips_x(&s, &Boundary::Clamp));
        assert!(!needs_strips_y(&s, &Boundary::Periodic));
        // zero/constant/reflect need strips
        assert!(needs_strips_x(&s, &Boundary::Zero));
        assert!(needs_strips_x(&s, &Boundary::Constant(1.0)));
        assert!(needs_strips_x(&s, &Boundary::Reflect));
        // asymmetric clamp needs strips
        assert!(needs_strips_x(&asymmetric(), &Boundary::Clamp));
        // wide clamp needs strips even if symmetric
        assert!(needs_strips_x(&wide(), &Boundary::Clamp));
        // no x taps => never
        let flat = Stencil3D::from_tuples(&[(0, 1, 0, 1.0f64), (0, -1, 0, 1.0)]);
        assert!(!needs_strips_x(&flat, &Boundary::Zero));
    }

    #[test]
    fn exact_clamp_symmetric_fast_path() {
        assert_interpolation_exact(
            hotspot_like(),
            BoundarySpec::clamp(),
            (9, 7, 3),
            true,
            false,
        );
    }

    #[test]
    fn exact_periodic() {
        assert_interpolation_exact(wide(), BoundarySpec::periodic(), (9, 8, 3), false, false);
    }

    #[test]
    fn exact_zero_bounds() {
        assert_interpolation_exact(asymmetric(), BoundarySpec::zero(), (9, 7, 3), true, false);
    }

    #[test]
    fn exact_constant_bounds() {
        assert_interpolation_exact(
            asymmetric(),
            BoundarySpec::uniform(Boundary::Constant(2.5)),
            (8, 9, 2),
            false,
            false,
        );
    }

    #[test]
    fn exact_reflect_bounds() {
        assert_interpolation_exact(
            wide(),
            BoundarySpec::uniform(Boundary::Reflect),
            (9, 9, 3),
            false,
            false,
        );
    }

    #[test]
    fn exact_clamp_asymmetric_general_path() {
        assert_interpolation_exact(asymmetric(), BoundarySpec::clamp(), (9, 7, 3), true, false);
    }

    #[test]
    fn exact_clamp_wide_general_path() {
        assert_interpolation_exact(wide(), BoundarySpec::clamp(), (10, 9, 3), false, false);
    }

    #[test]
    fn exact_mixed_bounds() {
        assert_interpolation_exact(
            asymmetric(),
            BoundarySpec {
                x: Boundary::Reflect,
                y: Boundary::Constant(-1.0),
                z: Boundary::Clamp,
            },
            (9, 8, 3),
            true,
            false,
        );
    }

    /// `interpolate_col` evaluates each line's β once per distinct `di`
    /// and reuses it; tap by tap from scratch must give the same bits.
    #[test]
    fn shared_corrections_equal_per_tap_evaluation_bitwise() {
        for (stencil, bounds) in [
            (asymmetric(), BoundarySpec::clamp()),
            (wide(), BoundarySpec::uniform(Boundary::Reflect)),
            (wide(), BoundarySpec::zero()),
        ] {
            let (nx, ny, nz) = (9, 8, 3);
            let src = grid(nx, ny, nz);
            let col_t = ChecksumState::compute(&src, false).col;
            let interp = Interpolator::new(&stencil, &bounds, None, (nx, ny, nz));
            let source = StripSet::Grid(&src);
            let mut got = vec![0.0; nz * ny];
            interp.interpolate_col(&col_t, &source, &NoGhosts, &mut got);
            for z in 0..nz {
                for y in 0..ny {
                    let mut acc = 0.0;
                    for tap in stencil.taps() {
                        let (yq, zq) = (y as isize + tap.dj, z as isize + tap.dk);
                        let mut s = interp.phantom_col(&col_t, yq, zq, &NoGhosts, &mut Vec::new());
                        if tap.di != 0 {
                            s += interp.corr_x(tap.di, yq, zq, &source, &NoGhosts);
                        }
                        acc += tap.w * s;
                    }
                    assert_eq!(got[z * ny + y].to_bits(), acc.to_bits(), "({y}, {z})");
                }
            }
        }
    }

    #[test]
    fn exact_with_strip_source() {
        assert_interpolation_exact(asymmetric(), BoundarySpec::zero(), (9, 7, 3), true, true);
        assert_interpolation_exact(
            wide(),
            BoundarySpec::uniform(Boundary::Reflect),
            (9, 9, 3),
            false,
            true,
        );
    }

    #[test]
    fn exact_single_layer_2d() {
        let s2 = abft_stencil::Stencil2D::from_tuples(&[
            (0, 0, 0.5f64),
            (-1, 0, 0.2),
            (1, 0, 0.1),
            (0, -1, 0.1),
            (0, 1, 0.1),
        ])
        .into_3d();
        assert_interpolation_exact(s2, BoundarySpec::clamp(), (12, 10, 1), false, false);
    }

    #[test]
    fn exact_z_coupled_layers() {
        // strong z coupling: checksum of layer z depends on z±1 vectors
        let s = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.5f64),
            (0, 0, -1, 0.3),
            (0, 0, 1, 0.2),
            (1, 0, 0, 0.1),
            (-1, 0, 0, 0.1),
        ]);
        assert_interpolation_exact(s, BoundarySpec::clamp(), (7, 6, 5), false, false);
    }
}
