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
//! All resolution follows the sweep's x → y → z precedence exactly (the
//! per-read resolution the sweep's tests hold it to, `read_resolved` in
//! `abft-stencil`, is test-only: it is their oracle), so in exact
//! arithmetic interpolated and freshly computed checksums are **equal**,
//! not merely close; floating point leaves `O(n·eps)` rounding noise,
//! absorbed by the detection threshold ε.
//!
//! The column interpolation runs like the sweep runs Eq. 1: the source
//! lines `b(t)[y+j]` — phantom ones included, and with `β` added on one
//! plane per distinct `i` — are laid out once per call in a frame
//! `2·extent` wider than the vector on the y and z axes, and then each
//! tap adds `w · frame[…]` to a contiguous run of outputs (taps outer,
//! outputs inner). Each output still sees its constant term and then the
//! taps in tap order, so the frame changes no bit of the result; the
//! oracle is `tests::shared_corrections_equal_per_tap_evaluation_bitwise`,
//! a per-output, per-tap loop drawn over every boundary kind.

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
    /// Per tap, the plane of `interpolate_col`'s frame it reads: 0 for the
    /// plain source lines, or — off the x fast path, for a non-zero `di` —
    /// `1 +` the place of that `di` among the distinct ones, whose plane
    /// holds each line plus its β. And how many planes there are.
    tap_plane: Vec<usize>,
    planes: usize,
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
        let fast_x = !needs_strips_x(stencil, &bounds.x);
        let mut x_shifts: Vec<isize> = Vec::new();
        let tap_plane = stencil.taps().iter().map(|t| {
            if fast_x || t.di == 0 {
                return 0;
            }
            1 + x_shifts.iter().position(|&i| i == t.di).unwrap_or_else(|| {
                x_shifts.push(t.di);
                x_shifts.len() - 1
            })
        });
        Self {
            tap_plane: tap_plane.collect(),
            planes: 1 + x_shifts.len(),
            stencil: stencil.clone(),
            bounds: *bounds,
            constant_sums,
            nx,
            ny,
            nz,
            fast_x,
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
    ///
    /// Evaluated the way the sweep evaluates Eq. 1. First a *frame* of
    /// source lines `(yq, zq)`, `(ny + 2·ey) × (nz + 2·ez)` of them in
    /// `f64`, is filled once: in-range lines from `col_t`, and every
    /// out-of-range line some tap reaches through the boundaries (a ghost
    /// line is fetched and summed once however many taps read it). Off
    /// the fast path, each distinct tap `di` adds one plane holding
    /// `line + β(di)`, filled only on the lines a tap with that `di`
    /// reaches, so each β is evaluated once too. Then, per layer, the
    /// taps run outer and the outputs inner: `acc[y] += w · s[y + dj]`
    /// over a contiguous run of the tap's plane and layer `z + dk`.
    /// Every entry still starts from `c_y` and takes `+= w·s` in tap
    /// order, with `s` widened and corrected exactly as one tap at a time
    /// would, so the result is bitwise the per-output evaluation's.
    pub fn interpolate_col<G: GhostCells<T>>(
        &self,
        col_t: &[T],
        source: &StripSet<'_, T>,
        ghosts: &G,
        out: &mut [T],
    ) {
        let (ny, nz) = (self.ny, self.nz);
        assert_eq!(col_t.len(), nz * ny, "col_t length");
        assert_eq!(out.len(), nz * ny, "out length");
        let (nyi, nzi) = (ny as isize, nz as isize);
        let (ey, ez) = (self.stencil.extent_y(), self.stencil.extent_z());
        let frame_ny = ny + 2 * ey;
        let area = frame_ny * (nz + 2 * ez);
        // Frame position of source line `(yq, zq)`.
        let at = |yq: isize, zq: isize| {
            (zq + ez as isize) as usize * frame_ny + (yq + ey as isize) as usize
        };
        let mut frame = vec![0.0f64; self.planes * area];
        let mut filled = vec![false; self.planes * area];
        // A fetched ghost line; stays unallocated without a ghost axis.
        let mut line_buf: Vec<T> = Vec::new();

        // Plane 0, in range: the checksum vector itself.
        for (z, layer) in col_t.chunks_exact(ny).enumerate() {
            let to = at(0, z as isize);
            for (s, &c) in frame[to..to + ny].iter_mut().zip(layer) {
                *s = c.to_f64();
            }
        }
        // Plane 0, out of range: the phantom lines some tap reaches — all
        // of a tap's lines on an out-of-range layer, and on an in-range
        // one those past the y edge its `dj` crosses.
        for tap in self.stencil.taps() {
            let (dj, dk) = (tap.dj, tap.dk);
            let y_edge = if dj < 0 {
                dj..(dj + nyi).min(0)
            } else {
                nyi.max(dj)..dj + nyi
            };
            for zq in dk..dk + nzi {
                let yqs = if (0..nzi).contains(&zq) {
                    y_edge.clone()
                } else {
                    dj..dj + nyi
                };
                for yq in yqs {
                    let i = at(yq, zq);
                    if !filled[i] {
                        filled[i] = true;
                        frame[i] = self
                            .phantom_col(col_t, yq, zq, ghosts, &mut line_buf)
                            .to_f64();
                    }
                }
            }
        }
        // The β planes: `line + β(di)` on every line a tap with that `di`
        // reaches, each evaluated once.
        for (tap, &plane) in self.stencil.taps().iter().zip(&self.tap_plane) {
            if plane == 0 {
                continue;
            }
            let base = plane * area;
            for zq in tap.dk..tap.dk + nzi {
                for yq in tap.dj..tap.dj + nyi {
                    let i = at(yq, zq);
                    if !filled[base + i] {
                        filled[base + i] = true;
                        let corr = self.corr_x(tap.di, yq, zq, source, ghosts);
                        frame[base + i] = frame[i] + corr.to_f64();
                    }
                }
            }
        }

        // Taps outer, outputs inner. f64 accumulation mirrors the fused
        // checksum computation (see `abft_core::checksum`): keeps the
        // comparison margin at ~1 ulp of T instead of O(k) ulps.
        let cb = self.constant_sums.as_deref().map(|s| &s.col[..]);
        let mut acc = vec![0.0f64; ny];
        for (z, out_layer) in out.chunks_exact_mut(ny).enumerate() {
            match cb {
                Some(c) => {
                    for (a, &c) in acc.iter_mut().zip(&c[z * ny..(z + 1) * ny]) {
                        *a = c.to_f64();
                    }
                }
                None => acc.fill(0.0),
            }
            for (tap, &plane) in self.stencil.taps().iter().zip(&self.tap_plane) {
                let w = tap.w.to_f64();
                let from = plane * area + at(tap.dj, z as isize + tap.dk);
                for (a, &s) in acc.iter_mut().zip(&frame[from..from + ny]) {
                    *a += w * s;
                }
            }
            for (o, &a) in out_layer.iter_mut().zip(&acc) {
                *o = T::from_f64(a);
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
    use proptest::prelude::*;

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

    /// The ghost value at `(x, y, z)`: depends on all three coordinates.
    fn pattern<T: Real>(x: isize, y: isize, z: isize) -> T {
        T::from_f64((x * 7 + y * 13 + z * 29).rem_euclid(31) as f64 * 0.37 - 4.0)
    }

    /// A ghost source served through the trait's default bulk read.
    struct PatternGhost;
    impl<T: Real> GhostCells<T> for PatternGhost {
        fn ghost(&self, x: isize, y: isize, z: isize) -> T {
            pattern(x, y, z)
        }
    }

    /// The same values from a source that overrides the bulk read.
    struct BulkPatternGhost;
    impl<T: Real> GhostCells<T> for BulkPatternGhost {
        fn ghost(&self, x: isize, y: isize, z: isize) -> T {
            pattern(x, y, z)
        }

        fn ghost_line(&self, xs: std::ops::Range<usize>, y: isize, z: isize, out: &mut Vec<T>) {
            out.extend(xs.map(|x| pattern::<T>(x as isize, y, z)));
        }
    }

    /// The per-output evaluation of Eq. 5 that `interpolate_col`'s frame
    /// replaces: for each entry, its constant term, then tap by tap the
    /// source line (phantom through the boundaries) widened to `f64`,
    /// plus its β off the fast path, times the weight.
    fn per_tap<T: Real, G: GhostCells<T>>(
        interp: &Interpolator<T>,
        col_t: &[T],
        source: &StripSet<'_, T>,
        ghosts: &G,
    ) -> Vec<T> {
        let (ny, nz) = (interp.ny, interp.nz);
        let cb = interp.constant_sums.as_deref().map(|s| &s.col[..]);
        let mut out = Vec::with_capacity(nz * ny);
        for z in 0..nz {
            for y in 0..ny {
                let mut acc = cb.map_or(0.0, |c| c[z * ny + y].to_f64());
                for tap in interp.stencil.taps() {
                    let (yq, zq) = (y as isize + tap.dj, z as isize + tap.dk);
                    let line = interp.phantom_col(col_t, yq, zq, ghosts, &mut Vec::new());
                    let mut s = line.to_f64();
                    if !interp.fast_x && tap.di != 0 {
                        s += interp.corr_x(tap.di, yq, zq, source, ghosts).to_f64();
                    }
                    acc += tap.w.to_f64() * s;
                }
                out.push(T::from_f64(acc));
            }
        }
        out
    }

    /// One drawn case in type `T`: `interpolate_col` against [`per_tap`],
    /// bitwise.
    fn frame_matches_per_tap<T: Real>(
        taps: &[(isize, isize, isize, f64)],
        bounds: [usize; 3],
        dims: (usize, usize, usize),
        with_constant: bool,
        bulk_ghosts: bool,
    ) -> Result<(), TestCaseError> {
        let w = |v: f64| T::from_f64(v);
        let taps: Vec<_> = taps.iter().map(|&(i, j, k, v)| (i, j, k, w(v))).collect();
        let stencil = Stencil3D::from_tuples(&taps);
        let kind = |b: usize| match b {
            0 => Boundary::Clamp,
            1 => Boundary::Periodic,
            2 => Boundary::Zero,
            3 => Boundary::Constant(w(2.5)),
            4 => Boundary::Reflect,
            _ => Boundary::Ghost,
        };
        let bounds = BoundarySpec {
            x: kind(bounds[0]),
            y: kind(bounds[1]),
            z: kind(bounds[2]),
        };
        // Each axis at least one longer than the stencil's reach on it.
        let (nx, ny, nz) = (
            stencil.extent_x() + dims.0,
            stencil.extent_y() + dims.1,
            stencil.extent_z() + dims.2,
        );
        let src = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            w(((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.3 - 3.0)
        });
        let constant = with_constant
            .then(|| Grid3D::from_fn(nx, ny, nz, |x, y, z| w((x + 2 * y + 3 * z) as f64 * 0.11)));
        let col_t = ChecksumState::compute(&src, false).col;
        let interp = Interpolator::new(&stencil, &bounds, constant.as_ref(), (nx, ny, nz));
        let source = StripSet::Grid(&src);
        let mut got = vec![T::ZERO; nz * ny];
        let expect = if bulk_ghosts {
            interp.interpolate_col(&col_t, &source, &BulkPatternGhost, &mut got);
            per_tap(&interp, &col_t, &source, &BulkPatternGhost)
        } else {
            interp.interpolate_col(&col_t, &source, &PatternGhost, &mut got);
            per_tap(&interp, &col_t, &source, &PatternGhost)
        };
        for (n, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert!(
                g.to_f64().to_bits() == e.to_f64().to_bits(),
                "entry (y {}, z {}): frame {g:?} vs per tap {e:?}; {bounds:?}, \
                 dims {:?}, taps {taps:?}, constant {with_constant}",
                n % ny,
                n / ny,
                (nx, ny, nz),
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// `interpolate_col` fills each source line, and each line's β
        /// per distinct `di`, once into a frame and runs taps outer; the
        /// per-output, per-tap evaluation must give the same bits — over
        /// every boundary kind per axis, ghost sources with and without a
        /// bulk read, `f32` and `f64`, with and without a constant field,
        /// and domains as short as the stencil's reach plus one, where the
        /// frame is wider than the domain.
        #[test]
        fn shared_corrections_equal_per_tap_evaluation_bitwise(
            taps in proptest::collection::vec(
                (-2isize..=2, -2isize..=2, -2isize..=2, -1.0f64..1.0),
                1..=9,
            ),
            mirror_x in any::<bool>(),
            bounds in (0usize..6, 0usize..6, 0usize..6),
            dims in (1usize..8, 1usize..6, 1usize..4),
            with_constant in any::<bool>(),
            bulk_ghosts in any::<bool>(),
        ) {
            // Mirroring every tap in x makes the stencil x-symmetric, so a
            // reach-1 clamp x takes the fast path.
            let mut taps = taps;
            if mirror_x {
                let mirrored: Vec<_> = taps.iter().map(|&(i, j, k, v)| (-i, j, k, v)).collect();
                taps.extend(mirrored);
            }
            let bounds = [bounds.0, bounds.1, bounds.2];
            frame_matches_per_tap::<f32>(&taps, bounds, dims, with_constant, bulk_ghosts)?;
            frame_matches_per_tap::<f64>(&taps, bounds, dims, with_constant, bulk_ghosts)?;
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
