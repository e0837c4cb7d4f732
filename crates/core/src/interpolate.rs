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
use abft_grid::{copy_box, AxisHit, Boundary, BoundarySpec, Grid3D, NoGhosts};
use abft_num::{line_sum, Real};
use abft_stencil::{InteriorWindow, LineSums, Stencil3D, StencilSim};
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
/// box) combination. It holds the constant-term sums `c_x`/`c_y` of
/// Theorem 1; each call then runs in `O(nz · n · k²)` time for vectors
/// of length `n`, independent of the domain volume.
///
/// It covers a box of a grid, and every read resolves one way: box-local
/// `q` is the grid cell `origin + q` resolved through the **grid's**
/// boundaries on the grid's dims, x → y → z, as the sweep resolves it. A
/// read that lands in the box is a `b(t)` entry or a box cell; one past
/// it is time-`t` grid memory (a rank's pad). The whole-grid interpolator
/// is the box at the origin of a grid its own size.
#[derive(Debug, Clone)]
pub struct Interpolator<T> {
    stencil: Stencil3D<T>,
    /// The grid's boundaries.
    bounds: [Boundary<T>; 3],
    /// Constant sums `c_x` (`row`, flat `[z][x]`) and `c_y` (`col`, flat
    /// `[z][y]`) over the box; `None` without a constant field.
    constant_sums: Option<Arc<LineSums<T>>>,
    /// The box's dims, its first cell in the grid, and the grid's dims.
    n: [usize; 3],
    origin: [usize; 3],
    grid: [usize; 3],
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
    /// Build the whole-grid interpolator, summing `constant` afresh.
    /// `dims` must match the grids the checksums are computed from.
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
        let n = [dims.0, dims.1, dims.2];
        Self::placed(stencil, bounds, sums, n, [0; 3], n)
    }

    /// Build the interpolator of the `domain` box of `sim`'s grid. For the
    /// whole grid the constant field's sums are computed once per field
    /// and shared by every clone of `sim`, so this costs no pass over the
    /// domain; a smaller box sums its slice of the field.
    pub fn for_box(sim: &StencilSim<T>, domain: &InteriorWindow) -> Self {
        let n = [domain.x.len(), domain.y.len(), domain.z.len()];
        let origin = [domain.x.start, domain.y.start, domain.z.start];
        let sums = if *domain == sim.whole() {
            sim.constant_field().map(|c| c.line_sums().clone())
        } else {
            sim.constant().map(|c| {
                let mut slice = Grid3D::zeros(n[0], n[1], n[2]);
                copy_box(c, origin, &mut slice, [0; 3], n);
                Arc::new(LineSums::of(&slice))
            })
        };
        let (gx, gy, gz) = sim.dims();
        Self::placed(sim.stencil(), sim.bounds(), sums, n, origin, [gx, gy, gz])
    }

    fn placed(
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant_sums: Option<Arc<LineSums<T>>>,
        n: [usize; 3],
        origin: [usize; 3],
        grid: [usize; 3],
    ) -> Self {
        // The corrections cancel only where the box spans its grid: past a
        // cut face lies the pad, not the box's own cells.
        let fast_x =
            stencil.extent_x() == 0 || n[0] == grid[0] && !needs_strips_x(stencil, &bounds.x);
        let fast_y =
            stencil.extent_y() == 0 || n[1] == grid[1] && !needs_strips_y(stencil, &bounds.y);
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
            bounds: [bounds.x, bounds.y, bounds.z],
            constant_sums,
            n,
            origin,
            grid,
            fast_x,
            fast_y,
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

    /// `(nx, ny, nz)` of the box this interpolator was built for.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n[0], self.n[1], self.n[2])
    }

    /// Interpolate the column checksums of iteration `t+1` from those of
    /// iteration `t` (Eq. 5 and its 3-D generalisation).
    ///
    /// `col_t`/`out` are flat `[z][y]` buffers; `source` provides time-`t`
    /// domain data in grid coordinates (may be [`StripSet::None`] iff
    /// [`Interpolator::col_strip_width`] is 0 and no read leaves the box;
    /// a read that does needs [`StripSet::Grid`]). The [`NoGhosts`]
    /// argument carries nothing.
    ///
    /// Evaluated the way the sweep evaluates Eq. 1. First a *frame* of
    /// source lines `(yq, zq)`, `(ny + 2·ey) × (nz + 2·ez)` of them in
    /// `f64`, is filled once: in-box lines from `col_t`, and every line
    /// past the box some tap reaches (a grid line outside the box is
    /// summed once however many taps read it). Off the fast path, each
    /// distinct tap `di` adds one plane holding `line + β(di)`, filled
    /// only on the lines a tap with that `di` reaches, so each β is
    /// evaluated once too. Then, per layer, the taps run outer and the
    /// outputs inner: `acc[y] += w · s[y + dj]` over a contiguous run of
    /// the tap's plane and layer `z + dk`. Every entry still starts from
    /// `c_y` and takes `+= w·s` in tap order, with `s` widened and
    /// corrected exactly as one tap at a time would, so the result is
    /// bitwise the per-output evaluation's.
    pub fn interpolate_col(
        &self,
        col_t: &[T],
        source: &StripSet<'_, T>,
        _: &NoGhosts,
        out: &mut [T],
    ) {
        let [_, ny, nz] = self.n;
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

        // Plane 0, in the box: the checksum vector itself.
        for (z, layer) in col_t.chunks_exact(ny).enumerate() {
            let to = at(0, z as isize);
            for (s, &c) in frame[to..to + ny].iter_mut().zip(layer) {
                *s = c.to_f64();
            }
        }
        // Plane 0, past the box: the phantom lines some tap reaches — all
        // of a tap's lines on a layer past the box, and on one in it those
        // past the y face its `dj` crosses.
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
                        frame[i] = self.phantom_col(col_t, yq, zq, source).to_f64();
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
                        let corr = self.corr_x(tap.di, yq, zq, source);
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
    pub fn interpolate_row(&self, row_t: &[T], source: &StripSet<'_, T>, out: &mut [T]) {
        let nx = self.n[0];
        assert_eq!(out.len(), self.n[2] * nx, "out length");
        for (z, out_layer) in out.chunks_exact_mut(nx).enumerate() {
            self.interpolate_row_layer(z, row_t, source, out_layer);
        }
    }

    /// Layer `z` of [`Interpolator::interpolate_row`]: `out` is that
    /// layer's `[x]` vector. Of `row_t` (still the flat `[z][x]` buffer)
    /// only the layers [`Interpolator::row_source_layers`] names are read.
    pub fn interpolate_row_layer(
        &self,
        z: usize,
        row_t: &[T],
        source: &StripSet<'_, T>,
        out: &mut [T],
    ) {
        let [nx, ny, nz] = self.n;
        assert_eq!(row_t.len(), nz * nx, "row_t length");
        assert_eq!(out.len(), nx, "out layer length");
        let ca = self.constant_sums.as_deref().map(|s| &s.row[..]);
        for (x, o) in out.iter_mut().enumerate() {
            let mut acc = ca.map_or(0.0, |c| c[z * nx + x].to_f64());
            for tap in self.stencil.taps() {
                let zq = z as isize + tap.dk;
                let s = match self.resolve(0, x as isize + tap.di) {
                    // The x axis wins the precedence: a value-like x
                    // boundary short-circuits the whole y-sum.
                    AxisHit::Value(vx) => T::from_usize(ny) * vx,
                    AxisHit::In(xr) => {
                        let mut s = self.phantom_row(row_t, xr, zq, source);
                        if !self.fast_y && tap.dj != 0 {
                            s += self.corr_y(tap.dj, xr, zq, source);
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
    /// reads (`z + dk` resolved into the box; may repeat).
    pub fn row_source_layers(&self, z: usize) -> impl Iterator<Item = usize> + '_ {
        self.stencil.taps().iter().filter_map(move |tap| {
            match self.resolve(2, z as isize + tap.dk) {
                AxisHit::In(zr) => self.local(2, zr),
                AxisHit::Value(_) => None,
            }
        })
    }

    /// Box-local `q` on axis `a` as a grid read: `origin + q` resolved
    /// through the grid's boundary on the grid's length.
    ///
    /// A read leaves the box by at most the stencil's extent on that
    /// axis, and leaves the grid only through a face the box shares with
    /// it: a box inside a padded grid reads its pad and never resolves
    /// past it, so the far ends of an unwrapped periodic pad are never
    /// read (debug builds check both).
    #[inline]
    fn resolve(&self, a: usize, q: isize) -> AxisHit<T> {
        let (o, n, g) = (self.origin[a], self.n[a], self.grid[a]);
        let p = o as isize + q;
        debug_assert!(
            {
                let e = [
                    self.stencil.extent_x(),
                    self.stencil.extent_y(),
                    self.stencil.extent_z(),
                ][a];
                let leaves_through_a_shared_face = if p < 0 { o == 0 } else { o + n == g };
                (-(e as isize)..(n + e) as isize).contains(&q)
                    && ((0..g as isize).contains(&p) || leaves_through_a_shared_face)
            },
            "read {q} on axis {a} of the box {o}..{} leaves its grid of {g} past the pad",
            o + n
        );
        self.bounds[a].resolve(p, g)
    }

    /// Grid coordinate `i` on axis `a` as a box-local one, if in the box.
    #[inline]
    fn local(&self, a: usize, i: usize) -> Option<usize> {
        i.checked_sub(self.origin[a]).filter(|&l| l < self.n[a])
    }

    /// Box-local line `(yq, zq)` as a grid line, y before z: its grid
    /// `[y, z]`, or the value a zero/constant end yields.
    fn line(&self, yq: isize, zq: isize) -> Result<[usize; 2], T> {
        match (self.resolve(1, yq), self.resolve(2, zq)) {
            (AxisHit::Value(v), _) | (AxisHit::In(_), AxisHit::Value(v)) => Err(v),
            (AxisHit::In(y), AxisHit::In(z)) => Ok([y, z]),
        }
    }

    /// Phantom column-checksum entry `Σ_x u[x, yq, zq]` over the box's
    /// x-range for a line `(yq, zq)` past the box. A line that resolves
    /// into the box is its `b(t)` entry. One that lands outside is the
    /// grid line's [`line_sum`] over the box's x-range — *the* order of
    /// every checksum line, so the entry is bitwise what the line's owner
    /// holds for it in its own `b(t)`.
    fn phantom_col(&self, col_t: &[T], yq: isize, zq: isize, source: &StripSet<'_, T>) -> T {
        let [nx, ny, _] = self.n;
        match self.line(yq, zq) {
            Err(v) => T::from_usize(nx) * v,
            Ok([y, z]) => match (self.local(1, y), self.local(2, z)) {
                (Some(yl), Some(zl)) => col_t[zl * ny + yl],
                _ => {
                    let start = (z * self.grid[1] + y) * self.grid[0] + self.origin[0];
                    T::from_f64(line_sum(&pad(source).as_slice()[start..start + nx]))
                }
            },
        }
    }

    /// Phantom row-checksum entry `Σ_y u[x, y, zq]` over the box's
    /// y-range for grid column `x`: its `row_t` entry when `(x, zq)`
    /// resolves into the box, else the grid's cells summed in `f64` in
    /// `y` order, as the box's own rows are.
    fn phantom_row(&self, row_t: &[T], x: usize, zq: isize, source: &StripSet<'_, T>) -> T {
        let [nx, ny, _] = self.n;
        match self.resolve(2, zq) {
            AxisHit::Value(vz) => T::from_usize(ny) * vz,
            AxisHit::In(z) => match (self.local(0, x), self.local(2, z)) {
                (Some(xl), Some(zl)) => row_t[zl * nx + xl],
                _ => {
                    let ys = self.origin[1]..self.origin[1] + ny;
                    let g = pad(source);
                    T::from_f64(ys.fold(0.0, |acc, y| acc + g.at(x, y, z).to_f64()))
                }
            },
        }
    }

    /// β correction for one tap's `x` offset `i` (paper Theorem 1):
    /// `Σ_x u[resolve(x+i), ·] − Σ_x u[x, ·]` over the box's x-range,
    /// evaluated in `O(|i|)` reads of the line `(yq, zq)`, which resolves
    /// once, y before z (x is resolved per term and wins the precedence).
    fn corr_x(&self, i: isize, yq: isize, zq: isize, source: &StripSet<'_, T>) -> T {
        let line = self.line(yq, zq);
        self.correction(0, i, |xq| match (self.resolve(0, xq), line) {
            (AxisHit::Value(v), _) | (AxisHit::In(_), Err(v)) => v,
            (AxisHit::In(x), Ok([y, z])) => source.near_x(x, y, z, self.grid[0]),
        })
    }

    /// α correction for one tap's `y` offset `j` at grid column `x`,
    /// symmetric to [`Interpolator::corr_x`]: y is resolved per term, and
    /// `zq` once.
    fn corr_y(&self, j: isize, x: usize, zq: isize, source: &StripSet<'_, T>) -> T {
        let z = self.resolve(2, zq);
        self.correction(1, j, |yq| match (self.resolve(1, yq), z) {
            (AxisHit::Value(v), _) | (AxisHit::In(_), AxisHit::Value(v)) => v,
            (AxisHit::In(y), AxisHit::In(z)) => source.near_y(x, y, z, self.grid[1]),
        })
    }

    /// `Σ point(q + i) − Σ point(q)` along axis `a` of the box: per box
    /// cell the shifted sum loses, the read past the box's face it gains
    /// instead.
    fn correction(&self, a: usize, i: isize, point: impl Fn(isize) -> T) -> T {
        let n = self.n[a] as isize;
        let mut corr = T::ZERO;
        for m in 0..i.abs() {
            let lost = if i > 0 { m } else { n - 1 - m };
            corr -= point(lost);
            corr += point(if i > 0 { n + m } else { -m - 1 });
        }
        corr
    }
}

/// The grid a read past the box lands in.
fn pad<'a, T>(source: &StripSet<'a, T>) -> &'a Grid3D<T> {
    match source {
        StripSet::Grid(g) => g,
        _ => panic!("a read past the box needs its grid as the source"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::box_col_into;
    use crate::checksum::ChecksumState;
    use crate::phantom::capture_all_layers;
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
        interp.interpolate_row(row_t, &source, &mut row_i);

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

    /// The per-output evaluation of Eq. 5 that `interpolate_col`'s frame
    /// replaces: for each entry, its constant term, then tap by tap the
    /// source line (phantom through the grid's boundaries, or the grid
    /// line past the box) widened to `f64`, plus its β off the fast path,
    /// times the weight.
    fn per_tap<T: Real>(interp: &Interpolator<T>, col_t: &[T], source: &StripSet<'_, T>) -> Vec<T> {
        let [_, ny, nz] = interp.n;
        let cb = interp.constant_sums.as_deref().map(|s| &s.col[..]);
        let mut out = Vec::with_capacity(nz * ny);
        for z in 0..nz {
            for y in 0..ny {
                let mut acc = cb.map_or(0.0, |c| c[z * ny + y].to_f64());
                for tap in interp.stencil.taps() {
                    let (yq, zq) = (y as isize + tap.dj, z as isize + tap.dk);
                    let in_box = (0..ny as isize).contains(&yq) && (0..nz as isize).contains(&zq);
                    let line = if in_box {
                        col_t[zq as usize * ny + yq as usize]
                    } else {
                        interp.phantom_col(col_t, yq, zq, source)
                    };
                    let mut s = line.to_f64();
                    if !interp.fast_x && tap.di != 0 {
                        s += interp.corr_x(tap.di, yq, zq, source).to_f64();
                    }
                    acc += tap.w.to_f64() * s;
                }
                out.push(T::from_f64(acc));
            }
        }
        out
    }

    /// One drawn case in type `T`: the interpolation of a box of a grid,
    /// `interpolate_col` against [`per_tap`] bitwise, and against the
    /// box's checksums after one sweep of the grid to within rounding.
    /// Per axis `cuts` picks whether the box spans the grid (0) or is cut
    /// with a pad as deep as the stencil's reach below it (1), above it
    /// (2) or on both sides (3); where there is no pad the box's face is
    /// the grid's, and a read past it resolves through the boundary.
    fn frame_matches_per_tap<T: Real>(
        taps: &[(isize, isize, isize, f64)],
        bounds: [usize; 3],
        cuts: [usize; 3],
        dims: (usize, usize, usize),
        with_constant: bool,
    ) -> Result<(), TestCaseError> {
        let w = |v: f64| T::from_f64(v);
        let taps: Vec<_> = taps.iter().map(|&(i, j, k, v)| (i, j, k, w(v))).collect();
        let stencil = Stencil3D::from_tuples(&taps);
        let kind = |b: usize| match b {
            0 => Boundary::Clamp,
            1 => Boundary::Periodic,
            2 => Boundary::Zero,
            3 => Boundary::Constant(w(2.5)),
            _ => Boundary::Reflect,
        };
        let bounds = BoundarySpec {
            x: kind(bounds[0]),
            y: kind(bounds[1]),
            z: kind(bounds[2]),
        };
        // Each box axis at least one longer than the stencil's reach on it.
        let reach = [stencil.extent_x(), stencil.extent_y(), stencil.extent_z()];
        let n = [reach[0] + dims.0, reach[1] + dims.1, reach[2] + dims.2];
        let pad = |a: usize, side: usize| reach[a].max(1) * usize::from(cuts[a] & side != 0);
        let origin: [usize; 3] = std::array::from_fn(|a| pad(a, 1));
        let g: [usize; 3] = std::array::from_fn(|a| origin[a] + n[a] + pad(a, 2));
        let src = Grid3D::from_fn(g[0], g[1], g[2], |x, y, z| {
            w(((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.3 - 3.0)
        });
        let mut sim = StencilSim::new(src, stencil.clone(), bounds).with_exec(Exec::Serial);
        if with_constant {
            let c = Grid3D::from_fn(g[0], g[1], g[2], |x, y, z| {
                w((x + 2 * y + 3 * z) as f64 * 0.11)
            });
            sim = sim.with_constant(c);
        }
        let window = InteriorWindow {
            x: origin[0]..origin[0] + n[0],
            y: origin[1]..origin[1] + n[1],
            z: origin[2]..origin[2] + n[2],
        };
        let interp = Interpolator::for_box(&sim, &window);
        let mut col_t = vec![T::ZERO; n[2] * n[1]];
        box_col_into(sim.current(), &window, &mut col_t);
        let source = StripSet::Grid(sim.current());
        let mut got = vec![T::ZERO; n[2] * n[1]];
        interp.interpolate_col(&col_t, &source, &NoGhosts, &mut got);
        let expect = per_tap(&interp, &col_t, &source);
        let ctx = format!("{bounds:?}, cuts {cuts:?}, box {n:?} at {origin:?} of {g:?}, taps {taps:?}, constant {with_constant}");
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert!(
                g.to_f64().to_bits() == e.to_f64().to_bits(),
                "entry (y {}, z {}): frame {g:?} vs per tap {e:?}; {ctx}",
                i % n[1],
                i / n[1],
            );
        }
        sim.step();
        let mut swept = vec![T::ZERO; n[2] * n[1]];
        box_col_into(sim.current(), &window, &mut swept);
        let weights: f64 = taps.iter().map(|t| t.3.to_f64().abs()).sum();
        let tol = 64.0 * T::EPS.to_f64() * n[0] as f64 * 10.0 * (1.0 + weights);
        for (i, (g, s)) in got.iter().zip(&swept).enumerate() {
            prop_assert!(
                (g.to_f64() - s.to_f64()).abs() <= tol,
                "entry (y {}, z {}): interpolated {g:?} vs swept {s:?}; {ctx}",
                i % n[1],
                i / n[1],
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// `interpolate_col` fills each source line, and each line's β
        /// per distinct `di`, once into a frame and runs taps outer; the
        /// per-output, per-tap evaluation must give the same bits — over
        /// every boundary kind per axis, boxes that span their grid or
        /// are cut with a pad on one or both sides per axis, `f32` and
        /// `f64`, with and without a constant field, and boxes as short as
        /// the stencil's reach plus one, where the frame is wider than
        /// the box. Theorem 1 must hold too: the result is the box's
        /// checksums after one sweep of the grid, to within rounding.
        #[test]
        fn shared_corrections_equal_per_tap_evaluation_bitwise(
            taps in proptest::collection::vec(
                (-2isize..=2, -2isize..=2, -2isize..=2, -1.0f64..1.0),
                1..=9,
            ),
            mirror_x in any::<bool>(),
            bounds in (0usize..5, 0usize..5, 0usize..5),
            cuts in (0usize..4, 0usize..4, 0usize..4),
            dims in (1usize..8, 1usize..6, 1usize..4),
            with_constant in any::<bool>(),
        ) {
            // Mirroring every tap in x makes the stencil x-symmetric, so a
            // reach-1 clamp x spanning its grid takes the fast path.
            let mut taps = taps;
            if mirror_x {
                let mirrored: Vec<_> = taps.iter().map(|&(i, j, k, v)| (-i, j, k, v)).collect();
                taps.extend(mirrored);
            }
            let bounds = [bounds.0, bounds.1, bounds.2];
            let cuts = [cuts.0, cuts.1, cuts.2];
            frame_matches_per_tap::<f32>(&taps, bounds, cuts, dims, with_constant)?;
            frame_matches_per_tap::<f64>(&taps, bounds, cuts, dims, with_constant)?;
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
