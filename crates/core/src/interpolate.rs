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
//! `x` edges. (The row checksum `a` is symmetric with `x` and `y`
//! swapped; the protectors keep only the column side.)
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
//! The column interpolation *is* a sweep on the sweep's own kernel: the
//! source lines `b(t)[y+j]` — phantom ones included, and with `β` added on
//! one plane per distinct `i` — fill a [`Frame`] `2·extent` wider than the
//! vector on the y and z axes, and [`abft_stencil::sweep_region`] sweeps
//! the box's window of it. What the frame's lines are depends on geometry
//! alone, so it is resolved once per box into a [`ColPlan`] — a serving
//! pool shares one per protected box of a topology and kernel shape — and
//! a call only copies, sums and sweeps. Each output starts from its
//! constant term and takes the taps in tap order, as every swept cell
//! does, so the frame changes no bit of the result; the oracle is
//! `tests::shared_corrections_equal_per_tap_evaluation_bitwise`, a
//! per-output, per-tap loop drawn over every boundary kind.

use crate::phantom::StripSet;
use abft_grid::{box_col_sums, AxisHit, Boundary, BoundarySpec, Grid3D, NoGhosts};
use abft_num::{line_sum, Real};
use abft_stencil::{
    sweep_region, ChecksumMode, Exec, InteriorWindow, NoHook, Stencil3D, StencilSim,
};
use std::ops::Range;
use std::sync::Arc;

/// True when the α/β corrections along the `x` axis (affecting the column
/// checksum `b`) are identically zero for this stencil/boundary pair.
pub fn needs_strips_x<T: Real>(stencil: &Stencil3D<T>, bx: &Boundary<T>) -> bool {
    !(stencil.extent_x() == 0
        || matches!(bx, Boundary::Periodic)
        || (matches!(bx, Boundary::Clamp) && stencil.extent_x() <= 1 && stencil.symmetric_x()))
}

/// The taps' `(di, dj, dk)` offsets, in tap order.
fn offsets<T: Real>(stencil: &Stencil3D<T>) -> impl Iterator<Item = [isize; 3]> + '_ {
    stencil.taps().iter().map(|t| [t.di, t.dj, t.dk])
}

/// What [`Interpolator::interpolate_col`] reads for one box, resolved
/// once: built from the taps' offsets (never their weights), the grid's
/// boundaries, the box and the grid's dims, and shared by `Arc` between
/// every interpolator of that box ([`Interpolator::planned`]).
///
/// The frame has `(ny + 2·ey) × (nz + 2·ez)` lines per plane. For each
/// line past the box some tap reaches, the plan records what the line is:
/// a `b(t)` entry by index, a grid line by its first cell (time-`t` data,
/// [`line_sum`]-med on every call), or the value a zero/constant end
/// yields. For each distinct non-zero `di` it records the x-end reads of
/// `β(di)` once and the runs of lines a tap with that `di` reaches; it
/// holds them whether or not the kernel's weights make the corrections
/// cancel, which the interpolator decides.
#[derive(Debug)]
pub struct ColPlan<T> {
    /// The taps' offsets, in tap order, and their reach per axis.
    offsets: Vec<[isize; 3]>,
    extent: [usize; 3],
    /// The grid's boundaries.
    bounds: [Boundary<T>; 3],
    /// The box's dims, its first cell in the grid, and the grid's dims.
    n: [usize; 3],
    origin: [usize; 3],
    grid: [usize; 3],
    /// Plane 0's lines past the box, by frame position: `b(t)` entries by
    /// index, grid lines by their first cell, and values, widened.
    cols: Vec<(usize, usize)>,
    pads: Vec<(usize, usize)>,
    values: Vec<(usize, f64)>,
    /// Box-local `y` from `−ey` and `z` from `−ez`, resolved where a tap
    /// reaches them.
    ys: Vec<AxisHit<T>>,
    zs: Vec<AxisHit<T>>,
    /// One per distinct non-zero `di`, in tap order.
    betas: Vec<Beta<T>>,
}

/// `β(di)` (paper Theorem 1): per box cell the shifted sum loses, the
/// x-end read it gains instead, as `[lost, gained]` x-reads in order; and
/// the runs `(zq, yq range)` of frame lines it is added to.
#[derive(Debug)]
struct Beta<T> {
    di: isize,
    ends: Vec<[AxisHit<T>; 2]>,
    runs: Vec<(isize, Range<isize>)>,
}

impl<T: Real> ColPlan<T> {
    /// The plan of the `domain` box of a `grid`-sized grid under `bounds`,
    /// for `stencil`'s tap offsets.
    pub fn new(
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        domain: &InteriorWindow,
        grid: [usize; 3],
    ) -> Self {
        let mut plan = Self {
            offsets: offsets(stencil).collect(),
            extent: [stencil.extent_x(), stencil.extent_y(), stencil.extent_z()],
            bounds: [bounds.x, bounds.y, bounds.z],
            n: [domain.x.len(), domain.y.len(), domain.z.len()],
            origin: [domain.x.start, domain.y.start, domain.z.start],
            grid,
            cols: Vec::new(),
            pads: Vec::new(),
            values: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            betas: Vec::new(),
        };
        let [nx, ny, nz] = plan.n;
        let (nyi, nzi) = (ny as isize, nz as isize);
        // Axis `a` from `−extent`, resolved where some tap reaches; the
        // rest is never read.
        let axis = |a: usize| -> Vec<_> {
            let (n, e) = (plan.n[a] as isize, plan.extent[a] as isize);
            let reached = |q: &isize| plan.offsets.iter().any(|o| (o[a]..o[a] + n).contains(q));
            let hit = |q| match reached(&q) {
                true => plan.resolve(a, q),
                false => AxisHit::Value(T::ZERO),
            };
            (-e..n + e).map(hit).collect()
        };
        (plan.ys, plan.zs) = (axis(1), axis(2));

        // Plane 0, past the box: every line some tap reaches.
        for (zq, yqs) in plan.runs(|_| true) {
            for yq in yqs.filter(|yq| !(0..nyi).contains(yq) || !(0..nzi).contains(&zq)) {
                let i = plan.at(yq, zq);
                match plan.line(yq, zq) {
                    Err(v) => plan.values.push((i, (T::from_usize(nx) * v).to_f64())),
                    Ok([y, z]) => match (plan.local(1, y), plan.local(2, z)) {
                        (Some(yl), Some(zl)) => plan.cols.push((i, zl * ny + yl)),
                        _ => plan
                            .pads
                            .push((i, (z * grid[1] + y) * grid[0] + plan.origin[0])),
                    },
                }
            }
        }

        // The β planes, one per distinct non-zero `di`.
        for &[di, ..] in &plan.offsets {
            if di == 0 || plan.betas.iter().any(|b| b.di == di) {
                continue;
            }
            let n = nx as isize;
            let end = |m| match di > 0 {
                true => [plan.resolve(0, m), plan.resolve(0, n + m)],
                false => [plan.resolve(0, n - 1 - m), plan.resolve(0, -m - 1)],
            };
            let ends = (0..di.abs()).map(end).collect();
            let runs = plan.runs(|o| o[0] == di);
            plan.betas.push(Beta { di, ends, runs });
        }
        plan
    }

    /// The frame lines the taps `tap` picks read, as runs `(zq, yq range)`
    /// in frame order, merged per frame layer.
    fn runs(&self, tap: impl Fn(&[isize; 3]) -> bool) -> Vec<(isize, Range<isize>)> {
        let (ny, nz, ez) = (
            self.n[1] as isize,
            self.n[2] as isize,
            self.extent[2] as isize,
        );
        let mut reads: Vec<[isize; 2]> = (self.offsets.iter())
            .filter(|o| tap(o))
            .map(|o| [o[1], o[2]])
            .collect();
        reads.sort_unstable();
        let mut runs: Vec<(isize, Range<isize>)> = Vec::new();
        for zq in -ez..nz + ez {
            for &[dj, dk] in &reads {
                if !(dk..dk + nz).contains(&zq) {
                    continue;
                }
                match runs.last_mut() {
                    Some((z, r)) if *z == zq && dj <= r.end => r.end = Ord::max(r.end, dj + ny),
                    _ => runs.push((zq, dj..dj + ny)),
                }
            }
        }
        runs
    }

    /// The box the plan covers.
    pub fn window(&self) -> InteriorWindow {
        let [x, y, z] = std::array::from_fn(|a| self.origin[a]..self.origin[a] + self.n[a]);
        InteriorWindow { x, y, z }
    }

    /// Lines per frame plane.
    fn area(&self) -> usize {
        (self.n[1] + 2 * self.extent[1]) * (self.n[2] + 2 * self.extent[2])
    }

    /// Frame position of box-local line `(yq, zq)` on plane 0.
    fn at(&self, yq: isize, zq: isize) -> usize {
        let [_, ey, ez] = self.extent;
        (zq + ez as isize) as usize * (self.n[1] + 2 * ey) + (yq + ey as isize) as usize
    }

    /// Box-local `q` on axis `a` as a grid read: `origin + q` resolved
    /// through the grid's boundary on the grid's length.
    ///
    /// A read leaves the box by at most the stencil's extent on that
    /// axis, and leaves a periodic grid only through a face the box
    /// shares with it, so the far ends of an unwrapped periodic pad are
    /// never read (debug builds check both). A pad that does not wrap
    /// ends only at a domain end, whose boundary resolves what lies past.
    #[inline]
    fn resolve(&self, a: usize, q: isize) -> AxisHit<T> {
        let (o, n, g) = (self.origin[a], self.n[a], self.grid[a]);
        let p = o as isize + q;
        debug_assert!(
            {
                let e = self.extent[a];
                let leaves_through_a_shared_face = if p < 0 { o == 0 } else { o + n == g };
                let wraps = matches!(self.bounds[a], Boundary::Periodic);
                (-(e as isize)..(n + e) as isize).contains(&q)
                    && ((0..g as isize).contains(&p) || leaves_through_a_shared_face || !wraps)
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
        joined(self.resolve(1, yq), self.resolve(2, zq))
    }
}

/// A line's resolved `y` and `z`, y before z: its grid `[y, z]`, or the
/// value a zero/constant end yields.
#[inline]
fn joined<T>(y: AxisHit<T>, z: AxisHit<T>) -> Result<[usize; 2], T> {
    match (y, z) {
        (AxisHit::Value(v), _) | (AxisHit::In(_), AxisHit::Value(v)) => Err(v),
        (AxisHit::In(y), AxisHit::In(z)) => Ok([y, z]),
    }
}

/// The checksum interpolator for one (stencil, boundary, constant-field,
/// box) combination. It holds the constant-term sums `c_y` of Theorem 1;
/// each call then runs in `O(nz · n · k²)` time for vectors of length
/// `n`, independent of the domain volume.
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
    /// Constant sums `c_y` over the box (flat `[z][y]`); `None` without a
    /// constant field.
    c_sums: Option<Arc<[T]>>,
    /// The box's geometry, resolved.
    plan: Arc<ColPlan<T>>,
    fast_x: bool,
    /// Eq. 5 over the [`Frame`], in tap order: weights widened, offsets
    /// `(dj, dk, plane − last plane)`, where a tap's plane is 0, or its β
    /// plane off the x fast path. And how many source planes a call fills.
    sweep: Stencil3D<f64>,
    planes: usize,
}

/// What [`Interpolator::interpolate_col_with`] sweeps: Eq. 5's source
/// lines (x a layer's `y`, y its `z`, z the plane) and the swept grid.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    lines: Grid3D<f64>,
    swept: Grid3D<f64>,
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
        let n = [dims.0, dims.1, dims.2];
        let sums = constant.map(|c| col_sums(c, [0; 3], n));
        let whole = InteriorWindow {
            x: 0..n[0],
            y: 0..n[1],
            z: 0..n[2],
        };
        let plan = ColPlan::new(stencil, bounds, &whole, n);
        Self::placed(stencil, sums, Arc::new(plan))
    }

    /// Build the interpolator of the `domain` box of `sim`'s grid, with a
    /// plan of its own ([`Interpolator::planned`]).
    pub fn for_box(sim: &StencilSim<T>, domain: &InteriorWindow) -> Self {
        let (gx, gy, gz) = sim.dims();
        let plan = ColPlan::new(sim.stencil(), sim.bounds(), domain, [gx, gy, gz]);
        Self::planned(sim, Arc::new(plan))
    }

    /// Build the interpolator of `plan`'s box of `sim`'s grid; the plan
    /// must have been built for `sim`'s grid, boundaries and tap offsets.
    /// For the whole grid the constant field's sums are computed once per
    /// field and shared by every clone of `sim`, so this costs no pass
    /// over the domain; a smaller box sums its slice of the field in
    /// place.
    pub fn planned(sim: &StencilSim<T>, plan: Arc<ColPlan<T>>) -> Self {
        let (gx, gy, gz) = sim.dims();
        let b = sim.bounds();
        debug_assert!(
            plan.grid == [gx, gy, gz] && plan.bounds == [b.x, b.y, b.z],
            "the plan was built for another grid"
        );
        let domain = plan.window();
        let sums = if domain == sim.whole() {
            sim.constant_field().map(|c| c.line_sums().clone())
        } else {
            sim.constant().map(|c| col_sums(c, plan.origin, plan.n))
        };
        Self::placed(sim.stencil(), sums, plan)
    }

    fn placed(stencil: &Stencil3D<T>, c_sums: Option<Arc<[T]>>, plan: Arc<ColPlan<T>>) -> Self {
        assert!(
            plan.offsets.iter().copied().eq(offsets(stencil)),
            "the plan was built for other tap offsets"
        );
        let (n, grid) = (plan.n, plan.grid);
        // The corrections cancel only where the box spans its grid: past a
        // cut face lies the pad, not the box's own cells.
        let fast_x =
            stencil.extent_x() == 0 || n[0] == grid[0] && !needs_strips_x(stencil, &plan.bounds[0]);
        let planes = if fast_x { 1 } else { 1 + plan.betas.len() };
        let top = (planes + usize::from(c_sums.is_some()) - 1) as isize;
        let taps = stencil.taps().iter().map(|t| {
            let plane = match fast_x || t.di == 0 {
                true => 0,
                false => 1 + plan.betas.iter().position(|b| b.di == t.di).expect("β(di)"),
            };
            (t.dj, t.dk, plane as isize - top, t.w.to_f64())
        });
        Self {
            sweep: Stencil3D::from_tuples(&taps.collect::<Vec<_>>()),
            planes,
            stencil: stencil.clone(),
            c_sums,
            plan,
            fast_x,
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

    /// `(nx, ny, nz)` of the box this interpolator was built for.
    pub fn dims(&self) -> (usize, usize, usize) {
        let [nx, ny, nz] = self.plan.n;
        (nx, ny, nz)
    }

    /// A [`Frame`] for this box: its source planes, then `c_y`'s if any.
    pub(crate) fn frame(&self) -> Frame {
        let ([_, ny, nz], [_, ey, ez]) = (self.plan.n, self.plan.extent);
        let planes = self.planes + usize::from(self.c_sums.is_some());
        let lines = Grid3D::zeros(ny + 2 * ey, nz + 2 * ez, planes);
        Frame {
            swept: lines.clone(),
            lines,
        }
    }

    /// Interpolate the column checksums of iteration `t+1` from those of
    /// iteration `t` (Eq. 5 and its 3-D generalisation).
    ///
    /// `col_t`/`out` are flat `[z][y]` buffers; `source` provides time-`t`
    /// domain data in grid coordinates (may be [`StripSet::None`] iff
    /// [`Interpolator::col_strip_width`] is 0 and no read leaves the box;
    /// a read that does needs [`StripSet::Grid`]). The [`NoGhosts`]
    /// argument carries nothing. The call works in a frame of its own.
    pub fn interpolate_col(
        &self,
        col_t: &[T],
        source: &StripSet<'_, T>,
        _: &NoGhosts,
        out: &mut [T],
    ) {
        self.interpolate_col_with(col_t, source, &mut self.frame(), out);
    }

    /// [`Interpolator::interpolate_col`] in the caller's `frame`, which
    /// this box's [`Interpolator::frame`] made; it only overwrites it.
    ///
    /// Theorem 1 on the sweep's kernel, from the box's [`ColPlan`]. Plane 0
    /// of the frame gets the box's lines from `col_t` and every line past
    /// it some tap reaches (a grid line summed once however many taps read
    /// it); off the fast path each β plane holds `line + β(di)` on the
    /// lines a tap with that `di` reaches, β summed once from the plan's
    /// x-end reads through `source`; the last plane holds `c_y`. Then one
    /// [`sweep_region`] with the frame as its constant computes each entry
    /// as a cell, `c_y` (or `+0.0`) and `+= w·s` in tap order, resolving
    /// nothing (no read leaves the frame): bitwise the per-tap evaluation's.
    pub(crate) fn interpolate_col_with(
        &self,
        col_t: &[T],
        source: &StripSet<'_, T>,
        frame: &mut Frame,
        out: &mut [T],
    ) {
        let p = &*self.plan;
        let ([nx, ny, nz], [_, ey, ez]) = (p.n, p.extent);
        assert_eq!(col_t.len(), nz * ny, "col_t length");
        assert_eq!(out.len(), nz * ny, "out length");
        let Frame { lines, swept } = frame;
        let (area, top) = (p.area(), lines.nz() - 1);
        assert_eq!(lines.len(), (top + 1) * area, "a frame of another box");
        let cb = self.c_sums.as_deref();
        let frame = lines.as_mut_slice();

        // Plane 0: the box's lines, then those past it; `c_y` on the last.
        for (plane, vector) in [(0, col_t), (top, cb.unwrap_or_default())] {
            for (z, layer) in vector.chunks_exact(ny).enumerate() {
                let to = plane * area + p.at(0, z as isize);
                for (s, &c) in frame[to..to + ny].iter_mut().zip(layer) {
                    *s = c.to_f64();
                }
            }
        }
        for &(i, c) in &p.cols {
            frame[i] = col_t[c].to_f64();
        }
        if !p.pads.is_empty() {
            let cells = pad(source).as_slice();
            for &(i, first) in &p.pads {
                frame[i] = T::from_f64(line_sum(&cells[first..first + nx])).to_f64();
            }
        }
        for &(i, v) in &p.values {
            frame[i] = v;
        }
        // The β planes: `line + β(di)`, the x-end reads taken in order.
        let (plane0, betas) = frame.split_at_mut(area);
        let planned = &p.betas[..self.planes - 1];
        for (beta, plane) in planned.iter().zip(betas.chunks_exact_mut(area)) {
            for (zq, yqs) in &beta.runs {
                let z = p.zs[(zq + ez as isize) as usize];
                for yq in yqs.clone() {
                    let line = joined(p.ys[(yq + ey as isize) as usize], z);
                    let point = |end| match (end, line) {
                        (AxisHit::Value(v), _) | (AxisHit::In(_), Err(v)) => v,
                        (AxisHit::In(x), Ok([y, z])) => source.near_x(x, y, z, p.grid[0]),
                    };
                    let corr = (beta.ends.iter()).fold(T::ZERO, |c, &[lost, gained]| {
                        c - point(lost) + point(gained)
                    });
                    let i = p.at(yq, *zq);
                    plane[i] = plane0[i] + corr.to_f64();
                }
            }
        }

        // The taps, over the box's window of the last plane. f64 mirrors
        // the fused checksum computation (see `abft_core::checksum`):
        // keeps the comparison margin at ~1 ulp of T instead of O(k) ulps.
        #[rustfmt::skip]
        sweep_region(lines, swept, &self.sweep, &BoundarySpec::clamp(), cb.map(|_| &*lines), &NoHook,
            ChecksumMode::None, Exec::Serial, ez..ez + nz, ey..ey + ny, top..top + 1);
        for (z, out_layer) in out.chunks_exact_mut(ny).enumerate() {
            let from = top * area + p.at(0, z as isize);
            for (o, &s) in out_layer.iter_mut().zip(&swept.as_slice()[from..]) {
                *o = T::from_f64(s);
            }
        }
    }
}

/// The sums of the x-lines of the box `n` at `origin` of `c`, flat
/// `[z][y]`: its `c_y`, summed in place by the column builder.
fn col_sums<T: Real>(c: &Grid3D<T>, origin: [usize; 3], n: [usize; 3]) -> Arc<[T]> {
    let mut sums = vec![T::ZERO; n[2] * n[1]];
    box_col_sums(c, origin, n, &mut sums);
    sums.into()
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
    use crate::phantom::capture_all_layers;
    use abft_grid::box_col_sums;
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

        let sums = |g: &Grid3D<f64>| col_sums(g, [0; 3], [nx, ny, nz]);
        let (cs_t, cs_t1) = (sums(&src), sums(&dst));

        let interp = Interpolator::new(&stencil, &bounds, constant.as_ref(), dims);
        let strips;
        let source = if use_strips {
            strips = capture_all_layers(&src, interp.col_strip_width(), 0);
            StripSet::Strips(&strips)
        } else {
            StripSet::Grid(&src)
        };

        let mut col_i = vec![0.0; nz * ny];
        interp.interpolate_col(&cs_t, &source, &NoGhosts, &mut col_i);

        for (k, (&a, &b)) in col_i.iter().zip(cs_t1.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "col mismatch at {k}: interpolated {a} vs computed {b} ({bounds:?})"
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
        assert!(!needs_strips_x(&s, &Boundary::Periodic));
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

    /// The oracle's reads, resolved per call rather than planned.
    impl<T: Real> Interpolator<T> {
        /// Phantom column-checksum entry `Σ_x u[x, yq, zq]` over the box's
        /// x-range for a line `(yq, zq)` past the box. A line that
        /// resolves into the box is its `b(t)` entry. One that lands
        /// outside is the grid line's [`line_sum`] over the box's x-range
        /// — *the* order of every checksum line, so the entry is bitwise
        /// what the line's owner holds for it in its own `b(t)`.
        fn phantom_col(&self, col_t: &[T], yq: isize, zq: isize, source: &StripSet<'_, T>) -> T {
            let p = &*self.plan;
            let [nx, ny, _] = p.n;
            match p.line(yq, zq) {
                Err(v) => T::from_usize(nx) * v,
                Ok([y, z]) => match (p.local(1, y), p.local(2, z)) {
                    (Some(yl), Some(zl)) => col_t[zl * ny + yl],
                    _ => {
                        let start = (z * p.grid[1] + y) * p.grid[0] + p.origin[0];
                        T::from_f64(line_sum(&pad(source).as_slice()[start..start + nx]))
                    }
                },
            }
        }

        /// β correction for one tap's `x` offset `i`:
        /// `Σ_x u[resolve(x+i), ·] − Σ_x u[x, ·]` over the box's x-range,
        /// evaluated in `O(|i|)` reads of the line `(yq, zq)`, which
        /// resolves once, y before z (x is resolved per term and wins the
        /// precedence): per box cell the shifted sum loses, the read past
        /// the box's face it gains instead.
        fn corr_x(&self, i: isize, yq: isize, zq: isize, source: &StripSet<'_, T>) -> T {
            let p = &*self.plan;
            let line = p.line(yq, zq);
            let point = |xq| match (p.resolve(0, xq), line) {
                (AxisHit::Value(v), _) | (AxisHit::In(_), Err(v)) => v,
                (AxisHit::In(x), Ok([y, z])) => source.near_x(x, y, z, p.grid[0]),
            };
            let n = p.n[0] as isize;
            (0..i.abs()).fold(T::ZERO, |corr, m| {
                let (lost, gained) = if i > 0 {
                    (m, n + m)
                } else {
                    (n - 1 - m, -m - 1)
                };
                corr - point(lost) + point(gained)
            })
        }
    }

    /// The per-output evaluation of Eq. 5 that `interpolate_col`'s plan
    /// replaces: for each entry, its constant term, then tap by tap the
    /// source line (phantom through the grid's boundaries, or the grid
    /// line past the box) widened to `f64`, plus its β off the fast path,
    /// times the weight.
    fn per_tap<T: Real>(interp: &Interpolator<T>, col_t: &[T], source: &StripSet<'_, T>) -> Vec<T> {
        let [_, ny, nz] = interp.plan.n;
        let cb = interp.c_sums.as_deref();
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
                    acc = tap.w.to_f64().mul_add(s, acc);
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
        box_col_sums(sim.current(), origin, n, &mut col_t);
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
        box_col_sums(sim.current(), origin, n, &mut swept);
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
        /// per distinct `di`, once into a frame and sweeps it with the
        /// sweep's own kernel; the per-output, per-tap evaluation must
        /// give the same bits — over every boundary kind per axis, boxes
        /// that span their grid or are cut with a pad on one or both sides
        /// per axis, `f32` and `f64`, with and without a constant field,
        /// and boxes as short as the stencil's reach plus one, where the
        /// frame is wider than the box. Box widths in y of 12–41 run the
        /// sweep's 16- and 32-wide `f64` blocks, whole and overlapped, as
        /// well as its 4- and 1-wide ones. Theorem 1 must hold too: the
        /// result is the box's checksums after one sweep of the grid, to
        /// within rounding.
        #[test]
        fn shared_corrections_equal_per_tap_evaluation_bitwise(
            taps in proptest::collection::vec(
                (-2isize..=2, -2isize..=2, -2isize..=2, -1.0f64..1.0),
                1..=9,
            ),
            mirror_x in any::<bool>(),
            bounds in (0usize..5, 0usize..5, 0usize..5),
            cuts in (0usize..4, 0usize..4, 0usize..4),
            dims in (1usize..8, prop_oneof![1usize..6, 12usize..40], 1usize..4),
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
