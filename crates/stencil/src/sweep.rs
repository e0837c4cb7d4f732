//! The stencil sweep executor (Eq. 1 of the paper), serial and parallel,
//! with optional fused checksum accumulation and per-point hooks.

use crate::{Exec, Stencil3D, SweepHook};
use abft_grid::{AxisHit, Boundary, BoundarySpec, Grid3D};
use abft_num::{line_sum, Real};
use rayon::prelude::*;
use std::ops::Range;

/// Which checksum vectors the sweep should produce as a by-product.
///
/// Buffers are flat per-layer arrays: `col` is `[z][y]` of length `nz·ny`
/// (the paper's `b`, Eq. 3), `row` is `[z][x]` of length `nz·nx` (the
/// paper's `a`, Eq. 2). Following §3.2 the protectors normally request only
/// `Col`; `RowCol` exists for the maintain-both ablation.
///
/// Each finished output row is summed while still in cache, after the
/// hook has seen it: a `col` entry is [`abft_num::line_sum`] of the row,
/// a `row` entry accumulates its column of the layer in `y` order — both
/// in `f64` whatever `T` is, because a sequential `f32` sum over a
/// 512-wide line drifts by up to ~n/2 ulps and would eat into the paper's
/// ε = 1e-5 detection margin (§3.4 notes the approximation error grows
/// with the domain size). `LayerRef::col_checksums_into` /
/// `row_checksums_into` sum a stored grid the same way, so recomputed
/// vectors equal fused ones bitwise.
pub enum ChecksumMode<'a, T> {
    /// Plain sweep, no checksums.
    None,
    /// Accumulate the column checksum vectors `b` (the paper's default).
    Col { col: &'a mut [T] },
    /// Accumulate both row (`a`) and column (`b`) checksum vectors.
    RowCol { row: &'a mut [T], col: &'a mut [T] },
}

/// Resolve a (possibly out-of-range) read of `src` at signed coordinates,
/// honouring the per-axis boundary conditions with x → y → z precedence.
///
/// The tests' oracle for every boundary read, and compiled for them
/// only: the kernel folds z once per layer, y once per face row and x
/// once per tap of an x-end cell to the same effect, the tests hold it
/// to a loop over this function bitwise, and the checksum interpolation
/// in `abft-core` models it analytically.
#[cfg(test)]
fn read_resolved<T: Real>(src: &Grid3D<T>, q: [isize; 3], bounds: &BoundarySpec<T>) -> T {
    let (nx, ny, nz) = src.dims();
    let mut cell = [0; 3];
    for (a, (b, n)) in [(bounds.x, nx), (bounds.y, ny), (bounds.z, nz)]
        .into_iter()
        .enumerate()
    {
        match b.resolve(q[a], n) {
            AxisHit::In(i) => cell[a] = i,
            AxisHit::Value(v) => return v,
        }
    }
    src.at(cell[0], cell[1], cell[2])
}

/// One full stencil sweep: `dst = stencil(src) [+ constant]`, optionally
/// producing checksum vectors and passing every value through `hook`.
///
/// `src` and `dst` must have identical dimensions and be distinct grids
/// (the double-buffer discipline). `constant`, when present, must match the
/// dimensions too.
///
/// # Panics
/// Panics on dimension mismatches, or if a stencil extent is not smaller
/// than the corresponding axis length.
#[allow(clippy::too_many_arguments)]
pub fn sweep<T: Real, H: SweepHook<T>>(
    src: &Grid3D<T>,
    dst: &mut Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    hook: &H,
    mode: ChecksumMode<'_, T>,
    exec: Exec,
) {
    let (nx, ny, nz) = src.dims();
    #[rustfmt::skip]
    sweep_region(src, dst, stencil, bounds, constant, hook, mode, exec, 0..ny, 0..nx, 0..nz);
}

/// Sweep only the box window `rows × xs × zs`: the building block of the
/// overlapped halo pipeline, which sweeps a rank's interior while its halo
/// is in flight and the frame around it once the halo has landed.
///
/// Per-point results are identical to a full [`sweep`] restricted to the
/// window, so a step assembled from disjoint windows tiling the whole
/// domain is bitwise equal to one full sweep. [`ChecksumMode::Col`] is
/// rejected unless `xs` covers `0..nx` (a column checksum entry sums a
/// whole x-line; entries of unswept `(z, y)` lines are left untouched);
/// [`ChecksumMode::RowCol`] additionally requires full `rows`.
///
/// # Panics
/// Panics on the same conditions as [`sweep`], if `rows`/`xs`/`zs` exceed
/// the domain, or on a checksum mode whose vectors the window cannot
/// complete.
#[allow(clippy::too_many_arguments)]
pub fn sweep_region<T: Real, H: SweepHook<T>>(
    src: &Grid3D<T>,
    dst: &mut Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    hook: &H,
    mode: ChecksumMode<'_, T>,
    exec: Exec,
    rows: Range<usize>,
    xs: Range<usize>,
    zs: Range<usize>,
) {
    let (nx, ny, nz) = src.dims();
    let y_rows = rows.start..rows.end.max(rows.start);
    let xs = xs.start..xs.end.max(xs.start);
    let zs = zs.start..zs.end.max(zs.start);
    assert!(y_rows.end <= ny, "row range {y_rows:?} exceeds ny = {ny}");
    assert!(xs.end <= nx, "x range {xs:?} exceeds nx = {nx}");
    assert!(zs.end <= nz, "z range {zs:?} exceeds nz = {nz}");
    assert!(
        matches!(mode, ChecksumMode::None) || xs == (0..nx),
        "column checksums require full x-lines (got xs {xs:?} of 0..{nx})"
    );
    assert!(
        !matches!(mode, ChecksumMode::RowCol { .. }) || y_rows == (0..ny),
        "row checksums require a full sweep (got rows {y_rows:?} of 0..{ny})"
    );
    assert_eq!(src.dims(), dst.dims(), "src/dst dimension mismatch");
    if let Some(c) = constant {
        assert_eq!(c.dims(), src.dims(), "constant-field dimension mismatch");
    }
    assert!(
        stencil.extent_x() < nx && stencil.extent_y() < ny && stencil.extent_z() < nz,
        "stencil extent must be smaller than the domain on every axis"
    );

    let (row_all, col_all): (Option<&mut [T]>, Option<&mut [T]>) = match mode {
        ChecksumMode::None => (None, None),
        ChecksumMode::Col { col } => (None, Some(col)),
        ChecksumMode::RowCol { row, col } => (Some(row), Some(col)),
    };
    if let Some(r) = &row_all {
        assert_eq!(r.len(), nz * nx, "row checksum buffer must be nz*nx");
    }
    if let Some(c) = &col_all {
        assert_eq!(c.len(), nz * ny, "col checksum buffer must be nz*ny");
    }
    if y_rows.is_empty() || xs.is_empty() || zs.is_empty() {
        return;
    }

    // One task per swept layer, each owning its slice of the output and of
    // the optional checksum buffers.
    let mut row_layers = row_all.map(|r| r.chunks_exact_mut(nx));
    let mut col_layers = col_all.map(|c| c.chunks_exact_mut(ny));
    let tasks = dst
        .as_mut_slice()
        .chunks_exact_mut(nx * ny)
        .enumerate()
        .map(|(z, dst_layer)| LayerTask {
            z,
            dst_layer,
            row: row_layers.as_mut().and_then(Iterator::next),
            col: col_layers.as_mut().and_then(Iterator::next),
        })
        .filter(|task| zs.contains(&task.z));
    let run = |task, scratch: &mut Scratch<T>| {
        sweep_layer(
            src,
            task,
            stencil,
            bounds,
            constant,
            hook,
            y_rows.clone(),
            xs.clone(),
            scratch,
        );
    };
    match exec {
        Exec::Serial => {
            let mut scratch = Scratch::for_stencil(stencil);
            for task in tasks {
                run(task, &mut scratch);
            }
        }
        Exec::Parallel => tasks
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|task| run(task, &mut Scratch::for_stencil(stencil))),
    }
}

struct LayerTask<'a, T> {
    z: usize,
    dst_layer: &'a mut [T],
    row: Option<&'a mut [T]>,
    col: Option<&'a mut [T]>,
}

/// Per-thread working storage of [`sweep_layer`], reused from row to row
/// and (in a serial sweep) from layer to layer.
struct Scratch<T> {
    /// Every tap's `z + dk` folded through the z boundary for the current
    /// layer, in tap order, with in-grid lines held relative to the output
    /// row's line as if `y + dj` were in range (filled by [`fold_layer`]).
    layer: Vec<TapSource<T>>,
    /// `layer` holds the table of a z-interior layer (every `z + dk` in
    /// range), which is the same table for all of them.
    interior_layer: bool,
    sources: Vec<TapSource<T>>,
    row_acc: Vec<f64>,
}

impl<T: Real> Scratch<T> {
    fn for_stencil(stencil: &Stencil3D<T>) -> Self {
        Self {
            layer: Vec::with_capacity(stencil.len()),
            interior_layer: false,
            sources: Vec::with_capacity(stencil.len()),
            row_acc: Vec::new(),
        }
    }
}

/// Where one tap reads along one output row, once its `(y+dj, z+dk)` has
/// been folded through the y and z boundaries.
#[derive(Clone, Copy)]
enum TapSource<T> {
    /// An in-grid row (its own, clamped, wrapped or reflected), given by
    /// the index its cell `x = 0` has in the grid.
    Row(isize),
    /// A zero/constant boundary: every read yields the same value, held
    /// here already multiplied by the tap's weight.
    Weighted(T),
}

impl<T: Copy> TapSource<T> {
    /// The same source `by` cells further along the grid.
    fn shifted(self, by: isize) -> Self {
        match self {
            TapSource::Row(first) => TapSource::Row(first + by),
            weighted => weighted,
        }
    }
}

/// Fold every tap's `z + dk` for layer `z` into `scratch.layer`. A
/// z-interior layer after another keeps the table as it is: relative to
/// the output row, its sources are where the last layer's were.
fn fold_layer<T: Real>(
    stencil: &Stencil3D<T>,
    z: usize,
    (nx, ny, nz): (usize, usize, usize),
    bz: &Boundary<T>,
    scratch: &mut Scratch<T>,
) {
    let ez = stencil.extent_z();
    let interior = (ez..nz - ez).contains(&z);
    if interior && scratch.interior_layer {
        return;
    }
    scratch.interior_layer = interior;
    let (nx, ny, zi) = (nx as isize, ny as isize, z as isize);
    scratch.layer.clear();
    scratch.layer.extend(
        stencil
            .taps()
            .iter()
            .map(|t| match bz.resolve(zi + t.dk, nz) {
                AxisHit::In(zr) => TapSource::Row(((zr as isize - zi) * ny + t.dj) * nx),
                AxisHit::Value(v) => TapSource::Weighted(t.w * v),
            }),
    );
}

/// Fold every tap's `(y+dj, z+dk)` for output row `(y, z)` into
/// `scratch.sources`, given the layer's z fold from [`fold_layer`]: y
/// before z, the precedence of `read_resolved` once x is in range. A
/// y-interior row (every `y + dj` in range) takes the layer table shifted
/// by its line, with nothing to resolve; a face row resolves `y + dj` per
/// tap.
fn fold_row<T: Real>(
    stencil: &Stencil3D<T>,
    (y, z): (usize, usize),
    (nx, ny): (usize, usize),
    by: &Boundary<T>,
    scratch: &mut Scratch<T>,
) {
    let Scratch { layer, sources, .. } = scratch;
    sources.clear();
    let line = ((z * ny + y) * nx) as isize;
    let ey = stencil.extent_y();
    if (ey..ny - ey).contains(&y) {
        sources.extend(layer.iter().map(|tap| tap.shifted(line)));
        return;
    }
    for (t, tap) in stencil.taps().iter().zip(layer.iter()) {
        let yq = y as isize + t.dj;
        sources.push(match by.resolve(yq, ny) {
            // The y fold moved the tap's row from `yq` to `yr`.
            AxisHit::In(yr) => tap.shifted(line + (yr as isize - yq) * nx as isize),
            AxisHit::Value(v) => TapSource::Weighted(t.w * v),
        });
    }
}

/// Outputs per step of the blocked kernel: 16 accumulators fill the
/// vector registers of baseline x86-64 in `f64` and half of them in `f32`.
const BLOCK: usize = 16;

/// Outputs per step on an x-interior run shorter than [`BLOCK`].
const NARROW: usize = 4;

/// One output row with its taps folded: everything the kernel reads.
struct FoldedRow<'a, T> {
    /// The whole time-`t` grid ([`TapSource::Row`] indexes into it).
    s: &'a [T],
    stencil: &'a Stencil3D<T>,
    /// One source per tap, as [`fold_row`] left them.
    sources: &'a [TapSource<T>],
    constant_row: Option<&'a [T]>,
}

impl<T: Real> FoldedRow<'_, T> {
    /// `N` adjacent outputs starting at x-interior cell `x`: each
    /// accumulator starts from the constant term and takes `acc += w·src`
    /// tap by tap **in tap order** — per cell the very operation sequence
    /// of a loop over `read_resolved`, so the result is bitwise the same.
    #[inline(always)]
    fn block<const N: usize>(&self, x: usize) -> [T; N] {
        let mut acc = [T::ZERO; N];
        if let Some(c) = self.constant_row {
            acc.copy_from_slice(&c[x..x + N]);
        }
        for (t, source) in self.stencil.taps().iter().zip(self.sources) {
            match *source {
                TapSource::Row(first) => {
                    let from = (first + x as isize + t.di) as usize;
                    let run = &self.s[from..from + N];
                    for i in 0..N {
                        acc[i] += t.w * run[i];
                    }
                }
                TapSource::Weighted(wv) => {
                    for a in &mut acc {
                        *a += wv;
                    }
                }
            }
        }
        acc
    }

    /// The x-interior `run` of the row, `N` outputs at a time; `run` holds
    /// at least `N` cells or none. There is no scalar tail: what is left
    /// after the last whole block is computed as one more whole block
    /// ending at `run.end`. Every output is a function of the source grid
    /// alone, by the same operation sequence wherever its block starts,
    /// so the cells that block computes a second time get bitwise the
    /// values they had — and the hook runs after the row, so it still
    /// sees each cell once.
    #[inline(always)]
    fn blocks<const N: usize>(&self, out: &mut [T], run: Range<usize>) {
        let mut x = run.start;
        while x < run.end {
            x = x.min(run.end - N);
            out[x..x + N].copy_from_slice(&self.block::<N>(x));
            x += N;
        }
    }

    /// One x-end cell: some tap's `x + di` leaves the domain. Only x is
    /// resolved per tap, and it wins the precedence exactly as in
    /// `read_resolved` — a value-like x yields its value; an in-range x
    /// loads from the tap's folded source, a broadcast value entering
    /// pre-multiplied as [`FoldedRow::block`] adds it.
    #[inline]
    fn end_cell(&self, x: usize, nx: usize, bx: &Boundary<T>) -> T {
        let mut v = self.constant_row.map_or(T::ZERO, |c| c[x]);
        for (t, source) in self.stencil.taps().iter().zip(self.sources) {
            v += match (bx.resolve(x as isize + t.di, nx), *source) {
                (AxisHit::Value(vx), _) => t.w * vx,
                (AxisHit::In(xr), TapSource::Row(first)) => t.w * self.s[first as usize + xr],
                (AxisHit::In(_), TapSource::Weighted(wv)) => wv,
            };
        }
        v
    }
}

/// Sweep the `y_rows × xs` window of a single `z`-layer, writing every
/// output cell once (bar the few an overlapped last block rewrites with
/// the same bits, see [`FoldedRow::blocks`]).
///
/// Boundaries are resolved z per layer and y per face row, never per
/// read: [`fold_layer`] folds each tap's `z + dk` once for the layer, and
/// [`fold_row`] maps each tap to an in-grid source row or a broadcast
/// value — on a row whose taps all land in range on y by shifting the
/// layer's table, elsewhere by resolving `y + dj`. The one blocked kernel
/// ([`FoldedRow::block`], instantiated [`BLOCK`] wide, [`NARROW`] wide
/// for a run shorter than that and one wide below even that) runs over
/// the whole x-interior run whether or not the row touches a y or z
/// boundary. The ≤ `extent_x` cells at each x end read through the same
/// folded sources and resolve only x per tap ([`FoldedRow::end_cell`]).
/// The hook and the checksum sums (see [`ChecksumMode`]) then pass over
/// the cache-hot row.
#[allow(clippy::too_many_arguments)]
fn sweep_layer<T: Real, H: SweepHook<T>>(
    src: &Grid3D<T>,
    task: LayerTask<'_, T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    hook: &H,
    y_rows: Range<usize>,
    xs: Range<usize>,
    scratch: &mut Scratch<T>,
) {
    let (nx, ny, nz) = src.dims();
    let LayerTask {
        z,
        dst_layer,
        row,
        mut col,
    } = task;
    // The x-interior run (every tap's x+di in range), clipped to the
    // swept window; empty on narrow domains and edge-only windows.
    let ex = stencil.extent_x();
    let run_start = ex.clamp(xs.start, xs.end);
    let run_end = (nx - ex).clamp(run_start, xs.end);
    fold_layer(stencil, z, (nx, ny, nz), &bounds.z, scratch);

    scratch.row_acc.clear();
    if row.is_some() {
        scratch.row_acc.resize(nx, 0.0);
    }

    for y in y_rows {
        let out = &mut dst_layer[y * nx..(y + 1) * nx];
        let line = (z * ny + y) * nx;
        fold_row(stencil, (y, z), (nx, ny), &bounds.y, scratch);
        let folded = FoldedRow {
            s: src.as_slice(),
            stencil,
            sources: &scratch.sources,
            constant_row: constant.map(|c| &c.as_slice()[line..line + nx]),
        };
        for x in (xs.start..run_start).chain(run_end..xs.end) {
            out[x] = folded.end_cell(x, nx, &bounds.x);
        }
        match run_end - run_start {
            BLOCK.. => folded.blocks::<BLOCK>(out, run_start..run_end),
            NARROW.. => folded.blocks::<NARROW>(out, run_start..run_end),
            _ => folded.blocks::<1>(out, run_start..run_end),
        }

        if H::ACTIVE {
            for x in xs.clone() {
                out[x] = hook.transform(x, y, z, out[x]);
            }
        }
        // Checksum modes require a full x-line, enforced up front.
        if let Some(c) = col.as_deref_mut() {
            c[y] = T::from_f64(line_sum(out));
        }
        for (a, &v) in scratch.row_acc.iter_mut().zip(out.iter()) {
            *a += v.to_f64();
        }
    }
    if let Some(r) = row {
        for (o, &a) in r.iter_mut().zip(&scratch.row_acc) {
            *o = T::from_f64(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoHook;
    use proptest::prelude::*;

    /// Naive reference sweep: resolved reads everywhere.
    fn reference_sweep<T: Real>(
        src: &Grid3D<T>,
        stencil: &Stencil3D<T>,
        bounds: &BoundarySpec<T>,
        constant: Option<&Grid3D<T>>,
    ) -> Grid3D<T> {
        let (nx, ny, nz) = src.dims();
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            let mut v = constant.map_or(T::ZERO, |c| c.at(x, y, z));
            for t in stencil.taps() {
                let q = [x as isize + t.di, y as isize + t.dj, z as isize + t.dk];
                v += t.w * read_resolved(src, q, bounds);
            }
            v
        })
    }

    fn sample_grid(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.5 - 3.0
        })
    }

    fn check_against_reference(bounds: BoundarySpec<f64>) {
        let src = sample_grid(9, 7, 4);
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.4f64),
            (-1, 0, 0, 0.1),
            (1, 0, 0, 0.15),
            (0, -2, 0, 0.05),
            (0, 1, 0, 0.1),
            (2, 0, 0, 0.1),
            (0, 0, -1, 0.05),
            (0, 0, 1, 0.05),
        ]);
        let expect = reference_sweep(&src, &stencil, &bounds, None);
        for exec in [Exec::Serial, Exec::Parallel] {
            let mut dst = Grid3D::zeros(9, 7, 4);
            sweep(
                &src,
                &mut dst,
                &stencil,
                &bounds,
                None,
                &NoHook,
                ChecksumMode::None,
                exec,
            );
            assert_eq!(dst, expect, "mismatch for {bounds:?} / {exec:?}");
        }
    }

    #[test]
    fn fast_path_matches_reference_clamp() {
        check_against_reference(BoundarySpec::clamp());
    }

    #[test]
    fn fast_path_matches_reference_periodic() {
        check_against_reference(BoundarySpec::periodic());
    }

    #[test]
    fn fast_path_matches_reference_zero() {
        check_against_reference(BoundarySpec::zero());
    }

    #[test]
    fn fast_path_matches_reference_mixed() {
        check_against_reference(BoundarySpec {
            x: Boundary::Reflect,
            y: Boundary::Constant(2.5),
            z: Boundary::Clamp,
        });
    }

    /// Every boundary kind on every axis, with and without a constant
    /// term, serial and parallel, as one sweep and as a tiling of partial
    /// windows — against resolved reads at every cell, bitwise. At the
    /// kernel's reach of 2 the widths give x-interior runs that are empty
    /// (4), below the narrow block (7), exactly one (8), narrow blocks
    /// only (9), narrow blocks and an overlapped one (19), whole blocks
    /// (20, 36) and whole blocks and an overlapped one (21, 25, 37).
    fn boundary_matrix<T: Real>() {
        let w = |v: f64| T::from_f64(v);
        // Reach 2 in x and y, 1 in z; weights that round in either type.
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, w(0.4)),
            (-1, 0, 0, w(0.1)),
            (2, 0, 0, w(0.15)),
            (0, -2, 0, w(0.05)),
            (1, 1, 0, w(0.1)),
            (0, 0, -1, w(0.07)),
            (-2, 1, 1, w(0.03)),
        ]);
        let kinds = [
            Boundary::Clamp,
            Boundary::Periodic,
            Boundary::Zero,
            Boundary::Constant(w(2.5)),
            Boundary::Reflect,
        ];
        let mut specs = Vec::new();
        for kind in kinds {
            let clamp = BoundarySpec::clamp();
            specs.push(BoundarySpec { x: kind, ..clamp });
            specs.push(BoundarySpec { y: kind, ..clamp });
            specs.push(BoundarySpec { z: kind, ..clamp });
        }
        let untouched = w(-7777.0);
        // (6, 3) has two y-interior rows in one z-interior layer; (11, 6)
        // has seven in four, so most rows shift their layer's template.
        let shapes = [4, 7, 8, 9, 19, 20, 21, 25, 36, 37]
            .into_iter()
            .flat_map(|nx| [(nx, 6, 3), (nx, 11, 6)]);
        for (nx, ny, nz) in shapes {
            let src = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
                w(((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.3 - 3.0)
            });
            let constant =
                Grid3D::from_fn(nx, ny, nz, |x, y, z| w((x + 2 * y + 3 * z) as f64 * 0.11));
            // Windows that isolate each x end (cells whose folded x lands
            // far away), split y and z, and cut the run — the last one so
            // that on the widest grid its 15 cells end in a block that,
            // laid out from the row's run instead of the window's, would
            // start left of the window.
            let cut = nx.saturating_sub(17).max(3);
            let tiles = [
                (0..4, 0..1, 0..nz),
                (0..4, 1..3, 0..nz),
                (0..4, 3..nx, 0..2),
                (0..4, 3..nx, 2..nz),
                (4..ny, 0..cut, 0..nz),
                (4..ny, cut..nx - 1, 0..nz),
                (4..ny, nx - 1..nx, 0..nz),
            ];
            for bounds in &specs {
                for constant in [None, Some(&constant)] {
                    let expect = reference_sweep(&src, &stencil, bounds, constant);
                    for exec in [Exec::Serial, Exec::Parallel] {
                        let ctx = format!("{:?}, {bounds:?}, {exec:?}", (nx, ny, nz));
                        let mut whole = Grid3D::zeros(nx, ny, nz);
                        let mut tiled = Grid3D::zeros(nx, ny, nz);
                        sweep(
                            &src,
                            &mut whole,
                            &stencil,
                            bounds,
                            constant,
                            &NoHook,
                            ChecksumMode::None,
                            exec,
                        );
                        assert_eq!(whole, expect, "whole sweep, {ctx}");
                        for (rows, xs, zs) in tiles.clone() {
                            // A window writes its own cells and no others.
                            let mut alone = Grid3D::filled(nx, ny, nz, untouched);
                            for dst in [&mut tiled, &mut alone] {
                                sweep_region(
                                    &src,
                                    dst,
                                    &stencil,
                                    bounds,
                                    constant,
                                    &NoHook,
                                    ChecksumMode::None,
                                    exec,
                                    rows.clone(),
                                    xs.clone(),
                                    zs.clone(),
                                );
                            }
                            let window = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
                                if rows.contains(&y) && xs.contains(&x) && zs.contains(&z) {
                                    expect.at(x, y, z)
                                } else {
                                    untouched
                                }
                            });
                            assert_eq!(alone, window, "window {rows:?}×{xs:?}×{zs:?}, {ctx}");
                        }
                        assert_eq!(tiled, expect, "tiled sweep, {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_matrix_matches_resolved_reads_bitwise_f32() {
        boundary_matrix::<f32>();
    }

    #[test]
    fn boundary_matrix_matches_resolved_reads_bitwise_f64() {
        boundary_matrix::<f64>();
    }

    /// A window end on an axis of length `n` whose taps reach `e`: an end
    /// of the axis, an edge of its interior band `e..n − e`, or anywhere.
    fn band_edge_or_any(pick: usize, any: usize, n: usize, e: usize) -> usize {
        match pick {
            0 => 0,
            1 => e,
            2 => n - e,
            3 => n,
            _ => any % (n + 1),
        }
    }

    /// One drawn case in type `T`: `sweep_region` over a `rows × 0..nx ×
    /// zs` window, serial and parallel, against [`reference_sweep`]
    /// inside the window and untouched cells outside it, bitwise.
    fn folded_rows_match<T: Real>(
        taps: &[(isize, isize, isize, f64)],
        bounds: [usize; 3],
        dims: (usize, usize, usize),
        with_constant: bool,
        (rows, zs): ([usize; 4], [usize; 4]),
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
        let (ey, ez) = (stencil.extent_y(), stencil.extent_z());
        let (nx, ny, nz) = (stencil.extent_x() + dims.0, ey + dims.1, ez + dims.2);
        let window = |[p, q, a, b]: [usize; 4], n: usize, e: usize| {
            let (lo, hi) = (band_edge_or_any(p, a, n, e), band_edge_or_any(q, b, n, e));
            lo.min(hi)..lo.max(hi)
        };
        let (rows, zs) = (window(rows, ny, ey), window(zs, nz, ez));
        let src = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            w(((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.3 - 3.0)
        });
        let constant = with_constant
            .then(|| Grid3D::from_fn(nx, ny, nz, |x, y, z| w((x + 2 * y + 3 * z) as f64 * 0.11)));
        let expect = reference_sweep(&src, &stencil, &bounds, constant.as_ref());
        let untouched = w(-7777.0);
        for exec in [Exec::Serial, Exec::Parallel] {
            let mut got = Grid3D::filled(nx, ny, nz, untouched);
            sweep_region(
                &src,
                &mut got,
                &stencil,
                &bounds,
                constant.as_ref(),
                &NoHook,
                ChecksumMode::None,
                exec,
                rows.clone(),
                0..nx,
                zs.clone(),
            );
            for n in 0..nx * ny * nz {
                let (x, y, z) = (n % nx, n / nx % ny, n / (nx * ny));
                let e = if rows.contains(&y) && zs.contains(&z) {
                    expect.at(x, y, z)
                } else {
                    untouched
                };
                let g = got.at(x, y, z);
                prop_assert!(
                    g.to_f64().to_bits() == e.to_f64().to_bits(),
                    "cell {:?}: swept {g:?} vs resolved {e:?}; window {rows:?}×{zs:?}, \
                     {bounds:?}, dims {:?}, taps {taps:?}, constant {with_constant}, {exec:?}",
                    (x, y, z),
                    (nx, ny, nz),
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// The sweep folds z once per layer and y only on face rows; every
        /// other row shifts its layer's template. Whatever the row, the
        /// result must be resolved reads' bits — over asymmetric kernels
        /// of reach ≤ 2, every boundary kind per axis, `f32` and `f64`,
        /// with and without a constant field, domains whose interior band
        /// is empty, one row or most rows, and windows that start or end
        /// on a band edge.
        #[test]
        fn folded_rows_match_resolved_reads_bitwise(
            taps in proptest::collection::vec(
                (-2isize..=2, -2isize..=2, -2isize..=2, -1.0f64..1.0),
                1..=9,
            ),
            bounds in (0usize..5, 0usize..5, 0usize..5),
            dims in (1usize..=20, 1usize..=8, 1usize..=8),
            with_constant in any::<bool>(),
            rows in (0usize..6, 0usize..6, 0usize..64, 0usize..64),
            zs in (0usize..6, 0usize..6, 0usize..64, 0usize..64),
        ) {
            let bounds = [bounds.0, bounds.1, bounds.2];
            let windows = ([rows.0, rows.1, rows.2, rows.3], [zs.0, zs.1, zs.2, zs.3]);
            folded_rows_match::<f32>(&taps, bounds, dims, with_constant, windows)?;
            folded_rows_match::<f64>(&taps, bounds, dims, with_constant, windows)?;
        }
    }

    #[test]
    fn constant_term_applied() {
        let src = sample_grid(5, 5, 2);
        let c = Grid3D::filled(5, 5, 2, 10.0f64);
        let stencil = Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]);
        let mut dst = Grid3D::zeros(5, 5, 2);
        sweep(
            &src,
            &mut dst,
            &stencil,
            &BoundarySpec::clamp(),
            Some(&c),
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );
        assert_eq!(dst.at(2, 2, 1), src.at(2, 2, 1) + 10.0);
        assert_eq!(dst.at(0, 0, 0), src.at(0, 0, 0) + 10.0);
    }

    #[test]
    fn fused_column_checksums_match_direct_sums() {
        let src = sample_grid(8, 6, 3);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let mut dst = Grid3D::zeros(8, 6, 3);
        let mut col = vec![0.0f64; 3 * 6];
        sweep(
            &src,
            &mut dst,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::Col { col: &mut col },
            Exec::Parallel,
        );
        for z in 0..3 {
            let mut direct = [0.0; 6];
            dst.layer(z).col_checksums_into(&mut direct);
            assert_eq!(direct, col[z * 6..(z + 1) * 6]);
        }
    }

    #[test]
    fn fused_row_and_column_checksums() {
        let src = sample_grid(8, 6, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let mut dst = Grid3D::zeros(8, 6, 2);
        let mut row = vec![0.0f64; 2 * 8];
        let mut col = vec![0.0f64; 2 * 6];
        sweep(
            &src,
            &mut dst,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::RowCol {
                row: &mut row,
                col: &mut col,
            },
            Exec::Serial,
        );
        for z in 0..2 {
            let (mut direct_row, mut direct_col) = ([0.0; 8], [0.0; 6]);
            dst.layer(z).row_checksums_into(&mut direct_row);
            dst.layer(z).col_checksums_into(&mut direct_col);
            assert_eq!(direct_row, row[z * 8..(z + 1) * 8]);
            assert_eq!(direct_col, col[z * 6..(z + 1) * 6]);
        }
    }

    #[test]
    fn hook_fires_at_exactly_one_point_and_checksums_see_it() {
        let src = sample_grid(6, 5, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);

        // Clean run.
        let mut clean = Grid3D::zeros(6, 5, 2);
        sweep(
            &src,
            &mut clean,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );

        // Corrupting hook at (3, 2, 1): add 100.
        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (3, 2, 1) {
                v + 100.0
            } else {
                v
            }
        };
        let mut dirty = Grid3D::zeros(6, 5, 2);
        let mut col = vec![0.0f64; 2 * 5];
        sweep(
            &src,
            &mut dirty,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &hook,
            ChecksumMode::Col { col: &mut col },
            Exec::Serial,
        );
        assert_eq!(dirty.at(3, 2, 1) - clean.at(3, 2, 1), 100.0);
        assert_eq!(dirty.at(0, 0, 0), clean.at(0, 0, 0));
        // The fused checksum must reflect the corrupted stored value.
        let mut direct = [0.0; 5];
        dirty.layer(1).col_checksums_into(&mut direct);
        assert_eq!(direct, col[5..10]);
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let src = sample_grid(16, 11, 4);
        let stencil = Stencil3D::twenty_seven_point(0.5f64, 0.5 / 26.0);
        let run = |exec| {
            let mut dst = Grid3D::zeros(16, 11, 4);
            sweep(
                &src,
                &mut dst,
                &stencil,
                &BoundarySpec::periodic(),
                None,
                &NoHook,
                ChecksumMode::None,
                exec,
            );
            dst
        };
        // Identical per-point operation order => bitwise equality.
        assert_eq!(run(Exec::Serial), run(Exec::Parallel));
    }

    #[test]
    fn region_sweeps_tile_to_a_full_sweep() {
        let src = sample_grid(9, 7, 3);
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.4f64),
            (-1, 0, 0, 0.1),
            (2, 0, 0, 0.15),
            (0, -1, 0, 0.1),
            (0, 1, 0, 0.1),
            (1, 1, 0, 0.05),
            (0, 0, 1, 0.1),
        ]);
        let bounds = BoundarySpec::periodic();
        let mut full = Grid3D::zeros(9, 7, 3);
        sweep(
            &src,
            &mut full,
            &stencil,
            &bounds,
            None,
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );
        // Disjoint windows tiling the domain, swept in arbitrary order —
        // including a z-split (layer 2 separate from layers 0..2).
        let mut tiled = Grid3D::zeros(9, 7, 3);
        for (rows, xs, zs) in [
            (3..7, 4..9, 0..2),
            (0..3, 0..9, 0..2),
            (3..7, 0..4, 0..2),
            (0..7, 0..9, 2..3),
        ] {
            sweep_region(
                &src,
                &mut tiled,
                &stencil,
                &bounds,
                None,
                &NoHook,
                ChecksumMode::None,
                Exec::Serial,
                rows,
                xs,
                zs,
            );
        }
        assert_eq!(full, tiled);
    }

    #[test]
    #[should_panic]
    fn partial_x_window_rejects_column_checksums() {
        let src = sample_grid(6, 5, 1);
        let mut dst = Grid3D::zeros(6, 5, 1);
        let mut col = vec![0.0f64; 5];
        sweep_region(
            &src,
            &mut dst,
            &Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]),
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::Col { col: &mut col },
            Exec::Serial,
            0..5,
            1..6,
            0..1,
        );
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let src = Grid3D::<f64>::zeros(4, 4, 1);
        let mut dst = Grid3D::<f64>::zeros(4, 5, 1);
        sweep(
            &src,
            &mut dst,
            &Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]),
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );
    }

    #[test]
    #[should_panic]
    fn oversized_stencil_rejected() {
        let src = Grid3D::<f64>::zeros(3, 3, 1);
        let mut dst = src.clone();
        sweep(
            &src,
            &mut dst,
            &Stencil3D::from_tuples(&[(3, 0, 0, 1.0f64)]),
            &BoundarySpec::clamp(),
            None,
            &NoHook,
            ChecksumMode::None,
            Exec::Serial,
        );
    }
}
