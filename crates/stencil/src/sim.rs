//! A self-contained time-stepping simulation: stencil + boundary spec +
//! optional constant field + double-buffered state.

use crate::{sweep, sweep_rows, ChecksumMode, ConstantField, Exec, NoHook, Stencil3D, SweepHook};
use abft_grid::{BoundarySpec, DoubleBuffer, GhostCells, Grid3D, NoGhosts};
use abft_num::Real;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock breakdown of one overlapped (split) step, in seconds.
///
/// Produced by [`StencilSim::step_overlapped`]; `verify_s` stays zero for
/// unprotected steps and is filled in by the protector when ABFT
/// verification runs after the edge phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplitStepTimes {
    /// Interior rows swept while halos were in flight.
    pub interior_s: f64,
    /// Blocked waiting for the ghost source (halo receive).
    pub wait_s: f64,
    /// Edge rows swept after the halo landed.
    pub edge_s: f64,
    /// ABFT interpolation/detection/correction after the step.
    pub verify_s: f64,
}

impl SplitStepTimes {
    /// Sum of all phases.
    pub fn total_s(&self) -> f64 {
        self.interior_s + self.wait_s + self.edge_s + self.verify_s
    }
}

/// An unprotected stencil simulation (the paper's "No-ABFT" baseline) and
/// the substrate the protectors in `abft-core` drive.
///
/// ```
/// use abft_grid::{BoundarySpec, Grid3D};
/// use abft_stencil::{Exec, Stencil2D, StencilSim};
///
/// let initial = Grid3D::from_fn(16, 16, 1, |x, y, _| (x + y) as f64);
/// let stencil = Stencil2D::jacobi_heat(0.2).into_3d();
/// let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp())
///     .with_exec(Exec::Serial);
/// sim.step();
/// assert_eq!(sim.iteration(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StencilSim<T> {
    stencil: Stencil3D<T>,
    bounds: BoundarySpec<T>,
    /// Read-only, so clones share it (and its line sums).
    constant: Option<Arc<ConstantField<T>>>,
    buf: DoubleBuffer<T>,
    exec: Exec,
    iteration: usize,
}

impl<T: Real> StencilSim<T> {
    /// Create a simulation from an initial state.
    pub fn new(initial: Grid3D<T>, stencil: Stencil3D<T>, bounds: BoundarySpec<T>) -> Self {
        let (nx, ny, nz) = initial.dims();
        assert!(
            stencil.extent_x() < nx && stencil.extent_y() < ny && stencil.extent_z() < nz,
            "stencil extent must be smaller than the domain on every axis"
        );
        Self {
            stencil,
            bounds,
            constant: None,
            buf: DoubleBuffer::new(initial),
            exec: Exec::default(),
            iteration: 0,
        }
    }

    /// Attach a per-cell constant term `C[x,y,z]` (Eq. 1).
    pub fn with_constant(mut self, c: Grid3D<T>) -> Self {
        assert_eq!(
            c.dims(),
            self.buf.dims(),
            "constant-field dimension mismatch"
        );
        self.constant = Some(Arc::new(ConstantField::new(c)));
        self
    }

    /// Select the execution strategy (default: [`Exec::Parallel`]).
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    pub fn stencil(&self) -> &Stencil3D<T> {
        &self.stencil
    }

    pub fn bounds(&self) -> &BoundarySpec<T> {
        &self.bounds
    }

    pub fn constant(&self) -> Option<&Grid3D<T>> {
        self.constant.as_deref().map(ConstantField::grid)
    }

    /// The constant term together with its shared line sums.
    pub fn constant_field(&self) -> Option<&ConstantField<T>> {
        self.constant.as_deref()
    }

    pub fn exec(&self) -> Exec {
        self.exec
    }

    /// Completed iteration count (the `t` of the paper).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The current (time-`t`) grid.
    pub fn current(&self) -> &Grid3D<T> {
        self.buf.current()
    }

    /// Mutable access to the current grid (error correction writes here).
    pub fn current_mut(&mut self) -> &mut Grid3D<T> {
        self.buf.current_mut()
    }

    /// The previous (time `t-1`) grid — valid right after a step.
    pub fn previous(&self) -> &Grid3D<T> {
        self.buf.previous()
    }

    /// `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.buf.dims()
    }

    /// Advance one iteration (no hook, no checksums).
    pub fn step(&mut self) {
        self.step_full(&NoHook, &NoGhosts, ChecksumMode::None);
    }

    /// Advance one iteration with a hook (fault injection).
    pub fn step_hooked<H: SweepHook<T>>(&mut self, hook: &H) {
        self.step_full(hook, &NoGhosts, ChecksumMode::None);
    }

    /// Advance one iteration, producing the fused column checksums
    /// (`col` is flat `[z][y]`, length `nz·ny`).
    pub fn step_with_col<H: SweepHook<T>>(&mut self, hook: &H, col: &mut [T]) {
        self.step_full(hook, &NoGhosts, ChecksumMode::Col { col });
    }

    /// Advance one iteration, producing both checksum vectors.
    pub fn step_with_rowcol<H: SweepHook<T>>(&mut self, hook: &H, row: &mut [T], col: &mut [T]) {
        self.step_full(hook, &NoGhosts, ChecksumMode::RowCol { row, col });
    }

    /// Fully general step: hook, ghost source and checksum mode.
    pub fn step_full<H: SweepHook<T>, G: GhostCells<T>>(
        &mut self,
        hook: &H,
        ghosts: &G,
        mode: ChecksumMode<'_, T>,
    ) {
        let (src, dst) = self.buf.split();
        sweep(
            src,
            dst,
            &self.stencil,
            &self.bounds,
            self.constant.as_deref().map(ConstantField::grid),
            ghosts,
            hook,
            mode,
            self.exec,
        );
        self.buf.swap();
        self.iteration += 1;
    }

    /// Low-level half of a split step: sweep only the `y`-rows in `rows`
    /// into the back buffer **without** completing the step. Call
    /// [`StencilSim::finish_step`] once disjoint row ranges covering the
    /// whole domain have been swept; the result is bitwise equal to one
    /// [`StencilSim::step_full`]. `col`, when given, receives the fused
    /// column checksums of the swept rows.
    pub fn sweep_rows_partial<H: SweepHook<T>, G: GhostCells<T>>(
        &mut self,
        hook: &H,
        ghosts: &G,
        rows: Range<usize>,
        col: Option<&mut [T]>,
    ) {
        let (src, dst) = self.buf.split();
        let mode = match col {
            Some(c) => ChecksumMode::Col { col: c },
            None => ChecksumMode::None,
        };
        sweep_rows(
            src,
            dst,
            &self.stencil,
            &self.bounds,
            self.constant.as_deref().map(ConstantField::grid),
            ghosts,
            hook,
            mode,
            self.exec,
            rows,
        );
    }

    /// Low-level half of a split step over a box `rows × xs × zs` window:
    /// sweep it into the back buffer **without** completing the step (no
    /// checksums — a partial x-window cannot complete a column checksum
    /// line). Call [`StencilSim::finish_step`] once disjoint windows
    /// tiling the whole domain have been swept; the result is bitwise
    /// equal to one [`StencilSim::step_full`].
    pub fn sweep_region_partial<H: SweepHook<T>, G: GhostCells<T>>(
        &mut self,
        hook: &H,
        ghosts: &G,
        rows: Range<usize>,
        xs: Range<usize>,
        zs: Range<usize>,
    ) {
        let (src, dst) = self.buf.split();
        crate::sweep_region(
            src,
            dst,
            &self.stencil,
            &self.bounds,
            self.constant.as_deref().map(ConstantField::grid),
            ghosts,
            hook,
            ChecksumMode::None,
            self.exec,
            rows,
            xs,
            zs,
        );
    }

    /// Complete a split step: swap the buffers and advance the iteration
    /// counter. Every row must have been swept via
    /// [`StencilSim::sweep_rows_partial`] since the last step.
    pub fn finish_step(&mut self) {
        self.buf.swap();
        self.iteration += 1;
    }

    /// One overlapped step: sweep the `interior` rows (which must not
    /// depend on ghost cells), then call `wait` to obtain the ghost source
    /// — the overlap window where a halo exchange completes — and finally
    /// sweep the remaining edge rows against it. Bitwise equal to
    /// [`StencilSim::step_full`] with the same ghost values.
    ///
    /// Returns the ghost source (protectors reuse it for checksum
    /// interpolation) and the per-phase wall-clock breakdown.
    pub fn step_overlapped<H, G, W>(
        &mut self,
        hook: &H,
        interior: Range<usize>,
        wait: W,
        col: Option<&mut [T]>,
    ) -> (G, SplitStepTimes)
    where
        H: SweepHook<T>,
        G: GhostCells<T>,
        W: FnOnce() -> G,
    {
        self.try_step_overlapped(hook, interior, || Some(wait()), col)
            .expect("infallible wait returned a ghost source")
    }

    /// Fallible variant of [`StencilSim::step_overlapped`] for exchanges
    /// that can *fail* (a peer rank died and its halo never arrives).
    /// `wait` returns `None` to abort the step: the edge sweep is skipped,
    /// the buffers are **not** swapped and the iteration counter does not
    /// advance — the current state still holds iteration `t` (the back
    /// buffer holds a torn partial sweep, overwritten by the next sweep or
    /// a [`StencilSim::restore`]), so the caller can roll back cleanly.
    pub fn try_step_overlapped<H, G, W>(
        &mut self,
        hook: &H,
        interior: Range<usize>,
        wait: W,
        mut col: Option<&mut [T]>,
    ) -> Option<(G, SplitStepTimes)>
    where
        H: SweepHook<T>,
        G: GhostCells<T>,
        W: FnOnce() -> Option<G>,
    {
        let ny = self.dims().1;
        let interior = interior.start.min(ny)..interior.end.min(ny);
        let interior = interior.start..interior.end.max(interior.start);

        let t0 = Instant::now();
        // Interior rows resolve every read in-slab; `NoGhosts` turns any
        // stray ghost access into a panic rather than silent corruption.
        self.sweep_rows_partial(hook, &NoGhosts, interior.clone(), col.as_deref_mut());
        let t1 = Instant::now();
        let ghosts = wait()?;
        let t2 = Instant::now();
        self.sweep_rows_partial(hook, &ghosts, 0..interior.start, col.as_deref_mut());
        self.sweep_rows_partial(hook, &ghosts, interior.end..ny, col);
        self.finish_step();
        let t3 = Instant::now();

        let times = SplitStepTimes {
            interior_s: (t1 - t0).as_secs_f64(),
            wait_s: (t2 - t1).as_secs_f64(),
            edge_s: (t3 - t2).as_secs_f64(),
            verify_s: 0.0,
        };
        Some((ghosts, times))
    }

    /// One overlapped step with a box interior window — the 3-D
    /// generalisation of [`StencilSim::step_overlapped`] for
    /// x×y×z-decomposed bricks, whose ghost-free interior excludes the x-,
    /// y- *and* z-edge cells. Sweeps `interior_y × interior_x ×
    /// interior_z` first (no ghost reads allowed), calls `wait` for the
    /// ghost source, then sweeps the remaining edge shell (bottom/top
    /// z-slabs over the full cross-section, then the y-frame rows
    /// full-width and the x-side columns of the middle box) against it.
    /// Bitwise equal to [`StencilSim::step_full`] with the same ghost
    /// values.
    ///
    /// Full-width `interior_x` *and* full-depth `interior_z` delegate to
    /// [`StencilSim::step_overlapped`] (the fused-checksum 1-D path);
    /// otherwise `col` must be `None` — a partial window cannot complete
    /// every column checksum line, so protectors recompute the vectors
    /// from the finished step instead.
    pub fn step_overlapped_region<H, G, W>(
        &mut self,
        hook: &H,
        interior_x: Range<usize>,
        interior_y: Range<usize>,
        interior_z: Range<usize>,
        wait: W,
        col: Option<&mut [T]>,
    ) -> (G, SplitStepTimes)
    where
        H: SweepHook<T>,
        G: GhostCells<T>,
        W: FnOnce() -> G,
    {
        self.try_step_overlapped_region(
            hook,
            interior_x,
            interior_y,
            interior_z,
            || Some(wait()),
            col,
        )
        .expect("infallible wait returned a ghost source")
    }

    /// Fallible variant of [`StencilSim::step_overlapped_region`]; see
    /// [`StencilSim::try_step_overlapped`] for the abort contract (`wait`
    /// returning `None` leaves the step uncommitted).
    pub fn try_step_overlapped_region<H, G, W>(
        &mut self,
        hook: &H,
        interior_x: Range<usize>,
        interior_y: Range<usize>,
        interior_z: Range<usize>,
        wait: W,
        col: Option<&mut [T]>,
    ) -> Option<(G, SplitStepTimes)>
    where
        H: SweepHook<T>,
        G: GhostCells<T>,
        W: FnOnce() -> Option<G>,
    {
        let (nx, ny, nz) = self.dims();
        let ix = interior_x.start.min(nx)..interior_x.end.min(nx);
        let ix = ix.start..ix.end.max(ix.start);
        let iz = interior_z.start.min(nz)..interior_z.end.min(nz);
        let iz = iz.start..iz.end.max(iz.start);
        if ix == (0..nx) && iz == (0..nz) {
            return self.try_step_overlapped(hook, interior_y, wait, col);
        }
        assert!(
            col.is_none(),
            "fused column checksums need a full-width, full-depth interior \
             window; compute them from the finished step instead"
        );
        let iy = interior_y.start.min(ny)..interior_y.end.min(ny);
        let iy = iy.start..iy.end.max(iy.start);

        let t0 = Instant::now();
        self.sweep_region_partial(hook, &NoGhosts, iy.clone(), ix.clone(), iz.clone());
        let t1 = Instant::now();
        let ghosts = wait()?;
        let t2 = Instant::now();
        self.sweep_region_partial(hook, &ghosts, 0..ny, 0..nx, 0..iz.start);
        self.sweep_region_partial(hook, &ghosts, 0..ny, 0..nx, iz.end..nz);
        self.sweep_region_partial(hook, &ghosts, 0..iy.start, 0..nx, iz.clone());
        self.sweep_region_partial(hook, &ghosts, iy.end..ny, 0..nx, iz.clone());
        self.sweep_region_partial(hook, &ghosts, iy.clone(), 0..ix.start, iz.clone());
        self.sweep_region_partial(hook, &ghosts, iy.clone(), ix.end..nx, iz.clone());
        self.finish_step();
        let t3 = Instant::now();

        let times = SplitStepTimes {
            interior_s: (t1 - t0).as_secs_f64(),
            wait_s: (t2 - t1).as_secs_f64(),
            edge_s: (t3 - t2).as_secs_f64(),
            verify_s: 0.0,
        };
        Some((ghosts, times))
    }

    /// Restore the simulation to a checkpointed state.
    pub fn restore(&mut self, state: &Grid3D<T>, iteration: usize) {
        self.buf.restore_current(state);
        self.iteration = iteration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stencil2D;

    fn sim_2d(n: usize) -> StencilSim<f64> {
        let g = Grid3D::from_fn(n, n, 1, |x, y, _| ((x * 3 + y * 5) % 7) as f64);
        StencilSim::new(
            g,
            Stencil2D::jacobi_heat(0.15).into_3d(),
            BoundarySpec::clamp(),
        )
        .with_exec(Exec::Serial)
    }

    #[test]
    fn stepping_advances_iteration() {
        let mut sim = sim_2d(8);
        assert_eq!(sim.iteration(), 0);
        sim.step();
        sim.step();
        assert_eq!(sim.iteration(), 2);
    }

    #[test]
    fn previous_holds_last_state() {
        let mut sim = sim_2d(8);
        let before = sim.current().clone();
        sim.step();
        assert_eq!(sim.previous(), &before);
        assert_ne!(sim.current(), &before);
    }

    #[test]
    fn conservative_kernel_preserves_mean_with_periodic_bounds() {
        let g = Grid3D::from_fn(8, 8, 1, |x, y, _| ((x * 3 + y * 5) % 7) as f64);
        let mut sim = StencilSim::new(
            g,
            Stencil2D::jacobi_heat(0.2).into_3d(),
            BoundarySpec::periodic(),
        )
        .with_exec(Exec::Serial);
        let total_before: f64 = sim.current().as_slice().iter().sum();
        for _ in 0..10 {
            sim.step();
        }
        let total_after: f64 = sim.current().as_slice().iter().sum();
        assert!((total_before - total_after).abs() < 1e-9);
    }

    #[test]
    fn restore_rewinds_state_and_iteration() {
        let mut sim = sim_2d(8);
        sim.step();
        let snap = sim.current().clone();
        let snap_iter = sim.iteration();
        sim.step();
        sim.step();
        sim.restore(&snap, snap_iter);
        assert_eq!(sim.current(), &snap);
        assert_eq!(sim.iteration(), 1);
    }

    #[test]
    fn constant_field_accumulates() {
        let g = Grid3D::zeros(4, 4, 1);
        let c = Grid3D::filled(4, 4, 1, 2.0f64);
        let mut sim = StencilSim::new(
            g,
            Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]),
            BoundarySpec::clamp(),
        )
        .with_constant(c)
        .with_exec(Exec::Serial);
        sim.step();
        sim.step();
        sim.step();
        assert_eq!(sim.current().at(1, 1, 0), 6.0);
    }

    #[test]
    fn overlapped_step_is_bitwise_equal_to_full_step() {
        let mut full = sim_2d(10);
        let mut split = sim_2d(10);
        for it in 0..7 {
            full.step();
            // Vary the interior window, including empty and full-domain.
            let interior = match it % 3 {
                0 => 1..9,
                1 => 3..5,
                _ => 0..10,
            };
            let (_, times) = split.step_overlapped(&NoHook, interior, || NoGhosts, None);
            assert!(times.interior_s >= 0.0 && times.edge_s >= 0.0);
        }
        assert_eq!(full.current(), split.current());
        assert_eq!(full.iteration(), split.iteration());
    }

    #[test]
    fn overlapped_region_step_is_bitwise_equal_to_full_step() {
        let mut full = sim_2d(12);
        let mut split = sim_2d(12);
        for it in 0..8 {
            full.step();
            // Vary the window: proper 2-D interiors, a full-width window
            // (delegates to the 1-D fused path) and an empty interior.
            let (ix, iy) = match it % 4 {
                0 => (1..11, 1..11),
                1 => (3..5, 2..9),
                2 => (0..12, 4..8),
                _ => (5..5, 0..12),
            };
            let (_, times) = split.step_overlapped_region(&NoHook, ix, iy, 0..1, || NoGhosts, None);
            assert!(times.interior_s >= 0.0 && times.edge_s >= 0.0);
        }
        assert_eq!(full.current(), split.current());
        assert_eq!(full.iteration(), split.iteration());
    }

    #[test]
    fn overlapped_box_step_with_z_window_is_bitwise_equal_to_full_step() {
        let make = || {
            let g = Grid3D::from_fn(9, 8, 5, |x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64);
            StencilSim::new(
                g,
                Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
                BoundarySpec::clamp(),
            )
            .with_exec(Exec::Serial)
        };
        let mut full = make();
        let mut split = make();
        for it in 0..8 {
            full.step();
            // Proper 3-D interiors, a full box (delegates to the fused
            // path), partial z with full x, and empty interiors.
            let (ix, iy, iz) = match it % 4 {
                0 => (1..8, 1..7, 1..4),
                1 => (2..5, 2..6, 2..3),
                2 => (0..9, 0..8, 0..5),
                _ => (0..9, 3..5, 1..4),
            };
            let (_, times) = split.step_overlapped_region(&NoHook, ix, iy, iz, || NoGhosts, None);
            assert!(times.interior_s >= 0.0 && times.edge_s >= 0.0);
        }
        assert_eq!(full.current(), split.current());
        assert_eq!(full.iteration(), split.iteration());
    }

    #[test]
    fn overlapped_step_checksums_match_full_step() {
        let mut full = sim_2d(8);
        let mut split = sim_2d(8);
        let mut col_full = vec![0.0f64; 8];
        let mut col_split = vec![0.0f64; 8];
        full.step_with_col(&NoHook, &mut col_full);
        let (_, _) = split.step_overlapped(&NoHook, 2..6, || NoGhosts, Some(&mut col_split));
        assert_eq!(col_full, col_split);
    }

    #[test]
    fn fused_checksums_via_sim() {
        let mut sim = sim_2d(6);
        let mut col = vec![0.0f64; 6];
        sim.step_with_col(&NoHook, &mut col);
        for y in 0..6 {
            let direct = sim.current().layer(0).sum_along_x(y);
            assert!((direct - col[y]).abs() < 1e-12);
        }
    }
}
