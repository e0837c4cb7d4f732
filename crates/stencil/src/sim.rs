//! A self-contained time-stepping simulation: stencil + boundary spec +
//! optional constant field + double-buffered state.

use crate::{sweep, sweep_region, ChecksumMode, ConstantField, Exec, NoHook, Stencil3D, SweepHook};
use abft_grid::{copy_box, BoundarySpec, DoubleBuffer, Grid3D};
use abft_num::Real;
use std::ops::Range;
use std::sync::Arc;

/// A box of the grid, `x × y × z`. As the window of a split step it holds
/// the cells whose stencil support needs nothing a halo exchange still
/// has to deliver: the first half of the step
/// ([`StencilSim::sweep_interior`]) sweeps it while the exchange is in
/// flight, the second half ([`StencilSim::sweep_shell_and_finish`]) the
/// box around it once the halo has landed. Any range may be empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteriorWindow {
    pub x: Range<usize>,
    pub y: Range<usize>,
    pub z: Range<usize>,
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
    ///
    /// # Panics
    /// Panics if a stencil extent is not smaller than its axis.
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
        self.step_full(&NoHook, ChecksumMode::None);
    }

    /// Advance one iteration with a hook (fault injection).
    pub fn step_hooked<H: SweepHook<T>>(&mut self, hook: &H) {
        self.step_full(hook, ChecksumMode::None);
    }

    /// Advance one iteration, producing the fused column checksums
    /// (`col` is flat `[z][y]`, length `nz·ny`).
    pub fn step_with_col<H: SweepHook<T>>(&mut self, hook: &H, col: &mut [T]) {
        self.step_full(hook, ChecksumMode::Col { col });
    }

    /// Advance one iteration, producing both checksum vectors.
    pub fn step_with_rowcol<H: SweepHook<T>>(&mut self, hook: &H, row: &mut [T], col: &mut [T]) {
        self.step_full(hook, ChecksumMode::RowCol { row, col });
    }

    /// Fully general step: hook and checksum mode.
    pub fn step_full<H: SweepHook<T>>(&mut self, hook: &H, mode: ChecksumMode<'_, T>) {
        let (src, dst) = self.buf.split();
        sweep(
            src,
            dst,
            &self.stencil,
            &self.bounds,
            self.constant.as_deref().map(ConstantField::grid),
            hook,
            mode,
            self.exec,
        );
        self.buf.swap();
        self.iteration += 1;
    }

    /// First half of a split step: sweep `window` into the back buffer
    /// **without** completing the step. The window's stencil support must
    /// lie in cells whose time-`t` values are already final — on a rank,
    /// the brick shrunk by the reach, which reads no pad cell an exchange
    /// still has to land. `col`, when given, receives the fused column
    /// checksums of the swept `(z, y)` lines and needs a full-width window
    /// ([`sweep_region`]'s rule).
    ///
    /// Not calling the second half *is* the abort: the current state still
    /// holds iteration `t` (the back buffer holds a torn partial sweep,
    /// overwritten by the next sweep or a [`StencilSim::restore`]).
    pub fn sweep_interior<H: SweepHook<T>>(
        &mut self,
        hook: &H,
        window: &InteriorWindow,
        col: Option<&mut [T]>,
    ) {
        self.sweep_box(
            hook,
            window.y.clone(),
            window.x.clone(),
            window.z.clone(),
            col,
        );
    }

    /// Second half of a split step: sweep `outer ∖ window` (`window` the
    /// box the first half swept, `outer ⊇ window` the box the whole step
    /// writes) — bottom/top z-slabs over `outer`'s cross-section, then
    /// the y-frame rows across `outer` and the x-side columns of the
    /// middle box — and complete the step (buffer swap, iteration count).
    /// With `outer` the whole grid the two halves together are bitwise
    /// equal to one [`StencilSim::step`]; cells outside `outer` keep
    /// whatever the back buffer held.
    pub fn sweep_shell_and_finish<H: SweepHook<T>>(
        &mut self,
        hook: &H,
        window: &InteriorWindow,
        outer: &InteriorWindow,
        mut col: Option<&mut [T]>,
    ) {
        let (InteriorWindow { x, y, z }, o) = (window, outer);
        let mut piece = |rows: Range<usize>, xs: Range<usize>, zs: &Range<usize>| {
            self.sweep_box(hook, rows, xs, zs.clone(), col.as_deref_mut());
        };
        piece(o.y.clone(), o.x.clone(), &(o.z.start..z.start));
        piece(o.y.clone(), o.x.clone(), &(z.end..o.z.end));
        piece(o.y.start..y.start, o.x.clone(), z);
        piece(y.end..o.y.end, o.x.clone(), z);
        piece(y.clone(), o.x.start..x.start, z);
        piece(y.clone(), x.end..o.x.end, z);
        self.buf.swap();
        self.iteration += 1;
    }

    /// The whole grid as a box.
    pub fn whole(&self) -> InteriorWindow {
        let (nx, ny, nz) = self.dims();
        InteriorWindow {
            x: 0..nx,
            y: 0..ny,
            z: 0..nz,
        }
    }

    /// Sweep one box of the domain into the back buffer.
    fn sweep_box<H: SweepHook<T>>(
        &mut self,
        hook: &H,
        rows: Range<usize>,
        xs: Range<usize>,
        zs: Range<usize>,
        col: Option<&mut [T]>,
    ) {
        let (src, dst) = self.buf.split();
        let mode = match col {
            // The x-side pieces of a full-width window are empty: they
            // complete no checksum line, and `sweep_region` would refuse
            // the partial x-range before noticing there is nothing to do.
            Some(col) if !xs.is_empty() => ChecksumMode::Col { col },
            _ => ChecksumMode::None,
        };
        sweep_region(
            src,
            dst,
            &self.stencil,
            &self.bounds,
            self.constant.as_deref().map(ConstantField::grid),
            hook,
            mode,
            self.exec,
            rows,
            xs,
            zs,
        );
    }

    /// Restore the simulation to a checkpointed state.
    pub fn restore(&mut self, state: &Grid3D<T>, iteration: usize) {
        self.buf.restore_current(state);
        self.iteration = iteration;
    }

    /// Restore a checkpointed box: `state` lands at `at` of the current
    /// grid, the rest of which is left as it is.
    pub fn restore_box(&mut self, state: &Grid3D<T>, at: [usize; 3], iteration: usize) {
        let (nx, ny, nz) = state.dims();
        copy_box(state, [0; 3], self.buf.current_mut(), at, [nx, ny, nz]);
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

    /// One split step over `window` (clamped boundaries).
    fn split_step(sim: &mut StencilSim<f64>, window: &InteriorWindow, mut col: Option<&mut [f64]>) {
        sim.sweep_interior(&NoHook, window, col.as_deref_mut());
        let whole = sim.whole();
        sim.sweep_shell_and_finish(&NoHook, window, &whole, col);
    }

    #[test]
    fn overlapped_step_is_bitwise_equal_to_full_step() {
        let mut full = sim_2d(10);
        let mut split = sim_2d(10);
        for it in 0..7 {
            full.step();
            // Vary the interior rows, including empty and full-domain.
            let y = match it % 3 {
                0 => 1..9,
                1 => 3..5,
                _ => 0..10,
            };
            let window = InteriorWindow {
                x: 0..10,
                y,
                z: 0..1,
            };
            split_step(&mut split, &window, None);
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
            // and an empty interior.
            let (x, y) = match it % 4 {
                0 => (1..11, 1..11),
                1 => (3..5, 2..9),
                2 => (0..12, 4..8),
                _ => (5..5, 0..12),
            };
            split_step(&mut split, &InteriorWindow { x, y, z: 0..1 }, None);
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
            // Proper 3-D interiors, a full box, partial z with full x,
            // and empty interiors.
            let (x, y, z) = match it % 4 {
                0 => (1..8, 1..7, 1..4),
                1 => (2..5, 2..6, 2..3),
                2 => (0..9, 0..8, 0..5),
                _ => (0..9, 3..5, 1..4),
            };
            split_step(&mut split, &InteriorWindow { x, y, z }, None);
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
        let window = InteriorWindow {
            x: 0..8,
            y: 2..6,
            z: 0..1,
        };
        split_step(&mut split, &window, Some(&mut col_split));
        assert_eq!(col_full, col_split);
    }

    /// A window that is full-width in x but partial in z still fuses: every
    /// `(z, y)` line is swept whole by exactly one piece.
    #[test]
    fn overlapped_step_checksums_fuse_on_a_partial_z_window() {
        let make = || {
            let g = Grid3D::from_fn(9, 8, 5, |x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64);
            StencilSim::new(
                g,
                Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
                BoundarySpec::clamp(),
            )
            .with_exec(Exec::Serial)
        };
        let (mut full, mut split) = (make(), make());
        let mut col_full = vec![0.0f64; 5 * 8];
        let mut col_split = vec![0.0f64; 5 * 8];
        full.step_with_col(&NoHook, &mut col_full);
        let window = InteriorWindow {
            x: 0..9,
            y: 2..6,
            z: 1..4,
        };
        split_step(&mut split, &window, Some(&mut col_split));
        assert_eq!(col_full, col_split);
        assert_eq!(full.current(), split.current());
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
