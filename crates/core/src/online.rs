//! The online ABFT protector (§3): verify and correct after every sweep.
//!
//! One path runs on every sweep: fused column checksums → interpolate →
//! detect → sweep each flagged layer again from the time-`t` grid, re-sum
//! it and compare it again. Only the column vector is trusted state; the
//! checksums find the damage, and re-execution repairs it.
//!
//! What is protected is a box of the simulation's grid: the whole grid
//! ([`OnlineAbft::new`]), a rank's brick inside its padded grid
//! ([`OnlineAbft::over_box`]), or also every window a `k > 1` epoch's
//! sweeps write around it ([`OnlineAbft::over_windows`]). A box's
//! checksum lines are its slices of the grid's x-lines, and its
//! interpolation reads the cells around it out of the grid's time-`t`
//! buffer. The trusted vector is the brick's `b(t)`; a step over a
//! window widens it to the window's lines and narrows the verified
//! vector back.

use crate::config::AbftConfig;
use crate::correct::CorrectionEvent;
use crate::detect::{any_deviating, compare_vectors};
use crate::interpolate::{ColPlan, Frame, Interpolator};
use crate::phantom::StripSet;
use crate::report::ProtectorStats;
use abft_grid::{box_col_sums, Grid3D};
use abft_num::{line_sum, Real};
use abft_stencil::{InteriorWindow, StencilSim, SweepHook};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one protected step observed and did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome<T> {
    /// Iteration the step advanced to (the paper's `t+1`).
    pub iteration: usize,
    /// Layers whose column checksums mismatched.
    pub detections: usize,
    /// Cells that sweeping a flagged layer again changed: each was struck
    /// as the sweep wrote it, and now holds its clean value.
    pub corrections: Vec<CorrectionEvent<T>>,
    /// Flagged layers that a second sweep left unchanged and passing: this
    /// step's computed vector was struck (Fig. 5b), and the re-sum
    /// refreshed it.
    pub checksum_refreshes: usize,
    /// Flagged layers that still mismatch once swept again: the time-`t`
    /// data or the trusted checksums were struck at rest.
    pub uncorrectable: usize,
}

impl<T: Real> StepOutcome<T> {
    fn new(iteration: usize) -> Self {
        Self {
            iteration,
            detections: 0,
            corrections: Vec::new(),
            checksum_refreshes: 0,
            uncorrectable: 0,
        }
    }

    /// No mismatch was observed.
    pub fn is_clean(&self) -> bool {
        self.detections == 0
    }
}

/// Online ABFT protector: drives a [`StencilSim`] one sweep at a time,
/// fusing the column-checksum computation into the sweep, interpolating
/// the expected checksums from the previous iteration (Theorem 1),
/// comparing (Theorem 2), and repairing a flagged layer in place by
/// sweeping it again from the still-live time-`t` buffer.
///
/// Per §3.2 only the column vector `b` is maintained every iteration; the
/// repair needs no location finer than the layer, so no row vector is
/// ever built.
///
/// ```
/// use abft_core::{AbftConfig, OnlineAbft};
/// use abft_grid::{BoundarySpec, Grid3D};
/// use abft_stencil::{Exec, NoHook, Stencil3D, StencilSim};
///
/// let initial = Grid3D::from_fn(12, 10, 2, |x, y, _| 80.0 + (x * y) as f64 * 0.1);
/// let stencil = Stencil3D::seven_point(0.4, 0.1, 0.1, 0.1);
/// let mut sim = StencilSim::new(initial, stencil, BoundarySpec::clamp())
///     .with_exec(Exec::Serial);
/// let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
/// let outcome = abft.step(&mut sim, &NoHook);
/// assert!(outcome.is_clean());
/// assert_eq!(abft.stats().steps, 1);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAbft<T> {
    cfg: AbftConfig<T>,
    /// The boxes a step may verify, each with its interpolator, smallest
    /// first: the brick, then the windows around it.
    boxes: Vec<(InteriorWindow, Interpolator<T>)>,
    /// The simulation's whole grid.
    grid: InteriorWindow,
    /// Trusted column checksums of the brick's current iteration (`b(t)`).
    col_t: Vec<T>,
    // Scratch buffers (allocated once, for the largest box).
    /// `b(t)` widened to a window (empty with one box).
    col_w: Vec<T>,
    col_comp: Vec<T>,
    col_interp: Vec<T>,
    /// Per box, the frame Theorem 1 runs on with the sweep's own kernel
    /// ([`Interpolator::interpolate_col_with`]), sized once.
    frames: Vec<Frame>,
    /// The whole grid's column vector a fused sweep writes, when the boxes
    /// span the grid's x-lines but are not the grid (empty otherwise); the
    /// verified box's block is copied into `col_comp`.
    col_grid: Vec<T>,
    /// A flagged layer's cells before it is swept again, sized for the
    /// largest box on the first detection (a clean run never fills it).
    layer: Vec<T>,
    stats: ProtectorStats,
}

/// Copy the column checksums of box `inner` out of `from`, those of a box
/// `outer` that holds it (flat `[z][y]` both).
fn lines_of<T: Real>(from: &[T], outer: &InteriorWindow, inner: &InteriorWindow, out: &mut [T]) {
    let ny = inner.y.len();
    let first = |z: usize| (z - outer.z.start) * outer.y.len() + inner.y.start - outer.y.start;
    for (o, z) in out.chunks_exact_mut(ny).zip(inner.z.clone()) {
        o.copy_from_slice(&from[first(z)..][..ny]);
    }
}

impl<T: Real> OnlineAbft<T> {
    /// Create a protector for a simulation, computing the initial checksum
    /// state from its current grid ("we assume that the initial data … and
    /// the initial checksum \[are\] correct", Theorem 2 proof).
    pub fn new(sim: &StencilSim<T>, cfg: AbftConfig<T>) -> Self {
        Self::over_box(sim, cfg, sim.whole())
    }

    /// A protector of the `domain` box of `sim`'s grid: a brick with no
    /// windows around it ([`OnlineAbft::over_windows`]).
    pub fn over_box(sim: &StencilSim<T>, cfg: AbftConfig<T>, domain: InteriorWindow) -> Self {
        Self::over_windows(sim, cfg, [domain])
    }

    /// A protector of nested boxes of `sim`'s grid, smallest first: the
    /// brick its trusted checksums describe, then the windows a `k > 1`
    /// epoch's sweeps write around it (the brick grown by each reach still
    /// to come). A step that writes one of them verifies and repairs all
    /// of it, pad cells like brick cells. Each box's
    /// interpolation reads what lies past it out of the grid's time-`t`
    /// buffer, resolved through the grid's boundaries
    /// ([`Interpolator::for_box`]); the scratch is sized for the largest.
    /// It steps through the split step ([`OnlineAbft::sweep_interior`],
    /// then [`OnlineAbft::sweep_shell_and_verify`]).
    pub fn over_windows(
        sim: &StencilSim<T>,
        cfg: AbftConfig<T>,
        windows: impl IntoIterator<Item = InteriorWindow>,
    ) -> Self {
        let mut windows: Vec<_> = windows.into_iter().collect();
        windows.dedup();
        let (gx, gy, gz) = sim.dims();
        let plan = |d: &InteriorWindow| ColPlan::new(sim.stencil(), sim.bounds(), d, [gx, gy, gz]);
        Self::over_plans(sim, cfg, windows.iter().map(|d| Arc::new(plan(d))))
    }

    /// [`OnlineAbft::over_windows`] over the boxes of prebuilt, distinct
    /// interpolation plans, smallest first ([`Interpolator::planned`]): a
    /// serving pool builds them once per topology and kernel shape.
    pub fn over_plans(
        sim: &StencilSim<T>,
        cfg: AbftConfig<T>,
        plans: impl IntoIterator<Item = Arc<ColPlan<T>>>,
    ) -> Self {
        let grid = sim.whole();
        let boxes: Vec<_> = plans
            .into_iter()
            .map(|p| (p.window(), Interpolator::planned(sim, p)))
            .collect();
        let windows: Vec<_> = boxes.iter().map(|(d, _)| d.clone()).collect();
        let brick = windows.first().expect("a protector needs a box");
        let largest = windows.last().expect("a box");
        let lines = |d: &InteriorWindow| d.z.len() * d.y.len();
        let mut col_t = vec![T::ZERO; lines(brick)];
        box_col_sums(sim.current(), brick.origin(), brick.dims(), &mut col_t);
        let fused_in_grid = brick.x == grid.x && windows != [grid.clone()];
        let grid_lines = usize::from(fused_in_grid) * lines(&grid);
        let widened = usize::from(windows.len() > 1) * lines(largest);
        let frames = boxes.iter().map(|(_, i)| i.frame()).collect();
        Self {
            cfg,
            boxes,
            grid,
            col_t,
            col_w: vec![T::ZERO; widened],
            col_comp: vec![T::ZERO; lines(largest)],
            col_interp: vec![T::ZERO; lines(largest)],
            frames,
            col_grid: vec![T::ZERO; grid_lines],
            layer: Vec::new(),
            stats: ProtectorStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProtectorStats {
        self.stats
    }

    /// Trusted column checksums of the current iteration.
    pub fn col_checksums(&self) -> &[T] {
        &self.col_t
    }

    /// Serialise the trusted checksum state `b(t)` into `out`. Together
    /// with the grid this is exactly what the paper checkpoints ("the
    /// current state of the grid and of the checksums", §5.4): restoring
    /// both via [`OnlineAbft::restore_checksums`] resumes protection
    /// without a recompute and without a trust gap.
    pub fn write_checksum_payload(&self, out: &mut Vec<T>) {
        out.clear();
        out.extend_from_slice(&self.col_t);
    }

    /// Restore the trusted checksum state from a payload written by
    /// [`OnlineAbft::write_checksum_payload`]. Cumulative
    /// [`ProtectorStats`] are deliberately *not* rolled back: detections
    /// and corrections that happened before a rollback really happened.
    ///
    /// # Panics
    /// Panics if the payload length does not match this protector's shape.
    pub fn restore_checksums(&mut self, payload: &[T]) {
        assert_eq!(
            payload.len(),
            self.col_t.len(),
            "checksum payload does not match protector shape"
        );
        self.col_t.copy_from_slice(payload);
    }

    /// Advance the simulation one protected iteration: the split step
    /// with the whole grid as its window, so the whole sweep runs first
    /// and the shell is empty.
    pub fn step<H: SweepHook<T>>(&mut self, sim: &mut StencilSim<T>, hook: &H) -> StepOutcome<T> {
        let whole = sim.whole();
        self.sweep_interior(sim, hook, &whole);
        self.sweep_shell_and_verify(sim, hook, &whole, &whole).0
    }

    /// First half of a protected **split** step: sweep the `window`,
    /// which reads no halo, while the halo exchange is still in flight.
    /// When the window spans the brick's x-lines and those are the grid's,
    /// the column checksums ride the sweep (§3.2, Fig. 2).
    ///
    /// Not calling the second half *is* the clean abort (a peer rank died
    /// and its halo never arrives): no buffer swap, no verification — the
    /// simulation still holds iteration `t`, the trusted checksums still
    /// describe it and no statistics moved, so a checkpoint rollback can
    /// replay from a consistent state with zero false positives.
    pub fn sweep_interior<H: SweepHook<T>>(
        &mut self,
        sim: &mut StencilSim<T>,
        hook: &H,
        window: &InteriorWindow,
    ) {
        debug_assert_eq!(sim.whole(), self.grid, "simulation/protector shape");
        let col = self.fuses(window).then(|| self.fused_target());
        sim.sweep_interior(hook, window, col);
    }

    /// Second half of a protected split step: sweep `outer ∖ window`
    /// (`outer ⊇` the brick), finish the step, then verify — interpolate,
    /// compare, sweep each flagged layer again — `outer` when it is one of
    /// the protector's boxes, else the brick. Detection and repair land
    /// before the caller's next halo post. The interpolation reads the cells around the box out of
    /// the time-`t` buffer, so they must hold the halo the sweep read.
    ///
    /// A window that does not span the grid's x-lines cannot complete
    /// every column checksum line, so the vectors are recomputed from the
    /// finished step — the same `f64` line reduction the fused sweep
    /// performs, hence bitwise-identical.
    ///
    /// Returns the outcome and the time the verify tail took (the rest of
    /// the call is the edge sweep).
    pub fn sweep_shell_and_verify<H: SweepHook<T>>(
        &mut self,
        sim: &mut StencilSim<T>,
        hook: &H,
        window: &InteriorWindow,
        outer: &InteriorWindow,
    ) -> (StepOutcome<T>, Duration) {
        let fused = self.fuses(window);
        let col = fused.then(|| self.fused_target());
        sim.sweep_shell_and_finish(hook, window, outer, col);
        let tail = Instant::now();
        let b = self.boxes.iter().position(|(d, _)| d == outer);
        let b = b.unwrap_or(0);
        let d = self.boxes[b].0.clone();
        let n = d.z.len() * d.y.len();
        if !fused {
            box_col_sums(sim.current(), d.origin(), d.dims(), &mut self.col_comp[..n]);
        } else if !self.col_grid.is_empty() {
            lines_of(&self.col_grid, &self.grid, &d, &mut self.col_comp[..n]);
        }
        if b > 0 {
            self.widen(sim.previous(), &d);
        }
        let flagged = self.diagnose(sim, b);
        let outcome = self.repair(sim, b, flagged);
        self.narrow(sim.current(), &d);
        (outcome, tail.elapsed())
    }

    /// Whether a split step over `window` fuses the column checksums into
    /// its sweeps: only whole x-lines of the grid can be summed in flight.
    fn fuses(&self, window: &InteriorWindow) -> bool {
        let brick = &self.boxes[0].0;
        window.x == brick.x && brick.x == self.grid.x
    }

    /// Where a fused sweep writes its column vector.
    fn fused_target(&mut self) -> &mut [T] {
        if self.col_grid.is_empty() {
            &mut self.col_comp
        } else {
            &mut self.col_grid
        }
    }

    /// `b(t)` of the window `d` from the brick's: a line that meets the
    /// brick is its brick entry plus the [`line_sum`]s of its time-`t` pad
    /// cells, summed once in `f64` (on slabs there are none, and the entry
    /// stands), and any other line is the `line_sum` of its time-`t` cells.
    fn widen(&mut self, previous: &Grid3D<T>, d: &InteriorWindow) {
        let brick = &self.boxes[0].0;
        let (gnx, gny, _) = previous.dims();
        let cells = previous.as_slice();
        let lines = d.z.clone().flat_map(|z| d.y.clone().map(move |y| (z, y)));
        for (out, (z, y)) in self.col_w.iter_mut().zip(lines) {
            let line = &cells[(z * gny + y) * gnx..][..gnx];
            *out = if !(brick.y.contains(&y) && brick.z.contains(&z)) {
                T::from_f64(line_sum(&line[d.x.clone()]))
            } else {
                let at = (z - brick.z.start) * brick.y.len() + y - brick.y.start;
                let (below, above) = (d.x.start..brick.x.start, brick.x.end..d.x.end);
                let pad = line_sum(&line[below]) + line_sum(&line[above]);
                T::from_f64(self.col_t[at].to_f64() + pad)
            };
        }
    }

    /// The brick's `b(t+1)` out of the verified vector of box `d`: the
    /// vector itself with one box, its lines' entries when `d` spans the
    /// brick's x-range, else the `line_sum`s of the just-verified brick.
    fn narrow(&mut self, current: &Grid3D<T>, d: &InteriorWindow) {
        let brick = &self.boxes[0].0;
        if self.boxes.len() == 1 {
            // The verified vector is the brick's, and shaped like it.
            std::mem::swap(&mut self.col_t, &mut self.col_comp);
        } else if d.x == brick.x {
            lines_of(&self.col_comp, d, brick, &mut self.col_t);
        } else {
            box_col_sums(current, brick.origin(), brick.dims(), &mut self.col_t);
        }
    }

    /// Steps 2–3 of the protected iteration over box `b`: interpolate the
    /// expected checksums and detect. Returns the layers some of whose
    /// column entries deviate. The sweep must already have filled
    /// `self.col_comp`.
    fn diagnose(&mut self, sim: &StencilSim<T>, b: usize) -> Vec<usize> {
        let (domain, interp) = &self.boxes[b];
        let (ny, nz) = (domain.y.len(), domain.z.len());
        let (col_comp, col_interp) = (&self.col_comp[..nz * ny], &mut self.col_interp[..nz * ny]);

        // 2. Interpolate the expected column checksums from time t
        //    (Theorem 1). The previous buffer *is* the time-t grid, so
        //    boundary corrections and reads past the box read it directly.
        let source = StripSet::Grid(sim.previous());
        let col_t = if b == 0 {
            &self.col_t
        } else {
            &self.col_w[..nz * ny]
        };
        interp.interpolate_col_with(col_t, &source, &mut self.frames[b], col_interp);

        // 3. Detect (Theorem 2): compare per layer, once some entry of the
        //    whole vector deviates.
        let (epsilon, floor) = (self.cfg.epsilon, self.cfg.abs_floor);
        if !any_deviating(col_interp, col_comp, epsilon, floor) {
            return Vec::new();
        }
        let layers = col_interp.chunks_exact(ny).zip(col_comp.chunks_exact(ny));
        let deviates = |(ip, cp): (&[T], &[T])| !compare_vectors(ip, cp, epsilon, floor).is_empty();
        let flagged = layers.enumerate().filter(|&(_, layer)| deviates(layer));
        flagged.map(|(z, _)| z).collect()
    }

    /// Step 4: repair each flagged layer of box `b`
    /// ([`OnlineAbft::sweep_layer_again`]), leaving the box's computed
    /// checksums in `col_comp` for the narrowing to the next iteration's
    /// trusted state.
    fn repair(&mut self, sim: &mut StencilSim<T>, b: usize, flagged: Vec<usize>) -> StepOutcome<T> {
        self.stats.steps += 1;
        self.stats.verifications += 1;
        let mut outcome = StepOutcome::new(sim.iteration());
        for z in flagged {
            self.stats.detections += 1;
            outcome.detections += 1;
            self.sweep_layer_again(sim, b, z, &mut outcome);
        }
        outcome
    }

    /// Sweep layer `z` of box `b` again from the time-`t` grid
    /// ([`StencilSim::sweep_again`]), re-sum its column entries with the
    /// builder ([`box_col_sums`]) and compare them again. The kernel does
    /// not depend on the window it sweeps, so the layer now holds bitwise
    /// what a clean sweep of the time-`t` grid writes there.
    /// - It passes, and cells changed: each changed cell was struck as the
    ///   sweep wrote it, and is one correction, however many the layer
    ///   held (one below ε against a hot line included).
    /// - It passes, and no cell changed: this step's computed vector was
    ///   struck (the paper's Fig. 5b), and the re-sum is its refresh.
    /// - It still deviates: the data are what the time-`t` grid gives, so
    ///   the time-`t` data or the trusted `b(t)` was struck at rest. The
    ///   layer is uncorrectable; its data are adopted as they are (the
    ///   re-sum describes them), so the detection state stays consistent
    ///   for the next step.
    fn sweep_layer_again(
        &mut self,
        sim: &mut StencilSim<T>,
        b: usize,
        z: usize,
        outcome: &mut StepOutcome<T>,
    ) {
        let d = &self.boxes[b].0;
        let ([nx, ny, _], [x0, y0, z0]) = (d.dims(), d.origin());
        if self.layer.is_empty() {
            let largest = &self.boxes.last().expect("a box").0;
            self.layer = vec![T::ZERO; largest.x.len() * largest.y.len()];
        }
        // Where the box's slice of line `y` of the layer lies in the grid.
        let (gnx, gny, _) = sim.dims();
        let line = |y: usize| {
            let first = ((z0 + z) * gny + y0 + y) * gnx + x0;
            first..first + nx
        };
        let before = &mut self.layer[..nx * ny];
        for (y, row) in before.chunks_exact_mut(nx).enumerate() {
            row.copy_from_slice(&sim.current().as_slice()[line(y)]);
        }
        sim.sweep_again(&InteriorWindow {
            z: z0 + z..z0 + z + 1,
            ..d.clone()
        });
        let cells = sim.current();
        let col = &mut self.col_comp[z * ny..(z + 1) * ny];
        box_col_sums(cells, [x0, y0, z0 + z], [nx, ny, 1], col);
        let interp = &self.col_interp[z * ny..(z + 1) * ny];
        if !compare_vectors(interp, col, self.cfg.epsilon, self.cfg.abs_floor).is_empty() {
            self.stats.uncorrectable += 1;
            outcome.uncorrectable += 1;
            return;
        }
        let repaired = outcome.corrections.len();
        for (y, row) in before.chunks_exact(nx).enumerate() {
            for (x, (&old, &new)) in row.iter().zip(&cells.as_slice()[line(y)]).enumerate() {
                if new.to_bits_u64() != old.to_bits_u64() {
                    outcome
                        .corrections
                        .push(CorrectionEvent { z, x, y, old, new });
                }
            }
        }
        let repaired = outcome.corrections.len() - repaired;
        self.stats.corrections += repaired;
        if repaired == 0 {
            self.stats.checksum_refreshes += 1;
            outcome.checksum_refreshes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{copy_box, Boundary, BoundarySpec, Grid3D};
    use abft_stencil::{Exec, NoHook, Stencil3D};

    fn make_sim() -> StencilSim<f64> {
        let g = Grid3D::from_fn(12, 10, 3, |x, y, z| {
            80.0 + ((x * 7 + y * 13 + z * 3) % 11) as f64 * 0.3
        });
        StencilSim::new(
            g,
            Stencil3D::seven_point(0.4, 0.12, 0.08, 0.1),
            BoundarySpec::clamp(),
        )
        .with_exec(Exec::Serial)
    }

    /// Interior rows `y` of [`make_sim`]'s grid, whole x-lines and layers.
    fn rows(y: std::ops::Range<usize>) -> InteriorWindow {
        InteriorWindow {
            x: 0..12,
            y,
            z: 0..3,
        }
    }

    /// A proper box interior of [`make_sim`]'s grid (partial x-lines).
    fn inner_box() -> InteriorWindow {
        InteriorWindow {
            x: 1..11,
            y: 1..9,
            z: 1..2,
        }
    }

    /// One protected split step (clamped boundaries).
    fn split_step<H: SweepHook<f64>>(
        abft: &mut OnlineAbft<f64>,
        sim: &mut StencilSim<f64>,
        hook: &H,
        window: &InteriorWindow,
    ) -> StepOutcome<f64> {
        let whole = sim.whole();
        abft.sweep_interior(sim, hook, window);
        abft.sweep_shell_and_verify(sim, hook, window, &whole).0
    }

    #[test]
    fn error_free_run_is_clean() {
        let mut sim = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        for _ in 0..20 {
            let out = abft.step(&mut sim, &NoHook);
            assert!(out.is_clean(), "false positive: {out:?}");
        }
        assert_eq!(abft.stats().detections, 0);
        assert_eq!(abft.stats().steps, 20);
    }

    #[test]
    fn protected_equals_unprotected_when_error_free() {
        let mut plain = make_sim();
        let mut protected = make_sim();
        let mut abft = OnlineAbft::new(&protected, AbftConfig::<f64>::paper_defaults());
        for _ in 0..10 {
            plain.step();
            abft.step(&mut protected, &NoHook);
        }
        // Bitwise identical: protection must not perturb the data.
        assert_eq!(plain.current(), protected.current());
    }

    #[test]
    fn detects_and_corrects_injected_point() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());

        // 3 clean steps.
        for _ in 0..3 {
            abft.step(&mut sim, &NoHook);
            reference.step();
        }
        // Inject +50 at (5, 4, 1) during the 4th sweep.
        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (5, 4, 1) {
                v + 50.0
            } else {
                v
            }
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        assert_eq!(out.detections, 1);
        assert_eq!(out.corrections.len(), 1);
        let ev = out.corrections[0];
        assert_eq!((ev.x, ev.y, ev.z), (5, 4, 1));
        assert!((ev.old - ev.new - 50.0).abs() < 1e-9);
        assert_eq!(ev.new, reference.current().at(5, 4, 1));
        // Domain restored to the reference trajectory (exact recovery).
        assert_eq!(sim.current(), reference.current());

        // Subsequent steps stay clean.
        for _ in 0..5 {
            let out = abft.step(&mut sim, &NoHook);
            reference.step();
            assert!(out.is_clean());
        }
        assert_eq!(sim.current(), reference.current());
    }

    #[test]
    fn overlapped_step_matches_barriered_step_bitwise() {
        let mut barriered = make_sim();
        let mut overlapped = make_sim();
        let mut abft_b = OnlineAbft::new(&barriered, AbftConfig::<f64>::paper_defaults());
        let mut abft_o = OnlineAbft::new(&overlapped, AbftConfig::<f64>::paper_defaults());
        for it in 0..12 {
            let out_b = abft_b.step(&mut barriered, &NoHook);
            // Alternate the fused (whole x-lines) and recomputed windows.
            let window = if it % 2 == 0 { rows(1..9) } else { inner_box() };
            let out_o = split_step(&mut abft_o, &mut overlapped, &NoHook, &window);
            assert_eq!(out_b.is_clean(), out_o.is_clean());
        }
        assert_eq!(barriered.current(), overlapped.current());
        assert_eq!(abft_b.col_checksums(), abft_o.col_checksums());
    }

    #[test]
    fn overlapped_step_corrects_injected_point_in_edge_and_interior() {
        for (x, y, z) in [(5, 4, 1), (5, 0, 1), (5, 9, 2)] {
            let mut sim = make_sim();
            let mut reference = make_sim();
            let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
            for _ in 0..3 {
                split_step(&mut abft, &mut sim, &NoHook, &rows(1..9));
                reference.step();
            }
            let hook = move |hx: usize, hy: usize, hz: usize, v: f64| {
                if (hx, hy, hz) == (x, y, z) {
                    v + 50.0
                } else {
                    v
                }
            };
            let out = split_step(&mut abft, &mut sim, &hook, &rows(1..9));
            reference.step();
            assert_eq!(out.detections, 1, "flip at ({x},{y},{z}) missed");
            assert_eq!(out.corrections.len(), 1);
            assert_eq!(sim.current(), reference.current());
        }
    }

    #[test]
    fn small_injection_below_threshold_is_missed() {
        // Mirrors the paper's Fig. 10 finding: corruptions below ε are
        // undetectable by design.
        let mut sim = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (5, 4, 1) {
                v + 1e-13
            } else {
                v
            }
        };
        let out = abft.step(&mut sim, &hook);
        assert!(out.is_clean());
    }

    /// Fig. 5b: the fault strikes this step's computed vector, not the
    /// domain. The entry is struck between the two halves of a fused
    /// split step, after the interior sweep summed its line. Only its
    /// layer is flagged; sweeping it again changes no cell, and the
    /// re-sum passes and is the refresh.
    #[test]
    fn corrupted_checksum_state_is_diagnosed_and_refreshed_fig5b() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        abft.step(&mut sim, &NoHook);
        reference.step();

        let (window, whole) = (rows(1..9), sim.whole());
        abft.sweep_interior(&mut sim, &NoHook, &window);
        abft.col_comp[10 + 4] += 250.0;
        let (out, _) = abft.sweep_shell_and_verify(&mut sim, &NoHook, &window, &whole);
        reference.step();
        assert_eq!(out.detections, 1, "{out:?}");
        assert!(out.corrections.is_empty(), "domain must not be touched");
        assert_eq!((out.checksum_refreshes, out.uncorrectable), (1, 0));
        // The domain never deviated from the reference…
        assert_eq!(sim.current(), reference.current());
        // …and the repaired state raises no follow-up alarms.
        for _ in 0..4 {
            let out = abft.step(&mut sim, &NoHook);
            reference.step();
            assert!(out.is_clean());
        }
        assert_eq!(sim.current(), reference.current());
    }

    /// A strike on the **stored** vector `b(t)`, at rest between two
    /// steps. In 3-D the stored vector of layer 1 feeds the interpolation
    /// of layers 0..=2 (the k-offsets of the 7-point kernel), so all three
    /// flag. Sweeping them again changes nothing and they still deviate:
    /// the protector cannot tell this from a strike on the time-`t` data,
    /// so each is uncorrectable. The grid, swept from sound data, stays
    /// bitwise the reference, and the re-sums become the next `b(t)`.
    #[test]
    fn a_struck_trusted_vector_is_uncorrectable() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        abft.step(&mut sim, &NoHook);
        reference.step();

        abft.col_t[10 + 4] += 250.0;
        let out = abft.step(&mut sim, &NoHook);
        reference.step();
        assert_eq!(out.detections, 3, "{out:?}");
        assert_eq!(out.uncorrectable, 3, "{out:?}");
        assert!(out.corrections.is_empty(), "{out:?}");
        assert_eq!(out.checksum_refreshes, 0, "{out:?}");
        assert_eq!(sim.current(), reference.current());
        for _ in 0..4 {
            let out = abft.step(&mut sim, &NoHook);
            reference.step();
            assert!(out.is_clean());
        }
        assert_eq!(sim.current(), reference.current());
    }

    /// A strike at rest on the time-`t` grid: cell (5, 4, 1) raised after
    /// step 2, by 10 and by 1e-3, under the 27-point kernel. The next sweep
    /// reads the struck cell, so every layer it reaches is flagged; but a
    /// second sweep of the same time-`t` data writes the same values, so
    /// no flagged layer passes. Each is reported uncorrectable, never
    /// adopted as a refresh or "corrected" to the struck trajectory.
    #[test]
    fn a_strike_at_rest_on_the_time_t_grid_is_uncorrectable() {
        for raise in [10.0, 1e-3] {
            let g = make_sim().current().clone();
            let stencil = Stencil3D::twenty_seven_point(0.48, 0.02);
            let mut sim =
                StencilSim::new(g, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial);
            let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
            for _ in 0..2 {
                assert!(abft.step(&mut sim, &NoHook).is_clean());
            }
            let v = sim.current().at(5, 4, 1);
            sim.current_mut().set(5, 4, 1, v + raise);
            let out = abft.step(&mut sim, &NoHook);
            assert!(out.detections > 0, "raise {raise}: {out:?}");
            assert_eq!(out.uncorrectable, out.detections, "raise {raise}: {out:?}");
            assert_eq!(out.checksum_refreshes, 0, "raise {raise}: {out:?}");
            assert!(out.corrections.is_empty(), "raise {raise}: {out:?}");
        }
    }

    /// Two flips in one layer, on different lines: the layer is flagged
    /// once, and sweeping it again repairs both.
    #[test]
    fn two_errors_in_one_layer_are_both_repaired() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| match (x, y, z) {
            (2, 3, 1) => v + 40.0,
            (8, 6, 1) => v - 25.0,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        assert_eq!((out.detections, out.uncorrectable), (1, 0), "{out:?}");
        let at: Vec<_> = out.corrections.iter().map(|c| (c.x, c.y, c.z)).collect();
        assert_eq!(at, [(2, 3, 1), (8, 6, 1)]);
        assert_eq!(sim.current(), reference.current());
        // Next step must be clean again.
        let out = abft.step(&mut sim, &NoHook);
        assert!(out.is_clean());
    }

    /// Two flips of equal size in one layer, on different rows and
    /// columns: each row deviation matches each column deviation, so
    /// pairing them by delta cannot tell the flipped cells from the two
    /// clean crossings. The re-sweep needs no pairing and repairs both.
    #[test]
    fn two_errors_delta_match_corrects_both() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| match (x, y, z) {
            (2, 3, 1) | (8, 6, 1) => v + 40.0,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        assert_eq!(out.corrections.len(), 2, "{out:?}");
        assert_eq!(sim.current(), reference.current());
    }

    /// A 16×16 layer of values near 1 with one hot cell at (4, 11), whose
    /// heat keeps the sums of row x = 4 and column y = 11 near 1e5–1e6 for
    /// the first sweeps, while row 12 and column 2 stay near 16.
    fn hot_spot_sim() -> StencilSim<f64> {
        let g = Grid3D::from_fn(16, 16, 1, |x, y, _| match (x, y) {
            (4, 11) => 1e6,
            _ => 1.0 + ((x * 7 + y * 13) % 11) as f64 * 0.01,
        });
        let stencil = abft_stencil::Stencil2D::jacobi_heat(0.1).into_3d();
        StencilSim::new(g, stencil, BoundarySpec::clamp()).with_exec(Exec::Serial)
    }

    /// Two flips in one layer aligned to fake one, to a locator that uses
    /// both checksum vectors: the flip at (4, 2) hides in the hot row's
    /// sum and shows only in column 2, and the one at (12, 11) hides in
    /// the hot column's sum and shows only in row 12, so Eq. 10 would
    /// locate one error at a clean cell. The column test sees only column
    /// 2, but it flags the layer, and sweeping the layer again repairs
    /// both flips, the one it could not see included.
    #[test]
    fn two_aligned_flips_that_fake_one_are_both_repaired() {
        let mut sim = hot_spot_sim();
        let mut reference = hot_spot_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        for _ in 0..2 {
            let out = abft.step(&mut sim, &NoHook);
            reference.step();
            assert!(out.is_clean(), "{out:?}");
        }
        let hook = |x: usize, y: usize, _: usize, v: f64| match (x, y) {
            (4, 2) => v + 1e-7,
            (12, 11) => v - 1e-7,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        let counts = (out.detections, out.corrections.len(), out.uncorrectable);
        assert_eq!(counts, (1, 2, 0), "{out:?}");
        assert_eq!(abft.stats().corrections, 2);
        assert_eq!(sim.current(), reference.current());
    }
    #[test]
    fn errors_in_different_layers_corrected_independently() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| match (x, y, z) {
            (2, 3, 0) => v + 40.0,
            (8, 6, 2) => v - 25.0,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        assert_eq!(out.detections, 2);
        assert_eq!(out.corrections.len(), 2);
        assert_eq!(sim.current(), reference.current());
    }

    /// Where [`epoch_run`]'s brick sits in the 14×16×3 field, how long it
    /// is, and how deep its pad is below it, per axis.
    fn padded_brick(x_cut: bool, k: usize) -> [[usize; 3]; 3] {
        let b0 = [if x_cut { 4 } else { 0 }, 5, 0];
        let len = [if x_cut { 6 } else { 14 }, 5, 3];
        [b0, len, [if x_cut { k } else { 0 }, k, 0]]
    }

    /// One padded-rank run: a brick of a 14×16×3 field inside its grid
    /// padded `k` reaches deep on the axes the brick is cut on (y for a
    /// slab; x and y otherwise), stepped `3·k` sweeps the way a rank steps
    /// it. Every `k` sweeps an exchange lands the reference run's time-`t`
    /// field in the pad, and sweep `j` of an epoch writes the brick grown
    /// by `k − 1 − j` reaches. `strike` raises one padded cell by 40 as
    /// one sweep writes it. Every clean step's trusted checksums must be
    /// bitwise the brick's. Returns each step's outcome, how often the
    /// strike fired, the final padded grid and the brick's worst error
    /// against the reference run.
    fn epoch_run(
        x_cut: bool,
        k: usize,
        strike: Option<(usize, [usize; 3])>,
    ) -> (Vec<StepOutcome<f64>>, usize, Grid3D<f64>, f64) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.28),
            (-1, 0, 0, 0.16),
            (1, 0, 0, 0.07),
            (0, -1, 0, 0.13),
            (0, 1, 0, 0.06),
            (0, 0, -1, 0.12),
            (0, 0, 1, 0.05),
            (1, 1, 1, 0.05),
            (-1, 0, -1, 0.08),
        ]);
        let [b0, len, lo] = padded_brick(x_cut, k);
        let dims: [usize; 3] = std::array::from_fn(|a| len[a] + 2 * lo[a]);
        // The brick grown by `g` reaches on the cut axes.
        let grown = |g: isize| {
            let [x, y, z] = std::array::from_fn(|a| {
                let g = if lo[a] > 0 { g } else { 0 };
                (lo[a] as isize - g) as usize..((lo[a] + len[a]) as isize + g) as usize
            });
            InteriorWindow { x, y, z }
        };
        let (brick, inner) = (grown(0), grown(-1));
        let field =
            |x: usize, y: usize, z: usize| 80.0 + ((x * 3 + y * 5 + z * 7) % 13) as f64 * 0.6;
        let bounds = BoundarySpec::clamp();
        let mut reference =
            StencilSim::new(Grid3D::from_fn(14, 16, 3, field), stencil.clone(), bounds)
                .with_exec(Exec::Serial);
        let global =
            |p: [usize; 3]| -> [usize; 3] { std::array::from_fn(|a| p[a] + b0[a] - lo[a]) };
        let padded = Grid3D::from_fn(dims[0], dims[1], dims[2], |x, y, z| {
            let [gx, gy, gz] = global([x, y, z]);
            field(gx, gy, gz)
        });
        let mut sim = StencilSim::new(padded, stencil, bounds).with_exec(Exec::Serial);
        let cfg = AbftConfig::<f64>::paper_defaults();
        let mut abft = OnlineAbft::over_windows(&sim, cfg, (0..k).map(|g| grown(g as isize)));
        let hits = AtomicUsize::new(0);
        let mut outcomes = Vec::new();
        for t in 0..3 * k {
            if t % k == 0 {
                for (x, y, z) in (0..dims[2]).flat_map(|z| {
                    (0..dims[1]).flat_map(move |y| (0..dims[0]).map(move |x| (x, y, z)))
                }) {
                    if !(brick.x.contains(&x) && brick.y.contains(&y)) {
                        let [gx, gy, gz] = global([x, y, z]);
                        let v = reference.current().at(gx, gy, gz);
                        sim.current_mut().set(x, y, z, v);
                    }
                }
            }
            let hook = |x: usize, y: usize, z: usize, v: f64| {
                if strike == Some((t, [x, y, z])) {
                    hits.fetch_add(1, Ordering::Relaxed);
                    v + 40.0
                } else {
                    v
                }
            };
            let outer = grown((k - 1 - t % k) as isize);
            abft.sweep_interior(&mut sim, &hook, &inner);
            let (outcome, _) = abft.sweep_shell_and_verify(&mut sim, &hook, &inner, &outer);
            reference.step();
            if outcome.is_clean() {
                let mut expect = vec![0.0; len[2] * len[1]];
                box_col_sums(sim.current(), brick.origin(), brick.dims(), &mut expect);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(abft.col_checksums()),
                    bits(&expect),
                    "step {t}, k = {k}, x cut {x_cut}"
                );
            }
            outcomes.push(outcome);
        }
        let mut err = 0.0f64;
        for (x, y, z) in brick.z.clone().flat_map(|z| {
            let xs = brick.x.clone();
            brick
                .y
                .clone()
                .flat_map(move |y| xs.clone().map(move |x| (x, y, z)))
        }) {
            let [gx, gy, gz] = global([x, y, z]);
            err = err.max((sim.current().at(x, y, z) - reference.current().at(gx, gy, gz)).abs());
        }
        (outcomes, hits.into_inner(), sim.current().clone(), err)
    }

    /// A rank that sweeps `k` steps per exchange verifies every cell each
    /// sweep writes, pad cells included, as one box per window, on slab
    /// and x-cut padded grids at `k ∈ {1, 2, 3}`. Clean runs are bitwise
    /// the reference with zero detections. A flip at every depth of the
    /// window a sweep writes — the brick's face cell, and each pad cell
    /// out to the window's edge, on both sides of each cut axis and at
    /// every sweep offset of an epoch — is one detection and one
    /// correction, and the brick ends bitwise the reference.
    /// A pad cell just beyond the window is never written, so a strike
    /// there never fires and the run stays bitwise clean.
    #[test]
    fn a_window_protector_verifies_every_cell_an_epoch_writes() {
        for x_cut in [false, true] {
            for k in 1..=3 {
                let (outcomes, _, clean, err) = epoch_run(x_cut, k, None);
                assert!(
                    outcomes.iter().all(StepOutcome::is_clean),
                    "k = {k}, x cut {x_cut}"
                );
                assert_eq!(err, 0.0, "a clean run, k = {k}, x cut {x_cut}");
                let [_, len, lo] = padded_brick(x_cut, k);
                let axes = if x_cut { vec![0, 1] } else { vec![1] };
                for j in 0..k {
                    let (t, g) = (k + j, k - 1 - j);
                    for (a, depth, high) in axes
                        .iter()
                        .flat_map(|&a| (0..=g + 1).flat_map(move |d| [(a, d, false), (a, d, true)]))
                    {
                        let mut at = [lo[0] + 2, lo[1] + 2, 1];
                        at[a] = if high {
                            lo[a] + len[a] - 1 + depth
                        } else {
                            lo[a] - depth
                        };
                        let ctx = format!("k = {k}, x cut {x_cut}, sweep {t}, cell {at:?}");
                        let (outcomes, hits, grid, err) = epoch_run(x_cut, k, Some((t, at)));
                        if depth > g {
                            assert_eq!(hits, 0, "beyond the window: {ctx}");
                            assert!(outcomes.iter().all(StepOutcome::is_clean), "{ctx}");
                            assert_eq!(grid, clean, "{ctx}");
                            continue;
                        }
                        assert_eq!(hits, 1, "{ctx}");
                        for (s, out) in outcomes.iter().enumerate() {
                            let struck = usize::from(s == t);
                            assert_eq!(out.detections, struck, "step {s}: {ctx}");
                            assert_eq!(out.corrections.len(), struck, "step {s}: {ctx}");
                        }
                        assert_eq!(err, 0.0, "residual {err:.3e}: {ctx}");
                    }
                }
            }
        }
    }

    /// The global cell a padded cell `p` of one axis stands for, given
    /// the brick's first global cell `b0`, the pad `lo` below it and the
    /// axis length `n`.
    fn unpad(p: usize, b0: usize, lo: usize, n: usize) -> usize {
        (p as isize + b0 as isize - lo as isize).rem_euclid(n as isize) as usize
    }

    /// One case: the box protector of a brick inside its one-reach-deep
    /// padded grid, and a box protector of the same brick inside the
    /// unpadded global field, stepped side by side beside a serial run of
    /// the whole field that supplies the halo (landed in the pad, or set
    /// around the global brick). Sweep 2 adds a corruption at `site`
    /// (brick-local) in both. Every step the two must interpolate
    /// bitwise-equal expected checksums — one reads past its box into the
    /// pad, the other into the global field's cells around the brick —
    /// hold bitwise-equal column checksums, observe the same outcome and
    /// leave the same brick.
    fn box_and_brick_step_alike<T: Real>(three_d: bool, boundary: Boundary<T>, site: [usize; 3]) {
        let w = T::from_f64;
        let (stencil, dims, b0, len) = if three_d {
            let taps = [
                (0, 0, 0, 0.3),
                (-1, 0, 0, 0.14),
                (1, 0, 0, 0.09),
                (0, -1, 0, 0.12),
                (0, 1, 0, 0.07),
                (0, 0, -1, 0.1),
                (0, 0, 1, 0.06),
                (1, 1, 1, 0.05),
                (-1, 0, -1, 0.07),
            ];
            let taps: Vec<_> = taps.iter().map(|&(i, j, k, v)| (i, j, k, w(v))).collect();
            (
                Stencil3D::from_tuples(&taps),
                [12, 11, 8],
                [0, 3, 2],
                [7, 6, 4],
            )
        } else {
            let taps = [
                (0, 0, 0.36),
                (-1, 0, 0.17),
                (1, 0, 0.11),
                (0, -1, 0.14),
                (0, 1, 0.1),
                (1, -1, 0.06),
                (-1, 1, 0.06),
            ];
            let taps: Vec<_> = taps.iter().map(|&(i, j, v)| (i, j, w(v))).collect();
            (
                abft_stencil::Stencil2D::from_tuples(&taps).into_3d(),
                [14, 12, 1],
                [0, 3, 0],
                [7, 6, 1],
            )
        };
        let bounds = BoundarySpec::uniform(boundary);
        // A pad one reach deep on the axes the brick does not span,
        // clipped at a domain end that does not wrap.
        let wraps = matches!(boundary, Boundary::Periodic);
        let pad = |a: usize, room: usize| {
            if len[a] == dims[a] || !(wraps || room > 0) {
                0
            } else {
                1
            }
        };
        let lo: [usize; 3] = std::array::from_fn(|a| pad(a, b0[a]));
        let padded: [usize; 3] =
            std::array::from_fn(|a| lo[a] + len[a] + pad(a, dims[a] - b0[a] - len[a]));
        // The brick at `o` of a grid, and the window a split step sweeps
        // first: the brick shrunk by the reach.
        let brick_at = |o: [usize; 3]| InteriorWindow {
            x: o[0]..o[0] + len[0],
            y: o[1]..o[1] + len[1],
            z: o[2]..o[2] + len[2],
        };
        let inner = |b: &InteriorWindow| InteriorWindow {
            x: b.x.start + 1..b.x.end - 1,
            y: b.y.start + 1..b.y.end - 1,
            z: if three_d {
                b.z.start + 1..b.z.end - 1
            } else {
                0..1
            },
        };
        let (brick, in_field) = (brick_at(lo), brick_at(b0));
        let (window, field_window) = (inner(&brick), inner(&in_field));
        let field =
            |x: usize, y: usize, z: usize| w(40.0 + ((x * 7 + y * 13 + z * 5) % 17) as f64 * 0.6);
        let constant = |x: usize, y: usize, z: usize| w(((x + 2 * y + 3 * z) % 5) as f64 * 0.1);
        let with_constant = |sim: StencilSim<T>, c: Grid3D<T>| {
            if three_d {
                sim.with_constant(c)
            } else {
                sim
            }
        };
        let whole =
            |f: &dyn Fn(usize, usize, usize) -> T| Grid3D::from_fn(dims[0], dims[1], dims[2], f);
        let mut reference = with_constant(
            StencilSim::new(whole(&field), stencil.clone(), bounds),
            whole(&constant),
        )
        .with_exec(Exec::Serial);
        let of_padded = |f: &dyn Fn(usize, usize, usize) -> T| {
            Grid3D::from_fn(padded[0], padded[1], padded[2], |x, y, z| {
                f(
                    unpad(x, b0[0], lo[0], dims[0]),
                    unpad(y, b0[1], lo[1], dims[1]),
                    unpad(z, b0[2], lo[2], dims[2]),
                )
            })
        };
        let mut boxed = with_constant(
            StencilSim::new(of_padded(&field), stencil.clone(), bounds),
            of_padded(&constant),
        )
        .with_exec(Exec::Serial);
        let mut global = with_constant(
            StencilSim::new(whole(&field), stencil.clone(), bounds),
            whole(&constant),
        )
        .with_exec(Exec::Serial);
        let of_brick = |g: &Grid3D<T>| {
            let mut cells = Grid3D::zeros(len[0], len[1], len[2]);
            copy_box(g, b0, &mut cells, [0; 3], len);
            cells
        };
        let cfg = AbftConfig::<T>::paper_defaults();
        let mut abft_box = OnlineAbft::over_box(&boxed, cfg, brick.clone());
        let mut abft_field = OnlineAbft::over_box(&global, cfg, in_field.clone());
        let ctx = format!("3-D {three_d}, {boundary:?}, site {site:?}");
        assert_eq!(
            abft_box.col_checksums(),
            abft_field.col_checksums(),
            "initial state, {ctx}"
        );
        for t in 0..4 {
            // The exchange: the pad holds the field at time t, whose brick
            // is the protected one (corrections included), and so do the
            // global grid's cells around its brick.
            let mut now = reference.current().clone();
            copy_box(boxed.current(), lo, &mut now, b0, len);
            let mut around_brick = now.clone();
            copy_box(global.current(), b0, &mut around_brick, b0, len);
            global.restore(&around_brick, t);
            for (x, y, z) in (0..padded[2]).flat_map(|z| {
                (0..padded[1]).flat_map(move |y| (0..padded[0]).map(move |x| (x, y, z)))
            }) {
                if !(brick.x.contains(&x) && brick.y.contains(&y) && brick.z.contains(&z)) {
                    let g = [
                        unpad(x, b0[0], lo[0], dims[0]),
                        unpad(y, b0[1], lo[1], dims[1]),
                        unpad(z, b0[2], lo[2], dims[2]),
                    ];
                    boxed.current_mut().set(x, y, z, now.at(g[0], g[1], g[2]));
                }
            }
            let strike = move |at: [usize; 3]| {
                move |x: usize, y: usize, z: usize, v: T| {
                    let hit = t == 2 && [x, y, z] == std::array::from_fn(|a| at[a] + site[a]);
                    if hit {
                        v + T::from_f64(40.0)
                    } else {
                        v
                    }
                }
            };
            abft_box.sweep_interior(&mut boxed, &strike(lo), &window);
            let (by_box, _) =
                abft_box.sweep_shell_and_verify(&mut boxed, &strike(lo), &window, &brick);
            let everything = global.whole();
            abft_field.sweep_interior(&mut global, &strike(b0), &field_window);
            let (by_field, _) = abft_field.sweep_shell_and_verify(
                &mut global,
                &strike(b0),
                &field_window,
                &everything,
            );
            reference.step();
            assert_eq!(by_box, by_field, "step {t}, {ctx}");
            assert_eq!(
                by_box.corrections.len(),
                usize::from(t == 2),
                "step {t}, {ctx}"
            );
            let bits = |v: &[T]| v.iter().map(|c| c.to_bits_u64()).collect::<Vec<_>>();
            assert_eq!(
                bits(&abft_box.col_interp),
                bits(&abft_field.col_interp),
                "interpolation, step {t}, {ctx}"
            );
            assert_eq!(
                bits(abft_box.col_checksums()),
                bits(abft_field.col_checksums()),
                "step {t}, {ctx}"
            );
            let mut cells = Grid3D::zeros(len[0], len[1], len[2]);
            copy_box(boxed.current(), lo, &mut cells, [0; 3], len);
            assert_eq!(
                bits(cells.as_slice()),
                bits(of_brick(global.current()).as_slice()),
                "step {t}, {ctx}"
            );
        }
    }

    /// Every brick face, edge and corner (and the centre), f32 and f64,
    /// every boundary kind a distributed run admits, 2-D and 3-D. The
    /// brick's low x face is the domain's, so a read past it resolves
    /// through the boundary in both grids.
    fn box_protector_equals_brick_protector<T: Real>() {
        let boundaries = [
            Boundary::Clamp,
            Boundary::Periodic,
            Boundary::Reflect,
            Boundary::Zero,
            Boundary::Constant(T::from_f64(45.0)),
        ];
        for three_d in [false, true] {
            let len = if three_d { [7, 6, 4] } else { [7, 6, 1] };
            let ends = |a: usize| [0, len[a] / 2, len[a] - 1];
            for boundary in boundaries {
                for z in if three_d { ends(2).to_vec() } else { vec![0] } {
                    for y in ends(1) {
                        for x in ends(0) {
                            box_and_brick_step_alike::<T>(three_d, boundary, [x, y, z]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_box_protector_steps_as_the_brick_protector_bitwise_f32() {
        box_protector_equals_brick_protector::<f32>();
    }

    #[test]
    fn a_box_protector_steps_as_the_brick_protector_bitwise_f64() {
        box_protector_equals_brick_protector::<f64>();
    }
}
