//! The online ABFT protector (§3): verify and correct after every sweep.
//!
//! One path runs on every sweep: fused column checksums → interpolate →
//! detect → build rows for the flagged layers only → correct. Only the
//! column vector is trusted state; rows are materialised from the two
//! live buffers when a mismatch needs them (§3.4).
//!
//! What is protected is a box of the simulation's grid: the whole grid
//! ([`OnlineAbft::new`]), or a rank's brick inside its padded grid
//! ([`OnlineAbft::over_box`]). A box's checksum lines are its slices of
//! the grid's x-lines, and its interpolation reads the cells around it
//! out of the grid's time-`t` buffer.

use crate::checksum::{box_col_into, box_row_layer_into};
use crate::config::{AbftConfig, MultiErrorPolicy};
use crate::correct::{correct_layer, CorrectionEvent};
use crate::detect::{classify_layer, compare_vectors, pair_by_delta, LayerDiagnosis};
use crate::interpolate::Interpolator;
use crate::phantom::StripSet;
use crate::report::ProtectorStats;
use abft_grid::{copy_box, AxisHit, Boundary, BoundarySpec, GhostCells, Grid3D};
use abft_num::Real;
use abft_stencil::{InteriorWindow, StencilSim, SweepHook};
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one protected step observed and did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome<T> {
    /// Iteration the step advanced to (the paper's `t+1`).
    pub iteration: usize,
    /// Layers whose column checksums mismatched.
    pub detections: usize,
    /// Domain points corrected via Eq. 10.
    pub corrections: Vec<CorrectionEvent<T>>,
    /// Layers whose checksum state was refreshed (Fig. 5b scenario).
    pub checksum_refreshes: usize,
    /// Layers the configured policy could not correct.
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
/// comparing (Theorem 2) and correcting single corrupted points in place
/// (Eq. 10).
///
/// Per §3.2 only the column vector `b` is maintained every iteration; the
/// row side is materialised on demand from the still-live time-`t` buffer
/// for the layers whose columns mismatched.
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
    interp: Interpolator<T>,
    /// The simulation's whole grid, and the protected box of it.
    grid: InteriorWindow,
    domain: InteriorWindow,
    nx: usize,
    ny: usize,
    nz: usize,
    /// Trusted column checksums of the current iteration (`b(t)`).
    col_t: Vec<T>,
    // Scratch buffers (allocated once).
    col_comp: Vec<T>,
    col_interp: Vec<T>,
    /// The whole grid's column vector a fused sweep writes, when the box
    /// spans the grid's x-lines but not all of them (empty otherwise); its
    /// block for the box is copied into `col_comp`.
    col_grid: Vec<T>,
    /// Time-`t` rows of the layers a flagged layer's interpolation reads.
    row_t: Vec<T>,
    row_comp: Vec<T>,
    row_interp: Vec<T>,
    stats: ProtectorStats,
}

impl<T: Real> OnlineAbft<T> {
    /// Create a protector for a simulation, computing the initial checksum
    /// state from its current grid ("we assume that the initial data … and
    /// the initial checksum \[are\] correct", Theorem 2 proof).
    pub fn new(sim: &StencilSim<T>, cfg: AbftConfig<T>) -> Self {
        Self::over_box(sim, cfg, sim.whole())
    }

    /// A protector of the `domain` box of `sim`'s grid. On an axis the
    /// box spans, the grid's boundary applies at its ends; on any other
    /// the interpolation reads what lies beyond the box as ghost cells
    /// out of the rest of the grid — resolved through the grid's
    /// boundaries where that is left too. It steps through the split
    /// step ([`OnlineAbft::sweep_interior`], then
    /// [`OnlineAbft::sweep_shell_and_verify`]).
    pub fn over_box(sim: &StencilSim<T>, cfg: AbftConfig<T>, domain: InteriorWindow) -> Self {
        let grid = sim.whole();
        let (nx, ny, nz) = (domain.x.len(), domain.y.len(), domain.z.len());
        let interp = if domain == grid {
            Interpolator::for_sim(sim)
        } else {
            let (d, g, b) = (&domain, &grid, sim.bounds());
            let [x, y, z] = [(b.x, &d.x, &g.x), (b.y, &d.y, &g.y), (b.z, &d.z, &g.z)]
                .map(|(b, d, g)| if d == g { b } else { Boundary::Ghost });
            let constant = sim.constant().map(|c| {
                let mut slice = Grid3D::zeros(nx, ny, nz);
                let from = [d.x.start, d.y.start, d.z.start];
                copy_box(c, from, &mut slice, [0; 3], [nx, ny, nz]);
                slice
            });
            let bounds = BoundarySpec { x, y, z };
            Interpolator::new(sim.stencil(), &bounds, constant.as_ref(), (nx, ny, nz))
        };
        let mut col_t = vec![T::ZERO; nz * ny];
        box_col_into(sim.current(), &domain, &mut col_t);
        let col_grid = if domain != grid && domain.x == grid.x {
            vec![T::ZERO; grid.z.len() * grid.y.len()]
        } else {
            Vec::new()
        };
        Self {
            cfg,
            interp,
            grid,
            domain,
            nx,
            ny,
            nz,
            col_t,
            col_comp: vec![T::ZERO; nz * ny],
            col_interp: vec![T::ZERO; nz * ny],
            col_grid,
            row_t: vec![T::ZERO; nz * nx],
            row_comp: vec![T::ZERO; nz * nx],
            row_interp: vec![T::ZERO; nz * nx],
            stats: ProtectorStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProtectorStats {
        self.stats
    }

    /// Fold an external duplicate-execution guard's events into this
    /// protector's statistics. The distributed deep-halo mode sweeps
    /// ghost-shell cells locally between exchanges; those cells live
    /// outside the brick the checksums span, so their redundant-recompute
    /// guard reports detections/corrections through this hook instead.
    pub fn note_shell_guard(&mut self, detections: usize, corrections: usize) {
        self.stats.detections += detections;
        self.stats.corrections += corrections;
    }

    /// Trusted column checksums of the current iteration.
    pub fn col_checksums(&self) -> &[T] {
        &self.col_t
    }

    /// Corrupt one entry of the **stored** checksum state — the
    /// fault-injection surface for the paper's Fig. 5b scenario ("error
    /// strikes a checksum vector"). The next [`OnlineAbft::step`] must
    /// diagnose this as a checksum corruption (mismatch on one side only)
    /// and repair the state from data without touching the domain.
    pub fn inject_checksum_corruption(&mut self, z: usize, y: usize, delta: T) {
        assert!(z < self.nz && y < self.ny, "checksum index out of range");
        self.col_t[z * self.ny + y] += delta;
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

    /// First half of a protected **split** step: sweep the ghost-free
    /// `window` while the halo exchange is still in flight. When the
    /// window spans the box's x-lines and those are the grid's, the
    /// column checksums ride the sweep (§3.2, Fig. 2).
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
    /// (`outer ⊇` the protected box), finish the step, then verify —
    /// interpolate, compare, correct — the box. Detection/correction
    /// lands before the caller's next halo post; a rank's protector
    /// verifies only its own brick.
    /// The interpolation reads the cells around the box out of the time-`t`
    /// buffer, so they must hold the halo the sweep read.
    ///
    /// A window that does not span the box's x-lines cannot complete
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
        if !fused {
            box_col_into(sim.current(), &self.domain, &mut self.col_comp);
        } else if !self.col_grid.is_empty() {
            let (gny, d) = (self.grid.y.len(), &self.domain);
            let lines = d.z.clone().map(|z| z * gny + d.y.start);
            for (out, line) in self.col_comp.chunks_exact_mut(self.ny).zip(lines) {
                out.copy_from_slice(&self.col_grid[line..line + self.ny]);
            }
        }
        let ghosts = PadGhosts {
            grid: sim.previous(),
            at: self.origin(),
            bounds: sim.bounds(),
        };
        let diagnoses = self.diagnose(sim, &ghosts);
        let outcome = self.repair(sim, diagnoses);
        (outcome, tail.elapsed())
    }

    /// Whether a split step over `window` fuses the column checksums into
    /// its sweeps: only whole x-lines of the grid can be summed in flight.
    fn fuses(&self, window: &InteriorWindow) -> bool {
        window.x == self.domain.x && self.domain.x == self.grid.x
    }

    /// Where a fused sweep writes its column vector.
    fn fused_target(&mut self) -> &mut [T] {
        if self.col_grid.is_empty() {
            &mut self.col_comp
        } else {
            &mut self.col_grid
        }
    }

    /// The grid cell of the box's first cell.
    fn origin(&self) -> [usize; 3] {
        [
            self.domain.x.start,
            self.domain.y.start,
            self.domain.z.start,
        ]
    }

    /// Steps 2–4 of the protected iteration: interpolate the expected
    /// checksums, detect, and diagnose each flagged layer from its rows.
    /// The sweep must already have filled `self.col_comp`.
    fn diagnose(
        &mut self,
        sim: &StencilSim<T>,
        ghosts: &PadGhosts<'_, T>,
    ) -> Vec<(usize, LayerDiagnosis<T>)> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);

        // 2. Interpolate the expected column checksums from time t
        //    (Theorem 1). The previous buffer *is* the time-t grid, so
        //    boundary corrections read it directly.
        let source = StripSet::Box(sim.previous(), self.origin());
        self.interp
            .interpolate_col(&self.col_t, &source, ghosts, &mut self.col_interp);

        // 3. Detect (Theorem 2): compare per layer.
        let mut flagged = Vec::new();
        for z in 0..nz {
            let mms = compare_vectors(
                &self.col_interp[z * ny..(z + 1) * ny],
                &self.col_comp[z * ny..(z + 1) * ny],
                self.cfg.epsilon,
                self.cfg.abs_floor,
            );
            if !mms.is_empty() {
                flagged.push((z, mms));
            }
        }
        if flagged.is_empty() {
            return Vec::new();
        }

        // 4. Materialise the row side (only now — §3.4: "it is only
        //    necessary to perform the detection on one of the two
        //    checksums […] only then interpolate the other"), and only for
        //    the flagged layers: their own rows at t+1, and at time t the
        //    rows of the layers their interpolation reads.
        let mut sources: Vec<usize> = flagged
            .iter()
            .flat_map(|&(z, _)| self.interp.row_source_layers(z))
            .collect();
        sources.sort_unstable();
        sources.dedup();
        for z in sources {
            let layer = &mut self.row_t[z * nx..(z + 1) * nx];
            box_row_layer_into(sim.previous(), &self.domain, z, layer);
        }
        for &(z, _) in &flagged {
            let layer = &mut self.row_comp[z * nx..(z + 1) * nx];
            box_row_layer_into(sim.current(), &self.domain, z, layer);
            let layer = &mut self.row_interp[z * nx..(z + 1) * nx];
            self.interp
                .interpolate_row_layer(z, &self.row_t, &source, ghosts, layer);
        }
        let diagnose = |(z, col_mms)| {
            let row_mms = compare_vectors(
                &self.row_interp[z * nx..(z + 1) * nx],
                &self.row_comp[z * nx..(z + 1) * nx],
                self.cfg.epsilon,
                self.cfg.abs_floor,
            );
            (z, classify_layer(row_mms, col_mms))
        };
        flagged.into_iter().map(diagnose).collect()
    }

    /// Step 5: correct or refresh each diagnosed layer, then commit the
    /// (possibly repaired) computed checksums as the trusted state for the
    /// next iteration.
    fn repair(
        &mut self,
        sim: &mut StencilSim<T>,
        diagnoses: Vec<(usize, LayerDiagnosis<T>)>,
    ) -> StepOutcome<T> {
        self.stats.steps += 1;
        self.stats.verifications += 1;
        let mut outcome = StepOutcome::new(sim.iteration());
        for (z, diag) in diagnoses {
            self.stats.detections += 1;
            outcome.detections += 1;
            self.handle_layer(sim, z, diag, &mut outcome);
        }
        std::mem::swap(&mut self.col_t, &mut self.col_comp);
        outcome
    }

    fn handle_layer(
        &mut self,
        sim: &mut StencilSim<T>,
        z: usize,
        diag: LayerDiagnosis<T>,
        outcome: &mut StepOutcome<T>,
    ) {
        match diag {
            LayerDiagnosis::Clean => {}
            LayerDiagnosis::SingleError { x, y, .. } => self.correct(sim, x, y, z, outcome),
            LayerDiagnosis::ChecksumCorruption { .. } => {
                // Fig. 5b: the domain is consistent, one of the checksum
                // vectors is not — recompute from data and move on.
                self.refresh_layer(sim, z);
                self.stats.checksum_refreshes += 1;
                outcome.checksum_refreshes += 1;
            }
            LayerDiagnosis::MultiError { rows, cols } => {
                let pairs = match self.cfg.policy {
                    MultiErrorPolicy::DeltaMatch => pair_by_delta(&rows, &cols, T::from_f64(0.05)),
                    // Report, and adopt the data as-is so detection state
                    // stays consistent for subsequent iterations.
                    MultiErrorPolicy::Strict => Vec::new(),
                };
                for (r, c) in &pairs {
                    self.correct(sim, r.index, c.index, z, outcome);
                }
                if pairs.len() < rows.len().max(cols.len()) {
                    self.stats.uncorrectable += 1;
                    outcome.uncorrectable += 1;
                    self.refresh_layer(sim, z);
                }
            }
        }
    }

    /// Eq. 10 at `(x, y)` of layer `z` of the box, repairing the computed
    /// vectors too.
    fn correct(
        &mut self,
        sim: &mut StencilSim<T>,
        x: usize,
        y: usize,
        z: usize,
        outcome: &mut StepOutcome<T>,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let [ox, oy, oz] = self.origin();
        let ev = correct_layer(
            &mut sim.current_mut().layer_mut(oz + z),
            &mut self.row_comp[z * nx..(z + 1) * nx],
            &mut self.col_comp[z * ny..(z + 1) * ny],
            &self.row_interp[z * nx..(z + 1) * nx],
            &self.col_interp[z * ny..(z + 1) * ny],
            x,
            y,
            z,
            (ox, oy),
        );
        self.stats.corrections += 1;
        outcome.corrections.push(ev);
    }

    /// Recompute one layer's column checksums directly from the swept data.
    fn refresh_layer(&mut self, sim: &StencilSim<T>, z: usize) {
        let ny = self.ny;
        let oz = self.domain.z.start;
        let layer = InteriorWindow {
            z: oz + z..oz + z + 1,
            ..self.domain.clone()
        };
        box_col_into(
            sim.current(),
            &layer,
            &mut self.col_comp[z * ny..(z + 1) * ny],
        );
    }
}

/// The cells around a protected box as its interpolation's ghost source:
/// a box-local read that a `Ghost` axis sends out of the box lands in the
/// rest of `grid` (the padded time-`t` buffer), and where it leaves the
/// grid too it resolves through the grid's own boundaries — x, then y,
/// then z, the sweep's precedence.
struct PadGhosts<'a, T> {
    grid: &'a Grid3D<T>,
    at: [usize; 3],
    bounds: &'a BoundarySpec<T>,
}

impl<T: Real> PadGhosts<'_, T> {
    /// Box-local `q` resolved in the grid: a cell, or the value a
    /// zero/constant end yields.
    fn resolve(&self, q: [isize; 3]) -> Result<[usize; 3], T> {
        let (b, (nx, ny, nz)) = (self.bounds, self.grid.dims());
        let mut cell = [0; 3];
        for (a, (bound, n)) in [(b.x, nx), (b.y, ny), (b.z, nz)].into_iter().enumerate() {
            match bound.resolve(self.at[a] as isize + q[a], n) {
                AxisHit::In(i) => cell[a] = i,
                AxisHit::Value(v) => return Err(v),
                AxisHit::Ghost(_) => unreachable!("a padded grid has no ghost boundary"),
            }
        }
        Ok(cell)
    }
}

impl<T: Real> GhostCells<T> for PadGhosts<'_, T> {
    fn ghost(&self, x: isize, y: isize, z: isize) -> T {
        self.resolve([x, y, z])
            .map_or_else(|v| v, |[x, y, z]| self.grid.at(x, y, z))
    }

    /// `(y, z)` resolve once (`x` is in range); the line is then a slice
    /// of the grid.
    fn ghost_line(&self, xs: Range<usize>, y: isize, z: isize, out: &mut Vec<T>) {
        match self.resolve([xs.start as isize, y, z]) {
            Err(v) => out.resize(out.len() + xs.len(), v),
            Ok([x, y, z]) => {
                let start = (z * self.grid.ny() + y) * self.grid.nx() + x;
                out.extend_from_slice(&self.grid.as_slice()[start..start + xs.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_stencil::{Exec, NoHook, Stencil3D};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// One protected split step with no ghosts (clamped boundaries).
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
        // Domain restored to the reference trajectory (exact recovery).
        assert!(sim.current().max_abs_diff(reference.current()) < 1e-9);

        // Subsequent steps stay clean.
        for _ in 0..5 {
            let out = abft.step(&mut sim, &NoHook);
            reference.step();
            assert!(out.is_clean());
        }
        assert!(sim.current().max_abs_diff(reference.current()) < 1e-9);
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
            assert!(sim.current().max_abs_diff(reference.current()) < 1e-9);
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

    #[test]
    fn corrupted_checksum_state_is_diagnosed_and_refreshed_fig5b() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        abft.step(&mut sim, &NoHook);
        reference.step();

        // Fig. 5b: the fault strikes a checksum vector, not the domain.
        // In 3-D the stored vector of layer 1 feeds the interpolation of
        // layers 0..=2 (the k-offsets of the 7-point kernel), so all three
        // flag the corruption — and all three diagnose it as
        // checksum-only, leaving the domain untouched.
        abft.inject_checksum_corruption(1, 4, 250.0);
        let out = abft.step(&mut sim, &NoHook);
        reference.step();
        assert_eq!(out.detections, 3);
        assert!(out.corrections.is_empty(), "domain must not be touched");
        assert_eq!(out.checksum_refreshes, 3);
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

    /// The value every counting source serves.
    fn pattern(x: isize, y: isize, z: isize) -> f64 {
        80.0 + (x * 7 + y * 13 + z * 29).rem_euclid(31) as f64 * 0.3
    }

    /// A ghost source that reports `(per-cell reads, bulk reads it
    /// answered itself)` since it was last asked.
    trait Counted: GhostCells<f64> {
        fn take(&self) -> (usize, usize);
    }

    /// Counts its per-cell reads; lines reach it through the trait's
    /// default body, cell by cell.
    #[derive(Default)]
    struct CountingGhost(AtomicUsize);

    impl GhostCells<f64> for CountingGhost {
        fn ghost(&self, x: isize, y: isize, z: isize) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            pattern(x, y, z)
        }
    }

    impl Counted for CountingGhost {
        fn take(&self) -> (usize, usize) {
            (self.0.swap(0, Ordering::Relaxed), 0)
        }
    }

    /// Overrides the bulk read, and counts both kinds of call.
    #[derive(Default)]
    struct LineCountingGhost {
        cells: AtomicUsize,
        lines: AtomicUsize,
    }

    impl GhostCells<f64> for LineCountingGhost {
        fn ghost(&self, x: isize, y: isize, z: isize) -> f64 {
            self.cells.fetch_add(1, Ordering::Relaxed);
            pattern(x, y, z)
        }

        fn ghost_line(&self, xs: std::ops::Range<usize>, y: isize, z: isize, out: &mut Vec<f64>) {
            self.lines.fetch_add(1, Ordering::Relaxed);
            out.extend(xs.map(|x| pattern(x as isize, y, z)));
        }
    }

    impl Counted for LineCountingGhost {
        fn take(&self) -> (usize, usize) {
            (
                self.cells.swap(0, Ordering::Relaxed),
                self.lines.swap(0, Ordering::Relaxed),
            )
        }
    }

    /// `(per-cell, bulk)` ghost reads of one column interpolation on a
    /// 20×6×4 brick.
    fn ghost_read_counts<G: Counted>(
        stencil: &Stencil3D<f64>,
        bounds: BoundarySpec<f64>,
        ghosts: &G,
    ) -> (usize, usize) {
        let (nx, ny, nz) = (20usize, 6usize, 4usize);
        let brick = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            80.0 + ((x * 7 + y * 13 + z * 3) % 11) as f64 * 0.3
        });
        let interp = Interpolator::new(stencil, &bounds, None, (nx, ny, nz));
        let mut col_t = vec![0.0; nz * ny];
        crate::checksum::compute_col_into(&brick, &mut col_t);
        let mut col_next = vec![0.0; nz * ny];
        interp.interpolate_col(&col_t, &StripSet::Grid(&brick), ghosts, &mut col_next);
        ghosts.take()
    }

    fn counted_stencils() -> [Stencil3D<f64>; 2] {
        [
            Stencil3D::seven_point(0.4, 0.12, 0.08, 0.1),
            Stencil3D::twenty_seven_point(0.48, 0.02),
        ]
    }

    /// Ghost reads are what a box protector's interpolation pays to look
    /// past its box, and a count is a gate this host can hold where wall
    /// time is not: on a brick with ghost y-faces the interpolation
    /// fetches each phantom line some tap reaches exactly once. A source
    /// that overrides the bulk read gets one call per such line and is
    /// never read cell by cell.
    #[test]
    fn ghost_reads_are_once_per_line() {
        let (nx, ny, nz) = (20usize, 6isize, 4isize);
        let bounds = BoundarySpec {
            y: Boundary::Ghost,
            ..BoundarySpec::clamp()
        };
        for stencil in counted_stencils() {
            // The out-of-range `(yq, zq)` lines the taps reach.
            let mut phantom = BTreeSet::new();
            for z in 0..nz {
                for y in 0..ny {
                    let out = stencil
                        .taps()
                        .iter()
                        .filter(|t| !(0..ny).contains(&(y + t.dj)));
                    phantom.extend(out.map(|t| (y + t.dj, z + t.dk)));
                }
            }
            let counted = ghost_read_counts(&stencil, bounds, &CountingGhost::default());
            assert_eq!(counted, (nx * phantom.len(), 0));
            let counted = ghost_read_counts(&stencil, bounds, &LineCountingGhost::default());
            assert_eq!(counted, (0, phantom.len()));
        }
    }

    /// The twin on a brick whose **x** axis is the ghost axis: no line
    /// leaves the brick whole, so nothing is fetched in bulk, and what
    /// still arrives cell by cell is one β correction (`|di|` reads) per
    /// source line and distinct `di`, however many taps and outputs share
    /// it — no more than one read per tap leaving the brick in x from the
    /// `2 · extent_x` end cells of each row.
    #[test]
    fn ghost_reads_on_an_x_ghost_brick_are_the_end_taps_only() {
        let (nx, ny, nz) = (20isize, 6usize, 4usize);
        let bounds = BoundarySpec {
            x: Boundary::Ghost,
            ..BoundarySpec::clamp()
        };
        for stencil in counted_stencils() {
            let ex = stencil.extent_x() as isize;
            let leaving_per_row: usize = (0..ex)
                .chain(nx - ex..nx)
                .map(|x| {
                    let leaves = |t: &&abft_stencil::Tap3<f64>| !(0..nx).contains(&(x + t.di));
                    stencil.taps().iter().filter(leaves).count()
                })
                .sum();
            let end_reads = ny * nz * leaving_per_row;
            let mut corrections = BTreeSet::new();
            for z in 0..nz as isize {
                for y in 0..ny as isize {
                    let shifted = stencil.taps().iter().filter(|t| t.di != 0);
                    corrections.extend(shifted.map(|t| (t.di, y + t.dj, z + t.dk)));
                }
            }
            let beta_reads: usize = corrections.iter().map(|c| c.0.unsigned_abs()).sum();
            assert!(
                beta_reads <= end_reads,
                "{beta_reads} vs one per tap {end_reads}"
            );
            let counted = ghost_read_counts(&stencil, bounds, &LineCountingGhost::default());
            assert_eq!(counted, (beta_reads, 0));
        }
    }

    #[test]
    fn shell_guard_events_fold_into_stats() {
        let sim = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        abft.note_shell_guard(2, 1);
        assert_eq!(abft.stats().detections, 2);
        assert_eq!(abft.stats().corrections, 1);
    }

    #[test]
    fn two_errors_in_one_layer_strict_reports_uncorrectable() {
        let mut sim = make_sim();
        let mut abft = OnlineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        let hook = |x: usize, y: usize, z: usize, v: f64| match (x, y, z) {
            (2, 3, 1) => v + 40.0,
            (8, 6, 1) => v - 25.0,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        assert_eq!(out.detections, 1);
        assert_eq!(out.uncorrectable, 1);
        assert!(out.corrections.is_empty());
        // Next step must be clean again (state refreshed from data).
        let out = abft.step(&mut sim, &NoHook);
        assert!(out.is_clean());
    }

    #[test]
    fn two_errors_delta_match_corrects_both() {
        let mut sim = make_sim();
        let mut reference = make_sim();
        let cfg = AbftConfig::<f64>::paper_defaults().with_policy(MultiErrorPolicy::DeltaMatch);
        let mut abft = OnlineAbft::new(&sim, cfg);
        let hook = |x: usize, y: usize, z: usize, v: f64| match (x, y, z) {
            (2, 3, 1) => v + 40.0,
            (8, 6, 1) => v - 25.0,
            _ => v,
        };
        let out = abft.step(&mut sim, &hook);
        reference.step();
        assert_eq!(out.corrections.len(), 2);
        assert!(sim.current().max_abs_diff(reference.current()) < 1e-8);
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
        assert!(sim.current().max_abs_diff(reference.current()) < 1e-8);
    }

    /// A brick-local ghost source over a whole time-`t` field: each read
    /// shifted by the brick's offset and resolved, x → y → z, through the
    /// field's own boundaries, one cell at a time.
    struct Around<'a, T> {
        field: &'a Grid3D<T>,
        at: [usize; 3],
        bounds: BoundarySpec<T>,
    }

    impl<T: Real> GhostCells<T> for Around<'_, T> {
        fn ghost(&self, x: isize, y: isize, z: isize) -> T {
            let (nx, ny, nz) = self.field.dims();
            let b = [self.bounds.x, self.bounds.y, self.bounds.z];
            let mut cell = [0; 3];
            for (a, (q, n)) in [(x, nx), (y, ny), (z, nz)].into_iter().enumerate() {
                match b[a].resolve(q + self.at[a] as isize, n) {
                    AxisHit::In(i) => cell[a] = i,
                    AxisHit::Value(v) => return v,
                    AxisHit::Ghost(_) => unreachable!("the field's boundaries are its own"),
                }
            }
            self.field.at(cell[0], cell[1], cell[2])
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
    /// (brick-local) in both. Every step the two must hold bitwise-equal
    /// column checksums, observe the same outcome and leave the same
    /// brick, and the padded one's expected checksums must be bitwise the
    /// brick-shaped interpolation with ghost axes, served through
    /// [`Around`].
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
        // The brick-shaped interpolation: ghost axes where the brick is
        // cut, its time-`t` cells as a grid of their own.
        let ghost = |a: usize| {
            if len[a] == dims[a] {
                boundary
            } else {
                Boundary::Ghost
            }
        };
        let brick_bounds = BoundarySpec {
            x: ghost(0),
            y: ghost(1),
            z: ghost(2),
        };
        let of_brick = |g: &Grid3D<T>| {
            let mut cells = Grid3D::zeros(len[0], len[1], len[2]);
            copy_box(g, b0, &mut cells, [0; 3], len);
            cells
        };
        let brick_constant = three_d.then(|| of_brick(&whole(&constant)));
        let shape = (len[0], len[1], len[2]);
        let shaped = Interpolator::new(&stencil, &brick_bounds, brick_constant.as_ref(), shape);
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
            let col_t = abft_box.col_checksums().to_vec();
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
            let around = Around {
                field: &now,
                at: b0,
                bounds,
            };
            let mut expect = vec![T::ZERO; col_t.len()];
            let brick_t = of_brick(&now);
            shaped.interpolate_col(&col_t, &StripSet::Grid(&brick_t), &around, &mut expect);
            assert_eq!(
                bits(&abft_box.col_interp),
                bits(&expect),
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
    /// clamp and periodic, 2-D and 3-D.
    fn box_protector_equals_brick_protector<T: Real>() {
        for three_d in [false, true] {
            let len = if three_d { [7, 6, 4] } else { [7, 6, 1] };
            let ends = |a: usize| [0, len[a] / 2, len[a] - 1];
            for boundary in [Boundary::Clamp, Boundary::Periodic] {
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
