//! The online ABFT protector (§3): verify and correct after every sweep.
//!
//! One path runs on every sweep: fused column checksums → interpolate →
//! detect → build rows for the flagged layers only → correct. Only the
//! column vector is trusted state; rows are materialised from the two
//! live buffers when a mismatch needs them (§3.4).

use crate::checksum::{compute_col_into, compute_col_layer_into, compute_row_layer_into};
use crate::config::{AbftConfig, MultiErrorPolicy};
use crate::correct::{correct_layer, CorrectionEvent};
use crate::detect::{classify_layer, compare_vectors, pair_by_delta, LayerDiagnosis};
use crate::interpolate::Interpolator;
use crate::phantom::StripSet;
use crate::report::ProtectorStats;
use abft_grid::{GhostCells, NoGhosts};
use abft_num::Real;
use abft_stencil::{ChecksumMode, InteriorWindow, StencilSim, SweepHook};
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
    nx: usize,
    ny: usize,
    nz: usize,
    /// Trusted column checksums of the current iteration (`b(t)`).
    col_t: Vec<T>,
    // Scratch buffers (allocated once).
    col_comp: Vec<T>,
    col_interp: Vec<T>,
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
        let (nx, ny, nz) = sim.dims();
        let mut col_t = vec![T::ZERO; nz * ny];
        compute_col_into(sim.current(), &mut col_t);
        Self {
            cfg,
            interp: Interpolator::for_sim(sim),
            nx,
            ny,
            nz,
            col_t,
            col_comp: vec![T::ZERO; nz * ny],
            col_interp: vec![T::ZERO; nz * ny],
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
    /// protector's statistics. The distributed deep-halo mode advances
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

    /// Advance the simulation one protected iteration.
    pub fn step<H: SweepHook<T>>(&mut self, sim: &mut StencilSim<T>, hook: &H) -> StepOutcome<T> {
        self.step_with_ghosts(sim, hook, &NoGhosts)
    }

    /// Advance one protected iteration with ghost-cell boundaries (used by
    /// the distributed chunks: `ghosts` must present the **time-`t`** halo,
    /// i.e. the same values the sweep reads).
    pub fn step_with_ghosts<H: SweepHook<T>, G: GhostCells<T>>(
        &mut self,
        sim: &mut StencilSim<T>,
        hook: &H,
        ghosts: &G,
    ) -> StepOutcome<T> {
        debug_assert_eq!(
            sim.dims(),
            (self.nx, self.ny, self.nz),
            "simulation/protector shape"
        );
        // 1. Sweep with fused checksum accumulation (§3.2, Fig. 2).
        let col = &mut self.col_comp;
        sim.step_full(hook, ghosts, ChecksumMode::Col { col });
        self.verify_after_sweep(sim, ghosts)
    }

    /// First half of a protected **split** step: sweep the ghost-free
    /// `window` while the halo exchange is still in flight. When the
    /// window spans whole x-lines the column checksums ride the sweep
    /// (§3.2, Fig. 2).
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
        debug_assert_eq!(
            sim.dims(),
            (self.nx, self.ny, self.nz),
            "simulation/protector shape"
        );
        let col = self.fuses(window).then_some(&mut self.col_comp[..]);
        sim.sweep_interior(hook, window, col);
    }

    /// Second half of a protected split step: sweep the shell around
    /// `window` against `ghosts` (which must present the **time-`t`** halo,
    /// i.e. the same values the sweep reads), finish the step, then verify
    /// — interpolate, compare, correct. Detection/correction lands before
    /// the caller's next halo post, exactly as in the whole-step forms;
    /// each rank verifies only the z-layers of its own brick (the
    /// protector's shape *is* the brick).
    ///
    /// A window that does not span whole x-lines cannot complete every
    /// column checksum line, so the vectors are recomputed from the
    /// finished step — the same `f64` line reduction the fused sweep
    /// performs, hence bitwise-identical.
    ///
    /// Returns the outcome and the time the verify tail took (the rest of
    /// the call is the edge sweep).
    pub fn sweep_shell_and_verify<H: SweepHook<T>, G: GhostCells<T>>(
        &mut self,
        sim: &mut StencilSim<T>,
        hook: &H,
        ghosts: &G,
        window: &InteriorWindow,
    ) -> (StepOutcome<T>, Duration) {
        let fused = self.fuses(window);
        let col = fused.then_some(&mut self.col_comp[..]);
        sim.sweep_shell_and_finish(hook, ghosts, window, col);
        let tail = Instant::now();
        if !fused {
            compute_col_into(sim.current(), &mut self.col_comp);
        }
        let outcome = self.verify_after_sweep(sim, ghosts);
        (outcome, tail.elapsed())
    }

    /// Whether a split step over `window` fuses the column checksums into
    /// its sweeps: only whole x-lines can be summed in flight.
    fn fuses(&self, window: &InteriorWindow) -> bool {
        window.x == (0..self.nx)
    }

    /// Steps 2–5 of the protected iteration: interpolate the expected
    /// checksums, detect, correct/refresh, and commit the trusted state.
    /// The sweep must already have filled `self.col_comp`.
    fn verify_after_sweep<G: GhostCells<T>>(
        &mut self,
        sim: &mut StencilSim<T>,
        ghosts: &G,
    ) -> StepOutcome<T> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        self.stats.steps += 1;
        self.stats.verifications += 1;
        let mut outcome = StepOutcome::new(sim.iteration());

        // 2. Interpolate the expected column checksums from time t
        //    (Theorem 1). The previous buffer *is* the time-t grid, so
        //    boundary corrections read it directly.
        let source = StripSet::Grid(sim.previous());
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

        if !flagged.is_empty() {
            // 4. Materialise the row side (only now — §3.4: "it is only
            //    necessary to perform the detection on one of the two
            //    checksums […] only then interpolate the other"), and only
            //    for the flagged layers: their own rows at t+1, and at time
            //    t the rows of the layers their interpolation reads.
            let mut sources: Vec<usize> = flagged
                .iter()
                .flat_map(|&(z, _)| self.interp.row_source_layers(z))
                .collect();
            sources.sort_unstable();
            sources.dedup();
            for z in sources {
                compute_row_layer_into(sim.previous(), z, &mut self.row_t[z * nx..(z + 1) * nx]);
            }
            for &(z, _) in &flagged {
                let layer = &mut self.row_comp[z * nx..(z + 1) * nx];
                compute_row_layer_into(sim.current(), z, layer);
                let layer = &mut self.row_interp[z * nx..(z + 1) * nx];
                self.interp
                    .interpolate_row_layer(z, &self.row_t, &source, ghosts, layer);
            }

            for (z, col_mms) in flagged {
                self.stats.detections += 1;
                outcome.detections += 1;
                let row_mms = compare_vectors(
                    &self.row_interp[z * nx..(z + 1) * nx],
                    &self.row_comp[z * nx..(z + 1) * nx],
                    self.cfg.epsilon,
                    self.cfg.abs_floor,
                );
                let diag = classify_layer(row_mms, col_mms);
                self.handle_layer(sim, z, diag, &mut outcome);
            }
        }

        // 5. Commit: the (possibly repaired) computed checksums become the
        //    trusted state for the next iteration.
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

    /// Eq. 10 at `(x, y)` of layer `z`, repairing the computed vectors too.
    fn correct(
        &mut self,
        sim: &mut StencilSim<T>,
        x: usize,
        y: usize,
        z: usize,
        outcome: &mut StepOutcome<T>,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let ev = correct_layer(
            &mut sim.current_mut().layer_mut(z),
            &mut self.row_comp[z * nx..(z + 1) * nx],
            &mut self.col_comp[z * ny..(z + 1) * ny],
            &self.row_interp[z * nx..(z + 1) * nx],
            &self.col_interp[z * ny..(z + 1) * ny],
            x,
            y,
            z,
        );
        self.stats.corrections += 1;
        outcome.corrections.push(ev);
    }

    /// Recompute one layer's column checksums directly from the swept data.
    fn refresh_layer(&mut self, sim: &StencilSim<T>, z: usize) {
        let ny = self.ny;
        compute_col_layer_into(sim.current(), z, &mut self.col_comp[z * ny..(z + 1) * ny]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{Boundary, BoundarySpec, Grid3D};
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
        abft.sweep_interior(sim, hook, window);
        abft.sweep_shell_and_verify(sim, hook, &NoGhosts, window).0
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

    /// `(per-cell, bulk)` ghost reads of one column interpolation, one
    /// plain sweep and one protected step on a 20×6×4 brick — after
    /// checking that protection changed no cell and raised nothing.
    fn ghost_read_counts<G: Counted>(
        stencil: &Stencil3D<f64>,
        bounds: BoundarySpec<f64>,
        ghosts: &G,
    ) -> [(usize, usize); 3] {
        let (nx, ny, nz) = (20usize, 6usize, 4usize);
        let initial = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            80.0 + ((x * 7 + y * 13 + z * 3) % 11) as f64 * 0.3
        });
        let mut plain = StencilSim::new(initial, stencil.clone(), bounds).with_exec(Exec::Serial);
        let mut protected = plain.clone();
        let mut abft = OnlineAbft::new(&protected, AbftConfig::<f64>::paper_defaults());

        let col_t = abft.col_checksums().to_vec();
        let mut col_next = vec![0.0; nz * ny];
        let source = StripSet::Grid(protected.current());
        abft.interp
            .interpolate_col(&col_t, &source, ghosts, &mut col_next);
        let interpolation = ghosts.take();

        plain.step_full(&NoHook, ghosts, abft_stencil::ChecksumMode::None);
        let sweep = ghosts.take();

        let outcome = abft.step_with_ghosts(&mut protected, &NoHook, ghosts);
        assert!(outcome.is_clean(), "false positive: {outcome:?}");
        assert_eq!(plain.current(), protected.current());
        [interpolation, sweep, ghosts.take()]
    }

    fn counted_stencils() -> [Stencil3D<f64>; 2] {
        [
            Stencil3D::seven_point(0.4, 0.12, 0.08, 0.1),
            Stencil3D::twenty_seven_point(0.48, 0.02),
        ]
    }

    /// Ghost reads are the cost the distributed edge phase is made of, and
    /// a count is a gate this host can hold where wall time is not: on a
    /// brick with ghost y-faces the interpolation fetches each phantom
    /// line some tap reaches exactly once, the sweep fetches each ghost
    /// line a row needs once — its x-end cells read the fetched line too —
    /// and protection adds the former to the latter and nothing more. A
    /// source that overrides the bulk read gets one call per such line and
    /// is never read cell by cell.
    #[test]
    fn ghost_reads_are_once_per_line() {
        let (nx, ny, nz) = (20usize, 6isize, 4isize);
        let bounds = BoundarySpec {
            y: Boundary::Ghost,
            ..BoundarySpec::clamp()
        };
        for stencil in counted_stencils() {
            // The out-of-range `(yq, zq)` lines the taps reach, over the
            // brick and per output row.
            let mut phantom = BTreeSet::new();
            let mut row_lines = 0;
            for z in 0..nz {
                for y in 0..ny {
                    let of_row: BTreeSet<_> = stencil
                        .taps()
                        .iter()
                        .filter(|t| !(0..ny).contains(&(y + t.dj)))
                        .map(|t| (y + t.dj, z + t.dk))
                        .collect();
                    row_lines += of_row.len();
                    phantom.extend(of_row);
                }
            }
            let interpolation_reads = nx * phantom.len();
            let sweep_reads = nx * row_lines;

            let [interpolation, sweep, protected] =
                ghost_read_counts(&stencil, bounds, &CountingGhost::default());
            assert_eq!(interpolation, (interpolation_reads, 0));
            assert_eq!(sweep, (sweep_reads, 0));
            assert_eq!(protected, (sweep_reads + interpolation_reads, 0));

            let [interpolation, sweep, protected] =
                ghost_read_counts(&stencil, bounds, &LineCountingGhost::default());
            assert_eq!(interpolation, (0, phantom.len()));
            assert_eq!(sweep, (0, row_lines));
            assert_eq!(protected, (0, row_lines + phantom.len()));
        }
    }

    /// The twin on a brick whose **x** axis is the ghost axis: no line
    /// leaves the brick whole, so nothing is fetched in bulk, and what
    /// still arrives cell by cell is exactly the taps that leave the brick
    /// in x — from the `2 · extent_x` end cells of each row in the sweep,
    /// and in the interpolation one β correction (`|di|` reads) per source
    /// line and distinct `di`, however many taps and outputs share it.
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
            let [interpolation, sweep, protected] =
                ghost_read_counts(&stencil, bounds, &LineCountingGhost::default());
            assert_eq!(interpolation, (beta_reads, 0));
            assert_eq!(sweep, (end_reads, 0));
            assert_eq!(protected, (end_reads + beta_reads, 0));
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
}
