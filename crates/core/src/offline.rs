//! The offline ABFT protector (§4): verify every Δ iterations (or at the
//! end of the run), recover by checkpoint rollback and recomputation.

use crate::checksum::compute_col_into;
use crate::config::AbftConfig;
use crate::detect::compare_vectors;
use crate::interpolate::Interpolator;
use crate::phantom::{capture_all_layers, StripSet};
use crate::report::ProtectorStats;
use abft_checkpoint::CheckpointStore;
use abft_grid::{BoundaryStrips, NoGhosts};
use abft_num::Real;
use abft_stencil::{NoHook, StencilSim, SweepHook};

/// What one offline-protected step observed and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineOutcome {
    /// Iteration the step advanced to.
    pub iteration: usize,
    /// Whether a verification ran at this step (every Δ-th step).
    pub verified: bool,
    /// Whether the verification detected a mismatch.
    pub detected: bool,
    /// Rollbacks performed at this step.
    pub rollbacks: usize,
    /// Sweeps re-executed during recovery at this step.
    pub recomputed_steps: usize,
}

impl OfflineOutcome {
    fn advanced(iteration: usize) -> Self {
        Self {
            iteration,
            verified: false,
            detected: false,
            rollbacks: 0,
            recomputed_steps: 0,
        }
    }
}

/// Offline ABFT protector: the sweeps still fuse the column-checksum
/// accumulation (Fig. 2), but interpolation/comparison run only every `Δ`
/// iterations. Verification rolls the checkpointed checksum vectors
/// forward `Δ` steps through the 1-D interpolation kernel (Fig. 7) and
/// compares them against the checksums of the live data; a mismatch
/// triggers rollback to the last verified checkpoint and recomputation
/// (§4.2). The offline scheme detects but does not locate-and-correct:
/// recovery is by re-execution, which "fully erases" transient errors
/// (Fig. 10c).
#[derive(Debug, Clone)]
pub struct OfflineAbft<T> {
    cfg: AbftConfig<T>,
    interp: Interpolator<T>,
    ny: usize,
    nz: usize,
    /// Column checksums at the last verified checkpoint (`b(t0)`).
    col_ref: Vec<T>,
    /// Fused column checksums of the latest sweep.
    col_comp: Vec<T>,
    // Rollforward scratch.
    col_roll: Vec<T>,
    col_roll2: Vec<T>,
    /// Per-iteration boundary strips since the checkpoint (empty on the
    /// zero-correction fast path).
    strips_history: Vec<Vec<BoundaryStrips<T>>>,
    store: CheckpointStore<T>,
    /// Iterations since the last verification.
    pending: usize,
    stats: ProtectorStats,
}

impl<T: Real> OfflineAbft<T> {
    /// Create a protector, checkpointing the simulation's current state as
    /// the initial trusted snapshot.
    pub fn new(sim: &StencilSim<T>, cfg: AbftConfig<T>) -> Self {
        let (_, ny, nz) = sim.dims();
        let interp = Interpolator::for_box(sim, &sim.whole());
        let mut col_ref = vec![T::ZERO; nz * ny];
        compute_col_into(sim.current(), &mut col_ref);
        let mut store = CheckpointStore::new();
        store.store(sim.current(), &col_ref, sim.iteration());
        Self {
            cfg,
            interp,
            ny,
            nz,
            col_comp: vec![T::ZERO; nz * ny],
            col_roll: vec![T::ZERO; nz * ny],
            col_roll2: vec![T::ZERO; nz * ny],
            col_ref,
            strips_history: Vec::new(),
            store,
            pending: 0,
            stats: ProtectorStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProtectorStats {
        self.stats
    }

    /// Checkpoint memory footprint in bytes.
    pub fn checkpoint_bytes(&self) -> usize {
        self.store.bytes()
    }

    fn needs_strips(&self) -> bool {
        self.interp.col_strip_width() > 0
    }

    fn record_strips(&mut self, sim: &StencilSim<T>) {
        if self.needs_strips() {
            let w = self.interp.col_strip_width();
            self.strips_history
                .push(capture_all_layers(sim.current(), w, 0));
        }
    }

    /// Advance the simulation one iteration; verifies when the detection
    /// period Δ has elapsed.
    pub fn step<H: SweepHook<T>>(&mut self, sim: &mut StencilSim<T>, hook: &H) -> OfflineOutcome {
        self.record_strips(sim);
        sim.step_with_col(hook, &mut self.col_comp);
        self.pending += 1;
        self.stats.steps += 1;
        if self.pending >= self.cfg.period {
            self.verify(sim)
        } else {
            OfflineOutcome::advanced(sim.iteration())
        }
    }

    /// Force a verification now regardless of the period — the paper's
    /// "after the application completes" mode. No-op if nothing is pending.
    pub fn finalize(&mut self, sim: &mut StencilSim<T>) -> OfflineOutcome {
        if self.pending == 0 {
            OfflineOutcome::advanced(sim.iteration())
        } else {
            self.verify(sim)
        }
    }

    /// ε scaled for a Δ-step rollforward (§4.1: approximation errors "may
    /// add up to a significant amount, depending on the value of Δ").
    fn effective_epsilon(&self) -> T {
        self.cfg.epsilon * T::from_f64((self.pending.max(1) as f64).sqrt())
    }

    fn verify(&mut self, sim: &mut StencilSim<T>) -> OfflineOutcome {
        self.stats.verifications += 1;
        let mut out = OfflineOutcome {
            iteration: sim.iteration(),
            verified: true,
            detected: false,
            rollbacks: 0,
            recomputed_steps: 0,
        };

        let mut attempts = 0;
        loop {
            if self.rollforward_matches() {
                // Commit: checkpoint the verified state (§4.2).
                self.store
                    .store(sim.current(), &self.col_comp, sim.iteration());
                std::mem::swap(&mut self.col_ref, &mut self.col_comp);
                self.strips_history.clear();
                self.pending = 0;
                return out;
            }

            out.detected = true;
            self.stats.detections += 1;

            if attempts >= self.cfg.max_rollback_retries {
                // Persistent mismatch: give up, adopt the live state so
                // the run can proceed, and report it.
                self.stats.uncorrectable += 1;
                compute_col_into(sim.current(), &mut self.col_comp);
                self.store
                    .store(sim.current(), &self.col_comp, sim.iteration());
                std::mem::swap(&mut self.col_ref, &mut self.col_comp);
                self.strips_history.clear();
                self.pending = 0;
                return out;
            }
            attempts += 1;

            // Rollback to the last verified checkpoint…
            let steps_to_redo;
            {
                let snap = self.store.restore();
                sim.restore(&snap.grid, snap.iteration);
                self.col_ref.copy_from_slice(&snap.aux);
                steps_to_redo = self.pending;
            }
            self.stats.rollbacks += 1;
            out.rollbacks += 1;
            self.strips_history.clear();
            self.pending = 0;

            // …and recompute. Transient faults do not re-occur, so the
            // recomputation runs unhooked.
            for _ in 0..steps_to_redo {
                self.record_strips(sim);
                sim.step_with_col(&NoHook, &mut self.col_comp);
                self.pending += 1;
            }
            self.stats.recomputed_steps += steps_to_redo;
            out.recomputed_steps += steps_to_redo;
            // Loop re-verifies the recomputed window.
        }
    }

    /// Roll `col_ref` forward `pending` steps (Fig. 7) and compare against
    /// the live fused checksums.
    fn rollforward_matches(&mut self) -> bool {
        self.col_roll.copy_from_slice(&self.col_ref);
        for s in 0..self.pending {
            let source = if self.needs_strips() {
                StripSet::Strips(&self.strips_history[s])
            } else {
                StripSet::None
            };
            self.interp
                .interpolate_col(&self.col_roll, &source, &NoGhosts, &mut self.col_roll2);
            std::mem::swap(&mut self.col_roll, &mut self.col_roll2);
        }
        let eps = self.effective_epsilon();
        for z in 0..self.nz {
            let mms = compare_vectors(
                &self.col_roll[z * self.ny..(z + 1) * self.ny],
                &self.col_comp[z * self.ny..(z + 1) * self.ny],
                eps,
                self.cfg.abs_floor,
            );
            if !mms.is_empty() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_grid::{Boundary, BoundarySpec, Grid3D};
    use abft_stencil::{Exec, Stencil3D};

    fn make_sim(bounds: BoundarySpec<f64>) -> StencilSim<f64> {
        let g = Grid3D::from_fn(10, 9, 3, |x, y, z| {
            80.0 + ((x * 5 + y * 11 + z * 7) % 13) as f64 * 0.4
        });
        StencilSim::new(g, Stencil3D::seven_point(0.4, 0.12, 0.08, 0.1), bounds)
            .with_exec(Exec::Serial)
    }

    #[test]
    fn error_free_run_verifies_cleanly() {
        let mut sim = make_sim(BoundarySpec::clamp());
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(4);
        let mut abft = OfflineAbft::new(&sim, cfg);
        for i in 1..=12 {
            let out = abft.step(&mut sim, &NoHook);
            assert_eq!(out.verified, i % 4 == 0);
            assert!(!out.detected, "false positive at iteration {i}");
        }
        assert_eq!(abft.stats().verifications, 3);
        assert_eq!(abft.stats().rollbacks, 0);
    }

    #[test]
    fn error_free_matches_unprotected() {
        let mut plain = make_sim(BoundarySpec::clamp());
        let mut protected = make_sim(BoundarySpec::clamp());
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(5);
        let mut abft = OfflineAbft::new(&protected, cfg);
        for _ in 0..13 {
            plain.step();
            abft.step(&mut protected, &NoHook);
        }
        assert_eq!(plain.current(), protected.current());
    }

    #[test]
    fn injected_error_triggers_rollback_and_is_erased() {
        let mut reference = make_sim(BoundarySpec::clamp());
        let mut sim = make_sim(BoundarySpec::clamp());
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(4);
        let mut abft = OfflineAbft::new(&sim, cfg);

        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (4, 4, 1) {
                v + 30.0
            } else {
                v
            }
        };

        let mut total_rollbacks = 0;
        for i in 0..12 {
            // Inject during iteration 6 (inside the second window).
            let out = if i == 6 {
                abft.step(&mut sim, &hook)
            } else {
                abft.step(&mut sim, &NoHook)
            };
            reference.step();
            total_rollbacks += out.rollbacks;
        }
        assert_eq!(total_rollbacks, 1);
        assert_eq!(abft.stats().recomputed_steps, 4);
        // Recomputation fully erases the transient error (Fig. 10c).
        assert!(sim.current().max_abs_diff(reference.current()) < 1e-12);
        assert_eq!(sim.iteration(), 12);
    }

    #[test]
    fn finalize_verifies_partial_window() {
        let mut sim = make_sim(BoundarySpec::clamp());
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(100);
        let mut abft = OfflineAbft::new(&sim, cfg);
        let hook = |x: usize, y: usize, z: usize, v: f64| {
            if (x, y, z) == (3, 3, 0) {
                v - 12.0
            } else {
                v
            }
        };
        for i in 0..7 {
            let out = if i == 2 {
                abft.step(&mut sim, &hook)
            } else {
                abft.step(&mut sim, &NoHook)
            };
            assert!(!out.verified);
        }
        let out = abft.finalize(&mut sim);
        assert!(out.verified);
        assert!(out.detected);
        assert_eq!(out.recomputed_steps, 7);
        // A second finalize with nothing pending is a no-op.
        let out = abft.finalize(&mut sim);
        assert!(!out.verified);
    }

    #[test]
    fn general_boundaries_use_strip_history() {
        // Zero boundaries force the correction path with per-iteration
        // strips; the run must still verify cleanly without faults.
        let mut sim = make_sim(BoundarySpec::uniform(Boundary::Zero));
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(3);
        let mut abft = OfflineAbft::new(&sim, cfg);
        assert!(abft.needs_strips());
        for _ in 0..9 {
            let out = abft.step(&mut sim, &NoHook);
            assert!(!out.detected);
        }
        assert_eq!(abft.stats().verifications, 3);
    }

    #[test]
    fn checkpoint_accounting() {
        let sim = make_sim(BoundarySpec::clamp());
        let abft = OfflineAbft::new(&sim, AbftConfig::<f64>::paper_defaults());
        // grid 10*9*3 f64 + checksums 3*9 f64
        assert_eq!(abft.checkpoint_bytes(), (270 + 27) * 8);
    }
}
