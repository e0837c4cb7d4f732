//! The campaign driver: repeated protected/unprotected runs with optional
//! fault injection, timed and scored against an error-free reference.

use crate::{BitFlip, Fault, FlipHook};
use abft_core::{AbftConfig, OfflineAbft, OnlineAbft, ProtectorStats};
use abft_grid::Grid3D;
use abft_metrics::{l2_error, Timer};
use abft_num::Real;
use abft_stencil::{Exec, NoHook, StencilSim};

/// The three methods compared throughout the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The unprotected application.
    NoAbft,
    /// Online ABFT (§3): verify and correct every iteration.
    Online,
    /// Offline ABFT (§4): verify every Δ iterations, checkpoint/rollback.
    Offline,
}

impl Method {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoAbft => "No ABFT",
            Method::Online => "ABFT (Online)",
            Method::Offline => "ABFT (Offline)",
        }
    }

    /// All three methods in the paper's presentation order.
    pub fn all() -> [Method; 3] {
        [Method::NoAbft, Method::Online, Method::Offline]
    }
}

/// Outcome of one repetition.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub method: Method,
    /// Wall-clock seconds for the whole run (sweeps + protection +
    /// recovery), the quantity of Figs. 8 and 11.
    pub seconds: f64,
    /// Eq. 11 l2 error against the error-free single-threaded reference,
    /// the quantity of Figs. 9 and 10.
    pub l2: f64,
    /// The injected fault, if any.
    pub injected: Option<Fault>,
    /// Magnitude of the injected corruption (`|corrupt − clean|`), if the
    /// fault fired.
    pub corruption_magnitude: Option<f64>,
    /// Protector statistics (all-zero for `NoAbft`).
    pub stats: ProtectorStats,
}

impl RunRecord {
    /// Whether the protector observed the fault.
    pub fn detected(&self) -> bool {
        self.stats.detections > 0
    }
}

/// A repeatable experiment scenario: a deterministic simulation factory,
/// an iteration budget and the error-free single-threaded reference
/// solution (computed once, as in the paper's §5.1).
pub struct Campaign<T, F>
where
    T: Real,
    F: Fn() -> StencilSim<T>,
{
    factory: F,
    iters: usize,
    reference: Grid3D<T>,
}

impl<T, F> Campaign<T, F>
where
    T: Real,
    F: Fn() -> StencilSim<T>,
{
    /// Build a campaign; runs the factory once, serially and unprotected,
    /// to produce the reference solution.
    pub fn new(factory: F, iters: usize) -> Self {
        let mut sim = (factory)().with_exec(Exec::Serial);
        for _ in 0..iters {
            sim.step();
        }
        let reference = sim.current().clone();
        Self {
            factory,
            iters,
            reference,
        }
    }

    /// Iterations per run.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// The error-free reference solution.
    pub fn reference(&self) -> &Grid3D<T> {
        &self.reference
    }

    /// Execute one run of `method` with an optional injected **output**
    /// fault (the paper's §5.1 model).
    pub fn run_once(&self, method: Method, cfg: AbftConfig<T>, flip: Option<BitFlip>) -> RunRecord {
        self.run_once_fault(method, cfg, flip.map(Fault::Output))
    }

    /// Execute one run of `method` with an optional fault of either model
    /// (output corruption or memory-resident corruption).
    pub fn run_once_fault(
        &self,
        method: Method,
        cfg: AbftConfig<T>,
        fault: Option<Fault>,
    ) -> RunRecord {
        let mut sim = (self.factory)();
        let (hook, mem_flip) = match fault {
            Some(Fault::Output(f)) => (Some(FlipHook::<T>::new(f)), None),
            Some(Fault::Memory(f)) => (None, Some(f)),
            None => (None, None),
        };
        let mut mem_magnitude: Option<f64> = None;
        let mut corrupt_memory = |sim: &mut StencilSim<T>, t: usize| {
            if let Some(f) = mem_flip {
                if f.iteration == t {
                    let old = sim.current().at(f.x, f.y, f.z);
                    let new = old.flip_bit(f.bit);
                    sim.current_mut().set(f.x, f.y, f.z, new);
                    mem_magnitude = Some((new - old).abs_r().to_f64());
                }
            }
        };

        let timer = Timer::start();
        let stats = match method {
            Method::NoAbft => {
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match &hook {
                        Some(h) if h.flip().iteration == t => sim.step_hooked(h),
                        _ => sim.step(),
                    }
                }
                ProtectorStats::default()
            }
            Method::Online => {
                let mut abft = OnlineAbft::new(&sim, cfg);
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match &hook {
                        Some(h) if h.flip().iteration == t => {
                            abft.step(&mut sim, h);
                        }
                        _ => {
                            abft.step(&mut sim, &NoHook);
                        }
                    }
                }
                abft.stats()
            }
            Method::Offline => {
                let mut abft = OfflineAbft::new(&sim, cfg);
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match &hook {
                        Some(h) if h.flip().iteration == t => {
                            abft.step(&mut sim, h);
                        }
                        _ => {
                            abft.step(&mut sim, &NoHook);
                        }
                    }
                }
                abft.finalize(&mut sim);
                abft.stats()
            }
        };
        let seconds = timer.seconds();
        let l2 = l2_error(&self.reference, sim.current());
        RunRecord {
            method,
            seconds,
            l2,
            injected: fault,
            corruption_magnitude: hook
                .as_ref()
                .and_then(|h| h.magnitude())
                .map(|m| m.to_f64())
                .or(mem_magnitude),
            stats,
        }
    }

    /// Execute one run per entry of `flips` (use `None` entries for
    /// error-free repetitions). Flips use the paper's output model.
    pub fn run_many(
        &self,
        method: Method,
        cfg: AbftConfig<T>,
        flips: &[Option<BitFlip>],
    ) -> Vec<RunRecord> {
        flips
            .iter()
            .map(|f| self.run_once(method, cfg, *f))
            .collect()
    }

    /// Execute one run per fault of either model.
    pub fn run_many_faults(
        &self,
        method: Method,
        cfg: AbftConfig<T>,
        faults: &[Option<Fault>],
    ) -> Vec<RunRecord> {
        faults
            .iter()
            .map(|f| self.run_once_fault(method, cfg, *f))
            .collect()
    }

    /// Execute one run with **several** simultaneous faults — the paper's
    /// future-work scenario; the online protector repairs every flip of a
    /// flagged layer by sweeping the layer again.
    pub fn run_once_multi(
        &self,
        method: Method,
        cfg: AbftConfig<T>,
        faults: &[Fault],
    ) -> RunRecord {
        use crate::MultiFlipHook;
        use std::collections::HashMap;

        let mut output_by_iter: HashMap<usize, Vec<BitFlip>> = HashMap::new();
        let mut memory: Vec<BitFlip> = Vec::new();
        for f in faults {
            match f {
                Fault::Output(b) => output_by_iter.entry(b.iteration).or_default().push(*b),
                Fault::Memory(b) => memory.push(*b),
            }
        }
        let hooks: HashMap<usize, MultiFlipHook<T>> = output_by_iter
            .into_iter()
            .map(|(t, flips)| (t, MultiFlipHook::new(flips)))
            .collect();
        let corrupt_memory = |sim: &mut StencilSim<T>, t: usize| {
            for f in memory.iter().filter(|f| f.iteration == t) {
                let old = sim.current().at(f.x, f.y, f.z);
                sim.current_mut().set(f.x, f.y, f.z, old.flip_bit(f.bit));
            }
        };

        let mut sim = (self.factory)();
        let timer = Timer::start();
        let stats = match method {
            Method::NoAbft => {
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match hooks.get(&t) {
                        Some(h) => sim.step_hooked(h),
                        None => sim.step(),
                    }
                }
                ProtectorStats::default()
            }
            Method::Online => {
                let mut abft = OnlineAbft::new(&sim, cfg);
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match hooks.get(&t) {
                        Some(h) => {
                            abft.step(&mut sim, h);
                        }
                        None => {
                            abft.step(&mut sim, &NoHook);
                        }
                    }
                }
                abft.stats()
            }
            Method::Offline => {
                let mut abft = OfflineAbft::new(&sim, cfg);
                for t in 0..self.iters {
                    corrupt_memory(&mut sim, t);
                    match hooks.get(&t) {
                        Some(h) => {
                            abft.step(&mut sim, h);
                        }
                        None => {
                            abft.step(&mut sim, &NoHook);
                        }
                    }
                }
                abft.finalize(&mut sim);
                abft.stats()
            }
        };
        let seconds = timer.seconds();
        let l2 = l2_error(&self.reference, sim.current());
        RunRecord {
            method,
            seconds,
            l2,
            injected: None,
            corruption_magnitude: None,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_flips;
    use abft_grid::BoundarySpec;
    use abft_stencil::Stencil3D;

    fn campaign() -> Campaign<f64, impl Fn() -> StencilSim<f64>> {
        let factory = || {
            let g = Grid3D::from_fn(10, 8, 2, |x, y, z| {
                80.0 + ((x * 3 + y * 5 + z * 11) % 7) as f64
            });
            StencilSim::new(
                g,
                Stencil3D::seven_point(0.4, 0.12, 0.08, 0.1),
                BoundarySpec::clamp(),
            )
            .with_exec(Exec::Serial)
        };
        Campaign::new(factory, 12)
    }

    #[test]
    fn error_free_runs_hit_reference_exactly() {
        let c = campaign();
        for method in Method::all() {
            let r = c.run_once(method, AbftConfig::<f64>::paper_defaults(), None);
            assert_eq!(r.l2, 0.0, "{method:?} diverged from reference");
            assert!(!r.detected());
        }
    }

    #[test]
    fn unprotected_run_keeps_the_corruption() {
        let c = campaign();
        let flip = BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 61, // high exponent bit of f64: huge corruption
        };
        let r = c.run_once(
            Method::NoAbft,
            AbftConfig::<f64>::paper_defaults(),
            Some(flip),
        );
        assert!(r.l2 > 1.0, "l2 = {}", r.l2);
        assert!(r.corruption_magnitude.unwrap() > 1.0);
    }

    #[test]
    fn online_corrects_the_corruption() {
        let c = campaign();
        // Bit 52 (lowest exponent bit) halves the value: a large but
        // non-overflowing corruption, exactly recoverable online.
        let flip = BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 52,
        };
        let r = c.run_once(
            Method::Online,
            AbftConfig::<f64>::paper_defaults(),
            Some(flip),
        );
        assert!(r.detected());
        assert_eq!(r.stats.corrections, 1);
        assert!(r.l2 < 1e-6, "l2 = {}", r.l2);
    }

    #[test]
    fn online_top_exponent_flip_detected_but_imprecise() {
        // Mirrors the paper's Fig. 10b: flips in the high exponent bits
        // overflow/absorb in the checksums, so online correction degrades
        // (it is still detected and the run is not destroyed).
        let c = campaign();
        let flip = BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 61,
        };
        let r = c.run_once(
            Method::Online,
            AbftConfig::<f64>::paper_defaults(),
            Some(flip),
        );
        assert!(r.detected());
        // No catastrophic propagation of the 1e150-scale corruption…
        assert!(r.l2.is_finite() && r.l2 < 1e6, "l2 = {}", r.l2);
    }

    #[test]
    fn offline_erases_the_corruption() {
        let c = campaign();
        let flip = BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 61,
        };
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(4);
        let r = c.run_once(Method::Offline, cfg, Some(flip));
        assert!(r.detected());
        assert_eq!(r.stats.rollbacks, 1);
        assert_eq!(r.l2, 0.0, "recomputation must fully erase the error");
    }

    #[test]
    fn memory_fault_detected_by_online_but_data_smeared() {
        // Theorem 2, case "error in the domain at t after the checksum was
        // computed": the sweep smears the corruption over the stencil
        // neighbourhood; online ABFT detects at the next verification, but
        // sweeping the flagged layers again reads the same struck data, so
        // they are reported uncorrectable, never adopted as a refresh.
        let c = campaign();
        let fault = Fault::Memory(BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 52,
        });
        let r = c.run_once_fault(
            Method::Online,
            AbftConfig::<f64>::paper_defaults(),
            Some(fault),
        );
        assert!(r.detected(), "memory fault went unnoticed");
        assert!(r.stats.uncorrectable >= 1, "{:?}", r.stats);
        assert_eq!(r.stats.checksum_refreshes, 0, "{:?}", r.stats);
        assert!(r.l2 > 0.0, "smeared fault cannot be fully repaired online");
        assert!(r.corruption_magnitude.unwrap() > 0.0);
    }

    #[test]
    fn memory_fault_fully_erased_by_offline_rollback() {
        let c = campaign();
        let fault = Fault::Memory(BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 52,
        });
        let cfg = AbftConfig::<f64>::paper_defaults().with_period(4);
        let r = c.run_once_fault(Method::Offline, cfg, Some(fault));
        assert!(r.detected());
        assert!(r.stats.rollbacks >= 1);
        assert_eq!(r.l2, 0.0, "rollback must erase the memory fault");
    }

    #[test]
    fn memory_fault_without_protection_persists() {
        let c = campaign();
        let fault = Fault::Memory(BitFlip {
            iteration: 5,
            x: 4,
            y: 3,
            z: 1,
            bit: 52,
        });
        let r = c.run_once_fault(
            Method::NoAbft,
            AbftConfig::<f64>::paper_defaults(),
            Some(fault),
        );
        assert!(r.l2 > 0.0);
    }

    #[test]
    fn multi_fault_in_distinct_layers_all_corrected_online() {
        let c = campaign();
        let faults = vec![
            Fault::Output(BitFlip {
                iteration: 4,
                x: 2,
                y: 2,
                z: 0,
                bit: 52,
            }),
            Fault::Output(BitFlip {
                iteration: 7,
                x: 7,
                y: 5,
                z: 1,
                bit: 53,
            }),
        ];
        let r = c.run_once_multi(Method::Online, AbftConfig::<f64>::paper_defaults(), &faults);
        assert_eq!(r.stats.corrections, 2);
        assert!(r.l2 < 1e-6, "l2 = {}", r.l2);
    }

    #[test]
    fn simultaneous_same_layer_faults_are_both_repaired() {
        let c = campaign();
        let faults = vec![
            Fault::Output(BitFlip {
                iteration: 4,
                x: 2,
                y: 2,
                z: 1,
                bit: 52,
            }),
            Fault::Output(BitFlip {
                iteration: 4,
                x: 7,
                y: 6,
                z: 1,
                bit: 53,
            }),
        ];
        let r = c.run_once_multi(Method::Online, AbftConfig::<f64>::paper_defaults(), &faults);
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.stats.corrections, 2);
        assert_eq!(r.stats.uncorrectable, 0);
        assert_eq!(r.l2, 0.0, "a re-swept layer is bitwise the clean one");
    }

    #[test]
    fn run_many_matches_plan_length() {
        let c = campaign();
        let flips = random_flips(9, 3, c.iters(), (10, 8, 2), 64);
        let plans: Vec<Option<BitFlip>> = flips.into_iter().map(Some).collect();
        let rs = c.run_many(Method::Online, AbftConfig::<f64>::paper_defaults(), &plans);
        assert_eq!(rs.len(), 3);
    }
}
