//! Altitude 1: one `StencilSim` on one thread, with and without the online
//! protector. `hotspot-tile` and `box27-cube` are two configurations of it.

use std::ops::Range;
use std::time::Instant;

use abft_core::{AbftConfig, OnlineAbft};
use abft_fault::FlipHook;
use abft_num::Real;
use abft_stencil::{NoHook, StencilSim};

use super::{FaultCounts, Kind, SliceOutcome, Workload, Yardstick};
use crate::faults::{detectable_bits, draw_flip};
use crate::lab::Lab;
use crate::oracle::{bitwise, problem_of, within_tolerance};
use crate::reference::Scalar;
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

/// What distinguishes one serial workload from another.
pub trait SerialConfig {
    type T: Real + Scalar;
    /// Sweeps of one U/P/F job — fixed, never adapted to the clock.
    const SWEEPS: usize;
    /// Reference sweeps of one yardstick slice.
    const YARD_SWEEPS: usize;
    /// Separates this workload's fault stream from the others'.
    const STREAM: u64;
    /// The pristine `Exec::Serial` simulation at `t = 0`, generated from
    /// the seed alone.
    fn sim(seed: u64) -> StencilSim<Self::T>;
}

pub struct Serial<C: SerialConfig> {
    seed: u64,
    base: StencilSim<C::T>,
    cfg: AbftConfig<C::T>,
    /// Owns the same problem, stated for the reference sweep.
    yardstick: Yardstick<C::T>,
    /// The state after `SWEEPS` clean sweeps, by the library's own serial
    /// run; empty until `prepare`.
    expected: Vec<C::T>,
    bits: Range<u32>,
}

impl<C: SerialConfig> Serial<C> {
    /// One protected job from `t = 0`, flipping as planned. Returns the
    /// final simulation and the protector that drove it.
    fn protected_job(
        &self,
        flip: Option<&FlipHook<C::T>>,
        tracer: &Tracer,
        parent: SpanId,
        sim: &mut StencilSim<C::T>,
    ) -> OnlineAbft<C::T> {
        let mut abft = tracer.scope("core.online_new", parent, 0, |_| {
            OnlineAbft::new(sim, self.cfg)
        });
        for i in 0..C::SWEEPS {
            tracer.scope("core.online_step", parent, 0, |_| match flip {
                Some(hook) if hook.flip().iteration == i => abft.step(sim, hook),
                _ => abft.step(sim, &NoHook),
            });
        }
        abft
    }
}

impl<C: SerialConfig> Workload for Serial<C> {
    fn construct(seed: u64) -> Self {
        let base = C::sim(seed);
        let cfg = AbftConfig::<C::T>::paper_defaults();
        let problem = problem_of(base.dims(), base.stencil(), base.bounds(), base.constant());
        let (nx, ny, _) = base.dims();
        let bits = detectable_bits(cfg.epsilon.to_f64(), nx.max(ny), base.current().as_slice());
        let w = Self {
            seed,
            cfg,
            yardstick: Yardstick::new(problem, C::YARD_SWEEPS),
            expected: Vec::new(),
            bits,
            base,
        };
        // Set-up ends when the first protected job has returned.
        let mut sim = w.base.clone();
        let quiet = Tracer::new(false);
        std::hint::black_box(w.protected_job(None, &quiet, None, &mut sim));
        w
    }

    fn prepare(&mut self) -> bool {
        let mut sim = self.base.clone();
        for _ in 0..C::SWEEPS {
            sim.step();
        }
        self.expected = sim.current().as_slice().to_vec();
        let by_reference = self
            .yardstick
            .problem()
            .run(self.base.current().as_slice(), C::SWEEPS);
        within_tolerance(&self.expected, &by_reference)
    }

    fn yardstick(&mut self) -> (f64, f64) {
        self.yardstick.run(self.base.current().as_slice())
    }

    fn slice(&mut self, kind: Kind, cycle: usize, tracer: &Tracer, parent: SpanId) -> SliceOutcome {
        let mut out = SliceOutcome {
            cell_updates: (self.yardstick.problem().cells() * C::SWEEPS) as f64,
            attempted: 1,
            ..Default::default()
        };
        let job = tracer.begin("job", parent, cycle as u64 + 1);
        let mut sim = self.base.clone();
        match kind {
            Kind::Unprotected => {
                let t = Instant::now();
                for _ in 0..C::SWEEPS {
                    tracer.scope("stencil.step", job, 0, |_| sim.step());
                }
                out.parts = vec![t.elapsed().as_secs_f64()];
                if !bitwise(sim.current().as_slice(), &self.expected) {
                    out.fail("unprotected grid differs from the library's serial run".into());
                }
            }
            Kind::Protected => {
                let t = Instant::now();
                let abft = self.protected_job(None, tracer, job, &mut sim);
                out.parts = vec![t.elapsed().as_secs_f64()];
                let stats = abft.stats();
                out.faults.false_positives = stats.detections as u64;
                if stats.detections != 0 {
                    out.fail(format!(
                        "{} false detections on a clean run",
                        stats.detections
                    ));
                } else if !bitwise(sim.current().as_slice(), &self.expected) {
                    out.fail("protected clean grid differs from the library's serial run".into());
                }
            }
            Kind::Faulted => {
                let mut rng = Rng::new(self.seed, C::STREAM ^ ((cycle as u64 + 1) << 8));
                let flip = draw_flip(&mut rng, 0..C::SWEEPS, sim.dims(), &self.bits);
                let hook = FlipHook::<C::T>::new(flip);
                let t = Instant::now();
                let abft = self.protected_job(Some(&hook), tracer, job, &mut sim);
                out.parts = vec![t.elapsed().as_secs_f64()];
                let stats = abft.stats();
                out.faults = FaultCounts {
                    injected: 1,
                    fired: u64::from(hook.observed().is_some()),
                    detections: stats.detections as u64,
                    corrections: stats.corrections as u64,
                    false_positives: 0,
                };
                if hook.observed().is_none() {
                    out.fail(format!("planned flip {flip:?} never struck"));
                } else if stats.detections != 1 || stats.corrections != 1 {
                    out.fail(format!(
                        "flip {flip:?}: {} detections, {} corrections, {} uncorrectable",
                        stats.detections, stats.corrections, stats.uncorrectable
                    ));
                } else if !within_tolerance(sim.current().as_slice(), &self.expected) {
                    out.fail(format!("flip {flip:?}: corrected grid outside tolerance"));
                }
            }
        }
        tracer.end(job);
        out
    }

    fn layers(&mut self, lab: &mut Lab<'_>) {
        lab.serial_ladder(&self.base, self.cfg);
    }
}
