//! Altitudes 2 and 3: jobs through one pooled `DistService`. `dist-halo`
//! (one 2-rank job at a time) and `served-mix` (two closed-loop clients
//! draining a 32-job batch) are two configurations of it.
//!
//! Closed loop throughout: a client submits its next job only after the
//! previous one's reply, so a slower system is offered less load; the
//! metric is work completed per second at that fixed client count.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_dist::{DistError, DistReport, DistService, JobSpec, Partition3};
use abft_fault::{BitFlip, RankKill};
use abft_stencil::{Exec, StencilSim};

use super::{FaultCounts, Kind, SliceOutcome, Workload, Yardstick};
use crate::faults::{detectable_bits, draw_flip};
use crate::lab::{JobRecord, Lab, Tags};
use crate::oracle::{bitwise, problem_of, within_tolerance};
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

/// Pool size of every service the benchmark starts: with the scheduler
/// parked on its channel and clients parked in `wait`, at most two threads
/// are runnable — the host's `nproc` (they share the one CPU the process is
/// pinned to).
pub const POOL: usize = 2;

/// The part a job plays in the faulted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No fault: in the faulted batch it runs as in the protected one.
    Clean,
    /// One detectable flip in one rank's brick.
    Flip,
    /// One rank killed mid-period (rollback + respawn).
    Kill,
    /// One flip per rank, late in the job, and one rank killed early.
    FlipsAndKill,
    /// One flip in a rank's decaying ghost shell (`k > 1`, two ranks).
    ShellFlip,
}

/// One job of a batch: the unprotected spec, and what to derive from it.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    /// Unprotected; the protected and faulted specs are derived per slice.
    pub spec: JobSpec<f64>,
    pub tags: Tags,
    pub role: Role,
}

impl Job {
    fn sweeps(&self) -> usize {
        self.spec.cfg.iters
    }

    fn cell_updates(&self) -> f64 {
        (self.spec.initial.len() * self.sweeps()) as f64
    }

    /// The rank grid is always `1 × ranks × 1`.
    fn partition(&self) -> Partition3 {
        let (nx, ny, nz) = self.spec.initial.dims();
        Partition3::new(nx, ny, nz, 1, self.spec.cfg.ranks, 1)
    }

    /// The job under per-rank online ABFT, checkpointing every `period`
    /// sweeps.
    pub fn protected(&self, period: usize) -> JobSpec<f64> {
        self.spec
            .clone()
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(period))
    }

    /// The protected spec under this job's part of the fault plan; returns
    /// the flips and kills planned.
    fn faulted(&self, period: usize, rng: &mut Rng, bits: &Range<u32>) -> (JobSpec<f64>, u64, u64) {
        let mut spec = self.protected(period);
        let ranks = self.spec.cfg.ranks;
        let part = self.partition();
        let extent = |rank: usize| {
            let b = part.brick(rank);
            (b.x_len, b.y_len, b.z_len)
        };
        let sweeps = self.sweeps();
        // A kill strikes half a period after a checkpoint — the second
        // checkpoint if the job is long enough to have one — so the work a
        // rollback replays is the same whatever the seed.
        let kill_at = if sweeps > period + period / 2 {
            period + period / 2
        } else {
            period / 2
        };
        match self.role {
            Role::Clean => (spec, 0, 0),
            Role::Flip => {
                let rank = rng.range(0, ranks);
                let flip = draw_flip(rng, 0..sweeps, extent(rank), bits);
                (spec.with_flip(rank, flip), 1, 0)
            }
            Role::Kill => {
                let victim = rng.range(0, ranks);
                (spec.with_rank_kill(RankKill::new(victim, kill_at)), 0, 1)
            }
            Role::FlipsAndKill => {
                // Flips strike after the replayed stretch, so each fires
                // exactly once whichever epoch the rollback picks.
                let late = (kill_at + period).min(sweeps - 1)..sweeps;
                for rank in 0..ranks {
                    let flip = draw_flip(rng, late.clone(), extent(rank), bits);
                    spec = spec.with_flip(rank, flip);
                }
                let victim = rng.range(0, ranks);
                spec = spec.with_rank_kill(RankKill::new(victim, kill_at));
                (spec, ranks as u64, 1)
            }
            Role::ShellFlip => {
                // Rank 0's shell holds rank 1's first rows; the flip must
                // strike off an exchange boundary (any sweep but an
                // epoch's last).
                let k = self.spec.cfg.steps_per_exchange;
                assert!(
                    k > 1 && ranks == 2,
                    "{}: shell flips need k > 1, 2 ranks",
                    self.label
                );
                let b0 = part.brick(0);
                let (nx, _, nz) = self.spec.initial.dims();
                let epoch = rng.range(0, sweeps / k);
                let flip = BitFlip {
                    iteration: epoch * k + rng.range(0, k - 1),
                    x: rng.range(0, nx),
                    y: b0.y0 + b0.y_len,
                    z: rng.range(0, nz),
                    bit: rng.range(bits.start as usize, bits.end as usize) as u32,
                };
                (spec.with_shell_flip(0, flip), 1, 0)
            }
        }
    }

    /// The library's own `Exec::Serial` run of this job.
    fn serial_run(&self) -> Vec<f64> {
        let mut sim = self.serial_sim();
        for _ in 0..self.sweeps() {
            sim.step();
        }
        sim.current().as_slice().to_vec()
    }

    pub fn serial_sim(&self) -> StencilSim<f64> {
        StencilSim::new(
            self.spec.initial.clone(),
            self.spec.stencil.clone(),
            self.spec.bounds,
        )
        .with_exec(Exec::Serial)
    }

    fn reference_problem(&self) -> crate::reference::Problem<f64> {
        problem_of(
            self.spec.initial.dims(),
            &self.spec.stencil,
            &self.spec.bounds,
            None,
        )
    }
}

/// What distinguishes one served workload from another.
pub trait ServedConfig {
    /// The workload's name, as `BENCHMARK.json` lists it.
    const NAME: &'static str;
    /// Closed-loop clients draining the batch.
    const CLIENTS: usize;
    /// Checkpoint period Δ of every protected job: a multiple of every `k`
    /// in the batch, so snapshots land on exchange boundaries.
    const PERIOD: usize;
    /// Timed parts of a slice: the batch is drained in this many equal
    /// groups, each a closed-loop drain timed on its own (see the engine's
    /// `UNDISTURBED`: short parts give the lower decile more to work with).
    const GROUPS: usize;
    /// Reference sweeps of one yardstick slice, on job [`Self::YARD_JOB`].
    const YARD_SWEEPS: usize;
    /// The batch job whose problem the yardstick (and the serial layer
    /// ladder) runs on.
    const YARD_JOB: usize;
    /// Separates this workload's fault stream from the others'.
    const STREAM: u64;
    /// The batch, generated from the seed alone.
    fn batch(seed: u64) -> Vec<Job>;
}

/// One job's reply, as a client saw it.
pub struct Reply {
    /// Index into the drained specs.
    pub job: usize,
    pub result: Result<DistReport<f64>, DistError>,
    /// Submit to reply, on the client's clock.
    pub latency_s: f64,
}

pub struct Served<C: ServedConfig> {
    seed: u64,
    service: DistService<f64>,
    jobs: Vec<Job>,
    /// Per job: the detectable bit band of its data.
    bits: Vec<Range<u32>>,
    /// Per job: the library's serial result; empty until `prepare`.
    expected: Vec<Vec<f64>>,
    yardstick: Yardstick<f64>,
    /// Traced runs: one record per job served in the cycles.
    records: Vec<JobRecord>,
    served_secs: f64,
    _config: std::marker::PhantomData<C>,
}

/// Drain `jobs` — `(index, spec)` pairs — through `service` with `clients`
/// closed-loop clients; returns every reply, by index, and the seconds
/// from first submit to last reply. Job `index` is traced as job
/// `job_id_base + index`.
pub fn drain(
    service: &DistService<f64>,
    jobs: Vec<(usize, JobSpec<f64>)>,
    clients: usize,
    tracer: &Tracer,
    parent: SpanId,
    job_id_base: u64,
) -> (Vec<Reply>, f64) {
    let queue = Mutex::new(jobs.into_iter());
    let client = || {
        let mut replies = Vec::new();
        loop {
            let next = queue.lock().expect("queue poisoned").next();
            let Some((job, spec)) = next else {
                return replies;
            };
            let id = job_id_base + job as u64;
            let span = tracer.begin("job", parent, id);
            let t = Instant::now();
            let result = tracer
                .scope("service.submit", span, id, |_| service.submit(spec))
                .and_then(|handle| tracer.scope("dist.wait", span, id, |_| handle.wait()));
            let latency_s = t.elapsed().as_secs_f64();
            tracer.end(span);
            replies.push(Reply {
                job,
                result,
                latency_s,
            });
        }
    };
    let t = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.job);
    (replies, secs)
}

impl<C: ServedConfig> Workload for Served<C> {
    fn construct(seed: u64) -> Self {
        let jobs = C::batch(seed);
        let bits = jobs
            .iter()
            .map(|job| {
                let b = job.partition().brick(0);
                detectable_bits(1e-11, b.x_len.max(b.y_len), job.spec.initial.as_slice())
            })
            .collect();
        let yardstick = Yardstick::new(jobs[C::YARD_JOB].reference_problem(), C::YARD_SWEEPS);
        let service = DistService::<f64>::new(POOL).expect("a non-empty pool");
        // Set-up ends when one protected pass over the batch has returned:
        // every job's first run goes through a cold topology cache.
        let quiet = Tracer::new(false);
        let warm_up = jobs
            .iter()
            .map(|job| job.protected(C::PERIOD))
            .enumerate()
            .collect();
        for reply in drain(&service, warm_up, C::CLIENTS, &quiet, None, 0).0 {
            reply.result.expect("the warm-up pass runs");
        }
        Self {
            seed,
            service,
            jobs,
            bits,
            expected: Vec::new(),
            yardstick,
            records: Vec::new(),
            served_secs: 0.0,
            _config: std::marker::PhantomData,
        }
    }

    fn prepare(&mut self) -> bool {
        self.expected = self.jobs.iter().map(Job::serial_run).collect();
        self.jobs.iter().zip(&self.expected).all(|(job, want)| {
            let by_reference = job
                .reference_problem()
                .run(job.spec.initial.as_slice(), job.sweeps());
            within_tolerance(want, &by_reference)
        })
    }

    fn yardstick(&mut self) -> (f64, f64) {
        self.yardstick
            .run(self.jobs[C::YARD_JOB].spec.initial.as_slice())
    }

    fn slice(&mut self, kind: Kind, cycle: usize, tracer: &Tracer, parent: SpanId) -> SliceOutcome {
        // Specs are built (grids cloned, faults drawn) before the clock
        // starts: the service receives only generated inputs. Per job: its
        // spec, and the flips and kills planned for it.
        let plan: Vec<(JobSpec<f64>, u64, u64)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| match kind {
                Kind::Unprotected => (job.spec.clone(), 0, 0),
                Kind::Protected => (job.protected(C::PERIOD), 0, 0),
                Kind::Faulted => {
                    let stream = C::STREAM ^ ((cycle as u64 + 1) << 16) ^ ((i as u64 + 1) << 8);
                    job.faulted(C::PERIOD, &mut Rng::new(self.seed, stream), &self.bits[i])
                }
            })
            .collect();
        let planned: Vec<(u64, u64)> = plan.iter().map(|&(_, f, k)| (f, k)).collect();
        let mut specs = plan.into_iter().map(|(spec, ..)| spec).enumerate();

        // Drain group by group, each timed on its own.
        let job_id_base = (cycle as u64 * 3 + kind as u64) * self.jobs.len() as u64 + 1;
        let per_group = self.jobs.len().div_ceil(C::GROUPS);
        let mut out = SliceOutcome {
            cell_updates: self.jobs.iter().map(Job::cell_updates).sum(),
            attempted: self.jobs.len() as u64,
            ..Default::default()
        };
        let mut replies = Vec::with_capacity(self.jobs.len());
        for _ in 0..C::GROUPS {
            let group = specs.by_ref().take(per_group).collect();
            let (mut part, secs) = drain(
                &self.service,
                group,
                C::CLIENTS,
                tracer,
                parent,
                job_id_base,
            );
            replies.append(&mut part);
            out.parts.push(secs);
            self.served_secs += secs;
        }
        for reply in replies {
            let job = &self.jobs[reply.job];
            let (flips, kills) = planned[reply.job];
            match &reply.result {
                Err(e) => out.fail(format!("{}: {e}", job.label)),
                Ok(report) => {
                    let counts = check(kind, flips, kills, report, &self.expected[reply.job])
                        .unwrap_or_else(|(counts, why)| {
                            out.fail(format!("{}: {why}", job.label));
                            counts
                        });
                    out.faults.add(&counts);
                    if tracer.traced_run() {
                        let tags = Tags {
                            flips: flips as usize,
                            kills: kills as usize,
                            protected: kind != Kind::Unprotected,
                            ..job.tags
                        };
                        self.records
                            .push(JobRecord::new(tags, reply.latency_s, report));
                    }
                }
            }
        }
        out
    }

    fn layers(&mut self, lab: &mut Lab<'_>) {
        let cfg = AbftConfig::<f64>::paper_defaults();
        lab.serial_ladder(&self.jobs[C::YARD_JOB].serial_sim(), cfg);
        self.hand_over(lab);
    }

    fn hand_over(&mut self, lab: &mut Lab<'_>) {
        lab.absorb(
            C::NAME,
            std::mem::take(&mut self.records),
            self.service.stats(),
            self.served_secs,
        );
    }

    fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Judge one reply. `Err` carries the counts too, so a failing job's
/// faults are still accounted.
pub fn check(
    kind: Kind,
    flips: u64,
    kills: u64,
    report: &DistReport<f64>,
    expected: &[f64],
) -> Result<FaultCounts, (FaultCounts, String)> {
    let stats = report.total_stats();
    let got = report.global.as_slice();
    let mut counts = FaultCounts::default();
    let verdict = match kind {
        Kind::Unprotected => {
            if bitwise(got, expected) {
                Ok(())
            } else {
                Err("unprotected grid differs from the library's serial run".to_string())
            }
        }
        Kind::Protected => {
            counts.false_positives = stats.detections as u64;
            if stats.detections != 0 {
                Err(format!(
                    "{} false detections on a clean run",
                    stats.detections
                ))
            } else if !report.recovery.is_clean() {
                Err(format!("clean run recovered: {}", report.recovery))
            } else if !bitwise(got, expected) {
                Err("protected clean grid differs from the library's serial run".to_string())
            } else {
                Ok(())
            }
        }
        Kind::Faulted => {
            counts.injected = flips + kills;
            counts.detections = stats.detections as u64;
            counts.corrections = stats.corrections as u64;
            // A flip is seen to strike by its detection, a kill by the
            // reported loss; neither may exceed the plan.
            counts.fired =
                counts.detections.min(flips) + (report.recovery.rank_losses as u64).min(kills);
            if stats.detections as u64 != flips || stats.corrections as u64 != flips {
                Err(format!(
                    "{flips} flips planned: {} detections, {} corrections, {} uncorrectable",
                    stats.detections, stats.corrections, stats.uncorrectable
                ))
            } else if report.recovery.rank_losses as u64 != kills {
                Err(format!("{kills} kills planned: {}", report.recovery))
            } else if flips == 0 && !bitwise(got, expected) {
                // Rollback and replay are exact: without a flip the grid
                // is the serial run's, bit for bit.
                Err("kill-only grid differs from the library's serial run".to_string())
            } else if !within_tolerance(got, expected) {
                Err("faulted grid outside tolerance".to_string())
            } else {
                Ok(())
            }
        }
    };
    match verdict {
        Ok(()) => Ok(counts),
        Err(why) => Err((counts, why)),
    }
}
