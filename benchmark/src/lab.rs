//! The traced run's per-layer probes.
//!
//! Every number here is timed from outside, around one public call into
//! one layer, or read from a public report struct. The serial probes run
//! on the workload's own problem and form the ROADMAP's *layer ladder*:
//! `stencil.step` → `stencil.step_col` → `core.online_step`, each rung's
//! marginal cost being the rung minus the one before. The `dist.*` and
//! `service.*` numbers are aggregated from per-job records: those of the
//! workload's own cycles when it serves jobs, plus a few lab cycles of
//! `dist-halo` and `served-mix` so that every workload's traced run
//! reports every layer.

use std::hint::black_box;
use std::time::Instant;

use abft_checkpoint::EpochRing;
use abft_core::{
    compare_vectors, compute_col_into, AbftConfig, Interpolator, OnlineAbft, StripSet,
};
use abft_dist::{
    run_distributed, DistError, DistReport, DistService, HaloMode, JobSpec, ServeStats,
};
use abft_fault::{BitFlip, FlipHook};
use abft_grid::NoGhosts;
use abft_hotspot::{build_sim, HotspotParams};
use abft_metrics::{P2Quantile, RecoveryStats};
use abft_num::Real;
use abft_stencil::{Exec, NoHook, StencilSim};

use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::dist_halo::{self, DistHalo};
use crate::workloads::served::ServedMix;
use crate::workloads::service::{check, Served, POOL};
use crate::workloads::{Kind, Metric, Workload};

/// What kind of job a record describes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tags {
    /// Part of a `served-mix` batch.
    pub served: bool,
    /// The batch's tiny half (else its small half).
    pub tiny: bool,
    pub ranks: usize,
    /// Sweeps per halo exchange.
    pub k: usize,
    pub snapshot: bool,
    /// Ran through `run_distributed`, not a pooled service.
    pub oneshot: bool,
    pub protected: bool,
    pub flips: usize,
    pub kills: usize,
}

/// What one job's public report said, without its grid.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub tags: Tags,
    /// Submit to reply on the client's clock.
    pub latency_s: f64,
    wall_s: f64,
    exec_s: f64,
    queue_wait_s: f64,
    /// post, interior, wait, edge, verify — summed over ranks.
    phases: [f64; 5],
    halo_wait_max: f64,
    msgs_sent: u64,
    bytes_sent: u64,
    recovery: RecoveryStats,
}

impl JobRecord {
    pub fn new(tags: Tags, latency_s: f64, report: &DistReport<f64>) -> Self {
        let mut phases = [0.0; 5];
        let (mut msgs_sent, mut bytes_sent) = (0, 0);
        for r in &report.ranks {
            let t = &r.timing;
            for (sum, part) in
                phases
                    .iter_mut()
                    .zip([t.post_s, t.interior_s, t.wait_s, t.edge_s, t.verify_s])
            {
                *sum += part;
            }
            msgs_sent += t.halo_msgs_sent;
            bytes_sent += t.halo_bytes_sent;
        }
        Self {
            tags,
            latency_s,
            wall_s: report.wall_s,
            exec_s: report.exec_s,
            queue_wait_s: report.queue_wait_s,
            phases,
            halo_wait_max: report.max_halo_wait_fraction(),
            msgs_sent,
            bytes_sent,
            recovery: report.recovery,
        }
    }
}

/// Everything the traced run learned about the layers.
#[derive(Debug, Default)]
pub struct Ledger {
    scalars: Vec<Metric>,
    jobs: Vec<JobRecord>,
    serve: ServeStats,
    /// Seconds and jobs of the `served-mix` slices behind `jobs_per_s`.
    served_secs: f64,
    /// Lab jobs that failed their check.
    pub failures: u64,
}

impl Ledger {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.scalars.push(Metric::new(name, value, unit));
    }

    fn fold_stats(&mut self, s: ServeStats) {
        let t = &mut self.serve;
        t.jobs_completed += s.jobs_completed;
        t.jobs_failed += s.jobs_failed;
        t.jobs_rejected += s.jobs_rejected;
        t.topology_hits += s.topology_hits;
        t.topology_misses += s.topology_misses;
        t.peak_concurrent = t.peak_concurrent.max(s.peak_concurrent);
        t.rank_losses += s.rank_losses;
        t.recoveries += s.recoveries;
    }

    /// Median of `f` over the records `keep` selects, in `scale` units.
    fn p50(&self, keep: impl Fn(&JobRecord) -> bool, f: impl Fn(&JobRecord) -> f64) -> f64 {
        let sample: Vec<f64> = self.jobs.iter().filter(|j| keep(j)).map(f).collect();
        median(&sample)
    }

    /// The `dist.*` and `service.*` aggregates, after the probes' scalars.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = self.scalars.clone();
        let ms = |j: &JobRecord| j.latency_s * 1e3;
        let pooled = |j: &JobRecord| !j.tags.oneshot;
        let pipelined = |j: &JobRecord| !j.tags.snapshot && !j.tags.oneshot;

        // abft-dist: where rank time went, over every pipelined job.
        let mut phases = [0.0; 5];
        for j in self.jobs.iter().filter(|j| pipelined(j)) {
            for (sum, part) in phases.iter_mut().zip(j.phases) {
                *sum += part;
            }
        }
        let busy: f64 = phases.iter().sum();
        let share = |x: f64| if busy > 0.0 { x / busy } else { 0.0 };
        for (name, x) in [
            "dist.post_share",
            "dist.interior_share",
            "dist.wait_share",
            "dist.edge_share",
            "dist.verify_share",
        ]
        .into_iter()
        .zip(phases)
        {
            m.push(Metric::new(name, share(x), "ratio"));
        }
        let two_rank = |j: &JobRecord| pipelined(j) && j.tags.ranks == 2;
        m.push(Metric::new(
            "dist.halo_wait_fraction_max",
            self.p50(two_rank, |j| j.halo_wait_max),
            "ratio",
        ));
        // From the one job every traced run shares, the clean protected
        // dist-halo job: exact counts at k = 1 and k = 4, and what its
        // k = 4, snapshot-mode and one-shot variants take.
        let canon = |k: usize| {
            move |j: &JobRecord| {
                pipelined(j)
                    && !j.tags.served
                    && j.tags.protected
                    && j.tags.k == k
                    && j.tags.flips + j.tags.kills == 0
            }
        };
        m.push(Metric::new(
            "dist.halo_msgs_per_job",
            self.p50(canon(1), |j| j.msgs_sent as f64),
            "count",
        ));
        m.push(Metric::new(
            "dist.halo_bytes_per_job",
            self.p50(canon(1), |j| j.bytes_sent as f64),
            "B",
        ));
        m.push(Metric::new(
            "dist.k4_halo_msgs_per_job",
            self.p50(canon(4), |j| j.msgs_sent as f64),
            "count",
        ));
        m.push(Metric::new(
            "dist.k4_job_ms_p50",
            self.p50(canon(4), ms),
            "ms",
        ));
        m.push(Metric::new(
            "dist.wall_ms_p50",
            self.p50(pipelined, |j| j.wall_s * 1e3),
            "ms",
        ));
        m.push(Metric::new(
            "dist.exec_overhead_us_p50",
            self.p50(pipelined, |j| (j.exec_s - j.wall_s) * 1e6),
            "us",
        ));
        m.push(Metric::new(
            "dist.snapshot_job_ms_p50",
            self.p50(|j| j.tags.snapshot && !j.tags.served, ms),
            "ms",
        ));
        m.push(Metric::new(
            "dist.oneshot_job_ms_p50",
            self.p50(|j| j.tags.oneshot, ms),
            "ms",
        ));
        let mut rec = RecoveryStats::default();
        for j in &self.jobs {
            rec.merge(&j.recovery);
        }
        let per = |num: f64, den: usize| if den > 0 { num / den as f64 } else { 0.0 };
        m.push(Metric::new(
            "dist.recovery_ms_per_rollback",
            per(rec.recovery_s * 1e3, rec.rollbacks),
            "ms",
        ));
        m.push(Metric::new(
            "dist.steps_lost_per_kill",
            per(rec.steps_lost as f64, rec.rank_losses),
            "count",
        ));
        m.push(Metric::new(
            "dist.checkpoints_stored",
            rec.checkpoints_stored as f64,
            "count",
        ));

        // abft-dist::service: what clients saw, over every pooled job.
        m.push(Metric::new(
            "service.queue_wait_ms_p50",
            self.p50(pooled, |j| j.queue_wait_s * 1e3),
            "ms",
        ));
        let latencies: Vec<f64> = self.jobs.iter().filter(|j| pooled(j)).map(ms).collect();
        m.push(Metric::new(
            "service.latency_ms_p50",
            median(&latencies),
            "ms",
        ));
        m.push(Metric::new(
            "service.latency_ms_p95",
            quantile(&latencies, 0.95),
            "ms",
        ));
        m.push(Metric::new(
            "service.latency_samples",
            latencies.len() as f64,
            "count",
        ));
        let served = self.jobs.iter().filter(|j| j.tags.served).count();
        m.push(Metric::new(
            "service.jobs_per_s",
            if self.served_secs > 0.0 {
                served as f64 / self.served_secs
            } else {
                0.0
            },
            "1/s",
        ));
        let s = &self.serve;
        for (name, v) in [
            ("service.topology_hits", s.topology_hits),
            ("service.topology_misses", s.topology_misses),
            ("service.peak_concurrent", s.peak_concurrent),
            ("service.recoveries", s.recoveries),
            ("service.rank_losses", s.rank_losses),
            ("service.jobs_failed", s.jobs_failed),
            ("service.jobs_rejected", s.jobs_rejected),
        ] {
            m.push(Metric::new(name, v as f64, "count"));
        }
        let clean = |j: &JobRecord| j.tags.served && j.tags.flips + j.tags.kills == 0;
        for (name, keep) in [
            (
                "service.class_tiny_ms_p50",
                &(|j: &JobRecord| clean(j) && j.tags.tiny) as &dyn Fn(&JobRecord) -> bool,
            ),
            ("service.class_small_ms_p50", &|j| clean(j) && !j.tags.tiny),
            ("service.class_k1_ms_p50", &|j| clean(j) && j.tags.k == 1),
            ("service.class_kdeep_ms_p50", &|j| clean(j) && j.tags.k > 1),
            ("service.class_flip_ms_p50", &|j| {
                j.tags.served && j.tags.flips > 0
            }),
            ("service.class_kill_ms_p50", &|j| {
                j.tags.served && j.tags.kills > 0
            }),
        ] {
            m.push(Metric::new(name, self.p50(keep, ms), "ms"));
        }
        m
    }
}

/// The probes of one traced run.
pub struct Lab<'a> {
    seed: u64,
    smoke: bool,
    deadline: Instant,
    tracer: &'a Tracer,
    parent: SpanId,
    ledger: &'a mut Ledger,
    /// Which served workloads' cycle records the ledger already holds.
    absorbed: Vec<&'static str>,
}

impl<'a> Lab<'a> {
    pub fn new(
        seed: u64,
        smoke: bool,
        deadline: Instant,
        tracer: &'a Tracer,
        parent: SpanId,
        ledger: &'a mut Ledger,
    ) -> Self {
        Self {
            seed,
            smoke,
            deadline,
            tracer,
            parent,
            ledger,
            absorbed: Vec::new(),
        }
    }

    /// Repetitions of a probe: seven, or two in a smoke run or once the
    /// traced run's time is spent (a slow host gets coarser numbers, not
    /// a longer run).
    fn reps(&self) -> usize {
        if self.smoke || Instant::now() >= self.deadline {
            2
        } else {
            7
        }
    }

    /// Seconds of `f`, undisturbed: the fastest of the probe's repetitions
    /// (one span each). Interference only adds time, and seven repetitions
    /// are too few for a quantile, so the minimum it is — the medians of
    /// two probes a second apart were seen to differ by 60 % when the host
    /// changed state between them.
    fn time(&mut self, span: &'static str, mut f: impl FnMut()) -> f64 {
        (0..self.reps())
            .map(|_| {
                let id = self.tracer.begin(span, self.parent, 0);
                let t = Instant::now();
                f();
                let s = t.elapsed().as_secs_f64();
                self.tracer.end(id);
                s
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Time `f` under span `span` and record it as `<span><suffix>`, in
    /// `unit`s of `scale` per second.
    fn probe(
        &mut self,
        span: &'static str,
        suffix: &str,
        scale: f64,
        unit: &'static str,
        f: impl FnMut(),
    ) {
        let s = self.time(span, f);
        self.ledger.set(&format!("{span}{suffix}"), s * scale, unit);
    }

    /// Take over the records of a served workload's own cycles.
    pub fn absorb(
        &mut self,
        workload: &'static str,
        records: Vec<JobRecord>,
        stats: ServeStats,
        served_secs: f64,
    ) {
        if records.iter().any(|r| r.tags.served) {
            self.ledger.served_secs += served_secs;
        }
        self.ledger.jobs.extend(records);
        self.ledger.fold_stats(stats);
        self.absorbed.push(workload);
    }

    /// The serial layer ladder on `base`'s problem.
    pub fn serial_ladder<T: Real>(&mut self, base: &StencilSim<T>, cfg: AbftConfig<T>) {
        let (nx, ny, nz) = base.dims();
        let grid = base.current();
        // Nanoseconds per cell, from seconds per whole-grid call.
        let per_cell = 1e9 / grid.len() as f64;
        let ns_per_cell = "_ns_per_cell";

        // abft-grid
        self.probe("grid.clone", ns_per_cell, per_cell, "ns", || {
            black_box(grid.clone());
        });

        // abft-stencil
        let mut sim = base.clone();
        let mut col = vec![T::ZERO; nz * ny];
        let mut row = vec![T::ZERO; nz * nx];
        self.probe("stencil.step", ns_per_cell, per_cell, "ns", || sim.step());
        self.probe("stencil.step_col", ns_per_cell, per_cell, "ns", || {
            sim.step_with_col(&NoHook, &mut col)
        });
        self.probe("stencil.step_rowcol", ns_per_cell, per_cell, "ns", || {
            sim.step_with_rowcol(&NoHook, &mut row, &mut col)
        });
        let mut par = base.clone().with_exec(Exec::Parallel);
        self.probe("stencil.step_par2", ns_per_cell, per_cell, "ns", || {
            par.step()
        });
        drop(par);
        self.ledger
            .set("stencil.taps", base.stencil().len() as f64, "count");
        // Compulsory traffic only — one read of the source, one write of
        // the destination, one read of the constant term — computed from
        // array sizes, not measured: caches and write-allocate are ignored.
        let arrays = 2 + usize::from(base.constant().is_some());
        self.ledger.set(
            "stencil.bytes_per_cell_computed",
            (arrays * std::mem::size_of::<T>()) as f64,
            "B",
        );

        // abft-core
        self.probe("core.checksum_col", ns_per_cell, per_cell, "ns", || {
            compute_col_into(grid, &mut col)
        });
        let interp = Interpolator::new(base.stencil(), base.bounds(), base.constant(), base.dims());
        let mut next = vec![T::ZERO; nz * ny];
        self.probe("core.interpolate", ns_per_cell, per_cell, "ns", || {
            interp.interpolate_col(&col, &StripSet::Grid(grid), &NoGhosts, &mut next)
        });
        self.probe(
            "core.detect",
            "_ns_per_layer",
            1e9 / nz as f64,
            "ns",
            || {
                for z in 0..nz {
                    let layer = z * ny..(z + 1) * ny;
                    black_box(compare_vectors(
                        &next[layer.clone()],
                        &col[layer],
                        cfg.epsilon,
                        cfg.abs_floor,
                    ));
                }
            },
        );
        let mut sim = base.clone();
        self.probe("core.online_new", "_ms", 1e3, "ms", || {
            black_box(OnlineAbft::new(&sim, cfg));
        });
        let mut abft = OnlineAbft::new(&sim, cfg);
        self.probe("core.online_step", ns_per_cell, per_cell, "ns", || {
            black_box(abft.step(&mut sim, &NoHook));
        });
        // What one detect → locate → correct costs: a protected step
        // whose hook strikes, minus the same step whose hook never does.
        let strike = |x: usize| {
            FlipHook::<T>::new(BitFlip {
                iteration: 0,
                x,
                y: ny / 2,
                z: nz / 2,
                bit: T::MANTISSA_BITS - 1,
            })
        };
        // The two are timed turn and turn about, so that the host's state
        // is the same for both as nearly as can be.
        let idle = strike(usize::MAX);
        let (mut miss, mut hit) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..self.reps() {
            let t = Instant::now();
            self.tracer
                .scope("core.online_step_hooked", self.parent, 0, |_| {
                    black_box(abft.step(&mut sim, &idle));
                });
            miss = miss.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            self.tracer
                .scope("core.online_step_struck", self.parent, 0, |_| {
                    black_box(abft.step(&mut sim, &strike(nx / 2)));
                });
            hit = hit.min(t.elapsed().as_secs_f64());
        }
        self.ledger.set(
            "core.correct_us_per_event",
            (hit - miss).max(0.0) * 1e6,
            "us",
        );

        // abft-checkpoint (the ring the distributed ranks snapshot into)
        let mut ring = EpochRing::<T>::new(2);
        let mut epoch = 0;
        self.probe("checkpoint.store", ns_per_cell, per_cell, "ns", || {
            ring.store(grid, &col, epoch);
            epoch += 1;
        });
        let mut target = grid.clone();
        let latest = ring.latest_epoch().expect("just stored");
        self.probe("checkpoint.restore", ns_per_cell, per_cell, "ns", || {
            target.copy_from(&ring.restore(latest).grid);
        });
        self.ledger.set(
            "checkpoint.bytes_per_snapshot",
            (ring.bytes() / ring.len()) as f64,
            "B",
        );

        // abft-hotspot: the paper workload's builder at this problem's size.
        let params = HotspotParams::new(nx, ny, nz);
        let seed = self.seed;
        self.probe("hotspot.build_sim", "_ms", 1e3, "ms", || {
            black_box(build_sim::<f32>(&params, seed, Exec::Serial));
        });
    }

    /// The probes that do not depend on the workload's problem.
    pub fn shared_probes(&mut self) {
        // abft-metrics: a guard — nothing should move it.
        const PUSHES: usize = 100_000;
        self.probe("metrics.p2_push", "_ns", 1e9 / PUSHES as f64, "ns", || {
            let mut q = P2Quantile::new(0.5);
            for i in 0..PUSHES {
                q.push(((i * 7919) % 1013) as f64);
            }
            black_box(q.estimate());
        });

        self.service_lifecycle();
        if !self.absorbed.contains(&"dist-halo") {
            self.lab_cycles::<Served<DistHalo>>("dist-halo");
        }
        if !self.absorbed.contains(&"served-mix") {
            self.lab_cycles::<Served<ServedMix>>("served-mix");
        }
    }

    /// A few cycles of a served workload, for its records only.
    fn lab_cycles<W: Workload>(&mut self, name: &'static str) {
        let span = self.tracer.begin("lab", self.parent, 0);
        let mut w = W::construct(self.seed);
        w.prepare();
        for cycle in 0..self.reps().min(3) {
            for kind in Kind::ALL {
                let out = w.slice(kind, cycle, self.tracer, span);
                if let Some(why) = &out.first_failure {
                    eprintln!("[lab {name}] cycle {cycle} {kind:?}: {why}");
                }
                self.ledger.failures += out.failed;
            }
        }
        w.hand_over(self);
        w.shutdown();
        self.tracer.end(span);
    }

    /// Run one lab job, check it as a clean protected run, record it;
    /// returns its latency on the caller's clock.
    fn lab_job(
        &mut self,
        tags: Tags,
        expected: &[f64],
        run: impl FnOnce() -> Result<DistReport<f64>, DistError>,
    ) -> f64 {
        let t = Instant::now();
        let result = run();
        let latency = t.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                if let Err((_, why)) = check(Kind::Protected, 0, 0, &report, expected) {
                    eprintln!("[lab] {why}");
                    self.ledger.failures += 1;
                }
                self.ledger
                    .jobs
                    .push(JobRecord::new(tags, latency, &report));
            }
            Err(e) => {
                eprintln!("[lab] {e}");
                self.ledger.failures += 1;
            }
        }
        latency
    }

    /// `service.new` → a tiny job through a cold topology cache and again
    /// warm → the dist-halo job → its `k = 4` and snapshot variants →
    /// `service.shutdown` → the same job one-shot (`run_distributed`).
    fn service_lifecycle(&mut self) {
        let span = self.tracer.begin("lab", self.parent, 0);
        let (k1, k4) = (dist_halo::job(self.seed, 1), dist_halo::job(self.seed, 4));
        let job = |k: usize| if k == 1 { &k1 } else { &k4 };
        let spec = |k: usize| job(k).protected(dist_halo::PERIOD);
        let tags = |k: usize| Tags {
            protected: true,
            ..job(k).tags
        };
        let expected = {
            let mut sim = job(1).serial_sim();
            for _ in 0..dist_halo::SWEEPS {
                sim.step();
            }
            sim.current().as_slice().to_vec()
        };
        let (mut new_s, mut down_s) = (f64::INFINITY, f64::INFINITY);
        let (mut cold_s, mut warm_s) = (f64::INFINITY, f64::INFINITY);
        let tiny = {
            let (initial, stencil, bounds) = dist_halo::problem(self.seed, (32, 32, 4));
            JobSpec::over(initial, stencil)
                .with_bounds(bounds)
                .with_ranks(2)
                .with_grid(1, 2)
                .with_iters(4)
        };
        for _ in 0..self.reps().min(5) {
            let t = Instant::now();
            let service = self.tracer.scope("service.new", span, 0, |_| {
                DistService::<f64>::new(POOL).expect("a non-empty pool")
            });
            new_s = new_s.min(t.elapsed().as_secs_f64());

            let pooled = |spec: JobSpec<f64>| service.submit(spec).and_then(|h| h.wait());
            // What a topology-cache miss costs shows on a job short enough
            // for it to matter: the same tiny job cold, then warm.
            for latency in [&mut cold_s, &mut warm_s] {
                let t = Instant::now();
                if let Err(e) = pooled(tiny.clone()) {
                    eprintln!("[lab] tiny job: {e}");
                    self.ledger.failures += 1;
                }
                *latency = latency.min(t.elapsed().as_secs_f64());
            }
            self.lab_job(tags(1), &expected, || pooled(spec(1)));
            self.lab_job(tags(4), &expected, || pooled(spec(4)));
            let snapshot = Tags {
                snapshot: true,
                ..tags(1)
            };
            self.lab_job(snapshot, &expected, || {
                pooled(spec(1).with_mode(HaloMode::Snapshot))
            });
            self.ledger.fold_stats(service.stats());

            let t = Instant::now();
            self.tracer
                .scope("service.shutdown", span, 0, |_| service.shutdown());
            down_s = down_s.min(t.elapsed().as_secs_f64());

            let oneshot = Tags {
                oneshot: true,
                ..tags(1)
            };
            let s = spec(1);
            self.lab_job(oneshot, &expected, || {
                run_distributed(&s.initial, &s.stencil, &s.bounds, None, &s.cfg)
            });
        }
        self.ledger.set("service.new_ms", new_s * 1e3, "ms");
        self.ledger.set("service.shutdown_ms", down_s * 1e3, "ms");
        // The fastest cold job over the fastest warm one.
        self.ledger.set(
            "service.topology_miss_ms",
            (cold_s - warm_s).max(0.0) * 1e3,
            "ms",
        );
        self.tracer.end(span);
    }
}
