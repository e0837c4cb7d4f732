//! The four workloads and the cycle engine that measures them.
//!
//! A run is set-up, then cycles of four adjacent slices of fixed work:
//! `Y` the yardstick (the frozen reference sweep on the workload's own
//! problem), `U` unprotected, `P` protected clean, `F` protected under the
//! seeded fault plan. Slice order rotates per cycle. Every speed metric is
//! a **ratio of two slices' undisturbed times** — the lower decile of each
//! slice's times over the cycles — so the host's speed cancels, which
//! absolute throughput on a shared 2-vCPU host does not survive, and the
//! neighbours' bursts are stepped under, which a median does not do
//! (see README, "Noise").

pub mod box27;
pub mod dist_halo;
pub mod hotspot;
pub mod serial;
pub mod served;
pub mod service;

use std::time::{Duration, Instant};

use abft_grid::Grid3D;

use crate::lab::Ledger;
use crate::reference::{Problem, Scalar};
use crate::rng::Rng;
use crate::stats::{median, quantile, spread};
use crate::trace::{SpanId, Tracer};

/// A seeded field of values in `[40, 80)`: rough on purpose (diffusion
/// kernels smooth it, so every sweep changes every cell) and bounded away
/// from zero (so every planned flip has a predictable magnitude).
pub fn field(seed: u64, stream: u64, dims: (usize, usize, usize)) -> Grid3D<f64> {
    let mut rng = Rng::new(seed, stream);
    Grid3D::from_fn(dims.0, dims.1, dims.2, |_, _, _| 40.0 + 40.0 * rng.unit())
}

/// The yardstick slice: a fixed number of reference sweeps over a
/// workload's problem, ping-ponged between two buffers it owns.
pub struct Yardstick<T> {
    problem: Problem<T>,
    buffers: [Vec<T>; 2],
    sweeps: usize,
}

impl<T: Scalar> Yardstick<T> {
    pub fn new(problem: Problem<T>, sweeps: usize) -> Self {
        assert!(sweeps >= 1, "a yardstick slice sweeps at least once");
        let cells = problem.cells();
        Self {
            buffers: [vec![T::default(); cells], vec![T::default(); cells]],
            problem,
            sweeps,
        }
    }

    /// The problem, as the reference sweep states it.
    pub fn problem(&self) -> &Problem<T> {
        &self.problem
    }

    /// One timed slice from `initial`: `(seconds, cell updates)`.
    pub fn run(&mut self, initial: &[T]) -> (f64, f64) {
        let [a, b] = &mut self.buffers;
        let t = Instant::now();
        self.problem.sweep(initial, a);
        for _ in 1..self.sweeps {
            self.problem.sweep(a, b);
            std::mem::swap(a, b);
        }
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&a[0]);
        (secs, (self.problem.cells() * self.sweeps) as f64)
    }
}

/// The three jobs a cycle compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No protection.
    Unprotected,
    /// Online ABFT after every sweep (plus checkpoints where ranks can be
    /// lost), no fault.
    Protected,
    /// As `Protected`, under the seeded fault plan.
    Faulted,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Unprotected, Kind::Protected, Kind::Faulted];

    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Unprotected => "slice:U",
            Kind::Protected => "slice:P",
            Kind::Faulted => "slice:F",
        }
    }
}

/// What the faults of a slice did, counted where they happen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Faults the plan scheduled.
    pub injected: u64,
    /// Faults observed to strike (a hook's own record, a detection, a
    /// reported rank loss).
    pub fired: u64,
    pub detections: u64,
    pub corrections: u64,
    /// Detections in a run that had no fault.
    pub false_positives: u64,
}

impl FaultCounts {
    pub fn add(&mut self, o: &FaultCounts) {
        self.injected += o.injected;
        self.fired += o.fired;
        self.detections += o.detections;
        self.corrections += o.corrections;
        self.false_positives += o.false_positives;
    }
}

/// One timed slice. Only `parts` are timed; the checks behind `failed`
/// ran after the clock stopped.
#[derive(Debug, Clone, Default)]
pub struct SliceOutcome {
    /// Seconds of the slice's timed parts, in order (the same number of
    /// parts in every cycle; most slices are one part).
    pub parts: Vec<f64>,
    pub cell_updates: f64,
    /// Jobs run (an op is one U/P/F job).
    pub attempted: u64,
    /// Jobs that returned an error, a wrong grid or a missed fault.
    pub failed: u64,
    pub faults: FaultCounts,
    /// Why the first failing job failed, for the log.
    pub first_failure: Option<String>,
}

impl SliceOutcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

pub trait Workload: Sized {
    /// One cold construction: generated inputs → ready system → the first
    /// protected job has returned. Timed as `setup_s`.
    fn construct(seed: u64) -> Self;

    /// Untimed: compute what the checks compare against. `false` when the
    /// library's serial run and the reference sweep disagree on them — the
    /// engine then counts every op as failed.
    fn prepare(&mut self) -> bool;

    /// Timed yardstick slice: `(seconds, cell updates)`.
    fn yardstick(&mut self) -> (f64, f64);

    /// One timed slice of `kind` in cycle `cycle`.
    fn slice(&mut self, kind: Kind, cycle: usize, tracer: &Tracer, parent: SpanId) -> SliceOutcome;

    /// Traced runs only: the per-layer probes on this workload's problem,
    /// then [`Workload::hand_over`].
    fn layers(&mut self, lab: &mut crate::lab::Lab<'_>);

    /// Traced runs only: give the lab what the cycles' jobs reported
    /// (nothing, for a workload that serves no jobs).
    fn hand_over(&mut self, _lab: &mut crate::lab::Lab<'_>) {}

    /// Stop whatever `construct` started.
    fn shutdown(self) {}
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two cycles and minimal probes: for the schema test.
    pub smoke: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Cold constructions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A run never reports from fewer cycles than one full rotation.
const MIN_CYCLES: usize = 4;
/// Share of a traced run's time given to cycles; the probes get the rest.
const TRACED_CYCLE_SHARE: f64 = 0.5;
/// The quantile of a slice's times over the cycles that stands for "this
/// slice, undisturbed". Interference on a shared host only ever *adds*
/// time, in bursts that hit single slices: the median moves with how busy
/// the neighbours are and the minimum hangs on one lucky sample, while the
/// lower decile sits below the bursts and on several samples. Measured on
/// the reference host (README, "Noise"): 1–3 % run-to-run spread for
/// ratios of lower deciles against 6–9 % for medians of per-cycle ratios.
const UNDISTURBED: f64 = 0.10;

/// The four slices of a cycle, in the order their times are kept.
const SLICES: [&str; 4] = ["Y", "U", "P", "F"];

/// What the cycles observed.
#[derive(Debug, Default)]
struct Cycles {
    /// Seconds of every timed part of the Y, U, P and F slices:
    /// `parts[slice][part][cycle]`.
    parts: [Vec<Vec<f64>>; 4],
    /// Cell updates of one Y, U, P and F slice (fixed work: the same in
    /// every cycle).
    cells: [f64; 4],
    /// The P slices' parts in the cycles that ran with the tracer on:
    /// `[part][traced cycle]`.
    traced_p: Vec<Vec<f64>>,
}

/// Seconds of a slice undisturbed: the sum over its parts of the lower
/// decile of each part's times.
fn undisturbed(parts: &[Vec<f64>]) -> f64 {
    parts
        .iter()
        .map(|series| quantile(series, UNDISTURBED))
        .sum()
}

/// Append one cycle's part times to their series.
fn push_parts(series: &mut Vec<Vec<f64>>, parts: &[f64]) {
    series.resize(parts.len(), Vec::new());
    for (s, &secs) in series.iter_mut().zip(parts) {
        s.push(secs);
    }
}

impl Cycles {
    fn record(&mut self, i: usize, parts: &[f64], cells: f64) {
        push_parts(&mut self.parts[i], parts);
        self.cells[i] = cells;
    }

    /// Seconds of slice `i` in every cycle, parts summed.
    fn per_cycle(&self, i: usize) -> Vec<f64> {
        let cycles = self.parts[i].first().map_or(0, Vec::len);
        (0..cycles)
            .map(|c| self.parts[i].iter().map(|series| series[c]).sum())
            .collect()
    }

    /// Cell updates per second of slice `i`, undisturbed.
    fn rate(&self, i: usize) -> f64 {
        self.cells[i] / undisturbed(&self.parts[i])
    }

    /// Slice `i`'s rate over the yardstick's.
    fn speedup(&self, i: usize) -> f64 {
        self.rate(i) / self.rate(0)
    }

    /// `t_U / t_P`, both undisturbed: the paper's "< 8 % overhead" reads
    /// `≥ 0.926` here.
    fn efficiency(&self) -> f64 {
        undisturbed(&self.parts[1]) / undisturbed(&self.parts[2])
    }
}

/// The traced run's metrics: the lab's, then what the cycles counted.
fn per_layer_metrics(
    ledger: &Ledger,
    faults: &FaultCounts,
    obs: &Cycles,
    tracer: &Tracer,
) -> Vec<Metric> {
    let mut m = ledger.metrics();
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    m.push(count("core.detections", faults.detections));
    m.push(count("core.corrections", faults.corrections));
    m.push(count("core.false_positives", faults.false_positives));
    m.push(count("fault.injected", faults.injected));
    m.push(count("fault.fired", faults.fired));
    m.push(Metric::new(
        "abs.unprotected_mcups",
        obs.rate(1) / 1e6,
        "Mcell/s",
    ));
    m.push(Metric::new(
        "abs.protected_mcups",
        obs.rate(2) / 1e6,
        "Mcell/s",
    ));
    m.push(Metric::new(
        "abs.faulted_mcups",
        obs.rate(3) / 1e6,
        "Mcell/s",
    ));
    m.push(Metric::new("yardstick.mcups", obs.rate(0) / 1e6, "Mcell/s"));
    // How disturbed this run was: the yardstick does the same work every
    // cycle, so the spread of its times is the host's.
    m.push(Metric::new(
        "yardstick.spread",
        spread(&obs.per_cycle(0)),
        "ratio",
    ));
    // The P slice of traced cycles over that of all cycles of this same
    // process (half of which recorded nothing).
    let overhead = if obs.traced_p.is_empty() {
        0.0
    } else {
        (undisturbed(&obs.traced_p) / undisturbed(&obs.parts[2]) - 1.0) * 100.0
    };
    m.push(Metric::new("trace.overhead_pct", overhead, "%"));
    m.push(count("trace.spans", tracer.span_count() as u64));
    m.push(count("host.nproc", crate::host::nproc() as u64));
    m.push(Metric::new(
        "host.cpu_pressure_avg10",
        crate::host::cpu_pressure_avg10(),
        "%",
    ));
    m
}

/// Construct the workload cold [`SETUP_REPS`] times (twice in a smoke run),
/// stopping each before building the next; returns the last one and every
/// construction's seconds.
fn cold_constructions<W: Workload>(
    opts: &Options,
    tracer: &Tracer,
    run_span: SpanId,
) -> (W, Vec<f64>) {
    let reps = if opts.smoke { 2 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built: Option<W> = None;
    for _ in 0..reps {
        if let Some(old) = built.take() {
            old.shutdown();
        }
        let span = tracer.begin("setup", run_span, 0);
        let t = Instant::now();
        let w = W::construct(opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        built = Some(w);
    }
    (built.expect("at least one construction"), setup_s)
}

pub fn run<W: Workload>(name: &'static str, opts: &Options) -> RunOutput {
    let started = Instant::now();
    let tracer = Tracer::new(opts.trace);
    let run_span = tracer.begin("run", None, 0);

    let (mut w, setup_s) = cold_constructions::<W>(opts, &tracer, run_span);
    let oracle_ok = tracer.scope("prepare", run_span, 0, |_| w.prepare());
    if !oracle_ok {
        eprintln!("[{name}] library serial run and reference sweep disagree: every op fails");
    }

    // --- cycles ---------------------------------------------------------
    let share = if opts.trace { TRACED_CYCLE_SHARE } else { 1.0 };
    let deadline = started + Duration::from_secs_f64(opts.seconds * share);
    let mut obs = Cycles::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut faults = FaultCounts::default();
    let mut cycle = 0usize;
    loop {
        let enough = if opts.smoke {
            cycle >= 2
        } else {
            cycle >= MIN_CYCLES && Instant::now() >= deadline
        };
        if enough {
            break;
        }
        // A traced run records every other cycle, so the same process
        // prices its own tracing.
        let traced = opts.trace && cycle.is_multiple_of(2);
        tracer.set_on(traced);
        let cycle_span = tracer.begin("cycle", run_span, 0);
        // Slice order rotates, so no slice always runs after the same one.
        for slot in 0..4 {
            let i = (slot + cycle) % 4;
            if i == 0 {
                let span = tracer.begin("slice:Y", cycle_span, 0);
                let (secs, cells) = w.yardstick();
                tracer.end(span);
                obs.record(0, &[secs], cells);
                continue;
            }
            let kind = Kind::ALL[i - 1];
            let span = tracer.begin(kind.span_name(), cycle_span, 0);
            let out = w.slice(kind, cycle, &tracer, span);
            tracer.end(span);
            obs.record(i, &out.parts, out.cell_updates);
            if traced && kind == Kind::Protected {
                push_parts(&mut obs.traced_p, &out.parts);
            }
            attempted += out.attempted;
            failed += if oracle_ok { out.failed } else { out.attempted };
            faults.add(&out.faults);
            if let Some(why) = &out.first_failure {
                eprintln!("[{name}] cycle {cycle} {kind:?}: {why}");
            }
        }
        tracer.end(cycle_span);
        cycle += 1;
    }
    tracer.set_on(opts.trace);

    // --- per-layer probes (traced runs) ----------------------------------
    let mut ledger = Ledger::default();
    if opts.trace {
        let mut lab = crate::lab::Lab::new(
            opts.seed,
            opts.smoke,
            started + Duration::from_secs_f64(opts.seconds),
            &tracer,
            run_span,
            &mut ledger,
        );
        w.layers(&mut lab);
        lab.shared_probes();
    }
    w.shutdown();
    tracer.end(run_span);
    failed += ledger.failures;

    let metrics = if opts.trace {
        per_layer_metrics(&ledger, &faults, &obs, &tracer)
    } else {
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("unprotected_speedup", obs.speedup(1), "x"),
            Metric::new("protected_speedup", obs.speedup(2), "x"),
            Metric::new("faulted_speedup", obs.speedup(3), "x"),
            Metric::new("protection_efficiency", obs.efficiency(), "ratio"),
            Metric::new("peak_rss_mb", crate::host::peak_rss_mib(), "MiB"),
        ]
    };

    if opts.trace {
        let path = crate::out_dir().join(format!("{name}.trace.json"));
        match tracer.write_chrome(&path) {
            Ok(()) => eprintln!(
                "[{name}] trace: {} spans -> {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => {
                // The trace file is a deliverable of the traced run.
                eprintln!("[{name}] cannot write {}: {e}", path.display());
                failed += 1;
            }
        }
        for (span, t) in tracer.totals() {
            eprintln!(
                "[{name}] span {span:<24} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
    }
    if faults.fired != faults.injected {
        eprintln!(
            "[{name}] fault plan mismatch: {} injected, {} fired",
            faults.injected, faults.fired
        );
    }
    let slices: Vec<String> = SLICES
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{s} {:.3}/{:.3}",
                undisturbed(&obs.parts[i]),
                median(&obs.per_cycle(i))
            )
        })
        .collect();
    eprintln!(
        "[{name}] {cycle} cycles, {attempted} ops, {failed} failed, {:.1} s; \
         slice seconds, undisturbed/median: {}",
        started.elapsed().as_secs_f64(),
        slices.join(", ")
    );
    RunOutput {
        correct: failed == 0 && faults.fired == faults.injected,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}
