//! The serving layer: a pool-scoped [`DistService`] that runs a stream of
//! independent protected simulations on one persistent rank pool,
//! **concurrently** when their rank demands fit. Rank lifetime is
//! decoupled from job lifetime, and job order from slot order:
//!
//! * [`DistService::new`] spawns `pool` worker threads (one rank slot
//!   each, parked between tasks) plus one scheduler thread.
//! * [`DistService::submit`] validates a [`JobSpec`] synchronously, so a
//!   malformed job is rejected with a [`DistError`](crate::DistError)
//!   before it can reach (and panic inside) a worker; a full admission
//!   queue rejects with `QueueFull`, and [`DistService::submit_wait`]
//!   blocks for room instead.
//! * Every scheduling decision is made by a thread-free core
//!   ([`crate::sched`]): admission onto free slots with bounded
//!   overtaking, the recovery barrier, retirement. The scheduler thread
//!   is its shell: it owns the workers, the topology cache, the handles'
//!   shared state and each job's spec, `Job` and steppers, runs the
//!   core's actions on them and feeds their outcomes back. A
//!   [`HaloMode::Snapshot`] job takes no slots: the scheduler thread runs
//!   its ranks in lock-step.
//! * The returned [`JobHandle`] streams the result (`wait`, `try_result`,
//!   `on_complete`); [`DistService::shutdown`] (or drop) drains the queue,
//!   finishes in-flight jobs and joins the pool.
//!
//! Co-scheduling changes *when* a job runs, never *what* it computes:
//! every job gets fresh rank state and its own checked-out channel set,
//! and only immutable halo plans are shared between concurrent jobs
//! (`serve_equivalence.rs` holds results bitwise under randomized
//! concurrent mixes). A rank panic is caught in its worker (a lock-step
//! job's, in the scheduler) and cascades through the dropped channels to
//! the job's other ranks; the job fails with
//! [`DistError::RankPanicked`](crate::DistError::RankPanicked), its
//! possibly-stale topology entry is discarded, and the pool serves on.

use crate::pipeline::TopologyCache;
use crate::sched::{Action, Event, SchedCore, ServeStats};
use crate::step::{self, Job, RankExit, RankStepper};
use crate::worker::{self, RankTask, TaskDone};
use crate::{validate, DistConfig, DistError, DistReport, GridSpec, HaloMode};
use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_fault::{BitFlip, RankKill};
use abft_grid::{BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::Stencil3D;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Identifier of one submitted job; the raw form behind a [`JobHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw job number (monotonically increasing per service).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job #{}", self.0)
    }
}

/// Construction-time configuration of a [`DistService`].
///
/// ```
/// use abft_dist::{DistService, ServiceConfig};
///
/// let service =
///     DistService::<f64>::with_config(ServiceConfig::new(8).with_queue_capacity(32))?;
/// assert_eq!(service.pool_size(), 8);
/// assert_eq!(service.queue_capacity(), 32);
/// service.shutdown();
/// # Ok::<(), abft_dist::DistError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    pool: usize,
    queue_capacity: usize,
}

impl ServiceConfig {
    /// Capacity of the bounded admission queue when none is configured.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

    /// A pool of `pool` rank workers with the default queue capacity.
    pub fn new(pool: usize) -> Self {
        Self {
            pool,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
        }
    }

    /// Bound the admission queue: at most `capacity` jobs may be
    /// admitted-but-unfinished at once (clamped to at least 1 — a queue
    /// that can hold no job at all could never serve one).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// One complete unit of serving work: the domain, kernel, boundaries,
/// optional constant field and run configuration that
/// [`crate::run_distributed`] takes as separate arguments, owned so the
/// job can outlive the submitting call.
///
/// Built with [`JobSpec::over`] and the same `with_*` vocabulary as
/// [`DistConfig`] — `with_grid3`, `with_abft`, `with_flip`, `with_checkpoint`
/// and friends forward to the embedded config, so one-shot and pooled
/// call sites read identically:
///
/// ```
/// use abft_core::AbftConfig;
/// use abft_dist::JobSpec;
/// use abft_grid::Grid3D;
/// use abft_stencil::Stencil3D;
///
/// let job = JobSpec::over(
///     Grid3D::from_fn(8, 16, 2, |x, y, z| (x + y + z) as f64),
///     Stencil3D::seven_point(0.4, 0.1, 0.1, 0.1),
/// )
/// .with_ranks(4)
/// .with_iters(10)
/// .with_abft(AbftConfig::paper_defaults());
/// assert_eq!(job.cfg.ranks, 4);
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec<T: Real> {
    /// Initial global domain.
    pub initial: Grid3D<T>,
    /// Stencil kernel to sweep.
    pub stencil: Stencil3D<T>,
    /// Global boundary conditions.
    pub bounds: BoundarySpec<T>,
    /// Optional per-cell constant field (e.g. HotSpot's power map).
    pub constant: Option<Grid3D<T>>,
    /// Rank count, iterations, grid shape, protection and fault plan.
    pub cfg: DistConfig<T>,
}

impl<T: Real> JobSpec<T> {
    /// A single-rank, single-iteration, clamped-boundary job over
    /// `initial` with `stencil` — the builder's starting point; shape it
    /// with the `with_*` methods.
    pub fn over(initial: Grid3D<T>, stencil: Stencil3D<T>) -> Self {
        Self {
            initial,
            stencil,
            bounds: BoundarySpec::clamp(),
            constant: None,
            cfg: DistConfig::new(1, 1),
        }
    }

    /// Set the global boundary conditions (default: clamp).
    pub fn with_bounds(mut self, bounds: BoundarySpec<T>) -> Self {
        self.bounds = bounds;
        self
    }

    /// Attach a per-cell constant field (shape-checked at admission).
    pub fn with_constant(mut self, constant: Grid3D<T>) -> Self {
        self.constant = Some(constant);
        self
    }

    /// Replace the whole embedded [`DistConfig`] (for call sites that
    /// already built one — [`crate::run_distributed`] rides on this).
    pub fn with_dist(mut self, cfg: DistConfig<T>) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the number of simulated ranks.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.cfg.ranks = ranks;
        self
    }

    /// Set the number of stencil iterations.
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.cfg.iters = iters;
        self
    }

    /// Select the halo exchange strategy ([`DistConfig::with_mode`]).
    pub fn with_mode(mut self, mode: HaloMode) -> Self {
        self.cfg = self.cfg.with_mode(mode);
        self
    }

    /// Decompose over an explicit `rx × ry` rank grid
    /// ([`DistConfig::with_grid`]).
    pub fn with_grid(mut self, rx: usize, ry: usize) -> Self {
        self.cfg = self.cfg.with_grid(rx, ry);
        self
    }

    /// Decompose over an explicit `rx × ry × rz` rank-brick grid
    /// ([`DistConfig::with_grid3`]).
    pub fn with_grid3(mut self, rx: usize, ry: usize, rz: usize) -> Self {
        self.cfg = self.cfg.with_grid3(rx, ry, rz);
        self
    }

    /// Auto-factor the rank count into a near-square grid
    /// ([`DistConfig::with_auto_grid`]).
    pub fn with_auto_grid(mut self) -> Self {
        self.cfg = self.cfg.with_auto_grid();
        self
    }

    /// Set the rank-grid shape from a [`GridSpec`]
    /// ([`DistConfig::with_grid_spec`]).
    pub fn with_grid_spec(mut self, grid: GridSpec) -> Self {
        self.cfg = self.cfg.with_grid_spec(grid);
        self
    }

    /// Enable per-rank online ABFT protection
    /// ([`DistConfig::with_abft`]).
    pub fn with_abft(mut self, cfg: AbftConfig<T>) -> Self {
        self.cfg = self.cfg.with_abft(cfg);
        self
    }

    /// Inject one bit-flip in `rank`'s brick
    /// ([`DistConfig::with_flip`]).
    pub fn with_flip(mut self, rank: usize, flip: BitFlip) -> Self {
        self.cfg = self.cfg.with_flip(rank, flip);
        self
    }

    /// Arm periodic in-memory checkpointing, enabling rank-loss recovery
    /// ([`DistConfig::with_checkpoint`]).
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.cfg = self.cfg.with_checkpoint(policy);
        self
    }

    /// Kill one rank at the start of an iteration
    /// ([`DistConfig::with_rank_kill`]).
    pub fn with_rank_kill(mut self, kill: RankKill) -> Self {
        self.cfg = self.cfg.with_rank_kill(kill);
        self
    }

    /// Sweep `k` steps per halo exchange over a deep ghost shell
    /// ([`DistConfig::with_steps_per_exchange`]).
    pub fn with_steps_per_exchange(mut self, k: usize) -> Self {
        self.cfg = self.cfg.with_steps_per_exchange(k);
        self
    }

    /// Inject one bit-flip into `rank`'s received ghost shell mid-decay
    /// ([`DistConfig::with_shell_flip`]).
    pub fn with_shell_flip(mut self, rank: usize, flip: BitFlip) -> Self {
        self.cfg = self.cfg.with_shell_flip(rank, flip);
        self
    }
}

/// One job as the scheduler thread holds it from submission to
/// publication: what the core's actions run on, which the core never sees.
pub(crate) struct Payload<T: Real> {
    /// Dropped once the job's ranks are out (or with the payload): its
    /// grids are freed off the path to the ranks' start.
    spec: Option<JobSpec<T>>,
    submitted: Instant,
    started: Instant,
    job: Option<Job<T>>,
    /// Each rank's stepper while it is home (`None` while it is on a
    /// worker, or after a panic dropped it).
    steppers: Vec<Option<RankStepper<T>>>,
    /// The outcome, once an action has decided it.
    result: Option<Result<DistReport<T>, DistError>>,
}

/// Everything that rides the scheduler's single event channel. The
/// scheduler blocks on exactly one `recv`, so submissions from client
/// threads, completions from pool workers and the shutdown signal are
/// serialized into one deterministic event order.
//
// `Done` carries a rank's whole state home; boxing it would add an
// allocation per rank completion to save nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum SchedEvent<T: Real> {
    /// A validated job from [`DistService::submit`]: its id, slot demand
    /// and payload.
    Submit(u64, usize, Payload<T>),
    /// One rank's completion from a pool worker.
    Done(TaskDone<T>),
    /// Shutdown: finish the queue and in-flight jobs, then exit.
    Drain,
}

type Callback<T> = Box<dyn FnOnce(Result<DistReport<T>, DistError>) + Send>;

struct ServeState<T: Real> {
    /// Admitted but not yet completed job ids; its size is what the
    /// bounded admission queue caps.
    pending: HashSet<u64>,
    /// Completed jobs awaiting claim by their [`JobHandle`].
    done: HashMap<u64, Result<DistReport<T>, DistError>>,
    /// Streaming consumers registered via [`JobHandle::on_complete`].
    callbacks: HashMap<u64, Callback<T>>,
    stats: ServeStats,
}

impl<T: Real> Default for ServeState<T> {
    fn default() -> Self {
        Self {
            pending: HashSet::new(),
            done: HashMap::new(),
            callbacks: HashMap::new(),
            stats: ServeStats::default(),
        }
    }
}

struct Shared<T: Real> {
    state: Mutex<ServeState<T>>,
    cv: Condvar,
}

struct WorkerHandle<T: Real> {
    tx: Sender<RankTask<T>>,
    handle: JoinHandle<()>,
}

/// The claim on one submitted job's [`DistReport`].
///
/// The handle is deliberately **not** `Clone` and [`JobHandle::wait`]
/// consumes it: every job has exactly one claimant, which claims its
/// result exactly once, by construction.
///
/// Dropping a handle without claiming discards the report the moment the
/// job finishes; use [`JobHandle::on_complete`] to consume a
/// fire-and-forget job's result.
pub struct JobHandle<T: Real> {
    id: u64,
    shared: Arc<Shared<T>>,
    /// A result already moved out of the service by
    /// [`JobHandle::try_result`], kept so `wait` after a successful poll
    /// still returns it.
    taken: Option<Result<DistReport<T>, DistError>>,
}

impl<T: Real> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<T: Real> JobHandle<T> {
    /// The underlying [`JobId`] (for logs).
    pub fn id(&self) -> JobId {
        JobId(self.id)
    }

    /// Block until the job finishes and claim its report.
    ///
    /// # Errors
    /// The job's own failure (e.g. [`DistError::RankPanicked`]).
    pub fn wait(mut self) -> Result<DistReport<T>, DistError> {
        if let Some(result) = self.taken.take() {
            return result;
        }
        let state = self.shared.state.lock().unwrap();
        let unfinished = |state: &mut ServeState<T>| !state.done.contains_key(&self.id);
        let mut state = self.shared.cv.wait_while(state, unfinished).unwrap();
        state
            .done
            .remove(&self.id)
            .expect("woken by the job's result")
    }

    /// Non-blocking poll: `None` while the job is still queued or
    /// running, the (borrowed) result once it finished. The first
    /// `Some` moves the result into the handle, so later polls — and a
    /// final [`JobHandle::wait`] — keep answering without touching the
    /// service.
    pub fn try_result(&mut self) -> Option<&Result<DistReport<T>, DistError>> {
        if self.taken.is_none() {
            self.taken = self.shared.state.lock().unwrap().done.remove(&self.id);
        }
        self.taken.as_ref()
    }

    /// Stream the result: run `f` with the report the moment the job
    /// finishes (immediately, when it already has). The callback runs on
    /// the **scheduler thread** — keep it short and never block it on
    /// another job's completion, or the service stalls; a panicking
    /// callback is contained and ignored.
    pub fn on_complete<F>(mut self, f: F)
    where
        F: FnOnce(Result<DistReport<T>, DistError>) + Send + 'static,
    {
        let mut state = self.shared.state.lock().unwrap();
        match self.taken.take().or_else(|| state.done.remove(&self.id)) {
            Some(result) => {
                drop(state);
                f(result);
            }
            None => drop(state.callbacks.insert(self.id, Box::new(f))),
        }
    }
}

impl<T: Real> Drop for JobHandle<T> {
    /// Discard a result nobody can claim any more: remove it if the job
    /// has finished, else leave a callback that drops it when it does — a
    /// callback [`JobHandle::on_complete`] registered stays in place.
    fn drop(&mut self) {
        // A poisoned lock means the service is already failing loudly
        // elsewhere; a destructor must not add a second panic.
        let Ok(mut state) = self.shared.state.lock() else {
            return;
        };
        if state.done.remove(&self.id).is_none() && state.pending.contains(&self.id) {
            let callbacks = &mut state.callbacks;
            callbacks.entry(self.id).or_insert_with(|| Box::new(drop));
        }
    }
}

/// A persistent rank pool serving a stream of distributed stencil jobs
/// concurrently.
///
/// ```
/// use abft_dist::{DistService, JobSpec};
/// use abft_grid::Grid3D;
/// use abft_stencil::Stencil3D;
///
/// let service = DistService::<f64>::new(4)?;
/// let job = JobSpec::over(
///     Grid3D::from_fn(8, 16, 2, |x, y, z| (x + y + z) as f64),
///     Stencil3D::seven_point(0.4, 0.1, 0.1, 0.1),
/// )
/// .with_ranks(4)
/// .with_iters(10);
/// let handle = service.submit(job)?;
/// let report = handle.wait()?;
/// assert_eq!(report.global.dims(), (8, 16, 2));
/// service.shutdown();
/// # Ok::<(), abft_dist::DistError>(())
/// ```
pub struct DistService<T: Real> {
    to_scheduler: Option<Sender<SchedEvent<T>>>,
    scheduler: Option<JoinHandle<()>>,
    shared: Arc<Shared<T>>,
    next_id: AtomicU64,
    pool: usize,
    capacity: usize,
}

impl<T: Real> DistService<T> {
    /// Spawn a pool of `pool` persistent rank workers plus a scheduler,
    /// with the default queue capacity and concurrent scheduling
    /// (see [`ServiceConfig`]).
    ///
    /// # Errors
    /// [`DistError::NoRanks`] when `pool == 0`.
    pub fn new(pool: usize) -> Result<Self, DistError> {
        Self::with_config(ServiceConfig::new(pool))
    }

    /// Spawn a service from an explicit [`ServiceConfig`].
    ///
    /// # Errors
    /// [`DistError::NoRanks`] when the configured pool is empty.
    pub fn with_config(config: ServiceConfig) -> Result<Self, DistError> {
        if config.pool == 0 {
            return Err(DistError::NoRanks);
        }
        let (event_tx, event_rx) = channel();
        let workers: Vec<WorkerHandle<T>> = (0..config.pool)
            .map(|i| {
                let (tx, rx) = channel();
                let events = event_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("abft-serve-{i}"))
                    .spawn(move || worker::pool_worker(rx, events))
                    .expect("spawn pool worker");
                WorkerHandle { tx, handle }
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(ServeState::default()),
            cv: Condvar::new(),
        });
        let sched_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("abft-serve-scheduler".to_string())
            .spawn(move || Scheduler::new(sched_shared, workers).run(event_rx))
            .expect("spawn scheduler");
        Ok(Self {
            to_scheduler: Some(event_tx),
            scheduler: Some(scheduler),
            shared,
            next_id: AtomicU64::new(1),
            pool: config.pool,
            capacity: config.queue_capacity,
        })
    }

    /// Number of pooled rank workers.
    pub fn pool_size(&self) -> usize {
        self.pool
    }

    /// Capacity of the bounded admission queue (the maximum number of
    /// admitted-but-unfinished jobs).
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Admit one job and return its [`JobHandle`] immediately.
    ///
    /// Validation is synchronous, and it is the admission rule of
    /// [`crate::run_distributed`] too (empty grid, zero iterations,
    /// rank/grid fit, flip validity, checkpoint alignment, …): that call
    /// submits here. The one check that depends on the service rather
    /// than the spec is a pipelined job needing more ranks than the pool
    /// has workers ([`DistError::PoolTooSmall`] — such a job could never
    /// make progress, since every rank of a job must run concurrently).
    ///
    /// # Errors
    /// Any [`DistError`] admission failure — including
    /// [`DistError::QueueFull`] when the bounded queue is at capacity
    /// (use [`DistService::submit_wait`] to block instead). The job is
    /// not enqueued.
    pub fn submit(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, DistError> {
        self.admit(spec, false)
    }

    /// Like [`DistService::submit`], but **block** until the bounded
    /// queue has room instead of returning [`DistError::QueueFull`] —
    /// the lossless backpressure form for batch producers.
    ///
    /// # Errors
    /// Any non-capacity admission failure, as for `submit`.
    pub fn submit_wait(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, DistError> {
        self.admit(spec, true)
    }

    fn admit(&self, spec: JobSpec<T>, block: bool) -> Result<JobHandle<T>, DistError> {
        validate(
            &spec.initial,
            &spec.stencil,
            &spec.bounds,
            spec.constant.as_ref(),
            &spec.cfg,
        )?;
        // A pipelined job takes a pool slot per rank, a lock-step one none.
        let pipelined = spec.cfg.mode == HaloMode::Pipelined;
        let demand = if pipelined { spec.cfg.ranks } else { 0 };
        if demand > self.pool {
            let (ranks, pool) = (demand, self.pool);
            return Err(DistError::PoolTooSmall { ranks, pool });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.shared.state.lock().unwrap();
            let full = |state: &mut ServeState<T>| state.pending.len() >= self.capacity;
            if block {
                state = self.shared.cv.wait_while(state, full).unwrap();
            } else if full(&mut state) {
                state.stats.jobs_rejected += 1;
                let capacity = self.capacity;
                return Err(DistError::QueueFull { capacity });
            }
            state.pending.insert(id);
        }
        let now = Instant::now();
        let job = Payload {
            spec: Some(spec),
            submitted: now,
            started: now,
            job: None,
            steppers: Vec::new(),
            result: None,
        };
        let sender = self.to_scheduler.as_ref();
        let sender = sender.expect("service already shut down");
        if sender.send(SchedEvent::Submit(id, demand, job)).is_err() {
            // Scheduler already gone — only reachable mid-teardown.
            self.shared.state.lock().unwrap().pending.remove(&id);
            return Err(DistError::UnknownJob { id });
        }
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
            taken: None,
        })
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.state.lock().unwrap().stats
    }

    /// Drain the admission queue, finish in-flight jobs and join the
    /// pool. Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(tx) = self.to_scheduler.take() {
            let _ = tx.send(SchedEvent::Drain);
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl<T: Real> Drop for DistService<T> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The scheduler thread, the core's shell: it runs the [`SchedCore`]'s
/// actions on what they act on and feeds their outcomes back.
struct Scheduler<T: Real> {
    core: SchedCore,
    shared: Arc<Shared<T>>,
    workers: Vec<WorkerHandle<T>>,
    cache: TopologyCache<T>,
    jobs: HashMap<u64, Payload<T>>,
}

impl<T: Real> Scheduler<T> {
    fn new(shared: Arc<Shared<T>>, workers: Vec<WorkerHandle<T>>) -> Self {
        Self {
            core: SchedCore::new(workers.len()),
            shared,
            workers,
            cache: TopologyCache::new(),
            jobs: HashMap::new(),
        }
    }

    fn run(mut self, events: Receiver<SchedEvent<T>>) {
        while events.recv().is_ok_and(|event| self.handle(event)) {}
        // Service shut down: release each worker and join it.
        for worker in self.workers {
            drop(worker.tx);
            let _ = worker.handle.join();
        }
    }

    /// Take one event's payload in and run the core's actions, each
    /// outcome's own first (a built job is dispatched before the next one
    /// is built). `false` once the core says exit.
    fn handle(&mut self, event: SchedEvent<T>) -> bool {
        let event = match event {
            SchedEvent::Submit(id, demand, job) => {
                self.jobs.insert(id, job);
                Event::Submit { id, demand }
            }
            SchedEvent::Done(done) => {
                let (id, slot, idx) = (done.job, done.slot, done.idx);
                let end = done.result.map(|(stepper, exit)| {
                    if let Some(job) = self.jobs.get_mut(&id) {
                        job.steppers[idx] = Some(stepper);
                    }
                    exit
                });
                Event::RankDone { id, slot, idx, end }
            }
            SchedEvent::Drain => Event::Drain,
        };
        let mut todo = VecDeque::from(self.core.on(event));
        while let Some(action) = todo.pop_front() {
            if action == Action::Exit {
                return false;
            }
            if let Some(outcome) = self.perform(action) {
                for action in self.core.on(outcome).into_iter().rev() {
                    todo.push_front(action);
                }
            }
        }
        true
    }

    /// Run one action; a build or a rollback answers with its outcome.
    fn perform(&mut self, action: Action) -> Option<Event> {
        match action {
            Action::Build(id) => return Some(self.build(id)),
            Action::Dispatch(job, slots) => {
                let p = self.jobs.get_mut(&job).expect("job is known");
                for (stepper, slot) in p.steppers.iter_mut().map(Option::take).zip(slots) {
                    let stepper = stepper.expect("a dispatched rank is home");
                    let sent = self.workers[slot].tx.send(RankTask { job, slot, stepper });
                    sent.expect("pool worker hung up");
                }
                p.spec = None;
            }
            Action::RunLockstep(id) => self.conclude(id, true),
            Action::RollBack(id, exits) => return Some(self.roll_back(id, &exits)),
            Action::Finish(id) => self.conclude(id, false),
            Action::Publish(id, failure) => self.publish(id, failure),
            Action::Exit => {}
        }
        None
    }

    /// Build job `id` under a panic guard; a failed build decides its
    /// result.
    fn build(&mut self, id: u64) -> Event {
        let job = self.jobs.get_mut(&id).expect("job is known");
        job.started = Instant::now();
        let spec = job.spec.as_ref().expect("an unbuilt job holds its spec");
        let built = catch_unwind(AssertUnwindSafe(|| Job::build(spec, &mut self.cache)));
        let built = built.unwrap_or_else(|payload| {
            // Nothing reached the pool, but the cache may hold a
            // half-built entry under this job's key; other keys' entries
            // are whole.
            if let Ok(Ok((key, _))) = catch_unwind(AssertUnwindSafe(|| Job::key(spec))) {
                self.cache.discard(&key);
            }
            Err(panicked(payload))
        });
        match built {
            Ok((built, steppers)) => {
                job.job = Some(built);
                job.steppers = steppers.into_iter().map(Some).collect();
            }
            Err(e) => job.result = Some(Err(e)),
        }
        let ok = job.result.is_none();
        Event::Built { id, ok }
    }

    /// Run job `id` to its end in lock-step on this thread (pipelined jobs
    /// keep computing meanwhile; only scheduling decisions pause), or
    /// gather the report of ranks that all ran to the end on the pool. A
    /// panic fails the job and discards its topology entry.
    fn conclude(&mut self, id: u64, lockstep: bool) {
        let p = self.jobs.get_mut(&id).expect("job is known");
        let job = p.job.as_mut().expect("a concluded job was built");
        let steppers: Vec<_> = p.steppers.drain(..).flatten().collect();
        let (cache, wall_s) = (&mut self.cache, p.started.elapsed().as_secs_f64());
        let result = catch_unwind(AssertUnwindSafe(|| match lockstep {
            true => step::run_lockstep(job, steppers, cache),
            false => Ok(job.finish(steppers, cache, wall_s)),
        }));
        p.result = Some(result.unwrap_or_else(|payload| {
            self.cache.discard(&job.key);
            Err(panicked(payload))
        }));
    }

    /// One recovery round of job `id`, every rank home ([`Job::rollback`]);
    /// a failed round decides the job's result.
    fn roll_back(&mut self, id: u64, exits: &[Result<(), RankExit>]) -> Event {
        let p = self.jobs.get_mut(&id).expect("job is known");
        let job = p.job.as_mut().expect("a rolled-back job was built");
        let mut steppers: Vec<_> = p.steppers.drain(..).flatten().collect();
        let rolled = job.rollback(&mut steppers, exits, &mut self.cache);
        p.result = rolled.err().map(Err);
        p.steppers = steppers.into_iter().map(Some).collect();
        let ok = p.result.is_none();
        Event::RolledBack { id, ok }
    }

    /// Job `id` has left the core: stamp its result with the serving-layer
    /// timing split (or take the core's verdict), count it, hand it to a
    /// registered callback (outside the lock, panic-contained) or park it
    /// for the job's handle, and wake every waiter.
    fn publish(&mut self, id: u64, failure: Option<DistError>) {
        let p = self.jobs.remove(&id).expect("job is known");
        let mut result = match failure {
            // A rank died mid-exchange: the job's channels may hold stale
            // messages, so its topology entry cannot be reused.
            Some(e) => {
                let job = p.job.as_ref().expect("a dispatched job was built");
                self.cache.discard(&job.key);
                Err(e)
            }
            None => p.result.expect("an action decided the result"),
        };
        if let Ok(report) = result.as_mut() {
            report.queue_wait_s = p.started.duration_since(p.submitted).as_secs_f64();
            report.exec_s = p.started.elapsed().as_secs_f64();
            report.latency_s = p.submitted.elapsed().as_secs_f64();
        }
        let stats = &mut self.core.stats;
        if let Some(job) = &p.job {
            stats.rank_losses += job.recovery.rank_losses as u64;
            stats.recoveries += job.recovery.rollbacks as u64;
        }
        stats.jobs_completed += u64::from(result.is_ok());
        stats.jobs_failed += u64::from(result.is_err());
        (stats.topology_hits, stats.topology_misses) = (self.cache.hits, self.cache.misses);
        let mut state = self.shared.state.lock().unwrap();
        // Rejections are counted by the submitting threads, under the lock.
        let rejected = std::mem::replace(&mut state.stats, *stats).jobs_rejected;
        state.stats.jobs_rejected = rejected;
        state.pending.remove(&id);
        match state.callbacks.remove(&id) {
            Some(callback) => {
                drop(state);
                self.shared.cv.notify_all();
                // A panicking callback must not take down the scheduler.
                let _ = catch_unwind(AssertUnwindSafe(move || callback(result)));
            }
            None => {
                state.done.insert(id, result);
                drop(state);
                self.shared.cv.notify_all();
            }
        }
    }
}

/// A panic caught outside any one rank's containment.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> DistError {
    DistError::RankPanicked {
        rank: None,
        message: worker::panic_message(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{plan_admissions, MAX_OVERTAKES};
    use abft_core::AbftConfig;
    use abft_fault::BitFlip;
    use abft_stencil::{Exec, StencilSim};
    use std::sync::mpsc;

    fn field(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 13 + y * 31 + z * 7) % 23) as f64 * 0.75 - 4.0
        })
    }

    fn heat() -> Stencil3D<f64> {
        Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1)
    }

    fn job(ranks: usize, iters: usize) -> JobSpec<f64> {
        JobSpec::over(field(10, 16, 2), heat())
            .with_ranks(ranks)
            .with_iters(iters)
    }

    /// Submit a quick job whose completion callback blocks the scheduler
    /// thread until the returned sender fires — the deterministic way to
    /// line up submissions while the scheduler cannot run any of them.
    /// The job is given enough iterations that it cannot finish in the
    /// nanoseconds between `submit` returning and `on_complete`
    /// registering the callback.
    fn block_scheduler(service: &DistService<f64>) -> mpsc::Sender<()> {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let handle = service.submit(job(1, 400)).unwrap();
        handle.on_complete(move |result| {
            assert!(result.is_ok());
            entered_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        entered_rx.recv().unwrap();
        gate_tx
    }

    #[test]
    fn service_report_matches_the_one_shot_api_bitwise() {
        let service = DistService::<f64>::new(4).unwrap();
        let served = service.submit(job(4, 9)).unwrap().wait().unwrap();
        let fresh = crate::run_distributed(
            &field(10, 16, 2),
            &heat(),
            &BoundarySpec::clamp(),
            None,
            &DistConfig::new(4, 9),
        )
        .unwrap();
        assert_eq!(served.global, fresh.global);
        assert_eq!(served.grid, fresh.grid);
        assert!(served.latency_s > 0.0);
        assert!(served.exec_s > 0.0);
        assert!(served.queue_wait_s >= 0.0);
        assert!(served.latency_s >= served.queue_wait_s + served.exec_s - 1e-6);
        service.shutdown();
    }

    #[test]
    fn repeat_jobs_hit_the_topology_cache() {
        let service = DistService::<f64>::new(4).unwrap();
        let handles: Vec<JobHandle<f64>> =
            (0..4).map(|_| service.submit(job(4, 5)).unwrap()).collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 4);
        assert_eq!(stats.jobs_failed, 0);
        assert_eq!(stats.topology_misses, 1, "{stats:?}");
        assert_eq!(stats.topology_hits, 3, "{stats:?}");

        // A different domain shape is a genuine miss.
        let other = JobSpec::over(field(8, 12, 2), heat())
            .with_ranks(4)
            .with_iters(5);
        service.submit(other).unwrap().wait().unwrap();
        assert_eq!(service.stats().topology_misses, 2);
        // A loss with no checkpoint to roll back to fails its job.
        let lost = job(4, 5).with_rank_kill(RankKill::new(1, 2));
        let err = service.submit(lost).unwrap().wait().unwrap_err();
        assert_eq!(err, DistError::RankLost { rank: 1, iter: 2 });
        assert_eq!(service.stats().jobs_failed, 1);
        service.shutdown();
    }

    #[test]
    fn results_arrive_regardless_of_wait_order() {
        let service = DistService::<f64>::new(2).unwrap();
        let a = service.submit(job(2, 4)).unwrap();
        let b = service.submit(job(2, 7)).unwrap();
        let c = service.submit(job(1, 3)).unwrap();
        // Wait in reverse submit order; completion order is up to the
        // scheduler.
        let rc = c.wait().unwrap();
        let rb = b.wait().unwrap();
        let ra = a.wait().unwrap();
        assert_eq!(ra.ranks.len(), 2);
        assert_eq!(rb.ranks.len(), 2);
        assert_eq!(rc.ranks.len(), 1);
        service.shutdown();
    }

    #[test]
    fn try_result_polls_without_blocking_and_caches_the_claim() {
        let service = DistService::<f64>::new(2).unwrap();
        let mut handle = service.submit(job(2, 6)).unwrap();
        // Poll until done (single-core safe: the pool makes progress
        // while this thread sleeps).
        let mut polled = 0u32;
        while handle.try_result().is_none() {
            polled += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(polled < 60_000, "job never finished");
        }
        assert!(handle.try_result().unwrap().is_ok());
        // The claim is cached in the handle; wait() still answers.
        assert!(handle.wait().is_ok());
        service.shutdown();
    }

    #[test]
    fn on_complete_streams_the_report_from_the_scheduler() {
        let service = DistService::<f64>::new(2).unwrap();
        let (tx, rx) = mpsc::channel();
        service
            .submit(job(2, 5))
            .unwrap()
            .on_complete(move |result| {
                tx.send(result.map(|r| r.global.dims())).unwrap();
            });
        assert_eq!(rx.recv().unwrap().unwrap(), (10, 16, 2));
        // A callback registered after completion fires immediately on
        // the registering thread.
        let done = service.submit(job(1, 2)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (tx2, rx2) = mpsc::channel();
        done.on_complete(move |result| tx2.send(result.is_ok()).unwrap());
        assert!(rx2.recv().unwrap());
        service.shutdown();
    }

    #[test]
    fn a_full_queue_rejects_with_queue_full_and_counts_it() {
        let service =
            DistService::<f64>::with_config(ServiceConfig::new(1).with_queue_capacity(1)).unwrap();
        let gate = block_scheduler(&service);
        // The scheduler is parked in a callback: nothing below can start
        // or finish, so the capacity arithmetic is deterministic.
        let queued = service.submit(job(1, 2)).unwrap();
        let err = service.submit(job(1, 2)).unwrap_err();
        assert_eq!(err, DistError::QueueFull { capacity: 1 });
        assert_eq!(service.stats().jobs_rejected, 1);
        gate.send(()).unwrap();
        queued.wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn submit_wait_blocks_for_a_slot_instead_of_rejecting() {
        let service = std::sync::Arc::new(
            DistService::<f64>::with_config(ServiceConfig::new(1).with_queue_capacity(1)).unwrap(),
        );
        let gate = block_scheduler(&service);
        let queued = service.submit(job(1, 2)).unwrap();
        // submit_wait must block while the queue is full...
        let svc = std::sync::Arc::clone(&service);
        let waiter = std::thread::spawn(move || svc.submit_wait(job(1, 2)).unwrap().wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !waiter.is_finished(),
            "submit_wait returned on a full queue"
        );
        // ...and admit the job once capacity drains.
        gate.send(()).unwrap();
        queued.wait().unwrap();
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(service.stats().jobs_rejected, 0);
        std::sync::Arc::try_unwrap(service).ok().unwrap().shutdown();
    }

    #[test]
    fn queued_small_jobs_run_concurrently_on_free_slots() {
        let service = DistService::<f64>::new(4).unwrap();
        let gate = block_scheduler(&service);
        // Four 1-rank jobs pile up while the scheduler is parked; their
        // Submit events all precede any completion event, so one
        // admission pass starts all four side by side.
        let handles: Vec<JobHandle<f64>> =
            (0..4).map(|_| service.submit(job(1, 6)).unwrap()).collect();
        gate.send(()).unwrap();
        let reports: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        // Co-scheduling is invisible in the results...
        let fresh = crate::run_distributed(
            &field(10, 16, 2),
            &heat(),
            &BoundarySpec::clamp(),
            None,
            &DistConfig::new(1, 6),
        )
        .unwrap();
        for report in &reports {
            assert_eq!(report.global, fresh.global);
        }
        // ...but visible in the counters.
        assert_eq!(service.stats().peak_concurrent, 4);
        service.shutdown();
    }

    #[test]
    fn small_jobs_overtake_a_blocked_big_job_without_starving_it() {
        // Pool of 2: a 2-rank job runs, a second 2-rank job blocks, and
        // 1-rank jobs queued behind it... cannot overtake (no free
        // slots), but once the first finishes the blocked job and the
        // small ones all complete. The pure-policy tests below pin the
        // overtaking rules; this pins end-to-end completion.
        let service = DistService::<f64>::new(2).unwrap();
        let gate = block_scheduler(&service);
        let big_a = service.submit(job(2, 8)).unwrap();
        let big_b = service.submit(job(2, 8)).unwrap();
        let smalls: Vec<JobHandle<f64>> =
            (0..3).map(|_| service.submit(job(1, 3)).unwrap()).collect();
        gate.send(()).unwrap();
        big_a.wait().unwrap();
        big_b.wait().unwrap();
        for small in smalls {
            small.wait().unwrap();
        }
        assert_eq!(service.stats().jobs_completed, 6);
        service.shutdown();
    }

    #[test]
    fn plan_admits_everything_that_fits() {
        let mut queue = vec![(2, 0), (4, 0), (1, 0), (1, 0)];
        // 4 free: the 4-slot job blocks, both 1-slot jobs overtake it.
        let picks = plan_admissions(&mut queue, 4, MAX_OVERTAKES);
        assert_eq!(picks, vec![0, 2, 3]);
        assert_eq!(queue[1].1, 2, "blocked job was overtaken twice");
    }

    #[test]
    fn overtaking_stops_at_the_barrier() {
        // The blocked job has exhausted its overtake budget: nothing
        // behind it may start, even though it would fit.
        let mut queue = vec![(4, MAX_OVERTAKES), (1, 0)];
        assert_eq!(
            plan_admissions(&mut queue, 2, MAX_OVERTAKES),
            Vec::<usize>::new()
        );
        assert_eq!(queue[1].1, 0, "nothing overtook, so no counts moved");
        // One slot short of the barrier's demand: still nothing.
        assert_eq!(
            plan_admissions(&mut queue, 3, MAX_OVERTAKES),
            Vec::<usize>::new()
        );
        // Enough slots: the barrier job starts, and jobs behind it are
        // admitted again in the same pass.
        let picks = plan_admissions(&mut queue, 5, MAX_OVERTAKES);
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn jobs_admitted_before_the_barrier_forms_still_start() {
        // The first fit is admitted even though a later job then trips
        // its own barrier (an earlier queue position starting is not an
        // overtake, so the barrier's count stays put).
        let mut queue = vec![(1, 0), (4, MAX_OVERTAKES), (1, 0)];
        let picks = plan_admissions(&mut queue, 2, MAX_OVERTAKES);
        assert_eq!(picks, vec![0]);
        assert_eq!(
            queue[1].1, MAX_OVERTAKES,
            "in-order starts are not overtakes"
        );
        assert_eq!(queue[2].1, 0, "the job behind the barrier stays untouched");
    }

    #[test]
    fn snapshot_jobs_need_no_slots() {
        let mut queue = vec![(0, 0), (0, 0)];
        assert_eq!(plan_admissions(&mut queue, 0, MAX_OVERTAKES), vec![0, 1]);
    }

    /// What [`crate::run_distributed`] and [`DistService::submit`] make of
    /// the same `spec`, in that order: the final grid or the rejection.
    fn both_verdicts(
        service: &DistService<f64>,
        spec: JobSpec<f64>,
    ) -> [Result<Grid3D<f64>, DistError>; 2] {
        let one_shot = crate::run_distributed(
            &spec.initial,
            &spec.stencil,
            &spec.bounds,
            spec.constant.as_ref(),
            &spec.cfg,
        );
        let pooled = service.submit(spec).and_then(JobHandle::wait);
        [one_shot, pooled].map(|verdict| verdict.map(|report| report.global))
    }

    /// A kernel that reaches across an axis on one rank is refused at
    /// admission with a typed error, as one across a split axis is, and
    /// the refusal leaves the pool's cached topologies be.
    #[test]
    fn a_kernel_deeper_than_an_undecomposed_axis_is_refused_and_the_cache_survives() {
        let service = DistService::<f64>::new(2).unwrap();
        service.submit(job(2, 3)).unwrap().wait().unwrap();
        // 8×8×1 over two y-slabs: the 27-point kernel reaches a layer in z.
        let flat = JobSpec::over(field(8, 8, 1), Stencil3D::diffusion_27pt(0.02))
            .with_ranks(2)
            .with_iters(3);
        let err = service.submit(flat).and_then(JobHandle::wait).unwrap_err();
        let thin = DistError::BrickTooThin {
            rank: 0,
            layers: 1,
            extent: 1,
        };
        assert_eq!(err, thin);
        assert!(!err.to_string().contains("z-ranks"), "{err}");
        service.submit(job(2, 3)).unwrap().wait().unwrap();
        let stats = service.stats();
        let lookups = (stats.topology_misses, stats.topology_hits);
        assert_eq!(lookups, (1, 1), "{stats:?}");
        service.shutdown();
    }

    #[test]
    fn one_shot_and_pooled_admission_agree() {
        let service = DistService::<f64>::new(4).unwrap();
        let flip = BitFlip {
            iteration: 1,
            x: 0,
            y: 0,
            z: 0,
            bit: 40,
        };
        let wide_z = Stencil3D::from_tuples(&[(0, 0, -2, 0.5f64), (0, 0, 2, 0.5)]);
        let rejects: Vec<(JobSpec<f64>, DistError)> = vec![
            (job(2, 0), DistError::ZeroIterations),
            (
                job(4, 3).with_grid(3, 2),
                DistError::GridMismatch {
                    rx: 3,
                    ry: 2,
                    rz: 1,
                    ranks: 4,
                },
            ),
            (
                // 4 layers over 2 z-ranks: 2-layer bricks under z-reach 2.
                JobSpec::over(field(6, 8, 4), wide_z)
                    .with_ranks(2)
                    .with_grid3(1, 1, 2),
                DistError::BrickTooThin {
                    rank: 0,
                    layers: 2,
                    extent: 2,
                },
            ),
            (
                job(2, 3).with_flip(5, flip),
                DistError::FlipRank { rank: 5, ranks: 2 },
            ),
            (
                job(2, 3).with_flip(1, BitFlip { x: 99, ..flip }),
                DistError::FlipOutOfBrick {
                    rank: 1,
                    flip: (99, 0, 0),
                    brick: (10, 8, 2),
                },
            ),
            (
                job(2, 6)
                    .with_steps_per_exchange(2)
                    .with_checkpoint(CheckpointPolicy::every(3)),
                DistError::CheckpointEpochMismatch {
                    period: 3,
                    steps_per_exchange: 2,
                },
            ),
            (
                job(2, 6).with_checkpoint(CheckpointPolicy {
                    period: 0,
                    keep: None,
                }),
                DistError::ZeroCheckpointPeriod,
            ),
            (
                job(2, 6)
                    .with_steps_per_exchange(2)
                    .with_shell_flip(0, flip),
                DistError::ShellFlipAtBoundary {
                    iter: 1,
                    steps_per_exchange: 2,
                },
            ),
        ];
        for (spec, expected) in rejects {
            // `submit` itself refuses it: nothing malformed reaches the pool.
            assert_eq!(service.submit(spec.clone()).err(), Some(expected.clone()));
            let [one_shot, pooled] = both_verdicts(&service, spec);
            assert_eq!(one_shot, Err(expected.clone()));
            assert_eq!(pooled, Err(expected));
        }
        // The pool still serves.
        assert!(service.submit(job(4, 4)).unwrap().wait().is_ok());
        // A wide kernel on a deep shell — the halo depth both entry points
        // derive is 2 sweeps × reach 2 — is accepted by both, bitwise alike.
        let valid = JobSpec::over(
            field(12, 16, 4),
            Stencil3D::diffusion_13pt_4th_order(0.02f64),
        )
        .with_ranks(2)
        .with_iters(6)
        .with_steps_per_exchange(2)
        .with_abft(AbftConfig::paper_defaults())
        .with_checkpoint(CheckpointPolicy::every(2));
        let [one_shot, pooled] = both_verdicts(&service, valid);
        assert_eq!(one_shot.unwrap(), pooled.unwrap());
        service.shutdown();
    }

    /// A recovery round checks a fresh channel set out of the job's own
    /// entry: it is no second lookup, so a lone killed job counts one
    /// miss and no hit.
    #[test]
    fn a_recovered_job_counts_one_topology_lookup() {
        let service = DistService::<f64>::new(2).unwrap();
        let spec = job(2, 6)
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_rank_kill(RankKill::new(1, 3));
        service.submit(spec).unwrap().wait().unwrap();
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.recoveries, 1, "{stats:?}");
        assert_eq!(
            (stats.topology_hits, stats.topology_misses),
            (0, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn zero_checkpoint_period_is_rejected_and_spares_the_topology_cache() {
        let service = DistService::<f64>::new(2).unwrap();
        service.submit(job(2, 4)).unwrap().wait().unwrap();
        // `keep: None` used to divide by zero sizing the ring (a panic
        // that cleared the pool's cache); `Some` ran, checkpointing only
        // at t = 0.
        for keep in [None, Some(3)] {
            let spec = job(2, 4).with_checkpoint(CheckpointPolicy { period: 0, keep });
            for verdict in both_verdicts(&service, spec) {
                assert_eq!(verdict, Err(DistError::ZeroCheckpointPeriod));
            }
        }
        service.submit(job(2, 4)).unwrap().wait().unwrap();
        let stats = service.stats();
        assert_eq!(
            (stats.topology_misses, stats.topology_hits),
            (1, 1),
            "{stats:?}"
        );
        service.shutdown();
    }

    #[test]
    fn pipelined_jobs_larger_than_the_pool_are_rejected() {
        let service = DistService::<f64>::new(2).unwrap();
        let err = service.submit(job(4, 3)).unwrap_err();
        assert_eq!(err, DistError::PoolTooSmall { ranks: 4, pool: 2 });
        // Snapshot-mode ranks run on scoped threads, not pool slots, so
        // the same size is fine there.
        let snap = job(4, 3).with_mode(HaloMode::Snapshot);
        assert!(service.submit(snap).unwrap().wait().is_ok());
        service.shutdown();
    }

    /// Poll until the service has finished `n` jobs (single-core safe: the
    /// pool makes progress while this thread sleeps).
    fn await_finished(service: &DistService<f64>, n: u64) {
        let mut polled = 0u32;
        while service.stats().jobs_completed + service.stats().jobs_failed < n {
            polled += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(polled < 60_000, "jobs never finished");
        }
    }

    #[test]
    fn dropping_a_handle_discards_its_result() {
        let service = DistService::<f64>::new(2).unwrap();
        let parked = |service: &DistService<f64>| {
            let state = service.shared.state.lock().unwrap();
            (state.done.len(), state.callbacks.len(), state.pending.len())
        };
        // Dropped while the job is still pending (the scheduler is parked,
        // so it cannot have run): the result is dropped on publication.
        let gate = block_scheduler(&service);
        drop(service.submit(job(2, 3)).unwrap());
        gate.send(()).unwrap();
        await_finished(&service, 2);
        assert_eq!(parked(&service), (0, 0, 0));
        // Dropped after the job finished: the parked result is removed.
        let handle = service.submit(job(2, 3)).unwrap();
        await_finished(&service, 3);
        assert_eq!(parked(&service), (1, 0, 0));
        drop(handle);
        assert_eq!(parked(&service), (0, 0, 0));
        // A callback registered by on_complete survives the handle's drop.
        let (tx, rx) = mpsc::channel();
        service
            .submit(job(2, 3))
            .unwrap()
            .on_complete(move |result| tx.send(result.is_ok()).unwrap());
        assert!(rx.recv().unwrap());
        service.shutdown();
    }

    /// The lock-step driver needs neither pool slots nor threads: a job
    /// with more ranks than the pool has workers completes, bitwise equal
    /// to the same job pipelined on a pool that fits it.
    #[test]
    fn lockstep_jobs_may_have_more_ranks_than_the_pool() {
        let small = DistService::<f64>::new(1).unwrap();
        let snap = small
            .submit(job(4, 5).with_mode(HaloMode::Snapshot))
            .unwrap()
            .wait()
            .unwrap();
        small.shutdown();
        let fits = DistService::<f64>::new(4).unwrap();
        let pipe = fits.submit(job(4, 5)).unwrap().wait().unwrap();
        fits.shutdown();
        assert_eq!(snap.ranks.len(), 4);
        assert_eq!(snap.global, pipe.global);
    }

    /// A lock-step job runs on the scheduler thread, so its panic must be
    /// contained there: the job fails with `RankPanicked` and the
    /// scheduler serves the next job. Admission lets no poisoned spec
    /// through, so the poison goes into a built job, and the scheduler is
    /// driven directly — with no workers at all, which lock-step never
    /// needs.
    #[test]
    fn a_panicking_lockstep_job_leaves_the_pool_serving() {
        let shared = Arc::new(Shared {
            state: Mutex::new(ServeState::default()),
            cv: Condvar::new(),
        });
        let mut scheduler = Scheduler::<f64>::new(Arc::clone(&shared), Vec::new());
        let spec = job(2, 4).with_mode(HaloMode::Snapshot);
        let (poisoned, mut steppers) = Job::build(&spec, &mut scheduler.cache).unwrap();
        // An impossible bit position blows the hook constructor's assert
        // in rank 1's second iteration.
        steppers[1].flips.push(BitFlip {
            iteration: 1,
            x: 0,
            y: 0,
            z: 0,
            bit: 64,
        });
        let now = Instant::now();
        let payload = |spec, job, steppers| Payload {
            spec,
            submitted: now,
            started: now,
            job,
            steppers,
            result: None,
        };
        let steppers = steppers.into_iter().map(Some).collect();
        scheduler
            .jobs
            .insert(7, payload(None, Some(poisoned), steppers));
        scheduler.perform(Action::RunLockstep(7));
        scheduler.perform(Action::Publish(7, None));
        let fresh = payload(Some(spec.clone()), None, Vec::new());
        scheduler.handle(SchedEvent::Submit(8, 0, fresh));
        let mut state = shared.state.lock().unwrap();
        match state.done.remove(&7) {
            Some(Err(DistError::RankPanicked {
                rank: None,
                message,
            })) => assert!(message.contains("out of range"), "{message}"),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        let served = state.done.remove(&8).expect("published").unwrap();
        let pipelined = crate::run_distributed(
            &spec.initial,
            &spec.stencil,
            &spec.bounds,
            None,
            &DistConfig::new(2, 4),
        );
        assert_eq!(served.global, pipelined.unwrap().global);
        assert_eq!(
            (state.stats.jobs_failed, state.stats.jobs_completed),
            (1, 1)
        );
    }

    #[test]
    fn zero_sized_pool_is_rejected() {
        let err = DistService::<f64>::new(0).err();
        assert_eq!(err, Some(DistError::NoRanks));
    }

    #[test]
    fn faults_are_scoped_to_their_job() {
        // Job k carries a flip; jobs k−1 and k+1 are identical but clean.
        // The fault must be detected and corrected inside job k only, and
        // all three must gather the same (corrected) global state as a
        // serial run — even though the pool may run them concurrently.
        let initial = field(10, 16, 2);
        let stencil = heat();
        let bounds = BoundarySpec::clamp();
        let mut serial =
            StencilSim::new(initial.clone(), stencil.clone(), bounds).with_exec(Exec::Serial);
        for _ in 0..8 {
            serial.step();
        }

        let clean = JobSpec::over(initial.clone(), stencil.clone())
            .with_ranks(4)
            .with_iters(8)
            .with_abft(AbftConfig::<f64>::paper_defaults());
        let faulty = clean.clone().with_flip(
            2,
            BitFlip {
                iteration: 3,
                x: 4,
                y: 1,
                z: 1,
                bit: 52,
            },
        );
        let service = DistService::<f64>::new(4).unwrap();
        let before = service.submit(clean.clone()).unwrap();
        let hit = service.submit(faulty).unwrap();
        let after = service.submit(clean).unwrap();

        let r_before = before.wait().unwrap();
        let r_hit = hit.wait().unwrap();
        let r_after = after.wait().unwrap();

        assert_eq!(r_hit.total_stats().detections, 1);
        assert_eq!(r_hit.total_stats().corrections, 1);
        assert_eq!(r_hit.ranks[2].stats.corrections, 1);
        assert_eq!(
            r_before.total_stats().detections,
            0,
            "fault leaked backwards"
        );
        assert_eq!(r_after.total_stats().detections, 0, "fault leaked forwards");
        // Clean jobs track the serial trajectory bitwise, and so does the
        // faulty job: its repair recomputes the cell.
        assert_eq!(r_before.global, *serial.current(), "diverged from serial");
        assert_eq!(r_after.global, *serial.current(), "diverged from serial");
        assert_eq!(r_hit.global, *serial.current(), "repair diverged");
        // All three shared one cached topology.
        let stats = service.stats();
        assert_eq!(stats.topology_misses, 1);
        assert_eq!(stats.topology_hits, 2);
        service.shutdown();
    }

    /// A picked job whose build fails takes none of the slots set aside
    /// for it, and none of its ranks will ever come home to free them:
    /// the event of the failed build must itself start the job held back
    /// for the same slots, not leave it waiting for an event that never
    /// comes. Two 2-slot jobs on a pool of 2, against the core; then a
    /// shell with no pool contains a build that panics.
    #[test]
    fn a_job_that_fails_to_build_hands_its_slots_on_in_the_same_pass() {
        let mut core = SchedCore::new(2);
        let submit = |id| Event::Submit { id, demand: 2 };
        assert_eq!(core.on(submit(1)), [Action::Build(1)]);
        assert_eq!(core.on(submit(2)), []);
        assert_eq!(
            core.on(Event::Built { id: 1, ok: false }),
            [Action::Publish(1, None), Action::Build(2)]
        );
        assert_eq!(
            core.on(Event::Built { id: 2, ok: true }),
            [Action::Dispatch(2, vec![1, 0])]
        );

        // The build panics on interpolation plans built for another
        // kernel under its key, as if plan sets were looked up by key
        // alone: the job fails, and the cache keeps no entry it touched.
        use abft_stencil::Stencil2D;
        let shared = Arc::new(Shared {
            state: Mutex::new(ServeState::default()),
            cv: Condvar::new(),
        });
        let mut shell = Scheduler::<f64>::new(Arc::clone(&shared), Vec::new());
        let spec = JobSpec::over(field(12, 16, 3), Stencil3D::diffusion_7pt(0.1))
            .with_ranks(2)
            .with_grid(1, 2)
            .with_iters(3)
            .with_abft(AbftConfig::paper_defaults())
            .with_mode(HaloMode::Snapshot);
        let part = validate(&spec.initial, &spec.stencil, &spec.bounds, None, &spec.cfg).unwrap();
        let grid = (part.rx(), part.ry(), part.rz());
        let key = crate::pipeline::TopoKey {
            dims: spec.initial.dims(),
            grid,
            halo: crate::effective_halo(&spec.cfg, &spec.stencil, grid),
            bounds: spec.bounds,
        };
        let other = Stencil2D::convection_9pt(0.18, 0.08, -0.05).into_3d();
        let plans = || crate::index::HaloPlan::of_job(&key, &part, &spec.stencil);
        shell.cache.plans(&key, plans);
        shell.cache.col_plans(&key, &spec.stencil, || {
            crate::col_plans(key.dims, &other, &spec.bounds, &spec.cfg, &part)
        });
        let now = Instant::now();
        let job = Payload {
            spec: Some(spec),
            submitted: now,
            started: now,
            job: None,
            steppers: Vec::new(),
            result: None,
        };
        shared.state.lock().unwrap().pending.insert(1);
        shell.handle(SchedEvent::Submit(1, 0, job));
        let first = shared.state.lock().unwrap().done.remove(&1);
        assert!(
            matches!(first, Some(Err(DistError::RankPanicked { rank: None, .. }))),
            "{first:?}"
        );
        assert_eq!(shell.cache.len(), 0);
    }

    /// A build that panics discards its own key's cache entry and no
    /// other: a different key cached before it keeps its entry, and the
    /// next build of that key is a hit.
    #[test]
    fn a_build_that_panics_leaves_other_keys_cached() {
        use abft_stencil::Stencil2D;
        let shared = Arc::new(Shared {
            state: Mutex::new(ServeState::default()),
            cv: Condvar::new(),
        });
        let mut shell = Scheduler::<f64>::new(Arc::clone(&shared), Vec::new());
        let protected = |nx| {
            JobSpec::over(field(nx, 16, 3), Stencil3D::diffusion_7pt(0.1))
                .with_ranks(2)
                .with_grid(1, 2)
                .with_iters(3)
                .with_abft(AbftConfig::paper_defaults())
                .with_mode(HaloMode::Snapshot)
        };
        let (kept, poisoned) = (protected(10), protected(12));
        Job::build(&kept, &mut shell.cache).unwrap();
        // Poison the second key's interpolation plans with another
        // kernel's, so its build panics.
        let (key, part) = Job::key(&poisoned).unwrap();
        let other = Stencil2D::convection_9pt(0.18, 0.08, -0.05).into_3d();
        let plans = || crate::index::HaloPlan::of_job(&key, &part, &poisoned.stencil);
        shell.cache.plans(&key, plans);
        shell.cache.col_plans(&key, &poisoned.stencil, || {
            crate::col_plans(key.dims, &other, &poisoned.bounds, &poisoned.cfg, &part)
        });
        assert_eq!(shell.cache.len(), 2);
        let now = Instant::now();
        let job = Payload {
            spec: Some(poisoned),
            submitted: now,
            started: now,
            job: None,
            steppers: Vec::new(),
            result: None,
        };
        shared.state.lock().unwrap().pending.insert(1);
        shell.handle(SchedEvent::Submit(1, 0, job));
        let failed = shared.state.lock().unwrap().done.remove(&1);
        assert!(
            matches!(
                failed,
                Some(Err(DistError::RankPanicked { rank: None, .. }))
            ),
            "{failed:?}"
        );
        assert_eq!(shell.cache.len(), 1, "only the panicked key is discarded");
        let (kept_key, _) = Job::key(&kept).unwrap();
        assert_eq!(shell.cache.plan_sets(&kept_key), Some(1));
        let hits = shell.cache.hits;
        Job::build(&kept, &mut shell.cache).unwrap();
        assert_eq!(shell.cache.hits, hits + 1, "the kept key's next build hits");
    }

    #[test]
    fn job_ids_display_and_order() {
        let service = DistService::<f64>::new(1).unwrap();
        let a = service.submit(job(1, 2)).unwrap();
        let b = service.submit(job(1, 2)).unwrap();
        assert!(a.id() < b.id());
        assert_eq!(a.id().to_string(), format!("job #{}", a.id().as_u64()));
        a.wait().unwrap();
        b.wait().unwrap();
        service.shutdown();
    }
}
