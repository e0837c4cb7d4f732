//! Distributed-memory stencil execution with per-rank ABFT — the
//! deployment the paper argues for in §3.2:
//!
//! > "the checksum computation, interpolation, detection, and correction
//! > [are performed] within each thread or process",
//!
//! i.e. the scheme is *intrinsically parallel*: protection is local to a
//! rank's subdomain and adds no communication beyond the halo exchange the
//! stencil needs anyway.
//!
//! This crate simulates an MPI-style deployment inside one process:
//!
//! * the global domain is decomposed into an **x×y×z grid of bricks**
//!   ([`Partition3`]): `1×R×1` y-slabs (the default, [`GridSpec::Slabs`]),
//!   an explicit `RX×RY` grid ([`DistConfig::with_grid`]), a full
//!   `RX×RY×RZ` brick grid ([`DistConfig::with_grid3`]) or an
//!   auto-factored near-square x×y grid ([`GridSpec::Auto`]);
//! * each rank owns a [`StencilSim`] over its brick with every decomposed
//!   axis set to [`Boundary::Ghost`]; out-of-brick reads are served by a
//!   [`HaloGhost`] source holding neighbour **cells** captured at time `t`
//!   — the full 3-D halo shell: x/y/z face strips, the edge strips where
//!   two axis windows meet (the 2-D decomposition's corner patches are
//!   the xy-edges) and the corner patches where all three do — exactly
//!   the values an MPI halo exchange would have delivered. Ghost reads
//!   resolve through the strip-backed [`HaloIndex`] (per-`(y, z)`-line
//!   runs with a base slot, so an edge-sweep lookup is two table
//!   indexings and an offset; debug builds cross-check every lookup
//!   against the legacy hash path), and each rank's [`HaloPlan`] records
//!   per-channel traffic volumes ([`HaloTraffic`]: cells and bytes per
//!   face/edge/corner channel);
//! * every rank advances through **one step machine** (`step.rs`): each
//!   iteration the rank posts the halo cells it owes each consumer to
//!   per-neighbour channels and sweeps its ghost-free interior window
//!   while the halos are in flight, then receives its ghosts, sweeps its
//!   edge shell and verifies. A rank lost on the way (killed, bereaved of
//!   a peer, or damaged past local correction) is recovered by **one
//!   rollback rule**: every rank returns to the newest checkpoint epoch
//!   they all hold and replays;
//! * two drivers run that machine, selected by [`HaloMode`]. The default
//!   [`HaloMode::Pipelined`] gives each rank a pooled thread **for the
//!   whole run** — there is no global barrier; ordering is enforced
//!   purely by the bounded (depth-2, double-buffered) channels.
//!   [`HaloMode::Snapshot`] advances every rank from one thread in
//!   deterministic lock-step (all post, then all complete), needing no
//!   pool slots — the oracle of the equivalence matrices and the
//!   one-thread baseline of `exp_halo_overlap`;
//! * a rank with protection enabled drives its sweep through
//!   [`OnlineAbft::sweep_interior`] and
//!   [`OnlineAbft::sweep_shell_and_verify`], so checksum interpolation
//!   sees the same halo values as the sweep — row and column checksums
//!   cross rank boundaries in every decomposed direction, and each rank
//!   verifies exactly the z-layers of its own brick — and single-point
//!   corruptions are detected and corrected *locally*, inside the rank's
//!   iteration, before the next halo post;
//! * [`DistReport::global`] gathers the bricks back into one grid.
//!
//! Both modes are **bitwise identical** to a serial [`StencilSim`] run of
//! the global domain for every grid shape: the per-point operation order
//! of the sweep does not depend on the decomposition or on the
//! interior/edge split, and halo reads reproduce the exact values the
//! serial sweep reads (see `tests/distributed_equivalence.rs` at the
//! workspace root, and
//! `tests/{pipeline_equivalence,grid2d_equivalence,grid3d_equivalence}.rs`
//! in this crate).
//!
//! Global boundary conditions at the outer domain edges are honoured by
//! resolving the rank-local out-of-range coordinate against the **global**
//! boundary of that axis: clamp/reflect fold back into edge-brick cells,
//! periodic wraps around the brick torus (the first column of bricks
//! receives halos from the last), and zero/constant short-circuit to the
//! boundary value — including at brick edges and corners, where two or
//! all three axes resolve.

use abft_checkpoint::CheckpointPolicy;
use abft_core::{AbftConfig, OnlineAbft, ProtectorStats};
use abft_fault::{BitFlip, RankKill};
use abft_grid::{AxisHit, Boundary, BoundarySpec, GhostCells, Grid3D};
use abft_metrics::RecoveryStats;
use abft_num::Real;
use abft_stencil::{Exec, Stencil3D, StencilSim};
use std::sync::Arc;

mod epoch;
mod index;
mod pipeline;
mod service;
mod step;
mod worker;

pub use index::{CellGroups, HaloIndex, HaloPlan, HaloTraffic};
pub use service::{
    DistService, JobHandle, JobId, JobSpec, ServeStats, ServiceConfig, MAX_OVERTAKES,
};

/// Which driver advances a job's ranks. Both run the same per-rank step
/// machine over the same channels and recover through the same rollback;
/// they differ only in who calls the steps, so they compute the same
/// grid, bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HaloMode {
    /// One pooled worker thread per rank for the whole job and a
    /// double-buffered channel pipeline: each rank posts its owed halo
    /// cells at iteration start, computes its ghost-free interior window
    /// while halos are in flight, then applies received ghosts to the edge
    /// frame. No global barrier.
    #[default]
    Pipelined,
    /// Deterministic lock-step on one thread: every rank posts iteration
    /// `t`, then every rank completes it. Nothing overlaps and nothing
    /// blocks, so a job needs no pool slots and may have more ranks than
    /// the pool has workers — the equivalence matrices' oracle and the
    /// one-thread baseline the pipeline is compared against. (The name is
    /// historical: the exchange used to be a driver-side snapshot.)
    Snapshot,
}

/// Shape of the rank grid the domain is decomposed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridSpec {
    /// `1 × ranks × 1` y-slabs — the legacy decomposition and the
    /// default.
    #[default]
    Slabs,
    /// Auto-factor the rank count into the `RX×RY` (undecomposed z) grid
    /// whose tiles have the smallest perimeter (see [`auto_grid`]).
    Auto,
    /// An explicit `RX×RY×RZ` brick grid; `rx · ry · rz` must equal the
    /// rank count. `rz = 1` is the PR 3 tile grid, behaviourally
    /// identical to before the z axis became decomposable.
    Explicit { rx: usize, ry: usize, rz: usize },
}

/// A rejected distributed-run configuration.
///
/// Returned by [`run_distributed`] instead of panicking, so fault-campaign
/// drivers can record rejected injections rather than dying mid-campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// `ranks == 0`.
    NoRanks,
    /// The domain has no cells (some axis is zero-length).
    EmptyGrid { dims: (usize, usize, usize) },
    /// `iters == 0`: the job would do nothing (and the one-shot path
    /// used to panic deep in the decomposition instead of saying so).
    ZeroIterations,
    /// A requested halo narrower than the kernel reach on a decomposed
    /// axis, rejected by [`DistService::submit`]'s strict admission
    /// ([`run_distributed`] widens the halo to the reach instead).
    HaloTooNarrow {
        axis: char,
        halo: usize,
        extent: usize,
    },
    /// A pipelined job wants more ranks than the service has pooled
    /// workers; all of a job's ranks must run concurrently, so it could
    /// never start.
    PoolTooSmall { ranks: usize, pool: usize },
    /// The service's bounded admission queue is full: `capacity` jobs are
    /// already admitted and unfinished. Returned by
    /// [`DistService::submit`] as structured backpressure — retry later,
    /// or use [`DistService::submit_wait`] to block for a slot instead.
    QueueFull { capacity: usize },
    /// A rank's simulation panicked mid-job. The job is lost but the
    /// pool survives; `rank` is the lowest failing rank when known
    /// (`None` when the panic escaped the per-rank containment).
    RankPanicked {
        rank: Option<usize>,
        message: String,
    },
    /// A job was submitted to a service whose scheduler had already
    /// stopped (only reachable mid-teardown); it was never admitted.
    UnknownJob { id: u64 },
    /// An explicit grid whose `rx · ry · rz` differs from the rank count.
    GridMismatch {
        rx: usize,
        ry: usize,
        rz: usize,
        ranks: usize,
    },
    /// More y-ranks than domain rows (at most one rank per row).
    TooManyRanks { rows: usize, ranks: usize },
    /// More x-ranks than domain columns (at most one rank per column).
    TooManyRanksX { cols: usize, ranks: usize },
    /// More z-ranks than domain layers (at most one rank per layer).
    TooManyRanksZ { layers: usize, ranks: usize },
    /// A brick is not taller (in y) than the stencil's y-extent.
    SlabTooShort {
        rank: usize,
        rows: usize,
        extent: usize,
    },
    /// A brick is not wider (in x) than the stencil's x-extent.
    TileTooNarrow {
        rank: usize,
        cols: usize,
        extent: usize,
    },
    /// A brick is not thicker (in z) than the stencil's z-extent.
    BrickTooThin {
        rank: usize,
        layers: usize,
        extent: usize,
    },
    /// The outer-domain boundary spec uses [`Boundary::Ghost`].
    GhostBoundary,
    /// The constant field's dimensions differ from the domain's.
    ConstantShape {
        expected: (usize, usize, usize),
        got: (usize, usize, usize),
    },
    /// A flip names a rank that does not exist.
    FlipRank { rank: usize, ranks: usize },
    /// A flip's brick-local coordinates fall outside its rank's 3-D brick
    /// (it would never fire and silently corrupt the experiment
    /// bookkeeping).
    FlipOutOfBrick {
        rank: usize,
        flip: (usize, usize, usize),
        brick: (usize, usize, usize),
    },
    /// A flip's bit index exceeds the float width.
    FlipBit { bit: u32, bits: u32 },
    /// A flip is scheduled for an iteration that never runs.
    FlipIteration { iteration: usize, iters: usize },
    /// A kill names a rank that does not exist.
    KillRank { rank: usize, ranks: usize },
    /// A kill is scheduled for an iteration that never runs.
    KillIteration { iter: usize, iters: usize },
    /// A rank was lost (killed, or aborted past the point of local
    /// correction) and no checkpoint policy was configured, so the job
    /// cannot be rolled back and respawned.
    RankLost { rank: usize, iter: usize },
    /// A rollback was required but the per-rank checkpoint rings share no
    /// common epoch: an explicit [`CheckpointPolicy::with_keep`] shallower
    /// than the pipeline's epoch skew evicted the overlap before the loss
    /// was detected. The job is lost but the pool survives; deepen the
    /// ring or leave `keep` auto-sized.
    ///
    /// [`CheckpointPolicy::with_keep`]: abft_checkpoint::CheckpointPolicy::with_keep
    NoCommonEpoch { keep: usize },
    /// `steps_per_exchange == 0`: an epoch must contain at least one sweep.
    ZeroStepsPerExchange,
    /// The checkpoint period is not a multiple of `steps_per_exchange`.
    /// Snapshots must land on exchange boundaries — only there is the
    /// ghost shell empty (it is rebuilt from the next exchange, not
    /// stored) and the epoch-batched checksums verified, so a rollback
    /// target inside an epoch would restore an unverifiable state.
    CheckpointEpochMismatch {
        period: usize,
        steps_per_exchange: usize,
    },
    /// A deep halo (`steps_per_exchange · reach`) is at least as wide as
    /// the domain axis itself, so boundary resolution of shell cells
    /// would wrap/fold more than once.
    HaloTooDeep { axis: char, halo: usize, len: usize },
    /// A ghost-shell flip's global coordinates never appear in the
    /// rank's exchanged halo shell, so it would never fire.
    ShellFlipOutsideHalo {
        rank: usize,
        x: usize,
        y: usize,
        z: usize,
    },
    /// A ghost-shell flip is scheduled on an exchange boundary, where the
    /// shell is rebuilt from freshly exchanged cells (there is no decayed
    /// shell to corrupt). With `steps_per_exchange == 1` every iteration
    /// is a boundary.
    ShellFlipAtBoundary {
        iter: usize,
        steps_per_exchange: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoRanks => write!(f, "need at least one rank"),
            Self::EmptyGrid { dims } => {
                let (nx, ny, nz) = dims;
                write!(f, "domain {nx}x{ny}x{nz} has no cells")
            }
            Self::ZeroIterations => write!(f, "zero iterations configured; nothing to run"),
            Self::HaloTooNarrow { axis, halo, extent } => write!(
                f,
                "requested halo {halo} is narrower than the kernel {axis}-reach {extent} on a decomposed {axis} axis"
            ),
            Self::PoolTooSmall { ranks, pool } => write!(
                f,
                "job needs {ranks} concurrent ranks but the pool has {pool} workers"
            ),
            Self::QueueFull { capacity } => write!(
                f,
                "admission queue is full ({capacity} jobs admitted and unfinished)"
            ),
            Self::RankPanicked { rank, message } => match rank {
                Some(r) => write!(f, "rank {r} panicked mid-job: {message}"),
                None => write!(f, "job panicked: {message}"),
            },
            Self::UnknownJob { id } => {
                write!(f, "job #{id} was never admitted: the service is shutting down")
            }
            Self::GridMismatch { rx, ry, rz, ranks } => write!(
                f,
                "grid {rx}x{ry}x{rz} covers {} ranks but {ranks} were configured",
                rx * ry * rz
            ),
            Self::TooManyRanks { rows, ranks } => write!(
                f,
                "cannot decompose {rows} rows over {ranks} y-ranks (at most one rank per row)"
            ),
            Self::TooManyRanksX { cols, ranks } => write!(
                f,
                "cannot decompose {cols} columns over {ranks} x-ranks (at most one rank per column)"
            ),
            Self::TooManyRanksZ { layers, ranks } => write!(
                f,
                "cannot decompose {layers} z-layers over {ranks} z-ranks (at most one rank per layer)"
            ),
            Self::SlabTooShort {
                rank,
                rows,
                extent,
            } => write!(
                f,
                "rank {rank}'s brick of {rows} rows is not taller than the stencil y-extent {extent}; use fewer y-ranks"
            ),
            Self::TileTooNarrow {
                rank,
                cols,
                extent,
            } => write!(
                f,
                "rank {rank}'s brick of {cols} columns is not wider than the stencil x-extent {extent}; use fewer x-ranks"
            ),
            Self::BrickTooThin {
                rank,
                layers,
                extent,
            } => write!(
                f,
                "rank {rank}'s brick of {layers} z-layers is not thicker than the stencil z-extent {extent}; use fewer z-ranks"
            ),
            Self::GhostBoundary => write!(
                f,
                "global boundaries must be self-contained (no Ghost axis)"
            ),
            Self::ConstantShape { expected, got } => write!(
                f,
                "constant field is {got:?} but the domain is {expected:?}"
            ),
            Self::FlipRank { rank, ranks } => {
                write!(f, "flip rank {rank} out of range ({ranks} ranks)")
            }
            Self::FlipOutOfBrick { rank, flip, brick } => {
                let (x, y, z) = flip;
                let (nx, ny, nz) = brick;
                write!(
                    f,
                    "flip ({x}, {y}, {z}) outside rank {rank}'s {nx}x{ny}x{nz} brick"
                )
            }
            Self::FlipBit { bit, bits } => {
                write!(f, "flip bit {bit} out of range for a {bits}-bit float")
            }
            Self::FlipIteration { iteration, iters } => write!(
                f,
                "flip iteration {iteration} never runs ({iters} iterations configured)"
            ),
            Self::KillRank { rank, ranks } => {
                write!(f, "kill rank {rank} out of range ({ranks} ranks)")
            }
            Self::KillIteration { iter, iters } => write!(
                f,
                "kill iteration {iter} never runs ({iters} iterations configured)"
            ),
            Self::RankLost { rank, iter } => write!(
                f,
                "rank {rank} was lost at iteration {iter} and no checkpoint policy is \
                 configured; enable one with DistConfig::with_checkpoint to recover"
            ),
            Self::NoCommonEpoch { keep } => write!(
                f,
                "checkpoint rings (keep = {keep}) share no common epoch to roll back to; \
                 deepen CheckpointPolicy::with_keep or leave the depth auto-sized"
            ),
            Self::ZeroStepsPerExchange => {
                write!(f, "steps_per_exchange must be at least 1")
            }
            Self::CheckpointEpochMismatch {
                period,
                steps_per_exchange,
            } => write!(
                f,
                "checkpoint period {period} is not a multiple of steps_per_exchange \
                 {steps_per_exchange}; snapshots must land on exchange boundaries"
            ),
            Self::HaloTooDeep { axis, halo, len } => write!(
                f,
                "deep halo of {halo} cells is not narrower than the {len}-cell {axis} axis; \
                 lower steps_per_exchange or grow the domain"
            ),
            Self::ShellFlipOutsideHalo { rank, x, y, z } => write!(
                f,
                "shell flip ({x}, {y}, {z}) is not in rank {rank}'s exchanged ghost shell"
            ),
            Self::ShellFlipAtBoundary {
                iter,
                steps_per_exchange,
            } => write!(
                f,
                "shell flip at iteration {iter} lands on an exchange boundary \
                 (steps_per_exchange = {steps_per_exchange}); the shell is rebuilt there"
            ),
        }
    }
}

impl std::error::Error for DistError {}

/// Configuration of one distributed run.
///
/// Built with [`DistConfig::new`] and the `with_*` builders:
///
/// ```
/// use abft_core::AbftConfig;
/// use abft_dist::{DistConfig, GridSpec, HaloMode};
///
/// let cfg = DistConfig::<f32>::new(8, 100)
///     .with_grid3(2, 2, 2) // an x×y×z brick grid
///     .with_halo(2)
///     .with_abft(AbftConfig::paper_defaults())
///     .with_mode(HaloMode::Snapshot);
/// assert_eq!(cfg.grid, GridSpec::Explicit { rx: 2, ry: 2, rz: 2 });
/// assert_eq!(cfg.halo, Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct DistConfig<T> {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Stencil iterations to run.
    pub iters: usize,
    /// Halo width override, applied to every decomposed axis. The
    /// effective width per axis is `max(halo, stencil extent)`; `None`
    /// uses the stencil extents.
    pub halo: Option<usize>,
    /// Per-rank online ABFT configuration; `None` runs unprotected.
    pub abft: Option<AbftConfig<T>>,
    /// Faults to inject: `(rank, flip)` with the flip's coordinates local
    /// to that rank's brick.
    pub flips: Vec<(usize, BitFlip)>,
    /// Halo exchange strategy (default: [`HaloMode::Pipelined`]).
    pub mode: HaloMode,
    /// Rank-grid shape (default: [`GridSpec::Slabs`], the legacy 1×R×1
    /// y-slab decomposition).
    pub grid: GridSpec,
    /// Periodic in-memory checkpointing; `None` (the default) stores no
    /// snapshots, so a lost rank is unrecoverable
    /// ([`DistError::RankLost`]).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Whole-rank losses to inject: each kill removes its rank at the
    /// start of the given iteration (before that iteration's halo post).
    pub kills: Vec<RankKill>,
    /// Sweeps per halo exchange (temporal tiling). `1` — the default —
    /// is the paper's per-step exchange and is bitwise-legacy. With
    /// `k > 1` the halo is exchanged at depth `k · reach` once per
    /// epoch, then each rank sweeps `k` steps locally while the ghost
    /// shell decays by one stencil reach per step.
    pub steps_per_exchange: usize,
    /// Faults to inject into a rank's *received ghost shell* mid-decay:
    /// `(rank, flip)` with the flip's coordinates **global** (the shell
    /// holds neighbour cells, which have no brick-local address in the
    /// consumer). Only meaningful with `steps_per_exchange > 1`; the
    /// flip fires while the named rank advances its shell after the
    /// flip's iteration completes.
    pub shell_flips: Vec<(usize, BitFlip)>,
}

impl<T: Real> DistConfig<T> {
    /// An unprotected pipelined run over `ranks` y-slabs for `iters`
    /// iterations.
    pub fn new(ranks: usize, iters: usize) -> Self {
        Self {
            ranks,
            iters,
            halo: None,
            abft: None,
            flips: Vec::new(),
            mode: HaloMode::default(),
            grid: GridSpec::default(),
            checkpoint: None,
            kills: Vec::new(),
            steps_per_exchange: 1,
            shell_flips: Vec::new(),
        }
    }

    /// Enable per-rank online ABFT protection.
    pub fn with_abft(mut self, cfg: AbftConfig<T>) -> Self {
        self.abft = Some(cfg);
        self
    }

    /// Widen the halo beyond the stencil's extents (extra cells are
    /// exchanged but unused; useful for overlap experiments).
    pub fn with_halo(mut self, cells: usize) -> Self {
        self.halo = Some(cells);
        self
    }

    /// Select the halo exchange strategy.
    pub fn with_mode(mut self, mode: HaloMode) -> Self {
        self.mode = mode;
        self
    }

    /// Decompose over an explicit `rx × ry` rank grid with an
    /// undecomposed z axis (`rx · ry` must equal `ranks`; checked by
    /// [`run_distributed`]).
    pub fn with_grid(mut self, rx: usize, ry: usize) -> Self {
        self.grid = GridSpec::Explicit { rx, ry, rz: 1 };
        self
    }

    /// Decompose over an explicit `rx × ry × rz` rank-brick grid
    /// (`rx · ry · rz` must equal `ranks`; checked by
    /// [`run_distributed`]).
    pub fn with_grid3(mut self, rx: usize, ry: usize, rz: usize) -> Self {
        self.grid = GridSpec::Explicit { rx, ry, rz };
        self
    }

    /// Auto-factor the rank count into a near-square grid ([`auto_grid`]).
    pub fn with_auto_grid(mut self) -> Self {
        self.grid = GridSpec::Auto;
        self
    }

    /// Set the rank-grid shape from a [`GridSpec`].
    pub fn with_grid_spec(mut self, grid: GridSpec) -> Self {
        self.grid = grid;
        self
    }

    /// Inject one bit-flip in `rank`'s brick (local coordinates).
    /// Validity is checked by [`run_distributed`], which rejects
    /// out-of-brick flips with a [`DistError`].
    pub fn with_flip(mut self, rank: usize, flip: BitFlip) -> Self {
        self.flips.push((rank, flip));
        self
    }

    /// Store an in-memory snapshot of every rank each time the policy
    /// fires, enabling rollback-and-respawn recovery from rank loss.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Kill `rank` at the start of iteration `iter`. Without a checkpoint
    /// policy the run fails with [`DistError::RankLost`]; with one, every
    /// rank rolls back to the newest common epoch and replays.
    pub fn with_rank_kill(mut self, kill: RankKill) -> Self {
        self.kills.push(kill);
        self
    }

    /// Sweep `k` steps per halo exchange over a depth-`k · reach` ghost
    /// shell. `1` (the default) is the per-step legacy protocol; any
    /// checkpoint period must be a multiple of `k` (checked by
    /// [`run_distributed`]).
    pub fn with_steps_per_exchange(mut self, k: usize) -> Self {
        self.steps_per_exchange = k;
        self
    }

    /// Inject one bit-flip into `rank`'s received ghost shell mid-decay
    /// (global coordinates; requires `steps_per_exchange > 1` and an
    /// iteration off the exchange boundary — both checked by
    /// [`run_distributed`]).
    pub fn with_shell_flip(mut self, rank: usize, flip: BitFlip) -> Self {
        self.shell_flips.push((rank, flip));
        self
    }
}

/// Per-rank wall-clock breakdown of one distributed run, in seconds,
/// accumulated over all iterations.
///
/// Every field is measured inside the rank's step machine, in either
/// [`HaloMode`]: `post_s` covers packing and (possibly backpressured)
/// channel sends — or, between the exchanges of a deep-halo epoch, the
/// ghost shell's decay — `interior_s` the sweep that overlaps the
/// exchange, `wait_s` the time blocked in `recv` for neighbour cells (the
/// un-hidden halo latency), `edge_s` the ghost-dependent edge frame and
/// `verify_s` the ABFT interpolate/detect/correct tail. In
/// [`HaloMode::Snapshot`] every message has been posted before any rank
/// receives, so `wait_s` is the cost of the channel reads alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Packing + posting halo cells (sends, incl. backpressure).
    pub post_s: f64,
    /// Interior sweep performed while halos were in flight.
    pub interior_s: f64,
    /// Blocked waiting for neighbour halo cells.
    pub wait_s: f64,
    /// Edge-frame sweep after the halo landed.
    pub edge_s: f64,
    /// ABFT verification (interpolation, detection, correction).
    pub verify_s: f64,
    /// Halo payload bytes this rank sent to other ranks over the whole
    /// run, **measured at the pack/copy site** (self-served boundary
    /// folds are excluded; both modes move the same cells, so the modes
    /// report identical totals — and they match the analytic plan,
    /// `HaloTraffic::remote_cells · cell_bytes · iters`, which the unit
    /// tests assert).
    pub halo_bytes_sent: u64,
    /// Halo payload bytes this rank received from other ranks over the
    /// whole run, measured at halo-assembly time.
    pub halo_bytes_recv: u64,
    /// Halo messages this rank sent over the whole run (one per remote
    /// consumer group per exchange epoch). With `steps_per_exchange = k`
    /// ranks exchange once per `k` sweeps, so this falls as `1/k` while
    /// the per-message byte payload grows with the deep shell.
    pub halo_msgs_sent: u64,
    /// Halo messages this rank received over the whole run (one per
    /// remote producer group per exchange epoch).
    pub halo_msgs_recv: u64,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total_s(&self) -> f64 {
        self.post_s + self.interior_s + self.wait_s + self.edge_s + self.verify_s
    }

    /// Fraction of this rank's busy time spent blocked on halos — the
    /// paper-relevant "communication not hidden by computation" metric.
    pub fn halo_wait_fraction(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.wait_s / total
        } else {
            0.0
        }
    }
}

/// What one rank owned and observed.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank index, `0..ranks`, row-major over the grid
    /// (`(tz · ry + ty) · rx + tx`).
    pub rank: usize,
    /// First global `x` column of the brick.
    pub x0: usize,
    /// Brick width in columns.
    pub x_len: usize,
    /// First global `y` row of the brick.
    pub y0: usize,
    /// Brick height in rows.
    pub y_len: usize,
    /// First global `z` layer of the brick.
    pub z0: usize,
    /// Brick depth in layers.
    pub z_len: usize,
    /// Protector counters (all zero for unprotected runs).
    pub stats: ProtectorStats,
    /// Where this rank's wall-clock time went.
    pub timing: PhaseTimings,
    /// Per-channel halo-traffic volumes (cells and bytes per iteration,
    /// split into face/edge/corner channels).
    pub traffic: HaloTraffic,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport<T> {
    /// The gathered global grid after the final iteration.
    pub global: Grid3D<T>,
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// The resolved rank-grid shape `(rx, ry, rz)`.
    pub grid: (usize, usize, usize),
    /// Wall-clock seconds of the iteration loop (setup and gather
    /// excluded), as seen by the driver.
    pub wall_s: f64,
    /// Submit-to-completion seconds as observed by the serving layer
    /// (queue wait + setup + iteration loop + gather). Zero when the
    /// report was produced outside a [`DistService`]. Always
    /// `queue_wait_s + exec_s` up to clock-read jitter.
    pub latency_s: f64,
    /// Seconds the job spent admitted but not yet started — waiting for
    /// enough free pool slots (and, under the bounded-skip policy, for
    /// its turn past other queued jobs). Zero outside a [`DistService`];
    /// near-zero for [`run_distributed`], whose private service has
    /// exactly the slots its one job needs.
    pub queue_wait_s: f64,
    /// Seconds from scheduler dispatch to gathered report: rank-state
    /// build, the iteration loop, and the gather. Zero outside a
    /// [`DistService`].
    pub exec_s: f64,
    /// Rank-loss and rollback accounting for this job. All-zero
    /// ([`RecoveryStats::is_clean`]) when no rank was lost;
    /// `checkpoints_stored`/`checkpoint_period` are populated whenever a
    /// checkpoint policy was active, even on clean runs.
    pub recovery: RecoveryStats,
    /// Sweeps per halo exchange this run used (the epoch length; `1` is
    /// the legacy per-step protocol).
    pub steps_per_exchange: usize,
}

impl<T: Real> DistReport<T> {
    /// Protector counters summed over all ranks.
    pub fn total_stats(&self) -> ProtectorStats {
        let mut total = ProtectorStats::default();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// The largest per-rank halo-wait fraction (the rank most exposed to
    /// communication latency).
    pub fn max_halo_wait_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.timing.halo_wait_fraction())
            .fold(0.0, f64::max)
    }

    /// Per-channel halo-traffic volumes summed over all ranks.
    pub fn total_traffic(&self) -> HaloTraffic {
        let mut total = HaloTraffic::default();
        for r in &self.ranks {
            total.merge(&r.traffic);
        }
        total
    }
}

impl<T: Real> std::fmt::Display for DistReport<T> {
    /// One-glance run summary: rank-grid shape, wall time, protector
    /// totals and the per-channel halo-traffic volumes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.total_stats();
        writeln!(
            f,
            "{}x{}x{} rank grid · {} ranks · wall {:.4} s · {} detections / {} corrections",
            self.grid.0,
            self.grid.1,
            self.grid.2,
            self.ranks.len(),
            self.wall_s,
            stats.detections,
            stats.corrections,
        )?;
        let mut busy = abft_metrics::LatencySummary::new();
        for r in &self.ranks {
            busy.push(r.timing.total_s());
        }
        writeln!(f, "rank busy time {busy}")?;
        write!(f, "halo traffic: {}", self.total_traffic())
    }
}

/// Balanced contiguous 1-D decomposition of `n` rows over `ranks` slabs:
/// the first `n % ranks` slabs get one extra row. Returns `(start, len)`
/// per rank.
///
/// # Panics
/// Panics when there are more ranks than rows.
pub fn decompose(n: usize, ranks: usize) -> Vec<(usize, usize)> {
    assert!(ranks > 0, "need at least one rank");
    assert!(
        ranks <= n,
        "cannot decompose {n} rows over {ranks} ranks (at most one rank per row)"
    );
    let base = n / ranks;
    let extra = n % ranks;
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0;
    for r in 0..ranks {
        let len = base + usize::from(r < extra);
        out.push((start, len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// One rank's box of the global domain: an x×y×z brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brick {
    /// First global `x` column.
    pub x0: usize,
    /// Width in columns.
    pub x_len: usize,
    /// First global `y` row.
    pub y0: usize,
    /// Height in rows.
    pub y_len: usize,
    /// First global `z` layer.
    pub z0: usize,
    /// Depth in layers.
    pub z_len: usize,
}

impl Brick {
    /// Whether global cell `(x, y, z)` lies in this brick.
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        (self.x0..self.x0 + self.x_len).contains(&x)
            && (self.y0..self.y0 + self.y_len).contains(&y)
            && (self.z0..self.z0 + self.z_len).contains(&z)
    }
}

/// A balanced 3-D (x×y×z) brick decomposition of an `nx × ny × nz` domain
/// over an `rx × ry × rz` rank grid: each axis is split with
/// [`decompose`], and rank `(tz · ry + ty) · rx + tx` owns the brick at
/// grid position `(tx, ty, tz)` — for `rz = 1` this is exactly the PR 3
/// x×y tile numbering.
///
/// ```
/// use abft_dist::Partition3;
/// let p = Partition3::new(10, 9, 4, 2, 3, 2);
/// assert_eq!(p.ranks(), 12);
/// let b = p.brick(9); // grid position (1, 1, 1)
/// assert_eq!((b.x0, b.x_len, b.y0, b.y_len, b.z0, b.z_len), (5, 5, 3, 3, 2, 2));
/// assert_eq!(p.owner(7, 4, 3), (9, 2, 1, 1)); // (rank, brick-local x, y, z)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition3 {
    cols: Vec<(usize, usize)>,
    rows: Vec<(usize, usize)>,
    layers: Vec<(usize, usize)>,
}

impl Partition3 {
    /// Partition an `nx × ny × nz` domain over an `rx × ry × rz` grid.
    ///
    /// # Panics
    /// Panics when an axis has more ranks than cells (see [`decompose`]).
    pub fn new(nx: usize, ny: usize, nz: usize, rx: usize, ry: usize, rz: usize) -> Self {
        Self {
            cols: decompose(nx, rx),
            rows: decompose(ny, ry),
            layers: decompose(nz, rz),
        }
    }

    /// Ranks along x.
    pub fn rx(&self) -> usize {
        self.cols.len()
    }

    /// Ranks along y.
    pub fn ry(&self) -> usize {
        self.rows.len()
    }

    /// Ranks along z.
    pub fn rz(&self) -> usize {
        self.layers.len()
    }

    /// Total rank count (`rx · ry · rz`).
    pub fn ranks(&self) -> usize {
        self.cols.len() * self.rows.len() * self.layers.len()
    }

    /// The brick owned by `rank` (row-major:
    /// `rank = (tz · ry + ty) · rx + tx`).
    pub fn brick(&self, rank: usize) -> Brick {
        let tx = rank % self.rx();
        let ty = (rank / self.rx()) % self.ry();
        let tz = rank / (self.rx() * self.ry());
        let (x0, x_len) = self.cols[tx];
        let (y0, y_len) = self.rows[ty];
        let (z0, z_len) = self.layers[tz];
        Brick {
            x0,
            x_len,
            y0,
            y_len,
            z0,
            z_len,
        }
    }

    /// Which rank owns global cell `(x, y, z)`, plus its brick-local
    /// coordinates.
    pub fn owner(&self, x: usize, y: usize, z: usize) -> (usize, usize, usize, usize) {
        let tx = axis_owner(&self.cols, x);
        let ty = axis_owner(&self.rows, y);
        let tz = axis_owner(&self.layers, z);
        (
            (tz * self.ry() + ty) * self.rx() + tx,
            x - self.cols[tx].0,
            y - self.rows[ty].0,
            z - self.layers[tz].0,
        )
    }
}

fn axis_owner(parts: &[(usize, usize)], q: usize) -> usize {
    for (i, &(start, len)) in parts.iter().enumerate() {
        if (start..start + len).contains(&q) {
            return i;
        }
    }
    panic!("coordinate {q} owned by no rank");
}

/// Factor `ranks` into the `(rx, ry)` grid (with `rx · ry == ranks`,
/// `rx ≤ nx`, `ry ≤ ny`) whose tiles have the smallest perimeter — i.e.
/// the least halo surface per unit of computed volume. Ties and the
/// no-valid-factorisation fallback resolve to the slab-most shape
/// (smallest `rx`), matching the legacy default.
pub fn auto_grid(ranks: usize, nx: usize, ny: usize) -> (usize, usize) {
    let mut best = (1, ranks);
    let mut best_cost = usize::MAX;
    for rx in 1..=ranks {
        if !ranks.is_multiple_of(rx) {
            continue;
        }
        let ry = ranks / rx;
        if rx > nx || ry > ny {
            continue;
        }
        let cost = nx.div_ceil(rx) + ny.div_ceil(ry);
        if cost < best_cost {
            best = (rx, ry);
            best_cost = cost;
        }
    }
    best
}

/// Time-`t` halo cells for one rank, plus the geometry needed to resolve a
/// brick-local out-of-range read against the **global** boundaries of all
/// three decomposed axes (including edge and corner reads, where two or
/// all three of x, y and z are out of range at once).
///
/// This is the [`GhostCells`] source handed to the sweep *and* to the
/// checksum interpolation, so both see identical neighbour data — the
/// precondition of [`OnlineAbft::sweep_shell_and_verify`].
///
/// Cells are stored as one flat buffer of scalars in the rank's canonical
/// cell order; `index` maps a resolved global `(x, y, z)` to its payload
/// slot through the strip-backed [`HaloIndex`] (a `(z, y)` line-table
/// index plus a range check on the edge-sweep hot path).
#[derive(Debug, Clone)]
pub struct HaloGhost<T> {
    index: Arc<HaloIndex>,
    /// The payload, one scalar per slot of `index`. The stepper fills it
    /// at every exchange and decays it in place between exchanges.
    pub(crate) values: Vec<T>,
    bounds: BoundarySpec<T>,
    x0: usize,
    y0: usize,
    z0: usize,
    nx_global: usize,
    ny_global: usize,
    nz_global: usize,
}

impl<T: Real> HaloGhost<T> {
    /// A ghost source over `index` whose payload has yet to be exchanged.
    pub(crate) fn new(
        index: Arc<HaloIndex>,
        bounds: BoundarySpec<T>,
        brick: Brick,
        dims: (usize, usize, usize),
    ) -> Self {
        let (nx_global, ny_global, nz_global) = dims;
        Self {
            index,
            values: Vec::new(),
            bounds,
            x0: brick.x0,
            y0: brick.y0,
            z0: brick.z0,
            nx_global,
            ny_global,
            nz_global,
        }
    }
}

impl<T: Real> GhostCells<T> for HaloGhost<T> {
    #[inline]
    fn ghost(&self, x: isize, y: isize, z: isize) -> T {
        // The sweep resolves axes in x → y → z order and short-circuits on
        // the first value-like hit, so the axes before the ghost hit are
        // in-range brick-local indices while the rest are still raw.
        // Shifting into global coordinates and finishing the resolution
        // here (global x first, then y, then z) reproduces the serial
        // sweep's read exactly — an already-resolved local index simply
        // maps to an in-range global one.
        let gx = match self.bounds.x.resolve(self.x0 as isize + x, self.nx_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost x-boundary rejected up front"),
        };
        let gy = match self.bounds.y.resolve(self.y0 as isize + y, self.ny_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost y-boundary rejected up front"),
        };
        let gz = match self.bounds.z.resolve(self.z0 as isize + z, self.nz_global) {
            AxisHit::In(i) => i,
            AxisHit::Value(v) => return v,
            AxisHit::Ghost(_) => unreachable!("global ghost z-boundary rejected up front"),
        };
        let slot = self
            .index
            .slot(gx, gy, gz)
            .unwrap_or_else(|| panic!("halo cell ({gx}, {gy}, {gz}) was not exchanged"));
        self.values[slot]
    }
}

/// One simulated rank: its brick simulation, optional protector, pending
/// faults, halo plan (cell groups, strip index, traffic volumes) and
/// accumulated phase timings.
pub(crate) struct Rank<T> {
    pub(crate) sim: StencilSim<T>,
    pub(crate) abft: Option<OnlineAbft<T>>,
    pub(crate) brick: Brick,
    pub(crate) flips: Vec<BitFlip>,
    /// The rank's halo plan: global cells it needs every iteration,
    /// grouped by producer (self-owned cells first — boundary folds the
    /// rank serves to itself — then remote producers in ascending rank
    /// order, each group z-major row-major). Concatenating the groups'
    /// scalars in this order yields the per-iteration halo payload; the
    /// plan's strip index resolves cells to payload slots. Shared with
    /// the pool's topology cache — the plan is immutable, so jobs with
    /// the same shape reuse one copy.
    pub(crate) plan: Arc<HaloPlan>,
    pub(crate) timing: PhaseTimings,
    /// Ghost-shell faults to inject while this rank decays its shell
    /// (global coordinates; only fire with `steps_per_exchange > 1`).
    pub(crate) shell_flips: Vec<BitFlip>,
    /// The per-epoch ghost-shell decay schedule; `Some` exactly when
    /// `steps_per_exchange > 1`. Captured at build time because shell
    /// cells live outside the brick (their constant-field terms are not
    /// in the rank's local slice).
    pub(crate) shell: Option<Arc<epoch::ShellSchedule<T>>>,
}

impl<T: Real> Rank<T> {
    /// The flips scheduled to fire during iteration `t`.
    pub(crate) fn flips_at(&self, t: usize) -> Vec<BitFlip> {
        self.flips
            .iter()
            .filter(|f| f.iteration == t)
            .copied()
            .collect()
    }

    /// The ghost-shell flips scheduled to fire in the shell advance that
    /// follows sweep `t`.
    pub(crate) fn shell_flips_at(&self, t: usize) -> Vec<BitFlip> {
        self.shell_flips
            .iter()
            .filter(|f| f.iteration == t)
            .copied()
            .collect()
    }
}

/// Resolve the grid spec against the rank count, without validating it
/// against the domain.
fn grid_shape<T: Real>(
    cfg: &DistConfig<T>,
    nx: usize,
    ny: usize,
) -> Result<(usize, usize, usize), DistError> {
    match cfg.grid {
        GridSpec::Slabs => Ok((1, cfg.ranks, 1)),
        GridSpec::Auto => {
            let (rx, ry) = auto_grid(cfg.ranks, nx, ny);
            Ok((rx, ry, 1))
        }
        GridSpec::Explicit { rx, ry, rz } => {
            if rx * ry * rz != cfg.ranks {
                Err(DistError::GridMismatch {
                    rx,
                    ry,
                    rz,
                    ranks: cfg.ranks,
                })
            } else {
                Ok((rx, ry, rz))
            }
        }
    }
}

/// Check a distributed configuration against the domain, returning the
/// brick decomposition on success.
fn validate<T: Real>(
    initial: &Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    cfg: &DistConfig<T>,
) -> Result<Partition3, DistError> {
    let (nx, ny, nz) = initial.dims();
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(DistError::EmptyGrid { dims: (nx, ny, nz) });
    }
    if cfg.iters == 0 {
        return Err(DistError::ZeroIterations);
    }
    if matches!(bounds.x, Boundary::Ghost)
        || matches!(bounds.y, Boundary::Ghost)
        || matches!(bounds.z, Boundary::Ghost)
    {
        return Err(DistError::GhostBoundary);
    }
    if let Some(c) = constant {
        if c.dims() != initial.dims() {
            return Err(DistError::ConstantShape {
                expected: initial.dims(),
                got: c.dims(),
            });
        }
    }
    if cfg.ranks == 0 {
        return Err(DistError::NoRanks);
    }
    let (rx, ry, rz) = grid_shape(cfg, nx, ny)?;
    if ry > ny {
        return Err(DistError::TooManyRanks {
            rows: ny,
            ranks: ry,
        });
    }
    if rx > nx {
        return Err(DistError::TooManyRanksX {
            cols: nx,
            ranks: rx,
        });
    }
    if rz > nz {
        return Err(DistError::TooManyRanksZ {
            layers: nz,
            ranks: rz,
        });
    }
    let part = Partition3::new(nx, ny, nz, rx, ry, rz);
    for rank in 0..part.ranks() {
        let brick = part.brick(rank);
        if brick.y_len <= stencil.extent_y() {
            return Err(DistError::SlabTooShort {
                rank,
                rows: brick.y_len,
                extent: stencil.extent_y(),
            });
        }
        if rx > 1 && brick.x_len <= stencil.extent_x() {
            return Err(DistError::TileTooNarrow {
                rank,
                cols: brick.x_len,
                extent: stencil.extent_x(),
            });
        }
        if rz > 1 && brick.z_len <= stencil.extent_z() {
            return Err(DistError::BrickTooThin {
                rank,
                layers: brick.z_len,
                extent: stencil.extent_z(),
            });
        }
    }
    for (rank, flip) in &cfg.flips {
        if *rank >= cfg.ranks {
            return Err(DistError::FlipRank {
                rank: *rank,
                ranks: cfg.ranks,
            });
        }
        let brick = part.brick(*rank);
        if flip.x >= brick.x_len || flip.y >= brick.y_len || flip.z >= brick.z_len {
            return Err(DistError::FlipOutOfBrick {
                rank: *rank,
                flip: (flip.x, flip.y, flip.z),
                brick: (brick.x_len, brick.y_len, brick.z_len),
            });
        }
        if flip.bit >= T::BITS {
            return Err(DistError::FlipBit {
                bit: flip.bit,
                bits: T::BITS,
            });
        }
        if flip.iteration >= cfg.iters {
            return Err(DistError::FlipIteration {
                iteration: flip.iteration,
                iters: cfg.iters,
            });
        }
    }
    for kill in &cfg.kills {
        if kill.rank >= cfg.ranks {
            return Err(DistError::KillRank {
                rank: kill.rank,
                ranks: cfg.ranks,
            });
        }
        if kill.iter >= cfg.iters {
            return Err(DistError::KillIteration {
                iter: kill.iter,
                iters: cfg.iters,
            });
        }
    }
    let k = cfg.steps_per_exchange;
    if k == 0 {
        return Err(DistError::ZeroStepsPerExchange);
    }
    if k > 1 {
        // Deep shells fold through the boundary at most once: the
        // effective halo must stay narrower than each exchanged axis.
        let (hx, hy, hz) = effective_halo(cfg, stencil, (rx, ry, rz));
        for (axis, h, n) in [('x', hx, nx), ('y', hy, ny), ('z', hz, nz)] {
            if h > 0 && h >= n {
                return Err(DistError::HaloTooDeep {
                    axis,
                    halo: h,
                    len: n,
                });
            }
        }
    }
    if let Some(p) = cfg.checkpoint {
        // Snapshots must land on exchange boundaries: only there is the
        // decayed ghost shell empty (rebuilt from the next exchange
        // rather than stored) and the epoch-batched checksums verified.
        if p.period % k != 0 {
            return Err(DistError::CheckpointEpochMismatch {
                period: p.period,
                steps_per_exchange: k,
            });
        }
    }
    for (rank, flip) in &cfg.shell_flips {
        if *rank >= cfg.ranks {
            return Err(DistError::FlipRank {
                rank: *rank,
                ranks: cfg.ranks,
            });
        }
        if flip.bit >= T::BITS {
            return Err(DistError::FlipBit {
                bit: flip.bit,
                bits: T::BITS,
            });
        }
        if flip.iteration >= cfg.iters {
            return Err(DistError::FlipIteration {
                iteration: flip.iteration,
                iters: cfg.iters,
            });
        }
        // The shell decays after every sweep except an epoch's last (the
        // next exchange rebuilds it), so a flip on the boundary — or any
        // flip at k = 1 — would never fire.
        if k == 1 || flip.iteration % k == k - 1 {
            return Err(DistError::ShellFlipAtBoundary {
                iter: flip.iteration,
                steps_per_exchange: k,
            });
        }
        let (hx, hy, hz) = effective_halo(cfg, stencil, (rx, ry, rz));
        let brick = part.brick(*rank);
        let wx = index::resolved_window(brick.x0, brick.x_len, hx, nx, &bounds.x);
        let wy = index::resolved_window(brick.y0, brick.y_len, hy, ny, &bounds.y);
        let wz = index::resolved_window(brick.z0, brick.z_len, hz, nz, &bounds.z);
        let shell = index::needed_halo_cells(&brick, &wx, &wy, &wz);
        let cell = (flip.x, flip.y, flip.z);
        if !shell.contains(&cell) || brick.contains(flip.x, flip.y, flip.z) {
            return Err(DistError::ShellFlipOutsideHalo {
                rank: *rank,
                x: flip.x,
                y: flip.y,
                z: flip.z,
            });
        }
    }
    Ok(part)
}

/// Run the distributed simulation and gather the result.
///
/// Decomposes `initial` into `cfg.ranks` bricks per [`DistConfig::grid`],
/// steps them `cfg.iters` times exchanging halos per [`DistConfig::mode`],
/// protecting each rank with online ABFT when configured, and gathers the
/// bricks back into a global grid. The unprotected (and clean protected)
/// result is bitwise equal to a serial [`StencilSim`] run with the same
/// inputs, in either mode and for every grid shape.
///
/// ```
/// use abft_dist::{run_distributed, DistConfig};
/// use abft_grid::{BoundarySpec, Grid3D};
/// use abft_stencil::Stencil3D;
///
/// let initial = Grid3D::from_fn(8, 8, 4, |x, y, z| (x + y + z) as f64);
/// let stencil = Stencil3D::seven_point(0.4, 0.1, 0.1, 0.1);
/// // 8 ranks on a 2×2×2 brick grid, 5 iterations.
/// let cfg = DistConfig::<f64>::new(8, 5).with_grid3(2, 2, 2);
/// let report = run_distributed(&initial, &stencil, &BoundarySpec::clamp(), None, &cfg)?;
/// assert_eq!(report.grid, (2, 2, 2));
/// assert_eq!(report.global.dims(), (8, 8, 4));
/// # Ok::<(), abft_dist::DistError>(())
/// ```
///
/// # Errors
/// Returns a [`DistError`] when the decomposition leaves a brick no
/// larger than the stencil's extent on a decomposed axis, when an
/// explicit grid does not cover the rank count, when `bounds` uses
/// [`Boundary::Ghost`] (the outer-domain boundary must be
/// self-contained), or when a flip spec is invalid (bad rank,
/// out-of-brick coordinates, bit width, or an iteration that never runs).
pub fn run_distributed<T: Real>(
    initial: &Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    cfg: &DistConfig<T>,
) -> Result<DistReport<T>, DistError> {
    // A documented DistService-of-one: a temporary service with one pool
    // slot per rank and a single-job queue, using lenient halo semantics
    // (a narrow halo widens to the kernel reach instead of erroring —
    // kept for the overlap experiments that sweep halo widths below wide
    // kernels' reach). The one-shot and pooled paths are therefore the
    // same code; only admission strictness differs.
    let service = DistService::with_config(ServiceConfig::new(cfg.ranks.max(1)))?;
    let mut spec = JobSpec::over(initial.clone(), stencil.clone())
        .with_bounds(*bounds)
        .with_dist(cfg.clone());
    if let Some(c) = constant {
        spec = spec.with_constant(c.clone());
    }
    let handle = service.submit_lenient(spec)?;
    let report = handle.wait();
    service.shutdown();
    report
}

/// The effective per-axis halo width `(hx, hy, hz)`: the configured halo
/// widened to the stencil's reach, on the axes that exchange (y always —
/// it is always ghost-decomposed — x and z only when actually split).
pub(crate) fn effective_halo<T: Real>(
    cfg: &DistConfig<T>,
    stencil: &Stencil3D<T>,
    (rx, _ry, rz): (usize, usize, usize),
) -> (usize, usize, usize) {
    // Temporal tiling deepens the shell: k sweeps per exchange need k
    // stencil reaches of ghost cells (the shell decays by one reach per
    // sweep). k = 1 reduces to the legacy per-step widths.
    let k = cfg.steps_per_exchange.max(1);
    let hy = cfg.halo.unwrap_or(0).max(k * stencil.extent_y());
    let hx = if rx > 1 {
        cfg.halo.unwrap_or(0).max(k * stencil.extent_x())
    } else {
        0
    };
    let hz = if rz > 1 {
        cfg.halo.unwrap_or(0).max(k * stencil.extent_z())
    } else {
        0
    };
    (hx, hy, hz)
}

/// Build one job's transient rank state: per-brick sims (with constant
/// slices), per-job protectors and per-job flip lists. Everything here is
/// job-scoped by construction — a fresh call per job is what guarantees
/// one job's faults and protector counters can never leak into the next —
/// while the immutable halo `plans` are shared with the topology cache.
pub(crate) fn build_ranks<T: Real>(
    initial: &Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    cfg: &DistConfig<T>,
    part: &Partition3,
    plans: &[Arc<HaloPlan>],
) -> Vec<Rank<T>> {
    let (rx, rz) = (part.rx(), part.rz());
    // Rank-local boundary spec: decomposed axes served by the halo, the
    // rest as global. x and z stay global for slab grids so the 1-D path
    // is untouched (no column/layer exchange, fused checksums, identical
    // perf).
    let local_bounds = BoundarySpec {
        x: if rx > 1 { Boundary::Ghost } else { bounds.x },
        y: Boundary::Ghost,
        z: if rz > 1 { Boundary::Ghost } else { bounds.z },
    };
    let k = cfg.steps_per_exchange.max(1);
    // Ghost depth the brick sweep reads per axis — the validity the
    // decay schedule must preserve across every interior sweep.
    let read_halo = (
        if rx > 1 { stencil.extent_x() } else { 0 },
        stencil.extent_y(),
        if rz > 1 { stencil.extent_z() } else { 0 },
    );
    (0..part.ranks())
        .map(|r| {
            let brick = part.brick(r);
            let local = Grid3D::from_fn(brick.x_len, brick.y_len, brick.z_len, |x, y, z| {
                initial.at(brick.x0 + x, brick.y0 + y, brick.z0 + z)
            });
            let mut sim =
                StencilSim::new(local, stencil.clone(), local_bounds).with_exec(Exec::Serial);
            if let Some(c) = constant {
                let local_c = Grid3D::from_fn(brick.x_len, brick.y_len, brick.z_len, |x, y, z| {
                    c.at(brick.x0 + x, brick.y0 + y, brick.z0 + z)
                });
                sim = sim.with_constant(local_c);
            }
            let abft = cfg.abft.map(|acfg| OnlineAbft::new(&sim, acfg));
            Rank {
                sim,
                abft,
                brick,
                flips: cfg
                    .flips
                    .iter()
                    .filter(|(fr, _)| *fr == r)
                    .map(|(_, f)| *f)
                    .collect(),
                plan: plans[r].clone(),
                timing: PhaseTimings::default(),
                shell_flips: cfg
                    .shell_flips
                    .iter()
                    .filter(|(fr, _)| *fr == r)
                    .map(|(_, f)| *f)
                    .collect(),
                shell: (k > 1).then(|| {
                    Arc::new(epoch::ShellSchedule::new(
                        &plans[r],
                        &brick,
                        initial.dims(),
                        bounds,
                        stencil,
                        constant,
                        read_halo,
                        k,
                    ))
                }),
            }
        })
        .collect()
}

/// Gather the finished ranks' bricks back into one global grid and fold
/// their stats, timings and traffic into a [`DistReport`].
pub(crate) fn gather_report<T: Real>(
    ranks: Vec<Rank<T>>,
    grid: (usize, usize, usize),
    dims: (usize, usize, usize),
    wall_s: f64,
    steps_per_exchange: usize,
) -> DistReport<T> {
    let (nx, ny, nz) = dims;
    // One pass per brick, contiguous x-line copies.
    let mut global = Grid3D::zeros(nx, ny, nz);
    for rank in &ranks {
        let local = rank.sim.current();
        let b = rank.brick;
        for lz in 0..b.z_len {
            for ly in 0..b.y_len {
                let src = &local.as_slice()[(lz * b.y_len + ly) * b.x_len..][..b.x_len];
                let base = global.idx(b.x0, b.y0 + ly, b.z0 + lz);
                global.as_mut_slice()[base..base + b.x_len].copy_from_slice(src);
            }
        }
    }
    DistReport {
        global,
        ranks: ranks
            .iter()
            .enumerate()
            .map(|(i, r)| RankReport {
                rank: i,
                x0: r.brick.x0,
                x_len: r.brick.x_len,
                y0: r.brick.y0,
                y_len: r.brick.y_len,
                z0: r.brick.z0,
                z_len: r.brick.z_len,
                stats: r.abft.as_ref().map(|a| a.stats()).unwrap_or_default(),
                timing: r.timing,
                traffic: r.plan.traffic,
            })
            .collect(),
        grid,
        wall_s,
        latency_s: 0.0,
        queue_wait_s: 0.0,
        exec_s: 0.0,
        recovery: RecoveryStats::default(),
        steps_per_exchange,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn wavy(nx: usize, ny: usize, nz: usize) -> Grid3D<f64> {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 13 + y * 31 + z * 7) % 23) as f64 * 0.75 - 4.0
        })
    }

    fn serial(
        initial: &Grid3D<f64>,
        stencil: &Stencil3D<f64>,
        bounds: &BoundarySpec<f64>,
        iters: usize,
    ) -> Grid3D<f64> {
        let mut sim =
            StencilSim::new(initial.clone(), stencil.clone(), *bounds).with_exec(Exec::Serial);
        for _ in 0..iters {
            sim.step();
        }
        sim.current().clone()
    }

    fn both_modes() -> [HaloMode; 2] {
        [HaloMode::Pipelined, HaloMode::Snapshot]
    }

    #[test]
    fn decompose_is_balanced_and_covers() {
        assert_eq!(decompose(10, 1), vec![(0, 10)]);
        assert_eq!(decompose(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(decompose(12, 4), vec![(0, 3), (3, 3), (6, 3), (9, 3)]);
        let slabs = decompose(17, 5);
        assert_eq!(slabs.iter().map(|s| s.1).sum::<usize>(), 17);
        assert!(slabs.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0));
    }

    #[test]
    #[should_panic]
    fn decompose_rejects_more_ranks_than_rows() {
        let _ = decompose(3, 4);
    }

    #[test]
    fn partition3_bricks_cover_the_domain_once() {
        let p = Partition3::new(13, 11, 5, 3, 2, 2);
        assert_eq!((p.rx(), p.ry(), p.rz(), p.ranks()), (3, 2, 2, 12));
        let mut seen = vec![0u32; 13 * 11 * 5];
        for r in 0..p.ranks() {
            let b = p.brick(r);
            for z in b.z0..b.z0 + b.z_len {
                for y in b.y0..b.y0 + b.y_len {
                    for x in b.x0..b.x0 + b.x_len {
                        seen[(z * 11 + y) * 13 + x] += 1;
                        let (owner, lx, ly, lz) = p.owner(x, y, z);
                        assert_eq!(owner, r);
                        assert_eq!((lx, ly, lz), (x - b.x0, y - b.y0, z - b.z0));
                        assert!(b.contains(x, y, z));
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "bricks overlap or leave gaps");
    }

    #[test]
    fn partition3_with_rz_1_matches_the_legacy_tile_numbering() {
        // The rank = (tz·ry + ty)·rx + tx numbering degenerates to the
        // PR 3 ty·rx + tx order at rz = 1 — the legacy-compat guarantee.
        let p = Partition3::new(10, 9, 4, 2, 3, 1);
        for rank in 0..6 {
            let b = p.brick(rank);
            assert_eq!((b.z0, b.z_len), (0, 4));
            let (tx, ty) = (rank % 2, rank / 2);
            assert_eq!(b.x0, [0, 5][tx]);
            assert_eq!(b.y0, [0, 3, 6][ty]);
        }
    }

    #[test]
    fn auto_grid_minimises_tile_perimeter() {
        // Square domain, square rank count → square grid.
        assert_eq!(auto_grid(4, 512, 512), (2, 2));
        assert_eq!(auto_grid(9, 99, 99), (3, 3));
        // y-heavy domain → slab-like split along y.
        assert_eq!(auto_grid(4, 64, 512), (1, 4));
        // x-heavy domain → split along x.
        assert_eq!(auto_grid(3, 9, 4), (3, 1));
        // No valid factorisation (prime > both axes) falls back to slabs;
        // validation rejects it downstream.
        assert_eq!(auto_grid(7, 3, 3), (1, 7));
        assert_eq!(auto_grid(1, 10, 10), (1, 1));
    }

    /// The halo-correctness check: a y-asymmetric stencil makes every halo
    /// row matter, and clamp vs. periodic exercise both global
    /// edge-resolution paths (fold-back into the edge rank vs. wrap around
    /// the rank ring) — in both execution modes.
    #[test]
    fn halo_exchange_is_exact_at_rank_boundaries_clamp_vs_periodic() {
        let initial = wavy(7, 12, 3);
        // Asymmetric in y so that up/down halos carry different weights.
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.45f64),
            (0, -1, 0, 0.3),
            (0, 1, 0, 0.1),
            (1, 0, 0, 0.05),
            (0, 0, 1, 0.1),
        ]);
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, &stencil, &bounds, 9);
            for ranks in [2usize, 3, 4] {
                for mode in both_modes() {
                    let rep = run_distributed(
                        &initial,
                        &stencil,
                        &bounds,
                        None,
                        &DistConfig::<f64>::new(ranks, 9).with_mode(mode),
                    )
                    .unwrap();
                    assert_eq!(
                        rep.global, expect,
                        "{ranks} ranks diverged under {boundary:?} ({mode:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_and_reflect_edges_match_serial() {
        let initial = wavy(6, 10, 2);
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.5f64),
            (0, -1, 0, 0.2),
            (0, 1, 0, 0.2),
            (-1, 0, 0, 0.1),
        ]);
        for boundary in [Boundary::Zero, Boundary::Reflect, Boundary::Constant(2.5)] {
            let bounds = BoundarySpec {
                x: Boundary::Clamp,
                y: boundary,
                z: Boundary::Clamp,
            };
            let expect = serial(&initial, &stencil, &bounds, 6);
            for mode in both_modes() {
                let rep = run_distributed(
                    &initial,
                    &stencil,
                    &bounds,
                    None,
                    &DistConfig::<f64>::new(3, 6).with_mode(mode),
                )
                .unwrap();
                assert_eq!(
                    rep.global, expect,
                    "diverged under y = {boundary:?} ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn single_rank_degenerates_to_serial() {
        let initial = wavy(8, 9, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 12);
        for mode in both_modes() {
            let rep = run_distributed(
                &initial,
                &stencil,
                &bounds,
                None,
                &DistConfig::<f64>::new(1, 12).with_mode(mode),
            )
            .unwrap();
            assert_eq!(rep.global, expect);
            assert_eq!(rep.ranks.len(), 1);
            assert_eq!(rep.ranks[0].y_len, 9);
            assert_eq!(rep.ranks[0].x_len, 8);
            assert_eq!(rep.ranks[0].z_len, 2);
            assert_eq!(rep.grid, (1, 1, 1));
        }
    }

    #[test]
    fn grid_2x2_matches_serial_in_both_modes() {
        let initial = wavy(10, 12, 2);
        // Asymmetric in x *and* y so left/right and up/down column/row
        // strips all carry distinct weights.
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.4f64),
            (-1, 0, 0, 0.2),
            (1, 0, 0, 0.1),
            (0, -1, 0, 0.15),
            (0, 1, 0, 0.05),
            (0, 0, 1, 0.1),
        ]);
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, &stencil, &bounds, 8);
            for mode in both_modes() {
                let rep = run_distributed(
                    &initial,
                    &stencil,
                    &bounds,
                    None,
                    &DistConfig::<f64>::new(4, 8).with_grid(2, 2).with_mode(mode),
                )
                .unwrap();
                assert_eq!(rep.grid, (2, 2, 1));
                assert_eq!(rep.global, expect, "2x2 diverged ({boundary:?}, {mode:?})");
            }
        }
    }

    #[test]
    fn diagonal_taps_exercise_corner_halos() {
        let initial = wavy(9, 11, 2);
        // 9-point-style kernel: all four diagonal neighbours, asymmetric.
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.3f64),
            (-1, -1, 0, 0.15),
            (1, -1, 0, 0.1),
            (-1, 1, 0, 0.12),
            (1, 1, 0, 0.08),
            (-1, 0, 0, 0.1),
            (0, 1, 0, 0.15),
        ]);
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, &stencil, &bounds, 7);
            for mode in both_modes() {
                let rep = run_distributed(
                    &initial,
                    &stencil,
                    &bounds,
                    None,
                    &DistConfig::<f64>::new(4, 7).with_grid(2, 2).with_mode(mode),
                )
                .unwrap();
                assert_eq!(
                    rep.global, expect,
                    "corner halo diverged ({boundary:?}, {mode:?})"
                );
            }
        }
    }

    #[test]
    fn auto_grid_runs_match_serial() {
        let initial = wavy(12, 12, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 6);
        let rep = run_distributed(
            &initial,
            &stencil,
            &bounds,
            None,
            &DistConfig::<f64>::new(4, 6).with_auto_grid(),
        )
        .unwrap();
        assert_eq!(rep.grid, (2, 2, 1), "square domain should auto-factor 2x2");
        assert_eq!(rep.global, expect);
    }

    #[test]
    fn brick_2x2x2_matches_serial_in_both_modes() {
        let initial = wavy(10, 12, 6);
        // Asymmetric on every axis so all six face strips carry distinct
        // weights, plus an xyz-diagonal tap that exercises the 3-D corner
        // channels.
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.3f64),
            (-1, 0, 0, 0.15),
            (1, 0, 0, 0.05),
            (0, -1, 0, 0.12),
            (0, 1, 0, 0.08),
            (0, 0, -1, 0.14),
            (0, 0, 1, 0.06),
            (1, 1, 1, 0.1),
        ]);
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::uniform(boundary);
            let expect = serial(&initial, &stencil, &bounds, 8);
            for mode in both_modes() {
                let rep = run_distributed(
                    &initial,
                    &stencil,
                    &bounds,
                    None,
                    &DistConfig::<f64>::new(8, 8)
                        .with_grid3(2, 2, 2)
                        .with_mode(mode),
                )
                .unwrap();
                assert_eq!(rep.grid, (2, 2, 2));
                assert_eq!(
                    rep.global, expect,
                    "2x2x2 diverged ({boundary:?}, {mode:?})"
                );
                // Every rank owns half the layers and reports z-channel
                // traffic.
                for r in &rep.ranks {
                    assert_eq!(r.z_len, 3);
                    assert!(r.traffic.zface_cells > 0, "rank {} has no z-face", r.rank);
                }
            }
        }
    }

    #[test]
    fn wide_halo_rows_are_exchanged_for_wide_stencils() {
        // y-extent 2 ⇒ two halo rows per side.
        let initial = wavy(6, 12, 2);
        let stencil = Stencil3D::from_tuples(&[
            (0, 0, 0, 0.4f64),
            (0, -2, 0, 0.2),
            (0, 2, 0, 0.2),
            (0, 1, 0, 0.1),
        ]);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 5);
        for mode in both_modes() {
            let rep = run_distributed(
                &initial,
                &stencil,
                &bounds,
                None,
                &DistConfig::<f64>::new(3, 5).with_mode(mode),
            )
            .unwrap();
            assert_eq!(rep.global, expect, "{mode:?}");
        }
    }

    /// Needed halo cells for one brick of an `rx×ry×rz` split, through
    /// [`HaloPlan`] (the API both halo modes consume).
    fn planned_cells(
        part: &Partition3,
        rank: usize,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<f64>,
    ) -> BTreeSet<(usize, usize, usize)> {
        let brick = part.brick(rank);
        let plan = HaloPlan::new(&brick, rank, part, halo, dims, bounds);
        plan.groups
            .iter()
            .flat_map(|(_, cells)| cells.iter().copied())
            .collect()
    }

    #[test]
    fn needed_cells_slab_tile_are_full_rows() {
        let by = BoundarySpec::<f64>::clamp();
        // Interior slab of a 1×3×1 split over 6×12×1: needs global rows 3
        // and 8 across the full width, no columns or layers.
        let part = Partition3::new(6, 12, 1, 1, 3, 1);
        let cells = planned_cells(&part, 1, (0, 1, 0), (6, 12, 1), &by);
        let expect: BTreeSet<(usize, usize, usize)> =
            (0..6).flat_map(|x| [(x, 3, 0), (x, 8, 0)]).collect();
        assert_eq!(cells, expect);
        // Top slab: y = -1 clamps onto its own row 0 (a self-served fold).
        let cells = planned_cells(&part, 0, (0, 1, 0), (6, 12, 1), &by);
        let expect: BTreeSet<(usize, usize, usize)> =
            (0..6).flat_map(|x| [(x, 0, 0), (x, 4, 0)]).collect();
        assert_eq!(cells, expect);
    }

    #[test]
    fn needed_cells_2d_tile_include_corners() {
        let by = BoundarySpec::<f64>::clamp();
        // Interior tile of a 3×3×1 grid over 9×9: full ring incl. corners.
        let part = Partition3::new(9, 9, 1, 3, 3, 1);
        let cells = planned_cells(&part, 4, (1, 1, 0), (9, 9, 1), &by);
        // Ring of width 1 around a 3×3 tile: 16 cells.
        assert_eq!(cells.len(), 16);
        for corner in [(2, 2, 0), (6, 2, 0), (2, 6, 0), (6, 6, 0)] {
            assert!(cells.contains(&corner), "missing corner {corner:?}");
        }
        assert!(
            !cells.contains(&(4, 4, 0)),
            "tile interior must not be needed"
        );

        // Domain-corner tile under clamp: out-of-domain reads fold onto
        // its own edge cells — they must still be in the needed set (the
        // rank serves them to itself).
        let cells = planned_cells(&part, 0, (1, 1, 0), (9, 9, 1), &by);
        assert!(cells.contains(&(0, 0, 0)), "clamp fold onto own corner");
        assert!(cells.contains(&(3, 3, 0)), "outer corner neighbour");

        // Periodic wraps to the opposite side of the torus.
        let per = BoundarySpec::<f64>::periodic();
        let cells = planned_cells(&part, 0, (1, 1, 0), (9, 9, 1), &per);
        assert!(cells.contains(&(8, 8, 0)), "periodic corner wrap");
        assert!(cells.contains(&(8, 0, 0)), "periodic column wrap");
        assert!(cells.contains(&(0, 8, 0)), "periodic row wrap");
    }

    #[test]
    fn needed_cells_3d_brick_include_z_faces_edges_and_corners() {
        // Centre brick of a 3×3×3 grid over 9×9×9, halo 1: the shell is
        // the 5×5×5 box minus the 3×3×3 brick.
        let by = BoundarySpec::<f64>::clamp();
        let part = Partition3::new(9, 9, 9, 3, 3, 3);
        let cells = planned_cells(&part, 13, (1, 1, 1), (9, 9, 9), &by);
        assert_eq!(cells.len(), 5 * 5 * 5 - 27);
        assert!(cells.contains(&(4, 4, 2)), "z-face below");
        assert!(cells.contains(&(4, 4, 6)), "z-face above");
        assert!(cells.contains(&(2, 4, 2)), "xz-edge");
        assert!(cells.contains(&(4, 2, 2)), "yz-edge");
        assert!(cells.contains(&(2, 2, 2)), "xyz-corner");
        assert!(cells.contains(&(6, 6, 6)), "far xyz-corner");
        assert!(!cells.contains(&(4, 4, 4)), "brick interior excluded");

        // Periodic z wraps the torus: the bottom-corner brick needs the
        // top layer.
        let per = BoundarySpec::<f64>::periodic();
        let cells = planned_cells(&part, 0, (1, 1, 1), (9, 9, 9), &per);
        assert!(cells.contains(&(0, 0, 8)), "periodic z-face wrap");
        assert!(cells.contains(&(8, 8, 8)), "periodic xyz-corner wrap");
    }

    #[test]
    fn cell_groups_put_self_first_then_ascending_producers() {
        let part = Partition3::new(6, 6, 4, 2, 2, 2);
        // Rank 0's brick under clamp folds out-of-domain reads onto its
        // own cells, so its plan has a self group — which must come first.
        let bounds = BoundarySpec::<f64>::clamp();
        let brick = part.brick(0);
        let plan = HaloPlan::new(&brick, 0, &part, (1, 1, 1), (6, 6, 4), &bounds);
        assert_eq!(plan.groups[0].0, 0, "self group must come first");
        let owners: Vec<usize> = plan.groups.iter().map(|(p, _)| *p).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(owners[1..], sorted[1..], "producers ascending");
        // The strip index enumerates the concatenated groups in order,
        // and each group is z-major row-major so runs stay dense.
        let mut expected_slot = 0;
        for (_, group) in &plan.groups {
            assert!(
                group
                    .windows(2)
                    .all(|w| (w[0].2, w[0].1, w[0].0) < (w[1].2, w[1].1, w[1].0)),
                "groups must be sorted z-major row-major"
            );
            for &(x, y, z) in group {
                assert_eq!(plan.index.slot(x, y, z), Some(expected_slot));
                expected_slot += 1;
            }
        }
    }

    #[test]
    fn protected_clean_run_matches_serial_with_zero_detections() {
        let initial = Grid3D::from_fn(8, 12, 2, |x, y, z| {
            80.0 + ((x * 3 + y * 5 + z) % 9) as f64 * 0.4
        });
        let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 15);
        for mode in both_modes() {
            let cfg = DistConfig::new(3, 15)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_mode(mode);
            let rep = run_distributed(&initial, &stencil, &bounds, None, &cfg).unwrap();
            assert_eq!(rep.global, expect, "{mode:?}");
            assert_eq!(rep.total_stats().detections, 0);
            assert_eq!(rep.total_stats().steps, 45); // 3 ranks × 15 iterations
        }
    }

    #[test]
    fn protected_clean_2x2_run_matches_serial_with_zero_detections() {
        let initial = Grid3D::from_fn(10, 12, 2, |x, y, z| {
            80.0 + ((x * 3 + y * 5 + z) % 9) as f64 * 0.4
        });
        let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 12);
        for mode in both_modes() {
            let cfg = DistConfig::new(4, 12)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_grid(2, 2)
                .with_mode(mode);
            let rep = run_distributed(&initial, &stencil, &bounds, None, &cfg).unwrap();
            assert_eq!(rep.global, expect, "{mode:?}");
            assert_eq!(rep.total_stats().detections, 0);
            assert_eq!(rep.total_stats().steps, 48); // 4 ranks × 12 iterations
        }
    }

    #[test]
    fn flip_near_a_rank_boundary_is_corrected_locally() {
        let initial = Grid3D::from_fn(8, 12, 2, |x, y, z| {
            80.0 + ((x * 3 + y * 5 + z) % 9) as f64 * 0.4
        });
        let stencil = Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1);
        let bounds = BoundarySpec::clamp();
        let expect = serial(&initial, &stencil, &bounds, 10);
        // Rank 1 owns rows 4..8; corrupt its first row (a halo row for
        // rank 0) right before an exchange.
        let flip = BitFlip {
            iteration: 4,
            x: 3,
            y: 0,
            z: 1,
            bit: 51,
        };
        for mode in both_modes() {
            let cfg = DistConfig::new(3, 10)
                .with_abft(AbftConfig::<f64>::paper_defaults())
                .with_flip(1, flip)
                .with_mode(mode);
            let rep = run_distributed(&initial, &stencil, &bounds, None, &cfg).unwrap();
            let total = rep.total_stats();
            assert_eq!(total.detections, 1, "{mode:?}");
            assert_eq!(total.corrections, 1, "{mode:?}");
            assert_eq!(rep.ranks[1].stats.corrections, 1);
            assert_eq!(rep.ranks[0].stats.corrections, 0);
            // The correction lands before the next halo exchange, so the
            // neighbour never sees the corruption.
            assert!(rep.global.max_abs_diff(&expect) < 1e-9);
        }
    }

    #[test]
    fn report_geometry_is_faithful() {
        let initial = wavy(5, 11, 1);
        let stencil = Stencil3D::from_tuples(&[(0, 0, 0, 0.6f64), (0, 1, 0, 0.4)]);
        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 2),
        )
        .unwrap();
        let geom: Vec<(usize, usize, usize)> =
            rep.ranks.iter().map(|r| (r.rank, r.y0, r.y_len)).collect();
        assert_eq!(geom, vec![(0, 0, 3), (1, 3, 3), (2, 6, 3), (3, 9, 2)]);
        assert!(rep.ranks.iter().all(|r| r.x0 == 0 && r.x_len == 5));
        assert!(rep.ranks.iter().all(|r| r.z0 == 0 && r.z_len == 1));
        assert_eq!(rep.grid, (1, 4, 1));
        assert!(rep.wall_s >= 0.0);

        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 2).with_grid(2, 2),
        )
        .unwrap();
        let geom: Vec<(usize, usize, usize, usize)> = rep
            .ranks
            .iter()
            .map(|r| (r.x0, r.x_len, r.y0, r.y_len))
            .collect();
        assert_eq!(
            geom,
            vec![(0, 3, 0, 6), (3, 2, 0, 6), (0, 3, 6, 5), (3, 2, 6, 5)]
        );
        assert_eq!(rep.grid, (2, 2, 1));

        // A z-decomposed grid reports brick layer geometry too.
        let initial = wavy(5, 11, 4);
        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 2).with_grid3(1, 2, 2),
        )
        .unwrap();
        let geom: Vec<(usize, usize, usize, usize)> = rep
            .ranks
            .iter()
            .map(|r| (r.y0, r.y_len, r.z0, r.z_len))
            .collect();
        assert_eq!(
            geom,
            vec![(0, 6, 0, 2), (6, 5, 0, 2), (0, 6, 2, 2), (6, 5, 2, 2)]
        );
        assert_eq!(rep.grid, (1, 2, 2));
    }

    #[test]
    fn out_of_brick_flip_rejected_with_structured_error() {
        let initial = wavy(6, 12, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        // 12 rows over 4 ranks ⇒ 3-row slabs; local y = 3 can never fire.
        let cfg = DistConfig::new(4, 5)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_flip(
                1,
                BitFlip {
                    iteration: 2,
                    x: 1,
                    y: 3,
                    z: 0,
                    bit: 50,
                },
            );
        let err =
            run_distributed(&initial, &stencil, &BoundarySpec::clamp(), None, &cfg).unwrap_err();
        assert_eq!(
            err,
            DistError::FlipOutOfBrick {
                rank: 1,
                flip: (1, 3, 0),
                brick: (6, 3, 2),
            }
        );
        assert!(err.to_string().contains("outside rank 1's 6x3x2 brick"));
    }

    #[test]
    fn out_of_brick_flip_rejected_in_x_on_2d_grids() {
        let initial = wavy(10, 10, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        // 2×2 grid over 10×10 ⇒ 5×5 tiles; local x = 7 fits the y-slab
        // interpretation (x < 10) but not the tile — must be rejected.
        let cfg = DistConfig::new(4, 5).with_grid(2, 2).with_flip(
            2,
            BitFlip {
                iteration: 1,
                x: 7,
                y: 2,
                z: 0,
                bit: 40,
            },
        );
        let err =
            run_distributed(&initial, &stencil, &BoundarySpec::clamp(), None, &cfg).unwrap_err();
        assert_eq!(
            err,
            DistError::FlipOutOfBrick {
                rank: 2,
                flip: (7, 2, 0),
                brick: (5, 5, 2),
            }
        );
        assert!(err.to_string().contains("outside rank 2's 5x5x2 brick"));
    }

    #[test]
    fn out_of_brick_flip_rejected_in_z_on_3d_grids() {
        let initial = wavy(8, 10, 4);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        // 1×2×2 grid over 8×10×4 ⇒ 8×5×2 bricks; local z = 3 fits the
        // undecomposed-z interpretation (z < 4) but not the brick.
        let cfg = DistConfig::new(4, 5).with_grid3(1, 2, 2).with_flip(
            3,
            BitFlip {
                iteration: 1,
                x: 2,
                y: 2,
                z: 3,
                bit: 40,
            },
        );
        let err =
            run_distributed(&initial, &stencil, &BoundarySpec::clamp(), None, &cfg).unwrap_err();
        assert_eq!(
            err,
            DistError::FlipOutOfBrick {
                rank: 3,
                flip: (2, 2, 3),
                brick: (8, 5, 2),
            }
        );
        assert!(err.to_string().contains("outside rank 3's 8x5x2 brick"));
    }

    #[test]
    fn invalid_flip_specs_each_get_their_own_error() {
        let initial = wavy(6, 12, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let bounds = BoundarySpec::clamp();
        let base = BitFlip {
            iteration: 1,
            x: 1,
            y: 1,
            z: 0,
            bit: 10,
        };
        let cases: Vec<(DistConfig<f64>, DistError)> = vec![
            (
                DistConfig::new(3, 5).with_flip(7, base),
                DistError::FlipRank { rank: 7, ranks: 3 },
            ),
            (
                DistConfig::new(3, 5).with_flip(0, BitFlip { bit: 99, ..base }),
                DistError::FlipBit { bit: 99, bits: 64 },
            ),
            (
                DistConfig::new(3, 5).with_flip(
                    0,
                    BitFlip {
                        iteration: 5,
                        ..base
                    },
                ),
                DistError::FlipIteration {
                    iteration: 5,
                    iters: 5,
                },
            ),
        ];
        for (cfg, want) in cases {
            let err = run_distributed(&initial, &stencil, &bounds, None, &cfg).unwrap_err();
            assert_eq!(err, want);
        }
    }

    #[test]
    fn bad_grid_shapes_rejected_with_structured_errors() {
        let initial = wavy(8, 12, 1);
        let stencil = Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]);
        let bounds = BoundarySpec::clamp();
        // rx·ry must cover the rank count.
        let err = run_distributed(
            &initial,
            &stencil,
            &bounds,
            None,
            &DistConfig::<f64>::new(4, 1).with_grid(3, 2),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DistError::GridMismatch {
                rx: 3,
                ry: 2,
                rz: 1,
                ranks: 4
            }
        );
        assert!(err.to_string().contains("grid 3x2x1 covers 6 ranks"));
        // More x-ranks than columns.
        let err = run_distributed(
            &initial,
            &stencil,
            &bounds,
            None,
            &DistConfig::<f64>::new(9, 1).with_grid(9, 1),
        )
        .unwrap_err();
        assert_eq!(err, DistError::TooManyRanksX { cols: 8, ranks: 9 });
        // More z-ranks than layers (the domain has 1).
        let err = run_distributed(
            &initial,
            &stencil,
            &bounds,
            None,
            &DistConfig::<f64>::new(4, 1).with_grid3(1, 2, 2),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DistError::TooManyRanksZ {
                layers: 1,
                ranks: 2
            }
        );
    }

    #[test]
    fn thin_brick_rejected_for_wide_z_stencils() {
        let initial = wavy(6, 8, 4);
        let stencil = Stencil3D::from_tuples(&[(0, 0, -2, 0.5f64), (0, 0, 2, 0.5)]);
        // 4 layers over 2 z-ranks ⇒ 2-layer bricks, but z-extent is 2.
        let err = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(2, 1).with_grid3(1, 1, 2),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DistError::BrickTooThin {
                rank: 0,
                layers: 2,
                extent: 2,
            }
        );
        assert!(err
            .to_string()
            .contains("not thicker than the stencil z-extent"));
    }

    /// Every geometry error's Display names the offending axis, so a
    /// rejected campaign config can be diagnosed from the message alone.
    #[test]
    fn dist_error_messages_name_the_offending_axis() {
        let cases: Vec<(DistError, &str)> = vec![
            (DistError::TooManyRanks { rows: 4, ranks: 9 }, "9 y-ranks"),
            (DistError::TooManyRanksX { cols: 4, ranks: 9 }, "9 x-ranks"),
            (
                DistError::TooManyRanksZ {
                    layers: 4,
                    ranks: 9,
                },
                "9 z-ranks",
            ),
            (
                DistError::SlabTooShort {
                    rank: 1,
                    rows: 2,
                    extent: 2,
                },
                "y-extent",
            ),
            (
                DistError::TileTooNarrow {
                    rank: 1,
                    cols: 2,
                    extent: 2,
                },
                "x-extent",
            ),
            (
                DistError::BrickTooThin {
                    rank: 1,
                    layers: 2,
                    extent: 2,
                },
                "z-extent",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} does not name {needle:?}");
            assert!(msg.contains("rank"), "{msg:?} does not name the rank axis");
        }
        // The brick-shape errors spell the full 3-D geometry.
        let msg = DistError::FlipOutOfBrick {
            rank: 2,
            flip: (1, 2, 3),
            brick: (4, 5, 6),
        }
        .to_string();
        assert!(
            msg.contains("(1, 2, 3)") && msg.contains("4x5x6 brick"),
            "{msg}"
        );
        let msg = DistError::GridMismatch {
            rx: 2,
            ry: 3,
            rz: 4,
            ranks: 5,
        }
        .to_string();
        assert!(msg.contains("2x3x4"), "{msg}");
    }

    #[test]
    fn narrow_tile_rejected_for_wide_x_stencils() {
        let initial = wavy(8, 8, 1);
        let stencil = Stencil3D::from_tuples(&[(-2, 0, 0, 0.5f64), (2, 0, 0, 0.5)]);
        // 8 columns over 4 x-ranks ⇒ 2-column tiles, but x-extent is 2.
        let err = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 1).with_grid(4, 1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DistError::TileTooNarrow {
                rank: 0,
                cols: 2,
                extent: 2,
            }
        );
        assert!(err
            .to_string()
            .contains("not wider than the stencil x-extent"));
    }

    #[test]
    fn slab_shorter_than_stencil_extent_rejected() {
        let initial = wavy(5, 8, 1);
        let stencil = Stencil3D::from_tuples(&[(0, -2, 0, 0.5f64), (0, 2, 0, 0.5)]);
        // 8 rows over 4 ranks ⇒ 2-row slabs, but the stencil needs > 2.
        let err = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DistError::SlabTooShort {
                rank: 0,
                rows: 2,
                extent: 2,
            }
        );
    }

    #[test]
    fn too_many_ranks_and_ghost_bounds_rejected() {
        let initial = wavy(5, 6, 1);
        let stencil = Stencil3D::from_tuples(&[(0, 0, 0, 1.0f64)]);
        let err = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(9, 1),
        )
        .unwrap_err();
        assert_eq!(err, DistError::TooManyRanks { rows: 6, ranks: 9 });

        let ghost_bounds = BoundarySpec {
            x: Boundary::Clamp,
            y: Boundary::Ghost,
            z: Boundary::Clamp,
        };
        let err = run_distributed(
            &initial,
            &stencil,
            &ghost_bounds,
            None,
            &DistConfig::<f64>::new(2, 1),
        )
        .unwrap_err();
        assert_eq!(err, DistError::GhostBoundary);
    }

    #[test]
    fn pipelined_timings_are_populated() {
        let initial = wavy(16, 24, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(3, 8),
        )
        .unwrap();
        for r in &rep.ranks {
            let t = r.timing;
            assert!(t.total_s() > 0.0, "rank {} reported no time", r.rank);
            // Interior sweeps happened (slabs are taller than 2×extent).
            assert!(t.interior_s > 0.0, "rank {} never overlapped", r.rank);
            assert!((0.0..=1.0).contains(&t.halo_wait_fraction()));
            // Byte counters are consistent with the rank's traffic plan
            // (8 iterations of `remote_cells` z-columns).
            assert_eq!(
                t.halo_bytes_recv,
                (r.traffic.remote_cells * r.traffic.cell_bytes * 8) as u64
            );
            assert!(t.halo_bytes_sent > 0, "every slab owes a neighbour rows");
        }
        assert!(rep.max_halo_wait_fraction() <= 1.0);
        // Summed sends equal summed receives: every cell posted by one
        // rank lands in exactly one consumer's payload.
        let sent: u64 = rep.ranks.iter().map(|r| r.timing.halo_bytes_sent).sum();
        let recv: u64 = rep.ranks.iter().map(|r| r.timing.halo_bytes_recv).sum();
        assert_eq!(sent, recv);
    }

    #[test]
    fn traffic_is_reported_per_channel_and_in_totals() {
        let initial = wavy(12, 12, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 3).with_grid(2, 2),
        )
        .unwrap();
        // 2×2 over 12×12×2, halo 1 under clamp: per tile both windows
        // have 1 (neighbour) + 1 (clamp fold) = 2 cells, over 2 layers.
        for r in &rep.ranks {
            assert_eq!(r.traffic.row_cells, 6 * 2 * 2, "rank {}", r.rank);
            assert_eq!(r.traffic.col_cells, 2 * 6 * 2, "rank {}", r.rank);
            assert_eq!(r.traffic.corner_cells, 2 * 2 * 2, "rank {}", r.rank);
            assert_eq!(r.traffic.z_cells(), 0, "undecomposed z has no z-channels");
            assert_eq!(r.traffic.cell_bytes, std::mem::size_of::<f64>());
            assert_eq!(
                r.traffic.unique_cells,
                r.traffic.self_cells + r.traffic.remote_cells
            );
        }
        let total = rep.total_traffic();
        assert_eq!(total.row_cells, 4 * 12 * 2);
        assert_eq!(total.corner_cells, 32);
        // The Display summary carries the traffic line.
        let text = rep.to_string();
        assert!(text.contains("halo traffic"), "{text}");
        assert!(text.contains("corner share"), "{text}");

        // The lock-step driver moves the same wire bytes as the threaded
        // one, and both match the analytic plan.
        let snap = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 3)
                .with_grid(2, 2)
                .with_mode(HaloMode::Snapshot),
        )
        .unwrap();
        for (p, s) in rep.ranks.iter().zip(&snap.ranks) {
            assert_eq!(p.timing.halo_bytes_sent, s.timing.halo_bytes_sent);
            assert_eq!(p.timing.halo_bytes_recv, s.timing.halo_bytes_recv);
            assert_eq!(
                s.timing.halo_bytes_recv,
                (s.traffic.remote_cells * s.traffic.cell_bytes * 3) as u64
            );
        }
    }

    #[test]
    fn empty_grid_rejected_with_structured_error() {
        // Two layers of defence: every `Grid3D` constructor refuses
        // zero-cell shapes outright, and should a zero-dim grid ever
        // reach `validate` anyway (a future constructor, deserialized
        // state), admission rejects it with a structured error instead
        // of panicking in `decompose` inside a pooled worker.
        for dims in [(0usize, 8usize, 2usize), (8, 0, 2), (8, 8, 0)] {
            let built = std::panic::catch_unwind(|| {
                Grid3D::from_fn(dims.0, dims.1, dims.2, |_, _, _| 0.0f64)
            });
            assert!(built.is_err(), "Grid3D accepted empty dims {dims:?}");
            let err = DistError::EmptyGrid { dims };
            assert!(err.to_string().contains("has no cells"), "{err}");
        }
    }

    #[test]
    fn zero_iterations_rejected_with_structured_error() {
        let initial = wavy(8, 8, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let err = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(2, 0),
        )
        .unwrap_err();
        assert_eq!(err, DistError::ZeroIterations);
        assert!(err.to_string().contains("zero iterations"), "{err}");
    }

    #[test]
    fn serving_error_messages_are_specific() {
        let cases: Vec<(DistError, &str)> = vec![
            (
                DistError::HaloTooNarrow {
                    axis: 'z',
                    halo: 1,
                    extent: 2,
                },
                "kernel z-reach 2",
            ),
            (
                DistError::PoolTooSmall { ranks: 8, pool: 4 },
                "8 concurrent ranks",
            ),
            (
                DistError::RankPanicked {
                    rank: Some(3),
                    message: "boom".to_string(),
                },
                "rank 3 panicked",
            ),
            (
                DistError::RankPanicked {
                    rank: None,
                    message: "boom".to_string(),
                },
                "job panicked",
            ),
            (DistError::UnknownJob { id: 42 }, "job #42"),
            (DistError::EmptyGrid { dims: (0, 8, 2) }, "domain 0x8x2"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} does not contain {needle:?}");
        }
    }

    #[test]
    fn report_display_includes_rank_busy_latency_line() {
        let initial = wavy(12, 16, 2);
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let rep = run_distributed(
            &initial,
            &stencil,
            &BoundarySpec::clamp(),
            None,
            &DistConfig::<f64>::new(4, 4),
        )
        .unwrap();
        let text = rep.to_string();
        assert!(text.contains("rank busy time"), "{text}");
        assert!(text.contains("min/p50/p99/max"), "{text}");
        // The one-shot wrapper rides the serving layer, so even it
        // observes a submit-to-completion latency.
        assert!(rep.latency_s > 0.0);
        assert!(rep.latency_s >= rep.wall_s);
    }
}
