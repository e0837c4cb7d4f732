//! The typed rejections and job failures of the distributed layer.

#[cfg(doc)]
use crate::{run_distributed, DistService};

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
    /// A checkpoint policy with `period == 0` (constructible only by
    /// struct literal; [`CheckpointPolicy::every`] panics on it): no
    /// iteration after the first would ever be checkpointed.
    ///
    /// [`CheckpointPolicy::every`]: abft_checkpoint::CheckpointPolicy::every
    ZeroCheckpointPeriod,
    /// The checkpoint period is not a multiple of `steps_per_exchange`.
    /// Snapshots must land on exchange boundaries — only there is the
    /// ghost shell spent (it is rebuilt from the next exchange, not
    /// stored), so a rollback target inside an epoch would resume with
    /// no shell to read.
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
                "rank {rank}'s brick of {rows} rows is not taller than the stencil y-extent {extent}; a brick must outgrow the stencil on every axis"
            ),
            Self::TileTooNarrow {
                rank,
                cols,
                extent,
            } => write!(
                f,
                "rank {rank}'s brick of {cols} columns is not wider than the stencil x-extent {extent}; a brick must outgrow the stencil on every axis"
            ),
            Self::BrickTooThin {
                rank,
                layers,
                extent,
            } => write!(
                f,
                "rank {rank}'s brick of {layers} z-layers is not thicker than the stencil z-extent {extent}; a brick must outgrow the stencil on every axis"
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
            Self::ZeroCheckpointPeriod => {
                write!(f, "checkpoint period must be at least 1")
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
