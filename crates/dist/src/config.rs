//! What a caller configures: the driver ([`HaloMode`]), the rank-grid
//! shape ([`GridSpec`]) and the run itself ([`DistConfig`]).

use abft_checkpoint::CheckpointPolicy;
use abft_core::AbftConfig;
use abft_fault::{BitFlip, RankKill};
use abft_num::Real;

#[cfg(doc)]
use crate::{auto_grid, run_distributed, DistError};

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
///     .with_abft(AbftConfig::paper_defaults())
///     .with_mode(HaloMode::Snapshot);
/// assert_eq!(cfg.grid, GridSpec::Explicit { rx: 2, ry: 2, rz: 2 });
/// assert_eq!(cfg.mode, HaloMode::Snapshot);
/// ```
#[derive(Debug, Clone)]
pub struct DistConfig<T> {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Stencil iterations to run.
    pub iters: usize,
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
    /// flip fires when the named rank's sweep of the flip's iteration
    /// brings that shell cell forward in its pad.
    pub shell_flips: Vec<(usize, BitFlip)>,
}

impl<T: Real> DistConfig<T> {
    /// An unprotected pipelined run over `ranks` y-slabs for `iters`
    /// iterations.
    pub fn new(ranks: usize, iters: usize) -> Self {
        Self {
            ranks,
            iters,
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
