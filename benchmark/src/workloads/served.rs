//! `served-mix`: altitude 3 — a pool of two workers, two closed-loop
//! clients draining a 32-job batch per slice. Half the jobs are tiny
//! (16×16×4 … 32×32×4, 4–8 sweeps), half small (48×40×6 … 64×64×8, 8–16
//! sweeps); 1- and 2-rank; 7-, 9-, 13- and 27-point kernels; clamped and
//! periodic; `k ∈ {1, 2, 4}` with epoch-aligned checkpoints; one
//! `HaloMode::Snapshot` job. `F` puts flips on five jobs, kills on three
//! and one flip into a decaying ghost shell. Why it exists: here the
//! scheduler (admit → dispatch → publish), the topology cache, rank-state
//! build, gather, shell decay with its DMR guard and recovery dominate,
//! and kernels are a small share; it is also where `abft-dist` is used the
//! other way round from `dist-halo` (deep halos, concurrency, rollback),
//! so a `k = 1` gain that costs `k > 1` or recovery shows.
//!
//! The job *shapes* are a fixed table — a batch whose sizes moved with the
//! seed would move the metrics with it — while the seed decides the data,
//! the order the clients meet the jobs in, and where every fault strikes.

use abft_dist::{HaloMode, JobSpec};
use abft_grid::BoundarySpec;
use abft_stencil::{Stencil2D, Stencil3D};

use super::field;
use super::service::{Job, Role, Served, ServedConfig};
use crate::lab::Tags;
use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Star7,
    Conv9,
    Star13,
    Box27,
}

impl Kernel {
    fn stencil(self) -> Stencil3D<f64> {
        match self {
            Kernel::Star7 => Stencil3D::diffusion_7pt(0.1),
            Kernel::Conv9 => Stencil2D::convection_9pt(0.18, 0.08, -0.05).into_3d(),
            Kernel::Star13 => Stencil3D::diffusion_13pt_4th_order(0.02),
            Kernel::Box27 => Stencil3D::diffusion_27pt(0.3),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Star7 => "star7",
            Kernel::Conv9 => "9pt",
            Kernel::Star13 => "13pt",
            Kernel::Box27 => "27pt",
        }
    }
}

/// One row of the batch table.
struct Shape {
    dims: (usize, usize, usize),
    kernel: Kernel,
    periodic: bool,
    ranks: usize,
    k: usize,
    sweeps: usize,
    role: Role,
}

const fn shape(
    dims: (usize, usize, usize),
    kernel: Kernel,
    periodic: bool,
    ranks: usize,
    k: usize,
    sweeps: usize,
    role: Role,
) -> Shape {
    Shape {
        dims,
        kernel,
        periodic,
        ranks,
        k,
        sweeps,
        role,
    }
}

use Kernel::{Box27, Conv9, Star13, Star7};
use Role::{Clean, Flip, Kill, ShellFlip};

/// Index of the one job that runs in `HaloMode::Snapshot`.
const SNAPSHOT_JOB: usize = 9;
/// Index of the largest job: the yardstick's problem.
const LARGEST_JOB: usize = 18;

#[rustfmt::skip]
const SHAPES: [Shape; 32] = [
    // --- tiny: 16×16×4 … 32×32×4, 4–8 sweeps ---------------------------
    shape((16, 16, 4), Star7,  false, 1, 1,  4, Clean),
    shape((20, 16, 4), Conv9,  false, 1, 1,  6, Clean),
    shape((24, 24, 4), Box27,  true,  1, 1,  4, Clean),
    shape((32, 32, 4), Star13, false, 1, 1,  8, Flip),
    shape((16, 24, 4), Star7,  true,  2, 1,  6, Kill),
    shape((24, 20, 4), Box27,  false, 2, 1,  4, Flip),
    shape((32, 24, 4), Conv9,  true,  1, 2,  8, Clean),
    shape((28, 28, 4), Star7,  false, 2, 2,  6, Clean),
    shape((32, 32, 4), Box27,  false, 1, 4,  8, Clean),
    shape((16, 16, 4), Star7,  false, 1, 1,  4, Clean), // SNAPSHOT_JOB
    shape((24, 32, 4), Star13, true,  2, 1,  6, Clean),
    shape((20, 20, 4), Conv9,  false, 2, 1,  8, Clean),
    shape((32, 16, 4), Star7,  false, 1, 1,  8, Clean),
    shape((24, 24, 4), Box27,  true,  2, 2,  4, Clean),
    shape((28, 20, 4), Star7,  true,  1, 1,  6, Clean),
    shape((32, 28, 4), Conv9,  false, 1, 1,  4, Clean),
    // --- small: 48×40×6 … 64×64×8, 8–16 sweeps -------------------------
    shape((48, 40, 6), Star7,  false, 2, 1,  8, Kill),
    shape((56, 48, 6), Box27,  false, 2, 1,  8, Flip),
    shape((64, 64, 8), Box27,  true,  2, 1, 12, Clean), // LARGEST_JOB
    shape((48, 48, 8), Star13, false, 2, 1,  8, Clean),
    shape((64, 40, 6), Conv9,  true,  1, 1, 12, Clean),
    shape((56, 56, 6), Star7,  false, 1, 1, 12, Flip),
    shape((48, 64, 8), Box27,  false, 2, 2,  8, ShellFlip),
    shape((64, 48, 6), Star7,  true,  2, 2, 12, Kill),
    shape((56, 40, 8), Box27,  false, 2, 4, 12, Clean),
    shape((64, 64, 6), Star7,  false, 1, 4,  8, Clean),
    shape((48, 40, 8), Conv9,  false, 2, 1, 12, Clean),
    shape((60, 52, 6), Star13, true,  1, 2,  8, Clean),
    shape((64, 56, 8), Box27,  false, 1, 1,  8, Flip),
    shape((52, 44, 6), Star7,  false, 2, 1, 16, Clean),
    shape((56, 64, 8), Conv9,  true,  2, 2, 12, Clean),
    shape((48, 48, 6), Box27,  true,  1, 1,  8, Clean),
];

/// The batch in table order (`batch` shuffles it).
fn table(seed: u64) -> Vec<Job> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let snapshot = i == SNAPSHOT_JOB;
            let tiny = i < SHAPES.len() / 2;
            let bounds = if s.periodic {
                BoundarySpec::periodic()
            } else {
                BoundarySpec::clamp()
            };
            let (nx, ny, nz) = s.dims;
            Job {
                label: format!(
                    "#{i} {} {nx}x{ny}x{nz} {} {}r k={} {}sw{}",
                    s.kernel.name(),
                    if s.periodic { "periodic" } else { "clamp" },
                    s.ranks,
                    s.k,
                    s.sweeps,
                    if snapshot { " snapshot" } else { "" },
                ),
                spec: JobSpec::over(
                    field(seed, ServedMix::STREAM ^ ((i as u64 + 1) << 32), s.dims),
                    s.kernel.stencil(),
                )
                .with_bounds(bounds)
                .with_ranks(s.ranks)
                .with_grid(1, s.ranks)
                .with_iters(s.sweeps)
                .with_steps_per_exchange(s.k)
                .with_mode(if snapshot {
                    HaloMode::Snapshot
                } else {
                    HaloMode::Pipelined
                }),
                tags: Tags {
                    served: true,
                    tiny,
                    ranks: s.ranks,
                    k: s.k,
                    snapshot,
                    ..Tags::default()
                },
                role: s.role,
            }
        })
        .collect()
}

/// The seeded batch: the table's jobs over seeded data, in a seeded order.
/// The largest job stays where [`ServedMix::YARD_JOB`] says.
pub fn batch(seed: u64) -> Vec<Job> {
    let mut jobs = table(seed);
    let mut rng = Rng::new(seed, ServedMix::STREAM);
    for i in (1..jobs.len()).rev() {
        let j = rng.range(0, i + 1);
        if i != LARGEST_JOB && j != LARGEST_JOB {
            jobs.swap(i, j);
        }
    }
    jobs
}

pub struct ServedMix;

impl ServedConfig for ServedMix {
    const NAME: &'static str = "served-mix";
    const CLIENTS: usize = 2;
    const PERIOD: usize = 4;
    const GROUPS: usize = 4;
    const YARD_SWEEPS: usize = 48;
    const YARD_JOB: usize = LARGEST_JOB;
    const STREAM: u64 = 0x534d;

    fn batch(seed: u64) -> Vec<Job> {
        batch(seed)
    }
}

pub type Workload = Served<ServedMix>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_is_what_the_readme_says() {
        let jobs = batch(1);
        assert_eq!(jobs.len(), 32);
        assert_eq!(jobs.iter().filter(|j| j.tags.tiny).count(), 16);
        assert_eq!(jobs.iter().filter(|j| j.tags.snapshot).count(), 1);
        assert_eq!(jobs.iter().filter(|j| j.role == Role::Flip).count(), 5);
        assert_eq!(jobs.iter().filter(|j| j.role == Role::Kill).count(), 3);
        assert_eq!(jobs.iter().filter(|j| j.role == Role::ShellFlip).count(), 1);
        for k in [1, 2, 4] {
            assert!(jobs.iter().any(|j| j.tags.k == k), "no k = {k} job");
        }
        for ranks in [1, 2] {
            assert!(jobs.iter().any(|j| j.tags.ranks == ranks));
        }
        let largest = jobs.iter().map(|j| j.spec.initial.len()).max().unwrap();
        assert_eq!(jobs[LARGEST_JOB].spec.initial.len(), largest);
    }

    #[test]
    fn the_seed_fixes_data_and_order_and_nothing_else() {
        let (a, b, c) = (batch(1), batch(1), batch(2));
        let labels = |jobs: &[Job]| jobs.iter().map(|j| j.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        assert_eq!(a[0].spec.initial, b[0].spec.initial);
        assert_ne!(labels(&a), labels(&c), "order should move with the seed");
        let mut sorted = (labels(&a), labels(&c));
        sorted.0.sort();
        sorted.1.sort();
        assert_eq!(sorted.0, sorted.1, "the same 32 shapes under every seed");
    }
}
