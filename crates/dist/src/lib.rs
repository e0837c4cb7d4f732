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
//! * each rank owns a [`StencilSim`] over its brick **padded** by the halo
//!   depth on every decomposed axis (the brick grown by
//!   `steps_per_exchange` stencil reaches; clipped at a domain end that
//!   does not wrap, where the job's own boundary applies, and unwrapped on
//!   a periodic axis): the pad holds neighbour **cells** captured at time
//!   `t` — the full 3-D halo shell: x/y/z face strips, the edge strips
//!   where two axis windows meet (the 2-D decomposition's corner patches
//!   are the xy-edges) and the corner patches where all three do —
//!   exactly the values an MPI halo exchange would have delivered, in the
//!   grid cells a sweep reads them from. The shell is planned as a short
//!   list of boxes ([`HaloPlan`]: one [`HaloBox`] per producer and
//!   per-axis window segment), and that list is the only description of
//!   it: producers pack it line by line, and the consumer lands each line
//!   in its pad with one slice copy. Each plan also records per-channel
//!   traffic volumes ([`HaloTraffic`]: cells and bytes per
//!   face/edge/corner channel);
//! * every rank advances through **one step machine** (`step.rs`): each
//!   iteration the rank posts the halo cells it owes each consumer to
//!   per-neighbour channels and sweeps the part of its brick that reads
//!   no pad cell while the halos are in flight, then lands its halo in
//!   the pad, sweeps the rest of the step's window (with
//!   `steps_per_exchange = k`, the brick grown by a reach per sweep still
//!   to come in the epoch) and verifies. A rank lost on the way (killed,
//!   bereaved of a peer, or damaged past local correction) is recovered
//!   by **one rollback rule**: every rank returns to the newest
//!   checkpoint epoch they all hold and replays;
//! * two drivers run that machine, selected by [`HaloMode`]. The default
//!   [`HaloMode::Pipelined`] gives each rank a pooled thread **for the
//!   whole run** — there is no global barrier; ordering is enforced
//!   purely by the bounded (depth-2, double-buffered) channels.
//!   [`HaloMode::Snapshot`] advances every rank from one thread in
//!   deterministic lock-step (all post, then all complete), needing no
//!   pool slots — the oracle of the equivalence matrices;
//! * a rank with protection enabled drives its sweep through
//!   [`OnlineAbft::sweep_interior`] and
//!   [`OnlineAbft::sweep_shell_and_verify`] with a protector over the
//!   brick's box of the padded grid ([`OnlineAbft::over_box`]), so
//!   checksum interpolation reads the same pad cells as the sweep — row
//!   and column checksums cross rank boundaries in every decomposed
//!   direction, and each rank verifies exactly the z-layers of its own
//!   brick — and single-point
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
//! the padded grid itself: a pad stops at a domain end that does not
//! wrap, so a read past it is resolved by the **global** boundary of that
//! axis exactly as in the serial sweep (clamp/reflect fold back into
//! edge-brick cells, zero/constant short-circuit to the boundary value —
//! at brick edges and corners too, where two or all three axes resolve),
//! while a periodic pad holds the wrapped-around cells (the first column
//! of bricks receives halos from the last).

use abft_core::OnlineAbft;
use abft_fault::BitFlip;
use abft_grid::{BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::{Exec, Stencil3D, StencilSim};
use std::sync::Arc;

mod config;
mod epoch;
mod error;
mod index;
mod partition;
mod pipeline;
mod report;
mod service;
mod step;
mod validate;
mod worker;

pub use config::{DistConfig, GridSpec, HaloMode};
pub use error::DistError;
pub use index::{HaloBox, HaloPlan, HaloTraffic};
pub use partition::{auto_grid, decompose, Brick, Partition3};
pub(crate) use report::gather_report;
pub use report::{DistReport, PhaseTimings, RankReport};
pub use service::{
    DistService, JobHandle, JobId, JobSpec, ServeStats, ServiceConfig, MAX_OVERTAKES,
};
pub(crate) use validate::{effective_halo, validate};

/// One simulated rank: its padded-brick simulation, optional protector,
/// pending faults, halo plan (boxes, traffic volumes) and accumulated
/// phase timings.
pub(crate) struct Rank<T> {
    /// The simulation of the rank's padded grid ([`epoch::Pad`]): the
    /// brick plus its halo, swept under the job's own boundaries.
    pub(crate) sim: StencilSim<T>,
    /// The protector of the brick's box of `sim`.
    pub(crate) abft: Option<OnlineAbft<T>>,
    pub(crate) brick: Brick,
    pub(crate) pad: epoch::Pad,
    /// Brick faults, in brick coordinates.
    pub(crate) flips: Vec<BitFlip>,
    /// The rank's halo plan: the global cells it needs every exchange,
    /// as boxes (self-owned first — boundary folds and periodic wraps the
    /// rank serves to itself — then remote producers in ascending rank
    /// order, each box z-major row-major). Concatenating a producer's
    /// boxes in this order yields its message. Shared with the pool's
    /// topology cache — the plan is immutable, so jobs with the same
    /// shape reuse one copy.
    pub(crate) plan: Arc<HaloPlan>,
    pub(crate) timing: PhaseTimings,
    /// Ghost-shell faults to inject into the pad cells a sweep brings
    /// forward (global coordinates; only fire with `steps_per_exchange >
    /// 1`).
    pub(crate) shell_flips: Vec<BitFlip>,
    /// The shell guard's recompute target: protected ranks with
    /// `steps_per_exchange > 1` and a pad only ([`epoch::guard`]).
    pub(crate) twin: Option<Grid3D<T>>,
}

impl<T: Real> Rank<T> {
    /// The flips scheduled to fire during sweep `t`, at padded-grid
    /// coordinates: the brick's, and the shell's at the pad cell they
    /// strike (a shell cell the sweep does not write holds nothing to
    /// corrupt).
    pub(crate) fn flips_at(&self, t: usize) -> Vec<BitFlip> {
        let [ox, oy, oz] = self.pad.lo;
        let brick = self
            .flips
            .iter()
            .filter(|f| f.iteration == t)
            .map(|f| BitFlip {
                x: f.x + ox,
                y: f.y + oy,
                z: f.z + oz,
                ..*f
            });
        let shell = self.shell_flips.iter().filter(|f| f.iteration == t);
        let shell = shell.filter_map(|f| {
            let [x, y, z] = self.pad.in_pad([f.x, f.y, f.z])?;
            Some(BitFlip { x, y, z, ..*f })
        });
        brick.chain(shell).collect()
    }
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
/// explicit grid does not cover the rank count, or when a flip spec is
/// invalid (bad rank, out-of-brick coordinates, bit width, or an
/// iteration that never runs).
pub fn run_distributed<T: Real>(
    initial: &Grid3D<T>,
    stencil: &Stencil3D<T>,
    bounds: &BoundarySpec<T>,
    constant: Option<&Grid3D<T>>,
    cfg: &DistConfig<T>,
) -> Result<DistReport<T>, DistError> {
    // A DistService-of-one: a temporary service with one pool slot per
    // rank and a single-job queue, so the one-shot and pooled paths are
    // the same code and admit exactly the same specs.
    let service = DistService::with_config(ServiceConfig::new(cfg.ranks.max(1)))?;
    let mut spec = JobSpec::over(initial.clone(), stencil.clone())
        .with_bounds(*bounds)
        .with_dist(cfg.clone());
    if let Some(c) = constant {
        spec = spec.with_constant(c.clone());
    }
    let handle = service.submit(spec)?;
    let report = handle.wait();
    service.shutdown();
    report
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
    let guarded = cfg.abft.is_some() && cfg.steps_per_exchange > 1;
    let halo = effective_halo(cfg, stencil, (part.rx(), part.ry(), part.rz()));
    (0..part.ranks())
        .map(|r| {
            let brick = part.brick(r);
            let pad = epoch::Pad::new(&brick, initial.dims(), bounds, halo, stencil);
            let mut sim = StencilSim::new(pad.fill(initial), stencil.clone(), *bounds)
                .with_exec(Exec::Serial);
            if let Some(c) = constant {
                sim = sim.with_constant(pad.fill(c));
            }
            let abft = cfg
                .abft
                .map(|acfg| OnlineAbft::over_box(&sim, acfg, pad.window(0)));
            let [nx, ny, nz] = pad.dims;
            let padded = pad.window(0) != sim.whole();
            let of_rank = |faults: &[(usize, BitFlip)]| {
                let mine = faults.iter().filter(|(fr, _)| *fr == r);
                mine.map(|(_, f)| *f).collect()
            };
            Rank {
                abft,
                brick,
                flips: of_rank(&cfg.flips),
                plan: plans[r].clone(),
                timing: PhaseTimings::default(),
                shell_flips: of_rank(&cfg.shell_flips),
                twin: (guarded && padded).then(|| Grid3D::zeros(nx, ny, nz)),
                sim,
                pad,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::AbftConfig;
    use abft_grid::Boundary;
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
        plan.cells().collect()
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
        assert_eq!(plan.boxes()[0].owner, 0, "self boxes must come first");
        let owners: Vec<usize> = plan.boxes().iter().map(|b| b.owner).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(owners[1..], sorted[1..], "producers ascending");
        // The payload is the boxes laid end to end, each z-major
        // row-major so every line of a box is one run of slots.
        let mut expected_slot = 0;
        for b in plan.boxes() {
            assert_eq!(b.base, expected_slot, "boxes must tile the payload");
            let cells: Vec<_> = b.cells().collect();
            assert!(
                cells
                    .windows(2)
                    .all(|w| (w[0].2, w[0].1, w[0].0) < (w[1].2, w[1].1, w[1].0)),
                "a box must enumerate z-major row-major"
            );
            for (x, y, z) in cells {
                assert_eq!(plan.slot(x, y, z), Some(expected_slot));
                expected_slot += 1;
            }
        }
        assert_eq!(expected_slot, plan.len());
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
    fn too_many_ranks_rejected() {
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
                DistError::ZeroCheckpointPeriod,
                "checkpoint period must be at least 1",
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
