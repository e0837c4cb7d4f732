//! Temporal tiling over a padded rank grid: a rank's halo is memory.
//!
//! A rank's [`StencilSim`] runs on its brick grown by the halo depth
//! `h = k·r` (`k` sweeps per exchange, `r` the stencil reach) on every
//! axis split across ranks — clipped at a domain end that does not wrap,
//! so that end *is* the grid's end and the job's own [`BoundarySpec`]
//! applies there; unwrapped on a periodic axis, whose grid ends are then
//! never read. [`Pad`] is that geometry, and the one the exchange is
//! planned from: its cells outside the brick, cut per axis where the
//! owner changes or the axis wraps ([`Pad::cuts`]), are the halo boxes
//! (`crate::index`). An exchange lands each box in the pad, one slice
//! copy per line of the box ([`Pad::unpack`], the mirror of
//! [`Pad::pack`]); sweep `j` of an epoch is then
//! [`abft_stencil::sweep_region`] over the brick grown by `(k − 1 − j)·r`
//! ([`Pad::window`]), which reads pad cells as ordinary grid memory.
//!
//! Every read lands in valid data: the exchange fills the pad to depth
//! `h`, and sweep `j` writes a window `r` narrower than the one sweep
//! `j − 1` left valid, while a tap reaches at most `r` — through a
//! boundary fold too, which lands within `r` of the domain end it folds
//! at. The kernel is the serial sweep's, so a pad cell a sweep brings
//! forward is bitwise what a fresh exchange would have delivered.
//!
//! A protected rank verifies each window as its sweep writes it, pad
//! cells included, as one box of its protector
//! ([`OnlineAbft::over_plans`], over plans the pool keeps per topology).
//!
//! [`OnlineAbft::over_plans`]: abft_core::OnlineAbft::over_plans
//! [`StencilSim`]: abft_stencil::StencilSim

use crate::index::HaloBox;
use crate::partition::axis_owner;
use crate::Brick;
use abft_grid::{copy_box, Boundary, BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::{InteriorWindow, Stencil3D};
use std::array::from_fn;

/// One rank's brick within its padded grid (see the module docs), per
/// axis: the brick's first global cell, its length and first padded cell
/// (the pad below it), the padded length, the global length, and the
/// reach its windows grow by per remaining sweep (0 on an axis that does
/// not exchange).
#[derive(Debug, Clone)]
pub(crate) struct Pad {
    b0: [usize; 3],
    pub(crate) len: [usize; 3],
    pub(crate) lo: [usize; 3],
    pub(crate) dims: [usize; 3],
    n: [usize; 3],
    reach: [usize; 3],
}

impl Pad {
    /// The padded grid of `brick` in a `dims` domain whose exchanged axes
    /// have halo depth `halo`.
    pub(crate) fn new<T: Real>(
        brick: &Brick,
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
        halo: (usize, usize, usize),
        stencil: &Stencil3D<T>,
    ) -> Self {
        let n = [dims.0, dims.1, dims.2];
        let b0 = [brick.x0, brick.y0, brick.z0];
        let len = [brick.x_len, brick.y_len, brick.z_len];
        let depth = [halo.0, halo.1, halo.2];
        let wraps = [bounds.x, bounds.y, bounds.z].map(|b| matches!(b, Boundary::Periodic));
        let extent = [stencil.extent_x(), stencil.extent_y(), stencil.extent_z()];
        // Pad cells on one side: the halo depth, short of the domain end
        // on an axis that does not wrap.
        let side = |a: usize, room: usize| depth[a].min(if wraps[a] { depth[a] } else { room });
        let lo: [usize; 3] = from_fn(|a| side(a, b0[a]));
        Self {
            dims: from_fn(|a| lo[a] + len[a] + side(a, n[a] - b0[a] - len[a])),
            reach: from_fn(|a| if depth[a] > 0 { extent[a] } else { 0 }),
            b0,
            len,
            lo,
            n,
        }
    }

    /// The brick grown by `steps` reaches on every exchanged axis, within
    /// the padded grid: what sweep `j` of an epoch writes at
    /// `steps = k − 1 − j`, and what it leaves valid.
    pub(crate) fn window(&self, steps: usize) -> InteriorWindow {
        let [x, y, z] = from_fn(|a| {
            let (start, grow) = (self.lo[a], steps * self.reach[a]);
            start.saturating_sub(grow)..(start + self.len[a] + grow).min(self.dims[a])
        });
        InteriorWindow { x, y, z }
    }

    /// The overlap window: the brick shrunk by a reach on every exchanged
    /// axis, whose sweep reads no pad cell (empty on a brick too thin).
    pub(crate) fn inner(&self) -> InteriorWindow {
        let [x, y, z] = from_fn(|a| {
            let (start, end) = (self.lo[a] + self.reach[a], self.lo[a] + self.len[a]);
            start..end.saturating_sub(self.reach[a]).max(start)
        });
        InteriorWindow { x, y, z }
    }

    /// The global cell padded cell `p` of axis `a` stands for.
    pub(crate) fn global(&self, a: usize, p: usize) -> usize {
        let unwrapped = (p + self.b0[a]) as isize - self.lo[a] as isize;
        unwrapped.rem_euclid(self.n[a] as isize) as usize
    }

    /// Axis `a` of the padded grid, cut where the brick begins or ends,
    /// where the owning rank coordinate changes (`parts`: the axis split)
    /// and where the axis wraps; ascending.
    pub(crate) fn cuts(&self, a: usize, parts: &[(usize, usize)]) -> Vec<Cut> {
        let brick = self.lo[a]..self.lo[a] + self.len[a];
        let cells: Vec<Cut> = (0..self.dims[a])
            .map(|p| {
                let g = self.global(a, p);
                let (owner, brick) = (axis_owner(parts, g), brick.contains(&p));
                Cut {
                    to: p,
                    from: g,
                    len: 1,
                    owner,
                    brick,
                }
            })
            .collect();
        let same =
            |c: &Cut, d: &Cut| d.from == c.from + 1 && (c.owner, c.brick) == (d.owner, d.brick);
        let runs = cells.chunk_by(same);
        runs.map(|run| Cut {
            len: run.len(),
            ..run[0]
        })
        .collect()
    }

    /// The padded grid's slice of `global`: every cell holds the global
    /// cell it stands for.
    pub(crate) fn fill<T: Real>(&self, global: &Grid3D<T>) -> Grid3D<T> {
        let [nx, ny, nz] = self.dims;
        let mut grid = Grid3D::zeros(nx, ny, nz);
        for (z, y) in (0..nz).flat_map(|z| (0..ny).map(move |y| (z, y))) {
            let mut x = 0;
            while x < nx {
                let gx = self.global(0, x);
                let run = (nx - x).min(self.n[0] - gx);
                let from = [gx, self.global(1, y), self.global(2, z)];
                copy_box(global, from, &mut grid, [x, y, z], [run, 1, 1]);
                x += run;
            }
        }
        grid
    }

    /// Append the cells of `boxes` — all of them the brick's — to `out`
    /// in payload order, read out of the padded `grid`: one slice copy per
    /// `(y, z)` line of a box.
    pub(crate) fn pack<T: Real>(&self, grid: &Grid3D<T>, boxes: &[HaloBox], out: &mut Vec<T>) {
        out.reserve_exact(boxes.iter().map(HaloBox::volume).sum());
        let at = |a: usize, g: usize| g - self.b0[a] + self.lo[a];
        for b in boxes {
            for (dy, dz) in b.lines() {
                let start = grid.idx(
                    at(0, b.from[0]),
                    at(1, b.from[1] + dy),
                    at(2, b.from[2] + dz),
                );
                out.extend_from_slice(&grid.as_slice()[start..start + b.len[0]]);
            }
        }
    }

    /// Land `cells`, laid out as [`Pad::pack`] lays out `boxes`, in the
    /// pad of `grid`: one slice copy per `(y, z)` line of a box.
    pub(crate) fn unpack<T: Real>(&self, boxes: &[HaloBox], cells: &[T], grid: &mut Grid3D<T>) {
        let mut cells = cells;
        for b in boxes {
            for (dy, dz) in b.lines() {
                let (line, rest) = cells.split_at(b.len[0]);
                let start = grid.idx(b.to[0], b.to[1] + dy, b.to[2] + dz);
                grid.as_mut_slice()[start..start + line.len()].copy_from_slice(line);
                cells = rest;
            }
        }
    }

    /// The pad cell global cell `g` stands for — the first, should the pad
    /// hold it twice — or `None` when the pad holds none.
    pub(crate) fn in_pad(&self, g: [usize; 3]) -> Option<[usize; 3]> {
        let at = |a: usize| (0..self.dims[a]).filter(move |&p| self.global(a, p) == g[a]);
        let brick = |a: usize, p: usize| (self.lo[a]..self.lo[a] + self.len[a]).contains(&p);
        let mut cells = at(2).flat_map(|z| at(1).flat_map(move |y| at(0).map(move |x| [x, y, z])));
        cells.find(|p| !(0..3).all(|a| brick(a, p[a])))
    }
}

/// One cut of a padded axis ([`Pad::cuts`]): padded cells
/// `to .. to + len`, standing for global cells `from .. from + len` of the
/// rank coordinate `owner`, and whether they are the brick's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    pub(crate) to: usize,
    pub(crate) from: usize,
    pub(crate) len: usize,
    pub(crate) owner: usize,
    pub(crate) brick: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HaloPlan;
    use crate::pipeline::TopologyCache;
    use crate::step::{Job, RankStepper};
    use crate::{effective_halo, DistConfig, JobSpec, Partition3};
    use proptest::prelude::*;

    /// Every rank of a job over `initial`, as the job builds them.
    fn ranks(
        initial: &Grid3D<f64>,
        cfg: &DistConfig<f64>,
        bounds: BoundarySpec<f64>,
        stencil: &Stencil3D<f64>,
    ) -> Vec<RankStepper<f64>> {
        let spec = JobSpec::over(initial.clone(), stencil.clone())
            .with_bounds(bounds)
            .with_dist(cfg.clone());
        Job::build(&spec, &mut TopologyCache::new()).unwrap().1
    }

    fn boundary(kind: usize) -> Boundary<f64> {
        match kind {
            0 => Boundary::Clamp,
            1 => Boundary::Periodic,
            2 => Boundary::Reflect,
            3 => Boundary::Zero,
            _ => Boundary::Constant(2.5),
        }
    }

    fn volume(b: &InteriorWindow) -> usize {
        b.x.len() * b.y.len() * b.z.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(24))]

        /// One exchange fills the pad: over the rank grids, boundary mixes
        /// and shell depths the substrate runs, each rank packs what it
        /// owes out of its padded grid, each consumer lands every message
        /// (its own boxes included) in its pad, and then every pad cell
        /// holds, bitwise, the global cell it stands for — while the brick
        /// keeps its own.
        #[test]
        fn pad_cells_hold_the_global_field_after_one_exchange(
            grid in prop_oneof![
                Just((1usize, 2usize, 1usize)),
                Just((2, 2, 1)),
                Just((2, 2, 2)),
                Just((1, 4, 1)),
            ],
            kinds in (0usize..5, 0usize..5, 0usize..5),
            k in 1usize..=2,
            reach in 1usize..=2,
            dims in (8usize..=13, 9usize..=14, 4usize..=6),
        ) {
            let (rx, ry, rz) = grid;
            let (nx, ny, nz) = dims;
            let bounds = BoundarySpec { x: boundary(kinds.0), y: boundary(kinds.1), z: boundary(kinds.2) };
            let r = reach as isize;
            let stencil = Stencil3D::from_tuples(&[(r, r, r, 0.5f64), (-r, -r, -r, 0.5)]);
            let global = Grid3D::from_fn(nx, ny, nz, |x, y, z| (x + 100 * y + 10_000 * z) as f64 + 0.25);
            let part = Partition3::new(nx, ny, nz, rx, ry, rz);
            // An axis exchanges only when it is split, and admission keeps
            // a shell narrower than its axis.
            let depth = |ranks: usize, n: usize| if ranks > 1 { (k * reach).min(n - 1) } else { 0 };
            let halo = (depth(rx, nx), depth(ry, ny), depth(rz, nz));
            let pads: Vec<_> = (0..part.ranks())
                .map(|me| Pad::new(&part.brick(me), dims, &bounds, halo, &stencil))
                .collect();
            // Bricks only: every pad cell starts as a NaN.
            let mut grids: Vec<_> = pads.iter().map(|pad| {
                let [px, py, pz] = pad.dims;
                let mut grid = Grid3D::filled(px, py, pz, f64::NAN);
                let from = from_fn(|a| pad.b0[a]);
                copy_box(&global, from, &mut grid, pad.lo, pad.len);
                grid
            }).collect();
            for me in 0..part.ranks() {
                let plan = HaloPlan::new::<f64>(&pads[me], me, &part);
                for boxes in plan.owed() {
                    let (owner, mut msg) = (boxes[0].owner, Vec::new());
                    pads[owner].pack(&grids[owner], boxes, &mut msg);
                    pads[me].unpack(boxes, &msg, &mut grids[me]);
                }
                let (pad, [px, py, pz]) = (&pads[me], pads[me].dims);
                for (x, y, z) in (0..pz).flat_map(|z| (0..py).flat_map(move |y| (0..px).map(move |x| (x, y, z)))) {
                    let g = [pad.global(0, x), pad.global(1, y), pad.global(2, z)];
                    prop_assert_eq!(
                        grids[me].at(x, y, z).to_bits(),
                        global.at(g[0], g[1], g[2]).to_bits(),
                        "rank {}: padded ({}, {}, {}) stands for {:?}", me, x, y, z, g
                    );
                }
            }
        }
    }

    /// A packed line lands as exactly one pad line: on shapes whose pad
    /// holds each cell once, landing a message writes each of its cells
    /// once, box line by box line, and nothing else; and a rank serves
    /// itself nothing unless a periodic pad wraps onto its brick.
    #[test]
    fn unpack_copies_one_slice_per_remote_box_line() {
        let star = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let box27 = Stencil3D::diffusion_27pt(0.02);
        let shapes = [
            ((512, 16, 8), (1, 2, 1), 1, Boundary::Clamp, &box27),
            ((512, 16, 8), (1, 2, 1), 4, Boundary::Clamp, &box27),
            ((12, 12, 8), (2, 2, 2), 1, Boundary::Clamp, &star),
            ((12, 12, 8), (2, 2, 2), 2, Boundary::Periodic, &box27),
            ((13, 17, 9), (1, 4, 1), 3, Boundary::Reflect, &star),
        ];
        for (dims, (rx, ry, rz), k, b, stencil) in shapes {
            let bounds = BoundarySpec::uniform(b);
            let part = Partition3::new(dims.0, dims.1, dims.2, rx, ry, rz);
            let cfg = DistConfig::<f64>::new(rx * ry * rz, 4)
                .with_grid3(rx, ry, rz)
                .with_steps_per_exchange(k);
            let halo = effective_halo(&cfg, stencil, (rx, ry, rz));
            for me in 0..part.ranks() {
                let pad = Pad::new(&part.brick(me), dims, &bounds, halo, stencil);
                let plan = HaloPlan::new::<f64>(&pad, me, &part);
                let [px, py, pz] = pad.dims;
                for boxes in plan.owed() {
                    let at = format!(
                        "{dims:?} {rx}x{ry}x{rz} k={k} {b:?}: rank {me}, owner {}",
                        boxes[0].owner
                    );
                    assert!(boxes[0].owner != me || b == Boundary::Periodic, "{at}");
                    let volume: usize = boxes.iter().map(HaloBox::volume).sum();
                    let cells: Vec<f64> = (0..volume).map(|i| i as f64).collect();
                    let mut grid = Grid3D::filled(px, py, pz, f64::NAN);
                    pad.unpack(boxes, &cells, &mut grid);
                    let landed = grid.as_slice().iter().filter(|v| !v.is_nan()).count();
                    assert_eq!(landed, volume, "{at}");
                    let mut slot = 0;
                    for b in boxes {
                        for (dy, dz) in b.lines() {
                            for dx in 0..b.len[0] {
                                let [x, y, z] = b.to;
                                assert_eq!(grid.at(x + dx, y + dy, z + dz), slot as f64, "{at}");
                                slot += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The redundant work the saved exchanges are paid with, as an exact
    /// count: the `dist-halo` benchmark shape (512×16×8 over 1×2 ranks,
    /// clamp, 27-point) sweeps pad rows 3 + 2 + 1 deep per `k = 4` epoch
    /// and rank, on a padded grid of the brick and its 4-row pad; at
    /// `k = 1` every sweep writes the brick alone, out of a 1-row pad.
    #[test]
    fn an_epochs_redundant_sweeps_are_an_exact_cell_count() {
        let initial = Grid3D::from_fn(512, 16, 8, |x, y, z| (x + y + z) as f64);
        let kernel = Stencil3D::diffusion_27pt(0.02);
        for (k, rows) in [(4, 3 + 2 + 1), (1, 0)] {
            let cfg = DistConfig::<f64>::new(2, 8).with_steps_per_exchange(k);
            for rank in ranks(&initial, &cfg, BoundarySpec::clamp(), &kernel) {
                let (pad, brick) = (&rank.pad, rank.pad.window(0));
                let swept: usize = (0..k)
                    .map(|j| volume(&pad.window(k - 1 - j)) - volume(&brick))
                    .sum();
                assert_eq!(swept, rows * 512 * 8, "k = {k}");
                assert_eq!(pad.dims, [512, 8 + k, 8], "k = {k}: the brick and its pad");
                assert_eq!(
                    pad.window(k),
                    rank.sim.whole(),
                    "the first sweep reads it all"
                );
            }
        }
    }
}
