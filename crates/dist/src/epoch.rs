//! Temporal tiling: the deep ghost shell, advanced by the sweep kernel.
//!
//! With `steps_per_exchange = k` a rank exchanges a halo shell of depth
//! `k · reach` once, then sweeps `k` steps locally. The brick itself is
//! swept in full every step; what shrinks is the part of the shell around
//! it that can still be brought forward in time — each sweep consumes one
//! `reach` of it, so the usable ghost depth falls from `k·r` to `r` across
//! the epoch.
//!
//! [`ShellBox`] keeps the shell where a stencil can sweep it: a
//! double-buffered **extended box**, the brick's global range grown by the
//! halo depth on every exchanged axis — clipped at the domain end on a
//! non-periodic axis, so that end *is* the physical boundary and the
//! global [`BoundarySpec`] applies there; unwrapped on a periodic axis,
//! whose ends are then never consulted — with the pad's slice of the
//! global constant field. Where a single axis is padded (a slab
//! decomposition) the box leaves out the brick's core on it and keeps the
//! `r`-deep rind either pad reads, so it is as small as the shell. The
//! exchanged payload enters the pad through a list of runs built once
//! from the [`HaloPlan`], one per box a pad line crosses. Advance `m` of
//! an epoch (after its sweep `m − 1`) copies the brick's time-`t` rind
//! into the centre, runs [`abft_stencil::sweep_region`] over *(brick grown
//! by `(k − m)·r`) ∖ brick* and copies that window back into the payload,
//! which stays the one ghost source of the brick sweep and the checksum
//! interpolation. The kernel is the serial sweep's, so an advanced cell
//! is bitwise what a fresh exchange would have delivered.
//!
//! Every read lands in valid data: the exchange fills the whole box, and
//! advance `m` writes a window `r` narrower than the one advance `m − 1`
//! left valid, while a tap reaches at most `r` — through a boundary fold
//! too, which lands within `r` of the domain end it folds at.
//!
//! The advance is also where ghost-shell faults live: an injected flip
//! corrupts an advanced cell, and on protected ranks a guard sweeps the
//! same window a second time into a third buffer and compares bitwise —
//! deterministic arithmetic means zero false positives, and a mismatch is
//! repaired in place and folded into the rank's protector stats
//! ([`OnlineAbft::note_shell_guard`]).
//!
//! [`OnlineAbft::note_shell_guard`]: abft_core::OnlineAbft::note_shell_guard

use crate::{copy_box, Brick, HaloPlan};
use abft_grid::{Boundary, BoundarySpec, Grid3D, NoGhosts};
use abft_num::Real;
use abft_stencil::{sweep_region, ChecksumMode, Exec, NoHook, Stencil3D};
use std::ops::Range;

/// An `x × y × z` box in extended-box coordinates.
type Box3 = [Range<usize>; 3];

/// `outer ∖ inner` as at most six disjoint slabs (z pair over the whole
/// `outer` face, y pair within `inner`'s z, x pair within its y and z);
/// `inner ⊆ outer`, and a pair an axis does not need comes out empty.
fn shell_of(outer: &Box3, inner: &Box3) -> [Box3; 6] {
    let [ox, oy, oz] = outer.clone();
    let [ix, iy, iz] = inner.clone();
    [
        [ox.clone(), oy.clone(), oz.start..iz.start],
        [ox.clone(), oy.clone(), iz.end..oz.end],
        [ox.clone(), oy.start..iy.start, iz.clone()],
        [ox.clone(), iy.end..oy.end, iz.clone()],
        [ox.start..ix.start, iy.clone(), iz.clone()],
        [ix.end..ox.end, iy, iz],
    ]
}

/// The cells of one pad line that one halo box holds: `len` cells from
/// extended-box cell `at`, payload slots `slot ..`.
#[derive(Debug, Clone, Copy)]
struct Run {
    at: [usize; 3],
    slot: usize,
    len: usize,
}

impl Run {
    /// The x-range of the run's cells that lie in `window`, if any does.
    fn within(&self, [wx, wy, wz]: &Box3) -> Option<Range<usize>> {
        let xs = self.at[0].max(wx.start)..(self.at[0] + self.len).min(wx.end);
        (!xs.is_empty() && wy.contains(&self.at[1]) && wz.contains(&self.at[2])).then_some(xs)
    }
}

/// One rank's deep ghost shell as sweepable memory (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ShellBox<T> {
    /// Sweeps per exchange epoch.
    k: usize,
    /// Per-axis growth of the window per remaining sweep: the stencil
    /// reach on an exchanged axis, 0 elsewhere.
    reach: [usize; 3],
    size: [usize; 3],
    /// The brick within the extended box, and per axis how many of its
    /// cells the box leaves out between the low and the high rind.
    brick: Box3,
    skip: [usize; 3],
    /// Pad cells ↔ payload slots.
    runs: Vec<Run>,
    stencil: Stencil3D<T>,
    bounds: BoundarySpec<T>,
    constant: Option<Grid3D<T>>,
    /// The shell at the time of the brick's `previous` buffer, and the
    /// buffer the next advance writes.
    src: Grid3D<T>,
    dst: Grid3D<T>,
    /// The guard's recompute target; protected ranks only.
    twin: Option<Grid3D<T>>,
}

impl<T: Real> ShellBox<T> {
    /// The extended box of the rank that owns `brick` and exchanges
    /// `plan`, whose per-axis depth is `halo` (`k` reaches on an exchanged
    /// axis); `None` when there is nothing to advance — at `k = 1`, and
    /// when the plan holds no remote box: a shell the rank serves to
    /// itself is re-packed from the brick. `constant` is the *global*
    /// constant field.
    #[allow(clippy::too_many_arguments)] // mirrors the sweep-setup call site: every piece is distinct rank state
    pub(crate) fn new(
        plan: &HaloPlan,
        brick: &Brick,
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
        stencil: &Stencil3D<T>,
        constant: Option<&Grid3D<T>>,
        halo: (usize, usize, usize),
        k: usize,
        guarded: bool,
    ) -> Option<Self> {
        if k == 1 || plan.traffic.remote_cells == 0 {
            return None;
        }
        let (global, sides) = ([dims.0, dims.1, dims.2], [bounds.x, bounds.y, bounds.z]);
        let b0 = [brick.x0, brick.y0, brick.z0];
        let len = [brick.x_len, brick.y_len, brick.z_len];
        let depth = [halo.0, halo.1, halo.2];
        // Pad cells below and above the brick: the halo depth, short of
        // the domain end on an axis that does not wrap.
        let pads: [_; 3] = std::array::from_fn(|a| match sides[a] {
            Boundary::Periodic => [depth[a]; 2],
            _ => [b0[a], global[a] - b0[a] - len[a]].map(|room| room.min(depth[a])),
        });
        // The brick cells each padded side reads, and those between the
        // two that the box leaves out: with a single padded axis, no sweep
        // of the shell crosses the brick on it.
        let reach = depth.map(|h| h / k);
        let rinds: [_; 3] = std::array::from_fn(|a| pads[a].map(|p| reach[a] * usize::from(p > 0)));
        let lone = pads.iter().filter(|p| **p != [0, 0]).count() == 1;
        let skip: [_; 3] = std::array::from_fn(|a| {
            let read = rinds[a][0] + rinds[a][1];
            len[a].saturating_sub(read) * usize::from(lone && read > 0)
        });
        let size: [_; 3] = std::array::from_fn(|a| pads[a][0] + len[a] - skip[a] + pads[a][1]);
        // Global coordinate of extended-box coordinate `e` on axis `a`.
        let to_global = |a: usize, e: usize| {
            let hidden = skip[a] * usize::from(e >= pads[a][0] + rinds[a][0]);
            let g = (b0[a] + e + hidden) as isize - pads[a][0] as isize;
            g.rem_euclid(global[a] as isize) as usize
        };
        let buffer = || Grid3D::zeros(size[0], size[1], size[2]);
        let mut shell = Self {
            k,
            reach,
            size,
            brick: std::array::from_fn(|a| pads[a][0]..pads[a][0] + len[a] - skip[a]),
            skip,
            runs: Vec::new(),
            stencil: stencil.clone(),
            bounds: *bounds,
            constant: None,
            src: buffer(),
            dst: buffer(),
            twin: guarded.then(buffer),
        };
        // One run per box each pad line crosses.
        for [xs, ys, zs] in shell_of(&shell.window(k), &shell.brick) {
            for (ez, ey) in zs.flat_map(|ez| ys.clone().map(move |ey| (ez, ey))) {
                let mut ex = xs.start;
                while ex < xs.end {
                    let (gx, gy, gz) = (to_global(0, ex), to_global(1, ey), to_global(2, ez));
                    let (slot, left) = plan
                        .run_at(gx, gy, gz)
                        .unwrap_or_else(|| panic!("pad cell ({gx}, {gy}, {gz}) was not planned"));
                    let (at, len) = ([ex, ey, ez], left.min(xs.end - ex));
                    shell.runs.push(Run { at, slot, len });
                    ex += len;
                }
            }
        }
        // Only pad cells are swept, so only they need a constant term.
        shell.constant = constant.map(|c| {
            let mut slice = buffer();
            for r in &shell.runs {
                let from = [0, 1, 2].map(|a| to_global(a, r.at[a]));
                copy_box(c, from, &mut slice, r.at, [r.len, 1, 1]);
            }
            slice
        });
        Some(shell)
    }

    /// The brick grown by `steps` reaches, within the extended box: what
    /// is valid with `steps` sweeps of the epoch still to come.
    fn window(&self, steps: usize) -> Box3 {
        std::array::from_fn(|a| {
            let (b, grow) = (&self.brick[a], steps * self.reach[a]);
            b.start.saturating_sub(grow)..(b.end + grow).min(self.size[a])
        })
    }

    /// Advance the shell from time `t` to `t + 1` after the epoch's sweep
    /// `m − 1` (`1 ≤ m < k`).
    ///
    /// `payload` is the rank's halo payload — as exchanged when `m = 1`,
    /// as the previous advance left it otherwise — and `previous` the
    /// brick's time-`t` buffer. `flips` are ghost-shell faults to inject
    /// into the advanced values, each a payload slot and the bit to flip.
    /// A guarded shell recomputes the window and compares bitwise; the
    /// returned `(detections, corrections)` count the mismatches found and
    /// repaired.
    pub(crate) fn advance(
        &mut self,
        payload: &mut [T],
        previous: &Grid3D<T>,
        m: usize,
        flips: &[(usize, u32)],
    ) -> (usize, usize) {
        debug_assert!((1..self.k).contains(&m), "an epoch advances k − 1 times");
        if m == 1 {
            for r in &self.runs {
                let at = self.src.idx(r.at[0], r.at[1], r.at[2]);
                let cells = &payload[r.slot..r.slot + r.len];
                self.src.as_mut_slice()[at..at + r.len].copy_from_slice(cells);
            }
        }
        // The brick cells a pad cell's taps reach: its rind on the padded
        // sides, around a core no sweep of the shell reads.
        let core: Box3 = std::array::from_fn(|a| {
            let (b, r) = (&self.brick[a], self.reach[a]);
            let start = if b.start > 0 { b.start + r } else { b.start };
            let end = if b.end < self.size[a] {
                b.end - r
            } else {
                b.end
            };
            start.min(b.end)..end.max(start.min(b.end))
        });
        for rind in shell_of(&self.brick, &core) {
            let to = [0, 1, 2].map(|a| rind[a].start);
            let from = [0, 1, 2].map(|a| {
                let hidden = if to[a] >= core[a].start {
                    self.skip[a]
                } else {
                    0
                };
                to[a] - self.brick[a].start + hidden
            });
            copy_box(previous, from, &mut self.src, to, rind.map(|r| r.len()));
        }

        let window = self.window(self.k - m);
        let slabs = shell_of(&window, &self.brick);
        let sweep = |dst: &mut Grid3D<T>| {
            let (stencil, constant) = (&self.stencil, self.constant.as_ref());
            for [x, y, z] in slabs.clone() {
                #[rustfmt::skip]
                sweep_region(
                    &self.src, dst, stencil, &self.bounds, constant, &NoGhosts, &NoHook,
                    ChecksumMode::None, Exec::Serial, y, x, z,
                );
            }
        };
        sweep(&mut self.dst);
        for &(slot, bit) in flips {
            // Only a cell this advance rewrote holds a value to corrupt;
            // of a cell the pad holds twice, the first copy is struck.
            let struck = self.runs.iter().find_map(|r| {
                let x = r.at[0] + slot.checked_sub(r.slot)?;
                let inside = r.within(&window).is_some_and(|xs| xs.contains(&x));
                inside.then(|| self.dst.idx(x, r.at[1], r.at[2]))
            });
            if let Some(i) = struck {
                let cell = &mut self.dst.as_mut_slice()[i];
                *cell = cell.flip_bit(bit);
            }
        }
        let mut repaired = 0;
        if let Some(twin) = self.twin.as_mut() {
            sweep(twin);
            let [nx, ny, _] = self.size;
            for [x, y, z] in slabs {
                for line in z.flat_map(|z| y.clone().map(move |y| (z * ny + y) * nx)) {
                    let span = line + x.start..line + x.end;
                    let stored = &mut self.dst.as_mut_slice()[span.clone()];
                    for (s, v) in stored.iter_mut().zip(&twin.as_slice()[span]) {
                        // Bitwise compare of two identical deterministic
                        // evaluations: mismatch ⇒ the stored copy was
                        // struck (NaN never equals itself, so NaN-ing
                        // flips are caught too).
                        if s.to_bits_u64() != v.to_bits_u64() {
                            repaired += 1;
                            *s = *v;
                        }
                    }
                }
            }
        }
        // Publish what this advance made valid — the window, not the
        // stale pad beyond it — and step the buffers.
        for (r, xs) in self
            .runs
            .iter()
            .filter_map(|r| Some((r, r.within(&window)?)))
        {
            let at = self.dst.idx(xs.start, r.at[1], r.at[2]);
            let slot = r.slot + (xs.start - r.at[0]);
            let cells = &self.dst.as_slice()[at..at + xs.len()];
            payload[slot..slot + xs.len()].copy_from_slice(cells);
        }
        std::mem::swap(&mut self.src, &mut self.dst);
        (repaired, repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_ranks, effective_halo, validate, DistConfig};
    use abft_core::AbftConfig;
    use abft_stencil::{Stencil2D, StencilSim};
    use std::sync::Arc;

    impl<T: Real> ShellBox<T> {
        /// Cells the advances of one full epoch sweep: the redundant work
        /// the saved exchanges are paid with, as a function of the
        /// geometry alone.
        fn epoch_cells(&self) -> usize {
            let volume = |b: Box3| b.iter().map(Range::len).product::<usize>();
            let advance = |m| volume(self.window(self.k - m)) - volume(self.brick.clone());
            (1..self.k).map(advance).sum()
        }
    }

    /// Every rank's shell, as a job over a `dims` domain builds it.
    fn shells(
        dims: (usize, usize, usize),
        cfg: &DistConfig<f64>,
        boundary: Boundary<f64>,
        stencil: &Stencil3D<f64>,
    ) -> Vec<(Option<ShellBox<f64>>, Arc<HaloPlan>, Brick)> {
        let initial = Grid3D::from_fn(dims.0, dims.1, dims.2, |x, y, z| (x + 2 * y + z) as f64);
        let bounds = BoundarySpec::uniform(boundary);
        let part = validate(&initial, stencil, &bounds, None, cfg).unwrap();
        let halo = effective_halo(cfg, stencil, (part.rx(), part.ry(), part.rz()));
        let plan = |r| Arc::new(HaloPlan::new(&part.brick(r), r, &part, halo, dims, &bounds));
        let plans: Vec<_> = (0..part.ranks()).map(plan).collect();
        let ranks = build_ranks(&initial, stencil, &bounds, None, cfg, &part, &plans);
        let built = ranks
            .into_iter()
            .map(|rank| (rank.shell, rank.plan, rank.brick));
        built.collect()
    }

    fn five_point() -> Stencil3D<f64> {
        Stencil2D::five_point(0.4, 0.15, 0.1).into_3d()
    }

    /// The middle slab (rows 4..8) of three over an 8×12×1 domain.
    fn middle_slab(
        k: usize,
        boundary: Boundary<f64>,
        guarded: bool,
    ) -> (ShellBox<f64>, Arc<HaloPlan>) {
        let mut cfg = DistConfig::<f64>::new(3, 8).with_steps_per_exchange(k);
        if guarded {
            cfg = cfg.with_abft(AbftConfig::paper_defaults());
        }
        let (shell, plan, brick) = shells((8, 12, 1), &cfg, boundary, &five_point()).swap_remove(1);
        assert_eq!((brick.y0, brick.y_len), (4, 4));
        (shell.expect("a middle slab has remote boxes"), plan)
    }

    /// The window law: with `s` sweeps of an epoch to come the brick grown
    /// by `s` reaches is valid — at least the depth `r` the brick sweep
    /// reads — and the sweep that gets there reads inside what the one
    /// before left valid.
    #[test]
    fn sweep_read_ghosts_survive_the_whole_epoch() {
        for k in [2, 3, 4] {
            for b in [Boundary::Clamp, Boundary::Periodic] {
                let (shell, _) = middle_slab(k, b, false);
                let [nx, ny, nz] = shell.size;
                assert_eq!(
                    shell.window(k),
                    [0..nx, 0..ny, 0..nz],
                    "the exchange fills the box"
                );
                assert_eq!(shell.brick[1].len() + shell.skip[1], 4, "the slab's rows");
                for m in 1..k {
                    let (written, read) = (shell.window(k - m), shell.window(k - m + 1));
                    let depth = shell.brick[1].start - written[1].start;
                    assert_eq!(depth, k - m, "advance {m} of {k} covers depth (k − m)·r");
                    assert!(depth >= shell.reach[1], "the brick sweep reads depth r");
                    for a in 0..3 {
                        let (w, r) = (&written[a], shell.reach[a]);
                        let reads = w.start.saturating_sub(r)..(w.end + r).min(shell.size[a]);
                        assert!(read[a].start <= reads.start && reads.end <= read[a].end);
                    }
                }
            }
        }
    }

    /// The payload of `plan` read out of `grid`, a global field.
    fn payload_of(plan: &HaloPlan, grid: &Grid3D<f64>) -> Vec<f64> {
        plan.cells().map(|(x, y, z)| grid.at(x, y, z)).collect()
    }

    /// Rows 4..8 of `grid` as the middle slab's own buffer.
    fn slab_of(grid: &Grid3D<f64>) -> Grid3D<f64> {
        Grid3D::from_fn(8, 4, 1, |x, y, _| grid.at(x, 4 + y, 0))
    }

    #[test]
    fn advance_matches_a_serial_sweep_of_the_shell_cells() {
        // Advance the middle slab's shell by hand through a whole k = 3
        // epoch and compare every cell an advance made valid against a
        // serial step of the global domain.
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let (mut shell, plan) = middle_slab(3, boundary, true);
            let global = Grid3D::from_fn(8, 12, 1, |x, y, _| ((x * 7 + y * 3) % 11) as f64 - 4.0);
            let bounds = BoundarySpec::uniform(boundary);
            let mut serial =
                StencilSim::new(global.clone(), five_point(), bounds).with_exec(Exec::Serial);
            let mut payload = payload_of(&plan, &global);
            for m in 1..3 {
                let previous = slab_of(serial.current());
                serial.step();
                let (det, corr) = shell.advance(&mut payload, &previous, m, &[]);
                assert_eq!((det, corr), (0, 0), "clean advance must not trip the guard");
                let mut valid = 0;
                for (slot, (x, y, z)) in plan.cells().enumerate() {
                    // Rows within 3 − m of the slab, across the wrap too.
                    let away = (4 + 12 - y) % 12;
                    if away.min((y + 12 - 7) % 12) <= 3 - m {
                        valid += 1;
                        assert_eq!(
                            payload[slot].to_bits(),
                            serial.current().at(x, y, z).to_bits(),
                            "advanced ghost ({x}, {y}, {z}) diverged from the serial sweep"
                        );
                    }
                }
                assert_eq!(valid, 2 * (3 - m) * 8);
            }
        }
    }

    #[test]
    fn guard_detects_and_repairs_an_injected_shell_flip() {
        let global = Grid3D::from_fn(8, 12, 1, |x, y, _| (x + y) as f64 * 0.5 + 1.0);
        let previous = slab_of(&global);
        // Flip a cell the first advance rewrites: row 3, next to the slab.
        let (mut shell, plan) = middle_slab(2, Boundary::Clamp, true);
        let struck = plan.slot(5, 3, 0).expect("row 3 is exchanged");
        let flip = (struck, 51);
        let mut clean = payload_of(&plan, &global);
        assert_eq!(shell.advance(&mut clean, &previous, 1, &[]), (0, 0));

        let mut guarded = payload_of(&plan, &global);
        let (mut again, _) = middle_slab(2, Boundary::Clamp, true);
        let (det, corr) = again.advance(&mut guarded, &previous, 1, &[flip]);
        assert_eq!((det, corr), (1, 1), "the guard must catch exactly the flip");
        assert_eq!(guarded, clean, "and repair it bitwise");

        // Without the guard the corruption survives in the shell.
        let (mut bare, _) = middle_slab(2, Boundary::Clamp, false);
        let mut unguarded = payload_of(&plan, &global);
        assert_eq!(bare.advance(&mut unguarded, &previous, 1, &[flip]), (0, 0));
        assert_ne!(
            unguarded[struck].to_bits(),
            clean[struck].to_bits(),
            "unguarded flip must persist"
        );
        // A cell beyond the advance's window holds nothing to corrupt.
        let deep = (plan.slot(5, 2, 0).expect("row 2 is exchanged"), 51);
        let (mut shell, _) = middle_slab(2, Boundary::Clamp, true);
        let mut payload = payload_of(&plan, &global);
        assert_eq!(shell.advance(&mut payload, &previous, 1, &[deep]), (0, 0));
        assert_eq!(payload, clean);
    }

    /// Redundant work as an exact count: the `dist-halo` benchmark shape
    /// (512×16×8 over 1×2 ranks, clamp, 27-point) sweeps rows 3 + 2 + 1
    /// deep per `k = 4` epoch and rank, and describes its pad with one run
    /// per line — build state is boxes and buffers, nothing per cell.
    #[test]
    fn an_epochs_redundant_sweeps_are_an_exact_cell_count() {
        let kernel = Stencil3D::diffusion_27pt(0.02);
        let cfg = |ranks, k| DistConfig::<f64>::new(ranks, 8).with_steps_per_exchange(k);
        for (shell, plan, _) in shells((512, 16, 8), &cfg(2, 4), Boundary::Clamp, &kernel) {
            let shell = shell.expect("both slabs have a remote box");
            assert_eq!(shell.epoch_cells(), (3 + 2 + 1) * 512 * 8);
            assert_eq!(shell.runs.len(), 4 * 8, "one run per pad line");
            assert_eq!(
                shell.size,
                [512, 4 + 1, 8],
                "the pad and the row of the slab it reads"
            );
            assert!(shell.runs.len() * 100 < plan.len());
        }
        // No epoch to advance through, or nobody to receive from: no box.
        let swept = |shell: Option<ShellBox<f64>>| shell.map_or(0, |s| s.epoch_cells());
        for (shell, _, _) in shells((512, 16, 8), &cfg(2, 1), Boundary::Clamp, &kernel) {
            assert!(shell.is_none(), "k = 1 builds no box");
            assert_eq!(swept(shell), 0);
        }
        for (shell, plan, _) in shells((512, 16, 8), &cfg(1, 4), Boundary::Periodic, &kernel) {
            assert!(!plan.is_empty(), "a periodic rank wraps onto itself");
            assert!(
                shell.is_none(),
                "a shell without a remote box builds no box"
            );
            assert_eq!(swept(shell), 0);
        }
    }
}
