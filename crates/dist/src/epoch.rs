//! Temporal tiling: the per-epoch ghost-shell decay schedule.
//!
//! With `steps_per_exchange = k` a rank exchanges a halo shell of depth
//! `k · reach` once, then sweeps `k` steps locally. The brick itself is
//! swept in full every step; what shrinks is the *validity* of the shell
//! around it — after each sweep the outermost `reach` of ghost cells can
//! no longer be advanced (their own neighbourhoods have left the shell),
//! so the usable ghost depth decays from `k·r` to `r` across the epoch.
//!
//! [`ShellSchedule`] precomputes, per payload slot of the rank's
//! [`HaloPlan`], how the slot's value at time `t+1` is produced from the
//! shell and brick at time `t`: the slot's stencil taps are resolved once
//! through the **global** boundaries (replicating the serial sweep's
//! x → y → z short-circuit order exactly, so advanced ghost values are
//! bitwise what a fresh exchange would have delivered) into
//! [`TapRead`]s — a brick read, another shell slot, or a boundary value.
//! Clamp/reflect folds that land *inside* the brick are not advanced at
//! all; they are refreshed by copying the brick's own freshly swept cell.
//!
//! How many sweeps each slot stays advanceable is a reads-availability
//! fixed point rather than a geometric depth heuristic: a slot can
//! advance `1 + min` over its slot-read dependencies (brick and
//! boundary-value reads never constrain), which handles periodic wraps
//! and boundary folds soundly. A build-time assertion checks that every
//! ghost cell the *brick sweep* reads (depth `reach`) stays valid for all
//! `k − 1` interior sweeps — the schedule's correctness invariant.
//!
//! The advance is also where ghost-shell faults live: an injected flip
//! corrupts an advanced slot, and on protected ranks a dual-modular
//! recompute guard re-derives every advanced slot from the same inputs
//! and compares bitwise — deterministic arithmetic means zero false
//! positives, and a mismatch is corrected in place and folded into the
//! rank's protector stats ([`OnlineAbft::note_shell_guard`]).
//!
//! [`OnlineAbft::note_shell_guard`]: abft_core::OnlineAbft::note_shell_guard

use crate::{Brick, HaloPlan, Partition3};
use abft_fault::BitFlip;
use abft_grid::{AxisHit, BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::Stencil3D;
use std::sync::Arc;

/// One resolved stencil-tap read of a shell slot's advance.
#[derive(Debug, Clone, Copy)]
enum TapRead<T> {
    /// Flat index into the rank's brick grid (time-`t` buffer).
    Brick(usize),
    /// Another payload slot of the same shell (time-`t` value).
    Slot(usize),
    /// A value-like global boundary (zero/constant), folded at build
    /// time.
    Value(T),
}

/// The advance program of one out-of-brick shell slot.
#[derive(Debug, Clone)]
struct SlotAdvance<T> {
    /// Payload slot this program writes.
    slot: usize,
    /// The slot's constant-field term (global constant at its cell).
    constant: T,
    /// `(weight, read)` per stencil tap, in tap order — the sweep's
    /// accumulation order, so the advance is bitwise a serial sweep of
    /// the cell.
    reads: Vec<(T, TapRead<T>)>,
}

/// Precomputed per-epoch decay schedule of one rank's ghost shell.
#[derive(Debug, Clone)]
pub(crate) struct ShellSchedule<T> {
    /// Sweeps per exchange epoch.
    k: usize,
    /// The halo plan whose payload this schedule advances.
    plan: Arc<HaloPlan>,
    /// Per payload slot, how many consecutive epoch advances rewrite it
    /// (the reads-availability fixed point, capped at `k − 1`); 0 for
    /// slots that never advance.
    steps: Vec<usize>,
    /// Advance programs for the slots that advance at least once.
    advances: Vec<SlotAdvance<T>>,
    /// `(slot, brick flat index)` for boundary folds that land inside
    /// the brick: refreshed by copying the freshly swept brick cell.
    brick_copies: Vec<(usize, usize)>,
}

impl<T: Real> ShellSchedule<T> {
    /// Build the schedule for rank `me` of `part`.
    ///
    /// `read_halo` is the per-axis ghost depth the **brick sweep**
    /// actually reads (the stencil reach on exchanged axes, zero
    /// elsewhere) — the depth that must survive all `k − 1` interior
    /// sweeps. `constant` is the *global* constant field: shell cells
    /// live outside the brick, so their constant terms are captured here
    /// at build time.
    #[allow(clippy::too_many_arguments)] // mirrors the sweep-setup call site: every piece is distinct rank state
    pub(crate) fn new(
        plan: &Arc<HaloPlan>,
        me: usize,
        part: &Partition3,
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
        stencil: &Stencil3D<T>,
        constant: Option<&Grid3D<T>>,
        read_halo: (usize, usize, usize),
        k: usize,
    ) -> Self {
        assert!(k >= 1, "an epoch has at least one sweep");
        let brick = &part.brick(me);
        let mut brick_copies = Vec::new();
        let mut advances: Vec<SlotAdvance<T>> = Vec::new();
        // Per slot, the sweeps it stays valid for, from above: an in-brick
        // fold is refreshed by copy every sweep, a slot whose taps all
        // resolve advances at most `k − 1` times, any other slot never.
        let mut steps = vec![0; plan.len()];
        for (slot, (gx, gy, gz)) in plan.cells().enumerate() {
            if brick.contains(gx, gy, gz) {
                brick_copies.push((slot, brick_flat(brick, gx, gy, gz)));
                steps[slot] = k;
                continue;
            }
            let reads: Option<Vec<_>> = stencil
                .taps()
                .iter()
                .map(|t| {
                    let (xq, yq, zq) = (gx as isize + t.di, gy as isize + t.dj, gz as isize + t.dk);
                    resolve_tap(xq, yq, zq, bounds, dims, brick, plan).map(|read| (t.w, read))
                })
                .collect();
            if let Some(reads) = reads {
                steps[slot] = k - 1;
                advances.push(SlotAdvance {
                    slot,
                    constant: constant.map_or(T::ZERO, |c| c.at(gx, gy, gz)),
                    reads,
                });
            }
        }

        // Reads-availability fixed point: a slot can advance one more
        // step than the least-available slot it reads; brick and
        // boundary-value reads are always fresh. Monotone decreasing
        // from the k−1 cap, so it converges.
        loop {
            let mut changed = false;
            for adv in &advances {
                let mut cap = k - 1;
                for (_, read) in &adv.reads {
                    if let TapRead::Slot(t) = read {
                        cap = cap.min(1 + steps[*t]);
                    }
                }
                if cap < steps[adv.slot] {
                    steps[adv.slot] = cap;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Correctness invariant: every ghost cell the brick sweep reads
        // (the depth-`reach` shell) must stay valid through all k−1
        // interior sweeps. Validation (HaloTooDeep) keeps domains large
        // enough for this to hold; the assert is the proof obligation.
        let sweep_reads = HaloPlan::new(brick, me, part, read_halo, dims, bounds);
        for (gx, gy, gz) in sweep_reads.cells() {
            if brick.contains(gx, gy, gz) {
                continue;
            }
            let slot = plan
                .slot(gx, gy, gz)
                .unwrap_or_else(|| panic!("sweep-read ghost ({gx}, {gy}, {gz}) not in the shell"));
            assert!(
                steps[slot] >= k - 1,
                "ghost ({gx}, {gy}, {gz}) decays after {} sweeps but the epoch needs {}",
                steps[slot],
                k - 1,
            );
        }

        // From here `steps` counts advances only: a brick copy is
        // refreshed, never advanced.
        for &(slot, _) in &brick_copies {
            steps[slot] = 0;
        }
        advances.retain(|adv| steps[adv.slot] > 0);
        Self {
            k,
            plan: plan.clone(),
            steps,
            advances,
            brick_copies,
        }
    }

    /// Advance the shell from time `t` to `t + 1` after the epoch's
    /// sweep number `j` (0-based; the advance is number `j + 1`).
    ///
    /// `previous` is the brick's time-`t` buffer and `current` its
    /// freshly swept time-`t+1` buffer. `scratch` is a same-length
    /// workspace reused across calls. `flips` are ghost-shell faults to
    /// inject into the advanced values; with `guard` set, every advanced
    /// slot is recomputed and compared bitwise (the DMR guard), and the
    /// returned `(detections, corrections)` count the mismatches found
    /// and repaired.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &self,
        shell: &mut Vec<T>,
        scratch: &mut Vec<T>,
        previous: &Grid3D<T>,
        current: &Grid3D<T>,
        j: usize,
        flips: &[BitFlip],
        guard: bool,
    ) -> (usize, usize) {
        debug_assert!(j + 1 < self.k, "no advance after an epoch's last sweep");
        let m = j + 1;
        scratch.clear();
        scratch.extend_from_slice(shell);
        let fetch = |old: &[T], read: &TapRead<T>| -> T {
            match *read {
                TapRead::Brick(i) => previous.as_slice()[i],
                TapRead::Slot(s) => old[s],
                TapRead::Value(v) => v,
            }
        };
        for adv in &self.advances {
            if self.steps[adv.slot] < m {
                continue; // decayed: stale from here on, never read again
            }
            let mut v = adv.constant;
            for (w, read) in &adv.reads {
                v += *w * fetch(shell, read);
            }
            scratch[adv.slot] = v;
        }
        for &(slot, idx) in &self.brick_copies {
            scratch[slot] = current.as_slice()[idx];
        }
        std::mem::swap(shell, scratch);
        // `shell` now holds time t+1, `scratch` the time-t values the
        // guard recomputes from.
        for flip in flips {
            // Only a slot this advance rewrote holds a value to corrupt.
            match self.plan.slot(flip.x, flip.y, flip.z) {
                Some(slot) if self.steps[slot] >= m => shell[slot] = shell[slot].flip_bit(flip.bit),
                _ => {}
            }
        }
        let mut detections = 0;
        let mut corrections = 0;
        if guard {
            for adv in &self.advances {
                if self.steps[adv.slot] < m {
                    continue;
                }
                let mut v = adv.constant;
                for (w, read) in &adv.reads {
                    v += *w * fetch(scratch, read);
                }
                // Bitwise compare of two identical deterministic
                // evaluations: mismatch ⇒ the stored copy was struck
                // (NaN never equals itself, so NaN-ing flips are caught
                // too).
                if !bits_equal(shell[adv.slot], v) {
                    detections += 1;
                    corrections += 1;
                    shell[adv.slot] = v;
                }
            }
            for &(slot, idx) in &self.brick_copies {
                let v = current.as_slice()[idx];
                if !bits_equal(shell[slot], v) {
                    detections += 1;
                    corrections += 1;
                    shell[slot] = v;
                }
            }
        }
        (detections, corrections)
    }
}

/// Bitwise equality (detects NaN-producing corruptions that `==` would
/// miss).
fn bits_equal<T: Real>(a: T, b: T) -> bool {
    a.to_bits_u64() == b.to_bits_u64()
}

/// Flat index of global cell `(gx, gy, gz)` in the brick's local grid.
fn brick_flat(brick: &Brick, gx: usize, gy: usize, gz: usize) -> usize {
    let (lx, ly, lz) = (gx - brick.x0, gy - brick.y0, gz - brick.z0);
    (lz * brick.y_len + ly) * brick.x_len + lx
}

/// Resolve one stencil-tap read of a shell cell through the global
/// boundaries, replicating the serial sweep's x → y → z short-circuit
/// order: a value-like hit on an earlier axis returns before later axes
/// resolve. In-domain results are classified as brick or shell reads.
fn resolve_tap<T: Real>(
    xq: isize,
    yq: isize,
    zq: isize,
    bounds: &BoundarySpec<T>,
    dims: (usize, usize, usize),
    brick: &Brick,
    plan: &HaloPlan,
) -> Option<TapRead<T>> {
    let (nx, ny, nz) = dims;
    let xr = match bounds.x.resolve(xq, nx) {
        AxisHit::In(i) => i,
        AxisHit::Value(v) => return Some(TapRead::Value(v)),
        AxisHit::Ghost(_) => unreachable!("global ghost boundaries rejected up front"),
    };
    let yr = match bounds.y.resolve(yq, ny) {
        AxisHit::In(i) => i,
        AxisHit::Value(v) => return Some(TapRead::Value(v)),
        AxisHit::Ghost(_) => unreachable!("global ghost boundaries rejected up front"),
    };
    let zr = match bounds.z.resolve(zq, nz) {
        AxisHit::In(i) => i,
        AxisHit::Value(v) => return Some(TapRead::Value(v)),
        AxisHit::Ghost(_) => unreachable!("global ghost boundaries rejected up front"),
    };
    if brick.contains(xr, yr, zr) {
        Some(TapRead::Brick(brick_flat(brick, xr, yr, zr)))
    } else {
        plan.slot(xr, yr, zr).map(TapRead::Slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{effective_halo, DistConfig, Partition3};
    use abft_grid::Boundary;

    fn schedule_for(
        k: usize,
        boundary: Boundary<f64>,
    ) -> (ShellSchedule<f64>, Arc<HaloPlan>, Brick) {
        let part = Partition3::new(8, 12, 1, 1, 3, 1);
        let brick = part.brick(1);
        let stencil = abft_stencil::Stencil2D::five_point(0.4, 0.15, 0.1).into_3d();
        let bounds = BoundarySpec::uniform(boundary);
        let cfg = DistConfig::<f64>::new(3, 8).with_steps_per_exchange(k);
        let halo = effective_halo(&cfg, &stencil, (1, 3, 1));
        let plan = Arc::new(HaloPlan::new(&brick, 1, &part, halo, (8, 12, 1), &bounds));
        let read = (0, stencil.extent_y(), 0);
        let sched = ShellSchedule::new(
            &plan,
            1,
            &part,
            (8, 12, 1),
            &bounds,
            &stencil,
            None,
            read,
            k,
        );
        (sched, plan, brick)
    }

    #[test]
    fn sweep_read_ghosts_survive_the_whole_epoch() {
        for k in [2, 3] {
            for b in [Boundary::Clamp, Boundary::Periodic] {
                // ShellSchedule::new asserts the invariant internally.
                let (sched, _, _) = schedule_for(k, b);
                assert_eq!(sched.k, k);
            }
        }
    }

    #[test]
    fn advance_matches_a_serial_sweep_of_the_shell_cells() {
        // Advance the interior slab's shell by hand and compare every
        // advanced cell against a serial step of the global domain.
        let (sched, plan, brick) = schedule_for(2, Boundary::Clamp);
        let global = Grid3D::from_fn(8, 12, 1, |x, y, _| ((x * 7 + y * 3) % 11) as f64 - 4.0);
        let stencil = abft_stencil::Stencil2D::five_point(0.4, 0.15, 0.1).into_3d();
        let bounds = BoundarySpec::<f64>::clamp();
        let mut serial = abft_stencil::StencilSim::new(global.clone(), stencil.clone(), bounds)
            .with_exec(abft_stencil::Exec::Serial);
        serial.step();

        // Shell at time t from the global grid; brick buffers likewise.
        let coords: Vec<_> = plan.cells().collect();
        let mut shell: Vec<f64> = coords.iter().map(|&(x, y, z)| global.at(x, y, z)).collect();
        let previous = Grid3D::from_fn(brick.x_len, brick.y_len, brick.z_len, |x, y, z| {
            global.at(brick.x0 + x, brick.y0 + y, brick.z0 + z)
        });
        let current = Grid3D::from_fn(brick.x_len, brick.y_len, brick.z_len, |x, y, z| {
            serial
                .current()
                .at(brick.x0 + x, brick.y0 + y, brick.z0 + z)
        });
        let mut scratch = Vec::new();
        let (det, corr) =
            sched.advance(&mut shell, &mut scratch, &previous, &current, 0, &[], true);
        assert_eq!((det, corr), (0, 0), "clean advance must not trip the guard");
        for adv in &sched.advances {
            let (x, y, z) = coords[adv.slot];
            assert_eq!(
                shell[adv.slot].to_bits(),
                serial.current().at(x, y, z).to_bits(),
                "advanced ghost ({x}, {y}, {z}) diverged from the serial sweep"
            );
        }
    }

    #[test]
    fn guard_detects_and_repairs_an_injected_shell_flip() {
        let (sched, plan, brick) = schedule_for(2, Boundary::Clamp);
        let global = Grid3D::from_fn(8, 12, 1, |x, y, _| (x + y) as f64 * 0.5 + 1.0);
        let previous = Grid3D::from_fn(brick.x_len, brick.y_len, brick.z_len, |x, y, z| {
            global.at(brick.x0 + x, brick.y0 + y, brick.z0 + z)
        });
        let current = previous.clone();
        let seeded = || -> Vec<f64> { plan.cells().map(|(x, y, z)| global.at(x, y, z)).collect() };
        let mut shell = seeded();
        let mut scratch = Vec::new();
        // Flip a cell the schedule actually advances.
        let adv = &sched.advances[0];
        let (x, y, z) = plan
            .cells()
            .nth(adv.slot)
            .expect("an advanced slot is planned");
        let flip = BitFlip {
            iteration: 0,
            x,
            y,
            z,
            bit: 51,
        };
        let (det, corr) = sched.advance(
            &mut shell,
            &mut scratch,
            &previous,
            &current,
            0,
            &[flip],
            true,
        );
        assert_eq!((det, corr), (1, 1), "the guard must catch exactly the flip");

        // Without the guard the corruption survives in the shell.
        let mut shell2 = seeded();
        let (det, corr) = sched.advance(
            &mut shell2,
            &mut scratch,
            &previous,
            &current,
            0,
            &[flip],
            false,
        );
        assert_eq!((det, corr), (0, 0));
        assert_ne!(
            shell2[adv.slot].to_bits(),
            shell[adv.slot].to_bits(),
            "unguarded flip must persist"
        );
    }
}
