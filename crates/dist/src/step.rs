//! The rank step machine and the cross-rank rollback: the **one**
//! implementation of the paper's protected parallel step (§3.2: sweep →
//! interpolate → detect/correct *before* the next halo post) and of its
//! recovery rule (§5.4: checkpoint grid + checksums, roll back, replay).
//!
//! A [`RankStepper`] advances one rank one iteration at a time, in two
//! halves:
//!
//! 1. [`RankStepper::post`] — store a checkpoint when the policy is due
//!    (before anything else, so even an immediate kill leaves a
//!    recoverable epoch behind), die if a kill plan fires, then either
//!    **post** (first sweep of an exchange epoch: snapshot the halo boxes
//!    this rank owes its consumers — face strips, edge strips, corner
//!    patches — out of the time-`t` buffer and send one message per
//!    consumer channel; what the rank serves itself lands in its pad
//!    straight away), and sweep the overlap window — the brick shrunk by
//!    a reach, which reads no pad cell — while neighbour sends and
//!    receives complete.
//! 2. [`RankStepper::complete`] — on an exchange sweep, block on each
//!    producer channel and land its boxes in the pad of the rank's
//!    padded grid ([`crate::epoch`]); sweep the rest of the epoch's
//!    window for this sweep (the brick grown by a reach per sweep still
//!    to come) and finish the step; when protected, verify that window's
//!    checksums — the brick and the pad cells the sweep wrote, every
//!    sweep, so corrections land *before* the next post and a neighbour
//!    can never observe a known-corrupted cell — and escalate damage
//!    sweeping a flagged layer again cannot repair.
//!
//! Either half can end the rank's round with a [`RankExit`]; a half that
//! fails commits nothing, so a rank's replay bound is simply its `t`.
//! [`Job::rollback`] is the recovery rule over all of a job's ranks.
//!
//! Two drivers run the same steppers and the same rollback: the pool
//! worker ([`crate::worker`]) loops `post(); complete()` on its own thread
//! with the scheduler rolling back between rounds, and [`run_lockstep`]
//! advances every rank of a job from one thread.

use crate::epoch::Pad;
use crate::index::HaloPlan;
use crate::pipeline::{Ports, TopoKey, TopologyCache, CHANNEL_DEPTH};
use crate::service::JobSpec;
use crate::{
    col_plans, effective_halo, gather_report, validate, Brick, DistError, DistReport, HaloTraffic,
    Partition3, PhaseTimings,
};
use abft_checkpoint::{CheckpointPolicy, EpochRing};
use abft_core::{ColPlan, OnlineAbft};
use abft_fault::{BitFlip, MultiFlipHook};
use abft_grid::Grid3D;
use abft_metrics::RecoveryStats;
use abft_num::Real;
use abft_stencil::{Exec, InteriorWindow, NoHook, StencilSim, SweepHook};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The newest epoch present in every stepper's ring — the common
/// rollback target. `None` if the job does not checkpoint, or if the
/// rings share no epoch (cannot happen when the ring depth covers the
/// pipeline's maximum skew: every rank stores epoch 0 before its first
/// post, and eviction only trims epochs older than `keep` periods behind
/// that rank's own progress).
pub(crate) fn common_epoch<T: Real>(steppers: &[RankStepper<T>]) -> Option<usize> {
    let holds = |e| {
        let mut rings = steppers.iter().map(|s| s.ring());
        rings.all(|r| r.is_some_and(|r| r.get(e).is_some()))
    };
    let first = steppers.first()?.ring()?;
    first.epochs().into_iter().rev().find(|&e| holds(e))
}

/// Ring depth covering the pipeline's maximum epoch skew, so the newest
/// epoch common to every ring always exists: neighbouring ranks drift at
/// most `CHANNEL_DEPTH + 1` iterations apart, the drift compounds across
/// the rank grid's diameter, and `+2` covers the boundary epochs of the
/// window. An explicit [`CheckpointPolicy::with_keep`] overrides.
fn ring_keep(
    policy: CheckpointPolicy,
    (rx, ry, rz): (usize, usize, usize),
    steps_per_exchange: usize,
) -> usize {
    policy.keep.unwrap_or_else(|| {
        let diam = ((rx - 1) + (ry - 1) + (rz - 1)).max(1);
        // Epoch batching scales the skew: neighbours drift in whole
        // exchange epochs of `steps_per_exchange` iterations each.
        let skew = (CHANNEL_DEPTH + 1) * steps_per_exchange.max(1) * diam;
        skew.div_ceil(policy.period) + 2
    })
}

/// Why one rank stopped before the job's last iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankExit {
    /// A [`abft_fault::RankKill`] plan fired at the start of iteration
    /// `iter`: the rank posted nothing for `iter`.
    Killed { iter: usize },
    /// A channel send or receive failed during iteration `iter` — some
    /// peer died and dropped its endpoints. The step was abandoned
    /// *before* commit: the simulation still holds the last completed
    /// iteration and no verification ran on torn data.
    PeerLost { iter: usize },
    /// ABFT verification of iteration `iter` found damage that sweeping
    /// the flagged layers again cannot repair (a strike at rest on the
    /// time-`t` data or on the trusted checksums), and the rank holds a
    /// checkpoint ring: escalate to rollback
    /// instead of carrying a known-wrong grid forward. (A job without a
    /// checkpoint policy keeps running, and the damage is reported in the
    /// rank's stats.)
    /// The step *was* committed, so the rank's `t` is `iter + 1`: replay
    /// must restart past the fault.
    Uncorrectable { iter: usize },
}

/// One rank of one job as a resumable step machine, and everything the
/// rank owns: its padded-brick simulation and protector, its faults, its
/// checkpoint ring, its channel endpoints for its slot in the topology,
/// its phase timings and its own position `t`.
pub(crate) struct RankStepper<T: Real> {
    /// The simulation of the rank's padded grid ([`crate::epoch::Pad`]):
    /// the brick plus its halo, swept under the job's own boundaries.
    pub(crate) sim: StencilSim<T>,
    /// The protector of the boxes of `sim` the sweeps write: the brick,
    /// and the brick grown by each reach an epoch's later sweeps still
    /// consume.
    pub(crate) abft: Option<OnlineAbft<T>>,
    pub(crate) brick: Brick,
    pub(crate) pad: Pad,
    /// Every flip planned for this rank, at its padded-grid coordinate:
    /// the brick's, then the shell's at the pad cell they strike (a shell
    /// target the pad does not hold is dropped at build). One-shot: a
    /// rollback drops the ones that fired.
    pub(crate) flips: Vec<BitFlip>,
    /// The rank's halo-traffic volumes, for its report.
    pub(crate) traffic: HaloTraffic,
    pub(crate) timing: PhaseTimings,
    /// Borrowed from the topology cache for the job: a clean job drains
    /// every channel (one send and one recv per channel per exchange), so
    /// the same endpoints carry the pool's next job.
    pub(crate) ports: Ports<T>,
    /// Rank index within the job (its topology position).
    pub(crate) idx: usize,
    iters: usize,
    /// Sweeps per halo exchange: 1 exchanges every iteration, `k > 1`
    /// posts once per epoch and sweeps the decaying pad in between.
    k: usize,
    /// The job's checkpoint policy, if it has one, and this rank's own
    /// snapshots of its brick, stored at the start of every iteration the
    /// policy says is due and read by [`Job::rollback`].
    checkpoint: Option<(CheckpointPolicy, EpochRing<T>)>,
    /// Iterations at which a kill plan for this rank has yet to fire.
    kills: Vec<usize>,
    /// The overlap window: cells whose stencil support stays in the brick
    /// (may be empty for bricks barely larger than the extent). An axis
    /// only narrows when it exchanges. The pad is never checkpointed:
    /// rollback targets are exchange-aligned, so the replay's first
    /// exchange refills it.
    window: InteriorWindow,
    /// Staging for the boxes the rank serves itself (a deep periodic pad
    /// that wraps onto its own brick).
    scratch: Vec<T>,
    /// Staging for a checkpoint's checksum payload.
    aux: Vec<T>,
    /// The next iteration to execute — equally, the first one this rank
    /// has *not* durably executed.
    pub(crate) t: usize,
    /// Rewind target of the latest rollback (0 for a fresh job): the
    /// ring already holds that epoch.
    start: usize,
}

impl<T: Real> RankStepper<T> {
    /// Rank `idx` of the job `spec` over `part`, fresh: its slice of the
    /// initial field (and constant) on its padded grid, its protector over
    /// the cached interpolation plans `col`, its faults and kills, and —
    /// when the job checkpoints — its ring, seeded with the `spares` of
    /// its brick's dims that a clean run's stores will fill. Everything
    /// here is job-scoped, so one job's faults and protector counters can
    /// never leak into the next.
    fn new(
        idx: usize,
        spec: &JobSpec<T>,
        part: &Partition3,
        traffic: HaloTraffic,
        col: Option<&[Arc<ColPlan<T>>]>,
        ports: Ports<T>,
        spares: &mut Vec<Grid3D<T>>,
    ) -> Self {
        let (cfg, stencil, bounds) = (&spec.cfg, &spec.stencil, spec.bounds);
        let (brick, grid) = (part.brick(idx), (part.rx(), part.ry(), part.rz()));
        let halo = effective_halo(cfg, stencil, grid);
        let pad = Pad::new(&brick, spec.initial.dims(), &bounds, halo, stencil);
        let sim = StencilSim::new(pad.fill(&spec.initial), stencil.clone(), bounds);
        let mut sim = sim.with_exec(Exec::Serial);
        if let Some(c) = &spec.constant {
            sim = sim.with_constant(pad.fill(c));
        }
        let abft = cfg
            .abft
            .zip(col)
            .map(|(acfg, col)| OnlineAbft::over_plans(&sim, acfg, col.iter().cloned()));
        let mine = |(r, _): &&(usize, BitFlip)| *r == idx;
        let at = |[x, y, z]: [usize; 3], f| BitFlip { x, y, z, ..f };
        let [ox, oy, oz] = pad.lo;
        let brick_flips = cfg.flips.iter().filter(mine);
        let brick_flips = brick_flips.map(|&(_, f)| at([f.x + ox, f.y + oy, f.z + oz], f));
        let shell_flips = cfg.shell_flips.iter().filter(mine);
        let shell_flips =
            shell_flips.filter_map(|&(_, f)| Some(at(pad.in_pad([f.x, f.y, f.z])?, f)));
        let checkpoint = cfg.checkpoint.map(|p| {
            // A clean run stores ⌈iters / Δ⌉ epochs, of which the ring
            // retains `keep`: seed up to that many spares of the brick's
            // dims.
            let keep = ring_keep(p, grid, cfg.steps_per_exchange);
            let [nx, ny, nz] = pad.len;
            let mut ring = EpochRing::new(keep);
            ring.seed((0..keep.min(cfg.iters.div_ceil(p.period))).map_while(|_| {
                let i = spares.iter().position(|g| g.dims() == (nx, ny, nz))?;
                Some(spares.swap_remove(i))
            }));
            (p, ring)
        });
        let kills = cfg.kills.iter().filter(|k| k.rank == idx);
        Self {
            window: pad.inner(),
            flips: brick_flips.chain(shell_flips).collect(),
            kills: kills.map(|k| k.iter).collect(),
            sim,
            abft,
            brick,
            pad,
            traffic,
            timing: PhaseTimings::default(),
            ports,
            idx,
            iters: cfg.iters,
            k: cfg.steps_per_exchange,
            checkpoint,
            scratch: Vec::new(),
            aux: Vec::new(),
            t: 0,
            start: 0,
        }
    }

    /// Run every remaining iteration on the calling thread — the pool
    /// worker's driver loop.
    pub(crate) fn run(&mut self) -> Result<(), RankExit> {
        while !self.is_done() {
            self.post()?;
            self.complete()?;
        }
        Ok(())
    }

    /// This rank's checkpoint ring, if the job checkpoints.
    pub(crate) fn ring(&self) -> Option<&EpochRing<T>> {
        self.checkpoint.as_ref().map(|(_, ring)| ring)
    }

    /// Whether this rank has executed the job's last iteration.
    pub(crate) fn is_done(&self) -> bool {
        self.t == self.iters
    }

    /// Drop this rank's channel endpoints. After a failed round on its own
    /// thread that is what unblocks — and errors — every neighbour still
    /// waiting on this rank, cascading the loss through the topology
    /// instead of hanging the pipeline. The rank itself survives for the
    /// rollback.
    pub(crate) fn hang_up(&mut self) {
        self.ports = Ports::empty();
    }

    /// First half of iteration `t`: checkpoint, kill check, post, overlap
    /// sweep.
    pub(crate) fn post(&mut self) -> Result<(), RankExit> {
        match self.hook() {
            None => self.post_with(&NoHook),
            Some(hook) => self.post_with(&hook),
        }
    }

    /// Second half of iteration `t`: receive and land, edge sweep, verify,
    /// escalate. Advances `t` when the step commits.
    pub(crate) fn complete(&mut self) -> Result<(), RankExit> {
        match self.hook() {
            None => self.complete_with(&NoHook),
            Some(hook) => self.complete_with(&hook),
        }
    }

    /// The fault-injection hook for iteration `t`, if any flip is due.
    fn hook(&self) -> Option<MultiFlipHook<T>> {
        let due = self.flips.iter().filter(|f| f.iteration == self.t);
        let flips: Vec<_> = due.copied().collect();
        (!flips.is_empty()).then(|| MultiFlipHook::new(flips))
    }

    fn post_with<H: SweepHook<T>>(&mut self, hook: &H) -> Result<(), RankExit> {
        let t = self.t;
        // The snapshot (grid + trusted checksums, the paper's §5.4 "state
        // of the grid and of the checksums") is taken *before* the kill
        // check: both happen "at the start of t", and storing first
        // guarantees every rank — even one killed at t = 0 — leaves at
        // least one recoverable epoch in its ring. Skipped at the first
        // step after a rollback: the ring already holds that epoch.
        if let Some((policy, ring)) = &mut self.checkpoint {
            if policy.due(t) && (t == 0 || t != self.start) {
                match &self.abft {
                    Some(a) => a.write_checksum_payload(&mut self.aux),
                    None => self.aux.clear(),
                }
                let (pad, current) = (&self.pad, self.sim.current());
                ring.store_box(current, pad.lo, pad.len, &self.aux, t);
            }
        }
        if self.kills.contains(&t) {
            // A kill is a one-shot event: it does not fire again on replay.
            self.kills.retain(|&k| k != t);
            return Err(RankExit::Killed { iter: t });
        }

        let began = Instant::now();
        if t.is_multiple_of(self.k) {
            let (pad, current) = (&self.pad, self.sim.current());
            let mut sent = 0;
            for (tx, boxes) in &self.ports.sends {
                let mut msg = Vec::new();
                pad.pack(current, boxes, &mut msg);
                sent += msg.len();
                if tx.send(msg).is_err() {
                    return Err(RankExit::PeerLost { iter: t });
                }
            }
            self.scratch.clear();
            let own = &self.ports.self_boxes;
            pad.pack(current, own, &mut self.scratch);
            pad.unpack(own, &self.scratch, self.sim.current_mut());
            self.timing.halo_bytes_sent += (sent * std::mem::size_of::<T>()) as u64;
            self.timing.halo_msgs_sent += self.ports.sends.len() as u64;
        }
        let posted = Instant::now();
        match self.abft.as_mut() {
            Some(a) => a.sweep_interior(&mut self.sim, hook, &self.window),
            None => self.sim.sweep_interior(hook, &self.window, None),
        }
        self.timing.post_s += (posted - began).as_secs_f64();
        self.timing.interior_s += posted.elapsed().as_secs_f64();
        Ok(())
    }

    fn complete_with<H: SweepHook<T>>(&mut self, hook: &H) -> Result<(), RankExit> {
        let t = self.t;
        let began = Instant::now();
        if t.is_multiple_of(self.k) {
            let mut received = 0;
            for (rx, boxes) in &self.ports.recvs {
                // A producer died: the step is abandoned before the edge
                // sweep, so the simulation still holds iteration t intact.
                let Ok(msg) = rx.recv() else {
                    return Err(RankExit::PeerLost { iter: t });
                };
                received += msg.len();
                self.pad.unpack(boxes, &msg, self.sim.current_mut());
            }
            self.timing.halo_bytes_recv += (received * std::mem::size_of::<T>()) as u64;
            self.timing.halo_msgs_recv += self.ports.recvs.len() as u64;
        }
        let landed = Instant::now();
        let outer = self.pad.window(self.k - 1 - t % self.k);
        let (uncorrectable, tail) = match self.abft.as_mut() {
            Some(a) => {
                let (outcome, tail) =
                    a.sweep_shell_and_verify(&mut self.sim, hook, &self.window, &outer);
                (outcome.uncorrectable, tail)
            }
            None => {
                self.sim
                    .sweep_shell_and_finish(hook, &self.window, &outer, None);
                (0, Duration::ZERO)
            }
        };
        self.timing.wait_s += (landed - began).as_secs_f64();
        self.timing.edge_s += landed.elapsed().saturating_sub(tail).as_secs_f64();
        self.timing.verify_s += tail.as_secs_f64();
        self.t += 1;
        // The re-sweep was defeated (a strike at rest). With a ring to
        // roll back to, escalate instead of carrying a wrong grid forward.
        if uncorrectable > 0 && self.checkpoint.is_some() {
            return Err(RankExit::Uncorrectable { iter: t });
        }
        Ok(())
    }
}

/// What the ranks of one job share beside their steppers: the topology
/// identity its channel sets are checked in and out under, and the
/// cross-rank recovery state (each rank's checkpoints are its stepper's
/// own ring).
pub(crate) struct Job<T: Real> {
    pub(crate) key: TopoKey<T>,
    pub(crate) part: Partition3,
    steps_per_exchange: usize,
    /// `None` means a rank loss is unrecoverable.
    checkpoint: Option<CheckpointPolicy>,
    pub(crate) recovery: RecoveryStats,
}

impl<T: Real> Job<T> {
    /// Resolve one job's topology (cache hit or build), construct its
    /// fresh per-job rank state and check a channel set out for it. Pure
    /// build work — nothing runs yet.
    pub(crate) fn build(
        spec: &JobSpec<T>,
        cache: &mut TopologyCache<T>,
    ) -> Result<(Self, Vec<RankStepper<T>>), DistError> {
        let (key, part) = Self::key(spec)?;
        let build = || HaloPlan::of_job(&key, &part, &spec.stencil);
        let plans = cache.plans(&key, build);
        let col = spec.cfg.abft.map(|_| {
            cache.col_plans(&key, &spec.stencil, || {
                col_plans(key.dims, &spec.stencil, &spec.bounds, &spec.cfg, &part)
            })
        });
        // The spares this job's rings do not take are dropped here, before
        // it runs; a job that does not checkpoint leaves them be.
        let mut spares = match spec.cfg.checkpoint {
            Some(_) => cache.take_spares(),
            None => Vec::new(),
        };
        let ports = cache.check_out(&key, build).into_iter().enumerate();
        let steppers = ports
            .map(|(idx, ports)| {
                let col = col.as_ref().map(|c| c[idx].as_slice());
                let traffic = plans[idx].traffic;
                RankStepper::new(idx, spec, &part, traffic, col, ports, &mut spares)
            })
            .collect();
        let job = Self {
            key,
            part,
            steps_per_exchange: spec.cfg.steps_per_exchange,
            checkpoint: spec.cfg.checkpoint,
            recovery: RecoveryStats::default(),
        };
        Ok((job, steppers))
    }

    /// The topology key of `spec` and its rank partition.
    ///
    /// # Errors
    /// Whatever admission rejects the spec with: admission already ran,
    /// but a handed-over spec must never be trusted enough to panic a
    /// pooled worker.
    pub(crate) fn key(spec: &JobSpec<T>) -> Result<(TopoKey<T>, Partition3), DistError> {
        let part = validate(
            &spec.initial,
            &spec.stencil,
            &spec.bounds,
            spec.constant.as_ref(),
            &spec.cfg,
        )?;
        let grid = (part.rx(), part.ry(), part.rz());
        let key = TopoKey {
            dims: spec.initial.dims(),
            grid,
            halo: effective_halo(&spec.cfg, &spec.stencil, grid),
            bounds: spec.bounds,
        };
        Ok((key, part))
    }

    /// One recovery round, after every rank has stopped and at least one
    /// did not finish: roll every rank back to the newest epoch all their
    /// rings hold, consume the faults that already fired, and re-arm the
    /// steppers over a fresh channel set from `cache` (the lost round's
    /// channels may hold stale messages). The replayed run's final grid is
    /// bitwise what the fault-free run produces: snapshots capture exactly
    /// the committed state (grid + trusted checksums), and the replay
    /// performs the identical sweeps in the identical order.
    ///
    /// # Errors
    /// [`DistError::RankLost`] without a checkpoint policy, and
    /// [`DistError::NoCommonEpoch`] when an explicit `with_keep` shallower
    /// than the pipeline's epoch skew evicted the overlap — the auto-sized
    /// ring depth makes that unreachable, but a user-pinned depth must
    /// fail the job, not panic its driver. Either way no channel set is
    /// checked out.
    pub(crate) fn rollback(
        &mut self,
        steppers: &mut [RankStepper<T>],
        exits: &[Result<(), RankExit>],
        cache: &mut TopologyCache<T>,
    ) -> Result<(), DistError> {
        let began = Instant::now();
        let mut killed = exits.iter().enumerate().filter_map(|(rank, x)| match x {
            Err(RankExit::Killed { iter }) => Some((rank, *iter)),
            _ => None,
        });
        self.recovery.rank_losses += killed.clone().count();
        let Some(policy) = self.checkpoint else {
            let (rank, iter) = killed
                .next()
                .expect("without checkpoints only a kill ends a round early");
            return Err(DistError::RankLost { rank, iter });
        };
        let Some(e) = common_epoch(steppers) else {
            let keep = ring_keep(policy, self.key.grid, self.steps_per_exchange);
            return Err(DistError::NoCommonEpoch { keep });
        };
        debug_assert!(
            e.is_multiple_of(self.steps_per_exchange),
            "rollback must land on an exchange boundary (validate pins period % k == 0)"
        );
        let stencil = steppers[0].sim.stencil();
        let build = || HaloPlan::of_job(&self.key, &self.part, stencil);
        let ports = cache.check_out(&self.key, build);
        for (s, ports) in steppers.iter_mut().zip(ports) {
            let (_, ring) = s.checkpoint.as_mut().expect("every ring holds epoch `e`");
            // Ranks that ran ahead of the rollback target still retain
            // epochs newer than `e`. The replay re-reaches those epochs
            // and stores them again, so drop the stale copies now — the
            // ring's in-order assert would otherwise panic the rank on
            // the first re-store (a recoverable loss turned fatal).
            ring.truncate_after(e);
            let snap = ring.restore(e);
            s.sim.restore_box(&snap.grid, s.pad.lo, e);
            if let Some(a) = s.abft.as_mut() {
                a.restore_checksums(&snap.aux);
            }
            // One-shot fault semantics: flips below this rank's `t` fired
            // (and were committed) on the lost attempt; only the rest may
            // fire again during replay.
            s.flips.retain(|f| f.iteration >= s.t);
            self.recovery.steps_lost += s.t - e;
            s.t = e;
            s.start = e;
            s.ports = ports;
        }
        self.recovery.rollbacks += 1;
        self.recovery.recovery_s += began.elapsed().as_secs_f64();
        Ok(())
    }

    /// Every rank ran to the end: return the drained channel set and the
    /// rings' snapshot grids for reuse, gather the bricks and fold the
    /// recovery ledger in.
    pub(crate) fn finish(
        &mut self,
        mut steppers: Vec<RankStepper<T>>,
        cache: &mut TopologyCache<T>,
        wall_s: f64,
    ) -> DistReport<T> {
        for (_, ring) in steppers.iter_mut().filter_map(|s| s.checkpoint.take()) {
            self.recovery.checkpoints_stored += ring.stats().stores;
            cache.recycle(ring.into_grids());
        }
        if let Some(p) = self.checkpoint {
            self.recovery.checkpoint_period = p.period;
        }
        let ports = steppers.iter_mut();
        let ports = ports.map(|s| std::mem::replace(&mut s.ports, Ports::empty()));
        cache.check_in(&self.key, ports.collect());
        let mut report = gather_report(
            &steppers,
            self.key.grid,
            self.key.dims,
            wall_s,
            self.steps_per_exchange,
        );
        report.recovery = self.recovery;
        report
    }
}

/// The lock-step driver: advance every rank of a job from the calling
/// thread — every rank posts iteration `t`, then every rank completes it.
/// In that order a channel never holds more than one message, so no send
/// or receive blocks and a job needs neither pool slots nor threads; the
/// order of every rank's operations is fixed, so a run is deterministic.
/// A round in which any rank stops is rolled back by the same
/// [`Job::rollback`] the scheduler uses, and the loop continues.
pub(crate) fn run_lockstep<T: Real>(
    job: &mut Job<T>,
    mut steppers: Vec<RankStepper<T>>,
    cache: &mut TopologyCache<T>,
) -> Result<DistReport<T>, DistError> {
    let wall = Instant::now();
    while !steppers[0].is_done() {
        let mut exits: Vec<_> = steppers.iter_mut().map(RankStepper::post).collect();
        if exits.iter().all(Result::is_ok) {
            exits = steppers.iter_mut().map(RankStepper::complete).collect();
        }
        if exits.iter().any(Result::is_err) {
            job.rollback(&mut steppers, &exits, cache)?;
        }
    }
    Ok(job.finish(steppers, cache, wall.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HaloMode;
    use abft_core::AbftConfig;
    use abft_fault::RankKill;
    use abft_grid::{Boundary, BoundarySpec};
    use abft_stencil::Stencil3D;
    use proptest::prelude::*;

    const ITERS: usize = 9;

    fn spec(grid: (usize, usize), k: usize, period: usize) -> JobSpec<f64> {
        JobSpec::over(
            Grid3D::from_fn(8, 16, 2, |x, y, z| {
                40.0 + ((x * 5 + y * 3 + z * 11) % 17) as f64 * 0.4
            }),
            Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
        )
        .with_ranks(4)
        .with_grid(grid.0, grid.1)
        .with_iters(ITERS)
        .with_steps_per_exchange(k)
        .with_abft(AbftConfig::<f64>::paper_defaults())
        .with_checkpoint(CheckpointPolicy::every(period))
    }

    fn serial(spec: &JobSpec<f64>) -> Grid3D<f64> {
        let mut sim = StencilSim::new(spec.initial.clone(), spec.stencil.clone(), spec.bounds)
            .with_exec(Exec::Serial);
        for _ in 0..spec.cfg.iters {
            sim.step();
        }
        sim.current().clone()
    }

    /// One job's steppers driven from one thread, one half-step at a time,
    /// with a model of the channels that says which half-steps cannot
    /// block: what a pool of threads would do, minus the threads.
    struct Harness {
        job: Job<f64>,
        steppers: Vec<RankStepper<f64>>,
        cache: TopologyCache<f64>,
        /// Per rank, the other ranks it receives from / sends to.
        producers: Vec<Vec<usize>>,
        consumers: Vec<Vec<usize>>,
        /// Exchanges each rank has posted / completed over the current
        /// channel set.
        sent: Vec<usize>,
        received: Vec<usize>,
        /// Ranks between `post` and `complete`.
        posted: Vec<bool>,
        /// How each rank's round ended, once it has (a stopped rank has
        /// hung up, exactly as the pool worker makes it).
        exits: Vec<Option<Result<(), RankExit>>>,
        rollbacks: usize,
    }

    impl Harness {
        fn new(spec: &JobSpec<f64>) -> Self {
            let mut cache = TopologyCache::new();
            let (job, steppers) = Job::build(spec, &mut cache).unwrap();
            let n = steppers.len();
            let producers: Vec<Vec<usize>> = steppers
                .iter()
                .map(|s| {
                    let recvs = s.ports.recvs.iter();
                    recvs.map(|(_, boxes)| boxes[0].owner).collect()
                })
                .collect();
            let consumers = (0..n)
                .map(|p| (0..n).filter(|&c| producers[c].contains(&p)).collect())
                .collect();
            Self {
                job,
                steppers,
                cache,
                producers,
                consumers,
                sent: vec![0; n],
                received: vec![0; n],
                posted: vec![false; n],
                exits: vec![None; n],
                rollbacks: 0,
            }
        }

        fn hung_up(&self, r: usize) -> bool {
            matches!(self.exits[r], Some(Err(_)))
        }

        /// Whether rank `r`'s next half-step returns without blocking: a
        /// post needs room in every live consumer's channel, a complete a
        /// message from every live producer (a hung-up peer fails the call
        /// instead of blocking it). Only exchange sweeps touch channels.
        fn legal(&self, r: usize) -> bool {
            if self.exits[r].is_some() {
                return false;
            }
            if !self.steppers[r].t.is_multiple_of(self.steppers[r].k) {
                return true;
            }
            if self.posted[r] {
                let has_message = |&p: &usize| self.sent[p] > self.received[r];
                let mut producers = self.producers[r].iter();
                producers.all(|p| self.hung_up(*p) || has_message(p))
            } else {
                let has_room = |&c: &usize| self.sent[r] - self.received[c] < CHANNEL_DEPTH;
                let mut consumers = self.consumers[r].iter();
                consumers.all(|c| self.hung_up(*c) || has_room(c))
            }
        }

        /// Run rank `r`'s next half-step.
        fn advance(&mut self, r: usize) {
            let s = &mut self.steppers[r];
            let exchange = s.t.is_multiple_of(s.k);
            let count = if self.posted[r] {
                &mut self.received
            } else {
                &mut self.sent
            };
            let result = if self.posted[r] {
                s.complete()
            } else {
                s.post()
            };
            self.posted[r] = !self.posted[r];
            match result {
                Ok(()) => {
                    count[r] += usize::from(exchange);
                    if s.is_done() {
                        self.exits[r] = Some(Ok(()));
                    }
                }
                Err(exit) => {
                    s.hang_up();
                    self.exits[r] = Some(Err(exit));
                }
            }
        }

        /// Every rank has stopped and some did not finish: roll back over
        /// a fresh channel set, and check what the PR 8 skew bug broke —
        /// after `truncate_after` no ring may hold an epoch out of order
        /// or past the rollback target.
        fn roll_back(&mut self) -> Result<(), TestCaseError> {
            let exits: Vec<_> = self.exits.iter().map(|x| x.expect("stopped")).collect();
            self.job
                .rollback(&mut self.steppers, &exits, &mut self.cache)
                .expect("auto-sized rings share an epoch");
            self.rollbacks += 1;
            for s in &self.steppers {
                let epochs = s.ring().expect("policy arms a ring").epochs();
                prop_assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
                prop_assert_eq!(epochs.last(), Some(&s.t));
            }
            let n = self.steppers.len();
            self.sent = vec![0; n];
            self.received = vec![0; n];
            self.posted = vec![false; n];
            self.exits = vec![None; n];
            Ok(())
        }
    }

    /// The pool recycles snapshot grids across jobs. A repeat
    /// checkpointing job stores into the grids the last one handed back
    /// and allocates none; an unprotected job in between leaves them be,
    /// and a checkpointing job on other bricks drops them at its build.
    #[test]
    fn a_repeat_checkpointing_job_stores_into_the_last_jobs_snapshots() {
        let job = |ny: usize, period: Option<usize>| {
            let spec = JobSpec::over(
                Grid3D::from_fn(8, ny, 2, |x, y, z| 40.0 + ((x * 5 + y * 3 + z) % 17) as f64),
                Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
            )
            .with_ranks(2)
            .with_grid(1, 2)
            .with_iters(ITERS)
            .with_mode(HaloMode::Snapshot);
            match period {
                Some(p) => spec
                    .with_abft(AbftConfig::<f64>::paper_defaults())
                    .with_checkpoint(CheckpointPolicy::every(p)),
                None => spec,
            }
        };
        let spares = |cache: &TopologyCache<f64>| {
            let mut ptrs: Vec<_> = cache
                .spares()
                .iter()
                .map(|g| g.as_slice().as_ptr())
                .collect();
            ptrs.sort();
            ptrs
        };
        let seeded = |steppers: &[RankStepper<f64>]| {
            let rings = steppers.iter().map(|s| s.ring());
            rings
                .map(|r| r.expect("policy arms a ring").spares())
                .sum::<usize>()
        };
        let mut cache = TopologyCache::new();
        let protected = job(16, Some(2));

        let (mut first, steppers) = Job::build(&protected, &mut cache).unwrap();
        assert_eq!(seeded(&steppers), 0, "nothing to seed from yet");
        let expect = run_lockstep(&mut first, steppers, &mut cache)
            .unwrap()
            .global;
        // ⌈9 / 2⌉ = 5 epochs per rank, of which each ring keeps 4.
        let keep = ring_keep(CheckpointPolicy::every(2), (1, 2, 1), 1);
        let last = spares(&cache);
        assert_eq!(last.len(), 2 * keep);

        let (mut unprotected, steppers) = Job::build(&job(16, None), &mut cache).unwrap();
        run_lockstep(&mut unprotected, steppers, &mut cache).unwrap();
        assert_eq!(
            spares(&cache),
            last,
            "an unprotected job touched the spares"
        );

        let (mut second, steppers) = Job::build(&protected, &mut cache).unwrap();
        assert_eq!(seeded(&steppers), last.len());
        assert!(cache.spares().is_empty());
        let report = run_lockstep(&mut second, steppers, &mut cache).unwrap();
        assert_eq!(report.global, expect);
        // Every seeded grid stayed alive through the run, so a grid
        // allocated meanwhile would show up here under a new address.
        assert_eq!(spares(&cache), last, "the repeat job allocated a snapshot");

        let (mut other, steppers) = Job::build(&job(12, Some(2)), &mut cache).unwrap();
        assert_eq!(seeded(&steppers), 0);
        assert!(cache.spares().is_empty(), "other bricks kept the spares");
        run_lockstep(&mut other, steppers, &mut cache).unwrap();
        assert!(cache.spares().iter().all(|g| g.dims() == (8, 6, 2)));
        let (_, steppers) = Job::build(&protected, &mut cache).unwrap();
        assert_eq!(seeded(&steppers), 0);
    }

    /// A loss with nothing to roll back to fails its job before any
    /// replacement channel set is checked out: the key's idle sets stay
    /// as they were.
    #[test]
    fn an_unrecoverable_loss_checks_out_no_replacement_ports() {
        let spec = JobSpec::over(
            Grid3D::from_fn(8, 16, 2, |x, y, z| (x * 5 + y * 3 + z) as f64),
            Stencil3D::seven_point(0.4f64, 0.12, 0.08, 0.1),
        )
        .with_ranks(2)
        .with_grid(1, 2)
        .with_iters(ITERS)
        .with_mode(HaloMode::Snapshot);
        let mut cache = TopologyCache::new();
        let lost = spec.clone().with_rank_kill(RankKill::new(1, 3));
        let (mut lost, steppers) = Job::build(&lost, &mut cache).unwrap();
        // A clean job over the same key checks its own set in.
        let (mut clean, clean_steppers) = Job::build(&spec, &mut cache).unwrap();
        run_lockstep(&mut clean, clean_steppers, &mut cache).unwrap();
        assert_eq!(cache.idle_ports(&lost.key), Some(1));
        let err = run_lockstep(&mut lost, steppers, &mut cache).unwrap_err();
        assert_eq!(err, DistError::RankLost { rank: 1, iter: 3 });
        assert_eq!(cache.idle_ports(&lost.key), Some(1));
    }

    /// No rank packs what it cannot land: a one-rank job, clamp or
    /// periodic, has no pad and serves itself nothing, and on the
    /// `dist-halo` shape (512×16×8 over 1×2 ranks, clamp, 27-point) each
    /// rank packs its neighbour's one row alone: one 4 096-cell message
    /// per exchange, and nothing for itself.
    #[test]
    fn no_rank_packs_what_it_cannot_land() {
        let kernel = Stencil3D::diffusion_27pt(0.02);
        let periodic = BoundarySpec::uniform(Boundary::Periodic);
        let shapes = [
            ((16, 12, 4), 1, BoundarySpec::clamp(), 0),
            ((16, 12, 4), 1, periodic, 0),
            ((512, 16, 8), 2, BoundarySpec::clamp(), 4096),
        ];
        for (dims, ranks, bounds, cells) in shapes {
            let initial = Grid3D::from_fn(dims.0, dims.1, dims.2, |x, y, z| (x + y + z) as f64);
            let spec = JobSpec::over(initial, kernel.clone())
                .with_bounds(bounds)
                .with_ranks(ranks)
                .with_iters(3)
                .with_mode(HaloMode::Snapshot);
            let mut cache = TopologyCache::new();
            let (mut job, steppers) = Job::build(&spec, &mut cache).unwrap();
            for s in &steppers {
                assert!(s.ports.self_boxes.is_empty(), "{dims:?}, {bounds:?}");
                assert_eq!(s.traffic.self_cells, 0, "{dims:?}, {bounds:?}");
            }
            let report = run_lockstep(&mut job, steppers, &mut cache).unwrap();
            for r in &report.ranks {
                let sent = (r.timing.halo_msgs_sent, r.timing.halo_bytes_sent);
                let msgs = if cells > 0 { 3 } else { 0 };
                assert_eq!(sent, (msgs, 3 * cells as u64 * 8), "{dims:?}, {bounds:?}");
            }
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// Admission and firing agree on shell flips: `validate` admits a
        /// shell flip on a cell outside the rank's brick exactly when the
        /// stepper built from it resolves the flip, and it resolves it to
        /// a pad cell standing for the flip's global cell. Targets are
        /// drawn per axis from a shell and one cell past it around the
        /// brick, wrapped into the domain; a brick cell is the brick's own
        /// flip kind, never a shell target.
        #[test]
        fn shell_flip_admission_matches_the_resolved_flips(
            grid in prop_oneof![
                Just((1usize, 2usize, 1usize)),
                Just((2, 2, 1)),
                Just((2, 2, 2)),
                Just((1, 4, 1)),
            ],
            kinds in (0usize..5, 0usize..5, 0usize..5),
            k in 2usize..=3,
            reach in 1usize..=2,
            dims in (8usize..=13, 12usize..=20, 7usize..=9),
            pick in (0usize..8, 0usize..1000, 0usize..1000, 0usize..1000),
        ) {
            let (rx, ry, rz) = grid;
            let bounds = BoundarySpec { x: boundary(kinds.0), y: boundary(kinds.1), z: boundary(kinds.2) };
            let r = reach as isize;
            let stencil = Stencil3D::from_tuples(&[(r, r, r, 0.5f64), (-r, -r, -r, 0.5)]);
            let initial = Grid3D::from_fn(dims.0, dims.1, dims.2, |x, y, z| {
                (x + 100 * y + 10_000 * z) as f64 + 0.25
            });
            let clean = JobSpec::over(initial.clone(), stencil)
                .with_bounds(bounds)
                .with_ranks(rx * ry * rz)
                .with_grid3(rx, ry, rz)
                .with_iters(k)
                .with_steps_per_exchange(k);
            let part = validate(&initial, &clean.stencil, &bounds, None, &clean.cfg);
            prop_assume!(part.is_ok(), "bricks too thin for the kernel");
            let part = part.unwrap();
            let rank = pick.0 % part.ranks();
            let brick = part.brick(rank);
            let (hx, hy, hz) = effective_halo(&clean.cfg, &clean.stencil, grid);
            let n = [dims.0, dims.1, dims.2];
            let target: [usize; 3] = std::array::from_fn(|a| {
                let (b0, len, h) = [
                    (brick.x0, brick.x_len, hx),
                    (brick.y0, brick.y_len, hy),
                    (brick.z0, brick.z_len, hz),
                ][a];
                let d = [pick.1, pick.2, pick.3][a] % (len + 2 * h + 2);
                (b0 + n[a] + d).checked_sub(h + 1).unwrap() % n[a]
            });
            let [x, y, z] = target;
            let flip = BitFlip { iteration: 0, x, y, z, bit: 51 };
            let spec = clean.with_shell_flip(rank, flip);
            let admitted = validate(&initial, &spec.stencil, &bounds, None, &spec.cfg);
            let mut spares = Vec::new();
            let traffic = HaloTraffic::default();
            let stepper = RankStepper::new(rank, &spec, &part, traffic, None, Ports::empty(), &mut spares);
            let ctx = format!("rank {rank} of {grid:?}, {bounds:?}, k = {k}, reach {reach}, target {target:?}");
            if brick.contains(x, y, z) {
                prop_assert!(admitted.is_err(), "{}", ctx);
                return Ok(());
            }
            match stepper.flips[..] {
                [f] => {
                    prop_assert!(admitted.is_ok(), "{}: resolved but rejected: {:?}", ctx, admitted);
                    prop_assert_eq!((f.iteration, f.bit), (0, 51));
                    let struck = stepper.sim.current().at(f.x, f.y, f.z);
                    prop_assert_eq!(struck.to_bits(), initial.at(x, y, z).to_bits(), "{}", ctx);
                }
                [] => prop_assert_eq!(
                    admitted,
                    Err(DistError::ShellFlipOutsideHalo { rank, x, y, z }),
                    "{}: admitted but never fires", ctx
                ),
                _ => prop_assert!(false, "{}: resolved twice", ctx),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(16))]

        /// The interleavings the threaded driver meets by chance,
        /// enumerated: any order of half-steps in which no channel
        /// operation would block, with one rank killed along the way,
        /// ends — after exactly one rollback — on the serial grid, bitwise.
        #[test]
        fn any_legal_interleaving_with_a_kill_matches_serial(
            slabs in any::<bool>(),
            k in 1usize..=2,
            periods in 1usize..=2,
            kill in (0usize..4, 0usize..ITERS),
            picks in proptest::collection::vec(0usize..64, 64),
        ) {
            let grid = if slabs { (1, 4) } else { (2, 2) };
            let spec = spec(grid, k, k * periods).with_rank_kill(RankKill::new(kill.0, kill.1));
            prop_assert_eq!(spec.cfg.mode, HaloMode::Pipelined);
            let mut h = Harness::new(&spec);
            for step in 0.. {
                let legal: Vec<usize> = (0..4).filter(|&r| h.legal(r)).collect();
                if let Some(&r) = legal.get((picks[step % 64] + step / 64) % legal.len().max(1)) {
                    h.advance(r);
                } else if h.exits.iter().all(|x| *x == Some(Ok(()))) {
                    break;
                } else {
                    prop_assert!(h.exits.iter().all(Option::is_some), "no rank can move");
                    h.roll_back()?;
                }
            }
            prop_assert_eq!(h.rollbacks, 1);
            prop_assert_eq!(h.job.recovery.rank_losses, 1);
            let report = h.job.finish(h.steppers, &mut h.cache, 0.0);
            prop_assert_eq!(report.global, serial(&spec));
        }

        /// A strike at rest: one brick cell of one rank's time-`t` grid
        /// is raised between that rank's completion of `t − 1` and its
        /// post of `t`, at an iteration that stores no snapshot. Sweeping
        /// the flagged layers again reads the same struck cell, so the
        /// rank reports them uncorrectable, and in any legal interleaving
        /// the job ends after exactly one rollback on the serial grid,
        /// bitwise.
        #[test]
        fn a_strike_at_rest_rolls_back_to_the_serial_grid(
            slabs in any::<bool>(),
            k in 1usize..=2,
            rank in 0usize..4,
            at in 1usize..ITERS,
            cell in (0usize..1000, 0usize..1000, 0usize..2),
            picks in proptest::collection::vec(0usize..64, 64),
        ) {
            let period = 2 * k;
            prop_assume!(!at.is_multiple_of(period));
            let grid = if slabs { (1, 4) } else { (2, 2) };
            let spec = spec(grid, k, period);
            let mut h = Harness::new(&spec);
            let mut struck = false;
            for step in 0.. {
                let legal: Vec<usize> = (0..4).filter(|&r| h.legal(r)).collect();
                if let Some(&r) = legal.get((picks[step % 64] + step / 64) % legal.len().max(1)) {
                    let s = &mut h.steppers[r];
                    if r == rank && s.t == at && !h.posted[r] && !struck {
                        let [x, y, z] = s.pad.lo;
                        let (bx, by) = (s.brick.x_len, s.brick.y_len);
                        let [x, y, z] = [x + cell.0 % bx, y + cell.1 % by, z + cell.2];
                        let v = s.sim.current().at(x, y, z);
                        s.sim.current_mut().set(x, y, z, v + 10.0);
                        struck = true;
                    }
                    h.advance(r);
                } else if h.exits.iter().all(|x| *x == Some(Ok(()))) {
                    break;
                } else {
                    prop_assert!(h.exits.iter().all(Option::is_some), "no rank can move");
                    h.roll_back()?;
                }
            }
            prop_assert!(struck);
            prop_assert_eq!(h.rollbacks, 1);
            prop_assert_eq!(h.job.recovery.rank_losses, 0);
            let report = h.job.finish(h.steppers, &mut h.cache, 0.0);
            prop_assert!(report.total_stats().uncorrectable >= 1);
            prop_assert_eq!(report.global, serial(&spec));
        }
    }
}
