//! Channel topology for the persistent rank pipeline, factored into a
//! pool-scoped [`Topology`] value so a serving pool can reuse it across
//! jobs instead of rebuilding per run.
//!
//! Topology: for every (producer, consumer) rank pair where the consumer's
//! halo needs at least one cell owned by the producer, a dedicated bounded
//! channel carries one message per iteration — the values of all the
//! cells that producer owes that consumer, snapshotted at the producer's
//! current time. With an x×y×z brick grid this covers face strips
//! (x/y/z neighbours), edge strips (two shared axes — the 2-D grid's
//! corner patches are the xy-edges) *and* corner patches (xyz-diagonal
//! neighbours) through the same construction: the topology is derived
//! from needed-cell ownership, never from hard-coded ±1 neighbours, so
//! periodic wrap-around, halos wider than a brick (multi-rank-away
//! producers) and unbalanced bricks all fall out for free. The bound of
//! **2** is the double-buffering discipline: a producer may run at most
//! two iterations ahead of a consumer before its send blocks
//! (backpressure), which caps skew and memory without any global barrier.
//!
//! A rank plans only what its pad holds: a domain end that does not wrap
//! has no pad and an axis on one rank none at all, so no cell is folded
//! through a boundary onto a brick. Cells a rank owes *itself* exist only
//! where a deep periodic pad wraps onto its own brick; they never touch a
//! channel, the rank lands them in its own pad before sweeping.
//!
//! Messages carry no cell coordinates: both endpoints read the same cell
//! order off the consumer's halo plan — its boxes, self-owned first, then
//! producers ascending, each box z-major row-major. A port holds the
//! consumer's boxes its producer owns, the producer packs them line by
//! line out of its brick, and the message is just the flat values: the
//! consumer lands each box line in its pad with one slice copy.
//!
//! Progress argument (no deadlock): consider the rank at the minimum
//! iteration `t`. Every channel holds only messages for iterations `>=
//! t`, so its (capacity-2) sends cannot block — a full channel would mean
//! its consumer lags more than two iterations behind, contradicting
//! minimality — and its receives are satisfied because every producer at
//! iteration `>= t` posted its `t`-message before doing anything blocking.
//! Hence the minimum rank always advances.
//!
//! **Reusability across jobs**: a job sends exactly one message per
//! channel per iteration and receives exactly one, so after a job's
//! `iters` iterations complete cleanly every channel is drained — the
//! same [`Ports`] set can carry the next job unchanged. The
//! [`TopologyCache`] exploits this: topologies are keyed on everything
//! the channel wiring depends on — domain shape, rank grid, per-axis
//! halo depth (`steps_per_exchange` kernel reaches per decomposed axis)
//! and the global boundary spec (periodic wrap changes who owes whom) —
//! and only a job that *panicked* mid-flight poisons its entry (channels
//! may hold stale messages), so the scheduler discards that one entry and
//! rebuilds on next use.
//!
//! An entry also holds the column-interpolation plans of the protected
//! jobs that ran over it, one set per kernel tap-offset signature
//! ([`TopologyCache::col_plans`]): what a protector's Theorem 1 reads is
//! fixed by the topology and the offsets, so a repeat job's protectors
//! resolve nothing.

use crate::index::{HaloBox, HaloPlan};
use abft_core::ColPlan;
use abft_grid::{BoundarySpec, Grid3D};
use abft_num::Real;
use abft_stencil::Stencil3D;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Halo payload: the values of the owed cells, flat, in the order of the
/// consumer's boxes.
pub(crate) type HaloMsg<T> = Vec<T>;

/// Double-buffering depth of each halo channel: a producer can run at
/// most this many iterations ahead of a consumer before its send blocks.
pub(crate) const CHANNEL_DEPTH: usize = 2;

/// Entries the topology cache holds before evicting the oldest. Serving
/// streams rarely rotate through more than a handful of job shapes; the
/// cap only bounds memory for adversarial shape churn.
const CACHE_CAP: usize = 32;

/// A job's column-interpolation plans: per rank, one per window its
/// protector verifies ([`crate::col_plans`]).
pub(crate) type RankPlans<T> = Vec<Vec<Arc<ColPlan<T>>>>;

/// A topology's per-rank halo plans, in rank order.
pub(crate) type HaloPlans = Vec<Arc<HaloPlan>>;

/// A kernel's taps' `(di, dj, dk)`, in tap order.
type TapOffsets = Vec<[isize; 3]>;

/// One rank's endpoints in the pipeline.
pub(crate) struct Ports<T> {
    /// Outgoing halo channels, one per consumer this rank owes cells to,
    /// each with the consumer's boxes this rank owns.
    pub(crate) sends: Vec<(SyncSender<HaloMsg<T>>, Vec<HaloBox>)>,
    /// Incoming halo channels, one per producer in ascending rank order
    /// (matching the consumer's payload layout), each with the boxes of
    /// this rank's halo it lands; exactly one message per producer per
    /// exchange, in iteration order.
    pub(crate) recvs: Vec<(Receiver<HaloMsg<T>>, Vec<HaloBox>)>,
    /// The boxes this rank serves to itself: empty unless a deep periodic
    /// pad wraps onto its own brick.
    pub(crate) self_boxes: Vec<HaloBox>,
}

impl<T> Ports<T> {
    pub(crate) fn empty() -> Self {
        Self {
            sends: Vec::new(),
            recvs: Vec::new(),
            self_boxes: Vec::new(),
        }
    }
}

/// Everything the channel wiring of a topology depends on. Two jobs with
/// equal keys exchange exactly the same cells over exactly the same
/// channels, so they can share one [`Topology`].
///
/// The kernel reach and the epoch length enter through `halo`, the
/// per-axis depth `steps_per_exchange · stencil extent` on the axes that
/// exchange: a wider kernel or a longer epoch yields a different key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TopoKey<T> {
    /// Global domain dims `(nx, ny, nz)`.
    pub(crate) dims: (usize, usize, usize),
    /// Rank-grid shape `(rx, ry, rz)`.
    pub(crate) grid: (usize, usize, usize),
    /// Per-axis halo depth `(hx, hy, hz)`.
    pub(crate) halo: (usize, usize, usize),
    /// Global boundary spec (periodic wrap rewires the halo channels).
    pub(crate) bounds: BoundarySpec<T>,
}

/// A pool-scoped channel topology: the per-rank halo plans plus the
/// channel endpoints, reusable across every job that shares the key.
pub(crate) struct Topology<T> {
    pub(crate) key: TopoKey<T>,
    /// Per-rank halo plans (boxes and traffic volumes): what the ports
    /// are wired from, and each rank's traffic report.
    pub(crate) plans: HaloPlans,
    /// Idle channel-endpoint sets, built lazily on first use (by either
    /// driver: both run over channels). A *stack* rather than a
    /// single slot because the concurrent scheduler can run several
    /// same-key jobs side by side: each checks out its own set (building
    /// a fresh one when the stack is empty) and checks it back in after
    /// a clean run, so the stack depth converges to the key's observed
    /// concurrency — bounded by the pool size.
    idle_ports: Vec<Vec<Ports<T>>>,
    /// The interpolation plans of the protected jobs run over it, one set
    /// per tap-offset signature `(di, dj, dk)…`: on a `1 × R × 1` grid
    /// every reach-1 kernel shares one key, but not one plan.
    col_plans: Vec<(TapOffsets, Arc<RankPlans<T>>)>,
}

/// Wire up per-rank halo channels from the ranks' halo plans. Channels
/// are created in consumer-major, ascending-producer order — the same
/// deterministic order the plans list their boxes in — so two builds of
/// the same key are interchangeable.
fn build_ports<T: Real>(plans: &[Arc<HaloPlan>]) -> Vec<Ports<T>> {
    let mut ports: Vec<Ports<T>> = (0..plans.len()).map(|_| Ports::empty()).collect();
    for (c, plan) in plans.iter().enumerate() {
        for owed in plan.owed() {
            let p = owed[0].owner;
            if p == c {
                ports[c].self_boxes = owed.to_vec();
            } else {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                ports[p].sends.push((tx, owed.to_vec()));
                ports[c].recvs.push((rx, owed.to_vec()));
            }
        }
    }
    ports
}

/// The pool's topology store: a small keyed set of reusable topologies
/// with hit/miss accounting (surfaced through
/// [`crate::ServeStats`]), each with the interpolation plans of the
/// kernels protected over it ([`Self::col_plans`]), which leave with
/// their entry.
///
/// `BoundarySpec` is `PartialEq` but not `Hash` (it can carry a
/// `Boundary::Constant(T)` value), so lookup is a linear scan over at
/// most [`CACHE_CAP`] entries — negligible next to a single halo
/// exchange.
///
/// The cache also holds the pool's **spare snapshot grids**: a clean job
/// hands every checkpoint grid its ranks' rings held back at
/// [`crate::step::Job::finish`], and the next checkpointing
/// [`crate::step::Job::build`] seeds its rings with the ones that fit its
/// bricks and drops the rest. So the list holds only the snapshots of the
/// jobs that finished since the last checkpointing build; unprotected
/// jobs never touch it, and the failure path ([`Self::discard`]) drops
/// it.
///
/// The list is pool-wide, not kept per entry beside the ports, although
/// [`TopoKey`] fixes the bricks and per-entry lists would need no dims
/// match: an entry outlives its jobs, so per-entry lists would keep one
/// job's snapshots resident for every cached key, up to [`CACHE_CAP`]
/// keys' worth, where this list holds only what the last few jobs
/// stored. A repeating batch of distinct small jobs, such as the
/// benchmark's `served-mix` (32 keys, ≈ 6.6 MiB of snapshots in all),
/// would hold every job's snapshots between its runs: a prototype of
/// per-entry lists raised that workload's peak RSS from ≈ 16 to ≈ 21 MiB.
pub(crate) struct TopologyCache<T> {
    entries: Vec<Topology<T>>,
    spares: Vec<Grid3D<T>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl<T: Real> TopologyCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            entries: Vec::new(),
            spares: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn position(&self, key: &TopoKey<T>) -> Option<usize> {
        self.entries.iter().position(|e| e.key == *key)
    }

    /// Find the topology for `key` or build it from the per-rank halo
    /// plans `build` makes, counting the lookup as a hit or a miss, and
    /// return its plans.
    pub(crate) fn plans(
        &mut self,
        key: &TopoKey<T>,
        build: impl FnOnce() -> HaloPlans,
    ) -> HaloPlans {
        match self.position(key) {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        let i = self.entry(key, build);
        self.entries[i].plans.clone()
    }

    /// The index of `key`'s entry, built from `build`'s plans if it is
    /// missing; uncounted.
    fn entry(&mut self, key: &TopoKey<T>, build: impl FnOnce() -> HaloPlans) -> usize {
        if let Some(i) = self.position(key) {
            return i;
        }
        let plans = build();
        if self.entries.len() >= CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push(Topology {
            key: *key,
            plans,
            idle_ports: Vec::new(),
            col_plans: Vec::new(),
        });
        self.entries.len() - 1
    }

    /// The column-interpolation plans of a protected job over `key` with
    /// `stencil`'s tap offsets, built by `build` the first time the pair
    /// is seen. The key's entry must exist ([`Self::plans`] first).
    pub(crate) fn col_plans(
        &mut self,
        key: &TopoKey<T>,
        stencil: &Stencil3D<T>,
        build: impl FnOnce() -> RankPlans<T>,
    ) -> Arc<RankPlans<T>> {
        let i = self
            .position(key)
            .expect("interpolation plans looked up before the topology");
        let offsets = || stencil.taps().iter().map(|t| [t.di, t.dj, t.dk]);
        let sets = &mut self.entries[i].col_plans;
        if let Some((_, set)) = sets.iter().find(|(o, _)| o.iter().copied().eq(offsets())) {
            return set.clone();
        }
        let set = Arc::new(build());
        sets.push((offsets().collect(), set.clone()));
        set
    }

    /// Check a channel-endpoint set for `key` out for one job, popping an
    /// idle set or building a fresh one when every cached set is already
    /// carrying a concurrent same-key job. The entry is rebuilt, uncounted,
    /// should a concurrent job's panic have discarded it since the job's
    /// lookup. The caller must [`Self::check_in`] the set after a clean
    /// job, or [`Self::discard`] the entry after a panicked one.
    pub(crate) fn check_out(
        &mut self,
        key: &TopoKey<T>,
        build: impl FnOnce() -> HaloPlans,
    ) -> Vec<Ports<T>> {
        let i = self.entry(key, build);
        match self.entries[i].idle_ports.pop() {
            Some(ports) => ports,
            None => build_ports(&self.entries[i].plans),
        }
    }

    /// Return a drained channel-endpoint set for reuse by a later job. A
    /// no-op when the entry was evicted (or discarded after a concurrent
    /// same-key job panicked) while this job ran — the set is simply
    /// dropped and the next job rebuilds.
    pub(crate) fn check_in(&mut self, key: &TopoKey<T>, ports: Vec<Ports<T>>) {
        if let Some(i) = self.position(key) {
            self.entries[i].idle_ports.push(ports);
        }
    }

    /// Every spare snapshot grid, for a checkpointing build to seed its
    /// rings from; what it does not take it drops.
    pub(crate) fn take_spares(&mut self) -> Vec<Grid3D<T>> {
        std::mem::take(&mut self.spares)
    }

    /// Keep a finished job's snapshot grids for the next checkpointing
    /// build.
    pub(crate) fn recycle(&mut self, grids: impl IntoIterator<Item = Grid3D<T>>) {
        self.spares.extend(grids);
    }

    /// Drop the entry for `key` entirely, and the spares — used after a
    /// rank panic, when channels may hold stale mid-job messages.
    pub(crate) fn discard(&mut self, key: &TopoKey<T>) {
        if let Some(i) = self.position(key) {
            self.entries.remove(i);
        }
        self.spares.clear();
    }

    /// The spare snapshot grids (test introspection).
    #[cfg(test)]
    pub(crate) fn spares(&self) -> &[Grid3D<T>] {
        &self.spares
    }

    /// Number of cached topologies (test introspection).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of idle channel-endpoint sets `key`'s entry holds, if
    /// cached (test introspection).
    #[cfg(test)]
    pub(crate) fn idle_ports(&self, key: &TopoKey<T>) -> Option<usize> {
        self.position(key).map(|i| self.entries[i].idle_ports.len())
    }

    /// Number of interpolation plan sets `key`'s entry holds, if cached
    /// (test introspection).
    #[cfg(test)]
    pub(crate) fn plan_sets(&self, key: &TopoKey<T>) -> Option<usize> {
        self.position(key).map(|i| self.entries[i].col_plans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition3;
    use abft_grid::Boundary;

    fn key(bounds: BoundarySpec<f64>) -> (TopoKey<f64>, Partition3) {
        let part = Partition3::new(8, 12, 2, 1, 3, 1);
        let key = TopoKey {
            dims: (8, 12, 2),
            grid: (1, 3, 1),
            halo: (0, 1, 0),
            bounds,
        };
        (key, part)
    }

    /// The plans of `key`'s ranks, for a reach-1 kernel.
    fn plans<'a>(key: &'a TopoKey<f64>, part: &'a Partition3) -> impl FnOnce() -> HaloPlans + 'a {
        || HaloPlan::of_job(key, part, &Stencil3D::diffusion_7pt(0.1))
    }

    #[test]
    fn cache_hits_on_repeat_keys_and_misses_on_new_ones() {
        let mut cache: TopologyCache<f64> = TopologyCache::new();
        let (k, part) = key(BoundarySpec::clamp());
        let first = cache.plans(&k, plans(&k, &part));
        let again = cache.plans(&k, plans(&k, &part));
        assert_eq!((cache.hits, cache.misses, cache.len()), (1, 1, 1));
        // Same entry, shared by Arc — not a rebuild.
        assert!(Arc::ptr_eq(&first[0], &again[0]));
        // A different boundary spec rewires the halo → distinct entry.
        let (k2, part2) = key(BoundarySpec::uniform(Boundary::Periodic));
        cache.plans(&k2, plans(&k2, &part2));
        assert_eq!((cache.hits, cache.misses, cache.len()), (1, 2, 2));
    }

    /// One plan set per tap-offset signature under one key: a repeat
    /// kernel shape is a hit on its set, another shape with the same
    /// reach (same key) builds its own, and evicting the entry drops both.
    #[test]
    fn an_entry_holds_one_plan_set_per_offset_signature_until_evicted() {
        use abft_stencil::Stencil2D;
        let mut cache: TopologyCache<f64> = TopologyCache::new();
        let (k, part) = key(BoundarySpec::clamp());
        cache.plans(&k, plans(&k, &part));
        let cfg = crate::DistConfig::new(3, 1).with_grid(1, 3);
        let mut builds = 0;
        let mut set = |cache: &mut TopologyCache<f64>, stencil: &Stencil3D<f64>| {
            cache.col_plans(&k, stencil, || {
                builds += 1;
                crate::col_plans(k.dims, stencil, &k.bounds, &cfg, &part)
            })
        };
        let star = Stencil3D::diffusion_7pt(0.1);
        let conv = Stencil2D::convection_9pt(0.18, 0.08, -0.05).into_3d();
        let first = set(&mut cache, &star);
        let again = set(&mut cache, &star);
        let other = set(&mut cache, &conv);
        assert!(Arc::ptr_eq(&first, &again));
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!((builds, cache.plan_sets(&k)), (2, Some(2)));
        // One plan per rank and window, over the rank's brick.
        assert_eq!(first.len(), 3);
        assert_eq!(first[1][0].window().y, 1..5);
        let (star_set, conv_set) = (Arc::downgrade(&first), Arc::downgrade(&other));
        drop((first, again, other));
        for v in 0..CACHE_CAP {
            let (k2, part2) = key(BoundarySpec::uniform(Boundary::Constant(v as f64)));
            cache.plans(&k2, plans(&k2, &part2));
        }
        assert_eq!((cache.len(), cache.plan_sets(&k)), (CACHE_CAP, None));
        assert!(star_set.upgrade().is_none() && conv_set.upgrade().is_none());
    }

    #[test]
    fn ports_check_out_lazily_and_survive_round_trips() {
        let mut cache: TopologyCache<f64> = TopologyCache::new();
        let (k, part) = key(BoundarySpec::clamp());
        cache.plans(&k, plans(&k, &part));
        let ports = cache.check_out(&k, plans(&k, &part));
        assert_eq!(ports.len(), 3);
        // 3 y-slabs: the middle rank owes both neighbours, ends owe one.
        assert_eq!(ports[1].sends.len(), 2);
        assert_eq!(ports[1].recvs.len(), 2);
        // The middle 8×4×2 slab (rows 4..8) owes each neighbour one whole
        // row over both layers: one box, not a tuple per cell, landing in
        // the *consumer's* pad. The last slab's pad stops at the clamped
        // domain end: it serves itself nothing.
        let owed = |y: usize, to: usize| HaloBox {
            owner: 1,
            from: [0, y, 0],
            to: [0, to, 0],
            len: [8, 1, 2],
        };
        assert_eq!(ports[1].sends[0].1, [owed(4, 4)]);
        assert_eq!(ports[1].sends[1].1, [owed(7, 0)]);
        assert!(ports[2].self_boxes.is_empty());
        cache.check_in(&k, ports);
        // Discard drops the entry (post-panic hygiene).
        cache.discard(&k);
        assert_eq!(cache.len(), 0);
    }
}
