//! In-memory checkpointing with rollback — the recovery substrate of the
//! offline ABFT scheme (paper §4.2: "we conduct experiments using the
//! standard checkpoint and recovery method") and of a distributed rank's
//! recovery from a lost peer.
//!
//! The paper checkpoints "the current state of the grid and of the
//! checksums" every Δ iterations as "a lightweight memory copy" (§5.4)
//! that each process takes of its own state. [`EpochRing`] holds exactly
//! that for one writer: its last few snapshots, each a domain grid, an
//! auxiliary float payload (the checksum vectors) and the iteration
//! number. The offline protector keeps a one-deep ring; each distributed
//! rank keeps its own ring, deep enough that every rank of a job still
//! shares an epoch with the others.

use std::collections::VecDeque;

use abft_grid::{copy_box, Grid3D};
use abft_num::Real;

/// When and how deep to checkpoint a protected run.
///
/// `period` is the paper's Δ: a snapshot is taken at the start of every
/// iteration `t` with `t % period == 0` (so always at `t = 0`). `keep`
/// bounds the [`EpochRing`] depth; `None` lets the consumer auto-size it —
/// the distributed scheduler derives the bound from the pipeline's maximum
/// rank skew so that all ranks always share at least one common epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint period Δ in iterations (≥ 1).
    pub period: usize,
    /// Ring depth: how many recent epochs to retain (`None` = auto).
    pub keep: Option<usize>,
}

impl CheckpointPolicy {
    /// Checkpoint every `period` iterations (auto-sized ring).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn every(period: usize) -> Self {
        assert!(period >= 1, "checkpoint period must be at least 1");
        Self { period, keep: None }
    }

    /// Pin the ring depth instead of auto-sizing it.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = Some(keep.max(1));
        self
    }

    /// True when a snapshot is due at the start of iteration `t`.
    pub fn due(&self, t: usize) -> bool {
        t.is_multiple_of(self.period)
    }
}

/// One saved state: the domain grid, an auxiliary payload (checksums) and
/// the iteration it was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot<T> {
    pub grid: Grid3D<T>,
    pub aux: Vec<T>,
    pub iteration: usize,
}

/// Counters describing checkpoint activity (reported by the experiment
/// harness alongside timings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots taken.
    pub stores: usize,
    /// Rollbacks served.
    pub restores: usize,
}

/// Bounded multi-epoch checkpoint ring.
///
/// The pipelined distributed runtime has no global barrier, so when a rank
/// dies its peers may have drifted a few iterations apart — each holding a
/// *different* most-recent snapshot. Rolling everyone back to one common
/// epoch therefore needs more than one snapshot per rank: the ring
/// retains the last `keep` epochs so that the scheduler can pick the
/// newest epoch present in **every** rank's ring. Epochs are strictly
/// increasing; storing the current latest epoch again overwrites it in
/// place (the resume path re-arms without duplicating).
///
/// A snapshot is the paper's "lightweight memory copy" only if taking it
/// does not allocate: the owner may [`EpochRing::seed`] the ring with
/// grids to store into, and [`EpochRing::into_grids`] hands every grid
/// back when the ring is done, for the next ring to be seeded with.
#[derive(Debug, Clone)]
pub struct EpochRing<T> {
    keep: usize,
    ring: VecDeque<Snapshot<T>>,
    /// Grids a new epoch stores into before one is allocated: the seeded
    /// ones, and those of epochs [`EpochRing::truncate_after`] dropped.
    spares: Vec<Grid3D<T>>,
    stats: CheckpointStats,
}

impl<T: Real> EpochRing<T> {
    /// Empty ring retaining at most `keep` epochs (`keep ≥ 1`).
    pub fn new(keep: usize) -> Self {
        Self {
            keep: keep.max(1),
            ring: VecDeque::new(),
            spares: Vec::new(),
            stats: CheckpointStats::default(),
        }
    }

    /// Ring depth bound.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Save a snapshot for epoch `iteration`, evicting the oldest epoch
    /// when the ring is full. Evicted allocations are reused when the
    /// incoming snapshot has matching dimensions. Re-storing the current
    /// latest epoch overwrites it in place.
    ///
    /// # Panics
    /// Panics if `iteration` is older than the latest stored epoch —
    /// epochs must arrive in increasing order.
    pub fn store(&mut self, grid: &Grid3D<T>, aux: &[T], iteration: usize) {
        let (nx, ny, nz) = grid.dims();
        self.store_box(grid, [0; 3], [nx, ny, nz], aux, iteration);
    }

    /// Hand the ring grids to store new epochs into before it allocates
    /// any. A grid whose dims differ from the stored box is replaced, not
    /// read; one that fits is overwritten whole before anything reads it,
    /// so no value crosses from the grid's last owner into a snapshot.
    pub fn seed(&mut self, grids: impl IntoIterator<Item = Grid3D<T>>) {
        self.spares.extend(grids);
    }

    /// Seeded (or truncated) grids no epoch has stored into yet.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }

    /// Every grid the ring holds, retained epochs and spares alike, for
    /// the owner to seed a later ring with.
    pub fn into_grids(self) -> impl Iterator<Item = Grid3D<T>> {
        self.ring.into_iter().map(|s| s.grid).chain(self.spares)
    }

    /// [`EpochRing::store`] of the `size` box of `grid` whose first cell
    /// is `from`: the snapshot holds the box alone, copied once. A new
    /// epoch takes the oldest epoch's grid when the ring is full, else a
    /// spare, and allocates only when it has neither.
    pub fn store_box(
        &mut self,
        grid: &Grid3D<T>,
        from: [usize; 3],
        size: [usize; 3],
        aux: &[T],
        iteration: usize,
    ) {
        let fill = |snap: &mut Snapshot<T>| {
            let [nx, ny, nz] = size;
            if snap.grid.dims() != (nx, ny, nz) {
                snap.grid = Grid3D::zeros(nx, ny, nz);
            }
            copy_box(grid, from, &mut snap.grid, [0; 3], size);
            snap.aux.clear();
            snap.aux.extend_from_slice(aux);
            snap.iteration = iteration;
        };
        if let Some(last) = self.ring.back_mut() {
            assert!(
                iteration >= last.iteration,
                "epoch {iteration} older than latest stored epoch {}",
                last.iteration
            );
            if last.iteration == iteration {
                fill(last);
                self.stats.stores += 1;
                return;
            }
        }
        let mut snap = if self.ring.len() == self.keep {
            self.ring.pop_front().expect("ring is non-empty")
        } else {
            let [nx, ny, nz] = size;
            let spare = self.spares.pop();
            Snapshot {
                grid: spare.unwrap_or_else(|| Grid3D::zeros(nx, ny, nz)),
                aux: Vec::with_capacity(aux.len()),
                iteration,
            }
        };
        fill(&mut snap);
        self.ring.push_back(snap);
        self.stats.stores += 1;
    }

    /// Newest stored epoch, if any.
    pub fn latest_epoch(&self) -> Option<usize> {
        self.ring.back().map(|s| s.iteration)
    }

    /// Stored epochs, oldest first.
    pub fn epochs(&self) -> Vec<usize> {
        self.ring.iter().map(|s| s.iteration).collect()
    }

    /// Borrow the snapshot for exactly `epoch`, if still retained.
    pub fn get(&self, epoch: usize) -> Option<&Snapshot<T>> {
        self.ring.iter().find(|s| s.iteration == epoch)
    }

    /// Serve a rollback to `epoch`: borrow the snapshot and count the
    /// restore. The snapshot stays in the ring (a replay may roll back to
    /// the same epoch again).
    ///
    /// # Panics
    /// Panics if `epoch` is not retained.
    pub fn restore(&mut self, epoch: usize) -> &Snapshot<T> {
        self.stats.restores += 1;
        self.ring
            .iter()
            .find(|s| s.iteration == epoch)
            .unwrap_or_else(|| panic!("rollback to epoch {epoch} but ring retains none such"))
    }

    /// Drop every retained epoch newer than `epoch`, making it the latest
    /// (a no-op when nothing newer is stored). Rollback must call this on
    /// rings that ran ahead of the rollback target: the replay re-reaches
    /// those epochs and re-stores them, which must arrive as fresh
    /// in-order stores rather than collide with the stale retained ones.
    /// The dropped grids become spares, so those re-stores allocate none.
    pub fn truncate_after(&mut self, epoch: usize) {
        while self.ring.back().is_some_and(|s| s.iteration > epoch) {
            let dropped = self.ring.pop_back().expect("ring is non-empty");
            self.spares.push(dropped.grid);
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Approximate heap footprint of all retained snapshots in bytes.
    pub fn bytes(&self) -> usize {
        self.ring
            .iter()
            .map(|s| s.grid.bytes() + s.aux.len() * std::mem::size_of::<T>())
            .sum()
    }

    /// Number of retained epochs.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no epoch is stored yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(v: f64) -> Grid3D<f64> {
        Grid3D::filled(4, 3, 2, v)
    }

    // The first five tests hold a one-deep ring to what the offline
    // protector needs of its single checkpoint slot.

    #[test]
    fn store_and_restore_roundtrip() {
        let mut cp = EpochRing::new(1);
        assert!(cp.is_empty());
        cp.store(&grid(1.5), &[10.0, 20.0], 7);
        assert!(!cp.is_empty());
        let s = cp.restore(7);
        assert_eq!(s.grid.at(0, 0, 0), 1.5);
        assert_eq!(s.aux, vec![10.0, 20.0]);
        assert_eq!(s.iteration, 7);
    }

    #[test]
    fn second_store_replaces_first() {
        let mut cp = EpochRing::new(1);
        cp.store(&grid(1.0), &[1.0], 1);
        cp.store(&grid(2.0), &[2.0], 2);
        assert_eq!(cp.len(), 1);
        let s = cp.get(2).unwrap();
        assert_eq!(s.grid.at(1, 1, 1), 2.0);
        assert_eq!(s.iteration, 2);
        assert_eq!(cp.stats().stores, 2);
    }

    #[test]
    fn stats_count_restores() {
        let mut cp = EpochRing::new(1);
        cp.store(&grid(1.0), &[], 0);
        let _ = cp.restore(0);
        let _ = cp.restore(0);
        assert_eq!(cp.stats().restores, 2);
    }

    #[test]
    fn bytes_accounting() {
        let mut cp = EpochRing::<f64>::new(1);
        assert_eq!(cp.bytes(), 0);
        cp.store(&grid(0.0), &[0.0; 10], 0);
        assert_eq!(cp.bytes(), 24 * 8 + 10 * 8);
    }

    #[test]
    #[should_panic]
    fn restore_without_store_panics() {
        let mut cp = EpochRing::<f64>::new(1);
        let _ = cp.restore(0);
    }

    #[test]
    fn policy_fires_on_multiples_of_the_period() {
        let p = CheckpointPolicy::every(4);
        assert!(p.due(0) && p.due(4) && p.due(8));
        assert!(!p.due(1) && !p.due(7));
        assert_eq!(p.keep, None);
        assert_eq!(p.with_keep(3).keep, Some(3));
    }

    #[test]
    #[should_panic]
    fn zero_period_is_rejected() {
        let _ = CheckpointPolicy::every(0);
    }

    #[test]
    fn ring_retains_the_last_keep_epochs() {
        // `keep = 1` is the offline protector's single slot: each store
        // replaces the last one.
        for keep in [3, 1] {
            let mut ring = EpochRing::new(keep);
            assert!(ring.is_empty());
            assert_eq!(ring.bytes(), 0);
            let mut grids = Vec::new();
            for (i, t) in [0usize, 4, 8, 12, 16].iter().enumerate() {
                ring.store(&grid(i as f64), &[i as f64], *t);
                grids.push(ring.get(*t).unwrap().grid.as_slice().as_ptr());
            }
            assert_eq!(ring.len(), keep);
            assert_eq!(ring.epochs(), [8, 12, 16][3 - keep..]);
            assert_eq!(ring.latest_epoch(), Some(16));
            assert!(ring.get(4).is_none());
            // Every retained epoch, not only the newest, holds its own store.
            for e in ring.epochs() {
                let s = ring.get(e).unwrap();
                let v = (e / 4) as f64;
                assert_eq!((s.grid.at(0, 0, 0), s.aux[0]), (v, v));
            }
            assert_eq!(ring.stats().stores, 5);
            // Each snapshot is its 4×3×2 grid and one aux value.
            assert_eq!(ring.bytes(), keep * (24 + 1) * 8);
            // A full ring stores a new epoch into the evicted one's grid.
            assert_eq!(grids[keep..], grids[..5 - keep]);
        }
    }

    #[test]
    fn ring_restore_is_bitwise_and_keeps_the_epoch() {
        let mut ring = EpochRing::new(2);
        let g = grid(1.25);
        ring.store(&g, &[7.0, 9.0], 6);
        let s = ring.restore(6);
        assert_eq!(s.grid, g);
        assert_eq!(s.aux, vec![7.0, 9.0]);
        // still there for a second rollback
        let s = ring.restore(6);
        assert_eq!(s.iteration, 6);
        assert_eq!(ring.stats().restores, 2);
    }

    #[test]
    fn ring_overwrites_the_latest_epoch_in_place() {
        let mut ring = EpochRing::new(2);
        ring.store(&grid(1.0), &[1.0], 0);
        ring.store(&grid(2.0), &[2.0], 0);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.get(0).unwrap().grid.at(0, 0, 0), 2.0);
    }

    #[test]
    fn ring_truncate_after_drops_newer_epochs_and_reopens_the_ring() {
        let mut ring = EpochRing::new(4);
        for t in [0usize, 2, 4, 6] {
            ring.store(&grid(t as f64), &[t as f64], t);
        }
        ring.truncate_after(2);
        assert_eq!(ring.epochs(), vec![0, 2]);
        assert_eq!(ring.latest_epoch(), Some(2));
        // The rollback target survives and the replay may re-store the
        // dropped epochs in order without tripping the ordering assert.
        assert_eq!(ring.restore(2).grid.at(0, 0, 0), 2.0);
        ring.store(&grid(40.0), &[40.0], 4);
        assert_eq!(ring.epochs(), vec![0, 2, 4]);
        assert_eq!(ring.get(4).unwrap().grid.at(0, 0, 0), 40.0);
        // Truncating past the newest epoch is a no-op.
        ring.truncate_after(9);
        assert_eq!(ring.epochs(), vec![0, 2, 4]);
    }

    #[test]
    fn ring_stores_into_seeded_grids_without_reading_them() {
        let bits = |g: &Grid3D<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let field = Grid3D::from_fn(6, 5, 4, |x, y, z| (x * 31 + y * 7 + z) as f64 * 0.25 - 3.0);
        let (from, size) = ([1, 1, 1], [4, 3, 2]);
        let mut boxed = Grid3D::zeros(4, 3, 2);
        copy_box(&field, from, &mut boxed, [0; 3], size);

        let mut ring = EpochRing::new(2);
        ring.seed((0..2).map(|_| Grid3D::filled(4, 3, 2, f64::NAN)));
        let mut seeded = Vec::new();
        for t in [0, 2] {
            ring.store_box(&field, from, size, &[1.0], t);
            let snap = ring.restore(t);
            assert_eq!(bits(&snap.grid), bits(&boxed), "epoch {t}");
            seeded.push(snap.grid.as_slice().as_ptr());
        }
        assert_eq!(ring.spares(), 0);
        assert_ne!(seeded[0], seeded[1]);

        // The replay's re-store lands in the grid the truncation dropped.
        ring.truncate_after(0);
        assert_eq!(ring.spares(), 1);
        let moved = Grid3D::from_fn(4, 3, 2, |x, y, z| (x + 10 * y + 100 * z) as f64);
        let mut field2 = Grid3D::filled(6, 5, 4, 9.0);
        copy_box(&moved, [0; 3], &mut field2, from, size);
        ring.store_box(&field2, from, size, &[2.0], 2);
        assert_eq!(ring.spares(), 0);
        let snap = ring.get(2).unwrap();
        assert_eq!(snap.grid.as_slice().as_ptr(), seeded[1]);
        assert_eq!(bits(&snap.grid), bits(&moved));
        let mut back: Vec<_> = ring.into_grids().map(|g| g.as_slice().as_ptr()).collect();
        back.sort();
        seeded.sort();
        assert_eq!(back, seeded);
    }

    #[test]
    #[should_panic]
    fn ring_rejects_out_of_order_epochs() {
        let mut ring = EpochRing::new(2);
        ring.store(&grid(1.0), &[], 8);
        ring.store(&grid(1.0), &[], 4);
    }

    #[test]
    #[should_panic(expected = "ring retains none such")]
    fn ring_rollback_to_evicted_epoch_panics() {
        let mut ring = EpochRing::new(1);
        ring.store(&grid(1.0), &[], 0);
        ring.store(&grid(1.0), &[], 4);
        let _ = ring.restore(0);
    }
}
