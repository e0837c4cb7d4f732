//! Halo planning: the boxes a rank's exchange moves — the one
//! representation every later stage reads, from the plan to the payload —
//! and how much traffic each halo channel carries.
//!
//! # Boxes
//!
//! A rank's halo is its pad ([`Pad`]): the cells of its padded grid
//! outside its brick, and nothing else. Along each axis the padded grid is
//! cut where the brick begins or ends, where the owning rank coordinate
//! changes and where a periodic axis wraps ([`Pad::cuts`]). Every product
//! of an x, a y and a z cut with at least one pad cut is one [`HaloBox`]:
//! a global `x × y × z` range of one owner's brick and the padded cell its
//! first cell lands on. So the shell's faces, edges and corners are boxes
//! of one construction, and a box exists only where a pad does: a domain
//! end that does not wrap has no pad (the grid's own boundary resolves
//! reads past it), nor has an axis on one rank, so no box folds a cell
//! through a boundary.
//!
//! [`HaloPlan`] is that short list — one box for a y-slab at a domain end,
//! two for an interior one, 26 for the centre brick of a 3×3×3 grid —
//! ordered self-owned first (a deep periodic pad that wraps onto the
//! rank's own brick), then by ascending owner, each box's cells z-major
//! row-major. The list *is* the payload layout: both endpoints of a
//! channel read it off the consumer's plan, the producer packs one slice
//! copy per `(y, z)` line of each box it owes, and the consumer lands each
//! such line in its pad with one slice copy ([`Pad::unpack`]). The
//! landed, self and remote cell counts are box volumes and the messages
//! per epoch the distinct remote owners.
//!
//! # Traffic accounting
//!
//! [`HaloPlan`] also records the per-channel halo volume
//! ([`HaloTraffic`]): cells per x-face/y-face/z-face channel, the xy-edge
//! ("corner patch" of the 2-D decomposition), xz/yz-edge and xyz-corner
//! channels, the cells landed, and the wire bytes per iteration.
//! [`crate::RankReport`] surfaces it per rank;
//! [`crate::DistReport::total_traffic`] aggregates it.

use crate::epoch::Pad;
use crate::pipeline::TopoKey;
use crate::Partition3;
use abft_num::Real;
use abft_stencil::Stencil3D;
use std::array::from_fn;
use std::sync::Arc;

/// One box of a rank's halo: the global cells `from + [0, len)` per axis,
/// all in rank `owner`'s brick, landing on the consumer's padded cells
/// `to + [0, len)`. Its cells travel z-major row-major, so every `(y, z)`
/// line is one contiguous run of the payload, of the owner's brick and of
/// the consumer's pad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HaloBox {
    /// The rank whose brick holds these cells.
    pub(crate) owner: usize,
    /// The global cell of the box's first cell.
    pub(crate) from: [usize; 3],
    /// The consumer's padded cell the box's first cell lands on.
    pub(crate) to: [usize; 3],
    /// Cells per axis.
    pub(crate) len: [usize; 3],
}

impl HaloBox {
    /// Number of cells (payload slots) in the box.
    pub(crate) fn volume(&self) -> usize {
        self.len.iter().product()
    }

    /// The box's `(y, z)` lines in payload order, as offsets from its
    /// first cell.
    pub(crate) fn lines(&self) -> impl Iterator<Item = (usize, usize)> {
        let [_, ly, lz] = self.len;
        (0..lz).flat_map(move |dz| (0..ly).map(move |dy| (dy, dz)))
    }
}

/// Per-channel halo volume of one rank, per iteration, in **cells**
/// (single `(x, y, z)` points; `cell_bytes` is the scalar width).
///
/// The channel counts are the volumes of the landed boxes per channel:
/// the products of the brick extents with the pad widths `|wx|`, `|wy|`,
/// `|wz|` (the padded cells on either side of the brick), so they match
/// the textbook halo-surface formulas (y-face `x_len·|wy|·z_len`, x-face
/// `|wx|·y_len·z_len`, z-face `x_len·y_len·|wz|`, edges and corners the
/// corresponding two- and three-width products). A domain end that does
/// not wrap and an axis on one rank have no pad, and count 0.
/// `unique_cells` counts every landed cell, split into `self_cells`
/// (served locally, never on the wire) and `remote_cells` (received from
/// other ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HaloTraffic {
    /// Cells in y-face channels (row strips from y-neighbours:
    /// `x_len·|wy|·z_len`), per iteration.
    pub row_cells: usize,
    /// Cells in x-face channels (column strips from x-neighbours:
    /// `|wx|·y_len·z_len`), per iteration.
    pub col_cells: usize,
    /// Cells in xy-edge channels (the 2-D decomposition's corner patches:
    /// `|wx|·|wy|·z_len`), per iteration.
    pub corner_cells: usize,
    /// Cells in z-face channels (`x_len·y_len·|wz|`), per iteration.
    /// Zero unless the z axis is decomposed.
    pub zface_cells: usize,
    /// Cells in xz- and yz-edge channels
    /// (`(|wx|·y_len + x_len·|wy|)·|wz|`), per iteration.
    pub zedge_cells: usize,
    /// Cells in xyz-corner channels (`|wx|·|wy|·|wz|`), per iteration.
    pub zcorner_cells: usize,
    /// Cells landed per exchange: every pad cell once.
    pub unique_cells: usize,
    /// Landed cells the rank serves to itself (a deep periodic pad that
    /// wraps onto its own brick; no wire).
    pub self_cells: usize,
    /// Unique cells received from other ranks (actual wire traffic).
    pub remote_cells: usize,
    /// Payload bytes per cell (`size_of::<T>()`).
    pub cell_bytes: usize,
    /// Inbound messages per exchange **epoch**: one per remote producer
    /// group. With `steps_per_exchange = k` an exchange serves `k`
    /// sweeps, so the per-iteration message rate is `epoch_messages / k`
    /// while the cell counts above grow with the deep shell — the
    /// bytes-up/messages-down trade the deep-halo experiment measures.
    pub epoch_messages: usize,
}

impl HaloTraffic {
    /// Bytes per iteration in y-face (row-strip) channels.
    pub fn row_bytes(&self) -> usize {
        self.row_cells * self.cell_bytes
    }

    /// Bytes per iteration in x-face (column-strip) channels.
    pub fn col_bytes(&self) -> usize {
        self.col_cells * self.cell_bytes
    }

    /// Bytes per iteration in xy-edge (corner-patch) channels.
    pub fn corner_bytes(&self) -> usize {
        self.corner_cells * self.cell_bytes
    }

    /// Bytes per iteration actually received over channels.
    pub fn wire_bytes(&self) -> usize {
        self.remote_cells * self.cell_bytes
    }

    /// Cells per iteration in the z-decomposition channels (z-faces,
    /// xz/yz-edges and xyz-corners). Zero for 2-D rank grids.
    pub fn z_cells(&self) -> usize {
        self.zface_cells + self.zedge_cells + self.zcorner_cells
    }

    /// Bytes per iteration in the z-decomposition channels.
    pub fn z_bytes(&self) -> usize {
        self.z_cells() * self.cell_bytes
    }

    /// Total channel-volume cells across all six channel kinds.
    pub fn channel_cells(&self) -> usize {
        self.row_cells + self.col_cells + self.corner_cells + self.z_cells()
    }

    /// Fraction of the channel volume carried by xy-edge (corner)
    /// patches.
    pub fn corner_share(&self) -> f64 {
        let total = self.channel_cells();
        if total > 0 {
            self.corner_cells as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Fraction of the channel volume carried by the z-decomposition
    /// channels (faces + edges + corners owed to z-neighbours).
    pub fn z_share(&self) -> f64 {
        let total = self.channel_cells();
        if total > 0 {
            self.z_cells() as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Field-wise sum (used to aggregate per-rank traffic into a run
    /// total). All records of one run share the same `cell_bytes`
    /// (asserted in debug builds when both sides carry one); the max is
    /// kept so merging into a zeroed accumulator works.
    pub fn merge(&mut self, other: &Self) {
        debug_assert!(
            self.cell_bytes == 0 || other.cell_bytes == 0 || self.cell_bytes == other.cell_bytes,
            "merging HaloTraffic records with different cell sizes ({} vs {})",
            self.cell_bytes,
            other.cell_bytes
        );
        self.row_cells += other.row_cells;
        self.col_cells += other.col_cells;
        self.corner_cells += other.corner_cells;
        self.zface_cells += other.zface_cells;
        self.zedge_cells += other.zedge_cells;
        self.zcorner_cells += other.zcorner_cells;
        self.unique_cells += other.unique_cells;
        self.self_cells += other.self_cells;
        self.remote_cells += other.remote_cells;
        self.cell_bytes = self.cell_bytes.max(other.cell_bytes);
        self.epoch_messages += other.epoch_messages;
    }
}

impl std::fmt::Display for HaloTraffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows {} cells/{} B · cols {} cells/{} B · corners {} cells/{} B \
             ({:.1}% corner share) · z-channels {} cells/{} B ({:.1}% z share) · \
             wire {} cells/{} B per iteration · {} msgs per epoch",
            self.row_cells,
            self.row_bytes(),
            self.col_cells,
            self.col_bytes(),
            self.corner_cells,
            self.corner_bytes(),
            100.0 * self.corner_share(),
            self.z_cells(),
            self.z_bytes(),
            100.0 * self.z_share(),
            self.remote_cells,
            self.wire_bytes(),
            self.epoch_messages,
        )
    }
}

/// Everything one rank needs to exchange halos: the boxes of its pad in
/// payload order, and the per-channel traffic volumes.
#[derive(Debug, Clone)]
pub(crate) struct HaloPlan {
    /// Self-owned first, then ascending owner.
    boxes: Vec<HaloBox>,
    /// Per-channel traffic volumes.
    pub(crate) traffic: HaloTraffic,
}

impl HaloPlan {
    /// Plan rank `me`'s exchange from its padded grid: cut each axis of
    /// `pad`, take the products with a pad cut as boxes and tally the
    /// per-channel volumes.
    pub(crate) fn new<T: Real>(pad: &Pad, me: usize, part: &Partition3) -> Self {
        let [xs, ys, zs] = from_fn(|a| pad.cuts(a, part.axes()[a]));
        let mut boxes = Vec::new();
        for sz in &zs {
            for sy in &ys {
                for sx in &xs {
                    if sx.brick && sy.brick && sz.brick {
                        continue;
                    }
                    boxes.push(HaloBox {
                        owner: (sz.owner * part.ry() + sy.owner) * part.rx() + sx.owner,
                        from: [sx.from, sy.from, sz.from],
                        to: [sx.to, sy.to, sz.to],
                        len: [sx.len, sy.len, sz.len],
                    });
                }
            }
        }
        // Stable, so an owner's boxes keep their padded (z, y, x) order.
        boxes.sort_by_key(|b| (b.owner != me, b.owner));
        let volume = |mine: bool| -> usize {
            let owned = boxes.iter().filter(|b| (b.owner == me) == mine);
            owned.map(HaloBox::volume).sum()
        };
        let mut producers: Vec<usize> = boxes.iter().map(|b| b.owner).collect();
        producers.dedup();
        let [lx, ly, lz] = pad.len;
        let [wx, wy, wz] = from_fn(|a| pad.dims[a] - pad.len[a]);
        let (self_cells, remote_cells) = (volume(true), volume(false));
        Self {
            traffic: HaloTraffic {
                row_cells: lx * wy * lz,
                col_cells: wx * ly * lz,
                corner_cells: wx * wy * lz,
                zface_cells: lx * ly * wz,
                zedge_cells: (wx * ly + lx * wy) * wz,
                zcorner_cells: wx * wy * wz,
                unique_cells: self_cells + remote_cells,
                self_cells,
                remote_cells,
                cell_bytes: std::mem::size_of::<T>(),
                epoch_messages: producers.iter().filter(|&&p| p != me).count(),
            },
            boxes,
        }
    }

    /// The plans of every rank of a job over `key`'s topology, in rank
    /// order, each from the rank's padded grid.
    pub(crate) fn of_job<T: Real>(
        key: &TopoKey<T>,
        part: &Partition3,
        stencil: &Stencil3D<T>,
    ) -> Vec<Arc<Self>> {
        let pad = |r| Pad::new(&part.brick(r), key.dims, &key.bounds, key.halo, stencil);
        let plan = |r| Arc::new(Self::new::<T>(&pad(r), r, part));
        (0..part.ranks()).map(plan).collect()
    }

    /// The boxes grouped by owner: one slice per producer, the rank's own
    /// first. A remote slice is exactly one message per exchange.
    pub(crate) fn owed(&self) -> impl Iterator<Item = &[HaloBox]> {
        self.boxes.chunk_by(|a, b| a.owner == b.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_distributed, Brick, DistConfig, HaloMode};
    use abft_grid::{Boundary, BoundarySpec, Grid3D};
    use abft_stencil::Stencil3D;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    type Cell = (usize, usize, usize);

    /// Rank `me`'s padded grid at halo depth `halo` (the kernel's reach
    /// only shapes the sweep windows, which planning never reads).
    fn pad_for(
        part: &Partition3,
        me: usize,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<f64>,
    ) -> Pad {
        let stencil = Stencil3D::diffusion_27pt(0.02);
        Pad::new(&part.brick(me), dims, bounds, halo, &stencil)
    }

    fn plan_for(
        part: &Partition3,
        me: usize,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<f64>,
    ) -> HaloPlan {
        HaloPlan::new::<f64>(&pad_for(part, me, halo, dims, bounds), me, part)
    }

    /// Every cell of the plan in payload order: its box's owner, the
    /// global cell it is read from and the padded cell it lands on.
    fn payload(plan: &HaloPlan) -> Vec<(usize, Cell, Cell)> {
        let mut cells = Vec::new();
        for b in &plan.boxes {
            for (dy, dz) in b.lines() {
                for dx in 0..b.len[0] {
                    let at = |c: [usize; 3]| (c[0] + dx, c[1] + dy, c[2] + dz);
                    cells.push((b.owner, at(b.from), at(b.to)));
                }
            }
        }
        cells
    }

    /// The global cells the plan reads.
    fn planned_cells(
        part: &Partition3,
        rank: usize,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<f64>,
    ) -> BTreeSet<Cell> {
        let plan = plan_for(part, rank, halo, dims, bounds);
        payload(&plan).into_iter().map(|(_, g, _)| g).collect()
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

    fn in_brick(brick: &Brick, (x, y, z): Cell) -> bool {
        brick.contains(x, y, z)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(24))]

        /// The boxes are the pad, cell by cell: over the rank grids,
        /// boundary mixes and shell depths the substrate runs, every
        /// padded cell outside the brick is in exactly one box, at one
        /// payload slot, read from the global cell it stands for in the
        /// brick of the rank that owns that cell; no box lands in the
        /// brick; every box line is one run of its owner's brick; and the
        /// owners come self first, then ascending, one message each.
        #[test]
        fn boxes_equal_cell_lists(
            grid in prop_oneof![
                Just((1usize, 2usize, 1usize)),
                Just((2, 2, 1)),
                Just((2, 2, 2)),
                Just((1, 4, 1)),
                Just((3, 3, 3)),
            ],
            kinds in (0usize..5, 0usize..5, 0usize..5),
            k in 1usize..=2,
            reach in 1usize..=2,
            dims in (8usize..=13, 9usize..=14, 4usize..=6),
        ) {
            let (rx, ry, rz) = grid;
            let (nx, ny, nz) = dims;
            let bounds = BoundarySpec {
                x: boundary(kinds.0),
                y: boundary(kinds.1),
                z: boundary(kinds.2),
            };
            let part = Partition3::new(nx, ny, nz, rx, ry, rz);
            // An axis exchanges only when it is split, and admission
            // keeps a shell narrower than its axis.
            let depth = |ranks: usize, n: usize| if ranks > 1 { (k * reach).min(n - 1) } else { 0 };
            let halo = (depth(rx, nx), depth(ry, ny), depth(rz, nz));
            for me in 0..part.ranks() {
                let pad = pad_for(&part, me, halo, dims, &bounds);
                let plan = HaloPlan::new::<f64>(&pad, me, &part);
                // The oracle, from the pad alone: padded cell → the global
                // cell it stands for and that cell's owner.
                let [px, py, pz] = pad.dims;
                let brick = |(x, y, z): Cell| {
                    let inside = |a: usize, p: usize| (pad.lo[a]..pad.lo[a] + pad.len[a]).contains(&p);
                    inside(0, x) && inside(1, y) && inside(2, z)
                };
                let mut oracle = BTreeMap::new();
                for z in 0..pz {
                    for y in 0..py {
                        for x in 0..px {
                            if !brick((x, y, z)) {
                                let g = (pad.global(0, x), pad.global(1, y), pad.global(2, z));
                                oracle.insert((x, y, z), (g, part.owner(g.0, g.1, g.2).0));
                            }
                        }
                    }
                }
                let cells = payload(&plan);
                prop_assert_eq!(cells.len(), oracle.len(), "rank {}: a pad cell twice or missing", me);
                prop_assert_eq!(plan.traffic.unique_cells, oracle.len());
                let mut landed = BTreeSet::new();
                for (slot, (owner, g, p)) in cells.into_iter().enumerate() {
                    prop_assert!(landed.insert(p), "rank {}: slot {} lands on {:?} twice", me, slot, p);
                    prop_assert_eq!(oracle.get(&p), Some(&(g, owner)), "rank {}: slot {}", me, slot);
                    prop_assert!(in_brick(&part.brick(owner), g));
                }
                // Producer by producer, in message order.
                let owners: Vec<usize> = plan.owed().map(|boxes| boxes[0].owner).collect();
                let remote: Vec<usize> = owners.iter().copied().filter(|&o| o != me).collect();
                prop_assert!(remote.windows(2).all(|w| w[0] < w[1]), "rank {}: {:?}", me, owners);
                prop_assert_eq!(owners.len() - remote.len(), usize::from(owners.first() == Some(&me)));
                prop_assert_eq!(plan.traffic.epoch_messages, remote.len());
            }
        }
    }

    #[test]
    fn slab_halo_rows_are_one_run_per_line() {
        // Interior slab of a 1×3×1 split over 6×12×2: two full-width halo
        // rows on two z-layers — one box per neighbour, each of its
        // (y, z) lines one contiguous run of the neighbour's brick and of
        // the pad.
        let part = Partition3::new(6, 12, 2, 1, 3, 1);
        let plan = plan_for(&part, 1, (0, 1, 0), (6, 12, 2), &BoundarySpec::clamp());
        assert_eq!(plan.traffic.unique_cells, 6 * 2 * 2);
        let boxes: Vec<_> = plan
            .boxes
            .iter()
            .map(|b| (b.owner, b.from, b.to, b.len))
            .collect();
        assert_eq!(
            boxes,
            [
                (0, [0, 3, 0], [0, 0, 0], [6, 1, 2]),
                (2, [0, 8, 0], [0, 5, 0], [6, 1, 2])
            ],
            "one box per halo row"
        );
    }

    #[test]
    fn interior_tile_ring_runs_follow_the_producer_groups() {
        // Interior tile of a 3×3×1 grid over 9×9, halo 1: the ring has 16
        // cells from 8 producers. A box never spans producers, so the ring
        // is 8 boxes: one cell per corner patch (4), a 3-cell row per row
        // strip (2) and a 3-cell column per column strip (2).
        let part = Partition3::new(9, 9, 1, 3, 3, 1);
        let plan = plan_for(&part, 4, (1, 1, 0), (9, 9, 1), &BoundarySpec::clamp());
        assert_eq!(plan.traffic.unique_cells, 16);
        let owners: Vec<usize> = plan.boxes.iter().map(|b| b.owner).collect();
        assert_eq!(owners, [0, 1, 2, 3, 5, 6, 7, 8]);
        let shapes: Vec<_> = plan.boxes.iter().map(|b| (b.len[0], b.len[1])).collect();
        assert_eq!(
            shapes,
            [
                (1, 1),
                (3, 1),
                (1, 1),
                (1, 3),
                (1, 3),
                (1, 1),
                (3, 1),
                (1, 1)
            ]
        );
        let cells = planned_cells(&part, 4, (1, 1, 0), (9, 9, 1), &BoundarySpec::clamp());
        for corner in [(2, 2), (6, 2), (2, 6), (6, 6)] {
            assert!(cells.contains(&(corner.0, corner.1, 0)));
        }
        assert!(!cells.contains(&(4, 4, 0)), "brick interior not planned");
    }

    #[test]
    fn z_shell_cells_cover_faces_edges_and_corners() {
        // Interior brick of a 3×3×3 grid over 9×9×9, halo 1: the shell is
        // the full 5×5×5 box minus the 3×3×3 brick = 98 cells.
        let part = Partition3::new(9, 9, 9, 3, 3, 3);
        let (halo, dims, bounds) = ((1, 1, 1), (9, 9, 9), BoundarySpec::clamp());
        let plan = plan_for(&part, 13, halo, dims, &bounds); // grid position (1, 1, 1)
        let t = plan.traffic;
        assert_eq!(t.unique_cells, 5 * 5 * 5 - 3 * 3 * 3);
        assert_eq!(t.row_cells, 3 * 2 * 3);
        assert_eq!(t.col_cells, 2 * 3 * 3);
        assert_eq!(t.corner_cells, 2 * 2 * 3);
        assert_eq!(t.zface_cells, 3 * 3 * 2);
        assert_eq!(t.zedge_cells, (2 * 3 + 3 * 2) * 2);
        assert_eq!(t.zcorner_cells, 2 * 2 * 2);
        // z-face, z-edge and z-corner cells are all planned.
        let cells = planned_cells(&part, 13, halo, dims, &bounds);
        for cell in [(4, 4, 2), (2, 4, 2), (2, 2, 2), (4, 4, 6), (6, 6, 6)] {
            assert!(cells.contains(&cell), "missing shell cell {cell:?}");
        }
        assert!(!cells.contains(&(4, 4, 4)), "brick interior excluded");
        // 26 producers: every face/edge/corner neighbour of the centre.
        assert_eq!(plan.owed().count(), 26);
        assert_eq!(t.epoch_messages, 26);
    }

    #[test]
    fn centre_brick_of_3x3x3_plans_one_box_per_producer() {
        let part = Partition3::new(9, 9, 9, 3, 3, 3);
        let plan = plan_for(&part, 13, (1, 1, 1), (9, 9, 9), &BoundarySpec::clamp());
        assert_eq!(plan.boxes.len(), 26);
        let owners: Vec<usize> = plan.boxes.iter().map(|b| b.owner).collect();
        let expect: Vec<usize> = (0..27).filter(|&r| r != 13).collect();
        assert_eq!(owners, expect);
    }

    #[test]
    fn dist_halo_shape_plans_one_box_per_rank() {
        // The benchmark's `dist-halo` job: 512×16×8 over 1×2 ranks, clamp,
        // halo (0, 1, 0). Each rank's pad is one row of its neighbour, on
        // the side away from the domain end: 4 096 cells, one box.
        let part = Partition3::new(512, 16, 8, 1, 2, 1);
        for me in 0..2 {
            let plan = plan_for(&part, me, (0, 1, 0), (512, 16, 8), &BoundarySpec::clamp());
            let boxes: Vec<_> = plan
                .boxes
                .iter()
                .map(|b| (b.owner, b.from, b.to, b.len))
                .collect();
            let (their_row, pad_row) = [(8, 8), (7, 0)][me];
            assert_eq!(
                boxes,
                [(1 - me, [0, their_row, 0], [0, pad_row, 0], [512, 1, 8])]
            );
            assert_eq!(plan.traffic.unique_cells, 4096);
            assert_eq!(plan.traffic.epoch_messages, 1);
        }
    }

    #[test]
    fn slots_enumerate_payload_order() {
        // The payload is the boxes laid end to end, line by line: its
        // slots land on every pad cell of the brick's padded grid once.
        let part = Partition3::new(10, 10, 4, 2, 2, 2);
        let pad = pad_for(&part, 7, (1, 1, 1), (10, 10, 4), &BoundarySpec::periodic());
        let plan = HaloPlan::new::<f64>(&pad, 7, &part);
        let landed: Vec<Cell> = payload(&plan).into_iter().map(|(_, _, p)| p).collect();
        let distinct: BTreeSet<Cell> = landed.iter().copied().collect();
        let [px, py, pz] = pad.dims;
        assert_eq!(landed.len(), distinct.len(), "a slot lands twice");
        assert_eq!(distinct.len(), px * py * pz - 5 * 5 * 2);
        assert_eq!(landed.len(), plan.traffic.unique_cells);
    }

    #[test]
    fn traffic_volumes_match_window_products() {
        // Interior tile of a 3×3×1 grid over 9×9×2, halo 1 under clamp:
        // both x/y pads have 2 cells, tile is 3×3 over 2 layers.
        let part = Partition3::new(9, 9, 2, 3, 3, 1);
        let plan = plan_for(&part, 4, (1, 1, 0), (9, 9, 2), &BoundarySpec::clamp());
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2 * 2);
        assert_eq!(t.col_cells, 2 * 3 * 2);
        assert_eq!(t.corner_cells, 2 * 2 * 2);
        assert_eq!(t.zface_cells, 0, "undecomposed z has no z-channels");
        assert_eq!(t.zedge_cells, 0);
        assert_eq!(t.zcorner_cells, 0);
        assert_eq!(t.unique_cells, 16 * 2);
        assert_eq!(t.self_cells, 0, "interior tile serves itself nothing");
        assert_eq!(t.remote_cells, 16 * 2);
        assert_eq!(t.cell_bytes, std::mem::size_of::<f64>());
        assert_eq!(t.wire_bytes(), 32 * 8);
        assert!((t.corner_share() - 8.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.z_share(), 0.0);

        // Domain-corner tile under clamp: the pad stops at both domain
        // ends, so each pad has 1 cell and nothing is self-served.
        let plan = plan_for(&part, 0, (1, 1, 0), (9, 9, 2), &BoundarySpec::clamp());
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2);
        assert_eq!(t.col_cells, 3 * 2);
        assert_eq!(t.corner_cells, 2);
        assert_eq!(t.self_cells, 0, "a clamp end has no pad to fold into");
        assert_eq!(t.unique_cells, t.self_cells + t.remote_cells);
    }

    #[test]
    fn traffic_merge_and_display() {
        let mut a = HaloTraffic {
            row_cells: 4,
            col_cells: 2,
            corner_cells: 1,
            zface_cells: 3,
            zedge_cells: 2,
            zcorner_cells: 1,
            unique_cells: 13,
            self_cells: 1,
            remote_cells: 12,
            cell_bytes: 8,
            epoch_messages: 3,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.row_cells, 8);
        assert_eq!(a.remote_cells, 24);
        assert_eq!(a.cell_bytes, 8);
        assert_eq!(a.z_cells(), 12);
        assert_eq!(a.channel_cells(), 26);
        assert_eq!(a.epoch_messages, 6);
        let s = a.to_string();
        assert!(s.contains("rows 8 cells"), "{s}");
        assert!(s.contains("corner share"), "{s}");
        assert!(s.contains("z share"), "{s}");
        assert!(s.contains("msgs per epoch"), "{s}");
    }

    #[test]
    fn empty_halo_is_safe() {
        // A single rank has no pad on any axis: nothing to exchange.
        let part = Partition3::new(5, 5, 1, 1, 1, 1);
        let plan = plan_for(&part, 0, (0, 0, 0), (5, 5, 1), &BoundarySpec::zero());
        assert!(plan.boxes.is_empty());
        assert_eq!(plan.owed().count(), 0);
        assert_eq!(plan.traffic.unique_cells, 0);
        assert_eq!(plan.traffic.corner_share(), 0.0);
    }

    #[test]
    fn needed_cells_slab_tile_are_full_rows() {
        let by = BoundarySpec::<f64>::clamp();
        // Interior slab of a 1×3×1 split over 6×12×1: needs global rows 3
        // and 8 across the full width, no columns or layers.
        let part = Partition3::new(6, 12, 1, 1, 3, 1);
        let cells = planned_cells(&part, 1, (0, 1, 0), (6, 12, 1), &by);
        let expect: BTreeSet<Cell> = (0..6).flat_map(|x| [(x, 3, 0), (x, 8, 0)]).collect();
        assert_eq!(cells, expect);
        // Top slab: its pad stops at the clamped domain end, so it needs
        // its neighbour's row 4 alone.
        let cells = planned_cells(&part, 0, (0, 1, 0), (6, 12, 1), &by);
        let expect: BTreeSet<Cell> = (0..6).map(|x| (x, 4, 0)).collect();
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

        // Domain-corner tile under clamp: the grid's own boundary resolves
        // out-of-domain reads, so none of its own cells is planned.
        let cells = planned_cells(&part, 0, (1, 1, 0), (9, 9, 1), &by);
        assert!(!cells.contains(&(0, 0, 0)), "no clamp fold onto own corner");
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
        // A periodic 1×2 split of 4×6×2 at halo depth 4: rank 0's pad
        // (rows 2..6 below its brick 0..3, rows 3..6 and 0 above) wraps
        // onto its own rows 2 and 0, so its plan has a self group — which
        // must come first.
        let part = Partition3::new(4, 6, 2, 1, 2, 1);
        let bounds = BoundarySpec::<f64>::periodic();
        let plan = plan_for(&part, 0, (0, 4, 0), (4, 6, 2), &bounds);
        assert_eq!(plan.boxes[0].owner, 0, "self boxes must come first");
        let owners: Vec<usize> = plan.boxes.iter().map(|b| b.owner).collect();
        assert_eq!(owners, [0, 0, 1, 1], "self, then producers ascending");
        assert_eq!(plan.traffic.self_cells, 2 * 4 * 2);
        // The payload is the boxes laid end to end, each z-major
        // row-major so every line of a box is one run of slots.
        let cells = payload(&plan);
        assert_eq!(cells.len(), plan.traffic.unique_cells);
        for b in &plan.boxes {
            let lines: Vec<_> = b.lines().map(|(dy, dz)| (dz, dy)).collect();
            assert!(
                lines.windows(2).all(|w| w[0] < w[1]),
                "a box must enumerate z-major row-major"
            );
        }
    }

    #[test]
    fn traffic_is_reported_per_channel_and_in_totals() {
        let initial = Grid3D::from_fn(12, 12, 2, |x, y, z| {
            ((x * 13 + y * 31 + z * 7) % 23) as f64 * 0.75 - 4.0
        });
        let stencil = Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1);
        let clamp = BoundarySpec::clamp();
        let cfg = DistConfig::<f64>::new(4, 3).with_grid(2, 2);
        let rep = run_distributed(&initial, &stencil, &clamp, None, &cfg).unwrap();
        // 2×2 over 12×12×2, halo 1 under clamp: per tile both pads have 1
        // (neighbour) cell — none at the domain end — over 2 layers.
        for r in &rep.ranks {
            assert_eq!(r.traffic.row_cells, 6 * 2, "rank {}", r.rank);
            assert_eq!(r.traffic.col_cells, 6 * 2, "rank {}", r.rank);
            assert_eq!(r.traffic.corner_cells, 2, "rank {}", r.rank);
            assert_eq!(r.traffic.z_cells(), 0, "undecomposed z has no z-channels");
            assert_eq!(r.traffic.cell_bytes, std::mem::size_of::<f64>());
            assert_eq!(
                r.traffic.unique_cells,
                r.traffic.self_cells + r.traffic.remote_cells
            );
        }
        let total = rep.total_traffic();
        assert_eq!(total.row_cells, 4 * 6 * 2);
        assert_eq!(total.corner_cells, 8);
        // The Display summary carries the traffic line.
        let text = rep.to_string();
        assert!(text.contains("halo traffic"), "{text}");
        assert!(text.contains("corner share"), "{text}");

        // The lock-step driver moves the same wire bytes as the threaded
        // one, and both match the plan.
        let snap = cfg.with_mode(HaloMode::Snapshot);
        let snap = run_distributed(&initial, &stencil, &clamp, None, &snap).unwrap();
        for (p, s) in rep.ranks.iter().zip(&snap.ranks) {
            assert_eq!(p.timing.halo_bytes_sent, s.timing.halo_bytes_sent);
            assert_eq!(p.timing.halo_bytes_recv, s.timing.halo_bytes_recv);
            assert_eq!(
                s.timing.halo_bytes_recv,
                (s.traffic.remote_cells * s.traffic.cell_bytes * 3) as u64
            );
        }
    }
}
