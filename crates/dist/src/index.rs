//! Halo planning: which cells a rank needs, as **boxes** — the one
//! representation every later stage reads, from the plan to the payload —
//! and how much traffic each halo channel carries.
//!
//! # Boxes
//!
//! A rank's halo is the full 3-D shell around its brick: x/y/z **faces**,
//! the **edges** where two axis windows meet and the **corners** where all
//! three do — a product of three per-axis windows, so it is planned per
//! axis. Along each axis, `brick ∪ window` (the window being what the
//! `halo` out-of-brick coordinates on either side resolve to through the
//! global boundary) is cut into maximal intervals of constant owning rank
//! coordinate and window membership. Every combination of an x, a y and a
//! z interval with at least one window interval is one [`HaloBox`]: a
//! global `x × y × z` range with a single owner.
//!
//! [`HaloPlan`] is that short, disjoint list — two boxes for an interior
//! y-slab, 26 for the centre brick of a 3×3×3 grid — ordered self-owned
//! first (boundary folds and periodic wraps the rank serves to itself),
//! then by ascending owner, each box's cells z-major row-major from its
//! `base`. The list *is* the payload layout, both endpoints of a channel
//! derive it independently, and everything else is read off it: a
//! producer packs one slice copy per `(y, z)` line of each box it owes,
//! and the consumer lands each such line in its padded grid with one
//! slice copy (`crate::epoch`); a cell lookup (`HaloPlan::slot`, which
//! admission uses) is per-axis containment plus an offset — the plan
//! keeps the per-axis intervals and which box each triple of them is, so
//! a lookup is three short scans, not a pass over the boxes; the unique /
//! self / remote cell counts are box volumes and the messages per epoch
//! the distinct remote owners.
//!
//! # Traffic accounting
//!
//! [`HaloPlan`] also records the analytic per-channel halo volume
//! ([`HaloTraffic`]): cells per x-face/y-face/z-face channel, the xy-edge
//! ("corner patch" of the 2-D decomposition), xz/yz-edge and xyz-corner
//! channels, the unique cells actually exchanged after boundary
//! folding/deduplication, and the wire bytes per iteration.
//! [`crate::RankReport`] surfaces it per rank;
//! [`crate::DistReport::total_traffic`] aggregates it.

use crate::partition::axis_owner;
use crate::{Brick, Partition3};
use abft_grid::{AxisHit, Boundary, BoundarySpec};
use abft_num::Real;
use std::collections::BTreeSet;
use std::ops::Range;

/// One box of a rank's halo: the global cells `x × y × z`, all owned by
/// rank `owner`, occupying payload slots `base .. base + volume()` in
/// z-major row-major order (so every `(y, z)` line of the box is one
/// contiguous run of slots, and of the owner's brick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloBox {
    /// The rank whose brick holds these cells (the consumer itself for a
    /// boundary fold).
    pub owner: usize,
    /// Global `x` range.
    pub x: Range<usize>,
    /// Global `y` range.
    pub y: Range<usize>,
    /// Global `z` range.
    pub z: Range<usize>,
    /// Payload slot of the box's first cell.
    pub base: usize,
}

impl HaloBox {
    /// Number of cells (payload slots) in the box.
    pub fn volume(&self) -> usize {
        self.x.len() * self.y.len() * self.z.len()
    }

    /// The box's cells in payload order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.z.clone().flat_map(move |z| {
            self.y
                .clone()
                .flat_map(move |y| self.x.clone().map(move |x| (x, y, z)))
        })
    }
}

/// Analytic per-channel halo volume of one rank, per iteration, in
/// **cells** (single `(x, y, z)` points; `cell_bytes` is the scalar
/// width).
///
/// The channel counts are the *channel volumes* — the products of the
/// brick extents with the resolved out-of-brick windows — so they match
/// the textbook halo-surface formulas (y-face ≈ `x_len·|wy|·z_len`,
/// x-face ≈ `|wx|·y_len·z_len`, z-face ≈ `x_len·y_len·|wz|`, edges and
/// corners the corresponding two- and three-window products). Under
/// clamp/reflect the windows fold onto in-domain cells, so a cell can
/// appear in more than one channel and even inside the rank's own brick;
/// `unique_cells` counts the deduplicated exchange set, split into
/// `self_cells` (served locally, never on the wire) and `remote_cells`
/// (received from other ranks).
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
    /// Unique cells in the exchange set after folding/deduplication.
    pub unique_cells: usize,
    /// Unique cells the rank serves to itself (boundary folds; no wire).
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

/// Everything one rank needs to exchange halos: the boxes of its halo
/// shell in payload order, and the per-channel traffic volumes.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// Disjoint boxes, self-owned first, then ascending owner; `base`
    /// runs on from box to box.
    boxes: Vec<HaloBox>,
    /// The x, y and z intervals the boxes are products of, each ascending.
    segments: [Vec<Range<usize>>; 3],
    /// Per `(z, y, x)` triple of `segments`, its box's index in `boxes`;
    /// `None` where no axis is a window (brick cells: not halo).
    box_of: Vec<Option<usize>>,
    /// Analytic per-channel traffic volumes.
    pub traffic: HaloTraffic,
}

/// A maximal interval of `brick ∪ window` along one axis on which the
/// owning rank coordinate and window membership are both constant.
struct Segment {
    range: Range<usize>,
    owner: usize,
    window: bool,
}

impl HaloPlan {
    /// Plan rank `me`'s halo: cut each axis into segments through the
    /// global boundaries, take their product as boxes and tally the
    /// per-channel volumes. `halo = (hx, hy, hz)` is the per-axis halo
    /// depth (0 disables the axis) and `dims` the global domain.
    pub fn new<T: Real>(
        brick: &Brick,
        me: usize,
        part: &Partition3,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
    ) -> Self {
        let [cols, rows, layers] = part.axes();
        let xs = axis_segments(brick.x0, brick.x_len, halo.0, dims.0, &bounds.x, cols);
        let ys = axis_segments(brick.y0, brick.y_len, halo.1, dims.1, &bounds.y, rows);
        let zs = axis_segments(brick.z0, brick.z_len, halo.2, dims.2, &bounds.z, layers);
        // The shell is every combination with at least one window axis:
        // faces, edges and corners, so diagonal taps and the checksum
        // interpolation's cross-axis terms need no extra message kind.
        let mut boxes = Vec::new();
        for (iz, sz) in zs.iter().enumerate() {
            for (iy, sy) in ys.iter().enumerate() {
                for (ix, sx) in xs.iter().enumerate() {
                    if sx.window || sy.window || sz.window {
                        let triple = (iz * ys.len() + iy) * xs.len() + ix;
                        let halo_box = HaloBox {
                            owner: (sz.owner * part.ry() + sy.owner) * part.rx() + sx.owner,
                            x: sx.range.clone(),
                            y: sy.range.clone(),
                            z: sz.range.clone(),
                            base: 0,
                        };
                        boxes.push((triple, halo_box));
                    }
                }
            }
        }
        // Stable, so an owner's boxes keep their (z, y, x) segment order.
        boxes.sort_by_key(|(_, b)| (b.owner != me, b.owner));
        let mut box_of = vec![None; xs.len() * ys.len() * zs.len()];
        let (mut unique_cells, mut self_cells) = (0, 0);
        for (i, (triple, b)) in boxes.iter_mut().enumerate() {
            box_of[*triple] = Some(i);
            b.base = unique_cells;
            unique_cells += b.volume();
            self_cells += if b.owner == me { b.volume() } else { 0 };
        }
        let boxes: Vec<HaloBox> = boxes.into_iter().map(|(_, b)| b).collect();
        let mut producers: Vec<usize> = boxes.iter().map(|b| b.owner).collect();
        producers.dedup();
        let window = |segs: &[Segment]| -> usize {
            let in_window = segs.iter().filter(|s| s.window);
            in_window.map(|s| s.range.len()).sum()
        };
        let (wx, wy, wz) = (window(&xs), window(&ys), window(&zs));
        Self {
            traffic: HaloTraffic {
                row_cells: brick.x_len * wy * brick.z_len,
                col_cells: wx * brick.y_len * brick.z_len,
                corner_cells: wx * wy * brick.z_len,
                zface_cells: brick.x_len * brick.y_len * wz,
                zedge_cells: (wx * brick.y_len + brick.x_len * wy) * wz,
                zcorner_cells: wx * wy * wz,
                unique_cells,
                self_cells,
                remote_cells: unique_cells - self_cells,
                cell_bytes: std::mem::size_of::<T>(),
                epoch_messages: producers.iter().filter(|&&p| p != me).count(),
            },
            boxes,
            segments: [xs, ys, zs].map(|segs| segs.into_iter().map(|s| s.range).collect()),
            box_of,
        }
    }

    /// The boxes, in payload order.
    pub fn boxes(&self) -> &[HaloBox] {
        &self.boxes
    }

    /// The boxes grouped by owner: one slice per producer, the rank's own
    /// first. A remote slice is exactly one message per exchange.
    pub(crate) fn owed(&self) -> impl Iterator<Item = &[HaloBox]> {
        self.boxes.chunk_by(|a, b| a.owner == b.owner)
    }

    /// Every halo cell, in payload order: the `i`-th cell occupies slot `i`.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.boxes.iter().flat_map(HaloBox::cells)
    }

    /// Number of halo cells (payload slots).
    pub fn len(&self) -> usize {
        self.boxes.last().map_or(0, |b| b.base + b.volume())
    }

    /// Whether the halo is empty (value-like boundaries everywhere).
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Payload slot of global halo cell `(x, y, z)`, or `None` when the
    /// cell is not exchanged.
    #[inline]
    pub fn slot(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        self.run_at(x, y, z).map(|(slot, _)| slot)
    }

    /// The plan's one lookup: find each coordinate's segment, then the
    /// triple's box, and offset into it. Returns the payload slot of
    /// `(x, y, z)` and how many cells of its box's line start there —
    /// cells `(x .. x + left, y, z)` occupy slots `slot .. slot + left`.
    #[inline]
    pub(crate) fn run_at(&self, x: usize, y: usize, z: usize) -> Option<(usize, usize)> {
        let [xs, ys, zs] = &self.segments;
        let at = |segs: &[Range<usize>], q: usize| segs.iter().position(|s| s.contains(&q));
        let (ix, iy, iz) = (at(xs, x)?, at(ys, y)?, at(zs, z)?);
        let b = &self.boxes[self.box_of[(iz * ys.len() + iy) * xs.len() + ix]?];
        let line = (z - b.z.start) * b.y.len() + (y - b.y.start);
        Some((b.base + line * b.x.len() + (x - b.x.start), b.x.end - x))
    }
}

/// Cut `brick ∪ window` along one axis into [`Segment`]s. The window is
/// what the `halo` coordinates on either side of `start .. start + len`
/// resolve to through the global boundary.
fn axis_segments<T: Real>(
    start: usize,
    len: usize,
    halo: usize,
    n: usize,
    b: &Boundary<T>,
    parts: &[(usize, usize)],
) -> Vec<Segment> {
    let window = resolved_window(start, len, halo, n, b);
    let coords: BTreeSet<usize> = (start..start + len).chain(window.iter().copied()).collect();
    let tagged: Vec<(usize, usize, bool)> = coords
        .into_iter()
        .map(|q| (q, axis_owner(parts, q), window.contains(&q)))
        .collect();
    let runs = tagged.chunk_by(|a, b| a.0 + 1 == b.0 && (a.1, a.2) == (b.1, b.2));
    runs.map(|run| Segment {
        range: run[0].0..run[0].0 + run.len(),
        owner: run[0].1,
        window: run[0].2,
    })
    .collect()
}

/// The in-domain cells one axis window `start-halo..start+len+halo`
/// resolves to through the global boundary. Value-like boundaries
/// contribute nothing; clamp/reflect at the outer edges fold into
/// in-domain cells (possibly the brick's own), periodic wraps around the
/// torus.
fn resolved_window<T: Real>(
    start: usize,
    len: usize,
    halo: usize,
    n: usize,
    b: &Boundary<T>,
) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    let local_range = (-(halo as isize)..0).chain(len as isize..(len + halo) as isize);
    for l in local_range {
        if let AxisHit::In(i) = b.resolve(start as isize + l, n) {
            set.insert(i);
        }
    }
    set
}

/// The per-cell construction the boxes replaced, kept as the reference
/// the box product is proven against (`tests::boxes_equal_cell_lists`).
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    /// A rank's halo cells grouped by producing rank: self first, then
    /// ascending producers.
    pub(super) type OwedCells = Vec<(usize, Vec<(usize, usize, usize)>)>;

    /// The set of global cells a brick needs to satisfy every possible
    /// out-of-brick read: every combination of `(Wx ∪ brick-x) ×
    /// (Wy ∪ brick-y) × (Wz ∪ brick-z)` with at least one window axis.
    pub(super) fn needed_halo_cells<T: Real>(
        brick: &Brick,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
    ) -> BTreeSet<(usize, usize, usize)> {
        let wx = resolved_window(brick.x0, brick.x_len, halo.0, dims.0, &bounds.x);
        let wy = resolved_window(brick.y0, brick.y_len, halo.1, dims.1, &bounds.y);
        let wz = resolved_window(brick.z0, brick.z_len, halo.2, dims.2, &bounds.z);
        let bx = || brick.x0..brick.x0 + brick.x_len;
        let by = || brick.y0..brick.y0 + brick.y_len;
        let bz = || brick.z0..brick.z0 + brick.z_len;
        let mut cells = BTreeSet::new();
        // y-faces + xy-edges (all brick z-layers).
        for &gy in &wy {
            for gz in bz() {
                for gx in bx() {
                    cells.insert((gx, gy, gz));
                }
                for &gx in &wx {
                    cells.insert((gx, gy, gz));
                }
            }
        }
        // x-faces (all brick z-layers).
        for &gx in &wx {
            for gz in bz() {
                for gy in by() {
                    cells.insert((gx, gy, gz));
                }
            }
        }
        // z-faces + xz/yz-edges + xyz-corners.
        for &gz in &wz {
            for gy in by().chain(wy.iter().copied()) {
                for gx in bx().chain(wx.iter().copied()) {
                    cells.insert((gx, gy, gz));
                }
            }
        }
        cells
    }

    /// Group a rank's needed cells by producing rank — self-owned first,
    /// then ascending rank.
    pub(super) fn group_cells(
        cells: BTreeSet<(usize, usize, usize)>,
        part: &Partition3,
        me: usize,
    ) -> OwedCells {
        let mut by_owner: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
        for (gx, gy, gz) in cells {
            let (owner, _, _, _) = part.owner(gx, gy, gz);
            by_owner.entry(owner).or_default().push((gx, gy, gz));
        }
        let mut groups: OwedCells = Vec::with_capacity(by_owner.len());
        if let Some(own) = by_owner.remove(&me) {
            groups.push((me, own));
        }
        groups.extend(by_owner);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan_for(
        brick: Brick,
        me: usize,
        part: &Partition3,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<f64>,
    ) -> HaloPlan {
        HaloPlan::new(&brick, me, part, halo, dims, bounds)
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
        #![proptest_config(ProptestConfig::with_cases_env(24))]

        /// The box product is the per-cell construction: over the rank
        /// grids, boundary mixes and shell depths the substrate runs, every
        /// rank's boxes hold the same cells with the same owner, each in
        /// exactly one payload slot, `slot()` is a bijection onto
        /// `0..len`, each producer owes the same cells (so no message
        /// changes size), and everything else misses.
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
            // An axis exchanges only when it is decomposed (y always is),
            // and admission keeps a shell narrower than its axis.
            let depth = |ranks: usize, n: usize| if ranks > 1 { (k * reach).min(n - 1) } else { 0 };
            let halo = (depth(rx, nx), (k * reach).min(ny - 1), depth(rz, nz));
            for me in 0..part.ranks() {
                let brick = part.brick(me);
                let plan = plan_for(brick, me, &part, halo, dims, &bounds);
                let cells = oracle::needed_halo_cells(&brick, halo, dims, &bounds);
                let groups = oracle::group_cells(cells.clone(), &part, me);

                prop_assert_eq!(plan.len(), cells.len(), "rank {}: a cell twice or missing", me);
                prop_assert_eq!(plan.is_empty(), cells.is_empty());
                for (slot, (x, y, z)) in plan.cells().enumerate() {
                    prop_assert!(cells.contains(&(x, y, z)), "rank {}: ({}, {}, {}) not needed", me, x, y, z);
                    prop_assert_eq!(plan.slot(x, y, z), Some(slot), "rank {}: slot of ({}, {}, {})", me, x, y, z);
                }
                // Producer by producer, in message order: the same owner
                // and the same cells.
                let owed: Vec<_> = plan.owed().collect();
                prop_assert_eq!(owed.len(), groups.len(), "rank {}: producers", me);
                for (boxes, (owner, group)) in owed.iter().zip(&groups) {
                    let mut boxed: Vec<_> = boxes.iter().flat_map(HaloBox::cells).collect();
                    for b in boxes.iter() {
                        prop_assert_eq!(b.owner, *owner);
                        for (x, y, z) in b.cells() {
                            prop_assert_eq!(part.owner(x, y, z).0, *owner);
                        }
                    }
                    boxed.sort_unstable();
                    prop_assert_eq!(&boxed, group, "rank {}: cells owed by {}", me, owner);
                }
                // Misses miss, over the domain plus a guard band.
                for z in 0..nz + 2 {
                    for y in 0..ny + 2 {
                        for x in 0..nx + 2 {
                            prop_assert_eq!(
                                plan.slot(x, y, z).is_some(),
                                cells.contains(&(x, y, z)),
                                "rank {}: ({}, {}, {})", me, x, y, z
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slab_halo_rows_are_one_run_per_line() {
        // Interior slab of a 1×3×1 split over 6×12×2: two full-width halo
        // rows on two z-layers — one box per neighbour, each of its
        // (y, z) lines one contiguous run.
        let part = Partition3::new(6, 12, 2, 1, 3, 1);
        let brick = part.brick(1);
        let plan = plan_for(
            brick,
            1,
            &part,
            (0, 1, 0),
            (6, 12, 2),
            &BoundarySpec::clamp(),
        );
        assert_eq!(plan.len(), 6 * 2 * 2);
        assert_eq!(plan.boxes().len(), 2, "one box per halo row");
        for b in plan.boxes() {
            assert_eq!((b.x.clone(), b.y.len(), b.z.clone()), (0..6, 1, 0..2));
        }
        for (slot, (x, y, z)) in plan.cells().enumerate() {
            assert_eq!(plan.slot(x, y, z), Some(slot));
            assert_eq!(plan.run_at(x, y, z), Some((slot, 6 - x)));
        }
    }

    #[test]
    fn strip_lookup_misses_return_none() {
        let part = Partition3::new(6, 12, 2, 1, 3, 1);
        let brick = part.brick(1);
        let plan = plan_for(
            brick,
            1,
            &part,
            (0, 1, 0),
            (6, 12, 2),
            &BoundarySpec::clamp(),
        );
        // In-brick interior cells, out-of-window rows, far columns and
        // out-of-shell z all miss without panicking.
        assert_eq!(plan.slot(2, 5, 0), None);
        assert_eq!(plan.slot(0, 0, 0), None);
        assert_eq!(plan.slot(99, 3, 0), None);
        assert_eq!(plan.slot(2, 99, 0), None);
        assert_eq!(plan.slot(2, 3, 99), None);
    }

    #[test]
    fn interior_tile_ring_runs_follow_the_producer_groups() {
        // Interior tile of a 3×3×1 grid over 9×9, halo 1: the ring has 16
        // cells from 8 producers. A box never spans producers, so the ring
        // is 8 boxes: one cell per corner patch (4), a 3-cell row per row
        // strip (2) and a 3-cell column per column strip (2).
        let part = Partition3::new(9, 9, 1, 3, 3, 1);
        let brick = part.brick(4);
        let plan = plan_for(
            brick,
            4,
            &part,
            (1, 1, 0),
            (9, 9, 1),
            &BoundarySpec::clamp(),
        );
        assert_eq!(plan.len(), 16);
        let owners: Vec<usize> = plan.boxes().iter().map(|b| b.owner).collect();
        assert_eq!(owners, [0, 1, 2, 3, 5, 6, 7, 8]);
        let shapes: Vec<_> = plan
            .boxes()
            .iter()
            .map(|b| (b.x.len(), b.y.len()))
            .collect();
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
        for corner in [(2, 2), (6, 2), (2, 6), (6, 6)] {
            assert!(plan.slot(corner.0, corner.1, 0).is_some());
        }
        assert_eq!(plan.slot(4, 4, 0), None, "brick interior not planned");
    }

    #[test]
    fn z_shell_cells_cover_faces_edges_and_corners() {
        // Interior brick of a 3×3×3 grid over 9×9×9, halo 1: the shell is
        // the full 5×5×5 box minus the 3×3×3 brick = 98 cells.
        let part = Partition3::new(9, 9, 9, 3, 3, 3);
        let brick = part.brick(13); // grid position (1, 1, 1)
        let plan = plan_for(
            brick,
            13,
            &part,
            (1, 1, 1),
            (9, 9, 9),
            &BoundarySpec::clamp(),
        );
        assert_eq!(plan.len(), 5 * 5 * 5 - 3 * 3 * 3);
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2 * 3);
        assert_eq!(t.col_cells, 2 * 3 * 3);
        assert_eq!(t.corner_cells, 2 * 2 * 3);
        assert_eq!(t.zface_cells, 3 * 3 * 2);
        assert_eq!(t.zedge_cells, (2 * 3 + 3 * 2) * 2);
        assert_eq!(t.zcorner_cells, 2 * 2 * 2);
        // z-face, z-edge and z-corner cells all resolve through the plan.
        for cell in [(4, 4, 2), (2, 4, 2), (2, 2, 2), (4, 4, 6), (6, 6, 6)] {
            assert!(
                plan.slot(cell.0, cell.1, cell.2).is_some(),
                "missing shell cell {cell:?}"
            );
        }
        assert_eq!(plan.slot(4, 4, 4), None, "brick interior excluded");
        // 26 producers: every face/edge/corner neighbour of the centre.
        assert_eq!(plan.owed().count(), 26);
        assert_eq!(t.epoch_messages, 26);
    }

    #[test]
    fn centre_brick_of_3x3x3_plans_one_box_per_producer() {
        let part = Partition3::new(9, 9, 9, 3, 3, 3);
        let plan = plan_for(
            part.brick(13),
            13,
            &part,
            (1, 1, 1),
            (9, 9, 9),
            &BoundarySpec::clamp(),
        );
        assert_eq!(plan.boxes().len(), 26);
        let owners: Vec<usize> = plan.boxes().iter().map(|b| b.owner).collect();
        let expect: Vec<usize> = (0..27).filter(|&r| r != 13).collect();
        assert_eq!(owners, expect);
    }

    #[test]
    fn dist_halo_shape_plans_two_boxes_per_rank() {
        // The benchmark's `dist-halo` job: 512×16×8 over 1×2 ranks, clamp,
        // halo (0, 1, 0). Each rank needs one row of its neighbour and
        // folds the clamped domain edge onto one row of its own: 8 192
        // cells, two boxes.
        let part = Partition3::new(512, 16, 8, 1, 2, 1);
        for me in 0..2 {
            let plan = plan_for(
                part.brick(me),
                me,
                &part,
                (0, 1, 0),
                (512, 16, 8),
                &BoundarySpec::clamp(),
            );
            assert_eq!(plan.len(), 2 * 512 * 8);
            let boxes: Vec<_> = plan
                .boxes()
                .iter()
                .map(|b| (b.owner, b.x.clone(), b.y.clone(), b.z.clone(), b.base))
                .collect();
            let (own_row, their_row) = [(0, 8), (15, 7)][me];
            assert_eq!(
                boxes,
                [
                    (me, 0..512, own_row..own_row + 1, 0..8, 0),
                    (1 - me, 0..512, their_row..their_row + 1, 0..8, 4096),
                ]
            );
            assert_eq!(plan.traffic.epoch_messages, 1);
        }
    }

    #[test]
    fn slots_enumerate_payload_order() {
        let part = Partition3::new(10, 10, 4, 2, 2, 2);
        let brick = part.brick(7);
        let plan = plan_for(
            brick,
            7,
            &part,
            (1, 1, 1),
            (10, 10, 4),
            &BoundarySpec::periodic(),
        );
        let mut seen = vec![false; plan.len()];
        for (expected, (x, y, z)) in plan.cells().enumerate() {
            let slot = plan.slot(x, y, z).expect("planned cell must resolve");
            assert_eq!(slot, expected, "payload order broken at ({x}, {y}, {z})");
            assert!(!seen[slot]);
            seen[slot] = true;
        }
        assert!(seen.iter().all(|&s| s), "slots must cover 0..len");
    }

    #[test]
    fn traffic_volumes_match_window_products() {
        // Interior tile of a 3×3×1 grid over 9×9×2, halo 1 under clamp:
        // both x/y windows have 2 cells, tile is 3×3 over 2 layers.
        let part = Partition3::new(9, 9, 2, 3, 3, 1);
        let brick = part.brick(4);
        let plan = plan_for(
            brick,
            4,
            &part,
            (1, 1, 0),
            (9, 9, 2),
            &BoundarySpec::clamp(),
        );
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2 * 2);
        assert_eq!(t.col_cells, 2 * 3 * 2);
        assert_eq!(t.corner_cells, 2 * 2 * 2);
        assert_eq!(t.zface_cells, 0, "undecomposed z has no z-channels");
        assert_eq!(t.zedge_cells, 0);
        assert_eq!(t.zcorner_cells, 0);
        assert_eq!(t.unique_cells, 16 * 2);
        assert_eq!(t.self_cells, 0, "interior tile folds nothing onto itself");
        assert_eq!(t.remote_cells, 16 * 2);
        assert_eq!(t.cell_bytes, std::mem::size_of::<f64>());
        assert_eq!(t.wire_bytes(), 32 * 8);
        assert!((t.corner_share() - 8.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.z_share(), 0.0);

        // Domain-corner tile under clamp: each window folds one extra
        // in-tile cell, and the fold cells are self-served.
        let brick = part.brick(0);
        let plan = plan_for(
            brick,
            0,
            &part,
            (1, 1, 0),
            (9, 9, 2),
            &BoundarySpec::clamp(),
        );
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2 * 2);
        assert_eq!(t.col_cells, 2 * 3 * 2);
        assert_eq!(t.corner_cells, 2 * 2 * 2);
        assert!(t.self_cells > 0, "clamp folds serve the tile's own cells");
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
        // A single rank with value-like boundaries needs no halo cells.
        let part = Partition3::new(5, 5, 1, 1, 1, 1);
        let brick = part.brick(0);
        let plan = plan_for(brick, 0, &part, (0, 1, 0), (5, 5, 1), &BoundarySpec::zero());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.slot(0, 0, 0), None);
        assert_eq!(plan.traffic.unique_cells, 0);
        assert_eq!(plan.traffic.corner_share(), 0.0);
    }
}
