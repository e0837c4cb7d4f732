//! Halo planning: which cells a rank needs, in what canonical order they
//! travel, how fast an out-of-brick read finds its payload slot, and how
//! much traffic each halo channel carries.
//!
//! # Strip indexing
//!
//! A rank's halo is a set of global `(x, y, z)` cells — the full 3-D
//! shell around its brick: x/y/z **faces**, the **edges** where two axis
//! windows meet and the **corners** where all three do — flattened into
//! one payload whose order both endpoints derive independently (see
//! [`group_cells`]). Through PR 3 the cell → payload-slot map was a
//! `HashMap`, uniform for any topology but paying a SipHash per ghost
//! read on the edge-sweep hot path.
//!
//! [`HaloIndex`] exploits the halo's *density*: in the canonical
//! z-major, row-major order, consecutive slots form maximal **runs** of
//! x-consecutive cells at a fixed `(y, z)` line (a face strip is a single
//! run per line; x-face strips contribute one short run per line; edge
//! and corner patches extend or add runs). A lookup then resolves with
//! two table indexings and a range check — index the `(z, y)` line table,
//! range-check `x` against the run — instead of hashing, and it is paid
//! **per line**, not per read: `HaloIndex::run_at` also says how far
//! the run extends, so a whole ghost line is one lookup and one slice
//! copy per run ([`crate::HaloGhost`]'s bulk read).
//!
//! The PR 3 hash path is kept **only** as the witness of bitwise
//! equivalence: it is compiled under `debug_assertions`, where every strip
//! lookup is cross-checked against it.
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

use crate::{Brick, Partition3};
use abft_grid::{AxisHit, Boundary, BoundarySpec};
use abft_num::Real;
use std::collections::{BTreeMap, BTreeSet};

#[cfg(debug_assertions)]
use std::collections::HashMap;

/// A rank's halo cells grouped by producing rank, in the canonical
/// payload order (self first, then ascending producers; each group
/// z-major row-major, i.e. sorted by `(z, y, x)`).
pub type CellGroups = Vec<(usize, Vec<(usize, usize, usize)>)>;

/// One maximal x-consecutive run of halo cells at a fixed global `(y, z)`
/// line: cells `(x0 .. x0+len, y, z)` occupy payload slots
/// `base .. base+len` (stride 1 in the canonical order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    x0: usize,
    len: usize,
    base: usize,
}

/// Cell → payload-slot resolution for one rank's halo.
///
/// The production path is arithmetic: `HaloIndex::run_at` indexes a
/// per-line run table (`(z - z_min) · y_span + (y - y_min)`) and scans
/// that line's runs (one for a face strip, rarely more than three on a
/// decomposed grid) with a range check and an offset add. Debug builds
/// cross-check every single-cell lookup against the legacy hash path.
#[derive(Debug, Clone)]
pub struct HaloIndex {
    /// Smallest global `y` of any halo cell (line-table origin).
    y_min: usize,
    /// Smallest global `z` of any halo cell (line-table origin).
    z_min: usize,
    /// Number of `y` values the line table spans per `z`.
    y_span: usize,
    /// Per-line `(first_run, n_runs)` into `runs`, indexed by
    /// `(z - z_min) · y_span + (y - y_min)`.
    line_spans: Vec<(u32, u32)>,
    /// All runs, grouped by line, in line-table order.
    runs: Vec<Run>,
    /// Total number of halo cells (payload slots).
    len: usize,
    /// The PR 3 path: uniform `HashMap` lookup, kept to prove bitwise
    /// equivalence (debug builds assert it on every read).
    #[cfg(debug_assertions)]
    hash: HashMap<(usize, usize, usize), usize>,
}

impl HaloIndex {
    /// Build the index over the canonical payload order of `groups`.
    pub fn new(groups: &CellGroups) -> Self {
        let mut tagged: Vec<((usize, usize), Run)> = Vec::new();
        let mut slot = 0usize;
        for (_, cells) in groups {
            let mut current: Option<((usize, usize), Run)> = None;
            for &(gx, gy, gz) in cells {
                match &mut current {
                    Some((line, run)) if *line == (gy, gz) && gx == run.x0 + run.len => {
                        run.len += 1
                    }
                    _ => {
                        if let Some(done) = current.take() {
                            tagged.push(done);
                        }
                        current = Some((
                            (gy, gz),
                            Run {
                                x0: gx,
                                len: 1,
                                base: slot,
                            },
                        ));
                    }
                }
                slot += 1;
            }
            if let Some(done) = current.take() {
                tagged.push(done);
            }
        }
        let y_min = tagged.iter().map(|((y, _), _)| *y).min().unwrap_or(0);
        let y_max = tagged.iter().map(|((y, _), _)| *y).max().unwrap_or(0);
        let z_min = tagged.iter().map(|((_, z), _)| *z).min().unwrap_or(0);
        let z_max = tagged.iter().map(|((_, z), _)| *z).max().unwrap_or(0);
        let y_span = if tagged.is_empty() {
            0
        } else {
            y_max - y_min + 1
        };
        let z_span = if tagged.is_empty() {
            0
        } else {
            z_max - z_min + 1
        };
        tagged.sort_by_key(|((y, z), run)| (*z, *y, run.x0, run.base));
        let mut line_spans = vec![(0u32, 0u32); z_span * y_span];
        let mut runs = Vec::with_capacity(tagged.len());
        for ((y, z), run) in tagged {
            let span = &mut line_spans[(z - z_min) * y_span + (y - y_min)];
            if span.1 == 0 {
                span.0 = runs.len() as u32;
            }
            span.1 += 1;
            runs.push(run);
        }
        Self {
            y_min,
            z_min,
            y_span,
            line_spans,
            runs,
            len: slot,
            #[cfg(debug_assertions)]
            hash: {
                let mut hash = HashMap::with_capacity(slot);
                let mut s = 0usize;
                for (_, cells) in groups {
                    for &cell in cells {
                        hash.insert(cell, s);
                        s += 1;
                    }
                }
                hash
            },
        }
    }

    /// Number of halo cells (payload slots).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the halo is empty (value-like boundaries everywhere).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of strips (maximal x-consecutive runs) backing the index.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Payload slot of global halo cell `(x, y, z)` — the single-cell
    /// lookup.
    ///
    /// Resolves through the strip table (`HaloIndex::run_at`); debug
    /// builds additionally assert the result against the hash path on
    /// every call, so the whole equivalence test matrix doubles as a
    /// strip-vs-hash proof.
    #[inline]
    pub fn slot(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        let slot = self.slot_strip(x, y, z);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            slot,
            self.slot_hash(x, y, z),
            "strip/hash halo-index divergence at ({x}, {y}, {z})"
        );
        slot
    }

    /// Strip-table lookup: the slot of `(x, y, z)` alone.
    #[inline]
    pub fn slot_strip(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        self.run_at(x, y, z).map(|(slot, _)| slot)
    }

    /// The index's one lookup routine: index the `(z, y)` line,
    /// range-check its runs, offset. Returns the payload slot of
    /// `(x, y, z)` and how many cells of its run start there — cells
    /// `(x .. x + left, y, z)` occupy slots `slot .. slot + left`, so a
    /// whole ghost line is found with one lookup per run.
    #[inline]
    pub(crate) fn run_at(&self, x: usize, y: usize, z: usize) -> Option<(usize, usize)> {
        let dy = y.checked_sub(self.y_min)?;
        if dy >= self.y_span {
            return None;
        }
        let dz = z.checked_sub(self.z_min)?;
        let &(first, n) = self.line_spans.get(dz * self.y_span + dy)?;
        for run in &self.runs[first as usize..(first + n) as usize] {
            let dx = x.wrapping_sub(run.x0);
            if dx < run.len {
                return Some((run.base + dx, run.len - dx));
            }
        }
        None
    }

    /// The PR 3 `HashMap` lookup (equivalence witness).
    #[cfg(debug_assertions)]
    pub fn slot_hash(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        self.hash.get(&(x, y, z)).copied()
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

/// Everything one rank needs to exchange halos: the canonical cell
/// groups, the payload-slot index and the per-channel traffic volumes.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// Needed cells grouped by producing rank in canonical payload order.
    pub groups: CellGroups,
    /// Cell → payload-slot index (strip-backed).
    pub index: std::sync::Arc<HaloIndex>,
    /// Analytic per-channel traffic volumes.
    pub traffic: HaloTraffic,
}

impl HaloPlan {
    /// Plan rank `me`'s halo: resolve the out-of-brick windows through the
    /// global boundaries, group the needed cells by owner, build the
    /// strip index and tally the per-channel volumes.
    /// `halo = (hx, hy, hz)` is the per-axis halo depth (0 disables the
    /// axis) and `dims` the global domain.
    pub fn new<T: Real>(
        brick: &Brick,
        me: usize,
        part: &Partition3,
        halo: (usize, usize, usize),
        dims: (usize, usize, usize),
        bounds: &BoundarySpec<T>,
    ) -> Self {
        let (hx, hy, hz) = halo;
        let (nx, ny, nz) = dims;
        let wx = resolved_window(brick.x0, brick.x_len, hx, nx, &bounds.x);
        let wy = resolved_window(brick.y0, brick.y_len, hy, ny, &bounds.y);
        let wz = resolved_window(brick.z0, brick.z_len, hz, nz, &bounds.z);
        let cells = needed_halo_cells(brick, &wx, &wy, &wz);
        let self_cells = cells
            .iter()
            .filter(|&&(x, y, z)| brick.contains(x, y, z))
            .count();
        let groups = group_cells(cells.clone(), part, me);
        let epoch_messages = groups.iter().filter(|(owner, _)| *owner != me).count();
        let traffic = HaloTraffic {
            row_cells: brick.x_len * wy.len() * brick.z_len,
            col_cells: wx.len() * brick.y_len * brick.z_len,
            corner_cells: wx.len() * wy.len() * brick.z_len,
            zface_cells: brick.x_len * brick.y_len * wz.len(),
            zedge_cells: (wx.len() * brick.y_len + brick.x_len * wy.len()) * wz.len(),
            zcorner_cells: wx.len() * wy.len() * wz.len(),
            unique_cells: cells.len(),
            self_cells,
            remote_cells: cells.len() - self_cells,
            cell_bytes: std::mem::size_of::<T>(),
            epoch_messages,
        };
        let index = std::sync::Arc::new(HaloIndex::new(&groups));
        Self {
            groups,
            index,
            traffic,
        }
    }
}

/// The in-domain cells one axis window `start-halo..start+len+halo`
/// resolves to through the global boundary. Value-like boundaries
/// contribute nothing; clamp/reflect at the outer edges fold into
/// in-domain cells (possibly the brick's own), periodic wraps around the
/// torus.
pub(crate) fn resolved_window<T: Real>(
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

/// The set of global cells a brick needs to satisfy every possible
/// out-of-brick read, given the already-resolved per-axis windows: the
/// full 3-D halo shell — x/y/z faces, xy/xz/yz edges and xyz corners,
/// i.e. every combination of `(Wx ∪ brick-x) × (Wy ∪ brick-y) ×
/// (Wz ∪ brick-z)` with at least one window axis. The shell always
/// includes edges and corners, so diagonal stencil taps and the checksum
/// interpolation's cross-axis correction terms are served without any
/// extra message kind.
pub(crate) fn needed_halo_cells(
    brick: &Brick,
    wx: &BTreeSet<usize>,
    wy: &BTreeSet<usize>,
    wz: &BTreeSet<usize>,
) -> BTreeSet<(usize, usize, usize)> {
    let bx = || brick.x0..brick.x0 + brick.x_len;
    let by = || brick.y0..brick.y0 + brick.y_len;
    let bz = || brick.z0..brick.z0 + brick.z_len;
    let mut cells = BTreeSet::new();
    // y-faces + xy-edges (all brick z-layers).
    for &gy in wy {
        for gz in bz() {
            for gx in bx() {
                cells.insert((gx, gy, gz));
            }
            for &gx in wx {
                cells.insert((gx, gy, gz));
            }
        }
    }
    // x-faces (all brick z-layers).
    for &gx in wx {
        for gz in bz() {
            for gy in by() {
                cells.insert((gx, gy, gz));
            }
        }
    }
    // z-faces + xz/yz-edges + xyz-corners.
    for &gz in wz {
        for gy in by().chain(wy.iter().copied()) {
            for gx in bx().chain(wx.iter().copied()) {
                cells.insert((gx, gy, gz));
            }
        }
    }
    cells
}

/// Group a rank's needed cells by producing rank in the canonical payload
/// order — self-owned first, then ascending rank, each group z-major
/// row-major (sorted by `(z, y, x)`, so x-consecutive cells occupy
/// consecutive payload slots and the strip index stays dense).
pub(crate) fn group_cells(
    cells: BTreeSet<(usize, usize, usize)>,
    part: &Partition3,
    me: usize,
) -> CellGroups {
    let mut by_owner: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
    for (gx, gy, gz) in cells {
        let (owner, _, _, _) = part.owner(gx, gy, gz);
        by_owner.entry(owner).or_default().push((gx, gy, gz));
    }
    let mut groups: CellGroups = Vec::with_capacity(by_owner.len());
    if let Some(own) = by_owner.remove(&me) {
        groups.push((me, own));
    }
    groups.extend(by_owner);
    for (_, group) in &mut groups {
        group.sort_unstable_by_key(|&(x, y, z)| (z, y, x));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn slab_halo_rows_are_one_run_per_line() {
        // Interior slab of a 1×3×1 split over 6×12×2: two full-width halo
        // rows on two z-layers, each (y, z) line one contiguous run.
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
        assert_eq!(plan.index.len(), 6 * 2 * 2);
        assert_eq!(plan.index.n_runs(), 4, "one run per halo row per layer");
        for (slot, &(x, y, z)) in plan.groups.iter().flat_map(|(_, g)| g).enumerate() {
            assert_eq!(plan.index.slot(x, y, z), Some(slot));
            assert_eq!(plan.index.slot_strip(x, y, z), Some(slot));
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
        // out-of-table z all miss without panicking.
        assert_eq!(plan.index.slot_strip(2, 5, 0), None);
        assert_eq!(plan.index.slot_strip(0, 0, 0), None);
        assert_eq!(plan.index.slot_strip(99, 3, 0), None);
        assert_eq!(plan.index.slot_strip(2, 99, 0), None);
        assert_eq!(plan.index.slot_strip(2, 3, 99), None);
    }

    #[test]
    fn interior_tile_ring_runs_follow_the_producer_groups() {
        // Interior tile of a 3×3×1 grid over 9×9, halo 1: per z-layer the
        // ring has 16 cells from 8 producers. Runs never span producer
        // groups (slots are contiguous per group), so each layer's ring
        // decomposes into 12 runs: one per corner patch (4), one per row
        // strip (2) and one per row of each column strip (2 × 3).
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
        assert_eq!(plan.index.len(), 16);
        assert_eq!(plan.index.n_runs(), 4 + 2 + 2 * 3);
        for corner in [(2, 2), (6, 2), (2, 6), (6, 6)] {
            assert!(plan.index.slot(corner.0, corner.1, 0).is_some());
        }
        assert_eq!(plan.index.slot(4, 4, 0), None, "brick interior not indexed");
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
        assert_eq!(plan.index.len(), 5 * 5 * 5 - 3 * 3 * 3);
        let t = plan.traffic;
        assert_eq!(t.row_cells, 3 * 2 * 3);
        assert_eq!(t.col_cells, 2 * 3 * 3);
        assert_eq!(t.corner_cells, 2 * 2 * 3);
        assert_eq!(t.zface_cells, 3 * 3 * 2);
        assert_eq!(t.zedge_cells, (2 * 3 + 3 * 2) * 2);
        assert_eq!(t.zcorner_cells, 2 * 2 * 2);
        // z-face, z-edge and z-corner cells all resolve through the index.
        for cell in [(4, 4, 2), (2, 4, 2), (2, 2, 2), (4, 4, 6), (6, 6, 6)] {
            assert!(
                plan.index.slot(cell.0, cell.1, cell.2).is_some(),
                "missing shell cell {cell:?}"
            );
        }
        assert_eq!(plan.index.slot(4, 4, 4), None, "brick interior excluded");
        // 26 producers: every face/edge/corner neighbour of the centre.
        assert_eq!(plan.groups.len(), 26);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn strip_and_hash_agree_on_every_cell_and_on_misses() {
        let part = Partition3::new(13, 14, 4, 2, 3, 2);
        for boundary in [Boundary::Clamp, Boundary::Periodic] {
            let bounds = BoundarySpec::<f64>::uniform(boundary);
            for me in 0..part.ranks() {
                let brick = part.brick(me);
                let plan = plan_for(brick, me, &part, (2, 2, 1), (13, 14, 4), &bounds);
                for z in 0..4 {
                    for y in 0..14 {
                        for x in 0..13 {
                            assert_eq!(
                                plan.index.slot_strip(x, y, z),
                                plan.index.slot_hash(x, y, z),
                                "divergence at ({x}, {y}, {z}) rank {me} {boundary:?}"
                            );
                        }
                    }
                }
            }
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
        let mut seen = vec![false; plan.index.len()];
        let mut expected = 0usize;
        for (_, group) in &plan.groups {
            for &(x, y, z) in group {
                let slot = plan.index.slot(x, y, z).expect("planned cell must resolve");
                assert_eq!(slot, expected, "payload order broken at ({x}, {y}, {z})");
                assert!(!seen[slot]);
                seen[slot] = true;
                expected += 1;
            }
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
        assert!(plan.index.is_empty());
        assert_eq!(plan.index.slot_strip(0, 0, 0), None);
        assert_eq!(plan.traffic.unique_cells, 0);
        assert_eq!(plan.traffic.corner_share(), 0.0);
    }
}
