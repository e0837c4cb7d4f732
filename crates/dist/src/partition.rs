//! Balanced brick decomposition of the global domain over a rank grid.

/// Balanced contiguous 1-D decomposition of `n` rows over `ranks` slabs:
/// the first `n % ranks` slabs get one extra row. Returns `(start, len)`
/// per rank.
///
/// # Panics
/// Panics when there are more ranks than rows.
pub fn decompose(n: usize, ranks: usize) -> Vec<(usize, usize)> {
    assert!(ranks > 0, "need at least one rank");
    assert!(
        ranks <= n,
        "cannot decompose {n} rows over {ranks} ranks (at most one rank per row)"
    );
    let base = n / ranks;
    let extra = n % ranks;
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0;
    for r in 0..ranks {
        let len = base + usize::from(r < extra);
        out.push((start, len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// One rank's box of the global domain: an x×y×z brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brick {
    /// First global `x` column.
    pub x0: usize,
    /// Width in columns.
    pub x_len: usize,
    /// First global `y` row.
    pub y0: usize,
    /// Height in rows.
    pub y_len: usize,
    /// First global `z` layer.
    pub z0: usize,
    /// Depth in layers.
    pub z_len: usize,
}

impl Brick {
    /// Whether global cell `(x, y, z)` lies in this brick.
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        (self.x0..self.x0 + self.x_len).contains(&x)
            && (self.y0..self.y0 + self.y_len).contains(&y)
            && (self.z0..self.z0 + self.z_len).contains(&z)
    }
}

/// A balanced 3-D (x×y×z) brick decomposition of an `nx × ny × nz` domain
/// over an `rx × ry × rz` rank grid: each axis is split with
/// [`decompose`], and rank `(tz · ry + ty) · rx + tx` owns the brick at
/// grid position `(tx, ty, tz)` — for `rz = 1` this is exactly the PR 3
/// x×y tile numbering.
///
/// ```
/// use abft_dist::Partition3;
/// let p = Partition3::new(10, 9, 4, 2, 3, 2);
/// assert_eq!(p.ranks(), 12);
/// let b = p.brick(9); // grid position (1, 1, 1)
/// assert_eq!((b.x0, b.x_len, b.y0, b.y_len, b.z0, b.z_len), (5, 5, 3, 3, 2, 2));
/// assert_eq!(p.owner(7, 4, 3), (9, 2, 1, 1)); // (rank, brick-local x, y, z)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition3 {
    cols: Vec<(usize, usize)>,
    rows: Vec<(usize, usize)>,
    layers: Vec<(usize, usize)>,
}

impl Partition3 {
    /// Partition an `nx × ny × nz` domain over an `rx × ry × rz` grid.
    ///
    /// # Panics
    /// Panics when an axis has more ranks than cells (see [`decompose`]).
    pub fn new(nx: usize, ny: usize, nz: usize, rx: usize, ry: usize, rz: usize) -> Self {
        Self {
            cols: decompose(nx, rx),
            rows: decompose(ny, ry),
            layers: decompose(nz, rz),
        }
    }

    /// Ranks along x.
    pub fn rx(&self) -> usize {
        self.cols.len()
    }

    /// Ranks along y.
    pub fn ry(&self) -> usize {
        self.rows.len()
    }

    /// Ranks along z.
    pub fn rz(&self) -> usize {
        self.layers.len()
    }

    /// Total rank count (`rx · ry · rz`).
    pub fn ranks(&self) -> usize {
        self.cols.len() * self.rows.len() * self.layers.len()
    }

    /// The brick owned by `rank` (row-major:
    /// `rank = (tz · ry + ty) · rx + tx`).
    pub fn brick(&self, rank: usize) -> Brick {
        let tx = rank % self.rx();
        let ty = (rank / self.rx()) % self.ry();
        let tz = rank / (self.rx() * self.ry());
        let (x0, x_len) = self.cols[tx];
        let (y0, y_len) = self.rows[ty];
        let (z0, z_len) = self.layers[tz];
        Brick {
            x0,
            x_len,
            y0,
            y_len,
            z0,
            z_len,
        }
    }

    /// The `(start, len)` intervals the x, y and z axes are split into.
    pub(crate) fn axes(&self) -> [&[(usize, usize)]; 3] {
        [&self.cols, &self.rows, &self.layers]
    }

    /// Which rank owns global cell `(x, y, z)`, plus its brick-local
    /// coordinates.
    pub fn owner(&self, x: usize, y: usize, z: usize) -> (usize, usize, usize, usize) {
        let tx = axis_owner(&self.cols, x);
        let ty = axis_owner(&self.rows, y);
        let tz = axis_owner(&self.layers, z);
        (
            (tz * self.ry() + ty) * self.rx() + tx,
            x - self.cols[tx].0,
            y - self.rows[ty].0,
            z - self.layers[tz].0,
        )
    }
}

/// Index of the interval of `parts` that holds coordinate `q`.
pub(crate) fn axis_owner(parts: &[(usize, usize)], q: usize) -> usize {
    for (i, &(start, len)) in parts.iter().enumerate() {
        if (start..start + len).contains(&q) {
            return i;
        }
    }
    panic!("coordinate {q} owned by no rank");
}

/// Factor `ranks` into the `(rx, ry)` grid (with `rx · ry == ranks`,
/// `rx ≤ nx`, `ry ≤ ny`) whose tiles have the smallest perimeter — i.e.
/// the least halo surface per unit of computed volume. Ties and the
/// no-valid-factorisation fallback resolve to the slab-most shape
/// (smallest `rx`), matching the legacy default.
pub fn auto_grid(ranks: usize, nx: usize, ny: usize) -> (usize, usize) {
    let mut best = (1, ranks);
    let mut best_cost = usize::MAX;
    for rx in 1..=ranks {
        if !ranks.is_multiple_of(rx) {
            continue;
        }
        let ry = ranks / rx;
        if rx > nx || ry > ny {
            continue;
        }
        let cost = nx.div_ceil(rx) + ny.div_ceil(ry);
        if cost < best_cost {
            best = (rx, ry);
            best_cost = cost;
        }
    }
    best
}
