//! What a run reports: per-rank phase timings and traffic, the gathered
//! global grid, and the fold from finished ranks to a [`DistReport`].

use crate::step::RankStepper;
use crate::HaloTraffic;
use abft_core::ProtectorStats;
use abft_grid::{copy_box, Grid3D};
use abft_metrics::{Quantiles, RecoveryStats};
use abft_num::Real;

#[cfg(doc)]
use crate::{run_distributed, DistService, HaloMode};

/// Per-rank wall-clock breakdown of one distributed run, in seconds,
/// accumulated over all iterations.
///
/// Every field is measured inside the rank's step machine, in either
/// [`HaloMode`]: `post_s` covers packing and (possibly backpressured)
/// channel sends, `interior_s` the sweep that overlaps the exchange,
/// `wait_s` the time blocked in `recv` for neighbour cells and landing
/// them in the pad (the un-hidden halo latency), `edge_s` the rest of the
/// step's window — the brick's edge frame and, between the exchanges of a
/// deep-halo epoch, the pad cells it still brings forward — and
/// `verify_s` the ABFT interpolate/detect/correct tail over both. In
/// [`HaloMode::Snapshot`] every message has been posted before any rank
/// receives, so `wait_s` is the cost of the channel reads alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Packing + posting halo cells (sends, incl. backpressure).
    pub post_s: f64,
    /// Interior sweep performed while halos were in flight.
    pub interior_s: f64,
    /// Blocked waiting for neighbour halo cells.
    pub wait_s: f64,
    /// Edge-frame (and decaying pad) sweep after the halo landed.
    pub edge_s: f64,
    /// ABFT verification (interpolation, detection, correction).
    pub verify_s: f64,
    /// Halo payload bytes this rank sent to other ranks over the whole
    /// run, **measured at the pack/copy site** (self-served boxes are
    /// excluded; both modes move the same cells, so the modes
    /// report identical totals — and they match the analytic plan,
    /// `HaloTraffic::remote_cells · cell_bytes · iters`, which the unit
    /// tests assert).
    pub halo_bytes_sent: u64,
    /// Halo payload bytes this rank received from other ranks over the
    /// whole run, measured at halo-assembly time.
    pub halo_bytes_recv: u64,
    /// Halo messages this rank sent over the whole run (one per remote
    /// consumer group per exchange epoch). With `steps_per_exchange = k`
    /// ranks exchange once per `k` sweeps, so this falls as `1/k` while
    /// the per-message byte payload grows with the deep shell.
    pub halo_msgs_sent: u64,
    /// Halo messages this rank received over the whole run (one per
    /// remote producer group per exchange epoch).
    pub halo_msgs_recv: u64,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total_s(&self) -> f64 {
        self.post_s + self.interior_s + self.wait_s + self.edge_s + self.verify_s
    }

    /// Fraction of this rank's busy time spent blocked on halos — the
    /// paper-relevant "communication not hidden by computation" metric.
    pub fn halo_wait_fraction(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            self.wait_s / total
        } else {
            0.0
        }
    }
}

/// What one rank owned and observed.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank index, `0..ranks`, row-major over the grid
    /// (`(tz · ry + ty) · rx + tx`).
    pub rank: usize,
    /// First global `x` column of the brick.
    pub x0: usize,
    /// Brick width in columns.
    pub x_len: usize,
    /// First global `y` row of the brick.
    pub y0: usize,
    /// Brick height in rows.
    pub y_len: usize,
    /// First global `z` layer of the brick.
    pub z0: usize,
    /// Brick depth in layers.
    pub z_len: usize,
    /// Protector counters (all zero for unprotected runs).
    pub stats: ProtectorStats,
    /// Where this rank's wall-clock time went.
    pub timing: PhaseTimings,
    /// Per-channel halo-traffic volumes (cells and bytes per iteration,
    /// split into face/edge/corner channels).
    pub traffic: HaloTraffic,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport<T> {
    /// The gathered global grid after the final iteration.
    pub global: Grid3D<T>,
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// The resolved rank-grid shape `(rx, ry, rz)`.
    pub grid: (usize, usize, usize),
    /// Wall-clock seconds of the iteration loop (setup and gather
    /// excluded), as seen by the driver.
    pub wall_s: f64,
    /// Submit-to-completion seconds as observed by the serving layer
    /// (queue wait + setup + iteration loop + gather). Zero when the
    /// report was produced outside a [`DistService`]. Always
    /// `queue_wait_s + exec_s` up to clock-read jitter.
    pub latency_s: f64,
    /// Seconds the job spent admitted but not yet started — waiting for
    /// enough free pool slots (and, under the bounded-skip policy, for
    /// its turn past other queued jobs). Zero outside a [`DistService`];
    /// near-zero for [`run_distributed`], whose private service has
    /// exactly the slots its one job needs.
    pub queue_wait_s: f64,
    /// Seconds from scheduler dispatch to gathered report: rank-state
    /// build, the iteration loop, and the gather. Zero outside a
    /// [`DistService`].
    pub exec_s: f64,
    /// Rank-loss and rollback accounting for this job. All-zero
    /// ([`RecoveryStats::is_clean`]) when no rank was lost;
    /// `checkpoints_stored`/`checkpoint_period` are populated whenever a
    /// checkpoint policy was active, even on clean runs.
    pub recovery: RecoveryStats,
    /// Sweeps per halo exchange this run used (the epoch length; `1` is
    /// the legacy per-step protocol).
    pub steps_per_exchange: usize,
}

impl<T: Real> DistReport<T> {
    /// Protector counters summed over all ranks.
    pub fn total_stats(&self) -> ProtectorStats {
        let mut total = ProtectorStats::default();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// The largest per-rank halo-wait fraction (the rank most exposed to
    /// communication latency).
    pub fn max_halo_wait_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.timing.halo_wait_fraction())
            .fold(0.0, f64::max)
    }

    /// Per-channel halo-traffic volumes summed over all ranks.
    pub fn total_traffic(&self) -> HaloTraffic {
        let mut total = HaloTraffic::default();
        for r in &self.ranks {
            total.merge(&r.traffic);
        }
        total
    }
}

impl<T: Real> std::fmt::Display for DistReport<T> {
    /// One-glance run summary: rank-grid shape, wall time, protector
    /// totals, the exact spread of the ranks' busy times and the
    /// per-channel halo-traffic volumes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.total_stats();
        writeln!(
            f,
            "{}x{}x{} rank grid · {} ranks · wall {:.4} s · {} detections / {} corrections",
            self.grid.0,
            self.grid.1,
            self.grid.2,
            self.ranks.len(),
            self.wall_s,
            stats.detections,
            stats.corrections,
        )?;
        let busy = Quantiles::new(self.ranks.iter().map(|r| r.timing.total_s()).collect());
        let [lo, p50, p99, hi] = [0.0, 0.5, 0.99, 1.0].map(|q| busy.quantile(q));
        write!(f, "rank busy time n={}: min/p50/p99/max = ", busy.len())?;
        writeln!(f, "{lo:.6}/{p50:.6}/{p99:.6}/{hi:.6} s")?;
        write!(f, "halo traffic: {}", self.total_traffic())
    }
}

/// Gather the finished ranks' bricks back into one global grid and fold
/// their stats, timings and traffic into a [`DistReport`].
pub(crate) fn gather_report<T: Real>(
    ranks: &[RankStepper<T>],
    grid: (usize, usize, usize),
    dims: (usize, usize, usize),
    wall_s: f64,
    steps_per_exchange: usize,
) -> DistReport<T> {
    let (nx, ny, nz) = dims;
    // One pass per brick, contiguous x-line copies.
    let mut global = Grid3D::zeros(nx, ny, nz);
    for rank in ranks {
        let b = rank.brick;
        let (pad, to) = (&rank.pad, [b.x0, b.y0, b.z0]);
        copy_box(rank.sim.current(), pad.lo, &mut global, to, pad.len);
    }
    DistReport {
        global,
        ranks: ranks
            .iter()
            .enumerate()
            .map(|(i, r)| RankReport {
                rank: i,
                x0: r.brick.x0,
                x_len: r.brick.x_len,
                y0: r.brick.y0,
                y_len: r.brick.y_len,
                z0: r.brick.z0,
                z_len: r.brick.z_len,
                stats: r.abft.as_ref().map(|a| a.stats()).unwrap_or_default(),
                timing: r.timing,
                traffic: r.traffic,
            })
            .collect(),
        grid,
        wall_s,
        latency_s: 0.0,
        queue_wait_s: 0.0,
        exec_s: 0.0,
        recovery: RecoveryStats::default(),
        steps_per_exchange,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The busy-time line is exact at any rank count: five ranks busy 1…5 s
    /// have p99 = 4 + 0.96 (type-7), not the median a five-marker
    /// streaming estimator returns from its fifth sample on.
    #[test]
    fn display_prints_exact_busy_time_quantiles_over_five_ranks() {
        let rank = |i: usize| RankReport {
            rank: i,
            x0: 0,
            x_len: 4,
            y0: 4 * i,
            y_len: 4,
            z0: 0,
            z_len: 2,
            stats: ProtectorStats::default(),
            timing: PhaseTimings {
                interior_s: (i + 1) as f64,
                ..PhaseTimings::default()
            },
            traffic: HaloTraffic::default(),
        };
        let report = DistReport::<f64> {
            global: Grid3D::zeros(4, 20, 2),
            ranks: (0..5).map(rank).collect(),
            grid: (1, 5, 1),
            wall_s: 5.0,
            latency_s: 0.0,
            queue_wait_s: 0.0,
            exec_s: 0.0,
            recovery: RecoveryStats::default(),
            steps_per_exchange: 1,
        };
        let text = report.to_string();
        let line = "rank busy time n=5: min/p50/p99/max = 1.000000/3.000000/4.960000/5.000000 s";
        assert!(text.contains(line), "{text}");
    }
}
