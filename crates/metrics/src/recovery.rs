//! Counters describing rank-loss detection and checkpoint-based recovery.
//!
//! The paper's online scheme corrects single bit flips in place (Eq. 10;
//! here by sweeping the flagged layer again); whole-rank loss and strikes
//! at rest escalate to checkpoint rollback instead. [`RecoveryStats`] is the ledger of that escalation path: how
//! many ranks were lost, how many rollbacks were served, how much work was
//! replayed and how long detection-to-respawn took — the quantities the
//! §5 overhead model trades against the checkpoint period Δ.

use std::fmt;

/// Rank-loss / rollback activity for one run (or an aggregate of runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Whole-rank losses detected (fail-stop kills).
    pub rank_losses: usize,
    /// Rollback rounds served (one round rewinds *every* rank to a common
    /// epoch; a single round may cover several simultaneous losses).
    pub rollbacks: usize,
    /// Total iterations of completed work discarded by rollbacks, summed
    /// over ranks (`Σ_r progress_r − epoch`).
    pub steps_lost: usize,
    /// Wall-clock seconds from loss detection (every rank of the job has
    /// stopped) to every rank rolled back and ready to run again, summed
    /// over rollback rounds.
    pub recovery_s: f64,
    /// Snapshots taken across all ranks.
    pub checkpoints_stored: usize,
    /// Checkpoint period Δ in effect (0 when checkpointing was disabled).
    pub checkpoint_period: usize,
}

impl RecoveryStats {
    /// True when no loss was detected and no rollback served.
    pub fn is_clean(&self) -> bool {
        self.rank_losses == 0 && self.rollbacks == 0
    }

    /// Fold another ledger into this one (periods must agree; the larger
    /// one wins so aggregating a zero-initialised default is a no-op).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.rank_losses += other.rank_losses;
        self.rollbacks += other.rollbacks;
        self.steps_lost += other.steps_lost;
        self.recovery_s += other.recovery_s;
        self.checkpoints_stored += other.checkpoints_stored;
        self.checkpoint_period = self.checkpoint_period.max(other.checkpoint_period);
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "losses={} rollbacks={} steps_lost={} recovery={:.3}ms stored={} period={}",
            self.rank_losses,
            self.rollbacks,
            self.steps_lost,
            self.recovery_s * 1e3,
            self.checkpoints_stored,
            self.checkpoint_period
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        assert!(RecoveryStats::default().is_clean());
    }

    #[test]
    fn merge_sums_counters_and_keeps_the_period() {
        let mut a = RecoveryStats {
            rank_losses: 1,
            rollbacks: 1,
            steps_lost: 6,
            recovery_s: 0.25,
            checkpoints_stored: 4,
            checkpoint_period: 4,
        };
        a.merge(&RecoveryStats {
            rank_losses: 2,
            rollbacks: 1,
            steps_lost: 3,
            recovery_s: 0.5,
            checkpoints_stored: 2,
            checkpoint_period: 0,
        });
        assert_eq!(a.rank_losses, 3);
        assert_eq!(a.rollbacks, 2);
        assert_eq!(a.steps_lost, 9);
        assert!((a.recovery_s - 0.75).abs() < 1e-12);
        assert_eq!(a.checkpoints_stored, 6);
        assert_eq!(a.checkpoint_period, 4);
        assert!(!a.is_clean());
    }

    #[test]
    fn display_is_human_readable() {
        let s = RecoveryStats::default().to_string();
        assert!(s.contains("losses=0") && s.contains("period=0"));
    }
}
