//! Measurement substrate for the experiment harness: the paper's l2
//! arithmetic error (Eq. 11), summary statistics, boxplot statistics
//! (Fig. 10), wall-clock timing, ASCII tables and CSV output.

mod l2;
mod latency;
mod recovery;
mod stats;
mod table;
mod timer;

pub use l2::{l2_error, l2_error_slices};
pub use latency::P2Quantile;
pub use recovery::RecoveryStats;
pub use stats::{BoxStats, Quantiles, Summary, Welford};
pub use table::{write_csv, Table};
pub use timer::Timer;
