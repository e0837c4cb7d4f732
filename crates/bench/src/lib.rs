//! Shared harness code for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper's §5, or
//! studies one fault-model question the paper leaves open (the README's
//! workspace table lists them). The binaries print the same rows/series
//! the paper reports and write CSV files under `results/`. Nothing here
//! answers "what does protection cost?" — that is `benchmark/`'s job.

use abft_core::AbftConfig;
use abft_fault::{Campaign, RunRecord};
use abft_hotspot::{build_sim, Scenario};
use abft_metrics::Summary;
use abft_stencil::{Exec, StencilSim};

/// Common command-line options for the experiment binaries.
///
/// Supported flags: `--reps N`, `--seed S`, `--threads N`, `--large`
/// (include the 512×512×8 tile; the 64×64×8 tile alone is the default)
/// and `--out DIR` (CSV output directory, default `results/`).
#[derive(Debug, Clone)]
pub struct Cli {
    pub reps: usize,
    pub seed: u64,
    pub threads: usize,
    pub large: bool,
    pub out: String,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            reps: 50,
            seed: 20190904, // the paper's publication date
            threads: 8,
            large: false,
            out: "results".to_string(),
        }
    }
}

impl Cli {
    /// Parse `std::env::args`, panicking with a usage message on unknown
    /// flags.
    pub fn parse() -> Self {
        let mut cli = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--reps" => {
                    i += 1;
                    cli.reps = args[i].parse().expect("--reps N");
                }
                "--seed" => {
                    i += 1;
                    cli.seed = args[i].parse().expect("--seed S");
                }
                "--threads" => {
                    i += 1;
                    cli.threads = args[i].parse().expect("--threads N");
                }
                "--large" => cli.large = true,
                "--out" => {
                    i += 1;
                    cli.out = args[i].clone();
                }
                other => panic!(
                    "unknown flag {other}; supported: --reps N --seed S --threads N --large --out DIR"
                ),
            }
            i += 1;
        }
        cli
    }

    /// Configure the global rayon pool (the paper uses 8 OpenMP threads).
    /// Ignores failure when a pool already exists (e.g. in tests).
    pub fn install_threads(&self) {
        let threads = self.threads.max(1);
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
    }

    /// The tiles to evaluate: always the 64×64×8 tile, plus 512×512×8
    /// with `--large`.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut v = vec![Scenario::tile_small()];
        if self.large {
            v.push(Scenario::tile_large());
        }
        v
    }
}

/// Build the paper's campaign for one scenario: a HotSpot3D simulation
/// factory (f32, rayon-parallel over layers, deterministic power map from
/// the seed) plus the error-free reference.
pub fn hotspot_campaign(
    scenario: &Scenario,
    seed: u64,
) -> Campaign<f32, impl Fn() -> StencilSim<f32>> {
    let params = scenario.params();
    let factory = move || build_sim::<f32>(&params, seed, Exec::Parallel);
    Campaign::new(factory, scenario.iters)
}

/// ABFT configuration for a scenario (ε and Δ from Table 1).
pub fn scenario_config(scenario: &Scenario) -> AbftConfig<f32> {
    AbftConfig::<f32>::paper_defaults()
        .with_epsilon(scenario.epsilon as f32)
        .with_period(scenario.period)
}

/// Summarise the timing column of a batch of runs.
pub fn time_summary(records: &[RunRecord]) -> Summary {
    let xs: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    Summary::from_sample(&xs)
}

/// Summarise the l2-error column of a batch of runs.
pub fn error_summary(records: &[RunRecord]) -> Summary {
    let xs: Vec<f64> = records.iter().map(|r| r.l2).collect();
    Summary::from_sample(&xs)
}

/// Format a mean ± std pair the way the figures label bars.
pub fn fmt_pm(s: &Summary) -> String {
    format!("{:.4} ± {:.4}", s.mean, s.std_dev)
}

/// Format a number in the log-scale style of Figs. 9/10.
pub fn fmt_log(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.3e}")
    }
}

/// Percentage overhead of `x` over baseline `b`.
pub fn overhead_pct(x: f64, b: f64) -> f64 {
    100.0 * (x - b) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_fault::{BitFlip, Method};

    #[test]
    fn cli_defaults() {
        let c = Cli::default();
        assert_eq!(c.reps, 50);
        assert!(!c.large);
    }

    #[test]
    fn scenario_config_matches_table1() {
        let cfg = scenario_config(&Scenario::tile_small());
        assert_eq!(cfg.epsilon, 1e-5);
        assert_eq!(cfg.period, 16);
    }

    #[test]
    fn tiny_campaign_end_to_end() {
        let sc = Scenario::tile_tiny();
        let campaign = hotspot_campaign(&sc, 1);
        let cfg = scenario_config(&sc);
        let clean = campaign.run_once(Method::Online, cfg, None);
        assert_eq!(clean.l2, 0.0);
        let flip = BitFlip {
            iteration: 10,
            x: 5,
            y: 6,
            z: 1,
            bit: 24,
        };
        let faulty = campaign.run_once(Method::NoAbft, cfg, Some(flip));
        assert!(faulty.l2 > 0.0);
    }

    #[test]
    fn overhead_formula() {
        assert!((overhead_pct(1.08, 1.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn summaries_track_columns() {
        let sc = Scenario::tile_tiny();
        let campaign = hotspot_campaign(&sc, 2);
        let cfg = scenario_config(&sc);
        let rs = campaign.run_many(Method::NoAbft, cfg, &[None, None]);
        let t = time_summary(&rs);
        assert_eq!(t.count, 2);
        assert!(t.mean > 0.0);
        let e = error_summary(&rs);
        assert_eq!(e.max, 0.0);
    }
}
