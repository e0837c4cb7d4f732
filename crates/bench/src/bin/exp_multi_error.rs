//! **Multi-error extension experiment** — the paper corrects one error
//! per layer per iteration (Fig. 6 pairs mismatches positionally) and
//! leaves simultaneous errors as future work. This harness injects
//! `k ∈ {1, 2, 3, 5}` simultaneous output flips per run and compares the
//! `Strict` policy (refuse ambiguous layers) against the `DeltaMatch`
//! extension (pair row/column mismatches by checksum-delta magnitude).
//!
//! Expected shape: both policies detect everything; `DeltaMatch` corrects
//! most multi-error layers (deltas rarely collide), keeping the final l2
//! error near the single-error level, while `Strict`'s error grows with
//! `k`. Offline rollback handles any `k` by construction.

use abft_bench::{fmt_log, hotspot_campaign, scenario_config, Cli};
use abft_core::MultiErrorPolicy;
use abft_fault::{random_flips, Fault, Method};
use abft_hotspot::Scenario;
use abft_metrics::{write_csv, Summary, Table};

fn main() {
    let cli = Cli::parse();
    cli.install_threads();
    let scenario = Scenario::tile_small();
    let campaign = hotspot_campaign(&scenario, cli.seed);
    let reps = cli.reps.div_ceil(2).max(10);
    eprintln!(
        "[exp_multi_error] tile {} — {} reps x k in {{1,2,3,5}}",
        scenario.name, reps
    );

    let mut table = Table::new(vec![
        "k",
        "policy",
        "mean l2",
        "median l2",
        "max l2",
        "corrected",
        "uncorrectable",
    ]);

    for k in [1usize, 2, 3, 5] {
        // k flips injected during the *same* iteration so collisions in a
        // layer are likely; detectable bits only (>= 20) so every fault is
        // visible to the checksums.
        for (policy, label) in [
            (MultiErrorPolicy::Strict, "Strict"),
            (MultiErrorPolicy::DeltaMatch, "DeltaMatch"),
        ] {
            let cfg = scenario_config(&scenario).with_policy(policy);
            let mut l2s = Vec::with_capacity(reps);
            let mut corrected = 0usize;
            let mut uncorrectable = 0usize;
            for rep in 0..reps {
                let seed = cli.seed ^ ((k as u64) << 32) ^ rep as u64;
                let flips = random_flips(seed, k, scenario.iters, scenario.dims, 32);
                let iter0 = flips[0].iteration;
                let faults: Vec<Fault> = flips
                    .into_iter()
                    .map(|mut f| {
                        f.iteration = iter0;
                        f.bit = 20 + (f.bit % 11); // detectable range
                        Fault::Output(f)
                    })
                    .collect();
                let r = campaign.run_once_multi(Method::Online, cfg, &faults);
                l2s.push(r.l2);
                corrected += r.stats.corrections;
                uncorrectable += r.stats.uncorrectable;
            }
            let s = Summary::from_sample(&l2s);
            println!(
                "k={k} {label:<11} mean {:<11} median {:<11} max {:<11} corrected {corrected:>4} uncorrectable {uncorrectable:>3}",
                fmt_log(s.mean),
                fmt_log(s.median),
                fmt_log(s.max),
            );
            table.row(vec![
                k.to_string(),
                label.to_string(),
                fmt_log(s.mean),
                fmt_log(s.median),
                fmt_log(s.max),
                corrected.to_string(),
                uncorrectable.to_string(),
            ]);
        }
    }

    let path = format!("{}/exp_multi_error.csv", cli.out);
    write_csv(&table, &path).expect("write CSV");
    println!("\n[csv] {path}");
}
