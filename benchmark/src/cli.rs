//! The command line: one run of one workload, or the `agree` check.
//!
//! ```text
//! stencil-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]
//! stencil-benchmark agree [--runs <n>] [--seeds <a,b,…>] [--seconds <s>] [--workloads <a,b,…>]
//! ```
//!
//! A run prints a table of its metrics and then, as the last line of its
//! standard output, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use std::process::ExitCode;
use std::time::Duration;

use crate::json::quote;
use crate::workloads::{self, Options, RunOutput};

/// The workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["hotspot-tile", "box27-cube", "dist-halo", "served-mix"];

pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 30.0;

/// `--flag value` pairs after the optional subcommand; a flag given
/// without a value (`--smoke`, a bare `--trace`) maps to `"1"`.
pub fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                out.push((flag.to_string(), v.clone()));
                i += 2;
            }
            _ => {
                out.push((flag.to_string(), "1".to_string()));
                i += 1;
            }
        }
    }
    Ok(out)
}

fn parse_run(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    for (flag, value) in flags(args)? {
        let bad = || format!("--{flag}: cannot read {value:?}");
        match flag.as_str() {
            "workload" => workload = Some(value),
            "seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "trace" | "smoke" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                if flag == "trace" {
                    opts.trace = on;
                } else {
                    opts.smoke = on;
                }
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

/// The result line the driver reads.
pub fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A run that has not answered by then has hung: it fails as a whole,
/// loudly, instead of holding the driver until its own timeout.
fn watchdog(opts: &Options) {
    let limit = Duration::from_secs_f64(if opts.smoke {
        60.0
    } else {
        (opts.seconds + 60.0).max(opts.seconds * 2.0)
    });
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("no result after {limit:?}: a job hung; giving up");
        std::process::exit(3);
    });
}

fn run(workload: &str, opts: &Options) -> RunOutput {
    use workloads::{box27, dist_halo, hotspot, served};
    match workload {
        "hotspot-tile" => workloads::run::<hotspot::Workload>("hotspot-tile", opts),
        "box27-cube" => workloads::run::<box27::Workload>("box27-cube", opts),
        "dist-halo" => workloads::run::<dist_halo::Workload>("dist-halo", opts),
        "served-mix" => workloads::run::<served::Workload>("served-mix", opts),
        other => unreachable!("workload {other:?} was validated"),
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return match crate::agree::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("agree: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, opts) = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so that every thread inherits it.
    match crate::host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("pinned to CPU {cpu}"),
        None => eprintln!("could not pin to one CPU: two-thread jobs will read noisier"),
    }
    if !crate::host::one_malloc_arena() {
        eprintln!("could not cap malloc at one arena: peak_rss_mb will read noisier");
    }
    // The one `Exec::Parallel` probe must not use more than two threads,
    // whatever the host offers.
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("the pool is configured before its first use");
    watchdog(&opts);

    let mut out = run(&workload, &opts);
    println!(
        "{workload}  seed {}  {} s  {}",
        opts.seed,
        opts.seconds,
        if opts.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            eprintln!("{}: not a finite number ({})", m.name, m.value);
            m.value = 0.0;
            out.correct = false;
        }
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<34} {:>16} jobs\n  {:<34} {:>16} jobs",
        "ops_attempted", out.attempted, "ops_failed", out.failed
    );
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Metric;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let (w, o) = parse_run(&args(
            "--workload dist-halo --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "dist-halo");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 12.0, true, false)
        );
        let (_, o) = parse_run(&args("--workload box27-cube --trace 0 --smoke")).unwrap();
        assert_eq!((o.seed, o.trace, o.smoke), (DEFAULT_SEED, false, true));
        let (_, o) = parse_run(&args("--workload box27-cube --trace")).unwrap();
        assert!(o.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload dist-halo --seed x")).is_err());
        assert!(parse_run(&args("--workload dist-halo --trace 2")).is_err());
        assert!(parse_run(&args("--workload dist-halo --seconds 0")).is_err());
        assert!(parse_run(&args("--workload dist-halo --bogus 1")).is_err());
        assert!(parse_run(&args("dist-halo")).is_err());
    }

    #[test]
    fn the_result_line_is_the_contracts_json() {
        let out = RunOutput {
            correct: true,
            attempted: 150,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("x.y-z", 3.0, "1/s"),
            ],
        };
        let v = crate::json::parse(&result_line(&out)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.8127)
        );
        assert_eq!(
            m.get("x.y-z").unwrap().get("unit").unwrap().as_str(),
            Some("1/s")
        );
    }
}
