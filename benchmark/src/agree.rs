//! `agree`: do two sets of runs of the *same build* agree within the
//! benchmark's own bounds?
//!
//! Runs two interleaved sets (A₁ B₁ A₂ B₂ …) of `--runs` runs per workload,
//! run `i` of both sets on seed `seeds[i mod len]` (default: seeds
//! `1..=runs`, a new seed every run; `--seeds 1` holds one seed), and
//! prints per workload × end-to-end metric the medians, quartiles and
//! spreads of both sets, how much worse set B's median is than set A's,
//! the bound from `BENCHMARK.json`, and a verdict. A metric passes when
//! both spreads (interquartile distance over median, quartiles as Python's
//! `statistics.quantiles(v, n=4)`) and the A→B drift stay within its
//! bound; `setup_s` is exempt from the spread rule, as in the driver.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::cli::flags;
use crate::json::{parse, Value};
use crate::stats::{median, quartiles, spread};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

/// `BENCHMARK.json` of the checkout this package was built in.
pub fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text)?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no list {key:?}"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks {key:?}"))
    };
    let strings = |key: &str| -> Result<Vec<String>, String> {
        list(key)?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or(format!("{key}: not a string"))
            })
            .collect()
    };
    Ok(Spec {
        command: strings("command")?,
        paths: strings("paths")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    lower_is_better: match text_of(m, "better")?.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("better: {other:?}")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("an end_to_end metric lacks its bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// One child run: its metric values by name, or why it does not count.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}",
            out.status.code()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = parse(line)?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect: {line}"));
    }
    doc.get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64).ok_or("no value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// By how much of `a` is `b` worse, in the metric's own direction
/// (negative: better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let spec = load_spec(&spec_path())?;
    let mut runs = 10usize;
    let mut seeds: Option<Vec<u64>> = None;
    let mut seconds = spec.run_seconds;
    let mut workloads = spec.workloads.clone();
    for (flag, value) in flags(args)? {
        let bad = || format!("--{flag}: cannot read {value:?}");
        match flag.as_str() {
            "runs" => runs = value.parse().map_err(|_| bad())?,
            "seconds" => seconds = value.parse().map_err(|_| bad())?,
            "seeds" => {
                seeds = Some(
                    value
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?,
                )
            }
            "workloads" => workloads = value.split(',').map(|s| s.trim().to_string()).collect(),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let seeds = seeds.unwrap_or_else(|| (1..=runs as u64).collect());

    println!(
        "agree: 2 interleaved sets x {runs} runs x {seconds} s, seeds {seeds:?}, host nproc {}\n",
        crate::host::nproc()
    );
    println!("| workload | metric | A median | A q1..q3 | A spread | B median | B spread | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for workload in &workloads {
        // sets[set][metric] = values over runs
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); spec.end_to_end.len()],
            vec![Vec::new(); spec.end_to_end.len()],
        ];
        for i in 0..runs {
            let seed = seeds[i % seeds.len()];
            for set in &mut sets {
                let metrics = child(workload, seed, seconds)?;
                for (slot, m) in set.iter_mut().zip(&spec.end_to_end) {
                    let v = metrics
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .ok_or_else(|| format!("{workload}: no metric {}", m.name))?
                        .1;
                    slot.push(v);
                }
            }
            eprintln!("agree: {workload} pair {}/{runs} (seed {seed}) done", i + 1);
        }
        for (k, m) in spec.end_to_end.iter().enumerate() {
            let (a, b) = (&sets[0][k], &sets[1][k]);
            eprintln!("agree: {workload} {} A {a:?} B {b:?}", m.name);
            let (q1, q3) = quartiles(a);
            let drift = worse_by(median(a), median(b), m.lower_is_better);
            let steady = m.name == "setup_s" || (spread(a) <= m.bound && spread(b) <= m.bound);
            let pass = steady && drift <= m.bound;
            all_pass &= pass;
            println!(
                "| {workload} | {} ({}) | {:.5} | {:.5}..{:.5} | {:.2} % | {:.5} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                m.name,
                m.unit,
                median(a),
                q1,
                q3,
                spread(a) * 100.0,
                median(b),
                spread(b) * 100.0,
                drift * 100.0,
                m.bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    println!(
        "\nagree: {}",
        if all_pass {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, true), 0.0);
    }
}
