//! `BENCHMARK.json` and the benchmark's output agree with each other and
//! with the contract the driver holds the benchmark to.

use std::collections::BTreeSet;
use std::process::Command;

use stencil_benchmark::agree::{load_spec, spec_path};
use stencil_benchmark::cli::WORKLOADS;
use stencil_benchmark::json::{parse, Value};

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; ≤ 64.
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Letters, digits, `_`, `/`, `%`, `.`, `-`; ≤ 16.
fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    let text = std::fs::read_to_string(spec_path()).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "file too large");
    let doc = parse(&text).expect("valid JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly the contract's keys"
    );
    let spec = load_spec(&spec_path()).unwrap();

    assert!((1..=32).contains(&spec.command.len()));
    for arg in &spec.command {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    assert_eq!(spec.paths, ["benchmark"]);
    assert!(spec.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&spec.run_seconds));
    // 4 + 22 runs per workload, their set-up and two builds, in 3420 s.
    let runs = 4.0 + 22.0 * spec.workloads.len() as f64;
    assert!(
        runs * (spec.run_seconds + 3.0) + 2.0 * 120.0 <= 3420.0,
        "run-time cap"
    );

    assert_eq!(spec.workloads, WORKLOADS, "the binary's workloads");
    for w in doc.get("workloads").unwrap().as_array().unwrap() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }

    let mut seen = BTreeSet::new();
    for w in &spec.workloads {
        assert!(is_name(w) && seen.insert(w.clone()), "name {w}");
    }
    assert!((1..=16).contains(&spec.end_to_end.len()));
    for (m, raw) in spec
        .end_to_end
        .iter()
        .zip(doc.get("end_to_end").unwrap().as_array().unwrap())
    {
        assert_eq!(keys(raw), ["name", "unit", "better", "bound"]);
        assert!(
            is_name(&m.name) && seen.insert(m.name.clone()),
            "name {}",
            m.name
        );
        assert!(is_unit(&m.unit), "unit {}", m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert!(setup.unit == "s" && setup.lower_is_better);
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    assert!((1..=128).contains(&spec.per_layer.len()));
    for ((name, unit), raw) in spec
        .per_layer
        .iter()
        .zip(doc.get("per_layer").unwrap().as_array().unwrap())
    {
        assert_eq!(keys(raw), ["name", "unit", "better"]);
        assert!(is_name(name) && seen.insert(name.clone()), "name {name}");
        assert!(is_unit(unit), "unit {unit}");
        let better = raw.get("better").unwrap().as_str().unwrap();
        assert!(better == "lower" || better == "higher");
    }
}

/// One smoke run; returns its parsed result line.
fn smoke(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_stencil-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().last().expect("a result line");
    parse(line).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {line}"))
}

/// Every declared metric is printed exactly once, with its declared unit
/// and a finite value, and nothing undeclared is printed.
fn assert_metrics(workload: &str, result: &Value, declared: &[(String, String)]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").unwrap().as_f64(),
        Some(0.0),
        "{workload}"
    );
    let attempted = result.get("attempted").unwrap().as_f64().unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    let printed = result.get("metrics").unwrap().as_object().unwrap();
    for (name, unit) in declared {
        let hits: Vec<&Value> = printed
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "{workload}: {name} printed {} times",
            hits.len()
        );
        assert_eq!(keys(hits[0]), ["value", "unit"], "{workload}: {name}");
        assert_eq!(
            hits[0].get("unit").unwrap().as_str(),
            Some(unit.as_str()),
            "{name}"
        );
        let value = hits[0].get("value").unwrap().as_f64().unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    assert_eq!(
        printed.len(),
        declared.len(),
        "{workload}: undeclared metrics printed"
    );
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = load_spec(&spec_path()).unwrap();
    let end_to_end: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let started = std::time::Instant::now();
    for workload in &spec.workloads {
        let result = smoke(workload, false);
        assert_metrics(workload, &result, &end_to_end);
        // End-to-end metrics are never zero.
        for (name, _) in &end_to_end {
            let v = result.get("metrics").unwrap().get(name).unwrap();
            assert!(
                v.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{workload}: {name}"
            );
        }
    }
    let untraced = started.elapsed();
    assert!(
        untraced.as_secs_f64() < 15.0,
        "smoke of all four workloads took {untraced:?}"
    );

    for workload in &spec.workloads {
        let result = smoke(workload, true);
        assert_metrics(workload, &result, &spec.per_layer);
        let metrics = result.get("metrics").unwrap();
        let value = |name: &str| {
            metrics
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(value("fault.fired"), value("fault.injected"), "{workload}");
        assert_eq!(
            value("core.detections"),
            value("core.corrections"),
            "{workload}"
        );
        assert_eq!(value("core.false_positives"), 0.0, "{workload}");
        assert_eq!(value("service.jobs_failed"), 0.0, "{workload}");

        let path = stencil_benchmark::out_dir().join(format!("{workload}.trace.json"));
        let trace = parse(&std::fs::read_to_string(&path).expect("the trace file"))
            .expect("a loadable Chrome trace");
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len() as f64, value("trace.spans"), "{workload}");
        for name in ["run", "cycle", "slice:P", "job"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").unwrap().as_str() == Some(name)),
                "{workload}: no {name} span"
            );
        }
    }
}
