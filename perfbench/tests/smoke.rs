//! Smoke test of the benchmark command: every workload in
//! `BENCHMARK.json`, traced and untraced, runs a handful of steps, passes
//! its correctness checks (pinned digest, sim-vs-sequential digest,
//! traced-vs-untraced bit identity) and prints every named metric with
//! its unit and a finite value.

use serde::{Deserialize, Value};
use std::process::Command;

/// Any JSON document, kept as the shim's value model.
struct Json(Value);

impl Deserialize for Json {
    fn deserialize(value: &Value) -> Result<Self, serde::de::Error> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .unwrap_or_else(|e| panic!("not JSON ({e:?}): {text}"))
        .0
}

fn get<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key `{key}` in {value:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    value
        .as_str()
        .unwrap_or_else(|| panic!("not a string: {value:?}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(contract: &Value, section: &str) -> Vec<(String, String)> {
    get(contract, section)
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|m| (text(get(m, "name")).into(), text(get(m, "unit")).into()))
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let contract = parse(include_str!("../../BENCHMARK.json"));
    let mut names: Vec<&str> = get(&contract, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| text(get(w, "name")))
        .collect();
    // Defined in the benchmark but kept out of BENCHMARK.json (see
    // README.md); smoke it too so it keeps working.
    names.push("stress-d1e5");
    for name in names {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = parse(lines[lines.len() - 1]);
            let keys: Vec<&str> = result
                .as_map()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&result, "correct"), &Value::Bool(true), "{name}");
            assert!(number(get(&result, "attempted")) >= 1.0);
            assert_eq!(number(get(&result, "failed")), 0.0);

            let metrics = get(&result, "metrics");
            let printed = metrics.as_map().expect("an object");
            let wanted = declared(&contract, section);
            assert_eq!(printed.len(), wanted.len(), "{name} trace {trace}");
            for (metric, unit) in &wanted {
                let m = get(metrics, metric);
                assert_eq!(text(get(m, "unit")), unit, "{name} {metric}");
                let value = number(get(m, "value"));
                assert!(value.is_finite(), "{name} {metric} = {value}");
            }

            let provenance = parse(lines[lines.len() - 2]);
            let provenance = get(&provenance, "provenance");
            for key in ["nproc", "cpu_model", "rustc", "git_rev", "seed", "trace"] {
                get(provenance, key);
            }
            assert_eq!(text(get(provenance, "workload")), name);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "paper-seq", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
