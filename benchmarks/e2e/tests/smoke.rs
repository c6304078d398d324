//! Runs every workload, untraced and traced, at one hundredth of its
//! size and holds what the benchmark prints against `BENCHMARK.json`:
//! the gate passes, and the workload and metric names (and units) are
//! exactly the declared sets.

use std::collections::BTreeMap;
use std::process::Command;

use btwc_e2e::json::Json;
use btwc_e2e::report::benchmark_json_path;
use btwc_e2e::workload;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `name -> unit` of one metric table of `BENCHMARK.json`.
fn declared(doc: &Json, table: &str) -> BTreeMap<String, String> {
    doc.get(table)
        .expect("table present")
        .items()
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns `name -> unit` of what it printed.
fn emitted(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let output = Command::new(env!("CARGO_BIN_EXE_btwc-e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0", "--scale", "0.01"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}\n{stderr}");
    let line =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result line parses");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}: gate failed\n{stderr}");
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
    line.get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name} is not a finite number");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_passes_its_gate_and_prints_the_declared_metrics() {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");

    let declared_workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let built: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(declared_workloads, built, "BENCHMARK.json and the binary disagree on workloads");

    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for name in declared_workloads
        .iter()
        .copied()
        .chain(end_to_end.keys().chain(per_layer.keys()).map(String::as_str))
    {
        assert!(is_name(name), "{name:?} is not a valid name");
    }
    assert!(end_to_end.contains_key("setup_s"));

    for name in &declared_workloads {
        assert_eq!(emitted(name, "0"), end_to_end, "{name}: end-to-end metrics");
        assert_eq!(emitted(name, "1"), per_layer, "{name}: per-layer metrics");
    }
}
