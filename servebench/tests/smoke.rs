//! Runs the benchmark's seconds-long smoke mode on every workload, plain
//! and traced, from the repository root: every metric `BENCHMARK.json`
//! names must appear with its unit, every correctness check must pass,
//! and the traced run's deterministic counts must repeat exactly.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["sitting_mixed", "sitting_durable", "analysis_dashboard"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// `(name, unit)` pairs of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let contract: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    contract
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke invocation; returns stdout and the parsed result line.
fn smoke(binary: &str, workload: &str, trace: &str) -> (String, Value) {
    // The traced run spends a quarter of its time on the served path.
    let seconds = if trace == "1" { "6" } else { "2" };
    let output = Command::new(binary)
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            seconds,
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert!(
        matches!(
            result.get("failed"),
            Some(Value::Number(serde::Number::PosInt(0)))
        ),
        "{stdout}"
    );
    (stdout, result)
}

fn assert_metrics(result: &Value, declared: &[(String, String)], stdout: &str) {
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{stdout}"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            matches!(metric.get("value"), Some(Value::Number(_))),
            "{name}"
        );
        assert!(
            stdout.contains(&format!("metric {name} ")),
            "{name} has no metric line"
        );
    }
    assert_eq!(
        metrics.as_object().map(<[_]>::len),
        Some(declared.len()),
        "only declared metrics"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let declared = declared("end_to_end");
    for workload in WORKLOADS {
        let (stdout, result) = smoke(env!("CARGO_BIN_EXE_servebench"), workload, "0");
        assert_metrics(&result, &declared, &stdout);
        assert!(stdout.contains("check ok: served analysis"), "{stdout}");
        assert!(stdout.contains("metric error_rate"), "{stdout}");
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_repeats_its_counts() {
    let declared = declared("per_layer");
    let counted = [
        "journal.event_bytes.mean",
        "store.wal_bytes_per_payload_byte",
        "serialize.report_bytes",
        "journal.snapshots_per_1k_events",
        "requests_per_sitting",
    ];
    for workload in WORKLOADS {
        let runs: Vec<(String, Value)> = (0..2)
            .map(|_| smoke(env!("CARGO_BIN_EXE_servebench-trace"), workload, "1"))
            .collect();
        for (stdout, result) in &runs {
            assert_metrics(result, &declared, stdout);
            assert!(stdout.contains("# reconcile answer:"), "{stdout}");
            assert!(stdout.contains("# tracing overhead:"), "{stdout}");
        }
        let counts = |(stdout, _): &(String, Value)| -> String {
            stdout
                .lines()
                .find(|line| line.starts_with("# counts "))
                .expect("a counts line")
                .to_string()
        };
        assert_eq!(counts(&runs[0]), counts(&runs[1]), "{workload}");
        for name in counted {
            let value = |(_, result): &(String, Value)| {
                result.get("metrics").and_then(|m| m.get(name)).cloned()
            };
            assert_eq!(value(&runs[0]), value(&runs[1]), "{workload} {name}");
        }
    }
}
