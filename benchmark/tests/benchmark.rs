//! Smoke test: every workload at `--scale tiny`, untraced and traced,
//! must pass its oracle checks and report exactly the metrics
//! `BENCHMARK.json` declares.

use s4e_benchmark::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, table: &str) -> Vec<String> {
    spec.get(table)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

/// Builds `s4e` next to the benchmark binary, where the sharded workload
/// looks for it, with the profile the benchmark was built with.
fn build_s4e(bench: &Path) {
    let profile_dir = bench.parent().expect("binaries live in a directory");
    let target = profile_dir
        .parent()
        .expect("profile directories live in a target");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args([
            "build",
            "--offline",
            "--quiet",
            "--bin",
            "s4e",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
        .env("CARGO_TARGET_DIR", target);
    if profile_dir.ends_with("release") {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("cargo runs");
    assert!(status.success(), "building s4e failed: {status}");
}

#[test]
fn every_workload_passes_its_oracles_and_reports_the_declared_metrics() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads, s4e_benchmark::WORKLOADS, "declared workloads");
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_benchmark"));
    build_s4e(&bench);
    for workload in &workloads {
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(&bench)
                .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
                .args(["--trace", trace, "--scale", "tiny"])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Json::parse(stdout.lines().last().unwrap_or_default())
                .expect("the last line is the JSON result");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            let metrics = result.get("metrics").map(Json::members).unwrap_or_default();
            let reported: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(reported, names(&spec, table), "{workload} --trace {trace}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some(), "{workload} {name}: {metric:?}");
                if table == "end_to_end" {
                    assert!(value > Some(0.0), "{workload} {name} must not be 0");
                }
            }
        }
    }
}
