//! Compares two sets of benchmark results, metric by metric.
//!
//! ```text
//! bench-compare [--spec BENCHMARK.json] <before.jsonl> <after.jsonl>
//! ```
//!
//! Each file holds the result lines `benchmark --out` appends. For every
//! (workload, metric) row present in both sets it prints each side's
//! median, quartiles and sample count, the change of the median, and a
//! verdict against the metric's bound in the spec:
//!
//! - `worse`: the median got worse by more than the bound;
//! - `better`: the median improved by more than the before side's
//!   interquartile spread;
//! - `within-bound`: neither;
//! - `unresolved`: a side's spread exceeds the bound, so the runs cannot
//!   tell, unless every after run beats every before run (`better`).
//!
//! Per-layer metrics have no bound and get no verdict. Exits 1 when any
//! row is `worse`.

use s4e_benchmark::json::Json;
use s4e_benchmark::stats::Summary;
use std::collections::BTreeMap;
use std::process::exit;

/// Samples per (workload, metric) row.
type Rows = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Rows::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let result = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = result.get("metrics").map(Json::members).unwrap_or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                rows.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(rows)
}

/// How a metric is judged: its unit, whether lower is better, and its
/// regression bound (end-to-end metrics only).
struct Rule {
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn rules(spec: &Json) -> BTreeMap<String, Rule> {
    let mut rules = BTreeMap::new();
    for table in ["end_to_end", "per_layer"] {
        for metric in spec.get(table).map(Json::as_arr).unwrap_or_default() {
            let text = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            rules.insert(
                text("name").to_string(),
                Rule {
                    unit: text("unit").to_string(),
                    lower_is_better: text("better") == "lower",
                    bound: metric.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    rules
}

fn verdict(rule: &Rule, before: &[f64], after: &[f64], a: &Summary, b: &Summary) -> &'static str {
    let Some(bound) = rule.bound else {
        return "-";
    };
    // Positive when the after side is worse.
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = after.iter().all(|&x| before.iter().all(|&y| beats(x, y)));
    if a.spread().max(b.spread()) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > a.spread() {
        "better"
    } else {
        "within-bound"
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path = "BENCHMARK.json".to_string();
    if let Some(at) = args.iter().position(|a| a == "--spec") {
        if at + 1 >= args.len() {
            eprintln!("bench-compare: --spec needs a path");
            exit(2);
        }
        spec_path = args.remove(at + 1);
        args.remove(at);
    }
    let [before, after] = args.as_slice() else {
        eprintln!("usage: bench-compare [--spec BENCHMARK.json] <before.jsonl> <after.jsonl>");
        exit(2);
    };
    let loaded = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{spec_path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{spec_path}: {e}")))
        .and_then(|spec| Ok((rules(&spec), load(before)?, load(after)?)));
    let (rules, before, after) = loaded.unwrap_or_else(|e| {
        eprintln!("bench-compare: {e}");
        exit(2);
    });

    let mut worse = 0;
    println!("workload metric unit | before median [q1, q3] n | after median [q1, q3] n | change | verdict");
    for ((workload, metric), a_values) in &before {
        let (Some(b_values), Some(rule)) = (
            after.get(&(workload.clone(), metric.clone())),
            rules.get(metric),
        ) else {
            continue;
        };
        let (a, b) = (Summary::of(a_values), Summary::of(b_values));
        let change = if a.median == 0.0 {
            0.0
        } else {
            (b.median - a.median) / a.median.abs() * 100.0
        };
        let verdict = verdict(rule, a_values, b_values, &a, &b);
        worse += usize::from(verdict == "worse");
        println!(
            "{workload} {metric} {} | {:.6} [{:.6}, {:.6}] {} | {:.6} [{:.6}, {:.6}] {} | {change:+.2}% | {verdict}",
            rule.unit, a.median, a.q1, a.q3, a.n, b.median, b.q1, b.q3, b.n
        );
    }
    if worse > 0 {
        eprintln!("bench-compare: {worse} metric(s) worse than their bound");
        exit(1);
    }
}
