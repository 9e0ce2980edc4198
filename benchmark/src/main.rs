//! The repository benchmark command. See `BENCHMARK.md` for the
//! workloads and metrics.

use s4e_benchmark::{campaign, vp, Ctx, Scale, WORKLOADS};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{exit, Command};

const USAGE: &str = "\
usage: benchmark --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
                 [--scale <bench|tiny>] [--trace-out <dir>] [--out <results.jsonl>]

workloads: campaign-generated campaign-live campaign-sharded vp-run qta-cosim

Prints one line per metric, `workload metric value unit (median, q1, q3, n)`,
then the result as one JSON line. --trace 1 makes the separate traced run,
which reports the per-layer metrics instead of the end-to-end ones and, with
--trace-out, writes its Chrome trace to <dir>/<workload>.trace.json. --out
appends each result, tagged with workload, seed and trace, to a JSONL file
for bench-compare. Exits 1 when an output fails its oracle check.";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        scale: Scale::Bench,
        trace_out: None,
        out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                parsed.scale = match value.as_str() {
                    "bench" => Scale::Bench,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&raw).unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}\n\n{USAGE}");
        exit(2);
    });
    if args.workload == "all" {
        exit(run_all(&raw));
    }
    let exe = std::env::current_exe().expect("the running binary has a path");
    // The build directory holds both binaries and the scratch space, so
    // a run reads and writes nothing outside it.
    let build_dir = exe.parent().expect("binaries live in a directory");
    let work_dir = build_dir.join("..").join("bench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).expect("scratch directory can be created");
    if let Some(dir) = &args.trace_out {
        std::fs::create_dir_all(dir).expect("trace directory can be created");
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        work_dir: work_dir.clone(),
        s4e: build_dir.join("s4e"),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        trace_out: args
            .trace_out
            .as_ref()
            .filter(|_| args.trace)
            .map(|dir| dir.join(format!("{}.trace.json", args.workload))),
    };
    let report = match args.workload.as_str() {
        "campaign-generated" => campaign::in_process(&ctx, false),
        "campaign-live" => campaign::in_process(&ctx, true),
        "campaign-sharded" => campaign::sharded(&ctx),
        "vp-run" => vp::vp_run(&ctx),
        _ => vp::qta_cosim(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    for mismatch in &report.mismatches {
        eprintln!("oracle mismatch: {mismatch}");
    }
    let json = report.json(args.trace);
    if let Some(path) = &args.out {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            args.workload,
            args.seed,
            u8::from(args.trace),
            &json[1..]
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("results file can be opened");
        writeln!(file, "{line}").expect("results file can be written");
    }
    print!("{}", report.human(&args.workload, args.trace));
    println!("{json}");
    exit(if report.correct() { 0 } else { 1 });
}

/// Runs every workload in a fresh child process, one at a time, so each
/// gets its own memory high-water mark and JIT arenas. Returns the exit
/// code: the first failing child's, or 0.
fn run_all(raw: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut code = 0;
    for workload in WORKLOADS {
        let mut args = raw.to_vec();
        let at = args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        args[at] = workload.to_string();
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .expect("the benchmark can run itself");
        if !status.success() && code == 0 {
            eprintln!("benchmark: {workload} failed ({status})");
            code = status.code().unwrap_or(1);
        }
    }
    code
}
