//! The harness chaos suite: sharded campaigns driven through the real
//! `s4e` binary while workers are SIGKILLed, hung and ballooned
//! mid-sweep. The supervised run must converge to classifications
//! byte-identical to an undisturbed run — crash recovery must never
//! lose, duplicate or alter a result.
//!
//! Chaos is injected two ways, both test-only and env-driven so the
//! production binary stays untouched:
//!
//! - `S4E_CHAOS=seed=..,kill=..,max=..` — the *supervisor* SIGKILLs its
//!   own workers at random, seeded, bounded by `max` disruptions.
//! - `S4E_CHAOS_{ABORT,HANG,OOM}_AFTER=n` / `S4E_CHAOS_CRASH_AT=i` —
//!   inherited by every *worker*, which aborts/hangs/balloons after `n`
//!   classifications (or deterministically on mutant `i`).

use std::path::{Path, PathBuf};
use std::process::Command;

const PROGRAM: &str =
    "li a0, 1\nli a1, 2\nadd a0, a0, a1\nla t0, d\nsw a0, 0(t0)\nebreak\nd: .word 0\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("s4e-chaos-tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_program(dir: &Path) -> PathBuf {
    let path = dir.join("prog.s");
    std::fs::write(&path, PROGRAM).expect("program file");
    path
}

/// Runs `s4e campaign` on the test program with the given extra flags
/// and environment, returning (exit code, stdout).
fn s4e_campaign(prog: &Path, flags: &[&str], envs: &[(&str, &str)]) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_s4e"));
    cmd.arg("campaign")
        .arg(prog)
        .args(["--mutants", "1", "--isa", "rv32imc"])
        .args(flags)
        .stdin(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("s4e runs");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The undisturbed sharded sweep: the reference both for exit status and
/// for the merged checkpoint bytes.
fn undisturbed(dir: &Path, prog: &Path) -> Vec<u8> {
    let ckpt = dir.join("reference.jsonl");
    let (code, out) = s4e_campaign(
        prog,
        &["--shards", "3", "--checkpoint", ckpt.to_str().unwrap()],
        &[],
    );
    assert_eq!(code, 0, "clean sharded run exits 0:\n{out}");
    assert!(out.contains("shards: 0 crashes"), "{out}");
    std::fs::read(&ckpt).expect("reference checkpoint")
}

#[test]
fn random_sigkills_converge_to_identical_classifications() {
    let dir = temp_dir("sigkill");
    let prog = write_program(&dir);
    let reference = undisturbed(&dir, &prog);

    let ckpt = dir.join("chaos.jsonl");
    // Seeded random SIGKILLs, bounded at 4 so the sweep always converges;
    // --max-retries above the disruption bound keeps healthy mutants out
    // of quarantine even if every kill lands on the same shard.
    let (code, out) = s4e_campaign(
        &prog,
        &[
            "--shards",
            "3",
            "--max-retries",
            "6",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
        &[("S4E_CHAOS", "seed=3,kill=0.7,max=4")],
    );
    assert_eq!(code, 0, "chaos run still completes:\n{out}");
    let disturbed = std::fs::read(&ckpt).expect("chaos checkpoint");
    assert_eq!(
        disturbed, reference,
        "byte-identical merged checkpoints despite SIGKILLs"
    );
}

#[test]
fn worker_aborts_recover_from_shard_checkpoints() {
    let dir = temp_dir("abort");
    let prog = write_program(&dir);
    let reference = undisturbed(&dir, &prog);

    let ckpt = dir.join("abort.jsonl");
    // Every worker attempt aborts (SIGABRT, not a panic — it bypasses
    // the in-process isolation) after 2 classifications; progress resets
    // the crash count, so the supervisor restarts its way to the end.
    let (code, out) = s4e_campaign(
        &prog,
        &["--shards", "2", "--checkpoint", ckpt.to_str().unwrap()],
        &[("S4E_CHAOS_ABORT_AFTER", "2")],
    );
    assert_eq!(code, 0, "aborting workers still converge:\n{out}");
    assert!(
        !out.contains("shards: 0 crashes"),
        "crashes observed: {out}"
    );
    assert_eq!(
        std::fs::read(&ckpt).expect("checkpoint"),
        reference,
        "byte-identical despite per-attempt aborts"
    );
}

#[test]
fn hung_workers_are_killed_by_the_stall_watchdog() {
    let dir = temp_dir("hang");
    let prog = write_program(&dir);
    let reference = undisturbed(&dir, &prog);

    let ckpt = dir.join("hang.jsonl");
    // Workers hang after 3 classifications; a 300 ms stall watchdog
    // kills and restarts them until the sweep completes.
    let (code, out) = s4e_campaign(
        &prog,
        &[
            "--shards",
            "2",
            "--shard-stall-ms",
            "300",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
        &[("S4E_CHAOS_HANG_AFTER", "3")],
    );
    assert_eq!(code, 0, "hung workers still converge:\n{out}");
    assert!(
        !out.contains("shards: 0 crashes"),
        "stall kills observed: {out}"
    );
    assert_eq!(
        std::fs::read(&ckpt).expect("checkpoint"),
        reference,
        "byte-identical despite hangs"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn ballooning_workers_are_killed_by_the_memory_budget() {
    let dir = temp_dir("oom");
    let prog = write_program(&dir);
    let reference = undisturbed(&dir, &prog);

    let ckpt = dir.join("oom.jsonl");
    // Workers balloon their memory after 3 classifications; the 150 MiB
    // RSS budget kills them (the stall watchdog is the backstop).
    let (code, out) = s4e_campaign(
        &prog,
        &[
            "--shards",
            "2",
            "--shard-mem-mb",
            "150",
            "--shard-stall-ms",
            "2000",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
        &[("S4E_CHAOS_OOM_AFTER", "3")],
    );
    assert_eq!(code, 0, "ballooning workers still converge:\n{out}");
    assert!(
        !out.contains("shards: 0 crashes"),
        "OOM kills observed: {out}"
    );
    assert_eq!(
        std::fs::read(&ckpt).expect("checkpoint"),
        reference,
        "byte-identical despite memory kills"
    );
}

#[test]
fn chaos_progress_counters_reach_the_metrics_snapshot() {
    let dir = temp_dir("metrics");
    let prog = write_program(&dir);
    let ckpt = dir.join("m.jsonl");
    let metrics = dir.join("m.json");
    let (code, out) = s4e_campaign(
        &prog,
        &[
            "--shards",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
        &[("S4E_CHAOS_ABORT_AFTER", "2")],
    );
    assert_eq!(code, 0, "{out}");
    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    let snap = scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics");
    let crashes = snap.counter("campaign_shard_crashes").unwrap_or(0);
    let restarts = snap.counter("campaign_shard_restarts").unwrap_or(0);
    assert!(crashes > 0, "crash counter live: {json}");
    assert!(restarts > 0, "restart counter live: {json}");
    assert!(
        snap.counter("campaign_shard_backoff_ms").unwrap_or(0) > 0,
        "backoff accounted: {json}"
    );
    assert_eq!(snap.gauge("campaign_shards"), Some(2), "{json}");
}

#[test]
fn quarantined_mutant_leaves_a_forensic_bundle() {
    let dir = temp_dir("quarantine-bundle");
    let prog = write_program(&dir);
    let ckpt = dir.join("q.jsonl");
    let traces = dir.join("traces");
    // Mutant 5 deterministically aborts every attempt: the supervisor
    // bisects down to it, quarantines it, and — with a trace dir armed —
    // must leave an incident bundle naming the FaultSpec.
    let (code, out) = s4e_campaign(
        &prog,
        &[
            "--shards",
            "2",
            "--max-retries",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--trace-dir",
            traces.to_str().unwrap(),
        ],
        &[("S4E_CHAOS_CRASH_AT", "5")],
    );
    assert_eq!(code, 2, "quarantine exit code:\n{out}");
    let bundles: Vec<PathBuf> = std::fs::read_dir(&traces)
        .expect("trace dir created")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("quarantined-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(bundles.len(), 1, "one quarantine bundle: {bundles:?}");
    let text = std::fs::read_to_string(&bundles[0]).expect("bundle readable");
    assert!(text.contains("\"incident\":\"quarantined\""), "{text}");
    assert!(text.contains("\"spec\":{"), "bundle names the spec: {text}");
    // The attempt history records the supervision chain that convicted
    // the mutant: crash, backoff/restart, bisection.
    assert!(text.contains("\"attempts\":["), "{text}");
    assert!(text.contains("bisect"), "{text}");
    // Mutant suffixes execute natively by default now; the block entries
    // native code writes must keep feeding the forensic tail, so the bundle
    // still carries the blocks the convicted mutant ran through.
    assert!(text.contains("\"flight\":{"), "{text}");
    assert!(
        !text.contains("\"tail\":[]"),
        "quarantine bundles must carry a flight tail with native mutants: {text}"
    );
    assert!(
        text.contains("{\"ev\":\"block\""),
        "the tail must contain block-entry events: {text}"
    );
    // The summary points the operator at the bundle.
    assert!(out.contains("quarantined:"), "{out}");
    assert!(
        out.contains(bundles[0].file_name().unwrap().to_str().unwrap()),
        "summary links the bundle:\n{out}"
    );
}
