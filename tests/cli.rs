//! Tests for the `s4e` command-line driver (through the testable
//! `run_command` core, plus the real binary where exit codes and
//! process supervision are the subject).

use scale4edge::cli::{run_cli, run_command, run_command_full};

const LOOP_PROGRAM: &str = "li t0, 5\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak";
const CAMPAIGN_PROGRAM: &str =
    "li a0, 1\nli a1, 2\nadd a0, a0, a1\nla t0, d\nsw a0, 0(t0)\nebreak\nd: .word 0\n";

#[test]
fn help_prints_usage() {
    let out = run_cli(&["help".to_string()]).expect("help works");
    assert!(out.contains("USAGE"));
    assert!(out.contains("qta"));
}

#[test]
fn missing_args_are_usage_errors() {
    assert!(run_cli(&[]).is_err());
    assert!(run_cli(&["run".to_string()]).is_err());
    let e = run_cli(&["run".to_string(), "/nonexistent.s".to_string()]).unwrap_err();
    assert!(e.to_string().contains("cannot read"));
}

#[test]
fn run_command_executes() {
    let out = run_command("run", "li a0, 42\nebreak", &[]).expect("runs");
    assert!(out.contains("outcome : Break"));
    assert!(out.contains("a0      : 42"));
}

#[test]
fn run_reports_console_output() {
    let src = r#"
        .equ SYSCON, 0x11000000
        li t0, SYSCON
        li t1, 'h'
        sw t1, 4(t0)
        li t1, 'i'
        sw t1, 4(t0)
        ebreak
    "#;
    let out = run_command("run", src, &[]).expect("runs");
    assert!(out.contains("console : hi"), "{out}");
}

#[test]
fn disasm_lists_instructions_and_symbols() {
    let out = run_command("disasm", "main: addi a0, zero, 7\nebreak", &[]).expect("disasm");
    assert!(out.contains("main:"), "{out}");
    assert!(out.contains("addi a0, zero, 7"), "{out}");
    assert!(out.contains("0x80000000"), "{out}");
}

#[test]
fn cfg_emits_dot() {
    let out = run_command("cfg", LOOP_PROGRAM, &[]).expect("cfg");
    assert!(out.contains("digraph"));
    assert!(out.contains("->"));
}

#[test]
fn wcet_report_with_inferred_bound() {
    let out = run_command("wcet", LOOP_PROGRAM, &[]).expect("wcet");
    assert!(out.contains("bound 5 (inferred)"), "{out}");
    assert!(out.contains("program WCET"), "{out}");
}

#[test]
fn wcet_with_explicit_bound() {
    // An uninferable loop (data-dependent sub) needs --bound.
    let src = "li t0, 8\nli t1, 1\nlabel: sub t0, t0, t1\nbnez t0, label\nebreak";
    let err = run_command("wcet", src, &[]).unwrap_err();
    assert!(err.to_string().contains("no loop bound"), "{err}");
    let out = run_command("wcet", src, &["--bound", "label=8"]).expect("wcet");
    assert!(out.contains("bound 8 (annotated)"), "{out}");
}

#[test]
fn qta_invariant_line() {
    let out = run_command("qta", LOOP_PROGRAM, &[]).expect("qta");
    assert!(out.contains("invariant chain: true"), "{out}");
    assert!(out.contains("dynamic cycles"));
}

#[test]
fn coverage_summary() {
    let out = run_command("coverage", "add a0, a1, a2\nebreak", &["--isa", "rv32i"]).expect("cov");
    assert!(out.contains("GPR coverage"), "{out}");
    assert!(out.contains("RV32IZicsr"), "{out}");
}

#[test]
fn faults_summary() {
    let out = run_command(
        "faults",
        "li a0, 1\nli a1, 2\nadd a0, a0, a1\nla t0, d\nsw a0, 0(t0)\nebreak\nd: .word 0",
        &["--mutants", "1", "--isa", "rv32imc"],
    )
    .expect("faults");
    assert!(out.contains("mutants:"), "{out}");
    assert!(out.contains("normal termination rate"), "{out}");
}

#[test]
fn bad_option_values_error() {
    assert!(run_command("run", "ebreak", &["--isa", "rv64"]).is_err());
    assert!(run_command("run", "ebreak", &["--bound", "nonsense"]).is_err());
    assert!(run_command("run", "ebreak", &["--what"]).is_err());
    assert!(run_command("nonsense", "ebreak", &[]).is_err());
    assert!(run_command("wcet", LOOP_PROGRAM, &["--bound", "nosuch=4"]).is_err());
}

#[test]
fn zero_and_absurd_campaign_values_are_rejected_with_clear_errors() {
    let err = run_command("campaign", CAMPAIGN_PROGRAM, &["--timeout-ms", "0"]).unwrap_err();
    assert!(
        err.to_string().contains("--timeout-ms 0 is invalid"),
        "{err}"
    );
    assert!(err.to_string().contains("omit the flag"), "{err}");

    let err = run_command("campaign", CAMPAIGN_PROGRAM, &["--shards", "0"]).unwrap_err();
    assert!(err.to_string().contains("--shards 0 is invalid"), "{err}");

    let err = run_command("campaign", CAMPAIGN_PROGRAM, &["--max-retries", "0"]).unwrap_err();
    assert!(
        err.to_string().contains("--max-retries 0 is invalid"),
        "{err}"
    );

    let err = run_command("campaign", CAMPAIGN_PROGRAM, &["--shard-stall-ms", "0"]).unwrap_err();
    assert!(
        err.to_string().contains("--shard-stall-ms 0 is invalid"),
        "{err}"
    );

    // An absurd shard count survives parsing but fails supervisor
    // validation (before any checkpoint requirement kicks in).
    let err = run_command(
        "campaign",
        CAMPAIGN_PROGRAM,
        &["--shards", "100000", "--checkpoint", "/tmp/unused.jsonl"],
    )
    .unwrap_err();
    assert!(err.to_string().contains("absurd"), "{err}");
}

#[test]
fn sharded_campaign_requires_a_checkpoint() {
    let err = run_command("campaign", CAMPAIGN_PROGRAM, &["--shards", "2"]).unwrap_err();
    assert!(
        err.to_string().contains("--shards needs --checkpoint"),
        "{err}"
    );
}

// ------------------------------------------------------- exit codes

#[test]
fn clean_campaign_exits_zero() {
    let outcome = run_command_full(
        "campaign",
        CAMPAIGN_PROGRAM,
        &["--mutants", "1", "--isa", "rv32imc"],
    )
    .expect("campaign");
    assert_eq!(outcome.code, 0);
    assert!(outcome.output.contains("normal termination rate"));
}

fn cli_test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("s4e-cli-exit-tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn campaign_with_quarantined_mutant_exits_2() {
    let dir = cli_test_dir("quarantine");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let ckpt = dir.join("q.jsonl");
    // A deterministic worker-killer on mutant index 5: every attempt
    // aborts on reaching it, so the supervisor bisects down to it and
    // quarantines — the campaign completes with the distinct exit code.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
        .arg("campaign")
        .arg(&prog)
        .args(["--mutants", "1", "--isa", "rv32imc"])
        .args(["--shards", "2", "--max-retries", "2"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .env("S4E_CHAOS_CRASH_AT", "5")
        .output()
        .expect("s4e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("quarantined:"), "{stdout}");
    assert!(stdout.contains("bisections"), "{stdout}");
    // The quarantined classification is durable in the checkpoint.
    let ckpt_text = std::fs::read_to_string(&ckpt).expect("checkpoint");
    assert!(ckpt_text.contains("\"quarantined\""), "{ckpt_text}");
}

#[test]
fn interrupted_campaign_flushes_checkpoint_and_exits_130() {
    let dir = cli_test_dir("interrupt");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let ckpt = dir.join("i.jsonl");
    // The worker hangs after 2 classifications (the default 30 s stall
    // watchdog won't fire); once its records land we SIGTERM the
    // supervisor and expect a graceful 130 with partial results flushed.
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
        .arg("campaign")
        .arg(&prog)
        .args(["--mutants", "1", "--isa", "rv32imc"])
        .args(["--shards", "1"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .env("S4E_CHAOS_HANG_AFTER", "2")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("s4e starts");
    // Wait for the shard worker's first records (proof the supervisor
    // loop — and its signal handler — is up).
    let shard_dir = dir.join("i.jsonl.shards");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    'wait: loop {
        assert!(std::time::Instant::now() < deadline, "worker never wrote");
        if let Ok(entries) = std::fs::read_dir(&shard_dir) {
            for entry in entries.flatten() {
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                if len > 0 {
                    break 'wait;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    let output = child.wait_with_output().expect("s4e exits");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(130), "{stdout}");
    assert!(
        stdout.contains("interrupted: partial results checkpointed"),
        "{stdout}"
    );
    // The flushed merged checkpoint holds the streamed prefix.
    let flushed = std::fs::read_to_string(&ckpt).expect("merged checkpoint");
    assert!(!flushed.trim().is_empty(), "partial results were flushed");
}

#[test]
fn rvc_option_shrinks_disasm() {
    let plain = run_command("disasm", "addi a0, a0, 1\nebreak", &[]).expect("disasm");
    let packed = run_command("disasm", "addi a0, a0, 1\nebreak", &["--rvc"]).expect("disasm");
    // Second instruction starts earlier under compression.
    assert!(plain.contains("0x80000004"));
    assert!(packed.contains("0x80000002"));
}

#[test]
fn max_insns_budget() {
    let out = run_command("run", "loop: j loop", &["--max-insns", "1000"]).expect("runs");
    assert!(out.contains("InsnLimit"), "{out}");
}

#[test]
fn two_step_flow_emit_and_consume_tcfg() {
    // The published deployment flow: produce the annotated CFG once
    // (the ait2qta output), then co-simulate binary + shipped CFG without
    // re-running analysis.
    let dir = std::env::temp_dir().join("s4e_cli_tcfg_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tcfg = dir.join("prog.tcfg");
    let tcfg_str = tcfg.to_str().unwrap();

    let out = run_command("wcet", LOOP_PROGRAM, &["--emit-tcfg", tcfg_str]).expect("wcet");
    assert!(out.contains("annotated CFG written"), "{out}");
    let shipped = std::fs::read_to_string(&tcfg).unwrap();
    assert!(shipped.contains("wcet "), "{shipped}");
    assert!(shipped.contains("bound=5"), "{shipped}");

    let out = run_command("qta", LOOP_PROGRAM, &["--tcfg", tcfg_str]).expect("qta from tcfg");
    assert!(out.contains("invariant chain: true"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_hot_block_table() {
    let out = run_command("profile", LOOP_PROGRAM, &["--isa", "rv32i"]).expect("profile");
    assert!(out.contains("hot blocks"), "{out}");
    assert!(out.contains("block-attributed insns: 12"), "{out}");
    assert!(out.contains("insns  : 12"), "{out}");
}

/// Checks that a `--metrics-out` snapshot carries every dispatch
/// counter row as `vp_<suffix>`, and returns the snapshot's
/// `vp_jit_retired`.
fn assert_dispatch_rows(snap: &scale4edge::obs::Snapshot) -> u64 {
    for c in scale4edge::vp::DispatchStats::default().counters() {
        let name = format!("vp_{}", c.suffix);
        assert!(snap.counter(&name).is_some(), "no {name}");
    }
    snap.counter("vp_jit_retired").expect("checked above")
}

#[test]
fn profile_writes_annotated_dot_and_metrics() {
    let dir = std::env::temp_dir().join("s4e_cli_profile_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("prog.dot");
    let metrics = dir.join("prog.json");
    let out = run_command(
        "profile",
        LOOP_PROGRAM,
        &[
            "--isa",
            "rv32i",
            "--dot-out",
            dot.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    )
    .expect("profile");
    assert!(out.contains("annotated CFG written"), "{out}");
    assert!(out.contains("metrics written"), "{out}");

    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.contains("execs:"), "{dot_text}");

    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap = scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics JSON");
    assert_eq!(snap.counter(scale4edge::obs::names::INSN_RETIRED), Some(12));
    assert_dispatch_rows(&snap);
    assert!(snap.counter("vp_translations").unwrap() > 0, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_metrics_out_emits_parseable_json() {
    let dir = std::env::temp_dir().join("s4e_cli_run_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("run.json");
    let out = run_command(
        "run",
        "li a0, 42\nebreak",
        &["--metrics-out", metrics.to_str().unwrap()],
    )
    .expect("runs");
    assert!(out.contains("metrics written"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap = scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics JSON");
    assert_eq!(snap.counter(scale4edge::obs::names::INSN_RETIRED), Some(2));
    assert_dispatch_rows(&snap);
    assert_eq!(snap.counter("vp_translations"), Some(1), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qta_metrics_out_has_timing_histograms() {
    let dir = std::env::temp_dir().join("s4e_cli_qta_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("qta.json");
    // 50 iterations: the loop block passes the JIT threshold and runs
    // natively under the QTA plugin.
    let out = run_command(
        "qta",
        "li t0, 50\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak",
        &["--metrics-out", metrics.to_str().unwrap()],
    )
    .expect("qta");
    assert!(out.contains("metrics written"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap = scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics JSON");
    assert!(snap.histogram("qta_slack_cycles").is_some(), "{json}");
    let native = assert_dispatch_rows(&snap);
    assert!(native > 0, "{json}");
    assert!(
        out.contains(&format!("native         : {native} of 102 instructions")),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_trace_out_emits_parseable_chrome_trace() {
    let dir = std::env::temp_dir().join("s4e_cli_run_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.trace.json");
    let out = run_command(
        "run",
        LOOP_PROGRAM,
        &["--trace-out", trace.to_str().unwrap()],
    )
    .expect("runs");
    assert!(out.contains("trace written"), "{out}");
    let json = std::fs::read_to_string(&trace).unwrap();
    let events = scale4edge::obs::from_chrome_json(&json).expect("parseable Chrome trace");
    // One top-level run span plus the flight-recorder tail projected
    // into it (block instants at minimum).
    let run_span = events
        .iter()
        .find(|e| e.name == "run" && e.ph == 'X')
        .expect("run span present");
    assert!(
        events
            .iter()
            .any(|e| e.name == "block" && e.cat == "flight"),
        "{json}"
    );
    let summary = events
        .iter()
        .find(|e| e.name == "flight_summary")
        .expect("flight summary instant");
    assert!(summary.ts_us >= run_span.ts_us, "tail inside the run span");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_trace_out_spans_every_mutant() {
    let dir = std::env::temp_dir().join("s4e_cli_campaign_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("campaign.trace.json");
    let out = run_command(
        "campaign",
        "li a0, 1\nli a1, 2\nadd a0, a0, a1\nla t0, d\nsw a0, 0(t0)\nebreak\nd: .word 0",
        &[
            "--mutants",
            "1",
            "--isa",
            "rv32imc",
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ],
    )
    .expect("campaign");
    assert!(out.contains("trace written"), "{out}");
    let json = std::fs::read_to_string(&trace).unwrap();
    let events = scale4edge::obs::from_chrome_json(&json).expect("parseable Chrome trace");
    let sweep = events
        .iter()
        .find(|e| e.name == "sweep" && e.ph == 'X')
        .expect("sweep span present");
    let mutants: Vec<_> = events.iter().filter(|e| e.name == "mutant").collect();
    assert!(!mutants.is_empty(), "per-mutant spans recorded");
    // Every mutant span nests inside the sweep span's window.
    for m in &mutants {
        assert!(m.ts_us >= sweep.ts_us, "{json}");
        assert!(m.ts_us + m.dur_us <= sweep.ts_us + sweep.dur_us, "{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_campaign_merges_worker_trace_chunks() {
    let dir = cli_test_dir("sharded-trace");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let ckpt = dir.join("t.jsonl");
    let trace = dir.join("sweep.trace.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
        .arg("campaign")
        .arg(&prog)
        .args(["--mutants", "1", "--isa", "rv32imc"])
        .args(["--shards", "2"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--trace-out", trace.to_str().unwrap()])
        .output()
        .expect("s4e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    let json = std::fs::read_to_string(&trace).expect("merged trace");
    let events = scale4edge::obs::from_chrome_json(&json).expect("parseable Chrome trace");
    // The supervisor's lane plus one lane per shard worker process.
    let mut pids: Vec<u64> = events.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert!(pids.len() >= 3, "supervisor + 2 shard lanes: {pids:?}");
    assert!(events.iter().any(|e| e.name == "sharded_sweep"), "{json}");
    assert!(events.iter().any(|e| e.name == "shard_attempt"), "{json}");
    assert!(events.iter().any(|e| e.name == "mutant"), "{json}");
    // Every process traces its fixed cost: the supervisor and each
    // worker prepare the campaign, and each worker plans its pruning.
    let supervisor = events
        .iter()
        .find(|e| e.name == "sharded_sweep")
        .map(|e| e.pid);
    for pid in &pids {
        let lane = |name: &str| events.iter().find(|e| e.pid == *pid && e.name == name);
        assert!(
            lane("prepare").is_some(),
            "no prepare span on {pid}: {json}"
        );
        if Some(*pid) != supervisor {
            let plan = lane("prune_plan").expect("a prune_plan span on every worker lane");
            let mut keys: Vec<&str> = plan.args.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["jit_retired", "mem_watches", "queries", "retired"]);
        }
    }
    // Merged output is globally ordered by timestamp.
    assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
}

#[test]
fn sharded_trace_out_merges_only_this_runs_chunks() {
    // A `--shards 4` sweep leaves four worker chunks beside its
    // checkpoint; a `--shards 2` sweep on the same checkpoint must merge
    // only the two its own workers wrote.
    let dir = cli_test_dir("stale-chunks");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let ckpt = dir.join("c.jsonl");
    let trace = dir.join("sweep.trace.json");
    for shards in ["4", "2"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
            .arg("campaign")
            .arg(&prog)
            .args(["--mutants", "2", "--isa", "rv32imc", "--shards", shards])
            .args(["--checkpoint", ckpt.to_str().unwrap()])
            .args(["--trace-out", trace.to_str().unwrap()])
            .output()
            .expect("s4e runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{stdout}");
    }
    let json = std::fs::read_to_string(&trace).expect("merged trace");
    let events = scale4edge::obs::from_chrome_json(&json).expect("parseable Chrome trace");
    let pids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.pid).collect();
    assert_eq!(pids.len(), 3, "supervisor + 2 shard lanes: {pids:?}");
    let mutants = events.iter().filter(|e| e.name == "mutant").count();
    assert_eq!(mutants, 64);
    std::fs::remove_dir_all(&dir).ok();
}

/// Synchronous traps that do not retire, each skipped by the handler:
/// misaligned loads, `ecall` and an access to a missing CSR (the
/// `s4e-faultsim` test program `TRAP_PROGRAM`).
const TRAP_PROGRAM: &str = r#"
    la t0, skip
    csrw mtvec, t0
    li s0, 200
    li a0, 0
    la a1, data
    li a2, 7
    loads: lw a2, 1(a1)
    add a0, a0, a2
    addi s0, s0, -1
    bnez s0, loads
    li s0, 20
    calls: ecall
    csrr a3, 0x7c0
    add a0, a0, a3
    addi s0, s0, -1
    bnez s0, calls
    la t1, result
    sw a0, 0(t1)
    ebreak
    skip: csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
    .align 2
    data: .word 1, 2
    result: .word 0
"#;

/// Jumps that trap on a misaligned target, RV32IM without C (the
/// `s4e-faultsim` test program `JUMP_TRAP_PROGRAM`).
const JUMP_TRAP_PROGRAM: &str = r#"
    la t0, skip
    csrw mtvec, t0
    li s0, 30
    li a0, 0
    la t1, target
    addi t1, t1, 2
    jumps: jalr ra, 0(t1)
    addi a0, a0, 3
    jal s1, target + 2
    xor a0, a0, s0
    addi s0, s0, -1
    bnez s0, jumps
    la t3, result
    sw a0, 0(t3)
    ebreak
    target: nop
    nop
    skip: csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
    result: .word 0
"#;

/// Timer interrupts into a hot loop and a `wfi`, the last one taken
/// mid-block by a handler that ends the run (the `s4e-faultsim` test
/// program `TIMER_PROGRAM`). Its golden run arms interrupts, so its
/// mutants re-run their whole prefix.
const TIMER_PROGRAM: &str = r#"
    .equ MTIMECMP, 0x02004000
    la t0, handler
    csrw mtvec, t0
    li s1, 0
    li s11, 0
    li t1, MTIMECMP
    sw zero, 4(t1)
    csrr t2, mcycle
    addi t2, t2, 300
    sw t2, 0(t1)
    li t3, 128
    csrw mie, t3
    csrsi mstatus, 8
    li s0, 3000
    li a0, 0
    work: addi a0, a0, 3
    xor a0, a0, s0
    slli a1, a0, 1
    add a0, a0, a1
    addi s0, s0, -1
    bnez s0, work
    wfi
    csrci mstatus, 8
    li s11, 1
    li t1, MTIMECMP
    sw zero, 0(t1)
    csrsi mstatus, 8
    addi a0, a0, 1
    ebreak
    handler: bnez s11, done
    addi s1, s1, 1
    csrr t4, mcycle
    addi t4, t4, 300
    li t5, MTIMECMP
    sw t4, 0(t5)
    mret
    done: csrw mie, zero
    la t6, result
    sw a0, 0(t6)
    sw s1, 4(t6)
    ebreak
    result: .word 0, 0
"#;

#[test]
fn no_prune_flag_is_classification_invisible() {
    // `--no-prune` executes every mutant instead of pruning provably
    // equivalent ones; every distinct checkpoint line must stay the
    // same, on golden runs that trap and that take interrupts too, and
    // no mutant may end in a harness error. The trap program runs at
    // `--mutants 4`: its 168 specs include transients injected after
    // traps, which must land after exactly their count of retired
    // instructions.
    let dir = cli_test_dir("no-prune");
    for (name, source, isa, mutants) in [
        ("campaign", CAMPAIGN_PROGRAM, "rv32imc", "2"),
        ("trap", TRAP_PROGRAM, "rv32imc", "4"),
        ("jump-trap", JUMP_TRAP_PROGRAM, "rv32im", "2"),
        ("timer", TIMER_PROGRAM, "rv32imc", "2"),
    ] {
        let classify = |prune: &[&str]| {
            let ckpt = dir.join(format!("{name}{}.jsonl", prune.concat()));
            let flags = [
                "--mutants",
                mutants,
                "--isa",
                isa,
                "--threads",
                "2",
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ];
            let out =
                run_command("campaign", source, &[&flags[..], prune].concat()).expect("campaign");
            assert!(!out.contains("harness error"), "{name}: {out}");
            let lines: std::collections::BTreeSet<String> = std::fs::read_to_string(&ckpt)
                .expect("checkpoint")
                .lines()
                .map(String::from)
                .collect();
            assert!(!lines.is_empty(), "{name}: {out}");
            lines
        };
        assert_eq!(classify(&[]), classify(&["--no-prune"]), "{name}");
    }
}

#[test]
fn sharded_workers_inherit_the_thread_count() {
    // `--shards N --threads T` must forward T to every worker process:
    // each worker's sweep span carries the thread count it actually ran.
    let dir = cli_test_dir("sharded-threads");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let ckpt = dir.join("t.jsonl");
    let trace = dir.join("sweep.trace.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
        .arg("campaign")
        .arg(&prog)
        .args(["--mutants", "1", "--isa", "rv32imc"])
        .args(["--shards", "2", "--threads", "2", "--no-prune"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--trace-out", trace.to_str().unwrap()])
        .output()
        .expect("s4e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    let json = std::fs::read_to_string(&trace).expect("merged trace");
    let events = scale4edge::obs::from_chrome_json(&json).expect("parseable Chrome trace");
    let sweeps: Vec<_> = events.iter().filter(|e| e.name == "sweep").collect();
    assert!(sweeps.len() >= 2, "one sweep span per shard worker: {json}");
    for sweep in &sweeps {
        assert!(
            sweep
                .args
                .contains(&("threads".to_string(), "2".to_string())),
            "worker sweep ran with the forwarded thread count: {:?}",
            sweep.args
        );
    }
    // `--no-prune` was forwarded too: no mutant classification was
    // produced by the pruning paths in any worker.
    assert!(
        events.iter().filter(|e| e.name == "mutant").all(|m| m
            .args
            .iter()
            .all(|(k, v)| k != "prefix" || (v != "pruned" && v != "dedup"))),
        "{json}"
    );
}

#[test]
fn campaign_metrics_out_counts_every_mutant() {
    let dir = std::env::temp_dir().join("s4e_cli_campaign_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("campaign.json");
    let out = run_command(
        "campaign",
        "li a0, 1\nli a1, 2\nadd a0, a0, a1\nla t0, d\nsw a0, 0(t0)\nebreak\nd: .word 0",
        &[
            "--mutants",
            "1",
            "--isa",
            "rv32imc",
            "--threads",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    )
    .expect("campaign");
    assert!(out.contains("metrics written"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap = scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics JSON");
    let done = snap
        .counter("campaign_done")
        .expect("campaign_done present");
    assert!(done > 0, "{json}");
    assert_eq!(snap.gauge("campaign_total"), Some(done), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_metrics_out_carries_worker_counters() {
    // The supervisor counts outcomes from the merged checkpoint and adds
    // the counters only its workers saw from each worker's own metrics
    // file, so a sharded snapshot matches an in-process one.
    let dir = cli_test_dir("sharded-metrics");
    let prog = dir.join("prog.s");
    std::fs::write(&prog, CAMPAIGN_PROGRAM).expect("program");
    let metrics = |name: &str, flags: &[&str]| {
        let path = dir.join(format!("{name}.metrics.json"));
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_s4e"))
            .arg("campaign")
            .arg(&prog)
            .args(["--mutants", "2", "--isa", "rv32imc"])
            .args(flags)
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .expect("s4e runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{stdout}");
        let json = std::fs::read_to_string(&path).expect("metrics written");
        scale4edge::obs::Snapshot::from_json(&json).expect("parseable metrics JSON")
    };
    let ckpt = dir.join("sharded.jsonl");
    let sharded = metrics(
        "sharded",
        &[
            "--shards",
            "2",
            "--threads",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
    );
    let in_process = metrics("in-process", &["--threads", "2"]);
    let outcomes = |snap: &scale4edge::obs::Snapshot| {
        snap.metrics()
            .iter()
            .filter(|(name, _)| {
                name.starts_with("campaign_outcome_")
                    || ["campaign_done", "campaign_total", "campaign_pruned_dead"]
                        .contains(&name.as_str())
            })
            .map(|(name, value)| (name.clone(), value.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(outcomes(&sharded), outcomes(&in_process));
    assert!(sharded.counter("campaign_done").unwrap_or(0) > 0);
    // Both worker rows count the supervisor's shard tasks, not the
    // workers' threads.
    let workers = sharded.gauge("campaign_workers");
    assert_eq!(workers, Some(2));
    assert_eq!(sharded.counter("campaign_workers_exited"), workers);
    for name in [
        "campaign_retired",
        "campaign_translations",
        "campaign_snapshot_restores",
        "campaign_pruned_dead",
    ] {
        assert!(sharded.counter(name).unwrap_or(0) > 0, "{name} reads 0");
    }
}
