//! Shard worker + supervisor tests: crash-safe checkpoint rotation
//! (torn tails, duplicated entries, empty files), worker-range
//! execution, and the supervisor's merge / restart / bisect /
//! quarantine / interrupt behaviour.
//!
//! The supervisor tests drive *real* child processes, but fake ones: a
//! `sh` one-liner that copies pre-computed classification lines into
//! the shard checkpoint and exits with a chosen status. That exercises
//! every supervisor code path (tailing, dedup, restart, bisection)
//! without needing the full `s4e` binary — the end-to-end chaos suite
//! against the binary lives in the workspace-root tests.

use s4e_asm::assemble;
use s4e_faultsim::{
    atomic_write_file, compact_checkpoint, encode_result, plan_shards, read_checkpoint, run_shard,
    Campaign, CampaignConfig, CampaignError, CampaignProgress, FaultKind, FaultOutcome,
    FaultResult, FaultSpec, FaultTarget, ShardRequest, ShardSupervisor, SupervisorConfig,
};
use s4e_isa::Gpr;
use s4e_obs::names;
use s4e_vp::CancelToken;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SUM_PROGRAM: &str = r#"
    li t0, 10
    li a0, 0
    loop: add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    la t1, result
    sw a0, 0(t1)
    ebreak
    result: .word 0
"#;

fn campaign(cfg: &CampaignConfig) -> Campaign {
    let img = assemble(SUM_PROGRAM).expect("assembles");
    Campaign::prepare(img.base(), img.bytes(), img.entry(), cfg).expect("prepares")
}

fn unique_specs(bits: u8, times: u64) -> Vec<FaultSpec> {
    let mut specs = Vec::new();
    for bit in 0..bits {
        for t in 0..times {
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg: Gpr::A0, bit },
                kind: FaultKind::Transient { at_insn: t },
            });
        }
    }
    specs
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("s4e-shard-tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The reference classifications, one encoded line per spec, written to
/// `answers` for the fake `sed`-based workers to copy from.
fn write_answers(full: &[FaultResult], answers: &Path) -> Vec<String> {
    let lines: Vec<String> = full.iter().map(|r| encode_result(r, None)).collect();
    std::fs::write(answers, lines.join("\n") + "\n").expect("answers file");
    lines
}

// --------------------------------------------------- crash-safe files

#[test]
fn atomic_write_replaces_whole_file() {
    let dir = temp_dir("atomic");
    let path = dir.join("out.json");
    atomic_write_file(&path, b"first version\n").expect("writes");
    atomic_write_file(&path, b"second\n").expect("rewrites");
    assert_eq!(std::fs::read(&path).expect("readable"), b"second\n");
    // No temp residue.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != "out.json")
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn compact_checkpoint_rewrites_atomically_and_roundtrips() {
    let dir = temp_dir("compact");
    let path = dir.join("ckpt.jsonl");
    let specs = unique_specs(2, 2);
    let results: Vec<FaultResult> = specs
        .iter()
        .map(|&spec| FaultResult {
            spec,
            outcome: FaultOutcome::Masked,
        })
        .collect();
    compact_checkpoint(&path, results.iter().map(|r| (r, None))).expect("compacts");
    let load = read_checkpoint(&path).expect("readable");
    assert_eq!(load.entries.len(), specs.len());
    assert_eq!(load.skipped_lines, 0);
    // Compacting over an existing (larger) file truncates it.
    compact_checkpoint(&path, results.iter().take(1).map(|r| (r, None))).expect("recompacts");
    assert_eq!(read_checkpoint(&path).expect("readable").entries.len(), 1);
}

#[test]
fn worker_resumes_from_torn_trailing_line() {
    let dir = temp_dir("torn");
    let path = dir.join("shard.jsonl");
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 2);
    let full = reference.run_all(&specs);

    // A shard checkpoint killed mid-write: two complete records, then a
    // torn fragment with no trailing newline.
    let mut file = std::fs::File::create(&path).expect("create");
    for r in &full.results()[..2] {
        writeln!(file, "{}", encode_result(r, None)).unwrap();
    }
    write!(file, "{{\"tgt\":\"gpr\",\"loc\":10,\"bi").unwrap();
    drop(file);

    let mut worker = campaign(&CampaignConfig::new());
    let report = run_shard(
        &mut worker,
        &specs,
        0..specs.len(),
        &path,
        None,
        &CancelToken::new(),
    )
    .expect("shard completes");
    assert_eq!(report.results(), full.results());
    // The torn tail was truncated, not preserved as garbage: the file
    // now holds exactly one valid record per spec.
    let load = read_checkpoint(&path).expect("readable");
    assert_eq!(load.skipped_lines, 0);
    assert_eq!(load.entries.len(), specs.len());
}

#[test]
fn worker_resumes_from_empty_checkpoint() {
    let dir = temp_dir("empty");
    let path = dir.join("shard.jsonl");
    std::fs::write(&path, b"").expect("empty file");
    let mut worker = campaign(&CampaignConfig::new());
    let specs = unique_specs(3, 2);
    let report = run_shard(
        &mut worker,
        &specs,
        0..specs.len(),
        &path,
        None,
        &CancelToken::new(),
    )
    .expect("shard completes");
    assert_eq!(report.total(), specs.len());
    assert_eq!(
        read_checkpoint(&path).expect("readable").entries.len(),
        specs.len()
    );
}

#[test]
fn worker_skips_duplicated_entries_in_checkpoint() {
    let dir = temp_dir("dup");
    let path = dir.join("shard.jsonl");
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(3, 2);
    let full = reference.run_all(&specs);

    // The same records written twice (e.g. merged from overlapping
    // shard files): resume must treat them as one.
    let mut file = std::fs::File::create(&path).expect("create");
    for _ in 0..2 {
        for r in &full.results()[..3] {
            writeln!(file, "{}", encode_result(r, None)).unwrap();
        }
    }
    drop(file);

    let mut worker = campaign(&CampaignConfig::new());
    let report = run_shard(
        &mut worker,
        &specs,
        0..specs.len(),
        &path,
        None,
        &CancelToken::new(),
    )
    .expect("shard completes");
    assert_eq!(report.results(), full.results());
}

#[test]
fn out_of_bounds_shard_range_is_a_config_error() {
    let dir = temp_dir("bounds");
    let mut worker = campaign(&CampaignConfig::new());
    let specs = unique_specs(2, 2);
    let err = run_shard(
        &mut worker,
        &specs,
        0..specs.len() + 1,
        dir.join("x.jsonl"),
        None,
        &CancelToken::new(),
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Config(_)), "{err}");
}

// ------------------------------------------------- sharded execution

#[test]
fn shard_union_matches_unsharded_run() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("union");
    let mut merged: Vec<FaultResult> = Vec::new();
    for (i, range) in plan_shards(specs.len(), 3).into_iter().enumerate() {
        let mut worker = campaign(&CampaignConfig::new());
        let report = run_shard(
            &mut worker,
            &specs,
            range,
            dir.join(format!("s{i}.jsonl")),
            None,
            &CancelToken::new(),
        )
        .expect("shard completes");
        merged.extend_from_slice(report.results());
    }
    assert_eq!(merged, full.results());
}

// ---------------------------------------------------- the supervisor

/// `sed` copies 1-based inclusive line ranges; our ranges are 0-based
/// half-open.
fn sed_range(range: &std::ops::Range<usize>) -> String {
    format!("{},{}", range.start + 1, range.end)
}

#[test]
fn supervisor_merges_clean_workers() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-clean");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);

    let mut config = SupervisorConfig::new(3);
    config.backoff_base = Duration::from_millis(1);
    let supervisor = ShardSupervisor::new(config, |req| {
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg(format!(
            "sed -n '{}p' {} >> {}",
            sed_range(&req.range),
            answers.display(),
            req.checkpoint.display()
        ));
        cmd
    });
    let merged = dir.join("merged.jsonl");
    let sharded = supervisor
        .run(&specs, &dir.join("shards"), Some(&merged), false)
        .expect("supervised sweep completes");
    assert_eq!(sharded.report.results(), full.results());
    assert_eq!(sharded.crashes, 0);
    assert!(sharded.quarantined.is_empty());
    assert!(!sharded.interrupted);
    // The merged checkpoint holds the full sweep, resumable.
    let load = read_checkpoint(&merged).expect("readable");
    assert_eq!(load.entries.len(), specs.len());
    assert_eq!(load.skipped_lines, 0);
}

#[test]
fn sharded_progress_counts_every_list_entry() {
    // The generator emits duplicate specs. The supervisor merges each
    // spec once, but progress announces the list length, so a spec must
    // count once per occurrence: within one shard and across shards.
    let reference = campaign(&CampaignConfig::new());
    let mut specs = unique_specs(4, 3);
    let repeats: Vec<FaultSpec> = [0, 1, 5, 11].iter().map(|&i| specs[i]).collect();
    specs.extend(repeats);
    specs.insert(2, specs[0]);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-dups");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);

    let mut config = SupervisorConfig::new(3);
    config.backoff_base = Duration::from_millis(1);
    let mut supervisor = ShardSupervisor::new(config, |req| {
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg(format!(
            "sed -n '{}p' {} >> {}",
            sed_range(&req.range),
            answers.display(),
            req.checkpoint.display()
        ));
        cmd
    });
    let progress = Arc::new(CampaignProgress::new());
    supervisor.set_progress(Arc::clone(&progress));
    let sharded = supervisor
        .run(&specs, &dir.join("shards"), None, false)
        .expect("supervised sweep completes");
    let report = &sharded.report;
    assert_eq!(report.results(), full.results());
    assert_eq!(report.total(), specs.len());

    let snap = progress.snapshot();
    assert_eq!(snap.gauge("campaign_total"), Some(specs.len() as u64));
    assert_eq!(snap.counter("campaign_done"), Some(report.total() as u64));
    let counts = report.counts();
    for (class, n) in &counts {
        let name = format!("campaign_outcome_{}", names::sanitize(class));
        assert_eq!(snap.counter(&name), Some(*n as u64), "{name}");
    }
    let outcomes: u64 = snap
        .metrics()
        .keys()
        .filter(|k| k.starts_with("campaign_outcome_"))
        .filter_map(|k| snap.counter(k))
        .sum();
    assert_eq!(outcomes, specs.len() as u64);
}

#[test]
fn supervisor_restarts_a_crashed_worker_from_its_checkpoint() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-restart");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);

    let mut config = SupervisorConfig::new(2);
    config.backoff_base = Duration::from_millis(1);
    // Attempt 0 writes only the first half of its range and dies with a
    // nonzero status; the restarted attempt finishes the rest.
    let supervisor = ShardSupervisor::new(config, |req| {
        let mid = (req.range.start + req.range.end).div_ceil(2);
        let script = if req.attempt == 0 {
            format!(
                "sed -n '{},{}p' {} >> {}; exit 7",
                req.range.start + 1,
                mid,
                answers.display(),
                req.checkpoint.display()
            )
        } else {
            format!(
                "sed -n '{}p' {} >> {}",
                sed_range(&req.range),
                answers.display(),
                req.checkpoint.display()
            )
        };
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    });
    let sharded = supervisor
        .run(&specs, &dir.join("shards"), None, false)
        .expect("supervised sweep completes");
    assert_eq!(
        sharded.report.results(),
        full.results(),
        "identical classifications"
    );
    assert!(
        sharded.crashes >= 2,
        "both shards died once: {}",
        sharded.crashes
    );
    assert!(
        sharded.restarts >= 2,
        "both shards restarted: {}",
        sharded.restarts
    );
    assert!(sharded.quarantined.is_empty());
}

#[test]
fn supervisor_bisects_down_to_the_crashing_mutant_and_quarantines_it() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let poison = 7; // the mutant index whose execution "kills" workers
    let dir = temp_dir("sup-bisect");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);

    let mut config = SupervisorConfig::new(2);
    config.max_retries = 1; // bisect on first crash: fast convergence
    config.backoff_base = Duration::from_millis(1);
    // The deterministic-crasher shape: a worker whose range contains the
    // poison mutant classifies everything *before* it, then dies on
    // reaching it. The supervisor must bisect down to it and quarantine.
    let supervisor = ShardSupervisor::new(config, |req| {
        let script = if req.range.contains(&poison) {
            if poison == req.range.start {
                "exit 9".to_string()
            } else {
                format!(
                    "sed -n '{},{}p' {} >> {}; exit 9",
                    req.range.start + 1,
                    poison, // 1-based line of the mutant *before* poison
                    answers.display(),
                    req.checkpoint.display()
                )
            }
        } else {
            format!(
                "sed -n '{}p' {} >> {}",
                sed_range(&req.range),
                answers.display(),
                req.checkpoint.display()
            )
        };
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    });
    let merged = dir.join("merged.jsonl");
    let sharded = supervisor
        .run(&specs, &dir.join("shards"), Some(&merged), false)
        .expect("supervised sweep completes");
    assert_eq!(sharded.quarantined, vec![specs[poison]]);
    assert!(sharded.bisections >= 1, "bisected: {}", sharded.bisections);
    assert_eq!(
        sharded.report.results()[poison].outcome,
        FaultOutcome::Quarantined
    );
    // Everything else classified exactly as the unsharded run.
    for (i, (got, want)) in sharded
        .report
        .results()
        .iter()
        .zip(full.results())
        .enumerate()
    {
        if i != poison {
            assert_eq!(got, want, "mutant {i}");
        }
    }
    // The quarantined classification is durable in the merged checkpoint.
    let load = read_checkpoint(&merged).expect("readable");
    assert_eq!(load.entries.len(), specs.len());
    let quarantined_entry = load
        .entries
        .iter()
        .find(|(r, _)| r.spec == specs[poison])
        .expect("poison spec checkpointed");
    assert_eq!(quarantined_entry.0.outcome, FaultOutcome::Quarantined);
}

#[test]
fn supervisor_wakes_on_worker_exit_not_on_its_poll() {
    // A 10 s poll would make every sweep below last at least 10 s if
    // the supervisor waited for it; each ends in well under 2 s because
    // a worker's exit (its stdout closing) and a restart's backoff wake
    // the supervisor when due.
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-wake");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);
    let config = || {
        let mut config = SupervisorConfig::new(2);
        config.poll_interval = Duration::from_secs(10);
        config.backoff_base = Duration::from_millis(1);
        config
    };
    let copy = |req: &ShardRequest| {
        format!(
            "sed -n '{}p' {} >> {}",
            sed_range(&req.range),
            answers.display(),
            req.checkpoint.display()
        )
    };
    for crash_first in [false, true] {
        let supervisor = ShardSupervisor::new(config(), |req| {
            // The crashing variant's first attempt classifies nothing
            // and exits 7; the restart copies the whole range.
            let script = if crash_first && req.attempt == 0 {
                "exit 7".to_string()
            } else {
                copy(req)
            };
            let mut cmd = std::process::Command::new("sh");
            cmd.arg("-c").arg(script);
            cmd
        });
        let start = std::time::Instant::now();
        let sharded = supervisor
            .run(
                &specs,
                &dir.join(format!("shards-{crash_first}")),
                None,
                false,
            )
            .expect("supervised sweep completes");
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "crash_first {crash_first}: {took:?}"
        );
        assert_eq!(sharded.report.results(), full.results());
        assert_eq!(sharded.restarts, if crash_first { 2 } else { 0 });
    }
}

#[test]
fn supervisor_resumes_from_merged_checkpoint_without_respawning_done_work() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-resume");
    let merged = dir.join("merged.jsonl");
    compact_checkpoint(&merged, full.results().iter().map(|r| (r, None))).expect("seeded");

    let mut config = SupervisorConfig::new(2);
    config.backoff_base = Duration::from_millis(1);
    // Workers would fail instantly — but none must be spawned, since
    // the merged checkpoint already classifies everything.
    let supervisor = ShardSupervisor::new(config, |_req| {
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg("exit 11");
        cmd
    });
    let sharded = supervisor
        .run(&specs, &dir.join("shards"), Some(&merged), true)
        .expect("resume completes");
    assert_eq!(sharded.report.results(), full.results());
    assert_eq!(sharded.crashes, 0, "no worker ever ran");
}

#[test]
fn interrupt_flushes_partial_results_as_cancelled() {
    let reference = campaign(&CampaignConfig::new());
    let specs = unique_specs(4, 3);
    let full = reference.run_all(&specs);
    let dir = temp_dir("sup-interrupt");
    let answers = dir.join("answers.jsonl");
    write_answers(full.results(), &answers);

    let mut config = SupervisorConfig::new(1);
    config.backoff_base = Duration::from_millis(1);
    let flag = AtomicBool::new(false);
    // The single worker classifies the first three mutants and then
    // sleeps forever; the interrupt fires while it sleeps.
    let supervisor_flag = &flag;
    let mut supervisor = ShardSupervisor::new(config, |req| {
        let mut cmd = std::process::Command::new("sh");
        cmd.arg("-c").arg(format!(
            "sed -n '1,3p' {} >> {}; sleep 30",
            answers.display(),
            req.checkpoint.display()
        ));
        // Detach from the harness's pipes: an orphaned `sleep` must not
        // hold the test runner's output open after the kill.
        cmd.stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd
    });
    supervisor.interrupt_on(supervisor_flag);
    // Raise the flag once the first records land (from a helper thread).
    let merged = dir.join("merged.jsonl");
    let sharded = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(300));
            flag.store(true, Ordering::SeqCst);
        });
        supervisor
            .run(&specs, &dir.join("shards"), Some(&merged), false)
            .expect("interrupt is not an error")
    });
    assert!(sharded.interrupted);
    let cancelled = sharded
        .report
        .results()
        .iter()
        .filter(|r| r.outcome == FaultOutcome::Cancelled)
        .count();
    assert!(cancelled > 0, "unfinished mutants report as cancelled");
    assert!(cancelled < specs.len(), "the streamed prefix was kept");
    // Partial progress is durable: a resume picks up the classified
    // prefix from the merged checkpoint.
    let load = read_checkpoint(&merged).expect("readable");
    assert!(!load.entries.is_empty());
    assert!(load.entries.len() < specs.len());
}
