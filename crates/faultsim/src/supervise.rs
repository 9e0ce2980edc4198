//! The shard supervisor: process-isolated campaign execution with
//! self-healing restart, crash bisection and quarantine.
//!
//! In-process panic isolation (`catch_unwind` in the supervised runner)
//! cannot contain the failure classes that matter at million-mutant
//! scale: a mutant that segfaults the harness, aborts, or balloons
//! memory takes the whole process down. The supervisor therefore runs
//! each shard — a contiguous mutant-index range with its own JSONL
//! checkpoint — as a *child process*, and treats worker death as a
//! routine, recoverable event:
//!
//! - **Streamed merge** — the supervisor tails every shard checkpoint
//!   while its worker runs, folding classifications into the merged
//!   result set (and [`CampaignProgress`]) the moment they are durable.
//! - **Self-healing restart** — a dead shard (signal, abort, OOM kill,
//!   nonzero exit) restarts from its own checkpoint after an
//!   exponential backoff, so no classification is ever lost or repeated.
//! - **Stall and memory watchdogs** — a worker that stops producing
//!   records for [`SupervisorConfig::stall_timeout`], or whose resident
//!   set exceeds [`SupervisorConfig::mem_budget`], is killed and
//!   treated as crashed.
//! - **Bisection & quarantine** — a range that keeps crashing after
//!   [`SupervisorConfig::max_retries`] attempts is split in half (each
//!   half a fresh shard); once a single mutant remains it is classified
//!   [`FaultOutcome::Quarantined`] and the campaign moves on instead of
//!   aborting.
//! - **Crash-safe rotation** — shard checkpoints are seeded and the
//!   merged campaign checkpoint written via temp-file + fsync + atomic
//!   rename ([`compact_checkpoint`](crate::compact_checkpoint)), and
//!   torn trailing lines from a mid-write kill are truncated on resume.
//! - **Graceful interrupt** — SIGINT/SIGTERM (see
//!   [`install_interrupt_handler`]) stops the sweep: children are
//!   killed, their tails drained, a final merged checkpoint is written
//!   atomically, and the partial report is returned with
//!   [`ShardedReport::interrupted`] set.
//!
//! The supervisor is deliberately agnostic about *how* a worker process
//! is launched: the caller supplies a spawner that maps a
//! [`ShardRequest`] to a [`Command`] (the CLI re-executes itself with
//! the internal `--shard-worker` flag; the chaos tests point it at the
//! built `s4e` binary). [`ChaosConfig`] is the test-only fault injector
//! that randomly SIGKILLs, hangs and OOMs workers mid-campaign to prove
//! the supervised sweep converges to classifications identical to an
//! undisturbed run.

use crate::campaign::{Campaign, CampaignError, CampaignReport};
use crate::checkpoint::{compact_checkpoint, decode_result, read_checkpoint};
use crate::fault::{FaultOutcome, FaultSpec};
use crate::forensics::IncidentBundle;
use crate::progress::CampaignProgress;
use crate::runner::DoneMap;
use crate::shard::plan_shards;
use crate::FaultResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s4e_obs::Tracer;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The exit code by which a shard worker reports a *fatal* setup error
/// (unreadable input, invalid configuration): the supervisor aborts the
/// campaign instead of burning its retry budget on a hopeless shard.
pub const WORKER_FATAL_EXIT: i32 = 3;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// The process-wide interrupt flag raised by the handler that
/// [`install_interrupt_handler`] registers. Pass it to
/// [`ShardSupervisor::interrupt_on`] to make a sweep stop gracefully on
/// SIGINT/SIGTERM.
pub fn interrupt_flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// Installs a SIGINT + SIGTERM handler that raises [`interrupt_flag`]
/// (Unix; a no-op elsewhere). The supervisor polls the flag, kills its
/// workers, flushes a final merged checkpoint and reports partial
/// results — the caller maps that to the distinct exit code 130.
#[cfg(unix)]
pub fn install_interrupt_handler() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: the handler only performs an atomic store, which is
    // async-signal-safe; `signal` is the C standard library's.
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(2, handler); // SIGINT
        signal(15, handler); // SIGTERM
    }
}

/// Installs a SIGINT + SIGTERM handler (Unix; a no-op elsewhere).
#[cfg(not(unix))]
pub fn install_interrupt_handler() {}

/// Test-only chaos injected by the *supervisor* into its own workers:
/// on each worker spawn one disruption may be rolled — a SIGKILL after
/// a random delay, a worker-side hang (via `S4E_CHAOS_HANG_AFTER`), or
/// a worker-side memory balloon (via `S4E_CHAOS_OOM_AFTER`). Injection
/// stops after [`max_disruptions`](Self::max_disruptions) so the
/// campaign always converges.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Deterministic seed for the disruption schedule.
    pub seed: u64,
    /// Probability a spawned worker is SIGKILLed after a random delay.
    pub kill_prob: f64,
    /// Probability a spawned worker hangs mid-range.
    pub hang_prob: f64,
    /// Probability a spawned worker balloons its memory mid-range.
    pub oom_prob: f64,
    /// Total disruptions across the whole sweep.
    pub max_disruptions: u32,
}

impl ChaosConfig {
    /// A kill-heavy default schedule.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            kill_prob: 0.5,
            hang_prob: 0.0,
            oom_prob: 0.0,
            max_disruptions: 4,
        }
    }

    /// Parses the test-only `S4E_CHAOS` environment variable:
    /// comma-separated `seed=N`, `kill=P`, `hang=P`, `oom=P`, `max=N`
    /// (e.g. `S4E_CHAOS=seed=7,kill=0.6,max=5`). Returns `None` when the
    /// variable is unset or unparsable.
    pub fn from_env() -> Option<ChaosConfig> {
        let raw = std::env::var("S4E_CHAOS").ok()?;
        let mut chaos = ChaosConfig {
            seed: 0,
            kill_prob: 0.0,
            hang_prob: 0.0,
            oom_prob: 0.0,
            max_disruptions: 4,
        };
        for field in raw.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field.split_once('=')?;
            match key.trim() {
                "seed" => chaos.seed = value.trim().parse().ok()?,
                "kill" => chaos.kill_prob = value.trim().parse().ok()?,
                "hang" => chaos.hang_prob = value.trim().parse().ok()?,
                "oom" => chaos.oom_prob = value.trim().parse().ok()?,
                "max" => chaos.max_disruptions = value.trim().parse().ok()?,
                _ => return None,
            }
        }
        Some(chaos)
    }
}

/// Shard-supervisor configuration. See [`ShardSupervisor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Worker processes (and concurrent children after bisection).
    pub shards: usize,
    /// Consecutive *zero-progress* crashes of one range before it is
    /// bisected (or, at a single mutant, quarantined). An attempt that
    /// streams at least one fresh classification before dying resets the
    /// count — only a shard that is stuck escalates.
    pub max_retries: u32,
    /// First restart backoff; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// A worker producing no new checkpoint record for this long is
    /// killed and treated as crashed (catches hangs and livelocks).
    pub stall_timeout: Duration,
    /// Per-worker resident-set budget in bytes; a worker over it is
    /// killed and treated as crashed (Linux; ignored elsewhere).
    pub mem_budget: Option<u64>,
    /// Supervisor poll cadence (checkpoint tails, stall and memory
    /// watchdogs). A worker's exit, a restart's backoff and a chaos
    /// kill each wake the supervisor when due, not at the next poll.
    pub poll_interval: Duration,
    /// Test-only worker disruption schedule.
    pub chaos: Option<ChaosConfig>,
}

impl SupervisorConfig {
    /// Defaults: 3 retries, 50 ms base / 2 s cap backoff, 30 s stall
    /// timeout, no memory budget, 15 ms poll, no chaos.
    pub fn new(shards: usize) -> SupervisorConfig {
        SupervisorConfig {
            shards,
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            stall_timeout: Duration::from_secs(30),
            mem_budget: None,
            poll_interval: Duration::from_millis(15),
            chaos: None,
        }
    }

    /// Checks the configuration for nonsensical values (zero or absurd
    /// shard counts, a zero retry budget, zero watchdog periods).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.shards == 0 {
            return Err(CampaignError::Config("shards must be at least 1".into()));
        }
        if self.shards > 4096 {
            return Err(CampaignError::Config(format!(
                "{} shards is absurd (maximum 4096)",
                self.shards
            )));
        }
        if self.max_retries == 0 {
            return Err(CampaignError::Config(
                "max_retries must be at least 1".into(),
            ));
        }
        if self.stall_timeout.is_zero() {
            return Err(CampaignError::Config(
                "stall_timeout must be nonzero".into(),
            ));
        }
        if self.poll_interval.is_zero() {
            return Err(CampaignError::Config(
                "poll_interval must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// What the supervisor asks the spawner to launch: one attempt at one
/// shard range, resuming from (and appending to) the given checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// Stable task id (initial shards count up from 0; bisected halves
    /// get fresh ids).
    pub shard_id: usize,
    /// The mutant-index range to execute.
    pub range: Range<usize>,
    /// The shard's own JSONL checkpoint.
    pub checkpoint: PathBuf,
    /// 0 for the first attempt, incremented per restart.
    pub attempt: u32,
}

/// The aggregated result of a sharded sweep.
#[derive(Debug)]
pub struct ShardedReport {
    /// Per-mutant classifications in input order (mutants never
    /// classified before an interrupt are [`FaultOutcome::Cancelled`]).
    pub report: CampaignReport,
    /// The mutants isolated as worker-killers.
    pub quarantined: Vec<FaultSpec>,
    /// Forensic bundles written for the quarantined mutants (one per
    /// entry of [`quarantined`](Self::quarantined) when a trace
    /// directory was attached; empty otherwise). Each bundle names the
    /// [`FaultSpec`] and carries the supervisor's attempt history for
    /// the crashing range.
    pub quarantine_bundles: Vec<PathBuf>,
    /// Worker-process deaths observed.
    pub crashes: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Range bisections performed.
    pub bisections: u64,
    /// Whether the sweep was stopped by SIGINT/SIGTERM.
    pub interrupted: bool,
}

/// One schedulable unit of work: a range plus its checkpoint and crash
/// history.
#[derive(Debug)]
struct Task {
    id: usize,
    range: Range<usize>,
    checkpoint: PathBuf,
    crashes: u32,
    attempt: u32,
    ready_at: Instant,
    needs_seed: bool,
    /// Bytes of the checkpoint already folded into the merged state —
    /// only ever advanced past complete lines, so it stays valid across
    /// the worker's own torn-tail truncation on restart.
    offset: u64,
    /// Human-readable attempt history (spawns, exits, backoffs,
    /// bisections), carried across restarts and into bisected halves so
    /// a quarantine bundle can show the full escalation that led to it.
    history: Vec<String>,
}

/// The quarantine forensics callback of
/// [`ShardSupervisor::set_forensic_replay`].
type ForensicReplay<'a> = Box<dyn Fn(&FaultSpec, &mut IncidentBundle) + 'a>;

/// A task with a live child process.
#[derive(Debug)]
struct Running {
    task: Task,
    child: Child,
    last_progress: Instant,
    kill_at: Option<Instant>,
    /// Fresh classifications streamed by *this* attempt — a crash after
    /// progress resets the task's consecutive-crash count.
    fresh: u64,
    /// Trace-clock timestamp of the spawn, closing the `shard_attempt`
    /// span when the worker exits (`None`: tracing off).
    trace_start: Option<u64>,
}

/// The process-isolation layer for fault campaigns: splits the mutant
/// space into shards, runs each as a supervised child process, and
/// merges streamed results. Dead or stalled workers restart from their
/// own checkpoints, and a range that keeps crashing is bisected down to
/// one quarantined mutant (see the [crate docs](crate)).
pub struct ShardSupervisor<'a> {
    config: SupervisorConfig,
    spawner: Box<dyn Fn(&ShardRequest) -> Command + 'a>,
    progress: Option<Arc<CampaignProgress>>,
    interrupt: Option<&'a AtomicBool>,
    tracer: Option<Arc<Tracer>>,
    trace_dir: Option<PathBuf>,
    forensic_replay: Option<ForensicReplay<'a>>,
}

impl std::fmt::Debug for ShardSupervisor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSupervisor")
            .field("config", &self.config)
            .field("progress", &self.progress.is_some())
            .field("interrupt", &self.interrupt.is_some())
            .field("tracer", &self.tracer.is_some())
            .field("trace_dir", &self.trace_dir)
            .field("forensic_replay", &self.forensic_replay.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> ShardSupervisor<'a> {
    /// A supervisor launching workers through `spawner`. The supervisor
    /// owns each worker's stdout: it is piped, drained and discarded,
    /// and its end tells the supervisor the worker exited.
    pub fn new(
        config: SupervisorConfig,
        spawner: impl Fn(&ShardRequest) -> Command + 'a,
    ) -> ShardSupervisor<'a> {
        ShardSupervisor {
            config,
            spawner: Box::new(spawner),
            progress: None,
            interrupt: None,
            tracer: None,
            trace_dir: None,
            forensic_replay: None,
        }
    }

    /// Attaches structured tracing: every worker attempt becomes a span
    /// on the supervisor's timeline, and restarts, backoffs, bisections
    /// and quarantines become instant events — mergeable with the
    /// workers' own trace chunks into one Chrome `trace_event` file.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Arms quarantine forensics: a mutant isolated as a worker-killer
    /// gets an [`IncidentBundle`] (fault spec + the supervisor's attempt
    /// history for the crashing range) written into `dir`, and its path
    /// reported in [`ShardedReport::quarantine_bundles`].
    pub fn set_trace_dir(&mut self, dir: impl Into<PathBuf>) {
        self.trace_dir = Some(dir.into());
    }

    /// Arms in-process forensic replay for quarantined mutants. The
    /// supervisor only ever sees a killer mutant through the corpses of
    /// its worker subprocesses, so without help a quarantine bundle
    /// carries attempt history and nothing else. `replay` is called
    /// once per quarantine with the convicted spec and the bundle about
    /// to be written — typically it re-runs the mutant on an in-process
    /// [`Campaign`] with forensics armed and attaches the VP, giving
    /// the bundle a flight tail and final architectural state.
    pub fn set_forensic_replay(&mut self, replay: impl Fn(&FaultSpec, &mut IncidentBundle) + 'a) {
        self.forensic_replay = Some(Box::new(replay));
    }

    /// Attaches live progress: merged classifications, shard restarts,
    /// bisections, backoff time and quarantines are all counted as they
    /// happen (drivable by a [`ProgressTicker`](crate::ProgressTicker)).
    pub fn set_progress(&mut self, progress: Arc<CampaignProgress>) {
        self.progress = Some(progress);
    }

    /// Makes the sweep stop gracefully when `flag` is raised (pair with
    /// [`interrupt_flag`] + [`install_interrupt_handler`]).
    pub fn interrupt_on(&mut self, flag: &'a AtomicBool) {
        self.interrupt = Some(flag);
    }

    fn interrupted(&self) -> bool {
        self.interrupt
            .map(|f| f.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Runs the sharded sweep over `specs`. Shard checkpoints live in
    /// `shard_dir` (created if missing); when `merged_checkpoint` is
    /// given, the merged result set is compacted into it atomically at
    /// the end (and on interrupt), and with `resume` its existing
    /// entries are honoured up front so their mutants are not re-run.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Config`] for an invalid configuration or
    /// a worker that reports a fatal setup error ([`WORKER_FATAL_EXIT`]),
    /// and [`CampaignError::Checkpoint`] for checkpoint I/O failures.
    pub fn run(
        &self,
        specs: &[FaultSpec],
        shard_dir: &Path,
        merged_checkpoint: Option<&Path>,
        resume: bool,
    ) -> Result<ShardedReport, CampaignError> {
        self.config.validate()?;
        std::fs::create_dir_all(shard_dir).map_err(|e| {
            CampaignError::Checkpoint(format!("creating {}: {e}", shard_dir.display()))
        })?;

        // `done` is keyed by spec, but progress announces `specs.len()`:
        // a spec classified for the first time counts once per
        // occurrence in the list, so duplicated specs still add up.
        let occurrences = count_occurrences(specs);
        let mut done = DoneMap::new();
        if resume {
            if let Some(path) = merged_checkpoint {
                let load = read_checkpoint(path)
                    .map_err(|e| CampaignError::Checkpoint(format!("{}: {e}", path.display())))?;
                for (result, panic) in load.entries {
                    if done.insert(result.spec, (result.outcome, panic)).is_none() {
                        if let Some(p) = &self.progress {
                            for _ in 0..occurrences.get(&result.spec).copied().unwrap_or(0) {
                                p.record_resumed(result.outcome);
                            }
                        }
                    }
                }
            }
        }

        let ranges = plan_shards(specs.len(), self.config.shards);
        let mut total_tasks = ranges.len();
        if let Some(p) = &self.progress {
            p.begin(specs.len(), ranges.len());
            p.begin_shards(total_tasks);
        }

        let mut next_id = 0;
        let mut pending: VecDeque<Task> = ranges
            .into_iter()
            .map(|range| {
                let task = Task {
                    id: next_id,
                    range,
                    checkpoint: shard_dir.join(format!("shard-{next_id:04}.jsonl")),
                    crashes: 0,
                    attempt: 0,
                    ready_at: Instant::now(),
                    needs_seed: true,
                    offset: 0,
                    history: Vec::new(),
                };
                next_id += 1;
                task
            })
            .collect();
        let mut ring = self.tracer.as_ref().map(|t| t.ring());
        let sweep_start = ring.as_ref().map(|r| r.now_us());
        let mut running: Vec<Running> = Vec::new();
        let mut quarantined: Vec<FaultSpec> = Vec::new();
        let mut quarantine_bundles: Vec<PathBuf> = Vec::new();
        let mut stats = (0u64, 0u64, 0u64); // crashes, restarts, bisections
        let mut chaos_rng = self
            .config
            .chaos
            .as_ref()
            .map(|c| (StdRng::seed_from_u64(c.seed), c.max_disruptions));
        let mut interrupted = false;
        let mut fatal: Option<CampaignError> = None;
        // Worker stdout readers report the pipe's end (by pid) here.
        let (exited_tx, exited_rx) = mpsc::channel();

        'supervise: while !pending.is_empty() || !running.is_empty() {
            if self.interrupted() {
                interrupted = true;
                break 'supervise;
            }

            // Launch ready tasks up to the concurrency cap.
            while running.len() < self.config.shards {
                let Some(slot) = pending.iter().position(|t| t.ready_at <= Instant::now()) else {
                    break;
                };
                let mut task = pending.remove(slot).expect("position is valid");
                if remaining_indices(&task.range, specs, &done).is_empty() {
                    // Everything in the range is already classified
                    // (resume, or a duplicated spec finished elsewhere).
                    if let Some(p) = &self.progress {
                        p.record_shard_done();
                    }
                    continue;
                }
                if task.needs_seed {
                    // Crash-safe rotation: seed the shard checkpoint
                    // with its already-classified entries so the worker
                    // resumes instead of re-running them.
                    let owned: Vec<(FaultResult, Option<String>)> = task
                        .range
                        .clone()
                        .filter_map(|i| {
                            let spec = specs[i];
                            done.get(&spec).map(|(outcome, panic)| {
                                (
                                    FaultResult {
                                        spec,
                                        outcome: *outcome,
                                    },
                                    panic.clone(),
                                )
                            })
                        })
                        .collect();
                    compact_checkpoint(
                        &task.checkpoint,
                        owned.iter().map(|(r, p)| (r, p.as_deref())),
                    )
                    .map_err(|e| {
                        CampaignError::Checkpoint(format!("{}: {e}", task.checkpoint.display()))
                    })?;
                    task.offset = 0;
                    task.needs_seed = false;
                }
                let request = ShardRequest {
                    shard_id: task.id,
                    range: task.range.clone(),
                    checkpoint: task.checkpoint.clone(),
                    attempt: task.attempt,
                };
                let mut cmd = (self.spawner)(&request);
                let mut kill_at = None;
                if let (Some(chaos), Some((rng, remaining))) =
                    (&self.config.chaos, chaos_rng.as_mut())
                {
                    if *remaining > 0 {
                        match roll_disruption(rng, chaos, task.range.len()) {
                            Some(Disruption::Kill(delay)) => {
                                kill_at = Some(Instant::now() + delay);
                                *remaining -= 1;
                            }
                            Some(Disruption::Hang(after)) => {
                                cmd.env("S4E_CHAOS_HANG_AFTER", after.to_string());
                                *remaining -= 1;
                            }
                            Some(Disruption::Oom(after)) => {
                                cmd.env("S4E_CHAOS_OOM_AFTER", after.to_string());
                                *remaining -= 1;
                            }
                            None => {}
                        }
                    }
                }
                task.attempt += 1;
                let mut child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| {
                    CampaignError::Checkpoint(format!("spawning shard worker: {e}"))
                })?;
                report_stdout_end(&mut child, &exited_tx);
                task.history.push(format!(
                    "attempt {} spawn shard {} range {}..{}",
                    request.attempt, task.id, task.range.start, task.range.end
                ));
                let trace_start = ring.as_ref().map(|r| r.now_us());
                running.push(Running {
                    task,
                    child,
                    last_progress: Instant::now(),
                    kill_at,
                    fresh: 0,
                    trace_start,
                });
            }

            // Poll the running children: tails, watchdogs, exits.
            let mut index = 0;
            while index < running.len() {
                let run = &mut running[index];
                let fresh = tail_records(&run.task.checkpoint, &mut run.task.offset);
                if !fresh.is_empty() {
                    run.last_progress = Instant::now();
                    if let Some(p) = &self.progress {
                        p.worker_heartbeat(run.task.id);
                    }
                    run.fresh +=
                        merge_records(fresh, &mut done, self.progress.as_deref(), &occurrences);
                }
                let now = Instant::now();
                if run.kill_at.is_some_and(|at| at <= now)
                    || now.duration_since(run.last_progress) > self.config.stall_timeout
                    || self
                        .config
                        .mem_budget
                        .zip(rss_bytes(run.child.id()))
                        .is_some_and(|(budget, rss)| rss > budget)
                {
                    let _ = run.child.kill();
                    run.kill_at = None;
                    // Fall through: the exit is reaped below.
                }
                match run.child.try_wait() {
                    Ok(Some(status)) => {
                        let mut run = running.swap_remove(index);
                        // Final drain: records written between the last
                        // poll and the exit.
                        let fresh = tail_records(&run.task.checkpoint, &mut run.task.offset);
                        run.fresh +=
                            merge_records(fresh, &mut done, self.progress.as_deref(), &occurrences);
                        let status_text = status.to_string();
                        run.task.history.push(format!(
                            "exit ({status_text}) after {} fresh classifications",
                            run.fresh
                        ));
                        if let (Some(ring), Some(start)) = (ring.as_mut(), run.trace_start) {
                            ring.span(
                                "shard_attempt",
                                "supervisor",
                                start,
                                &[
                                    ("fresh", run.fresh.to_string()),
                                    (
                                        "range",
                                        format!("{}..{}", run.task.range.start, run.task.range.end),
                                    ),
                                    ("shard", run.task.id.to_string()),
                                    ("status", status_text),
                                ],
                            );
                        }
                        let remaining = remaining_indices(&run.task.range, specs, &done);
                        if remaining.is_empty() {
                            if let Some(p) = &self.progress {
                                p.record_shard_done();
                            }
                            continue;
                        }
                        if status.code() == Some(WORKER_FATAL_EXIT) {
                            fatal = Some(CampaignError::Config(format!(
                                "shard {} ({}..{}) reported a fatal setup error \
                                 (exit {WORKER_FATAL_EXIT}); see its stderr",
                                run.task.id, run.task.range.start, run.task.range.end
                            )));
                            break 'supervise;
                        }
                        // Crash (or a clean exit that somehow left work
                        // undone — treated identically). Progress resets
                        // the consecutive count: only a *stuck* shard
                        // escalates to bisection/quarantine.
                        stats.0 += 1;
                        run.task.crashes = if run.fresh > 0 {
                            1
                        } else {
                            run.task.crashes + 1
                        };
                        if let Some(p) = &self.progress {
                            p.record_shard_crash();
                        }
                        if run.task.crashes >= self.config.max_retries {
                            if remaining.len() == 1 {
                                let spec = specs[remaining[0]];
                                done.insert(spec, (FaultOutcome::Quarantined, None));
                                quarantined.push(spec);
                                if let Some(p) = &self.progress {
                                    for _ in 0..occurrences[&spec] {
                                        p.record_outcome(FaultOutcome::Quarantined);
                                    }
                                    p.record_shard_done();
                                }
                                run.task.history.push(format!("quarantined {spec}"));
                                if let Some(dir) = &self.trace_dir {
                                    let mut bundle = IncidentBundle::new("quarantined", spec);
                                    bundle.set_index(remaining[0]);
                                    for line in &run.task.history {
                                        bundle.push_attempt(line.clone());
                                    }
                                    if let Some(replay) = &self.forensic_replay {
                                        replay(&spec, &mut bundle);
                                    }
                                    // Forensics never fail the sweep: a
                                    // dump error only loses this bundle.
                                    if let Ok(path) = bundle.write(dir) {
                                        quarantine_bundles.push(path);
                                    }
                                }
                                if let Some(ring) = ring.as_mut() {
                                    ring.instant(
                                        "quarantine",
                                        "supervisor",
                                        &[
                                            ("index", remaining[0].to_string()),
                                            ("shard", run.task.id.to_string()),
                                            ("spec", spec.to_string()),
                                        ],
                                    );
                                }
                                continue;
                            }
                            // Bisect the surviving work in half; each
                            // half gets a fresh retry budget and its own
                            // seeded checkpoint.
                            stats.2 += 1;
                            total_tasks += 1; // one task becomes two
                            if let Some(p) = &self.progress {
                                p.record_shard_bisection();
                                p.begin_shards(total_tasks);
                            }
                            let split = remaining[remaining.len() / 2];
                            let halves = [
                                remaining[0]..split,
                                split..remaining[remaining.len() - 1] + 1,
                            ];
                            run.task.history.push(format!(
                                "bisect {}..{} at {split}",
                                remaining[0],
                                remaining[remaining.len() - 1] + 1
                            ));
                            if let Some(ring) = ring.as_mut() {
                                ring.instant(
                                    "shard_bisect",
                                    "supervisor",
                                    &[
                                        (
                                            "range",
                                            format!(
                                                "{}..{}",
                                                run.task.range.start, run.task.range.end
                                            ),
                                        ),
                                        ("shard", run.task.id.to_string()),
                                        ("split", split.to_string()),
                                    ],
                                );
                            }
                            for half in halves {
                                pending.push_back(Task {
                                    id: next_id,
                                    range: half,
                                    checkpoint: shard_dir.join(format!("shard-{next_id:04}.jsonl")),
                                    crashes: 0,
                                    attempt: 0,
                                    ready_at: Instant::now() + self.config.backoff_base,
                                    needs_seed: true,
                                    offset: 0,
                                    // Each half inherits the escalation
                                    // history that created it.
                                    history: run.task.history.clone(),
                                });
                                next_id += 1;
                            }
                            continue;
                        }
                        // Self-healing restart with exponential backoff.
                        let backoff = exponential_backoff(
                            self.config.backoff_base,
                            self.config.backoff_cap,
                            run.task.crashes,
                        );
                        stats.1 += 1;
                        if let Some(p) = &self.progress {
                            p.record_shard_restart(backoff);
                        }
                        run.task
                            .history
                            .push(format!("backoff {}ms then restart", backoff.as_millis()));
                        if let Some(ring) = ring.as_mut() {
                            ring.instant(
                                "shard_restart",
                                "supervisor",
                                &[
                                    ("backoff_ms", backoff.as_millis().to_string()),
                                    ("crashes", run.task.crashes.to_string()),
                                    ("shard", run.task.id.to_string()),
                                ],
                            );
                        }
                        run.task.ready_at = Instant::now() + backoff;
                        pending.push_back(run.task);
                        continue;
                    }
                    Ok(None) => {}
                    Err(_) => {}
                }
                index += 1;
            }

            if !running.is_empty() || !pending.is_empty() {
                // Sleep until the next poll, a restart or bisected half
                // that could launch, or a chaos kill, whichever is due
                // first; a worker's stdout closing wakes it sooner.
                let now = Instant::now();
                let launch = (running.len() < self.config.shards)
                    .then(|| pending.iter().map(|t| t.ready_at).min())
                    .flatten();
                let kill = running.iter().filter_map(|r| r.kill_at).min();
                let wake = [launch, kill]
                    .into_iter()
                    .flatten()
                    .fold(now + self.config.poll_interval, Instant::min);
                if let Ok(pid) = exited_rx.recv_timeout(wake.saturating_duration_since(now)) {
                    if let Some(run) = running.iter_mut().find(|r| r.child.id() == pid) {
                        await_exit_status(&mut run.child);
                    }
                }
            }
        }

        // Shutdown: kill and reap every live child, drain their tails.
        for mut run in running.drain(..) {
            let _ = run.child.kill();
            let _ = run.child.wait();
            let fresh = tail_records(&run.task.checkpoint, &mut run.task.offset);
            merge_records(fresh, &mut done, self.progress.as_deref(), &occurrences);
        }

        // Flush the final merged checkpoint atomically before reporting
        // (also on interrupt and fatal paths: partial progress is real).
        if let Some(path) = merged_checkpoint {
            let mut seen = HashSet::new();
            let owned: Vec<(FaultResult, Option<String>)> = specs
                .iter()
                .filter(|spec| seen.insert(**spec))
                .filter_map(|spec| {
                    done.get(spec).map(|(outcome, panic)| {
                        (
                            FaultResult {
                                spec: *spec,
                                outcome: *outcome,
                            },
                            panic.clone(),
                        )
                    })
                })
                .collect();
            compact_checkpoint(path, owned.iter().map(|(r, p)| (r, p.as_deref())))
                .map_err(|e| CampaignError::Checkpoint(format!("{}: {e}", path.display())))?;
        }
        // Close the supervisor lane before the fatal early-return so a
        // failed sweep still leaves its trace behind.
        if let (Some(tracer), Some(mut ring)) = (self.tracer.as_ref(), ring.take()) {
            if let Some(start) = sweep_start {
                ring.span(
                    "sharded_sweep",
                    "supervisor",
                    start,
                    &[
                        ("bisections", stats.2.to_string()),
                        ("crashes", stats.0.to_string()),
                        ("mutants", specs.len().to_string()),
                        ("quarantined", quarantined.len().to_string()),
                        ("restarts", stats.1.to_string()),
                    ],
                );
            }
            tracer.collect(ring);
        }
        if let Some(e) = fatal {
            return Err(e);
        }

        let mut results = Vec::with_capacity(specs.len());
        let mut panics = Vec::new();
        for spec in specs {
            let (outcome, panic) = done
                .get(spec)
                .cloned()
                .unwrap_or((FaultOutcome::Cancelled, None));
            if let Some(msg) = panic {
                panics.push((*spec, msg));
            }
            results.push(FaultResult {
                spec: *spec,
                outcome,
            });
        }
        Ok(ShardedReport {
            report: Campaign::build_report(results, panics),
            quarantined,
            quarantine_bundles,
            crashes: stats.0,
            restarts: stats.1,
            bisections: stats.2,
            interrupted,
        })
    }
}

/// Moves the worker's stdout to a reader thread that drains and
/// discards it, then sends the worker's pid on `exited`: the pipe ends
/// when the worker exits (or closes its stdout), which wakes the
/// supervisor without waiting for its next poll. Should the thread fail
/// to start, the pipe closes (the worker's stdout writes then fail) and
/// its exit is seen at a poll.
fn report_stdout_end(child: &mut Child, exited: &mpsc::Sender<u32>) {
    let Some(mut stdout) = child.stdout.take() else {
        return;
    };
    let (pid, exited) = (child.id(), exited.clone());
    let _ = std::thread::Builder::new()
        .name("shard-stdout".into())
        .spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
            let _ = exited.send(pid);
        });
}

/// Gives a worker whose stdout just ended a few milliseconds to become
/// reapable: an exiting process closes its files before its exit status
/// is ready. A worker that closed its stdout and runs on is left to the
/// polls and their watchdogs.
fn await_exit_status(child: &mut Child) {
    for _ in 0..50 {
        if !matches!(child.try_wait(), Ok(None)) {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The mutant indices of `range` not yet classified.
fn remaining_indices(range: &Range<usize>, specs: &[FaultSpec], done: &DoneMap) -> Vec<usize> {
    range
        .clone()
        .filter(|&i| !done.contains_key(&specs[i]))
        .collect()
}

/// How many times each spec occurs in the sweep list.
fn count_occurrences(specs: &[FaultSpec]) -> HashMap<FaultSpec, u64> {
    let mut counts = HashMap::with_capacity(specs.len());
    for spec in specs {
        *counts.entry(*spec).or_insert(0) += 1;
    }
    counts
}

/// Folds tailed records into the merged state, merging only
/// first-sightings (duplicated specs across shard files merge cleanly).
/// Progress counts each first-sighting once per occurrence of its spec
/// in the list. Returns how many specs were genuinely new.
fn merge_records(
    fresh: Vec<(FaultResult, Option<String>)>,
    done: &mut DoneMap,
    progress: Option<&CampaignProgress>,
    occurrences: &HashMap<FaultSpec, u64>,
) -> u64 {
    let mut new = 0;
    for (result, panic) in fresh {
        if done.insert(result.spec, (result.outcome, panic)).is_none() {
            new += 1;
            if let Some(p) = progress {
                for _ in 0..occurrences.get(&result.spec).copied().unwrap_or(0) {
                    p.record_outcome(result.outcome);
                }
            }
        }
    }
    new
}

fn exponential_backoff(base: Duration, cap: Duration, crashes: u32) -> Duration {
    let factor = 1u32 << crashes.saturating_sub(1).min(16);
    base.saturating_mul(factor).min(cap)
}

enum Disruption {
    Kill(Duration),
    Hang(u64),
    Oom(u64),
}

fn roll_disruption(rng: &mut StdRng, chaos: &ChaosConfig, range_len: usize) -> Option<Disruption> {
    let x: f64 = rng.random();
    let hi = range_len.max(2) as u64;
    if x < chaos.kill_prob {
        Some(Disruption::Kill(Duration::from_millis(
            rng.random_range(5u64..120),
        )))
    } else if x < chaos.kill_prob + chaos.hang_prob {
        Some(Disruption::Hang(rng.random_range(0..hi)))
    } else if x < chaos.kill_prob + chaos.hang_prob + chaos.oom_prob {
        Some(Disruption::Oom(rng.random_range(0..hi)))
    } else {
        None
    }
}

/// Reads newly-appended *complete* lines from a shard checkpoint,
/// starting at `offset`. The offset only advances past line
/// terminators, so a torn tail is re-read (and, after the worker's
/// restart truncates it, naturally disappears).
fn tail_records(path: &Path, offset: &mut u64) -> Vec<(FaultResult, Option<String>)> {
    let mut out = Vec::new();
    let Ok(mut file) = File::open(path) else {
        return out;
    };
    if file.seek(SeekFrom::Start(*offset)).is_err() {
        return out;
    }
    let mut buf = Vec::new();
    if file.read_to_end(&mut buf).is_err() {
        return out;
    }
    let mut start = 0;
    while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
        let line = &buf[start..start + pos];
        start += pos + 1;
        *offset += (pos + 1) as u64;
        if let Ok(text) = std::str::from_utf8(line) {
            if let Some(entry) = decode_result(text) {
                out.push(entry);
            }
        }
    }
    out
}

/// Resident-set size of a child process in bytes (Linux `/proc`).
#[cfg(target_os = "linux")]
fn rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resident-set size of a child process (unsupported platform: `None`,
/// disabling the memory watchdog).
#[cfg(not(target_os = "linux"))]
fn rss_bytes(_pid: u32) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(SupervisorConfig::new(0).validate().is_err());
        assert!(SupervisorConfig::new(5000).validate().is_err());
        let mut cfg = SupervisorConfig::new(4);
        assert!(cfg.validate().is_ok());
        cfg.max_retries = 0;
        assert!(cfg.validate().is_err());
        cfg.max_retries = 3;
        cfg.stall_timeout = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        assert_eq!(exponential_backoff(base, cap, 1), base);
        assert_eq!(exponential_backoff(base, cap, 2), base * 2);
        assert_eq!(exponential_backoff(base, cap, 3), base * 4);
        assert_eq!(exponential_backoff(base, cap, 20), cap);
    }

    #[test]
    fn chaos_env_parsing() {
        // from_env reads the live environment; exercise the parser via a
        // scoped set/remove (no other test reads S4E_CHAOS).
        std::env::set_var("S4E_CHAOS", "seed=7,kill=0.5,hang=0.25,max=6");
        let chaos = ChaosConfig::from_env().expect("parses");
        assert_eq!(chaos.seed, 7);
        assert!((chaos.kill_prob - 0.5).abs() < 1e-9);
        assert!((chaos.hang_prob - 0.25).abs() < 1e-9);
        assert_eq!(chaos.max_disruptions, 6);
        std::env::set_var("S4E_CHAOS", "nonsense");
        assert!(ChaosConfig::from_env().is_none());
        std::env::remove_var("S4E_CHAOS");
        assert!(ChaosConfig::from_env().is_none());
    }
}
