//! The `s4e` command-line driver: assemble, run, disassemble, analyze and
//! fault-test RISC-V programs from the shell.
//!
//! The CLI is a thin layer over the library crates; all commands return
//! their output as a `String` so they are directly testable.

use crate::prelude::*;
use s4e_cfg::{program_to_dot, program_to_dot_annotated};
use s4e_obs::{from_chrome_json, merge_events, to_chrome_json, MetricValue, TraceRing, Tracer};
use s4e_vp::dev::{Syscon, Uart};
use s4e_vp::{DispatchStats, FlightEvent, FlightRecorder};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-thread trace-ring capacity for `--trace-out`: events beyond it
/// degrade to a sliding window instead of unbounded memory.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// Flight-recorder depth for interactive `run`/`profile` traces (the
/// campaign's per-mutant forensics use the smaller
/// [`s4e_faultsim::FLIGHT_RECORDER_CAPACITY`]).
const RUN_FLIGHT_CAPACITY: usize = 1024;

/// A CLI usage or execution error, with the message shown to the user
/// and the process exit code it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
    code: i32,
}

impl CliError {
    fn new(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }

    fn with_code(msg: impl Into<String>, code: i32) -> CliError {
        CliError {
            message: msg.into(),
            code,
        }
    }

    /// The process exit code this error maps to (1 for ordinary usage
    /// and execution errors; [`s4e_faultsim::WORKER_FATAL_EXIT`] for a
    /// shard worker's
    /// fatal setup failure, which the supervisor distinguishes from a
    /// crash).
    pub fn exit_code(&self) -> i32 {
        self.code
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// A successful CLI invocation: the text to print, plus the process exit
/// code (nonzero "success" codes exist: [`EXIT_QUARANTINED`] and
/// [`EXIT_INTERRUPTED`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutcome {
    /// The text the command prints on stdout.
    pub output: String,
    /// The process exit code: 0, [`EXIT_QUARANTINED`] or
    /// [`EXIT_INTERRUPTED`].
    pub code: i32,
}

impl CliOutcome {
    fn clean(output: String) -> CliOutcome {
        CliOutcome { output, code: 0 }
    }
}

/// Exit code of a campaign that completed but quarantined at least one
/// mutant (results are usable; the quarantined specs need investigation).
pub const EXIT_QUARANTINED: i32 = 2;

/// Exit code of a campaign stopped by SIGINT/SIGTERM after flushing its
/// final checkpoint (the conventional 128 + SIGINT).
pub const EXIT_INTERRUPTED: i32 = 130;

const USAGE: &str = "\
s4e — the Scale4Edge RISC-V ecosystem driver

USAGE:
    s4e <command> <file.s> [options]

COMMANDS:
    run       assemble and execute on the virtual prototype
    disasm    assemble and print the disassembly listing
    cfg       reconstruct and print the control-flow graph (DOT)
    wcet      static WCET analysis report
    qta       WCET-annotated co-simulation (dynamic / QTA / static)
    coverage  instruction and register coverage of one run
    profile   hot-block execution profile of one run
    campaign  coverage-driven fault-injection campaign (alias: faults)

OPTIONS:
    --isa <rv32i|rv32im|rv32imc|rv32imfc|full>   core configuration [full]
    --rvc                                        enable auto-compression
    --bound <label>=<n>                          annotate a loop bound (wcet/qta)
    --emit-tcfg <path>                           write the annotated CFG (wcet)
    --tcfg <path>                                co-simulate a shipped CFG (qta)
    --mutants <n>                                mutant count scale (campaign) [2]
    --threads <n>                                campaign worker threads [1]
    --timeout-ms <n>                             per-mutant wall-clock watchdog in ms, n >= 1
                                                 (omit the flag to disable the watchdog)
    --checkpoint <path>                          stream per-mutant results to a JSONL file
    --resume                                     skip mutants already in --checkpoint
    --shards <n>                                 run the campaign as n process-isolated shard
                                                 workers (needs --checkpoint); crashed shards
                                                 restart from their checkpoints, repeat crashers
                                                 are bisected and quarantined
    --max-retries <n>                            shard crashes tolerated before bisection /
                                                 quarantine (campaign) [3]
    --shard-mem-mb <n>                           per-shard resident-memory budget; a worker over
                                                 it is killed and restarted (campaign)
    --shard-stall-ms <n>                         kill a shard worker producing no results for
                                                 this long (campaign) [30000]
    --max-insns <n>                              execution budget [100000000]
    --metrics-out <path>                         write a metrics snapshot as JSON (run/profile/qta/campaign)
    --trace-out <path>                           write a Chrome trace_event JSON timeline of the
                                                 run, loadable in Perfetto (run/profile/campaign)
    --trace-dir <dir>                            write per-incident forensic bundles (FaultSpec,
                                                 flight-recorder tail, final arch state) on
                                                 timeouts, hangs, harness errors and quarantines
                                                 (campaign)
    --no-prune                                   execute every mutant: disable the def-use
                                                 dead-bit analysis and post-injection state
                                                 dedupe that classify provably equivalent
                                                 mutants without running them (campaign)
    --no-jit                                     disable the template JIT tier: hot blocks stay
                                                 on the micro-op interpreter instead of being
                                                 compiled to host code; in campaigns this now
                                                 covers mutant suffixes too — native code
                                                 survives each per-mutant restore and feeds
                                                 the flight recorder, so --no-jit slows the
                                                 whole sweep, not just the golden replay
                                                 (run/profile/campaign)
    --progress                                   live status line on stderr (run/profile/campaign)
    --dot-out <path>                             write the execution-annotated CFG (profile)
    --top <n>                                    hot-block table rows (profile) [10]

EXIT CODES:
    0    success
    1    usage or execution error
    2    campaign completed with quarantined mutants
    3    shard worker fatal setup error (internal)
    130  interrupted by SIGINT/SIGTERM (partial results checkpointed)
";

struct Options {
    isa: IsaConfig,
    isa_name: String,
    rvc: bool,
    bounds: Vec<(String, u64)>,
    mutants: usize,
    threads: usize,
    timeout_ms: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    shards: usize,
    max_retries: u32,
    shard_mem_mb: Option<u64>,
    shard_stall_ms: Option<u64>,
    shard_worker: Option<std::ops::Range<usize>>,
    max_insns: u64,
    emit_tcfg: Option<String>,
    tcfg: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    trace_dir: Option<String>,
    progress: bool,
    dot_out: Option<String>,
    top: usize,
    prune: bool,
    jit: bool,
}

fn parse_isa(name: &str) -> Result<IsaConfig, CliError> {
    Ok(match name {
        "rv32i" => IsaConfig::rv32i(),
        "rv32im" => IsaConfig::rv32im(),
        "rv32imc" => IsaConfig::rv32imc(),
        "rv32imfc" => IsaConfig::rv32imfc(),
        "full" => IsaConfig::full(),
        other => return Err(CliError::new(format!("unknown ISA `{other}`"))),
    })
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        isa: IsaConfig::full(),
        isa_name: "full".to_string(),
        rvc: false,
        bounds: Vec::new(),
        mutants: 2,
        threads: 1,
        timeout_ms: None,
        checkpoint: None,
        resume: false,
        shards: 0,
        max_retries: 3,
        shard_mem_mb: None,
        shard_stall_ms: None,
        shard_worker: None,
        max_insns: 100_000_000,
        emit_tcfg: None,
        tcfg: None,
        metrics_out: None,
        trace_out: None,
        trace_dir: None,
        progress: false,
        dot_out: None,
        top: 10,
        prune: true,
        jit: true,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::new(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--isa" => {
                let name = value("--isa")?;
                opts.isa = parse_isa(&name)?;
                opts.isa_name = name;
            }
            "--rvc" => opts.rvc = true,
            "--bound" => {
                let v = value("--bound")?;
                let (label, n) = v
                    .split_once('=')
                    .ok_or_else(|| CliError::new("--bound expects label=N"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| CliError::new(format!("bad bound `{n}`")))?;
                opts.bounds.push((label.to_string(), n));
            }
            "--mutants" => {
                opts.mutants = value("--mutants")?
                    .parse()
                    .map_err(|_| CliError::new("bad --mutants value"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError::new("bad --threads value"))?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| CliError::new("bad --timeout-ms value"))?;
                if ms == 0 {
                    return Err(CliError::new(
                        "--timeout-ms 0 is invalid: the watchdog period must be at \
                         least 1 ms (omit the flag to disable the watchdog)",
                    ));
                }
                opts.timeout_ms = Some(ms);
            }
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")?),
            "--resume" => opts.resume = true,
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|_| CliError::new("bad --shards value"))?;
                if opts.shards == 0 {
                    return Err(CliError::new(
                        "--shards 0 is invalid: a sharded campaign needs at least 1 \
                         worker process (omit the flag to run unsharded)",
                    ));
                }
            }
            "--max-retries" => {
                opts.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| CliError::new("bad --max-retries value"))?;
                if opts.max_retries == 0 {
                    return Err(CliError::new(
                        "--max-retries 0 is invalid: a crashed shard must be allowed \
                         at least 1 attempt",
                    ));
                }
            }
            "--shard-mem-mb" => {
                opts.shard_mem_mb = Some(
                    value("--shard-mem-mb")?
                        .parse()
                        .map_err(|_| CliError::new("bad --shard-mem-mb value"))?,
                );
            }
            "--shard-stall-ms" => {
                let ms: u64 = value("--shard-stall-ms")?
                    .parse()
                    .map_err(|_| CliError::new("bad --shard-stall-ms value"))?;
                if ms == 0 {
                    return Err(CliError::new(
                        "--shard-stall-ms 0 is invalid: the stall watchdog period \
                         must be at least 1 ms",
                    ));
                }
                opts.shard_stall_ms = Some(ms);
            }
            "--shard-worker" => {
                let v = value("--shard-worker")?;
                opts.shard_worker = Some(s4e_faultsim::parse_shard_range(&v).ok_or_else(|| {
                    CliError::new(format!("bad --shard-worker range `{v}` (want a..b)"))
                })?);
            }
            "--emit-tcfg" => opts.emit_tcfg = Some(value("--emit-tcfg")?),
            "--tcfg" => opts.tcfg = Some(value("--tcfg")?),
            "--max-insns" => {
                opts.max_insns = value("--max-insns")?
                    .parse()
                    .map_err(|_| CliError::new("bad --max-insns value"))?;
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-dir" => opts.trace_dir = Some(value("--trace-dir")?),
            "--no-prune" => opts.prune = false,
            "--no-jit" => opts.jit = false,
            "--progress" => opts.progress = true,
            "--dot-out" => opts.dot_out = Some(value("--dot-out")?),
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| CliError::new("bad --top value"))?;
            }
            other => return Err(CliError::new(format!("unknown option `{other}`"))),
        }
    }
    Ok(opts)
}

/// The argument vector a shard worker needs to rebuild the *identical*
/// mutant queue: same source, ISA, compression, generator scale and
/// runner flags as the supervisor (the generator is seed-deterministic,
/// so identical flags ⇒ identical mutant indices). The supervisor
/// appends the per-shard `--shard-worker`/`--checkpoint` pair.
fn worker_flag_args(opts: &Options, source_path: &str) -> Vec<String> {
    let mut args = vec![
        "campaign".to_string(),
        source_path.to_string(),
        "--isa".to_string(),
        opts.isa_name.clone(),
        "--mutants".to_string(),
        opts.mutants.to_string(),
        "--threads".to_string(),
        opts.threads.to_string(),
        "--max-insns".to_string(),
        opts.max_insns.to_string(),
    ];
    if opts.rvc {
        args.push("--rvc".to_string());
    }
    if let Some(ms) = opts.timeout_ms {
        args.push("--timeout-ms".to_string());
        args.push(ms.to_string());
    }
    if !opts.prune {
        args.push("--no-prune".to_string());
    }
    if !opts.jit {
        args.push("--no-jit".to_string());
    }
    args
}

fn build_image(source: &str, opts: &Options) -> Result<Image, CliError> {
    let asm_opts = AsmOptions::new().isa(opts.isa).compress(opts.rvc);
    assemble_with(source, &asm_opts).map_err(|e| CliError::new(format!("assembly failed: {e}")))
}

fn wcet_options(image: &Image, opts: &Options) -> Result<WcetOptions, CliError> {
    let mut bounds = LoopBounds::new();
    for (label, n) in &opts.bounds {
        let addr = image
            .symbol(label)
            .ok_or_else(|| CliError::new(format!("--bound label `{label}` is not a symbol")))?;
        bounds.set(addr, *n);
    }
    Ok(WcetOptions {
        bounds,
        ..WcetOptions::new()
    })
}

fn write_metrics(path: &str, snapshot: &Snapshot, out: &mut String) -> Result<(), CliError> {
    // Temp-file + fsync + atomic rename: a reader polling the metrics
    // file never observes a torn snapshot, even across a crash.
    s4e_faultsim::atomic_write_file(path, (snapshot.to_json() + "\n").as_bytes())
        .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
    let _ = writeln!(out, "metrics written to {path}");
    Ok(())
}

/// `snapshot` plus every [`DispatchStats`] row of `stats` as a
/// `vp_<suffix>` counter.
fn with_dispatch(mut snapshot: Snapshot, stats: &DispatchStats) -> Snapshot {
    let registry = MetricsRegistry::new();
    for c in stats.counters() {
        registry.counter(&format!("vp_{}", c.suffix)).add(c.value);
    }
    snapshot.merge(&registry.snapshot());
    snapshot
}

fn write_trace(
    path: &str,
    events: &[s4e_obs::TraceEvent],
    out: &mut String,
) -> Result<(), CliError> {
    s4e_faultsim::atomic_write_file(path, to_chrome_json(events).as_bytes())
        .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
    let _ = writeln!(out, "trace written to {path} ({} events)", events.len());
    Ok(())
}

/// Projects the flight-recorder tail of a finished `run`/`profile` VP
/// onto its wall-clock trace span: the recorder stamps events with
/// `instret`, so each timestamp interpolates the `[start_us, end_us]`
/// window by retired-instruction fraction — ordering is exact, spacing
/// is approximate.
fn trace_flight_tail(ring: &mut TraceRing, vp: &Vp, start_us: u64, end_us: u64) {
    let Some(recorder) = vp.plugin::<FlightRecorder>() else {
        return;
    };
    let total = vp.cpu().instret().max(1);
    let window = end_us.saturating_sub(start_us);
    for (event, device) in recorder.tail() {
        let ts = start_us + ((window as u128 * event.instret() as u128) / total as u128) as u64;
        match event {
            FlightEvent::Block { instret, pc } => ring.instant_at(
                "block",
                "flight",
                ts,
                &[
                    ("instret", instret.to_string()),
                    ("pc", format!("{pc:#010x}")),
                ],
            ),
            FlightEvent::Trap {
                instret,
                pc,
                mcause,
            } => ring.instant_at(
                "trap",
                "flight",
                ts,
                &[
                    ("instret", instret.to_string()),
                    ("mcause", format!("{mcause:#x}")),
                    ("pc", format!("{pc:#010x}")),
                ],
            ),
            FlightEvent::Device {
                instret,
                pc,
                addr,
                value,
                is_store,
            } => ring.instant_at(
                "device",
                "flight",
                ts,
                &[
                    ("addr", format!("{addr:#010x}")),
                    ("device", device.unwrap_or("?").to_string()),
                    ("instret", instret.to_string()),
                    ("op", if is_store { "store" } else { "load" }.to_string()),
                    ("pc", format!("{pc:#010x}")),
                    ("value", format!("{value:#x}")),
                ],
            ),
        }
    }
    ring.instant_at(
        "flight_summary",
        "flight",
        end_us,
        &[
            ("blocks", recorder.blocks_recorded().to_string()),
            (
                "device_accesses",
                recorder.device_accesses_recorded().to_string(),
            ),
            ("evicted", recorder.evicted().to_string()),
            ("traps", recorder.traps_recorded().to_string()),
        ],
    );
}

/// A background stderr ticker for a live VP run: while the simulation
/// loop owns the VP, this thread reads the profiler's shared registry
/// and reports retirement throughput. Dropping the guard stops it.
struct RunTicker {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RunTicker {
    fn start(registry: Arc<MetricsRegistry>) -> RunTicker {
        use std::sync::atomic::Ordering;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let insns = registry.counter(crate::obs::names::INSN_RETIRED);
            let started = std::time::Instant::now();
            loop {
                std::thread::park_timeout(std::time::Duration::from_millis(500));
                let n = insns.value();
                let rate = n as f64 / started.elapsed().as_secs_f64().max(1e-9);
                eprintln!("run: {n} insns ({rate:.0}/s)");
                if thread_stop.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        RunTicker {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for RunTicker {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Runs one CLI invocation. `args` excludes the program name.
///
/// Returns the text the command prints on success.
///
/// # Errors
///
/// Returns [`CliError`] with the user-facing message for usage errors,
/// unreadable files, assembly failures, or failed analyses.
///
/// # Examples
///
/// ```no_run
/// let out = scale4edge::cli::run_cli(&["run".into(), "prog.s".into()])?;
/// println!("{out}");
/// # Ok::<(), scale4edge::cli::CliError>(())
/// ```
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    run_cli_full(args).map(|outcome| outcome.output)
}

/// Runs one CLI invocation like [`run_cli`], but also surfaces the
/// process exit code ([`CliOutcome::code`]) so the binary can report
/// quarantines ([`EXIT_QUARANTINED`]) and interrupts
/// ([`EXIT_INTERRUPTED`]) distinctly.
///
/// # Errors
///
/// Returns [`CliError`] as [`run_cli`] does.
pub fn run_cli_full(args: &[String]) -> Result<CliOutcome, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::new(USAGE));
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(CliOutcome::clean(USAGE.to_string()));
    }
    let path = args
        .get(1)
        .ok_or_else(|| CliError::new(format!("`{command}` needs an input file\n\n{USAGE}")))?;
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))?;
    let opts = parse_options(&args[2..])?;
    run_command_inner(command, &source, Some(path), &opts)
}

/// Runs one CLI command against in-memory source (the testable core of
/// [`run_cli`]).
///
/// # Errors
///
/// Returns [`CliError`] as [`run_cli`] does, minus the file handling.
pub fn run_command(command: &str, source: &str, opts_args: &[&str]) -> Result<String, CliError> {
    run_command_full(command, source, opts_args).map(|outcome| outcome.output)
}

/// [`run_command`] with the exit code: the testable core of
/// [`run_cli_full`].
///
/// # Errors
///
/// Returns [`CliError`] as [`run_cli`] does, minus the file handling.
pub fn run_command_full(
    command: &str,
    source: &str,
    opts_args: &[&str],
) -> Result<CliOutcome, CliError> {
    let owned: Vec<String> = opts_args.iter().map(|s| s.to_string()).collect();
    let opts = parse_options(&owned)?;
    run_command_inner(command, source, None, &opts)
}

fn run_command_inner(
    command: &str,
    source: &str,
    source_path: Option<&str>,
    opts: &Options,
) -> Result<CliOutcome, CliError> {
    let image = build_image(source, opts)?;
    let mut out = String::new();
    let mut code = 0;
    match command {
        "run" => {
            let mut vp = Vp::builder().isa(opts.isa).jit(opts.jit).build();
            crate::boot(&mut vp, &image)
                .map_err(|e| CliError::new(format!("image does not fit RAM: {e}")))?;
            if opts.metrics_out.is_some() || opts.progress {
                vp.add_plugin(Box::new(ProfilePlugin::new()));
            }
            if opts.trace_out.is_some() {
                vp.add_plugin(Box::new(FlightRecorder::new(RUN_FLIGHT_CAPACITY)));
            }
            let ticker = if opts.progress {
                let registry = vp
                    .plugin::<ProfilePlugin>()
                    .expect("attached above")
                    .registry();
                Some(RunTicker::start(Arc::clone(registry)))
            } else {
                None
            };
            let mut ring = opts
                .trace_out
                .as_ref()
                .map(|_| TraceRing::new(TRACE_RING_CAPACITY));
            let run_start = ring.as_ref().map(TraceRing::now_us);
            let outcome = vp.run_for(opts.max_insns);
            drop(ticker);
            let _ = writeln!(out, "outcome : {outcome:?}");
            let _ = writeln!(out, "a0      : {}", vp.cpu().gpr(Gpr::A0));
            let _ = writeln!(out, "insns   : {}", vp.cpu().instret());
            let _ = writeln!(out, "cycles  : {}", vp.cpu().cycles());
            if let Some(uart) = vp.bus_mut().device_mut::<Uart>() {
                let bytes = uart.take_output();
                if !bytes.is_empty() {
                    let _ = writeln!(out, "uart    : {}", String::from_utf8_lossy(&bytes));
                }
            }
            if let Some(sys) = vp.bus_mut().device_mut::<Syscon>() {
                let bytes = sys.take_console();
                if !bytes.is_empty() {
                    let _ = writeln!(out, "console : {}", String::from_utf8_lossy(&bytes));
                }
            }
            if let Some(path) = &opts.metrics_out {
                let snap = vp
                    .plugin::<ProfilePlugin>()
                    .expect("attached above")
                    .snapshot();
                write_metrics(path, &with_dispatch(snap, &vp.dispatch_stats()), &mut out)?;
            }
            if let (Some(mut ring), Some(start), Some(path)) =
                (ring.take(), run_start, &opts.trace_out)
            {
                let end = ring.now_us();
                trace_flight_tail(&mut ring, &vp, start, end);
                ring.span_at(
                    "run",
                    "vp",
                    start,
                    end,
                    &[
                        ("insns", vp.cpu().instret().to_string()),
                        ("outcome", format!("{outcome:?}")),
                    ],
                );
                write_trace(path, &merge_events(vec![ring.drain()]), &mut out)?;
            }
        }
        "disasm" => {
            let mut addr = image.base();
            while addr < image.end() {
                let Some(half) = image.half_at(addr) else {
                    break;
                };
                let raw = if half & 0b11 == 0b11 {
                    match image.word_at(addr) {
                        Some(w) => w,
                        None => break,
                    }
                } else {
                    half as u32
                };
                if let Some((sym, 0)) = image.nearest_symbol(addr) {
                    let _ = writeln!(out, "{sym}:");
                }
                let text = s4e_isa::disassemble(raw, &opts.isa);
                let _ = writeln!(out, "  {addr:#010x}: {text}");
                addr += match decode(raw, &opts.isa) {
                    Ok(i) => i.len() as u32,
                    Err(_) => 4,
                };
            }
        }
        "cfg" => {
            let mut prog =
                Program::from_bytes(image.base(), image.bytes(), image.entry(), &opts.isa)
                    .map_err(|e| CliError::new(format!("CFG reconstruction failed: {e}")))?;
            prog.apply_symbols(image.symbols().iter().map(|(n, &a)| (n.as_str(), a)));
            out.push_str(&program_to_dot(&prog));
        }
        "wcet" => {
            let prog = Program::from_bytes(image.base(), image.bytes(), image.entry(), &opts.isa)
                .map_err(|e| CliError::new(format!("CFG reconstruction failed: {e}")))?;
            let mut prog = prog;
            prog.apply_symbols(image.symbols().iter().map(|(n, &a)| (n.as_str(), a)));
            let wopts = wcet_options(&image, opts)?;
            let report = analyze(&prog, &wopts)
                .map_err(|e| CliError::new(format!("WCET analysis failed: {e}")))?;
            out.push_str(&report.render_text());
            if let Some(path) = &opts.emit_tcfg {
                let tcfg = TimedCfg::build(&prog, &report);
                std::fs::write(path, tcfg.to_text())
                    .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
                let _ = writeln!(out, "\nannotated CFG written to {path}");
            }
        }
        "qta" => {
            let session = if let Some(path) = &opts.tcfg {
                // The deployed flow: binary + shipped annotated CFG.
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::new(format!("cannot read `{path}`: {e}")))?;
                let tcfg = TimedCfg::from_text(&text)
                    .map_err(|e| CliError::new(format!("bad annotated CFG: {e}")))?;
                QtaSession::from_timed_cfg(
                    image.base(),
                    image.bytes(),
                    image.entry(),
                    opts.isa,
                    TimingModel::new(),
                    tcfg,
                )
            } else {
                let wopts = wcet_options(&image, opts)?;
                QtaSession::prepare(image.base(), image.bytes(), image.entry(), opts.isa, &wopts)
                    .map_err(|e| CliError::new(format!("QTA preparation failed: {e}")))?
            };
            let run = session
                .run()
                .map_err(|e| CliError::new(format!("QTA run failed: {e}")))?;
            let _ = writeln!(out, "outcome        : {:?}", run.outcome);
            let _ = writeln!(out, "dynamic cycles : {}", run.dynamic_cycles);
            let _ = writeln!(out, "QTA path cycles: {}", run.qta_cycles);
            let _ = writeln!(out, "static WCET    : {}", run.static_wcet);
            let _ = writeln!(out, "pessimism      : {:.3}x", run.pessimism());
            let _ = writeln!(out, "invariant chain: {}", run.invariant_holds());
            let _ = writeln!(
                out,
                "native         : {} of {} instructions",
                run.dispatch.jit_retired, run.instret
            );
            for v in &run.violations {
                let _ = writeln!(
                    out,
                    "BOUND VIOLATION: header {:#010x} bound {} observed {}",
                    v.header, v.bound, v.observed
                );
            }
            if let Some(path) = &opts.metrics_out {
                let snap = with_dispatch(run.metrics.clone(), &run.dispatch);
                write_metrics(path, &snap, &mut out)?;
            }
        }
        "coverage" => {
            let mut vp = Vp::new(opts.isa);
            crate::boot(&mut vp, &image)
                .map_err(|e| CliError::new(format!("image does not fit RAM: {e}")))?;
            vp.add_plugin(Box::new(CoveragePlugin::new(opts.isa)));
            let outcome = vp.run_for(opts.max_insns);
            let _ = writeln!(out, "outcome: {outcome:?}");
            let report = vp
                .plugin::<CoveragePlugin>()
                .expect("plugin attached above")
                .report();
            out.push_str(&report.summary_table());
        }
        "profile" => {
            let mut vp = Vp::builder().isa(opts.isa).jit(opts.jit).build();
            crate::boot(&mut vp, &image)
                .map_err(|e| CliError::new(format!("image does not fit RAM: {e}")))?;
            vp.add_plugin(Box::new(ProfilePlugin::new()));
            if opts.trace_out.is_some() {
                vp.add_plugin(Box::new(FlightRecorder::new(RUN_FLIGHT_CAPACITY)));
            }
            let ticker = if opts.progress {
                let registry = vp
                    .plugin::<ProfilePlugin>()
                    .expect("attached above")
                    .registry();
                Some(RunTicker::start(Arc::clone(registry)))
            } else {
                None
            };
            let mut ring = opts
                .trace_out
                .as_ref()
                .map(|_| TraceRing::new(TRACE_RING_CAPACITY));
            let run_start = ring.as_ref().map(TraceRing::now_us);
            let outcome = vp.run_for(opts.max_insns);
            drop(ticker);
            let instret = vp.cpu().instret();
            let profile = vp.plugin::<ProfilePlugin>().expect("attached above");
            let snap = profile.snapshot();
            let _ = writeln!(out, "outcome: {outcome:?}");
            let _ = writeln!(out, "insns  : {instret}");
            let _ = writeln!(
                out,
                "blocks : {} translated, {} entries",
                snap.counter(crate::obs::names::BLOCKS_TRANSLATED)
                    .unwrap_or(0),
                snap.counter(crate::obs::names::BLOCK_EXECS).unwrap_or(0)
            );
            let _ = writeln!(
                out,
                "memory : {} reads, {} writes",
                snap.counter(crate::obs::names::MEM_READS).unwrap_or(0),
                snap.counter(crate::obs::names::MEM_WRITES).unwrap_or(0)
            );
            let traps = snap.counter(crate::obs::names::TRAPS).unwrap_or(0);
            if traps > 0 {
                let _ = writeln!(out, "traps  : {traps}");
            }
            out.push_str(&profile.hot_block_table(opts.top));
            if let Some(path) = &opts.dot_out {
                let counts = profile.block_exec_counts();
                let mut prog =
                    Program::from_bytes(image.base(), image.bytes(), image.entry(), &opts.isa)
                        .map_err(|e| CliError::new(format!("CFG reconstruction failed: {e}")))?;
                prog.apply_symbols(image.symbols().iter().map(|(n, &a)| (n.as_str(), a)));
                std::fs::write(path, program_to_dot_annotated(&prog, &counts))
                    .map_err(|e| CliError::new(format!("cannot write `{path}`: {e}")))?;
                let _ = writeln!(out, "annotated CFG written to {path}");
            }
            if let Some(path) = &opts.metrics_out {
                write_metrics(path, &with_dispatch(snap, &vp.dispatch_stats()), &mut out)?;
            }
            if let (Some(mut ring), Some(start), Some(path)) =
                (ring.take(), run_start, &opts.trace_out)
            {
                let end = ring.now_us();
                trace_flight_tail(&mut ring, &vp, start, end);
                ring.span_at(
                    "profile",
                    "vp",
                    start,
                    end,
                    &[
                        ("insns", instret.to_string()),
                        ("outcome", format!("{outcome:?}")),
                    ],
                );
                write_trace(path, &merge_events(vec![ring.drain()]), &mut out)?;
            }
        }
        "faults" | "campaign" => {
            if opts.resume && opts.checkpoint.is_none() {
                return Err(CliError::new("--resume needs --checkpoint <path>"));
            }
            let mut cfg = CampaignConfig::new()
                .isa(opts.isa)
                .threads(opts.threads)
                .prune(opts.prune)
                .jit(opts.jit);
            if let Some(ms) = opts.timeout_ms {
                cfg = cfg.timeout(std::time::Duration::from_millis(ms));
            }
            // Created before `prepare`, so every process (the supervisor
            // and each shard worker) traces its fixed set-up cost.
            let tracer = opts
                .trace_out
                .as_ref()
                .map(|_| Arc::new(Tracer::new(TRACE_RING_CAPACITY)));
            let prepare_start = tracer.as_ref().map(|t| t.now_us());
            let mut campaign = Campaign::prepare(image.base(), image.bytes(), image.entry(), &cfg)
                .map_err(|e| {
                    // In a shard worker a failed setup is fatal for every
                    // retry: report it with the distinct exit code so the
                    // supervisor aborts instead of burning restarts.
                    let code = if opts.shard_worker.is_some() {
                        s4e_faultsim::WORKER_FATAL_EXIT
                    } else {
                        1
                    };
                    CliError::with_code(format!("campaign preparation failed: {e}"), code)
                })?;
            if let (Some(t), Some(start)) = (&tracer, prepare_start) {
                let mut ring = t.ring();
                ring.span("prepare", "campaign", start, &[]);
                t.collect(ring);
                campaign.set_tracer(Arc::clone(t));
            }
            let progress = if opts.progress || opts.metrics_out.is_some() {
                let progress = Arc::new(CampaignProgress::new());
                campaign.set_progress(Arc::clone(&progress));
                Some(progress)
            } else {
                None
            };
            if let Some(dir) = &opts.trace_dir {
                campaign.set_trace_dir(dir);
            }
            let gen = GeneratorConfig {
                stuck_per_gpr: opts.mutants,
                transient_per_gpr: opts.mutants,
                transient_per_fpr: opts.mutants.div_ceil(2),
                opcode_mutants: opts.mutants * 16,
                data_mutants: opts.mutants * 8,
                seed: 1,
            };
            let mutants = generate_mutants(campaign.golden().trace(), &gen);
            let cancel = CancelToken::new();

            if let Some(range) = &opts.shard_worker {
                // Internal entry point: one shard worker process. The
                // supervisor passes identical assembly + generator flags,
                // so the mutant list (and thus the index range) matches.
                let path = opts.checkpoint.as_deref().ok_or_else(|| {
                    CliError::with_code(
                        "--shard-worker needs --checkpoint <path>",
                        s4e_faultsim::WORKER_FATAL_EXIT,
                    )
                })?;
                let chaos = s4e_faultsim::WorkerChaos::from_env();
                let report = s4e_faultsim::run_shard(
                    &mut campaign,
                    &mutants,
                    range.clone(),
                    path,
                    chaos,
                    &cancel,
                )
                .map_err(|e| {
                    let code = match &e {
                        s4e_faultsim::CampaignError::Config(_) => s4e_faultsim::WORKER_FATAL_EXIT,
                        _ => 1,
                    };
                    CliError::with_code(format!("shard worker failed: {e}"), code)
                })?;
                let _ = writeln!(
                    out,
                    "shard {}..{}: {} classified",
                    range.start,
                    range.end,
                    report.total()
                );
                // Flush this worker's trace chunk and counters; the
                // supervisor merges them into the sweep's own.
                if let (Some(tracer), Some(path)) = (&tracer, &opts.trace_out) {
                    write_trace(path, &tracer.drain(), &mut out)?;
                }
                if let (Some(progress), Some(path)) = (&progress, &opts.metrics_out) {
                    write_metrics(path, &progress.snapshot(), &mut out)?;
                }
                return Ok(CliOutcome::clean(out));
            }

            let report;
            let mut sharded_summary = None;
            if opts.shards > 0 {
                // The supervisor path: process-isolated shard workers.
                let mut sup_cfg = s4e_faultsim::SupervisorConfig::new(opts.shards);
                sup_cfg.max_retries = opts.max_retries;
                sup_cfg.mem_budget = opts.shard_mem_mb.map(|mb| mb * 1024 * 1024);
                if let Some(ms) = opts.shard_stall_ms {
                    sup_cfg.stall_timeout = std::time::Duration::from_millis(ms);
                }
                sup_cfg.chaos = s4e_faultsim::ChaosConfig::from_env();
                sup_cfg
                    .validate()
                    .map_err(|e| CliError::new(e.to_string()))?;
                let merged = opts.checkpoint.as_deref().ok_or_else(|| {
                    CliError::new(
                        "--shards needs --checkpoint <path> (the shard unit is \
                         the checkpoint; workers stream results through it)",
                    )
                })?;
                let source_path = source_path.ok_or_else(|| {
                    CliError::new(
                        "--shards needs a source file on disk (workers re-read it); \
                         run through the s4e binary",
                    )
                })?;
                let worker_bin = std::env::var("S4E_WORKER_BIN")
                    .map(std::path::PathBuf::from)
                    .or_else(|_| std::env::current_exe())
                    .map_err(|e| CliError::new(format!("cannot locate worker binary: {e}")))?;
                let worker_args = worker_flag_args(opts, source_path);
                // The checkpoint of every worker spawned by this run. Each
                // worker writes its trace chunk and counters next to it
                // on a clean exit, and only these files are merged.
                let worker_checkpoints = std::cell::RefCell::new(std::collections::BTreeSet::new());
                let supervisor = s4e_faultsim::ShardSupervisor::new(sup_cfg, |req| {
                    let mut cmd = std::process::Command::new(&worker_bin);
                    cmd.args(&worker_args)
                        .arg("--shard-worker")
                        .arg(format!("{}..{}", req.range.start, req.range.end))
                        .arg("--checkpoint")
                        .arg(&req.checkpoint);
                    // A stale file from an earlier attempt or run must not
                    // stand in for a worker killed mid-range.
                    if opts.trace_out.is_some() {
                        let path = req.checkpoint.with_extension("trace.json");
                        let _ = std::fs::remove_file(&path);
                        cmd.arg("--trace-out").arg(path);
                    }
                    if opts.metrics_out.is_some() {
                        let path = req.checkpoint.with_extension("metrics.json");
                        let _ = std::fs::remove_file(&path);
                        cmd.arg("--metrics-out").arg(path);
                    }
                    worker_checkpoints
                        .borrow_mut()
                        .insert(req.checkpoint.clone());
                    if let Some(dir) = &opts.trace_dir {
                        cmd.arg("--trace-dir").arg(dir);
                    }
                    cmd
                });
                let mut supervisor = supervisor;
                if let Some(p) = &progress {
                    supervisor.set_progress(Arc::clone(p));
                }
                if let Some(t) = &tracer {
                    supervisor.set_tracer(Arc::clone(t));
                }
                if let Some(dir) = &opts.trace_dir {
                    supervisor.set_trace_dir(dir);
                    // Quarantined mutants convicted their workers from
                    // beyond the grave — replay them here, in-process
                    // (worker chaos env vars are only honoured behind
                    // --shard-worker), so the bundle gets a flight tail
                    // and final state instead of bare attempt history.
                    supervisor.set_forensic_replay(|spec, bundle| {
                        match campaign.replay_forensic(spec) {
                            Some((outcome, vp)) => {
                                bundle.push_attempt(format!(
                                    "in-process forensic replay classified {outcome}"
                                ));
                                bundle.attach_vp(&vp);
                            }
                            None => bundle
                                .push_attempt("in-process forensic replay crashed the harness"),
                        }
                    });
                }
                s4e_faultsim::install_interrupt_handler();
                let flag = s4e_faultsim::interrupt_flag();
                flag.store(false, std::sync::atomic::Ordering::SeqCst);
                supervisor.interrupt_on(flag);
                let ticker = progress.as_ref().filter(|_| opts.progress).map(|p| {
                    ProgressTicker::start(Arc::clone(p), std::time::Duration::from_millis(500))
                });
                let shard_dir = format!("{merged}.shards");
                let sharded = supervisor
                    .run(
                        &mutants,
                        std::path::Path::new(&shard_dir),
                        Some(std::path::Path::new(merged)),
                        opts.resume,
                    )
                    .map_err(|e| CliError::new(format!("campaign failed: {e}")))?;
                // Outcomes come from the merged checkpoint; the workers'
                // files add the counters only the workers saw.
                if let Some(p) = &progress {
                    for checkpoint in worker_checkpoints.borrow().iter() {
                        if let Some(snap) =
                            std::fs::read_to_string(checkpoint.with_extension("metrics.json"))
                                .ok()
                                .and_then(|text| Snapshot::from_json(&text).ok())
                        {
                            p.add_worker_counters(&snap);
                        }
                    }
                }
                drop(ticker);
                if sharded.interrupted {
                    code = EXIT_INTERRUPTED;
                } else if !sharded.quarantined.is_empty() {
                    code = EXIT_QUARANTINED;
                }
                // Merge the supervisor's own lane with the chunk of every
                // worker this run spawned that survived (a worker killed
                // mid-range never flushes its chunk; its classified
                // results still made the checkpoint, so only its spans
                // are lost).
                if let (Some(tracer), Some(path)) = (&tracer, &opts.trace_out) {
                    let mut chunks = vec![tracer.drain()];
                    let mut skipped = 0usize;
                    for checkpoint in worker_checkpoints.borrow().iter() {
                        let Ok(text) =
                            std::fs::read_to_string(checkpoint.with_extension("trace.json"))
                        else {
                            continue;
                        };
                        match from_chrome_json(&text) {
                            Ok(events) => chunks.push(events),
                            Err(_) => skipped += 1,
                        }
                    }
                    if skipped > 0 {
                        let _ = writeln!(out, "trace: {skipped} shard chunk(s) unreadable");
                    }
                    write_trace(path, &merge_events(chunks), &mut out)?;
                }
                report = sharded.report;
                sharded_summary = Some((
                    sharded.crashes,
                    sharded.restarts,
                    sharded.bisections,
                    sharded.quarantined,
                    sharded.quarantine_bundles,
                    sharded.interrupted,
                ));
            } else {
                let ticker = progress.as_ref().filter(|_| opts.progress).map(|p| {
                    ProgressTicker::start(Arc::clone(p), std::time::Duration::from_millis(500))
                });
                report = match &opts.checkpoint {
                    Some(path) if opts.resume => campaign
                        .resume(&mutants, path, &cancel)
                        .map_err(|e| CliError::new(format!("campaign failed: {e}")))?,
                    Some(path) => {
                        let mut sink = JsonlSink::create(path).map_err(|e| {
                            CliError::new(format!("cannot create checkpoint `{path}`: {e}"))
                        })?;
                        campaign
                            .run_all_checkpointed(&mutants, &mut sink, &cancel)
                            .map_err(|e| CliError::new(format!("campaign failed: {e}")))?
                    }
                    None => campaign.run_all(&mutants),
                };
                drop(ticker);
                if let (Some(tracer), Some(path)) = (&tracer, &opts.trace_out) {
                    write_trace(path, &tracer.drain(), &mut out)?;
                }
            }
            out.push_str(&report.summary_table());
            if let Some(path) = &opts.checkpoint {
                let _ = writeln!(out, "checkpoint: {path}");
            }
            if let Some(dir) = &opts.trace_dir {
                let _ = writeln!(out, "forensics: incident bundles in {dir}");
            }
            if let Some((crashes, restarts, bisections, quarantined, bundles, interrupted)) =
                &sharded_summary
            {
                let _ = writeln!(
                    out,
                    "shards: {crashes} crashes, {restarts} restarts, {bisections} bisections"
                );
                // Bundle paths pair with quarantined specs positionally;
                // a failed bundle write breaks the pairing, so only a
                // complete set is attributed per-spec.
                let paired = bundles.len() == quarantined.len();
                for (i, spec) in quarantined.iter().enumerate() {
                    match bundles.get(i).filter(|_| paired) {
                        Some(path) => {
                            let _ =
                                writeln!(out, "quarantined: {spec} (bundle: {})", path.display());
                        }
                        None => {
                            let _ = writeln!(out, "quarantined: {spec}");
                        }
                    }
                }
                if *interrupted {
                    let _ = writeln!(out, "interrupted: partial results checkpointed");
                }
            }
            for (spec, payload) in report.harness_panics().iter().take(5) {
                let _ = writeln!(
                    out,
                    "harness panic on {spec}: {}",
                    payload.lines().next().unwrap_or_default()
                );
            }
            let suspects: Vec<String> = report
                .suspects()
                .take(10)
                .map(|s| format!("  {}", s.spec))
                .collect();
            if !suspects.is_empty() {
                let _ = writeln!(out, "first silent-corruption mutants:");
                let _ = writeln!(out, "{}", suspects.join("\n"));
            }
            if let (Some(progress), Some(path)) = (&progress, &opts.metrics_out) {
                let mut snap = progress.snapshot();
                // The quarantine listing rides in the snapshot as info
                // annotations, one per quarantined FaultSpec, with the
                // forensic bundle path when one was written.
                if let Some((_, _, _, quarantined, bundles, _)) = &sharded_summary {
                    let paired = bundles.len() == quarantined.len();
                    for (i, spec) in quarantined.iter().enumerate() {
                        let value = match bundles.get(i).filter(|_| paired) {
                            Some(bundle) => format!("{spec} => {}", bundle.display()),
                            None => spec.to_string(),
                        };
                        snap.insert(
                            format!("campaign_quarantined_{i}"),
                            MetricValue::Info(value),
                        );
                    }
                }
                write_metrics(path, &snap, &mut out)?;
            }
        }
        other => {
            return Err(CliError::new(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )));
        }
    }
    Ok(CliOutcome { output: out, code })
}
