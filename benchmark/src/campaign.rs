//! The three campaign workloads: one seeded firmware and one campaign
//! core, used three ways — the generated sweep in-process, a sweep of
//! live-register flips that pruning cannot shortcut, and the generated
//! sweep through the `s4e` binary's process-isolated shards.

use crate::kernels::{self, SplitMix64};
use crate::{
    assemble, coverage, isa, repeat, set_trace_metrics, stats, us, Ctx, Report, Samples, Scale,
    Timeline,
};
use s4e_asm::Image;
use s4e_faultsim::{
    generate_mutants, read_checkpoint, Campaign, CampaignConfig, CampaignProgress, CampaignSink,
    FaultKind, FaultOutcome, FaultResult, FaultSpec, FaultTarget, GeneratorConfig, JsonlSink,
    MutantHook,
};
use s4e_isa::Gpr;
use s4e_obs::TraceEvent;
use s4e_vp::CancelToken;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `s4e campaign --mutants` value of the generated and sharded
/// sweeps (1,400 specs on the benchmark firmware).
fn mutants_flag(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 25,
        Scale::Tiny => 2,
    }
}

/// Injection times per live-register bit (7,168 specs at benchmark
/// scale).
fn live_times(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 32,
        Scale::Tiny => 4,
    }
}

/// Specs the oracle re-classifies on the reference configuration.
fn oracle_samples(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 256,
        Scale::Tiny => 16,
    }
}

/// Set-ups a run makes back to back before its first repetition: they
/// warm up the set-up path and give the traced run its per-layer set-up
/// samples. `setup_s` comes from the set-ups between repetitions.
fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 11,
        Scale::Tiny => 2,
    }
}

fn prepare(image: &Image, config: &CampaignConfig) -> Campaign {
    Campaign::prepare(image.base(), image.bytes(), image.entry(), config)
        .expect("the benchmark firmware's golden run ends at ebreak")
}

/// The mutant list `s4e campaign --mutants m` generates: the CLI's
/// category mix with its fixed generator seed 1.
fn cli_mutants(campaign: &Campaign, m: usize) -> Vec<FaultSpec> {
    let config = GeneratorConfig {
        seed: 1,
        stuck_per_gpr: m,
        transient_per_gpr: m,
        transient_per_fpr: m.div_ceil(2),
        opcode_mutants: m * 16,
        data_mutants: m * 8,
    };
    generate_mutants(campaign.golden().trace(), &config)
}

/// Transient flips of every bit of the firmware's live registers at
/// `times` seeded instants inside the golden run, one drawn from each of
/// `times` equal slices of it: a mutant's cost grows with the run left
/// after its injection, so stratified instants keep the sweep's cost
/// the same from seed to seed.
fn live_specs(campaign: &Campaign, seed: u64, times: usize) -> Vec<FaultSpec> {
    let golden = campaign.golden().instret();
    let slice = golden / times as u64;
    let mut rng = SplitMix64::new(seed);
    let mut specs = Vec::new();
    for t in 0..times as u64 {
        let at_insn = 1 + t * slice + rng.below(slice - 1);
        for reg in kernels::LIVE_REGS {
            let reg = Gpr::new(reg).expect("register numbers are below 32");
            for bit in 0..32 {
                specs.push(FaultSpec {
                    target: FaultTarget::GprBit { reg, bit },
                    kind: FaultKind::Transient { at_insn },
                });
            }
        }
    }
    specs
}

/// Outcomes that mean the harness, not the mutant, failed.
fn harness_failure(outcome: FaultOutcome) -> bool {
    matches!(
        outcome,
        FaultOutcome::HarnessError | FaultOutcome::Quarantined | FaultOutcome::Cancelled
    )
}

/// Oracle: re-classifies a seed-chosen subsample of `specs` with
/// [`Campaign::run_one`] on a JIT-off campaign — no prefix fast-forward,
/// pruning, dedup or native code — and compares with `results`.
fn check_subsample(
    report: &mut Report,
    ctx: &Ctx,
    image: &Image,
    specs: &[FaultSpec],
    results: &[FaultResult],
) {
    let reference = prepare(image, &CampaignConfig::new().isa(isa()).jit(false));
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5eed_0ac1e);
    for _ in 0..oracle_samples(ctx.scale) {
        let i = rng.below(specs.len() as u64) as usize;
        let want = results[i].outcome;
        let got = reference.run_one(&specs[i]).outcome;
        report.count(1, 0);
        if got != want {
            report.mismatch(format!(
                "mutant {i} ({}): sweep says {want}, reference says {got}",
                specs[i]
            ));
        }
    }
}

/// Per-layer metrics read from the campaign's progress counters.
const COUNTERS: [(&str, &str); 15] = [
    ("prefix.lock_waits", "campaign_lock_waits"),
    ("prefix.lock_wait_us", "campaign_lock_wait_us"),
    ("snapshot.taken", "campaign_snapshots_taken"),
    ("snapshot.restores", "campaign_snapshot_restores"),
    ("runner.queue_steals", "campaign_queue_steals"),
    (
        "campaign.jit.blocks_executed",
        "campaign_jit_blocks_executed",
    ),
    ("campaign.jit.retained", "campaign_jit_retained"),
    ("campaign.jit.bailouts", "campaign_jit_bailouts"),
    ("campaign.jit.bail_mem", "campaign_jit_bail_mem_slow_path"),
    (
        "campaign.jit.bail_budget",
        "campaign_jit_bail_budget_expiry",
    ),
    ("campaign.jit.bail_smc", "campaign_jit_bail_smc_store"),
    ("campaign.jit.bail_mask", "campaign_jit_bail_mask_armed"),
    (
        "campaign.jit.bail_reval_miss",
        "campaign_jit_bail_revalidation_miss",
    ),
    ("campaign.vp.translations", "campaign_translations"),
    (
        "campaign.vp.warm_translations",
        "campaign_warm_translations",
    ),
];

// --------------------------------------------------------------- probes

/// What one runner worker thread last did, as seen by the traced run's
/// hook and sink: the runner calls both on the worker's own thread.
#[derive(Debug, Default)]
struct Lane {
    id: u64,
    hook: Option<Instant>,
    last_record: Option<Instant>,
}

thread_local! {
    static LANE: RefCell<Lane> = RefCell::new(Lane::default());
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// The traced run's mutant hook: timestamps the start of each mutant.
fn start_hook() -> MutantHook {
    Arc::new(|_, _| {
        LANE.with(|lane| {
            let mut lane = lane.borrow_mut();
            if lane.id == 0 {
                lane.id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            }
            lane.hook = Some(Instant::now());
        });
    })
}

/// One mutant as seen from outside the runner.
#[derive(Debug)]
struct Probe {
    lane: u64,
    /// The mutant hook ran (execution starts).
    hook: Instant,
    /// The classification reached the sink.
    record: Instant,
    /// The checkpoint append returned.
    appended: Instant,
    /// This worker's previous append, if any.
    prev: Option<Instant>,
    outcome: FaultOutcome,
}

/// A sink timing each checkpoint append and pairing it with its mutant's
/// hook.
struct ProbeSink<'a> {
    inner: &'a mut dyn CampaignSink,
    probes: Vec<Probe>,
}

impl CampaignSink for ProbeSink<'_> {
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> std::io::Result<()> {
        let record = Instant::now();
        self.inner.record(result, panic)?;
        let appended = Instant::now();
        let (lane, hook, prev) = LANE.with(|lane| {
            let mut lane = lane.borrow_mut();
            let prev = lane.last_record.replace(appended);
            (lane.id, lane.hook.take(), prev)
        });
        if let Some(hook) = hook {
            self.probes.push(Probe {
                lane,
                hook,
                record,
                appended,
                prev,
                outcome: result.outcome,
            });
        }
        Ok(())
    }
}

/// Turns one traced sweep's probes and counters into per-layer samples
/// and timeline spans. Returns the share of the sweep the spans cover.
#[allow(clippy::too_many_arguments)]
fn sweep_layers(
    layers: &mut Samples,
    timeline: &mut Timeline,
    probes: &[Probe],
    progress: &CampaignProgress,
    specs: usize,
    checkpoint: &Path,
    start: Instant,
    end: Instant,
) -> f64 {
    let first_hook = probes.iter().map(|p| p.hook).min().unwrap_or(end);
    let last_append = probes.iter().map(|p| p.appended).max().unwrap_or(start);
    layers.push("prune.plan_s", (first_hook - start).as_secs_f64());
    let exec: Vec<f64> = probes.iter().map(|p| us(p.hook, p.record)).collect();
    let timeouts: Vec<f64> = probes
        .iter()
        .filter(|p| p.outcome == FaultOutcome::Timeout)
        .map(|p| us(p.hook, p.record))
        .collect();
    let waits: Vec<f64> = probes
        .iter()
        .filter_map(|p| p.prev.map(|prev| us(prev, p.hook)))
        .collect();
    let appends: Vec<f64> = probes.iter().map(|p| us(p.record, p.appended)).collect();
    layers.push("mutant.exec_us.p50", stats::percentile(&exec, 50.0));
    layers.push("mutant.exec_us.p99", stats::percentile(&exec, 99.0));
    layers.push(
        "mutant.timeout_exec_us.p50",
        stats::percentile(&timeouts, 50.0),
    );
    layers.push("prefix.fetch_wait_us.p50", stats::percentile(&waits, 50.0));
    layers.push("prefix.fetch_wait_us.p99", stats::percentile(&waits, 99.0));
    layers.push(
        "checkpoint.append_us.p50",
        stats::percentile(&appends, 50.0),
    );
    layers.push(
        "checkpoint.append_us.p99",
        stats::percentile(&appends, 99.0),
    );
    layers.push(
        "checkpoint.bytes",
        std::fs::metadata(checkpoint).map_or(0.0, |m| m.len() as f64),
    );

    let snap = progress.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    for (metric, name) in COUNTERS {
        layers.push(metric, counter(name));
    }
    let restores = counter("campaign_snapshot_restores");
    layers.push(
        "snapshot.pages_per_restore",
        if restores > 0.0 {
            counter("campaign_dirty_pages_restored") / restores
        } else {
            0.0
        },
    );
    layers.push(
        "prune.dead_share",
        counter("campaign_pruned_dead") / specs as f64,
    );
    layers.push(
        "prune.dedup_share",
        counter("campaign_pruned_dedup") / specs as f64,
    );

    timeline.span("sweep", "campaign", 0, start, end);
    timeline.span("plan", "prune", 0, start, first_hook);
    timeline.span("drain", "campaign", 0, last_append, end);
    let mut spans = vec![
        (timeline.epoch_us(start), timeline.epoch_us(first_hook)),
        (timeline.epoch_us(last_append), timeline.epoch_us(end)),
    ];
    for p in probes {
        timeline.span("mutant", "runner", p.lane, p.hook, p.record);
        timeline.span("append", "checkpoint", p.lane, p.record, p.appended);
        spans.push((timeline.epoch_us(p.hook), timeline.epoch_us(p.appended)));
        if let Some(prev) = p.prev {
            timeline.span("fetch_wait", "prefix", p.lane, prev, p.hook);
            spans.push((timeline.epoch_us(prev), timeline.epoch_us(p.hook)));
        }
    }
    coverage(timeline.epoch_us(start), timeline.epoch_us(end), spans)
}

// ------------------------------------------------------------ workloads

/// `campaign-generated` (`live == false`) and `campaign-live`: in-process
/// sweeps through `run_all_checkpointed` into a JSONL checkpoint.
pub fn in_process(ctx: &Ctx, live: bool) -> Report {
    let mut report = Report::default();
    let mut timeline = Timeline::new(ctx.trace_out.as_deref());
    let image = assemble(&kernels::campaign_firmware(ctx.seed, ctx.scale));
    let config = CampaignConfig::new().isa(isa()).threads(ctx.threads);
    let make_specs = |campaign: &Campaign| {
        if live {
            live_specs(campaign, ctx.seed, live_times(ctx.scale))
        } else {
            cli_mutants(campaign, mutants_flag(ctx.scale))
        }
    };

    let (mut prep, mut generate) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..setup_reps(ctx.scale) {
        let t0 = Instant::now();
        let campaign = prepare(&image, &config);
        let t1 = Instant::now();
        let specs = make_specs(&campaign);
        let t2 = Instant::now();
        timeline.span("prepare", "campaign", 0, t0, t1);
        timeline.span("generate", "campaign", 0, t1, t2);
        prep.push((t1 - t0).as_secs_f64());
        generate.push((t2 - t1).as_secs_f64());
        prepared = Some((campaign, specs));
    }
    let (campaign, specs) = prepared.expect("at least one set-up ran");
    report.set("campaign.prepare_s", &prep);
    report.set("campaign.generate_s", &generate);

    // The traced repetitions run on their own campaign: a hook and a
    // progress registry, once attached, cannot be detached.
    let mut traced = ctx.trace.then(|| {
        let mut campaign = prepare(&image, &config);
        campaign.set_mutant_hook(start_hook());
        campaign
    });
    let checkpoint = ctx.work_dir.join("sweep.jsonl");
    let mut layers = Samples::default();
    let mut coverages = Vec::new();
    let mut first: Option<Vec<FaultResult>> = None;
    let set_up = || {
        let start = Instant::now();
        let campaign = prepare(&image, &config);
        let specs = make_specs(&campaign);
        let elapsed = start.elapsed();
        drop((campaign, specs));
        elapsed
    };
    let reps = repeat(ctx, set_up, |trace| {
        let mut file = JsonlSink::create(&checkpoint).expect("checkpoint file can be created");
        let cancel = CancelToken::new();
        let start = Instant::now();
        let (result, probes, progress) = match traced.as_mut().filter(|_| trace) {
            Some(campaign) => {
                let progress = Arc::new(CampaignProgress::new());
                campaign.set_progress(Arc::clone(&progress));
                let mut sink = ProbeSink {
                    inner: &mut file,
                    probes: Vec::with_capacity(specs.len()),
                };
                let result = campaign.run_all_checkpointed(&specs, &mut sink, &cancel);
                (result, sink.probes, Some(progress))
            }
            None => (
                campaign.run_all_checkpointed(&specs, &mut file, &cancel),
                Vec::new(),
                None,
            ),
        };
        let end = Instant::now();
        let result = result.expect("checkpoint appends succeed");
        let failed = result
            .results()
            .iter()
            .filter(|r| harness_failure(r.outcome))
            .count();
        report.count(specs.len() as u64, failed as u64);
        match &first {
            None => first = Some(result.results().to_vec()),
            Some(first) if first != result.results() => {
                report.mismatch("two sweeps of one campaign classified differently".into());
            }
            Some(_) => {}
        }
        if let Some(progress) = progress {
            coverages.push(sweep_layers(
                &mut layers,
                &mut timeline,
                &probes,
                &progress,
                specs.len(),
                &checkpoint,
                start,
                end,
            ));
        }
        end - start
    });
    report.set_setup(&reps.setup);
    report.set("peak_rss_mb", &reps.peak_rss_mb);
    report.set_work_rate(specs.len() as f64, &reps.plain);
    set_trace_metrics(&mut report, &reps, &coverages);
    layers.report(&mut report);

    let results = first.expect("at least one sweep ran");
    check_subsample(&mut report, ctx, &image, &specs, &results);
    timeline.finish();
    report
}

/// `campaign-sharded`: the generated sweep through `s4e campaign
/// --shards`. Each shard worker process runs as many threads as the
/// in-process sweep: `s4e` splits the mutant list into contiguous ranges
/// and the first range holds the costly stuck-at mutants, so a
/// single-threaded shard would leave the other core idle and time one
/// core's speed rather than the production path.
pub fn sharded(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut timeline = Timeline::new(ctx.trace_out.as_deref());
    let source = kernels::campaign_firmware(ctx.seed, ctx.scale);
    let image = assemble(&source);
    let program = ctx.work_dir.join("firmware.s");
    std::fs::write(&program, &source).expect("program file can be written");
    let merged = ctx.work_dir.join("sharded.jsonl");
    let trace_file = ctx.work_dir.join("sharded.trace.json");
    let m = mutants_flag(ctx.scale);
    let threads = ctx.threads.to_string();

    // One `s4e campaign` run into `checkpoint`; returns its start and end
    // and whether it exited cleanly.
    let run = |mutants: usize, checkpoint: &Path, trace: bool| {
        let mut cmd = Command::new(&ctx.s4e);
        cmd.arg("campaign")
            .arg(&program)
            .args(["--mutants", &mutants.to_string()])
            .args(["--shards", &threads, "--threads", &threads])
            .arg("--checkpoint")
            .arg(checkpoint);
        if trace {
            cmd.arg("--trace-out").arg(&trace_file);
        }
        let start = Instant::now();
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", ctx.s4e.display()));
        let end = Instant::now();
        if !out.status.success() {
            eprintln!(
                "s4e campaign exited with {}:\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
        (start, end, out.status.success())
    };

    // Set-up is the wall time of a one-mutant run into its own checkpoint.
    let setup_checkpoint = ctx.work_dir.join("setup.jsonl");
    let mut setups_failed = 0;
    let mut set_up = |timeline: Option<&mut Timeline>| {
        let (start, end, ok) = run(1, &setup_checkpoint, false);
        setups_failed += u64::from(!ok);
        if let Some(timeline) = timeline {
            timeline.span("s4e campaign --mutants 1", "setup", 0, start, end);
        }
        end - start
    };
    for _ in 0..setup_reps(ctx.scale) {
        set_up(Some(&mut timeline));
    }
    let untraced_set_up = || set_up(None);

    let mut layers = Samples::default();
    let mut coverages = Vec::new();
    let reps = repeat(ctx, untraced_set_up, |trace| {
        let (start, end, ok) = run(m, &merged, trace);
        report.count(1, u64::from(!ok));
        timeline.span("s4e campaign", "sharded", 0, start, end);
        if trace {
            let text = std::fs::read_to_string(&trace_file).expect("s4e wrote its trace");
            let events = s4e_obs::from_chrome_json(&text).expect("s4e's trace parses");
            let window = (timeline.epoch_us(start), timeline.epoch_us(end));
            coverages.push(shard_layers(&mut layers, &events, window));
            timeline.extend(events);
        }
        end - start
    });
    let setups = setup_reps(ctx.scale) + reps.setup.len();
    report.count(setups as u64, setups_failed);
    report.set_setup(&reps.setup);
    report.set("peak_rss_mb", &[children_peak_rss_mb()]);

    // Oracle: the deduplicated merged checkpoint must equal an in-process
    // sweep of the same specs, spec for spec, and that sweep must agree
    // with the reference subsample.
    let campaign = prepare(
        &image,
        &CampaignConfig::new().isa(isa()).threads(ctx.threads),
    );
    let specs = cli_mutants(&campaign, m);
    let sweeps = if ctx.trace { 2 } else { 1 };
    let mut in_process = Duration::ZERO;
    let mut results = Vec::new();
    for _ in 0..sweeps {
        let t = Instant::now();
        results = campaign.run_all(&specs).results().to_vec();
        in_process = t.elapsed();
    }
    report.set_work_rate(specs.len() as f64, &reps.plain);
    if ctx.trace {
        report.set_one(
            "shard.isolation_ratio",
            stats::median(&reps.plain) / in_process.as_secs_f64(),
        );
    }
    set_trace_metrics(&mut report, &reps, &coverages);
    layers.report(&mut report);

    let load = read_checkpoint(&merged).expect("merged checkpoint is readable");
    let want: HashMap<FaultSpec, FaultOutcome> = specs
        .iter()
        .zip(&results)
        .map(|(s, r)| (*s, r.outcome))
        .collect();
    let unique: HashSet<FaultSpec> = specs.iter().copied().collect();
    report.count(load.entries.len() as u64, 0);
    if load.entries.len() != unique.len() || load.skipped_lines > 0 {
        report.mismatch(format!(
            "merged checkpoint holds {} entries ({} unreadable), expected {} unique specs",
            load.entries.len(),
            load.skipped_lines,
            unique.len()
        ));
    }
    for (entry, _) in &load.entries {
        if harness_failure(entry.outcome) {
            report.count(0, 1);
        }
        if want.get(&entry.spec) != Some(&entry.outcome) {
            report.mismatch(format!(
                "{}: shards say {}, in-process sweep says {:?}",
                entry.spec,
                entry.outcome,
                want.get(&entry.spec)
            ));
        }
    }
    check_subsample(&mut report, ctx, &image, &specs, &results);
    timeline.finish();
    report
}

/// Shard-layer samples from the `s4e` binary's merged trace of one run:
/// supervisor lanes from its `shard_attempt` and `sharded_sweep` spans,
/// campaign-core samples from the workers' `mutant` spans. Returns the
/// share of the run's wall time `window` covered by the sweep and the
/// start-up (spawn, prepare, mutant generation) and shutdown (summary,
/// exit) around it.
fn shard_layers(layers: &mut Samples, events: &[TraceEvent], window: (u64, u64)) -> f64 {
    let arg = |e: &TraceEvent, key: &str| {
        e.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let mut busy: BTreeMap<String, u64> = BTreeMap::new();
    let (mut last_attempt_end, mut restarts) = (0, 0);
    let (mut sweep_start, mut sweep_end) = (window.1, window.1);
    let mut spans = Vec::new();
    let mut exec = Vec::new();
    let mut prefix: BTreeMap<String, usize> = BTreeMap::new();
    for e in events {
        let end = e.ts_us + e.dur_us;
        match e.name.as_str() {
            "shard_attempt" => {
                *busy.entry(arg(e, "shard")).or_default() += e.dur_us;
                last_attempt_end = last_attempt_end.max(end);
                spans.push((e.ts_us, end));
            }
            "sharded_sweep" => {
                (sweep_start, sweep_end) = (e.ts_us, end);
                spans.push((e.ts_us, end));
            }
            "shard_restart" => restarts += 1,
            "mutant" => {
                exec.push(e.dur_us as f64);
                *prefix.entry(arg(e, "prefix")).or_default() += 1;
            }
            _ => {}
        }
    }
    let busy: Vec<f64> = busy.values().map(|&b| b as f64 / 1e6).collect();
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    layers.push("shard.lane_busy_s.max", max);
    layers.push("shard.imbalance", if mean > 0.0 { max / mean } else { 0.0 });
    layers.push(
        "shard.merge_tail_s",
        sweep_end.saturating_sub(last_attempt_end) as f64 / 1e6,
    );
    layers.push("shard.restarts", f64::from(restarts));
    let share = |tag: &str| prefix.get(tag).copied().unwrap_or(0) as f64 / exec.len().max(1) as f64;
    layers.push("prune.dead_share", share("pruned"));
    layers.push("prune.dedup_share", share("dedup"));
    layers.push("mutant.exec_us.p50", stats::percentile(&exec, 50.0));
    layers.push("mutant.exec_us.p99", stats::percentile(&exec, 99.0));
    spans.push((window.0, sweep_start));
    spans.push((sweep_end, window.1));
    coverage(window.0, window.1, spans)
}

/// Peak resident set of the largest finished descendant of this process
/// (`getrusage(RUSAGE_CHILDREN)`), in MiB: for the sharded workload, the
/// larger of the `s4e` supervisor and its shard workers.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_mb() -> f64 {
    0.0
}
