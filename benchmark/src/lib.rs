//! The repository benchmark: five seeded workloads that time fault
//! campaigns, the virtual prototype and QTA co-simulation end to end,
//! and, in a separate traced run, layer by layer. See `BENCHMARK.md`.

pub mod campaign;
pub mod json;
mod kernels;
pub mod stats;
pub mod vp;

use s4e_asm::Image;
use s4e_isa::IsaConfig;
use s4e_obs::TraceEvent;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "campaign-generated",
    "campaign-live",
    "campaign-sharded",
    "vp-run",
    "qta-cosim",
];

/// End-to-end metrics and their units: what a user of the system sees.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, reported by the traced run. A
/// layer the workload does not exercise reports 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.prepare_s", "s"),
    ("campaign.generate_s", "s"),
    ("prune.plan_s", "s"),
    ("prune.dead_share", "ratio"),
    ("prune.dedup_share", "ratio"),
    ("prefix.fetch_wait_us.p50", "us"),
    ("prefix.fetch_wait_us.p99", "us"),
    ("prefix.lock_waits", "count"),
    ("prefix.lock_wait_us", "us"),
    ("snapshot.taken", "count"),
    ("snapshot.restores", "count"),
    ("snapshot.pages_per_restore", "pages"),
    ("mutant.exec_us.p50", "us"),
    ("mutant.exec_us.p99", "us"),
    ("mutant.timeout_exec_us.p50", "us"),
    ("runner.queue_steals", "count"),
    ("campaign.jit.blocks_executed", "count"),
    ("campaign.jit.retained", "count"),
    ("campaign.jit.bailouts", "count"),
    ("campaign.jit.bail_mem", "count"),
    ("campaign.jit.bail_budget", "count"),
    ("campaign.jit.bail_smc", "count"),
    ("campaign.jit.bail_mask", "count"),
    ("campaign.jit.bail_reval_miss", "count"),
    ("campaign.vp.translations", "count"),
    ("campaign.vp.warm_translations", "count"),
    ("checkpoint.append_us.p50", "us"),
    ("checkpoint.append_us.p99", "us"),
    ("checkpoint.bytes", "bytes"),
    ("shard.lane_busy_s.max", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.merge_tail_s", "s"),
    ("shard.restarts", "count"),
    ("shard.isolation_ratio", "ratio"),
    ("vp.build_us", "us"),
    ("vp.load_us", "us"),
    ("vp.mips.branchy", "MIPS"),
    ("vp.mips.memory", "MIPS"),
    ("vp.mips.compute", "MIPS"),
    ("jit.blocks_compiled", "count"),
    ("jit.native_share", "ratio"),
    ("jit.bailouts", "count"),
    ("uop.fused_insn_share", "ratio"),
    ("uop.chain_hit_rate", "ratio"),
    ("bus.mem_fast_hit_rate", "ratio"),
    ("cfg.reconstruct_s", "s"),
    ("wcet.analyze_s", "s"),
    ("qta.run_s", "s"),
    ("qta.block_visits", "count"),
    ("qta.pessimism", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// Workload sizes: `Bench` is the benchmark proper, `Tiny` a seconds-long
/// smoke run of the same code paths.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    Bench,
    Tiny,
}

/// Timed repetitions a run makes at least, however long they take.
pub(crate) const MIN_REPS: usize = 3;

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for programs, checkpoints and traces; removed
    /// when the run ends.
    pub work_dir: PathBuf,
    /// The `s4e` binary the sharded workload drives.
    pub s4e: PathBuf,
    /// Worker threads or shards: `min(available cores, 2)`.
    pub threads: usize,
    /// Where to write the traced run's Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// The ISA every workload runs, and the `s4e` CLI's default.
pub(crate) fn isa() -> IsaConfig {
    IsaConfig::full()
}

/// Assembles a benchmark program.
pub(crate) fn assemble(source: &str) -> Image {
    s4e_bench::build(source, isa())
}

/// A reported metric: its value and the samples behind it.
#[derive(Debug, Clone, Copy, Default)]
struct Metric {
    value: f64,
    samples: Summary,
}

/// One workload run's results: metric samples, operation counts and
/// oracle verdicts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted: mutants classified, programs run, oracle
    /// checks made.
    attempted: u64,
    /// Operations that failed, oracle mismatches included.
    failed: u64,
    /// Oracle mismatches, described.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records the samples of a declared metric, reported as their
    /// median.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or
    /// [`PER_LAYER`], or `values` is empty.
    pub(crate) fn set(&mut self, name: &'static str, values: &[f64]) {
        let samples = Summary::of(values);
        self.insert(name, samples.median, samples);
    }

    pub(crate) fn set_one(&mut self, name: &'static str, value: f64) {
        self.set(name, &[value]);
    }

    /// Records `work_per_s` from the wall time of each repetition that did
    /// `work`, reported as the rate of the fastest one. Work per
    /// repetition is fixed, and the host's other tenants only ever add
    /// time to a repetition: the fastest one is the closest to the
    /// workload's own cost, and it repeats from run to run where the
    /// median follows the host's load (see `BENCHMARK.md`).
    pub(crate) fn set_work_rate(&mut self, work: f64, seconds: &[f64]) {
        let rates: Vec<f64> = seconds.iter().map(|s| work / s).collect();
        let fastest = rates.iter().copied().fold(f64::MIN, f64::max);
        self.insert("work_per_s", fastest, Summary::of(&rates));
    }

    /// Records `setup_s` from the wall time of each set-up, reported as
    /// the fastest one, for the reason [`Report::set_work_rate`] gives:
    /// a set-up is milliseconds long, so the median of a run's set-ups
    /// follows the host's load, and two sets of runs a few minutes apart
    /// read medians 34 % apart (see `BENCHMARK.md`).
    pub(crate) fn set_setup(&mut self, seconds: &[f64]) {
        let fastest = seconds.iter().copied().fold(f64::MAX, f64::min);
        self.insert("setup_s", fastest, Summary::of(seconds));
    }

    fn insert(&mut self, name: &'static str, value: f64, samples: Summary) {
        assert!(unit_of(name).is_some(), "undeclared metric `{name}`");
        self.metrics.insert(name, Metric { value, samples });
    }

    /// Records an oracle mismatch (a failed operation).
    pub(crate) fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Counts `n` operations, `failed` of which failed.
    pub(crate) fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metrics a run reports: every end-to-end metric untraced, every
    /// per-layer metric traced, unset ones as 0.
    fn reported(
        &self,
        trace: bool,
    ) -> impl Iterator<Item = (&'static str, &'static str, Metric)> + '_ {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table.iter().map(|&(name, unit)| {
            (
                name,
                unit,
                self.metrics.get(name).copied().unwrap_or_default(),
            )
        })
    }

    /// One line per metric:
    /// `workload metric value unit (median …, q1 …, q3 …, n …)`, the
    /// parenthesis summarising the samples behind the value.
    pub fn human(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit, m) in self.reported(trace) {
            let s = m.samples;
            let _ = writeln!(
                out,
                "{workload} {name} {} {unit} (median {}, q1 {}, q3 {}, n {})",
                m.value, s.median, s.q1, s.q3, s.n
            );
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .reported(trace)
            .map(|(name, unit, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(m.value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a declared metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite number as JSON (non-finite values, which JSON cannot hold,
/// become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The repetitions of one run.
#[derive(Debug, Default)]
pub(crate) struct Reps {
    /// Wall time of each set-up, in seconds.
    pub setup: Vec<f64>,
    /// Wall time of each untraced repetition, in seconds.
    pub plain: Vec<f64>,
    /// Wall time of each traced repetition (traced run only).
    pub traced: Vec<f64>,
    /// Resident-set peak of this process during each untraced
    /// repetition, in MiB.
    pub peak_rss_mb: Vec<f64>,
}

/// Runs `rep` once to warm up, then repeatedly until `ctx.seconds` have
/// passed and at least [`MIN_REPS`] timed repetitions ran, each after one
/// `setup`, which returns its own wall time. Set-ups spread over the
/// whole run like the repetitions, so both see the same host conditions.
/// In the traced run, untraced and traced repetitions alternate for the
/// same reason.
pub(crate) fn repeat(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Duration,
    mut rep: impl FnMut(bool) -> Duration,
) -> Reps {
    rep(false);
    let mut reps = Reps::default();
    let start = Instant::now();
    while reps.plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        reps.setup.push(setup().as_secs_f64());
        reset_peak_rss();
        reps.plain.push(rep(false).as_secs_f64());
        reps.peak_rss_mb.push(peak_rss_mb());
        if ctx.trace {
            reps.traced.push(rep(true).as_secs_f64());
        }
    }
    reps
}

/// Reports the traced run's harness metrics: `trace.overhead`, traced
/// over untraced repetition time, and `trace.span_coverage`, the lowest
/// share of a traced repetition's wall time its spans cover.
pub(crate) fn set_trace_metrics(report: &mut Report, reps: &Reps, coverages: &[f64]) {
    if reps.traced.is_empty() {
        return;
    }
    report.set_one(
        "trace.overhead",
        stats::median(&reps.traced) / stats::median(&reps.plain),
    );
    report.set_one(
        "trace.span_coverage",
        coverages.iter().copied().fold(1.0, f64::min),
    );
}

/// Per-layer samples, one per traced repetition or set-up, reported as
/// medians.
#[derive(Debug, Default)]
pub(crate) struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn report(self, report: &mut Report) {
        for (name, values) in self.0 {
            report.set(name, &values);
        }
    }
}

/// Resident-set high-water mark of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the high-water mark to the current resident set, so each
/// repetition reports its own peak. Where the kernel refuses, the mark
/// keeps the process peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Microseconds between two instants.
pub(crate) fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// The share of `[start, end]` covered by the union of `spans`, all in
/// microseconds.
pub(crate) fn coverage(start: u64, end: u64, mut spans: Vec<(u64, u64)>) -> f64 {
    if end <= start {
        return 1.0;
    }
    spans.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in spans {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered as f64 / (end - start) as f64
}

/// The traced run's timeline: spans the benchmark records around its
/// calls into each layer, on a clock anchored to the Unix epoch so they
/// line up with the `s4e` binary's own trace. Collects nothing unless a
/// trace file was asked for.
#[derive(Debug)]
pub(crate) struct Timeline {
    origin: Instant,
    epoch_us: u64,
    /// The trace file and the events bound for it.
    out: Option<(PathBuf, Vec<TraceEvent>)>,
}

impl Timeline {
    pub fn new(path: Option<&Path>) -> Timeline {
        Timeline {
            origin: Instant::now(),
            epoch_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            out: path.map(|p| (p.to_path_buf(), Vec::new())),
        }
    }

    /// `t` in microseconds since the Unix epoch.
    pub fn epoch_us(&self, t: Instant) -> u64 {
        self.epoch_us + t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a span on lane `tid`.
    pub fn span(&mut self, name: &str, cat: &str, tid: u64, start: Instant, end: Instant) {
        let (ts_us, end_us) = (self.epoch_us(start), self.epoch_us(end));
        if let Some((_, events)) = self.out.as_mut() {
            events.push(TraceEvent {
                name: name.to_string(),
                cat: cat.to_string(),
                ph: 'X',
                ts_us,
                dur_us: end_us.saturating_sub(ts_us),
                pid: u64::from(std::process::id()),
                tid,
                args: Vec::new(),
            });
        }
    }

    /// Adds events recorded elsewhere (the `s4e` binary's trace).
    pub fn extend(&mut self, more: Vec<TraceEvent>) {
        if let Some((_, events)) = self.out.as_mut() {
            events.extend(more);
        }
    }

    /// Writes the trace file, if one was asked for, as Chrome
    /// `trace_event` JSON.
    pub fn finish(self) {
        if let Some((path, events)) = self.out {
            let json = s4e_obs::to_chrome_json(&s4e_obs::merge_events(vec![events]));
            std::fs::write(&path, json)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }
}
