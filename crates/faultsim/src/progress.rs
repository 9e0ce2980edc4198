//! Live campaign progress: shared outcome counters, throughput/ETA
//! estimation, per-worker liveness, and a stderr ticker.
//!
//! A 50k-mutant sweep is silent for minutes at a time without this. The
//! pieces compose with the supervised runner:
//!
//! - [`CampaignProgress`] — the shared state, backed by an
//!   [`MetricsRegistry`] so a progress snapshot is an ordinary
//!   [`Snapshot`] (and `--metrics-out` can dump it).
//! - [`ProgressSink`] — a [`CampaignSink`] adapter counting each
//!   classification as it streams through the checkpoint path; the
//!   runner installs it automatically when a campaign has progress
//!   attached.
//! - [`ProgressTicker`] — a background thread printing a status line to
//!   stderr at a fixed interval, stopped by dropping the guard.

use crate::campaign::FaultResult;
use crate::checkpoint::CampaignSink;
use crate::fault::FaultOutcome;
use s4e_obs::{names, Counter, Gauge, MetricsRegistry, Snapshot};
use s4e_vp::DispatchStats;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The nine outcome classes, in [`FaultOutcome::class_name`] spelling.
const CLASSES: [&str; 9] = [
    "masked",
    "silent corruption",
    "detected",
    "self-reported",
    "timeout",
    "hang",
    "cancelled",
    "harness error",
    "quarantined",
];

fn class_index(outcome: FaultOutcome) -> usize {
    CLASSES
        .iter()
        .position(|&c| c == outcome.class_name())
        .expect("every outcome class is listed")
}

/// Shared progress state for one campaign sweep.
///
/// All mutation is through `&self` (relaxed atomics under the hood), so
/// one `Arc<CampaignProgress>` serves the workers, the ticker and the
/// caller simultaneously.
#[derive(Debug)]
pub struct CampaignProgress {
    registry: Arc<MetricsRegistry>,
    total: Arc<Gauge>,
    done: Arc<Counter>,
    resumed: Arc<Counter>,
    workers: Arc<Gauge>,
    workers_exited: Arc<Counter>,
    classes: Vec<Arc<Counter>>,
    worker_claims: Mutex<Vec<Arc<Counter>>>,
    shards: Arc<Gauge>,
    shards_done: Arc<Counter>,
    shard_crashes: Arc<Counter>,
    shard_restarts: Arc<Counter>,
    shard_bisections: Arc<Counter>,
    shard_backoff_ms: Arc<Counter>,
    /// One `campaign_<suffix>` counter per [`DispatchStats`] row, in
    /// table order.
    dispatch: Vec<Arc<Counter>>,
    pruned_dead: Arc<Counter>,
    pruned_dedup: Arc<Counter>,
    queue_steals: Arc<Counter>,
    started: Instant,
}

impl Default for CampaignProgress {
    fn default() -> CampaignProgress {
        CampaignProgress::new()
    }
}

impl CampaignProgress {
    /// Fresh progress state with a private registry.
    pub fn new() -> CampaignProgress {
        CampaignProgress::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Progress state recording into a shared registry, so one snapshot
    /// covers the campaign alongside other instrumented subsystems.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> CampaignProgress {
        let classes = CLASSES
            .iter()
            .map(|c| registry.counter(&format!("campaign_outcome_{}", names::sanitize(c))))
            .collect();
        CampaignProgress {
            total: registry.gauge("campaign_total"),
            done: registry.counter("campaign_done"),
            resumed: registry.counter("campaign_resumed"),
            workers: registry.gauge("campaign_workers"),
            workers_exited: registry.counter("campaign_workers_exited"),
            classes,
            worker_claims: Mutex::new(Vec::new()),
            shards: registry.gauge("campaign_shards"),
            shards_done: registry.counter("campaign_shards_done"),
            shard_crashes: registry.counter("campaign_shard_crashes"),
            shard_restarts: registry.counter("campaign_shard_restarts"),
            shard_bisections: registry.counter("campaign_shard_bisections"),
            shard_backoff_ms: registry.counter("campaign_shard_backoff_ms"),
            dispatch: DispatchStats::default()
                .counters()
                .iter()
                .map(|c| registry.counter(&format!("campaign_{}", c.suffix)))
                .collect(),
            pruned_dead: registry.counter("campaign_pruned_dead"),
            pruned_dedup: registry.counter("campaign_pruned_dedup"),
            queue_steals: registry.counter("campaign_queue_steals"),
            registry,
            started: Instant::now(),
        }
    }

    /// Announces the sweep dimensions and registers per-worker heartbeat
    /// counters. Called by the supervised runner before spawning workers.
    pub fn begin(&self, total: usize, workers: usize) {
        self.total.set(total as u64);
        self.workers.set(workers as u64);
        let mut claims = self.worker_claims.lock().unwrap_or_else(|p| p.into_inner());
        claims.clear();
        claims.extend((0..workers).map(|w| {
            self.registry
                .counter(&format!("campaign_worker_{w}_claims"))
        }));
    }

    /// Counts one freshly classified mutant.
    pub fn record_outcome(&self, outcome: FaultOutcome) {
        self.done.inc();
        self.classes[class_index(outcome)].inc();
    }

    /// Counts a mutant carried over from a checkpoint (resume path): it
    /// is done, but was classified by a previous run.
    pub fn record_resumed(&self, outcome: FaultOutcome) {
        self.resumed.inc();
        self.record_outcome(outcome);
    }

    /// Merges one VP's [`DispatchStats`] into the campaign metrics, one
    /// `campaign_<suffix>` counter per row. Workers call this per mutant
    /// with their reusable VP's reset-on-read stats; the runner adds the
    /// shared golden replay VP's share once at the end of the sweep.
    pub fn record_dispatch(&self, stats: &DispatchStats) {
        for (counter, c) in self.dispatch.iter().zip(stats.counters()) {
            counter.add(c.value);
        }
    }

    /// Adds the counters of a shard worker's own `--metrics-out`
    /// snapshot that its checkpoint lines cannot carry: every
    /// `campaign_<suffix>` dispatch row, both pruned counts, queue
    /// steals and exited worker threads. The supervisor counts outcome,
    /// done and total from the merged checkpoint, so those are not read.
    pub fn add_worker_counters(&self, worker: &Snapshot) {
        let add = |counter: &Counter, name: &str| counter.add(worker.counter(name).unwrap_or(0));
        for (counter, c) in self
            .dispatch
            .iter()
            .zip(DispatchStats::default().counters())
        {
            add(counter, &format!("campaign_{}", c.suffix));
        }
        add(&self.pruned_dead, "campaign_pruned_dead");
        add(&self.pruned_dedup, "campaign_pruned_dedup");
        add(&self.queue_steals, "campaign_queue_steals");
        add(&self.workers_exited, "campaign_workers_exited");
    }

    /// The dispatch stats merged so far, summed over every VP.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats::from_values(std::array::from_fn(|i| self.dispatch[i].value()))
    }

    /// A mutant classified by the def-use dead-bit analysis without
    /// executing (the flipped bit was overwritten or never touched).
    pub fn record_pruned_dead(&self) {
        self.pruned_dead.inc();
    }

    /// A mutant that shared an already-executed classification because
    /// its post-injection state was identical (restore fingerprint plus
    /// injected delta).
    pub fn record_pruned_dedup(&self) {
        self.pruned_dedup.inc();
    }

    /// Mutants classified without execution so far, by either prune rule.
    pub fn pruned(&self) -> u64 {
        self.pruned_dead.value() + self.pruned_dedup.value()
    }

    /// A worker claimed a queue slot right after a *different* worker's
    /// claim — the work-stealing queue migrated between workers.
    pub fn record_steal(&self) {
        self.queue_steals.inc();
    }

    /// Announces the shard-supervisor dimensions: `shards` worker
    /// processes will cover the sweep. Called once before spawning.
    pub fn begin_shards(&self, shards: usize) {
        self.shards.set(shards as u64);
    }

    /// A shard worker process died (signal, abort, nonzero exit) before
    /// finishing its range.
    pub fn record_shard_crash(&self) {
        self.shard_crashes.inc();
    }

    /// A dead shard was rescheduled from its checkpoint, after sleeping
    /// `backoff` (exponential, per consecutive crash).
    pub fn record_shard_restart(&self, backoff: Duration) {
        self.shard_restarts.inc();
        self.shard_backoff_ms.add(backoff.as_millis() as u64);
    }

    /// A repeatedly-crashing range was split in half to isolate the
    /// offending mutant.
    pub fn record_shard_bisection(&self) {
        self.shard_bisections.inc();
    }

    /// A shard finished its whole range.
    pub fn record_shard_done(&self) {
        self.shards_done.inc();
    }

    /// Shard worker processes that crashed so far.
    pub fn shard_crashes(&self) -> u64 {
        self.shard_crashes.value()
    }

    /// Shard restarts performed so far.
    pub fn shard_restarts(&self) -> u64 {
        self.shard_restarts.value()
    }

    /// Range bisections performed so far.
    pub fn shard_bisections(&self) -> u64 {
        self.shard_bisections.value()
    }

    /// Mutants quarantined so far (the `quarantined` outcome counter).
    pub fn quarantined(&self) -> u64 {
        self.classes[class_index(FaultOutcome::Quarantined)].value()
    }

    /// Worker `worker` claimed a queue slot — its liveness heartbeat.
    pub fn worker_heartbeat(&self, worker: usize) {
        let claims = self.worker_claims.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(counter) = claims.get(worker) {
            counter.inc();
        }
    }

    /// A worker left the sweep (queue drained, cancellation, or death).
    pub fn worker_exited(&self) {
        self.workers_exited.inc();
    }

    /// Mutants classified so far (including resumed ones).
    pub fn done(&self) -> u64 {
        self.done.value()
    }

    /// Total mutants in the sweep (0 before [`begin`](Self::begin)).
    pub fn total(&self) -> u64 {
        self.total.value()
    }

    /// Workers still running.
    pub fn workers_alive(&self) -> u64 {
        self.workers
            .value()
            .saturating_sub(self.workers_exited.value())
    }

    /// Wall-clock time since this progress state was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Fresh classifications per second (resumed mutants excluded — they
    /// cost no execution time and would inflate the estimate).
    pub fn rate(&self) -> f64 {
        let fresh = self.done.value().saturating_sub(self.resumed.value());
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            fresh as f64 / secs
        }
    }

    /// Estimated time to completion at the current rate (`None` until
    /// the rate is measurable or when the sweep is already done).
    pub fn eta(&self) -> Option<Duration> {
        let remaining = self.total().saturating_sub(self.done());
        if remaining == 0 {
            return None;
        }
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }

    /// The registry backing these metrics.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time copy of every campaign metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// One human-readable status line, e.g.
    /// `campaign: 120/500 (24.0%) 61.2/s eta 6s workers 4/4 masked=80 detected=40`.
    pub fn status_line(&self) -> String {
        use std::fmt::Write as _;
        let done = self.done();
        let total = self.total();
        let pct = if total == 0 {
            0.0
        } else {
            done as f64 * 100.0 / total as f64
        };
        let mut line = format!("campaign: {done}/{total} ({pct:.1}%) {:.1}/s", self.rate());
        match self.eta() {
            Some(eta) => {
                let _ = write!(line, " eta {}s", eta.as_secs());
            }
            None => line.push_str(" eta -"),
        }
        let _ = write!(
            line,
            " workers {}/{}",
            self.workers_alive(),
            self.workers.value()
        );
        for (class, counter) in CLASSES.iter().zip(&self.classes) {
            let n = counter.value();
            if n > 0 {
                let _ = write!(line, " {}={n}", names::sanitize(class));
            }
        }
        if self.resumed.value() > 0 {
            let _ = write!(line, " resumed={}", self.resumed.value());
        }
        if self.pruned() > 0 {
            let _ = write!(line, " pruned={}", self.pruned());
        }
        if self.queue_steals.value() > 0 {
            let _ = write!(line, " steals={}", self.queue_steals.value());
        }
        let d = self.dispatch_stats();
        if d.lock_waits > 0 {
            let _ = write!(line, " lockwait={}x{}us", d.lock_waits, d.lock_wait_us);
        }
        if self.shards.value() > 0 {
            let _ = write!(
                line,
                " shards {}/{}",
                self.shards_done.value(),
                self.shards.value()
            );
            if self.shard_restarts.value() > 0 {
                let _ = write!(
                    line,
                    " restarts={} backoff={}ms",
                    self.shard_restarts.value(),
                    self.shard_backoff_ms.value()
                );
            }
            if self.shard_bisections.value() > 0 {
                let _ = write!(line, " bisections={}", self.shard_bisections.value());
            }
        }
        let (fast, slow) = (d.mem_fast_hits, d.mem_slow_hits);
        if fast + slow > 0 {
            let pct = fast as f64 * 100.0 / (fast + slow) as f64;
            let _ = write!(line, " memfast={pct:.1}%");
        }
        // Native-tier health: how much ran at JIT speed, how much was
        // retained across restores, and the per-reason bail split that
        // explains any coverage regression at a glance.
        if d.retired > 0 {
            let pct = d.jit_retired as f64 * 100.0 / d.retired as f64;
            let _ = write!(line, " native={pct:.1}%");
        }
        if d.jit_exec > 0 || d.jit_bailouts > 0 {
            let _ = write!(line, " jit={} retained={}", d.jit_exec, d.jit_retained);
            if d.jit_bailouts > 0 {
                let _ = write!(
                    line,
                    " bail={}(mem={} budget={} smc={} reval={})",
                    d.jit_bailouts,
                    d.jit_bail_mem,
                    d.jit_bail_budget,
                    d.jit_bail_smc,
                    d.jit_bail_reval_miss
                );
            }
        }
        line
    }
}

/// A [`CampaignSink`] adapter that counts every classification flowing to
/// the inner sink. Results are counted only after the inner sink accepts
/// them, so progress never runs ahead of the checkpoint.
pub struct ProgressSink<'a> {
    inner: &'a mut dyn CampaignSink,
    progress: Arc<CampaignProgress>,
}

impl std::fmt::Debug for ProgressSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("progress", &self.progress)
            .finish_non_exhaustive()
    }
}

impl<'a> ProgressSink<'a> {
    /// Wraps `inner`, mirroring each recorded result into `progress`.
    pub fn new(inner: &'a mut dyn CampaignSink, progress: Arc<CampaignProgress>) -> Self {
        ProgressSink { inner, progress }
    }
}

impl CampaignSink for ProgressSink<'_> {
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> io::Result<()> {
        self.inner.record(result, panic)?;
        self.progress.record_outcome(result.outcome);
        Ok(())
    }
}

/// A background stderr ticker printing [`CampaignProgress::status_line`]
/// at a fixed interval. Dropping the guard stops the thread promptly and
/// prints one final line so short sweeps still leave a trace.
#[derive(Debug)]
pub struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressTicker {
    /// Starts ticking every `interval` (clamped to at least 10 ms).
    pub fn start(progress: Arc<CampaignProgress>, interval: Duration) -> ProgressTicker {
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            loop {
                std::thread::park_timeout(interval);
                if thread_stop.load(Ordering::Acquire) {
                    break;
                }
                eprintln!("{}", progress.status_line());
            }
            eprintln!("{}", progress.status_line());
        });
        ProgressTicker {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemorySink;
    use crate::fault::{FaultKind, FaultSpec, FaultTarget};

    fn spec() -> FaultSpec {
        FaultSpec {
            target: FaultTarget::GprBit {
                reg: s4e_isa::Gpr::A0,
                bit: 0,
            },
            kind: FaultKind::Transient { at_insn: 0 },
        }
    }

    #[test]
    fn outcome_counters_and_eta() {
        let progress = CampaignProgress::new();
        progress.begin(10, 2);
        for _ in 0..4 {
            progress.record_outcome(FaultOutcome::Masked);
        }
        progress.record_resumed(FaultOutcome::Timeout);
        assert_eq!(progress.done(), 5);
        assert_eq!(progress.total(), 10);
        let snap = progress.snapshot();
        assert_eq!(snap.counter("campaign_outcome_masked"), Some(4));
        assert_eq!(snap.counter("campaign_outcome_timeout"), Some(1));
        assert_eq!(snap.counter("campaign_resumed"), Some(1));
        assert_eq!(snap.gauge("campaign_total"), Some(10));
        // 4 fresh results in nonzero elapsed time: a rate and an ETA.
        assert!(progress.rate() > 0.0);
        assert!(progress.eta().is_some());
        let line = progress.status_line();
        assert!(line.contains("5/10"), "{line}");
        assert!(line.contains("masked=4"), "{line}");
        assert!(line.contains("resumed=1"), "{line}");
    }

    #[test]
    fn every_outcome_class_has_a_counter() {
        let progress = CampaignProgress::new();
        for outcome in [
            FaultOutcome::Masked,
            FaultOutcome::SilentCorruption,
            FaultOutcome::Detected {
                trap: s4e_vp::Trap::Breakpoint,
            },
            FaultOutcome::SelfReported { code: 2 },
            FaultOutcome::Timeout,
            FaultOutcome::Hang,
            FaultOutcome::Cancelled,
            FaultOutcome::HarnessError,
            FaultOutcome::Quarantined,
        ] {
            progress.record_outcome(outcome);
        }
        let snap = progress.snapshot();
        for class in CLASSES {
            let name = format!("campaign_outcome_{}", names::sanitize(class));
            assert_eq!(snap.counter(&name), Some(1), "{name}");
        }
    }

    #[test]
    fn every_dispatch_counter_reaches_metrics_help_and_ticker() {
        // Distinct nonzero values, so a row exported under another
        // row's name, or not at all, shows.
        let fed = DispatchStats::from_values(std::array::from_fn(|i| 1 + i as u64));
        let progress = CampaignProgress::new();
        progress.record_dispatch(&fed);
        assert_eq!(progress.dispatch_stats(), fed);
        let snap = progress.snapshot();
        for c in fed.counters() {
            let name = format!("campaign_{}", c.suffix);
            assert_eq!(snap.counter(&name), Some(c.value), "{name}");
        }
        let line = progress.status_line();
        let memfast =
            fed.mem_fast_hits as f64 * 100.0 / (fed.mem_fast_hits + fed.mem_slow_hits) as f64;
        let native = fed.jit_retired as f64 * 100.0 / fed.retired as f64;
        for want in [
            format!(" memfast={memfast:.1}%"),
            format!(" native={native:.1}%"),
            format!(" jit={} retained={}", fed.jit_exec, fed.jit_retained),
            format!(
                " bail={}(mem={} budget={} smc={} reval={})",
                fed.jit_bailouts,
                fed.jit_bail_mem,
                fed.jit_bail_budget,
                fed.jit_bail_smc,
                fed.jit_bail_reval_miss
            ),
        ] {
            assert!(line.contains(&want), "{line:?} lacks {want:?}");
        }
    }

    #[test]
    fn jit_campaign_ticker_shows_native_residency() {
        use crate::test_programs::{campaigns, LOOP_PROGRAM};
        let [mut campaign, _] = campaigns(LOOP_PROGRAM, s4e_isa::IsaConfig::rv32imc());
        let progress = Arc::new(CampaignProgress::new());
        campaign.set_progress(Arc::clone(&progress));
        let config = crate::GeneratorConfig::new(3);
        campaign.run_all(&crate::generate_mutants(campaign.golden().trace(), &config));
        let snap = progress.snapshot();
        let retired = snap.counter("campaign_retired").unwrap_or(0);
        let native = snap.counter("campaign_jit_retired").unwrap_or(0);
        assert!(0 < native && native <= retired, "{native} of {retired}");
        let line = progress.status_line();
        assert!(line.contains(" native="), "{line}");
    }

    #[test]
    fn progress_sink_counts_after_inner_accepts() {
        let progress = Arc::new(CampaignProgress::new());
        let mut inner = MemorySink::new();
        let mut sink = ProgressSink::new(&mut inner, Arc::clone(&progress));
        let result = FaultResult {
            spec: spec(),
            outcome: FaultOutcome::Masked,
        };
        sink.record(&result, None).expect("memory sink accepts");
        assert_eq!(progress.done(), 1);
        assert_eq!(inner.records().len(), 1);
    }

    #[test]
    fn worker_liveness() {
        let progress = CampaignProgress::new();
        progress.begin(4, 2);
        assert_eq!(progress.workers_alive(), 2);
        progress.worker_heartbeat(0);
        progress.worker_heartbeat(0);
        progress.worker_heartbeat(1);
        progress.worker_exited();
        assert_eq!(progress.workers_alive(), 1);
        let snap = progress.snapshot();
        assert_eq!(snap.counter("campaign_worker_0_claims"), Some(2));
        assert_eq!(snap.counter("campaign_worker_1_claims"), Some(1));
    }

    #[test]
    fn ticker_stops_on_drop() {
        let progress = Arc::new(CampaignProgress::new());
        let ticker = ProgressTicker::start(Arc::clone(&progress), Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(5));
        drop(ticker); // must not hang waiting for the interval
    }
}
