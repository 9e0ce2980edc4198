//! The supervised campaign engine: work-stealing dispatch with panic
//! isolation, per-mutant wall-clock watchdogs, streaming checkpoints and
//! resume.
//!
//! The MBMV 2020 campaigns run tens of thousands of mutants; at that
//! scale the harness itself is part of the fault model. The engine
//! therefore supervises every mutant:
//!
//! - **Panic isolation** — each mutant executes under
//!   [`std::panic::catch_unwind`]. A harness panic (a simulator bug the
//!   fault surfaced) classifies that one mutant as
//!   [`FaultOutcome::HarnessError`] with the payload captured into the
//!   report, instead of aborting the whole sweep.
//! - **Watchdog** — with [`CampaignConfig::timeout`] armed, each mutant
//!   runs under a [`CancelToken`] child whose deadline bounds it by wall
//!   clock ([`FaultOutcome::Cancelled`]), catching livelocks (interrupt
//!   storms) that an instruction budget alone bounds poorly.
//! - **Work stealing** — mutants are claimed from a shared atomic index,
//!   so a long-tail mutant occupies one worker while the others drain
//!   the queue, and any worker that dies leaves no stranded items.
//! - **Checkpoint/resume** — every classification streams through a
//!   [`CampaignSink`] the moment it is produced;
//!   [`Campaign::resume`] skips specs already classified in a JSONL
//!   checkpoint, so an interrupted 50k-mutant campaign restarts where it
//!   stopped.
//!
//! Cancelling the campaign-level token shuts the sweep down: workers
//! stop claiming mutants, and in-flight mutants are left *unrecorded*
//! (reported as [`FaultOutcome::Cancelled`], but absent from the
//! checkpoint) so a resume re-runs them. A per-mutant watchdog expiry,
//! by contrast, is a final classification and is checkpointed.

use crate::campaign::{Campaign, CampaignError, CampaignReport, FaultResult};
use crate::checkpoint::{outcome_tag, read_checkpoint, CampaignSink, JsonlSink, NullSink};
use crate::fault::{FaultOutcome, FaultSpec};
use crate::forensics::IncidentBundle;
use crate::prefix::PrefixCache;
use crate::progress::ProgressSink;
use crate::prune::PrunePlan;
use s4e_vp::{CancelToken, Vp};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// An observation hook invoked before each supervised mutant runs, with
/// the mutant's queue index and spec. See [`Campaign::set_mutant_hook`].
pub type MutantHook = Arc<dyn Fn(usize, &FaultSpec) + Send + Sync>;

/// One worker's classification of one queue slot.
type SlotResult = (usize, FaultOutcome, Option<String>);

/// Already-classified specs carried into a run (the resume path).
pub(crate) type DoneMap = HashMap<FaultSpec, (FaultOutcome, Option<String>)>;

impl Campaign {
    /// Runs every mutant under the supervised engine, preserving input
    /// order in the report. Harness panics and watchdog expiries are
    /// classified per mutant; the sweep itself always completes.
    pub fn run_all(&self, specs: &[FaultSpec]) -> CampaignReport {
        self.run_all_cancellable(specs, &CancelToken::new())
    }

    /// [`run_all`](Campaign::run_all) with a campaign-level cancellation
    /// token: cancelling it stops the sweep promptly, and every mutant
    /// not yet classified is reported as [`FaultOutcome::Cancelled`].
    pub fn run_all_cancellable(&self, specs: &[FaultSpec], cancel: &CancelToken) -> CampaignReport {
        self.run_supervised(specs, &mut NullSink, cancel, &DoneMap::new())
            .expect("the null sink cannot fail")
    }

    /// Runs every mutant, streaming each classification through `sink`
    /// the moment it is produced (completion order). Pair with a
    /// [`JsonlSink`] to make the sweep restartable via
    /// [`resume`](Campaign::resume).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Checkpoint`] when the sink fails; the
    /// sweep is cancelled and already-streamed results remain valid.
    pub fn run_all_checkpointed(
        &self,
        specs: &[FaultSpec],
        sink: &mut dyn CampaignSink,
        cancel: &CancelToken,
    ) -> Result<CampaignReport, CampaignError> {
        self.run_supervised(specs, sink, cancel, &DoneMap::new())
    }

    /// Resumes an interrupted checkpointed sweep: specs already
    /// classified in the JSONL checkpoint at `path` are skipped (their
    /// recorded outcome is reused), the rest are executed and appended
    /// to the same file. Corrupted or truncated checkpoint lines are
    /// skipped, and their mutants re-run. A missing checkpoint file
    /// degenerates to a fresh [`run_all_checkpointed`](Campaign::run_all_checkpointed).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Checkpoint`] when the checkpoint cannot
    /// be read or appended to.
    pub fn resume(
        &self,
        specs: &[FaultSpec],
        path: impl AsRef<Path>,
        cancel: &CancelToken,
    ) -> Result<CampaignReport, CampaignError> {
        let path = path.as_ref();
        let load = read_checkpoint(path)
            .map_err(|e| CampaignError::Checkpoint(format!("{}: {e}", path.display())))?;
        let mut done = DoneMap::with_capacity(load.entries.len());
        for (result, panic) in load.entries {
            done.insert(result.spec, (result.outcome, panic));
        }
        let mut sink = JsonlSink::append(path)
            .map_err(|e| CampaignError::Checkpoint(format!("{}: {e}", path.display())))?;
        self.run_supervised(specs, &mut sink, cancel, &done)
    }

    pub(crate) fn run_supervised(
        &self,
        specs: &[FaultSpec],
        sink: &mut dyn CampaignSink,
        cancel: &CancelToken,
        done: &DoneMap,
    ) -> Result<CampaignReport, CampaignError> {
        let threads = self.config().threads.min(specs.len()).max(1);
        let next = AtomicUsize::new(0);
        // With progress attached, classifications are counted on the sink
        // path itself — after the checkpoint accepted them, so the ticker
        // never runs ahead of what a resume would see.
        let mut progress_sink;
        let sink: &mut dyn CampaignSink = match self.progress() {
            Some(progress) => {
                progress.begin(specs.len(), threads);
                progress_sink = ProgressSink::new(sink, Arc::clone(progress));
                &mut progress_sink
            }
            None => sink,
        };
        let sink = Mutex::new(sink);
        let sink_error: Mutex<Option<String>> = Mutex::new(None);
        // The equivalence-pruning plan (None: pruning off, or the
        // analysis itself panicked — every mutant then executes).
        let plan_start = self.tracer().map(|t| t.now_us());
        let plan = self.prune_plan(specs);
        if let (Some(tracer), Some(start), Some(plan)) = (self.tracer(), plan_start, &plan) {
            let replay = plan.replay();
            let mut ring = tracer.ring();
            ring.span(
                "prune_plan",
                "prune",
                start,
                &[
                    ("queries", replay.queries.to_string()),
                    ("mem_watches", replay.mem_watches.to_string()),
                    ("retired", replay.retired.to_string()),
                    ("jit_retired", replay.jit_retired.to_string()),
                ],
            );
            tracer.collect(ring);
        }
        // The shared golden-prefix snapshot cache (None: fast-forward off
        // or the golden run armed interrupts — every mutant then re-runs
        // its fault-free prefix the legacy way). Pre-verdicted specs are
        // excluded from its consumer counts: they never fetch.
        let prefix = self.prefix_cache(specs, plan.as_ref());
        // Which worker claimed the previous queue slot — a claim by a
        // different worker than the last one is counted as a steal (the
        // queue migrated because the previous claimant was still busy).
        let last_claimer = AtomicUsize::new(usize::MAX);
        let sweep_start = self.tracer().map(|t| t.now_us());

        let worker_slots: Vec<Vec<SlotResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker_id| {
                    let (next, sink, sink_error) = (&next, &sink, &sink_error);
                    let (prefix, plan) = (prefix.as_ref(), plan.as_ref());
                    let last_claimer = &last_claimer;
                    scope.spawn(move || {
                        self.worker(
                            worker_id,
                            specs,
                            next,
                            sink,
                            sink_error,
                            cancel,
                            done,
                            prefix,
                            plan,
                            last_claimer,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                // A worker that somehow died (a panic escaping the
                // per-mutant isolation) contributes nothing; the shared
                // queue means survivors already drained its remaining
                // items, and its in-flight slot is filled below.
                .filter_map(|h| h.join().ok())
                .collect()
        });

        if let (Some(progress), Some(prefix)) = (self.progress(), prefix.as_ref()) {
            // The golden replay VP's share of the fast-forward work:
            // snapshots taken and dirty pages flushed along the prefix.
            progress.record_dispatch(&prefix.stats());
        }

        if let (Some(tracer), Some(start)) = (self.tracer(), sweep_start) {
            let mut ring = tracer.ring();
            ring.span(
                "sweep",
                "campaign",
                start,
                &[
                    ("mutants", specs.len().to_string()),
                    ("threads", threads.to_string()),
                ],
            );
            tracer.collect(ring);
        }

        if let Some(msg) = sink_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(CampaignError::Checkpoint(msg));
        }

        let mut slots: Vec<Option<(FaultOutcome, Option<String>)>> = vec![None; specs.len()];
        for (index, outcome, panic) in worker_slots.into_iter().flatten() {
            slots[index] = Some((outcome, panic));
        }
        let shutdown = cancel.flag_raised();
        let mut results = Vec::with_capacity(specs.len());
        let mut panics = Vec::new();
        for (spec, slot) in specs.iter().zip(slots) {
            let (outcome, panic) = slot.unwrap_or_else(|| {
                if shutdown {
                    // Cancelled before this mutant was classified; absent
                    // from the checkpoint, so resume re-runs it.
                    (FaultOutcome::Cancelled, None)
                } else {
                    // The only way a slot stays empty in a completed
                    // sweep is a worker dying mid-mutant.
                    (
                        FaultOutcome::HarnessError,
                        Some("worker thread died before classifying this mutant".into()),
                    )
                }
            });
            if let Some(msg) = panic {
                panics.push((*spec, msg));
            }
            results.push(FaultResult {
                spec: *spec,
                outcome,
            });
        }
        Ok(Campaign::build_report(results, panics))
    }

    #[allow(clippy::too_many_arguments)]
    fn worker(
        &self,
        worker_id: usize,
        specs: &[FaultSpec],
        next: &AtomicUsize,
        sink: &Mutex<&mut dyn CampaignSink>,
        sink_error: &Mutex<Option<String>>,
        cancel: &CancelToken,
        done: &DoneMap,
        prefix: Option<&PrefixCache>,
        plan: Option<&PrunePlan>,
        last_claimer: &AtomicUsize,
    ) -> Vec<SlotResult> {
        let mut out = Vec::new();
        // The worker's private trace lane (None: tracing off — every
        // record below is then gated on one Option check).
        let mut ring = self.tracer().map(|t| t.ring());
        let forensics = self.forensics_active();
        // The worker's reusable mutant VP for the fast-forward path:
        // restoring a snapshot into it costs O(diverged pages), where a
        // fresh VP per mutant costs a full RAM allocation plus the image
        // load. Discarded after a caught panic (its state is suspect).
        let mut slot: Option<Vp> = None;
        loop {
            if cancel.flag_raised() {
                break;
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(index) else {
                break;
            };
            let previous_claimer = last_claimer.swap(worker_id, Ordering::Relaxed);
            if let Some(progress) = self.progress() {
                progress.worker_heartbeat(worker_id);
                if previous_claimer != worker_id && previous_claimer != usize::MAX {
                    progress.record_steal();
                }
            }
            if let Some((outcome, panic)) = done.get(spec) {
                // Classified by a previous (interrupted) run: reuse the
                // checkpointed outcome without re-recording it — but it
                // still counts as done for progress purposes.
                if let Some(progress) = self.progress() {
                    progress.record_resumed(*outcome);
                }
                out.push((index, *outcome, panic.clone()));
                continue;
            }
            // The equivalence-pruning pre-verdict, when the def-use
            // analysis proved this mutant's classification without
            // running it. Pre-verdicted specs skip the prefix fetch
            // entirely — the plan already excluded them from the
            // cache's consumer counts.
            let pre = plan.and_then(|p| p.verdict(index));
            // Fetch the shared prefix snapshot before arming the
            // watchdog: the fetch may serialize behind another worker's
            // golden advance, and that shared work must not count
            // against this mutant's wall-clock budget. A panic inside
            // the advance poisons the cache; this mutant (and every
            // later one) falls back to the legacy full re-run instead
            // of killing the worker.
            let entry = if pre.is_some() {
                None
            } else {
                prefix.and_then(|cache| {
                    catch_unwind(AssertUnwindSafe(|| {
                        cache.fetch(self.injection_point(spec), ring.as_mut())
                    }))
                    .ok()
                    .flatten()
                })
            };
            let mutant_token = match self.config().timeout {
                Some(timeout) => cancel.child(timeout),
                None => cancel.clone(),
            };
            let mutant_start = ring.as_ref().map(|r| r.now_us());
            // A legacy rerun runs on a VP of its own and drops it: its
            // dispatch statistics come back here, not from the slot.
            let mut rerun_stats = None;
            let execution = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = self.mutant_hook() {
                    hook(index, spec);
                }
                if let Some(outcome) = pre {
                    return (outcome, Some("pruned"));
                }
                // Post-injection state dedupe: a mutant restoring the
                // same snapshot (by fingerprint) with the same injected
                // delta as an already-executed one shares its outcome.
                let dedup_key = match (plan, &entry) {
                    (Some(plan), Some(entry)) => plan.dedup_key(index, &entry.snapshot),
                    _ => None,
                };
                if let (Some(plan), Some(key)) = (plan, dedup_key.as_ref()) {
                    if let Some(outcome) = plan.dedup_lookup(key) {
                        return (outcome, Some("dedup"));
                    }
                }
                let outcome = match &entry {
                    Some(entry) => {
                        if forensics {
                            self.arm_slot_flight(&mut slot);
                        }
                        self.execute_mutant_fast(spec, Some(&mutant_token), entry, &mut slot)
                    }
                    None if forensics => {
                        self.execute_mutant_forensic(spec, Some(&mutant_token), &mut slot)
                    }
                    None => {
                        let (outcome, stats) = self.execute_mutant(spec, Some(&mutant_token));
                        rerun_stats = Some(stats);
                        outcome
                    }
                };
                if let (Some(plan), Some(key)) = (plan, dedup_key) {
                    plan.dedup_insert(key, outcome);
                }
                (outcome, None)
            }));
            let stats = if self.progress().is_some() || ring.is_some() {
                rerun_stats.or_else(|| slot.as_mut().map(|vp| vp.take_dispatch_stats()))
            } else {
                None
            };
            if let (Some(progress), Some(stats)) = (self.progress(), stats.as_ref()) {
                progress.record_dispatch(stats);
            }
            let (outcome, prune_tag, panic, crashed) = match execution {
                Ok((FaultOutcome::Cancelled, _)) if cancel.flag_raised() => {
                    // Campaign shutdown, not a watchdog expiry: leave the
                    // mutant unclassified so a resume re-runs it.
                    break;
                }
                Ok((outcome, tag)) => (outcome, tag, None, None),
                Err(payload) => {
                    // The slot VP's state is suspect after a panic: pull
                    // it out for the forensic dump and never reuse it.
                    let crashed = slot.take();
                    (
                        FaultOutcome::HarnessError,
                        None,
                        Some(panic_message(&*payload)),
                        crashed,
                    )
                }
            };
            if let (Some(progress), Some(tag)) = (self.progress(), prune_tag) {
                if tag == "dedup" {
                    progress.record_pruned_dedup();
                } else {
                    progress.record_pruned_dead();
                }
            }
            // A shared (dedup) or proved (pruned) classification did not
            // run on this worker's VP: an incident bundle would capture
            // unrelated state, so forensics only fire for executed
            // mutants.
            if let (Some(dir), None) = (self.trace_dir(), prune_tag) {
                if matches!(
                    outcome,
                    FaultOutcome::Timeout
                        | FaultOutcome::Hang
                        | FaultOutcome::Cancelled
                        | FaultOutcome::HarnessError
                ) {
                    let mut bundle = IncidentBundle::new(outcome_tag(&outcome), *spec);
                    bundle.set_index(index);
                    if let Some(message) = panic.as_deref() {
                        bundle.set_panic(message);
                    }
                    if let Some(vp) = crashed.as_ref().or(slot.as_ref()) {
                        bundle.attach_vp(vp);
                    }
                    // Forensics must never fail the sweep: a dump error
                    // only loses this bundle.
                    if let (Ok(path), Some(ring)) = (bundle.write(dir), ring.as_mut()) {
                        ring.instant(
                            "incident_bundle",
                            "forensics",
                            &[
                                ("incident", outcome_tag(&outcome).to_string()),
                                ("path", path.display().to_string()),
                                ("spec", spec.to_string()),
                            ],
                        );
                    }
                }
            }
            let recorded = {
                let mut guard = sink.lock().unwrap_or_else(|p| p.into_inner());
                guard.record(
                    &FaultResult {
                        spec: *spec,
                        outcome,
                    },
                    panic.as_deref(),
                )
            };
            if let Err(e) = recorded {
                *sink_error.lock().unwrap_or_else(|p| p.into_inner()) =
                    Some(format!("recording mutant {index}: {e}"));
                cancel.cancel();
                break;
            }
            if let (Some(ring), Some(start)) = (ring.as_mut(), mutant_start) {
                let mut args = vec![
                    ("index", index.to_string()),
                    ("outcome", outcome.to_string()),
                    (
                        "prefix",
                        prune_tag
                            .unwrap_or(if entry.is_some() { "snapshot" } else { "rerun" })
                            .to_string(),
                    ),
                    ("spec", spec.to_string()),
                ];
                if let Some(stats) = stats.as_ref() {
                    args.push(("pages_restored", stats.pages_restored.to_string()));
                    args.push(("restores", stats.restores.to_string()));
                    args.push(("translations", stats.translations.to_string()));
                }
                ring.span("mutant", "campaign", start, &args);
            }
            out.push((index, outcome, panic));
        }
        if let Some(progress) = self.progress() {
            progress.worker_exited();
        }
        if let (Some(tracer), Some(ring)) = (self.tracer(), ring.take()) {
            tracer.collect(ring);
        }
        out
    }
}

/// Renders a caught panic payload — the `&str`/`String` payloads that
/// `panic!` produces, with a fallback for exotic types.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
