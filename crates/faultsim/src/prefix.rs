//! Golden-prefix fast-forward for fault campaigns.
//!
//! Every mutant of a campaign executes the *golden* instruction stream
//! unchanged up to its injection point — re-simulating that prefix per
//! mutant is the dominant cost of a large transient sweep. The
//! [`PrefixCache`] removes it: it owns one dedicated golden VP, plans
//! the sorted set of distinct injection points up front from the spec
//! list, advances the VP monotonically through them, takes an
//! O(dirty-pages) [`VpSnapshot`] at each point, and hands the snapshot
//! out to however many workers inject there. Workers restore the shared
//! snapshot into a reusable per-worker VP and execute only the
//! post-injection suffix. Time-zero injections (stuck-at faults and
//! `Transient { at_insn: 0 }`) all share the single point-`0` snapshot
//! taken right after `load` — the image is parsed and loaded once per
//! campaign, not once per mutant.
//!
//! Two structural rules keep this classification-identical with the
//! legacy full-rerun path (`Campaign::execute_mutant`):
//!
//! - **Terminal prefixes are never resumed.** When the golden run
//!   terminates at or before a planned point, re-running the terminated
//!   VP would re-execute the terminating instruction (`ebreak` does not
//!   advance the PC). The cache therefore stores the terminal
//!   [`RunOutcome`] alongside the final snapshot, and the consumer
//!   classifies that state directly — exactly the legacy early return
//!   for a transient whose injection time the program never reaches.
//! - **Interrupt-armed goldens are ineligible.** Splitting a run into
//!   several `run_for` calls inserts extra interrupt-sample points at
//!   the split boundaries; that is architecturally invisible only while
//!   no interrupt can be delivered. `Campaign::prepare` watches `mie`
//!   across the golden run and the campaign falls back to the legacy
//!   path when it was ever nonzero (`Campaign::fast_forward_active`).
//!
//! Because the cache snapshots *every* planned point it passes while
//! advancing (not only the requested one), workers may fetch points in
//! any order — the work-stealing runner keeps claiming mutants in input
//! order, preserving report and checkpoint semantics. Entries are
//! reference-counted by planned consumer and dropped when the last
//! consumer has fetched them, so resident snapshots are bounded by the
//! distinct injection points still in use.
//!
//! ## Concurrency shape
//!
//! Each planned point gets its own [`Slot`]: a `ready` flag published
//! with release/acquire ordering, the entry behind a per-slot `RwLock`,
//! and an atomic consumer count. A fetch of an already-produced point —
//! the overwhelmingly common case once the replay VP has passed it —
//! touches nothing shared with the planner: it checks the flag, clones
//! two `Arc`s under an uncontended read lock, and decrements the
//! consumer count (the last consumer reclaims the entry). Only *misses*
//! serialize, behind the single `advancer` mutex that owns the golden
//! replay VP; waiters re-check their slot's flag after acquiring, since
//! the advance they queued up behind usually produced it. Contended
//! acquisitions of that mutex are counted (with their blocked time) into
//! [`DispatchStats::lock_waits`]/[`lock_wait_us`], surfaced as
//! `campaign_lock_waits`/`campaign_lock_wait_us` — the direct measure of
//! how often restore-and-run serialized on the planner. A panic inside
//! an advance poisons only the advancer: already-produced slots keep
//! serving hits, and misses fall back to the legacy full re-run.
//!
//! [`DispatchStats::lock_waits`]: s4e_vp::DispatchStats::lock_waits
//! [`lock_wait_us`]: s4e_vp::DispatchStats::lock_wait_us

use crate::campaign::run_to_retired;
use s4e_obs::TraceRing;
use s4e_vp::{DispatchStats, RunOutcome, Vp, VpSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::Instant;

/// One shared fast-forward point.
#[derive(Debug, Clone)]
pub(crate) struct PrefixEntry {
    /// Golden state at the injection point (or at golden termination,
    /// whichever came first).
    pub snapshot: Arc<VpSnapshot>,
    /// Set when the golden run terminated at or before the requested
    /// point: the consumer must classify `snapshot` with this outcome
    /// instead of resuming it (a terminated VP re-executes its final
    /// instruction when resumed).
    pub terminal: Option<RunOutcome>,
}

/// One planned injection point's publication cell.
#[derive(Debug)]
struct Slot {
    /// The injection point (retired instructions).
    at: u64,
    /// Planned consumers that have not fetched yet; the fetch that
    /// brings this to zero reclaims the entry.
    consumers: AtomicUsize,
    /// Published flag: set (release) by the advancer after the entry is
    /// written, checked (acquire) lock-free by every fetch.
    ready: AtomicBool,
    /// The produced entry; `None` before production and again after the
    /// last consumer drained it.
    entry: RwLock<Option<PrefixEntry>>,
}

/// The serialized side of the cache: the golden replay VP and the
/// cursor over not-yet-produced slots. Only cache misses lock this.
#[derive(Debug)]
struct Advancer {
    /// The dedicated golden replay VP, advanced monotonically.
    golden: Vp,
    /// Retired instructions of `golden` so far.
    position: u64,
    /// The golden termination outcome, once reached. From then on every
    /// later planned point is served by the final snapshot.
    terminal: Option<RunOutcome>,
    /// Index of the first slot not yet produced (slots are sorted by
    /// injection point, and production is strictly in order).
    next_slot: usize,
    /// Dispatch statistics accumulated by the golden VP across advances
    /// (snapshots taken, dirty pages flushed, jump-cache behaviour).
    stats: DispatchStats,
}

impl Advancer {
    /// Runs the golden VP until `slot`'s point has retired, snapshots,
    /// and publishes the entry into the slot.
    fn produce(&mut self, slot: &Slot) {
        let point = slot.at;
        if self.terminal.is_none() && point > self.position {
            match run_to_retired(&mut self.golden, point, Vp::run_for) {
                RunOutcome::InsnLimit => self.position = point,
                outcome => {
                    // Terminated short of the point (or exactly at it —
                    // termination takes precedence over the limit, same
                    // as the legacy warmup run observes).
                    self.position = self.golden.cpu().instret();
                    self.terminal = Some(outcome);
                }
            }
        }
        let snapshot = Arc::new(self.golden.snapshot());
        self.stats.merge(&self.golden.take_dispatch_stats());
        *slot.entry.write().expect("no reader panics holding this") = Some(PrefixEntry {
            snapshot,
            terminal: self.terminal,
        });
        slot.ready.store(true, Ordering::Release);
    }
}

/// The shared golden-prefix snapshot cache of one campaign sweep. See
/// the module docs for the concurrency shape: per-slot publication with
/// lock-free hits, misses serialized behind the advancer mutex.
#[derive(Debug)]
pub(crate) struct PrefixCache {
    /// Planned points in ascending order.
    slots: Vec<Slot>,
    advancer: Mutex<Advancer>,
    /// Contended advancer acquisitions and the microseconds blocked on
    /// them, merged into [`stats`](PrefixCache::stats).
    lock_waits: AtomicU64,
    lock_wait_us: AtomicU64,
}

impl PrefixCache {
    /// Plans a cache over `points` (injection instret → consumer count),
    /// using `golden` — freshly loaded, nothing retired — as the replay
    /// VP.
    pub(crate) fn new(golden: Vp, points: BTreeMap<u64, usize>) -> PrefixCache {
        PrefixCache {
            slots: points
                .into_iter()
                .map(|(at, consumers)| Slot {
                    at,
                    consumers: AtomicUsize::new(consumers),
                    ready: AtomicBool::new(false),
                    entry: RwLock::new(None),
                })
                .collect(),
            advancer: Mutex::new(Advancer {
                golden,
                position: 0,
                terminal: None,
                next_slot: 0,
                stats: DispatchStats::default(),
            }),
            lock_waits: AtomicU64::new(0),
            lock_wait_us: AtomicU64::new(0),
        }
    }

    /// Fast-forward state for injection point `at`, advancing the golden
    /// VP if it has not been snapshotted yet. Returns `None` when the
    /// cache cannot serve the request — an unplanned point, an already
    /// fully-consumed entry, or a poisoned advancer (a previous advance
    /// panicked) — in which case the caller falls back to the legacy
    /// full re-run. With `ring` attached, each golden advance performed
    /// on behalf of this fetch is recorded as a `golden_advance` span
    /// (the shared work a cache miss serializes behind).
    pub(crate) fn fetch(&self, at: u64, mut ring: Option<&mut TraceRing>) -> Option<PrefixEntry> {
        let idx = self.slots.binary_search_by_key(&at, |s| s.at).ok()?;
        let slot = &self.slots[idx];
        if !slot.ready.load(Ordering::Acquire) {
            let mut advancer = match self.advancer.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(_)) => return None,
                Err(TryLockError::WouldBlock) => {
                    let blocked = Instant::now();
                    let guard = self.advancer.lock().ok()?;
                    self.lock_waits.fetch_add(1, Ordering::Relaxed);
                    self.lock_wait_us
                        .fetch_add(blocked.elapsed().as_micros() as u64, Ordering::Relaxed);
                    guard
                }
            };
            // Re-check after acquiring: the advance this fetch queued up
            // behind usually produced our slot already.
            while !slot.ready.load(Ordering::Acquire) {
                let next = advancer.next_slot;
                let start = ring.as_deref().map(TraceRing::now_us);
                let from = advancer.position;
                advancer.produce(&self.slots[next]);
                advancer.next_slot = next + 1;
                if let (Some(ring), Some(start)) = (ring.as_deref_mut(), start) {
                    ring.span(
                        "golden_advance",
                        "prefix",
                        start,
                        &[
                            ("from_instret", from.to_string()),
                            ("to_instret", advancer.position.to_string()),
                        ],
                    );
                }
            }
        }
        // Hit path: clone the entry's `Arc`s under the (uncontended)
        // read lock *before* giving up our consumer slot — the last
        // consumer reclaims the entry, and must not free it while a
        // slower sibling is still mid-clone.
        let entry = slot.entry.read().ok()?.clone()?;
        if slot.consumers.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Ok(mut cell) = slot.entry.write() {
                *cell = None;
            }
        }
        Some(entry)
    }

    /// Dispatch statistics accumulated by the golden replay VP so far,
    /// plus the cache's own lock-contention counters (golden-VP stats
    /// are zeroed when the advancer is poisoned — the sweep completed on
    /// the legacy path).
    pub(crate) fn stats(&self) -> DispatchStats {
        let mut stats = self
            .advancer
            .lock()
            .map(|advancer| advancer.stats)
            .unwrap_or_default();
        stats.lock_waits += self.lock_waits.load(Ordering::Relaxed);
        stats.lock_wait_us += self.lock_wait_us.load(Ordering::Relaxed);
        stats
    }
}
