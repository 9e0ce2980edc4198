//! The QTA instrumentation plugin: co-simulates a binary with its
//! WCET-annotated control-flow graph.
//!
//! The plugin rides on the virtual prototype's TCG-style hook API. Every
//! time execution enters an annotated block (the PC hits a block start),
//! the block's static worst-case cost is added to the *worst-case path
//! accumulator* — the time the program would have taken if every
//! instruction on the executed path exhibited its architectural worst
//! case. Loop headers are additionally checked against their static
//! bounds at runtime: an entry from a non-latch block starts a fresh
//! iteration count, an entry from a latch increments it, and exceeding
//! the bound is recorded as a violation (a falsified WCET hypothesis).
//!
//! Entries are observed as block events: the plugin declares every
//! annotated block's start and end as a translation-block start, so each
//! VP block lies wholly inside one annotated block or outside all of
//! them, and an annotated entry is exactly a VP block entry at its
//! start. Instruction events are subscribed only where a block event
//! cannot stand in for them: blocks outside the graph (counted into
//! [`unmapped_insns`](QtaPlugin::unmapped_insns)) and blocks holding a
//! `wfi`, whose sleep the VP adds after the instruction retires. Every
//! other block runs on the VP's template JIT once hot, whose native
//! code records the entries the plugin then accounts in batches, each
//! stamped with the cycle count at its entry.

use s4e_isa::{Insn, InsnKind};
use s4e_obs::{bucket_index, names, Counter, Histogram, MetricsRegistry, Snapshot, NUM_BUCKETS};
use s4e_vp::{BlockEntry, BlockInfo, Cpu, Plugin};
use s4e_wcet::TimedCfg;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A runtime loop-bound violation observed during co-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// The loop header whose bound was exceeded.
    pub header: u32,
    /// The static bound.
    pub bound: u64,
    /// The iteration count actually observed (first exceeding entry).
    pub observed: u64,
}

/// The QTA plugin. Attach to a [`Vp`](s4e_vp::Vp) via
/// [`add_plugin`](s4e_vp::Vp::add_plugin), run the program, then recover
/// it with [`plugin::<QtaPlugin>`](s4e_vp::Vp::plugin), call
/// [`flush`](QtaPlugin::flush) and read the accumulated results.
#[derive(Debug)]
pub struct QtaPlugin {
    cfg: TimedCfg,
    registry: Arc<MetricsRegistry>,
    /// The annotated blocks in address order, with their per-run state.
    blocks: Vec<BlockState>,
    /// Block-event pcs resolved by `locate`: a direct-mapped memo of
    /// `(pc, slot)` lines indexed like the VP's jump cache, bounded
    /// however far apart the annotated blocks lie.
    memo: Box<[(u32, u32); MEMO_LINES]>,
    worst_case_cycles: u64,
    violations: Vec<BoundViolation>,
    /// Start of the annotated block entered last.
    last_block: Option<u32>,
    unmapped_insns: u64,
    pending: Option<PendingEntry>,
    /// The cycle count right after a `wfi` retired, when it was the last
    /// instruction executed: the VP adds the sleep afterwards, and the
    /// sleep belongs to the block entered next, not the one holding the
    /// `wfi`.
    after_wfi: Option<u64>,
    /// Slack and overrun tallies since the last publication.
    slack: Tally,
    overruns: u64,
    slack_cycles: Arc<Histogram>,
    overrun_counter: Arc<Counter>,
}

/// Set in a slot (see `locate`) on an annotated block's start.
const START: u32 = 1 << 31;

/// Lines in `QtaPlugin::memo`: more than the hot block starts of a
/// kernel, few enough to stay in the L1 cache.
const MEMO_LINES: usize = 512;

/// One annotated block: its static annotation and what this run saw.
#[derive(Debug, Clone)]
struct BlockState {
    start: u32,
    end: u32,
    wcet: u64,
    loop_bound: Option<u64>,
    latches: Vec<u32>,
    visits: u64,
    iterations: u64,
    /// Observed cycles per entry since the last publication.
    cycles: Tally,
}

/// A histogram kept in plain locals, published into the registry with
/// [`Histogram::merge_counts`].
#[derive(Debug, Clone)]
struct Tally {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Tally {
    const EMPTY: Tally = Tally {
        buckets: [0; NUM_BUCKETS],
        count: 0,
        sum: 0,
        max: 0,
    };

    #[inline]
    fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Merges the tally into `hist` and empties it.
    fn publish(&mut self, hist: &Histogram) {
        hist.merge_counts(&self.buckets, self.sum, self.max);
        *self = Tally::EMPTY;
    }
}

/// A block entry whose observed cycles are still accumulating (closed by
/// the next block entry, or by [`QtaPlugin::flush`] at run end).
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    /// Index into `QtaPlugin::blocks`.
    block: usize,
    cycles: u64,
}

impl QtaPlugin {
    /// Creates the plugin for a given annotated graph, with a private
    /// metrics registry.
    pub fn new(cfg: TimedCfg) -> QtaPlugin {
        QtaPlugin::with_registry(cfg, Arc::new(MetricsRegistry::new()))
    }

    /// Creates the plugin recording its timing evidence into a shared
    /// registry.
    pub fn with_registry(cfg: TimedCfg, registry: Arc<MetricsRegistry>) -> QtaPlugin {
        let blocks: Vec<BlockState> = cfg
            .blocks()
            .values()
            .map(|b| BlockState {
                start: b.start,
                end: b.end,
                wcet: b.wcet,
                loop_bound: b.loop_bound,
                latches: b.latches.clone(),
                visits: 0,
                iterations: 0,
                cycles: Tally::EMPTY,
            })
            .collect();
        // Every memo line starts as a valid pair, for `u32::MAX`.
        let line = (u32::MAX, locate(&blocks, u32::MAX));
        QtaPlugin {
            cfg,
            slack_cycles: registry.histogram(names::QTA_SLACK),
            overrun_counter: registry.counter(names::QTA_OVERRUNS),
            registry,
            blocks,
            memo: Box::new([line; MEMO_LINES]),
            worst_case_cycles: 0,
            violations: Vec::new(),
            last_block: None,
            unmapped_insns: 0,
            pending: None,
            after_wfi: None,
            slack: Tally::EMPTY,
            overruns: 0,
        }
    }

    /// The annotated graph being co-simulated.
    pub fn cfg(&self) -> &TimedCfg {
        &self.cfg
    }

    /// The worst-case cycles accumulated along the *executed* path.
    ///
    /// By construction `dynamic cycles ≤ this ≤ static WCET bound`
    /// (provided all loop bounds hold — check
    /// [`violations`](QtaPlugin::violations)).
    pub fn worst_case_cycles(&self) -> u64 {
        self.worst_case_cycles
    }

    /// Per-block visit counts of the entered blocks, keyed by block
    /// start address.
    pub fn visits(&self) -> BTreeMap<u32, u64> {
        self.blocks
            .iter()
            .filter(|b| b.visits > 0)
            .map(|b| (b.start, b.visits))
            .collect()
    }

    /// Loop-bound violations observed at runtime (each header reported
    /// once, at its first exceeding entry).
    pub fn violations(&self) -> &[BoundViolation] {
        &self.violations
    }

    /// Instructions executed at addresses not covered by the annotated
    /// graph (e.g. trap handlers that static analysis never saw).
    pub fn unmapped_insns(&self) -> u64 {
        self.unmapped_insns
    }

    /// The registry holding the per-block `qta_block_{pc}_cycles`
    /// histograms, the `qta_slack_cycles` distribution and the
    /// `qta_overruns` counter, as of the last [`flush`](QtaPlugin::flush).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time copy of the timing evidence. Call
    /// [`flush`](QtaPlugin::flush) first so the final block entry is
    /// attributed and every entry is published.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Closes the still-open block entry, attributing the cycles from its
    /// entry up to `final_cycles` (the CPU's cycle counter at run end),
    /// and publishes the timing evidence gathered since the previous
    /// flush into the registry. Idempotent; without it the registry
    /// holds nothing of this run.
    pub fn flush(&mut self, final_cycles: u64) {
        self.account(final_cycles);
        for b in &mut self.blocks {
            if b.cycles.count > 0 {
                let hist = self.registry.histogram(&names::qta_block_cycles(b.start));
                b.cycles.publish(&hist);
            }
        }
        self.slack.publish(&self.slack_cycles);
        self.overrun_counter.add(std::mem::take(&mut self.overruns));
    }

    /// Attributes the cycles since the previous block entry to that
    /// block's observed-cycles histogram, and scores it against the
    /// block's static WCET.
    ///
    /// Entries are stamped with the cycle count *before* the block's
    /// first instruction, so each delta spans exactly the previous
    /// block's instructions (plus any unmapped instructions executed in
    /// between, e.g. trap handlers — those cycles are charged to the
    /// interrupted block).
    fn account(&mut self, next_cycles: u64) {
        let Some(prev) = self.pending.take() else {
            return;
        };
        let observed = next_cycles.saturating_sub(prev.cycles);
        let block = &mut self.blocks[prev.block];
        block.cycles.record(observed);
        if observed > block.wcet {
            self.overruns += 1;
        }
        self.slack.record(block.wcet.saturating_sub(observed));
    }

    /// `locate` through the memo.
    #[inline]
    fn memo_locate(&mut self, pc: u32) -> u32 {
        let line = (pc >> 1) as usize & (MEMO_LINES - 1);
        let (tag, slot) = self.memo[line];
        if tag == pc {
            return slot;
        }
        let slot = locate(&self.blocks, pc);
        self.memo[line] = (pc, slot);
        slot
    }

    /// Resets all accumulated state (for re-running the same binary).
    /// Metrics restart in a fresh registry; snapshots taken earlier keep
    /// the old run's values.
    pub fn reset(&mut self) {
        self.worst_case_cycles = 0;
        for b in &mut self.blocks {
            b.visits = 0;
            b.iterations = 0;
            b.cycles = Tally::EMPTY;
        }
        self.violations.clear();
        self.last_block = None;
        self.unmapped_insns = 0;
        self.pending = None;
        self.after_wfi = None;
        self.slack = Tally::EMPTY;
        self.overruns = 0;
        self.registry = Arc::new(MetricsRegistry::new());
        self.slack_cycles = self.registry.histogram(names::QTA_SLACK);
        self.overrun_counter = self.registry.counter(names::QTA_OVERRUNS);
    }
}

/// The slot of `pc` among `blocks` (sorted by start): `0` when
/// [`TimedCfg::block_containing`] finds no block there, else the index
/// of that block plus one, with `START` set when `pc` is an annotated
/// block start.
fn locate(blocks: &[BlockState], pc: u32) -> u32 {
    let above = blocks.partition_point(|b| b.start <= pc);
    let Some(i) = above.checked_sub(1) else {
        return 0;
    };
    let block = &blocks[i];
    if pc == block.start {
        (i as u32 + 1) | START
    } else if pc < block.end {
        i as u32 + 1
    } else {
        0
    }
}

impl Plugin for QtaPlugin {
    fn block_starts(&self) -> Vec<u32> {
        self.cfg
            .blocks()
            .values()
            .flat_map(|b| [b.start, b.end])
            .collect()
    }

    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        block
            .insns
            .iter()
            .any(|(pc, insn)| locate(&self.blocks, *pc) == 0 || insn.kind() == InsnKind::Wfi)
    }

    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        for entry in entries {
            self.enter(entry.pc, entry.cycles);
        }
    }

    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {
        if locate(&self.blocks, pc) == 0 {
            self.unmapped_insns += 1;
        }
        self.after_wfi = (insn.kind() == InsnKind::Wfi).then(|| cpu.cycles());
    }
}

impl QtaPlugin {
    /// Accounts one VP block entry at `pc`, made at `cycles`: an
    /// annotated block entry when `pc` is an annotated start.
    #[inline]
    fn enter(&mut self, pc: u32, cycles: u64) {
        let entry_cycles = self.after_wfi.take().unwrap_or(cycles);
        let slot = self.memo_locate(pc);
        if slot & START == 0 {
            return;
        }
        // Block entry: the PC sits exactly on an annotated block start.
        self.account(entry_cycles);
        let index = (slot & !START) as usize - 1;
        self.pending = Some(PendingEntry {
            block: index,
            cycles: entry_cycles,
        });
        let block = &mut self.blocks[index];
        self.worst_case_cycles += block.wcet;
        block.visits += 1;
        if let Some(bound) = block.loop_bound {
            let from_latch = self
                .last_block
                .is_some_and(|lb| block.latches.contains(&lb));
            if from_latch {
                block.iterations += 1;
            } else {
                block.iterations = 1;
            }
            if block.iterations == bound + 1 {
                self.violations.push(BoundViolation {
                    header: pc,
                    bound,
                    observed: block.iterations,
                });
            }
        }
        self.last_block = Some(pc);
    }
}
