//! Equivalence pruning: classify mutants without executing them.
//!
//! Two prune rules, both gated by [`CampaignConfig::prune`] and both
//! producing classifications identical to actually running the mutant:
//!
//! 1. **Dead injected bits (def-use sweep).** A transient bitflip only
//!    matters once the flipped location is *read*; until then the mutant
//!    executes bit-identically to the golden run. One extra golden
//!    replay with a [`DefUsePlugin`] records, per queried location, the
//!    first post-injection read and write. If the location is written
//!    (full-width register write, or a store covering the byte) before
//!    any read, the flip is erased and the mutant is `Masked`. If it is
//!    never accessed again, the run terminates exactly like the golden
//!    run with only that bit diverged, which classification (comparing
//!    final registers and memory) reports as `SilentCorruption`. Only a
//!    post-injection read forces execution.
//!
//!    The replay runs on block events: each entered block's
//!    instructions give its reads and writes by the executed-prefix
//!    rule it shares with the golden trace (the `blocks` module). Only
//!    blocks holding a load or store take per-instruction events, and
//!    only while a memory location is watched, so the rest of the
//!    replay executes on the template JIT.
//!
//!    "Read" is architectural: GPR/FPR source operands
//!    ([`Insn::reg_uses`]), load bytes, and the fetch bytes
//!    `[pc, pc+len)` of every executed instruction (the block cache
//!    re-reads mutated code — stores invalidate, restores drop, and
//!    retained native blocks re-validate a code-bytes hash — so
//!    fetch-per-executed-instruction is exact, not conservative). Reads win stamp ties:
//!    within one instruction, operand reads and the fetch precede any
//!    write. Stuck-at GPR faults are persistent read-forcing masks and
//!    are never prunable this way; stuck-at FPR/memory faults are
//!    time-zero value forces (see [`FaultKind::StuckAt`]) and prune
//!    either as no-ops (the bit already holds the forced value) or as
//!    time-zero flips.
//!
//! 2. **Post-injection state dedupe.** Two mutants whose post-injection
//!    architectural states are identical — same restore point (by
//!    [`VpSnapshot::fingerprint`]) and same injected delta — execute
//!    deterministically to the same outcome, so only the first runs and
//!    the rest share its classification. Wall-clock-dependent outcomes
//!    (`Cancelled`) and harness panics are never shared.
//!
//! The replay is exact even for interrupt-armed golden runs: it is a
//! single uninterrupted run (no fast-forward seams), and a mutant tracks
//! the golden run's interrupt deliveries cycle for cycle until the first
//! read of its flipped bit.
//!
//! [`CampaignConfig::prune`]: crate::CampaignConfig::prune
//! [`FaultKind::StuckAt`]: crate::FaultKind::StuckAt
//! [`Insn::reg_uses`]: s4e_isa::Insn::reg_uses
//! [`VpSnapshot::fingerprint`]: s4e_vp::VpSnapshot::fingerprint

use crate::blocks::{BlockWalk, Closed, Open};
use crate::campaign::{Campaign, GOLDEN_INSN_LIMIT};
use crate::fault::{FaultKind, FaultOutcome, FaultSpec, FaultTarget};
use s4e_isa::Insn;
use s4e_vp::{BlockEntry, BlockInfo, Cpu, MemAccess, Plugin, Trap, VpSnapshot};
use std::collections::HashMap;
use std::sync::Mutex;

/// Dedupe-map shard count (keys are spread by fingerprint so concurrent
/// workers rarely contend on one shard).
const DEDUP_SHARDS: usize = 16;

/// The injected state delta of a mutant, normalized so that different
/// fault spellings with identical post-injection behaviour share one
/// key: a stuck-at-1 FPR bit on a boot-zero register *is* a time-zero
/// flip, and a stuck memory bit differing from the loaded image *is* a
/// flip of that bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DeltaKey {
    /// XOR of one GPR bit.
    FlipGpr(s4e_isa::Gpr, u8),
    /// XOR of one FPR bit.
    FlipFpr(s4e_isa::Fpr, u8),
    /// XOR of one RAM-byte bit.
    FlipMem(u32, u8),
    /// Persistent stuck-at masks on one GPR bit (not reducible to a
    /// flip: the mask filters every future read).
    StuckGpr(s4e_isa::Gpr, u8, bool),
}

/// What the pre-execution analysis decided for one spec.
enum Case {
    /// Outcome known without running or replaying.
    Known(FaultOutcome),
    /// Needs the def-use replay: injection at `t`, watching `loc`.
    Query { t: u64, loc: Loc, delta: DeltaKey },
    /// Must execute (no def-use query applies); `delta` keys the dedupe
    /// map when the spec is expressible as a normalized delta.
    Execute(Option<DeltaKey>),
}

/// A watched location.
#[derive(Clone, Copy)]
enum Loc {
    Gpr(u8),
    Fpr(u8),
    Mem(u32),
}

/// The per-sweep pruning plan: pre-computed verdicts for provably
/// equivalent mutants, normalized dedupe deltas for the rest, and the
/// shared (fingerprint, delta) → outcome dedupe map filled in by the
/// workers as they execute.
pub(crate) struct PrunePlan {
    verdicts: Vec<Option<FaultOutcome>>,
    deltas: Vec<Option<DeltaKey>>,
    dedup: Vec<Mutex<HashMap<(u64, DeltaKey), FaultOutcome>>>,
    replay: ReplayStats,
}

/// What the plan's def-use replay watched and where it executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplayStats {
    /// Def-use queries the replay resolved (zero: no replay ran).
    pub(crate) queries: usize,
    /// Distinct RAM bytes watched.
    pub(crate) mem_watches: usize,
    /// Instructions the replay retired.
    pub(crate) retired: u64,
    /// Of those, the ones retired in native code.
    pub(crate) jit_retired: u64,
}

impl std::fmt::Debug for PrunePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrunePlan")
            .field("specs", &self.verdicts.len())
            .field("known", &self.verdicts.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl PrunePlan {
    /// Analyses `specs` against the campaign's golden run: pre-verdicts
    /// everything provable, then resolves the remaining def-use queries
    /// with one golden replay.
    pub(crate) fn build(campaign: &Campaign, specs: &[FaultSpec]) -> PrunePlan {
        let golden_len = campaign.golden().instret();
        let mut verdicts = vec![None; specs.len()];
        let mut deltas = vec![None; specs.len()];
        let mut queries = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            match classify_case(campaign, spec, golden_len) {
                Case::Known(outcome) => verdicts[i] = Some(outcome),
                Case::Query { t, loc, delta } => {
                    deltas[i] = Some(delta);
                    queries.push(Query { spec: i, t, loc });
                }
                Case::Execute(delta) => deltas[i] = delta,
            }
        }
        let replay = if queries.is_empty() {
            ReplayStats::default()
        } else {
            resolve_queries(campaign, &mut verdicts, queries)
        };
        PrunePlan {
            verdicts,
            deltas,
            dedup: (0..DEDUP_SHARDS).map(|_| Mutex::default()).collect(),
            replay,
        }
    }

    /// What the def-use replay watched and where it executed.
    pub(crate) fn replay(&self) -> ReplayStats {
        self.replay
    }

    /// The pre-computed classification for spec `index`, if pruning
    /// proved one.
    pub(crate) fn verdict(&self, index: usize) -> Option<FaultOutcome> {
        self.verdicts.get(index).copied().flatten()
    }

    /// The dedupe key for spec `index` restoring from `snapshot`, when
    /// the spec normalizes to a shared delta.
    pub(crate) fn dedup_key(&self, index: usize, snapshot: &VpSnapshot) -> Option<(u64, DeltaKey)> {
        let delta = self.deltas.get(index).copied().flatten()?;
        Some((snapshot.fingerprint(), delta))
    }

    /// A previously executed classification for the same key, if any.
    pub(crate) fn dedup_lookup(&self, key: &(u64, DeltaKey)) -> Option<FaultOutcome> {
        let shard = self.shard(key);
        shard.lock().ok()?.get(key).copied()
    }

    /// Publishes an executed classification for future lookups. Refuses
    /// outcomes that are not deterministic properties of the mutant
    /// (wall-clock cancellations, harness panics).
    pub(crate) fn dedup_insert(&self, key: (u64, DeltaKey), outcome: FaultOutcome) {
        if matches!(
            outcome,
            FaultOutcome::Cancelled | FaultOutcome::HarnessError | FaultOutcome::Quarantined
        ) {
            return;
        }
        let shard = self.shard(&key);
        if let Ok(mut map) = shard.lock() {
            map.insert(key, outcome);
        }
    }

    fn shard(&self, key: &(u64, DeltaKey)) -> &Mutex<HashMap<(u64, DeltaKey), FaultOutcome>> {
        &self.dedup[(key.0 % DEDUP_SHARDS as u64) as usize]
    }
}

/// Decides, per spec, between a known outcome, a def-use query and
/// unconditional execution. Mirrors the injection code exactly:
/// anything it cannot prove equivalent (invalid bit indices that panic
/// the harness, persistent GPR masks, out-of-image oddities) falls
/// through to `Execute`.
fn classify_case(campaign: &Campaign, spec: &FaultSpec, golden_len: u64) -> Case {
    let t = campaign.injection_point(spec);
    let (ram_lo, ram_size) = campaign.ram_bounds();
    let in_ram = |addr: u32| addr.wrapping_sub(ram_lo) < ram_size;
    match (spec.kind, spec.target) {
        // Injecting at or past golden termination: both execution paths
        // classify the unmutated (or post-termination) final state.
        (FaultKind::Transient { .. }, _) if t >= golden_len => Case::Known(FaultOutcome::Masked),
        (FaultKind::Transient { .. }, FaultTarget::GprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None); // flip panics; keep the panic
            }
            if reg == s4e_isa::Gpr::ZERO {
                return Case::Known(FaultOutcome::Masked); // flip is discarded
            }
            Case::Query {
                t,
                loc: Loc::Gpr(reg.index()),
                delta: DeltaKey::FlipGpr(reg, bit),
            }
        }
        (FaultKind::Transient { .. }, FaultTarget::FprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            Case::Query {
                t,
                loc: Loc::Fpr(reg.index()),
                delta: DeltaKey::FlipFpr(reg, bit),
            }
        }
        (FaultKind::Transient { .. }, FaultTarget::MemBit { addr, bit }) => {
            if bit >= 8 {
                return Case::Execute(None);
            }
            if !in_ram(addr) {
                return Case::Known(FaultOutcome::Masked); // flip is a no-op
            }
            Case::Query {
                t,
                loc: Loc::Mem(addr),
                delta: DeltaKey::FlipMem(addr, bit),
            }
        }
        // Persistent GPR masks filter every future read — not a one-shot
        // delta, so the def-use argument never applies. Still dedupable:
        // identical masks from identical boot state run identically.
        (FaultKind::StuckAt { value }, FaultTarget::GprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            Case::Execute(Some(DeltaKey::StuckGpr(reg, bit, value)))
        }
        // FPR stuck-ats are time-zero value forces on boot-zero
        // registers: forcing 0 changes nothing, forcing 1 is a flip.
        (FaultKind::StuckAt { value }, FaultTarget::FprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            if !value {
                return Case::Known(FaultOutcome::Masked);
            }
            Case::Query {
                t: 0,
                loc: Loc::Fpr(reg.index()),
                delta: DeltaKey::FlipFpr(reg, bit),
            }
        }
        // Memory stuck-ats are time-zero value forces on the loaded
        // image: forcing the value the byte already holds changes
        // nothing, otherwise it is a flip of that bit.
        (FaultKind::StuckAt { value }, FaultTarget::MemBit { addr, bit }) => {
            if bit >= 8 {
                return Case::Execute(None);
            }
            if !in_ram(addr) {
                return Case::Known(FaultOutcome::Masked);
            }
            if campaign.initial_ram_bit(addr, bit) == value {
                return Case::Known(FaultOutcome::Masked);
            }
            Case::Query {
                t: 0,
                loc: Loc::Mem(addr),
                delta: DeltaKey::FlipMem(addr, bit),
            }
        }
    }
}

/// One unresolved def-use question: does the golden run read `loc`
/// after `t` before writing it?
struct Query {
    spec: usize,
    t: u64,
    loc: Loc,
}

/// Replays the golden run once with a [`DefUsePlugin`] watching every
/// queried location, then turns the recorded first-read/first-write
/// stamps into verdicts.
fn resolve_queries(
    campaign: &Campaign,
    verdicts: &mut [Option<FaultOutcome>],
    queries: Vec<Query>,
) -> ReplayStats {
    let mut plugin = DefUsePlugin::new(queries.len());
    for (qid, q) in queries.iter().enumerate() {
        plugin.watch(q.loc, q.t, qid);
    }
    plugin.sort_watches();
    let mem_watches = plugin.watches.mem.len();
    let mut vp = campaign.loaded_vp();
    vp.add_plugin(Box::new(plugin));
    let outcome = vp.run_for(GOLDEN_INSN_LIMIT);
    debug_assert_eq!(outcome, campaign.golden().outcome());
    let instret = vp.cpu().instret();
    let stats = vp.dispatch_stats();
    let plugin = vp.plugin_mut::<DefUsePlugin>().expect("plugin attached");
    plugin.finish(instret);
    for (qid, q) in queries.iter().enumerate() {
        let (read, written) = plugin.results[qid];
        verdicts[q.spec] = match (read, written) {
            // Read first (ties included: operand reads and the fetch
            // precede any same-instruction write) — the flip is
            // observed, so the mutant must actually execute.
            (Some(r), Some(w)) if r <= w => None,
            (Some(_), None) => None,
            // Overwritten before any read: the flip is erased while the
            // mutant is still bit-identical to the golden run.
            (Some(_), Some(_)) | (None, Some(_)) => Some(FaultOutcome::Masked),
            // Never accessed again: the suffix runs exactly like the
            // golden run with one diverged bit in the final state.
            (None, None) => Some(FaultOutcome::SilentCorruption),
        };
    }
    ReplayStats {
        queries: queries.len(),
        mem_watches,
        retired: stats.retired,
        jit_retired: stats.jit_retired,
    }
}

/// First-read/first-write tracker for one watched location. Queries are
/// sorted by injection time; events arrive in nondecreasing stamp
/// order, so a pair of monotone cursors resolves every query in O(1)
/// amortized per event.
#[derive(Debug, Default)]
struct LocTrack {
    /// `(t, query id)` sorted ascending by `t`.
    queries: Vec<(u64, usize)>,
    /// First query whose first-read is still unknown.
    rp: usize,
    /// First query whose first-write is still unknown.
    wp: usize,
}

impl LocTrack {
    fn on_read(&mut self, stamp: u64, results: &mut [(Option<u64>, Option<u64>)]) {
        while let Some(&(t, qid)) = self.queries.get(self.rp) {
            if stamp <= t {
                break;
            }
            results[qid].0 = Some(stamp);
            self.rp += 1;
        }
    }

    fn on_write(&mut self, stamp: u64, results: &mut [(Option<u64>, Option<u64>)]) {
        while let Some(&(t, qid)) = self.queries.get(self.wp) {
            if stamp <= t {
                break;
            }
            results[qid].1 = Some(stamp);
            self.wp += 1;
        }
    }
}

/// Records first post-injection reads and writes of watched locations
/// during the golden replay, on block events.
///
/// Stamps number instructions 1-based: every event of the k-th executed
/// instruction — operand reads, the `[pc, pc+len)` fetch, loads, stores
/// and the register write — carries stamp `k`, and an injection after
/// `t` retired instructions precedes exactly the events with stamp
/// `> t`. By the executed-prefix rule (`blocks` module), the instruction
/// at index `j` of a block entered at `instret` `I` has stamp
/// `I + j + 1`; a trapping instruction does not retire, so the next
/// retired instruction also stamps `k`, and both began after the same
/// `k-1` retirements, so the `> t` predicate is exact for both. An
/// instruction that raised an exception read its operands and fetch
/// bytes but wrote no register (its loads and stores never happened
/// either), with one exception the VP pins: a jump writes its link
/// register before its misaligned target traps.
///
/// Each translation's watched fetch bytes, register reads and register
/// writes are precomputed as `(index, track)` lists, so closing an
/// entry is one pass over them. Memory accesses need instruction
/// events, so blocks holding a load or store are subscribed while some
/// memory location is watched; an access at stamp `k` arrives
/// mid-block (the accessing instruction has not retired) and first
/// applies the open entry's events before its own instruction, which
/// keeps every track's events in stamp order.
#[derive(Debug)]
struct DefUsePlugin {
    watches: Watches,
    tracks: Vec<LocTrack>,
    results: Vec<(Option<u64>, Option<u64>)>,
    walk: BlockWalk<Events>,
    /// Leading instructions of the open entry whose events are applied.
    applied: usize,
}

/// The track index watching each location.
#[derive(Debug, Default)]
struct Watches {
    gpr: [Option<usize>; 32],
    fpr: [Option<usize>; 32],
    mem: HashMap<u32, usize>,
}

/// A translation's events on watched locations, as `(instruction index,
/// track index)` pairs in index order.
#[derive(Debug, Default)]
struct Events {
    reads: Vec<(usize, usize)>,
    writes: Vec<(usize, usize)>,
}

impl Watches {
    fn events(&self, insns: &[(u32, Insn)]) -> Events {
        let mut events = Events::default();
        for (j, (pc, insn)) in insns.iter().enumerate() {
            if !self.mem.is_empty() {
                for addr in *pc..pc.wrapping_add(u32::from(insn.len())) {
                    if let Some(&track) = self.mem.get(&addr) {
                        events.reads.push((j, track));
                    }
                }
            }
            let uses = insn.reg_uses();
            let gpr = |reg: s4e_isa::Gpr| self.gpr[reg.index() as usize];
            let fpr = |reg: s4e_isa::Fpr| self.fpr[reg.index() as usize];
            let reads = (uses.gprs_read().filter_map(gpr)).chain(uses.fprs_read().filter_map(fpr));
            events.reads.extend(reads.map(|track| (j, track)));
            let gpr_write = uses.effective_gpr_written().and_then(gpr);
            let writes = gpr_write.into_iter().chain(uses.fpr_written.and_then(fpr));
            events.writes.extend(writes.map(|track| (j, track)));
        }
        events
    }
}

impl DefUsePlugin {
    fn new(queries: usize) -> DefUsePlugin {
        DefUsePlugin {
            watches: Watches::default(),
            tracks: Vec::new(),
            results: vec![(None, None); queries],
            walk: BlockWalk::default(),
            applied: 0,
        }
    }

    fn watch(&mut self, loc: Loc, t: u64, qid: usize) {
        let tracks = &mut self.tracks;
        let add = || {
            tracks.push(LocTrack::default());
            tracks.len() - 1
        };
        let track = match loc {
            Loc::Gpr(i) => *self.watches.gpr[i as usize].get_or_insert_with(add),
            Loc::Fpr(i) => *self.watches.fpr[i as usize].get_or_insert_with(add),
            Loc::Mem(addr) => *self.watches.mem.entry(addr).or_insert_with(add),
        };
        self.tracks[track].queries.push((t, qid));
    }

    fn sort_watches(&mut self) {
        for track in &mut self.tracks {
            track.queries.sort_unstable();
        }
    }

    /// Applies the reads of the open entry's instructions
    /// `applied..upto` and the writes of `applied..writes`.
    fn apply(&mut self, open: Open, upto: usize, writes: usize) {
        debug_assert!(self.applied <= writes && writes <= upto);
        let events = &self.walk.translation(open.translation).record;
        let range = |list: &[(usize, usize)], upto: usize| {
            let lo = list.partition_point(|&(j, _)| j < self.applied);
            lo..list.partition_point(|&(j, _)| j < upto)
        };
        let stamp = |j: usize| open.instret + j as u64 + 1;
        for &(j, track) in &events.reads[range(&events.reads, upto)] {
            self.tracks[track].on_read(stamp(j), &mut self.results);
        }
        for &(j, track) in &events.writes[range(&events.writes, writes)] {
            self.tracks[track].on_write(stamp(j), &mut self.results);
        }
        self.applied = upto;
    }

    /// Applies the rest of a closed entry's events. An instruction that
    /// raised read its operands and fetch bytes but wrote no register,
    /// except a jump, which writes its link register before its
    /// misaligned target traps.
    fn close(&mut self, closed: Option<Closed>) {
        if let Some(c) = closed {
            let insns = &self.walk.translation(c.open.translation).insns;
            let wrote = !c.raised || insns[c.executed - 1].1.kind().is_jump();
            self.apply(c.open, c.executed, c.executed - usize::from(!wrote));
        }
        self.applied = 0;
    }

    /// Closes the entry still open when the replay stopped at `instret`.
    fn finish(&mut self, instret: u64) {
        let closed = self.walk.last(instret);
        self.close(closed);
    }
}

impl Plugin for DefUsePlugin {
    fn on_block_translated(&mut self, block: &BlockInfo<'_>) {
        let watches = &self.watches;
        self.walk.translated(block, |insns| watches.events(insns));
    }

    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        !self.watches.mem.is_empty()
            && block
                .insns
                .iter()
                .any(|(_, insn)| insn.kind().is_load() || insn.kind().is_store())
    }

    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        for entry in entries {
            let closed = self.walk.enter(entry);
            self.close(closed);
        }
    }

    fn on_mem_access(&mut self, cpu: &Cpu, access: &MemAccess) {
        if self.watches.mem.is_empty() {
            return;
        }
        // Mid-instruction: the accessing instruction (stamp `k`, index
        // `k - 1 - instret` at entry) has not retired. Its own reads
        // and writes wait for the entry's close; events before it keep
        // every track in stamp order.
        let stamp = cpu.instret() + 1;
        if let Some(open) = self.walk.open() {
            let before = (stamp - 1 - open.instret) as usize;
            self.apply(open, before, before);
        }
        for addr in access.addr..access.addr.wrapping_add(u32::from(access.size)) {
            if let Some(&track) = self.watches.mem.get(&addr) {
                if access.is_store {
                    self.tracks[track].on_write(stamp, &mut self.results);
                } else {
                    self.tracks[track].on_read(stamp, &mut self.results);
                }
            }
        }
    }

    fn on_trap(&mut self, cpu: &Cpu, trap: &Trap) {
        let closed = self.walk.trap(cpu, trap);
        self.close(closed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, GOLDEN_INSN_LIMIT};
    use crate::test_programs::{
        campaigns, interpreter_vp, programs, JUMP_TRAP_PROGRAM, LOOP_PROGRAM, SMC_PROGRAM,
        TIMER_PROGRAM, TRAP_PROGRAM, UART_PROGRAM, WORK_PROGRAM,
    };
    use s4e_asm::assemble;
    use s4e_isa::{Gpr, IsaConfig};
    use s4e_vp::{DispatchStats, Vp};

    /// The per-instruction recorder the block-event [`DefUsePlugin`]
    /// replaced, kept as its oracle, with the same rule for an
    /// instruction that raises: it writes no register unless it is a
    /// jump.
    #[derive(Debug)]
    struct InsnDefUsePlugin {
        gpr: [Option<Box<LocTrack>>; 32],
        fpr: [Option<Box<LocTrack>>; 32],
        mem: HashMap<u32, LocTrack>,
        results: Vec<(Option<u64>, Option<u64>)>,
        /// `instret` after the most recent retired-instruction event —
        /// distinguishes retired notifications from trap notifications.
        prev_instret: u64,
    }

    impl InsnDefUsePlugin {
        fn new(queries: usize) -> InsnDefUsePlugin {
            InsnDefUsePlugin {
                gpr: std::array::from_fn(|_| None),
                fpr: std::array::from_fn(|_| None),
                mem: HashMap::new(),
                results: vec![(None, None); queries],
                prev_instret: 0,
            }
        }

        fn watch(&mut self, loc: Loc, t: u64, qid: usize) {
            let track = match loc {
                Loc::Gpr(i) => self.gpr[i as usize].get_or_insert_with(Default::default),
                Loc::Fpr(i) => self.fpr[i as usize].get_or_insert_with(Default::default),
                Loc::Mem(addr) => self.mem.entry(addr).or_default(),
            };
            track.queries.push((t, qid));
        }

        fn sort_watches(&mut self) {
            for track in self
                .gpr
                .iter_mut()
                .chain(self.fpr.iter_mut())
                .flatten()
                .map(Box::as_mut)
                .chain(self.mem.values_mut())
            {
                track.queries.sort_unstable();
            }
        }
    }

    impl Plugin for InsnDefUsePlugin {
        fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {
            let retired = cpu.instret() > self.prev_instret;
            let stamp = if retired {
                self.prev_instret = cpu.instret();
                cpu.instret()
            } else {
                // Trap path: notified without retiring.
                cpu.instret() + 1
            };
            // A raised instruction wrote no register, except a jump's
            // link register (written before its misaligned target
            // traps).
            let wrote = retired || insn.kind().is_jump();
            if !self.mem.is_empty() {
                for addr in pc..pc.wrapping_add(u32::from(insn.len())) {
                    if let Some(track) = self.mem.get_mut(&addr) {
                        track.on_read(stamp, &mut self.results);
                    }
                }
            }
            let uses = insn.reg_uses();
            for reg in uses.gprs_read() {
                if let Some(track) = &mut self.gpr[reg.index() as usize] {
                    track.on_read(stamp, &mut self.results);
                }
            }
            for reg in uses.fprs_read() {
                if let Some(track) = &mut self.fpr[reg.index() as usize] {
                    track.on_read(stamp, &mut self.results);
                }
            }
            if !wrote {
                return;
            }
            if let Some(reg) = uses.effective_gpr_written() {
                if let Some(track) = &mut self.gpr[reg.index() as usize] {
                    track.on_write(stamp, &mut self.results);
                }
            }
            if let Some(reg) = uses.fpr_written {
                if let Some(track) = &mut self.fpr[reg.index() as usize] {
                    track.on_write(stamp, &mut self.results);
                }
            }
        }

        fn on_mem_access(&mut self, cpu: &Cpu, access: &MemAccess) {
            if self.mem.is_empty() {
                return;
            }
            // Mid-instruction: the accessing instruction has not retired.
            let stamp = cpu.instret() + 1;
            for addr in access.addr..access.addr.wrapping_add(u32::from(access.size)) {
                if let Some(track) = self.mem.get_mut(&addr) {
                    if access.is_store {
                        track.on_write(stamp, &mut self.results);
                    } else {
                        track.on_read(stamp, &mut self.results);
                    }
                }
            }
        }
    }

    type Results = Vec<(Option<u64>, Option<u64>)>;

    /// `(location, injection time)` watches over `campaign`'s golden
    /// run: every GPR but `x0` and every FPR at times spread over the
    /// run, and with `memory` every executed code byte and written byte.
    fn watches(campaign: &Campaign, memory: bool) -> Vec<(Loc, u64)> {
        let golden = campaign.golden();
        let n = golden.instret();
        let mut out = Vec::new();
        for t in [0, 1, n / 7, n / 3, n / 2, n - n / 5, n.saturating_sub(2)] {
            out.extend((1..32).map(|i| (Loc::Gpr(i), t)));
            out.extend((0..32).map(|i| (Loc::Fpr(i), t)));
            if memory {
                let trace = golden.trace();
                let code = trace.executed_pcs.iter().flat_map(|&pc| pc..pc + 4);
                let data = trace.written_bytes.iter().copied();
                out.extend(code.chain(data).map(|addr| (Loc::Mem(addr), t)));
            }
        }
        out
    }

    /// The block-event replay's results on `vp`, and its dispatch stats.
    fn replay(mut vp: Vp, watches: &[(Loc, u64)]) -> (Results, DispatchStats) {
        let mut plugin = DefUsePlugin::new(watches.len());
        for (qid, &(loc, t)) in watches.iter().enumerate() {
            plugin.watch(loc, t, qid);
        }
        plugin.sort_watches();
        vp.add_plugin(Box::new(plugin));
        vp.run_for(GOLDEN_INSN_LIMIT);
        let instret = vp.cpu().instret();
        let stats = vp.dispatch_stats();
        let plugin = vp.plugin_mut::<DefUsePlugin>().expect("attached");
        plugin.finish(instret);
        (plugin.results.clone(), stats)
    }

    /// The oracle's results on `campaign`'s golden run.
    fn oracle(campaign: &Campaign, watches: &[(Loc, u64)]) -> Results {
        let mut plugin = InsnDefUsePlugin::new(watches.len());
        for (qid, &(loc, t)) in watches.iter().enumerate() {
            plugin.watch(loc, t, qid);
        }
        plugin.sort_watches();
        let mut vp = campaign.loaded_vp();
        vp.add_plugin(Box::new(plugin));
        vp.run_for(GOLDEN_INSN_LIMIT);
        let plugin = vp.plugin::<InsnDefUsePlugin>().expect("attached");
        plugin.results.clone()
    }

    #[test]
    fn def_use_matches_the_per_instruction_oracle() {
        for (name, source, isa) in programs() {
            for campaign in campaigns(&source, isa) {
                for memory in [false, true] {
                    let watches = watches(&campaign, memory);
                    let (results, _) = replay(campaign.loaded_vp(), &watches);
                    let jit = campaign.config().jit;
                    assert_eq!(
                        results,
                        oracle(&campaign, &watches),
                        "{name}, jit {jit}, memory {memory}"
                    );
                }
            }
        }
    }

    #[test]
    fn uncached_interpreter_def_use_matches() {
        let isa = IsaConfig::rv32imc();
        for source in [
            WORK_PROGRAM,
            LOOP_PROGRAM,
            TRAP_PROGRAM,
            TIMER_PROGRAM,
            SMC_PROGRAM,
            UART_PROGRAM,
        ] {
            let [campaign, _] = campaigns(source, isa);
            let watches = watches(&campaign, true);
            let (results, _) = replay(interpreter_vp(source, isa), &watches);
            assert_eq!(results, oracle(&campaign, &watches));
        }
    }

    #[test]
    fn register_only_replay_retires_natively() {
        let [campaign, _] = campaigns(LOOP_PROGRAM, IsaConfig::rv32imc());
        let n = campaign.golden().instret();
        let specs: Vec<FaultSpec> = (1..32)
            .map(|i| FaultSpec {
                target: FaultTarget::GprBit {
                    reg: Gpr::new(i).expect("a GPR"),
                    bit: 3,
                },
                kind: FaultKind::Transient { at_insn: n / 2 },
            })
            .collect();
        let replay = PrunePlan::build(&campaign, &specs).replay();
        assert_eq!((replay.queries, replay.mem_watches), (31, 0));
        assert_eq!(replay.retired, n);
        assert!(
            replay.jit_retired * 10 >= replay.retired * 9,
            "{} of {} native",
            replay.jit_retired,
            replay.retired
        );
    }

    #[test]
    fn replay_outlasts_a_trap_heavy_golden_run() {
        // The budget counts the 240 instructions that trap as well: a
        // replay budgeted by the golden run's retired count stopped
        // before the final store reads `a0`, and this flip then pruned
        // as never read.
        let [campaign, _] = campaigns(TRAP_PROGRAM, IsaConfig::rv32imc());
        let n = campaign.golden().instret();
        let spec = FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::A0,
                bit: 0,
            },
            kind: FaultKind::Transient { at_insn: n - 4 },
        };
        let plan = PrunePlan::build(&campaign, &[spec]);
        assert_eq!(plan.replay().retired, n);
        assert_eq!(plan.verdict(0), None, "the final store reads a0");
    }

    /// `specs` swept over `source` with pruning on and then off.
    fn pruned_and_executed(
        source: &str,
        isa: IsaConfig,
        specs: &[FaultSpec],
    ) -> [Vec<FaultOutcome>; 2] {
        let img = assemble(source).expect("assembles");
        [true, false].map(|prune| {
            let config = CampaignConfig::new().isa(isa).prune(prune);
            let campaign =
                Campaign::prepare(img.base(), img.bytes(), img.entry(), &config).expect("prepares");
            let report = campaign.run_all(specs);
            report.results().iter().map(|r| r.outcome).collect()
        })
    }

    fn flip(reg: Gpr, bit: u8, at_insn: u64) -> FaultSpec {
        FaultSpec {
            target: FaultTarget::GprBit { reg, bit },
            kind: FaultKind::Transient { at_insn },
        }
    }

    #[test]
    fn a_trapping_load_writes_no_register() {
        // Instruction 9 is `lw a2, 1(a1)`, misaligned: it traps to the
        // skip handler and leaves `a2` as it was, so a flip of `a2`
        // just before it is read by the `add` that follows.
        let spec = flip(Gpr::new(12).expect("a2"), 1, 8);
        let [pruned, executed] = pruned_and_executed(TRAP_PROGRAM, IsaConfig::rv32imc(), &[spec]);
        assert_eq!(executed, [FaultOutcome::SilentCorruption]);
        assert_eq!(pruned, executed);
    }

    #[test]
    fn a_trapping_jump_still_writes_its_link_register() {
        // Instruction 9 is `jalr ra, 0(t1)` to a misaligned target: it
        // traps, but writes `ra` first, erasing a flip injected just
        // before it. Nothing reads `ra`, so a replay that dropped the
        // write would find the flip never accessed.
        let spec = flip(Gpr::RA, 4, 8);
        let [pruned, executed] =
            pruned_and_executed(JUMP_TRAP_PROGRAM, IsaConfig::rv32im(), &[spec]);
        assert_eq!(executed, [FaultOutcome::Masked]);
        assert_eq!(pruned, executed);
    }

    #[test]
    fn fetch_fault_loops_time_out_at_the_budget() {
        // `t0` stuck at 1 on bit 7 or 17 points `mtvec` at an
        // undecodable word, and time-zero flips of these code bytes
        // make an undecodable trap vector or entry: each mutant traps
        // at fetch forever. The budget ends them all as Timeout, with
        // no wall-clock watchdog, deterministically. (The generator
        // emits the last spec twice; the repeat shares its verdict.)
        let stuck = |bit| FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::new(5).expect("t0"),
                bit,
            },
            kind: FaultKind::StuckAt { value: true },
        };
        let code = |addr, bit| FaultSpec {
            target: FaultTarget::MemBit { addr, bit },
            kind: FaultKind::Transient { at_insn: 0 },
        };
        let specs = [
            stuck(7),
            stuck(17),
            code(0x8000_0001, 1),
            code(0x8000_0001, 7),
            code(0x8000_0001, 6),
            code(0x8000_0003, 7),
            code(0x8000_0002, 6),
            code(0x8000_0058, 2),
            code(0x8000_0058, 2),
        ];
        for _ in 0..2 {
            for outcomes in pruned_and_executed(TRAP_PROGRAM, IsaConfig::rv32imc(), &specs) {
                assert_eq!(outcomes, [FaultOutcome::Timeout; 9]);
            }
        }
    }
}
