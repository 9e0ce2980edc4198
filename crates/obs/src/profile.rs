//! The hot-block profiler: a [`Plugin`] counting per-block executions,
//! per-instruction-kind retirement, memory/device traffic and trap rates
//! — the QTA paper's TCG-plugin instrumentation layer, reproduced on the
//! VP's hook API.
//!
//! Every event costs a handful of relaxed atomic adds (the block-entry
//! path adds one `HashMap` probe to find the block's counters). The
//! plugin subscribes every block to instruction events, which keeps
//! them all off the template JIT; `figure2_perf`'s profile row measures
//! the cost against the default builder.

use crate::metrics::{Counter, MetricsRegistry};
use crate::names;
use crate::snapshot::Snapshot;
use s4e_isa::{CKind, Insn, InsnClass, InsnKind};
use s4e_vp::{BlockEntry, BlockInfo, Cpu, DeviceAccess, MemAccess, Plugin, Trap};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-translated-block counters.
#[derive(Debug)]
struct BlockCounters {
    /// Times the block was entered.
    execs: Arc<Counter>,
    /// Instructions observed while this block was current.
    insns: Arc<Counter>,
    /// Static instruction count of the block (latest translation).
    len: u32,
}

/// One row of the hot-block table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// Block start address.
    pub start_pc: u32,
    /// Static instruction count (latest translation).
    pub len: u32,
    /// Times the block was entered.
    pub execs: u64,
    /// Instructions retired while the block was current — the
    /// retired-instruction weight that ranks the table.
    pub insns: u64,
}

/// The execution profiler plugin.
///
/// # Examples
///
/// ```
/// use s4e_asm::assemble;
/// use s4e_isa::IsaConfig;
/// use s4e_obs::ProfilePlugin;
/// use s4e_vp::Vp;
///
/// let img = assemble("li t0, 9\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak")?;
/// let mut vp = Vp::new(IsaConfig::rv32imc());
/// vp.load(img.base(), img.bytes())?;
/// vp.add_plugin(Box::new(ProfilePlugin::new()));
/// vp.run();
/// let profile = vp.plugin::<ProfilePlugin>().unwrap();
/// assert_eq!(profile.insns_observed(), vp.cpu().instret());
/// println!("{}", profile.hot_block_table(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProfilePlugin {
    registry: Arc<MetricsRegistry>,
    insns_total: Arc<Counter>,
    blocks_translated: Arc<Counter>,
    block_execs_total: Arc<Counter>,
    classes: Vec<Arc<Counter>>,
    kinds: Vec<Arc<Counter>>,
    ckinds: Vec<Arc<Counter>>,
    mem_reads: Arc<Counter>,
    mem_writes: Arc<Counter>,
    dev_reads: Arc<Counter>,
    dev_writes: Arc<Counter>,
    traps_total: Arc<Counter>,
    trap_causes: HashMap<u32, Arc<Counter>>,
    blocks: HashMap<u32, BlockCounters>,
    current: Option<Arc<Counter>>,
}

impl Default for ProfilePlugin {
    fn default() -> ProfilePlugin {
        ProfilePlugin::new()
    }
}

impl ProfilePlugin {
    /// A profiler with its own private registry.
    pub fn new() -> ProfilePlugin {
        ProfilePlugin::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A profiler recording into a shared registry — share the `Arc` with
    /// a progress ticker or other subsystems so one snapshot covers
    /// everything. Per-kind counters are registered eagerly so the
    /// snapshot always carries the full instruction universe (uncovered
    /// kinds show as zero — what coverage-from-profile needs).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> ProfilePlugin {
        let classes = InsnClass::ALL
            .iter()
            .map(|c| registry.counter(&names::insn_class(*c)))
            .collect();
        let kinds = InsnKind::ALL
            .iter()
            .map(|k| registry.counter(&names::insn_kind(*k)))
            .collect();
        let ckinds = CKind::ALL
            .iter()
            .map(|k| registry.counter(&names::insn_ckind(*k)))
            .collect();
        ProfilePlugin {
            insns_total: registry.counter(names::INSN_RETIRED),
            blocks_translated: registry.counter(names::BLOCKS_TRANSLATED),
            block_execs_total: registry.counter(names::BLOCK_EXECS),
            classes,
            kinds,
            ckinds,
            mem_reads: registry.counter(names::MEM_READS),
            mem_writes: registry.counter(names::MEM_WRITES),
            dev_reads: registry.counter(names::DEV_READS),
            dev_writes: registry.counter(names::DEV_WRITES),
            traps_total: registry.counter(names::TRAPS),
            trap_causes: HashMap::new(),
            blocks: HashMap::new(),
            current: None,
            registry,
        }
    }

    /// The registry this profiler records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Instructions observed (retired instructions, plus instructions
    /// that trapped instead of retiring — the TCG pre-exec view).
    pub fn insns_observed(&self) -> u64 {
        self.insns_total.value()
    }

    /// Per-block execution counts, keyed by block start address — the
    /// overlay input for
    /// [`program_to_dot_annotated`](../s4e_cfg/fn.program_to_dot_annotated.html).
    pub fn block_exec_counts(&self) -> BTreeMap<u32, u64> {
        self.blocks
            .iter()
            .map(|(&pc, c)| (pc, c.execs.value()))
            .collect()
    }

    /// Every profiled block, ranked by retired-instruction weight
    /// (descending), ties broken by address.
    pub fn hot_blocks(&self) -> Vec<HotBlock> {
        let mut rows: Vec<HotBlock> = self
            .blocks
            .iter()
            .map(|(&pc, c)| HotBlock {
                start_pc: pc,
                len: c.len,
                execs: c.execs.value(),
                insns: c.insns.value(),
            })
            .filter(|r| r.execs > 0)
            .collect();
        rows.sort_by(|a, b| b.insns.cmp(&a.insns).then(a.start_pc.cmp(&b.start_pc)));
        rows
    }

    /// Renders the hot-block table: the top `limit` blocks by retired
    /// instructions, with a footer totalling the block-attributed
    /// instruction count (which equals the VP's retired instructions on
    /// trap-free runs).
    pub fn hot_block_table(&self, limit: usize) -> String {
        let rows = self.hot_blocks();
        let total: u64 = rows.iter().map(|r| r.insns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hot blocks (top {} of {} by retired instructions):",
            limit.min(rows.len()),
            rows.len()
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>5} {:>12} {:>7}",
            "block", "execs", "len", "insns", "share"
        );
        for row in rows.iter().take(limit) {
            let share = row.insns as f64 * 100.0 / total.max(1) as f64;
            let _ = writeln!(
                out,
                "  {:#010x}   {:>10} {:>5} {:>12} {:>6.1}%",
                row.start_pc, row.execs, row.len, row.insns, share
            );
        }
        let _ = writeln!(out, "  block-attributed insns: {total}");
        out
    }
}

impl Plugin for ProfilePlugin {
    fn on_block_translated(&mut self, block: &BlockInfo<'_>) {
        self.blocks_translated.inc();
        let len = block.insns.len() as u32;
        match self.blocks.get_mut(&block.start_pc) {
            Some(counters) => counters.len = len, // retranslated (cache flush / SMC)
            None => {
                let pc = block.start_pc;
                self.blocks.insert(
                    pc,
                    BlockCounters {
                        execs: self.registry.counter(&names::block_execs(pc)),
                        insns: self.registry.counter(&names::block_insns(pc)),
                        len,
                    },
                );
            }
        }
    }

    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        for entry in entries {
            let start_pc = entry.pc;
            self.block_execs_total.inc();
            // Blocks are translated before they first execute, so the
            // probe hits except when a cache flush raced a re-entry;
            // register then.
            if !self.blocks.contains_key(&start_pc) {
                self.blocks.insert(
                    start_pc,
                    BlockCounters {
                        execs: self.registry.counter(&names::block_execs(start_pc)),
                        insns: self.registry.counter(&names::block_insns(start_pc)),
                        len: 0,
                    },
                );
            }
            let counters = self.blocks.get(&start_pc).expect("inserted above");
            counters.execs.inc();
            self.current = Some(Arc::clone(&counters.insns));
        }
    }

    fn on_insn_executed(&mut self, _cpu: &Cpu, _pc: u32, insn: &Insn) {
        self.insns_total.inc();
        let kind = insn.kind();
        self.classes[kind.class() as usize].inc();
        self.kinds[kind as usize].inc();
        if let Some(ck) = insn.ckind() {
            self.ckinds[ck as usize].inc();
        }
        if let Some(current) = &self.current {
            current.inc();
        }
    }

    fn on_mem_access(&mut self, _cpu: &Cpu, access: &MemAccess) {
        if access.is_store {
            self.mem_writes.inc();
        } else {
            self.mem_reads.inc();
        }
    }

    fn on_device_access(&mut self, _cpu: &Cpu, access: &DeviceAccess) {
        if access.is_store {
            self.dev_writes.inc();
        } else {
            self.dev_reads.inc();
        }
    }

    fn on_trap(&mut self, _cpu: &Cpu, trap: &Trap) {
        self.traps_total.inc();
        let cause = trap.mcause();
        match self.trap_causes.get(&cause) {
            Some(counter) => counter.inc(),
            None => {
                let counter = self.registry.counter(&names::trap_cause(cause));
                counter.inc();
                self.trap_causes.insert(cause, counter);
            }
        }
    }
}
