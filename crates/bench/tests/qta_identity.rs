//! The QTA differential: [`QtaPlugin`], which accounts annotated block
//! entries on block events, against the per-instruction algorithm it
//! replaced, kept verbatim below as [`ReferenceQta`].
//!
//! The reference runs on the uncached interpreter (`block_cache(false)`);
//! the plugin runs on the interpreter, the micro-op engine (`jit(false)`),
//! the default builder and the template JIT with every block promoted
//! at once (`jit_threshold(1)`), where its unsubscribed blocks run
//! natively and native code writes their block events. Every run must
//! report the same outcome,
//! cycles, instret, QTA path cycles, visits, loop-bound violations,
//! unmapped instructions and flushed metrics snapshot, unsliced, sliced
//! into `run_for(k)` pieces, and split once. The programs are F1's six
//! kernels, the `qta-cosim` kernels at small sizes, looping torture
//! programs, and directed programs for traps, timer interrupts and
//! `wfi`.

use s4e_bench::kernels::{self, wcet_benchmarks, Kernel};
use s4e_bench::{build, wcet_options_for};
use s4e_core::{BoundViolation, QtaPlugin, QtaSession};
use s4e_isa::{Insn, IsaConfig};
use s4e_obs::{names, Counter, Histogram, MetricsRegistry, Snapshot};
use s4e_torture::{torture_program, TortureConfig};
use s4e_vp::{
    BlockEntry, BlockInfo, Cpu, DeviceAccess, MemAccess, Plugin, RunOutcome, TimingModel, Trap, Vp,
    VpBuilder,
};
use s4e_wcet::{TimedCfg, WcetOptions};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The per-instruction QTA plugin, verbatim: every executed instruction
/// probes the annotated graph for a block start, and an entry is stamped
/// with the cycle count after the previously notified instruction. It
/// declares no block starts, so its VP cuts blocks as without QTA; the
/// directed programs below take every interrupt on the same instruction
/// either way.
#[derive(Debug)]
struct ReferenceQta {
    cfg: TimedCfg,
    registry: Arc<MetricsRegistry>,
    worst_case_cycles: u64,
    visits: BTreeMap<u32, u64>,
    iteration_counts: BTreeMap<u32, u64>,
    violations: Vec<BoundViolation>,
    last_block: Option<u32>,
    unmapped_insns: u64,
    block_cycles: BTreeMap<u32, Arc<Histogram>>,
    slack_cycles: Arc<Histogram>,
    overruns: Arc<Counter>,
    pending: Option<PendingEntry>,
    last_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    pc: u32,
    cycles: u64,
}

impl ReferenceQta {
    fn new(cfg: TimedCfg) -> ReferenceQta {
        let registry = Arc::new(MetricsRegistry::new());
        ReferenceQta {
            cfg,
            slack_cycles: registry.histogram(names::QTA_SLACK),
            overruns: registry.counter(names::QTA_OVERRUNS),
            registry,
            worst_case_cycles: 0,
            visits: BTreeMap::new(),
            iteration_counts: BTreeMap::new(),
            violations: Vec::new(),
            last_block: None,
            unmapped_insns: 0,
            block_cycles: BTreeMap::new(),
            pending: None,
            last_cycles: 0,
        }
    }

    fn flush(&mut self, final_cycles: u64) {
        self.account(final_cycles);
    }

    fn account(&mut self, next_cycles: u64) {
        let Some(prev) = self.pending.take() else {
            return;
        };
        let observed = next_cycles.saturating_sub(prev.cycles);
        let hist = match self.block_cycles.get(&prev.pc) {
            Some(h) => Arc::clone(h),
            None => {
                let h = self.registry.histogram(&names::qta_block_cycles(prev.pc));
                self.block_cycles.insert(prev.pc, Arc::clone(&h));
                h
            }
        };
        hist.record(observed);
        let wcet = self.cfg.block(prev.pc).map_or(0, |b| b.wcet);
        if observed > wcet {
            self.overruns.inc();
        }
        self.slack_cycles.record(wcet.saturating_sub(observed));
    }
}

impl Plugin for ReferenceQta {
    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, _insn: &Insn) {
        // Block entry: the PC sits exactly on an annotated block start.
        if self.cfg.block(pc).is_some() {
            let entry_cycles = self.last_cycles;
            self.account(entry_cycles);
            self.pending = Some(PendingEntry {
                pc,
                cycles: entry_cycles,
            });
            let block = self.cfg.block(pc).expect("looked up above");
            self.worst_case_cycles += block.wcet;
            *self.visits.entry(pc).or_insert(0) += 1;
            if let Some(bound) = block.loop_bound {
                let from_latch = self
                    .last_block
                    .is_some_and(|lb| block.latches.contains(&lb));
                let count = self.iteration_counts.entry(pc).or_insert(0);
                if from_latch {
                    *count += 1;
                } else {
                    *count = 1;
                }
                if *count == bound + 1 {
                    self.violations.push(BoundViolation {
                        header: pc,
                        bound,
                        observed: *count,
                    });
                }
            }
            self.last_block = Some(pc);
        } else if self.cfg.block_containing(pc).is_none() {
            self.unmapped_insns += 1;
        }
        self.last_cycles = cpu.cycles();
    }
}

/// [`QtaPlugin`] behind a count of the instruction events the VP
/// delivers to it, which only the blocks it subscribes may deliver.
#[derive(Debug)]
struct Counted {
    qta: QtaPlugin,
    insn_events: u64,
}

impl Plugin for Counted {
    fn block_starts(&self) -> Vec<u32> {
        self.qta.block_starts()
    }
    fn on_block_translated(&mut self, block: &BlockInfo<'_>) {
        self.qta.on_block_translated(block);
    }
    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        self.qta.on_block_executed(entries);
    }
    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        self.qta.wants_insn_events(block)
    }
    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {
        self.insn_events += 1;
        self.qta.on_insn_executed(cpu, pc, insn);
    }
    fn on_mem_access(&mut self, cpu: &Cpu, access: &MemAccess) {
        self.qta.on_mem_access(cpu, access);
    }
    fn on_device_access(&mut self, cpu: &Cpu, access: &DeviceAccess) {
        self.qta.on_device_access(cpu, access);
    }
    fn on_trap(&mut self, cpu: &Cpu, trap: &Trap) {
        self.qta.on_trap(cpu, trap);
    }
}

/// Everything the differential compares.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    cycles: u64,
    instret: u64,
    qta_cycles: u64,
    visits: BTreeMap<u32, u64>,
    violations: Vec<BoundViolation>,
    unmapped_insns: u64,
    metrics: String,
}

/// How a run is driven to its end.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    Unsliced,
    /// `run_for(k)` until the run ends.
    Sliced(u64),
    /// `run_for(n)` once, then to the end.
    SplitAt(u64),
}

const SCHEDULES: [Schedule; 5] = [
    Schedule::Unsliced,
    Schedule::Sliced(1),
    Schedule::Sliced(7),
    Schedule::Sliced(64),
    Schedule::SplitAt(1_000),
];

fn drive(vp: &mut Vp, schedule: Schedule) -> RunOutcome {
    match schedule {
        Schedule::Unsliced => vp.run(),
        Schedule::Sliced(k) => loop {
            let outcome = vp.run_for(k);
            if outcome != RunOutcome::InsnLimit {
                break outcome;
            }
            assert!(vp.cpu().instret() < 10_000_000, "runaway program");
        },
        Schedule::SplitAt(n) => match vp.run_for(n) {
            RunOutcome::InsnLimit => vp.run(),
            outcome => outcome,
        },
    }
}

/// One co-simulated program: its image, annotated graph and timing.
struct Case {
    name: String,
    image: s4e_asm::Image,
    isa: IsaConfig,
    timing: TimingModel,
    cfg: TimedCfg,
}

impl Case {
    fn prepare(name: String, image: s4e_asm::Image, isa: IsaConfig, options: &WcetOptions) -> Case {
        let session = QtaSession::prepare(image.base(), image.bytes(), image.entry(), isa, options)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        Case {
            name,
            image,
            isa,
            timing: options.timing.clone(),
            cfg: session.timed_cfg().clone(),
        }
    }

    fn kernel(kernel: &Kernel, isa: IsaConfig) -> Case {
        let image = build(&kernel.source, isa);
        let options = wcet_options_for(kernel, &image);
        Case::prepare(kernel.name.to_string(), image, isa, &options)
    }

    fn vp(&self, builder: VpBuilder, plugin: Box<dyn Plugin>) -> Vp {
        let mut vp = builder.isa(self.isa).timing(self.timing.clone()).build();
        vp.load(self.image.base(), self.image.bytes())
            .expect("program fits RAM");
        vp.cpu_mut().set_pc(self.image.entry());
        vp.add_plugin(plugin);
        vp
    }

    fn reference(&self, schedule: Schedule) -> Observed {
        let plugin = Box::new(ReferenceQta::new(self.cfg.clone()));
        let mut vp = self.vp(Vp::builder().block_cache(false), plugin);
        let outcome = drive(&mut vp, schedule);
        let (cycles, instret) = (vp.cpu().cycles(), vp.cpu().instret());
        let qta = vp.plugin_mut::<ReferenceQta>().expect("attached");
        qta.flush(cycles);
        Observed {
            outcome,
            cycles,
            instret,
            qta_cycles: qta.worst_case_cycles,
            visits: qta.visits.clone(),
            violations: qta.violations.clone(),
            unmapped_insns: qta.unmapped_insns,
            metrics: qta.registry.snapshot().to_json(),
        }
    }

    /// Runs [`QtaPlugin`]; also returns the instruction events it got
    /// and the block entries the VP ran natively.
    fn block_events(&self, builder: VpBuilder, schedule: Schedule) -> (Observed, u64, u64) {
        let plugin = Box::new(Counted {
            qta: QtaPlugin::new(self.cfg.clone()),
            insn_events: 0,
        });
        let mut vp = self.vp(builder, plugin);
        let outcome = drive(&mut vp, schedule);
        let (cycles, instret) = (vp.cpu().cycles(), vp.cpu().instret());
        let native = vp.dispatch_stats().jit_exec;
        let counted = vp.plugin_mut::<Counted>().expect("attached");
        let qta = &mut counted.qta;
        qta.flush(cycles);
        let observed = Observed {
            outcome,
            cycles,
            instret,
            qta_cycles: qta.worst_case_cycles(),
            visits: qta.visits(),
            violations: qta.violations().to_vec(),
            unmapped_insns: qta.unmapped_insns(),
            metrics: qta.snapshot().to_json(),
        };
        (observed, counted.insn_events, native)
    }

    /// Checks every tier and schedule against the reference, and that
    /// each run delivers the plugin the same number of instruction
    /// events. Returns the unsliced reference run, that number, and the
    /// block entries the `jit_threshold(1)` tier ran natively over all
    /// schedules.
    fn check(&self) -> (Observed, u64, u64) {
        let tiers = [
            ("block_cache(false)", Vp::builder().block_cache(false)),
            ("jit(false)", Vp::builder().jit(false)),
            ("default", Vp::builder()),
            ("jit_threshold(1)", Vp::builder().jit_threshold(1)),
        ];
        let mut unsliced = None;
        let mut events = None;
        let mut native = 0;
        for schedule in SCHEDULES {
            let want = self.reference(schedule);
            for (tier, builder) in &tiers {
                let (got, got_events, got_native) = self.block_events(builder.clone(), schedule);
                assert_eq!(got, want, "{}: {tier}, {schedule:?}", self.name);
                let first = *events.get_or_insert(got_events);
                assert_eq!(
                    got_events, first,
                    "{}: instruction events on {tier}, {schedule:?}",
                    self.name
                );
                if *tier == "jit_threshold(1)" {
                    native += got_native;
                }
            }
            unsliced.get_or_insert(want);
        }
        (
            unsliced.expect("at least one schedule"),
            events.expect("at least one run"),
            native,
        )
    }
}

// Programs without `wfi` subscribe only their unmapped blocks, so the
// plugin gets exactly one instruction event per unmapped instruction.

#[test]
fn f1_kernels_match_the_per_instruction_reference() {
    for kernel in wcet_benchmarks() {
        let (run, insn_events, native) = Case::kernel(&kernel, IsaConfig::full()).check();
        assert_eq!(run.outcome, RunOutcome::Break, "{}", kernel.name);
        assert!(!run.visits.is_empty(), "{}", kernel.name);
        assert_eq!(insn_events, run.unmapped_insns, "{}", kernel.name);
        assert!(native > 0, "{}: no native block entries", kernel.name);
    }
}

#[test]
fn benchmark_kernels_match_the_per_instruction_reference() {
    for kernel in [
        kernels::state_machine(300),
        kernels::matmul(5),
        kernels::crc32(96),
    ] {
        let (run, insn_events, native) = Case::kernel(&kernel, IsaConfig::rv32imc()).check();
        assert_eq!(run.outcome, RunOutcome::Break, "{}", kernel.name);
        assert_eq!(insn_events, run.unmapped_insns, "{}", kernel.name);
        assert!(native > 0, "{}: no native block entries", kernel.name);
    }
}

#[test]
fn torture_programs_match_the_per_instruction_reference() {
    let isa = IsaConfig::rv32imfc();
    let mut native = 0;
    for seed in 0..64u64 {
        let cfg = TortureConfig::new(0x9_7a5e_0000 + seed)
            .insns(120)
            .isa(isa)
            .with_loops(true)
            .mem_heavy(seed % 2 == 1);
        let program = torture_program(&cfg);
        let image = build(&program.source, isa);
        let case = Case::prepare(format!("torture {seed}"), image, isa, &WcetOptions::new());
        let (run, insn_events, case_native) = case.check();
        assert_eq!(run.outcome, RunOutcome::Break, "{}", case.name);
        assert_eq!(insn_events, run.unmapped_insns, "{}", case.name);
        native += case_native;
    }
    assert!(native > 0, "no torture block ran natively");
}

/// Prepares a directed program with default analysis options.
fn directed(name: &str, src: &str) -> Case {
    let isa = IsaConfig::full();
    Case::prepare(name.to_string(), build(src, isa), isa, &WcetOptions::new())
}

/// An `ecall` handler the CFG never sees: its five instructions run
/// unmapped six times, and `mret` resumes at an annotated start.
const ECALL_HANDLER: &str = r#"
    la t0, handler
    csrw mtvec, t0
    li s0, 6
loop:
    beqz s0, resume         # never taken: `resume` starts a block
    ecall
resume:
    addi s0, s0, -1
    bnez s0, loop
    ebreak
handler:
    csrr t1, mepc
    addi t1, t1, 4
    csrw mepc, t1
    addi a0, a0, 1
    mret
"#;

/// A periodic machine timer whose handler re-arms `mtimecmp` 97 cycles
/// ahead while a counted loop works: each tick's handler cycles are
/// charged to the interrupted annotated block.
const PERIODIC_TIMER: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li s0, CLINT + 0x4000   # mtimecmp
    li s1, CLINT + 0xbff8   # mtime
    lw t1, 0(s1)
    addi t1, t1, 97
    sw zero, 4(s0)
    sw t1, 0(s0)
    li t3, 128              # MTIE
    csrw mie, t3
    csrsi mstatus, 8
    li t0, 300
work:
    addi a1, a1, 1
    xor a2, a2, a1
    addi t0, t0, -1
    bnez t0, work
    ebreak
handler:
    addi a0, a0, 1
    csrr a4, mepc
    add a5, a5, a4
    lw t1, 0(s1)
    addi t1, t1, 97
    sw t1, 0(s0)
    mret
"#;

/// `wfi` with interrupts enabled: it sleeps until the timer fires, the
/// unmapped handler disarms the timer, and `mret` resumes after `wfi`.
const WFI_TIMER_TRAP: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li s0, CLINT + 0x4000
    li s1, CLINT + 0xbff8
    li t3, 128
    csrw mie, t3
    csrsi mstatus, 8
    li s2, 3
again:
    lw t1, 0(s1)
    addi t1, t1, 83
    sw zero, 4(s0)
    sw t1, 0(s0)
    beqz s2, woke           # never taken: `woke` starts a block
    wfi
woke:
    addi s2, s2, -1
    bnez s2, again
    ebreak
handler:
    li t1, -1
    sw t1, 4(s0)            # mtimecmp = max: disarmed
    sw t1, 0(s0)
    addi a0, a0, 1
    mret
"#;

/// `wfi` with `mstatus.MIE` clear: the pending timer wakes it without a
/// trap, straight into the annotated block at `woke`, which the sleep
/// is charged to.
const WFI_NO_TRAP: &str = r#"
    .equ CLINT, 0x02000000
    li s0, CLINT + 0x4000
    li s1, CLINT + 0xbff8
    li t3, 128              # MTIE; mstatus.MIE stays clear
    csrw mie, t3
    li s2, 3
again:
    lw t1, 0(s1)
    addi t1, t1, 82
    sw zero, 4(s0)
    sw t1, 0(s0)
    beqz s2, woke           # never taken: `woke` starts a block
    wfi
woke:
    addi s2, s2, -1
    bnez s2, again
    ebreak
"#;

#[test]
fn trap_timer_and_wfi_programs_match_the_per_instruction_reference() {
    let (run, insn_events, _) = directed("ecall handler", ECALL_HANDLER).check();
    assert_eq!(run.unmapped_insns, 6 * 5);
    assert_eq!(insn_events, run.unmapped_insns);

    let (run, insn_events, _) = directed("periodic timer", PERIODIC_TIMER).check();
    let ticks = run.unmapped_insns / 7;
    assert!(ticks >= 5, "the timer must tick repeatedly: {run:?}");
    assert_eq!(run.unmapped_insns, ticks * 7);
    assert_eq!(insn_events, run.unmapped_insns);

    // Each `wfi` sits alone in its block: one more event per `wfi`.
    let (run, insn_events, _) = directed("wfi, timer trap", WFI_TIMER_TRAP).check();
    assert_eq!(run.unmapped_insns, 3 * 5);
    assert_eq!(insn_events, run.unmapped_insns + 3);

    let case = directed("wfi, no trap", WFI_NO_TRAP);
    let (run, insn_events, _) = case.check();
    assert_eq!(run.outcome, RunOutcome::Break);
    assert_eq!(run.unmapped_insns, 0);
    assert_eq!(insn_events, 3);
    // The sleep lands in `woke`'s histogram: each of its three entries
    // observes far more than the block's static cost.
    let woke = case.image.symbol("woke").expect("label");
    let metrics = Snapshot::from_json(&run.metrics).expect("snapshot JSON");
    let hist = metrics
        .histogram(&names::qta_block_cycles(woke))
        .expect("woke entered");
    assert_eq!(hist.count, 3);
    assert!(hist.max > 60, "{hist:?}");
    assert_eq!(metrics.counter(names::QTA_OVERRUNS), Some(3));
}
