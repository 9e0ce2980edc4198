//! Execution tracing for coverage-driven mutant generation.
//!
//! [`TracePlugin`] records the golden run's footprint on block events:
//! each translated block's instructions, entered at known `instret`
//! values, give the executed instructions and the registers they touch
//! (the executed-prefix rule, shared with the pruning def-use replay).
//! Instruction events are subscribed only where a block event cannot
//! stand in, so the rest of the golden run executes on the template JIT.

use crate::blocks::{BlockWalk, Closed};
use s4e_isa::{Csr, Fpr, Gpr, Insn, InsnClass};
use s4e_vp::{BlockEntry, BlockInfo, Cpu, MemAccess, Plugin, Trap};
use std::collections::BTreeSet;

/// What the golden run touched — the footprint that coverage-driven fault
/// injection targets (MBMV 2020: inject only where the software actually
/// exercises the hardware).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ExecTrace {
    /// Addresses of executed instructions, trapping ones included.
    pub executed_pcs: BTreeSet<u32>,
    /// GPRs read or written by executed instructions.
    pub touched_gprs: BTreeSet<Gpr>,
    /// FPRs read or written by executed instructions.
    pub touched_fprs: BTreeSet<Fpr>,
    /// Byte addresses of data memory the program wrote.
    pub written_bytes: BTreeSet<u32>,
    /// Total retired instructions (an instruction that traps does not
    /// retire).
    pub instret: u64,
    /// Whether machine interrupts were ever armed (`mie != 0`) at any
    /// observed point of the run. Gates golden-prefix fast-forward:
    /// splitting a run into several `run_for` segments inserts extra
    /// interrupt-sampling points at the seams, which is architecturally
    /// invisible only while no interrupt can be delivered.
    #[cfg_attr(feature = "serde", serde(default))]
    pub interrupts_armed: bool,
}

/// The plugin that records an [`ExecTrace`].
///
/// It keeps each distinct translation's longest executed prefix and
/// folds the executed pcs and touched registers once, in
/// [`trace`](TracePlugin::trace). It subscribes instruction events only
/// for blocks holding a store, whose RAM stores give
/// [`written_bytes`](ExecTrace::written_bytes), or a CSR instruction,
/// after each of whose instructions it samples `mie` (only a CSR write
/// changes it).
#[derive(Debug, Default)]
pub struct TracePlugin {
    /// Per translation: its longest executed prefix.
    walk: BlockWalk<usize>,
    written_bytes: BTreeSet<u32>,
    interrupts_armed: bool,
    /// `instret` at the first event: where the traced run began.
    start: Option<u64>,
}

impl TracePlugin {
    /// Creates an empty trace recorder.
    pub fn new() -> TracePlugin {
        TracePlugin::default()
    }

    /// The trace of the run so far. `cpu` is the traced hart where the
    /// run stopped: its `instret` closes the last block entry.
    pub fn trace(&self, cpu: &Cpu) -> ExecTrace {
        let mut trace = ExecTrace {
            written_bytes: self.written_bytes.clone(),
            instret: cpu.instret().saturating_sub(self.start.unwrap_or(u64::MAX)),
            interrupts_armed: self.interrupts_armed || mie_armed(cpu),
            ..ExecTrace::default()
        };
        let last = self.walk.last(cpu.instret());
        for (index, translation) in self.walk.translations().iter().enumerate() {
            let executed = match last {
                Some(c) if c.open.translation == index => translation.record.max(c.executed),
                _ => translation.record,
            };
            for (pc, insn) in &translation.insns[..executed] {
                trace.executed_pcs.insert(*pc);
                let uses = insn.reg_uses();
                trace
                    .touched_gprs
                    .extend(uses.gprs_read().chain(uses.gpr_written));
                trace
                    .touched_fprs
                    .extend(uses.fprs_read().chain(uses.fpr_written));
            }
        }
        trace
    }

    fn close(&mut self, closed: Option<Closed>) {
        if let Some(c) = closed {
            let longest = self.walk.record_mut(c.open.translation);
            *longest = (*longest).max(c.executed);
        }
    }
}

fn mie_armed(cpu: &Cpu) -> bool {
    cpu.csr_read(Csr::MIE).unwrap_or(0) != 0
}

impl Plugin for TracePlugin {
    fn on_block_translated(&mut self, block: &BlockInfo<'_>) {
        self.walk.translated(block, |_| 0);
    }

    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        block
            .insns
            .iter()
            .any(|(_, insn)| insn.kind().is_store() || insn.class() == InsnClass::Csr)
    }

    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        if let Some(first) = entries.first() {
            self.start.get_or_insert(first.instret);
        }
        for entry in entries {
            let closed = self.walk.enter(entry);
            self.close(closed);
        }
    }

    fn on_insn_executed(&mut self, cpu: &Cpu, _pc: u32, _insn: &Insn) {
        self.interrupts_armed |= mie_armed(cpu);
    }

    fn on_mem_access(&mut self, _cpu: &Cpu, access: &MemAccess) {
        if access.is_store {
            for i in 0..access.size as u32 {
                self.written_bytes.insert(access.addr + i);
            }
        }
    }

    fn on_trap(&mut self, cpu: &Cpu, trap: &Trap) {
        self.start.get_or_insert(cpu.instret());
        let closed = self.walk.trap(cpu, trap);
        self.close(closed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::GOLDEN_INSN_LIMIT;
    use crate::test_programs::{
        campaigns, interpreter_vp, programs, LOOP_PROGRAM, SMC_PROGRAM, TIMER_PROGRAM,
        TRAP_PROGRAM, UART_PROGRAM, WORK_PROGRAM,
    };
    use crate::{generate_mutants, Campaign, FaultKind, GeneratorConfig};
    use s4e_isa::IsaConfig;

    /// The per-instruction recorder the block-event [`TracePlugin`]
    /// replaced, kept verbatim as its oracle (it counts a trapping
    /// instruction in `instret`).
    #[derive(Debug, Default)]
    struct InsnTracePlugin {
        trace: ExecTrace,
    }

    impl InsnTracePlugin {
        /// Creates an empty trace recorder.
        fn new() -> InsnTracePlugin {
            InsnTracePlugin::default()
        }

        /// A snapshot of the recorded trace.
        fn trace(&self) -> ExecTrace {
            self.trace.clone()
        }
    }

    impl Plugin for InsnTracePlugin {
        fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {
            self.trace.executed_pcs.insert(pc);
            self.trace.instret += 1;
            if !self.trace.interrupts_armed && cpu.csr_read(Csr::MIE).unwrap_or(0) != 0 {
                self.trace.interrupts_armed = true;
            }
            let uses = insn.reg_uses();
            for g in uses.gprs_read() {
                self.trace.touched_gprs.insert(g);
            }
            if let Some(g) = uses.gpr_written {
                self.trace.touched_gprs.insert(g);
            }
            for fp in uses.fprs_read() {
                self.trace.touched_fprs.insert(fp);
            }
            if let Some(fp) = uses.fpr_written {
                self.trace.touched_fprs.insert(fp);
            }
        }

        fn on_mem_access(&mut self, _cpu: &Cpu, access: &MemAccess) {
            if access.is_store {
                for i in 0..access.size as u32 {
                    self.trace.written_bytes.insert(access.addr + i);
                }
            }
        }
    }

    /// The oracle's trace of `campaign`'s golden run.
    fn oracle(campaign: &Campaign) -> ExecTrace {
        let mut vp = campaign.loaded_vp();
        vp.add_plugin(Box::new(InsnTracePlugin::new()));
        vp.run_for(GOLDEN_INSN_LIMIT);
        vp.plugin::<InsnTracePlugin>().expect("attached").trace()
    }

    #[test]
    fn trace_matches_the_per_instruction_oracle() {
        for (name, source, isa) in programs() {
            for campaign in campaigns(&source, isa) {
                let golden = campaign.golden();
                let want = ExecTrace {
                    instret: golden.instret(),
                    ..oracle(&campaign)
                };
                let jit = campaign.config().jit;
                assert_eq!(golden.trace(), &want, "{name}, jit {jit}");
                if name == "timer" {
                    assert!(want.interrupts_armed, "{name} arms the timer");
                }
            }
        }
    }

    #[test]
    fn uncached_interpreter_trace_matches_with_bounded_records() {
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
            let mut cached = campaign.loaded_vp();
            cached.add_plugin(Box::new(TracePlugin::new()));
            cached.run_for(GOLDEN_INSN_LIMIT);
            let mut vp = interpreter_vp(source, isa);
            vp.add_plugin(Box::new(TracePlugin::new()));
            vp.run_for(GOLDEN_INSN_LIMIT);
            let plugin = vp.plugin::<TracePlugin>().expect("attached");
            assert_eq!(&plugin.trace(vp.cpu()), campaign.golden().trace());
            // One record per distinct translation, not per dispatch.
            let records = plugin.walk.translations().len();
            let distinct = cached.plugin::<TracePlugin>().expect("attached");
            assert_eq!(records, distinct.walk.translations().len());
            assert!(vp.dispatch_stats().translations > 4 * records as u64);
        }
    }

    #[test]
    fn trace_instret_counts_retired_instructions_only() {
        let [campaign, _] = campaigns(TRAP_PROGRAM, IsaConfig::rv32imc());
        let golden = campaign.golden();
        assert_eq!(golden.trace().instret, golden.instret());
        // 200 misaligned loads, 20 `ecall`s and 20 missing-CSR reads
        // executed without retiring.
        assert_eq!(oracle(&campaign).instret, golden.instret() + 240);
        let specs = generate_mutants(golden.trace(), &GeneratorConfig::new(7).scaled(40));
        let times: Vec<u64> = specs
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::Transient { at_insn } if at_insn > 0 => Some(at_insn),
                _ => None,
            })
            .collect();
        assert!(times.len() > 100, "{} transient times", times.len());
        assert!(times.iter().all(|&t| t < golden.instret()));
    }

    #[test]
    fn looping_golden_trace_retires_natively() {
        let [campaign, _] = campaigns(LOOP_PROGRAM, IsaConfig::rv32imc());
        let mut vp = campaign.loaded_vp();
        vp.add_plugin(Box::new(TracePlugin::new()));
        vp.run_for(GOLDEN_INSN_LIMIT);
        let stats = vp.dispatch_stats();
        assert_eq!(stats.retired, campaign.golden().instret());
        assert!(
            stats.jit_retired * 10 >= stats.retired * 9,
            "{} of {} native",
            stats.jit_retired,
            stats.retired
        );
    }
}
