//! Micro-op lowering: turning a decoded basic block into a flat array of
//! pre-extracted operations for the dispatch fast path.
//!
//! The per-instruction interpreter re-derives everything about an instruction
//! on every execution: operand registers, sign-extended immediates,
//! memory widths, branch targets, timing-class costs. All of that is
//! static per translated block, so [`lower_block`] computes it once and
//! the run loop executes a dense `match` on a `u8` opcode over values
//! that are already in the right form. Adjacent pairs recognized by
//! [`s4e_isa::fusion`] collapse into one micro-op (macro-op fusion);
//! anything cold or complex (CSR, FP, system, `fence.i`) lowers to
//! [`Op::Generic`], which delegates to the reference per-instruction
//! path — the micro-op engine is an encoding of the same semantics,
//! never a second implementation of them. Memory micro-ops additionally
//! carry the RAM fast path: in-RAM aligned accesses bypass bus dispatch
//! entirely (see the load/store group below), which is where
//! memory-heavy guests recover most of their bus overhead.
//!
//! The lowered block is also the template JIT's source form (`jit.rs`):
//! each micro-op here maps one-to-one onto a native code template, a
//! block containing [`Op::Generic`] is never promoted, and a compiled
//! block that bails mid-flight resumes interpretation at exactly the
//! bailing micro-op — keeping this array the single semantic authority
//! for everything the JIT emits. The JIT's masked engine, which runs
//! while stuck-at register masks are armed, compiles the *unfused*
//! lowering instead (`fuse = false`): one micro-op per instruction, so
//! every register an instruction reads passes through the masks — no
//! fused pair computes through its intermediate register unmasked —
//! and micro-op `k` is instruction `k`.

use crate::timing::TimingModel;
use s4e_isa::fusion::{detect, FusionPattern};
use s4e_isa::{Extension, Gpr, Insn, InsnKind, IsaConfig};

/// Micro-op opcodes. Kept dense and flat (one `u8`) so the execution
/// loop's `match` compiles to a jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// `rd = imm` — `lui`, `auipc` (pc folded at lowering time), and the
    /// fused `lui+addi` / `auipc+addi` constant idioms.
    LoadConst,
    // ALU, immediate second operand (`imm`).
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    // ALU, register operands.
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    // Xbmi bit manipulation.
    Clz,
    Ctz,
    Pcnt,
    Andn,
    Orn,
    Xnor,
    Rol,
    Ror,
    Rev8,
    Bext,
    /// Fused `slli+srli` field extract: `rd = (rs1 << imm) >> imm2`.
    ShiftPair,
    // Loads/stores, `addr = rs1 + imm`. These are the dedicated memory
    // micro-ops behind the RAM fast path: when the effective address is
    // naturally aligned and falls wholly inside RAM, the execution loop
    // reads/writes the RAM slice directly — no device-range probe, no
    // exact accounting flush, page-granular dirty marking with an
    // already-dirty skip. MMIO, misaligned and RAM-edge accesses (and
    // any access observed by a plugin) fall back to full bus dispatch,
    // so trap/event semantics stay byte-identical to the reference path.
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    // Fused `auipc`+load/store: absolute `addr = imm`, the `auipc`
    // destination (`rs1`) is still written with `imm2`. The access half
    // shares the RAM fast path of the plain loads/stores above.
    AbsLb,
    AbsLh,
    AbsLw,
    AbsLbu,
    AbsLhu,
    AbsSb,
    AbsSh,
    AbsSw,
    // Conditional branches, absolute target pre-computed in `imm`.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Fused compare+branch (`slt[i][u]` + `beqz`/`bnez`): `rd` receives
    // the comparison result, branch to `imm` on the encoded polarity.
    SltBrz,
    SltBrnz,
    SltuBrz,
    SltuBrnz,
    SltiBrz,
    SltiBrnz,
    SltiuBrz,
    SltiuBrnz,
    // Fused `addi` + `beq`/`bne` on its result (`AddBranch`): `rd` is
    // written with `rs1 + imm2`, branch to `imm` when the result
    // equals (`AddBeq`) / differs from (`AddBne`) `rs2`.
    AddBeq,
    AddBne,
    /// `jal`: `rd = next_pc`, jump to the absolute target in `imm`.
    Jal,
    /// `jalr`: `rd = next_pc`, jump to `(rs1 + imm) & !1`; `imm2` holds
    /// the misalignment mask (`ialign - 1`).
    Jalr,
    /// `fence` — accounting only.
    Nop,
    /// Everything else: execute `insns[idx]` through the reference
    /// per-instruction path (CSR, FP, system, `fence.i`, `wfi`, and any
    /// op whose static checks failed at lowering time).
    Generic,
}

/// One lowered operation covering `n` guest instructions (1, or 2 when
/// fused).
///
/// Field roles vary by opcode — see the [`Op`] variant docs. Invariants
/// that hold for every op:
///
/// - `idx` indexes the *first* constituent instruction in the owning
///   block's `insns` (the resume point for exact-boundary replay);
/// - `pc` is the pc of the instruction a trap must be reported at (the
///   *second* of a fused pair — the first half of every fused pattern is
///   trap-free);
/// - `next_pc` is the fall-through pc after the whole micro-op;
/// - `cost` is the base cycle cost folded into the block's batch (for
///   branches: the not-taken total; for fused memory ops: the access
///   half only, with the `auipc` half in `cost2`);
/// - `cost2` is the branch-taken extra for (fused) branches, or the
///   first-half cost for fused memory ops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub op: Op,
    pub n: u8,
    pub rd: Gpr,
    pub rs1: Gpr,
    pub rs2: Gpr,
    pub idx: u16,
    pub pc: u32,
    pub next_pc: u32,
    pub imm: i32,
    pub imm2: i32,
    pub cost: u32,
    pub cost2: u32,
}

/// Narrows a timing-model cost to the micro-op field width. Costs are
/// user-settable `u64`s; an (absurd) cost that does not fit forces the
/// instruction onto the generic path rather than silently truncating.
fn c32(cost: u64) -> Option<u32> {
    u32::try_from(cost).ok()
}

/// Lowers a decoded block to micro-ops, fusing adjacent pairs when
/// `fuse` is set. Returns the ops and the number of macro-op fusions
/// performed.
pub(crate) fn lower_block(
    insns: &[(u32, Insn)],
    timing: &TimingModel,
    isa: &IsaConfig,
    fuse: bool,
) -> (Vec<MicroOp>, u32) {
    let ialign: u32 = if isa.has(Extension::C) { 2 } else { 4 };
    let mut uops = Vec::with_capacity(insns.len());
    let mut fused = 0u32;
    let mut i = 0usize;
    while i < insns.len() {
        if fuse && i + 1 < insns.len() {
            if let Some(pattern) = detect(&insns[i].1, &insns[i + 1].1) {
                if let Some(u) = lower_fused(pattern, i, insns, timing, ialign) {
                    uops.push(u);
                    fused += 1;
                    i += 2;
                    continue;
                }
            }
        }
        let (pc, insn) = insns[i];
        uops.push(lower_one(i, pc, &insn, timing, ialign));
        i += 1;
    }
    (uops, fused)
}

/// A `Generic` micro-op for `insns[idx]` — the always-correct fallback.
fn generic(idx: usize, pc: u32, insn: &Insn) -> MicroOp {
    MicroOp {
        op: Op::Generic,
        n: 1,
        rd: Gpr::ZERO,
        rs1: Gpr::ZERO,
        rs2: Gpr::ZERO,
        idx: idx as u16,
        pc,
        next_pc: insn.next_pc(pc),
        imm: 0,
        imm2: 0,
        cost: 0,
        cost2: 0,
    }
}

fn lower_one(idx: usize, pc: u32, insn: &Insn, timing: &TimingModel, ialign: u32) -> MicroOp {
    use InsnKind::*;
    let Some(cost) = c32(timing.cost(insn, false)) else {
        return generic(idx, pc, insn);
    };
    let mut u = MicroOp {
        op: Op::Generic,
        n: 1,
        rd: insn.rd_gpr(),
        rs1: insn.rs1_gpr(),
        rs2: insn.rs2_gpr(),
        idx: idx as u16,
        pc,
        next_pc: insn.next_pc(pc),
        imm: insn.imm(),
        imm2: 0,
        cost,
        cost2: 0,
    };
    u.op = match insn.kind() {
        Lui => {
            u.imm = insn.imm();
            Op::LoadConst
        }
        Auipc => {
            u.imm = pc.wrapping_add(insn.imm() as u32) as i32;
            Op::LoadConst
        }
        Addi => Op::Addi,
        Slti => Op::Slti,
        Sltiu => Op::Sltiu,
        Xori => Op::Xori,
        Ori => Op::Ori,
        Andi => Op::Andi,
        Slli => Op::Slli,
        Srli => Op::Srli,
        Srai => Op::Srai,
        Add => Op::Add,
        Sub => Op::Sub,
        Sll => Op::Sll,
        Slt => Op::Slt,
        Sltu => Op::Sltu,
        Xor => Op::Xor,
        Srl => Op::Srl,
        Sra => Op::Sra,
        Or => Op::Or,
        And => Op::And,
        Mul => Op::Mul,
        Mulh => Op::Mulh,
        Mulhsu => Op::Mulhsu,
        Mulhu => Op::Mulhu,
        Div => Op::Div,
        Divu => Op::Divu,
        Rem => Op::Rem,
        Remu => Op::Remu,
        Clz => Op::Clz,
        Ctz => Op::Ctz,
        Pcnt => Op::Pcnt,
        Andn => Op::Andn,
        Orn => Op::Orn,
        Xnor => Op::Xnor,
        Rol => Op::Rol,
        Ror => Op::Ror,
        Rev8 => Op::Rev8,
        Bext => Op::Bext,
        Lb => Op::Lb,
        Lh => Op::Lh,
        Lw => Op::Lw,
        Lbu => Op::Lbu,
        Lhu => Op::Lhu,
        Sb => Op::Sb,
        Sh => Op::Sh,
        Sw => Op::Sw,
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            let target = pc.wrapping_add(insn.imm() as u32);
            let Some(extra) = c32(timing.branch_taken_extra()) else {
                return generic(idx, pc, insn);
            };
            if !target.is_multiple_of(ialign) {
                // A taken branch would trap; keep the reference path's
                // exact trap sequencing.
                return generic(idx, pc, insn);
            }
            u.imm = target as i32;
            u.cost2 = extra;
            match insn.kind() {
                Beq => Op::Beq,
                Bne => Op::Bne,
                Blt => Op::Blt,
                Bge => Op::Bge,
                Bltu => Op::Bltu,
                _ => Op::Bgeu,
            }
        }
        Jal => {
            let target = pc.wrapping_add(insn.imm() as u32);
            if !target.is_multiple_of(ialign) {
                return generic(idx, pc, insn);
            }
            u.imm = target as i32;
            Op::Jal
        }
        Jalr => {
            u.imm2 = (ialign - 1) as i32;
            Op::Jalr
        }
        Fence => Op::Nop,
        _ => return generic(idx, pc, insn),
    };
    u
}

fn lower_fused(
    pattern: FusionPattern,
    idx: usize,
    insns: &[(u32, Insn)],
    timing: &TimingModel,
    ialign: u32,
) -> Option<MicroOp> {
    let (pc1, first) = &insns[idx];
    let (pc2, second) = &insns[idx + 1];
    let cost1 = c32(timing.cost(first, false))?;
    let cost2 = c32(timing.cost(second, false))?;
    let total = cost1.checked_add(cost2)?;
    let mut u = MicroOp {
        op: Op::Generic,
        n: 2,
        rd: Gpr::ZERO,
        rs1: Gpr::ZERO,
        rs2: Gpr::ZERO,
        idx: idx as u16,
        pc: *pc2,
        next_pc: second.next_pc(*pc2),
        imm: 0,
        imm2: 0,
        cost: total,
        cost2: 0,
    };
    match pattern {
        FusionPattern::ConstLui { rd, value } => {
            u.op = Op::LoadConst;
            u.rd = rd;
            u.imm = value as i32;
        }
        FusionPattern::ConstAuipc { rd, offset } => {
            u.op = Op::LoadConst;
            u.rd = rd;
            u.imm = pc1.wrapping_add(offset) as i32;
        }
        FusionPattern::PcRelLoad {
            base,
            rd,
            kind,
            offset,
        } => {
            u.op = match kind {
                InsnKind::Lb => Op::AbsLb,
                InsnKind::Lh => Op::AbsLh,
                InsnKind::Lw => Op::AbsLw,
                InsnKind::Lbu => Op::AbsLbu,
                _ => Op::AbsLhu,
            };
            u.rd = rd;
            u.rs1 = base;
            u.imm = pc1.wrapping_add(offset) as i32;
            u.imm2 = pc1.wrapping_add(first.imm() as u32) as i32;
            u.cost = cost2;
            u.cost2 = cost1;
        }
        FusionPattern::PcRelStore {
            base,
            src,
            kind,
            offset,
        } => {
            u.op = match kind {
                InsnKind::Sb => Op::AbsSb,
                InsnKind::Sh => Op::AbsSh,
                _ => Op::AbsSw,
            };
            u.rs1 = base;
            u.rs2 = src;
            u.imm = pc1.wrapping_add(offset) as i32;
            u.imm2 = pc1.wrapping_add(first.imm() as u32) as i32;
            u.cost = cost2;
            u.cost2 = cost1;
        }
        FusionPattern::CmpBranch {
            cmp,
            rd,
            rs1,
            rs2,
            imm,
            branch_if_set,
            offset,
        } => {
            let target = pc2.wrapping_add(offset as u32);
            if !target.is_multiple_of(ialign) {
                return None;
            }
            u.op = match (cmp, branch_if_set) {
                (InsnKind::Slt, false) => Op::SltBrz,
                (InsnKind::Slt, true) => Op::SltBrnz,
                (InsnKind::Sltu, false) => Op::SltuBrz,
                (InsnKind::Sltu, true) => Op::SltuBrnz,
                (InsnKind::Slti, false) => Op::SltiBrz,
                (InsnKind::Slti, true) => Op::SltiBrnz,
                (InsnKind::Sltiu, false) => Op::SltiuBrz,
                _ => Op::SltiuBrnz,
            };
            u.rd = rd;
            u.rs1 = rs1;
            u.rs2 = rs2;
            u.imm = target as i32;
            u.imm2 = imm;
            u.cost2 = c32(timing.branch_taken_extra())?;
        }
        FusionPattern::AddBranch {
            rd,
            rs1,
            imm,
            other,
            branch_on_eq,
            offset,
        } => {
            let target = pc2.wrapping_add(offset as u32);
            if !target.is_multiple_of(ialign) {
                return None;
            }
            u.op = if branch_on_eq { Op::AddBeq } else { Op::AddBne };
            u.rd = rd;
            u.rs1 = rs1;
            u.rs2 = other;
            u.imm = target as i32;
            u.imm2 = imm;
            u.cost2 = c32(timing.branch_taken_extra())?;
        }
        FusionPattern::ShiftPair {
            rd,
            rs1,
            left,
            right,
        } => {
            u.op = Op::ShiftPair;
            u.rd = rd;
            u.rs1 = rs1;
            u.imm = left as i32;
            u.imm2 = right as i32;
        }
    }
    Some(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4e_isa::decode;

    fn program(words: &[u32], base: u32) -> Vec<(u32, Insn)> {
        let isa = IsaConfig::full();
        let mut out = Vec::new();
        let mut pc = base;
        for &w in words {
            let insn = decode(w, &isa).expect("decodes");
            out.push((pc, insn));
            pc = insn.next_pc(pc);
        }
        out
    }

    #[test]
    fn lowers_li_idiom_to_one_uop() {
        // lui t0, 0x12345 ; addi t0, t0, 0x678 ; add t1, t0, t0
        let insns = program(&[0x123452b7, 0x67828293, 0x00528333], 0x8000_0000);
        let (uops, fused) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_eq!(fused, 1);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].op, Op::LoadConst);
        assert_eq!(uops[0].n, 2);
        assert_eq!(uops[0].imm as u32, 0x12345678);
        assert_eq!(uops[1].op, Op::Add);
        // The fused op reports the second insn's pc for traps and spans
        // both instruction slots.
        assert_eq!(uops[0].idx, 0);
        assert_eq!(uops[0].pc, 0x8000_0004);
        assert_eq!(uops[0].next_pc, 0x8000_0008);
    }

    #[test]
    fn branch_targets_are_absolute() {
        // beq a0, a1, +16
        let insns = program(&[0x00b50863], 0x8000_0100);
        let (uops, fused) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_eq!(fused, 0);
        assert_eq!(uops[0].op, Op::Beq);
        assert_eq!(uops[0].imm as u32, 0x8000_0110);
        let flat = TimingModel::flat();
        let (uops, _) = lower_block(&insns, &flat, &IsaConfig::full(), true);
        assert_eq!(uops[0].cost, 1);
        assert_eq!(uops[0].cost2, 0);
    }

    #[test]
    fn misaligned_branch_target_stays_generic() {
        // beq a0, a1, +18 would trap when taken under IALIGN=4.
        // (encode imm 18 in B-type: imm[12|10:5]=0, imm[4:1|11]=1001_0)
        let insns = program(&[0x00b50963], 0x8000_0100);
        let (uops, _) = lower_block(&insns, &TimingModel::new(), &IsaConfig::rv32i(), true);
        assert_eq!(uops[0].op, Op::Generic);
        // With the C extension (IALIGN=2) the same target is legal.
        let (uops, _) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_ne!(uops[0].op, Op::Generic);
    }

    #[test]
    fn csr_and_system_lower_to_generic() {
        // csrrs t0, mcycle, x0 ; ecall
        let insns = program(&[0xb00022f3, 0x00000073], 0x8000_0000);
        let (uops, _) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_eq!(uops[0].op, Op::Generic);
        assert_eq!(uops[1].op, Op::Generic);
    }

    #[test]
    fn lowers_decrement_branch_to_one_uop() {
        // addi s0, s0, -1 ; bne s0, x0, -4 (back to the addi)
        let insns = program(&[0xfff40413, 0xfe041ee3], 0x8000_0000);
        let (uops, fused) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_eq!(fused, 1);
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].op, Op::AddBne);
        assert_eq!(uops[0].n, 2);
        assert_eq!(uops[0].imm2, -1);
        // The branch target is absolute: branch pc 0x8000_0004 - 4.
        assert_eq!(uops[0].imm as u32, 0x8000_0000);
        assert_eq!(uops[0].idx, 0);
        assert_eq!(uops[0].pc, 0x8000_0004);
    }

    #[test]
    fn unfused_lowering_keeps_one_uop_per_insn() {
        // addi s0, s0, -1 ; bne s0, x0, -4: the masked JIT engine must see
        // the branch read s0 itself, not the fused pair's intermediate.
        let insns = program(&[0xfff40413, 0xfe041ee3], 0x8000_0000);
        let (uops, fused) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), false);
        assert_eq!(fused, 0);
        assert_eq!(uops.len(), 2);
        assert_eq!((uops[0].op, uops[1].op), (Op::Addi, Op::Bne));
        for (k, u) in uops.iter().enumerate() {
            assert_eq!((u.n, u.idx as usize), (1, k));
        }
    }

    #[test]
    fn fused_costs_split_for_pcrel_loads() {
        // auipc t0, 0x1 ; lw t1, -4(t0)
        let insns = program(&[0x00001297, 0xffc2a303], 0x8000_0000);
        let (uops, fused) = lower_block(&insns, &TimingModel::new(), &IsaConfig::full(), true);
        assert_eq!(fused, 1);
        assert_eq!(uops[0].op, Op::AbsLw);
        assert_eq!(uops[0].imm as u32, 0x8000_0ffc);
        assert_eq!(uops[0].imm2 as u32, 0x8000_1000);
        let timing = TimingModel::new();
        assert_eq!(uops[0].cost2 as u64, timing.cost(&insns[0].1, false));
        assert_eq!(uops[0].cost as u64, timing.cost(&insns[1].1, false));
    }
}
