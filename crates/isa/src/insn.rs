//! The decoded-instruction record [`Insn`] and its operand-role view
//! [`RegUses`].

use crate::kind::{CKind, InsnClass, InsnKind};
use crate::reg::{Csr, Fpr, Gpr};
use core::fmt;

/// A decoded instruction.
///
/// `Insn` is a uniform record: `rd`/`rs1`/`rs2` are raw five-bit register
/// fields whose *role* (GPR vs FPR vs unused) depends on the
/// [`kind`](Insn::kind); [`reg_uses`](Insn::reg_uses) resolves the roles.
/// The immediate is fully sign-extended and, for compressed instructions,
/// already expanded to the base-instruction interpretation.
///
/// Instances are produced by [`decode`](crate::decode); tools that need to
/// synthesize instruction words use the [`encode`](crate::encode) module and
/// re-decode.
///
/// # Examples
///
/// ```
/// use s4e_isa::{decode, InsnKind, IsaConfig};
///
/// // addi a0, a1, -3
/// let insn = decode(0xffd5_8513, &IsaConfig::rv32i())?;
/// assert_eq!(insn.kind(), InsnKind::Addi);
/// assert_eq!(insn.imm(), -3);
/// assert_eq!(insn.len(), 4);
/// # Ok::<(), s4e_isa::DecodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    kind: InsnKind,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i32,
    len: u8,
    raw: u32,
    ckind: Option<CKind>,
}

impl Insn {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        kind: InsnKind,
        rd: u32,
        rs1: u32,
        rs2: u32,
        imm: i32,
        len: u8,
        raw: u32,
        ckind: Option<CKind>,
    ) -> Insn {
        debug_assert!(len == 2 || len == 4);
        Insn {
            kind,
            rd: (rd & 0x1f) as u8,
            rs1: (rs1 & 0x1f) as u8,
            rs2: (rs2 & 0x1f) as u8,
            imm,
            len,
            raw,
            ckind,
        }
    }

    /// The architectural instruction type.
    pub const fn kind(self) -> InsnKind {
        self.kind
    }

    /// The timing/behaviour class (shorthand for `self.kind().class()`).
    pub const fn class(self) -> InsnClass {
        self.kind.class()
    }

    /// The raw destination-register field (role depends on the kind).
    pub const fn rd(self) -> u8 {
        self.rd
    }

    /// The raw first source-register field.
    pub const fn rs1(self) -> u8 {
        self.rs1
    }

    /// The raw second source-register field.
    pub const fn rs2(self) -> u8 {
        self.rs2
    }

    /// The destination as a GPR (only meaningful when the kind writes a GPR).
    pub const fn rd_gpr(self) -> Gpr {
        Gpr::from_bits(self.rd as u32)
    }

    /// The first source as a GPR.
    pub const fn rs1_gpr(self) -> Gpr {
        Gpr::from_bits(self.rs1 as u32)
    }

    /// The second source as a GPR.
    pub const fn rs2_gpr(self) -> Gpr {
        Gpr::from_bits(self.rs2 as u32)
    }

    /// The destination as an FPR.
    pub const fn rd_fpr(self) -> Fpr {
        Fpr::from_bits(self.rd as u32)
    }

    /// The first source as an FPR.
    pub const fn rs1_fpr(self) -> Fpr {
        Fpr::from_bits(self.rs1 as u32)
    }

    /// The second source as an FPR.
    pub const fn rs2_fpr(self) -> Fpr {
        Fpr::from_bits(self.rs2 as u32)
    }

    /// The sign-extended immediate. For CSR instructions this is the 12-bit
    /// CSR address (zero-extended); for `csrr?i` forms the five-bit zimm is
    /// carried in the `rs1` field, as in the hardware encoding. For
    /// floating-point computational instructions this is the rounding-mode
    /// field.
    pub const fn imm(self) -> i32 {
        self.imm
    }

    /// The CSR addressed by a Zicsr instruction.
    ///
    /// Meaningful only when `self.class() == InsnClass::Csr`; for other
    /// kinds the value is unspecified (derived from the immediate field).
    pub const fn csr(self) -> Csr {
        Csr::from_bits(self.imm as u32)
    }

    /// The zimm operand of a `csrrwi`/`csrrsi`/`csrrci` instruction.
    pub const fn zimm(self) -> u32 {
        self.rs1 as u32
    }

    /// Encoded length in bytes: 2 (compressed) or 4.
    #[allow(clippy::len_without_is_empty)] // byte width, not a collection
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether this instruction came from a 16-bit compressed encoding.
    pub const fn is_compressed(self) -> bool {
        self.len == 2
    }

    /// The raw instruction word (low 16 bits for compressed encodings).
    pub const fn raw(self) -> u32 {
        self.raw
    }

    /// The original compressed encoding, if any.
    pub const fn ckind(self) -> Option<CKind> {
        self.ckind
    }

    /// The address of the sequentially next instruction.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::{decode, IsaConfig};
    /// let insn = decode(0x0000_0013, &IsaConfig::rv32i())?; // nop
    /// assert_eq!(insn.next_pc(0x8000_0000), 0x8000_0004);
    /// # Ok::<(), s4e_isa::DecodeError>(())
    /// ```
    pub const fn next_pc(self, pc: u32) -> u32 {
        pc.wrapping_add(self.len as u32)
    }

    /// The statically-known control-transfer target, if any.
    ///
    /// Returns `Some` for direct jumps (`jal`) and conditional branches
    /// (the *taken* target); `None` for everything else, including the
    /// indirect `jalr`.
    pub fn target(self, pc: u32) -> Option<u32> {
        match self.kind {
            InsnKind::Jal => Some(pc.wrapping_add(self.imm as u32)),
            k if k.is_branch() => Some(pc.wrapping_add(self.imm as u32)),
            _ => None,
        }
    }

    /// Resolves which registers this instruction reads and writes.
    ///
    /// This is the basis of the register-coverage metric and of
    /// coverage-driven fault injection: both address registers through the
    /// roles reported here rather than through raw encoding fields.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::{decode, Gpr, IsaConfig};
    /// // add a0, a1, a2
    /// let insn = decode(0x00c5_8533, &IsaConfig::rv32i())?;
    /// let uses = insn.reg_uses();
    /// assert_eq!(uses.gpr_written, Gpr::new(10));
    /// assert_eq!(uses.gpr_read[0], Gpr::new(11));
    /// assert_eq!(uses.gpr_read[1], Gpr::new(12));
    /// # Ok::<(), s4e_isa::DecodeError>(())
    /// ```
    pub fn reg_uses(self) -> RegUses {
        use InsnKind::*;
        let mut u = RegUses::default();
        match self.kind {
            // R-type integer ops reading two GPRs
            Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Mul | Mulh | Mulhsu
            | Mulhu | Div | Divu | Rem | Remu | Andn | Orn | Xnor | Rol | Ror | Bext => {
                u.gpr_read = [Some(self.rs1_gpr()), Some(self.rs2_gpr())];
                u.gpr_written = Some(self.rd_gpr());
            }
            // Unary BMI ops
            Clz | Ctz | Pcnt | Rev8 => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.gpr_written = Some(self.rd_gpr());
            }
            // I-type ALU, integer loads, jalr
            Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai | Lb | Lh | Lw | Lbu
            | Lhu | Jalr => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.gpr_written = Some(self.rd_gpr());
            }
            // Stores and branches read two GPRs, write none
            Sb | Sh | Sw | Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                u.gpr_read = [Some(self.rs1_gpr()), Some(self.rs2_gpr())];
            }
            // Upper-immediate and jal write only
            Lui | Auipc | Jal => {
                u.gpr_written = Some(self.rd_gpr());
            }
            // CSR register forms
            Csrrw | Csrrs | Csrrc => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.gpr_written = Some(self.rd_gpr());
                u.csr = Some(self.csr());
            }
            // CSR immediate forms (rs1 field is zimm)
            Csrrwi | Csrrsi | Csrrci => {
                u.gpr_written = Some(self.rd_gpr());
                u.csr = Some(self.csr());
            }
            Fence | FenceI | Ecall | Ebreak | Mret | Wfi => {}
            Flw => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.fpr_written = Some(self.rd_fpr());
            }
            Fsw => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.fpr_read = [Some(self.rs2_fpr()), None];
            }
            FaddS | FsubS | FmulS | FdivS | FsgnjS | FsgnjnS | FsgnjxS | FminS | FmaxS => {
                u.fpr_read = [Some(self.rs1_fpr()), Some(self.rs2_fpr())];
                u.fpr_written = Some(self.rd_fpr());
            }
            FsqrtS => {
                u.fpr_read = [Some(self.rs1_fpr()), None];
                u.fpr_written = Some(self.rd_fpr());
            }
            FcvtWS | FcvtWuS | FmvXW | FclassS => {
                u.fpr_read = [Some(self.rs1_fpr()), None];
                u.gpr_written = Some(self.rd_gpr());
            }
            FeqS | FltS | FleS => {
                u.fpr_read = [Some(self.rs1_fpr()), Some(self.rs2_fpr())];
                u.gpr_written = Some(self.rd_gpr());
            }
            FcvtSW | FcvtSWu | FmvWX => {
                u.gpr_read = [Some(self.rs1_gpr()), None];
                u.fpr_written = Some(self.rd_fpr());
            }
        }
        // A GPR write to x0 is architecturally a no-op; report it anyway so
        // coverage can observe x0 like the paper's metric does, but callers
        // that care use `RegUses::effective_gpr_written`.
        u
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::format_insn(self, f)
    }
}

/// The register-role view of one instruction, produced by
/// [`Insn::reg_uses`].
///
/// Unused slots are `None`. Writes to `x0` are reported as-is; use
/// [`effective_gpr_written`](RegUses::effective_gpr_written) when the
/// architectural no-op behaviour matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegUses {
    /// GPRs read (up to two).
    pub gpr_read: [Option<Gpr>; 2],
    /// GPR written, if any (may be `x0`).
    pub gpr_written: Option<Gpr>,
    /// FPRs read (up to two).
    pub fpr_read: [Option<Fpr>; 2],
    /// FPR written, if any.
    pub fpr_written: Option<Fpr>,
    /// CSR accessed, if any.
    pub csr: Option<Csr>,
}

impl RegUses {
    /// The GPR written, excluding the hardwired-zero `x0`.
    pub fn effective_gpr_written(&self) -> Option<Gpr> {
        self.gpr_written.filter(|g| *g != Gpr::ZERO)
    }

    /// Iterates over the GPRs read.
    pub fn gprs_read(&self) -> impl Iterator<Item = Gpr> + '_ {
        self.gpr_read.iter().flatten().copied()
    }

    /// Iterates over the FPRs read.
    pub fn fprs_read(&self) -> impl Iterator<Item = Fpr> + '_ {
        self.fpr_read.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::kind::IsaConfig;

    fn d(raw: u32) -> Insn {
        decode(raw, &IsaConfig::full()).expect("decodes")
    }

    #[test]
    fn store_reads_two_gprs() {
        // sw a0, 4(a1): imm=4, rs2=a0(x10), rs1=a1(x11)
        let insn = d(0x00a5_a223);
        assert_eq!(insn.kind(), InsnKind::Sw);
        let u = insn.reg_uses();
        assert_eq!(u.gpr_written, None);
        assert_eq!(u.gprs_read().count(), 2);
    }

    #[test]
    fn branch_target() {
        // beq x0, x0, +8
        let insn = d(0x0000_0463);
        assert_eq!(insn.kind(), InsnKind::Beq);
        assert_eq!(insn.target(0x100), Some(0x108));
        assert_eq!(insn.next_pc(0x100), 0x104);
    }

    #[test]
    fn jalr_has_no_static_target() {
        // jalr x0, 0(ra)
        let insn = d(0x0000_8067);
        assert_eq!(insn.kind(), InsnKind::Jalr);
        assert_eq!(insn.target(0x100), None);
    }

    #[test]
    fn csr_roles() {
        // csrrw a0, mstatus, a1
        let raw = 0x3005_9573;
        let insn = d(raw);
        assert_eq!(insn.kind(), InsnKind::Csrrw);
        let u = insn.reg_uses();
        assert_eq!(u.csr, Some(Csr::MSTATUS));
        assert_eq!(u.gpr_written, Gpr::new(10));
    }

    #[test]
    fn csr_imm_form_zimm() {
        // csrrwi a0, mscratch, 5
        let raw = 0x3402_d573;
        let insn = d(raw);
        assert_eq!(insn.kind(), InsnKind::Csrrwi);
        assert_eq!(insn.zimm(), 5);
        assert_eq!(insn.reg_uses().gprs_read().count(), 0);
    }

    #[test]
    fn x0_write_filtering() {
        // addi x0, x0, 0 (canonical nop)
        let insn = d(0x0000_0013);
        let u = insn.reg_uses();
        assert_eq!(u.gpr_written, Some(Gpr::ZERO));
        assert_eq!(u.effective_gpr_written(), None);
    }

    #[test]
    fn fp_roles_mixed_register_files() {
        // fcvt.s.w ft0, a0
        let insn = d(0xd005_0053);
        assert_eq!(insn.kind(), InsnKind::FcvtSW);
        let u = insn.reg_uses();
        assert_eq!(u.gpr_read[0], Gpr::new(10));
        assert_eq!(u.fpr_written, Fpr::new(0));
        assert_eq!(u.gpr_written, None);
    }
}
