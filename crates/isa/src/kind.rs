//! The instruction-type catalog: [`InsnKind`], the compressed-encoding
//! catalog [`CKind`], the ISA-module attribution [`Extension`] and the
//! timing classification [`InsnClass`].
//!
//! "Instruction type" here is exactly the unit of the coverage metric of the
//! MBMV 2021 paper: one entry per architectural instruction (e.g. `add`,
//! `csrrw`, `fadd.s`), with compressed encodings tracked separately via
//! [`CKind`] so the C module has its own coverage rows.

use core::fmt;

/// A RISC-V ISA module (extension) implemented by the ecosystem.
///
/// # Examples
///
/// ```
/// use s4e_isa::{Extension, InsnKind};
/// assert_eq!(InsnKind::Mul.extension(), Extension::M);
/// assert_eq!(Extension::M.name(), "M");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Extension {
    /// Base integer ISA (including the privileged `mret`/`wfi`).
    I,
    /// Integer multiplication and division.
    M,
    /// Single-precision floating point.
    F,
    /// Compressed 16-bit encodings.
    C,
    /// CSR access instructions.
    Zicsr,
    /// Instruction-fetch fence.
    Zifencei,
    /// Custom bit-manipulation extension (ten instructions, PATMOS 2019;
    /// encoded at the ratified Zbb/Zbs code points).
    Xbmi,
}

impl Extension {
    /// All extensions, in canonical ISA-string order.
    pub const ALL: [Extension; 7] = [
        Extension::I,
        Extension::M,
        Extension::F,
        Extension::C,
        Extension::Zicsr,
        Extension::Zifencei,
        Extension::Xbmi,
    ];

    /// The canonical extension name as used in ISA strings.
    pub const fn name(self) -> &'static str {
        match self {
            Extension::I => "I",
            Extension::M => "M",
            Extension::F => "F",
            Extension::C => "C",
            Extension::Zicsr => "Zicsr",
            Extension::Zifencei => "Zifencei",
            Extension::Xbmi => "Xbmi",
        }
    }
}

impl fmt::Display for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Timing/behaviour classification of an instruction type.
///
/// The same class table drives the virtual prototype's dynamic cycle counter
/// and the static WCET per-block costs, which is what makes the
/// `dynamic ≤ simulated ≤ static` invariant of experiment F1 a real property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InsnClass {
    /// Register/immediate ALU operations (including BMI).
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide/remainder.
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`jal`, `jalr`).
    Jump,
    /// CSR access.
    Csr,
    /// System instructions (`ecall`, `ebreak`, `mret`, `wfi`).
    System,
    /// Memory/instruction fences.
    Fence,
    /// Floating-point load.
    FpLoad,
    /// Floating-point store.
    FpStore,
    /// Floating-point arithmetic (add/sub/mul/min/max/sign/convert/compare).
    FpAlu,
    /// Floating-point divide and square root.
    FpDiv,
}

impl InsnClass {
    /// All instruction classes.
    pub const ALL: [InsnClass; 14] = [
        InsnClass::Alu,
        InsnClass::Mul,
        InsnClass::Div,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Branch,
        InsnClass::Jump,
        InsnClass::Csr,
        InsnClass::System,
        InsnClass::Fence,
        InsnClass::FpLoad,
        InsnClass::FpStore,
        InsnClass::FpAlu,
        InsnClass::FpDiv,
    ];
}

impl fmt::Display for InsnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

macro_rules! insn_kinds {
    ($( $variant:ident => $mnemonic:literal, $ext:ident, $class:ident ; )+) => {
        /// An architectural instruction type.
        ///
        /// Compressed encodings decode to their expanded base kind; the
        /// original 16-bit encoding is recorded separately as a [`CKind`] on
        /// the decoded [`Insn`](crate::Insn).
        ///
        /// # Examples
        ///
        /// ```
        /// use s4e_isa::{InsnKind, InsnClass};
        /// assert_eq!(InsnKind::Lw.mnemonic(), "lw");
        /// assert_eq!(InsnKind::Lw.class(), InsnClass::Load);
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum InsnKind {
            $(
                #[doc = concat!("The `", $mnemonic, "` instruction.")]
                $variant
            ),+
        }

        impl InsnKind {
            /// Every instruction type known to the ecosystem, in catalog order.
            pub const ALL: &'static [InsnKind] = &[ $(InsnKind::$variant),+ ];

            /// The assembly mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self { $(InsnKind::$variant => $mnemonic),+ }
            }

            /// The ISA module this instruction type belongs to.
            pub const fn extension(self) -> Extension {
                match self { $(InsnKind::$variant => Extension::$ext),+ }
            }

            /// The timing/behaviour class.
            pub const fn class(self) -> InsnClass {
                match self { $(InsnKind::$variant => InsnClass::$class),+ }
            }
        }
    };
}

insn_kinds! {
    // RV32I base
    Lui    => "lui",    I, Alu;
    Auipc  => "auipc",  I, Alu;
    Jal    => "jal",    I, Jump;
    Jalr   => "jalr",   I, Jump;
    Beq    => "beq",    I, Branch;
    Bne    => "bne",    I, Branch;
    Blt    => "blt",    I, Branch;
    Bge    => "bge",    I, Branch;
    Bltu   => "bltu",   I, Branch;
    Bgeu   => "bgeu",   I, Branch;
    Lb     => "lb",     I, Load;
    Lh     => "lh",     I, Load;
    Lw     => "lw",     I, Load;
    Lbu    => "lbu",    I, Load;
    Lhu    => "lhu",    I, Load;
    Sb     => "sb",     I, Store;
    Sh     => "sh",     I, Store;
    Sw     => "sw",     I, Store;
    Addi   => "addi",   I, Alu;
    Slti   => "slti",   I, Alu;
    Sltiu  => "sltiu",  I, Alu;
    Xori   => "xori",   I, Alu;
    Ori    => "ori",    I, Alu;
    Andi   => "andi",   I, Alu;
    Slli   => "slli",   I, Alu;
    Srli   => "srli",   I, Alu;
    Srai   => "srai",   I, Alu;
    Add    => "add",    I, Alu;
    Sub    => "sub",    I, Alu;
    Sll    => "sll",    I, Alu;
    Slt    => "slt",    I, Alu;
    Sltu   => "sltu",   I, Alu;
    Xor    => "xor",    I, Alu;
    Srl    => "srl",    I, Alu;
    Sra    => "sra",    I, Alu;
    Or     => "or",     I, Alu;
    And    => "and",    I, Alu;
    Fence  => "fence",  I, Fence;
    Ecall  => "ecall",  I, System;
    Ebreak => "ebreak", I, System;
    Mret   => "mret",   I, System;
    Wfi    => "wfi",    I, System;
    // Zifencei
    FenceI => "fence.i", Zifencei, Fence;
    // Zicsr
    Csrrw  => "csrrw",  Zicsr, Csr;
    Csrrs  => "csrrs",  Zicsr, Csr;
    Csrrc  => "csrrc",  Zicsr, Csr;
    Csrrwi => "csrrwi", Zicsr, Csr;
    Csrrsi => "csrrsi", Zicsr, Csr;
    Csrrci => "csrrci", Zicsr, Csr;
    // M
    Mul    => "mul",    M, Mul;
    Mulh   => "mulh",   M, Mul;
    Mulhsu => "mulhsu", M, Mul;
    Mulhu  => "mulhu",  M, Mul;
    Div    => "div",    M, Div;
    Divu   => "divu",   M, Div;
    Rem    => "rem",    M, Div;
    Remu   => "remu",   M, Div;
    // F (single precision, executable subset; no fused multiply-add)
    Flw     => "flw",      F, FpLoad;
    Fsw     => "fsw",      F, FpStore;
    FaddS   => "fadd.s",   F, FpAlu;
    FsubS   => "fsub.s",   F, FpAlu;
    FmulS   => "fmul.s",   F, FpAlu;
    FdivS   => "fdiv.s",   F, FpDiv;
    FsqrtS  => "fsqrt.s",  F, FpDiv;
    FsgnjS  => "fsgnj.s",  F, FpAlu;
    FsgnjnS => "fsgnjn.s", F, FpAlu;
    FsgnjxS => "fsgnjx.s", F, FpAlu;
    FminS   => "fmin.s",   F, FpAlu;
    FmaxS   => "fmax.s",   F, FpAlu;
    FcvtWS  => "fcvt.w.s", F, FpAlu;
    FcvtWuS => "fcvt.wu.s", F, FpAlu;
    FmvXW   => "fmv.x.w",  F, FpAlu;
    FeqS    => "feq.s",    F, FpAlu;
    FltS    => "flt.s",    F, FpAlu;
    FleS    => "fle.s",    F, FpAlu;
    FclassS => "fclass.s", F, FpAlu;
    FcvtSW  => "fcvt.s.w", F, FpAlu;
    FcvtSWu => "fcvt.s.wu", F, FpAlu;
    FmvWX   => "fmv.w.x",  F, FpAlu;
    // Xbmi — the ten advanced BMIs of the PATMOS 2019 paper, at Zbb/Zbs
    // code points
    Clz    => "clz",    Xbmi, Alu;
    Ctz    => "ctz",    Xbmi, Alu;
    Pcnt   => "pcnt",   Xbmi, Alu;
    Andn   => "andn",   Xbmi, Alu;
    Orn    => "orn",    Xbmi, Alu;
    Xnor   => "xnor",   Xbmi, Alu;
    Rol    => "rol",    Xbmi, Alu;
    Ror    => "ror",    Xbmi, Alu;
    Rev8   => "rev8",   Xbmi, Alu;
    Bext   => "bext",   Xbmi, Alu;
}

impl InsnKind {
    /// Whether this is a conditional branch.
    pub const fn is_branch(self) -> bool {
        matches!(self.class(), InsnClass::Branch)
    }

    /// Whether this is an unconditional jump.
    pub const fn is_jump(self) -> bool {
        matches!(self.class(), InsnClass::Jump)
    }

    /// Whether this instruction ends a basic block: branches, jumps,
    /// system instructions that redirect control flow, and `fence.i`
    /// (which invalidates translated code, so execution must not continue
    /// from a stale block).
    pub const fn ends_block(self) -> bool {
        matches!(
            self.class(),
            InsnClass::Branch | InsnClass::Jump | InsnClass::System
        ) || matches!(self, InsnKind::FenceI)
    }

    /// Whether this instruction reads memory.
    pub const fn is_load(self) -> bool {
        matches!(self.class(), InsnClass::Load | InsnClass::FpLoad)
    }

    /// Whether this instruction writes memory.
    pub const fn is_store(self) -> bool {
        matches!(self.class(), InsnClass::Store | InsnClass::FpStore)
    }
}

impl fmt::Display for InsnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

macro_rules! c_kinds {
    ($( $variant:ident => $mnemonic:literal ; )+) => {
        /// A compressed (C-extension) encoding.
        ///
        /// Compressed instructions decode to an expanded base [`InsnKind`];
        /// this enum preserves *which* 16-bit encoding produced it, so the
        /// coverage metric can report per-encoding rows for the C module.
        ///
        /// # Examples
        ///
        /// ```
        /// use s4e_isa::CKind;
        /// assert_eq!(CKind::CAddi.mnemonic(), "c.addi");
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum CKind {
            $(
                #[doc = concat!("The `", $mnemonic, "` encoding.")]
                $variant
            ),+
        }

        impl CKind {
            /// Every compressed encoding known to the ecosystem.
            pub const ALL: &'static [CKind] = &[ $(CKind::$variant),+ ];

            /// The assembly mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self { $(CKind::$variant => $mnemonic),+ }
            }
        }
    };
}

c_kinds! {
    CAddi4spn => "c.addi4spn";
    CLw       => "c.lw";
    CSw       => "c.sw";
    CFlw      => "c.flw";
    CFsw      => "c.fsw";
    CNop      => "c.nop";
    CAddi     => "c.addi";
    CJal      => "c.jal";
    CLi       => "c.li";
    CAddi16sp => "c.addi16sp";
    CLui      => "c.lui";
    CSrli     => "c.srli";
    CSrai     => "c.srai";
    CAndi     => "c.andi";
    CSub      => "c.sub";
    CXor      => "c.xor";
    COr       => "c.or";
    CAnd      => "c.and";
    CJ        => "c.j";
    CBeqz     => "c.beqz";
    CBnez     => "c.bnez";
    CSlli     => "c.slli";
    CLwsp     => "c.lwsp";
    CFlwsp    => "c.flwsp";
    CJr       => "c.jr";
    CMv       => "c.mv";
    CEbreak   => "c.ebreak";
    CJalr     => "c.jalr";
    CAdd      => "c.add";
    CSwsp     => "c.swsp";
    CFswsp    => "c.fswsp";
}

impl fmt::Display for CKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The set of ISA modules a core configuration implements.
///
/// Decoding is configuration-sensitive: an instruction from a disabled
/// module decodes to [`DecodeError::Unsupported`](crate::DecodeError),
/// which is how the fault and coverage experiments scale across RV32I /
/// RV32IM / RV32IMC subsets.
///
/// # Examples
///
/// ```
/// use s4e_isa::{Extension, IsaConfig};
///
/// let isa = IsaConfig::rv32im();
/// assert!(isa.has(Extension::M));
/// assert!(!isa.has(Extension::C));
/// assert_eq!(isa.isa_string(), "RV32IMZicsr_Zifencei");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaConfig {
    mask: u8,
}

impl IsaConfig {
    const fn bit(ext: Extension) -> u8 {
        1 << ext as u8
    }

    /// The base configuration: RV32I with Zicsr and Zifencei.
    pub const fn rv32i() -> IsaConfig {
        IsaConfig {
            mask: Self::bit(Extension::I)
                | Self::bit(Extension::Zicsr)
                | Self::bit(Extension::Zifencei),
        }
    }

    /// RV32IM (plus Zicsr/Zifencei).
    pub const fn rv32im() -> IsaConfig {
        IsaConfig::rv32i().with(Extension::M)
    }

    /// RV32IMC (plus Zicsr/Zifencei).
    pub const fn rv32imc() -> IsaConfig {
        IsaConfig::rv32im().with(Extension::C)
    }

    /// RV32IMFC (plus Zicsr/Zifencei) — the full configuration used by the
    /// coverage experiment.
    pub const fn rv32imfc() -> IsaConfig {
        IsaConfig::rv32imc().with(Extension::F)
    }

    /// Everything, including the custom BMI extension.
    pub const fn full() -> IsaConfig {
        IsaConfig::rv32imfc().with(Extension::Xbmi)
    }

    /// Returns a copy of this configuration with `ext` enabled.
    #[must_use]
    pub const fn with(self, ext: Extension) -> IsaConfig {
        IsaConfig {
            mask: self.mask | Self::bit(ext),
        }
    }

    /// Returns a copy of this configuration with `ext` disabled.
    ///
    /// Disabling [`Extension::I`] yields a configuration that rejects every
    /// instruction; this is permitted (it is occasionally useful in tests)
    /// but never produced by the named constructors.
    #[must_use]
    pub const fn without(self, ext: Extension) -> IsaConfig {
        IsaConfig {
            mask: self.mask & !Self::bit(ext),
        }
    }

    /// Whether `ext` is enabled.
    pub const fn has(self, ext: Extension) -> bool {
        self.mask & Self::bit(ext) != 0
    }

    /// Iterates over the enabled extensions in canonical order.
    pub fn extensions(self) -> impl Iterator<Item = Extension> {
        Extension::ALL.into_iter().filter(move |e| self.has(*e))
    }

    /// The ISA string, e.g. `RV32IMCZicsr_Zifencei`.
    pub fn isa_string(self) -> String {
        let mut s = String::from("RV32");
        for ext in [Extension::I, Extension::M, Extension::F, Extension::C] {
            if self.has(ext) {
                s.push_str(ext.name());
            }
        }
        let mut z: Vec<&str> = Vec::new();
        for ext in [Extension::Zicsr, Extension::Zifencei, Extension::Xbmi] {
            if self.has(ext) {
                z.push(ext.name());
            }
        }
        s.push_str(&z.join("_"));
        s
    }
}

impl Default for IsaConfig {
    fn default() -> Self {
        IsaConfig::rv32imc()
    }
}

impl fmt::Display for IsaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.isa_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_catalog_is_unique() {
        let mut mnems: Vec<_> = InsnKind::ALL.iter().map(|k| k.mnemonic()).collect();
        mnems.sort();
        let before = mnems.len();
        mnems.dedup();
        assert_eq!(before, mnems.len(), "duplicate mnemonics in catalog");
    }

    #[test]
    fn kind_counts_per_extension() {
        let count = |e: Extension| InsnKind::ALL.iter().filter(|k| k.extension() == e).count();
        assert_eq!(count(Extension::I), 42);
        assert_eq!(count(Extension::M), 8);
        assert_eq!(count(Extension::Zicsr), 6);
        assert_eq!(count(Extension::Zifencei), 1);
        assert_eq!(count(Extension::F), 22);
        assert_eq!(count(Extension::Xbmi), 10);
    }

    #[test]
    fn ckind_catalog() {
        assert_eq!(CKind::ALL.len(), 31);
        let mut m: Vec<_> = CKind::ALL.iter().map(|k| k.mnemonic()).collect();
        m.sort();
        m.dedup();
        assert_eq!(m.len(), 31);
    }

    #[test]
    fn block_enders() {
        assert!(InsnKind::Beq.ends_block());
        assert!(InsnKind::Jal.ends_block());
        assert!(InsnKind::Ecall.ends_block());
        assert!(!InsnKind::Add.ends_block());
        assert!(!InsnKind::Lw.ends_block());
    }

    #[test]
    fn isa_config_subsets() {
        let i = IsaConfig::rv32i();
        assert!(i.has(Extension::I) && i.has(Extension::Zicsr));
        assert!(!i.has(Extension::M) && !i.has(Extension::C));
        let imc = IsaConfig::rv32imc();
        assert!(imc.has(Extension::M) && imc.has(Extension::C));
        assert!(!imc.has(Extension::F));
        assert!(IsaConfig::full().has(Extension::Xbmi));
    }

    #[test]
    fn isa_config_with_without_roundtrip() {
        let c = IsaConfig::rv32i().with(Extension::M).without(Extension::M);
        assert_eq!(c, IsaConfig::rv32i());
    }

    #[test]
    fn isa_strings() {
        assert_eq!(IsaConfig::rv32i().isa_string(), "RV32IZicsr_Zifencei");
        assert_eq!(IsaConfig::rv32imc().isa_string(), "RV32IMCZicsr_Zifencei");
        assert_eq!(
            IsaConfig::full().isa_string(),
            "RV32IMFCZicsr_Zifencei_Xbmi"
        );
    }

    #[test]
    fn class_of_every_kind_is_consistent_with_predicates() {
        for &k in InsnKind::ALL {
            if k.is_load() {
                assert!(!k.is_store(), "{k} is both load and store");
            }
            if k.is_branch() {
                assert!(k.ends_block());
            }
        }
    }
}
