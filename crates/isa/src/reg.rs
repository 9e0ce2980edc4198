//! Register identifiers: general-purpose ([`Gpr`]), floating-point
//! ([`Fpr`]) and control-and-status ([`Csr`]) registers.
//!
//! These are newtypes over small integers ([C-NEWTYPE]) so the rest of the
//! ecosystem cannot accidentally confuse a GPR index with an FPR index or a
//! CSR address — a distinction that matters for the register-coverage metric
//! and for fault injection, both of which address registers by identity.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use core::fmt;

/// One of the 32 general-purpose integer registers `x0`–`x31`.
///
/// `x0` is hardwired to zero; writes to it are discarded by the virtual
/// prototype, but the identifier itself is still representable so that
/// decode/encode round-trips preserve the raw instruction word.
///
/// # Examples
///
/// ```
/// use s4e_isa::Gpr;
///
/// let sp = Gpr::new(2).expect("x2 exists");
/// assert_eq!(sp.abi_name(), "sp");
/// assert_eq!(sp.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpr(u8);

impl Gpr {
    /// The zero register `x0`.
    pub const ZERO: Gpr = Gpr(0);
    /// Return address register `x1`/`ra`.
    pub const RA: Gpr = Gpr(1);
    /// Stack pointer `x2`/`sp`.
    pub const SP: Gpr = Gpr(2);
    /// Global pointer `x3`/`gp`.
    pub const GP: Gpr = Gpr(3);
    /// Thread pointer `x4`/`tp`.
    pub const TP: Gpr = Gpr(4);
    /// First argument / return value register `x10`/`a0`.
    pub const A0: Gpr = Gpr(10);
    /// Second argument / return value register `x11`/`a1`.
    pub const A1: Gpr = Gpr(11);

    /// Creates a GPR identifier from a raw index.
    ///
    /// Returns `None` if `index >= 32`.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::Gpr;
    /// assert!(Gpr::new(31).is_some());
    /// assert!(Gpr::new(32).is_none());
    /// ```
    pub const fn new(index: u8) -> Option<Gpr> {
        if index < 32 {
            Some(Gpr(index))
        } else {
            None
        }
    }

    /// Creates a GPR identifier from the low five bits of `index`.
    ///
    /// This matches how register fields are extracted from instruction
    /// words, where the field width already guarantees the range.
    pub const fn from_bits(index: u32) -> Gpr {
        Gpr((index & 0x1f) as u8)
    }

    /// The raw register index in `0..32`.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The ABI mnemonic (`zero`, `ra`, `sp`, …, `t6`).
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::Gpr;
    /// assert_eq!(Gpr::new(10).unwrap().abi_name(), "a0");
    /// ```
    pub const fn abi_name(self) -> &'static str {
        GPR_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 general-purpose registers in index order.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::Gpr;
    /// assert_eq!(Gpr::all().count(), 32);
    /// ```
    pub fn all() -> impl Iterator<Item = Gpr> {
        (0..32).map(Gpr)
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

pub(crate) const GPR_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// One of the 32 floating-point registers `f0`–`f31` (F extension).
///
/// # Examples
///
/// ```
/// use s4e_isa::Fpr;
/// let fa0 = Fpr::new(10).expect("f10 exists");
/// assert_eq!(fa0.abi_name(), "fa0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fpr(u8);

impl Fpr {
    /// Creates an FPR identifier from a raw index.
    ///
    /// Returns `None` if `index >= 32`.
    pub const fn new(index: u8) -> Option<Fpr> {
        if index < 32 {
            Some(Fpr(index))
        } else {
            None
        }
    }

    /// Creates an FPR identifier from the low five bits of `index`.
    pub const fn from_bits(index: u32) -> Fpr {
        Fpr((index & 0x1f) as u8)
    }

    /// The raw register index in `0..32`.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The ABI mnemonic (`ft0`, …, `ft11`).
    pub const fn abi_name(self) -> &'static str {
        FPR_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 floating-point registers in index order.
    pub fn all() -> impl Iterator<Item = Fpr> {
        (0..32).map(Fpr)
    }
}

impl fmt::Display for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

pub(crate) const FPR_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

/// A control-and-status register address (12-bit CSR space).
///
/// Well-known machine-mode CSRs are provided as associated constants; any
/// 12-bit address is representable because the coverage and fault-injection
/// tools must be able to name CSRs that a particular core configuration does
/// not implement.
///
/// # Examples
///
/// ```
/// use s4e_isa::Csr;
/// assert_eq!(Csr::MCYCLE.addr(), 0xB00);
/// assert_eq!(Csr::MCYCLE.name(), Some("mcycle"));
/// assert_eq!(Csr::new(0x123).name(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Csr(u16);

impl Csr {
    /// Machine status register.
    pub const MSTATUS: Csr = Csr(0x300);
    /// Machine ISA register.
    pub const MISA: Csr = Csr(0x301);
    /// Machine interrupt-enable register.
    pub const MIE: Csr = Csr(0x304);
    /// Machine trap-handler base address.
    pub const MTVEC: Csr = Csr(0x305);
    /// Machine scratch register.
    pub const MSCRATCH: Csr = Csr(0x340);
    /// Machine exception program counter.
    pub const MEPC: Csr = Csr(0x341);
    /// Machine trap cause.
    pub const MCAUSE: Csr = Csr(0x342);
    /// Machine bad address or instruction.
    pub const MTVAL: Csr = Csr(0x343);
    /// Machine interrupt-pending register.
    pub const MIP: Csr = Csr(0x344);
    /// Machine cycle counter (low 32 bits).
    pub const MCYCLE: Csr = Csr(0xB00);
    /// Machine instructions-retired counter (low 32 bits).
    pub const MINSTRET: Csr = Csr(0xB02);
    /// Machine cycle counter (high 32 bits).
    pub const MCYCLEH: Csr = Csr(0xB80);
    /// Machine instructions-retired counter (high 32 bits).
    pub const MINSTRETH: Csr = Csr(0xB82);
    /// Vendor id.
    pub const MVENDORID: Csr = Csr(0xF11);
    /// Architecture id.
    pub const MARCHID: Csr = Csr(0xF12);
    /// Implementation id.
    pub const MIMPID: Csr = Csr(0xF13);
    /// Hardware thread id.
    pub const MHARTID: Csr = Csr(0xF14);
    /// User-mode cycle counter alias.
    pub const CYCLE: Csr = Csr(0xC00);
    /// User-mode timer.
    pub const TIME: Csr = Csr(0xC01);
    /// User-mode instret alias.
    pub const INSTRET: Csr = Csr(0xC02);
    /// Floating-point accrued exception flags.
    pub const FFLAGS: Csr = Csr(0x001);
    /// Floating-point rounding mode.
    pub const FRM: Csr = Csr(0x002);
    /// Combined fcsr.
    pub const FCSR: Csr = Csr(0x003);

    /// Creates a CSR identifier from a 12-bit address.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= 0x1000` (the CSR address space is 12 bits).
    pub const fn new(addr: u16) -> Csr {
        assert!(addr < 0x1000, "CSR address space is 12 bits");
        Csr(addr)
    }

    /// Creates a CSR identifier from the low 12 bits of `addr`, as extracted
    /// from an instruction word.
    pub const fn from_bits(addr: u32) -> Csr {
        Csr((addr & 0xfff) as u16)
    }

    /// The 12-bit CSR address.
    pub const fn addr(self) -> u16 {
        self.0
    }

    /// The architectural name, if this is a CSR known to this crate.
    pub const fn name(self) -> Option<&'static str> {
        Some(match self.0 {
            0x001 => "fflags",
            0x002 => "frm",
            0x003 => "fcsr",
            0x300 => "mstatus",
            0x301 => "misa",
            0x304 => "mie",
            0x305 => "mtvec",
            0x340 => "mscratch",
            0x341 => "mepc",
            0x342 => "mcause",
            0x343 => "mtval",
            0x344 => "mip",
            0xB00 => "mcycle",
            0xB02 => "minstret",
            0xB80 => "mcycleh",
            0xB82 => "minstreth",
            0xF11 => "mvendorid",
            0xF12 => "marchid",
            0xF13 => "mimpid",
            0xF14 => "mhartid",
            0xC00 => "cycle",
            0xC01 => "time",
            0xC02 => "instret",
            _ => return None,
        })
    }

    /// Whether a CSR at this address is read-only by encoding convention
    /// (top two address bits both set).
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_isa::Csr;
    /// assert!(Csr::MHARTID.is_read_only());
    /// assert!(!Csr::MSTATUS.is_read_only());
    /// ```
    pub const fn is_read_only(self) -> bool {
        self.0 >> 10 == 0b11
    }

    /// All CSRs implemented by the reference virtual prototype, in address
    /// order. This is the universe used by the register-coverage metric.
    pub fn implemented() -> impl Iterator<Item = Csr> {
        IMPLEMENTED_CSRS.iter().copied()
    }
}

pub(crate) const IMPLEMENTED_CSRS: [Csr; 22] = [
    Csr::FFLAGS,
    Csr::FRM,
    Csr::FCSR,
    Csr::MSTATUS,
    Csr::MISA,
    Csr::MIE,
    Csr::MTVEC,
    Csr::MSCRATCH,
    Csr::MEPC,
    Csr::MCAUSE,
    Csr::MTVAL,
    Csr::MIP,
    Csr::MCYCLE,
    Csr::MINSTRET,
    Csr::MCYCLEH,
    Csr::MINSTRETH,
    Csr::MVENDORID,
    Csr::MARCHID,
    Csr::MIMPID,
    Csr::MHARTID,
    Csr::CYCLE,
    Csr::INSTRET,
];

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(name) => f.write_str(name),
            None => write!(f, "csr{:#05x}", self.0),
        }
    }
}

impl fmt::LowerHex for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_bounds() {
        assert_eq!(Gpr::new(0), Some(Gpr::ZERO));
        assert_eq!(Gpr::new(31).map(|g| g.index()), Some(31));
        assert_eq!(Gpr::new(32), None);
    }

    #[test]
    fn gpr_abi_names_cover_all() {
        let names: Vec<_> = Gpr::all().map(|g| g.abi_name()).collect();
        assert_eq!(names.len(), 32);
        assert_eq!(names[0], "zero");
        assert_eq!(names[8], "s0");
        assert_eq!(names[31], "t6");
    }

    #[test]
    fn gpr_from_bits_masks() {
        assert_eq!(Gpr::from_bits(0x3f), Gpr::new(31).unwrap());
    }

    #[test]
    fn fpr_names() {
        assert_eq!(Fpr::new(0).unwrap().abi_name(), "ft0");
        assert_eq!(Fpr::new(31).unwrap().abi_name(), "ft11");
        assert_eq!(Fpr::new(32), None);
    }

    #[test]
    fn csr_names_and_readonly() {
        assert_eq!(Csr::MSTATUS.name(), Some("mstatus"));
        assert_eq!(Csr::new(0x7c0).name(), None);
        assert!(Csr::MVENDORID.is_read_only());
        assert!(Csr::CYCLE.is_read_only());
        assert!(!Csr::MEPC.is_read_only());
    }

    #[test]
    fn csr_display() {
        assert_eq!(Csr::MEPC.to_string(), "mepc");
        assert_eq!(Csr::new(0x7c0).to_string(), "csr0x7c0");
    }

    #[test]
    #[should_panic(expected = "12 bits")]
    fn csr_new_rejects_wide_addr() {
        let _ = Csr::new(0x1000);
    }

    #[test]
    fn implemented_csrs_sorted_unique() {
        let v: Vec<_> = Csr::implemented().collect();
        let mut sorted = v.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(v.len(), sorted.len());
    }

    #[test]
    fn display_gpr_fpr() {
        assert_eq!(Gpr::SP.to_string(), "sp");
        assert_eq!(Fpr::new(10).unwrap().to_string(), "fa0");
    }
}
