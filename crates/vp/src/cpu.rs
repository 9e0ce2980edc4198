//! The CPU architectural state: program counter, register files, CSRs,
//! counters, and the permanent-fault (stuck-bit) masks used by the fault
//! campaigns.

use crate::trap::Trap;
use s4e_isa::{Csr, Extension, Fpr, Gpr, IsaConfig};

/// `mstatus.MIE` bit position.
const MSTATUS_MIE: u32 = 1 << 3;
/// `mstatus.MPIE` bit position.
const MSTATUS_MPIE: u32 = 1 << 7;
/// `mstatus.MPP` field (always M-mode here).
const MSTATUS_MPP: u32 = 0b11 << 11;

/// The permanent-fault (stuck-at) mask table: a GPR read returns
/// `(raw | one[r]) & keep[r]`. Laid out for the masked template JIT,
/// which addresses it from one base register pointing at `keep`: with
/// `one` immediately before it, `one[r]` sits at byte displacement
/// `4 * r - 128` and `keep[r]` at `4 * r`, both within a signed 8-bit
/// displacement.
#[repr(C)]
#[derive(Debug, Clone)]
struct GprMasks {
    /// Bits forced to 1.
    one: [u32; 32],
    /// Bits passed through; a cleared bit is stuck at 0.
    keep: [u32; 32],
}

const _: () = assert!(std::mem::offset_of!(GprMasks, keep) == 128);

impl GprMasks {
    const CLEAR: GprMasks = GprMasks {
        one: [0; 32],
        keep: [u32::MAX; 32],
    };
}

/// The architectural state of the single RV32 hart.
///
/// All register access goes through accessors so that the permanent-fault
/// masks (stuck-at bits planted by the fault-injection campaign) are applied
/// uniformly — including to the plugins observing the state.
///
/// # Examples
///
/// ```
/// use s4e_vp::Cpu;
/// use s4e_isa::{Gpr, IsaConfig};
///
/// let mut cpu = Cpu::new(IsaConfig::rv32imc(), 0x8000_0000);
/// cpu.set_gpr(Gpr::A0, 42);
/// assert_eq!(cpu.gpr(Gpr::A0), 42);
/// cpu.set_gpr(Gpr::ZERO, 99); // x0 is hardwired
/// assert_eq!(cpu.gpr(Gpr::ZERO), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pc: u32,
    gprs: [u32; 32],
    fprs: [u32; 32],
    isa: IsaConfig,
    cycles: u64,
    instret: u64,
    // machine CSRs
    mstatus: u32,
    mie: u32,
    mip: u32,
    mtvec: u32,
    mscratch: u32,
    mepc: u32,
    mcause: u32,
    mtval: u32,
    fcsr: u32,
    // permanent-fault (stuck-at) masks, applied on GPR read
    faults_enabled: bool,
    masks: GprMasks,
}

impl Cpu {
    /// Creates a hart with the given ISA configuration and reset PC.
    pub fn new(isa: IsaConfig, reset_pc: u32) -> Cpu {
        Cpu {
            pc: reset_pc,
            gprs: [0; 32],
            fprs: [0; 32],
            isa,
            cycles: 0,
            instret: 0,
            mstatus: MSTATUS_MPP,
            mie: 0,
            mip: 0,
            mtvec: 0,
            mscratch: 0,
            mepc: 0,
            mcause: 0,
            mtval: 0,
            fcsr: 0,
            faults_enabled: false,
            masks: GprMasks::CLEAR,
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The ISA configuration of this hart.
    pub fn isa(&self) -> &IsaConfig {
        &self.isa
    }

    /// Reads a general-purpose register (stuck-bit faults applied).
    #[inline]
    pub fn gpr(&self, reg: Gpr) -> u32 {
        let i = reg.index() as usize;
        let v = self.gprs[i];
        if self.faults_enabled {
            (v | self.masks.one[i]) & self.masks.keep[i]
        } else {
            v
        }
    }

    /// Writes a general-purpose register; writes to `x0` are discarded.
    #[inline]
    pub fn set_gpr(&mut self, reg: Gpr, value: u32) {
        if reg != Gpr::ZERO {
            self.gprs[reg.index() as usize] = value;
        }
    }

    /// Raw pointer to the GPR file for the template JIT. Compiled code
    /// writes `gprs[1..32]` directly (never slot 0, preserving the
    /// hard-wired `x0`). The plain engine reads the file raw, so the
    /// dispatcher runs it only while
    /// [`faults_enabled`](Cpu::faults_enabled) is false; with masks
    /// armed it runs the masked engine, which filters reads of the
    /// [`armed_gprs`](Cpu::armed_gprs) through
    /// [`gpr_masks_ptr`](Cpu::gpr_masks_ptr) and reads the rest raw.
    pub(crate) fn gprs_ptr(&mut self) -> *mut u32 {
        self.gprs.as_mut_ptr()
    }

    /// The registers with a non-trivial stuck-at mask, bit `r` for
    /// `x<r>`: those with `one[r] != 0` or `keep[r] != !0`. A read of
    /// any other register passes its raw value through the masks
    /// unchanged, so the masked template JIT reads only these through
    /// the table.
    pub(crate) fn armed_gprs(&self) -> u32 {
        (0..32)
            .filter(|&r| self.masks.one[r] != 0 || self.masks.keep[r] != u32::MAX)
            .fold(0, |set, r| set | 1 << r)
    }

    /// Raw pointer to `keep[0]` of the stuck-at mask table, for the
    /// masked template JIT: `keep[r]` is at byte offset `4 * r` and
    /// `one[r]` at `4 * r - 128` (see `GprMasks`). Compiled code only
    /// reads through it.
    pub(crate) fn gpr_masks_ptr(&self) -> *const u32 {
        self.masks.keep.as_ptr()
    }

    /// Reads a floating-point register (raw bits).
    #[inline]
    pub fn fpr(&self, reg: Fpr) -> u32 {
        self.fprs[reg.index() as usize]
    }

    /// Writes a floating-point register (raw bits).
    #[inline]
    pub fn set_fpr(&mut self, reg: Fpr, value: u32) {
        self.fprs[reg.index() as usize] = value;
    }

    /// The cycle counter.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances the cycle counter.
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles = self.cycles.wrapping_add(n);
    }

    /// The retired-instruction counter.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    pub(crate) fn retire(&mut self) {
        self.instret = self.instret.wrapping_add(1);
    }

    /// Retires `n` instructions at once (the micro-op engine's batched
    /// accounting path).
    pub(crate) fn retire_n(&mut self, n: u64) {
        self.instret = self.instret.wrapping_add(n);
    }

    /// Whether injected register fault masks are active — i.e. whether
    /// [`gpr`](Cpu::gpr) reads are being filtered through stuck-at masks.
    pub fn faults_enabled(&self) -> bool {
        self.faults_enabled
    }

    /// Folds every field of the architectural state (including the
    /// stuck-at fault masks, excluding the immutable ISA configuration)
    /// into an FNV-1a accumulator. Two CPUs fold to the same value iff
    /// they would behave identically from here on under the same bus —
    /// the CPU half of [`VpSnapshot::fingerprint`](crate::VpSnapshot::fingerprint).
    pub(crate) fn fold_state(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let byte = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
        let word = |h: u64, v: u32| v.to_le_bytes().iter().fold(h, |h, &b| byte(h, b));
        let dword = |h: u64, v: u64| word(word(h, v as u32), (v >> 32) as u32);
        h = word(h, self.pc);
        for &r in &self.gprs {
            h = word(h, r);
        }
        for &r in &self.fprs {
            h = word(h, r);
        }
        h = dword(h, self.cycles);
        h = dword(h, self.instret);
        for v in [
            self.mstatus,
            self.mie,
            self.mip,
            self.mtvec,
            self.mscratch,
            self.mepc,
            self.mcause,
            self.mtval,
            self.fcsr,
        ] {
            h = word(h, v);
        }
        h = word(h, u32::from(self.faults_enabled));
        // Folded as (stuck-at-1, stuck-at-0) bits, so fingerprints do not
        // depend on the table's `keep` representation.
        for &m in &self.masks.one {
            h = word(h, m);
        }
        for &k in &self.masks.keep {
            h = word(h, !k);
        }
        h
    }

    /// Updates the externally-driven interrupt-pending bits (from the bus).
    pub fn set_mip(&mut self, bits: u32) {
        self.mip = bits;
    }

    /// The highest-priority enabled pending interrupt, if interrupts are
    /// globally enabled.
    pub fn pending_interrupt(&self) -> Option<Trap> {
        if self.mstatus & MSTATUS_MIE == 0 {
            return None;
        }
        let active = self.mie & self.mip;
        if active & (1 << 11) != 0 {
            Some(Trap::MachineExternalInterrupt)
        } else if active & (1 << 3) != 0 {
            Some(Trap::MachineSoftInterrupt)
        } else if active & (1 << 7) != 0 {
            Some(Trap::MachineTimerInterrupt)
        } else {
            None
        }
    }

    /// Whether the machine timer interrupt is enabled in `mie`.
    pub fn timer_interrupt_enabled(&self) -> bool {
        self.mie & (1 << 7) != 0
    }

    /// Whether an enabled interrupt is pending regardless of the global
    /// `mstatus.MIE` bit — the `wfi` wake-up condition.
    pub fn wfi_wake_pending(&self) -> bool {
        self.mie & self.mip != 0
    }

    /// Whether interrupts are globally enabled (`mstatus.MIE`).
    pub fn interrupts_enabled(&self) -> bool {
        self.mstatus & MSTATUS_MIE != 0
    }

    /// Enters a trap: saves state, disables interrupts and redirects the PC
    /// according to `mtvec`.
    ///
    /// Returns `false` (and leaves the state untouched) when no trap vector
    /// is installed (`mtvec == 0`), which the run loop reports as a fatal
    /// outcome — this is how fault campaigns observe crashes.
    pub(crate) fn enter_trap(&mut self, trap: Trap) -> bool {
        if self.mtvec & !0b11 == 0 {
            return false;
        }
        self.mepc = self.pc;
        self.mcause = trap.mcause();
        self.mtval = trap.mtval();
        let mie = self.mstatus & MSTATUS_MIE != 0;
        self.mstatus &= !(MSTATUS_MIE | MSTATUS_MPIE);
        if mie {
            self.mstatus |= MSTATUS_MPIE;
        }
        let base = self.mtvec & !0b11;
        self.pc = if self.mtvec & 0b11 == 1 && trap.is_interrupt() {
            base + 4 * (trap.mcause() & 0x7fff_ffff)
        } else {
            base
        };
        true
    }

    /// Executes the `mret` state restoration and returns the new PC.
    pub(crate) fn leave_trap(&mut self) -> u32 {
        let mpie = self.mstatus & MSTATUS_MPIE != 0;
        self.mstatus &= !MSTATUS_MIE;
        if mpie {
            self.mstatus |= MSTATUS_MIE;
        }
        self.mstatus |= MSTATUS_MPIE;
        self.mepc
    }

    /// The machine exception PC (`mepc`).
    pub fn mepc(&self) -> u32 {
        self.mepc
    }

    /// The machine trap cause (`mcause`).
    pub fn mcause(&self) -> u32 {
        self.mcause
    }

    /// Reads a CSR. Returns `None` for unimplemented addresses (the
    /// executor raises an illegal-instruction trap).
    pub fn csr_read(&self, csr: Csr) -> Option<u32> {
        Some(match csr {
            Csr::MSTATUS => self.mstatus,
            Csr::MISA => self.misa_value(),
            Csr::MIE => self.mie,
            Csr::MTVEC => self.mtvec,
            Csr::MSCRATCH => self.mscratch,
            Csr::MEPC => self.mepc,
            Csr::MCAUSE => self.mcause,
            Csr::MTVAL => self.mtval,
            Csr::MIP => self.mip,
            Csr::MCYCLE => self.cycles as u32,
            Csr::MCYCLEH => (self.cycles >> 32) as u32,
            Csr::MINSTRET => self.instret as u32,
            Csr::MINSTRETH => (self.instret >> 32) as u32,
            Csr::CYCLE => self.cycles as u32,
            Csr::TIME => self.cycles as u32,
            Csr::INSTRET => self.instret as u32,
            Csr::MVENDORID | Csr::MARCHID | Csr::MIMPID | Csr::MHARTID => 0,
            Csr::FFLAGS if self.isa.has(Extension::F) => self.fcsr & 0x1f,
            Csr::FRM if self.isa.has(Extension::F) => (self.fcsr >> 5) & 0b111,
            Csr::FCSR if self.isa.has(Extension::F) => self.fcsr,
            _ => return None,
        })
    }

    /// Writes a CSR. Returns `None` for unimplemented or read-only
    /// addresses (the executor raises an illegal-instruction trap).
    pub fn csr_write(&mut self, csr: Csr, value: u32) -> Option<()> {
        if csr.is_read_only() {
            return None;
        }
        match csr {
            Csr::MSTATUS => {
                self.mstatus = (value & (MSTATUS_MIE | MSTATUS_MPIE)) | MSTATUS_MPP;
            }
            Csr::MISA => {} // WARL, fixed
            Csr::MIE => self.mie = value & ((1 << 3) | (1 << 7) | (1 << 11)),
            Csr::MTVEC => self.mtvec = value & !0b10,
            Csr::MSCRATCH => self.mscratch = value,
            Csr::MEPC => self.mepc = value & !0b1,
            Csr::MCAUSE => self.mcause = value,
            Csr::MTVAL => self.mtval = value,
            Csr::MIP => {} // all bits are hardware-driven here
            Csr::MCYCLE => self.cycles = (self.cycles & !0xffff_ffff) | value as u64,
            Csr::MCYCLEH => {
                self.cycles = (self.cycles & 0xffff_ffff) | ((value as u64) << 32);
            }
            Csr::MINSTRET => self.instret = (self.instret & !0xffff_ffff) | value as u64,
            Csr::MINSTRETH => {
                self.instret = (self.instret & 0xffff_ffff) | ((value as u64) << 32);
            }
            Csr::FFLAGS if self.isa.has(Extension::F) => {
                self.fcsr = (self.fcsr & !0x1f) | (value & 0x1f);
            }
            Csr::FRM if self.isa.has(Extension::F) => {
                self.fcsr = (self.fcsr & !0xe0) | ((value & 0b111) << 5);
            }
            Csr::FCSR if self.isa.has(Extension::F) => self.fcsr = value & 0xff,
            _ => return None,
        }
        Some(())
    }

    fn misa_value(&self) -> u32 {
        let mut v = 1 << 30; // MXL = 32
        if self.isa.has(Extension::I) {
            v |= 1 << 8;
        }
        if self.isa.has(Extension::M) {
            v |= 1 << 12;
        }
        if self.isa.has(Extension::F) {
            v |= 1 << 5;
        }
        if self.isa.has(Extension::C) {
            v |= 1 << 2;
        }
        v
    }

    // ------------------------------------------------------ fault injection

    /// Plants a permanent stuck-at fault: `bit` of `reg` is forced to
    /// `stuck_value` on every read until [`clear_faults`](Cpu::clear_faults).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn plant_gpr_fault(&mut self, reg: Gpr, bit: u8, stuck_value: bool) {
        assert!(bit < 32, "bit index out of range");
        let i = reg.index() as usize;
        let mask = 1u32 << bit;
        if stuck_value {
            self.masks.one[i] |= mask;
            self.masks.keep[i] |= mask;
        } else {
            self.masks.keep[i] &= !mask;
            self.masks.one[i] &= !mask;
        }
        self.faults_enabled = true;
    }

    /// Flips `bit` of `reg` once (a transient single-event upset).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn flip_gpr_bit(&mut self, reg: Gpr, bit: u8) {
        assert!(bit < 32, "bit index out of range");
        if reg != Gpr::ZERO {
            self.gprs[reg.index() as usize] ^= 1 << bit;
        }
    }

    /// Flips `bit` of floating-point register `reg` once.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn flip_fpr_bit(&mut self, reg: Fpr, bit: u8) {
        assert!(bit < 32, "bit index out of range");
        self.fprs[reg.index() as usize] ^= 1 << bit;
    }

    /// Forces `bit` of floating-point register `reg` to `value` (used to
    /// approximate stuck-at faults at injection time).
    pub fn set_fpr_bit(&mut self, reg: Fpr, bit: u8, value: bool) {
        assert!(bit < 32, "bit index out of range");
        let mask = 1u32 << bit;
        if value {
            self.fprs[reg.index() as usize] |= mask;
        } else {
            self.fprs[reg.index() as usize] &= !mask;
        }
    }

    /// Removes all planted permanent faults.
    pub fn clear_faults(&mut self) {
        self.masks = GprMasks::CLEAR;
        self.faults_enabled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        Cpu::new(IsaConfig::rv32imfc(), 0x8000_0000)
    }

    #[test]
    fn x0_hardwired() {
        let mut c = cpu();
        c.set_gpr(Gpr::ZERO, 5);
        assert_eq!(c.gpr(Gpr::ZERO), 0);
    }

    #[test]
    fn csr_counters() {
        let mut c = cpu();
        c.add_cycles(0x1_0000_0005);
        assert_eq!(c.csr_read(Csr::MCYCLE), Some(5));
        assert_eq!(c.csr_read(Csr::MCYCLEH), Some(1));
        c.csr_write(Csr::MCYCLE, 100).unwrap();
        assert_eq!(c.cycles(), 0x1_0000_0064);
    }

    #[test]
    fn csr_read_only_rejected() {
        let mut c = cpu();
        assert_eq!(c.csr_write(Csr::MHARTID, 1), None);
        assert_eq!(c.csr_write(Csr::CYCLE, 1), None);
        assert_eq!(c.csr_read(Csr::MHARTID), Some(0));
    }

    #[test]
    fn unimplemented_csr() {
        let mut c = cpu();
        assert_eq!(c.csr_read(Csr::new(0x7c0)), None);
        assert_eq!(c.csr_write(Csr::new(0x7c0), 1), None);
    }

    #[test]
    fn fp_csrs_gated_on_f() {
        let mut with_f = cpu();
        assert_eq!(with_f.csr_read(Csr::FCSR), Some(0));
        with_f.csr_write(Csr::FRM, 0b101).unwrap();
        assert_eq!(with_f.csr_read(Csr::FRM), Some(0b101));
        assert_eq!(with_f.csr_read(Csr::FCSR), Some(0b101 << 5));
        let without_f = Cpu::new(IsaConfig::rv32imc(), 0);
        assert_eq!(without_f.csr_read(Csr::FCSR), None);
    }

    #[test]
    fn misa_reflects_config() {
        let c = cpu();
        let misa = c.csr_read(Csr::MISA).unwrap();
        assert_ne!(misa & (1 << 8), 0, "I bit");
        assert_ne!(misa & (1 << 12), 0, "M bit");
        assert_ne!(misa & (1 << 5), 0, "F bit");
        assert_ne!(misa & (1 << 2), 0, "C bit");
        assert_eq!(misa >> 30, 1, "MXL=32");
    }

    #[test]
    fn trap_entry_and_return() {
        let mut c = cpu();
        c.csr_write(Csr::MTVEC, 0x8000_0100).unwrap();
        c.csr_write(Csr::MSTATUS, MSTATUS_MIE).unwrap();
        c.set_pc(0x8000_0040);
        assert!(c.enter_trap(Trap::EcallM));
        assert_eq!(c.pc(), 0x8000_0100);
        assert_eq!(c.mepc(), 0x8000_0040);
        assert_eq!(c.mcause(), 11);
        assert!(!c.interrupts_enabled());
        let back = c.leave_trap();
        assert_eq!(back, 0x8000_0040);
        assert!(c.interrupts_enabled());
    }

    #[test]
    fn trap_without_vector_fails() {
        let mut c = cpu();
        assert!(!c.enter_trap(Trap::EcallM));
        assert_eq!(c.mcause(), 0, "state untouched");
    }

    #[test]
    fn vectored_interrupts() {
        let mut c = cpu();
        c.csr_write(Csr::MTVEC, 0x8000_0100 | 1).unwrap();
        assert!(c.enter_trap(Trap::MachineTimerInterrupt));
        assert_eq!(c.pc(), 0x8000_0100 + 4 * 7);
        // Synchronous traps still go to base in vectored mode.
        let mut c = cpu();
        c.csr_write(Csr::MTVEC, 0x8000_0100 | 1).unwrap();
        assert!(c.enter_trap(Trap::EcallM));
        assert_eq!(c.pc(), 0x8000_0100);
    }

    #[test]
    fn interrupt_priority() {
        let mut c = cpu();
        c.csr_write(Csr::MSTATUS, MSTATUS_MIE).unwrap();
        c.csr_write(Csr::MIE, (1 << 3) | (1 << 7) | (1 << 11))
            .unwrap();
        c.set_mip((1 << 7) | (1 << 3));
        assert_eq!(c.pending_interrupt(), Some(Trap::MachineSoftInterrupt));
        c.set_mip(1 << 7);
        assert_eq!(c.pending_interrupt(), Some(Trap::MachineTimerInterrupt));
        c.set_mip((1 << 11) | (1 << 7));
        assert_eq!(c.pending_interrupt(), Some(Trap::MachineExternalInterrupt));
    }

    #[test]
    fn interrupts_masked_globally() {
        let mut c = cpu();
        c.csr_write(Csr::MIE, 1 << 7).unwrap();
        c.set_mip(1 << 7);
        assert_eq!(c.pending_interrupt(), None); // mstatus.MIE clear
    }

    #[test]
    fn stuck_bit_faults() {
        let mut c = cpu();
        c.set_gpr(Gpr::A0, 0b1010);
        c.plant_gpr_fault(Gpr::A0, 0, true);
        assert_eq!(c.gpr(Gpr::A0), 0b1011);
        c.plant_gpr_fault(Gpr::A0, 3, false);
        assert_eq!(c.gpr(Gpr::A0), 0b0011);
        c.clear_faults();
        assert_eq!(c.gpr(Gpr::A0), 0b1010);
    }

    #[test]
    fn transient_flip() {
        let mut c = cpu();
        c.set_gpr(Gpr::A0, 1);
        c.flip_gpr_bit(Gpr::A0, 4);
        assert_eq!(c.gpr(Gpr::A0), 0b10001);
        c.flip_gpr_bit(Gpr::ZERO, 4);
        assert_eq!(c.gpr(Gpr::ZERO), 0);
    }
}
