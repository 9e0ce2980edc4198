//! Architectural traps: synchronous exceptions and asynchronous interrupts.

use core::fmt;

/// A synchronous exception or asynchronous interrupt, as recorded in
/// `mcause`.
///
/// # Examples
///
/// ```
/// use s4e_vp::Trap;
/// assert_eq!(Trap::EcallM.mcause(), 11);
/// assert_eq!(Trap::MachineTimerInterrupt.mcause(), 0x8000_0007);
/// assert!(Trap::MachineTimerInterrupt.is_interrupt());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Instruction address misaligned (cause 0).
    InsnMisaligned {
        /// The misaligned target address.
        addr: u32,
    },
    /// Instruction access fault (cause 1).
    InsnAccessFault {
        /// The faulting fetch address.
        addr: u32,
    },
    /// Illegal instruction (cause 2).
    IllegalInsn {
        /// The offending instruction word.
        raw: u32,
    },
    /// Breakpoint / `ebreak` (cause 3).
    Breakpoint,
    /// Load address misaligned (cause 4).
    LoadMisaligned {
        /// The misaligned effective address.
        addr: u32,
    },
    /// Load access fault (cause 5).
    LoadAccessFault {
        /// The faulting effective address.
        addr: u32,
    },
    /// Store address misaligned (cause 6).
    StoreMisaligned {
        /// The misaligned effective address.
        addr: u32,
    },
    /// Store access fault (cause 7).
    StoreAccessFault {
        /// The faulting effective address.
        addr: u32,
    },
    /// Environment call from M-mode (cause 11).
    EcallM,
    /// Machine software interrupt (interrupt 3).
    MachineSoftInterrupt,
    /// Machine timer interrupt (interrupt 7).
    MachineTimerInterrupt,
    /// Machine external interrupt (interrupt 11).
    MachineExternalInterrupt,
}

impl Trap {
    /// Whether this is an asynchronous interrupt (top `mcause` bit set).
    pub const fn is_interrupt(self) -> bool {
        matches!(
            self,
            Trap::MachineSoftInterrupt
                | Trap::MachineTimerInterrupt
                | Trap::MachineExternalInterrupt
        )
    }

    /// The `mcause` CSR value for this trap.
    pub const fn mcause(self) -> u32 {
        match self {
            Trap::InsnMisaligned { .. } => 0,
            Trap::InsnAccessFault { .. } => 1,
            Trap::IllegalInsn { .. } => 2,
            Trap::Breakpoint => 3,
            Trap::LoadMisaligned { .. } => 4,
            Trap::LoadAccessFault { .. } => 5,
            Trap::StoreMisaligned { .. } => 6,
            Trap::StoreAccessFault { .. } => 7,
            Trap::EcallM => 11,
            Trap::MachineSoftInterrupt => 0x8000_0003,
            Trap::MachineTimerInterrupt => 0x8000_0007,
            Trap::MachineExternalInterrupt => 0x8000_000b,
        }
    }

    /// The `mtval` CSR value for this trap (faulting address or
    /// instruction word; zero when the trap carries no value).
    pub const fn mtval(self) -> u32 {
        match self {
            Trap::InsnMisaligned { addr }
            | Trap::InsnAccessFault { addr }
            | Trap::LoadMisaligned { addr }
            | Trap::LoadAccessFault { addr }
            | Trap::StoreMisaligned { addr }
            | Trap::StoreAccessFault { addr } => addr,
            Trap::IllegalInsn { raw } => raw,
            _ => 0,
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::InsnMisaligned { addr } => write!(f, "instruction misaligned at {addr:#010x}"),
            Trap::InsnAccessFault { addr } => {
                write!(f, "instruction access fault at {addr:#010x}")
            }
            Trap::IllegalInsn { raw } => write!(f, "illegal instruction {raw:#010x}"),
            Trap::Breakpoint => f.write_str("breakpoint"),
            Trap::LoadMisaligned { addr } => write!(f, "misaligned load at {addr:#010x}"),
            Trap::LoadAccessFault { addr } => write!(f, "load access fault at {addr:#010x}"),
            Trap::StoreMisaligned { addr } => write!(f, "misaligned store at {addr:#010x}"),
            Trap::StoreAccessFault { addr } => write!(f, "store access fault at {addr:#010x}"),
            Trap::EcallM => f.write_str("environment call from M-mode"),
            Trap::MachineSoftInterrupt => f.write_str("machine software interrupt"),
            Trap::MachineTimerInterrupt => f.write_str("machine timer interrupt"),
            Trap::MachineExternalInterrupt => f.write_str("machine external interrupt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_codes() {
        assert_eq!(Trap::InsnMisaligned { addr: 1 }.mcause(), 0);
        assert_eq!(Trap::IllegalInsn { raw: 0 }.mcause(), 2);
        assert_eq!(Trap::Breakpoint.mcause(), 3);
        assert_eq!(Trap::LoadAccessFault { addr: 0 }.mcause(), 5);
        assert_eq!(Trap::EcallM.mcause(), 11);
        assert_eq!(Trap::MachineSoftInterrupt.mcause(), 0x8000_0003);
    }

    #[test]
    fn tval_values() {
        assert_eq!(Trap::LoadAccessFault { addr: 0x123 }.mtval(), 0x123);
        assert_eq!(Trap::IllegalInsn { raw: 0xdead }.mtval(), 0xdead);
        assert_eq!(Trap::EcallM.mtval(), 0);
    }

    #[test]
    fn interrupt_flag() {
        assert!(!Trap::EcallM.is_interrupt());
        assert!(Trap::MachineExternalInterrupt.is_interrupt());
    }

    #[test]
    fn display() {
        assert!(Trap::LoadAccessFault { addr: 0x10 }
            .to_string()
            .contains("0x00000010"));
    }
}
