//! Fault specifications and outcome classification.

use core::fmt;
use s4e_isa::{Fpr, Gpr};
use s4e_vp::Trap;

/// Where a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A bit of a general-purpose register.
    GprBit {
        /// The register.
        reg: Gpr,
        /// Bit index, `0..32`.
        bit: u8,
    },
    /// A bit of a floating-point register. Stuck-at faults on FPRs are
    /// approximated as a forced bit value at injection time (time zero).
    FprBit {
        /// The register.
        reg: Fpr,
        /// Bit index, `0..32`.
        bit: u8,
    },
    /// A bit of a RAM byte (covers both data corruption and opcode
    /// mutation — code lives in RAM).
    MemBit {
        /// The byte address.
        addr: u32,
        /// Bit index within the byte, `0..8`.
        bit: u8,
    },
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::GprBit { reg, bit } => write!(f, "{reg}[{bit}]"),
            FaultTarget::FprBit { reg, bit } => write!(f, "{reg}[{bit}]"),
            FaultTarget::MemBit { addr, bit } => write!(f, "mem {addr:#010x}[{bit}]"),
        }
    }
}

/// When and how the fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Permanent stuck-at fault, in force for the whole run.
    ///
    /// Only supported for register targets (a stuck memory cell would
    /// require write interception; the campaigns model memory upsets as
    /// transients, which is also the physically dominant effect).
    StuckAt {
        /// The forced bit value.
        value: bool,
    },
    /// Single-event upset: the bit flips once, after `at_insn` retired
    /// instructions (`0` = before execution starts, which for code bytes
    /// is exactly a binary mutation).
    Transient {
        /// Injection time in retired instructions.
        at_insn: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAt { value } => write!(f, "stuck-at-{}", u8::from(*value)),
            FaultKind::Transient { at_insn } => write!(f, "flip@{at_insn}"),
        }
    }
}

/// One fault to inject — a "mutant" of the hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// The fault location.
    pub target: FaultTarget,
    /// The fault's temporal behaviour.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.target, self.kind)
    }
}

/// The classified effect of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Normal termination with architecturally identical results — the
    /// fault was masked.
    Masked,
    /// Normal termination but divergent results — silent data corruption,
    /// the paper's "subject for further investigation".
    SilentCorruption,
    /// The fault crashed the program (unhandled trap).
    Detected {
        /// The fatal trap.
        trap: Trap,
    },
    /// The program signalled failure itself (nonzero exit code).
    SelfReported {
        /// The exit code.
        code: u32,
    },
    /// The run exceeded its instruction budget while still executing
    /// (runaway / livelock by instruction count).
    Timeout,
    /// The guest parked itself in `wfi` with no wake-up source armed —
    /// an idle hang, distinct from a [`Timeout`](FaultOutcome::Timeout)
    /// that is still burning instructions.
    Hang,
    /// The supervised runner's wall-clock watchdog stopped the mutant, or
    /// the campaign was cancelled while it ran.
    Cancelled,
    /// The *harness* panicked while executing this mutant — a simulator
    /// bug surfaced by the fault, isolated instead of aborting the sweep.
    /// The panic payload is captured in
    /// [`CampaignReport::harness_panics`](crate::CampaignReport::harness_panics).
    HarnessError,
    /// The shard supervisor isolated this mutant as the cause of repeated
    /// worker-process deaths (segfault, abort, OOM kill): after the retry
    /// budget was exhausted the crashing range was bisected down to this
    /// single mutant, which was then quarantined so the rest of the
    /// campaign could complete.
    Quarantined,
}

impl FaultOutcome {
    /// Whether the guest terminated normally despite the fault (masked or
    /// silently corrupted) — the MBMV 2020 selection criterion.
    pub fn is_normal_termination(&self) -> bool {
        matches!(self, FaultOutcome::Masked | FaultOutcome::SilentCorruption)
    }

    /// The summary-table class name of this outcome.
    pub fn class_name(&self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::SilentCorruption => "silent corruption",
            FaultOutcome::Detected { .. } => "detected",
            FaultOutcome::SelfReported { .. } => "self-reported",
            FaultOutcome::Timeout => "timeout",
            FaultOutcome::Hang => "hang",
            FaultOutcome::Cancelled => "cancelled",
            FaultOutcome::HarnessError => "harness error",
            FaultOutcome::Quarantined => "quarantined",
        }
    }
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOutcome::Detected { trap } => write!(f, "detected ({trap})"),
            FaultOutcome::SelfReported { code } => write!(f, "self-reported (exit {code})"),
            other => f.write_str(other.class_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let spec = FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::A0,
                bit: 3,
            },
            kind: FaultKind::StuckAt { value: true },
        };
        assert_eq!(spec.to_string(), "a0[3] stuck-at-1");
        let spec = FaultSpec {
            target: FaultTarget::MemBit {
                addr: 0x100,
                bit: 7,
            },
            kind: FaultKind::Transient { at_insn: 42 },
        };
        assert_eq!(spec.to_string(), "mem 0x00000100[7] flip@42");
    }

    #[test]
    fn outcome_classes() {
        assert!(FaultOutcome::Masked.is_normal_termination());
        assert!(FaultOutcome::SilentCorruption.is_normal_termination());
        assert!(!FaultOutcome::Timeout.is_normal_termination());
        assert!(!FaultOutcome::Hang.is_normal_termination());
        assert!(!FaultOutcome::Cancelled.is_normal_termination());
        assert!(!FaultOutcome::HarnessError.is_normal_termination());
        assert!(!FaultOutcome::Quarantined.is_normal_termination());
        assert!(!FaultOutcome::Detected { trap: Trap::EcallM }.is_normal_termination());
    }

    #[test]
    fn class_names_distinct() {
        let all = [
            FaultOutcome::Masked,
            FaultOutcome::SilentCorruption,
            FaultOutcome::Detected { trap: Trap::EcallM },
            FaultOutcome::SelfReported { code: 1 },
            FaultOutcome::Timeout,
            FaultOutcome::Hang,
            FaultOutcome::Cancelled,
            FaultOutcome::HarnessError,
            FaultOutcome::Quarantined,
        ];
        let names: std::collections::BTreeSet<_> = all.iter().map(|o| o.class_name()).collect();
        assert_eq!(names.len(), all.len());
    }
}
