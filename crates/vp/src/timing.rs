//! The instruction-timing model shared by the dynamic cycle counter and the
//! static WCET analysis.
//!
//! A single [`TimingModel`] value drives both the virtual prototype's
//! `mcycle` counter and `s4e-wcet`'s per-block costs. Because the two always
//! agree on per-instruction costs, the experiment-F1 invariant
//! `dynamic ≤ QTA-simulated ≤ static bound` is a structural property
//! (static analysis takes the *worst case* of each cost pair, the dynamic
//! counter the actual one).

use s4e_isa::{Insn, InsnClass};

/// Per-class instruction costs in cycles.
///
/// Construct with [`TimingModel::new`] (the reference five-stage-pipeline
/// inspired defaults) and adjust individual costs with the `with_*`
/// builders.
///
/// # Examples
///
/// ```
/// use s4e_vp::TimingModel;
/// use s4e_isa::InsnClass;
///
/// let model = TimingModel::new().with_cost(InsnClass::Div, 40);
/// assert_eq!(model.class_cost(InsnClass::Div), 40);
/// assert_eq!(model.class_cost(InsnClass::Alu), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingModel {
    costs: [u64; InsnClass::ALL.len()],
    branch_taken_extra: u64,
}

impl TimingModel {
    /// The reference timing model: single-issue in-order core with a
    /// two-cycle memory, iterative divider and a branch-taken penalty.
    pub const fn new() -> TimingModel {
        // Indexed by the order of `InsnClass::ALL`:
        // Alu, Mul, Div, Load, Store, Branch, Jump, Csr, System, Fence,
        // FpLoad, FpStore, FpAlu, FpDiv
        TimingModel {
            costs: [1, 3, 34, 2, 2, 1, 2, 2, 4, 4, 2, 2, 2, 20],
            branch_taken_extra: 2,
        }
    }

    /// A flat model where every instruction costs one cycle — useful for
    /// instruction-count experiments.
    pub const fn flat() -> TimingModel {
        TimingModel {
            costs: [1; 14],
            branch_taken_extra: 0,
        }
    }

    /// Overrides the cost of one instruction class.
    #[must_use]
    pub const fn with_cost(mut self, class: InsnClass, cycles: u64) -> TimingModel {
        self.costs[class as usize] = cycles;
        self
    }

    /// Overrides the extra cycles charged when a conditional branch is
    /// taken.
    #[must_use]
    pub const fn with_branch_taken_extra(mut self, cycles: u64) -> TimingModel {
        self.branch_taken_extra = cycles;
        self
    }

    /// The base cost of an instruction class (branch cost is the
    /// *not-taken* cost).
    pub const fn class_cost(&self, class: InsnClass) -> u64 {
        self.costs[class as usize]
    }

    /// The extra cycles charged for a taken conditional branch.
    pub const fn branch_taken_extra(&self) -> u64 {
        self.branch_taken_extra
    }

    /// The dynamic cost of executing `insn`, given whether a conditional
    /// branch was taken.
    pub fn cost(&self, insn: &Insn, taken: bool) -> u64 {
        let base = self.class_cost(insn.class());
        if taken && insn.kind().is_branch() {
            base + self.branch_taken_extra
        } else {
            base
        }
    }

    /// The worst-case cost of `insn` over all outcomes — what the static
    /// WCET analysis charges.
    pub fn worst_case_cost(&self, insn: &Insn) -> u64 {
        let base = self.class_cost(insn.class());
        if insn.kind().is_branch() {
            base + self.branch_taken_extra
        } else {
            base
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4e_isa::{decode, IsaConfig};

    #[test]
    fn defaults() {
        let m = TimingModel::new();
        assert_eq!(m.class_cost(InsnClass::Alu), 1);
        assert_eq!(m.class_cost(InsnClass::Div), 34);
        assert_eq!(m.class_cost(InsnClass::Load), 2);
        assert_eq!(m.branch_taken_extra(), 2);
    }

    #[test]
    fn branch_costs() {
        let m = TimingModel::new();
        let beq = decode(0x0000_0463, &IsaConfig::rv32i()).unwrap();
        assert_eq!(m.cost(&beq, false), 1);
        assert_eq!(m.cost(&beq, true), 3);
        assert_eq!(m.worst_case_cost(&beq), 3);
        // `taken` is ignored for non-branches
        let add = decode(0x00c5_8533, &IsaConfig::rv32i()).unwrap();
        assert_eq!(m.cost(&add, true), 1);
    }

    #[test]
    fn worst_case_dominates_dynamic() {
        let m = TimingModel::new();
        for raw in [0x0000_0463u32, 0x00c5_8533, 0x0000_006f, 0x02b5_0533] {
            let insn = decode(raw, &IsaConfig::rv32im()).unwrap();
            for taken in [false, true] {
                assert!(m.cost(&insn, taken) <= m.worst_case_cost(&insn));
            }
        }
    }

    #[test]
    fn builders() {
        let m = TimingModel::flat()
            .with_cost(InsnClass::Mul, 5)
            .with_branch_taken_extra(7);
        assert_eq!(m.class_cost(InsnClass::Mul), 5);
        assert_eq!(m.class_cost(InsnClass::Alu), 1);
        assert_eq!(m.branch_taken_extra(), 7);
    }
}
