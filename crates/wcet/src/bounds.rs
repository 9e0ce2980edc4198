//! Loop bounds: user annotations and automatic inference for counted
//! loops.
//!
//! aiT obtains loop bounds from a combination of value analysis and user
//! annotations; this module reproduces that split. [`LoopBounds`] carries
//! explicit annotations (by loop-header address), and [`infer_bound`]
//! recovers the bound of simple *counted* loops — a single induction
//! register initialized to a constant in the preheader and stepped by a
//! constant `addi` in the body, tested by the latch branch.

use s4e_cfg::{Function, NaturalLoop};
use s4e_isa::{Gpr, InsnKind};
use std::collections::BTreeMap;

/// Explicit loop-bound annotations, keyed by loop-header block address.
///
/// A bound counts *body executions* (how many times the header's block
/// runs per entry into the loop).
///
/// # Examples
///
/// ```
/// use s4e_wcet::LoopBounds;
///
/// let bounds = LoopBounds::new().with_bound(0x8000_0010, 100);
/// assert_eq!(bounds.get(0x8000_0010), Some(100));
/// assert_eq!(bounds.get(0x8000_0020), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopBounds {
    by_header: BTreeMap<u32, u64>,
}

impl LoopBounds {
    /// Creates an empty annotation set.
    pub fn new() -> LoopBounds {
        LoopBounds::default()
    }

    /// Adds (or replaces) the bound for the loop headed at `header`.
    #[must_use]
    pub fn with_bound(mut self, header: u32, iterations: u64) -> LoopBounds {
        self.by_header.insert(header, iterations);
        self
    }

    /// Adds a bound in place.
    pub fn set(&mut self, header: u32, iterations: u64) {
        self.by_header.insert(header, iterations);
    }

    /// The annotated bound for `header`, if any.
    pub fn get(&self, header: u32) -> Option<u64> {
        self.by_header.get(&header).copied()
    }

    /// Iterates over all annotations.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.by_header.iter().map(|(&h, &b)| (h, b))
    }

    /// Number of annotations.
    pub fn len(&self) -> usize {
        self.by_header.len()
    }

    /// Whether there are no annotations.
    pub fn is_empty(&self) -> bool {
        self.by_header.is_empty()
    }

    /// Scales every annotated bound by `factor`, rounding up (used by the
    /// pessimism-sweep experiment F3).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> LoopBounds {
        LoopBounds {
            by_header: self
                .by_header
                .iter()
                .map(|(&h, &b)| (h, ((b as f64) * factor).ceil().max(1.0) as u64))
                .collect(),
        }
    }
}

impl FromIterator<(u32, u64)> for LoopBounds {
    fn from_iter<T: IntoIterator<Item = (u32, u64)>>(iter: T) -> Self {
        LoopBounds {
            by_header: iter.into_iter().collect(),
        }
    }
}

impl Extend<(u32, u64)> for LoopBounds {
    fn extend<T: IntoIterator<Item = (u32, u64)>>(&mut self, iter: T) {
        self.by_header.extend(iter);
    }
}

/// The continue-condition of a counted loop, on induction register `r`
/// against a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cond {
    /// Continue while `r != 0`.
    Ne0,
    /// Continue while `r == 0` (never a terminating counted loop).
    Eq0,
    /// Continue while `r < k` (signed).
    Lt(i64),
    /// Continue while `r >= k` (signed).
    Ge(i64),
    /// Continue while `r <= k` (signed).
    Le(i64),
    /// Continue while `r > k` (signed).
    Gt(i64),
}

impl Cond {
    fn negate(self) -> Cond {
        match self {
            Cond::Ne0 => Cond::Eq0,
            Cond::Eq0 => Cond::Ne0,
            Cond::Lt(k) => Cond::Ge(k),
            Cond::Ge(k) => Cond::Lt(k),
            Cond::Le(k) => Cond::Gt(k),
            Cond::Gt(k) => Cond::Le(k),
        }
    }
}

/// Tracks constant register values through one basic block.
fn block_constants(block: &s4e_cfg::BasicBlock) -> BTreeMap<u8, i64> {
    let mut consts: BTreeMap<u8, i64> = BTreeMap::new();
    consts.insert(0, 0); // x0
    for (_, insn) in block.insns() {
        let uses = insn.reg_uses();
        let Some(dst) = uses.gpr_written else {
            continue;
        };
        let dst_idx = dst.index();
        if dst == Gpr::ZERO {
            continue;
        }
        let value = match insn.kind() {
            InsnKind::Addi => consts
                .get(&insn.rs1())
                .map(|&v| v.wrapping_add(insn.imm() as i64)),
            InsnKind::Lui => Some(insn.imm() as i64),
            _ => None,
        };
        match value {
            Some(v) => {
                consts.insert(dst_idx, v);
            }
            None => {
                consts.remove(&dst_idx);
            }
        }
    }
    consts
}

/// Attempts to infer the body-execution bound of a counted loop.
///
/// Requirements: a single latch whose terminator is a conditional branch;
/// a single induction register stepped by exactly one constant `addi` in
/// the loop body; the induction register (and the comparison register, if
/// any) initialized to compile-time constants in the unique preheader
/// block.
///
/// Returns `None` when the pattern does not match — the caller then
/// requires an annotation.
pub fn infer_bound(func: &Function, lp: &NaturalLoop) -> Option<u64> {
    // 1. Single latch ending in a conditional branch.
    let [latch] = lp.latches.as_slice() else {
        return None;
    };
    let latch_block = func.block(*latch)?;
    let s4e_cfg::Terminator::Branch { taken, fallthrough } = *latch_block.terminator() else {
        return None;
    };
    let &(_, branch) = latch_block.insns().last()?;
    if !branch.kind().is_branch() {
        return None;
    }

    // 2. Find the unique preheader (predecessor of the header outside the
    //    loop body) and its constants.
    let preds = func.predecessors();
    let outside: Vec<u32> = preds
        .get(&lp.header)?
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    // The header may also be the function entry with no preheader block.
    let pre_consts = match outside.as_slice() {
        [pre] => block_constants(func.block(*pre)?),
        _ => return None,
    };

    // 3. The branch condition, normalized to "continue while cond holds".
    let rs1 = branch.rs1();
    let rs2 = branch.rs2();
    let const_of = |r: u8| pre_consts.get(&r).copied();
    // Identify induction candidate: a register written in the body.
    let written_in_body = |r: u8| -> usize {
        lp.body
            .iter()
            .filter_map(|a| func.block(*a))
            .flat_map(|b| b.insns())
            .filter(|(_, i)| i.reg_uses().effective_gpr_written().map(Gpr::index) == Some(r))
            .count()
    };
    let (ind, other) = if written_in_body(rs1) > 0 {
        (rs1, rs2)
    } else if written_in_body(rs2) > 0 {
        (rs2, rs1)
    } else {
        return None;
    };
    if written_in_body(ind) != 1 {
        return None;
    }
    // The non-induction operand must be a known constant (x0 counts).
    let k = if other == 0 { 0 } else { const_of(other)? };
    if other != 0 && written_in_body(other) != 0 {
        return None;
    }

    // Condition with induction register on the left.
    let swapped = ind == rs2;
    let raw_cond = match (branch.kind(), swapped) {
        (InsnKind::Bne, _) if k == 0 => Cond::Ne0,
        (InsnKind::Beq, _) if k == 0 => Cond::Eq0,
        (InsnKind::Blt, false) => Cond::Lt(k),
        (InsnKind::Blt, true) => Cond::Gt(k),
        (InsnKind::Bge, false) => Cond::Ge(k),
        (InsnKind::Bge, true) => Cond::Le(k),
        // Unsigned compares: only handle non-negative constants, where the
        // signed arithmetic below coincides for the small ranges involved.
        (InsnKind::Bltu, false) if k >= 0 => Cond::Lt(k),
        (InsnKind::Bltu, true) if k >= 0 => Cond::Gt(k),
        (InsnKind::Bgeu, false) if k >= 0 => Cond::Ge(k),
        (InsnKind::Bgeu, true) if k >= 0 => Cond::Le(k),
        _ => return None,
    };
    let continues = if taken == lp.header {
        raw_cond
    } else if fallthrough == lp.header {
        raw_cond.negate()
    } else {
        return None;
    };

    // 4. Induction step: the unique `addi ind, ind, step` in the body.
    let step = lp
        .body
        .iter()
        .filter_map(|a| func.block(*a))
        .flat_map(|b| b.insns())
        .find_map(|(_, i)| {
            (i.kind() == InsnKind::Addi && i.rd() == ind && i.rs1() == ind)
                .then_some(i.imm() as i64)
        })?;
    if step == 0 {
        return None;
    }

    // 5. Initial value from the preheader.
    let init = const_of(ind)?;

    iterations(init, step, continues)
}

/// Number of body executions for a do-while counted loop: the body runs,
/// the induction register steps, and the loop continues while the
/// condition holds.
fn iterations(init: i64, step: i64, cond: Cond) -> Option<u64> {
    let ceil_div = |a: i64, b: i64| -> i64 { (a + b - 1) / b };
    let n = match cond {
        Cond::Ne0 => {
            // Terminates when the register hits exactly zero.
            if step == 0 || init == 0 || (init % step != 0) || (init / step) > 0 {
                return None;
            }
            -(init / step)
        }
        Cond::Eq0 => return None,
        Cond::Lt(k) => {
            if step <= 0 {
                return None;
            }
            ceil_div(k - init, step).max(1)
        }
        Cond::Ge(k) => {
            if step >= 0 {
                return None;
            }
            ((init - k) / (-step) + 1).max(1)
        }
        Cond::Le(k) => {
            if step <= 0 {
                return None;
            }
            ((k - init) / step + 1).max(1)
        }
        Cond::Gt(k) => {
            if step >= 0 {
                return None;
            }
            ceil_div(init - k, -step).max(1)
        }
    };
    (n > 0).then_some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_api() {
        let mut b = LoopBounds::new().with_bound(0x100, 10);
        b.set(0x200, 20);
        assert_eq!(b.get(0x100), Some(10));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let scaled = b.scaled(1.5);
        assert_eq!(scaled.get(0x100), Some(15));
        assert_eq!(scaled.get(0x200), Some(30));
        let collected: LoopBounds = vec![(1u32, 2u64)].into_iter().collect();
        assert_eq!(collected.get(1), Some(2));
    }

    #[test]
    fn iteration_math() {
        // countdown: r = 10, step -1, while r != 0 → 10 executions
        assert_eq!(iterations(10, -1, Cond::Ne0), Some(10));
        // countdown by 2 from 10 → 5
        assert_eq!(iterations(10, -2, Cond::Ne0), Some(5));
        // non-divisible countdown never hits zero exactly
        assert_eq!(iterations(10, -3, Cond::Ne0), None);
        // count up: r = 0, step 1, while r < 8 → 8 executions
        assert_eq!(iterations(0, 1, Cond::Lt(8)), Some(8));
        // count up by 3: 0,3,6,9 → continue while <8: bodies at r=0,3,6 → 3
        assert_eq!(iterations(0, 3, Cond::Lt(8)), Some(3));
        // do-while always runs once
        assert_eq!(iterations(100, 1, Cond::Lt(8)), Some(1));
        // while r >= 1, step -1, init 5 → 5
        assert_eq!(iterations(5, -1, Cond::Ge(1)), Some(5));
        // while r <= 5, step 1, init 1 → 5
        assert_eq!(iterations(1, 1, Cond::Le(5)), Some(5));
        // while r > 0, step -1, init 5 → 5
        assert_eq!(iterations(5, -1, Cond::Gt(0)), Some(5));
        // wrong-direction steps are rejected
        assert_eq!(iterations(0, -1, Cond::Lt(8)), None);
        assert_eq!(iterations(5, 1, Cond::Ge(1)), None);
        assert_eq!(iterations(0, 1, Cond::Eq0), None);
    }
}
