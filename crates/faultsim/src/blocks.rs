//! Per-instruction facts from block events: the executed-prefix rule
//! the golden-run analyses ([`TracePlugin`] and the pruning def-use
//! replay) share.
//!
//! A [`BlockEntry`] says which translated block began and how many
//! instructions had retired before it; the translation's instruction
//! list says what the block holds. How far into the block execution got
//! is told by whatever comes next:
//!
//! - **the next entry**: the executed prefix is the next entry's
//!   `instret` minus this one's;
//! - **a trap**: the instructions retired since the entry, plus one for
//!   an exception raised by the block's instruction at that index (it
//!   executed but did not retire, and the closed entry says so); an
//!   interrupt or a fetch fault adds nothing;
//! - **the end of the run**: the hart's final `instret`.
//!
//! The VP hands natively written entries over before any later event,
//! so entries, traps and RAM accesses arrive in execution order. The
//! instruction at index `j` of an entry made at `instret` `I` keeps the
//! stamp `I + j + 1` it has under per-instruction events: the 1-based
//! count of instructions begun, a trapping one included.
//!
//! Translations are recorded once per distinct instruction list at a
//! start pc. The uncached interpreter translates at every dispatch, and
//! an unchanged re-translation reuses its record, so records stay
//! bounded by the number of distinct translations.
//!
//! [`TracePlugin`]: crate::TracePlugin

use s4e_isa::Insn;
use s4e_vp::{BlockEntry, BlockInfo, Cpu, Trap};
use std::collections::HashMap;

/// One distinct translation: its instructions and an analysis' record
/// of them.
#[derive(Debug)]
pub(crate) struct Translation<T> {
    /// The decoded instructions with their addresses.
    pub(crate) insns: Vec<(u32, Insn)>,
    /// What the analysis derived from `insns`.
    pub(crate) record: T,
}

/// A block entry whose executed prefix is not known yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open {
    /// The entered translation (see [`BlockWalk::translation`]).
    pub(crate) translation: usize,
    /// `instret` at entry.
    pub(crate) instret: u64,
}

/// A closed block entry: how many of its instructions ran, and whether
/// the last of them raised the exception that closed the entry (it
/// executed but did not retire).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Closed {
    pub(crate) open: Open,
    pub(crate) executed: usize,
    pub(crate) raised: bool,
}

/// Lines in `BlockWalk::memo`: more than a golden run's hot block
/// starts, few enough to stay in the L1 cache.
const MEMO_LINES: usize = 256;

/// Follows a run's block entries and closes each one with its executed
/// prefix (module docs).
#[derive(Debug)]
pub(crate) struct BlockWalk<T> {
    translations: Vec<Translation<T>>,
    /// Per start pc: the translation entries there run, and every
    /// distinct translation seen there.
    at_pc: HashMap<u32, AtPc>,
    /// `(start pc, translation)` lines in front of `at_pc`, indexed like
    /// the VP's jump cache: an entry costs one probe, not one hash.
    memo: Box<[(u32, usize); MEMO_LINES]>,
    open: Option<Open>,
}

#[derive(Debug, Default)]
struct AtPc {
    current: usize,
    seen: Vec<usize>,
}

impl<T> Default for BlockWalk<T> {
    fn default() -> BlockWalk<T> {
        BlockWalk {
            translations: Vec::new(),
            at_pc: HashMap::new(),
            // No block starts at the odd address `u32::MAX`.
            memo: Box::new([(u32::MAX, 0); MEMO_LINES]),
            open: None,
        }
    }
}

impl<T> BlockWalk<T> {
    /// Makes `block` the translation that entries at its start pc run,
    /// deriving its record with `record` unless an identical
    /// translation is already known there.
    pub(crate) fn translated(
        &mut self,
        block: &BlockInfo<'_>,
        record: impl FnOnce(&[(u32, Insn)]) -> T,
    ) {
        let at = self.at_pc.entry(block.start_pc).or_default();
        let translations = &self.translations;
        let known = at
            .seen
            .iter()
            .find(|&&t| translations[t].insns == block.insns);
        at.current = match known {
            Some(&t) => t,
            None => {
                at.seen.push(translations.len());
                self.translations.push(Translation {
                    insns: block.insns.to_vec(),
                    record: record(block.insns),
                });
                self.translations.len() - 1
            }
        };
        self.memo[memo_line(block.start_pc)] = (block.start_pc, at.current);
    }

    /// Opens `entry` and returns the entry it closes.
    pub(crate) fn enter(&mut self, entry: &BlockEntry) -> Option<Closed> {
        let closed = self.close(entry.instret);
        let line = &mut self.memo[memo_line(entry.pc)];
        let translation = if line.0 == entry.pc {
            Some(line.1)
        } else {
            // Every entry follows its block's translation event:
            // attaching a plugin drops the blocks translated before it.
            let at = self.at_pc.get(&entry.pc);
            debug_assert!(
                at.is_some(),
                "entry at {:#x} was never translated",
                entry.pc
            );
            at.map(|at| {
                *line = (entry.pc, at.current);
                at.current
            })
        };
        self.open = translation.map(|translation| Open {
            translation,
            instret: entry.instret,
        });
        closed
    }

    /// Closes the open entry at a trap taken with the hart in `cpu`.
    pub(crate) fn trap(&mut self, cpu: &Cpu, trap: &Trap) -> Option<Closed> {
        let open = self.open.take()?;
        let retired = self.prefix(open, cpu.instret());
        let raised = self.translations[open.translation]
            .insns
            .get(retired)
            .is_some_and(|&(pc, insn)| pc == cpu.pc() && raised_by(trap, insn));
        Some(Closed {
            open,
            executed: retired + usize::from(raised),
            raised,
        })
    }

    /// The open entry, closed by the hart's final `instret`.
    pub(crate) fn last(&self, instret: u64) -> Option<Closed> {
        self.open.map(|open| self.retired(open, instret))
    }

    /// The entry still open, if any.
    pub(crate) fn open(&self) -> Option<Open> {
        self.open
    }

    /// The translation an [`Open`] entry refers to.
    pub(crate) fn translation(&self, index: usize) -> &Translation<T> {
        &self.translations[index]
    }

    /// Every distinct translation recorded, in first-seen order.
    pub(crate) fn translations(&self) -> &[Translation<T>] {
        &self.translations
    }

    /// Mutable access to the record of translation `index`.
    pub(crate) fn record_mut(&mut self, index: usize) -> &mut T {
        &mut self.translations[index].record
    }

    fn close(&mut self, instret: u64) -> Option<Closed> {
        let open = self.open.take()?;
        Some(self.retired(open, instret))
    }

    /// `open` closed with every instruction that ran retired.
    fn retired(&self, open: Open, instret: u64) -> Closed {
        Closed {
            open,
            executed: self.prefix(open, instret),
            raised: false,
        }
    }

    /// Instructions of `open` retired by the time the hart reached
    /// `instret`: never more than the block holds.
    fn prefix(&self, open: Open, instret: u64) -> usize {
        let len = self.translations[open.translation].insns.len();
        let retired = instret.saturating_sub(open.instret);
        debug_assert!(
            retired <= len as u64,
            "{retired} retired in a {len}-insn block"
        );
        (retired as usize).min(len)
    }
}

fn memo_line(pc: u32) -> usize {
    (pc >> 1) as usize & (MEMO_LINES - 1)
}

/// Whether `trap`, taken with the hart at `insn`'s pc, was raised by
/// executing `insn` rather than by an interrupt or by fetching a block
/// there (after a mid-block exit, a store may have changed the bytes
/// the stale translation decoded).
fn raised_by(trap: &Trap, insn: Insn) -> bool {
    match *trap {
        Trap::InsnAccessFault { .. } => false,
        Trap::IllegalInsn { raw } => raw == insn.raw(),
        other => !other.is_interrupt(),
    }
}
