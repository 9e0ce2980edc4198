//! The instrumentation hook API — the ecosystem's analog of QEMU's TCG
//! plugin interface.
//!
//! Every analysis tool in the ecosystem (coverage, fault classification,
//! the QTA timing co-simulation, the IO-access guard) observes execution
//! exclusively through this trait, never by reaching into CPU internals —
//! the "non-invasive" property of the MBMV 2019 approach. The event
//! vocabulary mirrors the TCG plugin API: block translated (`tb_trans`),
//! block executed (`tb_exec`), instruction executed (`insn_exec`), memory
//! access (`mem`), plus device accesses and traps which QEMU exposes
//! through the same mechanism.
//!
//! Like the TCG plugin API, instruction callbacks are subscribed per
//! translated block: [`Plugin::wants_insn_events`] is asked once for
//! every block as it is translated, and only blocks some plugin
//! subscribes run instruction by instruction and report their RAM
//! accesses. The rest run on the micro-op engine or the template JIT
//! with block, device and trap hooks only; native code writes their
//! block entries ([`BlockEntry`]) into a buffer the VP hands to
//! [`Plugin::on_block_executed`] in batches, so attaching a plugin that
//! subscribes few blocks keeps most of a run native. A plugin whose
//! block-level accounting needs blocks to begin at given addresses
//! (QTA's annotated block starts) names them through
//! [`Plugin::block_starts`], and translation never lets a block run
//! across one.

use crate::cpu::Cpu;
use crate::trap::Trap;
use s4e_isa::Insn;
use std::any::Any;

/// A translated basic block, reported once when it enters the block cache.
#[derive(Debug, Clone, Copy)]
pub struct BlockInfo<'a> {
    /// Address of the first instruction.
    pub start_pc: u32,
    /// The decoded instructions with their addresses.
    pub insns: &'a [(u32, Insn)],
}

impl BlockInfo<'_> {
    /// The address one past the last instruction byte.
    pub fn end_pc(&self) -> u32 {
        match self.insns.last() {
            Some((pc, insn)) => insn.next_pc(*pc),
            None => self.start_pc,
        }
    }
}

/// One block entry, as [`Plugin::on_block_executed`] reports it: where
/// the block starts and the hart's counters right before its first
/// instruction.
///
/// `repr(C)` because the template JIT writes these records from native
/// code; a test in this module pins the layout its templates assume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct BlockEntry {
    /// Address of the block's first instruction.
    pub pc: u32,
    /// Retired instructions (`minstret`) at entry.
    pub instret: u64,
    /// Elapsed cycles (`mcycle`) at entry.
    pub cycles: u64,
}

/// A data-memory access performed by the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemAccess {
    /// PC of the accessing instruction.
    pub pc: u32,
    /// Effective address.
    pub addr: u32,
    /// Access size in bytes (1, 2 or 4).
    pub size: u8,
    /// The value stored, or loaded (zero-extended).
    pub value: u32,
    /// `true` for stores.
    pub is_store: bool,
}

/// An access that hit a memory-mapped device rather than RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DeviceAccess {
    /// The device's stable name (e.g. `"uart"`).
    pub device: &'static str,
    /// PC of the accessing instruction.
    pub pc: u32,
    /// Effective address.
    pub addr: u32,
    /// The value stored, or loaded.
    pub value: u32,
    /// `true` for stores.
    pub is_store: bool,
}

/// Object-safe upcast support so plugins can be recovered by concrete type
/// after a run (see [`Vp::plugin_mut`](crate::Vp::plugin_mut)).
///
/// Implemented automatically for every `'static` type.
pub trait AsAny {
    /// Upcasts to [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// Upcasts to mutable [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An execution observer, called by the virtual prototype at the
/// corresponding events. All methods have empty defaults; implement only
/// what the tool needs.
///
/// Callbacks receive the CPU state, or for block entries its counters,
/// *read-only*: observation is non-invasive by construction.
///
/// Plugins must be [`Send`]: a [`Vp`](crate::Vp) moves between campaign
/// worker threads (never shared concurrently — `Vp` is `Send`, not
/// `Sync`), and its plugins travel with it.
///
/// # Examples
///
/// ```
/// use s4e_vp::{Cpu, Plugin};
/// use s4e_isa::Insn;
///
/// /// Counts executed instructions, like QEMU's `insn` example plugin.
/// #[derive(Debug, Default)]
/// struct InsnCounter {
///     executed: u64,
/// }
///
/// impl Plugin for InsnCounter {
///     fn on_insn_executed(&mut self, _cpu: &Cpu, _pc: u32, _insn: &Insn) {
///         self.executed += 1;
///     }
/// }
/// ```
#[allow(unused_variables)]
pub trait Plugin: AsAny + std::fmt::Debug + Send {
    /// Addresses at which translation must begin a new block: no
    /// translated block runs across one, so every time execution reaches
    /// a listed address, [`on_block_executed`](Plugin::on_block_executed)
    /// reports an entry for a block starting there. Collected once by
    /// [`Vp::add_plugin`][crate::Vp::add_plugin], which drops the blocks
    /// translated so far. The default declares none.
    ///
    /// Blocks are where the VP samples interrupts, so declared starts
    /// can move an asynchronous interrupt earlier, identically on every
    /// execution tier.
    fn block_starts(&self) -> Vec<u32> {
        Vec::new()
    }

    /// A basic block was translated (decoded into the block cache).
    fn on_block_translated(&mut self, block: &BlockInfo<'_>) {}

    /// Basic blocks are about to execute: one [`BlockEntry`] per block
    /// entry, in execution order. An entry is reported only when at
    /// least one of the block's instructions will run: a `run_for`
    /// budget spent at the block boundary ends the run without it.
    ///
    /// Blocks that no attached plugin subscribes (see
    /// [`wants_insn_events`](Plugin::wants_insn_events)) may run on the
    /// template JIT, which records their entries natively and hands them
    /// over in one slice when it returns to the dispatcher, always
    /// before any later event. Read the counters from the entries, not
    /// from a [`Cpu`]: by delivery time the hart may be several blocks
    /// further on.
    fn on_block_executed(&mut self, entries: &[BlockEntry]) {}

    /// Whether this plugin needs
    /// [`on_insn_executed`](Plugin::on_insn_executed) and RAM
    /// [`on_mem_access`](Plugin::on_mem_access) callbacks inside
    /// `block`.
    ///
    /// Asked once per translated block (the uncached interpreter
    /// translates, and so asks, at every dispatch), so the answer must
    /// depend on the block alone. A block no attached plugin subscribes
    /// runs on the micro-op engine or the template JIT with
    /// per-instruction plugin dispatch elided and its RAM accesses on
    /// the fast path, unreported (block, device and trap hooks still
    /// fire); a subscribed block runs instruction by instruction, and
    /// `on_insn_executed` and `on_mem_access` then reach every attached
    /// plugin. The default is `true` — conservative, and correct for
    /// any plugin that overrides either callback.
    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        true
    }

    /// An instruction retired (state already updated), inside a block
    /// some plugin subscribed (see
    /// [`wants_insn_events`](Plugin::wants_insn_events)). Also fires for
    /// an instruction that traps instead of retiring.
    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {}

    /// A data-memory access to RAM completed, inside a block some
    /// plugin subscribed (see
    /// [`wants_insn_events`](Plugin::wants_insn_events)).
    fn on_mem_access(&mut self, cpu: &Cpu, access: &MemAccess) {}

    /// A data access hit a memory-mapped device.
    fn on_device_access(&mut self, cpu: &Cpu, access: &DeviceAccess) {}

    /// A trap (exception or interrupt) is being taken.
    fn on_trap(&mut self, cpu: &Cpu, trap: &Trap) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4e_isa::{decode, IsaConfig};

    #[test]
    fn block_info_end() {
        let isa = IsaConfig::rv32imc();
        let add = decode(0x00c5_8533, &isa).unwrap();
        let cnop = decode(0x0001, &isa).unwrap();
        let insns = [(0x100u32, add), (0x104, cnop)];
        let block = BlockInfo {
            start_pc: 0x100,
            insns: &insns,
        };
        assert_eq!(block.end_pc(), 0x106);
        let empty = BlockInfo {
            start_pc: 0x100,
            insns: &[],
        };
        assert_eq!(empty.end_pc(), 0x100);
    }

    #[test]
    fn block_entry_layout() {
        // The template JIT's native entry write assumes these offsets.
        assert_eq!(std::mem::offset_of!(BlockEntry, pc), 0);
        assert_eq!(std::mem::offset_of!(BlockEntry, instret), 8);
        assert_eq!(std::mem::offset_of!(BlockEntry, cycles), 16);
        assert_eq!(std::mem::size_of::<BlockEntry>(), 24);
    }

    #[test]
    fn as_any_downcast() {
        #[derive(Debug, Default)]
        struct P(u32);
        impl Plugin for P {}
        let mut boxed: Box<dyn Plugin> = Box::<P>::default();
        // Deref explicitly: calling `as_any` on the Box itself would hit
        // the blanket impl for `Box<dyn Plugin>` and downcast to the box.
        boxed.as_mut().as_any_mut().downcast_mut::<P>().unwrap().0 = 7;
        assert_eq!(boxed.as_ref().as_any().downcast_ref::<P>().unwrap().0, 7);
    }
}
