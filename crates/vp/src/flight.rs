//! The crash flight recorder: a bounded tail of what the VP executed
//! last.
//!
//! When a fault campaign quarantines a mutant or a worker dies, the
//! question is always "what was the guest *doing*?" — and by then the
//! VP is gone. The [`FlightRecorder`] answers it the way an aircraft
//! recorder does: a fixed-size ring of the most recent executed blocks,
//! traps and device accesses, cheap enough to leave armed for a whole
//! sweep and dumped into a forensic bundle only when something goes
//! wrong.
//!
//! The recorder is a [`Plugin`] like every other observer: attach it
//! with [`Vp::add_plugin`](crate::Vp::add_plugin) and read it back with
//! [`Vp::plugin`](crate::Vp::plugin). It subscribes no block to
//! instruction events, and block entries, traps and device accesses
//! reach a plugin on every tier, so a recorded run keeps the micro-op
//! engine, the RAM fast path and the template JIT, whose native code
//! writes the block entries it hands over in batches. Events are
//! stamped with the retired instruction count, the campaign's
//! deterministic timeline.

use crate::cpu::Cpu;
use crate::plugin::{BlockEntry, BlockInfo, DeviceAccess, Plugin};
use crate::trap::Trap;
use std::collections::VecDeque;

/// A bounded ring of the last N [`FlightEvent`]s, each with the device
/// name of a `Device` event. When full, the oldest event is evicted and
/// counted.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<(FlightEvent, Option<&'static str>)>,
    capacity: usize,
    evicted: u64,
    blocks: u64,
    traps: u64,
    device_accesses: u64,
}

/// One recorded execution event, stamped with `instret` at the time it
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A basic block was entered to run at least one instruction.
    Block {
        /// Instructions retired when the block was entered.
        instret: u64,
        /// The block's start pc.
        pc: u32,
    },
    /// A trap (exception or interrupt) was taken.
    Trap {
        /// Instructions retired when the trap was raised.
        instret: u64,
        /// The pc the trap was raised at.
        pc: u32,
        /// The `mcause` encoding of the trap.
        mcause: u32,
    },
    /// A data access hit a memory-mapped device.
    Device {
        /// Instructions retired when the access completed.
        instret: u64,
        /// PC of the accessing instruction.
        pc: u32,
        /// Effective address.
        addr: u32,
        /// Value stored or loaded.
        value: u32,
        /// `true` for stores.
        is_store: bool,
    },
}

impl FlightEvent {
    /// The event's `instret` stamp.
    pub fn instret(&self) -> u64 {
        match self {
            FlightEvent::Block { instret, .. }
            | FlightEvent::Trap { instret, .. }
            | FlightEvent::Device { instret, .. } => *instret,
        }
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
            blocks: 0,
            traps: 0,
            device_accesses: 0,
        }
    }

    fn push(&mut self, event: FlightEvent, device: Option<&'static str>) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back((event, device));
    }

    /// The recorded tail, oldest first, with the device name attached to
    /// each `Device` event (`None` for blocks and traps).
    pub fn tail(&self) -> Vec<(FlightEvent, Option<&'static str>)> {
        self.ring.iter().copied().collect()
    }

    /// Events currently held (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted since the last [`clear`](FlightRecorder::clear).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total block entries recorded (including evicted ones).
    pub fn blocks_recorded(&self) -> u64 {
        self.blocks
    }

    /// Total traps recorded (including evicted ones).
    pub fn traps_recorded(&self) -> u64 {
        self.traps
    }

    /// Total device accesses recorded (including evicted ones).
    pub fn device_accesses_recorded(&self) -> u64 {
        self.device_accesses
    }

    /// Empties the ring and zeroes every counter — called between
    /// mutants so a dumped tail never mixes two executions.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.evicted = 0;
        self.blocks = 0;
        self.traps = 0;
        self.device_accesses = 0;
    }
}

impl Plugin for FlightRecorder {
    /// Records the newest `capacity` entries of the batch; the older
    /// ones would be evicted by the newer at once, so they are only
    /// counted.
    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        self.blocks += entries.len() as u64;
        let skip = entries.len().saturating_sub(self.capacity);
        self.evicted += skip as u64;
        for e in &entries[skip..] {
            self.push(
                FlightEvent::Block {
                    instret: e.instret,
                    pc: e.pc,
                },
                None,
            );
        }
    }

    fn wants_insn_events(&self, _block: &BlockInfo<'_>) -> bool {
        false
    }

    fn on_device_access(&mut self, cpu: &Cpu, access: &DeviceAccess) {
        self.device_accesses += 1;
        self.push(
            FlightEvent::Device {
                instret: cpu.instret(),
                pc: access.pc,
                addr: access.addr,
                value: access.value,
                is_store: access.is_store,
            },
            Some(access.device),
        );
    }

    fn on_trap(&mut self, cpu: &Cpu, trap: &Trap) {
        self.traps += 1;
        self.push(
            FlightEvent::Trap {
                instret: cpu.instret(),
                pc: cpu.pc(),
                mcause: trap.mcause(),
            },
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4e_isa::IsaConfig;

    fn blocks(fr: &mut FlightRecorder, entries: impl IntoIterator<Item = (u64, u32)>) {
        let entries: Vec<BlockEntry> = entries
            .into_iter()
            .map(|(instret, pc)| BlockEntry {
                pc,
                instret,
                cycles: instret,
            })
            .collect();
        fr.on_block_executed(&entries);
    }

    fn device(fr: &mut FlightRecorder, device: &'static str, pc: u32, addr: u32) {
        let cpu = Cpu::new(IsaConfig::rv32i(), 0x8000_0000);
        let access = DeviceAccess {
            device,
            pc,
            addr,
            value: 7,
            is_store: true,
        };
        fr.on_device_access(&cpu, &access);
    }

    #[test]
    fn keeps_the_last_n_events() {
        // One entry at a time and in one batch longer than the ring
        // leave the same tail and the same counts.
        let mut one_by_one = FlightRecorder::new(3);
        for i in 0..6u64 {
            blocks(&mut one_by_one, [(i, 0x100 + i as u32 * 4)]);
        }
        let mut batched = FlightRecorder::new(3);
        blocks(&mut batched, (0..6u64).map(|i| (i, 0x100 + i as u32 * 4)));
        for fr in [&one_by_one, &batched] {
            assert_eq!(fr.len(), 3);
            assert_eq!(fr.evicted(), 3);
            assert_eq!(fr.blocks_recorded(), 6);
            let tail = fr.tail();
            assert_eq!(
                tail[0].0,
                FlightEvent::Block {
                    instret: 3,
                    pc: 0x10c
                }
            );
            assert_eq!(
                tail[2].0,
                FlightEvent::Block {
                    instret: 5,
                    pc: 0x114
                }
            );
        }
    }

    #[test]
    fn device_names_survive_eviction() {
        let mut fr = FlightRecorder::new(2);
        device(&mut fr, "uart", 0x100, 0x1000_0000);
        blocks(&mut fr, [(2, 0x104)]);
        device(&mut fr, "clint", 0x108, 0x0200_0000);
        // The uart access was evicted; the clint one must keep its name.
        let tail = fr.tail();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].1, None);
        assert_eq!(tail[1].1, Some("clint"));
        assert_eq!(fr.device_accesses_recorded(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut fr = FlightRecorder::new(2);
        let cpu = Cpu::new(IsaConfig::rv32i(), 0x8000_0000);
        fr.on_trap(&cpu, &Trap::IllegalInsn { raw: 0 });
        blocks(&mut fr, [(6, 0x104), (7, 0x108)]);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.evicted(), 0);
        assert_eq!(fr.traps_recorded(), 0);
        assert_eq!(fr.capacity(), 2);
    }
}
