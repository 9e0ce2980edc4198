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
//! Unlike the [`Plugin`](crate::Plugin) hook API, the recorder is wired
//! natively into the dispatch loop behind a single `Option` check:
//! attaching a plugin disables the RAM fast path (plugins observe every
//! memory access), but the recorder only cares about block entries,
//! traps and MMIO — all of which are visible without leaving the
//! micro-op engine's fast paths. Events are stamped with the retired
//! instruction count, the campaign's deterministic timeline.
//!
//! The ring is stored flat — a fixed slab of 32-byte [`RawEvent`]
//! records behind a `repr(C)` [`FlightRing`] header — so the template
//! JIT can append block entries from native code with a handful of
//! stores. Native code only ever writes `Block` events (traps and MMIO
//! bail out of native execution first), advancing `pos`/`len`/`evicted`
//! with exactly the wraparound arithmetic [`FlightRecorder::record_block`]
//! uses, so a tail recorded natively is bit-identical to one recorded
//! by the interpreter.

/// Event tag values stored in [`RawEvent::tag`]. `TAG_BLOCK` is baked
/// into the JIT's inline ring-write template (it writes the tag word as
/// an immediate), so it must stay zero.
const TAG_BLOCK: u32 = 0;
const TAG_TRAP: u32 = 1;
const TAG_DEVICE: u32 = 2;

/// One flat ring slot. Field offsets are load-bearing: the JIT emits
/// `instret` at +0 and `pc`/`tag` as one qword at +8 (tag `Block` = 0,
/// so a zero-extended 32-bit pc *is* the pair). The remaining fields
/// only carry trap/device payloads written from Rust.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct RawEvent {
    /// Instructions retired when the event happened.
    instret: u64, // +0
    /// The pc the event is attached to.
    pc: u32, // +8
    /// One of the `TAG_*` discriminants.
    tag: u32, // +12
    /// `mcause` (traps) or the effective address (device accesses).
    a: u32, // +16
    /// The value stored or loaded (device accesses).
    b: u32, // +20
    /// `is_store` flag (device) in bit 0, device-name intern index in
    /// the remaining bits.
    c: u32, // +24
    _pad: u32, // +28
}

/// `true`-bit and name-index packing for [`RawEvent::c`].
const DEVICE_STORE_BIT: u32 = 1;

/// The native-visible ring header. `repr(C)` with offsets baked into
/// the JIT's block-entry template:
///
/// | offset | field     |
/// |--------|-----------|
/// | 0      | `buf`     |
/// | 8      | `cap`     |
/// | 16     | `pos`     |
/// | 24     | `len`     |
/// | 32     | `evicted` |
/// | 40     | `blocks`  |
///
/// The JIT receives `*mut FlightRing` (null when no recorder is armed)
/// and performs: write slot at `buf + pos * 32`, `pos = (pos + 1) %
/// cap`, then `len < cap ? len += 1 : evicted += 1` and `blocks += 1`.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct FlightRing {
    buf: *mut RawEvent,
    cap: u64,
    /// Next write index (the ring is oldest-first starting at
    /// `(pos + cap - len) % cap`).
    pos: u64,
    len: u64,
    evicted: u64,
    blocks: u64,
}

/// A bounded ring of the last N [`FlightEvent`]s, owned by one
/// [`Vp`](crate::Vp). Recording is a tag store plus a ring write; when
/// full, the oldest event is evicted and counted.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: FlightRing,
    /// Owns the slab `ring.buf` points into. The box allocation is
    /// stable across moves of the recorder, so the raw pointer stays
    /// valid for the recorder's lifetime.
    storage: Box<[RawEvent]>,
    traps: u64,
    device_accesses: u64,
    /// Interned device names; `RawEvent::c` carries an index into this
    /// table so eviction stays a uniform ring-slot overwrite.
    names: Vec<&'static str>,
}

// The raw pointer in `ring` only ever targets `storage`, which the
// recorder owns exclusively; moving the recorder across threads moves
// both together.
unsafe impl Send for FlightRecorder {}

impl Clone for FlightRecorder {
    fn clone(&self) -> FlightRecorder {
        let mut storage = self.storage.clone();
        FlightRecorder {
            ring: FlightRing {
                buf: storage.as_mut_ptr(),
                cap: self.ring.cap,
                pos: self.ring.pos,
                len: self.ring.len,
                evicted: self.ring.evicted,
                blocks: self.ring.blocks,
            },
            storage,
            traps: self.traps,
            device_accesses: self.device_accesses,
            names: self.names.clone(),
        }
    }
}

/// One recorded execution event, stamped with `instret` at the time it
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FlightEvent {
    /// A basic block was dispatched.
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
        let mut storage = vec![RawEvent::default(); capacity].into_boxed_slice();
        FlightRecorder {
            ring: FlightRing {
                buf: storage.as_mut_ptr(),
                cap: capacity as u64,
                pos: 0,
                len: 0,
                evicted: 0,
                blocks: 0,
            },
            storage,
            traps: 0,
            device_accesses: 0,
            names: Vec::new(),
        }
    }

    /// The native-visible ring header, handed to the JIT so compiled
    /// blocks can append their own entry events.
    pub(crate) fn ring_ptr(&mut self) -> *mut FlightRing {
        &mut self.ring
    }

    #[inline]
    fn push(&mut self, event: RawEvent) {
        let pos = self.ring.pos as usize;
        self.storage[pos] = event;
        self.ring.pos = (self.ring.pos + 1) % self.ring.cap;
        if self.ring.len < self.ring.cap {
            self.ring.len += 1;
        } else {
            self.ring.evicted += 1;
        }
    }

    /// Records a block dispatch.
    #[inline]
    pub fn record_block(&mut self, instret: u64, pc: u32) {
        self.ring.blocks += 1;
        self.push(RawEvent {
            instret,
            pc,
            tag: TAG_BLOCK,
            ..RawEvent::default()
        });
    }

    /// Records a trap being taken.
    #[inline]
    pub fn record_trap(&mut self, instret: u64, pc: u32, mcause: u32) {
        self.traps += 1;
        self.push(RawEvent {
            instret,
            pc,
            tag: TAG_TRAP,
            a: mcause,
            ..RawEvent::default()
        });
    }

    /// Records a device (MMIO) access.
    #[inline]
    pub fn record_device(
        &mut self,
        instret: u64,
        pc: u32,
        device: &'static str,
        addr: u32,
        value: u32,
        is_store: bool,
    ) {
        self.device_accesses += 1;
        let idx = match self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, device) || *n == device)
        {
            Some(idx) => idx,
            None => {
                self.names.push(device);
                self.names.len() - 1
            }
        };
        self.push(RawEvent {
            instret,
            pc,
            tag: TAG_DEVICE,
            a: addr,
            b: value,
            c: (idx as u32) << 1 | if is_store { DEVICE_STORE_BIT } else { 0 },
            _pad: 0,
        });
    }

    /// The recorded tail, oldest first, with the device name attached to
    /// each `Device` event (`None` for blocks and traps).
    pub fn tail(&self) -> Vec<(FlightEvent, Option<&'static str>)> {
        let (cap, len, pos) = (self.ring.cap, self.ring.len, self.ring.pos);
        (0..len)
            .map(|i| {
                let raw = &self.storage[((pos + cap - len + i) % cap) as usize];
                match raw.tag {
                    TAG_TRAP => (
                        FlightEvent::Trap {
                            instret: raw.instret,
                            pc: raw.pc,
                            mcause: raw.a,
                        },
                        None,
                    ),
                    TAG_DEVICE => (
                        FlightEvent::Device {
                            instret: raw.instret,
                            pc: raw.pc,
                            addr: raw.a,
                            value: raw.b,
                            is_store: raw.c & DEVICE_STORE_BIT != 0,
                        },
                        self.names.get((raw.c >> 1) as usize).copied(),
                    ),
                    _ => (
                        FlightEvent::Block {
                            instret: raw.instret,
                            pc: raw.pc,
                        },
                        None,
                    ),
                }
            })
            .collect()
    }

    /// Events currently held (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len as usize
    }

    /// Whether nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.cap as usize
    }

    /// Events evicted since the last [`clear`](FlightRecorder::clear).
    pub fn evicted(&self) -> u64 {
        self.ring.evicted
    }

    /// Total block dispatches recorded (including evicted ones).
    pub fn blocks_recorded(&self) -> u64 {
        self.ring.blocks
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
        self.ring.pos = 0;
        self.ring.len = 0;
        self.ring.evicted = 0;
        self.ring.blocks = 0;
        self.traps = 0;
        self.device_accesses = 0;
        self.names.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_last_n_events() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..6u64 {
            fr.record_block(i, 0x100 + i as u32 * 4);
        }
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

    #[test]
    fn device_names_survive_eviction() {
        let mut fr = FlightRecorder::new(2);
        fr.record_device(1, 0x100, "uart", 0x1000_0000, 0x41, true);
        fr.record_block(2, 0x104);
        fr.record_device(3, 0x108, "clint", 0x0200_0000, 7, false);
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
        fr.record_trap(5, 0x100, 2);
        fr.record_block(6, 0x104);
        fr.record_block(7, 0x108);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.evicted(), 0);
        assert_eq!(fr.traps_recorded(), 0);
        assert_eq!(fr.capacity(), 2);
    }

    #[test]
    fn ring_header_layout_is_what_the_jit_bakes_in() {
        // The JIT's inline ring write hard-codes these offsets; a
        // layout change must fail loudly here, not corrupt recordings.
        assert_eq!(std::mem::size_of::<RawEvent>(), 32);
        assert_eq!(std::mem::offset_of!(RawEvent, instret), 0);
        assert_eq!(std::mem::offset_of!(RawEvent, pc), 8);
        assert_eq!(std::mem::offset_of!(RawEvent, tag), 12);
        assert_eq!(std::mem::offset_of!(FlightRing, buf), 0);
        assert_eq!(std::mem::offset_of!(FlightRing, cap), 8);
        assert_eq!(std::mem::offset_of!(FlightRing, pos), 16);
        assert_eq!(std::mem::offset_of!(FlightRing, len), 24);
        assert_eq!(std::mem::offset_of!(FlightRing, evicted), 32);
        assert_eq!(std::mem::offset_of!(FlightRing, blocks), 40);
        assert_eq!(TAG_BLOCK, 0);
    }

    #[test]
    fn clone_rebinds_the_ring_buffer() {
        let mut fr = FlightRecorder::new(2);
        fr.record_block(1, 0x100);
        let mut copy = fr.clone();
        copy.record_block(2, 0x104);
        // Writes into the clone must not alias the original's storage.
        assert_eq!(fr.len(), 1);
        assert_eq!(copy.len(), 2);
        assert_eq!(
            copy.tail()[1].0,
            FlightEvent::Block {
                instret: 2,
                pc: 0x104
            }
        );
    }
}
