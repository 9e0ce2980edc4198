//! The virtual prototype: fetch/decode/execute loop with a translation
//! block cache, device bus, interrupt handling and plugin instrumentation.

use crate::bus::{Bus, BusEvent, BusFault, PAGE_SIZE, RAM_BASE, RAM_SIZE};
use crate::cancel::CancelToken;
use crate::cpu::Cpu;
use crate::dev::{
    Clint, Syscon, Uart, CLINT_BASE, CLINT_SIZE, SYSCON_BASE, SYSCON_SIZE, UART_BASE, UART_SIZE,
};
use crate::flight::FlightRecorder;
use crate::jit::{self, JitEngine};
use crate::plugin::{BlockEntry, BlockInfo, DeviceAccess, MemAccess, Plugin};
use crate::snapshot::{zero_page, VpSnapshot};
use crate::stats::{Bail, DispatchStats};
use crate::timing::TimingModel;
use crate::trap::Trap;
use crate::uop::{lower_block, MicroOp, Op};
use s4e_isa::{decode, Extension, Insn, InsnKind, IsaConfig};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::ptr::NonNull;

use std::sync::Arc;

/// Maximum instructions per translation block.
const MAX_BLOCK_INSNS: usize = 32;

/// Slots in the direct-mapped jump cache (must be a power of two). Sized
/// like QEMU's `tb_jmp_cache`: large enough that the hot working set of a
/// typical guest maps without conflict misses, small enough to stay
/// cache-resident.
const JMP_CACHE_SLOTS: usize = 2048;

/// Maps a block start address to its jump-cache slot. Block starts are
/// 2-byte aligned (IALIGN with the C extension), so dropping the low bit
/// uses all the entropy the address has.
#[inline]
fn jmp_cache_slot(pc: u32) -> usize {
    (pc >> 1) as usize & (JMP_CACHE_SLOTS - 1)
}

/// Capacity of the plugin event buffer: the block entries native code
/// records before it returns to the dispatcher to have them drained.
const BLOCK_EVENTS: usize = 1024;

/// Default instruction budget of [`Vp::run`].
pub const DEFAULT_INSN_LIMIT: u64 = 100_000_000;

/// Why a [`Vp::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The guest wrote the system controller's exit register.
    Exit(u32),
    /// The guest executed `ebreak` (the suite's "stop simulation"
    /// convention, like QEMU semihosting).
    Break,
    /// The instruction budget was exhausted; execution can be resumed.
    InsnLimit,
    /// `wfi` with no wake-up source armed.
    IdleWfi,
    /// A trap was raised with no trap vector installed (`mtvec == 0`) —
    /// the fault campaigns' "crash" outcome.
    Fatal(Trap),
    /// A [`Vp::run_until`] call observed its [`CancelToken`] cancelled or
    /// past its wall-clock deadline; execution can be resumed.
    Cancelled,
}

impl RunOutcome {
    /// Whether the guest terminated normally (exit code 0 or `ebreak`).
    pub fn is_normal_termination(&self) -> bool {
        matches!(self, RunOutcome::Exit(0) | RunOutcome::Break)
    }
}

/// The immutable payload of a translated block: decoded instructions,
/// lowered micro-ops and static successor pcs.
#[derive(Debug)]
struct BlockBody {
    insns: Vec<(u32, Insn)>,
    /// The lowered micro-op form, executed by the micro-op engine (empty
    /// on the uncached interpreter, which never lowers).
    uops: Vec<MicroOp>,
    /// The fall-through pc (one past the last instruction).
    fall_pc: u32,
    /// The static taken target of the final instruction, when it has one
    /// (conditional branches and `jal`).
    target_pc: Option<u32>,
}

/// One decoded basic block: the immutable body plus its chain links,
/// JIT state and plugin subscription.
#[derive(Debug)]
struct Block {
    body: BlockBody,
    /// Direct links to the translated successors at `fall_pc` (slot 0)
    /// and `target_pc` (slot 1), installed lazily by the dispatch loop
    /// and severed wholesale by [`Vp::invalidate_caches`].
    links: [ChainLink; 2],
    /// The block's template-JIT promotion state, one per engine (plain,
    /// masked). Invalidation discards the state together with the
    /// block.
    jit: JitSlot,
    /// Whether an attached plugin subscribed this block's instruction
    /// and RAM-access events ([`Plugin::wants_insn_events`], asked when
    /// the block was translated). Subscribed blocks run instruction by
    /// instruction; the rest run on the micro-op engine or the template
    /// JIT and notify no instruction or RAM access.
    insn_events: bool,
}

/// FNV-1a 64-bit over `bytes` — dependency-free and cheap, used to
/// re-validate a retained native block against the code bytes it was
/// compiled from before re-adopting it after a restore.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The smallest range covering every `(lo, hi)` in `ranges`, or `None`
/// when there are none: the union of the JIT engines' surviving code
/// ranges.
fn union_ranges(ranges: impl Iterator<Item = (u32, u32)>) -> Option<(u32, u32)> {
    ranges.reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
}

/// An interior-mutable successor pointer for direct block chaining.
///
/// Links are raw pointers, not `Arc`s: blocks readily form cycles (any
/// loop does), and the refcount traffic is exactly what the fast path
/// exists to avoid. Instead, validity is a cache-lifetime invariant:
///
/// - links are only installed between blocks owned by `Vp::cache`
///   (never scratch blocks), so a linked-to block stays alive as long
///   as any link to it exists;
/// - `Vp::invalidate_caches` clears every link in the cache *before*
///   dropping the blocks, so no dangling link survives an invalidation
///   (SMC, `fence.i`, `load`, `bus_mut`, restore).
///
/// # Safety
///
/// All access goes through the uniquely-owning `Vp` (`&mut self` on
/// every path that reads or writes a link), and `Vp` is `Send` but not
/// `Sync`, so two threads can never race on a cell. The impls below
/// exist only so `Arc<Block>` stays `Send` and `Vp` keeps its
/// load-bearing `Send` bound.
#[derive(Default)]
struct ChainLink(UnsafeCell<Option<NonNull<Block>>>);

unsafe impl Send for ChainLink {}
unsafe impl Sync for ChainLink {}

impl ChainLink {
    fn get(&self) -> Option<NonNull<Block>> {
        unsafe { *self.0.get() }
    }

    fn set(&self, target: Option<NonNull<Block>>) {
        unsafe { *self.0.get() = target }
    }
}

impl std::fmt::Debug for ChainLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ChainLink")
            .field(&self.get().map(|_| "linked"))
            .finish()
    }
}

/// Per-block template-JIT promotion state, indexed by engine: `0` for
/// the plain engine, `1` for the masked engine, which runs while
/// stuck-at register masks are armed and reads the armed registers
/// through them. The engines compile different lowerings into different
/// arenas, so each keeps its own count and cookie.
///
/// Interior-mutable for the same reason — and under the same safety
/// argument — as [`ChainLink`]: every read and write goes through the
/// uniquely-owning `Vp` (`&mut self`), which is `Send` but not `Sync`,
/// so no two threads can race on the cell. The `unsafe impl`s only keep
/// `Arc<Block>` (and thereby `Vp`) `Send`.
struct JitSlot(UnsafeCell<[JitState; 2]>);

/// Where a block stands on the path to native code.
#[derive(Debug, Clone, Copy)]
enum JitState {
    /// Executions observed so far; promoted at `Vp::jit_threshold`.
    Counting(u32),
    /// Compiled: the arena entry cookie for `JitEngine::run`. Valid
    /// exactly as long as the block itself — `invalidate_caches` resets
    /// the engine in the same breath as it drops the blocks.
    Compiled(usize),
    /// Contains a micro-op with no template (or the arena was full):
    /// never re-attempted until invalidation retranslates the block.
    Ineligible,
}

unsafe impl Send for JitSlot {}
unsafe impl Sync for JitSlot {}

impl Default for JitSlot {
    fn default() -> JitSlot {
        JitSlot(UnsafeCell::new([JitState::Counting(0); 2]))
    }
}

impl std::fmt::Debug for JitSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: `&self` from the owning `Vp`; see the type docs.
        f.debug_tuple("JitSlot")
            .field(unsafe { &*self.0.get() })
            .finish()
    }
}

/// Builder for a [`Vp`].
///
/// # Examples
///
/// ```
/// use s4e_vp::{Vp, TimingModel};
/// use s4e_isa::IsaConfig;
///
/// let vp = Vp::builder()
///     .isa(IsaConfig::rv32i())
///     .ram(0x8000_0000, 64 * 1024)
///     .timing(TimingModel::flat())
///     .block_cache(false)
///     .build();
/// assert_eq!(vp.bus().ram_size(), 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct VpBuilder {
    isa: IsaConfig,
    ram_base: u32,
    ram_size: u32,
    timing: TimingModel,
    cache_enabled: bool,
    jit_enabled: bool,
    jit_threshold: u32,
}

impl VpBuilder {
    /// Sets the ISA configuration (default: RV32IMC).
    #[must_use]
    pub fn isa(mut self, isa: IsaConfig) -> VpBuilder {
        self.isa = isa;
        self
    }

    /// Sets RAM base and size (default: 4 MiB at `0x8000_0000`).
    #[must_use]
    pub fn ram(mut self, base: u32, size: u32) -> VpBuilder {
        self.ram_base = base;
        self.ram_size = size;
        self
    }

    /// Sets the timing model (default: [`TimingModel::new`]).
    #[must_use]
    pub fn timing(mut self, timing: TimingModel) -> VpBuilder {
        self.timing = timing;
        self
    }

    /// Enables or disables the translation block cache (default: enabled).
    ///
    /// The cache selects between the VP's two interpreters. With it on,
    /// blocks are lowered to micro-ops once, found again through a
    /// direct-mapped jump cache, chained to their successors, and their
    /// aligned RAM accesses skip bus dispatch; the template JIT (see
    /// [`jit`](VpBuilder::jit)) builds on top. With it off, every block
    /// is decoded afresh at every dispatch and run one instruction at a
    /// time through the bus, and interrupt state is polled at every
    /// block boundary: the per-instruction interpreter that shares none
    /// of the cached tiers' shortcuts. It is the ablation baseline of
    /// experiment A1 and the oracle the cached tiers are tested against.
    /// It has no architectural effect.
    #[must_use]
    pub fn block_cache(mut self, enabled: bool) -> VpBuilder {
        self.cache_enabled = enabled;
        self
    }

    /// Enables or disables the template JIT tier (default: enabled).
    ///
    /// With the JIT on, blocks that stay hot past the promotion
    /// threshold are compiled from their micro-ops to host machine code
    /// and chained directly block-to-block; anything the templates do
    /// not cover bails out to the micro-op engine before taking any
    /// architectural effect, so the tier has no architectural effect —
    /// it is a strict speedup. The JIT compiles the micro-op engine's
    /// blocks, so it is implicitly off whenever the
    /// [`block_cache`](VpBuilder::block_cache) is disabled, and on hosts
    /// other than x86-64.
    #[must_use]
    pub fn jit(mut self, enabled: bool) -> VpBuilder {
        self.jit_enabled = enabled;
        self
    }

    /// Sets how many times a block must execute before the JIT compiles
    /// it (default: 8; clamped to at least 1). Compilation is a
    /// copy-and-patch pass over the block's micro-ops into a dual-view
    /// arena — no per-compile syscalls — so compiling a block costs on
    /// the order of interpreting it a handful of times. A restore keeps
    /// the native code of every block whose code bytes it left
    /// unchanged (see [`Vp::restore`]), so restore-heavy workloads
    /// compile again only code that changed; a low default keeps that
    /// code, and short runs, from spending their time interpreted.
    /// Tests pin this to 1 to force immediate promotion.
    #[must_use]
    pub fn jit_threshold(mut self, executions: u32) -> VpBuilder {
        self.jit_threshold = executions;
        self
    }

    /// Builds the virtual prototype.
    ///
    /// # Panics
    ///
    /// Panics if the RAM region is empty or wraps the address space.
    pub fn build(self) -> Vp {
        let mut bus = Bus::new(self.ram_base, self.ram_size);
        bus.map_device(UART_BASE, UART_SIZE, Box::new(Uart::new()));
        bus.map_device(SYSCON_BASE, SYSCON_SIZE, Box::new(Syscon::new()));
        bus.map_device(CLINT_BASE, CLINT_SIZE, Box::new(Clint::new()));
        let pages = self.ram_size.div_ceil(PAGE_SIZE) as usize;
        // `JitEngine::new` returns `None` off x86-64. The masked engine
        // is created at the first run entry with masks armed.
        let jit = if self.jit_enabled && self.cache_enabled {
            [JitEngine::new(0).map(Box::new), None]
        } else {
            [None, None]
        };
        Vp {
            cpu: Cpu::new(self.isa, self.ram_base),
            bus,
            timing: self.timing,
            plugins: Vec::new(),
            cache: HashMap::new(),
            cache_enabled: self.cache_enabled,
            jit,
            jit_threshold: self.jit_threshold.max(1),
            block_starts: Vec::new(),
            insn_events: false,
            jmp_cache: vec![None; JMP_CACHE_SLOTS],
            scratch: None,
            code_lo: u32::MAX,
            code_hi: 0,
            block_exit_pending: false,
            invalidate_pending: false,
            irq_resample: true,
            mip_poll_at: 0,
            sync_pages: vec![zero_page(); pages],
            stats: DispatchStats::default(),
            flight: None,
            block_events: Box::default(),
        }
    }
}

impl Default for VpBuilder {
    fn default() -> Self {
        VpBuilder {
            isa: IsaConfig::rv32imc(),
            ram_base: RAM_BASE,
            ram_size: RAM_SIZE,
            timing: TimingModel::new(),
            cache_enabled: true,
            jit_enabled: true,
            jit_threshold: 8,
        }
    }
}

/// The virtual prototype: a single RV32 hart, RAM, devices and plugins.
///
/// # Examples
///
/// Running a small program to completion:
///
/// ```
/// use s4e_vp::{RunOutcome, Vp};
/// use s4e_isa::{Gpr, IsaConfig};
///
/// // addi a0, zero, 5 ; ebreak
/// let code = [0x13, 0x05, 0x50, 0x00, 0x73, 0x00, 0x10, 0x00];
/// let mut vp = Vp::new(IsaConfig::rv32i());
/// vp.load(0x8000_0000, &code)?;
/// assert_eq!(vp.run(), RunOutcome::Break);
/// assert_eq!(vp.cpu().gpr(Gpr::A0), 5);
/// # Ok::<(), s4e_vp::BusFault>(())
/// ```
#[derive(Debug)]
pub struct Vp {
    cpu: Cpu,
    bus: Bus,
    timing: TimingModel,
    plugins: Vec<Box<dyn Plugin>>,
    cache: HashMap<u32, Arc<Block>>,
    /// Whether blocks are cached, lowered to micro-ops and chained (the
    /// micro-op engine) or decoded afresh per dispatch and interpreted
    /// per instruction (the oracle); see [`VpBuilder::block_cache`].
    cache_enabled: bool,
    /// The template JIT engines: `[plain, masked]`, indexed like
    /// [`JitSlot`]. The plain engine is `None` when the JIT is disabled
    /// at build time, without a block cache, or on hosts other than
    /// x86-64; the masked engine is created at the first run entry with
    /// stuck-at masks armed, and re-armed at every run entry whose armed
    /// registers differ from its own.
    jit: [Option<Box<JitEngine>>; 2],
    /// Block executions before a hot block is promoted to native code.
    jit_threshold: u32,
    /// Addresses no translated block may run across, sorted and
    /// deduplicated: the union of every attached plugin's
    /// [`Plugin::block_starts`].
    block_starts: Vec<u32>,
    /// Whether the block being executed is subscribed to instruction
    /// events (its `Block::insn_events`), set at every interpreted
    /// dispatch and cleared on native entry; gates `notify_insn` and
    /// RAM events in `observe_access` on every tier.
    insn_events: bool,
    /// Direct-mapped front for `cache`, indexed by [`jmp_cache_slot`]:
    /// `(start_pc, block)` pairs, probed before the `HashMap` on every
    /// dispatch (QEMU's `tb_jmp_cache`).
    jmp_cache: Vec<Option<(u32, Arc<Block>)>>,
    /// Keeps the most recently dispatched block alive while the run loop
    /// executes it when the block cache is disabled (nothing else owns
    /// it then).
    scratch: Option<Arc<Block>>,
    code_lo: u32,
    code_hi: u32,
    /// Set when a store hit a device: the run loop leaves the current
    /// block so interrupt state raised by the device is sampled promptly.
    block_exit_pending: bool,
    /// Set when translated code must be dropped (self-modifying store,
    /// `fence.i`). Acted on at the next dispatch boundary — never
    /// mid-block, which is what makes borrowing the current block across
    /// instruction execution sound.
    invalidate_pending: bool,
    /// Forces `mip` re-sampling at the next dispatch boundary regardless
    /// of `mip_poll_at` (set on any device access, run entry, wfi wake
    /// and restore — everything that can move interrupt state).
    irq_resample: bool,
    /// The next cycle at which a device's `mip` contribution can change
    /// spontaneously; block boundaries before this cycle skip the bus
    /// `mip` poll.
    mip_poll_at: u64,
    /// Per-page lineage: the snapshot page each RAM page last agreed
    /// with. Together with the bus dirty bitmap this makes both
    /// [`Vp::snapshot`] and [`Vp::restore`] O(diverged pages): a page is
    /// copied on restore only if it was written since the last
    /// snapshot/restore *or* the target snapshot holds a different page
    /// object than this VP last synchronized with.
    sync_pages: Vec<Arc<[u8]>>,
    stats: DispatchStats,
    /// The crash flight recorder, when armed: a bounded tail of executed
    /// blocks, traps and device accesses, recorded natively (one
    /// `Option` discriminant check per event when disarmed) so arming it
    /// keeps every block on the micro-op engine, the RAM fast path and
    /// the template JIT. Native code carries the ring write only while
    /// a recorder is armed.
    flight: Option<FlightRecorder>,
    /// The plugin event buffer: native code compiled while a plugin is
    /// attached writes one [`BlockEntry`] per block entry here, and
    /// `jit_dispatch` drains them into [`Plugin::on_block_executed`] as
    /// soon as native code returns. Empty until the first
    /// [`add_plugin`](Vp::add_plugin), which sizes it to
    /// [`BLOCK_EVENTS`].
    block_events: Box<[BlockEntry]>,
}

enum Step {
    Next,
    Jump(u32),
    Trap(Trap),
    Break,
    Wfi,
}

/// How a block-execution engine left the block: the run ended with an
/// outcome, or control reached a dispatch boundary (`cpu.pc()` holds the
/// next fetch address).
enum BlockExit {
    Done,
    Outcome(RunOutcome),
}

impl Vp {
    /// Creates a VP with default RAM, devices and timing for the given ISA.
    pub fn new(isa: IsaConfig) -> Vp {
        Vp::builder().isa(isa).build()
    }

    /// Returns a builder for non-default configurations.
    pub fn builder() -> VpBuilder {
        VpBuilder::default()
    }

    /// The hart's architectural state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the hart state (fault injection, entry-point
    /// setup).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The system bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable access to the bus (image loading, device state, memory
    /// fault injection).
    pub fn bus_mut(&mut self) -> &mut Bus {
        // Memory contents and interrupt state may change: drop translated
        // code and force an interrupt re-sample.
        self.invalidate_caches();
        self.irq_resample = true;
        &mut self.bus
    }

    /// Mutates one RAM byte in place under a guest store's invalidation
    /// contract instead of [`bus_mut`](Vp::bus_mut)'s drop-everything
    /// rule: the page is dirty-marked (so snapshot lineage stays exact),
    /// interrupts are re-sampled, and translated/native code is dropped
    /// only when the byte lies inside the tracked code range — the same
    /// SMC rule guest stores obey. Fault campaigns inject memory mutants
    /// through this so a data-byte flip leaves translated code,
    /// interpreted and JIT-compiled alike, untouched. Returns `false` (and changes
    /// nothing) when `addr` is outside RAM.
    pub fn update_ram_byte(&mut self, addr: u32, f: impl FnOnce(u8) -> u8) -> bool {
        let Some(byte) = self.bus.ram_byte_mut(addr) else {
            return false;
        };
        *byte = f(*byte);
        // Unlike the in-run store check this does not require a
        // non-empty interpreter cache: right after a restore the block
        // cache is empty while retained native code is still live, and
        // a code-byte mutation must drop it. Interpreter translations
        // are cheap to rebuild and dropped wholesale; native blocks are
        // dropped surgically — only those whose bytes cover the mutated
        // address — so a campaign's opcode mutants pay for the block
        // they rewrote, not a cold arena.
        if addr >= self.code_lo && addr < self.code_hi {
            self.drop_translations();
            let survivors = union_ranges(
                self.jit
                    .iter_mut()
                    .flatten()
                    .filter_map(|jit| jit.invalidate_span(addr, 1)),
            );
            (self.code_lo, self.code_hi) = survivors.unwrap_or((u32::MAX, 0));
            self.invalidate_pending = false;
            self.stats.invalidations += 1;
        }
        self.irq_resample = true;
        true
    }

    /// The timing model in force.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Arms (or with `None`, disarms) the crash flight recorder. Like a
    /// [`Plugin`] that subscribes no block, an armed recorder keeps the
    /// micro-op engine, the RAM fast path and the template JIT active:
    /// it only observes block dispatches, traps and device accesses, all
    /// visible off the fast paths. Native code writes the ring only
    /// when compiled while a recorder is armed, so the next run after
    /// arming or disarming drops the blocks translated and compiled so
    /// far; replacing an armed recorder keeps them.
    pub fn set_flight_recorder(&mut self, recorder: Option<FlightRecorder>) {
        self.flight = recorder;
    }

    /// The armed flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable access to the armed flight recorder (clearing between
    /// mutants).
    pub fn flight_recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// Disarms and returns the flight recorder.
    pub fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.flight.take()
    }

    /// Attaches an instrumentation plugin, adding its
    /// [`block_starts`](Plugin::block_starts) to the VP's. Blocks
    /// translated and compiled so far are dropped, so every block is cut
    /// at the declared starts, asked for its instruction subscription
    /// with this plugin attached, and compiled with the native
    /// block-event write.
    pub fn add_plugin(&mut self, plugin: Box<dyn Plugin>) {
        let starts = plugin.block_starts();
        if !starts.is_empty() {
            self.block_starts.extend(starts);
            self.block_starts.sort_unstable();
            self.block_starts.dedup();
        }
        self.plugins.push(plugin);
        if self.block_events.is_empty() {
            self.block_events = vec![BlockEntry::default(); BLOCK_EVENTS].into_boxed_slice();
        }
        self.reset_native();
    }

    /// Drops every translated block and resets both JIT engines, so
    /// every block is compiled again for the VP's current plugins and
    /// flight recorder. The tracked code range stays: it may only be
    /// too wide, which costs a spurious invalidation at worst.
    fn reset_native(&mut self) {
        self.drop_translations();
        for jit in self.jit.iter_mut().flatten() {
            jit.reset();
        }
    }

    /// Matches the JIT engines to the flight recorder and the stuck-at
    /// masks at run entry, where no block pointer is live; both change
    /// only between runs, since plugins receive `&Cpu`. An engine whose
    /// blocks were compiled with the ring write while no recorder is
    /// armed, or without it while one is, resets both engines and drops
    /// every translation. With faults enabled, the masked engine is
    /// pointed at the registers the CPU's masks arm, created on first
    /// use: its templates read only those registers through the masks,
    /// so a different set drops its code and the translations holding
    /// the entry cookies; a repeated set keeps both, restores included.
    fn arm_engines(&mut self) {
        let flight = self.flight.is_some();
        if self
            .jit
            .iter()
            .flatten()
            .any(|e| e.ring().is_some_and(|r| r != flight))
        {
            self.reset_native();
        }
        if !self.cpu.faults_enabled() {
            return;
        }
        let armed = self.cpu.armed_gprs();
        match &mut self.jit[1] {
            Some(engine) if engine.armed() == armed => {}
            Some(engine) => {
                engine.rearm(armed);
                self.drop_translations();
            }
            None => self.jit[1] = JitEngine::new(armed).map(Box::new),
        }
    }

    /// Recovers an attached plugin by concrete type (first match).
    pub fn plugin<T: Plugin + 'static>(&self) -> Option<&T> {
        self.plugins
            .iter()
            .find_map(|p| p.as_ref().as_any().downcast_ref::<T>())
    }

    /// Mutable access to an attached plugin by concrete type.
    pub fn plugin_mut<T: Plugin + 'static>(&mut self) -> Option<&mut T> {
        self.plugins
            .iter_mut()
            .find_map(|p| p.as_mut().as_any_mut().downcast_mut::<T>())
    }

    /// Loads raw bytes into RAM and invalidates translated code.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] if the range is outside RAM.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), BusFault> {
        // Also resets the translated-code range: without that, stores into
        // the *previous* image's code range would keep triggering spurious
        // invalidations for the lifetime of the new program.
        self.invalidate_caches();
        self.bus.load(addr, bytes)
    }

    /// Drops all translated code (block cache and jump cache) and resets
    /// the tracked code range. Called directly from every out-of-run
    /// mutation point; the run loop defers to its next dispatch boundary
    /// via `invalidate_pending` instead.
    fn invalidate_caches(&mut self) {
        self.drop_translations();
        // Dropping the blocks above destroyed every `JitSlot` entry
        // cookie, so the arena can be recycled wholesale. (The restore
        // path is the one caller that instead *retains* native code —
        // it calls `drop_translations` directly and lets the engine
        // keep every block whose code pages the restore left alone.)
        for jit in self.jit.iter_mut().flatten() {
            jit.reset();
        }
        self.code_lo = u32::MAX;
        self.code_hi = 0;
        self.invalidate_pending = false;
        self.stats.invalidations += 1;
    }

    /// Drops the interpreter-side translated code — block cache, jump
    /// cache and scratch block — without touching the JIT arena or the
    /// tracked code range. Severs every chain link first: links are raw
    /// pointers whose validity is exactly the cache's lifetime.
    fn drop_translations(&mut self) {
        for block in self.cache.values() {
            block.links[0].set(None);
            block.links[1].set(None);
        }
        self.cache.clear();
        self.jmp_cache.iter_mut().for_each(|s| *s = None);
        self.scratch = None;
    }

    /// Dispatch and snapshot counters accumulated since construction (or
    /// since [`take_dispatch_stats`](Vp::take_dispatch_stats)).
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.stats
    }

    /// Returns the accumulated [`DispatchStats`] and resets them to zero,
    /// for periodic draining into a metrics registry.
    pub fn take_dispatch_stats(&mut self) -> DispatchStats {
        std::mem::take(&mut self.stats)
    }

    // ------------------------------------------------------- snapshot

    /// Captures the complete architectural state: CPU, RAM, devices and
    /// pending bus event. Cost is proportional to the number of RAM pages
    /// written since the previous `snapshot()` (or since reset), not to
    /// the RAM size: clean pages are shared with the previous capture by
    /// reference.
    pub fn snapshot(&mut self) -> VpSnapshot {
        // Fold pages that diverged from the recorded lineage back in, so
        // `sync_pages` becomes an exact image of current RAM.
        let dirty: Vec<usize> = self.bus.dirty_pages().collect();
        for &page in &dirty {
            let range = self.bus.page_range(page);
            self.sync_pages[page] = Arc::from(&self.bus.ram()[range]);
        }
        self.bus.clear_dirty();
        self.stats.snapshots += 1;
        self.stats.pages_flushed += dirty.len() as u64;
        VpSnapshot {
            cpu: self.cpu.clone(),
            ram_base: self.bus.ram_base(),
            ram_size: self.bus.ram_size(),
            pages: self.sync_pages.clone(),
            devices: self.bus.save_devices(),
            pending_event: self.bus.peek_event(),
            block_exit_pending: self.block_exit_pending,
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// Restores state captured by [`snapshot`](Vp::snapshot) — on this VP
    /// or any other VP built with the same RAM geometry and device
    /// complement. Only pages on which this VP's RAM and the snapshot
    /// disagree are copied (O(diverged pages)); restoring a snapshot onto
    /// the VP that just took it and hasn't run since copies nothing.
    ///
    /// Interpreter-side translated blocks are dropped (the snapshot may
    /// hold different guest code) and interrupt state is re-sampled at
    /// the next dispatch, but the JIT arena *survives*: native blocks
    /// whose code pages this restore did not rewrite stay compiled, and
    /// are re-adopted — after their code bytes re-hash to the value they
    /// were compiled from — the first time a freshly translated block
    /// meets them. Restore-heavy campaign workloads therefore keep the
    /// golden run's native code warm across every mutant. Plugins are
    /// *not* part of the snapshot: attached plugins simply observe
    /// execution resuming from the restore point.
    ///
    /// # Panics
    ///
    /// Panics if the RAM geometry or device count differs from the
    /// snapshot's — snapshots are not portable across VP configurations.
    pub fn restore(&mut self, snapshot: &VpSnapshot) {
        assert_eq!(
            (snapshot.ram_base, snapshot.ram_size),
            (self.bus.ram_base(), self.bus.ram_size()),
            "snapshot RAM geometry mismatch"
        );
        // A page must be copied if RAM diverged from this VP's lineage
        // (dirty bit) or the lineage itself differs from the snapshot's
        // page (pointer inequality — exact, because untouched pages share
        // one allocation all the way back to the common zero page).
        let mut restored = 0u64;
        let mut restored_pages = vec![0u64; self.sync_pages.len().div_ceil(64)];
        for page in 0..self.sync_pages.len() {
            if self.bus.page_is_dirty(page)
                || !Arc::ptr_eq(&self.sync_pages[page], &snapshot.pages[page])
            {
                self.bus.copy_page_from(page, &snapshot.pages[page]);
                self.sync_pages[page] = Arc::clone(&snapshot.pages[page]);
                restored_pages[page >> 6] |= 1 << (page & 63);
                restored += 1;
            }
        }
        self.bus.clear_dirty();
        self.cpu = snapshot.cpu.clone();
        self.bus.restore_devices(&snapshot.devices);
        self.bus.set_pending_event(snapshot.pending_event);
        self.block_exit_pending = snapshot.block_exit_pending;
        // Retain the JIT arena: a native block survives when its code
        // bytes are still exactly what it was compiled from — trivially
        // true on pages the copy loop never touched, and checked by
        // FNV-1a re-hash on pages it did copy (a data store sharing the
        // 4 KiB page with code dirties the page without changing one
        // code byte, and the copy re-imposed the snapshot image). Each
        // survivor is additionally re-validated by code-bytes hash when
        // a fresh `JitSlot` first adopts it. The tracked code range
        // re-keys to the survivor union of both JIT engines so the SMC
        // filters keep covering retained code that has not been
        // re-fetched yet.
        self.drop_translations();
        let ram_base = self.bus.ram_base();
        let ram = self.bus.ram();
        let survivors = union_ranges(
            self.jit
                .iter_mut()
                .flatten()
                .filter_map(|jit| jit.retain_across_restore(&restored_pages, ram_base, ram)),
        );
        (self.code_lo, self.code_hi) = survivors.unwrap_or((u32::MAX, 0));
        self.invalidate_pending = false;
        self.stats.invalidations += 1;
        self.irq_resample = true;
        self.stats.restores += 1;
        self.stats.pages_restored += restored;
    }

    /// Runs with the default instruction budget.
    pub fn run(&mut self) -> RunOutcome {
        self.run_for(DEFAULT_INSN_LIMIT)
    }

    /// Runs at most `max_insns` instructions. Returns
    /// [`RunOutcome::InsnLimit`] when the budget is exhausted; calling
    /// `run_for` again resumes execution. The budget counts
    /// instructions begun: one that traps uses a unit like one that
    /// retires, and so does a fetch or decode fault.
    pub fn run_for(&mut self, max_insns: u64) -> RunOutcome {
        self.run_loop(max_insns, None)
    }

    /// Runs at most `max_insns` instructions under cooperative
    /// cancellation: `cancel` is polled at translation-block boundaries
    /// and the run returns [`RunOutcome::Cancelled`] once it trips —
    /// bounding even livelocked guests (e.g. interrupt storms) by wall
    /// clock, not just by instruction count. Execution can be resumed.
    ///
    /// The explicit cancellation flag is checked every block; the
    /// (costlier) deadline clock is sampled on the first block and every
    /// 64 blocks thereafter, so an already-expired token is observed
    /// before any guest instruction runs and the watchdog granularity is
    /// on the order of a couple of thousand guest instructions.
    pub fn run_until(&mut self, max_insns: u64, cancel: &CancelToken) -> RunOutcome {
        self.run_loop(max_insns, Some(cancel))
    }

    fn run_loop(&mut self, max_insns: u64, cancel: Option<&CancelToken>) -> RunOutcome {
        let instret = self.cpu.instret();
        let outcome = self.dispatch_loop(max_insns, cancel);
        self.stats.retired += self.cpu.instret() - instret;
        outcome
    }

    fn dispatch_loop(&mut self, max_insns: u64, cancel: Option<&CancelToken>) -> RunOutcome {
        let mut remaining = max_insns;
        let mut blocks = 0u32;
        // Device or bus state may have been mutated between runs.
        self.irq_resample = true;
        // The template JIT requires the block cache. Neither an armed
        // flight recorder nor an attached plugin disqualifies native
        // entry: the templates write the block-entry ring and the
        // plugin block events inline, and the loop below offers no block
        // a plugin subscribes to `jit_dispatch`. Armed register fault
        // masks select the masked engine inside `jit_dispatch`. Both
        // engines are matched here to this run's recorder and masks.
        let use_jit = self.jit[0].is_some() && self.cache_enabled;
        if use_jit {
            self.arm_engines();
        }
        // The block to dispatch next via a direct chain link, and the
        // (predecessor, slot) pair waiting for its successor to be
        // resolved so the link can be installed. Both are dropped at
        // every point where pc stops being the plain successor of the
        // previous block (interrupts, traps, invalidation).
        let mut chained: Option<NonNull<Block>> = None;
        let mut pending_link: Option<(NonNull<Block>, usize)> = None;
        loop {
            if let Some(token) = cancel {
                blocks = blocks.wrapping_add(1);
                if token.flag_raised() || (blocks & 63 == 1 && token.is_cancelled()) {
                    return RunOutcome::Cancelled;
                }
            }
            // Dispatch boundary: the only place deferred invalidation is
            // acted on, so translated blocks are never freed mid-execution.
            if self.invalidate_pending {
                self.invalidate_caches();
                chained = None;
                pending_link = None;
            }
            // Interrupts are sampled at block boundaries, like QEMU. The
            // cached tiers skip the bus poll while no device can change
            // its mip contribution spontaneously (e.g. no timer armed);
            // device accesses set `irq_resample`, so latched state can't
            // go stale. The interpreter oracle polls at every boundary.
            if !self.cache_enabled || self.irq_resample || self.cpu.cycles() >= self.mip_poll_at {
                self.irq_resample = false;
                let now = self.cpu.cycles();
                self.cpu.set_mip(self.bus.mip_bits(now));
                self.mip_poll_at = self.bus.mip_next_change(now);
            }
            if let Some(irq) = self.cpu.pending_interrupt() {
                chained = None;
                pending_link = None;
                if let Some(fatal) = self.raise(irq) {
                    return fatal;
                }
                continue;
            }
            let block: *const Block = match chained.take() {
                // SAFETY: the link was read from a cache-owned block at
                // the previous boundary and every invalidation since
                // would have cleared `chained` above.
                Some(b) => {
                    self.stats.chain_hits += 1;
                    b.as_ptr()
                }
                None => match self.fetch_block(self.cpu.pc(), pending_link.take()) {
                    Ok(b) => b,
                    Err(trap) => {
                        // A fetch or decode fault is an instruction
                        // begun, charged like one that traps while
                        // executing: a trap vector holding such a word
                        // must still end at the budget.
                        if remaining == 0 {
                            return RunOutcome::InsnLimit;
                        }
                        remaining -= 1;
                        if let Some(fatal) = self.raise(trap) {
                            return fatal;
                        }
                        continue;
                    }
                },
            };
            pending_link = None;
            // SAFETY: `block` points into an `Arc<Block>` owned by
            // `self.cache`, `self.jmp_cache` or `self.scratch`, none of
            // which are touched before the next dispatch boundary:
            // invalidation requests during execution only set
            // `invalidate_pending`.
            //
            // Try the native tier first, for blocks no plugin
            // subscribed. It declines (returning `None`) while the block
            // is cold or uncompilable, when a device event or block-exit
            // request is pending, or when the interpreter must poll
            // `mip` before running anything — the micro-op engine is the
            // unconditional fallback either way. Native blocks write the
            // flight ring and the plugin block events from their own
            // prologues, so the recorder and plugin block hooks fire
            // here only on the interpreted path — exactly once per block
            // entry either way. The ring records every dispatch,
            // matching the native prologue, which writes it before its
            // budget check; plugin block hooks fire only for blocks that
            // will run, not for one fetched after the budget ran out (it
            // fires on resume), and the native write tests the budget
            // the same way.
            // SAFETY: dispatch-boundary argument above.
            let subscribed = unsafe { (*block).insn_events };
            let native = if use_jit
                && !subscribed
                && !self.block_exit_pending
                && self.bus.peek_event().is_none()
            {
                self.jit_dispatch(block, &mut remaining)
            } else {
                None
            };
            let exit = match native {
                Some(exit) => exit,
                None => {
                    if let Some(flight) = &mut self.flight {
                        flight.record_block(self.cpu.instret(), self.cpu.pc());
                    }
                    if !self.plugins.is_empty() && remaining > 0 {
                        let entry = [BlockEntry {
                            pc: self.cpu.pc(),
                            instret: self.cpu.instret(),
                            cycles: self.cpu.cycles(),
                        }];
                        for p in &mut self.plugins {
                            p.on_block_executed(&entry);
                        }
                    }
                    self.insn_events = subscribed;
                    if self.cache_enabled && !subscribed {
                        self.exec_block_uops(block, 0, &mut remaining)
                    } else {
                        self.exec_block_insns(block, 0, &mut remaining)
                    }
                }
            };
            match exit {
                BlockExit::Outcome(outcome) => return outcome,
                BlockExit::Done => {}
            }
            if self.cache_enabled {
                // Where did control go? If it is one of this block's two
                // static successors, either follow the already-installed
                // link or ask the next fetch to install it. pc-equality
                // keeps this purely a dispatch prediction: a wrong or
                // missing link can cost a cache probe, never correctness.
                let pc = self.cpu.pc();
                let b = unsafe { &*block };
                let slot = if pc == b.body.fall_pc {
                    Some(0)
                } else if Some(pc) == b.body.target_pc {
                    Some(1)
                } else {
                    None
                };
                if let Some(slot) = slot {
                    match b.links[slot].get() {
                        Some(next) => chained = Some(next),
                        None => {
                            pending_link = NonNull::new(block.cast_mut()).map(|b| (b, slot));
                        }
                    }
                }
            }
        }
    }

    /// Tries to execute `block` natively through the template JIT: the
    /// plain engine, or the masked engine while stuck-at register masks
    /// are armed. The caller offers only blocks no plugin subscribed to
    /// instruction events: subscribed blocks never run natively.
    ///
    /// Returns `None` — the caller falls back to the micro-op engine —
    /// while the block is cold, when it has no native translation
    /// (ineligible micro-ops or a full arena), when the budget is
    /// already spent, or when the interpreter is due to poll `mip`
    /// before running anything. Otherwise runs native code (following direct native
    /// chains) until a block boundary at the `mip` deadline, a full
    /// plugin event buffer, budget exhaustion, or a template bail-out,
    /// then folds the accumulated cycle/instret deltas into the CPU and
    /// hands the recorded block entries to the plugins. A bail-out
    /// resumes the bailing block mid-way through the interpreter with
    /// no architectural effect of the bailing micro-op applied.
    fn jit_dispatch(&mut self, block: *const Block, remaining: &mut u64) -> Option<BlockExit> {
        // SAFETY: dispatch-boundary argument as in `exec_block_uops`.
        debug_assert!(!unsafe { (*block).insn_events }, "subscribed block offered");
        if *remaining == 0 {
            return None;
        }
        // Armed stuck-at masks filter GPR reads; the plain engine reads
        // the file raw, so they select the masked engine, whose
        // templates read the armed registers through the mask table.
        // Masks only change between runs, so a native chain never
        // crosses engines, and run entry armed the engine for them.
        let masked = self.cpu.faults_enabled();
        debug_assert!(
            !masked || self.jit[1].as_ref().map(|e| e.armed()) == Some(self.cpu.armed_gprs()),
            "masked engine armed for other registers than the CPU's masks"
        );
        let engine = usize::from(masked);
        // SAFETY: dispatch-boundary argument as in `exec_block_uops`;
        // slot access follows the `JitSlot` exclusive-`Vp` rule.
        let state = unsafe { &mut (*(*block).jit.0.get())[engine] };
        let entry = match *state {
            JitState::Ineligible => return None,
            JitState::Compiled(entry) => entry,
            JitState::Counting(seen) => {
                // SAFETY: the body is immutable and outlives this call
                // (see above).
                let body: &BlockBody = unsafe { &(*block).body };
                let pc = body.insns[0].0;
                // A restore dropped every `Block` (and with it each
                // `JitSlot` cookie) but retained the arena: probe for a
                // surviving native translation before counting from
                // cold, re-validating its code bytes against current
                // RAM with the FNV-1a hash it was compiled under. A
                // miss means this pc re-used pages whose contents
                // changed under the survivor — drop it and fall back to
                // counting.
                let retained = self.jit[engine]
                    .as_ref()
                    .expect("jit_dispatch requires an engine")
                    .retained(pc);
                let adopted = retained.and_then(|(entry, hash, len)| {
                    if self.bus.dump(pc, len as usize).map(fnv1a).ok() == Some(hash) {
                        self.stats.jit_retained += 1;
                        Some(entry)
                    } else {
                        self.jit[engine]
                            .as_mut()
                            .expect("probed above")
                            .drop_retained(pc);
                        self.stats.count_bail(Bail::RevalMiss);
                        None
                    }
                });
                if let Some(entry) = adopted {
                    *state = JitState::Compiled(entry);
                    entry
                } else {
                    let seen = seen.saturating_add(1);
                    if seen < self.jit_threshold {
                        *state = JitState::Counting(seen);
                        return None;
                    }
                    // Hot: compile now, keyed to the code-bytes hash so
                    // the translation can survive future restores (a
                    // failed dump hashes to 0, which is never retained).
                    let len = body.fall_pc.wrapping_sub(pc);
                    let hash = self.bus.dump(pc, len as usize).map(fnv1a).unwrap_or(0);
                    // The masked engine compiles the unfused lowering
                    // (see `uop.rs`); it is only built at compile time.
                    let unfused;
                    let uops: &[MicroOp] = if masked {
                        unfused = lower_block(&body.insns, &self.timing, self.cpu.isa(), false).0;
                        &unfused
                    } else {
                        &body.uops
                    };
                    let jit = self.jit[engine]
                        .as_mut()
                        .expect("jit_dispatch requires an engine");
                    match jit.compile(
                        pc,
                        uops,
                        body.fall_pc,
                        self.bus.ram_base(),
                        self.bus.ram_size(),
                        hash,
                        !self.plugins.is_empty(),
                        self.flight.is_some(),
                    ) {
                        jit::Compiled::Entry(entry) => {
                            self.stats.jit_blocks += 1;
                            *state = JitState::Compiled(entry);
                            entry
                        }
                        jit::Compiled::Ineligible => {
                            *state = JitState::Ineligible;
                            return None;
                        }
                    }
                }
            }
        };
        // Native code stops at the block boundary where the interpreter
        // would next poll `mip`, capped by `JIT_SLICE` so cancellation
        // tokens and watchdog clocks stay responsive. Zero means "poll
        // before running anything": let the interpreter take this block.
        let deadline = self
            .mip_poll_at
            .saturating_sub(self.cpu.cycles())
            .min(jit::JIT_SLICE);
        if deadline == 0 {
            return None;
        }
        let code_lo = self.code_lo;
        let code_hi = self.code_hi;
        let gprs = self.cpu.gprs_ptr();
        let masks = self.cpu.gpr_masks_ptr();
        let ram = self.bus.ram_ptr();
        let dirty = self.bus.dirty_ptr();
        // The native block-entry ring write stamps `bias - budget`,
        // which equals instret at that entry exactly (the budget has
        // not yet been charged for the entered block), matching what
        // `record_block` would have stamped interpreted.
        let instret_bias = self.cpu.instret().wrapping_add(*remaining);
        let flight = self
            .flight
            .as_mut()
            .map_or(std::ptr::null_mut(), FlightRecorder::ring_ptr);
        let cycles0 = self.cpu.cycles();
        // Native blocks are unsubscribed: a bail resumes the bailing
        // block on an engine that must report none of its instruction
        // or RAM events.
        self.insn_events = false;
        let jit = self.jit[engine].as_mut().expect("compiled above");
        // SAFETY: `entry` was produced by this engine since its last
        // reset — cookies live in per-engine `JitSlot` entries (dropped
        // with the blocks whenever the engines reset or drop blocks)
        // and retained entries are hash-revalidated at adoption. The
        // GPR/mask/RAM/dirty pointers, the flight ring and the event
        // buffer are exclusively ours through `&mut self` for the
        // duration of the call; armed masks selected the masked engine
        // above, which run entry armed for exactly the CPU's armed
        // registers. Only unsubscribed blocks are ever compiled (the run
        // loop never offers subscribed ones, and subscriptions depend on
        // the block alone). `add_plugin` resets the engines and sizes
        // the event buffer, so code with event writes always runs with a
        // non-empty buffer, and run entry resets them when the
        // recorder's armed state differs from their code's, so `flight`
        // is non-null exactly for code compiled with ring writes.
        let res = unsafe {
            jit.run(
                entry,
                gprs,
                masks,
                ram,
                dirty,
                *remaining,
                deadline,
                code_lo,
                code_hi,
                flight,
                instret_bias,
                &mut self.block_events,
            )
        };
        self.cpu.add_cycles(res.cycles);
        self.cpu.retire_n(res.retired);
        *remaining = res.remaining;
        self.stats.jit_exec += res.blocks;
        self.stats.jit_retired += res.retired;
        self.stats.fused_exec += res.fused;
        // Deliver the native block entries before anything else can
        // raise an event (a bail's resume included), rebasing each from
        // the budget and run-relative cycles the template wrote to the
        // hart's counters at that entry.
        if res.events > 0 {
            let entries = &mut self.block_events[..res.events];
            for e in entries.iter_mut() {
                e.instret = instret_bias - e.instret;
                e.cycles += cycles0;
            }
            for p in &mut self.plugins {
                p.on_block_executed(entries);
            }
        }
        match res.bail_uop {
            None => {
                self.cpu.set_pc(res.exit_pc);
                Some(BlockExit::Done)
            }
            Some(k) => {
                self.stats.count_bail(match res.reason {
                    jit::BAIL_MEM => Bail::Mem,
                    jit::BAIL_BUDGET => Bail::Budget,
                    jit::BAIL_SMC => Bail::Smc,
                    code => unreachable!("native bail with unknown reason code {code}"),
                });
                // The bailing block can be any block reached through
                // native chaining, not necessarily `block` — including
                // a *retained* survivor from before a restore that no
                // fetch has re-cached yet. Resolve by start pc, re-
                // translating if the cache has no entry: survivor code
                // bytes are unchanged by construction, so the fresh
                // lowering is identical to what the native code was
                // compiled from.
                let bail: *const Block = match self.cache.get(&res.exit_pc) {
                    Some(b) => Arc::as_ptr(b),
                    None => match self.fetch_block_inner(res.exit_pc) {
                        Ok(b) => b,
                        Err(trap) => {
                            // Defensive: survivor code bytes are
                            // unchanged, so re-decode cannot fail — but
                            // if it somehow does, surface the fetch
                            // trap architecturally rather than panic.
                            self.cpu.set_pc(res.exit_pc);
                            return Some(match self.raise(trap) {
                                Some(fatal) => BlockExit::Outcome(fatal),
                                None => BlockExit::Done,
                            });
                        }
                    },
                };
                // SAFETY: cache-owned block, same boundary argument.
                let body: &BlockBody = unsafe { &(*bail).body };
                let k = k as usize;
                if masked {
                    // The masked engine ran the unfused lowering:
                    // micro-op `k` is instruction `k`.
                    self.cpu.set_pc(body.insns[k].0);
                    Some(self.exec_block_insns(bail, k, remaining))
                } else {
                    self.cpu.set_pc(body.insns[body.uops[k].idx as usize].0);
                    Some(self.exec_block_uops(bail, k, remaining))
                }
            }
        }
    }

    /// Executes `block` per-instruction starting at `insns[start]`: the
    /// whole of the uncached interpreter, the cached path for blocks
    /// subscribed to instruction events, and the exact-boundary tail of
    /// the micro-op engine. The caller guarantees `cpu.pc()` equals the
    /// pc of `insns[start]` on entry.
    fn exec_block_insns(
        &mut self,
        block: *const Block,
        start: usize,
        remaining: &mut u64,
    ) -> BlockExit {
        // SAFETY: see the dispatch-boundary argument in `dispatch_loop`. The
        // body lives inside the block's heap allocation, is immutable
        // after translation, and is not freed before the next dispatch
        // boundary, so the derived reference stays valid across the
        // `&mut self` calls below (which never write through it).
        let body: &BlockBody = unsafe { &(*block).body };
        for i in start..body.insns.len() {
            if *remaining == 0 {
                return BlockExit::Outcome(RunOutcome::InsnLimit);
            }
            *remaining -= 1;
            let (pc, insn) = body.insns[i];
            match self.exec_insn(pc, &insn) {
                Some(outcome) => return BlockExit::Outcome(outcome),
                None => {
                    if self.block_exit_pending {
                        self.block_exit_pending = false;
                        break;
                    }
                    // Control left the block (jump/branch/trap)?
                    if self.cpu.pc() != insn.next_pc(pc) {
                        break;
                    }
                }
            }
        }
        BlockExit::Done
    }

    /// Executes `block` through its lowered micro-ops — semantically
    /// identical to [`exec_block_insns`](Vp::exec_block_insns) from the
    /// start, but with operands pre-extracted, cycle/instret accounting
    /// batched per block, per-instruction pc maintenance elided, and
    /// fused macro-ops retiring two instructions at once.
    ///
    /// Identity is preserved by flushing the batched accounting at every
    /// point where exact architectural state is observable: before any
    /// memory access that can reach a device or a plugin (both read
    /// `mcycle`/`minstret`), before the generic path (CSR reads), at
    /// traps and at block exits. Aligned accesses wholly inside RAM take
    /// a direct-RAM fast path with *no* flush — RAM has no
    /// time-dependent side effects, so the batched counters are
    /// unobservable there, and plugins observe RAM accesses only inside
    /// the blocks they subscribe, which never run here.
    /// Two situations replay the remainder of the block through the
    /// per-instruction engine instead: an instruction budget that expires
    /// inside the block (fault campaigns inject at exact instret
    /// boundaries, which may split a fused pair) and active stuck-at
    /// register faults (fused ops would constant-fold through a register
    /// read the per-instruction path filters through the fault masks).
    /// `start` is the micro-op to begin at: 0 from the dispatch loop, a
    /// bail point when resuming a block the JIT gave up on mid-way (the
    /// caller guarantees `cpu.pc()` matches `uops[start]`'s first
    /// constituent instruction, exactly as for `exec_block_insns`).
    #[allow(clippy::too_many_lines)]
    fn exec_block_uops(
        &mut self,
        block: *const Block,
        start: usize,
        remaining: &mut u64,
    ) -> BlockExit {
        // SAFETY: see the dispatch-boundary argument in `dispatch_loop` and
        // the body-lifetime argument in `exec_block_insns`: the body is
        // immutable and outlives this call.
        let body: &BlockBody = unsafe { &(*block).body };
        let uops: &[MicroOp] = &body.uops;
        let mut cycles: u64 = 0;
        let mut retired: u64 = 0;
        macro_rules! flush {
            () => {{
                self.cpu.add_cycles(cycles);
                self.cpu.retire_n(retired);
                #[allow(unused_assignments)]
                {
                    cycles = 0;
                    retired = 0;
                }
            }};
        }
        let mut i = start;
        'dispatch: loop {
            if i >= uops.len() {
                // Fell off the end: straight-line block (or a not-taken
                // final branch), control continues at the successor.
                self.cpu.set_pc(body.fall_pc);
                flush!();
                break 'dispatch;
            }
            let u = uops[i];
            i += 1;
            let n = u.n as u64;
            if *remaining < n || (u.n > 1 && self.cpu.faults_enabled()) {
                // Exact-boundary budget expiry, or stuck-at fault masks
                // active: replay the rest of the block per-instruction.
                flush!();
                let pc0 = body.insns[u.idx as usize].0;
                self.cpu.set_pc(pc0);
                return self.exec_block_insns(block, u.idx as usize, remaining);
            }
            *remaining -= n;
            if u.n > 1 {
                self.stats.fused_exec += 1;
            }
            macro_rules! alu {
                ($v:expr) => {{
                    let v = $v;
                    self.cpu.set_gpr(u.rd, v);
                    cycles += u.cost as u64;
                    retired += n;
                }};
            }
            macro_rules! trap {
                ($t:expr) => {{
                    flush!();
                    self.cpu.set_pc(u.pc);
                    match self.raise($t) {
                        Some(fatal) => return BlockExit::Outcome(fatal),
                        None => break 'dispatch,
                    }
                }};
            }
            // Memory micro-ops try the RAM fast path first: an aligned
            // access wholly inside RAM reads/writes the RAM slice with
            // *no* accounting flush — RAM has no time-dependent side
            // effects, so nothing can observe the batched counters.
            // Everything else (MMIO, misalignment, the RAM top edge)
            // flushes and takes the bus slow path, keeping trap and
            // event semantics byte-identical; it also sets pc to the
            // accessing instruction, so device hooks see the hart as the
            // per-instruction engine leaves it.
            macro_rules! mem_load {
                ($addr:expr, $size:expr, $conv:expr) => {{
                    let addr: u32 = $addr;
                    let fast = if addr.is_multiple_of($size as u32) {
                        self.bus.ram_read_fast(addr, $size)
                    } else {
                        None
                    };
                    if let Some(v) = fast {
                        self.cpu.set_gpr(u.rd, $conv(v));
                        cycles += u.cost as u64;
                        retired += 1;
                        self.stats.mem_fast_hits += 1;
                    } else {
                        self.stats.mem_slow_hits += 1;
                        flush!();
                        self.cpu.set_pc(u.pc);
                        match self.mem_load(u.pc, addr, $size) {
                            Ok(v) => {
                                self.cpu.set_gpr(u.rd, $conv(v));
                                cycles += u.cost as u64;
                                retired += 1;
                            }
                            Err(t) => {
                                // The faulting access's cost is charged but
                                // it does not retire (matching the reference
                                // `Step::Trap` sequence).
                                self.cpu.add_cycles(u.cost as u64);
                                trap!(t)
                            }
                        }
                    }
                }};
            }
            macro_rules! mem_store {
                ($addr:expr, $size:expr, $val:expr) => {{
                    let addr: u32 = $addr;
                    let val = $val;
                    let fast = addr.is_multiple_of($size as u32)
                        && self.bus.ram_write_fast(addr, $size, val);
                    if fast {
                        cycles += u.cost as u64;
                        retired += 1;
                        self.stats.mem_fast_hits += 1;
                        // Self-modifying code check, verbatim from
                        // `mem_store`: RAM writes bypass it on the fast
                        // path, so it must be replicated here.
                        if !self.cache.is_empty()
                            && addr.wrapping_add($size as u32) > self.code_lo
                            && addr < self.code_hi
                        {
                            self.invalidate_pending = true;
                        }
                        // A RAM store never raises a bus event or a block
                        // exit itself, but either may be pending from
                        // before this block (snapshot restore carries
                        // them): drain exactly like the slow path would.
                        if self.bus.peek_event().is_some() || self.block_exit_pending {
                            if let Some(BusEvent::Exit(code)) = self.bus.take_event() {
                                self.cpu.set_pc(u.next_pc);
                                flush!();
                                return BlockExit::Outcome(RunOutcome::Exit(code));
                            }
                            if self.block_exit_pending {
                                self.block_exit_pending = false;
                                self.cpu.set_pc(u.next_pc);
                                flush!();
                                break 'dispatch;
                            }
                        }
                    } else {
                        self.stats.mem_slow_hits += 1;
                        flush!();
                        self.cpu.set_pc(u.pc);
                        match self.mem_store(u.pc, addr, $size, val) {
                            Ok(()) => {
                                cycles += u.cost as u64;
                                retired += 1;
                                if let Some(BusEvent::Exit(code)) = self.bus.take_event() {
                                    self.cpu.set_pc(u.next_pc);
                                    flush!();
                                    return BlockExit::Outcome(RunOutcome::Exit(code));
                                }
                                if self.block_exit_pending {
                                    self.block_exit_pending = false;
                                    self.cpu.set_pc(u.next_pc);
                                    flush!();
                                    break 'dispatch;
                                }
                            }
                            Err(t) => {
                                self.cpu.add_cycles(u.cost as u64);
                                trap!(t)
                            }
                        }
                    }
                }};
            }
            // The first (auipc) half of a fused memory op: retires before
            // the access so device/plugin observers see exact counters.
            macro_rules! abs_base {
                () => {{
                    flush!();
                    self.cpu.add_cycles(u.cost2 as u64);
                    self.cpu.retire_n(1);
                    self.cpu.set_gpr(u.rs1, u.imm2 as u32);
                }};
            }
            macro_rules! branch_to_target {
                () => {{
                    cycles += u.cost as u64 + u.cost2 as u64;
                    retired += n;
                    self.cpu.set_pc(u.imm as u32);
                    flush!();
                    break 'dispatch;
                }};
            }
            macro_rules! branch {
                ($cond:expr) => {{
                    if $cond {
                        branch_to_target!()
                    } else {
                        cycles += u.cost as u64;
                        retired += n;
                    }
                }};
            }
            // Fused compare+branch: rd receives the comparison result
            // either way; the branch polarity decides the exit.
            macro_rules! cmp_branch {
                ($cmp:expr, $take_if_set:expr) => {{
                    let c = $cmp as u32;
                    self.cpu.set_gpr(u.rd, c);
                    branch!((c != 0) == $take_if_set)
                }};
            }
            match u.op {
                Op::LoadConst => alu!(u.imm as u32),
                Op::Addi => alu!(self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32)),
                Op::Slti => alu!(((self.cpu.gpr(u.rs1) as i32) < u.imm) as u32),
                Op::Sltiu => alu!((self.cpu.gpr(u.rs1) < u.imm as u32) as u32),
                Op::Xori => alu!(self.cpu.gpr(u.rs1) ^ u.imm as u32),
                Op::Ori => alu!(self.cpu.gpr(u.rs1) | u.imm as u32),
                Op::Andi => alu!(self.cpu.gpr(u.rs1) & u.imm as u32),
                Op::Slli => alu!(self.cpu.gpr(u.rs1) << (u.imm as u32 & 31)),
                Op::Srli => alu!(self.cpu.gpr(u.rs1) >> (u.imm as u32 & 31)),
                Op::Srai => alu!(((self.cpu.gpr(u.rs1) as i32) >> (u.imm as u32 & 31)) as u32),
                Op::Add => alu!(self.cpu.gpr(u.rs1).wrapping_add(self.cpu.gpr(u.rs2))),
                Op::Sub => alu!(self.cpu.gpr(u.rs1).wrapping_sub(self.cpu.gpr(u.rs2))),
                Op::Sll => alu!(self.cpu.gpr(u.rs1) << (self.cpu.gpr(u.rs2) & 31)),
                Op::Slt => {
                    alu!(((self.cpu.gpr(u.rs1) as i32) < self.cpu.gpr(u.rs2) as i32) as u32)
                }
                Op::Sltu => alu!((self.cpu.gpr(u.rs1) < self.cpu.gpr(u.rs2)) as u32),
                Op::Xor => alu!(self.cpu.gpr(u.rs1) ^ self.cpu.gpr(u.rs2)),
                Op::Srl => alu!(self.cpu.gpr(u.rs1) >> (self.cpu.gpr(u.rs2) & 31)),
                Op::Sra => {
                    alu!(((self.cpu.gpr(u.rs1) as i32) >> (self.cpu.gpr(u.rs2) & 31)) as u32)
                }
                Op::Or => alu!(self.cpu.gpr(u.rs1) | self.cpu.gpr(u.rs2)),
                Op::And => alu!(self.cpu.gpr(u.rs1) & self.cpu.gpr(u.rs2)),
                Op::Mul => alu!(self.cpu.gpr(u.rs1).wrapping_mul(self.cpu.gpr(u.rs2))),
                Op::Mulh => alu!(
                    (((self.cpu.gpr(u.rs1) as i32 as i64) * (self.cpu.gpr(u.rs2) as i32 as i64))
                        >> 32) as u32
                ),
                Op::Mulhsu => alu!(
                    (((self.cpu.gpr(u.rs1) as i32 as i64) * (self.cpu.gpr(u.rs2) as u64 as i64))
                        >> 32) as u32
                ),
                Op::Mulhu => alu!(
                    (((self.cpu.gpr(u.rs1) as u64) * (self.cpu.gpr(u.rs2) as u64)) >> 32) as u32
                ),
                Op::Div => {
                    let (a, b) = (self.cpu.gpr(u.rs1), self.cpu.gpr(u.rs2));
                    alu!(if b == 0 {
                        u32::MAX
                    } else if a == 0x8000_0000 && b == u32::MAX {
                        0x8000_0000
                    } else {
                        ((a as i32) / (b as i32)) as u32
                    })
                }
                Op::Divu => {
                    let (a, b) = (self.cpu.gpr(u.rs1), self.cpu.gpr(u.rs2));
                    alu!(a.checked_div(b).unwrap_or(u32::MAX))
                }
                Op::Rem => {
                    let (a, b) = (self.cpu.gpr(u.rs1), self.cpu.gpr(u.rs2));
                    alu!(if b == 0 {
                        a
                    } else if a == 0x8000_0000 && b == u32::MAX {
                        0
                    } else {
                        ((a as i32) % (b as i32)) as u32
                    })
                }
                Op::Remu => {
                    let (a, b) = (self.cpu.gpr(u.rs1), self.cpu.gpr(u.rs2));
                    alu!(if b == 0 { a } else { a % b })
                }
                Op::Clz => alu!(self.cpu.gpr(u.rs1).leading_zeros()),
                Op::Ctz => alu!(self.cpu.gpr(u.rs1).trailing_zeros()),
                Op::Pcnt => alu!(self.cpu.gpr(u.rs1).count_ones()),
                Op::Andn => alu!(self.cpu.gpr(u.rs1) & !self.cpu.gpr(u.rs2)),
                Op::Orn => alu!(self.cpu.gpr(u.rs1) | !self.cpu.gpr(u.rs2)),
                Op::Xnor => alu!(!(self.cpu.gpr(u.rs1) ^ self.cpu.gpr(u.rs2))),
                Op::Rol => alu!(self.cpu.gpr(u.rs1).rotate_left(self.cpu.gpr(u.rs2) & 31)),
                Op::Ror => alu!(self.cpu.gpr(u.rs1).rotate_right(self.cpu.gpr(u.rs2) & 31)),
                Op::Rev8 => alu!(self.cpu.gpr(u.rs1).swap_bytes()),
                Op::Bext => alu!((self.cpu.gpr(u.rs1) >> (self.cpu.gpr(u.rs2) & 31)) & 1),
                Op::ShiftPair => {
                    alu!((self.cpu.gpr(u.rs1) << (u.imm as u32)) >> (u.imm2 as u32))
                }
                Op::Lb => mem_load!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    1,
                    |v: u32| v as u8 as i8 as i32 as u32
                ),
                Op::Lh => mem_load!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    2,
                    |v: u32| v as u16 as i16 as i32 as u32
                ),
                Op::Lw => mem_load!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    4,
                    |v: u32| v
                ),
                Op::Lbu => mem_load!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    1,
                    |v: u32| v
                ),
                Op::Lhu => mem_load!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    2,
                    |v: u32| v
                ),
                Op::Sb => mem_store!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    1,
                    self.cpu.gpr(u.rs2)
                ),
                Op::Sh => mem_store!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    2,
                    self.cpu.gpr(u.rs2)
                ),
                Op::Sw => mem_store!(
                    self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32),
                    4,
                    self.cpu.gpr(u.rs2)
                ),
                Op::AbsLb => {
                    abs_base!();
                    mem_load!(u.imm as u32, 1, |v: u32| v as u8 as i8 as i32 as u32)
                }
                Op::AbsLh => {
                    abs_base!();
                    mem_load!(u.imm as u32, 2, |v: u32| v as u16 as i16 as i32 as u32)
                }
                Op::AbsLw => {
                    abs_base!();
                    mem_load!(u.imm as u32, 4, |v: u32| v)
                }
                Op::AbsLbu => {
                    abs_base!();
                    mem_load!(u.imm as u32, 1, |v: u32| v)
                }
                Op::AbsLhu => {
                    abs_base!();
                    mem_load!(u.imm as u32, 2, |v: u32| v)
                }
                Op::AbsSb => {
                    abs_base!();
                    mem_store!(u.imm as u32, 1, self.cpu.gpr(u.rs2))
                }
                Op::AbsSh => {
                    abs_base!();
                    mem_store!(u.imm as u32, 2, self.cpu.gpr(u.rs2))
                }
                Op::AbsSw => {
                    abs_base!();
                    mem_store!(u.imm as u32, 4, self.cpu.gpr(u.rs2))
                }
                Op::Beq => branch!(self.cpu.gpr(u.rs1) == self.cpu.gpr(u.rs2)),
                Op::Bne => branch!(self.cpu.gpr(u.rs1) != self.cpu.gpr(u.rs2)),
                Op::Blt => branch!((self.cpu.gpr(u.rs1) as i32) < self.cpu.gpr(u.rs2) as i32),
                Op::Bge => branch!(self.cpu.gpr(u.rs1) as i32 >= self.cpu.gpr(u.rs2) as i32),
                Op::Bltu => branch!(self.cpu.gpr(u.rs1) < self.cpu.gpr(u.rs2)),
                Op::Bgeu => branch!(self.cpu.gpr(u.rs1) >= self.cpu.gpr(u.rs2)),
                Op::SltBrz => cmp_branch!(
                    (self.cpu.gpr(u.rs1) as i32) < self.cpu.gpr(u.rs2) as i32,
                    false
                ),
                Op::SltBrnz => cmp_branch!(
                    (self.cpu.gpr(u.rs1) as i32) < self.cpu.gpr(u.rs2) as i32,
                    true
                ),
                Op::SltuBrz => cmp_branch!(self.cpu.gpr(u.rs1) < self.cpu.gpr(u.rs2), false),
                Op::SltuBrnz => cmp_branch!(self.cpu.gpr(u.rs1) < self.cpu.gpr(u.rs2), true),
                Op::SltiBrz => cmp_branch!((self.cpu.gpr(u.rs1) as i32) < u.imm2, false),
                Op::SltiBrnz => cmp_branch!((self.cpu.gpr(u.rs1) as i32) < u.imm2, true),
                Op::SltiuBrz => cmp_branch!(self.cpu.gpr(u.rs1) < u.imm2 as u32, false),
                Op::SltiuBrnz => cmp_branch!(self.cpu.gpr(u.rs1) < u.imm2 as u32, true),
                Op::AddBeq => {
                    let v = self.cpu.gpr(u.rs1).wrapping_add(u.imm2 as u32);
                    self.cpu.set_gpr(u.rd, v);
                    branch!(v == self.cpu.gpr(u.rs2))
                }
                Op::AddBne => {
                    let v = self.cpu.gpr(u.rs1).wrapping_add(u.imm2 as u32);
                    self.cpu.set_gpr(u.rd, v);
                    branch!(v != self.cpu.gpr(u.rs2))
                }
                Op::Jal => {
                    self.cpu.set_gpr(u.rd, u.next_pc);
                    branch_to_target!()
                }
                Op::Jalr => {
                    let target = self.cpu.gpr(u.rs1).wrapping_add(u.imm as u32) & !1;
                    // rd is written even when the target turns out to be
                    // misaligned, matching the reference sequence.
                    self.cpu.set_gpr(u.rd, u.next_pc);
                    cycles += u.cost as u64;
                    if target & u.imm2 as u32 != 0 {
                        // Charged but not retired.
                        trap!(Trap::InsnMisaligned { addr: target })
                    }
                    retired += 1;
                    self.cpu.set_pc(target);
                    flush!();
                    break 'dispatch;
                }
                Op::Nop => {
                    cycles += u.cost as u64;
                    retired += 1;
                }
                Op::Generic => {
                    flush!();
                    let (pc, insn) = body.insns[u.idx as usize];
                    // The per-instruction engine keeps `cpu.pc` current per
                    // instruction; the generic path (traps, CSR reads,
                    // `mret`) observes it, so restore it here.
                    self.cpu.set_pc(pc);
                    match self.exec_insn(pc, &insn) {
                        Some(outcome) => return BlockExit::Outcome(outcome),
                        None => {
                            if self.block_exit_pending {
                                self.block_exit_pending = false;
                                break 'dispatch;
                            }
                            if self.cpu.pc() != u.next_pc {
                                break 'dispatch;
                            }
                        }
                    }
                }
            }
        }
        BlockExit::Done
    }

    /// Executes one instruction at `pc`. Returns `Some` when the run ends.
    fn exec_insn(&mut self, pc: u32, insn: &Insn) -> Option<RunOutcome> {
        let step = self.semantics(pc, insn);
        match step {
            Step::Next => {
                self.cpu.add_cycles(self.timing.cost(insn, false));
                self.cpu.set_pc(insn.next_pc(pc));
                self.finish_insn(pc, insn);
                None
            }
            Step::Jump(target) => {
                self.cpu.add_cycles(self.timing.cost(insn, true));
                let ialign = if self.cpu.isa().has(Extension::C) {
                    2
                } else {
                    4
                };
                if target % ialign != 0 {
                    self.notify_insn(pc, insn);
                    return self.raise(Trap::InsnMisaligned { addr: target });
                }
                self.cpu.set_pc(target);
                self.finish_insn(pc, insn);
                None
            }
            Step::Trap(trap) => {
                self.cpu.add_cycles(self.timing.cost(insn, false));
                // The instruction does not retire, but instrumentation still
                // observes it (like the TCG plugin API's pre-exec hook).
                self.notify_insn(pc, insn);
                self.raise(trap)
            }
            Step::Break => {
                self.cpu.add_cycles(self.timing.cost(insn, false));
                self.finish_insn(pc, insn);
                Some(RunOutcome::Break)
            }
            Step::Wfi => {
                self.cpu.add_cycles(self.timing.cost(insn, false));
                self.cpu.set_pc(insn.next_pc(pc));
                self.finish_insn(pc, insn);
                self.wait_for_interrupt()
            }
        }
        .or_else(|| {
            // Device stores can raise bus events (exit request).
            if insn.kind().is_store() {
                if let Some(BusEvent::Exit(code)) = self.bus.take_event() {
                    return Some(RunOutcome::Exit(code));
                }
            }
            None
        })
    }

    fn finish_insn(&mut self, pc: u32, insn: &Insn) {
        self.cpu.retire();
        self.notify_insn(pc, insn);
    }

    /// Reports an executed instruction to the plugins, inside a block
    /// they subscribed: unsubscribed blocks notify nothing on any tier,
    /// including their `Op::Generic` instructions and budget replays.
    fn notify_insn(&mut self, pc: u32, insn: &Insn) {
        if self.insn_events {
            for p in &mut self.plugins {
                p.on_insn_executed(&self.cpu, pc, insn);
            }
        }
    }

    /// Handles `wfi`: fast-forwards to the next armed timer event, or stops.
    fn wait_for_interrupt(&mut self) -> Option<RunOutcome> {
        loop {
            let now = self.cpu.cycles();
            let mip = self.bus.mip_bits(now);
            self.cpu.set_mip(mip);
            if self.cpu.wfi_wake_pending() {
                // The throttle's poll deadline may predate the fast-forward.
                self.irq_resample = true;
                return None;
            }
            let Some(clint) = self.bus.device::<Clint>() else {
                return Some(RunOutcome::IdleWfi);
            };
            let cmp = clint.mtimecmp();
            if self.cpu.timer_interrupt_enabled() && cmp != u64::MAX && cmp > now {
                self.cpu.add_cycles(cmp - now);
                continue;
            }
            return Some(RunOutcome::IdleWfi);
        }
    }

    /// Takes a trap; returns the fatal outcome if no vector is installed.
    fn raise(&mut self, trap: Trap) -> Option<RunOutcome> {
        if let Some(flight) = &mut self.flight {
            flight.record_trap(self.cpu.instret(), self.cpu.pc(), trap.mcause());
        }
        if !self.plugins.is_empty() {
            for p in &mut self.plugins {
                p.on_trap(&self.cpu, &trap);
            }
        }
        if self.cpu.enter_trap(trap) {
            None
        } else {
            Some(RunOutcome::Fatal(trap))
        }
    }

    // ------------------------------------------------------------- fetch

    /// Looks up (or translates) the block starting at `pc` and returns a
    /// raw pointer to it. The pointee is owned by `self.cache` /
    /// `self.jmp_cache` (or `self.scratch` without a block cache) and
    /// stays alive until the next dispatch boundary — see the safety
    /// comment in [`dispatch_loop`](Vp::dispatch_loop).
    ///
    /// When `link_from` names a (predecessor, successor-slot) pair, the
    /// resolved block is recorded as that predecessor's direct chain
    /// successor. Callers only pass a link with the block cache on,
    /// which owns every dispatched block.
    fn fetch_block(
        &mut self,
        pc: u32,
        link_from: Option<(NonNull<Block>, usize)>,
    ) -> Result<*const Block, Trap> {
        let ptr = self.fetch_block_inner(pc)?;
        if let Some((pred, slot)) = link_from {
            // SAFETY: the predecessor was dispatched from the cache at
            // the previous boundary and no invalidation has run since
            // (the run loop clears pending links on invalidation).
            unsafe { pred.as_ref() }.links[slot].set(NonNull::new(ptr.cast_mut()));
            self.stats.chain_links += 1;
        }
        Ok(ptr)
    }

    fn fetch_block_inner(&mut self, pc: u32) -> Result<*const Block, Trap> {
        if self.cache_enabled {
            // Hot path: one shift, one mask, one compare — no hashing,
            // no `Arc` refcount traffic.
            if let Some((tag, b)) = &self.jmp_cache[jmp_cache_slot(pc)] {
                if *tag == pc {
                    self.stats.jmp_cache_hits += 1;
                    return Ok(Arc::as_ptr(b));
                }
            }
            self.stats.jmp_cache_misses += 1;
            if let Some(b) = self.cache.get(&pc) {
                let ptr = Arc::as_ptr(b);
                self.jmp_cache[jmp_cache_slot(pc)] = Some((pc, Arc::clone(b)));
                return Ok(ptr);
            }
        }
        let body = self.translate_block(pc)?;
        self.stats.translations += 1;
        let mut insn_events = false;
        if !self.plugins.is_empty() {
            let info = BlockInfo {
                start_pc: pc,
                insns: &body.insns,
            };
            for p in &mut self.plugins {
                p.on_block_translated(&info);
                insn_events |= p.wants_insn_events(&info);
            }
        }
        let block = Arc::new(Block {
            body,
            links: Default::default(),
            jit: JitSlot::default(),
            insn_events,
        });
        let ptr = Arc::as_ptr(&block);
        if self.cache_enabled {
            self.code_lo = self.code_lo.min(pc);
            self.code_hi = self.code_hi.max(block.body.fall_pc);
            self.jmp_cache[jmp_cache_slot(pc)] = Some((pc, Arc::clone(&block)));
            self.cache.insert(pc, block);
        } else {
            // Nothing else owns the block: park it until the next fetch.
            self.scratch = Some(block);
        }
        Ok(ptr)
    }

    fn translate_block(&mut self, pc: u32) -> Result<BlockBody, Trap> {
        let mut insns = Vec::new();
        let mut addr = pc;
        let isa = *self.cpu.isa();
        // The block ends before the first declared start past `pc`.
        let next_start = self
            .block_starts
            .get(self.block_starts.partition_point(|&s| s <= pc))
            .copied()
            .unwrap_or(u32::MAX);
        for _ in 0..MAX_BLOCK_INSNS {
            if addr >= next_start {
                break;
            }
            if !addr.is_multiple_of(2) {
                if insns.is_empty() {
                    return Err(Trap::InsnMisaligned { addr });
                }
                break;
            }
            if !self.bus.is_ram(addr) {
                if insns.is_empty() {
                    return Err(Trap::InsnAccessFault { addr });
                }
                break;
            }
            let now = self.cpu.cycles();
            let fetch16 = |bus: &mut Bus, a: u32| {
                bus.read16(a, now)
                    .map_err(|_| Trap::InsnAccessFault { addr: a })
            };
            let lo = match fetch16(&mut self.bus, addr) {
                Ok(v) => v,
                Err(t) => {
                    if insns.is_empty() {
                        return Err(t);
                    }
                    break;
                }
            };
            let raw = if lo & 0b11 == 0b11 {
                match fetch16(&mut self.bus, addr + 2) {
                    Ok(hi) => (lo as u32) | ((hi as u32) << 16),
                    Err(t) => {
                        if insns.is_empty() {
                            return Err(t);
                        }
                        break;
                    }
                }
            } else {
                lo as u32
            };
            match decode(raw, &isa) {
                Ok(insn) => {
                    let ends = insn.kind().ends_block();
                    insns.push((addr, insn));
                    addr = insn.next_pc(addr);
                    if ends {
                        break;
                    }
                }
                Err(e) => {
                    if insns.is_empty() {
                        return Err(Trap::IllegalInsn { raw: e.raw() });
                    }
                    break;
                }
            }
        }
        let (uops, fused) = if self.cache_enabled {
            lower_block(&insns, &self.timing, &isa, true)
        } else {
            (Vec::new(), 0)
        };
        self.stats.fused_lowered += fused as u64;
        let last = insns.last().expect("translated blocks are never empty");
        let fall_pc = last.1.next_pc(last.0);
        let target_pc = last.1.target(last.0);
        Ok(BlockBody {
            insns,
            uops,
            fall_pc,
            target_pc,
        })
    }

    // ----------------------------------------------------------- memory

    fn mem_load(&mut self, pc: u32, addr: u32, size: u8) -> Result<u32, Trap> {
        if !addr.is_multiple_of(size as u32) {
            return Err(Trap::LoadMisaligned { addr });
        }
        let now = self.cpu.cycles();
        let value = match size {
            1 => self.bus.read8(addr, now).map(|v| v as u32),
            2 => self.bus.read16(addr, now).map(|v| v as u32),
            _ => self.bus.read32(addr, now),
        }
        .map_err(|f| Trap::LoadAccessFault { addr: f.addr })?;
        if !self.bus.is_ram(addr) {
            // Device loads can deassert interrupt state (e.g. draining the
            // UART receive queue drops MEIP): re-sample at the boundary.
            self.irq_resample = true;
        }
        self.observe_access(pc, addr, size, value, false);
        Ok(value)
    }

    fn mem_store(&mut self, pc: u32, addr: u32, size: u8, value: u32) -> Result<(), Trap> {
        if !addr.is_multiple_of(size as u32) {
            return Err(Trap::StoreMisaligned { addr });
        }
        let now = self.cpu.cycles();
        match size {
            1 => self.bus.write8(addr, value as u8, now),
            2 => self.bus.write16(addr, value as u16, now),
            _ => self.bus.write32(addr, value, now),
        }
        .map_err(|f| Trap::StoreAccessFault { addr: f.addr })?;
        if !self.bus.is_ram(addr) {
            // A device store may raise interrupt state (CLINT msip /
            // mtimecmp); leave the block so it is sampled promptly.
            self.block_exit_pending = true;
            self.irq_resample = true;
        }
        // Self-modifying code: request invalidation. Deferred to the next
        // dispatch boundary so the currently-executing block (whose
        // storage lives in the caches) is never freed under our feet.
        // The interpreter's cache stays empty: it re-decodes anyway.
        if !self.cache.is_empty()
            && addr.wrapping_add(size as u32) > self.code_lo
            && addr < self.code_hi
        {
            self.invalidate_pending = true;
        }
        self.observe_access(pc, addr, size, value, true);
        Ok(())
    }

    fn observe_access(&mut self, pc: u32, addr: u32, size: u8, value: u32, is_store: bool) {
        if self.plugins.is_empty() && self.flight.is_none() {
            return;
        }
        if let Some(device) = self.bus.device_name_at(addr) {
            if let Some(flight) = &mut self.flight {
                flight.record_device(self.cpu.instret(), pc, device, addr, value, is_store);
            }
            let access = DeviceAccess {
                device,
                pc,
                addr,
                value,
                is_store,
            };
            for p in &mut self.plugins {
                p.on_device_access(&self.cpu, &access);
            }
        } else if self.insn_events {
            // RAM events follow the block's instruction subscription,
            // identically on every tier: unsubscribed blocks run their
            // RAM accesses on the fast paths, unreported.
            let access = MemAccess {
                pc,
                addr,
                size,
                value,
                is_store,
            };
            for p in &mut self.plugins {
                p.on_mem_access(&self.cpu, &access);
            }
        }
    }

    // -------------------------------------------------------- semantics

    #[allow(clippy::too_many_lines)]
    fn semantics(&mut self, pc: u32, insn: &Insn) -> Step {
        use InsnKind::*;
        let rs1 = self.cpu.gpr(insn.rs1_gpr());
        let rs2 = self.cpu.gpr(insn.rs2_gpr());
        let rd = insn.rd_gpr();
        let imm = insn.imm();
        macro_rules! set {
            ($v:expr) => {{
                self.cpu.set_gpr(rd, $v);
                Step::Next
            }};
        }
        macro_rules! load {
            ($size:expr, $conv:expr) => {{
                let addr = rs1.wrapping_add(imm as u32);
                match self.mem_load(pc, addr, $size) {
                    Ok(v) => set!($conv(v)),
                    Err(t) => Step::Trap(t),
                }
            }};
        }
        macro_rules! store {
            ($size:expr, $v:expr) => {{
                let addr = rs1.wrapping_add(imm as u32);
                match self.mem_store(pc, addr, $size, $v) {
                    Ok(()) => Step::Next,
                    Err(t) => Step::Trap(t),
                }
            }};
        }
        macro_rules! branch {
            ($cond:expr) => {{
                if $cond {
                    Step::Jump(pc.wrapping_add(imm as u32))
                } else {
                    Step::Next
                }
            }};
        }
        match insn.kind() {
            Lui => set!(imm as u32),
            Auipc => set!(pc.wrapping_add(imm as u32)),
            Jal => {
                self.cpu.set_gpr(rd, insn.next_pc(pc));
                Step::Jump(pc.wrapping_add(imm as u32))
            }
            Jalr => {
                let target = rs1.wrapping_add(imm as u32) & !1;
                self.cpu.set_gpr(rd, insn.next_pc(pc));
                Step::Jump(target)
            }
            Beq => branch!(rs1 == rs2),
            Bne => branch!(rs1 != rs2),
            Blt => branch!((rs1 as i32) < rs2 as i32),
            Bge => branch!(rs1 as i32 >= rs2 as i32),
            Bltu => branch!(rs1 < rs2),
            Bgeu => branch!(rs1 >= rs2),
            Lb => load!(1, |v: u32| v as u8 as i8 as i32 as u32),
            Lh => load!(2, |v: u32| v as u16 as i16 as i32 as u32),
            Lw => load!(4, |v: u32| v),
            Lbu => load!(1, |v: u32| v),
            Lhu => load!(2, |v: u32| v),
            Sb => store!(1, rs2),
            Sh => store!(2, rs2),
            Sw => store!(4, rs2),
            Addi => set!(rs1.wrapping_add(imm as u32)),
            Slti => set!(((rs1 as i32) < imm) as u32),
            Sltiu => set!((rs1 < imm as u32) as u32),
            Xori => set!(rs1 ^ imm as u32),
            Ori => set!(rs1 | imm as u32),
            Andi => set!(rs1 & imm as u32),
            Slli => set!(rs1 << (imm as u32 & 31)),
            Srli => set!(rs1 >> (imm as u32 & 31)),
            Srai => set!(((rs1 as i32) >> (imm as u32 & 31)) as u32),
            Add => set!(rs1.wrapping_add(rs2)),
            Sub => set!(rs1.wrapping_sub(rs2)),
            Sll => set!(rs1 << (rs2 & 31)),
            Slt => set!(((rs1 as i32) < rs2 as i32) as u32),
            Sltu => set!((rs1 < rs2) as u32),
            Xor => set!(rs1 ^ rs2),
            Srl => set!(rs1 >> (rs2 & 31)),
            Sra => set!(((rs1 as i32) >> (rs2 & 31)) as u32),
            Or => set!(rs1 | rs2),
            And => set!(rs1 & rs2),
            Mul => set!(rs1.wrapping_mul(rs2)),
            Mulh => set!((((rs1 as i32 as i64) * (rs2 as i32 as i64)) >> 32) as u32),
            Mulhsu => set!((((rs1 as i32 as i64) * (rs2 as u64 as i64)) >> 32) as u32),
            Mulhu => set!((((rs1 as u64) * (rs2 as u64)) >> 32) as u32),
            Div => set!(if rs2 == 0 {
                u32::MAX
            } else if rs1 == 0x8000_0000 && rs2 == u32::MAX {
                0x8000_0000
            } else {
                ((rs1 as i32) / (rs2 as i32)) as u32
            }),
            #[allow(clippy::manual_div_ceil)]
            Divu => set!(rs1.checked_div(rs2).unwrap_or(u32::MAX)),
            Rem => set!(if rs2 == 0 {
                rs1
            } else if rs1 == 0x8000_0000 && rs2 == u32::MAX {
                0
            } else {
                ((rs1 as i32) % (rs2 as i32)) as u32
            }),
            Remu => set!(if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Fence => Step::Next,
            FenceI => {
                // `fence.i` ends its translation block, so deferring the
                // flush to the dispatch boundary is architecturally
                // invisible — and keeps the current block alive.
                self.invalidate_pending = true;
                Step::Next
            }
            Ecall => Step::Trap(Trap::EcallM),
            Ebreak => Step::Break,
            Mret => {
                let target = self.cpu.leave_trap();
                Step::Jump(target)
            }
            Wfi => Step::Wfi,
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => self.exec_csr(insn, rs1),
            Clz => set!(rs1.leading_zeros()),
            Ctz => set!(rs1.trailing_zeros()),
            Pcnt => set!(rs1.count_ones()),
            Andn => set!(rs1 & !rs2),
            Orn => set!(rs1 | !rs2),
            Xnor => set!(!(rs1 ^ rs2)),
            Rol => set!(rs1.rotate_left(rs2 & 31)),
            Ror => set!(rs1.rotate_right(rs2 & 31)),
            Rev8 => set!(rs1.swap_bytes()),
            Bext => set!((rs1 >> (rs2 & 31)) & 1),
            Flw => {
                let addr = rs1.wrapping_add(imm as u32);
                match self.mem_load(pc, addr, 4) {
                    Ok(v) => {
                        self.cpu.set_fpr(insn.rd_fpr(), v);
                        Step::Next
                    }
                    Err(t) => Step::Trap(t),
                }
            }
            Fsw => {
                let addr = rs1.wrapping_add(imm as u32);
                let v = self.cpu.fpr(insn.rs2_fpr());
                match self.mem_store(pc, addr, 4, v) {
                    Ok(()) => Step::Next,
                    Err(t) => Step::Trap(t),
                }
            }
            kind => self.exec_fp(kind, insn),
        }
    }

    fn exec_csr(&mut self, insn: &Insn, rs1_value: u32) -> Step {
        use InsnKind::*;
        let csr = insn.csr();
        let raw = insn.raw();
        let Some(old) = self.cpu.csr_read(csr) else {
            return Step::Trap(Trap::IllegalInsn { raw });
        };
        let (write, new) = match insn.kind() {
            Csrrw => (true, rs1_value),
            Csrrs => (insn.rs1() != 0, old | rs1_value),
            Csrrc => (insn.rs1() != 0, old & !rs1_value),
            Csrrwi => (true, insn.zimm()),
            Csrrsi => (insn.zimm() != 0, old | insn.zimm()),
            Csrrci => (insn.zimm() != 0, old & !insn.zimm()),
            _ => unreachable!("exec_csr called for non-CSR kind"),
        };
        if write {
            if self.cpu.csr_write(csr, new).is_none() {
                return Step::Trap(Trap::IllegalInsn { raw });
            }
            if csr == s4e_isa::Csr::MSTATUS || csr == s4e_isa::Csr::MIE {
                // Interrupt-enable state changed: leave the block so the
                // run loop re-samples pending interrupts (QEMU ends the
                // translation block for these writes).
                self.block_exit_pending = true;
            }
        }
        self.cpu.set_gpr(insn.rd_gpr(), old);
        Step::Next
    }

    #[allow(clippy::if_same_then_else)] // NaN arms read clearer spelled out
    fn exec_fp(&mut self, kind: InsnKind, insn: &Insn) -> Step {
        use InsnKind::*;
        let a_bits = self.cpu.fpr(insn.rs1_fpr());
        let b_bits = self.cpu.fpr(insn.rs2_fpr());
        let a = f32::from_bits(a_bits);
        let b = f32::from_bits(b_bits);
        let canon = |f: f32| -> u32 {
            if f.is_nan() {
                0x7fc0_0000
            } else {
                f.to_bits()
            }
        };
        let set_f = |cpu: &mut Cpu, bits: u32| {
            cpu.set_fpr(insn.rd_fpr(), bits);
        };
        let set_x = |cpu: &mut Cpu, v: u32| {
            cpu.set_gpr(insn.rd_gpr(), v);
        };
        match kind {
            FaddS => set_f(&mut self.cpu, canon(a + b)),
            FsubS => set_f(&mut self.cpu, canon(a - b)),
            FmulS => set_f(&mut self.cpu, canon(a * b)),
            FdivS => set_f(&mut self.cpu, canon(a / b)),
            FsqrtS => set_f(&mut self.cpu, canon(a.sqrt())),
            FsgnjS => set_f(
                &mut self.cpu,
                (a_bits & 0x7fff_ffff) | (b_bits & 0x8000_0000),
            ),
            FsgnjnS => set_f(
                &mut self.cpu,
                (a_bits & 0x7fff_ffff) | (!b_bits & 0x8000_0000),
            ),
            FsgnjxS => set_f(&mut self.cpu, a_bits ^ (b_bits & 0x8000_0000)),
            FminS => set_f(
                &mut self.cpu,
                if a.is_nan() && b.is_nan() {
                    0x7fc0_0000
                } else if a.is_nan() {
                    b_bits
                } else if b.is_nan() {
                    a_bits
                } else if a < b || (a == b && a.is_sign_negative()) {
                    a_bits
                } else {
                    b_bits
                },
            ),
            FmaxS => set_f(
                &mut self.cpu,
                if a.is_nan() && b.is_nan() {
                    0x7fc0_0000
                } else if a.is_nan() {
                    b_bits
                } else if b.is_nan() {
                    a_bits
                } else if a > b || (a == b && b.is_sign_negative()) {
                    a_bits
                } else {
                    b_bits
                },
            ),
            FcvtWS => set_x(
                &mut self.cpu,
                if a.is_nan() {
                    i32::MAX as u32
                } else if a >= i32::MAX as f32 {
                    i32::MAX as u32
                } else if a <= i32::MIN as f32 {
                    i32::MIN as u32
                } else {
                    (a as i32) as u32
                },
            ),
            FcvtWuS => set_x(
                &mut self.cpu,
                if a.is_nan() || a >= u32::MAX as f32 {
                    u32::MAX
                } else if a <= -1.0 {
                    0
                } else {
                    a as u32
                },
            ),
            FmvXW => set_x(&mut self.cpu, a_bits),
            FclassS => set_x(&mut self.cpu, fclass(a_bits)),
            FeqS => set_x(&mut self.cpu, (a == b) as u32),
            FltS => set_x(&mut self.cpu, (a < b) as u32),
            FleS => set_x(&mut self.cpu, (a <= b) as u32),
            FcvtSW => {
                let x = self.cpu.gpr(insn.rs1_gpr()) as i32;
                set_f(&mut self.cpu, (x as f32).to_bits());
            }
            FcvtSWu => {
                let x = self.cpu.gpr(insn.rs1_gpr());
                set_f(&mut self.cpu, (x as f32).to_bits());
            }
            FmvWX => {
                let x = self.cpu.gpr(insn.rs1_gpr());
                set_f(&mut self.cpu, x);
            }
            other => {
                debug_assert!(false, "unhandled kind {other}");
                return Step::Trap(Trap::IllegalInsn { raw: insn.raw() });
            }
        }
        Step::Next
    }
}

/// The `fclass.s` classification mask for the given single-precision bits.
fn fclass(bits: u32) -> u32 {
    let sign = bits >> 31 != 0;
    let exp = (bits >> 23) & 0xff;
    let frac = bits & 0x7f_ffff;
    match (exp, frac) {
        (0xff, 0) => {
            if sign {
                1 << 0 // -inf
            } else {
                1 << 7 // +inf
            }
        }
        (0xff, f) => {
            if f & (1 << 22) != 0 {
                1 << 9 // quiet NaN
            } else {
                1 << 8 // signaling NaN
            }
        }
        (0, 0) => {
            if sign {
                1 << 3 // -0
            } else {
                1 << 4 // +0
            }
        }
        (0, _) => {
            if sign {
                1 << 2 // negative subnormal
            } else {
                1 << 5 // positive subnormal
            }
        }
        _ => {
            if sign {
                1 << 1 // negative normal
            } else {
                1 << 6 // positive normal
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fclass_masks() {
        assert_eq!(fclass(f32::NEG_INFINITY.to_bits()), 1);
        assert_eq!(fclass((-1.5f32).to_bits()), 1 << 1);
        assert_eq!(fclass(0x8000_0001), 1 << 2);
        assert_eq!(fclass(0x8000_0000), 1 << 3);
        assert_eq!(fclass(0), 1 << 4);
        assert_eq!(fclass(1), 1 << 5);
        assert_eq!(fclass(1.5f32.to_bits()), 1 << 6);
        assert_eq!(fclass(f32::INFINITY.to_bits()), 1 << 7);
        assert_eq!(fclass(0x7f80_0001), 1 << 8);
        assert_eq!(fclass(0x7fc0_0000), 1 << 9);
    }

    #[test]
    fn outcome_normal_termination() {
        assert!(RunOutcome::Exit(0).is_normal_termination());
        assert!(RunOutcome::Break.is_normal_termination());
        assert!(!RunOutcome::Exit(1).is_normal_termination());
        assert!(!RunOutcome::Fatal(Trap::EcallM).is_normal_termination());
    }

    /// A `Vp` moves between campaign worker threads (shared golden VP
    /// behind a mutex, reusable per-worker mutant VPs) — `Send` is a
    /// load-bearing property, guarded here at compile time.
    #[test]
    fn vp_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Vp>();
    }
}
