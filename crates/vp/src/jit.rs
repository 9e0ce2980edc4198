//! Copy-and-patch template JIT: hot translation blocks, already lowered
//! to micro-ops, are compiled into host x86-64 machine code in a W^X
//! code arena and chained directly block-to-block.
//!
//! The design goal is *never a second implementation of the
//! semantics*: each micro-op gets a short host-code template that
//! performs exactly the micro-op engine's RAM-fast-path behavior, and
//! everything a template does not cover bails out — **before any
//! architectural effect of the uncovered micro-op** — back to the
//! micro-op engine, which resumes mid-block at the bailing micro-op
//! index. CSR/system/FP instructions lower to `Op::Generic` and make a
//! block ineligible outright; MMIO, misaligned or RAM-edge accesses,
//! stores into the translated code range and mid-block budget expiry
//! bail dynamically.
//!
//! ## Execution contract
//!
//! Compiled code runs under a context (`JitCtx`) refreshed at every
//! native entry and obeys:
//!
//! - **Accounting**: the cycle/instret/fused-op deltas along any path
//!   through a block are compile-time constants; each exit site adds
//!   its path constant to the run's accumulators, so counters are exact
//!   at every exit. The accumulators live in host registers for the
//!   whole native run — cycles in r12, the instruction budget in r14,
//!   fused ops in r11 and native block executions in r10 — and the
//!   shared epilogue writes them back to the context once, so a block
//!   prologue and a chained exit read or write no context field. This
//!   is the micro-op engine's "batched, flushed at observable points"
//!   scheme taken to its limit: nothing observable can happen *inside*
//!   native code, which is exactly what the entry preconditions and the
//!   bail conditions guarantee.
//! - **Deadline**: every block entry compares the accumulated cycles
//!   against a deadline — `min(cycles until mip can next change,
//!   JIT_SLICE)`, held in r9 — and exits to the dispatcher when
//!   reached, so interrupts are delivered at exactly the block boundary
//!   the interpreter would deliver them at, and cancellation/watchdog
//!   latency stays bounded.
//! - **Budget**: every block entry checks that the remaining
//!   instruction budget covers the whole block and otherwise bails at
//!   micro-op 0; the micro-op engine then reproduces the exact
//!   mid-block (and mid-fused-pair) expiry boundary.
//! - **Memory**: loads and stores inline the RAM fast path (aligned,
//!   wholly inside RAM) including page-granular dirty marking, which
//!   tests the page's bit and sets it only when clear, like
//!   `Bus::ram_write_fast`; anything else bails. Stores additionally
//!   bail when they overlap the translated code range, so native code
//!   never triggers an invalidation itself — the micro-op engine
//!   re-executes the store and requests the deferred invalidation,
//!   exactly like the interpreter's fast path.
//! - **Block events**: code compiled while a plugin is attached appends
//!   one entry per block entry to the VP's plugin event buffer, after
//!   the deadline check and before the budget check, and only when an
//!   instruction will run (budget above zero). The buffer never evicts:
//!   a full buffer leaves through the deadline exit before any write,
//!   and the dispatcher drains it into the plugins whenever native code
//!   returns. Plugin-free code never contains the write. The crash
//!   flight recorder is such a plugin, so this is the one record native
//!   code writes.
//!
//! ## Arena lifecycle
//!
//! Code lives in one lazily-`mmap`'d arena per engine, toggled between
//! RW (while compiling/patching) and R+X (while executing) — never
//! writable and executable at once. A dropped engine keeps its arena
//! mapped as the process's one spare instead of unmapping it, and the
//! next engine adopts it, so building a fresh VP per program costs no
//! mapping syscalls and no TLB flush. `Vp::invalidate_caches` — SMC,
//! `fence.i`, `load`, `bus_mut` — resets the arena cursor and forgets
//! all entry points alongside dropping the translated blocks that hold
//! the entry cookies; this is sound because invalidation only runs at
//! dispatch boundaries, never while native code is on the stack.
//!
//! Snapshot **restore** is different: it retains the arena. Each
//! compiled block remembers the FNV-1a hash and length of the guest
//! code it was compiled from; `retain_across_restore` drops only the
//! blocks whose code bytes actually changed — a block on a copied page
//! is re-hashed in place, so a data store that merely shares the 4 KiB
//! page with code (ubiquitous in small guests) costs nothing. Dropped
//! blocks have the rel32 chain sites that jumped into them severed
//! back to their local exit stubs, and the dispatcher re-validates a
//! retained block's hash against current RAM before re-adopting its
//! entry cookie. That keeps the golden run's native code hot across
//! every SMC-free mutant of a fault campaign instead of recompiling it
//! per mutant.
//!
//! ## Masked engine
//!
//! A `Vp` owns up to two engines, each compiled for a set of armed
//! registers (`JitEngine::new(armed)`, one bit per GPR). The plain
//! engine's set is empty: it reads the GPR file raw and runs only while
//! no stuck-at register mask is armed. The masked engine runs while
//! masks are armed, and its set is the registers whose masks are
//! non-trivial (`Cpu::armed_gprs`). It compiles the unfused lowering —
//! one micro-op per instruction, so micro-op `k` is instruction `k` and
//! no fused pair computes through an unmasked intermediate register —
//! and its templates read an armed register `r` as
//! `(raw | one[r]) & keep[r]`, exactly like `Cpu::gpr`, from the CPU's
//! mask table, whose `keep` base the trampoline pins in `rbp` (`one`
//! sits 128 bytes below it). Every other register has `one[r] == 0` and
//! `keep[r] == !0`, so its raw read is exact. The VP re-arms the engine
//! (dropping its code) at run entry whenever the CPU's set differs from
//! the engine's; masks change only between runs. Register writes, path
//! accounting, the prologue, chaining, restore retention and every bail
//! contract are the plain engine's, and the plain engine's block code
//! is that of an engine with no register armed.

#[cfg(target_arch = "x86_64")]
pub(crate) use native::JitEngine;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use stub::JitEngine;

/// Cycle ceiling per native entry: even with no timer armed, native
/// chains return to the dispatcher at least this often so cancellation
/// tokens and watchdog clocks stay responsive.
pub(crate) const JIT_SLICE: u64 = 100_000;

/// Bail reason codes written by the native bail stubs into
/// `JitCtx::bail_reason` and surfaced through [`JitExit::reason`], so
/// the dispatcher can split the bailout counter by cause.
pub(crate) const BAIL_NONE: u32 = 0;
/// Memory slow path: misaligned, MMIO or RAM-edge access (including a
/// misaligned `jalr` target, which bails through the same stub kind).
pub(crate) const BAIL_MEM: u32 = 1;
/// Whole-block budget check failed at entry: the micro-op engine
/// reproduces the exact mid-block expiry boundary.
pub(crate) const BAIL_BUDGET: u32 = 2;
/// A store overlapped the translated code range (self-modifying code):
/// the micro-op engine re-executes it and schedules the invalidation.
pub(crate) const BAIL_SMC: u32 = 3;

/// Outcome of a compilation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Compiled {
    /// The block was compiled; execute it via `JitEngine::run` with
    /// this entry cookie.
    Entry(usize),
    /// The block contains micro-ops with no template (or the arena is
    /// full or unavailable): keep executing it through the micro-op
    /// engine.
    Ineligible,
}

/// Result of one native run. `bail_uop` is `Some(k)` when a compiled
/// block hit a condition its templates don't cover: `exit_pc` then
/// names the *bailing block* (which can differ from the entry block
/// after chaining) and `k` the micro-op to resume at, with no
/// architectural effect of micro-op `k` applied yet. Otherwise
/// `exit_pc` is simply the next fetch pc.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JitExit {
    pub exit_pc: u32,
    pub bail_uop: Option<u32>,
    /// Cycles consumed, to add to the CPU's counter.
    pub cycles: u64,
    /// Instructions retired (budget already consumed).
    pub retired: u64,
    /// Remaining instruction budget after the run.
    pub remaining: u64,
    /// Native block executions (including the bailing one, if any).
    pub blocks: u64,
    /// Fused macro-ops executed natively (feeds `fused_exec`).
    pub fused: u64,
    /// Plugin block events written at the front of the run's event
    /// buffer (zero for code compiled without events).
    pub events: usize,
    /// One of the `BAIL_*` codes; meaningful only when `bail_uop` is
    /// `Some` ([`BAIL_NONE`] on clean exits).
    pub reason: u32,
}

#[cfg(not(target_arch = "x86_64"))]
mod stub {
    //! Non-x86-64 hosts: the JIT compiles out; the engine is never
    //! constructed and every block is "ineligible".
    use super::{Compiled, JitExit};
    use crate::plugin::BlockEntry;
    use crate::uop::MicroOp;

    #[derive(Debug)]
    pub(crate) struct JitEngine {}

    impl JitEngine {
        pub(crate) fn new(_armed: u32) -> Option<JitEngine> {
            None
        }

        pub(crate) fn armed(&self) -> u32 {
            0
        }

        pub(crate) fn rearm(&mut self, _armed: u32) {}

        pub(crate) fn reset(&mut self) {}

        pub(crate) fn retain_across_restore(
            &mut self,
            _restored: &[u64],
            _ram_base: u32,
            _ram: &[u8],
        ) -> Option<(u32, u32)> {
            None
        }

        pub(crate) fn invalidate_span(&mut self, _addr: u32, _len: u32) -> Option<(u32, u32)> {
            None
        }

        pub(crate) fn retained(&self, _pc: u32) -> Option<(usize, u64, u32)> {
            None
        }

        pub(crate) fn drop_retained(&mut self, _pc: u32) {}

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn compile(
            &mut self,
            _pc: u32,
            _uops: &[MicroOp],
            _fall_pc: u32,
            _ram_base: u32,
            _ram_len: u32,
            _hash: u64,
            _events: bool,
        ) -> Compiled {
            Compiled::Ineligible
        }

        /// # Safety
        /// Never called: no entry cookie can exist on this target.
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn run(
            &mut self,
            _entry: usize,
            _gprs: *mut u32,
            _masks: *const u32,
            _ram: *mut u8,
            _dirty: *mut u64,
            _remaining: u64,
            _deadline: u64,
            _code_lo: u32,
            _code_hi: u32,
            _events: &mut [BlockEntry],
        ) -> JitExit {
            unreachable!("stub JIT engine cannot run")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod native {
    use super::{Compiled, JitExit, BAIL_BUDGET, BAIL_MEM, BAIL_NONE, BAIL_SMC};
    use crate::bus::PAGE_SHIFT;
    use crate::plugin::BlockEntry;
    use crate::uop::{MicroOp, Op};
    use core::mem::offset_of;
    use std::collections::HashMap;
    use std::sync::{Mutex, PoisonError};

    /// Arena capacity. Blocks average a few hundred bytes of host
    /// code; 4 MiB covers tens of thousands of hot blocks — far beyond
    /// any guest working set — and is only reserved, not committed,
    /// until written.
    const ARENA_CAP: usize = 4 << 20;

    // Raw libc bindings: the JIT must not add dependencies, mirroring
    // the `signal(2)` binding in `s4e-faultsim`.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn mprotect(addr: *mut core::ffi::c_void, len: usize, prot: i32) -> i32;
        fn memfd_create(name: *const core::ffi::c_char, flags: u32) -> i32;
        fn ftruncate(fd: i32, length: i64) -> i32;
        fn close(fd: i32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_SHARED: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MFD_CLOEXEC: u32 = 1;

    /// A W^X code buffer: no mapping ever holds write and execute
    /// permission together.
    ///
    /// Preferred shape: one `memfd` mapped **twice** — an RW write view
    /// for the compiler and an R+X exec view for the trampoline. The
    /// views share physical pages, so installing a block or patching a
    /// chain site is an ordinary store with no syscall on the compile
    /// path (the old whole-arena `mprotect` toggle cost two TLB-shooting
    /// syscalls per compiled block, which dominated warm-up-heavy
    /// workloads).
    ///
    /// Fallback (no `memfd_create`, e.g. a locked-down seccomp profile):
    /// a single anonymous mapping toggled RW ⇄ R+X around each compile,
    /// exactly the old behaviour.
    #[derive(Debug)]
    struct CodeArena {
        /// RW view: all emission and patching goes through this.
        write_base: *mut u8,
        /// R+X view handed to the trampoline. Aliases `write_base` in
        /// the single-mapping fallback.
        exec_base: *mut u8,
        cap: usize,
        /// Dual-view mode: `set_exec` is a no-op.
        dual: bool,
    }

    // SAFETY: the arena exclusively owns its mapping(s); all access
    // goes through the uniquely-owning `JitEngine` inside a `Vp`, which
    // moves between threads only as a whole (`Vp: Send`), or through
    // `SPARE_ARENA`'s lock while no engine owns it.
    unsafe impl Send for CodeArena {}

    /// One dropped engine's arena, kept mapped for the next engine to
    /// adopt. Workloads that build a fresh VP per program (a QTA session
    /// per run, one VP per binary) would otherwise map and unmap an
    /// arena per VP, and unmapping a range that large flushes the whole
    /// TLB, slowing whatever the process runs next. One spare covers
    /// them; keeping more would hold idle arenas' pages resident.
    static SPARE_ARENA: Mutex<Option<CodeArena>> = Mutex::new(None);

    impl CodeArena {
        fn new(cap: usize) -> Option<CodeArena> {
            CodeArena::new_dual(cap).or_else(|| CodeArena::new_single(cap))
        }

        /// The dual-view arena: `memfd` + RW mapping + R+X mapping.
        fn new_dual(cap: usize) -> Option<CodeArena> {
            // SAFETY: plain syscalls; every result is checked before
            // use, and partially constructed resources are released on
            // the error paths.
            unsafe {
                let fd = memfd_create(c"s4e-jit".as_ptr(), MFD_CLOEXEC);
                if fd < 0 {
                    return None;
                }
                if ftruncate(fd, cap as i64) != 0 {
                    close(fd);
                    return None;
                }
                let write_base = mmap(
                    core::ptr::null_mut(),
                    cap,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED,
                    fd,
                    0,
                );
                if write_base as isize == -1 || write_base.is_null() {
                    close(fd);
                    return None;
                }
                let exec_base = mmap(
                    core::ptr::null_mut(),
                    cap,
                    PROT_READ | PROT_EXEC,
                    MAP_SHARED,
                    fd,
                    0,
                );
                // The mappings keep the pages alive on their own.
                close(fd);
                if exec_base as isize == -1 || exec_base.is_null() {
                    munmap(write_base, cap);
                    return None;
                }
                Some(CodeArena {
                    write_base: write_base.cast(),
                    exec_base: exec_base.cast(),
                    cap,
                    dual: true,
                })
            }
        }

        /// The single-mapping fallback, toggled by `set_exec`.
        fn new_single(cap: usize) -> Option<CodeArena> {
            // SAFETY: fresh anonymous private mapping at no particular
            // address; failure is checked below.
            let base = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    cap,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base as isize == -1 || base.is_null() {
                return None;
            }
            Some(CodeArena {
                write_base: base.cast(),
                exec_base: base.cast(),
                cap,
                dual: false,
            })
        }

        /// Single-mapping fallback only: flip the whole arena between
        /// RW (compile/patch) and R+X (execute). A no-op in dual-view
        /// mode, where the two permissions live on separate views.
        fn set_exec(&mut self, exec: bool) {
            if self.dual {
                return;
            }
            let prot = if exec {
                PROT_READ | PROT_EXEC
            } else {
                PROT_READ | PROT_WRITE
            };
            // SAFETY: `write_base`/`cap` describe our own live mapping.
            let rc = unsafe { mprotect(self.write_base.cast(), self.cap, prot) };
            assert_eq!(rc, 0, "mprotect on the JIT arena failed");
        }

        fn write(&mut self, at: usize, bytes: &[u8]) {
            assert!(at + bytes.len() <= self.cap, "JIT arena overflow");
            // SAFETY: in-bounds (asserted) write into our RW view; in
            // fallback mode the engine only calls this between
            // `set_exec(false)` and `set_exec(true)`.
            unsafe {
                core::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    self.write_base.add(at),
                    bytes.len(),
                );
            }
        }

        fn patch32(&mut self, at: usize, value: i32) {
            self.write(at, &value.to_le_bytes());
        }
    }

    impl Drop for CodeArena {
        fn drop(&mut self) {
            // SAFETY: unmapping the mapping(s) we own; nothing can run
            // from them afterwards — the engine is being dropped, and
            // with it the `Vp` holding every entry cookie.
            unsafe {
                munmap(self.write_base.cast(), self.cap);
                if self.dual {
                    munmap(self.exec_base.cast(), self.cap);
                }
            }
        }
    }

    /// The in/out parameter block shared between the dispatcher and
    /// native code. Field offsets are baked into the templates through
    /// the `OFF_*` constants, derived from this layout. The trampoline
    /// reads the run's inputs into their fixed-role registers once, and
    /// the shared epilogue writes `remaining`, `cyc`, `blocks` and
    /// `fused` back once per run.
    #[repr(C)]
    #[derive(Debug)]
    struct JitCtx {
        gprs: *mut u32,  // 0
        ram: *mut u8,    // 8
        dirty: *mut u64, // 16
        remaining: u64,  // 24 (in/out: instruction budget)
        cyc: u64,        // 32 (out: cycles consumed this run)
        deadline: u64,   // 40 (in: cycle ceiling for this run)
        blocks: u64,     // 48 (out: native block executions)
        exit_pc: u32,    // 56 (out)
        bail_uop: u32,   // 60 (out; NO_BAIL = clean exit)
        code_lo: u32,    // 64 (in: translated guest code range)
        code_hi: u32,    // 68
        fused: u64,      // 72 (out: fused macro-ops executed)
        /// One of the `BAIL_*` codes (out; meaningful on bail exits).
        bail_reason: u32, // 80
        /// `keep[0]` of the stuck-at mask table (`Cpu::gpr_masks_ptr`),
        /// pinned in rbp; only the masked engine's templates read it,
        /// for its armed registers.
        masks: *const u32, // 88 (in)
        /// The next free slot of the plugin event buffer (in/out): code
        /// compiled with events writes a [`BlockEntry`] there and
        /// advances it.
        events: *mut BlockEntry, // 96
        /// One past the buffer's last slot (in).
        events_end: *mut BlockEntry, // 104
    }

    const OFF_GPRS: i8 = offset_of!(JitCtx, gprs) as i8;
    const OFF_RAM: i8 = offset_of!(JitCtx, ram) as i8;
    const OFF_DIRTY: i8 = offset_of!(JitCtx, dirty) as i8;
    const OFF_REMAINING: i8 = offset_of!(JitCtx, remaining) as i8;
    const OFF_CYC: i8 = offset_of!(JitCtx, cyc) as i8;
    const OFF_DEADLINE: i8 = offset_of!(JitCtx, deadline) as i8;
    const OFF_BLOCKS: i8 = offset_of!(JitCtx, blocks) as i8;
    const OFF_EXIT_PC: i8 = offset_of!(JitCtx, exit_pc) as i8;
    const OFF_BAIL_UOP: i8 = offset_of!(JitCtx, bail_uop) as i8;
    const OFF_CODE_LO: i8 = offset_of!(JitCtx, code_lo) as i8;
    const OFF_CODE_HI: i8 = offset_of!(JitCtx, code_hi) as i8;
    const OFF_FUSED: i8 = offset_of!(JitCtx, fused) as i8;
    const OFF_BAIL_REASON: i8 = offset_of!(JitCtx, bail_reason) as i8;
    const OFF_MASKS: i8 = offset_of!(JitCtx, masks) as i8;
    const OFF_EVENTS: i8 = offset_of!(JitCtx, events) as i8;
    const OFF_EVENTS_END: i8 = offset_of!(JitCtx, events_end) as i8;
    // Every offset must fit the templates' disp8 operands.
    const _: () = assert!(core::mem::size_of::<JitCtx>() <= 128);

    // Field offsets of the `repr(C)` [`BlockEntry`] (asserted against
    // the real layout by a test in `plugin.rs`) and its size.
    const EVENT_PC: i8 = 0;
    const EVENT_INSTRET: i8 = 8;
    const EVENT_CYCLES: i8 = 16;
    const EVENT_SIZE: i32 = core::mem::size_of::<BlockEntry>() as i32;

    /// `bail_uop` value meaning "no bail: `exit_pc` is the next fetch
    /// pc".
    const NO_BAIL: u32 = u32::MAX;

    // ---------------------------------------------------- assembler

    // Host register numbers (x86-64 encoding values). Fixed roles
    // inside native code, set by the trampoline for the whole run:
    // r15 = ctx, rbx = GPR file, rbp = stuck-at mask table (`keep[0]`),
    // r13 = RAM base, r14 = remaining instruction budget, r12 = cycles
    // consumed, r11 = fused ops executed, r10 = native block
    // executions, r9 = cycle deadline. rax/rcx/rdx are scratch, and so
    // is rsi in the block body (plugin event slot, dirty bitmap word).
    // Native code makes no calls, so the caller-saved r9–r11 need no
    // saving.
    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RBP: u8 = 5;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R11: u8 = 11;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;

    // Condition codes (the low nibble of `0F 8x` jcc / `0F 9x` setcc).
    const CC_B: u8 = 0x2; // unsigned <
    const CC_AE: u8 = 0x3; // unsigned >=
    const CC_E: u8 = 0x4;
    const CC_NE: u8 = 0x5;
    const CC_L: u8 = 0xc; // signed <
    const CC_GE: u8 = 0xd; // signed >=

    #[derive(Clone, Copy, PartialEq, Eq)]
    struct Label(usize);

    enum FixTarget {
        /// A label inside the code being assembled.
        Label(Label),
        /// An arena-absolute offset (the shared epilogue).
        Abs(usize),
    }

    /// A minimal x86-64 emitter: exactly the instruction forms the
    /// templates need, nothing more. Code assembles into a buffer
    /// whose final arena position (`base`) is known up front, so rel32
    /// references to arena-absolute targets resolve at finalize time.
    struct Asm {
        base: usize,
        code: Vec<u8>,
        labels: Vec<Option<usize>>,
        fixups: Vec<(usize, FixTarget)>,
    }

    impl Asm {
        fn new(base: usize) -> Asm {
            Asm {
                base,
                code: Vec::with_capacity(512),
                labels: Vec::new(),
                fixups: Vec::new(),
            }
        }

        /// Arena-absolute position of the next emitted byte.
        fn pos(&self) -> usize {
            self.base + self.code.len()
        }

        fn label(&mut self) -> Label {
            self.labels.push(None);
            Label(self.labels.len() - 1)
        }

        fn bind(&mut self, l: Label) {
            debug_assert!(self.labels[l.0].is_none(), "label bound twice");
            self.labels[l.0] = Some(self.pos());
        }

        fn byte(&mut self, b: u8) {
            self.code.push(b);
        }

        fn bytes(&mut self, b: &[u8]) {
            self.code.extend_from_slice(b);
        }

        fn imm32(&mut self, v: i32) {
            self.bytes(&v.to_le_bytes());
        }

        /// Optional REX prefix: `w` selects 64-bit operand size,
        /// `reg`/`rm` contribute their high bits to REX.R/REX.B.
        fn rex(&mut self, w: bool, reg: u8, rm: u8) {
            let b = 0x40 | u8::from(w) << 3 | (reg >> 3) << 2 | (rm >> 3);
            if b != 0x40 {
                self.byte(b);
            }
        }

        fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
            self.byte(md << 6 | (reg & 7) << 3 | (rm & 7));
        }

        /// `[base + disp8]` operand; `base` must not be rsp/r12 (no
        /// SIB support here).
        fn mem_disp8(&mut self, reg: u8, base: u8, disp: i8) {
            debug_assert!(base & 7 != 4, "rsp/r12 base needs a SIB");
            self.modrm(1, reg, base);
            self.byte(disp as u8);
        }

        /// `[base + disp]` operand, with a disp8 when `disp` fits and a
        /// disp32 otherwise; `base` as for
        /// [`mem_disp8`](Asm::mem_disp8).
        fn mem_disp(&mut self, reg: u8, base: u8, disp: i32) {
            match i8::try_from(disp) {
                Ok(d) => self.mem_disp8(reg, base, d),
                Err(_) => {
                    debug_assert!(base & 7 != 4, "rsp/r12 base needs a SIB");
                    self.modrm(2, reg, base);
                    self.imm32(disp);
                }
            }
        }

        /// `[base]` operand; `base` must not be rsp/r12 (SIB) or
        /// rbp/r13 (RIP-relative at mod 0).
        fn mem_base(&mut self, reg: u8, base: u8) {
            debug_assert!(base & 7 != 4 && base & 7 != 5, "base needs a SIB or disp");
            self.modrm(0, reg, base);
        }

        fn push_reg(&mut self, r: u8) {
            self.rex(false, 0, r);
            self.byte(0x50 + (r & 7));
        }

        fn pop_reg(&mut self, r: u8) {
            self.rex(false, 0, r);
            self.byte(0x58 + (r & 7));
        }

        /// `mov r64, r64`.
        fn mov_rr64(&mut self, dst: u8, src: u8) {
            self.rex(true, src, dst);
            self.byte(0x89);
            self.modrm(3, src, dst);
        }

        /// `mov r32, imm32`.
        fn mov_ri32(&mut self, dst: u8, imm: i32) {
            self.rex(false, 0, dst);
            self.byte(0xb8 + (dst & 7));
            self.imm32(imm);
        }

        /// `mov r64, [base + disp8]`.
        fn mov_r64_mem(&mut self, dst: u8, base: u8, disp: i8) {
            self.rex(true, dst, base);
            self.byte(0x8b);
            self.mem_disp8(dst, base, disp);
        }

        /// `mov [base + disp8], r64`.
        fn mov_mem_r64(&mut self, base: u8, disp: i8, src: u8) {
            self.rex(true, src, base);
            self.byte(0x89);
            self.mem_disp8(src, base, disp);
        }

        /// `mov r32, [base + disp8]`.
        fn mov_r32_mem(&mut self, dst: u8, base: u8, disp: i8) {
            self.rex(false, dst, base);
            self.byte(0x8b);
            self.mem_disp8(dst, base, disp);
        }

        /// `mov [base + disp8], r32`.
        fn mov_mem_r32(&mut self, base: u8, disp: i8, src: u8) {
            self.rex(false, src, base);
            self.byte(0x89);
            self.mem_disp8(src, base, disp);
        }

        /// `mov dword [base + disp8], imm32`.
        fn mov_mem32_imm(&mut self, base: u8, disp: i8, imm: i32) {
            self.rex(false, 0, base);
            self.byte(0xc7);
            self.mem_disp8(0, base, disp);
            self.imm32(imm);
        }

        /// 32-bit ALU `op r32, [base + disp8]` via the `op r32, r/m32`
        /// opcodes: 0x03 add, 0x2b sub, 0x23 and, 0x0b or, 0x33 xor,
        /// 0x3b cmp.
        fn alu_r32_mem(&mut self, opc: u8, dst: u8, base: u8, disp: i8) {
            self.rex(false, dst, base);
            self.byte(opc);
            self.mem_disp8(dst, base, disp);
        }

        /// 32-bit ALU `op r32, imm32` via `81 /ext`: 0 add, 1 or,
        /// 4 and, 5 sub, 6 xor, 7 cmp.
        fn alu_ri32(&mut self, ext: u8, dst: u8, imm: i32) {
            self.rex(false, 0, dst);
            self.byte(0x81);
            self.modrm(3, ext, dst);
            self.imm32(imm);
        }

        /// `test r32, imm32`.
        fn test_ri32(&mut self, r: u8, imm: i32) {
            self.rex(false, 0, r);
            self.byte(0xf7);
            self.modrm(3, 0, r);
            self.imm32(imm);
        }

        /// `test r32, r32`.
        fn test_rr32(&mut self, a: u8, b: u8) {
            self.rex(false, b, a);
            self.byte(0x85);
            self.modrm(3, b, a);
        }

        /// `test r64, r64`.
        fn test_rr64(&mut self, a: u8, b: u8) {
            self.rex(true, b, a);
            self.byte(0x85);
            self.modrm(3, b, a);
        }

        /// `cmp r64, r64`.
        fn cmp_rr64(&mut self, a: u8, b: u8) {
            self.rex(true, a, b);
            self.byte(0x3b);
            self.modrm(3, a, b);
        }

        /// 32-bit shift by immediate via `C1 /ext`: 4 shl, 5 shr,
        /// 7 sar.
        fn shift_ri32(&mut self, ext: u8, r: u8, imm: u8) {
            self.rex(false, 0, r);
            self.byte(0xc1);
            self.modrm(3, ext, r);
            self.byte(imm & 31);
        }

        /// 32-bit shift by `cl` via `D3 /ext` — the CPU masks the
        /// count to 5 bits, exactly the RV32 `& 31`.
        fn shift_cl32(&mut self, ext: u8, r: u8) {
            self.rex(false, 0, r);
            self.byte(0xd3);
            self.modrm(3, ext, r);
        }

        /// `shr r64, imm`.
        fn shr_r64(&mut self, r: u8, imm: u8) {
            self.rex(true, 0, r);
            self.byte(0xc1);
            self.modrm(3, 5, r);
            self.byte(imm & 63);
        }

        /// `imul r32, r32`.
        fn imul_rr32(&mut self, dst: u8, src: u8) {
            self.rex(false, dst, src);
            self.bytes(&[0x0f, 0xaf]);
            self.modrm(3, dst, src);
        }

        /// `imul r64, r64`.
        fn imul_rr64(&mut self, dst: u8, src: u8) {
            self.rex(true, dst, src);
            self.bytes(&[0x0f, 0xaf]);
            self.modrm(3, dst, src);
        }

        /// `movsxd r64, dword [base + disp8]`.
        fn movsxd_mem(&mut self, dst: u8, base: u8, disp: i8) {
            self.rex(true, dst, base);
            self.byte(0x63);
            self.mem_disp8(dst, base, disp);
        }

        /// `setcc` + `movzx r32, r8`; `r` must be rax..rdx (byte
        /// registers that need no REX).
        fn setcc_zx32(&mut self, cc: u8, r: u8) {
            debug_assert!(r <= RDX);
            self.bytes(&[0x0f, 0x90 + cc]);
            self.modrm(3, 0, r);
            self.bytes(&[0x0f, 0xb6]);
            self.modrm(3, r, r);
        }

        /// `cmp r64, imm` (sign-extended).
        fn cmp_r64_imm(&mut self, r: u8, imm: i32) {
            self.alu_r64_imm(7, r, imm);
        }

        /// `sub r64, imm` (sign-extended).
        fn sub_r64_imm(&mut self, r: u8, imm: i32) {
            self.alu_r64_imm(5, r, imm);
        }

        /// 64-bit ALU `op r64, imm` via `83 /ext ib` when `imm` fits a
        /// byte, `81 /ext id` otherwise: 0 add, 5 sub, 7 cmp.
        fn alu_r64_imm(&mut self, ext: u8, r: u8, imm: i32) {
            self.rex(true, 0, r);
            match i8::try_from(imm) {
                Ok(b) => {
                    self.byte(0x83);
                    self.modrm(3, ext, r);
                    self.byte(b as u8);
                }
                Err(_) => {
                    self.byte(0x81);
                    self.modrm(3, ext, r);
                    self.imm32(imm);
                }
            }
        }

        /// `cmp r64, [base + disp8]`.
        fn cmp_r64_mem(&mut self, r: u8, base: u8, disp: i8) {
            self.rex(true, r, base);
            self.byte(0x3b);
            self.mem_disp8(r, base, disp);
        }

        /// 64-bit ALU `op r64, [base + disp8]` via the `op r64, r/m64`
        /// opcodes (0x03 add, 0x2b sub, 0x3b cmp, ...).
        fn alu_r64_mem(&mut self, opc: u8, dst: u8, base: u8, disp: i8) {
            self.rex(true, dst, base);
            self.byte(opc);
            self.mem_disp8(dst, base, disp);
        }

        /// `add r64, imm` (sign-extended).
        fn add_r64_imm(&mut self, r: u8, imm: i32) {
            self.alu_r64_imm(0, r, imm);
        }

        /// `add qword [base + disp8], imm` (sign-extended).
        fn add_mem64_imm(&mut self, base: u8, disp: i8, imm: i32) {
            self.rex(true, 0, base);
            if (-128..128).contains(&imm) {
                self.byte(0x83);
                self.mem_disp8(0, base, disp);
                self.byte(imm as u8);
            } else {
                self.byte(0x81);
                self.mem_disp8(0, base, disp);
                self.imm32(imm);
            }
        }

        /// `bts r64, r64`: sets bit `bit & 63` of `dst` (the register
        /// form takes the offset modulo 64, unlike the memory form's
        /// bit-string addressing).
        fn bts_rr64(&mut self, dst: u8, bit: u8) {
            self.rex(true, bit, dst);
            self.bytes(&[0x0f, 0xab]);
            self.modrm(3, bit, dst);
        }

        /// `bt`/`bts qword [base + disp], imm8` via `0F BA /ext ib`:
        /// 4 bt (CF = the bit), 5 bts (CF = the bit, then set it).
        fn bit_mem64_imm(&mut self, ext: u8, base: u8, disp: i32, bit: u8) {
            self.rex(true, 0, base);
            self.bytes(&[0x0f, 0xba]);
            self.mem_disp(ext, base, disp);
            self.byte(bit & 63);
        }

        /// 64-bit `op qword [base], r64` via the `op r/m64, r64`
        /// opcodes: 0x85 test, 0x09 or.
        fn alu_mem64_r64(&mut self, opc: u8, base: u8, src: u8) {
            self.rex(true, src, base);
            self.byte(opc);
            self.mem_base(src, base);
        }

        /// Opcode bytes for a RAM-width memory op: `movzx`/`movsx`/
        /// `mov` loads or plain `mov` stores, 8/16/32-bit.
        fn ram_opcode(&mut self, reg: u8, size: u8, signed: bool, store: bool) {
            if store && size == 2 {
                self.byte(0x66);
            }
            self.rex(false, reg, R13);
            match (store, size, signed) {
                (true, 1, _) => self.byte(0x88),
                (true, _, _) => self.byte(0x89),
                (false, 1, false) => self.bytes(&[0x0f, 0xb6]),
                (false, 1, true) => self.bytes(&[0x0f, 0xbe]),
                (false, 2, false) => self.bytes(&[0x0f, 0xb7]),
                (false, 2, true) => self.bytes(&[0x0f, 0xbf]),
                (false, _, _) => self.byte(0x8b),
            }
        }

        /// RAM access at `[r13 + rax]` (dynamic offset in rax).
        fn ram_dyn(&mut self, reg: u8, size: u8, signed: bool, store: bool) {
            self.ram_opcode(reg, size, signed, store);
            // mod=01 rm=100 -> SIB + disp8; SIB: index=rax, base=r13.
            self.modrm(1, reg, 4);
            self.byte((RAX & 7) << 3 | (R13 & 7));
            self.byte(0);
        }

        /// RAM access at `[r13 + disp32]` (static offset).
        fn ram_abs(&mut self, reg: u8, size: u8, signed: bool, store: bool, disp: i32) {
            self.ram_opcode(reg, size, signed, store);
            // mod=10 rm=101 with REX.B -> [r13 + disp32].
            self.modrm(2, reg, 5);
            self.imm32(disp);
        }

        fn jcc(&mut self, cc: u8, target: Label) {
            self.bytes(&[0x0f, 0x80 + cc]);
            let at = self.code.len();
            self.imm32(0);
            self.fixups.push((at, FixTarget::Label(target)));
        }

        /// `jmp rel32` to an arena-absolute offset (the epilogue).
        fn jmp_abs(&mut self, target: usize) {
            self.byte(0xe9);
            let at = self.code.len();
            self.imm32(0);
            self.fixups.push((at, FixTarget::Abs(target)));
        }

        /// `jmp r64`.
        fn jmp_reg(&mut self, r: u8) {
            self.rex(false, 0, r);
            self.byte(0xff);
            self.modrm(3, 4, r);
        }

        fn ret(&mut self) {
            self.byte(0xc3);
        }

        /// `jmp rel32` recorded as a chain site: until patched it goes
        /// to `fallback`; returns the arena-absolute offset of the
        /// rel32 field for later cross-block patching.
        fn jmp_chain(&mut self, fallback: Label) -> usize {
            self.byte(0xe9);
            let at = self.code.len();
            self.imm32(0);
            self.fixups.push((at, FixTarget::Label(fallback)));
            self.base + at
        }

        /// Resolves all fixups and returns the code bytes.
        fn finalize(mut self) -> Vec<u8> {
            for (at, target) in &self.fixups {
                let target_abs = match target {
                    FixTarget::Label(l) => self.labels[l.0].expect("label unbound"),
                    FixTarget::Abs(a) => *a,
                };
                let rel = target_abs as i64 - (self.base + at + 4) as i64;
                let rel = i32::try_from(rel).expect("rel32 overflow inside arena");
                self.code[*at..at + 4].copy_from_slice(&rel.to_le_bytes());
            }
            self.code
        }
    }

    // ------------------------------------------------------- engine

    /// Arena bytes `compile` reserves for a block besides its
    /// micro-ops: the entry checks with the event write, and the
    /// fall-through, deadline and entry-budget stubs.
    const BLOCK_RESERVE: usize = 256;

    /// Arena bytes `compile` reserves per micro-op: its template and
    /// the exit and bail stubs it adds. With registers armed, templates
    /// add up to two mask reads per operand.
    fn per_uop(armed: u32) -> usize {
        if armed != 0 {
            256
        } else {
            224
        }
    }

    /// High-watermark for retention: when a restore finds the arena
    /// cursor past this point, the engine does a full reset instead of
    /// retaining — retention never reclaims dropped blocks' bytes, so
    /// a long campaign with code-page churn would otherwise fill the
    /// arena with garbage.
    const RETAIN_WATERMARK: usize = ARENA_CAP / 4 * 3;

    /// One compiled block's retention metadata: its entry cookie plus
    /// the FNV-1a hash and byte length of the guest code it was
    /// compiled from, so a post-restore adoption can re-validate that
    /// the code bytes are still exactly what was compiled.
    #[derive(Debug, Clone, Copy)]
    struct NativeBlock {
        entry: usize,
        hash: u64,
        len: u32,
    }

    /// The per-VP template JIT: code arena, entry-point map and the
    /// cross-block chain patch lists.
    #[derive(Debug)]
    pub(crate) struct JitEngine {
        arena: Option<CodeArena>,
        /// Set when arena allocation failed: the engine is dead and
        /// every compile returns [`Compiled::Ineligible`].
        dead: bool,
        /// Arena offset where the next block goes.
        cursor: usize,
        /// Arena offsets of the entry trampoline and shared epilogue.
        trampoline: usize,
        epilogue: usize,
        /// End of the trampoline/epilogue region — the reset point.
        code_start: usize,
        /// Block start pc -> compiled block (entry offset + retention
        /// metadata).
        blocks: HashMap<u32, NativeBlock>,
        /// Target pc -> rel32 chain sites waiting for that block.
        pending: HashMap<u32, Vec<usize>>,
        /// Target pc -> rel32 chain sites already patched to jump into
        /// that block's entry. Dropping a block (restore dirtied its
        /// code page, or revalidation missed) re-points each inbound
        /// site to rel32 = 0, i.e. its local fall-through exit stub,
        /// and re-queues it on `pending` for a future recompile.
        applied: HashMap<u32, Vec<usize>>,
        /// The armed registers, one bit per GPR: templates read these
        /// operands through the stuck-at mask table and every other
        /// register raw. Empty for the plain engine.
        armed: u32,
        ctx: JitCtx,
    }

    /// Keeps the arena as `SPARE_ARENA` unless one is already spare,
    /// in which case it is unmapped. Nothing can run from it afterwards:
    /// the engine is going away, and with it the `Vp` holding every
    /// entry cookie; an engine adopting it re-emits the trampoline and
    /// compiles from scratch.
    impl Drop for JitEngine {
        fn drop(&mut self) {
            let Some(arena) = self.arena.take() else {
                return;
            };
            // Otherwise `arena` drops after the guard: unmapped unlocked.
            let mut spare = SPARE_ARENA.lock().unwrap_or_else(PoisonError::into_inner);
            if spare.is_none() {
                *spare = Some(arena);
            }
        }
    }

    // SAFETY: the raw pointers in `ctx` are parameters of the *current*
    // `run` call only — they are rewritten from `&mut` borrows at every
    // entry and never dereferenced between runs — so moving the engine
    // (inside its owning `Vp`) to another thread is sound. The arena
    // pointer is exclusively owned (anonymous private mapping).
    unsafe impl Send for JitEngine {}

    impl JitEngine {
        /// A fresh engine for the `armed` registers: empty for the
        /// plain engine, non-empty for the masked engine (see the module
        /// docs). The arena is mapped on the first compile.
        pub(crate) fn new(armed: u32) -> Option<JitEngine> {
            Some(JitEngine {
                arena: None,
                dead: false,
                cursor: 0,
                trampoline: 0,
                epilogue: 0,
                code_start: 0,
                blocks: HashMap::new(),
                pending: HashMap::new(),
                applied: HashMap::new(),
                armed,
                ctx: JitCtx {
                    gprs: core::ptr::null_mut(),
                    ram: core::ptr::null_mut(),
                    dirty: core::ptr::null_mut(),
                    remaining: 0,
                    cyc: 0,
                    deadline: 0,
                    blocks: 0,
                    exit_pc: 0,
                    bail_uop: NO_BAIL,
                    code_lo: 0,
                    code_hi: 0,
                    fused: 0,
                    bail_reason: BAIL_NONE,
                    masks: core::ptr::null(),
                    events: core::ptr::null_mut(),
                    events_end: core::ptr::null_mut(),
                },
            })
        }

        /// Drops every compiled block and resets the arena cursor.
        /// Called from `Vp::invalidate_caches`, which also drops the
        /// `Block`s holding the entry cookies, so no stale cookie can
        /// survive. The trampoline and epilogue are position-fixed and
        /// block-independent; they persist across resets.
        pub(crate) fn reset(&mut self) {
            self.blocks.clear();
            self.pending.clear();
            self.applied.clear();
            self.cursor = self.code_start;
        }

        /// The registers this engine's templates read through the mask
        /// table.
        pub(crate) fn armed(&self) -> u32 {
            self.armed
        }

        /// Resets the engine and compiles from now on for the `armed`
        /// registers, keeping the arena. Like [`reset`](JitEngine::reset),
        /// the caller drops every entry cookie with it.
        pub(crate) fn rearm(&mut self, armed: u32) {
            self.reset();
            self.armed = armed;
        }

        /// Retention across a snapshot restore: keeps every compiled
        /// block whose code bytes are still exactly what it was
        /// compiled from, drops (and chain-severs) the rest. `restored`
        /// is a bitmap of RAM page indices the restore copied and `ram`
        /// is guest RAM *after* those copies. Returns the surviving
        /// translated code range `(lo, hi)` for the VP's SMC filter, or
        /// `None` when nothing survived (the engine then behaves as
        /// freshly reset).
        ///
        /// Survivor soundness: a page the restore did not copy is, by
        /// the restore's own condition (not dirty and same snapshot
        /// lineage), bit-identical to the restored image — so a block
        /// wholly on untouched pages still matches the guest code byte
        /// for byte. A block on a *copied* page is not lost either: the
        /// copy re-imposed the snapshot image (the common case is a
        /// data store merely sharing the 4 KiB page with code, which
        /// small guests do constantly), so the block survives iff its
        /// current bytes still hash to the FNV-1a value it was compiled
        /// under. Every survivor is byte-validated one way or the
        /// other, so chain jumps *between* survivors stay exact.
        pub(crate) fn retain_across_restore(
            &mut self,
            restored: &[u64],
            ram_base: u32,
            ram: &[u8],
        ) -> Option<(u32, u32)> {
            if self.blocks.is_empty() {
                self.reset();
                return None;
            }
            if self.cursor > RETAIN_WATERMARK {
                self.reset();
                return None;
            }
            let page_restored = |page: u32| {
                restored
                    .get((page >> 6) as usize)
                    .is_some_and(|w| w & (1u64 << (page & 63)) != 0)
            };
            let dropped: Vec<u32> = self
                .blocks
                .iter()
                .filter(|(pc, b)| {
                    if b.hash == 0 {
                        return true;
                    }
                    let first = pc.wrapping_sub(ram_base) >> PAGE_SHIFT;
                    let last =
                        pc.wrapping_add(b.len.max(1) - 1).wrapping_sub(ram_base) >> PAGE_SHIFT;
                    if !(first..=last).any(&page_restored) {
                        return false;
                    }
                    let off = pc.wrapping_sub(ram_base) as usize;
                    ram.get(off..off + b.len as usize).map(crate::vp::fnv1a) != Some(b.hash)
                })
                .map(|(pc, _)| *pc)
                .collect();
            self.drop_blocks(dropped)
        }

        /// Drops (and chain-severs) every compiled block whose code
        /// bytes overlap `[addr, addr + len)`, leaving the rest of the
        /// arena warm. This is the surgical form of a code mutation:
        /// fault campaigns use it when an injected bit flip lands inside
        /// the tracked code range, so an opcode mutant costs exactly the
        /// blocks it rewrote rather than a full arena reset. Returns the
        /// surviving code range like
        /// [`retain_across_restore`](JitEngine::retain_across_restore)
        /// (survivor bytes are untouched by the mutation, so their
        /// compile-time hashes — and chain jumps between them — stay
        /// exact).
        pub(crate) fn invalidate_span(&mut self, addr: u32, len: u32) -> Option<(u32, u32)> {
            let dropped: Vec<u32> = self
                .blocks
                .iter()
                .filter(|(pc, b)| addr.wrapping_add(len) > **pc && addr < pc.wrapping_add(b.len))
                .map(|(pc, _)| *pc)
                .collect();
            self.drop_blocks(dropped)
        }

        /// Removes `dropped` from the block map, unpatches every chain
        /// site that jumped into a dropped block (back to the rel32 = 0
        /// epilogue form, re-queued as pending), and recomputes the
        /// surviving code range. Resets the engine outright when nothing
        /// survives.
        fn drop_blocks(&mut self, dropped: Vec<u32>) -> Option<(u32, u32)> {
            if dropped.len() == self.blocks.len() {
                self.reset();
                return None;
            }
            if !dropped.is_empty() {
                let arena = self.arena.as_mut().expect("compiled blocks imply an arena");
                arena.set_exec(false);
                for pc in dropped {
                    self.blocks.remove(&pc);
                    if let Some(sites) = self.applied.remove(&pc) {
                        for &site in &sites {
                            arena.patch32(site, 0);
                        }
                        self.pending.entry(pc).or_default().extend(sites);
                    }
                }
                arena.set_exec(true);
            }
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for (pc, b) in &self.blocks {
                lo = lo.min(*pc);
                hi = hi.max(pc.wrapping_add(b.len));
            }
            Some((lo, hi))
        }

        /// A retained block awaiting re-adoption at `pc`, as
        /// `(entry, hash, len)`. The caller re-validates `hash` against
        /// the current code bytes before running the entry.
        pub(crate) fn retained(&self, pc: u32) -> Option<(usize, u64, u32)> {
            self.blocks.get(&pc).map(|b| (b.entry, b.hash, b.len))
        }

        /// Drops one retained block whose revalidation missed, severing
        /// any chain sites patched into it.
        pub(crate) fn drop_retained(&mut self, pc: u32) {
            if self.blocks.remove(&pc).is_none() {
                return;
            }
            if let Some(sites) = self.applied.remove(&pc) {
                let arena = self.arena.as_mut().expect("compiled blocks imply an arena");
                arena.set_exec(false);
                for &site in &sites {
                    arena.patch32(site, 0);
                }
                arena.set_exec(true);
                self.pending.entry(pc).or_default().extend(sites);
            }
        }

        /// Lazily adopts the spare arena or maps a new one, and emits the
        /// trampoline and shared epilogue. Returns `false` when mapping
        /// fails; the engine is then permanently dead.
        fn ensure_arena(&mut self) -> bool {
            if self.arena.is_some() {
                return true;
            }
            if self.dead {
                return false;
            }
            let spare = SPARE_ARENA
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some(mut arena) = spare.or_else(|| CodeArena::new(ARENA_CAP)) else {
                self.dead = true;
                return false;
            };
            let mut a = Asm::new(0);
            // Trampoline (`extern "C" fn(ctx: *mut JitCtx, entry)`):
            // save callee-saved registers, adopt the fixed role
            // registers from the context, zero the run's accumulators,
            // tail-jump into the block.
            self.trampoline = a.pos();
            for r in [RBX, RBP, R12, R13, R14, R15] {
                a.push_reg(r);
            }
            a.mov_rr64(R15, RDI); // ctx
            a.mov_r64_mem(RBX, R15, OFF_GPRS);
            a.mov_r64_mem(RBP, R15, OFF_MASKS);
            a.mov_r64_mem(R13, R15, OFF_RAM);
            a.mov_r64_mem(R14, R15, OFF_REMAINING);
            a.mov_r64_mem(R9, R15, OFF_DEADLINE);
            for r in [R12, R11, R10] {
                a.alu_rr32(0x33, r, r); // xor: zero-extends to 64 bits
            }
            a.jmp_reg(RSI);
            // Shared epilogue: every exit/bail stub jumps here with
            // exit_pc/bail_uop (and a bail's reason) already written.
            // Publish the budget and accumulator registers and return.
            self.epilogue = a.pos();
            a.mov_mem_r64(R15, OFF_REMAINING, R14);
            a.mov_mem_r64(R15, OFF_CYC, R12);
            a.mov_mem_r64(R15, OFF_BLOCKS, R10);
            a.mov_mem_r64(R15, OFF_FUSED, R11);
            for r in [R15, R14, R13, R12, RBP, RBX] {
                a.pop_reg(r);
            }
            a.ret();
            let code = a.finalize();
            // A spare single-mapping arena comes back executable.
            arena.set_exec(false);
            arena.write(0, &code);
            arena.set_exec(true);
            self.code_start = code.len();
            self.cursor = code.len();
            self.arena = Some(arena);
            true
        }

        /// Runs compiled code starting at `entry`.
        ///
        /// # Safety
        ///
        /// - `entry` must be the cookie of a block this engine still
        ///   holds: returned by [`JitEngine::compile`] since the most
        ///   recent [`reset`](JitEngine::reset) or
        ///   [`rearm`](JitEngine::rearm), and not dropped since by
        ///   restore retention, [`invalidate_span`](JitEngine::invalidate_span)
        ///   or [`drop_retained`](JitEngine::drop_retained). Chain sites
        ///   only ever lead to such blocks.
        /// - `gprs` must point to the 32-slot GPR file, `ram` to the
        ///   RAM slice and `dirty` to its page dirty bitmap (one bit
        ///   per 4 KiB page, in 64-bit words covering every page), all
        ///   exclusively borrowed for the duration of the call, with
        ///   `ram`/`dirty` matching the `ram_base`/`ram_len` the
        ///   blocks were compiled against: native loads and stores
        ///   index `ram` by offset, stores read and set the bitmap word
        ///   of the page they write, and register writes go to
        ///   `gprs[1..32]`.
        /// - `masks` must point to `keep[0]` of the same CPU's stuck-at
        ///   mask table (`Cpu::gpr_masks_ptr`), with `one[0..32]` in the
        ///   128 bytes below it, readable and unmodified for the
        ///   duration of the call. Only templates of armed registers
        ///   read it.
        /// - Every register with a non-trivial mask (`one[r] != 0` or
        ///   `keep[r] != !0`, see `Cpu::armed_gprs`) is in the engine's
        ///   [`armed`](JitEngine::armed) set: templates read every other
        ///   register raw. The plain engine's set is empty, so it runs
        ///   only while no register fault is armed.
        /// - `code_lo..code_hi` must cover the guest code bytes of every
        ///   block this engine holds (same contract as the interpreter's
        ///   SMC filter): a store there bails instead of writing.
        /// - No block reachable from `entry` is subscribed to plugin
        ///   instruction events: native code reports no instruction or
        ///   RAM-access event.
        /// - `events` is the plugin event buffer, non-empty whenever
        ///   blocks compiled with events can run (an empty buffer is
        ///   always full, so they would only ever take the deadline
        ///   exit). Native code writes through the raw cursor derived
        ///   from it, never past its end.
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn run(
            &mut self,
            entry: usize,
            gprs: *mut u32,
            masks: *const u32,
            ram: *mut u8,
            dirty: *mut u64,
            remaining: u64,
            deadline: u64,
            code_lo: u32,
            code_hi: u32,
            events: &mut [BlockEntry],
        ) -> JitExit {
            let arena = self.arena.as_ref().expect("JIT run without an arena");
            let events = events.as_mut_ptr_range();
            self.ctx = JitCtx {
                gprs,
                ram,
                dirty,
                remaining,
                cyc: 0,
                deadline,
                blocks: 0,
                exit_pc: 0,
                bail_uop: NO_BAIL,
                code_lo,
                code_hi,
                fused: 0,
                bail_reason: BAIL_NONE,
                masks,
                events: events.start,
                events_end: events.end,
            };
            // SAFETY (per the function contract): `trampoline` and
            // `entry` point at finalized code in the R+X exec view; the
            // trampoline preserves callee-saved registers and every
            // exit path returns through the shared epilogue.
            unsafe {
                let tramp: unsafe extern "C" fn(*mut JitCtx, *const u8) =
                    core::mem::transmute(arena.exec_base.add(self.trampoline).cast_const());
                tramp(&mut self.ctx, arena.exec_base.add(entry).cast_const());
            }
            // SAFETY: native code only advances the cursor from the
            // buffer's start, one whole entry at a time, up to its end.
            let written = unsafe { self.ctx.events.offset_from(events.start) };
            JitExit {
                exit_pc: self.ctx.exit_pc,
                bail_uop: (self.ctx.bail_uop != NO_BAIL).then_some(self.ctx.bail_uop),
                cycles: self.ctx.cyc,
                retired: remaining - self.ctx.remaining,
                remaining: self.ctx.remaining,
                blocks: self.ctx.blocks,
                fused: self.ctx.fused,
                events: written as usize,
                reason: self.ctx.bail_reason,
            }
        }

        /// Compiles a block's micro-ops into native code and installs
        /// it at `pc`, patching any chain sites that were waiting for
        /// this block. `hash` is the FNV-1a hash of the block's guest
        /// code bytes, kept for post-restore revalidation (0 = not
        /// hashable, never retained). Returns [`Compiled::Ineligible`]
        /// when any micro-op lacks a template, a fused-`auipc` access
        /// is not statically a valid RAM fast-path access, path sums
        /// overflow an `imm32`, or the arena is full/unavailable.
        /// `events` emits the plugin block-event write into the entry
        /// prologue (see the module docs); without it the block's code
        /// is exactly that of a VP with no plugin attached.
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn compile(
            &mut self,
            pc: u32,
            uops: &[MicroOp],
            fall_pc: u32,
            ram_base: u32,
            ram_len: u32,
            hash: u64,
            events: bool,
        ) -> Compiled {
            if self.dead || uops.is_empty() {
                return Compiled::Ineligible;
            }
            debug_assert!(
                self.armed == 0 || uops.iter().all(|u| u.n == 1),
                "the masked engine compiles the unfused lowering"
            );
            let mut worst_cyc: u64 = 0;
            let mut total_n: u64 = 0;
            for u in uops {
                if !covers(u, ram_base, ram_len) {
                    return Compiled::Ineligible;
                }
                worst_cyc += u.cost as u64 + u.cost2 as u64;
                total_n += u.n as u64;
            }
            if worst_cyc > i32::MAX as u64 || total_n > i32::MAX as u64 {
                return Compiled::Ineligible;
            }
            if !self.ensure_arena()
                || self.cursor + BLOCK_RESERVE + uops.len() * per_uop(self.armed) > ARENA_CAP
            {
                return Compiled::Ineligible;
            }
            let entry = self.cursor;
            let (code, sites) = self.assemble(entry, pc, uops, fall_pc, ram_base, ram_len, events);
            let arena = self.arena.as_mut().expect("arena ensured above");
            arena.set_exec(false);
            arena.write(entry, &code);
            self.cursor = entry + code.len();
            self.blocks.insert(
                pc,
                NativeBlock {
                    entry,
                    hash,
                    len: fall_pc.wrapping_sub(pc),
                },
            );
            // Chain: point this block's static exits at already
            // compiled successors (including itself), queue the rest,
            // and resolve any sites that were waiting for this pc.
            // Every applied site is remembered per target so dropping a
            // retained block after a restore can sever it again.
            for (site, target) in sites {
                if let Some(b) = self.blocks.get(&target) {
                    arena.patch32(site, (b.entry as i64 - (site as i64 + 4)) as i32);
                    self.applied.entry(target).or_default().push(site);
                } else {
                    self.pending.entry(target).or_default().push(site);
                }
            }
            if let Some(waiters) = self.pending.remove(&pc) {
                for site in waiters {
                    arena.patch32(site, (entry as i64 - (site as i64 + 4)) as i32);
                    self.applied.entry(pc).or_default().push(site);
                }
            }
            arena.set_exec(true);
            Compiled::Entry(entry)
        }

        /// Assembles a block for arena offset `entry`, with the
        /// arguments and eligibility of [`compile`](JitEngine::compile),
        /// and returns the code with its chain sites as (arena offset of
        /// the rel32 field, target pc).
        #[allow(clippy::too_many_arguments)]
        fn assemble(
            &self,
            entry: usize,
            pc: u32,
            uops: &[MicroOp],
            fall_pc: u32,
            ram_base: u32,
            ram_len: u32,
            events: bool,
        ) -> (Vec<u8>, Vec<(usize, u32)>) {
            let epilogue = self.epilogue;
            let armed = self.armed;
            let total_n: u64 = uops.iter().map(|u| u64::from(u.n)).sum();
            let mut a = Asm::new(entry);
            let mut sites: Vec<(usize, u32)> = Vec::new();
            let mut takens: Vec<TakenStub> = Vec::new();
            let mut bails: Vec<BailStub> = Vec::new();

            // Entry checks: deadline, then the inline plugin-event
            // write, then whole-block budget. The ordering is the
            // equivalence contract with the interpreter: a deadline exit
            // redispatches the same block (which records then), while an
            // entry-budget bail resumes *this* dispatch in the micro-op
            // engine without re-recording — so the write must sit
            // between the two checks to record each block entry exactly
            // once. The block-execution counter only advances once both
            // checks pass.
            let deadline_lbl = a.label();
            let bail0 = a.label();
            bails.push(BailStub {
                label: bail0,
                k: 0,
                cyc: 0,
                n: 0,
                fused: 0,
                reason: BAIL_BUDGET,
            });
            a.cmp_rr64(R12, R9);
            a.jcc(CC_AE, deadline_lbl);
            // Plugin block event (compiled in only with a plugin
            // attached). A full buffer takes the deadline exit, before
            // any write: the dispatcher drains it and redispatches this
            // block. Otherwise, when an instruction will run (r14 > 0,
            // the interpreter's hook rule), slot = {pc, budget, cycles
            // so far}; the dispatcher rebases budget and cycles into
            // the entry's instret and cycles as it drains.
            if events {
                let no_event = a.label();
                a.mov_r64_mem(RSI, R15, OFF_EVENTS);
                a.cmp_r64_mem(RSI, R15, OFF_EVENTS_END);
                a.jcc(CC_AE, deadline_lbl);
                a.test_rr64(R14, R14);
                a.jcc(CC_E, no_event);
                a.mov_mem32_imm(RSI, EVENT_PC, pc as i32);
                a.mov_mem_r64(RSI, EVENT_INSTRET, R14);
                a.mov_mem_r64(RSI, EVENT_CYCLES, R12);
                a.add_mem64_imm(R15, OFF_EVENTS, EVENT_SIZE);
                a.bind(no_event);
            }
            a.cmp_r64_imm(R14, total_n as i32);
            a.jcc(CC_B, bail0);
            a.add_r64_imm(R10, 1);

            // Body: one template per micro-op, with running
            // path-constant sums (cycles / retired / fused ops) of the
            // micro-ops *completed before* the one being emitted.
            let mut cyc: u64 = 0;
            let mut n: u64 = 0;
            let mut fused: u64 = 0;
            for (k, u) in uops.iter().enumerate() {
                let k = k as u32;
                let (rd, rs1, rs2) = (u.rd.index(), u.rs1.index(), u.rs2.index());
                let (cost, cost2, un) = (u.cost as u64, u.cost2 as u64, u.n as u64);
                let f = u64::from(u.n > 1);
                // Accounting constants for this micro-op's exits: a
                // taken branch/jump charges cost+cost2, everything
                // else cost (fused-`auipc` accesses cost+cost2 as two
                // halves, handled via `abs_extra` below).
                let taken_cyc = cyc + cost + cost2;
                let taken_n = n + un;
                let taken_fused = fused + f;
                let mut abs_extra = 0u64;
                match u.op {
                    Op::Nop => {}
                    Op::LoadConst => {
                        if rd != 0 {
                            a.mov_mem32_imm(RBX, g(rd), u.imm);
                        }
                    }
                    Op::Addi | Op::Xori | Op::Ori | Op::Andi => {
                        if rd != 0 {
                            let ext = match u.op {
                                Op::Addi => 0,
                                Op::Ori => 1,
                                Op::Andi => 4,
                                _ => 6,
                            };
                            load_gpr(&mut a, armed, RAX, rs1);
                            if !(u.op == Op::Addi && u.imm == 0) {
                                a.alu_ri32(ext, RAX, u.imm);
                            }
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Slti | Op::Sltiu => {
                        if rd != 0 {
                            load_gpr(&mut a, armed, RAX, rs1);
                            a.alu_ri32(7, RAX, u.imm);
                            a.setcc_zx32(if u.op == Op::Slti { CC_L } else { CC_B }, RAX);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Slli | Op::Srli | Op::Srai => {
                        if rd != 0 {
                            let ext = match u.op {
                                Op::Slli => 4,
                                Op::Srli => 5,
                                _ => 7,
                            };
                            load_gpr(&mut a, armed, RAX, rs1);
                            a.shift_ri32(ext, RAX, (u.imm as u32 & 31) as u8);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Add | Op::Sub | Op::Xor | Op::Or | Op::And => {
                        if rd != 0 {
                            let opc = match u.op {
                                Op::Add => 0x03,
                                Op::Sub => 0x2b,
                                Op::Xor => 0x33,
                                Op::Or => 0x0b,
                                _ => 0x23,
                            };
                            load_gpr(&mut a, armed, RAX, rs1);
                            alu_gpr(&mut a, armed, opc, RAX, rs2);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Slt | Op::Sltu => {
                        if rd != 0 {
                            load_gpr(&mut a, armed, RAX, rs1);
                            alu_gpr(&mut a, armed, 0x3b, RAX, rs2);
                            a.setcc_zx32(if u.op == Op::Slt { CC_L } else { CC_B }, RAX);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Sll | Op::Srl | Op::Sra => {
                        if rd != 0 {
                            let ext = match u.op {
                                Op::Sll => 4,
                                Op::Srl => 5,
                                _ => 7,
                            };
                            load_gpr(&mut a, armed, RAX, rs1);
                            load_gpr(&mut a, armed, RCX, rs2);
                            a.shift_cl32(ext, RAX);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Mul => {
                        if rd != 0 {
                            load_gpr(&mut a, armed, RAX, rs1);
                            load_gpr(&mut a, armed, RCX, rs2);
                            a.imul_rr32(RAX, RCX);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Mulh | Op::Mulhsu | Op::Mulhu => {
                        if rd != 0 {
                            if u.op == Op::Mulhu {
                                load_gpr(&mut a, armed, RAX, rs1);
                            } else {
                                load_gpr_sx(&mut a, armed, RAX, rs1);
                            }
                            if u.op == Op::Mulh {
                                load_gpr_sx(&mut a, armed, RCX, rs2);
                            } else {
                                load_gpr(&mut a, armed, RCX, rs2);
                            }
                            a.imul_rr64(RAX, RCX);
                            a.shr_r64(RAX, 32);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::ShiftPair => {
                        if rd != 0 {
                            load_gpr(&mut a, armed, RAX, rs1);
                            a.shift_ri32(4, RAX, (u.imm as u32 & 31) as u8);
                            a.shift_ri32(5, RAX, (u.imm2 as u32 & 31) as u8);
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                    }
                    Op::Lb | Op::Lh | Op::Lw | Op::Lbu | Op::Lhu => {
                        let (size, signed) = load_kind(u.op);
                        load_gpr(&mut a, armed, RAX, rs1);
                        if u.imm != 0 {
                            a.alu_ri32(0, RAX, u.imm);
                        }
                        let bail = bail_label(&mut a, &mut bails, k, cyc, n, fused, BAIL_MEM);
                        if size > 1 {
                            a.test_ri32(RAX, i32::from(size - 1));
                            a.jcc(CC_NE, bail);
                        }
                        a.alu_ri32(5, RAX, ram_base as i32);
                        a.alu_ri32(7, RAX, (ram_len - (size as u32 - 1)) as i32);
                        a.jcc(CC_AE, bail);
                        if rd != 0 {
                            a.ram_dyn(RCX, size, signed, false);
                            a.mov_mem_r32(RBX, g(rd), RCX);
                        }
                    }
                    Op::Sb | Op::Sh | Op::Sw => {
                        let size = store_size(u.op);
                        load_gpr(&mut a, armed, RAX, rs1);
                        if u.imm != 0 {
                            a.alu_ri32(0, RAX, u.imm);
                        }
                        let bail = bail_label(&mut a, &mut bails, k, cyc, n, fused, BAIL_MEM);
                        let bail_smc = bail_label(&mut a, &mut bails, k, cyc, n, fused, BAIL_SMC);
                        if size > 1 {
                            a.test_ri32(RAX, i32::from(size - 1));
                            a.jcc(CC_NE, bail);
                        }
                        // SMC filter (same wrapping comparison as the
                        // interpreter): a store overlapping the
                        // translated range bails so the micro-op
                        // engine performs it and schedules the
                        // deferred invalidation.
                        let ok = a.label();
                        a.mov_rr32(RCX, RAX);
                        a.alu_ri32(0, RCX, i32::from(size));
                        a.alu_r32_mem(0x3b, RCX, R15, OFF_CODE_LO);
                        a.jcc(CC_BE, ok);
                        a.alu_r32_mem(0x3b, RAX, R15, OFF_CODE_HI);
                        a.jcc(CC_B, bail_smc);
                        a.bind(ok);
                        a.alu_ri32(5, RAX, ram_base as i32);
                        a.alu_ri32(7, RAX, (ram_len - (size as u32 - 1)) as i32);
                        a.jcc(CC_AE, bail);
                        // Dirty mark, test-then-set like
                        // `Bus::ram_write_fast`: rsi = the bitmap word
                        // (offset >> 18, scaled to bytes), rdx = the
                        // page's bit (a register-form `bts` takes the
                        // page index modulo 64); an already-dirty page
                        // is left alone. An aligned access never
                        // straddles a page, so one bit covers it.
                        let marked = a.label();
                        a.mov_rr32(RSI, RAX);
                        a.shift_ri32(5, RSI, PAGE_SHIFT as u8 + 6);
                        a.shift_ri32(4, RSI, 3);
                        a.alu_r64_mem(0x03, RSI, R15, OFF_DIRTY);
                        a.mov_rr32(RCX, RAX);
                        a.shift_ri32(5, RCX, PAGE_SHIFT as u8);
                        a.alu_rr32(0x33, RDX, RDX);
                        a.bts_rr64(RDX, RCX);
                        a.alu_mem64_r64(0x85, RSI, RDX);
                        a.jcc(CC_NE, marked);
                        a.alu_mem64_r64(0x09, RSI, RDX);
                        a.bind(marked);
                        load_gpr(&mut a, armed, RCX, rs2);
                        a.ram_dyn(RCX, size, false, true);
                    }
                    Op::AbsLb | Op::AbsLh | Op::AbsLw | Op::AbsLbu | Op::AbsLhu => {
                        // Statically valid RAM access (checked by
                        // `covers`): no dynamic checks at all. The
                        // auipc half writes its register first, like
                        // the micro-op engine's `abs_base`.
                        let (size, signed) = load_kind(u.op);
                        let off = (u.imm as u32).wrapping_sub(ram_base);
                        abs_extra = cost2;
                        if rs1 != 0 {
                            a.mov_mem32_imm(RBX, g(rs1), u.imm2);
                        }
                        if rd != 0 {
                            a.ram_abs(RCX, size, signed, false, off as i32);
                            a.mov_mem_r32(RBX, g(rd), RCX);
                        }
                    }
                    Op::AbsSb | Op::AbsSh | Op::AbsSw => {
                        let size = store_size(u.op);
                        let off = (u.imm as u32).wrapping_sub(ram_base);
                        abs_extra = cost2;
                        // SMC filter first: the bail must precede the
                        // auipc half's register write.
                        let bail = bail_label(&mut a, &mut bails, k, cyc, n, fused, BAIL_SMC);
                        let ok = a.label();
                        a.mov_ri32(RCX, (u.imm as u32).wrapping_add(size as u32) as i32);
                        a.alu_r32_mem(0x3b, RCX, R15, OFF_CODE_LO);
                        a.jcc(CC_BE, ok);
                        a.mov_ri32(RCX, u.imm);
                        a.alu_r32_mem(0x3b, RCX, R15, OFF_CODE_HI);
                        a.jcc(CC_B, bail);
                        a.bind(ok);
                        if rs1 != 0 {
                            a.mov_mem32_imm(RBX, g(rs1), u.imm2);
                        }
                        // The page is a compile-time constant: test its
                        // bit in place and set it only when clear.
                        let page = off >> PAGE_SHIFT;
                        let word = (page >> 6) as i32 * 8;
                        let marked = a.label();
                        a.mov_r64_mem(RDX, R15, OFF_DIRTY);
                        a.bit_mem64_imm(4, RDX, word, page as u8);
                        a.jcc(CC_B, marked);
                        a.bit_mem64_imm(5, RDX, word, page as u8);
                        a.bind(marked);
                        load_gpr(&mut a, armed, RCX, rs2);
                        a.ram_abs(RCX, size, false, true, off as i32);
                    }
                    Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                        let cc = match u.op {
                            Op::Beq => CC_E,
                            Op::Bne => CC_NE,
                            Op::Blt => CC_L,
                            Op::Bge => CC_GE,
                            Op::Bltu => CC_B,
                            _ => CC_AE,
                        };
                        load_gpr(&mut a, armed, RAX, rs1);
                        alu_gpr(&mut a, armed, 0x3b, RAX, rs2);
                        let t = taken_label(
                            &mut a,
                            &mut takens,
                            u.imm as u32,
                            taken_cyc,
                            taken_n,
                            taken_fused,
                        );
                        a.jcc(cc, t);
                    }
                    Op::SltBrz
                    | Op::SltBrnz
                    | Op::SltuBrz
                    | Op::SltuBrnz
                    | Op::SltiBrz
                    | Op::SltiBrnz
                    | Op::SltiuBrz
                    | Op::SltiuBrnz => {
                        let (cc, imm_form, take_if_set) = match u.op {
                            Op::SltBrz => (CC_L, false, false),
                            Op::SltBrnz => (CC_L, false, true),
                            Op::SltuBrz => (CC_B, false, false),
                            Op::SltuBrnz => (CC_B, false, true),
                            Op::SltiBrz => (CC_L, true, false),
                            Op::SltiBrnz => (CC_L, true, true),
                            Op::SltiuBrz => (CC_B, true, false),
                            _ => (CC_B, true, true),
                        };
                        load_gpr(&mut a, armed, RAX, rs1);
                        if imm_form {
                            a.alu_ri32(7, RAX, u.imm2);
                        } else {
                            alu_gpr(&mut a, armed, 0x3b, RAX, rs2);
                        }
                        a.setcc_zx32(cc, RAX);
                        if rd != 0 {
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                        a.test_rr32(RAX, RAX);
                        let t = taken_label(
                            &mut a,
                            &mut takens,
                            u.imm as u32,
                            taken_cyc,
                            taken_n,
                            taken_fused,
                        );
                        a.jcc(if take_if_set { CC_NE } else { CC_E }, t);
                    }
                    Op::AddBeq | Op::AddBne => {
                        load_gpr(&mut a, armed, RAX, rs1);
                        if u.imm2 != 0 {
                            a.alu_ri32(0, RAX, u.imm2);
                        }
                        if rd != 0 {
                            a.mov_mem_r32(RBX, g(rd), RAX);
                        }
                        alu_gpr(&mut a, armed, 0x3b, RAX, rs2);
                        let t = taken_label(
                            &mut a,
                            &mut takens,
                            u.imm as u32,
                            taken_cyc,
                            taken_n,
                            taken_fused,
                        );
                        a.jcc(if u.op == Op::AddBeq { CC_E } else { CC_NE }, t);
                    }
                    Op::Jal => {
                        if rd != 0 {
                            a.mov_mem32_imm(RBX, g(rd), u.next_pc as i32);
                        }
                        emit_exit(
                            &mut a,
                            &mut sites,
                            epilogue,
                            u.imm as u32,
                            taken_cyc,
                            taken_n,
                            taken_fused,
                        );
                    }
                    Op::Jalr => {
                        load_gpr(&mut a, armed, RAX, rs1);
                        if u.imm != 0 {
                            a.alu_ri32(0, RAX, u.imm);
                        }
                        a.alu_ri32(4, RAX, -2);
                        if u.imm2 != 0 {
                            // Misaligned target: bail *before* the rd
                            // write so the micro-op engine replays the
                            // write-then-trap sequence. Counted as a
                            // mem-slow-path bail.
                            let bail = bail_label(&mut a, &mut bails, k, cyc, n, fused, BAIL_MEM);
                            a.test_ri32(RAX, u.imm2);
                            a.jcc(CC_NE, bail);
                        }
                        if rd != 0 {
                            a.mov_mem32_imm(RBX, g(rd), u.next_pc as i32);
                        }
                        // Dynamic-target exit (no chain site): jalr
                        // charges cost only, like the micro-op engine.
                        account(&mut a, cyc + cost, n + un, fused);
                        a.mov_mem_r32(R15, OFF_EXIT_PC, RAX);
                        a.mov_mem32_imm(R15, OFF_BAIL_UOP, NO_BAIL as i32);
                        a.jmp_abs(epilogue);
                    }
                    _ => unreachable!("op without template passed `covers`"),
                }
                cyc += cost + abs_extra;
                n += un;
                fused += f;
            }
            // Fell off the end (straight-line block or not-taken final
            // branch): continue at the successor, chainable.
            emit_exit(&mut a, &mut sites, epilogue, fall_pc, cyc, n, fused);
            // Deferred taken-branch exits.
            for t in std::mem::take(&mut takens) {
                a.bind(t.label);
                emit_exit(&mut a, &mut sites, epilogue, t.target, t.cyc, t.n, t.fused);
            }
            // Deferred bail stubs: account the completed prefix, name
            // the resume micro-op and the bail reason, and leave
            // through the epilogue.
            for b in bails {
                a.bind(b.label);
                account(&mut a, b.cyc, b.n, b.fused);
                a.mov_mem32_imm(R15, OFF_BAIL_REASON, b.reason as i32);
                a.mov_mem32_imm(R15, OFF_EXIT_PC, pc as i32);
                a.mov_mem32_imm(R15, OFF_BAIL_UOP, b.k as i32);
                a.jmp_abs(epilogue);
            }
            // Deadline exit: a clean block-boundary stop at this pc —
            // the dispatcher polls and redispatches.
            a.bind(deadline_lbl);
            a.mov_mem32_imm(R15, OFF_EXIT_PC, pc as i32);
            a.mov_mem32_imm(R15, OFF_BAIL_UOP, NO_BAIL as i32);
            a.jmp_abs(epilogue);
            (a.finalize(), sites)
        }
    }

    const CC_BE: u8 = 0x6; // unsigned <=

    impl Asm {
        /// `mov r32, r32`.
        fn mov_rr32(&mut self, dst: u8, src: u8) {
            self.rex(false, src, dst);
            self.byte(0x89);
            self.modrm(3, src, dst);
        }

        /// 32-bit ALU `op r32, r32` via the `op r32, r/m32` opcodes of
        /// [`alu_r32_mem`](Asm::alu_r32_mem).
        fn alu_rr32(&mut self, opc: u8, dst: u8, src: u8) {
            self.rex(false, dst, src);
            self.byte(opc);
            self.modrm(3, dst, src);
        }

        /// `movsxd r64, r32`.
        fn movsxd_rr(&mut self, dst: u8, src: u8) {
            self.rex(true, dst, src);
            self.byte(0x63);
            self.modrm(3, dst, src);
        }
    }

    /// Byte displacement of guest register `r` in the GPR file (rbx),
    /// and of `keep[r]` in the mask table (rbp).
    fn g(r: u8) -> i8 {
        (r as i8) * 4
    }

    /// Byte displacement of `one[r]` from rbp: the `one` half of the
    /// mask table sits 128 bytes below `keep`.
    fn one_disp(r: u8) -> i8 {
        (i16::from(g(r)) - 128) as i8
    }

    /// Whether `r` is in the `armed` register set.
    fn is_armed(armed: u32, r: u8) -> bool {
        armed >> r & 1 != 0
    }

    /// Loads guest register `r` into `dst` the way the hart reads it:
    /// `(raw | one[r]) & keep[r]` when `r` is armed (`Cpu::gpr`), raw
    /// otherwise.
    fn load_gpr(a: &mut Asm, armed: u32, dst: u8, r: u8) {
        a.mov_r32_mem(dst, RBX, g(r));
        if is_armed(armed, r) {
            a.alu_r32_mem(0x0b, dst, RBP, one_disp(r));
            a.alu_r32_mem(0x23, dst, RBP, g(r));
        }
    }

    /// [`load_gpr`] sign-extended to 64 bits.
    fn load_gpr_sx(a: &mut Asm, armed: u32, dst: u8, r: u8) {
        if is_armed(armed, r) {
            load_gpr(a, armed, dst, r);
            a.movsxd_rr(dst, dst);
        } else {
            a.movsxd_mem(dst, RBX, g(r));
        }
    }

    /// 32-bit ALU `op dst, <guest register r>` (opcodes as for
    /// [`Asm::alu_r32_mem`]): a GPR-file memory operand, or, when `r`
    /// is armed, `r` loaded through the masks into rcx first, so `dst`
    /// must not be rcx.
    fn alu_gpr(a: &mut Asm, armed: u32, opc: u8, dst: u8, r: u8) {
        if is_armed(armed, r) {
            debug_assert_ne!(dst, RCX);
            load_gpr(a, armed, RCX, r);
            a.alu_rr32(opc, dst, RCX);
        } else {
            a.alu_r32_mem(opc, dst, RBX, g(r));
        }
    }

    struct TakenStub {
        label: Label,
        target: u32,
        cyc: u64,
        n: u64,
        fused: u64,
    }

    struct BailStub {
        label: Label,
        k: u32,
        cyc: u64,
        n: u64,
        fused: u64,
        /// The `BAIL_*` code the stub publishes, so the dispatcher can
        /// count bailouts by cause.
        reason: u32,
    }

    fn bail_label(
        a: &mut Asm,
        bails: &mut Vec<BailStub>,
        k: u32,
        cyc: u64,
        n: u64,
        fused: u64,
        reason: u32,
    ) -> Label {
        let label = a.label();
        bails.push(BailStub {
            label,
            k,
            cyc,
            n,
            fused,
            reason,
        });
        label
    }

    fn taken_label(
        a: &mut Asm,
        takens: &mut Vec<TakenStub>,
        target: u32,
        cyc: u64,
        n: u64,
        fused: u64,
    ) -> Label {
        let label = a.label();
        takens.push(TakenStub {
            label,
            target,
            cyc,
            n,
            fused,
        });
        label
    }

    /// Applies a path's accounting constants to the run's register
    /// accumulators: cycles (r12), budget (r14), fused ops (r11).
    fn account(a: &mut Asm, cyc: u64, n: u64, fused: u64) {
        if cyc != 0 {
            a.add_r64_imm(R12, cyc as i32);
        }
        if n != 0 {
            a.sub_r64_imm(R14, n as i32);
        }
        if fused != 0 {
            a.add_r64_imm(R11, fused as i32);
        }
    }

    /// A static exit to `target`: apply the path-constant accounting,
    /// then jump through a patchable chain site that initially falls
    /// to an exit stub (set `exit_pc`, leave) and later gets patched
    /// to the target block's entry.
    fn emit_exit(
        a: &mut Asm,
        sites: &mut Vec<(usize, u32)>,
        epilogue: usize,
        target: u32,
        cyc: u64,
        n: u64,
        fused: u64,
    ) {
        account(a, cyc, n, fused);
        let resolve = a.label();
        let site = a.jmp_chain(resolve);
        sites.push((site, target));
        a.bind(resolve);
        a.mov_mem32_imm(R15, OFF_EXIT_PC, target as i32);
        a.mov_mem32_imm(R15, OFF_BAIL_UOP, NO_BAIL as i32);
        a.jmp_abs(epilogue);
    }

    fn load_kind(op: Op) -> (u8, bool) {
        match op {
            Op::Lb | Op::AbsLb => (1, true),
            Op::Lh | Op::AbsLh => (2, true),
            Op::Lbu | Op::AbsLbu => (1, false),
            Op::Lhu | Op::AbsLhu => (2, false),
            _ => (4, false),
        }
    }

    fn store_size(op: Op) -> u8 {
        match op {
            Op::Sb | Op::AbsSb => 1,
            Op::Sh | Op::AbsSh => 2,
            _ => 4,
        }
    }

    /// Whether every dynamic behavior of this micro-op is either
    /// covered by its template or guarded by a bail.
    fn covers(u: &MicroOp, ram_base: u32, ram_len: u32) -> bool {
        let abs_ok = |size: u32| {
            let addr = u.imm as u32;
            let off = addr.wrapping_sub(ram_base);
            addr.is_multiple_of(size) && off as u64 + size as u64 <= ram_len as u64
        };
        match u.op {
            Op::Nop
            | Op::LoadConst
            | Op::Addi
            | Op::Slti
            | Op::Sltiu
            | Op::Xori
            | Op::Ori
            | Op::Andi
            | Op::Slli
            | Op::Srli
            | Op::Srai
            | Op::Add
            | Op::Sub
            | Op::Sll
            | Op::Slt
            | Op::Sltu
            | Op::Xor
            | Op::Srl
            | Op::Sra
            | Op::Or
            | Op::And
            | Op::Mul
            | Op::Mulh
            | Op::Mulhsu
            | Op::Mulhu
            | Op::ShiftPair
            | Op::Lb
            | Op::Lh
            | Op::Lw
            | Op::Lbu
            | Op::Lhu
            | Op::Sb
            | Op::Sh
            | Op::Sw
            | Op::Beq
            | Op::Bne
            | Op::Blt
            | Op::Bge
            | Op::Bltu
            | Op::Bgeu
            | Op::SltBrz
            | Op::SltBrnz
            | Op::SltuBrz
            | Op::SltuBrnz
            | Op::SltiBrz
            | Op::SltiBrnz
            | Op::SltiuBrz
            | Op::SltiuBrnz
            | Op::AddBeq
            | Op::AddBne
            | Op::Jal
            | Op::Jalr => true,
            Op::AbsLb | Op::AbsLbu | Op::AbsSb => abs_ok(1),
            Op::AbsLh | Op::AbsLhu | Op::AbsSh => abs_ok(2),
            Op::AbsLw | Op::AbsSw => abs_ok(4),
            // Div/Rem (variable-latency host idioms), Xbmi bit
            // manipulation and Generic have no templates.
            _ => false,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn assembler_encodes_known_forms() {
            let mut a = Asm::new(0);
            a.mov_rr64(R15, RDI);
            a.mov_r64_mem(RBX, R15, 0);
            a.mov_mem32_imm(RBX, 8, 0x1234);
            a.ram_dyn(RCX, 4, false, false);
            assert_eq!(
                a.finalize(),
                vec![
                    0x49, 0x89, 0xff, // mov r15, rdi
                    0x49, 0x8b, 0x5f, 0x00, // mov rbx, [r15+0]
                    0xc7, 0x43, 0x08, 0x34, 0x12, 0x00, 0x00, // mov dword [rbx+8], 0x1234
                    0x41, 0x8b, 0x4c, 0x05, 0x00, // mov ecx, [r13+rax]
                ]
            );
            // The dirty-mark forms and the register-resident run state.
            let mut a = Asm::new(0);
            a.bts_rr64(RDX, RCX);
            a.bts_rr64(R10, R9);
            a.bit_mem64_imm(4, RDX, 8, 5);
            a.bit_mem64_imm(5, RDX, 0x200, 63);
            a.alu_mem64_r64(0x85, RSI, RDX);
            a.alu_mem64_r64(0x09, RSI, RDX);
            a.cmp_rr64(R12, R9);
            a.mov_r64_mem(R9, R15, OFF_DEADLINE);
            a.alu_rr32(0x33, R12, R12);
            a.add_r64_imm(R12, 5);
            a.add_r64_imm(R11, 1000);
            a.sub_r64_imm(R14, 2);
            a.add_r64_imm(R10, 1);
            a.cmp_r64_imm(R14, 300);
            a.test_rr64(R14, R14);
            a.mov_mem_r64(RSI, EVENT_CYCLES, R12);
            a.mov_mem_r64(R15, OFF_CYC, R12);
            a.add_mem64_imm(R15, OFF_EVENTS, EVENT_SIZE);
            assert_eq!(
                a.finalize(),
                vec![
                    0x48, 0x0f, 0xab, 0xca, // bts rdx, rcx
                    0x4d, 0x0f, 0xab, 0xca, // bts r10, r9
                    0x48, 0x0f, 0xba, 0x62, 0x08, 0x05, // bt qword [rdx+8], 5
                    0x48, 0x0f, 0xba, 0xaa, 0x00, 0x02, 0x00, 0x00,
                    0x3f, // bts qword [rdx+0x200], 63
                    0x48, 0x85, 0x16, // test [rsi], rdx
                    0x48, 0x09, 0x16, // or [rsi], rdx
                    0x4d, 0x3b, 0xe1, // cmp r12, r9
                    0x4d, 0x8b, 0x4f, 0x28, // mov r9, [r15+40]
                    0x45, 0x33, 0xe4, // xor r12d, r12d
                    0x49, 0x83, 0xc4, 0x05, // add r12, 5
                    0x49, 0x81, 0xc3, 0xe8, 0x03, 0x00, 0x00, // add r11, 1000
                    0x49, 0x83, 0xee, 0x02, // sub r14, 2
                    0x49, 0x83, 0xc2, 0x01, // add r10, 1
                    0x49, 0x81, 0xfe, 0x2c, 0x01, 0x00, 0x00, // cmp r14, 300
                    0x4d, 0x85, 0xf6, // test r14, r14
                    0x4c, 0x89, 0x66, 0x10, // mov [rsi+16], r12
                    0x4d, 0x89, 0x67, 0x20, // mov [r15+32], r12
                    0x49, 0x83, 0x47, 0x60, 0x18, // add qword [r15+96], 24
                ]
            );
        }

        #[test]
        fn masked_operand_reads_encode() {
            let armed = 1 << 10 | 1 << 31 | 1;
            let mut a = Asm::new(0);
            load_gpr(&mut a, armed, RAX, 10);
            alu_gpr(&mut a, armed, 0x3b, RAX, 31);
            load_gpr_sx(&mut a, armed, RCX, 0);
            assert_eq!(
                a.finalize(),
                vec![
                    0x8b, 0x43, 0x28, // mov eax, [rbx+40]
                    0x0b, 0x45, 0xa8, // or eax, [rbp-88]   (one[10])
                    0x23, 0x45, 0x28, // and eax, [rbp+40]  (keep[10])
                    0x8b, 0x4b, 0x7c, // mov ecx, [rbx+124]
                    0x0b, 0x4d, 0xfc, // or ecx, [rbp-4]    (one[31])
                    0x23, 0x4d, 0x7c, // and ecx, [rbp+124] (keep[31])
                    0x3b, 0xc1, // cmp eax, ecx
                    0x8b, 0x4b, 0x00, // mov ecx, [rbx+0]
                    0x0b, 0x4d, 0x80, // or ecx, [rbp-128]  (one[0])
                    0x23, 0x4d, 0x00, // and ecx, [rbp+0]   (keep[0])
                    0x48, 0x63, 0xc9, // movsxd rcx, ecx
                ]
            );
            // Unarmed registers read the register file directly, in the
            // plain engine and beside armed registers alike.
            for armed in [0, 1 << 11 | 1 << 30] {
                let mut a = Asm::new(0);
                load_gpr(&mut a, armed, RAX, 10);
                alu_gpr(&mut a, armed, 0x3b, RAX, 31);
                load_gpr_sx(&mut a, armed, RCX, 0);
                assert_eq!(
                    a.finalize(),
                    vec![
                        0x8b, 0x43, 0x28, // mov eax, [rbx+40]
                        0x3b, 0x43, 0x7c, // cmp eax, [rbx+124]
                        0x48, 0x63, 0x4b, 0x00, // movsxd rcx, [rbx+0]
                    ]
                );
            }
        }

        #[test]
        #[ignore = "scratch perf probe; run with --ignored --nocapture"]
        fn compile_throughput_probe() {
            use crate::uop::MicroOp;
            use s4e_isa::Gpr;
            let mut e = JitEngine::new(0).unwrap();
            let x1 = Gpr::new(1).unwrap();
            let uop = |op: Op| {
                let mut u = MicroOp {
                    op,
                    rd: x1,
                    rs1: x1,
                    rs2: x1,
                    imm: 5,
                    imm2: 0,
                    idx: 0,
                    pc: 0x8000_0000,
                    next_pc: 0x8000_0004,
                    cost: 1,
                    cost2: 0,
                    n: 1,
                };
                if op == Op::Bne {
                    u.imm = 0x8000_1000u32 as i32;
                }
                u
            };
            let uops = vec![uop(Op::Addi), uop(Op::Xor), uop(Op::Addi), uop(Op::Bne)];
            let t0 = std::time::Instant::now();
            let rounds = 20_000u32;
            for r in 0..rounds {
                for b in 0..15u32 {
                    let pc = 0x8000_0000 + b * 0x40;
                    match e.compile(pc, &uops, pc + 0x10, 0x8000_0000, 0x100000, 1, false) {
                        Compiled::Entry(_) => {}
                        Compiled::Ineligible => panic!("round {r}: ineligible"),
                    }
                }
                e.reset();
            }
            let s = t0.elapsed().as_secs_f64();
            let n = rounds as f64 * 15.0;
            println!("{n} compiles in {s:.3}s = {:.0} ns/compile", s / n * 1e9);
        }

        /// Runs `entry` on plain-engine state: no masks, no plugin
        /// events, no translated code range.
        fn run_plain(
            e: &mut JitEngine,
            entry: usize,
            gprs: &mut [u32; 32],
            ram: &mut [u8],
            dirty: &mut [u64],
            remaining: u64,
        ) -> JitExit {
            assert!(entry == e.epilogue || e.blocks.values().any(|b| b.entry == entry));
            assert!((dirty.len() * 64) << PAGE_SHIFT >= ram.len());
            // SAFETY: `entry` is the shared epilogue (a valid, trivial
            // entry that publishes the untouched budget) or a block
            // this engine compiled against `ram`'s size (asserted
            // above, with a bitmap covering every page); the plain
            // engine reads no mask table, and every buffer is
            // exclusively borrowed for the call.
            unsafe {
                e.run(
                    entry,
                    gprs.as_mut_ptr(),
                    core::ptr::null(),
                    ram.as_mut_ptr(),
                    dirty.as_mut_ptr(),
                    remaining,
                    1000,
                    0,
                    0,
                    &mut [],
                )
            }
        }

        #[test]
        fn trampoline_round_trips_budget() {
            let mut e = JitEngine::new(0).unwrap();
            assert!(e.ensure_arena());
            let entry = e.epilogue;
            let x = run_plain(&mut e, entry, &mut [0; 32], &mut [0; 64], &mut [0; 1], 42);
            assert_eq!(x.remaining, 42);
            assert_eq!(x.retired, 0);
            assert_eq!(x.blocks, 0);
            assert_eq!((x.cycles, x.fused), (0, 0));
            assert_eq!(x.bail_uop, None);
        }

        /// A micro-op of `op` reading `x31`/`x30` and writing `x29`,
        /// with costs that need 32-bit immediates in the accounting
        /// and, outside the masked engine's unfused lowering, fused-op
        /// accounting at every exit.
        fn big_uop(op: Op, ram_base: u32, masked: bool) -> MicroOp {
            use s4e_isa::Gpr;
            let abs = matches!(
                op,
                Op::AbsLb
                    | Op::AbsLh
                    | Op::AbsLw
                    | Op::AbsLbu
                    | Op::AbsLhu
                    | Op::AbsSb
                    | Op::AbsSh
                    | Op::AbsSw
            );
            MicroOp {
                op,
                n: if masked { 1 } else { 2 },
                rd: Gpr::new(29).unwrap(),
                rs1: Gpr::new(31).unwrap(),
                rs2: Gpr::new(30).unwrap(),
                idx: 0,
                pc: ram_base,
                next_pc: ram_base + 4,
                imm: if abs {
                    (ram_base + 0x4_1000) as i32
                } else {
                    0x7ff
                },
                imm2: if op == Op::Jalr { 2 } else { 0x123 },
                cost: 1000,
                cost2: 1000,
            }
        }

        /// Every op with a template.
        const TEMPLATE_OPS: [Op; 60] = [
            Op::Nop,
            Op::LoadConst,
            Op::Addi,
            Op::Slti,
            Op::Sltiu,
            Op::Xori,
            Op::Ori,
            Op::Andi,
            Op::Slli,
            Op::Srli,
            Op::Srai,
            Op::Add,
            Op::Sub,
            Op::Sll,
            Op::Slt,
            Op::Sltu,
            Op::Xor,
            Op::Srl,
            Op::Sra,
            Op::Or,
            Op::And,
            Op::Mul,
            Op::Mulh,
            Op::Mulhsu,
            Op::Mulhu,
            Op::ShiftPair,
            Op::Lb,
            Op::Lh,
            Op::Lw,
            Op::Lbu,
            Op::Lhu,
            Op::Sb,
            Op::Sh,
            Op::Sw,
            Op::AbsLb,
            Op::AbsLh,
            Op::AbsLw,
            Op::AbsLbu,
            Op::AbsLhu,
            Op::AbsSb,
            Op::AbsSh,
            Op::AbsSw,
            Op::Beq,
            Op::Bne,
            Op::Blt,
            Op::Bge,
            Op::Bltu,
            Op::Bgeu,
            Op::SltBrz,
            Op::SltBrnz,
            Op::SltuBrz,
            Op::SltuBrnz,
            Op::SltiBrz,
            Op::SltiBrnz,
            Op::SltiuBrz,
            Op::SltiuBrnz,
            Op::AddBeq,
            Op::AddBne,
            Op::Jal,
            Op::Jalr,
        ];

        #[test]
        fn every_template_fits_its_arena_reservation() {
            let ram_base = 0x8000_0000;
            // The worst case: every write in the prologue, and in the
            // masked engine every register read through the masks.
            for armed in [0, !0] {
                let masked = armed != 0;
                let mut e = JitEngine::new(armed).unwrap();
                assert!(e.ensure_arena());
                let mut size = |uops: &[MicroOp]| {
                    let pc = ram_base + 0x100;
                    let before = e.cursor;
                    let compiled = e.compile(pc, uops, pc + 8, ram_base, 1 << 20, 1, true);
                    assert!(matches!(compiled, Compiled::Entry(_)), "{:?}", uops[0].op);
                    let bytes = e.cursor - before;
                    e.reset();
                    bytes
                };
                // A block of `k` copies takes `fixed + k * template`
                // bytes, within `BLOCK_RESERVE + k * per_uop` for every
                // `k` exactly when it holds for `k = 1` and the template
                // fits `per_uop`.
                for op in TEMPLATE_OPS {
                    let u = big_uop(op, ram_base, masked);
                    let one = size(&[u]);
                    let template = size(&[u, u]) - one;
                    assert!(
                        template <= per_uop(armed),
                        "{op:?}, masked {masked}: {template}-byte template"
                    );
                    assert!(
                        one <= BLOCK_RESERVE + per_uop(armed),
                        "{op:?}, masked {masked}: {one}-byte block"
                    );
                }
            }
        }

        #[test]
        fn native_stores_set_only_clear_dirty_bits() {
            use crate::uop::MicroOp;
            use s4e_isa::Gpr;
            let ram_base = 0x8000_0000u32;
            let x = |i| Gpr::new(i).unwrap();
            // sw x2, 4(x1), to page 1; then the fused `auipc x3` + `sw
            // x2` to page 65, whose bit sits in the second bitmap word.
            let abs_addr = ram_base + (65 << PAGE_SHIFT) + 8;
            let uops = [
                MicroOp {
                    op: Op::Sw,
                    n: 1,
                    rd: x(0),
                    rs1: x(1),
                    rs2: x(2),
                    idx: 0,
                    pc: ram_base,
                    next_pc: ram_base + 4,
                    imm: 4,
                    imm2: 0,
                    cost: 1,
                    cost2: 0,
                },
                MicroOp {
                    op: Op::AbsSw,
                    n: 2,
                    rd: x(0),
                    rs1: x(3),
                    rs2: x(2),
                    idx: 1,
                    pc: ram_base + 4,
                    next_pc: ram_base + 12,
                    imm: abs_addr as i32,
                    imm2: 0x1234,
                    cost: 1,
                    cost2: 2,
                },
            ];
            let mut ram = vec![0u8; 128 << PAGE_SHIFT];
            let mut e = JitEngine::new(0).unwrap();
            let Compiled::Entry(entry) = e.compile(
                ram_base,
                &uops,
                ram_base + 12,
                ram_base,
                ram.len() as u32,
                0,
                false,
            ) else {
                panic!("block compiles");
            };
            let mut gprs = [0u32; 32];
            gprs[1] = ram_base + (1 << PAGE_SHIFT);
            gprs[2] = 0xdead_beef;
            // Clean pages: each store sets exactly its own bit.
            let mut dirty = [0u64; 2];
            let x = run_plain(&mut e, entry, &mut gprs, &mut ram, &mut dirty, 100);
            assert_eq!(x.bail_uop, None);
            assert_eq!((x.exit_pc, x.retired, x.remaining), (ram_base + 12, 3, 97));
            assert_eq!((x.cycles, x.blocks, x.fused), (4, 1, 1));
            assert_eq!(dirty, [1 << 1, 1 << 1]);
            assert_eq!(gprs[3], 0x1234);
            let at = |off: u32| u32::from_le_bytes(ram[off as usize..][..4].try_into().unwrap());
            assert_eq!(at((1 << PAGE_SHIFT) + 4), 0xdead_beef);
            assert_eq!(at(abs_addr - ram_base), 0xdead_beef);
            // Already-dirty pages: every bitmap word is left as it was.
            for words in [
                [1 << 1, 1 << 1],
                [!0, !0],
                [0xf0f0_0000_0000_0002, 1 << 1 | 1 << 63],
            ] {
                let mut dirty = words;
                let x = run_plain(&mut e, entry, &mut gprs, &mut ram, &mut dirty, 100);
                assert_eq!(x.bail_uop, None);
                assert_eq!(dirty, words);
            }
        }

        #[test]
        fn retention_drops_dirty_pages_and_keeps_clean_ones() {
            use crate::uop::MicroOp;
            use s4e_isa::Gpr;
            let mut e = JitEngine::new(0).unwrap();
            let x1 = Gpr::new(1).unwrap();
            let uops = vec![MicroOp {
                op: Op::Addi,
                rd: x1,
                rs1: x1,
                rs2: x1,
                imm: 5,
                imm2: 0,
                idx: 0,
                pc: 0x8000_0000,
                next_pc: 0x8000_0004,
                cost: 1,
                cost2: 0,
                n: 1,
            }];
            let ram_base = 0x8000_0000;
            let ram = vec![0u8; 0x10000];
            // The page-0 block at +0x40 hashes its actual (zero) code
            // bytes, so a page-0 copy-back that leaves those bytes
            // intact must keep it; the stale-hash blocks must drop.
            let intact = crate::vp::fnv1a(&ram[0x40..0x44]);
            // Two blocks on page 0, one on page 1.
            for (pc, hash) in [
                (ram_base, 11),
                (ram_base + 0x40, intact),
                (ram_base + 0x1000, 13),
            ] {
                assert!(matches!(
                    e.compile(pc, &uops, pc + 4, ram_base, 0x10000, hash, false),
                    Compiled::Entry(_)
                ));
            }
            assert_eq!(e.retained(ram_base).map(|(_, h, _)| h), Some(11));
            // Restore copied page 0 only: the stale page-0 block drops,
            // the byte-identical page-0 block and the untouched page-1
            // block survive and report the surviving range.
            let restored = [1u64];
            let range = e.retain_across_restore(&restored, ram_base, &ram);
            assert_eq!(range, Some((ram_base + 0x40, ram_base + 0x1004)));
            assert!(e.retained(ram_base).is_none());
            assert_eq!(e.retained(ram_base + 0x40).map(|(_, h, _)| h), Some(intact));
            assert_eq!(e.retained(ram_base + 0x1000).map(|(_, h, _)| h), Some(13));
            // Dropping the survivors too leaves nothing retained.
            e.drop_retained(ram_base + 0x40);
            e.drop_retained(ram_base + 0x1000);
            assert!(e.retained(ram_base + 0x1000).is_none());
            let range = e.retain_across_restore(&[0u64], ram_base, &ram);
            assert_eq!(range, None);
        }

        #[test]
        fn invalidate_span_drops_only_overlapping_blocks() {
            use crate::uop::MicroOp;
            use s4e_isa::Gpr;
            let mut e = JitEngine::new(0).unwrap();
            let x1 = Gpr::new(1).unwrap();
            let uops = vec![MicroOp {
                op: Op::Addi,
                rd: x1,
                rs1: x1,
                rs2: x1,
                imm: 5,
                imm2: 0,
                idx: 0,
                pc: 0x8000_0000,
                next_pc: 0x8000_0004,
                cost: 1,
                cost2: 0,
                n: 1,
            }];
            let ram_base = 0x8000_0000;
            // Three adjacent 4-byte blocks on one page.
            for pc in [ram_base, ram_base + 4, ram_base + 8] {
                assert!(matches!(
                    e.compile(pc, &uops, pc + 4, ram_base, 0x10000, 7, false),
                    Compiled::Entry(_)
                ));
            }
            // A byte mutation inside the middle block drops exactly that
            // block; its neighbours stay warm and report their range.
            let range = e.invalidate_span(ram_base + 6, 1);
            assert_eq!(range, Some((ram_base, ram_base + 12)));
            assert!(e.retained(ram_base + 4).is_none());
            assert!(e.retained(ram_base).is_some());
            assert!(e.retained(ram_base + 8).is_some());
            // A mutation outside every block drops nothing.
            let range = e.invalidate_span(ram_base + 0x100, 1);
            assert_eq!(range, Some((ram_base, ram_base + 12)));
            // Mutating the survivors too resets the engine outright.
            assert_eq!(e.invalidate_span(ram_base, 12), None);
            assert!(e.retained(ram_base).is_none());
        }
    }
}
