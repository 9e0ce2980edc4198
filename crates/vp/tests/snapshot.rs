//! Snapshot/restore round-trip tests: bit-exact state capture, O(dirty)
//! page accounting, cross-VP restores, device state, and the interaction
//! with translated-code caches (self-modifying code).

use s4e_asm::assemble;
use s4e_isa::{Gpr, Insn, IsaConfig};
use s4e_vp::dev::{uart_reg, Clint, Uart, UART_BASE};
use s4e_vp::{Cpu, Plugin, RunOutcome, Vp, VpSnapshot, PAGE_SIZE};

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

/// All architectural CPU state, via the `Debug` rendering (covers GPRs,
/// FPRs, CSRs, pc, cycle/instret counters and fault masks in one shot).
fn cpu_state(cpu: &Cpu) -> String {
    format!("{cpu:?}")
}

const SUM_LOOP: &str = r#"
    li t0, 200
    li a0, 0
    la t1, buf
loop:
    add a0, a0, t0
    sw a0, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, loop
    ebreak
buf:
    .word 0
"#;

/// [`SUM_LOOP`] with its back-edge through `jalr`: an indirect exit
/// installs no chain link, so each iteration probes the jump cache.
const SUM_LOOP_INDIRECT: &str = r#"
    li t0, 200
    li a0, 0
    la t1, buf
    la t2, loop
loop:
    add a0, a0, t0
    sw a0, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    beqz t0, done
    jalr x0, 0(t2)
done:
    ebreak
buf:
    .word 0
"#;

#[test]
fn restore_resumes_bit_exact_on_same_vp() {
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, SUM_LOOP);

    // Straight run for reference.
    let mut reference = Vp::new(IsaConfig::rv32imc());
    load_src(&mut reference, SUM_LOOP);
    assert_eq!(reference.run(), RunOutcome::Break);

    // Run 150 instructions, snapshot, finish, then rewind and finish again.
    assert_eq!(vp.run_for(150), RunOutcome::InsnLimit);
    let snap = vp.snapshot();
    assert_eq!(vp.run(), RunOutcome::Break);
    let end_state = cpu_state(vp.cpu());
    let end_buf = vp.bus().dump(0x8000_0000, 4096).unwrap().to_vec();

    vp.restore(&snap);
    assert_eq!(cpu_state(vp.cpu()), cpu_state(snap.cpu()));
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(cpu_state(vp.cpu()), end_state);
    assert_eq!(vp.bus().dump(0x8000_0000, 4096).unwrap(), &end_buf[..]);
    assert_eq!(cpu_state(vp.cpu()), cpu_state(reference.cpu()));
}

#[test]
fn restore_onto_fresh_vp_matches_straight_run() {
    let mut golden = Vp::new(IsaConfig::rv32imc());
    load_src(&mut golden, SUM_LOOP);
    assert_eq!(golden.run_for(100), RunOutcome::InsnLimit);
    let snap = golden.snapshot();
    assert_eq!(golden.run(), RunOutcome::Break);

    // A different VP, never loaded, picks up from the snapshot.
    let mut worker = Vp::new(IsaConfig::rv32imc());
    worker.restore(&snap);
    assert_eq!(worker.cpu().instret(), 100);
    assert_eq!(worker.run(), RunOutcome::Break);
    assert_eq!(cpu_state(worker.cpu()), cpu_state(golden.cpu()));
    assert_eq!(
        worker.bus().dump(0x8000_0000, 4096).unwrap(),
        golden.bus().dump(0x8000_0000, 4096).unwrap()
    );
}

#[test]
fn snapshot_and_restore_cost_is_dirty_pages_not_ram() {
    let mut vp = Vp::new(IsaConfig::rv32imc()); // 4 MiB RAM = 1024 pages
    load_src(&mut vp, SUM_LOOP);
    let s1 = vp.snapshot();
    let flushed_initial = vp.dispatch_stats().pages_flushed;
    // The tiny image + written buffer touch a handful of pages, not 1024.
    assert!((1..8).contains(&flushed_initial), "{flushed_initial}");

    // Nothing ran since the snapshot: restoring it copies zero pages.
    vp.restore(&s1);
    assert_eq!(vp.dispatch_stats().pages_restored, 0);

    // Run to completion (writes one buffer page), snapshot again: only the
    // pages written since s1 are flushed.
    assert_eq!(vp.run(), RunOutcome::Break);
    let before = vp.dispatch_stats().pages_flushed;
    let _s2 = vp.snapshot();
    let delta = vp.dispatch_stats().pages_flushed - before;
    assert!((1..8).contains(&delta), "{delta}");

    // Rewinding to s1 copies only the pages that diverged from it.
    vp.restore(&s1);
    let restored = vp.dispatch_stats().pages_restored;
    assert!((1..8).contains(&restored), "{restored}");
}

#[test]
fn cross_vp_restore_shares_untouched_zero_pages() {
    let mut golden = Vp::new(IsaConfig::rv32imc());
    load_src(&mut golden, SUM_LOOP);
    let snap = golden.snapshot();

    // The fresh worker's RAM is all zeros, which matches every untouched
    // page of the snapshot by construction (shared zero page): the first
    // cross-VP restore copies only the image pages, not all 1024.
    let mut worker = Vp::new(IsaConfig::rv32imc());
    worker.restore(&snap);
    let restored = worker.dispatch_stats().pages_restored;
    assert!((1..8).contains(&restored), "{restored}");
    assert_eq!(worker.run(), RunOutcome::Break);
    assert_eq!(gpr(&worker, 10), (1..=200).sum::<u32>());
}

#[test]
fn restore_captures_device_state() {
    let src = r#"
        .equ UART, 0x10000000
        li t0, UART
        li t1, 'A'
        sb t1, 0(t0)        # tx 'A'
        ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    vp.bus_mut().device_mut::<Uart>().unwrap().push_input(b"xy");
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.bus().device::<Uart>().unwrap().output(), b"A");
    let snap = vp.snapshot();

    // Mutate device state past the snapshot...
    {
        let bus = vp.bus_mut();
        let uart = bus.device_mut::<Uart>().unwrap();
        uart.take_output();
        uart.push_input(b"zzz");
    }
    // ...and onto the CLINT too.
    vp.bus_mut().write32(0x0200_4000, 1234, 0).unwrap();
    assert_eq!(vp.bus().device::<Clint>().unwrap().mtimecmp() as u32, 1234);

    vp.restore(&snap);
    let uart_out = vp.bus().device::<Uart>().unwrap().output().to_vec();
    assert_eq!(uart_out, b"A");
    assert_eq!(vp.bus().device::<Clint>().unwrap().mtimecmp(), u64::MAX);
    // The queued-but-unread input at snapshot time comes back.
    let mut probe = Vp::new(IsaConfig::rv32imc());
    probe.restore(&snap);
    let got = probe
        .bus_mut()
        .read32(UART_BASE + uart_reg::RXDATA, 0)
        .unwrap();
    assert_eq!(got, b'x' as u32);
}

#[test]
fn restore_drops_stale_translated_code() {
    // The snapshot is taken while `patch:` still holds the original
    // instruction. After restoring, the VP must re-decode from RAM — if
    // the block cache or jump cache survived the restore, it would replay
    // the *patched* code it translated after the snapshot.
    let src = r#"
        la t0, patch
        la t2, secret
        lw t1, 0(t2)        # the replacement instruction word
        la t3, flag
        lw t4, 0(t3)
        beqz t4, run        # flag clear: leave the code alone
        sw t1, 0(t0)
        fence.i
run:
patch:
        addi a0, zero, 1    # will be patched to addi a0, zero, 7
        ebreak
flag:
        .word 0
secret:
        .word 0x00700513    # addi a0, zero, 7
    "#;
    let flag_addr = assemble(src).unwrap().symbol("flag").expect("symbol");
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    let snap = vp.snapshot();

    // First run: unpatched path sets 1.
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 1);

    // Rewind, raise the patch flag, and run: the patched block lands in
    // the translation and jump caches.
    vp.restore(&snap);
    vp.bus_mut().write32(flag_addr, 1, 0).unwrap();
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 7, "patched path sets 7");

    // Restore to the unpatched snapshot: cached patched blocks must not
    // survive, and the straight path must set 1 again.
    vp.restore(&snap);
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 1, "restore must invalidate translated code");
}

#[test]
fn self_modifying_store_invalidates_after_restore_too() {
    // Same program, but the patch happens *after* a restore, exercising
    // the deferred-invalidation path on a VP whose caches were cleared by
    // restore and repopulated since.
    let src = r#"
        la t0, patch
        la t2, secret
        lw t1, 0(t2)
        sw t1, 0(t0)
        fence.i
patch:
        addi a0, zero, 1
        ebreak
secret:
        .word 0x00700513    # addi a0, zero, 7
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    let snap = vp.snapshot();
    for _ in 0..3 {
        assert_eq!(vp.run(), RunOutcome::Break);
        assert_eq!(gpr(&vp, 10), 7);
        vp.restore(&snap);
    }
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 7);
}

/// Counts retired instructions through the plugin hook API.
#[derive(Debug, Default)]
struct RetireCounter {
    retired: u64,
}

impl Plugin for RetireCounter {
    fn on_insn_executed(&mut self, _cpu: &Cpu, _pc: u32, _insn: &Insn) {
        self.retired += 1;
    }
}

#[test]
fn plugin_visible_retirement_counts_add_up() {
    // Straight run with a counting plugin.
    let mut straight = Vp::new(IsaConfig::rv32imc());
    load_src(&mut straight, SUM_LOOP);
    straight.add_plugin(Box::new(RetireCounter::default()));
    assert_eq!(straight.run(), RunOutcome::Break);
    let total = straight.plugin::<RetireCounter>().unwrap().retired;
    assert_eq!(total, straight.cpu().instret());

    // Split run: golden executes the prefix, a worker with a plugin
    // restores the snapshot and observes exactly the suffix.
    let mut golden = Vp::new(IsaConfig::rv32imc());
    load_src(&mut golden, SUM_LOOP);
    assert_eq!(golden.run_for(150), RunOutcome::InsnLimit);
    let snap = golden.snapshot();

    let mut worker = Vp::new(IsaConfig::rv32imc());
    worker.add_plugin(Box::new(RetireCounter::default()));
    worker.restore(&snap);
    assert_eq!(worker.run(), RunOutcome::Break);
    let suffix = worker.plugin::<RetireCounter>().unwrap().retired;
    assert_eq!(150 + suffix, total);
    // And the architectural retirement counter agrees with the straight run.
    assert_eq!(worker.cpu().instret(), straight.cpu().instret());
}

#[test]
fn snapshot_geometry_mismatch_panics() {
    let mut small = Vp::builder()
        .isa(IsaConfig::rv32i())
        .ram(0x8000_0000, 16 * PAGE_SIZE)
        .build();
    let snap = small.snapshot();
    let mut big = Vp::new(IsaConfig::rv32i());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| big.restore(&snap)));
    assert!(err.is_err());
}

#[test]
fn snapshot_accessors() {
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, SUM_LOOP);
    assert_eq!(vp.run_for(10), RunOutcome::InsnLimit);
    let snap: VpSnapshot = vp.snapshot();
    assert_eq!(snap.instret(), 10);
    assert_eq!(snap.cycles(), vp.cpu().cycles());
    assert_eq!(snap.pc(), vp.cpu().pc());
    assert_eq!(snap.ram_geometry(), (0x8000_0000, 4 << 20));
    // Snapshots are cheap to clone and shareable across threads.
    let cloned = snap.clone();
    let handle = std::thread::spawn(move || {
        let mut worker = Vp::new(IsaConfig::rv32imc());
        worker.restore(&cloned);
        assert_eq!(worker.run(), RunOutcome::Break);
        worker.cpu().instret()
    });
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(handle.join().unwrap(), vp.cpu().instret());
}

#[test]
fn load_resets_code_range_no_spurious_invalidation() {
    // Program 1 occupies some code range; program 2 (loaded after) treats
    // that range as plain data. Stores into it must not trigger
    // invalidation churn: `load` resets `code_lo`/`code_hi` along with the
    // caches.
    let prog1 = r#"
        li t0, 1
        li t0, 2
        li t0, 3
        ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, prog1);
    assert_eq!(vp.run(), RunOutcome::Break);

    // Program 2 lives higher up and hammers program 1's old code range.
    let prog2 = r#"
        .org 0x80001000
        .entry start
start:
        li t0, 0x80000000   # program 1's old code
        li t1, 200
store_loop:
        sw t1, 0(t0)
        addi t1, t1, -1
        bnez t1, store_loop
        ebreak
    "#;
    load_src(&mut vp, prog2);
    let before = vp.dispatch_stats().invalidations;
    assert_eq!(vp.run(), RunOutcome::Break);
    let during_run = vp.dispatch_stats().invalidations - before;
    assert_eq!(
        during_run, 0,
        "stores into the previous image's code range caused {during_run} spurious invalidations"
    );
}

#[test]
fn jump_cache_hits_dominate_hot_loops() {
    // JIT pinned off: this asserts the *interpreter's* chain/jump-cache
    // counters, and the default promotion threshold is low enough that
    // the hot loop would otherwise go native after a few iterations.
    let mut vp = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut vp, SUM_LOOP);
    assert_eq!(vp.run(), RunOutcome::Break);
    let stats = vp.dispatch_stats();
    // With direct block chaining the hot loop body dispatches via chain
    // links; together with the jump cache, `HashMap` fallbacks must be
    // a rounding error.
    let fast = stats.chain_hits + stats.jmp_cache_hits;
    let total = fast + stats.jmp_cache_misses;
    assert!(
        fast as f64 / total as f64 > 0.9,
        "hot loop should dispatch via chain links or the jump cache: {stats:?}"
    );
    assert!(
        stats.chain_hit_rate() > 0.5,
        "hot loop should be dominated by chained dispatches: {stats:?}"
    );

    // The same loop closed by an indirect back-edge: every iteration
    // dispatches the loop head through the jump cache, and must hit it.
    let mut jc = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut jc, SUM_LOOP_INDIRECT);
    assert_eq!(jc.run(), RunOutcome::Break);
    assert_eq!(gpr(&jc, 10), gpr(&vp, 10));
    let jc_stats = jc.dispatch_stats();
    assert!(
        jc_stats.jmp_cache_hits >= 199 && jc_stats.jmp_cache_hit_rate() > 0.9,
        "hot loop should hit the jump cache: {jc_stats:?}"
    );

    // The uncached interpreter oracle agrees on both loops, without
    // touching the jump cache.
    for (src, fast) in [(SUM_LOOP, &vp), (SUM_LOOP_INDIRECT, &jc)] {
        let mut oracle = Vp::builder()
            .isa(IsaConfig::rv32imc())
            .block_cache(false)
            .build();
        load_src(&mut oracle, src);
        assert_eq!(oracle.run(), RunOutcome::Break);
        assert_eq!(cpu_state(oracle.cpu()), cpu_state(fast.cpu()));
        let stats = oracle.dispatch_stats();
        assert_eq!(stats.jmp_cache_hits + stats.jmp_cache_misses, 0);
    }
}
