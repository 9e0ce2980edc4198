//! Dispatch-engine tests: direct-mapped jump-cache slot aliasing, direct
//! block chaining, link severing on invalidation (self-modifying code
//! and snapshot restore), and interrupt timing across the three tiers.

use s4e_asm::assemble;
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::dev::Uart;
use s4e_vp::{Cpu, RunOutcome, Vp};

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

fn cpu_state(cpu: &Cpu) -> String {
    format!("{cpu:?}")
}

/// Two hot blocks exactly 4096 bytes apart: the 2048-slot direct-mapped
/// jump cache indexes with `(pc >> 1) & 2047`, so `loop` (base + 0x20)
/// and `far` (base + 0x1020) collide in the same slot. Each iteration
/// ping-pongs between them through `jalr`: an indirect exit installs no
/// chain link, so every dispatch of either block probes the jump cache.
const ALIASED_PINGPONG: &str = r#"
    li t0, 300
    li a0, 0
    la s0, loop
    la s1, far
    la s2, back
loop:
    addi a0, a0, 1
    jalr x0, 0(s1)
back:
    addi t0, t0, -1
    beqz t0, done
    jalr x0, 0(s0)
done:
    ebreak
    .org 0x80001020
far:
    addi a0, a0, 2
    jalr x0, 0(s2)
"#;

#[test]
fn aliased_jump_cache_slots_stay_correct() {
    let img = assemble(ALIASED_PINGPONG).expect("assembles");
    let (near, far) = (img.symbol("loop").unwrap(), img.symbol("far").unwrap());
    assert_eq!(far - near, 4096, "the two blocks must share a slot");

    // Micro-op engine (JIT pinned off so the *interpreter's* dispatch is
    // what's measured): `loop` and `far` evict each other from the
    // shared slot every iteration, so misses accumulate well past the
    // translation count — correctness must not depend on slot residency.
    let mut uops = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut uops, ALIASED_PINGPONG);
    assert_eq!(uops.run(), RunOutcome::Break);
    assert_eq!(gpr(&uops, 10), 300 * 3);
    let stats = uops.dispatch_stats();
    assert!(
        stats.jmp_cache_misses > 2 * 300,
        "aliasing blocks must keep missing the shared slot: {stats:?}"
    );

    // The uncached interpreter oracle agrees.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    load_src(&mut oracle, ALIASED_PINGPONG);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(uops.cpu()));

    // JIT tier: hot blocks go native and re-enter the dispatcher at
    // every `jalr`, again with identical architectural state (cycles
    // and instret included).
    let mut jit = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .jit_threshold(1)
        .build();
    load_src(&mut jit, ALIASED_PINGPONG);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(jit.cpu()), cpu_state(oracle.cpu()));
    let stats = jit.dispatch_stats();
    assert!(stats.jit_blocks > 0, "{stats:?}");
    assert!(stats.jit_exec > 500, "{stats:?}");
}

/// A self-chained hot loop whose body is patched (store + `fence.i`)
/// after the first pass. The second pass must execute the patched
/// instruction: the loop block's self-link was severed on invalidation,
/// forcing a retranslation instead of a stale chained dispatch.
const PATCHED_LOOP: &str = r#"
    li t0, 100
    li a0, 0
    li s0, 0
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    bnez s0, done
    li s0, 1
    la t1, loop
    la t2, secret
    lw t3, 0(t2)
    sw t3, 0(t1)
    fence.i
    li t0, 100
    jal x0, loop
done:
    ebreak
secret:
    .word 0x00550513    # addi a0, a0, 5
"#;

#[test]
fn chained_successors_are_severed_on_smc_invalidation() {
    // JIT pinned off: this test asserts the *interpreter's* chain
    // counters around invalidation (the JIT/SMC edge is covered by
    // tests/jit.rs), and the default promotion threshold is low enough
    // that the hot loop would otherwise go native and stop chaining.
    let mut vp = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut vp, PATCHED_LOOP);
    assert_eq!(vp.run(), RunOutcome::Break);
    // First pass adds 1 per iteration, second (patched) pass adds 5.
    assert_eq!(gpr(&vp, 10), 100 + 5 * 100);
    let stats = vp.dispatch_stats();
    assert!(stats.chain_links > 0, "{stats:?}");
    assert!(stats.chain_hits > 100, "{stats:?}");

    // The uncached interpreter oracle agrees.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    load_src(&mut oracle, PATCHED_LOOP);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(vp.cpu()));
}

#[test]
fn chained_successors_are_severed_on_snapshot_restore() {
    // The snapshot is taken while `patch:` holds the original insn; the
    // flag decides whether the program patches itself before running the
    // hot loop. Alternating runs from the same snapshot force the VP to
    // drop chained blocks on every restore — a stale link would replay
    // the other variant's code.
    let src = r#"
        la t0, patch
        la t2, secret
        lw t1, 0(t2)
        la t3, flag
        lw t4, 0(t3)
        beqz t4, run
        sw t1, 0(t0)
        fence.i
run:
        li t5, 50
        li a0, 0
loop:
patch:
        addi a0, a0, 1      # patched variant: addi a0, a0, 5
        addi t5, t5, -1
        bnez t5, loop
        ebreak
flag:
        .word 0
secret:
        .word 0x00550513    # addi a0, a0, 5
    "#;
    let flag_addr = assemble(src).unwrap().symbol("flag").expect("symbol");
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    let snap = vp.snapshot();

    for round in 0..3 {
        // Unpatched pass: the loop block chains to itself, +1 each turn.
        assert_eq!(vp.run(), RunOutcome::Break);
        assert_eq!(gpr(&vp, 10), 50, "round {round}");
        assert!(vp.dispatch_stats().chain_hits > 0);

        // Restore and flip the flag: the patched loop must add 5.
        vp.restore(&snap);
        vp.bus_mut().write32(flag_addr, 1, 0).unwrap();
        assert_eq!(vp.run(), RunOutcome::Break);
        assert_eq!(gpr(&vp, 10), 250, "round {round}");

        vp.restore(&snap);
    }
}

#[test]
fn fusion_counters_flow_for_fusable_idioms() {
    // `li a0, 0x12345678` expands to lui+addi — the ConstLui pattern —
    // and the loop makes the fused op execute many times.
    let src = r#"
        li t0, 64
loop:
        li a0, 0x12345678
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32i());
    load_src(&mut vp, src);
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 0x12345678);
    let stats = vp.dispatch_stats();
    assert!(stats.fused_lowered > 0, "{stats:?}");
    assert!(stats.fused_exec >= 64, "{stats:?}");

    // Identical architectural state on the uncached interpreter oracle.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32i())
        .block_cache(false)
        .build();
    load_src(&mut oracle, src);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(vp.cpu()));
}

/// A periodic machine timer: the handler re-arms `mtimecmp` 97 cycles
/// ahead on every tick while the main loop works. `a5` sums the `mepc`
/// of every interrupt, so a tick taken one block early or late shows.
const PERIODIC_TIMER: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li s0, CLINT + 0x4000   # mtimecmp
    li s1, CLINT + 0xbff8   # mtime
    lw t1, 0(s1)
    addi t1, t1, 97
    sw zero, 4(s0)
    sw t1, 0(s0)
    li t3, 128              # MTIE
    csrw mie, t3
    csrsi mstatus, 8
    li a0, 0
work:
    addi a1, a1, 1
    xor a2, a2, a1
    li t4, 12
    bne a0, t4, work
    ebreak
handler:
    addi a0, a0, 1
    csrr a3, mcause
    csrr a4, mepc
    add a5, a5, a4
    lw t1, 0(s1)
    addi t1, t1, 97
    sw t1, 0(s0)
    mret
"#;

/// Software interrupts raised from inside a loop: every fourth
/// iteration sets `msip`, and the handler clears it.
const SOFTWARE_IRQ: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li t1, 8                # MSIE
    csrw mie, t1
    csrsi mstatus, 8
    li s0, CLINT
    li t0, 40
    li a0, 0
loop:
    addi a1, a1, 3
    andi t2, t0, 3
    bnez t2, skip
    li t3, 1
    sw t3, 0(s0)            # msip = 1
    addi a1, a1, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    ebreak
handler:
    addi a0, a0, 1
    csrr a4, mepc
    add a5, a5, a4
    sw zero, 0(s0)          # msip = 0
    mret
"#;

/// UART receive interrupts: every eighth iteration enables the rx
/// interrupt, a queued byte interrupts at once, and the handler drains
/// and echoes one byte, then disables the interrupt again.
const UART_RX_IRQ: &str = r#"
    .equ UART, 0x10000000
    la t0, handler
    csrw mtvec, t0
    li s0, UART
    li t3, 0x800            # MEIE
    csrw mie, t3
    csrsi mstatus, 8
    li t0, 60
    li a0, 0
loop:
    addi a1, a1, 7
    andi t2, t0, 7
    bnez t2, skip
    li t3, 1
    sw t3, 12(s0)           # IER: rx interrupt on
    addi a1, a1, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    ebreak
handler:
    lw t6, 4(s0)            # rxdata
    sw t6, 0(s0)            # echo
    sw zero, 12(s0)         # IER: rx interrupt off
    addi a0, a0, 1
    csrr a4, mepc
    add a5, a5, a4
    mret
"#;

#[test]
fn interrupt_timing_is_identical_across_tiers() {
    // The cached tiers poll `mip` only when a device can have changed
    // it (and the JIT runs native up to that deadline); the uncached
    // interpreter polls at every block boundary. Each interrupt must
    // still land at the same instruction, cycle and instret.
    for (name, src, irqs) in [
        ("periodic timer", PERIODIC_TIMER, 12),
        ("software", SOFTWARE_IRQ, 10),
        ("uart rx", UART_RX_IRQ, 7),
    ] {
        // Input is queued for every program; only `UART_RX_IRQ` enables
        // the receive interrupt that consumes it.
        let run = |vp: &mut Vp| {
            load_src(vp, src);
            vp.bus_mut()
                .device_mut::<Uart>()
                .unwrap()
                .push_input(b"abcdefg");
            assert_eq!(vp.run_for(100_000), RunOutcome::Break, "{name}");
            (
                cpu_state(vp.cpu()),
                vp.bus().device::<Uart>().unwrap().output().to_vec(),
            )
        };
        let builder = || Vp::builder().isa(IsaConfig::rv32imc());
        let mut oracle = builder().block_cache(false).build();
        let expected = run(&mut oracle);
        assert_eq!(gpr(&oracle, 10), irqs, "{name}: interrupts taken");
        for mut vp in [
            builder().jit(false).build(),
            builder().jit_threshold(1).build(),
        ] {
            assert_eq!(run(&mut vp), expected, "{name}");
        }
    }
}

/// A trap vector holding an undecodable word: the first fetch fault
/// traps to `h`, whose `.word 0` (the all-zero compressed encoding is
/// illegal) faults at fetch again, forever. No instruction ever retires.
const FETCH_FAULT_LOOP: &str = r#"
    la t0, h
    csrw mtvec, t0
    .word 0xffffffff
    ebreak
h:
    .word 0
"#;

#[test]
fn fetch_fault_loop_ends_at_the_budget_on_every_tier() {
    // Each fetch or decode fault is charged one unit of the budget, like
    // an instruction that traps while executing: the loop ends at the
    // limit instead of spinning.
    let builder = || Vp::builder().isa(IsaConfig::rv32imc());
    let mut states = Vec::new();
    for mut vp in [
        builder().build(),
        builder().jit(false).build(),
        builder().block_cache(false).build(),
    ] {
        load_src(&mut vp, FETCH_FAULT_LOOP);
        assert_eq!(vp.run_for(1000), RunOutcome::InsnLimit);
        // `la` and `csrw` retired; the other 997 units went to faults.
        assert_eq!(vp.cpu().instret(), 3);
        // Resuming charges the new budget the same way.
        assert_eq!(vp.run_for(10), RunOutcome::InsnLimit);
        assert_eq!(vp.run_for(0), RunOutcome::InsnLimit);
        states.push(cpu_state(vp.cpu()));
    }
    assert!(states.windows(2).all(|w| w[0] == w[1]), "{states:#?}");
}

/// `jal` and `jalr` to a target that is not 4-aligned (no C extension):
/// each raises instruction-address-misaligned to a handler that skips
/// the jump. The VP writes the link register before the trap.
const MISALIGNED_JUMPS: &str = r#"
    la t0, skip
    csrw mtvec, t0
    la t1, target
    addi t1, t1, 2
    li ra, 0
    li s1, 0
    li s2, 0
    jalr ra, 0(t1)
after_jalr:
    mv a0, ra
    jal s1, target + 2
after_jal:
    mv a1, s1
    la a2, after_jalr
    la a3, after_jal
    ebreak
target:
    nop
    nop
skip:
    addi s2, s2, 1
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
"#;

#[test]
fn misaligned_jump_trap_writes_the_link_register_on_every_tier() {
    let builder = || Vp::builder().isa(IsaConfig::rv32im());
    let mut states = Vec::new();
    for mut vp in [
        builder().build(),
        builder().jit_threshold(1).build(),
        builder().jit(false).build(),
        builder().block_cache(false).build(),
    ] {
        load_src(&mut vp, MISALIGNED_JUMPS);
        assert_eq!(vp.run_for(10_000), RunOutcome::Break);
        // Both jumps trapped and were skipped, and each wrote the
        // address of the instruction after it.
        assert_eq!(gpr(&vp, 18), 2, "traps taken");
        assert_eq!(gpr(&vp, 10), gpr(&vp, 12), "jalr wrote ra");
        assert_eq!(gpr(&vp, 11), gpr(&vp, 13), "jal wrote s1");
        states.push(cpu_state(vp.cpu()));
    }
    assert!(states.windows(2).all(|w| w[0] == w[1]), "{states:#?}");
}
