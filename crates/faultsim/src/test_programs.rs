//! Golden-run programs on which the block-event analyses (`trace` and
//! `prune`) are checked against their per-instruction oracles.

use crate::{Campaign, CampaignConfig};
use s4e_asm::assemble;
use s4e_isa::IsaConfig;
use s4e_torture::{architectural_suite, torture_program, unit_suite, TortureConfig};

/// Loops, stores, and a memory-compared result buffer.
pub(crate) const WORK_PROGRAM: &str = r#"
    li t0, 60
    li a0, 0
    la t1, table
    loop: add a0, a0, t0
    sw a0, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, loop
    la t2, result
    sw a0, 0(t2)
    ebreak
    result: .word 0
    table: .space 256
"#;

/// A hot loop with loads but no store or CSR instruction: the shape
/// whose golden analyses run almost entirely native.
pub(crate) const LOOP_PROGRAM: &str = r#"
    li s0, 4000
    li a0, 1
    la s1, table
    loop: andi t0, s0, 12
    add t1, s1, t0
    lw t2, 0(t1)
    xor a0, a0, t2
    slli t3, a0, 5
    add a0, a0, t3
    srli t4, a0, 7
    xor a0, a0, t4
    addi s0, s0, -1
    bnez s0, loop
    la t5, result
    sw a0, 0(t5)
    ebreak
    table: .word 0x9e3779b9, 0x7f4a7c15, 0x85ebca6b, 0xc2b2ae35
    result: .word 0
"#;

/// Synchronous traps that do not retire, each skipped by the handler: a
/// misaligned load in a block without stores or CSRs (native until its
/// bail), then `ecall` and an access to a missing CSR.
pub(crate) const TRAP_PROGRAM: &str = r#"
    la t0, skip
    csrw mtvec, t0
    li s0, 200
    li a0, 0
    la a1, data
    li a2, 7
    loads: lw a2, 1(a1)
    add a0, a0, a2
    addi s0, s0, -1
    bnez s0, loads
    li s0, 20
    calls: ecall
    csrr a3, 0x7c0
    add a0, a0, a3
    addi s0, s0, -1
    bnez s0, calls
    la t1, result
    sw a0, 0(t1)
    ebreak
    skip: csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
    .align 2
    data: .word 1, 2
    result: .word 0
"#;

/// Jumps that trap on a misaligned target (RV32IM, no C), each skipped
/// by the handler. The VP writes the link register before the trap;
/// nothing reads it back, so only the final register compare sees the
/// write.
pub(crate) const JUMP_TRAP_PROGRAM: &str = r#"
    la t0, skip
    csrw mtvec, t0
    li s0, 30
    li a0, 0
    la t1, target
    addi t1, t1, 2
    jumps: jalr ra, 0(t1)
    addi a0, a0, 3
    jal s1, target + 2
    xor a0, a0, s0
    addi s0, s0, -1
    bnez s0, jumps
    la t3, result
    sw a0, 0(t3)
    ebreak
    target: nop
    nop
    skip: csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
    result: .word 0
"#;

/// Timer interrupts into an unsubscribed hot loop, a `wfi`, and a last
/// interrupt taken mid-block (a CLINT store and an `mstatus` write each
/// end their block early) whose handler ends the run, so the
/// instruction it interrupted never executes. The handler disarms `mie`
/// first: only the samples taken while it was set show it armed.
pub(crate) const TIMER_PROGRAM: &str = r#"
    .equ MTIMECMP, 0x02004000
    la t0, handler
    csrw mtvec, t0
    li s1, 0
    li s11, 0
    li t1, MTIMECMP
    sw zero, 4(t1)
    csrr t2, mcycle
    addi t2, t2, 300
    sw t2, 0(t1)
    li t3, 128
    csrw mie, t3
    csrsi mstatus, 8
    li s0, 3000
    li a0, 0
    work: addi a0, a0, 3
    xor a0, a0, s0
    slli a1, a0, 1
    add a0, a0, a1
    addi s0, s0, -1
    bnez s0, work
    wfi
    csrci mstatus, 8
    li s11, 1
    li t1, MTIMECMP
    sw zero, 0(t1)
    csrsi mstatus, 8
    addi a0, a0, 1
    ebreak
    handler: bnez s11, done
    addi s1, s1, 1
    csrr t4, mcycle
    addi t4, t4, 300
    li t5, MTIMECMP
    sw t4, 0(t5)
    mret
    done: csrw mie, zero
    la t6, result
    sw a0, 0(t6)
    sw s1, 4(t6)
    ebreak
    result: .word 0, 0
"#;

/// Self-modifying code: a called routine patched halfway through the
/// loop to use other registers, a block that loads its own first instruction word, then a store
/// that turns a later instruction of its own block into an illegal word
/// before an `mie` write leaves that block, so the stale translation's
/// next instruction is fetched anew and faults.
pub(crate) const SMC_PROGRAM: &str = r#"
    la t0, skip
    csrw mtvec, t0
    li s0, 50
    li a0, 0
    la t1, patch
    lw t1, 0(t1)
    la t2, target
    loop: jal ra, target
    addi s0, s0, -1
    li t3, 25
    bne s0, t3, next
    sw t1, 0(t2)
    fence.i
    next: bnez s0, loop
    auipc t3, 0
    lw t3, 0(t3)
    add a0, a0, t3
    la t4, later
    li t5, -1
    sw t5, 0(t4)
    csrw mie, zero
    later: addi a0, a0, 5
    ebreak
    target: addi a0, a0, 1
    ret
    skip: csrr t6, mepc
    addi t6, t6, 4
    csrw mepc, t6
    mret
    .align 2
    patch: addi a1, a1, 2
"#;

/// UART output: every device store leaves its block mid-way. A
/// software-interrupt enable is armed only between two CSR writes, so
/// only a sample taken inside a CSR block sees it.
pub(crate) const UART_PROGRAM: &str = r#"
    .equ UART, 0x10000000
    li t1, 8
    csrw mie, t1
    csrw mie, zero
    la s0, msg
    li s1, UART
    loop: lbu t0, 0(s0)
    beqz t0, done
    sb t0, 0(s1)
    addi s0, s0, 1
    j loop
    done: ebreak
    msg: .asciz "hello, scale4edge\n"
"#;

/// Every identity program as `(name, source, isa)`: the programs above,
/// looping and memory-heavy torture programs over 100 seeds, and the
/// architectural and unit suites.
pub(crate) fn programs() -> Vec<(String, String, IsaConfig)> {
    let rv32imc = IsaConfig::rv32imc();
    let mut out: Vec<(String, String, IsaConfig)> = [
        ("work", WORK_PROGRAM),
        ("loop", LOOP_PROGRAM),
        ("trap", TRAP_PROGRAM),
        ("timer", TIMER_PROGRAM),
        ("smc", SMC_PROGRAM),
        ("uart", UART_PROGRAM),
    ]
    .into_iter()
    .map(|(name, source)| (name.to_string(), source.to_string(), rv32imc))
    .collect();
    out.push((
        "jump_trap".to_string(),
        JUMP_TRAP_PROGRAM.to_string(),
        IsaConfig::rv32im(),
    ));
    let isa = IsaConfig::rv32imfc();
    for seed in 0..100 {
        let cfg = TortureConfig::new(seed)
            .insns(60)
            .isa(isa)
            .with_loops(true)
            .mem_heavy(seed % 2 == 1);
        let program = torture_program(&cfg);
        out.push((program.name, program.source, isa));
    }
    let full = IsaConfig::full();
    for program in architectural_suite(&full)
        .into_iter()
        .chain(unit_suite(&full))
    {
        out.push((program.name, program.source, full));
    }
    out
}

/// `source` prepared on the template JIT (the default configuration)
/// and on the micro-op engine.
pub(crate) fn campaigns(source: &str, isa: IsaConfig) -> [Campaign; 2] {
    let img = assemble(source).expect("assembles");
    [true, false].map(|jit| {
        let config = CampaignConfig::new().isa(isa).jit(jit);
        Campaign::prepare(img.base(), img.bytes(), img.entry(), &config).expect("prepares")
    })
}

/// `source` loaded on the uncached interpreter, which translates at
/// every dispatch, ready to run from its entry.
pub(crate) fn interpreter_vp(source: &str, isa: IsaConfig) -> s4e_vp::Vp {
    let img = assemble(source).expect("assembles");
    let mut vp = s4e_vp::Vp::builder()
        .isa(isa)
        .ram(img.base() & !0xfff, CampaignConfig::new().ram_size)
        .timing(s4e_vp::TimingModel::flat())
        .block_cache(false)
        .build();
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    vp
}
