//! Template-JIT teardown edges: the places where native code must hand
//! control back to the interpreter without leaking any architectural
//! difference — self-modifying stores invalidating compiled code
//! mid-chain, snapshot restore retaining the arena (and dropping
//! exactly the entries whose code pages the restore rewrote), interrupt
//! delivery while a hot loop runs natively, and an instruction budget
//! expiring inside a compiled block — plus the masked engine that runs
//! while stuck-at register masks are armed, and the run bookkeeping
//! native code keeps off memory (dirty pages, cycles, fused ops). Every
//! test is a differential against the identical program with the JIT
//! pinned off.

use s4e_asm::assemble;
use s4e_isa::{Gpr, IsaConfig};
use s4e_torture::{torture_program, TortureConfig};
use s4e_vp::{RunOutcome, Vp, VpBuilder};

/// Threshold 1: every block is compiled on its first execution, so the
/// edge under test is guaranteed to involve native code.
fn jit_vp() -> Vp {
    Vp::builder()
        .isa(IsaConfig::rv32imc())
        .jit_threshold(1)
        .build()
}

fn nojit_vp() -> Vp {
    Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build()
}

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

/// The full architectural fingerprint: pc, counters and every register
/// ride along in `Cpu`'s Debug output.
fn cpu_state(vp: &Vp) -> String {
    format!("{:?}", vp.cpu())
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

/// A hot self-chaining loop whose body is patched by a store into the
/// code range, from code that is itself compiled (no `fence.i`: the
/// VP's SMC detection on the store is the edge under test, and a
/// `fence.i` would make the patcher block JIT-ineligible). The store
/// must bail out of native execution *before* writing, the deferred
/// invalidation must drop the arena, and the patched loop must be
/// re-promoted and produce the patched semantics.
const SELF_PATCHING: &str = r#"
    li t0, 200
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
    li t0, 200
    jal x0, loop
done:
    ebreak
secret:
    .word 0x00550513    # addi a0, a0, 5
"#;

#[test]
fn smc_invalidation_mid_chain_is_exact() {
    let mut jit = jit_vp();
    load_src(&mut jit, SELF_PATCHING);
    assert_eq!(jit.run(), RunOutcome::Break);
    // First pass +1 per iteration, patched pass +5.
    assert_eq!(gpr(&jit, 10), 200 + 5 * 200);

    let mut nojit = nojit_vp();
    load_src(&mut nojit, SELF_PATCHING);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), cpu_state(&nojit));

    let stats = jit.dispatch_stats();
    assert!(
        stats.jit_exec > 200,
        "loop must have run natively: {stats:?}"
    );
    assert!(
        stats.jit_bailouts >= 1,
        "the code-range store must bail, not write natively: {stats:?}"
    );
    assert!(stats.invalidations >= 1, "{stats:?}");
    // The loop block was compiled once per code version: the arena was
    // really discarded and the patched loop re-promoted.
    assert!(stats.jit_blocks >= 2, "{stats:?}");
}

/// A plain hot loop for the restore and budget edges.
const HOT_LOOP: &str = r#"
    li t0, 500
    li a0, 0
loop:
    addi a0, a0, 3
    xor a1, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ebreak
"#;

#[test]
fn snapshot_restore_retains_native_code() {
    let mut jit = jit_vp();
    load_src(&mut jit, HOT_LOOP);
    let snap = jit.snapshot();
    assert_eq!(jit.run(), RunOutcome::Break);
    let first = cpu_state(&jit);
    let stats = jit.take_dispatch_stats();
    assert!(stats.jit_blocks > 0 && stats.jit_exec > 400, "{stats:?}");

    // Restore drops the block cache but *retains* the arena: the loop
    // never wrote its own code pages, so the second run re-adopts the
    // compiled blocks (after hash revalidation) instead of recompiling,
    // and still agrees exactly.
    jit.restore(&snap);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), first);
    let stats = jit.take_dispatch_stats();
    assert_eq!(
        stats.jit_blocks, 0,
        "post-restore run must re-adopt retained code, not recompile: {stats:?}"
    );
    assert!(
        stats.jit_retained > 0 && stats.jit_bail_reval_miss == 0,
        "every adoption must have passed its code-bytes hash check: {stats:?}"
    );
    assert!(stats.jit_exec > 400, "retained code must run: {stats:?}");

    let mut nojit = nojit_vp();
    load_src(&mut nojit, HOT_LOOP);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&nojit), first);
}

#[test]
fn restore_drops_native_code_on_rewritten_pages() {
    // Run the self-patching program to completion: the loop's code page
    // now differs from the snapshot image. Restoring must copy that
    // page back and drop the (patched) native loop — re-running from
    // the snapshot recompiles the *original* code and produces the full
    // self-patching result again, not a stale-arena artifact.
    let mut jit = jit_vp();
    load_src(&mut jit, SELF_PATCHING);
    let snap = jit.snapshot();
    assert_eq!(jit.run(), RunOutcome::Break);
    let first = cpu_state(&jit);
    jit.take_dispatch_stats();

    jit.restore(&snap);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), first);
    assert_eq!(gpr(&jit, 10), 200 + 5 * 200);
    let stats = jit.take_dispatch_stats();
    assert!(
        stats.jit_blocks >= 2,
        "rewritten code pages must recompile, not reuse stale code: {stats:?}"
    );
}

/// A timer interrupt armed to fire while the spin loop is executing
/// natively: the JIT's deadline stops native chains at exactly the
/// block boundary where the interpreter would poll `mip`, so iteration
/// count, cycle count and the interrupt's architectural timing are
/// identical with and without the JIT.
const TIMED_SPIN: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li t1, CLINT + 0x4000
    csrr t2, mcycle
    addi t2, t2, 2000
    sw zero, 4(t1)      # mtimecmp hi = 0 first (reset value is MAX)
    sw t2, 0(t1)        # mtimecmp lo
    li t3, 128
    csrw mie, t3
    csrsi mstatus, 8
    li a0, 0
    li a1, 0
spin:
    addi a1, a1, 1
    beqz a0, spin
    ebreak
handler:
    li a0, 1
    csrr a2, mcause
    li t4, CLINT + 0x4000
    li t5, -1
    sw t5, 4(t4)
    mret
"#;

#[test]
fn interrupt_delivery_during_native_loop_is_exact() {
    let mut jit = jit_vp();
    load_src(&mut jit, TIMED_SPIN);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(gpr(&jit, 10), 1, "handler must have run");
    assert_eq!(gpr(&jit, 12), 0x8000_0007, "machine timer interrupt");
    assert!(gpr(&jit, 11) > 100, "the spin loop must actually spin");
    let stats = jit.dispatch_stats();
    assert!(
        stats.jit_exec > 100,
        "the spin loop must run natively: {stats:?}"
    );

    let mut nojit = nojit_vp();
    load_src(&mut nojit, TIMED_SPIN);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), cpu_state(&nojit));
}

#[test]
fn insn_budget_expiry_inside_native_block_is_exact() {
    // Budgets ending at every offset through the first few hundred
    // instructions land both at native block boundaries and in the
    // middle of compiled blocks (the loop body is four instructions):
    // the JIT must stop at the exact instruction either way.
    for budget in [1u64, 7, 50, 101, 102, 103, 104, 333] {
        let mut jit = jit_vp();
        load_src(&mut jit, HOT_LOOP);
        let jit_outcome = jit.run_for(budget);

        let mut nojit = nojit_vp();
        load_src(&mut nojit, HOT_LOOP);
        let nojit_outcome = nojit.run_for(budget);

        assert_eq!(jit_outcome, nojit_outcome, "budget {budget}");
        assert_eq!(jit.cpu().instret(), budget, "budget {budget}");
        assert_eq!(cpu_state(&jit), cpu_state(&nojit), "budget {budget}");

        // Resuming both to completion stays in lockstep.
        assert_eq!(jit.run(), RunOutcome::Break, "budget {budget}");
        assert_eq!(nojit.run(), RunOutcome::Break, "budget {budget}");
        assert_eq!(cpu_state(&jit), cpu_state(&nojit), "budget {budget}");
    }
}

#[test]
fn jit_is_a_pure_performance_feature_on_stats() {
    // With the JIT off (or on a non-x86-64 host, where the builder flag
    // is a no-op), no jit counters may move.
    let mut nojit = nojit_vp();
    load_src(&mut nojit, HOT_LOOP);
    assert_eq!(nojit.run(), RunOutcome::Break);
    let stats = nojit.dispatch_stats();
    assert_eq!(stats.jit_blocks, 0, "{stats:?}");
    assert_eq!(stats.jit_exec, 0, "{stats:?}");
    assert_eq!(stats.jit_bailouts, 0, "{stats:?}");
}

// ------------------------------------------------------ stuck-at masks
//
// Armed stuck-at register masks run on the masked engine: every GPR
// operand is read through the mask table, from the unfused lowering.
// Each test is a three-way differential: the uncached interpreter
// (the oracle), the micro-op engine and the JIT at threshold 1.

fn oracle_vp() -> Vp {
    Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build()
}

/// Loads `src` on each of the three tiers, plants the stuck-at
/// `faults` and runs each for `budget` instructions. Asserts identical
/// outcome and architectural state (masks included) and returns the
/// JIT VP for further checks.
fn masked_differential(src: &str, faults: &[(u8, u8, bool)], budget: u64) -> (RunOutcome, Vp) {
    let mut results = Vec::new();
    for mut vp in [oracle_vp(), nojit_vp(), jit_vp()] {
        load_src(&mut vp, src);
        for &(reg, bit, value) in faults {
            vp.cpu_mut()
                .plant_gpr_fault(Gpr::new(reg).unwrap(), bit, value);
        }
        let outcome = vp.run_for(budget);
        results.push((outcome, vp));
    }
    let (jit_outcome, jit) = results.pop().expect("three tiers");
    for (outcome, vp) in &results {
        assert_eq!(*outcome, jit_outcome);
        assert_eq!(cpu_state(vp), cpu_state(&jit));
        assert_eq!(
            vp.bus().dump(0x8000_0000, 4096).unwrap(),
            jit.bus().dump(0x8000_0000, 4096).unwrap()
        );
    }
    (jit_outcome, jit)
}

/// The counted loop a stuck counter bit never lets terminate: the
/// fused lowering would compute `addi` + `bnez` through the unmasked
/// intermediate, so this only matches when the masked engine compiles
/// the unfused lowering.
const COUNTED_LOOP: &str = r#"
    li s3, 100
    li a0, 0
loop:
    addi a0, a0, 2
    addi s3, s3, -1
    bnez s3, loop
    ebreak
"#;

#[test]
fn stuck_loop_counter_times_out_natively() {
    // s3 bit 0 stuck at 1: the counter always reads odd, never zero.
    let (outcome, jit) = masked_differential(COUNTED_LOOP, &[(19, 0, true)], 50_000);
    assert_eq!(outcome, RunOutcome::InsnLimit);
    assert_eq!(jit.cpu().instret(), 50_000);
    let stats = jit.dispatch_stats();
    assert!(
        stats.jit_exec > 1000,
        "the stuck loop must run natively: {stats:?}"
    );
    // Without the fault the same program terminates.
    let (outcome, _) = masked_differential(COUNTED_LOOP, &[], 50_000);
    assert_eq!(outcome, RunOutcome::Break);
}

#[test]
fn x0_stuck_at_one_reads_through_the_mask() {
    // x0 bit 4 stuck at 1: `li` (addi from x0) and `bnez` (bne against
    // x0) both see 16, so t0 starts at 66 and the loop stops after 50
    // iterations, when t0 reaches 16.
    const SRC: &str = r#"
        li t0, 50
        li a0, 0
    loop:
        addi a1, zero, 3
        add a0, a0, a1
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let (outcome, jit) = masked_differential(SRC, &[(0, 4, true)], 100_000);
    assert_eq!(outcome, RunOutcome::Break);
    assert_eq!(gpr(&jit, 0), 16);
    assert_eq!(gpr(&jit, 11), 3 | 16);
    assert_eq!(gpr(&jit, 5), 16);
    assert_eq!(gpr(&jit, 10), 16 + 50 * 19);
    let stats = jit.dispatch_stats();
    assert!(stats.jit_exec > 10, "{stats:?}");
}

#[test]
fn masked_block_bails_mid_block_on_mmio_store() {
    // The UART store sits between masked ALU ops: the masked block
    // bails at the store (instruction 1) and the interpreter resumes
    // at exactly that instruction.
    const SRC: &str = r#"
        .equ UART, 0x10000000
        li t0, 40
        li t1, UART
        li a0, 0
    loop:
        addi a0, a0, 1
        sb a0, 0(t1)
        addi a1, a0, 7
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let (outcome, jit) = masked_differential(SRC, &[(10, 5, true), (11, 1, false)], 100_000);
    assert_eq!(outcome, RunOutcome::Break);
    let stats = jit.dispatch_stats();
    assert!(stats.jit_exec > 10, "{stats:?}");
    assert!(
        stats.jit_bail_mem > 0,
        "the MMIO store must bail from masked code: {stats:?}"
    );
}

#[test]
fn masked_blocks_survive_restore() {
    let mut jit = jit_vp();
    load_src(&mut jit, HOT_LOOP);
    let snap = jit.snapshot();
    // t0 bit 9 stuck at 0: the 500-iteration counter skips a range.
    jit.cpu_mut()
        .plant_gpr_fault(Gpr::new(5).unwrap(), 9, false);
    assert_eq!(jit.run(), RunOutcome::Break);
    let first = cpu_state(&jit);
    let stats = jit.take_dispatch_stats();
    assert!(stats.jit_blocks > 0 && stats.jit_exec > 100, "{stats:?}");

    // The snapshot predates the fault: restore clears the masks, so the
    // fault is planted again, and the masked blocks compiled above are
    // re-adopted after hash revalidation instead of recompiled.
    jit.restore(&snap);
    assert!(!jit.cpu().faults_enabled());
    jit.cpu_mut()
        .plant_gpr_fault(Gpr::new(5).unwrap(), 9, false);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), first);
    let stats = jit.take_dispatch_stats();
    assert_eq!(stats.jit_blocks, 0, "{stats:?}");
    assert!(
        stats.jit_retained > 0 && stats.jit_bail_reval_miss == 0,
        "{stats:?}"
    );
    assert!(stats.jit_exec > 100, "{stats:?}");

    let mut oracle = oracle_vp();
    load_src(&mut oracle, HOT_LOOP);
    oracle
        .cpu_mut()
        .plant_gpr_fault(Gpr::new(5).unwrap(), 9, false);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&oracle), first);

    // A mask on another register re-arms the masked engine: the blocks
    // compiled for t0 read a1 raw, so the run compiles again.
    jit.restore(&snap);
    jit.cpu_mut()
        .plant_gpr_fault(Gpr::new(11).unwrap(), 3, true);
    assert_eq!(jit.run(), RunOutcome::Break);
    let stats = jit.take_dispatch_stats();
    assert!(stats.jit_blocks > 0 && stats.jit_exec > 100, "{stats:?}");
    let mut oracle = oracle_vp();
    load_src(&mut oracle, HOT_LOOP);
    oracle
        .cpu_mut()
        .plant_gpr_fault(Gpr::new(11).unwrap(), 3, true);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), cpu_state(&oracle));
}

#[test]
fn replanting_on_another_register_rearms_the_masked_engine() {
    // The first stretch of the hot loop runs with a1 bit 0 stuck at 1
    // (a1 is written, never read), natively on the masked engine. Then,
    // with no restore in between, the faults are cleared and, unless
    // `replant` is off, a0 bit 1 is stuck at 1 instead: `addi a0, a0,
    // 3` reads a0, so code that still read a0 raw would sum otherwise.
    let run = |mut vp: Vp, replant: bool| {
        load_src(&mut vp, HOT_LOOP);
        vp.cpu_mut().plant_gpr_fault(Gpr::new(11).unwrap(), 0, true);
        assert_eq!(vp.run_for(201), RunOutcome::InsnLimit);
        let first = vp.take_dispatch_stats();
        vp.cpu_mut().clear_faults();
        if replant {
            vp.cpu_mut().plant_gpr_fault(Gpr::new(10).unwrap(), 1, true);
        }
        assert_eq!(vp.run(), RunOutcome::Break);
        (
            cpu_state(&vp),
            gpr(&vp, 10),
            first,
            vp.take_dispatch_stats(),
        )
    };
    let (state, a0, first, second) = run(jit_vp(), true);
    assert_eq!(state, run(oracle_vp(), true).0);
    assert_eq!(state, run(nojit_vp(), true).0);
    assert!(first.jit_exec > 20, "{first:?}");
    assert!(second.jit_blocks > 0 && second.jit_exec > 20, "{second:?}");
    assert_ne!(a0, run(nojit_vp(), false).1, "the a0 mask changes the sum");
}

// ------------------------------------------------- run bookkeeping
//
// Native stores test-then-set their page's dirty bit, and native code
// keeps the run's cycle, block and fused-op counts in host registers
// until it returns. Neither may differ from the micro-op engine.

/// What a run leaves in the VP's bookkeeping: outcome, dirty pages,
/// cycles and fused ops executed, plus the native block executions
/// behind them (which must be zero with the JIT off).
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    outcome: RunOutcome,
    dirty: Vec<usize>,
    cycles: u64,
    fused_exec: u64,
}

fn footprint(vp: &mut Vp, budget: u64) -> (Footprint, u64) {
    let outcome = vp.run_for(budget);
    let stats = vp.take_dispatch_stats();
    let footprint = Footprint {
        outcome,
        dirty: vp.bus().dirty_pages().collect(),
        cycles: vp.cpu().cycles(),
        fused_exec: stats.fused_exec,
    };
    (footprint, stats.jit_exec)
}

/// Runs `src` on `builder` with the JIT on and off, unmasked and with a
/// stuck-at mask on `tp` (which the programs never use) armed: each
/// from the load, and again from a snapshot taken at the load and
/// restored after a first run (on the retained native code). Asserts
/// that both tiers leave the same footprint and that the JIT ran
/// natively each time.
fn assert_same_bookkeeping(builder: impl Fn() -> VpBuilder, src: &str, budget: u64) {
    let img = assemble(src).expect("assembles");
    for masked in [false, true] {
        let runs = [true, false].map(|jit| {
            let boot = || {
                let mut vp = builder().jit(jit).build();
                vp.load(img.base(), img.bytes()).expect("loads");
                vp.cpu_mut().set_pc(img.entry());
                vp
            };
            let arm = |vp: &mut Vp| {
                if masked {
                    vp.cpu_mut().plant_gpr_fault(Gpr::TP, 3, true);
                }
            };
            let mut vp = boot();
            arm(&mut vp);
            let loaded = footprint(&mut vp, budget);
            let mut vp = boot();
            let snapshot = vp.snapshot();
            arm(&mut vp);
            let first = footprint(&mut vp, budget);
            vp.restore(&snapshot);
            arm(&mut vp);
            let restored = footprint(&mut vp, budget);
            [loaded, first, restored]
        });
        let [native, interpreted] = runs;
        for (phase, (native, interpreted)) in ["loaded", "first", "restored"]
            .iter()
            .zip(native.into_iter().zip(interpreted))
        {
            assert_eq!(native.0, interpreted.0, "{phase}, masked {masked}");
            assert!(
                native.1 > 0,
                "{phase}, masked {masked}: nothing ran natively"
            );
            assert_eq!(interpreted.1, 0, "{phase}, masked {masked}");
        }
    }
}

/// Generated programs keep their scratch buffer on their code's page,
/// which interpreted stores (in blocks with CSR instructions) dirty as
/// well, so these pin the counts; the far-page program and the `vp-run`
/// kernels (`s4e-bench`'s `jit_kernels`) have pages that native stores
/// touch first.
#[test]
fn mem_heavy_torture_keeps_the_interpreters_bookkeeping() {
    let isa = IsaConfig::rv32imc();
    for seed in 0..24 {
        let cfg = TortureConfig::new(seed)
            .insns(120)
            .isa(isa)
            .with_loops(true)
            .mem_heavy(true);
        let program = torture_program(&cfg);
        // Threshold 1: the generated loops are too short to get hot at
        // the default threshold.
        let builder = || Vp::builder().isa(isa).jit_threshold(1);
        assert_same_bookkeeping(builder, &program.source, 1_000_000);
    }
}

/// `auipc`-fused absolute stores and plain stores to pages 64 and up,
/// whose dirty bits sit past the bitmap's first word. The fused store
/// to page 1104 of an 8 MiB RAM tests bitmap word 17, whose byte offset
/// (136) no longer fits the bit-test operand's byte displacement.
const FAR_STORES: &str = r#"
    li s0, 100
    li a1, 0
    li s1, 0x80452000
loop:
    addi a1, a1, 7
1:  auipc t0, %hi(0x40000)
    sw a1, %lo(0x40000)(t0)
2:  auipc t1, %hi(0x41008)
    sh a1, %lo(0x41008)(t1)
3:  auipc t2, %hi(0x7f00c)
    sb a1, %lo(0x7f00c)(t2)
4:  auipc t3, %hi(0x450010)
    sw a1, %lo(0x450010)(t3)
    sw a1, 0(s1)
    sw a1, -0x7fc(s1)
    addi s0, s0, -1
    bnez s0, loop
    ebreak
"#;

#[test]
fn far_page_stores_keep_the_interpreters_bookkeeping() {
    let builder = || {
        Vp::builder()
            .isa(IsaConfig::rv32imc())
            .ram(0x8000_0000, 8 << 20)
    };
    assert_same_bookkeeping(builder, FAR_STORES, 100_000);
    // At threshold 1 the loop's first stores, the ones that find their
    // pages clean, run natively too.
    assert_same_bookkeeping(|| builder().jit_threshold(1), FAR_STORES, 100_000);
    // The stores marked their own pages, in bitmap words 1 and 17, and
    // ran natively through the fused-store template.
    let img = assemble(FAR_STORES).expect("assembles");
    let mut vp = builder().build();
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    // A snapshot clears the dirty pages the load left.
    vp.snapshot();
    assert_eq!(vp.run_for(100_000), RunOutcome::Break);
    let dirty: Vec<usize> = vp.bus().dirty_pages().collect();
    assert_eq!(dirty, [64, 65, 127, 1104, 1105, 1106]);
    let stats = vp.dispatch_stats();
    assert!(stats.fused_exec >= 400 && stats.jit_exec > 50, "{stats:?}");
}
