//! VP integration tests for the hot-block profiler plugin.

use s4e_asm::assemble;
use s4e_isa::{InsnClass, IsaConfig};
use s4e_obs::{names, ProfilePlugin};
use s4e_vp::{RunOutcome, Vp};

fn run_profiled(src: &str) -> (Vp, RunOutcome) {
    let mut vp = Vp::new(IsaConfig::full());
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    vp.add_plugin(Box::new(ProfilePlugin::new()));
    let outcome = vp.run();
    (vp, outcome)
}

fn profile(vp: &Vp) -> &ProfilePlugin {
    vp.plugin::<ProfilePlugin>().expect("profiler attached")
}

#[test]
fn hot_block_total_matches_retired_instructions() {
    let (vp, outcome) = run_profiled(
        r#"
        li t0, 10
        li a0, 0
        loop:
        add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        ebreak
        "#,
    );
    assert_eq!(outcome, RunOutcome::Break);
    let p = profile(&vp);
    // The acceptance equality: block-attributed instruction counts sum to
    // the VP's retired-instruction count (the run is trap-free).
    let rows = p.hot_blocks();
    let total: u64 = rows.iter().map(|r| r.insns).sum();
    assert_eq!(total, vp.cpu().instret());
    assert_eq!(p.insns_observed(), vp.cpu().instret());
    // The loop body dominates. Iteration 1 runs inside the entry block
    // (translation flows through the `loop` label), so the loop-head
    // block is entered on the 9 back-edge iterations.
    let hottest = &rows[0];
    assert_eq!(hottest.execs, 9);
    assert_eq!(hottest.insns, 27);
    assert_eq!(hottest.len, 3);
    // Block entries across all blocks: prologue + 10 loop + exit.
    let execs: u64 = rows.iter().map(|r| r.execs).sum();
    let snap = p.snapshot();
    assert_eq!(snap.counter(names::BLOCK_EXECS), Some(execs));
    // The rendered table carries the same total.
    let table = p.hot_block_table(5);
    assert!(
        table.contains(&format!("block-attributed insns: {total}")),
        "{table}"
    );
}

#[test]
fn kind_and_class_counters() {
    let (vp, _) = run_profiled(
        r#"
        li t0, 3
        li t1, 4
        mul a0, t0, t1
        ebreak
        "#,
    );
    let snap = profile(&vp).snapshot();
    assert_eq!(snap.counter("vp_insn_mul"), Some(1));
    assert_eq!(snap.counter(&names::insn_class(InsnClass::Mul)), Some(1));
    // Eager registration: kinds the program never used exist at zero.
    assert_eq!(snap.counter("vp_insn_div"), Some(0));
    assert_eq!(snap.counter(names::INSN_RETIRED), Some(vp.cpu().instret()));
}

#[test]
fn memory_traffic_counters() {
    let (vp, _) = run_profiled(
        r#"
        la t0, buf
        li t1, 7
        sw t1, 0(t0)
        lw a0, 0(t0)
        lw a1, 0(t0)
        ebreak
        buf: .space 4
        "#,
    );
    let snap = profile(&vp).snapshot();
    assert_eq!(snap.counter(names::MEM_WRITES), Some(1));
    assert_eq!(snap.counter(names::MEM_READS), Some(2));
    assert_eq!(snap.counter(names::TRAPS), Some(0));
}

#[test]
fn trap_counters() {
    // `ecall` with no handler installed raises EcallM (mcause 11) and the
    // run ends fatally.
    let (vp, outcome) = run_profiled("li a0, 1\necall");
    assert!(matches!(outcome, RunOutcome::Fatal(_)));
    let snap = profile(&vp).snapshot();
    assert_eq!(snap.counter(names::TRAPS), Some(1));
    assert_eq!(snap.counter(&names::trap_cause(11)), Some(1));
    // The trapped ecall was observed but did not retire.
    let p = profile(&vp);
    assert_eq!(p.insns_observed(), vp.cpu().instret() + 1);
}

#[test]
fn block_exec_counts_feed_dot_overlay() {
    let (vp, _) = run_profiled(
        r#"
        li t0, 4
        loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
        "#,
    );
    let counts = profile(&vp).block_exec_counts();
    assert!(!counts.is_empty());
    // Keys are block start addresses; the loop head is entered on the 3
    // back-edge iterations (iteration 1 runs inside the entry block).
    assert!(counts.values().any(|&n| n == 3), "{counts:?}");
    let total: u64 = counts.values().sum();
    let snap = profile(&vp).snapshot();
    assert_eq!(snap.counter(names::BLOCK_EXECS), Some(total));
}

#[test]
fn snapshot_roundtrips_from_live_run() {
    let (vp, _) = run_profiled("li t0, 2\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak");
    let snap = profile(&vp).snapshot();
    let json = s4e_obs::Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(json, snap);
}
