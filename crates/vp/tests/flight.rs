//! Flight-recorder integration: the recorder is a plugin that
//! subscribes no block, so it must capture blocks, traps and device
//! accesses from a live run on every execution tier without disturbing
//! execution, and its tail must survive the snapshot/restore cycle a
//! fault campaign puts a worker VP through.

use s4e_asm::assemble;
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{FlightEvent, FlightRecorder, RunOutcome, Vp, VpBuilder};

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

/// The attached recorder.
fn recorder(vp: &Vp) -> &FlightRecorder {
    vp.plugin::<FlightRecorder>().expect("attached")
}

/// The three execution tiers: the uncached interpreter (the oracle),
/// the micro-op engine and the template JIT compiling every block.
fn tiers() -> [(&'static str, VpBuilder); 3] {
    let b = || Vp::builder().isa(IsaConfig::rv32imc());
    [
        ("block_cache(false)", b().block_cache(false)),
        ("jit(false)", b().jit(false)),
        ("jit_threshold(1)", b().jit_threshold(1)),
    ]
}

const MIXED_TRAFFIC: &str = r#"
    .equ UART, 0x10000000
    la t0, handler
    csrw mtvec, t0
    li t0, UART
    li t1, 65
    sw t1, 0(t0)        # device store ('A' to uart txdata)
    ecall               # trap to handler
    after:
    li t2, 3
    loop: addi t3, t3, 1
    blt t3, t2, loop
    ebreak

    handler:
    csrr t4, mepc
    addi t4, t4, 4
    csrw mepc, t4
    mret
"#;

#[test]
fn recorder_captures_blocks_traps_and_devices() {
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, MIXED_TRAFFIC);
    vp.add_plugin(Box::new(FlightRecorder::new(64)));
    assert_eq!(vp.run(), RunOutcome::Break);

    let recorder = recorder(&vp);
    assert!(recorder.blocks_recorded() > 0, "blocks recorded");
    assert_eq!(recorder.traps_recorded(), 1, "one ecall trap");
    assert_eq!(recorder.device_accesses_recorded(), 1, "one uart store");

    let tail = recorder.tail();
    let trap = tail
        .iter()
        .find_map(|(ev, _)| match ev {
            FlightEvent::Trap { mcause, .. } => Some(*mcause),
            _ => None,
        })
        .expect("trap in tail");
    assert_eq!(trap, 11, "ecall from M-mode");
    let (addr, value, is_store, device) = tail
        .iter()
        .find_map(|(ev, name)| match ev {
            FlightEvent::Device {
                addr,
                value,
                is_store,
                ..
            } => Some((*addr, *value, *is_store, *name)),
            _ => None,
        })
        .expect("device access in tail");
    assert_eq!(addr, 0x1000_0000);
    assert_eq!(value, 65);
    assert!(is_store);
    assert_eq!(device, Some("uart"));
    // Event instret stamps are monotonically non-decreasing: the tail
    // reads as a timeline.
    let stamps: Vec<u64> = tail.iter().map(|(ev, _)| ev.instret()).collect();
    let mut sorted = stamps.clone();
    sorted.sort_unstable();
    assert_eq!(stamps, sorted);
}

#[test]
fn recorder_does_not_perturb_execution() {
    let run = |recorder: Option<FlightRecorder>| {
        let mut vp = Vp::new(IsaConfig::rv32imc());
        load_src(&mut vp, MIXED_TRAFFIC);
        if let Some(recorder) = recorder {
            vp.add_plugin(Box::new(recorder));
        }
        let outcome = vp.run();
        let t3 = vp.cpu().gpr(Gpr::new(28).unwrap());
        (outcome, t3, vp.cpu().instret())
    };
    let bare = run(None);
    let armed = run(Some(FlightRecorder::new(8)));
    assert_eq!(bare, armed, "architectural results identical");
}

#[test]
fn recorder_survives_snapshot_restore() {
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, MIXED_TRAFFIC);
    let snapshot = vp.snapshot();
    vp.add_plugin(Box::new(FlightRecorder::new(64)));
    assert_eq!(vp.run(), RunOutcome::Break);
    let first = recorder(&vp).tail();
    let first_blocks = recorder(&vp).blocks_recorded();
    assert!(first_blocks > 0);

    // The campaign's per-mutant cycle: restore architectural state,
    // clear the ring, run again. The recorder stays attached — it is
    // harness state, not guest state — and records the second run from
    // scratch.
    vp.restore(&snapshot);
    vp.plugin_mut::<FlightRecorder>().unwrap().clear();
    assert!(recorder(&vp).is_empty());
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(
        recorder(&vp).blocks_recorded(),
        first_blocks,
        "identical rerun records the identical block tail"
    );
    assert_eq!(recorder(&vp).tail(), first);
}

#[test]
fn bounded_ring_keeps_only_the_newest_tail() {
    let src = r#"
        li t0, 50
        loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    vp.add_plugin(Box::new(FlightRecorder::new(4)));
    assert_eq!(vp.run(), RunOutcome::Break);
    let recorder = recorder(&vp);
    assert_eq!(recorder.len(), 4, "ring holds exactly its capacity");
    assert!(recorder.evicted() > 0, "older events were evicted");
    let tail = recorder.tail();
    // The newest event the ring kept is the final block entered.
    let last = tail.last().unwrap().0.instret();
    assert!(
        recorder.blocks_recorded() >= 50,
        "every loop iteration entered a block"
    );
    assert!(last <= vp.cpu().instret());
}

// ------------------------------------------------ tier equivalence

/// Torture programs for the tier differential: a tight loop (hot native
/// chains, heavy wraparound), nested branches (both chain slots
/// exercised), and mixed trap/device traffic (native code hands those
/// to the interpreter, which reports them).
const TORTURE: &[(&str, &str)] = &[
    (
        "tight_loop",
        r#"
        li t0, 120
        li a0, 0
    loop:
        addi a0, a0, 1
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#,
    ),
    (
        "nested_branches",
        r#"
        li t0, 40
        li a0, 0
        li a1, 0
    outer:
        andi t1, t0, 1
        beqz t1, even
        addi a0, a0, 3
        jal x0, next
    even:
        addi a1, a1, 5
    next:
        addi t0, t0, -1
        bnez t0, outer
        ebreak
    "#,
    ),
    ("mixed_traffic", MIXED_TRAFFIC),
];

/// Runs `src` to completion (optionally in `slice`-instruction budget
/// chunks, landing expiries mid-block and at block boundaries) with a
/// recorder attached, and returns everything the differential compares:
/// the decoded block tail (instret stamps + pcs), eviction and
/// lifetime-block counts, and the full architectural state.
fn flight_fingerprint(
    builder: VpBuilder,
    cap: usize,
    src: &str,
    slice: Option<u64>,
    restore_cycle: bool,
) -> (Vec<(u64, u32)>, u64, u64, String) {
    let mut vp = builder.build();
    load_src(&mut vp, src);
    let snap = restore_cycle.then(|| vp.snapshot());
    vp.add_plugin(Box::new(FlightRecorder::new(cap)));
    let run_to_break = |vp: &mut Vp| match slice {
        None => assert_eq!(vp.run(), RunOutcome::Break),
        Some(n) => loop {
            match vp.run_for(n) {
                RunOutcome::InsnLimit => {}
                RunOutcome::Break => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        },
    };
    run_to_break(&mut vp);
    if let Some(snap) = &snap {
        // The campaign's per-mutant cycle: with the JIT on, the second
        // run executes from *retained* native code end to end — the
        // ring contents must not notice.
        vp.restore(snap);
        vp.plugin_mut::<FlightRecorder>().unwrap().clear();
        run_to_break(&mut vp);
    }
    ring_fingerprint(&vp)
}

/// The attached recorder's block tail (instret stamps and pcs),
/// eviction and lifetime-block counts, and the full architectural
/// state.
fn ring_fingerprint(vp: &Vp) -> (Vec<(u64, u32)>, u64, u64, String) {
    let rec = recorder(vp);
    let tail: Vec<(u64, u32)> = rec
        .tail()
        .iter()
        .filter_map(|(ev, _)| match ev {
            FlightEvent::Block { instret, pc } => Some((*instret, *pc)),
            _ => None,
        })
        .collect();
    (
        tail,
        rec.evicted(),
        rec.blocks_recorded(),
        format!("{:?}", vp.cpu()),
    )
}

/// Property-style sweep: across every torture program, ring capacity
/// (down to 1, forcing constant wraparound), budget slicing (expiries
/// landing mid-block), and the restore-survival cycle, the recorder on
/// the micro-op engine and on the template JIT is indistinguishable from
/// the one on the uncached interpreter — same block pcs, same instret
/// stamps, same eviction accounting.
#[test]
fn flight_ring_is_identical_with_jit_on_and_off() {
    for (name, src) in TORTURE {
        for cap in [1usize, 2, 3, 5, 64] {
            for slice in [None, Some(7), Some(64)] {
                for restore_cycle in [false, true] {
                    let [(_, oracle), rest @ ..] = tiers();
                    let expected = flight_fingerprint(oracle, cap, src, slice, restore_cycle);
                    for (tier, builder) in rest {
                        assert_eq!(
                            flight_fingerprint(builder, cap, src, slice, restore_cycle),
                            expected,
                            "{name} on {tier}: cap={cap} slice={slice:?} restore={restore_cycle}"
                        );
                    }
                }
            }
        }
    }
}

/// A run whose budget runs out at a block boundary enters no further
/// block, so the tail's newest block entry retired at least one
/// instruction: none carries the run's final `instret`.
#[test]
fn a_budget_spent_at_a_block_boundary_records_no_further_block() {
    let trap_free_loop = r#"
    loop:
        addi a0, a0, 1
        addi a1, a1, 2
        j loop
    "#;
    for (tier, builder) in tiers() {
        for budget in 100..=130u64 {
            let mut vp = builder.clone().build();
            load_src(&mut vp, trap_free_loop);
            vp.add_plugin(Box::new(FlightRecorder::new(8)));
            assert_eq!(vp.run_for(budget), RunOutcome::InsnLimit, "{tier}");
            let end = vp.cpu().instret();
            let phantom = recorder(&vp).tail().into_iter().find(
                |(ev, _)| matches!(ev, FlightEvent::Block { instret, .. } if *instret == end),
            );
            assert_eq!(phantom, None, "{tier}, budget {budget}");
        }
    }
}

#[test]
fn arming_after_native_code_exists_records_every_block() {
    // The first 101 instructions of the tight loop run with no recorder
    // (natively, with the JIT on), then a recorder is attached for the
    // rest: native code compiled without the plugin event write must
    // not run with it attached.
    let run = |jit_on: bool| {
        let b = Vp::builder().isa(IsaConfig::rv32imc());
        let mut vp = if jit_on {
            b.jit_threshold(1)
        } else {
            b.jit(false)
        }
        .build();
        load_src(&mut vp, TORTURE[0].1);
        assert_eq!(vp.run_for(101), RunOutcome::InsnLimit);
        let before = vp.take_dispatch_stats();
        vp.add_plugin(Box::new(FlightRecorder::new(64)));
        assert_eq!(vp.run(), RunOutcome::Break);
        (ring_fingerprint(&vp), before.jit_exec, vp.dispatch_stats())
    };
    let (native, exec_before, stats) = run(true);
    let (interpreted, _, _) = run(false);
    assert_eq!(native, interpreted);
    assert!(exec_before > 20, "the loop ran natively before attaching");
    assert!(stats.jit_exec > 20, "and after: {stats:?}");
    assert!(native.2 > 60, "the attached half entered every block");
}
