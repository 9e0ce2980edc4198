//! Golden-prefix fast-forward: classification identity against the
//! legacy full-rerun path, terminal-prefix handling, the interrupt
//! fallback, and the s4e-obs efficiency counters.

use s4e_asm::assemble;
use s4e_faultsim::{
    Campaign, CampaignConfig, CampaignProgress, FaultKind, FaultOutcome, FaultSpec, FaultTarget,
};
use s4e_isa::Gpr;
use std::sync::Arc;

/// A golden run long enough (~360 retired instructions) that transient
/// injection times spread across a real prefix, with stores so memory
/// comparison carries weight.
const WORK_PROGRAM: &str = r#"
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

fn campaign(src: &str, cfg: &CampaignConfig) -> Campaign {
    let img = assemble(src).expect("assembles");
    Campaign::prepare(img.base(), img.bytes(), img.entry(), cfg).expect("prepares")
}

/// A 1120-mutant list in the acceptance-sweep shape, but covering every
/// fault flavour the campaign knows: register transients across the
/// whole run, code/data memory transients, and permanent stuck-ats.
fn acceptance_specs(c: &Campaign) -> Vec<FaultSpec> {
    let golden_len = c.golden().instret();
    let mut specs = Vec::new();
    // 28 bits × 30 times = 840 register transients, spread past the end
    // of the golden run so the terminal-prefix path is exercised too.
    for bit in 0..28u8 {
        for t in 0..30u64 {
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg: Gpr::A0, bit },
                kind: FaultKind::Transient {
                    at_insn: t * golden_len / 24,
                },
            });
        }
    }
    // 160 memory transients: half mutate code bytes (block-cache and
    // jump-cache invalidation on restore), half mutate data.
    let base = 0x8000_0000u32;
    for i in 0..20u32 {
        for bit in 0..4u8 {
            specs.push(FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + i * 2,
                    bit,
                },
                kind: FaultKind::Transient {
                    at_insn: u64::from(i) * 7,
                },
            });
            specs.push(FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + 0x100 + i,
                    bit,
                },
                kind: FaultKind::Transient { at_insn: 0 },
            });
        }
    }
    // 120 permanent stuck-ats.
    for bit in 0..30u8 {
        for (reg, value) in [(Gpr::A0, false), (Gpr::new(5).unwrap(), true)] {
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg, bit },
                kind: FaultKind::StuckAt { value },
            });
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg, bit },
                kind: FaultKind::Transient { at_insn: 0 },
            });
        }
    }
    specs
}

#[test]
fn fast_forward_classifications_match_legacy_exactly() {
    // Pruning off on both sides: this test is about the fast-forward
    // execution path itself, so every mutant must actually run.
    let fast = campaign(WORK_PROGRAM, &CampaignConfig::new().threads(4).prune(false));
    let slow = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new()
            .threads(4)
            .fast_forward(false)
            .prune(false),
    );
    assert!(fast.fast_forward_active());
    assert!(!slow.fast_forward_active());

    let specs = acceptance_specs(&fast);
    assert!(specs.len() >= 1120, "{} mutants", specs.len());
    let a = fast.run_all(&specs);
    let b = slow.run_all(&specs);
    assert_eq!(a.results(), b.results(), "classification-identical reports");
    assert_eq!(a.counts(), b.counts());
    // The sweep exercised more than one outcome class (otherwise the
    // identity assertion proves little).
    assert!(a.counts().len() >= 3, "{:?}", a.counts());
}

#[test]
fn single_thread_fast_forward_matches_too() {
    let fast = campaign(WORK_PROGRAM, &CampaignConfig::new().prune(false));
    let slow = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new().fast_forward(false).prune(false),
    );
    let specs: Vec<FaultSpec> = acceptance_specs(&fast).into_iter().step_by(7).collect();
    assert_eq!(
        fast.run_all(&specs).results(),
        slow.run_all(&specs).results()
    );
}

#[test]
fn terminal_prefix_is_classified_not_resumed() {
    // Injection times at and far beyond the golden run's length: the
    // prefix snapshot *is* the final state and must classify Masked
    // (the fault never manifests) — on both paths.
    let fast = campaign(WORK_PROGRAM, &CampaignConfig::new());
    let slow = campaign(WORK_PROGRAM, &CampaignConfig::new().fast_forward(false));
    let golden_len = fast.golden().instret();
    let specs: Vec<FaultSpec> = [
        golden_len,
        golden_len + 1,
        golden_len * 3,
        fast.budget() + 7,
    ]
    .into_iter()
    .map(|at| FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 2,
        },
        kind: FaultKind::Transient { at_insn: at },
    })
    .collect();
    let a = fast.run_all(&specs);
    for r in a.results() {
        assert_eq!(r.outcome, FaultOutcome::Masked, "{}", r.spec);
    }
    assert_eq!(a.results(), slow.run_all(&specs).results());
}

#[test]
fn interrupt_armed_golden_falls_back_to_legacy() {
    // The golden run arms the machine timer interrupt enable (without
    // ever taking an interrupt — mstatus.MIE stays clear, so it still
    // terminates normally). Split prefix replay is not provably
    // bit-exact then, so fast-forward must deactivate itself.
    let src = r#"
        li t0, 0x80
        csrw mie, t0
        li t1, 12
        li a0, 0
        loop: add a0, a0, t1
        addi t1, t1, -1
        bnez t1, loop
        ebreak
    "#;
    let c = campaign(src, &CampaignConfig::new());
    assert!(
        !c.fast_forward_active(),
        "mie was armed; the campaign must use the legacy path"
    );
    assert!(c.golden().trace().interrupts_armed);

    // And the sweep still classifies everything correctly.
    let specs: Vec<FaultSpec> = (0..20u64)
        .map(|t| FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::A0,
                bit: (t % 8) as u8,
            },
            kind: FaultKind::Transient { at_insn: t },
        })
        .collect();
    let report = c.run_all(&specs);
    assert_eq!(report.total(), specs.len());
}

#[test]
fn rerun_mutants_reach_the_dispatch_counters() {
    // Mutants on the legacy full-rerun path each run on a fresh VP: an
    // interrupt-armed golden run forces it, and so does a sweep with
    // fast-forward off. Their execution must still reach the campaign's
    // dispatch counters.
    let interrupt_armed = r#"
        li t0, 0x80
        csrw mie, t0
        li t1, 40
        li a0, 0
        loop: add a0, a0, t1
        addi t1, t1, -1
        bnez t1, loop
        ebreak
    "#;
    for (src, cfg) in [
        (interrupt_armed, CampaignConfig::new().threads(2)),
        (
            WORK_PROGRAM,
            CampaignConfig::new().threads(2).fast_forward(false),
        ),
    ] {
        let mut c = campaign(src, &cfg);
        assert!(!c.fast_forward_active());
        let progress = Arc::new(CampaignProgress::new());
        c.set_progress(Arc::clone(&progress));
        let specs: Vec<FaultSpec> = (0..24u64)
            .map(|t| FaultSpec {
                target: FaultTarget::GprBit {
                    reg: Gpr::new(6).unwrap(),
                    bit: (t % 4) as u8,
                },
                kind: FaultKind::Transient { at_insn: t * 3 },
            })
            .collect();
        c.run_all(&specs);
        let snap = progress.snapshot();
        for name in ["campaign_retired", "campaign_translations"] {
            assert!(snap.counter(name).unwrap_or(0) > 0, "{name} reads 0");
        }
    }
}

#[test]
fn interrupt_free_golden_reports_unarmed_trace() {
    let c = campaign(WORK_PROGRAM, &CampaignConfig::new());
    assert!(!c.golden().trace().interrupts_armed);
}

#[test]
fn fast_forward_efficiency_metrics_flow_into_progress() {
    // Pruning off: the per-mutant restore accounting below assumes
    // every mutant executes.
    let mut c = campaign(WORK_PROGRAM, &CampaignConfig::new().threads(2).prune(false));
    let progress = Arc::new(CampaignProgress::new());
    c.set_progress(Arc::clone(&progress));
    let specs: Vec<FaultSpec> = acceptance_specs(&c).into_iter().step_by(11).collect();
    let total = specs.len() as u64;
    c.run_all(&specs);

    let snap = progress.snapshot();
    // Every fresh mutant restored exactly one shared snapshot.
    assert_eq!(snap.counter("campaign_snapshot_restores"), Some(total));
    // The golden replay VP snapshotted each distinct injection point.
    assert!(snap.counter("campaign_snapshots_taken").unwrap_or(0) > 0);
    // Restores moved at least the image pages on first touch.
    assert!(snap.counter("campaign_dirty_pages_restored").unwrap_or(0) > 0);
    // Fault campaigns execute with per-insn replay near injection points,
    // but hot stretches still run lowered: fused micro-ops must execute.
    // Each worker translates and lowers the blocks it runs after a
    // restore, which drops them, so both counters move.
    assert!(snap.counter("campaign_fused_executed").unwrap_or(0) > 0);
    assert!(snap.counter("campaign_translations").unwrap_or(0) > 0);
    assert!(snap.counter("campaign_fused_lowered").unwrap_or(0) > 0);

    // The interpreter's fast dispatch paths (chained successors plus
    // jump-cache hits) saw traffic and mostly hit; chaining drains
    // traffic that used to count as jump-cache hits, so both feed the
    // same assertion. Checked on the path it describes: with the JIT on,
    // native chains carry the hot loops (stuck-at mutants included) and
    // the interpreter sees little beyond each block's first fetch.
    let mut interpreted = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new().threads(2).prune(false).jit(false),
    );
    let progress_nojit = Arc::new(CampaignProgress::new());
    interpreted.set_progress(Arc::clone(&progress_nojit));
    interpreted.run_all(&specs);
    let snap_nojit = progress_nojit.snapshot();
    let hits = snap_nojit.counter("campaign_jmp_cache_hits").unwrap_or(0);
    let misses = snap_nojit.counter("campaign_jmp_cache_misses").unwrap_or(0);
    let chained = snap_nojit.counter("campaign_chain_hits").unwrap_or(0);
    assert!(
        hits + chained > misses,
        "hits {hits} + chained {chained} vs misses {misses}"
    );

    // With fast-forward off, no snapshots are restored at all.
    let mut legacy = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new()
            .threads(2)
            .fast_forward(false)
            .prune(false),
    );
    let progress2 = Arc::new(CampaignProgress::new());
    legacy.set_progress(Arc::clone(&progress2));
    legacy.run_all(&specs);
    assert_eq!(
        progress2.snapshot().counter("campaign_snapshot_restores"),
        Some(0)
    );
}

#[test]
fn stuck_at_sweep_classifies_identically_with_jit_on_and_off() {
    // Every register WORK_PROGRAM touches (x0 through `li` and `bnez`)
    // × 32 bits × both polarities. Stuck-at mutants run natively on the
    // masked engine, stuck loop counters included (the Timeouts).
    let regs = [0u8, 5, 6, 7, 10].map(|r| Gpr::new(r).unwrap());
    let mut specs = Vec::new();
    for reg in regs {
        for bit in 0..32u8 {
            for value in [false, true] {
                specs.push(FaultSpec {
                    target: FaultTarget::GprBit { reg, bit },
                    kind: FaultKind::StuckAt { value },
                });
            }
        }
    }
    let sweep = |jit: bool| {
        let mut c = campaign(WORK_PROGRAM, &CampaignConfig::new().threads(2).jit(jit));
        let progress = Arc::new(CampaignProgress::new());
        c.set_progress(Arc::clone(&progress));
        (c.run_all(&specs), progress.snapshot())
    };
    let (native, snap) = sweep(true);
    let (interpreted, _) = sweep(false);
    assert_eq!(native.results(), interpreted.results());
    assert!(
        native
            .results()
            .iter()
            .any(|r| r.outcome == FaultOutcome::Timeout),
        "{:?}",
        native.counts()
    );
    assert!(snap.counter("campaign_jit_blocks_executed").unwrap_or(0) > 0);
    // Every bail-out is counted under exactly one reason.
    let reasons: u64 = snap
        .metrics()
        .keys()
        .filter(|name| name.starts_with("campaign_jit_bail_"))
        .filter_map(|name| snap.counter(name))
        .sum();
    assert_eq!(snap.counter("campaign_jit_bailouts"), Some(reasons));
}

#[test]
fn run_one_uses_the_legacy_path_and_agrees() {
    // `run_one` (no sweep context, no shared cache) must agree with the
    // supervised fast-forward sweep mutant for mutant.
    let c = campaign(WORK_PROGRAM, &CampaignConfig::new());
    let specs: Vec<FaultSpec> = acceptance_specs(&c).into_iter().step_by(97).collect();
    let report = c.run_all(&specs);
    for (spec, swept) in specs.iter().zip(report.results()) {
        assert_eq!(c.run_one(spec).outcome, swept.outcome, "{spec}");
    }
}
