//! Fault-injection campaign tests: classification correctness, golden
//! comparison, determinism, and parallel equivalence.

use s4e_asm::assemble;
use s4e_faultsim::{
    generate_mutants, Campaign, CampaignConfig, CampaignError, FaultKind, FaultOutcome, FaultSpec,
    FaultTarget, GeneratorConfig,
};
use s4e_isa::{Gpr, IsaConfig};

const SUM_PROGRAM: &str = r#"
    li t0, 10
    li a0, 0
    loop: add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    la t1, result
    sw a0, 0(t1)
    ebreak
    result: .word 0
"#;

fn campaign(src: &str, cfg: &CampaignConfig) -> Campaign {
    let img = assemble(src).expect("assembles");
    Campaign::prepare(img.base(), img.bytes(), img.entry(), cfg).expect("prepares")
}

#[test]
fn golden_run_recorded() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let g = c.golden();
    assert!(g.outcome().is_normal_termination());
    assert!(g.instret() > 30);
    assert!(g.trace().touched_gprs.contains(&Gpr::A0));
    assert!(!g.trace().executed_pcs.is_empty());
    assert!(!g.trace().written_bytes.is_empty());
}

#[test]
fn golden_must_terminate_normally() {
    // Program that crashes (unhandled trap) — campaign preparation fails.
    let img = assemble("lw a0, 1(zero)").expect("assembles");
    let err = Campaign::prepare(img.base(), img.bytes(), img.entry(), &CampaignConfig::new())
        .unwrap_err();
    assert!(matches!(err, CampaignError::GoldenAbnormal { .. }));
}

#[test]
fn untouched_register_fault_is_masked() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    // x28/t3 is never used by the program: a flip there is invisible...
    // except in the final register comparison. Use a transient flip that
    // is later compared: x28 differs from golden → silent corruption by
    // the strict register comparison. A *stuck-at matching the value
    // already there* is fully masked.
    let masked = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::new(28).unwrap(),
            bit: 0,
        },
        kind: FaultKind::StuckAt { value: false }, // x28 is 0 anyway
    });
    assert_eq!(masked.outcome, FaultOutcome::Masked);
}

#[test]
fn accumulator_fault_corrupts_silently() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    // Stuck bit in the accumulator: result is wrong but the program still
    // terminates → silent corruption.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 6,
        },
        kind: FaultKind::StuckAt { value: true },
    });
    assert_eq!(r.outcome, FaultOutcome::SilentCorruption);
}

#[test]
fn counter_fault_can_hang() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    // t0 bit 31 stuck-at-1: the countdown never reaches zero → timeout.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::new(5).unwrap(),
            bit: 31,
        },
        kind: FaultKind::StuckAt { value: true },
    });
    assert_eq!(r.outcome, FaultOutcome::Timeout);
}

#[test]
fn opcode_mutation_can_crash() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let first_pc = *c.golden().trace().executed_pcs.iter().next().unwrap();
    // Flip the low opcode bit of the first instruction: 0b11 → 0b10 turns
    // the 32-bit encoding into a (likely illegal) compressed one.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::MemBit {
            addr: first_pc,
            bit: 0,
        },
        kind: FaultKind::Transient { at_insn: 0 },
    });
    assert!(
        matches!(r.outcome, FaultOutcome::Detected { .. })
            || r.outcome == FaultOutcome::SilentCorruption
            || r.outcome == FaultOutcome::Timeout,
        "mutated opcode must not be masked: {:?}",
        r.outcome
    );
}

#[test]
fn transient_after_termination_never_manifests() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 0,
        },
        kind: FaultKind::Transient {
            at_insn: c.golden().instret() + 500,
        },
    });
    assert_eq!(r.outcome, FaultOutcome::Masked);
}

#[test]
fn transient_mid_run_corrupts_result() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    // Flip a high accumulator bit mid-loop: sum is corrupted, run finishes.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 20,
        },
        kind: FaultKind::Transient { at_insn: 10 },
    });
    assert_eq!(r.outcome, FaultOutcome::SilentCorruption);
}

#[test]
fn memory_data_fault_detected_by_comparison() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let &result_byte = c.golden().trace().written_bytes.iter().next().unwrap();
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::MemBit {
            addr: result_byte,
            bit: 3,
        },
        kind: FaultKind::Transient {
            at_insn: c.golden().instret() - 1,
        },
    });
    assert_eq!(r.outcome, FaultOutcome::SilentCorruption);
}

#[test]
fn self_reported_failures_classified() {
    // Program with a software safety check: exits 1 when the sum is wrong.
    let src = r#"
        .equ SYSCON, 0x11000000
        li t0, 10
        li a0, 0
        loop: add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        li t1, 55
        li t2, SYSCON
        beq a0, t1, good
        li t3, 1
        sw t3, 0(t2)    # exit(1)
        good:
        sw zero, 0(t2)  # exit(0)
    "#;
    let c = campaign(src, &CampaignConfig::new());
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 10,
        },
        kind: FaultKind::Transient { at_insn: 12 },
    });
    assert_eq!(r.outcome, FaultOutcome::SelfReported { code: 1 });
}

#[test]
fn generated_campaign_produces_mixed_outcomes() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let mutants = generate_mutants(c.golden().trace(), &GeneratorConfig::new(7));
    assert!(mutants.len() > 30);
    let report = c.run_all(&mutants);
    assert_eq!(report.total(), mutants.len());
    let counts = report.counts();
    assert!(counts.len() >= 2, "outcome diversity: {counts:?}");
    let rate = report.normal_termination_rate();
    assert!(rate > 0.0 && rate < 1.0, "rate = {rate}");
    assert!(report.summary_table().contains("mutants:"));
}

#[test]
fn parallel_matches_sequential() {
    let img = assemble(SUM_PROGRAM).expect("assembles");
    let seq_cfg = CampaignConfig::new();
    let par_cfg = CampaignConfig::new().threads(4);
    let seq = Campaign::prepare(img.base(), img.bytes(), img.entry(), &seq_cfg).unwrap();
    let par = Campaign::prepare(img.base(), img.bytes(), img.entry(), &par_cfg).unwrap();
    let mutants = generate_mutants(seq.golden().trace(), &GeneratorConfig::new(99));
    let a = seq.run_all(&mutants);
    let b = par.run_all(&mutants);
    assert_eq!(
        a.results(),
        b.results(),
        "parallelism must not change results"
    );
}

#[test]
fn isa_subset_scales_mutant_count() {
    // RV32IMC program exercises more instruction bytes than its RV32I
    // equivalent → more opcode mutants in the footprint.
    let rv32i = campaign(SUM_PROGRAM, &CampaignConfig::new().isa(IsaConfig::rv32i()));
    let g = rv32i.golden();
    assert!(g.outcome().is_normal_termination());
    let mutants = generate_mutants(g.trace(), &GeneratorConfig::new(3));
    assert!(!mutants.is_empty());
}

#[test]
fn suspects_iterator() {
    let c = campaign(SUM_PROGRAM, &CampaignConfig::new());
    let mutants = generate_mutants(c.golden().trace(), &GeneratorConfig::new(5));
    let report = c.run_all(&mutants);
    let suspects: Vec<_> = report.suspects().collect();
    for s in &suspects {
        assert_eq!(s.outcome, FaultOutcome::SilentCorruption);
    }
    assert_eq!(
        suspects.len(),
        report
            .counts()
            .get("silent corruption")
            .copied()
            .unwrap_or(0)
    );
}

#[test]
fn fpr_faults_on_fp_program() {
    // An FP program whose result flows through an FPR: transient FPR
    // faults must be injectable and observable.
    let src = r#"
        li t0, 100
        fcvt.s.w ft0, t0
        li t1, 3
        fcvt.s.w ft1, t1
        li s0, 50
        spin:
        fadd.s ft2, ft0, ft1
        fmv.s ft0, ft2
        addi s0, s0, -1
        bnez s0, spin
        fcvt.w.s a0, ft0
        ebreak
    "#;
    let cfg = CampaignConfig::new().isa(IsaConfig::full());
    let c = campaign(src, &cfg);
    assert!(c.golden().trace().touched_fprs.len() >= 3);
    // Flip a high mantissa/exponent bit of the accumulator mid-loop.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::FprBit {
            reg: s4e_isa::Fpr::new(0).unwrap(),
            bit: 26,
        },
        kind: FaultKind::Transient { at_insn: 31 },
    });
    assert_eq!(r.outcome, FaultOutcome::SilentCorruption);
    // A flip after termination never manifests.
    let r = c.run_one(&FaultSpec {
        target: FaultTarget::FprBit {
            reg: s4e_isa::Fpr::new(0).unwrap(),
            bit: 26,
        },
        kind: FaultKind::Transient {
            at_insn: c.golden().instret() + 100,
        },
    });
    assert_eq!(r.outcome, FaultOutcome::Masked);
}

#[test]
fn generator_emits_fpr_mutants_for_fp_footprint() {
    let src = "li t0, 1\nfcvt.s.w ft0, t0\nfadd.s ft1, ft0, ft0\nebreak";
    let cfg = CampaignConfig::new().isa(IsaConfig::full());
    let c = campaign(src, &cfg);
    let gen = GeneratorConfig {
        stuck_per_gpr: 0,
        transient_per_gpr: 0,
        transient_per_fpr: 2,
        opcode_mutants: 0,
        data_mutants: 0,
        seed: 9,
    };
    let mutants = generate_mutants(c.golden().trace(), &gen);
    assert!(!mutants.is_empty());
    assert!(mutants
        .iter()
        .all(|m| matches!(m.target, FaultTarget::FprBit { .. })));
}
