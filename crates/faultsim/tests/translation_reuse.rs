//! Cross-mutant translation reuse: workers restore a golden-prefix
//! snapshot and adopt the golden VP's exported translated blocks
//! instead of re-translating the same code per mutant. These tests pin
//! the acceptance claim: on an SMC-free campaign, per-mutant fresh
//! translations drop to ~0, and classifications are identical with the
//! seeding on or off.

use s4e_asm::assemble;
use s4e_faultsim::{
    Campaign, CampaignConfig, CampaignProgress, CampaignReport, FaultKind, FaultSpec, FaultTarget,
};
use s4e_isa::Gpr;
use s4e_obs::Snapshot;
use s4e_vp::{RunOutcome, Vp};
use std::sync::Arc;

/// A golden run of ~360 retired instructions with data stores that stay
/// clear of the code region — no mutant of the spec set below ever
/// mutates code bytes, so every warm probe's hash check passes.
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

/// 320 register transients spread across the golden run, none terminal
/// and none touching memory: the SMC-free sweep shape.
fn smc_free_specs(c: &Campaign) -> Vec<FaultSpec> {
    let golden_len = c.golden().instret();
    let mut specs = Vec::new();
    for bit in 0..16u8 {
        for t in 0..20u64 {
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg: Gpr::A0, bit },
                kind: FaultKind::Transient {
                    at_insn: t * golden_len / 20,
                },
            });
        }
    }
    specs
}

fn sweep(share: bool, threads: usize) -> (CampaignReport, Snapshot, usize) {
    let mut c = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new()
            .threads(threads)
            .share_translations(share),
    );
    assert!(c.fast_forward_active());
    let progress = Arc::new(CampaignProgress::new());
    c.set_progress(Arc::clone(&progress));
    let specs = smc_free_specs(&c);
    let report = c.run_all(&specs);
    (report, progress.snapshot(), specs.len())
}

#[test]
fn warm_seeding_cuts_per_mutant_translations_to_zero() {
    let (report_on, snap_on, mutants) = sweep(true, 2);
    let (report_off, snap_off, _) = sweep(false, 2);

    assert_eq!(
        report_on.results(),
        report_off.results(),
        "translation sharing must be classification-identical"
    );

    let translations_on = snap_on.counter("campaign_translations").unwrap_or(0);
    let translations_off = snap_off.counter("campaign_translations").unwrap_or(0);
    let warm_on = snap_on.counter("campaign_warm_translations").unwrap_or(0);
    let warm_off = snap_off.counter("campaign_warm_translations").unwrap_or(0);

    // Without sharing, every restored mutant re-translates the blocks
    // it executes: far more fresh translations than mutants.
    assert!(
        translations_off > mutants as u64,
        "legacy sweep should translate per mutant (got {translations_off} for {mutants} mutants)"
    );
    // With sharing, fresh translation work collapses to the golden
    // replay VP's own share: its handful of basic blocks plus one
    // resume block per distinct injection point (a replay segment can
    // stop mid-block). That is O(points), not O(mutants) — 320 mutants
    // share 20 points here, so any per-mutant residue (even one block
    // per mutant) would blow through this bound immediately.
    let points = 20u64;
    assert!(
        translations_on <= 2 * points + 16,
        "warm sweep should only translate on the golden VP (got {translations_on})"
    );
    // Every non-terminal mutant adopts at least one warm block after
    // its restore invalidated the reusable VP's caches.
    assert!(
        warm_on >= mutants as u64,
        "every mutant should adopt warm blocks (got {warm_on} for {mutants} mutants)"
    );
    assert_eq!(warm_off, 0, "sharing off must never adopt warm blocks");
}

#[test]
fn code_mutating_faults_fall_back_to_fresh_translation() {
    // A MemBit fault in the code region flips an instruction byte
    // before execution resumes: the warm probe's code-bytes hash check
    // must reject the stale block and re-translate locally, keeping
    // classifications identical to the unseeded sweep.
    let base = 0x8000_0000u32;
    let make = |share: bool| {
        campaign(
            WORK_PROGRAM,
            &CampaignConfig::new().share_translations(share),
        )
    };
    let specs: Vec<FaultSpec> = (0..24u32)
        .flat_map(|i| {
            (0..4u8).map(move |bit| FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + i * 2,
                    bit,
                },
                kind: FaultKind::Transient {
                    at_insn: u64::from(i) * 5,
                },
            })
        })
        .collect();
    let shared = make(true).run_all(&specs);
    let fresh = make(false).run_all(&specs);
    assert_eq!(shared.results(), fresh.results());
    // The sweep actually corrupted code: more than one outcome class.
    assert!(shared.counts().len() >= 2, "{:?}", shared.counts());
}

#[test]
fn uncached_interpreter_declines_a_warm_set() {
    // The uncached interpreter decodes every block itself: a warm set
    // seeded into it must be ignored, not dispatched through, and the
    // run must match the exporting micro-op engine exactly.
    let img = assemble(WORK_PROGRAM).expect("assembles");
    let run = |vp: &mut Vp| {
        vp.load(img.base(), img.bytes()).expect("loads");
        vp.cpu_mut().set_pc(img.entry());
        assert_eq!(vp.run(), RunOutcome::Break);
    };
    let mut exporter = Vp::builder().jit(false).build();
    run(&mut exporter);
    let warm = Arc::new(exporter.export_translations());
    // The set is adoptable: a fresh micro-op engine runs warm from it.
    let mut adopter = Vp::builder().jit(false).build();
    adopter.set_warm_translations(Some(Arc::clone(&warm)));
    run(&mut adopter);
    assert!(adopter.dispatch_stats().warm_translations > 0);

    let mut oracle = Vp::builder().block_cache(false).build();
    oracle.set_warm_translations(Some(warm));
    run(&mut oracle);
    assert_eq!(oracle.dispatch_stats().warm_translations, 0);
    assert_eq!(
        format!("{:?}", oracle.cpu()),
        format!("{:?}", exporter.cpu())
    );
    assert_eq!(
        oracle.bus().dump(img.base(), 1024).unwrap(),
        exporter.bus().dump(img.base(), 1024).unwrap()
    );
}
