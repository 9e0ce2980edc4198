//! Property-based cross-crate invariants, driven by randomly generated
//! torture programs.

use proptest::prelude::*;
use scale4edge::prelude::*;
use scale4edge::vp::{
    BlockEntry, BlockInfo, Cpu, DeviceAccess, FlightRecorder, MemAccess, VpBuilder,
};

/// Boots `image` on a VP from `builder`, attaches `plugin` if given and
/// runs it to its `ebreak`.
fn run_to_break(builder: VpBuilder, image: &Image, plugin: Option<Box<dyn Plugin>>) -> Vp {
    let mut vp = builder.build();
    boot(&mut vp, image).expect("boots");
    if let Some(plugin) = plugin {
        vp.add_plugin(plugin);
    }
    assert_eq!(vp.run_for(10_000_000), RunOutcome::Break);
    vp
}

/// A plugin that wants no per-instruction events. Attaching it keeps
/// every block on the micro-op engine and the template JIT, with RAM
/// accesses on the fast paths: only block, device and trap events
/// remain, and native code writes the block events.
#[derive(Debug)]
struct BlockOnly;

impl Plugin for BlockOnly {
    fn wants_insn_events(&self, _block: &BlockInfo<'_>) -> bool {
        false
    }
}

/// A plugin that declares seeded block starts and subscribes only the
/// blocks whose start pc passes a seeded predicate, logging every block,
/// instruction, memory and device event as `(kind, pc, addr, value,
/// cycles, instret)`: block entries with the counters they carry, the
/// rest with the hart's.
#[derive(Debug)]
struct MixedSubscriber {
    starts: Vec<u32>,
    salt: u32,
    /// The block being executed, from the last block event.
    current: u32,
    log: Vec<(char, u32, u32, u32, u64, u64)>,
    /// Instruction or RAM events from an unsubscribed block, or
    /// instruction events at a declared start that did not begin the
    /// block.
    stray: u32,
}

impl MixedSubscriber {
    /// Declares `count` seeded starts in `[base, base + len)`.
    fn new(seed: u64, base: u32, len: u32, count: usize) -> MixedSubscriber {
        let mut x = seed;
        let starts = (0..count)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                base + ((x >> 33) as u32 % (len / 2)) * 2
            })
            .collect();
        MixedSubscriber {
            starts,
            salt: (seed >> 7) as u32,
            current: 0,
            log: Vec::new(),
            stray: 0,
        }
    }

    fn subscribes(&self, start_pc: u32) -> bool {
        ((start_pc >> 1) ^ self.salt).wrapping_mul(0x9e37_79b9) >> 31 == 0
    }
}

impl Plugin for MixedSubscriber {
    fn block_starts(&self) -> Vec<u32> {
        self.starts.clone()
    }

    fn wants_insn_events(&self, block: &BlockInfo<'_>) -> bool {
        self.subscribes(block.start_pc)
    }

    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        for e in entries {
            self.current = e.pc;
            self.log.push(('b', e.pc, 0, 0, e.cycles, e.instret));
        }
    }

    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, _insn: &Insn) {
        let start_mid_block = pc != self.current && self.starts.contains(&pc);
        if start_mid_block || !self.subscribes(self.current) {
            self.stray += 1;
        }
        self.log.push(('i', pc, 0, 0, cpu.cycles(), cpu.instret()));
    }

    fn on_mem_access(&mut self, cpu: &Cpu, a: &MemAccess) {
        if !self.subscribes(self.current) {
            self.stray += 1;
        }
        let kind = if a.is_store { 's' } else { 'l' };
        self.log
            .push((kind, a.pc, a.addr, a.value, cpu.cycles(), cpu.instret()));
    }

    fn on_device_access(&mut self, cpu: &Cpu, a: &DeviceAccess) {
        let kind = if a.is_store { 'S' } else { 'L' };
        self.log
            .push((kind, a.pc, a.addr, a.value, cpu.cycles(), cpu.instret()));
    }
}

/// Checks that every JIT bail-out of `vp` (the `arm` under test) was
/// counted under exactly one reason.
fn assert_bails_add_up(arm: &str, vp: &Vp) -> Result<(), TestCaseError> {
    let s = vp.dispatch_stats();
    prop_assert_eq!(
        s.jit_bailouts,
        s.jit_bail_mem + s.jit_bail_budget + s.jit_bail_smc + s.jit_bail_reval_miss,
        "{} bail-out split: {:?}",
        arm,
        s
    );
    Ok(())
}

/// Checks that `vp` (the `arm` under test) finished in exactly the
/// state of `oracle` (pc, cycles, instret, all GPRs and FPRs and the
/// first 4 KiB of RAM from `base`) and that its bail-outs add up.
fn assert_same_state(arm: &str, vp: &Vp, oracle: &Vp, base: u32) -> Result<(), TestCaseError> {
    assert_bails_add_up(arm, vp)?;
    prop_assert_eq!(vp.cpu().pc(), oracle.cpu().pc(), "{} pc", arm);
    prop_assert_eq!(vp.cpu().cycles(), oracle.cpu().cycles(), "{} cycles", arm);
    prop_assert_eq!(
        vp.cpu().instret(),
        oracle.cpu().instret(),
        "{} instret",
        arm
    );
    for i in 0..32u8 {
        let r = Gpr::new(i).expect("index");
        prop_assert_eq!(vp.cpu().gpr(r), oracle.cpu().gpr(r), "{} x{}", arm, i);
        let f = s4e_isa::Fpr::new(i).expect("index");
        prop_assert_eq!(vp.cpu().fpr(f), oracle.cpu().fpr(f), "{} f{}", arm, i);
    }
    prop_assert_eq!(
        vp.bus().dump(base, 4096).expect("ram"),
        oracle.bus().dump(base, 4096).expect("ram"),
        "{} RAM",
        arm
    );
    Ok(())
}

/// One case of [`masked_execution_matches_reference_dispatch`]: runs
/// the torture program from `seed` with the stuck-at `faults` planted
/// on every arm and returns the native block counts of the JIT arm and
/// of the JIT arm with a block-only plugin attached.
fn masked_case(
    seed: u64,
    mem_heavy: bool,
    faults: &[(u8, u8, bool)],
) -> Result<(u64, u64), TestCaseError> {
    /// Masks can loop or trap a program, so every arm runs under a
    /// budget.
    const BUDGET: u64 = 20_000;
    let isa = IsaConfig::rv32imfc();
    let cfg = TortureConfig::new(seed)
        .insns(120)
        .isa(isa)
        .with_loops(true)
        .mem_heavy(mem_heavy);
    let p = torture_program(&cfg);
    let image = assemble(&p.source).expect("generated programs assemble");
    let run_with = |builder: VpBuilder, flight: bool, plugin: bool| {
        let mut vp = builder.isa(isa).build();
        boot(&mut vp, &image).expect("boots");
        for &(reg, bit, value) in faults {
            let reg = Gpr::new(reg).expect("index");
            vp.cpu_mut().plant_gpr_fault(reg, bit, value);
        }
        if flight {
            vp.add_plugin(Box::new(FlightRecorder::new(32)));
        }
        if plugin {
            vp.add_plugin(Box::new(BlockOnly));
        }
        let outcome = vp.run_for(BUDGET);
        (outcome, vp)
    };
    let run = |builder: VpBuilder, flight: bool| run_with(builder, flight, false);
    // Outcome, the full CPU state (masks included) and 4 KiB of RAM.
    let state = |(outcome, vp): &(RunOutcome, Vp)| {
        (
            *outcome,
            format!("{:?}", vp.cpu()),
            vp.bus().dump(image.base(), 4096).expect("ram").to_vec(),
        )
    };
    let tail = |(_, vp): &(RunOutcome, Vp)| {
        let recorder = vp.plugin::<FlightRecorder>().expect("attached");
        (
            recorder.tail(),
            recorder.blocks_recorded(),
            recorder.evicted(),
        )
    };

    let oracle = run(Vp::builder().block_cache(false), false);
    let uops = run(Vp::builder().jit(false), false);
    let jit = run(Vp::builder().jit_threshold(1), false);
    let uops_flight = run(Vp::builder().jit(false), true);
    let jit_flight = run(Vp::builder().jit_threshold(1), true);
    let jit_plugin = run_with(Vp::builder().jit_threshold(1), false, true);
    let expected = state(&oracle);
    for (arm, vp) in [
        ("jit(false)", &uops),
        ("jit_threshold(1)", &jit),
        ("jit(false) + flight", &uops_flight),
        ("jit_threshold(1) + flight", &jit_flight),
        ("jit_threshold(1) + block-only plugin", &jit_plugin),
    ] {
        prop_assert_eq!(state(vp), expected, "{}", arm);
    }
    prop_assert_eq!(tail(&jit_flight), tail(&uops_flight), "flight tail");
    assert_bails_add_up("jit_threshold(1)", &jit.1)?;
    assert_bails_add_up("jit_threshold(1) + flight", &jit_flight.1)?;
    assert_bails_add_up("jit_threshold(1) + block-only plugin", &jit_plugin.1)?;
    Ok((
        jit.1.dispatch_stats().jit_exec,
        jit_plugin.1.dispatch_stats().jit_exec,
    ))
}

/// Stuck-at register masks are invisible to the execution tier. For
/// generated programs (counted loops included) with one or two seeded
/// stuck-at masks planted — any register including `x0`, any bit,
/// either polarity — the micro-op engine and the template JIT at
/// threshold 1, with and without a flight recorder, and the JIT with a
/// block-only plugin attached, end in exactly the uncached
/// interpreter's outcome, CPU state and RAM, and the JIT arm's flight
/// tail equals the micro-op engine's. Masked native blocks must
/// actually run somewhere in the sweep, with and without the plugin,
/// so the cases are drawn by hand (deterministically, like `proptest!`)
/// to sum them.
#[test]
fn masked_execution_matches_reference_dispatch() {
    const CASES: u32 = 128;
    let mut rng = proptest::Gen::new(0x6d61_736b_6564);
    let (mut native_blocks, mut native_plugin_blocks) = (0, 0);
    for case in 0..CASES {
        let seed = any::<u64>().sample(&mut rng, case);
        let mem_heavy = any::<bool>().sample(&mut rng, case);
        // The first mask cycles through every register, so each one is
        // covered four times; a second mask, when drawn, is random.
        let mut faults = vec![(
            (case % 32) as u8,
            (0u8..32).sample(&mut rng, case),
            any::<bool>().sample(&mut rng, case),
        )];
        if any::<bool>().sample(&mut rng, case) {
            faults.push((
                (0u8..32).sample(&mut rng, case),
                (0u8..32).sample(&mut rng, case),
                any::<bool>().sample(&mut rng, case),
            ));
        }
        match masked_case(seed, mem_heavy, &faults) {
            Ok((native, native_plugin)) => {
                native_blocks += native;
                native_plugin_blocks += native_plugin;
            }
            Err(e) => panic!(
                "case {case} failed: {e}\n  inputs: seed = {seed}, \
                 mem_heavy = {mem_heavy}, faults = {faults:?}"
            ),
        }
    }
    assert!(native_blocks > 0, "no masked block ran natively");
    assert!(
        native_plugin_blocks > 0,
        "no masked block ran natively with a plugin attached"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block cache is a pure performance feature: for arbitrary
    /// generated programs, including memory-heavy ones, the default
    /// builder (block cache, micro-op engine and template JIT) finishes
    /// in exactly the state of the uncached per-instruction interpreter
    /// (`block_cache(false)`), cycle and instruction counts included.
    #[test]
    fn block_cache_is_transparent(seed in any::<u64>(), mem_heavy in any::<bool>()) {
        let isa = IsaConfig::rv32imfc();
        let cfg = TortureConfig::new(seed).insns(120).isa(isa).mem_heavy(mem_heavy);
        let p = torture_program(&cfg);
        let image = assemble(&p.source).expect("generated programs assemble");
        let cached = run_to_break(Vp::builder().isa(isa), &image, None);
        let uncached = run_to_break(Vp::builder().isa(isa).block_cache(false), &image, None);
        assert_same_state("default", &cached, &uncached, image.base())?;
    }

    /// Snapshot/restore is architecturally invisible: running to an
    /// arbitrary split point, snapshotting, restoring onto a *different*
    /// VP and finishing there produces exactly the state of an
    /// uninterrupted run — registers, counters, RAM and plugin-visible
    /// retirement counts.
    #[test]
    fn snapshot_round_trip_is_transparent(seed in any::<u64>(), split in 1u64..400) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(120).isa(isa));
        let image = assemble(&p.source).expect("generated programs assemble");

        let mut straight = Vp::new(isa);
        boot(&mut straight, &image).expect("boots");
        prop_assert_eq!(straight.run_for(10_000_000), RunOutcome::Break);

        let mut golden = Vp::new(isa);
        boot(&mut golden, &image).expect("boots");
        let at_split = golden.run_for(split);
        let snap = golden.snapshot();

        if at_split == RunOutcome::Break {
            // The program was shorter than the split: the snapshot *is*
            // the final state (re-running a terminated VP would re-execute
            // the ebreak, so a fast-forward consumer must not resume it).
            prop_assert_eq!(snap.instret(), straight.cpu().instret());
            prop_assert_eq!(snap.cycles(), straight.cpu().cycles());
        } else {
            prop_assert_eq!(at_split, RunOutcome::InsnLimit);
            let mut worker = Vp::new(isa);
            worker.restore(&snap);
            prop_assert_eq!(worker.cpu().instret(), snap.instret());
            prop_assert_eq!(worker.run_for(10_000_000), RunOutcome::Break);
            prop_assert_eq!(worker.cpu().cycles(), straight.cpu().cycles());
            prop_assert_eq!(worker.cpu().instret(), straight.cpu().instret());
            assert_bails_add_up("restored worker", &worker)?;
            for i in 0..32u8 {
                let r = Gpr::new(i).expect("index");
                prop_assert_eq!(worker.cpu().gpr(r), straight.cpu().gpr(r));
            }
            let base = image.base();
            prop_assert_eq!(
                worker.bus().dump(base, 4096).expect("ram"),
                straight.bus().dump(base, 4096).expect("ram")
            );
        }
    }

    /// Every execution path is architecturally invisible. For arbitrary
    /// generated programs, including memory-heavy ones where roughly half
    /// the body is scratch-buffer loads and stores, each path finishes in
    /// exactly the state of the uncached per-instruction interpreter: the
    /// oracle, which shares none of their shortcuts (jump cache,
    /// chaining, lowering, RAM fast path, SMC invalidation, throttled
    /// interrupt polling). The four arms, with the default builder
    /// checked by `block_cache_is_transparent`, are the paths users
    /// reach: the micro-op engine (`jit(false)`), the template JIT with
    /// every block promoted at once (`jit_threshold(1)`), a cached VP
    /// running a per-instruction plugin (the path most in-tree plugins
    /// take) and a block-only plugin on the default builder and at JIT
    /// threshold 1 (the micro-op engine and the JIT, RAM accesses on the
    /// fast paths, block events written natively).
    #[test]
    fn lowered_execution_matches_reference_dispatch(seed in any::<u64>(), mem_heavy in any::<bool>()) {
        let isa = IsaConfig::rv32imfc();
        let cfg = TortureConfig::new(seed).insns(120).isa(isa).mem_heavy(mem_heavy);
        let p = torture_program(&cfg);
        let image = assemble(&p.source).expect("generated programs assemble");
        let builder = || Vp::builder().isa(isa);

        let oracle = run_to_break(builder().block_cache(false), &image, None);
        let uops = run_to_break(builder().jit(false), &image, None);
        let jit = run_to_break(builder().jit_threshold(1), &image, None);
        let per_insn = run_to_break(builder(), &image, Some(Box::new(CoveragePlugin::new(isa))));
        let block_only = run_to_break(builder(), &image, Some(Box::new(BlockOnly)));
        let block_only_jit =
            run_to_break(builder().jit_threshold(1), &image, Some(Box::new(BlockOnly)));
        let len = image.bytes().len() as u32;
        let mixed = |builder: VpBuilder| {
            let plugin = MixedSubscriber::new(seed, image.base(), len, 4);
            run_to_break(builder, &image, Some(Box::new(plugin)))
        };
        let mixed_arms = [
            ("mixed plugin, block_cache(false)", mixed(builder().block_cache(false))),
            ("mixed plugin, jit(false)", mixed(builder().jit(false))),
            ("mixed plugin, default", mixed(builder())),
            ("mixed plugin, jit_threshold(1)", mixed(builder().jit_threshold(1))),
        ];

        let arms = [
            ("jit(false)", &uops),
            ("jit_threshold(1)", &jit),
            ("per-insn plugin", &per_insn),
            ("block-only plugin", &block_only),
            ("block-only plugin, jit_threshold(1)", &block_only_jit),
        ];
        for (arm, vp) in arms {
            assert_same_state(arm, vp, &oracle, image.base())?;
        }
        // The mixed-subscription plugin sees the same event stream on
        // every tier, and instruction and RAM events only inside the
        // blocks it subscribed, `Op::Generic` CSR and FP instructions
        // included.
        let events = |vp: &Vp| {
            let plugin = vp.plugin::<MixedSubscriber>().expect("attached");
            (plugin.log.clone(), plugin.stray)
        };
        let want = events(&mixed_arms[0].1);
        prop_assert_eq!(want.1, 0);
        for (arm, vp) in &mixed_arms {
            assert_same_state(arm, vp, &oracle, image.base())?;
            prop_assert!(events(vp) == want, "{} event log", arm);
        }
        // The arms must actually take the paths they stand for
        // (otherwise this differential proves little): the micro-op
        // engine serves RAM accesses from the fast path, with or
        // without a block-only plugin, and the block-only plugin's
        // threshold-1 arm runs native blocks.
        if mem_heavy {
            prop_assert!(uops.dispatch_stats().mem_fast_hits > 0);
            prop_assert!(block_only.dispatch_stats().mem_fast_hits > 0);
        }
        prop_assert!(block_only_jit.dispatch_stats().jit_exec > 0);
    }

    /// The QTA invariant chain `dynamic ≤ qta ≤ static` holds for
    /// arbitrary loop-free generated programs.
    #[test]
    fn qta_invariant_on_random_programs(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(100).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let session = QtaSession::prepare(
            image.base(), image.bytes(), image.entry(), isa, &WcetOptions::new(),
        ).expect("loop-free programs analyze");
        let run = session.run().expect("runs");
        prop_assert!(run.dynamic_cycles <= run.qta_cycles,
            "dynamic {} > qta {}", run.dynamic_cycles, run.qta_cycles);
        prop_assert!(run.qta_cycles <= run.static_wcet,
            "qta {} > static {}", run.qta_cycles, run.static_wcet);
        prop_assert!(run.violations.is_empty());
    }

    /// Coverage merging is monotone and idempotent on identical reports.
    #[test]
    fn coverage_merge_properties(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(80).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let mut vp = Vp::new(isa);
        boot(&mut vp, &image).expect("boots");
        vp.add_plugin(Box::new(CoveragePlugin::new(isa)));
        vp.run_for(10_000_000);
        let single = vp.plugin::<CoveragePlugin>().unwrap().report();
        let mut doubled = single.clone();
        doubled.merge(&single);
        // Coverage ratios are invariant under self-merge (counts double,
        // coverage does not).
        prop_assert_eq!(doubled.insn_type_coverage(), single.insn_type_coverage());
        prop_assert_eq!(doubled.gpr_coverage(), single.gpr_coverage());
        prop_assert_eq!(doubled.total_insns(), 2 * single.total_insns());
    }

    /// A mutant campaign never panics and classifies every mutant, for
    /// arbitrary generated programs and fault lists.
    #[test]
    fn campaign_total_on_random_programs(seed in 0u64..500) {
        let isa = IsaConfig::rv32imc();
        let p = torture_program(&TortureConfig::new(seed).insns(60).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let campaign = Campaign::prepare(
            image.base(), image.bytes(), image.entry(),
            &CampaignConfig::new().isa(isa),
        ).expect("golden runs terminate");
        let gen = GeneratorConfig {
            stuck_per_gpr: 1,
            transient_per_gpr: 1,
            transient_per_fpr: 0,
            opcode_mutants: 4,
            data_mutants: 2,
            seed,
        };
        let mutants = generate_mutants(campaign.golden().trace(), &gen);
        let report = campaign.run_all(&mutants);
        prop_assert_eq!(report.total(), mutants.len());
        let classified: usize = report.counts().values().sum();
        prop_assert_eq!(classified, mutants.len());
    }

    /// Register-coverage of a torture program includes every register the
    /// generator initialized (the generator writes all writable GPRs).
    #[test]
    fn torture_touches_initialized_registers(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(40).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let mut vp = Vp::new(isa);
        boot(&mut vp, &image).expect("boots");
        vp.add_plugin(Box::new(CoveragePlugin::new(isa)));
        vp.run_for(10_000_000);
        let report = vp.plugin::<CoveragePlugin>().unwrap().report();
        // All 32 GPRs: initialization writes + signature reads + x0/sp use.
        prop_assert!(report.gpr_coverage().is_full(),
            "uncovered: {:?}", report.uncovered_gprs());
    }
}
