//! The `vp-run` and `qta-cosim` workloads: one binary at a time on the
//! virtual prototype, natively (template JIT) or co-simulated with the
//! QTA plugin, which keeps execution on the micro-op interpreter.

use crate::kernels;
use crate::{
    assemble, coverage, isa, repeat, set_trace_metrics, us, Ctx, Report, Samples, Scale, Timeline,
};
use s4e_asm::Image;
use s4e_core::QtaSession;
use s4e_isa::Gpr;
use s4e_vp::{DispatchStats, RunOutcome, Vp, VpBuilder};
use s4e_wcet::WcetOptions;
use std::time::{Duration, Instant};

/// Instruction budget of one program run: far beyond every program's
/// length, so only a runaway hits it.
const BUDGET: u64 = 1_000_000_000;

/// Set-ups a run makes back to back before its first repetition: they
/// warm up the set-up path and give the traced run its per-layer set-up
/// samples. `setup_s` comes from the set-ups between repetitions.
fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 25,
        Scale::Tiny => 2,
    }
}

/// The per-layer MIPS metric of a program role.
fn mips_metric(role: &str) -> &'static str {
    match role {
        "branchy" => "vp.mips.branchy",
        "memory" => "vp.mips.memory",
        _ => "vp.mips.compute",
    }
}

/// What every run of a program must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    outcome: RunOutcome,
    a0: u32,
    instret: u64,
    cycles: u64,
}

fn boot(builder: VpBuilder, image: &Image) -> Vp {
    let mut vp = builder.build();
    vp.load(image.base(), image.bytes())
        .expect("benchmark programs fit the default RAM");
    vp.cpu_mut().set_pc(image.entry());
    vp
}

fn run(vp: &mut Vp) -> Outcome {
    let outcome = vp.run_for(BUDGET);
    Outcome {
        outcome,
        a0: vp.cpu().gpr(Gpr::A0),
        instret: vp.cpu().instret(),
        cycles: vp.cpu().cycles(),
    }
}

/// Records `got` as program `i`'s outcome, or checks it against the one
/// recorded first.
fn expect_same<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    first: &mut [Option<T>],
    i: usize,
    got: T,
    what: &str,
) {
    match &first[i] {
        None => first[i] = Some(got),
        Some(want) if *want != got => {
            report.mismatch(format!("{what}: {got:?}, earlier {want:?}"));
        }
        Some(_) => {}
    }
}

/// Per-layer dispatch ratios of one repetition.
fn dispatch_layers(samples: &mut Samples, stats: &DispatchStats, instret: u64) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let lookups = stats.chain_hits + stats.jmp_cache_hits + stats.jmp_cache_misses;
    samples.push("jit.blocks_compiled", stats.jit_blocks as f64);
    samples.push(
        "jit.native_share",
        ratio(stats.jit_exec, stats.jit_exec + lookups),
    );
    samples.push("jit.bailouts", stats.jit_bailouts as f64);
    samples.push("uop.fused_insn_share", ratio(2 * stats.fused_exec, instret));
    samples.push("uop.chain_hit_rate", stats.chain_hit_rate());
    samples.push(
        "bus.mem_fast_hit_rate",
        ratio(
            stats.mem_fast_hits,
            stats.mem_fast_hits + stats.mem_slow_hits,
        ),
    );
}

/// `vp-run`: each repetition boots a fresh VP per program and runs it to
/// `ebreak` on the default engine (template JIT over the micro-op
/// interpreter).
pub fn vp_run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut timeline = Timeline::new(ctx.trace_out.as_deref());
    let programs = kernels::vp_programs(ctx.seed, ctx.scale);
    let images: Vec<Image> = programs.iter().map(|p| assemble(&p.source)).collect();
    let builder = || Vp::builder().isa(isa());

    let mut samples = Samples::default();
    for _ in 0..setup_reps(ctx.scale) {
        for image in &images {
            let t0 = Instant::now();
            let mut vp = builder().build();
            let t1 = Instant::now();
            vp.load(image.base(), image.bytes())
                .expect("benchmark programs fit the default RAM");
            let t2 = Instant::now();
            samples.push("vp.build_us", us(t0, t1));
            samples.push("vp.load_us", us(t1, t2));
            timeline.span("build", "vp", 0, t0, t1);
            timeline.span("load", "vp", 0, t1, t2);
        }
    }
    let set_up = || {
        let mut total = Duration::ZERO;
        for image in &images {
            let start = Instant::now();
            let mut vp = builder().build();
            vp.load(image.base(), image.bytes())
                .expect("benchmark programs fit the default RAM");
            total += start.elapsed();
        }
        total
    };

    let mut first: Vec<Option<Outcome>> = vec![None; programs.len()];
    let mut coverages = Vec::new();
    let reps = repeat(ctx, set_up, |trace| {
        let start = Instant::now();
        let (mut stats, mut instret, mut spans) = (DispatchStats::default(), 0, Vec::new());
        for (i, (program, image)) in programs.iter().zip(&images).enumerate() {
            let t0 = Instant::now();
            let mut vp = boot(builder(), image);
            let t1 = Instant::now();
            let out = run(&mut vp);
            let t2 = Instant::now();
            if trace {
                stats.merge(&vp.dispatch_stats());
            }
            drop(vp);
            let t3 = Instant::now();
            report.count(1, u64::from(out.outcome != RunOutcome::Break));
            expect_same(&mut report, &mut first, i, out, program.name);
            if trace {
                instret += out.instret;
                samples.push(mips_metric(program.role), out.instret as f64 / us(t1, t2));
                timeline.span("boot", "vp", 0, t0, t1);
                timeline.span(program.name, "vp", 0, t1, t2);
                timeline.span("drop", "vp", 0, t2, t3);
                spans.push((timeline.epoch_us(t0), timeline.epoch_us(t3)));
            }
        }
        let end = Instant::now();
        if trace {
            dispatch_layers(&mut samples, &stats, instret);
            coverages.push(coverage(
                timeline.epoch_us(start),
                timeline.epoch_us(end),
                spans,
            ));
        }
        end - start
    });
    report.set_setup(&reps.setup);
    report.set("peak_rss_mb", &reps.peak_rss_mb);
    let work: u64 = first.iter().flatten().map(|o| o.instret).sum();
    report.set_work_rate(work as f64, &reps.plain);
    set_trace_metrics(&mut report, &reps, &coverages);
    samples.report(&mut report);

    // Oracle: the per-instruction interpreter (no JIT, no block cache)
    // must end every program with the same result, instret and cycles.
    for (i, (program, image)) in programs.iter().zip(&images).enumerate() {
        let mut vp = boot(builder().jit(false).block_cache(false), image);
        let want = run(&mut vp);
        report.count(1, 0);
        if first[i] != Some(want) {
            report.mismatch(format!(
                "{}: default engine {:?}, interpreter {want:?}",
                program.name, first[i]
            ));
        }
    }
    timeline.finish();
    report
}

/// `qta-cosim`: each repetition co-simulates every program with the QTA
/// plugin against its WCET-annotated graph.
pub fn qta_cosim(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut timeline = Timeline::new(ctx.trace_out.as_deref());
    let programs = kernels::qta_programs(ctx.seed, ctx.scale);
    let images: Vec<Image> = programs.iter().map(|p| assemble(&p.source)).collect();
    let options = WcetOptions::new();
    let prepare = |image: &Image| {
        QtaSession::prepare(image.base(), image.bytes(), image.entry(), isa(), &options)
            .expect("the WCET analysis bounds every benchmark loop")
    };

    let mut samples = Samples::default();
    let mut sessions = Vec::new();
    for _ in 0..setup_reps(ctx.scale) {
        let t0 = Instant::now();
        sessions = images.iter().map(prepare).collect();
        let t1 = Instant::now();
        timeline.span("QtaSession::prepare", "qta", 0, t0, t1);
    }
    let set_up = || {
        let start = Instant::now();
        let prepared: Vec<QtaSession> = images.iter().map(prepare).collect();
        let elapsed = start.elapsed();
        drop(prepared);
        elapsed
    };
    if ctx.trace {
        // The two layers `prepare` calls, timed one by one.
        for _ in 0..setup_reps(ctx.scale) {
            let (mut cfg, mut wcet) = (0.0, 0.0);
            for image in &images {
                let t0 = Instant::now();
                let program = s4e_cfg::Program::from_bytes(
                    image.base(),
                    image.bytes(),
                    image.entry(),
                    &isa(),
                )
                .expect("benchmark programs reconstruct");
                let t1 = Instant::now();
                s4e_wcet::analyze(&program, &options).expect("benchmark programs analyze");
                let t2 = Instant::now();
                cfg += (t1 - t0).as_secs_f64();
                wcet += (t2 - t1).as_secs_f64();
                timeline.span("Program::from_bytes", "cfg", 0, t0, t1);
                timeline.span("analyze", "wcet", 0, t1, t2);
            }
            samples.push("cfg.reconstruct_s", cfg);
            samples.push("wcet.analyze_s", wcet);
        }
    }

    let mut first: Vec<Option<(RunOutcome, u64, u64, u64)>> = vec![None; programs.len()];
    let mut coverages = Vec::new();
    let reps = repeat(ctx, set_up, |trace| {
        let start = Instant::now();
        let (mut visits, mut dynamic, mut wcet, mut spans) = (0, 0, 0, Vec::new());
        for (i, (program, session)) in programs.iter().zip(&sessions).enumerate() {
            let t0 = Instant::now();
            let run = session
                .run()
                .expect("benchmark programs fit the default RAM");
            let t1 = Instant::now();
            let sound = run.outcome == RunOutcome::Break
                && run.invariant_holds()
                && run.violations.is_empty();
            report.count(1, 0);
            if !sound {
                report.mismatch(format!(
                    "{}: {:?}, dynamic {} <= QTA {} <= static {} must hold, {} bound violations",
                    program.name,
                    run.outcome,
                    run.dynamic_cycles,
                    run.qta_cycles,
                    run.static_wcet,
                    run.violations.len()
                ));
            }
            let key = (run.outcome, run.instret, run.dynamic_cycles, run.qta_cycles);
            expect_same(&mut report, &mut first, i, key, program.name);
            if trace {
                visits += run.visits.values().sum::<u64>();
                dynamic += run.dynamic_cycles;
                wcet += run.static_wcet;
                timeline.span(program.name, "qta", 0, t0, t1);
                spans.push((timeline.epoch_us(t0), timeline.epoch_us(t1)));
            }
        }
        let end = Instant::now();
        if trace {
            samples.push("qta.run_s", (end - start).as_secs_f64());
            samples.push("qta.block_visits", visits as f64);
            samples.push("qta.pessimism", wcet as f64 / dynamic.max(1) as f64);
            coverages.push(coverage(
                timeline.epoch_us(start),
                timeline.epoch_us(end),
                spans,
            ));
        }
        end - start
    });
    report.set_setup(&reps.setup);
    report.set("peak_rss_mb", &reps.peak_rss_mb);
    let work: u64 = first.iter().flatten().map(|k| k.1).sum();
    report.set_work_rate(work as f64, &reps.plain);
    set_trace_metrics(&mut report, &reps, &coverages);
    samples.report(&mut report);
    timeline.finish();
    report
}
