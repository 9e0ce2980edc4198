//! **Experiment F2** — emulator performance: the translation-block cache
//! (our DBT analog, ablation A1) and plugin instrumentation overhead
//! (ablation A2).
//!
//! "TB cache on" is the default builder: the micro-op engine plus the
//! template JIT. "TB cache off" is the uncached per-instruction
//! interpreter.
//!
//! Expected shape: the block cache yields a measurable speedup (each
//! repetition builds a fresh VP and runs a short kernel, so construction
//! and JIT warm-up keep it well below the steady-state tier ratios
//! `bench_campaign` records); instrumentation costs a bounded factor
//! (QEMU-plugin-like).

use s4e_bench::{build, kernels};
use s4e_core::QtaPlugin;
use s4e_coverage::CoveragePlugin;
use s4e_isa::IsaConfig;
use s4e_vp::{RunOutcome, Vp};
use s4e_wcet::{analyze, TimedCfg, WcetOptions};
use std::time::Instant;

/// Measures guest MIPS for one configuration, repeated to amortize noise.
fn mips(image: &s4e_asm::Image, isa: IsaConfig, cache: bool, plugin: Plug, reps: u32) -> f64 {
    let mut total_insns = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut vp = Vp::builder().isa(isa).block_cache(cache).build();
        vp.load(image.base(), image.bytes()).expect("fits");
        vp.cpu_mut().set_pc(image.entry());
        match &plugin {
            Plug::None => {}
            Plug::Coverage => vp.add_plugin(Box::new(CoveragePlugin::new(isa))),
            Plug::Qta(cfg) => vp.add_plugin(Box::new(QtaPlugin::new(cfg.clone()))),
        }
        let outcome = vp.run_for(200_000_000);
        assert_eq!(outcome, RunOutcome::Break);
        total_insns += vp.cpu().instret();
    }
    total_insns as f64 / t0.elapsed().as_secs_f64() / 1.0e6
}

#[derive(Clone)]
enum Plug {
    None,
    Coverage,
    Qta(TimedCfg),
}

fn main() {
    let isa = IsaConfig::full();
    // A compute-heavy kernel with a hot loop: the TB cache's best case
    // and a realistic instrumentation target.
    let kernel = kernels::matmul(16);
    let image = build(&kernel.source, isa);
    let prog = s4e_bench::reconstruct(&image, isa);
    let report = analyze(&prog, &WcetOptions::new()).expect("analyzes");
    let timed = TimedCfg::build(&prog, &report);
    let reps = 3;

    println!("# F2 — emulator performance (guest MIPS, matmul 16x16)");
    println!();
    println!("## A1: translation-block cache");
    println!();
    println!("| configuration | MIPS |");
    println!("|---|---|");
    let cached = mips(&image, isa, true, Plug::None, reps);
    let uncached = mips(&image, isa, false, Plug::None, reps);
    println!("| TB cache on  | {cached:.1} |");
    println!("| TB cache off | {uncached:.1} |");
    println!("| speedup      | {:.2}x |", cached / uncached);
    assert!(
        cached > uncached * 1.1,
        "shape: the TB cache must give a measurable speedup ({cached:.1} vs {uncached:.1})"
    );

    println!();
    println!("## A2: plugin hook overhead (TB cache on)");
    println!();
    println!("| instrumentation | MIPS | overhead |");
    println!("|---|---|---|");
    let with_cov = mips(&image, isa, true, Plug::Coverage, reps);
    let with_qta = mips(&image, isa, true, Plug::Qta(timed), reps);
    println!("| none            | {cached:.1} | 1.00x |");
    println!(
        "| coverage plugin | {with_cov:.1} | {:.2}x |",
        cached / with_cov
    );
    println!(
        "| QTA plugin      | {with_qta:.1} | {:.2}x |",
        cached / with_qta
    );
    let worst = (cached / with_cov).max(cached / with_qta);
    assert!(
        worst < 10.0,
        "shape: instrumentation overhead should stay bounded, got {worst:.1}x"
    );
    println!();
    println!(
        "F2 shape check: PASS (cache speedup {:.2}x, worst plugin overhead {worst:.2}x)",
        cached / uncached
    );
}
