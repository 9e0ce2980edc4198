//! **Experiment F2** — emulator performance: the translation-block cache
//! (our DBT analog) and plugin instrumentation overhead, for the
//! coverage, profile and QTA plugins.
//!
//! "TB cache on" is the default builder: the micro-op engine plus the
//! template JIT. "TB cache off" is the uncached per-instruction
//! interpreter.
//!
//! Each window builds fresh VPs and runs a short kernel on each, so
//! construction and JIT warm-up stay in every row. After one warm-up
//! pass over all rows, the rows are timed in interleaved rounds and each
//! keeps its fastest window: host throughput drifts between windows,
//! and transient load only ever slows one down.
//!
//! Expected shape: the block cache yields a measurable speedup (below
//! the steady-state tier ratios `bench_campaign` records, since
//! construction and warm-up weigh on these short runs); the coverage and
//! QTA plugins cost a bounded factor (QEMU-plugin-like). The profile
//! plugin's row is reported, not gated.

use s4e_bench::{build, kernels};
use s4e_core::QtaPlugin;
use s4e_coverage::CoveragePlugin;
use s4e_isa::IsaConfig;
use s4e_obs::ProfilePlugin;
use s4e_vp::{RunOutcome, Vp};
use s4e_wcet::{analyze, TimedCfg, WcetOptions};
use std::time::Instant;

/// The plugin a row attaches.
#[derive(Clone, Copy)]
enum Plug {
    None,
    Coverage,
    Profile,
    Qta,
}

/// The figure's rows: label, block cache on, attached plugin.
const ROWS: [(&str, bool, Plug); 5] = [
    ("none", true, Plug::None),
    ("TB cache off", false, Plug::None),
    ("coverage plugin", true, Plug::Coverage),
    ("profile plugin", true, Plug::Profile),
    ("QTA plugin", true, Plug::Qta),
];

/// Fresh VPs per window.
const REPS: u32 = 3;
/// Timed rounds after the warm-up pass.
const ROUNDS: u32 = 20;

/// Guest MIPS of one window: `REPS` fresh VPs, each run to `ebreak`.
fn window(
    image: &s4e_asm::Image,
    isa: IsaConfig,
    timed: &TimedCfg,
    cache: bool,
    plug: Plug,
) -> f64 {
    let mut total_insns = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        let mut vp = Vp::builder().isa(isa).block_cache(cache).build();
        vp.load(image.base(), image.bytes()).expect("fits");
        vp.cpu_mut().set_pc(image.entry());
        match plug {
            Plug::None => {}
            Plug::Coverage => vp.add_plugin(Box::new(CoveragePlugin::new(isa))),
            Plug::Profile => vp.add_plugin(Box::new(ProfilePlugin::new())),
            Plug::Qta => vp.add_plugin(Box::new(QtaPlugin::new(timed.clone()))),
        }
        let outcome = vp.run_for(200_000_000);
        assert_eq!(outcome, RunOutcome::Break);
        total_insns += vp.cpu().instret();
    }
    total_insns as f64 / t0.elapsed().as_secs_f64() / 1.0e6
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

    let measure = |cache, plug| window(&image, isa, &timed, cache, plug);
    for &(_, cache, plug) in &ROWS {
        measure(cache, plug);
    }
    let mut best = [0.0f64; ROWS.len()];
    for _ in 0..ROUNDS {
        for (i, &(_, cache, plug)) in ROWS.iter().enumerate() {
            best[i] = best[i].max(measure(cache, plug));
        }
    }
    let [cached, uncached, coverage, _, qta] = best;

    println!(
        "# F2 — emulator performance (guest MIPS, matmul 16x16, \
         best of {ROUNDS} interleaved windows)"
    );
    println!();
    println!("## Translation-block cache");
    println!();
    println!("| configuration | MIPS |");
    println!("|---|---|");
    println!("| TB cache on  | {cached:.1} |");
    println!("| TB cache off | {uncached:.1} |");
    println!("| speedup      | {:.2}x |", cached / uncached);
    assert!(
        cached > uncached * 1.1,
        "shape: the TB cache must give a measurable speedup ({cached:.1} vs {uncached:.1})"
    );

    println!();
    println!("## Plugin hook overhead (TB cache on)");
    println!();
    println!("| instrumentation | MIPS | overhead |");
    println!("|---|---|---|");
    for (&(label, cache, _), mips) in ROWS.iter().zip(best) {
        if cache {
            println!("| {label:<15} | {mips:.1} | {:.2}x |", cached / mips);
        }
    }
    let worst = (cached / coverage).max(cached / qta);
    assert!(
        worst < 10.0,
        "shape: instrumentation overhead should stay bounded, got {worst:.1}x"
    );
    println!();
    println!(
        "F2 shape check: PASS (cache speedup {:.2}x, worst gated plugin overhead {worst:.2}x)",
        cached / uncached
    );
}
