//! # s4e-bench — the experiment harness
//!
//! Shared machinery for the table/figure regeneration binaries (one per
//! experiment in DESIGN.md): the benchmark [`kernels`], kernel execution
//! helpers, and WCET-annotation plumbing.

#![warn(missing_docs)]

pub mod kernels;

use s4e_asm::Image;
use s4e_cfg::Program;
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{RunOutcome, TimingModel, Vp};
use s4e_wcet::{LoopBounds, WcetOptions};

/// The result of running one kernel to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Final `a0` (the kernel's functional result).
    pub a0: u32,
    /// Consumed cycles under the reference timing model.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
}

/// Assembles a kernel for the given ISA.
///
/// # Panics
///
/// Panics with the assembler diagnostic if the kernel does not assemble —
/// kernels are harness-owned code, so this is a bug, not an input error.
pub fn build(source: &str, isa: IsaConfig) -> Image {
    let opts = s4e_asm::AsmOptions::new().isa(isa);
    s4e_asm::assemble_with(source, &opts)
        .unwrap_or_else(|e| panic!("kernel must assemble: {e}\n{source}"))
}

/// Assembles a kernel and runs it to its `ebreak` on a fresh VP.
///
/// # Panics
///
/// Panics if the kernel does not assemble, or does not terminate at
/// `ebreak` within 200 M instructions.
pub fn run_kernel(source: &str, isa: IsaConfig) -> RunStats {
    let image = build(source, isa);
    let mut vp = Vp::new(isa);
    vp.load(image.base(), image.bytes())
        .expect("kernel fits RAM");
    vp.cpu_mut().set_pc(image.entry());
    let outcome = vp.run_for(200_000_000);
    assert_eq!(outcome, RunOutcome::Break, "kernel must finish at ebreak");
    RunStats {
        a0: vp.cpu().gpr(Gpr::A0),
        cycles: vp.cpu().cycles(),
        instret: vp.cpu().instret(),
    }
}

/// Builds the [`WcetOptions`] for a kernel, resolving its label-keyed
/// annotations to loop-header addresses.
///
/// # Panics
///
/// Panics if an annotation label is not a symbol of the image.
pub fn wcet_options_for(kernel: &kernels::Kernel, image: &Image) -> WcetOptions {
    let mut bounds = LoopBounds::new();
    for (label, bound) in &kernel.annotations {
        let addr = image
            .symbol(label)
            .unwrap_or_else(|| panic!("annotation label `{label}` must be a symbol"));
        bounds.set(addr, *bound);
    }
    WcetOptions {
        timing: TimingModel::new(),
        bounds,
        infer_bounds: true,
    }
}

/// Reconstructs the program CFG of an image.
///
/// # Panics
///
/// Panics if reconstruction fails (kernels are harness-owned).
pub fn reconstruct(image: &Image, isa: IsaConfig) -> Program {
    Program::from_bytes(image.base(), image.bytes(), image.entry(), &isa)
        .expect("kernel CFG reconstructs")
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::*;

    #[test]
    fn fusion_fires_on_the_dispatch_bench_kernel() {
        // The state-machine kernel is built from decrement-and-branch
        // (`addi rd, rd, -1; bnez rd`) and compare-immediate
        // (`li rd, C; beq/bne rs, rd`) idioms — exactly the AddBranch
        // fusion targets. JIT pinned off so `fused_exec` counts the
        // interpreter's own fused retirement, the number the bench
        // campaign reports as `fused_insn_share`.
        let k = state_machine(128);
        let image = build(&k.source, IsaConfig::rv32imc());
        let mut vp = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
        vp.load(image.base(), image.bytes()).expect("fits RAM");
        vp.cpu_mut().set_pc(image.entry());
        assert_eq!(vp.run_for(200_000_000), RunOutcome::Break);
        let stats = vp.dispatch_stats();
        assert!(stats.fused_lowered > 0, "{stats:?}");
        // Each fused uop retires two instructions; the share must be a
        // real fraction of the kernel, not the former 0.0012 rounding
        // error.
        let share = 2.0 * stats.fused_exec as f64 / vp.cpu().instret() as f64;
        assert!(
            share > 0.05,
            "fused_insn_share {share:.4} too low (fused_exec {}, instret {})",
            stats.fused_exec,
            vp.cpu().instret()
        );
    }

    #[test]
    fn wcet_kernels_run_and_produce_results() {
        for k in wcet_benchmarks() {
            let stats = run_kernel(&k.source, IsaConfig::full());
            assert!(stats.instret > 50, "{} too trivial", k.name);
        }
    }

    #[test]
    fn bmi_pairs_are_functionally_equivalent() {
        for pair in bmi_pairs(16) {
            let bmi = run_kernel(&pair.bmi, IsaConfig::full());
            let base = run_kernel(&pair.base, IsaConfig::full());
            assert_eq!(bmi.a0, base.a0, "{} variants disagree", pair.name);
            assert!(
                bmi.cycles < base.cycles,
                "{}: BMI ({} cy) must beat baseline ({} cy)",
                pair.name,
                bmi.cycles,
                base.cycles
            );
        }
    }

    #[test]
    fn bmi_baselines_run_without_xbmi() {
        // The baseline variants must be valid RV32IM code.
        for pair in bmi_pairs(8) {
            let stats = run_kernel(&pair.base, IsaConfig::rv32im());
            assert!(stats.instret > 0, "{}", pair.name);
        }
    }

    #[test]
    fn binary_search_finds_needle() {
        let k = binary_search(6);
        let stats = run_kernel(&k.source, IsaConfig::full());
        assert_eq!(stats.a0, (1 << 6) - 2, "index of the needle");
    }

    #[test]
    fn crc_value_is_stable() {
        let a = run_kernel(&crc32(32).source, IsaConfig::full());
        let b = run_kernel(&crc32(32).source, IsaConfig::full());
        assert_eq!(a.a0, b.a0);
        assert_ne!(a.a0, 0);
    }

    #[test]
    fn wcet_analysis_covers_every_kernel() {
        for k in wcet_benchmarks() {
            let image = build(&k.source, IsaConfig::full());
            let prog = reconstruct(&image, IsaConfig::full());
            let opts = wcet_options_for(&k, &image);
            let report =
                s4e_wcet::analyze(&prog, &opts).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let dynamic = run_kernel(&k.source, IsaConfig::full()).cycles;
            assert!(
                dynamic <= report.total_wcet(),
                "{}: dynamic {} > static {}",
                k.name,
                dynamic,
                report.total_wcet()
            );
        }
    }
}
