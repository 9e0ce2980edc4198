//! The `vp-run` kernels' run bookkeeping on the template JIT against the
//! micro-op engine (`jit(false)`). Native stores test-then-set their
//! page's dirty bit, and native code keeps the run's cycle, block and
//! fused-op counts in host registers until it returns: the dirty-page
//! set, the cycle count and `fused_exec` must come out exactly as the
//! micro-op engine leaves them. Each kernel runs from its load, and
//! again from a snapshot restored after a first run (on the retained
//! native code), unmasked and with a stuck-at mask armed (the masked
//! engine). The kernels live in this crate, which depends on `s4e-vp`,
//! so the differential lives here rather than beside the VP's own JIT
//! tests.

use s4e_bench::build;
use s4e_bench::kernels::{matmul, memcpy_checksum, state_machine};
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{RunOutcome, Vp};

#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    outcome: RunOutcome,
    dirty: Vec<usize>,
    cycles: u64,
    fused_exec: u64,
}

/// Runs `vp` to its end and returns what the run left in its
/// bookkeeping, with the native block executions behind it.
fn footprint(vp: &mut Vp) -> (Footprint, u64) {
    let outcome = vp.run_for(100_000_000);
    let stats = vp.take_dispatch_stats();
    let footprint = Footprint {
        outcome,
        dirty: vp.bus().dirty_pages().collect(),
        cycles: vp.cpu().cycles(),
        fused_exec: stats.fused_exec,
    };
    (footprint, stats.jit_exec)
}

#[test]
fn vp_run_kernels_keep_the_interpreters_bookkeeping() {
    let isa = IsaConfig::rv32imc();
    // `state_machine`'s input spans more than 64 pages, so its loaded
    // dirty set covers several bitmap words; `memcpy_checksum` is the
    // store-bound kernel.
    for kernel in [state_machine(300_000), memcpy_checksum(4096, 4), matmul(16)] {
        let image = build(&kernel.source, isa);
        for masked in [false, true] {
            let [native, interpreted] = [true, false].map(|jit| {
                let boot = || {
                    let mut vp = Vp::builder().isa(isa).jit(jit).build();
                    vp.load(image.base(), image.bytes()).expect("loads");
                    vp.cpu_mut().set_pc(image.entry());
                    vp
                };
                // No kernel uses `tp`: the mask changes no result, but
                // selects the masked engine.
                let arm = |vp: &mut Vp| {
                    if masked {
                        vp.cpu_mut().plant_gpr_fault(Gpr::TP, 3, true);
                    }
                };
                let mut vp = boot();
                arm(&mut vp);
                let loaded = footprint(&mut vp);
                let mut vp = boot();
                let snapshot = vp.snapshot();
                arm(&mut vp);
                let first = footprint(&mut vp);
                vp.restore(&snapshot);
                arm(&mut vp);
                let restored = footprint(&mut vp);
                [loaded, first, restored]
            });
            let name = kernel.name;
            let mut words: Vec<usize> = native[0].0.dirty.iter().map(|page| page / 64).collect();
            words.dedup();
            assert!(name != "state_machine" || words.len() > 1, "{words:?}");
            let phases = ["loaded", "first", "restored"];
            let pairs = native.into_iter().zip(interpreted);
            for (phase, (native, interpreted)) in phases.iter().zip(pairs) {
                assert_eq!(native.0.outcome, RunOutcome::Break, "{name}, {phase}");
                assert_eq!(native.0, interpreted.0, "{name}, {phase}, masked {masked}");
                assert!(
                    native.1 > 0,
                    "{name}, {phase}, masked {masked}: nothing native"
                );
                assert_eq!(interpreted.1, 0, "{name}, {phase}, masked {masked}");
            }
        }
    }
}
