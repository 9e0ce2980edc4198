//! **Experiment C1**: the checks no other harness makes, recorded in
//! `BENCH_campaign.json`. The end-to-end speed of `s4e campaign` belongs
//! to the repository benchmark (`benchmark/`); this binary asks whether
//! each acceleration is exact and still pays for itself.
//!
//! Three classification-identity asserts (a failure panics before the
//! record is written):
//!
//! 1. golden-prefix fast-forward against the legacy full re-run, on a
//!    1120-mutant sweep (32 bits × 35 injection times, blind in time
//!    over twice the golden length) with pruning off, so every mutant
//!    executes;
//! 2. the same sweep with the template JIT on against `--no-jit`; the
//!    JIT arm must also adopt retained native code in mutant suffixes;
//! 3. pruned against executed, on every tenth spec of the generator's
//!    mix scaled past 10^5 mutants; pruning must classify some of them.
//!
//! Five shape gates (checked after the record is written):
//!
//! - fast-forward ≥ 3x the legacy sweep's throughput;
//! - the JIT in mutant suffixes ≥ 2x the `--no-jit` sweep's;
//! - on a branch-heavy kernel, the micro-op engine ≥ 5.6x the uncached
//!   interpreter and the template JIT ≥ 3x the micro-op engine;
//! - on a memory-bound kernel, every access of the micro-op engine takes
//!   the RAM fast path.
//!
//! Timed arms run in interleaved rounds and keep each arm's fastest
//! window: host throughput drifts between windows, and transient load
//! only ever slows one down. The record names the git revision, worker
//! thread count and host CPU it was measured with.

use s4e_asm::Image;
use s4e_bench::build;
use s4e_bench::kernels::{matmul, memcpy_checksum, state_machine};
use s4e_faultsim::{
    generate_mutants, Campaign, CampaignConfig, CampaignProgress, FaultKind, FaultSpec,
    FaultTarget, GeneratorConfig,
};
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{DispatchStats, RunOutcome, Vp};
use std::sync::Arc;
use std::time::Instant;

/// The current git revision — with a `-dirty` suffix when the work tree
/// differs from `HEAD`, so numbers from uncommitted builds never
/// masquerade as a reproducible revision — or `"unknown"` outside a
/// work tree.
fn git_revision() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(rev) = rev else {
        return "unknown".to_string();
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// The host CPU model from `/proc/cpuinfo`, or `"unknown"`.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let isa = IsaConfig::full();
    // A 16×16 matmul: the legacy sweep takes tens of milliseconds.
    let image = build(&matmul(16).source, isa);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let git_rev = git_revision();
    let cpu_model = host_cpu();
    let prepare = |config: CampaignConfig| {
        Campaign::prepare(
            image.base(),
            image.bytes(),
            image.entry(),
            &config.isa(isa).threads(threads),
        )
        .expect("prepares")
    };

    // --- identities 1 and 2: fast-forward, and the JIT in suffixes -----
    let legacy = prepare(CampaignConfig::new().fast_forward(false).prune(false));
    let mut fast = prepare(CampaignConfig::new().prune(false));
    let nojit = prepare(CampaignConfig::new().prune(false).jit(false));
    assert!(fast.fast_forward_active());
    // The fast arm's dispatch counters show whether mutant suffixes ran
    // native code at all.
    let progress = Arc::new(CampaignProgress::new());
    fast.set_progress(Arc::clone(&progress));

    // Blind in time: a real SEU campaign does not know when the
    // workload finishes, so injection times run past the golden length.
    let golden_len = fast.golden().instret();
    let specs: Vec<FaultSpec> = (0..32u8)
        .flat_map(|bit| {
            (0..35u64).map(move |t| FaultSpec {
                target: FaultTarget::GprBit { reg: Gpr::A0, bit },
                kind: FaultKind::Transient {
                    at_insn: t * 2 * golden_len / 34,
                },
            })
        })
        .collect();
    assert_eq!(specs.len(), 1120);

    let arms = [&legacy, &fast, &nojit];
    let mut best = [f64::INFINITY; 3];
    let mut reports = Vec::new();
    for _ in 0..2 {
        reports.clear();
        for (i, campaign) in arms.iter().enumerate() {
            let t0 = Instant::now();
            reports.push(campaign.run_all(&specs));
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
        }
    }
    let [legacy_s, ff_s, nojit_s] = best;
    assert_eq!(
        reports[0].results(),
        reports[1].results(),
        "fast-forward must be classification-identical"
    );
    assert_eq!(
        reports[2].results(),
        reports[1].results(),
        "JIT-in-mutants must be classification-identical"
    );
    let native = progress.dispatch_stats();
    assert!(
        native.jit_retained > 0 && native.jit_exec > 0,
        "mutant suffixes must actually adopt retained native code: {native:?}"
    );
    // Every arm executes all 1120 mutants, so wall-time ratios are
    // executed-mutant throughput ratios.
    let campaign_speedup = legacy_s / ff_s;
    let campaign_jit_speedup = nojit_s / ff_s;

    println!("# C1 — campaign accelerations");
    println!();
    println!("git: {git_rev}, threads: {threads}, cpu: {cpu_model}");
    println!();
    println!("| mode | mutants | wall time | mutants/s |");
    println!("|---|---|---|---|");
    for (label, secs) in [
        ("legacy (full re-run)", legacy_s),
        ("fast-forward", ff_s),
        ("fast-forward, --no-jit", nojit_s),
    ] {
        let n = specs.len();
        println!("| {label} | {n} | {secs:.3} s | {:.0} |", n as f64 / secs);
    }
    println!();
    println!("fast-forward speedup: {campaign_speedup:.2}x");
    println!("JIT-in-mutants speedup: {campaign_jit_speedup:.2}x over interpreted suffixes");
    println!(
        "fast-forward and JIT-on vs --no-jit classification identity: PASS ({} specs, \
         {} native block executions)",
        specs.len(),
        native.jit_exec
    );

    // --- identity 3: pruned vs executed --------------------------------
    // The generator's mix scaled past 10^5 mutants and sorted by
    // injection point, so the shared golden advancer produces prefix
    // snapshots just ahead of their consumers; every tenth spec runs
    // with pruning on and off.
    let trace = fast.golden().trace();
    let base = generate_mutants(trace, &GeneratorConfig::new(0xC1));
    let factor = 100_000usize.div_ceil(base.len().max(1));
    let mut scaled = generate_mutants(trace, &GeneratorConfig::new(0xC1).scaled(factor));
    scaled.sort_by_key(|s| match s.kind {
        FaultKind::StuckAt { .. } => 0,
        FaultKind::Transient { at_insn } => at_insn,
    });
    let sub_specs: Vec<FaultSpec> = scaled.iter().copied().step_by(10).collect();
    let mut pruning = prepare(CampaignConfig::new());
    let prune_progress = Arc::new(CampaignProgress::new());
    pruning.set_progress(Arc::clone(&prune_progress));
    let pruned = pruning.run_all(&sub_specs);
    let executed = fast.run_all(&sub_specs);
    assert_eq!(
        pruned.results(),
        executed.results(),
        "pruned sweep must be classification-identical to full execution"
    );
    let snap = prune_progress.snapshot();
    let unrun = snap.counter("campaign_pruned_dead").unwrap_or(0)
        + snap.counter("campaign_pruned_dedup").unwrap_or(0);
    assert!(
        unrun > 0,
        "pruning must classify some of the subsample without running it"
    );
    println!(
        "pruned-vs-executed classification identity: PASS ({} specs, {unrun} not run)",
        sub_specs.len()
    );

    // --- bare dispatch -------------------------------------------------
    // One VP per tier, reset between runs by restoring a post-load
    // snapshot (identical cost on all sides); the window is time-based
    // so each tier runs long enough to be stable. 4096 events ≈ 55k
    // instructions per run: long enough that per-run warm-up
    // (translation, and for the JIT promotion and compilation) amortizes.
    let branchy = build(&state_machine(4096).source, isa);
    let dispatch = |image: &Image, cache: bool, jit: bool| {
        let mut vp = Vp::builder().isa(isa).block_cache(cache).jit(jit).build();
        vp.load(image.base(), image.bytes()).expect("fits RAM");
        vp.cpu_mut().set_pc(image.entry());
        let boot = vp.snapshot();
        let mut insns = 0u64;
        let mut per_run = 0u64;
        let mut runs = 0u32;
        let t0 = Instant::now();
        while runs < 20 || t0.elapsed().as_secs_f64() < 0.5 {
            vp.restore(&boot);
            let outcome = vp.run_for(200_000_000);
            assert_eq!(outcome, RunOutcome::Break);
            per_run = vp.cpu().instret();
            insns += per_run;
            runs += 1;
        }
        let mips = insns as f64 / t0.elapsed().as_secs_f64() / 1e6;
        (per_run, mips, vp.dispatch_stats())
    };
    // The uncached interpreter, the micro-op engine (`--no-jit`) and the
    // default template JIT, in three interleaved rounds.
    let tiers = [(false, false), (true, false), (true, true)];
    let mut best: [Option<(u64, f64, DispatchStats)>; 3] = [None; 3];
    for _ in 0..3 {
        for (i, &(cache, jit)) in tiers.iter().enumerate() {
            let sample = dispatch(&branchy, cache, jit);
            if best[i].is_none_or(|b| sample.1 > b.1) {
                best[i] = Some(sample);
            }
        }
    }
    let [int, uop, jit] = best.map(|b| b.expect("measured"));
    assert_eq!(uop.0, int.0, "dispatch tier must not change results");
    assert_eq!(jit.0, int.0, "dispatch tier must not change results");
    assert!(
        jit.2.jit_blocks > 0 && jit.2.jit_exec > 0,
        "the JIT tier must actually execute native code: {:?}",
        jit.2
    );
    let (mips_int, mips_uop, mips_jit) = (int.1, uop.1, jit.1);
    let uop_speedup = mips_uop / mips_int;
    let jit_speedup = mips_jit / mips_uop;

    println!();
    println!("# bare dispatch (branch-heavy kernel, best of 3 interleaved)");
    println!();
    println!("| tier | MIPS |");
    println!("|---|---|");
    println!("| interpreter (uncached, per-insn) | {mips_int:.1} |");
    println!("| micro-op engine | {mips_uop:.1} |");
    println!("| template JIT | {mips_jit:.1} |");
    println!();
    println!("micro-op engine over interpreter: {uop_speedup:.2}x");
    println!("template JIT over micro-op engine: {jit_speedup:.2}x");

    // --- RAM fast path -------------------------------------------------
    // A load/store-dominated kernel whose accesses are all aligned and
    // inside RAM, on the micro-op engine: the JIT's own memory handling
    // would fold into the counters otherwise.
    let memory = build(&memcpy_checksum(256, 8).source, isa);
    let (_, _, mem) = dispatch(&memory, true, false);
    let mem_accesses = mem.mem_fast_hits + mem.mem_slow_hits;
    let mem_fast_hit_rate = mem.mem_fast_hits as f64 / mem_accesses.max(1) as f64;
    println!();
    println!(
        "memory-bound kernel: fast-path hit rate {:.1}% ({} slow-path accesses)",
        mem_fast_hit_rate * 100.0,
        mem.mem_slow_hits
    );

    let json = format!(
        "{{\n  \"git_revision\": \"{}\",\n  \"host_cpu\": \"{}\",\n  \"threads\": {threads},\n  \
         \"mutants\": {},\n  \"legacy_s\": {legacy_s:.6},\n  \"fast_forward_s\": {ff_s:.6},\n  \
         \"campaign_nojit_s\": {nojit_s:.6},\n  \"campaign_speedup\": {campaign_speedup:.3},\n  \
         \"campaign_jit_speedup\": {campaign_jit_speedup:.3},\n  \
         \"interpreter_mips\": {mips_int:.3},\n  \"uop_engine_mips\": {mips_uop:.3},\n  \
         \"jit_mips\": {mips_jit:.3},\n  \"uop_over_interpreter\": {uop_speedup:.3},\n  \
         \"jit_speedup\": {jit_speedup:.3},\n  \"mem_fast_hit_rate\": {mem_fast_hit_rate:.4},\n  \
         \"mem_slow_hits\": {}\n}}\n",
        git_rev.replace('"', ""),
        cpu_model.replace('"', ""),
        specs.len(),
        mem.mem_slow_hits,
    );
    // Atomic rename: a crashed benchmark never leaves a torn JSON file
    // for downstream tooling to trip over.
    s4e_faultsim::atomic_write_file("BENCH_campaign.json", json.as_bytes())
        .expect("writes BENCH_campaign.json");
    println!();
    println!("wrote BENCH_campaign.json");

    assert!(
        campaign_speedup >= 3.0,
        "shape: fast-forward should gain >= 3x on the blind-in-time sweep \
         (got {campaign_speedup:.2}x)"
    );
    assert!(
        campaign_jit_speedup >= 2.0,
        "shape: JIT-in-mutants should gain >= 2x executed-mutant throughput \
         over interpreted suffixes on the SMC-free sweep \
         (got {campaign_jit_speedup:.2}x, {ff_s:.3} s vs {nojit_s:.3} s)"
    );
    // The micro-op engine bundles the block cache, jump cache, chaining,
    // lowering and fusion. 5.6x is what the former per-feature gates
    // implied: a jump-cache-only tier ran 3.1x the uncached interpreter,
    // and micro-ops had to gain >= 1.8x on top of it.
    assert!(
        uop_speedup >= 5.6,
        "shape: the micro-op engine should gain >= 5.6x over the uncached \
         interpreter on bare dispatch (got {uop_speedup:.2}x, {mips_uop:.0} vs \
         {mips_int:.0} MIPS)"
    );
    assert!(
        jit_speedup >= 3.0,
        "shape: the template JIT should gain >= 3x over the micro-op engine \
         on the branch-heavy kernel (got {jit_speedup:.2}x, {mips_jit:.0} vs \
         {mips_uop:.0} MIPS)"
    );
    // Guards the RAM fast path against silently degrading to a no-op.
    assert!(
        mem.mem_fast_hits > 0 && mem.mem_slow_hits == 0,
        "shape: every memory access of the memory-bound kernel should take \
         the RAM fast path (hit rate {mem_fast_hit_rate:.4}, {} slow-path accesses)",
        mem.mem_slow_hits
    );
    println!("C1 shape check: PASS");
}
