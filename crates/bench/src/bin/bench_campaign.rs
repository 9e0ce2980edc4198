//! **Experiment C1** — campaign-throughput gain from golden-prefix
//! fast-forward, plus bare interpreter-dispatch throughput across the
//! three execution-engine tiers.
//!
//! Two measurements, written to `BENCH_campaign.json`:
//!
//! 1. A 1120-mutant fault campaign (the acceptance-sweep shape: 32 bits
//!    × 35 injection times, blind-in-time over twice the golden length)
//!    run with fast-forward off and on. The reports must be
//!    classification-identical; the shape target is ≥ 3x throughput.
//!    The same sweep is then A/B'd with the template JIT disabled: the
//!    JIT now covers mutant *suffixes* too (the arena survives each
//!    per-mutant restore and the flight ring is written from native
//!    prologues), so this arm gates both classification identity and
//!    the `campaign_jit_*` executed-mutant throughput target (≥ 2x on
//!    the SMC-free sweep).
//! 2. Bare dispatch: a branch-heavy kernel run on the three tiers —
//!    the uncached per-instruction interpreter (`block_cache(false)`),
//!    the micro-op engine (block cache, jump cache, lowered operands,
//!    macro-op fusion, direct block chaining, RAM fast path; `--no-jit`)
//!    and the template JIT (hot blocks compiled to host code). Shape
//!    targets: micro-op engine ≥ 5.6x over the interpreter, JIT ≥ 3x
//!    over the micro-op engine.
//! 3. The interpreter and micro-op engine on a memory-bound kernel
//!    (unrolled memcpy + checksum). Shape target: every access of the
//!    micro-op engine takes the RAM fast path (hit rate 1.0, no
//!    slow-path accesses).
//! 4. Observability overhead: the full engine measured in interleaved
//!    windows with the flight recorder disarmed (twice — an A/A bound
//!    on the disabled `Option` check) and armed. Shape target: the
//!    disarmed arms agree within 2%; the armed cost is reported, not
//!    gated.
//!
//! The JSON records the git revision, worker thread count and host CPU
//! model so results from different checkouts and machines compare
//! honestly.

use s4e_asm::Image;
use s4e_bench::build;
use s4e_bench::kernels::{matmul, memcpy_checksum, state_machine};
use s4e_faultsim::{
    generate_mutants, Campaign, CampaignConfig, CampaignProgress, FaultKind, FaultSpec,
    FaultTarget, GeneratorConfig,
};
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{DispatchStats, FlightRecorder, RunOutcome, Vp};
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
    // A 16×16 matmul keeps the legacy sweep in the hundreds of
    // milliseconds: long enough for stable wall-clock ratios now that
    // the micro-op engine has cut per-mutant simulation time.
    let image = build(&matmul(16).source, isa);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = host_cores.min(4);
    let git_rev = git_revision();
    let cpu_model = host_cpu();

    // --- campaign throughput -------------------------------------------
    // Pruning off on both arms: C1 isolates the fast-forward gain, so
    // every mutant must execute. The scale section below measures the
    // pruning gain separately.
    let prepare = |fast_forward: bool| {
        Campaign::prepare(
            image.base(),
            image.bytes(),
            image.entry(),
            &CampaignConfig::new()
                .isa(isa)
                .threads(threads)
                .fast_forward(fast_forward)
                .prune(false),
        )
        .expect("prepares")
    };
    let mut fast = prepare(true);
    let slow = prepare(false);
    assert!(fast.fast_forward_active());
    // The jit-on arm doubles as the tentpole measurement: its progress
    // registry captures how much of the mutant suffixes actually ran
    // natively (retained adoptions, native block executions, and the
    // per-reason bailout split).
    let jit_progress = Arc::new(CampaignProgress::new());
    fast.set_progress(Arc::clone(&jit_progress));

    // The acceptance-sweep shape: 32 bits × 35 times = 1120 transients,
    // sampled blind in time (a real SEU campaign does not know when the
    // workload finishes, so injection times run past the golden length).
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

    // JIT-in-mutants A/B arm on the same 1120-spec sweep: mutant
    // suffixes now execute natively (the arena survives each per-mutant
    // restore, the flight ring is written from the native prologues,
    // and stuck-at masks select the masked engine), so the jit-off arm
    // times what the whole campaign loses without the native tier.
    // Classifications must be bit-identical either way.
    let nojit_campaign = Campaign::prepare(
        image.base(),
        image.bytes(),
        image.entry(),
        &CampaignConfig::new()
            .isa(isa)
            .threads(threads)
            .fast_forward(true)
            .prune(false)
            .jit(false),
    )
    .expect("prepares");

    // Interleave the arms and keep each arm's fastest pass: host
    // throughput drifts enough between multi-second phases to skew a
    // single-pass ratio, but transient load only ever slows a pass, so
    // the minima compare all arms at the host's shared full speed.
    let mut legacy_s = f64::INFINITY;
    let mut ff_s = f64::INFINITY;
    let mut nojit_s = f64::INFINITY;
    let mut reports = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let legacy_report = slow.run_all(&specs);
        legacy_s = legacy_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let ff_report = fast.run_all(&specs);
        ff_s = ff_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let nojit_report = nojit_campaign.run_all(&specs);
        nojit_s = nojit_s.min(t0.elapsed().as_secs_f64());
        reports = Some((legacy_report, ff_report, nojit_report));
    }
    let (legacy_report, ff_report, nojit_report) = reports.expect("measured");

    assert_eq!(
        legacy_report.results(),
        ff_report.results(),
        "fast-forward must be classification-identical"
    );
    let campaign_speedup = legacy_s / ff_s;

    let jit_classification_identical = nojit_report.results() == ff_report.results();
    assert!(
        jit_classification_identical,
        "JIT-in-mutants must be classification-identical on the acceptance sweep"
    );
    // Executed-mutant throughput with native suffixes vs interpreted
    // suffixes — the tentpole's acceptance ratio. Both arms fast-forward
    // and execute all 1120 mutants, so the wall-time ratio is exactly
    // the executed-mutant throughput ratio.
    let campaign_jit_speedup = nojit_s / ff_s;
    // The native tier's rows of the campaign's dispatch counters.
    let campaign_jit = jit_progress.dispatch_stats();
    let campaign_jit_rows: Vec<_> = campaign_jit
        .counters()
        .into_iter()
        .filter(|c| c.suffix.starts_with("jit_"))
        .collect();
    assert!(
        campaign_jit.jit_retained > 0 && campaign_jit.jit_exec > 0,
        "mutant suffixes must actually adopt retained native code: {campaign_jit:?}"
    );

    println!("# C1 — campaign fast-forward throughput");
    println!();
    println!("git: {git_rev}, threads: {threads}, cpu: {cpu_model}");
    println!("golden instret: {golden_len}, budget: {}", fast.budget());
    println!();
    println!("| mode | mutants | wall time | mutants/s |");
    println!("|---|---|---|---|");
    println!(
        "| legacy (full re-run) | {} | {legacy_s:.3} s | {:.0} |",
        legacy_report.total(),
        legacy_report.total() as f64 / legacy_s
    );
    println!(
        "| fast-forward | {} | {ff_s:.3} s | {:.0} |",
        ff_report.total(),
        ff_report.total() as f64 / ff_s
    );
    println!(
        "| fast-forward, --no-jit | {} | {nojit_s:.3} s | {:.0} |",
        nojit_report.total(),
        nojit_report.total() as f64 / nojit_s
    );
    println!();
    println!("campaign speedup: {campaign_speedup:.2}x");
    println!("JIT-in-mutants speedup: {campaign_jit_speedup:.2}x over interpreted suffixes");
    println!(
        "JIT-on vs --no-jit classification identity: PASS ({} specs)",
        specs.len()
    );
    print!("native suffix coverage:");
    for c in &campaign_jit_rows {
        print!(" {}={}", c.suffix, c.value);
    }
    println!();

    // --- scale sweep: 10^5+ mutants, threads × pruning -----------------
    // The generator's balanced shape scaled until the sweep crosses
    // 100k mutants, sorted by injection point so the shared golden
    // advancer produces prefix snapshots just ahead of their consumers
    // (unsorted, a late-point fetch would force every earlier snapshot
    // live at once).
    let golden_trace = fast.golden().trace();
    let base = generate_mutants(golden_trace, &GeneratorConfig::new(0xC1));
    let factor = 100_000usize.div_ceil(base.len().max(1));
    let mut scale_specs =
        generate_mutants(golden_trace, &GeneratorConfig::new(0xC1).scaled(factor));
    assert!(scale_specs.len() >= 100_000, "{}", scale_specs.len());
    scale_specs.sort_by_key(|s| match s.kind {
        FaultKind::StuckAt { .. } => 0,
        FaultKind::Transient { at_insn } => at_insn,
    });

    let scale_run = |threads: usize, prune: bool, specs: &[FaultSpec]| {
        let mut c = Campaign::prepare(
            image.base(),
            image.bytes(),
            image.entry(),
            &CampaignConfig::new().isa(isa).threads(threads).prune(prune),
        )
        .expect("prepares");
        let progress = Arc::new(CampaignProgress::new());
        c.set_progress(Arc::clone(&progress));
        let t0 = Instant::now();
        let report = c.run_all(specs);
        let secs = t0.elapsed().as_secs_f64();
        let snap = progress.snapshot();
        let pruned = snap.counter("campaign_pruned_dead").unwrap_or(0)
            + snap.counter("campaign_pruned_dedup").unwrap_or(0);
        let steals = snap.counter("campaign_queue_steals").unwrap_or(0);
        let lock_waits = progress.dispatch_stats().lock_waits;
        (report, secs, pruned, steals, lock_waits)
    };

    println!();
    println!(
        "# scale sweep — {} mutants, equivalence pruning on",
        scale_specs.len()
    );
    println!();
    println!("(host exposes {host_cores} core(s); rows where threads exceed cores are marked oversubscribed — they measure scheduling, not physical parallelism, and are excluded from gating and summary figures)");
    println!();
    println!("| threads | wall time | mutants/s | mutants/s/core | pruned | steals | lock waits | oversubscribed |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut scale_rows = Vec::new();
    for t in [1usize, 2, 4] {
        let (report, secs, pruned, steals, lock_waits) = scale_run(t, true, &scale_specs);
        assert_eq!(report.total(), scale_specs.len());
        let rate = report.total() as f64 / secs;
        let per_core = rate / t.min(host_cores) as f64;
        let oversubscribed = t > host_cores;
        println!(
            "| {t} | {secs:.3} s | {rate:.0} | {per_core:.0} | {pruned} | {steals} | {lock_waits} | {oversubscribed} |"
        );
        scale_rows.push((t, secs, rate, per_core, pruned, steals, lock_waits, report));
    }
    let (_, t1_s, ..) = scale_rows[0];
    let (_, t2_s, ..) = scale_rows[1];
    let (_, t4_s, ..) = scale_rows[2];
    let speedup_2t = t1_s / t2_s;
    let speedup_4t = t1_s / t4_s;
    let oversubscribed_2t = 2 > host_cores;
    let oversubscribed_4t = 4 > host_cores;
    // Summary figures come from the highest-thread row that is *not*
    // oversubscribed: a row scheduling more workers than the host has
    // cores records context-switch fairness, not throughput, and must
    // not masquerade as either.
    let ncore_row = scale_rows
        .iter()
        .rev()
        .find(|row| row.0 <= host_cores)
        .unwrap_or(&scale_rows[0]);
    let pruned_share = ncore_row.4 as f64 / scale_specs.len() as f64;
    let mutants_per_sec = ncore_row.2;
    let mutants_per_sec_per_core = ncore_row.3;
    println!();
    println!(
        "thread scaling: 2t {speedup_2t:.2}x{}, 4t {speedup_4t:.2}x{} over 1t (host has {host_cores} core(s))",
        if oversubscribed_2t {
            " [oversubscribed]"
        } else {
            ""
        },
        if oversubscribed_4t {
            " [oversubscribed]"
        } else {
            ""
        }
    );
    println!("summary figures from the {}-thread row", ncore_row.0);
    println!("pruned share: {:.1}%", pruned_share * 100.0);

    // A/B the pruned path against full execution on a subsample (the
    // full 100k no-prune sweep would dominate the benchmark's runtime):
    // classifications must agree spec for spec.
    let sub_specs: Vec<FaultSpec> = scale_specs.iter().copied().step_by(10).collect();
    let sub_pruned: Vec<_> = ncore_row
        .7
        .results()
        .iter()
        .step_by(10)
        .map(|r| (r.spec, r.outcome))
        .collect();
    let (sub_report, noprune_s, _, _, _) = scale_run(threads, false, &sub_specs);
    let sub_executed: Vec<_> = sub_report
        .results()
        .iter()
        .map(|r| (r.spec, r.outcome))
        .collect();
    assert_eq!(
        sub_pruned, sub_executed,
        "pruned sweep must be classification-identical to full execution"
    );
    let (_, prune_sub_s, ..) = scale_run(threads, true, &sub_specs);
    let prune_speedup = noprune_s / prune_sub_s;
    println!(
        "pruning speedup on a 1-in-10 subsample: {prune_speedup:.2}x \
         ({noprune_s:.3} s executed vs {prune_sub_s:.3} s pruned)"
    );
    println!(
        "pruned-vs-executed classification identity: PASS ({} specs)",
        sub_specs.len()
    );

    // --- bare dispatch -------------------------------------------------
    // A branch-heavy kernel (short blocks, so dispatch overhead is not
    // amortized away by long straight-line runs). One VP per tier, reset
    // between runs by restoring a post-load snapshot (identical cost on
    // all sides); the measurement window is time-based so each tier runs
    // long enough to be stable. 4096 events ≈ 55k instructions per run:
    // long enough that per-run warm-up (translation, and for the JIT
    // tier promotion + compilation — restore drops all compiled code)
    // amortizes, so every tier is measured at its steady state.
    let branchy = build(&state_machine(4096).source, isa);
    let dispatch = |image: &Image, cache: bool, jit: bool, flight: bool| {
        let mut vp = Vp::builder().isa(isa).block_cache(cache).jit(jit).build();
        vp.load(image.base(), image.bytes()).expect("fits RAM");
        vp.cpu_mut().set_pc(image.entry());
        if flight {
            vp.set_flight_recorder(Some(FlightRecorder::new(1024)));
        }
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
        (
            per_run,
            insns,
            t0.elapsed().as_secs_f64(),
            vp.dispatch_stats(),
        )
    };
    // Host throughput on shared runners drifts by double-digit
    // percentages between measurement windows, so tier ratios taken
    // from single sequential windows are unusable: measure every tier
    // in interleaved rounds and keep each tier's fastest window —
    // transient load only ever slows a window down, so the maxima
    // compare all tiers at the host's shared full speed.
    let sweep = |image: &Image, arms: &[(bool, bool)]| {
        let mut best: Vec<Option<(u64, u64, f64, DispatchStats)>> = vec![None; arms.len()];
        for _ in 0..3 {
            for (i, &(cache, jit)) in arms.iter().enumerate() {
                let sample = dispatch(image, cache, jit, false);
                let mips = sample.1 as f64 / sample.2;
                if best[i]
                    .as_ref()
                    .is_none_or(|(_, insns, secs, _)| mips > *insns as f64 / *secs)
                {
                    best[i] = Some(sample);
                }
            }
        }
        best.into_iter()
            .map(|b| b.expect("measured"))
            .collect::<Vec<_>>()
    };
    // The three tiers: the uncached per-instruction interpreter, the
    // micro-op engine (`--no-jit`) and the default template JIT.
    let tiers = sweep(&branchy, &[(false, false), (true, false), (true, true)]);
    let (run_ref, insns_int, int_s, _) = tiers[0];
    let (run_uop, insns_uop, uop_s, uop_stats) = tiers[1];
    let (run_jit, insns_jit, jit_s, jit_stats) = tiers[2];
    assert_eq!(run_uop, run_ref, "dispatch tier must not change results");
    assert_eq!(run_jit, run_ref, "dispatch tier must not change results");
    let mips_int = insns_int as f64 / int_s / 1e6;
    let mips_uop = insns_uop as f64 / uop_s / 1e6;
    let mips_jit = insns_jit as f64 / jit_s / 1e6;
    let uop_speedup = mips_uop / mips_int;
    let jit_speedup = mips_jit / mips_uop;
    assert!(
        jit_stats.jit_blocks > 0 && jit_stats.jit_exec > 0,
        "the JIT tier must actually execute native code: {jit_stats:?}"
    );

    let fused_insn_share = if insns_uop == 0 {
        0.0
    } else {
        // Each fused micro-op covers two retired guest instructions.
        2.0 * uop_stats.fused_exec as f64 / insns_uop as f64
    };
    let chain_hit_rate = uop_stats.chain_hit_rate();

    println!();
    println!("# bare dispatch (three execution-engine tiers)");
    println!();
    println!("| tier | insns | wall time | MIPS |");
    println!("|---|---|---|---|");
    println!("| interpreter (uncached, per-insn) | {insns_int} | {int_s:.3} s | {mips_int:.1} |");
    println!("| micro-op engine | {insns_uop} | {uop_s:.3} s | {mips_uop:.1} |");
    println!("| template JIT | {insns_jit} | {jit_s:.3} s | {mips_jit:.1} |");
    println!();
    println!("micro-op engine over interpreter: {uop_speedup:.2}x");
    println!("template JIT over micro-op engine: {jit_speedup:.2}x");
    println!(
        "chain hit rate: {:.1}%, fused insn share: {:.1}%",
        chain_hit_rate * 100.0,
        fused_insn_share * 100.0
    );
    println!(
        "jit blocks: {}, native block executions: {}, bailouts: {}",
        jit_stats.jit_blocks, jit_stats.jit_exec, jit_stats.jit_bailouts
    );

    // --- memory-bound dispatch -----------------------------------------
    // The RAM fast-path experiment: a load/store-dominated kernel where
    // bus dispatch and exact cycle flushing would be the bottleneck. Every
    // aligned RAM access of the micro-op engine must take the fast path.
    // JIT pinned off: the experiment measures the fast path inside the
    // micro-op engine, and a native tier on top would fold the JIT's own
    // memory handling into the row.
    let memory = build(&memcpy_checksum(256, 8).source, isa);
    let mem_tiers = sweep(&memory, &[(false, false), (true, false)]);
    let (run_mint, insns_mint, mint_s, _) = mem_tiers[0];
    let (run_mfast, insns_mfast, mfast_s, mfast_stats) = mem_tiers[1];
    assert_eq!(run_mfast, run_mint, "dispatch tier must not change results");
    let mips_mint = insns_mint as f64 / mint_s / 1e6;
    let mips_mfast = insns_mfast as f64 / mfast_s / 1e6;
    let mem_accesses = mfast_stats.mem_fast_hits + mfast_stats.mem_slow_hits;
    let mem_fast_hit_rate = if mem_accesses == 0 {
        0.0
    } else {
        mfast_stats.mem_fast_hits as f64 / mem_accesses as f64
    };

    println!();
    println!("# memory-bound dispatch (RAM fast path)");
    println!();
    println!("| tier | insns | wall time | MIPS |");
    println!("|---|---|---|---|");
    println!(
        "| interpreter (uncached, per-insn) | {insns_mint} | {mint_s:.3} s | {mips_mint:.1} |"
    );
    println!(
        "| micro-op engine + RAM fast path | {insns_mfast} | {mfast_s:.3} s | {mips_mfast:.1} |"
    );
    println!();
    println!(
        "fast-path hit rate: {:.1}% ({} slow-path accesses)",
        mem_fast_hit_rate * 100.0,
        mfast_stats.mem_slow_hits
    );

    // --- observability overhead ----------------------------------------
    // The flight recorder rides the hot block-dispatch loop behind a
    // single `Option` check. The check cannot be ablated at runtime (it
    // is compiled in), so "disabled is free" is gated as an A/A bound:
    // the disarmed engine, measured twice in interleaved windows, must
    // reproduce its MIPS within the 2% budget the tracing feature was
    // allowed — every dispatch gate above already passed with the
    // disarmed check in the loop. Interleaving matters: host throughput
    // drifts by double-digit percentages over a benchmark's lifetime,
    // so back-to-back windows with best-of-3 maxima are the only
    // comparison that can resolve 2%. The armed arm rides the same
    // loop, giving the real (reported, ungated) recording cost.
    // JIT pinned off on both arms: an armed flight recorder structurally
    // disables native execution, so with the JIT on the armed arm would
    // measure the loss of the JIT, not the recorder's own cost.
    let measure = |flight: bool| {
        let (run, insns, secs, _) = dispatch(&branchy, true, false, flight);
        assert_eq!(run, run_ref, "observability must not change results");
        insns as f64 / secs / 1e6
    };
    let _warmup = measure(false); // let frequency scaling settle
    let mut mips_off = 0.0f64;
    let mut mips_fr = 0.0f64;
    // Per round, the two disarmed windows bracket the armed one; the
    // round least disturbed by drift (minimum adjacent A/A spread over
    // the rounds) is the measurement's resolution.
    let mut trace_off_overhead = f64::INFINITY;
    for _ in 0..5 {
        let a = measure(false);
        let fr = measure(true);
        let b = measure(false);
        trace_off_overhead = trace_off_overhead.min((a - b).abs() / a.max(b));
        mips_off = mips_off.max(a).max(b);
        mips_fr = mips_fr.max(fr);
    }
    let flight_overhead = 1.0 - mips_fr / mips_off;

    println!();
    println!("# observability overhead (flight recorder, best of 5 interleaved)");
    println!();
    println!("| mode | MIPS |");
    println!("|---|---|");
    println!("| tracing disabled | {mips_off:.1} |");
    println!("| flight recorder armed | {mips_fr:.1} |");
    println!();
    println!(
        "tracing-disabled A/A spread: {:.2}% (resolution bound on the disarmed check)",
        trace_off_overhead * 100.0
    );
    println!(
        "flight-recorder-armed overhead: {:.2}%",
        flight_overhead * 100.0
    );

    let stats_json = |s: &DispatchStats| {
        let fields: Vec<String> = s
            .counters()
            .iter()
            .map(|c| format!("\"{}\": {}", c.field, c.value))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let campaign_jit_json: String = campaign_jit_rows
        .iter()
        .map(|c| format!("\"campaign_{}\": {},\n  ", c.suffix, c.value))
        .collect();
    let json = format!(
        "{{\n  \"git_revision\": \"{}\",\n  \"threads\": {},\n  \"host_cores\": {},\n  \
         \"host_cpu\": \"{}\",\n  \
         \"mutants\": {},\n  \"golden_instret\": {},\n  \"budget\": {},\n  \
         \"legacy_s\": {:.6},\n  \"fast_forward_s\": {:.6},\n  \
         \"campaign_speedup\": {:.3},\n  \"classification_identical\": true,\n  \
         \"campaign_jit_s\": {:.6},\n  \"campaign_nojit_s\": {:.6},\n  \
         \"campaign_jit_speedup\": {:.3},\n  \
         \"campaign_jit_classification_identical\": {},\n  {}\
         \"scale_mutants\": {},\n  \"scale_threads1_s\": {:.6},\n  \
         \"scale_threads2_s\": {:.6},\n  \"scale_threads4_s\": {:.6},\n  \
         \"scale_speedup_2t\": {:.3},\n  \"scale_speedup_2t_oversubscribed\": {},\n  \
         \"scale_speedup_4t\": {:.3},\n  \"scale_speedup_4t_oversubscribed\": {},\n  \
         \"scale_summary_threads\": {},\n  \
         \"mutants_per_sec\": {:.1},\n  \"mutants_per_sec_per_core\": {:.1},\n  \
         \"pruned_share\": {:.4},\n  \"queue_steals\": {},\n  \"lock_waits\": {},\n  \
         \"prune_speedup_subsample\": {:.3},\n  \
         \"prune_classification_identical\": true,\n  \
         \"dispatch_insns\": {},\n  \"interpreter_mips\": {:.3},\n  \
         \"uop_engine_mips\": {:.3},\n  \"uop_over_interpreter\": {:.3},\n  \
         \"chain_hit_rate\": {:.4},\n  \
         \"fused_insn_share\": {:.4},\n  \"uop_dispatch_stats\": {},\n  \
         \"jit_mips\": {:.3},\n  \"jit_speedup\": {:.3},\n  \
         \"jit_dispatch_stats\": {},\n  \
         \"jit_classification_identical\": true,\n  \
         \"trace_off_mips\": {:.3},\n  \"trace_off_overhead\": {:.4},\n  \
         \"flight_recorder_mips\": {:.3},\n  \"flight_recorder_overhead\": {:.4},\n  \
         \"mem_kernel_insns\": {},\n  \"mem_interpreter_mips\": {:.3},\n  \
         \"mem_fast_path_mips\": {:.3},\n  \
         \"mem_fast_hit_rate\": {:.4},\n  \"mem_fast_dispatch_stats\": {}\n}}\n",
        git_rev.replace('"', ""),
        threads,
        host_cores,
        cpu_model.replace('"', ""),
        specs.len(),
        golden_len,
        fast.budget(),
        legacy_s,
        ff_s,
        campaign_speedup,
        ff_s,
        nojit_s,
        campaign_jit_speedup,
        jit_classification_identical,
        campaign_jit_json,
        scale_specs.len(),
        t1_s,
        t2_s,
        t4_s,
        speedup_2t,
        oversubscribed_2t,
        speedup_4t,
        oversubscribed_4t,
        ncore_row.0,
        mutants_per_sec,
        mutants_per_sec_per_core,
        pruned_share,
        ncore_row.5,
        ncore_row.6,
        prune_speedup,
        insns_uop,
        mips_int,
        mips_uop,
        uop_speedup,
        chain_hit_rate,
        fused_insn_share,
        stats_json(&uop_stats),
        mips_jit,
        jit_speedup,
        stats_json(&jit_stats),
        mips_off,
        trace_off_overhead,
        mips_fr,
        flight_overhead,
        insns_mfast,
        mips_mint,
        mips_mfast,
        mem_fast_hit_rate,
        stats_json(&mfast_stats),
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
    assert!(
        pruned_share > 0.0,
        "shape: the scaled generator sweep must contain prunable mutants"
    );
    // Thread scaling is reported, not gated: this host exposes
    // {host_cores} core(s), and threads beyond physical cores measure
    // scheduler fairness, not parallel speedup.
    if host_cores >= 4 {
        assert!(
            speedup_4t >= 2.0,
            "shape: 4 threads on >=4 cores should gain >= 2x (got {speedup_4t:.2}x)"
        );
    }
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
    // Guards the RAM fast path against silently degrading to a no-op:
    // the kernel's accesses are all aligned and inside RAM.
    assert!(
        mem_fast_hit_rate == 1.0 && mfast_stats.mem_slow_hits == 0,
        "shape: every memory access of the memory-bound kernel should take \
         the RAM fast path (hit rate {:.4}, {} slow-path accesses)",
        mem_fast_hit_rate,
        mfast_stats.mem_slow_hits
    );
    assert!(
        trace_off_overhead <= 0.02,
        "shape: the tracing-disabled engine should reproduce its MIPS within \
         2% across interleaved windows (got {:.2}%)",
        trace_off_overhead * 100.0
    );
    println!("C1 shape check: PASS");
}
