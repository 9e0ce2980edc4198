//! The end-to-end QTA flow: static analysis → annotated graph → timed
//! co-simulation → comparison report.

use crate::error::QtaError;
use crate::qta::{BoundViolation, QtaPlugin};
use s4e_cfg::Program;
use s4e_isa::IsaConfig;
use s4e_vp::{DispatchStats, RunOutcome, Vp};
use s4e_wcet::{analyze, TimedCfg, WcetOptions, WcetReport};
use std::collections::BTreeMap;

/// The result of one QTA co-simulation: the three timing quantities the
/// tool demonstration compares, plus per-block evidence.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QtaRun {
    /// How the guest terminated.
    pub outcome: RunOutcome,
    /// Cycles actually consumed on the virtual prototype.
    pub dynamic_cycles: u64,
    /// Worst-case cycles along the executed path (the QTA accumulator).
    pub qta_cycles: u64,
    /// The static WCET bound from the analysis.
    pub static_wcet: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Per-block visit counts.
    pub visits: BTreeMap<u32, u64>,
    /// Runtime loop-bound violations (empty when the static bounds hold).
    pub violations: Vec<BoundViolation>,
    /// Instructions executed outside the annotated graph.
    pub unmapped_insns: u64,
    /// The timing evidence: per-block observed-cycle histograms
    /// (`qta_block_{pc}_cycles`), the WCET-slack distribution and the
    /// overrun counter.
    pub metrics: s4e_obs::Snapshot,
    /// The VP's dispatch counters for the run: which execution tier ran
    /// it (`jit_retired` of `instret` retired natively) and how its
    /// memory accesses and blocks were served.
    pub dispatch: DispatchStats,
}

impl QtaRun {
    /// The WCET pessimism ratio `static / dynamic` (∞ as `f64::INFINITY`
    /// when nothing executed).
    pub fn pessimism(&self) -> f64 {
        if self.dynamic_cycles == 0 {
            f64::INFINITY
        } else {
            self.static_wcet as f64 / self.dynamic_cycles as f64
        }
    }

    /// Whether the invariant chain `dynamic ≤ qta ≤ static` held.
    pub fn invariant_holds(&self) -> bool {
        self.dynamic_cycles <= self.qta_cycles && self.qta_cycles <= self.static_wcet
    }
}

/// A prepared QTA session: the analyzed binary plus its annotated graph,
/// ready to be co-simulated (possibly several times with different
/// device inputs).
///
/// # Examples
///
/// ```
/// use s4e_asm::assemble;
/// use s4e_core::QtaSession;
/// use s4e_isa::IsaConfig;
/// use s4e_wcet::WcetOptions;
///
/// let img = assemble(r#"
///     li t0, 10
///     loop: addi t0, t0, -1
///     bnez t0, loop
///     ebreak
/// "#)?;
/// let session = QtaSession::prepare(
///     img.base(), img.bytes(), img.entry(),
///     IsaConfig::full(), &WcetOptions::new(),
/// )?;
/// let run = session.run()?;
/// assert!(run.invariant_holds());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QtaSession {
    base: u32,
    bytes: Vec<u8>,
    entry: u32,
    isa: IsaConfig,
    wcet_options: WcetOptions,
    report: Option<WcetReport>,
    timed_cfg: TimedCfg,
}

impl QtaSession {
    /// Runs the static WCET analysis on the binary and builds the
    /// annotated graph (the aiT + ait2qta preprocessing steps).
    ///
    /// # Errors
    ///
    /// Returns [`QtaError::Wcet`] when CFG reconstruction or the WCET
    /// analysis fails (irreducible flow, recursion, missing loop bounds).
    pub fn prepare(
        base: u32,
        bytes: &[u8],
        entry: u32,
        isa: IsaConfig,
        options: &WcetOptions,
    ) -> Result<QtaSession, QtaError> {
        let program =
            Program::from_bytes(base, bytes, entry, &isa).map_err(s4e_wcet::WcetError::from)?;
        let report = analyze(&program, options)?;
        let timed_cfg = TimedCfg::build(&program, &report);
        Ok(QtaSession {
            base,
            bytes: bytes.to_vec(),
            entry,
            isa,
            wcet_options: options.clone(),
            report: Some(report),
            timed_cfg,
        })
    }

    /// Builds a session from a *shipped* annotated graph instead of
    /// re-running the static analysis — the deployed form of the published
    /// flow, where the binary and its `ait2qta` output are loaded together.
    ///
    /// `timing` must be the model the graph was produced with for the
    /// invariant chain to be meaningful.
    pub fn from_timed_cfg(
        base: u32,
        bytes: &[u8],
        entry: u32,
        isa: IsaConfig,
        timing: s4e_vp::TimingModel,
        timed_cfg: TimedCfg,
    ) -> QtaSession {
        QtaSession {
            base,
            bytes: bytes.to_vec(),
            entry,
            isa,
            wcet_options: WcetOptions {
                timing,
                ..WcetOptions::new()
            },
            report: None,
            timed_cfg,
        }
    }

    /// The static analysis report, when this session ran the analysis
    /// itself (`None` for sessions built from a shipped graph).
    pub fn report(&self) -> Option<&WcetReport> {
        self.report.as_ref()
    }

    /// The annotated interchange graph.
    pub fn timed_cfg(&self) -> &TimedCfg {
        &self.timed_cfg
    }

    /// Builds a fresh virtual prototype with the binary loaded and the
    /// QTA plugin attached, without running it — for callers that need to
    /// set up device state first.
    ///
    /// # Errors
    ///
    /// Returns [`QtaError::Load`] when the image does not fit RAM.
    pub fn build_vp(&self) -> Result<Vp, QtaError> {
        let mut vp = Vp::builder()
            .isa(self.isa)
            .timing(self.wcet_options.timing.clone())
            .build();
        vp.load(self.base, &self.bytes)?;
        vp.cpu_mut().set_pc(self.entry);
        vp.add_plugin(Box::new(QtaPlugin::new(self.timed_cfg.clone())));
        Ok(vp)
    }

    /// Co-simulates the binary to completion and reports the timing
    /// comparison.
    ///
    /// # Errors
    ///
    /// Returns [`QtaError::Load`] when the image does not fit RAM.
    pub fn run(&self) -> Result<QtaRun, QtaError> {
        let mut vp = self.build_vp()?;
        let outcome = vp.run();
        Ok(self.collect(&mut vp, outcome))
    }

    /// Extracts the [`QtaRun`] from a VP built by
    /// [`build_vp`](QtaSession::build_vp) after the caller ran it.
    pub fn collect(&self, vp: &mut Vp, outcome: RunOutcome) -> QtaRun {
        let dynamic_cycles = vp.cpu().cycles();
        let instret = vp.cpu().instret();
        let qta = vp
            .plugin_mut::<QtaPlugin>()
            .expect("QTA plugin attached by build_vp");
        qta.flush(dynamic_cycles);
        QtaRun {
            outcome,
            dynamic_cycles,
            qta_cycles: qta.worst_case_cycles(),
            static_wcet: self.timed_cfg.total_wcet(),
            instret,
            visits: qta.visits(),
            violations: qta.violations().to_vec(),
            unmapped_insns: qta.unmapped_insns(),
            metrics: qta.snapshot(),
            dispatch: vp.dispatch_stats(),
        }
    }
}
