//! The fault-injection campaign runner: golden run, per-mutant execution
//! with outcome classification, and scalable parallel sweeps.

use crate::fault::{FaultKind, FaultOutcome, FaultSpec, FaultTarget};
use crate::forensics::FLIGHT_RECORDER_CAPACITY;
use crate::prefix::{PrefixCache, PrefixEntry};
use crate::progress::CampaignProgress;
use crate::runner::MutantHook;
use crate::trace::{ExecTrace, TracePlugin};
use core::fmt;
use s4e_isa::{Gpr, IsaConfig};
use s4e_obs::Tracer;
use s4e_vp::{
    BusFault, CancelToken, DispatchStats, FlightRecorder, RunOutcome, TimingModel, Vp, VpBuilder,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;

/// The instruction budget of the golden run and of its replays. The
/// budget counts every instruction begun, trapping ones included, so a
/// replay of a terminating golden run needs this budget, not the golden
/// run's retired count, to stop where the golden run stopped.
pub(crate) const GOLDEN_INSN_LIMIT: u64 = 50_000_000;

/// Runs `vp` until `at` instructions have retired and returns
/// [`RunOutcome::InsnLimit`] there, or the outcome that stopped it
/// first. `run` is `run_for` or `run_until`, whose budget counts
/// instructions begun: a call in which an instruction traps retires
/// fewer than its budget, so the shortfall runs again. This lands a
/// transient after exactly `at_insn` retired instructions, the unit
/// [`FaultKind::Transient`] documents and the pruner stamps, on the
/// prefix advance and the legacy warm-up alike. It ends because what
/// it runs is the golden prefix, which terminates.
pub(crate) fn run_to_retired(
    vp: &mut Vp,
    at: u64,
    mut run: impl FnMut(&mut Vp, u64) -> RunOutcome,
) -> RunOutcome {
    loop {
        let retired = vp.cpu().instret();
        if retired >= at {
            return RunOutcome::InsnLimit;
        }
        match run(vp, at - retired) {
            RunOutcome::InsnLimit => {}
            outcome => return outcome,
        }
    }
}

/// An error preparing or running a campaign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The configuration is invalid (zero worker threads, zero budget
    /// multiplier, empty RAM).
    Config(String),
    /// The image does not fit the configured RAM.
    Load(BusFault),
    /// The golden (fault-free) run did not terminate normally — nothing
    /// meaningful can be classified against it.
    GoldenAbnormal {
        /// How the golden run actually ended.
        outcome: RunOutcome,
    },
    /// Reading or writing the checkpoint stream failed (the underlying
    /// I/O error message).
    Checkpoint(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(msg) => write!(f, "invalid campaign configuration: {msg}"),
            CampaignError::Load(e) => write!(f, "cannot load image: {e}"),
            CampaignError::GoldenAbnormal { outcome } => {
                write!(f, "golden run ended abnormally: {outcome:?}")
            }
            CampaignError::Checkpoint(msg) => write!(f, "checkpoint I/O failed: {msg}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusFault> for CampaignError {
    fn from(e: BusFault) -> Self {
        CampaignError::Load(e)
    }
}

/// Campaign configuration.
///
/// Field lifetimes split two ways. `isa`, `ram_size`, `budget_multiplier`
/// and `jit` are **per-campaign**: they are baked into the golden run,
/// the derived instruction budget and the hoisted VP builder at
/// [`Campaign::prepare`] time, so changing any of them requires
/// preparing a new campaign. `threads`, `timeout`,
/// `fast_forward` and `prune` are **per-sweep execution policy**: they
/// steer how mutants are scheduled, supervised and accelerated without
/// affecting any classification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Target ISA of the simulated core.
    pub isa: IsaConfig,
    /// RAM size for the campaign VPs (small RAM keeps golden-state
    /// comparison cheap).
    pub ram_size: u32,
    /// Instruction-budget multiplier relative to the golden run's retired
    /// instructions; a mutant exceeding `multiplier × golden + 1000` is a
    /// timeout.
    pub budget_multiplier: u64,
    /// Worker threads for [`Campaign::run_all`].
    pub threads: usize,
    /// Per-mutant wall-clock watchdog for the supervised runner: a mutant
    /// still executing after this long is stopped and classified
    /// [`FaultOutcome::Cancelled`]. `None` (the default) bounds mutants by
    /// instruction budget only.
    pub timeout: Option<Duration>,
    /// Whether [`Campaign::run_all`] may use golden-prefix fast-forward:
    /// the golden execution is replayed once to each distinct injection
    /// point, snapshotted there, and workers restore the shared snapshot
    /// instead of re-simulating the fault-free prefix per mutant.
    /// Classifications are identical either way; this is purely a
    /// throughput switch (on by default). Campaigns whose golden run arms
    /// interrupts fall back to the legacy full re-run automatically — see
    /// [`Campaign::fast_forward_active`].
    pub fast_forward: bool,
    /// Whether [`Campaign::run_all`] may prune provably-equivalent
    /// mutants instead of executing them: a def-use sweep over one extra
    /// golden replay classifies mutants whose injected bit is dead
    /// (overwritten before its next read, or never accessed again), and
    /// mutants sharing a restore-state fingerprint and injected delta
    /// share one executed classification (see the `prune` module docs).
    /// On by default; classifications are identical either way — this is
    /// purely a throughput switch and the `--no-prune` A/B path.
    pub prune: bool,
    /// Whether campaign VPs may promote hot blocks to the template JIT
    /// tier. On by default; classifications are identical either way —
    /// mutant suffixes run *natively* too: the JIT arena survives each
    /// per-mutant snapshot restore (blocks re-validate against the code
    /// bytes they were compiled from), an armed flight recorder is
    /// written from the native block prologues (compiled in only while
    /// one is armed), and stuck-at mutants run on the JIT's masked
    /// engine, which reads the registers with armed stuck-at masks
    /// through them and every other register raw. Blocks that are not
    /// yet hot, or that the JIT cannot compile (CSR, FP and system
    /// instructions, division), still run on the micro-op engine. This
    /// is the `--no-jit` A/B switch over the whole campaign — golden
    /// run, prefix replays, pruning analysis and every mutant suffix —
    /// and turns both JIT engines off.
    pub jit: bool,
}

impl CampaignConfig {
    /// Defaults: RV32IMC, 256 KiB RAM, 4× budget, single thread, no
    /// wall-clock watchdog, fast-forward and equivalence pruning enabled.
    pub fn new() -> CampaignConfig {
        CampaignConfig {
            isa: IsaConfig::rv32imc(),
            ram_size: 256 * 1024,
            budget_multiplier: 4,
            threads: 1,
            timeout: None,
            fast_forward: true,
            prune: true,
            jit: true,
        }
    }

    /// Sets the ISA.
    #[must_use]
    pub fn isa(mut self, isa: IsaConfig) -> CampaignConfig {
        self.isa = isa;
        self
    }

    /// Sets the worker thread count. Zero is rejected by
    /// [`Campaign::prepare`] as [`CampaignError::Config`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> CampaignConfig {
        self.threads = threads;
        self
    }

    /// Sets the instruction-budget multiplier relative to the golden
    /// run. Zero is rejected by [`Campaign::prepare`] as
    /// [`CampaignError::Config`].
    #[must_use]
    pub fn budget_multiplier(mut self, multiplier: u64) -> CampaignConfig {
        self.budget_multiplier = multiplier;
        self
    }

    /// Arms the per-mutant wall-clock watchdog.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> CampaignConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Enables or disables golden-prefix fast-forward (the A-to-B
    /// comparison switch; classifications are identical either way).
    #[must_use]
    pub fn fast_forward(mut self, on: bool) -> CampaignConfig {
        self.fast_forward = on;
        self
    }

    /// Enables or disables equivalence pruning (classifications are
    /// identical either way — the `--no-prune` A/B switch).
    #[must_use]
    pub fn prune(mut self, on: bool) -> CampaignConfig {
        self.prune = on;
        self
    }

    /// Enables or disables the template JIT on campaign VPs
    /// (classifications are identical either way — the `--no-jit` A/B
    /// switch).
    #[must_use]
    pub fn jit(mut self, on: bool) -> CampaignConfig {
        self.jit = on;
        self
    }

    /// Checks the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.threads == 0 {
            return Err(CampaignError::Config("threads must be at least 1".into()));
        }
        if self.budget_multiplier == 0 {
            return Err(CampaignError::Config(
                "budget_multiplier must be at least 1".into(),
            ));
        }
        if self.ram_size == 0 {
            return Err(CampaignError::Config("ram_size must be nonzero".into()));
        }
        if self.timeout == Some(Duration::ZERO) {
            return Err(CampaignError::Config(
                "timeout must be nonzero (omit it to disable the watchdog)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::new()
    }
}

/// The golden (fault-free) reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    outcome: RunOutcome,
    instret: u64,
    gprs: [u32; 32],
    fprs: [u32; 32],
    mem: Vec<u8>,
    trace: ExecTrace,
}

impl GoldenRun {
    /// How the golden run terminated.
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// Retired instructions of the golden run.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// The execution footprint (for coverage-driven mutant generation).
    pub fn trace(&self) -> &ExecTrace {
        &self.trace
    }
}

/// One mutant's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultResult {
    /// The injected fault.
    pub spec: FaultSpec,
    /// Its classified effect.
    pub outcome: FaultOutcome,
}

/// A prepared fault-injection campaign for one binary.
///
/// # Examples
///
/// ```
/// use s4e_asm::assemble;
/// use s4e_faultsim::{Campaign, CampaignConfig, FaultKind, FaultSpec, FaultTarget};
/// use s4e_isa::Gpr;
///
/// let img = assemble("li a0, 5\nli a1, 6\nadd a0, a0, a1\nebreak")?;
/// let campaign = Campaign::prepare(
///     img.base(), img.bytes(), img.entry(), &CampaignConfig::new(),
/// )?;
/// let result = campaign.run_one(&FaultSpec {
///     target: FaultTarget::GprBit { reg: Gpr::A0, bit: 31 },
///     kind: FaultKind::StuckAt { value: true },
/// });
/// assert!(!result.outcome.is_normal_termination() || result.outcome.is_normal_termination());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Campaign {
    base: u32,
    bytes: Vec<u8>,
    entry: u32,
    config: CampaignConfig,
    /// The VP recipe (ISA, RAM geometry, timing model), assembled once at
    /// prepare time and cloned per VP — per-mutant work is a clone and a
    /// build, not a re-derivation of the configuration.
    vp_builder: VpBuilder,
    golden: GoldenRun,
    budget: u64,
    /// Whether the golden run stayed interrupt-free (`mie == 0`
    /// throughout), making split prefix replay bit-exact.
    prefix_eligible: bool,
    mutant_hook: Option<MutantHook>,
    progress: Option<std::sync::Arc<CampaignProgress>>,
    tracer: Option<std::sync::Arc<Tracer>>,
    trace_dir: Option<std::path::PathBuf>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("base", &self.base)
            .field("entry", &self.entry)
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("prefix_eligible", &self.prefix_eligible)
            .field("mutant_hook", &self.mutant_hook.is_some())
            .field("progress", &self.progress.is_some())
            .field("tracer", &self.tracer.is_some())
            .field("trace_dir", &self.trace_dir)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Loads the binary, executes the golden run and records its final
    /// state and execution footprint.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Config`] for an invalid configuration,
    /// [`CampaignError::Load`] when the image does not fit RAM and
    /// [`CampaignError::GoldenAbnormal`] when the fault-free run does not
    /// terminate normally.
    pub fn prepare(
        base: u32,
        bytes: &[u8],
        entry: u32,
        config: &CampaignConfig,
    ) -> Result<Campaign, CampaignError> {
        config.validate()?;
        let vp_builder = Vp::builder()
            .isa(config.isa)
            .ram(base & !0xfff, config.ram_size)
            .timing(TimingModel::flat())
            .jit(config.jit)
            // Campaign workloads are restore-heavy but the arena now
            // survives restores, so blocks compiled early in the golden
            // run stay hot for every mutant: promote almost immediately
            // — the compile cost is ~a handful of interpreted passes
            // and is amortised over thousands of suffixes.
            .jit_threshold(2);
        let mut vp = Self::boot_vp(&vp_builder, base, bytes, entry)?;
        vp.add_plugin(Box::new(TracePlugin::new()));
        let outcome = vp.run_for(GOLDEN_INSN_LIMIT);
        if !outcome.is_normal_termination() {
            return Err(CampaignError::GoldenAbnormal { outcome });
        }
        let trace = vp
            .plugin::<TracePlugin>()
            .expect("trace attached")
            .trace(vp.cpu());
        let prefix_eligible = !trace.interrupts_armed;
        let golden = GoldenRun {
            outcome,
            instret: vp.cpu().instret(),
            gprs: snapshot_gprs(&vp),
            fprs: snapshot_fprs(&vp),
            mem: vp
                .bus()
                .dump(base & !0xfff, config.ram_size as usize)
                .map_err(CampaignError::Load)?
                .to_vec(),
            trace,
        };
        let budget = golden.instret * config.budget_multiplier + 1000;
        Ok(Campaign {
            base,
            bytes: bytes.to_vec(),
            entry,
            config: config.clone(),
            vp_builder,
            golden,
            budget,
            prefix_eligible,
            mutant_hook: None,
            progress: None,
            tracer: None,
            trace_dir: None,
        })
    }

    /// The golden reference run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The configuration this campaign was prepared with.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The per-mutant instruction budget derived from the golden run.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Installs an observation hook called by the supervised runner
    /// right before each mutant executes, with the mutant's queue index
    /// and spec — progress reporting, throttling, and (in the test
    /// suite) a way to exercise the runner's panic isolation: a hook
    /// panic is caught and classified like any other harness panic.
    pub fn set_mutant_hook(&mut self, hook: MutantHook) {
        self.mutant_hook = Some(hook);
    }

    pub(crate) fn mutant_hook(&self) -> Option<&MutantHook> {
        self.mutant_hook.as_ref()
    }

    /// Attaches live progress reporting to the supervised runner: every
    /// classification (fresh or resumed) is counted, workers heartbeat
    /// on each claim, and the same `Arc` can drive a
    /// [`ProgressTicker`](crate::ProgressTicker) or be snapshotted for
    /// `--metrics-out`.
    pub fn set_progress(&mut self, progress: std::sync::Arc<CampaignProgress>) {
        self.progress = Some(progress);
    }

    pub(crate) fn progress(&self) -> Option<&std::sync::Arc<CampaignProgress>> {
        self.progress.as_ref()
    }

    /// Attaches structured tracing: the supervised runner records a
    /// per-mutant span (outcome, prefix, restore and translation
    /// annotations) and golden-prefix advance spans onto the shared
    /// [`Tracer`] timeline, exportable as Chrome `trace_event` JSON.
    pub fn set_tracer(&mut self, tracer: std::sync::Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    pub(crate) fn tracer(&self) -> Option<&std::sync::Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Arms forensic incident bundles: every worker VP flies with a
    /// [`FlightRecorder`] attached, and a mutant that times out, hangs,
    /// expires its watchdog or panics the harness dumps an
    /// [`IncidentBundle`](crate::IncidentBundle) (fault spec, flight
    /// tail, final architectural state) into `dir`.
    pub fn set_trace_dir(&mut self, dir: impl Into<std::path::PathBuf>) {
        self.trace_dir = Some(dir.into());
    }

    pub(crate) fn trace_dir(&self) -> Option<&std::path::Path> {
        self.trace_dir.as_deref()
    }

    /// Whether the supervised runner should keep flight recorders armed
    /// and worker VPs parked where forensics can reach them: only
    /// incident bundles read either, so only a trace directory arms
    /// them.
    pub(crate) fn forensics_active(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// Ensures the worker's reusable VP exists and flies with a cleared
    /// flight recorder — called right before a fast-forward mutant
    /// restores into it, so a dumped tail never mixes two executions.
    pub(crate) fn arm_slot_flight(&self, slot: &mut Option<Vp>) {
        let vp = slot.get_or_insert_with(|| self.vp_builder.clone().build());
        match vp.flight_recorder_mut() {
            Some(flight) => flight.clear(),
            None => vp.set_flight_recorder(Some(FlightRecorder::new(FLIGHT_RECORDER_CAPACITY))),
        }
    }

    /// Builds a VP from the hoisted recipe and boots the campaign image
    /// on it. Static because `prepare` needs it before `self` exists.
    fn boot_vp(
        builder: &VpBuilder,
        base: u32,
        bytes: &[u8],
        entry: u32,
    ) -> Result<Vp, CampaignError> {
        let mut vp = builder.clone().build();
        vp.load(base, bytes)?;
        vp.cpu_mut().set_pc(entry);
        Ok(vp)
    }

    /// A freshly booted mutant VP (the legacy, non-fast-forward path;
    /// also the pruning sweep's replay VP).
    pub(crate) fn loaded_vp(&self) -> Vp {
        Self::boot_vp(&self.vp_builder, self.base, &self.bytes, self.entry)
            .expect("golden run proved the image loads")
    }

    /// RAM bounds `(base, size)` of the campaign VPs — the address range
    /// a `MemBit` fault can actually land in.
    pub(crate) fn ram_bounds(&self) -> (u32, u32) {
        (self.base & !0xfff, self.config.ram_size)
    }

    /// The value a RAM bit holds before execution starts: the loaded
    /// image byte, or zero outside the image (RAM boots cleared).
    pub(crate) fn initial_ram_bit(&self, addr: u32, bit: u8) -> bool {
        let byte = addr
            .checked_sub(self.base)
            .and_then(|off| self.bytes.get(off as usize))
            .copied()
            .unwrap_or(0);
        byte & (1 << bit) != 0
    }

    /// Whether `run_all` will fast-forward mutants through shared golden
    /// snapshots: requires [`CampaignConfig::fast_forward`] *and* an
    /// interrupt-free golden run (`mie == 0` throughout). Replaying a
    /// prefix in several `run_for` segments adds interrupt-sample points
    /// at the seams, which is bit-exact only when no interrupt can be
    /// delivered; otherwise every mutant re-runs its prefix legacy-style.
    pub fn fast_forward_active(&self) -> bool {
        self.config.fast_forward && self.prefix_eligible
    }

    /// The retired-instruction count at which `spec` injects, clamped to
    /// the campaign budget — mirrors the legacy warmup computation
    /// exactly (stuck-at faults and time-zero transients inject before
    /// execution starts).
    pub(crate) fn injection_point(&self, spec: &FaultSpec) -> u64 {
        match spec.kind {
            FaultKind::StuckAt { .. } => 0,
            FaultKind::Transient { at_insn } => at_insn.min(self.budget),
        }
    }

    /// Plans the shared golden-prefix cache for a sweep over `specs`, or
    /// `None` when fast-forward is off or the golden run is ineligible.
    /// Specs already classified by the pruning `plan` are excluded from
    /// the consumer counts: nobody will fetch their injection points, so
    /// the golden replay neither advances to nor snapshots points only
    /// pruned mutants needed. Dedupe candidates still count — the worker
    /// fetches their entry for its restore-state fingerprint.
    pub(crate) fn prefix_cache(
        &self,
        specs: &[FaultSpec],
        plan: Option<&crate::prune::PrunePlan>,
    ) -> Option<PrefixCache> {
        if !self.fast_forward_active() || specs.is_empty() {
            return None;
        }
        let mut points: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for (i, spec) in specs.iter().enumerate() {
            if plan.is_some_and(|p| p.verdict(i).is_some()) {
                continue;
            }
            *points.entry(self.injection_point(spec)).or_insert(0) += 1;
        }
        if points.is_empty() {
            return None;
        }
        let golden = Self::boot_vp(&self.vp_builder, self.base, &self.bytes, self.entry).ok()?;
        Some(PrefixCache::new(golden, points))
    }

    /// Builds the equivalence-pruning plan for a sweep over `specs`, or
    /// `None` when pruning is disabled (or the analysis replay panics —
    /// pruning is an optimisation, never a correctness dependency).
    pub(crate) fn prune_plan(&self, specs: &[FaultSpec]) -> Option<crate::prune::PrunePlan> {
        if !self.config.prune || specs.is_empty() {
            return None;
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::prune::PrunePlan::build(self, specs)
        }))
        .ok()
    }

    /// Runs one mutant and classifies its effect.
    pub fn run_one(&self, spec: &FaultSpec) -> FaultResult {
        self.run_one_cancellable(spec, None)
    }

    /// Re-executes one mutant in *this* process with a flight recorder
    /// armed, returning its outcome and the VP it finished on. The
    /// shard supervisor's quarantine path uses this: the runs that
    /// convicted the mutant happened inside worker subprocesses that
    /// are already dead, so the incident bundle's flight tail and final
    /// architectural state have to come from an in-process replay.
    /// Bounded by [`CampaignConfig::timeout`] and panic-isolated — a
    /// mutant hostile enough to kill the harness yields `None` instead
    /// of taking the supervisor down with it.
    pub fn replay_forensic(&self, spec: &FaultSpec) -> Option<(FaultOutcome, Vp)> {
        let token = CancelToken::new();
        let token = match self.config.timeout {
            Some(timeout) => token.child(timeout),
            None => token,
        };
        let mut slot = None;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_mutant_forensic(spec, Some(&token), &mut slot)
        }))
        .ok()?;
        Some((outcome, slot?))
    }

    /// Runs one mutant under cooperative cancellation: when `cancel`
    /// trips (explicit cancel or its wall-clock deadline) the mutant is
    /// classified [`FaultOutcome::Cancelled`].
    pub fn run_one_cancellable(
        &self,
        spec: &FaultSpec,
        cancel: Option<&CancelToken>,
    ) -> FaultResult {
        let (outcome, _) = self.execute_mutant(spec, cancel);
        FaultResult {
            spec: *spec,
            outcome,
        }
    }

    /// The legacy full-rerun path: boots a fresh VP, runs the mutant on
    /// it and returns the outcome with the VP's dispatch statistics,
    /// which would otherwise be dropped with it.
    pub(crate) fn execute_mutant(
        &self,
        spec: &FaultSpec,
        cancel: Option<&CancelToken>,
    ) -> (FaultOutcome, DispatchStats) {
        let mut vp = self.loaded_vp();
        let outcome = self.execute_mutant_on(&mut vp, spec, cancel);
        (outcome, vp.take_dispatch_stats())
    }

    /// The legacy full-rerun path with forensics attached: same fresh
    /// boot per mutant as [`execute_mutant`](Self::execute_mutant), but
    /// the VP inherits the worker slot's (cleared) flight recorder and
    /// is parked back in the slot afterwards, so an incident dump can
    /// read the tail and the final architectural state.
    pub(crate) fn execute_mutant_forensic(
        &self,
        spec: &FaultSpec,
        cancel: Option<&CancelToken>,
        slot: &mut Option<Vp>,
    ) -> FaultOutcome {
        let flight = slot
            .take()
            .and_then(|mut old| old.take_flight_recorder())
            .map(|mut flight| {
                flight.clear();
                flight
            })
            .unwrap_or_else(|| FlightRecorder::new(FLIGHT_RECORDER_CAPACITY));
        let mut vp = self.loaded_vp();
        vp.set_flight_recorder(Some(flight));
        let outcome = self.execute_mutant_on(&mut vp, spec, cancel);
        *slot = Some(vp);
        outcome
    }

    fn execute_mutant_on(
        &self,
        vp: &mut Vp,
        spec: &FaultSpec,
        cancel: Option<&CancelToken>,
    ) -> FaultOutcome {
        let run = |vp: &mut Vp, budget: u64| match cancel {
            Some(token) => vp.run_until(budget, token),
            None => vp.run_for(budget),
        };
        let run_remaining = match spec.kind {
            // Static faults and time-zero transients are planted before
            // execution.
            FaultKind::StuckAt { value } => {
                Self::plant_stuck_at(vp, spec.target, value);
                self.budget
            }
            FaultKind::Transient { at_insn: 0 } => {
                Self::inject_flip(vp, spec.target);
                self.budget
            }
            FaultKind::Transient { at_insn } => {
                let warmup = at_insn.min(self.budget);
                match run_to_retired(vp, warmup, run) {
                    RunOutcome::InsnLimit => {
                        Self::inject_flip(vp, spec.target);
                        self.budget - warmup
                    }
                    // Terminated before the injection time: the fault
                    // never manifested.
                    outcome => return self.classify(vp, outcome),
                }
            }
        };
        let outcome = run(&mut *vp, run_remaining.max(1));
        self.classify(vp, outcome)
    }

    /// Executes one mutant from a shared golden-prefix snapshot: restore
    /// into the worker's reusable VP (`slot`), inject, and run only the
    /// post-injection suffix. Classification-identical to
    /// [`execute_mutant`](Self::execute_mutant), step for step.
    pub(crate) fn execute_mutant_fast(
        &self,
        spec: &FaultSpec,
        cancel: Option<&CancelToken>,
        entry: &PrefixEntry,
        slot: &mut Option<Vp>,
    ) -> FaultOutcome {
        let vp = slot.get_or_insert_with(|| self.vp_builder.clone().build());
        vp.restore(&entry.snapshot);
        if let Some(outcome) = entry.terminal {
            // The golden run terminated at or before the injection point:
            // the fault never manifested. Classify the restored terminal
            // state directly — resuming a terminated VP would re-execute
            // its final instruction. Mirrors the legacy early return.
            return self.classify(vp, outcome);
        }
        let run_remaining = match spec.kind {
            FaultKind::StuckAt { value } => {
                Self::plant_stuck_at(vp, spec.target, value);
                self.budget
            }
            FaultKind::Transient { at_insn: 0 } => {
                Self::inject_flip(vp, spec.target);
                self.budget
            }
            FaultKind::Transient { at_insn } => {
                let warmup = at_insn.min(self.budget);
                // The prefix cache stops at exactly `warmup` retired
                // instructions, like the legacy warm-up; anywhere else
                // the flip lands at another time than the pruner and
                // the legacy path assume.
                assert_eq!(
                    warmup,
                    entry.snapshot.instret(),
                    "fast-forward snapshot is off its injection point"
                );
                Self::inject_flip(vp, spec.target);
                self.budget - warmup
            }
        };
        let outcome = match cancel {
            Some(token) => vp.run_until(run_remaining.max(1), token),
            None => vp.run_for(run_remaining.max(1)),
        };
        self.classify(vp, outcome)
    }

    /// Flips the targeted bit right now (the transient upset).
    fn inject_flip(vp: &mut Vp, target: FaultTarget) {
        match target {
            FaultTarget::GprBit { reg, bit } => vp.cpu_mut().flip_gpr_bit(reg, bit),
            FaultTarget::FprBit { reg, bit } => vp.cpu_mut().flip_fpr_bit(reg, bit),
            FaultTarget::MemBit { addr, bit } => {
                // Injected under the guest-store SMC rule so a data-byte
                // flip leaves translated and retained native code
                // untouched.
                vp.update_ram_byte(addr, |b| b ^ (1 << bit));
            }
        }
    }

    /// Plants a permanent stuck-at fault (register masks; the memory and
    /// FPR approximations are documented on [`FaultTarget`]/[`FaultKind`]).
    fn plant_stuck_at(vp: &mut Vp, target: FaultTarget, value: bool) {
        match target {
            FaultTarget::GprBit { reg, bit } => {
                vp.cpu_mut().plant_gpr_fault(reg, bit, value);
            }
            FaultTarget::FprBit { reg, bit } => {
                // Approximated as a time-zero forced value (see
                // FaultTarget docs).
                vp.cpu_mut().set_fpr_bit(reg, bit, value);
            }
            FaultTarget::MemBit { addr, bit } => {
                // Approximated as a time-zero flip to the stuck value
                // (see FaultKind docs).
                vp.update_ram_byte(addr, |b| {
                    if value {
                        b | (1 << bit)
                    } else {
                        b & !(1 << bit)
                    }
                });
            }
        }
    }

    fn classify(&self, vp: &mut Vp, outcome: RunOutcome) -> FaultOutcome {
        match outcome {
            RunOutcome::Break | RunOutcome::Exit(0) => {
                let regs_match =
                    snapshot_gprs(vp) == self.golden.gprs && snapshot_fprs(vp) == self.golden.fprs;
                let mem_match = vp
                    .bus()
                    .dump(self.base & !0xfff, self.config.ram_size as usize)
                    .map(|m| m == self.golden.mem.as_slice())
                    .unwrap_or(false);
                if regs_match && mem_match {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentCorruption
                }
            }
            RunOutcome::Exit(code) => FaultOutcome::SelfReported { code },
            RunOutcome::Fatal(trap) => FaultOutcome::Detected { trap },
            // Still burning instructions at the budget: runaway/livelock.
            RunOutcome::InsnLimit => FaultOutcome::Timeout,
            // Parked in `wfi` with nothing armed to wake it: idle hang.
            RunOutcome::IdleWfi => FaultOutcome::Hang,
            RunOutcome::Cancelled => FaultOutcome::Cancelled,
        }
    }

    pub(crate) fn build_report(
        results: Vec<FaultResult>,
        panics: Vec<(FaultSpec, String)>,
    ) -> CampaignReport {
        CampaignReport { results, panics }
    }
}

fn snapshot_fprs(vp: &Vp) -> [u32; 32] {
    let mut fprs = [0u32; 32];
    for (i, slot) in fprs.iter_mut().enumerate() {
        *slot = vp
            .cpu()
            .fpr(s4e_isa::Fpr::new(i as u8).expect("index < 32"));
    }
    fprs
}

fn snapshot_gprs(vp: &Vp) -> [u32; 32] {
    // Snapshot the *architectural* values, bypassing active stuck-at
    // masks: clear faults on a clone of the CPU state.
    let mut cpu = vp.cpu().clone();
    cpu.clear_faults();
    let mut gprs = [0u32; 32];
    for (i, slot) in gprs.iter_mut().enumerate() {
        *slot = cpu.gpr(Gpr::new(i as u8).expect("index < 32"));
    }
    gprs
}

/// The aggregated campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    results: Vec<FaultResult>,
    panics: Vec<(FaultSpec, String)>,
}

impl CampaignReport {
    /// All per-mutant results, in input order.
    pub fn results(&self) -> &[FaultResult] {
        &self.results
    }

    /// The captured payloads of harness panics isolated by the
    /// supervised runner, in input order — one entry per
    /// [`FaultOutcome::HarnessError`] result with a known payload.
    pub fn harness_panics(&self) -> &[(FaultSpec, String)] {
        &self.panics
    }

    /// Total mutants executed.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Mutant count per outcome class.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for r in &self.results {
            *map.entry(r.outcome.class_name()).or_insert(0) += 1;
        }
        map
    }

    /// Fraction of mutants that terminated normally (masked + silent) —
    /// the paper's headline quantity.
    pub fn normal_termination_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let n = self
            .results
            .iter()
            .filter(|r| r.outcome.is_normal_termination())
            .count();
        n as f64 / self.results.len() as f64
    }

    /// The mutants that need further investigation (normal termination on
    /// faulty hardware).
    pub fn suspects(&self) -> impl Iterator<Item = &FaultResult> {
        self.results
            .iter()
            .filter(|r| r.outcome == FaultOutcome::SilentCorruption)
    }

    /// Renders the T2 summary rows.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mutants: {}", self.total());
        for (class, count) in self.counts() {
            let pct = count as f64 * 100.0 / self.total().max(1) as f64;
            let _ = writeln!(out, "  {class:<18} {count:>6} ({pct:5.1}%)");
        }
        let _ = writeln!(
            out,
            "  normal termination rate: {:.1}%",
            self.normal_termination_rate() * 100.0
        );
        if !self.panics.is_empty() {
            let _ = writeln!(
                out,
                "  harness panics isolated: {} (first: {})",
                self.panics.len(),
                self.panics[0].1.lines().next().unwrap_or_default()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::{JUMP_TRAP_PROGRAM, TRAP_PROGRAM};
    use s4e_asm::assemble;

    /// Transients injected after a trap, where a budget of instructions
    /// begun and a count of retired instructions part: the prefix
    /// advance, the legacy warm-up and the pruner must all place them
    /// after `at_insn` retired instructions. A fast-forward snapshot
    /// anywhere else classifies its mutants `HarnessError`.
    #[test]
    fn transients_after_traps_classify_alike_on_every_path() {
        for (source, isa) in [
            (TRAP_PROGRAM, IsaConfig::rv32imc()),
            (JUMP_TRAP_PROGRAM, IsaConfig::rv32im()),
        ] {
            let img = assemble(source).expect("assembles");
            let prepare = |config: CampaignConfig| {
                Campaign::prepare(img.base(), img.bytes(), img.entry(), &config.isa(isa))
                    .expect("prepares")
            };
            let campaign = prepare(CampaignConfig::new());
            let n = campaign.golden().instret();
            // Times by which a run budgeted in instructions begun has
            // retired fewer than its budget: a trap came first.
            let times: Vec<u64> = (1..24)
                .map(|i| i * n / 24)
                .filter(|&t| {
                    let mut vp = campaign.loaded_vp();
                    vp.run_for(t);
                    vp.cpu().instret() < t
                })
                .collect();
            assert!(times.len() >= 20, "{times:?}");
            let result = img.symbol("result").expect("a result word");
            let specs: Vec<FaultSpec> = times
                .iter()
                .enumerate()
                .flat_map(|(i, &at_insn)| {
                    let kind = FaultKind::Transient { at_insn };
                    let regs = (1..32u8).step_by(2).map(move |r| FaultSpec {
                        target: FaultTarget::GprBit {
                            reg: Gpr::new(r).expect("a GPR"),
                            bit: (r as usize * 7 + i) as u8 % 32,
                        },
                        kind,
                    });
                    let mem = FaultSpec {
                        target: FaultTarget::MemBit {
                            addr: result,
                            bit: i as u8 % 8,
                        },
                        kind,
                    };
                    regs.chain([mem])
                })
                .collect();
            let outcomes = |campaign: &Campaign| -> Vec<FaultOutcome> {
                let report = campaign.run_all(&specs);
                report.results().iter().map(|r| r.outcome).collect()
            };
            let executed = outcomes(&campaign);
            assert!(!executed.contains(&FaultOutcome::HarnessError));
            assert!(executed.contains(&FaultOutcome::SilentCorruption));
            assert!(executed.contains(&FaultOutcome::Masked));
            for (name, config) in [
                ("fast_forward", CampaignConfig::new().fast_forward(false)),
                ("prune", CampaignConfig::new().prune(false)),
                ("jit", CampaignConfig::new().jit(false)),
            ] {
                assert_eq!(outcomes(&prepare(config)), executed, "{name} off");
            }
        }
    }
}
