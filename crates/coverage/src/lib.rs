//! # s4e-coverage — instruction-type and register coverage for binary
//! software
//!
//! Reproduces the metric of *Register and Instruction Coverage Analysis
//! for Different RISC-V ISA Modules* (MBMV 2021): for a binary executing
//! on the virtual prototype, measure
//!
//! * which **instruction types** (and which compressed encodings) were
//!   executed, per ISA module;
//! * which **GPRs, FPRs and CSRs** were read or written;
//! * which regions of the **memory space** were addressed.
//!
//! Measurement is a [`Plugin`] on the VP's TCG-style hook API — fully
//! non-invasive. Reports from different test suites [`merge`] into a
//! unified-suite report, which is how the paper reaches 100 % GPR/FPR and
//! 98.7 % instruction-type coverage (experiment T1 here).
//!
//! [`merge`]: CoverageReport::merge
//!
//! ## Example
//!
//! ```
//! use s4e_asm::assemble;
//! use s4e_coverage::CoveragePlugin;
//! use s4e_isa::{Extension, IsaConfig};
//! use s4e_vp::Vp;
//!
//! let img = assemble("add a0, a1, a2\nebreak")?;
//! let mut vp = Vp::new(IsaConfig::rv32i());
//! vp.load(img.base(), img.bytes())?;
//! vp.add_plugin(Box::new(CoveragePlugin::new(IsaConfig::rv32i())));
//! vp.run();
//! let report = vp.plugin::<CoveragePlugin>().unwrap().report();
//! assert!(report.insn_type_coverage().percent() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use s4e_isa::{CKind, Csr, Extension, Fpr, Gpr, Insn, InsnKind, IsaConfig};
use s4e_vp::{Cpu, MemAccess, Plugin};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Memory-coverage granularity: addresses are tracked per 256-byte region.
const MEM_REGION_SHIFT: u32 = 8;

/// A covered/total pair.
///
/// # Examples
///
/// ```
/// use s4e_coverage::Ratio;
/// let r = Ratio::new(3, 4);
/// assert_eq!(r.percent(), 75.0);
/// assert!(!r.is_full());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    covered: usize,
    total: usize,
}

impl Ratio {
    /// Creates a ratio.
    ///
    /// # Panics
    ///
    /// Panics if `covered > total`.
    pub fn new(covered: usize, total: usize) -> Ratio {
        assert!(covered <= total, "covered exceeds total");
        Ratio { covered, total }
    }

    /// Items covered.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Universe size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Percentage in `[0, 100]`; 100 for an empty universe.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            self.covered as f64 * 100.0 / self.total as f64
        }
    }

    /// Whether everything is covered.
    pub fn is_full(&self) -> bool {
        self.covered == self.total
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.covered,
            self.total,
            self.percent()
        )
    }
}

/// An accumulated coverage measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    isa: IsaConfig,
    insn_counts: BTreeMap<InsnKind, u64>,
    c_counts: BTreeMap<CKind, u64>,
    gpr_read: [u64; 32],
    gpr_written: [u64; 32],
    fpr_read: [u64; 32],
    fpr_written: [u64; 32],
    csr_access: BTreeMap<Csr, u64>,
    mem_regions: BTreeSet<u32>,
    total_insns: u64,
}

impl CoverageReport {
    fn empty(isa: IsaConfig) -> CoverageReport {
        CoverageReport {
            isa,
            insn_counts: BTreeMap::new(),
            c_counts: BTreeMap::new(),
            gpr_read: [0; 32],
            gpr_written: [0; 32],
            fpr_read: [0; 32],
            fpr_written: [0; 32],
            csr_access: BTreeMap::new(),
            mem_regions: BTreeSet::new(),
            total_insns: 0,
        }
    }

    /// Rebuilds the instruction-type portion of a report from an
    /// [`s4e_obs::Snapshot`] taken from a profiled run (the
    /// `vp_insn_*` / `vp_cinsn_*` counters that
    /// [`ProfilePlugin`](s4e_obs::ProfilePlugin) registers eagerly).
    ///
    /// This recovers instruction-kind and compressed-encoding coverage —
    /// the dimensions the profiler observes — from a serialized metrics
    /// snapshot, so coverage can be computed offline from a
    /// `--metrics-out` file without re-running the binary. Register, CSR
    /// and memory-region coverage are not present in a profile snapshot
    /// and stay empty; [`merge`](CoverageReport::merge) a live
    /// [`CoveragePlugin`] report in when those are needed.
    ///
    /// # Examples
    ///
    /// ```
    /// use s4e_asm::assemble;
    /// use s4e_coverage::CoverageReport;
    /// use s4e_isa::IsaConfig;
    /// use s4e_obs::ProfilePlugin;
    /// use s4e_vp::Vp;
    ///
    /// let img = assemble("add a0, a1, a2\nebreak")?;
    /// let mut vp = Vp::new(IsaConfig::rv32i());
    /// vp.load(img.base(), img.bytes())?;
    /// vp.add_plugin(Box::new(ProfilePlugin::new()));
    /// vp.run();
    /// let snap = vp.plugin::<ProfilePlugin>().unwrap().snapshot();
    /// let report = CoverageReport::from_snapshot(IsaConfig::rv32i(), &snap);
    /// assert!(report.insn_type_coverage().percent() > 0.0);
    /// assert_eq!(report.total_insns(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_snapshot(isa: IsaConfig, snapshot: &s4e_obs::Snapshot) -> CoverageReport {
        let mut report = CoverageReport::empty(isa);
        for &kind in InsnKind::ALL {
            if let Some(n) = snapshot.counter(&s4e_obs::names::insn_kind(kind)) {
                if n > 0 {
                    report.insn_counts.insert(kind, n);
                }
            }
        }
        for &ck in CKind::ALL {
            if let Some(n) = snapshot.counter(&s4e_obs::names::insn_ckind(ck)) {
                if n > 0 {
                    report.c_counts.insert(ck, n);
                }
            }
        }
        report.total_insns = snapshot
            .counter(s4e_obs::names::INSN_RETIRED)
            .unwrap_or_else(|| report.insn_counts.values().sum());
        report
    }

    /// The ISA configuration defining the coverage universe.
    pub fn isa(&self) -> &IsaConfig {
        &self.isa
    }

    /// Total instructions observed.
    pub fn total_insns(&self) -> u64 {
        self.total_insns
    }

    /// The instruction-type universe: every kind belonging to an enabled
    /// extension.
    pub fn insn_universe(&self) -> Vec<InsnKind> {
        InsnKind::ALL
            .iter()
            .copied()
            .filter(|k| self.isa.has(k.extension()))
            .collect()
    }

    /// Instruction-type coverage over the enabled modules.
    pub fn insn_type_coverage(&self) -> Ratio {
        let universe = self.insn_universe();
        let covered = universe
            .iter()
            .filter(|k| self.insn_counts.contains_key(k))
            .count();
        Ratio::new(covered, universe.len())
    }

    /// Instruction-type coverage restricted to one ISA module.
    pub fn insn_type_coverage_for(&self, ext: Extension) -> Ratio {
        let universe: Vec<_> = InsnKind::ALL
            .iter()
            .filter(|k| k.extension() == ext)
            .collect();
        let covered = universe
            .iter()
            .filter(|k| self.insn_counts.contains_key(k))
            .count();
        Ratio::new(covered, universe.len())
    }

    /// Compressed-encoding coverage (the C module's per-encoding rows).
    pub fn compressed_coverage(&self) -> Ratio {
        Ratio::new(self.c_counts.len(), CKind::ALL.len())
    }

    /// Instruction types in the universe that never executed.
    pub fn uncovered_insns(&self) -> Vec<InsnKind> {
        self.insn_universe()
            .into_iter()
            .filter(|k| !self.insn_counts.contains_key(k))
            .collect()
    }

    /// Compressed encodings that never executed.
    pub fn uncovered_compressed(&self) -> Vec<CKind> {
        CKind::ALL
            .iter()
            .copied()
            .filter(|k| !self.c_counts.contains_key(k))
            .collect()
    }

    /// Execution count of one instruction type.
    pub fn insn_count(&self, kind: InsnKind) -> u64 {
        self.insn_counts.get(&kind).copied().unwrap_or(0)
    }

    /// GPR coverage: a register counts as covered when it was read or
    /// written by an executed instruction.
    pub fn gpr_coverage(&self) -> Ratio {
        let covered = (0..32)
            .filter(|&i| self.gpr_read[i] > 0 || self.gpr_written[i] > 0)
            .count();
        Ratio::new(covered, 32)
    }

    /// FPR coverage (empty universe when F is disabled).
    pub fn fpr_coverage(&self) -> Ratio {
        if !self.isa.has(Extension::F) {
            return Ratio::new(0, 0);
        }
        let covered = (0..32)
            .filter(|&i| self.fpr_read[i] > 0 || self.fpr_written[i] > 0)
            .count();
        Ratio::new(covered, 32)
    }

    /// CSR coverage over the implemented CSR universe.
    pub fn csr_coverage(&self) -> Ratio {
        let universe: Vec<Csr> = Csr::implemented()
            .filter(|c| {
                self.isa.has(Extension::F) || !matches!(*c, Csr::FFLAGS | Csr::FRM | Csr::FCSR)
            })
            .collect();
        let covered = universe
            .iter()
            .filter(|c| self.csr_access.contains_key(c))
            .count();
        Ratio::new(covered, universe.len())
    }

    /// GPRs never touched.
    pub fn uncovered_gprs(&self) -> Vec<Gpr> {
        (0..32u8)
            .filter(|&i| self.gpr_read[i as usize] == 0 && self.gpr_written[i as usize] == 0)
            .map(|i| Gpr::new(i).expect("index < 32"))
            .collect()
    }

    /// FPRs never touched.
    pub fn uncovered_fprs(&self) -> Vec<Fpr> {
        (0..32u8)
            .filter(|&i| self.fpr_read[i as usize] == 0 && self.fpr_written[i as usize] == 0)
            .map(|i| Fpr::new(i).expect("index < 32"))
            .collect()
    }

    /// Number of distinct 256-byte memory regions addressed by data
    /// accesses.
    pub fn mem_regions_touched(&self) -> usize {
        self.mem_regions.len()
    }

    /// Unions another report into this one (suite merging). Both reports
    /// must target the same ISA configuration.
    ///
    /// # Panics
    ///
    /// Panics if the ISA configurations differ.
    pub fn merge(&mut self, other: &CoverageReport) {
        assert_eq!(self.isa, other.isa, "merging reports for different ISAs");
        for (&k, &n) in &other.insn_counts {
            *self.insn_counts.entry(k).or_insert(0) += n;
        }
        for (&k, &n) in &other.c_counts {
            *self.c_counts.entry(k).or_insert(0) += n;
        }
        for i in 0..32 {
            self.gpr_read[i] += other.gpr_read[i];
            self.gpr_written[i] += other.gpr_written[i];
            self.fpr_read[i] += other.fpr_read[i];
            self.fpr_written[i] += other.fpr_written[i];
        }
        for (&c, &n) in &other.csr_access {
            *self.csr_access.entry(c).or_insert(0) += n;
        }
        self.mem_regions.extend(&other.mem_regions);
        self.total_insns += other.total_insns;
    }

    /// Renders the per-module summary table (the T1 row format).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ISA: {}", self.isa);
        let _ = writeln!(out, "instructions executed: {}", self.total_insns);
        for ext in Extension::ALL {
            // C has no instruction types of its own (compressed encodings
            // expand to base kinds and get their own row below).
            if !self.isa.has(ext) || ext == Extension::C {
                continue;
            }
            let r = self.insn_type_coverage_for(ext);
            let _ = writeln!(out, "  module {:<9} insn types {r}", ext.name());
        }
        let _ = writeln!(out, "  overall insn types   {}", self.insn_type_coverage());
        if self.isa.has(Extension::C) {
            let _ = writeln!(out, "  compressed encodings {}", self.compressed_coverage());
        }
        let _ = writeln!(out, "  GPR coverage         {}", self.gpr_coverage());
        if self.isa.has(Extension::F) {
            let _ = writeln!(out, "  FPR coverage         {}", self.fpr_coverage());
        }
        let _ = writeln!(out, "  CSR coverage         {}", self.csr_coverage());
        let _ = writeln!(out, "  memory regions       {}", self.mem_regions_touched());
        out
    }
}

/// The coverage-measuring plugin.
#[derive(Debug)]
pub struct CoveragePlugin {
    report: CoverageReport,
}

impl CoveragePlugin {
    /// Creates a plugin whose universe is the given ISA configuration.
    pub fn new(isa: IsaConfig) -> CoveragePlugin {
        CoveragePlugin {
            report: CoverageReport::empty(isa),
        }
    }

    /// A snapshot of the accumulated coverage.
    pub fn report(&self) -> CoverageReport {
        self.report.clone()
    }

    /// Resets the accumulated coverage.
    pub fn reset(&mut self) {
        self.report = CoverageReport::empty(self.report.isa);
    }
}

impl Plugin for CoveragePlugin {
    fn on_insn_executed(&mut self, _cpu: &Cpu, _pc: u32, insn: &Insn) {
        let r = &mut self.report;
        r.total_insns += 1;
        *r.insn_counts.entry(insn.kind()).or_insert(0) += 1;
        if let Some(ck) = insn.ckind() {
            *r.c_counts.entry(ck).or_insert(0) += 1;
        }
        let uses = insn.reg_uses();
        for g in uses.gprs_read() {
            r.gpr_read[g.index() as usize] += 1;
        }
        if let Some(g) = uses.gpr_written {
            r.gpr_written[g.index() as usize] += 1;
        }
        for fp in uses.fprs_read() {
            r.fpr_read[fp.index() as usize] += 1;
        }
        if let Some(fp) = uses.fpr_written {
            r.fpr_written[fp.index() as usize] += 1;
        }
        if let Some(csr) = uses.csr {
            *r.csr_access.entry(csr).or_insert(0) += 1;
        }
    }

    fn on_mem_access(&mut self, _cpu: &Cpu, access: &MemAccess) {
        self.report
            .mem_regions
            .insert(access.addr >> MEM_REGION_SHIFT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_math() {
        assert_eq!(Ratio::new(0, 0).percent(), 100.0);
        assert!((Ratio::new(1, 3).percent() - 33.333).abs() < 0.01);
        assert!(Ratio::new(5, 5).is_full());
        assert_eq!(Ratio::new(2, 4).to_string(), "2/4 (50.0%)");
    }

    #[test]
    #[should_panic(expected = "covered exceeds total")]
    fn ratio_validates() {
        let _ = Ratio::new(5, 4);
    }

    #[test]
    fn empty_report() {
        let r = CoverageReport::empty(IsaConfig::rv32imc());
        assert_eq!(r.insn_type_coverage().covered(), 0);
        assert_eq!(r.gpr_coverage().covered(), 0);
        assert_eq!(r.fpr_coverage().total(), 0, "no F module");
        assert_eq!(r.total_insns(), 0);
    }

    #[test]
    fn universe_respects_isa() {
        let i = CoverageReport::empty(IsaConfig::rv32i());
        let imc = CoverageReport::empty(IsaConfig::rv32imc());
        assert!(i.insn_universe().len() < imc.insn_universe().len());
        assert!(!i
            .insn_universe()
            .iter()
            .any(|k| k.extension() == Extension::M));
    }

    #[test]
    #[should_panic(expected = "different ISAs")]
    fn merge_rejects_isa_mismatch() {
        let mut a = CoverageReport::empty(IsaConfig::rv32i());
        let b = CoverageReport::empty(IsaConfig::rv32imc());
        a.merge(&b);
    }
}
