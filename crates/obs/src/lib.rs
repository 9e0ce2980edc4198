//! Observability for the Scale4Edge ecosystem: a lock-free metrics
//! registry, serializable snapshots, the hot-block profiler plugin, and
//! structured tracing.
//!
//! The QTA flow and the fault-injection campaigns both run millions of
//! simulated instructions; this crate is how those runs report what they
//! did without slowing down while doing it. The pieces:
//!
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log₂-bucketed
//!   [`Histogram`]s. Handles are `Arc`s; recording an event is a relaxed
//!   atomic add, with the registry lock touched only at registration and
//!   snapshot time.
//! - [`Snapshot`] — a point-in-time copy of every metric, mergeable across
//!   workers and round-trippable through JSON ([`Snapshot::to_json`],
//!   [`Snapshot::from_json`]).
//! - [`ProfilePlugin`] — a VP [`Plugin`](s4e_vp::Plugin) that counts block
//!   executions, per-kind instruction retirement, memory/device traffic
//!   and traps, and renders a hot-block table.
//! - [`Tracer`]/[`TraceRing`] — bounded per-thread span/event rings
//!   merged into one Chrome `trace_event` timeline
//!   ([`to_chrome_json`]), so a whole sharded campaign — supervisor,
//!   workers, VP incidents — is inspectable in Perfetto.
//! - [`json`] — the one JSON reader and string escaper behind every
//!   hand-rolled JSON format in the workspace.
//!
//! # Examples
//!
//! ```
//! use s4e_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let retired = registry.counter("vp_insn_retired");
//! let cycles = registry.histogram("qta_block_cycles");
//! retired.add(3);
//! cycles.record(40);
//! cycles.record(900);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("vp_insn_retired"), Some(3));
//! let reparsed = s4e_obs::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(reparsed, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
mod profile;
mod snapshot;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, MetricsRegistry, NUM_BUCKETS,
};
pub use profile::{HotBlock, ProfilePlugin};
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot, SnapshotParseError};
pub use trace::{
    from_chrome_json, merge_events, to_chrome_json, TraceEvent, TraceParseError, TraceRing, Tracer,
};

pub mod names {
    //! The metric naming scheme shared by every instrumented subsystem.
    //!
    //! Names satisfy `[a-z_][a-z0-9_]*` (enforced by
    //! [`MetricsRegistry`](crate::MetricsRegistry)), so the CLI, CI and
    //! the benchmark can match a name verbatim, with no escaping. Dotted
    //! mnemonics (`c.addi`, `fadd.s`) and camel-case class names
    //! (`FpLoad`) are mangled by [`sanitize`].

    use s4e_isa::{CKind, InsnClass, InsnKind};

    /// Instructions observed by the profiler (retired, plus trapped).
    pub const INSN_RETIRED: &str = "vp_insn_retired";
    /// Basic blocks translated into the block cache.
    pub const BLOCKS_TRANSLATED: &str = "vp_blocks_translated";
    /// Basic-block entries (all blocks).
    pub const BLOCK_EXECS: &str = "vp_block_execs";
    /// RAM loads observed.
    pub const MEM_READS: &str = "vp_mem_reads";
    /// RAM stores observed.
    pub const MEM_WRITES: &str = "vp_mem_writes";
    /// Device loads observed.
    pub const DEV_READS: &str = "vp_dev_reads";
    /// Device stores observed.
    pub const DEV_WRITES: &str = "vp_dev_writes";
    /// Traps taken (exceptions and interrupts).
    pub const TRAPS: &str = "vp_traps";

    /// Prefix of per-block execution counters (`vp_block_{pc:08x}_execs`).
    pub const BLOCK_PREFIX: &str = "vp_block_";

    /// Mangles an arbitrary mnemonic-like token into the metric-name
    /// alphabet: letters are lowercased (with a `_` inserted at inner
    /// camel-case boundaries), digits pass through, and everything else
    /// becomes `_`.
    ///
    /// ```
    /// use s4e_obs::names::sanitize;
    /// assert_eq!(sanitize("c.addi"), "c_addi");
    /// assert_eq!(sanitize("FpLoad"), "fp_load");
    /// assert_eq!(sanitize("fadd.s"), "fadd_s");
    /// ```
    pub fn sanitize(token: &str) -> String {
        let mut out = String::with_capacity(token.len());
        for c in token.chars() {
            match c {
                'a'..='z' | '0'..='9' | '_' => out.push(c),
                'A'..='Z' => {
                    if !out.is_empty() && !out.ends_with('_') {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                }
                _ => {
                    if !out.ends_with('_') {
                        out.push('_');
                    }
                }
            }
        }
        if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
            out.insert(0, '_');
        }
        out
    }

    /// Counter name for one instruction class (`vp_class_fp_load`).
    pub fn insn_class(class: InsnClass) -> String {
        format!("vp_class_{}", sanitize(&class.to_string()))
    }

    /// Counter name for one instruction kind (`vp_insn_fadd_s`).
    pub fn insn_kind(kind: InsnKind) -> String {
        format!("vp_insn_{}", sanitize(kind.mnemonic()))
    }

    /// Counter name for one compressed form (`vp_cinsn_c_addi`).
    pub fn insn_ckind(ckind: CKind) -> String {
        format!("vp_cinsn_{}", sanitize(ckind.mnemonic()))
    }

    /// Counter name for a block's entries (`vp_block_00000100_execs`).
    pub fn block_execs(start_pc: u32) -> String {
        format!("{BLOCK_PREFIX}{start_pc:08x}_execs")
    }

    /// Counter name for instructions attributed to a block.
    pub fn block_insns(start_pc: u32) -> String {
        format!("{BLOCK_PREFIX}{start_pc:08x}_insns")
    }

    /// Counter name for one trap cause (`vp_trap_cause_11`,
    /// `vp_trap_irq_7` for interrupts).
    pub fn trap_cause(mcause: u32) -> String {
        if mcause & 0x8000_0000 != 0 {
            format!("vp_trap_irq_{}", mcause & 0x7fff_ffff)
        } else {
            format!("vp_trap_cause_{mcause}")
        }
    }

    /// Per-block-entry slack (static WCET minus observed cycles).
    pub const QTA_SLACK: &str = "qta_slack_cycles";
    /// Block entries whose observed cycles exceeded the static WCET.
    pub const QTA_OVERRUNS: &str = "qta_overruns";

    /// Histogram name for a block's observed cycles
    /// (`qta_block_00000100_cycles`).
    pub fn qta_block_cycles(start_pc: u32) -> String {
        format!("qta_block_{start_pc:08x}_cycles")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn sanitized_names_are_valid() {
            for k in InsnKind::ALL {
                crate::MetricsRegistry::new().counter(&insn_kind(*k));
            }
            for c in CKind::ALL {
                crate::MetricsRegistry::new().counter(&insn_ckind(*c));
            }
            for c in InsnClass::ALL {
                crate::MetricsRegistry::new().counter(&insn_class(c));
            }
        }

        #[test]
        fn sanitize_edge_cases() {
            assert_eq!(sanitize(""), "_");
            assert_eq!(sanitize("9lives"), "_9lives");
            assert_eq!(sanitize("a..b"), "a_b");
            assert_eq!(sanitize("Already_Snake"), "already_snake");
        }
    }
}
