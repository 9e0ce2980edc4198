//! # s4e-faultsim — a scalable fault-effect analysis platform
//!
//! Reproduces *A Scalable Platform for QEMU Based Fault Effect Analysis
//! for RISC-V Hardware Architectures* (MBMV 2020): coverage-driven
//! injection of permanent (stuck-at) and transient bitflips into the
//! register file and memory (including executed opcodes), execution of
//! every resulting "mutant" against a golden run, and classification of
//! each outcome — with the normally-terminating-but-faulty mutants
//! surfaced as the subjects for further safety investigation.
//!
//! The flow: [`Campaign::prepare`] performs the golden run and records its
//! execution footprint ([`ExecTrace`]); [`generate_mutants`] derives a
//! deterministic fault list from that footprint; [`Campaign::run_all`]
//! executes the mutants (optionally across worker threads — the T3
//! scalability axis) and aggregates a [`CampaignReport`].
//!
//! At campaign scale the harness itself must be resilient: `run_all` is
//! built on a *supervised* engine (see [`runner`](Campaign::run_all))
//! with per-mutant panic isolation ([`FaultOutcome::HarnessError`]),
//! optional wall-clock watchdogs ([`CampaignConfig::timeout`] →
//! [`FaultOutcome::Cancelled`]), work-stealing dispatch across workers,
//! and streaming JSONL checkpoints
//! ([`Campaign::run_all_checkpointed`] / [`Campaign::resume`]) so an
//! interrupted sweep restarts where it stopped.
//!
//! Beyond in-process isolation, the shard supervisor
//! ([`ShardSupervisor`]) executes contiguous ranges of the mutant space
//! as separate worker *processes* ([`run_shard`]), restarting dead
//! shards from their own checkpoints with exponential backoff, bisecting
//! repeatedly-crashing ranges, and quarantining the offending mutant
//! ([`FaultOutcome::Quarantined`]) instead of aborting the campaign.
//!
//! ## Example
//!
//! ```
//! use s4e_asm::assemble;
//! use s4e_faultsim::{generate_mutants, Campaign, CampaignConfig, GeneratorConfig};
//!
//! let img = assemble(r#"
//!     li t0, 10
//!     li a0, 0
//!     loop: add a0, a0, t0
//!     addi t0, t0, -1
//!     bnez t0, loop
//!     ebreak
//! "#)?;
//! let campaign = Campaign::prepare(img.base(), img.bytes(), img.entry(), &CampaignConfig::new())?;
//! let mutants = generate_mutants(campaign.golden().trace(), &GeneratorConfig::new(42));
//! let report = campaign.run_all(&mutants);
//! assert_eq!(report.total(), mutants.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocks;
mod campaign;
mod checkpoint;
mod fault;
mod forensics;
mod generate;
mod prefix;
mod progress;
mod prune;
mod runner;
mod shard;
mod supervise;
#[cfg(test)]
mod test_programs;
mod trace;

pub use campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignReport, FaultResult, GoldenRun,
};
pub use checkpoint::{
    atomic_write_file, compact_checkpoint, decode_result, encode_result, read_checkpoint,
    repair_torn_tail, CampaignSink, CheckpointLoad, JsonlSink, MemorySink, NullSink,
};
pub use fault::{FaultKind, FaultOutcome, FaultSpec, FaultTarget};
pub use forensics::{IncidentBundle, FLIGHT_RECORDER_CAPACITY};
pub use generate::{generate_mutants, GeneratorConfig};
pub use progress::{CampaignProgress, ProgressSink, ProgressTicker};
pub use runner::MutantHook;
pub use shard::{parse_shard_range, plan_shards, run_shard, WorkerChaos};
pub use supervise::{
    install_interrupt_handler, interrupt_flag, ChaosConfig, ShardRequest, ShardSupervisor,
    ShardedReport, SupervisorConfig, WORKER_FATAL_EXIT,
};
pub use trace::{ExecTrace, TracePlugin};
