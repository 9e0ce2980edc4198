//! Forensic incident bundles: the "black box" dumped when a mutant goes
//! wrong.
//!
//! A 50k-mutant sweep that quarantines one mutant, or times one out,
//! leaves the obvious question unanswered: what was the guest *doing*?
//! With `--trace-dir` set, the campaign answers it the way an air-crash
//! investigation does — every worker VP flies with a
//! [`FlightRecorder`](s4e_vp::FlightRecorder) armed, and when a mutant
//! times out, hangs, panics the harness, or is quarantined by the shard
//! supervisor, an [`IncidentBundle`] is written: the injected
//! [`FaultSpec`], the recorder's tail of recently executed blocks,
//! traps and device accesses, the final architectural state, and (for
//! quarantines) the supervisor's attempt history for the crashing
//! range.
//!
//! Bundles are one JSON file per incident, written through
//! [`atomic_write_file`] so a crash mid-dump never leaves a torn
//! artifact, and named after the fault they describe
//! (`timeout-gpr-10-31-stuck-1.json`) so a directory listing already
//! tells the story. The JSON is hand-rolled like the checkpoint format
//! — flat, unsigned-integer and string fields only.

use crate::checkpoint::atomic_write_file;
use crate::fault::{FaultKind, FaultSpec, FaultTarget};
use s4e_isa::Gpr;
use s4e_obs::json;
use s4e_vp::{FlightEvent, Vp};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Events each worker VP's flight recorder retains — enough to see the
/// last few basic blocks and any trap/MMIO activity around the incident
/// without measurably slowing the sweep.
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// The final architectural state captured into a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArchState {
    pc: u32,
    instret: u64,
    cycles: u64,
    gprs: [u32; 32],
}

/// One forensic incident: what fault was running, what the VP executed
/// last, and where it ended up. Built by the supervised runner (mutant
/// timeouts, hangs, harness panics) and the shard supervisor
/// (quarantines), serialized with [`to_json`](IncidentBundle::to_json)
/// and dumped with [`write`](IncidentBundle::write).
#[derive(Debug, Clone)]
pub struct IncidentBundle {
    incident: String,
    spec: FaultSpec,
    index: Option<u64>,
    panic: Option<String>,
    flight: Vec<(FlightEvent, Option<&'static str>)>,
    flight_evicted: u64,
    flight_totals: Option<(u64, u64, u64)>,
    state: Option<ArchState>,
    attempts: Vec<String>,
}

impl IncidentBundle {
    /// A bundle for one incident class (`timeout`, `hang`, `harness`,
    /// `cancelled`, `quarantined`) affecting `spec`.
    pub fn new(incident: &str, spec: FaultSpec) -> IncidentBundle {
        IncidentBundle {
            incident: incident.to_string(),
            spec,
            index: None,
            panic: None,
            flight: Vec::new(),
            flight_evicted: 0,
            flight_totals: None,
            state: None,
            attempts: Vec::new(),
        }
    }

    /// Records the mutant's queue index.
    pub fn set_index(&mut self, index: usize) {
        self.index = Some(index as u64);
    }

    /// Records a captured harness-panic payload.
    pub fn set_panic(&mut self, message: &str) {
        self.panic = Some(message.to_string());
    }

    /// Captures the VP's flight-recorder tail (when one is armed) and
    /// its final architectural state.
    pub fn attach_vp(&mut self, vp: &Vp) {
        if let Some(flight) = vp.flight_recorder() {
            self.flight = flight.tail();
            self.flight_evicted = flight.evicted();
            self.flight_totals = Some((
                flight.blocks_recorded(),
                flight.traps_recorded(),
                flight.device_accesses_recorded(),
            ));
        }
        let cpu = vp.cpu();
        let mut gprs = [0u32; 32];
        for (i, slot) in gprs.iter_mut().enumerate() {
            *slot = cpu.gpr(Gpr::new(i as u8).expect("index < 32"));
        }
        self.state = Some(ArchState {
            pc: cpu.pc(),
            instret: cpu.instret(),
            cycles: cpu.cycles(),
            gprs,
        });
    }

    /// Appends one line of shard-supervisor attempt history (spawns,
    /// exits, backoffs, bisections) leading up to a quarantine.
    pub fn push_attempt(&mut self, line: impl Into<String>) {
        self.attempts.push(line.into());
    }

    /// The incident class this bundle was created with.
    pub fn incident(&self) -> &str {
        &self.incident
    }

    /// The fault this incident concerns.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// The deterministic file name: incident class plus the checkpoint
    /// spelling of the fault (`quarantined-mem-2147483652-3-flip-42.json`).
    pub fn file_name(&self) -> String {
        let (tgt, loc, bit) = spec_location(&self.spec);
        let (kind, arg) = spec_kind(&self.spec);
        format!(
            "{}-{tgt}-{loc}-{bit}-{kind}-{arg}.json",
            sanitize_component(&self.incident)
        )
    }

    /// Serializes the bundle as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(out, "{{\"incident\":\"{}\"", json::escape(&self.incident));
        let (tgt, loc, bit) = spec_location(&self.spec);
        let (kind, arg) = spec_kind(&self.spec);
        let _ = write!(
            out,
            ",\"spec\":{{\"tgt\":\"{tgt}\",\"loc\":{loc},\"bit\":{bit},\"kind\":\"{kind}\",\"arg\":{arg},\"display\":\"{}\"}}",
            json::escape(&self.spec.to_string())
        );
        if let Some(index) = self.index {
            let _ = write!(out, ",\"index\":{index}");
        }
        if let Some(panic) = &self.panic {
            let _ = write!(out, ",\"panic\":\"{}\"", json::escape(panic));
        }
        out.push_str(",\"flight\":{");
        if let Some((blocks, traps, devices)) = self.flight_totals {
            let _ = write!(
                out,
                "\"blocks\":{blocks},\"traps\":{traps},\"device_accesses\":{devices},"
            );
        }
        let _ = write!(out, "\"evicted\":{},\"tail\":[", self.flight_evicted);
        for (i, (event, device)) in self.flight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match event {
                FlightEvent::Block { instret, pc } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"block\",\"instret\":{instret},\"pc\":{pc}}}"
                    );
                }
                FlightEvent::Trap {
                    instret,
                    pc,
                    mcause,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"trap\",\"instret\":{instret},\"pc\":{pc},\"mcause\":{mcause}}}"
                    );
                }
                FlightEvent::Device {
                    instret,
                    pc,
                    addr,
                    value,
                    is_store,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"device\",\"instret\":{instret},\"pc\":{pc},\"addr\":{addr},\"value\":{value},\"store\":{}",
                        u8::from(*is_store)
                    );
                    if let Some(name) = device {
                        let _ = write!(out, ",\"dev\":\"{}\"", json::escape(name));
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("]}");
        if let Some(state) = &self.state {
            let _ = write!(
                out,
                ",\"state\":{{\"pc\":{},\"instret\":{},\"cycles\":{},\"gprs\":[",
                state.pc, state.instret, state.cycles
            );
            for (i, gpr) in state.gprs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{gpr}");
            }
            out.push_str("]}");
        }
        if !self.attempts.is_empty() {
            out.push_str(",\"attempts\":[");
            for (i, line) in self.attempts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json::escape(line));
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Writes the bundle into `dir` (created if missing) under
    /// [`file_name`](IncidentBundle::file_name), crash-safely via
    /// [`atomic_write_file`]. Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates underlying I/O errors.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        atomic_write_file(&path, self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// The checkpoint spelling of a fault location (`tgt`/`loc`/`bit`).
fn spec_location(spec: &FaultSpec) -> (&'static str, u64, u8) {
    match spec.target {
        FaultTarget::GprBit { reg, bit } => ("gpr", u64::from(reg.index()), bit),
        FaultTarget::FprBit { reg, bit } => ("fpr", u64::from(reg.index()), bit),
        FaultTarget::MemBit { addr, bit } => ("mem", u64::from(addr), bit),
    }
}

/// The checkpoint spelling of a fault kind (`kind`/`arg`).
fn spec_kind(spec: &FaultSpec) -> (&'static str, u64) {
    match spec.kind {
        FaultKind::StuckAt { value } => ("stuck", u64::from(u8::from(value))),
        FaultKind::Transient { at_insn } => ("flip", at_insn),
    }
}

/// Restricts a caller-supplied incident tag to file-name-safe
/// characters.
fn sanitize_component(tag: &str) -> String {
    tag.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '-' => c,
            _ => '_',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultTarget};

    fn spec() -> FaultSpec {
        FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::A0,
                bit: 31,
            },
            kind: FaultKind::StuckAt { value: true },
        }
    }

    #[test]
    fn file_name_names_the_fault() {
        let bundle = IncidentBundle::new("quarantined", spec());
        assert_eq!(bundle.file_name(), "quarantined-gpr-10-31-stuck-1.json");
        let weird = IncidentBundle::new("harness error!", spec());
        assert_eq!(weird.file_name(), "harness_error_-gpr-10-31-stuck-1.json");
    }

    #[test]
    fn json_carries_spec_attempts_and_panic() {
        let mut bundle = IncidentBundle::new("timeout", spec());
        bundle.set_index(12);
        bundle.set_panic("boom \"quoted\"");
        bundle.push_attempt("spawn 0..8");
        bundle.push_attempt("exit signal 6");
        let json = bundle.to_json();
        assert!(json.contains("\"incident\":\"timeout\""));
        assert!(json.contains("\"tgt\":\"gpr\",\"loc\":10,\"bit\":31"));
        assert!(json.contains("\"display\":\"a0[31] stuck-at-1\""));
        assert!(json.contains("\"index\":12"));
        assert!(json.contains("\"panic\":\"boom \\\"quoted\\\"\""));
        assert!(json.contains("\"attempts\":[\"spawn 0..8\",\"exit signal 6\"]"));
        // No VP attached: empty flight tail, no state object.
        assert!(json.contains("\"tail\":[]"));
        assert!(!json.contains("\"state\""));
    }

    #[test]
    fn write_is_atomic_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("s4e-forensics-{}", std::process::id()));
        let bundle = IncidentBundle::new("hang", spec());
        let path = bundle.write(&dir).expect("writes");
        assert!(path.ends_with("hang-gpr-10-31-stuck-1.json"));
        let read = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(read, bundle.to_json());
        // A second write of the same incident replaces, never duplicates.
        bundle.write(&dir).expect("rewrites");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
