//! Campaign checkpointing: streaming per-mutant results as JSONL.
//!
//! A 50k-mutant sweep that dies at mutant 49 000 must not lose two hours
//! of simulation. The supervised runner therefore streams every
//! classification through a [`CampaignSink`] the moment it is produced;
//! the file-backed [`JsonlSink`] flushes each line, so the checkpoint is
//! valid after a `kill -9` at any instant (the worst case is one
//! truncated trailing line, which [`read_checkpoint`] skips).
//!
//! The line format is one flat JSON object per mutant, written by hand
//! and read back through [`s4e_obs::json`], the workspace's one JSON
//! reader:
//!
//! ```text
//! {"tgt":"gpr","loc":10,"bit":31,"kind":"stuck","arg":1,"out":"detected","cause":2,"tval":19}
//! {"tgt":"mem","loc":2147483652,"bit":3,"kind":"flip","arg":42,"out":"masked"}
//! ```
//!
//! `tgt`/`loc`/`bit` locate the fault, `kind`/`arg` give its temporal
//! behaviour (`stuck` + polarity, or `flip` + injection time), `out` is
//! the outcome class with class-specific detail fields (`cause`/`tval`
//! for detected traps, `code` for self-reported exits, `panic` for
//! captured harness panics).

use crate::fault::{FaultKind, FaultOutcome, FaultSpec, FaultTarget};
use crate::FaultResult;
use s4e_isa::{Fpr, Gpr};
use s4e_obs::json::{self, Json};
use s4e_vp::Trap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read as _, Seek, Write};
use std::path::Path;

/// A consumer of per-mutant results, invoked by the supervised runner the
/// moment each mutant is classified (from whichever worker finished it —
/// completion order, not input order).
///
/// Implementations must be `Send`: the runner moves the sink behind a
/// mutex shared by all workers.
pub trait CampaignSink: Send {
    /// Records one classified mutant. `panic` carries the captured
    /// payload when the outcome is [`FaultOutcome::HarnessError`].
    ///
    /// # Errors
    ///
    /// An I/O error aborts the campaign (the runner cancels outstanding
    /// work and surfaces the error as a checkpoint failure).
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> io::Result<()>;
}

/// A sink that drops every result — used by the plain (uncheckpointed)
/// campaign entry points.
#[derive(Debug, Default)]
pub struct NullSink;

impl CampaignSink for NullSink {
    fn record(&mut self, _result: &FaultResult, _panic: Option<&str>) -> io::Result<()> {
        Ok(())
    }
}

/// A sink buffering results in memory (tests, custom aggregation).
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<(FaultResult, Option<String>)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The recorded results, in completion order.
    pub fn records(&self) -> &[(FaultResult, Option<String>)] {
        &self.records
    }
}

impl CampaignSink for MemorySink {
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> io::Result<()> {
        self.records.push((*result, panic.map(str::to_string)));
        Ok(())
    }
}

/// A file-backed JSONL sink. Every record is written as one line and
/// flushed immediately, so the checkpoint survives a hard kill with at
/// most one truncated trailing line.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) a checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens a checkpoint file for appending (the resume path), creating
    /// it if missing. A file killed mid-write ends in a torn trailing
    /// line with no newline; appending directly would fuse the first new
    /// record onto that fragment and lose both, so
    /// [`repair_torn_tail`] truncates the fragment first.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-open error.
    pub fn append(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        repair_torn_tail(path.as_ref())?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            writer: BufWriter::new(file),
        })
    }
}

/// Detects and truncates a torn trailing JSONL line — the signature a
/// `kill -9` (or a chaos SIGKILL) leaves mid-write: bytes after the last
/// newline that never got their terminator. The fragment is cut at the
/// last complete line so the file parses cleanly again; its mutant is
/// simply re-run on resume. A missing or empty file is a no-op.
///
/// # Errors
///
/// Propagates underlying I/O errors (other than "file not found").
pub fn repair_torn_tail(path: impl AsRef<Path>) -> io::Result<()> {
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let mut last = [0u8; 1];
    file.seek(io::SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(());
    }
    // Scan backwards in bounded chunks for the last newline; a torn line
    // is at most one record (~200 bytes), so this touches one chunk.
    const CHUNK: u64 = 4096;
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(CHUNK);
        let mut buf = vec![0u8; (end - start) as usize];
        file.seek(io::SeekFrom::Start(start))?;
        file.read_exact(&mut buf)?;
        if let Some(pos) = buf.iter().rposition(|&b| b == b'\n') {
            file.set_len(start + pos as u64 + 1)?;
            return Ok(());
        }
        end = start;
    }
    // No newline anywhere: the whole file is one torn line.
    file.set_len(0)?;
    Ok(())
}

/// Writes `bytes` to `path` crash-safely: the content goes to a sibling
/// temp file first, is fsynced, and is atomically renamed over the
/// destination — an interrupted run therefore never leaves a truncated
/// or half-written artifact, only the old file or the complete new one.
///
/// # Errors
///
/// Propagates underlying I/O errors; the temp file is removed on failure.
pub fn atomic_write_file(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let write = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Rewrites a checkpoint file to exactly `entries`, via
/// [`atomic_write_file`] — the crash-safe rotation path the shard
/// supervisor uses to seed a shard's checkpoint with already-classified
/// results (and to compact the merged campaign checkpoint): at no instant
/// does the file hold a partial or torn state.
///
/// # Errors
///
/// Propagates underlying I/O errors.
pub fn compact_checkpoint<'a>(
    path: impl AsRef<Path>,
    entries: impl IntoIterator<Item = (&'a FaultResult, Option<&'a str>)>,
) -> io::Result<()> {
    let mut out = String::new();
    for (result, panic) in entries {
        out.push_str(&encode_result(result, panic));
        out.push('\n');
    }
    atomic_write_file(path, out.as_bytes())
}

impl CampaignSink for JsonlSink {
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> io::Result<()> {
        self.writer
            .write_all(encode_result(result, panic).as_bytes())?;
        self.writer.write_all(b"\n")?;
        // A checkpoint line only counts once it reaches the OS: flush per
        // record (simulation cost per mutant dwarfs the write).
        self.writer.flush()
    }
}

/// A checkpoint loaded back from disk.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLoad {
    /// The decodable entries, in file order.
    pub entries: Vec<(FaultResult, Option<String>)>,
    /// Lines that failed to decode (corruption, or the truncated tail of
    /// a killed run) — skipped, their mutants re-run on resume.
    pub skipped_lines: usize,
}

/// Reads a JSONL checkpoint, skipping (and counting) undecodable lines.
/// A missing file loads as an empty checkpoint.
///
/// # Errors
///
/// Propagates I/O errors other than "file not found".
pub fn read_checkpoint(path: impl AsRef<Path>) -> io::Result<CheckpointLoad> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CheckpointLoad::default()),
        Err(e) => return Err(e),
    };
    let mut load = CheckpointLoad::default();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match decode_result(&line) {
            Some(entry) => load.entries.push(entry),
            None => load.skipped_lines += 1,
        }
    }
    Ok(load)
}

// --------------------------------------------------------------- encode

/// Encodes one result as a single JSON line (no trailing newline).
pub fn encode_result(result: &FaultResult, panic: Option<&str>) -> String {
    let mut out = String::with_capacity(96);
    let (tgt, loc, bit) = match result.spec.target {
        FaultTarget::GprBit { reg, bit } => ("gpr", u64::from(reg.index()), bit),
        FaultTarget::FprBit { reg, bit } => ("fpr", u64::from(reg.index()), bit),
        FaultTarget::MemBit { addr, bit } => ("mem", u64::from(addr), bit),
    };
    let _ = write!(out, "{{\"tgt\":\"{tgt}\",\"loc\":{loc},\"bit\":{bit}");
    match result.spec.kind {
        FaultKind::StuckAt { value } => {
            let _ = write!(out, ",\"kind\":\"stuck\",\"arg\":{}", u8::from(value));
        }
        FaultKind::Transient { at_insn } => {
            let _ = write!(out, ",\"kind\":\"flip\",\"arg\":{at_insn}");
        }
    }
    let _ = write!(out, ",\"out\":\"{}\"", outcome_tag(&result.outcome));
    match result.outcome {
        FaultOutcome::Detected { trap } => {
            let _ = write!(
                out,
                ",\"cause\":{},\"tval\":{}",
                trap.mcause(),
                trap.mtval()
            );
        }
        FaultOutcome::SelfReported { code } => {
            let _ = write!(out, ",\"code\":{code}");
        }
        FaultOutcome::HarnessError => {
            if let Some(msg) = panic {
                let _ = write!(out, ",\"panic\":\"{}\"", json::escape(msg));
            }
        }
        _ => {}
    }
    out.push('}');
    out
}

/// The short class tag of an outcome — shared with the forensic-bundle
/// file naming so checkpoint lines and bundle names use one vocabulary.
pub(crate) fn outcome_tag(outcome: &FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::Masked => "masked",
        FaultOutcome::SilentCorruption => "silent",
        FaultOutcome::Detected { .. } => "detected",
        FaultOutcome::SelfReported { .. } => "self",
        FaultOutcome::Timeout => "timeout",
        FaultOutcome::Hang => "hang",
        FaultOutcome::Cancelled => "cancelled",
        FaultOutcome::HarnessError => "harness",
        FaultOutcome::Quarantined => "quarantined",
    }
}

// --------------------------------------------------------------- decode

/// Decodes one checkpoint line. Returns `None` for anything malformed —
/// corrupt bytes, a truncated tail, unknown tags, out-of-range fields.
pub fn decode_result(line: &str) -> Option<(FaultResult, Option<String>)> {
    let doc = json::parse(line)?;
    let fields = doc.as_obj()?;
    let num = |key: &str| fields.get(key).and_then(Json::as_num);
    let text = |key: &str| fields.get(key).and_then(Json::as_str);

    let bit = u8::try_from(num("bit")?).ok()?;
    let loc = num("loc")?;
    let target = match text("tgt")? {
        "gpr" => FaultTarget::GprBit {
            reg: Gpr::new(u8::try_from(loc).ok()?)?,
            bit: (bit < 32).then_some(bit)?,
        },
        "fpr" => FaultTarget::FprBit {
            reg: Fpr::new(u8::try_from(loc).ok()?)?,
            bit: (bit < 32).then_some(bit)?,
        },
        "mem" => FaultTarget::MemBit {
            addr: u32::try_from(loc).ok()?,
            bit: (bit < 8).then_some(bit)?,
        },
        _ => return None,
    };
    let arg = num("arg")?;
    let kind = match text("kind")? {
        "stuck" => FaultKind::StuckAt {
            value: match arg {
                0 => false,
                1 => true,
                _ => return None,
            },
        },
        "flip" => FaultKind::Transient { at_insn: arg },
        _ => return None,
    };
    let outcome = match text("out")? {
        "masked" => FaultOutcome::Masked,
        "silent" => FaultOutcome::SilentCorruption,
        "detected" => FaultOutcome::Detected {
            trap: trap_from_parts(
                u32::try_from(num("cause")?).ok()?,
                u32::try_from(num("tval")?).ok()?,
            )?,
        },
        "self" => FaultOutcome::SelfReported {
            code: u32::try_from(num("code")?).ok()?,
        },
        "timeout" => FaultOutcome::Timeout,
        "hang" => FaultOutcome::Hang,
        "cancelled" => FaultOutcome::Cancelled,
        "harness" => FaultOutcome::HarnessError,
        "quarantined" => FaultOutcome::Quarantined,
        _ => return None,
    };
    let panic = text("panic").map(str::to_string);
    Some((
        FaultResult {
            spec: FaultSpec { target, kind },
            outcome,
        },
        panic,
    ))
}

/// Rebuilds a [`Trap`] from its architectural `(mcause, mtval)` pair —
/// the inverse of [`Trap::mcause`]/[`Trap::mtval`].
fn trap_from_parts(mcause: u32, mtval: u32) -> Option<Trap> {
    Some(match mcause {
        0 => Trap::InsnMisaligned { addr: mtval },
        1 => Trap::InsnAccessFault { addr: mtval },
        2 => Trap::IllegalInsn { raw: mtval },
        3 => Trap::Breakpoint,
        4 => Trap::LoadMisaligned { addr: mtval },
        5 => Trap::LoadAccessFault { addr: mtval },
        6 => Trap::StoreMisaligned { addr: mtval },
        7 => Trap::StoreAccessFault { addr: mtval },
        11 => Trap::EcallM,
        0x8000_0003 => Trap::MachineSoftInterrupt,
        0x8000_0007 => Trap::MachineTimerInterrupt,
        0x8000_000b => Trap::MachineExternalInterrupt,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(result: FaultResult, panic: Option<&str>) {
        let line = encode_result(&result, panic);
        let (decoded, decoded_panic) = decode_result(&line).expect("decodes");
        assert_eq!(decoded, result, "line: {line}");
        let expect_panic = match result.outcome {
            FaultOutcome::HarnessError => panic.map(str::to_string),
            _ => None,
        };
        assert_eq!(decoded_panic, expect_panic, "line: {line}");
    }

    #[test]
    fn roundtrips_every_outcome_class() {
        let spec = FaultSpec {
            target: FaultTarget::GprBit {
                reg: Gpr::A0,
                bit: 31,
            },
            kind: FaultKind::StuckAt { value: true },
        };
        for outcome in [
            FaultOutcome::Masked,
            FaultOutcome::SilentCorruption,
            FaultOutcome::Detected {
                trap: Trap::IllegalInsn { raw: 0xdead_beef },
            },
            FaultOutcome::Detected {
                trap: Trap::LoadAccessFault { addr: 0x8000_0010 },
            },
            FaultOutcome::Detected { trap: Trap::EcallM },
            FaultOutcome::SelfReported { code: 17 },
            FaultOutcome::Timeout,
            FaultOutcome::Hang,
            FaultOutcome::Cancelled,
            FaultOutcome::HarnessError,
            FaultOutcome::Quarantined,
        ] {
            roundtrip(FaultResult { spec, outcome }, None);
        }
    }

    #[test]
    fn roundtrips_every_target_and_kind() {
        for target in [
            FaultTarget::GprBit {
                reg: Gpr::new(28).unwrap(),
                bit: 0,
            },
            FaultTarget::FprBit {
                reg: Fpr::new(7).unwrap(),
                bit: 26,
            },
            FaultTarget::MemBit {
                addr: 0xffff_fffc,
                bit: 7,
            },
        ] {
            for kind in [
                FaultKind::StuckAt { value: false },
                FaultKind::Transient { at_insn: u64::MAX },
                FaultKind::Transient { at_insn: 0 },
            ] {
                roundtrip(
                    FaultResult {
                        spec: FaultSpec { target, kind },
                        outcome: FaultOutcome::Masked,
                    },
                    None,
                );
            }
        }
    }

    #[test]
    fn panic_payload_escaped_and_recovered() {
        let spec = FaultSpec {
            target: FaultTarget::MemBit { addr: 4, bit: 1 },
            kind: FaultKind::Transient { at_insn: 9 },
        };
        roundtrip(
            FaultResult {
                spec,
                outcome: FaultOutcome::HarnessError,
            },
            Some("assertion \"a == b\" failed\n\tleft: 1\u{1}"),
        );
    }

    #[test]
    fn corrupt_lines_rejected() {
        let good = encode_result(
            &FaultResult {
                spec: FaultSpec {
                    target: FaultTarget::GprBit {
                        reg: Gpr::A0,
                        bit: 1,
                    },
                    kind: FaultKind::StuckAt { value: false },
                },
                outcome: FaultOutcome::Masked,
            },
            None,
        );
        assert!(decode_result(&good).is_some());
        // Truncation at every prefix length must be rejected, not crash.
        for cut in 0..good.len() {
            assert!(decode_result(&good[..cut]).is_none(), "prefix {cut}");
        }
        assert!(decode_result("").is_none());
        assert!(decode_result("not json at all").is_none());
        assert!(decode_result(&format!("{good}garbage")).is_none());
        assert!(decode_result("{\"tgt\":\"gpr\",\"loc\":99,\"bit\":1,\"kind\":\"stuck\",\"arg\":0,\"out\":\"masked\"}").is_none(), "reg index out of range");
        assert!(decode_result("{\"tgt\":\"gpr\",\"loc\":1,\"bit\":40,\"kind\":\"stuck\",\"arg\":0,\"out\":\"masked\"}").is_none(), "bit out of range");
        assert!(decode_result("{\"tgt\":\"gpr\",\"loc\":1,\"bit\":1,\"kind\":\"stuck\",\"arg\":0,\"out\":\"detected\"}").is_none(), "detected without trap detail");
    }

    #[test]
    fn checkpoint_file_roundtrip_with_corruption() {
        let dir = std::env::temp_dir().join("s4e-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let a = FaultResult {
            spec: FaultSpec {
                target: FaultTarget::GprBit {
                    reg: Gpr::A0,
                    bit: 2,
                },
                kind: FaultKind::StuckAt { value: true },
            },
            outcome: FaultOutcome::SilentCorruption,
        };
        let b = FaultResult {
            spec: FaultSpec {
                target: FaultTarget::MemBit {
                    addr: 0x8000_0040,
                    bit: 5,
                },
                kind: FaultKind::Transient { at_insn: 3 },
            },
            outcome: FaultOutcome::Hang,
        };
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(&a, None).unwrap();
            sink.record(&b, None).unwrap();
        }
        // Simulate a kill mid-write: append a truncated line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"tgt\":\"gpr\",\"loc\":3").unwrap();
        }
        let load = read_checkpoint(&path).unwrap();
        assert_eq!(load.skipped_lines, 1);
        assert_eq!(
            load.entries,
            vec![(a, None), (b, None)],
            "valid prefix recovered"
        );
        assert!(read_checkpoint(dir.join("missing.jsonl"))
            .unwrap()
            .entries
            .is_empty());
        std::fs::remove_file(&path).ok();
    }
}
