//! The WCET-annotated control-flow-graph interchange format — the output
//! of the ecosystem's `ait2qta` preprocessing step.
//!
//! Nodes correspond to aiT blocks; each carries the worst-case cycle cost
//! of traversing it (the paper attaches times to edges from source to
//! target block; attaching the identical quantity to the source node is an
//! equivalent formulation and is what the QTA engine accumulates during
//! co-simulation). Loop headers additionally carry their bound and latch
//! set so the simulator can check bounds at runtime.
//!
//! The format has a line-oriented textual serialization
//! ([`TimedCfg::to_text`] / [`TimedCfg::from_text`]) so an annotated graph
//! can be produced once and shipped next to the binary, exactly like the
//! demonstrated aiT-report flow.

use crate::analysis::WcetReport;
use core::fmt;
use s4e_cfg::Program;
use std::collections::BTreeMap;
use std::error::Error;

/// One WCET-annotated block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedBlock {
    /// Block start address.
    pub start: u32,
    /// One past the last instruction byte.
    pub end: u32,
    /// Worst-case cycles of this block's own instructions (callee time is
    /// *not* folded in — callee blocks are traversed and accounted
    /// themselves during co-simulation).
    pub wcet: u64,
    /// Successor block start addresses (intra-procedural, plus the callee
    /// entry for call blocks).
    pub succs: Vec<u32>,
    /// Loop bound when this block is a loop header.
    pub loop_bound: Option<u64>,
    /// Latch blocks of the headed loop (sources of back edges).
    pub latches: Vec<u32>,
    /// Entry address of the containing function.
    pub function: u32,
}

/// The WCET-annotated CFG consumed by the QTA co-simulation engine.
///
/// # Examples
///
/// ```
/// use s4e_asm::assemble;
/// use s4e_cfg::Program;
/// use s4e_isa::IsaConfig;
/// use s4e_wcet::{analyze, TimedCfg, WcetOptions};
///
/// let img = assemble("li t0, 4\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak")?;
/// let prog = Program::from_bytes(img.base(), img.bytes(), img.entry(), &IsaConfig::full())?;
/// let report = analyze(&prog, &WcetOptions::new())?;
/// let cfg = TimedCfg::build(&prog, &report);
/// let text = cfg.to_text();
/// assert_eq!(TimedCfg::from_text(&text)?, cfg);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedCfg {
    entry: u32,
    total_wcet: u64,
    blocks: BTreeMap<u32, TimedBlock>,
}

impl TimedCfg {
    /// Builds the annotated graph from a reconstructed program and its
    /// WCET report.
    pub fn build(program: &Program, report: &WcetReport) -> TimedCfg {
        let mut blocks = BTreeMap::new();
        for (&fentry, func) in program.functions() {
            let Some(fw) = report.function(fentry) else {
                continue;
            };
            let loop_of: BTreeMap<u32, u64> =
                fw.loops.iter().map(|l| (l.header, l.bound)).collect();
            // Latches come from the CFG, not the report.
            let latch_map: BTreeMap<u32, Vec<u32>> = func
                .natural_loops()
                .into_iter()
                .map(|l| (l.header, l.latches))
                .collect();
            for bt in &fw.blocks {
                let block = func.block(bt.start).expect("report blocks exist in CFG");
                let mut succs = block.terminator().successors();
                if let Some(callee) = block.terminator().callee() {
                    succs.push(callee);
                }
                let (loop_bound, latches) = match loop_of.get(&bt.start) {
                    Some(&bound) => (
                        Some(bound),
                        latch_map.get(&bt.start).cloned().unwrap_or_default(),
                    ),
                    None => (None, Vec::new()),
                };
                blocks.entry(bt.start).or_insert(TimedBlock {
                    start: bt.start,
                    end: bt.end,
                    wcet: bt.cost,
                    succs,
                    loop_bound,
                    latches,
                    function: fentry,
                });
            }
        }
        TimedCfg {
            entry: program.entry(),
            total_wcet: report.total_wcet(),
            blocks,
        }
    }

    /// The program entry address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The program's static WCET bound in cycles, carried from the
    /// analysis so a shipped annotated graph is self-contained.
    pub fn total_wcet(&self) -> u64 {
        self.total_wcet
    }

    /// All annotated blocks, keyed by start address.
    pub fn blocks(&self) -> &BTreeMap<u32, TimedBlock> {
        &self.blocks
    }

    /// The block starting exactly at `addr`.
    pub fn block(&self, addr: u32) -> Option<&TimedBlock> {
        self.blocks.get(&addr)
    }

    /// The block whose address range contains `addr`.
    pub fn block_containing(&self, addr: u32) -> Option<&TimedBlock> {
        self.blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| addr < b.end)
    }

    /// Serializes to the line-oriented interchange text.
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::from("# s4e timed CFG v1\n");
        let _ = writeln!(out, "entry {:#010x}", self.entry);
        let _ = writeln!(out, "wcet {}", self.total_wcet);
        for b in self.blocks.values() {
            let _ = write!(
                out,
                "block {:#010x} {:#010x} {} fn={:#010x}",
                b.start, b.end, b.wcet, b.function
            );
            if let Some(bound) = b.loop_bound {
                let _ = write!(out, " bound={bound}");
            }
            if !b.latches.is_empty() {
                let latches: Vec<String> = b.latches.iter().map(|l| format!("{l:#010x}")).collect();
                let _ = write!(out, " latches={}", latches.join(","));
            }
            if !b.succs.is_empty() {
                let succs: Vec<String> = b.succs.iter().map(|s| format!("{s:#010x}")).collect();
                let _ = write!(out, " succs={}", succs.join(","));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the interchange text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTimedCfgError`] with the offending line number on
    /// malformed input.
    pub fn from_text(text: &str) -> Result<TimedCfg, ParseTimedCfgError> {
        let mut entry = None;
        let mut total_wcet = 0u64;
        let mut blocks = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |msg: &str| ParseTimedCfgError {
                line: lineno,
                message: msg.to_string(),
            };
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("entry") => {
                    let addr = parse_u32(parts.next().ok_or_else(|| bad("missing address"))?)
                        .ok_or_else(|| bad("bad entry address"))?;
                    entry = Some(addr);
                }
                Some("wcet") => {
                    total_wcet = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad wcet value"))?;
                }
                Some("block") => {
                    let start = parse_u32(parts.next().ok_or_else(|| bad("missing start"))?)
                        .ok_or_else(|| bad("bad start"))?;
                    let end = parse_u32(parts.next().ok_or_else(|| bad("missing end"))?)
                        .ok_or_else(|| bad("bad end"))?;
                    let wcet = parts
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| bad("bad wcet"))?;
                    let mut block = TimedBlock {
                        start,
                        end,
                        wcet,
                        succs: Vec::new(),
                        loop_bound: None,
                        latches: Vec::new(),
                        function: start,
                    };
                    for field in parts {
                        let (key, value) = field
                            .split_once('=')
                            .ok_or_else(|| bad("expected key=value field"))?;
                        match key {
                            "fn" => {
                                block.function =
                                    parse_u32(value).ok_or_else(|| bad("bad fn address"))?;
                            }
                            "bound" => {
                                block.loop_bound =
                                    Some(value.parse().map_err(|_| bad("bad bound"))?);
                            }
                            "latches" => {
                                block.latches =
                                    parse_u32_list(value).ok_or_else(|| bad("bad latches list"))?;
                            }
                            "succs" => {
                                block.succs =
                                    parse_u32_list(value).ok_or_else(|| bad("bad succs list"))?;
                            }
                            _ => return Err(bad("unknown field")),
                        }
                    }
                    blocks.insert(start, block);
                }
                _ => return Err(bad("unknown directive")),
            }
        }
        Ok(TimedCfg {
            entry: entry.ok_or(ParseTimedCfgError {
                line: 0,
                message: "missing entry directive".to_string(),
            })?,
            total_wcet,
            blocks,
        })
    }
}

fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_u32_list(s: &str) -> Option<Vec<u32>> {
    s.split(',').map(parse_u32).collect()
}

/// A parse error for the interchange text, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimedCfgError {
    /// 1-based line number (0 for whole-file errors).
    line: usize,
    message: String,
}

impl ParseTimedCfgError {
    /// The 1-based line the error occurred on (0 for whole-file errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseTimedCfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timed-CFG parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseTimedCfgError {}
