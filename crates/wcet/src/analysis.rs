//! The structural IPET analysis: per-function loop collapse and
//! longest-path computation over the call graph, bottom-up.

use crate::bounds::{infer_bound, LoopBounds};
use crate::error::WcetError;
use s4e_cfg::{Function, Program};
use s4e_vp::TimingModel;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Where a loop bound came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSource {
    /// Supplied by the user via [`LoopBounds`].
    Annotated,
    /// Recovered by the counted-loop inference.
    Inferred,
}

/// Per-loop analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopTiming {
    /// The loop header block address.
    pub header: u32,
    /// The bound used (body executions per loop entry).
    pub bound: u64,
    /// How the bound was obtained.
    pub source: BoundSource,
    /// Worst-case cycles of one body execution (inner loops included).
    pub per_iteration: u64,
    /// `bound * per_iteration`.
    pub total: u64,
}

/// Per-block static timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTiming {
    /// Block start address.
    pub start: u32,
    /// One past the last instruction byte.
    pub end: u32,
    /// Worst-case cycles of the block's own instructions.
    pub cost: u64,
    /// WCET of the callee, when the block ends in a call.
    pub call_cost: u64,
}

/// Per-function analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionWcet {
    /// Function entry address.
    pub entry: u32,
    /// Symbol name, if known.
    pub name: Option<String>,
    /// The function's worst-case execution time in cycles (callees
    /// included).
    pub wcet: u64,
    /// Static per-block costs.
    pub blocks: Vec<BlockTiming>,
    /// Per-loop bounds and costs.
    pub loops: Vec<LoopTiming>,
}

/// The full analysis result — the ecosystem's equivalent of an aiT report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetReport {
    entry: u32,
    functions: BTreeMap<u32, FunctionWcet>,
}

impl WcetReport {
    /// The program's WCET bound in cycles (the entry function's WCET).
    pub fn total_wcet(&self) -> u64 {
        self.functions[&self.entry].wcet
    }

    /// The program entry address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Per-function results, keyed by entry address.
    pub fn functions(&self) -> &BTreeMap<u32, FunctionWcet> {
        &self.functions
    }

    /// The result for one function.
    pub fn function(&self, entry: u32) -> Option<&FunctionWcet> {
        self.functions.get(&entry)
    }

    /// Every loop bound used, keyed by header (for QTA runtime checking).
    pub fn all_bounds(&self) -> LoopBounds {
        self.functions
            .values()
            .flat_map(|f| f.loops.iter().map(|l| (l.header, l.bound)))
            .collect()
    }
}

/// Options for [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct WcetOptions {
    /// The instruction timing model (must match the VP's model for the
    /// soundness invariant to hold).
    pub timing: TimingModel,
    /// Explicit loop-bound annotations.
    pub bounds: LoopBounds,
    /// Whether to run counted-loop bound inference for unannotated loops.
    pub infer_bounds: bool,
}

impl WcetOptions {
    /// Default options: reference timing model, no annotations, inference
    /// enabled.
    pub fn new() -> WcetOptions {
        WcetOptions {
            timing: TimingModel::new(),
            bounds: LoopBounds::new(),
            infer_bounds: true,
        }
    }
}

impl Default for WcetOptions {
    fn default() -> Self {
        WcetOptions::new()
    }
}

/// Runs the static WCET analysis over a reconstructed program.
///
/// Functions are processed bottom-up over the call graph; each function's
/// natural loops are collapsed innermost-first into single weighted nodes
/// (`bound × worst body path`), after which the function is a DAG whose
/// longest weighted path is its WCET.
///
/// # Errors
///
/// Returns a [`WcetError`] for recursive call graphs, irreducible control
/// flow, unresolvable indirect jumps, or loops with neither an annotation
/// nor an inferable bound.
///
/// # Examples
///
/// ```
/// use s4e_asm::assemble;
/// use s4e_cfg::Program;
/// use s4e_isa::IsaConfig;
/// use s4e_wcet::{analyze, WcetOptions};
///
/// let img = assemble(r#"
///     li t0, 10
///     loop: addi t0, t0, -1
///     bnez t0, loop
///     ebreak
/// "#)?;
/// let prog = Program::from_bytes(img.base(), img.bytes(), img.entry(), &IsaConfig::full())?;
/// let report = analyze(&prog, &WcetOptions::new())?;
/// assert!(report.total_wcet() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(program: &Program, opts: &WcetOptions) -> Result<WcetReport, WcetError> {
    if let Some(cycle) = program.recursion_cycle() {
        return Err(WcetError::Recursion { cycle });
    }
    let order = program
        .bottom_up_order()
        .expect("acyclic call graph has a bottom-up order");
    let mut results: BTreeMap<u32, FunctionWcet> = BTreeMap::new();
    for entry in order {
        let func = program
            .function(entry)
            .expect("bottom-up order lists known functions");
        let callee_wcets: HashMap<u32, u64> = func
            .callees()
            .into_iter()
            .map(|c| {
                results
                    .get(&c)
                    .map(|r| (c, r.wcet))
                    .ok_or(WcetError::UnknownCallee { callee: c })
            })
            .collect::<Result<_, _>>()?;
        let fw = analyze_function(func, opts, &callee_wcets)?;
        results.insert(entry, fw);
    }
    Ok(WcetReport {
        entry: program.entry(),
        functions: results,
    })
}

fn analyze_function(
    func: &Function,
    opts: &WcetOptions,
    callee_wcets: &HashMap<u32, u64>,
) -> Result<FunctionWcet, WcetError> {
    let fentry = func.entry();
    if func.has_indirect_flow() {
        return Err(WcetError::IndirectFlow { function: fentry });
    }
    if !func.is_reducible() {
        return Err(WcetError::Irreducible { function: fentry });
    }

    // Static per-block costs (worst case per instruction + callee WCET).
    let mut block_timings = Vec::new();
    let mut nodes: BTreeMap<u32, Node> = BTreeMap::new();
    for (&addr, block) in func.blocks() {
        let cost: u64 = block
            .insns()
            .iter()
            .map(|(_, i)| opts.timing.worst_case_cost(i))
            .sum();
        let call_cost = match block.terminator().callee() {
            Some(callee) => *callee_wcets
                .get(&callee)
                .ok_or(WcetError::UnknownCallee { callee })?,
            None => 0,
        };
        block_timings.push(BlockTiming {
            start: addr,
            end: block.end(),
            cost,
            call_cost,
        });
        nodes.insert(
            addr,
            Node {
                cost: cost + call_cost,
                succs: block.terminator().successors(),
            },
        );
    }

    // Collapse natural loops innermost-first.
    let loops = func.natural_loops();
    let mut loop_timings = Vec::new();
    for lp in loops.iter().rev() {
        let (bound, source) = match opts.bounds.get(lp.header) {
            Some(b) => (b, BoundSource::Annotated),
            None => match opts.infer_bounds.then(|| infer_bound(func, lp)).flatten() {
                Some(b) => (b, BoundSource::Inferred),
                None => {
                    return Err(WcetError::MissingLoopBound {
                        function: fentry,
                        header: lp.header,
                    })
                }
            },
        };
        if bound == 0 {
            return Err(WcetError::ZeroBound { header: lp.header });
        }
        // The body restricted to still-present nodes (inner loops already
        // collapsed into their headers).
        let body: BTreeSet<u32> = lp
            .body
            .iter()
            .copied()
            .filter(|a| nodes.contains_key(a))
            .collect();
        let per_iteration = longest_path_within(&nodes, lp.header, &body, fentry)?;
        // Exit edges of the collapsed super-node.
        let mut exits: Vec<u32> = body
            .iter()
            .flat_map(|a| nodes[a].succs.iter().copied())
            .filter(|s| !body.contains(s))
            .collect();
        exits.sort_unstable();
        exits.dedup();
        for a in &body {
            if *a != lp.header {
                nodes.remove(a);
            }
        }
        let header_node = nodes.get_mut(&lp.header).expect("header survives collapse");
        header_node.cost = bound * per_iteration;
        header_node.succs = exits;
        loop_timings.push(LoopTiming {
            header: lp.header,
            bound,
            source,
            per_iteration,
            total: bound * per_iteration,
        });
    }

    // Longest path over the residual DAG.
    let wcet = longest_path_within(
        &nodes,
        fentry,
        &nodes.keys().copied().collect::<BTreeSet<u32>>(),
        fentry,
    )?;
    Ok(FunctionWcet {
        entry: fentry,
        name: func.name().map(str::to_string),
        wcet,
        blocks: block_timings,
        loops: loop_timings,
    })
}

#[derive(Debug)]
struct Node {
    cost: u64,
    succs: Vec<u32>,
}

/// Longest node-weighted path from `start`, restricted to `region`,
/// ignoring edges back to `start` (loop back edges). Errors on residual
/// cycles, which would indicate irreducible flow.
fn longest_path_within(
    nodes: &BTreeMap<u32, Node>,
    start: u32,
    region: &BTreeSet<u32>,
    function: u32,
) -> Result<u64, WcetError> {
    fn go(
        addr: u32,
        start: u32,
        nodes: &BTreeMap<u32, Node>,
        region: &BTreeSet<u32>,
        memo: &mut HashMap<u32, u64>,
        on_stack: &mut BTreeSet<u32>,
        function: u32,
    ) -> Result<u64, WcetError> {
        if let Some(&v) = memo.get(&addr) {
            return Ok(v);
        }
        if !on_stack.insert(addr) {
            return Err(WcetError::Irreducible { function });
        }
        let node = &nodes[&addr];
        let mut best_tail = 0;
        for &succ in &node.succs {
            if succ == start || !region.contains(&succ) || !nodes.contains_key(&succ) {
                continue;
            }
            let tail = go(succ, start, nodes, region, memo, on_stack, function)?;
            best_tail = best_tail.max(tail);
        }
        on_stack.remove(&addr);
        let total = node.cost + best_tail;
        memo.insert(addr, total);
        Ok(total)
    }
    let mut memo = HashMap::new();
    let mut on_stack = BTreeSet::new();
    go(
        start,
        start,
        nodes,
        region,
        &mut memo,
        &mut on_stack,
        function,
    )
}
