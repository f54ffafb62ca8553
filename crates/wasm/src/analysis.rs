//! Load-time static analysis over the compiled IRs: translation
//! validation of the register form (what executes) against the flat IR
//! (the intermediate it was lowered from), plus worst-case resource
//! bounds for admission control.
//!
//! The pass runs after validation and lowering (see [`crate::compile`]
//! and [`crate::regalloc`]) and produces one [`FuncReport`] per
//! module-local function:
//!
//! * **Translation validation** — the flat IR is the metering/trapping
//!   reference: one op per source instruction, nothing fused, and no
//!   dead op (the flat compiler is the one place liveness is decided).
//!   The register form is an optimized lowering of it, and every
//!   superinstruction is formed on that side of the proof. This pass
//!   reconstructs the flat CFG — blocks, entry heights, edges, calls —
//!   and checks the register form block by block against it: every flat
//!   op mapped, identical `Meter` placement, costs and entry heights,
//!   identical memory/call/trap-op populations per block — counted on
//!   both sides over the shared [`crate::ops`] payload types — and a
//!   consistent branch side table. The walk predicts no decision of the
//!   lowering it checks: the lowering folds values, never control flow,
//!   so there is no liveness for the two sides to agree on. Any future
//!   lowering bug is rejected *before it executes* instead of surfacing
//!   as a sampled differential-test failure.
//! * **Static resource bounds** — an abstract interpretation over the
//!   flat CFG computes per-function worst-case fuel (exact for
//!   loop-free and constant-trip-count code, [`Bound::Unbounded`]
//!   otherwise), worst-case value-stack height, call-frame depth,
//!   register-arena footprint, and the highest statically addressable
//!   memory byte. Bounds propagate through the call graph; recursion
//!   (direct or mutual) and indirect calls degrade to `Unbounded`.
//!
//! The host's `SandboxPolicy` consumes the report as an admission gate:
//! a real-time deployment class can require a finite fuel bound or
//! reject any plugin with a data-dependent loop at install time, which
//! is the enforcement half of the governance-tiers roadmap item.
//!
//! Analyzer cost: one linear pass per function for the CFG walk plus
//! near-linear SCC work, amortized once per module behind
//! [`Module::analysis`] — the same caching discipline as compilation
//! itself.

use std::collections::BTreeSet;

use crate::compile::{CompiledFunc, Op};
use crate::interp::Value;
use crate::module::{ExportKind, Module};
use crate::ops::{I32Op, UnOp};
use crate::regalloc::{ROp, RegFunc};

/// A worst-case resource bound: exactly known, or not statically
/// boundable. `Finite(a) < Finite(b) < Unbounded` under `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// The resource never exceeds this many units.
    Finite(u64),
    /// No static bound exists (data-dependent loop, recursion, or an
    /// indirect call).
    Unbounded,
}

impl Bound {
    /// Saturating addition; anything plus `Unbounded` is `Unbounded`.
    // Lattice operation, not arithmetic: `Unbounded` is absorbing, so an
    // `ops::Add` impl would misleadingly suggest ring semantics.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Saturating multiplication. `Finite(0)` absorbs even `Unbounded`
    /// (a loop body that never runs costs nothing).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(0), _) | (_, Bound::Finite(0)) => Bound::Finite(0),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_mul(b)),
            _ => Bound::Unbounded,
        }
    }

    /// The larger of the two bounds.
    pub fn max(self, other: Bound) -> Bound {
        std::cmp::max(self, other)
    }

    /// The finite value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            Bound::Finite(n) => Some(n),
            Bound::Unbounded => None,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Static worst-case resource report for one module-local function,
/// covering a call rooted at it (callees included).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncReport {
    /// Module-local function index (into `Module::funcs`).
    pub func: u32,
    /// First export name carrying this function, when exported.
    pub export: Option<String>,
    /// Worst-case fuel (source instructions) a call can retire.
    pub fuel: Bound,
    /// Worst-case value-stack height a call can reach, as enforced by
    /// the `Meter` checks (identical in the flat IR and the register
    /// form; see the reg executor's `vbase + entry + peak` note).
    pub stack: Bound,
    /// Worst-case call-frame depth (the function's own frame included).
    pub frames: Bound,
    /// Worst-case register-arena footprint of the register executor.
    pub regs: Bound,
    /// One past the highest memory byte touched through a statically
    /// known address (0 when no such access exists).
    pub mem_high: u64,
    /// True when some reachable memory access has a data-dependent
    /// address (including `memory.copy`/`memory.fill`).
    pub dynamic_mem: bool,
    /// True when some reachable loop has no statically bounded trip
    /// count.
    pub unbounded_loops: bool,
    /// True when the function partakes in (direct or mutual) recursion.
    pub recursive: bool,
}

/// Whole-module analysis: per-function reports plus the proof that the
/// register lowering of every function matches the flat IR.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAnalysis {
    /// One report per module-local function, index-aligned with
    /// `Module::funcs`.
    pub funcs: Vec<FuncReport>,
}

impl ModuleAnalysis {
    /// The report for a module-local function index.
    pub fn func(&self, local_idx: u32) -> &FuncReport {
        &self.funcs[local_idx as usize]
    }

    /// Reports for exported functions only.
    pub fn exports(&self) -> impl Iterator<Item = &FuncReport> {
        self.funcs.iter().filter(|r| r.export.is_some())
    }
}

/// Load-time analysis failure. Translation mismatches mean the register
/// lowering is *not* a faithful image of the flat IR — and the register
/// form is what runs, so instantiation refuses the module outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The register form of `func` diverges from the flat IR at flat
    /// op `pc`.
    TranslationMismatch {
        /// Module-local function index.
        func: u32,
        /// Flat-IR op index the divergence anchors to.
        pc: u32,
        /// Human-readable description of the divergence.
        what: String,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::TranslationMismatch { func, pc, what } => {
                write!(
                    f,
                    "translation validation failed: func {func} flat pc {pc}: {what}"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

// ---------------------------------------------------------------------------
// Flat-CFG reconstruction
// ---------------------------------------------------------------------------

/// A call site inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// Direct call to a module-local function.
    Wasm(u32),
    /// Imported host function.
    Host(u32),
    /// Indirect call through the table, by type index.
    Indirect(u32),
}

/// One reconstructed flat basic block: the ops between two `Meter`
/// leaders, with the control edges and call sites found in them.
#[derive(Debug)]
struct Block {
    /// Leading `Meter` pc.
    start: usize,
    /// One past the last op (the next leader).
    end: usize,
    /// `Meter` cost (source instructions).
    cost: u32,
    /// `Meter` peak (stored value-stack headroom, what the runtime
    /// enforces).
    peak: u32,
    /// Operand-stack height at block entry.
    entry_h: u32,
    /// Branch side-table indices this block's ops may take.
    edges: Vec<u32>,
    /// Control can fall through into the next leader.
    falls: bool,
    /// Call sites in op order, with the operand-stack height just
    /// before the call.
    calls: Vec<(Call, u32)>,
}

/// Everything one linear pass over a flat function recovers: blocks,
/// entry heights, edges, and the function's own memory/stack facts.
struct Shape {
    blocks: Vec<Block>,
    /// Per flat pc: block index, `u32::MAX` when the pc leads no block.
    pc2block: Vec<u32>,
    /// The shared function-level `Return` trampoline pc, when present.
    exit_pc: Option<usize>,
    /// Max `entry_h + peak` over the blocks (the value-stack quantity
    /// both executors check against `max_value_stack`).
    own_stack: u32,
    /// One past the highest statically addressed memory byte.
    mem_high: u64,
    /// Some access has a data-dependent address.
    dynamic_mem: bool,
    /// Per-block successor lists (`usize::MAX` = function exit).
    succs: Vec<Vec<usize>>,
}

pub(crate) fn mismatch(func: u32, pc: usize, what: impl Into<String>) -> AnalysisError {
    AnalysisError::TranslationMismatch {
        func,
        pc: pc as u32,
        what: what.into(),
    }
}

/// The linear walk that reconstructs blocks. It replays no decision of
/// the lowering: the flat IR has no dead op, so every op belongs to a
/// block and every block counts. `cells` is a local constant tracker —
/// `Some(v)` where the operand is `v` on every execution — feeding only
/// the reported `mem_high`/`dynamic_mem`, never a verdict. `alive` is
/// "the previous op falls through", which tells a join from a
/// branch-only entry.
struct ShapeBuilder {
    func: u32,
    cells: Vec<Option<Value>>,
    alive: bool,
    pc2block: Vec<u32>,
    blocks: Vec<Block>,
    cur: Option<usize>,
    exit_pc: Option<usize>,
    mem_high: u64,
    dynamic_mem: bool,
}

fn const_i32(cell: Option<Value>) -> Option<i32> {
    match cell {
        Some(Value::I32(k)) => Some(k),
        _ => None,
    }
}

impl ShapeBuilder {
    fn err(&self, pc: usize, what: impl Into<String>) -> AnalysisError {
        mismatch(self.func, pc, what)
    }

    fn pop(&mut self, pc: usize) -> Result<Option<Value>, AnalysisError> {
        self.cells
            .pop()
            .ok_or_else(|| self.err(pc, "operand stack underflow in analysis walk"))
    }

    fn popn(&mut self, pc: usize, n: u32) -> Result<(), AnalysisError> {
        for _ in 0..n {
            self.pop(pc)?;
        }
        Ok(())
    }

    fn pushn(&mut self, n: u32) {
        for _ in 0..n {
            self.cells.push(None);
        }
    }

    fn edge(&mut self, br: u32) {
        let b = self.cur.expect("op inside a block");
        self.blocks[b].edges.push(br);
    }

    fn call(&mut self, c: Call) {
        let h = self.cells.len() as u32;
        let b = self.cur.expect("op inside a block");
        self.blocks[b].calls.push((c, h));
    }

    fn access(&mut self, addr: Option<Value>, off: u32, width: u64) {
        match const_i32(addr) {
            Some(a) => {
                let end = a as u32 as u64 + off as u64 + width;
                self.mem_high = self.mem_high.max(end);
            }
            None => self.dynamic_mem = true,
        }
    }

    /// An op that neither folds nor touches memory: apply the arity
    /// table, every result cell unknown.
    fn effect(&mut self, module: &Module, pc: usize, op: Op) -> Result<(), AnalysisError> {
        let (pops, pushes) = op.stack_effect(module);
        self.popn(pc, pops)?;
        self.pushn(pushes);
        Ok(())
    }
}

fn build_shape(module: &Module, func: u32, cf: &CompiledFunc) -> Result<Shape, AnalysisError> {
    let n = cf.ops.len();
    let eh = cf.entry_heights(func)?;

    let mut w = ShapeBuilder {
        func,
        cells: Vec::new(),
        alive: true,
        pc2block: vec![u32::MAX; n],
        blocks: Vec::new(),
        cur: None,
        exit_pc: None,
        mem_high: 0,
        dynamic_mem: false,
    };

    if n == 0 || !matches!(cf.ops[0], Op::Meter { .. }) {
        return Err(mismatch(func, 0, "function does not start with a Meter"));
    }

    for (pc, &eh_pc) in eh.iter().enumerate() {
        let op = cf.ops[pc];
        let arriving = w.alive;
        if eh_pc != u32::MAX {
            if !w.alive {
                w.cells.clear();
                w.cells.resize(eh_pc as usize, None);
                w.alive = true;
            } else {
                if w.cells.len() != eh_pc as usize {
                    return Err(w.err(pc, "fall-through height disagrees with branch target"));
                }
                // Join: a branch arrival may carry other values, so
                // constness cannot survive the merge.
                w.cells.fill(None);
            }
        }
        if !w.alive {
            return Err(w.err(pc, "flat op is unreachable"));
        }
        let is_trampoline = eh_pc != u32::MAX && matches!(op, Op::Return);
        if matches!(op, Op::Meter { .. }) || is_trampoline {
            if let Some(c) = w.cur {
                w.blocks[c].end = pc;
                w.blocks[c].falls = arriving;
            }
            w.cur = None;
        }
        if eh_pc != u32::MAX && !matches!(op, Op::Meter { .. } | Op::Return) {
            return Err(w.err(pc, "branch target is neither a Meter nor a Return"));
        }
        if let Op::Meter { cost, peak } = op {
            let idx = w.blocks.len();
            w.pc2block[pc] = idx as u32;
            w.blocks.push(Block {
                start: pc,
                end: n,
                cost,
                peak,
                entry_h: w.cells.len() as u32,
                edges: Vec::new(),
                falls: false,
                calls: Vec::new(),
            });
            w.cur = Some(idx);
            continue;
        }
        if is_trampoline {
            w.exit_pc = Some(pc);
            w.alive = false;
            continue;
        }
        if w.cur.is_none() {
            return Err(w.err(pc, "op outside any metered block"));
        }

        match op {
            Op::Meter { .. } => unreachable!("handled above"),
            Op::Unreachable => w.alive = false,
            Op::Br(b) => {
                w.edge(b);
                w.alive = false;
            }
            Op::BrIf(b) | Op::BrIfZ(b) => {
                w.pop(pc)?;
                w.edge(b);
            }
            Op::BrTable { start, n: nt } => {
                w.pop(pc)?;
                for i in start..=start + nt {
                    w.edge(i);
                }
                w.alive = false;
            }
            Op::Return => w.alive = false,
            Op::CallWasm(f) => {
                w.call(Call::Wasm(f));
                w.effect(module, pc, op)?;
            }
            Op::CallHost { f, .. } => {
                w.call(Call::Host(f));
                w.effect(module, pc, op)?;
            }
            Op::CallIndirect(ty) => {
                w.call(Call::Indirect(ty));
                w.effect(module, pc, op)?;
            }
            Op::LocalTee(_) => {
                // Top cell (and its constness) survives the write-back.
            }
            // Two constants fold; otherwise the result cell is unknown.
            Op::I32Bin(op) => {
                let b_ = const_i32(w.pop(pc)?);
                let a_ = const_i32(w.pop(pc)?);
                w.cells.push(match (a_, b_) {
                    (Some(x), Some(y)) => Some(Value::I32(op.eval(x, y))),
                    _ => None,
                });
            }
            Op::MemoryCopy | Op::MemoryFill => {
                w.popn(pc, 3)?;
                w.dynamic_mem = true;
            }
            Op::I32Const(k) => w.cells.push(Some(Value::I32(k))),
            Op::I64Const(k) => w.cells.push(Some(Value::I64(k))),
            Op::F32Const(k) => w.cells.push(Some(Value::F32(k))),
            Op::F64Const(k) => w.cells.push(Some(Value::F64(k))),
            Op::Load { kind, off } => {
                let addr = w.pop(pc)?;
                w.access(addr, off, kind.width());
                w.cells.push(None);
            }
            Op::Store { kind, off } => {
                w.pop(pc)?; // value
                let addr = w.pop(pc)?;
                w.access(addr, off, kind.width());
            }
            // A constant operand folds unless the conversion traps on it.
            Op::Un(op) => {
                let folded = w.pop(pc)?.and_then(|v| op.eval(v).ok());
                w.cells.push(folded);
            }
            other => w.effect(module, pc, other)?,
        }
    }
    if let Some(c) = w.cur {
        w.blocks[c].end = n;
        if w.alive {
            return Err(w.err(n.saturating_sub(1), "control falls off the function end"));
        }
    }

    // Resolve edges to successor block indices (usize::MAX = exit).
    let exit_pc = w.exit_pc;
    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(w.blocks.len());
    for (bi, b) in w.blocks.iter().enumerate() {
        let mut out = Vec::new();
        for &br in &b.edges {
            let bt = cf
                .branches
                .get(br as usize)
                .ok_or_else(|| mismatch(func, b.start, "branch index out of range"))?;
            let tpc = bt.pc as usize;
            if Some(tpc) == exit_pc {
                out.push(usize::MAX);
            } else {
                let tb = w.pc2block[tpc];
                if tb == u32::MAX {
                    return Err(mismatch(func, tpc, "branch target leads no block"));
                }
                out.push(tb as usize);
            }
        }
        if b.falls {
            let next = bi + 1;
            if next < w.blocks.len() && w.blocks[next].start == b.end {
                out.push(next);
            } else {
                // Falling into the Return trampoline is a function exit.
                out.push(usize::MAX);
            }
        }
        succs.push(out);
    }

    let own_stack = w
        .blocks
        .iter()
        .map(|b| b.entry_h + b.peak)
        .max()
        .unwrap_or(0);

    Ok(Shape {
        blocks: w.blocks,
        pc2block: w.pc2block,
        exit_pc,
        own_stack,
        mem_high: w.mem_high,
        dynamic_mem: w.dynamic_mem,
        succs,
    })
}

// ---------------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------------

/// Per-block population counts of the op classes that lower 1:1 (loads,
/// stores, memory ops, traps, i64/float/trapping binops, globals).
/// Address-chain fusion and write-back fusion never add or remove a
/// member of these classes, so flat and register counts must agree
/// exactly — except `un`, which constant folding and the absorption of
/// `i32.eqz` into a compare or branch may only shrink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ClassCounts {
    load: u32,
    store: u32,
    msize: u32,
    mgrow: u32,
    mcopy: u32,
    mfill: u32,
    unreach: u32,
    i64bin: u32,
    bin: u32,
    un: u32,
    gget: u32,
    gset: u32,
}

/// A call site descriptor; the lowering must preserve the exact ordered
/// sequence of these per block (calls are never fused or folded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallDesc {
    Wasm(u32),
    Host(u32, u16, u8),
    Indirect(u32),
}

fn flat_counts(cf: &CompiledFunc, lo: usize, hi: usize) -> (ClassCounts, Vec<CallDesc>) {
    let mut c = ClassCounts::default();
    let mut calls = Vec::new();
    for op in &cf.ops[lo..hi] {
        match *op {
            Op::Load { .. } => c.load += 1,
            Op::Store { .. } => c.store += 1,
            Op::MemorySize => c.msize += 1,
            Op::MemoryGrow => c.mgrow += 1,
            Op::MemoryCopy => c.mcopy += 1,
            Op::MemoryFill => c.mfill += 1,
            Op::Unreachable => c.unreach += 1,
            Op::GlobalGet(_) => c.gget += 1,
            Op::GlobalSet(_) => c.gset += 1,
            Op::I64Bin(_) => c.i64bin += 1,
            Op::Bin(_) => c.bin += 1,
            Op::Un(_) => c.un += 1,
            Op::CallWasm(f) => calls.push(CallDesc::Wasm(f)),
            Op::CallHost { f, argc, ret } => calls.push(CallDesc::Host(f, argc, ret)),
            Op::CallIndirect(ty) => calls.push(CallDesc::Indirect(ty)),
            _ => {}
        }
    }
    (c, calls)
}

fn reg_counts(rf: &RegFunc, lo: usize, hi: usize) -> (ClassCounts, Vec<CallDesc>) {
    let mut c = ClassCounts::default();
    let mut calls = Vec::new();
    for op in &rf.ops[lo..hi] {
        match *op {
            ROp::Load { .. } | ROp::LoadAt { .. } | ROp::LoadRR { .. } | ROp::LoadBis { .. } => {
                c.load += 1
            }
            ROp::Store { .. }
            | ROp::StoreAt { .. }
            | ROp::StoreRR { .. }
            | ROp::StoreBis { .. }
            | ROp::StoreCAt { .. } => c.store += 1,
            ROp::MemorySize { .. } => c.msize += 1,
            ROp::MemoryGrow { .. } => c.mgrow += 1,
            ROp::MemoryCopy { .. } => c.mcopy += 1,
            ROp::MemoryFill { .. } => c.mfill += 1,
            ROp::Unreachable => c.unreach += 1,
            ROp::GlobalGet { .. } => c.gget += 1,
            ROp::GlobalSet { .. } => c.gset += 1,
            ROp::I64Bin { .. } => c.i64bin += 1,
            ROp::Bin { .. } => c.bin += 1,
            ROp::Un { .. } => c.un += 1,
            ROp::CallWasm { f, .. } => calls.push(CallDesc::Wasm(f)),
            ROp::CallHost { f, argc, ret, .. } => calls.push(CallDesc::Host(f, argc, ret)),
            ROp::CallIndirect { ty, .. } => calls.push(CallDesc::Indirect(ty)),
            _ => {}
        }
    }
    (c, calls)
}

/// Branch indices some emitted register op actually jumps through.
fn referenced_branches(rf: &RegFunc) -> Vec<u32> {
    let mut out = Vec::new();
    for op in rf.ops.iter() {
        match *op {
            ROp::Br(b)
            | ROp::BrIf { br: b, .. }
            | ROp::BrIfZ { br: b, .. }
            | ROp::BrIfCmp { br: b, .. }
            | ROp::BrIfCmpC { br: b, .. } => out.push(b),
            ROp::BrTable { start, n, .. } => out.extend(start..=start + n),
            _ => {}
        }
    }
    out
}

/// Check that `rf` is a faithful lowering of `cf`, block by block, using
/// the reconstructed `shape`. See the module docs for the argument; the
/// short version: every flat op is lowered, so `pc_map` is total and
/// `Meter` placement/cost/entry, per-block op-class populations, ordered
/// call sequences, and the branch side table are all directly comparable.
fn validate_with_shape(
    func: u32,
    cf: &CompiledFunc,
    rf: &RegFunc,
    shape: &Shape,
) -> Result<(), AnalysisError> {
    // Structural frame agreement.
    if rf.pc_map.len() != cf.ops.len() {
        return Err(mismatch(func, 0, "pc_map length != flat op count"));
    }
    if rf.argc != cf.argc || rf.ret_arity != cf.ret_arity {
        return Err(mismatch(func, 0, "argc/ret_arity disagree across tiers"));
    }
    if rf.locals_init != cf.locals_init {
        return Err(mismatch(func, 0, "locals_init disagree across tiers"));
    }
    if rf.n_locals != cf.argc + cf.locals_init.len() as u32 {
        return Err(mismatch(func, 0, "n_locals inconsistent with signature"));
    }
    if rf.branches.len() != cf.branches.len() {
        return Err(mismatch(func, 0, "branch table lengths disagree"));
    }

    // Totality: the flat IR has no dead op, so a lowering that left one
    // unmapped dropped code.
    if let Some(pc) = rf.pc_map.iter().position(|&q| q == u32::MAX) {
        return Err(mismatch(func, pc, "flat op was not lowered"));
    }

    // Meter placement: every flat block header maps to a register Meter
    // with identical cost and entry height, in the same order.
    let mut meters: Vec<usize> = Vec::with_capacity(shape.blocks.len()); // reg pc per block
    for b in &shape.blocks {
        let q = rf.pc_map[b.start] as usize;
        if q >= rf.ops.len() || meters.last().is_some_and(|&p| q <= p) {
            return Err(mismatch(func, b.start, "block header maps out of order"));
        }
        match rf.ops[q] {
            ROp::Meter { cost, entry, .. } => {
                if cost != b.cost {
                    return Err(mismatch(func, b.start, "Meter cost diverges across tiers"));
                }
                if entry != b.entry_h {
                    return Err(mismatch(func, b.start, "Meter entry height diverges"));
                }
            }
            _ => {
                return Err(mismatch(
                    func,
                    b.start,
                    "block header maps to a non-Meter op",
                ))
            }
        }
        meters.push(q);
    }
    let reg_meters = rf
        .ops
        .iter()
        .filter(|o| matches!(o, ROp::Meter { .. }))
        .count();
    if reg_meters != meters.len() {
        return Err(mismatch(func, 0, "register form has extra Meter headers"));
    }

    // Per-block op populations and ordered call sequences.
    for (i, (b, &q)) in shape.blocks.iter().zip(&meters).enumerate() {
        let q_end = meters.get(i + 1).copied().unwrap_or(rf.ops.len());
        let (fc, fcalls) = flat_counts(cf, b.start, b.end);
        let (rc, rcalls) = reg_counts(rf, q, q_end);
        // `un` may only shrink (constant-folded conversions, absorbed
        // `i32.eqz`); everything else must match exactly.
        let exact_ok = (ClassCounts { un: 0, ..fc }) == (ClassCounts { un: 0, ..rc });
        if !exact_ok || rc.un > fc.un {
            return Err(mismatch(
                func,
                b.start,
                format!("block op populations diverge (flat {fc:?} vs reg {rc:?})"),
            ));
        }
        if fcalls != rcalls {
            return Err(mismatch(
                func,
                b.start,
                "call sequences diverge across tiers",
            ));
        }
    }

    // Branch side table: every entry must target the register image of
    // its flat target, and carried-value moves must respect the flat
    // height/arity (trap conditions at branch time depend on both).
    for (i, (bt, rb)) in cf.branches.iter().zip(rf.branches.iter()).enumerate() {
        let tpc = bt.pc as usize;
        if rb.pc != rf.pc_map[tpc] {
            return Err(mismatch(func, tpc, format!("branch {i} retargeted")));
        }
        if rb.n != 0 {
            if rb.n != bt.arity as u32 {
                return Err(mismatch(
                    func,
                    tpc,
                    format!("branch {i} carries wrong arity"),
                ));
            }
            if rb.dst != rf.n_locals + bt.height {
                return Err(mismatch(
                    func,
                    tpc,
                    format!("branch {i} lands at wrong height"),
                ));
            }
        }
    }
    for b in referenced_branches(rf) {
        let (Some(bt), Some(rb)) = (cf.branches.get(b as usize), rf.branches.get(b as usize))
        else {
            return Err(mismatch(func, 0, "register op references missing branch"));
        };
        let target = rf
            .ops
            .get(rb.pc as usize)
            .ok_or_else(|| mismatch(func, bt.pc as usize, "branch target outside body"))?;
        match cf.ops[bt.pc as usize] {
            Op::Meter { cost, .. } => match *target {
                ROp::Meter {
                    cost: rc, entry, ..
                } => {
                    if rc != cost || entry != bt.height + bt.arity as u32 {
                        return Err(mismatch(
                            func,
                            bt.pc as usize,
                            "branch target Meter diverges",
                        ));
                    }
                }
                _ => {
                    return Err(mismatch(
                        func,
                        bt.pc as usize,
                        "branch target is not a Meter",
                    ))
                }
            },
            Op::Return => {
                if !matches!(target, ROp::Return { .. }) {
                    return Err(mismatch(
                        func,
                        bt.pc as usize,
                        "exit branch misses the trampoline",
                    ));
                }
            }
            _ => {
                return Err(mismatch(
                    func,
                    bt.pc as usize,
                    "flat branch target malformed",
                ))
            }
        }
    }
    Ok(())
}

/// Validate one function's register lowering against its flat IR.
/// Exposed for regression tests that corrupt a cloned `RegFunc`.
pub fn validate_lowering(
    module: &Module,
    func: u32,
    cf: &CompiledFunc,
    rf: &RegFunc,
) -> Result<(), AnalysisError> {
    let shape = build_shape(module, func, cf)?;
    validate_with_shape(func, cf, rf, &shape)
}

// ---------------------------------------------------------------------------
// Loop trip bounds
// ---------------------------------------------------------------------------

/// "Taken iff `op(locals[l], k)`" — the relational fact a conditional
/// branch exposes about one local against one constant.
#[derive(Debug, Clone, Copy)]
struct Pred {
    op: I32Op,
    l: u32,
    k: i32,
}

/// What a `local.set`-family op writes, as far as loop analysis cares.
#[derive(Debug, Clone, Copy)]
enum W {
    Konst(i32),
    /// `locals[dst] = locals[src] + c` (the induction-step shape).
    AddL(u32, i32),
    CopyL(u32),
    Opaque,
}

/// Per-block control/dataflow event, in op order.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Set(u32, W),
    Cond { br: u32, pred: Option<Pred> },
}

/// Symbolic value of one operand-stack cell during the per-block event
/// walk: a constant, a local's current value, local-plus-constant, or a
/// comparison of a local against a constant.
#[derive(Debug, Clone, Copy)]
enum SymV {
    K(i32),
    L(u32),
    AddS(u32, i32),
    Cmp(I32Op, u32, i32),
    Other,
}

/// `a op b` ⟺ `b reflect(op) a`.
fn reflect(op: I32Op) -> I32Op {
    match op {
        I32Op::LtS => I32Op::GtS,
        I32Op::GtS => I32Op::LtS,
        I32Op::LeS => I32Op::GeS,
        I32Op::GeS => I32Op::LeS,
        I32Op::LtU => I32Op::GtU,
        I32Op::GtU => I32Op::LtU,
        I32Op::LeU => I32Op::GeU,
        I32Op::GeU => I32Op::LeU,
        other => other,
    }
}

fn bin_sym(op: I32Op, a: SymV, b: SymV) -> SymV {
    use SymV::*;
    if let (K(x), K(y)) = (a, b) {
        return K(op.eval(x, y));
    }
    match op {
        I32Op::Add => match (a, b) {
            (L(l), K(k)) | (K(k), L(l)) => AddS(l, k),
            (AddS(l, c), K(k)) | (K(k), AddS(l, c)) => AddS(l, c.wrapping_add(k)),
            _ => Other,
        },
        I32Op::Sub => match (a, b) {
            (L(l), K(k)) => AddS(l, k.wrapping_neg()),
            (AddS(l, c), K(k)) => AddS(l, c.wrapping_sub(k)),
            _ => Other,
        },
        // Exactly the comparisons have a logical negation.
        op if op.negate().is_some() => match (a, b) {
            (L(l), K(k)) => Cmp(op, l, k),
            (K(k), L(l)) => Cmp(reflect(op), l, k),
            _ => Other,
        },
        _ => Other,
    }
}

fn sym_pred(s: SymV, negate: bool) -> Option<Pred> {
    match s {
        SymV::Cmp(op, l, k) => {
            let op = if negate { op.negate()? } else { op };
            Some(Pred { op, l, k })
        }
        // `x != 0` / wrapping `x + c != 0 ⟺ x != -c`.
        SymV::L(l) => Some(Pred {
            op: if negate { I32Op::Eq } else { I32Op::Ne },
            l,
            k: 0,
        }),
        SymV::AddS(l, c) => Some(Pred {
            op: if negate { I32Op::Eq } else { I32Op::Ne },
            l,
            k: c.wrapping_neg(),
        }),
        _ => None,
    }
}

fn w_of(s: SymV) -> W {
    match s {
        SymV::K(k) => W::Konst(k),
        SymV::AddS(l, c) => W::AddL(l, c),
        SymV::L(l) => W::CopyL(l),
        _ => W::Opaque,
    }
}

/// Once `locals[l]` is overwritten, any symbol mentioning it is stale.
fn demote_local(syms: &mut [SymV], l: u32) {
    for s in syms.iter_mut() {
        let stale = matches!(*s,
            SymV::L(x) | SymV::AddS(x, _) | SymV::Cmp(_, x, _) if x == l);
        if stale {
            *s = SymV::Other;
        }
    }
}

/// Walk one block's ops symbolically, producing its event list.
fn block_events(module: &Module, cf: &CompiledFunc, b: &Block) -> Vec<Ev> {
    use SymV::{Cmp, K, L};
    let mut syms = vec![SymV::Other; b.entry_h as usize];
    let mut evs: Vec<Ev> = Vec::new();
    let pop = |syms: &mut Vec<SymV>| syms.pop().unwrap_or(SymV::Other);
    for &op in &cf.ops[b.start + 1..b.end] {
        let set = |evs: &mut Vec<Ev>, syms: &mut Vec<SymV>, l: u32, w: W| {
            evs.push(Ev::Set(l, w));
            demote_local(syms, l);
        };
        match op {
            Op::I32Const(k) => syms.push(K(k)),
            Op::LocalGet(l) => syms.push(L(l)),
            Op::LocalTee(l) => {
                let s = *syms.last().unwrap_or(&SymV::Other);
                set(&mut evs, &mut syms, l, w_of(s));
                if let Some(top) = syms.last_mut() {
                    *top = L(l);
                }
            }
            Op::LocalSet(l) => {
                let s = pop(&mut syms);
                set(&mut evs, &mut syms, l, w_of(s));
            }
            Op::I32Bin(o) => {
                let sb = pop(&mut syms);
                let sa = pop(&mut syms);
                syms.push(bin_sym(o, sa, sb));
            }
            Op::Un(UnOp::I32Eqz) => {
                let s = pop(&mut syms);
                syms.push(match s {
                    K(x) => K((x == 0) as i32),
                    L(l) => Cmp(I32Op::Eq, l, 0),
                    SymV::AddS(l, c) => Cmp(I32Op::Eq, l, c.wrapping_neg()),
                    Cmp(o, l, k) => match o.negate() {
                        Some(n) => Cmp(n, l, k),
                        None => SymV::Other,
                    },
                    SymV::Other => SymV::Other,
                });
            }
            op @ (Op::BrIf(br) | Op::BrIfZ(br)) => {
                let s = pop(&mut syms);
                let pred = sym_pred(s, matches!(op, Op::BrIfZ(_)));
                evs.push(Ev::Cond { br, pred });
            }
            other => {
                let (pops, pushes) = other.stack_effect(module);
                for _ in 0..pops {
                    pop(&mut syms);
                }
                for _ in 0..pushes {
                    syms.push(SymV::Other);
                }
            }
        }
    }
    evs
}

// ---------------------------------------------------------------------------
// Graph machinery
// ---------------------------------------------------------------------------

/// Iterative Tarjan over an arbitrary node subset. Returns strongly
/// connected components in completion order — i.e. successors-first
/// (reverse topological order of the condensation).
fn sccs(nodes: &[usize], adj: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    let dense: HashMap<usize, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = nodes.len();
    let adj_d: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&u| {
            adj(u)
                .into_iter()
                .filter_map(|v| dense.get(&v).copied())
                .collect()
        })
        .collect();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for s in 0..n {
        if index[s] != usize::MAX {
            continue;
        }
        call.push((s, 0));
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj_d[v].len() {
                call.last_mut().expect("frame present").1 = ci + 1;
                let w = adj_d[v][ci];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        on_stack[w] = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

fn is_acyclic(nodes: &BTreeSet<usize>, adj: impl Fn(usize) -> Vec<usize>) -> bool {
    let list: Vec<usize> = nodes.iter().copied().collect();
    sccs(&list, |u| {
        adj(u).into_iter().filter(|v| nodes.contains(v)).collect()
    })
    .iter()
    .all(|c| c.len() == 1 && !adj(c[0]).contains(&c[0]))
}

/// True when `node` lies on some cycle within `nodes`.
fn on_cycle(nodes: &BTreeSet<usize>, node: usize, adj: impl Fn(usize) -> Vec<usize>) -> bool {
    if !nodes.contains(&node) {
        return false;
    }
    let list: Vec<usize> = nodes.iter().copied().collect();
    sccs(&list, |u| {
        adj(u).into_iter().filter(|v| nodes.contains(v)).collect()
    })
    .iter()
    .any(|c| c.contains(&node) && (c.len() > 1 || adj(node).contains(&node)))
}

/// Everything the fuel analysis needs about one function's CFG.
struct FuelCtx<'a> {
    /// Per-block worst-case weight (cost + callee fuel).
    weights: &'a [Bound],
    /// Successor blocks (function exits filtered out).
    succs: &'a [Vec<usize>],
    /// Raw successors including `usize::MAX` exit markers.
    full_succs: &'a [Vec<usize>],
    /// Predecessor blocks.
    preds: &'a [Vec<usize>],
    /// Per-block event lists.
    events: &'a [Vec<Ev>],
    /// Per branch-table index: target block, or `usize::MAX` for exit.
    branch_block: &'a [usize],
    /// Local-constant dataflow OUT state per block.
    outs: &'a [Option<Vec<Option<i32>>>],
    /// Local-constant state on function entry.
    entry_state: &'a [Option<i32>],
}

impl FuelCtx<'_> {
    fn adj(
        &self,
        nodes: &BTreeSet<usize>,
        banned: &BTreeSet<(usize, usize)>,
        u: usize,
    ) -> Vec<usize> {
        self.succs[u]
            .iter()
            .copied()
            .filter(|&v| nodes.contains(&v) && !banned.contains(&(u, v)))
            .collect()
    }
}

/// Forward local-constant dataflow over the block graph (meet =
/// equal-or-bottom; conditional refinement intentionally ignored, so
/// every fact is a true must-constant).
fn local_const_flow(
    n_locals: usize,
    entry_state: &[Option<i32>],
    events: &[Vec<Ev>],
    succs: &[Vec<usize>],
) -> Vec<Option<Vec<Option<i32>>>> {
    let nb = events.len();
    let mut ins: Vec<Option<Vec<Option<i32>>>> = vec![None; nb];
    let mut outs: Vec<Option<Vec<Option<i32>>>> = vec![None; nb];
    // Block 0 exists: a shape is only built for a body that starts with
    // a `Meter`.
    debug_assert_eq!(entry_state.len(), n_locals);
    ins[0] = Some(entry_state.to_vec());
    let mut work = std::collections::VecDeque::from([0usize]);
    while let Some(b) = work.pop_front() {
        let mut st = ins[b].clone().expect("queued block has an IN state");
        for ev in &events[b] {
            if let Ev::Set(l, w) = ev {
                st[*l as usize] = match w {
                    W::Konst(k) => Some(*k),
                    W::AddL(src, c) => st[*src as usize].map(|v| v.wrapping_add(*c)),
                    W::CopyL(src) => st[*src as usize],
                    W::Opaque => None,
                };
            }
        }
        if outs[b].as_ref() == Some(&st) {
            continue;
        }
        outs[b] = Some(st.clone());
        for &v in &succs[b] {
            let changed = match &mut ins[v] {
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
                Some(cur) => {
                    let mut ch = false;
                    for (c, n) in cur.iter_mut().zip(&st) {
                        if c.is_some() && *c != *n {
                            *c = None;
                            ch = true;
                        }
                    }
                    ch
                }
            };
            if changed {
                work.push_back(v);
            }
        }
    }
    outs
}

/// Max consecutive iterations for which `op(x, k)` can keep holding when
/// `x` starts at `i` and moves by `c` each iteration (exact arithmetic;
/// the caller guards against wraparound). `None` = no bound this way.
fn consecutive_stays(op: I32Op, i: i128, k: i128, c: i128) -> Option<i128> {
    match op {
        I32Op::LtS | I32Op::LtU => {
            if i >= k {
                Some(0)
            } else if c > 0 {
                Some((k - i + c - 1).div_euclid(c))
            } else {
                None
            }
        }
        I32Op::LeS | I32Op::LeU => {
            if i > k {
                Some(0)
            } else if c > 0 {
                Some((k - i).div_euclid(c) + 1)
            } else {
                None
            }
        }
        I32Op::GtS | I32Op::GtU => {
            if i <= k {
                Some(0)
            } else if c < 0 {
                Some((i - k - c - 1).div_euclid(-c))
            } else {
                None
            }
        }
        I32Op::GeS | I32Op::GeU => {
            if i < k {
                Some(0)
            } else if c < 0 {
                Some((i - k).div_euclid(-c) + 1)
            } else {
                None
            }
        }
        // The step is nonzero and wrap-guarded, so `x == k` survives at
        // most one iteration.
        I32Op::Eq => Some(if i == k { 1 } else { 0 }),
        // `Ne` needs the exact-hit argument; handled by the caller.
        _ => None,
    }
}

/// Worst-case trip count of the loop `comp` entered at `header`, or
/// `Unbounded`. Sound by construction: every candidate that passes the
/// structural checks yields a true upper bound, and we take the minimum.
fn trip_bound(
    ctx: &FuelCtx<'_>,
    comp: &BTreeSet<usize>,
    header: usize,
    banned: &BTreeSet<(usize, usize)>,
) -> Bound {
    use std::collections::HashMap;
    // Induction-variable discipline: per local, the self-increment
    // writes inside the loop — or "polluted" if any write is not of the
    // form `l = l + c, c != 0`.
    let mut writes: HashMap<u32, Vec<(usize, i32)>> = HashMap::new();
    let mut polluted: BTreeSet<u32> = BTreeSet::new();
    for &b in comp {
        for ev in &ctx.events[b] {
            if let Ev::Set(l, w) = ev {
                match w {
                    W::AddL(src, c) if *src == *l && *c != 0 => {
                        writes.entry(*l).or_default().push((b, *c));
                    }
                    _ => {
                        polluted.insert(*l);
                    }
                }
            }
        }
    }

    let mut best: Option<u64> = None;
    for &b in comp {
        // The exit test must be the block's first conditional — every
        // pass through the block then evaluates it before anything can
        // divert control.
        let Some(&Ev::Cond { br, pred: Some(p) }) =
            ctx.events[b].iter().find(|e| matches!(e, Ev::Cond { .. }))
        else {
            continue;
        };
        let t = ctx.branch_block[br as usize];
        let stay = if t == usize::MAX || !comp.contains(&t) {
            // Taken edge leaves the loop: staying means the negation.
            let Some(nop) = p.op.negate() else { continue };
            Pred {
                op: nop,
                l: p.l,
                k: p.k,
            }
        } else if t == header {
            // Back edge: staying means the predicate — but only if the
            // taken edge is the block's sole way of remaining in the loop.
            let in_comp: Vec<usize> = ctx.full_succs[b]
                .iter()
                .copied()
                .filter(|&s| s != usize::MAX && comp.contains(&s))
                .collect();
            if in_comp != [header] {
                continue;
            }
            p
        } else {
            continue;
        };

        // Structural discipline: every header-to-header cycle must
        // evaluate the test, i.e. the header must not lie on any cycle
        // that avoids this block. Test-avoiding cycles (inner loops) are
        // tolerated — they bound their own trips one recursion level
        // down — provided they cannot move the tested local (checked
        // below), or the wraparound guard would be void.
        let without_b: BTreeSet<usize> = comp.iter().copied().filter(|&x| x != b).collect();
        if on_cycle(&without_b, header, |u| ctx.adj(comp, banned, u)) {
            continue;
        }

        let l = stay.l;
        if polluted.contains(&l) {
            continue;
        }
        let incs = writes.get(&l).map(Vec::as_slice).unwrap_or(&[]);
        let unsigned = matches!(stay.op, I32Op::LtU | I32Op::LeU | I32Op::GtU | I32Op::GeU);

        // Initial value: meet over every way control can enter the loop
        // from outside it (plus the function entry when the header is
        // the entry block).
        let mut init: Option<Option<i32>> = None; // None = no entries seen yet
        let meet = |v: Option<i32>, init: &mut Option<Option<i32>>| match init {
            None => *init = Some(v),
            Some(cur) => {
                if *cur != v {
                    *cur = None;
                }
            }
        };
        for &pp in &ctx.preds[header] {
            if comp.contains(&pp) {
                continue;
            }
            let v = ctx.outs[pp].as_ref().and_then(|st| st[l as usize]);
            meet(v, &mut init);
        }
        if header == 0 {
            meet(ctx.entry_state[l as usize], &mut init);
        }
        let Some(Some(iv)) = init else { continue };

        let (i, k, lo, hi) = if unsigned {
            (
                iv as u32 as i128,
                stay.k as u32 as i128,
                0i128,
                u32::MAX as i128,
            )
        } else {
            (
                iv as i128,
                stay.k as i128,
                i32::MIN as i128,
                i32::MAX as i128,
            )
        };

        let k0 = if incs.is_empty() {
            // The tested local never changes in the loop: either the
            // test fails on entry (zero full trips) or never fails.
            if stay.op.eval(iv, stay.k) != 0 {
                continue;
            }
            0
        } else {
            // All increments must push the same direction; progress per
            // cycle is then at least the smallest step.
            let sign = incs[0].1.signum();
            if incs.iter().any(|&(_, c)| c.signum() != sign) {
                continue;
            }
            let inc_blocks: BTreeSet<usize> = incs.iter().map(|&(bb, _)| bb).collect();
            let without_incs: BTreeSet<usize> = comp
                .iter()
                .copied()
                .filter(|x| !inc_blocks.contains(x))
                .collect();
            // Every header cycle must run at least one increment, so the
            // local provably progresses each iteration.
            if on_cycle(&without_incs, header, |u| ctx.adj(comp, banned, u)) {
                continue;
            }
            // No increment may sit on a test-avoiding cycle: each then
            // fires at most once between consecutive test evaluations,
            // which is what keeps total movement — and the wraparound
            // guard — bounded.
            if inc_blocks
                .iter()
                .any(|&ib| on_cycle(&without_b, ib, |u| ctx.adj(comp, banned, u)))
            {
                continue;
            }
            let c = incs
                .iter()
                .map(|&(_, c)| c as i128)
                .min_by_key(|c| c.abs())
                .expect("non-empty increments");
            // Max movement of the local between two test evaluations.
            let s: i128 = incs.iter().map(|&(_, c)| (c as i128).abs()).sum();
            let k0 = if stay.op == I32Op::Ne {
                // Exact-hit argument: a single increment site that every
                // cycle runs exactly once, so the walk steps by exactly
                // `c` and lands on `k` rather than jumping over it.
                if incs.len() != 1
                    || !is_acyclic(&without_b, |u| ctx.adj(comp, banned, u))
                    || !is_acyclic(&without_incs, |u| ctx.adj(comp, banned, u))
                {
                    continue;
                }
                let q = (k - i).div_euclid(c);
                if (k - i).rem_euclid(c) != 0 || q < 0 {
                    continue;
                }
                q
            } else {
                match consecutive_stays(stay.op, i, k, c) {
                    Some(k0) => k0,
                    None => continue,
                }
            };
            // Wraparound guard: the monotone local is confined to
            // [min(I,K)-S, max(I,K)+S]; that whole range must fit the
            // value domain or modular arithmetic voids the bound.
            if i.min(k) - s < lo || i.max(k) + s > hi {
                continue;
            }
            k0
        };
        // +2 absorbs the partial final trip and the increment-vs-test
        // order within the cycle.
        let t_cand = (k0 + 2) as u64;
        best = Some(best.map_or(t_cand, |b0| b0.min(t_cand)));
    }
    match best {
        Some(t) => Bound::Finite(t),
        None => Bound::Unbounded,
    }
}

/// Worst-case weight of any path through `nodes` starting at `entry`,
/// with loops collapsed via [`trip_bound`]. `unbounded_loop` is set when
/// some reachable loop had no static bound.
fn region_cost(
    ctx: &FuelCtx<'_>,
    nodes: &BTreeSet<usize>,
    entry: usize,
    banned: &BTreeSet<(usize, usize)>,
    unbounded_loop: &mut bool,
) -> Bound {
    use std::collections::HashMap;
    let list: Vec<usize> = nodes.iter().copied().collect();
    let comps = sccs(&list, |u| ctx.adj(nodes, banned, u));
    let mut comp_of: HashMap<usize, usize> = HashMap::new();
    for (ci, comp) in comps.iter().enumerate() {
        for &u in comp {
            comp_of.insert(u, ci);
        }
    }

    // Reachability on the condensation, entry first (completion order is
    // reverse-topological, so iterate in reverse).
    let n_comps = comps.len();
    let mut reach = vec![false; n_comps];
    reach[comp_of[&entry]] = true;
    for ci in (0..n_comps).rev() {
        if !reach[ci] {
            continue;
        }
        for &u in &comps[ci] {
            for v in ctx.adj(nodes, banned, u) {
                reach[comp_of[&v]] = true;
            }
        }
    }

    // Collapse each reachable component to a single worst-case weight.
    let mut comp_cost = vec![Bound::Finite(0); n_comps];
    for (ci, comp) in comps.iter().enumerate() {
        if !reach[ci] {
            continue;
        }
        let cyclic = comp.len() > 1 || ctx.adj(nodes, banned, comp[0]).contains(&comp[0]);
        if !cyclic {
            comp_cost[ci] = ctx.weights[comp[0]];
            continue;
        }
        let comp_set: BTreeSet<usize> = comp.iter().copied().collect();
        let header = if comp_set.contains(&entry) {
            Some(entry)
        } else {
            let mut hs: Vec<usize> = comp
                .iter()
                .copied()
                .filter(|&c| {
                    ctx.preds[c].iter().any(|&p| {
                        nodes.contains(&p) && !comp_set.contains(&p) && !banned.contains(&(p, c))
                    })
                })
                .collect();
            hs.dedup();
            (hs.len() == 1).then(|| hs[0])
        };
        let Some(header) = header else {
            // Irreducible (multi-entry) loop: no analyzable structure.
            *unbounded_loop = true;
            comp_cost[ci] = Bound::Unbounded;
            continue;
        };
        let trips = trip_bound(ctx, &comp_set, header, banned);
        if trips == Bound::Unbounded {
            *unbounded_loop = true;
        }
        let mut inner_banned = banned.clone();
        for &u in comp {
            inner_banned.insert((u, header));
        }
        let body = region_cost(ctx, &comp_set, header, &inner_banned, unbounded_loop);
        comp_cost[ci] = trips.mul(body);
    }

    // Longest path over the condensation DAG; a call can stop (return or
    // trap) anywhere, so the answer is the max over every reachable
    // component, not just exit-reaching ones.
    let mut dist: Vec<Option<Bound>> = vec![None; n_comps];
    let entry_ci = comp_of[&entry];
    dist[entry_ci] = Some(comp_cost[entry_ci]);
    for ci in (0..n_comps).rev() {
        let Some(d) = dist[ci] else { continue };
        for &u in &comps[ci] {
            for v in ctx.adj(nodes, banned, u) {
                let cv = comp_of[&v];
                if cv == ci {
                    continue;
                }
                let nd = d.add(comp_cost[cv]);
                dist[cv] = Some(match dist[cv] {
                    None => nd,
                    Some(e) => e.max(nd),
                });
            }
        }
    }
    dist.into_iter()
        .flatten()
        .fold(Bound::Finite(0), Bound::max)
}

// ---------------------------------------------------------------------------
// Whole-module analysis
// ---------------------------------------------------------------------------

/// Compute the report for one function whose callees are all resolved.
fn compute_report(
    module: &Module,
    func: u32,
    shape: &Shape,
    reports: &[Option<FuncReport>],
) -> FuncReport {
    let cf = module.compiled_func(func);
    let rf = module.reg_func(func);
    let n_imp = module.num_imported_funcs();
    let callee = |g: u32| -> &FuncReport {
        reports[g as usize]
            .as_ref()
            .expect("callees resolved before callers")
    };

    // Block graph + per-block facts. Every block is reachable from the
    // entry (the flat IR has no dead op), so bounds run over all of them.
    let nb = shape.blocks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (b, raw) in shape.succs.iter().enumerate() {
        for &v in raw {
            if v != usize::MAX {
                succs[b].push(v);
                preds[v].push(b);
            }
        }
    }
    let branch_block: Vec<usize> = cf
        .branches
        .iter()
        .map(|bt| {
            let tpc = bt.pc as usize;
            if Some(tpc) == shape.exit_pc {
                usize::MAX
            } else {
                shape.pc2block[tpc] as usize
            }
        })
        .collect();
    let events: Vec<Vec<Ev>> = shape
        .blocks
        .iter()
        .map(|b| block_events(module, cf, b))
        .collect();

    let mut weights = vec![Bound::Finite(0); nb];
    let mut stack = Bound::Finite(shape.own_stack as u64);
    let mut callee_frames = Bound::Finite(0);
    let mut mem_high = shape.mem_high;
    let mut dynamic_mem = shape.dynamic_mem;
    let mut unbounded_loops = false;
    for (bi, b) in shape.blocks.iter().enumerate() {
        let mut w = Bound::Finite(b.cost as u64);
        for &(call, h) in &b.calls {
            match call {
                Call::Wasm(g) => {
                    let r = callee(g);
                    w = w.add(r.fuel);
                    let argc = module
                        .func_type(n_imp + g)
                        .map(|ft| ft.params.len() as u64)
                        .unwrap_or(0);
                    stack = stack.max(Bound::Finite(h as u64 - argc).add(r.stack));
                    callee_frames = callee_frames.max(r.frames);
                    mem_high = mem_high.max(r.mem_high);
                    dynamic_mem |= r.dynamic_mem;
                    unbounded_loops |= r.unbounded_loops;
                }
                Call::Host(_) => {}
                Call::Indirect(_) => {
                    w = Bound::Unbounded;
                    stack = Bound::Unbounded;
                    callee_frames = Bound::Unbounded;
                    dynamic_mem = true;
                }
            }
        }
        weights[bi] = w;
    }

    let entry_state: Vec<Option<i32>> = (0..cf.argc)
        .map(|_| None)
        .chain(cf.locals_init.iter().map(|v| match v {
            Value::I32(k) => Some(*k),
            _ => None,
        }))
        .collect();
    let outs = local_const_flow(entry_state.len(), &entry_state, &events, &succs);

    let ctx = FuelCtx {
        weights: &weights,
        succs: &succs,
        full_succs: &shape.succs,
        preds: &preds,
        events: &events,
        branch_block: &branch_block,
        outs: &outs,
        entry_state: &entry_state,
    };
    let nodes: BTreeSet<usize> = (0..nb).collect();
    let fuel = region_cost(&ctx, &nodes, 0, &BTreeSet::new(), &mut unbounded_loops);

    let mut regs = Bound::Finite(rf.frame_size as u64);
    for op in rf.ops.iter() {
        match *op {
            ROp::CallWasm { f: g, base } => {
                regs = regs.max(Bound::Finite(base as u64).add(callee(g).regs));
            }
            ROp::CallIndirect { .. } => regs = Bound::Unbounded,
            _ => {}
        }
    }

    FuncReport {
        func,
        export: None,
        fuel,
        stack,
        frames: Bound::Finite(1).add(callee_frames),
        regs,
        mem_high,
        dynamic_mem,
        unbounded_loops,
        recursive: false,
    }
}

/// Analyze every module-local function: prove the register lowering
/// faithful and compute worst-case resource bounds. The module must be
/// validated; lowering is triggered (and cached) as needed.
pub fn analyze(module: &Module) -> Result<ModuleAnalysis, AnalysisError> {
    let nf = module.funcs.len();
    let n_imp = module.num_imported_funcs();
    let mut shapes = Vec::with_capacity(nf);
    for f in 0..nf as u32 {
        let cf = module.compiled_func(f);
        let rf = module.reg_func(f);
        let shape = build_shape(module, f, cf)?;
        validate_with_shape(f, cf, rf, &shape)?;
        shapes.push(shape);
    }

    // Call graph over local functions; recursion (any cycle) makes every
    // member's bounds unbounded.
    let callees: Vec<Vec<usize>> = shapes
        .iter()
        .map(|s| {
            s.blocks
                .iter()
                .flat_map(|b| &b.calls)
                .filter_map(|&(c, _)| match c {
                    Call::Wasm(g) => Some(g as usize),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let all: Vec<usize> = (0..nf).collect();
    let mut reports: Vec<Option<FuncReport>> = vec![None; nf];
    for comp in sccs(&all, |f| callees[f].clone()) {
        let cyclic = comp.len() > 1 || callees[comp[0]].contains(&comp[0]);
        if cyclic {
            for &f in &comp {
                reports[f] = Some(FuncReport {
                    func: f as u32,
                    export: None,
                    fuel: Bound::Unbounded,
                    stack: Bound::Unbounded,
                    frames: Bound::Unbounded,
                    regs: Bound::Unbounded,
                    mem_high: shapes[f].mem_high,
                    dynamic_mem: true,
                    unbounded_loops: false,
                    recursive: true,
                });
            }
        } else {
            let f = comp[0];
            reports[f] = Some(compute_report(module, f as u32, &shapes[f], &reports));
        }
    }

    let mut funcs: Vec<FuncReport> = reports
        .into_iter()
        .map(|r| r.expect("every function analyzed"))
        .collect();
    for e in &module.exports {
        if let ExportKind::Func(g) = e.kind {
            if g >= n_imp {
                let r = &mut funcs[(g - n_imp) as usize];
                if r.export.is_none() {
                    r.export = Some(e.name.clone());
                }
            }
        }
    }
    Ok(ModuleAnalysis { funcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        let bytes = crate::wat::assemble(src).expect("wat assembles");
        let m = crate::decode::decode_module(&bytes).expect("decodes");
        crate::validate::validate(&m).expect("validates");
        m
    }

    fn report(m: &Module, name: &str) -> FuncReport {
        let a = analyze(m).expect("analysis passes");
        let r = a
            .exports()
            .find(|r| r.export.as_deref() == Some(name))
            .expect("export analyzed")
            .clone();
        r
    }

    #[test]
    fn bound_lattice_orders_and_saturates() {
        assert!(Bound::Finite(5) < Bound::Finite(6));
        assert!(Bound::Finite(u64::MAX) < Bound::Unbounded);
        assert_eq!(Bound::Finite(2).add(Bound::Finite(3)), Bound::Finite(5));
        assert_eq!(Bound::Unbounded.add(Bound::Finite(3)), Bound::Unbounded);
        assert_eq!(Bound::Finite(0).mul(Bound::Unbounded), Bound::Finite(0));
        assert_eq!(Bound::Finite(4).mul(Bound::Finite(3)), Bound::Finite(12));
        assert_eq!(format!("{}", Bound::Unbounded), "unbounded");
    }

    #[test]
    fn straight_line_function_has_tight_bounds() {
        let m = module(
            r#"(module (func (export "add") (param i32 i32) (result i32)
                 local.get 0
                 local.get 1
                 i32.add))"#,
        );
        let r = report(&m, "add");
        assert!(matches!(r.fuel, Bound::Finite(n) if n > 0 && n < 16));
        assert!(matches!(r.stack, Bound::Finite(n) if n <= 4));
        assert_eq!(r.frames, Bound::Finite(1));
        assert!(!r.unbounded_loops && !r.recursive && !r.dynamic_mem);
        assert_eq!(r.mem_high, 0);
    }

    #[test]
    fn constant_trip_loop_is_finite() {
        let m = module(
            r#"(module (func (export "run") (result i32)
                 (local $i i32) (local $acc i32)
                 i32.const 10
                 local.set $i
                 block $exit
                   loop $top
                     local.get $i
                     i32.eqz
                     br_if $exit
                     local.get $acc
                     i32.const 2
                     i32.add
                     local.set $acc
                     local.get $i
                     i32.const 1
                     i32.sub
                     local.set $i
                     br $top
                   end
                 end
                 local.get $acc))"#,
        );
        let r = report(&m, "run");
        assert!(
            matches!(r.fuel, Bound::Finite(_)),
            "constant-trip loop must bound: {:?}",
            r.fuel
        );
        assert!(!r.unbounded_loops);
    }

    #[test]
    fn nested_constant_trip_loops_are_finite() {
        // The inner loop is a cycle that avoids the outer loop's test —
        // the structural case the header-cycle analysis must tolerate.
        let m = module(
            r#"(module (func (export "run") (result i32)
                 (local $i i32) (local $j i32) (local $acc i32)
                 block $oexit
                   loop $outer
                     local.get $i
                     i32.const 5
                     i32.ge_s
                     br_if $oexit
                     i32.const 0
                     local.set $j
                     block $iexit
                       loop $inner
                         local.get $j
                         i32.const 3
                         i32.ge_s
                         br_if $iexit
                         local.get $acc
                         i32.const 1
                         i32.add
                         local.set $acc
                         local.get $j
                         i32.const 1
                         i32.add
                         local.set $j
                         br $inner
                       end
                     end
                     local.get $i
                     i32.const 1
                     i32.add
                     local.set $i
                     br $outer
                   end
                 end
                 local.get $acc))"#,
        );
        let r = report(&m, "run");
        assert!(
            matches!(r.fuel, Bound::Finite(_)),
            "nested constant loops must bound: {:?}",
            r.fuel
        );
        assert!(!r.unbounded_loops);
    }

    #[test]
    fn data_dependent_loop_is_unbounded() {
        let m = module(
            r#"(module (func (export "run") (param $n i32) (result i32)
                 (local $i i32) (local $acc i32)
                 local.get $n
                 local.set $i
                 block $exit
                   loop $top
                     local.get $i
                     i32.eqz
                     br_if $exit
                     local.get $acc
                     i32.const 2
                     i32.add
                     local.set $acc
                     local.get $i
                     i32.const 1
                     i32.sub
                     local.set $i
                     br $top
                   end
                 end
                 local.get $acc))"#,
        );
        let r = report(&m, "run");
        assert_eq!(r.fuel, Bound::Unbounded);
        assert!(r.unbounded_loops);
    }

    #[test]
    fn recursion_is_detected() {
        let m = module(
            r#"(module (func $f (export "f") (param i32) (result i32)
                 local.get 0
                 call $f))"#,
        );
        let r = report(&m, "f");
        assert!(r.recursive);
        assert_eq!(r.fuel, Bound::Unbounded);
        assert_eq!(r.frames, Bound::Unbounded);
    }

    #[test]
    fn call_graph_propagates_bounds() {
        // The callee needs control flow, or the compiler inlines it and
        // there is (correctly) no call edge to propagate across.
        let m = module(
            r#"(module
                 (func $leaf (result i32)
                   block $b
                     br $b
                   end
                   i32.const 7)
                 (func (export "top") (result i32)
                   call $leaf))"#,
        );
        let a = analyze(&m).unwrap();
        let top = a
            .exports()
            .find(|r| r.export.as_deref() == Some("top"))
            .unwrap();
        let leaf = a.func(0);
        assert_eq!(top.frames, Bound::Finite(2));
        assert!(top.fuel > leaf.fuel);
        assert!(!top.recursive);
    }

    #[test]
    fn static_memory_range_is_tracked() {
        let m = module(
            r#"(module (memory 1) (func (export "w")
                 i32.const 100
                 i32.const 1
                 i32.store))"#,
        );
        let r = report(&m, "w");
        assert_eq!(r.mem_high, 104);
        assert!(!r.dynamic_mem);
    }

    #[test]
    fn dynamic_memory_access_is_flagged() {
        let m = module(
            r#"(module (memory 1) (func (export "w") (param $a i32)
                 local.get $a
                 i32.const 1
                 i32.store))"#,
        );
        let r = report(&m, "w");
        assert!(r.dynamic_mem);
    }

    fn loop_module() -> Module {
        module(
            r#"(module (memory 1)
                 (func (export "run") (param $n i32) (result i32)
                   (local $i i32)
                   block $exit
                     loop $top
                       local.get $i
                       local.get $n
                       i32.ge_s
                       br_if $exit
                       local.get $i
                       local.get $i
                       i32.store
                       local.get $i
                       i32.const 4
                       i32.add
                       local.set $i
                       br $top
                     end
                   end
                   local.get $i))"#,
        )
    }

    #[test]
    fn corrupted_meter_cost_is_rejected() {
        let m = loop_module();
        let cf = m.compiled_func(0);
        let mut rf = m.reg_func(0).clone();
        let mut ops = rf.ops.to_vec();
        let meter = ops
            .iter_mut()
            .find_map(|o| match o {
                ROp::Meter { cost, .. } => Some(cost),
                _ => None,
            })
            .expect("has a Meter");
        *meter += 1;
        rf.ops = ops.into_boxed_slice();
        assert!(validate_lowering(&m, 0, cf, &rf).is_err());
    }

    #[test]
    fn dropped_store_is_rejected() {
        let m = loop_module();
        let cf = m.compiled_func(0);
        let mut rf = m.reg_func(0).clone();
        let mut ops = rf.ops.to_vec();
        let at = ops
            .iter()
            .position(|o| {
                matches!(
                    o,
                    ROp::Store { .. }
                        | ROp::StoreAt { .. }
                        | ROp::StoreRR { .. }
                        | ROp::StoreBis { .. }
                        | ROp::StoreCAt { .. }
                )
            })
            .expect("has a store");
        ops.remove(at);
        rf.ops = ops.into_boxed_slice();
        assert!(validate_lowering(&m, 0, cf, &rf).is_err());
    }

    #[test]
    fn retargeted_branch_is_rejected() {
        let m = loop_module();
        let cf = m.compiled_func(0);
        let mut rf = m.reg_func(0).clone();
        let mut branches = rf.branches.to_vec();
        branches[0].pc += 1;
        rf.branches = branches.into_boxed_slice();
        assert!(validate_lowering(&m, 0, cf, &rf).is_err());
    }

    #[test]
    fn unmapped_flat_op_is_rejected() {
        let m = loop_module();
        let cf = m.compiled_func(0);
        let mut rf = m.reg_func(0).clone();
        // Mid-block, so no Meter or branch-target check can fire first.
        let pc = cf
            .ops
            .iter()
            .position(|o| matches!(o, Op::Store { .. }))
            .expect("has a store");
        rf.pc_map[pc] = u32::MAX;
        assert_eq!(
            validate_lowering(&m, 0, cf, &rf),
            Err(mismatch(0, pc, "flat op was not lowered"))
        );
    }

    #[test]
    fn pristine_lowering_validates() {
        let m = loop_module();
        assert!(analyze(&m).is_ok());
    }
}
