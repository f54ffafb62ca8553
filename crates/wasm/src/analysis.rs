//! Load-time lowering and proof: one walk per body type-checks it and
//! hands each op at once to the register lowering the executor runs and
//! to this module's recorder; the register form is then checked block by
//! block against what the recorder kept (translation validation), and
//! worst-case resource bounds are computed from the register form for
//! admission control.
//!
//! One pass, run once per module by [`crate::load_module`] (its report is
//! [`Module::analysis`]), does all of it and returns the register code
//! with its report; no op of a body is stored. Every instance runs the
//! code this pass returned, so no instance can exist without a passed
//! check. It produces one [`FuncReport`] per module-local function:
//!
//! * **Translation validation** — the walk's op stream is the
//!   metering/trapping reference: one op per source instruction, nothing
//!   fused, and no dead op (the walk is the one place liveness is
//!   decided). The register form is an optimized lowering of it, and
//!   every superinstruction is formed on that side of the check. The
//!   recorder, fed the stream, and one walk over the register ops each
//!   cut the body into `Meter`-headed blocks (the shared `Return`
//!   trampoline ends one too) and record, per block, its `Meter` cost, its memory/call/trap-op
//!   populations — counted on both sides over the shared operator
//!   payload types — its ordered calls, its ordered branch edges and
//!   whether it falls through. The check demands a total `pc_map`,
//!   register `Meter`s that are the images of the flat ones, equal
//!   records and a consistent branch side table. The walks predict no
//!   decision of the lowering: it folds values, never control flow. So a
//!   lowering that moves fuel, drops or adds a memory, call or trap op,
//!   runs an op outside a metered block or changes where a block's
//!   control goes is rejected before it executes. Values are *not*
//!   checked: a wrong operand, or a compare-and-branch whose sense is
//!   flipped, passes, and only the differential tests catch it.
//! * **Static resource bounds** — once the check has passed, an abstract
//!   interpretation over the register code's block graph, its loop
//!   events read off the fused register ops the executor runs, computes
//!   per-function worst-case fuel (exact for
//!   loop-free and constant-trip-count code, save that a bulk memory op
//!   or a `memory.grow` counts the byte charge of the whole memory it may
//!   reach;
//!   [`Bound::Unbounded`] otherwise; a function's entry block carries its
//!   activation price), worst-case call-frame depth and register-arena
//!   footprint, the one stack the executor allocates. Bounds propagate
//!   through the call graph; recursion (direct or mutual) and indirect
//!   calls degrade to `Unbounded`.
//!
//! The host's `SandboxPolicy` consumes the report as an admission gate:
//! a real-time deployment class can require a finite fuel bound or
//! reject any plugin with a data-dependent loop at install time, which
//! is the enforcement half of the governance-tiers roadmap item.
//!
//! The loop-bound pass works on dense block indices: block sets are masks
//! with sorted member lists, a loop body drops only the edges into its own
//! header, and one Tarjan serves the block graph and the call graph.

use std::sync::Arc;

use crate::compile::{compile_func, BranchTarget, Entry, Op, OpSink};
use crate::instance::PAGE_FUEL;
use crate::module::{ExportKind, Module};
use crate::ops::I32Op;
use crate::regalloc::{Lowerer, RForm, RegFunc};
use crate::types::{ValType, MAX_PAGES};
use crate::validate::ValidateError;

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
    /// Worst-case fuel a call can consume: source instructions, each
    /// activation's price, each bulk memory op's byte charge and each
    /// `memory.grow`'s page charge.
    pub fuel: Bound,
    /// Worst-case call-frame depth (the function's own frame included),
    /// held against [`crate::instance::MAX_CALL_DEPTH`].
    pub frames: Bound,
    /// Worst-case register-arena footprint of the executor, in cells: what
    /// a call rooted here needs under [`crate::instance::MAX_REGS`].
    pub regs: Bound,
    /// True when some reachable loop has no statically bounded trip
    /// count.
    pub unbounded_loops: bool,
    /// True when the function partakes in (direct or mutual) recursion.
    pub recursive: bool,
}

/// Whole-module analysis: per-function reports plus the proof that the
/// register lowering of every function matches the walk's reference.
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
/// lowering is *not* a faithful image of the walk's op stream — and the register
/// form is what runs, so instantiation refuses the module outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The register form of `func` diverges from the walk's stream at
    /// flat op `pc`.
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
// The two records: the recorder's of the walk, and the register walk's
// ---------------------------------------------------------------------------

/// A call site; the lowering must preserve each block's exact ordered
/// sequence of these (calls are never fused or folded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// Direct call to a module-local function.
    Wasm(u32),
    /// Imported host function, with its argument count and result code.
    Host(u32, u16, u8),
    /// Indirect call through the table, by type index.
    Indirect(u32),
}

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

/// What each walk records of one `Meter`-headed block, on its own side;
/// the proof compares the two records field by field.
#[derive(Debug, Default)]
struct Facts {
    /// Leading `Meter` pc.
    start: usize,
    /// `Meter` cost (source instructions, plus the activation price in
    /// the entry block).
    cost: u32,
    counts: ClassCounts,
    /// Call sites in op order.
    calls: Vec<Call>,
    /// Branch side-table indices the block's ops may take, in op order
    /// (a `br_table` contributes `start..=start + n`).
    edges: Vec<u32>,
    /// Control can fall through into the next leader.
    falls: bool,
}

impl Facts {
    /// Record a flat op's class, call and branch edges.
    fn tally_flat(&mut self, op: Op) {
        let c = &mut self.counts;
        match op {
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
            Op::CallWasm(f) => self.calls.push(Call::Wasm(f)),
            Op::CallHost { f, argc, ret } => self.calls.push(Call::Host(f, argc, ret)),
            Op::CallIndirect(ty) => self.calls.push(Call::Indirect(ty)),
            Op::Br(b) | Op::BrIf(b) | Op::BrIfZ(b) => self.edges.push(b),
            Op::BrTable { start, n } => self.edges.extend(start..=start + n),
            _ => {}
        }
    }

    /// Record a register op's class, call and branch edges, over the same
    /// payload types as [`Facts::tally_flat`].
    fn tally_reg(&mut self, op: RForm) {
        let c = &mut self.counts;
        match op {
            RForm::Load { .. }
            | RForm::LoadAt { .. }
            | RForm::LoadRR { .. }
            | RForm::LoadBis { .. } => c.load += 1,
            RForm::Store { .. }
            | RForm::StoreAt { .. }
            | RForm::StoreRR { .. }
            | RForm::StoreBis { .. }
            | RForm::StoreCAt { .. } => c.store += 1,
            RForm::MemorySize { .. } => c.msize += 1,
            RForm::MemoryGrow { .. } => c.mgrow += 1,
            RForm::MemoryCopy { .. } => c.mcopy += 1,
            RForm::MemoryFill { .. } => c.mfill += 1,
            RForm::Unreachable => c.unreach += 1,
            RForm::GlobalGet { .. } => c.gget += 1,
            RForm::GlobalSet { .. } => c.gset += 1,
            RForm::I64Bin { .. } => c.i64bin += 1,
            RForm::Bin { .. } => c.bin += 1,
            RForm::Un { .. } => c.un += 1,
            RForm::CallWasm { f, .. } => self.calls.push(Call::Wasm(f)),
            RForm::CallHost { f, argc, ret, .. } => self.calls.push(Call::Host(f, argc, ret)),
            RForm::CallIndirect { ty, .. } => self.calls.push(Call::Indirect(ty)),
            RForm::Br { br: b }
            | RForm::BrIf { br: b, .. }
            | RForm::BrIfZ { br: b, .. }
            | RForm::BrIfCmp { br: b, .. }
            | RForm::BrIfCmpC { br: b, .. } => self.edges.push(b),
            RForm::BrTable { start, n, .. } => self.edges.extend(start..=start + n),
            _ => {}
        }
    }
}

/// A direct call's callee and the frame-relative register its window
/// starts at, which the `regs` bound reads.
type Window = (u32, u32);

/// One register block: its record, and its local writes and conditional
/// exits in op order, which the loop bounds read.
struct Block {
    facts: Facts,
    events: Vec<Ev>,
}

/// The register code of one function as the bounds read it, once the
/// proof has passed: its blocks, their block graph and its direct-call
/// windows.
struct Cfg {
    blocks: Vec<Block>,
    /// Per-block successors, function exits left out.
    succs: Vec<Vec<usize>>,
    /// Per-block predecessors.
    preds: Vec<Vec<usize>>,
    /// Per branch-table index: target block, `usize::MAX` for the exit.
    branch_block: Vec<usize>,
    /// Each direct call's window, in op order.
    windows: Vec<Window>,
}

pub(crate) fn mismatch(func: u32, pc: usize, what: impl Into<String>) -> AnalysisError {
    AnalysisError::TranslationMismatch {
        func,
        pc: pc as u32,
        what: what.into(),
    }
}

/// The proof's recorder: the consumer of the walk's stream that records
/// the reference the register lowering is checked against, one
/// function's blocks, branch side table and op count. It decides nothing
/// of the lowering's: the walk hands on no dead op, so every op belongs
/// to a block and every block counts.
#[derive(Default)]
struct Recorder {
    blocks: Vec<Facts>,
    /// The shared function-level `Return` trampoline pc, when present.
    exit_pc: Option<usize>,
    /// The walk's branch side table, every target resolved: set once the
    /// walk has returned it.
    branches: Box<[BranchTarget]>,
    /// Ops the walk handed on, `Meter`s and the trampoline included.
    n_ops: usize,
}

impl OpSink for Recorder {
    fn open(&mut self, pc: u32, entry: Entry) {
        self.n_ops += 1;
        if let Some(b) = self.blocks.last_mut() {
            b.falls = !matches!(entry, Entry::Branch { .. });
        }
        self.blocks.push(Facts {
            start: pc as usize,
            ..Facts::default()
        });
    }

    fn seal(&mut self, cost: u32) {
        if let Some(b) = self.blocks.last_mut() {
            b.cost = cost;
        }
    }

    fn exit(&mut self, pc: u32, _height: u32) {
        self.n_ops += 1;
        self.exit_pc = Some(pc as usize);
    }

    fn op(&mut self, op: Op, _: u32, _: u32, _: &[BranchTarget]) {
        self.n_ops += 1;
        if let Some(b) = self.blocks.last_mut() {
            b.tally_flat(op);
        }
    }
}

/// The walk over a register function: one [`Block`] per `Meter`-headed
/// block, ended like the recorder's by the next `Meter` or by the
/// trampoline (the register image of `shape`'s), its [`Facts`] and its
/// loop events taken in the same pass, plus each direct call's callee
/// and frame base in op order, which the `regs` bound reads. An op
/// before the first `Meter`, or between a terminator and the next
/// leader, is rejected: the executor would run it unmetered, or never.
fn reg_walk(
    func: u32,
    rf: &RegFunc,
    shape: &Recorder,
) -> Result<(Vec<Block>, Vec<Window>), AnalysisError> {
    let trampoline = match shape.exit_pc {
        Some(pc) => {
            let q = rf.pc_map[pc] as usize;
            if !matches!(
                rf.ops.get(q).map(|op| op.view()),
                Some(RForm::Return { .. })
            ) {
                return Err(mismatch(func, pc, "exit branch misses the trampoline"));
            }
            Some(q)
        }
        None => None,
    };
    // Register-side faults anchor at the matching flat block's leader.
    let anchor = |i: usize| shape.blocks.get(i).map_or(0, |b| b.start);
    let mut blocks: Vec<Block> = Vec::new();
    let mut windows = Vec::new();
    let mut held = vec![W::Opaque; rf.frame_size as usize];
    let mut open = false;
    let mut alive = true;
    for (q, op) in rf.ops.iter().map(|op| op.view()).enumerate() {
        if matches!(op, RForm::Meter { .. }) || Some(q) == trampoline {
            if let Some(b) = blocks.last_mut().filter(|_| open) {
                b.facts.falls = alive;
            }
            open = false;
        }
        if let RForm::Meter { cost } = op {
            blocks.push(Block {
                facts: Facts {
                    start: q,
                    cost,
                    ..Facts::default()
                },
                events: Vec::new(),
            });
            held.fill(W::Opaque);
            open = true;
            alive = true;
            continue;
        }
        if Some(q) == trampoline {
            alive = false;
            continue;
        }
        let Some(b) = blocks.last_mut().filter(|_| open && alive) else {
            let what = if open {
                "register op follows a terminator"
            } else {
                "register op outside any metered block"
            };
            return Err(mismatch(func, anchor(blocks.len().saturating_sub(1)), what));
        };
        b.facts.tally_reg(op);
        b.record(op, rf.n_locals, &mut held);
        match op {
            RForm::CallWasm { f, base } => windows.push((f, base)),
            RForm::Unreachable
            | RForm::Br { .. }
            | RForm::BrTable { .. }
            | RForm::Return { .. } => alive = false,
            _ => {}
        }
    }
    if let Some(b) = blocks.last_mut().filter(|_| open) {
        b.facts.falls = alive;
    }
    Ok((blocks, windows))
}

impl Block {
    /// Record `op`'s loop events: a conditional branch is an [`Ev::Cond`]
    /// with its [`Pred`] read off the fused form, a write to a local
    /// register an [`Ev::Set`]. `held` is what each stack register written
    /// since the block's `Meter` holds: a constant gives a constant-left
    /// compare its `Pred`, `local ± k` gives one to a branch on the sum. A
    /// write voids what `held` knew of the registers it writes, and of any
    /// value read off the local it overwrites.
    fn record(&mut self, op: RForm, n_locals: u32, held: &mut [W]) {
        let value = |r: u32| match r < n_locals {
            true => W::CopyL(r),
            false => held.get(r as usize).copied().unwrap_or(W::Opaque),
        };
        let test = match op {
            RForm::BrIf { cond, br } => Some((br, I32Op::Ne, value(cond), W::Konst(0))),
            RForm::BrIfZ { cond, br } => Some((br, I32Op::Eq, value(cond), W::Konst(0))),
            RForm::BrIfCmp { op, a, b, br } => Some((br, op, value(a), value(b))),
            RForm::BrIfCmpC { op, a, k, br } => Some((br, op, value(a), W::Konst(k))),
            _ => None,
        };
        if let Some((br, op, a, b)) = test {
            let pred = taken_iff(op, a, b);
            self.events.push(Ev::Cond { br, pred });
        }
        let w = match op {
            RForm::ConstI32 { k, .. } => W::Konst(k),
            RForm::Copy { src, .. } => value(src),
            RForm::I32BinC { op, a, k, .. } => match op {
                I32Op::Add => value(a).plus(k),
                I32Op::Sub => value(a).plus(k.wrapping_neg()),
                _ => W::Opaque,
            },
            _ => W::Opaque,
        };
        let regs = op.writes();
        match regs.len() {
            0 => {}
            1 if regs.start < n_locals => {
                let l = regs.start;
                for h in held.iter_mut() {
                    if matches!(*h, W::CopyL(x) | W::AddL(x, _) if x == l) {
                        *h = W::Opaque;
                    }
                }
                self.events.push(Ev::Set(l, w));
            }
            1 => {
                if let Some(h) = held.get_mut(regs.start as usize) {
                    *h = w;
                }
            }
            // A call: its window and every register above it.
            _ => held
                .iter_mut()
                .skip(regs.start as usize)
                .for_each(|h| *h = W::Opaque),
        }
    }
}

impl Cfg {
    /// The block graph over the register walk's blocks: each branch edge
    /// joins the block whose `Meter` its register target is (none for the
    /// trampoline), each fall-through the next block.
    fn new(blocks: Vec<Block>, windows: Vec<Window>, rf: &RegFunc) -> Cfg {
        let nb = blocks.len();
        let branch_block: Vec<usize> = rf
            .branches
            .iter()
            .map(|rb| {
                blocks
                    .binary_search_by_key(&(rb.pc as usize), |b| b.facts.start)
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (bi, b) in blocks.iter().enumerate() {
            let falls = b.facts.falls.then_some(bi + 1);
            let targets = b.facts.edges.iter().map(|&br| branch_block[br as usize]);
            for t in targets.chain(falls).filter(|&t| t != usize::MAX) {
                succs[bi].push(t);
                preds[t].push(bi);
            }
        }
        Cfg {
            blocks,
            succs,
            preds,
            branch_block,
            windows,
        }
    }
}

/// Check that `rf` is a faithful lowering of the stream `shape` recorded,
/// block by block, and return the register code's [`Cfg`], which the
/// bounds read once the check has passed. See the
/// module docs for the argument; the short version: every op is lowered,
/// so `pc_map` is total, and each block's `Meter` placement and cost,
/// op-class populations, ordered calls, ordered branch edges and
/// fall-through, and the branch side table are directly comparable.
fn validate_with_shape(
    module: &Module,
    func: u32,
    rf: &RegFunc,
    shape: &Recorder,
) -> Result<Cfg, AnalysisError> {
    // Structural frame agreement, against the signature.
    let body = &module.funcs[func as usize];
    let ty = &module.types[body.type_idx as usize];
    let argc = ty.params.len() as u32;
    if rf.pc_map.len() != shape.n_ops {
        return Err(mismatch(func, 0, "pc_map length != flat op count"));
    }
    if rf.argc != argc || rf.ret_arity != ty.results.len() as u32 {
        return Err(mismatch(func, 0, "argc/ret_arity disagree across tiers"));
    }
    if rf.n_locals != argc + body.locals.len() as u32 {
        return Err(mismatch(func, 0, "n_locals inconsistent with signature"));
    }
    if rf.branches.len() != shape.branches.len() {
        return Err(mismatch(func, 0, "branch table lengths disagree"));
    }

    // Totality: the walk hands on no dead op, so a lowering that left one
    // unmapped dropped code.
    if let Some(pc) = rf.pc_map.iter().position(|&q| q == u32::MAX) {
        return Err(mismatch(func, pc, "flat op was not lowered"));
    }

    // Block by block: the register Meters are the images of the flat
    // ones, in the same order, and each pair of records agrees. A branch
    // edge names a side-table index, so equal edges with the table check
    // below mean equal control flow.
    let (reg, windows) = reg_walk(func, rf, shape)?;
    if reg.len() != shape.blocks.len() {
        return Err(mismatch(func, 0, "Meter counts disagree across tiers"));
    }
    for (f, r) in shape.blocks.iter().zip(&reg) {
        let (r, at) = (&r.facts, f.start);
        if r.start != rf.pc_map[at] as usize {
            return Err(mismatch(
                func,
                at,
                "block header maps to another register op",
            ));
        }
        if r.cost != f.cost {
            return Err(mismatch(func, at, "Meter cost diverges across tiers"));
        }
        // `un` may only shrink (constant-folded conversions, absorbed
        // `i32.eqz`); everything else must match exactly.
        let (fc, rc) = (f.counts, r.counts);
        if (ClassCounts { un: 0, ..fc }) != (ClassCounts { un: 0, ..rc }) || rc.un > fc.un {
            return Err(mismatch(
                func,
                at,
                format!("block op populations diverge (flat {fc:?} vs reg {rc:?})"),
            ));
        }
        if r.calls != f.calls {
            return Err(mismatch(func, at, "call sequences diverge across tiers"));
        }
        if r.edges != f.edges {
            return Err(mismatch(func, at, "branch sequences diverge across tiers"));
        }
        if r.falls != f.falls {
            return Err(mismatch(func, at, "fall-through diverges across tiers"));
        }
    }

    // Branch side table: every entry must target the register image of
    // its flat target (a block's `Meter`, checked above, or the
    // trampoline, checked by the walk), and carried-value moves must
    // respect the flat height/arity (trap conditions at branch time
    // depend on both).
    for (i, (bt, rb)) in shape.branches.iter().zip(rf.branches.iter()).enumerate() {
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
    Ok(Cfg::new(reg, windows, rf))
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

impl W {
    /// What `self + k` is (wrapping), as far as loop analysis cares.
    fn plus(self, k: i32) -> W {
        match self {
            W::Konst(x) => W::Konst(x.wrapping_add(k)),
            W::AddL(l, c) => W::AddL(l, c.wrapping_add(k)),
            W::CopyL(l) => W::AddL(l, k),
            W::Opaque => W::Opaque,
        }
    }
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

/// The predicate of a branch taken iff `op(a, b)` is nonzero: a compare
/// of a local against a constant, or of wrapping `local + c` under
/// `eq`/`ne`, or a sum of a local and a constant, each either way round.
fn taken_iff(op: I32Op, a: W, b: W) -> Option<Pred> {
    match (op, a, b) {
        // `k op x` ⟺ `x reflect(op) k`, and `k - x` is nonzero iff `x - k` is.
        (_, W::Konst(_), W::CopyL(_) | W::AddL(..)) => taken_iff(reflect(op), b, a),
        (I32Op::Add, x, W::Konst(k)) => taken_iff(I32Op::Ne, x.plus(k), W::Konst(0)),
        (I32Op::Sub, x, W::Konst(k)) => taken_iff(I32Op::Ne, x.plus(k.wrapping_neg()), W::Konst(0)),
        // Exactly the comparisons have a logical negation.
        _ if op.negate().is_none() => None,
        (_, W::CopyL(l), W::Konst(k)) => Some(Pred { op, l, k }),
        (I32Op::Eq | I32Op::Ne, W::AddL(l, c), W::Konst(k)) => Some(Pred {
            op,
            l,
            k: k.wrapping_sub(c),
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Graph machinery
// ---------------------------------------------------------------------------

/// Iterative Tarjan over `nodes`, a subset of `0..n` whose members are
/// tried as roots in the given order; `adj(u)` yields `u`'s successors
/// inside `nodes`, in the order the walk takes them. Returns the strongly
/// connected components in completion order — successors first (reverse
/// topological order of the condensation).
fn sccs<I: Iterator<Item = usize>>(
    n: usize,
    nodes: &[usize],
    adj: impl Fn(usize) -> I,
) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    // DFS frames: a node and the successors it has yet to try.
    let mut call: Vec<(usize, I)> = Vec::new();
    let mut next = 0usize;
    for &root in nodes {
        if index[root] != UNSEEN {
            continue;
        }
        let mut open = Some(root);
        loop {
            if let Some(v) = open.take() {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
                call.push((v, adj(v)));
            }
            let Some((v, succ)) = call.last_mut() else {
                break;
            };
            let v = *v;
            match succ.next() {
                Some(w) if index[w] == UNSEEN => open = Some(w),
                Some(w) => {
                    if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    call.pop();
                    if let Some(&mut (p, _)) = call.last_mut() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        // `v` is still on the stack, so the pop ends at it.
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comps.push(comp);
                    }
                }
            }
        }
    }
    comps
}

/// A set of blocks: a membership mask over all of a function's blocks,
/// plus the members in ascending order.
struct BlockSet {
    mask: Vec<bool>,
    list: Vec<usize>,
}

impl BlockSet {
    fn from_mask(mask: Vec<bool>) -> BlockSet {
        let list = (0..mask.len()).filter(|&b| mask[b]).collect();
        BlockSet { mask, list }
    }
}

/// Everything the fuel analysis needs about one function's CFG.
struct FuelCtx<'a> {
    /// Per-block worst-case weight (cost + byte charges + callee fuel).
    weights: &'a [Bound],
    /// The blocks, their events and the block graph.
    cfg: &'a Cfg,
    /// Local-constant dataflow result.
    consts: &'a LocalConsts,
    /// Local-constant state on function entry.
    entry_state: &'a [Option<i32>],
}

impl FuelCtx<'_> {
    /// `u`'s successors inside `set`.
    fn adj<'s>(&'s self, set: &'s [bool], u: usize) -> impl Iterator<Item = usize> + 's {
        self.cfg.succs[u].iter().copied().filter(move |&v| set[v])
    }

    /// True when `node` lies on a cycle within `set`: it can reach itself
    /// without leaving `set`.
    fn on_cycle(&self, set: &[bool], node: usize) -> bool {
        if !set[node] {
            return false;
        }
        let mut seen = vec![false; set.len()];
        let mut todo = vec![node];
        while let Some(u) = todo.pop() {
            for v in self.adj(set, u) {
                if v == node {
                    return true;
                }
                if !seen[v] {
                    seen[v] = true;
                    todo.push(v);
                }
            }
        }
        false
    }
}

/// Must-constant local values at each block's exit: one row-major
/// `blocks × locals` matrix, and whether the dataflow reached the block.
struct LocalConsts {
    n_locals: usize,
    reached: Vec<bool>,
    out: Vec<Option<i32>>,
}

impl LocalConsts {
    /// Local `l`'s constant value on leaving block `b`, if it has one.
    fn at_exit(&self, b: usize, l: u32) -> Option<i32> {
        if self.reached[b] {
            self.out[b * self.n_locals + l as usize]
        } else {
            None
        }
    }
}

/// Forward local-constant dataflow over the block graph (meet =
/// equal-or-bottom; conditional refinement intentionally ignored, so
/// every fact is a true must-constant).
fn local_const_flow(entry_state: &[Option<i32>], cfg: &Cfg) -> LocalConsts {
    let (nb, nl) = (cfg.blocks.len(), entry_state.len());
    let row = |b: usize| b * nl..(b + 1) * nl;
    let mut ins: Vec<Option<i32>> = vec![None; nb * nl];
    let mut has_in = vec![false; nb];
    let mut consts = LocalConsts {
        n_locals: nl,
        reached: vec![false; nb],
        out: vec![None; nb * nl],
    };
    // Block 0 exists: the proof passes only a body that starts with a
    // `Meter`.
    ins[row(0)].copy_from_slice(entry_state);
    has_in[0] = true;
    let mut st: Vec<Option<i32>> = vec![None; nl];
    let mut work = std::collections::VecDeque::from([0usize]);
    while let Some(b) = work.pop_front() {
        // Only a block whose IN row is set is ever queued.
        st.copy_from_slice(&ins[row(b)]);
        for ev in &cfg.blocks[b].events {
            if let Ev::Set(l, w) = *ev {
                st[l as usize] = match w {
                    W::Konst(k) => Some(k),
                    W::AddL(src, c) => st[src as usize].map(|v| v.wrapping_add(c)),
                    W::CopyL(src) => st[src as usize],
                    W::Opaque => None,
                };
            }
        }
        if consts.reached[b] && consts.out[row(b)] == st[..] {
            continue;
        }
        consts.reached[b] = true;
        consts.out[row(b)].copy_from_slice(&st);
        for &v in &cfg.succs[b] {
            let cur = &mut ins[row(v)];
            let changed = if has_in[v] {
                let mut ch = false;
                for (c, n) in cur.iter_mut().zip(&st) {
                    if c.is_some() && *c != *n {
                        *c = None;
                        ch = true;
                    }
                }
                ch
            } else {
                has_in[v] = true;
                cur.copy_from_slice(&st);
                true
            };
            if changed {
                work.push_back(v);
            }
        }
    }
    consts
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
fn trip_bound(ctx: &FuelCtx<'_>, comp: &BlockSet, header: usize) -> Bound {
    let mut best: Option<u64> = None;
    for &b in &comp.list {
        // The exit test must be the block's first conditional — every
        // pass through the block then evaluates it before anything can
        // divert control.
        let Some(&Ev::Cond { br, pred: Some(p) }) = ctx.cfg.blocks[b]
            .events
            .iter()
            .find(|e| matches!(e, Ev::Cond { .. }))
        else {
            continue;
        };
        let t = ctx.cfg.branch_block[br as usize];
        let stay = if t == usize::MAX || !comp.mask[t] {
            // Taken edge leaves the loop: staying means the negation.
            let Some(nop) = p.op.negate() else { continue };
            Pred { op: nop, ..p }
        } else if t == header {
            // Back edge: staying means the predicate — but only if the
            // taken edge is the block's sole way of remaining in the loop.
            let mut in_comp = ctx.cfg.succs[b].iter().filter(|&&s| comp.mask[s]);
            if in_comp.next() != Some(&header) || in_comp.next().is_some() {
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
        let mut without_b = comp.mask.clone();
        without_b[b] = false;
        if ctx.on_cycle(&without_b, header) {
            continue;
        }

        // Induction-variable discipline: the tested local's writes inside
        // the loop must all be self-increments `l = l + c, c != 0`.
        let l = stay.l;
        let mut incs: Vec<(usize, i32)> = Vec::new();
        let mut polluted = false;
        for &bb in &comp.list {
            for ev in &ctx.cfg.blocks[bb].events {
                match *ev {
                    Ev::Set(x, W::AddL(src, c)) if x == l && src == l && c != 0 => {
                        incs.push((bb, c))
                    }
                    Ev::Set(x, _) if x == l => polluted = true,
                    _ => {}
                }
            }
        }
        if polluted {
            continue;
        }
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
        for &pp in &ctx.cfg.preds[header] {
            if comp.mask[pp] {
                continue;
            }
            meet(ctx.consts.at_exit(pp, l), &mut init);
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

        // The smallest step, if the local moves at all.
        let k0 = match incs.iter().map(|&(_, c)| c as i128).min_by_key(|c| c.abs()) {
            None => {
                // The tested local never changes in the loop: either the
                // test fails on entry (zero full trips) or never fails.
                if stay.op.eval(iv, stay.k) != 0 {
                    continue;
                }
                0
            }
            Some(c) => {
                // All increments must push the same direction; progress
                // per cycle is then at least the smallest step.
                if incs.iter().any(|&(_, d)| d.signum() != c.signum() as i32) {
                    continue;
                }
                let mut without_incs = comp.mask.clone();
                for &(bb, _) in &incs {
                    without_incs[bb] = false;
                }
                // Every header cycle must run at least one increment, so
                // the local provably progresses each iteration.
                if ctx.on_cycle(&without_incs, header) {
                    continue;
                }
                // No increment may sit on a test-avoiding cycle: each then
                // fires at most once between consecutive test evaluations,
                // which is what keeps total movement — and the wraparound
                // guard — bounded.
                if incs.iter().any(|&(bb, _)| ctx.on_cycle(&without_b, bb)) {
                    continue;
                }
                // Max movement of the local between two test evaluations.
                let s: i128 = incs.iter().map(|&(_, c)| (c as i128).abs()).sum();
                let k0 = if stay.op == I32Op::Ne {
                    // Exact-hit argument: a single increment site that
                    // every cycle runs exactly once, so the walk steps by
                    // exactly `c` and lands on `k` rather than jumping
                    // over it.
                    let acyclic = |set: &[bool]| comp.list.iter().all(|&u| !ctx.on_cycle(set, u));
                    if incs.len() != 1 || !acyclic(&without_b) || !acyclic(&without_incs) {
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
            }
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
///
/// A loop's body (`body`) is the loop without the edges back into its
/// header `entry`. Those are the only edges a nested region drops: an
/// enclosing loop's header keeps no incoming edge inside its own body, so
/// it lies on no cycle there and is never a block of a nested loop.
fn region_cost(
    ctx: &FuelCtx<'_>,
    nodes: &BlockSet,
    entry: usize,
    body: bool,
    unbounded_loop: &mut bool,
) -> Bound {
    let nb = nodes.mask.len();
    let adj = |u: usize| {
        ctx.adj(&nodes.mask, u)
            .filter(move |&v| !(body && v == entry))
    };
    let comps = sccs(nb, &nodes.list, adj);
    // Every member of `nodes` lands in exactly one component, and `adj`
    // never leaves `nodes`, so every lookup below hits an assigned slot.
    let mut comp_of = vec![usize::MAX; nb];
    for (ci, comp) in comps.iter().enumerate() {
        for &u in comp {
            comp_of[u] = ci;
        }
    }

    // Reachability on the condensation, entry first (completion order is
    // reverse-topological, so iterate in reverse).
    let n_comps = comps.len();
    let mut reach = vec![false; n_comps];
    reach[comp_of[entry]] = true;
    for ci in (0..n_comps).rev() {
        if !reach[ci] {
            continue;
        }
        for &u in &comps[ci] {
            for v in adj(u) {
                reach[comp_of[v]] = true;
            }
        }
    }

    // Collapse each reachable component to a single worst-case weight.
    let mut comp_cost = vec![Bound::Finite(0); n_comps];
    for (ci, comp) in comps.iter().enumerate() {
        if !reach[ci] {
            continue;
        }
        let cyclic = comp.len() > 1 || adj(comp[0]).any(|v| v == comp[0]);
        if !cyclic {
            comp_cost[ci] = ctx.weights[comp[0]];
            continue;
        }
        let mut mask = vec![false; nb];
        for &u in comp {
            mask[u] = true;
        }
        let comp_set = BlockSet::from_mask(mask);
        let header = if comp_set.mask[entry] {
            Some(entry)
        } else {
            // The one member entered from the rest of the region.
            let mut hs = comp.iter().copied().filter(|&c| {
                ctx.cfg.preds[c]
                    .iter()
                    .any(|&p| nodes.mask[p] && !comp_set.mask[p])
            });
            match (hs.next(), hs.next()) {
                (Some(h), None) => Some(h),
                _ => None,
            }
        };
        let Some(header) = header else {
            // Irreducible (multi-entry) loop: no analyzable structure.
            *unbounded_loop = true;
            comp_cost[ci] = Bound::Unbounded;
            continue;
        };
        let trips = trip_bound(ctx, &comp_set, header);
        if trips == Bound::Unbounded {
            *unbounded_loop = true;
        }
        let body = region_cost(ctx, &comp_set, header, true, unbounded_loop);
        comp_cost[ci] = trips.mul(body);
    }

    // Longest path over the condensation DAG; a call can stop (return or
    // trap) anywhere, so the answer is the max over every reachable
    // component, not just exit-reaching ones.
    let mut dist: Vec<Option<Bound>> = vec![None; n_comps];
    let entry_ci = comp_of[entry];
    dist[entry_ci] = Some(comp_cost[entry_ci]);
    for ci in (0..n_comps).rev() {
        let Some(d) = dist[ci] else { continue };
        for &u in &comps[ci] {
            for v in adj(u) {
                let cv = comp_of[v];
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

/// Compute the report for one function whose callees are all resolved,
/// from its register code's [`Cfg`].
fn compute_report(
    module: &Module,
    func: u32,
    rf: &RegFunc,
    cfg: &Cfg,
    reports: &[FuncReport],
) -> FuncReport {
    // `prove` reports SCCs callees first, and a function in a cyclic SCC
    // never gets here, so every callee already has its final report.
    let callee = |g: u32| &reports[g as usize];

    // Per-block weights. Every block is reachable from the entry (the
    // walk hands on no dead op), so bounds run over all of them. A bulk op
    // pays only once its range is in bounds, and a grow only for pages
    // the cap lets it add: at most the whole memory either may reach,
    // the declared maximum or else the spec's.
    let max_pages = u64::from(module.memory.and_then(|m| m.max).unwrap_or(MAX_PAGES));
    let bulk_worst = max_pages * PAGE_FUEL;
    let mut weights = Vec::with_capacity(cfg.blocks.len());
    let mut callee_frames = Bound::Finite(0);
    let mut regs = Bound::Finite(rf.frame_size as u64);
    let mut unbounded_loops = false;
    for b in &cfg.blocks {
        let c = &b.facts.counts;
        let bulk = u64::from(c.mcopy + c.mfill + c.mgrow);
        let mut w = Bound::Finite(b.facts.cost as u64 + bulk * bulk_worst);
        for &call in &b.facts.calls {
            match call {
                Call::Wasm(g) => {
                    let r = callee(g);
                    w = w.add(r.fuel);
                    callee_frames = callee_frames.max(r.frames);
                    unbounded_loops |= r.unbounded_loops;
                }
                Call::Host(..) => {}
                Call::Indirect(_) => {
                    w = Bound::Unbounded;
                    callee_frames = Bound::Unbounded;
                    regs = Bound::Unbounded;
                }
            }
        }
        weights.push(w);
    }
    for &(g, base) in &cfg.windows {
        regs = regs.max(Bound::Finite(base as u64).add(callee(g).regs));
    }

    // Parameters hold unknown words on entry; the declared locals are
    // zeroed.
    let entry_state: Vec<Option<i32>> = (0..rf.argc)
        .map(|_| None)
        .chain(module.funcs[func as usize].locals.iter().map(|t| match t {
            ValType::I32 => Some(0),
            _ => None,
        }))
        .collect();
    let consts = local_const_flow(&entry_state, cfg);

    let ctx = FuelCtx {
        weights: &weights,
        cfg,
        consts: &consts,
        entry_state: &entry_state,
    };
    let nodes = BlockSet::from_mask(vec![true; cfg.blocks.len()]);
    let fuel = region_cost(&ctx, &nodes, 0, false, &mut unbounded_loops);

    FuncReport {
        func,
        export: None,
        fuel,
        frames: Bound::Finite(1).add(callee_frames),
        regs,
        unbounded_loops,
        recursive: false,
    }
}

/// A module's lowered code and the report of the proof that checked it.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// Register code per module-local function: what every instance runs.
    pub(crate) code: Arc<[RegFunc]>,
    /// The proof's verdict and the worst-case resource bounds.
    pub(crate) report: ModuleAnalysis,
}

/// Walk every module-local function once, in function-index order: the
/// walk type-checks the body and hands each op at once to the register
/// lowering and to the proof's recorder. Then prove each lowering
/// faithful to its recorded reference and compute worst-case resource
/// bounds. A body that fails its type check is the outer error, the first
/// by function index; a lowering that fails its proof is the inner one.
/// No op is stored; the code returned is the code the proof checked,
/// minus the `pc_map` only the proof reads. The module-level checks
/// ([`crate::validate::validate`]) must have passed.
pub(crate) fn lower_and_prove(
    module: &Module,
) -> Result<Result<Lowered, AnalysisError>, ValidateError> {
    let walked = (0..module.funcs.len() as u32)
        .map(|f| walk(module, f))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(prove(module, walked))
}

/// One walk of local function `f`: its register lowering and the
/// reference the proof checks it against.
fn walk(module: &Module, f: u32) -> Result<(RegFunc, Recorder), ValidateError> {
    let mut sink = (Lowerer::new(module, f), Recorder::default());
    let branches = compile_func(module, f, &mut sink)?;
    let (lowerer, mut recorder) = sink;
    let rf = lowerer.finish(&branches);
    recorder.branches = branches;
    Ok((rf, recorder))
}

fn prove(module: &Module, walked: Vec<(RegFunc, Recorder)>) -> Result<Lowered, AnalysisError> {
    let nf = module.funcs.len();
    let n_imp = module.num_imported_funcs();
    let mut code = Vec::with_capacity(nf);
    let mut cfgs = Vec::with_capacity(nf);
    for (f, (mut rf, shape)) in (0..).zip(walked) {
        cfgs.push(validate_with_shape(module, f, &rf, &shape)?);
        // Only the proof reads the pc map and the reference; the bounds
        // below read the register code's graphs.
        rf.pc_map = Box::default();
        code.push(rf);
    }

    // Call graph over local functions; recursion (any cycle) makes every
    // member's bounds unbounded. Each direct call has one window.
    let callees: Vec<Vec<usize>> = cfgs
        .iter()
        .map(|cfg| cfg.windows.iter().map(|&(g, _)| g as usize).collect())
        .collect();
    let all: Vec<usize> = (0..nf).collect();
    // Every report starts unbounded, where a cycle's members stay.
    let mut funcs: Vec<FuncReport> = (0..nf as u32)
        .map(|func| FuncReport {
            func,
            export: None,
            fuel: Bound::Unbounded,
            frames: Bound::Unbounded,
            regs: Bound::Unbounded,
            unbounded_loops: false,
            recursive: false,
        })
        .collect();
    for comp in sccs(nf, &all, |f| callees[f].iter().copied()) {
        let cyclic = comp.len() > 1 || callees[comp[0]].contains(&comp[0]);
        if cyclic {
            for &f in &comp {
                funcs[f].recursive = true;
            }
        } else {
            let f = comp[0];
            funcs[f] = compute_report(module, f as u32, &code[f], &cfgs[f], &funcs);
        }
    }
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
    Ok(Lowered {
        code: code.into(),
        report: ModuleAnalysis { funcs },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::tests::Event;
    use crate::regalloc::ROp;

    fn module(src: &str) -> Module {
        let bytes = waran_wat::assemble(src).expect("wat assembles");
        crate::load_module(&bytes).expect("loads")
    }

    fn report(m: &Module, name: &str) -> FuncReport {
        let a = m.analysis().expect("analysis passes");
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
        assert!(matches!(r.regs, Bound::Finite(n) if n <= 4));
        assert_eq!(r.frames, Bound::Finite(1));
        assert!(!r.unbounded_loops && !r.recursive);
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

    /// `$i` starts at `init` and moves by `step` while `$i test k` holds;
    /// the exit test leads the loop.
    fn counted(init: i32, test: &str, k: i32, step: i32) -> String {
        format!(
            r#"(module (func (export "run") (result i32)
                 (local $i i32) (local $acc i32)
                 i32.const {init}
                 local.set $i
                 block $exit
                   loop $top
                     local.get $i
                     i32.const {k}
                     {test}
                     i32.eqz
                     br_if $exit
                     local.get $acc
                     i32.const 1
                     i32.add
                     local.set $acc
                     local.get $i
                     i32.const {step}
                     i32.add
                     local.set $i
                     br $top
                   end
                 end
                 local.get $acc))"#
        )
    }

    /// Two increment sites: each pass takes exactly one of them.
    const TWO_INCREMENTS: &str = r#"(module (func (export "run") (result i32)
         (local $i i32) (local $acc i32)
         block $exit
           loop $top
             local.get $i
             i32.const 12
             i32.ge_s
             br_if $exit
             local.get $acc
             i32.const 1
             i32.and
             if
               local.get $i
               i32.const 1
               i32.add
               local.set $i
             else
               local.get $i
               i32.const 2
               i32.add
               local.set $i
             end
             local.get $acc
             i32.const 1
             i32.add
             local.set $acc
             br $top
           end
         end
         local.get $acc))"#;

    /// The inner loop leaves through a `br` to the *outer* header, so its
    /// exit edge is a back edge the outer loop's body drops.
    const INNER_BR_TO_OUTER_HEADER: &str = r#"(module (func (export "run") (result i32)
         (local $i i32) (local $j i32) (local $acc i32)
         block $oexit
           loop $outer
             local.get $i
             i32.const 4
             i32.ge_s
             br_if $oexit
             local.get $i
             i32.const 1
             i32.add
             local.set $i
             i32.const 0
             local.set $j
             loop $inner
               local.get $acc
               i32.const 1
               i32.add
               local.set $acc
               local.get $j
               i32.const 1
               i32.add
               local.tee $j
               i32.const 3
               i32.ge_s
               br_if $outer
               br $inner
             end
           end
         end
         local.get $acc))"#;

    /// Nested counted loops: the inner loop is a cycle that avoids the
    /// outer test and never writes the outer local.
    const NESTED_COUNTED: &str = r#"(module (func (export "run") (result i32)
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
         local.get $acc))"#;

    /// `$i` counts up from 0 by one. `test` is the loop's leading exit
    /// test: it leaves the block `$exit` or falls into the body, which
    /// runs `extra` before the step.
    fn exits_on(test: &str, extra: &str) -> String {
        format!(
            r#"(module (memory 1)
                 (func $zero (param i32) (result i32) i32.const 0)
                 (func (export "run") (result i32)
                 (local $i i32) (local $acc i32)
                 block $exit
                   loop $top
                     {test}
                     local.get $acc
                     i32.const 1
                     i32.add
                     local.set $acc
                     {extra}
                     local.get $i
                     i32.const 1
                     i32.add
                     local.set $i
                     br $top
                   end
                 end
                 local.get $acc))"#
        )
    }

    /// `$i` counts up from 0 by one while `cond` holds; the `if` on it is
    /// the loop's exit test (its false edge leaves).
    fn while_if(cond: &str) -> String {
        format!(
            r#"(module (func (export "run") (result i32)
                 (local $i i32) (local $acc i32)
                 loop $top
                   {cond}
                   if
                     local.get $acc
                     i32.const 1
                     i32.add
                     local.set $acc
                     local.get $i
                     i32.const 1
                     i32.add
                     local.set $i
                     br $top
                   end
                 end
                 local.get $acc))"#
        )
    }

    /// The counter steps inside its own exit test: `local.tee` feeds the
    /// compare.
    const TEED_COUNTER: &str = r#"(module (func (export "run") (result i32)
         (local $i i32) (local $acc i32)
         block $exit
           loop $top
             local.get $acc
             i32.const 1
             i32.add
             local.set $acc
             local.get $i
             i32.const 1
             i32.add
             local.tee $i
             i32.const 10
             i32.ge_s
             br_if $exit
             br $top
           end
         end
         local.get $acc))"#;

    /// A do-while: the back edge is taken while `$i - 10` is nonzero.
    const DO_WHILE_SUM: &str = r#"(module (func (export "run") (result i32)
         (local $i i32) (local $acc i32)
         loop $top
           local.get $acc
           i32.const 1
           i32.add
           local.set $acc
           local.get $i
           i32.const 1
           i32.add
           local.set $i
           local.get $i
           i32.const -10
           i32.add
           br_if $top
         end
         local.get $acc))"#;

    /// The trip count comes from a parameter.
    const DATA_DEPENDENT: &str = r#"(module (func (export "run") (param $n i32) (result i32)
         (local $i i32) (local $acc i32)
         block $exit
           loop $top
             local.get $i
             local.get $n
             i32.ge_s
             br_if $exit
             local.get $acc
             i32.const 2
             i32.add
             local.set $acc
             local.get $i
             i32.const 1
             i32.add
             local.set $i
             br $top
           end
         end
         local.get $acc))"#;

    /// Exact `fuel` and `unbounded_loops` per loop shape, pinned from the
    /// analysis before its loop-bound pass moved to dense block arrays,
    /// plus each activation's price: 7 here (`CALL_FUEL` and one unit for
    /// two or three locals). The rows from "constant-left exit test" on
    /// are the shapes where events read off the fused register forms
    /// differ from a symbolic stack over the source; each is pinned from
    /// the source-side analysis, save the self-copy, which the lowering
    /// drops and which no longer hides the counter.
    #[test]
    fn loop_bounds_are_pinned_per_shape() {
        use Bound::{Finite, Unbounded};
        let cases: Vec<(&str, String, Bound, bool)> = vec![
            (
                "up, lt_s",
                counted(0, "i32.lt_s", 10, 1),
                Finite(193),
                false,
            ),
            (
                "up, le_s",
                counted(0, "i32.le_s", 10, 1),
                Finite(208),
                false,
            ),
            (
                "down, gt_s",
                counted(10, "i32.gt_s", 0, -1),
                Finite(193),
                false,
            ),
            (
                "down, ge_s",
                counted(10, "i32.ge_s", 0, -1),
                Finite(208),
                false,
            ),
            // The guard's range [min(I,K)-S, max(I,K)+S] dips below 0.
            (
                "up, lt_u by 3 from 0",
                counted(0, "i32.lt_u", 10, 3),
                Unbounded,
                true,
            ),
            (
                "up, lt_u by 3 from 4",
                counted(4, "i32.lt_u", 10, 3),
                Finite(73),
                false,
            ),
            (
                "down, ge_u by 2",
                counted(20, "i32.ge_u", 5, -2),
                Finite(163),
                false,
            ),
            (
                "ne, exact hit",
                counted(0, "i32.ne", 10, 2),
                Finite(118),
                false,
            ),
            (
                "ne, overshoot",
                counted(0, "i32.ne", 10, 3),
                Unbounded,
                true,
            ),
            (
                "wraparound guard",
                counted(0x7fff_fff0, "i32.lt_s", 0x7fff_ffff, 16),
                Unbounded,
                true,
            ),
            (
                "two increment sites",
                TWO_INCREMENTS.into(),
                Finite(291),
                false,
            ),
            (
                "nested, inner leaves local",
                NESTED_COUNTED.into(),
                Finite(599),
                false,
            ),
            (
                "inner br to outer header",
                INNER_BR_TO_OUTER_HEADER.into(),
                Finite(467),
                false,
            ),
            ("data-dependent", DATA_DEPENDENT.into(), Unbounded, true),
            // The constant on the left of the compare.
            (
                "constant-left exit test",
                exits_on("i32.const 10 local.get $i i32.gt_s i32.eqz br_if $exit", ""),
                Finite(191),
                false,
            ),
            (
                "br_if on i - k",
                exits_on("local.get $i i32.const 10 i32.sub i32.eqz br_if $exit", ""),
                Finite(191),
                false,
            ),
            (
                "br_if on eqz of i + k",
                exits_on("local.get $i i32.const -10 i32.add i32.eqz br_if $exit", ""),
                Finite(191),
                false,
            ),
            (
                "br_if on i + k, taken to stay",
                DO_WHILE_SUM.into(),
                Finite(166),
                false,
            ),
            (
                "if on i - k",
                while_if("local.get $i i32.const 10 i32.sub"),
                Finite(179),
                false,
            ),
            (
                "if on eqz of i - k",
                while_if("local.get $i i32.const 10 i32.sub i32.eqz"),
                Finite(41),
                false,
            ),
            (
                "counter teed into its test",
                TEED_COUNTER.into(),
                Finite(167),
                false,
            ),
            (
                "self-copy in the body",
                exits_on(
                    "local.get $i i32.const 10 i32.ge_s br_if $exit",
                    "local.get $i local.set $i",
                ),
                Finite(203),
                false,
            ),
            (
                "counter also loaded",
                exits_on(
                    "local.get $i i32.const 10 i32.ge_s br_if $exit",
                    "i32.const 0 i32.load local.set $i",
                ),
                Unbounded,
                true,
            ),
            (
                "counter also set from a call",
                exits_on(
                    "local.get $i i32.const 10 i32.ge_s br_if $exit",
                    "local.get $i i32.const 1 i32.add call $zero local.set $i",
                ),
                Unbounded,
                true,
            ),
        ];
        for (name, src, fuel, unbounded_loops) in cases {
            let r = report(&module(&src), "run");
            assert_eq!(
                (r.fuel, r.unbounded_loops),
                (fuel, unbounded_loops),
                "{name}"
            );
        }
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
        let m = module(
            r#"(module
                 (func $leaf (result i32)
                   i32.const 7)
                 (func (export "top") (result i32)
                   call $leaf))"#,
        );
        let a = m.analysis().unwrap();
        let top = a
            .exports()
            .find(|r| r.export.as_deref() == Some("top"))
            .unwrap();
        let leaf = a.func(0);
        assert_eq!(top.frames, Bound::Finite(2));
        assert!(top.fuel > leaf.fuel);
        assert!(!top.recursive);
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

    /// Function 0 walked once: the reference the recorder kept, a fresh
    /// lowering for a test to corrupt before [`validate_lowering`], and
    /// the stream both were fed.
    fn walked(m: &Module) -> (Recorder, RegFunc, Vec<Event>) {
        let mut sink = ((Lowerer::new(m, 0), Recorder::default()), Vec::new());
        let branches = compile_func(m, 0, &mut sink).expect("well-typed");
        let ((lowerer, mut recorder), events) = sink;
        let rf = lowerer.finish(&branches);
        recorder.branches = branches;
        (recorder, rf, events)
    }

    /// Validate function 0's register lowering against its reference.
    fn validate_lowering(m: &Module, shape: &Recorder, rf: &RegFunc) -> Result<(), AnalysisError> {
        validate_with_shape(m, 0, rf, shape).map(|_| ())
    }

    #[test]
    fn corrupted_meter_cost_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
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
        assert!(validate_lowering(&m, &shape, &rf).is_err());
    }

    #[test]
    fn dropped_store_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
        let mut ops = rf.ops.to_vec();
        let at = ops
            .iter()
            .position(|o| {
                matches!(
                    o.view(),
                    RForm::Store { .. }
                        | RForm::StoreAt { .. }
                        | RForm::StoreRR { .. }
                        | RForm::StoreBis { .. }
                        | RForm::StoreCAt { .. }
                )
            })
            .expect("has a store");
        ops.remove(at);
        rf.ops = ops.into_boxed_slice();
        assert!(validate_lowering(&m, &shape, &rf).is_err());
    }

    #[test]
    fn retargeted_branch_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
        let mut branches = rf.branches.to_vec();
        branches[0].pc += 1;
        rf.branches = branches.into_boxed_slice();
        assert!(validate_lowering(&m, &shape, &rf).is_err());
    }

    #[test]
    fn unmapped_flat_op_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, events) = walked(&m);
        // Mid-block, so no Meter or branch-target check can fire first.
        let pc = events
            .iter()
            .find_map(|e| match e {
                Event::Op(pc, Op::Store { .. }) => Some(*pc as usize),
                _ => None,
            })
            .expect("has a store");
        rf.pc_map[pc] = u32::MAX;
        assert_eq!(
            validate_lowering(&m, &shape, &rf),
            Err(mismatch(0, pc, "flat op was not lowered"))
        );
    }

    /// Put `op` at register pc `at` (or, with `None`, delete the op
    /// there), shifting `pc_map` and the branch pcs past it so that only
    /// the edit itself differs from the lowering.
    fn splice(rf: &mut RegFunc, at: usize, op: Option<ROp>) {
        let mut ops = rf.ops.to_vec();
        let shift = |q: &mut u32| match op {
            Some(_) if *q as usize >= at => *q += 1,
            None if *q as usize > at => *q -= 1,
            _ => {}
        };
        rf.pc_map.iter_mut().for_each(shift);
        rf.branches.iter_mut().for_each(|b| shift(&mut b.pc));
        match op {
            Some(op) => ops.insert(at, op),
            None => {
                ops.remove(at);
            }
        }
        rf.ops = ops.into_boxed_slice();
    }

    fn reg_pc(rf: &RegFunc, what: impl Fn(&RForm) -> bool) -> usize {
        rf.ops
            .iter()
            .position(|o| what(&o.view()))
            .expect("op present")
    }

    /// Why the proof refuses function 0's lowering `rf`.
    fn refusal(m: &Module, shape: &Recorder, rf: &RegFunc) -> String {
        match validate_lowering(m, shape, rf) {
            Err(AnalysisError::TranslationMismatch { what, .. }) => what,
            Ok(()) => panic!("the proof accepts the mutant"),
        }
    }

    #[test]
    fn op_before_entry_meter_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
        let store = rf.ops[reg_pc(&rf, |o| {
            matches!(o, RForm::StoreAt { .. } | RForm::Store { .. })
        })];
        splice(&mut rf, 0, Some(store));
        assert_eq!(
            refusal(&m, &shape, &rf),
            "register op outside any metered block"
        );
    }

    #[test]
    fn swapped_branch_index_is_rejected() {
        // The loop exit's compare-and-branch takes the back edge instead.
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
        let at = reg_pc(&rf, |o| matches!(o, RForm::BrIfCmp { br: 0, .. }));
        let mut ops = rf.ops.to_vec();
        let mut form = ops[at].view();
        if let RForm::BrIfCmp { br, .. } = &mut form {
            *br = 1;
        }
        ops[at] = ROp::new(form);
        rf.ops = ops.into_boxed_slice();
        assert_eq!(
            refusal(&m, &shape, &rf),
            "branch sequences diverge across tiers"
        );
    }

    #[test]
    fn dropped_back_edge_is_rejected() {
        let m = loop_module();
        let (shape, mut rf, _) = walked(&m);
        let at = reg_pc(&rf, |o| matches!(o, RForm::Br { br: 1 }));
        splice(&mut rf, at, None);
        assert_eq!(
            refusal(&m, &shape, &rf),
            "branch sequences diverge across tiers"
        );
    }

    #[test]
    fn dropped_return_is_rejected() {
        // Without its first `return`, `f(1)` falls through into the next
        // block: it pays that block's Meter and answers 9, not 7.
        let m = module(
            r#"(module (func (export "f") (param i32) (result i32)
                 local.get 0
                 if
                   i32.const 7
                   return
                 end
                 i32.const 9))"#,
        );
        let (shape, mut rf, _) = walked(&m);
        let at = reg_pc(&rf, |o| matches!(o, RForm::Return { .. }));
        splice(&mut rf, at, None);
        assert_eq!(
            refusal(&m, &shape, &rf),
            "fall-through diverges across tiers"
        );
    }

    #[test]
    fn pristine_lowering_validates() {
        let m = loop_module();
        let (shape, rf, _) = walked(&m);
        assert_eq!(validate_lowering(&m, &shape, &rf), Ok(()));
        assert!(m.analysis().is_ok());
    }
}
