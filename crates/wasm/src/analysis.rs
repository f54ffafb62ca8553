//! Load-time lowering and proof: one walk per body type-checks it and
//! hands each op at once to the register lowering the executor runs and
//! to this module's recorder; the register form is then checked block by
//! block against what the recorder kept (translation validation), and
//! worst-case resource bounds are computed for admission control.
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
//! * **Static resource bounds** — an abstract interpretation over the
//!   recorded block graph computes per-function worst-case fuel (exact for
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
use crate::ops::{I32Op, UnOp};
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

/// One recorded basic block: the ops between two leaders.
#[derive(Debug)]
struct Block {
    facts: Facts,
    /// Local writes and conditional exits, in op order.
    events: Vec<Ev>,
}

/// The proof's reference for one function, recorded from the walk's
/// stream: its blocks, the block graph, the branch side table and the op
/// count. The bounds read it too.
struct Shape {
    blocks: Vec<Block>,
    /// The shared function-level `Return` trampoline pc, when present.
    exit_pc: Option<usize>,
    /// Per-block successors, function exits left out.
    succs: Vec<Vec<usize>>,
    /// Per-block predecessors.
    preds: Vec<Vec<usize>>,
    /// Per branch-table index: target block, `usize::MAX` for the exit.
    branch_block: Vec<usize>,
    /// The walk's branch side table, every target resolved.
    branches: Box<[BranchTarget]>,
    /// Ops the walk handed on, `Meter`s and the trampoline included.
    n_ops: usize,
}

pub(crate) fn mismatch(func: u32, pc: usize, what: impl Into<String>) -> AnalysisError {
    AnalysisError::TranslationMismatch {
        func,
        pc: pc as u32,
        what: what.into(),
    }
}

/// The proof's recorder: the consumer of the walk's stream that builds
/// the [`Shape`] the register lowering is checked against. It decides
/// nothing of the lowering's: the walk hands on no dead op, so every op
/// belongs to a block and every block counts. It carries a symbolic
/// operand stack, from the pops and pushes the walk gives, for the
/// loop-bound pass's events.
#[derive(Default)]
struct Recorder {
    blocks: Vec<Block>,
    syms: Vec<SymV>,
    exit_pc: Option<usize>,
    n_ops: usize,
}

impl OpSink for Recorder {
    fn open(&mut self, pc: u32, entry: Entry) {
        self.n_ops += 1;
        if let Some(b) = self.blocks.last_mut() {
            b.facts.falls = !matches!(entry, Entry::Branch { .. });
        }
        // Each block's events start from unknown stack cells.
        match entry {
            Entry::Branch { height } => {
                self.syms.clear();
                self.syms.resize(height as usize, SymV::Other);
            }
            Entry::Fall | Entry::Join => self.syms.fill(SymV::Other),
        }
        self.blocks.push(Block {
            facts: Facts {
                start: pc as usize,
                ..Facts::default()
            },
            events: Vec::new(),
        });
    }

    fn seal(&mut self, cost: u32) {
        if let Some(b) = self.blocks.last_mut() {
            b.facts.cost = cost;
        }
    }

    fn exit(&mut self, pc: u32, _height: u32) {
        self.n_ops += 1;
        self.exit_pc = Some(pc as usize);
    }

    fn op(&mut self, op: Op, pops: u32, pushes: u32, _: &[BranchTarget]) {
        use SymV::{Cmp, K, L};
        self.n_ops += 1;
        let (syms, Some(b)) = (&mut self.syms, self.blocks.last_mut()) else {
            return;
        };
        // The walk type-checked every pop.
        let pop = |syms: &mut Vec<SymV>| syms.pop().unwrap_or(SymV::Other);
        b.facts.tally_flat(op);
        match op {
            Op::I32Const(k) => syms.push(K(k)),
            Op::LocalGet(l) => syms.push(L(l)),
            Op::LocalTee(l) => {
                let s = pop(syms);
                set_local(&mut b.events, syms, l, w_of(s));
                syms.push(L(l));
            }
            Op::LocalSet(l) => {
                let s = pop(syms);
                set_local(&mut b.events, syms, l, w_of(s));
            }
            Op::I32Bin(o) => {
                let sb = pop(syms);
                let sa = pop(syms);
                syms.push(bin_sym(o, sa, sb));
            }
            Op::Un(UnOp::I32Eqz) => {
                let s = pop(syms);
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
            Op::BrIf(br) | Op::BrIfZ(br) => {
                let pred = sym_pred(pop(syms), matches!(op, Op::BrIfZ(_)));
                b.events.push(Ev::Cond { br, pred });
            }
            _ => {
                for _ in 0..pops {
                    pop(syms);
                }
                syms.resize(syms.len() + pushes as usize, SymV::Other);
            }
        }
    }
}

impl Recorder {
    /// The reference, once the walk has resolved the side table: the
    /// block graph joins each branch edge to the block its target leads
    /// (none for the trampoline) and each fall-through to the next block.
    fn finish(self, branches: Box<[BranchTarget]>) -> Shape {
        let blocks = self.blocks;
        let nb = blocks.len();
        let branch_block: Vec<usize> = branches
            .iter()
            .map(|bt| {
                let pc = bt.pc as usize;
                blocks
                    .binary_search_by_key(&pc, |b| b.facts.start)
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
        Shape {
            blocks,
            exit_pc: self.exit_pc,
            succs,
            preds,
            branch_block,
            branches,
            n_ops: self.n_ops,
        }
    }
}

/// The walk over a register function: one [`Facts`] per `Meter`-headed
/// block, ended like the recorder's by the next `Meter` or by the
/// trampoline (the register image of `shape`'s), plus each direct call's
/// callee and frame base in op order, which the `regs` bound reads. An
/// op before the first `Meter`, or between a terminator and the next
/// leader, is rejected: the executor would run it unmetered, or never.
fn reg_walk(
    func: u32,
    rf: &RegFunc,
    shape: &Shape,
) -> Result<(Vec<Facts>, Vec<Window>), AnalysisError> {
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
    let anchor = |i: usize| shape.blocks.get(i).map_or(0, |b| b.facts.start);
    let mut blocks: Vec<Facts> = Vec::new();
    let mut windows = Vec::new();
    let mut open = false;
    let mut alive = true;
    for (q, op) in rf.ops.iter().map(|op| op.view()).enumerate() {
        if matches!(op, RForm::Meter { .. }) || Some(q) == trampoline {
            if let Some(b) = blocks.last_mut().filter(|_| open) {
                b.falls = alive;
            }
            open = false;
        }
        if let RForm::Meter { cost } = op {
            blocks.push(Facts {
                start: q,
                cost,
                ..Facts::default()
            });
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
        b.tally_reg(op);
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
        b.falls = alive;
    }
    Ok((blocks, windows))
}

/// Check that `rf` is a faithful lowering of the stream `shape` recorded,
/// block by block, and return the register walk's call windows. See the
/// module docs for the argument; the short version: every op is lowered,
/// so `pc_map` is total, and each block's `Meter` placement and cost,
/// op-class populations, ordered calls, ordered branch edges and
/// fall-through, and the branch side table are directly comparable.
fn validate_with_shape(
    module: &Module,
    func: u32,
    rf: &RegFunc,
    shape: &Shape,
) -> Result<Vec<Window>, AnalysisError> {
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
    for (b, r) in shape.blocks.iter().zip(&reg) {
        let (f, at) = (&b.facts, b.facts.start);
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
    Ok(windows)
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

/// Record a write of `w` to `locals[l]`; any symbol mentioning the local
/// is stale from here on.
fn set_local(events: &mut Vec<Ev>, syms: &mut [SymV], l: u32, w: W) {
    events.push(Ev::Set(l, w));
    for s in syms.iter_mut() {
        let stale = matches!(*s,
            SymV::L(x) | SymV::AddS(x, _) | SymV::Cmp(_, x, _) if x == l);
        if stale {
            *s = SymV::Other;
        }
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
    shape: &'a Shape,
    /// Local-constant dataflow result.
    consts: &'a LocalConsts,
    /// Local-constant state on function entry.
    entry_state: &'a [Option<i32>],
}

impl FuelCtx<'_> {
    /// `u`'s successors inside `set`.
    fn adj<'s>(&'s self, set: &'s [bool], u: usize) -> impl Iterator<Item = usize> + 's {
        self.shape.succs[u].iter().copied().filter(move |&v| set[v])
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
fn local_const_flow(entry_state: &[Option<i32>], shape: &Shape) -> LocalConsts {
    let (nb, nl) = (shape.blocks.len(), entry_state.len());
    let row = |b: usize| b * nl..(b + 1) * nl;
    let mut ins: Vec<Option<i32>> = vec![None; nb * nl];
    let mut has_in = vec![false; nb];
    let mut consts = LocalConsts {
        n_locals: nl,
        reached: vec![false; nb],
        out: vec![None; nb * nl],
    };
    // Block 0 exists: a shape is only built for a body that starts with
    // a `Meter`.
    ins[row(0)].copy_from_slice(entry_state);
    has_in[0] = true;
    let mut st: Vec<Option<i32>> = vec![None; nl];
    let mut work = std::collections::VecDeque::from([0usize]);
    while let Some(b) = work.pop_front() {
        // Only a block whose IN row is set is ever queued.
        st.copy_from_slice(&ins[row(b)]);
        for ev in &shape.blocks[b].events {
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
        for &v in &shape.succs[b] {
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
        let Some(&Ev::Cond { br, pred: Some(p) }) = ctx.shape.blocks[b]
            .events
            .iter()
            .find(|e| matches!(e, Ev::Cond { .. }))
        else {
            continue;
        };
        let t = ctx.shape.branch_block[br as usize];
        let stay = if t == usize::MAX || !comp.mask[t] {
            // Taken edge leaves the loop: staying means the negation.
            let Some(nop) = p.op.negate() else { continue };
            Pred { op: nop, ..p }
        } else if t == header {
            // Back edge: staying means the predicate — but only if the
            // taken edge is the block's sole way of remaining in the loop.
            let mut in_comp = ctx.shape.succs[b].iter().filter(|&&s| comp.mask[s]);
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
            for ev in &ctx.shape.blocks[bb].events {
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
        for &pp in &ctx.shape.preds[header] {
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
                ctx.shape.preds[c]
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

/// Compute the report for one function whose callees are all resolved;
/// `windows` are the register walk's direct-call windows.
fn compute_report(
    module: &Module,
    func: u32,
    rf: &RegFunc,
    shape: &Shape,
    windows: &[Window],
    reports: &[Option<FuncReport>],
) -> FuncReport {
    // `lower_and_prove` reports SCCs callees first, and a function in a
    // cyclic SCC never gets here, so every callee already has its report.
    let callee = |g: u32| -> &FuncReport {
        reports[g as usize]
            .as_ref()
            .expect("callees resolved before callers")
    };

    // Per-block weights. Every block is reachable from the entry (the
    // walk hands on no dead op), so bounds run over all of them. A bulk op
    // pays only once its range is in bounds, and a grow only for pages
    // the cap lets it add: at most the whole memory either may reach,
    // the declared maximum or else the spec's.
    let max_pages = u64::from(module.memory.and_then(|m| m.max).unwrap_or(MAX_PAGES));
    let bulk_worst = max_pages * PAGE_FUEL;
    let mut weights = Vec::with_capacity(shape.blocks.len());
    let mut callee_frames = Bound::Finite(0);
    let mut regs = Bound::Finite(rf.frame_size as u64);
    let mut unbounded_loops = false;
    for b in &shape.blocks {
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
    for &(g, base) in windows {
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
    let consts = local_const_flow(&entry_state, shape);

    let ctx = FuelCtx {
        weights: &weights,
        shape,
        consts: &consts,
        entry_state: &entry_state,
    };
    let nodes = BlockSet::from_mask(vec![true; shape.blocks.len()]);
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
fn walk(module: &Module, f: u32) -> Result<(RegFunc, Shape), ValidateError> {
    let mut sink = (Lowerer::new(module, f), Recorder::default());
    let branches = compile_func(module, f, &mut sink)?;
    let (lowerer, recorder) = sink;
    Ok((lowerer.finish(&branches), recorder.finish(branches)))
}

fn prove(module: &Module, walked: Vec<(RegFunc, Shape)>) -> Result<Lowered, AnalysisError> {
    let nf = module.funcs.len();
    let n_imp = module.num_imported_funcs();
    let mut code = Vec::with_capacity(nf);
    let mut shapes = Vec::with_capacity(nf);
    for (f, (mut rf, shape)) in (0..).zip(walked) {
        let windows = validate_with_shape(module, f, &rf, &shape)?;
        // Only the proof reads the pc map; the bounds below read the
        // shapes.
        rf.pc_map = Box::default();
        code.push(rf);
        shapes.push((shape, windows));
    }

    // Call graph over local functions; recursion (any cycle) makes every
    // member's bounds unbounded.
    let callees: Vec<Vec<usize>> = shapes
        .iter()
        .map(|(s, _)| {
            s.blocks
                .iter()
                .flat_map(|b| &b.facts.calls)
                .filter_map(|&c| match c {
                    Call::Wasm(g) => Some(g as usize),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let all: Vec<usize> = (0..nf).collect();
    let mut reports: Vec<Option<FuncReport>> = vec![None; nf];
    for comp in sccs(nf, &all, |f| callees[f].iter().copied()) {
        let cyclic = comp.len() > 1 || callees[comp[0]].contains(&comp[0]);
        if cyclic {
            for &f in &comp {
                reports[f] = Some(FuncReport {
                    func: f as u32,
                    export: None,
                    fuel: Bound::Unbounded,
                    frames: Bound::Unbounded,
                    regs: Bound::Unbounded,
                    unbounded_loops: false,
                    recursive: true,
                });
            }
        } else {
            let f = comp[0];
            let (rf, (shape, windows)) = (&code[f], &shapes[f]);
            reports[f] = Some(compute_report(
                module, f as u32, rf, shape, windows, &reports,
            ));
        }
    }

    // Every function lies in exactly one SCC, and each SCC filled its
    // members' slots above.
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
    /// two or three locals).
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
    fn walked(m: &Module) -> (Shape, RegFunc, Vec<Event>) {
        let mut sink = ((Lowerer::new(m, 0), Recorder::default()), Vec::new());
        let branches = compile_func(m, 0, &mut sink).expect("well-typed");
        let ((lowerer, recorder), events) = sink;
        (
            recorder.finish(branches.clone()),
            lowerer.finish(&branches),
            events,
        )
    }

    /// Validate function 0's register lowering against its reference.
    fn validate_lowering(m: &Module, shape: &Shape, rf: &RegFunc) -> Result<(), AnalysisError> {
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
    fn refusal(m: &Module, shape: &Shape, rf: &RegFunc) -> String {
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
