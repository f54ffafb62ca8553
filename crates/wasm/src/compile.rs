//! Lowering of validated function bodies into a flat IR.
//!
//! The decoded [`Instr`] tree stays the source of truth for `disasm`,
//! `encode` and the reference interpreter; this pass consumes it and
//! produces a [`CompiledFunc`]. Nothing executes that form directly: it
//! is lowered once more into the register form the production executor
//! runs ([`crate::regalloc`]), analysed for resource bounds, and used as
//! the left-hand side of translation validation ([`crate::analysis`]).
//! The IR stays 1:1 with the source stack machine — one op per
//! instruction, no operand fusion: every superinstruction is formed by
//! the register lowering, under the translation-validation proof. Plain
//! numeric and memory operators are classified once, here
//! (`Op::plain`), into the [`crate::ops`] payload enums the register
//! form executes, so no later stage re-derives what an operator is. The
//! decisions that shape execution *structure* are made here:
//!
//! * **Side-table branches** — every `br`/`br_if`/`br_table`/`else` and
//!   block `end` is resolved at compile time into an absolute op PC plus a
//!   precomputed unwind descriptor ([`BranchTarget`]: frame-relative stack
//!   height + result arity). The runtime label stack disappears entirely.
//! * **Basic-block metering** — fuel, the wall-clock deadline and the
//!   value-stack bound are charged once per basic block by a leading
//!   [`Op::Meter`] whose `cost` is the number of *source* instructions in
//!   the block, computed here. Fuel totals are identical to per-instruction
//!   metering on every complete execution; see the notes on `Meter` below
//!   for the granularity change on mid-block traps.
//! * **Leaf inlining** — a straight-line callee is lowered in place, its
//!   locals remapped into fresh caller slots, with exact fuel parity.
//! * **Branch-table interning** — `br_table` targets live in the
//!   per-function [`CompiledFunc::branches`] side array (indexed `u32`),
//!   not behind a per-instruction `Box<[u32]>`.
//!
//! Compilation requires a *validated* body: the lowering trusts the
//! type/stack discipline the validator establishes (as the reference
//! interpreter already does) and panics on malformed input.

use crate::analysis::{mismatch, AnalysisError};
use crate::instr::Instr;
use crate::interp::Value;
use crate::module::Module;
use crate::ops::{BinOp, I32Op, I64Op, LoadKind, StoreKind, UnOp};
use crate::types::{BlockType, ValType};

/// A resolved branch destination: absolute op PC plus the unwind
/// descriptor. Taking the branch moves the top `arity` values down to
/// frame-relative `height`, truncates the stack there, and jumps to `pc`
/// (always the `Meter` leading the target basic block, except for
/// function-level targets which point at a `Return`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTarget {
    /// Destination op index.
    pub pc: u32,
    /// Operand-stack height (relative to the frame base) the target block
    /// starts at, *excluding* the carried values.
    pub height: u32,
    /// Result values the branch carries.
    pub arity: u8,
}

/// One flat-IR operation: a source instruction with its control flow
/// resolved. Branch-carrying ops index [`CompiledFunc::branches`]; plain
/// numeric and memory operators are carried as the [`crate::ops`]
/// payloads the register form executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Basic-block header: charge `cost` fuel (the number of source
    /// instructions in the block), poll the deadline, and verify the value
    /// stack can grow by `peak` without exceeding the limit.
    Meter {
        cost: u32,
        peak: u32,
    },
    Unreachable,
    Br(u32),
    /// Branch when top-of-stack != 0.
    BrIf(u32),
    /// Branch when top-of-stack == 0.
    BrIfZ(u32),
    /// Pop selector; take `branches[start + min(sel, n)]` (`start + n` is
    /// the default target).
    BrTable {
        start: u32,
        n: u32,
    },
    Return,
    /// Call a module-local function (index into `Module::funcs`).
    CallWasm(u32),
    /// Call an imported host function; `ret` encodes the result type
    /// (0 = none, 1..4 = I32/I64/F32/F64) so no type lookup happens at
    /// run time.
    CallHost {
        f: u32,
        argc: u16,
        ret: u8,
    },
    CallIndirect(u32),
    Drop,
    Select,

    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),

    /// Pop b, a; push `op(a, b)` — every non-trapping i32 binop/compare.
    I32Bin(I32Op),
    /// Pop b, a; push `op(a, b)` on i64 operands (compares push an i32).
    I64Bin(I64Op),
    /// Pop b, a; push `op(a, b)` — trapping integer div/rem and every
    /// float binop/compare.
    Bin(BinOp),
    /// Pop a; push `op(a)` — unops, conversions, truncations.
    Un(UnOp),

    /// Pop the address; push `load(addr + off)`.
    Load {
        kind: LoadKind,
        off: u32,
    },
    /// Pop the value, then the address; `store(addr + off, value)`.
    Store {
        kind: StoreKind,
        off: u32,
    },
    MemorySize,
    MemoryGrow,
    MemoryCopy,
    MemoryFill,

    I32Const(i32),
    I64Const(i64),
    F32Const(f32),
    F64Const(f64),
}

impl Op {
    /// Operand-stack effect (pops, pushes) — the one arity table: the
    /// compiler bumps its static height (hence every `Meter::peak`) by
    /// it and the analyzer's mirror walk replays it. The match is
    /// intentionally exhaustive: a new variant fails to compile here
    /// instead of silently skipping either.
    pub(crate) fn stack_effect(self, module: &Module) -> (u32, u32) {
        match self {
            Op::Meter { .. } | Op::Br(_) | Op::Return | Op::Unreachable => (0, 0),
            Op::BrIf(_)
            | Op::BrIfZ(_)
            | Op::BrTable { .. }
            | Op::Drop
            | Op::LocalSet(_)
            | Op::GlobalSet(_) => (1, 0),
            Op::CallWasm(f) => {
                // Look the signature up by type, not via `compiled_func`:
                // neither compiling the caller nor the analysis walk may
                // trigger a compile cascade.
                let ft = module
                    .func_type(module.num_imported_funcs() + f)
                    .expect("validated call target");
                (ft.params.len() as u32, ft.results.len() as u32)
            }
            Op::CallHost { argc, ret, .. } => (argc as u32, (ret != 0) as u32),
            Op::CallIndirect(ty) => {
                let ft = &module.types[ty as usize];
                (ft.params.len() as u32 + 1, ft.results.len() as u32)
            }
            Op::Select => (3, 1),
            Op::LocalGet(_)
            | Op::GlobalGet(_)
            | Op::MemorySize
            | Op::I32Const(_)
            | Op::I64Const(_)
            | Op::F32Const(_)
            | Op::F64Const(_) => (0, 1),
            Op::LocalTee(_) | Op::MemoryGrow | Op::Un(_) | Op::Load { .. } => (1, 1),
            Op::I32Bin(_) | Op::I64Bin(_) | Op::Bin(_) => (2, 1),
            Op::Store { .. } => (2, 0),
            Op::MemoryCopy | Op::MemoryFill => (3, 0),
        }
    }

    /// The flat op of a plain numeric or memory instruction, `None` for
    /// everything else — the one place a source operator is classified;
    /// the register lowering and the analyzer read the payload.
    fn plain(instr: &Instr) -> Option<Op> {
        let load = |(kind, off)| Op::Load { kind, off };
        let store = |(kind, off)| Op::Store { kind, off };
        I32Op::from_instr(instr)
            .map(Op::I32Bin)
            .or_else(|| LoadKind::from_instr(instr).map(load))
            .or_else(|| StoreKind::from_instr(instr).map(store))
            .or_else(|| UnOp::from_instr(instr).map(Op::Un))
            .or_else(|| I64Op::from_instr(instr).map(Op::I64Bin))
            .or_else(|| BinOp::from_instr(instr).map(Op::Bin))
    }
}

/// A function body lowered to the flat IR, ready for register lowering
/// and analysis.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Flat op sequence.
    pub ops: Box<[Op]>,
    /// Interned branch targets (including all `br_table` entries).
    pub branches: Box<[BranchTarget]>,
    /// Zero values for the declared (non-parameter) locals, memcpy'd into
    /// the locals arena on frame entry.
    pub locals_init: Box<[Value]>,
    /// Parameter count.
    pub argc: u32,
    /// Result count (0 or 1 in the MVP).
    pub ret_arity: u32,
}

impl CompiledFunc {
    /// Operand-stack height each branch target starts at — the branch's
    /// `height` plus the values it carries — indexed by op pc; `u32::MAX`
    /// where no branch lands. Function-level targets point at the shared
    /// `Return` trampoline and recover `ret_arity` the same way. A side
    /// table that leaves the body or disagrees with itself about a
    /// target's height is reported, not trusted.
    pub(crate) fn entry_heights(&self, func: u32) -> Result<Vec<u32>, AnalysisError> {
        let mut eh = vec![u32::MAX; self.ops.len()];
        for bt in self.branches.iter() {
            let pc = bt.pc as usize;
            let h = bt.height + bt.arity as u32;
            match eh.get_mut(pc) {
                None => return Err(mismatch(func, pc, "branch target out of range")),
                Some(e) if *e != u32::MAX && *e != h => {
                    return Err(mismatch(func, pc, "inconsistent branch-target heights"))
                }
                Some(e) => *e = h,
            }
        }
        Ok(eh)
    }
}

/// Control-frame kind tracked during lowering.
enum CtrlKind {
    /// The implicit function-level frame (branches to it return).
    Func,
    /// `block` — and `if` frames once their else edge is resolved.
    Block,
    /// `loop` with its resolved back-edge target (the header `Meter`).
    Loop { header: u32 },
    /// `if` whose false edge (branch index) still needs a destination.
    If { else_br: u32 },
}

struct Ctrl {
    kind: CtrlKind,
    /// Frame-relative operand height at entry (after the `if` condition).
    height: u32,
    arity: u8,
    /// Branch indices to patch to this frame's end leader.
    fixups: Vec<u32>,
}

struct FnCompiler<'m> {
    module: &'m Module,
    n_imports: u32,
    ops: Vec<Op>,
    branches: Vec<BranchTarget>,
    ctrls: Vec<Ctrl>,
    /// Static operand height, frame-relative. Exact for reachable code.
    height: usize,
    reachable: bool,
    /// Whether a metered block is currently open.
    open: bool,
    meter_pc: usize,
    block_cost: u32,
    block_entry: usize,
    block_max: usize,
    /// Branch indices targeting the function level, patched to the final
    /// return trampoline.
    fn_level: Vec<u32>,
    ret_arity: u32,
    /// Added to every local index while lowering an inlined callee body
    /// (the callee's locals live in fresh caller slots).
    local_offset: u32,
    /// Next free local slot for inlined callees.
    next_local: u32,
    /// Callee indices currently being inlined (recursion/depth guard).
    inline_stack: Vec<u32>,
    /// Zero values for the inline slots, appended to `locals_init`.
    extra_locals: Vec<Value>,
}

/// Lower one validated function body (index into `Module::funcs`) to the
/// flat IR. Prefer [`Module::compiled_func`], which caches the result.
pub fn compile_func(module: &Module, local_idx: u32) -> CompiledFunc {
    let body = &module.funcs[local_idx as usize];
    let ty = &module.types[body.type_idx as usize];
    let ret_arity = ty.results.len() as u32;
    let mut c = FnCompiler {
        module,
        n_imports: module.num_imported_funcs(),
        ops: Vec::with_capacity(body.code.len() + 8),
        branches: Vec::new(),
        ctrls: vec![Ctrl {
            kind: CtrlKind::Func,
            height: 0,
            arity: ret_arity as u8,
            fixups: Vec::new(),
        }],
        height: 0,
        reachable: true,
        open: false,
        meter_pc: 0,
        block_cost: 0,
        block_entry: 0,
        block_max: 0,
        fn_level: Vec::new(),
        ret_arity,
        local_offset: 0,
        next_local: (ty.params.len() + body.locals.len()) as u32,
        inline_stack: Vec::new(),
        extra_locals: Vec::new(),
    };
    for instr in &body.code {
        c.lower(instr);
    }
    debug_assert!(c.ctrls.is_empty(), "validated: balanced control frames");
    // Conditional branches to the function level land on a shared return
    // trampoline (unmetered: the branch already paid for itself, matching
    // the reference interpreter, which never executes an End on this path).
    if !c.fn_level.is_empty() {
        let tramp = c.ops.len() as u32;
        c.ops.push(Op::Return);
        for bi in &c.fn_level {
            c.branches[*bi as usize].pc = tramp;
        }
    }
    let locals_init = body
        .locals
        .iter()
        .map(|t| Value::zero(*t))
        .chain(c.extra_locals)
        .collect();
    CompiledFunc {
        ops: c.ops.into_boxed_slice(),
        branches: c.branches.into_boxed_slice(),
        locals_init,
        argc: ty.params.len() as u32,
        ret_arity,
    }
}

/// True for instructions an inlined callee body may contain: straight-line
/// data flow only — no control flow. Nested direct calls are allowed; they
/// are lowered recursively (inlined again where possible, emitted as real
/// calls otherwise), bounded by [`INLINE_MAX_DEPTH`].
fn is_straight_line(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Block { .. }
            | Instr::Loop { .. }
            | Instr::If { .. }
            | Instr::Else { .. }
            | Instr::End
            | Instr::Br { .. }
            | Instr::BrIf { .. }
            | Instr::BrTable { .. }
            | Instr::Return
            | Instr::CallIndirect { .. }
            | Instr::Unreachable
    )
}

/// Inline at most this many source instructions per callee body.
const INLINE_MAX_INSTRS: usize = 64;

/// Maximum nesting of inlined callee bodies (a callee's own calls may
/// inline one more level; deeper or recursive chains become real calls).
const INLINE_MAX_DEPTH: usize = 2;

impl<'m> FnCompiler<'m> {
    /// Finalize the open block's `Meter` (cost + static peak growth).
    fn seal(&mut self) {
        if self.open {
            let peak = (self.block_max - self.block_entry) as u32;
            if let Op::Meter { cost, peak: p } = &mut self.ops[self.meter_pc] {
                *cost = self.block_cost;
                *p = peak;
            }
            self.open = false;
        }
    }

    /// The current block leader's PC, opening a fresh block when none is.
    fn leader(&mut self) -> u32 {
        if !self.open {
            self.meter_pc = self.ops.len();
            self.ops.push(Op::Meter { cost: 0, peak: 0 });
            self.block_cost = 0;
            self.block_entry = self.height;
            self.block_max = self.height;
            self.open = true;
        }
        self.meter_pc as u32
    }

    /// Charge `n` source instructions to the current block.
    fn count(&mut self, n: u32) {
        self.leader();
        self.block_cost += n;
    }

    fn emit(&mut self, op: Op) {
        self.leader();
        self.ops.push(op);
    }

    /// Apply a source instruction's stack effect to the static height.
    fn bump(&mut self, pops: usize, pushes: usize) {
        self.height = self
            .height
            .checked_sub(pops)
            .expect("validated: operand stack underflow")
            + pushes;
        if self.height > self.block_max {
            self.block_max = self.height;
        }
    }

    fn new_branch(&mut self, height: u32, arity: u8) -> u32 {
        self.branches.push(BranchTarget {
            pc: u32::MAX,
            height,
            arity,
        });
        (self.branches.len() - 1) as u32
    }

    /// Resolve a relative branch depth to a branch-table index. Loop
    /// targets resolve immediately; forward targets are fixed up at `end`;
    /// function-level targets go to the return trampoline.
    fn branch_index(&mut self, depth: u32) -> u32 {
        let ci = self.ctrls.len() - 1 - depth as usize;
        if ci == 0 {
            let b = self.new_branch(0, self.ret_arity as u8);
            self.fn_level.push(b);
            return b;
        }
        let (height, arity) = (self.ctrls[ci].height, self.ctrls[ci].arity);
        match self.ctrls[ci].kind {
            CtrlKind::Loop { header } => {
                self.branches.push(BranchTarget {
                    pc: header,
                    height,
                    arity: 0,
                });
                (self.branches.len() - 1) as u32
            }
            _ => {
                let b = self.new_branch(height, arity);
                self.ctrls[ci].fixups.push(b);
                b
            }
        }
    }

    /// Plain op: count, emit, apply its stack effect.
    fn simple(&mut self, op: Op) {
        self.count(1);
        self.emit(op);
        let (pops, pushes) = op.stack_effect(self.module);
        self.bump(pops as usize, pushes as usize);
    }

    fn lower(&mut self, instr: &Instr) {
        if !self.reachable {
            // Skip dead code, but keep the control-frame bookkeeping so
            // `else`/`end` can restore reachability.
            match instr {
                Instr::Block { ty, .. } | Instr::Loop { ty } | Instr::If { ty, .. } => {
                    self.ctrls.push(Ctrl {
                        kind: CtrlKind::Block,
                        height: self.height as u32,
                        arity: ty.arity() as u8,
                        fixups: Vec::new(),
                    });
                }
                Instr::Else { .. } => self.lower_else(),
                Instr::End => self.lower_end(),
                _ => {}
            }
            return;
        }
        match instr {
            Instr::Unreachable => {
                self.count(1);
                self.emit(Op::Unreachable);
                self.seal();
                self.reachable = false;
            }
            Instr::Nop => self.count(1),
            Instr::Block { ty, .. } => {
                self.count(1);
                self.ctrls.push(Ctrl {
                    kind: CtrlKind::Block,
                    height: self.height as u32,
                    arity: ty.arity() as u8,
                    fixups: Vec::new(),
                });
            }
            Instr::Loop { ty } => {
                // The loop header must start a fresh block even when the
                // current one is empty: its Meter is the back-edge target
                // and is re-charged every iteration (the reference
                // interpreter re-executes the Loop instruction too).
                self.seal();
                let header = self.leader();
                self.count(1);
                self.ctrls.push(Ctrl {
                    kind: CtrlKind::Loop { header },
                    height: self.height as u32,
                    arity: ty.arity() as u8,
                    fixups: Vec::new(),
                });
            }
            Instr::If { ty, .. } => self.lower_if(*ty),
            Instr::Else { .. } => self.lower_else(),
            Instr::End => self.lower_end(),
            Instr::Br { depth } => {
                self.count(1);
                let ci = self.ctrls.len() - 1 - *depth as usize;
                if ci == 0 {
                    // Branch to the function label: a return (same fuel as
                    // the reference path, which never runs the final End).
                    self.emit(Op::Return);
                } else {
                    let b = self.branch_index(*depth);
                    self.emit(Op::Br(b));
                }
                self.seal();
                self.reachable = false;
            }
            Instr::BrIf { depth } => {
                self.count(1);
                self.bump(1, 0); // condition
                let br = self.branch_index(*depth);
                self.emit(Op::BrIf(br));
                self.seal();
            }
            Instr::BrTable { targets, default } => {
                self.count(1);
                self.bump(1, 0); // selector
                let start = self.branches.len() as u32;
                for d in targets.iter() {
                    let _ = self.branch_index(*d);
                }
                let _ = self.branch_index(*default);
                self.emit(Op::BrTable {
                    start,
                    n: targets.len() as u32,
                });
                self.seal();
                self.reachable = false;
            }
            Instr::Return => {
                self.count(1);
                self.emit(Op::Return);
                self.seal();
                self.reachable = false;
            }
            Instr::Call { func } => {
                if let Some(local) = func.checked_sub(self.n_imports) {
                    if !self.try_inline(local) {
                        self.simple(Op::CallWasm(local));
                    }
                    return;
                }
                let ty = self
                    .module
                    .func_type(*func)
                    .expect("validated: call target");
                let ret = match ty.results.first() {
                    None => 0,
                    Some(ValType::I32) => 1,
                    Some(ValType::I64) => 2,
                    Some(ValType::F32) => 3,
                    Some(ValType::F64) => 4,
                };
                self.simple(Op::CallHost {
                    f: *func,
                    argc: ty.params.len() as u16,
                    ret,
                });
            }
            Instr::CallIndirect { type_idx } => self.simple(Op::CallIndirect(*type_idx)),
            Instr::Drop => self.simple(Op::Drop),
            Instr::Select => self.simple(Op::Select),
            Instr::LocalGet(i) => self.simple(Op::LocalGet(self.local_offset + *i)),
            Instr::LocalSet(i) => self.simple(Op::LocalSet(self.local_offset + *i)),
            Instr::LocalTee(i) => self.simple(Op::LocalTee(self.local_offset + *i)),
            Instr::GlobalGet(i) => self.simple(Op::GlobalGet(*i)),
            Instr::GlobalSet(i) => self.simple(Op::GlobalSet(*i)),
            Instr::MemorySize => self.simple(Op::MemorySize),
            Instr::MemoryGrow => self.simple(Op::MemoryGrow),
            Instr::MemoryCopy => self.simple(Op::MemoryCopy),
            Instr::MemoryFill => self.simple(Op::MemoryFill),

            Instr::I32Const(v) => self.simple(Op::I32Const(*v)),
            Instr::I64Const(v) => self.simple(Op::I64Const(*v)),
            Instr::F32Const(v) => self.simple(Op::F32Const(*v)),
            Instr::F64Const(v) => self.simple(Op::F64Const(*v)),

            other => match Op::plain(other) {
                Some(op) => self.simple(op),
                None => unreachable!("unhandled instruction in lowering: {other:?}"),
            },
        }
    }

    /// Inline a straight-line leaf callee (no control flow, no calls) into
    /// the current block. The callee's params and locals get fresh caller
    /// slots; its body is lowered in place with the local indices remapped,
    /// so the register lowering fuses straight across the call boundary.
    ///
    /// Fuel parity with the reference interpreter is exact: the `call`
    /// charges 1, every body instruction charges 1 through the normal
    /// lowering, and the callee's exit (explicit `return` or fallthrough
    /// `end` — exactly one executes) charges 1. The only observable
    /// difference is that an inlined call no longer counts toward the
    /// call-depth limit, which is implementation-defined.
    fn try_inline(&mut self, callee: u32) -> bool {
        if self.inline_stack.len() >= INLINE_MAX_DEPTH || self.inline_stack.contains(&callee) {
            return false;
        }
        let body = &self.module.funcs[callee as usize];
        let code = &body.code;
        if code.len() > INLINE_MAX_INSTRS {
            return false;
        }
        let Some((Instr::End, rest)) = code.split_last() else {
            return false;
        };
        // A trailing explicit `return` is equivalent to fallthrough, and
        // dead `unreachable` padding behind it never executes (PlugC emits
        // `return; unreachable; end` for typed bodies).
        let mut trimmed = rest;
        while let Some((Instr::Unreachable, r)) = trimmed.split_last() {
            trimmed = r;
        }
        let rest = if trimmed.len() < rest.len() {
            match trimmed.split_last() {
                Some((Instr::Return, r)) => r,
                _ => return false,
            }
        } else {
            match rest.split_last() {
                Some((Instr::Return, r)) => r,
                _ => rest,
            }
        };
        if !rest.iter().all(is_straight_line) {
            return false;
        }
        let ty = &self.module.types[body.type_idx as usize];

        // The call instruction itself.
        self.count(1);

        // Fresh slots for the callee frame: params then declared locals.
        let base = self.next_local;
        self.next_local += (ty.params.len() + body.locals.len()) as u32;
        self.extra_locals
            .extend(ty.params.iter().map(|t| Value::zero(*t)));
        self.extra_locals
            .extend(body.locals.iter().map(|t| Value::zero(*t)));

        // Drain the arguments into the param slots (unmetered glue: the
        // reference interpreter moves them during frame setup).
        for i in (0..ty.params.len()).rev() {
            self.emit(Op::LocalSet(base + i as u32));
            self.bump(1, 0);
        }

        // The body, with locals remapped into the fresh slots. Nested
        // direct calls lower recursively under the depth guard.
        let saved = self.local_offset;
        self.local_offset = base;
        self.inline_stack.push(callee);
        for instr in rest {
            self.lower(instr);
        }
        self.inline_stack.pop();
        self.local_offset = saved;

        // The callee's terminator (return or function-level end).
        self.count(1);
        true
    }

    /// `if`: the false edge is a branch to the else arm (or the end).
    fn lower_if(&mut self, ty: BlockType) {
        self.count(1);
        self.bump(1, 0); // condition
        let br = self.new_branch(self.height as u32, 0);
        self.emit(Op::BrIfZ(br));
        self.seal();
        self.ctrls.push(Ctrl {
            kind: CtrlKind::If { else_br: br },
            height: self.height as u32,
            arity: ty.arity() as u8,
            fixups: Vec::new(),
        });
    }

    fn lower_else(&mut self) {
        let fi = self.ctrls.len() - 1;
        // Then-arm fallthrough jumps over the else arm; the Else
        // instruction is charged on this path only, like the reference
        // interpreter which executes Else only on then-fallthrough.
        if self.reachable {
            self.count(1);
            let (h, a) = (self.ctrls[fi].height, self.ctrls[fi].arity);
            let b = self.new_branch(h, a);
            self.emit(Op::Br(b));
            self.seal();
            self.ctrls[fi].fixups.push(b);
        }
        let f = &mut self.ctrls[fi];
        match f.kind {
            CtrlKind::If { else_br } => {
                f.kind = CtrlKind::Block;
                let h = f.height;
                // An emitted If is always reachable at entry.
                self.reachable = true;
                self.height = h as usize;
                let lp = self.leader();
                self.branches[else_br as usize].pc = lp;
            }
            _ => {
                // The whole if/else sat in dead code.
                self.reachable = false;
            }
        }
    }

    fn lower_end(&mut self) {
        let f = self.ctrls.pop().expect("validated: end matches a frame");
        if self.ctrls.is_empty() {
            // Function-level End: executes (and is charged) only on
            // fallthrough, then returns.
            if self.reachable {
                self.height = self.ret_arity as usize;
                self.count(1);
                self.emit(Op::Return);
                self.seal();
            }
            self.reachable = false;
            return;
        }
        match f.kind {
            CtrlKind::Loop { .. } => {
                // Nothing branches forward to a loop's End; on fallthrough
                // it simply pops (and costs one instruction).
                if self.reachable {
                    self.height = f.height as usize + f.arity as usize;
                    self.count(1);
                }
            }
            _ => {
                let mut fixups = f.fixups;
                if let CtrlKind::If { else_br } = f.kind {
                    // Bare if: the false edge lands at the End.
                    fixups.push(else_br);
                }
                if self.reachable || !fixups.is_empty() {
                    // The end leader is charged the End instruction and is
                    // reached by both fallthrough and every branch here —
                    // exactly the paths on which the reference interpreter
                    // executes this End.
                    self.seal();
                    self.height = f.height as usize + f.arity as usize;
                    let lp = self.leader();
                    self.count(1);
                    for bi in fixups {
                        self.branches[bi as usize].pc = lp;
                    }
                    self.reachable = true;
                } else {
                    self.reachable = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    fn compile_first(m: &Module) -> CompiledFunc {
        compile_func(m, 0)
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code().local_get(0).i32_const(2).i32_mul();
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let cf = compile_first(&m);
        // One Meter charging all four source instructions (the three
        // below plus the function-level End), then one op per instruction.
        // Fusing them is the register lowering's job (`regalloc::tests`).
        assert_eq!(
            *cf.ops,
            [
                Op::Meter { cost: 4, peak: 2 },
                Op::LocalGet(0),
                Op::I32Const(2),
                Op::I32Bin(I32Op::Mul),
                Op::Return,
            ]
        );
    }

    #[test]
    fn while_loop_header_is_its_own_metered_block() {
        // while (i < n) { i = i + 1 }   as PlugC emits it:
        // block { loop { i<n; eqz; br_if 1; body; br 0 } }
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code()
            .block(crate::types::BlockType::Empty)
            .loop_(crate::types::BlockType::Empty)
            .local_get(0)
            .local_get(1)
            .i32_lt_s()
            .i32_eqz()
            .br_if(1)
            .local_get(0)
            .i32_const(1)
            .i32_add()
            .local_set(0)
            .br(0)
            .end()
            .end()
            .local_get(0);
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let cf = compile_first(&m);
        // The loop header is a block of its own: `loop` plus the five
        // condition instructions, spelled one op each and ended by the
        // exit branch. (That they run as ONE compare-and-branch is pinned
        // on the register form, in `regalloc::tests`.)
        let header = cf
            .ops
            .iter()
            .position(|op| matches!(op, Op::Meter { cost: 6, .. }))
            .expect("loop header meter");
        assert!(
            matches!(
                cf.ops[header + 1..header + 6],
                [
                    Op::LocalGet(0),
                    Op::LocalGet(1),
                    Op::I32Bin(I32Op::LtS),
                    Op::Un(UnOp::I32Eqz),
                    Op::BrIf(_)
                ]
            ),
            "ops: {:?}",
            cf.ops
        );
        // No label-stack ops exist; the back edge targets that Meter.
        let back = cf
            .branches
            .iter()
            .find(|bt| bt.pc as usize == header)
            .expect("loop back edge lands on its header meter");
        assert_eq!(back.arity, 0);
    }

    #[test]
    fn br_table_targets_are_interned() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code()
            .block(crate::types::BlockType::Empty)
            .block(crate::types::BlockType::Empty)
            .local_get(0)
            .br_table(&[0, 1], 0)
            .end()
            .end()
            .i32_const(7);
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let cf = compile_first(&m);
        let (start, n) = cf
            .ops
            .iter()
            .find_map(|op| match op {
                Op::BrTable { start, n } => Some((*start, *n)),
                _ => None,
            })
            .expect("br_table lowered");
        assert_eq!(n, 2);
        // Two targets + the default all resolved in the side table.
        for i in 0..=n {
            assert_ne!(cf.branches[(start + i) as usize].pc, u32::MAX);
        }
    }

    #[test]
    fn fuel_cost_counts_source_instrs() {
        // const+const+add+drop = 4 source instructions in one block, plus
        // the function-level End (charged, though it lowers to `Return`).
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[], &[]);
        b.begin_func(sig);
        b.code().i32_const(1).i32_const(2).i32_add().drop();
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let cf = compile_first(&m);
        let total: u32 = cf
            .ops
            .iter()
            .map(|op| match op {
                Op::Meter { cost, .. } => *cost,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn op_enum_stays_small() {
        assert!(
            std::mem::size_of::<Op>() <= 16,
            "Op grew: {}",
            std::mem::size_of::<Op>()
        );
    }
}
