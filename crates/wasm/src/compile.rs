//! Type-checking and lowering of function bodies into a flat IR, in one
//! walk per body.
//!
//! The decoded [`Instr`] tree stays the source of truth for `encode` and
//! for the test oracle (a per-instruction walker, `tests/util/oracle.rs`);
//! this pass consumes it and produces a [`CompiledFunc`]. Nothing executes
//! that form directly: inside the one load-time pass
//! ([`crate::analysis`]) it is lowered once more into the register form
//! the production executor runs ([`crate::regalloc`]), analysed for
//! resource bounds and used as the left-hand side of translation
//! validation, and then dropped.
//! The IR stays 1:1 with the source stack machine — one op per
//! instruction, no operand fusion: every superinstruction is formed by
//! the register lowering, under the translation-validation proof. Plain
//! numeric and memory operators arrive already classified, as the
//! [`crate::ops`] payloads the decoder put in the `Instr`; lowering moves
//! each payload into its op unchanged, and the register form executes it,
//! so no stage re-derives what an operator is. The decisions that shape
//! execution *structure* are made here:
//!
//! * **Side-table branches** — every `br`/`br_if`/`br_table`/`else` and
//!   block `end` is resolved at compile time into an absolute op PC plus a
//!   precomputed unwind descriptor ([`BranchTarget`]: frame-relative stack
//!   height + result arity). The runtime label stack disappears entirely.
//! * **Basic-block metering** — fuel is charged once per basic block by a
//!   leading [`Op::Meter`] whose `cost` is the number of *source*
//!   instructions in the block, computed here (a bulk memory op's byte
//!   charge is the executor's, at the op). A function's entry block also
//!   carries its activation price, [`call_price`]: the entry block is never
//!   a branch target, so the price is paid once per call. Fuel totals are
//!   identical to per-instruction metering with that price on every
//!   complete execution; see the notes on `Meter` below for the
//!   granularity change on mid-block traps.
//! * **One function at a time** — every `call` lowers to a call: a
//!   body's slots are its parameters and its declared locals, and nothing
//!   of another function is lowered into it. Inlining is the guest
//!   compiler's job (PlugC's `opt` pass splices its straight-line helpers).
//! * **Branch-table interning** — `br_table` targets live in the
//!   per-function [`CompiledFunc::branches`] side array (indexed `u32`),
//!   not behind a per-instruction `Box<[u32]>`.
//!
//! The walk is also the type check: the spec appendix's stack-polymorphic
//! algorithm — operand types over a control-frame stack — runs on the
//! same frames the lowering resolves branches on, over dead code too
//! (which it checks and does not emit). A body that breaks the type
//! system is a [`ValidateError`] at its function, instruction and kind;
//! no input makes the walk panic. It is the one check of block structure
//! too: the decoder and the builder record `block`, `loop`, `if`, `else`
//! and `end` as written, and the walk matches each `else` and `end` to
//! its frame, refusing one that closes nothing. The module-level checks
//! ([`crate::validate::validate`]) come first: the walk trusts the type,
//! function and table declarations they hold.

use crate::analysis::{mismatch, AnalysisError};
use crate::instance::call_price;
use crate::instr::{Instr, OpRow};
use crate::module::Module;
use crate::ops::{BinOp, I32Op, I64Op, LoadKind, StoreKind, UnOp};
use crate::types::{GlobalType, Mutability, ValType};
use crate::validate::{ValidateError, ValidateErrorKind};

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
    /// instructions in the block, plus the activation price in a
    /// function's entry block).
    Meter {
        cost: u32,
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
    /// Operand-stack effect (pops, pushes) — the one arity table the
    /// analyzer's mirror walk and the register lowering replay over the
    /// ops the type-checked walk emitted. The match is intentionally
    /// exhaustive: a new variant fails to compile here instead of silently
    /// skipping either.
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
                // Look the signature up by type: the callee's body may
                // not be compiled yet.
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
}

/// A function body lowered to the flat IR, ready for register lowering
/// and analysis.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Flat op sequence.
    pub ops: Box<[Op]>,
    /// Interned branch targets (including all `br_table` entries).
    pub branches: Box<[BranchTarget]>,
    /// Parameter count.
    pub argc: u32,
    /// Local slots: the parameters, then the declared locals.
    pub n_locals: u32,
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
    /// `block` — and `if` frames once their `else` is seen.
    Block,
    /// `loop` with its resolved back-edge target (the header `Meter`;
    /// `u32::MAX` in dead code, where no branch is emitted).
    Loop { header: u32 },
    /// `if` before its `else`: the false edge (branch index) still needs a
    /// destination, `None` in dead code.
    If { else_br: Option<u32> },
}

/// One control frame: the type checker's (its label type, its operand
/// height, whether its code became unreachable) and the lowering's (its
/// kind, the branches to patch at its end).
struct Ctrl {
    kind: CtrlKind,
    /// Operand height at entry (after the `if` condition), frame-relative.
    height: u32,
    /// The value the frame ends with (MVP: at most one).
    ty: Option<ValType>,
    /// Branch indices to patch to this frame's end leader.
    fixups: Vec<u32>,
    /// Set once the frame's remaining code became unreachable: its operand
    /// stack is polymorphic from there on.
    unreachable: bool,
}

struct FnCompiler<'m> {
    module: &'m Module,
    n_imports: u32,
    /// Module-wide index of the function walked, for errors.
    func_idx: u32,
    /// Index of the source instruction walked, for errors.
    pc: usize,
    ops: Vec<Op>,
    branches: Vec<BranchTarget>,
    ctrls: Vec<Ctrl>,
    /// The operand stack's types, frame-relative; `None` is a value
    /// popped from an unreachable stack. Its height is exact for the code
    /// the lowering emits.
    vals: Vec<Option<ValType>>,
    /// The function's result.
    results: Option<ValType>,
    /// The body's parameters and its declared locals.
    params: &'m [ValType],
    locals: &'m [ValType],
    /// Whether the code walked executes; dead code is type-checked and not
    /// emitted.
    reachable: bool,
    /// Whether a metered block is currently open.
    open: bool,
    meter_pc: usize,
    block_cost: u32,
    /// Branch indices targeting the function level, patched to the final
    /// return trampoline.
    fn_level: Vec<u32>,
}

/// Type-check one function body (index into `Module::funcs`) and lower it
/// to the flat IR, in one walk. A body that breaks the type system is the
/// [`ValidateError`] naming its function, instruction and kind. Called
/// only by the proof, which lowers the result to register form, checks
/// the two against each other and then drops this one. The module-level
/// checks ([`crate::validate::validate`]) must have passed.
pub fn compile_func(module: &Module, local_idx: u32) -> Result<CompiledFunc, ValidateError> {
    let body = &module.funcs[local_idx as usize];
    let ty = &module.types[body.type_idx as usize];
    let results = ty.results.first().copied();
    let mut c = FnCompiler {
        module,
        n_imports: module.num_imported_funcs(),
        func_idx: module.num_imported_funcs() + local_idx,
        pc: 0,
        ops: Vec::with_capacity(body.code.len() + 8),
        branches: Vec::new(),
        ctrls: Vec::new(),
        vals: Vec::new(),
        results,
        params: &ty.params,
        locals: &body.locals,
        reachable: true,
        open: false,
        meter_pc: 0,
        block_cost: 0,
        fn_level: Vec::new(),
    };
    c.push_ctrl(CtrlKind::Func, results);
    // The entry block carries the activation price. A leading `loop`
    // seals it and opens its own header, so no branch lands here.
    c.count(call_price(body.locals.len()));
    for (pc, instr) in body.code.iter().enumerate() {
        c.pc = pc;
        c.lower(instr)?;
    }
    if !c.ctrls.is_empty() {
        // The body ended with a frame still open: a block left unclosed,
        // or no function-level `End`.
        c.pc = body.code.len();
        return Err(c.err(ValidateErrorKind::ControlUnderflow));
    }
    // Conditional branches to the function level land on a shared return
    // trampoline (unmetered: the branch already paid for itself, matching
    // a per-instruction walk, which never executes an End on this path).
    if !c.fn_level.is_empty() {
        let tramp = c.ops.len() as u32;
        c.ops.push(Op::Return);
        for bi in &c.fn_level {
            c.branches[*bi as usize].pc = tramp;
        }
    }
    Ok(CompiledFunc {
        ops: c.ops.into_boxed_slice(),
        branches: c.branches.into_boxed_slice(),
        argc: ty.params.len() as u32,
        n_locals: (ty.params.len() + body.locals.len()) as u32,
        ret_arity: results.is_some() as u32,
    })
}

impl<'m> FnCompiler<'m> {
    fn err(&self, kind: ValidateErrorKind) -> ValidateError {
        ValidateError {
            func: Some(self.func_idx),
            pc: Some(self.pc),
            kind,
        }
    }

    // -- the type checker: the spec appendix's algorithm -----------------

    fn push(&mut self, ty: ValType) {
        self.vals.push(Some(ty));
    }

    fn pop_any(&mut self) -> Result<Option<ValType>, ValidateError> {
        let (height, unreachable) = self
            .ctrls
            .last()
            .map_or((0, false), |f| (f.height as usize, f.unreachable));
        if self.vals.len() == height {
            if unreachable {
                return Ok(None);
            }
            return Err(self.err(ValidateErrorKind::StackUnderflow));
        }
        Ok(self.vals.pop().flatten())
    }

    fn pop_expect(&mut self, expected: ValType) -> Result<(), ValidateError> {
        match self.pop_any()? {
            Some(t) if t != expected => Err(self.err(ValidateErrorKind::TypeMismatch {
                expected,
                found: Some(t),
            })),
            _ => Ok(()),
        }
    }

    /// Pop a call's arguments, last first.
    fn pop_params(&mut self, params: &[ValType]) -> Result<(), ValidateError> {
        params.iter().rev().try_for_each(|&p| self.pop_expect(p))
    }

    fn push_ctrl(&mut self, kind: CtrlKind, ty: Option<ValType>) {
        self.ctrls.push(Ctrl {
            kind,
            height: self.vals.len() as u32,
            ty,
            fixups: Vec::new(),
            unreachable: false,
        });
    }

    /// The checks at a frame's `else` or `end`: its value on top of the
    /// stack, and nothing else above its entry height.
    fn check_frame_end(&mut self) -> Result<(), ValidateError> {
        let Some(&Ctrl { height, ty, .. }) = self.ctrls.last() else {
            return Err(self.err(ValidateErrorKind::ControlUnderflow));
        };
        if let Some(t) = ty {
            self.pop_expect(t)?;
        }
        if self.vals.len() != height as usize {
            return Err(self.err(ValidateErrorKind::StackHeightMismatch {
                expected: height as usize,
                found: self.vals.len(),
            }));
        }
        Ok(())
    }

    /// The rest of the current frame is unreachable: drop its operands and
    /// make its stack polymorphic.
    fn set_unreachable(&mut self) {
        if let Some(f) = self.ctrls.last_mut() {
            self.vals.truncate(f.height as usize);
            f.unreachable = true;
        }
    }

    /// Types carried by a branch to the label `depth` levels up (none to a
    /// loop, whose branches target its start).
    fn label_types(&self, depth: u32) -> Result<Option<ValType>, ValidateError> {
        let ci = self
            .ctrls
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(ValidateErrorKind::BadLabelDepth(depth)))?;
        let f = &self.ctrls[ci];
        Ok(match f.kind {
            CtrlKind::Loop { .. } => None,
            _ => f.ty,
        })
    }

    fn check_mem(&self) -> Result<(), ValidateError> {
        match self.module.memory {
            Some(_) => Ok(()),
            None => Err(self.err(ValidateErrorKind::NoMemory)),
        }
    }

    fn local_ty(&self, idx: u32) -> Result<ValType, ValidateError> {
        let i = idx as usize;
        self.params
            .get(i)
            .or_else(|| self.locals.get(i.checked_sub(self.params.len())?))
            .copied()
            .ok_or_else(|| self.err(ValidateErrorKind::BadLocalIndex(idx)))
    }

    fn global_ty(&self, idx: u32) -> Result<GlobalType, ValidateError> {
        self.module
            .globals
            .get(idx as usize)
            .map(|g| g.ty)
            .ok_or_else(|| self.err(ValidateErrorKind::BadGlobalIndex(idx)))
    }

    /// An op that pops `params` (last first) and pushes `result`.
    fn op(
        &mut self,
        params: &[ValType],
        result: Option<ValType>,
        op: Op,
    ) -> Result<(), ValidateError> {
        self.pop_params(params)?;
        if let Some(ty) = result {
            self.push(ty);
        }
        self.simple(op);
        Ok(())
    }

    /// A plain operator, typed by its row of the operator table: a memory
    /// row needs the memory and an alignment of at most its width.
    fn plain(&mut self, row: &OpRow, align: u32, op: Op) -> Result<(), ValidateError> {
        if let Some(width) = row.width {
            self.check_mem()?;
            let natural = width.trailing_zeros();
            if align > natural {
                return Err(self.err(ValidateErrorKind::BadAlignment { align, natural }));
            }
        }
        self.op(row.params, row.result, op)
    }

    // -- the lowering ----------------------------------------------------

    /// Finalize the open block's `Meter` cost.
    fn seal(&mut self) {
        if self.open {
            if let Op::Meter { cost } = &mut self.ops[self.meter_pc] {
                *cost = self.block_cost;
            }
            self.open = false;
        }
    }

    /// The current block leader's PC, opening a fresh block when none is.
    fn leader(&mut self) -> u32 {
        if !self.open {
            self.meter_pc = self.ops.len();
            self.ops.push(Op::Meter { cost: 0 });
            self.block_cost = 0;
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

    /// A plain op, where the code executes: count it and emit it.
    fn simple(&mut self, op: Op) {
        if self.reachable {
            self.count(1);
            self.emit(op);
        }
    }

    /// End the reachable code: `op` is the block's last op.
    fn terminate(&mut self, op: Op) {
        self.emit(op);
        self.seal();
        self.reachable = false;
    }

    fn new_branch(&mut self, height: u32, arity: u8) -> u32 {
        self.branches.push(BranchTarget {
            pc: u32::MAX,
            height,
            arity,
        });
        (self.branches.len() - 1) as u32
    }

    /// Resolve a relative branch depth (checked by `label_types`) to a
    /// branch-table index. Loop targets resolve immediately; forward
    /// targets are fixed up at `end`; function-level targets go to the
    /// return trampoline.
    fn branch_index(&mut self, depth: u32) -> u32 {
        let ci = self.ctrls.len() - 1 - depth as usize;
        if ci == 0 {
            let b = self.new_branch(0, self.results.is_some() as u8);
            self.fn_level.push(b);
            return b;
        }
        let (height, arity) = (self.ctrls[ci].height, self.ctrls[ci].ty.is_some() as u8);
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

    /// Type-check one source instruction and, where it executes, lower it.
    /// Dead code is checked against its polymorphic stack and emits
    /// nothing; its frames are kept so `else`/`end` can restore
    /// reachability.
    fn lower(&mut self, instr: &Instr) -> Result<(), ValidateError> {
        use ValType::*;
        if self.ctrls.is_empty() {
            // Code after the function's final `end`.
            return Err(self.err(ValidateErrorKind::ControlUnderflow));
        }
        let module = self.module;
        match instr {
            Instr::Unreachable => {
                if self.reachable {
                    self.count(1);
                    self.terminate(Op::Unreachable);
                }
                self.set_unreachable();
            }
            Instr::Nop => {
                if self.reachable {
                    self.count(1);
                }
            }
            Instr::Block { ty } => {
                if self.reachable {
                    self.count(1);
                }
                self.push_ctrl(CtrlKind::Block, ty.result());
            }
            Instr::Loop { ty } => {
                // The loop header must start a fresh block even when the
                // current one is empty: its Meter is the back-edge target
                // and is re-charged every iteration (a per-instruction
                // walk re-executes the Loop instruction too).
                let mut header = u32::MAX;
                if self.reachable {
                    self.seal();
                    header = self.leader();
                    self.count(1);
                }
                self.push_ctrl(CtrlKind::Loop { header }, ty.result());
            }
            Instr::If { ty } => {
                // The false edge is a branch to the else arm (or the end).
                self.pop_expect(I32)?;
                let mut else_br = None;
                if self.reachable {
                    self.count(1);
                    let br = self.new_branch(self.vals.len() as u32, 0);
                    self.emit(Op::BrIfZ(br));
                    self.seal();
                    else_br = Some(br);
                }
                self.push_ctrl(CtrlKind::If { else_br }, ty.result());
            }
            Instr::Else => self.lower_else()?,
            Instr::End => self.lower_end()?,
            Instr::Br { depth } => {
                if let Some(t) = self.label_types(*depth)? {
                    self.pop_expect(t)?;
                }
                if self.reachable {
                    self.count(1);
                    if self.ctrls.len() - 1 == *depth as usize {
                        // Branch to the function label: a return (same fuel
                        // as a per-instruction walk, which never runs the
                        // final End).
                        self.terminate(Op::Return);
                    } else {
                        let b = self.branch_index(*depth);
                        self.terminate(Op::Br(b));
                    }
                }
                self.set_unreachable();
            }
            Instr::BrIf { depth } => {
                self.pop_expect(I32)?;
                if let Some(t) = self.label_types(*depth)? {
                    self.pop_expect(t)?;
                    self.push(t);
                }
                if self.reachable {
                    self.count(1);
                    let br = self.branch_index(*depth);
                    self.emit(Op::BrIf(br));
                    self.seal();
                }
            }
            Instr::BrTable { targets, default } => {
                self.pop_expect(I32)?;
                let tys = self.label_types(*default)?;
                for t in targets.iter() {
                    if self.label_types(*t)? != tys {
                        return Err(self.err(ValidateErrorKind::BrTableArityMismatch));
                    }
                }
                if let Some(t) = tys {
                    self.pop_expect(t)?;
                }
                if self.reachable {
                    self.count(1);
                    let start = self.branches.len() as u32;
                    for d in targets.iter() {
                        self.branch_index(*d);
                    }
                    self.branch_index(*default);
                    self.terminate(Op::BrTable {
                        start,
                        n: targets.len() as u32,
                    });
                }
                self.set_unreachable();
            }
            Instr::Return => {
                if let Some(t) = self.results {
                    self.pop_expect(t)?;
                }
                if self.reachable {
                    self.count(1);
                    self.terminate(Op::Return);
                }
                self.set_unreachable();
            }
            Instr::Call { func } => {
                let ty = module
                    .func_type(*func)
                    .ok_or_else(|| self.err(ValidateErrorKind::BadFuncIndex(*func)))?;
                self.pop_params(&ty.params)?;
                if self.reachable {
                    match func.checked_sub(self.n_imports) {
                        Some(local) => self.simple(Op::CallWasm(local)),
                        None => {
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
                    }
                }
                if let Some(&r) = ty.results.first() {
                    self.push(r);
                }
            }
            Instr::CallIndirect { type_idx } => {
                if module.table.is_none() {
                    return Err(self.err(ValidateErrorKind::NoTable));
                }
                let ty = module
                    .types
                    .get(*type_idx as usize)
                    .ok_or_else(|| self.err(ValidateErrorKind::BadTypeIndex(*type_idx)))?;
                self.pop_expect(I32)?;
                self.pop_params(&ty.params)?;
                self.simple(Op::CallIndirect(*type_idx));
                if let Some(&r) = ty.results.first() {
                    self.push(r);
                }
            }
            Instr::Drop => {
                self.pop_any()?;
                self.simple(Op::Drop);
            }
            Instr::Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(ta), Some(tb)) if ta != tb => {
                        return Err(self.err(ValidateErrorKind::TypeMismatch {
                            expected: ta,
                            found: b,
                        }))
                    }
                    _ => self.vals.push(a.or(b)),
                }
                self.simple(Op::Select);
            }
            Instr::LocalGet(i) => {
                let t = self.local_ty(*i)?;
                self.op(&[], Some(t), Op::LocalGet(*i))?;
            }
            Instr::LocalSet(i) => {
                let t = self.local_ty(*i)?;
                self.op(&[t], None, Op::LocalSet(*i))?;
            }
            Instr::LocalTee(i) => {
                let t = self.local_ty(*i)?;
                self.op(&[t], Some(t), Op::LocalTee(*i))?;
            }
            Instr::GlobalGet(i) => {
                let g = self.global_ty(*i)?;
                self.op(&[], Some(g.ty), Op::GlobalGet(*i))?;
            }
            Instr::GlobalSet(i) => {
                let g = self.global_ty(*i)?;
                if g.mutability != Mutability::Var {
                    return Err(self.err(ValidateErrorKind::ImmutableGlobal(*i)));
                }
                self.op(&[g.ty], None, Op::GlobalSet(*i))?;
            }
            Instr::I32Bin(op) => self.plain(op.row(), 0, Op::I32Bin(*op))?,
            Instr::I64Bin(op) => self.plain(op.row(), 0, Op::I64Bin(*op))?,
            Instr::Bin(op) => self.plain(op.row(), 0, Op::Bin(*op))?,
            Instr::Un(op) => self.plain(op.row(), 0, Op::Un(*op))?,
            Instr::Load(kind, m) => {
                let op = Op::Load {
                    kind: *kind,
                    off: m.offset,
                };
                self.plain(kind.row(), m.align, op)?;
            }
            Instr::Store(kind, m) => {
                let op = Op::Store {
                    kind: *kind,
                    off: m.offset,
                };
                self.plain(kind.row(), m.align, op)?;
            }
            Instr::MemorySize => {
                self.check_mem()?;
                self.op(&[], Some(I32), Op::MemorySize)?;
            }
            Instr::MemoryGrow => {
                self.check_mem()?;
                self.op(&[I32], Some(I32), Op::MemoryGrow)?;
            }
            Instr::MemoryCopy => {
                self.check_mem()?;
                self.op(&[I32; 3], None, Op::MemoryCopy)?;
            }
            Instr::MemoryFill => {
                self.check_mem()?;
                self.op(&[I32; 3], None, Op::MemoryFill)?;
            }
            Instr::I32Const(v) => self.op(&[], Some(I32), Op::I32Const(*v))?,
            Instr::I64Const(v) => self.op(&[], Some(I64), Op::I64Const(*v))?,
            Instr::F32Const(v) => self.op(&[], Some(F32), Op::F32Const(*v))?,
            Instr::F64Const(v) => self.op(&[], Some(F64), Op::F64Const(*v))?,
        }
        Ok(())
    }

    /// `else`: it closes the then arm of an un-elsed `if`, whose value is
    /// checked, and the then arm's fallthrough jumps over the else arm.
    fn lower_else(&mut self) -> Result<(), ValidateError> {
        let Some(&Ctrl {
            kind: CtrlKind::If { else_br },
            ..
        }) = self.ctrls.last()
        else {
            return Err(self.err(ValidateErrorKind::ElseWithoutIf));
        };
        self.check_frame_end()?;
        let fi = self.ctrls.len() - 1;
        // The Else instruction is charged on the then-fallthrough path
        // only, like the reference interpreter which executes Else only
        // there.
        if self.reachable {
            self.count(1);
            let (h, a) = (self.ctrls[fi].height, self.ctrls[fi].ty.is_some() as u8);
            let b = self.new_branch(h, a);
            self.terminate(Op::Br(b));
            self.ctrls[fi].fixups.push(b);
        }
        let f = &mut self.ctrls[fi];
        f.unreachable = false;
        f.kind = CtrlKind::Block;
        match else_br {
            Some(else_br) => {
                // An emitted If is always reachable at entry.
                self.reachable = true;
                let lp = self.leader();
                self.branches[else_br as usize].pc = lp;
            }
            // The whole if/else sits in dead code.
            None => self.reachable = false,
        }
        Ok(())
    }

    /// `end`: the frame's value is checked and pushed on its parent.
    fn lower_end(&mut self) -> Result<(), ValidateError> {
        self.check_frame_end()?;
        let Some(f) = self.ctrls.pop() else {
            return Err(self.err(ValidateErrorKind::ControlUnderflow));
        };
        if let (CtrlKind::If { .. }, Some(_)) = (&f.kind, f.ty) {
            // The false path would yield no value.
            return Err(self.err(ValidateErrorKind::IfMissingElse));
        }
        if self.ctrls.is_empty() {
            // Function-level End: executes (and is charged) only on
            // fallthrough, then returns.
            if self.reachable {
                self.count(1);
                self.terminate(Op::Return);
            }
            self.reachable = false;
            return Ok(());
        }
        if let Some(t) = f.ty {
            self.push(t);
        }
        match f.kind {
            CtrlKind::Loop { .. } => {
                // Nothing branches forward to a loop's End; on fallthrough
                // it simply pops (and costs one instruction).
                if self.reachable {
                    self.count(1);
                }
            }
            kind => {
                let mut fixups = f.fixups;
                if let CtrlKind::If {
                    else_br: Some(else_br),
                } = kind
                {
                    // Bare if: the false edge lands at the End.
                    fixups.push(else_br);
                }
                if self.reachable || !fixups.is_empty() {
                    // The end leader is charged the End instruction and is
                    // reached by both fallthrough and every branch here —
                    // exactly the paths on which a per-instruction walk
                    // executes this End.
                    self.seal();
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    fn compile_first(m: &Module) -> CompiledFunc {
        compile_func(m, 0).expect("well-typed")
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
        // below plus the function-level End) and the activation's
        // `CALL_FUEL`, then one op per instruction.
        // Fusing them is the register lowering's job (`regalloc::tests`).
        assert_eq!(
            *cf.ops,
            [
                Op::Meter { cost: 10 },
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
        // the function-level End (charged, though it lowers to `Return`)
        // and the activation's `CALL_FUEL`.
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
        assert_eq!(total, 11);
    }

    /// The walk is the one nesting check: each way a body's `else` and
    /// `end` can fail to nest, live or in dead code, is refused by
    /// `load_module` at its function and instruction.
    #[test]
    fn nesting_faults_are_refused_at_their_pc() {
        use crate::types::BlockType::Empty;
        use crate::validate::ValidateErrorKind::{ControlUnderflow, ElseWithoutIf};
        use Instr::{Else, End, Nop, Unreachable};
        let (block, loop_, if_) = (
            Instr::Block { ty: Empty },
            Instr::Loop { ty: Empty },
            Instr::If { ty: Empty },
        );
        let one = Instr::I32Const(1);
        // (fault, whole body of function 1, failing pc, kind)
        let cases = [
            ("dangling else", vec![Else, End], 0, ElseWithoutIf),
            (
                "else in a block",
                vec![block.clone(), Else, End, End],
                1,
                ElseWithoutIf,
            ),
            (
                "else in a loop",
                vec![loop_, Else, End, End],
                1,
                ElseWithoutIf,
            ),
            (
                "dead else in a block",
                vec![Unreachable, block.clone(), Else, End, End],
                2,
                ElseWithoutIf,
            ),
            (
                "duplicate else",
                vec![one.clone(), if_.clone(), Else, Else, End, End],
                3,
                ElseWithoutIf,
            ),
            (
                "dead duplicate else",
                vec![Unreachable, one, if_, Else, Else, End, End],
                4,
                ElseWithoutIf,
            ),
            ("dangling end", vec![End, End], 1, ControlUnderflow),
            (
                "code after the final end",
                vec![End, Nop],
                1,
                ControlUnderflow,
            ),
            ("unclosed block", vec![block, End], 2, ControlUnderflow),
            ("missing final end", vec![Nop], 1, ControlUnderflow),
            ("empty body", vec![], 0, ControlUnderflow),
        ];
        for (fault, code, pc, kind) in cases {
            let mut b = ModuleBuilder::new();
            let sig = b.func_type(&[], &[]);
            for _ in 0..2 {
                b.begin_func(sig);
                b.end_func().unwrap();
            }
            let mut m = b.finish().unwrap();
            m.funcs[1].code = code;
            assert_eq!(
                crate::load_module(&crate::encode::encode_module(&m)),
                Err(crate::LoadError::Validate(ValidateError {
                    func: Some(1),
                    pc: Some(pc),
                    kind,
                })),
                "{fault}"
            );
        }
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
