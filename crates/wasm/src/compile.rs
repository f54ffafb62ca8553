//! Type-checking of function bodies, in one walk per body that hands each
//! op it produces straight on.
//!
//! The decoded [`Instr`] tree stays the source of truth for `encode` and
//! for the test oracle (a per-instruction walker, `tests/util/oracle.rs`);
//! this walk is the one reader of a body at load time, and it stores no op.
//! Each [`Op`] goes at once to an [`OpSink`]: inside the one load-time pass
//! ([`crate::analysis`]) that is the register lowering the production
//! executor runs ([`crate::regalloc`]) and the proof's recorder, which
//! keeps the per-block reference the lowering is checked against and the
//! resource bounds read.
//! The op stream stays 1:1 with the source stack machine — one op per
//! instruction, no operand fusion: every superinstruction is formed by
//! the register lowering, under the translation-validation proof. Plain
//! numeric and memory operators arrive already classified, as the
//! [`crate::ops`] payloads the decoder put in the `Instr`; the walk moves
//! each payload into its op unchanged, and the register form executes it,
//! so no stage re-derives what an operator is. The decisions that shape
//! execution *structure* are made here:
//!
//! * **Side-table branches** — every `br`/`br_if`/`br_table`/`else` and
//!   block `end` is resolved into an absolute op pc plus a precomputed
//!   unwind descriptor ([`BranchTarget`]: frame-relative stack height +
//!   result arity). The runtime label stack disappears entirely.
//! * **Basic-block metering** — fuel is charged once per basic block by
//!   the `Meter` that leads it ([`OpSink::open`]), whose cost
//!   ([`OpSink::seal`]) is the number of *source* instructions in the
//!   block (a bulk memory op's byte charge is the executor's, at the op).
//!   A function's entry block also carries its activation price,
//!   [`call_price`]: the entry block is never a branch target, so the
//!   price is paid once per call. Fuel totals are identical to
//!   per-instruction metering with that price on every complete
//!   execution; mid-block traps are the one granularity change.
//! * **One function at a time** — every `call` lowers to a call: a
//!   body's slots are its parameters and its declared locals, and nothing
//!   of another function is lowered into it. Inlining is the guest
//!   compiler's job (PlugC's `opt` pass splices its straight-line helpers).
//! * **Branch-table interning** — `br_table` targets live in the
//!   per-function side table [`compile_func`] returns (indexed `u32`),
//!   not behind a per-instruction `Box<[u32]>`.
//!
//! Each leader comes with how it is entered ([`Entry`]): by fall-through
//! only, as a join of fall-through and branches, or by branches only at
//! the height the walk knows. A loop header is opened before the walk has
//! seen its back edges, so every reachable header is a join. Each op
//! comes with its pops and pushes, so no consumer keeps an arity table.
//!
//! The walk is also the type check: the spec appendix's stack-polymorphic
//! algorithm — operand types over a control-frame stack — runs on the
//! same frames the walk resolves branches on, over dead code too (which
//! it checks and hands on nothing of). A body that breaks the type
//! system is a [`ValidateError`] at its function, instruction and kind;
//! no input makes the walk panic. It is the one check of block structure
//! too: the decoder and the builder record `block`, `loop`, `if`, `else`
//! and `end` as written, and the walk matches each `else` and `end` to
//! its frame, refusing one that closes nothing. The module-level checks
//! ([`crate::validate::validate`]) come first: the walk trusts the type,
//! function and table declarations they hold.

use crate::instance::call_price;
use crate::instr::{Instr, OpRow};
use crate::module::Module;
use crate::ops::{BinOp, I32Op, I64Op, LoadKind, StoreKind, UnOp};
use crate::types::{GlobalType, Mutability, ValType};
use crate::validate::{ValidateError, ValidateErrorKind};

/// A resolved branch destination: absolute op pc plus the unwind
/// descriptor. Taking the branch moves the top `arity` values down to
/// frame-relative `height`, truncates the stack there, and jumps to `pc`
/// (always the `Meter` leading the target basic block, except for
/// function-level targets which point at a `Return`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTarget {
    /// Destination op index; `u32::MAX` until the walk reaches it.
    pub pc: u32,
    /// Operand-stack height (relative to the frame base) the target block
    /// starts at, *excluding* the carried values.
    pub height: u32,
    /// Result values the branch carries.
    pub arity: u8,
}

/// One op of the walk's stream: a source instruction with its control
/// flow resolved. Branch-carrying ops index the function's branch side
/// table; plain numeric and memory operators are carried as the
/// [`crate::ops`] payloads the register form executes. A block's leading
/// `Meter` is not an op but the [`OpSink::open`] event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
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

/// How control reaches a block leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Only by falling through from the op before it.
    Fall,
    /// By fall-through and by branches: a loop header, or a block's end
    /// that a branch targets.
    Join,
    /// Only by branches, with `height` operands on the stack (the carried
    /// values included).
    Branch { height: u32 },
}

/// A consumer of the walk's stream. Every reachable op arrives once, in
/// flat-pc order (a `Meter`, each op and the trampoline take one pc
/// each); nothing of dead code arrives.
pub trait OpSink {
    /// A block's `Meter` at `pc` opens a block entered as `entry`; its
    /// cost follows in [`OpSink::seal`].
    fn open(&mut self, pc: u32, entry: Entry);
    /// The next op of the open block: it pops `pops` operands and pushes
    /// `pushes`. `branches` is the side table so far; an entry's `pc` may
    /// still be unresolved, its height and arity are final.
    fn op(&mut self, op: Op, pops: u32, pushes: u32, branches: &[BranchTarget]);
    /// The open block is closed, and its `Meter` costs `cost`.
    fn seal(&mut self, cost: u32);
    /// The shared function-level `Return` at `pc`, entered by branches
    /// only, at `height` (the result arity).
    fn exit(&mut self, pc: u32, height: u32);
}

/// Both consumers, in turn: the load-time pass hands the stream to the
/// register lowering and to the proof's recorder at once.
impl<A: OpSink, B: OpSink> OpSink for (A, B) {
    fn open(&mut self, pc: u32, entry: Entry) {
        self.0.open(pc, entry);
        self.1.open(pc, entry);
    }
    fn op(&mut self, op: Op, pops: u32, pushes: u32, branches: &[BranchTarget]) {
        self.0.op(op, pops, pushes, branches);
        self.1.op(op, pops, pushes, branches);
    }
    fn seal(&mut self, cost: u32) {
        self.0.seal(cost);
        self.1.seal(cost);
    }
    fn exit(&mut self, pc: u32, height: u32) {
        self.0.exit(pc, height);
        self.1.exit(pc, height);
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

struct FnCompiler<'m, S> {
    module: &'m Module,
    n_imports: u32,
    /// Module-wide index of the function walked, for errors.
    func_idx: u32,
    /// Index of the source instruction walked, for errors.
    pc: usize,
    /// Where each op goes.
    sink: &'m mut S,
    /// Flat ops (and `Meter`s) handed on so far: the next one's pc.
    n_ops: u32,
    branches: Vec<BranchTarget>,
    ctrls: Vec<Ctrl>,
    /// The operand stack's types, frame-relative; `None` is a value
    /// popped from an unreachable stack. Its height is exact for the code
    /// the walk hands on.
    vals: Vec<Option<ValType>>,
    /// The function's result.
    results: Option<ValType>,
    /// The body's parameters and its declared locals.
    params: &'m [ValType],
    locals: &'m [ValType],
    /// Whether the code walked executes; dead code is type-checked and not
    /// handed on.
    reachable: bool,
    /// Whether a metered block is currently open.
    open: bool,
    block_cost: u32,
    /// Branch indices targeting the function level, patched to the final
    /// return trampoline.
    fn_level: Vec<u32>,
}

/// Type-check one function body (index into `Module::funcs`) and hand each
/// op it executes to `sink`, in one walk. Returns the branch side table,
/// every target resolved. A body that breaks the type system is the
/// [`ValidateError`] naming its function, instruction and kind. Called
/// only by the load-time pass, whose sink lowers the ops to register form
/// and records the reference its proof checks that form against. The
/// module-level checks ([`crate::validate::validate`]) must have passed.
pub fn compile_func<S: OpSink>(
    module: &Module,
    local_idx: u32,
    sink: &mut S,
) -> Result<Box<[BranchTarget]>, ValidateError> {
    let body = &module.funcs[local_idx as usize];
    let ty = &module.types[body.type_idx as usize];
    let results = ty.results.first().copied();
    let mut c = FnCompiler {
        module,
        n_imports: module.num_imported_funcs(),
        func_idx: module.num_imported_funcs() + local_idx,
        pc: 0,
        sink,
        n_ops: 0,
        branches: Vec::new(),
        ctrls: Vec::new(),
        vals: Vec::new(),
        results,
        params: &ty.params,
        locals: &body.locals,
        reachable: true,
        open: false,
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
        let tramp = c.n_ops;
        c.sink.exit(tramp, results.is_some() as u32);
        for bi in &c.fn_level {
            c.branches[*bi as usize].pc = tramp;
        }
    }
    Ok(c.branches.into_boxed_slice())
}

impl<S: OpSink> FnCompiler<'_, S> {
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
        self.simple(op, params.len() as u32, result.is_some() as u32);
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

    // -- the stream ------------------------------------------------------

    /// Close the open block: its `Meter` cost is final.
    fn seal(&mut self) {
        if self.open {
            self.sink.seal(self.block_cost);
            self.open = false;
        }
    }

    /// Open a fresh block, entered as `entry`, at the next pc.
    fn open_block(&mut self, entry: Entry) -> u32 {
        let pc = self.n_ops;
        self.n_ops += 1;
        self.block_cost = 0;
        self.open = true;
        self.sink.open(pc, entry);
        pc
    }

    /// Charge `n` source instructions to the current block, opening one
    /// (reached by fall-through) when none is.
    fn count(&mut self, n: u32) {
        if !self.open {
            self.open_block(Entry::Fall);
        }
        self.block_cost += n;
    }

    /// Hand on `op`, which pops `pops` operands and pushes `pushes`.
    fn emit(&mut self, op: Op, pops: u32, pushes: u32) {
        self.n_ops += 1;
        self.sink.op(op, pops, pushes, &self.branches);
    }

    /// A plain op, where the code executes: count it and hand it on.
    fn simple(&mut self, op: Op, pops: u32, pushes: u32) {
        if self.reachable {
            self.count(1);
            self.emit(op, pops, pushes);
        }
    }

    /// End the reachable code: `op`, which pops `pops`, is the block's
    /// last op.
    fn terminate(&mut self, op: Op, pops: u32) {
        self.emit(op, pops, 0);
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
                    self.terminate(Op::Unreachable, 0);
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
                    header = self.open_block(Entry::Join);
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
                    self.emit(Op::BrIfZ(br), 1, 0);
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
                        self.terminate(Op::Return, 0);
                    } else {
                        let b = self.branch_index(*depth);
                        self.terminate(Op::Br(b), 0);
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
                    self.emit(Op::BrIf(br), 1, 0);
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
                    let n = targets.len() as u32;
                    self.terminate(Op::BrTable { start, n }, 1);
                }
                self.set_unreachable();
            }
            Instr::Return => {
                if let Some(t) = self.results {
                    self.pop_expect(t)?;
                }
                if self.reachable {
                    self.count(1);
                    self.terminate(Op::Return, 0);
                }
                self.set_unreachable();
            }
            Instr::Call { func } => {
                let ty = module
                    .func_type(*func)
                    .ok_or_else(|| self.err(ValidateErrorKind::BadFuncIndex(*func)))?;
                self.pop_params(&ty.params)?;
                let (pops, pushes) = (ty.params.len() as u32, ty.results.len() as u32);
                if self.reachable {
                    match func.checked_sub(self.n_imports) {
                        Some(local) => self.simple(Op::CallWasm(local), pops, pushes),
                        None => {
                            let ret = match ty.results.first() {
                                None => 0,
                                Some(ValType::I32) => 1,
                                Some(ValType::I64) => 2,
                                Some(ValType::F32) => 3,
                                Some(ValType::F64) => 4,
                            };
                            let argc = ty.params.len() as u16;
                            let op = Op::CallHost {
                                f: *func,
                                argc,
                                ret,
                            };
                            self.simple(op, pops, pushes);
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
                let (pops, pushes) = (ty.params.len() as u32 + 1, ty.results.len() as u32);
                self.simple(Op::CallIndirect(*type_idx), pops, pushes);
                if let Some(&r) = ty.results.first() {
                    self.push(r);
                }
            }
            Instr::Drop => {
                self.pop_any()?;
                self.simple(Op::Drop, 1, 0);
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
                self.simple(Op::Select, 3, 1);
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
            self.terminate(Op::Br(b), 0);
            self.ctrls[fi].fixups.push(b);
        }
        let f = &mut self.ctrls[fi];
        f.unreachable = false;
        f.kind = CtrlKind::Block;
        match else_br {
            Some(else_br) => {
                // An emitted If is always reachable at entry; its else arm
                // only by the false edge.
                self.reachable = true;
                let height = self.vals.len() as u32;
                let lp = self.open_block(Entry::Branch { height });
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
                self.terminate(Op::Return, 0);
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
                    let entry = match (self.reachable, fixups.is_empty()) {
                        (true, true) => Entry::Fall,
                        (true, false) => Entry::Join,
                        (false, _) => Entry::Branch {
                            height: self.vals.len() as u32,
                        },
                    };
                    let lp = self.open_block(entry);
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
pub(crate) mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;
    use Event::{Exit, Open, Seal};

    /// One event of the walk's stream, as a test reads it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Event {
        Open(u32, Entry),
        Op(u32, Op),
        Seal(u32),
        Exit(u32),
    }

    impl OpSink for Vec<Event> {
        fn open(&mut self, pc: u32, entry: Entry) {
            self.push(Open(pc, entry));
        }
        fn op(&mut self, op: Op, _: u32, _: u32, _: &[BranchTarget]) {
            // Every event but a seal takes one pc.
            let pc = self.iter().filter(|e| !matches!(e, Seal(_))).count();
            self.push(Event::Op(pc as u32, op));
        }
        fn seal(&mut self, cost: u32) {
            self.push(Seal(cost));
        }
        fn exit(&mut self, pc: u32, _: u32) {
            self.push(Exit(pc));
        }
    }

    /// Function 0's stream and its branch side table.
    fn walk_first(m: &Module) -> (Vec<Event>, Box<[BranchTarget]>) {
        let mut events = Vec::new();
        let branches = compile_func(m, 0, &mut events).expect("well-typed");
        (events, branches)
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code().local_get(0).i32_const(2).i32_mul();
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let (events, _) = walk_first(&m);
        // One Meter charging all four source instructions (the three
        // below plus the function-level End) and the activation's
        // `CALL_FUEL`, then one op per instruction.
        // Fusing them is the register lowering's job (`regalloc::tests`).
        assert_eq!(
            events,
            [
                Open(0, Entry::Fall),
                Event::Op(1, Op::LocalGet(0)),
                Event::Op(2, Op::I32Const(2)),
                Event::Op(3, Op::I32Bin(I32Op::Mul)),
                Event::Op(4, Op::Return),
                Seal(10),
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
        let (events, branches) = walk_first(&m);
        // The loop header is a block of its own, opened as a join: `loop`
        // plus the five condition instructions, spelled one op each and
        // ended by the exit branch. (That they run as ONE
        // compare-and-branch is pinned on the register form, in
        // `regalloc::tests`.)
        let at = events
            .iter()
            .position(|e| matches!(e, Open(_, Entry::Join)))
            .expect("loop header");
        let Open(header, _) = events[at] else {
            unreachable!()
        };
        assert!(
            matches!(
                events[at + 1..at + 7],
                [
                    Event::Op(_, Op::LocalGet(0)),
                    Event::Op(_, Op::LocalGet(1)),
                    Event::Op(_, Op::I32Bin(I32Op::LtS)),
                    Event::Op(_, Op::Un(UnOp::I32Eqz)),
                    Event::Op(_, Op::BrIf(_)),
                    Seal(6),
                ]
            ),
            "events: {events:?}"
        );
        // No label-stack ops exist; the back edge targets that Meter, and
        // the exit lands on the outer block's end, a branch-only leader.
        let back = branches
            .iter()
            .find(|bt| bt.pc == header)
            .expect("loop back edge lands on its header meter");
        assert_eq!(back.arity, 0);
        assert!(events.contains(&Open(branches[0].pc, Entry::Branch { height: 0 })));
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
        let (events, branches) = walk_first(&m);
        let (start, n) = events
            .iter()
            .find_map(|e| match e {
                Event::Op(_, Op::BrTable { start, n }) => Some((*start, *n)),
                _ => None,
            })
            .expect("br_table lowered");
        assert_eq!(n, 2);
        // Two targets + the default all resolved in the side table.
        for i in 0..=n {
            assert_ne!(branches[(start + i) as usize].pc, u32::MAX);
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
        let (events, _) = walk_first(&m);
        let total: u32 = events
            .iter()
            .map(|e| match e {
                Seal(cost) => *cost,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn conditional_exit_lands_on_the_trampoline() {
        // `br_if` to the function label lands on the shared `Return`,
        // entered by branch only, after every block.
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code().local_get(0).local_get(0).br_if(0);
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let (events, branches) = walk_first(&m);
        assert_eq!(events.last(), Some(&Exit(branches[0].pc)));
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
