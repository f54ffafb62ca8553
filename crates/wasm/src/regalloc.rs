//! Register-form lowering of the flat IR: what `ExecMode::Reg`, the one
//! production executor, runs.
//!
//! A per-function abstract-interpretation pass walks the already-lowered
//! [`CompiledFunc`] (so side-table branches, basic-block fuel metering
//! and leaf-call inlining all carry forward for free) and assigns every
//! operand-stack slot a *virtual register* in a flat, frame-indexed
//! register file:
//!
//! * registers `0 .. n_locals` are the wasm locals (local `i` *is*
//!   register `i`),
//! * the stack cell at frame height `h` is register `n_locals + h`.
//!
//! Ops become three-address form (`dst`, `lhs`, `rhs` indices into one
//! `[Value]` frame) and push/pop traffic disappears from the interpreter
//! loop. The pass additionally tracks three abstract value kinds per
//! stack cell — materialized `Abs::Slot`, lazy local alias
//! `Abs::Local` and lazy constant `Abs::Const` — so `local.get`,
//! `const` and most copies are *deleted* rather than merely cheapened.
//!
//! This is the pipeline's only fusion pass — the flat IR it reads is one
//! op per source instruction, its operators already classified into the
//! [`crate::ops`] payloads, which [`ROp`] carries on unchanged (each
//! `lower_op` arm matches the payload; nothing is re-classified). Local
//! and constant operands come from the lazy cells; a pure producer
//! followed by `local.set` is retargeted at the local (write-back);
//! constant i32 arithmetic folds; `i32.eqz` negates a just-emitted
//! compare or flips the branch it feeds; compare-and-branch fuses over
//! register operands ([`ROp::BrIfCmp`]/[`ROp::BrIfCmpC`]); address chains
//! fold into the memory access. All of it sits under the
//! translation-validation proof of [`crate::analysis`].
//!
//! Folding stops at *values*: a constant `br_if`/`br_table`/`select`
//! condition materializes like any other operand and takes the generic
//! op. Liveness is decided once, by the flat compiler (it emits no dead
//! op), so every flat op is lowered, [`RegFunc::pc_map`] is total and the
//! proof has no control decision of this pass to predict; if constant
//! control ever matters it folds there, before the proof, not here.
//!
//! Fuel accounting is unchanged: every flat [`Op::Meter`] lowers to an
//! [`ROp::Meter`] with the *same* `cost` (source-instruction count of the
//! basic block), so fuel totals and `OutOfFuel` points stay bit-identical
//! with the reference walker's. The value-stack bound is enforced against
//! the *virtual* stack height (`vbase + entry + peak`), which equals a
//! stack machine's operand-stack height plus `peak` at every meter.
//!
//! Calls pass arguments by *register-window overlap*: the callee's frame
//! base is placed exactly where the caller materialized the arguments, so
//! a wasm→wasm call copies nothing.

use crate::compile::{CompiledFunc, Op};
use crate::interp::Value;
use crate::module::Module;
use crate::ops::I32Op;
pub use crate::ops::{BinOp, I64Op, LoadKind, StoreKind, UnOp};

/// One register-form operation. All register operands (`dst`/`a`/`b`/…)
/// index the current frame's register window (`frame.base + reg`);
/// branch-carrying ops index [`RegFunc::branches`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ROp {
    /// Basic-block header: identical fuel/deadline semantics to
    /// [`Op::Meter`]; `entry` is the abstract stack height at block entry
    /// so the value-stack bound check is `vbase + entry + peak`.
    Meter {
        cost: u32,
        entry: u32,
        peak: u32,
    },
    Unreachable,
    Br(u32),
    /// Branch when `regs[cond] != 0`.
    BrIf {
        cond: u32,
        br: u32,
    },
    /// Branch when `regs[cond] == 0`.
    BrIfZ {
        cond: u32,
        br: u32,
    },
    /// Branch when `op(regs[a], regs[b])` holds (fused compare+br_if over
    /// arbitrary registers, locals included).
    BrIfCmp {
        op: I32Op,
        a: u32,
        b: u32,
        br: u32,
    },
    /// Branch when `op(regs[a], k)` holds.
    BrIfCmpC {
        op: I32Op,
        a: u32,
        k: i32,
        br: u32,
    },
    /// Take `branches[start + min(regs[sel], n)]`.
    BrTable {
        sel: u32,
        start: u32,
        n: u32,
    },
    /// Move `regs[src]` to register 0 of the frame (when `ret_arity == 1`)
    /// and pop the frame.
    Return {
        src: u32,
    },
    /// Call local function `f`; its frame starts at register `base`, where
    /// the arguments are already materialized (register-window overlap —
    /// nothing is copied).
    CallWasm {
        f: u32,
        base: u32,
    },
    /// Call imported host function `f`; `argc` args start at `base` and
    /// the result (decoded from `ret` as in [`Op::CallHost`]) lands at
    /// `base`.
    CallHost {
        f: u32,
        base: u32,
        argc: u16,
        ret: u8,
    },
    /// Indirect call through the table; the selector sits at
    /// `base + argc(ty)`, the args at `base`.
    CallIndirect {
        ty: u32,
        base: u32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    ConstI32 {
        dst: u32,
        k: i32,
    },
    /// Load a non-i32 constant from [`RegFunc::consts`].
    Const {
        dst: u32,
        idx: u32,
    },
    /// `dst` already holds the true-arm value; replace it with `regs[b]`
    /// when `regs[cond] == 0`.
    Select {
        dst: u32,
        cond: u32,
        b: u32,
    },
    GlobalGet {
        dst: u32,
        g: u32,
    },
    GlobalSet {
        g: u32,
        src: u32,
    },
    MemorySize {
        dst: u32,
    },
    MemoryGrow {
        dst: u32,
        delta: u32,
    },
    MemoryCopy {
        dst: u32,
        src: u32,
        len: u32,
    },
    MemoryFill {
        dst: u32,
        val: u32,
        len: u32,
    },
    /// `regs[dst] = op(regs[a], regs[b])` — the hot i32 path.
    I32Bin {
        op: I32Op,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = op(regs[a], k)`.
    I32BinC {
        op: I32Op,
        dst: u32,
        a: u32,
        k: i32,
    },
    /// `regs[dst] = op(regs[a], regs[b])` on i64 operands.
    I64Bin {
        op: I64Op,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Trapping/float binop.
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Unop/conversion.
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    /// `regs[dst] = load(regs[addr] + off)`.
    Load {
        kind: LoadKind,
        dst: u32,
        addr: u32,
        off: u32,
    },
    /// `store(regs[addr] + off, regs[val])`.
    Store {
        kind: StoreKind,
        addr: u32,
        val: u32,
        off: u32,
    },
    /// `regs[dst] = load((regs[a] +wrap k) + off)` — an address-compute
    /// `i32.add const` folded into the access. The i32 add wraps exactly
    /// like the standalone op did, then the static offset extends to u64,
    /// so bounds/trap behaviour is bit-identical to the two-op sequence.
    LoadAt {
        kind: LoadKind,
        dst: u32,
        a: u16,
        k: i32,
        off: u32,
    },
    /// `regs[dst] = load((regs[a] +wrap regs[b]) + off)` — the
    /// register-register address form (`base + scaled index`).
    LoadRR {
        kind: LoadKind,
        dst: u32,
        a: u16,
        b: u16,
        off: u32,
    },
    /// `store((regs[a] +wrap k) + off, regs[val])`.
    StoreAt {
        kind: StoreKind,
        a: u16,
        k: i32,
        val: u16,
        off: u32,
    },
    /// `store((regs[a] +wrap regs[b]) + off, regs[val])`.
    StoreRR {
        kind: StoreKind,
        a: u16,
        b: u16,
        val: u16,
        off: u32,
    },
    /// `regs[dst] = load((regs[a] +wrap (regs[b] <<wrap sh) +wrap k) + off)`
    /// — a whole base-index-scale-displacement address chain (up to three
    /// adds/shifts/muls) folded into the access. Every removed op was a
    /// non-trapping wrapping i32 op, so folding preserves trap order, and
    /// wrapping add/shift are associative so the sum is bit-identical.
    LoadBis {
        kind: LoadKind,
        dst: u16,
        a: u16,
        b: u16,
        sh: u8,
        k: i16,
        off: u32,
    },
    /// `store((regs[a] +wrap (regs[b] <<wrap sh) +wrap k) + off, regs[val])`.
    StoreBis {
        kind: StoreKind,
        a: u16,
        b: u16,
        sh: u8,
        k: i16,
        val: u16,
        off: u32,
    },
    /// `store((regs[a] +wrap k) + off, v)` — a constant store value folded
    /// in as raw bits (i32 value or f32 bit pattern, per `kind`), so the
    /// constant never needs a register at all.
    StoreCAt {
        kind: StoreKind,
        a: u16,
        k: i32,
        v: u32,
        off: u32,
    },
}

impl ROp {
    /// Registers-only result slot of a *pure* op — the set the lowering
    /// pass may retarget when fusing a `local.set`/`local.tee` write-back.
    fn dst_mut(&mut self) -> Option<&mut u32> {
        match self {
            ROp::I32Bin { dst, .. }
            | ROp::I32BinC { dst, .. }
            | ROp::I64Bin { dst, .. }
            | ROp::Bin { dst, .. }
            | ROp::Un { dst, .. }
            | ROp::Load { dst, .. }
            | ROp::LoadAt { dst, .. }
            | ROp::LoadRR { dst, .. }
            | ROp::GlobalGet { dst, .. }
            | ROp::MemorySize { dst } => Some(dst),
            _ => None,
        }
    }
}

/// A branch descriptor for the register tier: jump to `pc` after moving
/// the `n` carried values from registers `src..src+n` down to
/// `dst..dst+n` (`n == 0` when source and destination windows coincide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RBranch {
    pub pc: u32,
    pub src: u32,
    pub dst: u32,
    pub n: u32,
}

/// A function body lowered to register form, ready to execute.
#[derive(Debug, Clone)]
pub struct RegFunc {
    pub ops: Box<[ROp]>,
    pub branches: Box<[RBranch]>,
    /// Pool for non-i32 constants referenced by [`ROp::Const`].
    pub consts: Box<[Value]>,
    /// Zero-values for the declared (non-parameter) locals.
    pub locals_init: Box<[Value]>,
    pub argc: u32,
    pub ret_arity: u32,
    /// Locals (params + declared): registers `0..n_locals`.
    pub n_locals: u32,
    /// Total registers the frame needs (`n_locals` + max stack height).
    pub frame_size: u32,
    /// Flat-pc → register-pc map, one entry per flat op: exact at block
    /// leaders (all a branch can target), a hint inside a block (a later
    /// address-chain fusion may pull ops out from under it). Read only by
    /// translation validation; [`Module::release_proof_inputs`] empties it.
    pub pc_map: Box<[u32]>,
}

/// Abstract value of one operand-stack cell during lowering. `Slot` means
/// the value is materialized in its stack register; the other two are
/// lazy and emit *nothing* until a consumer or a control-flow merge
/// forces them into a register.
#[derive(Debug, Clone, Copy)]
enum Abs {
    Slot,
    Local(u32),
    Const(Value),
}

struct Lowerer<'m> {
    module: &'m Module,
    cf: &'m CompiledFunc,
    n_locals: u32,
    rops: Vec<ROp>,
    rbranches: Vec<RBranch>,
    consts: Vec<Value>,
    stack: Vec<Abs>,
    /// Max abstract stack height seen (drives `frame_size`).
    max_h: u32,
    /// flat pc -> register-form pc.
    pc_map: Vec<u32>,
    /// Whether the previous flat op falls through into the current one.
    /// Decides only how a branch target is entered: flush the abstract
    /// stack at a join, or rebuild it from the recorded entry height.
    reachable: bool,
    /// `(rop index, dst register)` of the last emitted op when it is pure
    /// and retargetable — fuel for write-back and compare-branch fusion.
    last_pure: Option<(usize, u32)>,
    /// Live address-expression fusion candidates (see [`Pending`]); unlike
    /// `last_pure` they survive intervening pure ops, so a store value
    /// computed between an address chain and the store still fuses, and
    /// multi-op chains (`base + idx*scale + disp`) compose across entries.
    pendings: Vec<Pending>,
}

/// Lower `module`'s local function `local_idx` from flat to register
/// form. Requires (and triggers) the flat compilation.
pub fn lower_func(module: &Module, local_idx: u32) -> RegFunc {
    let cf = module.compiled_func(local_idx);
    let n_locals = cf.argc + cf.locals_init.len() as u32;

    let entry_height = cf
        .entry_heights(local_idx)
        .expect("compiled from a validated body: the branch side table is consistent");

    let mut lw = Lowerer {
        module,
        cf,
        n_locals,
        rops: Vec::with_capacity(cf.ops.len()),
        rbranches: cf
            .branches
            .iter()
            .map(|bt| RBranch {
                pc: bt.pc,
                src: 0,
                dst: 0,
                n: 0,
            })
            .collect(),
        consts: Vec::new(),
        stack: Vec::new(),
        max_h: 0,
        pc_map: vec![0; cf.ops.len()],
        reachable: true,
        last_pure: None,
        pendings: Vec::with_capacity(PENDING_CAP),
    };

    for pc in 0..cf.ops.len() {
        lw.lower_op(pc, cf.ops[pc], &entry_height);
    }

    // Retarget the side table from flat pcs to register-form pcs.
    let mut rbranches = lw.rbranches;
    for rb in &mut rbranches {
        rb.pc = lw.pc_map[rb.pc as usize];
    }

    RegFunc {
        ops: lw.rops.into_boxed_slice(),
        branches: rbranches.into_boxed_slice(),
        consts: lw.consts.into_boxed_slice(),
        locals_init: cf.locals_init.clone(),
        argc: cf.argc,
        ret_arity: cf.ret_arity,
        n_locals,
        frame_size: n_locals + lw.max_h,
        pc_map: lw.pc_map.into_boxed_slice(),
    }
}

impl Lowerer<'_> {
    fn h(&self) -> usize {
        self.stack.len()
    }

    /// Register of stack cell `i`.
    fn slot(&self, i: usize) -> u32 {
        self.n_locals + i as u32
    }

    fn push(&mut self, a: Abs) {
        self.stack.push(a);
        self.max_h = self.max_h.max(self.stack.len() as u32);
    }

    fn emit(&mut self, op: ROp) {
        self.last_pure = None;
        self.pendings.clear();
        self.rops.push(op);
    }

    /// Expression currently held by register `r`, plus the pending entry
    /// (by index) that computes it, when one is live.
    fn resolve(&self, r: u32) -> (AddrExpr, Option<usize>) {
        match self.pendings.iter().position(|p| p.dst == r) {
            Some(i) => (self.pendings[i].expr, Some(i)),
            None => (AddrExpr::leaf(r), None),
        }
    }

    /// When `op` extends an address computation, build the composed
    /// pending entry it would create (chaining through entries its
    /// operands resolve to). `at` is the rop index `op` will occupy.
    fn addr_candidate(&self, op: &ROp, dst: u32, at: usize) -> Option<Pending> {
        let single = |expr| Pending::single(at, dst, expr);
        match *op {
            ROp::I32BinC {
                op: I32Op::Add,
                dst: d,
                a,
                k,
            } if d == dst => {
                let (ea, src) = self.resolve(a);
                let expr = AddrExpr {
                    k: ea.k.wrapping_add(k),
                    ..ea
                };
                match src {
                    Some(i) => Pending::chained(at, dst, expr, Some(&self.pendings[i]), None).or(
                        Some(single(AddrExpr {
                            k,
                            ..AddrExpr::leaf(a)
                        })),
                    ),
                    None => Some(single(expr)),
                }
            }
            ROp::I32BinC {
                op: I32Op::Mul,
                dst: d,
                a,
                k,
            } if d == dst && k > 0 => {
                let sh = (k as u32)
                    .is_power_of_two()
                    .then(|| k.trailing_zeros() as u8)?;
                let (ea, src) = self.resolve(a);
                match src.and_then(|i| Some((ea.shl(sh)?, i))) {
                    Some((expr, i)) => {
                        Pending::chained(at, dst, expr, Some(&self.pendings[i]), None)
                            .or(Some(single(AddrExpr::leaf(a).shl(sh)?)))
                    }
                    None => Some(single(AddrExpr::leaf(a).shl(sh)?)),
                }
            }
            ROp::I32BinC {
                op: I32Op::Shl,
                dst: d,
                a,
                k,
            } if d == dst && (0..32).contains(&k) => {
                let sh = k as u8;
                let (ea, src) = self.resolve(a);
                match src.and_then(|i| Some((ea.shl(sh)?, i))) {
                    Some((expr, i)) => {
                        Pending::chained(at, dst, expr, Some(&self.pendings[i]), None)
                            .or(Some(single(AddrExpr::leaf(a).shl(sh)?)))
                    }
                    None => Some(single(AddrExpr::leaf(a).shl(sh)?)),
                }
            }
            ROp::I32Bin {
                op: I32Op::Add,
                dst: d,
                a,
                b,
            } if d == dst && a != b => {
                let (ea, sa) = self.resolve(a);
                let (eb, sb) = self.resolve(b);
                let fallback = || AddrExpr::leaf(a).add(AddrExpr::leaf(b)).map(single);
                match ea.add(eb) {
                    Some(expr) => Pending::chained(
                        at,
                        dst,
                        expr,
                        sa.map(|i| &self.pendings[i]),
                        sb.map(|i| &self.pendings[i]),
                    )
                    .or_else(fallback),
                    None => fallback(),
                }
            }
            _ => None,
        }
    }

    fn emit_pure(&mut self, op: ROp, dst: u32) {
        let at = self.rops.len();
        // Compose a new address-chain candidate *before* the kill pass, so
        // entries this op consumes transfer their emitted ops into it.
        let cand = self.addr_candidate(&op, dst, at);
        // Kill every entry the op invalidates: result register overwritten,
        // a leaf operand overwritten, or its result consumed here (the
        // consumed chain either transfers into `cand` or must stay emitted).
        match pure_reads(&op) {
            Some(reads) => self
                .pendings
                .retain(|e| e.dst != dst && !e.expr.uses(dst) && !reads.contains(&e.dst)),
            None => self.pendings.clear(),
        }
        self.rops.push(op);
        self.last_pure = Some((at, dst));
        if let Some(p) = cand {
            if self.pendings.len() == PENDING_CAP {
                self.pendings.remove(0);
            }
            self.pendings.push(p);
        }
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn emit_const_to(&mut self, dst: u32, v: Value) {
        match v {
            Value::I32(k) => self.emit(ROp::ConstI32 { dst, k }),
            v => {
                let idx = self.const_idx(v);
                self.emit(ROp::Const { dst, idx });
            }
        }
    }

    /// Force stack cell `i` into its register.
    fn materialize(&mut self, i: usize) {
        match self.stack[i] {
            Abs::Slot => {}
            Abs::Local(l) => {
                let dst = self.slot(i);
                self.emit(ROp::Copy { dst, src: l });
                self.stack[i] = Abs::Slot;
            }
            Abs::Const(v) => {
                let dst = self.slot(i);
                self.emit_const_to(dst, v);
                self.stack[i] = Abs::Slot;
            }
        }
    }

    /// Flush the whole abstract stack into registers (control-flow merge
    /// discipline: branches and block entries see only materialized
    /// values).
    fn materialize_all(&mut self) {
        for i in 0..self.stack.len() {
            self.materialize(i);
        }
    }

    /// Materialize every cell aliasing local `l` *before* `l` is
    /// overwritten.
    fn invalidate_local(&mut self, l: u32) {
        for i in 0..self.stack.len() {
            if matches!(self.stack[i], Abs::Local(x) if x == l) {
                self.materialize(i);
            }
        }
    }

    /// Register holding stack cell `i` (materializes constants).
    fn operand_reg(&mut self, i: usize) -> u32 {
        match self.stack[i] {
            Abs::Slot => self.slot(i),
            Abs::Local(l) => l,
            Abs::Const(_) => {
                self.materialize(i);
                self.slot(i)
            }
        }
    }

    fn const_i32_at(&self, i: usize) -> Option<i32> {
        match self.stack[i] {
            Abs::Const(Value::I32(k)) => Some(k),
            _ => None,
        }
    }

    /// Compute the move descriptor for branch record `b` from the current
    /// (fully materialized) stack height.
    fn fill_branch(&mut self, b: u32) {
        let bt = self.cf.branches[b as usize];
        let arity = bt.arity as u32;
        let src = self.n_locals + self.stack.len() as u32 - arity;
        let dst = self.n_locals + bt.height;
        self.rbranches[b as usize] = RBranch {
            pc: bt.pc,
            src,
            dst,
            n: if src == dst { 0 } else { arity },
        };
    }

    /// Index of the just-emitted pure op whose result is the materialized
    /// top-of-stack cell — the one producer a consumer may still rewrite
    /// or absorb.
    fn top_producer(&self) -> Option<usize> {
        let top = self.stack.len().checked_sub(1)?;
        let (i, d) = self.last_pure?;
        (matches!(self.stack[top], Abs::Slot) && i + 1 == self.rops.len() && d == self.slot(top))
            .then_some(i)
    }

    /// Try to rewrite the just-emitted pure op (whose result is the
    /// top-of-stack slot) to write local `l` directly. Fails when the
    /// producer isn't the immediately preceding op or when a live stack
    /// cell still aliases `l` (the alias would observe the new value).
    fn try_writeback(&mut self, l: u32) -> bool {
        let Some(i) = self.top_producer() else {
            return false;
        };
        if self
            .stack
            .iter()
            .any(|a| matches!(a, Abs::Local(x) if *x == l))
        {
            return false;
        }
        *self.rops[i].dst_mut().expect("pure ops are retargetable") = l;
        self.last_pure = None;
        // The retargeted op may be (or may clobber) the pending
        // address add — no longer safe to fuse.
        self.pendings.clear();
        true
    }

    /// The flat i32 binop over the two top cells: folds constant
    /// operands, canonicalizes a constant to the `k` side of
    /// [`ROp::I32BinC`] (swapping when commutative) and leaves the result
    /// in a fresh stack slot — `local.set` retargets it from there
    /// ([`Lowerer::try_writeback`]).
    fn i32bin(&mut self, op: I32Op) {
        let (ia, ib) = (self.h() - 2, self.h() - 1);
        let (ka, kb) = (self.const_i32_at(ia), self.const_i32_at(ib));
        if let (Some(ka), Some(kb)) = (ka, kb) {
            self.stack.truncate(ia);
            self.push(Abs::Const(Value::I32(op.eval(ka, kb))));
            return;
        }
        let dst = self.slot(ia);
        let rop = if let Some(k) = kb {
            let a = self.operand_reg(ia);
            ROp::I32BinC { op, dst, a, k }
        } else if let (Some(k), true) = (ka, op.commutative()) {
            let a = self.operand_reg(ib);
            ROp::I32BinC { op, dst, a, k }
        } else {
            let a = self.operand_reg(ia);
            let b = self.operand_reg(ib);
            ROp::I32Bin { op, dst, a, b }
        };
        self.stack.truncate(ia);
        self.push(Abs::Slot);
        self.emit_pure(rop, dst);
    }

    /// A binop with no constant or fused form: both operands in
    /// registers, the result in the lower operand's stack slot.
    fn bin(&mut self, mk: impl FnOnce(u32, u32, u32) -> ROp) {
        let h = self.h();
        let a = self.operand_reg(h - 2);
        let b = self.operand_reg(h - 1);
        let dst = self.slot(h - 2);
        self.stack.truncate(h - 1);
        self.stack[h - 2] = Abs::Slot;
        self.emit_pure(mk(dst, a, b), dst);
    }

    /// `i32.eqz` of the just-emitted integer compare: negate the compare
    /// in place (integer compares are a total order) instead of emitting
    /// a second op.
    fn negate_top_compare(&mut self) -> bool {
        let Some(i) = self.top_producer() else {
            return false;
        };
        let (ROp::I32Bin { op, .. } | ROp::I32BinC { op, .. }) = &mut self.rops[i] else {
            return false;
        };
        op.negate().map(|n| *op = n).is_some()
    }

    /// Conditional branch on the abstract top of stack. `negate` = branch
    /// on zero. Fuses an immediately preceding i32 compare/binop into
    /// `BrIfCmp`/`BrIfCmpC`.
    fn cond_branch(&mut self, br: u32, negate: bool) {
        let top = self.stack.len() - 1;
        if let Some(i) = self.top_producer() {
            // `BrIfCmp` branches when the fused op is non-zero, so any
            // producer fuses directly; the zero-branch needs the
            // comparison's total-order dual.
            let fused = match self.rops[i] {
                ROp::I32Bin { op, a, b, .. } => {
                    let fop = if negate { op.negate() } else { Some(op) };
                    fop.map(|op| ROp::BrIfCmp { op, a, b, br })
                }
                ROp::I32BinC { op, a, k, .. } => {
                    let fop = if negate { op.negate() } else { Some(op) };
                    fop.map(|op| ROp::BrIfCmpC { op, a, k, br })
                }
                _ => None,
            };
            if let Some(rop) = fused {
                self.rops.pop();
                self.stack.pop();
                self.materialize_all();
                self.fill_branch(br);
                self.emit(rop);
                return;
            }
        }
        let cond = self.operand_reg(top);
        self.stack.pop();
        self.materialize_all();
        self.fill_branch(br);
        self.emit(if negate {
            ROp::BrIfZ { cond, br }
        } else {
            ROp::BrIf { cond, br }
        });
    }

    /// Common call shape: materialize the cells the call pops as the
    /// callee window, pop them, push the (single) result slot. Both counts
    /// come from the one arity table, [`Op::stack_effect`] — read off the
    /// signature, so lowering a caller never compiles its callees.
    fn call_window(&mut self, call: Op, mk: impl FnOnce(u32) -> ROp) {
        let (pops, pushes) = call.stack_effect(self.module);
        let lo = self.stack.len() - pops as usize;
        for i in lo..self.stack.len() {
            self.materialize(i);
        }
        let base = self.slot(lo);
        self.stack.truncate(lo);
        let rop = mk(base);
        if pushes == 1 {
            self.push(Abs::Slot);
        }
        self.emit(rop);
    }

    /// When the address in stack cell `cell` was produced by a still-live
    /// address chain (see [`Lowerer::pendings`]), remove the chain's ops
    /// from the emitted stream and return its shape so the caller can
    /// fold the whole address computation into the memory access itself
    /// (every intermediate result slot is consumed by the access, hence
    /// dead). `forbidden` names a register the caller will overwrite
    /// *before* the fused access runs (a constant store value
    /// materializing into its slot) — a chain leaf living there must not
    /// be carried across that write. `at_only` restricts the match to
    /// the register-plus-constant shape (the only one with a const-value
    /// store form); non-matching entries are left alive and unfused.
    fn take_addr(&mut self, cell: usize, forbidden: u32, at_only: bool) -> Option<AddrForm> {
        if !matches!(self.stack[cell], Abs::Slot) {
            return None;
        }
        let dst = self.slot(cell);
        let pos = self.pendings.iter().position(|p| p.dst == dst)?;
        let e = &self.pendings[pos].expr;
        if e.uses(forbidden) {
            return None;
        }
        let lim = u16::MAX as u32;
        let form = match (e.base, e.idx) {
            (Some(a), None) if a <= lim => AddrForm::At {
                a: a as u16,
                k: e.k,
            },
            _ if at_only => return None,
            (Some(a), Some((b, 0))) if e.k == 0 && a <= lim && b <= lim => AddrForm::Rr {
                a: a as u16,
                b: b as u16,
            },
            (Some(a), Some((b, sh))) if a <= lim && b <= lim => AddrForm::Bis {
                a: a as u16,
                b: b as u16,
                sh,
                k: i16::try_from(e.k).ok()?,
            },
            _ => return None,
        };
        let p = self.pendings.remove(pos);
        // Ops emitted after a removed chain op shift down; their flat pcs
        // are not branch targets (a target would have cleared the
        // candidate at the join), so the side table never sees the skew.
        let removed = &p.idxs[..p.n as usize];
        for &idx in removed.iter().rev() {
            self.rops.remove(idx as usize);
        }
        for other in &mut self.pendings {
            for j in 0..other.n as usize {
                let shift = removed.iter().filter(|&&r| r < other.idxs[j]).count();
                other.idxs[j] -= shift as u32;
            }
        }
        self.last_pure = None;
        Some(form)
    }

    /// A narrow store keeps only the low bits, so a just-emitted low-bit
    /// mask of the stored value is redundant — drop the `and` and store
    /// the unmasked register: `(x & 0xff) as u8 == x as u8`. The mask is
    /// non-trapping and its result is consumed solely by this store, so
    /// result, trap order and fuel (block meters count source ops) are
    /// all unchanged.
    fn drop_store_mask(&mut self, kind: StoreKind, h: usize) {
        let mask = match kind {
            StoreKind::I32Lo8 => 0xff,
            StoreKind::I32Lo16 => 0xffff,
            _ => return,
        };
        let Some(i) = self.top_producer() else { return };
        let d = self.slot(h - 1);
        if let ROp::I32BinC {
            op: I32Op::And,
            a,
            k,
            ..
        } = self.rops[i]
        {
            // A stack operand always lands back in its own slot (`a == d`);
            // a local operand re-points the cell at the local.
            if k == mask && (a == d || a < self.n_locals) {
                self.rops.pop();
                self.last_pure = None;
                if a != d {
                    self.stack[h - 1] = Abs::Local(a);
                }
            }
        }
    }

    /// Rebuild a taken-but-unfusable base-index-scale chain in place:
    /// `regs[dst] = regs[a] + (regs[b] << sh) + k` via plain ops (cold
    /// fallback when a packed field doesn't fit).
    fn reemit_chain(&mut self, dst: u32, a: u16, b: u16, sh: u8, k: i16) {
        self.emit(ROp::I32BinC {
            op: I32Op::Shl,
            dst,
            a: b as u32,
            k: sh as i32,
        });
        self.emit(ROp::I32Bin {
            op: I32Op::Add,
            dst,
            a: a as u32,
            b: dst,
        });
        if k != 0 {
            self.emit(ROp::I32BinC {
                op: I32Op::Add,
                dst,
                a: dst,
                k: k as i32,
            });
        }
    }

    /// Lower a flat load, folding any pending address chain into the
    /// access.
    fn lower_load(&mut self, kind: LoadKind, off: u32) {
        let top = self.h() - 1;
        let fused = self.take_addr(top, u32::MAX, false);
        let dst = self.slot(top);
        let rop = match fused {
            Some(AddrForm::At { a, k }) => ROp::LoadAt {
                kind,
                dst,
                a,
                k,
                off,
            },
            Some(AddrForm::Rr { a, b }) => ROp::LoadRR {
                kind,
                dst,
                a,
                b,
                off,
            },
            Some(AddrForm::Bis { a, b, sh, k }) => match u16::try_from(dst) {
                // `LoadBis` packs `dst` into 16 bits and is not
                // write-back-retargetable, so it goes through the impure
                // emit (a taken chain's cell is a `Slot` already).
                Ok(dst) => {
                    return self.emit(ROp::LoadBis {
                        kind,
                        dst,
                        a,
                        b,
                        sh,
                        k,
                        off,
                    })
                }
                Err(_) => {
                    self.reemit_chain(dst, a, b, sh, k);
                    ROp::Load {
                        kind,
                        dst,
                        addr: dst,
                        off,
                    }
                }
            },
            None => ROp::Load {
                kind,
                dst,
                addr: self.operand_reg(top),
                off,
            },
        };
        self.stack[top] = Abs::Slot;
        self.emit_pure(rop, dst);
    }

    /// Lower a flat store: fold a small-width constant value into the op
    /// itself when possible, and fold any pending address chain into the
    /// access.
    fn lower_store(&mut self, kind: StoreKind, off: u32) {
        let h = self.h();
        self.drop_store_mask(kind, h);
        // An i32 value or f32 bit pattern rides in the op directly — the
        // constant then never needs a register, so no pending address
        // chain is clobbered by materializing it.
        let cbits = match (self.stack[h - 1], kind) {
            (
                Abs::Const(Value::I32(v)),
                StoreKind::I32 | StoreKind::I32Lo8 | StoreKind::I32Lo16,
            ) => Some(v as u32),
            (Abs::Const(Value::F32(f)), StoreKind::F32) => Some(f.to_bits()),
            _ => None,
        };
        if let Some(v) = cbits {
            if let Some(AddrForm::At { a, k }) = self.take_addr(h - 2, u32::MAX, true) {
                self.stack.truncate(h - 2);
                self.emit(ROp::StoreCAt { kind, a, k, v, off });
                return;
            }
            let addr = self.operand_reg(h - 2);
            if let Ok(a) = u16::try_from(addr) {
                self.stack.truncate(h - 2);
                self.emit(ROp::StoreCAt {
                    kind,
                    a,
                    k: 0,
                    v,
                    off,
                });
                return;
            }
            // Address register out of packed range: take the value path.
        }
        // A constant store value materializes into `slot(h-1)` between
        // the address chain and the fused access, so a chain leaf living
        // there cannot be carried across.
        let forbidden = if matches!(self.stack[h - 1], Abs::Const(_)) {
            self.slot(h - 1)
        } else {
            u32::MAX
        };
        let fused = self.take_addr(h - 2, forbidden, false);
        let val = self.operand_reg(h - 1);
        let fits = val <= u16::MAX as u32;
        let rop = match fused {
            Some(AddrForm::At { a, k }) if fits => ROp::StoreAt {
                kind,
                a,
                k,
                val: val as u16,
                off,
            },
            Some(AddrForm::Rr { a, b }) if fits => ROp::StoreRR {
                kind,
                a,
                b,
                val: val as u16,
                off,
            },
            Some(AddrForm::Bis { a, b, sh, k }) if fits => ROp::StoreBis {
                kind,
                a,
                b,
                sh,
                k,
                val: val as u16,
                off,
            },
            // Value register out of u16 range: rebuild the peeled-off
            // address chain and fall back to the plain store.
            Some(AddrForm::At { a, k }) => {
                let addr = self.slot(h - 2);
                self.emit(ROp::I32BinC {
                    op: I32Op::Add,
                    dst: addr,
                    a: a as u32,
                    k,
                });
                ROp::Store {
                    kind,
                    addr,
                    val,
                    off,
                }
            }
            Some(AddrForm::Rr { a, b }) => {
                let addr = self.slot(h - 2);
                self.emit(ROp::I32Bin {
                    op: I32Op::Add,
                    dst: addr,
                    a: a as u32,
                    b: b as u32,
                });
                ROp::Store {
                    kind,
                    addr,
                    val,
                    off,
                }
            }
            Some(AddrForm::Bis { a, b, sh, k }) => {
                let addr = self.slot(h - 2);
                self.reemit_chain(addr, a, b, sh, k);
                ROp::Store {
                    kind,
                    addr,
                    val,
                    off,
                }
            }
            None => {
                let addr = self.operand_reg(h - 2);
                ROp::Store {
                    kind,
                    addr,
                    val,
                    off,
                }
            }
        };
        self.stack.truncate(h - 2);
        self.emit(rop);
    }
}

/// How many live address-chain candidates to track at once.
const PENDING_CAP: usize = 4;
/// Longest chain of emitted ops a single candidate may replace.
const CHAIN_CAP: usize = 4;

/// Affine address expression over leaf registers:
/// `base? +wrap (idx <<wrap sh)? +wrap k`, all i32 wrapping arithmetic —
/// the closure of add/shift/mul-by-power-of-two chains that memory
/// accesses can absorb.
#[derive(Clone, Copy)]
struct AddrExpr {
    base: Option<u32>,
    idx: Option<(u32, u8)>,
    k: i32,
}

impl AddrExpr {
    fn leaf(r: u32) -> AddrExpr {
        AddrExpr {
            base: Some(r),
            idx: None,
            k: 0,
        }
    }

    fn uses(&self, r: u32) -> bool {
        self.base == Some(r) || matches!(self.idx, Some((b, _)) if b == r)
    }

    /// Wrapping sum of two expressions, when the result still fits the
    /// base-index-scale shape (a spare base can serve as an unscaled
    /// index, and vice versa).
    fn add(self, o: AddrExpr) -> Option<AddrExpr> {
        let k = self.k.wrapping_add(o.k);
        let mut base = None;
        let mut idx = None;
        for b in [self.base, o.base].into_iter().flatten() {
            if base.is_none() {
                base = Some(b);
            } else if idx.is_none() {
                idx = Some((b, 0));
            } else {
                return None;
            }
        }
        for i in [self.idx, o.idx].into_iter().flatten() {
            if idx.is_none() {
                idx = Some(i);
            } else if base.is_none() && i.1 == 0 {
                base = Some(i.0);
            } else if base.is_none() && idx.is_some_and(|(_, s)| s == 0) {
                base = idx.map(|(r, _)| r);
                idx = Some(i);
            } else {
                return None;
            }
        }
        Some(AddrExpr { base, idx, k })
    }

    /// `(self << sh)`: distributes over the wrapping sum, but only a
    /// base-plus-constant expression stays representable (nested scaling
    /// is not).
    fn shl(self, sh: u8) -> Option<AddrExpr> {
        match (self.base, self.idx) {
            (Some(b), None) => Some(AddrExpr {
                base: None,
                idx: Some((b, sh)),
                k: self.k.wrapping_shl(sh as u32),
            }),
            _ => None,
        }
    }
}

/// The fusable shapes a consumed address chain collapses to.
#[derive(Clone, Copy)]
enum AddrForm {
    /// `regs[a] + k`
    At { a: u16, k: i32 },
    /// `regs[a] + regs[b]`
    Rr { a: u16, b: u16 },
    /// `regs[a] + (regs[b] << sh) + k`
    Bis { a: u16, b: u16, sh: u8, k: i16 },
}

/// A live address-chain candidate: `rops[idxs[..n]]` together compute
/// `dst = expr`. The candidate dies the moment any op could invalidate
/// the fusion — an impure emit, a write to a leaf register or the
/// destination, a read of the destination by an op that doesn't extend
/// the chain, a control-flow join, or a write-back retarget.
struct Pending {
    /// Emitted-op indices of the chain, ascending; all removed on fusion.
    idxs: [u32; CHAIN_CAP],
    n: u8,
    dst: u32,
    expr: AddrExpr,
}

impl Pending {
    fn single(at: usize, dst: u32, expr: AddrExpr) -> Pending {
        let mut idxs = [0u32; CHAIN_CAP];
        idxs[0] = at as u32;
        Pending {
            idxs,
            n: 1,
            dst,
            expr,
        }
    }

    /// Chain `at` onto the ops of up to two consumed source entries;
    /// fails when the combined chain outgrows [`CHAIN_CAP`].
    fn chained(
        at: usize,
        dst: u32,
        expr: AddrExpr,
        a: Option<&Pending>,
        b: Option<&Pending>,
    ) -> Option<Pending> {
        let na = a.map_or(0, |p| p.n as usize);
        let nb = b.map_or(0, |p| p.n as usize);
        if na + nb + 1 > CHAIN_CAP {
            return None;
        }
        let mut idxs = [0u32; CHAIN_CAP];
        let mut n = 0;
        for src in [a, b].into_iter().flatten() {
            idxs[n..n + src.n as usize].copy_from_slice(&src.idxs[..src.n as usize]);
            n += src.n as usize;
        }
        idxs[n] = at as u32;
        n += 1;
        idxs[..n].sort_unstable();
        Some(Pending {
            idxs,
            n: n as u8,
            dst,
            expr,
        })
    }
}

/// Register operands read by a pure op — a closed set (everything routed
/// through `emit_pure`); `None` means "unknown, assume it reads anything".
/// `u32::MAX` pads unused positions (no frame register reaches it).
fn pure_reads(op: &ROp) -> Option<[u32; 2]> {
    const NO: u32 = u32::MAX;
    Some(match *op {
        ROp::I32Bin { a, b, .. } => [a, b],
        ROp::I64Bin { a, b, .. } => [a, b],
        ROp::Bin { a, b, .. } => [a, b],
        ROp::LoadRR { a, b, .. } => [a as u32, b as u32],
        ROp::I32BinC { a, .. } | ROp::Un { a, .. } => [a, NO],
        ROp::Load { addr, .. } => [addr, NO],
        ROp::LoadAt { a, .. } => [a as u32, NO],
        ROp::GlobalGet { .. } | ROp::MemorySize { .. } => [NO, NO],
        _ => return None,
    })
}

impl Lowerer<'_> {
    /// Whether flat op `pc` is a conditional branch fed directly by an
    /// `i32.eqz` — the pair lowers as one branch of the opposite sense
    /// (branch targets are never conditional branches, so nothing can
    /// arrive between the two).
    fn follows_eqz(&self, pc: usize) -> bool {
        let ops = &self.cf.ops;
        matches!(ops.get(pc), Some(Op::BrIf(_) | Op::BrIfZ(_)))
            && matches!(ops[pc - 1], Op::Un(UnOp::I32Eqz))
    }

    fn lower_op(&mut self, pc: usize, op: Op, eh: &[u32]) {
        if !self.reachable {
            // Not fallen into, hence a branch target (the flat IR has no
            // dead op): a fully materialized stack of the recorded height.
            let e = eh[pc];
            assert_ne!(e, u32::MAX, "flat op {pc} is unreachable");
            self.stack.clear();
            self.stack.resize(e as usize, Abs::Slot);
            self.max_h = self.max_h.max(e);
            self.reachable = true;
            self.last_pure = None;
            self.pendings.clear();
        } else if eh[pc] != u32::MAX {
            // Join point reachable by both fall-through and branch: flush
            // so the abstract state matches what branch arrivals leave in
            // the registers (a branch arrival did not run the fall-through
            // ops, so nothing emitted above may be fused past this line).
            self.materialize_all();
            self.last_pure = None;
            self.pendings.clear();
            debug_assert_eq!(self.stack.len() as u32, eh[pc]);
        }
        self.pc_map[pc] = self.rops.len() as u32;

        match op {
            Op::Meter { cost, peak } => {
                let entry = self.stack.len() as u32;
                self.emit(ROp::Meter { cost, entry, peak });
            }
            Op::Unreachable => {
                self.emit(ROp::Unreachable);
                self.reachable = false;
            }
            Op::Br(b) => {
                self.materialize_all();
                self.fill_branch(b);
                self.emit(ROp::Br(b));
                self.reachable = false;
            }
            // `x; i32.eqz; br_if` is `x; br_ifz`: the eqz (below) emitted
            // nothing and the branch flips its sense instead.
            Op::BrIf(b) => self.cond_branch(b, self.follows_eqz(pc)),
            Op::BrIfZ(b) => self.cond_branch(b, !self.follows_eqz(pc)),
            Op::BrTable { start, n } => {
                let sel = self.operand_reg(self.h() - 1);
                self.stack.pop();
                self.materialize_all();
                for i in 0..=n {
                    self.fill_branch(start + i);
                }
                self.emit(ROp::BrTable { sel, start, n });
                self.reachable = false;
            }
            Op::Return => {
                let src = if self.cf.ret_arity == 1 {
                    self.operand_reg(self.h() - 1)
                } else {
                    0
                };
                self.emit(ROp::Return { src });
                self.reachable = false;
            }
            Op::CallWasm(f) => self.call_window(op, |base| ROp::CallWasm { f, base }),
            Op::CallHost { f, argc, ret } => {
                self.call_window(op, |base| ROp::CallHost { f, base, argc, ret })
            }
            // The selector rides on top of the arguments, inside the window.
            Op::CallIndirect(ty) => self.call_window(op, |base| ROp::CallIndirect { ty, base }),
            Op::Drop => {
                self.stack.pop();
            }
            Op::Select => {
                let h = self.h();
                let (ia, ib, ic) = (h - 3, h - 2, h - 1);
                self.materialize(ia);
                let b = self.operand_reg(ib);
                let cond = self.operand_reg(ic);
                let dst = self.slot(ia);
                self.stack.truncate(ib);
                self.emit(ROp::Select { dst, cond, b });
            }
            Op::LocalGet(l) => self.push(Abs::Local(l)),
            Op::LocalSet(l) => {
                let top = self.h() - 1;
                match self.stack[top] {
                    Abs::Local(src) if src == l => {
                        self.stack.pop();
                    }
                    Abs::Local(src) => {
                        self.stack.pop();
                        self.invalidate_local(l);
                        self.emit(ROp::Copy { dst: l, src });
                    }
                    Abs::Const(v) => {
                        self.stack.pop();
                        self.invalidate_local(l);
                        self.emit_const_to(l, v);
                    }
                    Abs::Slot => {
                        if self.try_writeback(l) {
                            self.stack.pop();
                        } else {
                            let src = self.slot(top);
                            self.stack.pop();
                            self.invalidate_local(l);
                            self.emit(ROp::Copy { dst: l, src });
                        }
                    }
                }
            }
            Op::LocalTee(l) => {
                let top = self.h() - 1;
                match self.stack[top] {
                    Abs::Local(src) if src == l => {}
                    Abs::Local(src) => {
                        self.invalidate_local(l);
                        self.emit(ROp::Copy { dst: l, src });
                    }
                    Abs::Const(v) => {
                        self.invalidate_local(l);
                        self.emit_const_to(l, v);
                    }
                    Abs::Slot => {
                        if self.try_writeback(l) {
                            self.stack[top] = Abs::Local(l);
                        } else {
                            let src = self.slot(top);
                            self.invalidate_local(l);
                            self.emit(ROp::Copy { dst: l, src });
                        }
                    }
                }
            }
            Op::GlobalGet(g) => {
                let dst = self.slot(self.h());
                self.push(Abs::Slot);
                self.emit_pure(ROp::GlobalGet { dst, g }, dst);
            }
            Op::GlobalSet(g) => {
                let src = self.operand_reg(self.h() - 1);
                self.stack.pop();
                self.emit(ROp::GlobalSet { g, src });
            }
            Op::I32Bin(op) => self.i32bin(op),
            Op::MemorySize => {
                let dst = self.slot(self.h());
                self.push(Abs::Slot);
                self.emit_pure(ROp::MemorySize { dst }, dst);
            }
            Op::MemoryGrow => {
                let top = self.h() - 1;
                let delta = self.operand_reg(top);
                let dst = self.slot(top);
                self.stack[top] = Abs::Slot;
                self.emit(ROp::MemoryGrow { dst, delta });
            }
            Op::MemoryCopy => {
                let h = self.h();
                let len = self.operand_reg(h - 1);
                let src = self.operand_reg(h - 2);
                let dst = self.operand_reg(h - 3);
                self.stack.truncate(h - 3);
                self.emit(ROp::MemoryCopy { dst, src, len });
            }
            Op::MemoryFill => {
                let h = self.h();
                let len = self.operand_reg(h - 1);
                let val = self.operand_reg(h - 2);
                let dst = self.operand_reg(h - 3);
                self.stack.truncate(h - 3);
                self.emit(ROp::MemoryFill { dst, val, len });
            }
            Op::I32Const(k) => self.push(Abs::Const(Value::I32(k))),
            Op::I64Const(k) => self.push(Abs::Const(Value::I64(k))),
            Op::F32Const(k) => self.push(Abs::Const(Value::F32(k))),
            Op::F64Const(k) => self.push(Abs::Const(Value::F64(k))),
            // Absorbed by the branch it feeds (above) or by the compare it
            // negates; every other `i32.eqz` is a plain unop (below).
            Op::Un(UnOp::I32Eqz) if self.follows_eqz(pc + 1) || self.negate_top_compare() => {}
            Op::Un(op) => {
                let top = self.h() - 1;
                // Fold a constant operand when the conversion can't
                // trap on this value (a trapping conversion must stay
                // at runtime, in trap order); fuel is unchanged — the
                // block meter counts source instructions.
                let folded = match self.stack[top] {
                    Abs::Const(v) => op.eval(v).ok(),
                    _ => None,
                };
                match folded {
                    Some(v) => self.stack[top] = Abs::Const(v),
                    None => {
                        let a = self.operand_reg(top);
                        let dst = self.slot(top);
                        self.stack[top] = Abs::Slot;
                        self.emit_pure(ROp::Un { op, dst, a }, dst);
                    }
                }
            }
            Op::I64Bin(op) => self.bin(|dst, a, b| ROp::I64Bin { op, dst, a, b }),
            Op::Bin(op) => self.bin(|dst, a, b| ROp::Bin { op, dst, a, b }),
            Op::Load { kind, off } => self.lower_load(kind, off),
            Op::Store { kind, off } => self.lower_store(kind, off),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    #[test]
    fn rop_enum_stays_small() {
        assert!(
            std::mem::size_of::<ROp>() <= 16,
            "ROp grew to {} bytes",
            std::mem::size_of::<ROp>()
        );
    }

    #[test]
    fn straight_line_lowers_to_three_address_form() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        b.code()
            .local_get(0)
            .i32_const(2)
            .i32_mul()
            .i32_const(1)
            .i32_add();
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let rf = lower_func(&m, 0);
        // Six source instructions (five below plus the End) in one Meter;
        // x*2+1 is two const-operand ops through the result slot, then the
        // return — no copies, no const materialization.
        #[rustfmt::skip]
        assert_eq!(
            *rf.ops,
            [
                ROp::Meter { cost: 6, entry: 0, peak: 2 },
                ROp::I32BinC { op: I32Op::Mul, dst: 1, a: 0, k: 2 },
                ROp::I32BinC { op: I32Op::Add, dst: 1, a: 1, k: 1 },
                ROp::Return { src: 1 },
            ]
        );
        assert_eq!(rf.n_locals, 1);
        assert!(rf.frame_size >= 2);
    }

    #[test]
    fn local_write_back_retargets_pure_op() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        b.begin_func(sig);
        // l0 = l0 + l1, then return l0.
        b.code()
            .local_get(0)
            .local_get(1)
            .i32_add()
            .local_set(0)
            .local_get(0);
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let rf = lower_func(&m, 0);
        // The add must write local 0 directly — no Copy in the body.
        assert!(
            !rf.ops.iter().any(|op| matches!(op, ROp::Copy { .. })),
            "ops: {:?}",
            rf.ops
        );
        assert!(
            rf.ops
                .iter()
                .any(|op| matches!(op, ROp::I32Bin { dst: 0, .. } | ROp::I32BinC { dst: 0, .. })),
            "ops: {:?}",
            rf.ops
        );
    }

    #[test]
    fn const_pool_dedupes_wide_constants() {
        let mut b = ModuleBuilder::new();
        let sig = b.func_type(&[], &[ValType::I64]);
        b.begin_func(sig);
        b.code()
            .i64_const(7)
            .drop()
            .i64_const(7)
            .drop()
            .i64_const(7);
        b.end_func().unwrap();
        let m = b.finish().expect("valid");
        let rf = lower_func(&m, 0);
        assert_eq!(rf.consts.len(), 1, "consts: {:?}", rf.consts);
    }

    /// Function 0 of a WAT module, lowered, minus block headers.
    fn lower_wat(src: &str) -> Vec<ROp> {
        let wasm = crate::wat::assemble(src).expect("assembles");
        let m = crate::load_module(&wasm).expect("valid");
        let rf = lower_func(&m, 0);
        let code = rf.ops.iter().filter(|op| !matches!(op, ROp::Meter { .. }));
        code.copied().collect()
    }

    // The flat IR is unfused, so every pattern below is fused here or
    // nowhere.

    #[test]
    fn while_loop_header_is_one_compare_and_branch() {
        // while (i < n) { i = i + 1 } as PlugC emits it. The five header
        // instructions (get, get, lt, eqz, br_if) are ONE op — the negated
        // compare over the two local registers — and the increment writes
        // its local directly: no stack register is touched anywhere.
        let ops = lower_wat(
            r#"(module (func (param i32 i32) (result i32)
                 block
                   loop
                     local.get 0  local.get 1  i32.lt_s  i32.eqz  br_if 1
                     local.get 0  i32.const 1  i32.add  local.set 0
                     br 0
                   end
                 end
                 local.get 0))"#,
        );
        #[rustfmt::skip]
        assert!(
            matches!(
                ops[..],
                [
                    ROp::BrIfCmp { op: I32Op::GeS, a: 0, b: 1, .. },
                    ROp::I32BinC { op: I32Op::Add, dst: 0, a: 0, k: 1 },
                    ROp::Br(_),
                    ROp::Return { src: 0 },
                ]
            ),
            "ops: {ops:?}"
        );
    }

    #[test]
    fn eqz_of_a_compare_negates_it_in_place() {
        // !(a < b) in value position: one `a >= b` into the local, no
        // separate eqz.
        let ops = lower_wat(
            r#"(module (func (param i32 i32) (result i32)
                 local.get 0  local.get 1  i32.lt_s  i32.eqz  local.set 0
                 local.get 0))"#,
        );
        #[rustfmt::skip]
        assert_eq!(
            ops,
            [
                ROp::I32Bin { op: I32Op::GeS, dst: 0, a: 0, b: 1 },
                ROp::Return { src: 0 },
            ]
        );
    }

    #[test]
    fn eqz_feeding_a_branch_flips_its_sense() {
        // `x; eqz; br_if` branches when the local itself is zero...
        let ops = lower_wat(
            r#"(module (func (param i32) (result i32)
                 block  local.get 0  i32.eqz  br_if 0  end
                 local.get 0))"#,
        );
        assert!(
            matches!(
                ops[..],
                [ROp::BrIfZ { cond: 0, .. }, ROp::Return { src: 0 }]
            ),
            "ops: {ops:?}"
        );
        // ...and `if (!(x & 1))` skips its body when `x & 1` is non-zero:
        // the and, the eqz and the `if` are one test-and-branch.
        let ops = lower_wat(
            r#"(module (func (param i32) (result i32)
                 local.get 0  i32.const 1  i32.and  i32.eqz
                 if  i32.const 7  local.set 0  end
                 local.get 0))"#,
        );
        #[rustfmt::skip]
        assert!(
            matches!(
                ops[..],
                [
                    ROp::BrIfCmpC { op: I32Op::And, a: 0, k: 1, .. },
                    ROp::ConstI32 { dst: 0, k: 7 },
                    ROp::Return { src: 0 },
                ]
            ),
            "ops: {ops:?}"
        );
    }

    #[test]
    fn constants_and_loads_land_in_the_local() {
        // `i32.const; local.set` is one ConstI32 into the local, and
        // `local.get; i32.load; local.set` one Load from and into locals.
        let ops = lower_wat(
            r#"(module (memory 1) (func (param i32) (result i32) (local i32)
                 i32.const 5  local.set 1
                 local.get 0  i32.load offset=8  local.set 1
                 local.get 1))"#,
        );
        #[rustfmt::skip]
        assert_eq!(
            ops,
            [
                ROp::ConstI32 { dst: 1, k: 5 },
                ROp::Load { kind: LoadKind::I32, dst: 1, addr: 0, off: 8 },
                ROp::Return { src: 1 },
            ]
        );
    }

    #[test]
    fn write_back_respects_a_live_alias_of_the_destination() {
        // The stack still holds the *old* local 0 when `a + b` is stored
        // over it: the alias must be copied out first, so the add cannot
        // simply be retargeted. old - new == -b.
        let src = r#"(module (func (export "f") (param i32 i32) (result i32)
             local.get 0
             local.get 0  local.get 1  i32.add  local.set 0
             local.get 0
             i32.sub))"#;
        let ops = lower_wat(src);
        #[rustfmt::skip]
        assert_eq!(
            ops,
            [
                ROp::I32Bin { op: I32Op::Add, dst: 3, a: 0, b: 1 },
                ROp::Copy { dst: 2, src: 0 },
                ROp::Copy { dst: 0, src: 3 },
                ROp::I32Bin { op: I32Op::Sub, dst: 2, a: 2, b: 0 },
                ROp::Return { src: 2 },
            ]
        );
        let wasm = crate::wat::assemble(src).expect("assembles");
        let run = |mode| {
            let module = crate::load_module(&wasm).expect("valid");
            let mut inst = crate::Instance::new(module.into(), &crate::Linker::<()>::new(), ())
                .expect("instantiates");
            inst.set_exec_mode(mode);
            inst.invoke("f", &[Value::I32(40), Value::I32(2)])
        };
        use crate::instance::ExecMode;
        assert_eq!(run(ExecMode::Reg), Ok(Some(Value::I32(-2))));
        assert_eq!(run(ExecMode::Reg), run(ExecMode::Reference));
    }
}
