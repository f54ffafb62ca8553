//! Seeded generator of valid-by-construction raw Wasm modules, and one
//! type-breaking mutation per module. Include with
//! `#[path = "util/wasm_gen.rs"] mod wasm_gen;` next to
//! `#[path = "util/gen.rs"] mod gen;`, whose `Rng` it draws from.
//!
//! The PlugC corpus (`gen.rs`) reaches the VM only through what PlugC
//! emits: i32 data flow, `block`/`loop`/`if` without results, no
//! `br_table`, `select`, `call_indirect` or dead code. This generator
//! writes Wasm directly, through `ModuleBuilder`, and types every value it
//! emits, so each module is valid by construction:
//!
//! * control: nested `block`/`loop`/`if` with results, `br_if` carrying a
//!   value, `br_table` over empty and value-carrying labels, branches out
//!   of several levels (the function label included), dead code after
//!   `br`, `return` and `unreachable` (stack-polymorphic operators
//!   included), counter-bounded loops (some entered over a local's
//!   value still on the stack, which the loop then changes), branch
//!   conditions that end in `i32.eqz`;
//! * values and state: all four value types, every plain operator of
//!   `instr::OP_TABLE` (its row gives the operand and result types and
//!   the `CodeEmitter` method that emits it), `select`, mutable and
//!   immutable globals, loads and stores at every width, `memory.grow`,
//!   `memory.fill` and `memory.copy`;
//! * calls: direct calls, `call_indirect` through the table, and
//!   straight-line leaves of 40 to 80 units (body instructions plus
//!   declared locals), some calling a later leaf, some ending in an
//!   explicit `return`.
//!
//! Every program terminates: a call goes only to a higher function index
//! (directly or through the table), and a loop's only back edge is its
//! counter test — no branch targets a loop label otherwise, and only the
//! loop itself writes its counter local.
//!
//! [`mutate`] breaks one generated module in one of [`CLASSES`] ways —
//! its types or its block nesting — each with the function, instruction
//! and [`ValidateErrorKind`] the type check must report.

use waran_wasm::builder::{CodeEmitter, ModuleBuilder};
use waran_wasm::encode::encode_module;
use waran_wasm::instr::{Instr, MemArg, OpRow, OP_TABLE};
use waran_wasm::module::{ConstExpr, Module};
use waran_wasm::types::{BlockType, Mutability, ValType};
use waran_wasm::validate::ValidateErrorKind;

use super::gen::Rng;

use ValType::{F32, F64, I32, I64};

/// The value types; `main` takes one of each, in this order.
const TYPES: [ValType; 4] = [I32, I64, F32, F64];

/// Globals 0..4 are mutable, one per value type in [`TYPES`] order; these
/// two are immutable.
const IMMUTABLE_I32: u32 = 4;
const IMMUTABLE_F64: u32 = 5;

/// Loop counters per function: loops nest at most this deep.
const MAX_LOOPS: usize = 2;

fn type_index(ty: ValType) -> usize {
    TYPES.iter().position(|&t| t == ty).unwrap()
}

/// Integer and float division, remainder and truncation: operators that
/// trap on some operands, drawn less often so most calls complete.
fn traps(row: &OpRow) -> bool {
    let n = row.name;
    (n.starts_with('i') && (n.contains("_div_") || n.contains("_rem_")))
        || (n.contains("_trunc_f") && !n.contains("_sat_"))
}

/// The operator table, sorted by what the generator needs.
struct Ops {
    /// Non-memory operators by result type.
    pure: [Vec<&'static OpRow>; 4],
    /// Loads by result type.
    loads: [Vec<&'static OpRow>; 4],
    /// Stores (address, value).
    stores: Vec<&'static OpRow>,
}

impl Ops {
    fn new() -> Self {
        let mut ops = Ops {
            pure: Default::default(),
            loads: Default::default(),
            stores: Vec::new(),
        };
        for &row in OP_TABLE {
            match (row.width, row.result) {
                (None, Some(r)) => ops.pure[type_index(r)].push(row),
                (Some(_), Some(r)) => ops.loads[type_index(r)].push(row),
                (Some(_), None) => ops.stores.push(row),
                (None, None) => unreachable!("{}: a pure operator with no result", row.name),
            }
        }
        ops
    }
}

/// One function's signature and shape.
struct Plan {
    params: Vec<ValType>,
    result: Option<ValType>,
    type_idx: u32,
    /// Straight-line: no control flow, no `call_indirect`; calls only a
    /// later leaf.
    leaf: bool,
}

/// A generated module and the shape of its functions.
pub struct Generated {
    pub module: Module,
    /// Per function (no imports, so module-wide index = position): true
    /// for a straight-line leaf.
    pub leaves: Vec<bool>,
}

struct Label {
    ty: Option<ValType>,
    is_loop: bool,
}

/// The generator of one function body.
struct Body<'a> {
    rng: &'a mut Rng,
    ops: &'a Ops,
    plans: &'a [Plan],
    func: usize,
    code: &'a mut CodeEmitter,
    /// Instructions emitted so far.
    len: usize,
    /// Every local's type: parameters, then declared locals.
    locals: Vec<ValType>,
    /// Loop counter locals, written only by their loop.
    counters: Vec<u32>,
    labels: Vec<Label>,
    loops: usize,
}

impl Body<'_> {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.below(from.len() as u64) as usize]
    }

    /// Emit one instruction.
    fn emit(&mut self, f: impl FnOnce(&mut CodeEmitter) -> &mut CodeEmitter) {
        f(self.code);
        self.len += 1;
    }

    fn leaf(&self) -> bool {
        self.plans[self.func].leaf
    }

    fn int(&mut self) -> i64 {
        match self.rng.below(8) {
            0 => self.pick(&[0, 1, -1, i64::from(i32::MIN), i64::from(i32::MAX)]),
            1 => self.rng.next() as i64,
            _ => self.rng.below(72) as i64 - 8,
        }
    }

    fn float(&mut self) -> f64 {
        match self.rng.below(3) {
            0 => self.pick(&[
                0.0,
                -0.0,
                1.0,
                -1.5,
                0.5,
                2147483648.0,
                -2147483904.0,
                1e10,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]),
            1 => {
                let f = f64::from_bits(self.rng.next());
                if f.is_nan() {
                    3.25
                } else {
                    f
                }
            }
            _ => self.rng.below(200) as f64 / 4.0 - 10.0,
        }
    }

    fn konst(&mut self, ty: ValType) {
        match ty {
            I32 => {
                let v = self.int() as i32;
                self.emit(|c| c.i32_const(v))
            }
            I64 => {
                let v = self.int();
                self.emit(|c| c.i64_const(v))
            }
            F32 => {
                let v = self.float() as f32;
                self.emit(|c| c.f32_const(v))
            }
            F64 => {
                let v = self.float();
                self.emit(|c| c.f64_const(v))
            }
        }
    }

    /// A local of `ty`, if any; `assign` leaves out the loop counters.
    fn local(&mut self, ty: ValType, assign: bool) -> Option<u32> {
        let found: Vec<u32> = (0..self.locals.len() as u32)
            .filter(|&l| self.locals[l as usize] == ty && !(assign && self.counters.contains(&l)))
            .collect();
        (!found.is_empty()).then(|| self.pick(&found))
    }

    /// A constant, a local or a global of `ty`.
    fn atom(&mut self, ty: ValType) {
        match self.rng.below(3) {
            0 => {
                if let Some(l) = self.local(ty, false) {
                    return self.emit(|c| c.local_get(l));
                }
            }
            1 => {
                let g = match ty {
                    I32 if self.rng.below(2) == 0 => IMMUTABLE_I32,
                    F64 if self.rng.below(2) == 0 => IMMUTABLE_F64,
                    _ => type_index(ty) as u32,
                };
                return self.emit(|c| c.global_get(g));
            }
            _ => {}
        }
        self.konst(ty)
    }

    /// A branch condition: one time in three the `i32.eqz` of one, which
    /// the lowering fuses into the `br_if` or `if` that takes it by
    /// flipping the branch's sense.
    fn cond(&mut self, depth: u32) {
        self.expr(I32, depth);
        if self.rng.below(3) == 0 {
            self.emit(|c| c.i32_eqz());
        }
    }

    /// A plain operator from `rows`, trapping ones drawn one time in six.
    fn row(&mut self, rows: &[&'static OpRow]) -> &'static OpRow {
        loop {
            let row = self.pick(rows);
            if !traps(row) || self.rng.below(6) == 0 {
                return row;
            }
        }
    }

    /// An address: mostly masked into the first 4 KiB, sometimes raw (and
    /// likely out of bounds).
    fn addr(&mut self, depth: u32) {
        self.expr(I32, depth);
        if self.rng.below(8) != 0 {
            self.emit(|c| c.i32_const(0xff8));
            self.emit(|c| c.i32_and());
        }
    }

    /// Code that pushes exactly one value of `ty`.
    fn expr(&mut self, ty: ValType, depth: u32) {
        if depth == 0 {
            return self.atom(ty);
        }
        let d = depth - 1;
        let forms = if self.leaf() { 9 } else { 16 };
        match self.rng.below(forms) {
            0 => self.atom(ty),
            1..=3 => {
                let ops = self.ops;
                let row = self.row(&ops.pure[type_index(ty)]);
                for &p in row.params {
                    self.expr(p, d);
                }
                self.emit(|c| (row.emit)(c, 0));
            }
            4 => {
                let ops = self.ops;
                let row = self.row(&ops.loads[type_index(ty)]);
                self.addr(d);
                let offset = self.rng.below(17) as u32;
                self.emit(|c| (row.emit)(c, offset));
            }
            5 => {
                self.expr(ty, d);
                self.expr(ty, d);
                self.expr(I32, d);
                self.emit(|c| c.select());
            }
            6 => self.call(Some(ty), d, false),
            7 => match self.local(ty, true) {
                Some(l) => {
                    self.expr(ty, d);
                    self.emit(|c| c.local_tee(l));
                }
                None => self.atom(ty),
            },
            8 if ty == I32 => {
                if self.rng.below(2) == 0 {
                    self.emit(|c| c.memory_size());
                } else {
                    let pages = self.rng.below(3) as i32;
                    self.emit(|c| c.i32_const(pages));
                    self.emit(|c| c.memory_grow());
                }
            }
            8 => self.atom(ty),
            9 => {
                // A block yielding its value, maybe early through `br_if`.
                self.open(|c| c.block(BlockType::Value(ty)), Some(ty), false);
                self.expr(ty, d);
                if self.rng.below(2) == 0 {
                    self.cond(d);
                    self.emit(|c| c.br_if(0));
                    self.emit(|c| c.drop());
                    self.expr(ty, d);
                }
                self.close();
            }
            10 => {
                self.cond(d);
                self.open(|c| c.if_(BlockType::Value(ty)), Some(ty), false);
                self.expr(ty, d);
                self.emit(|c| c.else_());
                self.expr(ty, d);
                self.close();
            }
            11 => {
                // A block left by a branch, to itself or further out, with
                // dead code behind it.
                self.open(|c| c.block(BlockType::Value(ty)), Some(ty), false);
                if self.rng.below(2) == 0 {
                    self.expr(ty, d);
                    self.emit(|c| c.br(0));
                } else {
                    self.branch_out(d);
                }
                self.dead();
                self.close();
            }
            12 => self.br_table(ty, d),
            13 => {
                let held = (ty == I32 && self.loops < MAX_LOOPS && self.rng.below(2) == 0)
                    .then(|| self.local(I32, true))
                    .flatten();
                match held {
                    // A local's value held across a loop that bumps the
                    // local and branches back: the header must flush it.
                    Some(l) => {
                        self.emit(|c| c.local_get(l));
                        self.counted_loop(depth, Some(l));
                    }
                    None => {
                        self.open(|c| c.loop_(BlockType::Value(ty)), Some(ty), true);
                        self.expr(ty, d);
                        self.close();
                    }
                }
            }
            14 => self.call(Some(ty), d, true),
            _ => {
                // A statement first, then the value.
                self.stmt(d);
                self.expr(ty, d);
            }
        }
    }

    fn open(
        &mut self,
        f: impl FnOnce(&mut CodeEmitter) -> &mut CodeEmitter,
        ty: Option<ValType>,
        is_loop: bool,
    ) {
        self.emit(f);
        self.labels.push(Label { ty, is_loop });
    }

    fn close(&mut self) {
        self.emit(|c| c.end());
        self.labels.pop();
    }

    /// `br` to a random enclosing non-loop label (the function label is
    /// a return), carrying its value.
    fn branch_out(&mut self, depth: u32) {
        let d = self.target();
        if let Some(ty) = self.labels[self.labels.len() - 1 - d as usize].ty {
            self.expr(ty, depth);
        }
        self.emit(|c| c.br(d));
    }

    /// The depth of a random enclosing non-loop label.
    fn target(&mut self) -> u32 {
        let n = self.labels.len();
        let depths: Vec<u32> = (0..n as u32)
            .filter(|&d| !self.labels[n - 1 - d as usize].is_loop)
            .collect();
        self.pick(&depths)
    }

    /// Dead code: statements, and operators whose operands the
    /// unreachable stack supplies.
    fn dead(&mut self) {
        for _ in 0..self.rng.below(3) {
            match self.rng.below(3) {
                0 => self.stmt(0),
                1 => {
                    let (ty, ops) = (self.pick(&TYPES), self.ops);
                    let row = self.pick(&ops.pure[type_index(ty)]);
                    self.emit(|c| (row.emit)(c, 0));
                    self.emit(|c| c.drop());
                }
                _ => {
                    self.open(|c| c.block(BlockType::Empty), None, false);
                    self.stmt(0);
                    self.close();
                }
            }
        }
    }

    /// `br_table` over three empty labels, each of which then yields the
    /// value out of the outer block, or over two labels carrying it.
    fn br_table(&mut self, ty: ValType, d: u32) {
        self.open(|c| c.block(BlockType::Value(ty)), Some(ty), false);
        let n = 1 + self.rng.below(4) as usize;
        if self.rng.below(2) == 0 {
            for _ in 0..3 {
                self.open(|c| c.block(BlockType::Empty), None, false);
            }
            self.selector(d);
            let targets: Vec<u32> = (0..n).map(|_| self.rng.below(3) as u32).collect();
            let default = self.rng.below(3) as u32;
            self.emit(|c| c.br_table(&targets, default));
            self.dead();
            for out in (1..=3).rev() {
                self.close();
                self.expr(ty, d);
                if out > 1 {
                    self.emit(|c| c.br(out - 1));
                }
            }
        } else {
            self.open(|c| c.block(BlockType::Value(ty)), Some(ty), false);
            self.expr(ty, d);
            self.selector(d);
            let targets: Vec<u32> = (0..n).map(|_| self.rng.below(2) as u32).collect();
            let default = self.rng.below(2) as u32;
            self.emit(|c| c.br_table(&targets, default));
            self.dead();
            self.close();
        }
        self.close();
    }

    /// A `br_table` selector: small most of the time.
    fn selector(&mut self, d: u32) {
        self.expr(I32, d);
        if self.rng.below(4) != 0 {
            self.emit(|c| c.i32_const(3));
            self.emit(|c| c.i32_and());
        }
    }

    /// A call of a later function returning `result` (any function when
    /// `result` is `None`, its value dropped), direct or through the table.
    /// A leaf calls only later leaves, and never indirectly.
    fn call(&mut self, result: Option<ValType>, d: u32, indirect: bool) {
        let leaf = self.leaf();
        let callees: Vec<usize> = (self.func + 1..self.plans.len())
            .filter(|&f| result.is_none() || self.plans[f].result == result)
            .filter(|&f| !leaf || self.plans[f].leaf)
            .collect();
        if callees.is_empty() {
            if let Some(ty) = result {
                self.atom(ty);
            }
            return;
        }
        let f = self.pick(&callees);
        let plans = self.plans;
        for &p in &plans[f].params {
            self.expr(p, d);
        }
        if indirect && !leaf {
            // Slot `f - 1` holds function `f`; a slot past the table traps.
            let slot = if self.rng.below(8) == 0 {
                plans.len() as i32 - 1 + self.rng.below(3) as i32
            } else {
                f as i32 - 1
            };
            self.emit(|c| c.i32_const(slot));
            self.emit(|c| c.call_indirect(plans[f].type_idx));
        } else {
            self.emit(|c| c.call(f as u32));
        }
        if result.is_none() && plans[f].result.is_some() {
            self.emit(|c| c.drop());
        }
    }

    /// A stack-neutral statement.
    fn stmt(&mut self, depth: u32) {
        let forms = if self.leaf() { 7 } else { 14 };
        match self.rng.below(forms) {
            0 => {
                let ty = self.pick(&TYPES);
                match self.local(ty, true) {
                    Some(l) => {
                        self.expr(ty, 2);
                        self.emit(|c| c.local_set(l));
                    }
                    None => self.emit(|c| c.nop()),
                }
            }
            1 => {
                let ty = self.pick(&TYPES);
                self.expr(ty, 2);
                let g = type_index(ty) as u32;
                self.emit(|c| c.global_set(g));
            }
            2 => {
                let ops = self.ops;
                let row = self.pick(&ops.stores);
                self.addr(1);
                self.expr(row.params[1], 2);
                let offset = self.rng.below(17) as u32;
                self.emit(|c| (row.emit)(c, offset));
            }
            3 => {
                let ty = self.pick(&TYPES);
                self.expr(ty, 2);
                self.emit(|c| c.drop());
            }
            4 => {
                let pages = self.rng.below(3) as i32;
                self.emit(|c| c.i32_const(pages));
                self.emit(|c| c.memory_grow());
                self.emit(|c| c.drop());
            }
            5 => self.call(None, 1, false),
            6 => {
                // memory.fill (dst, byte, len) or memory.copy (dst, src, len).
                self.addr(1);
                let fill = self.rng.below(2) == 0;
                if fill {
                    self.expr(I32, 1);
                } else {
                    self.addr(1);
                }
                let len = self.rng.below(65) as i32;
                self.emit(|c| c.i32_const(len));
                self.emit(|c| {
                    if fill {
                        c.memory_fill()
                    } else {
                        c.memory_copy()
                    }
                });
            }
            7 if depth > 0 => {
                self.cond(2);
                self.open(|c| c.if_(BlockType::Empty), None, false);
                self.stmts(depth - 1);
                if self.rng.below(2) == 0 {
                    self.emit(|c| c.else_());
                    self.stmts(depth - 1);
                }
                self.close();
            }
            8 if depth > 0 => {
                // A block with a conditional break out of one or more
                // levels, carrying the target's value.
                self.open(|c| c.block(BlockType::Empty), None, false);
                self.stmts(depth - 1);
                let d = self.target();
                let ty = self.labels[self.labels.len() - 1 - d as usize].ty;
                if let Some(ty) = ty {
                    self.expr(ty, 1);
                }
                self.cond(2);
                self.emit(|c| c.br_if(d));
                if ty.is_some() {
                    self.emit(|c| c.drop());
                }
                self.stmts(depth - 1);
                self.close();
            }
            9 if depth > 0 && self.loops < MAX_LOOPS => self.counted_loop(depth, None),
            10 => {
                // A conditional early return with dead code behind it.
                self.cond(2);
                self.open(|c| c.if_(BlockType::Empty), None, false);
                if let Some(ty) = self.plans[self.func].result {
                    self.expr(ty, 1);
                }
                self.emit(|c| c.return_());
                self.dead();
                self.close();
            }
            11 => {
                // A rarely taken `unreachable`.
                self.expr(I32, 1);
                self.emit(|c| c.i32_const(7));
                self.emit(|c| c.i32_eq());
                self.open(|c| c.if_(BlockType::Empty), None, false);
                self.emit(|c| c.unreachable());
                self.dead();
                self.close();
            }
            12 => self.call(None, 1, true),
            _ => self.emit(|c| c.nop()),
        }
    }

    fn stmts(&mut self, depth: u32) {
        for _ in 0..1 + self.rng.below(3) {
            self.stmt(depth);
        }
    }

    /// `for (c = 0; c < n; c++) { body }` as `block { loop { body; c++;
    /// br_if (c < n) } }`: the body may break out, never continue. With
    /// `bump`, the body ends by adding one to that i32 local.
    fn counted_loop(&mut self, depth: u32, bump: Option<u32>) {
        let c = self.counters[self.loops];
        self.loops += 1;
        let n = 1 + self.rng.below(4) as i32;
        self.emit(|e| e.i32_const(0));
        self.emit(|e| e.local_set(c));
        self.open(|e| e.block(BlockType::Empty), None, false);
        self.open(|e| e.loop_(BlockType::Empty), None, true);
        self.stmts(depth - 1);
        if let Some(l) = bump {
            self.emit(|e| e.local_get(l));
            self.emit(|e| e.i32_const(1));
            self.emit(|e| e.i32_add());
            self.emit(|e| e.local_set(l));
        }
        self.emit(|e| e.local_get(c));
        self.emit(|e| e.i32_const(1));
        self.emit(|e| e.i32_add());
        self.emit(|e| e.local_tee(c));
        self.emit(|e| e.i32_const(n));
        self.emit(|e| e.i32_lt_u());
        self.emit(|e| e.br_if(0));
        self.close();
        self.close();
        self.loops -= 1;
    }
}

/// One module per seed: `main` (function 0, exported, parameters
/// [`TYPES`]), one to three functions with control flow, then one
/// to three straight-line leaves; every function but `main` sits in the
/// table at slot `index - 1`.
pub fn gen_module(seed: u64) -> Generated {
    let rng = &mut Rng::new(seed);
    let ops = Ops::new();
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(3));
    mb.data(64, &seed.to_le_bytes());
    for (i, ty) in TYPES.into_iter().enumerate() {
        let init = [
            ConstExpr::I32(seed as i32),
            ConstExpr::I64(-(seed as i64)),
            ConstExpr::F32(0.5),
            ConstExpr::F64(-2.5),
        ][i];
        mb.global(ty, Mutability::Var, init);
    }
    mb.global(I32, Mutability::Const, ConstExpr::I32(0x55));
    mb.global(F64, Mutability::Const, ConstExpr::F64(1e-3));

    let inner = 1 + rng.below(3) as usize;
    let leaves = 1 + rng.below(3) as usize;
    let mut plans = Vec::new();
    for f in 0..1 + inner + leaves {
        let (params, result) = if f == 0 {
            (TYPES.to_vec(), Some(TYPES[rng.below(4) as usize]))
        } else {
            let params = (0..rng.below(4))
                .map(|_| TYPES[rng.below(4) as usize])
                .collect();
            let result = (rng.below(4) != 0).then(|| TYPES[rng.below(4) as usize]);
            (params, result)
        };
        let type_idx = mb.func_type(&params, result.as_slice());
        plans.push(Plan {
            params,
            result,
            type_idx,
            leaf: f > inner,
        });
    }
    let n = plans.len() as u32;
    mb.table(n - 1, Some(n - 1));
    mb.elem(0, &(1..n).collect::<Vec<_>>());

    for (f, plan) in plans.iter().enumerate() {
        mb.begin_func(plan.type_idx);
        let mut locals = plan.params.clone();
        let mut counters = Vec::new();
        if !plan.leaf {
            for _ in 0..MAX_LOOPS {
                counters.push(mb.local(I32));
                locals.push(I32);
            }
        }
        for _ in 0..rng.below(if plan.leaf { 9 } else { 5 }) {
            let ty = TYPES[rng.below(4) as usize];
            mb.local(ty);
            locals.push(ty);
        }
        let declared = locals.len() - plan.params.len();
        let mut body = Body {
            rng,
            ops: &ops,
            plans: &plans,
            func: f,
            code: mb.code(),
            len: 0,
            locals,
            counters,
            labels: vec![Label {
                ty: plan.result,
                is_loop: false,
            }],
            loops: 0,
        };
        if plan.leaf {
            // Straight-line statements up to 40 to 80 units
            // (instructions, the final `end` included, plus declared
            // locals).
            let units = 40 + body.rng.below(40) as usize;
            while body.len + declared + 8 < units {
                body.stmt(0);
            }
        } else {
            for _ in 0..2 + body.rng.below(4) {
                body.stmt(if f == 0 { 3 } else { 2 });
            }
        }
        if let Some(ty) = plan.result {
            body.expr(ty, 2);
        }
        if body.rng.below(4) == 0 {
            body.emit(|c| c.return_());
        }
        mb.end_func().expect("generated control nests");
    }
    mb.export_func("main", 0);
    Generated {
        module: mb.finish().expect("generated module builds"),
        leaves: plans.iter().map(|p| p.leaf).collect(),
    }
}

/// The number of mutation classes [`mutate`] knows.
pub const CLASSES: usize = 17;

/// A generated module broken in one place, and what loading it must
/// report.
pub struct Mutant {
    pub class: &'static str,
    pub bytes: Vec<u8>,
    /// The module-wide index of the function the type check fails in.
    pub func: u32,
    /// The instruction it fails at.
    pub pc: usize,
    /// The kind it reports; a `StackHeightMismatch` is matched on one
    /// value too many, whatever the height.
    pub kind: ValidateErrorKind,
}

fn op(name: &str) -> Instr {
    Instr::named(name).unwrap_or_else(|| panic!("{name}: not in the operator table"))
}

fn block(ty: BlockType) -> Instr {
    Instr::Block { ty }
}

/// Break `g` with mutation `class` (below [`CLASSES`]). The broken code is
/// inserted as a whole: wrapped in a fresh `block` (so it fails whether
/// the insertion point is reachable or not) at a random instruction
/// boundary of a random function — or, for a straight-line snippet aimed
/// at a leaf, unwrapped at the leaf's first instruction, so the leaf
/// stays straight-line and fails at its first instruction. The
/// memory and table classes take the module's memory (and data) or table
/// (and elements) away and use it first thing in `main`. The stray-`end`
/// class appends its `end` after the function's final one, the one place
/// an extra `end` closes nothing whatever the body holds.
pub fn mutate(g: &Generated, class: usize, rng: &mut Rng) -> Mutant {
    use ValidateErrorKind as K;
    let mut module = g.module.clone();
    let mut func = rng.below(module.funcs.len() as u64) as usize;
    let load = |align| {
        let mut load = op("i32_load");
        if let Instr::Load(_, m) = &mut load {
            *m = MemArg { align, offset: 0 };
        }
        load
    };
    // (name, snippet, offset of the failing instruction, kind, whether the
    // snippet is straight-line and needs no wrapper at a body's start)
    let (class, snippet, at, kind, plain): (_, Vec<Instr>, usize, _, bool) = match class {
        0 => (
            "i64 operand to an i32 operator",
            vec![Instr::I64Const(0), op("i32_eqz"), Instr::Drop],
            1,
            K::TypeMismatch {
                expected: I32,
                found: Some(I64),
            },
            true,
        ),
        1 => (
            "drop on an empty stack",
            vec![Instr::Drop],
            0,
            K::StackUnderflow,
            true,
        ),
        2 => (
            "local past the frame",
            vec![Instr::LocalGet(999), Instr::Drop],
            0,
            K::BadLocalIndex(999),
            true,
        ),
        3 => (
            "global past the module",
            vec![Instr::GlobalGet(999), Instr::Drop],
            0,
            K::BadGlobalIndex(999),
            true,
        ),
        4 => (
            "write to an immutable global",
            vec![Instr::I32Const(0), Instr::GlobalSet(IMMUTABLE_I32)],
            1,
            K::ImmutableGlobal(IMMUTABLE_I32),
            true,
        ),
        5 => (
            "call past the module",
            vec![Instr::Call { func: 999 }],
            0,
            K::BadFuncIndex(999),
            true,
        ),
        6 => (
            "overaligned load",
            vec![Instr::I32Const(0), load(3), Instr::Drop],
            1,
            K::BadAlignment {
                align: 3,
                natural: 2,
            },
            true,
        ),
        7 => (
            "call_indirect past the type section",
            vec![Instr::I32Const(0), Instr::CallIndirect { type_idx: 999 }],
            1,
            K::BadTypeIndex(999),
            false,
        ),
        8 => (
            "branch past the labels",
            vec![Instr::Br { depth: 999 }],
            0,
            K::BadLabelDepth(999),
            false,
        ),
        9 => (
            "value left in a block",
            vec![Instr::I32Const(0)],
            1,
            K::StackHeightMismatch {
                expected: 0,
                found: 1,
            },
            false,
        ),
        10 => (
            "br_table labels of two arities",
            vec![
                block(BlockType::Value(I32)),
                block(BlockType::Empty),
                Instr::I32Const(0),
                Instr::BrTable {
                    targets: vec![0].into(),
                    default: 1,
                },
                Instr::End,
                Instr::I32Const(0),
                Instr::End,
                Instr::Drop,
            ],
            3,
            K::BrTableArityMismatch,
            false,
        ),
        11 => (
            "typed if without else",
            vec![
                Instr::I32Const(0),
                Instr::If {
                    ty: BlockType::Value(I32),
                },
                Instr::I32Const(1),
                Instr::End,
                Instr::Drop,
            ],
            3,
            K::IfMissingElse,
            false,
        ),
        12 => {
            module.memory = None;
            module.data.clear();
            func = 0;
            (
                "memory op without a memory",
                vec![Instr::MemorySize, Instr::Drop],
                0,
                K::NoMemory,
                true,
            )
        }
        13 => {
            module.table = None;
            module.elems.clear();
            func = 0;
            (
                "call_indirect without a table",
                vec![Instr::I32Const(0), Instr::CallIndirect { type_idx: 0 }],
                1,
                K::NoTable,
                true,
            )
        }
        14 => (
            "else inside a block",
            vec![block(BlockType::Empty), Instr::Else, Instr::End],
            1,
            K::ElseWithoutIf,
            false,
        ),
        15 => (
            "duplicate else",
            vec![
                Instr::I32Const(0),
                Instr::If {
                    ty: BlockType::Empty,
                },
                Instr::Else,
                Instr::Else,
                Instr::End,
            ],
            3,
            K::ElseWithoutIf,
            false,
        ),
        16 => ("stray end", vec![Instr::End], 0, K::ControlUnderflow, false),
        _ => panic!("mutation class {class} of {CLASSES}"),
    };
    let code = &mut module.funcs[func].code;
    let (pc, at) = if kind == K::ControlUnderflow {
        let pc = code.len();
        code.extend(snippet);
        (pc, at)
    } else if class_at_start(&kind) || (plain && g.leaves[func]) {
        code.splice(0..0, snippet);
        (0, at)
    } else {
        // A fresh block around the snippet; its end is where a leftover
        // value is found.
        let pc = rng.below(code.len() as u64) as usize;
        let mut wrapped = vec![block(BlockType::Empty)];
        wrapped.extend(snippet);
        let at = if matches!(kind, K::StackHeightMismatch { .. }) {
            wrapped.len()
        } else {
            at + 1
        };
        wrapped.push(Instr::End);
        code.splice(pc..pc, wrapped);
        (pc, at)
    };
    Mutant {
        class,
        bytes: encode_module(&module),
        func: func as u32,
        pc: pc + at,
        kind,
    }
}

/// The memory and table classes go first thing in `main`: an earlier
/// memory or table use would report the same kind elsewhere.
fn class_at_start(kind: &ValidateErrorKind) -> bool {
    matches!(
        kind,
        ValidateErrorKind::NoMemory | ValidateErrorKind::NoTable
    )
}
