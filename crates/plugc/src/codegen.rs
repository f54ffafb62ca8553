//! Wasm code generation from the typed IR.
//!
//! Expressions emit stack code, statements emit structured control, in
//! the shapes an optimising toolchain produces:
//!
//! * `while` is bottom-tested — `block $exit { !cond br_if $exit; loop $top
//!   { block $cont { body } cond br_if $top } }` — so an iteration costs one
//!   conditional back-edge and no unconditional `br`. `break` branches to
//!   `$exit`, `continue` to `$cont` (which re-evaluates the condition); the
//!   `$cont` block is emitted only when the body has a `continue` of this
//!   loop.
//! * A condition of `if`/`while` built from `&&`, `||` or `!` never
//!   materialises its value: each operand branches directly to where the
//!   outcome is decided (`FuncGen::cond_br`). The same operators in value
//!   context produce a 0/1 through `if (result i32)`.
//!
//! The generator tracks the current control nesting to compute relative
//! branch depths. Value-returning functions end with `unreachable`, so a
//! body that falls off the end traps instead of returning garbage.

use waran_wasm::builder::{CodeEmitter, ModuleBuilder};
use waran_wasm::module::{ConstExpr, Module};
use waran_wasm::types::{BlockType, Mutability};

use crate::ast::{BinOp, Literal, Program, Type};
use crate::typeck::{TExpr, TExprKind, TProgram, TStmt};
use crate::{CompileError, Options};

/// Generate a Wasm module from a checked program.
pub fn generate(
    _program: &Program,
    typed: &TProgram,
    opts: &Options,
) -> Result<Module, CompileError> {
    let mut mb = ModuleBuilder::new();
    mb.memory(opts.memory_min_pages, opts.memory_max_pages);
    mb.export_memory("memory");

    for imp in &typed.imports {
        let params: Vec<_> = imp.params.iter().map(|t| t.to_wasm()).collect();
        let results: Vec<_> = imp.ret.iter().map(|t| t.to_wasm()).collect();
        let sig = mb.func_type(&params, &results);
        mb.import_func("env", &imp.name, sig)
            .map_err(|e| CompileError {
                line: 0,
                col: 0,
                msg: format!("internal: {e}"),
            })?;
    }

    for g in &typed.globals {
        let init = match g.init {
            Literal::I32(v) => ConstExpr::I32(v),
            Literal::I64(v) => ConstExpr::I64(v),
            Literal::F32(v) => ConstExpr::F32(v),
            Literal::F64(v) => ConstExpr::F64(v),
        };
        let mutability = if g.mutable {
            Mutability::Var
        } else {
            Mutability::Const
        };
        mb.global(g.ty.to_wasm(), mutability, init);
    }

    for func in &typed.funcs {
        let params: Vec<_> = func.params.iter().map(|t| t.to_wasm()).collect();
        let results: Vec<_> = func.ret.iter().map(|t| t.to_wasm()).collect();
        let sig = mb.func_type(&params, &results);
        let idx = mb.begin_func(sig);
        for local in &func.locals {
            mb.local(local.to_wasm());
        }
        let mut gen = FuncGen { ctrl: Vec::new() };
        gen.stmts(mb.code(), &func.body);
        if func.ret.is_some() {
            // Falling off the end of a value-returning function traps.
            mb.code().unreachable();
        }
        mb.end_func().map_err(|e| CompileError {
            line: 0,
            col: 0,
            msg: format!("internal codegen structure error in `{}`: {e}", func.name),
        })?;
        if func.exported {
            mb.export_func(&func.name, idx);
        }
    }

    mb.finish().map_err(|e| CompileError {
        line: 0,
        col: 0,
        msg: format!("internal: {e}"),
    })
}

/// What kind of control frame the generator has open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    /// The `block` wrapping a while loop (break target).
    LoopExit,
    /// The `block` wrapping a while body (continue target: its end is the
    /// loop's bottom test).
    LoopCont,
    /// Any frame `break`/`continue` never target.
    Plain,
}

/// True when `body` has a `continue` that targets the loop `body` belongs
/// to (one inside a nested `while` targets that loop instead).
fn continues(body: &[TStmt]) -> bool {
    body.iter().any(|s| match s {
        TStmt::Continue => true,
        TStmt::If {
            then_body,
            else_body,
            ..
        } => continues(then_body) || continues(else_body),
        _ => false,
    })
}

/// True for conditions `FuncGen::cond_br` splits into several branches.
fn branches_directly(cond: &TExpr) -> bool {
    match &cond.kind {
        TExprKind::Bin { op, .. } => matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr),
        TExprKind::Not(inner) => inner.ty == Some(Type::I32),
        _ => false,
    }
}

struct FuncGen {
    ctrl: Vec<Ctrl>,
}

impl FuncGen {
    fn stmts(&mut self, code: &mut CodeEmitter, body: &[TStmt]) {
        for stmt in body {
            self.stmt(code, stmt);
        }
    }

    fn stmt(&mut self, code: &mut CodeEmitter, stmt: &TStmt) {
        match stmt {
            TStmt::SetLocal { idx, value } => {
                self.expr(code, value);
                code.local_set(*idx);
            }
            TStmt::SetGlobal { idx, value } => {
                self.expr(code, value);
                code.global_set(*idx);
            }
            TStmt::If {
                cond,
                then_body,
                else_body,
            } if branches_directly(cond) => {
                // block $end { block $else { !cond br_if $else; then; br $end } else }
                // (without an else arm, $else is $end).
                let has_else = !else_body.is_empty();
                code.block(BlockType::Empty);
                self.ctrl.push(Ctrl::Plain);
                if has_else {
                    code.block(BlockType::Empty);
                    self.ctrl.push(Ctrl::Plain);
                }
                self.cond_br(code, cond, 0, false);
                self.stmts(code, then_body);
                if has_else {
                    code.br(1);
                    self.ctrl.pop();
                    code.end();
                    self.stmts(code, else_body);
                }
                self.ctrl.pop();
                code.end();
            }
            TStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr(code, cond);
                code.if_(BlockType::Empty);
                self.ctrl.push(Ctrl::Plain);
                self.stmts(code, then_body);
                if !else_body.is_empty() {
                    code.else_();
                    self.stmts(code, else_body);
                }
                self.ctrl.pop();
                code.end();
            }
            TStmt::While { cond, body } => {
                // block $exit { !cond br_if $exit;
                //   loop $top { block $cont { body } cond br_if $top } }
                code.block(BlockType::Empty);
                self.ctrl.push(Ctrl::LoopExit);
                self.cond_br(code, cond, 0, false);
                code.loop_(BlockType::Empty);
                self.ctrl.push(Ctrl::Plain);
                if continues(body) {
                    code.block(BlockType::Empty);
                    self.ctrl.push(Ctrl::LoopCont);
                    self.stmts(code, body);
                    self.ctrl.pop();
                    code.end();
                } else {
                    self.stmts(code, body);
                }
                self.cond_br(code, cond, 0, true);
                self.ctrl.pop();
                code.end();
                self.ctrl.pop();
                code.end();
            }
            TStmt::Return { value } => {
                if let Some(v) = value {
                    self.expr(code, v);
                }
                code.return_();
            }
            TStmt::Break => {
                let depth = self.depth_to(Ctrl::LoopExit);
                code.br(depth);
            }
            TStmt::Continue => {
                let depth = self.depth_to(Ctrl::LoopCont);
                code.br(depth);
            }
            TStmt::Expr { expr, has_value } => {
                self.expr(code, expr);
                if *has_value {
                    code.drop();
                }
            }
        }
    }

    /// Branch depth from the current nesting to the innermost frame of
    /// `kind`. The type checker guarantees one exists.
    fn depth_to(&self, kind: Ctrl) -> u32 {
        let idx = self
            .ctrl
            .iter()
            .rposition(|c| *c == kind)
            .expect("type checker rejects break/continue outside loops");
        (self.ctrl.len() - 1 - idx) as u32
    }

    /// Branch to `depth` when the truth of `e` equals `sense`; fall through
    /// otherwise. `&&`, `||` and i32 `!` are taken apart so every leaf is
    /// one `br_if` and no 0/1 is materialised; short-circuit order and
    /// operand evaluation counts are those of the source.
    fn cond_br(&mut self, code: &mut CodeEmitter, e: &TExpr, depth: u32, sense: bool) {
        match &e.kind {
            TExprKind::Not(inner) if inner.ty == Some(Type::I32) => {
                self.cond_br(code, inner, depth, !sense);
            }
            TExprKind::Bin {
                op: op @ (BinOp::LogicalAnd | BinOp::LogicalOr),
                lhs,
                rhs,
                ..
            } => {
                // The lhs value that settles the whole expression (to that
                // same value): false for `&&`, true for `||`.
                let settles = *op == BinOp::LogicalOr;
                if sense == settles {
                    // Either operand alone takes the branch.
                    self.cond_br(code, lhs, depth, sense);
                    self.cond_br(code, rhs, depth, sense);
                } else {
                    // A settling lhs means "do not branch": skip the rhs.
                    code.block(BlockType::Empty);
                    self.cond_br(code, lhs, 0, settles);
                    self.cond_br(code, rhs, depth + 1, sense);
                    code.end();
                }
            }
            _ => {
                self.expr(code, e);
                if !sense {
                    code.i32_eqz();
                }
                code.br_if(depth);
            }
        }
    }

    fn expr(&mut self, code: &mut CodeEmitter, e: &TExpr) {
        match &e.kind {
            TExprKind::Lit(lit) => {
                match lit {
                    Literal::I32(v) => code.i32_const(*v),
                    Literal::I64(v) => code.i64_const(*v),
                    Literal::F32(v) => code.f32_const(*v),
                    Literal::F64(v) => code.f64_const(*v),
                };
            }
            TExprKind::LocalGet(idx) => {
                code.local_get(*idx);
            }
            TExprKind::GlobalGet(idx) => {
                code.global_get(*idx);
            }
            TExprKind::Neg(inner) => {
                let ty = inner.ty.expect("typed");
                match ty {
                    Type::I32 => {
                        code.i32_const(0);
                        self.expr(code, inner);
                        code.i32_sub();
                    }
                    Type::I64 => {
                        code.i64_const(0);
                        self.expr(code, inner);
                        code.i64_sub();
                    }
                    Type::F32 => {
                        self.expr(code, inner);
                        code.f32_neg();
                    }
                    Type::F64 => {
                        self.expr(code, inner);
                        code.f64_neg();
                    }
                }
            }
            TExprKind::Not(inner) => {
                self.expr(code, inner);
                match inner.ty.expect("typed") {
                    Type::I32 => code.i32_eqz(),
                    Type::I64 => code.i64_eqz(),
                    _ => unreachable!("type checker rejects float `!`"),
                };
            }
            TExprKind::Cast { to, expr } => {
                self.expr(code, expr);
                let from = expr.ty.expect("typed");
                emit_cast(code, from, *to);
            }
            TExprKind::Call { index, args } => {
                for a in args {
                    self.expr(code, a);
                }
                code.call(*index);
            }
            TExprKind::Intrinsic { name, args } => self.intrinsic(code, name, args),
            TExprKind::Bin {
                op,
                operand_ty,
                lhs,
                rhs,
            } => {
                // Short-circuit logicals get custom control flow.
                match op {
                    BinOp::LogicalAnd => {
                        self.expr(code, lhs);
                        code.if_(BlockType::Value(waran_wasm::types::ValType::I32));
                        self.expr(code, rhs);
                        code.i32_const(0).i32_ne();
                        code.else_();
                        code.i32_const(0);
                        code.end();
                        return;
                    }
                    BinOp::LogicalOr => {
                        self.expr(code, lhs);
                        code.if_(BlockType::Value(waran_wasm::types::ValType::I32));
                        code.i32_const(1);
                        code.else_();
                        self.expr(code, rhs);
                        code.i32_const(0).i32_ne();
                        code.end();
                        return;
                    }
                    _ => {}
                }
                self.expr(code, lhs);
                self.expr(code, rhs);
                emit_binop(code, *op, *operand_ty);
            }
        }
    }

    fn intrinsic(&mut self, code: &mut CodeEmitter, name: &str, args: &[TExpr]) {
        if name == "pack" {
            // (ptr as u64) << 32 | (len as u64), emitted inline.
            self.expr(code, &args[0]);
            code.i64_extend_i32_u().i64_const(32).i64_shl();
            self.expr(code, &args[1]);
            code.i64_extend_i32_u().i64_or();
            return;
        }
        for a in args {
            self.expr(code, a);
        }
        match name {
            "load_u8" => code.i32_load8_u(0),
            "load_i32" => code.i32_load(0),
            "load_i64" => code.i64_load(0),
            "load_f32" => code.f32_load(0),
            "load_f64" => code.f64_load(0),
            "store_u8" => code.i32_store8(0),
            "store_i32" => code.i32_store(0),
            "store_i64" => code.i64_store(0),
            "store_f32" => code.f32_store(0),
            "store_f64" => code.f64_store(0),
            "memory_size" => code.memory_size(),
            "memory_grow" => code.memory_grow(),
            "sqrt" => code.f64_sqrt(),
            "floor" => code.f64_floor(),
            "ceil" => code.f64_ceil(),
            "abs" => code.f64_abs(),
            "min" => code.f64_min(),
            "max" => code.f64_max(),
            "trap" => code.unreachable(),
            other => unreachable!("unknown intrinsic {other}"),
        };
    }
}

fn emit_cast(code: &mut CodeEmitter, from: Type, to: Type) {
    use Type::*;
    match (from, to) {
        (a, b) if a == b => {}
        (I32, I64) => {
            code.i64_extend_i32_s();
        }
        (I64, I32) => {
            code.i32_wrap_i64();
        }
        (I32, F32) => {
            code.f32_convert_i32_s();
        }
        (I32, F64) => {
            code.f64_convert_i32_s();
        }
        (I64, F32) => {
            code.f32_convert_i64_s();
        }
        (I64, F64) => {
            code.f64_convert_i64_s();
        }
        // Float→int casts saturate (never trap), matching Rust `as`.
        (F32, I32) => {
            code.i32_trunc_sat_f32_s();
        }
        (F32, I64) => {
            code.i64_trunc_sat_f32_s();
        }
        (F64, I32) => {
            code.i32_trunc_sat_f64_s();
        }
        (F64, I64) => {
            code.i64_trunc_sat_f64_s();
        }
        (F32, F64) => {
            code.f64_promote_f32();
        }
        (F64, F32) => {
            code.f32_demote_f64();
        }
        _ => unreachable!("all numeric cast pairs covered"),
    }
}

fn emit_binop(code: &mut CodeEmitter, op: BinOp, ty: Type) {
    use BinOp::*;
    use Type::*;
    match (op, ty) {
        (Add, I32) => code.i32_add(),
        (Sub, I32) => code.i32_sub(),
        (Mul, I32) => code.i32_mul(),
        (Div, I32) => code.i32_div_s(),
        (Rem, I32) => code.i32_rem_s(),
        (And, I32) => code.i32_and(),
        (Or, I32) => code.i32_or(),
        (Xor, I32) => code.i32_xor(),
        (Shl, I32) => code.i32_shl(),
        (Shr, I32) => code.i32_shr_s(),
        (Eq, I32) => code.i32_eq(),
        (Ne, I32) => code.i32_ne(),
        (Lt, I32) => code.i32_lt_s(),
        (Le, I32) => code.i32_le_s(),
        (Gt, I32) => code.i32_gt_s(),
        (Ge, I32) => code.i32_ge_s(),
        (Add, I64) => code.i64_add(),
        (Sub, I64) => code.i64_sub(),
        (Mul, I64) => code.i64_mul(),
        (Div, I64) => code.i64_div_s(),
        (Rem, I64) => code.i64_rem_s(),
        (And, I64) => code.i64_and(),
        (Or, I64) => code.i64_or(),
        (Xor, I64) => code.i64_xor(),
        (Shl, I64) => code.i64_shl(),
        (Shr, I64) => code.i64_shr_s(),
        (Eq, I64) => code.i64_eq(),
        (Ne, I64) => code.i64_ne(),
        (Lt, I64) => code.i64_lt_s(),
        (Le, I64) => code.i64_le_s(),
        (Gt, I64) => code.i64_gt_s(),
        (Ge, I64) => code.i64_ge_s(),
        (Add, F32) => code.f32_add(),
        (Sub, F32) => code.f32_sub(),
        (Mul, F32) => code.f32_mul(),
        (Div, F32) => code.f32_div(),
        (Eq, F32) => code.f32_eq(),
        (Ne, F32) => code.f32_ne(),
        (Lt, F32) => code.f32_lt(),
        (Le, F32) => code.f32_le(),
        (Gt, F32) => code.f32_gt(),
        (Ge, F32) => code.f32_ge(),
        (Add, F64) => code.f64_add(),
        (Sub, F64) => code.f64_sub(),
        (Mul, F64) => code.f64_mul(),
        (Div, F64) => code.f64_div(),
        (Eq, F64) => code.f64_eq(),
        (Ne, F64) => code.f64_ne(),
        (Lt, F64) => code.f64_lt(),
        (Le, F64) => code.f64_le(),
        (Gt, F64) => code.f64_gt(),
        (Ge, F64) => code.f64_ge(),
        (op, ty) => unreachable!("type checker rejects {op:?} on {ty}"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_wasm::instance::{Instance, Linker};
    use waran_wasm::instr::Instr;
    use waran_wasm::interp::Value;

    fn module(src: &str) -> Module {
        let program = crate::parser::parse(&crate::lexer::lex(src).unwrap()).unwrap();
        let typed = crate::typeck::check(&program).unwrap();
        let module = generate(&program, &typed, &Options::default()).unwrap();
        waran_wasm::validate::validate(&module).expect("generated code validates");
        module
    }

    fn count(code: &[Instr], pred: impl Fn(&Instr) -> bool) -> usize {
        code.iter().filter(|i| pred(i)).count()
    }

    fn run(src: &str, args: &[i32]) -> i32 {
        let args: Vec<Value> = args.iter().map(|a| Value::I32(*a)).collect();
        let mut inst = Instance::new(module(src).into(), &Linker::<()>::new(), ()).unwrap();
        inst.invoke("f", &args).unwrap().unwrap().as_i32()
    }

    #[test]
    fn while_is_bottom_tested() {
        let m = module(
            "fn f(n: i32) -> i32 { var i: i32 = 0; while (i < n) { i = i + 1; } return i; }",
        );
        let code = &m.funcs[0].code;
        // Entry guard + back-edge, and nothing unconditional.
        assert_eq!(count(code, |i| matches!(i, Instr::BrIf { .. })), 2);
        assert_eq!(count(code, |i| matches!(i, Instr::Br { .. })), 0);
        // The back-edge is the loop's last instruction: `br_if 0; end`.
        let loop_end = code
            .windows(2)
            .position(|w| matches!(w, [Instr::BrIf { depth: 0 }, Instr::End]))
            .expect("conditional back-edge closes the loop");
        assert!(code[..loop_end]
            .iter()
            .any(|i| matches!(i, Instr::Loop { .. })));
        // No `continue`, so no `$cont` block: just `$exit`.
        assert_eq!(count(code, |i| matches!(i, Instr::Block { .. })), 1);
    }

    const ODDS: &str = "export fn f(n: i32) -> i32 {
        var i: i32 = 0; var odd: i32 = 0;
        while (i < n) {
            i = i + 1;
            if ((i & 1) == 0) { continue; }
            odd = odd + 1;
        }
        return odd;
    }";

    #[test]
    fn continue_reevaluates_the_condition() {
        // Jumping to the loop header instead would run the body once more
        // after `i` reached `n` on an even step.
        assert_eq!(run(ODDS, &[2]), 1);
        assert_eq!(run(ODDS, &[7]), 4);
        assert_eq!(run(ODDS, &[0]), 0);
        // `$exit` and `$cont`.
        let code = &module(ODDS).funcs[0].code;
        assert_eq!(count(code, |i| matches!(i, Instr::Block { .. })), 2);
    }

    #[test]
    fn continue_in_inner_loop_leaves_outer_without_cont_block() {
        let src = "export fn f(n: i32) -> i32 {
            var i: i32 = 0; var acc: i32 = 0;
            while (i < n) {
                var j: i32 = 0;
                while (j < i) {
                    j = j + 1;
                    if (j == 2) { continue; }
                    acc = acc + 1;
                }
                i = i + 1;
            }
            return acc;
        }";
        // i = 0..3 → inner trips 0+1+2+3, minus the j == 2 skips at i = 2, 3.
        assert_eq!(run(src, &[4]), 4);
        // Two `$exit`s, one `$cont`.
        let code = &module(src).funcs[0].code;
        assert_eq!(count(code, |i| matches!(i, Instr::Block { .. })), 3);
    }

    #[test]
    fn logical_conditions_branch_without_materialising() {
        let src = "export fn f(a: i32, b: i32) -> i32 {
            if (a > 0 && b > 0) { return 1; }
            if (a < 0 || !(b != 7)) { return 2; } else { return 3; }
        }";
        let code = &module(src).funcs[0].code;
        assert_eq!(count(code, |i| matches!(i, Instr::If { .. })), 0);
        assert_eq!(count(code, |i| matches!(i, Instr::BrIf { .. })), 4);
        for (args, want) in [
            ([1, 1], 1),
            ([1, 0], 3),
            ([0, 7], 2),
            ([-1, 0], 2),
            ([0, 0], 3),
        ] {
            assert_eq!(run(src, &args), want, "f{args:?}");
        }
    }

    #[test]
    fn logical_values_keep_the_value_form() {
        let src = "export fn f(a: i32, b: i32) -> i32 { return (a && b) + (a || b) * 2; }";
        let code = &module(src).funcs[0].code;
        let valued = |i: &Instr| {
            matches!(
                i,
                Instr::If {
                    ty: BlockType::Value(_),
                    ..
                }
            )
        };
        assert_eq!(count(code, valued), 2);
        assert_eq!(run(src, &[5, 0]), 2);
        assert_eq!(run(src, &[5, -1]), 3);
        assert_eq!(run(src, &[0, 0]), 0);
    }

    #[test]
    fn short_circuit_skips_the_trapping_operand() {
        let src = "export fn f(a: i32, b: i32) -> i32 {
            var n: i32 = 0;
            while (b != 0 && a / b > n) { n = n + 1; }
            if (b == 0 || a / b == n) { return n; }
            return 0 - 1;
        }";
        assert_eq!(run(src, &[7, 0]), 0);
        assert_eq!(run(src, &[7, 2]), 3);
    }
}
