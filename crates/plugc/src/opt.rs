//! The PlugC optimiser: helper inlining on the typed IR.
//!
//! Runs on every compile, between [`crate::typeck::check`] and
//! [`crate::codegen::generate`]; there is no unoptimised mode. One pass:
//! a call to a *one-line helper* — a function whose whole body is
//! `return <expr>;` with no call left in `<expr>` — is replaced by
//! `<expr>` with the arguments substituted for the parameters.
//!
//! A call is rewritten only when every argument is **pure** (reads
//! locals, globals and literals through non-trapping operators: no load,
//! no integer `/` or `%`, no call, no `memory_size`/`memory_grow`) and is
//! either a bare local/literal or feeds a parameter the helper uses at
//! most once. That keeps the rewrite invisible:
//!
//! * a pure argument yields the same value wherever inside the helper's
//!   expression it is evaluated — the expression cannot assign a local or
//!   a global — and may be evaluated zero times (a parameter under a
//!   short-circuit) without anything observable going missing;
//! * everything that can trap or touch memory is the helper's own
//!   expression, which runs in its original order at the original point;
//! * nothing non-trivial is evaluated more often than before, so the
//!   optimised program never retires more instructions.
//!
//! Helpers are inlined bottom-up: once `rec` is gone from `metric`'s
//! body, `metric` is itself call-free and its callers are rewritten on
//! the next round. Each rewrite removes a call node and adds none, so the
//! rounds terminate. Inlined helpers stay in the module (they may be
//! exported, and function indices do not move).

use crate::ast::BinOp;
use crate::typeck::{TExpr, TExprKind, TProgram, TStmt};

/// Optimise a checked program. Behaviour-preserving by construction: see
/// the module docs for the argument.
pub fn optimize(mut program: TProgram) -> TProgram {
    let n_imports = program.imports.len() as u32;
    loop {
        // Per defined function: the returned expression, if it is a
        // one-line helper.
        let bodies: Vec<Option<TExpr>> = program
            .funcs
            .iter()
            .map(|f| match f.body.as_slice() {
                [TStmt::Return { value: Some(e) }] if !has_call(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        let helpers = Helpers { n_imports, bodies };
        let mut changed = false;
        for func in &mut program.funcs {
            for_each_root(&mut func.body, &mut |e| {
                changed |= inline_calls(e, &helpers)
            });
        }
        if !changed {
            return program;
        }
    }
}

struct Helpers {
    n_imports: u32,
    bodies: Vec<Option<TExpr>>,
}

impl Helpers {
    /// The expression a call to Wasm function `index` can be replaced by.
    fn body(&self, index: u32) -> Option<&TExpr> {
        let defined = index.checked_sub(self.n_imports)?;
        self.bodies[defined as usize].as_ref()
    }
}

/// Visit every expression root of a statement list, nested bodies included.
fn for_each_root(body: &mut [TStmt], f: &mut impl FnMut(&mut TExpr)) {
    for stmt in body {
        match stmt {
            TStmt::SetLocal { value, .. } | TStmt::SetGlobal { value, .. } => f(value),
            TStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                f(cond);
                for_each_root(then_body, f);
                for_each_root(else_body, f);
            }
            TStmt::While { cond, body } => {
                f(cond);
                for_each_root(body, f);
            }
            TStmt::Return { value } => {
                if let Some(e) = value {
                    f(e);
                }
            }
            TStmt::Expr { expr, .. } => f(expr),
            TStmt::Break | TStmt::Continue => {}
        }
    }
}

/// Call `f` on each direct operand of `e`.
fn for_each_child<'a>(e: &'a TExpr, mut f: impl FnMut(&'a TExpr)) {
    match &e.kind {
        TExprKind::Lit(_) | TExprKind::LocalGet(_) | TExprKind::GlobalGet(_) => {}
        TExprKind::Bin { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        TExprKind::Neg(x) | TExprKind::Not(x) | TExprKind::Cast { expr: x, .. } => f(x),
        TExprKind::Call { args, .. } | TExprKind::Intrinsic { args, .. } => args.iter().for_each(f),
    }
}

fn for_each_child_mut(e: &mut TExpr, mut f: impl FnMut(&mut TExpr)) {
    match &mut e.kind {
        TExprKind::Lit(_) | TExprKind::LocalGet(_) | TExprKind::GlobalGet(_) => {}
        TExprKind::Bin { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        TExprKind::Neg(x) | TExprKind::Not(x) | TExprKind::Cast { expr: x, .. } => f(x),
        TExprKind::Call { args, .. } | TExprKind::Intrinsic { args, .. } => {
            args.iter_mut().for_each(f)
        }
    }
}

fn has_call(e: &TExpr) -> bool {
    let mut found = matches!(e.kind, TExprKind::Call { .. });
    for_each_child(e, |c| found = found || has_call(c));
    found
}

/// Number of reads of local `idx` in `e`.
fn uses(e: &TExpr, idx: u32) -> usize {
    let mut n = matches!(e.kind, TExprKind::LocalGet(l) if l == idx) as usize;
    for_each_child(e, |c| n += uses(c, idx));
    n
}

/// No side effect, no trap, and a value that only depends on locals,
/// globals and literals.
fn is_pure(e: &TExpr) -> bool {
    let mut pure = match &e.kind {
        TExprKind::Bin { op, operand_ty, .. } => {
            !(matches!(op, BinOp::Div | BinOp::Rem) && operand_ty.is_int())
        }
        TExprKind::Call { .. } => false,
        TExprKind::Intrinsic { name, .. } => {
            matches!(
                *name,
                "sqrt" | "floor" | "ceil" | "abs" | "min" | "max" | "pack"
            )
        }
        // Float→int casts saturate, so no cast traps.
        _ => true,
    };
    for_each_child(e, |c| pure = pure && is_pure(c));
    pure
}

fn is_trivial(e: &TExpr) -> bool {
    matches!(e.kind, TExprKind::Lit(_) | TExprKind::LocalGet(_))
}

/// Rewrite every inlinable helper call in `e`, innermost first. Returns
/// whether anything changed.
fn inline_calls(e: &mut TExpr, helpers: &Helpers) -> bool {
    let mut changed = false;
    for_each_child_mut(e, |c| changed |= inline_calls(c, helpers));
    let TExprKind::Call { index, args } = &e.kind else {
        return changed;
    };
    let Some(body) = helpers.body(*index) else {
        return changed;
    };
    let inlinable = args
        .iter()
        .enumerate()
        .all(|(p, a)| is_pure(a) && (is_trivial(a) || uses(body, p as u32) <= 1));
    if !inlinable {
        return changed;
    }
    let mut inlined = body.clone();
    substitute(&mut inlined, args);
    debug_assert_eq!(inlined.ty, e.ty);
    *e = inlined;
    true
}

/// Replace each parameter read in a helper's expression by its argument.
fn substitute(e: &mut TExpr, args: &[TExpr]) {
    if let TExprKind::LocalGet(p) = e.kind {
        // A one-line helper declares no `var`, so every local is a
        // parameter.
        *e = args[p as usize].clone();
        return;
    }
    for_each_child_mut(e, |c| substitute(c, args));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `caller`'s body still contains a call after optimisation.
    fn calls_left(src: &str) -> bool {
        let program = crate::parser::parse(&crate::lexer::lex(src).unwrap()).unwrap();
        let typed = optimize(crate::typeck::check(&program).unwrap());
        let caller = typed.funcs.iter().find(|f| f.name == "caller").unwrap();
        let mut body = caller.body.clone();
        let mut found = false;
        for_each_root(&mut body, &mut |e| found |= has_call(e));
        found
    }

    const REC: &str = "fn rec(req: i32, i: i32) -> i32 { return req + 24 + i * 32; }\n";
    const SQ: &str = "fn sq(x: i32) -> i32 { return x * x; }\n";

    #[test]
    fn one_line_helper_is_inlined() {
        let src = format!(
            "{REC}fn caller(req: i32, i: i32) -> i32 {{ return load_i32(rec(req, i + 1) + 8); }}"
        );
        assert!(!calls_left(&src));
    }

    #[test]
    fn helpers_inline_bottom_up() {
        let src = format!(
            "{REC}fn metric(req: i32, i: i32) -> f64 {{ return load_f64(rec(req, i) + 24); }}
             fn caller(req: i32, n: i32) -> f64 {{
                 var j: i32 = 0; var best: f64 = 0.0;
                 while (j < n) {{ best = max(best, metric(req, j)); j = j + 1; }}
                 return best;
             }}"
        );
        assert!(!calls_left(&src));
    }

    #[test]
    fn trivial_argument_may_be_read_twice() {
        assert!(!calls_left(&format!(
            "{SQ}fn caller(a: i32) -> i32 {{ return sq(a) + sq(3); }}"
        )));
    }

    #[test]
    fn nontrivial_argument_read_twice_stays_a_call() {
        assert!(calls_left(&format!(
            "{SQ}fn caller(a: i32) -> i32 {{ return sq(a + 1); }}"
        )));
    }

    #[test]
    fn trapping_or_effectful_arguments_stay_calls() {
        for arg in [
            "load_i32(a)",
            "a / b",
            "a % b",
            "id(a)",
            "memory_grow(a)",
            "memory_size()",
        ] {
            let src = format!(
                "fn id(x: i32) -> i32 {{ return x + 0; }}
                 fn caller(a: i32, b: i32) -> i32 {{ return id({arg}); }}"
            );
            // `id(id(a))`: the inner call is inlined first, after which the
            // outer argument is pure — everything else must stay a call.
            assert_eq!(calls_left(&src), arg != "id(a)", "id({arg})");
        }
    }

    #[test]
    fn multi_statement_and_void_helpers_stay_calls() {
        assert!(calls_left(
            "fn two(x: i32) -> i32 { var y: i32 = x + 1; return y; }
             fn caller(a: i32) -> i32 { return two(a); }"
        ));
        assert!(calls_left(
            "fn nothing() { return; }
             fn caller(a: i32) -> i32 { nothing(); return a; }"
        ));
    }
}
