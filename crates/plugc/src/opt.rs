//! The PlugC optimiser: helper inlining on the typed IR.
//!
//! Runs on every compile, between [`crate::typeck::check`] and
//! [`crate::codegen::generate`]; there is no unoptimised mode. It is the
//! toolchain's only inliner: the VM's loader lowers every call as a call.
//! A call to a *one-line helper* — a function whose whole body is
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
//! A call *statement* to a *straight-line helper* — a void function whose
//! body holds only `var`s, assignments and expression statements, no
//! call, and at most a final `return;` — is spliced: replaced by the
//! helper's statements. A local or literal argument is substituted for a
//! parameter the helper never assigns (no expression assigns a local, so
//! it reads the same throughout); every other argument is bound to a
//! fresh caller local first, in argument order, as the call evaluated it,
//! and the helper's own locals become fresh caller locals. A call is
//! spliced only if that retires no more fuel: the call pays 2 +
//! `CALL_FUEL` + ⌈helper locals / `LOCALS_PER_FUEL`⌉, the splice one
//! `local.set` per bound argument, and the fresh locals may not raise the
//! caller's own activation price, so a splice that never runs is free.
//!
//! Each function body is rewritten once, after the bodies of the
//! functions it calls: once `rec` is gone from `metric`'s body, `metric`
//! is itself call-free and a helper for its callers. A call that closes
//! a cycle of calls stays a call, and so does every call along the
//! cycle: no function on it can become call-free. The pass is linear in
//! the program, however long a chain of helpers. Inlined helpers stay in
//! the module (they may be exported, and function indices do not move).
//!
//! An inline whose result would be taller than [`MAX_NESTING`] or larger
//! than [`MAX_INLINED_NODES`] keeps the call. Substitution stacks one
//! helper's tree on the next, so without the bounds a chain of helpers —
//! each within the parser's nesting limit — compiles to a tree as tall as
//! all of them together, which every later stage recurses over, and a
//! helper that calls its predecessor twice doubles the code per line of
//! source. An inlined tree holds no call, so no later round inlines into
//! it: a root is at most the parser's nesting plus one bounded inline
//! deep, and a function body grows by at most one bounded inline per call
//! in its source.

use waran_wasm::instance::{CALL_FUEL, LOCALS_PER_FUEL};

use crate::ast::{BinOp, Type};
use crate::parser::MAX_NESTING;
use crate::typeck::{TExpr, TExprKind, TFunc, TProgram, TStmt};

/// The most expression nodes one inline may produce.
pub const MAX_INLINED_NODES: usize = 4096;

/// Optimise a checked program. Behaviour-preserving by construction: see
/// the module docs for the argument.
pub fn optimize(mut program: TProgram) -> TProgram {
    let mut helpers = Helpers {
        n_imports: program.imports.len() as u32,
        helpers: vec![None; program.funcs.len()],
    };
    for f in callee_first(&mut program) {
        let func = &mut program.funcs[f];
        for_each_root(&mut func.body, &mut |e| inline_calls(e, &helpers));
        splice_calls(
            &mut func.body,
            &helpers,
            func.params.len(),
            &mut func.locals,
        );
        helpers.helpers[f] = helper(func);
    }
    program
}

/// The defined functions, each once, every callee before its callers. A
/// call into a function whose callees are still being ordered closes a
/// cycle and is not followed.
fn callee_first(program: &mut TProgram) -> Vec<usize> {
    let n_imports = program.imports.len() as u32;
    let mut callees = Vec::new();
    for f in &mut program.funcs {
        let mut out = Vec::new();
        for_each_root(&mut f.body, &mut |e| calls(e, n_imports, &mut out));
        callees.push(out);
    }
    let mut seen = vec![false; callees.len()];
    let mut order = Vec::with_capacity(callees.len());
    for root in 0..callees.len() {
        // Depth first without recursion: (function, next callee to visit).
        let mut stack = vec![(root, 0)];
        while let Some((f, next)) = stack.pop() {
            if next == 0 && std::mem::replace(&mut seen[f], true) {
                continue;
            }
            match callees[f].get(next) {
                Some(&c) => stack.extend([(f, next + 1), (c, 0)]),
                None => order.push(f),
            }
        }
    }
    order
}

/// Collect the defined functions `e` calls.
fn calls(e: &TExpr, n_imports: u32, out: &mut Vec<usize>) {
    if let TExprKind::Call { index, .. } = e.kind {
        out.extend(index.checked_sub(n_imports).map(|f| f as usize));
    }
    for_each_child(e, |c| calls(c, n_imports, out));
}

/// What a call to a helper can be replaced by.
#[derive(Debug, Clone)]
enum Helper {
    /// A one-line helper's returned expression.
    Expr(TExpr),
    /// A straight-line helper, its final `return;` dropped.
    Stmts(TFunc),
}

/// Per defined function, once its body is final: the helper it is, if any.
struct Helpers {
    n_imports: u32,
    helpers: Vec<Option<Helper>>,
}

impl Helpers {
    /// The helper Wasm function `index` is.
    fn get(&self, index: u32) -> Option<&Helper> {
        let defined = index.checked_sub(self.n_imports)?;
        self.helpers[defined as usize].as_ref()
    }
}

/// `func` as a helper: one-line, or void and straight-line within the
/// inline bounds.
fn helper(func: &TFunc) -> Option<Helper> {
    let body = match func.body.as_slice() {
        [TStmt::Return { value: Some(e) }] => {
            return (!has_call(e)).then(|| Helper::Expr(e.clone()))
        }
        _ if func.ret.is_some() => return None,
        [rest @ .., TStmt::Return { value: None }] => rest,
        all => all,
    };
    let mut nodes = 0;
    for stmt in body {
        let (TStmt::SetLocal { value: e, .. }
        | TStmt::SetGlobal { value: e, .. }
        | TStmt::Expr { expr: e, .. }) = stmt
        else {
            return None;
        };
        let shape = shape(e, None);
        nodes += shape.nodes;
        if has_call(e) || shape.height > MAX_NESTING || nodes > MAX_INLINED_NODES {
            return None;
        }
    }
    Some(Helper::Stmts(TFunc {
        body: body.to_vec(),
        ..func.clone()
    }))
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
        TExprKind::Intrinsic { def, .. } => def.pure,
        // Float→int casts saturate, so no cast traps.
        _ => true,
    };
    for_each_child(e, |c| pure = pure && is_pure(c));
    pure
}

fn is_trivial(e: &TExpr) -> bool {
    matches!(e.kind, TExprKind::Lit(_) | TExprKind::LocalGet(_))
}

/// Height (a leaf is 1) and node count of an expression tree.
#[derive(Debug, Clone, Copy)]
struct Shape {
    height: u32,
    nodes: usize,
}

/// The shape of `e`, with each parameter read counted as the argument
/// of shape `args[p]` when `args` is given — the shape a substitution
/// would produce, measured without building it.
fn shape(e: &TExpr, args: Option<&[Shape]>) -> Shape {
    if let (TExprKind::LocalGet(p), Some(args)) = (&e.kind, args) {
        return args[*p as usize];
    }
    let mut out = Shape {
        height: 0,
        nodes: 1,
    };
    for_each_child(e, |c| {
        let c = shape(c, args);
        out.height = out.height.max(c.height);
        out.nodes += c.nodes;
    });
    out.height += 1;
    out
}

/// Rewrite every inlinable helper call in `e`, innermost first.
fn inline_calls(e: &mut TExpr, helpers: &Helpers) {
    for_each_child_mut(e, |c| inline_calls(c, helpers));
    let TExprKind::Call { index, args } = &e.kind else {
        return;
    };
    let Some(Helper::Expr(body)) = helpers.get(*index) else {
        return;
    };
    let inlinable = args
        .iter()
        .enumerate()
        .all(|(p, a)| is_pure(a) && (is_trivial(a) || uses(body, p as u32) <= 1));
    if !inlinable {
        return;
    }
    let arg_shapes: Vec<Shape> = args.iter().map(|a| shape(a, None)).collect();
    let result = shape(body, Some(&arg_shapes));
    if result.height > MAX_NESTING || result.nodes > MAX_INLINED_NODES {
        return;
    }
    let mut inlined = body.clone();
    substitute(&mut inlined, args);
    debug_assert_eq!(inlined.ty, e.ty);
    *e = inlined;
}

/// Replace each local read in a helper's expression by what that local
/// reads as at the call: `with` holds one expression per helper local.
fn substitute(e: &mut TExpr, with: &[TExpr]) {
    if let TExprKind::LocalGet(l) = e.kind {
        *e = with[l as usize].clone();
        return;
    }
    for_each_child_mut(e, |c| substitute(c, with));
}

/// Splice every call statement to a straight-line helper in `body`, a
/// statement list of a function with `n_params` parameters and `locals`.
fn splice_calls(body: &mut Vec<TStmt>, helpers: &Helpers, n_params: usize, locals: &mut Vec<Type>) {
    for mut stmt in std::mem::take(body) {
        match &mut stmt {
            TStmt::If {
                then_body,
                else_body,
                ..
            } => {
                splice_calls(then_body, helpers, n_params, locals);
                splice_calls(else_body, helpers, n_params, locals);
            }
            TStmt::While { body: inner, .. } => splice_calls(inner, helpers, n_params, locals),
            TStmt::Expr { expr, .. } => {
                if let TExprKind::Call { index, args } = &expr.kind {
                    if let Some(Helper::Stmts(h)) = helpers.get(*index) {
                        if splice(h, args, n_params, locals, body) {
                            continue;
                        }
                    }
                }
            }
            _ => {}
        }
        body.push(stmt);
    }
}

/// Append the statements a call of `h` with `args` splices to to `out`,
/// taking fresh caller locals, and return true; or change nothing and
/// return false where the splice could retire more fuel than the call.
fn splice(
    h: &TFunc,
    args: &[TExpr],
    n_params: usize,
    locals: &mut Vec<Type>,
    out: &mut Vec<TStmt>,
) -> bool {
    let assigns =
        |p| (h.body.iter()).any(|s| matches!(s, TStmt::SetLocal { idx, .. } if *idx == p));
    let kept: Vec<bool> = (0..args.len())
        .map(|p| is_trivial(&args[p]) && !assigns(p as u32))
        .collect();
    let bound = kept.iter().filter(|&&k| !k).count();
    let price = |n: usize| (n as u32).div_ceil(LOCALS_PER_FUEL);
    let fresh = locals.len() + bound + h.locals.len();
    if bound as u32 > 2 + CALL_FUEL + price(h.locals.len()) || price(fresh) > price(locals.len()) {
        return false;
    }
    // What each helper local reads as at the call.
    let mut with = Vec::with_capacity(h.params.len() + h.locals.len());
    for (i, &ty) in h.params.iter().chain(&h.locals).enumerate() {
        let arg = args.get(i);
        if let Some(a) = arg.filter(|_| kept[i]) {
            with.push(a.clone());
            continue;
        }
        let idx = (n_params + locals.len()) as u32;
        locals.push(ty);
        out.extend(arg.map(|a| TStmt::SetLocal {
            idx,
            value: a.clone(),
        }));
        with.push(TExpr {
            ty: Some(ty),
            kind: TExprKind::LocalGet(idx),
        });
    }
    let mut body = h.body.clone();
    for_each_root(&mut body, &mut |e| substitute(e, &with));
    for stmt in &mut body {
        // Only a fresh local is ever assigned.
        if let TStmt::SetLocal { idx, .. } = stmt {
            if let TExprKind::LocalGet(to) = with[*idx as usize].kind {
                *idx = to;
            }
        }
    }
    out.extend(body);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(src: &str) -> TProgram {
        let program = crate::parser::parse(&crate::lexer::lex(src).unwrap()).unwrap();
        crate::typeck::check(&program).unwrap()
    }

    /// Whether `caller`'s body still contains a call after optimisation.
    fn calls_left(src: &str) -> bool {
        let typed = optimize(checked(src));
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
    fn each_body_is_rewritten_once_after_its_callees() {
        // `h19999` … `h0`, declared callers first: each helper calls the
        // next, so a declaration-order pass would need a round per link.
        const N: usize = 20_000;
        let mut src = String::new();
        for i in (1..N).rev() {
            src += &format!("fn h{i}(x: i32) -> i32 {{ return h{}(x); }}\n", i - 1);
        }
        src += "fn h0(x: i32) -> i32 { return x + 1; }\n";
        src += &format!("fn caller(a: i32) -> i32 {{ return h{}(a); }}", N - 1);
        let order = callee_first(&mut checked(&src));
        // Declaration index `i` holds `h{N-1-i}`, then `caller`: the pass
        // walks them from `h0` up, each once.
        let want: Vec<usize> = (0..N).rev().chain([N]).collect();
        assert_eq!(order, want);
        assert!(!calls_left(&src));
        crate::compile(&src).expect("a long helper chain compiles");
    }

    #[test]
    fn calls_on_a_cycle_stay_calls() {
        let src = "fn even(x: i32) -> i32 { return odd(x); }
                   fn odd(x: i32) -> i32 { return even(x); }
                   fn caller(a: i32) -> i32 { return even(a); }";
        let mut order = callee_first(&mut checked(src));
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2]);
        assert!(calls_left(src));
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
    fn an_inline_taller_than_the_nesting_limit_stays_a_call() {
        // `x` sits 250 levels down the helper's chain: a trivial argument
        // fits under the limit, a 10-level one would not.
        let tall = format!(
            "fn tall(x: i32) -> i32 {{ return x{}; }}\n",
            " + 1".repeat(249)
        );
        let call = |arg: &str| format!("{tall}fn caller(a: i32) -> i32 {{ return tall({arg}); }}");
        assert!(!calls_left(&call("a")));
        assert!(calls_left(&call(&format!("a{}", " + 1".repeat(9)))));
    }

    #[test]
    fn multi_statement_value_helpers_and_branching_void_helpers_stay_calls() {
        assert!(calls_left(
            "fn two(x: i32) -> i32 { var y: i32 = x + 1; return y; }
             fn caller(a: i32) -> i32 { return two(a); }"
        ));
        assert!(calls_left(
            "fn maybe(x: i32) { if (x > 0) { store_i32(0, x); } }
             fn caller(a: i32) -> i32 { maybe(a); return a; }"
        ));
    }

    #[test]
    fn straight_line_void_helpers_are_spliced_callee_first() {
        // `put` splices into `both`, which is then straight-line itself.
        let src = "fn nothing() { return; }
                   fn put(at: i32, v: i32) { store_i32(at & 1020, v); }
                   fn both(x: i32) { put(x, 9); put(x, x); }
                   fn slot(x: i32, v: i32) { var s: i32 = x & 1020; store_i32(s, v); }
                   fn caller(a: i32) -> i32 {
                       var k: i32 = a; nothing(); both(k); slot(k, k + 1); return k;
                   }";
        assert!(!calls_left(src));
    }

    /// `bump` writes its own parameter: the argument is bound to a fresh
    /// local, and the caller's `k` keeps its value.
    #[test]
    fn a_helper_that_assigns_its_parameter_leaves_the_argument_local_alone() {
        use waran_wasm::instance::{Instance, Linker};
        use waran_wasm::interp::Value;
        let src = "fn bump(x: i32) { x = x + 1; store_i32(0, x); }
                   export fn caller(a: i32) -> i32 {
                       var k: i32 = a; bump(k); return k * 1000 + load_i32(0);
                   }";
        assert!(!calls_left(src));
        let caller = optimize(checked(src)).funcs.remove(1);
        assert_eq!(caller.locals.len(), 2, "one fresh local for `x`");
        let module = waran_wasm::load_module(&crate::compile(src).unwrap()).unwrap();
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
        let got = inst.invoke("caller", &[Value::I32(7)]);
        assert_eq!(got, Ok(Some(Value::I32(7008))));
    }

    #[test]
    fn a_splice_that_could_cost_more_than_the_call_stays_a_call() {
        // Nine arguments to bind cost more than the call they replace;
        // literal and local arguments bind nothing.
        let wide =
            "fn wide(a: i32, b: i32, c: i32, d: i32, e: i32, f: i32, g: i32, h: i32, i: i32) {
                        store_i32(0, a + b + c + d + e + f + g + h + i);
                    }\n";
        let call =
            |args: &str| format!("{wide}fn caller(x: i32) -> i32 {{ wide({args}); return x; }}");
        assert!(calls_left(&call(&["x + 1"; 9].join(", "))));
        assert!(!calls_left(&call("x, 1, 2, 3, x, 5, 6, 7, x")));
        // The fresh locals may not raise the caller's activation price:
        // a caller with eight locals has no room left for one more.
        let src = format!(
            "fn put(at: i32, v: i32) {{ store_i32(at & 1020, v); }}
             fn caller(x: i32) -> i32 {{
                 var a: i32 = x; var b: i32 = a; var c: i32 = b; var d: i32 = c;
                 var e: i32 = d; var f: i32 = e; var g: i32 = f; var h: i32 = g;
                 put(h, {}); return h;
             }}",
            "x + 1"
        );
        assert!(calls_left(&src));
        assert!(!calls_left(&src.replace("x + 1", "h")));
    }
}
