//! PlugC type checker and lowering to a typed IR.
//!
//! Checking and name resolution happen in one pass that lowers the AST into
//! [`TProgram`], a fully resolved, explicitly typed IR the code generator
//! consumes without further analysis. PlugC is strict: no implicit numeric
//! conversions (use `as`), conditions must be `i32`, and `%`, bitwise and
//! logical operators are integer-only.

use std::collections::HashMap;

use crate::ast::*;
use crate::lexer::Pos;
use crate::CompileError;

/// Typed, resolved program.
#[derive(Debug, Clone, Default)]
pub struct TProgram {
    /// Host imports, in declaration order (= Wasm function indices 0..n).
    pub imports: Vec<TImport>,
    /// Globals (both `global` and `const`), in declaration order.
    pub globals: Vec<TGlobal>,
    /// Defined functions, in declaration order (indices continue after
    /// imports).
    pub funcs: Vec<TFunc>,
}

/// A host import signature.
#[derive(Debug, Clone)]
pub struct TImport {
    /// Import field name (module is always `"env"`).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type, if any.
    pub ret: Option<Type>,
}

/// A resolved module global.
#[derive(Debug, Clone)]
pub struct TGlobal {
    /// Name, which doubles as the export name when exported.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Mutability.
    pub mutable: bool,
    /// Exported from the module?
    pub exported: bool,
    /// Initializer.
    pub init: Literal,
}

/// A resolved function.
#[derive(Debug, Clone)]
pub struct TFunc {
    /// Name, which doubles as the export name when exported.
    pub name: String,
    /// Exported from the module?
    pub exported: bool,
    /// Parameter types (locals 0..params.len()).
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Option<Type>,
    /// Non-parameter locals, in allocation order.
    pub locals: Vec<Type>,
    /// Lowered body.
    pub body: Vec<TStmt>,
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum TStmt {
    /// Initialize a local (covers both `var` and assignment to a local).
    SetLocal { idx: u32, value: TExpr },
    /// Assign a module global.
    SetGlobal { idx: u32, value: TExpr },
    /// Two-armed conditional.
    If {
        cond: TExpr,
        then_body: Vec<TStmt>,
        else_body: Vec<TStmt>,
    },
    /// Pre-tested loop.
    While { cond: TExpr, body: Vec<TStmt> },
    /// Return.
    Return { value: Option<TExpr> },
    /// Break out of the innermost loop.
    Break,
    /// Continue the innermost loop.
    Continue,
    /// Evaluate for effect; `has_value` means a Drop must follow.
    Expr { expr: TExpr, has_value: bool },
}

/// A lowered, typed expression.
#[derive(Debug, Clone)]
pub struct TExpr {
    /// Result type (`None` only for void calls in statement position).
    pub ty: Option<Type>,
    /// Node.
    pub kind: TExprKind,
}

/// Lowered expression node.
#[derive(Debug, Clone)]
pub enum TExprKind {
    /// Constant.
    Lit(Literal),
    /// Read a local by index.
    LocalGet(u32),
    /// Read a global by index.
    GlobalGet(u32),
    /// Binary operation on operands of `operand_ty`.
    Bin {
        op: BinOp,
        operand_ty: Type,
        lhs: Box<TExpr>,
        rhs: Box<TExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<TExpr>),
    /// Logical not (integer operand, i32 result).
    Not(Box<TExpr>),
    /// Numeric cast.
    Cast { to: Type, expr: Box<TExpr> },
    /// Call a program function by Wasm function index (imports first).
    Call { index: u32, args: Vec<TExpr> },
    /// Call a compiler intrinsic.
    Intrinsic {
        def: &'static Intrinsic,
        args: Vec<TExpr>,
    },
}

/// Type-check and lower a parsed program.
pub fn check(program: &Program) -> Result<TProgram, CompileError> {
    let mut ck = Checker::default();

    // Pass 1: collect signatures and globals so order doesn't matter for
    // calls, and imports take the first function indices.
    for item in &program.items {
        if let Item::ExternFn(sig) = item {
            ck.declare_fn(sig, true)?;
        }
    }
    for item in &program.items {
        match item {
            Item::ExternFn(_) => {}
            Item::Fn(decl) => ck.declare_fn(&decl.sig, false)?,
            Item::Global(g) => ck.declare_global(g)?,
        }
    }

    // Pass 2: check bodies.
    let mut out = TProgram {
        imports: ck.imports.clone(),
        globals: ck.globals.clone(),
        funcs: Vec::new(),
    };
    for item in &program.items {
        if let Item::Fn(decl) = item {
            out.funcs.push(ck.check_fn(decl)?);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone)]
struct FnEntry {
    index: u32,
    params: Vec<Type>,
    ret: Option<Type>,
}

#[derive(Default)]
struct Checker {
    imports: Vec<TImport>,
    globals: Vec<TGlobal>,
    fn_table: HashMap<String, FnEntry>,
    global_table: HashMap<String, (u32, Type, bool)>,
    n_funcs: u32,
}

struct FnCtx {
    ret: Option<Type>,
    /// All locals: params first, then vars.
    locals: Vec<Type>,
    n_params: usize,
    /// Lexical scopes of name → local index.
    scopes: Vec<HashMap<String, u32>>,
    loop_depth: usize,
}

impl FnCtx {
    fn lookup(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

impl Checker {
    fn declare_fn(&mut self, sig: &FnSig, is_import: bool) -> Result<(), CompileError> {
        if self.fn_table.contains_key(&sig.name) {
            return Err(sig.pos.err(format!("duplicate function `{}`", sig.name)));
        }
        if intrinsic(&sig.name).is_some() {
            return Err(sig
                .pos
                .err(format!("`{}` shadows a builtin intrinsic", sig.name)));
        }
        let params: Vec<Type> = sig.params.iter().map(|(_, t)| *t).collect();
        self.fn_table.insert(
            sig.name.clone(),
            FnEntry {
                index: self.n_funcs,
                params: params.clone(),
                ret: sig.ret,
            },
        );
        self.n_funcs += 1;
        if is_import {
            self.imports.push(TImport {
                name: sig.name.clone(),
                params,
                ret: sig.ret,
            });
        }
        Ok(())
    }

    fn declare_global(&mut self, g: &GlobalDecl) -> Result<(), CompileError> {
        if self.global_table.contains_key(&g.name) {
            return Err(g.pos.err(format!("duplicate global `{}`", g.name)));
        }
        if g.init.ty() != g.ty {
            return Err(g.pos.err(format!(
                "global `{}` declared {} but initialized with {}",
                g.name,
                g.ty,
                g.init.ty()
            )));
        }
        let idx = self.globals.len() as u32;
        self.global_table
            .insert(g.name.clone(), (idx, g.ty, g.mutable));
        self.globals.push(TGlobal {
            name: g.name.clone(),
            ty: g.ty,
            mutable: g.mutable,
            exported: g.exported,
            init: g.init,
        });
        Ok(())
    }

    fn check_fn(&mut self, decl: &FnDecl) -> Result<TFunc, CompileError> {
        let mut ctx = FnCtx {
            ret: decl.sig.ret,
            locals: decl.sig.params.iter().map(|(_, t)| *t).collect(),
            n_params: decl.sig.params.len(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
        };
        for (i, (name, _)) in decl.sig.params.iter().enumerate() {
            if ctx.scopes[0].insert(name.clone(), i as u32).is_some() {
                return Err(decl.sig.pos.err(format!("duplicate parameter `{name}`")));
            }
        }
        let body = self.check_block(&decl.body, &mut ctx)?;
        Ok(TFunc {
            name: decl.sig.name.clone(),
            exported: decl.exported,
            params: decl.sig.params.iter().map(|(_, t)| *t).collect(),
            ret: decl.sig.ret,
            locals: ctx.locals[ctx.n_params..].to_vec(),
            body,
        })
    }

    fn check_block(&self, stmts: &[Stmt], ctx: &mut FnCtx) -> Result<Vec<TStmt>, CompileError> {
        ctx.scopes.push(HashMap::new());
        // A plain loop: an iterator chain adds several frames per nested
        // block, and nesting depth is bounded in levels, not bytes.
        let mut body = Vec::with_capacity(stmts.len());
        for s in stmts {
            body.push(self.check_stmt(s, ctx)?);
        }
        ctx.scopes.pop();
        Ok(body)
    }

    fn check_stmt(&self, stmt: &Stmt, ctx: &mut FnCtx) -> Result<TStmt, CompileError> {
        match stmt {
            Stmt::Var {
                name,
                ty,
                init,
                pos,
            } => self.check_var(name, *ty, init, *pos, ctx),
            Stmt::Assign { name, value, pos } => self.check_assign(name, value, *pos, ctx),
            Stmt::If {
                cond,
                then_body,
                else_body,
                pos,
            } => {
                let cond = self.check_expr(cond, ctx)?;
                expect_ty(&cond, Type::I32, *pos)?;
                Ok(TStmt::If {
                    cond,
                    then_body: self.check_block(then_body, ctx)?,
                    else_body: self.check_block(else_body, ctx)?,
                })
            }
            Stmt::While { cond, body, pos } => {
                let cond = self.check_expr(cond, ctx)?;
                expect_ty(&cond, Type::I32, *pos)?;
                ctx.loop_depth += 1;
                let body = self.check_block(body, ctx)?;
                ctx.loop_depth -= 1;
                Ok(TStmt::While { cond, body })
            }
            Stmt::Return { value, pos } => self.check_return(value.as_ref(), *pos, ctx),
            Stmt::Break { pos } => {
                if ctx.loop_depth == 0 {
                    return Err(pos.err("`break` outside a loop"));
                }
                Ok(TStmt::Break)
            }
            Stmt::Continue { pos } => {
                if ctx.loop_depth == 0 {
                    return Err(pos.err("`continue` outside a loop"));
                }
                Ok(TStmt::Continue)
            }
            Stmt::Expr { expr, pos: _ } => {
                let texpr = self.check_expr_allow_void(expr, ctx)?;
                let has_value = texpr.ty.is_some();
                Ok(TStmt::Expr {
                    expr: texpr,
                    has_value,
                })
            }
            Stmt::Block { body, pos: _ } => {
                // Lower a bare block to an always-true if (no dedicated IR).
                let body = self.check_block(body, ctx)?;
                Ok(TStmt::If {
                    cond: TExpr {
                        ty: Some(Type::I32),
                        kind: TExprKind::Lit(Literal::I32(1)),
                    },
                    then_body: body,
                    else_body: Vec::new(),
                })
            }
        }
    }

    // `check_stmt`'s leaf statements, kept out of the frame that recurses
    // into nested blocks.

    fn check_var(
        &self,
        name: &str,
        ty: Type,
        init: &Expr,
        pos: Pos,
        ctx: &mut FnCtx,
    ) -> Result<TStmt, CompileError> {
        let value = self.check_expr(init, ctx)?;
        expect_ty(&value, ty, pos)?;
        let idx = ctx.locals.len() as u32;
        ctx.locals.push(ty);
        let scope = ctx.scopes.last_mut().expect("scope stack non-empty");
        if scope.insert(name.to_string(), idx).is_some() {
            return Err(pos.err(format!("duplicate variable `{name}` in this scope")));
        }
        Ok(TStmt::SetLocal { idx, value })
    }

    fn check_assign(
        &self,
        name: &str,
        value: &Expr,
        pos: Pos,
        ctx: &FnCtx,
    ) -> Result<TStmt, CompileError> {
        let value = self.check_expr(value, ctx)?;
        if let Some(idx) = ctx.lookup(name) {
            expect_ty(&value, ctx.locals[idx as usize], pos)?;
            Ok(TStmt::SetLocal { idx, value })
        } else if let Some(&(idx, ty, mutable)) = self.global_table.get(name) {
            if !mutable {
                return Err(pos.err(format!("cannot assign to const `{name}`")));
            }
            expect_ty(&value, ty, pos)?;
            Ok(TStmt::SetGlobal { idx, value })
        } else {
            Err(pos.err(format!("unknown variable `{name}`")))
        }
    }

    fn check_return(
        &self,
        value: Option<&Expr>,
        pos: Pos,
        ctx: &FnCtx,
    ) -> Result<TStmt, CompileError> {
        match (value, ctx.ret) {
            (Some(e), Some(rt)) => {
                let value = self.check_expr(e, ctx)?;
                expect_ty(&value, rt, pos)?;
                Ok(TStmt::Return { value: Some(value) })
            }
            (None, None) => Ok(TStmt::Return { value: None }),
            (Some(_), None) => Err(pos.err("return with a value in a void function")),
            (None, Some(rt)) => Err(pos.err(format!("return without a value; expected {rt}"))),
        }
    }

    /// Check an expression that must produce a value.
    fn check_expr(&self, expr: &Expr, ctx: &FnCtx) -> Result<TExpr, CompileError> {
        let e = self.check_expr_allow_void(expr, ctx)?;
        if e.ty.is_none() {
            return Err(expr.pos().err("void call used where a value is required"));
        }
        Ok(e)
    }

    fn check_expr_allow_void(&self, expr: &Expr, ctx: &FnCtx) -> Result<TExpr, CompileError> {
        match expr {
            Expr::Lit(lit, _) => Ok(TExpr {
                ty: Some(lit.ty()),
                kind: TExprKind::Lit(*lit),
            }),
            Expr::Ident(name, pos) => {
                if let Some(idx) = ctx.lookup(name) {
                    Ok(TExpr {
                        ty: Some(ctx.locals[idx as usize]),
                        kind: TExprKind::LocalGet(idx),
                    })
                } else if let Some(&(idx, ty, _)) = self.global_table.get(name) {
                    Ok(TExpr {
                        ty: Some(ty),
                        kind: TExprKind::GlobalGet(idx),
                    })
                } else {
                    Err(pos.err(format!("unknown variable `{name}`")))
                }
            }
            Expr::Bin { op, lhs, rhs, pos } => {
                let l = self.check_expr(lhs, ctx)?;
                let r = self.check_expr(rhs, ctx)?;
                let lt = l.ty.expect("checked");
                let rt = r.ty.expect("checked");
                if lt != rt {
                    return Err(pos.err(format!(
                        "operand type mismatch: {lt} {op:?} {rt} (insert an `as` cast)"
                    )));
                }
                if op.int_only() && !lt.is_int() {
                    return Err(pos.err(format!("{op:?} requires integer operands, got {lt}")));
                }
                if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) && lt != Type::I32 {
                    return Err(pos.err(format!("{op:?} requires i32 operands, got {lt}")));
                }
                let result =
                    if op.is_comparison() || matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
                        Type::I32
                    } else {
                        lt
                    };
                Ok(TExpr {
                    ty: Some(result),
                    kind: TExprKind::Bin {
                        op: *op,
                        operand_ty: lt,
                        lhs: l.into(),
                        rhs: r.into(),
                    },
                })
            }
            Expr::Un { op, operand, pos } => {
                let e = self.check_expr(operand, ctx)?;
                let ty = e.ty.expect("checked");
                match op {
                    UnOp::Neg => Ok(TExpr {
                        ty: Some(ty),
                        kind: TExprKind::Neg(e.into()),
                    }),
                    UnOp::Not => {
                        if !ty.is_int() {
                            return Err(
                                pos.err(format!("`!` requires an integer operand, got {ty}"))
                            );
                        }
                        Ok(TExpr {
                            ty: Some(Type::I32),
                            kind: TExprKind::Not(e.into()),
                        })
                    }
                }
            }
            Expr::Cast { expr, ty, pos: _ } => {
                let e = self.check_expr(expr, ctx)?;
                Ok(TExpr {
                    ty: Some(*ty),
                    kind: TExprKind::Cast {
                        to: *ty,
                        expr: e.into(),
                    },
                })
            }
            Expr::Call { name, args, pos } => {
                let targs: Vec<TExpr> = args
                    .iter()
                    .map(|a| self.check_expr(a, ctx))
                    .collect::<Result<_, _>>()?;
                if let Some(def) = intrinsic(name) {
                    if targs.len() != def.params.len() {
                        return Err(pos.err(format!(
                            "intrinsic `{name}` takes {} arguments, got {}",
                            def.params.len(),
                            targs.len()
                        )));
                    }
                    for (a, p) in targs.iter().zip(def.params.iter()) {
                        expect_ty(a, *p, *pos)?;
                    }
                    return Ok(TExpr {
                        ty: def.ret,
                        kind: TExprKind::Intrinsic { def, args: targs },
                    });
                }
                let entry = self
                    .fn_table
                    .get(name)
                    .ok_or_else(|| pos.err(format!("unknown function `{name}`")))?;
                if targs.len() != entry.params.len() {
                    return Err(pos.err(format!(
                        "`{name}` takes {} arguments, got {}",
                        entry.params.len(),
                        targs.len()
                    )));
                }
                for (a, p) in targs.iter().zip(entry.params.iter()) {
                    expect_ty(a, *p, *pos)?;
                }
                Ok(TExpr {
                    ty: entry.ret,
                    kind: TExprKind::Call {
                        index: entry.index,
                        args: targs,
                    },
                })
            }
        }
    }
}

fn expect_ty(e: &TExpr, expected: Type, pos: Pos) -> Result<(), CompileError> {
    match e.ty {
        Some(t) if t == expected => Ok(()),
        Some(t) => Err(pos.err(format!("type mismatch: expected {expected}, found {t}"))),
        None => Err(pos.err(format!("type mismatch: expected {expected}, found void"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TProgram, CompileError> {
        check(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn resolves_params_and_locals() {
        let p = check_src("fn f(a: i32) -> i32 { var b: i32 = a + 1; return b; }").unwrap();
        assert_eq!(p.funcs[0].params, vec![Type::I32]);
        assert_eq!(p.funcs[0].locals, vec![Type::I32]);
    }

    #[test]
    fn rejects_type_mismatch() {
        let e = check_src("fn f(a: i32, b: f64) -> i32 { return a + b; }").unwrap_err();
        assert!(e.msg.contains("mismatch"));
    }

    #[test]
    fn rejects_float_modulo() {
        let e = check_src("fn f(a: f64) -> f64 { return a % a; }").unwrap_err();
        assert!(e.msg.contains("integer"));
    }

    #[test]
    fn rejects_unknown_variable() {
        assert!(check_src("fn f() -> i32 { return nope; }").is_err());
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(check_src("fn f() { break; }").is_err());
    }

    #[test]
    fn rejects_const_assignment() {
        let e = check_src("const C: i32 = 1; fn f() { C = 2; }").unwrap_err();
        assert!(e.msg.contains("const"));
    }

    #[test]
    fn rejects_void_in_value_position() {
        let e = check_src("fn g() {} fn f() -> i32 { return g() + 1; }").unwrap_err();
        assert!(e.msg.contains("void"));
    }

    #[test]
    fn scoping_allows_shadowing_in_nested_blocks() {
        let p = check_src("fn f() -> i32 { var x: i32 = 1; { var x: i32 = 2; x = 3; } return x; }")
            .unwrap();
        // Two distinct locals allocated.
        assert_eq!(p.funcs[0].locals.len(), 2);
    }

    #[test]
    fn rejects_duplicate_in_same_scope() {
        assert!(check_src("fn f() { var x: i32 = 1; var x: i32 = 2; }").is_err());
    }

    #[test]
    fn intrinsics_typed() {
        let p = check_src("fn f(p: i32) -> f64 { return load_f64(p) + sqrt(4.0); }").unwrap();
        assert_eq!(p.funcs[0].ret, Some(Type::F64));
        assert!(check_src("fn f(p: i32) -> f64 { return sqrt(4); }").is_err());
    }

    #[test]
    fn extern_fns_take_first_indices() {
        let p = check_src("extern fn h(x: i32);\nfn f() { h(1); }").unwrap();
        assert_eq!(p.imports.len(), 1);
        let TStmt::Expr { expr, has_value } = &p.funcs[0].body[0] else {
            panic!()
        };
        assert!(!has_value);
        let TExprKind::Call { index, .. } = &expr.kind else {
            panic!()
        };
        assert_eq!(*index, 0);
    }

    #[test]
    fn logical_ops_require_i32() {
        assert!(check_src("fn f(a: i64) -> i32 { return a && a; }").is_err());
        assert!(check_src("fn f(a: i32) -> i32 { return a && a; }").is_ok());
    }

    #[test]
    fn comparisons_yield_i32() {
        let e = check_src("fn f(a: f64) -> f64 { return a < a; }").unwrap_err();
        assert!(e.msg.contains("mismatch"));
        assert!(check_src("fn f(a: f64) -> i32 { return a < a; }").is_ok());
    }
}
