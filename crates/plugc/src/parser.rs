//! PlugC recursive-descent parser with C operator precedence.

use crate::ast::*;
use crate::lexer::{FloatWidth, IntWidth, Pos, Tok, Token};
use crate::CompileError;

/// The deepest nesting [`parse`] accepts. A function body is level 1, and
/// each block, `else if`, parenthesis, call, unary, cast or binary operator
/// adds a level to what it encloses. Deeper source is a [`CompileError`]:
/// the parser and every later stage recurse over the tree, so an unbounded
/// depth would let hostile source exhaust the stack.
pub const MAX_NESTING: u32 = 256;

/// Parse a token stream into a [`Program`].
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(Program { items })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting levels enclosing the construct being parsed.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn here(&self) -> Pos {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.pos)
            .unwrap_or(Pos { line: 1, col: 1 })
    }

    fn advance(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn want(&mut self, tok: &Tok, what: &str) -> Result<Pos, CompileError> {
        let pos = self.here();
        if self.eat(tok) {
            Ok(pos)
        } else {
            Err(pos.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Pos), CompileError> {
        let pos = self.here();
        match self.advance().map(|t| &t.tok) {
            Some(Tok::Ident(name)) => Ok((name.clone(), pos)),
            other => Err(pos.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn too_deep(pos: Pos) -> CompileError {
        pos.err(format!("nesting deeper than {MAX_NESTING}"))
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth >= MAX_NESTING {
            return Err(Self::too_deep(self.here()));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// The height of a new expression node at `pos` over operands of
    /// height `h`, if the node still fits under [`MAX_NESTING`].
    fn node(&self, pos: Pos, h: u32) -> Result<u32, CompileError> {
        if self.depth + h >= MAX_NESTING {
            return Err(Self::too_deep(pos));
        }
        Ok(h + 1)
    }

    fn ty(&mut self) -> Result<Type, CompileError> {
        let pos = self.here();
        match self.advance().map(|t| &t.tok) {
            Some(Tok::TyI32) => Ok(Type::I32),
            Some(Tok::TyI64) => Ok(Type::I64),
            Some(Tok::TyF32) => Ok(Type::F32),
            Some(Tok::TyF64) => Ok(Type::F64),
            other => Err(pos.err(format!("expected a type, found {other:?}"))),
        }
    }

    // -- items ----------------------------------------------------------

    fn item(&mut self) -> Result<Item, CompileError> {
        let pos = self.here();
        match self.peek() {
            Some(Tok::Extern) => {
                self.advance();
                self.want(&Tok::Fn, "'fn' after 'extern'")?;
                let sig = self.fn_sig(pos)?;
                self.want(&Tok::Semi, "';' after extern declaration")?;
                Ok(Item::ExternFn(sig))
            }
            Some(Tok::Export) => {
                self.advance();
                if matches!(self.peek(), Some(Tok::Global) | Some(Tok::Const)) {
                    return self.global(pos, true);
                }
                self.want(&Tok::Fn, "'fn' or 'global' after 'export'")?;
                let sig = self.fn_sig(pos)?;
                let body = self.block()?;
                Ok(Item::Fn(FnDecl {
                    sig,
                    exported: true,
                    body,
                }))
            }
            Some(Tok::Fn) => {
                self.advance();
                let sig = self.fn_sig(pos)?;
                let body = self.block()?;
                Ok(Item::Fn(FnDecl {
                    sig,
                    exported: false,
                    body,
                }))
            }
            Some(Tok::Global) | Some(Tok::Const) => self.global(pos, false),
            other => Err(pos.err(format!(
                "expected an item (fn/extern/global), found {other:?}"
            ))),
        }
    }

    /// `global name: ty = literal;` or `const …`, the keyword not yet
    /// consumed.
    fn global(&mut self, pos: Pos, exported: bool) -> Result<Item, CompileError> {
        let mutable = matches!(self.peek(), Some(Tok::Global));
        self.advance();
        let (name, _) = self.ident("global name")?;
        self.want(&Tok::Colon, "':' after global name")?;
        let ty = self.ty()?;
        self.want(&Tok::Assign, "'=' in global declaration")?;
        let init = self.literal(ty)?;
        self.want(&Tok::Semi, "';' after global declaration")?;
        Ok(Item::Global(GlobalDecl {
            name,
            ty,
            mutable,
            exported,
            init,
            pos,
        }))
    }

    fn fn_sig(&mut self, pos: Pos) -> Result<FnSig, CompileError> {
        let (name, _) = self.ident("function name")?;
        self.want(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (pname, _) = self.ident("parameter name")?;
                self.want(&Tok::Colon, "':' after parameter name")?;
                let pty = self.ty()?;
                params.push((pname, pty));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.want(&Tok::Comma, "',' between parameters")?;
            }
        }
        let ret = if self.eat(&Tok::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        Ok(FnSig {
            name,
            params,
            ret,
            pos,
        })
    }

    /// A literal, possibly negated, coerced to the expected type.
    fn literal(&mut self, expect: Type) -> Result<Literal, CompileError> {
        let pos = self.here();
        let neg = self.eat(&Tok::Minus);
        match self.advance().map(|t| &t.tok) {
            Some(Tok::Int(v, w)) => {
                let v = if neg { -*v } else { *v };
                match (expect, w) {
                    (Type::I32, _) => i32::try_from(v)
                        .map(Literal::I32)
                        .map_err(|_| pos.err(format!("integer {v} does not fit in i32"))),
                    (Type::I64, _) => Ok(Literal::I64(v)),
                    (Type::F32, IntWidth::W32) => Ok(Literal::F32(v as f32)),
                    (Type::F64, IntWidth::W32) => Ok(Literal::F64(v as f64)),
                    _ => Err(pos.err(format!("expected a {expect} literal"))),
                }
            }
            Some(Tok::Float(v, _)) => {
                let v = if neg { -*v } else { *v };
                match expect {
                    Type::F32 => Ok(Literal::F32(v as f32)),
                    Type::F64 => Ok(Literal::F64(v)),
                    _ => Err(pos.err(format!("expected a {expect} literal, found float"))),
                }
            }
            other => Err(pos.err(format!("expected a literal, found {other:?}"))),
        }
    }

    // -- statements -------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.want(&Tok::LBrace, "'{'")?;
        self.nested(|p| {
            let mut body = Vec::new();
            while !p.eat(&Tok::RBrace) {
                if p.at_end() {
                    return Err(p.here().err("unexpected end of input inside block"));
                }
                body.push(p.stmt()?);
            }
            Ok(body)
        })
    }

    /// One statement. Each kind with an expression or a body has its own
    /// method, so the frame that recurses into nested blocks stays small.
    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.here();
        match self.peek() {
            Some(Tok::Var) => self.var_stmt(pos),
            Some(Tok::If) => self.if_stmt(pos),
            Some(Tok::While) => self.while_stmt(pos),
            Some(Tok::Return) => self.return_stmt(pos),
            Some(Tok::Break) => {
                self.advance();
                self.want(&Tok::Semi, "';' after break")?;
                Ok(Stmt::Break { pos })
            }
            Some(Tok::Continue) => {
                self.advance();
                self.want(&Tok::Semi, "';' after continue")?;
                Ok(Stmt::Continue { pos })
            }
            Some(Tok::LBrace) => {
                let body = self.block()?;
                Ok(Stmt::Block { body, pos })
            }
            _ => self.assign_or_expr_stmt(pos),
        }
    }

    fn var_stmt(&mut self, pos: Pos) -> Result<Stmt, CompileError> {
        self.advance();
        let (name, _) = self.ident("variable name")?;
        self.want(&Tok::Colon, "':' after variable name")?;
        let ty = self.ty()?;
        self.want(&Tok::Assign, "'=' in var declaration")?;
        let init = self.expr()?;
        self.want(&Tok::Semi, "';' after var declaration")?;
        Ok(Stmt::Var {
            name,
            ty,
            init,
            pos,
        })
    }

    fn if_stmt(&mut self, pos: Pos) -> Result<Stmt, CompileError> {
        self.advance();
        self.want(&Tok::LParen, "'(' after 'if'")?;
        let cond = self.expr()?;
        self.want(&Tok::RParen, "')' after condition")?;
        let then_body = self.block()?;
        let else_body = if self.eat(&Tok::Else) {
            if self.peek() == Some(&Tok::If) {
                vec![self.nested(Self::stmt)?] // else if
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            pos,
        })
    }

    fn while_stmt(&mut self, pos: Pos) -> Result<Stmt, CompileError> {
        self.advance();
        self.want(&Tok::LParen, "'(' after 'while'")?;
        let cond = self.expr()?;
        self.want(&Tok::RParen, "')' after condition")?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body, pos })
    }

    fn return_stmt(&mut self, pos: Pos) -> Result<Stmt, CompileError> {
        self.advance();
        let value = if self.peek() == Some(&Tok::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.want(&Tok::Semi, "';' after return")?;
        Ok(Stmt::Return { value, pos })
    }

    /// Assignment or expression statement, told apart by lookahead.
    fn assign_or_expr_stmt(&mut self, pos: Pos) -> Result<Stmt, CompileError> {
        if matches!(self.peek(), Some(Tok::Ident(_)))
            && self.tokens.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::Assign)
        {
            let (name, _) = self.ident("assignment target")?;
            self.advance(); // '='
            let value = self.expr()?;
            self.want(&Tok::Semi, "';' after assignment")?;
            return Ok(Stmt::Assign { name, value, pos });
        }
        let expr = self.expr()?;
        self.want(&Tok::Semi, "';' after expression")?;
        Ok(Stmt::Expr { expr, pos })
    }

    // -- expressions (precedence climbing) ---------------------------------
    //
    // Each returns the expression with its height: the levels on its
    // deepest path, one per parenthesis, call, unary, cast or binary
    // operator (a literal or a name has height 0).

    fn expr(&mut self) -> Result<Expr, CompileError> {
        Ok(self.binary(0)?.0)
    }

    /// A `cast` operand, then every binary operator of precedence at
    /// least `min`, folded left.
    fn binary(&mut self, min: u8) -> Result<(Expr, u32), CompileError> {
        let (mut lhs, mut h) = self.cast()?;
        while let Some((op, prec)) = self.peek().and_then(binop) {
            if prec < min {
                break;
            }
            let pos = self.here();
            self.advance();
            let (rhs, rh) = self.nested(|p| p.binary(prec + 1))?;
            h = self.node(pos, h.max(rh))?;
            lhs = Expr::Bin {
                op,
                lhs: lhs.into(),
                rhs: rhs.into(),
                pos,
            };
        }
        Ok((lhs, h))
    }

    fn cast(&mut self) -> Result<(Expr, u32), CompileError> {
        let (mut e, mut h) = self.unary()?;
        loop {
            let pos = self.here();
            if !self.eat(&Tok::As) {
                return Ok((e, h));
            }
            let ty = self.ty()?;
            h = self.node(pos, h)?;
            e = Expr::Cast {
                expr: e.into(),
                ty,
                pos,
            };
        }
    }

    fn unary(&mut self) -> Result<(Expr, u32), CompileError> {
        let pos = self.here();
        let op = match self.peek() {
            Some(Tok::Minus) => UnOp::Neg,
            Some(Tok::Not) => UnOp::Not,
            _ => return self.primary(),
        };
        self.advance();
        let (operand, h) = self.nested(Self::unary)?;
        let operand = operand.into();
        Ok((Expr::Un { op, operand, pos }, h + 1))
    }

    fn primary(&mut self) -> Result<(Expr, u32), CompileError> {
        let pos = self.here();
        let lit = |l| Ok((Expr::Lit(l, pos), 0));
        match self.advance().map(|t| &t.tok) {
            Some(Tok::Int(v, IntWidth::W32)) => {
                let v = i32::try_from(*v).map_err(|_| {
                    pos.err(format!("integer {v} does not fit in i32 (use i64 suffix)"))
                })?;
                lit(Literal::I32(v))
            }
            Some(Tok::Int(v, IntWidth::W64)) => lit(Literal::I64(*v)),
            Some(Tok::Float(v, FloatWidth::W32)) => lit(Literal::F32(*v as f32)),
            Some(Tok::Float(v, FloatWidth::W64)) => lit(Literal::F64(*v)),
            Some(Tok::Ident(name)) if self.eat(&Tok::LParen) => {
                let (args, h) = self.nested(|p| {
                    let (mut args, mut h) = (Vec::new(), 0);
                    if !p.eat(&Tok::RParen) {
                        loop {
                            let (arg, ah) = p.binary(0)?;
                            args.push(arg);
                            h = h.max(ah);
                            if p.eat(&Tok::RParen) {
                                break;
                            }
                            p.want(&Tok::Comma, "',' between arguments")?;
                        }
                    }
                    Ok((args, h))
                })?;
                let name = name.clone();
                Ok((Expr::Call { name, args, pos }, h + 1))
            }
            Some(Tok::Ident(name)) => Ok((Expr::Ident(name.clone(), pos), 0)),
            Some(Tok::LParen) => {
                let (e, h) = self.nested(|p| p.binary(0))?;
                self.want(&Tok::RParen, "')'")?;
                Ok((e, h + 1))
            }
            other => Err(pos.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// A binary operator token's operator and precedence, loosest first: C's
/// order, which LANGUAGE.md's "Expressions" list states. Every level folds
/// left.
fn binop(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::LogicalOr, 0),
        Tok::AndAnd => (BinOp::LogicalAnd, 1),
        Tok::Pipe => (BinOp::Or, 2),
        Tok::Caret => (BinOp::Xor, 3),
        Tok::Amp => (BinOp::And, 4),
        Tok::Eq => (BinOp::Eq, 5),
        Tok::Ne => (BinOp::Ne, 5),
        Tok::Lt => (BinOp::Lt, 6),
        Tok::Le => (BinOp::Le, 6),
        Tok::Gt => (BinOp::Gt, 6),
        Tok::Ge => (BinOp::Ge, 6),
        Tok::Shl => (BinOp::Shl, 7),
        Tok::Shr => (BinOp::Shr, 7),
        Tok::Plus => (BinOp::Add, 8),
        Tok::Minus => (BinOp::Sub, 8),
        Tok::Star => (BinOp::Mul, 9),
        Tok::Slash => (BinOp::Div, 9),
        Tok::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_src("export fn f(a: i32, b: f64) -> i64 { return 1i64; }");
        let Item::Fn(f) = &p.items[0] else {
            panic!("expected fn")
        };
        assert!(f.exported);
        assert_eq!(f.sig.params.len(), 2);
        assert_eq!(f.sig.ret, Some(Type::I64));
    }

    #[test]
    fn parses_extern_and_globals() {
        let p = parse_src("extern fn log(x: i32);\nglobal g: f64 = -1.5;\nconst C: i32 = 7;");
        assert!(matches!(p.items[0], Item::ExternFn(_)));
        let Item::Global(g) = &p.items[1] else {
            panic!()
        };
        assert!(g.mutable);
        assert_eq!(g.init, Literal::F64(-1.5));
        let Item::Global(c) = &p.items[2] else {
            panic!()
        };
        assert!(!c.mutable);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("fn f() -> i32 { return 1 + 2 * 3; }");
        let Item::Fn(f) = &p.items[0] else { panic!() };
        let Stmt::Return {
            value: Some(Expr::Bin { op, lhs, .. }),
            ..
        } = &f.body[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**lhs, Expr::Lit(Literal::I32(1), _)));
    }

    #[test]
    fn precedence_comparison_below_arith() {
        let p = parse_src("fn f() -> i32 { return 1 + 2 < 3 * 4; }");
        let Item::Fn(f) = &p.items[0] else { panic!() };
        let Stmt::Return {
            value: Some(Expr::Bin { op, .. }),
            ..
        } = &f.body[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::Lt);
    }

    #[test]
    fn else_if_chains() {
        let p = parse_src(
            "fn f(x: i32) -> i32 { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }",
        );
        let Item::Fn(f) = &p.items[0] else { panic!() };
        let Stmt::If { else_body, .. } = &f.body[0] else {
            panic!()
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn casts_bind_tighter_than_mul() {
        let p = parse_src("fn f(x: i32) -> i64 { return x as i64 * 2i64; }");
        let Item::Fn(f) = &p.items[0] else { panic!() };
        let Stmt::Return {
            value:
                Some(Expr::Bin {
                    op: BinOp::Mul,
                    lhs,
                    ..
                }),
            ..
        } = &f.body[0]
        else {
            panic!()
        };
        assert!(matches!(**lhs, Expr::Cast { .. }));
    }

    #[test]
    fn error_on_missing_semi() {
        let toks = lex("fn f() { return 1 }").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn while_with_break_continue() {
        let p = parse_src("fn f() { while (1) { break; continue; } }");
        let Item::Fn(f) = &p.items[0] else { panic!() };
        let Stmt::While { body, .. } = &f.body[0] else {
            panic!()
        };
        assert!(matches!(body[0], Stmt::Break { .. }));
        assert!(matches!(body[1], Stmt::Continue { .. }));
    }
}
