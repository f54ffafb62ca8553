//! Operator precedence, pair by pair.
//!
//! `props.rs` parenthesises every subexpression, so it never exercises the
//! parser's grouping. Here every ordered pair of the 18 binary operators is
//! parsed as `a op1 b op2 c`, and the tree must group as LANGUAGE.md's
//! precedence list says: the tighter operator binds first, and operators of
//! one level fold left. Every operator node must carry the position of its
//! own token.

use waran_plugc::ast::{BinOp, Expr, Item, Stmt, UnOp};
use waran_plugc::lexer::lex;
use waran_plugc::parser::parse;

/// LANGUAGE.md's binary operators, loosest level first.
const LEVELS: &[&[(&str, BinOp)]] = &[
    &[("||", BinOp::LogicalOr)],
    &[("&&", BinOp::LogicalAnd)],
    &[("|", BinOp::Or)],
    &[("^", BinOp::Xor)],
    &[("&", BinOp::And)],
    &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
    &[
        ("<", BinOp::Lt),
        ("<=", BinOp::Le),
        (">", BinOp::Gt),
        (">=", BinOp::Ge),
    ],
    &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
    &[("+", BinOp::Add), ("-", BinOp::Sub)],
    &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)],
];

/// Every binary operator with its precedence level.
fn operators() -> Vec<(&'static str, BinOp, usize)> {
    LEVELS
        .iter()
        .enumerate()
        .flat_map(|(level, ops)| ops.iter().map(move |&(s, op)| (s, op, level)))
        .collect()
}

/// The one-line function every case parses; the expression starts at
/// column `PREFIX.len() + 1`.
const PREFIX: &str = "fn f(a: i32, b: i32, c: i32) -> i32 { return ";

/// Parse `PREFIX expr; }` and return the returned expression.
fn returned(expr: &str) -> Expr {
    let src = format!("{PREFIX}{expr}; }}");
    let program = parse(&lex(&src).expect("lexes")).expect("parses");
    let Some(Item::Fn(f)) = program.items.into_iter().next() else {
        panic!("expected one fn")
    };
    match f.body.into_iter().next() {
        Some(Stmt::Return { value: Some(e), .. }) => e,
        other => panic!("expected `return expr;`, got {other:?}"),
    }
}

/// Fully parenthesised rendering; each operator is followed by `@col`.
fn render(e: &Expr) -> String {
    match e {
        Expr::Ident(name, _) => name.clone(),
        Expr::Bin { op, lhs, rhs, pos } => {
            let sym = operators()
                .into_iter()
                .find(|&(_, o, _)| o == *op)
                .map(|(s, _, _)| s)
                .expect("known operator");
            format!("({} {sym}@{} {})", render(lhs), pos.col, render(rhs))
        }
        Expr::Cast { expr, ty, .. } => format!("({} as {ty})", render(expr)),
        Expr::Un { op, operand, .. } => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("({sym}{})", render(operand))
        }
        other => panic!("unexpected node {other:?}"),
    }
}

#[test]
fn every_ordered_operator_pair_groups_by_precedence() {
    let ops = operators();
    assert_eq!(ops.len(), 18, "LANGUAGE.md lists 18 binary operators");
    let mut cases = 0;
    for &(s1, _, l1) in &ops {
        for &(s2, _, l2) in &ops {
            let expr = format!("a {s1} b {s2} c");
            // 1-based columns of the two operator tokens.
            let c1 = PREFIX.len() + 3;
            let c2 = c1 + s1.len() + 3;
            let want = if l1 >= l2 {
                format!("((a {s1}@{c1} b) {s2}@{c2} c)")
            } else {
                format!("(a {s1}@{c1} (b {s2}@{c2} c))")
            };
            assert_eq!(render(&returned(&expr)), want, "grouping of `{expr}`");
            cases += 1;
        }
    }
    assert_eq!(cases, 18 * 18);
}

#[test]
fn cast_binds_tighter_than_multiplication() {
    let c = PREFIX.len();
    assert_eq!(
        render(&returned("a * b as i32")),
        format!("(a *@{} (b as i32))", c + 3)
    );
    assert_eq!(
        render(&returned("a as i32 * b")),
        format!("((a as i32) *@{} b)", c + 10)
    );
}

#[test]
fn unary_binds_tighter_than_cast() {
    assert_eq!(render(&returned("-a as i64")), "((-a) as i64)");
    assert_eq!(render(&returned("!a as i64")), "((!a) as i64)");
    assert_eq!(
        render(&returned("-a as i64 as i32")),
        "(((-a) as i64) as i32)"
    );
}
