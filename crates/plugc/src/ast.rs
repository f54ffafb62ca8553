//! PlugC abstract syntax tree.

use waran_wasm::builder::CodeEmitter;

use crate::lexer::Pos;

/// A PlugC value type (maps 1:1 onto Wasm value types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl Type {
    /// True for i32/i64.
    pub fn is_int(self) -> bool {
        matches!(self, Type::I32 | Type::I64)
    }

    /// The corresponding Wasm value type.
    pub fn to_wasm(self) -> waran_wasm::types::ValType {
        use waran_wasm::types::ValType;
        match self {
            Type::I32 => ValType::I32,
            Type::I64 => ValType::I64,
            Type::F32 => ValType::F32,
            Type::F64 => ValType::F64,
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
        };
        write!(f, "{s}")
    }
}

/// A whole program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `extern fn name(params) -> ret;` — a host import from "env".
    ExternFn(FnSig),
    /// `export? fn name(params) -> ret { body }`.
    Fn(FnDecl),
    /// `export? global name: ty = literal;` (mutable) or `export? const …`
    /// (immutable).
    Global(GlobalDecl),
}

/// A function signature.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Type)>,
    /// Return type, if any.
    pub ret: Option<Type>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Signature.
    pub sig: FnSig,
    /// True when the function is exported from the module.
    pub exported: bool,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A module-level variable.
#[derive(Debug, Clone)]
pub struct GlobalDecl {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// True for `global`, false for `const`.
    pub mutable: bool,
    /// True when the global is exported from the module under its name.
    pub exported: bool,
    /// Literal initializer.
    pub init: Literal,
    /// Source position.
    pub pos: Pos,
}

/// A literal value (the only legal global initializer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Literal {
    /// The literal's type.
    pub fn ty(self) -> Type {
        match self {
            Literal::I32(_) => Type::I32,
            Literal::I64(_) => Type::I64,
            Literal::F32(_) => Type::F32,
            Literal::F64(_) => Type::F64,
        }
    }
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `var name: ty = expr;`
    Var {
        name: String,
        ty: Type,
        init: Expr,
        pos: Pos,
    },
    /// `name = expr;`
    Assign { name: String, value: Expr, pos: Pos },
    /// `if (cond) { then } else { els }`
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        pos: Pos,
    },
    /// `while (cond) { body }`
    While {
        cond: Expr,
        body: Vec<Stmt>,
        pos: Pos,
    },
    /// `return expr?;`
    Return { value: Option<Expr>, pos: Pos },
    /// `break;`
    Break { pos: Pos },
    /// `continue;`
    Continue { pos: Pos },
    /// `expr;` (value, if any, is dropped)
    Expr { expr: Expr, pos: Pos },
    /// `{ … }`
    Block { body: Vec<Stmt>, pos: Pos },
}

impl Stmt {
    /// Source position.
    pub fn pos(&self) -> Pos {
        match self {
            Stmt::Var { pos, .. }
            | Stmt::Assign { pos, .. }
            | Stmt::If { pos, .. }
            | Stmt::While { pos, .. }
            | Stmt::Return { pos, .. }
            | Stmt::Break { pos }
            | Stmt::Continue { pos }
            | Stmt::Expr { pos, .. }
            | Stmt::Block { pos, .. } => *pos,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LogicalAnd,
    LogicalOr,
}

impl BinOp {
    /// True for comparison operators (result is i32).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for operators defined only on integers.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Rem
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Shl
                | BinOp::Shr
                | BinOp::LogicalAnd
                | BinOp::LogicalOr
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x`, integers only, yields i32 0/1).
    Not,
}

/// An expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal.
    Lit(Literal, Pos),
    /// Variable (local, param, global or const).
    Ident(String, Pos),
    /// Binary operation.
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// Unary operation.
    Un {
        op: UnOp,
        operand: Box<Expr>,
        pos: Pos,
    },
    /// `expr as ty`.
    Cast { expr: Box<Expr>, ty: Type, pos: Pos },
    /// Function or intrinsic call.
    Call {
        name: String,
        args: Vec<Expr>,
        pos: Pos,
    },
}

impl Expr {
    /// Source position.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Lit(_, pos)
            | Expr::Ident(_, pos)
            | Expr::Bin { pos, .. }
            | Expr::Un { pos, .. }
            | Expr::Cast { pos, .. }
            | Expr::Call { pos, .. } => *pos,
        }
    }
}

/// One step of an intrinsic's lowering.
#[derive(Debug)]
pub enum Step {
    /// Evaluate argument `i` onto the operand stack.
    Arg(usize),
    /// Emit instructions.
    Emit(fn(&mut CodeEmitter) -> &mut CodeEmitter),
}

/// An intrinsic every PlugC module can call without declaring: its name,
/// signature, whether it is pure (reads no memory, cannot trap, has no
/// effect, so the optimiser may move it) and the steps a call lowers to.
#[derive(Debug)]
pub struct Intrinsic {
    pub name: &'static str,
    pub params: &'static [Type],
    pub ret: Option<Type>,
    pub pure: bool,
    pub lowering: &'static [Step],
}

/// The [`INTRINSICS`] table: a row is `name [params] -> ret, pure, steps;`.
macro_rules! intrinsics {
    ($($name:literal [$($param:ident),*] -> $ret:expr, $pure:literal, $steps:expr;)*) => {
        &[$(Intrinsic {
            name: $name,
            params: &[$($param),*],
            ret: $ret,
            pure: $pure,
            lowering: $steps,
        }),*]
    };
}

/// The intrinsic functions every PlugC module can call without declaring.
/// The type checker, the optimiser and the code generator all read this
/// table. `pack(ptr, len)` is the ABI's `(ptr << 32) | len` return
/// convention, both halves zero-extended.
pub const INTRINSICS: &[Intrinsic] = {
    use Step::{Arg, Emit};
    use Type::{F32, F64, I32, I64};
    intrinsics! {
        "load_u8" [I32] -> Some(I32), false, &[Arg(0), Emit(|c| c.i32_load8_u(0))];
        "load_i32" [I32] -> Some(I32), false, &[Arg(0), Emit(|c| c.i32_load(0))];
        "load_i64" [I32] -> Some(I64), false, &[Arg(0), Emit(|c| c.i64_load(0))];
        "load_f32" [I32] -> Some(F32), false, &[Arg(0), Emit(|c| c.f32_load(0))];
        "load_f64" [I32] -> Some(F64), false, &[Arg(0), Emit(|c| c.f64_load(0))];
        "store_u8" [I32, I32] -> None, false, &[Arg(0), Arg(1), Emit(|c| c.i32_store8(0))];
        "store_i32" [I32, I32] -> None, false, &[Arg(0), Arg(1), Emit(|c| c.i32_store(0))];
        "store_i64" [I32, I64] -> None, false, &[Arg(0), Arg(1), Emit(|c| c.i64_store(0))];
        "store_f32" [I32, F32] -> None, false, &[Arg(0), Arg(1), Emit(|c| c.f32_store(0))];
        "store_f64" [I32, F64] -> None, false, &[Arg(0), Arg(1), Emit(|c| c.f64_store(0))];
        "memory_size" [] -> Some(I32), false, &[Emit(|c| c.memory_size())];
        "memory_grow" [I32] -> Some(I32), false, &[Arg(0), Emit(|c| c.memory_grow())];
        "sqrt" [F64] -> Some(F64), true, &[Arg(0), Emit(|c| c.f64_sqrt())];
        "floor" [F64] -> Some(F64), true, &[Arg(0), Emit(|c| c.f64_floor())];
        "ceil" [F64] -> Some(F64), true, &[Arg(0), Emit(|c| c.f64_ceil())];
        "abs" [F64] -> Some(F64), true, &[Arg(0), Emit(|c| c.f64_abs())];
        "min" [F64, F64] -> Some(F64), true, &[Arg(0), Arg(1), Emit(|c| c.f64_min())];
        "max" [F64, F64] -> Some(F64), true, &[Arg(0), Arg(1), Emit(|c| c.f64_max())];
        "pack" [I32, I32] -> Some(I64), true, &[
            Arg(0), Emit(|c| c.i64_extend_i32_u().i64_const(32).i64_shl()),
            Arg(1), Emit(|c| c.i64_extend_i32_u().i64_or()),
        ];
        "trap" [] -> None, false, &[Emit(|c| c.unreachable())];
    }
};

/// Look up an intrinsic by name.
pub fn intrinsic(name: &str) -> Option<&'static Intrinsic> {
    INTRINSICS.iter().find(|i| i.name == name)
}
