//! The operator vocabulary both compiled IRs share.
//!
//! A plain numeric or memory instruction is classified exactly once, at
//! `Instr → Op` ([`crate::compile`]), into one of the six payload enums
//! below; the flat [`Op`](crate::compile::Op) carries that payload, the
//! register lowering ([`crate::regalloc`]) copies it into the
//! [`ROp`](crate::regalloc::ROp) that executes, and the analyzer
//! ([`crate::analysis`]) counts both sides on the same types. The enums,
//! their `from_instr` classifiers and their `eval`s live here together,
//! so a new operator is one enum member, one classifier line and one
//! `eval` arm.

use crate::instance::{
    trunc_f32_to_i32_s, trunc_f32_to_i64_s, trunc_f32_to_u32, trunc_f32_to_u64, trunc_f64_to_i32_s,
    trunc_f64_to_i64_s, trunc_f64_to_u32, trunc_f64_to_u64, wasm_fmax32, wasm_fmax64, wasm_fmin32,
    wasm_fmin64,
};
use crate::instr::Instr;
use crate::interp::Value;
use crate::trap::Trap;
use crate::types::ValType;

/// Non-trapping i32 binary operator (arithmetic and comparisons;
/// `div`/`rem` keep their own trapping ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I32Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Rotl,
    Rotr,
    Eq,
    Ne,
    LtS,
    LtU,
    GtS,
    GtU,
    LeS,
    LeU,
    GeS,
    GeU,
}

impl I32Op {
    /// The operator for a decoded instruction, when it is one.
    pub(crate) fn from_instr(i: &Instr) -> Option<I32Op> {
        Some(match i {
            Instr::I32Add => I32Op::Add,
            Instr::I32Sub => I32Op::Sub,
            Instr::I32Mul => I32Op::Mul,
            Instr::I32And => I32Op::And,
            Instr::I32Or => I32Op::Or,
            Instr::I32Xor => I32Op::Xor,
            Instr::I32Shl => I32Op::Shl,
            Instr::I32ShrS => I32Op::ShrS,
            Instr::I32ShrU => I32Op::ShrU,
            Instr::I32Rotl => I32Op::Rotl,
            Instr::I32Rotr => I32Op::Rotr,
            Instr::I32Eq => I32Op::Eq,
            Instr::I32Ne => I32Op::Ne,
            Instr::I32LtS => I32Op::LtS,
            Instr::I32LtU => I32Op::LtU,
            Instr::I32GtS => I32Op::GtS,
            Instr::I32GtU => I32Op::GtU,
            Instr::I32LeS => I32Op::LeS,
            Instr::I32LeU => I32Op::LeU,
            Instr::I32GeS => I32Op::GeS,
            Instr::I32GeU => I32Op::GeU,
            _ => return None,
        })
    }

    pub(crate) fn commutative(self) -> bool {
        matches!(
            self,
            I32Op::Add | I32Op::Mul | I32Op::And | I32Op::Or | I32Op::Xor | I32Op::Eq | I32Op::Ne
        )
    }

    /// Logical negation, defined for comparisons only (integer comparisons
    /// are a total order, so `!(a < b) == a >= b` always holds — unlike
    /// floats, which is why float compares never absorb an `i32.eqz`).
    pub(crate) fn negate(self) -> Option<I32Op> {
        Some(match self {
            I32Op::Eq => I32Op::Ne,
            I32Op::Ne => I32Op::Eq,
            I32Op::LtS => I32Op::GeS,
            I32Op::LtU => I32Op::GeU,
            I32Op::GtS => I32Op::LeS,
            I32Op::GtU => I32Op::LeU,
            I32Op::LeS => I32Op::GtS,
            I32Op::LeU => I32Op::GtU,
            I32Op::GeS => I32Op::LtS,
            I32Op::GeU => I32Op::LtU,
            _ => return None,
        })
    }

    /// Evaluate the operator. Comparisons produce 0/1.
    #[inline(always)]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            I32Op::Add => a.wrapping_add(b),
            I32Op::Sub => a.wrapping_sub(b),
            I32Op::Mul => a.wrapping_mul(b),
            I32Op::And => a & b,
            I32Op::Or => a | b,
            I32Op::Xor => a ^ b,
            I32Op::Shl => a.wrapping_shl(b as u32),
            I32Op::ShrS => a.wrapping_shr(b as u32),
            I32Op::ShrU => ((a as u32).wrapping_shr(b as u32)) as i32,
            I32Op::Rotl => a.rotate_left(b as u32 & 31),
            I32Op::Rotr => a.rotate_right(b as u32 & 31),
            I32Op::Eq => (a == b) as i32,
            I32Op::Ne => (a != b) as i32,
            I32Op::LtS => (a < b) as i32,
            I32Op::LtU => ((a as u32) < (b as u32)) as i32,
            I32Op::GtS => (a > b) as i32,
            I32Op::GtU => ((a as u32) > (b as u32)) as i32,
            I32Op::LeS => (a <= b) as i32,
            I32Op::LeU => ((a as u32) <= (b as u32)) as i32,
            I32Op::GeS => (a >= b) as i32,
            I32Op::GeU => ((a as u32) >= (b as u32)) as i32,
        }
    }
}

/// Defines an operator enum whose variants mirror a subset of [`Instr`]
/// one-to-one, plus the `from_instr` table that maps them over.
macro_rules! mirror_ops {
    ($(#[$meta:meta])* $name:ident: $($v:ident),* $(,)?) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name { $($v),* }
        impl $name {
            pub(crate) fn from_instr(i: &Instr) -> Option<$name> {
                match i {
                    $(Instr::$v => Some($name::$v),)*
                    _ => None,
                }
            }
        }
    };
}

mirror_ops! {
    /// Non-trapping i64 binary operators (arithmetic and comparisons;
    /// comparisons produce an i32).
    I64Op:
    I64Add, I64Sub, I64Mul, I64And, I64Or, I64Xor, I64Shl, I64ShrS, I64ShrU,
    I64Rotl, I64Rotr, I64Eq, I64Ne, I64LtS, I64LtU, I64GtS, I64GtU, I64LeS,
    I64LeU, I64GeS, I64GeU,
}

impl I64Op {
    #[inline(always)]
    pub(crate) fn eval(self, a: i64, b: i64) -> Value {
        use I64Op::*;
        match self {
            I64Add => Value::I64(a.wrapping_add(b)),
            I64Sub => Value::I64(a.wrapping_sub(b)),
            I64Mul => Value::I64(a.wrapping_mul(b)),
            I64And => Value::I64(a & b),
            I64Or => Value::I64(a | b),
            I64Xor => Value::I64(a ^ b),
            I64Shl => Value::I64(a.wrapping_shl(b as u32)),
            I64ShrS => Value::I64(a.wrapping_shr(b as u32)),
            I64ShrU => Value::I64(((a as u64).wrapping_shr(b as u32)) as i64),
            I64Rotl => Value::I64(a.rotate_left(b as u32 & 63)),
            I64Rotr => Value::I64(a.rotate_right(b as u32 & 63)),
            I64Eq => Value::I32((a == b) as i32),
            I64Ne => Value::I32((a != b) as i32),
            I64LtS => Value::I32((a < b) as i32),
            I64LtU => Value::I32(((a as u64) < (b as u64)) as i32),
            I64GtS => Value::I32((a > b) as i32),
            I64GtU => Value::I32(((a as u64) > (b as u64)) as i32),
            I64LeS => Value::I32((a <= b) as i32),
            I64LeU => Value::I32(((a as u64) <= (b as u64)) as i32),
            I64GeS => Value::I32((a >= b) as i32),
            I64GeU => Value::I32(((a as u64) >= (b as u64)) as i32),
        }
    }
}

mirror_ops! {
    /// Binary operators that either trap (integer div/rem) or operate on
    /// floats — the generic `Bin` payload. Kept out of the hot `I32Bin`/
    /// `I64Bin` paths.
    BinOp:
    I32DivS, I32DivU, I32RemS, I32RemU, I64DivS, I64DivU, I64RemS, I64RemU,
    F32Eq, F32Ne, F32Lt, F32Gt, F32Le, F32Ge,
    F64Eq, F64Ne, F64Lt, F64Gt, F64Le, F64Ge,
    F32Add, F32Sub, F32Mul, F32Div, F32Min, F32Max, F32Copysign,
    F64Add, F64Sub, F64Mul, F64Div, F64Min, F64Max, F64Copysign,
}

impl BinOp {
    /// The type of both operands: what the register executor, whose cells
    /// are untyped, re-tags them as before [`Self::eval`].
    #[inline(always)]
    pub(crate) fn operand_ty(self) -> ValType {
        use BinOp::*;
        match self {
            I32DivS | I32DivU | I32RemS | I32RemU => ValType::I32,
            I64DivS | I64DivU | I64RemS | I64RemU => ValType::I64,
            F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F32Add | F32Sub | F32Mul | F32Div
            | F32Min | F32Max | F32Copysign => ValType::F32,
            F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge | F64Add | F64Sub | F64Mul | F64Div
            | F64Min | F64Max | F64Copysign => ValType::F64,
        }
    }

    #[inline(always)]
    pub(crate) fn eval(self, a: Value, b: Value) -> Result<Value, Trap> {
        use BinOp::*;
        Ok(match self {
            I32DivS => {
                let (a, b) = (a.as_i32(), b.as_i32());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                if a == i32::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                Value::I32(a.wrapping_div(b))
            }
            I32DivU => {
                let (a, b) = (a.as_i32(), b.as_i32());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I32(((a as u32) / (b as u32)) as i32)
            }
            I32RemS => {
                let (a, b) = (a.as_i32(), b.as_i32());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I32(a.wrapping_rem(b))
            }
            I32RemU => {
                let (a, b) = (a.as_i32(), b.as_i32());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I32(((a as u32) % (b as u32)) as i32)
            }
            I64DivS => {
                let (a, b) = (a.as_i64(), b.as_i64());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                if a == i64::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                Value::I64(a.wrapping_div(b))
            }
            I64DivU => {
                let (a, b) = (a.as_i64(), b.as_i64());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I64(((a as u64) / (b as u64)) as i64)
            }
            I64RemS => {
                let (a, b) = (a.as_i64(), b.as_i64());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I64(a.wrapping_rem(b))
            }
            I64RemU => {
                let (a, b) = (a.as_i64(), b.as_i64());
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                Value::I64(((a as u64) % (b as u64)) as i64)
            }
            F32Eq => Value::I32((a.as_f32() == b.as_f32()) as i32),
            F32Ne => Value::I32((a.as_f32() != b.as_f32()) as i32),
            F32Lt => Value::I32((a.as_f32() < b.as_f32()) as i32),
            F32Gt => Value::I32((a.as_f32() > b.as_f32()) as i32),
            F32Le => Value::I32((a.as_f32() <= b.as_f32()) as i32),
            F32Ge => Value::I32((a.as_f32() >= b.as_f32()) as i32),
            F64Eq => Value::I32((a.as_f64() == b.as_f64()) as i32),
            F64Ne => Value::I32((a.as_f64() != b.as_f64()) as i32),
            F64Lt => Value::I32((a.as_f64() < b.as_f64()) as i32),
            F64Gt => Value::I32((a.as_f64() > b.as_f64()) as i32),
            F64Le => Value::I32((a.as_f64() <= b.as_f64()) as i32),
            F64Ge => Value::I32((a.as_f64() >= b.as_f64()) as i32),
            F32Add => Value::F32(a.as_f32() + b.as_f32()),
            F32Sub => Value::F32(a.as_f32() - b.as_f32()),
            F32Mul => Value::F32(a.as_f32() * b.as_f32()),
            F32Div => Value::F32(a.as_f32() / b.as_f32()),
            F32Min => Value::F32(wasm_fmin32(a.as_f32(), b.as_f32())),
            F32Max => Value::F32(wasm_fmax32(a.as_f32(), b.as_f32())),
            F32Copysign => Value::F32(a.as_f32().copysign(b.as_f32())),
            F64Add => Value::F64(a.as_f64() + b.as_f64()),
            F64Sub => Value::F64(a.as_f64() - b.as_f64()),
            F64Mul => Value::F64(a.as_f64() * b.as_f64()),
            F64Div => Value::F64(a.as_f64() / b.as_f64()),
            F64Min => Value::F64(wasm_fmin64(a.as_f64(), b.as_f64())),
            F64Max => Value::F64(wasm_fmax64(a.as_f64(), b.as_f64())),
            F64Copysign => Value::F64(a.as_f64().copysign(b.as_f64())),
        })
    }
}

mirror_ops! {
    /// Unary operators (unops, conversions, reinterprets, saturating and
    /// trapping truncations) — the `Un` payload.
    UnOp:
    I32Eqz, I32Clz, I32Ctz, I32Popcnt,
    I64Eqz, I64Clz, I64Ctz, I64Popcnt,
    F32Abs, F32Neg, F32Ceil, F32Floor, F32Trunc, F32Nearest, F32Sqrt,
    F64Abs, F64Neg, F64Ceil, F64Floor, F64Trunc, F64Nearest, F64Sqrt,
    I32WrapI64, I32TruncF32S, I32TruncF32U, I32TruncF64S, I32TruncF64U,
    I64ExtendI32S, I64ExtendI32U, I64TruncF32S, I64TruncF32U, I64TruncF64S,
    I64TruncF64U, F32ConvertI32S, F32ConvertI32U, F32ConvertI64S,
    F32ConvertI64U, F32DemoteF64, F64ConvertI32S, F64ConvertI32U,
    F64ConvertI64S, F64ConvertI64U, F64PromoteF32, I32ReinterpretF32,
    I64ReinterpretF64, F32ReinterpretI32, F64ReinterpretI64,
    I32Extend8S, I32Extend16S, I64Extend8S, I64Extend16S, I64Extend32S,
    I32TruncSatF32S, I32TruncSatF32U, I32TruncSatF64S, I32TruncSatF64U,
    I64TruncSatF32S, I64TruncSatF32U, I64TruncSatF64S, I64TruncSatF64U,
}

impl UnOp {
    /// The operand's type (see [`BinOp::operand_ty`]).
    #[inline(always)]
    pub(crate) fn operand_ty(self) -> ValType {
        use UnOp::*;
        match self {
            I32Eqz | I32Clz | I32Ctz | I32Popcnt | I64ExtendI32S | I64ExtendI32U
            | F32ConvertI32S | F32ConvertI32U | F64ConvertI32S | F64ConvertI32U
            | F32ReinterpretI32 | I32Extend8S | I32Extend16S => ValType::I32,
            I64Eqz | I64Clz | I64Ctz | I64Popcnt | I32WrapI64 | F32ConvertI64S | F32ConvertI64U
            | F64ConvertI64S | F64ConvertI64U | F64ReinterpretI64 | I64Extend8S | I64Extend16S
            | I64Extend32S => ValType::I64,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt
            | I32TruncF32S | I32TruncF32U | I64TruncF32S | I64TruncF32U | F64PromoteF32
            | I32ReinterpretF32 | I32TruncSatF32S | I32TruncSatF32U | I64TruncSatF32S
            | I64TruncSatF32U => ValType::F32,
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt
            | I32TruncF64S | I32TruncF64U | I64TruncF64S | I64TruncF64U | F32DemoteF64
            | I64ReinterpretF64 | I32TruncSatF64S | I32TruncSatF64U | I64TruncSatF64S
            | I64TruncSatF64U => ValType::F64,
        }
    }

    #[inline(always)]
    pub(crate) fn eval(self, a: Value) -> Result<Value, Trap> {
        use UnOp::*;
        Ok(match self {
            I32Eqz => Value::I32((a.as_i32() == 0) as i32),
            I32Clz => Value::I32(a.as_i32().leading_zeros() as i32),
            I32Ctz => Value::I32(a.as_i32().trailing_zeros() as i32),
            I32Popcnt => Value::I32(a.as_i32().count_ones() as i32),
            I64Eqz => Value::I32((a.as_i64() == 0) as i32),
            I64Clz => Value::I64(a.as_i64().leading_zeros() as i64),
            I64Ctz => Value::I64(a.as_i64().trailing_zeros() as i64),
            I64Popcnt => Value::I64(a.as_i64().count_ones() as i64),
            F32Abs => Value::F32(a.as_f32().abs()),
            F32Neg => Value::F32(-a.as_f32()),
            F32Ceil => Value::F32(a.as_f32().ceil()),
            F32Floor => Value::F32(a.as_f32().floor()),
            F32Trunc => Value::F32(a.as_f32().trunc()),
            F32Nearest => Value::F32(a.as_f32().round_ties_even()),
            F32Sqrt => Value::F32(a.as_f32().sqrt()),
            F64Abs => Value::F64(a.as_f64().abs()),
            F64Neg => Value::F64(-a.as_f64()),
            F64Ceil => Value::F64(a.as_f64().ceil()),
            F64Floor => Value::F64(a.as_f64().floor()),
            F64Trunc => Value::F64(a.as_f64().trunc()),
            F64Nearest => Value::F64(a.as_f64().round_ties_even()),
            F64Sqrt => Value::F64(a.as_f64().sqrt()),
            I32WrapI64 => Value::I32(a.as_i64() as i32),
            I32TruncF32S => Value::I32(trunc_f32_to_i32_s(a.as_f32())?),
            I32TruncF32U => Value::I32(trunc_f32_to_u32(a.as_f32())? as i32),
            I32TruncF64S => Value::I32(trunc_f64_to_i32_s(a.as_f64())?),
            I32TruncF64U => Value::I32(trunc_f64_to_u32(a.as_f64())? as i32),
            I64ExtendI32S => Value::I64(a.as_i32() as i64),
            I64ExtendI32U => Value::I64(a.as_i32() as u32 as i64),
            I64TruncF32S => Value::I64(trunc_f32_to_i64_s(a.as_f32())?),
            I64TruncF32U => Value::I64(trunc_f32_to_u64(a.as_f32())? as i64),
            I64TruncF64S => Value::I64(trunc_f64_to_i64_s(a.as_f64())?),
            I64TruncF64U => Value::I64(trunc_f64_to_u64(a.as_f64())? as i64),
            F32ConvertI32S => Value::F32(a.as_i32() as f32),
            F32ConvertI32U => Value::F32(a.as_i32() as u32 as f32),
            F32ConvertI64S => Value::F32(a.as_i64() as f32),
            F32ConvertI64U => Value::F32(a.as_i64() as u64 as f32),
            F32DemoteF64 => Value::F32(a.as_f64() as f32),
            F64ConvertI32S => Value::F64(a.as_i32() as f64),
            F64ConvertI32U => Value::F64(a.as_i32() as u32 as f64),
            F64ConvertI64S => Value::F64(a.as_i64() as f64),
            F64ConvertI64U => Value::F64(a.as_i64() as u64 as f64),
            F64PromoteF32 => Value::F64(a.as_f32() as f64),
            I32ReinterpretF32 => Value::I32(a.as_f32().to_bits() as i32),
            I64ReinterpretF64 => Value::I64(a.as_f64().to_bits() as i64),
            F32ReinterpretI32 => Value::F32(f32::from_bits(a.as_i32() as u32)),
            F64ReinterpretI64 => Value::F64(f64::from_bits(a.as_i64() as u64)),
            I32Extend8S => Value::I32(a.as_i32() as i8 as i32),
            I32Extend16S => Value::I32(a.as_i32() as i16 as i32),
            I64Extend8S => Value::I64(a.as_i64() as i8 as i64),
            I64Extend16S => Value::I64(a.as_i64() as i16 as i64),
            I64Extend32S => Value::I64(a.as_i64() as i32 as i64),
            I32TruncSatF32S => Value::I32(a.as_f32() as i32),
            I32TruncSatF32U => Value::I32(a.as_f32() as u32 as i32),
            I32TruncSatF64S => Value::I32(a.as_f64() as i32),
            I32TruncSatF64U => Value::I32(a.as_f64() as u32 as i32),
            I64TruncSatF32S => Value::I64(a.as_f32() as i64),
            I64TruncSatF32U => Value::I64(a.as_f32() as u64 as i64),
            I64TruncSatF64S => Value::I64(a.as_f64() as i64),
            I64TruncSatF64U => Value::I64(a.as_f64() as u64 as i64),
        })
    }
}

/// Memory load flavour: result type plus access width/extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    I32,
    I64,
    F32,
    F64,
    I32S8,
    I32U8,
    I32S16,
    I32U16,
    I64S8,
    I64U8,
    I64S16,
    I64U16,
    I64S32,
    I64U32,
}

/// Memory store flavour: operand type plus stored width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    I32,
    I64,
    F32,
    F64,
    I32Lo8,
    I32Lo16,
    I64Lo8,
    I64Lo16,
    I64Lo32,
}

impl LoadKind {
    /// The load flavour and static offset of a decoded instruction.
    pub(crate) fn from_instr(i: &Instr) -> Option<(LoadKind, u32)> {
        Some(match i {
            Instr::I32Load(m) => (LoadKind::I32, m.offset),
            Instr::I64Load(m) => (LoadKind::I64, m.offset),
            Instr::F32Load(m) => (LoadKind::F32, m.offset),
            Instr::F64Load(m) => (LoadKind::F64, m.offset),
            Instr::I32Load8S(m) => (LoadKind::I32S8, m.offset),
            Instr::I32Load8U(m) => (LoadKind::I32U8, m.offset),
            Instr::I32Load16S(m) => (LoadKind::I32S16, m.offset),
            Instr::I32Load16U(m) => (LoadKind::I32U16, m.offset),
            Instr::I64Load8S(m) => (LoadKind::I64S8, m.offset),
            Instr::I64Load8U(m) => (LoadKind::I64U8, m.offset),
            Instr::I64Load16S(m) => (LoadKind::I64S16, m.offset),
            Instr::I64Load16U(m) => (LoadKind::I64U16, m.offset),
            Instr::I64Load32S(m) => (LoadKind::I64S32, m.offset),
            Instr::I64Load32U(m) => (LoadKind::I64U32, m.offset),
            _ => return None,
        })
    }
}

impl StoreKind {
    /// The store flavour and static offset of a decoded instruction.
    pub(crate) fn from_instr(i: &Instr) -> Option<(StoreKind, u32)> {
        Some(match i {
            Instr::I32Store(m) => (StoreKind::I32, m.offset),
            Instr::I64Store(m) => (StoreKind::I64, m.offset),
            Instr::F32Store(m) => (StoreKind::F32, m.offset),
            Instr::F64Store(m) => (StoreKind::F64, m.offset),
            Instr::I32Store8(m) => (StoreKind::I32Lo8, m.offset),
            Instr::I32Store16(m) => (StoreKind::I32Lo16, m.offset),
            Instr::I64Store8(m) => (StoreKind::I64Lo8, m.offset),
            Instr::I64Store16(m) => (StoreKind::I64Lo16, m.offset),
            Instr::I64Store32(m) => (StoreKind::I64Lo32, m.offset),
            _ => return None,
        })
    }
}
