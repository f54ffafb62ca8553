//! The plain operators: the one table of WebAssembly's numeric and memory
//! instructions, and the payload enums every stage carries them in.
//!
//! Each row of the `ops!` invocation below declares one operator: its
//! payload variant, its opcode (a byte, or `0xfc` and a sub-opcode), its
//! [`CodeEmitter`] method name (the WAT mnemonic with `.` as `_`), its
//! operand and result types and, for a memory access, its natural width in
//! bytes. From the table the macro generates, as compile-time matches, the
//! six payload enums, each operator's [`OpRow`] (what the encoder writes
//! and the validator checks), the decoder's opcode match, the
//! `CodeEmitter` methods, the name lookup of the WAT assembler
//! ([`Instr::named`]) and the operand types the register executor re-tags
//! its untyped cells with.
//!
//! [`Instr`] carries the payloads decoded, the walk's
//! [`Op`](crate::compile::Op) moves them over unchanged, the register
//! lowering ([`crate::regalloc`]) copies them into the
//! [`RForm`](crate::regalloc::RForm) it builds, and the analyzer
//! ([`crate::analysis`]) counts both sides on the same types. The
//! [`ROp`](crate::regalloc::ROp) that executes carries a hot family's
//! operator in its tag, generated from this table's rows. Their `eval`s
//! live here too, so a new operator is one table row, one `eval` arm and
//! one arm in the test oracle.

use crate::builder::CodeEmitter;
use crate::instance::{
    trunc_f32_to_i32_s, trunc_f32_to_i64_s, trunc_f32_to_u32, trunc_f32_to_u64, trunc_f64_to_i32_s,
    trunc_f64_to_i64_s, trunc_f64_to_u32, trunc_f64_to_u64, wasm_fmax32, wasm_fmax64, wasm_fmin32,
    wasm_fmin64,
};
use crate::instr::{Instr, MemArg};
use crate::interp::Value;
use crate::trap::Trap;
use crate::types::ValType;

/// One row of the operator table: what the decoder, the encoder, the
/// validator, the builder and the WAT assembler know about a plain
/// operator.
#[derive(Debug, Clone, Copy)]
pub struct OpRow {
    /// The opcode byte, `0xfc` for a prefixed operator.
    pub opcode: u8,
    /// The LEB128 sub-opcode after a `0xfc` prefix.
    pub sub: Option<u32>,
    /// The [`CodeEmitter`] method: the WAT mnemonic with `.` as `_`.
    pub name: &'static str,
    /// Operand types, bottom of the stack first.
    pub params: &'static [ValType],
    /// Result type, if the operator pushes one.
    pub result: Option<ValType>,
    /// The natural access width in bytes of a memory row, `None` for the
    /// others.
    pub width: Option<u32>,
    /// Emit the instruction through its [`CodeEmitter`] method, passing a
    /// memory row the static offset (the others ignore it).
    pub emit: fn(&mut CodeEmitter, u32) -> &mut CodeEmitter,
}

/// `None` for no tokens, else `Some` of them: an optional table column.
macro_rules! opt {
    () => {
        None
    };
    ($($t:tt)+) => {
        Some($($t)+)
    };
}

/// A row's instruction. A memory row (one with a width) comes with a zero
/// [`MemArg`] for whoever reads its immediate to fill in.
macro_rules! instr {
    ($ctor:ident($op:path), $width:literal) => {
        Instr::$ctor($op, MemArg::default())
    };
    ($ctor:ident($op:path),) => {
        Instr::$ctor($op)
    };
}

/// A row's [`CodeEmitter`] method; a memory row takes the static offset.
macro_rules! emitter {
    ($name:ident, $ctor:ident($op:path), $width:literal) => {
        /// Memory access with the given constant offset.
        pub fn $name(&mut self, offset: u32) -> &mut Self {
            self.raw(Instr::$ctor($op, MemArg::offset(offset)))
        }
    };
    ($name:ident, $ctor:ident($op:path),) => {
        pub fn $name(&mut self) -> &mut Self {
            self.raw(Instr::$ctor($op))
        }
    };
}

/// A call of a row's [`CodeEmitter`] method, as [`OpRow::emit`].
macro_rules! emit {
    ($name:ident, $width:literal) => {
        |c, offset| c.$name(offset)
    };
    ($name:ident,) => {
        |c, _| c.$name()
    };
}

/// `operand_ty` for the payloads the register executor, whose cells are
/// untyped, re-tags before their `eval`: `Bin` and `Un`.
macro_rules! operand_ty {
    (Bin $($t:tt)+) => {
        operand_ty!(@impl $($t)+);
    };
    (Un $($t:tt)+) => {
        operand_ty!(@impl $($t)+);
    };
    (@impl $enum:ident $($v:ident [$p:ident $($rest:ident)*])+) => {
        impl $enum {
            /// The type of the (first) operand.
            #[inline(always)]
            pub(crate) fn operand_ty(self) -> ValType {
                match self {
                    $($enum::$v => ValType::$p,)+
                }
            }
        }
    };
    ($($t:tt)+) => {};
}

/// The operator table. A group per payload declares its enum; a row is
/// `Variant opcode [sub-opcode] name [operands] -> [result] [width],`.
macro_rules! ops {
    // `$d` is a `$` token, so the macro below can have metavariables of
    // its own.
    (@rows ($d:tt) $($groups:tt)+) => {
        /// `with_op_rows!(m extra…)` is `m! { extra… Ctor(Enum) { Variant… }… }`:
        /// the table's payload groups in table order, each with its rows'
        /// variants, handed to a macro that generates code per row (the
        /// register tags of [`ROp`](crate::regalloc::ROp) and the
        /// executor's arms) without a second list of operators.
        macro_rules! with_op_rows {
            ($d m:ident $d($d extra:tt)*) => {
                $d m! { $d($d extra)* $($groups)+ }
            };
        }
        pub(crate) use with_op_rows;
    };
    ($(
        $(#[$meta:meta])*
        $ctor:ident($enum:ident) {
            $($v:ident $op:literal $($sub:literal)? $name:ident
                [$($p:ident)+] -> [$($r:ident)?] $($width:literal)?,)+
        }
    )+) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            pub enum $enum {
                $($v,)+
            }

            impl $enum {
                /// This operator's row of the table.
                pub const fn row(self) -> &'static OpRow {
                    match self {
                        $($enum::$v => &OpRow {
                            opcode: $op,
                            sub: opt!($($sub)?),
                            name: stringify!($name),
                            params: &[$(ValType::$p),+],
                            result: opt!($(ValType::$r)?),
                            width: opt!($($width)?),
                            emit: emit!($name, $($width)?),
                        },)+
                    }
                }
            }

            operand_ty!($ctor $enum $($v [$($p)+])+);
        )+

        /// Every row of the table, in table order.
        pub const OP_TABLE: &[&OpRow] = &[$($($enum::$v.row(),)+)+];

        impl Instr {
            /// The plain operator whose [`CodeEmitter`] method is `name`
            /// (`i32_add`, `i64_load8_s`, …: the WAT mnemonic with `.` as
            /// `_`); a memory access comes with a zero [`MemArg`].
            pub fn named(name: &str) -> Option<Instr> {
                Some(match name {
                    $($(stringify!($name) => instr!($ctor($enum::$v), $($width)?),)+)+
                    _ => return None,
                })
            }
        }

        /// The plain operator with opcode `op` (and `sub` after a `0xfc`
        /// prefix); a memory access comes with a zero [`MemArg`] for the
        /// decoder to read in.
        pub(crate) fn decode(op: u8, sub: Option<u32>) -> Option<Instr> {
            Some(match (op, sub) {
                $($(($op, opt!($($sub)?)) => instr!($ctor($enum::$v), $($width)?),)+)+
                _ => return None,
            })
        }

        impl CodeEmitter {
            $($(emitter!($name, $ctor($enum::$v), $($width)?);)+)+
        }

        ops!(@rows ($) $($ctor($enum) { $($v)+ })+);
    };
}

ops! {
    /// Non-trapping i32 binary operator (arithmetic and comparisons;
    /// `div`/`rem` keep their own trapping ops).
    I32Bin(I32Op) {
        Add     0x6a i32_add   [I32 I32] -> [I32],
        Sub     0x6b i32_sub   [I32 I32] -> [I32],
        Mul     0x6c i32_mul   [I32 I32] -> [I32],
        And     0x71 i32_and   [I32 I32] -> [I32],
        Or      0x72 i32_or    [I32 I32] -> [I32],
        Xor     0x73 i32_xor   [I32 I32] -> [I32],
        Shl     0x74 i32_shl   [I32 I32] -> [I32],
        ShrS    0x75 i32_shr_s [I32 I32] -> [I32],
        ShrU    0x76 i32_shr_u [I32 I32] -> [I32],
        Rotl    0x77 i32_rotl  [I32 I32] -> [I32],
        Rotr    0x78 i32_rotr  [I32 I32] -> [I32],
        Eq      0x46 i32_eq    [I32 I32] -> [I32],
        Ne      0x47 i32_ne    [I32 I32] -> [I32],
        LtS     0x48 i32_lt_s  [I32 I32] -> [I32],
        LtU     0x49 i32_lt_u  [I32 I32] -> [I32],
        GtS     0x4a i32_gt_s  [I32 I32] -> [I32],
        GtU     0x4b i32_gt_u  [I32 I32] -> [I32],
        LeS     0x4c i32_le_s  [I32 I32] -> [I32],
        LeU     0x4d i32_le_u  [I32 I32] -> [I32],
        GeS     0x4e i32_ge_s  [I32 I32] -> [I32],
        GeU     0x4f i32_ge_u  [I32 I32] -> [I32],
    }

    /// Non-trapping i64 binary operators (arithmetic and comparisons;
    /// comparisons produce an i32).
    I64Bin(I64Op) {
        I64Add  0x7c i64_add   [I64 I64] -> [I64],
        I64Sub  0x7d i64_sub   [I64 I64] -> [I64],
        I64Mul  0x7e i64_mul   [I64 I64] -> [I64],
        I64And  0x83 i64_and   [I64 I64] -> [I64],
        I64Or   0x84 i64_or    [I64 I64] -> [I64],
        I64Xor  0x85 i64_xor   [I64 I64] -> [I64],
        I64Shl  0x86 i64_shl   [I64 I64] -> [I64],
        I64ShrS 0x87 i64_shr_s [I64 I64] -> [I64],
        I64ShrU 0x88 i64_shr_u [I64 I64] -> [I64],
        I64Rotl 0x89 i64_rotl  [I64 I64] -> [I64],
        I64Rotr 0x8a i64_rotr  [I64 I64] -> [I64],
        I64Eq   0x51 i64_eq    [I64 I64] -> [I32],
        I64Ne   0x52 i64_ne    [I64 I64] -> [I32],
        I64LtS  0x53 i64_lt_s  [I64 I64] -> [I32],
        I64LtU  0x54 i64_lt_u  [I64 I64] -> [I32],
        I64GtS  0x55 i64_gt_s  [I64 I64] -> [I32],
        I64GtU  0x56 i64_gt_u  [I64 I64] -> [I32],
        I64LeS  0x57 i64_le_s  [I64 I64] -> [I32],
        I64LeU  0x58 i64_le_u  [I64 I64] -> [I32],
        I64GeS  0x59 i64_ge_s  [I64 I64] -> [I32],
        I64GeU  0x5a i64_ge_u  [I64 I64] -> [I32],
    }

    /// Binary operators that either trap (integer div/rem) or operate on
    /// floats — the generic `Bin` payload. Kept out of the hot `I32Bin`/
    /// `I64Bin` paths.
    Bin(BinOp) {
        I32DivS     0x6d i32_div_s    [I32 I32] -> [I32],
        I32DivU     0x6e i32_div_u    [I32 I32] -> [I32],
        I32RemS     0x6f i32_rem_s    [I32 I32] -> [I32],
        I32RemU     0x70 i32_rem_u    [I32 I32] -> [I32],
        I64DivS     0x7f i64_div_s    [I64 I64] -> [I64],
        I64DivU     0x80 i64_div_u    [I64 I64] -> [I64],
        I64RemS     0x81 i64_rem_s    [I64 I64] -> [I64],
        I64RemU     0x82 i64_rem_u    [I64 I64] -> [I64],
        F32Eq       0x5b f32_eq       [F32 F32] -> [I32],
        F32Ne       0x5c f32_ne       [F32 F32] -> [I32],
        F32Lt       0x5d f32_lt       [F32 F32] -> [I32],
        F32Gt       0x5e f32_gt       [F32 F32] -> [I32],
        F32Le       0x5f f32_le       [F32 F32] -> [I32],
        F32Ge       0x60 f32_ge       [F32 F32] -> [I32],
        F64Eq       0x61 f64_eq       [F64 F64] -> [I32],
        F64Ne       0x62 f64_ne       [F64 F64] -> [I32],
        F64Lt       0x63 f64_lt       [F64 F64] -> [I32],
        F64Gt       0x64 f64_gt       [F64 F64] -> [I32],
        F64Le       0x65 f64_le       [F64 F64] -> [I32],
        F64Ge       0x66 f64_ge       [F64 F64] -> [I32],
        F32Add      0x92 f32_add      [F32 F32] -> [F32],
        F32Sub      0x93 f32_sub      [F32 F32] -> [F32],
        F32Mul      0x94 f32_mul      [F32 F32] -> [F32],
        F32Div      0x95 f32_div      [F32 F32] -> [F32],
        F32Min      0x96 f32_min      [F32 F32] -> [F32],
        F32Max      0x97 f32_max      [F32 F32] -> [F32],
        F32Copysign 0x98 f32_copysign [F32 F32] -> [F32],
        F64Add      0xa0 f64_add      [F64 F64] -> [F64],
        F64Sub      0xa1 f64_sub      [F64 F64] -> [F64],
        F64Mul      0xa2 f64_mul      [F64 F64] -> [F64],
        F64Div      0xa3 f64_div      [F64 F64] -> [F64],
        F64Min      0xa4 f64_min      [F64 F64] -> [F64],
        F64Max      0xa5 f64_max      [F64 F64] -> [F64],
        F64Copysign 0xa6 f64_copysign [F64 F64] -> [F64],
    }

    /// Unary operators (unops, conversions, reinterprets, saturating and
    /// trapping truncations) — the `Un` payload.
    Un(UnOp) {
        I32Eqz            0x45      i32_eqz             [I32] -> [I32],
        I32Clz            0x67      i32_clz             [I32] -> [I32],
        I32Ctz            0x68      i32_ctz             [I32] -> [I32],
        I32Popcnt         0x69      i32_popcnt          [I32] -> [I32],
        I64Eqz            0x50      i64_eqz             [I64] -> [I32],
        I64Clz            0x79      i64_clz             [I64] -> [I64],
        I64Ctz            0x7a      i64_ctz             [I64] -> [I64],
        I64Popcnt         0x7b      i64_popcnt          [I64] -> [I64],
        F32Abs            0x8b      f32_abs             [F32] -> [F32],
        F32Neg            0x8c      f32_neg             [F32] -> [F32],
        F32Ceil           0x8d      f32_ceil            [F32] -> [F32],
        F32Floor          0x8e      f32_floor           [F32] -> [F32],
        F32Trunc          0x8f      f32_trunc           [F32] -> [F32],
        F32Nearest        0x90      f32_nearest         [F32] -> [F32],
        F32Sqrt           0x91      f32_sqrt            [F32] -> [F32],
        F64Abs            0x99      f64_abs             [F64] -> [F64],
        F64Neg            0x9a      f64_neg             [F64] -> [F64],
        F64Ceil           0x9b      f64_ceil            [F64] -> [F64],
        F64Floor          0x9c      f64_floor           [F64] -> [F64],
        F64Trunc          0x9d      f64_trunc           [F64] -> [F64],
        F64Nearest        0x9e      f64_nearest         [F64] -> [F64],
        F64Sqrt           0x9f      f64_sqrt            [F64] -> [F64],
        I32WrapI64        0xa7      i32_wrap_i64        [I64] -> [I32],
        I32TruncF32S      0xa8      i32_trunc_f32_s     [F32] -> [I32],
        I32TruncF32U      0xa9      i32_trunc_f32_u     [F32] -> [I32],
        I32TruncF64S      0xaa      i32_trunc_f64_s     [F64] -> [I32],
        I32TruncF64U      0xab      i32_trunc_f64_u     [F64] -> [I32],
        I64ExtendI32S     0xac      i64_extend_i32_s    [I32] -> [I64],
        I64ExtendI32U     0xad      i64_extend_i32_u    [I32] -> [I64],
        I64TruncF32S      0xae      i64_trunc_f32_s     [F32] -> [I64],
        I64TruncF32U      0xaf      i64_trunc_f32_u     [F32] -> [I64],
        I64TruncF64S      0xb0      i64_trunc_f64_s     [F64] -> [I64],
        I64TruncF64U      0xb1      i64_trunc_f64_u     [F64] -> [I64],
        F32ConvertI32S    0xb2      f32_convert_i32_s   [I32] -> [F32],
        F32ConvertI32U    0xb3      f32_convert_i32_u   [I32] -> [F32],
        F32ConvertI64S    0xb4      f32_convert_i64_s   [I64] -> [F32],
        F32ConvertI64U    0xb5      f32_convert_i64_u   [I64] -> [F32],
        F32DemoteF64      0xb6      f32_demote_f64      [F64] -> [F32],
        F64ConvertI32S    0xb7      f64_convert_i32_s   [I32] -> [F64],
        F64ConvertI32U    0xb8      f64_convert_i32_u   [I32] -> [F64],
        F64ConvertI64S    0xb9      f64_convert_i64_s   [I64] -> [F64],
        F64ConvertI64U    0xba      f64_convert_i64_u   [I64] -> [F64],
        F64PromoteF32     0xbb      f64_promote_f32     [F32] -> [F64],
        I32ReinterpretF32 0xbc      i32_reinterpret_f32 [F32] -> [I32],
        I64ReinterpretF64 0xbd      i64_reinterpret_f64 [F64] -> [I64],
        F32ReinterpretI32 0xbe      f32_reinterpret_i32 [I32] -> [F32],
        F64ReinterpretI64 0xbf      f64_reinterpret_i64 [I64] -> [F64],
        I32Extend8S       0xc0      i32_extend8_s       [I32] -> [I32],
        I32Extend16S      0xc1      i32_extend16_s      [I32] -> [I32],
        I64Extend8S       0xc2      i64_extend8_s       [I64] -> [I64],
        I64Extend16S      0xc3      i64_extend16_s      [I64] -> [I64],
        I64Extend32S      0xc4      i64_extend32_s      [I64] -> [I64],
        I32TruncSatF32S   0xfc 0x00 i32_trunc_sat_f32_s [F32] -> [I32],
        I32TruncSatF32U   0xfc 0x01 i32_trunc_sat_f32_u [F32] -> [I32],
        I32TruncSatF64S   0xfc 0x02 i32_trunc_sat_f64_s [F64] -> [I32],
        I32TruncSatF64U   0xfc 0x03 i32_trunc_sat_f64_u [F64] -> [I32],
        I64TruncSatF32S   0xfc 0x04 i64_trunc_sat_f32_s [F32] -> [I64],
        I64TruncSatF32U   0xfc 0x05 i64_trunc_sat_f32_u [F32] -> [I64],
        I64TruncSatF64S   0xfc 0x06 i64_trunc_sat_f64_s [F64] -> [I64],
        I64TruncSatF64U   0xfc 0x07 i64_trunc_sat_f64_u [F64] -> [I64],
    }

    /// Memory load flavour: result type plus access width/extension.
    Load(LoadKind) {
        I32    0x28 i32_load     [I32] -> [I32] 4,
        I64    0x29 i64_load     [I32] -> [I64] 8,
        F32    0x2a f32_load     [I32] -> [F32] 4,
        F64    0x2b f64_load     [I32] -> [F64] 8,
        I32S8  0x2c i32_load8_s  [I32] -> [I32] 1,
        I32U8  0x2d i32_load8_u  [I32] -> [I32] 1,
        I32S16 0x2e i32_load16_s [I32] -> [I32] 2,
        I32U16 0x2f i32_load16_u [I32] -> [I32] 2,
        I64S8  0x30 i64_load8_s  [I32] -> [I64] 1,
        I64U8  0x31 i64_load8_u  [I32] -> [I64] 1,
        I64S16 0x32 i64_load16_s [I32] -> [I64] 2,
        I64U16 0x33 i64_load16_u [I32] -> [I64] 2,
        I64S32 0x34 i64_load32_s [I32] -> [I64] 4,
        I64U32 0x35 i64_load32_u [I32] -> [I64] 4,
    }

    /// Memory store flavour: operand type plus stored width.
    Store(StoreKind) {
        I32     0x36 i32_store   [I32 I32] -> [] 4,
        I64     0x37 i64_store   [I32 I64] -> [] 8,
        F32     0x38 f32_store   [I32 F32] -> [] 4,
        F64     0x39 f64_store   [I32 F64] -> [] 8,
        I32Lo8  0x3a i32_store8  [I32 I32] -> [] 1,
        I32Lo16 0x3b i32_store16 [I32 I32] -> [] 2,
        I64Lo8  0x3c i64_store8  [I32 I64] -> [] 1,
        I64Lo16 0x3d i64_store16 [I32 I64] -> [] 2,
        I64Lo32 0x3e i64_store32 [I32 I64] -> [] 4,
    }
}

impl I32Op {
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
    pub(crate) fn eval(self, a: i32, b: i32) -> i32 {
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

impl BinOp {
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

impl UnOp {
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
