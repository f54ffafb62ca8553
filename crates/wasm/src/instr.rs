//! The decoded instruction set.
//!
//! Control, variable, bulk-memory and constant instructions are variants of
//! their own; every plain numeric or memory operator is one of six payload
//! variants over the operator table's enums ([`I32Op`], [`I64Op`],
//! [`BinOp`], [`UnOp`], [`LoadKind`], [`StoreKind`]), whose rows
//! ([`OpRow`], [`OP_TABLE`]) say what each one's opcode, builder method and
//! signature are.
//!
//! Instructions are stored flat (one `Vec<Instr>` per function body),
//! exactly as the binary spells them: `block`, `loop`, `if`, `else` and
//! `end` carry no resolved program counters and nothing checks here that
//! they nest. The type-checking walk in `compile.rs` is the one place that
//! matches each `end` and `else` to its block and refuses a body where
//! they do not nest.

pub use crate::ops::{BinOp, I32Op, I64Op, LoadKind, OpRow, StoreKind, UnOp, OP_TABLE};
use crate::types::BlockType;

/// Alignment + offset immediate of a memory access instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// log2 of the alignment hint (has no semantic effect in this VM).
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// Convenience constructor with natural alignment.
    pub fn offset(offset: u32) -> Self {
        MemArg { align: 0, offset }
    }
}

/// A decoded WebAssembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // -- control -----------------------------------------------------------
    /// Trap unconditionally.
    Unreachable,
    /// Do nothing.
    Nop,
    /// Begin a block (branch target is its `End`).
    Block {
        ty: BlockType,
    },
    /// Begin a loop (branch target is the loop header itself).
    Loop {
        ty: BlockType,
    },
    /// Conditional: pops an i32 and runs the then arm when it is non-zero,
    /// else the arm after its `Else`, if any.
    If {
        ty: BlockType,
    },
    /// Else arm separator.
    Else,
    /// End of a block/loop/if or of the function body.
    End,
    /// Unconditional branch to the label `depth` levels up.
    Br {
        depth: u32,
    },
    /// Conditional branch.
    BrIf {
        depth: u32,
    },
    /// Indexed branch: `targets[i]` or `default`.
    BrTable {
        targets: Box<[u32]>,
        default: u32,
    },
    /// Return from the current function.
    Return,
    /// Call function by index (imports first).
    Call {
        func: u32,
    },
    /// Indirect call through the table; `type_idx` is the expected signature.
    CallIndirect {
        type_idx: u32,
    },

    // -- parametric --------------------------------------------------------
    /// Drop the top operand.
    Drop,
    /// Select between the second and third operands by the top i32.
    Select,

    // -- variables ---------------------------------------------------------
    /// Push a local.
    LocalGet(u32),
    /// Pop into a local.
    LocalSet(u32),
    /// Copy the top of stack into a local.
    LocalTee(u32),
    /// Push a global.
    GlobalGet(u32),
    /// Pop into a global.
    GlobalSet(u32),

    // -- plain operators (the table in `ops`) -----------------------------
    /// A non-trapping i32 binary operator.
    I32Bin(I32Op),
    /// A non-trapping i64 binary operator.
    I64Bin(I64Op),
    /// A trapping integer or a float binary operator.
    Bin(BinOp),
    /// A unary operator or conversion.
    Un(UnOp),
    /// A load from linear memory.
    Load(LoadKind, MemArg),
    /// A store to linear memory.
    Store(StoreKind, MemArg),

    // -- memory ------------------------------------------------------------
    /// Current memory size in pages.
    MemorySize,
    /// Grow memory; pushes the old size or -1.
    MemoryGrow,
    /// Bulk-memory: `memory.copy` (dst, src, len).
    MemoryCopy,
    /// Bulk-memory: `memory.fill` (dst, byte, len).
    MemoryFill,

    // -- constants ---------------------------------------------------------
    I32Const(i32),
    I64Const(i64),
    F32Const(f32),
    F64Const(f64),
}
