//! The decoded instruction set.
//!
//! Control, variable, bulk-memory and constant instructions are variants of
//! their own; every plain numeric or memory operator is one of six payload
//! variants over the operator table's enums ([`I32Op`], [`I64Op`],
//! [`BinOp`], [`UnOp`], [`LoadKind`], [`StoreKind`]), whose rows
//! ([`OpRow`], [`OP_TABLE`]) say what each one's opcode, builder method and
//! signature are.
//!
//! Instructions are stored flat (one `Vec<Instr>` per function body) with
//! structured-control instructions carrying pre-resolved program counters:
//! `Block`/`If` know where their `End` is, `If` knows where its `Else` is.
//! These targets are patched by [`fixup_block_targets`] after decoding (the
//! module builder reuses the same pass), which lets the interpreter branch
//! without scanning for matching `end` opcodes at run time.

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
    /// Begin a block; `end_pc` is the index of the matching `End`.
    Block {
        ty: BlockType,
        end_pc: u32,
    },
    /// Begin a loop (branch target is the loop header itself).
    Loop {
        ty: BlockType,
    },
    /// Conditional; `else_pc` is the matching `Else` (or `end_pc` when there
    /// is no else arm), `end_pc` the matching `End`.
    If {
        ty: BlockType,
        else_pc: u32,
        end_pc: u32,
    },
    /// Else arm separator; `end_pc` is the matching `End`.
    Else {
        end_pc: u32,
    },
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

/// Error from [`fixup_block_targets`]: the body's structured control
/// instructions do not nest properly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixupError {
    /// An `else` with no open `if`.
    DanglingElse,
    /// A second `else` for the same `if`.
    DuplicateElse,
    /// An `end` with no open block.
    DanglingEnd,
    /// Blocks left open at the end of the body.
    UnclosedBlock,
    /// Body does not terminate with the function-level `end`.
    MissingFinalEnd,
}

impl std::fmt::Display for FixupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FixupError::DanglingElse => "`else` without matching `if`",
            FixupError::DuplicateElse => "duplicate `else` in `if`",
            FixupError::DanglingEnd => "`end` without matching block",
            FixupError::UnclosedBlock => "unclosed block at end of body",
            FixupError::MissingFinalEnd => "function body missing final `end`",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FixupError {}

/// Resolve `end_pc`/`else_pc` targets for all structured-control
/// instructions in a function body.
///
/// The body must consist of the function-level frame terminated by a final
/// `End` (as the binary format mandates). Used by both the decoder and the
/// [`CodeEmitter`](crate::builder::CodeEmitter).
pub fn fixup_block_targets(code: &mut [Instr]) -> Result<(), FixupError> {
    // Stack of indices of open Block/Loop/If/Else instructions. Index
    // usize::MAX marks the implicit function-level frame.
    let mut stack: Vec<usize> = vec![usize::MAX];
    for pc in 0..code.len() {
        match code[pc] {
            Instr::Block { .. } | Instr::Loop { .. } | Instr::If { .. } => stack.push(pc),
            Instr::Else { .. } => {
                let opener = *stack.last().ok_or(FixupError::DanglingElse)?;
                if opener == usize::MAX {
                    return Err(FixupError::DanglingElse);
                }
                match &mut code[opener] {
                    Instr::If {
                        else_pc, end_pc: _, ..
                    } => {
                        if *else_pc != u32::MAX {
                            return Err(FixupError::DuplicateElse);
                        }
                        *else_pc = pc as u32;
                    }
                    _ => return Err(FixupError::DanglingElse),
                }
                // Replace the If by the Else on the stack so End patches both.
                *stack.last_mut().unwrap() = pc;
            }
            Instr::End => {
                let opener = stack.pop().ok_or(FixupError::DanglingEnd)?;
                if opener == usize::MAX {
                    // Function-level end: must be the last instruction.
                    if pc != code.len() - 1 {
                        return Err(FixupError::DanglingEnd);
                    }
                    continue;
                }
                match &mut code[opener] {
                    Instr::Block { end_pc, .. } => *end_pc = pc as u32,
                    Instr::Loop { .. } => {}
                    Instr::If {
                        else_pc, end_pc, ..
                    } => {
                        *end_pc = pc as u32;
                        // If with no else arm: a false condition jumps to End.
                        if *else_pc == u32::MAX {
                            *else_pc = pc as u32;
                        }
                    }
                    Instr::Else { end_pc } => {
                        *end_pc = pc as u32;
                        // Walk back and patch the If's end too: find it by
                        // scanning (the Else holds no back pointer). The If
                        // whose else_pc == opener is the matching one.
                        let else_idx = opener as u32;
                        for instr in code[..opener].iter_mut().rev() {
                            if let Instr::If {
                                else_pc, end_pc, ..
                            } = instr
                            {
                                if *else_pc == else_idx {
                                    *end_pc = pc as u32;
                                    break;
                                }
                            }
                        }
                    }
                    _ => return Err(FixupError::DanglingEnd),
                }
            }
            _ => {}
        }
    }
    if stack.is_empty() {
        Ok(())
    } else if stack == [usize::MAX] {
        Err(FixupError::MissingFinalEnd)
    } else {
        Err(FixupError::UnclosedBlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BlockType as BT;

    fn block() -> Instr {
        Instr::Block {
            ty: BT::Empty,
            end_pc: u32::MAX,
        }
    }
    fn if_() -> Instr {
        Instr::If {
            ty: BT::Empty,
            else_pc: u32::MAX,
            end_pc: u32::MAX,
        }
    }

    #[test]
    fn fixup_simple_block() {
        let mut code = vec![block(), Instr::Nop, Instr::End, Instr::End];
        fixup_block_targets(&mut code).unwrap();
        assert_eq!(
            code[0],
            Instr::Block {
                ty: BT::Empty,
                end_pc: 2
            }
        );
    }

    #[test]
    fn fixup_if_else() {
        let mut code = vec![
            Instr::I32Const(1),
            if_(),
            Instr::Nop,
            Instr::Else { end_pc: u32::MAX },
            Instr::Nop,
            Instr::End,
            Instr::End,
        ];
        fixup_block_targets(&mut code).unwrap();
        assert_eq!(
            code[1],
            Instr::If {
                ty: BT::Empty,
                else_pc: 3,
                end_pc: 5
            }
        );
        assert_eq!(code[3], Instr::Else { end_pc: 5 });
    }

    #[test]
    fn fixup_if_no_else() {
        let mut code = vec![
            Instr::I32Const(0),
            if_(),
            Instr::Nop,
            Instr::End,
            Instr::End,
        ];
        fixup_block_targets(&mut code).unwrap();
        assert_eq!(
            code[1],
            Instr::If {
                ty: BT::Empty,
                else_pc: 3,
                end_pc: 3
            }
        );
    }

    #[test]
    fn fixup_nested() {
        let mut code = vec![
            block(),                       // 0 -> end 5
            Instr::Loop { ty: BT::Empty }, // 1
            block(),                       // 2 -> end 4
            Instr::Br { depth: 1 },
            Instr::End, // 4 closes 2
            Instr::End, // 5 closes loop... wait
            Instr::End, // 6 closes 0
            Instr::End, // 7 function end
        ];
        fixup_block_targets(&mut code).unwrap();
        assert_eq!(
            code[2],
            Instr::Block {
                ty: BT::Empty,
                end_pc: 4
            }
        );
        assert_eq!(
            code[0],
            Instr::Block {
                ty: BT::Empty,
                end_pc: 6
            }
        );
    }

    #[test]
    fn fixup_errors() {
        let mut code = vec![Instr::Else { end_pc: u32::MAX }, Instr::End];
        assert_eq!(
            fixup_block_targets(&mut code),
            Err(FixupError::DanglingElse)
        );

        let mut code = vec![block(), Instr::End];
        assert_eq!(
            fixup_block_targets(&mut code),
            Err(FixupError::MissingFinalEnd)
        );

        let mut code = vec![block(), Instr::Nop];
        assert_eq!(
            fixup_block_targets(&mut code),
            Err(FixupError::UnclosedBlock)
        );

        let mut code = vec![Instr::End, Instr::Nop];
        assert_eq!(fixup_block_targets(&mut code), Err(FixupError::DanglingEnd));
    }
}
