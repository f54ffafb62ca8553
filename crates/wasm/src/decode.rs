//! WebAssembly binary-format (`.wasm`) decoder.
//!
//! Produces a [`Module`]; structural errors (bad magic, truncated sections,
//! unknown opcodes, malformed LEB128) are reported as [`DecodeError`] with a
//! byte offset. Type errors, block nesting included, are left to the
//! checks [`crate::load_module`] runs: bodies are recorded as written.

use crate::instr::{Instr, MemArg};
use crate::leb128;
pub use crate::leb128::LebError;
use crate::module::*;
use crate::ops;
use crate::types::*;

/// Decoder error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub kind: DecodeErrorKind,
}

/// The specific decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// Missing/incorrect `\0asm` magic.
    BadMagic,
    /// Version word is not 1.
    BadVersion(u32),
    /// Input ended prematurely.
    UnexpectedEof,
    /// Malformed LEB128 integer.
    Leb(LebError),
    /// Unknown or unsupported section id.
    BadSection(u8),
    /// Sections out of order or repeated.
    SectionOrder(u8),
    /// Section content length mismatch.
    SectionSize,
    /// Unknown value type byte.
    BadValType(u8),
    /// Unknown element/reference type byte.
    BadRefType(u8),
    /// Unknown import/export kind byte.
    BadEntityKind(u8),
    /// Unknown opcode.
    BadOpcode(u8),
    /// Unknown 0xFC-prefixed opcode.
    BadPrefixedOpcode(u32),
    /// Malformed block type immediate.
    BadBlockType(i64),
    /// Malformed mutability flag.
    BadMutability(u8),
    /// Function and code section lengths disagree.
    FuncCodeMismatch { funcs: usize, bodies: usize },
    /// More than one table/memory declared.
    MultipleTablesOrMemories,
    /// Unsupported import kind (memory/table/global imports).
    UnsupportedImport,
    /// Constant expression is not a single `t.const` followed by `end`.
    BadConstExpr,
    /// Invalid UTF-8 in a name.
    BadUtf8,
    /// Passive or multi-table segments (unsupported).
    UnsupportedSegment,
    /// Non-zero memory/table index immediate.
    NonZeroIndex,
    /// Too many locals declared (implementation limit).
    TooManyLocals,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at offset {}: {:?}", self.offset, self.kind)
    }
}

impl std::error::Error for DecodeError {}

/// Implementation limit on declared locals per function (spec allows more;
/// this bounds interpreter frame allocation).
pub const MAX_LOCALS: usize = 50_000;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            kind,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError {
            offset: self.pos,
            kind: DecodeErrorKind::UnexpectedEof,
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.err(DecodeErrorKind::UnexpectedEof));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let (v, n) = leb128::read_unsigned(&self.buf[self.pos..], 32)
            .map_err(|e| self.err(DecodeErrorKind::Leb(e)))?;
        self.pos += n;
        Ok(v as u32)
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let (v, n) = leb128::read_signed(&self.buf[self.pos..], 32)
            .map_err(|e| self.err(DecodeErrorKind::Leb(e)))?;
        self.pos += n;
        Ok(v as i32)
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        let (v, n) = leb128::read_signed(&self.buf[self.pos..], 64)
            .map_err(|e| self.err(DecodeErrorKind::Leb(e)))?;
        self.pos += n;
        Ok(v)
    }

    fn s33(&mut self) -> Result<i64, DecodeError> {
        let (v, n) = leb128::read_signed(&self.buf[self.pos..], 33)
            .map_err(|e| self.err(DecodeErrorKind::Leb(e)))?;
        self.pos += n;
        Ok(v)
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn name(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let off = self.pos;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError {
            offset: off,
            kind: DecodeErrorKind::BadUtf8,
        })
    }

    fn valtype(&mut self) -> Result<ValType, DecodeError> {
        let off = self.pos;
        let b = self.byte()?;
        ValType::from_byte(b).ok_or(DecodeError {
            offset: off,
            kind: DecodeErrorKind::BadValType(b),
        })
    }

    fn limits(&mut self) -> Result<Limits, DecodeError> {
        let flag = self.byte()?;
        let min = self.u32()?;
        let max = match flag {
            0x00 => None,
            0x01 => Some(self.u32()?),
            other => return Err(self.err(DecodeErrorKind::BadEntityKind(other))),
        };
        Ok(Limits { min, max })
    }

    fn blocktype(&mut self) -> Result<BlockType, DecodeError> {
        let off = self.pos;
        let v = self.s33()?;
        match v {
            -64 => Ok(BlockType::Empty),              // 0x40
            -1 => Ok(BlockType::Value(ValType::I32)), // 0x7f
            -2 => Ok(BlockType::Value(ValType::I64)), // 0x7e
            -3 => Ok(BlockType::Value(ValType::F32)), // 0x7d
            -4 => Ok(BlockType::Value(ValType::F64)), // 0x7c
            other => Err(DecodeError {
                offset: off,
                kind: DecodeErrorKind::BadBlockType(other),
            }),
        }
    }

    fn memarg(&mut self) -> Result<MemArg, DecodeError> {
        let align = self.u32()?;
        let offset = self.u32()?;
        Ok(MemArg { align, offset })
    }

    fn const_expr(&mut self) -> Result<ConstExpr, DecodeError> {
        let op = self.byte()?;
        let expr = match op {
            0x41 => ConstExpr::I32(self.i32()?),
            0x42 => ConstExpr::I64(self.i64()?),
            0x43 => ConstExpr::F32(self.f32()?),
            0x44 => ConstExpr::F64(self.f64()?),
            _ => return Err(self.err(DecodeErrorKind::BadConstExpr)),
        };
        let end = self.byte()?;
        if end != 0x0b {
            return Err(self.err(DecodeErrorKind::BadConstExpr));
        }
        Ok(expr)
    }
}

/// Decode a complete binary module.
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4).map_err(|_| r.err(DecodeErrorKind::BadMagic))? != b"\0asm" {
        return Err(DecodeError {
            offset: 0,
            kind: DecodeErrorKind::BadMagic,
        });
    }
    let ver = r.bytes(4)?;
    let version = u32::from_le_bytes([ver[0], ver[1], ver[2], ver[3]]);
    if version != 1 {
        return Err(DecodeError {
            offset: 4,
            kind: DecodeErrorKind::BadVersion(version),
        });
    }

    let mut module = Module::default();
    let mut func_type_indices: Vec<u32> = Vec::new();
    let mut last_section: i8 = -1;

    while r.remaining() > 0 {
        let sec_off = r.pos;
        let id = r.byte()?;
        let size = r.u32()? as usize;
        if r.remaining() < size {
            return Err(DecodeError {
                offset: sec_off,
                kind: DecodeErrorKind::SectionSize,
            });
        }
        let end_pos = r.pos + size;

        if id == 0 {
            // Custom section: skip.
            r.pos = end_pos;
            continue;
        }
        if id > 11 {
            return Err(DecodeError {
                offset: sec_off,
                kind: DecodeErrorKind::BadSection(id),
            });
        }
        if (id as i8) <= last_section {
            return Err(DecodeError {
                offset: sec_off,
                kind: DecodeErrorKind::SectionOrder(id),
            });
        }
        last_section = id as i8;

        match id {
            1 => decode_type_section(&mut r, &mut module)?,
            2 => decode_import_section(&mut r, &mut module)?,
            3 => {
                let count = r.u32()?;
                for _ in 0..count {
                    func_type_indices.push(r.u32()?);
                }
            }
            4 => {
                let count = r.u32()?;
                if count > 1 {
                    return Err(r.err(DecodeErrorKind::MultipleTablesOrMemories));
                }
                if count == 1 {
                    let off = r.pos;
                    let reftype = r.byte()?;
                    if reftype != 0x70 {
                        return Err(DecodeError {
                            offset: off,
                            kind: DecodeErrorKind::BadRefType(reftype),
                        });
                    }
                    module.table = Some(r.limits()?);
                }
            }
            5 => {
                let count = r.u32()?;
                if count > 1 {
                    return Err(r.err(DecodeErrorKind::MultipleTablesOrMemories));
                }
                if count == 1 {
                    module.memory = Some(r.limits()?);
                }
            }
            6 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let ty = r.valtype()?;
                    let mut_off = r.pos;
                    let mutability = match r.byte()? {
                        0x00 => Mutability::Const,
                        0x01 => Mutability::Var,
                        b => {
                            return Err(DecodeError {
                                offset: mut_off,
                                kind: DecodeErrorKind::BadMutability(b),
                            })
                        }
                    };
                    let init = r.const_expr()?;
                    module.globals.push(Global {
                        ty: GlobalType { ty, mutability },
                        init,
                    });
                }
            }
            7 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let name = r.name()?;
                    let kind_off = r.pos;
                    let kind = r.byte()?;
                    let idx = r.u32()?;
                    let kind = match kind {
                        0x00 => ExportKind::Func(idx),
                        0x01 => ExportKind::Table,
                        0x02 => ExportKind::Memory,
                        0x03 => ExportKind::Global(idx),
                        b => {
                            return Err(DecodeError {
                                offset: kind_off,
                                kind: DecodeErrorKind::BadEntityKind(b),
                            })
                        }
                    };
                    module.exports.push(Export { name, kind });
                }
            }
            8 => {
                module.start = Some(r.u32()?);
            }
            9 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let flags = r.u32()?;
                    if flags != 0 {
                        return Err(r.err(DecodeErrorKind::UnsupportedSegment));
                    }
                    let offset = r.const_expr()?;
                    let n = r.u32()?;
                    let mut funcs = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        funcs.push(r.u32()?);
                    }
                    module.elems.push(ElemSegment { offset, funcs });
                }
            }
            10 => decode_code_section(&mut r, &mut module, &func_type_indices)?,
            11 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let flags = r.u32()?;
                    if flags != 0 {
                        return Err(r.err(DecodeErrorKind::UnsupportedSegment));
                    }
                    let offset = r.const_expr()?;
                    let len = r.u32()? as usize;
                    let bytes = r.bytes(len)?.to_vec();
                    module.data.push(DataSegment { offset, bytes });
                }
            }
            _ => unreachable!(),
        }

        if r.pos != end_pos {
            return Err(DecodeError {
                offset: sec_off,
                kind: DecodeErrorKind::SectionSize,
            });
        }
    }

    if module.funcs.is_empty() && !func_type_indices.is_empty() {
        return Err(DecodeError {
            offset: bytes.len(),
            kind: DecodeErrorKind::FuncCodeMismatch {
                funcs: func_type_indices.len(),
                bodies: 0,
            },
        });
    }

    Ok(module)
}

fn decode_type_section(r: &mut Reader<'_>, module: &mut Module) -> Result<(), DecodeError> {
    let count = r.u32()?;
    for _ in 0..count {
        let tag_off = r.pos;
        let tag = r.byte()?;
        if tag != 0x60 {
            return Err(DecodeError {
                offset: tag_off,
                kind: DecodeErrorKind::BadEntityKind(tag),
            });
        }
        let n_params = r.u32()? as usize;
        let mut params = Vec::with_capacity(n_params.min(1024));
        for _ in 0..n_params {
            params.push(r.valtype()?);
        }
        let n_results = r.u32()? as usize;
        let mut results = Vec::with_capacity(n_results.min(16));
        for _ in 0..n_results {
            results.push(r.valtype()?);
        }
        module.types.push(FuncType { params, results });
    }
    Ok(())
}

fn decode_import_section(r: &mut Reader<'_>, module: &mut Module) -> Result<(), DecodeError> {
    let count = r.u32()?;
    for _ in 0..count {
        let mod_name = r.name()?;
        let field = r.name()?;
        let kind_off = r.pos;
        let kind = r.byte()?;
        match kind {
            0x00 => {
                let type_idx = r.u32()?;
                module.imports.push(Import {
                    module: mod_name,
                    name: field,
                    kind: ImportKind::Func { type_idx },
                });
            }
            0x01..=0x03 => {
                return Err(DecodeError {
                    offset: kind_off,
                    kind: DecodeErrorKind::UnsupportedImport,
                })
            }
            b => {
                return Err(DecodeError {
                    offset: kind_off,
                    kind: DecodeErrorKind::BadEntityKind(b),
                })
            }
        }
    }
    Ok(())
}

fn decode_code_section(
    r: &mut Reader<'_>,
    module: &mut Module,
    func_type_indices: &[u32],
) -> Result<(), DecodeError> {
    let count = r.u32()? as usize;
    if count != func_type_indices.len() {
        return Err(r.err(DecodeErrorKind::FuncCodeMismatch {
            funcs: func_type_indices.len(),
            bodies: count,
        }));
    }
    for &type_idx in func_type_indices {
        let body_size = r.u32()? as usize;
        let body_end = r.pos + body_size;
        if r.remaining() < body_size {
            return Err(r.err(DecodeErrorKind::UnexpectedEof));
        }

        // Locals: run-length encoded (count, type) pairs.
        let n_groups = r.u32()?;
        let mut locals = Vec::new();
        for _ in 0..n_groups {
            let n = r.u32()? as usize;
            let ty = r.valtype()?;
            if locals.len() + n > MAX_LOCALS {
                return Err(r.err(DecodeErrorKind::TooManyLocals));
            }
            locals.extend(std::iter::repeat_n(ty, n));
        }

        let mut code = Vec::new();
        while r.pos < body_end {
            code.push(decode_instr(r)?);
        }
        if r.pos != body_end {
            return Err(r.err(DecodeErrorKind::SectionSize));
        }

        module.funcs.push(FuncBody {
            type_idx,
            locals,
            code,
        });
    }
    Ok(())
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, DecodeError> {
    let op_off = r.pos;
    let op = r.byte()?;
    let instr = match op {
        0x00 => Instr::Unreachable,
        0x01 => Instr::Nop,
        0x02 => Instr::Block { ty: r.blocktype()? },
        0x03 => Instr::Loop { ty: r.blocktype()? },
        0x04 => Instr::If { ty: r.blocktype()? },
        0x05 => Instr::Else,
        0x0b => Instr::End,
        0x0c => Instr::Br { depth: r.u32()? },
        0x0d => Instr::BrIf { depth: r.u32()? },
        0x0e => {
            let n = r.u32()? as usize;
            let mut targets = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                targets.push(r.u32()?);
            }
            let default = r.u32()?;
            Instr::BrTable {
                targets: targets.into_boxed_slice(),
                default,
            }
        }
        0x0f => Instr::Return,
        0x10 => Instr::Call { func: r.u32()? },
        0x11 => {
            let type_idx = r.u32()?;
            let table_idx_off = r.pos;
            let table_idx = r.byte()?;
            if table_idx != 0 {
                return Err(DecodeError {
                    offset: table_idx_off,
                    kind: DecodeErrorKind::NonZeroIndex,
                });
            }
            Instr::CallIndirect { type_idx }
        }
        0x1a => Instr::Drop,
        0x1b => Instr::Select,
        0x20 => Instr::LocalGet(r.u32()?),
        0x21 => Instr::LocalSet(r.u32()?),
        0x22 => Instr::LocalTee(r.u32()?),
        0x23 => Instr::GlobalGet(r.u32()?),
        0x24 => Instr::GlobalSet(r.u32()?),
        0x3f => {
            if r.byte()? != 0 {
                return Err(DecodeError {
                    offset: op_off,
                    kind: DecodeErrorKind::NonZeroIndex,
                });
            }
            Instr::MemorySize
        }
        0x40 => {
            if r.byte()? != 0 {
                return Err(DecodeError {
                    offset: op_off,
                    kind: DecodeErrorKind::NonZeroIndex,
                });
            }
            Instr::MemoryGrow
        }
        0x41 => Instr::I32Const(r.i32()?),
        0x42 => Instr::I64Const(r.i64()?),
        0x43 => Instr::F32Const(r.f32()?),
        0x44 => Instr::F64Const(r.f64()?),
        0xfc => match r.u32()? {
            10 => {
                // memory.copy dst_mem src_mem (both must be 0)
                if r.byte()? != 0 || r.byte()? != 0 {
                    return Err(DecodeError {
                        offset: op_off,
                        kind: DecodeErrorKind::NonZeroIndex,
                    });
                }
                Instr::MemoryCopy
            }
            11 => {
                if r.byte()? != 0 {
                    return Err(DecodeError {
                        offset: op_off,
                        kind: DecodeErrorKind::NonZeroIndex,
                    });
                }
                Instr::MemoryFill
            }
            sub => ops::decode(op, Some(sub)).ok_or(DecodeError {
                offset: op_off,
                kind: DecodeErrorKind::BadPrefixedOpcode(sub),
            })?,
        },
        // Every other opcode is a row of the operator table or unknown.
        _ => {
            let mut instr = ops::decode(op, None).ok_or(DecodeError {
                offset: op_off,
                kind: DecodeErrorKind::BadOpcode(op),
            })?;
            if let Instr::Load(_, m) | Instr::Store(_, m) = &mut instr {
                *m = r.memarg()?;
            }
            instr
        }
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-assembled module: (func (export "f") (result i32) i32.const 42)
    fn tiny_module() -> Vec<u8> {
        let mut m = vec![];
        m.extend(b"\0asm");
        m.extend(1u32.to_le_bytes());
        // type section: 1 type () -> (i32)
        m.extend([1, 5, 1, 0x60, 0, 1, 0x7f]);
        // function section: 1 func of type 0
        m.extend([3, 2, 1, 0]);
        // export section: "f" -> func 0
        m.extend([7, 5, 1, 1, b'f', 0, 0]);
        // code section: body = i32.const 42; end
        m.extend([10, 6, 1, 4, 0, 0x41, 42, 0x0b]);
        m
    }

    #[test]
    fn decodes_tiny_module() {
        let m = decode_module(&tiny_module()).unwrap();
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.exported_func("f"), Some(0));
        assert_eq!(m.funcs[0].code, vec![Instr::I32Const(42), Instr::End]);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_module(b"\0ASM\x01\0\0\0").unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMagic);
    }

    #[test]
    fn rejects_bad_version() {
        let err = decode_module(b"\0asm\x02\0\0\0").unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadVersion(2));
    }

    #[test]
    fn rejects_truncated() {
        let mut bytes = tiny_module();
        bytes.truncate(bytes.len() - 2);
        assert!(decode_module(&bytes).is_err());
    }

    #[test]
    fn rejects_out_of_order_sections() {
        let mut m = vec![];
        m.extend(b"\0asm");
        m.extend(1u32.to_le_bytes());
        m.extend([3, 2, 1, 0]); // function section first
        m.extend([1, 5, 1, 0x60, 0, 1, 0x7f]); // then type section
        let err = decode_module(&m).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::SectionOrder(1));
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut m = vec![];
        m.extend(b"\0asm");
        m.extend(1u32.to_le_bytes());
        m.extend([1, 4, 1, 0x60, 0, 0]);
        m.extend([3, 2, 1, 0]);
        m.extend([10, 5, 1, 3, 0, 0xf7, 0x0b]); // 0xf7 is not an opcode
        let err = decode_module(&m).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::BadOpcode(0xf7)));
    }

    #[test]
    fn skips_custom_sections() {
        let mut m = vec![];
        m.extend(b"\0asm");
        m.extend(1u32.to_le_bytes());
        // custom section "x" with 2 payload bytes
        m.extend([0, 4, 1, b'x', 0xde, 0xad]);
        m.extend([1, 5, 1, 0x60, 0, 1, 0x7f]);
        m.extend([3, 2, 1, 0]);
        m.extend([10, 6, 1, 4, 0, 0x41, 42, 0x0b]);
        let module = decode_module(&m).unwrap();
        assert_eq!(module.funcs.len(), 1);
    }

    #[test]
    fn func_code_count_mismatch() {
        let mut m = vec![];
        m.extend(b"\0asm");
        m.extend(1u32.to_le_bytes());
        m.extend([1, 4, 1, 0x60, 0, 0]);
        m.extend([3, 3, 2, 0, 0]); // two funcs
        m.extend([10, 4, 1, 2, 0, 0x0b]); // one body
        let err = decode_module(&m).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::FuncCodeMismatch { .. }));
    }
}
