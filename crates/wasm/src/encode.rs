//! WebAssembly binary-format encoder: the exact inverse of [`crate::decode`].
//!
//! WA-RAN generates plugins in-process (via [`crate::builder`] or the PlugC
//! compiler) and ships them as standard `.wasm` binaries, so the encoder is
//! a first-class part of the toolchain, not a test helper. Round-tripping
//! (`encode(decode(x)) == canonical(x)`) is covered by property tests.

use crate::instr::{Instr, MemArg, OpRow};
use crate::leb128::{write_signed, write_unsigned};
use crate::module::*;
use crate::types::{BlockType, FuncType, Limits, Mutability, ValType};

/// Encode a module to its binary representation.
pub fn encode_module(module: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(b"\0asm");
    out.extend_from_slice(&1u32.to_le_bytes());

    // Section 1: types
    if !module.types.is_empty() {
        section(&mut out, 1, |buf| {
            write_unsigned(buf, module.types.len() as u64);
            for ty in &module.types {
                encode_functype(buf, ty);
            }
        });
    }
    // Section 2: imports
    if !module.imports.is_empty() {
        section(&mut out, 2, |buf| {
            write_unsigned(buf, module.imports.len() as u64);
            for imp in &module.imports {
                encode_name(buf, &imp.module);
                encode_name(buf, &imp.name);
                match imp.kind {
                    ImportKind::Func { type_idx } => {
                        buf.push(0x00);
                        write_unsigned(buf, type_idx as u64);
                    }
                }
            }
        });
    }
    // Section 3: function type indices
    if !module.funcs.is_empty() {
        section(&mut out, 3, |buf| {
            write_unsigned(buf, module.funcs.len() as u64);
            for f in &module.funcs {
                write_unsigned(buf, f.type_idx as u64);
            }
        });
    }
    // Section 4: table
    if let Some(limits) = module.table {
        section(&mut out, 4, |buf| {
            write_unsigned(buf, 1);
            buf.push(0x70); // funcref
            encode_limits(buf, limits);
        });
    }
    // Section 5: memory
    if let Some(limits) = module.memory {
        section(&mut out, 5, |buf| {
            write_unsigned(buf, 1);
            encode_limits(buf, limits);
        });
    }
    // Section 6: globals
    if !module.globals.is_empty() {
        section(&mut out, 6, |buf| {
            write_unsigned(buf, module.globals.len() as u64);
            for g in &module.globals {
                buf.push(g.ty.ty.to_byte());
                buf.push(match g.ty.mutability {
                    Mutability::Const => 0x00,
                    Mutability::Var => 0x01,
                });
                encode_const_expr(buf, g.init);
            }
        });
    }
    // Section 7: exports
    if !module.exports.is_empty() {
        section(&mut out, 7, |buf| {
            write_unsigned(buf, module.exports.len() as u64);
            for e in &module.exports {
                encode_name(buf, &e.name);
                match e.kind {
                    ExportKind::Func(idx) => {
                        buf.push(0x00);
                        write_unsigned(buf, idx as u64);
                    }
                    ExportKind::Table => {
                        buf.push(0x01);
                        write_unsigned(buf, 0);
                    }
                    ExportKind::Memory => {
                        buf.push(0x02);
                        write_unsigned(buf, 0);
                    }
                    ExportKind::Global(idx) => {
                        buf.push(0x03);
                        write_unsigned(buf, idx as u64);
                    }
                }
            }
        });
    }
    // Section 8: start
    if let Some(start) = module.start {
        section(&mut out, 8, |buf| {
            write_unsigned(buf, start as u64);
        });
    }
    // Section 9: element segments
    if !module.elems.is_empty() {
        section(&mut out, 9, |buf| {
            write_unsigned(buf, module.elems.len() as u64);
            for seg in &module.elems {
                write_unsigned(buf, 0); // flags: active, table 0
                encode_const_expr(buf, seg.offset);
                write_unsigned(buf, seg.funcs.len() as u64);
                for &f in &seg.funcs {
                    write_unsigned(buf, f as u64);
                }
            }
        });
    }
    // Section 10: code
    if !module.funcs.is_empty() {
        section(&mut out, 10, |buf| {
            write_unsigned(buf, module.funcs.len() as u64);
            for f in &module.funcs {
                let mut body = Vec::new();
                encode_locals(&mut body, &f.locals);
                for instr in &f.code {
                    encode_instr(&mut body, instr);
                }
                write_unsigned(buf, body.len() as u64);
                buf.extend_from_slice(&body);
            }
        });
    }
    // Section 11: data segments
    if !module.data.is_empty() {
        section(&mut out, 11, |buf| {
            write_unsigned(buf, module.data.len() as u64);
            for seg in &module.data {
                write_unsigned(buf, 0); // flags: active, memory 0
                encode_const_expr(buf, seg.offset);
                write_unsigned(buf, seg.bytes.len() as u64);
                buf.extend_from_slice(&seg.bytes);
            }
        });
    }

    out
}

fn section(out: &mut Vec<u8>, id: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let mut buf = Vec::new();
    body(&mut buf);
    out.push(id);
    write_unsigned(out, buf.len() as u64);
    out.extend_from_slice(&buf);
}

fn encode_name(out: &mut Vec<u8>, name: &str) {
    write_unsigned(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
}

fn encode_functype(out: &mut Vec<u8>, ty: &FuncType) {
    out.push(0x60);
    write_unsigned(out, ty.params.len() as u64);
    for p in &ty.params {
        out.push(p.to_byte());
    }
    write_unsigned(out, ty.results.len() as u64);
    for r in &ty.results {
        out.push(r.to_byte());
    }
}

fn encode_limits(out: &mut Vec<u8>, limits: Limits) {
    match limits.max {
        None => {
            out.push(0x00);
            write_unsigned(out, limits.min as u64);
        }
        Some(max) => {
            out.push(0x01);
            write_unsigned(out, limits.min as u64);
            write_unsigned(out, max as u64);
        }
    }
}

fn encode_const_expr(out: &mut Vec<u8>, expr: ConstExpr) {
    match expr {
        ConstExpr::I32(v) => {
            out.push(0x41);
            write_signed(out, v as i64);
        }
        ConstExpr::I64(v) => {
            out.push(0x42);
            write_signed(out, v);
        }
        ConstExpr::F32(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ConstExpr::F64(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.push(0x0b);
}

fn encode_locals(out: &mut Vec<u8>, locals: &[ValType]) {
    // Run-length encode consecutive equal types.
    let mut groups: Vec<(u32, ValType)> = Vec::new();
    for &ty in locals {
        match groups.last_mut() {
            Some((n, t)) if *t == ty => *n += 1,
            _ => groups.push((1, ty)),
        }
    }
    write_unsigned(out, groups.len() as u64);
    for (n, ty) in groups {
        write_unsigned(out, n as u64);
        out.push(ty.to_byte());
    }
}

fn encode_blocktype(out: &mut Vec<u8>, ty: BlockType) {
    match ty {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(t) => out.push(t.to_byte()),
    }
}

fn encode_memarg(out: &mut Vec<u8>, m: MemArg) {
    write_unsigned(out, m.align as u64);
    write_unsigned(out, m.offset as u64);
}

/// Encode one instruction (used by the code section writer).
fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
    use Instr::*;
    match instr {
        Unreachable => out.push(0x00),
        Nop => out.push(0x01),
        Block { ty, .. } => {
            out.push(0x02);
            encode_blocktype(out, *ty);
        }
        Loop { ty } => {
            out.push(0x03);
            encode_blocktype(out, *ty);
        }
        If { ty, .. } => {
            out.push(0x04);
            encode_blocktype(out, *ty);
        }
        Else => out.push(0x05),
        End => out.push(0x0b),
        Br { depth } => {
            out.push(0x0c);
            write_unsigned(out, *depth as u64);
        }
        BrIf { depth } => {
            out.push(0x0d);
            write_unsigned(out, *depth as u64);
        }
        BrTable { targets, default } => {
            out.push(0x0e);
            write_unsigned(out, targets.len() as u64);
            for t in targets.iter() {
                write_unsigned(out, *t as u64);
            }
            write_unsigned(out, *default as u64);
        }
        Return => out.push(0x0f),
        Call { func } => {
            out.push(0x10);
            write_unsigned(out, *func as u64);
        }
        CallIndirect { type_idx } => {
            out.push(0x11);
            write_unsigned(out, *type_idx as u64);
            out.push(0x00);
        }
        Drop => out.push(0x1a),
        Select => out.push(0x1b),
        LocalGet(i) => {
            out.push(0x20);
            write_unsigned(out, *i as u64);
        }
        LocalSet(i) => {
            out.push(0x21);
            write_unsigned(out, *i as u64);
        }
        LocalTee(i) => {
            out.push(0x22);
            write_unsigned(out, *i as u64);
        }
        GlobalGet(i) => {
            out.push(0x23);
            write_unsigned(out, *i as u64);
        }
        GlobalSet(i) => {
            out.push(0x24);
            write_unsigned(out, *i as u64);
        }
        I32Bin(op) => plain(out, op.row(), None),
        I64Bin(op) => plain(out, op.row(), None),
        Bin(op) => plain(out, op.row(), None),
        Un(op) => plain(out, op.row(), None),
        Load(kind, m) => plain(out, kind.row(), Some(*m)),
        Store(kind, m) => plain(out, kind.row(), Some(*m)),
        MemorySize => {
            out.push(0x3f);
            out.push(0x00);
        }
        MemoryGrow => {
            out.push(0x40);
            out.push(0x00);
        }
        MemoryCopy => {
            out.push(0xfc);
            write_unsigned(out, 10);
            out.push(0x00);
            out.push(0x00);
        }
        MemoryFill => {
            out.push(0xfc);
            write_unsigned(out, 11);
            out.push(0x00);
        }
        I32Const(v) => {
            out.push(0x41);
            write_signed(out, *v as i64);
        }
        I64Const(v) => {
            out.push(0x42);
            write_signed(out, *v);
        }
        F32Const(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        F64Const(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// A plain operator: its table row's opcode, then a memory row's immediate.
fn plain(out: &mut Vec<u8>, row: &OpRow, memarg: Option<MemArg>) {
    out.push(row.opcode);
    if let Some(sub) = row.sub {
        write_unsigned(out, sub.into());
    }
    if let Some(m) = memarg {
        encode_memarg(out, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_module;
    use crate::instr::{I64Op, LoadKind, UnOp};
    use crate::types::GlobalType;

    #[test]
    fn roundtrip_minimal() {
        let mut m = Module::default();
        m.types.push(FuncType::new(&[], &[ValType::I32]));
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![],
            code: vec![Instr::I32Const(42), Instr::End],
        });
        m.exports.push(Export {
            name: "f".into(),
            kind: ExportKind::Func(0),
        });
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_rich_module() {
        let mut m = Module::default();
        m.types.push(FuncType::new(
            &[ValType::I32, ValType::F64],
            &[ValType::I64],
        ));
        m.types.push(FuncType::new(&[], &[]));
        m.imports.push(Import {
            module: "env".into(),
            name: "host_fn".into(),
            kind: ImportKind::Func { type_idx: 1 },
        });
        m.memory = Some(Limits::new(1, Some(16)));
        m.table = Some(Limits::new(2, None));
        m.globals.push(Global {
            ty: GlobalType {
                ty: ValType::F64,
                mutability: Mutability::Var,
            },
            init: ConstExpr::F64(3.25),
        });
        m.funcs.push(FuncBody {
            type_idx: 0,
            locals: vec![ValType::I32, ValType::I32, ValType::F64],
            code: vec![
                Instr::Block {
                    ty: BlockType::Value(ValType::I64),
                },
                Instr::I64Const(-5),
                Instr::Br { depth: 0 },
                Instr::End,
                Instr::LocalGet(0),
                Instr::Un(UnOp::I64ExtendI32S),
                Instr::I64Bin(I64Op::I64Add),
                Instr::I32Const(0),
                Instr::Load(
                    LoadKind::I64,
                    MemArg {
                        align: 3,
                        offset: 8,
                    },
                ),
                Instr::I64Bin(I64Op::I64Add),
                Instr::End,
            ],
        });
        m.exports.push(Export {
            name: "go".into(),
            kind: ExportKind::Func(1),
        });
        m.exports.push(Export {
            name: "mem".into(),
            kind: ExportKind::Memory,
        });
        m.elems.push(ElemSegment {
            offset: ConstExpr::I32(0),
            funcs: vec![1, 1],
        });
        m.data.push(DataSegment {
            offset: ConstExpr::I32(8),
            bytes: vec![1, 2, 3, 4],
        });
        m.start = None;

        let bytes = encode_module(&m);
        let back = decode_module(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn locals_run_length_encoding() {
        let mut out = Vec::new();
        encode_locals(
            &mut out,
            &[ValType::I32, ValType::I32, ValType::F64, ValType::I32],
        );
        // 3 groups: 2×i32, 1×f64, 1×i32
        assert_eq!(out[0], 3);
        assert_eq!(out[1], 2);
        assert_eq!(out[2], ValType::I32.to_byte());
    }
}
