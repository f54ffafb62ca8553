//! WebAssembly binary-format encoder: the exact inverse of [`crate::decode`].
//!
//! WA-RAN generates plugins in-process (via [`crate::builder`] or the PlugC
//! compiler) and ships them as standard `.wasm` binaries, so the encoder is
//! a first-class part of the toolchain, not a test helper. Round-tripping
//! (`encode(decode(x)) == canonical(x)`) is covered by property tests.

use crate::instr::Instr;
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

fn encode_memarg(out: &mut Vec<u8>, m: crate::instr::MemArg) {
    write_unsigned(out, m.align as u64);
    write_unsigned(out, m.offset as u64);
}

/// Encode one instruction (used by the code section writer).
pub fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
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
        Else { .. } => out.push(0x05),
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
        I32Load(m) => {
            out.push(0x28);
            encode_memarg(out, *m);
        }
        I64Load(m) => {
            out.push(0x29);
            encode_memarg(out, *m);
        }
        F32Load(m) => {
            out.push(0x2a);
            encode_memarg(out, *m);
        }
        F64Load(m) => {
            out.push(0x2b);
            encode_memarg(out, *m);
        }
        I32Load8S(m) => {
            out.push(0x2c);
            encode_memarg(out, *m);
        }
        I32Load8U(m) => {
            out.push(0x2d);
            encode_memarg(out, *m);
        }
        I32Load16S(m) => {
            out.push(0x2e);
            encode_memarg(out, *m);
        }
        I32Load16U(m) => {
            out.push(0x2f);
            encode_memarg(out, *m);
        }
        I64Load8S(m) => {
            out.push(0x30);
            encode_memarg(out, *m);
        }
        I64Load8U(m) => {
            out.push(0x31);
            encode_memarg(out, *m);
        }
        I64Load16S(m) => {
            out.push(0x32);
            encode_memarg(out, *m);
        }
        I64Load16U(m) => {
            out.push(0x33);
            encode_memarg(out, *m);
        }
        I64Load32S(m) => {
            out.push(0x34);
            encode_memarg(out, *m);
        }
        I64Load32U(m) => {
            out.push(0x35);
            encode_memarg(out, *m);
        }
        I32Store(m) => {
            out.push(0x36);
            encode_memarg(out, *m);
        }
        I64Store(m) => {
            out.push(0x37);
            encode_memarg(out, *m);
        }
        F32Store(m) => {
            out.push(0x38);
            encode_memarg(out, *m);
        }
        F64Store(m) => {
            out.push(0x39);
            encode_memarg(out, *m);
        }
        I32Store8(m) => {
            out.push(0x3a);
            encode_memarg(out, *m);
        }
        I32Store16(m) => {
            out.push(0x3b);
            encode_memarg(out, *m);
        }
        I64Store8(m) => {
            out.push(0x3c);
            encode_memarg(out, *m);
        }
        I64Store16(m) => {
            out.push(0x3d);
            encode_memarg(out, *m);
        }
        I64Store32(m) => {
            out.push(0x3e);
            encode_memarg(out, *m);
        }
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
        I32Eqz => out.push(0x45),
        I32Eq => out.push(0x46),
        I32Ne => out.push(0x47),
        I32LtS => out.push(0x48),
        I32LtU => out.push(0x49),
        I32GtS => out.push(0x4a),
        I32GtU => out.push(0x4b),
        I32LeS => out.push(0x4c),
        I32LeU => out.push(0x4d),
        I32GeS => out.push(0x4e),
        I32GeU => out.push(0x4f),
        I64Eqz => out.push(0x50),
        I64Eq => out.push(0x51),
        I64Ne => out.push(0x52),
        I64LtS => out.push(0x53),
        I64LtU => out.push(0x54),
        I64GtS => out.push(0x55),
        I64GtU => out.push(0x56),
        I64LeS => out.push(0x57),
        I64LeU => out.push(0x58),
        I64GeS => out.push(0x59),
        I64GeU => out.push(0x5a),
        F32Eq => out.push(0x5b),
        F32Ne => out.push(0x5c),
        F32Lt => out.push(0x5d),
        F32Gt => out.push(0x5e),
        F32Le => out.push(0x5f),
        F32Ge => out.push(0x60),
        F64Eq => out.push(0x61),
        F64Ne => out.push(0x62),
        F64Lt => out.push(0x63),
        F64Gt => out.push(0x64),
        F64Le => out.push(0x65),
        F64Ge => out.push(0x66),
        I32Clz => out.push(0x67),
        I32Ctz => out.push(0x68),
        I32Popcnt => out.push(0x69),
        I32Add => out.push(0x6a),
        I32Sub => out.push(0x6b),
        I32Mul => out.push(0x6c),
        I32DivS => out.push(0x6d),
        I32DivU => out.push(0x6e),
        I32RemS => out.push(0x6f),
        I32RemU => out.push(0x70),
        I32And => out.push(0x71),
        I32Or => out.push(0x72),
        I32Xor => out.push(0x73),
        I32Shl => out.push(0x74),
        I32ShrS => out.push(0x75),
        I32ShrU => out.push(0x76),
        I32Rotl => out.push(0x77),
        I32Rotr => out.push(0x78),
        I64Clz => out.push(0x79),
        I64Ctz => out.push(0x7a),
        I64Popcnt => out.push(0x7b),
        I64Add => out.push(0x7c),
        I64Sub => out.push(0x7d),
        I64Mul => out.push(0x7e),
        I64DivS => out.push(0x7f),
        I64DivU => out.push(0x80),
        I64RemS => out.push(0x81),
        I64RemU => out.push(0x82),
        I64And => out.push(0x83),
        I64Or => out.push(0x84),
        I64Xor => out.push(0x85),
        I64Shl => out.push(0x86),
        I64ShrS => out.push(0x87),
        I64ShrU => out.push(0x88),
        I64Rotl => out.push(0x89),
        I64Rotr => out.push(0x8a),
        F32Abs => out.push(0x8b),
        F32Neg => out.push(0x8c),
        F32Ceil => out.push(0x8d),
        F32Floor => out.push(0x8e),
        F32Trunc => out.push(0x8f),
        F32Nearest => out.push(0x90),
        F32Sqrt => out.push(0x91),
        F32Add => out.push(0x92),
        F32Sub => out.push(0x93),
        F32Mul => out.push(0x94),
        F32Div => out.push(0x95),
        F32Min => out.push(0x96),
        F32Max => out.push(0x97),
        F32Copysign => out.push(0x98),
        F64Abs => out.push(0x99),
        F64Neg => out.push(0x9a),
        F64Ceil => out.push(0x9b),
        F64Floor => out.push(0x9c),
        F64Trunc => out.push(0x9d),
        F64Nearest => out.push(0x9e),
        F64Sqrt => out.push(0x9f),
        F64Add => out.push(0xa0),
        F64Sub => out.push(0xa1),
        F64Mul => out.push(0xa2),
        F64Div => out.push(0xa3),
        F64Min => out.push(0xa4),
        F64Max => out.push(0xa5),
        F64Copysign => out.push(0xa6),
        I32WrapI64 => out.push(0xa7),
        I32TruncF32S => out.push(0xa8),
        I32TruncF32U => out.push(0xa9),
        I32TruncF64S => out.push(0xaa),
        I32TruncF64U => out.push(0xab),
        I64ExtendI32S => out.push(0xac),
        I64ExtendI32U => out.push(0xad),
        I64TruncF32S => out.push(0xae),
        I64TruncF32U => out.push(0xaf),
        I64TruncF64S => out.push(0xb0),
        I64TruncF64U => out.push(0xb1),
        F32ConvertI32S => out.push(0xb2),
        F32ConvertI32U => out.push(0xb3),
        F32ConvertI64S => out.push(0xb4),
        F32ConvertI64U => out.push(0xb5),
        F32DemoteF64 => out.push(0xb6),
        F64ConvertI32S => out.push(0xb7),
        F64ConvertI32U => out.push(0xb8),
        F64ConvertI64S => out.push(0xb9),
        F64ConvertI64U => out.push(0xba),
        F64PromoteF32 => out.push(0xbb),
        I32ReinterpretF32 => out.push(0xbc),
        I64ReinterpretF64 => out.push(0xbd),
        F32ReinterpretI32 => out.push(0xbe),
        F64ReinterpretI64 => out.push(0xbf),
        I32Extend8S => out.push(0xc0),
        I32Extend16S => out.push(0xc1),
        I64Extend8S => out.push(0xc2),
        I64Extend16S => out.push(0xc3),
        I64Extend32S => out.push(0xc4),
        I32TruncSatF32S => {
            out.push(0xfc);
            write_unsigned(out, 0);
        }
        I32TruncSatF32U => {
            out.push(0xfc);
            write_unsigned(out, 1);
        }
        I32TruncSatF64S => {
            out.push(0xfc);
            write_unsigned(out, 2);
        }
        I32TruncSatF64U => {
            out.push(0xfc);
            write_unsigned(out, 3);
        }
        I64TruncSatF32S => {
            out.push(0xfc);
            write_unsigned(out, 4);
        }
        I64TruncSatF32U => {
            out.push(0xfc);
            write_unsigned(out, 5);
        }
        I64TruncSatF64S => {
            out.push(0xfc);
            write_unsigned(out, 6);
        }
        I64TruncSatF64U => {
            out.push(0xfc);
            write_unsigned(out, 7);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_module;
    use crate::instr::MemArg;
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
                    end_pc: 3,
                },
                Instr::I64Const(-5),
                Instr::Br { depth: 0 },
                Instr::End,
                Instr::LocalGet(0),
                Instr::I64ExtendI32S,
                Instr::I64Add,
                Instr::I32Const(0),
                Instr::I64Load(MemArg {
                    align: 3,
                    offset: 8,
                }),
                Instr::I64Add,
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
