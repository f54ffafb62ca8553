//! WAT-style disassembler.
//!
//! Renders a decoded [`Module`] as readable WAT-flavoured text — the
//! operator-side tool for inspecting third-party plugins before deploying
//! them into a RAN (the paper's §3.A: "MNOs can perform static analysis on
//! the MVNO scheduler plugin before deployment"). The output uses the flat
//! instruction syntax this crate's [`crate::wat`] assembler accepts for
//! the supported subset.
//!
//! Two more listings render the compiled forms: [`disassemble_flat`] (the
//! proof's left-hand side) and [`disassemble_reg`] (what executes). Both
//! spell a plain operator by its [`crate::ops`] payload's `Debug` name —
//! numeric ones mapped to the WAT mnemonic, loads and stores as
//! `load.<Kind>`/`store.<Kind>` — so neither keeps a name table.

use std::fmt::Write as _;

use crate::compile::{CompiledFunc, Op};
use crate::instr::Instr;
use crate::module::{ConstExpr, ExportKind, ImportKind, Module};
use crate::regalloc::{RBranch, ROp, RegFunc};
use crate::types::{BlockType, FuncType, Mutability, ValType};

/// Render a module as WAT-style text.
pub fn disassemble(module: &Module) -> String {
    let mut out = String::new();
    out.push_str("(module\n");

    for imp in &module.imports {
        let ImportKind::Func { type_idx } = imp.kind;
        let ty = &module.types[type_idx as usize];
        let _ = writeln!(
            out,
            "  (import \"{}\" \"{}\" (func {}))",
            imp.module,
            imp.name,
            signature(ty)
        );
    }

    if let Some(mem) = module.memory {
        let max = mem.max.map(|m| format!(" {m}")).unwrap_or_default();
        let _ = writeln!(out, "  (memory {}{})", mem.min, max);
    }
    if let Some(table) = module.table {
        let max = table.max.map(|m| format!(" {m}")).unwrap_or_default();
        let _ = writeln!(out, "  (table {}{} funcref)", table.min, max);
    }

    for (i, g) in module.globals.iter().enumerate() {
        let ty = match g.ty.mutability {
            Mutability::Var => format!("(mut {})", g.ty.ty),
            Mutability::Const => g.ty.ty.to_string(),
        };
        let _ = writeln!(out, "  (global $g{i} {ty} ({}))", const_expr(&g.init));
    }

    let n_imports = module.num_imported_funcs();
    for (i, body) in module.funcs.iter().enumerate() {
        let func_idx = n_imports + i as u32;
        let ty = &module.types[body.type_idx as usize];
        let export = module
            .exports
            .iter()
            .find(|e| e.kind == ExportKind::Func(func_idx))
            .map(|e| format!(" (export \"{}\")", e.name))
            .unwrap_or_default();
        let _ = writeln!(out, "  (func $f{func_idx}{export} {}", signature(ty));
        if !body.locals.is_empty() {
            let locals: Vec<String> = body.locals.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(out, "    (local {})", locals.join(" "));
        }
        // Instruction listing with nesting-aware indentation; the trailing
        // function-level `end` is implied by the closing paren.
        let mut depth = 1usize;
        for (pc, instr) in body.code.iter().enumerate() {
            if pc == body.code.len() - 1 && matches!(instr, Instr::End) {
                break;
            }
            match instr {
                Instr::End => depth = depth.saturating_sub(1),
                Instr::Else { .. } => depth = depth.saturating_sub(1),
                _ => {}
            }
            let _ = writeln!(
                out,
                "    {}{}",
                "  ".repeat(depth.saturating_sub(1)),
                render(instr)
            );
            match instr {
                Instr::Block { .. }
                | Instr::Loop { .. }
                | Instr::If { .. }
                | Instr::Else { .. } => depth += 1,
                _ => {}
            }
        }
        out.push_str("  )\n");
    }

    for e in &module.exports {
        match e.kind {
            ExportKind::Memory => {
                let _ = writeln!(out, "  (export \"{}\" (memory 0))", e.name);
            }
            ExportKind::Global(idx) => {
                let _ = writeln!(out, "  (export \"{}\" (global $g{idx}))", e.name);
            }
            _ => {} // function exports rendered inline, table exports elided
        }
    }

    if let Some(start) = module.start {
        let _ = writeln!(out, "  (start $f{start})");
    }
    for seg in &module.elems {
        let funcs: Vec<String> = seg.funcs.iter().map(|f| format!("$f{f}")).collect();
        let _ = writeln!(
            out,
            "  (elem ({}) {})",
            const_expr(&seg.offset),
            funcs.join(" ")
        );
    }
    for seg in &module.data {
        let _ = writeln!(
            out,
            "  (data ({}) \"{}\")",
            const_expr(&seg.offset),
            escape_bytes(&seg.bytes)
        );
    }

    out.push_str(")\n");
    out
}

fn signature(ty: &FuncType) -> String {
    let mut s = String::new();
    if !ty.params.is_empty() {
        let params: Vec<String> = ty.params.iter().map(ValType::to_string).collect();
        let _ = write!(s, "(param {})", params.join(" "));
    }
    if let Some(r) = ty.results.first() {
        if !s.is_empty() {
            s.push(' ');
        }
        let _ = write!(s, "(result {r})");
    }
    s
}

fn const_expr(e: &ConstExpr) -> String {
    match e {
        ConstExpr::I32(v) => format!("i32.const {v}"),
        ConstExpr::I64(v) => format!("i64.const {v}"),
        ConstExpr::F32(v) => format!("f32.const {v}"),
        ConstExpr::F64(v) => format!("f64.const {v}"),
    }
}

fn escape_bytes(bytes: &[u8]) -> String {
    let mut s = String::new();
    for &b in bytes {
        match b {
            b'"' => s.push_str("\\\""),
            b'\\' => s.push_str("\\\\"),
            0x20..=0x7e => s.push(b as char),
            other => {
                let _ = write!(s, "\\{other:02x}");
            }
        }
    }
    s
}

fn blocktype(bt: &BlockType) -> String {
    match bt {
        BlockType::Empty => String::new(),
        BlockType::Value(t) => format!(" (result {t})"),
    }
}

fn memarg(name: &str, m: &crate::instr::MemArg) -> String {
    if m.offset == 0 {
        name.to_string()
    } else {
        format!("{name} offset={}", m.offset)
    }
}

/// Render one instruction in flat WAT syntax.
pub fn render(instr: &Instr) -> String {
    use Instr::*;
    match instr {
        Unreachable => "unreachable".into(),
        Nop => "nop".into(),
        Block { ty, .. } => format!("block{}", blocktype(ty)),
        Loop { ty } => format!("loop{}", blocktype(ty)),
        If { ty, .. } => format!("if{}", blocktype(ty)),
        Else { .. } => "else".into(),
        End => "end".into(),
        Br { depth } => format!("br {depth}"),
        BrIf { depth } => format!("br_if {depth}"),
        BrTable { targets, default } => {
            let mut s = String::from("br_table");
            for t in targets.iter() {
                let _ = write!(s, " {t}");
            }
            let _ = write!(s, " {default}");
            s
        }
        Return => "return".into(),
        Call { func } => format!("call $f{func}"),
        CallIndirect { type_idx } => format!("call_indirect (type {type_idx})"),
        Drop => "drop".into(),
        Select => "select".into(),
        LocalGet(i) => format!("local.get {i}"),
        LocalSet(i) => format!("local.set {i}"),
        LocalTee(i) => format!("local.tee {i}"),
        GlobalGet(i) => format!("global.get $g{i}"),
        GlobalSet(i) => format!("global.set $g{i}"),
        I32Load(m) => memarg("i32.load", m),
        I64Load(m) => memarg("i64.load", m),
        F32Load(m) => memarg("f32.load", m),
        F64Load(m) => memarg("f64.load", m),
        I32Load8S(m) => memarg("i32.load8_s", m),
        I32Load8U(m) => memarg("i32.load8_u", m),
        I32Load16S(m) => memarg("i32.load16_s", m),
        I32Load16U(m) => memarg("i32.load16_u", m),
        I64Load8S(m) => memarg("i64.load8_s", m),
        I64Load8U(m) => memarg("i64.load8_u", m),
        I64Load16S(m) => memarg("i64.load16_s", m),
        I64Load16U(m) => memarg("i64.load16_u", m),
        I64Load32S(m) => memarg("i64.load32_s", m),
        I64Load32U(m) => memarg("i64.load32_u", m),
        I32Store(m) => memarg("i32.store", m),
        I64Store(m) => memarg("i64.store", m),
        F32Store(m) => memarg("f32.store", m),
        F64Store(m) => memarg("f64.store", m),
        I32Store8(m) => memarg("i32.store8", m),
        I32Store16(m) => memarg("i32.store16", m),
        I64Store8(m) => memarg("i64.store8", m),
        I64Store16(m) => memarg("i64.store16", m),
        I64Store32(m) => memarg("i64.store32", m),
        MemorySize => "memory.size".into(),
        MemoryGrow => "memory.grow".into(),
        MemoryCopy => "memory.copy".into(),
        MemoryFill => "memory.fill".into(),
        I32Const(v) => format!("i32.const {v}"),
        I64Const(v) => format!("i64.const {v}"),
        F32Const(v) => format!("f32.const {v}"),
        F64Const(v) => format!("f64.const {v}"),
        // Numeric operators: derive the WAT name from the variant name,
        // e.g. I32DivS -> i32.div_s, F64PromoteF32 -> f64.promote_f32.
        other => variant_to_wat(other),
    }
}

/// Render every function's register-form lowering ([`crate::regalloc`])
/// as a stable, line-oriented listing — the debugging companion to
/// [`disassemble`] for the code instances actually execute. Registers
/// print as `r{n}`; `r0..r{n_locals}` are the locals, the rest are stack
/// slots.
/// Forces lowering of every body.
pub fn disassemble_reg(module: &Module) -> String {
    let mut out = String::new();
    let n_imports = module.num_imported_funcs();
    for i in 0..module.funcs.len() as u32 {
        let rf = module.reg_func(i);
        let _ = writeln!(
            out,
            "func $f{} (args {} -> {}, locals r0..r{}, frame {}):",
            n_imports + i,
            rf.argc,
            rf.ret_arity,
            rf.n_locals,
            rf.frame_size
        );
        for (pc, op) in rf.ops.iter().enumerate() {
            let _ = writeln!(out, "  {pc:>4}  {}", render_rop(op, rf));
        }
    }
    out
}

/// Render a branch descriptor: destination pc plus the carried-value move.
fn render_rbranch(rb: &RBranch) -> String {
    if rb.n == 0 {
        format!("->{}", rb.pc)
    } else {
        format!("->{} (r{}..+{} => r{})", rb.pc, rb.src, rb.n, rb.dst)
    }
}

/// Render one register-form op. One line, stable format.
fn render_rop(op: &ROp, rf: &RegFunc) -> String {
    let br = |bi: u32| render_rbranch(&rf.branches[bi as usize]);
    match *op {
        ROp::Meter { cost, entry, peak } => {
            format!("meter cost={cost} entry={entry} peak={peak}")
        }
        ROp::Unreachable => "unreachable".into(),
        ROp::Br(b) => format!("br {}", br(b)),
        ROp::BrIf { cond, br: b } => format!("br_if r{cond} {}", br(b)),
        ROp::BrIfZ { cond, br: b } => format!("br_ifz r{cond} {}", br(b)),
        ROp::BrIfCmp { op, a, b, br: bi } => {
            format!("br_if (i32.{op:?} r{a} r{b}) {}", br(bi))
        }
        ROp::BrIfCmpC { op, a, k, br: bi } => {
            format!("br_if (i32.{op:?} r{a} {k}) {}", br(bi))
        }
        ROp::BrTable { sel, start, n } => {
            let arms: Vec<String> = (start..=start + n).map(br).collect();
            format!("br_table r{sel} [{}]", arms.join(", "))
        }
        ROp::Return { src } => format!("return r{src}"),
        ROp::CallWasm { f, base } => format!("call $f{f} window=r{base}"),
        ROp::CallHost { f, base, argc, ret } => {
            format!("call_host {f} window=r{base} argc={argc} ret={ret}")
        }
        ROp::CallIndirect { ty, base } => {
            format!("call_indirect (type {ty}) window=r{base}")
        }
        ROp::Copy { dst, src } => format!("r{dst} = r{src}"),
        ROp::ConstI32 { dst, k } => format!("r{dst} = i32.const {k}"),
        ROp::Const { dst, idx } => {
            format!("r{dst} = const[{idx}] ; {:?}", rf.consts[idx as usize])
        }
        ROp::Select { dst, cond, b } => {
            format!("r{dst} = select r{cond} ? r{dst} : r{b}")
        }
        ROp::GlobalGet { dst, g } => format!("r{dst} = global.get {g}"),
        ROp::GlobalSet { g, src } => format!("global.set {g} = r{src}"),
        ROp::MemorySize { dst } => format!("r{dst} = memory.size"),
        ROp::MemoryGrow { dst, delta } => format!("r{dst} = memory.grow r{delta}"),
        ROp::MemoryCopy { dst, src, len } => {
            format!("memory.copy r{dst} r{src} r{len}")
        }
        ROp::MemoryFill { dst, val, len } => {
            format!("memory.fill r{dst} r{val} r{len}")
        }
        ROp::I32Bin { op, dst, a, b } => format!("r{dst} = i32.{op:?} r{a} r{b}"),
        ROp::I32BinC { op, dst, a, k } => format!("r{dst} = i32.{op:?} r{a} {k}"),
        ROp::I64Bin { op, dst, a, b } => format!("r{dst} = {op:?} r{a} r{b}"),
        ROp::Bin { op, dst, a, b } => format!("r{dst} = {op:?} r{a} r{b}"),
        ROp::Un { op, dst, a } => format!("r{dst} = {op:?} r{a}"),
        ROp::Load {
            kind,
            dst,
            addr,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{addr}+{off}]")
        }
        ROp::Store {
            kind,
            addr,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{addr}+{off}] = r{val}")
        }
        ROp::LoadAt {
            kind,
            dst,
            a,
            k,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{a}{k:+}+{off}]")
        }
        ROp::LoadRR {
            kind,
            dst,
            a,
            b,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{a}+r{b}+{off}]")
        }
        ROp::StoreAt {
            kind,
            a,
            k,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{a}{k:+}+{off}] = r{val}")
        }
        ROp::StoreRR {
            kind,
            a,
            b,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{a}+r{b}+{off}] = r{val}")
        }
        ROp::LoadBis {
            kind,
            dst,
            a,
            b,
            sh,
            k,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{a}+(r{b}<<{sh}){k:+}+{off}]")
        }
        ROp::StoreBis {
            kind,
            a,
            b,
            sh,
            k,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{a}+(r{b}<<{sh}){k:+}+{off}] = r{val}")
        }
        ROp::StoreCAt { kind, a, k, v, off } => {
            format!("store.{kind:?} [r{a}{k:+}+{off}] = const {v:#x}")
        }
    }
}

/// Render every function's flat-IR lowering ([`crate::compile`]) as a
/// stable, line-oriented listing — the intermediate [`disassemble_reg`]'s
/// ops were lowered from and are proven against. Forces compilation of
/// every body.
pub fn disassemble_flat(module: &Module) -> String {
    let mut out = String::new();
    let n_imports = module.num_imported_funcs();
    for i in 0..module.funcs.len() as u32 {
        let cf = module.compiled_func(i);
        let _ = writeln!(
            out,
            "func $f{} (args {} -> {}, locals {}):",
            n_imports + i,
            cf.argc,
            cf.ret_arity,
            cf.argc as usize + cf.locals_init.len()
        );
        for (pc, op) in cf.ops.iter().enumerate() {
            let _ = writeln!(out, "  {pc:>4}  {}", render_op(op, cf));
        }
    }
    out
}

/// Render a flat branch target: destination pc plus the stack the target
/// expects (`height` slots below `arity` carried values).
fn render_branch(bt: &crate::compile::BranchTarget) -> String {
    if bt.height == 0 && bt.arity == 0 {
        format!("->{}", bt.pc)
    } else {
        format!("->{} (h={} n={})", bt.pc, bt.height, bt.arity)
    }
}

/// Render one flat-IR op. The match is deliberately exhaustive (no `_`
/// arm): a new [`Op`] variant fails compilation here until it is given a
/// rendering, so new ops cannot silently skip the operator tooling.
fn render_op(op: &Op, cf: &CompiledFunc) -> String {
    let br = |bi: u32| render_branch(&cf.branches[bi as usize]);
    match *op {
        Op::Meter { cost, peak } => format!("meter cost={cost} peak={peak}"),
        Op::Unreachable => "unreachable".into(),
        Op::Br(b) => format!("br {}", br(b)),
        Op::BrIf(b) => format!("br_if {}", br(b)),
        Op::BrIfZ(b) => format!("br_ifz {}", br(b)),
        Op::BrTable { start, n } => {
            let arms: Vec<String> = (start..=start + n).map(br).collect();
            format!("br_table [{}]", arms.join(", "))
        }
        Op::Return => "return".into(),
        Op::CallWasm(f) => format!("call $f{f}"),
        Op::CallHost { f, argc, ret } => format!("call_host {f} argc={argc} ret={ret}"),
        Op::CallIndirect(ty) => format!("call_indirect (type {ty})"),
        Op::Drop => "drop".into(),
        Op::Select => "select".into(),
        Op::LocalGet(l) => format!("local.get {l}"),
        Op::LocalSet(l) => format!("local.set {l}"),
        Op::LocalTee(l) => format!("local.tee {l}"),
        Op::GlobalGet(g) => format!("global.get {g}"),
        Op::GlobalSet(g) => format!("global.set {g}"),
        Op::I32Bin(op) => format!("i32.{op:?}"),
        // The payload's own name is the spelling: numeric operators map
        // mechanically to their WAT mnemonic, loads and stores read as in
        // the register listing.
        Op::I64Bin(op) => variant_to_wat(&op),
        Op::Bin(op) => variant_to_wat(&op),
        Op::Un(op) => variant_to_wat(&op),
        Op::Load { kind, off } => format!("load.{kind:?} offset={off}"),
        Op::Store { kind, off } => format!("store.{kind:?} offset={off}"),
        Op::MemorySize => "memory.size".into(),
        Op::MemoryGrow => "memory.grow".into(),
        Op::MemoryCopy => "memory.copy".into(),
        Op::MemoryFill => "memory.fill".into(),
        Op::I32Const(v) => format!("i32.const {v}"),
        Op::I64Const(v) => format!("i64.const {v}"),
        Op::F32Const(v) => format!("f32.const {v}"),
        Op::F64Const(v) => format!("f64.const {v}"),
    }
}

/// A unit variant's `Debug` name as its WAT mnemonic:
/// `I32TruncSatF64U` → `i32.trunc_sat_f64_u`, etc.
fn variant_to_wat(variant: &dyn std::fmt::Debug) -> String {
    let mut out = String::new();
    let chars: Vec<char> = format!("{variant:?}").chars().collect();
    let mut i = 0;
    // Leading type prefix: I32/I64/F32/F64.
    if chars.len() >= 3 && (chars[0] == 'I' || chars[0] == 'F') {
        out.push(chars[0].to_ascii_lowercase());
        out.push(chars[1]);
        out.push(chars[2]);
        out.push('.');
        i = 3;
    }
    let mut word_break = false;
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_uppercase() {
            if word_break {
                out.push('_');
            }
            // Embedded operand types (I32/F64…) keep their digits attached.
            if (c == 'I' || c == 'F')
                && i + 2 < chars.len()
                && chars[i + 1].is_ascii_digit()
                && chars[i + 2].is_ascii_digit()
            {
                out.push(c.to_ascii_lowercase());
                out.push(chars[i + 1]);
                out.push(chars[i + 2]);
                i += 3;
                word_break = true;
                continue;
            }
            out.push(c.to_ascii_lowercase());
            word_break = false;
        } else {
            out.push(c);
            word_break = true;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BinOp, I64Op, LoadKind, StoreKind, UnOp};
    use crate::wat;

    #[test]
    fn variant_names_map_to_wat() {
        use crate::instr::Instr::*;
        assert_eq!(render(&I32DivS), "i32.div_s");
        assert_eq!(render(&I64ShrU), "i64.shr_u");
        assert_eq!(render(&F64PromoteF32), "f64.promote_f32");
        assert_eq!(render(&I32TruncSatF64U), "i32.trunc_sat_f64_u");
        assert_eq!(render(&I64ExtendI32S), "i64.extend_i32_s");
        assert_eq!(render(&F32Copysign), "f32.copysign");
        assert_eq!(render(&I32Extend8S), "i32.extend8_s");
        assert_eq!(render(&I32Clz), "i32.clz");
    }

    #[test]
    fn disassembles_a_module() {
        let bytes = wat::assemble(
            r#"(module
                 (import "env" "log" (func (param i32)))
                 (memory (export "memory") 1 4)
                 (global $g (mut i64) (i64.const 5))
                 (data (i32.const 8) "hi\00")
                 (func $f (export "work") (param i32 i32) (result i32)
                   (local i64)
                   block (result i32)
                     local.get 0
                     local.get 1
                     i32.add
                   end))"#,
        )
        .unwrap();
        let module = crate::load_module(&bytes).unwrap();
        let text = disassemble(&module);
        for needle in [
            "(import \"env\" \"log\" (func (param i32)))",
            "(memory 1 4)",
            "(global $g0 (mut i64) (i64.const 5))",
            "(export \"work\")",
            "(param i32 i32) (result i32)",
            "(local i64)",
            "block (result i32)",
            "i32.add",
            "(data (i32.const 8) \"hi\\00\")",
            "(export \"memory\" (memory 0))",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn disassembly_of_standard_shapes_is_stable() {
        // The round structure survives: block/loop indentation nests and
        // every opened construct closes.
        let bytes = wat::assemble(
            r#"(module
                 (func (export "f") (param i32) (result i32)
                   block $b (result i32)
                     loop $l
                       i32.const 7
                       local.get 0
                       i32.eqz
                       br_if 1
                       drop
                       br $l
                     end
                     unreachable
                   end))"#,
        )
        .unwrap();
        let module = crate::load_module(&bytes).unwrap();
        let text = disassemble(&module);
        let opens = text.matches("block").count() + text.matches("loop").count();
        let ends = text.matches("\n    end").count() + text.matches("  end").count();
        assert!(ends >= opens, "unbalanced disassembly:\n{text}");
    }

    #[test]
    fn escape_bytes_printable_and_hex() {
        assert_eq!(escape_bytes(b"a\"b\\c\x01"), "a\\\"b\\\\c\\01");
    }

    #[test]
    fn flat_form_snapshot_is_stable() {
        // Snapshot of the flat-IR listing for the same two functions as
        // the register-form snapshot below: one op per source instruction
        // (nothing fused — compare the register listing) and the if/else
        // diamond with its interned branch targets. The exact text is
        // load-bearing for debugging the flat compiler; update it
        // deliberately when the lowering changes.
        let bytes = wat::assemble(
            r#"(module
                 (func (export "madd") (param i32 i32) (result i32)
                   local.get 0
                   local.get 1
                   i32.mul
                   i32.const 3
                   i32.add)
                 (func (export "pick") (param i32) (result i32)
                   local.get 0
                   if (result i32)
                     i32.const 7
                   else
                     i32.const 9
                   end))"#,
        )
        .unwrap();
        let module = crate::load_module(&bytes).unwrap();
        let text = disassemble_flat(&module);
        assert_eq!(
            text,
            "\
func $f0 (args 2 -> 1, locals 2):
     0  meter cost=6 peak=2
     1  local.get 0
     2  local.get 1
     3  i32.Mul
     4  i32.const 3
     5  i32.Add
     6  return
func $f1 (args 1 -> 1, locals 1):
     0  meter cost=2 peak=1
     1  local.get 0
     2  br_ifz ->6
     3  meter cost=2 peak=1
     4  i32.const 7
     5  br ->8 (h=0 n=1)
     6  meter cost=1 peak=1
     7  i32.const 9
     8  meter cost=2 peak=0
     9  return
"
        );
    }

    #[test]
    fn flat_numeric_tail_renders_wat_names() {
        // The long-tail arm derives names mechanically; spot-check the
        // tricky shapes (operand-type suffixes, sat-conversions, extends).
        let cf = crate::compile::CompiledFunc {
            ops: Box::new([]),
            branches: Box::new([]),
            locals_init: Box::new([]),
            argc: 0,
            ret_arity: 0,
        };
        for (op, want) in [
            (Op::I64Bin(I64Op::I64Rotl), "i64.rotl"),
            (Op::Bin(BinOp::I32DivS), "i32.div_s"),
            (Op::Un(UnOp::F64PromoteF32), "f64.promote_f32"),
            (Op::Un(UnOp::I32TruncSatF64U), "i32.trunc_sat_f64_u"),
            (Op::Un(UnOp::I64ExtendI32S), "i64.extend_i32_s"),
            (Op::Un(UnOp::I64Extend32S), "i64.extend32_s"),
            (Op::Bin(BinOp::F32Copysign), "f32.copysign"),
            (Op::Un(UnOp::I32ReinterpretF32), "i32.reinterpret_f32"),
            // Loads and stores are spelled by kind, like the register listing.
            (
                Op::Load {
                    kind: LoadKind::I64S32,
                    off: 8,
                },
                "load.I64S32 offset=8",
            ),
            (
                Op::Store {
                    kind: StoreKind::I32Lo8,
                    off: 0,
                },
                "store.I32Lo8 offset=0",
            ),
        ] {
            assert_eq!(render_op(&op, &cf), want);
        }
        assert_eq!(render_op(&Op::MemoryGrow, &cf), "memory.grow");
        assert_eq!(render_op(&Op::Select, &cf), "select");
    }

    #[test]
    fn register_form_snapshot_is_stable() {
        // Snapshot of the register-form listing for two tiny functions:
        // straight-line arithmetic (constant fused, local reused in place;
        // the frame counts the two lazy `local.get` cells that never
        // materialize) and an if/else diamond (branch on the local itself,
        // join flush).
        // The exact text is load-bearing for debugging the lowering pass;
        // update it deliberately when the lowering changes.
        let bytes = wat::assemble(
            r#"(module
                 (func (export "madd") (param i32 i32) (result i32)
                   local.get 0
                   local.get 1
                   i32.mul
                   i32.const 3
                   i32.add)
                 (func (export "pick") (param i32) (result i32)
                   local.get 0
                   if (result i32)
                     i32.const 7
                   else
                     i32.const 9
                   end))"#,
        )
        .unwrap();
        let module = crate::load_module(&bytes).unwrap();
        let text = disassemble_reg(&module);
        assert_eq!(
            text,
            "\
func $f0 (args 2 -> 1, locals r0..r2, frame 4):
     0  meter cost=6 entry=0 peak=2
     1  r2 = i32.Mul r0 r1
     2  r2 = i32.Add r2 3
     3  return r2
func $f1 (args 1 -> 1, locals r0..r1, frame 2):
     0  meter cost=2 entry=0 peak=1
     1  br_ifz r0 ->5
     2  meter cost=2 entry=0 peak=1
     3  r1 = i32.const 7
     4  br ->7
     5  meter cost=1 entry=0 peak=1
     6  r1 = i32.const 9
     7  meter cost=2 entry=1 peak=0
     8  return r1
"
        );
    }
}
