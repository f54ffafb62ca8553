//! Register-code listing.
//!
//! [`disassemble_reg`] renders every function's register form — the code
//! instances actually execute — as a stable, line-oriented listing. The
//! `analyze` tool prints it next to each function's static bounds (the
//! paper's §3.A: "MNOs can perform static analysis on the MVNO scheduler
//! plugin before deployment"), and `crates/bench/analyze.golden` pins it.
//! A plain operator is spelled by its operator payload's `Debug`
//! name — loads and stores as `load.<Kind>`/`store.<Kind>` — so the
//! listing keeps no name table.

use std::fmt::Write as _;

use crate::module::Module;
use crate::regalloc::{RBranch, RForm, RegFunc};

/// Render the register code every function of `module` runs, as the
/// proof checked it ([`Module::analysis`]), as a stable, line-oriented
/// listing. Registers print as `r{n}`; `r0..r{n_locals}` are the locals,
/// the rest are stack slots. Empty when the proof fails: no such code
/// runs.
pub fn disassemble_reg(module: &Module) -> String {
    let mut out = String::new();
    let n_imports = module.num_imported_funcs();
    let code = module.code().map(|c| &c[..]).unwrap_or_default();
    for (i, rf) in code.iter().enumerate() {
        let _ = writeln!(
            out,
            "func $f{} (args {} -> {}, locals r0..r{}, frame {}):",
            n_imports as usize + i,
            rf.argc,
            rf.ret_arity,
            rf.n_locals,
            rf.frame_size
        );
        for (pc, op) in rf.ops.iter().enumerate() {
            let _ = writeln!(out, "  {pc:>4}  {}", render_rop(op.view(), rf));
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
fn render_rop(op: RForm, rf: &RegFunc) -> String {
    let br = |bi: u32| render_rbranch(&rf.branches[bi as usize]);
    match op {
        RForm::Meter { cost } => format!("meter cost={cost}"),
        RForm::Unreachable => "unreachable".into(),
        RForm::Br { br: b } => format!("br {}", br(b)),
        RForm::BrIf { cond, br: b } => format!("br_if r{cond} {}", br(b)),
        RForm::BrIfZ { cond, br: b } => format!("br_ifz r{cond} {}", br(b)),
        RForm::BrIfCmp { op, a, b, br: bi } => {
            format!("br_if (i32.{op:?} r{a} r{b}) {}", br(bi))
        }
        RForm::BrIfCmpC { op, a, k, br: bi } => {
            format!("br_if (i32.{op:?} r{a} {k}) {}", br(bi))
        }
        RForm::BrTable { sel, start, n } => {
            let arms: Vec<String> = (start..=start + n).map(br).collect();
            format!("br_table r{sel} [{}]", arms.join(", "))
        }
        RForm::Return { src } => format!("return r{src}"),
        RForm::CallWasm { f, base } => format!("call $f{f} window=r{base}"),
        RForm::CallHost { f, base, argc, ret } => {
            format!("call_host {f} window=r{base} argc={argc} ret={ret}")
        }
        RForm::CallIndirect { ty, base } => {
            format!("call_indirect (type {ty}) window=r{base}")
        }
        RForm::Copy { dst, src } => format!("r{dst} = r{src}"),
        RForm::ConstI32 { dst, k } => format!("r{dst} = i32.const {k}"),
        RForm::Const { dst, idx } => {
            format!("r{dst} = const[{idx}] ; {:?}", rf.consts[idx as usize])
        }
        RForm::Select { dst, cond, b } => {
            format!("r{dst} = select r{cond} ? r{dst} : r{b}")
        }
        RForm::GlobalGet { dst, g } => format!("r{dst} = global.get {g}"),
        RForm::GlobalSet { g, src } => format!("global.set {g} = r{src}"),
        RForm::MemorySize { dst } => format!("r{dst} = memory.size"),
        RForm::MemoryGrow { dst, delta } => format!("r{dst} = memory.grow r{delta}"),
        RForm::MemoryCopy { dst, src, len } => {
            format!("memory.copy r{dst} r{src} r{len}")
        }
        RForm::MemoryFill { dst, val, len } => {
            format!("memory.fill r{dst} r{val} r{len}")
        }
        RForm::I32Bin { op, dst, a, b } => format!("r{dst} = i32.{op:?} r{a} r{b}"),
        RForm::I32BinC { op, dst, a, k } => format!("r{dst} = i32.{op:?} r{a} {k}"),
        RForm::I64Bin { op, dst, a, b } => format!("r{dst} = {op:?} r{a} r{b}"),
        RForm::Bin { op, dst, a, b } => format!("r{dst} = {op:?} r{a} r{b}"),
        RForm::Un { op, dst, a } => format!("r{dst} = {op:?} r{a}"),
        RForm::Load {
            kind,
            dst,
            addr,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{addr}+{off}]")
        }
        RForm::Store {
            kind,
            addr,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{addr}+{off}] = r{val}")
        }
        RForm::LoadAt {
            kind,
            dst,
            a,
            k,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{a}{k:+}+{off}]")
        }
        RForm::LoadRR {
            kind,
            dst,
            a,
            b,
            off,
        } => {
            format!("r{dst} = load.{kind:?} [r{a}+r{b}+{off}]")
        }
        RForm::StoreAt {
            kind,
            a,
            k,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{a}{k:+}+{off}] = r{val}")
        }
        RForm::StoreRR {
            kind,
            a,
            b,
            val,
            off,
        } => {
            format!("store.{kind:?} [r{a}+r{b}+{off}] = r{val}")
        }
        RForm::LoadBis {
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
        RForm::StoreBis {
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
        RForm::StoreCAt { kind, a, k, v, off } => {
            format!("store.{kind:?} [r{a}{k:+}+{off}] = const {v:#x}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_form_snapshot_is_stable() {
        // Snapshot of the register-form listing for two tiny functions:
        // straight-line arithmetic (constant fused, local reused in place;
        // the frame counts the two lazy `local.get` cells that never
        // materialize) and an if/else diamond (branch on the local itself,
        // join flush).
        // The exact text is load-bearing for debugging the lowering pass;
        // update it deliberately when the lowering changes.
        let bytes = waran_wat::assemble(
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
     0  meter cost=12
     1  r2 = i32.Mul r0 r1
     2  r2 = i32.Add r2 3
     3  return r2
func $f1 (args 1 -> 1, locals r0..r1, frame 2):
     0  meter cost=8
     1  br_ifz r0 ->5
     2  meter cost=2
     3  r1 = i32.const 7
     4  br ->7
     5  meter cost=1
     6  r1 = i32.const 9
     7  meter cost=2
     8  return r1
"
        );
    }
}
