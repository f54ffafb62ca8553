//! Property-based tests for the Wasm substrate.
//!
//! Three invariant families:
//! 1. Binary-format round trips (encode ∘ decode = identity, over every
//!    row of the operator table too) and a decoder that never panics.
//! 2. Builder output always validates (well-typed construction is safe).
//! 3. Differential execution: randomly generated arithmetic expression
//!    trees are compiled to Wasm via the builder and evaluated natively;
//!    both must agree bit-for-bit (traps included).

use proptest::prelude::*;

use waran_wasm::builder::{CodeEmitter, ModuleBuilder};
use waran_wasm::decode::decode_module;
use waran_wasm::encode::encode_module;
use waran_wasm::instance::{Instance, Linker};
use waran_wasm::instr::{Instr, MemArg, OP_TABLE};
use waran_wasm::interp::Value;
use waran_wasm::types::ValType;
use waran_wasm::{Module, Trap};

proptest! {
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any input must produce Ok or Err, never a panic.
        let _ = waran_wasm::decode::decode_module(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_module(
        flip_at in 0usize..200,
        flip_to in any::<u8>(),
    ) {
        let mut bytes = waran_wat::assemble(r#"
          (module
            (memory 1)
            (global $g (mut i64) (i64.const 5))
            (func (export "f") (param i32 f64) (result i64)
              global.get $g
              local.get 0
              i64.extend_i32_s
              i64.add))
        "#).unwrap();
        if flip_at < bytes.len() {
            bytes[flip_at] = flip_to;
        }
        // Decode + validate + (if both pass) instantiate: no panics allowed.
        if let Ok(module) = waran_wasm::load_module(&bytes) {
            let _ = Instance::new(module.into(), &Linker::<()>::new(), ());
        }
    }
}

// ---------------------------------------------------------------------
// The operator table
// ---------------------------------------------------------------------

/// A module of one `() -> ()` function over one page, its body emitted by
/// `body`.
fn one_func(body: impl FnOnce(&mut CodeEmitter)) -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, None);
    let sig = mb.func_type(&[], &[]);
    mb.begin_func(sig);
    body(mb.code());
    mb.end_func().unwrap();
    mb.finish().unwrap()
}

#[test]
fn every_operator_table_row_round_trips() {
    for row in OP_TABLE {
        let named = Instr::named(row.name).unwrap_or_else(|| panic!("no operator {}", row.name));
        // Memory rows carry an immediate; a non-zero one round-trips too.
        let with_memarg = |memarg| {
            let mut instr = named.clone();
            if let Instr::Load(_, m) | Instr::Store(_, m) = &mut instr {
                *m = memarg;
            }
            instr
        };
        let instr = with_memarg(MemArg {
            align: 2,
            offset: 7,
        });
        assert_eq!(row.width.is_some(), instr != named, "{}", row.name);

        // The encoder writes the row's opcode and immediate, and the
        // decoder reads the same instruction back.
        let bytes = encode_module(&one_func(|c| {
            c.raw(instr.clone());
        }));
        let mut body = vec![row.opcode];
        body.extend(row.sub.map(|sub| sub as u8));
        if row.width.is_some() {
            body.extend([2, 7]);
        }
        body.push(0x0b);
        assert!(bytes.ends_with(&body), "{}: {bytes:02x?}", row.name);
        let back = decode_module(&bytes).unwrap();
        assert_eq!(
            back.funcs[0].code,
            [instr.clone(), Instr::End],
            "{}",
            row.name
        );

        // The builder method emits the same instruction, with align 0.
        let built = one_func(|c| {
            (row.emit)(c, 7);
        });
        let emitted = with_memarg(MemArg::offset(7));
        assert_eq!(built.funcs[0].code, [emitted, Instr::End], "{}", row.name);

        // The WAT mnemonic is the name with its first `_` as `.`.
        let mnemonic = row.name.replacen('_', ".", 1);
        let memarg = if row.width.is_some() {
            " offset=7 align=4"
        } else {
            ""
        };
        let wat = format!("(module (memory 1) (func {mnemonic}{memarg}))");
        assert_eq!(waran_wat::assemble(&wat).as_ref(), Ok(&bytes), "{mnemonic}");
    }
}

// ---------------------------------------------------------------------
// Differential expression evaluation
// ---------------------------------------------------------------------

/// A tiny expression AST over i64 with trapping division.
#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Param(usize),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    DivS(Box<Expr>, Box<Expr>),
    RemS(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, Box<Expr>),
    ShrS(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Reference semantics (mirrors the Wasm spec).
    fn eval(&self, params: &[i64]) -> Result<i64, Trap> {
        use Expr::*;
        Ok(match self {
            Const(v) => *v,
            Param(i) => params[*i],
            Add(a, b) => a.eval(params)?.wrapping_add(b.eval(params)?),
            Sub(a, b) => a.eval(params)?.wrapping_sub(b.eval(params)?),
            Mul(a, b) => a.eval(params)?.wrapping_mul(b.eval(params)?),
            DivS(a, b) => {
                let (a, b) = (a.eval(params)?, b.eval(params)?);
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                if a == i64::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                a.wrapping_div(b)
            }
            RemS(a, b) => {
                let (a, b) = (a.eval(params)?, b.eval(params)?);
                if b == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                a.wrapping_rem(b)
            }
            And(a, b) => a.eval(params)? & b.eval(params)?,
            Or(a, b) => a.eval(params)? | b.eval(params)?,
            Xor(a, b) => a.eval(params)? ^ b.eval(params)?,
            Shl(a, b) => a.eval(params)?.wrapping_shl(b.eval(params)? as u32),
            ShrS(a, b) => a.eval(params)?.wrapping_shr(b.eval(params)? as u32),
        })
    }

    /// Emit the expression onto the Wasm stack.
    fn emit(&self, code: &mut waran_wasm::builder::CodeEmitter) {
        use Expr::*;
        match self {
            Const(v) => {
                code.i64_const(*v);
            }
            Param(i) => {
                code.local_get(*i as u32);
            }
            Add(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_add();
            }
            Sub(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_sub();
            }
            Mul(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_mul();
            }
            DivS(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_div_s();
            }
            RemS(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_rem_s();
            }
            And(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_and();
            }
            Or(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_or();
            }
            Xor(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_xor();
            }
            Shl(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_shl();
            }
            ShrS(a, b) => {
                a.emit(code);
                b.emit(code);
                code.i64_shr_s();
            }
        }
    }
}

fn arb_expr(n_params: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Expr::Const),
        (0..n_params).prop_map(Expr::Param),
        // Small constants make division traps reachable but not dominant.
        (-4i64..5).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::DivS(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::RemS(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Shl(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::ShrS(a.into(), b.into())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn differential_expression_execution(
        expr in arb_expr(3),
        p0 in any::<i64>(),
        p1 in -100i64..100,
        p2 in any::<i64>(),
    ) {
        let params = [p0, p1, p2];

        // Compile: (func (param i64 i64 i64) (result i64) <expr>)
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[ValType::I64; 3], &[ValType::I64]);
        let f = mb.begin_func(sig);
        expr.emit(mb.code());
        mb.end_func().unwrap();
        mb.export_func("e", f);

        // Round-trip through the binary format to cover encode+decode too.
        let bytes = mb.finish_bytes().unwrap();
        let module = waran_wasm::load_module(&bytes).expect("builder output validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();

        let wasm_result = inst.invoke("e", &[Value::I64(p0), Value::I64(p1), Value::I64(p2)]);
        let native_result = expr.eval(&params);

        match (wasm_result, native_result) {
            (Ok(Some(Value::I64(w))), Ok(n)) => prop_assert_eq!(w, n),
            (Err(wt), Err(nt)) => prop_assert_eq!(wt, nt),
            (w, n) => prop_assert!(false, "diverged: wasm={:?} native={:?}", w, n),
        }
    }

    #[test]
    fn builder_expressions_always_validate(expr in arb_expr(2)) {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[ValType::I64; 2], &[ValType::I64]);
        let f = mb.begin_func(sig);
        expr.emit(mb.code());
        mb.end_func().unwrap();
        mb.export_func("e", f);
        let module = mb.finish().unwrap();
        prop_assert!(waran_wasm::load_module(&waran_wasm::encode::encode_module(&module)).is_ok());
    }

    #[test]
    fn module_binary_roundtrip(
        n_funcs in 1usize..5,
        n_locals in 0usize..8,
        mem_pages in 0u32..4,
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut mb = ModuleBuilder::new();
        if mem_pages > 0 {
            mb.memory(mem_pages, Some(mem_pages + 2));
            if !data.is_empty() {
                mb.data(0, &data);
            }
        }
        let sig = mb.func_type(&[ValType::I32], &[ValType::I32]);
        for i in 0..n_funcs {
            let f = mb.begin_func(sig);
            for _ in 0..n_locals {
                mb.local(ValType::I64);
            }
            mb.code().local_get(0).i32_const(i as i32).i32_add();
            mb.end_func().unwrap();
            mb.export_func(&format!("f{i}"), f);
        }
        let module = mb.finish().unwrap();
        let bytes = waran_wasm::encode::encode_module(&module);
        let back = waran_wasm::decode::decode_module(&bytes).unwrap();
        prop_assert_eq!(back, module);
    }

    #[test]
    fn fuel_monotone_in_workload(n in 1u32..200) {
        // More loop iterations must never consume less fuel.
        let src = r#"(module
          (func (export "w") (param $n i32)
            block $x
              loop $l
                local.get $n
                i32.eqz
                br_if $x
                local.get $n i32.const 1 i32.sub local.set $n
                br $l
              end
            end))"#;
        let bytes = waran_wat::assemble(src).unwrap();
        let module = waran_wasm::load_module(&bytes).unwrap();
        let consumed = |k: u32| {
            let mut inst = Instance::new(std::sync::Arc::new(module.clone()), &Linker::<()>::new(), ()).unwrap();
            inst.set_fuel(10_000_000);
            inst.invoke("w", &[Value::I32(k as i32)]).unwrap();
            inst.fuel_consumed().unwrap()
        };
        prop_assert!(consumed(n + 1) > consumed(n));
    }

    #[test]
    fn memory_ops_respect_bounds(addr in any::<u32>(), pages in 1u32..3) {
        use waran_wasm::interp::Memory;
        use waran_wasm::types::Limits;
        let mut mem = Memory::new(Limits::new(pages, Some(pages)), u32::MAX).unwrap();
        let size = mem.size_bytes() as u64;
        let write = mem.write::<8>(addr, 0, [7; 8]);
        if (addr as u64) + 8 <= size {
            prop_assert!(write.is_ok());
            prop_assert_eq!(mem.read::<8>(addr, 0).unwrap(), [7; 8]);
        } else {
            let is_oob = matches!(write, Err(Trap::MemoryOutOfBounds { .. }));
            prop_assert!(is_oob);
        }
    }
}
