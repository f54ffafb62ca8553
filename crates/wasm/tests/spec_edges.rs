//! Spec corner cases for the VM: the behaviours that differentiate a
//! conformant WebAssembly implementation from a plausible-looking one.

use waran_wasm::instance::{Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::{load_module, Trap};

fn run(src: &str, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
    let bytes = waran_wat::assemble(src).expect("assembles");
    let module = load_module(&bytes).expect("validates");
    Instance::new(module.into(), &Linker::<()>::new(), ())
        .expect("instantiates")
        .invoke(name, args)
}

#[test]
fn branch_from_nested_blocks_carries_value() {
    // br 2 out of three nested blocks, carrying the outermost's result.
    let src = r#"(module
      (func (export "f") (result i32)
        block $a (result i32)
          block $b
            block $c
              i32.const 42
              br $a
            end
          end
          i32.const 0
        end))"#;
    assert_eq!(run(src, "f", &[]), Ok(Some(Value::I32(42))));
}

#[test]
fn loop_branch_restarts_not_exits() {
    // br to a loop label must re-enter the loop, not leave it.
    let src = r#"(module
      (func (export "f") (result i32)
        (local $i i32)
        loop $l (result i32)
          local.get $i
          i32.const 1
          i32.add
          local.tee $i
          i32.const 5
          i32.lt_s
          br_if $l
          local.get $i
        end))"#;
    assert_eq!(run(src, "f", &[]), Ok(Some(Value::I32(5))));
}

#[test]
fn unreachable_after_branch_is_dead() {
    // Code after an unconditional br never executes (would trap if it did).
    let src = r#"(module
      (func (export "f") (result i32)
        block $b (result i32)
          i32.const 7
          br $b
          unreachable
        end))"#;
    assert_eq!(run(src, "f", &[]), Ok(Some(Value::I32(7))));
}

#[test]
fn empty_if_arms() {
    let src = r#"(module
      (func (export "f") (param i32) (result i32)
        local.get 0
        if
        end
        i32.const 1))"#;
    assert_eq!(run(src, "f", &[Value::I32(1)]), Ok(Some(Value::I32(1))));
    assert_eq!(run(src, "f", &[Value::I32(0)]), Ok(Some(Value::I32(1))));
}

#[test]
fn else_only_executes_on_false() {
    let src = r#"(module
      (func (export "f") (param i32) (result i32)
        local.get 0
        if (result i32)
          i32.const 10
        else
          i32.const 20
        end))"#;
    assert_eq!(run(src, "f", &[Value::I32(5)]), Ok(Some(Value::I32(10))));
    assert_eq!(run(src, "f", &[Value::I32(0)]), Ok(Some(Value::I32(20))));
}

#[test]
fn memarg_offset_applies() {
    let src = r#"(module
      (memory 1)
      (data (i32.const 100) "\2a\00\00\00")
      (func (export "f") (result i32)
        i32.const 60
        i32.load offset=40))"#;
    assert_eq!(run(src, "f", &[]), Ok(Some(Value::I32(42))));
}

#[test]
fn memarg_offset_overflow_traps() {
    // Effective address addr + offset overflowing 32 bits is OOB.
    let src = r#"(module
      (memory 1)
      (func (export "f") (result i32)
        i32.const -1
        i32.load offset=100))"#;
    assert!(matches!(
        run(src, "f", &[]),
        Err(Trap::MemoryOutOfBounds { .. })
    ));
}

#[test]
fn unsigned_comparisons_differ_from_signed() {
    let src = r#"(module
      (func (export "lt_s") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.lt_s)
      (func (export "lt_u") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.lt_u))"#;
    // -1 < 1 signed, but 0xffffffff > 1 unsigned.
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(
        inst.invoke("lt_s", &[Value::I32(-1), Value::I32(1)]),
        Ok(Some(Value::I32(1)))
    );
    assert_eq!(
        inst.invoke("lt_u", &[Value::I32(-1), Value::I32(1)]),
        Ok(Some(Value::I32(0)))
    );
}

#[test]
fn wrap_and_extend_are_exact() {
    let src = r#"(module
      (func (export "wrap") (param i64) (result i32)
        local.get 0 i32.wrap_i64)
      (func (export "ext_u") (param i32) (result i64)
        local.get 0 i64.extend_i32_u)
      (func (export "ext_s") (param i32) (result i64)
        local.get 0 i64.extend_i32_s))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(
        inst.invoke("wrap", &[Value::I64(0x1_2345_6789)]),
        Ok(Some(Value::I32(0x2345_6789)))
    );
    assert_eq!(
        inst.invoke("ext_u", &[Value::I32(-1)]),
        Ok(Some(Value::I64(0xffff_ffff)))
    );
    assert_eq!(
        inst.invoke("ext_s", &[Value::I32(-1)]),
        Ok(Some(Value::I64(-1)))
    );
}

#[test]
fn partial_oob_store_traps_before_writing() {
    // A 4-byte store straddling the memory end must trap and (in this VM)
    // leave the in-bounds prefix untouched.
    let src = r#"(module
      (memory 1 1)
      (func (export "poke") (result i32)
        i32.const 65534
        i32.const -1
        i32.store
        i32.const 1)
      (func (export "peek") (result i32)
        i32.const 65532
        i32.load))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert!(inst.invoke("poke", &[]).is_err());
    assert_eq!(
        inst.invoke("peek", &[]),
        Ok(Some(Value::I32(0))),
        "no partial write"
    );
}

#[test]
fn float_arithmetic_ieee_corner_cases() {
    let src = r#"(module
      (func (export "div") (param f64 f64) (result f64)
        local.get 0 local.get 1 f64.div)
      (func (export "sqrt") (param f64) (result f64)
        local.get 0 f64.sqrt))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    // 1/0 = inf, -1/0 = -inf, 0/0 = NaN; float division never traps.
    let div = |inst: &mut Instance<()>, a: f64, b: f64| {
        inst.invoke("div", &[Value::F64(a), Value::F64(b)])
            .unwrap()
            .unwrap()
            .as_f64()
    };
    assert_eq!(div(&mut inst, 1.0, 0.0), f64::INFINITY);
    assert_eq!(div(&mut inst, -1.0, 0.0), f64::NEG_INFINITY);
    assert!(div(&mut inst, 0.0, 0.0).is_nan());
    let s = inst
        .invoke("sqrt", &[Value::F64(-1.0)])
        .unwrap()
        .unwrap()
        .as_f64();
    assert!(s.is_nan());
}

#[test]
fn nearest_rounds_ties_to_even() {
    let src = r#"(module
      (func (export "n") (param f64) (result f64)
        local.get 0 f64.nearest))"#;
    for (input, expect) in [
        (0.5, 0.0),
        (1.5, 2.0),
        (2.5, 2.0),
        (-0.5, 0.0),
        (-1.5, -2.0),
    ] {
        let got = run(src, "n", &[Value::F64(input)])
            .unwrap()
            .unwrap()
            .as_f64();
        assert_eq!(got, expect, "nearest({input})");
    }
}

#[test]
fn start_function_trap_fails_instantiation() {
    let src = r#"(module
      (func $boom unreachable)
      (start $boom))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let err = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap_err();
    assert!(matches!(
        err,
        waran_wasm::instance::InstantiateError::StartTrap(Trap::Unreachable)
    ));
}

#[test]
fn data_segment_out_of_bounds_fails_instantiation() {
    let src = r#"(module
      (memory 1 1)
      (data (i32.const 65534) "xyz"))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    assert!(matches!(
        Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap_err(),
        waran_wasm::instance::InstantiateError::DataSegmentOutOfBounds
    ));
}

#[test]
fn elem_segment_out_of_bounds_fails_instantiation() {
    let src = r#"(module
      (table 1 funcref)
      (func $f)
      (elem (i32.const 1) $f))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    assert!(matches!(
        Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap_err(),
        waran_wasm::instance::InstantiateError::ElemSegmentOutOfBounds
    ));
}

#[test]
fn locals_zero_initialized() {
    let src = r#"(module
      (func (export "f") (result i64)
        (local i64)
        local.get 0))"#;
    assert_eq!(run(src, "f", &[]), Ok(Some(Value::I64(0))));
}

#[test]
fn deep_recursion_unwinds_cleanly_after_trap() {
    // After a stack-overflow trap the instance remains usable.
    let src = r#"(module
      (func $inf (export "inf") (result i32) call $inf)
      (func (export "ok") (result i32) i32.const 5))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(inst.invoke("inf", &[]), Err(Trap::StackOverflow));
    assert_eq!(inst.invoke("ok", &[]), Ok(Some(Value::I32(5))));
}

#[test]
fn copysign_and_neg_affect_sign_bit_only() {
    let src = r#"(module
      (func (export "cs") (param f64 f64) (result f64)
        local.get 0 local.get 1 f64.copysign))"#;
    let got = run(src, "cs", &[Value::F64(3.5), Value::F64(-0.0)])
        .unwrap()
        .unwrap()
        .as_f64();
    assert_eq!(got, -3.5);
    // copysign on NaN keeps NaN-ness.
    let got = run(src, "cs", &[Value::F64(f64::NAN), Value::F64(-1.0)])
        .unwrap()
        .unwrap()
        .as_f64();
    assert!(got.is_nan() && got.is_sign_negative());
}

#[test]
fn i64_shift_masking_uses_six_bits() {
    let src = r#"(module
      (func (export "shl") (param i64 i64) (result i64)
        local.get 0 local.get 1 i64.shl))"#;
    // 64+1 masks to 1.
    assert_eq!(
        run(src, "shl", &[Value::I64(1), Value::I64(65)]),
        Ok(Some(Value::I64(2)))
    );
}

#[test]
fn globals_are_per_instance() {
    let src = r#"(module
      (global $g (mut i32) (i32.const 0))
      (func (export "bump") (result i32)
        global.get $g i32.const 1 i32.add global.set $g global.get $g))"#;
    let bytes = waran_wat::assemble(src).unwrap();
    let module = std::sync::Arc::new(load_module(&bytes).unwrap());
    let mut a = Instance::new(module.clone(), &Linker::<()>::new(), ()).unwrap();
    let mut b = Instance::new(module, &Linker::<()>::new(), ()).unwrap();
    assert_eq!(a.invoke("bump", &[]), Ok(Some(Value::I32(1))));
    assert_eq!(a.invoke("bump", &[]), Ok(Some(Value::I32(2))));
    // Instance b's global is untouched by a's mutations.
    assert_eq!(b.invoke("bump", &[]), Ok(Some(Value::I32(1))));
}
