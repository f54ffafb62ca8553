//! End-to-end execution tests for the interpreter: semantics of control
//! flow, arithmetic corner cases, traps, sandbox limits, host functions,
//! tables and memory.

use std::time::Duration;

use waran_wasm::instance::{ExecLimits, ExecMode, Instance, InstantiateError, Linker};
use waran_wasm::interp::Value;
use waran_wasm::types::ValType;
use waran_wasm::{load_module, wat, Trap};

fn instantiate(src: &str) -> Instance<()> {
    let bytes = wat::assemble(src).expect("assembles");
    let module = load_module(&bytes).expect("validates");
    Instance::new(module.into(), &Linker::new(), ()).expect("instantiates")
}

fn run1(src: &str, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
    instantiate(src).invoke(name, args)
}

#[test]
fn constants_and_arithmetic() {
    let src = r#"(module
      (func (export "f") (result i32)
        i32.const 20 i32.const 22 i32.add))"#;
    assert_eq!(run1(src, "f", &[]), Ok(Some(Value::I32(42))));
}

#[test]
fn factorial_recursive() {
    let src = r#"(module
      (func $fac (export "fac") (param i64) (result i64)
        local.get 0
        i64.const 2
        i64.lt_s
        if (result i64)
          i64.const 1
        else
          local.get 0
          local.get 0
          i64.const 1
          i64.sub
          call $fac
          i64.mul
        end))"#;
    assert_eq!(
        run1(src, "fac", &[Value::I64(10)]),
        Ok(Some(Value::I64(3628800)))
    );
    assert_eq!(run1(src, "fac", &[Value::I64(0)]), Ok(Some(Value::I64(1))));
}

#[test]
fn loop_with_branch() {
    // Sum of 1..=n via loop/br_if.
    let src = r#"(module
      (func (export "sum") (param $n i32) (result i32)
        (local $acc i32)
        block $exit
          loop $top
            local.get $n
            i32.eqz
            br_if $exit
            local.get $acc local.get $n i32.add local.set $acc
            local.get $n i32.const 1 i32.sub local.set $n
            br $top
          end
        end
        local.get $acc))"#;
    assert_eq!(
        run1(src, "sum", &[Value::I32(100)]),
        Ok(Some(Value::I32(5050)))
    );
    assert_eq!(run1(src, "sum", &[Value::I32(0)]), Ok(Some(Value::I32(0))));
}

#[test]
fn br_table_dispatch() {
    let src = r#"(module
      (func (export "classify") (param i32) (result i32)
        block $b2
          block $b1
            block $b0
              local.get 0
              br_table $b0 $b1 $b2
            end
            i32.const 100
            return
          end
          i32.const 200
          return
        end
        i32.const 300))"#;
    assert_eq!(
        run1(src, "classify", &[Value::I32(0)]),
        Ok(Some(Value::I32(100)))
    );
    assert_eq!(
        run1(src, "classify", &[Value::I32(1)]),
        Ok(Some(Value::I32(200)))
    );
    assert_eq!(
        run1(src, "classify", &[Value::I32(2)]),
        Ok(Some(Value::I32(300)))
    );
    // Out-of-range uses the default (last) target.
    assert_eq!(
        run1(src, "classify", &[Value::I32(77)]),
        Ok(Some(Value::I32(300)))
    );
}

#[test]
fn block_results_carried_by_branch() {
    let src = r#"(module
      (func (export "f") (param i32) (result i32)
        block $b (result i32)
          i32.const 11
          local.get 0
          br_if $b
          drop
          i32.const 22
        end))"#;
    assert_eq!(run1(src, "f", &[Value::I32(1)]), Ok(Some(Value::I32(11))));
    assert_eq!(run1(src, "f", &[Value::I32(0)]), Ok(Some(Value::I32(22))));
}

#[test]
fn division_semantics() {
    let src = r#"(module
      (func (export "div_s") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.div_s)
      (func (export "rem_s") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.rem_s)
      (func (export "div_u") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.div_u))"#;
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("div_s", &[Value::I32(-7), Value::I32(2)]),
        Ok(Some(Value::I32(-3)))
    );
    assert_eq!(
        inst.invoke("div_s", &[Value::I32(1), Value::I32(0)]),
        Err(Trap::IntegerDivByZero)
    );
    assert_eq!(
        inst.invoke("div_s", &[Value::I32(i32::MIN), Value::I32(-1)]),
        Err(Trap::IntegerOverflow)
    );
    // MIN rem -1 is 0, not a trap.
    assert_eq!(
        inst.invoke("rem_s", &[Value::I32(i32::MIN), Value::I32(-1)]),
        Ok(Some(Value::I32(0)))
    );
    // Unsigned division treats -1 as u32::MAX.
    assert_eq!(
        inst.invoke("div_u", &[Value::I32(-1), Value::I32(2)]),
        Ok(Some(Value::I32((u32::MAX / 2) as i32)))
    );
}

#[test]
fn shift_masking() {
    let src = r#"(module
      (func (export "shl") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.shl))"#;
    // Shift amount is masked to 5 bits: 33 & 31 == 1.
    assert_eq!(
        run1(src, "shl", &[Value::I32(1), Value::I32(33)]),
        Ok(Some(Value::I32(2)))
    );
}

#[test]
fn float_conversions_trap_or_saturate() {
    let src = r#"(module
      (func (export "trunc") (param f64) (result i32)
        local.get 0 i32.trunc_f64_s)
      (func (export "sat") (param f64) (result i32)
        local.get 0 i32.trunc_sat_f64_s))"#;
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("trunc", &[Value::F64(3.99)]),
        Ok(Some(Value::I32(3)))
    );
    assert_eq!(
        inst.invoke("trunc", &[Value::F64(-3.99)]),
        Ok(Some(Value::I32(-3)))
    );
    assert_eq!(
        inst.invoke("trunc", &[Value::F64(f64::NAN)]),
        Err(Trap::InvalidConversion)
    );
    assert_eq!(
        inst.invoke("trunc", &[Value::F64(1e12)]),
        Err(Trap::InvalidConversion)
    );
    // Saturating versions clamp instead.
    assert_eq!(
        inst.invoke("sat", &[Value::F64(1e12)]),
        Ok(Some(Value::I32(i32::MAX)))
    );
    assert_eq!(
        inst.invoke("sat", &[Value::F64(-1e12)]),
        Ok(Some(Value::I32(i32::MIN)))
    );
    assert_eq!(
        inst.invoke("sat", &[Value::F64(f64::NAN)]),
        Ok(Some(Value::I32(0)))
    );
}

#[test]
fn float_min_max_nan_and_zero() {
    let src = r#"(module
      (func (export "min") (param f64 f64) (result f64)
        local.get 0 local.get 1 f64.min)
      (func (export "max") (param f64 f64) (result f64)
        local.get 0 local.get 1 f64.max))"#;
    let mut inst = instantiate(src);
    let min = |inst: &mut Instance<()>, a: f64, b: f64| {
        inst.invoke("min", &[Value::F64(a), Value::F64(b)])
            .unwrap()
            .unwrap()
            .as_f64()
    };
    assert!(min(&mut inst, f64::NAN, 1.0).is_nan());
    assert!(min(&mut inst, 1.0, f64::NAN).is_nan());
    // min(+0, -0) must be -0.
    assert!(min(&mut inst, 0.0, -0.0).is_sign_negative());
    assert_eq!(min(&mut inst, -5.0, 3.0), -5.0);
    let max = inst
        .invoke("max", &[Value::F64(0.0), Value::F64(-0.0)])
        .unwrap()
        .unwrap()
        .as_f64();
    assert!(max.is_sign_positive());
}

#[test]
fn memory_load_store_roundtrip() {
    let src = r#"(module
      (memory 1)
      (func (export "store_load") (param i32 i64) (result i64)
        local.get 0
        local.get 1
        i64.store
        local.get 0
        i64.load))"#;
    assert_eq!(
        run1(
            src,
            "store_load",
            &[Value::I32(1000), Value::I64(-12345678901234)]
        ),
        Ok(Some(Value::I64(-12345678901234)))
    );
}

#[test]
fn memory_oob_traps_and_instance_survives() {
    let src = r#"(module
      (memory 1 1)
      (func (export "poke") (param i32) (result i32)
        local.get 0
        i32.const 7
        i32.store
        i32.const 1))"#;
    let mut inst = instantiate(src);
    // In-bounds works.
    assert_eq!(
        inst.invoke("poke", &[Value::I32(0)]),
        Ok(Some(Value::I32(1)))
    );
    // Out-of-bounds traps...
    let trap = inst.invoke("poke", &[Value::I32(65536)]).unwrap_err();
    assert!(matches!(trap, Trap::MemoryOutOfBounds { .. }));
    // ...and the instance keeps working afterwards (the paper's §5.D story).
    assert_eq!(
        inst.invoke("poke", &[Value::I32(16)]),
        Ok(Some(Value::I32(1)))
    );
    assert_eq!(inst.stats().traps, 1);
    assert_eq!(inst.stats().invokes, 2);
}

#[test]
fn memory_grow_and_limits() {
    let src = r#"(module
      (memory 1 3)
      (func (export "grow") (param i32) (result i32)
        local.get 0
        memory.grow)
      (func (export "size") (result i32)
        memory.size))"#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("size", &[]), Ok(Some(Value::I32(1))));
    assert_eq!(
        inst.invoke("grow", &[Value::I32(1)]),
        Ok(Some(Value::I32(1)))
    );
    assert_eq!(
        inst.invoke("grow", &[Value::I32(5)]),
        Ok(Some(Value::I32(-1)))
    );
    assert_eq!(inst.invoke("size", &[]), Ok(Some(Value::I32(2))));
}

#[test]
fn unreachable_traps() {
    let src = r#"(module (func (export "f") unreachable))"#;
    assert_eq!(run1(src, "f", &[]), Err(Trap::Unreachable));
}

#[test]
fn call_stack_depth_limited() {
    let src = r#"(module
      (func $inf (export "inf") call $inf))"#;
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let limits = ExecLimits {
        max_call_depth: 100,
        ..ExecLimits::default()
    };
    let mut inst = Instance::with_limits(module.into(), &Linker::<()>::new(), (), limits).unwrap();
    assert_eq!(inst.invoke("inf", &[]), Err(Trap::StackOverflow));
}

#[test]
fn fuel_bounds_infinite_loop() {
    let src = r#"(module
      (func (export "spin")
        loop $l
          br $l
        end))"#;
    let mut inst = instantiate(src);
    inst.set_fuel(Some(10_000));
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
    assert_eq!(inst.fuel_remaining(), Some(0));
    // Refuelling restores service.
    inst.set_fuel(Some(1_000_000));
    let src_ok = inst.invoke("spin", &[]); // still infinite: burns the new budget
    assert_eq!(src_ok, Err(Trap::OutOfFuel));
}

#[test]
fn fuel_accounting_is_deterministic() {
    let src = r#"(module
      (func (export "work") (param i32) (result i32)
        (local $acc i32)
        block $exit
          loop $top
            local.get 0
            i32.eqz
            br_if $exit
            local.get $acc local.get 0 i32.add local.set $acc
            local.get 0 i32.const 1 i32.sub local.set 0
            br $top
          end
        end
        local.get $acc))"#;
    let consumed = |n: i32| {
        let mut inst = instantiate(src);
        inst.set_fuel(Some(1_000_000));
        inst.invoke("work", &[Value::I32(n)]).unwrap();
        inst.fuel_consumed().unwrap()
    };
    // Same input -> identical fuel; fuel scales linearly with iterations.
    assert_eq!(consumed(10), consumed(10));
    let f10 = consumed(10);
    let f20 = consumed(20);
    let f30 = consumed(30);
    assert_eq!(f30 - f20, f20 - f10);
}

#[test]
fn deadline_interrupts_runaway_plugin() {
    let src = r#"(module
      (func (export "spin")
        loop $l
          br $l
        end))"#;
    let mut inst = instantiate(src);
    let start = std::time::Instant::now();
    inst.set_deadline_at(Some(start + Duration::from_millis(5)));
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::DeadlineExceeded));
    // Must abort promptly (well within a second even on a loaded machine).
    assert!(start.elapsed() < Duration::from_secs(1));
}

#[test]
fn host_functions_called_with_memory_access() {
    let src = r#"(module
      (import "env" "add3" (func $add3 (param i32) (result i32)))
      (import "env" "peek" (func $peek (param i32) (result i32)))
      (memory 1)
      (data (i32.const 64) "\2a")
      (func (export "f") (param i32) (result i32)
        local.get 0
        call $add3
        i32.const 64
        call $peek
        i32.add))"#;
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut linker: Linker<u32> = Linker::new();
    linker.func(
        "env",
        "add3",
        &[ValType::I32],
        &[ValType::I32],
        |calls, _mem, args| {
            *calls += 1;
            Ok(Some(Value::I32(args[0].as_i32() + 3)))
        },
    );
    linker.func(
        "env",
        "peek",
        &[ValType::I32],
        &[ValType::I32],
        |_calls, mem, args| {
            let b = mem.read::<1>(args[0].as_u32(), 0)?;
            Ok(Some(Value::I32(b[0] as i32)))
        },
    );
    let mut inst = Instance::new(module.into(), &linker, 0u32).unwrap();
    // add3(10) + mem[64] = 13 + 42 = 55
    assert_eq!(
        inst.invoke("f", &[Value::I32(10)]),
        Ok(Some(Value::I32(55)))
    );
    assert_eq!(inst.data, 1);
}

#[test]
fn host_error_propagates_as_trap() {
    let src = r#"(module
      (import "env" "fail" (func $fail))
      (func (export "f") call $fail))"#;
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut linker: Linker<()> = Linker::new();
    linker.func("env", "fail", &[], &[], |_, _, _| {
        Err(Trap::HostError("boom".into()))
    });
    let mut inst = Instance::new(module.into(), &linker, ()).unwrap();
    assert_eq!(inst.invoke("f", &[]), Err(Trap::HostError("boom".into())));
}

#[test]
fn reexported_host_import_result_is_type_checked() {
    // Regression: `invoke` on a re-exported import handed the closure's
    // return value straight back, skipping the signature check every
    // in-loop host call gets — a mistyped value came out as `Ok`.
    let src = r#"(module
      (import "env" "wrong" (func $wrong (result i32)))
      (import "env" "extra" (func $extra))
      (export "wrong" (func $wrong))
      (export "extra" (func $extra)))"#;
    let module = load_module(&wat::assemble(src).unwrap()).unwrap();
    let mut linker: Linker<()> = Linker::new();
    linker.func("env", "wrong", &[], &[ValType::I32], |_, _, _| {
        Ok(Some(Value::I64(7)))
    });
    linker.func("env", "extra", &[], &[], |_, _, _| Ok(Some(Value::I32(1))));
    let mut inst = Instance::new(module.into(), &linker, ()).unwrap();
    let mistyped = |got: &str, want: &str| {
        Err(Trap::HostError(format!(
            "host function returned {got}, signature says {want}"
        )))
    };
    assert_eq!(
        inst.invoke("wrong", &[]),
        mistyped("Some(I64(7))", "Some(I32)")
    );
    assert_eq!(inst.invoke("extra", &[]), mistyped("Some(I32(1))", "None"));
    assert_eq!(inst.stats().traps, 2);
}

#[test]
fn missing_import_rejected_at_instantiation() {
    let src = r#"(module
      (import "env" "nope" (func $n))
      (func (export "f") call $n))"#;
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let err = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap_err();
    assert!(matches!(err, InstantiateError::MissingImport { .. }));
}

#[test]
fn import_signature_mismatch_rejected() {
    let src = r#"(module
      (import "env" "f" (func $f (param i32)))
      (func (export "g") i32.const 1 call $f))"#;
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let mut linker: Linker<()> = Linker::new();
    linker.func("env", "f", &[ValType::I64], &[], |_, _, _| Ok(None));
    let err = Instance::new(module.into(), &linker, ()).unwrap_err();
    assert!(matches!(err, InstantiateError::ImportTypeMismatch { .. }));
}

#[test]
fn call_indirect_dispatch_and_traps() {
    // call_indirect needs a type annotation the WAT assembler doesn't
    // support, so build this module programmatically.
    use waran_wasm::builder::ModuleBuilder;
    let mut mb = ModuleBuilder::new();
    mb.table(3, None);
    let sig_i32_i32 = mb.func_type(&[ValType::I32], &[ValType::I32]);
    let sig_nil_i32 = mb.func_type(&[], &[ValType::I32]);
    let sig_apply = mb.func_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
    let double = mb.begin_func(sig_i32_i32);
    mb.code().local_get(0).i32_const(2).i32_mul();
    mb.end_func().unwrap();
    let square = mb.begin_func(sig_i32_i32);
    mb.code().local_get(0).local_get(0).i32_mul();
    mb.end_func().unwrap();
    let noargs = mb.begin_func(sig_nil_i32);
    mb.code().i32_const(9);
    mb.end_func().unwrap();
    mb.elem(0, &[double, square, noargs]);
    let apply = mb.begin_func(sig_apply);
    mb.code()
        .local_get(1)
        .local_get(0)
        .call_indirect(sig_i32_i32);
    mb.end_func().unwrap();
    mb.export_func("apply", apply);
    let module = mb.finish().unwrap();
    waran_wasm::validate::validate(&module).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();

    assert_eq!(
        inst.invoke("apply", &[Value::I32(0), Value::I32(21)]),
        Ok(Some(Value::I32(42)))
    );
    assert_eq!(
        inst.invoke("apply", &[Value::I32(1), Value::I32(7)]),
        Ok(Some(Value::I32(49)))
    );
    // Slot 2 holds a function of the wrong type.
    assert_eq!(
        inst.invoke("apply", &[Value::I32(2), Value::I32(7)]),
        Err(Trap::IndirectCallTypeMismatch)
    );
    // Out of table bounds.
    assert_eq!(
        inst.invoke("apply", &[Value::I32(10), Value::I32(7)]),
        Err(Trap::TableOutOfBounds)
    );
}

#[test]
fn uninitialized_table_slot_traps() {
    use waran_wasm::builder::ModuleBuilder;
    let mut mb = ModuleBuilder::new();
    mb.table(2, None);
    let sig = mb.func_type(&[], &[]);
    let f = mb.begin_func(sig);
    mb.code().i32_const(1).call_indirect(sig);
    mb.end_func().unwrap();
    mb.export_func("f", f);
    let module = mb.finish().unwrap();
    waran_wasm::validate::validate(&module).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(inst.invoke("f", &[]), Err(Trap::UninitializedElement));
}

#[test]
fn globals_persist_across_invocations() {
    let src = r#"(module
      (global $count (mut i64) (i64.const 0))
      (func (export "tick") (result i64)
        global.get $count
        i64.const 1
        i64.add
        global.set $count
        global.get $count))"#;
    let mut inst = instantiate(src);
    for expect in 1..=5i64 {
        assert_eq!(inst.invoke("tick", &[]), Ok(Some(Value::I64(expect))));
    }
}

#[test]
fn start_function_runs_at_instantiation() {
    let src = r#"(module
      (global $g (mut i32) (i32.const 0))
      (func $init i32.const 99 global.set $g)
      (func (export "get") (result i32) global.get $g)
      (start $init))"#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("get", &[]), Ok(Some(Value::I32(99))));
}

#[test]
fn invoke_binding_errors() {
    let src = r#"(module (func (export "f") (param i32)))"#;
    let mut inst = instantiate(src);
    assert!(matches!(
        inst.invoke("missing", &[]),
        Err(Trap::HostError(_))
    ));
    assert!(matches!(inst.invoke("f", &[]), Err(Trap::HostError(_)))); // arity
    assert!(matches!(
        inst.invoke("f", &[Value::I64(1)]),
        Err(Trap::HostError(_))
    )); // type
    assert_eq!(inst.invoke("f", &[Value::I32(1)]), Ok(None));
}

#[test]
fn call_func_holds_args_to_the_signature() {
    // `call_func` is the public by-index entry and the one place the
    // embedder's values enter an executor: a short, long or mistyped
    // argument list is a `HostError` under both — never a panic, and never
    // a value computed from whatever cell the missing argument aliased.
    let src = r#"(module
      (func (export "f") (param i32 f64) (result f64)
        (local f64)
        local.get 1 local.get 2 f64.add))"#;
    for mode in [ExecMode::Reg, ExecMode::Reference] {
        let mut inst = instantiate(src);
        inst.set_exec_mode(mode);
        let f = inst.module().exported_func("f").unwrap();
        let (i, l, d) = (Value::I32(3), Value::I64(3), Value::F64(1.5));
        for bad in [&[i][..], &[i, d, Value::I32(9)], &[l, d], &[]] {
            let out = inst.call_func(f, bad);
            assert!(
                matches!(out, Err(Trap::HostError(_))),
                "{mode:?} {bad:?}: {out:?}"
            );
        }
        assert_eq!(inst.call_func(f, &[i, d]), Ok(Some(d)));
        // An index past the function space is an error too, not a panic.
        assert!(matches!(
            inst.call_func(f + 1, &[]),
            Err(Trap::HostError(_))
        ));
        assert_eq!((inst.stats().invokes, inst.stats().traps), (1, 0));
    }
}

#[test]
fn memory_copy_fill_instructions() {
    let src = r#"(module
      (memory 1)
      (func (export "f") (result i32)
        ;; fill [0, 8) with 0x11
        i32.const 0 i32.const 0x11 i32.const 8 memory.fill
        ;; copy [0, 8) to [100, 108)
        i32.const 100 i32.const 0 i32.const 8 memory.copy
        i32.const 104 i32.load))"#;
    assert_eq!(run1(src, "f", &[]), Ok(Some(Value::I32(0x11111111))));
}

#[test]
fn sign_extension_ops() {
    let src = r#"(module
      (func (export "ext8") (param i32) (result i32)
        local.get 0 i32.extend8_s))"#;
    assert_eq!(
        run1(src, "ext8", &[Value::I32(0x80)]),
        Ok(Some(Value::I32(-128)))
    );
    assert_eq!(
        run1(src, "ext8", &[Value::I32(0x7f)]),
        Ok(Some(Value::I32(127)))
    );
}

#[test]
fn select_instruction() {
    let src = r#"(module
      (func (export "pick") (param i32) (result f64)
        f64.const 1.5
        f64.const 2.5
        local.get 0
        select))"#;
    assert_eq!(
        run1(src, "pick", &[Value::I32(1)]),
        Ok(Some(Value::F64(1.5)))
    );
    assert_eq!(
        run1(src, "pick", &[Value::I32(0)]),
        Ok(Some(Value::F64(2.5)))
    );
}

#[test]
fn nested_loops_with_mixed_branches() {
    // Count primes below n with trial division — stresses nested control.
    let src = r#"(module
      (func (export "primes") (param $n i32) (result i32)
        (local $i i32) (local $j i32) (local $count i32) (local $prime i32)
        i32.const 2
        local.set $i
        block $done
          loop $outer
            local.get $i local.get $n i32.ge_s
            br_if $done
            i32.const 1
            local.set $prime
            i32.const 2
            local.set $j
            block $checked
              loop $inner
                local.get $j local.get $j i32.mul local.get $i i32.gt_s
                br_if $checked
                local.get $i local.get $j i32.rem_s
                i32.eqz
                if
                  i32.const 0
                  local.set $prime
                  br $checked
                end
                local.get $j i32.const 1 i32.add local.set $j
                br $inner
              end
            end
            local.get $count local.get $prime i32.add local.set $count
            local.get $i i32.const 1 i32.add local.set $i
            br $outer
          end
        end
        local.get $count))"#;
    assert_eq!(
        run1(src, "primes", &[Value::I32(30)]),
        Ok(Some(Value::I32(10)))
    );
    assert_eq!(
        run1(src, "primes", &[Value::I32(2)]),
        Ok(Some(Value::I32(0)))
    );
}

#[test]
fn float_math_pipeline() {
    // EWMA update: the PF scheduler's core arithmetic pattern.
    let src = r#"(module
      (func (export "ewma") (param $avg f64) (param $sample f64) (param $alpha f64) (result f64)
        f64.const 1
        local.get $alpha
        f64.sub
        local.get $avg
        f64.mul
        local.get $alpha
        local.get $sample
        f64.mul
        f64.add))"#;
    let got = run1(
        src,
        "ewma",
        &[Value::F64(10.0), Value::F64(20.0), Value::F64(0.25)],
    )
    .unwrap()
    .unwrap()
    .as_f64();
    assert!((got - 12.5).abs() < 1e-12);
}

#[test]
fn value_stack_limit_enforced() {
    // A function that pushes more than the configured stack bound.
    let src = r#"(module
      (func (export "deep") (result i32)
        (local $n i32)
        i32.const 0
        loop $l (result i32)
          i32.const 1
          local.get $n
          i32.const 1
          i32.add
          local.tee $n
          i32.const 100000
          i32.lt_s
          br_if $l
        end
        i32.add))"#;
    // Each iteration leaves one extra i32 on the stack... actually the loop
    // result discipline prevents unbounded growth in validated code, so we
    // emulate with a tiny limit instead.
    let bytes = wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let limits = ExecLimits {
        max_value_stack: 3,
        ..ExecLimits::default()
    };
    let mut inst = Instance::with_limits(module.into(), &Linker::<()>::new(), (), limits).unwrap();
    assert_eq!(inst.invoke("deep", &[]), Err(Trap::ValueStackExhausted));
}

#[test]
fn reinterpret_bits() {
    let src = r#"(module
      (func (export "f") (param f32) (result i32)
        local.get 0 i32.reinterpret_f32))"#;
    assert_eq!(
        run1(src, "f", &[Value::F32(1.0)]),
        Ok(Some(Value::I32(0x3f800000)))
    );
}

#[test]
fn rotations() {
    let src = r#"(module
      (func (export "rotl") (param i32 i32) (result i32)
        local.get 0 local.get 1 i32.rotl))"#;
    assert_eq!(
        run1(
            src,
            "rotl",
            &[Value::I32(0x80000000u32 as i32), Value::I32(1)]
        ),
        Ok(Some(Value::I32(1)))
    );
}

#[test]
fn clz_ctz_popcnt() {
    let src = r#"(module
      (func (export "clz") (param i32) (result i32) local.get 0 i32.clz)
      (func (export "ctz") (param i32) (result i32) local.get 0 i32.ctz)
      (func (export "pop") (param i32) (result i32) local.get 0 i32.popcnt))"#;
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("clz", &[Value::I32(1)]),
        Ok(Some(Value::I32(31)))
    );
    assert_eq!(
        inst.invoke("clz", &[Value::I32(0)]),
        Ok(Some(Value::I32(32)))
    );
    assert_eq!(
        inst.invoke("ctz", &[Value::I32(8)]),
        Ok(Some(Value::I32(3)))
    );
    assert_eq!(
        inst.invoke("pop", &[Value::I32(0x0f0f0f0f)]),
        Ok(Some(Value::I32(16)))
    );
}

#[test]
fn out_of_fuel_still_counts_retired_instrs() {
    // Regression: the interpreter used to early-return on OutOfFuel without
    // flushing its local instruction counter into `ExecStats`, so a fuel
    // trap reported `instrs == 0` no matter how long the guest actually ran.
    let src = r#"(module
      (func (export "spin")
        loop $l
          br $l
        end))"#;
    for mode in [ExecMode::Reference, ExecMode::Reg] {
        let mut inst = instantiate(src);
        inst.set_exec_mode(mode);
        inst.set_fuel(Some(10_000));
        assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
        // Every unit of fuel retires exactly one source instruction, and the
        // stats must account for all of them even though the call trapped.
        assert_eq!(inst.stats().instrs, 10_000, "mode {mode:?}");
        assert_eq!(inst.stats().traps, 1);
    }
}

#[test]
fn exec_modes_agree_on_results_and_fuel() {
    let src = r#"(module
      (func $fib (export "fib") (param i32) (result i32)
        local.get 0
        i32.const 2
        i32.lt_s
        if (result i32)
          local.get 0
        else
          local.get 0 i32.const 1 i32.sub call $fib
          local.get 0 i32.const 2 i32.sub call $fib
          i32.add
        end))"#;
    let run = |mode: ExecMode| {
        let mut inst = instantiate(src);
        inst.set_exec_mode(mode);
        inst.set_fuel(Some(1_000_000));
        let out = inst.invoke("fib", &[Value::I32(18)]);
        (out, inst.fuel_consumed(), inst.stats().instrs)
    };
    assert_eq!(run(ExecMode::Reference), run(ExecMode::Reg));
}
