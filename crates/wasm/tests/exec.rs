//! End-to-end execution tests for the interpreter: semantics of control
//! flow, arithmetic corner cases, traps, sandbox limits, host functions,
//! tables and memory.

use std::sync::Arc;

use waran_wasm::analysis::Bound;
use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instance::{
    Instance, InstantiateError, Linker, CALL_FUEL, LOCALS_PER_FUEL, MAX_CALL_DEPTH, MAX_REGS,
};
use waran_wasm::interp::Value;
use waran_wasm::types::{BlockType, ValType};
use waran_wasm::{load_module, Module, Trap};

#[path = "util/oracle.rs"]
mod oracle;
use oracle::Oracle;

fn instantiate(src: &str) -> Instance<()> {
    let bytes = waran_wat::assemble(src).expect("assembles");
    let module = load_module(&bytes).expect("validates");
    Instance::new(module.into(), &Linker::new(), ()).expect("instantiates")
}

/// The same module under the test oracle.
fn oracle(src: &str) -> Oracle<()> {
    let bytes = waran_wat::assemble(src).expect("assembles");
    let module = load_module(&bytes).expect("validates");
    Oracle::new(module.into(), &Linker::new(), ()).expect("instantiates")
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

/// `grow(delta)` is `local.get 0; memory.grow`: three instructions a call.
const GROW: &str = r#"(module
  (memory 1)
  (func (export "grow") (param i32) (result i32)
    local.get 0
    memory.grow))"#;

#[test]
fn memory_grow_pays_per_page() {
    // The `realtime` class's budget: one 1 ms slot of fuel and 64 pages.
    let module = load_module(&waran_wat::assemble(GROW).unwrap()).unwrap();
    let mut inst = Instance::with_page_cap(module.into(), &Linker::<()>::new(), (), 64).unwrap();
    inst.set_fuel(333_333);
    for pages in 1..64 {
        assert_eq!(
            inst.invoke("grow", &[Value::I32(1)]),
            Ok(Some(Value::I32(pages)))
        );
    }
    // Each page's 65 536 zeroed bytes pay 4096 on top of the instructions
    // and the activation's `CALL_FUEL`.
    let call = 3 + u64::from(CALL_FUEL);
    assert_eq!(inst.fuel_consumed(), Some(63 * 4096 + 63 * call));
    // Past the cap: -1, and only the call is paid.
    assert_eq!(
        inst.invoke("grow", &[Value::I32(1)]),
        Ok(Some(Value::I32(-1)))
    );
    assert_eq!(inst.fuel_consumed(), Some(63 * 4096 + 64 * call));
    assert_eq!(inst.memory().size_pages(), 64);
}

#[test]
fn memory_grow_past_the_remaining_fuel_traps_unchanged() {
    let mut inst = instantiate(GROW);
    // Enough for the call, its instructions and one of the two pages.
    let fuel = u64::from(CALL_FUEL) + 3 + 4096;
    inst.set_fuel(fuel);
    assert_eq!(inst.invoke("grow", &[Value::I32(2)]), Err(Trap::OutOfFuel));
    assert_eq!(inst.fuel_remaining(), 0);
    assert_eq!(inst.memory().size_pages(), 1);
    // The oracle charges the same.
    let mut oracle = oracle(GROW);
    oracle.set_fuel(fuel);
    assert_eq!(
        oracle.invoke("grow", &[Value::I32(2)]),
        Err(Trap::OutOfFuel)
    );
    assert_eq!(
        (oracle.fuel_consumed(), oracle.memory.len()),
        (Some(fuel), 65_536)
    );
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
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("inf", &[]), Err(Trap::StackOverflow));
    // The trap fires on the push past the cap: the stack was full.
    assert_eq!(inst.stats().peak_frames, MAX_CALL_DEPTH as u64);
    assert_eq!(oracle(src).invoke("inf", &[]), Err(Trap::StackOverflow));
}

/// `rec(n)` nests `n` frames, its own included.
const REC: &str = r#"(module
  (func $rec (export "rec") (param i32)
    local.get 0
    i32.const 1
    i32.gt_u
    if
      local.get 0
      i32.const 1
      i32.sub
      call $rec
    end))"#;

#[test]
fn recursion_returns_at_the_depth_cap_and_traps_one_frame_deeper() {
    let depth = MAX_CALL_DEPTH as i32;
    let mut inst = instantiate(REC);
    assert_eq!(inst.invoke("rec", &[Value::I32(depth)]), Ok(None));
    assert_eq!(inst.stats().peak_frames, MAX_CALL_DEPTH as u64);
    assert_eq!(
        inst.invoke("rec", &[Value::I32(depth + 1)]),
        Err(Trap::StackOverflow)
    );
    let mut oracle = oracle(REC);
    assert_eq!(oracle.invoke("rec", &[Value::I32(depth)]), Ok(None));
    assert_eq!(
        oracle.invoke("rec", &[Value::I32(depth + 1)]),
        Err(Trap::StackOverflow)
    );
}

#[test]
fn fuel_bounds_infinite_loop() {
    let src = r#"(module
      (func (export "spin")
        loop $l
          br $l
        end))"#;
    let mut inst = instantiate(src);
    inst.set_fuel(10_000);
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
    assert_eq!(inst.fuel_remaining(), 0);
    // Refuelling restores service.
    inst.set_fuel(1_000_000);
    let src_ok = inst.invoke("spin", &[]); // still infinite: burns the new budget
    assert_eq!(src_ok, Err(Trap::OutOfFuel));
}

#[test]
fn a_bare_instance_runs_on_the_full_budget_until_one_is_armed() {
    let src = r#"(module
      (func (export "count") (param $n i32) (result i32)
        block $exit
          loop $top
            local.get $n i32.eqz br_if $exit
            local.get $n i32.const 1 i32.sub local.set $n
            br $top
          end
        end
        local.get $n))"#;
    let mut inst = instantiate(src);
    assert_eq!(inst.fuel_remaining(), u64::MAX);
    assert_eq!(
        inst.invoke("count", &[Value::I32(1000)]),
        Ok(Some(Value::I32(0)))
    );
    let retired = inst.stats().instrs;
    assert!(retired > 1000);
    assert_eq!(inst.fuel_remaining(), u64::MAX - retired);
    assert_eq!(inst.fuel_consumed(), None, "no budget armed yet");

    inst.set_fuel(1_000_000);
    assert_eq!(inst.fuel_consumed(), Some(0));
    inst.invoke("count", &[Value::I32(1000)]).unwrap();
    assert_eq!(inst.fuel_consumed(), Some(retired));
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
        inst.set_fuel(1_000_000);
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
    let bytes = waran_wat::assemble(src).unwrap();
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
    let bytes = waran_wat::assemble(src).unwrap();
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
    let module = load_module(&waran_wat::assemble(src).unwrap()).unwrap();
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
    let bytes = waran_wat::assemble(src).unwrap();
    let module = load_module(&bytes).unwrap();
    let err = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap_err();
    assert!(matches!(err, InstantiateError::MissingImport { .. }));
}

#[test]
fn import_signature_mismatch_rejected() {
    let src = r#"(module
      (import "env" "f" (func $f (param i32)))
      (func (export "g") i32.const 1 call $f))"#;
    let bytes = waran_wat::assemble(src).unwrap();
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
    let module = waran_wasm::load_module(&waran_wasm::encode::encode_module(&module)).unwrap();
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
    let module = waran_wasm::load_module(&waran_wasm::encode::encode_module(&module)).unwrap();
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
    // embedder's values enter the executor: a short, long or mistyped
    // argument list is a `HostError` — never a panic, and never a value
    // computed from whatever cell the missing argument aliased. The oracle
    // refuses the same calls with the same errors.
    let src = r#"(module
      (func (export "f") (param i32 f64) (result f64)
        (local f64)
        local.get 1 local.get 2 f64.add))"#;
    let (mut inst, mut oracle) = (instantiate(src), oracle(src));
    let f = inst.module().exported_func("f").unwrap();
    let (i, l, d) = (Value::I32(3), Value::I64(3), Value::F64(1.5));
    // An index past the function space is an error too, not a panic.
    let bad: [(u32, &[Value]); 5] = [
        (f, &[i]),
        (f, &[i, d, i]),
        (f, &[l, d]),
        (f, &[]),
        (f + 1, &[]),
    ];
    for (func, args) in bad {
        let out = inst.call_func(func, args);
        assert!(matches!(out, Err(Trap::HostError(_))), "{args:?}: {out:?}");
        assert_eq!(oracle.call_func(func, args), out, "oracle, {args:?}");
    }
    assert_eq!(inst.call_func(f, &[i, d]), Ok(Some(d)));
    assert_eq!(oracle.call_func(f, &[i, d]), Ok(Some(d)));
    assert_eq!((inst.stats().invokes, inst.stats().traps), (1, 0));
    assert_eq!((oracle.invokes, oracle.traps), (1, 0));
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
fn register_arena_cap_enforced() {
    // `f` calls a leaf, whose frame grows the arena past `f`'s own: the
    // call fills exactly the static bound.
    let src = r#"(module
      (func $leaf (param i32) (result i32)
        local.get 0)
      (func (export "f") (param i32) (result i32)
        local.get 0
        call $leaf))"#;
    let module = Arc::new(load_module(&waran_wat::assemble(src).unwrap()).unwrap());
    let report = module.analysis().unwrap().func(1).clone();
    let mut inst = Instance::new(module, &Linker::<()>::new(), ()).unwrap();
    assert_eq!(inst.invoke("f", &[Value::I32(7)]), Ok(Some(Value::I32(7))));
    let stats = inst.stats();
    assert_eq!(Bound::Finite(stats.peak_regs), report.regs);
    assert_eq!(Bound::Finite(stats.peak_frames), report.frames);

    // A call chain whose static bound is exactly `MAX_REGS` fills the
    // arena to the cell and returns. One more leaf local traps where the
    // leaf's frame would grow the arena, after the frames above it have
    // paid for their activations.
    let leaf = MAX_REGS as u64 - regs_bound(&wide_chain(0), "run");
    let (at_limit, past) = (wide_chain(leaf as u32), wide_chain(leaf as u32 + 1));
    let report = export_report(&at_limit, "run");
    assert_eq!(report.regs, Bound::Finite(MAX_REGS as u64));
    let mut inst = Instance::new(at_limit.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_fuel(1_000_000);
    assert_eq!(inst.invoke("run", &[]), Ok(None));
    let stats = inst.stats();
    assert_eq!(stats.peak_regs, MAX_REGS as u64);
    assert_eq!(Bound::Finite(stats.peak_frames), report.frames);
    let mut inst = Instance::new(past.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_fuel(1_000_000);
    assert_eq!(inst.invoke("run", &[]), Err(Trap::StackOverflow));
    assert!(inst.fuel_consumed().unwrap() > 0);
    assert!(inst.stats().peak_regs < MAX_REGS as u64);

    // The same boundary at the entry frame, which `exec_reg` checks before
    // any guest code runs: exactly `MAX_REGS` cells run, one more traps
    // with no fuel spent.
    let own = MAX_REGS as u64 - regs_bound(&wide_entry(0), "f");
    let (at_limit, past) = (wide_entry(own as u32), wide_entry(own as u32 + 1));
    assert_eq!(regs_bound(&at_limit, "f"), MAX_REGS as u64);
    let mut wide = Instance::new(at_limit.into(), &Linker::<()>::new(), ()).unwrap();
    wide.set_fuel(u64::from(u32::MAX));
    assert_eq!(wide.invoke("f", &[]), Ok(None));
    assert!(wide.fuel_consumed().unwrap() > 0);
    assert_eq!(wide.stats().peak_regs, MAX_REGS as u64);
    assert_eq!(wide.stats().peak_frames, 1);
    let mut wide = Instance::new(past.into(), &Linker::<()>::new(), ()).unwrap();
    wide.set_fuel(u64::from(u32::MAX));
    assert_eq!(wide.invoke("f", &[]), Err(Trap::StackOverflow));
    assert_eq!(wide.fuel_consumed(), Some(0));
    assert_eq!(wide.stats().peak_regs, 0);
}

/// The analysis report of `module`'s export `name`.
fn export_report(module: &Module, name: &str) -> waran_wasm::analysis::FuncReport {
    let analysis = module.analysis().unwrap();
    let report = analysis
        .exports()
        .find(|r| r.export.as_deref() == Some(name));
    report.unwrap().clone()
}

/// The finite static `regs` bound of `module`'s export `name`.
fn regs_bound(module: &Module, name: &str) -> u64 {
    match export_report(module, name).regs {
        Bound::Finite(n) => n,
        other => panic!("{name}: regs bound {other:?}"),
    }
}

/// `run` calls down a chain of 21 frames of 49 000 `i64` locals each,
/// ending in a leaf with `leaf_locals`. Nothing recurses, so the static
/// `regs` bound is finite and a leaf local adds exactly one cell to it.
fn wide_chain(leaf_locals: u32) -> Module {
    const WIDE: u32 = 21;
    let mut b = ModuleBuilder::new();
    let unit = b.func_type(&[], &[]);
    // Functions are numbered in declaration order: `run` is 0, the wide
    // frames 1..=WIDE and the leaf WIDE + 1.
    let run = b.begin_func(unit);
    b.code().call(1);
    b.end_func().unwrap();
    for k in 1..=WIDE + 1 {
        b.begin_func(unit);
        let locals = if k <= WIDE { 49_000 } else { leaf_locals };
        for _ in 0..locals {
            b.local(ValType::I64);
        }
        if k <= WIDE {
            b.code().call(k + 1);
        }
        b.end_func().unwrap();
    }
    b.export_func("run", run);
    b.finish().unwrap()
}

/// `f` declares `own_locals` `i64` locals and pushes `MAX_REGS - 25 000`
/// constants before it returns, so its frame alone — locals plus operand
/// stack — comes within 25 000 cells of [`MAX_REGS`]: a frame may declare
/// at most 50 000 locals of its own, each one more cell.
fn wide_entry(own_locals: u32) -> Module {
    let mut b = ModuleBuilder::new();
    let sig = b.func_type(&[], &[]);
    let f = b.begin_func(sig);
    for _ in 0..own_locals {
        b.local(ValType::I64);
    }
    for _ in 0..MAX_REGS - 25_000 {
        b.code().i32_const(0);
    }
    b.code().return_();
    b.end_func().unwrap();
    b.export_func("f", f);
    b.finish().unwrap()
}

/// `rec(d)` recurses `d` frames below its own, each frame holding 49 000
/// `i64` locals (`MAX_LOCALS` is 50 000): 392 KB of zeroed registers per
/// activation, for a handful of instructions.
fn arena_probe() -> Module {
    let mut b = ModuleBuilder::new();
    let sig = b.func_type(&[ValType::I32], &[]);
    let rec = b.begin_func(sig);
    for _ in 0..49_000 {
        b.local(ValType::I64);
    }
    b.code()
        .local_get(0)
        .if_(BlockType::Empty)
        .local_get(0)
        .i32_const(1)
        .i32_sub()
        .call(rec)
        .end();
    b.end_func().unwrap();
    b.export_func("rec", rec);
    b.finish().unwrap()
}

#[test]
fn arena_cap_stops_wide_recursion_under_the_host_limits() {
    // The `realtime` class's budget: 64 pages and one 1 ms slot of fuel.
    // The `MAX_REGS` arena holds 2^20 / 49 001 ≈ 21.4 frames: 21
    // activations fit, the 22nd traps long before the depth cap or the
    // fuel does.
    let mut inst =
        Instance::with_page_cap(arena_probe().into(), &Linker::<()>::new(), (), 64).unwrap();
    inst.set_fuel(333_333);
    assert_eq!(inst.invoke("rec", &[Value::I32(20)]), Ok(None));
    // Each activation pays `CALL_FUEL` + ⌈49 000 / 8⌉ on entry.
    let price = u64::from(CALL_FUEL) + 49_000u64.div_ceil(u64::from(LOCALS_PER_FUEL));
    let consumed = inst.fuel_consumed().unwrap();
    assert!(consumed >= 21 * price && consumed < 333_333, "{consumed}");
    inst.set_fuel(333_333);
    assert_eq!(
        inst.invoke("rec", &[Value::I32(21)]),
        Err(Trap::StackOverflow)
    );
    // The 22nd frame was refused before it was pushed or allocated.
    let stats = inst.stats();
    assert_eq!(stats.peak_frames, 21);
    assert!(stats.peak_regs <= MAX_REGS as u64, "{}", stats.peak_regs);
    // The instance survives: a shallow call on the same arena still runs.
    inst.set_fuel(333_333);
    assert_eq!(inst.invoke("rec", &[Value::I32(1)]), Ok(None));
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
    let mut inst = instantiate(src);
    inst.set_fuel(10_000);
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
    // Every unit of fuel retires exactly one source instruction, and the
    // stats must account for all of them even though the call trapped.
    assert_eq!((inst.stats().instrs, inst.stats().traps), (10_000, 1));
    // The oracle meters per instruction and agrees.
    let mut oracle = oracle(src);
    oracle.set_fuel(10_000);
    assert_eq!(oracle.invoke("spin", &[]), Err(Trap::OutOfFuel));
    assert_eq!((oracle.instrs, oracle.traps), (10_000, 1));
}

#[test]
fn executor_and_oracle_agree_on_results_and_fuel() {
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
    let mut inst = instantiate(src);
    inst.set_fuel(1_000_000);
    let out = inst.invoke("fib", &[Value::I32(18)]);
    assert_eq!(out, Ok(Some(Value::I32(2584))));
    let mut oracle = oracle(src);
    oracle.set_fuel(1_000_000);
    assert_eq!(
        (
            oracle.invoke("fib", &[Value::I32(18)]),
            oracle.fuel_consumed(),
            oracle.instrs
        ),
        (out, inst.fuel_consumed(), inst.stats().instrs)
    );
}
