//! Execute compiled PlugC programs on the waran-wasm VM and check observable
//! behaviour: control flow, casts, intrinsics, host imports, traps.

use waran_plugc::compile;
use waran_wasm::instance::{Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::module::{ConstExpr, ExportKind};
use waran_wasm::types::{GlobalType, Limits, Mutability, ValType};
use waran_wasm::Trap;

fn instantiate(src: &str) -> Instance<Vec<i32>> {
    let bytes = compile(src).expect("compiles");
    let module = waran_wasm::load_module(&bytes).expect("validates");
    let mut linker: Linker<Vec<i32>> = Linker::new();
    linker.func(
        "env",
        "host_log",
        &[ValType::I32],
        &[],
        |log, _mem, args| {
            log.push(args[0].as_i32());
            Ok(None)
        },
    );
    linker.func(
        "env",
        "host_rand",
        &[],
        &[ValType::I32],
        |_log, _mem, _args| {
            Ok(Some(Value::I32(4))) // chosen by fair dice roll
        },
    );
    Instance::new(module.into(), &linker, Vec::new()).expect("instantiates")
}

fn run(src: &str, func: &str, args: &[Value]) -> Option<Value> {
    instantiate(src)
        .invoke(func, args)
        .expect("runs without trapping")
}

#[test]
fn fibonacci_iterative() {
    let src = r#"
        export fn fib(n: i32) -> i64 {
            var a: i64 = 0i64;
            var b: i64 = 1i64;
            var i: i32 = 0;
            while (i < n) {
                var t: i64 = a + b;
                a = b;
                b = t;
                i = i + 1;
            }
            return a;
        }
    "#;
    assert_eq!(run(src, "fib", &[Value::I32(0)]), Some(Value::I64(0)));
    assert_eq!(run(src, "fib", &[Value::I32(10)]), Some(Value::I64(55)));
    assert_eq!(
        run(src, "fib", &[Value::I32(50)]),
        Some(Value::I64(12586269025))
    );
}

#[test]
fn recursion_gcd() {
    let src = r#"
        export fn gcd(a: i32, b: i32) -> i32 {
            if (b == 0) { return a; }
            return gcd(b, a % b);
        }
    "#;
    assert_eq!(
        run(src, "gcd", &[Value::I32(48), Value::I32(18)]),
        Some(Value::I32(6))
    );
}

#[test]
fn break_and_continue() {
    // Sum of odd numbers below n, stopping at 100.
    let src = r#"
        export fn f(n: i32) -> i32 {
            var acc: i32 = 0;
            var i: i32 = 0;
            while (i < n) {
                i = i + 1;
                if (i % 2 == 0) { continue; }
                if (acc > 100) { break; }
                acc = acc + i;
            }
            return acc;
        }
    "#;
    // 1+3+5+7+9+11+13+15+17+19 = 100, then 21 pushes over and breaks.
    assert_eq!(run(src, "f", &[Value::I32(1000)]), Some(Value::I32(121)));
    assert_eq!(run(src, "f", &[Value::I32(4)]), Some(Value::I32(4)));
}

#[test]
fn nested_loops_with_break() {
    let src = r#"
        export fn f(n: i32) -> i32 {
            var count: i32 = 0;
            var i: i32 = 0;
            while (i < n) {
                var j: i32 = 0;
                while (j < n) {
                    if (j > i) { break; }
                    count = count + 1;
                    j = j + 1;
                }
                i = i + 1;
            }
            return count;
        }
    "#;
    // Inner loop runs i+1 times: 1+2+…+n = n(n+1)/2.
    assert_eq!(run(src, "f", &[Value::I32(5)]), Some(Value::I32(15)));
}

#[test]
fn short_circuit_semantics() {
    // The right-hand side must not execute when the left decides: here the
    // RHS would trap with a division by zero.
    let src = r#"
        export fn safe_div(a: i32, b: i32) -> i32 {
            if (b != 0 && a / b > 0) { return 1; }
            return 0;
        }
        export fn safe_or(b: i32) -> i32 {
            if (b == 0 || 10 / b > 0) { return 1; }
            return 0;
        }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("safe_div", &[Value::I32(10), Value::I32(0)]),
        Ok(Some(Value::I32(0)))
    );
    assert_eq!(
        inst.invoke("safe_div", &[Value::I32(10), Value::I32(2)]),
        Ok(Some(Value::I32(1)))
    );
    assert_eq!(
        inst.invoke("safe_or", &[Value::I32(0)]),
        Ok(Some(Value::I32(1)))
    );
    assert_eq!(
        inst.invoke("safe_or", &[Value::I32(5)]),
        Ok(Some(Value::I32(1)))
    );
}

#[test]
fn casts_between_all_types() {
    let src = r#"
        export fn f(x: i32) -> f64 {
            var a: i64 = x as i64;
            var b: f32 = a as f32;
            var c: f64 = b as f64;
            return c * 2.0;
        }
        export fn sat(x: f64) -> i32 {
            return x as i32;
        }
    "#;
    assert_eq!(run(src, "f", &[Value::I32(21)]), Some(Value::F64(42.0)));
    // Float→int casts saturate, never trap.
    assert_eq!(
        run(src, "sat", &[Value::F64(1e18)]),
        Some(Value::I32(i32::MAX))
    );
    assert_eq!(
        run(src, "sat", &[Value::F64(f64::NAN)]),
        Some(Value::I32(0))
    );
}

#[test]
fn memory_intrinsics_roundtrip() {
    let src = r#"
        export fn f() -> f64 {
            store_f64(128, 2.5);
            store_i32(136, 4);
            return load_f64(128) * (load_i32(136) as f64);
        }
    "#;
    assert_eq!(run(src, "f", &[]), Some(Value::F64(10.0)));
}

#[test]
fn globals_and_consts() {
    let src = r#"
        global counter: i64 = 100i64;
        const STEP: i64 = 7i64;
        export fn bump() -> i64 {
            counter = counter + STEP;
            return counter;
        }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("bump", &[]), Ok(Some(Value::I64(107))));
    assert_eq!(inst.invoke("bump", &[]), Ok(Some(Value::I64(114))));
}

#[test]
fn extern_functions_call_host() {
    let src = r#"
        extern fn host_log(code: i32);
        extern fn host_rand() -> i32;
        export fn f() -> i32 {
            host_log(1);
            host_log(2);
            return host_rand() * 10;
        }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("f", &[]), Ok(Some(Value::I32(40))));
    assert_eq!(inst.data, vec![1, 2]);
}

#[test]
fn math_intrinsics() {
    let src = r#"
        export fn f(x: f64, y: f64) -> f64 {
            return sqrt(x) + min(x, y) + max(x, y) + abs(0.0 - x) + floor(y) + ceil(y);
        }
    "#;
    // sqrt(16)=4 min=2.5 max=16 abs=16 floor=2 ceil=3 => 43.5
    assert_eq!(
        run(src, "f", &[Value::F64(16.0), Value::F64(2.5)]),
        Some(Value::F64(43.5))
    );
}

#[test]
fn pack_builds_ptr_len_result() {
    let src = r#"
        export fn f() -> i64 {
            return pack(4096, 24);
        }
    "#;
    let got = run(src, "f", &[]).unwrap().as_i64() as u64;
    assert_eq!(got >> 32, 4096);
    assert_eq!(got & 0xffff_ffff, 24);
}

#[test]
fn trap_intrinsic_traps() {
    let src = r#"
        export fn f(x: i32) -> i32 {
            if (x < 0) { trap(); }
            return x;
        }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("f", &[Value::I32(3)]), Ok(Some(Value::I32(3))));
    assert_eq!(inst.invoke("f", &[Value::I32(-1)]), Err(Trap::Unreachable));
}

#[test]
fn falling_off_value_function_traps() {
    let src = r#"
        export fn f(x: i32) -> i32 {
            if (x > 0) { return x; }
        }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(inst.invoke("f", &[Value::I32(5)]), Ok(Some(Value::I32(5))));
    assert_eq!(inst.invoke("f", &[Value::I32(-5)]), Err(Trap::Unreachable));
}

#[test]
fn division_by_zero_traps() {
    let src = "export fn f(a: i32, b: i32) -> i32 { return a / b; }";
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("f", &[Value::I32(1), Value::I32(0)]),
        Err(Trap::IntegerDivByZero)
    );
}

#[test]
fn out_of_bounds_load_traps_and_instance_survives() {
    let src = r#"
        export fn peek(p: i32) -> i32 { return load_i32(p); }
    "#;
    let mut inst = instantiate(src);
    assert_eq!(
        inst.invoke("peek", &[Value::I32(0)]),
        Ok(Some(Value::I32(0)))
    );
    let e = inst.invoke("peek", &[Value::I32(100_000_000)]).unwrap_err();
    assert!(matches!(e, Trap::MemoryOutOfBounds { .. }));
    assert_eq!(
        inst.invoke("peek", &[Value::I32(4)]),
        Ok(Some(Value::I32(0)))
    );
}

#[test]
fn every_module_has_one_to_sixteen_pages_and_the_heap_at_4096() {
    let bytes = compile("export fn f() -> i32 { return memory_size(); }").unwrap();
    let module = waran_wasm::load_module(&bytes).unwrap();
    assert_eq!(
        module.memory,
        Some(Limits {
            min: 1,
            max: Some(16)
        })
    );
    assert_eq!(
        module.export("memory").map(|e| e.kind),
        Some(ExportKind::Memory)
    );
    let Some(ExportKind::Global(heap)) = module.export("wrn_heap").map(|e| e.kind) else {
        panic!("wrn_heap is not an exported global");
    };
    let heap = &module.globals[heap as usize];
    assert_eq!(
        heap.ty,
        GlobalType {
            ty: ValType::I32,
            mutability: Mutability::Var
        }
    );
    assert_eq!(heap.init, ConstExpr::I32(4096));
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(inst.invoke("f", &[]), Ok(Some(Value::I32(1))));
}

#[test]
fn scheduler_shaped_program() {
    // A miniature proportional-fair pick over records in memory — the exact
    // shape the WA-RAN standard plugins use: fixed-size records, f64 metric,
    // argmax loop.
    let src = r#"
        export fn pick(base: i32, n: i32) -> i32 {
            var best_idx: i32 = 0 - 1;
            var best_metric: f64 = 0.0 - 1.0e300;
            var i: i32 = 0;
            while (i < n) {
                var rec: i32 = base + i * 16;
                var rate: f64 = load_f64(rec);
                var avg: f64 = load_f64(rec + 8);
                var metric: f64 = rate / max(avg, 1.0e-9);
                if (metric > best_metric) {
                    best_metric = metric;
                    best_idx = i;
                }
                i = i + 1;
            }
            return best_idx;
        }
    "#;
    let bytes = compile(src).unwrap();
    let module = waran_wasm::load_module(&bytes).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    // Write three (rate, avg) records at 4096.
    let recs: [(f64, f64); 3] = [(10.0, 10.0), (8.0, 1.0), (20.0, 40.0)];
    for (i, (rate, avg)) in recs.iter().enumerate() {
        let base = 4096 + i as u32 * 16;
        inst.memory_mut()
            .write_bytes(base, &rate.to_le_bytes())
            .unwrap();
        inst.memory_mut()
            .write_bytes(base + 8, &avg.to_le_bytes())
            .unwrap();
    }
    // PF metric: 1.0, 8.0, 0.5 → index 1 wins.
    assert_eq!(
        inst.invoke("pick", &[Value::I32(4096), Value::I32(3)]),
        Ok(Some(Value::I32(1)))
    );
}

#[test]
fn deeply_nested_control_flow_compiles() {
    let src = r#"
        export fn f(x: i32) -> i32 {
            var acc: i32 = 0;
            var i: i32 = 0;
            while (i < x) {
                if (i % 3 == 0) {
                    var j: i32 = 0;
                    while (j < i) {
                        if (j % 2 == 0) {
                            acc = acc + 1;
                        } else if (j % 5 == 0) {
                            acc = acc + 2;
                        } else {
                            { acc = acc - 1; }
                        }
                        j = j + 1;
                    }
                }
                i = i + 1;
            }
            return acc;
        }
    "#;
    // Cross-checked against the equivalent Rust:
    let native = |x: i32| {
        let mut acc = 0;
        for i in 0..x {
            if i % 3 == 0 {
                for j in 0..i {
                    if j % 2 == 0 {
                        acc += 1;
                    } else if j % 5 == 0 {
                        acc += 2;
                    } else {
                        acc -= 1;
                    }
                }
            }
        }
        acc
    };
    for x in [0, 1, 7, 20, 50] {
        assert_eq!(
            run(src, "f", &[Value::I32(x)]),
            Some(Value::I32(native(x))),
            "x={x}"
        );
    }
}
