//! Property tests for the PlugC compiler.
//!
//! The heavy hitter is differential execution: random expression trees are
//! rendered as PlugC source, compiled through the full pipeline
//! (lex → parse → typecheck → optimize → codegen → encode → decode →
//! validate → interpret) and compared against direct evaluation in Rust, traps
//! included.

use proptest::prelude::*;

use waran_plugc::compile;
use waran_wasm::instance::{Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::Trap;

/// An i64 expression tree over two parameters.
#[derive(Debug, Clone)]
enum E {
    Const(i64),
    A,
    B,
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn src(&self) -> String {
        match self {
            E::Const(v) => {
                if *v < 0 {
                    format!("(0i64 - {}i64)", (v.unsigned_abs()))
                } else {
                    format!("{v}i64")
                }
            }
            E::A => "a".into(),
            E::B => "b".into(),
            E::Add(x, y) => format!("({} + {})", x.src(), y.src()),
            E::Sub(x, y) => format!("({} - {})", x.src(), y.src()),
            E::Mul(x, y) => format!("({} * {})", x.src(), y.src()),
            E::Div(x, y) => format!("({} / {})", x.src(), y.src()),
            E::Rem(x, y) => format!("({} % {})", x.src(), y.src()),
            E::And(x, y) => format!("({} & {})", x.src(), y.src()),
            E::Or(x, y) => format!("({} | {})", x.src(), y.src()),
            E::Xor(x, y) => format!("({} ^ {})", x.src(), y.src()),
            E::Neg(x) => format!("(-{})", x.src()),
        }
    }

    fn eval(&self, a: i64, b: i64) -> Result<i64, Trap> {
        Ok(match self {
            E::Const(v) => *v,
            E::A => a,
            E::B => b,
            E::Add(x, y) => x.eval(a, b)?.wrapping_add(y.eval(a, b)?),
            E::Sub(x, y) => x.eval(a, b)?.wrapping_sub(y.eval(a, b)?),
            E::Mul(x, y) => x.eval(a, b)?.wrapping_mul(y.eval(a, b)?),
            E::Div(x, y) => {
                let (x, y) = (x.eval(a, b)?, y.eval(a, b)?);
                if y == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                if x == i64::MIN && y == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                x.wrapping_div(y)
            }
            E::Rem(x, y) => {
                let (x, y) = (x.eval(a, b)?, y.eval(a, b)?);
                if y == 0 {
                    return Err(Trap::IntegerDivByZero);
                }
                x.wrapping_rem(y)
            }
            E::And(x, y) => x.eval(a, b)? & y.eval(a, b)?,
            E::Or(x, y) => x.eval(a, b)? | y.eval(a, b)?,
            E::Xor(x, y) => x.eval(a, b)? ^ y.eval(a, b)?,
            // PlugC negation of i64 is `0 - x`.
            E::Neg(x) => 0i64.wrapping_sub(x.eval(a, b)?),
        })
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(E::Const),
        any::<i64>().prop_map(E::Const),
        Just(E::A),
        Just(E::B),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Add(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Sub(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Mul(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Div(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Rem(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::And(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Or(x.into(), y.into())),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Xor(x.into(), y.into())),
            inner.prop_map(|x| E::Neg(x.into())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn differential_compiled_vs_native(expr in arb_expr(), a in any::<i64>(), b in -50i64..50) {
        let source = format!(
            "export fn f(a: i64, b: i64) -> i64 {{ return {}; }}",
            expr.src()
        );
        let wasm = compile(&source).expect("generated source compiles");
        let module = waran_wasm::load_module(&wasm).expect("validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        let got = inst.invoke("f", &[Value::I64(a), Value::I64(b)]);
        let want = expr.eval(a, b);
        match (got, want) {
            (Ok(Some(Value::I64(g))), Ok(w)) => prop_assert_eq!(g, w),
            (Err(gt), Err(wt)) => prop_assert_eq!(gt, wt),
            (g, w) => prop_assert!(false, "diverged: wasm={:?} native={:?}", g, w),
        }
    }

    #[test]
    fn comparison_chains_match_native(
        a in any::<i32>(),
        b in any::<i32>(),
        c in any::<i32>(),
    ) {
        let source = r#"
            export fn f(a: i32, b: i32, c: i32) -> i32 {
                var r: i32 = 0;
                if (a < b && b < c) { r = r + 1; }
                if (a >= b || c == a) { r = r + 2; }
                if (!(a != b)) { r = r + 4; }
                return r;
            }
        "#;
        let wasm = compile(source).expect("compiles");
        let module = waran_wasm::load_module(&wasm).expect("validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        let got = inst
            .invoke("f", &[Value::I32(a), Value::I32(b), Value::I32(c)])
            .expect("runs")
            .expect("returns")
            .as_i32();
        let mut want = 0;
        if a < b && b < c { want += 1; }
        if a >= b || c == a { want += 2; }
        if a == b { want += 4; }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn loop_counts_match_native(n in 0i32..500, step in 1i32..7) {
        let source = format!(
            r#"
            export fn f(n: i32) -> i32 {{
                var count: i32 = 0;
                var i: i32 = 0;
                while (i < n) {{
                    if (i % {step} == 0) {{ count = count + 1; }}
                    i = i + 1;
                }}
                return count;
            }}
            "#
        );
        let wasm = compile(&source).expect("compiles");
        let module = waran_wasm::load_module(&wasm).expect("validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        let got = inst.invoke("f", &[Value::I32(n)]).expect("runs").expect("returns").as_i32();
        let want = (0..n).filter(|i| i % step == 0).count() as i32;
        prop_assert_eq!(got, want);
    }

    #[test]
    fn float_pipeline_matches_native(x in -1e6f64..1e6, y in 0.001f64..1e6) {
        let source = r#"
            export fn f(x: f64, y: f64) -> f64 {
                return sqrt(abs(x)) + x / y + min(x, y) * 0.5 + floor(y);
            }
        "#;
        let wasm = compile(source).expect("compiles");
        let module = waran_wasm::load_module(&wasm).expect("validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        let got = inst
            .invoke("f", &[Value::F64(x), Value::F64(y)])
            .expect("runs")
            .expect("returns")
            .as_f64();
        let want = x.abs().sqrt() + x / y + x.min(y) * 0.5 + y.floor();
        prop_assert!(got == want || (got - want).abs() < 1e-9, "got {got} want {want}");
    }

    #[test]
    fn compiler_never_panics_on_arbitrary_text(src in "\\PC{0,200}") {
        // Garbage in → CompileError out, never a panic.
        let _ = compile(&src);
    }

    #[test]
    fn memory_roundtrip_preserves_values(vals in proptest::collection::vec(any::<i64>(), 1..16)) {
        let source = r#"
            export fn store_all(base: i32, n: i32, seed: i64) -> i64 {
                var i: i32 = 0;
                var v: i64 = seed;
                while (i < n) {
                    store_i64(base + i * 8, v);
                    v = v * 31i64 + 7i64;
                    i = i + 1;
                }
                return 0i64;
            }
            export fn sum_all(base: i32, n: i32) -> i64 {
                var acc: i64 = 0i64;
                var i: i32 = 0;
                while (i < n) {
                    acc = acc + load_i64(base + i * 8);
                    i = i + 1;
                }
                return acc;
            }
        "#;
        let wasm = compile(source).expect("compiles");
        let module = waran_wasm::load_module(&wasm).expect("validates");
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        let n = vals.len() as i32;
        let seed = vals[0];
        inst.invoke("store_all", &[Value::I32(1024), Value::I32(n), Value::I64(seed)])
            .expect("stores");
        let got = inst
            .invoke("sum_all", &[Value::I32(1024), Value::I32(n)])
            .expect("runs")
            .expect("returns")
            .as_i64();
        let mut want = 0i64;
        let mut v = seed;
        for _ in 0..n {
            want = want.wrapping_add(v);
            v = v.wrapping_mul(31).wrapping_add(7);
        }
        prop_assert_eq!(got, want);
    }
}
