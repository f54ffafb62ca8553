//! Soundness of the load-time static analysis on the shared differential
//! corpus (same seeded generator as `differential.rs`).
//!
//! Two properties per generated program:
//!
//! * **Translation validation passes** — `Module::analysis()` succeeds on
//!   100% of the corpus, i.e. the register lowering of every generated
//!   function proves equivalent to its flat IR. Combined with the
//!   deliberately-corrupted-lowering negatives (unit tests in
//!   `analysis.rs`), this is the deterministic replacement for sampled
//!   cross-tier parity.
//! * **Static bounds dominate runtime** — executing with fuel set to the
//!   static fuel bound, the register-arena cap set to the static `regs`
//!   bound, and the call-depth limit set to the static frame bound must
//!   never hit a resource trap on the production (register-form)
//!   executor. The generator's loops all have constant trip counts, so
//!   the analyzer is additionally required to produce *finite* bounds: an
//!   `Unbounded` verdict here would be a precision regression, not just
//!   slack.

use waran_wasm::analysis::Bound;
use waran_wasm::instance::{ExecLimits, Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::{load_module, Trap};

#[path = "util/gen.rs"]
mod gen;
use gen::gen_program;

/// Run `main` under exactly the analyzer's bounds; any resource trap is
/// a soundness violation (semantic traps like division by zero are part
/// of the corpus and fine).
fn assert_bounds_admit_execution(
    wasm: &[u8],
    fuel: u64,
    regs: u64,
    frames: u64,
    args: &[Value],
    ctx: &str,
) {
    let module = load_module(wasm).expect("generated module validates");
    let limits = ExecLimits {
        max_call_depth: frames as usize,
        max_regs: regs as usize,
        ..ExecLimits::default()
    };
    let mut inst = Instance::with_limits(module.into(), &Linker::<()>::new(), (), limits).unwrap();
    inst.set_fuel(fuel);
    match inst.invoke("main", args) {
        Err(Trap::OutOfFuel) => panic!("static fuel bound {fuel} too small ({ctx})"),
        Err(Trap::StackOverflow) => {
            panic!("static frame bound {frames} or regs bound {regs} too small ({ctx})")
        }
        _ => {}
    }
}

fn check_seed(seed: u64, a: i32, b: i32) {
    let src = gen_program(seed);
    let wasm = waran_plugc::compile(&src)
        .unwrap_or_else(|e| panic!("seed {seed}: plugc rejected generated program: {e}\n{src}"));
    let module = load_module(&wasm).expect("generated module validates");

    // Translation validation across every function of the module.
    let analysis = module
        .analysis()
        .unwrap_or_else(|e| panic!("seed {seed}: translation validation failed: {e}\n{src}"));

    let report = analysis
        .exports()
        .find(|r| r.export.as_deref() == Some("main"))
        .expect("main is exported");

    // The corpus is loop-bounded by construction; the analyzer must see
    // that (`Unbounded` would be a precision regression).
    let (Bound::Finite(fuel), Bound::Finite(regs), Bound::Finite(frames)) =
        (report.fuel, report.regs, report.frames)
    else {
        panic!(
            "seed {seed}: constant-trip corpus must bound (fuel {}, regs {}, frames {})\n{src}",
            report.fuel, report.regs, report.frames
        );
    };
    assert!(
        !report.unbounded_loops,
        "seed {seed}: no generated loop is data-dependent\n{src}"
    );
    assert!(!report.recursive, "seed {seed}: corpus has no recursion");

    let ctx = format!("seed {seed}, args ({a}, {b})");
    assert_bounds_admit_execution(
        &wasm,
        fuel,
        regs,
        frames,
        &[Value::I32(a), Value::I32(b)],
        &ctx,
    );
}

#[test]
fn static_bounds_sound_on_differential_corpus() {
    for seed in 0..300u64 {
        let a = (seed as i32).wrapping_mul(-0x61c8_8647);
        let b = (seed as i32).wrapping_mul(0x0101_0101) ^ 0x55;
        check_seed(seed, a, b);
    }
}

/// The frame bound is exercised end to end on a call chain: exactly the
/// static depth admits the call, one less overflows.
#[test]
fn frame_bound_is_tight_on_call_chain() {
    let wasm = waran_wat::assemble(
        r#"(module
             (func $h (result i32)
               block $b
                 br $b
               end
               i32.const 3)
             (func $g (result i32)
               block $b
                 br $b
               end
               call $h)
             (func (export "main") (result i32)
               block $b
                 br $b
               end
               call $g))"#,
    )
    .expect("assembles");
    let module = load_module(&wasm).unwrap();
    let analysis = module.analysis().unwrap();
    let r = analysis
        .exports()
        .find(|r| r.export.as_deref() == Some("main"))
        .unwrap();
    assert_eq!(r.frames, Bound::Finite(3));

    for (depth, expect_ok) in [(3usize, true), (2, false)] {
        let module = load_module(&wasm).unwrap();
        let limits = ExecLimits {
            max_call_depth: depth,
            ..ExecLimits::default()
        };
        let mut inst =
            Instance::with_limits(module.into(), &Linker::<()>::new(), (), limits).unwrap();
        let out = inst.invoke("main", &[]);
        if expect_ok {
            assert_eq!(out, Ok(Some(Value::I32(3))));
        } else {
            assert_eq!(out, Err(Trap::StackOverflow));
        }
    }
}
