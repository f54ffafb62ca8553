//! Soundness of the load-time static analysis on the shared differential
//! corpus (same seeded generator as `differential.rs`).
//!
//! Two properties per generated program:
//!
//! * **Translation validation passes** — `Module::analysis()` succeeds on
//!   100% of the corpus, i.e. the register lowering of every generated
//!   function passes its block-by-block check against the reference the
//!   walk recorded. Combined with the
//!   deliberately-corrupted-lowering negatives (unit tests in
//!   `analysis.rs`), this is the deterministic replacement for sampled
//!   cross-tier parity.
//! * **Static bounds dominate runtime** — executing with fuel set to the
//!   static fuel bound must never hit a resource trap on the production
//!   (register-form) executor, and the register cells and frames the call
//!   measurably used (`ExecStats::peak_regs`/`peak_frames`) must not
//!   exceed the static `regs` and `frames` bounds. The generator's loops
//!   all have constant trip counts, so the analyzer is additionally
//!   required to produce *finite* bounds: an `Unbounded` verdict here
//!   would be a precision regression, not just slack.

use waran_wasm::analysis::Bound;
use waran_wasm::instance::{Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::{load_module, Trap};

#[path = "util/gen.rs"]
mod gen;
use gen::gen_program;

/// Run `main` on exactly the analyzer's fuel bound, then hold the
/// measured arena and frame peaks to the static bounds; any resource trap
/// is a soundness violation (semantic traps like division by zero are
/// part of the corpus and fine).
fn assert_bounds_admit_execution(
    wasm: &[u8],
    fuel: u64,
    regs: u64,
    frames: u64,
    args: &[Value],
    ctx: &str,
) {
    let module = load_module(wasm).expect("generated module validates");
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_fuel(fuel);
    match inst.invoke("main", args) {
        Err(Trap::OutOfFuel) => panic!("static fuel bound {fuel} too small ({ctx})"),
        Err(Trap::StackOverflow) => panic!("stack overflow under the caps ({ctx})"),
        _ => {}
    }
    let stats = inst.stats();
    assert!(
        stats.peak_regs <= regs,
        "static regs bound {regs} < measured {} ({ctx})",
        stats.peak_regs
    );
    assert!(
        stats.peak_frames <= frames,
        "static frame bound {frames} < measured {} ({ctx})",
        stats.peak_frames
    );
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

/// The bounds are exact on a call chain: the call reaches exactly the
/// static frame depth and fills exactly the static register arena.
#[test]
fn frame_bound_is_tight_on_call_chain() {
    let wasm = waran_wat::assemble(
        r#"(module
             (func $h (result i32)
               i32.const 3)
             (func $g (result i32)
               call $h)
             (func (export "main") (result i32)
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
    let regs = r.regs;

    let module = load_module(&wasm).unwrap();
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    assert_eq!(inst.invoke("main", &[]), Ok(Some(Value::I32(3))));
    let stats = inst.stats();
    assert_eq!(stats.peak_frames, 3);
    assert_eq!(Bound::Finite(stats.peak_regs), regs);
}
