//! The optimiser against its own input: `generate(check(p))` vs
//! `generate(optimize(check(p)))` on the seeded corpus the VM suites use.
//!
//! The optimised module must return the same value or raise the same
//! trap, leave linear memory byte-identical, and — when the program
//! completes — never retire more instructions. The pipeline stages are
//! public, so the unoptimised side needs no compiler switch.

use waran_plugc::{codegen, lexer, opt, parser, typeck, Options};
use waran_wasm::instance::{Instance, Linker};
use waran_wasm::interp::Value;
use waran_wasm::{Module, Trap};

#[path = "../../wasm/tests/util/gen.rs"]
mod gen;

struct Outcome {
    result: Result<Option<Value>, Trap>,
    fuel: u64,
    memory: Vec<u8>,
}

fn run(module: Module, a: i32, b: i32) -> Outcome {
    waran_wasm::validate::validate(&module).expect("generated module validates");
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_fuel(Some(50_000_000));
    let result = inst.invoke("main", &[Value::I32(a), Value::I32(b)]);
    let memory = inst.memory();
    Outcome {
        result,
        fuel: inst.fuel_consumed().expect("metered"),
        memory: memory
            .read_bytes(0, memory.size_bytes() as u32)
            .unwrap()
            .to_vec(),
    }
}

/// Returns (unoptimised fuel, optimised fuel) when the program completed.
fn check_seed(seed: u64, a: i32, b: i32) -> Option<(u64, u64)> {
    let src = gen::gen_program(seed);
    let program = parser::parse(&lexer::lex(&src).unwrap()).unwrap();
    let typed = typeck::check(&program)
        .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{src}"));
    let opts = Options::default();
    let plain = run(codegen::generate(&program, &typed, &opts).unwrap(), a, b);
    let optimised = run(
        codegen::generate(&program, &opt::optimize(typed), &opts).unwrap(),
        a,
        b,
    );
    let ctx = format!("seed {seed}, args ({a}, {b})\n{src}");
    assert_ne!(
        plain.result,
        Err(Trap::OutOfFuel),
        "budget too small: {ctx}"
    );
    assert_eq!(plain.result, optimised.result, "result diverged: {ctx}");
    assert!(plain.memory == optimised.memory, "memory diverged: {ctx}");
    plain.result.ok()?;
    assert!(
        optimised.fuel <= plain.fuel,
        "optimised program retired more ({} > {}): {ctx}",
        optimised.fuel,
        plain.fuel
    );
    Some((plain.fuel, optimised.fuel))
}

#[test]
fn optimised_equals_unoptimised_on_corpus() {
    let (mut completed, mut cheaper, mut trapped) = (0, 0, 0);
    for seed in 0..300u64 {
        let a = (seed as i32).wrapping_mul(-0x61c8_8647);
        let b = (seed as i32).wrapping_mul(0x0101_0101) ^ 0x55;
        match check_seed(seed, a, b) {
            Some((plain, optimised)) => {
                completed += 1;
                cheaper += (optimised < plain) as u32;
            }
            None => trapped += 1,
        }
    }
    // The comparison must not be vacuous: the corpus has to complete,
    // trap, and actually reach the inliner.
    assert!(completed >= 100, "only {completed} programs completed");
    assert!(trapped >= 20, "only {trapped} programs trapped");
    assert!(cheaper >= 30, "inlining fired on only {cheaper} programs");
}

#[test]
fn optimised_equals_unoptimised_on_edge_arguments() {
    for seed in [3, 17, 99, 1234, 0xdead_beef] {
        for (a, b) in [(0, 0), (i32::MIN, -1), (i32::MAX, i32::MIN), (-1, 1)] {
            check_seed(seed, a, b);
        }
    }
}
