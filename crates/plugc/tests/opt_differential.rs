//! The optimiser against its own input: `generate(check(p))` vs
//! `generate(optimize(check(p)))` on the seeded corpus the VM suites use.
//!
//! The optimised module must return the same value or raise the same
//! trap, leave linear memory byte-identical, and — when the program
//! completes — never retire more instructions. The pipeline stages are
//! public, so the unoptimised side needs no compiler switch.

use waran_plugc::typeck::{TExpr, TExprKind, TStmt};
use waran_plugc::{codegen, lexer, opt, parser, typeck};
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
    let module = waran_wasm::load_module(&waran_wasm::encode::encode_module(&module))
        .expect("generated module validates");
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_fuel(50_000_000);
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

/// Calls in statement position in `body`, nested bodies included: the
/// generated programs make them only to void helpers.
fn statement_calls(body: &[TStmt]) -> usize {
    body.iter()
        .map(|s| match s {
            TStmt::If {
                then_body,
                else_body,
                ..
            } => statement_calls(then_body) + statement_calls(else_body),
            TStmt::While { body, .. } => statement_calls(body),
            TStmt::Expr {
                expr:
                    TExpr {
                        kind: TExprKind::Call { .. },
                        ..
                    },
                ..
            } => 1,
            _ => 0,
        })
        .sum()
}

/// The outcome of one seed: the fuel both sides retired when the program
/// completed, and how many statement calls the optimiser spliced.
struct Checked {
    fuel: Option<(u64, u64)>,
    spliced: usize,
}

fn check_seed(seed: u64, a: i32, b: i32) -> Checked {
    let src = gen::gen_program(seed);
    let program = parser::parse(&lexer::lex(&src).unwrap()).unwrap();
    let typed = typeck::check(&program)
        .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{src}"));
    let main = |p: &typeck::TProgram| statement_calls(&p.funcs[p.funcs.len() - 1].body);
    let plain = run(codegen::generate(&typed).unwrap(), a, b);
    let calls = main(&typed);
    let typed = opt::optimize(typed);
    let spliced = calls - main(&typed);
    let optimised = run(codegen::generate(&typed).unwrap(), a, b);
    let ctx = format!("seed {seed}, args ({a}, {b})\n{src}");
    assert_ne!(
        plain.result,
        Err(Trap::OutOfFuel),
        "budget too small: {ctx}"
    );
    assert_eq!(plain.result, optimised.result, "result diverged: {ctx}");
    assert!(plain.memory == optimised.memory, "memory diverged: {ctx}");
    let fuel = plain.result.is_ok().then_some((plain.fuel, optimised.fuel));
    assert!(
        fuel.is_none() || optimised.fuel <= plain.fuel,
        "optimised program retired more ({} > {}): {ctx}",
        optimised.fuel,
        plain.fuel
    );
    Checked { fuel, spliced }
}

#[test]
fn optimised_equals_unoptimised_on_corpus() {
    let (mut completed, mut cheaper, mut trapped, mut spliced) = (0, 0, 0, 0);
    for seed in 0..300u64 {
        let a = (seed as i32).wrapping_mul(-0x61c8_8647);
        let b = (seed as i32).wrapping_mul(0x0101_0101) ^ 0x55;
        let checked = check_seed(seed, a, b);
        spliced += checked.spliced;
        match checked.fuel {
            Some((plain, optimised)) => {
                completed += 1;
                cheaper += (optimised < plain) as u32;
            }
            None => trapped += 1,
        }
    }
    // The comparison must not be vacuous: the corpus has to complete,
    // trap, and actually reach both inliners.
    assert!(completed >= 100, "only {completed} programs completed");
    assert!(trapped >= 20, "only {trapped} programs trapped");
    assert!(cheaper >= 30, "inlining fired on only {cheaper} programs");
    assert!(spliced >= 200, "only {spliced} void-helper calls spliced");
}

#[test]
fn optimised_equals_unoptimised_on_edge_arguments() {
    for seed in [3, 17, 99, 1234, 0xdead_beef] {
        for (a, b) in [(0, 0), (i32::MIN, -1), (i32::MAX, i32::MIN), (-1, 1)] {
            check_seed(seed, a, b);
        }
    }
}

/// Compile `src` both ways in under a second (a debug build), then check
/// the optimised module against the unoptimised one on a few arguments.
fn check_bounded(name: &str, src: &str, args: &[(i32, i32)]) {
    let start = std::time::Instant::now();
    waran_plugc::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let took = start.elapsed();
    assert!(took.as_secs_f64() < 1.0, "{name}: compiled in {took:?}");
    let program = parser::parse(&lexer::lex(src).unwrap()).unwrap();
    let typed = typeck::check(&program).unwrap();
    for &(a, b) in args {
        let plain = run(codegen::generate(&typed).unwrap(), a, b);
        let optimised = run(
            codegen::generate(&opt::optimize(typed.clone())).unwrap(),
            a,
            b,
        );
        assert!(plain.result.is_ok(), "{name}: {:?}", plain.result);
        assert_eq!(plain.result, optimised.result, "{name} ({a}, {b})");
        assert!(optimised.fuel <= plain.fuel, "{name} ({a}, {b})");
    }
}

#[test]
fn a_splice_that_never_runs_costs_nothing() {
    // `main` declares eight locals: a fresh one for `put`'s bound argument
    // would raise its activation price on every call, while the splice
    // sits in a branch these arguments never take.
    let src = "fn put(at: i32, v: i32) { store_i32(at & 1020, v); }
               export fn main(a: i32, b: i32) -> i32 {
                   var c: i32 = a; var d: i32 = b; var e: i32 = c; var f: i32 = d;
                   var g: i32 = e; var h: i32 = f; var i: i32 = g; var j: i32 = h;
                   if (a == 12345) { put(j, b + 1); }
                   return j;
               }";
    check_bounded("never-run splice", src, &[(0, 0), (1, 2)]);
}

#[test]
fn a_chain_of_tall_helpers_is_not_inlined_into_one_tree() {
    // 150 one-line helpers, each a 200-term chain over its predecessor:
    // inlined end to end, a 30 000-deep tree from 120 KB of source.
    let terms = " + x".repeat(199);
    let mut src = format!("fn h0(x: i32) -> i32 {{ return x{terms}; }}\n");
    for i in 1..150 {
        src += &format!(
            "fn h{i}(x: i32) -> i32 {{ return h{}(x){terms}; }}\n",
            i - 1
        );
    }
    src += "export fn main(a: i32, b: i32) -> i32 { return h149(a) - b; }\n";
    check_bounded("tall chain", &src, &[(0, 0), (1, 7), (-3, i32::MAX)]);
}

#[test]
fn a_chain_of_doubling_helpers_is_not_inlined_exponentially() {
    // Each helper calls its predecessor twice: inlined end to end, 2^k
    // nodes from k lines of source.
    let doubling = |k: usize| {
        let mut src = String::from("fn d0(x: i32) -> i32 { return x; }\n");
        for i in 1..=k {
            src += &format!(
                "fn d{i}(x: i32) -> i32 {{ return d{0}(x) + d{0}(x); }}\n",
                i - 1
            );
        }
        src + &format!("export fn main(a: i32, b: i32) -> i32 {{ return d{k}(a) ^ b; }}\n")
    };
    // Run where the uninlined calls stay cheap; compile far past it.
    check_bounded("doubling ×14", &doubling(14), &[(0, 0), (5, -1)]);
    let start = std::time::Instant::now();
    waran_plugc::compile(&doubling(64)).expect("compiles");
    assert!(
        start.elapsed().as_secs_f64() < 1.0,
        "doubling ×64: {:?}",
        start.elapsed()
    );
}
