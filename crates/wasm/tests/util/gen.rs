//! Seeded PlugC program generator shared by the differential suite and
//! the static-analysis soundness suite. Include with
//! `#[path = "util/gen.rs"] mod gen;`.
//!
//! The generator is seeded (xorshift64*), so the same corpus runs as a
//! deterministic sweep across suites: a seed means the same program to
//! every consumer.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];
const BINOPS: [&str; 18] = [
    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&",
    "||",
];

/// One-line helpers every program can call: a pure one, one whose
/// parameter is read twice, one that loads and one that can trap. Whether
/// a call site is inlined by PlugC depends on its arguments, so both the
/// inlined and the real-call path are in the corpus.
const HELPERS: &str = "\
fn mix(x: i32, y: i32) -> i32 { return ((x * 3) + (y ^ 5)); }
fn sq(x: i32) -> i32 { return (x * x); }
fn peek(x: i32) -> i32 { return load_i32((x & 1020)); }
fn quot(x: i32, y: i32) -> i32 { return (x / y); }
";

/// A fully parenthesized i32 expression over the mutable variables.
/// Division and remainder are reachable, so traps are part of the corpus;
/// `&&`/`||`/`!` appear in value position here and in branch position when
/// the expression is a condition.
fn gen_expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        if rng.below(2) == 0 {
            VARS[rng.below(VARS.len() as u64) as usize].to_string()
        } else {
            format!("{}", rng.below(1 << 14))
        }
    } else {
        match rng.below(8) {
            0 => format!("(!{})", gen_expr(rng, depth - 1)),
            1 => match rng.below(4) {
                0 => format!(
                    "mix({}, {})",
                    gen_expr(rng, depth - 1),
                    gen_expr(rng, depth - 1)
                ),
                1 => format!("sq({})", gen_expr(rng, depth - 1)),
                2 => format!("peek({})", gen_expr(rng, depth - 1)),
                _ => format!(
                    "quot({}, {})",
                    gen_expr(rng, depth - 1),
                    gen_expr(rng, depth - 1)
                ),
            },
            _ => {
                let op = BINOPS[rng.below(BINOPS.len() as u64) as usize];
                format!(
                    "({} {} {})",
                    gen_expr(rng, depth - 1),
                    op,
                    gen_expr(rng, depth - 1)
                )
            }
        }
    }
}

/// Statements: assignments, stores, if/else, bounded while loops with
/// `break` and `continue`. Loop counters (`c<depth>`) are reset before each
/// loop and only incremented by the loop itself — at the end of the body
/// and right before each `continue` — so every generated program
/// terminates.
fn gen_stmts(rng: &mut Rng, depth: u32, loop_depth: usize, out: &mut String, indent: usize) {
    let pad = " ".repeat(indent);
    let n = 1 + rng.below(4);
    for _ in 0..n {
        match rng.below(8) {
            0..=2 => {
                let v = VARS[rng.below(VARS.len() as u64) as usize];
                out.push_str(&format!("{pad}{v} = {};\n", gen_expr(rng, 3)));
            }
            3 if depth > 0 => {
                out.push_str(&format!("{pad}if ({}) {{\n", gen_expr(rng, 2)));
                gen_stmts(rng, depth - 1, loop_depth, out, indent + 2);
                if rng.below(2) == 0 {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    gen_stmts(rng, depth - 1, loop_depth, out, indent + 2);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            4 if depth > 0 && loop_depth < 4 => {
                let c = format!("c{loop_depth}");
                let bound = 1 + rng.below(8);
                out.push_str(&format!("{pad}{c} = 0;\n"));
                out.push_str(&format!("{pad}while (({c} < {bound})) {{\n"));
                gen_stmts(rng, depth - 1, loop_depth + 1, out, indent + 2);
                out.push_str(&format!("{pad}  {c} = ({c} + 1);\n"));
                out.push_str(&format!("{pad}}}\n"));
            }
            5 => {
                out.push_str(&format!(
                    "{pad}store_i32(({} & 1020), {});\n",
                    gen_expr(rng, 2),
                    gen_expr(rng, 2)
                ));
            }
            6 if loop_depth > 0 => {
                let c = format!("c{}", loop_depth - 1);
                let cond = gen_expr(rng, 2);
                if rng.below(2) == 0 {
                    out.push_str(&format!("{pad}if ({cond}) {{ break; }}\n"));
                } else {
                    out.push_str(&format!(
                        "{pad}if ({cond}) {{ {c} = ({c} + 1); continue; }}\n"
                    ));
                }
            }
            _ => {}
        }
    }
}

/// One complete PlugC program per seed: `main(a, b)` over four mutable
/// variables and four loop counters, ending in a value that depends on
/// everything so no assignment is dead.
pub fn gen_program(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut body = String::new();
    gen_stmts(&mut rng, 3, 0, &mut body, 4);
    let k2 = rng.below(1 << 14);
    let k3 = rng.below(1 << 14);
    format!(
        "{HELPERS}\
         export fn main(a: i32, b: i32) -> i32 {{\n\
         \x20   var v0: i32 = a;\n\
         \x20   var v1: i32 = b;\n\
         \x20   var v2: i32 = {k2};\n\
         \x20   var v3: i32 = {k3};\n\
         \x20   var c0: i32 = 0;\n\
         \x20   var c1: i32 = 0;\n\
         \x20   var c2: i32 = 0;\n\
         \x20   var c3: i32 = 0;\n\
         {body}\
         \x20   return ((((v0 ^ v1) + v2) ^ v3) + ((c0 + c1) + (c2 + c3)));\n\
         }}\n"
    )
}
