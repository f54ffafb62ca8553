//! # waran-plugc — the PlugC plugin language
//!
//! The paper's workflow is "write plugins in a high-level language, compile
//! to Wasm, push into the RAN" (Fig. 1). This crate is that toolchain:
//! PlugC is a small, statically typed, C-like language that compiles
//! directly to WebAssembly via [`waran_wasm::builder`]. WA-RAN's standard
//! scheduler and xApp plugins ship as PlugC source.
//!
//! ## Language tour
//!
//! ```text
//! // Host imports (resolved from the "env" namespace at instantiation).
//! extern fn wrn_log(code: i32);
//!
//! // Module state.
//! global calls: i64 = 0;
//! const SCALE: f64 = 1.5;
//!
//! // Exported entry point.
//! export fn run(in_ptr: i32, in_len: i32) -> i64 {
//!     var i: i32 = 0;
//!     var acc: f64 = 0.0;
//!     while (i < in_len) {
//!         acc = acc + load_f64(in_ptr + i * 8) * SCALE;
//!         i = i + 1;
//!     }
//!     calls = calls + 1;
//!     store_f64(0, acc);
//!     return pack(0, 8);
//! }
//! ```
//!
//! Types: `i32`, `i64`, `f32`, `f64`. Statements: `var`, assignment,
//! `if`/`else`, `while`, `break`, `continue`, `return`, blocks, expression
//! statements. Expressions: literals (`42`, `0x2a`, `7i64`, `1.5`,
//! `2.0f32`), arithmetic/bitwise/comparison/logical operators with C
//! precedence, short-circuiting `&&`/`||`, casts (`x as i64`), calls, and
//! memory/math intrinsics (`load_*`/`store_*`, `memory_size`,
//! `memory_grow`, `sqrt`, `floor`, `ceil`, `abs`, `min`, `max`, `pack`,
//! `trap`), each one row of [`ast::INTRINSICS`].
//!
//! ## Pipeline
//!
//! `lex → parse → check → optimize → generate`, each stage a public
//! function ([`lexer::lex`], [`parser::parse`], [`typeck::check`],
//! [`opt::optimize`], [`codegen::generate`]). The optimiser (one-line
//! helper inlining, straight-line void helper splicing) and the code generator's shapes (bottom-tested loops,
//! conditions that branch directly) always run: there is no optimisation
//! level, so the code that is measured is the code that is tested.
//!
//! [`compile`] has no options. Every module it emits declares one initial
//! and at most 16 pages of exported `memory`, and carries a byte-buffer ABI
//! prelude: the exported bump pointer `wrn_heap`, initialised to 4096, that
//! the host places each request at and rewinds, and `wrn_alloc`, a bump
//! allocator over it.

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod typeck;

pub use ast::Type;

/// A compile error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for CompileError {}

/// The byte-buffer ABI prelude, itself written in PlugC. The host owns
/// the arena: before every call it rewinds `wrn_heap` to the declared base,
/// copies the request there and leaves `wrn_heap` just past it, so
/// `wrn_alloc` hands out memory above the request and the next call's
/// rewind recycles everything this one allocated. `wrn_heap` starts at
/// 4096: the bytes below it are scratch space the plugin may address
/// directly.
const ABI_PRELUDE: &str = r#"
export global wrn_heap: i32 = 4096;

fn wrn_alloc(n: i32) -> i32 {
    var p: i32 = (wrn_heap + 7) & (0 - 8);
    wrn_heap = p + n;
    while (memory_size() * 65536 < wrn_heap) {
        if (memory_grow(1) < 0) { trap(); }
    }
    return p;
}
"#;

/// Compile PlugC source, behind the ABI prelude, to a binary-encoded Wasm
/// module. It is not validated here: every consumer loads it through
/// `waran_wasm::load_module`, which validates and lowers it once.
pub fn compile(source: &str) -> Result<Vec<u8>, CompileError> {
    // Diagnostics subtract the prelude's lines so they point at user code.
    let prelude_lines = ABI_PRELUDE.matches('\n').count();
    let full_source = format!("{ABI_PRELUDE}{source}");

    let tokens = lexer::lex(&full_source).map_err(|e| adjust(e, prelude_lines))?;
    let program = parser::parse(&tokens).map_err(|e| adjust(e, prelude_lines))?;
    let typed = opt::optimize(typeck::check(&program).map_err(|e| adjust(e, prelude_lines))?);
    let module = codegen::generate(&typed).map_err(|e| adjust(e, prelude_lines))?;
    Ok(waran_wasm::encode::encode_module(&module))
}

fn adjust(mut e: CompileError, prelude_lines: usize) -> CompileError {
    if e.line > prelude_lines {
        e.line -= prelude_lines;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_wasm::instance::{Instance, Linker};
    use waran_wasm::interp::Value;

    fn run(src: &str, func: &str, args: &[Value]) -> Option<Value> {
        let bytes = compile(src).expect("compiles");
        let module = waran_wasm::load_module(&bytes).expect("validates");
        let mut inst =
            Instance::new(module.into(), &Linker::<()>::new(), ()).expect("instantiates");
        inst.invoke(func, args).expect("runs")
    }

    #[test]
    fn arithmetic_and_return() {
        let got = run(
            "export fn f(a: i32, b: i32) -> i32 { return a * b + 2; }",
            "f",
            &[Value::I32(4), Value::I32(10)],
        );
        assert_eq!(got, Some(Value::I32(42)));
    }

    #[test]
    fn while_loop_sum() {
        let src = r#"
            export fn sum(n: i32) -> i32 {
                var acc: i32 = 0;
                var i: i32 = 1;
                while (i <= n) {
                    acc = acc + i;
                    i = i + 1;
                }
                return acc;
            }
        "#;
        assert_eq!(run(src, "sum", &[Value::I32(100)]), Some(Value::I32(5050)));
    }

    #[test]
    fn abi_prelude_allocates() {
        let src = "export fn alloc(n: i32) -> i32 { return wrn_alloc(n); }";
        let bytes = compile(src).unwrap();
        let module = waran_wasm::load_module(&bytes).unwrap();
        assert!(
            module.exported_func("wrn_alloc").is_none(),
            "the allocator is the guest's own business"
        );
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
        assert_eq!(inst.get_global("wrn_heap"), Some(Value::I32(4096)));
        let mut alloc = |n| {
            inst.invoke("alloc", &[Value::I32(n)])
                .unwrap()
                .unwrap()
                .as_i32()
        };
        let p1 = alloc(100);
        let p2 = alloc(100);
        assert_eq!(p1, 4096);
        assert!(p2 >= p1 + 100);
        assert_eq!(p2 % 8, 0, "allocations are 8-byte aligned");
        assert_eq!(inst.get_global("wrn_heap"), Some(Value::I32(p2 + 100)));
        // Rewinding is the host's job: the pointer is a plain mutable global.
        inst.set_global(0, Value::I32(4096)).unwrap();
        assert_eq!(
            inst.invoke("alloc", &[Value::I32(4)]).unwrap(),
            Some(Value::I32(4096))
        );
    }

    #[test]
    fn export_global_lands_in_the_export_section() {
        let bytes = compile("export global g: i64 = 7i64; export const k: i32 = 3;").unwrap();
        let module = waran_wasm::load_module(&bytes).unwrap();
        let inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
        assert_eq!(inst.get_global("g"), Some(Value::I64(7)));
        assert_eq!(inst.get_global("k"), Some(Value::I32(3)));
    }

    #[test]
    fn diagnostics_point_at_user_lines() {
        let err = compile("export fn f() -> i32 {\n    return x;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains('x'));
    }
}
