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
//! `trap`).
//!
//! ## Pipeline
//!
//! `lex → parse → check → optimize → generate`, each stage a public
//! function ([`lexer::lex`], [`parser::parse`], [`typeck::check`],
//! [`opt::optimize`], [`codegen::generate`]). The optimiser (one-line
//! helper inlining) and the code generator's shapes (bottom-tested loops,
//! conditions that branch directly) always run: there is no optimisation
//! level, so the code that is measured is the code that is tested.
//!
//! The compiler injects a byte-buffer ABI prelude (`wrn_alloc`/`wrn_reset`,
//! a bump allocator over linear memory) unless
//! [`Options::with_abi_prelude`] disables it.

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

/// Compilation options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Initial linear-memory pages.
    pub memory_min_pages: u32,
    /// Maximum linear-memory pages (declared in the module; the host may
    /// cap further).
    pub memory_max_pages: Option<u32>,
    /// Inject the `wrn_alloc`/`wrn_reset` ABI prelude.
    pub abi_prelude: bool,
    /// First byte the bump allocator hands out (bytes below it are scratch
    /// space the plugin may address directly).
    pub heap_base: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memory_min_pages: 1,
            memory_max_pages: Some(16),
            abi_prelude: true,
            heap_base: 4096,
        }
    }
}

impl Options {
    /// Toggle the ABI prelude.
    pub fn with_abi_prelude(mut self, on: bool) -> Self {
        self.abi_prelude = on;
        self
    }

    /// Set memory limits.
    pub fn with_memory(mut self, min: u32, max: Option<u32>) -> Self {
        self.memory_min_pages = min;
        self.memory_max_pages = max;
        self
    }
}

/// The byte-buffer ABI prelude, itself written in PlugC.
const ABI_PRELUDE: &str = r#"
global __heap: i32 = 0;

export fn wrn_alloc(n: i32) -> i32 {
    if (__heap == 0) { __heap = __HEAP_BASE__; }
    var p: i32 = (__heap + 7) & (0 - 8);
    __heap = p + n;
    while (memory_size() * 65536 < __heap) {
        if (memory_grow(1) < 0) { trap(); }
    }
    return p;
}

export fn wrn_reset() {
    __heap = __HEAP_BASE__;
}
"#;

/// Compile PlugC source to a validated, binary-encoded Wasm module.
pub fn compile(source: &str) -> Result<Vec<u8>, CompileError> {
    compile_with(source, &Options::default())
}

/// Compile with explicit [`Options`].
pub fn compile_with(source: &str, opts: &Options) -> Result<Vec<u8>, CompileError> {
    let mut full_source = String::new();
    if opts.abi_prelude {
        full_source.push_str(&ABI_PRELUDE.replace("__HEAP_BASE__", &opts.heap_base.to_string()));
    }
    // Track how many lines the prelude added so user diagnostics stay
    // accurate.
    let prelude_lines = full_source.matches('\n').count();
    full_source.push_str(source);

    let tokens = lexer::lex(&full_source).map_err(|e| adjust(e, prelude_lines))?;
    let program = parser::parse(&tokens).map_err(|e| adjust(e, prelude_lines))?;
    let typed = opt::optimize(typeck::check(&program).map_err(|e| adjust(e, prelude_lines))?);
    let module = codegen::generate(&program, &typed, opts).map_err(|e| adjust(e, prelude_lines))?;

    waran_wasm::validate::validate(&module).map_err(|e| CompileError {
        line: 0,
        col: 0,
        msg: format!("internal codegen error (generated module failed validation): {e}"),
    })?;
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
        let src = "export fn noop() {}";
        let bytes = compile(src).unwrap();
        let module = waran_wasm::load_module(&bytes).unwrap();
        let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
        let p1 = inst
            .invoke("wrn_alloc", &[Value::I32(100)])
            .unwrap()
            .unwrap()
            .as_i32();
        let p2 = inst
            .invoke("wrn_alloc", &[Value::I32(100)])
            .unwrap()
            .unwrap()
            .as_i32();
        assert!(p1 >= 4096);
        assert!(p2 >= p1 + 100);
        assert_eq!(p2 % 8, 0, "allocations are 8-byte aligned");
        inst.invoke("wrn_reset", &[]).unwrap();
        let p3 = inst
            .invoke("wrn_alloc", &[Value::I32(4)])
            .unwrap()
            .unwrap()
            .as_i32();
        assert_eq!(p3, 4096);
    }

    #[test]
    fn diagnostics_point_at_user_lines() {
        let err = compile("export fn f() -> i32 {\n    return x;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains('x'));
    }
}
