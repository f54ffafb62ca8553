//! Deeply nested source is a compile error, never a stack overflow.
//!
//! PlugC source is untrusted input. The parser and every later stage
//! recurse over the syntax tree, so the parser refuses a tree deeper than
//! [`MAX_NESTING`]. Each shape below is compiled exactly at the limit
//! (inside a 2 MiB thread, the default for a test), one level past it, and
//! at 100 000 levels.

use waran_plugc::compile;
use waran_plugc::parser::MAX_NESTING;

/// One nesting shape: builds a module `n` deep, and the `n` at which the
/// whole module is exactly `MAX_NESTING` levels deep (the body is level 1).
struct Shape {
    name: &'static str,
    build: fn(usize) -> String,
    at_limit: usize,
}

fn shapes() -> Vec<Shape> {
    let max = MAX_NESTING as usize;
    vec![
        Shape {
            name: "parentheses",
            build: |n| {
                format!(
                    "export fn f() -> i32 {{ return {}1{}; }}",
                    "(".repeat(n),
                    ")".repeat(n)
                )
            },
            at_limit: max - 1,
        },
        Shape {
            name: "unary minus",
            build: |n| format!("export fn f() -> i32 {{ return {}1; }}", "- ".repeat(n)),
            at_limit: max - 1,
        },
        Shape {
            name: "blocks",
            build: |n| format!("export fn f() {{ {}{} }}", "{ ".repeat(n), "} ".repeat(n)),
            at_limit: max - 1,
        },
        Shape {
            name: "binary chain",
            build: |n| format!("export fn f() -> i32 {{ return 1{}; }}", " + 1".repeat(n)),
            at_limit: max - 1,
        },
        Shape {
            name: "casts",
            build: |n| {
                format!(
                    "export fn f() -> i32 {{ return 1{}; }}",
                    " as i32".repeat(n)
                )
            },
            at_limit: max - 1,
        },
        Shape {
            name: "calls",
            build: |n| {
                format!(
                    "export fn f() -> f64 {{ return {}1.0{}; }}",
                    "abs(".repeat(n),
                    ")".repeat(n)
                )
            },
            at_limit: max - 1,
        },
        Shape {
            name: "else if",
            // Each `else if` is a level, and so is the innermost `{}`.
            build: |n| {
                format!(
                    "export fn f() {{ if (1) {{}}{} }}",
                    " else if (1) {}".repeat(n)
                )
            },
            at_limit: max - 2,
        },
    ]
}

/// Run `f` on a thread with the default test stack, whatever
/// `RUST_MIN_STACK` says.
fn in_2_mib_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

#[test]
fn every_shape_compiles_exactly_at_the_limit() {
    in_2_mib_thread(|| {
        for s in shapes() {
            let src = (s.build)(s.at_limit);
            if let Err(e) = compile(&src) {
                panic!("{} at the limit: {e}", s.name);
            }
        }
    });
}

#[test]
fn one_level_past_the_limit_is_an_error() {
    let want = format!("nesting deeper than {MAX_NESTING}");
    for s in shapes() {
        match compile(&(s.build)(s.at_limit + 1)) {
            Err(e) => assert_eq!(e.msg, want, "{}", s.name),
            Ok(_) => panic!("{} one past the limit compiled", s.name),
        }
    }
}

#[test]
fn hostile_depth_is_an_error_not_an_abort() {
    in_2_mib_thread(|| {
        for s in shapes() {
            let src = (s.build)(100_000);
            assert!(compile(&src).is_err(), "{} at 100 000 levels", s.name);
        }
    });
}
