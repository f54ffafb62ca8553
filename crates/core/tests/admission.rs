//! Admission-control regression suite: `SandboxPolicy`'s static-bound
//! gates must reject non-conforming plugins at `install_plugin` time with
//! a typed [`PluginError::Admission`] — before any instance is stamped —
//! while the default policy keeps admitting every stock plugin.

use std::sync::Arc;

use waran_core::install_plugin;
use waran_core::plugins::{self, faulty};
use waran_host::{PluginError, PluginHost, SandboxPolicy};
use waran_wasm::analysis::Bound;
use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instance::{MAX_CALL_DEPTH, MAX_REGS};
use waran_wasm::types::ValType;

fn host() -> Arc<PluginHost<()>> {
    Arc::new(PluginHost::new())
}

/// The stock schedulers and the leaky allocator all loop over
/// data-dependent state (UE lists, memory size), so a real-time class
/// that demands statically bounded loops must reject them up front.
#[test]
fn no_unbounded_loops_rejects_leaky_plugin_at_install() {
    let wasm = plugins::compile_faulty(faulty::LEAKY);
    let policy = SandboxPolicy {
        no_unbounded_loops: true,
        ..SandboxPolicy::default()
    };
    let err = install_plugin(&host(), "leaky", &wasm, policy)
        .expect_err("leaky plugin must not pass the loop-bound gate");
    match err {
        PluginError::Admission { bound, value, .. } => {
            assert_eq!(bound, "loop-bound");
            assert_eq!(value, Bound::Unbounded);
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }
}

/// The same plugin is admitted under the default policy: the gates are
/// opt-in, runtime metering still covers unanalyzable code.
#[test]
fn default_policy_still_admits_all_stock_plugins() {
    let h = host();
    let leaky = plugins::compile_faulty(faulty::LEAKY);
    install_plugin(&h, "leaky", &leaky, SandboxPolicy::default()).expect("default admits leaky");
    for (name, wasm) in [
        ("rr", plugins::rr_wasm()),
        ("pf", plugins::pf_wasm()),
        ("mt", plugins::mt_wasm()),
    ] {
        install_plugin(&h, name, wasm, SandboxPolicy::default())
            .unwrap_or_else(|e| panic!("default policy must admit `{name}`: {e}"));
    }
}

/// `max_fuel_bound` demands a *finite* static fuel bound at most the
/// limit; a data-dependent loop has no finite bound and must be rejected
/// with the offending export named.
#[test]
fn max_fuel_bound_rejects_unprovable_fuel() {
    let wasm = plugins::compile_faulty(faulty::LEAKY);
    let policy = SandboxPolicy {
        max_fuel_bound: Some(1_000_000),
        ..SandboxPolicy::default()
    };
    let err = install_plugin(&host(), "leaky", &wasm, policy)
        .expect_err("unbounded fuel must not satisfy max_fuel_bound");
    match err {
        PluginError::Admission {
            func,
            bound,
            value,
            limit,
        } => {
            assert_eq!(bound, "fuel");
            assert_eq!(value, Bound::Unbounded);
            assert_eq!(limit, 1_000_000);
            assert!(!func.is_empty(), "the offending export must be named");
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }
}

/// A loop-free plugin whose worst-case fuel is tiny passes a tight fuel
/// gate — the bound is usable, not just a rejection hammer.
#[test]
fn max_fuel_bound_admits_straight_line_plugin() {
    let wasm = waran_wat::assemble(
        r#"(module
             (memory (export "memory") 1)
             (func (export "run") (param i32 i32) (result i64)
               i64.const 0))"#,
    )
    .expect("assembles");
    let policy = SandboxPolicy {
        max_fuel_bound: Some(1_000),
        no_unbounded_loops: true,
        ..SandboxPolicy::default()
    };
    install_plugin(&host(), "tiny", &wasm, policy).expect("trivial plugin passes both gates");
}

/// A module whose export `run` heads a chain of `frames` (at least 2)
/// nested calls.
fn call_chain(frames: usize) -> Vec<u8> {
    let mut wat = String::from(
        r#"(module
             (memory (export "memory") 1)
             (func (export "run") (param i32 i32) (result i64)
               call $f1 drop i64.const 0)
"#,
    );
    for k in 1..frames - 1 {
        wat += &format!("(func $f{k} (result i32) call $f{})\n", k + 1);
    }
    wat += &format!("(func $f{} (result i32) i32.const 3))", frames - 1);
    waran_wat::assemble(&wat).expect("assembles")
}

/// A statically provable call chain one frame deeper than the executor's
/// `MAX_CALL_DEPTH` is rejected at install time instead of trapping
/// `StackOverflow` mid-call; a chain of exactly that depth is admitted and
/// runs.
#[test]
fn static_call_depth_bound_past_the_host_limit_is_rejected() {
    let depth = MAX_CALL_DEPTH;
    let h = host();
    let err = install_plugin(&h, "deep", &call_chain(depth + 1), SandboxPolicy::default())
        .expect_err("a chain one frame deeper than the cap must not be admitted");
    match err {
        PluginError::Admission {
            func,
            bound,
            value,
            limit,
        } => {
            assert_eq!(func, "run");
            assert_eq!(bound, "call-depth");
            assert_eq!(value, Bound::Finite(depth as u64 + 1));
            assert_eq!(limit, depth as u64);
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }

    install_plugin(&h, "deep", &call_chain(depth), SandboxPolicy::default())
        .expect("a chain of exactly MAX_CALL_DEPTH frames fits");
    assert_eq!(h.call("deep", "run", &[]), Ok(Vec::new()));
}

/// A module whose export `run` heads a chain of 21 frames of 49 000 `i64`
/// locals each, ending in a leaf with `leaf_locals`. Nothing recurses, so
/// the static `regs` bound is finite: about 49 000 cells per frame.
fn wide_chain(leaf_locals: u32) -> Vec<u8> {
    const WIDE: u32 = 21;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.export_memory("memory");
    let unit = b.func_type(&[], &[]);
    let entry = b.func_type(&[ValType::I32, ValType::I32], &[ValType::I64]);
    // Functions are numbered in declaration order: `run` is 0, the
    // wide frames 1..=WIDE and the leaf WIDE + 1.
    let run = b.begin_func(entry);
    b.code().call(1).i64_const(0);
    b.end_func().unwrap();
    for k in 1..=WIDE + 1 {
        b.begin_func(unit);
        let locals = if k <= WIDE { 49_000 } else { leaf_locals };
        for _ in 0..locals {
            b.local(ValType::I64);
        }
        if k <= WIDE {
            b.code().call(k + 1);
        }
        b.end_func().unwrap();
    }
    b.export_func("run", run);
    b.finish_bytes().unwrap()
}

/// The static `regs` bound of `run`.
fn regs_bound(wasm: &[u8]) -> u64 {
    let module = waran_wasm::load_module(wasm).unwrap();
    let analysis = module.analysis().unwrap();
    let run = analysis
        .exports()
        .find(|r| r.export.as_deref() == Some("run"));
    run.unwrap()
        .regs
        .finite()
        .expect("a call chain has a finite bound")
}

/// A statically provable call chain whose frames need one register cell
/// more than the host's fixed arena of `MAX_REGS` is rejected at install
/// time instead of trapping `StackOverflow` mid-call; a chain that needs
/// exactly `MAX_REGS` cells is admitted and runs.
#[test]
fn static_regs_bound_past_the_host_arena_is_rejected() {
    let limit = MAX_REGS as u64;
    // A leaf local adds one cell to the bound: size the leaf so the chain
    // lands on the limit, then one past it.
    let leaf = (limit - regs_bound(&wide_chain(0))) as u32;
    let (at_limit, past) = (wide_chain(leaf), wide_chain(leaf + 1));
    assert_eq!(regs_bound(&at_limit), limit);

    let h = host();
    let err = install_plugin(&h, "wide", &past, SandboxPolicy::default())
        .expect_err("a chain one cell past the arena must not be admitted");
    match err {
        PluginError::Admission {
            func,
            bound,
            value,
            limit: l,
        } => {
            assert_eq!(func, "run");
            assert_eq!(bound, "regs");
            assert_eq!(value, Bound::Finite(limit + 1));
            assert_eq!(l, limit);
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }

    install_plugin(&h, "wide", &at_limit, SandboxPolicy::default())
        .expect("a chain of exactly MAX_REGS cells fits");
    assert_eq!(h.call("wide", "run", &[]), Ok(Vec::new()));
}
