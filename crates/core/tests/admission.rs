//! Admission-control regression suite: `SandboxPolicy`'s static-bound
//! gates must reject non-conforming plugins at `install_plugin` time with
//! a typed [`PluginError::Admission`] — before any instance is stamped —
//! while the default policy keeps admitting every stock plugin.

use std::sync::Arc;

use waran_core::install_plugin;
use waran_core::plugins::{self, faulty};
use waran_host::{PluginError, PluginHost, SandboxPolicy};
use waran_wasm::analysis::Bound;

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
/// nested calls. Each function opens with `block br end`, control flow that
/// keeps the compiler from inlining the chain away.
fn call_chain(frames: usize) -> Vec<u8> {
    let mut wat = String::from(
        r#"(module
             (memory (export "memory") 1)
             (func (export "run") (param i32 i32) (result i64)
               block $b br $b end call $f1 drop i64.const 0)
"#,
    );
    for k in 1..frames - 1 {
        wat += &format!(
            "(func $f{k} (result i32) block $b br $b end call $f{})\n",
            k + 1
        );
    }
    wat += &format!(
        "(func $f{} (result i32) block $b br $b end i32.const 3))",
        frames - 1
    );
    waran_wat::assemble(&wat).expect("assembles")
}

/// A statically provable call chain one frame deeper than the host's fixed
/// depth of 512 is rejected at install time instead of trapping
/// `StackOverflow` mid-call; a chain of exactly 512 is admitted and runs.
#[test]
fn static_call_depth_bound_past_the_host_limit_is_rejected() {
    let h = host();
    let err = install_plugin(&h, "deep", &call_chain(513), SandboxPolicy::default())
        .expect_err("a 513-deep chain must not fit the 512-frame limit");
    match err {
        PluginError::Admission {
            func,
            bound,
            value,
            limit,
        } => {
            assert_eq!(func, "run");
            assert_eq!(bound, "call-depth");
            assert_eq!(value, Bound::Finite(513));
            assert_eq!(limit, 512);
        }
        other => panic!("expected a typed admission error, got {other:?}"),
    }

    install_plugin(&h, "deep", &call_chain(512), SandboxPolicy::default())
        .expect("a 512-deep chain fits");
    assert_eq!(h.call("deep", "run", &[]), Ok(Vec::new()));
}
