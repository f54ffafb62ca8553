//! Concurrency tests for the plugin host: the Fig. 5b claim is that
//! operators push new plugins while the gNB schedules. Here the scheduler
//! loop and the swapper genuinely race on different threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_host::PluginHost;
use waran_wasm::instance::Linker;

fn plugin_returning(byte: u8) -> Plugin<()> {
    let src = format!(
        r#"export fn run(ptr: i32, len: i32) -> i64 {{
            var out: i32 = wrn_alloc(1);
            store_u8(out, {byte});
            return pack(out, 1);
        }}"#
    );
    let wasm = waran_plugc::compile(&src).expect("compiles");
    Plugin::new(&wasm, &Linker::new(), (), SandboxPolicy::default()).expect("instantiates")
}

#[test]
fn swap_races_with_calls_without_torn_results() {
    let host: Arc<PluginHost<()>> = Arc::new(PluginHost::new());
    host.install("p", plugin_returning(b'A'));

    let stop = Arc::new(AtomicBool::new(false));

    // Caller thread: hammers the plugin, recording every answer.
    let caller = {
        let host = host.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut answers = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let out = host.call("p", "run", &[]).expect("plugin always callable");
                answers.push(out[0]);
            }
            answers
        })
    };

    // Swapper thread: flips the plugin back and forth.
    let swapper = {
        let host = host.clone();
        thread::spawn(move || {
            for i in 0..50 {
                let byte = if i % 2 == 0 { b'B' } else { b'A' };
                host.install("p", plugin_returning(byte));
                thread::sleep(Duration::from_millis(1));
            }
        })
    };

    swapper.join().expect("swapper finishes");
    stop.store(true, Ordering::Relaxed);
    let answers = caller.join().expect("caller finishes");

    // Every observed answer is a complete response from *some* installed
    // version — never torn, never an error.
    assert!(!answers.is_empty());
    assert!(answers.iter().all(|b| *b == b'A' || *b == b'B'));
    // Both versions were actually observed (the swap is not a no-op).
    assert!(answers.contains(&b'A'));
    assert!(answers.contains(&b'B'));
    assert_eq!(host.health("p").expect("slot exists").swaps, 50);
}

#[test]
fn concurrent_calls_to_different_plugins_do_not_serialize_errors() {
    let host: Arc<PluginHost<()>> = Arc::new(PluginHost::new());
    for i in 0..4 {
        host.install(&format!("p{i}"), plugin_returning(b'0' + i));
    }
    let mut handles = Vec::new();
    for i in 0..4u8 {
        let host = host.clone();
        handles.push(thread::spawn(move || {
            let name = format!("p{i}");
            for _ in 0..500 {
                let out = host.call(&name, "run", &[]).expect("callable");
                assert_eq!(out[0], b'0' + i, "cross-slot contamination");
            }
        }));
    }
    for h in handles {
        h.join().expect("worker finishes");
    }
    for i in 0..4 {
        assert_eq!(host.health(&format!("p{i}")).expect("slot").calls_ok, 500);
    }
}

#[test]
fn quarantine_is_race_free() {
    // Many threads hammer a crashing plugin; the quarantine threshold must
    // not be bypassed by interleaving.
    let host: Arc<PluginHost<()>> = Arc::new(PluginHost::new());
    let policy = SandboxPolicy {
        quarantine_after: 5,
        ..SandboxPolicy::default()
    };
    let wasm =
        waran_plugc::compile("export fn run(ptr: i32, len: i32) -> i64 { trap(); return 0i64; }")
            .expect("compiles");
    host.install(
        "bad",
        Plugin::new(&wasm, &Linker::new(), (), policy).expect("instantiates"),
    );

    let mut handles = Vec::new();
    for _ in 0..4 {
        let host = host.clone();
        handles.push(thread::spawn(move || {
            let mut guest_faults = 0u64;
            for _ in 0..100 {
                match host.call("bad", "run", &[]) {
                    Err(waran_host::PluginError::Trap(_)) => guest_faults += 1,
                    Err(waran_host::PluginError::Quarantined { .. }) => {}
                    other => panic!("unexpected: {other:?}"),
                }
            }
            guest_faults
        }));
    }
    let total_guest_faults: u64 = handles.into_iter().map(|h| h.join().expect("joins")).sum();
    // Exactly the threshold ran guest code; everything after was refused.
    assert_eq!(total_guest_faults, 5);
    assert_eq!(host.health("bad").expect("slot").total_faults, 5);
}
