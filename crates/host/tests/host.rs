//! Integration tests: PlugC-compiled plugins running under the host's
//! sandbox policies — the mechanics behind the paper's §5.B–§5.E results.

use std::time::Duration;

use waran_abi::sched::{Allocation, SchedRequest, SchedResponse, UeInfo};
use waran_host::plugin::{Plugin, PluginError, SandboxPolicy};
use waran_host::{PluginHost, SlotState};
use waran_wasm::instance::Linker;
use waran_wasm::interp::Value;
use waran_wasm::Trap;

fn compile(src: &str) -> Vec<u8> {
    waran_plugc::compile(src).expect("plugin compiles")
}

fn plugin(src: &str) -> Plugin<()> {
    Plugin::new(&compile(src), &Linker::new(), (), SandboxPolicy::default()).expect("instantiates")
}

fn ue(id: u32, mcs: u8, avg: f64) -> UeInfo {
    UeInfo {
        ue_id: id,
        cqi: 10,
        mcs,
        flags: 0,
        buffer_bytes: 1_000_000,
        avg_tput_bps: avg,
        prb_capacity_bits: 20_000.0 * (mcs as f64 + 2.0),
    }
}

/// A round-robin intra-slice scheduler in PlugC against the documented ABI
/// offsets (see waran-abi::sched).
const RR_PLUGIN: &str = r#"
global next: i32 = 0;

export fn schedule(req: i32, len: i32) -> i64 {
    var n: i32 = load_u8(req + 4) | (load_u8(req + 5) << 8);
    var prbs: i32 = load_i32(req + 16);
    var out: i32 = wrn_alloc(8 + n * 8);
    // Response header: magic 0x5752, version 1, count n, reserved.
    store_u8(out, 0x52); store_u8(out + 1, 0x57);
    store_u8(out + 2, 1); store_u8(out + 3, 0);
    store_u8(out + 4, n & 255); store_u8(out + 5, (n >> 8) & 255);
    store_u8(out + 6, 0); store_u8(out + 7, 0);
    if (n == 0) { return pack(out, 8); }
    var share: i32 = prbs / n;
    var extra: i32 = prbs - share * n;
    var i: i32 = 0;
    while (i < n) {
        var idx: i32 = (next + i) % n;
        var rec: i32 = req + 24 + idx * 32;
        var slot: i32 = out + 8 + i * 8;
        store_i32(slot, load_i32(rec));        // ue_id
        var give: i32 = share;
        if (i < extra) { give = give + 1; }
        store_u8(slot + 4, give & 255);
        store_u8(slot + 5, (give >> 8) & 255);
        store_u8(slot + 6, i & 255);            // priority by position
        store_u8(slot + 7, 0);
        i = i + 1;
    }
    next = (next + 1) % n;
    return pack(out, 8 + n * 8);
}
"#;

#[test]
fn byte_abi_echo() {
    let mut p = plugin(r#"export fn run(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }"#);
    assert_eq!(p.call("run", b"abc123").unwrap(), b"abc123");
    assert_eq!(p.call("run", &[]).unwrap(), b"");
    assert!(p.last_call_duration().is_some());
}

#[test]
fn byte_abi_transform() {
    // Reverse the input buffer into a fresh allocation.
    let mut p = plugin(
        r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(len);
            var i: i32 = 0;
            while (i < len) {
                store_u8(out + i, load_u8(ptr + len - 1 - i));
                i = i + 1;
            }
            return pack(out, len);
        }
        "#,
    );
    assert_eq!(p.call("run", b"wasm").unwrap(), b"msaw");
}

#[test]
fn sched_plugin_round_robin() {
    let mut p = plugin(RR_PLUGIN);
    let req = SchedRequest {
        slot: 1,
        prbs_granted: 52,
        slice_id: 0,
        ues: vec![ue(10, 20, 1e6), ue(11, 24, 2e6), ue(12, 28, 3e6)],
    };
    let resp = p.call_sched(&req).unwrap();
    assert_eq!(resp.allocs.len(), 3);
    assert_eq!(resp.total_prbs(), 52);
    // All UEs covered.
    let mut ids: Vec<u32> = resp.allocs.iter().map(|a| a.ue_id).collect();
    ids.sort();
    assert_eq!(ids, vec![10, 11, 12]);
    // Rotation advances between slots.
    let first_priority_ue = resp.allocs.iter().find(|a| a.priority == 0).unwrap().ue_id;
    let resp2 = p.call_sched(&req).unwrap();
    let second_priority_ue = resp2.allocs.iter().find(|a| a.priority == 0).unwrap().ue_id;
    assert_ne!(first_priority_ue, second_priority_ue);
}

#[test]
fn runaway_plugin_hits_deadline_or_fuel() {
    let src = r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            while (1) { }
            return 0i64;
        }
    "#;
    let policy = SandboxPolicy {
        fuel_per_call: Some(100_000),
        deadline: None,
        ..SandboxPolicy::default()
    };
    let mut p = Plugin::new(&compile(src), &Linker::<()>::new(), (), policy).unwrap();
    assert_eq!(p.call("run", &[]), Err(PluginError::Trap(Trap::OutOfFuel)));

    let policy = SandboxPolicy {
        fuel_per_call: None,
        deadline: Some(Duration::from_millis(3)),
        ..SandboxPolicy::default()
    };
    let mut p = Plugin::new(&compile(src), &Linker::<()>::new(), (), policy).unwrap();
    assert_eq!(
        p.call("run", &[]),
        Err(PluginError::Trap(Trap::DeadlineExceeded))
    );
}

#[test]
fn deadline_covers_the_whole_abi_call() {
    // One `call` is three guest entries (`wrn_alloc`, the entry point,
    // `wrn_reset`) under ONE wall-clock budget measured from the call's
    // start. Here `wrn_alloc` and the entry each stall in a host function
    // for 70 % of the deadline (how long comes from the host state), and
    // the entry then retires enough instructions for the engine to poll
    // the clock: 140 % of the budget is a `DeadlineExceeded`, even though
    // neither guest entry overran it alone.
    let wasm = waran_wasm::wat::assemble(
        r#"(module
          (import "env" "stall" (func $stall))
          (memory 1)
          (func (export "wrn_alloc") (param i32) (result i32)
            call $stall
            i32.const 1024)
          (func (export "run") (param i32 i32) (result i64)
            (local $i i32)
            call $stall
            loop $l
              local.get $i i32.const 1 i32.add local.tee $i
              i32.const 20000 i32.lt_u
              br_if $l
            end
            i64.const 0))"#,
    )
    .expect("assembles");
    let mut linker: Linker<Duration> = Linker::new();
    linker.func("env", "stall", &[], &[], |stall, _, _| {
        std::thread::sleep(*stall);
        Ok(None)
    });
    let deadline = Duration::from_millis(100);
    let policy = SandboxPolicy {
        fuel_per_call: None,
        deadline: Some(deadline),
        ..SandboxPolicy::default()
    };
    let mut p = Plugin::new(&wasm, &linker, Duration::from_millis(70), policy).unwrap();
    assert_eq!(
        p.call("run", b"x"),
        Err(PluginError::Trap(Trap::DeadlineExceeded))
    );
    assert!(p.last_call_duration().unwrap() >= deadline);
    assert_eq!(p.instance().stats().traps, 1);

    // The next call's budget starts at its own start, not at the last one's.
    p.instance_mut().data = Duration::ZERO;
    assert_eq!(p.call("run", b"x"), Ok(Vec::new()));

    // And it ends with the call: a direct invocation once that budget has
    // lapsed is outside any ABI call, so no deadline applies to it.
    std::thread::sleep(deadline);
    let args = [Value::I32(0), Value::I32(0)];
    assert_eq!(
        p.instance_mut().invoke("run", &args),
        Ok(Some(Value::I64(0)))
    );
}

#[test]
fn leaky_plugin_memory_is_capped() {
    // Allocate 64 KiB per call without freeing: the §5.D leak experiment.
    // Compiled without the ABI prelude (whose `wrn_reset` would recycle the
    // heap between calls) — this plugin leaks on purpose.
    let src = r#"
        global heap: i32 = 4096;
        fn leak_alloc(n: i32) -> i32 {
            var p: i32 = heap;
            heap = heap + n;
            while (memory_size() * 65536 < heap) {
                if (memory_grow(1) < 0) { trap(); }
            }
            return p;
        }
        export fn run(ptr: i32, len: i32) -> i64 {
            var p: i32 = leak_alloc(65536);
            store_u8(p, 1);
            return pack(0, 0);
        }
    "#;
    let bytes = waran_plugc::compile_with(
        src,
        &waran_plugc::Options::default().with_abi_prelude(false),
    )
    .expect("compiles");
    let policy = SandboxPolicy {
        max_memory_pages: 8, // 512 KiB hard cap
        ..SandboxPolicy::default()
    };
    let mut p = Plugin::new(&bytes, &Linker::<()>::new(), (), policy).unwrap();
    let mut failed = 0;
    for _ in 0..64 {
        if p.call("run", &[]).is_err() {
            failed += 1;
        }
    }
    // The cap holds: memory never exceeds 8 pages and later calls fault
    // instead of growing the host's footprint.
    assert!(p.memory_bytes() <= 8 * 65536);
    assert!(failed > 0, "allocations beyond the cap must fault");
}

#[test]
fn malicious_response_pointer_rejected() {
    // Plugin returns a pointer far outside its memory.
    let src = r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            return pack(0x7fffffff, 16);
        }
    "#;
    let mut p = plugin(src);
    let err = p.call("run", &[]).unwrap_err();
    assert!(matches!(err, PluginError::Abi(_)), "got {err:?}");
}

#[test]
fn oversized_response_rejected() {
    let src = r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            return pack(0, 0x7fffffff);
        }
    "#;
    let mut p = plugin(src);
    let err = p.call("run", &[]).unwrap_err();
    assert!(matches!(err, PluginError::Abi(_)));
}

#[test]
fn missing_entry_is_a_fault_not_a_panic() {
    let mut p = plugin("export fn other(a: i32, b: i32) -> i64 { return 0i64; }");
    assert!(matches!(
        p.call("run", &[]),
        Err(PluginError::Trap(Trap::HostError(_)))
    ));
}

#[test]
fn host_install_call_and_names() {
    let host: PluginHost<()> = PluginHost::new();
    host.install("rr", plugin(RR_PLUGIN));
    host.install(
        "echo",
        plugin(r#"export fn run(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }"#),
    );
    assert_eq!(host.names(), vec!["echo".to_string(), "rr".to_string()]);
    assert_eq!(host.call("echo", "run", b"x").unwrap(), b"x");
    assert!(matches!(
        host.call("nope", "run", b""),
        Err(PluginError::NoSuchPlugin(_))
    ));
}

#[test]
fn host_hot_swap_changes_behaviour() {
    let host: PluginHost<()> = PluginHost::new();
    host.install(
        "p",
        plugin(
            r#"export fn run(ptr: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(1);
            store_u8(out, 65);
            return pack(out, 1);
        }"#,
        ),
    );
    assert_eq!(host.call("p", "run", &[]).unwrap(), b"A");
    // Live swap: same name, new code, no teardown of the host.
    host.install(
        "p",
        plugin(
            r#"export fn run(ptr: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(1);
            store_u8(out, 66);
            return pack(out, 1);
        }"#,
        ),
    );
    assert_eq!(host.call("p", "run", &[]).unwrap(), b"B");
    assert_eq!(host.health("p").unwrap().swaps, 1);
    assert_eq!(host.health("p").unwrap().calls_ok, 2);
}

#[test]
fn host_quarantines_after_consecutive_faults() {
    let host: PluginHost<()> = PluginHost::new();
    host.install(
        "bad",
        plugin(r#"export fn run(ptr: i32, len: i32) -> i64 { trap(); return 0i64; }"#),
    );
    for _ in 0..3 {
        assert!(matches!(
            host.call("bad", "run", &[]),
            Err(PluginError::Trap(Trap::Unreachable))
        ));
    }
    assert_eq!(host.state("bad"), Some(SlotState::Quarantined));
    // Further calls are refused without running guest code.
    assert!(matches!(
        host.call("bad", "run", &[]),
        Err(PluginError::Quarantined { .. })
    ));
    assert_eq!(host.health("bad").unwrap().total_faults, 3);

    // A swap (the operator pushing fixed code) clears the quarantine.
    host.install(
        "bad",
        plugin(r#"export fn run(ptr: i32, len: i32) -> i64 { return pack(0, 0); }"#),
    );
    assert_eq!(host.state("bad"), Some(SlotState::Active));
    assert!(host.call("bad", "run", &[]).is_ok());
}

#[test]
fn success_resets_consecutive_faults() {
    let host: PluginHost<()> = PluginHost::new();
    // Traps only when the first input byte is non-zero.
    host.install(
        "flaky",
        plugin(
            r#"export fn run(ptr: i32, len: i32) -> i64 {
                if (len > 0 && load_u8(ptr) != 0) { trap(); }
                return pack(0, 0);
            }"#,
        ),
    );
    for _ in 0..10 {
        let _ = host.call("flaky", "run", &[1]); // fault
        let _ = host.call("flaky", "run", &[0]); // success resets
    }
    assert_eq!(host.state("flaky"), Some(SlotState::Active));
    assert_eq!(host.health("flaky").unwrap().total_faults, 10);
}

/// `with_plugin` with a closure that never calls the plugin: a
/// monitoring read. No plugin call, no success.
fn peek(host: &PluginHost<()>, name: &str) {
    host.with_plugin(name, |_| Ok(())).unwrap();
}

#[test]
fn monitoring_read_does_not_end_a_strike_streak() {
    let host: PluginHost<()> = PluginHost::new();
    let policy = SandboxPolicy {
        quarantine_after: 2,
        ..SandboxPolicy::default()
    };
    let wasm = compile(r#"export fn run(ptr: i32, len: i32) -> i64 { trap(); return 0i64; }"#);
    host.install(
        "bad",
        Plugin::new(&wasm, &Linker::new(), (), policy).unwrap(),
    );
    assert!(host.call("bad", "run", &[]).is_err());
    peek(&host, "bad");
    assert!(host.call("bad", "run", &[]).is_err());
    assert_eq!(host.state("bad"), Some(SlotState::Quarantined));
    assert_eq!(host.health("bad").unwrap().calls_ok, 0);
}

#[test]
fn module_that_was_only_read_is_not_retained_as_last_good() {
    const WORKS: &str = r#"export fn run(ptr: i32, len: i32) -> i64 { return pack(0, 0); }"#;
    let host: PluginHost<()> = PluginHost::new();
    host.install("p", plugin(WORKS));
    host.install("p", plugin(WORKS));
    peek(&host, "p");
    host.install("p", plugin(WORKS));
    assert_eq!(host.has_last_good("p"), Some(false));
    // One served call is what proves the outgoing module.
    host.call("p", "run", &[]).unwrap();
    host.install("p", plugin(WORKS));
    assert_eq!(host.has_last_good("p"), Some(true));
}

#[test]
fn host_records_exec_stats() {
    let host: PluginHost<()> = PluginHost::new();
    host.install("rr", plugin(RR_PLUGIN));
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..10).map(|i| ue(i, 20, 1e6)).collect(),
    };
    for _ in 0..100 {
        host.call_sched("rr", &req).unwrap();
    }
    let stats = host.stats("rr").unwrap();
    assert_eq!(stats.count(), 100);
    assert!(stats.p99_us() >= stats.p50_us());
    assert!(stats.p50_us() > 0.0);
}

#[test]
fn sched_response_semantic_check() {
    // Plugin answers with more allocation records than UEs + slack: a
    // semantic fault, caught by the typed decode.
    let src = r#"
        export fn schedule(req: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(8);
            store_u8(out, 0x52); store_u8(out + 1, 0x57);
            store_u8(out + 2, 1); store_u8(out + 3, 0);
            store_u8(out + 4, 255); store_u8(out + 5, 0); // claims 255 allocs
            store_u8(out + 6, 0); store_u8(out + 7, 0);
            return pack(out, 8);
        }
    "#;
    let mut p = plugin(src);
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 10,
        slice_id: 0,
        ues: vec![ue(1, 10, 1.0)],
    };
    assert!(matches!(p.call_sched(&req), Err(PluginError::Codec(_))));
}

#[test]
fn rust_side_reference_scheduler_matches_plugin() {
    // The RR plugin's allocation must equal the obvious native computation.
    let mut p = plugin(RR_PLUGIN);
    let req = SchedRequest {
        slot: 9,
        prbs_granted: 17,
        slice_id: 2,
        ues: (0..5).map(|i| ue(100 + i, 15, 1e6)).collect(),
    };
    let resp = p.call_sched(&req).unwrap();
    let expected: Vec<Allocation> = (0..5)
        .map(|i| Allocation {
            ue_id: 100 + i,
            prbs: if (i as usize) < 17 % 5 {
                17 / 5 + 1
            } else {
                17 / 5
            },
            priority: i as u8,
        })
        .collect();
    // First call: rotation starts at 0, so order is identity.
    assert_eq!(resp, SchedResponse { allocs: expected });
}
