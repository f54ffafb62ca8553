//! Integration tests: PlugC-compiled plugins running under the host's
//! sandbox policies — the mechanics behind the paper's §5.B–§5.E results.

use std::time::Duration;

use waran_abi::sched::{
    plugc_prelude, Allocation, SchedRequest, SchedResponse, UeInfo, MAX_RECORDS,
};
use waran_host::plugin::{Plugin, PluginError, SandboxPolicy};
use waran_host::{PluginHost, SlotState};
use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instance::Linker;
use waran_wasm::module::ConstExpr;
use waran_wasm::types::{BlockType, Mutability, ValType};
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

/// `body` after the scheduler ABI's PlugC prelude.
fn with_prelude(body: &str) -> String {
    format!("{}{body}", plugc_prelude())
}

/// A round-robin intra-slice scheduler in PlugC on the ABI prelude.
const RR_PLUGIN: &str = r#"
global next: i32 = 0;

export fn schedule(req: i32, len: i32) -> i64 {
    var n: i32 = req_n(req);
    var prbs: i32 = req_prbs(req);
    var out: i32 = wrn_alloc(8 + n * 8);
    write_header(out, n);
    if (n == 0) { return pack(out, 8); }
    var share: i32 = prbs / n;
    var extra: i32 = prbs - share * n;
    var i: i32 = 0;
    while (i < n) {
        var idx: i32 = (next + i) % n;
        var give: i32 = share;
        if (i < extra) { give = give + 1; }
        // Priority by position; the UE id is the record's first word.
        write_alloc(out, i, load_i32(rec(req, idx)), give, i);
        i = i + 1;
    }
    next = (next + 1) % n;
    return pack(out, 8 + n * 8);
}
"#;

/// Echoes its input back.
const ECHO: &str = r#"export fn run(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }"#;

#[test]
fn byte_abi_echo() {
    let mut p = plugin(ECHO);
    assert_eq!(p.call("run", b"abc123").unwrap(), b"abc123");
    assert_eq!(p.call("run", &[]).unwrap(), b"");
    // One call in 16 is timed, and not before the 16th.
    assert_eq!((p.call_seq(), p.last_call_duration()), (2, None));
}

#[test]
fn one_call_in_sixteen_is_timed_and_the_first_never() {
    let host: PluginHost<()> = PluginHost::new();
    host.install("echo", plugin(ECHO));
    let timed = |host: &PluginHost<()>| host.with_plugin("echo", |p| Ok(p.last_call_duration()));
    host.call("echo", "run", b"x").unwrap();
    assert_eq!(timed(&host), Ok(None), "the first call is never a sample");
    for _ in 1..15 {
        host.call("echo", "run", b"x").unwrap();
        assert_eq!(timed(&host), Ok(None));
    }
    let stats = host.stats("echo").unwrap();
    assert_eq!((stats.count(), stats.samples()), (15, 0));
    assert_eq!(stats.p50_us(), 0.0);

    host.call("echo", "run", b"x").unwrap();
    assert!(timed(&host).unwrap().is_some(), "the 16th call is timed");
    let stats = host.stats("echo").unwrap();
    assert_eq!((stats.count(), stats.samples()), (16, 1));
    assert!(stats.p50_us() > 0.0);

    host.call("echo", "run", b"x").unwrap();
    assert_eq!(timed(&host), Ok(None), "a timed call leaves no stale time");
    // One sample in each block of 16 calls, up to call 64.
    for _ in 18..=64 {
        host.call("echo", "run", b"x").unwrap();
    }
    let stats = host.stats("echo").unwrap();
    assert_eq!((stats.count(), stats.samples()), (64, 4));
}

#[test]
fn every_call_is_counted_faults_included() {
    // Alternate a served call (empty input) and a trap (a byte of input
    // sends the load out of bounds): the count is exact over both arms,
    // and faulting calls are sampled by the same rule as the rest.
    const TRAP_ON_INPUT: &str = r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            if (len > 0) { return pack(ptr, load_u8(ptr + 100000000 * len)); }
            return pack(ptr, 0);
        }
    "#;
    let policy = SandboxPolicy {
        quarantine_after: 0,
        ..SandboxPolicy::default()
    };
    let host: PluginHost<()> = PluginHost::new();
    host.install(
        "p",
        Plugin::new(&compile(TRAP_ON_INPUT), &Linker::new(), (), policy).unwrap(),
    );
    for call in 1..=40 {
        let input: &[u8] = if call % 2 == 0 { b"x" } else { &[] };
        assert_eq!(host.call("p", "run", input).is_ok(), input.is_empty());
    }
    let stats = host.stats("p").unwrap();
    let health = host.health("p").unwrap();
    assert_eq!(stats.count(), 40);
    assert_eq!((health.calls_ok, health.strikes.trap), (20, 20));
    // One sample per block of 16 calls, traps included: calls 16 (a
    // trap) and 23 (served).
    assert_eq!(stats.samples(), 2);
}

#[test]
fn a_swapped_in_plugin_is_not_timed_on_its_first_call() {
    // Each new plugin numbers its own calls: a slot whose plugins serve
    // ten calls each is counted in full and never timed.
    let host: PluginHost<()> = PluginHost::new();
    for _ in 0..5 {
        host.install("echo", plugin(ECHO));
        for _ in 0..10 {
            host.call("echo", "run", b"x").unwrap();
        }
    }
    let stats = host.stats("echo").unwrap();
    assert_eq!((stats.count(), stats.samples()), (50, 0));
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
    let mut p = plugin(&with_prelude(RR_PLUGIN));
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
fn runaway_plugin_runs_out_of_fuel() {
    let src = r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            while (1) { }
            return 0i64;
        }
    "#;
    let policy = SandboxPolicy {
        fuel_per_call: 100_000,
        ..SandboxPolicy::default()
    };
    let mut p = Plugin::new(&compile(src), &Linker::<()>::new(), (), policy).unwrap();
    assert_eq!(p.call("run", &[]), Err(PluginError::Trap(Trap::OutOfFuel)));
}

/// `run` stalls in a host function for as long as the host state says,
/// then — when the request's first byte is non-zero — runs a counted loop
/// of some ten thousand instructions.
const STALL_THEN_RUN: &str = r#"(module
  (import "env" "stall" (func $stall))
  (memory 1)
  (global $heap (mut i32) (i32.const 1024))
  (export "wrn_heap" (global $heap))
  (func (export "run") (param $ptr i32) (param $len i32) (result i64)
    (local $i i32)
    call $stall
    local.get $ptr i32.load8_u
    if
      loop $l
        local.get $i i32.const 1 i32.add local.tee $i
        i32.const 1500 i32.lt_u
        br_if $l
      end
    end
    i64.const 0))"#;

fn stall_then_run(stall: Duration, policy: SandboxPolicy) -> Plugin<Duration> {
    let wasm = waran_wat::assemble(STALL_THEN_RUN).expect("assembles");
    let mut linker: Linker<Duration> = Linker::new();
    linker.func("env", "stall", &[], &[], |stall, _, _| {
        std::thread::sleep(*stall);
        Ok(None)
    });
    Plugin::new(&wasm, &linker, stall, policy).unwrap()
}

#[test]
fn a_host_stall_past_the_watchdog_is_counted_not_faulted() {
    // `realtime` calls whose host function stalls 3 ms — three times their
    // one-slot watchdog — and then run guest code return their results:
    // wall time takes no strike, it only counts an overrun. Of 16 calls
    // one is timed, so the watchdog sees one.
    let host: PluginHost<Duration> = PluginHost::new();
    host.install(
        "p",
        stall_then_run(Duration::from_millis(3), SandboxPolicy::realtime()),
    );
    for _ in 0..16 {
        assert_eq!(host.call("p", "run", &[1]), Ok(Vec::new()));
    }
    let health = host.health("p").unwrap();
    assert_eq!(health.overruns, 1);
    assert_eq!(health.strikes.total(), 0);
    assert_eq!(health.calls_ok, 16);
}

/// A counted loop of 4 MiB `memory.fill`s over the whole 64-page memory.
const FILL_LOOP: &str = r#"(module
  (memory 64 64)
  (func (export "run") (param $ptr i32) (param $len i32) (result i64)
    (local $i i32)
    block $exit
      loop $top
        local.get $i i32.const 1000 i32.ge_s br_if $exit
        i32.const 0 i32.const 165 i32.const 4194304 memory.fill
        local.get $i i32.const 1 i32.add local.set $i
        br $top
      end
    end
    i64.const 0))"#;

#[test]
fn bulk_fills_pay_per_byte_and_run_out_of_fuel() {
    // Each 4 MiB fill pays 262 144 fuel for its bytes, so a `realtime`
    // call (one slot, 333 333 fuel) gets through one and runs out in the
    // second, however cheap a fill is per instruction.
    let wasm = waran_wat::assemble(FILL_LOOP).expect("assembles");
    let policy = SandboxPolicy::realtime();
    let mut p = Plugin::new(&wasm, &Linker::<()>::new(), (), policy).unwrap();
    assert_eq!(p.call("run", &[]), Err(PluginError::Trap(Trap::OutOfFuel)));
    let measured = p.instance().fuel_consumed().unwrap();
    assert_eq!(measured, policy.fuel_per_call);

    let module = p.instance().module();
    let run = module.exported_func("run").unwrap() - module.num_imported_funcs();
    let bound = module.analysis().unwrap().func(run).fuel;
    let bound = bound.finite().expect("a counted loop has a finite bound");
    assert!(
        bound >= measured,
        "static bound {bound} < measured {measured}"
    );
}

#[test]
fn a_hosted_call_always_reports_the_fuel_it_consumed() {
    // Every call arms the policy's budget, so `fuel_consumed` is `Some`
    // after the first one: the per-call reading a trace takes.
    let mut p = plugin(&with_prelude(RR_PLUGIN));
    assert_eq!(p.instance().fuel_consumed(), None);
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: vec![ue(1, 20, 1e6); 4],
    };
    p.call_sched(&req).unwrap();
    let consumed = p.instance().fuel_consumed().expect("metered");
    assert!(consumed > 0);
    assert_eq!(
        p.instance().fuel_remaining(),
        SandboxPolicy::default().fuel_per_call - consumed
    );
}

#[test]
fn leaky_plugin_memory_is_capped() {
    // Allocate 64 KiB per call without freeing: the §5.D leak experiment.
    // The host rewinds the prelude's `wrn_heap` before every call, so the
    // plugin leaks through its own pointer, `heap`, on purpose.
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
    let bytes = waran_plugc::compile(src).expect("compiles");
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
    match p.call("run", &[]) {
        Err(PluginError::Abi(msg)) => assert!(msg.contains("`run`"), "{msg}"),
        other => panic!("expected an ABI fault naming `run`, got {other:?}"),
    }
    assert_eq!(p.instance().stats().invokes, 0);
}

#[test]
fn host_install_call_and_names() {
    let host: PluginHost<()> = PluginHost::new();
    host.install("rr", plugin(&with_prelude(RR_PLUGIN)));
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
    assert_eq!(host.health("bad").unwrap().strikes.total(), 3);

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
    assert_eq!(host.health("flaky").unwrap().strikes.total(), 10);
}

#[test]
fn swaps_count_installs_and_rollbacks_and_the_event_names_its_swap() {
    const GOOD: &str = r#"export fn run(ptr: i32, len: i32) -> i64 {
        var out: i32 = wrn_alloc(1);
        store_u8(out, 71);
        return pack(out, 1);
    }"#;
    const PUSHED: &str = r#"export fn run(ptr: i32, len: i32) -> i64 {
        var out: i32 = wrn_alloc(1);
        store_u8(out, 80);
        return pack(out, 1);
    }"#;
    let host: PluginHost<()> = PluginHost::new();
    let swaps = |host: &PluginHost<()>| host.health("s").unwrap().swaps;
    host.install("s", plugin(GOOD));
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"G");
    host.install(
        "s",
        plugin(r#"export fn run(ptr: i32, len: i32) -> i64 { trap(); return 0i64; }"#),
    );
    assert_eq!(swaps(&host), 1);
    for _ in 0..SandboxPolicy::default().quarantine_after {
        assert!(host.call("s", "run", &[]).is_err());
    }
    assert_eq!(host.health("s").unwrap().rollbacks, 1);
    assert_eq!(swaps(&host), 2);
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"G");
    host.install("s", plugin(PUSHED));
    assert_eq!(swaps(&host), 3);
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"P");
    let log = host.rollback_log("s").unwrap();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].epoch, 2);
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
    host.install("rr", plugin(&with_prelude(RR_PLUGIN)));
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
            write_header(out, 255); // claims 255 allocs
            return pack(out, 8);
        }
    "#;
    let mut p = plugin(&with_prelude(src));
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
    let mut p = plugin(&with_prelude(RR_PLUGIN));
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

#[test]
fn a_request_past_the_u16_count_is_refused_before_guest_code_runs() {
    // 65 536 UEs used to encode a count of 0 followed by every record: the
    // plugin scheduled nobody and the call returned Ok with no allocations.
    // The count is checked before the request is placed, so the refusal
    // names it even though the 2 MiB of records would not fit in the
    // module's 16 pages either.
    let wasm = waran_plugc::compile(&with_prelude(RR_PLUGIN)).expect("compiles");
    let mut p = Plugin::new(&wasm, &Linker::new(), (), SandboxPolicy::default()).unwrap();
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: vec![ue(1, 20, 1e6); MAX_RECORDS + 1],
    };
    match p.call_sched(&req) {
        Err(PluginError::Abi(msg)) => assert!(msg.contains("65536 UEs"), "{msg}"),
        other => panic!("expected an ABI fault, got {other:?}"),
    }
    assert_eq!(p.instance().stats().invokes, 0, "no guest code ran");
}

/// An ABI entry `run` that recurses as many frames below itself as the
/// request's first byte says, through a function holding 49 000 `i64`
/// locals: 392 KB of registers per frame for a handful of instructions.
fn wide_recursion() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1));
    b.export_memory("memory");
    let heap = b.global(ValType::I32, Mutability::Var, ConstExpr::I32(1024));
    b.export_global("wrn_heap", heap);
    let sig = b.func_type(&[ValType::I32], &[]);
    let rec = b.begin_func(sig);
    for _ in 0..49_000 {
        b.local(ValType::I64);
    }
    b.code()
        .local_get(0)
        .if_(BlockType::Empty)
        .local_get(0)
        .i32_const(1)
        .i32_sub()
        .call(rec)
        .end();
    b.end_func().unwrap();
    let sig = b.func_type(&[ValType::I32, ValType::I32], &[ValType::I64]);
    let run = b.begin_func(sig);
    b.code().local_get(0).i32_load8_u(0).call(rec).i64_const(0);
    b.end_func().unwrap();
    b.export_func("run", run);
    b.finish_bytes().unwrap()
}

#[test]
fn a_recursion_past_the_register_arena_is_struck_and_the_slot_serves_on() {
    // Under `realtime`, 21 frames fill most of the 2^20-cell arena on a
    // tenth of the slot's fuel; the 22nd frame does not fit.
    let host: PluginHost<()> = PluginHost::new();
    let plugin = Plugin::new(
        &wide_recursion(),
        &Linker::new(),
        (),
        SandboxPolicy::realtime(),
    )
    .expect("a recursive module has no finite arena bound to refuse");
    host.install("wide", plugin);
    assert_eq!(host.call("wide", "run", &[20]), Ok(Vec::new()));
    assert_eq!(
        host.call("wide", "run", &[21]),
        Err(PluginError::Trap(Trap::StackOverflow))
    );
    let health = host.health("wide").unwrap();
    assert_eq!(health.strikes.trap, 1);
    // The same slot's next shallow call runs on the same instance.
    assert_eq!(host.call("wide", "run", &[1]), Ok(Vec::new()));
    assert_eq!(host.state("wide"), Some(SlotState::Active));
}
