//! The byte-buffer ABI's request arena is host-owned: every call rewinds
//! the guest's exported bump pointer `wrn_heap` to its declared base and
//! places the request there, whatever the guest did to the pointer, and
//! an entry is checked against the ABI signature before any guest code
//! runs.

use waran_host::plugin::{Plugin, PluginError, SandboxPolicy};
use waran_host::PluginHost;
use waran_wasm::instance::Linker;

const BASE: u32 = 4096;
const PAGE: usize = 65536;

fn plugin_with(src: &str, policy: SandboxPolicy) -> Plugin<()> {
    let wasm = waran_plugc::compile(src).expect("plugin compiles");
    Plugin::new(&wasm, &Linker::new(), (), policy).expect("instantiates")
}

fn plugin(src: &str) -> Plugin<()> {
    plugin_with(src, SandboxPolicy::default())
}

/// An echo entry point beside `heap`, a module field that declares (or
/// omits) `wrn_heap` — a module PlugC, whose prelude always declares it
/// well-formed, cannot produce.
fn echo_with(heap: &str) -> Plugin<()> {
    let wasm = waran_wat::assemble(&format!(
        r#"(module
  (memory (export "memory") 1 16)
  {heap}
  (func (export "run") (param $ptr i32) (param $len i32) (result i64)
    local.get $ptr i64.extend_i32_u i64.const 32 i64.shl
    local.get $len i64.extend_i32_u i64.or))"#
    ))
    .expect("assembles");
    Plugin::new(&wasm, &Linker::new(), (), SandboxPolicy::default()).expect("instantiates")
}

/// Echoes its request after recording where it was placed (scratch word
/// 0) and then clobbering `wrn_heap` with the request's first word.
const CLOBBER: &str = r#"
export fn run(ptr: i32, len: i32) -> i64 {
    store_i32(0, ptr);
    if (len >= 4) { wrn_heap = load_i32(ptr); }
    return pack(ptr, len);
}
"#;

fn placed_at(p: &Plugin<()>) -> u32 {
    let word = p.instance().memory().read_bytes(0, 4).unwrap();
    u32::from_le_bytes(word.try_into().unwrap())
}

fn assert_abi_naming(result: Result<Vec<u8>, PluginError>, name: &str) {
    match result {
        Err(PluginError::Abi(msg)) => assert!(msg.contains(name), "{msg}"),
        other => panic!("expected an ABI fault naming {name}, got {other:?}"),
    }
}

#[test]
fn a_clobbered_heap_pointer_is_rewound_before_the_next_request() {
    let mut p = plugin(CLOBBER);
    let one_past_end = p.memory_bytes() as i32 + 1;
    for hostile in [-8, one_past_end, BASE as i32 + 3, i32::MAX] {
        let req = hostile.to_le_bytes();
        assert_eq!(p.call("run", &req).unwrap(), req);
        assert_eq!(
            p.instance().get_global("wrn_heap").unwrap().as_i32(),
            hostile
        );
        // The next call still lands at the declared base and succeeds
        // (three bytes: too short to clobber the pointer again).
        let next = b"abc";
        assert_eq!(p.call("run", next).unwrap(), next);
        assert_eq!(placed_at(&p), BASE);
        assert_eq!(
            p.instance().get_global("wrn_heap").unwrap().as_i32(),
            BASE as i32 + next.len() as i32
        );
    }
}

#[test]
fn a_malformed_heap_export_faults_every_call_before_a_byte_is_written() {
    for decl in [
        r#"(global $h i32 (i32.const 4096)) (export "wrn_heap" (global $h))"#,
        r#"(global $h (mut i64) (i64.const 4096)) (export "wrn_heap" (global $h))"#,
    ] {
        let mut p = echo_with(decl);
        for input in [&b"request"[..], &[]] {
            assert_abi_naming(p.call("run", input), "wrn_heap");
        }
        assert_eq!(p.instance().stats().invokes, 0, "{decl}");
        assert_eq!(
            p.instance().memory().dirty_max(),
            0,
            "{decl}: no byte written"
        );
    }

    // An imported `wrn_heap` never gets as far as a call: the engine
    // supports function imports only, so the module is refused at load.
    let mut wasm = b"\0asm\x01\0\0\0".to_vec();
    let import = [b"\x01\x03env\x08wrn_heap".as_slice(), b"\x03\x7f\x01"].concat();
    wasm.extend([2, import.len() as u8]);
    wasm.extend(import);
    let export = b"\x01\x08wrn_heap\x03\x00";
    wasm.extend([7, export.len() as u8]);
    wasm.extend(export);
    assert!(matches!(
        Plugin::new(&wasm, &Linker::<()>::new(), (), SandboxPolicy::default()),
        Err(PluginError::Load(_))
    ));
}

#[test]
fn without_a_heap_export_only_empty_requests_are_accepted() {
    let mut p = echo_with("");
    assert_eq!(p.call("run", &[]).unwrap(), b"");
    assert_abi_naming(p.call("run", b"x"), "wrn_heap");
    assert_eq!(p.instance().stats().invokes, 1);
}

#[test]
fn a_request_past_the_memory_cap_is_a_strike_and_the_slot_stays_usable() {
    let policy = SandboxPolicy {
        max_memory_pages: 2,
        ..SandboxPolicy::default()
    };
    let host: PluginHost<()> = PluginHost::new();
    host.install("p", plugin_with(CLOBBER, policy));
    let fits = vec![7u8; 2 * PAGE - BASE as usize];
    let too_big = vec![7u8; fits.len() + 1];

    assert_abi_naming(host.call("p", "run", &too_big), "wrn_heap");
    let health = host.health("p").unwrap();
    assert_eq!((health.strikes.total(), health.strikes.other), (1, 1));
    assert_eq!(host.memory_bytes("p"), Some(PAGE), "nothing grew");

    // A request that exactly fills the last page fits.
    assert_eq!(host.call("p", "run", &fits).unwrap(), fits);
    assert_eq!(host.memory_bytes("p"), Some(2 * PAGE));
    assert_eq!(host.call("p", "run", b"small").unwrap(), b"small");
    let health = host.health("p").unwrap();
    assert_eq!((health.consecutive_faults, health.calls_ok), (0, 2));
}

#[test]
fn alternating_entries_resolve_without_a_cache() {
    let mut p = plugin(
        r#"
        export fn upper(ptr: i32, len: i32) -> i64 {
            var i: i32 = 0;
            while (i < len) { store_u8(ptr + i, load_u8(ptr + i) - 32); i = i + 1; }
            return pack(ptr, len);
        }
        export fn first(ptr: i32, len: i32) -> i64 { return pack(ptr, 1); }
        export fn narrow(ptr: i32) -> i64 { return 0i64; }
        "#,
    );
    for round in 0..4 {
        assert_eq!(p.call("upper", b"abc").unwrap(), b"ABC", "round {round}");
        assert_eq!(p.call("first", b"xyz").unwrap(), b"x", "round {round}");
    }
    let invokes = p.instance().stats().invokes;
    assert_eq!(invokes, 8);
    for entry in ["narrow", "missing"] {
        assert_abi_naming(p.call(entry, b"abc"), &format!("`{entry}`"));
    }
    assert_eq!(p.instance().stats().invokes, invokes, "no guest code ran");
    assert_eq!(p.instance().stats().traps, 0);
}
