//! One ABI call is one guest entry, and the host's per-call rewind of
//! `wrn_heap` recycles the guest heap: for every stock scheduler, the
//! benchmark's crossing-probe null scheduler and a byte-ABI `call` plugin,
//! `invokes` rises by exactly one per call and linear memory after a
//! thousand calls — half of them with an empty request — is what it was
//! after the first. The §5.D leaky plugin, which leaks through its own
//! pointer, grows by exactly the 4 KiB per call Fig. 5c's native model
//! charges.

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins;
use waran_host::{Plugin, SandboxPolicy};
use waran_wasm::instance::Linker;

/// The null scheduler `slotbench` measures the interface crossing with.
const NULL_SCHED: &str = include_str!("../../slotbench/plugins/null_sched.plugc");

fn plugin(wasm: &[u8], policy: SandboxPolicy) -> Plugin<()> {
    Plugin::new(wasm, &Linker::<()>::new(), (), policy).expect("plugin instantiates")
}

fn request(slot: u64, n_ues: u32) -> SchedRequest {
    SchedRequest {
        slot,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..n_ues)
            .map(|i| UeInfo {
                ue_id: 100 + i,
                cqi: 9,
                mcs: (8 + i % 20) as u8,
                flags: 0,
                buffer_bytes: 20_000 + 1000 * i,
                avg_tput_bps: 1e6 + 1e5 * i as f64,
                prb_capacity_bits: 300.0 + 10.0 * i as f64,
            })
            .collect(),
    }
}

/// Run `call` 1000 times, interleaved with 1000 empty-input `call`s of
/// `entry`, checking one guest entry per ABI call and a flat footprint.
fn assert_one_entry_and_flat_heap(
    name: &str,
    p: &mut Plugin<()>,
    entry: &str,
    mut call: impl FnMut(&mut Plugin<()>, u64),
) {
    call(p, 0);
    assert_eq!(p.instance().stats().invokes, 1, "{name}: first call");
    let first = p.memory_bytes();
    for i in 1..1000u64 {
        call(p, i);
        p.call(entry, &[]).expect("empty-input call succeeds");
        assert_eq!(p.instance().stats().invokes, 2 * i + 1, "{name}: call {i}");
    }
    p.call(entry, &[]).expect("empty-input call succeeds");
    assert_eq!(p.instance().stats().invokes, 2000, "{name}");
    assert_eq!(p.instance().stats().traps, 0, "{name}");
    assert_eq!(p.memory_bytes(), first, "{name}: the heap is recycled");
}

#[test]
fn every_abi_call_is_one_guest_entry_and_recycles_the_heap() {
    let null = waran_plugc::compile(NULL_SCHED).expect("null scheduler compiles");
    let schedulers: [(&str, &[u8]); 4] = [
        ("RR", plugins::rr_wasm()),
        ("PF", plugins::pf_wasm()),
        ("MT", plugins::mt_wasm()),
        ("null", &null),
    ];
    for (name, wasm) in schedulers {
        let mut p = plugin(wasm, SandboxPolicy::default());
        assert_one_entry_and_flat_heap(name, &mut p, "schedule", |p, slot| {
            let n_ues = 1 + (slot % 40) as u32;
            let resp = p.call_sched(&request(slot, n_ues)).expect("schedules");
            assert!(resp.allocs.len() <= n_ues as usize);
        });
    }

    // A byte-ABI plugin that allocates its output on the guest heap.
    let reverse = waran_plugc::compile(
        r#"
        export fn run(ptr: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(len);
            var i: i32 = 0;
            while (i < len) { store_u8(out + i, load_u8(ptr + len - 1 - i)); i = i + 1; }
            return pack(out, len);
        }
        "#,
    )
    .expect("compiles");
    let mut p = plugin(&reverse, SandboxPolicy::default());
    assert_one_entry_and_flat_heap("byte ABI", &mut p, "run", |p, i| {
        let input: Vec<u8> = (0..(i % 512) as u8).collect();
        let mut want = input.clone();
        want.reverse();
        assert_eq!(p.call("run", &input).unwrap(), want);
    });
}

#[test]
fn the_leaky_plugin_leaks_exactly_one_4k_block_per_call() {
    const PAGE: usize = 65536;
    const LEAK: usize = 4096;
    let policy = SandboxPolicy {
        max_memory_pages: 128,
        ..SandboxPolicy::default()
    };
    let mut p = plugin(&plugins::compile_faulty(plugins::faulty::LEAKY), policy);
    let base = p.memory_bytes();
    // PlugC's default module maximum (16 pages) is the tighter cap.
    let cap = 16 * PAGE;
    let req = request(0, 2);
    for n in 1..=400usize {
        let result = p.call_sched(&req);
        let want = base + (n * LEAK).div_ceil(PAGE) * PAGE;
        if want <= cap {
            result.expect("leaky plugin still schedules below the cap");
            assert_eq!(p.memory_bytes(), want, "after {n} calls");
        } else {
            assert!(result.is_err(), "call {n} must fault past the cap");
            assert_eq!(p.memory_bytes(), cap);
        }
    }
}
