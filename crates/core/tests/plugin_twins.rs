//! The stock Wasm schedulers against their native twins, request by
//! request. The `mvno_cell` digest oracle checks the same equality on one
//! traffic trace; here it is a property over arbitrary requests, run for
//! 50 consecutive slots on one instance so RR's rotation and spill chain
//! carry state across calls, plus the large-cell case the served bitmap
//! used to corrupt.

use proptest::prelude::*;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins;
use waran_host::{Plugin, SandboxPolicy};
use waran_ransim::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_wasm::instance::Linker;

/// Fuel on, no wall-clock deadline: a debug-build interpreter on a busy
/// host must not turn a slow call into a fault.
fn plugin(wasm: &[u8]) -> Plugin<()> {
    let policy = SandboxPolicy {
        deadline: None,
        ..SandboxPolicy::default()
    };
    Plugin::new(wasm, &Linker::<()>::new(), (), policy).expect("stock plugin instantiates")
}

/// Feed the same request sequence to one Wasm instance and one native
/// scheduler; every slot must produce identical allocations.
fn assert_twins(wasm: &[u8], mut native: impl SliceScheduler, requests: &[SchedRequest]) {
    let mut guest = plugin(wasm);
    for req in requests {
        let got = guest.call_sched(req).expect("stock plugin schedules");
        let want = native.schedule(req).expect("native scheduler cannot fault");
        assert_eq!(
            got,
            want,
            "{} diverged at slot {} ({} UEs, {} PRBs)",
            native.name(),
            req.slot,
            req.ues.len(),
            req.prbs_granted
        );
    }
}

/// Buffers with zeros mixed in (half the UEs idle on average, the rest
/// from a few bytes — so quotas spill — to far more than a slot drains);
/// capacities including 0.0.
fn arb_ue() -> impl Strategy<Value = UeInfo> {
    (
        any::<u32>(),
        prop_oneof![Just(0u32), Just(0u32), 1u32..400, 1u32..200_000],
        prop_oneof![Just(0.0f64), 1.0f64..2000.0],
        0.0f64..1e8,
    )
        .prop_map(|(ue_id, buffer_bytes, cap, avg)| UeInfo {
            ue_id,
            cqi: 10,
            mcs: 16,
            flags: 0,
            buffer_bytes,
            avg_tput_bps: avg,
            prb_capacity_bits: cap,
        })
}

/// 50 consecutive slots of unrelated requests.
fn arb_run() -> impl Strategy<Value = Vec<SchedRequest>> {
    proptest::collection::vec((0u32..=273, proptest::collection::vec(arb_ue(), 0..64)), 50)
        .prop_map(|slots| {
            slots
                .into_iter()
                .enumerate()
                .map(|(slot, (prbs_granted, ues))| SchedRequest {
                    slot: slot as u64,
                    prbs_granted,
                    slice_id: 0,
                    ues,
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rr_wasm_equals_native_round_robin(run in arb_run()) {
        assert_twins(plugins::rr_wasm(), RoundRobin::new(), &run);
    }

    #[test]
    fn mt_wasm_equals_native_max_throughput(run in arb_run()) {
        assert_twins(plugins::mt_wasm(), MaxThroughput::new(), &run);
    }

    #[test]
    fn pf_wasm_equals_native_proportional_fair(run in arb_run()) {
        assert_twins(plugins::pf_wasm(), ProportionalFair::new(), &run);
    }
}

/// Above 2048 UEs the greedy plugins' served flags used to sit on top of
/// the request they were reading (fixed scratch address below a heap that
/// starts at 4096): the zeroing loop wiped the header and the first
/// records, which only shows when those records hold the best candidates.
#[test]
fn greedy_plugins_match_native_at_3000_ues_best_first() {
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 273,
        slice_id: 0,
        ues: (0..3000u32)
            .map(|i| UeInfo {
                ue_id: 1000 + i,
                cqi: 10,
                mcs: 16,
                flags: 0,
                // ~12 PRBs each at the top capacities: a dozen low-index
                // UEs share the grant.
                buffer_bytes: 1500,
                avg_tput_bps: 1e6 + 1e4 * i as f64,
                prb_capacity_bits: 1000.0 - 0.25 * i as f64,
            })
            .collect(),
    };
    let twice = [req.clone(), SchedRequest { slot: 1, ..req }];
    assert_twins(plugins::mt_wasm(), MaxThroughput::new(), &twice);
    assert_twins(plugins::pf_wasm(), ProportionalFair::new(), &twice);
}
