//! The stock Wasm schedulers against their native twins, request by
//! request. The `mvno_cell` digest oracle checks the same equality on one
//! traffic trace; here it is a property over arbitrary requests, run for
//! 50 consecutive slots on one instance so RR's rotation and spill chain
//! carry state across calls, plus the large-cell case the served bitmap
//! used to corrupt and the 273-PRB case whose ranks pass 255.

use proptest::prelude::*;

use waran_abi::sched::{SchedRequest, SchedResponse, UeInfo};
use waran_core::plugins;
use waran_host::{Plugin, SandboxPolicy};
use waran_ransim::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_wasm::instance::Linker;

/// The default policy: its 50 M fuel covers the 3000-UE and 273-PRB ×
/// 500-UE cases below, which a `realtime` slot's share would not.
fn plugin(wasm: &[u8]) -> Plugin<()> {
    Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
        .expect("stock plugin instantiates")
}

/// Feed the same request sequence to one Wasm instance and one native
/// scheduler; every slot must produce identical allocations. Returns the
/// last slot's response.
fn assert_twins(
    wasm: &[u8],
    mut native: impl SliceScheduler,
    requests: &[SchedRequest],
) -> SchedResponse {
    let mut guest = plugin(wasm);
    let mut last = SchedResponse::default();
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
        last = got;
    }
    last
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

/// The priority byte saturates at 255 in every scheduler: 273 PRBs over
/// 500 UEs that each need exactly one PRB make 273 records, ranked by
/// position. A wrapped rank would turn the 257th record's priority into
/// 0 and sort it first in `Gnb::apply_response`. RR's rotation decides
/// which UEs land past rank 255, so each run first advances it to a
/// different head with one-UE slots (the greedy policies are stateless).
#[test]
fn priorities_saturate_past_256_records_at_273_prbs() {
    let wide = |slot: u64| SchedRequest {
        slot,
        prbs_granted: 273,
        slice_id: 0,
        ues: (0..500u32)
            .map(|i| {
                let mix = i as u64 * 31 + slot * 17;
                UeInfo {
                    ue_id: 1000 + i,
                    cqi: 10,
                    mcs: 16,
                    flags: 0,
                    // At most 400 bits against at least 500 bits per PRB.
                    buffer_bytes: 1 + (mix % 50) as u32,
                    avg_tput_bps: 1e6 + 1e3 * ((mix * 7) % 500) as f64,
                    prb_capacity_bits: 500.0 + (mix % 499) as f64,
                }
            })
            .collect(),
    };
    let single = |slot: u64| SchedRequest {
        slot,
        prbs_granted: 1,
        slice_id: 0,
        ues: vec![UeInfo {
            ue_id: 1,
            cqi: 10,
            mcs: 16,
            flags: 0,
            buffer_bytes: 1,
            avg_tput_bps: 1e6,
            prb_capacity_bits: 500.0,
        }],
    };
    for start in [0u64, 137, 499] {
        let run: Vec<SchedRequest> = (0..start)
            .map(single)
            .chain([wide(start), wide(start + 1)])
            .collect();
        let last = [
            assert_twins(plugins::rr_wasm(), RoundRobin::new(), &run),
            assert_twins(plugins::mt_wasm(), MaxThroughput::new(), &run),
            assert_twins(plugins::pf_wasm(), ProportionalFair::new(), &run),
        ];
        for (policy, resp) in ["RR", "MT", "PF"].into_iter().zip(last) {
            assert_eq!(resp.allocs.len(), 273, "{policy} from slot {start}");
            for (rank, a) in resp.allocs.iter().enumerate() {
                assert_eq!(
                    a.priority as usize,
                    rank.min(255),
                    "{policy} from slot {start}, record {rank}"
                );
            }
        }
    }
}
