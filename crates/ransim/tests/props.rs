//! Property tests for the RAN substrate: conservation laws and scheduler
//! invariants that must hold for arbitrary workloads.

use proptest::prelude::*;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_ransim::channel::StaticChannel;
use waran_ransim::gnb::{Gnb, GnbConfig, SliceConfig};
use waran_ransim::phy::{bits_per_prb, cqi_to_mcs, peak_rate_bps, Carrier};
use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_ransim::slicing::{allocate, SliceDemand};
use waran_ransim::traffic::{Cbr, FullBuffer};

fn arb_ue() -> impl Strategy<Value = UeInfo> {
    (
        any::<u32>(),
        1u8..=15,
        any::<u32>(),
        0.0f64..1e8,
        1.0f64..1000.0,
    )
        .prop_map(|(ue_id, cqi, buffer, avg, cap)| UeInfo {
            ue_id,
            cqi,
            mcs: cqi_to_mcs(cqi),
            flags: 0,
            buffer_bytes: buffer,
            avg_tput_bps: avg,
            prb_capacity_bits: cap,
        })
}

fn arb_demand() -> impl Strategy<Value = SliceDemand> {
    (
        0u32..8,
        proptest::option::of(1e5f64..1e8),
        0.0f64..1e9,
        1.0f64..1000.0,
        0.0f64..1e7,
    )
        .prop_map(
            |(slice_id, target_bps, demand_bits, mean_prb_bits, tokens_bits)| SliceDemand {
                slice_id,
                target_bps,
                demand_bits,
                mean_prb_bits,
                tokens_bits,
            },
        )
}

proptest! {
    #[test]
    fn intra_schedulers_never_exceed_grant(
        prbs in 0u32..200,
        ues in proptest::collection::vec(arb_ue(), 0..32),
    ) {
        let req = SchedRequest { slot: 0, prbs_granted: prbs, slice_id: 0, ues };
        let mut scheds: Vec<Box<dyn SliceScheduler>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(ProportionalFair::new()),
            Box::new(MaxThroughput::new()),
        ];
        for sched in &mut scheds {
            let resp = sched.schedule(&req).expect("native schedulers are total");
            prop_assert!(resp.total_prbs() <= prbs, "{} over-allocated", sched.name());
            // Every allocation names a real UE, at most once.
            let mut seen = std::collections::HashSet::new();
            for a in &resp.allocs {
                prop_assert!(req.ues.iter().any(|u| u.ue_id == a.ue_id));
                prop_assert!(seen.insert(a.ue_id), "duplicate UE in response");
            }
        }
    }

    #[test]
    fn intra_schedulers_serve_only_backlogged(
        prbs in 1u32..100,
        ues in proptest::collection::vec(arb_ue(), 1..16),
    ) {
        let req = SchedRequest { slot: 0, prbs_granted: prbs, slice_id: 0, ues };
        let mut pf = ProportionalFair::new();
        let resp = pf.schedule(&req).expect("schedules");
        for a in &resp.allocs {
            let ue = req.ues.iter().find(|u| u.ue_id == a.ue_id).expect("known ue");
            prop_assert!(ue.buffer_bytes > 0, "allocated to an empty buffer");
        }
    }

    #[test]
    fn inter_slice_allocation_respects_grid(
        total in 1u32..500,
        demands in proptest::collection::vec(arb_demand(), 0..12),
    ) {
        // A dirty buffer, as the gNB reuses it across slots.
        let mut grants = vec![u32::MAX; 3];
        allocate(total, &demands, &mut grants);
        prop_assert_eq!(grants.len(), demands.len());
        prop_assert!(grants.iter().sum::<u32>() <= total, "exceeded the grid");
    }

    #[test]
    fn delivered_rate_never_exceeds_phy_capacity(
        cqi in 1u8..=15,
        n_ues in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut gnb = Gnb::new(GnbConfig { seed, ..GnbConfig::default() });
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(RoundRobin::new()));
        for _ in 0..n_ues {
            gnb.add_ue(s, Box::new(StaticChannel::new(cqi)), Box::new(FullBuffer));
        }
        gnb.run(500);
        let peak = peak_rate_bps(&Carrier::paper_testbed(), cqi_to_mcs(cqi)) / 1e6;
        let achieved = gnb.metrics().slice_mean_mbps(s);
        prop_assert!(achieved <= peak * 1.001, "achieved {achieved} > peak {peak}");
    }

    #[test]
    fn cbr_goodput_matches_offered_load_when_feasible(rate_mbps in 0.5f64..8.0) {
        let mut gnb = Gnb::new(GnbConfig::default());
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(ProportionalFair::new()));
        gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(Cbr::new(rate_mbps * 1e6)));
        gnb.run(3000);
        let achieved = gnb.metrics().slice_mean_mbps(s);
        prop_assert!((achieved - rate_mbps).abs() < rate_mbps * 0.1 + 0.1,
            "offered {rate_mbps} achieved {achieved}");
    }

    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let run = || {
            let mut gnb = Gnb::new(GnbConfig { seed, ..GnbConfig::default() });
            let s = gnb.add_slice(
                SliceConfig::with_target_mbps("s", 9.0),
                Box::new(ProportionalFair::new()),
            );
            gnb.add_ue(
                s,
                Box::new(waran_ransim::channel::MarkovFadingChannel::good()),
                Box::new(FullBuffer),
            );
            gnb.run(700);
            gnb.metrics().slice_series_mbps(s).to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn phy_tables_monotone_in_cqi(a in 1u8..=15, b in 1u8..=15) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cqi_to_mcs(lo) <= cqi_to_mcs(hi));
        prop_assert!(bits_per_prb(cqi_to_mcs(lo)) <= bits_per_prb(cqi_to_mcs(hi)));
    }
}
