//! The massive traffic plane's two load-bearing properties, tested at
//! deployment scale:
//!
//! 1. **Conservation** — the aggregate-flow model is a *compression* of
//!    the per-UE ground truth, not a different workload. For any
//!    population size and rate, a slice served through
//!    `PopulationModel::TwoTier` must deliver the same mean rate as the
//!    same scenario materialized per-UE (`PopulationModel::PerUe`), and
//!    both must track the configured offered load.
//! 2. **Worker-count independence** — a 100-cell deployment with 1000
//!    background UEs per cell, promotion/demotion churn every rotation
//!    period, must produce bit-identical per-cell digests on 1/2/4/8
//!    workers; with mobility attached, promoted UEs roam, get absorbed
//!    into neighbor planes, and the digests still match.

use proptest::prelude::*;

use waran_core::{
    CellSpec, MobilityAttachment, MultiCellReport, MultiCellScenarioBuilder, PopulationModel,
    ScenarioBuilder, SchedKind, SliceSpec,
};

/// Run one single-cell scenario with `ues` background UEs at
/// `per_ue_kbps` each under the given population model; return the
/// slice's lifetime mean rate in Mb/s.
fn slice_rate(model: PopulationModel, ues: u32, per_ue_kbps: f64, seed: u64) -> f64 {
    let mut scenario = ScenarioBuilder::new()
        .seconds(0.4)
        .seed(seed)
        .population(model)
        .slice(
            SliceSpec::new("massive-iot", SchedKind::RoundRobin)
                .native()
                .background(ues, per_ue_kbps),
        )
        .build()
        .expect("scenario builds");
    let report = scenario.run().expect("scenario runs");
    report
        .slice("massive-iot")
        .expect("slice reported")
        .mean_rate_mbps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary (population, rate) points inside the carrier's
    /// capacity region, the aggregate model and the per-UE ground truth
    /// deliver the same slice rate, and both conserve the offered load.
    #[test]
    fn two_tier_conserves_the_per_ue_ground_truth(
        ues in 64u32..192,
        per_ue_kbps in 4.0f64..16.0,
        seed in 1u64..1024,
    ) {
        let offered_mbps = f64::from(ues) * per_ue_kbps / 1000.0;
        let per_ue = slice_rate(PopulationModel::PerUe, ues, per_ue_kbps, seed);
        let two_tier = slice_rate(
            PopulationModel::TwoTier {
                foreground_per_slice: 2,
                rotation_period_slots: 50,
            },
            ues,
            per_ue_kbps,
            seed,
        );
        // Both paths track the offered load (start-up buffering and
        // integer-byte emission cost a few percent over 400 slots).
        prop_assert!(
            (per_ue - offered_mbps).abs() <= 0.12 * offered_mbps,
            "per-UE path lost traffic: delivered {per_ue} vs offered {offered_mbps}"
        );
        prop_assert!(
            (two_tier - offered_mbps).abs() <= 0.12 * offered_mbps,
            "two-tier path lost traffic: delivered {two_tier} vs offered {offered_mbps}"
        );
        // And therefore each other.
        prop_assert!(
            (per_ue - two_tier).abs() <= 0.15 * offered_mbps,
            "models diverged: per-UE {per_ue} vs two-tier {two_tier} (offered {offered_mbps})"
        );
    }
}

/// 100 cells × 1000 background UEs, rotation churn every 50 slots.
fn fleet(workers: usize) -> MultiCellReport {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(0.2)
        .base_seed(77)
        .population(PopulationModel::TwoTier {
            foreground_per_slice: 2,
            rotation_period_slots: 50,
        });
    for i in 0..100 {
        b = b.cell(
            CellSpec::new(&format!("cell{i}")).slice(
                SliceSpec::new("massive-iot", SchedKind::RoundRobin)
                    .native()
                    .background(1000, 4.0),
            ),
        );
    }
    b.build().expect("deployment builds").run(workers)
}

#[test]
fn hundred_cell_massive_digests_are_worker_count_independent() {
    let one = fleet(1);
    let two = fleet(2);
    let four = fleet(4);
    let eight = fleet(8);

    for (report, label) in [(&two, "2"), (&four, "4"), (&eight, "8")] {
        assert_eq!(
            one.cell_digests(),
            report.cell_digests(),
            "1 vs {label} workers diverged with the massive plane attached"
        );
    }

    // The plane really ran, churned, and kept its population ledger.
    let bg = one.background.expect("fleet background totals present");
    assert_eq!(bg.population, 100 * 1000, "100k rows configured");
    assert_eq!(
        bg.active + bg.promoted,
        bg.population,
        "no mobility: every row is either aggregated or promoted"
    );
    assert_eq!(bg.departed, 0);
    // Initial fill (2/cell) plus a demote+promote cycle at slots 50,
    // 100 and 150.
    assert_eq!(bg.promotions, 100 * (2 + 3 * 2));
    assert_eq!(bg.demotions, 100 * (3 * 2));
    assert!(bg.offered_bytes > 0, "aggregate flows offered traffic");
    assert!(bg.scheduled_bytes > 0, "leftover PRBs served the tier");
    // Byte conservation across the fleet, up to the promoted-tier slack:
    // bytes riding in promoted UEs' foreground buffers (and arrivals
    // from their foreground sources) live outside the aggregate ledger
    // until demotion hands them back, so the identity is exact only to
    // within the few hundred promoted rows' worth of in-flight bytes.
    let accounted = bg.scheduled_bytes + bg.dropped_bytes + bg.buffered_bytes;
    let imbalance = bg.offered_bytes.abs_diff(accounted);
    assert!(
        imbalance <= bg.offered_bytes / 100,
        "fleet byte ledger drifted: offered {} vs accounted {accounted}",
        bg.offered_bytes
    );
    for report in [&two, &four, &eight] {
        assert_eq!(report.background, Some(bg), "totals are worker-independent");
    }
    assert!(bg.delivered_bytes > 0);
}

/// Four cells on a tight grid: pinned promoted UEs near cell borders
/// trigger A3 departures and get absorbed into the neighbor's plane.
fn roaming_fleet(workers: usize) -> MultiCellReport {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(0.3)
        .base_seed(909)
        .population(PopulationModel::TwoTier {
            foreground_per_slice: 4,
            rotation_period_slots: 40,
        })
        .mobility(
            MobilityAttachment::new()
                .isd_m(120.0)
                .exchange_period_slots(20)
                .ttt_windows(1)
                .hold_windows(1),
        );
    for i in 0..4 {
        b = b.cell(
            CellSpec::new(&format!("cell{i}")).slice(
                SliceSpec::new("embb", SchedKind::RoundRobin)
                    .native()
                    .background(300, 12.0),
            ),
        );
    }
    b.build().expect("deployment builds").run(workers)
}

#[test]
fn promoted_ues_roam_and_are_absorbed_deterministically() {
    let one = roaming_fleet(1);
    let two = roaming_fleet(2);
    let four = roaming_fleet(4);

    for (report, label) in [(&two, "2"), (&four, "4")] {
        assert_eq!(
            one.cell_digests(),
            report.cell_digests(),
            "1 vs {label} workers diverged under mobility + absorption"
        );
    }

    let mob = one.mobility.as_ref().expect("mobility report present");
    assert!(
        mob.cross_cell_handovers > 0,
        "border-pinned promoted UEs must hand over, got {mob:?}"
    );

    let bg = one.background.expect("fleet background totals present");
    assert!(bg.lost_to_handover > 0, "home planes tombstone leavers");
    assert!(bg.absorbed > 0, "destination planes absorb arrivals");
    assert!(
        bg.absorbed <= bg.lost_to_handover,
        "every absorption starts as a departure"
    );
    // Per-plane ledger identity, summed: rows are aggregated, promoted
    // or tombstoned — never lost track of.
    assert_eq!(bg.active + bg.promoted + bg.departed, bg.population);
    for report in [&two, &four] {
        assert_eq!(report.background, Some(bg), "totals are worker-independent");
    }
}
