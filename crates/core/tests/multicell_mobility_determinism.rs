//! Worker-count independence of the multi-cell deployment with **UEs
//! migrating between cells** and the RIC in the loop. The lockstep
//! exchange engine must make the admission sequence a pure function of
//! the simulation state: per-cell digests stay bit-identical across
//! 1/2/4/8 workers while A3 handovers and RIC-forced handovers
//! continuously move UEs across cell boundaries.

use waran_core::{
    CellSpec, ChannelSpec, MobilityAttachment, MultiCellReport, MultiCellScenarioBuilder,
    RicAttachment, SchedKind, SliceSpec, TrafficSpec,
};
use waran_ric::comm::TlvCodec;
use waran_ric::ric::{NearRtRic, TrafficSteering};

const CELLS: usize = 8;

/// Eight cells on a tight grid, two mobile UEs each — fast enough that
/// A3 events fire continuously — plus a static IoT UE per cell that must
/// never move.
fn deployment(seconds: f64) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(seconds)
        .base_seed(2026)
        .mobility(
            MobilityAttachment::new()
                .isd_m(60.0)
                .exchange_period_slots(20)
                .ttt_windows(1)
                .hold_windows(1),
        );
    for i in 0..CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i}"))
                .slice(
                    SliceSpec::new("embb", SchedKind::ProportionalFair)
                        .target_mbps(8.0)
                        .ue(
                            ChannelSpec::Mobile { speed_mps: 50.0 },
                            TrafficSpec::FullBuffer,
                        )
                        .ue(
                            ChannelSpec::Mobile { speed_mps: 25.0 },
                            TrafficSpec::FullBuffer,
                        )
                        .native(),
                )
                .slice(
                    SliceSpec::new("iot", SchedKind::RoundRobin)
                        .target_mbps(2.0)
                        .ue(
                            ChannelSpec::Static(13),
                            TrafficSpec::Poisson {
                                pps: 150.0,
                                bytes: 900,
                            },
                        )
                        .native(),
                ),
        );
    }
    b
}

/// Steering xApps aim each cell at its clockwise neighbour, so forced
/// handovers are always valid cross-cell moves. Threshold 12 catches
/// mobile UEs drifting toward a cell edge (CQI dips to ~10-11 there)
/// while the static IoT UE at CQI 13 is never steered.
fn attachment() -> RicAttachment {
    RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|cell| {
            let mut ric = NearRtRic::new();
            let target = (cell + 1) % CELLS as u32;
            ric.add_xapp(Box::new(TrafficSteering::new(12, 2, target)));
            ric
        }),
    )
    .report_period_slots(20)
}

fn run_mobile(workers: usize) -> MultiCellReport {
    deployment(0.4)
        .ric(attachment())
        .build()
        .expect("deployment builds")
        .run(workers)
}

#[test]
fn mobile_digests_are_worker_count_independent() {
    let one = run_mobile(1);
    let two = run_mobile(2);
    let four = run_mobile(4);
    let eight = run_mobile(8);

    for (report, label) in [(&two, "2"), (&four, "4"), (&eight, "8")] {
        assert_eq!(
            one.cell_digests(),
            report.cell_digests(),
            "1 vs {label} workers diverged with mobility + RIC attached"
        );
    }

    // The handovers are real: UEs crossed cells in every run, the same
    // number of times.
    let mob = one.mobility.as_ref().expect("mobility report present");
    assert!(
        mob.cross_cell_handovers > 0,
        "tight grid + fast UEs must produce churn, got {mob:?}"
    );
    for report in [&two, &four, &eight] {
        let other = report.mobility.as_ref().expect("mobility report present");
        assert_eq!(mob.cross_cell_handovers, other.cross_cell_handovers);
        assert_eq!(mob.a3_departures, other.a3_departures);
        assert_eq!(mob.forced_departures, other.forced_departures);
        assert_eq!(mob.rejected_admissions, other.rejected_admissions);
        assert_eq!(mob.interruption.count, other.interruption.count);
    }

    // One-window transit: every admitted handover was interrupted for
    // exactly the exchange period (20 slots of 1 ms).
    assert_eq!(mob.interruption.count, mob.cross_cell_handovers);
    assert!((mob.interruption.mean_ms - 20.0).abs() < 1e-9);
    assert!((mob.interruption.min_ms - mob.interruption.max_ms).abs() < 1e-9);

    // The plane stayed deterministic underneath the churn.
    for report in [&one, &two, &four, &eight] {
        let ric = report.ric.as_ref().expect("attached run reports the plane");
        assert_eq!(
            ric.indications_sent, ric.action_batches_received,
            "every indication answered"
        );
        assert_eq!(ric.detached_cells, 0);
        assert_eq!(ric.agent_decode_errors, 0);
        assert_eq!(ric.service.ingress.dropped, 0);
        assert_eq!(
            ric.indications_sent,
            one.ric.as_ref().unwrap().indications_sent
        );
        assert_eq!(
            ric.applied_handovers,
            one.ric.as_ref().unwrap().applied_handovers
        );
    }
}

#[test]
fn ric_forced_handovers_ride_the_exchange() {
    // With mobility attached, a RIC `Handover` action is executed as a
    // forced departure through the exchange barrier rather than the
    // degenerate within-cell channel swap: accepted commands show up
    // both in the plane counter and in the mobility report.
    let report = run_mobile(4);
    let ric = report.ric.as_ref().unwrap();
    let mob = report.mobility.as_ref().unwrap();
    assert!(
        ric.applied_handovers > 0,
        "steering must fire on low-CQI mobile UEs"
    );
    assert!(
        mob.forced_departures > 0,
        "accepted commands must execute at the next boundary"
    );
    // Commands are accepted when queued; a UE that left in the meantime
    // is dropped silently, so executions never exceed acceptances.
    assert!(mob.forced_departures <= ric.applied_handovers);
}

#[test]
fn mobility_and_ric_both_perturb_the_run() {
    let detached = deployment(0.4).build().unwrap().run(2);
    let attached = run_mobile(2);
    assert!(detached.ric.is_none());
    assert!(detached.mobility.is_some(), "mobility runs without a RIC");
    assert_ne!(
        detached.cell_digests(),
        attached.cell_digests(),
        "forced handovers must change cell evolution"
    );
}
