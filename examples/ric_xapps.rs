//! Near-RT RIC with xApps: the paper's §4.B use case end to end.
//!
//! A gNB — a one-cell deployment — is attached to the near-RT RIC plane
//! and exchanges KPI indications and control actions with it over
//! plugin-wrapped communication (TLV on both sides here). Two xApps run in
//! the RIC: traffic steering hands a cell-edge UE over to a better cell,
//! and slice SLA assurance raises a slice's enforced target when it
//! underdelivers.
//!
//! Exits non-zero when either xApp never got an action applied, so the
//! gate can run it as a smoke test.
//!
//! Run with: `cargo run --release --example ric_xapps`

use std::process::ExitCode;

use wa_ran::core::{
    CellSpec, ChannelSpec, MultiCellScenarioBuilder, RicAttachment, SchedKind, SliceSpec,
    TrafficSpec,
};
use wa_ran::ric::comm::TlvCodec;
use wa_ran::ric::ric::{NearRtRic, SliceSlaAssurance, TrafficSteering};

fn main() -> ExitCode {
    let mut deployment = MultiCellScenarioBuilder::new()
        .seconds(6.0)
        .cell(
            CellSpec::new("gnb")
                .slice(
                    SliceSpec::new("gold", SchedKind::ProportionalFair)
                        .target_mbps(10.0)
                        .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer)
                        .ue(ChannelSpec::Distance(900.0), TrafficSpec::FullBuffer),
                )
                .slice(SliceSpec::new("bronze", SchedKind::RoundRobin).ues(2)),
        )
        .ric(
            RicAttachment::new(
                Box::new(|| Box::new(TlvCodec)),
                Box::new(|_cell| {
                    let mut ric = NearRtRic::new();
                    ric.add_xapp(Box::new(TrafficSteering::new(5, 3, 1)));
                    ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 12e6)])));
                    ric
                }),
            )
            .report_period_slots(100),
        )
        .build()
        .expect("deployment builds");

    println!("running 6 s with a 100-slot (100 ms) E2 reporting period…\n");
    let report = deployment.run(1);

    let ric = report.ric.as_ref().expect("attached run reports the plane");
    println!(
        "E2 driver: {} indications sent, {} action batches received",
        ric.indications_sent, ric.action_batches_received
    );
    println!(
        "RIC service: {} indications handled, {} actions emitted",
        ric.service.indications_handled, ric.service.actions_emitted
    );
    println!(
        "applied: {} handovers, {} slice-target updates\n",
        ric.applied_handovers, ric.applied_slice_targets
    );

    let gold = report.cells[0].report.slice("gold").expect("slice");
    let edge_ue = &gold.ues[1];
    let series = &edge_ue.series_mbps;
    let early = series[0];
    let late: f64 = series[series.len() - 5..].iter().sum::<f64>() / 5.0;
    println!(
        "traffic steering: cell-edge UE {} went from {:.2} Mb/s (first 100 ms) \
         to {:.2} Mb/s (last 500 ms) after its handover",
        edge_ue.ue_id, early, late
    );
    println!(
        "SLA assurance: slice `gold` lifetime {:.2} Mb/s, recent {:.2} Mb/s \
         (SLA 12 Mb/s; initial enforced target was 10 Mb/s until the xApp raised it)",
        gold.mean_rate_mbps(),
        gold.recent_rate_mbps(10),
    );

    if ric.applied_handovers == 0 || ric.applied_slice_targets == 0 {
        eprintln!("ric_xapps: an xApp never had an action applied");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
