//! Worker-count independence of the multi-cell deployment **with the RIC
//! in the loop**. The async plane (bounded bus, one service thread,
//! per-cell mailboxes) must behave exactly like a pure function of each
//! cell's own indication stream: per-cell digests stay bit-identical
//! across 1/2/4/8 workers, and the applied control actions prove the RIC
//! actually steered the run rather than being idle.

use std::time::Duration;

use waran_core::{
    CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder, RicAttachment, SchedKind,
    SliceSpec, TrafficSpec,
};
use waran_ric::bus::DeliveryMode;
use waran_ric::comm::TlvCodec;
use waran_ric::e2::{ControlAction, Indication};
use waran_ric::ric::{NearRtRic, SliceSlaAssurance, TrafficSteering, XApp, XAppCtx};

/// Five cells, each with fading channels (per-cell RNG), a cell-edge UE
/// the steering xApp will rescue, and a gold slice whose SLA the
/// assurance xApp enforces.
fn deployment(seconds: f64) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(seconds)
        .base_seed(77);
    for i in 0..5 {
        b = b.cell(
            CellSpec::new(&format!("cell{i}"))
                .slice(
                    SliceSpec::new("gold", SchedKind::ProportionalFair)
                        .target_mbps(10.0)
                        .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer)
                        .ue(ChannelSpec::Distance(900.0), TrafficSpec::FullBuffer),
                )
                .slice(
                    SliceSpec::new("iot", SchedKind::RoundRobin)
                        .target_mbps(2.0)
                        .ue(
                            ChannelSpec::Static(8),
                            TrafficSpec::Poisson {
                                pps: 200.0,
                                bytes: 1200,
                            },
                        ),
                ),
        );
    }
    b
}

fn attachment() -> RicAttachment {
    RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|_cell| {
            let mut ric = NearRtRic::new();
            ric.add_xapp(Box::new(TrafficSteering::new(5, 2, 1)));
            ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 12e6)])));
            ric
        }),
    )
    .report_period_slots(100)
    .bus_capacity(8)
    .mode(DeliveryMode::Deterministic)
}

fn run_attached(workers: usize) -> MultiCellReport {
    deployment(0.5)
        .ric(attachment())
        .build()
        .expect("deployment builds")
        .run(workers)
}

#[test]
fn attached_digests_are_worker_count_independent() {
    let one = run_attached(1);
    let two = run_attached(2);
    let four = run_attached(4);
    let eight = run_attached(8);

    assert_eq!(
        one.cell_digests(),
        two.cell_digests(),
        "1 vs 2 workers diverged with RIC attached"
    );
    assert_eq!(
        one.cell_digests(),
        four.cell_digests(),
        "1 vs 4 workers diverged with RIC attached"
    );
    assert_eq!(
        one.cell_digests(),
        eight.cell_digests(),
        "1 vs 8 workers diverged with RIC attached"
    );

    // Not just the digests: the full per-slice/per-UE series agree.
    for (a, b) in one.cells.iter().zip(eight.cells.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        for (sa, sb) in a.report.slices.iter().zip(b.report.slices.iter()) {
            assert_eq!(sa.series_mbps, sb.series_mbps, "slice `{}` series", sa.name);
            for (ua, ub) in sa.ues.iter().zip(sb.ues.iter()) {
                assert_eq!(ua.series_mbps, ub.series_mbps, "ue {} series", ua.ue_id);
            }
        }
    }

    // The plane's own counters are deterministic too (reply-per-indication
    // rendezvous: nothing raced, nothing was dropped).
    for report in [&one, &two, &four, &eight] {
        let ric = report.ric.as_ref().expect("attached run reports the plane");
        assert_eq!(
            ric.indications_sent, ric.action_batches_received,
            "every indication answered"
        );
        assert_eq!(ric.detached_cells, 0);
        assert_eq!(ric.agent_decode_errors, 0);
        assert_eq!(
            ric.service.ingress.dropped, 0,
            "deterministic mode never drops"
        );
        assert!(
            ric.applied_handovers >= 5,
            "steering must rescue the edge UE in every cell, applied {}",
            ric.applied_handovers
        );
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
fn ric_actions_change_the_run() {
    // The attached run must differ from the detached run: the handovers
    // and slice-target boosts are real state changes, not bookkeeping.
    let detached = deployment(0.5).build().unwrap().run(2);
    let attached = run_attached(2);
    assert!(detached.ric.is_none());
    assert_ne!(
        detached.cell_digests(),
        attached.cell_digests(),
        "RIC actions must perturb cell evolution"
    );
}

/// A slow RIC: an xApp that sleeps 100 ms through every indication.
struct Stall;

impl XApp for Stall {
    fn name(&self) -> &str {
        "stall"
    }

    fn on_indication(&mut self, _: &mut XAppCtx<'_>, _: &Indication) -> Vec<ControlAction> {
        std::thread::sleep(Duration::from_millis(100));
        Vec::new()
    }
}

#[test]
fn lossy_attachment_keeps_cells_running_under_a_stalled_ric() {
    // A wedged service (an xApp that sleeps) with a tiny bus: cells must
    // finish at full speed, the queue stays bounded, and the overflow is
    // visible as per-cell drop counters.
    // 29 boundaries per cell × 5 cells = 145 indications, against a
    // service that absorbs at most ~10/s: overflow is certain whatever
    // the host machine's speed.
    let stalled = RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|_cell| {
            let mut ric = NearRtRic::new();
            ric.add_xapp(Box::new(Stall));
            ric
        }),
    );
    let report = deployment(0.3)
        .ric(
            stalled
                .mode(DeliveryMode::Lossy)
                .report_period_slots(10)
                .bus_capacity(2),
        )
        .build()
        .unwrap()
        .run(4);
    let ric = report.ric.as_ref().expect("plane report present");
    assert_eq!(ric.detached_cells, 0);
    assert!(ric.indications_sent > 0);
    assert!(
        ric.service.ingress.max_depth <= 2,
        "bounded bus, got depth {}",
        ric.service.ingress.max_depth
    );
    assert!(
        ric.service.ingress.dropped > 0,
        "a stalled RIC must shed load"
    );
    assert_eq!(
        ric.service.drops_by_cell.values().sum::<u64>(),
        ric.service.ingress.dropped,
        "every drop is attributed to a cell"
    );
}
