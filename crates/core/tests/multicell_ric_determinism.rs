//! Worker-count independence of the multi-cell deployment **with the RIC
//! in the loop**. The plane (per-cell RIC state served in the publishing
//! worker, per-cell mailboxes) must behave exactly like a pure function of
//! each cell's own indication stream: per-cell digests stay bit-identical
//! across 1/2/4/8 workers, and the applied control actions prove the RIC
//! actually steered the run rather than being idle. An xApp that panics
//! faults its own cell only.

use waran_core::{
    CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder, RicAttachment, SchedKind,
    SliceSpec, TrafficSpec,
};
use waran_ric::comm::TlvCodec;
use waran_ric::e2::{ControlAction, Indication};
use waran_ric::ric::{NearRtRic, SliceSlaAssurance, TrafficSteering, XApp, XAppCtx};

/// `cells` cells, each with fading channels (per-cell RNG), a cell-edge
/// UE the steering xApp will rescue, and a gold slice whose SLA the
/// assurance xApp enforces.
fn deployment(cells: usize, seconds: f64) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(seconds)
        .base_seed(77);
    for i in 0..cells {
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

/// Steering and SLA assurance in every cell; with `panicky_cell`, that
/// cell's RIC also hosts [`PanicOnThird`].
fn attachment(panicky_cell: Option<u32>) -> RicAttachment {
    RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(move |cell| {
            let mut ric = NearRtRic::new();
            ric.add_xapp(Box::new(TrafficSteering::new(5, 2, 1)));
            ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 12e6)])));
            if panicky_cell == Some(cell) {
                ric.add_xapp(Box::new(PanicOnThird(0)));
            }
            ric
        }),
    )
    .report_period_slots(100)
}

fn run_attached(workers: usize) -> MultiCellReport {
    deployment(5, 0.5)
        .ric(attachment(None))
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

    // The plane's own counters are deterministic too (a reply to every
    // indication, served in its own cell: nothing raced, nothing was
    // dropped).
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
    let detached = deployment(5, 0.5).build().unwrap().run(2);
    let attached = run_attached(2);
    assert!(detached.ric.is_none());
    assert_ne!(
        detached.cell_digests(),
        attached.cell_digests(),
        "RIC actions must perturb cell evolution"
    );
}

#[test]
fn ingress_counts_every_indication_served() {
    // `enqueued` is every indication published, nothing is shed, and
    // `max_depth` is a measured peak of indications in service at once:
    // each worker serves at most one at a time.
    for workers in [1, 2] {
        let report = run_attached(workers);
        let ric = report.ric.as_ref().expect("attached run reports the plane");
        let ingress = ric.service.ingress;
        assert!(ric.indications_sent > 0);
        assert_eq!(ingress.enqueued, ric.indications_sent, "{workers} workers");
        assert_eq!(ingress.dropped, 0, "{workers} workers");
        assert!(
            (1..=workers as u64).contains(&ingress.max_depth),
            "{workers} workers, depth {}",
            ingress.max_depth
        );
    }
}

/// An xApp with a bug: it panics on its 3rd indication.
struct PanicOnThird(u32);

impl XApp for PanicOnThird {
    fn name(&self) -> &str {
        "panic-on-third"
    }

    fn on_indication(&mut self, _: &mut XAppCtx<'_>, _: &Indication) -> Vec<ControlAction> {
        self.0 += 1;
        assert!(self.0 < 3, "xApp bug on indication {}", self.0);
        Vec::new()
    }
}

#[test]
fn panicking_xapp_faults_only_its_own_cell() {
    // The panic unwinds through the cell that published the indication:
    // the engine's panic boundary faults cell 1, the plane stays up, and
    // cells 0 and 2 run exactly as without the buggy xApp.
    let run = |panicky_cell| {
        deployment(3, 0.5)
            .ric(attachment(panicky_cell))
            .build()
            .expect("deployment builds")
            .run(2)
    };
    let clean = run(None);
    let faulty = run(Some(1));
    assert_eq!(clean.faulted_cells(), 0);
    assert!(faulty.cells[1].faulted);
    assert_eq!(faulty.faulted_cells(), 1);
    let ric = faulty.ric.as_ref().expect("attached run reports the plane");
    assert_eq!(ric.detached_cells, 0);
    let (clean, faulty) = (clean.cell_digests(), faulty.cell_digests());
    assert_eq!((clean[0], clean[2]), (faulty[0], faulty[2]));
    assert_ne!(clean[1], faulty[1]);
}
