//! Worker-count independence of the sharded multi-cell engine: the same
//! deployment must produce byte-identical per-cell measurements whether
//! it runs on 1, 2 or 4 workers. This is the property that makes the
//! parallel engine a pure performance optimization — no scheduling
//! decision, rate series or fault counter may depend on which OS thread
//! executed a cell.

use waran_core::{
    CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder, SchedKind, SliceSpec,
    TrafficSpec,
};

/// A deployment that exercises every source of per-cell randomness:
/// fading channels, Poisson traffic, mixed scheduler policies and a
/// native-backend slice alongside the Wasm ones.
fn build_and_run(workers: usize) -> MultiCellReport {
    let mut b = MultiCellScenarioBuilder::new().seconds(0.3).base_seed(2024);
    for i in 0..5 {
        b = b.cell(
            CellSpec::new(&format!("cell{i}"))
                .slice(
                    SliceSpec::new("embb", SchedKind::ProportionalFair)
                        .target_mbps(10.0)
                        .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer)
                        .ue(ChannelSpec::FadingCellEdge, TrafficSpec::FullBuffer),
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
                )
                .slice(
                    SliceSpec::new("native-be", SchedKind::MaxThroughput)
                        .native()
                        .ue(ChannelSpec::Distance(120.0), TrafficSpec::CbrMbps(3.0)),
                ),
        );
    }
    b.build().expect("deployment builds").run(workers)
}

#[test]
fn per_cell_outputs_are_worker_count_independent() {
    let one = build_and_run(1);
    let two = build_and_run(2);
    let four = build_and_run(4);

    // Byte-identical per-cell measurement digests across worker counts.
    assert_eq!(
        one.cell_digests(),
        two.cell_digests(),
        "1 vs 2 workers diverged"
    );
    assert_eq!(
        one.cell_digests(),
        four.cell_digests(),
        "1 vs 4 workers diverged"
    );

    // The full allocation-derived series match, not just the digests.
    for (a, b) in one.cells.iter().zip(four.cells.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed, "per-cell seeds must not depend on workers");
        assert_eq!(a.sched_calls, b.sched_calls);
        assert_eq!(a.report.slots, b.report.slots);
        for (sa, sb) in a.report.slices.iter().zip(b.report.slices.iter()) {
            assert_eq!(sa.series_mbps, sb.series_mbps, "slice `{}` series", sa.name);
            assert_eq!(sa.scheduler_faults, sb.scheduler_faults);
            for (ua, ub) in sa.ues.iter().zip(sb.ues.iter()) {
                assert_eq!(ua.series_mbps, ub.series_mbps, "ue {} series", ua.ue_id);
            }
        }
    }

    // Aggregate counters agree too.
    assert_eq!(one.total_slots, four.total_slots);
    assert_eq!(one.total_sched_calls, four.total_sched_calls);
    assert_eq!(one.exec.count(), four.exec.count());
    // Which calls are timed depends on each plugin's call numbers only.
    assert_eq!(one.exec.samples(), four.exec.samples());
    assert!(
        one.total_sched_calls > 0,
        "the deployment must exercise Wasm scheduling"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same worker count, fresh build: everything identical, including the
    // merged execution-stat sample count.
    let a = build_and_run(2);
    let b = build_and_run(2);
    assert_eq!(a.cell_digests(), b.cell_digests());
    assert_eq!(a.total_sched_calls, b.total_sched_calls);
}
