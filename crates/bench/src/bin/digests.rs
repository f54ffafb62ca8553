//! The determinism gate: four fleet deployments, one line per cell.
//!
//! `digests <workers>` builds the four fleet shapes the engine's
//! determinism contract is held to, runs each on `<workers>` threads and
//! prints `scenario cell digest` lines — nothing else, no timing.
//! `scripts/check.sh` diffs the output at 2 and at 8 workers against the
//! committed `crates/bench/digests.golden`: both must equal the same file
//! (worker-count independence) and the file only changes when a commit
//! means to change simulation output (commit-to-commit stability). After
//! such a change, regenerate it with
//! `target/release/digests 2 > crates/bench/digests.golden`.
//!
//! The scenarios, each a different use of the one engine:
//!
//! * `ric` — 8 cells attached to the near-RT RIC (one window, E2
//!   boundary protocol).
//! * `mobility` — 32-cell grid, UEs handing over all run long on A3
//!   events and RIC-forced steering (exchange windows).
//! * `governance` — 32 cells taking two hostile fleet-wide pushes
//!   mid-run; every cell must strike them out and roll back to last-good.
//! * `massive` — 500 cells × 2000 background UEs on the two-tier traffic
//!   plane with promotion/demotion churn.
//!
//! Performance is not measured here: `crates/slotbench` is the only perf
//! instrument.

use waran_core::{
    plugins, CellSpec, ChannelSpec, MobilityAttachment, MultiCellReport, MultiCellScenarioBuilder,
    PopulationModel, RicAttachment, SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::plugin::SandboxPolicy;
use waran_ric::comm::TlvCodec;
use waran_ric::ric::{NearRtRic, SliceSlaAssurance, TrafficSteering};

fn run(deployment: MultiCellScenarioBuilder, workers: usize) -> MultiCellReport {
    deployment.build().expect("deployment builds").run(workers)
}

/// Per-cell randomness, a cell-edge UE the steering xApp rescues and a
/// gold slice whose SLA the assurance xApp enforces — every cell gives
/// the RIC something real to do.
fn ric(workers: usize) -> MultiCellReport {
    let mut b = MultiCellScenarioBuilder::new().seconds(0.5).base_seed(4004);
    for i in 0..8 {
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
    let attachment = RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|_cell| {
            let mut ric = NearRtRic::new();
            ric.add_xapp(Box::new(TrafficSteering::new(5, 2, 1)));
            ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 12e6)])));
            ric
        }),
    )
    .report_period_slots(100);
    run(b.ric(attachment), workers)
}

const FLEET_CELLS: usize = 32;

/// The 32-cell fleet `mobility` and `governance` share: a per-cell mix
/// of scheduling policies over a two-UE full-buffer `embb` slice, plus
/// one Poisson `iot` UE at CQI 13.
fn fleet(embb: [ChannelSpec; 2], native: bool) -> MultiCellScenarioBuilder {
    let policies = [
        SchedKind::ProportionalFair,
        SchedKind::RoundRobin,
        SchedKind::MaxThroughput,
    ];
    let backend = |slice: SliceSpec| if native { slice.native() } else { slice };
    let mut b = MultiCellScenarioBuilder::new();
    for i in 0..FLEET_CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i:02}"))
                .slice(backend(
                    SliceSpec::new("embb", policies[i % policies.len()])
                        .target_mbps(8.0)
                        .ue(embb[0], TrafficSpec::FullBuffer)
                        .ue(embb[1], TrafficSpec::FullBuffer),
                ))
                .slice(backend(
                    SliceSpec::new("iot", SchedKind::RoundRobin)
                        .target_mbps(2.0)
                        .ue(
                            ChannelSpec::Static(13),
                            TrafficSpec::Poisson {
                                pps: 150.0,
                                bytes: 900,
                            },
                        ),
                )),
        );
    }
    b
}

/// 60 m inter-site distance with UEs at 50 and 25 m/s: A3 events fire
/// all run long. Steering xApps aim each cell at its clockwise
/// neighbour; threshold 12 catches mobile UEs drifting to a cell edge
/// while the CQI-13 IoT UE is never steered, so forced handovers ride
/// the exchange alongside A3.
fn mobility(workers: usize) -> MultiCellReport {
    const EXCHANGE_PERIOD_SLOTS: u64 = 20;
    let attachment = RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|cell| {
            let mut ric = NearRtRic::new();
            let target = (cell + 1) % FLEET_CELLS as u32;
            ric.add_xapp(Box::new(TrafficSteering::new(12, 2, target)));
            ric
        }),
    )
    .report_period_slots(2 * EXCHANGE_PERIOD_SLOTS);
    let deployment = fleet(
        [
            ChannelSpec::Mobile { speed_mps: 50.0 },
            ChannelSpec::Mobile { speed_mps: 25.0 },
        ],
        true,
    )
    .seconds(1.0)
    .base_seed(5005)
    .mobility(
        MobilityAttachment::new()
            .isd_m(60.0)
            .exchange_period_slots(EXCHANGE_PERIOD_SLOTS)
            .ttt_windows(1)
            .hold_windows(2),
    )
    .ric(attachment);
    run(deployment, workers)
}

/// Strike budget of the `governance` soak: two consecutive faults cross it.
const STRIKE_BUDGET: u32 = 2;

/// A null-dereferencing scheduler pushed into every `embb` slice at slot
/// 200 and a fuel burner into every `iot` slice at slot 300, under a
/// 200 000-fuel budget.
fn governance(workers: usize) -> MultiCellReport {
    let deployment = fleet([ChannelSpec::Static(11), ChannelSpec::Static(14)], false)
        .seconds(0.5)
        .base_seed(6006)
        .sandbox_policy(SandboxPolicy {
            fuel_per_call: 200_000,
            quarantine_after: STRIKE_BUDGET,
            ..SandboxPolicy::default()
        })
        .push_at(
            200,
            "embb",
            &plugins::compile_faulty(plugins::faulty::NULL_DEREF),
        )
        .push_at(
            300,
            "iot",
            &plugins::compile_faulty(plugins::faulty::FUEL_BURNER),
        );
    let report = run(deployment, workers);
    assert_rollback_invariants(&report);
    report
}

/// Every cell must have struck the hostile modules out and recovered
/// onto the retained last-good schedulers.
fn assert_rollback_invariants(report: &MultiCellReport) {
    for cell in &report.cells {
        let g = &cell.governance;
        assert_eq!(
            g.rollbacks, 2,
            "{}: expected one rollback per hostile push, got {g:?}",
            cell.name
        );
        assert_eq!(
            g.strikes.trap,
            u64::from(STRIKE_BUDGET),
            "{}: embb strike count off, got {g:?}",
            cell.name
        );
        assert_eq!(
            g.strikes.fuel_exhausted,
            u64::from(STRIKE_BUDGET),
            "{}: iot fuel-strike count off, got {g:?}",
            cell.name
        );
        assert_eq!(
            g.quarantined_slices, 0,
            "{}: rollback must clear quarantine, got {g:?}",
            cell.name
        );
        assert_eq!(g.push_failures, 0, "{}: pushes must install", cell.name);
    }
}

const MASSIVE_CELLS: usize = 500;
const BG_UES_PER_CELL: u32 = 2000;
const MASSIVE_SECONDS: f64 = 0.25;
const FOREGROUND_QUOTA: u32 = 2;
const ROTATION_PERIOD_SLOTS: u64 = 100;

/// One massive-IoT slice per cell: 2000 background UEs × 4 kb/s = 8 Mb/s
/// offered, inside the 10 MHz carrier's capacity at the massive plane's
/// 100 m cell radius; Wasm round-robin serves the promoted foreground
/// tier.
fn massive(workers: usize) -> MultiCellReport {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(MASSIVE_SECONDS)
        .base_seed(10_010)
        .population(PopulationModel::TwoTier {
            foreground_per_slice: FOREGROUND_QUOTA,
            rotation_period_slots: ROTATION_PERIOD_SLOTS,
        });
    for i in 0..MASSIVE_CELLS {
        let miot = SliceSpec::new("miot", SchedKind::RoundRobin).background(BG_UES_PER_CELL, 4.0);
        b = b.cell(CellSpec::new(&format!("cell{i:03}")).slice(miot));
    }
    let report = run(b, workers);
    assert_massive_invariants(&report);
    report
}

/// The fleet population ledger and rotation schedule must be exact: 1M
/// rows all aggregated or promoted, promotion/demotion counts a pure
/// function of the slot count, bytes conserved up to the promoted-tier
/// slack.
fn assert_massive_invariants(report: &MultiCellReport) {
    let bg = report.background.expect("massive plane ran");
    let population = MASSIVE_CELLS as u64 * u64::from(BG_UES_PER_CELL);
    assert_eq!(bg.population, population, "1M rows configured");
    assert_eq!(
        bg.active + bg.promoted,
        population,
        "no mobility: every row is aggregated or promoted"
    );
    assert_eq!(bg.departed, 0);
    let slots = (MASSIVE_SECONDS * 1000.0) as u64;
    let rotations = (slots - 1) / ROTATION_PERIOD_SLOTS;
    let quota = u64::from(FOREGROUND_QUOTA);
    assert_eq!(
        bg.promotions,
        MASSIVE_CELLS as u64 * (quota + rotations * quota),
        "initial fill plus one refill per rotation"
    );
    assert_eq!(bg.demotions, MASSIVE_CELLS as u64 * rotations * quota);
    assert!(bg.scheduled_bytes > 0, "leftover PRBs served the tier");
    let accounted = bg.scheduled_bytes + bg.dropped_bytes + bg.buffered_bytes;
    assert!(
        bg.offered_bytes.abs_diff(accounted) <= bg.offered_bytes / 100,
        "fleet byte ledger drifted: offered {} vs accounted {accounted}",
        bg.offered_bytes
    );
}

/// Print one `scenario cell digest` line per cell.
fn emit(scenario: &str, report: &MultiCellReport) {
    assert_eq!(report.faulted_cells(), 0, "{scenario}: a cell faulted");
    for (cell, digest) in report.cells.iter().zip(report.cell_digests()) {
        println!("{scenario} {} {digest:016x}", cell.name);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = match args.as_slice() {
        [w] => w.parse::<usize>().ok(),
        _ => None,
    };
    let Some(workers) = workers else {
        eprintln!("usage: digests <workers>");
        std::process::exit(2);
    };
    emit("ric", &ric(workers));
    emit("mobility", &mobility(workers));
    emit("governance", &governance(workers));
    emit("massive", &massive(workers));
}
