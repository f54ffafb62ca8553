//! `fleet_ric_mobility` — a 16-cell grid (ISD 60 m); per cell a Wasm
//! `embb` slice with two mobile UEs (50 and 25 m/s) and a Wasm `iot`
//! slice with one Poisson UE; mobility exchange every 20 slots; the RIC
//! attached over the TLV codec with `TrafficSteering` +
//! `SliceSlaAssurance`, reporting every 40 slots on a 64-frame bus in
//! deterministic delivery. `W` workers.
//!
//! The coordination path — lockstep windows, the exchange barrier, the
//! RIC rendezvous, the codecs. It uses the multi-cell engine differently
//! from `fleet_massive` (lockstep vs free-running) and the plugin path
//! differently from `mvno_cell` (1–2-UE requests, so the fixed crossing
//! cost dominates, not guest loops): a gain for one use that costs the
//! other shows.

use std::time::{Duration, Instant};

use waran_core::{
    sample_kpis, CellSpec, ChannelSpec, MobilityAttachment, MultiCellScenario,
    MultiCellScenarioBuilder, RicAttachment, Scenario, ScenarioBuilder, SchedKind, SliceSpec,
    TrafficSpec,
};
use waran_ric::{
    CommCodec, DeliveryMode, Indication, NearRtRic, RecvOutcome, RicBus, SliceSlaAssurance,
    TlvCodec, TrafficSteering,
};

use super::{
    fold_digests, trace_cell, worker_count_oracle, Checks, ChunkTimer, LayerReport, Rep, RunConfig,
    Workload,
};

const CELLS: usize = 16;
/// Simulated slots per cell and repetition.
const SLOTS: u64 = 6_000;
const ISD_M: f64 = 60.0;
const EXCHANGE_PERIOD_SLOTS: u64 = 20;
const REPORT_PERIOD_SLOTS: u64 = 40;
const BUS_CAPACITY: usize = 64;
const SLICES: [&str; 2] = ["embb", "iot"];
/// Round trips timed by the standalone bus probe.
const ROUNDTRIPS: usize = 2_000;

/// The workload.
pub struct FleetRicMobility;

/// Cell `i`'s slices; the `embb` policy rotates PF / RR / MT over cells.
fn cell_slices(i: usize) -> [SliceSpec; 2] {
    let kinds = [
        SchedKind::ProportionalFair,
        SchedKind::RoundRobin,
        SchedKind::MaxThroughput,
    ];
    [
        SliceSpec::new("embb", kinds[i % kinds.len()])
            .target_mbps(8.0)
            .ue(
                ChannelSpec::Mobile { speed_mps: 50.0 },
                TrafficSpec::FullBuffer,
            )
            .ue(
                ChannelSpec::Mobile { speed_mps: 25.0 },
                TrafficSpec::FullBuffer,
            ),
        SliceSpec::new("iot", SchedKind::RoundRobin)
            .target_mbps(2.0)
            .ue(
                ChannelSpec::Static(13),
                TrafficSpec::Poisson {
                    pps: 150.0,
                    bytes: 900,
                },
            ),
    ]
}

/// The xApps each cell's RIC state hosts: steering towards the clockwise
/// neighbour (CQI threshold 12 catches mobiles drifting to a cell edge,
/// never the CQI-13 IoT UE) and SLA assurance on both slices.
fn cell_ric(cell: u32, cells: usize) -> NearRtRic {
    let mut ric = NearRtRic::new();
    ric.add_xapp(Box::new(TrafficSteering::new(
        12,
        2,
        (cell + 1) % cells as u32,
    )));
    ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 8e6), (1, 2e6)])));
    ric
}

fn sizes(cfg: &RunConfig) -> (usize, u64) {
    if cfg.smoke {
        (4, 400)
    } else {
        (CELLS, SLOTS)
    }
}

fn build(cfg: &RunConfig, cells: usize, slots: u64) -> Option<MultiCellScenario> {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(slots as f64 / 1000.0)
        .base_seed(cfg.seed)
        .sandbox_policy(super::policy())
        .mobility(
            MobilityAttachment::new()
                .isd_m(ISD_M)
                .exchange_period_slots(EXCHANGE_PERIOD_SLOTS),
        )
        .ric(
            RicAttachment::new(
                Box::new(|| Box::new(TlvCodec)),
                Box::new(move |cell| cell_ric(cell, cells)),
            )
            .report_period_slots(REPORT_PERIOD_SLOTS)
            .bus_capacity(BUS_CAPACITY)
            .mode(DeliveryMode::Deterministic),
        );
    for i in 0..cells {
        let mut cell = CellSpec::new(&format!("cell{i:02}"));
        for slice in cell_slices(i) {
            cell = cell.slice(slice);
        }
        b = b.cell(cell);
    }
    b.build().ok()
}

/// Cell 0's slice specs, standalone (no neighbours: its mobiles roam but
/// never hand over).
fn build_cell(cfg: &RunConfig, slots: u64) -> Option<Scenario> {
    let mut b = ScenarioBuilder::new()
        .seconds(slots as f64 / 1000.0)
        .seed(cfg.seed)
        .sandbox_policy(super::policy());
    for slice in cell_slices(0) {
        b = b.slice(slice);
    }
    b.build().ok()
}

/// `ric.roundtrip_us_p50` and `ric.codec_us_per_ind`: a standalone bus
/// with the workload's xApps, fed one captured indication frame.
fn ric_probe(cell: &Scenario, checks: &mut Checks, out: &mut LayerReport) {
    let codec = TlvCodec;
    let indication = Indication {
        slot: cell.gnb.slot(),
        reports: sample_kpis(cell),
    };
    checks.check(
        "captured indication",
        !indication.reports.is_empty(),
        || "the representative cell reported no KPI".into(),
    );

    let start = Instant::now();
    let mut decoded_ok = true;
    for _ in 0..ROUNDTRIPS {
        let frame = codec.encode_indication(&indication);
        decoded_ok &= codec.decode_indication(&frame).is_ok();
    }
    let codec_us = start.elapsed().as_secs_f64() * 1e6 / ROUNDTRIPS as f64;
    checks.check("codec round trip", decoded_ok, || "decode failed".into());
    out.value("ric.codec_us_per_ind", codec_us);

    let frame = codec.encode_indication(&indication);
    let mut bus = RicBus::new(BUS_CAPACITY, DeliveryMode::Deterministic);
    let port = bus.register(0, Box::new(TlvCodec), cell_ric(0, CELLS));
    let service = bus.start();
    let mut samples = Vec::with_capacity(ROUNDTRIPS);
    let mut lost = 0u64;
    for i in 0..ROUNDTRIPS {
        let start = Instant::now();
        let published = port.publish(i as u64, frame.clone());
        let reply = port.await_reply(Duration::from_secs(5));
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        if published && matches!(reply, RecvOutcome::Msg(_)) {
            samples.push(us);
        } else {
            lost += 1;
        }
    }
    drop(port);
    let served = service.stop();
    checks.eq("ric probe: lost round trips", lost, 0);
    checks.eq(
        "ric probe: indications handled",
        served.indications_handled,
        ROUNDTRIPS as u64,
    );
    out.median(checks, "ric.roundtrip_us_p50", &samples);
}

impl Workload for FleetRicMobility {
    fn name(&self) -> &'static str {
        "fleet_ric_mobility"
    }

    fn threads(&self, cfg: &RunConfig) -> usize {
        cfg.workers()
    }

    fn repetition(&mut self, cfg: &RunConfig, checks: &mut Checks) -> Option<Rep> {
        let (cells, slots) = sizes(cfg);
        let setup_start = Instant::now();
        let mut fleet = checks.require("fleet.build", build(cfg, cells, slots))?;
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut timer = ChunkTimer::start(checks)?;
        let report = fleet.run(cfg.workers());
        let chunk = timer.lap(report.total_slots, checks)?;
        // UEs in transit at the end leave their slots unsimulated nowhere:
        // every cell still runs every slot.
        checks.eq("fleet slots", report.total_slots, cells as u64 * slots);
        checks.check("plugin calls", report.exec.count() > 0, || {
            "no plugin call was recorded".into()
        });
        checks.eq("faulted_cells", report.faulted_cells(), 0);

        let mob = checks.require("mobility report", report.mobility.clone())?;
        let ric = checks.require("ric report", report.ric.clone())?;
        checks.eq(
            "every indication answered",
            ric.action_batches_received,
            ric.indications_sent,
        );
        checks.eq("detached cells", ric.detached_cells, 0);
        let gov = report.governance();
        let faults: u64 = report
            .cells
            .iter()
            .flat_map(|c| c.report.slices.iter())
            .map(|s| s.scheduler_faults)
            .sum();
        let failed = faults
            + gov.push_failures
            + gov.quarantined_slices
            + report.faulted_cells()
            + ric.agent_decode_errors
            + ric.service.decode_errors
            + ric.service.ingress.dropped
            + mob.dropped_departures;
        Some(Rep {
            setup_s,
            chunks: vec![chunk],
            sched_p50_us: report.exec.p50_us(),
            sched_p99_us: report.exec.p99_us(),
            digest: fold_digests(&report.cell_digests()),
            ops: report.total_sched_calls + ric.indications_sent + cells as u64,
            failed,
            counters: vec![
                ("host.faults", gov.strikes.total() as f64),
                ("ric.indications", ric.indications_sent as f64),
                ("ric.action_batches", ric.action_batches_received as f64),
                ("ric.applied_handovers", ric.applied_handovers as f64),
                ("ric.rejected_actions", ric.rejected_actions as f64),
                ("ric.drops", ric.service.ingress.dropped as f64),
                ("core.handovers", mob.cross_cell_handovers as f64),
                ("core.a3_departures", mob.a3_departures as f64),
                ("core.forced_departures", mob.forced_departures as f64),
                ("core.rejected_admissions", mob.rejected_admissions as f64),
            ],
            samples: vec![
                ("core.chunk_us_p50", vec![report.slot_chunks.p50_us()]),
                ("core.chunk_us_p99", vec![report.slot_chunks.p99_us()]),
                (
                    "core.worker_busy_pct",
                    vec![100.0 * chunk.cpu_s / (report.workers as f64 * chunk.wall_s)],
                ),
                ("core.build_us_per_cell", vec![setup_s * 1e6 / cells as f64]),
                // How deep the bus got depends on thread timing, not on
                // the simulation: a gauge, not an exact count.
                (
                    "ric.ingress_max_depth",
                    vec![ric.service.ingress.max_depth as f64],
                ),
            ],
        })
    }

    fn oracle(&mut self, cfg: &RunConfig, _reps: &[Rep], checks: &mut Checks) {
        let (cells, slots) = sizes(cfg);
        worker_count_oracle(cfg, &|| build(cfg, cells, slots.min(800)), checks);
    }

    fn traced(
        &mut self,
        cfg: &RunConfig,
        reps: &[Rep],
        checks: &mut Checks,
        out: &mut LayerReport,
    ) -> Option<()> {
        let (_, slots) = sizes(cfg);
        let cell = trace_cell(cfg, &|| build_cell(cfg, slots), &SLICES, reps, checks, out)?;
        ric_probe(&cell, checks, out);
        Some(())
    }
}
