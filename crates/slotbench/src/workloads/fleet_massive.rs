//! `fleet_massive` — 100 cells × (1500 bursty eMBB + 500 smooth IoT)
//! background UEs under the two-tier population model (the PR 10 shape at
//! 200 k UEs), free-running engine, `W` workers.
//!
//! ransim-bound: the massive plane's `begin_slot`/`serve`, inter-slice
//! allocation and metrics dominate; plugin calls are few and carry 2-UE
//! requests. A guest-execution speed-up must **not** move this workload
//! much; a traffic-plane or engine change must.

use std::time::Instant;

use waran_core::{
    CellSpec, MultiCellReport, MultiCellScenario, MultiCellScenarioBuilder, PopulationModel,
    Scenario, ScenarioBuilder, SchedKind, SliceSpec,
};

use super::{
    fold_digests, trace_cell, worker_count_oracle, Checks, ChunkTimer, LayerReport, Rep, RunConfig,
    Workload,
};
use crate::stats;

const CELLS: usize = 100;
/// Simulated slots per cell and repetition (two tier rotations).
const SLOTS: u64 = 300;
const FOREGROUND_PER_SLICE: u32 = 2;
const ROTATION_PERIOD_SLOTS: u64 = 100;
const SLICES: [&str; 2] = ["embb", "iot"];

/// The workload.
pub struct FleetMassive;

fn population() -> PopulationModel {
    PopulationModel::TwoTier {
        foreground_per_slice: FOREGROUND_PER_SLICE,
        rotation_period_slots: ROTATION_PERIOD_SLOTS,
    }
}

/// One cell's slices: 1500 × 4 kb/s in 1200-byte bursts + 500 × 2 kb/s
/// smooth = 7 Mb/s offered, inside the 10 MHz carrier.
fn cell_slices() -> [SliceSpec; 2] {
    [
        SliceSpec::new("embb", SchedKind::ProportionalFair).background_bursty(1500, 4.0, 1200.0),
        SliceSpec::new("iot", SchedKind::RoundRobin).background(500, 2.0),
    ]
}

fn sizes(cfg: &RunConfig) -> (usize, u64) {
    if cfg.smoke {
        (4, 150)
    } else {
        (CELLS, SLOTS)
    }
}

fn build(cfg: &RunConfig, cells: usize, slots: u64) -> Option<MultiCellScenario> {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(slots as f64 / 1000.0)
        .base_seed(cfg.seed)
        .sandbox_policy(super::policy())
        .population(population());
    for i in 0..cells {
        let mut cell = CellSpec::new(&format!("cell{i:03}"));
        for slice in cell_slices() {
            cell = cell.slice(slice);
        }
        b = b.cell(cell);
    }
    b.build().ok()
}

/// The representative cell, standalone: cell 0's slice specs through
/// `ScenarioBuilder` (the fleet derives per-cell seeds internally, so
/// this is the same *shape*, not the same random stream).
fn build_cell(cfg: &RunConfig, slots: u64) -> Option<Scenario> {
    let mut b = ScenarioBuilder::new()
        .seconds(slots as f64 / 1000.0)
        .seed(cfg.seed)
        .sandbox_policy(super::policy())
        .population(population());
    for slice in cell_slices() {
        b = b.slice(slice);
    }
    b.build().ok()
}

/// Invariants every fleet run must satisfy; returns failed operations.
fn fleet_invariants(report: &MultiCellReport, checks: &mut Checks) -> u64 {
    checks.eq("faulted_cells", report.faulted_cells(), 0);
    let gov = report.governance();
    let faults: u64 = report
        .cells
        .iter()
        .flat_map(|c| c.report.slices.iter())
        .map(|s| s.scheduler_faults)
        .sum();
    if let Some(bg) = checks.require("background report", report.background) {
        // No mobility: every row is aggregated or promoted, none departed.
        checks.eq(
            "population ledger (active + promoted + departed)",
            bg.active + bg.promoted + bg.departed,
            bg.population,
        );
        let accounted = bg.scheduled_bytes + bg.dropped_bytes + bg.buffered_bytes;
        checks.check(
            "byte conservation within 1 %",
            bg.offered_bytes > 0 && bg.offered_bytes.abs_diff(accounted) <= bg.offered_bytes / 100,
            || format!("offered {} vs accounted {accounted}", bg.offered_bytes),
        );
    }
    faults + gov.push_failures + gov.quarantined_slices + report.faulted_cells()
}

impl Workload for FleetMassive {
    fn name(&self) -> &'static str {
        "fleet_massive"
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
        checks.eq("fleet slots", report.total_slots, cells as u64 * slots);
        checks.check("plugin calls", report.exec.count() > 0, || {
            "no plugin call was recorded".into()
        });

        let failed = fleet_invariants(&report, checks);
        let bg = report.background.unwrap_or_default();
        let util: Vec<f64> = report
            .cells
            .iter()
            .flat_map(|c| c.report.utilization.iter().copied())
            .collect();
        Some(Rep {
            setup_s,
            chunks: vec![chunk],
            sched_p50_us: report.exec.p50_us(),
            sched_p99_us: report.exec.p99_us(),
            digest: fold_digests(&report.cell_digests()),
            ops: report.total_sched_calls + cells as u64,
            failed,
            counters: vec![
                ("host.faults", report.governance().strikes.total() as f64),
                (
                    "ransim.bg_bytes_per_slot",
                    bg.scheduled_bytes as f64 / report.total_slots as f64,
                ),
                ("ransim.promotions", bg.promotions as f64),
                ("ransim.demotions", bg.demotions as f64),
                (
                    "ransim.prb_utilization",
                    100.0 * stats::median(&util).unwrap_or(0.0),
                ),
            ],
            samples: vec![
                ("core.chunk_us_p50", vec![report.slot_chunks.p50_us()]),
                ("core.chunk_us_p99", vec![report.slot_chunks.p99_us()]),
                (
                    "core.worker_busy_pct",
                    vec![100.0 * chunk.cpu_s / (report.workers as f64 * chunk.wall_s)],
                ),
                ("core.build_us_per_cell", vec![setup_s * 1e6 / cells as f64]),
            ],
        })
    }

    /// Worker-count independence on a short prefix: per-cell digests at
    /// one worker must equal those at two.
    fn oracle(&mut self, cfg: &RunConfig, _reps: &[Rep], checks: &mut Checks) {
        let (cells, slots) = sizes(cfg);
        worker_count_oracle(cfg, &|| build(cfg, cells, slots.min(120)), checks);
    }

    fn traced(
        &mut self,
        cfg: &RunConfig,
        reps: &[Rep],
        checks: &mut Checks,
        out: &mut LayerReport,
    ) -> Option<()> {
        let (_, slots) = sizes(cfg);
        // Long enough for stable per-slot numbers on one cell.
        let build = || build_cell(cfg, slots * 10);
        trace_cell(cfg, &build, &SLICES, reps, checks, out).map(drop)
    }
}
