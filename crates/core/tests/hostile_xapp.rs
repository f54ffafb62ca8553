//! Regression: a hostile (or buggy) xApp commanding handovers to
//! out-of-range cells must degrade to rejected actions with per-cell
//! attribution — never a panicked exchange leader, poisoned cell locks,
//! or an aborted deployment — and the run must stay worker-count
//! deterministic with the hostile plane attached.
//!
//! Hostile xApp *code* too: a Wasm xApp swapped for a trapping or
//! fuel-burning build is struck out and rolled back to its last good
//! build while the xApps beside it keep their turns, and a fleet whose
//! cells each host a Wasm xApp that starts trapping stays worker-count
//! deterministic.

use waran_core::{
    CellSpec, ChannelSpec, MobilityAttachment, MultiCellReport, MultiCellScenarioBuilder,
    RicAttachment, SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::{fnv1a, GovernanceClass};
use waran_ric::comm::TlvCodec;
use waran_ric::e2::{ControlAction, Indication, KpiReport};
use waran_ric::ric::{NearRtRic, TrafficSteering, XApp, XAppCtx};

const CELLS: usize = 4;

fn deployment(seconds: f64) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(seconds)
        .base_seed(909)
        .mobility(
            MobilityAttachment::new()
                .isd_m(60.0)
                .exchange_period_slots(20)
                .ttt_windows(1)
                .hold_windows(1),
        );
    for i in 0..CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i}")).slice(
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
            ),
        );
    }
    b
}

/// Every cell's steering xApp aims at cell 99 — far outside the fleet.
fn hostile_attachment() -> RicAttachment {
    RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(|_cell| {
            let mut ric = NearRtRic::new();
            ric.add_xapp(Box::new(TrafficSteering::new(12, 2, 99)));
            ric
        }),
    )
    .report_period_slots(20)
}

fn run_hostile(workers: usize) -> MultiCellReport {
    deployment(0.3)
        .ric(hostile_attachment())
        .build()
        .expect("deployment builds")
        .run(workers)
}

#[test]
fn out_of_range_handovers_reject_with_per_cell_attribution() {
    let report = run_hostile(2);

    let ric = report.ric.as_ref().expect("plane report present");
    assert!(
        ric.rejected_actions > 0,
        "hostile steering must be rejected, got {ric:?}"
    );
    // No out-of-range command was ever realized as a handover.
    assert_eq!(ric.applied_handovers, 0);
    let mob = report.mobility.as_ref().expect("mobility report present");
    assert_eq!(mob.forced_departures, 0);

    // Per-cell attribution: the rejects fold into `(cell_id, count)`
    // entries that sum to the aggregate, so a single hostile xApp shows
    // up as a locatable hot spot.
    assert!(!ric.rejected_by_cell.is_empty());
    let summed: u64 = ric.rejected_by_cell.iter().map(|(_, n)| n).sum();
    assert_eq!(summed, ric.rejected_actions);
    for (cell_id, count) in &ric.rejected_by_cell {
        assert!((*cell_id as usize) < CELLS);
        assert!(*count > 0);
    }

    // Every cell ran to completion: nothing panicked, nothing faulted.
    assert_eq!(report.faulted_cells(), 0);
    for cell in &report.cells {
        assert!(cell.report.slots > 0);
    }
}

#[test]
fn hostile_plane_stays_worker_count_deterministic() {
    let one = run_hostile(1);
    let four = run_hostile(4);
    assert_eq!(
        one.cell_digests(),
        four.cell_digests(),
        "hostile RIC input must not break worker-count independence"
    );
    assert_eq!(
        one.ric.as_ref().unwrap().rejected_actions,
        four.ric.as_ref().unwrap().rejected_actions
    );
    assert_eq!(
        one.ric.as_ref().unwrap().rejected_by_cell,
        four.ric.as_ref().unwrap().rejected_by_cell
    );
}

/// A PlugC steering xApp: every UE reporting CQI below 12 is handed over
/// to cell `target`, every indication.
fn steering_wasm(target: u32) -> Vec<u8> {
    waran_plugc::compile(&format!(
        r#"export fn on_indication(ptr: i32, len: i32) -> i64 {{
               var n: i32 = load_i32(ptr + 8);
               var out: i32 = wrn_alloc(n * 16);
               var written: i32 = 0;
               var i: i32 = 0;
               while (i < n) {{
                   var rec: i32 = ptr + 16 + i * 24;
                   if (load_u8(rec + 8) < 12) {{
                       var act: i32 = out + written * 16;
                       store_i32(act, 2);                  // HANDOVER tag + padding
                       store_i32(act + 4, load_i32(rec));  // ue_id
                       store_i32(act + 8, {target});
                       store_i32(act + 12, 0);
                       written = written + 1;
                   }}
                   i = i + 1;
               }}
               return pack(out, written * 16);
           }}"#
    ))
    .expect("steering xApp compiles")
}

fn compile(src: &str) -> Vec<u8> {
    waran_plugc::compile(src).expect("compiles")
}

/// Traps on every indication.
const TRAPPING: &str = r#"
    export fn on_indication(ptr: i32, len: i32) -> i64 { trap(); return pack(0, 0); }
"#;

/// Spins until its fuel runs out, on every indication.
const FUEL_BURNER: &str = r#"
    global spins: i32 = 0;
    export fn on_indication(ptr: i32, len: i32) -> i64 {
        while (1) { spins = spins + 1; }
        return pack(0, 0);
    }
"#;

/// A native xApp beside the Wasm one: one slice-target action per turn.
struct Native;

impl XApp for Native {
    fn name(&self) -> &str {
        "native"
    }

    fn on_indication(&mut self, _ctx: &mut XAppCtx<'_>, ind: &Indication) -> Vec<ControlAction> {
        vec![ControlAction::SetSliceTarget {
            slice_id: 0,
            target_bps: ind.slot as f64,
        }]
    }
}

#[test]
fn hostile_xapp_builds_are_struck_out_and_rolled_back() {
    let good = steering_wasm(7);
    let mut ric = NearRtRic::new();
    ric.add_wasm_xapp("steer", &good).expect("good build loads");
    ric.add_xapp(Box::new(Native));

    let mut slot = 0;
    let mut turn = |ric: &mut NearRtRic| {
        slot += 1;
        let ind = Indication {
            slot,
            reports: vec![KpiReport {
                ue_id: 70,
                slice_id: 0,
                cqi: 3,
                mcs: 4,
                buffer_bytes: 1000,
                tput_bps: 1e5,
            }],
        };
        let native = ControlAction::SetSliceTarget {
            slice_id: 0,
            target_bps: slot as f64,
        };
        (ric.handle_indication(&ind), native)
    };
    let steered = ControlAction::Handover {
        ue_id: 70,
        target_cell: 7,
    };

    // The good build serves a turn, which makes it the slot's last-good.
    let (actions, native) = turn(&mut ric);
    assert_eq!(actions, vec![steered, native]);

    let hostile = [compile(TRAPPING), compile(FUEL_BURNER)];
    for bad in &hostile {
        ric.add_wasm_xapp("steer", bad)
            .expect("hostile build loads");
        // besteffort strikes out after eight consecutive faults; the
        // native xApp keeps its turn through every one of them.
        for _ in 0..8 {
            let (actions, native) = turn(&mut ric);
            assert_eq!(actions, vec![native]);
        }
        // The rollback is adopted at the next turn: the good build acts.
        let (actions, native) = turn(&mut ric);
        assert_eq!(actions, vec![steered, native]);
    }

    assert_eq!(ric.xapp_faults(), 16);
    let plugins = ric.plugins();
    let health = plugins.health("steer").expect("slot exists");
    assert_eq!(health.strikes.trap, 8);
    assert_eq!(health.strikes.fuel_exhausted, 8);
    assert_eq!(health.rollbacks, 2);
    // Two pushes and two rollbacks, all through the epoch path.
    assert_eq!(health.swaps, 4);
    assert_eq!(plugins.content_hash("steer"), Some(fnv1a(&good)));
    let log = plugins.rollback_log("steer").expect("slot exists");
    assert_eq!(log.len(), 2);
    for (event, bad) in log.iter().zip(&hostile) {
        assert_eq!(event.from_hash, Some(fnv1a(bad)));
        assert_eq!(event.to_hash, Some(fnv1a(&good)));
        assert_eq!(event.consecutive_faults, 8);
        assert_eq!(event.class, GovernanceClass::BestEffort);
    }
}

/// Every cell hosts a Wasm steering xApp toward its neighbour and a Wasm
/// xApp that serves three indications and traps from the fourth on, so
/// it is struck out and quarantined mid-run.
fn wasm_xapp_attachment() -> RicAttachment {
    let steering: Vec<Vec<u8>> = (0..CELLS as u32)
        .map(|cell| steering_wasm((cell + 1) % CELLS as u32))
        .collect();
    let flaky = compile(
        r#"global seen: i32 = 0;
           export fn on_indication(ptr: i32, len: i32) -> i64 {
               seen = seen + 1;
               if (seen >= 4) { trap(); }
               return pack(0, 0);
           }"#,
    );
    RicAttachment::new(
        Box::new(|| Box::new(TlvCodec)),
        Box::new(move |cell| {
            let mut ric = NearRtRic::new();
            ric.add_wasm_xapp("steer", &steering[cell as usize])
                .expect("steering loads");
            ric.add_wasm_xapp("flaky", &flaky).expect("flaky loads");
            ric
        }),
    )
    .report_period_slots(20)
}

#[test]
fn wasm_xapp_fleet_with_a_trapping_xapp_is_worker_count_deterministic() {
    let run = |workers| {
        deployment(0.3)
            .ric(wasm_xapp_attachment())
            .build()
            .expect("deployment builds")
            .run(workers)
    };
    let one = run(1);
    let ric = one.ric.as_ref().expect("plane report present");
    assert_eq!(one.faulted_cells(), 0);
    assert!(ric.applied_handovers > 0, "the Wasm steering xApps act");
    let faults = ric.service.xapp_faults;
    assert!(faults > 0, "the flaky xApps fault");
    for workers in [2, 8] {
        let other = run(workers);
        assert_eq!(
            one.cell_digests(),
            other.cell_digests(),
            "{workers} workers"
        );
        let other_ric = other.ric.as_ref().expect("plane report present");
        assert_eq!(other_ric.service.xapp_faults, faults, "{workers} workers");
        assert_eq!(other_ric.applied_handovers, ric.applied_handovers);
    }
}
