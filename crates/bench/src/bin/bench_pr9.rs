//! PR 9 evidence run: the governance / quarantine ops plane at fleet
//! scale — strike accounting, automatic rollback to last-good, and
//! panic-proof fault paths.
//!
//! Three sections, written to `BENCH_PR9.json`:
//!
//! 1. **Hostile churn soak** — the 32-cell deployment with two hostile
//!    mid-run pushes: a null-pointer-dereference scheduler into `embb`
//!    at slot 200 and a fuel burner into `iot` at slot 300, governance
//!    on (strike budget 2, fuel-metered). Every cell must strike the
//!    bad module out and auto-roll back to the retained last-good
//!    module: per-cell `rollbacks == 2`, exactly two trap strikes and
//!    two fuel strikes, no slice left quarantined, no cell faulted —
//!    and the per-cell digests (which fold the governance counters)
//!    must be bit-identical across 1/2/4/8 workers.
//! 2. **Rollback churn RSS** — thousands of push → strike-out →
//!    rollback cycles against one host slot with VmRSS sampled
//!    before/after: the ops plane (rollback log included) must not grow
//!    node memory.
//! 3. **Gate snapshot** — repeats the `bench_pr7` clean deployment
//!    measurement (4 workers: `{slots_per_sec, exec_p99_us}`) plus
//!    `instantiation_p99_us` so
//!    the older gates keep working against this artifact, and adds
//!    `governance_slots_per_sec`: the hostile-churn deployment's
//!    throughput, gating the cost of strike/rollback bookkeeping.
//!
//! Two lightweight argv modes support CI:
//!
//! * `bench_pr9 digests <workers>` runs the hostile churn soak once and
//!   prints one `cell digest` line per cell, nothing else.
//! * `bench_pr9 gate <baseline.json>` re-runs the governance-throughput
//!   measurement and fails (exit 1) on regression beyond tolerance
//!   against the stored `gate.governance_slots_per_sec` — or when the
//!   baseline has no such key.
//!
//! Run with: `cargo run -p waran-bench --release --bin bench_pr9`

use std::time::Instant;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_abi::sjson::Json;
use waran_bench::{banner, f1, load, table};
use waran_core::{
    install_plugin, plugins, CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder,
    SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::plugin::SandboxPolicy;
use waran_host::{ExactQuantiles, Linker as HostLinker, PluginHost};

const CELLS: usize = 32;
const SECONDS: f64 = 0.5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Simulated slot at which the hostile scheduler lands in every cell's
/// `embb` slice (mid-run, after the incumbent has proven itself).
const PUSH_EMBB_SLOT: u64 = 200;
/// Slot of the fuel-burner push into `iot`.
const PUSH_IOT_SLOT: u64 = 300;
/// Strike budget the soak runs with: two consecutive faults cross it.
const STRIKE_BUDGET: u32 = 2;
/// Worker count and tolerance of the gate snapshot (same contract as
/// `bench_pr7`: a rerun must stay above this fraction of the baseline,
/// best of two runs).
const GATE_WORKERS: usize = 4;
const GATE_TOLERANCE: f64 = 0.7;

/// Governance policy of the soak. Fuel-metered but deadline-free: a
/// wall-clock deadline classifies faults by host speed (deadline vs
/// fuel), and the digest grid needs fault kinds to be a pure function of
/// the simulation state.
fn governance_policy() -> SandboxPolicy {
    SandboxPolicy {
        fuel_per_call: Some(200_000),
        deadline: None,
        quarantine_after: STRIKE_BUDGET,
        ..SandboxPolicy::default()
    }
}

/// The `bench_pr7` deployment, byte for byte: 32 cells,
/// per-cell scheduler-policy mix, same seed — so gate numbers stay
/// comparable across artifacts.
fn deployment() -> MultiCellScenarioBuilder {
    let policies = [
        SchedKind::ProportionalFair,
        SchedKind::RoundRobin,
        SchedKind::MaxThroughput,
    ];
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(SECONDS)
        .base_seed(6006);
    for i in 0..CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i:02}"))
                .slice(
                    SliceSpec::new("embb", policies[i % policies.len()])
                        .target_mbps(8.0)
                        .ue(ChannelSpec::Static(11), TrafficSpec::FullBuffer)
                        .ue(ChannelSpec::Static(14), TrafficSpec::FullBuffer),
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
                        ),
                ),
        );
    }
    b
}

/// The hostile churn soak: both scheduled pushes, governance on.
fn run_soak(workers: usize) -> MultiCellReport {
    deployment()
        .sandbox_policy(governance_policy())
        .push_at(
            PUSH_EMBB_SLOT,
            "embb",
            &plugins::compile_faulty(plugins::faulty::NULL_DEREF),
        )
        .push_at(
            PUSH_IOT_SLOT,
            "iot",
            &plugins::compile_faulty(plugins::faulty::FUEL_BURNER),
        )
        .build()
        .expect("deployment builds")
        .run(workers)
}

/// Every cell must have struck the hostile modules out and recovered
/// onto the retained last-good schedulers. Panics (fails the bench) on
/// the first cell that did not.
fn assert_rollback_invariants(report: &MultiCellReport) {
    for cell in &report.cells {
        let g = &cell.governance;
        assert!(
            !cell.faulted,
            "{}: cell faulted under hostile push",
            cell.name
        );
        assert_eq!(
            g.rollbacks, 2,
            "{}: expected one rollback per hostile push, got {g:?}",
            cell.name
        );
        assert_eq!(
            g.strikes.trap, STRIKE_BUDGET as u64,
            "{}: embb strike count off, got {g:?}",
            cell.name
        );
        assert_eq!(
            g.strikes.fuel_exhausted, STRIKE_BUDGET as u64,
            "{}: iot fuel-strike count off, got {g:?}",
            cell.name
        );
        assert_eq!(g.strikes.deadline, 0, "{}: deadline-free soak", cell.name);
        assert_eq!(
            g.quarantined_slices, 0,
            "{}: rollback must clear quarantine, got {g:?}",
            cell.name
        );
        assert_eq!(g.push_failures, 0, "{}: pushes must install", cell.name);
    }
    assert_eq!(report.faulted_cells(), 0);
}

// ---------------------------------------------------------------------
// Section 2: rollback churn, RSS flatness.
// ---------------------------------------------------------------------

fn vm_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

struct Churn {
    cycles: u64,
    rss_before_kb: u64,
    rss_after_kb: u64,
}

/// One governance cycle: operator pushes the good module, it proves
/// itself, a hostile push strikes out, the host auto-rolls back.
fn churn_cycle(host: &PluginHost<()>, good: &[u8], bad: &[u8], req: &SchedRequest) {
    let policy = governance_policy();
    install_plugin(host, "slot", good, policy).unwrap();
    assert!(host.call_sched("slot", req).is_ok());
    install_plugin(host, "slot", bad, policy).unwrap();
    for _ in 0..STRIKE_BUDGET {
        assert!(host.call_sched("slot", req).is_err());
    }
    // The rollback is staged; one call adopts it and serves again.
    assert!(host.call_sched("slot", req).is_ok());
}

fn run_churn() -> Churn {
    let host = PluginHost::new();
    let good = plugins::rr_wasm();
    let bad = plugins::compile_faulty(plugins::faulty::NULL_DEREF);
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 20,
        slice_id: 0,
        ues: (0..2)
            .map(|i| UeInfo {
                ue_id: 100 + i as u32,
                cqi: 10,
                mcs: 15,
                flags: 0,
                buffer_bytes: 1 << 20,
                avg_tput_bps: 1e6 * (i as f64 + 1.0),
                prb_capacity_bits: 400.0 + 50.0 * i as f64,
            })
            .collect(),
    };
    // Prime allocator, caches and the capped rollback log before the
    // baseline sample.
    for _ in 0..200 {
        churn_cycle(&host, good, &bad, &req);
    }
    let cycles = 5_000u64;
    let rss_before_kb = vm_rss_kb();
    for _ in 0..cycles {
        churn_cycle(&host, good, &bad, &req);
    }
    let rss_after_kb = vm_rss_kb();
    let health = host.health("slot").unwrap();
    assert_eq!(health.rollbacks, 200 + cycles);
    Churn {
        cycles,
        rss_before_kb,
        rss_after_kb,
    }
}

// ---------------------------------------------------------------------
// Section 3: gate measurements.
// ---------------------------------------------------------------------

/// Clean-deployment half (same shape as the `bench_pr7` gate: 4 workers,
/// best of two).
fn gate_clean_numbers() -> (f64, f64) {
    let mut slots_per_sec = 0.0f64;
    let mut exec_p99_us = f64::INFINITY;
    for _ in 0..2 {
        let report = deployment()
            .sandbox_policy(SandboxPolicy::slot_budget())
            .build()
            .expect("deployment builds")
            .run(GATE_WORKERS);
        slots_per_sec = slots_per_sec.max(report.total_slots as f64 / report.wall_seconds);
        exec_p99_us = exec_p99_us.min(report.exec.p99_us());
    }
    (slots_per_sec, exec_p99_us)
}

/// Governance half: hostile-churn deployment throughput, best of two.
fn gate_governance_slots_per_sec() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..2 {
        let report = run_soak(GATE_WORKERS);
        assert_rollback_invariants(&report);
        best = best.max(report.total_slots as f64 / report.wall_seconds);
    }
    best
}

/// Pooled snapshot-instantiation p99 over the scheduler corpus, so
/// `bench_pr7 gate` keeps its instantiation half against this artifact.
fn gate_instantiation_p99_us() -> f64 {
    let mut pool = ExactQuantiles::new();
    for wasm in [plugins::mt_wasm(), plugins::pf_wasm(), plugins::rr_wasm()] {
        let pre = HostLinker::<()>::new()
            .instantiate_pre(load(wasm), SandboxPolicy::default())
            .unwrap();
        let mut acc = ExactQuantiles::new();
        for i in 0..5_500u64 {
            let start = Instant::now();
            let plugin = pre.instantiate(()).unwrap();
            let elapsed = start.elapsed();
            assert!(plugin.has_export("schedule"));
            if i >= 500 {
                acc.record_duration(elapsed);
            }
        }
        pool.merge(&acc);
    }
    pool.quantile(0.99)
}

fn run_gate(baseline_path: &str) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let json = Json::decode(&text).expect("baseline is valid JSON");
    let Some(base) = json
        .get("gate")
        .and_then(|g| g.get("governance_slots_per_sec"))
        .and_then(Json::as_num)
    else {
        // Fail closed: a missing baseline key is a failure, not a skip.
        eprintln!("gate: FAIL — baseline {baseline_path} has no gate.governance_slots_per_sec");
        return 1;
    };
    let fresh = gate_governance_slots_per_sec();
    let floor = base * GATE_TOLERANCE;
    println!("gate: governance slots/sec {fresh:.0} (baseline {base:.0}, floor {floor:.0})");
    if fresh < floor {
        eprintln!(
            "gate: FAIL — hostile-churn deployment throughput regressed below {:.0}% of baseline",
            GATE_TOLERANCE * 100.0
        );
        1
    } else {
        println!("gate: OK");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // CI mode: per-cell digests (governance counters folded in) of the
    // hostile churn soak at one worker count.
    if args.len() == 3 && args[1] == "digests" {
        let workers: usize = args[2].parse().expect("digests <workers>");
        let report = run_soak(workers);
        assert_rollback_invariants(&report);
        for (cell, digest) in report.cells.iter().zip(report.cell_digests()) {
            println!("{} {digest:016x}", cell.name);
        }
        return;
    }
    // CI mode: perf-regression gate against a stored BENCH_*.json.
    if args.len() == 3 && args[1] == "gate" {
        std::process::exit(run_gate(&args[2]));
    }

    banner(
        "BENCH_PR9",
        "Quarantine ops plane: strikes, auto-rollback to last-good, panic-proof faults",
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host CPUs visible to the runtime: {host_cpus}\n");

    // ---- hostile churn soak: digest grid across worker counts ----
    println!(
        "{CELLS}-cell deployment, hostile pushes at slots {PUSH_EMBB_SLOT} (embb, null-deref) \
         and {PUSH_IOT_SLOT} (iot, fuel burner), workers {WORKER_COUNTS:?}…\n"
    );
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for &workers in &WORKER_COUNTS {
        let report = run_soak(workers);
        assert_rollback_invariants(&report);
        let total = report.governance();
        rows.push(vec![
            workers.to_string(),
            format!("{:.0}", report.total_slots as f64 / report.wall_seconds),
            total.rollbacks.to_string(),
            total.strikes.trap.to_string(),
            total.strikes.fuel_exhausted.to_string(),
            total.quarantined_slices.to_string(),
            report.faulted_cells().to_string(),
        ]);
        runs.push(report);
    }
    table(
        &[
            "workers",
            "slots/s",
            "rollbacks",
            "trap strikes",
            "fuel strikes",
            "quarantined",
            "faulted cells",
        ],
        &rows,
    );

    let digests = runs[0].cell_digests();
    let digests_identical = runs.iter().all(|r| r.cell_digests() == digests);
    assert!(
        digests_identical,
        "per-cell digests (governance counters included) must be identical across \
         {WORKER_COUNTS:?} workers"
    );
    let fleet = runs[0].governance();
    println!(
        "\nevery cell rolled back to last-good on both hostile pushes \
         ({} rollbacks fleet-wide); digests bit-identical across workers {WORKER_COUNTS:?}: true",
        fleet.rollbacks
    );

    // ---- rollback churn RSS ----
    println!("\npush -> strike-out -> rollback churn on one host slot…");
    let churn = run_churn();
    let growth_kb = churn.rss_after_kb.saturating_sub(churn.rss_before_kb);
    println!(
        "{} governance cycles: RSS {} KiB -> {} KiB (growth {growth_kb} KiB)",
        churn.cycles, churn.rss_before_kb, churn.rss_after_kb
    );
    let rss_flat = growth_kb < 16 * 1024;
    assert!(
        rss_flat,
        "RSS grew {growth_kb} KiB over {} rollback cycles — the ops plane must be flat",
        churn.cycles
    );

    // ---- gate snapshot ----
    let (gate_slots, gate_p99) = gate_clean_numbers();
    let gate_governance = gate_governance_slots_per_sec();
    let gate_inst = gate_instantiation_p99_us();
    println!(
        "\ngate snapshot: clean {gate_slots:.0} slots/s (exec p99 {gate_p99:.1} us), \
         governance {gate_governance:.0} slots/s, instantiation p99 {gate_inst:.2} us"
    );

    // ---- emit BENCH_PR9.json ----
    let num3 = |v: f64| Json::Num((v * 1000.0).round() / 1000.0);
    let grid_json = WORKER_COUNTS
        .iter()
        .zip(runs.iter())
        .map(|(&workers, r)| {
            Json::obj(vec![
                ("workers", Json::Num(workers as f64)),
                ("slots_per_sec", num3(r.total_slots as f64 / r.wall_seconds)),
                ("wall_seconds", num3(r.wall_seconds)),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("pr", Json::Num(9.0)),
        (
            "title",
            Json::Str(
                "Quarantine ops plane: strike accounting, auto-rollback to last-good, \
                 panic-proof fault paths at fleet scale"
                    .into(),
            ),
        ),
        ("host_cpus", Json::Num(host_cpus as f64)),
        (
            "soak",
            Json::obj(vec![
                ("cells", Json::Num(CELLS as f64)),
                ("seconds_per_cell", Json::Num(SECONDS)),
                (
                    "pushes",
                    Json::Arr(vec![
                        Json::obj(vec![
                            ("slot", Json::Num(PUSH_EMBB_SLOT as f64)),
                            ("slice", Json::Str("embb".into())),
                            ("plugin", Json::Str("null_deref".into())),
                        ]),
                        Json::obj(vec![
                            ("slot", Json::Num(PUSH_IOT_SLOT as f64)),
                            ("slice", Json::Str("iot".into())),
                            ("plugin", Json::Str("fuel_burner".into())),
                        ]),
                    ]),
                ),
                ("strike_budget", Json::Num(STRIKE_BUDGET as f64)),
                ("rollbacks", Json::Num(fleet.rollbacks as f64)),
                ("trap_strikes", Json::Num(fleet.strikes.trap as f64)),
                (
                    "fuel_strikes",
                    Json::Num(fleet.strikes.fuel_exhausted as f64),
                ),
                (
                    "quarantined_slices",
                    Json::Num(fleet.quarantined_slices as f64),
                ),
                ("faulted_cells", Json::Num(runs[0].faulted_cells() as f64)),
                ("per_cell_digests_identical", Json::Bool(digests_identical)),
                (
                    "cell_digests",
                    Json::Arr(
                        digests
                            .iter()
                            .map(|d| Json::Str(format!("{d:016x}")))
                            .collect(),
                    ),
                ),
                ("grid", Json::Arr(grid_json)),
            ]),
        ),
        (
            "churn",
            Json::obj(vec![
                ("cycles", Json::Num(churn.cycles as f64)),
                ("rss_before_kb", Json::Num(churn.rss_before_kb as f64)),
                ("rss_after_kb", Json::Num(churn.rss_after_kb as f64)),
                ("growth_kb", Json::Num(growth_kb as f64)),
                ("flat", Json::Bool(rss_flat)),
            ]),
        ),
        (
            "gate",
            Json::obj(vec![
                ("workers", Json::Num(GATE_WORKERS as f64)),
                ("slots_per_sec", num3(gate_slots)),
                ("exec_p99_us", num3(gate_p99)),
                ("instantiation_p99_us", num3(gate_inst)),
                ("governance_slots_per_sec", num3(gate_governance)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_PR9.json", json.encode_pretty()).expect("write BENCH_PR9.json");
    println!("\n[json written to BENCH_PR9.json]");

    println!(
        "\nresult: {}",
        if digests_identical && rss_flat {
            "OK — every cell struck the hostile modules out and auto-rolled back to \
             last-good, per-cell digests (governance counters folded in) are bit-identical \
             across 1/2/4/8 workers, and RSS stays flat under rollback churn"
        } else {
            "MISMATCH — see rows above"
        }
    );
    println!(
        "note: fleet-wide rollbacks {}, governance deployment throughput {} slots/s",
        fleet.rollbacks,
        f1(gate_governance)
    );
}
