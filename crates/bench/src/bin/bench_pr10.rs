//! PR 10 evidence run: the million-UE traffic plane — struct-of-arrays
//! background state with aggregate-flow statistical multiplexing.
//!
//! Four sections, written to `BENCH_PR10.json`:
//!
//! 1. **Million-UE soak** — 500 cells × 2000 background UEs (1M total)
//!    under `PopulationModel::TwoTier`: every cell's massive plane
//!    multiplexes its population into one aggregate flow per slice and
//!    rotates a small foreground quota through full per-UE fidelity.
//!    The grid runs on 1/2/4/8 workers; per-cell digests (massive-plane
//!    counters folded in) must be bit-identical across worker counts,
//!    the fleet population ledger must stay exact (1M rows aggregated
//!    or promoted, none lost), and VmRSS must stay flat across runs.
//! 2. **Population-model ablation** — the same cells materialized
//!    per-UE vs two-tier, the slots/s ratio is the speedup the
//!    aggregate model buys at 2000 UEs/cell.
//! 3. **Gate snapshot** — repeats the `bench_pr7`/`bench_pr9`
//!    measurements (clean deployment slots/s + exec p99,
//!    snapshot instantiation p99, governance soak slots/s) so the older
//!    gates keep working against this artifact, and adds
//!    `massive_slots_per_sec` / `massive_bytes_scheduled_per_sec`: the
//!    million-UE deployment's throughput.
//!
//! Two lightweight argv modes support CI:
//!
//! * `bench_pr10 digests <workers>` runs the million-UE soak once and
//!   prints one `cell digest` line per cell, nothing else.
//! * `bench_pr10 gate <baseline.json>` re-runs the massive-plane
//!   throughput measurement and fails (exit 1) on regression beyond
//!   tolerance against the stored `gate.massive_slots_per_sec` — or
//!   when the baseline has no such key.
//!
//! Run with: `cargo run -p waran-bench --release --bin bench_pr10`

use std::time::Instant;

use waran_abi::sjson::Json;
use waran_bench::{banner, f1, load, table};
use waran_core::{
    plugins, CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder, PopulationModel,
    SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::plugin::SandboxPolicy;
use waran_host::{ExactQuantiles, Linker as HostLinker};

// ---- million-UE soak shape ----
const MASSIVE_CELLS: usize = 500;
const BG_UES_PER_CELL: u32 = 2000;
/// 2000 UEs × 4 kb/s = 8 Mb/s offered per cell, inside the 10 MHz
/// carrier's capacity at the massive plane's 100 m cell radius.
const BG_PER_UE_KBPS: f64 = 4.0;
const MASSIVE_SECONDS: f64 = 0.25;
const FOREGROUND_QUOTA: u32 = 2;
const ROTATION_PERIOD_SLOTS: u64 = 100;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---- ablation shape ----
const ABLATION_CELLS: usize = 4;
/// Long enough for the per-UE arm to complete a full round-robin
/// rotation over 2000 UEs (the rotation window advances one position
/// per slot, so a cycle is ~2000 slots) — at shorter horizons the
/// per-UE arm is all warm-up transient and the delivered-traffic
/// comparison is meaningless.
const ABLATION_SECONDS: f64 = 3.0;

// ---- gate contract (same semantics as bench_pr7/9: a rerun must
// stay above this fraction of the baseline, best of two) ----
const GATE_WORKERS: usize = 4;
const MASSIVE_GATE_WORKERS: usize = 8;
const GATE_TOLERANCE: f64 = 0.7;

/// The million-UE deployment: one massive-IoT slice per cell, 2000
/// background UEs each, Wasm round-robin serving the promoted
/// foreground tier.
fn massive_deployment() -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(MASSIVE_SECONDS)
        .base_seed(10_010)
        .population(PopulationModel::TwoTier {
            foreground_per_slice: FOREGROUND_QUOTA,
            rotation_period_slots: ROTATION_PERIOD_SLOTS,
        });
    for i in 0..MASSIVE_CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i:03}")).slice(
                SliceSpec::new("miot", SchedKind::RoundRobin)
                    .background(BG_UES_PER_CELL, BG_PER_UE_KBPS),
            ),
        );
    }
    b
}

fn run_massive(workers: usize) -> MultiCellReport {
    massive_deployment()
        .build()
        .expect("massive deployment builds")
        .run(workers)
}

/// The fleet population ledger and rotation schedule must be exact:
/// 1M rows all aggregated or promoted, promotion/demotion counts a pure
/// function of the slot count, bytes conserved up to the promoted-tier
/// slack.
fn assert_massive_invariants(report: &MultiCellReport) {
    assert_eq!(report.faulted_cells(), 0);
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

// ---------------------------------------------------------------------
// Section 2: population-model ablation.
// ---------------------------------------------------------------------

/// The same cells under either population model. Native scheduling on
/// both arms so the measured cost is the population model, not the
/// foreground backend.
fn ablation_deployment(model: PopulationModel) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(ABLATION_SECONDS)
        .base_seed(10_010)
        .population(model);
    for i in 0..ABLATION_CELLS {
        b = b.cell(
            CellSpec::new(&format!("cell{i}")).slice(
                SliceSpec::new("miot", SchedKind::RoundRobin)
                    .native()
                    .background(BG_UES_PER_CELL, BG_PER_UE_KBPS),
            ),
        );
    }
    b
}

fn run_ablation(model: PopulationModel) -> (f64, f64) {
    let report = ablation_deployment(model)
        .build()
        .expect("ablation deployment builds")
        .run(GATE_WORKERS);
    let delivered: u64 = report
        .cells
        .iter()
        .flat_map(|c| c.report.slices.iter())
        .map(|s| (s.mean_rate_mbps * ABLATION_SECONDS * 125_000.0) as u64)
        .sum();
    (
        report.total_slots as f64 / report.wall_seconds,
        delivered as f64,
    )
}

// ---------------------------------------------------------------------
// Section 3: gate measurements (bench_pr7/9 compatibility).
// ---------------------------------------------------------------------

/// The `bench_pr7`/`bench_pr9` clean deployment, byte for byte, so gate
/// numbers stay comparable across artifacts.
fn clean_deployment() -> MultiCellScenarioBuilder {
    let policies = [
        SchedKind::ProportionalFair,
        SchedKind::RoundRobin,
        SchedKind::MaxThroughput,
    ];
    let mut b = MultiCellScenarioBuilder::new().seconds(0.5).base_seed(6006);
    for i in 0..32 {
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

/// Clean-deployment half (4 workers, two runs). Slots/s
/// keeps the best run; the stored p99 keeps the *worse* run — the gate
/// ceiling is `baseline / tolerance`, so a lucky-fast baseline sample
/// would make every honest rerun look like a regression.
fn gate_clean_numbers() -> (f64, f64) {
    let mut slots_per_sec = 0.0f64;
    let mut exec_p99_us = 0.0f64;
    for _ in 0..2 {
        let report = clean_deployment()
            .sandbox_policy(SandboxPolicy::slot_budget())
            .build()
            .expect("deployment builds")
            .run(GATE_WORKERS);
        slots_per_sec = slots_per_sec.max(report.total_slots as f64 / report.wall_seconds);
        exec_p99_us = exec_p99_us.max(report.exec.p99_us());
    }
    (slots_per_sec, exec_p99_us)
}

/// Governance half of the `bench_pr9` gate: the hostile-churn soak
/// (strike budget 2, fuel-metered, two mid-run hostile pushes), best of
/// two.
fn gate_governance_slots_per_sec() -> f64 {
    let policy = SandboxPolicy {
        fuel_per_call: Some(200_000),
        deadline: None,
        quarantine_after: 2,
        ..SandboxPolicy::default()
    };
    let mut best = 0.0f64;
    for _ in 0..2 {
        let report = clean_deployment()
            .sandbox_policy(policy)
            .push_at(
                200,
                "embb",
                &plugins::compile_faulty(plugins::faulty::NULL_DEREF),
            )
            .push_at(
                300,
                "iot",
                &plugins::compile_faulty(plugins::faulty::FUEL_BURNER),
            )
            .build()
            .expect("deployment builds")
            .run(GATE_WORKERS);
        assert_eq!(report.faulted_cells(), 0);
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

/// Massive half: million-UE deployment throughput, best of two.
fn gate_massive_numbers() -> (f64, f64) {
    let mut slots = 0.0f64;
    let mut bytes = 0.0f64;
    for _ in 0..2 {
        let report = run_massive(MASSIVE_GATE_WORKERS);
        assert_massive_invariants(&report);
        let fresh = report.total_slots as f64 / report.wall_seconds;
        if fresh > slots {
            slots = fresh;
            bytes = report.bytes_scheduled_per_sec();
        }
    }
    (slots, bytes)
}

fn run_gate(baseline_path: &str) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let json = Json::decode(&text).expect("baseline is valid JSON");
    let Some(base) = json
        .get("gate")
        .and_then(|g| g.get("massive_slots_per_sec"))
        .and_then(Json::as_num)
    else {
        // Fail closed: a missing baseline key is a failure, not a skip.
        eprintln!("gate: FAIL — baseline {baseline_path} has no gate.massive_slots_per_sec");
        return 1;
    };
    let (fresh, bytes) = gate_massive_numbers();
    let floor = base * GATE_TOLERANCE;
    println!(
        "gate: massive slots/sec {fresh:.0} (baseline {base:.0}, floor {floor:.0}) \
         | {:.1} MB/s delivered",
        bytes / 1e6
    );
    if fresh < floor {
        eprintln!(
            "gate: FAIL — million-UE deployment throughput regressed below {:.0}% of baseline",
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
    // CI mode: per-cell digests (massive-plane counters folded in) of
    // the million-UE soak at one worker count.
    if args.len() == 3 && args[1] == "digests" {
        let workers: usize = args[2].parse().expect("digests <workers>");
        let report = run_massive(workers);
        assert_massive_invariants(&report);
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
        "BENCH_PR10",
        "million-UE traffic plane: struct-of-arrays state + aggregate-flow multiplexing",
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host CPUs visible to the runtime: {host_cpus}\n");

    // ---- million-UE soak: digest grid across worker counts ----
    println!(
        "{MASSIVE_CELLS}-cell deployment, {BG_UES_PER_CELL} background UEs per cell \
         ({} total), foreground quota {FOREGROUND_QUOTA}, rotation every \
         {ROTATION_PERIOD_SLOTS} slots, workers {WORKER_COUNTS:?}…\n",
        MASSIVE_CELLS * BG_UES_PER_CELL as usize
    );
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    let mut rss_samples = Vec::new();
    for &workers in &WORKER_COUNTS {
        let report = run_massive(workers);
        assert_massive_invariants(&report);
        let rss_kb = vm_rss_kb();
        let bg = report.background.expect("massive plane ran");
        rows.push(vec![
            workers.to_string(),
            format!("{:.0}", report.total_slots as f64 / report.wall_seconds),
            format!("{:.1}", report.bytes_scheduled_per_sec() / 1e6),
            format!("{:.1}", bg.scheduled_bytes as f64 / 1e6),
            bg.promotions.to_string(),
            bg.demotions.to_string(),
            format!("{}", rss_kb / 1024),
        ]);
        rss_samples.push(rss_kb);
        runs.push(report);
    }
    table(
        &[
            "workers",
            "slots/s",
            "delivered MB/s",
            "bg sched MB",
            "promotions",
            "demotions",
            "RSS MiB",
        ],
        &rows,
    );

    let digests = runs[0].cell_digests();
    let digests_identical = runs.iter().all(|r| r.cell_digests() == digests);
    assert!(
        digests_identical,
        "per-cell digests (massive-plane counters included) must be identical across \
         {WORKER_COUNTS:?} workers"
    );
    // Flat RSS: after the first run has warmed the allocator, repeated
    // million-UE runs must not grow the process.
    let rss_growth_kb = rss_samples.last().unwrap().saturating_sub(rss_samples[0]);
    let rss_flat = rss_growth_kb < 128 * 1024;
    assert!(
        rss_flat,
        "RSS grew {rss_growth_kb} KiB across million-UE runs — the SoA plane must be flat"
    );
    let bg = runs[0].background.unwrap();
    println!(
        "\n1M UEs ran to completion on every worker count; digests bit-identical across \
         workers {WORKER_COUNTS:?}: true; population ledger exact \
         ({} aggregated + {} promoted); RSS growth {rss_growth_kb} KiB",
        bg.active, bg.promoted
    );

    // ---- population-model ablation ----
    println!(
        "\n{ABLATION_CELLS} cells × {BG_UES_PER_CELL} UEs over {ABLATION_SECONDS} s, \
         per-UE vs two-tier (native scheduling)…"
    );
    let offered_bytes = ABLATION_CELLS as f64
        * f64::from(BG_UES_PER_CELL)
        * BG_PER_UE_KBPS
        * 1000.0
        * ABLATION_SECONDS
        / 8.0;
    let (per_ue_slots, per_ue_bytes) = run_ablation(PopulationModel::PerUe);
    let (two_tier_slots, two_tier_bytes) = run_ablation(PopulationModel::TwoTier {
        foreground_per_slice: FOREGROUND_QUOTA,
        rotation_period_slots: ROTATION_PERIOD_SLOTS,
    });
    let speedup = two_tier_slots / per_ue_slots;
    table(
        &["model", "slots/s", "delivered bytes", "of offered"],
        &[
            vec![
                "per-UE".into(),
                format!("{per_ue_slots:.0}"),
                format!("{per_ue_bytes:.0}"),
                format!("{:.1}%", 100.0 * per_ue_bytes / offered_bytes),
            ],
            vec![
                "two-tier".into(),
                format!("{two_tier_slots:.0}"),
                format!("{two_tier_bytes:.0}"),
                format!("{:.1}%", 100.0 * two_tier_bytes / offered_bytes),
            ],
        ],
    );
    println!("two-tier runs {speedup:.1}x faster at {BG_UES_PER_CELL} UEs/cell");

    // ---- gate snapshot ----
    let (gate_slots, gate_p99) = gate_clean_numbers();
    let gate_governance = gate_governance_slots_per_sec();
    let gate_inst = gate_instantiation_p99_us();
    let (gate_massive_slots, gate_massive_bytes) = gate_massive_numbers();
    println!(
        "\ngate snapshot: clean {gate_slots:.0} slots/s (exec p99 {gate_p99:.1} us), \
         governance {gate_governance:.0} slots/s, instantiation p99 {gate_inst:.2} us, \
         massive {gate_massive_slots:.0} slots/s ({:.1} MB/s delivered)",
        gate_massive_bytes / 1e6
    );

    // ---- emit BENCH_PR10.json ----
    let num3 = |v: f64| Json::Num((v * 1000.0).round() / 1000.0);
    let grid_json = WORKER_COUNTS
        .iter()
        .zip(runs.iter())
        .zip(rss_samples.iter())
        .map(|((&workers, r), &rss_kb)| {
            Json::obj(vec![
                ("workers", Json::Num(workers as f64)),
                ("slots_per_sec", num3(r.total_slots as f64 / r.wall_seconds)),
                ("bytes_scheduled_per_sec", num3(r.bytes_scheduled_per_sec())),
                ("wall_seconds", num3(r.wall_seconds)),
                ("rss_kb", Json::Num(rss_kb as f64)),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("pr", Json::Num(10.0)),
        (
            "title",
            Json::Str(
                "Million-UE traffic plane: struct-of-arrays UE state + aggregate-flow \
                 statistical multiplexing"
                    .into(),
            ),
        ),
        ("host_cpus", Json::Num(host_cpus as f64)),
        (
            "soak",
            Json::obj(vec![
                ("cells", Json::Num(MASSIVE_CELLS as f64)),
                ("background_ues_per_cell", Json::Num(BG_UES_PER_CELL as f64)),
                (
                    "total_ues",
                    Json::Num((MASSIVE_CELLS * BG_UES_PER_CELL as usize) as f64),
                ),
                ("per_ue_kbps", Json::Num(BG_PER_UE_KBPS)),
                ("seconds_per_cell", Json::Num(MASSIVE_SECONDS)),
                ("foreground_quota", Json::Num(FOREGROUND_QUOTA as f64)),
                (
                    "rotation_period_slots",
                    Json::Num(ROTATION_PERIOD_SLOTS as f64),
                ),
                ("population", Json::Num(bg.population as f64)),
                ("promotions", Json::Num(bg.promotions as f64)),
                ("demotions", Json::Num(bg.demotions as f64)),
                ("offered_bytes", Json::Num(bg.offered_bytes as f64)),
                ("scheduled_bytes", Json::Num(bg.scheduled_bytes as f64)),
                ("per_cell_digests_identical", Json::Bool(digests_identical)),
                ("rss_growth_kb", Json::Num(rss_growth_kb as f64)),
                ("rss_flat", Json::Bool(rss_flat)),
                ("grid", Json::Arr(grid_json)),
            ]),
        ),
        (
            "ablation",
            Json::obj(vec![
                ("cells", Json::Num(ABLATION_CELLS as f64)),
                ("ues_per_cell", Json::Num(BG_UES_PER_CELL as f64)),
                ("seconds", Json::Num(ABLATION_SECONDS)),
                ("offered_bytes", Json::Num(offered_bytes)),
                ("per_ue_slots_per_sec", num3(per_ue_slots)),
                ("two_tier_slots_per_sec", num3(two_tier_slots)),
                ("speedup", num3(speedup)),
                (
                    "per_ue_delivered_fraction",
                    num3(per_ue_bytes / offered_bytes),
                ),
                (
                    "two_tier_delivered_fraction",
                    num3(two_tier_bytes / offered_bytes),
                ),
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
                ("massive_workers", Json::Num(MASSIVE_GATE_WORKERS as f64)),
                ("massive_slots_per_sec", num3(gate_massive_slots)),
                ("massive_bytes_scheduled_per_sec", num3(gate_massive_bytes)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_PR10.json", json.encode_pretty()).expect("write BENCH_PR10.json");
    println!("\n[json written to BENCH_PR10.json]");

    println!(
        "\nresult: {}",
        if digests_identical && rss_flat {
            "OK — 1M UEs multiplexed through per-slice aggregate flows, per-cell digests \
             bit-identical across 1/2/4/8 workers, population ledger exact, RSS flat"
        } else {
            "MISMATCH — see rows above"
        }
    );
    println!(
        "note: million-UE deployment throughput {} slots/s, {:.1} MB/s delivered",
        f1(gate_massive_slots),
        gate_massive_bytes / 1e6
    );
}
