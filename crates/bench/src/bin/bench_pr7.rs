//! PR 7 evidence run: Linker + `InstancePre` + snapshot instantiation.
//!
//! Four sections, written to `BENCH_PR7.json`:
//!
//! 1. **Instantiation ablation** — per scheduler plugin, the per-instance
//!    spin-up latency of the three paths: *cold* (decode → validate →
//!    import resolution → segment init, per instance), *pre* (a
//!    [`PluginPre`] template with the snapshot disabled: imports resolved
//!    once, segment init per stamp) and *snap* (full template: stamp-out
//!    is a memcpy of the captured state). The headline number — and a
//!    hard assert — is snap p50 ≥ 10× faster than cold p50.
//! 2. **100-cell instantiation storm** — installing a three-policy plugin
//!    mix across 100 cells × 2 slices, cold vs template-cached, as wall
//!    time. This is the "operator pushes an xApp fleet-wide" moment the
//!    refactor exists for.
//! 3. **Stamp/drop churn** — tens of thousands of stamp-out + drop cycles
//!    from one snapshot template with VmRSS sampled before/after: the
//!    template must not leak per-stamp state.
//! 4. **Digest grid + gate snapshot** — the 32-cell deployment (first
//!    recorded in `BENCH_PR6.json`) under snapshot-on/off × {1, 2, 4, 8}
//!    workers: per-cell digests must be bit-identical across the whole
//!    grid, proving the snapshot path is observationally invisible. The
//!    gate object carries that artifact's `{slots_per_sec, exec_p99_us}`
//!    measurement (4 workers, same deployment) so older baselines keep
//!    gating, and adds `instantiation_p99_us` for the spin-up regression
//!    gate.
//!
//! Two lightweight argv modes support CI:
//!
//! * `bench_pr7 digests <workers> [on|off]` runs the deployment once with
//!   snapshot instantiation on or off (default `on`) and prints one
//!   `cell digest` line per cell, nothing else.
//! * `bench_pr7 gate <baseline.json>` re-runs the gate measurements and
//!   fails (exit 1) on slots/sec, exec-p99 or instantiation-p99
//!   regression beyond tolerance against the stored `gate` object — or
//!   when the baseline lacks that object or any of its three keys.
//!
//! Run with: `cargo run -p waran-bench --release --bin bench_pr7`

use std::time::Instant;

use waran_abi::sjson::Json;
use waran_bench::{banner, f1, f2, load, table};
use waran_core::{
    plugins, CellSpec, ChannelSpec, MultiCellReport, MultiCellScenarioBuilder, SchedKind,
    SliceSpec, TrafficSpec,
};
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_host::{ExactQuantiles, Linker as HostLinker, PluginPre, TemplateCache};
use waran_wasm::instance::Linker;

const CELLS: usize = 32;
const SECONDS: f64 = 0.5;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Worker count the gate snapshot is measured at (the same in every
/// `BENCH_PR6.json`-and-later artifact, so they gate against each other).
const GATE_WORKERS: usize = 4;
/// A rerun must stay within this fraction of the baseline for deployment
/// throughput and exec p99.
const GATE_TOLERANCE: f64 = 0.7;
/// Instantiation p99 lives at µs scale where shared-runner jitter is
/// proportionally larger, so its ceiling is looser: a rerun may grow to
/// 1/0.5 = 2x the baseline before the gate fails.
const INST_TOLERANCE: f64 = 0.5;

/// The plugin corpus: the three scheduler policies every deployment mixes.
fn corpus() -> [(&'static str, &'static [u8]); 3] {
    [
        ("MT", plugins::mt_wasm()),
        ("PF", plugins::pf_wasm()),
        ("RR", plugins::rr_wasm()),
    ]
}

/// Millisecond-precision JSON number (keeps the artifact diffable).
fn num3(v: f64) -> Json {
    Json::Num((v * 1000.0).round() / 1000.0)
}

// ---------------------------------------------------------------------
// Section 1: instantiation-path ablation.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Cold,
    Pre,
    Snap,
}

const PATHS: [Path; 3] = [Path::Cold, Path::Pre, Path::Snap];

fn path_name(path: Path) -> &'static str {
    match path {
        Path::Cold => "cold",
        Path::Pre => "pre",
        Path::Snap => "snap",
    }
}

struct AblationRow {
    plugin: &'static str,
    path: Path,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

/// Measure one instantiation path for one plugin. Every iteration ends
/// with a live, callable [`Plugin`] — the paths differ only in how much
/// of the work was hoisted into the template.
fn run_path(wasm: &[u8], path: Path, iterations: u64, acc: &mut ExactQuantiles) {
    let policy = SandboxPolicy::default();
    let pre = match path {
        Path::Cold => None,
        Path::Pre => {
            Some(PluginPre::with_snapshot(load(wasm), &Linker::<()>::new(), policy, false).unwrap())
        }
        Path::Snap => Some(
            HostLinker::<()>::new()
                .instantiate_pre(load(wasm), policy)
                .unwrap(),
        ),
    };
    let warmup = iterations / 10;
    for i in 0..(warmup + iterations) {
        let start = Instant::now();
        let plugin = match &pre {
            None => Plugin::new(wasm, &Linker::<()>::new(), (), policy).unwrap(),
            Some(pre) => pre.instantiate(()).unwrap(),
        };
        let elapsed = start.elapsed();
        assert!(plugin.has_export("schedule"));
        if i >= warmup {
            acc.record_duration(elapsed);
        }
        drop(plugin);
    }
}

fn run_ablation() -> (Vec<AblationRow>, f64) {
    let mut rows = Vec::new();
    let mut snap_pool = ExactQuantiles::new();
    for (name, wasm) in corpus() {
        for path in PATHS {
            // The cold path re-runs decode + validate per iteration and
            // is orders of magnitude slower; fewer iterations keep the
            // bench quick without starving the percentiles.
            let iterations = match path {
                Path::Cold => 2_000,
                _ => 20_000,
            };
            let mut acc = ExactQuantiles::new();
            run_path(wasm, path, iterations, &mut acc);
            if path == Path::Snap {
                snap_pool.merge(&acc);
            }
            rows.push(AblationRow {
                plugin: name,
                path,
                p50_us: acc.quantile(0.50),
                p99_us: acc.quantile(0.99),
                mean_us: acc.mean(),
            });
        }
    }
    let pooled_p99 = snap_pool.quantile(0.99);
    (rows, pooled_p99)
}

// ---------------------------------------------------------------------
// Section 2: 100-cell instantiation storm.
// ---------------------------------------------------------------------

const STORM_CELLS: usize = 100;

struct Storm {
    installs: usize,
    cold_ms: f64,
    snap_ms: f64,
}

/// Install a per-cell plugin mix (embb: MT/PF/RR round-robin by cell,
/// iot: RR) across 100 cells, once per path. Cold re-runs the whole
/// pipeline per install; the template path builds 4 templates and stamps
/// 200 instances.
fn run_storm() -> Storm {
    let mix = corpus();
    let policy = SandboxPolicy::default();
    let installs = STORM_CELLS * 2;

    let start = Instant::now();
    let mut live = Vec::with_capacity(installs);
    for cell in 0..STORM_CELLS {
        let (_, embb) = mix[cell % mix.len()];
        live.push(Plugin::new(embb, &Linker::<()>::new(), (), policy).unwrap());
        live.push(Plugin::new(plugins::rr_wasm(), &Linker::<()>::new(), (), policy).unwrap());
    }
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(live);

    let cache = TemplateCache::new();
    let linker = HostLinker::<()>::new();
    let start = Instant::now();
    let mut live = Vec::with_capacity(installs);
    for cell in 0..STORM_CELLS {
        let (_, embb) = mix[cell % mix.len()];
        live.push(
            cache
                .get_or_build(&linker, embb, policy)
                .unwrap()
                .instantiate(())
                .unwrap(),
        );
        live.push(
            cache
                .get_or_build(&linker, plugins::rr_wasm(), policy)
                .unwrap()
                .instantiate(())
                .unwrap(),
        );
    }
    let snap_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(live.len(), installs);
    assert_eq!(cache.len(), 3, "MT/PF/RR dedupe to three templates");

    Storm {
        installs,
        cold_ms,
        snap_ms,
    }
}

// ---------------------------------------------------------------------
// Section 3: stamp/drop churn under one snapshot template.
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
    iterations: u64,
    rss_before_kb: u64,
    rss_after_kb: u64,
}

fn run_churn() -> Churn {
    let pre = HostLinker::<()>::new()
        .instantiate_pre(load(plugins::pf_wasm()), SandboxPolicy::default())
        .unwrap();
    // Prime the allocator before the baseline sample.
    for _ in 0..1_000 {
        drop(pre.instantiate(()).unwrap());
    }
    let iterations = 30_000u64;
    let rss_before_kb = vm_rss_kb();
    for _ in 0..iterations {
        drop(pre.instantiate(()).unwrap());
    }
    let rss_after_kb = vm_rss_kb();
    Churn {
        iterations,
        rss_before_kb,
        rss_after_kb,
    }
}

// ---------------------------------------------------------------------
// Section 4: 32-cell deployment digest grid + gate.
// ---------------------------------------------------------------------

/// The deployment every `BENCH_PR6.json`-and-later gate measured, byte
/// for byte: 32 cells, per-cell policy mix, same seed — so the gate
/// numbers stay comparable across artifacts.
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

fn run_deployment(snapshot: bool, workers: usize) -> MultiCellReport {
    deployment()
        .sandbox_policy(SandboxPolicy {
            snapshot_instantiation: snapshot,
            ..SandboxPolicy::slot_budget()
        })
        .build()
        .expect("deployment builds")
        .run(workers)
}

// ---------------------------------------------------------------------
// Gate mode: compare a fresh run against the stored baseline.
// ---------------------------------------------------------------------

fn gate_deployment_numbers() -> (f64, f64) {
    // Best of two: on shared single-CPU runners a scheduler preemption
    // spike lands straight in one run's p99. A real regression shifts
    // both runs; a flake shifts one, and the better run still gates.
    let mut slots_per_sec = 0.0f64;
    let mut exec_p99_us = f64::INFINITY;
    for _ in 0..2 {
        let report = run_deployment(true, GATE_WORKERS);
        slots_per_sec = slots_per_sec.max(report.total_slots as f64 / report.wall_seconds);
        exec_p99_us = exec_p99_us.min(report.exec.p99_us());
    }
    (slots_per_sec, exec_p99_us)
}

/// A quick pooled snap-path instantiation p99 over the plugin corpus
/// (fewer iterations than the full ablation: the gate only needs the
/// order of magnitude to hold).
fn gate_instantiation_p99_us() -> f64 {
    let mut pool = ExactQuantiles::new();
    for (_, wasm) in corpus() {
        let mut acc = ExactQuantiles::new();
        run_path(wasm, Path::Snap, 5_000, &mut acc);
        pool.merge(&acc);
    }
    pool.quantile(0.99)
}

fn run_gate(baseline_path: &str) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let json = Json::decode(&text).expect("baseline is valid JSON");
    // Fail closed: a baseline the gate cannot read its keys from is a
    // failure, not a skip.
    let key = |k: &str| json.get("gate")?.get(k)?.as_num();
    let (Some(base_slots), Some(base_p99), Some(base_inst)) = (
        key("slots_per_sec"),
        key("exec_p99_us"),
        key("instantiation_p99_us"),
    ) else {
        eprintln!(
            "gate: FAIL — baseline {baseline_path} lacks gate.slots_per_sec, \
             gate.exec_p99_us or gate.instantiation_p99_us"
        );
        return 1;
    };
    let mut failed = false;

    // Deployment half.
    let (slots_per_sec, exec_p99_us) = gate_deployment_numbers();
    let slots_floor = base_slots * GATE_TOLERANCE;
    let p99_ceiling = base_p99 / GATE_TOLERANCE;
    println!(
        "gate: slots/sec {slots_per_sec:.0} (baseline {base_slots:.0}, floor {slots_floor:.0}) \
         | exec p99 {exec_p99_us:.1} us (baseline {base_p99:.1}, ceiling {p99_ceiling:.1})"
    );
    if slots_per_sec < slots_floor {
        eprintln!(
            "gate: FAIL — deployment throughput regressed below {:.0}% of baseline",
            GATE_TOLERANCE * 100.0
        );
        failed = true;
    }
    if exec_p99_us > p99_ceiling {
        eprintln!(
            "gate: FAIL — per-call exec p99 regressed beyond {:.2}x of baseline",
            1.0 / GATE_TOLERANCE
        );
        failed = true;
    }

    // Instantiation half.
    let inst_p99 = gate_instantiation_p99_us();
    let ceiling = base_inst / INST_TOLERANCE;
    println!(
        "gate: instantiation p99 {inst_p99:.2} us (baseline {base_inst:.2}, ceiling {ceiling:.2})"
    );
    if inst_p99 > ceiling {
        eprintln!(
            "gate: FAIL — snapshot instantiation p99 regressed beyond {:.1}x of baseline",
            1.0 / INST_TOLERANCE
        );
        failed = true;
    }

    if failed {
        1
    } else {
        println!("gate: OK");
        0
    }
}

fn parse_snapshot(s: &str) -> bool {
    match s {
        "on" => true,
        "off" => false,
        other => panic!("unknown snapshot mode `{other}` (want on|off)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // CI mode: print per-cell digests for one (workers, snapshot knob).
    if (args.len() == 3 || args.len() == 4) && args[1] == "digests" {
        let workers: usize = args[2].parse().expect("digests <workers> [on|off]");
        let snapshot = args.get(3).is_none_or(|s| parse_snapshot(s));
        let report = run_deployment(snapshot, workers);
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
        "BENCH_PR7",
        "Linker + InstancePre + snapshot instantiation: O(µs) plugin spin-up",
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host CPUs visible to the runtime: {host_cpus}\n");

    // ---- instantiation-path ablation ----
    println!("per-instance spin-up latency, cold vs template vs snapshot…\n");
    let (ablation, snap_pool_p99) = run_ablation();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for chunk in ablation.chunks(PATHS.len()) {
        let by_path = |p: Path| chunk.iter().find(|r| r.path == p).unwrap();
        let cold = by_path(Path::Cold);
        let pre = by_path(Path::Pre);
        let snap = by_path(Path::Snap);
        let speedup = cold.p50_us / snap.p50_us;
        speedups.push((cold.plugin, speedup));
        rows.push(vec![
            cold.plugin.to_string(),
            f1(cold.p50_us),
            f1(cold.p99_us),
            f1(pre.p50_us),
            f1(snap.p50_us),
            f2(snap.p99_us),
            format!("{speedup:.0}x"),
        ]);
    }
    table(
        &[
            "plugin",
            "cold p50[µs]",
            "cold p99[µs]",
            "pre p50[µs]",
            "snap p50[µs]",
            "snap p99[µs]",
            "cold/snap p50",
        ],
        &rows,
    );
    let min_speedup = speedups
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nsnapshot stamp-out vs cold decode/validate/init, worst plugin: {min_speedup:.0}x at p50"
    );
    let fast_enough = min_speedup >= 10.0;
    assert!(
        fast_enough,
        "snapshot instantiation must be >= 10x the cold path at p50, got {min_speedup:.1}x"
    );

    // ---- 100-cell storm ----
    println!("\n{STORM_CELLS}-cell instantiation storm (2 slices per cell)…\n");
    let storm = run_storm();
    let storm_speedup = storm.cold_ms / storm.snap_ms;
    table(
        &["path", "installs", "wall[ms]", "per-install[µs]"],
        &[
            vec![
                "cold".into(),
                storm.installs.to_string(),
                f2(storm.cold_ms),
                f1(storm.cold_ms * 1e3 / storm.installs as f64),
            ],
            vec![
                "template".into(),
                storm.installs.to_string(),
                f2(storm.snap_ms),
                f1(storm.snap_ms * 1e3 / storm.installs as f64),
            ],
        ],
    );
    println!("\nfleet install speedup: {storm_speedup:.0}x");

    // ---- stamp/drop churn, RSS flatness ----
    println!("\nstamp/drop churn from one snapshot template…");
    let churn = run_churn();
    let growth_kb = churn.rss_after_kb.saturating_sub(churn.rss_before_kb);
    println!(
        "{} stamp-out/drop cycles: RSS {} KiB -> {} KiB (growth {growth_kb} KiB)",
        churn.iterations, churn.rss_before_kb, churn.rss_after_kb
    );
    let rss_flat = growth_kb < 16 * 1024;
    assert!(
        rss_flat,
        "RSS grew {growth_kb} KiB over {} stamp/drop cycles — template churn must be flat",
        churn.iterations
    );

    // ---- digest grid: snapshot on/off × workers ----
    println!("\n{CELLS}-cell deployment, snapshot on/off x workers {WORKER_COUNTS:?}…\n");
    let mut grid_rows = Vec::new();
    let mut knob_runs: Vec<(bool, Vec<MultiCellReport>)> = Vec::new();
    for snapshot in [true, false] {
        let mut runs = Vec::new();
        for &workers in &WORKER_COUNTS {
            runs.push(run_deployment(snapshot, workers));
        }
        let row: Vec<String> = std::iter::once(if snapshot { "on" } else { "off" }.to_string())
            .chain(
                runs.iter()
                    .map(|r| format!("{:.0}", r.total_slots as f64 / r.wall_seconds)),
            )
            .collect();
        grid_rows.push(row);
        knob_runs.push((snapshot, runs));
    }
    table(
        &["snapshot", "slots/s @1w", "@2w", "@4w", "@8w"],
        &grid_rows,
    );

    let digests = knob_runs[0].1[0].cell_digests();
    let grid_identical = knob_runs
        .iter()
        .all(|(_, runs)| runs.iter().all(|r| r.cell_digests() == digests));
    assert!(
        grid_identical,
        "per-cell digests must be identical across every (snapshot, worker-count) pair"
    );
    println!(
        "\nper-cell digests bit-identical across snapshot {{on, off}} x workers \
         {WORKER_COUNTS:?}: true"
    );

    // ---- gate snapshot (4 workers) ----
    let (gate_slots, gate_p99) = gate_deployment_numbers();

    // ---- emit BENCH_PR7.json ----
    let ablation_json = ablation
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("plugin", Json::Str(r.plugin.into())),
                ("path", Json::Str(path_name(r.path).into())),
                ("p50_us", num3(r.p50_us)),
                ("p99_us", num3(r.p99_us)),
                ("mean_us", num3(r.mean_us)),
            ])
        })
        .collect();
    let speedups_json = speedups
        .iter()
        .map(|&(plugin, s)| Json::obj(vec![(plugin, num3(s))]))
        .collect();
    let grid_json = knob_runs
        .iter()
        .map(|(snapshot, runs)| {
            Json::obj(vec![
                ("snapshot", Json::Bool(*snapshot)),
                (
                    "runs",
                    Json::Arr(
                        WORKER_COUNTS
                            .iter()
                            .zip(runs.iter())
                            .map(|(&workers, r)| {
                                Json::obj(vec![
                                    ("workers", Json::Num(workers as f64)),
                                    ("slots_per_sec", num3(r.total_slots as f64 / r.wall_seconds)),
                                    ("wall_seconds", num3(r.wall_seconds)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("pr", Json::Num(7.0)),
        (
            "title",
            Json::Str(
                "Linker + InstancePre + snapshot instantiation: O(us) plugin spin-up for \
                 hundred-cell fleets"
                    .into(),
            ),
        ),
        ("host_cpus", Json::Num(host_cpus as f64)),
        (
            "instantiation",
            Json::obj(vec![
                ("rows", Json::Arr(ablation_json)),
                ("cold_vs_snap_p50", Json::Arr(speedups_json)),
                ("min_speedup_p50", num3(min_speedup)),
                ("snap_pooled_p99_us", num3(snap_pool_p99)),
            ]),
        ),
        (
            "storm",
            Json::obj(vec![
                ("cells", Json::Num(STORM_CELLS as f64)),
                ("installs", Json::Num(storm.installs as f64)),
                ("cold_wall_ms", num3(storm.cold_ms)),
                ("template_wall_ms", num3(storm.snap_ms)),
                ("speedup", num3(storm_speedup)),
            ]),
        ),
        (
            "churn",
            Json::obj(vec![
                ("iterations", Json::Num(churn.iterations as f64)),
                ("rss_before_kb", Json::Num(churn.rss_before_kb as f64)),
                ("rss_after_kb", Json::Num(churn.rss_after_kb as f64)),
                ("growth_kb", Json::Num(growth_kb as f64)),
                ("flat", Json::Bool(rss_flat)),
            ]),
        ),
        (
            "deployment",
            Json::obj(vec![
                ("cells", Json::Num(CELLS as f64)),
                ("seconds_per_cell", Json::Num(SECONDS)),
                ("per_cell_digests_identical", Json::Bool(grid_identical)),
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
            "gate",
            Json::obj(vec![
                ("workers", Json::Num(GATE_WORKERS as f64)),
                ("slots_per_sec", num3(gate_slots)),
                ("exec_p99_us", num3(gate_p99)),
                ("instantiation_p99_us", num3(snap_pool_p99)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_PR7.json", json.encode_pretty()).expect("write BENCH_PR7.json");
    println!("\n[json written to BENCH_PR7.json]");

    println!(
        "\nresult: {}",
        if fast_enough && grid_identical && rss_flat {
            "OK — snapshot stamp-out is >= 10x the cold path at p50 on every plugin, \
             per-cell digests are bit-identical across snapshot on/off and all worker \
             counts, and RSS stays flat under stamp/drop churn"
        } else {
            "MISMATCH — see rows above"
        }
    );
    println!(
        "note: worst-plugin cold/snap p50 speedup {}x, fleet storm speedup {}x",
        f1(min_speedup),
        f1(storm_speedup)
    );
}
