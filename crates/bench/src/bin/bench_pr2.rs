//! PR 2 evidence run: the sharded multi-cell scenario engine.
//!
//! Three sections, written to `BENCH_PR2.json`:
//!
//! 1. **Scaling curve** — one 8-cell deployment executed with 1, 2, 4
//!    and 8 workers; aggregate throughput in scheduler-calls/sec and
//!    slots/sec per worker count.
//! 2. **Determinism** — per-cell report digests must be identical across
//!    every worker count before any throughput number is trusted.
//! 3. **Instance-pool throughput** — N threads, each owning one
//!    [`Plugin`] stamped from one shared [`PluginPre`] template,
//!    hammering `call_sched` with zero shared mutable state: the
//!    contention-free ceiling the engine's workers run against.
//!
//! Speedup is physical parallelism: on a single-CPU host the curve is
//! flat by construction, so the emitted `host_cpus` field records what
//! the numbers could possibly show and `meets_3x_bar` is only meaningful
//! when `host_cpus >= 4`.
//!
//! Run with: `cargo run -p waran-bench --release --bin bench_pr2`

use std::time::Instant;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_abi::sjson::Json;
use waran_bench::{banner, f1, f2, load, table};
use waran_core::{
    plugins, CellSpec, ChannelSpec, MultiCellReport, MultiCellScenario, MultiCellScenarioBuilder,
    SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_host::{Linker, PluginPre};

const CELLS: usize = 8;
const SECONDS: f64 = 1.0;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Millisecond-precision JSON number (keeps the artifact diffable).
fn num3(v: f64) -> Json {
    Json::Num((v * 1000.0).round() / 1000.0)
}

/// An 8-cell deployment with mixed policies and per-cell randomness:
/// every cell drives two Wasm-scheduled slices, so the engine's hot loop
/// is dominated by sandboxed scheduler calls.
fn deployment() -> MultiCellScenario {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(SECONDS)
        .base_seed(2024);
    for i in 0..CELLS {
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
                                pps: 300.0,
                                bytes: 1200,
                            },
                        ),
                ),
        );
    }
    b.build().expect("deployment builds")
}

fn make_request(slot: u64, n_ues: usize) -> SchedRequest {
    SchedRequest {
        slot,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..n_ues)
            .map(|i| UeInfo {
                ue_id: 70 + i as u32,
                cqi: 8 + (i % 8) as u8,
                mcs: 12 + (i % 16) as u8,
                flags: 0,
                buffer_bytes: 50_000 + 1000 * i as u32,
                avg_tput_bps: 1e6 * (1.0 + i as f64),
                prb_capacity_bits: 300.0 + 20.0 * i as f64,
            })
            .collect(),
    }
}

/// `threads` workers, each with its own instance stamped from one shared
/// template, each making `calls` scheduler calls. Returns aggregate
/// calls/sec.
fn pool_throughput(pre: &PluginPre<()>, threads: usize, calls: u64) -> f64 {
    let start = Instant::now();
    let pool: Vec<Plugin<()>> = (0..threads)
        .map(|_| pre.instantiate(()).expect("instance stamps"))
        .collect();
    std::thread::scope(|scope| {
        for mut plugin in pool {
            scope.spawn(move || {
                for slot in 0..calls {
                    let req = make_request(slot, 10);
                    let resp = plugin.call_sched(&req).expect("plugin schedules");
                    assert!(resp.total_prbs() <= 52);
                }
            });
        }
    });
    (threads as u64 * calls) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    banner(
        "BENCH_PR2",
        "sharded multi-cell engine: scaling curve + determinism + instance-pool ceiling",
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host CPUs visible to the runtime: {host_cpus}\n");

    // ---- scaling curve over worker counts ----
    println!("deployment: {CELLS} cells x {SECONDS} s of 1 ms slots, two Wasm slices per cell…\n");
    let mut runs: Vec<MultiCellReport> = Vec::new();
    let mut rows = Vec::new();
    for &workers in &WORKER_COUNTS {
        let report = deployment().run(workers);
        rows.push(vec![
            format!("{workers}"),
            format!("{}", report.total_sched_calls),
            format!("{}", report.total_slots),
            f2(report.wall_seconds),
            f1(report.sched_calls_per_sec()),
            f1(report.slots_per_sec()),
        ]);
        runs.push(report);
    }
    table(
        &[
            "workers",
            "sched calls",
            "slots",
            "wall[s]",
            "calls/s",
            "slots/s",
        ],
        &rows,
    );

    // ---- determinism across worker counts ----
    let digests = runs[0].cell_digests();
    let deterministic = runs.iter().all(|r| r.cell_digests() == digests);
    assert!(
        deterministic,
        "per-cell outputs diverged across worker counts"
    );
    println!(
        "\nper-cell digests identical across workers {{1, 2, 4, 8}}: {deterministic} \
         ({} cells, {} sched calls per run)",
        runs[0].cells.len(),
        runs[0].total_sched_calls
    );

    let base_rate = runs[0].sched_calls_per_sec();
    let speedups: Vec<f64> = runs
        .iter()
        .map(|r| r.sched_calls_per_sec() / base_rate)
        .collect();
    let speedup_4w = speedups[2];
    println!(
        "aggregate scheduler-call speedup vs sequential: {}",
        WORKER_COUNTS
            .iter()
            .zip(&speedups)
            .map(|(w, s)| format!("{w}w={s:.2}x"))
            .collect::<Vec<_>>()
            .join("  ")
    );

    // ---- instance-pool contention-free ceiling ----
    println!("\ninstance-pool throughput (one instance per thread, shared template)…");
    let pre = Linker::<()>::new()
        .instantiate_pre(load(plugins::pf_wasm()), SandboxPolicy::unmetered())
        .expect("template builds");
    let calls = 10_000u64;
    let mut pool_rows = Vec::new();
    let mut pool_points = Vec::new();
    for &threads in &WORKER_COUNTS {
        let rate = pool_throughput(&pre, threads, calls);
        pool_rows.push(vec![format!("{threads}"), f1(rate)]);
        pool_points.push(Json::obj(vec![
            ("threads", Json::Num(threads as f64)),
            ("calls_per_sec", num3(rate)),
        ]));
    }
    table(&["threads", "calls/s"], &pool_rows);

    // ---- emit BENCH_PR2.json ----
    let scaling = WORKER_COUNTS
        .iter()
        .zip(runs.iter())
        .zip(&speedups)
        .map(|((&workers, report), &speedup)| {
            Json::obj(vec![
                ("workers", Json::Num(workers as f64)),
                ("cells", Json::Num(report.cells.len() as f64)),
                (
                    "total_sched_calls",
                    Json::Num(report.total_sched_calls as f64),
                ),
                ("total_slots", Json::Num(report.total_slots as f64)),
                ("wall_seconds", num3(report.wall_seconds)),
                ("sched_calls_per_sec", num3(report.sched_calls_per_sec())),
                ("slots_per_sec", num3(report.slots_per_sec())),
                ("speedup_vs_sequential", num3(speedup)),
                ("exec_p50_us", num3(report.exec.p50_us())),
                ("exec_p99_us", num3(report.exec.p99_us())),
            ])
        })
        .collect();

    let meets_3x = speedup_4w >= 3.0;
    let json = Json::obj(vec![
        ("pr", Json::Num(2.0)),
        (
            "title",
            Json::Str(
                "Sharded multi-cell scenario engine: parallel slot execution with per-worker \
                 plugin instance pools"
                    .into(),
            ),
        ),
        ("host_cpus", Json::Num(host_cpus as f64)),
        (
            "note",
            Json::Str(
                "speedup is physical parallelism; on a host with fewer than 4 CPUs the 4-worker \
                 curve is flat by construction and meets_3x_bar reflects the host, not the engine"
                    .into(),
            ),
        ),
        (
            "scaling",
            Json::obj(vec![
                ("cells", Json::Num(CELLS as f64)),
                ("seconds_per_cell", Json::Num(SECONDS)),
                ("runs", Json::Arr(scaling)),
                ("speedup_4_workers", num3(speedup_4w)),
                ("meets_3x_bar", Json::Bool(meets_3x)),
            ]),
        ),
        (
            "determinism",
            Json::obj(vec![
                (
                    "worker_counts",
                    Json::Arr(WORKER_COUNTS.iter().map(|&w| Json::Num(w as f64)).collect()),
                ),
                ("per_cell_digests_identical", Json::Bool(deterministic)),
                (
                    "cell_digests",
                    Json::Arr(
                        digests
                            .iter()
                            .map(|d| Json::Str(format!("{d:016x}")))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "instance_pool",
            Json::obj(vec![
                ("calls_per_thread", Json::Num(calls as f64)),
                ("shared_modules_compiled", Json::Num(1.0)),
                ("points", Json::Arr(pool_points)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_PR2.json", json.encode_pretty()).expect("write BENCH_PR2.json");
    println!("\n[json written to BENCH_PR2.json]");

    println!(
        "\nresult: {}",
        if deterministic && (meets_3x || host_cpus < 4) {
            "OK — per-cell outputs are worker-count independent; scaling curve recorded \
             (see host_cpus for how much parallelism the host could express)"
        } else {
            "MISMATCH — see rows above"
        }
    );
}
