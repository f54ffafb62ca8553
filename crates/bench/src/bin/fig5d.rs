//! Fig. 5d — Plugin execution time vs the slot budget.
//!
//! Paper setup (§5.E): measure the execution time of the MT/PF/RR
//! scheduler plugins with 1, 10 and 20 UEs connected, including the
//! serialization/deserialization overhead on the gNB host, and report the
//! 50th and 99th percentiles against the 1000 µs slot duration. The UE
//! axis continues past the paper's 20 to 500 per slice, and the first UE
//! count at which each policy's p99 crosses 10 % and 50 % of the slot (the
//! knee) is reported. Each row also times the native ransim scheduler of
//! the same policy on the same requests (the sandbox tax, ablation A1),
//! in batches of calls because a native call is too short to time alone:
//! its p50 and the Wasm/native p50 factor.
//!
//! Run with: `cargo run -p waran-bench --release --bin fig5d`
//!
//! `fig5d --fuel` prints, instead of timings, the fuel each configuration
//! retires per call (instructions plus each activation's price, what
//! `ExecStats::instrs` counts) — exact and host-independent, so it is
//! committed as `crates/bench/fig5d_fuel.golden` and diffed by
//! `scripts/check.sh`: a plugin or PlugC change that makes the guest do
//! more work shows as a hunk naming policy and UE count.

use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse, UeInfo};
use waran_bench::{banner, f1, table, write_csv};
use waran_core::plugins;
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_host::ExecTimeStats;
use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_wasm::instance::Linker;

const SLOT_US: f64 = 1000.0;
const UE_COUNTS: [usize; 7] = [1, 10, 20, 50, 100, 200, 500];
const ITERATIONS: u64 = 20_000;
const WARMUP: u64 = 1_000;
/// Native calls timed per sample; divides `WARMUP` and `ITERATIONS`.
const NATIVE_BATCH: u64 = 100;
/// Calls averaged by `--fuel`: a multiple of every UE count, so RR's
/// rotation completes whole turns.
const FUEL_CALLS: u64 = 1_000;

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

/// Fresh instance per configuration, under the default policy: fuel
/// metering on (production setting) with a budget no row comes near.
fn instantiate(wasm: &[u8]) -> Plugin<()> {
    Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
        .expect("stock plugin instantiates")
}

/// Times of `call` over one configuration's requests, warm-up excluded:
/// one sample per `batch` consecutive calls, their mean. The Wasm rows
/// time each call (`batch` 1), as the paper does; a native scheduler call
/// at a few UEs takes under 100 ns, close to the cost of the clock reads
/// themselves, so the native rows are timed [`NATIVE_BATCH`] calls to a
/// sample.
/// Responses are checked after the clock stops; `Err` carries the fault
/// that ended the run.
fn measure<E: std::fmt::Display>(
    n_ues: usize,
    batch: u64,
    mut call: impl FnMut(&SchedRequest) -> Result<SchedResponse, E>,
) -> Result<ExecTimeStats, String> {
    let mut acc = ExecTimeStats::new();
    let mut resps = Vec::with_capacity(batch as usize);
    for first in (0..(WARMUP + ITERATIONS)).step_by(batch as usize) {
        let reqs: Vec<_> = (first..first + batch)
            .map(|slot| make_request(slot, n_ues))
            .collect();
        resps.clear();
        let start = Instant::now();
        resps.extend(reqs.iter().map(&mut call));
        let elapsed = start.elapsed();
        for (slot, resp) in (first..).zip(resps.drain(..)) {
            let resp = resp.map_err(|e| format!("slot {slot}: {e}"))?;
            assert!(resp.total_prbs() <= 52);
        }
        if first >= WARMUP {
            acc.record(elapsed / batch as u32);
        }
    }
    Ok(acc)
}

/// First UE count on the axis whose p99 reaches `pct` % of the slot.
fn knee(p99_by_ues: &[(usize, f64)], pct: f64) -> String {
    p99_by_ues
        .iter()
        .find(|(_, p99)| *p99 >= SLOT_US * pct / 100.0)
        .map_or_else(
            || format!("> {}", UE_COUNTS[UE_COUNTS.len() - 1]),
            |(n, _)| n.to_string(),
        )
}

fn print_fuel(policies: &[(&str, &[u8])]) {
    println!(
        "# retired instructions and call prices per call (one guest entry: schedule), mean of {FUEL_CALLS} calls"
    );
    for (name, wasm) in policies {
        for &n_ues in &UE_COUNTS {
            let mut plugin = instantiate(wasm);
            for slot in 0..FUEL_CALLS {
                plugin
                    .call_sched(&make_request(slot, n_ues))
                    .expect("stock plugin schedules the figure's request");
            }
            let per_call = plugin.instance().stats().instrs as f64 / FUEL_CALLS as f64;
            println!("{name} ues={n_ues} instrs_per_call={per_call:.1}");
        }
    }
}

/// The native ransim scheduler of each figure policy.
fn native(policy: &str) -> Box<dyn SliceScheduler> {
    match policy {
        "MT" => Box::new(MaxThroughput::new()),
        "PF" => Box::new(ProportionalFair::new()),
        _ => Box::new(RoundRobin::new()),
    }
}

fn main() {
    let policies: [(&str, &[u8]); 3] = [
        ("MT", plugins::mt_wasm()),
        ("PF", plugins::pf_wasm()),
        ("RR", plugins::rr_wasm()),
    ];
    if std::env::args().nth(1).as_deref() == Some("--fuel") {
        print_fuel(&policies);
        return;
    }

    banner(
        "Fig. 5d",
        "Plugin execution time incl. serialization (slot budget: 1000 µs)",
    );
    println!("measuring {ITERATIONS} scheduled slots per (plugin, UE-count) configuration…\n");

    let mut rows = Vec::new();
    let mut knees = Vec::new();
    let mut worst_p99: f64 = 0.0;
    for (name, wasm) in policies {
        let mut p99_by_ues = Vec::new();
        for &n_ues in &UE_COUNTS {
            let mut row = vec![name.to_string(), format!("{n_ues}")];
            // Measured exactly as the paper: host-side encode, sandbox
            // call, host-side decode.
            let mut plugin = instantiate(wasm);
            let wasm_times = measure(n_ues, 1, |req| plugin.call_sched(req));
            let mut sched = native(name);
            let native_p50 = measure(n_ues, NATIVE_BATCH, |req| sched.schedule(req))
                .expect("native scheduler schedules the figure's request")
                .p50_us();
            // A configuration that faults is over budget by definition:
            // it gets a row and counts as crossing every threshold.
            let p99 = match wasm_times {
                Ok(acc) => {
                    let p99 = acc.p99_us();
                    row.extend([
                        f1(acc.p50_us()),
                        f1(p99),
                        f1(acc.mean_us()),
                        f1(acc.max_us()),
                        f1(100.0 * p99 / SLOT_US),
                        format!("{native_p50:.3}"),
                        format!("{:.0}×", acc.p50_us() / native_p50),
                    ]);
                    p99
                }
                Err(fault) => {
                    eprintln!("{name} @ {n_ues} UEs faulted: {fault}");
                    row.extend(["FAULT", "FAULT", "-", "-", "> 100"].map(String::from));
                    row.extend([format!("{native_p50:.3}"), "-".into()]);
                    f64::INFINITY
                }
            };
            worst_p99 = worst_p99.max(p99);
            p99_by_ues.push((n_ues, p99));
            rows.push(row);
        }
        knees.push(vec![
            name.to_string(),
            knee(&p99_by_ues, 10.0),
            knee(&p99_by_ues, 50.0),
        ]);
    }

    let header = [
        "plugin",
        "UEs",
        "p50[µs]",
        "p99[µs]",
        "mean[µs]",
        "max[µs]",
        "p99 %slot",
        "native p50[µs]",
        "Wasm/native p50",
    ];
    table(&header, &rows);
    write_csv("fig5d.csv", &header, &rows);

    println!("\nknee — first UE count whose p99 reaches a share of the slot:\n");
    table(&["plugin", "10 % of slot", "50 % of slot"], &knees);

    println!(
        "\nresult: {}",
        if worst_p99 < SLOT_US {
            "REPRODUCED — every configuration's p99 is below the 1000 µs slot, \
             up to 500 UEs (paper Fig. 5d, at 1-20 UEs: Wasm plugins meet 5G real-time budgets)"
        } else {
            "MISMATCH — a configuration exceeded the slot budget"
        }
    );
    println!(
        "note: absolute numbers differ from the paper's testbed (interpreter vs \
         Extism-on-NUC); the claim under test is p99 ≪ slot duration and growth with UE count."
    );
}
