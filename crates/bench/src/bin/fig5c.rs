//! Fig. 5c — Memory increase: leaky scheduler in the sandbox vs native.
//!
//! Paper setup (§5.D): a scheduler that allocates memory on every
//! invocation without freeing it. Run as a Wasm plugin the gNB's memory
//! stays stable (the sandbox's linear memory is bounded by policy); run
//! natively the host leaks linearly.
//!
//! The Wasm side below is the real thing: the leaky plugin executes on the
//! VM with an 8 MiB page cap and we sample its linear-memory footprint
//! every second. The "native" side is an accounting model (4 KiB leaked
//! per slot, exactly what the plugin attempts) — actually leaking ~330 MiB
//! in a test harness would prove nothing extra and punish CI.
//!
//! Run with: `cargo run -p waran-bench --release --bin fig5c`

use waran_bench::{banner, f1, sparkline, table, write_csv};
use waran_core::plugins;
use waran_core::{ScenarioBuilder, SchedKind, SliceSpec};
use waran_host::plugin::SandboxPolicy;

fn main() {
    banner(
        "Fig. 5c",
        "Memory increase over 80 s: leaky plugin (sandboxed) vs native leak",
    );

    let seconds = 80usize;
    let leak_per_slot: u64 = 4096; // what the leaky scheduler allocates
    let slots_per_sec = 1000u64;

    // Sandbox side: a gNB whose slice scheduler is the leaky plugin, memory
    // capped at 128 pages (8 MiB).
    let mut scenario = ScenarioBuilder::new()
        .slice(
            SliceSpec::new("mvno", SchedKind::RoundRobin)
                .target_mbps(10.0)
                .ues(2),
        )
        .seconds(seconds as f64)
        .sandbox_policy(SandboxPolicy {
            max_memory_pages: 128,
            ..SandboxPolicy::realtime()
        })
        .build()
        .expect("scenario builds");
    let leaky = plugins::compile_faulty(plugins::faulty::LEAKY);
    scenario
        .swap_plugin_bytes("mvno", &leaky)
        .expect("leaky plugin installs");

    println!("running the leaky scheduler as a sandboxed plugin for {seconds} s…\n");

    let mut rows = Vec::new();
    let mut wasm_series = Vec::new();
    let mut native_series = Vec::new();
    for sec in 0..seconds {
        scenario.run_slots(slots_per_sec);
        let wasm_mib =
            scenario.plugin_host().memory_bytes("mvno").unwrap_or(0) as f64 / (1024.0 * 1024.0);
        // Native model: the same allocation pattern with no sandbox to
        // bound it — linear growth, as the paper measured on the host.
        let native_mib =
            ((sec as u64 + 1) * slots_per_sec * leak_per_slot) as f64 / (1024.0 * 1024.0);
        wasm_series.push(wasm_mib);
        native_series.push(native_mib);
        rows.push(vec![format!("{}", sec + 1), f1(wasm_mib), f1(native_mib)]);
    }

    let header = ["t[s]", "plugin[MiB]", "native[MiB]"];
    let printed: Vec<Vec<String>> = rows.iter().step_by(8).cloned().collect();
    table(&header, &printed);
    write_csv("fig5c.csv", &header, &rows);

    println!("\nshape check:");
    println!("  plugin  {}", sparkline(&wasm_series));
    println!("  native  {}", sparkline(&native_series));

    let report = scenario.report();
    let slice = report.slice("mvno").expect("slice");
    let wasm_final = *wasm_series.last().expect("non-empty");
    let native_final = *native_series.last().expect("non-empty");

    println!("\nsummary:");
    println!(
        "  plugin linear memory after {seconds} s: {:.1} MiB (bounded by \
         min(module max 1 MiB, host cap 8 MiB); growth beyond it traps)",
        wasm_final
    );
    println!(
        "  native model after {seconds} s:        {:.1} MiB (unbounded)",
        native_final
    );
    println!(
        "  gNB service while the plugin leaked:  {:.1} Mb/s mean, {} faults absorbed by fallback",
        slice.mean_rate_mbps(),
        slice.scheduler_faults
    );

    let flat = wasm_final <= 8.1;
    let linear = native_final > 300.0;
    let alive = slice.mean_rate_mbps() > 5.0;
    println!(
        "\nresult: {}",
        if flat && linear && alive {
            "REPRODUCED — sandboxed memory stays flat at the cap while the \
             native model grows linearly; the gNB never stops serving (paper Fig. 5c)"
        } else {
            "MISMATCH — see summary above"
        }
    );
}
