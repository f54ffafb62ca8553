//! Quickstart: compile a PlugC plugin to WebAssembly, sandbox it, and use
//! it to schedule a slice on a simulated 5G gNB — the whole WA-RAN
//! pipeline in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use wa_ran::core::{ScenarioBuilder, SchedKind, SliceSpec};
use wa_ran::host::plugin::{Plugin, SandboxPolicy};
use wa_ran::wasm::instance::Linker;

fn main() {
    // ------------------------------------------------------------------
    // 1. Author a plugin in PlugC and compile it to a real .wasm module.
    // ------------------------------------------------------------------
    // The scheduler ABI's prelude supplies the request accessors (`req_n`,
    // `req_prbs`, `rec`) and the response writers (`write_header`,
    // `write_alloc`), rendered from the one declaration of the layout.
    let policy = r#"
        // An "every other UE" toy scheduler: serves UEs with even index.
        export fn schedule(req: i32, len: i32) -> i64 {
            var n: i32 = req_n(req);
            var prbs: i32 = req_prbs(req);
            var out: i32 = wrn_alloc(8 + n * 8);
            var written: i32 = 0;
            var i: i32 = 0;
            var share: i32 = prbs;
            if (n > 1) { share = prbs / ((n + 1) / 2); }
            while (i < n) {
                if (i % 2 == 0) {
                    // A UE record starts with the UE id.
                    write_alloc(out, written, load_i32(rec(req, i)), share, written);
                    written = written + 1;
                }
                i = i + 1;
            }
            write_header(out, written);
            return pack(out, 8 + written * 8);
        }
    "#;
    let source = format!("{}{policy}", wa_ran::abi::sched::plugc_prelude());
    let wasm = wa_ran::plugc::compile(&source).expect("PlugC compiles");
    println!("compiled PlugC → {} bytes of WebAssembly", wasm.len());

    // It is a genuine Wasm binary: decode + validate it like any runtime.
    let module = wa_ran::wasm::load_module(&wasm).expect("valid .wasm");
    println!(
        "module exports: {:?}",
        module
            .exports
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
    );

    // ------------------------------------------------------------------
    // 2. Sandbox it and call it directly through the byte ABI.
    // ------------------------------------------------------------------
    let mut plugin = Plugin::new(&wasm, &Linker::<()>::new(), (), SandboxPolicy::realtime())
        .expect("instantiates");
    let req = wa_ran::abi::sched::SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..4)
            .map(|i| wa_ran::abi::sched::UeInfo {
                ue_id: 70 + i,
                cqi: 12,
                mcs: 22,
                flags: 0,
                buffer_bytes: 100_000,
                avg_tput_bps: 1e6,
                prb_capacity_bits: 500.0,
            })
            .collect(),
    };
    let resp = plugin.call_sched(&req).expect("schedules");
    println!(
        "direct call: plugin allocated PRBs to UEs {:?}",
        resp.allocs.iter().map(|a| a.ue_id).collect::<Vec<_>>(),
    );

    // ------------------------------------------------------------------
    // 3. Run a full gNB scenario with a standard plugin from the library.
    // ------------------------------------------------------------------
    let mut scenario = ScenarioBuilder::new()
        .slice(
            SliceSpec::new("mvno-1", SchedKind::ProportionalFair)
                .target_mbps(12.0)
                .ues(3),
        )
        .seconds(2.0)
        .build()
        .expect("scenario builds");
    let report = scenario.run().expect("runs");
    let slice = report.slice("mvno-1").expect("slice exists");
    println!(
        "scenario: slice `{}` achieved {:.2} Mb/s against a 12 Mb/s target \
         ({} slots, {} faults)",
        slice.name,
        slice.mean_rate_mbps(),
        report.slots,
        slice.scheduler_faults,
    );
    let stats = scenario.plugin_stats("mvno-1").expect("stats");
    println!(
        "plugin exec time: p50 {:.1} µs, p99 {:.1} µs over {} timed of {} calls (slot budget: 1000 µs)",
        stats.p50_us(),
        stats.p99_us(),
        stats.samples(),
        stats.count(),
    );
}
