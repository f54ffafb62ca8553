//! Cross-crate integration tests: the full WA-RAN pipeline
//! (PlugC → Wasm → sandbox → gNB → RIC) exercised through the umbrella
//! crate's public API.

use wa_ran::abi::sched::{self, ue};
use wa_ran::core::{plugins, ChannelSpec, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec};
use wa_ran::host::plugin::{Plugin, SandboxPolicy};
use wa_ran::wasm::instance::Linker;

#[test]
fn paper_fig5a_shape_holds_in_miniature() {
    // A 6-second cut of the Fig. 5a experiment: three Wasm-scheduled MVNOs
    // with targets 3/12/15 Mb/s co-exist and track their targets.
    let mut scenario = ScenarioBuilder::new()
        .slice(
            SliceSpec::new("mt", SchedKind::MaxThroughput)
                .target_mbps(3.0)
                .ues(2),
        )
        .slice(
            SliceSpec::new("rr", SchedKind::RoundRobin)
                .target_mbps(12.0)
                .ues(3),
        )
        .slice(
            SliceSpec::new("pf", SchedKind::ProportionalFair)
                .target_mbps(15.0)
                .ues(3),
        )
        .seconds(6.0)
        .seed(2)
        .build()
        .expect("scenario builds");
    let report = scenario.run().expect("runs");
    for (name, target) in [("mt", 3.0), ("rr", 12.0), ("pf", 15.0)] {
        let slice = report.slice(name).expect("slice exists");
        assert!(
            (slice.mean_rate_mbps() - target).abs() < target * 0.12 + 0.3,
            "{name}: {} vs target {target}",
            slice.mean_rate_mbps()
        );
        assert_eq!(slice.scheduler_faults, 0, "{name} must not fault");
    }
}

#[test]
fn paper_fig5b_shape_holds_in_miniature() {
    // MT starves the MCS-20 UE; a live swap to PF revives it; RR equalizes.
    let mut scenario = ScenarioBuilder::new()
        .slice(
            SliceSpec::new("mvno", SchedKind::MaxThroughput)
                .ue(ChannelSpec::FixedMcs(20), TrafficSpec::CbrMbps(22.0))
                .ue(ChannelSpec::FixedMcs(24), TrafficSpec::CbrMbps(22.0))
                .ue(ChannelSpec::FixedMcs(28), TrafficSpec::CbrMbps(22.0)),
        )
        .seconds(6.0)
        .pf_time_constant(2000.0)
        .build()
        .expect("scenario builds");
    let ues = scenario.slice_ues("mvno").to_vec();

    scenario.run_seconds(2.0);
    let mid = scenario.report();
    let weak_mt = mid.ue(ues[0]).expect("ue").mean_rate_mbps;
    let best_mt = mid.ue(ues[2]).expect("ue").mean_rate_mbps;
    assert!(weak_mt < 1.0, "MT starves MCS-20: {weak_mt}");
    assert!(best_mt > 18.0, "MT saturates MCS-28: {best_mt}");

    scenario
        .swap_plugin("mvno", SchedKind::ProportionalFair)
        .expect("swap");
    scenario.run_seconds(2.0);
    scenario
        .swap_plugin("mvno", SchedKind::RoundRobin)
        .expect("swap");
    scenario.run_seconds(2.0);

    let report = scenario.report();
    // Last 10 windows = RR steady state: everyone served, modest spread.
    let recent = |ue: u32| {
        let s = &report.ue(ue).expect("ue").series_mbps;
        s[s.len() - 10..].iter().sum::<f64>() / 10.0
    };
    let (a, b, c) = (recent(ues[0]), recent(ues[1]), recent(ues[2]));
    assert!(
        a > 3.0 && b > 3.0 && c > 3.0,
        "RR serves everyone: {a}/{b}/{c}"
    );
    assert_eq!(report.slice("mvno").expect("slice").scheduler_faults, 0);
}

#[test]
fn paper_5d_safety_table_holds() {
    // All three unsafe behaviours trap; the host object stays usable.
    let req = wa_ran::abi::sched::SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: vec![wa_ran::abi::sched::UeInfo {
            ue_id: 70,
            cqi: 10,
            mcs: 15,
            flags: 0,
            buffer_bytes: 10_000,
            avg_tput_bps: 1e6,
            prb_capacity_bits: 400.0,
        }],
    };
    for (name, src) in [
        ("null-deref", plugins::faulty::NULL_DEREF),
        ("oob", plugins::faulty::OOB_ACCESS),
        ("double-free", plugins::faulty::DOUBLE_FREE),
    ] {
        let wasm = plugins::compile_faulty(src);
        let mut plugin = Plugin::new(&wasm, &Linker::<()>::new(), (), SandboxPolicy::realtime())
            .expect("instantiates");
        let result = plugin.call_sched(&req);
        assert!(result.is_err(), "{name} must be caught");
        // The same process continues scheduling with a healthy plugin.
        let mut healthy = Plugin::new(
            plugins::rr_wasm(),
            &Linker::<()>::new(),
            (),
            SandboxPolicy::realtime(),
        )
        .expect("instantiates");
        assert!(healthy.call_sched(&req).is_ok(), "host survives {name}");
    }
}

#[test]
fn custom_plugc_plugin_runs_in_scenario() {
    // An MVNO ships a bespoke policy: strict priority by UE id.
    // `r` is the UE record; its field offsets come from the ABI table.
    let [id, buffer, cap] = [
        ue::ID.addr("r"),
        ue::BUFFER.addr("r"),
        ue::PRB_CAPACITY.addr("r"),
    ];
    let policy = format!(
        r#"
        export fn schedule(req: i32, len: i32) -> i64 {{
            var n: i32 = req_n(req);
            var prbs: i32 = req_prbs(req);
            var out: i32 = wrn_alloc(8 + n * 8);
            write_header(out, n);
            var i: i32 = 0;
            var remaining: i32 = prbs;
            while (i < n) {{
                var r: i32 = rec(req, i);
                var cap: f64 = load_f64({cap});
                var need: i32 = ceil((load_i32({buffer}) as f64) * 8.0 / max(cap, 1.0)) as i32;
                var give: i32 = need;
                if (remaining < give) {{ give = remaining; }}
                write_alloc(out, i, load_i32({id}), give, i);
                remaining = remaining - give;
                i = i + 1;
            }}
            return pack(out, 8 + n * 8);
        }}
    "#
    );
    let src = format!("{}{policy}", sched::plugc_prelude());
    let wasm = wa_ran::plugc::compile(&src).expect("compiles");
    let mut scenario = ScenarioBuilder::new()
        .slice(SliceSpec::new("custom", SchedKind::RoundRobin).ues(3))
        .seconds(1.0)
        .build()
        .expect("builds");
    scenario
        .swap_plugin_bytes("custom", &wasm)
        .expect("installs");
    let report = scenario.run().expect("runs");
    let slice = report.slice("custom").expect("slice");
    assert_eq!(slice.scheduler_faults, 0);
    // Strict priority: first UE gets (almost) everything.
    assert!(slice.ues[0].mean_rate_mbps > 10.0 * slice.ues[1].mean_rate_mbps.max(0.01));
}

#[test]
fn wasm_module_bytes_are_portable() {
    // A plugin compiled once runs identically in two independent hosts —
    // the paper's platform-agnosticism claim at the bytecode level.
    let wasm = plugins::pf_wasm();
    let req = wa_ran::abi::sched::SchedRequest {
        slot: 9,
        prbs_granted: 20,
        slice_id: 1,
        ues: (0..5)
            .map(|i| wa_ran::abi::sched::UeInfo {
                ue_id: i,
                cqi: 10,
                mcs: 15,
                flags: 0,
                buffer_bytes: 40_000,
                avg_tput_bps: 1e6 * (i as f64 + 1.0),
                prb_capacity_bits: 450.0,
            })
            .collect(),
    };
    let mut a = Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default()).unwrap();
    // The budget meters the call; it must not change the answer.
    let mut b = Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::realtime()).unwrap();
    assert_eq!(a.call_sched(&req).unwrap(), b.call_sched(&req).unwrap());
}

#[test]
fn fuel_determinism_across_instances() {
    // Identical inputs burn identical fuel in fresh instances —
    // WA-RAN's deterministic-metering property.
    let consumed = || {
        let mut p = Plugin::new(
            plugins::mt_wasm(),
            &Linker::<()>::new(),
            (),
            SandboxPolicy::default(),
        )
        .unwrap();
        let req = wa_ran::abi::sched::SchedRequest {
            slot: 0,
            prbs_granted: 30,
            slice_id: 0,
            ues: (0..8)
                .map(|i| wa_ran::abi::sched::UeInfo {
                    ue_id: i,
                    cqi: 9,
                    mcs: 14,
                    flags: 0,
                    buffer_bytes: 20_000,
                    avg_tput_bps: 2e6,
                    prb_capacity_bits: 380.0,
                })
                .collect(),
        };
        p.call_sched(&req).unwrap();
        p.instance().stats().instrs
    };
    assert_eq!(consumed(), consumed());
}
