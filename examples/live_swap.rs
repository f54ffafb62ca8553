//! Live swap + fault containment: §5.C and §5.D in one run.
//!
//! An MVNO's scheduler is hot-swapped while the gNB runs: first between
//! healthy policies (MT → PF), then to a *buggy* plugin that dereferences
//! a null pointer every slot — the gNB keeps serving via its fallback and
//! the host quarantines the plugin — and finally back to a healthy one.
//!
//! Run with: `cargo run --release --example live_swap`

use wa_ran::core::plugins;
use wa_ran::core::{ChannelSpec, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec};

fn main() {
    let mut scenario = ScenarioBuilder::new()
        .slice(
            SliceSpec::new("mvno", SchedKind::MaxThroughput)
                .ue(ChannelSpec::FixedMcs(20), TrafficSpec::CbrMbps(20.0))
                .ue(ChannelSpec::FixedMcs(28), TrafficSpec::CbrMbps(20.0)),
        )
        .seconds(8.0)
        .build()
        .expect("scenario builds");
    let ues = scenario.slice_ues("mvno").to_vec();

    let phase = |scenario: &mut wa_ran::core::Scenario, label: &str| {
        scenario.run_seconds(2.0);
        let report = scenario.report();
        let slice = report.slice("mvno").expect("slice");
        let rates: Vec<String> = ues
            .iter()
            .map(|ue| {
                let series = &report.ue(*ue).expect("ue").series_mbps;
                let last = &series[series.len().saturating_sub(5)..];
                format!("{:.1}", last.iter().sum::<f64>() / last.len() as f64)
            })
            .collect();
        println!(
            "{label:<26} ue rates (recent) = {rates:?} Mb/s, lifetime faults = {}",
            slice.scheduler_faults
        );
    };

    println!("phase 1: MT plugin (weak UE starved)…");
    phase(&mut scenario, "after MT");

    scenario
        .swap_plugin("mvno", SchedKind::ProportionalFair)
        .expect("swap");
    println!("phase 2: hot-swapped to PF mid-run (no gNB restart, no UE detach)…");
    phase(&mut scenario, "after PF swap");

    let bad = plugins::compile_faulty(plugins::faulty::NULL_DEREF);
    scenario.swap_plugin_bytes("mvno", &bad).expect("swap");
    println!("phase 3: an MVNO pushed a buggy plugin (null deref each slot)…");
    phase(&mut scenario, "while plugin is faulty");
    let health = scenario.plugin_host().health("mvno").expect("health");
    println!(
        "    host fault accounting: {} total faults, quarantined = {}",
        health.strikes.total(),
        matches!(
            scenario.plugin_host().state("mvno"),
            Some(wa_ran::host::SlotState::Quarantined)
        ),
    );

    scenario
        .swap_plugin("mvno", SchedKind::RoundRobin)
        .expect("swap");
    println!("phase 4: operator pushed a fixed plugin (quarantine cleared by swap)…");
    phase(&mut scenario, "after RR fix");

    println!(
        "\ntakeaway: the gNB never stopped — scheduler faults were contained to \
         the sandbox, absorbed by the native fallback, and fixed by a live swap."
    );
}
