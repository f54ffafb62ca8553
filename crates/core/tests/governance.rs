//! Regression suite for the governance / quarantine ops plane: strike
//! accounting by fault kind, automatic rollback to the retained
//! last-good module, the fresh-chance rule after an operator swap, and
//! the fault-time statistics fix — all through the same epoch
//! publication path live swaps use, including under concurrent callers.

use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins::{self, faulty};
use waran_core::{
    install_plugin, CellSpec, ChannelSpec, MobilityAttachment, MultiCellScenarioBuilder, SchedKind,
    SliceSpec, TrafficSpec,
};
use waran_host::{
    fnv1a, GovernanceClass, Plugin, PluginError, PluginHost, SandboxPolicy, SlotState,
};
use waran_wasm::instance::{Linker, NS_PER_FUEL};
use waran_wasm::Trap;

/// A module whose observable behavior is its data segment: `run` returns
/// guest memory `[0, 4)`.
fn tagged_wasm(tag: &str) -> Vec<u8> {
    assert_eq!(tag.len(), 4);
    waran_wat::assemble(&format!(
        r#"(module
             (memory (export "memory") 1)
             (data (i32.const 0) "{tag}")
             (func (export "run") (param i32 i32) (result i64)
               i64.const 4))"#
    ))
    .expect("tagged module assembles")
}

/// A module whose `run` traps unconditionally (the strike generator).
fn trapping_wasm() -> Vec<u8> {
    waran_wat::assemble(
        r#"(module
             (memory (export "memory") 1)
             (func (export "run") (param i32 i32) (result i64)
               unreachable))"#,
    )
    .expect("trapping module assembles")
}

/// A module whose `run` spins forever: only the fuel meter stops it.
fn spinning_wasm() -> Vec<u8> {
    waran_wat::assemble(
        r#"(module
             (memory (export "memory") 1)
             (func (export "run") (param i32 i32) (result i64)
               loop
                 br 0
               end
               i64.const 0))"#,
    )
    .expect("spinning module assembles")
}

/// A module with one clean and one trapping entry, so a test can choose
/// per call whether the plugin faults.
fn mixed_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    CELL.get_or_init(|| {
        waran_wat::assemble(
            r#"(module
                 (memory (export "memory") 1)
                 (func (export "ok") (param i32 i32) (result i64)
                   i64.const 0)
                 (func (export "bad") (param i32 i32) (result i64)
                   unreachable))"#,
        )
        .expect("mixed module assembles")
    })
}

fn budget(quarantine_after: u32) -> SandboxPolicy {
    SandboxPolicy {
        quarantine_after,
        ..SandboxPolicy::default()
    }
}

#[test]
fn strike_budget_rolls_back_to_last_good() {
    let host = PluginHost::new();
    let good = tagged_wasm("GOOD");
    let bad = trapping_wasm();

    install_plugin(&host, "s", &good, budget(2)).unwrap();
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"GOOD");

    // Operator pushes a bad module; the proven predecessor is retained.
    install_plugin(&host, "s", &bad, budget(2)).unwrap();
    assert!(host.call("s", "run", &[]).is_err()); // adopts bad, strike 1
    assert!(host.call("s", "run", &[]).is_err()); // strike 2: budget crossed
    assert_eq!(
        host.call("s", "run", &[]).unwrap(),
        b"GOOD",
        "next call must adopt the auto-published last-good module"
    );

    let health = host.health("s").unwrap();
    assert_eq!(health.rollbacks, 1);
    assert_eq!(health.strikes.trap, 2);
    assert_eq!(health.strikes.total(), 2);
    assert_eq!(health.consecutive_faults, 0);

    let log = host.rollback_log("s").unwrap();
    assert_eq!(log.len(), 1);
    let event = &log[0];
    assert_eq!(event.name, "s");
    assert_eq!(event.consecutive_faults, 2);
    assert_eq!(event.strikes.trap, 2);
    // Who rolled from what to what: content hashes match the
    // template-cache keys of the actual byte strings.
    assert_eq!(event.from_hash, Some(fnv1a(&bad)));
    assert_eq!(event.to_hash, Some(fnv1a(&good)));
    assert_eq!(host.content_hash("s"), Some(fnv1a(&good)));

    // The rollback consumed the retained module: a second bad streak on
    // this (now last-good-less) slot would quarantine, not loop bad→bad.
    assert_eq!(host.state("s"), Some(SlotState::Active));
    assert_eq!(host.has_last_good("s"), Some(false));
}

#[test]
fn budget_crossing_without_last_good_quarantines() {
    let host = PluginHost::new();
    let bad = trapping_wasm();
    install_plugin(&host, "s", &bad, budget(2)).unwrap();
    assert!(host.call("s", "run", &[]).is_err());
    assert!(host.call("s", "run", &[]).is_err());

    // No proven predecessor: the slot parks instead of rolling back.
    assert_eq!(host.state("s"), Some(SlotState::Quarantined));
    assert_eq!(host.health("s").unwrap().rollbacks, 0);
    match host.call("s", "run", &[]) {
        Err(PluginError::Quarantined { name }) => assert_eq!(name, "s"),
        other => panic!("quarantined slot must refuse calls, got {other:?}"),
    }
}

#[test]
fn operator_swap_grants_fresh_chance_but_keeps_lifetime_counters() {
    let host = PluginHost::new();
    let bad = trapping_wasm();
    let good = tagged_wasm("GOOD");
    install_plugin(&host, "s", &bad, budget(2)).unwrap();
    assert!(host.call("s", "run", &[]).is_err());
    assert!(host.call("s", "run", &[]).is_err());
    assert_eq!(host.state("s"), Some(SlotState::Quarantined));

    // The operator pushes a fix: quarantine clears at adoption, the
    // lifetime strike ledger survives.
    install_plugin(&host, "s", &good, budget(2)).unwrap();
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"GOOD");
    let health = host.health("s").unwrap();
    assert_eq!(host.state("s"), Some(SlotState::Active));
    assert_eq!(health.consecutive_faults, 0);
    assert_eq!(health.strikes.trap, 2);
    assert_eq!(health.strikes.total(), 2);
}

#[test]
fn fuel_exhaustion_strikes_in_its_own_class() {
    let host = PluginHost::new();
    let policy = SandboxPolicy {
        fuel_per_call: 10_000,
        ..budget(1)
    };
    install_plugin(&host, "s", &spinning_wasm(), policy).unwrap();
    assert!(host.call("s", "run", &[]).is_err());
    let health = host.health("s").unwrap();
    assert_eq!(health.strikes.fuel_exhausted, 1);
    assert_eq!(health.strikes.trap, 0);
    assert_eq!(host.state("s"), Some(SlotState::Quarantined));

    // Every preset meters every call: a guest that never returns runs
    // out of fuel under each of them instead of hanging its cell.
    for (name, policy) in [
        ("default", SandboxPolicy::default()),
        ("realtime", SandboxPolicy::realtime()),
        ("besteffort", SandboxPolicy::besteffort()),
    ] {
        let host = PluginHost::new();
        install_plugin(&host, "s", &spinning_wasm(), policy).unwrap();
        assert_eq!(
            host.call("s", "run", &[]),
            Err(PluginError::Trap(Trap::OutOfFuel)),
            "{name}"
        );
        let strikes = host.health("s").unwrap().strikes;
        assert_eq!(strikes.fuel_exhausted, 1, "{name}");
        assert_eq!(strikes.total(), 1, "{name}");
    }
}

#[test]
fn governance_class_presets_bundle_budgets() {
    // Class budgets are slot shares in fuel: one 1 ms slot at 3 ns per
    // unit for `realtime`, ten for `besteffort`.
    assert_eq!(NS_PER_FUEL, 3);
    let rt = SandboxPolicy::realtime();
    assert_eq!(rt.class, GovernanceClass::Realtime);
    assert_eq!(rt.quarantine_after, 2);
    assert_eq!(rt.fuel_per_call, 333_333);
    assert_eq!(rt.deadline, Some(Duration::from_millis(1)));
    assert_eq!(rt.max_memory_pages, 64);

    let be = SandboxPolicy::besteffort();
    assert_eq!(be.class, GovernanceClass::BestEffort);
    assert_eq!(be.quarantine_after, 8);
    assert_eq!(be.fuel_per_call, 3_333_330);
    assert_eq!(be.deadline, Some(Duration::from_millis(10)));
    assert_eq!(be.max_memory_pages, 128);

    let custom = SandboxPolicy::default();
    assert_eq!(custom.class, GovernanceClass::Custom);
    assert_eq!(custom.fuel_per_call, 50_000_000);
    assert_eq!(GovernanceClass::Realtime.label(), "realtime");
    assert_eq!(GovernanceClass::BestEffort.label(), "besteffort");
    assert_eq!(GovernanceClass::Custom.label(), "custom");

    // The per-plugin budget is live: a host built with `new()` enforces
    // the policy's own `quarantine_after`, no host-wide override needed.
    let host = PluginHost::new();
    install_plugin(&host, "s", &trapping_wasm(), budget(1)).unwrap();
    assert!(host.call("s", "run", &[]).is_err());
    assert_eq!(host.state("s"), Some(SlotState::Quarantined));
}

#[test]
fn stock_schedulers_at_500_ues_use_a_quarter_of_a_realtime_slot() {
    // Fig. 5d's largest cell — 500 backlogged UEs on a 52-PRB grant — fits
    // a `realtime` plugin's one-slot fuel four times over, for every stock
    // policy, over RR's first rotation steps too.
    let req = SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..500u32)
            .map(|i| UeInfo {
                ue_id: 70 + i,
                cqi: 8 + (i % 8) as u8,
                mcs: 12 + (i % 16) as u8,
                flags: 0,
                buffer_bytes: 50_000 + 1000 * i,
                avg_tput_bps: 1e6 * (1.0 + i as f64),
                prb_capacity_bits: 300.0 + 20.0 * i as f64,
            })
            .collect(),
    };
    let policy = SandboxPolicy::realtime();
    let budget = policy.fuel_per_call;
    for (name, wasm) in [
        ("RR", plugins::rr_wasm()),
        ("MT", plugins::mt_wasm()),
        ("PF", plugins::pf_wasm()),
    ] {
        let mut p = Plugin::new(wasm, &Linker::<()>::new(), (), policy).unwrap();
        for slot in 0..4 {
            let resp = p.call_sched(&SchedRequest {
                slot,
                ..req.clone()
            });
            assert!(resp.is_ok(), "{name} slot {slot}: {resp:?}");
            let used = p.instance().fuel_consumed().unwrap();
            assert!(
                used <= budget / 4,
                "{name} slot {slot}: {used} of {budget} fuel"
            );
        }
    }
}

#[test]
fn faulting_calls_record_into_exec_stats() {
    // Pin the fault-path fix: call durations land in the slot stats on
    // the error arm too (trapping calls are precisely the slow ones).
    let host = PluginHost::new();
    install_plugin(&host, "s", &trapping_wasm(), budget(0)).unwrap();
    for _ in 0..5 {
        assert!(host.call("s", "run", &[]).is_err());
    }
    let stats = host.stats("s").unwrap();
    assert_eq!(
        stats.count(),
        5,
        "every faulting call must record a duration sample"
    );
    // budget 0 = never quarantine; the strikes still accumulate.
    assert_eq!(host.state("s"), Some(SlotState::Active));
    assert_eq!(host.health("s").unwrap().strikes.trap, 5);
}

#[test]
fn rollback_fires_once_under_concurrent_callers() {
    let host = Arc::new(PluginHost::new());
    let good = tagged_wasm("GOOD");
    let bad = trapping_wasm();
    install_plugin(&host, "s", &good, budget(3)).unwrap();
    assert_eq!(host.call("s", "run", &[]).unwrap(), b"GOOD");
    install_plugin(&host, "s", &bad, budget(3)).unwrap();

    // Four callers hammer the slot through pinned handles while the bad
    // module strikes out; every caller must end up back on GOOD.
    let callers: Vec<_> = (0..4)
        .map(|_| {
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                let handle = host.handle("s").unwrap();
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let out = handle.call("run", &[]);
                    if matches!(&out, Ok(bytes) if bytes == b"GOOD")
                        && host.health("s").unwrap().rollbacks >= 1
                    {
                        return;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "caller never recovered onto the last-good module"
                    );
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }

    let health = host.health("s").unwrap();
    // The slot lock serializes strikes, so the budget is crossed exactly
    // once and the single retained module is republished exactly once.
    assert_eq!(health.rollbacks, 1);
    assert_eq!(health.strikes.trap, 3);
    assert_eq!(host.state("s"), Some(SlotState::Active));
    assert_eq!(host.content_hash("s"), Some(fnv1a(&good)));
    assert_eq!(host.rollback_log("s").unwrap().len(), 1);
}

/// A 4-cell fleet taking two scheduled hostile pushes mid-run: a
/// null-dereferencing scheduler into every `embb` slice at `embb_slot`
/// and a fuel burner into every `iot` slice 20 slots later, under a
/// 200 000-fuel budget with strike budget 2.
fn hostile_fleet(embb_slot: u64, mobility: Option<MobilityAttachment>) -> MultiCellScenarioBuilder {
    let mut b = MultiCellScenarioBuilder::new()
        .seconds(0.2)
        .base_seed(909)
        .sandbox_policy(SandboxPolicy {
            fuel_per_call: 200_000,
            quarantine_after: 2,
            ..SandboxPolicy::default()
        })
        .push_at(
            embb_slot,
            "embb",
            &plugins::compile_faulty(faulty::NULL_DEREF),
        )
        .push_at(
            embb_slot + 20,
            "iot",
            &plugins::compile_faulty(faulty::FUEL_BURNER),
        );
    if let Some(mobility) = mobility {
        b = b.mobility(mobility);
    }
    for i in 0..4 {
        b = b.cell(
            CellSpec::new(&format!("cell{i}"))
                .slice(
                    SliceSpec::new("embb", SchedKind::ProportionalFair)
                        .target_mbps(8.0)
                        .ue(ChannelSpec::Static(11), TrafficSpec::FullBuffer)
                        .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer),
                )
                .slice(
                    SliceSpec::new("iot", SchedKind::RoundRobin)
                        .target_mbps(2.0)
                        .ue(ChannelSpec::Static(13), TrafficSpec::FullBuffer),
                ),
        );
    }
    b
}

/// Run the fleet at 1/2/4 workers; every cell must strike both hostile
/// modules out and roll back to last-good, identically at every worker
/// count. Returns the (worker-count independent) per-cell digests.
fn soak_digests(embb_slot: u64, mobility: Option<MobilityAttachment>) -> Vec<u64> {
    let [one, two, four] = [1, 2, 4].map(|workers| {
        let report = hostile_fleet(embb_slot, mobility)
            .build()
            .unwrap()
            .run(workers);
        assert_eq!(report.faulted_cells(), 0);
        for cell in &report.cells {
            let g = &cell.governance;
            assert_eq!(g.rollbacks, 2, "{} at {workers} workers: {g:?}", cell.name);
            assert_eq!(g.strikes.trap, 2, "{}: {g:?}", cell.name);
            assert_eq!(g.strikes.fuel_exhausted, 2, "{}: {g:?}", cell.name);
            assert_eq!(g.strikes.other, 0, "{}", cell.name);
            assert_eq!(g.push_failures, 0, "{}: pushes must install", cell.name);
            assert_eq!(g.quarantined_slices, 0, "{}: {g:?}", cell.name);
        }
        report.cell_digests()
    });
    assert_eq!(one, two, "digests diverged at 2 workers");
    assert_eq!(one, four, "digests diverged at 4 workers");
    one
}

#[test]
fn scheduled_fleet_pushes_roll_back_identically_at_any_worker_count() {
    // Every cell ends its chunk at the push slot, so the swap lands at
    // exactly that slot — slot 50 behaves like neither slot 60 nor slot 40
    // — whether the fleet runs as one window or, with mobility attached,
    // in 20-slot exchange windows the push slot does not align with.
    let window = MobilityAttachment::new().exchange_period_slots(20);
    for mobility in [None, Some(window)] {
        let exact = soak_digests(50, mobility);
        assert_ne!(exact, soak_digests(60, mobility), "{mobility:?}");
        assert_ne!(exact, soak_digests(40, mobility), "{mobility:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strike counter quarantines exactly when a run of
    /// `quarantine_after` consecutive faults occurs — an interleaved
    /// ok/fault sequence that never produces such a run must never park
    /// a (healthy) plugin, however many total faults it racks up.
    #[test]
    fn strikes_never_quarantine_a_healthy_plugin(
        ops in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        const BUDGET: u32 = 3;
        let host = PluginHost::new();
        install_plugin(&host, "s", mixed_wasm(), budget(BUDGET)).unwrap();

        let mut consecutive = 0u32;
        let mut quarantined = false;
        for &fault in &ops {
            if quarantined {
                break;
            }
            if fault {
                prop_assert!(host.call("s", "bad", &[]).is_err());
                consecutive += 1;
                if consecutive >= BUDGET {
                    quarantined = true;
                }
            } else {
                prop_assert!(host.call("s", "ok", &[]).is_ok());
                consecutive = 0;
            }
            let state = host.state("s").unwrap();
            prop_assert_eq!(
                state == SlotState::Quarantined,
                quarantined,
                "model and host disagree after {:?}",
                ops
            );
        }
    }
}
