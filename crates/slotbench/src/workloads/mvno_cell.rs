//! `mvno_cell` — the paper's own experiment (Fig. 5a targets at Fig. 5d's
//! top point): one cell, three Wasm MVNO slices (MT 3 Mb/s, RR 12, PF 15)
//! of 20 UEs each, alternating good / cell-edge fading, one UE in three
//! full-buffer and the rest 1.5 Mb/s CBR. One thread.
//!
//! Guest-bound: host + wasm take ~5/6 of the slot, ransim ~1/6, the ABI
//! codecs < 2 %. An interpreter, ABI or host-call change shows here; a
//! ransim change barely does.

use std::time::Instant;

use waran_core::{
    Backend, ChannelSpec, Scenario, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec,
};

use super::{
    crossing_probe, instrument, run_chunked_us_per_slot, scenario_exec, scenario_faults,
    slot_budget, step_traced, trace_overhead, write_spans, Checks, ChunkTimer, Inject, LayerReport,
    Rep, RunConfig, Workload, CHUNK_SLOTS,
};
use crate::stats;
use crate::trace::{self, TraceSink};

/// Timed slots per repetition (25 chunks).
const SLOTS: u64 = 5_000;
/// Warm-up slots before timing (part of set-up).
const WARMUP_SLOTS: u64 = 400;
const UES_PER_SLICE: usize = 20;

/// The three MVNOs: `(slice, policy, target Mb/s)`.
const MVNOS: [(&str, SchedKind, f64); 3] = [
    ("mt", SchedKind::MaxThroughput, 3.0),
    ("rr", SchedKind::RoundRobin, 12.0),
    ("pf", SchedKind::ProportionalFair, 15.0),
];
const SLICES: [&str; 3] = ["mt", "rr", "pf"];

/// The workload.
pub struct MvnoCell;

fn sizes(cfg: &RunConfig) -> (u64, u64) {
    if cfg.smoke {
        (2 * CHUNK_SLOTS, 50)
    } else {
        (SLOTS, WARMUP_SLOTS)
    }
}

fn build(cfg: &RunConfig, backend: Backend) -> Option<Scenario> {
    let (slots, warmup) = sizes(cfg);
    let mut b = ScenarioBuilder::new()
        .seconds((slots + warmup) as f64 / 1000.0)
        .seed(cfg.seed)
        .sandbox_policy(super::policy());
    for (name, kind, target) in MVNOS {
        let mut slice = SliceSpec::new(name, kind).target_mbps(target);
        for i in 0..UES_PER_SLICE {
            let channel = if i % 2 == 0 {
                ChannelSpec::FadingGood
            } else {
                ChannelSpec::FadingCellEdge
            };
            let traffic = if i % 3 == 0 {
                TrafficSpec::FullBuffer
            } else {
                TrafficSpec::CbrMbps(1.5)
            };
            slice = slice.ue(channel, traffic);
        }
        if backend == Backend::Native {
            slice = slice.native();
        }
        b = b.slice(slice);
    }
    b.build().ok()
}

impl Workload for MvnoCell {
    fn name(&self) -> &'static str {
        "mvno_cell"
    }

    fn repetition(&mut self, cfg: &RunConfig, checks: &mut Checks) -> Option<Rep> {
        let (slots, warmup) = sizes(cfg);
        let setup_start = Instant::now();
        let mut scenario = checks.require("scenario.build", build(cfg, Backend::Wasm))?;
        scenario.run_slots(warmup);
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut timer = ChunkTimer::start(checks)?;
        let mut chunks = Vec::new();
        while scenario.remaining_slots() > 0 {
            let n = CHUNK_SLOTS.min(scenario.remaining_slots());
            scenario.run_slots(n);
            chunks.push(timer.lap(n, checks)?);
        }
        checks.eq(
            "timed slots",
            chunks.iter().map(|c| c.slots).sum::<u64>(),
            slots,
        );

        let report = scenario.report();
        let (p50, p99, calls) =
            checks.require("plugin_stats", scenario_exec(&scenario, &SLICES))?;
        let (faults, fallback) = scenario_faults(&scenario);
        Some(Rep {
            setup_s,
            chunks,
            sched_p50_us: p50,
            sched_p99_us: p99,
            digest: report.digest(),
            ops: calls,
            failed: faults,
            counters: vec![
                ("host.faults", faults as f64),
                ("host.fallback_slots", fallback as f64),
                (
                    "ransim.prb_utilization",
                    100.0 * stats::median(&report.utilization).unwrap_or(0.0),
                ),
            ],
            samples: Vec::new(),
        })
    }

    /// The native twin — the same cell with the three policies as native
    /// Rust — is an independent reference: its report must digest equal.
    fn oracle(&mut self, cfg: &RunConfig, reps: &[Rep], checks: &mut Checks) {
        let Some(mut twin) = checks.require("native twin build", build(cfg, Backend::Native))
        else {
            return;
        };
        let twin_digest = twin.run().ok().map(|r| r.digest());
        if let Some(mut digest) = checks.require("native twin run", twin_digest) {
            if cfg.inject == Some(Inject::Digest) {
                digest ^= 1;
            }
            checks.eq("wasm digest == native twin digest", reps[0].digest, digest);
        }
    }

    fn traced(
        &mut self,
        cfg: &RunConfig,
        reps: &[Rep],
        checks: &mut Checks,
        out: &mut LayerReport,
    ) -> Option<()> {
        let (slots, warmup) = sizes(cfg);
        let mut scenario = checks.require("traced build", build(cfg, Backend::Wasm))?;
        let sink = TraceSink::new();
        instrument(&mut scenario, &SLICES, &sink, checks);
        scenario.run_slots(warmup);
        trace::lock(&sink).reset();
        let slot_us = step_traced(&mut scenario, slots, &sink, |_, _| {});
        checks.eq(
            "traced digest == untraced digest",
            scenario.report().digest(),
            reps[0].digest,
        );

        let sink = trace::lock(&sink);
        slot_budget(&sink, &slot_us, checks, out);
        out.median(checks, "core.slot_us_p50", &slot_us);
        out.p99(checks, "core.slot_us_p99", &slot_us);
        trace_overhead(reps, &slot_us, &sink, checks, out);
        crossing_probe(&sink.requests, stats::median(&sink.call_us), checks, out);
        write_spans(cfg, &sink, checks);

        // The native twin again, timed: the whole slot with no plugin.
        let mut twin = checks.require("native twin build", build(cfg, Backend::Native))?;
        twin.run_slots(warmup);
        if let Some(us) = checks.require(
            "ransim.native_us_per_slot",
            run_chunked_us_per_slot(&mut twin, slots),
        ) {
            out.value("ransim.native_us_per_slot", us);
        }
        Some(())
    }
}
