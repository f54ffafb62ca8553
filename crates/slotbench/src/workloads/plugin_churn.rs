//! `plugin_churn` — the write side of the host and wasm layers.
//!
//! Phase A (set-up): never-seen modules (one PlugC template, a differing
//! constant each) → `waran_plugc::compile` → `install_plugin` cold →
//! first `call_sched`; each then re-installed warm. Phase B (timed): a
//! 3-slice × 4-UE cell with `Scenario::swap_plugin_bytes` every 50 slots
//! cycling stock and just-loaded modules, and a hostile `NULL_DEREF` push
//! every 5000 slots that must strike out and roll back to last-good.
//!
//! Every load-time mechanism (decode, validate, flat + register lowering,
//! analysis, snapshot, template cache) runs here and almost none in the
//! steady-state workloads: a change that buys call speed with load-time
//! work, or a cache that never evicts, shows here and nowhere else.

use std::sync::Arc;
use std::time::Instant;

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins::{self, faulty};
use waran_core::{
    install_plugin, ChannelSpec, Scenario, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec,
};
use waran_host::{PluginHost, SlotState};

use super::{
    crossing_probe, instrument, mix, scenario_exec, scenario_faults, slot_budget, step_traced,
    trace_overhead, write_spans, Checks, ChunkTimer, Inject, LayerReport, Rep, RunConfig, Workload,
    CHUNK_SLOTS,
};
use crate::stats;
use crate::trace::{self, TraceSink};

const TEMPLATE_SRC: &str = include_str!("../../plugins/churn_template.plugc");

/// Never-seen modules loaded per repetition.
const COLD_MODULES: usize = 24;
/// Warm re-installs of each.
const WARM_REINSTALLS: usize = 4;
/// Timed phase-B slots per repetition.
const SLOTS: u64 = 15_000;
const WARMUP_SLOTS: u64 = 200;
const SWAP_EVERY: u64 = 50;
/// A hostile push lands this many slots after every `HOSTILE_EVERY`-th
/// slot — clear of the regular swaps, so its three strikes play out on a
/// slot nothing else touches.
const HOSTILE_EVERY: u64 = 5_000;
const HOSTILE_OFFSET: u64 = 1_010;
/// Just-loaded modules kept for the phase-B swap cycle.
const PRELOADED: usize = 5;
const SLICES: [&str; 3] = ["s0", "s1", "s2"];
const UES_PER_SLICE: usize = 4;
/// Iterations of the traced mode's load-pipeline probe.
const LOAD_PROBES: usize = 40;

/// The workload. Counts modules built so far so that no two builds in
/// one process — across repetitions and the traced run — share bytes.
#[derive(Default)]
pub struct PluginChurn {
    built: u64,
}

struct Sizes {
    cold: usize,
    slots: u64,
    warmup: u64,
    hostile_every: u64,
    hostile_offset: u64,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    if cfg.smoke {
        Sizes {
            cold: 6,
            slots: 2 * CHUNK_SLOTS,
            warmup: 50,
            hostile_every: 200,
            hostile_offset: 110,
        }
    } else {
        Sizes {
            cold: COLD_MODULES,
            slots: SLOTS,
            warmup: WARMUP_SLOTS,
            hostile_every: HOSTILE_EVERY,
            hostile_offset: HOSTILE_OFFSET,
        }
    }
}

/// A synthetic 4-UE request for first calls on just-installed modules.
fn probe_request(seed: u64) -> SchedRequest {
    let mut z = seed;
    SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..UES_PER_SLICE as u32)
            .map(|i| {
                z = mix(z);
                UeInfo {
                    ue_id: 70 + i,
                    cqi: 7 + (z % 8) as u8,
                    mcs: 10 + (z % 16) as u8,
                    flags: 0,
                    buffer_bytes: 20_000 + ((z >> 8) % 80_000) as u32,
                    avg_tput_bps: 1e6 + ((z >> 24) % 4_000_000) as f64,
                    prb_capacity_bits: 300.0 + ((z >> 40) % 500) as f64,
                }
            })
            .collect(),
    }
}

/// What phase A leaves behind.
struct Loaded {
    /// Modules for the phase-B swap cycle.
    preloaded: Vec<Vec<u8>>,
    samples: Vec<(&'static str, Vec<f64>)>,
    wasm_bytes: usize,
    ops: u64,
    failed: u64,
}

impl PluginChurn {
    /// PlugC source of the next never-seen module.
    fn next_source(&mut self, cfg: &RunConfig) -> String {
        self.built += 1;
        // A positive i32 literal with bit 30 set: always the same encoded
        // width, so every build has the same byte length.
        let tag = (mix(cfg.seed ^ mix(self.built)) & 0x3fff_ffff) | 0x4000_0000;
        TEMPLATE_SRC.replace("@TAG@", &tag.to_string())
    }

    /// Phase A: compile, cold-install, first-call and warm-re-install
    /// `n` never-seen modules on a fresh host.
    fn load_phase(&mut self, cfg: &RunConfig, n: usize, checks: &mut Checks) -> Loaded {
        let host = PluginHost::new();
        let request = probe_request(cfg.seed);
        let policy = super::policy();
        let (mut compile_us, mut cold_us, mut first_us, mut stamp_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut loaded = Loaded {
            preloaded: Vec::new(),
            samples: Vec::new(),
            wasm_bytes: 0,
            ops: 0,
            failed: 0,
        };
        let us = |start: Instant| start.elapsed().as_nanos() as f64 / 1e3;
        for _ in 0..n {
            let source = self.next_source(cfg);
            let start = Instant::now();
            let compiled = waran_plugc::compile(&source);
            compile_us.push(us(start));
            let Some(wasm) = checks.require("template compiles", compiled.ok()) else {
                loaded.failed += 1;
                continue;
            };
            loaded.wasm_bytes = wasm.len();

            let start = Instant::now();
            let installed = install_plugin(&host, "probe", &wasm, policy);
            cold_us.push(us(start));
            let start = Instant::now();
            let first = host.call_sched("probe", &request);
            first_us.push(us(start));
            loaded.ops += 2;
            let callable = installed.is_ok()
                && first.as_ref().is_ok_and(|resp| {
                    !resp.allocs.is_empty() && resp.total_prbs() <= request.prbs_granted
                });
            checks.check("cold install is callable", callable, || {
                format!("install {installed:?}, first call {first:?}")
            });
            loaded.failed += u64::from(!callable);

            for _ in 0..WARM_REINSTALLS {
                let start = Instant::now();
                let again = install_plugin(&host, "probe", &wasm, policy);
                stamp_us.push(us(start));
                loaded.ops += 1;
                loaded.failed += u64::from(again.is_err());
            }
            if loaded.preloaded.len() < PRELOADED {
                loaded.preloaded.push(wasm);
            }
        }
        loaded.samples = vec![
            ("plugc.compile_us_p50", compile_us),
            ("cold_load_us_p50", cold_us),
            ("first_call_us_p50", first_us),
            ("host.stamp_us_p50", stamp_us),
        ];
        loaded
    }
}

fn build_cell(cfg: &RunConfig, sz: &Sizes) -> Option<Scenario> {
    let kinds = [
        SchedKind::RoundRobin,
        SchedKind::ProportionalFair,
        SchedKind::MaxThroughput,
    ];
    let mut b = ScenarioBuilder::new()
        .seconds((sz.slots + sz.warmup) as f64 / 1000.0)
        .seed(cfg.seed)
        .sandbox_policy(super::policy());
    for (name, kind) in SLICES.iter().zip(kinds) {
        let mut slice = SliceSpec::new(name, kind).target_mbps(10.0);
        for i in 0..UES_PER_SLICE {
            let channel = if i % 2 == 0 {
                ChannelSpec::FadingGood
            } else {
                ChannelSpec::FadingCellEdge
            };
            slice = slice.ue(channel, TrafficSpec::FullBuffer);
        }
        b = b.slice(slice);
    }
    b.build().ok()
}

/// The scripted operator of phase B: which push, if any, is due before
/// timed slot `i`.
struct Operator {
    cycle: Vec<Vec<u8>>,
    hostile: Vec<u8>,
    swaps: u64,
    hostile_pushes: u64,
    swap_us: Vec<f64>,
    failed: u64,
}

impl Operator {
    fn new(preloaded: &[Vec<u8>]) -> Operator {
        let mut cycle: Vec<Vec<u8>> = [plugins::rr_wasm(), plugins::pf_wasm(), plugins::mt_wasm()]
            .map(<[u8]>::to_vec)
            .into();
        cycle.extend(preloaded.iter().cloned());
        Operator {
            cycle,
            hostile: plugins::compile_faulty(faulty::NULL_DEREF),
            swaps: 0,
            hostile_pushes: 0,
            swap_us: Vec::new(),
            failed: 0,
        }
    }

    /// Slots from timed slot `i` to the next scripted event (or `limit`).
    fn quiet_slots(&self, i: u64, sz: &Sizes, limit: u64) -> u64 {
        let to_swap = SWAP_EVERY - i % SWAP_EVERY;
        let to_hostile = (sz.hostile_offset + sz.hostile_every - i % sz.hostile_every - 1)
            % sz.hostile_every
            + 1;
        to_swap.min(to_hostile).min(limit)
    }

    /// Apply whatever is due before timed slot `i`.
    fn before_slot(&mut self, cell: &mut Scenario, i: u64, sz: &Sizes) {
        if i.is_multiple_of(SWAP_EVERY) {
            let slice = SLICES[(self.swaps % SLICES.len() as u64) as usize];
            let module = &self.cycle[(self.swaps % self.cycle.len() as u64) as usize];
            let start = Instant::now();
            let swapped = cell.swap_plugin_bytes(slice, module);
            self.swap_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            self.swaps += 1;
            self.failed += u64::from(swapped.is_err());
        }
        if i % sz.hostile_every == sz.hostile_offset {
            let slice = SLICES[(self.hostile_pushes % SLICES.len() as u64) as usize];
            self.failed += u64::from(cell.swap_plugin_bytes(slice, &self.hostile).is_err());
            self.hostile_pushes += 1;
        }
    }
}

/// Governance oracles on a finished phase-B cell, and its counters.
fn governance(cell: &Scenario, op: &Operator, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let budget = u64::from(super::policy().quarantine_after);
    let (mut strikes, mut rollbacks, mut quarantined) = (0, 0, 0);
    for name in SLICES {
        if let Some(h) = checks.require(&format!("health `{name}`"), cell.plugin_health(name)) {
            strikes += h.strikes.total();
            rollbacks += h.rollbacks;
        }
        quarantined += u64::from(cell.plugin_state(name) == Some(SlotState::Quarantined));
    }
    let (faults, fallback) = scenario_faults(cell);
    // Each hostile push faults exactly `quarantine_after` times — each
    // served by the gNB's fallback — and is then rolled back.
    let want = op.hostile_pushes * budget;
    checks.eq(
        "strikes == hostile pushes x quarantine_after",
        strikes,
        want,
    );
    checks.eq("scheduler faults", faults, want);
    checks.eq("fallback slots", fallback, want);
    checks.eq("rollbacks == hostile pushes", rollbacks, op.hostile_pushes);
    checks.eq("quarantined slots", quarantined, 0);
    checks.check("hostile pushes happened", op.hostile_pushes > 0, || {
        "the script pushed no hostile module".into()
    });
    vec![
        ("host.faults", faults as f64),
        ("host.fallback_slots", fallback as f64),
        ("host.strikes", strikes as f64),
        ("host.rollbacks", rollbacks as f64),
    ]
}

/// Every slot must end up with a working scheduler installed: one probe
/// call per slice on the live host slot. Run last — it perturbs health
/// counters, so digests and counters are taken first.
fn final_modules_callable(cell: &Scenario, checks: &mut Checks) -> u64 {
    let request = probe_request(1);
    let mut failed = 0;
    for name in SLICES {
        let result = cell.plugin_host().call_sched(name, &request);
        checks.check(
            &format!("slice `{name}` ends with a callable module"),
            result.is_ok(),
            || format!("{result:?}"),
        );
        failed += u64::from(result.is_err());
    }
    failed
}

impl Workload for PluginChurn {
    fn name(&self) -> &'static str {
        "plugin_churn"
    }

    fn repetition(&mut self, cfg: &RunConfig, checks: &mut Checks) -> Option<Rep> {
        let sz = sizes(cfg);
        let setup_start = Instant::now();
        let loaded = self.load_phase(cfg, sz.cold, checks);
        let mut cell = checks.require("cell.build", build_cell(cfg, &sz))?;
        cell.run_slots(sz.warmup);
        let mut op = Operator::new(&loaded.preloaded);
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut timer = ChunkTimer::start(checks)?;
        let mut chunks = Vec::new();
        let (mut i, mut in_chunk) = (0, 0);
        while i < sz.slots {
            op.before_slot(&mut cell, i, &sz);
            let n = op.quiet_slots(i, &sz, (sz.slots - i).min(CHUNK_SLOTS - in_chunk));
            cell.run_slots(n);
            i += n;
            in_chunk += n;
            if in_chunk == CHUNK_SLOTS || i == sz.slots {
                chunks.push(timer.lap(in_chunk, checks)?);
                in_chunk = 0;
            }
        }
        if cfg.inject == Some(Inject::Hostile) {
            // Self-test: an operator pushes a hostile module and walks away.
            op.failed += u64::from(cell.swap_plugin_bytes(SLICES[0], &op.hostile).is_err());
        }
        checks.eq(
            "timed slots",
            chunks.iter().map(|c| c.slots).sum::<u64>(),
            sz.slots,
        );

        let digest = cell.report().digest();
        let (p50, p99, calls) = checks.require("plugin_stats", scenario_exec(&cell, &SLICES))?;
        let mut counters = governance(&cell, &op, checks);
        counters.push(("plugc.wasm_bytes", loaded.wasm_bytes as f64));
        let unusable = final_modules_callable(&cell, checks);
        let mut samples = loaded.samples;
        samples.push(("warm_swap_us_p50", op.swap_us));
        Some(Rep {
            setup_s,
            chunks,
            sched_p50_us: p50,
            sched_p99_us: p99,
            digest,
            ops: loaded.ops + calls + op.swaps + op.hostile_pushes,
            failed: loaded.failed + op.failed + unusable,
            counters,
            samples,
        })
    }

    /// The reference here is arithmetic, not a twin run: the strike,
    /// rollback and fallback counts implied by the script are checked in
    /// every repetition (`governance`). What needs a second run is the
    /// digest: phase B with *different* just-loaded modules must compute
    /// the same thing, because the template's constant is inert.
    fn oracle(&mut self, cfg: &RunConfig, reps: &[Rep], checks: &mut Checks) {
        let sz = sizes(cfg);
        let loaded = self.load_phase(cfg, PRELOADED, checks);
        let Some(mut cell) = checks.require("reference cell build", build_cell(cfg, &sz)) else {
            return;
        };
        cell.run_slots(sz.warmup);
        let mut op = Operator::new(&loaded.preloaded);
        for i in 0..sz.slots {
            op.before_slot(&mut cell, i, &sz);
            cell.run_slots(1);
        }
        let mut digest = cell.report().digest();
        if cfg.inject == Some(Inject::Digest) {
            digest ^= 1;
        }
        checks.eq(
            "digest == slot-stepped reference with fresh modules",
            reps[0].digest,
            digest,
        );
    }

    fn traced(
        &mut self,
        cfg: &RunConfig,
        reps: &[Rep],
        checks: &mut Checks,
        out: &mut LayerReport,
    ) -> Option<()> {
        let sz = sizes(cfg);
        let loaded = self.load_phase(cfg, PRELOADED, checks);
        let mut cell = checks.require("traced cell build", build_cell(cfg, &sz))?;
        let sink = TraceSink::new();
        instrument(&mut cell, &SLICES, &sink, checks);
        cell.run_slots(sz.warmup);
        trace::lock(&sink).reset();
        let mut op = Operator::new(&loaded.preloaded);
        // Swap time is the operator's, not the slot's: it stays outside
        // the per-slot `Instant` pair.
        let slot_us = step_traced(&mut cell, sz.slots, &sink, |cell, i| {
            op.before_slot(cell, i, &sz)
        });
        checks.eq(
            "traced digest == untraced digest",
            cell.report().digest(),
            reps[0].digest,
        );
        governance(&cell, &op, checks);

        let sink = trace::lock(&sink);
        slot_budget(&sink, &slot_us, checks, out);
        out.median(checks, "core.slot_us_p50", &slot_us);
        out.p99(checks, "core.slot_us_p99", &slot_us);
        trace_overhead(reps, &slot_us, &sink, checks, out);
        crossing_probe(&sink.requests, stats::median(&sink.call_us), checks, out);
        write_spans(cfg, &sink, checks);
        self.load_pipeline_probe(cfg, checks, out);
        Some(())
    }
}

impl PluginChurn {
    /// The wasm layer's share of a cold load, stage by stage, on
    /// never-seen builds of the template.
    fn load_pipeline_probe(&mut self, cfg: &RunConfig, checks: &mut Checks, out: &mut LayerReport) {
        let (mut load_us, mut precompile_us, mut analysis_us) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut module_bytes = 0;
        let us = |start: Instant| start.elapsed().as_nanos() as f64 / 1e3;
        for _ in 0..LOAD_PROBES {
            let Some(wasm) = checks.require(
                "template compiles",
                waran_plugc::compile(&self.next_source(cfg)).ok(),
            ) else {
                return;
            };
            module_bytes = wasm.len();
            let start = Instant::now();
            let module = waran_wasm::load_module(&wasm);
            load_us.push(us(start));
            let Some(module) = checks.require("template loads", module.ok()) else {
                return;
            };
            let module = Arc::new(module);
            let start = Instant::now();
            module.precompile();
            precompile_us.push(us(start));
            let start = Instant::now();
            let analysed = module.analysis().is_ok();
            analysis_us.push(us(start));
            checks.check("template analyses", analysed, || "analysis failed".into());
        }
        out.median(checks, "wasm.load_us_p50", &load_us);
        out.median(checks, "wasm.precompile_us_p50", &precompile_us);
        out.median(checks, "wasm.analysis_us_p50", &analysis_us);
        out.value("wasm.module_bytes", module_bytes as f64);
    }
}
