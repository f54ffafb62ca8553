//! The four workloads and the machinery they share: run configuration,
//! the fail-closed check collector, the per-repetition record, and the
//! driver loop that turns repetitions into a [`WorkloadResult`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use waran_abi::sched::SchedRequest;
use waran_core::{install_plugin, MultiCellScenario, Scenario, WasmSliceScheduler};
use waran_host::plugin::SandboxPolicy;
use waran_host::PluginHost;
use waran_ransim::sched::SliceScheduler;

use crate::metrics::{self, Measured, WorkloadResult};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::{self, Timed, TraceSink};

pub mod fleet_massive;
pub mod fleet_ric_mobility;
pub mod mvno_cell;
pub mod plugin_churn;

/// Workload names, in the order `run all` executes them.
pub const NAMES: [&str; 4] = [
    "mvno_cell",
    "fleet_massive",
    "fleet_ric_mobility",
    "plugin_churn",
];

/// Wall seconds one repetition (set-up included) is sized for on the
/// reference host. All workload sizes are fixed in *slots* (so counts
/// repeat exactly); this constant only converts `--seconds` into a
/// repetition count.
pub const REP_SECONDS: f64 = 0.3;

/// Slots per timed chunk in the single-cell workloads (about 10 ms).
pub const CHUNK_SLOTS: u64 = 200;

/// Every wall/CPU timing is reported at this quantile of its per-chunk
/// (or, where the program's own statistics are per repetition, per
/// repetition) values: the *fast decile*. On the reference host the
/// same code alternates between a fast and a ~40 % slower mode on a
/// scale of seconds to minutes (a neighbour on the sibling hardware
/// thread); a run's median follows the neighbour, its fast decile does
/// not (measured: median chunk 5.21 vs 6.47 ms across two traces, fast
/// decile 4.88 vs 5.07 ms).
pub const FAST_QUANTILE: f64 = 0.10;

/// The null scheduler shipped with the benchmark (crossing-cost probe).
pub const NULL_SCHED_SRC: &str = include_str!("../../plugins/null_sched.plugc");

/// The one sandbox policy every workload runs under: the stock policy
/// (fuel metering on — a deterministic budget — and deadline polling
/// still in the interpreter loop) with the wall-clock deadline raised
/// from 10 ms to 1 s. Under the stock deadline a hypervisor stall on
/// this host faults a call, the gNB serves that slot from its fallback
/// scheduler, and the report digest silently flips; with 1 s it cannot.
pub fn policy() -> SandboxPolicy {
    SandboxPolicy {
        deadline: Some(Duration::from_secs(1)),
        ..SandboxPolicy::default()
    }
}

/// A deliberate defect, for the benchmark's own self-test: the oracles
/// must catch each one and the run must exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Perturb the reference digest the oracle compares against.
    Digest,
    /// `plugin_churn`: leave a hostile plugin installed at the end.
    Hostile,
}

/// What to run and how.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed; every generated input derives from it.
    pub seed: u64,
    /// Untraced repetitions.
    pub reps: usize,
    /// Also run the traced repetition and the per-layer probes.
    pub traced: bool,
    /// A few hundred slots instead of the full size (tests).
    pub smoke: bool,
    /// Self-test defect.
    pub inject: Option<Inject>,
    /// Where to write the sampled spans of the traced repetition.
    pub trace_out: Option<PathBuf>,
}

impl RunConfig {
    /// Worker threads for the fleets: `min(2, host_cpus)`.
    pub fn workers(&self) -> usize {
        sys::host_cpus().min(2)
    }
}

/// Collects oracle verdicts. A check that fails — or whose inputs could
/// not be computed — is recorded, counted into `failed_ops`, and makes
/// the run exit non-zero without printing metrics.
#[derive(Debug, Default)]
pub struct Checks {
    /// `name: detail` of every failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one verdict.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Record an equality verdict.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        self.check(name, got == want, || format!("got {got:?}, want {want:?}"));
    }

    /// Unwrap a value a check depends on; `None` is an *uncomputable*
    /// check and fails closed.
    pub fn require<T>(&mut self, name: &str, value: Option<T>) -> Option<T> {
        self.check(name, value.is_some(), || "uncomputable (missing)".into());
        value
    }
}

/// One untraced repetition, as measured from outside.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds from the start of this repetition's set-up to its first
    /// timed slot (PlugC compiles, cold loads, scenario build, warm-up).
    pub setup_s: f64,
    /// The timed slots, in chunks.
    pub chunks: Vec<Chunk>,
    /// Plugin-call p50 as the program's own `ExecTimeStats` records it.
    pub sched_p50_us: f64,
    /// Plugin-call p99, same source.
    pub sched_p99_us: f64,
    /// Digest of everything the repetition computed.
    pub digest: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed (not counting deliberate hostile pushes).
    pub failed: u64,
    /// Exact counters, `(registry name, value)`; must repeat bit-for-bit.
    pub counters: Vec<(&'static str, f64)>,
    /// Samples gathered during the repetition, by registry name (load-path
    /// timings in `plugin_churn`, the engine's own gauges in the fleets).
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// One timed stretch of slots.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
    /// Simulated slots, summed over cells.
    pub slots: u64,
}

/// `f` of every timed chunk of every repetition, in run order.
pub fn per_chunk(reps: &[Rep], f: fn(&Chunk) -> f64) -> Vec<f64> {
    reps.iter().flat_map(|r| r.chunks.iter()).map(f).collect()
}

/// Times stretches of slots against the wall clock and the process CPU
/// clock.
pub struct ChunkTimer {
    wall: Instant,
    cpu: f64,
}

impl ChunkTimer {
    /// Start timing; `None` (after failing the check) without a CPU clock.
    pub fn start(checks: &mut Checks) -> Option<ChunkTimer> {
        let cpu = checks.require("process cpu clock", sys::process_cpu_seconds())?;
        Some(ChunkTimer {
            wall: Instant::now(),
            cpu,
        })
    }

    /// Close the chunk that covered `slots` slots and start the next.
    pub fn lap(&mut self, slots: u64, checks: &mut Checks) -> Option<Chunk> {
        let wall_now = Instant::now();
        let cpu_now = checks.require("process cpu clock", sys::process_cpu_seconds())?;
        let chunk = Chunk {
            wall_s: (wall_now - self.wall).as_secs_f64(),
            cpu_s: cpu_now - self.cpu,
            slots,
        };
        self.wall = wall_now;
        self.cpu = cpu_now;
        Some(chunk)
    }
}

/// Per-layer values produced by the traced repetition and the probes.
#[derive(Debug, Default)]
pub struct LayerReport {
    rows: Vec<(&'static str, f64, Option<Summary>)>,
}

impl LayerReport {
    /// A plain value (count, ratio, mean).
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.rows.push((name, v, None));
    }

    /// The median of a sample set, with its summary. Fails closed on an
    /// empty set.
    pub fn median(&mut self, checks: &mut Checks, name: &'static str, samples: &[f64]) {
        if let Some(s) = checks.require(name, Summary::of(samples)) {
            self.rows.push((name, s.median, Some(s)));
        }
    }

    /// The 99th percentile of a sample set. Fails closed on an empty set.
    pub fn p99(&mut self, checks: &mut Checks, name: &'static str, samples: &[f64]) {
        if let Some(v) = checks.require(name, stats::quantile(samples, 0.99)) {
            self.rows.push((name, v, None));
        }
    }
}

/// A workload: how to run one repetition, check it, and trace it.
pub trait Workload {
    /// Registry name.
    fn name(&self) -> &'static str;
    /// Threads the timed slots run on (the fleets use `cfg.workers()`).
    fn threads(&self, _cfg: &RunConfig) -> usize {
        1
    }
    /// Build, warm up and run one untraced repetition.
    fn repetition(&mut self, cfg: &RunConfig, checks: &mut Checks) -> Option<Rep>;
    /// Oracles that need a reference run (native twin, other worker
    /// count); the per-repetition invariants live in `repetition`.
    fn oracle(&mut self, cfg: &RunConfig, reps: &[Rep], checks: &mut Checks);
    /// The traced repetition plus this workload's layer probes; checks
    /// that tracing left the digest alone. `None` = could not complete.
    fn traced(
        &mut self,
        cfg: &RunConfig,
        reps: &[Rep],
        checks: &mut Checks,
        out: &mut LayerReport,
    ) -> Option<()>;
}

/// Instantiate a workload by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mvno_cell" => Box::new(mvno_cell::MvnoCell),
        "fleet_massive" => Box::new(fleet_massive::FleetMassive),
        "fleet_ric_mobility" => Box::new(fleet_ric_mobility::FleetRicMobility),
        "plugin_churn" => Box::new(plugin_churn::PluginChurn::default()),
        _ => return None,
    })
}

/// Why a run produced no result.
#[derive(Debug)]
pub struct Failure {
    /// Every failed or uncomputable check.
    pub failures: Vec<String>,
    /// Failed operations plus failed checks.
    pub failed_ops: u64,
}

/// Run `workload` under `cfg`: repetitions, oracles, optional traced
/// repetition; assemble the result or fail closed.
pub fn run(mut workload: Box<dyn Workload>, cfg: &RunConfig) -> Result<WorkloadResult, Failure> {
    let mut checks = Checks::default();
    let mut reps = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        match workload.repetition(cfg, &mut checks) {
            Some(rep) => reps.push(rep),
            None => break,
        }
    }
    checks.eq("repetitions.completed", reps.len(), cfg.reps.max(1));
    if let Some(first) = reps.first() {
        for (i, rep) in reps.iter().enumerate().skip(1) {
            checks.eq(&format!("repetition[{i}].digest"), rep.digest, first.digest);
            checks.check(
                &format!("repetition[{i}].counters"),
                rep.counters == first.counters,
                || format!("{:?} vs {:?}", rep.counters, first.counters),
            );
        }
        workload.oracle(cfg, &reps, &mut checks);
    }

    let mut layers = LayerReport::default();
    if cfg.traced && !reps.is_empty() {
        let traced = workload.traced(cfg, &reps, &mut checks, &mut layers);
        checks.require("traced repetition", traced);
    }

    let metrics = assemble(&reps, layers, cfg.traced, &mut checks);
    // Every failed operation and every failed (or uncomputable) check is
    // one failed op; any of them means no result.
    let failed_ops = reps.iter().map(|r| r.failed).sum::<u64>() + checks.failures.len() as u64;
    if failed_ops > 0 {
        if checks.failures.is_empty() {
            checks
                .failures
                .push(format!("{failed_ops} operations failed"));
        }
        return Err(Failure {
            failed_ops,
            failures: checks.failures,
        });
    }
    let first = &reps[0];
    Ok(WorkloadResult {
        workload: workload.name().to_string(),
        seed: cfg.seed,
        workers: workload.threads(cfg),
        host_cpus: sys::host_cpus(),
        repetitions: reps.len(),
        ops: reps.iter().map(|r| r.ops).sum(),
        failed_ops,
        digest: first.digest,
        metrics,
    })
}

/// `(name, value, sample summary, split-half gap)`.
type Row = (&'static str, f64, Option<Summary>, Option<f64>);

/// Push the `q`-quantile of `samples` as row `name`, with its split-half
/// gap: the same quantile over the even- and over the odd-numbered
/// samples, their distance as a share of the value. An empty or
/// non-positive timing is uncomputable and fails closed.
fn timing(rows: &mut Vec<Row>, checks: &mut Checks, name: &'static str, samples: &[f64], q: f64) {
    let value = stats::quantile(samples, q).filter(|v| v.is_finite() && *v > 0.0);
    if let (Some(v), Some(s)) = (checks.require(name, value), Summary::of(samples)) {
        let half = |parity: usize| {
            let part: Vec<f64> = samples.iter().skip(parity).step_by(2).copied().collect();
            stats::quantile(&part, q)
        };
        let gap = half(0).zip(half(1)).map(|(a, b)| (a - b).abs() / v);
        rows.push((name, v, Some(s), gap));
    }
}

/// Turn repetitions (and, when traced, the layer report) into registry
/// rows. `setup_s` is the median over repetitions; every other timing is
/// the fast decile (see [`FAST_QUANTILE`]) of its per-chunk or
/// per-repetition values.
fn assemble(reps: &[Rep], layers: LayerReport, traced: bool, checks: &mut Checks) -> Vec<Measured> {
    let mut rows: Vec<Row> = Vec::new();
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    timing(&mut rows, checks, "setup_s", &per_rep(|r| r.setup_s), 0.5);
    // The fast decile of a rate is its 90th percentile.
    let rates = per_chunk(reps, |c| c.slots as f64 / c.wall_s);
    timing(
        &mut rows,
        checks,
        "slots_per_s",
        &rates,
        1.0 - FAST_QUANTILE,
    );
    let cpu = per_chunk(reps, |c| c.cpu_s * 1e6 / c.slots as f64);
    timing(&mut rows, checks, "cpu_us_per_slot", &cpu, FAST_QUANTILE);
    let p50s = per_rep(|r| r.sched_p50_us);
    timing(&mut rows, checks, "sched_call_us_p50", &p50s, FAST_QUANTILE);
    if let Some(mb) = checks.require("peak_rss_mb", sys::peak_rss_mb()) {
        rows.push(("peak_rss_mb", mb, None, None));
    }

    // Timing samples gathered inside repetitions: each repetition's own
    // p50 (or p99), then across repetitions the fast decile for times
    // and the median for everything else (shares, depths).
    let mut gathered: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (name, samples) in reps.iter().flat_map(|r| r.samples.iter()) {
        let q = if name.ends_with("_p99") { 0.99 } else { 0.5 };
        let Some(v) = checks.require(name, stats::quantile(samples, q)) else {
            continue;
        };
        match gathered.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => all.push(v),
            None => gathered.push((name, vec![v])),
        }
    }
    for (name, values) in &gathered {
        let is_time = metrics::def(name).is_some_and(|d| d.unit == "us");
        let q = if is_time { FAST_QUANTILE } else { 0.5 };
        timing(&mut rows, checks, name, values, q);
    }
    if traced {
        let p99s = per_rep(|r| r.sched_p99_us);
        timing(&mut rows, checks, "sched_call_us_p99", &p99s, FAST_QUANTILE);
        if let Some(p99) = rows
            .iter()
            .find(|r| r.0 == "sched_call_us_p99")
            .map(|r| r.1)
        {
            // Share of the 1000 µs slot the tail call takes (Fig. 5d's axis).
            rows.push(("sched_call_p99_slot_pct", p99 / 10.0, None, None));
        }
        if let Some(first) = reps.first() {
            rows.extend(
                first
                    .counters
                    .iter()
                    .map(|(name, v)| (*name, *v, None, None)),
            );
        }
        rows.extend(layers.rows.into_iter().map(|(n, v, s)| (n, v, s, None)));
    }

    // Registry order. (A layer this workload does not exercise has no
    // row; the driver line reports it as 0.)
    let mut out = Vec::new();
    for def in metrics::END_TO_END
        .iter()
        .chain(metrics::LOAD_PATH)
        .chain(metrics::PER_LAYER)
    {
        if let Some(i) = rows.iter().position(|r| r.0 == def.name) {
            let (_, value, summary, split_gap) = rows.swap_remove(i);
            out.push(Measured {
                def,
                value,
                summary,
                split_gap,
            });
        }
    }
    for (name, ..) in rows {
        checks.check(name, false, || "measured but not in the registry".into());
    }
    out
}

// ---------------------------------------------------------------------
// Shared pieces of the traced repetition.
// ---------------------------------------------------------------------

/// Mean over a scenario's Wasm slices of each slot's own p50 / p99, plus
/// total calls — "as the program records it". Averaging per-slice
/// quantiles (instead of merging three differently-shaped distributions
/// and reading one quantile off the mix) keeps each slice's policy
/// visible: a change to any one of them moves the number.
pub fn scenario_exec(scenario: &Scenario, slices: &[&str]) -> Option<(f64, f64, u64)> {
    let (mut p50, mut p99, mut calls) = (0.0, 0.0, 0);
    for name in slices {
        let stats = scenario.plugin_stats(name)?;
        if stats.count() == 0 {
            return None;
        }
        p50 += stats.p50_us();
        p99 += stats.p99_us();
        calls += stats.count();
    }
    let n = slices.len() as f64;
    (n > 0.0).then_some((p50 / n, p99 / n, calls))
}

/// Scheduler faults and fallback slots a scenario's report shows.
pub fn scenario_faults(scenario: &Scenario) -> (u64, u64) {
    let report = scenario.report();
    (
        report.slices.iter().map(|s| s.scheduler_faults).sum(),
        report.slices.iter().map(|s| s.fallback_slots).sum(),
    )
}

/// Swap every named Wasm slice's scheduler for a [`Timed`] wrapper bound
/// to the same host slot.
pub fn instrument(
    scenario: &mut Scenario,
    slices: &[&str],
    sink: &Arc<std::sync::Mutex<TraceSink>>,
    checks: &mut Checks,
) {
    let host = scenario.plugin_host().clone();
    for name in slices {
        if let Some(id) = checks.require(&format!("slice `{name}`"), scenario.slice_id(name)) {
            scenario
                .gnb
                .swap_scheduler(id, Box::new(Timed::wasm(&host, name, sink)));
        }
    }
}

/// Step `slots` slots one at a time under an `Instant` pair each; returns
/// per-slot wall µs with the wrappers' own probe time subtracted.
pub fn step_traced(
    scenario: &mut Scenario,
    slots: u64,
    sink: &Arc<std::sync::Mutex<TraceSink>>,
    mut before_slot: impl FnMut(&mut Scenario, u64),
) -> Vec<f64> {
    let mut slot_us = Vec::with_capacity(slots as usize);
    for i in 0..slots {
        before_slot(scenario, i);
        let probe_before = trace::lock(sink).probe_ns;
        let start = Instant::now();
        trace::lock(sink).begin_slot(scenario.gnb.slot(), start);
        scenario.run_slots(1);
        let end = Instant::now();
        let mut s = trace::lock(sink);
        s.end_slot(end);
        let own = s.probe_ns - probe_before;
        slot_us.push(((end - start).as_nanos() as u64).saturating_sub(own) as f64 / 1e3);
    }
    slot_us
}

/// Layer rows every traced repetition yields from its sink and slot
/// times: the `host`, `abi`, `wasm` and `ransim` shares of the slot.
pub fn slot_budget(sink: &TraceSink, slot_us: &[f64], checks: &mut Checks, out: &mut LayerReport) {
    let slots = slot_us.len() as f64;
    let slot_total_us: f64 = slot_us.iter().sum();
    let call_total_us = sink.call_ns as f64 / 1e3;
    let observed = !sink.call_us.is_empty() && slot_total_us > 0.0;
    checks.check("traced slots and calls", observed, || {
        "no slot was timed or no scheduler call observed".into()
    });
    if !observed {
        return;
    }
    let calls = sink.call_us.len() as f64;
    out.median(checks, "host.call_us_p50", &sink.call_us);
    out.p99(checks, "host.call_us_p99", &sink.call_us);
    out.value("host.call_share_pct", 100.0 * call_total_us / slot_total_us);
    out.value("host.calls_per_slot", calls / slots);
    out.value(
        "ransim.self_us_per_slot",
        (slot_total_us - call_total_us) / slots,
    );
    out.value(
        "ransim.self_share_pct",
        100.0 * (slot_total_us - call_total_us) / slot_total_us,
    );
    out.value(
        "abi.encode_us_per_call",
        sink.encode_ns as f64 / 1e3 / calls,
    );
    out.value("abi.req_bytes_per_call", sink.req_bytes as f64 / calls);
    if let Some(ok) = checks.require(
        "trace.ok_calls",
        (sink.ok_calls > 0).then_some(sink.ok_calls),
    ) {
        out.value(
            "abi.decode_us_per_call",
            sink.decode_ns as f64 / 1e3 / ok as f64,
        );
        out.value(
            "abi.resp_bytes_per_call",
            sink.resp_bytes as f64 / ok as f64,
        );
    }
    if let Some(n) = checks.require(
        "trace.metered_calls",
        (sink.metered_calls > 0).then_some(sink.metered_calls),
    ) {
        out.value("wasm.fuel_per_call", sink.fuel as f64 / n as f64);
        out.value("wasm.instrs_per_call", sink.instrs as f64 / n as f64);
    }
}

/// The eWAPA "interface crossing" cost: replay the traced repetition's
/// sampled requests through the null scheduler on a fresh host slot, and
/// derive guest time as call − crossing.
pub fn crossing_probe(
    requests: &[SchedRequest],
    call_p50_us: Option<f64>,
    checks: &mut Checks,
    out: &mut LayerReport,
) {
    let Some(bytes) = checks.require(
        "null_sched.compile",
        waran_plugc::compile(NULL_SCHED_SRC).ok(),
    ) else {
        return;
    };
    let host = Arc::new(PluginHost::new());
    let installed = install_plugin(&host, "null", &bytes, policy());
    checks.check("null_sched.install", installed.is_ok(), || {
        format!("{installed:?}")
    });
    checks.check("crossing.requests", !requests.is_empty(), || {
        "no live request was sampled".into()
    });
    if installed.is_err() || requests.is_empty() {
        return;
    }
    let mut sched = WasmSliceScheduler::new(host, "null");
    let mut samples = Vec::with_capacity(requests.len() * 8);
    let mut failed = 0u64;
    for round in 0..9 {
        for req in requests {
            let start = Instant::now();
            let result = sched.schedule(req);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            failed += u64::from(result.is_err());
            // Round 0 warms the slot (handle pin, first-call lowering).
            if round > 0 {
                samples.push(us);
            }
        }
    }
    checks.eq("crossing.faults", failed, 0);
    out.median(checks, "host.crossing_us_p50", &samples);
    if let (Some(call), Some(crossing)) = (call_p50_us, stats::median(&samples)) {
        out.value("wasm.guest_us_per_call", call - crossing);
    }
}

/// The fleets' reference oracle — worker-count independence on a short
/// prefix: per-cell digests at one worker must equal those at two (two
/// threads even on a one-CPU host; this run is checked, not timed).
pub fn worker_count_oracle(
    cfg: &RunConfig,
    build: &dyn Fn() -> Option<MultiCellScenario>,
    checks: &mut Checks,
) {
    let mut digests =
        [1usize, 2].map(|workers| build().map(|mut fleet| fleet.run(workers).cell_digests()));
    if cfg.inject == Some(Inject::Digest) {
        if let Some(first) = digests[1].as_mut().and_then(|d| d.first_mut()) {
            *first ^= 1;
        }
    }
    let [one, two] = digests;
    if let (Some(one), Some(two)) = (
        checks.require("prefix run, 1 worker", one),
        checks.require("prefix run, 2 workers", two),
    ) {
        checks.check(
            "cell digests at 1 worker == at 2 workers",
            one == two,
            || {
                let at = one.iter().zip(&two).position(|(a, b)| a != b);
                format!("first differing cell: {at:?}")
            },
        );
    }
}

/// The fleets' traced repetition: one representative cell, standalone.
/// Runs it untraced, then instrumented and stepped slot by slot; the two
/// digests must agree. Emits the slot budget, the crossing probe, the
/// tracing overhead and `core.engine_us_per_slot` (fleet CPU per slot
/// minus the standalone cell's slot time — what the engine adds).
/// Returns the traced scenario for workload-specific probes.
pub fn trace_cell(
    cfg: &RunConfig,
    build: &dyn Fn() -> Option<Scenario>,
    slices: &[&str],
    reps: &[Rep],
    checks: &mut Checks,
    out: &mut LayerReport,
) -> Option<Scenario> {
    let mut plain = checks.require("cell build", build())?;
    let slots = plain.remaining_slots();
    let plain_us = checks.require("cell run", run_chunked_us_per_slot(&mut plain, slots))?;
    let plain_digest = plain.report().digest();

    let mut cell = checks.require("traced cell build", build())?;
    let sink = TraceSink::new();
    instrument(&mut cell, slices, &sink, checks);
    let slot_us = step_traced(&mut cell, slots, &sink, |_, _| {});
    checks.eq(
        "traced cell digest == untraced cell digest",
        cell.report().digest(),
        plain_digest,
    );
    let (faults, _) = scenario_faults(&cell);
    checks.eq("traced cell faults", faults, 0);

    let sink = trace::lock(&sink);
    slot_budget(&sink, &slot_us, checks, out);
    crossing_probe(&sink.requests, stats::median(&sink.call_us), checks, out);
    write_spans(cfg, &sink, checks);
    if let Some(traced_us) = checks.require("traced slots", traced_us_per_slot(&slot_us, &sink)) {
        out.value(
            "trace.overhead_pct",
            100.0 * (traced_us - plain_us) / plain_us,
        );
    }
    let fleet_cpu = per_chunk(reps, |c| c.cpu_s * 1e6 / c.slots as f64);
    if let Some(cpu) = checks.require("fleet cpu", stats::quantile(&fleet_cpu, FAST_QUANTILE)) {
        out.value("core.engine_us_per_slot", cpu - plain_us);
    }
    Some(cell)
}

/// Write the sampled spans where `--trace-out` asked for them.
pub fn write_spans(cfg: &RunConfig, sink: &TraceSink, checks: &mut Checks) {
    if let Some(path) = &cfg.trace_out {
        let written = std::fs::write(path, sink.spans_csv());
        checks.check("trace-out", written.is_ok(), || {
            format!("{}: {written:?}", path.display())
        });
    }
}

/// Run `slots` slots in [`CHUNK_SLOTS`] chunks; fast-decile µs per slot.
pub fn run_chunked_us_per_slot(scenario: &mut Scenario, slots: u64) -> Option<f64> {
    let mut per_slot = Vec::new();
    let mut left = slots;
    while left > 0 {
        let n = CHUNK_SLOTS.min(left);
        let start = Instant::now();
        scenario.run_slots(n);
        per_slot.push(start.elapsed().as_secs_f64() * 1e6 / n as f64);
        left -= n;
    }
    stats::quantile(&per_slot, FAST_QUANTILE)
}

/// What a traced slot cost in all, µs: the individually timed slots
/// grouped into [`CHUNK_SLOTS`] chunks and read at the fast decile (so
/// comparable with untraced chunk times), plus the wrappers' own probe
/// time per slot, which `step_traced` had subtracted.
pub fn traced_us_per_slot(slot_us: &[f64], sink: &TraceSink) -> Option<f64> {
    let per_slot: Vec<f64> = slot_us
        .chunks(CHUNK_SLOTS as usize)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let probes = sink.probe_ns as f64 / 1e3 / slot_us.len().max(1) as f64;
    stats::quantile(&per_slot, FAST_QUANTILE).map(|us| us + probes)
}

/// Overhead of tracing in a single-cell workload: the traced slots
/// against the untraced repetitions' chunks, both at the fast decile.
pub fn trace_overhead(
    reps: &[Rep],
    slot_us: &[f64],
    sink: &TraceSink,
    checks: &mut Checks,
    out: &mut LayerReport,
) {
    let untraced = per_chunk(reps, |c| c.wall_s * 1e6 / c.slots as f64);
    let pair = stats::quantile(&untraced, FAST_QUANTILE).zip(traced_us_per_slot(slot_us, sink));
    if let Some((plain, traced)) = checks.require("trace.overhead_pct", pair) {
        out.value("trace.overhead_pct", 100.0 * (traced - plain) / plain);
    }
}

/// SplitMix64: the benchmark's own seed-derivation mixer.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fold of per-cell digests into one.
pub fn fold_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc, d| mix(acc ^ d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(traced: bool, inject: Option<Inject>) -> RunConfig {
        RunConfig {
            seed: 11,
            reps: 2,
            traced,
            smoke: true,
            inject,
            trace_out: None,
        }
    }

    #[test]
    fn every_workload_passes_its_oracles_at_smoke_size() {
        for name in NAMES {
            let result = run(by_name(name).unwrap(), &smoke(true, None))
                .unwrap_or_else(|f| panic!("{name}: {:?}", f.failures));
            assert_eq!(result.failed_ops, 0, "{name}");
            assert!(result.ops > 0, "{name}");
            // Both driver lines are complete.
            result.driver_line(&[metrics::END_TO_END]).unwrap();
            result
                .driver_line(&[metrics::LOAD_PATH, metrics::PER_LAYER])
                .unwrap();
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.def.name, m.value);
            }
            for e2e in metrics::END_TO_END {
                assert!(
                    result.value(e2e.name).unwrap() > 0.0,
                    "{name}: {}",
                    e2e.name
                );
            }
        }
    }

    #[test]
    fn perturbed_digest_fails_every_workload_closed() {
        for name in NAMES {
            let failure =
                run(by_name(name).unwrap(), &smoke(false, Some(Inject::Digest))).expect_err(name);
            assert!(failure.failed_ops >= 1, "{name}");
            assert!(
                failure.failures.iter().any(|f| f.contains("digest")),
                "{name}: {:?}",
                failure.failures
            );
        }
    }

    #[test]
    fn hostile_plugin_left_installed_fails_plugin_churn_closed() {
        let failure = run(
            by_name("plugin_churn").unwrap(),
            &smoke(false, Some(Inject::Hostile)),
        )
        .expect_err("hostile plugin must be caught");
        assert!(failure.failed_ops >= 1);
        assert!(
            failure.failures.iter().any(|f| f.contains("callable")),
            "{:?}",
            failure.failures
        );
    }

    #[test]
    fn uncomputable_checks_fail_closed() {
        let mut checks = Checks::default();
        assert_eq!(checks.require::<u8>("missing.key", None), None);
        let mut out = LayerReport::default();
        out.median(&mut checks, "host.call_us_p50", &[]);
        assert_eq!(checks.failures.len(), 2);
        assert!(out.rows.is_empty());
    }
}
