//! Scenario driver: declarative setup of a WA-RAN gNB with plugin-backed
//! MVNO slices, used by the examples and the figure-regeneration benches.
//!
//! ```
//! use waran_core::{ScenarioBuilder, SliceSpec, SchedKind};
//!
//! let mut scenario = ScenarioBuilder::new()
//!     .slice(SliceSpec::new("iot", SchedKind::RoundRobin).target_mbps(3.0).ues(2))
//!     .seconds(0.5)
//!     .build()
//!     .unwrap();
//! let report = scenario.run().unwrap();
//! assert!(report.slice("iot").unwrap().mean_rate_mbps() > 1.0);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use waran_host::plugin::{PluginError, SandboxPolicy};
use waran_host::{ExecTimeStats, PluginHost, SlotHealth, SlotState};
use waran_ransim::channel::{
    ChannelModel, DistanceChannel, FixedMcsChannel, MarkovFadingChannel, MobileChannel,
    StaticChannel,
};
use waran_ransim::gnb::{Gnb, GnbConfig, SliceConfig};
use waran_ransim::massive::{
    background_offset, splitmix64, unit_f64, BackgroundSliceSnapshot, BackgroundSliceSpec,
    MassiveConfig,
};
use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_ransim::traffic::{Cbr, FullBuffer, PoissonPackets, TrafficSource};
use waran_ransim::ue::UeState;
use waran_ransim::MassivePlane;

use crate::plugins;
use crate::wasm_sched::{install_plugin, WasmSliceScheduler};

/// Scheduling policy for a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Round robin.
    RoundRobin,
    /// Proportional fair.
    ProportionalFair,
    /// Maximum throughput.
    MaxThroughput,
}

impl SchedKind {
    /// Short name (matches the paper's MT/RR/PF labels).
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::RoundRobin => "RR",
            SchedKind::ProportionalFair => "PF",
            SchedKind::MaxThroughput => "MT",
        }
    }

    fn wasm_bytes(self) -> &'static [u8] {
        match self {
            SchedKind::RoundRobin => plugins::rr_wasm(),
            SchedKind::ProportionalFair => plugins::pf_wasm(),
            SchedKind::MaxThroughput => plugins::mt_wasm(),
        }
    }

    fn native(self) -> Box<dyn SliceScheduler> {
        match self {
            SchedKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedKind::ProportionalFair => Box::new(ProportionalFair::new()),
            SchedKind::MaxThroughput => Box::new(MaxThroughput::new()),
        }
    }
}

/// Where a slice's scheduler executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// As a Wasm plugin under the sandbox policy (WA-RAN's path).
    #[default]
    Wasm,
    /// As native Rust (the baseline comparator).
    Native,
}

/// Channel model specification for one UE.
#[derive(Debug, Clone, Copy)]
pub enum ChannelSpec {
    /// Constant CQI.
    Static(u8),
    /// Locked to an MCS (the Fig. 5b setup).
    FixedMcs(u8),
    /// Gauss-Markov fading, good cell-center profile.
    FadingGood,
    /// Gauss-Markov fading, cell-edge profile.
    FadingCellEdge,
    /// Distance-based, meters from the gNB.
    Distance(f64),
    /// A moving UE: waypoint walk at the given speed (m/s) inside the
    /// builder's mobility area, SNR tracking the serving-site distance.
    /// Start position and trajectory derive from the scenario seed.
    Mobile {
        /// Ground speed, meters per second.
        speed_mps: f64,
    },
}

/// Geometry and seeding context a [`ChannelSpec`] is instantiated with.
struct ChannelBuildCtx {
    cell_pos: [f64; 2],
    area: [f64; 4],
    slot_seconds: f64,
    /// Per-UE seed derived from (scenario seed, UE index).
    ue_seed: u64,
}

/// How far from the serving site a mobile UE may start, meters.
const MOBILE_START_SPREAD_M: f64 = 50.0;

impl ChannelSpec {
    fn build(self, ctx: &ChannelBuildCtx) -> Box<dyn ChannelModel> {
        match self {
            ChannelSpec::Static(cqi) => Box::new(StaticChannel::new(cqi)),
            ChannelSpec::FixedMcs(mcs) => Box::new(FixedMcsChannel::new(mcs)),
            ChannelSpec::FadingGood => Box::new(MarkovFadingChannel::good()),
            ChannelSpec::FadingCellEdge => Box::new(MarkovFadingChannel::cell_edge()),
            ChannelSpec::Distance(m) => Box::new(DistanceChannel::new(m)),
            ChannelSpec::Mobile { speed_mps } => {
                // Start uniformly within ±spread of the serving site; two
                // SplitMix64 outputs give the offsets, a third seeds the
                // walk — all pure functions of (scenario seed, UE index).
                let sx = splitmix64(ctx.ue_seed);
                let sy = splitmix64(sx);
                let start = [
                    ctx.cell_pos[0] + (unit_f64(sx) * 2.0 - 1.0) * MOBILE_START_SPREAD_M,
                    ctx.cell_pos[1] + (unit_f64(sy) * 2.0 - 1.0) * MOBILE_START_SPREAD_M,
                ];
                let step_m = speed_mps.max(0.0) * ctx.slot_seconds;
                Box::new(MobileChannel::new(
                    start,
                    step_m,
                    ctx.area,
                    ctx.cell_pos,
                    splitmix64(sy),
                ))
            }
        }
    }
}

/// Traffic specification for one UE.
#[derive(Debug, Clone, Copy)]
pub enum TrafficSpec {
    /// Saturating DL traffic (iperf-style).
    FullBuffer,
    /// Constant bit rate, Mb/s.
    CbrMbps(f64),
    /// Poisson IoT bursts: packets/s of the given size.
    Poisson {
        /// Mean packets per second.
        pps: f64,
        /// Bytes per packet.
        bytes: u64,
    },
}

impl TrafficSpec {
    fn build(self) -> Box<dyn TrafficSource> {
        match self {
            TrafficSpec::FullBuffer => Box::new(FullBuffer),
            TrafficSpec::CbrMbps(mbps) => Box::new(Cbr::new(mbps * 1e6)),
            TrafficSpec::Poisson { pps, bytes } => Box::new(PoissonPackets::new(pps, bytes)),
        }
    }
}

/// How a scenario materializes its UE population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PopulationModel {
    /// Every UE — including [`SliceSpec::background`] populations — is a
    /// full per-UE simulation object. The classic path; also the ground
    /// truth the aggregate model's conservation tests compare against.
    #[default]
    PerUe,
    /// Background populations go into the massive plane
    /// (`waran_ransim::massive`): struct-of-arrays state, one aggregate
    /// flow per slice, with `foreground_per_slice` UEs rotated through
    /// full fidelity every `rotation_period_slots`.
    TwoTier {
        /// Background UEs held at foreground fidelity per slice.
        foreground_per_slice: u32,
        /// Promote/demote cadence in slots (0 = initial fill only).
        rotation_period_slots: u64,
    },
}

/// A slice's background population (see [`SliceSpec::background`]).
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSpec {
    /// Number of background UEs.
    pub ues: u32,
    /// Mean offered rate per UE, kb/s.
    pub per_ue_kbps: f64,
    /// Burst granularity in bytes (0 = smooth CBR).
    pub burst_bytes: f64,
}

/// Offset added to a cell's `first_ue_id` for its background id range,
/// keeping background ids disjoint from foreground ids while staying
/// inside the cell's 100 000-wide id block under mobility layouts.
const BACKGROUND_ID_OFFSET: u32 = 50_000;

/// Declarative slice description.
#[derive(Debug, Clone)]
pub struct SliceSpec {
    /// Slice name.
    pub name: String,
    /// Scheduling policy.
    pub kind: SchedKind,
    /// Execution backend.
    pub backend: Backend,
    /// Target rate, Mb/s.
    pub target: Option<f64>,
    ues: Vec<(ChannelSpec, TrafficSpec)>,
    background: Option<BackgroundSpec>,
}

impl SliceSpec {
    /// A slice with the given policy (Wasm backend, best effort, no UEs).
    pub fn new(name: &str, kind: SchedKind) -> Self {
        SliceSpec {
            name: name.to_string(),
            kind,
            backend: Backend::Wasm,
            target: None,
            ues: Vec::new(),
            background: None,
        }
    }

    /// Give the slice a background population of `n` UEs, each offering
    /// a smooth `per_ue_kbps` kb/s. How it is materialized depends on
    /// [`ScenarioBuilder::population`]: full per-UE objects (`PerUe`) or
    /// the massive plane's aggregate tier (`TwoTier`).
    pub fn background(mut self, n: u32, per_ue_kbps: f64) -> Self {
        self.background = Some(BackgroundSpec {
            ues: n,
            per_ue_kbps,
            burst_bytes: 0.0,
        });
        self
    }

    /// Like [`SliceSpec::background`] but bursty: arrivals come in
    /// `burst_bytes`-sized units (Poisson per-UE / matched-variance
    /// Gaussian aggregate).
    pub fn background_bursty(mut self, n: u32, per_ue_kbps: f64, burst_bytes: f64) -> Self {
        self.background = Some(BackgroundSpec {
            ues: n,
            per_ue_kbps,
            burst_bytes: burst_bytes.max(0.0),
        });
        self
    }

    /// Set the target cumulative DL rate.
    pub fn target_mbps(mut self, mbps: f64) -> Self {
        self.target = Some(mbps);
        self
    }

    /// Execute the scheduler natively instead of as a Wasm plugin.
    pub fn native(mut self) -> Self {
        self.backend = Backend::Native;
        self
    }

    /// Add `n` default UEs (static CQI 12, full-buffer traffic).
    pub fn ues(mut self, n: usize) -> Self {
        for _ in 0..n {
            self.ues
                .push((ChannelSpec::Static(12), TrafficSpec::FullBuffer));
        }
        self
    }

    /// Add one UE with explicit channel and traffic.
    pub fn ue(mut self, channel: ChannelSpec, traffic: TrafficSpec) -> Self {
        self.ues.push((channel, traffic));
        self
    }

    /// Foreground UEs plus background rows: what building this slice
    /// lays out, whichever population model materializes it.
    pub(crate) fn ue_count(&self) -> usize {
        self.ues.len() + self.background.map_or(0, |bg| bg.ues as usize)
    }
}

/// Scenario construction errors.
#[derive(Debug)]
pub enum ScenarioError {
    /// A plugin failed to load/instantiate.
    Plugin(PluginError),
    /// Structural problem with the specification.
    Invalid(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Plugin(e) => write!(f, "plugin: {e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<PluginError> for ScenarioError {
    fn from(e: PluginError) -> Self {
        ScenarioError::Plugin(e)
    }
}

/// Builds a [`Scenario`].
pub struct ScenarioBuilder {
    slices: Vec<SliceSpec>,
    seconds: f64,
    seed: u64,
    gnb_config: GnbConfig,
    policy: SandboxPolicy,
    cell_position: [f64; 2],
    mobility_area: [f64; 4],
    population: PopulationModel,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Paper-testbed defaults: 10 MHz / 15 kHz / 52 PRBs / 1 ms slots.
    pub fn new() -> Self {
        ScenarioBuilder {
            slices: Vec::new(),
            seconds: 1.0,
            seed: 1,
            gnb_config: GnbConfig::default(),
            policy: SandboxPolicy::realtime(),
            cell_position: [0.0, 0.0],
            mobility_area: [-500.0, -500.0, 500.0, 500.0],
            population: PopulationModel::PerUe,
        }
    }

    /// How [`SliceSpec::background`] populations are materialized. The
    /// default (`PerUe`) changes nothing about existing scenarios.
    pub fn population(mut self, model: PopulationModel) -> Self {
        self.population = model;
        self
    }

    /// Add a slice.
    pub fn slice(mut self, spec: SliceSpec) -> Self {
        self.slices.push(spec);
        self
    }

    /// Simulated duration.
    pub fn seconds(mut self, seconds: f64) -> Self {
        self.seconds = seconds;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cell identity stamped on the gNB (multi-cell deployments).
    pub fn cell_id(mut self, cell_id: u32) -> Self {
        self.gnb_config.cell_id = cell_id;
        self
    }

    /// Serving-site position in meters — the anchor for
    /// [`ChannelSpec::Mobile`] UEs (start near here, SNR tracks the
    /// distance to here).
    pub fn cell_position(mut self, pos: [f64; 2]) -> Self {
        self.cell_position = pos;
        self
    }

    /// Deployment-area bounds `[min_x, min_y, max_x, max_y]` (meters)
    /// that mobile UEs walk within.
    pub fn mobility_area(mut self, area: [f64; 4]) -> Self {
        self.mobility_area = area;
        self
    }

    /// First UE id the gNB assigns. Multi-cell mobility deployments give
    /// every cell a disjoint range so ids stay unique while UEs migrate.
    pub fn first_ue_id(mut self, id: u32) -> Self {
        self.gnb_config.first_ue_id = id;
        self
    }

    /// PF time constant in slots.
    pub fn pf_time_constant(mut self, slots: f64) -> Self {
        self.gnb_config.pf_time_constant_slots = slots;
        self
    }

    /// Sandbox policy for plugin-backed slices.
    pub fn sandbox_policy(mut self, policy: SandboxPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Instantiate everything: gNB, slices, UEs, plugins.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if self.slices.is_empty() {
            return Err(ScenarioError::Invalid(
                "a scenario needs at least one slice".into(),
            ));
        }
        let mut config = self.gnb_config.clone();
        config.seed = self.seed;
        let mut gnb = Gnb::new(config);
        let host: Arc<PluginHost<()>> = Arc::new(PluginHost::new());
        let mut slice_ids = HashMap::new();
        let mut slice_order = Vec::new();
        let mut ue_ids: HashMap<String, Vec<u32>> = HashMap::new();
        let mut ue_index: u32 = 0;

        for spec in &self.slices {
            if slice_ids.contains_key(&spec.name) {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate slice `{}`",
                    spec.name
                )));
            }
            let config = match spec.target {
                Some(mbps) => SliceConfig::with_target_mbps(&spec.name, mbps),
                None => SliceConfig::best_effort(&spec.name),
            };
            let scheduler: Box<dyn SliceScheduler> = match spec.backend {
                Backend::Native => spec.kind.native(),
                Backend::Wasm => {
                    install_plugin(&host, &spec.name, spec.kind.wasm_bytes(), self.policy)?;
                    Box::new(WasmSliceScheduler::new(host.clone(), &spec.name))
                }
            };
            let slice_id = gnb.add_slice(config, scheduler);
            slice_ids.insert(spec.name.clone(), slice_id);
            slice_order.push(spec.name.clone());
            let ues = ue_ids.entry(spec.name.clone()).or_default();
            for (channel, traffic) in &spec.ues {
                let ctx = ChannelBuildCtx {
                    cell_pos: self.cell_position,
                    area: self.mobility_area,
                    slot_seconds: gnb.slot_seconds(),
                    ue_seed: splitmix64(
                        self.seed ^ 0x5851_f42d_4c95_7f2d_u64.wrapping_mul(u64::from(ue_index) + 1),
                    ),
                };
                ue_index += 1;
                ues.push(gnb.add_ue(slice_id, channel.build(&ctx), traffic.build()));
            }
        }

        // Materialize background populations under the chosen model.
        match self.population {
            PopulationModel::PerUe => {
                // Ground truth: every background UE is a real simulation
                // object at a deterministic position with its own CBR /
                // Poisson source. Expensive at scale; exact.
                for spec in &self.slices {
                    let Some(bg) = spec.background else { continue };
                    let slice_id = slice_ids[&spec.name];
                    let ues = ue_ids.entry(spec.name.clone()).or_default();
                    for i in 0..bg.ues {
                        let [x, y] =
                            background_offset(self.seed, u64::from(slice_id), u64::from(i));
                        let rate_bps = bg.per_ue_kbps * 1000.0;
                        let traffic: Box<dyn TrafficSource> = if bg.burst_bytes > 0.0 {
                            Box::new(PoissonPackets::new(
                                rate_bps / (8.0 * bg.burst_bytes),
                                bg.burst_bytes as u64,
                            ))
                        } else {
                            Box::new(Cbr::new(rate_bps))
                        };
                        ues.push(gnb.add_ue(
                            slice_id,
                            Box::new(DistanceChannel::new((x * x + y * y).sqrt())),
                            traffic,
                        ));
                    }
                }
            }
            PopulationModel::TwoTier {
                foreground_per_slice,
                rotation_period_slots,
            } => {
                let specs: Vec<BackgroundSliceSpec> = self
                    .slices
                    .iter()
                    .filter_map(|s| {
                        s.background.map(|bg| BackgroundSliceSpec {
                            slice_id: slice_ids[&s.name],
                            population: bg.ues,
                            per_ue_rate_bps: bg.per_ue_kbps * 1000.0,
                            burst_bytes: bg.burst_bytes,
                        })
                    })
                    .collect();
                if !specs.is_empty() {
                    let plane = MassivePlane::new(
                        MassiveConfig {
                            seed: splitmix64(self.seed ^ 0x006d_6173_7369_7665),
                            foreground_quota: foreground_per_slice,
                            rotation_period_slots,
                            cell_pos: self.cell_position,
                            first_ue_id: self.gnb_config.first_ue_id + BACKGROUND_ID_OFFSET,
                        },
                        &specs,
                    );
                    gnb.attach_background(plane);
                }
            }
        }

        let total_slots = (self.seconds / gnb.slot_seconds()).round() as u64;
        Ok(Scenario {
            gnb,
            host,
            policy: self.policy,
            slice_ids,
            slice_order,
            ue_ids,
            remaining_slots: total_slots,
            cell_position: self.cell_position,
        })
    }
}

/// A built, runnable scenario.
pub struct Scenario {
    /// The simulated gNB (public for advanced drivers like the RIC glue).
    pub gnb: Gnb,
    host: Arc<PluginHost<()>>,
    policy: SandboxPolicy,
    slice_ids: HashMap<String, u32>,
    slice_order: Vec<String>,
    ue_ids: HashMap<String, Vec<u32>>,
    remaining_slots: u64,
    cell_position: [f64; 2],
}

impl Scenario {
    /// Run to the configured end; returns the final report.
    pub fn run(&mut self) -> Result<Report, ScenarioError> {
        let n = self.remaining_slots;
        self.run_slots(n);
        Ok(self.report())
    }

    /// Run a bounded number of slots (clamped to what remains).
    pub fn run_slots(&mut self, slots: u64) {
        let n = slots.min(self.remaining_slots);
        self.gnb.run(n);
        self.remaining_slots -= n;
    }

    /// Run for `seconds` of simulated time.
    pub fn run_seconds(&mut self, seconds: f64) {
        let slots = (seconds / self.gnb.slot_seconds()).round() as u64;
        self.run_slots(slots);
    }

    /// Slots left before the configured end.
    pub fn remaining_slots(&self) -> u64 {
        self.remaining_slots
    }

    /// The plugin host backing Wasm slices (stats, health, manual swaps).
    pub fn plugin_host(&self) -> &Arc<PluginHost<()>> {
        &self.host
    }

    /// Numeric slice id for a name.
    pub fn slice_id(&self, name: &str) -> Option<u32> {
        self.slice_ids.get(name).copied()
    }

    /// Slice names in declaration order.
    pub fn slice_names(&self) -> &[String] {
        &self.slice_order
    }

    /// UE ids of a slice.
    pub fn slice_ues(&self, name: &str) -> &[u32] {
        self.ue_ids.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Serving-site position, meters (see
    /// [`ScenarioBuilder::cell_position`]).
    pub fn cell_position(&self) -> [f64; 2] {
        self.cell_position
    }

    /// Detach a UE — the RAN-side departure half of a cross-cell
    /// handover. The UE leaves the gNB and the report index; its slice
    /// name and full MAC state come back so the destination cell can
    /// [`Scenario::attach_ue`] it.
    pub fn detach_ue(&mut self, ue_id: u32) -> Option<(String, UeState)> {
        let (slice_id, state) = self.gnb.remove_ue(ue_id)?;
        let name = self
            .slice_order
            .iter()
            .find(|n| self.slice_ids[n.as_str()] == slice_id)
            .cloned()?;
        if let Some(ids) = self.ue_ids.get_mut(&name) {
            ids.retain(|&u| u != ue_id);
        }
        Some((name, state))
    }

    /// Attach a previously detached UE into the named slice — the
    /// admission half of a handover. On failure (unknown slice, or the
    /// id already attached) the state is handed back untouched.
    pub fn attach_ue(&mut self, slice: &str, ue: UeState) -> Result<(), UeState> {
        let Some(&slice_id) = self.slice_ids.get(slice) else {
            return Err(ue);
        };
        let ue_id = ue.ue_id;
        self.gnb.admit_ue(slice_id, ue)?;
        self.ue_ids
            .entry(slice.to_string())
            .or_default()
            .push(ue_id);
        Ok(())
    }

    /// Hot-swap a Wasm slice's scheduler to another standard policy (the
    /// Fig. 5b move): the gNB keeps running, no UE detaches.
    pub fn swap_plugin(&mut self, slice: &str, kind: SchedKind) -> Result<(), ScenarioError> {
        self.swap_plugin_bytes(slice, kind.wasm_bytes())
    }

    /// Hot-swap a Wasm slice's scheduler to arbitrary module bytes (e.g. a
    /// custom MVNO plugin or one of the §5.D fault plugins).
    pub fn swap_plugin_bytes(&mut self, slice: &str, wasm: &[u8]) -> Result<(), ScenarioError> {
        if !self.slice_ids.contains_key(slice) {
            return Err(ScenarioError::Invalid(format!("no slice `{slice}`")));
        }
        install_plugin(&self.host, slice, wasm, self.policy)?;
        Ok(())
    }

    /// Plugin execution-time stats for a Wasm slice.
    pub fn plugin_stats(&self, slice: &str) -> Option<ExecTimeStats> {
        self.host.stats(slice)
    }

    /// Health counters (per-kind strikes, rollbacks, swaps) of a Wasm
    /// slice's plugin slot.
    pub fn plugin_health(&self, slice: &str) -> Option<SlotHealth> {
        self.host.health(slice)
    }

    /// Quarantine state of a Wasm slice's plugin slot.
    pub fn plugin_state(&self, slice: &str) -> Option<SlotState> {
        self.host.state(slice)
    }

    /// Snapshot report of everything measured so far.
    pub fn report(&self) -> Report {
        let metrics = self.gnb.metrics();
        let slices = self
            .slice_order
            .iter()
            .map(|name| {
                let id = self.slice_ids[name];
                let ues = self
                    .ue_ids
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .map(|ue| UeReport {
                                ue_id: *ue,
                                mean_rate_mbps: metrics.ue_mean_mbps(*ue),
                                series_mbps: metrics.ue_series_mbps(*ue).to_vec(),
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let health = self.gnb.slice_health(id).unwrap_or_default();
                SliceReport {
                    name: name.clone(),
                    slice_id: id,
                    mean_rate_mbps: metrics.slice_mean_mbps(id),
                    series_mbps: metrics.slice_series_mbps(id).to_vec(),
                    scheduler_faults: health.faults,
                    fallback_slots: health.fallback_slots,
                    ues,
                }
            })
            .collect();
        Report {
            slices,
            window_seconds: metrics.window_seconds(),
            utilization: metrics.utilization_series().to_vec(),
            slots: metrics.slots(),
            background: self.gnb.background().map(|plane| BackgroundReport {
                slices: plane.snapshot(),
                delivered_bytes: metrics.total_bits() / 8,
            }),
        }
    }
}

/// Aggregate-tier results (present only when the scenario ran the
/// massive plane — `PopulationModel::TwoTier`).
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundReport {
    /// Per-slice background counters.
    pub slices: Vec<BackgroundSliceSnapshot>,
    /// Total bytes delivered by the cell (foreground + background).
    pub delivered_bytes: u64,
}

/// Per-UE results.
#[derive(Debug, Clone)]
pub struct UeReport {
    /// UE id.
    pub ue_id: u32,
    /// Lifetime mean rate, Mb/s.
    pub mean_rate_mbps: f64,
    /// Windowed rate series, Mb/s.
    pub series_mbps: Vec<f64>,
}

/// Per-slice results.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Slice name.
    pub name: String,
    /// Numeric id.
    pub slice_id: u32,
    /// Lifetime mean rate, Mb/s.
    pub mean_rate_mbps: f64,
    /// Windowed rate series, Mb/s.
    pub series_mbps: Vec<f64>,
    /// Scheduler faults observed.
    pub scheduler_faults: u64,
    /// Slots served by the native fallback.
    pub fallback_slots: u64,
    /// Per-UE breakdown.
    pub ues: Vec<UeReport>,
}

impl SliceReport {
    /// Lifetime mean rate, Mb/s.
    pub fn mean_rate_mbps(&self) -> f64 {
        self.mean_rate_mbps
    }

    /// Mean over the last `n` windows, Mb/s.
    pub fn recent_rate_mbps(&self, n: usize) -> f64 {
        if self.series_mbps.is_empty() {
            return 0.0;
        }
        let k = n.min(self.series_mbps.len()).max(1);
        self.series_mbps[self.series_mbps.len() - k..]
            .iter()
            .sum::<f64>()
            / k as f64
    }
}

/// The scenario's measurement snapshot.
#[derive(Debug, Clone)]
pub struct Report {
    /// Slices in declaration order.
    pub slices: Vec<SliceReport>,
    /// Seconds per series window.
    pub window_seconds: f64,
    /// PRB utilization per window.
    pub utilization: Vec<f64>,
    /// Slots simulated.
    pub slots: u64,
    /// Massive-plane counters (None on the classic per-UE path, so
    /// legacy digests are untouched).
    pub background: Option<BackgroundReport>,
}

impl Report {
    /// Look up a slice by name.
    pub fn slice(&self, name: &str) -> Option<&SliceReport> {
        self.slices.iter().find(|s| s.name == name)
    }

    /// Look up a UE across slices.
    pub fn ue(&self, ue_id: u32) -> Option<&UeReport> {
        self.slices
            .iter()
            .flat_map(|s| s.ues.iter())
            .find(|u| u.ue_id == ue_id)
    }

    /// Order-sensitive 64-bit digest over every number in the report
    /// (slot counts, rate series bit patterns, fault counters, per-UE
    /// series). Two reports digest equal iff the simulations produced
    /// byte-identical measurements — the multi-cell determinism check
    /// compares these across worker counts.
    pub fn digest(&self) -> u64 {
        let mut d = ReportDigest::new();
        d.u64(self.slots);
        d.f64(self.window_seconds);
        d.f64s(&self.utilization);
        for s in &self.slices {
            d.bytes(s.name.as_bytes());
            d.u64(u64::from(s.slice_id));
            d.f64(s.mean_rate_mbps);
            d.f64s(&s.series_mbps);
            d.u64(s.scheduler_faults);
            d.u64(s.fallback_slots);
            for ue in &s.ues {
                d.u64(u64::from(ue.ue_id));
                d.f64(ue.mean_rate_mbps);
                d.f64s(&ue.series_mbps);
            }
        }
        // Aggregate-tier section, folded ONLY when the massive plane ran
        // — classic per-UE reports keep their historical digests.
        if let Some(bg) = &self.background {
            d.bytes(b"background");
            d.u64(bg.delivered_bytes);
            d.u64(bg.slices.len() as u64);
            for s in &bg.slices {
                d.u64(u64::from(s.slice_id));
                d.u64(u64::from(s.population));
                d.u64(u64::from(s.active));
                d.u64(u64::from(s.promoted));
                d.u64(u64::from(s.departed));
                d.u64(s.offered_bytes);
                d.u64(s.scheduled_bytes);
                d.u64(s.dropped_bytes);
                d.u64(s.buffered_bytes);
                d.u64(s.promotions);
                d.u64(s.demotions);
                d.u64(s.lost_to_handover);
                d.u64(s.absorbed);
            }
        }
        d.finish()
    }
}

/// FNV-1a accumulator behind [`Report::digest`].
struct ReportDigest(u64);

impl ReportDigest {
    fn new() -> Self {
        ReportDigest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_empty() {
        assert!(matches!(
            ScenarioBuilder::new().build(),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn builder_rejects_duplicate_slices() {
        let result = ScenarioBuilder::new()
            .slice(SliceSpec::new("a", SchedKind::RoundRobin))
            .slice(SliceSpec::new("a", SchedKind::MaxThroughput))
            .build();
        assert!(matches!(result, Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn wasm_scenario_hits_target() {
        let mut s = ScenarioBuilder::new()
            .slice(
                SliceSpec::new("mvno", SchedKind::RoundRobin)
                    .target_mbps(12.0)
                    .ues(3),
            )
            .seconds(2.0)
            .build()
            .unwrap();
        let report = s.run().unwrap();
        let slice = report.slice("mvno").unwrap();
        assert!(
            (slice.mean_rate_mbps() - 12.0).abs() < 1.5,
            "rate {}",
            slice.mean_rate_mbps()
        );
        assert_eq!(slice.scheduler_faults, 0);
        assert_eq!(slice.ues.len(), 3);
    }

    #[test]
    fn native_and_wasm_backends_agree_on_rates() {
        let run = |native: bool| {
            let spec = SliceSpec::new("s", SchedKind::ProportionalFair)
                .target_mbps(10.0)
                .ues(2);
            let spec = if native { spec.native() } else { spec };
            let mut s = ScenarioBuilder::new()
                .slice(spec)
                .seconds(2.0)
                .seed(7)
                .build()
                .unwrap();
            s.run().unwrap().slice("s").unwrap().mean_rate_mbps()
        };
        let native = run(true);
        let wasm = run(false);
        assert!(
            (native - wasm).abs() < 0.2,
            "native {native} vs wasm {wasm}"
        );
    }

    #[test]
    fn swap_mid_run() {
        let mut s = ScenarioBuilder::new()
            .slice(
                SliceSpec::new("s", SchedKind::MaxThroughput)
                    .ue(ChannelSpec::FixedMcs(28), TrafficSpec::FullBuffer)
                    .ue(ChannelSpec::FixedMcs(16), TrafficSpec::FullBuffer),
            )
            .seconds(2.0)
            .build()
            .unwrap();
        s.run_seconds(1.0);
        let weak = s.slice_ues("s")[1];
        let before = s.report().ue(weak).unwrap().mean_rate_mbps;
        assert!(before < 0.5, "MT starves the weak UE: {before}");
        s.swap_plugin("s", SchedKind::RoundRobin).unwrap();
        s.run_seconds(1.0);
        let report = s.report();
        let series = &report.ue(weak).unwrap().series_mbps;
        let late = series[series.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(late > 1.0, "RR revives the weak UE: {late}");
    }

    #[test]
    fn faulty_plugin_triggers_fallback_and_service_continues() {
        let mut s = ScenarioBuilder::new()
            .slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(1))
            .seconds(1.0)
            .build()
            .unwrap();
        let bad = plugins::compile_faulty(plugins::faulty::NULL_DEREF);
        s.swap_plugin_bytes("s", &bad).unwrap();
        let report = s.run().unwrap();
        let slice = report.slice("s").unwrap();
        // Faults recorded, fallback kept the UEs served.
        assert!(slice.scheduler_faults > 0);
        assert!(
            slice.mean_rate_mbps() > 10.0,
            "rate {}",
            slice.mean_rate_mbps()
        );
    }

    #[test]
    fn mobile_ues_report_positions_and_migrate() {
        let mut a = ScenarioBuilder::new()
            .slice(
                SliceSpec::new("s", SchedKind::RoundRobin)
                    .ue(
                        ChannelSpec::Mobile { speed_mps: 30.0 },
                        TrafficSpec::FullBuffer,
                    )
                    .ue(ChannelSpec::Static(10), TrafficSpec::FullBuffer),
            )
            .seconds(0.4)
            .seed(5)
            .cell_position([100.0, 0.0])
            .build()
            .unwrap();
        let mut b = ScenarioBuilder::new()
            .slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(1))
            .seconds(0.4)
            .seed(6)
            .first_ue_id(500)
            .cell_position([200.0, 0.0])
            .build()
            .unwrap();
        a.run_seconds(0.2);
        b.run_seconds(0.2);

        let mobiles = a.gnb.mobile_ues();
        assert_eq!(mobiles.len(), 1, "only the mobile UE reports a position");
        let ue = mobiles[0].1;
        let (slice, mut state) = a.detach_ue(ue).expect("detach");
        assert_eq!(slice, "s");
        assert!(!a.slice_ues("s").contains(&ue));
        state.channel.retarget(b.cell_position());
        b.attach_ue("s", state).expect("admit");
        assert!(b.slice_ues("s").contains(&ue));

        a.run_seconds(0.2);
        b.run_seconds(0.2);
        assert!(b.report().ue(ue).is_some(), "migrant shows in dst report");
        assert!(a.report().ue(ue).is_none(), "migrant left src report");
    }

    #[test]
    fn plugin_stats_collected() {
        let mut s = ScenarioBuilder::new()
            .slice(SliceSpec::new("s", SchedKind::ProportionalFair).ues(5))
            .seconds(0.5)
            .build()
            .unwrap();
        s.run().unwrap();
        let stats = s.plugin_stats("s").unwrap();
        assert!(stats.count() > 400);
        // Every call was timed; how long each took is the host's business
        // (slotbench measures it), not a test verdict.
        assert!(stats.p99_us() >= stats.p50_us() && stats.p50_us() > 0.0);
    }
}
