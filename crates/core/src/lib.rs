//! # waran-core — WA-RAN assembled
//!
//! The paper's contribution, put together from the substrates:
//!
//! * [`plugins`] — the standard plugin library: RR/PF/MT intra-slice
//!   schedulers authored in PlugC and compiled to genuine `.wasm`
//!   modules, plus the §5.D fault-demonstration plugins (null-pointer
//!   dereference, out-of-bounds access, double free, memory leak).
//! * [`wasm_sched`] — the [`wasm_sched::WasmSliceScheduler`] adapter that
//!   plugs a sandboxed module into the gNB's scheduler seam through a
//!   hot-swappable [`waran_host::PluginHost`] slot.
//! * [`scenario`] — the declarative driver used by examples and benches:
//!   slices, UEs, channels, traffic, duration → run → [`scenario::Report`].
//! * [`multicell`] — the sharded deployment engine: N cells executed by
//!   a fixed worker pool in barrier-fenced windows, per-cell outputs
//!   independent of the worker count.
//! * [`mobility`] — the cross-cell handover subsystem: A3 measurement
//!   events over a grid [`mobility::CellLayout`], hysteresis /
//!   time-to-trigger state machines, and the deterministic inter-slot
//!   exchange barrier that migrates UEs between cells bit-identically at
//!   every worker count.
//! * [`ric_glue`] — the gNB↔near-RT-RIC loop over plugin-wrapped
//!   communication: the cell-side E2 driver every deployment (one cell or
//!   a fleet) attaches to the RIC bus with, xApps steering traffic and
//!   assuring slice SLAs.

pub mod mobility;
pub mod multicell;
pub mod plugins;
pub mod ric_glue;
pub mod scenario;
pub mod wasm_sched;

pub use mobility::{
    sort_departures, sort_handovers, A3Config, CellLayout, CellMobility, HandoverMsg,
    InterruptionStats, MobilityAttachment, MobilityReport,
};
pub use multicell::{
    CellGovernance, CellReport, CellSpec, FleetBackground, MultiCellReport, MultiCellScenario,
    MultiCellScenarioBuilder, RicPlaneReport,
};
pub use ric_glue::{apply_action, sample_kpis, AppliedAction, CellE2Driver, RicAttachment};
pub use scenario::{
    Backend, BackgroundReport, BackgroundSpec, ChannelSpec, PopulationModel, Report, Scenario,
    ScenarioBuilder, ScenarioError, SchedKind, SliceReport, SliceSpec, TrafficSpec, UeReport,
};
pub use wasm_sched::{install_plugin, WasmSliceScheduler};
