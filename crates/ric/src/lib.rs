//! # waran-ric — the near-RT RIC substrate
//!
//! Implements the paper's §4.B design: instead of the standardized E2
//! interface, the RAN↔RIC boundary is wrapped in plugins on both sides.
//!
//! * [`e2`] — the semantic message model: KPI indications and control
//!   actions, plus the fixed binary layout the xApp sandbox ABI uses.
//! * [`comm`] — communication plugins: the [`comm::CommCodec`] wire choice
//!   (TLV / protobuf-wire / JSON, or an arbitrary Wasm plugin via
//!   [`comm::WasmCommPlugin`]).
//! * [`bus`] — the RIC plane, and the only path between a cell and the
//!   RIC: a registry of per-cell RIC state, served in the thread that
//!   publishes each indication, with a per-cell action mailbox (a single
//!   gNB is a one-cell deployment on the same plane).
//! * [`ric`] — the near-RT RIC host: KPI store, xApp lifecycle (native or
//!   Wasm), inter-xApp messaging host functions, and two reference xApps
//!   (traffic steering, slice SLA assurance).
//! * [`adapter`] — the §3.B vendor-mismatch adapter (8-bit ↔ 12-bit
//!   power-control fields), native and as a PlugC-compiled Wasm plugin.
//!
//! Every Wasm plugin here is hosted as a scheduler is: a `TemplateCache`
//! stamp-out in a `PluginHost` slot of the `besteffort` class.

pub mod adapter;
pub mod bus;
pub mod comm;
pub mod e2;
pub mod ric;

pub use bus::{
    ActionBatch, CellPort, DeliveryMode, RecvOutcome, RicBus, RicService, ServiceReport,
};
pub use comm::{CommCodec, JsonCodec, PbCodec, TlvCodec, WasmCommPlugin};
pub use e2::{ControlAction, Indication, KpiReport};
pub use ric::{NearRtRic, SliceSlaAssurance, TrafficSteering, XApp, XAppCtx};

use waran_host::{PluginError, PluginHost, SandboxPolicy, SlotHandle, TemplateCache};

/// Stamp `wasm` from `cache` into slot `name` of `host` (a hot swap when
/// taken) under [`SandboxPolicy::besteffort`], and pin the slot.
fn install_besteffort<T: Default>(
    cache: &TemplateCache<T>,
    host: &PluginHost<T>,
    name: &str,
    wasm: &[u8],
) -> Result<SlotHandle<T>, PluginError> {
    let pre = cache.get_or_build(wasm, SandboxPolicy::besteffort())?;
    host.install(name, pre.instantiate(T::default())?);
    host.handle(name)
        .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))
}
