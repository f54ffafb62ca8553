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
//! * [`link`] — the in-process "wire": a bounded MPSC queue with
//!   drop-oldest or blocking sends and depth/drop accounting.
//! * [`bus`] — the RIC plane, and the only path between a cell and the
//!   RIC: a bounded MPSC bus into one service thread hosting per-cell
//!   RIC state, with per-cell action mailboxes and explicit backpressure
//!   (a single gNB is a one-cell deployment on the same bus).
//! * [`ric`] — the near-RT RIC host: KPI store, xApp lifecycle (native or
//!   [`ric::WasmXApp`] sandboxed), inter-xApp messaging host functions,
//!   and two reference xApps (traffic steering, slice SLA assurance).
//! * [`adapter`] — the §3.B vendor-mismatch adapter (8-bit ↔ 12-bit
//!   power-control fields), native and as a PlugC-compiled Wasm plugin.

pub mod adapter;
pub mod bus;
pub mod comm;
pub mod e2;
pub mod link;
pub mod ric;

pub use bus::{ActionBatch, BusFrame, CellPort, DeliveryMode, RicBus, RicService, ServiceReport};
pub use comm::{CommCodec, JsonCodec, PbCodec, TlvCodec, WasmCommPlugin};
pub use e2::{ControlAction, Indication, KpiReport};
pub use link::{RecvOutcome, SendOutcome};
pub use ric::{NearRtRic, SliceSlaAssurance, TrafficSteering, WasmXApp, XApp, XAppCtx};
