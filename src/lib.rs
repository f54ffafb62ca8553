//! # WA-RAN
//!
//! A Rust reproduction of *"Towards Seamless 5G Open-RAN Integration with
//! WebAssembly"* (HotNets '24): 5G RAN components hosted as WebAssembly
//! plugins — MVNO intra-slice schedulers inside a gNB MAC and near-RT RIC
//! communication / xApp plugins — on top of a from-scratch WebAssembly
//! virtual machine.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`wasm`] — the WebAssembly substrate: binary decoder, validator,
//!   interpreter with sandboxed linear memory, fuel metering, and a module
//!   builder/encoder. It takes modules as Wasm binaries only.
//! - [`plugc`] — PlugC, a small C-like language compiled to Wasm, used to
//!   author plugins as source text.
//! - [`abi`] — the host↔plugin data plane: byte-buffer ABI, scheduler
//!   record layouts, and wire codecs (TLV / protobuf-wire / bit-packed /
//!   JSON).
//! - [`host`] — the plugin hosting runtime: sandbox policies, hot swap,
//!   fault handling, execution-time statistics.
//! - [`ransim`] — the slot-accurate 5G gNB MAC simulator with two-level
//!   (inter-slice / intra-slice) scheduling.
//! - [`ric`] — the near-RT RIC and E2-node pair with communication plugins
//!   and xApps.
//! - [`core`] — WA-RAN assembled: plugin-backed gNB, live swap, standard
//!   plugin library, scenario drivers.
//!
//! ## Quickstart
//!
//! ```
//! use wa_ran::core::{ScenarioBuilder, SliceSpec, SchedKind};
//!
//! let mut scenario = ScenarioBuilder::new()
//!     .slice(SliceSpec::new("mvno-1", SchedKind::RoundRobin).target_mbps(12.0).ues(3))
//!     .seconds(1.0)
//!     .build()
//!     .expect("scenario builds");
//! let report = scenario.run().expect("runs to completion");
//! assert!(report.slice("mvno-1").unwrap().mean_rate_mbps() > 0.0);
//! ```

pub use waran_abi as abi;
pub use waran_core as core;
pub use waran_host as host;
pub use waran_plugc as plugc;
pub use waran_ransim as ransim;
pub use waran_ric as ric;
pub use waran_wasm as wasm;
