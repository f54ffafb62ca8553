//! # waran-host — the WA-RAN plugin hosting runtime
//!
//! The Extism-equivalent layer of the reproduction: it owns loaded plugins,
//! enforces per-plugin sandbox policies, moves bytes across the guest
//! boundary, hot-swaps plugin code without stopping the host (§5.C of the
//! paper) and applies the fault policy sketched in §6.A (count faults,
//! quarantine repeat offenders so the embedder can fall back to a default
//! implementation).
//!
//! * [`plugin::Plugin`] — one loaded instance + its [`plugin::SandboxPolicy`],
//!   with the byte-buffer ABI (`wrn_alloc` / `entry(ptr, len) -> packed` /
//!   `wrn_reset`) and typed scheduler calls.
//! * [`linker::PluginPre`] — the pre-validated instantiation template
//!   (imports resolved against the engine's `waran_wasm::instance::Linker`,
//!   sandbox policy, post-segment-init snapshot) fleets stamp instances
//!   from in O(µs); [`linker::TemplateCache`] — the LRU-bounded fleet-wide
//!   template store, built around the one linker it instantiates against
//!   and content-addressed by `(bytecode, policy)`, and the only cache of
//!   loaded plugin code (it owns each module; [`plugin::Plugin::new`]
//!   caches nothing).
//! * [`host::PluginHost`] — the named registry: atomic [`host::PluginHost::install`]
//!   (hot swap), per-slot health and quarantine, per-slot execution-time
//!   statistics.
//! * [`stats`] — the measurement instrument behind the Fig. 5d
//!   reproduction: [`ExecTimeStats`], a mergeable histogram of call times.
//!
//! ```
//! use waran_host::plugin::{Plugin, SandboxPolicy};
//! use waran_wasm::instance::Linker;
//!
//! // A plugin written in PlugC that echoes its input back.
//! let wasm = waran_plugc::compile(r#"
//!     export fn run(ptr: i32, len: i32) -> i64 {
//!         return pack(ptr, len);
//!     }
//! "#).unwrap();
//! let mut plugin = Plugin::new(&wasm, &Linker::<()>::new(), (), SandboxPolicy::default()).unwrap();
//! let out = plugin.call("run", b"hello").unwrap();
//! assert_eq!(out, b"hello");
//! ```

pub mod host;
pub mod linker;
pub mod plugin;
pub mod stats;

pub use host::{
    FaultKind, PluginHost, RollbackEvent, SlotHandle, SlotHealth, SlotState, StrikeCounters,
};
pub use linker::{PluginPre, TemplateCache, TemplateCacheStats};
pub use plugin::{fnv1a, GovernanceClass, Plugin, PluginError, SandboxPolicy};
pub use stats::{ExecTimeStats, QueueDepthStats};
