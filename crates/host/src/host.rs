//! The plugin registry: named slots, atomic hot swap, fault accounting and
//! quarantine.
//!
//! This is the piece that delivers the paper's §5.C (live swap without
//! stopping the gNB) and §6.A (fault tolerance: detect misbehaving plugins
//! and fall back / disconnect). Swaps are atomic per slot: a call already
//! in flight finishes on the old instance; every later call sees the new
//! one.
//!
//! # Locking (the sharded-engine audit)
//!
//! The hot path — one scheduler call per slice per 1 ms slot, on every
//! worker — holds exactly one lock: the slot's own `inner` mutex, which is
//! what hands out `&mut Plugin` and cannot be removed without giving up
//! exclusive instance state. Everything else is arranged so that lock is
//! never held longer than one call:
//!
//! * The name → slot map is behind a `RwLock` taken only for *reading* on
//!   the call path (and not at all once a caller pins a [`SlotHandle`]).
//!   Writers appear only on first install / remove.
//! * Hot swap is **epoch-style publication**: [`PluginHost::install`] on an
//!   existing name stages the new plugin in a side cell and bumps the
//!   slot's epoch counter — it never waits for the global writer lock or
//!   for an in-flight call on the slot. The caller adopts the staged
//!   plugin at its next call boundary, which is exactly the "in-flight
//!   call finishes on the old instance" contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use waran_abi::sched::{SchedRequest, SchedResponse};

use crate::plugin::{GovernanceClass, Plugin, PluginError};
use crate::stats::ExecTimeStats;
use waran_wasm::Trap;

/// Health of one plugin slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Serving calls.
    Active,
    /// Exceeded its fault budget; calls are refused until the next swap.
    Quarantined,
}

/// The governance-relevant classification of one fault.
///
/// Strike accounting distinguishes *why* a plugin faulted: a trap points at
/// buggy or hostile guest logic, fuel exhaustion at a blown deterministic
/// budget, a deadline at wall-clock overrun. Operators tune strike budgets
/// per class, so the counters must keep them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A guest trap other than a metering limit (OOB access, unreachable,
    /// division by zero, …).
    Trap,
    /// The deterministic per-call fuel budget ran out.
    FuelExhausted,
    /// The wall-clock per-call deadline expired.
    DeadlineExceeded,
    /// Host-side faults: ABI violations, payload codec errors, anything
    /// that is a plugin fault but not a trap.
    Other,
}

impl FaultKind {
    /// Classify a plugin error for strike accounting.
    pub fn classify(err: &PluginError) -> FaultKind {
        match err {
            PluginError::Trap(Trap::OutOfFuel) => FaultKind::FuelExhausted,
            PluginError::Trap(Trap::DeadlineExceeded) => FaultKind::DeadlineExceeded,
            PluginError::Trap(_) => FaultKind::Trap,
            _ => FaultKind::Other,
        }
    }
}

/// Per-kind lifetime strike counters (survive swaps and rollbacks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrikeCounters {
    /// Guest traps other than metering limits.
    pub trap: u64,
    /// Fuel-exhaustion faults.
    pub fuel_exhausted: u64,
    /// Wall-clock deadline faults.
    pub deadline: u64,
    /// ABI/codec/other plugin faults.
    pub other: u64,
}

impl StrikeCounters {
    /// Record one fault of the given kind.
    pub fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Trap => self.trap += 1,
            FaultKind::FuelExhausted => self.fuel_exhausted += 1,
            FaultKind::DeadlineExceeded => self.deadline += 1,
            FaultKind::Other => self.other += 1,
        }
    }

    /// Fold another counter set into this one (report aggregation).
    pub fn merge(&mut self, other: &StrikeCounters) {
        self.trap += other.trap;
        self.fuel_exhausted += other.fuel_exhausted;
        self.deadline += other.deadline;
        self.other += other.other;
    }

    /// Total strikes across all kinds.
    pub fn total(&self) -> u64 {
        self.trap + self.fuel_exhausted + self.deadline + self.other
    }
}

/// One automatic rollback: a freshly-swapped module crossed its strike
/// budget and the host republished the retained last-good module through
/// the epoch publication path.
#[derive(Debug, Clone)]
pub struct RollbackEvent {
    /// Slot (plugin name) that rolled back.
    pub name: String,
    /// Publication epoch of the rollback (the "when" in swap time: the
    /// bad module's adoption epoch is `epoch - 1`).
    pub epoch: u64,
    /// Governance class of the module that was rolled back.
    pub class: GovernanceClass,
    /// Lifetime strike counters at the moment of rollback.
    pub strikes: StrikeCounters,
    /// Consecutive faults that crossed the budget.
    pub consecutive_faults: u32,
    /// Content hash of the module rolled back *from* (the bad push), when
    /// it came out of the template cache.
    pub from_hash: Option<u64>,
    /// Content hash of the last-good module rolled back *to*.
    pub to_hash: Option<u64>,
}

/// Cumulative per-slot health counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotHealth {
    /// Consecutive faults (reset by a successful call or a swap).
    pub consecutive_faults: u32,
    /// Total faults over the slot's lifetime (survives swaps).
    pub total_faults: u64,
    /// Lifetime faults broken down by kind (trap / fuel / deadline / other).
    pub strikes: StrikeCounters,
    /// Automatic rollbacks to the last-good module.
    pub rollbacks: u64,
    /// Successful calls.
    pub calls_ok: u64,
    /// Times the slot was hot-swapped.
    pub swaps: u64,
}

struct Slot<T> {
    plugin: Plugin<T>,
    state: SlotState,
    health: SlotHealth,
    stats: ExecTimeStats,
    /// The publication epoch this slot last adopted.
    seen_epoch: u64,
    /// Successful calls since the current plugin was adopted. A swapped-out
    /// plugin is retained as last-good only when this is nonzero — a module
    /// that never served a call is not a proven fallback.
    ok_since_adopt: u64,
    /// The previous module, retained at swap time while it was healthy;
    /// republished automatically when its replacement crosses the strike
    /// budget. `take()`n at rollback so a bad→bad chain cannot loop.
    last_good: Option<Plugin<T>>,
    /// Log of automatic rollbacks on this slot, newest last, capped at
    /// [`ROLLBACK_LOG_CAP`] entries.
    rollback_log: Vec<RollbackEvent>,
}

/// Retained [`RollbackEvent`]s per slot. A fleet that churns through
/// push/rollback cycles for days must not grow host memory; the health
/// counters keep the lifetime totals, the log keeps the recent forensics.
const ROLLBACK_LOG_CAP: usize = 64;

/// The shared identity of a named slot: callers hold the `inner` mutex for
/// the duration of one plugin call; installers publish replacements
/// through `pending`/`epoch` without ever taking `inner`.
struct SlotShared<T> {
    inner: Mutex<Slot<T>>,
    /// Staged replacement, adopted at the next call boundary. Latest
    /// install wins if several are staged between calls.
    pending: Mutex<Option<Plugin<T>>>,
    /// Publications completed on this slot (== lifetime swap count).
    epoch: AtomicU64,
}

impl<T> SlotShared<T> {
    fn new(plugin: Plugin<T>) -> Self {
        SlotShared {
            inner: Mutex::new(Slot {
                plugin,
                state: SlotState::Active,
                health: SlotHealth::default(),
                stats: ExecTimeStats::new(),
                seen_epoch: 0,
                ok_since_adopt: 0,
                last_good: None,
                rollback_log: Vec::new(),
            }),
            pending: Mutex::new(None),
            epoch: AtomicU64::new(0),
        }
    }

    /// Stage `plugin` and bump the epoch. Never blocks on `inner`.
    fn publish(&self, plugin: Plugin<T>) {
        *self.pending.lock() = Some(plugin);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Adopt a staged replacement, if any. Called with `inner` held, so
    /// adoption is serialized and lands exactly between two calls.
    fn sync(&self, slot: &mut Slot<T>) {
        let epoch = self.epoch.load(Ordering::Acquire);
        if slot.seen_epoch == epoch {
            return;
        }
        if let Some(plugin) = self.pending.lock().take() {
            let outgoing = std::mem::replace(&mut slot.plugin, plugin);
            // Retain the outgoing module as the rollback target iff it was
            // healthy: active (not quarantined, not the module a rollback
            // is currently replacing) and proven by at least one
            // successful call. A slot swapped bad→bad keeps its older
            // last-good instead.
            if slot.state == SlotState::Active && slot.ok_since_adopt > 0 {
                slot.last_good = Some(outgoing);
            }
            // The new code gets a fresh chance: quarantine and the
            // consecutive counter clear; lifetime counters survive.
            slot.state = SlotState::Active;
            slot.health.consecutive_faults = 0;
            slot.ok_since_adopt = 0;
        }
        slot.seen_epoch = epoch;
    }
}

/// Run one closure against a synced slot under the fault policy.
///
/// The strike budget comes from the slot's own [`SandboxPolicy`]
/// (`quarantine_after`, part of its governance class). Crossing it rolls
/// the slot back to its retained last-good module when one exists —
/// republished through the same epoch path as an operator swap, adopted
/// at the next call boundary — and quarantines the slot otherwise.
///
/// [`SandboxPolicy`]: crate::plugin::SandboxPolicy
fn run_guarded<T, R>(
    shared: &SlotShared<T>,
    name: &str,
    slot: &mut Slot<T>,
    f: impl FnOnce(&mut Plugin<T>) -> Result<R, PluginError>,
) -> Result<R, PluginError> {
    if slot.state == SlotState::Quarantined {
        return Err(PluginError::Quarantined {
            name: name.to_string(),
        });
    }
    let budget = slot.plugin.policy().quarantine_after;
    let seq_before = slot.plugin.call_seq();
    let result = f(&mut slot.plugin);
    // Record the call duration on both arms — trapping and fuel-exhausted
    // calls are precisely the slow ones, and dropping them would deflate
    // the reported tail latency. The sequence check keeps closures that
    // failed before reaching a plugin call from re-recording a stale
    // duration.
    let called = slot.plugin.call_seq() != seq_before;
    if called {
        if let Some(d) = slot.plugin.last_call_duration() {
            slot.stats.record(d);
        }
    }
    match result {
        // No plugin call, no success: a closure that only reads the
        // plugin neither ends a strike streak nor proves the module.
        Ok(out) => {
            if called {
                slot.health.calls_ok += 1;
                slot.health.consecutive_faults = 0;
                slot.ok_since_adopt += 1;
            }
            Ok(out)
        }
        Err(e) => {
            slot.health.total_faults += 1;
            slot.health.consecutive_faults += 1;
            slot.health.strikes.bump(FaultKind::classify(&e));
            if budget > 0 && slot.health.consecutive_faults >= budget {
                if let Some(good) = slot.last_good.take() {
                    // Automatic rollback: republish the last-good module
                    // through the epoch path. The next call on this slot
                    // adopts it (clearing the quarantine below) exactly
                    // like an operator-pushed swap would.
                    let event = RollbackEvent {
                        name: name.to_string(),
                        epoch: shared.epoch.load(Ordering::Acquire) + 1,
                        class: slot.plugin.policy().class,
                        strikes: slot.health.strikes,
                        consecutive_faults: slot.health.consecutive_faults,
                        from_hash: slot.plugin.content_hash(),
                        to_hash: good.content_hash(),
                    };
                    shared.publish(good);
                    slot.health.rollbacks += 1;
                    if slot.rollback_log.len() == ROLLBACK_LOG_CAP {
                        slot.rollback_log.remove(0);
                    }
                    slot.rollback_log.push(event);
                }
                // Quarantined until the rollback (or any other pending
                // publication) is adopted at the next call boundary; with
                // no last-good retained this parks the slot for good.
                slot.state = SlotState::Quarantined;
            }
            Err(e)
        }
    }
}

/// A named registry of plugins with hot swap and fault policy.
///
/// All methods take `&self`; slots are independently locked so calls into
/// different plugins proceed concurrently and a swap never tears a call.
pub struct PluginHost<T> {
    slots: RwLock<HashMap<String, Arc<SlotShared<T>>>>,
}

impl<T> Default for PluginHost<T> {
    fn default() -> Self {
        PluginHost {
            slots: RwLock::new(HashMap::new()),
        }
    }
}

impl<T> PluginHost<T> {
    /// Host enforcing each plugin's own strike budget
    /// (`SandboxPolicy::quarantine_after`, set by its governance class).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install or atomically replace the plugin under `name`. Replacement
    /// clears quarantine and consecutive-fault state (the new code gets a
    /// fresh chance) but keeps lifetime counters.
    ///
    /// Replacing an existing slot is wait-free with respect to callers:
    /// the new plugin is *published* (staged + epoch bump) and adopted at
    /// the slot's next call boundary, so an installer never blocks behind
    /// an in-flight call and never takes the global writer lock.
    pub fn install(&self, name: &str, plugin: Plugin<T>) {
        if let Some(shared) = self.slots.read().get(name).cloned() {
            shared.publish(plugin);
            return;
        }
        let mut slots = self.slots.write();
        match slots.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Raced with another first-installer: publish instead.
                e.get().publish(plugin);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::new(SlotShared::new(plugin)));
            }
        }
    }

    /// Remove a plugin. Returns true when it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.slots.write().remove(name).is_some()
    }

    /// Installed plugin names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.slots.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn slot(&self, name: &str) -> Result<Arc<SlotShared<T>>, PluginError> {
        self.slots
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))
    }

    /// Pin the slot `name` for repeated hot-path calls.
    ///
    /// The handle bypasses the name → slot map lookup on every call; hot
    /// swaps through [`Self::install`] still take effect because the
    /// handle shares the slot's publication cell. The handle pins the
    /// slot's *identity*: after [`Self::remove`], a handle keeps the
    /// removed slot alive and a later `install` under the same name
    /// creates a fresh slot the old handle does not see.
    pub fn handle(&self, name: &str) -> Option<SlotHandle<T>> {
        let shared = self.slots.read().get(name).cloned()?;
        Some(SlotHandle {
            name: name.to_string(),
            shared,
        })
    }

    /// Call `entry` on the plugin `name` through the byte ABI, applying the
    /// fault policy: faults increment the slot's counters and may
    /// quarantine it; successes reset the consecutive counter.
    pub fn call(&self, name: &str, entry: &str, input: &[u8]) -> Result<Vec<u8>, PluginError> {
        self.with_plugin(name, |plugin| plugin.call(entry, input))
    }

    /// Typed scheduler call with the same fault policy as [`Self::call`].
    pub fn call_sched(&self, name: &str, req: &SchedRequest) -> Result<SchedResponse, PluginError> {
        self.with_plugin(name, |plugin| plugin.call_sched(req))
    }

    /// Run an arbitrary closure against the plugin under the fault policy.
    pub fn with_plugin<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Plugin<T>) -> Result<R, PluginError>,
    ) -> Result<R, PluginError> {
        let shared = self.slot(name)?;
        let mut slot = shared.inner.lock();
        shared.sync(&mut slot);
        run_guarded(&shared, name, &mut slot, f)
    }

    /// Lock, sync and read one slot. `f` also receives the slot's
    /// publication epoch (== lifetime swap count), which lives on the
    /// shared cell rather than under the inner lock.
    fn read_slot<R>(&self, name: &str, f: impl FnOnce(&Slot<T>, u64) -> R) -> Option<R> {
        let shared = self.slot(name).ok()?;
        let mut slot = shared.inner.lock();
        shared.sync(&mut slot);
        let epoch = shared.epoch.load(Ordering::Acquire);
        Some(f(&slot, epoch))
    }

    /// Slot state, if the plugin exists.
    pub fn state(&self, name: &str) -> Option<SlotState> {
        self.read_slot(name, |s, _| s.state)
    }

    /// Health counters, if the plugin exists.
    pub fn health(&self, name: &str) -> Option<SlotHealth> {
        self.read_slot(name, |s, epoch| SlotHealth {
            swaps: epoch,
            ..s.health
        })
    }

    /// Execution-time statistics, if the plugin exists.
    pub fn stats(&self, name: &str) -> Option<ExecTimeStats> {
        self.read_slot(name, |s, _| s.stats.clone())
    }

    /// Current guest memory footprint of the plugin, bytes.
    pub fn memory_bytes(&self, name: &str) -> Option<usize> {
        self.read_slot(name, |s, _| s.plugin.memory_bytes())
    }

    /// Log of automatic rollbacks on the slot, oldest first.
    pub fn rollback_log(&self, name: &str) -> Option<Vec<RollbackEvent>> {
        self.read_slot(name, |s, _| s.rollback_log.clone())
    }

    /// True when the slot currently retains a last-good module to roll
    /// back to.
    pub fn has_last_good(&self, name: &str) -> Option<bool> {
        self.read_slot(name, |s, _| s.last_good.is_some())
    }

    /// Content hash of the module currently serving the slot, when it came
    /// out of a content-addressed template.
    pub fn content_hash(&self, name: &str) -> Option<u64> {
        self.read_slot(name, |s, _| s.plugin.content_hash())?
    }
}

impl<T> std::fmt::Debug for PluginHost<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PluginHost")
            .field("plugins", &self.names())
            .finish()
    }
}

/// A pinned reference to one host slot, for hot paths that call the same
/// plugin every slot (the per-cell scheduler binding).
///
/// Calls through the handle skip the host's name → slot map entirely: the
/// only synchronization left is the slot's own call mutex. Hot swaps
/// published via [`PluginHost::install`] are still adopted at the next
/// call boundary.
pub struct SlotHandle<T> {
    name: String,
    shared: Arc<SlotShared<T>>,
}

impl<T> Clone for SlotHandle<T> {
    fn clone(&self) -> Self {
        SlotHandle {
            name: self.name.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> SlotHandle<T> {
    /// The slot name this handle pins.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Typed scheduler call under the fault policy (see
    /// [`PluginHost::call_sched`]).
    pub fn call_sched(&self, req: &SchedRequest) -> Result<SchedResponse, PluginError> {
        self.with_plugin(|plugin| plugin.call_sched(req))
    }

    /// Byte-ABI call under the fault policy (see [`PluginHost::call`]).
    pub fn call(&self, entry: &str, input: &[u8]) -> Result<Vec<u8>, PluginError> {
        self.with_plugin(|plugin| plugin.call(entry, input))
    }

    /// Run a closure against the pinned plugin under the fault policy.
    pub fn with_plugin<R>(
        &self,
        f: impl FnOnce(&mut Plugin<T>) -> Result<R, PluginError>,
    ) -> Result<R, PluginError> {
        let mut slot = self.shared.inner.lock();
        self.shared.sync(&mut slot);
        run_guarded(&self.shared, &self.name, &mut slot, f)
    }
}

impl<T> std::fmt::Debug for SlotHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}
