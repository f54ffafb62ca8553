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
//! worker — holds exactly one lock: the slot's own mutex, which is what
//! hands out `&mut Plugin` and cannot be removed without giving up
//! exclusive instance state.
//!
//! * The name → slot map is behind a `RwLock` taken only for *reading* on
//!   the call path (and not at all once a caller pins a [`SlotHandle`]).
//!   Only a first install takes the writer lock.
//! * Hot swap and automatic rollback replace the plugin **in place under
//!   the slot mutex**, so a swap lands exactly between two calls: a call
//!   in flight finishes on the old instance and every later call sees the
//!   new one. An install waits for at most one fuel-bounded call; in
//!   practice it waits for none, because every install site (scenario
//!   build and push, RIC xApp install, codec and adapter set-up) runs with
//!   exclusive access to its slot.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
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

/// Lifetime strike counters by why a plugin faulted (they survive swaps
/// and rollbacks). Operators tune strike budgets per kind, so the counters
/// keep them apart. Every kind is a function of the guest and its input,
/// never of host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrikeCounters {
    /// Guest traps other than metering limits (OOB access, unreachable,
    /// division by zero, …): buggy or hostile guest logic.
    pub trap: u64,
    /// The deterministic per-call fuel budget ran out.
    pub fuel_exhausted: u64,
    /// Host-side faults: ABI violations, payload codec errors.
    pub other: u64,
}

impl StrikeCounters {
    /// Record one fault under its kind.
    pub fn record(&mut self, err: &PluginError) {
        match err {
            PluginError::Trap(Trap::OutOfFuel) => self.fuel_exhausted += 1,
            PluginError::Trap(_) => self.trap += 1,
            _ => self.other += 1,
        }
    }

    /// Fold another counter set into this one (report aggregation).
    pub fn merge(&mut self, other: &StrikeCounters) {
        self.trap += other.trap;
        self.fuel_exhausted += other.fuel_exhausted;
        self.other += other.other;
    }

    /// Total strikes across all kinds.
    pub fn total(&self) -> u64 {
        self.trap + self.fuel_exhausted + self.other
    }
}

/// One automatic rollback: a freshly-swapped module crossed its strike
/// budget and the host swapped the retained last-good module back in.
#[derive(Debug, Clone)]
pub struct RollbackEvent {
    /// Slot (plugin name) that rolled back.
    pub name: String,
    /// The slot's swap count once the rollback is in (the "when" in swap
    /// time: the bad module came in at swap `epoch - 1`).
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
    /// Lifetime faults broken down by kind (trap / fuel / other); their
    /// [`StrikeCounters::total`] survives swaps.
    pub strikes: StrikeCounters,
    /// Timed calls, ok or faulted, that took longer than the policy's
    /// watchdog ([`SandboxPolicy::deadline`]). Only one call in every 16
    /// of a plugin is timed, so the watchdog sees only those. Counted
    /// only: a slow call is not a fault, and wall time enters no strike
    /// and no digest.
    ///
    /// [`SandboxPolicy::deadline`]: crate::plugin::SandboxPolicy::deadline
    pub overruns: u64,
    /// Automatic rollbacks to the last-good module.
    pub rollbacks: u64,
    /// Successful calls.
    pub calls_ok: u64,
    /// Times the slot was hot-swapped, automatic rollbacks included.
    pub swaps: u64,
}

struct Slot<T> {
    plugin: Plugin<T>,
    state: SlotState,
    health: SlotHealth,
    stats: ExecTimeStats,
    /// Successful calls since the current plugin was adopted. A swapped-out
    /// plugin is retained as last-good only when this is nonzero — a module
    /// that never served a call is not a proven fallback.
    ok_since_adopt: u64,
    /// The previous module, retained at swap time while it was healthy;
    /// swapped back in automatically when its replacement crosses the
    /// strike budget. `take()`n at rollback so a bad→bad chain cannot loop.
    last_good: Option<Plugin<T>>,
    /// Log of automatic rollbacks on this slot, newest last, capped at
    /// [`ROLLBACK_LOG_CAP`] entries.
    rollback_log: Vec<RollbackEvent>,
}

/// Retained [`RollbackEvent`]s per slot. A fleet that churns through
/// push/rollback cycles for days must not grow host memory; the health
/// counters keep the lifetime totals, the log keeps the recent forensics.
const ROLLBACK_LOG_CAP: usize = 64;

impl<T> Slot<T> {
    fn new(plugin: Plugin<T>) -> Self {
        Slot {
            plugin,
            state: SlotState::Active,
            health: SlotHealth::default(),
            stats: ExecTimeStats::new(),
            ok_since_adopt: 0,
            last_good: None,
            rollback_log: Vec::new(),
        }
    }

    /// Swap `plugin` in. Called with the slot mutex held, so the swap lands
    /// exactly between two calls.
    fn adopt(&mut self, plugin: Plugin<T>) {
        let outgoing = std::mem::replace(&mut self.plugin, plugin);
        // Retain the outgoing module as the rollback target iff it was
        // healthy: active (not quarantined, not the module a rollback is
        // replacing) and proven by at least one successful call. A slot
        // swapped bad→bad keeps its older last-good instead.
        if self.state == SlotState::Active && self.ok_since_adopt > 0 {
            self.last_good = Some(outgoing);
        }
        // The new code gets a fresh chance: quarantine and the consecutive
        // counter clear; lifetime counters survive.
        self.state = SlotState::Active;
        self.health.consecutive_faults = 0;
        self.ok_since_adopt = 0;
        self.health.swaps += 1;
    }
}

/// Run one closure against a locked slot under the fault policy.
///
/// The strike budget comes from the slot's own [`SandboxPolicy`]
/// (`quarantine_after`, part of its governance class). Crossing it rolls
/// the slot back to its retained last-good module when one exists —
/// swapped in place, exactly like an operator install — and quarantines
/// the slot otherwise.
///
/// [`SandboxPolicy`]: crate::plugin::SandboxPolicy
fn run_guarded<T, R>(
    name: &str,
    slot: &mut Slot<T>,
    f: impl FnOnce(&mut Plugin<T>) -> Result<R, PluginError>,
) -> Result<R, PluginError> {
    if slot.state == SlotState::Quarantined {
        return Err(PluginError::Quarantined {
            name: name.to_string(),
        });
    }
    let policy = slot.plugin.policy();
    let seq_before = slot.plugin.call_seq();
    let result = f(&mut slot.plugin);
    // Count every call on both arms, and record its duration when it was
    // timed: the sample rule does not look at the outcome, so trapping
    // calls are sampled like any other. The sequence check keeps closures
    // that failed before reaching a plugin call out of the count.
    let called = slot.plugin.call_seq() != seq_before;
    if called {
        match slot.plugin.last_call_duration() {
            Some(d) => {
                slot.stats.record(d);
                if policy.deadline.is_some_and(|watchdog| d > watchdog) {
                    slot.health.overruns += 1;
                }
            }
            None => slot.stats.record_untimed(),
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
            slot.health.consecutive_faults += 1;
            slot.health.strikes.record(&e);
            let budget = policy.quarantine_after;
            if budget > 0 && slot.health.consecutive_faults >= budget {
                // Quarantined first, so the swap below does not retain the
                // faulting module as last-good. With no last-good retained
                // this parks the slot until the next install.
                slot.state = SlotState::Quarantined;
                if let Some(good) = slot.last_good.take() {
                    // Automatic rollback: swap the last-good module back
                    // in, exactly like an operator install would.
                    let event = RollbackEvent {
                        name: name.to_string(),
                        epoch: slot.health.swaps + 1,
                        class: policy.class,
                        strikes: slot.health.strikes,
                        consecutive_faults: slot.health.consecutive_faults,
                        from_hash: slot.plugin.content_hash(),
                        to_hash: good.content_hash(),
                    };
                    slot.health.rollbacks += 1;
                    if slot.rollback_log.len() == ROLLBACK_LOG_CAP {
                        slot.rollback_log.remove(0);
                    }
                    slot.rollback_log.push(event);
                    slot.adopt(good);
                }
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
    slots: RwLock<HashMap<String, Arc<Mutex<Slot<T>>>>>,
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
    /// Replacing an existing slot swaps the plugin in place under the
    /// slot's mutex: it waits for a call in flight on that slot (at most
    /// one fuel-bounded call) and takes only the map's read lock. A host
    /// function must not install into its own slot — its call holds that
    /// mutex, so the install would deadlock.
    pub fn install(&self, name: &str, plugin: Plugin<T>) {
        let existing = self.slots.read().get(name).cloned();
        let slot = match existing {
            Some(slot) => slot,
            None => match self.slots.write().entry(name.to_string()) {
                Entry::Vacant(v) => {
                    v.insert(Arc::new(Mutex::new(Slot::new(plugin))));
                    return;
                }
                // Raced with another first installer: swap into its slot.
                Entry::Occupied(e) => Arc::clone(e.get()),
            },
        };
        slot.lock().adopt(plugin);
    }

    /// Installed plugin names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.slots.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn slot(&self, name: &str) -> Result<Arc<Mutex<Slot<T>>>, PluginError> {
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
    /// handle shares the slot itself.
    pub fn handle(&self, name: &str) -> Option<SlotHandle<T>> {
        let slot = self.slots.read().get(name).cloned()?;
        Some(SlotHandle {
            name: name.to_string(),
            slot,
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
        run_guarded(name, &mut self.slot(name)?.lock(), f)
    }

    /// Lock and read one slot.
    fn read_slot<R>(&self, name: &str, f: impl FnOnce(&Slot<T>) -> R) -> Option<R> {
        Some(f(&self.slot(name).ok()?.lock()))
    }

    /// Slot state, if the plugin exists.
    pub fn state(&self, name: &str) -> Option<SlotState> {
        self.read_slot(name, |s| s.state)
    }

    /// Health counters, if the plugin exists.
    pub fn health(&self, name: &str) -> Option<SlotHealth> {
        self.read_slot(name, |s| s.health)
    }

    /// Execution-time statistics, if the plugin exists.
    pub fn stats(&self, name: &str) -> Option<ExecTimeStats> {
        self.read_slot(name, |s| s.stats.clone())
    }

    /// Current guest memory footprint of the plugin, bytes.
    pub fn memory_bytes(&self, name: &str) -> Option<usize> {
        self.read_slot(name, |s| s.plugin.memory_bytes())
    }

    /// Log of automatic rollbacks on the slot, oldest first.
    pub fn rollback_log(&self, name: &str) -> Option<Vec<RollbackEvent>> {
        self.read_slot(name, |s| s.rollback_log.clone())
    }

    /// True when the slot currently retains a last-good module to roll
    /// back to.
    pub fn has_last_good(&self, name: &str) -> Option<bool> {
        self.read_slot(name, |s| s.last_good.is_some())
    }

    /// Content hash of the module currently serving the slot, when it came
    /// out of a content-addressed template.
    pub fn content_hash(&self, name: &str) -> Option<u64> {
        self.read_slot(name, |s| s.plugin.content_hash())?
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
/// only synchronization left is the slot's own mutex, under which
/// [`PluginHost::install`] swaps, so the next call sees the new plugin.
pub struct SlotHandle<T> {
    name: String,
    slot: Arc<Mutex<Slot<T>>>,
}

impl<T> Clone for SlotHandle<T> {
    fn clone(&self) -> Self {
        SlotHandle {
            name: self.name.clone(),
            slot: Arc::clone(&self.slot),
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
        run_guarded(&self.name, &mut self.slot.lock(), f)
    }
}

impl<T> std::fmt::Debug for SlotHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}
