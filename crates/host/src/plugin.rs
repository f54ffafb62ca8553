//! A single hosted plugin: compiled module + live instance + sandbox policy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use waran_abi::sched::{SchedRequest, SchedResponse, MAX_RECORDS};
use waran_abi::CodecError;
use waran_wasm::instance::{Instance, InstantiateError, Linker, NS_PER_FUEL};
use waran_wasm::interp::Value;
use waran_wasm::module::{ConstExpr, ExportKind, Global};
use waran_wasm::types::{GlobalType, Mutability, ValType, PAGE_SIZE};
use waran_wasm::{LoadError, Module, Trap};

use crate::linker::PluginPre;

/// Named resource class a plugin is admitted under.
///
/// A class is an operator-facing label for a bundle of sandbox budgets
/// (fuel, memory, watchdog, strike budget). The numeric fields on
/// [`SandboxPolicy`] stay the source of truth — the class records *which
/// preset* produced them, so reports and rollback logs can say "realtime
/// plugin exceeded its strike budget" instead of dumping raw numbers, and
/// so two deployments can assert they run the same tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GovernanceClass {
    /// Strict tier for logic on the slot-critical path: one slot of fuel,
    /// low strike tolerance. See [`SandboxPolicy::realtime`].
    Realtime,
    /// Flexible tier for non-critical logic: ten slots of fuel with a
    /// generous strike budget. See [`SandboxPolicy::besteffort`].
    BestEffort,
    /// Hand-tuned budgets that match no preset (the default for policies
    /// built field-by-field).
    #[default]
    Custom,
}

impl GovernanceClass {
    /// Stable lowercase label, used in reports and rollback logs.
    pub fn label(&self) -> &'static str {
        match self {
            GovernanceClass::Realtime => "realtime",
            GovernanceClass::BestEffort => "besteffort",
            GovernanceClass::Custom => "custom",
        }
    }
}

/// Per-plugin sandbox policy.
///
/// Defaults are sized for the paper's setting: a scheduler plugin that must
/// finish well inside a 1 ms slot with a few MiB of state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SandboxPolicy {
    /// Hard cap on linear-memory pages (layered under the module's own
    /// declared maximum). 64 pages = 4 MiB.
    pub max_memory_pages: u32,
    /// Deterministic fuel budget per call: the only budget that faults a
    /// call. Every call is metered, so a guest that never returns runs out
    /// of fuel instead of hanging its caller.
    pub fuel_per_call: u64,
    /// Watchdog on a call's wall time (`None` = none). A timed host slot
    /// call (one in every 16 calls of a plugin is timed) that takes longer
    /// is counted in [`crate::SlotHealth::overruns`] and still returns its
    /// result: the host's speed never decides a fault.
    pub deadline: Option<Duration>,
    /// Admission gate: require every exported function's *static*
    /// worst-case fuel bound to be finite and at most this value
    /// (`None` = no requirement). A real-time deployment class sets this
    /// so a plugin that could blow the slot budget is rejected at
    /// install time instead of trapping mid-slot.
    pub max_fuel_bound: Option<u64>,
    /// Admission gate: reject plugins whose exported call trees contain a
    /// loop the analyzer cannot bound (data-dependent trip count) or
    /// recursion. Stricter than `max_fuel_bound` alone: it also forbids
    /// code whose bound exists but is data-dependent.
    pub no_unbounded_loops: bool,
    /// Consecutive faults before the host quarantines the plugin (0 =
    /// never). When a last-good module is retained for the slot, crossing
    /// this budget rolls back to it instead of parking the slot.
    pub quarantine_after: u32,
    /// The resource class these budgets came from (reporting only; the
    /// numeric fields are authoritative).
    pub class: GovernanceClass,
}

impl Default for SandboxPolicy {
    fn default() -> Self {
        SandboxPolicy {
            max_memory_pages: 64,
            fuel_per_call: 50_000_000,
            deadline: Some(Duration::from_millis(10)),
            max_fuel_bound: None,
            no_unbounded_loops: false,
            quarantine_after: 3,
            class: GovernanceClass::Custom,
        }
    }
}

/// The NR slot at 15 kHz subcarrier spacing, the paper's setting: the unit
/// the class budgets are shares of.
const SLOT: Duration = Duration::from_millis(1);

/// One slot of fuel on the calibrated executor: 1 ms / 3 ns = 333 333.
const SLOT_FUEL: u64 = SLOT.as_nanos() as u64 / NS_PER_FUEL;

/// Upper bound on the byte length a plugin may return through the ABI.
const MAX_RESPONSE_BYTES: u32 = 1 << 20;

/// A plugin's calls are timed one in this many (a power of two): see
/// [`is_sampled`].
const SAMPLE_EVERY: u64 = 16;

/// Whether a plugin's call number `seq` (the first is 1) is timed.
///
/// Calls go in blocks of [`SAMPLE_EVERY`], and one call per block is
/// timed, at a position a Weyl sequence (multiples of 2^64 / golden
/// ratio) moves from block to block. A fixed stride would alias: when a
/// workload's call cost repeats with a period that divides the stride, it
/// times one phase every time (on slotbench's `fleet_massive`, the 16th of
/// every 16 calls read a p50 two-thirds above that of all calls). The
/// first block times its last call, so a plugin's cold first call never
/// weighs on a short-lived plugin's samples.
fn is_sampled(seq: u64) -> bool {
    let n = seq.wrapping_sub(1);
    let (block, pos) = (n / SAMPLE_EVERY, n % SAMPLE_EVERY);
    let weyl = block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SAMPLE_EVERY.ilog2());
    pos == SAMPLE_EVERY - 1 - weyl
}

impl SandboxPolicy {
    /// The `realtime` governance class: one 1 ms slot of fuel at
    /// [`NS_PER_FUEL`], a one-slot watchdog, 4 MiB memory and a *small*
    /// strike budget — two consecutive faults and the host rolls the slot
    /// back to its last-good module (or quarantines it when there is none).
    pub fn realtime() -> Self {
        SandboxPolicy {
            max_memory_pages: 64,
            fuel_per_call: SLOT_FUEL,
            deadline: Some(SLOT),
            quarantine_after: 2,
            class: GovernanceClass::Realtime,
            ..SandboxPolicy::default()
        }
    }

    /// The `besteffort` governance class: off the slot-critical path, so
    /// the budgets are generous (ten slots of fuel, the default 10 ms
    /// watchdog, 8 MiB memory) and the strike budget tolerant (eight
    /// consecutive faults before rollback/quarantine).
    pub fn besteffort() -> Self {
        SandboxPolicy {
            max_memory_pages: 128,
            fuel_per_call: 10 * SLOT_FUEL,
            quarantine_after: 8,
            class: GovernanceClass::BestEffort,
            ..SandboxPolicy::default()
        }
    }
}

/// Everything that can go wrong hosting a plugin.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginError {
    /// The byte stream failed decode/validation.
    Load(LoadError),
    /// Imports unresolved, segments out of bounds, start trapped.
    Instantiate(InstantiateError),
    /// Guest execution trapped.
    Trap(Trap),
    /// The plugin violated the byte-buffer ABI (missing exports, bogus
    /// pointers, oversized responses).
    Abi(String),
    /// Typed payload decode failure (a *semantic* plugin fault).
    Codec(CodecError),
    /// The plugin exceeded its fault budget and is quarantined.
    Quarantined {
        /// Plugin name.
        name: String,
    },
    /// Unknown plugin name.
    NoSuchPlugin(String),
    /// Load-time admission rejected the plugin: a static resource bound
    /// from the analyzer violates this policy's limits. Carries which
    /// bound, for which exported function, against which limit, so the
    /// operator can tell a policy problem from a plugin bug.
    Admission {
        /// The exported function whose bound failed the gate.
        func: String,
        /// Which bound failed (`"fuel"`, `"regs"`, `"call-depth"`,
        /// `"loop-bound"`).
        bound: &'static str,
        /// The statically computed worst case.
        value: waran_wasm::analysis::Bound,
        /// The policy limit it must not exceed.
        limit: u64,
    },
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::Load(e) => write!(f, "load: {e}"),
            PluginError::Instantiate(e) => write!(f, "instantiate: {e}"),
            PluginError::Trap(t) => write!(f, "trap: {t}"),
            PluginError::Abi(m) => write!(f, "ABI violation: {m}"),
            PluginError::Codec(e) => write!(f, "payload: {e}"),
            PluginError::Quarantined { name } => write!(f, "plugin `{name}` is quarantined"),
            PluginError::NoSuchPlugin(name) => write!(f, "no plugin named `{name}`"),
            PluginError::Admission {
                func,
                bound,
                value,
                limit,
            } => write!(
                f,
                "admission: export `{func}` static {bound} bound {value} exceeds policy limit {limit}"
            ),
        }
    }
}

impl std::error::Error for PluginError {}

impl From<Trap> for PluginError {
    fn from(t: Trap) -> Self {
        PluginError::Trap(t)
    }
}

/// 64-bit FNV-1a over the module bytecode — the content hash used by
/// [`crate::linker::TemplateCache`] and rollback logs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Name of the exported global that is the guest's bump pointer.
const HEAP: &str = "wrn_heap";

/// Where the host places each request, resolved once per module.
#[derive(Debug, Clone, Copy)]
enum Arena {
    /// No `wrn_heap` export: the plugin takes only empty requests, at
    /// pointer 0, and nothing is rewound.
    None,
    /// `wrn_heap` is global `global`, a mutable i32 declared with `base`.
    Heap { global: u32, base: u32 },
    /// `wrn_heap` is exported but is not a mutable i32 global: every call
    /// faults before a byte is written.
    Invalid,
}

/// The byte-buffer ABI, pre-resolved against a module: the request arena
/// and the `schedule` entry.
///
/// Resolution is a property of the *module*, not of any one instance, so a
/// [`crate::linker::PluginPre`] resolves this table once at template build
/// and every stamped-out [`Plugin`] copies it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AbiTable {
    arena: Arena,
    /// `schedule`, when exported with the entry signature.
    schedule: Option<u32>,
}

impl AbiTable {
    /// Resolve the fixed ABI exports from `module`.
    pub(crate) fn resolve(module: &Module) -> AbiTable {
        let arena = match module.export(HEAP).map(|e| &e.kind) {
            None => Arena::None,
            Some(&ExportKind::Global(global)) => match module.globals.get(global as usize) {
                Some(Global {
                    ty:
                        GlobalType {
                            ty: ValType::I32,
                            mutability: Mutability::Var,
                        },
                    init: ConstExpr::I32(base),
                }) => Arena::Heap {
                    global,
                    base: *base as u32,
                },
                _ => Arena::Invalid,
            },
            Some(_) => Arena::Invalid,
        };
        AbiTable {
            arena,
            schedule: entry_index(module, "schedule"),
        }
    }
}

/// The function exported as `name` with the entry signature
/// `(ptr: i32, len: i32) -> i64` — an export scan, no allocation.
fn entry_index(module: &Module, name: &str) -> Option<u32> {
    module.exported_func(name).filter(|&f| {
        module.func_type(f).is_some_and(|ty| {
            ty.params == [ValType::I32, ValType::I32] && ty.results == [ValType::I64]
        })
    })
}

/// The fault for an entry [`entry_index`] does not find.
fn bad_entry(name: &str) -> PluginError {
    PluginError::Abi(format!(
        "entry `{name}` is not exported as (i32, i32) -> i64"
    ))
}

/// A loaded, instantiated plugin with host state `T`.
pub struct Plugin<T> {
    instance: Instance<T>,
    policy: SandboxPolicy,
    /// Wall-clock time of the most recent call (incl. ABI copies) when it
    /// was a timed one, `None` otherwise. Faulting calls are timed by the
    /// same rule; their cost is recorded exactly in fuel and strikes.
    last_call: Option<Duration>,
    /// Calls attempted over this plugin's lifetime (both arms). Lets the
    /// host tell "the closure ran a plugin call" from "it failed before
    /// reaching one", so stale durations are never re-recorded.
    call_seq: u64,
    /// FNV-1a hash of the module bytecode when the plugin came out of a
    /// content-addressed template ([`crate::linker::TemplateCache`]);
    /// `None` for instances built straight from a `Module`.
    content_hash: Option<u64>,
    abi: AbiTable,
    /// Reusable request-encoding buffer for [`Self::call_sched`].
    scratch: Vec<u8>,
}

impl<T> Plugin<T> {
    /// Load a binary module, validate it, and instantiate it under `policy`.
    ///
    /// One-shot construction is one stamp from a [`PluginPre`] template,
    /// the path fleet installs use. Nothing is cached: installs that repeat
    /// go through [`crate::linker::TemplateCache`].
    pub fn new(
        bytes: &[u8],
        linker: &Linker<T>,
        data: T,
        policy: SandboxPolicy,
    ) -> Result<Plugin<T>, PluginError> {
        let module = waran_wasm::load_module(bytes).map_err(PluginError::Load)?;
        PluginPre::new(Arc::new(module), linker, policy)?.instantiate(data)
    }

    /// Wire an already-stamped instance to its policy and pre-resolved ABI
    /// table (the [`PluginPre::instantiate`] back half).
    pub(crate) fn from_parts(
        instance: Instance<T>,
        policy: SandboxPolicy,
        abi: AbiTable,
        content_hash: Option<u64>,
    ) -> Self {
        Plugin {
            instance,
            policy,
            last_call: None,
            call_seq: 0,
            content_hash,
            abi,
            scratch: Vec::new(),
        }
    }

    /// The sandbox policy in force.
    pub fn policy(&self) -> SandboxPolicy {
        self.policy
    }

    /// Wall-clock duration of the most recent [`Self::call`] or
    /// [`Self::call_sched`], whether it succeeded or faulted, when that
    /// call was timed: one in every 16 calls of the plugin is, the first
    /// never. `None` after an untimed call.
    pub fn last_call_duration(&self) -> Option<Duration> {
        self.last_call
    }

    /// Calls attempted over this plugin's lifetime, success or fault.
    pub fn call_seq(&self) -> u64 {
        self.call_seq
    }

    /// FNV-1a content hash of the module bytecode, when the plugin was
    /// stamped from a content-addressed template.
    pub fn content_hash(&self) -> Option<u64> {
        self.content_hash
    }

    /// Borrow the underlying instance (host-function state, stats, memory).
    pub fn instance(&self) -> &Instance<T> {
        &self.instance
    }

    /// Mutably borrow the underlying instance.
    pub fn instance_mut(&mut self) -> &mut Instance<T> {
        &mut self.instance
    }

    /// True when the plugin exports `name`.
    pub fn has_export(&self, name: &str) -> bool {
        self.instance.has_export(name)
    }

    /// Call `entry(input) -> output` through the byte-buffer ABI — one
    /// guest entry:
    ///
    /// 1. `wrn_heap` is rewound to its declared base,
    /// 2. memory grows until `[base, base + len)` fits and the input is
    ///    copied there, leaving `wrn_heap = base + len`,
    /// 3. `entry(base, len)` runs and returns a packed `(ptr << 32) | len`,
    /// 4. the output bytes are copied out.
    ///
    /// The next call's rewind recycles whatever the guest allocated. A
    /// module that exports no `wrn_heap` takes only empty input, at
    /// pointer 0. `entry` must be exported as `(i32, i32) -> i64`; anything
    /// else is a [`PluginError::Abi`] before any guest code runs.
    ///
    /// Fuel is re-armed per call when the policy meters it. One call in
    /// every 16 is timed — both copies and the guest entry — and its wall
    /// time is available via [`Self::last_call_duration`]. A faulting call
    /// is timed by the same rule, not always: its cost is already recorded
    /// exactly, in the fuel it burnt and the strike it took.
    pub fn call(&mut self, entry: &str, input: &[u8]) -> Result<Vec<u8>, PluginError> {
        self.timed(|p| {
            let func = entry_index(p.instance.module(), entry).ok_or_else(|| bad_entry(entry))?;
            let (ptr, len) = p.call_raw(func, input)?;
            Ok(p.output(ptr, len)?.to_vec())
        })
    }

    /// Run one ABI call under the bookkeeping every call shares: the call
    /// is numbered, and the ones [`is_sampled`] picks are timed, success
    /// or fault. Untimed calls read no clock. Nothing reads the time to
    /// decide the call.
    fn timed<R>(&mut self, abi_call: impl FnOnce(&mut Self) -> R) -> R {
        self.call_seq = self.call_seq.wrapping_add(1);
        let start = is_sampled(self.call_seq).then(Instant::now);
        let result = abi_call(self);
        self.last_call = start.map(|start| start.elapsed());
        result
    }

    /// Steps 1-3 of the ABI call: place the input, re-arm fuel, run the
    /// entry once, check the response length against the policy. Returns
    /// the guest-memory span of the output.
    fn call_raw(&mut self, func: u32, input: &[u8]) -> Result<(u32, u32), PluginError> {
        let ptr = self.place(input)?;
        self.instance.set_fuel(self.policy.fuel_per_call);
        // `place` bounded the input by the 32-bit address space.
        let args = [Value::I32(ptr as i32), Value::I32(input.len() as i32)];
        // The entry's signature was checked when it was resolved, so the
        // result is an i64.
        let Some(Value::I64(packed)) = self.instance.call_func(func, &args)? else {
            return Err(PluginError::Abi("entry returned no packed i64".into()));
        };
        let out_ptr = (packed as u64 >> 32) as u32;
        let out_len = (packed as u64 & 0xffff_ffff) as u32;
        if out_len > MAX_RESPONSE_BYTES {
            return Err(PluginError::Abi(format!(
                "response of {out_len} bytes exceeds limit {MAX_RESPONSE_BYTES}"
            )));
        }
        Ok((out_ptr, out_len))
    }

    /// Steps 1-2: rewind the arena and copy `input` to its base. Returns
    /// the pointer the entry receives.
    fn place(&mut self, input: &[u8]) -> Result<u32, PluginError> {
        let (global, base) = match self.abi.arena {
            Arena::Heap { global, base } => (global, base),
            Arena::None if input.is_empty() => return Ok(0),
            Arena::None => {
                return Err(PluginError::Abi(format!(
                    "plugin exports no `{HEAP}` to receive a {}-byte request",
                    input.len()
                )))
            }
            Arena::Invalid => {
                return Err(PluginError::Abi(format!(
                    "`{HEAP}` must be an exported mutable i32 global"
                )))
            }
        };
        let too_big = || {
            PluginError::Abi(format!(
                "a {}-byte request at `{HEAP}` base {base} exceeds the memory cap",
                input.len()
            ))
        };
        let end = u32::try_from(input.len())
            .ok()
            .and_then(|len| base.checked_add(len))
            .ok_or_else(too_big)?;
        let memory = self.instance.memory_mut();
        let pages = end.div_ceil(PAGE_SIZE as u32);
        if pages > memory.size_pages() {
            memory
                .grow(pages - memory.size_pages())
                .ok_or_else(too_big)?;
        }
        memory.write_bytes(base, input).map_err(|_| too_big())?;
        self.instance.set_global(global, Value::I32(end as i32))?;
        Ok(base)
    }

    /// Step 4: the output span, bounds-checked against guest memory.
    fn output(&self, ptr: u32, len: u32) -> Result<&[u8], PluginError> {
        self.instance
            .memory()
            .read_bytes(ptr, len)
            .map_err(|_| PluginError::Abi("plugin returned an out-of-bounds buffer".into()))
    }

    /// Typed scheduler call: encode the request, run `schedule`, decode and
    /// bound the response (at most one allocation per UE plus slack for
    /// padding records).
    ///
    /// Unlike [`Self::call`] this reuses the plugin's scratch buffer for the
    /// request bytes and decodes the response straight out of guest memory —
    /// zero host-side allocations beyond the decoded allocation list. As in
    /// [`Self::call`], the call is one guest entry. A request with more than
    /// [`MAX_RECORDS`] UEs does not fit the ABI's `u16` count and is a
    /// [`PluginError::Abi`] before any guest code runs.
    pub fn call_sched(&mut self, req: &SchedRequest) -> Result<SchedResponse, PluginError> {
        self.timed(|p| {
            if req.ues.len() > MAX_RECORDS {
                return Err(PluginError::Abi(format!(
                    "{} UEs exceed the ABI's {MAX_RECORDS}-record request",
                    req.ues.len()
                )));
            }
            let func = p.abi.schedule.ok_or_else(|| bad_entry("schedule"))?;
            let mut input = std::mem::take(&mut p.scratch);
            input.clear();
            req.encode_into(&mut input);
            let raw = p.call_raw(func, &input);
            p.scratch = input;
            let (ptr, len) = raw?;
            SchedResponse::decode(p.output(ptr, len)?, req.ues.len() + 8)
                .map_err(PluginError::Codec)
        })
    }

    /// Current guest memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.instance.memory().size_bytes()
    }
}

impl<T> std::fmt::Debug for Plugin<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plugin")
            .field("memory_bytes", &self.memory_bytes())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_call_per_block_is_sampled_at_every_phase_alike() {
        const BLOCKS: u64 = 16_384;
        let sampled: Vec<u64> = (1..=BLOCKS * SAMPLE_EVERY)
            .filter(|&seq| is_sampled(seq))
            .collect();
        assert_eq!(sampled.len() as u64, BLOCKS);
        assert_eq!(
            sampled[0], SAMPLE_EVERY,
            "the first block times its last call"
        );
        for (block, seq) in sampled.iter().enumerate() {
            assert_eq!((seq - 1) / SAMPLE_EVERY, block as u64);
        }
        // A call cost that repeats with period `p` is sampled at each of
        // its phases alike, within 1/16 of the even share.
        for p in 2..=32 {
            for phase in 0..p {
                let hits = sampled.iter().filter(|&&seq| seq % p == phase).count();
                let even = BLOCKS as f64 / p as f64;
                assert!(
                    (hits as f64 - even).abs() <= even / 16.0,
                    "period {p}, phase {phase}: {hits} samples, {even:.1} expected"
                );
            }
        }
    }
}
