//! A single hosted plugin: compiled module + live instance + sandbox policy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_abi::CodecError;
use waran_wasm::instance::{Instance, InstantiateError, Linker};
use waran_wasm::interp::Value;
use waran_wasm::types::ValType;
use waran_wasm::{LoadError, Module, Trap};

use crate::linker::PluginPre;

/// Named resource class a plugin is admitted under.
///
/// A class is an operator-facing label for a bundle of sandbox budgets
/// (fuel, memory, deadline, strike budget). The numeric fields on
/// [`SandboxPolicy`] stay the source of truth — the class records *which
/// preset* produced them, so reports and rollback logs can say "realtime
/// plugin exceeded its strike budget" instead of dumping raw numbers, and
/// so two deployments can assert they run the same tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GovernanceClass {
    /// Strict tier for logic on the slot-critical path: one-slot deadline,
    /// small fuel budget, low strike tolerance. See
    /// [`SandboxPolicy::realtime`].
    Realtime,
    /// Flexible tier for non-critical logic: the default deadline/fuel
    /// budgets with a generous strike budget. See
    /// [`SandboxPolicy::besteffort`].
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
    /// Deterministic instruction budget per call (`None` = unmetered).
    pub fuel_per_call: Option<u64>,
    /// Wall-clock budget per call (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Maximum nested call depth inside the plugin.
    pub max_call_depth: usize,
    /// Maximum operand-stack slots a call may use. Enforced at runtime by
    /// the block meters and at install time against the static per-export
    /// bound from load-time analysis.
    pub max_value_stack: usize,
    /// Upper bound on the byte length a plugin may return through the ABI.
    pub max_response_bytes: u32,
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
            fuel_per_call: Some(50_000_000),
            deadline: Some(Duration::from_millis(10)),
            max_call_depth: 512,
            max_value_stack: 1 << 20,
            max_response_bytes: 1 << 20,
            max_fuel_bound: None,
            no_unbounded_loops: false,
            quarantine_after: 3,
            class: GovernanceClass::Custom,
        }
    }
}

impl SandboxPolicy {
    /// A policy tuned to the 5G slot budget used in the paper's evaluation
    /// (1 ms slots): deadline at one slot, modest fuel.
    pub fn slot_budget() -> Self {
        SandboxPolicy {
            deadline: Some(Duration::from_millis(1)),
            fuel_per_call: Some(5_000_000),
            ..SandboxPolicy::default()
        }
    }

    /// Disable fuel and deadline (benchmarking the raw interpreter).
    pub fn unmetered() -> Self {
        SandboxPolicy {
            fuel_per_call: None,
            deadline: None,
            ..SandboxPolicy::default()
        }
    }

    /// The `realtime` governance class: slot-critical budgets (one-slot
    /// deadline, modest fuel, 4 MiB memory) with a *small* strike budget —
    /// two consecutive faults and the host rolls the slot back to its
    /// last-good module (or quarantines it when there is none).
    pub fn realtime() -> Self {
        SandboxPolicy {
            max_memory_pages: 64,
            fuel_per_call: Some(5_000_000),
            deadline: Some(Duration::from_millis(1)),
            quarantine_after: 2,
            class: GovernanceClass::Realtime,
            ..SandboxPolicy::default()
        }
    }

    /// The `besteffort` governance class: off the slot-critical path, so
    /// the budgets are generous (default deadline/fuel, 8 MiB memory) and
    /// the strike budget tolerant (eight consecutive faults before
    /// rollback/quarantine).
    pub fn besteffort() -> Self {
        SandboxPolicy {
            max_memory_pages: 128,
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
        /// Which bound failed (`"fuel"`, `"value-stack"`, `"call-depth"`,
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

/// An ABI entry point resolved once at instantiation. The byte-buffer ABI
/// calls `wrn_alloc`/`entry`/`wrn_reset` every slot; resolving the export
/// by name each time is a linear string scan on the hot path.
#[derive(Debug, Clone, Copy)]
enum AbiFn {
    /// Export present with the expected signature: call by index.
    Ok(u32),
    /// Absent or wrongly typed: fall back to the name-based `invoke`,
    /// which reports the precise binding error.
    Dynamic,
}

/// The byte-buffer ABI entry points, pre-resolved against a module.
///
/// Resolution is a property of the *module*, not of any one instance, so a
/// [`crate::linker::PluginPre`] resolves this table once at template build
/// and every stamped-out [`Plugin`] copies it — the same table the one-shot
/// construction path uses, so the uncached and pooled paths cannot drift.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AbiTable {
    /// `wrn_alloc(len) -> ptr`.
    alloc: AbiFn,
    /// `wrn_reset()`; `None` when the module doesn't export it.
    reset: Option<AbiFn>,
}

impl AbiTable {
    /// Resolve the fixed ABI exports from `module`.
    pub(crate) fn resolve(module: &Module) -> AbiTable {
        AbiTable {
            alloc: resolve_export(module, "wrn_alloc", &[ValType::I32]),
            reset: if module.exported_func("wrn_reset").is_some() {
                Some(resolve_export(module, "wrn_reset", &[]))
            } else {
                None
            },
        }
    }
}

/// Resolve an exported function whose parameters must be exactly `params`.
/// Anything else stays [`AbiFn::Dynamic`] so the per-call binding error
/// matches the name-based path.
fn resolve_export(module: &Module, name: &str, params: &[ValType]) -> AbiFn {
    match module
        .exported_func(name)
        .and_then(|idx| module.func_type(idx).map(|ty| (idx, ty)))
    {
        Some((idx, ty)) if ty.params == params => AbiFn::Ok(idx),
        _ => AbiFn::Dynamic,
    }
}

/// A loaded, instantiated plugin with host state `T`.
pub struct Plugin<T> {
    instance: Instance<T>,
    policy: SandboxPolicy,
    /// Wall-clock time of the most recent call (incl. ABI copies), stamped
    /// on success *and* on fault — trapping calls are precisely the slow
    /// ones, and fault accounting must see their cost.
    last_call: Option<Duration>,
    /// Calls attempted over this plugin's lifetime (both arms). Lets the
    /// host tell "the closure ran a plugin call" from "it failed before
    /// reaching one", so stale durations are never re-recorded.
    call_seq: u64,
    /// FNV-1a hash of the module bytecode when the plugin came out of a
    /// content-addressed template ([`crate::linker::TemplateCache`]);
    /// `None` for instances built straight from a `Module`.
    content_hash: Option<u64>,
    /// `wrn_alloc(len) -> ptr`, pre-resolved.
    alloc_fn: AbiFn,
    /// `wrn_reset()`, pre-resolved; `None` when the module doesn't export it.
    reset_fn: Option<AbiFn>,
    /// Most recent `(entry name, resolved index)` pair.
    entry_cache: Option<(String, u32)>,
    /// Reusable request-encoding buffer for [`Self::call_sched`].
    scratch: Vec<u8>,
}

impl<T> Plugin<T> {
    /// Load a binary module, validate it, and instantiate it under `policy`.
    ///
    /// One-shot construction rides the same [`PluginPre`] template path the
    /// fleet installs use — import resolution, sandbox-limit derivation and
    /// ABI pre-resolution exist exactly once — just without a snapshot,
    /// since state built for a single instance would be copied zero times.
    /// Nothing is cached: installs that repeat go through
    /// [`crate::linker::TemplateCache`].
    pub fn new(
        bytes: &[u8],
        linker: &Linker<T>,
        data: T,
        policy: SandboxPolicy,
    ) -> Result<Plugin<T>, PluginError> {
        let mut module = waran_wasm::load_module(bytes).map_err(PluginError::Load)?;
        module.release_proof_inputs();
        PluginPre::with_snapshot(Arc::new(module), linker, policy, false)?.instantiate(data)
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
            alloc_fn: abi.alloc,
            reset_fn: abi.reset,
            entry_cache: None,
            scratch: Vec::new(),
        }
    }

    /// The sandbox policy in force.
    pub fn policy(&self) -> SandboxPolicy {
        self.policy
    }

    /// Wall-clock duration of the most recent [`Self::call`] or
    /// [`Self::call_sched`], whether it succeeded or faulted.
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

    /// Call `entry(input) -> output` through the byte-buffer ABI:
    ///
    /// 1. `wrn_alloc(len)` reserves guest memory,
    /// 2. the input bytes are copied in,
    /// 3. `entry(ptr, len)` runs and returns a packed `(ptr << 32) | len`,
    /// 4. the output bytes are copied out,
    /// 5. `wrn_reset()` (if exported) recycles the guest bump heap.
    ///
    /// Fuel is re-armed per call when the policy meters it, and the
    /// policy's deadline covers the whole ABI call — all three guest
    /// entries and both copies — measured from the call's start. The
    /// measured duration (including both copies) is available via
    /// [`Self::last_call_duration`] and is stamped on faults too — a call
    /// that burns its whole fuel or deadline budget before trapping must
    /// not vanish from the latency record.
    pub fn call(&mut self, entry: &str, input: &[u8]) -> Result<Vec<u8>, PluginError> {
        self.timed(|p| p.call_abi(entry, input))
    }

    /// Run one ABI call under the bookkeeping every call shares: one clock
    /// read at its start, which both times the call (success or fault) and
    /// anchors the policy's deadline, so deadline scope = fuel scope = one
    /// ABI call and no guest entry reads the clock. The deadline is
    /// disarmed afterwards: a direct [`Self::instance_mut`] invocation is
    /// not part of any call.
    fn timed<R>(&mut self, abi_call: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        self.call_seq = self.call_seq.wrapping_add(1);
        self.instance
            .set_deadline_at(self.policy.deadline.map(|d| start + d));
        let result = abi_call(self);
        self.instance.set_deadline_at(None);
        self.last_call = Some(start.elapsed());
        result
    }

    /// The ABI dance of [`Self::call`], minus timing bookkeeping.
    fn call_abi(&mut self, entry: &str, input: &[u8]) -> Result<Vec<u8>, PluginError> {
        let (out_ptr, out_len) = self.call_raw(entry, input)?;
        let output = self
            .instance
            .memory()
            .read_bytes(out_ptr, out_len)
            .map_err(|_| PluginError::Abi("plugin returned an out-of-bounds buffer".into()))?
            .to_vec();
        self.finish_call()?;
        Ok(output)
    }

    /// Steps 1-3 of the ABI dance: fuel re-arm, input copy-in, entry run,
    /// response-length policy check. Returns the guest-memory span of the
    /// output; the caller copies or decodes it, then runs
    /// [`Self::finish_call`].
    fn call_raw(&mut self, entry: &str, input: &[u8]) -> Result<(u32, u32), PluginError> {
        if let Some(fuel) = self.policy.fuel_per_call {
            self.instance.set_fuel(Some(fuel));
        }

        // 1-2: move the input into the sandbox.
        let len = u32::try_from(input.len())
            .map_err(|_| PluginError::Abi("input exceeds 4 GiB".into()))?;
        let in_ptr = if input.is_empty() {
            0
        } else {
            let ptr = match self.alloc_fn {
                AbiFn::Ok(f) => self.instance.call_func(f, &[Value::I32(len as i32)])?,
                AbiFn::Dynamic => self
                    .instance
                    .invoke("wrn_alloc", &[Value::I32(len as i32)])?,
            }
            .ok_or_else(|| PluginError::Abi("wrn_alloc returned nothing".into()))?;
            let Value::I32(ptr) = ptr else {
                return Err(PluginError::Abi("wrn_alloc returned a non-i32".into()));
            };
            self.instance
                .memory_mut()
                .write_bytes(ptr as u32, input)
                .map_err(|_| {
                    PluginError::Abi("wrn_alloc returned an out-of-bounds buffer".into())
                })?;
            ptr as u32
        };

        // 3: run the entry point.
        let args = [Value::I32(in_ptr as i32), Value::I32(len as i32)];
        let result = match &self.entry_cache {
            Some((name, f)) if name == entry => self.instance.call_func(*f, &args)?,
            _ => match resolve_export(self.instance.module(), entry, &[ValType::I32, ValType::I32])
            {
                AbiFn::Ok(f) => {
                    self.entry_cache = Some((entry.to_string(), f));
                    self.instance.call_func(f, &args)?
                }
                AbiFn::Dynamic => self.instance.invoke(entry, &args)?,
            },
        };
        let Some(Value::I64(packed)) = result else {
            return Err(PluginError::Abi(format!(
                "entry `{entry}` must return a packed i64, got {result:?}"
            )));
        };

        let out_ptr = (packed as u64 >> 32) as u32;
        let out_len = (packed as u64 & 0xffff_ffff) as u32;
        if out_len > self.policy.max_response_bytes {
            return Err(PluginError::Abi(format!(
                "response of {out_len} bytes exceeds policy limit {}",
                self.policy.max_response_bytes
            )));
        }
        Ok((out_ptr, out_len))
    }

    /// Step 5: recycle the guest heap for the next slot. (The call
    /// duration is stamped by the `call`/`call_sched` wrappers so it lands
    /// on the fault arm too.)
    fn finish_call(&mut self) -> Result<(), PluginError> {
        match self.reset_fn {
            Some(AbiFn::Ok(f)) => {
                self.instance.call_func(f, &[])?;
            }
            Some(AbiFn::Dynamic) => {
                self.instance.invoke("wrn_reset", &[])?;
            }
            None => {}
        }
        Ok(())
    }

    /// Typed scheduler call: encode the request, run `schedule`, decode and
    /// bound the response (at most one allocation per UE plus slack for
    /// padding records).
    ///
    /// Unlike [`Self::call`] this reuses the plugin's scratch buffer for the
    /// request bytes and decodes the response straight out of guest memory —
    /// zero host-side allocations beyond the decoded allocation list. As in
    /// [`Self::call`], the policy's deadline covers the whole ABI call.
    pub fn call_sched(&mut self, req: &SchedRequest) -> Result<SchedResponse, PluginError> {
        self.timed(|p| p.call_sched_abi(req))
    }

    /// The ABI dance of [`Self::call_sched`], minus timing bookkeeping.
    fn call_sched_abi(&mut self, req: &SchedRequest) -> Result<SchedResponse, PluginError> {
        let mut input = std::mem::take(&mut self.scratch);
        input.clear();
        req.encode_into(&mut input);
        let raw = self.call_raw("schedule", &input);
        self.scratch = input;
        let (out_ptr, out_len) = raw?;
        let decoded = {
            let bytes = self
                .instance
                .memory()
                .read_bytes(out_ptr, out_len)
                .map_err(|_| PluginError::Abi("plugin returned an out-of-bounds buffer".into()))?;
            SchedResponse::decode(bytes, req.ues.len() + 8)
        };
        self.finish_call()?;
        decoded.map_err(PluginError::Codec)
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
