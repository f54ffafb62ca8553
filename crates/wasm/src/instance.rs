//! Instantiation and execution.
//!
//! [`Linker`] resolves a module's function imports to host closures;
//! [`Instance`] owns the runtime state (memory, table, globals, host state
//! `T`) and drives the interpreter loop. The engine enforces the sandbox
//! policies WA-RAN's plugin host configures: call-depth and value-stack
//! bounds, optional deterministic fuel, and an optional wall-clock deadline
//! (the 5G slot budget).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::instr::Instr;
use crate::interp::{Memory, Table, Value};
use crate::module::{ConstExpr, ExportKind, ImportKind, Module};
use crate::regalloc::{LoadKind, ROp, StoreKind};
use crate::trap::Trap;
use crate::types::{FuncType, Limits, ValType};

/// A host function: receives the host state, the guest memory and the
/// arguments; returns at most one value.
pub type HostFn<T> =
    Arc<dyn Fn(&mut T, &mut Memory, &[Value]) -> Result<Option<Value>, Trap> + Send + Sync>;

struct HostFuncDef<T> {
    ty: FuncType,
    func: HostFn<T>,
}

impl<T> Clone for HostFuncDef<T> {
    fn clone(&self) -> Self {
        HostFuncDef {
            ty: self.ty.clone(),
            func: self.func.clone(),
        }
    }
}

/// Resolves `(module, name)` import pairs to host functions.
pub struct Linker<T> {
    funcs: HashMap<(String, String), HostFuncDef<T>>,
}

impl<T> Default for Linker<T> {
    fn default() -> Self {
        Linker {
            funcs: HashMap::new(),
        }
    }
}

impl<T> Clone for Linker<T> {
    fn clone(&self) -> Self {
        Linker {
            funcs: self.funcs.clone(),
        }
    }
}

impl<T> Linker<T> {
    /// Empty linker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a host function under `(module, name)` with the given
    /// signature. Replaces any previous registration for the same pair.
    pub fn func(
        &mut self,
        module: &str,
        name: &str,
        params: &[ValType],
        results: &[ValType],
        f: impl Fn(&mut T, &mut Memory, &[Value]) -> Result<Option<Value>, Trap> + Send + Sync + 'static,
    ) -> &mut Self {
        self.funcs.insert(
            (module.to_string(), name.to_string()),
            HostFuncDef {
                ty: FuncType::new(params, results),
                func: Arc::new(f),
            },
        );
        self
    }

    fn resolve(&self, module: &str, name: &str) -> Option<&HostFuncDef<T>> {
        self.funcs.get(&(module.to_string(), name.to_string()))
    }
}

/// Error instantiating a module.
#[derive(Debug, Clone, PartialEq)]
pub enum InstantiateError {
    /// An import had no registration in the linker.
    MissingImport { module: String, name: String },
    /// An import's registered signature differs from the module's.
    /// The signatures are boxed so the error (and every `Result` carrying
    /// it) stays small enough to return by value on the hot path.
    ImportTypeMismatch {
        module: String,
        name: String,
        expected: Box<FuncType>,
        found: Box<FuncType>,
    },
    /// A data segment falls outside the initial memory.
    DataSegmentOutOfBounds,
    /// An element segment falls outside the table.
    ElemSegmentOutOfBounds,
    /// Initial memory exceeds the embedder's page policy.
    MemoryPolicy(Trap),
    /// The start function trapped.
    StartTrap(Trap),
    /// Load-time static analysis rejected the module: the register
    /// lowering failed translation validation against the flat IR.
    Analysis(crate::analysis::AnalysisError),
}

impl std::fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstantiateError::MissingImport { module, name } => {
                write!(f, "unresolved import {module}.{name}")
            }
            InstantiateError::ImportTypeMismatch {
                module,
                name,
                expected,
                found,
            } => {
                write!(
                    f,
                    "import {module}.{name}: module wants {expected}, linker has {found}"
                )
            }
            InstantiateError::DataSegmentOutOfBounds => write!(f, "data segment out of bounds"),
            InstantiateError::ElemSegmentOutOfBounds => write!(f, "element segment out of bounds"),
            InstantiateError::MemoryPolicy(t) => write!(f, "memory policy violation: {t}"),
            InstantiateError::StartTrap(t) => write!(f, "start function trapped: {t}"),
            InstantiateError::Analysis(e) => write!(f, "static analysis: {e}"),
        }
    }
}

impl std::error::Error for InstantiateError {}

/// Execution resource limits. The plugin host derives these from its
/// per-plugin sandbox policy.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum nested call depth.
    pub max_call_depth: usize,
    /// Maximum value-stack entries.
    pub max_value_stack: usize,
    /// Maximum memory pages the instance may ever hold (policy cap layered
    /// under the module's own declared max).
    pub max_memory_pages: u32,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_call_depth: 1024,
            max_value_stack: 1 << 20,
            max_memory_pages: u32::MAX,
        }
    }
}

/// Which interpreter loop runs guest code. There is one production
/// executor and one oracle; the flat IR of [`crate::compile`] is lowered
/// further and analysed, never executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The register-form executor (see [`crate::regalloc`]): the flat IR
    /// (side-table branches, basic-block metering) lowered to fused
    /// three-address code over a per-frame virtual register file, so
    /// push/pop traffic disappears from the hot loop.
    /// Every instance runs this unless a test selects the oracle.
    #[default]
    Reg,
    /// The original decoded-[`Instr`] tree walker, kept as the spec oracle
    /// for differential testing. Identical result/trap/fuel semantics to
    /// [`ExecMode::Reg`].
    Reference,
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Instructions retired across all invocations.
    pub instrs: u64,
    /// Completed invocations.
    pub invokes: u64,
    /// Traps observed.
    pub traps: u64,
}

/// An instantiated module plus its host state `T`.
pub struct Instance<T> {
    module: Arc<Module>,
    memory: Memory,
    table: Table,
    globals: Vec<Value>,
    /// Host functions in import order, shared with the [`InstancePre`] the
    /// instance was stamped from (one atomic refcount bump per stamp-out).
    host_funcs: Arc<[HostFuncDef<T>]>,
    /// Embedder state handed to host functions.
    pub data: T,
    limits: ExecLimits,
    fuel: Option<u64>,
    fuel_limit: Option<u64>,
    deadline: Option<Instant>,
    stats: ExecStats,
    mode: ExecMode,
    /// Reused execution buffers: one flat register file shared by all
    /// frames (windows overlap at call boundaries) plus its frame stack
    /// survive across invocations so steady-state calls allocate nothing.
    /// A register is an untyped 64-bit cell ([`Value::to_bits`]): the
    /// validator and the lowering proof fixed every cell's type at load,
    /// so the executor neither stores nor checks it.
    scratch_regs: Vec<u64>,
    scratch_rframes: Vec<RFrame>,
    /// Host-call arguments, re-tagged from the register window by the
    /// import's signature.
    scratch_host_args: Vec<Value>,
    /// Byte size of the memory this instance was stamped with from a
    /// template snapshot (0 otherwise): on drop, a buffer still that size
    /// is re-zeroed up to its dirty high-water mark and donated to the
    /// process-wide pool, so the next stamp-out skips the allocation.
    recycle_len: usize,
}

impl<T> Drop for Instance<T> {
    fn drop(&mut self) {
        reclaim(&mut self.memory, self.recycle_len);
    }
}

impl<T> std::fmt::Debug for Instance<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("memory_pages", &self.memory.size_pages())
            .field("globals", &self.globals.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// How often the engine polls the wall clock when a deadline is set.
const DEADLINE_CHECK_INTERVAL: u64 = 8192;

// Concurrency audit for the sharded engine: instances (and linkers, whose
// host functions are `Arc<dyn Fn .. + Send + Sync>`) must move into worker
// threads whenever the embedder's state `T` does. No `Rc`, no raw
// pointers, no thread-affine interior mutability may creep into these
// types; if one does, this stops compiling instead of the engine
// intermittently corrupting state.
#[allow(dead_code)]
fn _instance_send_audit<T: Send>() {
    fn is_send<X: Send>() {}
    is_send::<Instance<T>>();
    is_send::<Linker<T>>();
    is_send::<InstancePre<T>>();
    is_send::<Memory>();
}
#[allow(dead_code)]
fn _linker_sync_audit<T: Send + Sync>() {
    // One `Linker` may be shared by many workers instantiating pools.
    fn is_sync<X: Sync>() {}
    is_sync::<Linker<T>>();
    // An `InstancePre` is the fleet-wide instantiation template: one per
    // plugin, read concurrently by every worker stamping out instances.
    is_sync::<InstancePre<T>>();
}

/// Resolve a module's function imports against a linker, type-checking
/// each one. This is the single import-resolution path: the cold
/// [`Instance::with_limits`] and the pre-validated [`InstancePre`] both go
/// through it, so their error behavior cannot drift.
fn resolve_imports<T>(
    module: &Module,
    linker: &Linker<T>,
) -> Result<Vec<HostFuncDef<T>>, InstantiateError> {
    let mut host_funcs = Vec::with_capacity(module.imports.len());
    for imp in &module.imports {
        let ImportKind::Func { type_idx } = imp.kind;
        let expected = &module.types[type_idx as usize];
        let def = linker.resolve(&imp.module, &imp.name).ok_or_else(|| {
            InstantiateError::MissingImport {
                module: imp.module.clone(),
                name: imp.name.clone(),
            }
        })?;
        if def.ty != *expected {
            return Err(InstantiateError::ImportTypeMismatch {
                module: imp.module.clone(),
                name: imp.name.clone(),
                expected: Box::new(expected.clone()),
                found: Box::new(def.ty.clone()),
            });
        }
        host_funcs.push(def.clone());
    }
    Ok(host_funcs)
}

/// The mutable state of an instance right after segment initialization:
/// linear memory with active data segments applied, table with element
/// segments installed, globals at their initializer values — and the start
/// function *not yet run*.
///
/// This is the unit the template/live-state split revolves around: built
/// fresh from the module on the cold path, or captured once in an
/// [`InstancePre`] snapshot and stamped into each new instance by memcpy.
struct InstanceState {
    memory: Memory,
    table: Table,
    globals: Vec<Value>,
}

impl InstanceState {
    /// Initialize from the module's segments (the cold path, and the one
    /// snapshot capture per template).
    fn init(module: &Module, limits: &ExecLimits) -> Result<Self, InstantiateError> {
        // Memory + data segments.
        let mut memory = match module.memory {
            Some(mem_limits) => Memory::new(mem_limits, limits.max_memory_pages)
                .map_err(InstantiateError::MemoryPolicy)?,
            None => Memory::empty(),
        };
        for seg in &module.data {
            let ConstExpr::I32(offset) = seg.offset else {
                return Err(InstantiateError::DataSegmentOutOfBounds);
            };
            memory
                .write_bytes(offset as u32, &seg.bytes)
                .map_err(|_| InstantiateError::DataSegmentOutOfBounds)?;
        }

        // Table + element segments.
        let mut table = Table::new(module.table.unwrap_or(Limits::new(0, Some(0))));
        for seg in &module.elems {
            let ConstExpr::I32(offset) = seg.offset else {
                return Err(InstantiateError::ElemSegmentOutOfBounds);
            };
            for (i, &func) in seg.funcs.iter().enumerate() {
                table
                    .set(offset as u32 + i as u32, func)
                    .map_err(|_| InstantiateError::ElemSegmentOutOfBounds)?;
            }
        }

        // Globals.
        let globals = module
            .globals
            .iter()
            .map(|g| match g.init {
                ConstExpr::I32(v) => Value::I32(v),
                ConstExpr::I64(v) => Value::I64(v),
                ConstExpr::F32(v) => Value::F32(v),
                ConstExpr::F64(v) => Value::F64(v),
            })
            .collect();

        Ok(InstanceState {
            memory,
            table,
            globals,
        })
    }
}

/// Upper bound on pooled linear-memory buffers per size class: enough to
/// cover a worker fleet's stamp/drop churn, small enough that an idle
/// process pins at most a few MiB per memory size in use.
const MEMORY_POOL_CAP: usize = 32;

/// The process-wide pool of pristine (all-zero) linear-memory buffers,
/// keyed by buffer byte size, so a buffer freed by an instance of one
/// module serves the next stamp-out of any module with the same memory
/// size.
///
/// Stamped instances that never grew re-zero their dirty prefix — O(bytes
/// actually written) — and donate the buffer on drop; grown buffers are
/// discarded. A poisoned lock is skipped: stamp-outs then allocate fresh
/// and drops free, which is always correct.
static MEMORY_POOL: Mutex<BTreeMap<usize, Vec<Vec<u8>>>> = Mutex::new(BTreeMap::new());

/// Buffers currently pooled across all size classes.
pub fn pooled_buffers() -> usize {
    MEMORY_POOL
        .lock()
        .map_or(0, |pool| pool.values().map(Vec::len).sum())
}

/// Take back a dropped instance's memory if it still has the `len` bytes
/// it was stamped with.
fn reclaim(memory: &mut Memory, len: usize) {
    if len == 0 || memory.size_bytes() != len {
        return;
    }
    memory.zero_all();
    let buf = memory.take_data();
    debug_assert!(
        buf.iter().all(|&b| b == 0),
        "dirty high-water mark missed a write"
    );
    if let Ok(mut pool) = MEMORY_POOL.lock() {
        let class = pool.entry(len).or_default();
        if class.len() < MEMORY_POOL_CAP {
            class.push(buf);
        }
    }
}

/// The captured post-segment-init state an [`InstancePre`] stamps
/// instances from.
///
/// Only the initialized prefix of the memory image is kept — up to the
/// dirty high-water mark at capture time, past which every byte is zero —
/// so a template pins its data segments, not its memory size.
struct StateSnapshot {
    /// Initialized prefix of the captured memory image.
    image: Box<[u8]>,
    /// Full size of the captured memory (bytes).
    size_bytes: usize,
    max_pages: u32,
    table: Table,
    globals: Vec<Value>,
}

impl StateSnapshot {
    fn new(state: InstanceState) -> StateSnapshot {
        let InstanceState {
            memory,
            table,
            globals,
        } = state;
        StateSnapshot {
            image: memory.initialized().into(),
            size_bytes: memory.size_bytes(),
            max_pages: memory.max_pages(),
            table,
            globals,
        }
    }

    /// Stamp a fresh [`InstanceState`]: a pooled pristine buffer (or a
    /// lazily-zeroed allocation when the size class is empty) plus a copy
    /// of the initialized prefix.
    fn stamp(&self) -> InstanceState {
        let pooled = MEMORY_POOL
            .lock()
            .ok()
            .and_then(|mut pool| pool.get_mut(&self.size_bytes)?.pop());
        let data = pooled.unwrap_or_else(|| vec![0; self.size_bytes]);
        InstanceState {
            memory: Memory::from_image(data, &self.image, self.max_pages),
            table: self.table.clone(),
            globals: self.globals.clone(),
        }
    }
}

/// A pre-validated instantiation template: the module, its fully resolved
/// and type-checked import vector, and (optionally) a snapshot of the
/// post-segment-init mutable state.
///
/// Building an `InstancePre` runs decode-adjacent work — import
/// resolution, type checks, memory allocation, data/elem-segment
/// initialization — exactly once. [`InstancePre::instantiate`] then stamps
/// out a live [`Instance`] as a copy of the snapshot's initialized prefix
/// into a pooled buffer plus a handful of `Arc` bumps, which is what
/// keeps per-worker plugin spin-up in the microsecond range for
/// hundred-cell fleets.
///
/// The snapshot is captured *before* the start function: `start` may call
/// host functions against the instance's own host state, so it must run
/// per stamp-out for snapshot instantiation to be observationally
/// identical to the cold path.
///
/// Cloning is cheap (three `Arc` bumps); a template is `Send + Sync` and
/// meant to be shared across worker threads.
pub struct InstancePre<T> {
    module: Arc<Module>,
    host_funcs: Arc<[HostFuncDef<T>]>,
    /// `None` when snapshotting is disabled: [`Self::instantiate`] then
    /// re-runs segment init per instance (imports stay pre-resolved).
    snapshot: Option<Arc<StateSnapshot>>,
    limits: ExecLimits,
}

impl<T> Clone for InstancePre<T> {
    fn clone(&self) -> Self {
        InstancePre {
            module: Arc::clone(&self.module),
            host_funcs: Arc::clone(&self.host_funcs),
            snapshot: self.snapshot.clone(),
            limits: self.limits,
        }
    }
}

impl<T> std::fmt::Debug for InstancePre<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstancePre")
            .field("imports", &self.host_funcs.len())
            .field("snapshot", &self.snapshot.is_some())
            .finish_non_exhaustive()
    }
}

impl<T> InstancePre<T> {
    /// Resolve + type-check `module`'s imports against `linker` and capture
    /// the post-segment-init state snapshot.
    pub fn new(
        module: Arc<Module>,
        linker: &Linker<T>,
        limits: ExecLimits,
    ) -> Result<Self, InstantiateError> {
        Self::new_with(module, linker, limits, true)
    }

    /// Like [`Self::new`] with an explicit snapshot knob. With `snapshot`
    /// off the template still skips per-instance import resolution but
    /// runs segment init on every [`Self::instantiate`] — the ablation
    /// point between "cold" and "snapshot" instantiation, and the route
    /// one-shot construction takes (init exactly once, copied zero times).
    /// Segment errors consequently surface at build time with the snapshot
    /// on, and at stamp-out time with it off.
    pub fn new_with(
        module: Arc<Module>,
        linker: &Linker<T>,
        limits: ExecLimits,
        snapshot: bool,
    ) -> Result<Self, InstantiateError> {
        let host_funcs: Arc<[HostFuncDef<T>]> = resolve_imports(&module, linker)?.into();
        // Templates are the shared gateway for fleet deployment: prove
        // the register lowering faithful (and cache the resource bounds)
        // before any instance is stamped from this module.
        module
            .analysis()
            .map_err(|e| InstantiateError::Analysis(e.clone()))?;
        let snapshot = if snapshot {
            Some(Arc::new(StateSnapshot::new(InstanceState::init(
                &module, &limits,
            )?)))
        } else {
            None
        };
        Ok(InstancePre {
            module,
            host_funcs,
            snapshot,
            limits,
        })
    }

    /// The templated module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The execution limits instances are stamped with.
    pub fn limits(&self) -> ExecLimits {
        self.limits
    }

    /// True when stamp-outs copy the captured snapshot instead of
    /// re-running segment init.
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Bytes of memory image the snapshot pins (its initialized prefix);
    /// 0 without a snapshot.
    pub fn image_bytes(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |snap| snap.image.len())
    }

    /// Stamp out a live instance: copy the snapshot's initialized prefix
    /// into a pooled buffer (or re-init when snapshotting is off), bump
    /// the shared import vector, run `start`.
    pub fn instantiate(&self, data: T) -> Result<Instance<T>, InstantiateError> {
        let (state, recycle_len) = match &self.snapshot {
            Some(snap) => (snap.stamp(), snap.size_bytes),
            None => (InstanceState::init(&self.module, &self.limits)?, 0),
        };
        Instance::assemble(
            Arc::clone(&self.module),
            Arc::clone(&self.host_funcs),
            state,
            data,
            self.limits,
            recycle_len,
        )
    }
}

impl<T> Instance<T> {
    /// Instantiate `module` with imports from `linker` and host state `data`,
    /// using default [`ExecLimits`].
    pub fn new(module: Arc<Module>, linker: &Linker<T>, data: T) -> Result<Self, InstantiateError> {
        Self::with_limits(module, linker, data, ExecLimits::default())
    }

    /// Instantiate with explicit limits. This is the *cold* path: imports
    /// are resolved and the mutable state initialized from the module's
    /// segments on every call. Fleets stamping out many instances of one
    /// module should build an [`InstancePre`] once and instantiate from it.
    pub fn with_limits(
        module: Arc<Module>,
        linker: &Linker<T>,
        data: T,
        limits: ExecLimits,
    ) -> Result<Self, InstantiateError> {
        let host_funcs: Arc<[HostFuncDef<T>]> = resolve_imports(&module, linker)?.into();
        let state = InstanceState::init(&module, &limits)?;
        Self::assemble(module, host_funcs, state, data, limits, 0)
    }

    /// Final construction step shared by the cold path and
    /// [`InstancePre::instantiate`]: wire the parts together and run the
    /// start function (which must execute per *instance*, never per
    /// template — it may call host functions against this instance's own
    /// `data`).
    fn assemble(
        module: Arc<Module>,
        host_funcs: Arc<[HostFuncDef<T>]>,
        state: InstanceState,
        data: T,
        limits: ExecLimits,
        recycle_len: usize,
    ) -> Result<Self, InstantiateError> {
        let InstanceState {
            memory,
            table,
            globals,
        } = state;
        let mut inst = Instance {
            module,
            memory,
            table,
            globals,
            host_funcs,
            data,
            limits,
            fuel: None,
            fuel_limit: None,
            deadline: None,
            stats: ExecStats::default(),
            mode: ExecMode::default(),
            scratch_regs: Vec::with_capacity(128),
            scratch_rframes: Vec::with_capacity(16),
            scratch_host_args: Vec::new(),
            recycle_len,
        };

        if let Some(start) = inst.module.start {
            inst.call_func(start, &[])
                .map_err(InstantiateError::StartTrap)?;
        }

        Ok(inst)
    }

    /// The instantiated module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Guest linear memory (host-side ABI access).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable guest linear memory (host-side ABI access).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Read a global exported under `name`.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        match self.module.export(name)?.kind {
            ExportKind::Global(idx) => self.globals.get(idx as usize).copied(),
            _ => None,
        }
    }

    /// Set the deterministic instruction budget for subsequent invocations.
    /// `None` disables metering. The budget is *per `set_fuel` call*: it
    /// carries across invocations until exhausted or reset.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
        self.fuel_limit = fuel;
    }

    /// Fuel remaining, if metering is enabled.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// Fuel consumed since the last [`Self::set_fuel`].
    pub fn fuel_consumed(&self) -> Option<u64> {
        Some(self.fuel_limit? - self.fuel?)
    }

    /// Set the absolute wall-clock instant past which guest code traps
    /// with [`Trap::DeadlineExceeded`] (polled every few thousand retired
    /// instructions). `None` disables the deadline. Like fuel, it stays in
    /// force across invocations until reset: the embedder reads the clock
    /// once per unit of work it wants bounded, and no guest entry reads it.
    pub fn set_deadline_at(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Select which interpreter loop runs guest code (default:
    /// [`ExecMode::Reg`]). This is the only selector — no policy, builder
    /// or environment knob reaches it — and exists so tests can run the
    /// [`ExecMode::Reference`] oracle.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The currently selected interpreter loop.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// True when the module exports a function under `name`.
    pub fn has_export(&self, name: &str) -> bool {
        self.module.exported_func(name).is_some()
    }

    /// The signature of the exported function `name`.
    pub fn export_type(&self, name: &str) -> Option<&FuncType> {
        self.module.func_type(self.module.exported_func(name)?)
    }

    /// Invoke the exported function `name`. Binding failures (unknown
    /// export, argument mismatch) are reported as [`Trap::HostError`] so the
    /// plugin host has a single fault channel.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        let func = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::HostError(format!("no exported function `{name}`")))?;
        self.call_func(func, args)
    }

    /// Invoke by module-wide function index (used by the RIC host for table
    /// dispatch and by tests). `args` are held to the function's signature
    /// here — the one place the embedder's values enter either executor —
    /// and a mismatch is a [`Trap::HostError`] before any guest code runs.
    pub fn call_func(&mut self, func: u32, args: &[Value]) -> Result<Option<Value>, Trap> {
        let ty = self
            .module
            .func_type(func)
            .ok_or_else(|| Trap::HostError(format!("no function with index {func}")))?;
        if ty.params.len() != args.len() || ty.params.iter().zip(args).any(|(p, a)| *p != a.ty()) {
            return Err(Trap::HostError(format!(
                "argument mismatch calling function {func}: expected {ty}",
            )));
        }
        let deadline = self.deadline;
        let mut instrs: u64 = 0;
        // `host_funcs` holds one entry per function import, in index order.
        let result = if let Some(def) = self.host_funcs.get(func as usize) {
            // Direct host-function entry (rare but legal via re-export):
            // no guest code runs, so no executor is involved.
            let expected = def.ty.results.first().copied();
            let f = Arc::clone(&def.func);
            f(&mut self.data, &mut self.memory, args)
                .and_then(|got| check_host_result(expected, got))
        } else {
            match self.mode {
                ExecMode::Reg => self.exec_reg(func, args, deadline, &mut instrs),
                ExecMode::Reference => self.exec(func, args, deadline, &mut instrs),
            }
        };
        // Flushed here unconditionally so every exit path — including the
        // out-of-fuel one, which used to skip it — counts its instructions.
        self.stats.instrs += instrs;
        match &result {
            Ok(_) => self.stats.invokes += 1,
            Err(_) => self.stats.traps += 1,
        }
        result
    }

    // ------------------------------------------------------------------
    // The interpreter.
    // ------------------------------------------------------------------

    fn exec(
        &mut self,
        entry: u32,
        args: &[Value],
        deadline: Option<Instant>,
        instrs: &mut u64,
    ) -> Result<Option<Value>, Trap> {
        let module = Arc::clone(&self.module);
        let n_imports = module.num_imported_funcs();

        let mut stack: Vec<Value> = Vec::with_capacity(64);
        stack.extend_from_slice(args);
        let mut frames: Vec<Frame> = Vec::with_capacity(16);
        frames.push(Frame::enter(&module, entry - n_imports, &mut stack));

        let mut until_deadline_check = DEADLINE_CHECK_INTERVAL;

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: stack non-empty")
            };
        }
        macro_rules! binop_i32 {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32($f(a, b)));
            }};
        }
        macro_rules! binop_i32_trap {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32($f(a, b)?));
            }};
        }
        macro_rules! binop_i64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I64($f(a, b)));
            }};
        }
        macro_rules! binop_i64_trap {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I64($f(a, b)?));
            }};
        }
        macro_rules! relop_i32 {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! relop_i64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! relop_f32 {
            ($f:expr) => {{
                let b = pop!().as_f32();
                let a = pop!().as_f32();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! relop_f64 {
            ($f:expr) => {{
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! binop_f32 {
            ($f:expr) => {{
                let b = pop!().as_f32();
                let a = pop!().as_f32();
                stack.push(Value::F32($f(a, b)));
            }};
        }
        macro_rules! binop_f64 {
            ($f:expr) => {{
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::F64($f(a, b)));
            }};
        }
        macro_rules! unop {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let a = pop!().$as();
                stack.push(Value::$wrap($f(a)));
            }};
        }
        macro_rules! load {
            ($m:expr, $n:expr, $conv:expr) => {{
                let addr = pop!().as_u32();
                let bytes = self.memory.read::<$n>(addr, $m.offset)?;
                stack.push($conv(bytes));
            }};
        }
        macro_rules! store {
            ($m:expr, $pop:ident, $to:expr) => {{
                let v = pop!().$pop();
                let addr = pop!().as_u32();
                self.memory.write(addr, $m.offset, $to(v))?;
            }};
        }

        'outer: loop {
            // Resource accounting.
            if let Some(fuel) = self.fuel.as_mut() {
                if *fuel == 0 {
                    self.fuel = Some(0);
                    return Err(Trap::OutOfFuel);
                }
                *fuel -= 1;
            }
            *instrs += 1;
            if let Some(dl) = deadline {
                until_deadline_check -= 1;
                if until_deadline_check == 0 {
                    until_deadline_check = DEADLINE_CHECK_INTERVAL;
                    if Instant::now() > dl {
                        return Err(Trap::DeadlineExceeded);
                    }
                }
            }
            if stack.len() > self.limits.max_value_stack {
                return Err(Trap::ValueStackExhausted);
            }

            let frame = frames.last_mut().expect("at least one frame");
            let body = &module.funcs[frame.func as usize];
            let instr = &body.code[frame.pc];
            frame.pc += 1;

            match instr {
                Instr::Unreachable => {
                    return Err(Trap::Unreachable);
                }
                Instr::Nop => {}
                Instr::Block { ty, end_pc } => {
                    frame.labels.push(Label {
                        target: *end_pc,
                        stack_base: stack.len(),
                        arity: ty.arity() as u8,
                        pop_self: false,
                    });
                }
                Instr::Loop { .. } => {
                    frame.labels.push(Label {
                        target: (frame.pc - 1) as u32,
                        stack_base: stack.len(),
                        arity: 0,
                        pop_self: true,
                    });
                }
                Instr::If {
                    ty,
                    else_pc,
                    end_pc,
                } => {
                    let cond = pop!().as_i32();
                    frame.labels.push(Label {
                        target: *end_pc,
                        stack_base: stack.len(),
                        arity: ty.arity() as u8,
                        pop_self: false,
                    });
                    if cond == 0 {
                        frame.pc = if else_pc == end_pc {
                            *end_pc as usize
                        } else {
                            *else_pc as usize + 1
                        };
                    }
                }
                Instr::Else { end_pc } => {
                    // Then-arm fell through: jump to End (which pops the label).
                    frame.pc = *end_pc as usize;
                }
                Instr::End => {
                    match frame.labels.pop() {
                        Some(_) => {}
                        None => {
                            // Function-level end: return.
                            if Self::do_return(&module, &mut frames, &mut stack) {
                                break 'outer;
                            }
                        }
                    }
                }
                Instr::Br { depth } => {
                    // Depth == open-label count targets the function label
                    // itself: a return.
                    if *depth as usize == frame.labels.len() {
                        if Self::do_return(&module, &mut frames, &mut stack) {
                            break 'outer;
                        }
                    } else {
                        Self::do_branch(frame, &mut stack, *depth);
                    }
                }
                Instr::BrIf { depth } => {
                    let cond = pop!().as_i32();
                    if cond != 0 {
                        if *depth as usize == frame.labels.len() {
                            if Self::do_return(&module, &mut frames, &mut stack) {
                                break 'outer;
                            }
                        } else {
                            Self::do_branch(frame, &mut stack, *depth);
                        }
                    }
                }
                Instr::BrTable { targets, default } => {
                    let idx = pop!().as_u32() as usize;
                    let depth = targets.get(idx).copied().unwrap_or(*default);
                    if depth as usize == frame.labels.len() {
                        if Self::do_return(&module, &mut frames, &mut stack) {
                            break 'outer;
                        }
                    } else {
                        Self::do_branch(frame, &mut stack, depth);
                    }
                }
                Instr::Return => {
                    if Self::do_return(&module, &mut frames, &mut stack) {
                        break 'outer;
                    }
                }
                Instr::Call { func } => {
                    self.do_call(&module, *func, &mut frames, &mut stack, n_imports)?;
                }
                Instr::CallIndirect { type_idx } => {
                    let idx = pop!().as_u32();
                    let func = self.table.get(idx)?;
                    let expected = &module.types[*type_idx as usize];
                    let actual = module.func_type(func).ok_or(Trap::UninitializedElement)?;
                    if actual != expected {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    self.do_call(&module, func, &mut frames, &mut stack, n_imports)?;
                }
                Instr::Drop => {
                    pop!();
                }
                Instr::Select => {
                    let cond = pop!().as_i32();
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Instr::LocalGet(idx) => {
                    stack.push(frame.locals[*idx as usize]);
                }
                Instr::LocalSet(idx) => {
                    frame.locals[*idx as usize] = pop!();
                }
                Instr::LocalTee(idx) => {
                    frame.locals[*idx as usize] = *stack.last().expect("validated");
                }
                Instr::GlobalGet(idx) => {
                    stack.push(self.globals[*idx as usize]);
                }
                Instr::GlobalSet(idx) => {
                    self.globals[*idx as usize] = pop!();
                }

                Instr::I32Load(m) => load!(m, 4, |b| Value::I32(i32::from_le_bytes(b))),
                Instr::I64Load(m) => load!(m, 8, |b| Value::I64(i64::from_le_bytes(b))),
                Instr::F32Load(m) => load!(m, 4, |b| Value::F32(f32::from_le_bytes(b))),
                Instr::F64Load(m) => load!(m, 8, |b| Value::F64(f64::from_le_bytes(b))),
                Instr::I32Load8S(m) => load!(m, 1, |b: [u8; 1]| Value::I32(b[0] as i8 as i32)),
                Instr::I32Load8U(m) => load!(m, 1, |b: [u8; 1]| Value::I32(b[0] as i32)),
                Instr::I32Load16S(m) => {
                    load!(m, 2, |b| Value::I32(i16::from_le_bytes(b) as i32))
                }
                Instr::I32Load16U(m) => {
                    load!(m, 2, |b| Value::I32(u16::from_le_bytes(b) as i32))
                }
                Instr::I64Load8S(m) => load!(m, 1, |b: [u8; 1]| Value::I64(b[0] as i8 as i64)),
                Instr::I64Load8U(m) => load!(m, 1, |b: [u8; 1]| Value::I64(b[0] as i64)),
                Instr::I64Load16S(m) => {
                    load!(m, 2, |b| Value::I64(i16::from_le_bytes(b) as i64))
                }
                Instr::I64Load16U(m) => {
                    load!(m, 2, |b| Value::I64(u16::from_le_bytes(b) as i64))
                }
                Instr::I64Load32S(m) => {
                    load!(m, 4, |b| Value::I64(i32::from_le_bytes(b) as i64))
                }
                Instr::I64Load32U(m) => {
                    load!(m, 4, |b| Value::I64(u32::from_le_bytes(b) as i64))
                }
                Instr::I32Store(m) => store!(m, as_i32, |v: i32| v.to_le_bytes()),
                Instr::I64Store(m) => store!(m, as_i64, |v: i64| v.to_le_bytes()),
                Instr::F32Store(m) => store!(m, as_f32, |v: f32| v.to_le_bytes()),
                Instr::F64Store(m) => store!(m, as_f64, |v: f64| v.to_le_bytes()),
                Instr::I32Store8(m) => store!(m, as_i32, |v: i32| [(v & 0xff) as u8]),
                Instr::I32Store16(m) => store!(m, as_i32, |v: i32| (v as u16).to_le_bytes()),
                Instr::I64Store8(m) => store!(m, as_i64, |v: i64| [(v & 0xff) as u8]),
                Instr::I64Store16(m) => store!(m, as_i64, |v: i64| (v as u16).to_le_bytes()),
                Instr::I64Store32(m) => store!(m, as_i64, |v: i64| (v as u32).to_le_bytes()),
                Instr::MemorySize => stack.push(Value::I32(self.memory.size_pages() as i32)),
                Instr::MemoryGrow => {
                    let delta = pop!().as_u32();
                    let result = self.memory.grow(delta).map(|p| p as i32).unwrap_or(-1);
                    stack.push(Value::I32(result));
                }
                Instr::MemoryCopy => {
                    let len = pop!().as_u32();
                    let src = pop!().as_u32();
                    let dst = pop!().as_u32();
                    self.memory.copy(dst, src, len)?;
                }
                Instr::MemoryFill => {
                    let len = pop!().as_u32();
                    let byte = pop!().as_i32() as u8;
                    let dst = pop!().as_u32();
                    self.memory.fill(dst, byte, len)?;
                }

                Instr::I32Const(v) => stack.push(Value::I32(*v)),
                Instr::I64Const(v) => stack.push(Value::I64(*v)),
                Instr::F32Const(v) => stack.push(Value::F32(*v)),
                Instr::F64Const(v) => stack.push(Value::F64(*v)),

                Instr::I32Eqz => {
                    let a = pop!().as_i32();
                    stack.push(Value::I32((a == 0) as i32));
                }
                Instr::I32Eq => relop_i32!(|a, b| a == b),
                Instr::I32Ne => relop_i32!(|a, b| a != b),
                Instr::I32LtS => relop_i32!(|a, b| a < b),
                Instr::I32LtU => relop_i32!(|a: i32, b: i32| (a as u32) < (b as u32)),
                Instr::I32GtS => relop_i32!(|a, b| a > b),
                Instr::I32GtU => relop_i32!(|a: i32, b: i32| (a as u32) > (b as u32)),
                Instr::I32LeS => relop_i32!(|a, b| a <= b),
                Instr::I32LeU => relop_i32!(|a: i32, b: i32| (a as u32) <= (b as u32)),
                Instr::I32GeS => relop_i32!(|a, b| a >= b),
                Instr::I32GeU => relop_i32!(|a: i32, b: i32| (a as u32) >= (b as u32)),
                Instr::I64Eqz => {
                    let a = pop!().as_i64();
                    stack.push(Value::I32((a == 0) as i32));
                }
                Instr::I64Eq => relop_i64!(|a, b| a == b),
                Instr::I64Ne => relop_i64!(|a, b| a != b),
                Instr::I64LtS => relop_i64!(|a, b| a < b),
                Instr::I64LtU => relop_i64!(|a: i64, b: i64| (a as u64) < (b as u64)),
                Instr::I64GtS => relop_i64!(|a, b| a > b),
                Instr::I64GtU => relop_i64!(|a: i64, b: i64| (a as u64) > (b as u64)),
                Instr::I64LeS => relop_i64!(|a, b| a <= b),
                Instr::I64LeU => relop_i64!(|a: i64, b: i64| (a as u64) <= (b as u64)),
                Instr::I64GeS => relop_i64!(|a, b| a >= b),
                Instr::I64GeU => relop_i64!(|a: i64, b: i64| (a as u64) >= (b as u64)),
                Instr::F32Eq => relop_f32!(|a, b| a == b),
                Instr::F32Ne => relop_f32!(|a, b| a != b),
                Instr::F32Lt => relop_f32!(|a, b| a < b),
                Instr::F32Gt => relop_f32!(|a, b| a > b),
                Instr::F32Le => relop_f32!(|a, b| a <= b),
                Instr::F32Ge => relop_f32!(|a, b| a >= b),
                Instr::F64Eq => relop_f64!(|a, b| a == b),
                Instr::F64Ne => relop_f64!(|a, b| a != b),
                Instr::F64Lt => relop_f64!(|a, b| a < b),
                Instr::F64Gt => relop_f64!(|a, b| a > b),
                Instr::F64Le => relop_f64!(|a, b| a <= b),
                Instr::F64Ge => relop_f64!(|a, b| a >= b),

                Instr::I32Clz => unop!(as_i32, I32, |a: i32| a.leading_zeros() as i32),
                Instr::I32Ctz => unop!(as_i32, I32, |a: i32| a.trailing_zeros() as i32),
                Instr::I32Popcnt => unop!(as_i32, I32, |a: i32| a.count_ones() as i32),
                Instr::I32Add => binop_i32!(|a: i32, b: i32| a.wrapping_add(b)),
                Instr::I32Sub => binop_i32!(|a: i32, b: i32| a.wrapping_sub(b)),
                Instr::I32Mul => binop_i32!(|a: i32, b: i32| a.wrapping_mul(b)),
                Instr::I32DivS => binop_i32_trap!(|a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else if a == i32::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }),
                Instr::I32DivU => binop_i32_trap!(|a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u32) / (b as u32)) as i32)
                    }
                }),
                Instr::I32RemS => binop_i32_trap!(|a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                Instr::I32RemU => binop_i32_trap!(|a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u32) % (b as u32)) as i32)
                    }
                }),
                Instr::I32And => binop_i32!(|a, b| a & b),
                Instr::I32Or => binop_i32!(|a, b| a | b),
                Instr::I32Xor => binop_i32!(|a, b| a ^ b),
                Instr::I32Shl => binop_i32!(|a: i32, b: i32| a.wrapping_shl(b as u32)),
                Instr::I32ShrS => binop_i32!(|a: i32, b: i32| a.wrapping_shr(b as u32)),
                Instr::I32ShrU => {
                    binop_i32!(|a: i32, b: i32| ((a as u32).wrapping_shr(b as u32)) as i32)
                }
                Instr::I32Rotl => binop_i32!(|a: i32, b: i32| a.rotate_left(b as u32 & 31)),
                Instr::I32Rotr => binop_i32!(|a: i32, b: i32| a.rotate_right(b as u32 & 31)),

                Instr::I64Clz => unop!(as_i64, I64, |a: i64| a.leading_zeros() as i64),
                Instr::I64Ctz => unop!(as_i64, I64, |a: i64| a.trailing_zeros() as i64),
                Instr::I64Popcnt => unop!(as_i64, I64, |a: i64| a.count_ones() as i64),
                Instr::I64Add => binop_i64!(|a: i64, b: i64| a.wrapping_add(b)),
                Instr::I64Sub => binop_i64!(|a: i64, b: i64| a.wrapping_sub(b)),
                Instr::I64Mul => binop_i64!(|a: i64, b: i64| a.wrapping_mul(b)),
                Instr::I64DivS => binop_i64_trap!(|a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else if a == i64::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }),
                Instr::I64DivU => binop_i64_trap!(|a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u64) / (b as u64)) as i64)
                    }
                }),
                Instr::I64RemS => binop_i64_trap!(|a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                Instr::I64RemU => binop_i64_trap!(|a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u64) % (b as u64)) as i64)
                    }
                }),
                Instr::I64And => binop_i64!(|a, b| a & b),
                Instr::I64Or => binop_i64!(|a, b| a | b),
                Instr::I64Xor => binop_i64!(|a, b| a ^ b),
                Instr::I64Shl => binop_i64!(|a: i64, b: i64| a.wrapping_shl(b as u32)),
                Instr::I64ShrS => binop_i64!(|a: i64, b: i64| a.wrapping_shr(b as u32)),
                Instr::I64ShrU => {
                    binop_i64!(|a: i64, b: i64| ((a as u64).wrapping_shr(b as u32)) as i64)
                }
                Instr::I64Rotl => binop_i64!(|a: i64, b: i64| a.rotate_left(b as u32 & 63)),
                Instr::I64Rotr => binop_i64!(|a: i64, b: i64| a.rotate_right(b as u32 & 63)),

                Instr::F32Abs => unop!(as_f32, F32, |a: f32| a.abs()),
                Instr::F32Neg => unop!(as_f32, F32, |a: f32| -a),
                Instr::F32Ceil => unop!(as_f32, F32, |a: f32| a.ceil()),
                Instr::F32Floor => unop!(as_f32, F32, |a: f32| a.floor()),
                Instr::F32Trunc => unop!(as_f32, F32, |a: f32| a.trunc()),
                Instr::F32Nearest => unop!(as_f32, F32, |a: f32| a.round_ties_even()),
                Instr::F32Sqrt => unop!(as_f32, F32, |a: f32| a.sqrt()),
                Instr::F32Add => binop_f32!(|a: f32, b: f32| a + b),
                Instr::F32Sub => binop_f32!(|a: f32, b: f32| a - b),
                Instr::F32Mul => binop_f32!(|a: f32, b: f32| a * b),
                Instr::F32Div => binop_f32!(|a: f32, b: f32| a / b),
                Instr::F32Min => binop_f32!(wasm_fmin32),
                Instr::F32Max => binop_f32!(wasm_fmax32),
                Instr::F32Copysign => binop_f32!(|a: f32, b: f32| a.copysign(b)),
                Instr::F64Abs => unop!(as_f64, F64, |a: f64| a.abs()),
                Instr::F64Neg => unop!(as_f64, F64, |a: f64| -a),
                Instr::F64Ceil => unop!(as_f64, F64, |a: f64| a.ceil()),
                Instr::F64Floor => unop!(as_f64, F64, |a: f64| a.floor()),
                Instr::F64Trunc => unop!(as_f64, F64, |a: f64| a.trunc()),
                Instr::F64Nearest => unop!(as_f64, F64, |a: f64| a.round_ties_even()),
                Instr::F64Sqrt => unop!(as_f64, F64, |a: f64| a.sqrt()),
                Instr::F64Add => binop_f64!(|a: f64, b: f64| a + b),
                Instr::F64Sub => binop_f64!(|a: f64, b: f64| a - b),
                Instr::F64Mul => binop_f64!(|a: f64, b: f64| a * b),
                Instr::F64Div => binop_f64!(|a: f64, b: f64| a / b),
                Instr::F64Min => binop_f64!(wasm_fmin64),
                Instr::F64Max => binop_f64!(wasm_fmax64),
                Instr::F64Copysign => binop_f64!(|a: f64, b: f64| a.copysign(b)),

                Instr::I32WrapI64 => {
                    let a = pop!().as_i64();
                    stack.push(Value::I32(a as i32));
                }
                Instr::I32TruncF32S => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(trunc_f32_to_i32_s(a)?));
                }
                Instr::I32TruncF32U => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(trunc_f32_to_u32(a)? as i32));
                }
                Instr::I32TruncF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(trunc_f64_to_i32_s(a)?));
                }
                Instr::I32TruncF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(trunc_f64_to_u32(a)? as i32));
                }
                Instr::I64ExtendI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::I64(a as i64));
                }
                Instr::I64ExtendI32U => {
                    let a = pop!().as_i32();
                    stack.push(Value::I64(a as u32 as i64));
                }
                Instr::I64TruncF32S => {
                    let a = pop!().as_f32();
                    stack.push(Value::I64(trunc_f32_to_i64_s(a)?));
                }
                Instr::I64TruncF32U => {
                    let a = pop!().as_f32();
                    stack.push(Value::I64(trunc_f32_to_u64(a)? as i64));
                }
                Instr::I64TruncF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(trunc_f64_to_i64_s(a)?));
                }
                Instr::I64TruncF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(trunc_f64_to_u64(a)? as i64));
                }
                Instr::F32ConvertI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI32U => {
                    let a = pop!().as_i32();
                    stack.push(Value::F32(a as u32 as f32));
                }
                Instr::F32ConvertI64S => {
                    let a = pop!().as_i64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F32ConvertI64U => {
                    let a = pop!().as_i64();
                    stack.push(Value::F32(a as u64 as f32));
                }
                Instr::F32DemoteF64 => {
                    let a = pop!().as_f64();
                    stack.push(Value::F32(a as f32));
                }
                Instr::F64ConvertI32S => {
                    let a = pop!().as_i32();
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI32U => {
                    let a = pop!().as_i32();
                    stack.push(Value::F64(a as u32 as f64));
                }
                Instr::F64ConvertI64S => {
                    let a = pop!().as_i64();
                    stack.push(Value::F64(a as f64));
                }
                Instr::F64ConvertI64U => {
                    let a = pop!().as_i64();
                    stack.push(Value::F64(a as u64 as f64));
                }
                Instr::F64PromoteF32 => {
                    let a = pop!().as_f32();
                    stack.push(Value::F64(a as f64));
                }
                Instr::I32ReinterpretF32 => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(a.to_bits() as i32));
                }
                Instr::I64ReinterpretF64 => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(a.to_bits() as i64));
                }
                Instr::F32ReinterpretI32 => {
                    let a = pop!().as_i32();
                    stack.push(Value::F32(f32::from_bits(a as u32)));
                }
                Instr::F64ReinterpretI64 => {
                    let a = pop!().as_i64();
                    stack.push(Value::F64(f64::from_bits(a as u64)));
                }
                Instr::I32Extend8S => unop!(as_i32, I32, |a: i32| a as i8 as i32),
                Instr::I32Extend16S => unop!(as_i32, I32, |a: i32| a as i16 as i32),
                Instr::I64Extend8S => unop!(as_i64, I64, |a: i64| a as i8 as i64),
                Instr::I64Extend16S => unop!(as_i64, I64, |a: i64| a as i16 as i64),
                Instr::I64Extend32S => unop!(as_i64, I64, |a: i64| a as i32 as i64),
                Instr::I32TruncSatF32S => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(a as i32));
                }
                Instr::I32TruncSatF32U => {
                    let a = pop!().as_f32();
                    stack.push(Value::I32(a as u32 as i32));
                }
                Instr::I32TruncSatF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(a as i32));
                }
                Instr::I32TruncSatF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I32(a as u32 as i32));
                }
                Instr::I64TruncSatF32S => {
                    let a = pop!().as_f32();
                    stack.push(Value::I64(a as i64));
                }
                Instr::I64TruncSatF32U => {
                    let a = pop!().as_f32();
                    stack.push(Value::I64(a as u64 as i64));
                }
                Instr::I64TruncSatF64S => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(a as i64));
                }
                Instr::I64TruncSatF64U => {
                    let a = pop!().as_f64();
                    stack.push(Value::I64(a as u64 as i64));
                }
            }
        }

        Ok(stack.pop())
    }

    /// Branch within the current frame.
    #[inline]
    fn do_branch(frame: &mut Frame, stack: &mut Vec<Value>, depth: u32) {
        let idx = frame.labels.len() - 1 - depth as usize;
        let label = frame.labels[idx];
        let arity = label.arity as usize;
        // Carry the label's result values across the unwind.
        let carried_start = stack.len() - arity;
        // Move values down to the label's base height.
        if carried_start > label.stack_base {
            let (lo, hi) = stack.split_at_mut(carried_start);
            lo[label.stack_base..label.stack_base + arity].copy_from_slice(&hi[..arity]);
        }
        stack.truncate(label.stack_base + arity);
        let keep = if label.pop_self { idx } else { idx + 1 };
        frame.labels.truncate(keep);
        frame.pc = label.target as usize;
    }

    /// Pop the current frame; returns true when the entry frame was popped
    /// (execution is complete).
    fn do_return(module: &Module, frames: &mut Vec<Frame>, stack: &mut Vec<Value>) -> bool {
        let frame = frames.pop().expect("at least one frame");
        let ty = &module.types[module.funcs[frame.func as usize].type_idx as usize];
        let arity = ty.results.len();
        // Carry results, drop everything above the frame's base.
        if stack.len() - arity > frame.stack_base {
            let carried_start = stack.len() - arity;
            let (lo, hi) = stack.split_at_mut(carried_start);
            lo[frame.stack_base..frame.stack_base + arity].copy_from_slice(&hi[..arity]);
        }
        stack.truncate(frame.stack_base + arity);
        frames.is_empty()
    }

    /// Call a function (host or wasm) from inside the interpreter loop.
    fn do_call(
        &mut self,
        module: &Arc<Module>,
        func: u32,
        frames: &mut Vec<Frame>,
        stack: &mut Vec<Value>,
        n_imports: u32,
    ) -> Result<(), Trap> {
        if func < n_imports {
            // Host call: pop args, run closure, push result.
            let def = &self.host_funcs[func as usize];
            let expected = def.ty.results.first().copied();
            let argc = def.ty.params.len();
            let f = Arc::clone(&def.func);
            let args: Vec<Value> = stack.split_off(stack.len() - argc);
            let result = f(&mut self.data, &mut self.memory, &args)?;
            stack.extend(check_host_result(expected, result)?);
            Ok(())
        } else {
            if frames.len() >= self.limits.max_call_depth {
                return Err(Trap::StackOverflow);
            }
            frames.push(Frame::enter(module, func - n_imports, stack));
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // The register-form executor (see `crate::regalloc`).
    // ------------------------------------------------------------------

    /// Run `entry` on the register-form IR. Reuses the instance's register
    /// file and frame stack so steady-state invocations allocate nothing.
    /// `args` already match the entry's signature ([`Self::call_func`]);
    /// the result is re-tagged from the same signature.
    fn exec_reg(
        &mut self,
        entry: u32,
        args: &[Value],
        deadline: Option<Instant>,
        instrs: &mut u64,
    ) -> Result<Option<Value>, Trap> {
        let module = Arc::clone(&self.module);
        let n_imports = module.num_imported_funcs();

        let mut regs = std::mem::take(&mut self.scratch_regs);
        let mut frames = std::mem::take(&mut self.scratch_rframes);
        regs.clear();
        frames.clear();

        let entry_local = entry - n_imports;
        let rf = module.reg_func(entry_local);
        let ret_ty = module
            .func_type(entry)
            .and_then(|ty| ty.results.first().copied());
        // Declared locals and the operand window start as zero words: zero
        // bits are the zero of all four types.
        regs.extend(args.iter().map(|v| v.to_bits()));
        regs.resize(rf.frame_size as usize, 0);
        frames.push(RFrame {
            func: entry_local,
            pc: 0,
            base: 0,
            vbase: 0,
        });

        let result = self.run_reg(&module, deadline, instrs, &mut regs, &mut frames);
        let out = result.map(|()| ret_ty.map(|ty| Value::from_bits(ty, regs[0])));

        self.scratch_regs = regs;
        self.scratch_rframes = frames;
        out
    }

    /// The register-tier hot loop: dispatch [`ROp`]s until the entry frame
    /// returns. Semantics follow the flat IR the ops were lowered from —
    /// results, traps and fuel totals match the reference walker, with
    /// fuel, deadline and stack bounds checked once per basic block — but
    /// all operands are frame-relative register indices; there is no value
    /// stack and no locals arena, only `regs`.
    ///
    /// A register is an untyped word: each op reads its operands at the
    /// type the op itself implies (an i32 read takes the low half, an i32
    /// write zero-extends, so an i64 that last lived in the cell never
    /// leaks its upper half) and `Copy`/`Select`/carried windows move the
    /// word whole. A `Value` is rebuilt only where a type is *declared*:
    /// the entry signature, a host import's signature, a global's own tag
    /// and the operand type of a generic `Bin`/`Un` operator.
    fn run_reg(
        &mut self,
        module: &Arc<Module>,
        deadline: Option<Instant>,
        instrs: &mut u64,
        regs: &mut Vec<u64>,
        frames: &mut Vec<RFrame>,
    ) -> Result<(), Trap> {
        let n_imports = module.num_imported_funcs();
        let mut until_deadline_check = DEADLINE_CHECK_INTERVAL as i64;

        'frames: loop {
            // Per-activation state, cached in locals until a call/return
            // switches frames.
            let frame = *frames.last().expect("at least one frame");
            let mut pc = frame.pc as usize;
            let base = frame.base as usize;
            let vbase = frame.vbase as usize;
            let rf = module.reg_func(frame.func);
            let ops = &rf.ops;
            let rbranches = &rf.branches;
            let consts = &rf.consts;
            let n_locals = rf.n_locals as usize;

            macro_rules! reg {
                ($i:expr) => {
                    regs[base + $i as usize]
                };
            }
            /// Read a register as an i32: the low half of the cell.
            macro_rules! r32 {
                ($i:expr) => {
                    reg!($i) as i32
                };
            }
            /// Write an i32 result, zero-extended.
            macro_rules! w32 {
                ($i:expr, $v:expr) => {
                    reg!($i) = $v as u32 as u64
                };
            }
            /// Take a side-table branch; evaluates to the new pc. The
            /// carried window (`n ≤ 1` in the MVP) moves down to the
            /// target height; `n == 0` when the windows already coincide.
            macro_rules! rbranch_to {
                ($bi:expr) => {{
                    let rb = rbranches[$bi as usize];
                    if rb.n > 0 {
                        let src = base + rb.src as usize;
                        regs.copy_within(src..src + rb.n as usize, base + rb.dst as usize);
                    }
                    rb.pc as usize
                }};
            }
            /// Enter local function `$f` whose window starts at absolute
            /// register `$abs`; `$wbase` is the same start frame-relative.
            macro_rules! enter {
                ($f:expr, $abs:expr, $wbase:expr) => {{
                    let (f, abs) = ($f, $abs);
                    if frames.len() >= self.limits.max_call_depth {
                        return Err(Trap::StackOverflow);
                    }
                    frames.last_mut().expect("at least one frame").pc = pc as u32;
                    let callee = module.reg_func(f);
                    let need = abs + callee.frame_size as usize;
                    if regs.len() < need {
                        regs.resize(need, 0);
                    }
                    // Arguments are already in place at `abs..abs+argc`
                    // (register-window overlap); declared locals still
                    // need their zero values, whatever the caller's
                    // operand stack left in those cells.
                    regs[abs + callee.argc as usize..abs + callee.n_locals as usize].fill(0);
                    frames.push(RFrame {
                        func: f,
                        pc: 0,
                        base: abs as u32,
                        // The operand-stack height at this call site:
                        // `wbase - n_locals` is the caller's abstract
                        // height minus the moved args.
                        vbase: (vbase + $wbase as usize - n_locals) as u32,
                    });
                    continue 'frames;
                }};
            }

            loop {
                let op = ops[pc];
                pc += 1;
                match op {
                    ROp::Meter { cost, entry, peak } => {
                        if let Some(fuel) = self.fuel.as_mut() {
                            if *fuel < cost as u64 {
                                // The reference walker would retire exactly
                                // the remaining fuel before trapping.
                                *instrs += *fuel;
                                self.fuel = Some(0);
                                return Err(Trap::OutOfFuel);
                            }
                            *fuel -= cost as u64;
                        }
                        *instrs += cost as u64;
                        if let Some(dl) = deadline {
                            until_deadline_check -= cost as i64;
                            if until_deadline_check <= 0 {
                                until_deadline_check = DEADLINE_CHECK_INTERVAL as i64;
                                if Instant::now() > dl {
                                    return Err(Trap::DeadlineExceeded);
                                }
                            }
                        }
                        // `vbase + entry` is exactly the operand-stack
                        // height a stack machine has at this block header.
                        if vbase + entry as usize + peak as usize > self.limits.max_value_stack {
                            return Err(Trap::ValueStackExhausted);
                        }
                    }
                    ROp::Unreachable => return Err(Trap::Unreachable),
                    ROp::Br(b) => pc = rbranch_to!(b),
                    ROp::BrIf { cond, br } => {
                        if r32!(cond) != 0 {
                            pc = rbranch_to!(br);
                        }
                    }
                    ROp::BrIfZ { cond, br } => {
                        if r32!(cond) == 0 {
                            pc = rbranch_to!(br);
                        }
                    }
                    ROp::BrIfCmp { op, a, b, br } => {
                        if op.eval(r32!(a), r32!(b)) != 0 {
                            pc = rbranch_to!(br);
                        }
                    }
                    ROp::BrIfCmpC { op, a, k, br } => {
                        if op.eval(r32!(a), k) != 0 {
                            pc = rbranch_to!(br);
                        }
                    }
                    ROp::BrTable { sel, start, n } => {
                        let s = (r32!(sel) as u32).min(n);
                        pc = rbranch_to!(start + s);
                    }
                    ROp::Return { src } => {
                        if rf.ret_arity == 1 {
                            regs[base] = regs[base + src as usize];
                        }
                        frames.pop();
                        if frames.is_empty() {
                            return Ok(());
                        }
                        continue 'frames;
                    }
                    ROp::CallWasm { f, base: wbase } => enter!(f, base + wbase as usize, wbase),
                    // Arity and result type come from the import's own
                    // signature, not from the op.
                    ROp::CallHost { f, base: wbase, .. } => {
                        self.call_host_reg(f, regs, base + wbase as usize)?
                    }
                    ROp::CallIndirect { ty, base: wbase } => {
                        let abs = base + wbase as usize;
                        let expected = &module.types[ty as usize];
                        let argc = expected.params.len();
                        let idx = regs[abs + argc] as u32;
                        let func = self.table.get(idx)?;
                        let actual = module.func_type(func).ok_or(Trap::UninitializedElement)?;
                        if actual != expected {
                            return Err(Trap::IndirectCallTypeMismatch);
                        }
                        if func < n_imports {
                            self.call_host_reg(func, regs, abs)?;
                        } else {
                            enter!(func - n_imports, abs, wbase);
                        }
                    }
                    ROp::Copy { dst, src } => reg!(dst) = reg!(src),
                    ROp::ConstI32 { dst, k } => w32!(dst, k),
                    ROp::Const { dst, idx } => reg!(dst) = consts[idx as usize].to_bits(),
                    ROp::Select { dst, cond, b } => {
                        // `dst` already holds the true-arm value.
                        if r32!(cond) == 0 {
                            reg!(dst) = reg!(b);
                        }
                    }
                    ROp::GlobalGet { dst, g } => reg!(dst) = self.globals[g as usize].to_bits(),
                    ROp::GlobalSet { g, src } => {
                        let global = &mut self.globals[g as usize];
                        *global = Value::from_bits(global.ty(), reg!(src));
                    }
                    ROp::MemorySize { dst } => w32!(dst, self.memory.size_pages()),
                    ROp::MemoryGrow { dst, delta } => {
                        let delta = r32!(delta) as u32;
                        let result = self.memory.grow(delta).map(|p| p as i32).unwrap_or(-1);
                        w32!(dst, result);
                    }
                    ROp::MemoryCopy { dst, src, len } => {
                        self.memory
                            .copy(r32!(dst) as u32, r32!(src) as u32, r32!(len) as u32)?;
                    }
                    ROp::MemoryFill { dst, val, len } => {
                        self.memory
                            .fill(r32!(dst) as u32, r32!(val) as u8, r32!(len) as u32)?;
                    }
                    ROp::I32Bin { op, dst, a, b } => w32!(dst, op.eval(r32!(a), r32!(b))),
                    ROp::I32BinC { op, dst, a, k } => w32!(dst, op.eval(r32!(a), k)),
                    ROp::I64Bin { op, dst, a, b } => {
                        reg!(dst) = op.eval(reg!(a) as i64, reg!(b) as i64).to_bits();
                    }
                    ROp::Bin { op, dst, a, b } => {
                        let ty = op.operand_ty();
                        let (a, b) = (Value::from_bits(ty, reg!(a)), Value::from_bits(ty, reg!(b)));
                        reg!(dst) = op.eval(a, b)?.to_bits();
                    }
                    ROp::Un { op, dst, a } => {
                        let a = Value::from_bits(op.operand_ty(), reg!(a));
                        reg!(dst) = op.eval(a)?.to_bits();
                    }
                    ROp::Load {
                        kind,
                        dst,
                        addr,
                        off,
                    } => {
                        let a = r32!(addr) as u32;
                        reg!(dst) = self.mem_load(kind, a, off)?;
                    }
                    ROp::Store {
                        kind,
                        addr,
                        val,
                        off,
                    } => {
                        let v = reg!(val);
                        let a = r32!(addr) as u32;
                        self.mem_store(kind, a, off, v)?;
                    }
                    ROp::LoadAt {
                        kind,
                        dst,
                        a,
                        k,
                        off,
                    } => {
                        let a = r32!(a).wrapping_add(k) as u32;
                        reg!(dst) = self.mem_load(kind, a, off)?;
                    }
                    ROp::LoadRR {
                        kind,
                        dst,
                        a,
                        b,
                        off,
                    } => {
                        let a = r32!(a).wrapping_add(r32!(b)) as u32;
                        reg!(dst) = self.mem_load(kind, a, off)?;
                    }
                    ROp::StoreAt {
                        kind,
                        a,
                        k,
                        val,
                        off,
                    } => {
                        let v = reg!(val);
                        let a = r32!(a).wrapping_add(k) as u32;
                        self.mem_store(kind, a, off, v)?;
                    }
                    ROp::StoreRR {
                        kind,
                        a,
                        b,
                        val,
                        off,
                    } => {
                        let v = reg!(val);
                        let a = r32!(a).wrapping_add(r32!(b)) as u32;
                        self.mem_store(kind, a, off, v)?;
                    }
                    ROp::LoadBis {
                        kind,
                        dst,
                        a,
                        b,
                        sh,
                        k,
                        off,
                    } => {
                        let a = r32!(a)
                            .wrapping_add(r32!(b).wrapping_shl(sh as u32))
                            .wrapping_add(k as i32) as u32;
                        reg!(dst) = self.mem_load(kind, a, off)?;
                    }
                    ROp::StoreBis {
                        kind,
                        a,
                        b,
                        sh,
                        k,
                        val,
                        off,
                    } => {
                        let v = reg!(val);
                        let a = r32!(a)
                            .wrapping_add(r32!(b).wrapping_shl(sh as u32))
                            .wrapping_add(k as i32) as u32;
                        self.mem_store(kind, a, off, v)?;
                    }
                    // `v` is already the raw cell (i32 value or f32 bits).
                    ROp::StoreCAt { kind, a, k, v, off } => {
                        let a = r32!(a).wrapping_add(k) as u32;
                        self.mem_store(kind, a, off, v as u64)?;
                    }
                }
            }
        }
    }

    /// Width-dispatched load for the register loop (shared by the plain
    /// and address-fused forms; `a` is the fully computed i32 address).
    /// Returns the register cell: 32-bit results zero-extended, the
    /// sign-extending kinds extended to their result width first.
    #[inline]
    fn mem_load(&mut self, kind: LoadKind, a: u32, off: u32) -> Result<u64, Trap> {
        let m = &mut self.memory;
        Ok(match kind {
            LoadKind::I32 | LoadKind::F32 | LoadKind::I64U32 => {
                u32::from_le_bytes(m.read::<4>(a, off)?) as u64
            }
            LoadKind::I64 | LoadKind::F64 => u64::from_le_bytes(m.read::<8>(a, off)?),
            LoadKind::I32S8 => m.read::<1>(a, off)?[0] as i8 as i32 as u32 as u64,
            LoadKind::I32U8 | LoadKind::I64U8 => m.read::<1>(a, off)?[0] as u64,
            LoadKind::I32S16 => i16::from_le_bytes(m.read::<2>(a, off)?) as i32 as u32 as u64,
            LoadKind::I32U16 | LoadKind::I64U16 => u16::from_le_bytes(m.read::<2>(a, off)?) as u64,
            LoadKind::I64S8 => m.read::<1>(a, off)?[0] as i8 as i64 as u64,
            LoadKind::I64S16 => i16::from_le_bytes(m.read::<2>(a, off)?) as i64 as u64,
            LoadKind::I64S32 => i32::from_le_bytes(m.read::<4>(a, off)?) as i64 as u64,
        })
    }

    /// Width-dispatched store for the register loop: the low `width` bytes
    /// of the cell, which is the stored value for every kind.
    #[inline]
    fn mem_store(&mut self, kind: StoreKind, a: u32, off: u32, v: u64) -> Result<(), Trap> {
        match kind {
            StoreKind::I32Lo8 | StoreKind::I64Lo8 => self.memory.write(a, off, [v as u8]),
            StoreKind::I32Lo16 | StoreKind::I64Lo16 => {
                self.memory.write(a, off, (v as u16).to_le_bytes())
            }
            StoreKind::I32 | StoreKind::F32 | StoreKind::I64Lo32 => {
                self.memory.write(a, off, (v as u32).to_le_bytes())
            }
            StoreKind::I64 | StoreKind::F64 => self.memory.write(a, off, v.to_le_bytes()),
        }
    }

    /// Host call from the register loop: the import's signature re-tags
    /// the argument window into the `&[Value]` host functions take (a
    /// reused buffer, no per-call allocation) and names the result type;
    /// the result overwrites the window base, which the lowering pass
    /// reserved as the call's result cell.
    fn call_host_reg(&mut self, f: u32, regs: &mut [u64], abs_base: usize) -> Result<(), Trap> {
        let def = &self.host_funcs[f as usize];
        self.scratch_host_args.clear();
        let params = &def.ty.params;
        self.scratch_host_args.extend(
            params
                .iter()
                .zip(&regs[abs_base..abs_base + params.len()])
                .map(|(&ty, &cell)| Value::from_bits(ty, cell)),
        );
        let result = (def.func)(&mut self.data, &mut self.memory, &self.scratch_host_args)?;
        if let Some(v) = check_host_result(def.ty.results.first().copied(), result)? {
            regs[abs_base] = v.to_bits();
        }
        Ok(())
    }
}

/// The one place a host function's return value is held to its declared
/// signature: a closure that returns the wrong type — or a value for a
/// `[] -> []` import, or nothing where a result is due — is a host bug
/// surfaced as a trap, never a mistyped value handed to the guest or the
/// embedder.
fn check_host_result(expected: Option<ValType>, got: Option<Value>) -> Result<Option<Value>, Trap> {
    match (expected, got) {
        (Some(e), Some(v)) if e == v.ty() => Ok(got),
        (None, None) => Ok(None),
        (expected, got) => Err(Trap::HostError(format!(
            "host function returned {got:?}, signature says {expected:?}"
        ))),
    }
}

/// A register-tier call frame: all values live in the shared register
/// file, so the frame itself is four words.
#[derive(Debug, Clone, Copy)]
struct RFrame {
    /// Index into `module.funcs` (local function space).
    func: u32,
    /// Next op index (saved across calls).
    pc: u32,
    /// Absolute base of this frame's register window.
    base: u32,
    /// The operand-stack height a stack machine would have at frame entry,
    /// carried so `Meter` checks `max_value_stack` against the same height
    /// the reference walker's real value stack reaches.
    vbase: u32,
}

/// A call frame.
struct Frame {
    /// Index into `module.funcs` (local function space).
    func: u32,
    /// Parameters followed by zero-initialized locals.
    locals: Vec<Value>,
    /// Next instruction index.
    pc: usize,
    /// Open labels within this frame.
    labels: Vec<Label>,
    /// Value-stack height at entry (after arguments were popped).
    stack_base: usize,
}

impl Frame {
    /// Pop arguments off `stack` and build the frame.
    fn enter(module: &Module, local_func: u32, stack: &mut Vec<Value>) -> Frame {
        let body = &module.funcs[local_func as usize];
        let ty = &module.types[body.type_idx as usize];
        let argc = ty.params.len();
        let mut locals = Vec::with_capacity(argc + body.locals.len());
        locals.extend(stack.drain(stack.len() - argc..));
        locals.extend(body.locals.iter().map(|t| Value::zero(*t)));
        Frame {
            func: local_func,
            locals,
            pc: 0,
            labels: Vec::with_capacity(8),
            stack_base: stack.len(),
        }
    }
}

/// A control label within a frame.
#[derive(Debug, Clone, Copy)]
struct Label {
    /// Branch destination pc.
    target: u32,
    /// Value-stack height at label entry.
    stack_base: usize,
    /// Values a branch to this label carries.
    arity: u8,
    /// Loops are popped by the branch itself (the header re-pushes).
    pop_self: bool,
}

// ---------------------------------------------------------------------
// Float min/max and trapping truncation per the WebAssembly spec.
// ---------------------------------------------------------------------

pub(crate) fn wasm_fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        // Distinguish ±0: min(+0,-0) = -0.
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn trunc_f32_to_i32_s(a: f32) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    // Valid iff trunc(a) representable: -2^31 <= trunc(a) < 2^31.
    if (-2147483648.0_f32..2147483648.0_f32).contains(&a) {
        Ok(a as i32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f32_to_u32(a: f32) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if a < 4294967296.0_f32 && a > -1.0_f32 {
        Ok(a as u32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f64_to_i32_s(a: f64) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if a < 2147483648.0_f64 && a > -2147483649.0_f64 {
        Ok(a as i32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f64_to_u32(a: f64) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if a < 4294967296.0_f64 && a > -1.0_f64 {
        Ok(a as u32)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f32_to_i64_s(a: f32) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if (-9223372036854775808.0_f32..9223372036854775808.0_f32).contains(&a) {
        Ok(a as i64)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f32_to_u64(a: f32) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if a < 18446744073709551616.0_f32 && a > -1.0_f32 {
        Ok(a as u64)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f64_to_i64_s(a: f64) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if (-9223372036854775808.0_f64..9223372036854775808.0_f64).contains(&a) {
        Ok(a as i64)
    } else {
        Err(Trap::InvalidConversion)
    }
}

pub(crate) fn trunc_f64_to_u64(a: f64) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    if a < 18446744073709551616.0_f64 && a > -1.0_f64 {
        Ok(a as u64)
    } else {
        Err(Trap::InvalidConversion)
    }
}
