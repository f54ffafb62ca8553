//! Instantiation and execution.
//!
//! [`Linker`] resolves a module's function imports to host closures;
//! [`Instance`] owns the runtime state (memory, table, globals, host state
//! `T`) and drives the one executor, the register-form loop over the
//! code [`Module::analysis`]'s proof checked. The engine enforces the
//! sandbox: two fixed stack bounds, [`MAX_CALL_DEPTH`] frames and a
//! [`MAX_REGS`]-cell register arena, the one page cap each instance is
//! built with, and deterministic fuel, the one budget that stops a call
//! (the host sizes it from the 5G slot with [`NS_PER_FUEL`]; a bare
//! instance starts with `u64::MAX`). The executor reads no clock. Its
//! test oracle, a tree walker over the decoded `Instr` bodies with its
//! own memory, lives in the crate's `tests/util/oracle.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::interp::{Memory, Table, Value};
use crate::module::{ConstExpr, ExportKind, ImportKind, Module};
use crate::ops::{BinOp, I32Op, LoadKind, StoreKind, UnOp};
use crate::regalloc::{with_families, ROp, RegFunc};
use crate::trap::Trap;
use crate::types::{FuncType, Limits, Mutability, ValType, MAX_PAGES, PAGE_SIZE};

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

    /// The signature and closure registered under `(module, name)`.
    pub fn resolve(&self, module: &str, name: &str) -> Option<(&FuncType, &HostFn<T>)> {
        let def = self.funcs.get(&(module.to_string(), name.to_string()))?;
        Some((&def.ty, &def.func))
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
    /// lowering failed translation validation against the walk's reference.
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

/// Nanoseconds one unit of fuel may take on this executor, the calibration
/// that turns a time budget into fuel: the worst p99 ÷ instructions ratio
/// of EXPERIMENTS.md's Fig. 5d table is 2.15 ns (RR at 500 UEs, 167.7 µs
/// over 77 851 instructions), rounded up.
pub const NS_PER_FUEL: u64 = 3;

/// Bytes a `memory.copy` or `memory.fill` moves per unit of fuel. Each pays
/// ⌈len / 16⌉ on top of its own instruction, so fuel bounds time whatever
/// the length: a 4 MiB fill costs 262 144 fuel.
pub const BULK_BYTES_PER_FUEL: u32 = 16;

/// What `memory.grow` pays per page it adds, on top of its instruction:
/// the page's bytes at the bulk rate, 4096. A grow the memory cap refuses
/// pays only its instruction.
pub const PAGE_FUEL: u64 = PAGE_SIZE as u64 / BULK_BYTES_PER_FUEL as u64;

/// What every function activation pays on entry, on top of its
/// instructions: setting up a frame costs more than an `i32.add`. Together
/// with [`LOCALS_PER_FUEL`] it is folded into the function's entry `Meter`
/// at load time, so it costs nothing at run time.
pub const CALL_FUEL: u32 = 6;

/// Declared locals zeroed per unit of fuel on entry: an activation pays
/// ⌈declared locals / 8⌉ on top of [`CALL_FUEL`], so a frame of 49 000
/// locals costs 6 131 fuel, not one unit.
pub const LOCALS_PER_FUEL: u32 = 8;

/// The fuel one activation of a function with `declared_locals` locals
/// (parameters excluded) pays on entry.
pub(crate) fn call_price(declared_locals: usize) -> u32 {
    CALL_FUEL + (declared_locals as u32).div_ceil(LOCALS_PER_FUEL)
}

/// Register cells the executor's arena may hold, 2^20 words (8 MiB). A
/// call whose frame would grow the arena past it traps
/// [`Trap::StackOverflow`], and the plugin host refuses an export whose
/// static `regs` bound exceeds it.
pub const MAX_REGS: usize = 1 << 20;

/// Frames a call may nest, the entry frame included. One frame deeper
/// traps [`Trap::StackOverflow`], and the plugin host refuses an export
/// whose static `frames` bound exceeds it.
pub const MAX_CALL_DEPTH: usize = 512;

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Fuel the block meters retired across all invocations: source
    /// instructions plus each activation's price.
    pub instrs: u64,
    /// Completed invocations.
    pub invokes: u64,
    /// Traps observed.
    pub traps: u64,
    /// Most register cells the arena held in any one call: the measured
    /// counterpart of an export's static `regs` bound.
    pub peak_regs: u64,
    /// Deepest frame stack any one call reached, the entry frame
    /// included: the measured counterpart of the static `frames` bound.
    pub peak_frames: u64,
}

/// An instantiated module plus its host state `T`.
pub struct Instance<T> {
    module: Arc<Module>,
    /// The module's proven register code, shared with every other
    /// instance of it: an instance exists only once the proof passed.
    code: Arc<[RegFunc]>,
    /// Host functions in import order, shared with the [`InstancePre`] the
    /// instance was stamped from (one atomic refcount bump per stamp-out).
    host_funcs: Arc<[HostFuncDef<T>]>,
    /// Embedder state handed to host functions.
    pub data: T,
    /// Everything a guest entry mutates. The module and the host functions
    /// are only ever *read* by guest code, so a guest entry borrows them
    /// out of their `Arc`s alongside a `&mut` to this disjoint half — no
    /// entry clones an `Arc` (an atomic pair on a cache line every cell of
    /// a fleet shares).
    vm: Vm,
    fuel_limit: Option<u64>,
    /// Byte size of the memory this instance was stamped with from a
    /// template snapshot (0 otherwise): on drop, a buffer still that size
    /// is re-zeroed up to its dirty high-water mark and donated to the
    /// process-wide pool, so the next stamp-out skips the allocation.
    recycle_len: usize,
}

/// The half of an [`Instance`] a guest entry mutates: linear memory,
/// globals, the resource meters, the execution statistics and the reused
/// execution buffers. The executor is a method on it and takes the
/// module, its proven code, the host functions and the host state as
/// separate borrows.
struct Vm {
    memory: Memory,
    table: Table,
    globals: Vec<Value>,
    /// Fuel left; `u64::MAX` until [`Instance::set_fuel`] arms a budget.
    fuel: u64,
    stats: ExecStats,
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
}

impl<T> Drop for Instance<T> {
    fn drop(&mut self) {
        reclaim(&mut self.vm.memory, self.recycle_len);
    }
}

impl<T> std::fmt::Debug for Instance<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("memory_pages", &self.vm.memory.size_pages())
            .field("globals", &self.vm.globals.len())
            .field("stats", &self.vm.stats)
            .finish_non_exhaustive()
    }
}

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
/// [`Instance::with_page_cap`] and the pre-validated [`InstancePre`] both go
/// through it, so their error behavior cannot drift.
fn resolve_imports<T>(
    module: &Module,
    linker: &Linker<T>,
) -> Result<Vec<HostFuncDef<T>>, InstantiateError> {
    let mut host_funcs = Vec::with_capacity(module.imports.len());
    for imp in &module.imports {
        let ImportKind::Func { type_idx } = imp.kind;
        let expected = &module.types[type_idx as usize];
        let (ty, func) = linker.resolve(&imp.module, &imp.name).ok_or_else(|| {
            InstantiateError::MissingImport {
                module: imp.module.clone(),
                name: imp.name.clone(),
            }
        })?;
        if ty != expected {
            return Err(InstantiateError::ImportTypeMismatch {
                module: imp.module.clone(),
                name: imp.name.clone(),
                expected: Box::new(expected.clone()),
                found: Box::new(ty.clone()),
            });
        }
        host_funcs.push(HostFuncDef {
            ty: ty.clone(),
            func: func.clone(),
        });
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
    fn init(module: &Module, max_pages: u32) -> Result<Self, InstantiateError> {
        // Memory + data segments.
        let mut memory = match module.memory {
            Some(mem_limits) => {
                Memory::new(mem_limits, max_pages).map_err(InstantiateError::MemoryPolicy)?
            }
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
/// and type-checked import vector, and a snapshot of the post-segment-init
/// mutable state.
///
/// Building an `InstancePre` runs decode-adjacent work — import
/// resolution, type checks, memory allocation, data/elem-segment
/// initialization — exactly once. [`InstancePre::instantiate`] then stamps
/// out a live [`Instance`] as a copy of the snapshot's initialized prefix
/// into a pooled buffer plus a handful of `Arc` bumps, which is what
/// keeps per-worker plugin spin-up in the microsecond range for
/// hundred-cell fleets. Segment errors surface when the template is built.
///
/// The snapshot is captured *before* the start function: `start` may call
/// host functions against the instance's own host state, so it must run
/// per stamp-out for snapshot instantiation to be observationally
/// identical to the cold path, [`Instance::with_page_cap`].
///
/// Cloning is cheap (four `Arc` bumps); a template is `Send + Sync` and
/// meant to be shared across worker threads.
pub struct InstancePre<T> {
    module: Arc<Module>,
    code: Arc<[RegFunc]>,
    host_funcs: Arc<[HostFuncDef<T>]>,
    snapshot: Arc<StateSnapshot>,
}

impl<T> Clone for InstancePre<T> {
    fn clone(&self) -> Self {
        InstancePre {
            module: Arc::clone(&self.module),
            code: Arc::clone(&self.code),
            host_funcs: Arc::clone(&self.host_funcs),
            snapshot: Arc::clone(&self.snapshot),
        }
    }
}

impl<T> std::fmt::Debug for InstancePre<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstancePre")
            .field("imports", &self.host_funcs.len())
            .field("image_bytes", &self.image_bytes())
            .finish_non_exhaustive()
    }
}

impl<T> InstancePre<T> {
    /// Resolve + type-check `module`'s imports against `linker` and capture
    /// the post-segment-init state snapshot, its memory capped at
    /// `max_pages` under the module's own declared max.
    pub fn new(
        module: Arc<Module>,
        linker: &Linker<T>,
        max_pages: u32,
    ) -> Result<Self, InstantiateError> {
        let host_funcs: Arc<[HostFuncDef<T>]> = resolve_imports(&module, linker)?.into();
        let code = Arc::clone(module.code().map_err(InstantiateError::Analysis)?);
        let snapshot = Arc::new(StateSnapshot::new(InstanceState::init(&module, max_pages)?));
        Ok(InstancePre {
            module,
            code,
            host_funcs,
            snapshot,
        })
    }

    /// The templated module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Bytes of memory image the snapshot pins (its initialized prefix).
    pub fn image_bytes(&self) -> usize {
        self.snapshot.image.len()
    }

    /// Stamp out a live instance: copy the snapshot's initialized prefix
    /// into a pooled buffer, bump the shared import vector, run `start`.
    pub fn instantiate(&self, data: T) -> Result<Instance<T>, InstantiateError> {
        Instance::assemble(
            Arc::clone(&self.module),
            Arc::clone(&self.code),
            Arc::clone(&self.host_funcs),
            self.snapshot.stamp(),
            data,
            self.snapshot.size_bytes,
        )
    }
}

impl<T> Instance<T> {
    /// Instantiate `module` with imports from `linker` and host state `data`;
    /// its memory may grow to the module's own declared max.
    pub fn new(module: Arc<Module>, linker: &Linker<T>, data: T) -> Result<Self, InstantiateError> {
        Self::with_page_cap(module, linker, data, MAX_PAGES)
    }

    /// Instantiate with memory capped at `max_pages` under the module's
    /// own declared max. This is the *cold* path: imports are resolved and
    /// the mutable state initialized from the module's segments on every
    /// call. Fleets stamping out many instances of one module should build
    /// an [`InstancePre`] once and instantiate from it.
    pub fn with_page_cap(
        module: Arc<Module>,
        linker: &Linker<T>,
        data: T,
        max_pages: u32,
    ) -> Result<Self, InstantiateError> {
        let host_funcs: Arc<[HostFuncDef<T>]> = resolve_imports(&module, linker)?.into();
        let code = Arc::clone(module.code().map_err(InstantiateError::Analysis)?);
        let state = InstanceState::init(&module, max_pages)?;
        Self::assemble(module, code, host_funcs, state, data, 0)
    }

    /// Final construction step shared by the cold path and
    /// [`InstancePre::instantiate`]: wire the parts together and run the
    /// start function (which must execute per *instance*, never per
    /// template — it may call host functions against this instance's own
    /// `data`).
    fn assemble(
        module: Arc<Module>,
        code: Arc<[RegFunc]>,
        host_funcs: Arc<[HostFuncDef<T>]>,
        state: InstanceState,
        data: T,
        recycle_len: usize,
    ) -> Result<Self, InstantiateError> {
        let InstanceState {
            memory,
            table,
            globals,
        } = state;
        let mut inst = Instance {
            module,
            code,
            host_funcs,
            data,
            vm: Vm {
                memory,
                table,
                globals,
                fuel: u64::MAX,
                stats: ExecStats::default(),
                scratch_regs: Vec::with_capacity(128),
                scratch_rframes: Vec::with_capacity(16),
                scratch_host_args: Vec::new(),
            },
            fuel_limit: None,
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
        &self.vm.memory
    }

    /// Mutable guest linear memory (host-side ABI access).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.vm.memory
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.vm.stats
    }

    /// Read a global exported under `name`.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        match self.module.export(name)?.kind {
            ExportKind::Global(idx) => self.vm.globals.get(idx as usize).copied(),
            _ => None,
        }
    }

    /// Overwrite global `idx` (host-side ABI access: the plugin host
    /// rewinds the guest's bump pointer). Refused with a
    /// [`Trap::HostError`] unless the global exists, is mutable and `v`
    /// has its declared type, so the host cannot break what the validator
    /// proved about every `global.get`.
    pub fn set_global(&mut self, idx: u32, v: Value) -> Result<(), Trap> {
        match self.module.globals.get(idx as usize) {
            Some(g) if g.ty.mutability == Mutability::Var && g.ty.ty == v.ty() => {
                self.vm.globals[idx as usize] = v;
                Ok(())
            }
            _ => Err(Trap::HostError(format!(
                "global {idx} is not a mutable {} global",
                v.ty()
            ))),
        }
    }

    /// Set the deterministic fuel budget for subsequent invocations: one
    /// unit per instruction, plus a bulk memory op's byte charge
    /// ([`BULK_BYTES_PER_FUEL`]) and a successful `memory.grow`'s page
    /// charge ([`PAGE_FUEL`]). The budget is *per `set_fuel` call*: it
    /// carries across invocations until exhausted or reset.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.vm.fuel = fuel;
        self.fuel_limit = Some(fuel);
    }

    /// Fuel remaining.
    pub fn fuel_remaining(&self) -> u64 {
        self.vm.fuel
    }

    /// Fuel consumed since the last [`Self::set_fuel`]; `None` until a
    /// budget is armed.
    pub fn fuel_consumed(&self) -> Option<u64> {
        Some(self.fuel_limit? - self.vm.fuel)
    }

    /// True when the module exports a function under `name`.
    pub fn has_export(&self, name: &str) -> bool {
        self.module.exported_func(name).is_some()
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
    /// here — the one place the embedder's values enter the executor — and
    /// a mismatch is a [`Trap::HostError`] before any guest code runs.
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
        let (module, code, host_funcs) = (&*self.module, &*self.code, &*self.host_funcs);
        let data = &mut self.data;
        // `host_funcs` holds one entry per function import, in index order.
        let result = if let Some(def) = host_funcs.get(func as usize) {
            // Direct host-function entry (rare but legal via re-export):
            // no guest code runs, so no executor is involved.
            (def.func)(data, &mut self.vm.memory, args)
                .and_then(|got| check_host_result(def.ty.results.first().copied(), got))
        } else {
            self.vm.exec_reg(module, code, host_funcs, data, func, args)
        };
        match &result {
            Ok(_) => self.vm.stats.invokes += 1,
            Err(_) => self.vm.stats.traps += 1,
        }
        result
    }
}

impl Vm {
    /// Run `entry` on the register-form IR. Reuses the instance's register
    /// file and frame stack so steady-state invocations allocate nothing.
    /// `args` already match the entry's signature ([`Instance::call_func`]);
    /// the result is re-tagged from the same signature.
    fn exec_reg<T>(
        &mut self,
        module: &Module,
        code: &[RegFunc],
        host_funcs: &[HostFuncDef<T>],
        data: &mut T,
        entry: u32,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        let n_imports = module.num_imported_funcs();

        let mut regs = std::mem::take(&mut self.scratch_regs);
        let mut frames = std::mem::take(&mut self.scratch_rframes);
        regs.clear();
        frames.clear();

        let entry_local = entry - n_imports;
        let rf = &code[entry_local as usize];
        let ret_ty = module
            .func_type(entry)
            .and_then(|ty| ty.results.first().copied());
        let result = if rf.frame_size as usize > MAX_REGS {
            Err(Trap::StackOverflow)
        } else {
            // Declared locals and the operand window start as zero words:
            // zero bits are the zero of all four types.
            regs.extend(args.iter().map(|v| v.to_bits()));
            regs.resize(rf.frame_size as usize, 0);
            frames.push(RFrame {
                func: entry_local,
                pc: 0,
                base: 0,
            });
            self.stats.peak_frames = self.stats.peak_frames.max(1);
            self.run_reg(module, code, host_funcs, data, &mut regs, &mut frames)
        };
        // Within a call the arena only grows, so its length now is the
        // call's high-water mark.
        self.stats.peak_regs = self.stats.peak_regs.max(regs.len() as u64);
        let out = result.map(|()| ret_ty.map(|ty| Value::from_bits(ty, regs[0])));

        self.scratch_regs = regs;
        self.scratch_rframes = frames;
        out
    }

    /// The register-tier hot loop: dispatch [`ROp`]s until the entry frame
    /// returns. Semantics follow the op stream they were lowered from —
    /// results, traps and fuel totals match a per-instruction walk of the
    /// source, with fuel checked once per basic block — but all operands
    /// are frame-relative register indices; there is no value stack and no
    /// locals arena, only `regs`, capped at [`MAX_REGS`] where a call grows
    /// it.
    ///
    /// A register is an untyped word: each op reads its operands at the
    /// type the op itself implies (an i32 read takes the low half, an i32
    /// write zero-extends, so an i64 that last lived in the cell never
    /// leaks its upper half) and `Copy`/`Select`/carried windows move the
    /// word whole. A `Value` is rebuilt only where a type is *declared*:
    /// the entry signature, a host import's signature, a global's own tag
    /// and the operand type of a generic `Bin`/`Un` operator.
    fn run_reg<T>(
        &mut self,
        module: &Module,
        code: &[RegFunc],
        host_funcs: &[HostFuncDef<T>],
        data: &mut T,
        regs: &mut Vec<u64>,
        frames: &mut Vec<RFrame>,
    ) -> Result<(), Trap> {
        let n_imports = module.num_imported_funcs();

        'frames: loop {
            // Per-activation state, cached in locals until a call/return
            // switches frames.
            let frame = *frames.last().expect("at least one frame");
            let mut pc = frame.pc as usize;
            let base = frame.base as usize;
            let rf = &code[frame.func as usize];
            let ops = &rf.ops;
            let rbranches = &rf.branches;
            let consts = &rf.consts;

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
            /// register `$abs`. Its entry `Meter` charges the activation.
            macro_rules! enter {
                ($f:expr, $abs:expr) => {{
                    let (f, abs) = ($f, $abs);
                    if frames.len() >= MAX_CALL_DEPTH {
                        return Err(Trap::StackOverflow);
                    }
                    frames.last_mut().expect("at least one frame").pc = pc as u32;
                    let callee = &code[f as usize];
                    let need = abs + callee.frame_size as usize;
                    if regs.len() < need {
                        if need > MAX_REGS {
                            return Err(Trap::StackOverflow);
                        }
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
                    });
                    // A new depth is rare, so a call only compares.
                    if frames.len() as u64 > self.stats.peak_frames {
                        self.stats.peak_frames = frames.len() as u64;
                    }
                    continue 'frames;
                }};
            }

            loop {
                let op = ops[pc];
                pc += 1;
                // One arm per tag, so each op costs one indirect jump: the
                // fixed ops, then a generated arm per row of each
                // flattened family (`regalloc::with_families!`) that calls
                // its row's `eval` (a memory cell: `mem_load`/`mem_store`
                // with the cell's first row) on a constant operator.
                macro_rules! dispatch {
                    (
                        LoadCells { $( $lc:ident [$($_lk:ident)+] )+ }
                        StoreCells { $( $sc:ident [$($_sk:ident)+] )+ }
                        I32Bin(I32Op) { $($i32:ident)+ }
                        I64Bin(I64Op) { $($_i64:ident)+ }
                        Bin(BinOp) { $($bin:ident)+ }
                        Un(UnOp) { $($un:ident)+ }
                        Load(LoadKind) { $($_load:ident)+ }
                        Store(StoreKind) { $($_store:ident)+ }
                    ) => { paste::paste! { match op {
                        ROp::Meter { cost } => {
                            if self.fuel < cost as u64 {
                                // A per-instruction meter would retire
                                // exactly the remaining fuel before
                                // trapping.
                                self.stats.instrs += self.fuel;
                                self.fuel = 0;
                                return Err(Trap::OutOfFuel);
                            }
                            self.fuel -= cost as u64;
                            self.stats.instrs += cost as u64;
                        }
                        ROp::Unreachable => return Err(Trap::Unreachable),
                        ROp::Br { br } => pc = rbranch_to!(br),
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
                        ROp::CallWasm { f, base: wbase } => enter!(f, base + wbase as usize),
                        // Arity and result type come from the import's own
                        // signature, not from the op.
                        ROp::CallHost { f, base: wbase, .. } => {
                            self.call_host_reg(host_funcs, data, f, regs, base + wbase as usize)?
                        }
                        ROp::CallIndirect { ty, base: wbase } => {
                            let abs = base + wbase as usize;
                            let expected = &module.types[ty as usize];
                            let argc = expected.params.len();
                            let idx = regs[abs + argc] as u32;
                            let func = self.table.get(idx)?;
                            let actual =
                                module.func_type(func).ok_or(Trap::UninitializedElement)?;
                            if actual != expected {
                                return Err(Trap::IndirectCallTypeMismatch);
                            }
                            if func < n_imports {
                                self.call_host_reg(host_funcs, data, func, regs, abs)?;
                            } else {
                                enter!(func - n_imports, abs);
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
                        ROp::GlobalGet { dst, g } => {
                            reg!(dst) = self.globals[g as usize].to_bits()
                        }
                        ROp::GlobalSet { g, src } => {
                            let global = &mut self.globals[g as usize];
                            *global = Value::from_bits(global.ty(), reg!(src));
                        }
                        ROp::MemorySize { dst } => w32!(dst, self.memory.size_pages()),
                        // A grow the cap allows zeroes `delta` pages, so it
                        // pays for their bytes like a bulk op, before a
                        // page is added; one the cap refuses pays only its
                        // unit.
                        ROp::MemoryGrow { dst, delta } => {
                            let delta = r32!(delta) as u32;
                            let pages = self.memory.size_pages();
                            let result = if u64::from(pages) + u64::from(delta)
                                <= u64::from(self.memory.max_pages())
                            {
                                self.pay(u64::from(delta) * PAGE_FUEL)?;
                                self.memory.grow(delta).map_or(-1, |p| p as i32)
                            } else {
                                -1
                            };
                            w32!(dst, result);
                        }
                        ROp::MemoryCopy { dst, src, len } => {
                            let (dst, src, len) =
                                (r32!(dst) as u32, r32!(src) as u32, r32!(len) as u32);
                            self.memory.check(src, 0, len)?;
                            self.memory.check(dst, 0, len)?;
                            self.pay_bytes(len)?;
                            self.memory.copy(dst, src, len)?;
                        }
                        ROp::MemoryFill { dst, val, len } => {
                            let (dst, len) = (r32!(dst) as u32, r32!(len) as u32);
                            self.memory.check(dst, 0, len)?;
                            self.pay_bytes(len)?;
                            self.memory.fill(dst, r32!(val) as u8, len)?;
                        }
                        ROp::I64Bin { op, dst, a, b } => {
                            reg!(dst) = op.eval(reg!(a) as i64, reg!(b) as i64).to_bits();
                        }
                        $( ROp::[<BrIfCmp $i32>] { a, b, br } => {
                            if I32Op::$i32.eval(r32!(a), r32!(b)) != 0 {
                                pc = rbranch_to!(br);
                            }
                        } )+
                        $( ROp::[<BrIfCmpC $i32>] { a, k, br } => {
                            if I32Op::$i32.eval(r32!(a), k) != 0 {
                                pc = rbranch_to!(br);
                            }
                        } )+
                        $( ROp::[<I32Bin $i32>] { dst, a, b } => {
                            w32!(dst, I32Op::$i32.eval(r32!(a), r32!(b)))
                        } )+
                        $( ROp::[<I32BinC $i32>] { dst, a, k } => {
                            w32!(dst, I32Op::$i32.eval(r32!(a), k))
                        } )+
                        $( ROp::[<Bin $bin>] { dst, a, b } => {
                            let ty = BinOp::$bin.operand_ty();
                            let (a, b) = (Value::from_bits(ty, reg!(a)), Value::from_bits(ty, reg!(b)));
                            reg!(dst) = BinOp::$bin.eval(a, b)?.to_bits();
                        } )+
                        $( ROp::[<Un $un>] { dst, a } => {
                            let a = Value::from_bits(UnOp::$un.operand_ty(), reg!(a));
                            reg!(dst) = UnOp::$un.eval(a)?.to_bits();
                        } )+
                        $( ROp::[<Load $lc>] { dst, addr, off, .. } => {
                            let a = r32!(addr) as u32;
                            reg!(dst) = self.mem_load(LoadKind::$lc, a, off)?;
                        } )+
                        $( ROp::[<LoadAt $lc>] { dst, a, k, off, .. } => {
                            let a = r32!(a).wrapping_add(k) as u32;
                            reg!(dst) = self.mem_load(LoadKind::$lc, a, off)?;
                        } )+
                        $( ROp::[<LoadRR $lc>] { dst, a, b, off, .. } => {
                            let a = r32!(a).wrapping_add(r32!(b)) as u32;
                            reg!(dst) = self.mem_load(LoadKind::$lc, a, off)?;
                        } )+
                        $( ROp::[<LoadBis $lc>] { dst, a, b, sh, k, off, .. } => {
                            let a = r32!(a)
                                .wrapping_add(r32!(b).wrapping_shl(sh as u32))
                                .wrapping_add(k as i32) as u32;
                            reg!(dst) = self.mem_load(LoadKind::$lc, a, off)?;
                        } )+
                        $( ROp::[<Store $sc>] { addr, val, off, .. } => {
                            let v = reg!(val);
                            let a = r32!(addr) as u32;
                            self.mem_store(StoreKind::$sc, a, off, v)?;
                        } )+
                        $( ROp::[<StoreAt $sc>] { a, k, val, off, .. } => {
                            let v = reg!(val);
                            let a = r32!(a).wrapping_add(k) as u32;
                            self.mem_store(StoreKind::$sc, a, off, v)?;
                        } )+
                        $( ROp::[<StoreRR $sc>] { a, b, val, off, .. } => {
                            let v = reg!(val);
                            let a = r32!(a).wrapping_add(r32!(b)) as u32;
                            self.mem_store(StoreKind::$sc, a, off, v)?;
                        } )+
                        $( ROp::[<StoreBis $sc>] { a, b, sh, k, val, off, .. } => {
                            let v = reg!(val);
                            let a = r32!(a)
                                .wrapping_add(r32!(b).wrapping_shl(sh as u32))
                                .wrapping_add(k as i32) as u32;
                            self.mem_store(StoreKind::$sc, a, off, v)?;
                        } )+
                        // `v` is already the raw cell (i32 value or f32
                        // bits).
                        $( ROp::[<StoreCAt $sc>] { a, k, v, off, .. } => {
                            let a = r32!(a).wrapping_add(k) as u32;
                            self.mem_store(StoreKind::$sc, a, off, v as u64)?;
                        } )+
                    } } };
                }
                with_families!(dispatch);
            }
        }
    }

    /// A bulk op's byte charge, ⌈len / [`BULK_BYTES_PER_FUEL`]⌉, taken
    /// once its ranges are known to be in bounds and before a byte moves.
    #[inline]
    fn pay_bytes(&mut self, len: u32) -> Result<(), Trap> {
        self.pay(u64::from(len.div_ceil(BULK_BYTES_PER_FUEL)))
    }

    /// An op's charge on top of its instruction. Running out here leaves
    /// no fuel, as at a `Meter`.
    #[inline]
    fn pay(&mut self, charge: u64) -> Result<(), Trap> {
        if self.fuel < charge {
            self.fuel = 0;
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= charge;
        Ok(())
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
    fn call_host_reg<T>(
        &mut self,
        host_funcs: &[HostFuncDef<T>],
        data: &mut T,
        f: u32,
        regs: &mut [u64],
        abs_base: usize,
    ) -> Result<(), Trap> {
        let def = &host_funcs[f as usize];
        self.scratch_host_args.clear();
        let params = &def.ty.params;
        self.scratch_host_args.extend(
            params
                .iter()
                .zip(&regs[abs_base..abs_base + params.len()])
                .map(|(&ty, &cell)| Value::from_bits(ty, cell)),
        );
        let result = (def.func)(data, &mut self.memory, &self.scratch_host_args)?;
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
/// file, so the frame itself is three words.
#[derive(Debug, Clone, Copy)]
struct RFrame {
    /// Index into `module.funcs` (local function space).
    func: u32,
    /// Next op index (saved across calls).
    pc: u32,
    /// Absolute base of this frame's register window.
    base: u32,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instance_runs_the_code_the_proof_checked() {
        let wasm = waran_wat::assemble(r#"(module (func (export "f") (result i32) i32.const 7))"#)
            .unwrap();
        let module = Arc::new(crate::load_module(&wasm).unwrap());
        let linker = Linker::<()>::new();
        let pre = InstancePre::new(module.clone(), &linker, MAX_PAGES).unwrap();
        let stamped = pre.instantiate(()).unwrap();
        let cold = Instance::with_page_cap(module.clone(), &linker, (), MAX_PAGES).unwrap();
        let second = Instance::new(module.clone(), &linker, ()).unwrap();
        let proven = module.code().unwrap();
        for inst in [&stamped, &cold, &second] {
            assert!(Arc::ptr_eq(&inst.code, proven));
        }
    }
}
