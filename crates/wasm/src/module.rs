//! The decoded, immutable module representation shared by the validator and
//! the interpreter.

use std::sync::OnceLock;

use crate::analysis::{analyze, AnalysisError, ModuleAnalysis};
use crate::compile::{compile_func, CompiledFunc};
use crate::instr::Instr;
use crate::regalloc::{lower_func, RegFunc};
use crate::types::{FuncType, GlobalType, Limits, ValType};

/// A lazily computed pure function of the module it lives on: the flat
/// IR, the register form and the analysis report are each derived once,
/// on first use. Wraps `OnceLock` so [`FuncBody`] and [`Module`] keep
/// their derived `Clone`/`PartialEq`/`Debug` — a clone carries a computed
/// value along, and the cache never affects equality.
pub struct Memo<T>(OnceLock<T>);

impl<T> Memo<T> {
    /// Empty (not-yet-computed) cell.
    pub const fn new() -> Self {
        Memo(OnceLock::new())
    }

    /// The cached value, computing it with `f` on first use.
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(f)
    }

    /// The cached value, if computed, for in-place trimming.
    pub fn get_mut(&mut self) -> Option<&mut T> {
        self.0.get_mut()
    }

    /// Empty the cell, returning what it held; a later
    /// [`Self::get_or_init`] computes afresh.
    pub fn take(&mut self) -> Option<T> {
        self.0.take()
    }
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Clone for Memo<T> {
    fn clone(&self) -> Self {
        Memo(
            self.0
                .get()
                .cloned()
                .map_or_else(OnceLock::new, OnceLock::from),
        )
    }
}

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> std::fmt::Debug for Memo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "Memo(computed)"
        } else {
            "Memo(pending)"
        })
    }
}

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportKind {
    /// Function import with the given type index.
    Func { type_idx: u32 },
    // Memory/table/global imports are intentionally unsupported: WA-RAN
    // plugins own their sandbox state; sharing it with the host would
    // reintroduce exactly the coupling the paper argues against.
}

/// One import entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Module namespace, e.g. `"env"`.
    pub module: String,
    /// Field name, e.g. `"wrn_log"`.
    pub name: String,
    /// Imported entity.
    pub kind: ImportKind,
}

/// What an export exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportKind {
    /// Function by (module-wide) function index.
    Func(u32),
    /// The (single) memory.
    Memory,
    /// The (single) table.
    Table,
    /// Global by index.
    Global(u32),
}

/// One export entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Exported name.
    pub name: String,
    /// Exported entity.
    pub kind: ExportKind,
}

/// A module-defined (non-imported) function: its signature and body.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    /// Index into [`Module::types`].
    pub type_idx: u32,
    /// Declared locals (excluding parameters), already expanded.
    pub locals: Vec<ValType>,
    /// Flat instruction sequence terminated by `End`, with block targets
    /// resolved (see [`crate::instr::fixup_block_targets`]).
    pub code: Vec<Instr>,
    /// Lazily compiled flat IR (see [`crate::compile`]): never executed,
    /// it is the intermediate the register form is lowered from, the
    /// input of the load-time analysis and the left-hand side of
    /// translation validation — and nothing after that, so
    /// [`Module::release_proof_inputs`] empties the cell.
    pub compiled: Memo<CompiledFunc>,
    /// Lazily lowered register-form IR (see [`crate::regalloc`]) — what
    /// instances execute. Shared by every instance holding the same
    /// `Arc<Module>`, so hot swap back to a cached module re-instantiates
    /// without re-lowering.
    pub reg: Memo<RegFunc>,
}

impl FuncBody {
    /// A body with an empty compile cache.
    pub fn new(type_idx: u32, locals: Vec<ValType>, code: Vec<Instr>) -> Self {
        FuncBody {
            type_idx,
            locals,
            code,
            compiled: Memo::new(),
            reg: Memo::new(),
        }
    }
}

/// A module-defined global: its type and constant initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Type and mutability.
    pub ty: GlobalType,
    /// Constant initializer (only `t.const` expressions are supported;
    /// imported-global initializers are out of scope).
    pub init: ConstExpr,
}

/// A constant expression used by global initializers and segment offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstExpr {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl ConstExpr {
    /// The type the expression evaluates to.
    pub fn ty(&self) -> ValType {
        match self {
            ConstExpr::I32(_) => ValType::I32,
            ConstExpr::I64(_) => ValType::I64,
            ConstExpr::F32(_) => ValType::F32,
            ConstExpr::F64(_) => ValType::F64,
        }
    }
}

/// An active data segment copied into memory at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Byte offset expression (must be i32).
    pub offset: ConstExpr,
    /// Bytes to copy.
    pub bytes: Vec<u8>,
}

/// An active element segment written into the table at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSegment {
    /// Element offset expression (must be i32).
    pub offset: ConstExpr,
    /// Function indices to install.
    pub funcs: Vec<u32>,
}

/// A fully decoded module. Immutable after decoding; validation never
/// mutates it, instantiation only reads it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// The type section: deduplicated function signatures.
    pub types: Vec<FuncType>,
    /// Imports, in declaration order. Function indices count these first.
    pub imports: Vec<Import>,
    /// Module-defined function bodies (indices offset by `num_imported_funcs`).
    pub funcs: Vec<FuncBody>,
    /// Optional funcref table (the MVP allows at most one).
    pub table: Option<Limits>,
    /// Optional linear memory (the MVP allows at most one).
    pub memory: Option<Limits>,
    /// Module-defined globals.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Optional start function index.
    pub start: Option<u32>,
    /// Active element segments.
    pub elems: Vec<ElemSegment>,
    /// Active data segments.
    pub data: Vec<DataSegment>,
    /// Lazily computed load-time static analysis (translation validation
    /// + resource bounds), cached module-wide like the compiled bodies.
    pub analysis: Memo<Result<ModuleAnalysis, AnalysisError>>,
}

impl Module {
    /// Number of imported functions (they occupy the first function indices).
    pub fn num_imported_funcs(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Func { .. }))
            .count() as u32
    }

    /// Total number of functions (imported + defined).
    pub fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.funcs.len() as u32
    }

    /// The signature of a function by module-wide index, if in range.
    pub fn func_type(&self, func_idx: u32) -> Option<&FuncType> {
        let n_imp = self.num_imported_funcs();
        let type_idx = if func_idx < n_imp {
            // Every import is a function import, so the func-index space
            // for imports is the import list itself.
            let ImportKind::Func { type_idx } = self.imports.get(func_idx as usize)?.kind;
            type_idx
        } else {
            self.funcs.get((func_idx - n_imp) as usize)?.type_idx
        };
        self.types.get(type_idx as usize)
    }

    /// Look up an export by name.
    pub fn export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }

    /// Look up an exported function index by name.
    pub fn exported_func(&self, name: &str) -> Option<u32> {
        match self.export(name)?.kind {
            ExportKind::Func(idx) => Some(idx),
            _ => None,
        }
    }

    /// The flat-IR compilation of a module-local function (index into
    /// [`Module::funcs`]), compiling on first use. The body must have been
    /// validated.
    pub fn compiled_func(&self, local_idx: u32) -> &CompiledFunc {
        self.funcs[local_idx as usize]
            .compiled
            .get_or_init(|| compile_func(self, local_idx))
    }

    /// The register-form lowering of a module-local function (index into
    /// [`Module::funcs`]), lowering (and flat-compiling) on first use. The
    /// body must have been validated.
    pub fn reg_func(&self, local_idx: u32) -> &RegFunc {
        self.funcs[local_idx as usize]
            .reg
            .get_or_init(|| lower_func(self, local_idx))
    }

    /// The module's static analysis report (translation validation and
    /// worst-case resource bounds), computed on first use and cached.
    /// The module must have been validated.
    pub fn analysis(&self) -> Result<&ModuleAnalysis, AnalysisError> {
        self.analysis
            .get_or_init(|| analyze(self))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Run the load-time proof now ([`Self::analysis`], which lowers every
    /// body), then free what only the proof read: each body's flat IR and
    /// the register form's `pc_map`. The verdict, the bounds and the
    /// register code stay memoised, so instances and admission see no
    /// difference; for a module a cache retains it is the larger half of
    /// the lowered code given back. [`Self::compiled_func`] on a released
    /// module recompiles (tools and tests only — no runtime path asks).
    pub fn release_proof_inputs(&mut self) {
        let _ = self.analysis();
        for body in &mut self.funcs {
            body.compiled.take();
            if let Some(rf) = body.reg.get_mut() {
                rf.pc_map = Box::default();
            }
        }
    }

    /// Force both lowerings of every function body now: the flat IR
    /// (analysis input, proof left-hand side) and the register form
    /// derived from it (what runs).
    ///
    /// Lowering is otherwise lazy (first call per function, behind a
    /// `OnceLock`), which is right for a single instance but makes worker
    /// threads that share one `Arc<Module>` briefly serialize on the cells
    /// during warm-up. Pre-compiling once — e.g. when a module enters the
    /// host's template cache — gives every instance a fully-lowered,
    /// read-only module to execute from.
    pub fn precompile(&self) {
        for local_idx in 0..self.funcs.len() as u32 {
            self.compiled_func(local_idx);
            self.reg_func(local_idx);
        }
    }
}

// Concurrency audit: the sharded engine shares one validated `Module`
// across worker threads (one `Arc<Module>` per bytecode hash, one
// instance per worker) and moves `Instance`s into workers. Everything
// here is plain owned data; the only interior mutability is the
// `OnceLock` inside each [`Memo`] (two per body, one on the module),
// which is thread-safe by construction. Workers only ever read
// `RegFunc`s while executing; `CompiledFunc`s are read by the lowering
// and the analyzer. These assertions make the property load-bearing: a
// field that breaks `Send`/`Sync` breaks the build, not the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Module>();
    assert_send_sync::<CompiledFunc>();
    assert_send_sync::<RegFunc>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FuncType, ValType};

    fn module_with_import() -> Module {
        let mut m = Module::default();
        m.types.push(FuncType::new(&[ValType::I32], &[]));
        m.types.push(FuncType::new(&[], &[ValType::I64]));
        m.imports.push(Import {
            module: "env".into(),
            name: "log".into(),
            kind: ImportKind::Func { type_idx: 0 },
        });
        m.funcs.push(FuncBody::new(
            1,
            vec![],
            vec![Instr::I64Const(7), Instr::End],
        ));
        m.exports.push(Export {
            name: "get".into(),
            kind: ExportKind::Func(1),
        });
        m
    }

    #[test]
    fn func_indexing_counts_imports_first() {
        let m = module_with_import();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.func_type(0).unwrap().params, vec![ValType::I32]);
        assert_eq!(m.func_type(1).unwrap().results, vec![ValType::I64]);
        assert_eq!(m.func_type(2), None);
    }

    #[test]
    fn export_lookup() {
        let m = module_with_import();
        assert_eq!(m.exported_func("get"), Some(1));
        assert_eq!(m.exported_func("nope"), None);
    }

    #[test]
    fn memo_caches_and_compares_equal() {
        let cell = Memo::new();
        let mut runs = 0;
        for _ in 0..2 {
            assert_eq!(
                *cell.get_or_init(|| {
                    runs += 1;
                    vec![7u8]
                }),
                [7]
            );
        }
        assert_eq!(runs, 1, "computed once, then cached");
        // A clone carries the value along; set or not, cells compare equal.
        let copy = cell.clone();
        assert_eq!(*copy.get_or_init(|| unreachable!("cloned when set")), [7]);
        assert_eq!(Memo::new(), cell);
        assert_eq!(
            format!("{:?} {cell:?}", Memo::<u8>::new()),
            "Memo(pending) Memo(computed)"
        );
    }

    #[test]
    fn release_frees_the_proof_inputs_and_keeps_the_verdict() {
        let wasm = crate::wat::assemble(
            r#"(module (func (export "f") (param i32) (result i32)
                 local.get 0  if (result i32)  i32.const 1  else  i32.const 2  end))"#,
        )
        .unwrap();
        let mut m = crate::load_module(&wasm).unwrap();
        m.release_proof_inputs();
        let body = &m.funcs[0];
        assert_eq!(format!("{:?}", body.compiled), "Memo(pending)");
        let rf = m.reg_func(0);
        assert!(rf.pc_map.is_empty() && !rf.ops.is_empty());
        // The proof ran before anything was freed, and stays memoised;
        // a tool that asks for the flat IR again gets it recompiled.
        let fuel = m.analysis().expect("proven").func(0).fuel;
        assert!(fuel.finite().is_some());
        assert!(!m.compiled_func(0).ops.is_empty());
        let mut inst = crate::Instance::new(m.into(), &crate::Linker::<()>::new(), ()).unwrap();
        assert_eq!(
            inst.invoke("f", &[crate::Value::I32(0)]),
            Ok(Some(crate::Value::I32(2)))
        );
    }

    #[test]
    fn const_expr_types() {
        assert_eq!(ConstExpr::I32(0).ty(), ValType::I32);
        assert_eq!(ConstExpr::F64(0.0).ty(), ValType::F64);
    }
}
