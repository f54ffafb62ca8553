//! The decoded, immutable module representation shared by the validator and
//! the interpreter.

use std::sync::{Arc, OnceLock};

use crate::analysis::{lower_and_prove, mismatch, AnalysisError, Lowered, ModuleAnalysis};
use crate::instr::Instr;
use crate::regalloc::RegFunc;
use crate::types::{FuncType, GlobalType, Limits, ValType};
use crate::validate::{validate, ValidateError};

/// A pure function of the module it lives on, computed once: the lowered
/// and proven code, which [`crate::load_module`] derives before it returns
/// the module (and a module built in memory on first use). Wraps
/// `OnceLock` so [`Module`] keeps its derived `Clone`/`PartialEq`/`Debug`
/// — a clone carries a computed value along, and the cache never affects
/// equality.
pub(crate) struct Memo<T>(OnceLock<T>);

impl<T> Memo<T> {
    /// Empty (not-yet-computed) cell.
    pub(crate) const fn new() -> Self {
        Memo(OnceLock::new())
    }

    /// The cached value, computing it with `f` on first use.
    pub(crate) fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(f)
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
    /// Flat instruction sequence, as the binary spells it: a well-formed
    /// body ends with the function-level `End`, which the type-checking
    /// walk checks along with the rest of the nesting.
    pub code: Vec<Instr>,
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
    /// The register code every instance runs and the report of the proof
    /// that checked it, derived once by `analysis::lower_and_prove`.
    pub(crate) lowered: Memo<Result<Lowered, AnalysisError>>,
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

    /// The module's static analysis report (translation validation and
    /// worst-case resource bounds), computed when [`crate::load_module`]
    /// type-checked and lowered the module. A module built in memory is
    /// checked and lowered on first use, and one that fails validation
    /// reports it here.
    pub fn analysis(&self) -> Result<&ModuleAnalysis, AnalysisError> {
        self.lowered().map(|l| &l.report)
    }

    /// The register code of every body, index-aligned with
    /// [`Module::funcs`]: what every instance of this module runs, and
    /// exactly what the proof checked.
    pub(crate) fn code(&self) -> Result<&Arc<[RegFunc]>, AnalysisError> {
        self.lowered().map(|l| &l.code)
    }

    fn lowered(&self) -> Result<&Lowered, AnalysisError> {
        self.lowered
            .get_or_init(|| {
                self.check().unwrap_or_else(|e| {
                    let func = e
                        .func
                        .map_or(0, |f| f.saturating_sub(self.num_imported_funcs()));
                    Err(mismatch(
                        func,
                        e.pc.unwrap_or(0),
                        format!("invalid module: {e}"),
                    ))
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Validate the module: its declarations, then each body in
    /// function-index order, type-checked by the walk that lowers it. On
    /// success, the lowering's proof verdict.
    pub(crate) fn check(&self) -> Result<Result<Lowered, AnalysisError>, ValidateError> {
        validate(self)?;
        lower_and_prove(self)
    }

    /// Lower and prove every body now ([`Self::analysis`]). A module from
    /// [`crate::load_module`] already is, so this returns at once; one
    /// built in memory is lowered here, so the first instantiation on a
    /// worker that shares it finds the code ready.
    pub fn precompile(&self) {
        let _ = self.analysis();
    }
}

// Concurrency audit: the sharded engine shares one validated `Module`
// across worker threads (one `Arc<Module>` per bytecode hash, one
// instance per worker) and moves `Instance`s into workers. Everything
// here is plain owned data; the only interior mutability is the
// `OnceLock` inside the module's one [`Memo`], which is thread-safe by
// construction. Workers only ever read the proven `RegFunc`s while
// executing; no op of the walk that lowered them is stored. These assertions make the property load-bearing: a field that
// breaks `Send`/`Sync` breaks the build, not the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Module>();
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
        m.funcs.push(FuncBody {
            type_idx: 1,
            locals: vec![],
            code: vec![Instr::I64Const(7), Instr::End],
        });
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
    fn a_module_that_fails_its_proof_has_no_instance() {
        // Decoded, not loaded: the cell is still empty for the failure.
        let wasm = waran_wat::assemble(r#"(module (func (export "f")))"#).unwrap();
        let m = crate::decode::decode_module(&wasm).unwrap();
        let failed = crate::analysis::mismatch(0, 0, "injected");
        m.lowered.get_or_init(|| Err(failed.clone()));
        assert_eq!(m.analysis(), Err(failed.clone()));
        assert_eq!(crate::disasm::disassemble_reg(&m), "");
        let m = std::sync::Arc::new(m);
        let linker = crate::Linker::<()>::new();
        let cap = crate::types::MAX_PAGES;
        let want = crate::instance::InstantiateError::Analysis(failed);
        let cold = crate::Instance::with_page_cap(m.clone(), &linker, (), cap);
        assert_eq!(cold.unwrap_err(), want);
        let pre = crate::InstancePre::new(m, &linker, cap);
        assert_eq!(pre.unwrap_err(), want);
    }

    #[test]
    fn an_ill_typed_module_built_in_memory_has_no_instance() {
        let mut mb = crate::builder::ModuleBuilder::new();
        let sig = mb.func_type(&[], &[ValType::I32]);
        let f = mb.begin_func(sig);
        mb.code().i64_const(1);
        mb.end_func().unwrap();
        mb.export_func("f", f);
        let m = mb.finish().unwrap();
        let err = m.analysis().unwrap_err();
        assert!(err.to_string().contains("TypeMismatch"), "{err}");
        let linker = crate::Linker::<()>::new();
        let cold = crate::Instance::new(std::sync::Arc::new(m), &linker, ());
        assert_eq!(
            cold.unwrap_err(),
            crate::instance::InstantiateError::Analysis(err)
        );
    }

    #[test]
    fn const_expr_types() {
        assert_eq!(ConstExpr::I32(0).ty(), ValType::I32);
        assert_eq!(ConstExpr::F64(0.0).ty(), ValType::F64);
    }
}
