//! Programmatic module construction.
//!
//! [`ModuleBuilder`] is how WA-RAN synthesizes plugins in-process: the PlugC
//! compiler and the standard plugin library both target it, and its output
//! is a standard `.wasm` binary (via [`crate::encode`]) that any conformant
//! runtime can load.
//!
//! ```
//! use waran_wasm::builder::ModuleBuilder;
//! use waran_wasm::types::ValType::I32;
//!
//! let mut mb = ModuleBuilder::new();
//! let sig = mb.func_type(&[I32, I32], &[I32]);
//! let f = mb.begin_func(sig);
//! mb.code().local_get(0).local_get(1).i32_add();
//! mb.end_func().unwrap();
//! mb.export_func("add", f);
//! let bytes = mb.finish_bytes().unwrap();
//! assert!(waran_wasm::load_module(&bytes).is_ok());
//! ```

use crate::instr::Instr;
use crate::module::*;
use crate::types::{BlockType, FuncType, GlobalType, Limits, Mutability, ValType};

/// Builder error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `end_func` called with no function in progress, or `finish` with one
    /// still open.
    FunctionState,
    /// Imports must be declared before any function is defined (the binary
    /// format numbers imported functions first).
    ImportAfterFunc,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::FunctionState => write!(f, "mismatched begin_func/end_func"),
            BuildError::ImportAfterFunc => {
                write!(f, "imports must be declared before defining functions")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incrementally builds a [`Module`].
#[derive(Default)]
pub struct ModuleBuilder {
    module: Module,
    current: Option<FuncInProgress>,
}

struct FuncInProgress {
    type_idx: u32,
    locals: Vec<ValType>,
    code: CodeEmitter,
}

impl ModuleBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a function type, returning its type index (deduplicated).
    pub fn func_type(&mut self, params: &[ValType], results: &[ValType]) -> u32 {
        let ft = FuncType::new(params, results);
        if let Some(pos) = self.module.types.iter().position(|t| *t == ft) {
            return pos as u32;
        }
        self.module.types.push(ft);
        (self.module.types.len() - 1) as u32
    }

    /// Import a host function. Returns its function index. Must precede all
    /// `begin_func` calls.
    pub fn import_func(
        &mut self,
        module: &str,
        name: &str,
        type_idx: u32,
    ) -> Result<u32, BuildError> {
        if !self.module.funcs.is_empty() || self.current.is_some() {
            return Err(BuildError::ImportAfterFunc);
        }
        self.module.imports.push(Import {
            module: module.to_string(),
            name: name.to_string(),
            kind: ImportKind::Func { type_idx },
        });
        Ok(self.module.num_imported_funcs() - 1)
    }

    /// Begin a new function of the given type. Returns its (module-wide)
    /// function index. Emit code via [`Self::code`], then call
    /// [`Self::end_func`].
    pub fn begin_func(&mut self, type_idx: u32) -> u32 {
        let idx = self.module.num_imported_funcs() + self.module.funcs.len() as u32;
        self.current = Some(FuncInProgress {
            type_idx,
            locals: Vec::new(),
            code: CodeEmitter::default(),
        });
        idx
    }

    /// Declare a local in the current function; returns its local index
    /// (parameters occupy the first indices).
    ///
    /// # Panics
    /// Panics if no function is in progress — that is a programming error in
    /// the embedder, not a data-dependent condition.
    pub fn local(&mut self, ty: ValType) -> u32 {
        let cur = self
            .current
            .as_mut()
            .expect("local() outside begin_func/end_func");
        let n_params = self.module.types[cur.type_idx as usize].params.len() as u32;
        cur.locals.push(ty);
        n_params + cur.locals.len() as u32 - 1
    }

    /// The instruction emitter for the current function.
    ///
    /// # Panics
    /// Panics if no function is in progress.
    pub fn code(&mut self) -> &mut CodeEmitter {
        &mut self
            .current
            .as_mut()
            .expect("code() outside begin_func/end_func")
            .code
    }

    /// Finish the current function: appends the function-level `End` and
    /// adds the body to the module. Nesting is checked when the module is
    /// loaded (or first used), with the rest of the type check.
    pub fn end_func(&mut self) -> Result<(), BuildError> {
        let mut cur = self.current.take().ok_or(BuildError::FunctionState)?;
        cur.code.instrs.push(Instr::End);
        self.module.funcs.push(FuncBody {
            type_idx: cur.type_idx,
            locals: cur.locals,
            code: cur.code.instrs,
        });
        Ok(())
    }

    /// Declare the (single) linear memory.
    pub fn memory(&mut self, min_pages: u32, max_pages: Option<u32>) {
        self.module.memory = Some(Limits::new(min_pages, max_pages));
    }

    /// Declare the (single) funcref table.
    pub fn table(&mut self, min: u32, max: Option<u32>) {
        self.module.table = Some(Limits::new(min, max));
    }

    /// Define a global; returns its index.
    pub fn global(&mut self, ty: ValType, mutability: Mutability, init: ConstExpr) -> u32 {
        self.module.globals.push(Global {
            ty: GlobalType { ty, mutability },
            init,
        });
        (self.module.globals.len() - 1) as u32
    }

    /// Export a function under `name`.
    pub fn export_func(&mut self, name: &str, func_idx: u32) {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExportKind::Func(func_idx),
        });
    }

    /// Export the memory under `name`.
    pub fn export_memory(&mut self, name: &str) {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExportKind::Memory,
        });
    }

    /// Export a global under `name`.
    pub fn export_global(&mut self, name: &str, global_idx: u32) {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExportKind::Global(global_idx),
        });
    }

    /// Set the start function.
    pub fn start(&mut self, func_idx: u32) {
        self.module.start = Some(func_idx);
    }

    /// Add an active data segment.
    pub fn data(&mut self, offset: i32, bytes: &[u8]) {
        self.module.data.push(DataSegment {
            offset: ConstExpr::I32(offset),
            bytes: bytes.to_vec(),
        });
    }

    /// Add an active element segment.
    pub fn elem(&mut self, offset: i32, funcs: &[u32]) {
        self.module.elems.push(ElemSegment {
            offset: ConstExpr::I32(offset),
            funcs: funcs.to_vec(),
        });
    }

    /// Produce the finished [`Module`].
    pub fn finish(self) -> Result<Module, BuildError> {
        if self.current.is_some() {
            return Err(BuildError::FunctionState);
        }
        Ok(self.module)
    }

    /// Produce the finished module as encoded `.wasm` bytes.
    pub fn finish_bytes(self) -> Result<Vec<u8>, BuildError> {
        Ok(crate::encode::encode_module(&self.finish()?))
    }
}

/// Emits instructions for one function body. Every method returns `&mut
/// Self` so call chains read like assembly listings.
#[derive(Default)]
pub struct CodeEmitter {
    instrs: Vec<Instr>,
}

macro_rules! emit_simple {
    ($( $(#[$doc:meta])* $name:ident => $variant:ident ),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self) -> &mut Self {
                self.instrs.push(Instr::$variant);
                self
            }
        )+
    };
}

impl CodeEmitter {
    /// Push a raw instruction.
    pub fn raw(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Begin a block.
    pub fn block(&mut self, ty: BlockType) -> &mut Self {
        self.instrs.push(Instr::Block { ty });
        self
    }

    /// Begin a loop.
    pub fn loop_(&mut self, ty: BlockType) -> &mut Self {
        self.instrs.push(Instr::Loop { ty });
        self
    }

    /// Begin an if.
    pub fn if_(&mut self, ty: BlockType) -> &mut Self {
        self.instrs.push(Instr::If { ty });
        self
    }

    /// Else arm.
    pub fn else_(&mut self) -> &mut Self {
        self.instrs.push(Instr::Else);
        self
    }

    /// Close the innermost block/loop/if.
    pub fn end(&mut self) -> &mut Self {
        self.instrs.push(Instr::End);
        self
    }

    /// Branch to the label `depth` levels up.
    pub fn br(&mut self, depth: u32) -> &mut Self {
        self.instrs.push(Instr::Br { depth });
        self
    }

    /// Conditional branch.
    pub fn br_if(&mut self, depth: u32) -> &mut Self {
        self.instrs.push(Instr::BrIf { depth });
        self
    }

    /// Indexed branch.
    pub fn br_table(&mut self, targets: &[u32], default: u32) -> &mut Self {
        self.instrs.push(Instr::BrTable {
            targets: targets.to_vec().into_boxed_slice(),
            default,
        });
        self
    }

    /// Call a function by index.
    pub fn call(&mut self, func: u32) -> &mut Self {
        self.instrs.push(Instr::Call { func });
        self
    }

    /// Indirect call with the given expected type.
    pub fn call_indirect(&mut self, type_idx: u32) -> &mut Self {
        self.instrs.push(Instr::CallIndirect { type_idx });
        self
    }

    /// Push a local.
    pub fn local_get(&mut self, idx: u32) -> &mut Self {
        self.instrs.push(Instr::LocalGet(idx));
        self
    }

    /// Pop into a local.
    pub fn local_set(&mut self, idx: u32) -> &mut Self {
        self.instrs.push(Instr::LocalSet(idx));
        self
    }

    /// Copy top of stack into a local.
    pub fn local_tee(&mut self, idx: u32) -> &mut Self {
        self.instrs.push(Instr::LocalTee(idx));
        self
    }

    /// Push a global.
    pub fn global_get(&mut self, idx: u32) -> &mut Self {
        self.instrs.push(Instr::GlobalGet(idx));
        self
    }

    /// Pop into a global.
    pub fn global_set(&mut self, idx: u32) -> &mut Self {
        self.instrs.push(Instr::GlobalSet(idx));
        self
    }

    /// Push an i32 constant.
    pub fn i32_const(&mut self, v: i32) -> &mut Self {
        self.instrs.push(Instr::I32Const(v));
        self
    }

    /// Push an i64 constant.
    pub fn i64_const(&mut self, v: i64) -> &mut Self {
        self.instrs.push(Instr::I64Const(v));
        self
    }

    /// Push an f32 constant.
    pub fn f32_const(&mut self, v: f32) -> &mut Self {
        self.instrs.push(Instr::F32Const(v));
        self
    }

    /// Push an f64 constant.
    pub fn f64_const(&mut self, v: f64) -> &mut Self {
        self.instrs.push(Instr::F64Const(v));
        self
    }

    emit_simple! {
        /// Trap unconditionally.
        unreachable => Unreachable,
        /// No-op.
        nop => Nop,
        /// Return from the function.
        return_ => Return,
        /// Drop the top operand.
        drop => Drop,
        /// Select by the top i32 condition.
        select => Select,
        /// Memory size in pages.
        memory_size => MemorySize,
        /// Grow memory.
        memory_grow => MemoryGrow,
        /// Copy within memory.
        memory_copy => MemoryCopy,
        /// Fill memory.
        memory_fill => MemoryFill,
    }

    // Every plain numeric and memory operator's method (`i32_add`,
    // `i64_load8_s`, …) is generated from the operator table in `ops`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValType::{F64, I32};

    #[test]
    fn build_add_function() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[I32, I32], &[I32]);
        let f = mb.begin_func(sig);
        mb.code().local_get(0).local_get(1).i32_add();
        mb.end_func().unwrap();
        mb.export_func("add", f);
        let module = mb.finish().unwrap();
        assert_eq!(module.funcs.len(), 1);
        assert_eq!(module.exported_func("add"), Some(0));
        crate::load_module(&crate::encode::encode_module(&module)).unwrap();
    }

    #[test]
    fn type_dedup() {
        let mut mb = ModuleBuilder::new();
        let a = mb.func_type(&[I32], &[F64]);
        let b = mb.func_type(&[I32], &[F64]);
        let c = mb.func_type(&[F64], &[I32]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn import_before_func_enforced() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[]);
        mb.begin_func(sig);
        mb.end_func().unwrap();
        assert_eq!(
            mb.import_func("env", "f", sig),
            Err(BuildError::ImportAfterFunc)
        );
    }

    #[test]
    fn import_indices_precede_local_funcs() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[]);
        let imp = mb.import_func("env", "f", sig).unwrap();
        let loc = mb.begin_func(sig);
        mb.end_func().unwrap();
        assert_eq!(imp, 0);
        assert_eq!(loc, 1);
    }

    #[test]
    fn locals_start_after_params() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[I32, I32], &[]);
        mb.begin_func(sig);
        let l0 = mb.local(F64);
        let l1 = mb.local(I32);
        assert_eq!(l0, 2);
        assert_eq!(l1, 3);
        mb.code().local_get(l0).drop().local_get(l1).drop();
        mb.end_func().unwrap();
        mb.finish().unwrap();
    }

    #[test]
    fn unbalanced_blocks_rejected() {
        use crate::validate::{ValidateError, ValidateErrorKind};
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[]);
        mb.begin_func(sig);
        mb.code().block(BlockType::Empty); // never closed
        mb.end_func().unwrap();
        // The builder records the body as written; loading refuses it
        // where the body ends with the function's frame still open.
        let err = crate::load_module(&mb.finish_bytes().unwrap()).unwrap_err();
        assert_eq!(
            err,
            crate::LoadError::Validate(ValidateError {
                func: Some(0),
                pc: Some(2),
                kind: ValidateErrorKind::ControlUnderflow,
            })
        );
    }

    #[test]
    fn finish_with_open_func_rejected() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[]);
        mb.begin_func(sig);
        assert_eq!(mb.finish().err(), Some(BuildError::FunctionState));
    }

    #[test]
    fn builder_roundtrips_through_binary() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(4));
        let sig = mb.func_type(&[I32], &[I32]);
        let f = mb.begin_func(sig);
        mb.code()
            .local_get(0)
            .i32_const(10)
            .i32_lt_s()
            .if_(BlockType::Value(I32))
            .i32_const(1)
            .else_()
            .i32_const(0)
            .end();
        mb.end_func().unwrap();
        mb.export_func("lt10", f);
        let bytes = mb.finish_bytes().unwrap();
        crate::load_module(&bytes).unwrap();
    }
}
