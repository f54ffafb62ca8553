//! Module validation: the WebAssembly type system.
//!
//! Implements the stack-polymorphic validation algorithm from the spec
//! appendix — a value stack of possibly-unknown types plus a control-frame
//! stack — over the flat instruction representation. Validation is the
//! security gate of the plugin host: only validated modules can be
//! instantiated, so the interpreter may assume well-typed code and bounds
//! errors can only be *dynamic* (memory, table, fuel), never structural.

use crate::instr::{Instr, OpRow};
use crate::module::*;
use crate::types::*;

/// Validation error: which function (if any) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Index of the function being validated, if the error is inside a body.
    pub func: Option<u32>,
    /// Instruction index within the body, if applicable.
    pub pc: Option<usize>,
    /// The failure.
    pub kind: ValidateErrorKind,
}

/// Specific validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateErrorKind {
    /// Type index out of range.
    BadTypeIndex(u32),
    /// Function index out of range.
    BadFuncIndex(u32),
    /// Local index out of range.
    BadLocalIndex(u32),
    /// Global index out of range.
    BadGlobalIndex(u32),
    /// Write to an immutable global.
    ImmutableGlobal(u32),
    /// Branch depth exceeds the label stack.
    BadLabelDepth(u32),
    /// Memory instruction but the module declares no memory.
    NoMemory,
    /// Table instruction but the module declares no table.
    NoTable,
    /// Alignment immediate larger than the access width.
    BadAlignment { align: u32, natural: u32 },
    /// Value stack underflow.
    StackUnderflow,
    /// Type mismatch: expected vs found.
    TypeMismatch {
        expected: ValType,
        found: Option<ValType>,
    },
    /// Values left on the stack at the end of a block.
    StackHeightMismatch { expected: usize, found: usize },
    /// `else`/`end` with no matching frame (should be caught by fixup, but
    /// revalidated for defense in depth).
    ControlUnderflow,
    /// Function results do not allow more than one value (MVP).
    MultiValue,
    /// Limits with min > max, or memory limits over the 4 GiB ceiling.
    BadLimits,
    /// `br_table` targets disagree on label types.
    BrTableArityMismatch,
    /// Export refers to a missing entity.
    BadExport(String),
    /// Duplicate export name.
    DuplicateExport(String),
    /// Start function has a non-trivial signature or bad index.
    BadStart,
    /// Element segment refers to a missing function.
    BadElemFunc(u32),
    /// Segment offset expression must be i32.
    BadSegmentOffset,
    /// Global initializer type mismatch.
    BadGlobalInit,
    /// `if` with a result type but no `else` arm (the false path would
    /// produce no value).
    IfMissingElse,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(func) = self.func {
            write!(f, "in function {func}")?;
            if let Some(pc) = self.pc {
                write!(f, " at instruction {pc}")?;
            }
            write!(f, ": ")?;
        }
        write!(f, "{:?}", self.kind)
    }
}

impl std::error::Error for ValidateError {}

/// Validate a decoded module.
pub fn validate(module: &Module) -> Result<(), ValidateError> {
    let err = |kind| ValidateError {
        func: None,
        pc: None,
        kind,
    };

    // Types: MVP restricts results to at most one value.
    for ty in &module.types {
        if ty.results.len() > 1 {
            return Err(err(ValidateErrorKind::MultiValue));
        }
    }

    // Imports reference valid types.
    for imp in &module.imports {
        let ImportKind::Func { type_idx } = imp.kind;
        if type_idx as usize >= module.types.len() {
            return Err(err(ValidateErrorKind::BadTypeIndex(type_idx)));
        }
    }

    // Limits.
    if let Some(limits) = module.memory {
        if !limits.well_formed()
            || limits.min > MAX_PAGES
            || limits.max.is_some_and(|m| m > MAX_PAGES)
        {
            return Err(err(ValidateErrorKind::BadLimits));
        }
    }
    if let Some(limits) = module.table {
        if !limits.well_formed() {
            return Err(err(ValidateErrorKind::BadLimits));
        }
    }

    // Globals: initializer type must match the declared type.
    for g in &module.globals {
        if g.init.ty() != g.ty.ty {
            return Err(err(ValidateErrorKind::BadGlobalInit));
        }
    }

    // Functions reference valid types.
    for f in &module.funcs {
        if f.type_idx as usize >= module.types.len() {
            return Err(err(ValidateErrorKind::BadTypeIndex(f.type_idx)));
        }
    }

    // Exports: valid indices, unique names.
    let mut names = std::collections::HashSet::new();
    for e in &module.exports {
        if !names.insert(e.name.as_str()) {
            return Err(err(ValidateErrorKind::DuplicateExport(e.name.clone())));
        }
        match e.kind {
            ExportKind::Func(idx) => {
                if idx >= module.num_funcs() {
                    return Err(err(ValidateErrorKind::BadExport(e.name.clone())));
                }
            }
            ExportKind::Global(idx) => {
                if idx as usize >= module.globals.len() {
                    return Err(err(ValidateErrorKind::BadExport(e.name.clone())));
                }
            }
            ExportKind::Memory => {
                if module.memory.is_none() {
                    return Err(err(ValidateErrorKind::BadExport(e.name.clone())));
                }
            }
            ExportKind::Table => {
                if module.table.is_none() {
                    return Err(err(ValidateErrorKind::BadExport(e.name.clone())));
                }
            }
        }
    }

    // Start function: () -> ().
    if let Some(start) = module.start {
        match module.func_type(start) {
            Some(ty) if ty.params.is_empty() && ty.results.is_empty() => {}
            _ => return Err(err(ValidateErrorKind::BadStart)),
        }
    }

    // Element segments.
    for seg in &module.elems {
        if module.table.is_none() {
            return Err(err(ValidateErrorKind::NoTable));
        }
        if seg.offset.ty() != ValType::I32 {
            return Err(err(ValidateErrorKind::BadSegmentOffset));
        }
        for &f in &seg.funcs {
            if f >= module.num_funcs() {
                return Err(err(ValidateErrorKind::BadElemFunc(f)));
            }
        }
    }

    // Data segments.
    for seg in &module.data {
        if module.memory.is_none() {
            return Err(err(ValidateErrorKind::NoMemory));
        }
        if seg.offset.ty() != ValType::I32 {
            return Err(err(ValidateErrorKind::BadSegmentOffset));
        }
    }

    // Function bodies.
    let n_imports = module.num_imported_funcs();
    for (i, body) in module.funcs.iter().enumerate() {
        let func_idx = n_imports + i as u32;
        let ty = &module.types[body.type_idx as usize];
        FuncValidator::new(module, func_idx, ty, body).run()?;
    }

    Ok(())
}

/// A control frame on the validator's frame stack.
struct CtrlFrame {
    /// True for `loop` (branches target the start, so label types are the
    /// frame's *start* types — empty in the MVP).
    is_loop: bool,
    /// True for an `if` frame that has not (yet) seen its `else`.
    is_bare_if: bool,
    /// Result types of the frame.
    end_types: Option<ValType>,
    /// Value-stack height at frame entry.
    height: usize,
    /// Set once code in this frame became unreachable.
    unreachable: bool,
}

struct FuncValidator<'m> {
    module: &'m Module,
    func_idx: u32,
    locals: Vec<ValType>,
    results: Option<ValType>,
    body: &'m FuncBody,
    // None = unknown type (from unreachable code).
    vals: Vec<Option<ValType>>,
    ctrls: Vec<CtrlFrame>,
    pc: usize,
}

impl<'m> FuncValidator<'m> {
    fn new(module: &'m Module, func_idx: u32, ty: &'m FuncType, body: &'m FuncBody) -> Self {
        let mut locals = ty.params.clone();
        locals.extend_from_slice(&body.locals);
        FuncValidator {
            module,
            func_idx,
            locals,
            results: ty.results.first().copied(),
            body,
            vals: Vec::new(),
            ctrls: Vec::new(),
            pc: 0,
        }
    }

    fn err(&self, kind: ValidateErrorKind) -> ValidateError {
        ValidateError {
            func: Some(self.func_idx),
            pc: Some(self.pc),
            kind,
        }
    }

    fn push(&mut self, ty: ValType) {
        self.vals.push(Some(ty));
    }

    fn push_unknown(&mut self) {
        self.vals.push(None);
    }

    fn pop_any(&mut self) -> Result<Option<ValType>, ValidateError> {
        let frame = self
            .ctrls
            .last()
            .expect("frame stack never empty during body");
        if self.vals.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.err(ValidateErrorKind::StackUnderflow));
        }
        Ok(self.vals.pop().expect("checked non-empty"))
    }

    fn pop_expect(&mut self, expected: ValType) -> Result<(), ValidateError> {
        match self.pop_any()? {
            None => Ok(()),
            Some(t) if t == expected => Ok(()),
            Some(t) => Err(self.err(ValidateErrorKind::TypeMismatch {
                expected,
                found: Some(t),
            })),
        }
    }

    fn push_ctrl(&mut self, is_loop: bool, end_types: Option<ValType>) {
        self.push_ctrl_full(is_loop, false, end_types);
    }

    fn push_ctrl_full(&mut self, is_loop: bool, is_bare_if: bool, end_types: Option<ValType>) {
        self.ctrls.push(CtrlFrame {
            is_loop,
            is_bare_if,
            end_types,
            height: self.vals.len(),
            unreachable: false,
        });
    }

    fn pop_ctrl(&mut self) -> Result<CtrlFrame, ValidateError> {
        let frame = self
            .ctrls
            .last()
            .ok_or_else(|| self.err(ValidateErrorKind::ControlUnderflow))?;
        let height = frame.height;
        let end = frame.end_types;
        if let Some(t) = end {
            self.pop_expect(t)?;
        }
        if self.vals.len() != height {
            let found = self.vals.len();
            return Err(self.err(ValidateErrorKind::StackHeightMismatch {
                expected: height,
                found,
            }));
        }
        Ok(self.ctrls.pop().expect("checked non-empty"))
    }

    fn set_unreachable(&mut self) {
        let frame = self.ctrls.last_mut().expect("frame stack never empty");
        self.vals.truncate(frame.height);
        frame.unreachable = true;
    }

    /// Types carried by a branch to the label `depth` levels up.
    fn label_types(&self, depth: u32) -> Result<Option<ValType>, ValidateError> {
        let idx = self
            .ctrls
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(ValidateErrorKind::BadLabelDepth(depth)))?;
        let frame = &self.ctrls[idx];
        Ok(if frame.is_loop { None } else { frame.end_types })
    }

    fn check_mem(&self) -> Result<(), ValidateError> {
        if self.module.memory.is_none() {
            return Err(self.err(ValidateErrorKind::NoMemory));
        }
        Ok(())
    }

    fn check_align(&self, align: u32, width_bytes: u32) -> Result<(), ValidateError> {
        let natural = width_bytes.trailing_zeros();
        if align > natural {
            return Err(self.err(ValidateErrorKind::BadAlignment { align, natural }));
        }
        Ok(())
    }

    fn local_ty(&self, idx: u32) -> Result<ValType, ValidateError> {
        self.locals
            .get(idx as usize)
            .copied()
            .ok_or_else(|| self.err(ValidateErrorKind::BadLocalIndex(idx)))
    }

    fn global_ty(&self, idx: u32) -> Result<GlobalType, ValidateError> {
        self.module
            .globals
            .get(idx as usize)
            .map(|g| g.ty)
            .ok_or_else(|| self.err(ValidateErrorKind::BadGlobalIndex(idx)))
    }

    /// A plain operator, typed by its row of the operator table: a memory
    /// row needs the memory and an alignment of at most its width.
    fn plain(&mut self, row: &OpRow, align: u32) -> Result<(), ValidateError> {
        if let Some(width) = row.width {
            self.check_mem()?;
            self.check_align(align, width)?;
        }
        for &ty in row.params.iter().rev() {
            self.pop_expect(ty)?;
        }
        if let Some(ty) = row.result {
            self.push(ty);
        }
        Ok(())
    }

    fn run(mut self) -> Result<(), ValidateError> {
        // The function-level frame.
        self.push_ctrl(false, self.results);

        use Instr::*;
        use ValType::*;
        let code = &self.body.code;
        while self.pc < code.len() {
            let instr = &code[self.pc];
            match instr {
                Unreachable => self.set_unreachable(),
                Nop => {}
                Block { ty, .. } => {
                    self.push_ctrl(false, ty.result());
                }
                Loop { ty } => {
                    self.push_ctrl(true, ty.result());
                }
                If { ty, .. } => {
                    self.pop_expect(I32)?;
                    self.push_ctrl_full(false, true, ty.result());
                }
                Else { .. } => {
                    let frame = self.pop_ctrl()?;
                    // Re-open a frame for the else arm with the same results.
                    self.push_ctrl(false, frame.end_types);
                }
                End => {
                    let frame = self.pop_ctrl()?;
                    if frame.is_bare_if && frame.end_types.is_some() {
                        // The false path would yield no value.
                        return Err(self.err(ValidateErrorKind::IfMissingElse));
                    }
                    if let Some(t) = frame.end_types {
                        self.push(t);
                    }
                }
                Br { depth } => {
                    if let Some(t) = self.label_types(*depth)? {
                        self.pop_expect(t)?;
                    }
                    self.set_unreachable();
                }
                BrIf { depth } => {
                    self.pop_expect(I32)?;
                    if let Some(t) = self.label_types(*depth)? {
                        self.pop_expect(t)?;
                        self.push(t);
                    }
                }
                BrTable { targets, default } => {
                    self.pop_expect(I32)?;
                    let default_tys = self.label_types(*default)?;
                    for t in targets.iter() {
                        if self.label_types(*t)? != default_tys {
                            return Err(self.err(ValidateErrorKind::BrTableArityMismatch));
                        }
                    }
                    if let Some(t) = default_tys {
                        self.pop_expect(t)?;
                    }
                    self.set_unreachable();
                }
                Return => {
                    if let Some(t) = self.results {
                        self.pop_expect(t)?;
                    }
                    self.set_unreachable();
                }
                Call { func } => {
                    let ty = self
                        .module
                        .func_type(*func)
                        .ok_or_else(|| self.err(ValidateErrorKind::BadFuncIndex(*func)))?
                        .clone();
                    for p in ty.params.iter().rev() {
                        self.pop_expect(*p)?;
                    }
                    if let Some(r) = ty.results.first() {
                        self.push(*r);
                    }
                }
                CallIndirect { type_idx } => {
                    if self.module.table.is_none() {
                        return Err(self.err(ValidateErrorKind::NoTable));
                    }
                    let ty = self
                        .module
                        .types
                        .get(*type_idx as usize)
                        .ok_or_else(|| self.err(ValidateErrorKind::BadTypeIndex(*type_idx)))?
                        .clone();
                    self.pop_expect(I32)?;
                    for p in ty.params.iter().rev() {
                        self.pop_expect(*p)?;
                    }
                    if let Some(r) = ty.results.first() {
                        self.push(*r);
                    }
                }
                Drop => {
                    self.pop_any()?;
                }
                Select => {
                    self.pop_expect(I32)?;
                    let a = self.pop_any()?;
                    let b = self.pop_any()?;
                    match (a, b) {
                        (Some(ta), Some(tb)) if ta == tb => self.push(ta),
                        (Some(t), None) | (None, Some(t)) => self.push(t),
                        (None, None) => self.push_unknown(),
                        (Some(ta), Some(_tb)) => {
                            return Err(self.err(ValidateErrorKind::TypeMismatch {
                                expected: ta,
                                found: b,
                            }))
                        }
                    }
                }
                LocalGet(idx) => {
                    let t = self.local_ty(*idx)?;
                    self.push(t);
                }
                LocalSet(idx) => {
                    let t = self.local_ty(*idx)?;
                    self.pop_expect(t)?;
                }
                LocalTee(idx) => {
                    let t = self.local_ty(*idx)?;
                    self.pop_expect(t)?;
                    self.push(t);
                }
                GlobalGet(idx) => {
                    let g = self.global_ty(*idx)?;
                    self.push(g.ty);
                }
                GlobalSet(idx) => {
                    let g = self.global_ty(*idx)?;
                    if g.mutability != Mutability::Var {
                        return Err(self.err(ValidateErrorKind::ImmutableGlobal(*idx)));
                    }
                    self.pop_expect(g.ty)?;
                }
                I32Bin(op) => self.plain(op.row(), 0)?,
                I64Bin(op) => self.plain(op.row(), 0)?,
                Bin(op) => self.plain(op.row(), 0)?,
                Un(op) => self.plain(op.row(), 0)?,
                Load(kind, m) => self.plain(kind.row(), m.align)?,
                Store(kind, m) => self.plain(kind.row(), m.align)?,
                MemorySize => {
                    self.check_mem()?;
                    self.push(I32);
                }
                MemoryGrow => {
                    self.check_mem()?;
                    self.pop_expect(I32)?;
                    self.push(I32);
                }
                MemoryCopy | MemoryFill => {
                    self.check_mem()?;
                    self.pop_expect(I32)?;
                    self.pop_expect(I32)?;
                    self.pop_expect(I32)?;
                }
                I32Const(_) => self.push(I32),
                I64Const(_) => self.push(I64),
                F32Const(_) => self.push(F32),
                F64Const(_) => self.push(F64),
            }
            self.pc += 1;
        }

        if !self.ctrls.is_empty() {
            // The final `End` should have popped the function frame; if the
            // body was well-formed (fixup passed) this cannot happen.
            return Err(self.err(ValidateErrorKind::ControlUnderflow));
        }
        // The function frame's pop checked the result type and final height.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType::{F64, I32, I64};

    fn validate_body(
        params: &[ValType],
        results: &[ValType],
        build: impl FnOnce(&mut ModuleBuilder),
    ) -> Result<(), ValidateError> {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(2));
        let sig = mb.func_type(params, results);
        mb.begin_func(sig);
        build(&mut mb);
        mb.end_func().expect("structure ok");
        let module = mb.finish().expect("module builds");
        validate(&module)
    }

    #[test]
    fn accepts_add() {
        validate_body(&[I32, I32], &[I32], |mb| {
            mb.code().local_get(0).local_get(1).i32_add();
        })
        .unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = validate_body(&[I32], &[I32], |mb| {
            mb.code().local_get(0).f64_const(1.0).i32_add();
        })
        .unwrap_err();
        assert!(matches!(
            err.kind,
            ValidateErrorKind::TypeMismatch { expected: I32, .. }
        ));
    }

    #[test]
    fn rejects_stack_underflow() {
        let err = validate_body(&[], &[I32], |mb| {
            mb.code().i32_add();
        })
        .unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::StackUnderflow);
    }

    #[test]
    fn rejects_missing_result() {
        let err = validate_body(&[], &[I32], |mb| {
            mb.code().nop();
        })
        .unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::StackUnderflow);
    }

    #[test]
    fn rejects_excess_values() {
        let err = validate_body(&[], &[], |mb| {
            mb.code().i32_const(1);
        })
        .unwrap_err();
        assert!(matches!(
            err.kind,
            ValidateErrorKind::StackHeightMismatch { .. }
        ));
    }

    #[test]
    fn accepts_unreachable_polymorphism() {
        // After `unreachable` anything type-checks, including popping values
        // that were never pushed.
        validate_body(&[], &[I32], |mb| {
            mb.code().unreachable().i32_add();
        })
        .unwrap();
    }

    #[test]
    fn accepts_br_in_block_with_result() {
        validate_body(&[], &[I32], |mb| {
            mb.code()
                .block(BlockType::Value(I32))
                .i32_const(7)
                .br(0)
                .end();
        })
        .unwrap();
    }

    #[test]
    fn rejects_bad_label_depth() {
        let err = validate_body(&[], &[], |mb| {
            mb.code().block(BlockType::Empty).br(5).end();
        })
        .unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::BadLabelDepth(5));
    }

    #[test]
    fn loop_branch_carries_no_values() {
        // Branching to a loop label targets its start: no values expected
        // even when the loop has a result type.
        validate_body(&[I32], &[I32], |mb| {
            mb.code()
                .loop_(BlockType::Value(I32))
                .local_get(0)
                .i32_eqz()
                .br_if(0)
                .i32_const(3)
                .end();
        })
        .unwrap();
    }

    #[test]
    fn rejects_write_to_immutable_global() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global(I32, Mutability::Const, ConstExpr::I32(1));
        let sig = mb.func_type(&[], &[]);
        mb.begin_func(sig);
        mb.code().i32_const(2).global_set(g);
        mb.end_func().unwrap();
        let module = mb.finish().unwrap();
        let err = validate(&module).unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::ImmutableGlobal(0));
    }

    #[test]
    fn rejects_memory_op_without_memory() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[I32]);
        mb.begin_func(sig);
        mb.code().i32_const(0).i32_load(0);
        mb.end_func().unwrap();
        let module = mb.finish().unwrap();
        let err = validate(&module).unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::NoMemory);
    }

    #[test]
    fn rejects_overaligned_access() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, None);
        let sig = mb.func_type(&[], &[I32]);
        mb.begin_func(sig);
        mb.code().i32_const(0).raw(crate::instr::Instr::Load(
            crate::instr::LoadKind::I32,
            crate::instr::MemArg {
                align: 3, // 2^3 = 8 > 4-byte access
                offset: 0,
            },
        ));
        mb.end_func().unwrap();
        let module = mb.finish().unwrap();
        let err = validate(&module).unwrap_err();
        assert!(matches!(
            err.kind,
            ValidateErrorKind::BadAlignment {
                align: 3,
                natural: 2
            }
        ));
    }

    #[test]
    fn rejects_bad_call_index() {
        let err = validate_body(&[], &[], |mb| {
            mb.code().call(99);
        })
        .unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::BadFuncIndex(99));
    }

    #[test]
    fn rejects_call_indirect_without_table() {
        let err = validate_body(&[], &[], |mb| {
            mb.code().i32_const(0).call_indirect(0);
        })
        .unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::NoTable);
    }

    #[test]
    fn validates_call_arguments() {
        let mut mb = ModuleBuilder::new();
        let callee_sig = mb.func_type(&[I64, F64], &[I64]);
        let caller_sig = mb.func_type(&[], &[I64]);
        let callee = mb.begin_func(callee_sig);
        mb.code().local_get(0);
        mb.end_func().unwrap();
        mb.begin_func(caller_sig);
        // Wrong argument order: f64 then i64.
        mb.code().f64_const(1.0).i64_const(2).call(callee);
        mb.end_func().unwrap();
        let module = mb.finish().unwrap();
        assert!(validate(&module).is_err());
    }

    #[test]
    fn if_else_arms_must_agree() {
        let err = validate_body(&[I32], &[I32], |mb| {
            mb.code()
                .local_get(0)
                .if_(BlockType::Value(I32))
                .i32_const(1)
                .else_()
                .f64_const(2.0) // wrong type in else arm
                .end();
        })
        .unwrap_err();
        assert!(matches!(
            err.kind,
            ValidateErrorKind::TypeMismatch { expected: I32, .. }
        ));
    }

    #[test]
    fn select_requires_matching_types() {
        let err = validate_body(&[], &[I32], |mb| {
            mb.code().i32_const(1).i64_const(2).i32_const(0).select();
        })
        .unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_export_rejected() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[], &[]);
        let f = mb.begin_func(sig);
        mb.end_func().unwrap();
        mb.export_func("x", f);
        mb.export_func("x", f);
        let module = mb.finish().unwrap();
        let err = validate(&module).unwrap_err();
        assert!(matches!(err.kind, ValidateErrorKind::DuplicateExport(_)));
    }

    #[test]
    fn start_must_be_nullary() {
        let mut mb = ModuleBuilder::new();
        let sig = mb.func_type(&[I32], &[]);
        let f = mb.begin_func(sig);
        mb.code().local_get(0).drop();
        mb.end_func().unwrap();
        mb.start(f);
        let module = mb.finish().unwrap();
        let err = validate(&module).unwrap_err();
        assert_eq!(err.kind, ValidateErrorKind::BadStart);
    }

    #[test]
    fn br_table_checked() {
        validate_body(&[I32], &[], |mb| {
            mb.code()
                .block(BlockType::Empty)
                .block(BlockType::Empty)
                .local_get(0)
                .br_table(&[0, 1], 0)
                .end()
                .end();
        })
        .unwrap();
    }
}
