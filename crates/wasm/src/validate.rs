//! Module validation: the WebAssembly type system's verdicts, and its
//! module-level checks.
//!
//! Validation is the security gate of the plugin host: only a validated
//! module has code to instantiate, so the executor may assume well-typed
//! code and bounds errors can only be *dynamic* (memory, table, fuel),
//! never structural. [`crate::load_module`] runs it in two steps. This
//! module holds the first: the declarations — types, imports, limits,
//! globals, functions, exports, start and segments. Each function body is
//! then type-checked by the walk that lowers it (`compile.rs`, inside the
//! load-time pass of [`crate::analysis`]): one walk, one control stack,
//! and a body error is the same [`ValidateError`] at its function and
//! instruction.

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
    /// Block structure that does not close: an `end` or any instruction
    /// after the function's final `end`, or a body that ends with a frame
    /// still open (reported at `pc = body.len()`).
    ControlUnderflow,
    /// An `else` that does not close an un-elsed `if`: one in a `block`,
    /// a `loop` or the function frame, or an `if`'s second `else`.
    ElseWithoutIf,
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

/// The module-level checks of a decoded module; its bodies are checked as
/// they are lowered.
pub(crate) fn validate(module: &Module) -> Result<(), ValidateError> {
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

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType::{F64, I32, I64};

    /// The whole load-time check: the module's declarations, then each
    /// body's walk.
    fn check(module: &Module) -> Result<(), ValidateError> {
        validate(module)?;
        crate::analysis::lower_and_prove(module).map(drop)
    }

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
        check(&module)
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
        let err = check(&module).unwrap_err();
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
        let err = check(&module).unwrap_err();
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
        let err = check(&module).unwrap_err();
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
        assert!(check(&module).is_err());
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
        let err = check(&module).unwrap_err();
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
        let err = check(&module).unwrap_err();
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
