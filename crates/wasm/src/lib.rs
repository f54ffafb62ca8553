//! # waran-wasm — a from-scratch WebAssembly virtual machine
//!
//! This crate is the sandbox substrate of WA-RAN. It implements the
//! WebAssembly MVP (plus sign-extension, saturating float→int truncation and
//! the `memory.copy`/`memory.fill` subset of bulk-memory) end to end:
//!
//! * [`decode`] — binary-format (`.wasm`) decoder,
//! * [`encode`] / [`builder`] — binary-format encoder and an ergonomic
//!   [`builder::ModuleBuilder`] for constructing modules programmatically,
//! * [`validate`] — the full stack-polymorphic type checker,
//! * [`interp`] — the interpreter: value stack, call frames, sandboxed
//!   linear [`Memory`](interp::Memory) with hard bounds checks, tables,
//!   globals, traps, fuel metering and wall-clock deadlines,
//! * [`instance`] — instantiation, host-function linking and typed calls,
//! * [`compile`] / [`regalloc`] — the two lowerings behind the one
//!   production executor (`ExecMode::Reg`): validated bodies become a
//!   1:1 flat stack IR (side-table branches, block metering, inlining),
//!   which is lowered again into three-address code over a per-frame
//!   virtual register file — the one pass that fuses operands,
//!   write-backs, compare-and-branch and address chains — eliminating
//!   value-stack traffic from the hot loop. Only the register form is
//!   executed; [`analysis`] proves it equivalent to the flat IR at load.
//!   Both forms carry plain operators as the [`ops`] payload enums,
//! * [`wat`] — a WAT-subset text assembler for tests and examples,
//! * [`disasm`] — the inverse: render any decoded module as WAT-style
//!   text (the operator's pre-deployment inspection tool, §3.A).
//!
//! Design goals follow the paper's requirements for RAN plugin hosting:
//! deterministic execution (fuel), tight worst-case latency (deadlines,
//! bounded call depth, bounded memory growth) and fault containment (every
//! guest misbehaviour surfaces as a catchable [`Trap`], never as host UB).
//!
//! Not implemented (out of scope, documented in DESIGN.md): SIMD, threads,
//! reference types beyond `funcref` tables, multi-value block types,
//! multiple memories and exception handling.
//!
//! ## Example
//!
//! ```
//! use waran_wasm::{wat, instance::{Instance, Linker}, interp::Value};
//!
//! let bytes = wat::assemble(r#"
//!   (module
//!     (func (export "add") (param i32 i32) (result i32)
//!       local.get 0
//!       local.get 1
//!       i32.add))
//! "#).unwrap();
//! let module = waran_wasm::decode::decode_module(&bytes).unwrap();
//! waran_wasm::validate::validate(&module).unwrap();
//! let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
//! let out = inst.invoke("add", &[Value::I32(2), Value::I32(40)]).unwrap();
//! assert_eq!(out, Some(Value::I32(42)));
//! ```

pub mod analysis;
pub mod builder;
pub mod compile;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod instance;
pub mod instr;
pub mod interp;
pub mod leb128;
pub mod module;
pub mod ops;
pub mod regalloc;
pub mod trap;
pub mod types;
pub mod validate;
pub mod wat;

pub use instance::{Instance, InstancePre, Linker};
pub use interp::Value;
pub use module::Module;
pub use trap::Trap;
pub use types::ValType;

/// Decode, validate and wrap a binary module in one step.
///
/// This is the front door used by the plugin host: any malformed or
/// ill-typed module is rejected before it can be instantiated.
pub fn load_module(bytes: &[u8]) -> Result<Module, LoadError> {
    let module = decode::decode_module(bytes).map_err(LoadError::Decode)?;
    validate::validate(&module).map_err(LoadError::Validate)?;
    Ok(module)
}

/// Errors surfaced by [`load_module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The byte stream is not a well-formed Wasm binary.
    Decode(decode::DecodeError),
    /// The module is well-formed but ill-typed.
    Validate(validate::ValidateError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Decode(e) => write!(f, "decode error: {e}"),
            LoadError::Validate(e) => write!(f, "validation error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}
