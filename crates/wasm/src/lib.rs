//! # waran-wasm — a from-scratch WebAssembly virtual machine
//!
//! This crate is the sandbox substrate of WA-RAN. It implements the
//! WebAssembly MVP (plus sign-extension, saturating float→int truncation and
//! the `memory.copy`/`memory.fill` subset of bulk-memory) end to end:
//!
//! * [`instr`] — the decoded instruction set; its 159 plain numeric and
//!   memory operators are declared once, as rows of one operator table
//!   ([`instr::OP_TABLE`]) that the decoder, the encoder, the validator,
//!   the builder and the test-only WAT assembler all read,
//! * [`decode`] — binary-format (`.wasm`) decoder,
//! * [`encode`] / [`builder`] — binary-format encoder and an ergonomic
//!   [`builder::ModuleBuilder`] for constructing modules programmatically,
//! * [`validate`] — the type system's errors and the module-level checks;
//!   each body is type-checked by the walk that lowers it (below),
//! * [`interp`] — the runtime state: values, sandboxed linear
//!   [`Memory`](interp::Memory) with hard bounds checks, and tables,
//! * [`instance`] — instantiation, host-function linking, typed calls and
//!   the one executor: traps ([`Trap`]) and fuel metering, the only
//!   budget that stops a call (it reads no clock),
//! * [`analysis`] — the one load-time pass behind that executor, run once
//!   per module by [`load_module`]: one walk per body type-checks it and
//!   hands each op of a 1:1 flat stack stream (side-table branches, block
//!   metering; every call stays a call) at once to two consumers — the
//!   lowering into three-address code over a per-frame virtual register
//!   file, the one pass that fuses operands, write-backs,
//!   compare-and-branch and address chains, and the proof's recorder —
//!   and the register form is checked block by block against what the
//!   recorder kept (fuel, memory/call/trap ops and control flow, not
//!   values); the worst-case resource bounds are then read off the
//!   register code itself, loop tests and local writes included. No op is stored; every
//!   instance runs the register code the pass checked. The crate's
//!   tests hold the executor to an oracle that walks the decoded
//!   instructions over its own memory (`tests/util/oracle.rs`),
//! * [`disasm`] — the register-code listing the `analyze` tool prints.
//!
//! Design goals follow the paper's requirements for RAN plugin hosting:
//! deterministic execution (fuel), tight worst-case latency (fuel sized
//! from the slot by [`instance::NS_PER_FUEL`], bulk memory ops paying per
//! byte, `memory.grow` per page and every call for its frame), bounded
//! stacks (two constants: [`instance::MAX_CALL_DEPTH`] frames and
//! [`instance::MAX_REGS`] cells of the register arena the executor
//! allocates), bounded memory growth (one page cap per instance) and fault
//! containment (every guest misbehaviour surfaces as a
//! catchable [`Trap`], never as host UB).
//!
//! Not implemented (out of scope, documented in DESIGN.md): SIMD, threads,
//! reference types beyond `funcref` tables, multi-value block types,
//! multiple memories and exception handling.
//!
//! ## Example
//!
//! ```
//! use waran_wasm::{builder::ModuleBuilder, instance::{Instance, Linker}, interp::Value};
//! use waran_wasm::types::ValType::I32;
//!
//! let mut mb = ModuleBuilder::new();
//! let sig = mb.func_type(&[I32, I32], &[I32]);
//! let f = mb.begin_func(sig);
//! mb.code().local_get(0).local_get(1).i32_add();
//! mb.end_func().unwrap();
//! mb.export_func("add", f);
//! let bytes = mb.finish_bytes().unwrap();
//!
//! let module = waran_wasm::load_module(&bytes).unwrap();
//! let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
//! let out = inst.invoke("add", &[Value::I32(2), Value::I32(40)]).unwrap();
//! assert_eq!(out, Some(Value::I32(42)));
//! ```

pub mod analysis;
pub mod builder;
mod compile;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod instance;
pub mod instr;
pub mod interp;
mod leb128;
pub mod module;
mod ops;
mod regalloc;
mod trap;
pub mod types;
pub mod validate;

pub use instance::{Instance, InstancePre, Linker};
pub use interp::Value;
pub use module::Module;
pub use trap::Trap;
pub use types::ValType;

/// Decode, validate and lower a binary module in one step.
///
/// This is the front door used by the plugin host: any malformed or
/// ill-typed module is rejected before it can be instantiated. After the
/// decoder, the module-level checks run, then one walk per body
/// type-checks it as it lowers it, in function-index order; the first
/// body that fails is the error. The returned module holds its checked
/// register code ([`Module::analysis`] has the proof's verdict; a failed
/// proof leaves it no instance).
pub fn load_module(bytes: &[u8]) -> Result<Module, LoadError> {
    let module = decode::decode_module(bytes).map_err(LoadError::Decode)?;
    let lowered = module.check().map_err(LoadError::Validate)?;
    module.lowered.get_or_init(|| lowered);
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
