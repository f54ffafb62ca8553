//! Differential execution: the production register-form executor vs the
//! reference instruction walker.
//!
//! Programs are generated in PlugC (the plugin language real workloads are
//! written in), compiled to Wasm, and run under both [`ExecMode`]s.
//! The executors must agree on:
//!
//! * the result value (bit-for-bit) or the trap,
//! * `fuel_consumed()` and `ExecStats::instrs` on complete executions,
//! * `ExecStats::instrs` on `OutOfFuel` traps (the block-metered executor
//!   retires exactly the remaining fuel before trapping, matching the
//!   per-instruction walker).
//!
//! On non-fuel traps that fire mid-block (e.g. division by zero) the two
//! modes may differ in fuel by less than one basic block — that is the
//! documented granularity change of block metering — so fuel is only
//! compared on completion and on fuel exhaustion.
//!
//! The generator is seeded (xorshift64*), so the same corpus runs both as a
//! deterministic sweep and, below, under proptest with random seeds.

use std::sync::Arc;

use waran_wasm::builder::ModuleBuilder;
use waran_wasm::compile::Op;
use waran_wasm::instance::{ExecLimits, ExecMode, Instance, Linker};
use waran_wasm::instr::Instr;
use waran_wasm::interp::Value;
use waran_wasm::regalloc::ROp;
use waran_wasm::types::{BlockType, ValType};
use waran_wasm::{load_module, wat, Module, Trap};

#[path = "util/gen.rs"]
mod gen;
use gen::gen_program;

// ---------------------------------------------------------------------
// Two-mode runner
// ---------------------------------------------------------------------

type Outcome = (Result<Option<Value>, Trap>, Option<u64>, u64, u64);

fn exec_one(wasm: &[u8], mode: ExecMode, args: &[Value], fuel: u64) -> Outcome {
    let module = load_module(wasm).expect("generated module validates");
    let mut inst = Instance::new(module.into(), &Linker::<()>::new(), ()).unwrap();
    inst.set_exec_mode(mode);
    inst.set_fuel(Some(fuel));
    let out = inst.invoke("main", args);
    (
        out,
        inst.fuel_consumed(),
        inst.stats().instrs,
        inst.stats().traps,
    )
}

/// Run both executors and assert the documented agreement contract.
/// Returns the fuel consumed when the program completed successfully.
fn assert_modes_agree(wasm: &[u8], args: &[Value], fuel: u64, ctx: &str) -> Option<u64> {
    let (r_res, r_fuel, r_instrs, r_traps) = exec_one(wasm, ExecMode::Reference, args, fuel);
    let (c_res, c_fuel, c_instrs, c_traps) = exec_one(wasm, ExecMode::Reg, args, fuel);
    assert_eq!(r_res, c_res, "result diverged ({ctx})");
    assert_eq!(r_traps, c_traps, "trap count diverged ({ctx})");
    match &r_res {
        Ok(_) => {
            assert_eq!(r_fuel, c_fuel, "fuel diverged on success ({ctx})");
            assert_eq!(r_instrs, c_instrs, "instrs diverged on success ({ctx})");
        }
        Err(Trap::OutOfFuel) => {
            assert_eq!(r_fuel, c_fuel, "fuel diverged on exhaustion ({ctx})");
            assert_eq!(r_instrs, c_instrs, "instrs diverged on exhaustion ({ctx})");
        }
        // Mid-block traps: fuel may differ by < 1 block (documented).
        Err(_) => {}
    }
    match &r_res {
        Ok(_) => r_fuel,
        Err(_) => None,
    }
}

/// The full contract for one generated program: agreement at a generous
/// fuel budget, then — if it completed — agreement on the `OutOfFuel`
/// path by rerunning with half the consumed fuel.
fn check_seed(seed: u64, a: i32, b: i32) {
    let src = gen_program(seed);
    let wasm = waran_plugc::compile(&src)
        .unwrap_or_else(|e| panic!("seed {seed}: plugc rejected generated program: {e}\n{src}"));
    let args = [Value::I32(a), Value::I32(b)];
    let ctx = format!("seed {seed}, args ({a}, {b})");
    if let Some(consumed) = assert_modes_agree(&wasm, &args, 5_000_000, &ctx) {
        if consumed > 1 {
            assert_modes_agree(&wasm, &args, consumed / 2, &format!("{ctx}, half fuel"));
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic corpus (runs with no external dev-dependencies)
// ---------------------------------------------------------------------

#[test]
fn differential_seed_sweep() {
    for seed in 0..300u64 {
        let a = (seed as i32).wrapping_mul(-0x61c8_8647);
        let b = (seed as i32).wrapping_mul(0x0101_0101) ^ 0x55;
        check_seed(seed, a, b);
    }
}

#[test]
fn differential_edge_arguments() {
    for seed in [3, 17, 99, 1234, 0xdead_beef] {
        for &(a, b) in &[
            (0, 0),
            (i32::MIN, -1),
            (i32::MAX, i32::MIN),
            (-1, 1),
            (i32::MIN, i32::MIN),
        ] {
            check_seed(seed, a, b);
        }
    }
}

#[test]
fn differential_br_table() {
    // PlugC never emits br_table, so cover the side-table interning path
    // with a hand-built switch: three nested blocks, br_table over them.
    let mut mb = ModuleBuilder::new();
    let sig = mb.func_type(&[ValType::I32], &[ValType::I32]);
    let f = mb.begin_func(sig);
    mb.code()
        .block(BlockType::Empty)
        .block(BlockType::Empty)
        .block(BlockType::Empty)
        .local_get(0)
        .br_table(&[0, 1], 2)
        .end()
        .i32_const(10)
        .return_()
        .end()
        .i32_const(20)
        .return_()
        .end()
        .i32_const(30);
    mb.end_func().unwrap();
    mb.export_func("main", f);
    let wasm = mb.finish_bytes().unwrap();

    for sel in [0, 1, 2, 7, -1] {
        let args = [Value::I32(sel)];
        assert_modes_agree(&wasm, &args, 1_000_000, &format!("br_table sel {sel}"));
    }
    // Spot-check the actual values through the production executor.
    let (res, _, _, _) = exec_one(&wasm, ExecMode::Reg, &[Value::I32(1)], 1_000_000);
    assert_eq!(res, Ok(Some(Value::I32(20))));
    let (res, _, _, _) = exec_one(&wasm, ExecMode::Reg, &[Value::I32(9)], 1_000_000);
    assert_eq!(res, Ok(Some(Value::I32(30))));
}

#[test]
fn differential_scheduler_shape() {
    // The fig. 5 hot shape: pointer-walking loop over packed records with
    // an accumulating comparison — exercises the local.get+load and
    // compare+br_if superinstructions together.
    let src = r#"
export fn main(n: i32, base: i32) -> i32 {
    var i: i32 = 0;
    var best: i32 = 0 - 2147483647;
    var best_at: i32 = 0;
    while (i < n) {
        store_i32(base + i * 8, i * 37);
        store_i32(base + i * 8 + 4, (i * 1103515245) >> 16);
        i = i + 1;
    }
    i = 0;
    while (i < n) {
        var w: i32 = load_i32(base + i * 8 + 4);
        if (w > best) {
            best = w;
            best_at = load_i32(base + i * 8);
        }
        i = i + 1;
    }
    return best_at + best;
}
"#;
    let wasm = waran_plugc::compile(src).expect("scheduler shape compiles");
    for n in [0, 1, 7, 64, 500] {
        let args = [Value::I32(n), Value::I32(64)];
        let consumed = assert_modes_agree(&wasm, &args, 5_000_000, &format!("scheduler n={n}"));
        if let Some(consumed) = consumed {
            if consumed > 1 {
                assert_modes_agree(
                    &wasm,
                    &args,
                    consumed / 2,
                    &format!("scheduler n={n}, half fuel"),
                );
            }
        }
    }
}

#[test]
fn differential_leaf_calls() {
    // Straight-line leaf helpers are inlined by the VM's compiler; fuel
    // parity must survive that (call = 1, each body instruction = 1, the
    // return/end terminator = 1 — identical to the reference walker
    // running the call for real). `mix` keeps an `if` so it stays a real
    // call, covering the inlined-and-not path in one program. PlugC's own
    // optimiser removes one-line helpers (`weight`) before the VM sees
    // them; `probe` has two statements, so it must reach the VM as a call.
    let src = r#"
fn weight(x: i32, y: i32) -> i32 {
    return (x * 3) + (y ^ 5);
}
fn probe(addr: i32) -> i32 {
    store_i32(addr, addr * 7);
    return load_i32(addr) + 1;
}
fn mix(a: i32, b: i32) -> i32 {
    if (a > b) {
        return weight(a, b);
    }
    return weight(b, a);
}
export fn main(n: i32, base: i32) -> i32 {
    var i: i32 = 0;
    var acc: i32 = 0;
    while (i < n) {
        acc = acc + weight(i, acc);
        acc = acc + probe(base + i * 4);
        acc = acc + mix(i, acc);
        i = i + 1;
    }
    return acc;
}
"#;
    let wasm = waran_plugc::compile(src).expect("leaf-call program compiles");
    let module = load_module(&wasm).unwrap();
    // Function order: wrn_alloc, wrn_reset (ABI prelude), weight, probe, mix, main.
    let main = &module.funcs[module.exported_func("main").unwrap() as usize].code;
    let calls = |func| main.contains(&waran_wasm::instr::Instr::Call { func });
    assert!(
        !calls(2) && calls(3),
        "PlugC inlines `weight`; the straight-line leaf `probe` must reach the VM as a call"
    );
    for n in [0, 1, 5, 40] {
        let args = [Value::I32(n), Value::I32(96)];
        let consumed = assert_modes_agree(&wasm, &args, 5_000_000, &format!("leaf calls n={n}"));
        if let Some(consumed) = consumed {
            if consumed > 1 {
                assert_modes_agree(
                    &wasm,
                    &args,
                    consumed / 2,
                    &format!("leaf calls n={n}, half fuel"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every plain opcode
// ---------------------------------------------------------------------
//
// The generated corpus is PlugC — i32 plus a little f64 — so the i64, f32,
// conversion, `trunc_sat` and narrow load/store long tail would cross the
// two executors only in hand-picked cases. This section takes the opcode
// list from the decoder and each opcode's signature from the validator
// (no hand-written table to fall out of date) and runs `local.get… ; op`
// over edge operands under both executors and the load-time proof.

/// The instruction `bytes` decode to as a whole function body, if the
/// decoder accepts them.
fn decode_opcode(bytes: &[u8]) -> Option<Instr> {
    let mut wasm = b"\0asm\x01\0\0\0".to_vec();
    wasm.extend([0x01, 0x04, 0x01, 0x60, 0x00, 0x00]); // type 0: () -> ()
    wasm.extend([0x03, 0x02, 0x01, 0x00]); // one function of type 0
    let body_len = bytes.len() as u8 + 2; // no locals … `end`
    wasm.extend([0x0a, body_len + 2, 0x01, body_len, 0x00]);
    wasm.extend(bytes);
    wasm.push(0x0b);
    let module = waran_wasm::decode::decode_module(&wasm).ok()?;
    match &module.funcs[0].code[..] {
        [op, Instr::End] => Some(op.clone()),
        _ => None,
    }
}

/// `main(params) -> results { local.get 0 … ; op }` over a one-page
/// memory, if it validates.
fn plain_op_module(op: &Instr, params: &[ValType], results: &[ValType]) -> Option<Module> {
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.func_type(params, results);
    let f = mb.begin_func(sig);
    for i in 0..params.len() as u32 {
        mb.code().local_get(i);
    }
    mb.code().raw(op.clone());
    mb.end_func().ok()?;
    mb.export_func("main", f);
    load_module(&mb.finish_bytes().ok()?).ok()
}

/// The one unary, binary or store shape over the four value types that
/// the validator accepts for `op`.
fn plain_op_signature(op: &Instr) -> (Vec<ValType>, Module) {
    use ValType::*;
    const TYPES: [ValType; 4] = [I32, I64, F32, F64];
    let mut shapes: Vec<(Vec<ValType>, Vec<ValType>)> = Vec::new();
    for a in TYPES {
        for r in TYPES {
            shapes.push((vec![a], vec![r]));
            shapes.push((vec![a, r], vec![])); // store: address, value
            for b in TYPES {
                shapes.push((vec![a, b], vec![r]));
            }
        }
    }
    let mut valid = shapes
        .into_iter()
        .filter_map(|(p, r)| Some((p.clone(), plain_op_module(op, &p, &r)?)));
    let found = valid
        .next()
        .unwrap_or_else(|| panic!("{op:?}: no shape validates"));
    assert!(valid.next().is_none(), "{op:?}: signature is ambiguous");
    found
}

/// Edge operands per type. The i32 list doubles as the address list of
/// the memory ops (static offset 4 on a 65536-byte memory): in bounds,
/// straddling the end for accesses wider than two bytes, and wrapping
/// past 2³² once the offset is added.
fn edge_operands(ty: ValType) -> Vec<Value> {
    let f32s = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        2.5,
        2147483648.0,           // 2³¹
        -2147483904.0,          // first f32 below -2³¹
        4294967296.0,           // 2³²
        9223372036854775808.0,  // 2⁶³
        18446744073709551616.0, // 2⁶⁴
        f32::MAX,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    match ty {
        ValType::I32 => [
            0,
            1,
            -1,
            i32::MIN,
            i32::MAX,
            16,
            65_529,
            0xffff_fffc_u32 as i32,
        ]
        .map(Value::I32)
        .to_vec(),
        ValType::I64 => [
            0,
            1,
            -1,
            i64::MIN,
            i64::MAX,
            1 << 31,
            -(1 << 31) - 1,
            1 << 32,
        ]
        .map(Value::I64)
        .to_vec(),
        ValType::F32 => f32s.map(Value::F32).to_vec(),
        ValType::F64 => f32s
            .iter()
            .map(|&f| f as f64)
            .chain([-2147483649.0, 4294967295.5, f64::MAX, f64::MIN_POSITIVE])
            .map(Value::F64)
            .collect(),
    }
}

/// A value as (type, bit pattern): NaNs and signed zeros compare exactly.
fn bits(v: Value) -> (ValType, u64) {
    (v.ty(), v.to_bits())
}

#[test]
fn differential_every_plain_opcode() {
    // Memory accesses carry an (align, offset) immediate; offset 4 keeps
    // the static-offset plumbing in play.
    let memory = (0x28..=0x3e_u8).map(|op| vec![op, 0x00, 0x04]);
    let numeric = (0x45..=0xc4_u8).map(|op| vec![op]);
    let saturating = (0x00..=0x07_u8).map(|sub| vec![0xfc, sub]);
    let ops: Vec<Instr> = memory
        .chain(numeric)
        .chain(saturating)
        .filter_map(|bytes| decode_opcode(&bytes))
        .collect();
    assert_eq!(ops.len(), 23 + 128 + 8, "plain opcodes the decoder accepts");

    let (mut completed, mut trapped) = (0u32, 0u32);
    for op in &ops {
        let (params, module) = plain_op_signature(op);
        module
            .analysis()
            .unwrap_or_else(|e| panic!("{op:?}: lowering fails its proof: {e}"));
        let module = Arc::new(module);
        let mut insts = [ExecMode::Reference, ExecMode::Reg].map(|mode| {
            let mut inst = Instance::new(module.clone(), &Linker::<()>::new(), ()).unwrap();
            inst.set_exec_mode(mode);
            // Loads should see sign bits and distinct bytes, also at the
            // very end of the page.
            let pattern: Vec<u8> = (0..64u32).map(|i| (i * 37 + 0x85) as u8).collect();
            inst.memory_mut().write_bytes(0, &pattern).unwrap();
            inst.memory_mut()
                .write_bytes(65_536 - 64, &pattern)
                .unwrap();
            inst
        });
        // Source instructions in the body: the gets, the op, the `end`.
        let cost = params.len() as u64 + 2;

        let firsts = edge_operands(params[0]);
        let seconds = params.get(1).map_or(vec![None], |&ty| {
            edge_operands(ty).into_iter().map(Some).collect()
        });
        for &a in &firsts {
            for &b in &seconds {
                let args: Vec<Value> = std::iter::once(a).chain(b).collect();
                let [reference, reg] = insts.each_mut().map(|inst| {
                    inst.set_fuel(Some(1_000));
                    let out = inst.invoke("main", &args).map(|v| v.map(bits));
                    (out, inst.fuel_consumed())
                });
                let ctx = format!("{op:?} {args:?}");
                assert_eq!(reference.0, reg.0, "result diverged ({ctx})");
                match reference.0 {
                    Ok(_) => {
                        completed += 1;
                        assert_eq!(reference.1, Some(cost), "reference fuel ({ctx})");
                        assert_eq!(reg.1, Some(cost), "register fuel ({ctx})");
                    }
                    // The walker stops at the trapping instruction; block
                    // metering has charged the whole block, `end` included.
                    Err(_) => {
                        trapped += 1;
                        assert_eq!(reference.1, Some(cost - 1), "reference fuel ({ctx})");
                        assert_eq!(reg.1, Some(cost), "register fuel ({ctx})");
                    }
                }
                let [m_ref, m_reg] = insts.each_ref().map(|inst| {
                    let mem = inst.memory();
                    mem.read_bytes(0, mem.size_bytes() as u32).unwrap()
                });
                assert!(m_ref == m_reg, "final memory diverged ({ctx})");
            }
        }
    }
    // Non-vacuous on both paths: most cases complete, and every trapping
    // family (bounds, div/rem, float→int range) contributes traps.
    assert!(
        completed > 5_000 && trapped > 500,
        "{completed} completed, {trapped} trapped"
    );
}

// ---------------------------------------------------------------------
// Host-call differential
// ---------------------------------------------------------------------
//
// Everything above instantiates with an empty `Linker`, so it never
// crosses the guest→host boundary. Each executor has its own host-call
// shim (value-stack slice vs register window), and a re-exported import
// bypasses both; this section runs one module through every such path
// under both executors and compares what the guest, the host and the
// embedder can each observe.

/// Host state: every call the closures saw, in order.
type HostLog = Vec<(&'static str, i32)>;

const HOST_WAT: &str = r#"(module
  (import "env" "add3" (func $add3 (param i32) (result i32)))
  (import "env" "poke" (func $poke (param i32 i32)))
  (import "env" "fail" (func $fail))
  (import "env" "wrong" (func $wrong (result i32)))
  (memory 1)
  (export "add3" (func $add3))
  (export "poke" (func $poke))
  (export "fail" (func $fail))
  (export "wrong" (func $wrong))

  ;; Straight-line helper: the compiler may inline it into its caller.
  (func $leaf (param i32) (result i32)
    local.get 0 call $add3 i32.const 1 i32.add)

  ;; Control flow keeps these real calls: host calls from a nested frame.
  (func $inner (param i32 i32) (result i32)
    local.get 0
    if (result i32)
      local.get 1 call $add3
    else
      i32.const 128 local.get 1 call $poke
      i32.const 128 i32.load
    end)
  (func $deep (param i32) (result i32)
    local.get 0
    if call $fail end
    call $wrong)

  (func (export "value") (param i32) (result i32)
    local.get 0 call $add3 call $add3 call $leaf)
  (func (export "memory") (param i32) (result i32)
    i32.const 64 local.get 0 call $poke
    i32.const 64 i32.load
    i32.const 1 local.get 0 call $inner
    i32.add
    i32.const 0 local.get 0 call $inner
    i32.add)
  (func (export "nested_fault") (param i32) (result i32)
    i32.const 32 local.get 0 call $poke
    local.get 0 call $deep)
  (func (export "wrong_top") (result i32)
    call $wrong))"#;

fn host_linker() -> Linker<HostLog> {
    use ValType::I32;
    let mut l: Linker<HostLog> = Linker::new();
    l.func("env", "add3", &[I32], &[I32], |log, _, a| {
        log.push(("add3", a[0].as_i32()));
        Ok(Some(Value::I32(a[0].as_i32().wrapping_add(3))))
    });
    l.func("env", "poke", &[I32, I32], &[], |log, mem, a| {
        log.push(("poke", a[0].as_i32()));
        mem.write(a[0].as_u32(), 0, a[1].as_i32().to_le_bytes())?;
        Ok(None)
    });
    l.func("env", "fail", &[], &[], |log, _, _| {
        log.push(("fail", 0));
        Err(Trap::HostError("boom".into()))
    });
    // Declared `-> i32`, returns an i64: a host bug the engine must trap.
    l.func("env", "wrong", &[], &[I32], |log, _, _| {
        log.push(("wrong", 0));
        Ok(Some(Value::I64(7)))
    });
    l
}

/// One scripted call: result or trap, then `fuel_consumed()` and retired
/// instructions where the contract pins them (completed calls, and calls
/// that ran no guest code at all), blanked where it does not (mid-block
/// traps may differ by < 1 block).
type HostCall = (Result<Option<Value>, Trap>, Option<u64>, u64);

/// What one executor did with the call script on one instance.
#[derive(Debug, PartialEq)]
struct HostRun {
    calls: Vec<HostCall>,
    invokes: u64,
    traps: u64,
    memory: Vec<u8>,
    log: HostLog,
}

fn host_run(module: &Arc<Module>, mode: ExecMode) -> HostRun {
    let mut inst = Instance::new(module.clone(), &host_linker(), HostLog::new()).unwrap();
    inst.set_exec_mode(mode);
    let i = Value::I32;
    let script: [(&str, &[Value]); 12] = [
        ("value", &[i(10)]),
        ("memory", &[i(0x0102_0304)]),
        // Nested frame: a trapping host call, then a mistyped result.
        ("nested_fault", &[i(1)]),
        ("nested_fault", &[i(0)]),
        ("wrong_top", &[]),
        // Re-exported imports, entered directly from the embedder.
        ("add3", &[i(39)]),
        ("poke", &[i(256), i(-1)]),
        ("fail", &[]),
        ("wrong", &[]),
        // A host write past the end of memory traps out of the closure.
        ("poke", &[i(65_533), i(5)]),
        // The instance stays usable after every fault above.
        ("value", &[i(-3)]),
        ("memory", &[i(-9)]),
    ];
    let mut calls = Vec::new();
    for (name, args) in script {
        inst.set_fuel(Some(1_000_000));
        let before = inst.stats().instrs;
        let out = inst.invoke(name, args);
        let instrs = inst.stats().instrs - before;
        let pinned = out.is_ok() || instrs == 0;
        let fuel = inst.fuel_consumed().filter(|_| pinned);
        calls.push((out, fuel, if pinned { instrs } else { 0 }));
    }
    let memory = inst.memory();
    HostRun {
        calls,
        invokes: inst.stats().invokes,
        traps: inst.stats().traps,
        memory: memory
            .read_bytes(0, memory.size_bytes() as u32)
            .unwrap()
            .to_vec(),
        log: std::mem::take(&mut inst.data),
    }
}

#[test]
fn differential_host_calls() {
    let wasm = wat::assemble(HOST_WAT).expect("host module assembles");
    let module = Arc::new(load_module(&wasm).expect("host module validates"));
    let reference = host_run(&module, ExecMode::Reference);
    let reg = host_run(&module, ExecMode::Reg);
    assert_eq!(reference, reg);

    // Anchor the shared behaviour so "both wrong the same way" cannot pass.
    let results: Vec<_> = reg.calls.iter().map(|(r, _, _)| r.clone()).collect();
    let boom = Err(Trap::HostError("boom".into()));
    let mistyped = Err(Trap::HostError(
        "host function returned Some(I64(7)), signature says Some(I32)".into(),
    ));
    assert_eq!(results[0], Ok(Some(Value::I32(20))));
    assert_eq!(results[1], Ok(Some(Value::I32(3 * 0x0102_0304 + 3))));
    assert_eq!(
        results[2..5],
        [boom.clone(), mistyped.clone(), mistyped.clone()]
    );
    assert_eq!(
        results[5..9],
        [Ok(Some(Value::I32(42))), Ok(None), boom, mistyped]
    );
    assert!(matches!(results[9], Err(Trap::MemoryOutOfBounds { .. })));
    assert_eq!(results[10], Ok(Some(Value::I32(7))));
    // Re-exported imports run no guest code: no fuel, no instructions.
    for (_, fuel, instrs) in &reg.calls[5..10] {
        assert_eq!((*fuel, *instrs), (Some(0), 0));
    }
    assert_eq!((reg.invokes, reg.traps), (6, 6));
    assert_eq!(reg.memory[256..260], [0xff; 4]);
    assert_eq!(reg.memory[32..36], 0i32.to_le_bytes());
}

// ---------------------------------------------------------------------
// The typed/untyped boundary
// ---------------------------------------------------------------------
//
// The register executor's cells are untyped 64-bit words; the oracle's
// are tagged `Value`s. `differential_every_plain_opcode` runs one op on
// clean cells. This section crosses the two executors where a cell's
// history could show: a word that last held an i64 and now holds an i32,
// a callee's declared locals over a window the caller used, bit patterns
// that only survive if nothing re-interprets them on the way, and the
// host boundary where a `Value` is rebuilt from a declaration.

type Bits = (ValType, u64);

/// `[Reference, Reg]` instances of one module.
fn mode_pair<T>(src: &str, linker: &Linker<T>, data: impl Fn() -> T) -> [Instance<T>; 2] {
    let wasm = wat::assemble(src).expect("module assembles");
    let module = Arc::new(load_module(&wasm).expect("module validates"));
    module.analysis().expect("lowering passes its proof");
    [ExecMode::Reference, ExecMode::Reg].map(|mode| {
        let mut inst = Instance::new(module.clone(), linker, data()).unwrap();
        inst.set_exec_mode(mode);
        inst
    })
}

/// Call `name(args)` under both executors: result bits or trap agree, and
/// so does `fuel_consumed()` when the call completes (a mid-block trap
/// may differ by less than one block, see the header). Returns the agreed
/// outcome.
fn call_pair<T>(
    insts: &mut [Instance<T>; 2],
    name: &str,
    args: &[Value],
) -> Result<Option<Bits>, Trap> {
    let [reference, reg] = insts.each_mut().map(|inst| {
        inst.set_fuel(Some(1_000_000));
        let out = inst.invoke(name, args).map(|v| v.map(bits));
        (out, inst.fuel_consumed())
    });
    let ctx = format!("{name} {args:?}");
    assert_eq!(reference.0, reg.0, "result diverged ({ctx})");
    if reference.0.is_ok() {
        assert_eq!(reference.1, reg.1, "fuel diverged ({ctx})");
    }
    reference.0
}

/// Does the register code of export `name` contain an op `pred` accepts?
fn lowered_with(module: &Module, name: &str, pred: impl Fn(&ROp) -> bool) -> bool {
    let local = module.exported_func(name).unwrap() - module.num_imported_funcs();
    module.reg_func(local).ops.iter().any(pred)
}

/// Every export first loads an all-ones i64 into the bottom operand cell
/// and drops it (a load may trap, so it is never elided), then computes
/// the i32 `!a` into that same cell (an xor, which no address fusion
/// absorbs) and feeds it to a consumer that would misbehave on a stale
/// upper half.
const DIRTY_WAT: &str = r#"(module
  (import "env" "see" (func $see (param i32) (result i32)))
  (memory 1 4)
  (data (i32.const 0) "\ff\ff\ff\ff\ff\ff\ff\ff")
  (func (export "extend") (param $a i32) (param $b i32) (result i64)
    i32.const 0 i64.load drop
    local.get $a i32.const -1 i32.xor
    i64.extend_i32_u)
  (func (export "load_rr") (param $a i32) (param $b i32) (result i32)
    i32.const 0 i64.load drop
    local.get $a i32.const -1 i32.xor
    local.get $b i32.add
    i32.load8_u)
  (func (export "load_bis") (param $a i32) (param $b i32) (result i32)
    i32.const 0 i64.load drop
    local.get $a i32.const -1 i32.xor
    local.get $b i32.const 2 i32.shl i32.add
    i32.const 3 i32.add
    i32.load8_u)
  (func (export "table") (param $a i32) (param $b i32) (result i32)
    block $default
      block $two
        block $one
          block $zero
            i32.const 0 i64.load drop
            local.get $a i32.const -1 i32.xor
            br_table $zero $one $two $default
          end
          i32.const 100 return
        end
        i32.const 101 return
      end
      i32.const 102 return
    end
    i32.const 103)
  (func (export "grow") (param $a i32) (param $b i32) (result i32)
    i32.const 0 i64.load drop
    local.get $a i32.const -1 i32.xor
    memory.grow)
  (func (export "host") (param $a i32) (param $b i32) (result i32)
    i32.const 0 i64.load drop
    local.get $a i32.const -1 i32.xor
    call $see))"#;

#[test]
fn differential_dirty_upper_halves() {
    // The host sees exactly the typed value the guest computed.
    let mut linker: Linker<Vec<Value>> = Linker::new();
    linker.func(
        "env",
        "see",
        &[ValType::I32],
        &[ValType::I32],
        |seen, _, a| {
            seen.push(a[0]);
            Ok(Some(a[0]))
        },
    );
    let mut insts = mode_pair(DIRTY_WAT, &linker, Vec::new);
    let module = insts[0].module().clone();
    // The address forms the issue names are really what runs.
    assert!(lowered_with(&module, "load_rr", |op| matches!(
        op,
        ROp::LoadRR { .. }
    )));
    assert!(lowered_with(&module, "load_bis", |op| matches!(
        op,
        ROp::LoadBis { .. }
    )));

    // `!a` lands on 0, 1, 2, u32::MAX, i32::MIN and the top of the
    // one-page memory; `b` moves the address across the end and around
    // 2³².
    let firsts = [-1, -2, -3, 0, i32::MAX, !65_535, !65_534, !65_532];
    let seconds = [0, 1, 2, -1, 16_383, 16_384];
    let (mut completed, mut trapped) = (0u32, 0u32);
    for name in ["extend", "load_rr", "load_bis", "table", "grow", "host"] {
        for a in firsts {
            for b in seconds {
                match call_pair(&mut insts, name, &[Value::I32(a), Value::I32(b)]) {
                    Ok(_) => completed += 1,
                    Err(Trap::MemoryOutOfBounds { .. }) => trapped += 1,
                    Err(t) => panic!("{name}({a}, {b}): unexpected trap {t}"),
                }
            }
        }
    }
    assert!(
        completed >= 200 && trapped >= 40,
        "{completed} completed, {trapped} trapped"
    );
    let [reference, reg] = insts.each_ref().map(|inst| &inst.data);
    assert_eq!(reference, reg, "host saw different arguments");
    assert_eq!(reg.len(), firsts.len() * seconds.len());
    assert!(reg.contains(&Value::I32(-1)) && reg.contains(&Value::I32(i32::MIN)));

    // Anchors, so "both wrong the same way" cannot pass: a stale upper
    // half would show as a wide value, a wild address, the default arm, a
    // refused grow.
    let mut insts = mode_pair(DIRTY_WAT, &linker, Vec::new);
    let mut run =
        |name: &str, a: i32, b: i32| call_pair(&mut insts, name, &[Value::I32(a), Value::I32(b)]);
    let i32v = |v: i32| Ok(Some(bits(Value::I32(v))));
    assert_eq!(run("extend", 0, 0), Ok(Some((ValType::I64, 0xffff_ffff))));
    assert_eq!(run("load_rr", -1, 0), i32v(0xff));
    assert_eq!(run("load_rr", !65_535, 0), i32v(0)); // the last byte
    assert!(run("load_rr", !65_535, 1).is_err());
    assert_eq!(run("load_rr", 0, 1), i32v(0xff)); // u32::MAX + 1 wraps to 0
    assert_eq!(run("load_bis", -1, 1), i32v(0xff)); // byte 7, in the segment
    assert_eq!(run("load_bis", -1, 2), i32v(0)); // byte 11, past it
    assert_eq!(run("load_bis", !65_532, 0), i32v(0)); // the last byte
    assert!(run("load_bis", !65_532, 1).is_err());
    assert_eq!(run("table", -1, 0), i32v(100));
    assert_eq!(run("table", -3, 0), i32v(102));
    assert_eq!(run("table", 0, 0), i32v(103)); // selector u32::MAX: default
    assert_eq!(run("grow", -2, 0), i32v(1)); // 1 page → 2
    assert_eq!(run("grow", -3, 0), i32v(2)); // 2 pages → 4
    assert_eq!(run("grow", -2, 0), i32v(-1)); // past the declared max
    assert_eq!(run("host", i32::MAX, 0), i32v(i32::MIN));
}

/// `$callee` loops (so it stays a real call) and reports what its
/// declared i64/f32/f64 locals read on entry, then leaves all-ones in
/// them. `twice` calls it, fills the operand cells the next frame will
/// overlap with all-ones i64s, and calls it again one cell higher.
const LOCALS_WAT: &str = r#"(module
  (memory 1)
  (data (i32.const 0) "\ff\ff\ff\ff\ff\ff\ff\ff")
  (func $callee (param $n i32) (result i64)
    (local $l i64) (local $f f32) (local $d f64) (local $seen i64)
    local.get $l
    local.get $d i64.reinterpret_f64 i64.or
    local.get $f i32.reinterpret_f32 i64.extend_i32_u i64.or
    local.set $seen
    loop $again
      i64.const -1 local.set $l
      i32.const -1 f32.reinterpret_i32 local.set $f
      i64.const -1 f64.reinterpret_i64 local.set $d
      local.get $n i32.const 1 i32.sub local.tee $n
      br_if $again
    end
    local.get $seen)
  (func (export "twice") (param $n i32) (result i64)
    local.get $n call $callee
    i32.const 0 i64.load i32.const 0 i64.load i32.const 0 i64.load
    i32.const 0 i64.load i32.const 0 i64.load i32.const 0 i64.load
    drop drop drop drop drop drop
    local.get $n call $callee
    i64.or))"#;

#[test]
fn differential_callee_locals_start_at_zero() {
    let mut insts = mode_pair(LOCALS_WAT, &Linker::<()>::new(), || ());
    let module = insts[0].module().clone();
    assert!(
        lowered_with(&module, "twice", |op| matches!(op, ROp::CallWasm { .. })),
        "the callee was inlined: the test no longer enters a frame"
    );
    let mut cases = 0u32;
    for n in [1, 2, 3, 7, 100] {
        // Twice per instance too: the register file persists across calls.
        for _ in 0..2 {
            let out = call_pair(&mut insts, "twice", &[Value::I32(n)]);
            assert_eq!(out, Ok(Some((ValType::I64, 0))), "n = {n}");
            cases += 1;
        }
    }
    assert!(cases >= 10, "{cases} cases");
}

/// One module per value type: every way a value moves without an
/// operator touching it. `carry` branches out of a block with a second
/// value underneath, so the carried window really moves down.
fn preserve_wat(ty: &str) -> String {
    format!(
        r#"(module
  (memory 1)
  (global $g (mut {ty}) ({ty}.const 0))
  (func (export "entry") (param {ty}) (result {ty})
    local.get 0)
  (func (export "copy") (param {ty}) (result {ty}) (local {ty})
    local.get 0 local.set 1 local.get 1)
  (func (export "select_a") (param {ty}) (result {ty})
    local.get 0 {ty}.const 1 i32.const 1 select)
  (func (export "select_b") (param {ty}) (result {ty})
    {ty}.const 1 local.get 0 i32.const 0 select)
  (func (export "carry") (param {ty}) (result {ty})
    block (result {ty})
      i64.const 5
      local.get 0
      i32.const 0 i32.load8_u i32.eqz
      br_if 0
      drop drop
      {ty}.const 1
    end)
  (func (export "global") (param {ty}) (result {ty})
    local.get 0 global.set $g
    global.get $g)
  (func (export "memory") (param {ty}) (result {ty})
    i32.const 8 local.get 0 {ty}.store
    i32.const 8 {ty}.load))"#
    )
}

#[test]
fn differential_bit_preservation() {
    // NaNs quiet and signalling with payloads, both zeros, and integers
    // with every half set.
    let f32s = [0x7fc0_0001_u32, 0x7fa0_0000, 0xffc1_2345, 0x8000_0000, 0, 1];
    let f64s = [
        0x7ff8_0000_0000_0001_u64,
        0x7ff4_0000_0000_0000,
        0xfff8_dead_beef_0001,
        0x8000_0000_0000_0000,
        0,
        1,
    ];
    let families: [(&str, Vec<Value>); 4] = [
        ("i32", edge_operands(ValType::I32)),
        (
            "i64",
            [-1, i64::MIN, 0x1234_5678_9abc_def0, 0xffff_ffff, 1 << 32]
                .map(Value::I64)
                .to_vec(),
        ),
        ("f32", f32s.map(|b| Value::F32(f32::from_bits(b))).to_vec()),
        ("f64", f64s.map(|b| Value::F64(f64::from_bits(b))).to_vec()),
    ];
    let mut cases = 0u32;
    for (ty, values) in families {
        let mut insts = mode_pair(&preserve_wat(ty), &Linker::<()>::new(), || ());
        for v in values {
            for name in [
                "entry", "copy", "select_a", "select_b", "carry", "global", "memory",
            ] {
                let out = call_pair(&mut insts, name, &[v]);
                assert_eq!(out, Ok(Some(bits(v))), "{ty} {name} {v:?}");
                cases += 1;
            }
        }
    }
    assert!(cases >= 150, "{cases} cases");
}

/// Nine parameters: the four types twice over, plus one.
const NINE: [ValType; 9] = [
    ValType::I32,
    ValType::I64,
    ValType::F32,
    ValType::F64,
    ValType::I32,
    ValType::I64,
    ValType::F32,
    ValType::F64,
    ValType::I32,
];

const BOUNDARY_WAT: &str = r#"(module
  (import "env" "four" (func $four (param i32 i64 f32 f64) (result i64)))
  (import "env" "nine"
    (func $nine (param i32 i64 f32 f64 i32 i64 f32 f64 i32) (result f64)))
  (import "env" "wrong" (func $wrong (param f32) (result f32)))
  (func (export "four") (param i32 i64 f32 f64) (result i64)
    local.get 0 local.get 1 local.get 2 local.get 3 call $four)
  (func (export "nine") (param i32 i64 f32 f64) (result f64)
    local.get 0 local.get 1 local.get 2 local.get 3
    local.get 0 i32.const 1 i32.add
    local.get 1 i64.const 1 i64.add
    local.get 2 local.get 3
    local.get 0 i32.const -1 i32.xor
    call $nine)
  (func (export "wrong") (param i32 i64 f32 f64) (result f32)
    local.get 2 call $wrong))"#;

/// The arguments of one host call, as (type, bit pattern) each.
fn typed(args: &[Value]) -> Vec<Bits> {
    args.iter().copied().map(bits).collect()
}

#[test]
fn differential_host_boundary_is_typed() {
    use ValType::{F32, F64, I32, I64};
    // Each call logged as the host saw it; results echo an argument back.
    let mut linker: Linker<Vec<Vec<Bits>>> = Linker::new();
    linker.func("env", "four", &[I32, I64, F32, F64], &[I64], |log, _, a| {
        log.push(typed(a));
        Ok(Some(a[1]))
    });
    linker.func("env", "nine", &NINE, &[F64], |log, _, a| {
        log.push(typed(a));
        Ok(Some(a[7]))
    });
    // Declared `f32 -> f32`, returns the same bits as an i32.
    linker.func("env", "wrong", &[F32], &[F32], |log, _, a| {
        log.push(typed(a));
        Ok(Some(Value::I32(a[0].as_f32().to_bits() as i32)))
    });
    let mut insts = mode_pair(BOUNDARY_WAT, &linker, Vec::new);

    let quads = [
        (-1_i32, -1_i64, 0xffc1_2345_u32, 0xfff8_dead_beef_0001_u64),
        (i32::MIN, i64::MIN, 0x8000_0000, 0x8000_0000_0000_0000),
        (7, 1 << 32, 0x7fa0_0000, 0x7ff4_0000_0000_0000),
        (0, 0, 0, 0),
    ];
    let mut expected_log = Vec::new();
    for (i, l, f, d) in quads {
        let args = [
            Value::I32(i),
            Value::I64(l),
            Value::F32(f32::from_bits(f)),
            Value::F64(f64::from_bits(d)),
        ];
        let exact = typed(&args);

        assert_eq!(
            call_pair(&mut insts, "four", &args),
            Ok(Some((I64, l as u64)))
        );
        expected_log.push(exact.clone());

        assert_eq!(call_pair(&mut insts, "nine", &args), Ok(Some((F64, d))));
        let mut nine = exact.clone();
        nine.extend([
            bits(Value::I32(i.wrapping_add(1))),
            bits(Value::I64(l.wrapping_add(1))),
            exact[2],
            exact[3],
            bits(Value::I32(!i)),
        ]);
        expected_log.push(nine);

        let mistyped = Trap::HostError(format!(
            "host function returned Some(I32({})), signature says Some(F32)",
            f as i32
        ));
        assert_eq!(call_pair(&mut insts, "wrong", &args), Err(mistyped));
        expected_log.push(vec![exact[2]]);
    }
    for inst in &insts {
        assert_eq!(inst.data, expected_log, "{:?}", inst.exec_mode());
    }
    assert!(
        expected_log.len() >= 12,
        "{} host calls",
        expected_log.len()
    );
}

// ---------------------------------------------------------------------
// Constant control flow
// ---------------------------------------------------------------------
//
// The register lowering folds constant *values* and never constant
// *control*: a literal `br_if`/`if`/`br_table`/`select` condition takes
// the same generic op as a computed one, and every flat op is lowered.
// PlugC emits neither `br_table` nor `select`, so the corpus above never
// reaches those shapes; these are written by hand.

/// `(name, body of main(a = 3, b = 4) -> i32, expected outcome)`.
fn constant_control_cases() -> Vec<(String, String, Result<i32, Trap>)> {
    let mut cases = Vec::new();
    let mut case = |name: &str, body: String, want: Result<i32, Trap>| {
        cases.push((name.to_string(), body, want));
    };
    // `br_if` carrying a value out of a block: taken, not taken, through
    // an `i32.eqz`, and on a condition that only value folding makes
    // constant.
    for (cond, want) in [
        ("i32.const 1", 7),
        ("i32.const 0", 9),
        ("i32.const 0  i32.eqz", 7),
        ("i32.const 5  i32.eqz", 9),
        ("i32.const 2  i32.const 2  i32.sub", 9),
    ] {
        case(
            &format!("br_if on `{cond}`"),
            format!("block (result i32)  i32.const 7  {cond}  br_if 0  drop  i32.const 9  end"),
            Ok(want),
        );
    }
    // `if` with a store in each arm, so the final memory tells them apart.
    for (cond, want) in [
        ("i32.const 1", 11),
        ("i32.const 0", 22),
        ("i32.const 0  i32.eqz", 11),
        ("i32.const -1  i32.const 1  i32.add", 22),
    ] {
        case(
            &format!("if on `{cond}`"),
            format!(
                "{cond}
                 if (result i32)  i32.const 0  i32.const 170  i32.store8  i32.const 11
                 else             i32.const 4  i32.const 187  i32.store8  i32.const 22
                 end"
            ),
            Ok(want),
        );
    }
    case(
        "if on a constant, trapping arm taken",
        "i32.const 1  if  unreachable  end  i32.const 5".into(),
        Err(Trap::Unreachable),
    );
    // Inside a counted loop: two never-taken exits (one behind an eqz)...
    case(
        "never-taken constant exits inside a loop",
        "block $exit
           loop $top
             local.get $i  i32.const 5  i32.ge_s  br_if $exit
             i32.const 0  br_if $exit
             local.get $acc  i32.const 3  i32.add  local.set $acc
             i32.const 1  i32.eqz  br_if $exit
             local.get $i  i32.const 1  i32.add  local.set $i
             br $top
           end
         end
         local.get $acc"
            .into(),
        Ok(15),
    );
    // ...and an always-taken one that leaves on the first trip.
    case(
        "always-taken constant exit inside a loop",
        "block $exit
           loop $top
             local.get $i  i32.const 5  i32.ge_s  br_if $exit
             local.get $i  i32.const 1  i32.add  local.set $i
             i32.const 1  br_if $exit
             br $top
           end
         end
         local.get $i"
            .into(),
        Ok(1),
    );
    // `br_table` on a constant selector: first entry, last entry, and
    // past the table on either side of zero.
    for (sel, want) in [(0, 10), (1, 20), (2, 30), (7, 30), (-1, 30)] {
        case(
            &format!("br_table on `i32.const {sel}`"),
            format!(
                "block  block  block  i32.const {sel}  br_table 0 1 2  end
                   i32.const 10  return  end
                 i32.const 20  return  end
                 i32.const 30"
            ),
            Ok(want),
        );
    }
    // `select` on a constant condition over constant, local and computed
    // (stack-slot) operands.
    let slot_a = "local.get 0  i32.const 1  i32.add"; // 4
    let slot_b = "local.get 1  i32.const 2  i32.mul"; // 8
    for (a, b, va, vb) in [
        ("i32.const 5", "i32.const 6", 5, 6),
        ("local.get 0", "local.get 1", 3, 4),
        (slot_a, slot_b, 4, 8),
        ("i32.const 5", slot_b, 5, 8),
        (slot_a, "local.get 1", 4, 4),
        ("local.get 0", "i32.const 6", 3, 6),
    ] {
        for (cond, want) in [("i32.const 1", va), ("i32.const 0", vb)] {
            case(
                &format!("select `{a}` / `{b}` on `{cond}`"),
                format!("{a}  {b}  {cond}  select"),
                Ok(want),
            );
        }
    }
    case(
        "select of i64 operands on a constant",
        "i64.const 1  i64.const -2  i32.const 0  select  i32.wrap_i64".into(),
        Ok(-2),
    );
    // Nested constant `if`s with a counted loop in the arm never taken.
    case(
        "loop in a never-taken arm",
        "i32.const 1
         if (result i32)
           i32.const 0
           if (result i32)
             block $exit
               loop $top
                 local.get $i  i32.const 3  i32.ge_s  br_if $exit
                 local.get $i  i32.const 1  i32.add  local.set $i
                 br $top
               end
             end
             local.get $i
           else
             i32.const 40
           end
         else
           i32.const 50
         end"
        .into(),
        Ok(40),
    );
    cases
}

/// One case's body as the module's exported `main`.
fn constant_control_wasm(name: &str, body: &str) -> Vec<u8> {
    wat::assemble(&format!(
        r#"(module (memory 1)
             (func (export "main") (param i32 i32) (result i32)
               (local $i i32) (local $acc i32)
               {body}))"#
    ))
    .unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

#[test]
fn differential_constant_control() {
    let args = [Value::I32(3), Value::I32(4)];
    for (name, body, want) in constant_control_cases() {
        let wasm = constant_control_wasm(&name, &body);
        let module = Arc::new(load_module(&wasm).expect("validates"));
        let analysis = module
            .analysis()
            .unwrap_or_else(|e| panic!("{name}: lowering fails its proof: {e}"));
        let report = analysis.func(0);
        let (Some(fuel), Some(stack), Some(frames)) = (
            report.fuel.finite(),
            report.stack.finite(),
            report.frames.finite(),
        ) else {
            panic!("{name}: every loop here is counted, bounds must be finite: {report:?}");
        };

        let run = |mode, fuel, limits| {
            let mut inst =
                Instance::with_limits(module.clone(), &Linker::<()>::new(), (), limits).unwrap();
            inst.set_exec_mode(mode);
            inst.set_fuel(Some(fuel));
            let out = inst.invoke("main", &args);
            let memory = inst.memory().read_bytes(0, 65_536).unwrap().to_vec();
            (out, inst.fuel_consumed(), memory)
        };
        let reference = run(ExecMode::Reference, 100_000, ExecLimits::default());
        let reg = run(ExecMode::Reg, 100_000, ExecLimits::default());
        assert_eq!(reg.0, want.clone().map(|v| Some(Value::I32(v))), "{name}");
        assert_eq!(reference.0, reg.0, "{name}: result diverged");
        assert!(reference.2 == reg.2, "{name}: final memory diverged");
        // Mid-block traps may differ by less than a block (see the header).
        if want.is_ok() {
            assert_eq!(reference.1, reg.1, "{name}: fuel diverged");
        }

        // Static bounds dominate what ran: the call fits exactly the
        // analyzer's fuel, stack and frame budget, and no byte was written
        // at or above `mem_high`.
        let measured = reg.1.expect("metered");
        assert!(fuel >= measured, "{name}: fuel bound {fuel} < {measured}");
        let limits = ExecLimits {
            max_call_depth: frames as usize,
            max_value_stack: stack as usize,
            ..ExecLimits::default()
        };
        assert_eq!(
            run(ExecMode::Reg, fuel, limits),
            reg,
            "{name}: under its bounds"
        );
        assert!(!report.dynamic_mem, "{name}: every address is a literal");
        let touched = reg.2.iter().rposition(|&b| b != 0).map_or(0, |at| at + 1);
        assert!(
            report.mem_high >= touched as u64,
            "{name}: mem_high {} < {touched}",
            report.mem_high
        );

        // And the executors still agree when the fuel runs out half way.
        assert_modes_agree(&wasm, &args, measured / 2, &format!("{name}, half fuel"));
    }
}

/// Every flat op is lowered: no `pc_map` entry is the unmapped sentinel,
/// and each block leader — all a branch can target — maps to its register
/// `Meter`. (Inside a block an entry is only a placement hint: a later
/// address-chain fusion may pull ops out from under it.)
fn assert_pc_map_is_total(module: &Module, ctx: &str) {
    for f in 0..module.funcs.len() as u32 {
        let (cf, rf) = (module.compiled_func(f), module.reg_func(f));
        assert_eq!(rf.pc_map.len(), cf.ops.len(), "{ctx}: func {f}");
        for (pc, &q) in rf.pc_map.iter().enumerate() {
            assert_ne!(q, u32::MAX, "{ctx}: func {f} flat pc {pc} was not lowered");
            if let Op::Meter { cost, .. } = cf.ops[pc] {
                assert!(
                    matches!(rf.ops.get(q as usize), Some(ROp::Meter { cost: c, .. }) if *c == cost),
                    "{ctx}: func {f} block leader {pc} maps to register pc {q}"
                );
            }
        }
    }
}

#[test]
fn every_flat_op_of_the_corpus_is_lowered() {
    for seed in 0..300u64 {
        let wasm = waran_plugc::compile(&gen_program(seed)).expect("corpus compiles");
        let module = load_module(&wasm).expect("validates");
        assert_pc_map_is_total(&module, &format!("seed {seed}"));
    }
    for (name, body, _) in constant_control_cases() {
        let wasm = constant_control_wasm(&name, &body);
        assert_pc_map_is_total(&load_module(&wasm).expect("validates"), &name);
    }
}

// ---------------------------------------------------------------------
// Randomized corpus (proptest)
// ---------------------------------------------------------------------

mod proptests {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn differential_random_plugc(
            seed in any::<u64>(),
            a in any::<i32>(),
            b in any::<i32>(),
        ) {
            super::check_seed(seed, a, b);
        }
    }
}
