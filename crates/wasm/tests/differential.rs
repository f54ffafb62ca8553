//! Differential execution: the production register-form executor against
//! the test oracle, a tree walker over the decoded instructions with its
//! own memory (`util/oracle.rs`).
//!
//! Programs are generated in PlugC (the plugin language real workloads are
//! written in), compiled to Wasm, and run by both. They must agree on:
//!
//! * the result value (bit-for-bit) or the trap,
//! * `fuel_consumed()` and instructions retired on complete executions,
//!   each activation's price included,
//! * instructions retired on `OutOfFuel` traps (the block-metered executor
//!   retires exactly the remaining fuel before trapping, matching the
//!   per-instruction oracle) — except when a bulk memory op's byte charge
//!   or a `memory.grow`'s page charge ran out, where only fuel agrees
//!   (neither side has any left),
//! * the final memory bytes, unless a resource limit fired,
//! * what host functions saw.
//!
//! On traps that fire mid-block (e.g. division by zero) the two may differ
//! in fuel by less than one basic block — that is the documented
//! granularity change of block metering — so fuel is only compared on
//! completion and on fuel exhaustion. Fuel runs out at a block's `Meter`
//! in the executor and at the exact instruction in the oracle, so stores
//! earlier in that block may have run on one side only. The register-arena
//! cap is the executor's alone (the oracle has no arena); here it is left
//! at its default or set to the static `regs` bound, under which it must
//! never fire.
//!
//! The generator is seeded (xorshift64*), so the same corpus runs both as a
//! deterministic sweep and, below, under proptest with random seeds.

use std::sync::Arc;

use waran_wasm::builder::ModuleBuilder;
use waran_wasm::decode::{decode_module, DecodeErrorKind};
use waran_wasm::disasm::disassemble_reg;
use waran_wasm::instance::{Instance, Linker, BULK_BYTES_PER_FUEL, CALL_FUEL};
use waran_wasm::instr::{Instr, OpRow, OP_TABLE};
use waran_wasm::interp::Value;
use waran_wasm::types::{BlockType, ValType, PAGE_SIZE};
use waran_wasm::{load_module, Module, Trap};

#[path = "util/gen.rs"]
mod gen;
use gen::gen_program;

#[path = "util/oracle.rs"]
mod oracle;
use oracle::Oracle;

// ---------------------------------------------------------------------
// Both sides
// ---------------------------------------------------------------------

/// One side of a comparison, the production `Instance` or the oracle, seen
/// through what the contract compares.
trait Side<T> {
    fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap>;
    fn set_fuel(&mut self, fuel: u64);
    fn fuel_consumed(&self) -> Option<u64>;
    /// Instructions retired, calls completed and calls trapped so far.
    fn counts(&self) -> (u64, u64, u64);
    fn bytes(&self) -> &[u8];
    fn data(&mut self) -> &mut T;
}

impl<T> Side<T> for Instance<T> {
    fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        Instance::invoke(self, name, args)
    }
    fn set_fuel(&mut self, fuel: u64) {
        Instance::set_fuel(self, fuel)
    }
    fn fuel_consumed(&self) -> Option<u64> {
        Instance::fuel_consumed(self)
    }
    fn counts(&self) -> (u64, u64, u64) {
        let s = self.stats();
        (s.instrs, s.invokes, s.traps)
    }
    fn bytes(&self) -> &[u8] {
        let mem = self.memory();
        mem.read_bytes(0, mem.size_bytes() as u32).unwrap()
    }
    fn data(&mut self) -> &mut T {
        &mut self.data
    }
}

impl<T> Side<T> for Oracle<T> {
    fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        Oracle::invoke(self, name, args)
    }
    fn set_fuel(&mut self, fuel: u64) {
        Oracle::set_fuel(self, fuel)
    }
    fn fuel_consumed(&self) -> Option<u64> {
        Oracle::fuel_consumed(self)
    }
    fn counts(&self) -> (u64, u64, u64) {
        (self.instrs, self.invokes, self.traps)
    }
    fn bytes(&self) -> &[u8] {
        &self.memory
    }
    fn data(&mut self) -> &mut T {
        &mut self.data
    }
}

/// `module` instantiated on both sides: `(production, oracle)`.
fn both<T>(
    module: &Arc<Module>,
    linker: &Linker<T>,
    data: impl Fn() -> T,
) -> (Instance<T>, Oracle<T>) {
    let inst = Instance::new(module.clone(), linker, data()).unwrap();
    let oracle = Oracle::new(module.clone(), linker, data()).unwrap();
    (inst, oracle)
}

/// What one call of `main` left behind on one side.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Option<Bits>, Trap>,
    fuel: Option<u64>,
    instrs: u64,
    traps: u64,
    memory: Vec<u8>,
}

fn outcome<S: Side<()>>(side: &mut S, args: &[Value], fuel: u64) -> Outcome {
    side.set_fuel(fuel);
    let result = side.invoke("main", args).map(|v| v.map(bits));
    let (instrs, _, traps) = side.counts();
    Outcome {
        result,
        fuel: side.fuel_consumed(),
        instrs,
        traps,
        memory: side.bytes().to_vec(),
    }
}

/// Hold one call's two outcomes to the contract in the header. Returns the
/// fuel consumed when the call completed.
fn assert_outcomes_agree(oracle: &Outcome, ours: &Outcome, ctx: &str) -> Option<u64> {
    assert_eq!(oracle.result, ours.result, "result diverged ({ctx})");
    assert_eq!(oracle.traps, ours.traps, "trap count diverged ({ctx})");
    match &oracle.result {
        Ok(_) | Err(Trap::OutOfFuel) => {
            assert_eq!(oracle.fuel, ours.fuel, "fuel diverged ({ctx})");
            assert_eq!(oracle.instrs, ours.instrs, "instrs diverged ({ctx})");
        }
        // Mid-block traps: fuel may differ by < 1 block (documented).
        Err(_) => {}
    }
    if !matches!(&oracle.result, Err(t) if t.is_resource_exhaustion()) {
        assert!(
            oracle.memory == ours.memory,
            "final memory diverged ({ctx})"
        );
    }
    oracle.result.as_ref().ok().and(oracle.fuel)
}

/// Run `main(args)` once on fresh instances of both sides and assert the
/// contract. Returns the fuel consumed when the program completed.
fn assert_agree(wasm: &[u8], args: &[Value], fuel: u64, ctx: &str) -> Option<u64> {
    let module = Arc::new(load_module(wasm).expect("generated module validates"));
    let (mut inst, mut oracle) = both(&module, &Linker::new(), || ());
    let ours = outcome(&mut inst, args, fuel);
    assert_outcomes_agree(&outcome(&mut oracle, args, fuel), &ours, ctx)
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
    if let Some(consumed) = assert_agree(&wasm, &args, 5_000_000, &ctx) {
        if consumed > 1 {
            assert_agree(&wasm, &args, consumed / 2, &format!("{ctx}, half fuel"));
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
        assert_agree(&wasm, &args, 1_000_000, &format!("br_table sel {sel}"));
    }
    // Spot-check the actual values through the production executor.
    let mut inst = Instance::new(load_module(&wasm).unwrap().into(), &Linker::new(), ()).unwrap();
    assert_eq!(
        inst.invoke("main", &[Value::I32(1)]),
        Ok(Some(Value::I32(20)))
    );
    assert_eq!(
        inst.invoke("main", &[Value::I32(9)]),
        Ok(Some(Value::I32(30)))
    );
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
        let consumed = assert_agree(&wasm, &args, 5_000_000, &format!("scheduler n={n}"));
        if let Some(consumed) = consumed {
            if consumed > 1 {
                assert_agree(
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
    // Calls to helpers with and without control flow: fuel parity with
    // the reference walker across each real call (call = 1 plus the
    // activation price, each body instruction = 1, the return/end
    // terminator = 1). PlugC's own optimiser removes one-line helpers
    // (`weight`) before the VM sees them; `probe` returns a value after
    // two statements, so it reaches the VM as a call, and so does `mix`.
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
    // Function order: wrn_alloc (ABI prelude), weight, probe, mix, main.
    let main = &module.funcs[module.exported_func("main").unwrap() as usize].code;
    let calls = |func| main.contains(&waran_wasm::instr::Instr::Call { func });
    assert!(
        !calls(1) && calls(2),
        "PlugC inlines `weight`; the straight-line leaf `probe` must reach the VM as a call"
    );
    for n in [0, 1, 5, 40] {
        let args = [Value::I32(n), Value::I32(96)];
        let consumed = assert_agree(&wasm, &args, 5_000_000, &format!("leaf calls n={n}"));
        if let Some(consumed) = consumed {
            if consumed > 1 {
                assert_agree(
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
// conversion, `trunc_sat` and narrow load/store long tail would meet the
// oracle only in hand-picked cases. This section takes the opcodes from
// the operator table, decodes each, derives its signature from the
// validator by brute force (an independent check on the table's
// signature column) and runs `local.get… ; op` over edge operands on both
// sides and under the load-time proof.

/// The instruction `bytes` decode to as a whole function body, or the
/// decoder's error. A control or variable byte whose immediate swallows
/// the `end` decodes alone: the decoder records a body as written and
/// leaves its nesting to the type check.
fn decode_opcode(bytes: &[u8]) -> Result<Instr, DecodeErrorKind> {
    let mut wasm = b"\0asm\x01\0\0\0".to_vec();
    wasm.extend([0x01, 0x04, 0x01, 0x60, 0x00, 0x00]); // type 0: () -> ()
    wasm.extend([0x03, 0x02, 0x01, 0x00]); // one function of type 0
    let body_len = bytes.len() as u8 + 2; // no locals … `end`
    wasm.extend([0x0a, body_len + 2, 0x01, body_len, 0x00]);
    wasm.extend(bytes);
    wasm.push(0x0b);
    let module = decode_module(&wasm).map_err(|e| e.kind)?;
    match &module.funcs[0].code[..] {
        [op, Instr::End] => Ok(op.clone()),
        [op] if !is_plain(op) => Ok(op.clone()),
        other => panic!("{bytes:02x?} decoded to {other:?}"),
    }
}

/// Whether `instr` is a row of the operator table.
fn is_plain(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::I32Bin(_)
            | Instr::I64Bin(_)
            | Instr::Bin(_)
            | Instr::Un(_)
            | Instr::Load(..)
            | Instr::Store(..)
    )
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
/// the validator accepts for `op`: its operand types, its result types
/// and the module.
fn plain_op_signature(op: &Instr) -> (Vec<ValType>, Vec<ValType>, Module) {
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
        .filter_map(|(p, r)| Some((p.clone(), r.clone(), plain_op_module(op, &p, &r)?)));
    let found = valid
        .next()
        .unwrap_or_else(|| panic!("{op:?}: no shape validates"));
    assert!(valid.next().is_none(), "{op:?}: signature is ambiguous");
    found
}

/// Edge operands per type. The i32 list doubles as the address list of
/// the memory ops (static offset 4 on a 65536-byte memory): in bounds,
/// straddling the end for accesses wider than two bytes, ending exactly at
/// the last byte for each access width (1, 2, 4 and 8 bytes), and wrapping
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
            65_531,
            65_530,
            65_528,
            65_524,
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

/// Both sides of a one-op module that passed its proof, with a byte
/// pattern at each end of the page so loads see sign bits and distinct
/// bytes, also at the very end.
fn patterned(module: Module, op: &Instr) -> (Instance<()>, Oracle<()>) {
    module
        .analysis()
        .unwrap_or_else(|e| panic!("{op:?}: lowering fails its proof: {e}"));
    let module = Arc::new(module);
    let (mut inst, mut oracle) = both(&module, &Linker::new(), || ());
    let pattern: Vec<u8> = (0..64u32).map(|i| (i * 37 + 0x85) as u8).collect();
    for at in [0, 65_536 - 64] {
        inst.memory_mut().write_bytes(at as u32, &pattern).unwrap();
        oracle.memory[at..at + 64].copy_from_slice(&pattern);
    }
    (inst, oracle)
}

/// One call of a one-op `main` on both sides under `fuel`, at least the
/// body's block: the result agrees, each side charges the body's exact
/// cost — `charge` is what the op pays on top of its instruction when it
/// runs — and the final memory agrees byte for byte unless the fuel ran
/// out (block metering has paid for the `end` before the op's charge, so
/// the oracle may finish an op the executor could not pay for).
fn one_op_agrees(
    sides: &mut (Instance<()>, Oracle<()>),
    args: &[Value],
    charge: u64,
    fuel: u64,
    ctx: &str,
) -> Result<(), Trap> {
    let (inst, oracle) = sides;
    // The activation's price and the source instructions in the body: the
    // gets, the op, the `end`.
    let cost = u64::from(CALL_FUEL) + args.len() as u64 + 2;
    inst.set_fuel(fuel);
    oracle.set_fuel(fuel);
    let ours = inst.invoke("main", args).map(|v| v.map(bits));
    let theirs = oracle.invoke("main", args).map(|v| v.map(bits));
    assert_eq!(theirs, ours, "result diverged ({ctx})");
    let (oracle_cost, our_cost) = match &ours {
        Ok(_) => (cost + charge, cost + charge),
        Err(Trap::OutOfFuel) => (fuel, fuel),
        // The oracle stops at the trapping instruction; block metering has
        // charged the whole block, `end` included.
        Err(_) => (cost - 1, cost),
    };
    assert_eq!(
        oracle.fuel_consumed(),
        Some(oracle_cost),
        "oracle fuel ({ctx})"
    );
    assert_eq!(
        inst.fuel_consumed(),
        Some(our_cost),
        "register fuel ({ctx})"
    );
    if ours == Err(Trap::OutOfFuel) {
        // The next call starts both sides from the executor's bytes (and
        // pages: the oracle may have finished a grow).
        oracle.memory = inst.bytes().to_vec();
    }
    assert!(
        inst.bytes() == oracle.memory,
        "final memory diverged ({ctx})"
    );
    ours.map(drop)
}

#[test]
fn differential_every_plain_opcode() {
    // Memory accesses carry an (align, offset) immediate; offset 4 keeps
    // the static-offset plumbing in play.
    let ops: Vec<(Instr, &OpRow)> = OP_TABLE
        .iter()
        .map(|&row| {
            let mut bytes = vec![row.opcode];
            bytes.extend(row.sub.map(|sub| sub as u8));
            if row.width.is_some() {
                bytes.extend([0x00, 0x04]);
            }
            let op = decode_opcode(&bytes)
                .unwrap_or_else(|e| panic!("{}: {bytes:02x?} fails to decode: {e:?}", row.name));
            (op, row)
        })
        .collect();
    let memory = OP_TABLE.iter().filter(|row| row.width.is_some()).count();
    let prefixed = OP_TABLE.iter().filter(|row| row.sub.is_some()).count();
    assert_eq!(
        (memory, ops.len() - memory - prefixed, prefixed),
        (23, 128, 8),
        "plain opcodes: memory, numeric, saturating"
    );

    // Every other byte, and every other 0xfc sub-opcode up to the
    // bulk-memory ones, is an instruction outside the table or unknown.
    let in_table = |opcode: u8, sub: Option<u32>| {
        OP_TABLE
            .iter()
            .any(|row| (row.opcode, row.sub) == (opcode, sub))
    };
    for byte in (0x00..=0xff_u8).filter(|&b| b != 0xfc && !in_table(b, None)) {
        let decoded = decode_opcode(&[byte]);
        // Control, variables, memory.size/grow and the constants.
        if matches!(byte, 0x00..=0x05 | 0x0b..=0x11 | 0x1a | 0x1b | 0x20..=0x24 | 0x3f..=0x44) {
            assert!(
                !matches!(&decoded, Err(DecodeErrorKind::BadOpcode(_)))
                    && !decoded.as_ref().is_ok_and(is_plain),
                "{byte:#04x}: {decoded:?}"
            );
        } else {
            assert_eq!(decoded, Err(DecodeErrorKind::BadOpcode(byte)));
        }
    }
    for sub in (0x00..=0x11_u8).filter(|&sub| !in_table(0xfc, Some(sub.into()))) {
        let decoded = decode_opcode(&[0xfc, sub]);
        if matches!(sub, 0x0a | 0x0b) {
            // memory.copy and memory.fill, missing their index bytes.
            assert_eq!(decoded, Err(DecodeErrorKind::NonZeroIndex));
        } else {
            assert_eq!(decoded, Err(DecodeErrorKind::BadPrefixedOpcode(sub.into())));
        }
    }

    let (mut completed, mut trapped) = (0u32, 0u32);
    for (op, row) in &ops {
        let (params, results, module) = plain_op_signature(op);
        assert_eq!(
            (&params[..], &results[..]),
            (row.params, row.result.as_slice()),
            "{}: the table's signature disagrees with the validator's",
            row.name
        );
        let mut sides = patterned(module, op);
        let firsts = edge_operands(params[0]);
        let seconds = params.get(1).map_or(vec![None], |&ty| {
            edge_operands(ty).into_iter().map(Some).collect()
        });
        for &a in &firsts {
            for &b in &seconds {
                let args: Vec<Value> = std::iter::once(a).chain(b).collect();
                let ctx = format!("{op:?} {args:?}");
                if one_op_agrees(&mut sides, &args, 0, 1_000, &ctx).is_ok() {
                    completed += 1;
                } else {
                    trapped += 1;
                }
            }
        }
    }
    // Non-vacuous on both paths: most cases complete, and every trapping
    // family (bounds, div/rem, float→int range) contributes traps.
    assert!(
        completed > 5_000 && trapped > 500,
        "{completed} completed, {trapped} trapped"
    );

    // `memory.copy` (dst, src, len) and `memory.fill` (dst, byte, len)
    // take three i32s, a shape the sweep above does not try. Ranges end
    // exactly at the last byte and one past it, are empty at 65536 and
    // 65537, wrap past 2³², and overlap forwards and backwards (16 ← 8 and
    // 8 ← 16 over 32 bytes, and 40 bytes ending at the last byte). Each
    // in-bounds op pays ⌈len / 16⌉ on top of its instruction, so every
    // case runs with fuel that ends inside that charge on both sides, on
    // the executor's side only (the oracle has not paid for `end` yet),
    // exactly on it, and one unit after it.
    let addrs = [
        0, 8, 16, 65_488, 65_496, 65_528, 65_529, 65_535, 65_536, 65_537, -8,
    ];
    let lens = [0, 1, 8, 9, 15, 16, 17, 32, 40, 65_536];
    let (mut completed, mut trapped, mut exhausted) = (0u32, 0u32, 0u32);
    for (bytes, middles) in [
        (&[0xfc, 0x0a, 0x00, 0x00][..], &addrs[..]),
        (&[0xfc, 0x0b, 0x00], &[0x1a5, -1]),
    ] {
        let op = decode_opcode(bytes).expect("bulk-memory opcode decodes");
        let module = plain_op_module(&op, &[ValType::I32; 3], &[]).expect("op validates");
        let mut sides = patterned(module, &op);
        for dst in addrs {
            for &mid in middles {
                for len in lens {
                    let args = [dst, mid, len].map(Value::I32);
                    let charge = u64::from((len as u32).div_ceil(BULK_BYTES_PER_FUEL));
                    // The body is one block of five instructions and the
                    // call's price: fuel below that stops at the `Meter`
                    // before any op runs.
                    let block = 5 + u64::from(CALL_FUEL);
                    for fuel in (block + charge - 2).max(block)..=block + charge + 1 {
                        let ctx = format!("{op:?} {args:?}, fuel {fuel}");
                        match one_op_agrees(&mut sides, &args, charge, fuel, &ctx) {
                            Ok(()) => completed += 1,
                            Err(Trap::OutOfFuel) => exhausted += 1,
                            Err(_) => trapped += 1,
                        }
                    }
                }
            }
        }
    }
    assert!(
        completed >= 300 && trapped >= 600 && exhausted >= 200,
        "bulk memory: {completed} completed, {trapped} trapped, {exhausted} out of fuel"
    );
}

// ---------------------------------------------------------------------
// Every register tag
// ---------------------------------------------------------------------
// The executor runs each (register form, operator) pair of the i32
// binops, compare-and-branches, `Bin`/`Un` rows and loads and stores
// under a tag of its own. Each row is lowered here once per register form
// its family has — both operands in registers, a constant operand, a
// fused compare-and-branch, each folded address shape and a constant
// store value — and run on both sides over edge operands: the result
// bits, the trap and the fuel must agree. The listing shows that the
// intended form was emitted, so no tag goes unrun. The one form the
// lowering never emits, a constant-value store of 8 bytes (it folds i32
// and f32 constants only), has its tag but no case.

/// A register form, as the body that makes the lowering emit it.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Every operand a parameter register.
    Plain,
    /// i32 binop with a constant right operand.
    Const(i32),
    /// i32 binop feeding `br_if`, over two registers.
    BrIfCmp,
    /// i32 binop with a constant feeding `br_if`.
    BrIfCmpC(i32),
    /// Address `a + k`.
    At,
    /// Address `a + b`.
    Rr,
    /// Address `a + (b << 2) + k`.
    Bis,
    /// Address `a + k`, constant stored value.
    ConstValue,
}

/// The displacement every folded address carries: an address below 4
/// wraps past 2³² and traps out of bounds.
const DISP: i32 = -4;

/// The forms a row's family lowers to.
fn forms_of(op: &Instr) -> Vec<Form> {
    use Form::*;
    match op {
        Instr::I32Bin(_) => [-1, 5, 33]
            .into_iter()
            .flat_map(|k| [Const(k), BrIfCmpC(k)])
            .chain([Plain, BrIfCmp])
            .collect(),
        Instr::Bin(_) | Instr::Un(_) => vec![Plain],
        Instr::Load(..) => vec![Plain, At, Rr, Bis],
        Instr::Store(..) => vec![Plain, At, Rr, Bis, ConstValue],
        _ => vec![],
    }
}

/// `main` lowering `op` (a table row, static offset 4 on a memory access)
/// to `form`: its parameters, and the listing text the form shows. `None`
/// when the row has no such form (a constant-value store of an i64).
fn form_module(op: &Instr, row: &OpRow, form: Form) -> Option<(Module, Vec<ValType>, String)> {
    use ValType::I32;
    let name = match op {
        Instr::I32Bin(o) => format!("i32.{o:?}"),
        Instr::Bin(o) => format!("{o:?}"),
        Instr::Un(o) => format!("{o:?}"),
        Instr::Load(kind, _) => format!("load.{kind:?}"),
        Instr::Store(kind, _) => format!("store.{kind:?}"),
        _ => return None,
    };
    let store = row.result.is_none();
    // A store's value comes after its address operands.
    let (params, needle): (Vec<ValType>, String) = match form {
        Form::Plain if store => (row.params.to_vec(), format!("{name} [r0+4] = r1")),
        Form::Plain if row.width.is_some() => (row.params.to_vec(), format!("= {name} [r0+4]")),
        Form::Plain if row.params.len() == 1 => (row.params.to_vec(), format!("= {name} r0")),
        Form::Plain => (row.params.to_vec(), format!("= {name} r0 r1")),
        Form::Const(k) => (vec![I32], format!("= {name} r0 {k}")),
        Form::BrIfCmp => (vec![I32, I32], format!("br_if ({name} r0 r1)")),
        Form::BrIfCmpC(k) => (vec![I32], format!("br_if ({name} r0 {k})")),
        Form::At if store => (row.params.to_vec(), format!("{name} [r0{DISP}+4] = r1")),
        Form::At => (vec![I32], format!("= {name} [r0{DISP}+4]")),
        Form::Rr if store => (
            vec![I32, I32, row.params[1]],
            format!("{name} [r0+r1+4] = r2"),
        ),
        Form::Rr => (vec![I32, I32], format!("= {name} [r0+r1+4]")),
        Form::Bis if store => (
            vec![I32, I32, row.params[1]],
            format!("{name} [r0+(r1<<2){DISP}+4] = r2"),
        ),
        Form::Bis => (vec![I32, I32], format!("= {name} [r0+(r1<<2){DISP}+4]")),
        Form::ConstValue if matches!(row.params[1], I32 | ValType::F32) => {
            (vec![I32], format!("{name} [r0{DISP}+4] = const"))
        }
        Form::ConstValue => return None,
    };
    let mut mb = ModuleBuilder::new();
    mb.memory(1, Some(1));
    let sig = mb.func_type(&params, row.result.as_slice());
    let f = mb.begin_func(sig);
    let c = mb.code();
    match form {
        Form::Plain => {
            for i in 0..params.len() as u32 {
                c.local_get(i);
            }
            c.raw(op.clone());
        }
        Form::Const(k) => {
            c.local_get(0).i32_const(k).raw(op.clone());
        }
        Form::BrIfCmp | Form::BrIfCmpC(_) => {
            c.block(BlockType::Empty).local_get(0);
            match form {
                Form::BrIfCmpC(k) => c.i32_const(k),
                _ => c.local_get(1),
            };
            // Answers 9 when the branch is taken, 7 when not.
            c.raw(op.clone())
                .br_if(0)
                .i32_const(7)
                .raw(Instr::Return)
                .end()
                .i32_const(9);
        }
        Form::At | Form::ConstValue => {
            c.local_get(0).i32_const(DISP).i32_add();
        }
        Form::Rr => {
            c.local_get(0).local_get(1).i32_add();
        }
        Form::Bis => {
            c.local_get(0)
                .local_get(1)
                .i32_const(2)
                .i32_shl()
                .i32_add()
                .i32_const(DISP)
                .i32_add();
        }
    }
    if matches!(form, Form::At | Form::Rr | Form::Bis | Form::ConstValue) {
        let value = params.len() as u32 - 1;
        match form {
            Form::ConstValue if row.params[1] == I32 => {
                c.i32_const(0x1234_5687);
            }
            Form::ConstValue => {
                c.f32_const(-2.5);
            }
            _ if store => {
                c.local_get(value);
            }
            _ => {}
        }
        c.raw(op.clone());
    }
    mb.end_func().ok()?;
    mb.export_func("main", f);
    let module = load_module(&mb.finish_bytes().ok()?).expect("the case validates");
    Some((module, params, needle))
}

#[test]
fn differential_every_register_tag() {
    let (mut cases, mut completed, mut trapped) = (0u32, 0u32, 0u32);
    for &row in OP_TABLE {
        let mut bytes = vec![row.opcode];
        bytes.extend(row.sub.map(|sub| sub as u8));
        if row.width.is_some() {
            bytes.extend([0x00, 0x04]);
        }
        let op = decode_opcode(&bytes).expect("a table row decodes");
        for form in forms_of(&op) {
            let Some((module, params, needle)) = form_module(&op, row, form) else {
                continue;
            };
            assert!(
                lowered_with(&module, "main", &needle),
                "{} as {form:?}: no `{needle}` in\n{}",
                row.name,
                disassemble_reg(&module)
            );
            cases += 1;
            let (mut inst, mut oracle) = patterned(module, &op);
            // Every combination of the first two operands' edge values;
            // a store's value operand, when third, cycles through its own.
            let lists: Vec<Vec<Value>> = params.iter().map(|&ty| edge_operands(ty)).collect();
            let seconds = lists.get(1).map_or(1, Vec::len);
            for (i, &a) in lists[0].iter().enumerate() {
                for j in 0..seconds {
                    let mut args = vec![a];
                    args.extend(lists.get(1).map(|l| l[j]));
                    args.extend(lists.get(2).map(|l| l[(i * seconds + j) % l.len()]));
                    let ctx = format!("{} as {form:?} {args:?}", row.name);
                    inst.set_fuel(1_000);
                    oracle.set_fuel(1_000);
                    let ours = inst.invoke("main", &args).map(|v| v.map(bits));
                    let theirs = oracle.invoke("main", &args).map(|v| v.map(bits));
                    assert_eq!(theirs, ours, "result diverged ({ctx})");
                    // The oracle stops at the trapping op, the body's last
                    // before `end`; block metering has charged the `end`.
                    let unpaid = u64::from(ours.is_err());
                    assert_eq!(
                        oracle.fuel_consumed().map(|f| f + unpaid),
                        inst.fuel_consumed(),
                        "fuel diverged ({ctx})"
                    );
                    assert!(inst.bytes() == oracle.memory, "memory diverged ({ctx})");
                    match ours {
                        Ok(_) => completed += 1,
                        Err(_) => trapped += 1,
                    }
                }
            }
        }
    }
    // Four forms of 21 i32 rows (three constants each for the constant
    // ones), 34 `Bin` and 60 `Un` rows, four forms of 14 loads, four of 9
    // stores and the constant-value form of the 4 with an i32 or f32
    // value.
    assert_eq!(cases, 21 * 8 + 34 + 60 + 14 * 4 + 9 * 4 + 4);
    assert!(
        completed > 10_000 && trapped > 1_000,
        "{completed} completed, {trapped} trapped"
    );
}

#[test]
fn differential_memory_grow_pays_per_page() {
    // `main(delta)` is `local.get 0; memory.grow` on one page of at most
    // three. A grow the cap allows pays PAGE_SIZE / BULK_BYTES_PER_FUEL per
    // page before the page is added; one the cap refuses, and `delta = 0`,
    // pay only the instruction.
    let wasm = waran_wat::assemble(
        r#"(module (memory 1 3)
          (func (export "main") (param i32) (result i32) local.get 0 memory.grow))"#,
    )
    .unwrap();
    let fresh = || patterned(load_module(&wasm).unwrap(), &Instr::MemoryGrow);
    let page = (PAGE_SIZE as u32 / BULK_BYTES_PER_FUEL) as u64;
    let grow = |sides: &mut (Instance<()>, Oracle<()>), delta: i32, charge: u64, fuel: u64| {
        let ctx = format!("memory.grow {delta}, fuel {fuel}");
        one_op_agrees(sides, &[Value::I32(delta)], charge, fuel, &ctx)
    };

    let mut sides = fresh();
    assert_eq!(grow(&mut sides, 0, 0, 100), Ok(()));
    assert_eq!(grow(&mut sides, 1, page, 10_000), Ok(()));
    assert_eq!(sides.0.memory().size_pages(), 2);
    // One page past the cap: -1, nothing on top of the instruction.
    assert_eq!(grow(&mut sides, 2, 0, 100), Ok(()));
    assert_eq!(
        sides.0.invoke("main", &[Value::I32(2)]),
        Ok(Some(Value::I32(-1)))
    );
    assert_eq!(sides.0.memory().size_pages(), 2);

    // Two pages with fuel ending inside the charge on both sides, on the
    // executor's side only (the oracle has not paid for `end` yet),
    // exactly on it and one unit after it. The body is one block of three
    // instructions and the call's price.
    let block = 3 + u64::from(CALL_FUEL);
    for fuel in block + 2 * page - 2..=block + 2 * page + 1 {
        let mut sides = fresh();
        let result = grow(&mut sides, 2, 2 * page, fuel);
        if fuel < block + 2 * page {
            assert_eq!(result, Err(Trap::OutOfFuel), "fuel {fuel}");
            assert_eq!(sides.0.memory().size_pages(), 1, "fuel {fuel}");
        } else {
            assert_eq!(result, Ok(()), "fuel {fuel}");
            assert_eq!(sides.0.memory().size_pages(), 3, "fuel {fuel}");
        }
    }
}

// ---------------------------------------------------------------------
// Host-call differential
// ---------------------------------------------------------------------
//
// Everything above instantiates with an empty `Linker`, so it never
// crosses the guest→host boundary. The executor re-tags a register window
// into the host's arguments, the oracle pops them off its value stack and
// lends its bytes as a `Memory`, and a re-exported import bypasses both;
// this section runs one module through every such path on both sides and
// compares what the guest, the host and the embedder can each observe.

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

  ;; Straight-line helper: a host call from a nested frame.
  (func $leaf (param i32) (result i32)
    local.get 0 call $add3 i32.const 1 i32.add)

  ;; Host calls from a nested frame under control flow.
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

/// What one side did with the call script on one instance.
#[derive(Debug, PartialEq)]
struct HostRun {
    calls: Vec<HostCall>,
    invokes: u64,
    traps: u64,
    memory: Vec<u8>,
    log: HostLog,
}

fn host_run<S: Side<HostLog>>(mut side: S) -> HostRun {
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
        side.set_fuel(1_000_000);
        let before = side.counts().0;
        let out = side.invoke(name, args);
        let instrs = side.counts().0 - before;
        let pinned = out.is_ok() || instrs == 0;
        let fuel = side.fuel_consumed().filter(|_| pinned);
        calls.push((out, fuel, if pinned { instrs } else { 0 }));
    }
    let (_, invokes, traps) = side.counts();
    HostRun {
        calls,
        invokes,
        traps,
        memory: side.bytes().to_vec(),
        log: std::mem::take(side.data()),
    }
}

#[test]
fn differential_host_calls() {
    let wasm = waran_wat::assemble(HOST_WAT).expect("host module assembles");
    let module = Arc::new(load_module(&wasm).expect("host module validates"));
    let (inst, oracle) = both(&module, &host_linker(), HostLog::new);
    let reg = host_run(inst);
    assert_eq!(host_run(oracle), reg);

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
// clean cells. This section crosses the two sides where a cell's
// history could show: a word that last held an i64 and now holds an i32,
// a callee's declared locals over a window the caller used, bit patterns
// that only survive if nothing re-interprets them on the way, and the
// host boundary where a `Value` is rebuilt from a declaration.

type Bits = (ValType, u64);

/// Both sides of one module that passed its proof.
fn wat_pair<T>(src: &str, linker: &Linker<T>, data: impl Fn() -> T) -> (Instance<T>, Oracle<T>) {
    let wasm = waran_wat::assemble(src).expect("module assembles");
    let module = Arc::new(load_module(&wasm).expect("module validates"));
    module.analysis().expect("lowering passes its proof");
    both(&module, linker, data)
}

/// Call `name(args)` on both sides: result bits or trap agree, so does
/// the final memory, and so does `fuel_consumed()` when the call completes
/// (a mid-block trap may differ by less than one block, see the header).
/// Returns the agreed outcome.
fn call_pair<T>(
    (inst, oracle): &mut (Instance<T>, Oracle<T>),
    name: &str,
    args: &[Value],
) -> Result<Option<Bits>, Trap> {
    inst.set_fuel(1_000_000);
    oracle.set_fuel(1_000_000);
    let ours = inst.invoke(name, args).map(|v| v.map(bits));
    let theirs = oracle.invoke(name, args).map(|v| v.map(bits));
    let ctx = format!("{name} {args:?}");
    assert_eq!(theirs, ours, "result diverged ({ctx})");
    if ours.is_ok() {
        assert_eq!(
            oracle.fuel_consumed(),
            inst.fuel_consumed(),
            "fuel diverged ({ctx})"
        );
    }
    assert!(
        inst.bytes() == oracle.memory,
        "final memory diverged ({ctx})"
    );
    ours
}

/// Does the register code of export `name` have a listing line (see
/// `disassemble_reg`) containing `needle`?
fn lowered_with(module: &Module, name: &str, needle: &str) -> bool {
    let header = format!("func $f{} (", module.exported_func(name).unwrap());
    let listing = disassemble_reg(module);
    let mut lines = listing.lines().skip_while(|l| !l.starts_with(&header));
    lines.next().expect("export listed");
    lines
        .take_while(|l| !l.starts_with("func "))
        .any(|l| l.contains(needle))
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
    let mut sides = wat_pair(DIRTY_WAT, &linker, Vec::new);
    let module = sides.0.module().clone();
    // The fused address forms are really what runs: `[ra+rb+off]`
    // (LoadRR) and `[ra+(rb<<sh)+k+off]` (LoadBis).
    assert!(lowered_with(&module, "load_rr", "+r"));
    assert!(lowered_with(&module, "load_bis", "<<"));

    // `!a` lands on 0, 1, 2, u32::MAX, i32::MIN and the top of the
    // one-page memory; `b` moves the address across the end and around
    // 2³².
    let firsts = [-1, -2, -3, 0, i32::MAX, !65_535, !65_534, !65_532];
    let seconds = [0, 1, 2, -1, 16_383, 16_384];
    let (mut completed, mut trapped) = (0u32, 0u32);
    for name in ["extend", "load_rr", "load_bis", "table", "grow", "host"] {
        for a in firsts {
            for b in seconds {
                match call_pair(&mut sides, name, &[Value::I32(a), Value::I32(b)]) {
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
    let (reg, oracle) = (&sides.0.data, &sides.1.data);
    assert_eq!(oracle, reg, "host saw different arguments");
    assert_eq!(reg.len(), firsts.len() * seconds.len());
    assert!(reg.contains(&Value::I32(-1)) && reg.contains(&Value::I32(i32::MIN)));

    // Anchors, so "both wrong the same way" cannot pass: a stale upper
    // half would show as a wide value, a wild address, the default arm, a
    // refused grow.
    let mut sides = wat_pair(DIRTY_WAT, &linker, Vec::new);
    let mut run =
        |name: &str, a: i32, b: i32| call_pair(&mut sides, name, &[Value::I32(a), Value::I32(b)]);
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
    let mut sides = wat_pair(LOCALS_WAT, &Linker::<()>::new(), || ());
    let module = sides.0.module().clone();
    assert!(
        lowered_with(&module, "twice", "call $f"),
        "the callee was inlined: the test no longer enters a frame"
    );
    let mut cases = 0u32;
    for n in [1, 2, 3, 7, 100] {
        // Twice per instance too: the register file persists across calls.
        for _ in 0..2 {
            let out = call_pair(&mut sides, "twice", &[Value::I32(n)]);
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
        let mut sides = wat_pair(&preserve_wat(ty), &Linker::<()>::new(), || ());
        for v in values {
            for name in [
                "entry", "copy", "select_a", "select_b", "carry", "global", "memory",
            ] {
                let out = call_pair(&mut sides, name, &[v]);
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
    let mut sides = wat_pair(BOUNDARY_WAT, &linker, Vec::new);

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
            call_pair(&mut sides, "four", &args),
            Ok(Some((I64, l as u64)))
        );
        expected_log.push(exact.clone());

        assert_eq!(call_pair(&mut sides, "nine", &args), Ok(Some((F64, d))));
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
        assert_eq!(call_pair(&mut sides, "wrong", &args), Err(mistyped));
        expected_log.push(vec![exact[2]]);
    }
    assert_eq!(sides.0.data, expected_log, "production");
    assert_eq!(sides.1.data, expected_log, "oracle");
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
        // A computed `i32.eqz` the branch takes by flipping its sense.
        ("local.get 0  i32.const 3  i32.sub  i32.eqz", 11),
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
    // An `i32.eqz` as the last op before a block's end, which a branch
    // also reaches: no branch takes it, so it is lowered before the join.
    for (value, want) in [
        ("local.get 0  i32.const 3  i32.lt_s  i32.eqz", 1),
        ("local.get 0  i32.eqz", 0),
    ] {
        case(
            &format!("`{value}` before a join"),
            format!(
                "block (result i32)
                   i32.const 9  local.get 0  i32.const 3  i32.ne  br_if 0
                   drop  {value}
                 end"
            ),
            Ok(want),
        );
    }
    // A loop no branch returns to, entered with a local and a constant on
    // the operand stack: its header is a join, so both are materialized
    // before it (the listing is pinned in `regalloc`'s unit tests).
    case(
        "loop without a back edge over lazy operands",
        "local.get 0  i32.const 5  loop (result i32)  local.get 1  end  i32.add  i32.add".into(),
        Ok(12),
    );
    // ...and one a back edge returns to, over the local it increments:
    // the value below the loop is `$i` as it was on entry.
    case(
        "loop with a back edge over its own lazy local",
        "local.get $i
         loop
           local.get $i  i32.const 1  i32.add  local.set $i
           local.get $i  i32.const 3  i32.lt_s  br_if 0
         end
         local.get $i  i32.sub"
            .into(),
        Ok(-3),
    );
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
    waran_wat::assemble(&format!(
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
        let (Some(fuel), Some(regs), Some(frames)) = (
            report.fuel.finite(),
            report.regs.finite(),
            report.frames.finite(),
        ) else {
            panic!("{name}: every loop here is counted, bounds must be finite: {report:?}");
        };

        let (mut inst, mut oracle) = both(&module, &Linker::new(), || ());
        let reg = outcome(&mut inst, &args, 100_000);
        assert_eq!(
            reg.result,
            want.clone().map(|v| Some(bits(Value::I32(v)))),
            "{name}"
        );
        assert_outcomes_agree(&outcome(&mut oracle, &args, 100_000), &reg, &name);

        // Static bounds dominate what ran: the call fits the analyzer's
        // fuel, and its measured arena and frame peaks are within the
        // static bounds.
        let measured = reg.fuel.expect("metered");
        assert!(fuel >= measured, "{name}: fuel bound {fuel} < {measured}");
        let stats = inst.stats();
        assert!(
            stats.peak_regs <= regs,
            "{name}: regs bound {regs} < {}",
            stats.peak_regs
        );
        assert!(
            stats.peak_frames <= frames,
            "{name}: frame bound {frames} < {}",
            stats.peak_frames
        );
        let mut bounded = Instance::new(module.clone(), &Linker::new(), ()).unwrap();
        assert_eq!(
            outcome(&mut bounded, &args, fuel),
            reg,
            "{name}: on its fuel bound"
        );

        // And the two still agree when the fuel runs out half way.
        assert_agree(&wasm, &args, measured / 2, &format!("{name}, half fuel"));
    }
}

/// Every flat op is lowered and each block leader — all a branch can
/// target — maps to its register `Meter`: the proof checks both (a
/// `pc_map` entry left unmapped fails it as "flat op was not lowered").
/// `differential_constant_control` holds its cases to the same proof.
#[test]
fn every_flat_op_of_the_corpus_is_lowered() {
    for seed in 0..300u64 {
        let wasm = waran_plugc::compile(&gen_program(seed)).expect("corpus compiles");
        let module = load_module(&wasm).expect("validates");
        module
            .analysis()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

// ---------------------------------------------------------------------
// Generated raw Wasm
// ---------------------------------------------------------------------
//
// PlugC reaches the VM only through the shapes it emits. The modules of
// `util/wasm_gen.rs` are written in Wasm directly and valid by
// construction: typed blocks, `br_table`, dead code, `select`, all four
// value types, globals, `memory.grow`, `call_indirect` and straight-line
// leaves, each called as a call. Each one is held to the whole load path
// and to the contract above; a mutant of each must be refused by kind,
// at its place.

#[path = "util/wasm_gen.rs"]
mod wasm_gen;

/// Modules the generated properties run over.
const GENERATED: u64 = 420;

/// `main`'s arguments for `seed`: one of each value type, as `main` takes them.
fn main_args(seed: u64) -> [Value; 4] {
    let mut rng = gen::Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let small = |r: &mut gen::Rng| r.below(64) as i64 - 8;
    [
        Value::I32(small(&mut rng) as i32),
        Value::I64(if rng.below(4) == 0 {
            rng.next() as i64
        } else {
            small(&mut rng)
        }),
        Value::F32(small(&mut rng) as f32 * 0.75),
        Value::F64(f64::from_bits(rng.next() >> 2)),
    ]
}

/// One call of `main` on fresh instances of both sides, held to the
/// contract in the header: the fuel consumed when it completed, and the
/// executor's high-water marks.
fn generated_agree(
    module: &Arc<Module>,
    args: &[Value],
    fuel: u64,
    ctx: &str,
) -> (Option<u64>, waran_wasm::instance::ExecStats) {
    let (mut inst, mut oracle) = both(module, &Linker::new(), || ());
    let mut ours = outcome(&mut inst, args, fuel);
    let mut theirs = outcome(&mut oracle, args, fuel);
    if ours.result == Err(Trap::OutOfFuel) {
        // What ran out may be a bulk op's byte charge or a grow's page
        // charge, where only fuel agrees.
        (ours.instrs, theirs.instrs) = (0, 0);
    }
    (assert_outcomes_agree(&theirs, &ours, ctx), inst.stats())
}

/// Every generated module survives the encoder and the decoder unchanged,
/// loads, passes its proof, and runs `main` alike on the executor and the
/// oracle — result bits, trap, final memory and, when the call completes
/// or runs out of fuel, `fuel_consumed()` — also again with half the fuel
/// a completed call used. Each finite static bound of `main` holds the
/// call: fuel consumed, and the measured `peak_regs` and `peak_frames`.
/// Floors on completed and trapped calls keep the property from passing
/// on a corpus that stopped running.
#[test]
fn differential_generated_wasm() {
    const FUEL: u64 = 2_000_000;
    let (mut completed, mut trapped, mut bounded) = (0u32, 0u32, 0u32);
    let mut leaves_called = 0u32;
    for seed in 0..GENERATED {
        let generated = wasm_gen::gen_module(seed);
        let wasm = waran_wasm::encode::encode_module(&generated.module);
        let back = decode_module(&wasm).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            back == generated.module,
            "seed {seed}: decode(encode(m)) != m"
        );
        let module = Arc::new(
            load_module(&wasm).unwrap_or_else(|e| panic!("seed {seed}: generated module: {e}")),
        );
        let report = module
            .analysis()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            .func(0)
            .clone();

        // Straight-line leaves reached by a call the lowering kept (a
        // call in dead code emits nothing).
        let listing = disassemble_reg(&module);
        leaves_called += (0..generated.leaves.len())
            .filter(|&f| generated.leaves[f] && listing.contains(&format!("call $f{f} ")))
            .count() as u32;

        let args = main_args(seed);
        let ctx = format!("seed {seed}, args {args:?}");
        let (consumed, stats) = generated_agree(&module, &args, FUEL, &ctx);
        for (what, bound, peak) in [
            ("regs", report.regs, stats.peak_regs),
            ("frames", report.frames, stats.peak_frames),
            ("fuel", report.fuel, consumed.unwrap_or(0)),
        ] {
            if let Some(bound) = bound.finite() {
                assert!(peak <= bound, "{ctx}: static {what} bound {bound} < {peak}");
                bounded += 1;
            }
        }
        match consumed {
            Some(fuel) => {
                completed += 1;
                generated_agree(&module, &args, fuel / 2, &format!("{ctx}, half fuel"));
            }
            None => trapped += 1,
        }
    }
    assert!(
        completed >= 250 && trapped >= 60 && bounded >= 250,
        "{completed} completed, {trapped} trapped, {bounded} finite bounds checked"
    );
    assert!(leaves_called >= 600, "only {leaves_called} leaves called");
}

/// One type- or nesting-breaking mutation per generated module:
/// `load_module` refuses it as `LoadError::Validate` with the mutation's
/// kind, at the function and instruction it broke, and never panics.
/// Between them the classes produce every body-level kind.
#[test]
fn generated_wasm_mutants_are_refused_by_kind() {
    use waran_wasm::validate::ValidateErrorKind as K;
    let mut seen = std::collections::HashSet::new();
    for seed in 0..GENERATED {
        let generated = wasm_gen::gen_module(seed);
        let class = (seed % wasm_gen::CLASSES as u64) as usize;
        let mutant = wasm_gen::mutate(&generated, class, &mut gen::Rng::new(!seed));
        let ctx = format!("seed {seed}, {}", mutant.class);
        let err = match load_module(&mutant.bytes) {
            Err(waran_wasm::LoadError::Validate(e)) => e,
            other => panic!("{ctx}: {other:?}"),
        };
        let kind_agrees = match (&mutant.kind, &err.kind) {
            (K::StackHeightMismatch { .. }, K::StackHeightMismatch { expected, found }) => {
                *found == expected + 1
            }
            (want, got) => want == got,
        };
        assert!(
            kind_agrees && err.func == Some(mutant.func) && err.pc == Some(mutant.pc),
            "{ctx}: expected {:?} in func {} at {}, got {err:?}",
            mutant.kind,
            mutant.func,
            mutant.pc
        );
        seen.insert(std::mem::discriminant(&err.kind));
    }
    let body_kinds = [
        K::BadTypeIndex(0),
        K::BadFuncIndex(0),
        K::BadLocalIndex(0),
        K::BadGlobalIndex(0),
        K::ImmutableGlobal(0),
        K::BadLabelDepth(0),
        K::NoMemory,
        K::NoTable,
        K::BadAlignment {
            align: 0,
            natural: 0,
        },
        K::StackUnderflow,
        K::TypeMismatch {
            expected: ValType::I32,
            found: None,
        },
        K::StackHeightMismatch {
            expected: 0,
            found: 0,
        },
        K::BrTableArityMismatch,
        K::IfMissingElse,
        K::ControlUnderflow,
        K::ElseWithoutIf,
    ];
    for kind in body_kinds {
        assert!(
            seen.contains(&std::mem::discriminant(&kind)),
            "no mutant produced {kind:?}"
        );
    }
}

/// A body that fails its type check is reported as itself — its own
/// function, instruction and kind, the lowest function index first —
/// even where an earlier function calls it.
#[test]
fn type_errors_are_attributed_to_their_own_function() {
    use waran_wasm::validate::ValidateErrorKind as K;
    const LEAF: &str = "(func $leaf (param i32) (result i32)";
    let refused = |src: &str| match load_module(&waran_wat::assemble(src).unwrap()) {
        Err(waran_wasm::LoadError::Validate(e)) => (e.func, e.pc, e.kind),
        other => panic!("{src}: {other:?}"),
    };
    let i32_into_i64 = K::TypeMismatch {
        expected: ValType::I64,
        found: Some(ValType::I32),
    };
    // Function 0 calls a later straight-line leaf that is ill-typed.
    assert_eq!(
        refused(&format!(
            r#"(module
                 (func (export "main") (param i32) (result i32) local.get 0 call $leaf)
                 {LEAF} local.get 0 i64.const 1 i64.add drop local.get 0))"#
        )),
        (Some(1), Some(2), i32_into_i64.clone())
    );
    // Two ill-typed bodies, the first after its call to the second: the
    // first is reported.
    assert_eq!(
        refused(&format!(
            r#"(module
                 (func (export "main") (param i32) (result i32)
                   local.get 0 call $leaf i64.const 1 i64.add)
                 {LEAF} local.get 0 i64.const 1 i64.add drop local.get 0))"#
        )),
        (Some(0), Some(3), i32_into_i64)
    );
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
