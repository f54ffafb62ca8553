//! The test oracle: a tree walker over a decoded module's `Instr` bodies,
//! on state it owns. Include with `#[path = "util/oracle.rs"] mod oracle;`.
//!
//! The production executor runs register code two lowerings away from the
//! source (`compile`, then `regalloc`) over the crate's runtime memory and
//! table types. The oracle walks the source instructions one at a time
//! over a plain `Vec<u8>` with its own bounds arithmetic, and keeps its own
//! table, globals, segment initialisation, float helpers and block table
//! (where each `block`, `if` and `else` ends, matched from the body it
//! walks). It shares
//! with the executor it judges only the decoder's `Module`/`Instr` (with
//! the operator enums `Instr` carries, never their `eval`s), `Value`,
//! `Trap`, the types and `MAX_CALL_DEPTH`, so a bounds or arithmetic bug in
//! the executor's runtime cannot hide behind the same bug here.
//!
//! The one bridge is a host call. Host functions take the crate's memory
//! type, so for the length of the call the oracle lends its bytes as one
//! and takes them back.
//!
//! What a comparison may hold the two to: result bits or trap; fuel and
//! instructions on completion and on fuel exhaustion (one unit per source
//! instruction here, plus each activation's price when its frame is
//! entered, a bulk memory op's byte charge and a `memory.grow`'s page
//! charge, while the executor meters per basic block and retires exactly
//! the remaining fuel when it runs out); the final memory bytes unless a
//! resource limit fired (the executor checks fuel per block); and what
//! host functions saw. The oracle has no register arena, so it never
//! raises the executor's arena trap. A run that ends on a byte or
//! page charge agrees on fuel (none left on either side) but not on
//! instructions: the executor has counted its whole block, the oracle up
//! to the bulk op or grow.

use std::ops::Range;
use std::sync::Arc;

use waran_wasm::instance::{
    HostFn, Linker, BULK_BYTES_PER_FUEL, CALL_FUEL, LOCALS_PER_FUEL, MAX_CALL_DEPTH,
};
use waran_wasm::instr::{BinOp, I32Op, I64Op, Instr, LoadKind, StoreKind, UnOp};
use waran_wasm::interp::Value;
use waran_wasm::module::{ConstExpr, ImportKind, Module};
use waran_wasm::types::{FuncType, MAX_PAGES, PAGE_SIZE};
use waran_wasm::Trap;

/// A module instantiated under the oracle.
pub struct Oracle<T> {
    module: Arc<Module>,
    /// Per body, per pc: where the `block`, `if` or `else` there jumps
    /// when it is skipped ([`block_table`]).
    skips: Vec<Vec<u32>>,
    /// Host functions in import order, as the linker resolved them.
    host: Vec<(FuncType, HostFn<T>)>,
    /// Embedder state handed to host functions.
    pub data: T,
    /// Linear memory; its length is the current size in bytes.
    pub memory: Vec<u8>,
    /// The most pages `memory.grow` may reach.
    max_pages: u32,
    table: Vec<Option<u32>>,
    globals: Vec<Value>,
    /// Fuel left; `u64::MAX` until [`Self::set_fuel`] arms a budget.
    fuel: u64,
    fuel_limit: Option<u64>,
    /// Source instructions retired, over all calls.
    pub instrs: u64,
    /// Calls that completed.
    pub invokes: u64,
    /// Calls that trapped.
    pub traps: u64,
}

impl<T> Oracle<T> {
    /// Resolve imports, build memory, table and globals with no page cap
    /// beyond the module's own (as `Instance::new` does), apply the data
    /// and element segments, then run the start function.
    pub fn new(module: Arc<Module>, linker: &Linker<T>, data: T) -> Result<Self, String> {
        let mut host = Vec::new();
        for imp in &module.imports {
            let ImportKind::Func { type_idx } = imp.kind;
            let (ty, func) = linker
                .resolve(&imp.module, &imp.name)
                .ok_or_else(|| format!("unresolved import {}.{}", imp.module, imp.name))?;
            if *ty != module.types[type_idx as usize] {
                return Err(format!("import {}.{}: type mismatch", imp.module, imp.name));
            }
            host.push((ty.clone(), func.clone()));
        }
        let (memory, max_pages) = match module.memory {
            None => (Vec::new(), 0),
            Some(l) => {
                let max = l.max.unwrap_or(MAX_PAGES).min(MAX_PAGES);
                if l.min > max {
                    return Err(format!("{} initial pages, cap {max}", l.min));
                }
                (vec![0; l.min as usize * PAGE_SIZE], max)
            }
        };
        let mut oracle = Oracle {
            table: vec![None; module.table.map_or(0, |t| t.min as usize)],
            globals: module.globals.iter().map(|g| constant(g.init)).collect(),
            skips: module.funcs.iter().map(|f| block_table(&f.code)).collect(),
            module: module.clone(),
            host,
            data,
            memory,
            max_pages,
            fuel: u64::MAX,
            fuel_limit: None,
            instrs: 0,
            invokes: 0,
            traps: 0,
        };
        for seg in &module.data {
            let Value::I32(at) = constant(seg.offset) else {
                return Err("data segment offset is not an i32".into());
            };
            let span = oracle
                .span(at as u32, 0, seg.bytes.len() as u32)
                .map_err(|t| format!("data segment: {t}"))?;
            oracle.memory[span].copy_from_slice(&seg.bytes);
        }
        for seg in &module.elems {
            let Value::I32(at) = constant(seg.offset) else {
                return Err("element segment offset is not an i32".into());
            };
            for (i, &func) in seg.funcs.iter().enumerate() {
                let slot = oracle
                    .table
                    .get_mut(at as u32 as usize + i)
                    .ok_or("element segment out of bounds")?;
                *slot = Some(func);
            }
        }
        if let Some(start) = module.start {
            oracle
                .call_func(start, &[])
                .map_err(|t| format!("start function trapped: {t}"))?;
        }
        Ok(oracle)
    }

    /// The instruction budget for subsequent calls.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
        self.fuel_limit = Some(fuel);
    }

    /// Fuel consumed since the last [`Self::set_fuel`]; `None` until a
    /// budget is armed.
    pub fn fuel_consumed(&self) -> Option<u64> {
        Some(self.fuel_limit? - self.fuel)
    }

    /// Call the exported function `name`.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Trap> {
        let func = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::HostError(format!("no exported function `{name}`")))?;
        self.call_func(func, args)
    }

    /// Call by module-wide function index. A missing function or arguments
    /// that do not match its signature are refused before anything runs,
    /// and count as neither a completed call nor a trap.
    pub fn call_func(&mut self, func: u32, args: &[Value]) -> Result<Option<Value>, Trap> {
        let module = self.module.clone();
        let ty = module
            .func_type(func)
            .ok_or_else(|| Trap::HostError(format!("no function with index {func}")))?;
        if ty.params.len() != args.len() || ty.params.iter().zip(args).any(|(p, a)| *p != a.ty()) {
            return Err(Trap::HostError(format!(
                "argument mismatch calling function {func}: expected {ty}",
            )));
        }
        let mut instrs = 0;
        let result = if (func as usize) < self.host.len() {
            self.call_host(func as usize, args)
        } else {
            self.walk(&module, func, args, &mut instrs)
        };
        self.instrs += instrs;
        match result {
            Ok(_) => self.invokes += 1,
            Err(_) => self.traps += 1,
        }
        result
    }

    // -----------------------------------------------------------------
    // Linear memory: the oracle's own bounds arithmetic.
    // -----------------------------------------------------------------

    /// The `len` bytes at `addr + off`, when all of them lie in memory.
    fn span(&self, addr: u32, off: u32, len: u32) -> Result<Range<usize>, Trap> {
        let size = self.memory.len() as u64;
        let start = u64::from(addr) + u64::from(off);
        let len = u64::from(len);
        if start <= size && len <= size - start {
            Ok(start as usize..(start + len) as usize)
        } else {
            Err(Trap::MemoryOutOfBounds {
                addr: start,
                len,
                size,
            })
        }
    }

    fn load<const N: usize>(&self, addr: u32, off: u32) -> Result<[u8; N], Trap> {
        let mut out = [0; N];
        out.copy_from_slice(&self.memory[self.span(addr, off, N as u32)?]);
        Ok(out)
    }

    fn store<const N: usize>(&mut self, addr: u32, off: u32, bytes: [u8; N]) -> Result<(), Trap> {
        let at = self.span(addr, off, N as u32)?;
        self.memory[at].copy_from_slice(&bytes);
        Ok(())
    }

    fn pages(&self) -> u32 {
        (self.memory.len() / PAGE_SIZE) as u32
    }

    /// `memory.grow`: the old size in pages, or -1 past the cap. A grow
    /// the cap allows pays for the bytes it zeroes at the bulk rate before
    /// a page is added; a refused one pays nothing on top of its
    /// instruction.
    fn grow(&mut self, delta: u32) -> Result<i32, Trap> {
        let old = self.pages();
        let new = u64::from(old) + u64::from(delta);
        if new > u64::from(self.max_pages) {
            return Ok(-1);
        }
        self.pay(u64::from(delta) * PAGE_SIZE as u64 / u64::from(BULK_BYTES_PER_FUEL))?;
        self.memory.resize(new as usize * PAGE_SIZE, 0);
        Ok(old as i32)
    }

    fn copy(&mut self, dst: u32, src: u32, len: u32) -> Result<(), Trap> {
        // The source range is checked first, so a trap names the same range
        // the embedder's report does when both are out of bounds.
        let from = self.span(src, 0, len)?;
        let to = self.span(dst, 0, len)?;
        self.pay_bytes(len)?;
        self.memory.copy_within(from, to.start);
        Ok(())
    }

    fn fill(&mut self, dst: u32, byte: u8, len: u32) -> Result<(), Trap> {
        let to = self.span(dst, 0, len)?;
        self.pay_bytes(len)?;
        self.memory[to].fill(byte);
        Ok(())
    }

    /// A bulk op's byte charge on top of its instruction: one unit per
    /// started `BULK_BYTES_PER_FUEL` bytes, once the ranges are in bounds
    /// and before a byte moves.
    fn pay_bytes(&mut self, len: u32) -> Result<(), Trap> {
        self.pay(u64::from(len).div_ceil(u64::from(BULK_BYTES_PER_FUEL)))
    }

    /// A charge on top of an instruction. Running out leaves no fuel.
    fn pay(&mut self, charge: u64) -> Result<(), Trap> {
        if self.fuel < charge {
            self.fuel = 0;
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= charge;
        Ok(())
    }

    // -----------------------------------------------------------------
    // The host-call bridge.
    // -----------------------------------------------------------------

    /// Call import `f`. The closure gets an `interp::Memory` holding the
    /// oracle's bytes, the only place the oracle touches that type, and the
    /// bytes come back at whatever size the host left them.
    fn call_host(&mut self, f: usize, args: &[Value]) -> Result<Option<Value>, Trap> {
        use waran_wasm::interp::Memory;
        use waran_wasm::types::Limits;
        let mut lent = if self.module.memory.is_some() {
            let limits = Limits::new(self.pages(), Some(self.max_pages));
            let mut m = Memory::new(limits, u32::MAX).expect("the size is within its own cap");
            m.write_bytes(0, &self.memory).expect("same size");
            m
        } else {
            Memory::empty()
        };
        let (ty, func) = &self.host[f];
        let got = func(&mut self.data, &mut lent, args);
        let size = lent.size_bytes() as u32;
        self.memory = lent.read_bytes(0, size).expect("whole memory").to_vec();
        match (ty.results.first().copied(), got?) {
            (Some(want), Some(v)) if v.ty() == want => Ok(Some(v)),
            (None, None) => Ok(None),
            (want, got) => Err(Trap::HostError(format!(
                "host function returned {got:?}, signature says {want:?}"
            ))),
        }
    }

    // -----------------------------------------------------------------
    // The walker.
    // -----------------------------------------------------------------

    fn walk(
        &mut self,
        module: &Module,
        entry: u32,
        args: &[Value],
        instrs: &mut u64,
    ) -> Result<Option<Value>, Trap> {
        let n_imports = module.num_imported_funcs();
        let mut stack: Vec<Value> = args.to_vec();
        let mut frames = vec![self.enter(module, entry - n_imports, &mut stack, instrs)?];

        macro_rules! pop {
            () => {
                stack.pop().expect("validated: stack non-empty")
            };
        }
        macro_rules! bin {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let b = pop!().$as();
                let a = pop!().$as();
                stack.push(Value::$wrap($f(a, b)));
            }};
        }
        macro_rules! bin_trap {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let b = pop!().$as();
                let a = pop!().$as();
                stack.push(Value::$wrap($f(a, b)?));
            }};
        }
        macro_rules! rel {
            ($as:ident, $f:expr) => {{
                let b = pop!().$as();
                let a = pop!().$as();
                stack.push(Value::I32($f(a, b) as i32));
            }};
        }
        macro_rules! un {
            ($as:ident, $wrap:ident, $f:expr) => {{
                let a = pop!().$as();
                stack.push(Value::$wrap($f(a)));
            }};
        }
        macro_rules! trunc {
            ($as:ident, $wrap:ident, $lo:expr, $hi:expr, $to:ty) => {{
                let a = pop!().$as() as f64;
                stack.push(Value::$wrap(trunc(a, $lo, $hi)? as $to as _));
            }};
        }
        macro_rules! load {
            ($m:expr, $n:expr, $conv:expr) => {{
                let addr = pop!().as_u32();
                let bytes = self.load::<$n>(addr, $m.offset)?;
                stack.push($conv(bytes));
            }};
        }
        macro_rules! store {
            ($m:expr, $as:ident, $to:expr) => {{
                let v = pop!().$as();
                let addr = pop!().as_u32();
                self.store(addr, $m.offset, $to(v))?;
            }};
        }

        'outer: loop {
            // One unit of fuel and one retired instruction per step.
            if self.fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            self.fuel -= 1;
            *instrs += 1;

            let frame = frames.last_mut().expect("at least one frame");
            let code = &module.funcs[frame.func as usize].code;
            let skip = &self.skips[frame.func as usize];
            let instr = &code[frame.pc];
            frame.pc += 1;

            match instr {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block { ty } => frame.labels.push(Label {
                    target: skip[frame.pc - 1],
                    stack_base: stack.len(),
                    arity: ty.arity(),
                    pop_self: false,
                }),
                Instr::Loop { .. } => frame.labels.push(Label {
                    target: (frame.pc - 1) as u32,
                    stack_base: stack.len(),
                    arity: 0,
                    pop_self: true,
                }),
                Instr::If { ty } => {
                    // The `if` skips to its `else`, if it has one, and that
                    // to the shared `end`.
                    let cond = pop!().as_i32();
                    let skip_to = skip[frame.pc - 1] as usize;
                    let has_else = matches!(code[skip_to], Instr::Else);
                    frame.labels.push(Label {
                        target: if has_else {
                            skip[skip_to]
                        } else {
                            skip_to as u32
                        },
                        stack_base: stack.len(),
                        arity: ty.arity(),
                        pop_self: false,
                    });
                    if cond == 0 {
                        frame.pc = skip_to + has_else as usize;
                    }
                }
                // The then-arm fell through: jump to the `End`, which pops
                // the label.
                Instr::Else => frame.pc = skip[frame.pc - 1] as usize,
                Instr::End => {
                    if frame.labels.pop().is_none() && ret(module, &mut frames, &mut stack) {
                        break 'outer;
                    }
                }
                Instr::Br { depth } => {
                    if branch(module, &mut frames, &mut stack, *depth) {
                        break 'outer;
                    }
                }
                Instr::BrIf { depth } => {
                    if pop!().as_i32() != 0 && branch(module, &mut frames, &mut stack, *depth) {
                        break 'outer;
                    }
                }
                Instr::BrTable { targets, default } => {
                    let idx = pop!().as_u32() as usize;
                    let depth = targets.get(idx).copied().unwrap_or(*default);
                    if branch(module, &mut frames, &mut stack, depth) {
                        break 'outer;
                    }
                }
                Instr::Return => {
                    if ret(module, &mut frames, &mut stack) {
                        break 'outer;
                    }
                }
                Instr::Call { func } => {
                    self.call(module, *func, &mut frames, &mut stack, instrs)?
                }
                Instr::CallIndirect { type_idx } => {
                    let idx = pop!().as_u32();
                    let func = match self.table.get(idx as usize) {
                        None => return Err(Trap::TableOutOfBounds),
                        Some(None) => return Err(Trap::UninitializedElement),
                        Some(Some(func)) => *func,
                    };
                    let actual = module.func_type(func).ok_or(Trap::UninitializedElement)?;
                    if *actual != module.types[*type_idx as usize] {
                        return Err(Trap::IndirectCallTypeMismatch);
                    }
                    self.call(module, func, &mut frames, &mut stack, instrs)?;
                }
                Instr::Drop => {
                    pop!();
                }
                Instr::Select => {
                    let cond = pop!().as_i32();
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Instr::LocalGet(idx) => stack.push(frame.locals[*idx as usize]),
                Instr::LocalSet(idx) => frame.locals[*idx as usize] = pop!(),
                Instr::LocalTee(idx) => {
                    frame.locals[*idx as usize] = *stack.last().expect("validated");
                }
                Instr::GlobalGet(idx) => stack.push(self.globals[*idx as usize]),
                Instr::GlobalSet(idx) => self.globals[*idx as usize] = pop!(),

                Instr::Load(LoadKind::I32, m) => load!(m, 4, |b| Value::I32(i32::from_le_bytes(b))),
                Instr::Load(LoadKind::I64, m) => load!(m, 8, |b| Value::I64(i64::from_le_bytes(b))),
                Instr::Load(LoadKind::F32, m) => load!(m, 4, |b| Value::F32(f32::from_le_bytes(b))),
                Instr::Load(LoadKind::F64, m) => load!(m, 8, |b| Value::F64(f64::from_le_bytes(b))),
                Instr::Load(LoadKind::I32S8, m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I32(b[0] as i8 as i32))
                }
                Instr::Load(LoadKind::I32U8, m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I32(b[0] as i32))
                }
                Instr::Load(LoadKind::I32S16, m) => {
                    load!(m, 2, |b| Value::I32(i16::from_le_bytes(b) as i32))
                }
                Instr::Load(LoadKind::I32U16, m) => {
                    load!(m, 2, |b| Value::I32(u16::from_le_bytes(b) as i32))
                }
                Instr::Load(LoadKind::I64S8, m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I64(b[0] as i8 as i64))
                }
                Instr::Load(LoadKind::I64U8, m) => {
                    load!(m, 1, |b: [u8; 1]| Value::I64(b[0] as i64))
                }
                Instr::Load(LoadKind::I64S16, m) => {
                    load!(m, 2, |b| Value::I64(i16::from_le_bytes(b) as i64))
                }
                Instr::Load(LoadKind::I64U16, m) => {
                    load!(m, 2, |b| Value::I64(u16::from_le_bytes(b) as i64))
                }
                Instr::Load(LoadKind::I64S32, m) => {
                    load!(m, 4, |b| Value::I64(i32::from_le_bytes(b) as i64))
                }
                Instr::Load(LoadKind::I64U32, m) => {
                    load!(m, 4, |b| Value::I64(u32::from_le_bytes(b) as i64))
                }
                Instr::Store(StoreKind::I32, m) => store!(m, as_i32, |v: i32| v.to_le_bytes()),
                Instr::Store(StoreKind::I64, m) => store!(m, as_i64, |v: i64| v.to_le_bytes()),
                Instr::Store(StoreKind::F32, m) => store!(m, as_f32, |v: f32| v.to_le_bytes()),
                Instr::Store(StoreKind::F64, m) => store!(m, as_f64, |v: f64| v.to_le_bytes()),
                Instr::Store(StoreKind::I32Lo8, m) => {
                    store!(m, as_i32, |v: i32| [(v & 0xff) as u8])
                }
                Instr::Store(StoreKind::I32Lo16, m) => {
                    store!(m, as_i32, |v: i32| (v as u16).to_le_bytes())
                }
                Instr::Store(StoreKind::I64Lo8, m) => {
                    store!(m, as_i64, |v: i64| [(v & 0xff) as u8])
                }
                Instr::Store(StoreKind::I64Lo16, m) => {
                    store!(m, as_i64, |v: i64| (v as u16).to_le_bytes())
                }
                Instr::Store(StoreKind::I64Lo32, m) => {
                    store!(m, as_i64, |v: i64| (v as u32).to_le_bytes())
                }
                Instr::MemorySize => stack.push(Value::I32(self.pages() as i32)),
                Instr::MemoryGrow => {
                    let delta = pop!().as_u32();
                    stack.push(Value::I32(self.grow(delta)?));
                }
                Instr::MemoryCopy => {
                    let len = pop!().as_u32();
                    let src = pop!().as_u32();
                    let dst = pop!().as_u32();
                    self.copy(dst, src, len)?;
                }
                Instr::MemoryFill => {
                    let len = pop!().as_u32();
                    let byte = pop!().as_i32() as u8;
                    let dst = pop!().as_u32();
                    self.fill(dst, byte, len)?;
                }

                Instr::I32Const(v) => stack.push(Value::I32(*v)),
                Instr::I64Const(v) => stack.push(Value::I64(*v)),
                Instr::F32Const(v) => stack.push(Value::F32(*v)),
                Instr::F64Const(v) => stack.push(Value::F64(*v)),

                Instr::Un(UnOp::I32Eqz) => un!(as_i32, I32, |a: i32| (a == 0) as i32),
                Instr::I32Bin(I32Op::Eq) => rel!(as_i32, |a, b| a == b),
                Instr::I32Bin(I32Op::Ne) => rel!(as_i32, |a, b| a != b),
                Instr::I32Bin(I32Op::LtS) => rel!(as_i32, |a, b| a < b),
                Instr::I32Bin(I32Op::LtU) => rel!(as_i32, |a: i32, b: i32| (a as u32) < (b as u32)),
                Instr::I32Bin(I32Op::GtS) => rel!(as_i32, |a, b| a > b),
                Instr::I32Bin(I32Op::GtU) => rel!(as_i32, |a: i32, b: i32| (a as u32) > (b as u32)),
                Instr::I32Bin(I32Op::LeS) => rel!(as_i32, |a, b| a <= b),
                Instr::I32Bin(I32Op::LeU) => {
                    rel!(as_i32, |a: i32, b: i32| (a as u32) <= (b as u32))
                }
                Instr::I32Bin(I32Op::GeS) => rel!(as_i32, |a, b| a >= b),
                Instr::I32Bin(I32Op::GeU) => {
                    rel!(as_i32, |a: i32, b: i32| (a as u32) >= (b as u32))
                }
                Instr::Un(UnOp::I64Eqz) => {
                    let a = pop!().as_i64();
                    stack.push(Value::I32((a == 0) as i32));
                }
                Instr::I64Bin(I64Op::I64Eq) => rel!(as_i64, |a, b| a == b),
                Instr::I64Bin(I64Op::I64Ne) => rel!(as_i64, |a, b| a != b),
                Instr::I64Bin(I64Op::I64LtS) => rel!(as_i64, |a, b| a < b),
                Instr::I64Bin(I64Op::I64LtU) => {
                    rel!(as_i64, |a: i64, b: i64| (a as u64) < (b as u64))
                }
                Instr::I64Bin(I64Op::I64GtS) => rel!(as_i64, |a, b| a > b),
                Instr::I64Bin(I64Op::I64GtU) => {
                    rel!(as_i64, |a: i64, b: i64| (a as u64) > (b as u64))
                }
                Instr::I64Bin(I64Op::I64LeS) => rel!(as_i64, |a, b| a <= b),
                Instr::I64Bin(I64Op::I64LeU) => {
                    rel!(as_i64, |a: i64, b: i64| (a as u64) <= (b as u64))
                }
                Instr::I64Bin(I64Op::I64GeS) => rel!(as_i64, |a, b| a >= b),
                Instr::I64Bin(I64Op::I64GeU) => {
                    rel!(as_i64, |a: i64, b: i64| (a as u64) >= (b as u64))
                }
                Instr::Bin(BinOp::F32Eq) => rel!(as_f32, |a, b| a == b),
                Instr::Bin(BinOp::F32Ne) => rel!(as_f32, |a, b| a != b),
                Instr::Bin(BinOp::F32Lt) => rel!(as_f32, |a, b| a < b),
                Instr::Bin(BinOp::F32Gt) => rel!(as_f32, |a, b| a > b),
                Instr::Bin(BinOp::F32Le) => rel!(as_f32, |a, b| a <= b),
                Instr::Bin(BinOp::F32Ge) => rel!(as_f32, |a, b| a >= b),
                Instr::Bin(BinOp::F64Eq) => rel!(as_f64, |a, b| a == b),
                Instr::Bin(BinOp::F64Ne) => rel!(as_f64, |a, b| a != b),
                Instr::Bin(BinOp::F64Lt) => rel!(as_f64, |a, b| a < b),
                Instr::Bin(BinOp::F64Gt) => rel!(as_f64, |a, b| a > b),
                Instr::Bin(BinOp::F64Le) => rel!(as_f64, |a, b| a <= b),
                Instr::Bin(BinOp::F64Ge) => rel!(as_f64, |a, b| a >= b),

                Instr::Un(UnOp::I32Clz) => un!(as_i32, I32, |a: i32| a.leading_zeros() as i32),
                Instr::Un(UnOp::I32Ctz) => un!(as_i32, I32, |a: i32| a.trailing_zeros() as i32),
                Instr::Un(UnOp::I32Popcnt) => un!(as_i32, I32, |a: i32| a.count_ones() as i32),
                Instr::I32Bin(I32Op::Add) => bin!(as_i32, I32, |a: i32, b: i32| a.wrapping_add(b)),
                Instr::I32Bin(I32Op::Sub) => bin!(as_i32, I32, |a: i32, b: i32| a.wrapping_sub(b)),
                Instr::I32Bin(I32Op::Mul) => bin!(as_i32, I32, |a: i32, b: i32| a.wrapping_mul(b)),
                Instr::Bin(BinOp::I32DivS) => bin_trap!(as_i32, I32, |a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else if a == i32::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }),
                Instr::Bin(BinOp::I32DivU) => bin_trap!(as_i32, I32, |a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u32) / (b as u32)) as i32)
                    }
                }),
                Instr::Bin(BinOp::I32RemS) => bin_trap!(as_i32, I32, |a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                Instr::Bin(BinOp::I32RemU) => bin_trap!(as_i32, I32, |a: i32, b: i32| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u32) % (b as u32)) as i32)
                    }
                }),
                Instr::I32Bin(I32Op::And) => bin!(as_i32, I32, |a, b| a & b),
                Instr::I32Bin(I32Op::Or) => bin!(as_i32, I32, |a, b| a | b),
                Instr::I32Bin(I32Op::Xor) => bin!(as_i32, I32, |a, b| a ^ b),
                Instr::I32Bin(I32Op::Shl) => {
                    bin!(as_i32, I32, |a: i32, b: i32| a.wrapping_shl(b as u32))
                }
                Instr::I32Bin(I32Op::ShrS) => {
                    bin!(as_i32, I32, |a: i32, b: i32| a.wrapping_shr(b as u32))
                }
                Instr::I32Bin(I32Op::ShrU) => bin!(as_i32, I32, |a: i32, b: i32| {
                    ((a as u32).wrapping_shr(b as u32)) as i32
                }),
                Instr::I32Bin(I32Op::Rotl) => {
                    bin!(as_i32, I32, |a: i32, b: i32| a.rotate_left(b as u32 & 31))
                }
                Instr::I32Bin(I32Op::Rotr) => {
                    bin!(as_i32, I32, |a: i32, b: i32| a.rotate_right(b as u32 & 31))
                }

                Instr::Un(UnOp::I64Clz) => un!(as_i64, I64, |a: i64| a.leading_zeros() as i64),
                Instr::Un(UnOp::I64Ctz) => un!(as_i64, I64, |a: i64| a.trailing_zeros() as i64),
                Instr::Un(UnOp::I64Popcnt) => un!(as_i64, I64, |a: i64| a.count_ones() as i64),
                Instr::I64Bin(I64Op::I64Add) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.wrapping_add(b))
                }
                Instr::I64Bin(I64Op::I64Sub) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.wrapping_sub(b))
                }
                Instr::I64Bin(I64Op::I64Mul) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.wrapping_mul(b))
                }
                Instr::Bin(BinOp::I64DivS) => bin_trap!(as_i64, I64, |a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else if a == i64::MIN && b == -1 {
                        Err(Trap::IntegerOverflow)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }),
                Instr::Bin(BinOp::I64DivU) => bin_trap!(as_i64, I64, |a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u64) / (b as u64)) as i64)
                    }
                }),
                Instr::Bin(BinOp::I64RemS) => bin_trap!(as_i64, I64, |a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }),
                Instr::Bin(BinOp::I64RemU) => bin_trap!(as_i64, I64, |a: i64, b: i64| {
                    if b == 0 {
                        Err(Trap::IntegerDivByZero)
                    } else {
                        Ok(((a as u64) % (b as u64)) as i64)
                    }
                }),
                Instr::I64Bin(I64Op::I64And) => bin!(as_i64, I64, |a, b| a & b),
                Instr::I64Bin(I64Op::I64Or) => bin!(as_i64, I64, |a, b| a | b),
                Instr::I64Bin(I64Op::I64Xor) => bin!(as_i64, I64, |a, b| a ^ b),
                Instr::I64Bin(I64Op::I64Shl) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.wrapping_shl(b as u32))
                }
                Instr::I64Bin(I64Op::I64ShrS) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.wrapping_shr(b as u32))
                }
                Instr::I64Bin(I64Op::I64ShrU) => bin!(as_i64, I64, |a: i64, b: i64| {
                    ((a as u64).wrapping_shr(b as u32)) as i64
                }),
                Instr::I64Bin(I64Op::I64Rotl) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.rotate_left(b as u32 & 63))
                }
                Instr::I64Bin(I64Op::I64Rotr) => {
                    bin!(as_i64, I64, |a: i64, b: i64| a.rotate_right(b as u32 & 63))
                }

                Instr::Un(UnOp::F32Abs) => un!(as_f32, F32, |a: f32| a.abs()),
                Instr::Un(UnOp::F32Neg) => un!(as_f32, F32, |a: f32| -a),
                Instr::Un(UnOp::F32Ceil) => un!(as_f32, F32, |a: f32| a.ceil()),
                Instr::Un(UnOp::F32Floor) => un!(as_f32, F32, |a: f32| a.floor()),
                Instr::Un(UnOp::F32Trunc) => un!(as_f32, F32, |a: f32| a.trunc()),
                Instr::Un(UnOp::F32Nearest) => un!(as_f32, F32, |a: f32| a.round_ties_even()),
                Instr::Un(UnOp::F32Sqrt) => un!(as_f32, F32, |a: f32| a.sqrt()),
                Instr::Bin(BinOp::F32Add) => bin!(as_f32, F32, |a: f32, b: f32| a + b),
                Instr::Bin(BinOp::F32Sub) => bin!(as_f32, F32, |a: f32, b: f32| a - b),
                Instr::Bin(BinOp::F32Mul) => bin!(as_f32, F32, |a: f32, b: f32| a * b),
                Instr::Bin(BinOp::F32Div) => bin!(as_f32, F32, |a: f32, b: f32| a / b),
                Instr::Bin(BinOp::F32Min) => bin!(as_f32, F32, fmin32),
                Instr::Bin(BinOp::F32Max) => bin!(as_f32, F32, fmax32),
                Instr::Bin(BinOp::F32Copysign) => bin!(as_f32, F32, |a: f32, b: f32| a.copysign(b)),
                Instr::Un(UnOp::F64Abs) => un!(as_f64, F64, |a: f64| a.abs()),
                Instr::Un(UnOp::F64Neg) => un!(as_f64, F64, |a: f64| -a),
                Instr::Un(UnOp::F64Ceil) => un!(as_f64, F64, |a: f64| a.ceil()),
                Instr::Un(UnOp::F64Floor) => un!(as_f64, F64, |a: f64| a.floor()),
                Instr::Un(UnOp::F64Trunc) => un!(as_f64, F64, |a: f64| a.trunc()),
                Instr::Un(UnOp::F64Nearest) => un!(as_f64, F64, |a: f64| a.round_ties_even()),
                Instr::Un(UnOp::F64Sqrt) => un!(as_f64, F64, |a: f64| a.sqrt()),
                Instr::Bin(BinOp::F64Add) => bin!(as_f64, F64, |a: f64, b: f64| a + b),
                Instr::Bin(BinOp::F64Sub) => bin!(as_f64, F64, |a: f64, b: f64| a - b),
                Instr::Bin(BinOp::F64Mul) => bin!(as_f64, F64, |a: f64, b: f64| a * b),
                Instr::Bin(BinOp::F64Div) => bin!(as_f64, F64, |a: f64, b: f64| a / b),
                Instr::Bin(BinOp::F64Min) => bin!(as_f64, F64, fmin64),
                Instr::Bin(BinOp::F64Max) => bin!(as_f64, F64, fmax64),
                Instr::Bin(BinOp::F64Copysign) => bin!(as_f64, F64, |a: f64, b: f64| a.copysign(b)),

                Instr::Un(UnOp::I32WrapI64) => un!(as_i64, I32, |a: i64| a as i32),
                Instr::Un(UnOp::I32TruncF32S) => trunc!(as_f32, I32, -P31, P31, i32),
                Instr::Un(UnOp::I32TruncF32U) => trunc!(as_f32, I32, 0.0, P32, u32),
                Instr::Un(UnOp::I32TruncF64S) => trunc!(as_f64, I32, -P31, P31, i32),
                Instr::Un(UnOp::I32TruncF64U) => trunc!(as_f64, I32, 0.0, P32, u32),
                Instr::Un(UnOp::I64ExtendI32S) => un!(as_i32, I64, |a: i32| a as i64),
                Instr::Un(UnOp::I64ExtendI32U) => un!(as_i32, I64, |a: i32| a as u32 as i64),
                Instr::Un(UnOp::I64TruncF32S) => trunc!(as_f32, I64, -P63, P63, i64),
                Instr::Un(UnOp::I64TruncF32U) => trunc!(as_f32, I64, 0.0, P64, u64),
                Instr::Un(UnOp::I64TruncF64S) => trunc!(as_f64, I64, -P63, P63, i64),
                Instr::Un(UnOp::I64TruncF64U) => trunc!(as_f64, I64, 0.0, P64, u64),
                Instr::Un(UnOp::F32ConvertI32S) => un!(as_i32, F32, |a: i32| a as f32),
                Instr::Un(UnOp::F32ConvertI32U) => un!(as_i32, F32, |a: i32| a as u32 as f32),
                Instr::Un(UnOp::F32ConvertI64S) => un!(as_i64, F32, |a: i64| a as f32),
                Instr::Un(UnOp::F32ConvertI64U) => un!(as_i64, F32, |a: i64| a as u64 as f32),
                Instr::Un(UnOp::F32DemoteF64) => un!(as_f64, F32, |a: f64| a as f32),
                Instr::Un(UnOp::F64ConvertI32S) => un!(as_i32, F64, |a: i32| a as f64),
                Instr::Un(UnOp::F64ConvertI32U) => un!(as_i32, F64, |a: i32| a as u32 as f64),
                Instr::Un(UnOp::F64ConvertI64S) => un!(as_i64, F64, |a: i64| a as f64),
                Instr::Un(UnOp::F64ConvertI64U) => un!(as_i64, F64, |a: i64| a as u64 as f64),
                Instr::Un(UnOp::F64PromoteF32) => un!(as_f32, F64, |a: f32| a as f64),
                Instr::Un(UnOp::I32ReinterpretF32) => un!(as_f32, I32, |a: f32| a.to_bits() as i32),
                Instr::Un(UnOp::I64ReinterpretF64) => un!(as_f64, I64, |a: f64| a.to_bits() as i64),
                Instr::Un(UnOp::F32ReinterpretI32) => {
                    un!(as_i32, F32, |a: i32| f32::from_bits(a as u32))
                }
                Instr::Un(UnOp::F64ReinterpretI64) => {
                    un!(as_i64, F64, |a: i64| f64::from_bits(a as u64))
                }
                Instr::Un(UnOp::I32Extend8S) => un!(as_i32, I32, |a: i32| a as i8 as i32),
                Instr::Un(UnOp::I32Extend16S) => un!(as_i32, I32, |a: i32| a as i16 as i32),
                Instr::Un(UnOp::I64Extend8S) => un!(as_i64, I64, |a: i64| a as i8 as i64),
                Instr::Un(UnOp::I64Extend16S) => un!(as_i64, I64, |a: i64| a as i16 as i64),
                Instr::Un(UnOp::I64Extend32S) => un!(as_i64, I64, |a: i64| a as i32 as i64),
                Instr::Un(UnOp::I32TruncSatF32S) => un!(as_f32, I32, |a: f32| a as i32),
                Instr::Un(UnOp::I32TruncSatF32U) => un!(as_f32, I32, |a: f32| a as u32 as i32),
                Instr::Un(UnOp::I32TruncSatF64S) => un!(as_f64, I32, |a: f64| a as i32),
                Instr::Un(UnOp::I32TruncSatF64U) => un!(as_f64, I32, |a: f64| a as u32 as i32),
                Instr::Un(UnOp::I64TruncSatF32S) => un!(as_f32, I64, |a: f32| a as i64),
                Instr::Un(UnOp::I64TruncSatF32U) => un!(as_f32, I64, |a: f32| a as u64 as i64),
                Instr::Un(UnOp::I64TruncSatF64S) => un!(as_f64, I64, |a: f64| a as i64),
                Instr::Un(UnOp::I64TruncSatF64U) => un!(as_f64, I64, |a: f64| a as u64 as i64),
            }
        }

        Ok(stack.pop())
    }

    /// A call from inside the walk: a host call runs the closure now, a
    /// Wasm call pushes the callee's frame.
    fn call(
        &mut self,
        module: &Module,
        func: u32,
        frames: &mut Vec<Frame>,
        stack: &mut Vec<Value>,
        instrs: &mut u64,
    ) -> Result<(), Trap> {
        let n_imports = module.num_imported_funcs();
        if func < n_imports {
            let argc = self.host[func as usize].0.params.len();
            let args = stack.split_off(stack.len() - argc);
            stack.extend(self.call_host(func as usize, &args)?);
        } else {
            if frames.len() >= MAX_CALL_DEPTH {
                return Err(Trap::StackOverflow);
            }
            let frame = self.enter(module, func - n_imports, stack, instrs)?;
            frames.push(frame);
        }
        Ok(())
    }

    /// Set up a Wasm function's frame, paid for first: every activation
    /// pays `CALL_FUEL` plus one unit per started `LOCALS_PER_FUEL` of
    /// its declared locals. Running out retires exactly the fuel left, as
    /// an instruction step that finds none retires nothing.
    fn enter(
        &mut self,
        module: &Module,
        local_func: u32,
        stack: &mut Vec<Value>,
        instrs: &mut u64,
    ) -> Result<Frame, Trap> {
        let body = &module.funcs[local_func as usize];
        let declared = body.locals.len() as u64;
        let price = u64::from(CALL_FUEL) + declared.div_ceil(u64::from(LOCALS_PER_FUEL));
        if self.fuel < price {
            *instrs += self.fuel;
            self.fuel = 0;
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= price;
        *instrs += price;
        let argc = module.types[body.type_idx as usize].params.len();
        let mut locals = stack.split_off(stack.len() - argc);
        locals.extend(body.locals.iter().map(|&t| Value::zero(t)));
        Ok(Frame {
            func: local_func,
            locals,
            pc: 0,
            labels: Vec::new(),
            stack_base: stack.len(),
        })
    }
}

/// A call frame.
struct Frame {
    /// Index into `module.funcs`.
    func: u32,
    /// Parameters, then the declared locals.
    locals: Vec<Value>,
    /// Next instruction.
    pc: usize,
    /// Open labels.
    labels: Vec<Label>,
    /// Value-stack height at entry, arguments already moved to `locals`.
    stack_base: usize,
}

/// A control label.
#[derive(Clone, Copy)]
struct Label {
    /// Branch destination pc.
    target: u32,
    /// Value-stack height at label entry.
    stack_base: usize,
    /// Values a branch to the label carries.
    arity: usize,
    /// A loop's label is popped by the branch itself: its header pushes it
    /// again.
    pop_self: bool,
}

/// Where each structured instruction of a body jumps when it is skipped,
/// matched by the oracle itself from the instructions: a `block`'s and an
/// `else`'s `end`, and an `if`'s `else` or, without one, its `end`.
/// Other pcs hold `u32::MAX`. The body is well-nested: only a loaded
/// module reaches the oracle.
fn block_table(code: &[Instr]) -> Vec<u32> {
    let mut skip = vec![u32::MAX; code.len()];
    let mut open = Vec::new();
    for (pc, instr) in code.iter().enumerate() {
        match instr {
            Instr::Block { .. } | Instr::Loop { .. } | Instr::If { .. } => open.push(pc),
            Instr::Else => {
                let opener = open.pop().expect("an `else` closes an open `if`");
                skip[opener] = pc as u32;
                open.push(pc);
            }
            // The function-level `end` closes no block.
            Instr::End => {
                if let Some(opener) = open.pop() {
                    skip[opener] = pc as u32;
                }
            }
            _ => {}
        }
    }
    skip
}

/// Move the top `arity` values down to `base` and drop everything between.
fn unwind(stack: &mut Vec<Value>, base: usize, arity: usize) {
    let top = stack.len() - arity;
    stack.copy_within(top.., base);
    stack.truncate(base + arity);
}

/// Branch `depth` labels out of the current frame. Depth equal to the
/// open-label count targets the function itself, a return; true when that
/// return left the entry frame.
fn branch(module: &Module, frames: &mut Vec<Frame>, stack: &mut Vec<Value>, depth: u32) -> bool {
    let frame = frames.last_mut().expect("at least one frame");
    let Some(idx) = frame.labels.len().checked_sub(depth as usize + 1) else {
        return ret(module, frames, stack);
    };
    let label = frame.labels[idx];
    unwind(stack, label.stack_base, label.arity);
    frame
        .labels
        .truncate(if label.pop_self { idx } else { idx + 1 });
    frame.pc = label.target as usize;
    false
}

/// Pop the current frame, carrying its results; true when it was the
/// entry frame.
fn ret(module: &Module, frames: &mut Vec<Frame>, stack: &mut Vec<Value>) -> bool {
    let frame = frames.pop().expect("at least one frame");
    let body = &module.funcs[frame.func as usize];
    let arity = module.types[body.type_idx as usize].results.len();
    unwind(stack, frame.stack_base, arity);
    frames.is_empty()
}

fn constant(e: ConstExpr) -> Value {
    match e {
        ConstExpr::I32(v) => Value::I32(v),
        ConstExpr::I64(v) => Value::I64(v),
        ConstExpr::F32(v) => Value::F32(v),
        ConstExpr::F64(v) => Value::F64(v),
    }
}

// ---------------------------------------------------------------------
// Float helpers, written apart from the executor's: a shared helper would
// be a shared blind spot.
// ---------------------------------------------------------------------

/// `min`/`max` per the spec: a NaN operand gives the canonical NaN, and −0
/// orders below +0, which on non-NaNs is IEEE `totalOrder`.
macro_rules! min_max {
    ($min:ident, $max:ident, $t:ty) => {
        fn $min(a: $t, b: $t) -> $t {
            if a.is_nan() || b.is_nan() {
                <$t>::NAN
            } else if a.total_cmp(&b).is_le() {
                a
            } else {
                b
            }
        }

        fn $max(a: $t, b: $t) -> $t {
            if a.is_nan() || b.is_nan() {
                <$t>::NAN
            } else if a.total_cmp(&b).is_ge() {
                a
            } else {
                b
            }
        }
    };
}
min_max!(fmin32, fmax32, f32);
min_max!(fmin64, fmax64, f64);

const P31: f64 = 2147483648.0;
const P32: f64 = 4294967296.0;
const P63: f64 = 9223372036854775808.0;
const P64: f64 = 18446744073709551616.0;

/// Truncation toward zero that traps on NaN and on a result outside
/// `[lo, hi)`. Each bound is a power of two, exact in f64, and an f32
/// widens to f64 exactly, so one check serves all eight conversions.
fn trunc(a: f64, lo: f64, hi: f64) -> Result<f64, Trap> {
    let t = a.trunc();
    if t >= lo && t < hi {
        Ok(t)
    } else {
        Err(Trap::InvalidConversion)
    }
}
