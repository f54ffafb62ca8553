//! Snapshot-instantiation parity: stamping a plugin out of a cached
//! [`PluginPre`] snapshot must be observationally identical to a cold
//! decode → validate → segment-init pass over the same bytes.
//!
//! Modules are generated randomly over [`ModuleBuilder`] (memories with
//! data segments, mutable/immutable globals of every type, tables with
//! element segments, start functions that mutate state per instance) and
//! the suite pins down, per module:
//!
//! * bit-identical linear memory, globals and export surface between the
//!   cold path and snapshot stamp-outs;
//! * identical trap/error behavior — both for guest-visible traps
//!   (out-of-bounds loads) and for instantiation-time failures
//!   (out-of-bounds segments);
//! * isolation: mutating one stamped instance never leaks into siblings,
//!   later stamp-outs, or the snapshot itself.

use std::sync::Arc;

use proptest::prelude::*;
use waran_host::plugin::{Plugin, PluginError, SandboxPolicy};
use waran_host::PluginPre;
use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instance::{InstantiateError, Linker};
use waran_wasm::interp::Value;
use waran_wasm::module::ConstExpr;
use waran_wasm::types::{Mutability, ValType, PAGE_SIZE};

// ---------------------------------------------------------------------
// Seeded random module generator
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the generator promises about a module, so the parity harness
/// knows what to compare.
struct Shape {
    /// Exported global names (`"g0"`, `"g1"`, …).
    globals: Vec<String>,
    /// Initial memory pages.
    pages: u32,
}

/// A random module: 1-2 pages of memory seeded by 0-4 data segments,
/// 0-5 exported globals of every type, an optional table + element
/// segment, `peek`/`poke` memory accessors, an optional `bump` over the
/// first mutable i32 global, and (half the time) a start function that
/// stamps per-instance state into memory and globals.
fn build_module(seed: u64) -> (Vec<u8>, Shape) {
    let mut rng = Rng::new(seed);
    let mut mb = ModuleBuilder::new();

    let pages = 1 + rng.below(2) as u32;
    let max = if rng.below(2) == 0 {
        Some(pages + rng.below(3) as u32)
    } else {
        None
    };
    mb.memory(pages, max);
    mb.export_memory("memory");

    // Data segments, always in bounds here (the error-parity test below
    // builds the hostile ones deliberately).
    for _ in 0..rng.below(5) {
        let len = 1 + rng.below(64) as usize;
        let offset = rng.below((pages as u64 * PAGE_SIZE as u64) - len as u64) as i32;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        mb.data(offset, &bytes);
    }

    // Globals of every type; floats come from small integers so `Value`
    // equality is NaN-free.
    let mut globals = Vec::new();
    let mut mut_i32 = None;
    for i in 0..rng.below(6) {
        let mutability = if rng.below(2) == 0 {
            Mutability::Var
        } else {
            Mutability::Const
        };
        let (ty, init) = match rng.below(4) {
            0 => (ValType::I32, ConstExpr::I32(rng.next() as i32)),
            1 => (ValType::I64, ConstExpr::I64(rng.next() as i64)),
            2 => (
                ValType::F32,
                ConstExpr::F32(rng.below(1 << 20) as f32 * 0.5),
            ),
            _ => (
                ValType::F64,
                ConstExpr::F64(rng.below(1 << 20) as f64 * 0.25),
            ),
        };
        let idx = mb.global(ty, mutability, init);
        if mut_i32.is_none() && mutability == Mutability::Var && ty == ValType::I32 {
            mut_i32 = Some(idx);
        }
        let name = format!("g{i}");
        mb.export_global(&name, idx);
        globals.push(name);
    }

    // peek(addr) -> i32: the probe the harness compares memories with.
    let peek_ty = mb.func_type(&[ValType::I32], &[ValType::I32]);
    let peek = mb.begin_func(peek_ty);
    mb.code().local_get(0).i32_load(0);
    mb.end_func().unwrap();
    mb.export_func("peek", peek);

    // poke(addr, v): the mutation the isolation tests drive.
    let poke_ty = mb.func_type(&[ValType::I32, ValType::I32], &[]);
    let poke = mb.begin_func(poke_ty);
    mb.code().local_get(0).local_get(1).i32_store(0);
    mb.end_func().unwrap();
    mb.export_func("poke", poke);

    // bump() -> i32 over the first mutable i32 global, when one exists.
    if let Some(g) = mut_i32 {
        let bump_ty = mb.func_type(&[], &[ValType::I32]);
        let bump = mb.begin_func(bump_ty);
        mb.code()
            .global_get(g)
            .i32_const(1)
            .i32_add()
            .global_set(g)
            .global_get(g);
        mb.end_func().unwrap();
        mb.export_func("bump", bump);
    }

    // Optional table + element segment over the functions defined so far.
    if rng.below(2) == 0 {
        let slots = 2 + rng.below(6) as u32;
        mb.table(slots, Some(slots));
        let offset = rng.below(slots as u64 - 1) as i32;
        mb.elem(offset, &[peek]);
    }

    // Half the modules run per-instance start-time mutation: a byte
    // stamped into memory, plus a global bump when available. The start
    // function runs per stamp-out on *both* paths, so parity must hold.
    if rng.below(2) == 0 {
        let start_ty = mb.func_type(&[], &[]);
        let start = mb.begin_func(start_ty);
        let addr = rng.below(pages as u64 * PAGE_SIZE as u64 - 4) as i32;
        mb.code()
            .i32_const(addr)
            .i32_const(rng.next() as i32)
            .i32_store(0);
        if let Some(g) = mut_i32 {
            mb.code().global_get(g).i32_const(7).i32_add().global_set(g);
        }
        mb.end_func().unwrap();
        mb.start(start);
    }

    let bytes = mb.finish_bytes().expect("generated module encodes");
    (bytes, Shape { globals, pages })
}

// ---------------------------------------------------------------------
// Parity harness
// ---------------------------------------------------------------------

fn policy() -> SandboxPolicy {
    SandboxPolicy::default()
}

/// Full observable-state comparison between two plugins.
fn assert_same_state(a: &Plugin<()>, b: &Plugin<()>, shape: &Shape, what: &str) {
    let mem_a = a
        .instance()
        .memory()
        .read_bytes(0, (shape.pages as usize * PAGE_SIZE) as u32)
        .unwrap();
    let mem_b = b
        .instance()
        .memory()
        .read_bytes(0, (shape.pages as usize * PAGE_SIZE) as u32)
        .unwrap();
    assert!(mem_a == mem_b, "{what}: linear memory diverged");
    for g in &shape.globals {
        assert_eq!(
            a.instance().get_global(g),
            b.instance().get_global(g),
            "{what}: global {g} diverged"
        );
    }
    for export in ["peek", "poke", "bump", "absent"] {
        assert_eq!(
            a.has_export(export),
            b.has_export(export),
            "{what}: export surface diverged at `{export}`"
        );
    }
}

/// Drive both plugins through the same probe calls; results (including
/// traps) must match bit for bit.
fn assert_same_behavior(a: &mut Plugin<()>, b: &mut Plugin<()>, shape: &Shape, what: &str) {
    let probes = [
        0,
        17,
        (shape.pages as i32 * PAGE_SIZE as i32) - 4,
        // Past the end: both must trap identically.
        shape.pages as i32 * PAGE_SIZE as i32,
        i32::MAX,
    ];
    for addr in probes {
        let ra = a.instance_mut().invoke("peek", &[Value::I32(addr)]);
        let rb = b.instance_mut().invoke("peek", &[Value::I32(addr)]);
        assert_eq!(ra, rb, "{what}: peek({addr}) diverged");
    }
    if a.has_export("bump") {
        for _ in 0..3 {
            let ra = a.instance_mut().invoke("bump", &[]);
            let rb = b.instance_mut().invoke("bump", &[]);
            assert_eq!(ra, rb, "{what}: bump diverged");
        }
    }
}

/// Decode + validate `bytes` into a shareable module.
fn load(bytes: &[u8]) -> Arc<waran_wasm::Module> {
    Arc::new(waran_wasm::load_module(bytes).unwrap())
}

/// The core property, factored so the deterministic sweep and proptest
/// share it.
fn check_parity(seed: u64) {
    let (bytes, shape) = build_module(seed);

    // Cold: full decode/validate/init per instance.
    let mut cold = Plugin::new(&bytes, &Linker::new(), (), policy()).unwrap();

    // Template: resolve + snapshot once, stamp thrice.
    let module = load(&bytes);
    let pre = PluginPre::new(module, &Linker::<()>::new(), policy()).unwrap();
    assert!(pre.has_snapshot());
    let mut s1 = pre.instantiate(()).unwrap();
    let mut s2 = pre.instantiate(()).unwrap();

    assert_same_state(&cold, &s1, &shape, "cold vs stamp");
    assert_same_state(&s1, &s2, &shape, "stamp vs sibling stamp");

    // Mutate s1 heavily: memory pokes + global bumps. Siblings, later
    // stamp-outs and the cold path must not see any of it.
    s1.instance_mut()
        .invoke("poke", &[Value::I32(64), Value::I32(seed as i32 | 1)])
        .unwrap();
    if s1.has_export("bump") {
        s1.instance_mut().invoke("bump", &[]).unwrap();
    }
    assert_same_state(&cold, &s2, &shape, "sibling after mutation");
    let mut s3 = pre.instantiate(()).unwrap();
    assert_same_state(&cold, &s3, &shape, "fresh stamp after mutation");

    // Behavioral parity, on the untouched pair (these calls mutate).
    assert_same_behavior(&mut cold, &mut s2, &shape, "cold vs stamp");

    // Snapshot-off templates (the reference constructor) are honoured —
    // no image is captured — and are the same machine, minus the memcpy.
    let off = PluginPre::with_snapshot(load(&bytes), &Linker::new(), policy(), false).unwrap();
    assert!(!off.has_snapshot());
    let mut o1 = off.instantiate(()).unwrap();
    assert_same_state(&s3, &o1, &shape, "snapshot-on vs snapshot-off");
    assert_same_behavior(&mut s3, &mut o1, &shape, "snapshot-on vs snapshot-off");
}

// ---------------------------------------------------------------------
// Deterministic sweep + randomized corpus
// ---------------------------------------------------------------------

#[test]
fn parity_sweep_deterministic() {
    for seed in 0..200u64 {
        check_parity(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parity_random_seeds(seed in any::<u64>()) {
        check_parity(seed);
    }

    #[test]
    fn oob_data_segment_errors_match(seed in any::<u64>(), past in 1u32..1024) {
        // A data segment ending past the initial memory must fail the
        // same way on the cold path and at template build.
        let mut rng = Rng::new(seed);
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(1));
        let len = 1 + rng.below(16) as usize;
        mb.data((PAGE_SIZE as u32 + past - len as u32) as i32, &vec![0xAB; len]);
        let bytes = mb.finish_bytes().unwrap();

        let cold = Plugin::new(&bytes, &Linker::<()>::new(), (), policy()).unwrap_err();
        let template =
            PluginPre::new(load(&bytes), &Linker::<()>::new(), policy()).unwrap_err();
        prop_assert_eq!(&cold, &template);
        prop_assert_eq!(
            cold,
            PluginError::Instantiate(InstantiateError::DataSegmentOutOfBounds)
        );
    }

    #[test]
    fn oob_elem_segment_errors_match(slots in 1u32..8, past in 1u32..16) {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(1));
        let ty = mb.func_type(&[], &[]);
        let f = mb.begin_func(ty);
        mb.end_func().unwrap();
        mb.export_func("f", f);
        mb.table(slots, Some(slots));
        mb.elem((slots + past - 1) as i32, &[f]);
        let bytes = mb.finish_bytes().unwrap();

        let cold = Plugin::new(&bytes, &Linker::<()>::new(), (), policy()).unwrap_err();
        let template =
            PluginPre::new(load(&bytes), &Linker::<()>::new(), policy()).unwrap_err();
        prop_assert_eq!(&cold, &template);
        prop_assert_eq!(
            cold,
            PluginError::Instantiate(InstantiateError::ElemSegmentOutOfBounds)
        );
    }

    #[test]
    fn missing_import_errors_match(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut mb = ModuleBuilder::new();
        let ty = mb.func_type(&[ValType::I32], &[]);
        let name = format!("host_fn_{}", rng.below(1000));
        mb.import_func("env", &name, ty).unwrap();
        mb.memory(1, None);
        let bytes = mb.finish_bytes().unwrap();

        let cold = Plugin::new(&bytes, &Linker::<()>::new(), (), policy()).unwrap_err();
        let template =
            PluginPre::new(load(&bytes), &Linker::<()>::new(), policy()).unwrap_err();
        prop_assert_eq!(&cold, &template);
        prop_assert_eq!(
            cold,
            PluginError::Instantiate(InstantiateError::MissingImport {
                module: "env".into(),
                name,
            })
        );
    }
}
