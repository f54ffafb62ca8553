//! Regression tests for the process-wide memory-buffer pool behind
//! [`InstancePre`]: dropped instances re-zero their dirty prefix and
//! donate the buffer, so a stamp-out after churn must be bit-identical
//! to the very first stamp-out — no matter what the previous tenant
//! wrote, filled, copied or grew, and no matter which module it was an
//! instance of.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instance::{ExecLimits, Instance, InstancePre, Linker};
use waran_wasm::interp::Value;
use waran_wasm::module::ConstExpr;
use waran_wasm::types::{Mutability, ValType};
use waran_wasm::{load_module, wat, Module};

const PAGE: u32 = 65536;

/// A module with a data segment, a mutable global and store/fill probes.
fn pool_module() -> InstancePre<()> {
    let bytes = wat::assemble(
        r#"(module
             (memory (export "memory") 1 4)
             (data (i32.const 64) "snapshot-image")
             (global $g (mut i32) (i32.const 7))
             (export "g" (global $g))
             (func (export "poke") (param i32 i32)
               local.get 0 local.get 1 i32.store)
             (func (export "bump") (result i32)
               global.get $g i32.const 1 i32.add global.set $g global.get $g)
             (func (export "grow") (result i32)
               i32.const 1 memory.grow))"#,
    )
    .expect("assembles");
    let module = load_module(&bytes).expect("validates");
    InstancePre::new(module.into(), &Linker::new(), ExecLimits::default()).expect("pre builds")
}

/// Full-memory image plus globals: everything a stamp-out must restore.
fn image(pre: &InstancePre<()>) -> (Vec<u8>, Value) {
    let inst = pre.instantiate(()).unwrap();
    let mem = inst.memory().read_bytes(0, PAGE).unwrap().to_vec();
    let g = inst.get_global("g").unwrap();
    (mem, g)
}

#[test]
fn restamp_after_mutation_matches_first_stamp() {
    let pre = pool_module();
    let (first_mem, first_g) = image(&pre);
    assert_eq!(&first_mem[64..78], b"snapshot-image");

    // Dirty a tenant far beyond the data segment, mutate its global, drop
    // it — the buffer goes back to the pool.
    {
        let mut inst = pre.instantiate(()).unwrap();
        inst.invoke("poke", &[Value::I32(0), Value::I32(-1)])
            .unwrap();
        inst.invoke(
            "poke",
            &[Value::I32((PAGE - 4) as i32), Value::I32(0x5a5a_5a5a)],
        )
        .unwrap();
        inst.invoke("bump", &[]).unwrap();
    }

    // The next stamp-out reuses that buffer and must be pristine.
    let (mem, g) = image(&pre);
    assert_eq!(
        mem, first_mem,
        "recycled buffer leaked a previous tenant's writes"
    );
    assert_eq!(g, first_g, "globals must be restamped from the snapshot");
}

#[test]
fn host_side_writes_are_reclaimed_too() {
    let pre = pool_module();
    let (first_mem, _) = image(&pre);

    // Dirty memory through every host-side mutation path — write_bytes,
    // fill, copy — at addresses the guest never touches.
    {
        let mut inst = pre.instantiate(()).unwrap();
        let mem = inst.memory_mut();
        mem.write_bytes(1000, b"host-dirt").unwrap();
        mem.fill(30_000, 0xaa, 512).unwrap();
        mem.copy(60_000, 64, 14).unwrap();
    }

    let (mem, _) = image(&pre);
    assert_eq!(mem, first_mem, "host-side writes leaked through the pool");
}

#[test]
fn grown_memories_are_not_recycled() {
    let pre = pool_module();

    // A tenant grows to 2 pages and writes into the grown page.
    {
        let mut inst = pre.instantiate(()).unwrap();
        assert_eq!(inst.invoke("grow", &[]).unwrap(), Some(Value::I32(1)));
        inst.invoke("poke", &[Value::I32((PAGE + 100) as i32), Value::I32(77)])
            .unwrap();
    }

    // The next stamp-out is back at the template's declared 1 page.
    let inst = pre.instantiate(()).unwrap();
    assert_eq!(inst.memory().size_pages(), 1);
    assert_eq!(
        &inst.memory().read_bytes(64, 14).unwrap(),
        &b"snapshot-image"
    );
}

#[test]
fn live_siblings_never_share_a_buffer() {
    let pre = pool_module();
    let mut a = pre.instantiate(()).unwrap();
    let b = pre.instantiate(()).unwrap();

    a.invoke("poke", &[Value::I32(128), Value::I32(0x0bad_f00d)])
        .unwrap();
    assert_eq!(b.memory().read::<4>(128, 0).unwrap(), [0; 4]);

    // And the template image itself is untouched by either tenant.
    drop(a);
    let c = pre.instantiate(()).unwrap();
    assert_eq!(c.memory().read::<4>(128, 0).unwrap(), [0; 4]);
}

#[test]
fn churn_reuses_buffers_without_unbounded_growth() {
    let pre = pool_module();
    // Interleaved stamp/drop churn with tenants that dirty their memory:
    // correctness (each stamp pristine) is the assertion; boundedness is
    // covered by the pool cap and the bench's RSS gate.
    let (first_mem, _) = image(&pre);
    for round in 0..100 {
        let mut inst = pre.instantiate(()).unwrap();
        inst.invoke("poke", &[Value::I32(4096), Value::I32(round)])
            .unwrap();
        let (mem, _) = image(&pre);
        assert_eq!(mem, first_mem, "round {round} saw a dirty stamp-out");
    }
}

// ---------------------------------------------------------------------
// Cross-template hygiene: the pool is shared by every module whose
// memory has the same size, so a buffer dirtied under module A must
// stamp module B exactly as a cold instantiation would.
// ---------------------------------------------------------------------

/// Memory size of the property's tenants. No other test in this binary
/// uses it, so (tests share the process-wide pool) the buffer B is
/// stamped into is the one A just dropped.
const TENANT_PAGES: u32 = 3;
const TENANT_BYTES: u32 = TENANT_PAGES * PAGE;
const TABLE_SLOTS: u32 = 4;

/// One randomly shaped module: a data segment, a mutable global and a
/// partly initialized table, plus guest-side store/fill/copy probes.
#[derive(Debug, Clone)]
struct Tenant {
    seg_at: u32,
    seg: Vec<u8>,
    global: i32,
    elem_at: u32,
    consts: (i32, i32),
}

fn tenant() -> impl Strategy<Value = Tenant> {
    (
        0..TENANT_BYTES - 256,
        vec(any::<u8>(), 0..256),
        any::<i32>(),
        0..TABLE_SLOTS - 1,
        (any::<i32>(), any::<i32>()),
    )
        .prop_map(|(seg_at, seg, global, elem_at, consts)| Tenant {
            seg_at,
            seg,
            global,
            elem_at,
            consts,
        })
}

impl Tenant {
    fn module(&self) -> Arc<Module> {
        use ValType::I32;
        let mut mb = ModuleBuilder::new();
        mb.memory(TENANT_PAGES, Some(TENANT_PAGES));
        mb.data(self.seg_at as i32, &self.seg);
        let g = mb.global(I32, Mutability::Var, ConstExpr::I32(self.global));
        mb.export_global("g", g);
        mb.table(TABLE_SLOTS, None);
        let nil_i32 = mb.func_type(&[], &[I32]);
        let entries = [self.consts.0, self.consts.1].map(|c| {
            let f = mb.begin_func(nil_i32);
            mb.code().i32_const(c);
            mb.end_func().unwrap();
            f
        });
        mb.elem(self.elem_at as i32, &entries);

        let ty = mb.func_type(&[I32], &[I32]);
        let dispatch = mb.begin_func(ty);
        mb.code().local_get(0).call_indirect(nil_i32);
        mb.end_func().unwrap();
        mb.export_func("dispatch", dispatch);

        let ty = mb.func_type(&[I32, I32], &[]);
        let poke = mb.begin_func(ty);
        mb.code().local_get(0).local_get(1).i32_store(0);
        mb.end_func().unwrap();
        mb.export_func("poke", poke);

        let ty = mb.func_type(&[I32, I32, I32], &[]);
        let fill = mb.begin_func(ty);
        mb.code()
            .local_get(0)
            .local_get(1)
            .local_get(2)
            .memory_fill();
        mb.end_func().unwrap();
        mb.export_func("fill", fill);
        let copy = mb.begin_func(ty);
        mb.code()
            .local_get(0)
            .local_get(1)
            .local_get(2)
            .memory_copy();
        mb.end_func().unwrap();
        mb.export_func("copy", copy);

        let ty = mb.func_type(&[], &[]);
        let bump = mb.begin_func(ty);
        mb.code().global_get(g).i32_const(1).i32_add().global_set(g);
        mb.end_func().unwrap();
        mb.export_func("bump", bump);

        let module = load_module(&mb.finish_bytes().unwrap()).expect("tenant validates");
        Arc::new(module)
    }
}

/// One mutation of a live tenant, through the guest or behind its back.
#[derive(Debug, Clone)]
enum Dirt {
    Store { at: u32, value: i32 },
    Fill { at: u32, byte: u8, len: u32 },
    Copy { dst: u32, src: u32, len: u32 },
    HostWrite { at: u32, bytes: Vec<u8> },
    Bump,
}

fn dirt() -> impl Strategy<Value = Dirt> {
    let span = || (0..TENANT_BYTES - 4096, 0..4096u32);
    prop_oneof![
        (0..TENANT_BYTES - 4, any::<i32>()).prop_map(|(at, value)| Dirt::Store { at, value }),
        (span(), any::<u8>()).prop_map(|((at, len), byte)| Dirt::Fill { at, byte, len }),
        (span(), 0..TENANT_BYTES - 4096).prop_map(|((dst, len), src)| Dirt::Copy { dst, src, len }),
        (0..TENANT_BYTES - 64, vec(any::<u8>(), 0..64))
            .prop_map(|(at, bytes)| Dirt::HostWrite { at, bytes }),
        Just(Dirt::Bump),
    ]
}

fn apply(inst: &mut Instance<()>, dirt: &Dirt) {
    let i = |v: u32| Value::I32(v as i32);
    match dirt {
        Dirt::Store { at, value } => inst.invoke("poke", &[i(*at), Value::I32(*value)]),
        Dirt::Fill { at, byte, len } => inst.invoke("fill", &[i(*at), i(*byte as u32), i(*len)]),
        Dirt::Copy { dst, src, len } => inst.invoke("copy", &[i(*dst), i(*src), i(*len)]),
        Dirt::HostWrite { at, bytes } => {
            inst.memory_mut().write_bytes(*at, bytes).unwrap();
            Ok(None)
        }
        Dirt::Bump => inst.invoke("bump", &[]),
    }
    .expect("in-bounds mutation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffer_dirtied_under_one_module_stamps_another_pristine(
        a in tenant(),
        b in tenant(),
        dirt in vec(dirt(), 0..24),
    ) {
        let limits = ExecLimits::default();
        {
            let pre_a = InstancePre::new(a.module(), &Linker::new(), limits).unwrap();
            let mut inst = pre_a.instantiate(()).unwrap();
            for d in &dirt {
                apply(&mut inst, d);
            }
            // The instance, then its template: only the pool remembers A.
        }

        let module_b = b.module();
        let pre_b = InstancePre::new(Arc::clone(&module_b), &Linker::new(), limits).unwrap();
        let mut stamped = pre_b.instantiate(()).unwrap();
        let mut cold = Instance::with_limits(module_b, &Linker::new(), (), limits).unwrap();

        prop_assert!(
            stamped.memory().read_bytes(0, TENANT_BYTES) == cold.memory().read_bytes(0, TENANT_BYTES),
            "memory differs from a cold instantiation"
        );
        prop_assert_eq!(stamped.memory().max_pages(), cold.memory().max_pages());
        prop_assert_eq!(stamped.get_global("g"), cold.get_global("g"));
        // The table, slot by slot — one past the end included.
        for slot in 0..=TABLE_SLOTS {
            let slot = [Value::I32(slot as i32)];
            prop_assert_eq!(stamped.invoke("dispatch", &slot), cold.invoke("dispatch", &slot));
        }
    }
}
