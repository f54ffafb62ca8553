//! Regression suite for snapshot provenance across epoch live swaps.
//!
//! Every install stamps the slot's plugin out of the snapshot held by a
//! cached [`waran_host::PluginPre`]. The hazard this pins down:
//! a live swap that installs *different* bytes must never produce an
//! instance stamped from the *previous* module's snapshot (stale memory,
//! stale globals). The template cache is content-addressed, so aliasing
//! would require two different byte strings to resolve to one template —
//! these tests hold that line from the outside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins::{self, faulty};
use waran_core::{install_plugin, ScenarioBuilder, SchedKind, SliceSpec};
use waran_host::{fnv1a, PluginHost, SandboxPolicy, TemplateCache};
use waran_wasm::instance::Linker;

/// Tests that install through the process-wide cache hold this, so the
/// eviction test's counter deltas are exact.
fn global_cache() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A module whose observable behavior is exactly its data segment: `run`
/// returns guest memory `[0, 4)`, which segment init seeds with `tag`.
fn tagged_wasm(tag: &str) -> Vec<u8> {
    assert_eq!(tag.len(), 4);
    waran_wasm::wat::assemble(&format!(
        r#"(module
             (memory (export "memory") 1)
             (data (i32.const 0) "{tag}")
             (func (export "run") (param i32 i32) (result i64)
               i64.const 4))"#
    ))
    .expect("tagged module assembles")
}

#[test]
fn live_swap_stamps_from_new_modules_snapshot() {
    let _serial = global_cache();
    let host = PluginHost::new();
    let a = tagged_wasm("AAAA");
    let b = tagged_wasm("BBBB");
    let policy = SandboxPolicy::default();

    install_plugin(&host, "slot", &a, policy).unwrap();
    // Pin a handle *before* the swap: the regression path is a caller that
    // adopts the new epoch at its next call boundary.
    let handle = host.handle("slot").unwrap();
    for _ in 0..32 {
        assert_eq!(handle.call("run", &[]).unwrap(), b"AAAA");
    }

    install_plugin(&host, "slot", &b, policy).unwrap();
    for _ in 0..32 {
        assert_eq!(
            handle.call("run", &[]).unwrap(),
            b"BBBB",
            "post-swap instance served the old module's snapshot"
        );
    }

    // Swapping *back* must revive A's data segment — and is allowed (in
    // fact expected) to reuse A's cached template to do it.
    install_plugin(&host, "slot", &a, policy).unwrap();
    assert_eq!(handle.call("run", &[]).unwrap(), b"AAAA");
}

#[test]
fn live_swap_mid_soak_under_parallel_callers() {
    let _serial = global_cache();
    let host = Arc::new(PluginHost::new());
    let a = tagged_wasm("AAAA");
    let b = tagged_wasm("BBBB");
    let policy = SandboxPolicy::default();
    install_plugin(&host, "slot", &a, policy).unwrap();

    let swapped = Arc::new(AtomicBool::new(false));
    let caller = {
        let host = Arc::clone(&host);
        let swapped = Arc::clone(&swapped);
        std::thread::spawn(move || {
            let handle = host.handle("slot").unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                let out = handle.call("run", &[]).unwrap();
                // Never a torn or stale-mixed response: each call lands
                // wholly in one epoch's snapshot.
                assert!(out == b"AAAA" || out == b"BBBB", "torn response {out:?}");
                if out == b"BBBB" {
                    // Adoption must only ever happen after the swap.
                    assert!(
                        swapped.load(Ordering::SeqCst),
                        "B served before its install"
                    );
                    return;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "caller never adopted the new snapshot"
                );
            }
        })
    };

    // Swap to B mid-soak; the pinned caller must adopt it at an upcoming
    // call boundary.
    swapped.store(true, Ordering::SeqCst);
    install_plugin(&host, "slot", &b, policy).unwrap();
    caller.join().unwrap();
}

#[test]
fn swapped_bytes_never_alias_one_template() {
    let cache = TemplateCache::<()>::new(Linker::new());
    let a = tagged_wasm("AAAA");
    let b = tagged_wasm("BBBB");
    let policy = SandboxPolicy::default();

    let pre_a = cache.get_or_build(&a, policy).unwrap();
    let pre_b = cache.get_or_build(&b, policy).unwrap();
    assert!(
        !Arc::ptr_eq(pre_a.module(), pre_b.module()),
        "different bytes must never share a template"
    );
    assert_eq!(cache.len(), 2);

    let inst_a = pre_a.instantiate(()).unwrap();
    let inst_b = pre_b.instantiate(()).unwrap();
    assert_eq!(
        inst_a.instance().memory().read_bytes(0, 4).unwrap(),
        b"AAAA"
    );
    assert_eq!(
        inst_b.instance().memory().read_bytes(0, 4).unwrap(),
        b"BBBB"
    );

    // Re-requesting A's bytes is the swap-back path: one template, reused.
    let pre_a2 = cache.get_or_build(&a, policy).unwrap();
    assert!(Arc::ptr_eq(pre_a.module(), pre_a2.module()));
    assert_eq!(cache.len(), 2);
}

// ---------------------------------------------------------------------
// The template cache is bounded: eviction must be invisible except in
// memory and in the cost of the next install.
// ---------------------------------------------------------------------

/// `TEMPLATE_CAPACITY` in `waran-host`'s `linker.rs` (private there).
const CAPACITY: usize = 64;

/// The stock round-robin scheduler with `tag` in a trailing custom
/// section: distinct bytes per tag, identical behavior.
fn tagged_scheduler(tag: u32) -> Vec<u8> {
    let mut wasm = plugins::rr_wasm().to_vec();
    // Section id 0, 8 bytes: a 3-byte name, then the payload.
    wasm.extend([0, 8, 3, b't', b'a', b'g']);
    wasm.extend(tag.to_le_bytes());
    wasm
}

fn request() -> SchedRequest {
    SchedRequest {
        slot: 0,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..4)
            .map(|i| UeInfo {
                ue_id: 70 + i,
                cqi: 9,
                mcs: 14,
                flags: 0,
                buffer_bytes: 50_000,
                avg_tput_bps: 1e6,
                prb_capacity_bits: 400.0,
            })
            .collect(),
    }
}

/// Digest of a short single-slice cell scheduled by `wasm`.
fn cell_digest(wasm: &[u8]) -> u64 {
    let mut cell = ScenarioBuilder::new()
        .slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(3))
        .seconds(0.2)
        .seed(7)
        .build()
        .expect("cell builds");
    cell.swap_plugin_bytes("s", wasm).expect("installs");
    cell.run().expect("runs").digest()
}

#[test]
fn eviction_is_invisible_except_in_memory() {
    let _serial = global_cache();
    let cache = TemplateCache::global();
    let host = PluginHost::new();
    let policy = SandboxPolicy::default();
    let request = request();
    let served = |slot: &str| host.call_sched(slot, &request).map(|r| r.total_prbs());

    let first = tagged_scheduler(0);
    let never_evicted = cell_digest(&first);
    install_plugin(&host, "first", &first, policy).unwrap();
    // A slot with a proven module, so the hostile push below retains it
    // as last-good.
    let good = tagged_scheduler(1);
    install_plugin(&host, "governed", &good, policy).unwrap();
    assert_eq!(served("governed"), Ok(52));

    let before = cache.stats();
    let flood = CAPACITY + 40;
    for tag in 0..flood {
        let wasm = tagged_scheduler(1000 + tag as u32);
        install_plugin(&host, "flood", &wasm, policy).unwrap();
        assert!(cache.len() <= CAPACITY);
    }
    let after = cache.stats();
    assert_eq!(after.misses - before.misses, flood as u64);
    assert_eq!(after.templates, CAPACITY);
    assert!(after.evictions - before.evictions >= 40);

    // Both templates installed before the flood are gone from the cache;
    // the plugin stamped from one of them still schedules.
    assert_eq!(served("first"), Ok(52));

    // A last-good module whose template was evicted is still what a
    // struck-out hostile push rolls back to.
    let hostile = plugins::compile_faulty(faulty::NULL_DEREF);
    install_plugin(&host, "governed", &hostile, policy).unwrap();
    for _ in 0..policy.quarantine_after {
        assert!(served("governed").is_err());
    }
    assert_eq!(served("governed"), Ok(52));
    let health = host.health("governed").unwrap();
    assert_eq!(health.strikes.total(), u64::from(policy.quarantine_after));
    assert_eq!(health.rollbacks, 1);
    assert_eq!(host.content_hash("governed"), Some(fnv1a(&good)));

    // Re-installing evicted bytes is a miss that rebuilds the identical
    // template: same content hash, same cell digest as before the flood.
    let before = cache.stats();
    install_plugin(&host, "first", &first, policy).unwrap();
    assert_eq!(cache.stats().misses, before.misses + 1, "was still cached");
    assert_eq!(host.content_hash("first"), Some(fnv1a(&first)));
    assert_eq!(cell_digest(&first), never_evicted);
}

#[test]
fn churn_working_set_stays_resident() {
    // The churn pattern: 24 fresh modules + 3 stock + 1 hostile cycled
    // through one cache. After the first pass every install is a hit.
    let cache = TemplateCache::<()>::new(Linker::new());
    let policy = SandboxPolicy::default();
    let mut working_set: Vec<Vec<u8>> = (0..24).map(tagged_scheduler).collect();
    working_set
        .extend([plugins::rr_wasm(), plugins::pf_wasm(), plugins::mt_wasm()].map(<[u8]>::to_vec));
    working_set.push(plugins::compile_faulty(faulty::NULL_DEREF));
    assert!(working_set.len() < CAPACITY);

    for pass in 0..4 {
        for wasm in &working_set {
            cache.get_or_build(wasm, policy).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 28, "pass {pass} rebuilt a template");
        assert_eq!(stats.hits, 28 * pass);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.templates, 28);
    }
}
