//! Pre-validated plugin templates and the cache that owns them.
//!
//! Production fleets install the *same* plugin into hundreds of cells.
//! Before this module existed, every install re-ran import resolution,
//! import type-checking, ABI export resolution and data/elem-segment
//! initialization per instance. The types here hoist all of that to
//! per-*module* work:
//!
//! * [`PluginPre`] — the pre-validated instantiation template: a
//!   [`waran_wasm::InstancePre`] (import vector resolved and type-checked
//!   once against the engine's [`Linker`], plus the post-segment-init
//!   memory/table/globals snapshot), the [`SandboxPolicy`] applied at
//!   stamp-out and the pre-resolved byte-buffer ABI table.
//!   [`PluginPre::instantiate`] is a copy of the snapshot's initialized
//!   prefix into a pooled buffer, a handful of `Arc` bumps and the start
//!   function — O(µs), independent of module size.
//! * [`TemplateCache`] — the fleet-wide template store and the only cache
//!   of loaded plugin code, built around the one linker it instantiates
//!   against, content-addressed by `(bytecode, policy)` and bounded by LRU
//!   eviction. Content addressing is what makes live swaps safe:
//!   swapping different bytes into a slot *cannot* reuse the old module's
//!   snapshot, because the new bytes hash to a different template.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use waran_wasm::analysis::Bound;
use waran_wasm::instance::{InstancePre, InstantiateError, Linker, MAX_CALL_DEPTH, MAX_REGS};
use waran_wasm::Module;

use crate::plugin::{fnv1a, AbiTable, Plugin, PluginError, SandboxPolicy};

/// Admission gate: check every exported function's static resource
/// bounds against the policy. Runs at template build time — i.e. at
/// `install_plugin` / `TemplateCache` population — so a rejected plugin
/// never stamps an instance.
///
/// Opt-in gates (`max_fuel_bound`, `no_unbounded_loops`) reject anything
/// the analyzer could not prove conforming. The always-on arena/depth
/// gates reject only *provable* violations — a finite worst case that
/// exceeds the runtime limit — so plugins the analyzer cannot bound keep
/// today's behavior (the runtime meters still trap them).
fn admit(module: &Module, policy: &SandboxPolicy) -> Result<(), PluginError> {
    let analysis = module
        .analysis()
        .map_err(|e| PluginError::Instantiate(InstantiateError::Analysis(e)))?;
    for r in analysis.exports() {
        let func = r.export.clone().unwrap_or_default();
        if let Some(limit) = policy.max_fuel_bound {
            if r.fuel > Bound::Finite(limit) {
                return Err(PluginError::Admission {
                    func,
                    bound: "fuel",
                    value: r.fuel,
                    limit,
                });
            }
        }
        if policy.no_unbounded_loops && (r.unbounded_loops || r.recursive) {
            return Err(PluginError::Admission {
                func,
                bound: "loop-bound",
                value: Bound::Unbounded,
                limit: 0,
            });
        }
        if let Bound::Finite(n) = r.regs {
            if n > MAX_REGS as u64 {
                return Err(PluginError::Admission {
                    func,
                    bound: "regs",
                    value: r.regs,
                    limit: MAX_REGS as u64,
                });
            }
        }
        if let Bound::Finite(d) = r.frames {
            if d > MAX_CALL_DEPTH as u64 {
                return Err(PluginError::Admission {
                    func,
                    bound: "call-depth",
                    value: r.frames,
                    limit: MAX_CALL_DEPTH as u64,
                });
            }
        }
    }
    Ok(())
}

/// A pre-validated plugin instantiation template.
///
/// Bundles the engine-level [`InstancePre`] (resolved imports + state
/// snapshot) with the host-level context every stamped instance needs: the
/// [`SandboxPolicy`] (execution limits applied at stamp-out time, fuel
/// re-armed per call) and the pre-resolved byte-buffer `AbiTable`.
///
/// Cloning is a few `Arc` bumps; a template is `Send + Sync` and meant to
/// be built once per `(module, policy)` and shared by every worker.
pub struct PluginPre<T> {
    pre: InstancePre<T>,
    policy: SandboxPolicy,
    abi: AbiTable,
    /// FNV-1a of the source bytecode, stamped by [`TemplateCache`] so every
    /// instance knows which content-addressed version it came from (the
    /// identity rollback logs report). `None` when the template was built
    /// straight from a `Module` and the bytes were never seen.
    content_hash: Option<u64>,
}

impl<T> Clone for PluginPre<T> {
    fn clone(&self) -> Self {
        PluginPre {
            pre: self.pre.clone(),
            policy: self.policy,
            abi: self.abi,
            content_hash: self.content_hash,
        }
    }
}

impl<T> std::fmt::Debug for PluginPre<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PluginPre")
            .field("pre", &self.pre)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl<T> PluginPre<T> {
    /// Build a snapshotting template for `module` under `policy`:
    /// instances are stamped out of the captured post-segment-init state
    /// (memcpy) instead of re-running data/elem/global initialization.
    pub fn new(
        module: Arc<Module>,
        linker: &Linker<T>,
        policy: SandboxPolicy,
    ) -> Result<Self, PluginError> {
        let abi = AbiTable::resolve(&module);
        let pre = InstancePre::new(module, linker, policy.max_memory_pages)
            .map_err(PluginError::Instantiate)?;
        admit(pre.module(), &policy)?;
        Ok(PluginPre {
            pre,
            policy,
            abi,
            content_hash: None,
        })
    }

    /// Stamp the bytecode content hash onto this template; every plugin
    /// instantiated from it reports the hash as its version identity.
    pub fn with_content_hash(mut self, hash: u64) -> Self {
        self.content_hash = Some(hash);
        self
    }

    /// The bytecode content hash, when known.
    pub fn content_hash(&self) -> Option<u64> {
        self.content_hash
    }

    /// The templated module.
    pub fn module(&self) -> &Arc<Module> {
        self.pre.module()
    }

    /// The sandbox policy stamped instances run under.
    pub fn policy(&self) -> SandboxPolicy {
        self.policy
    }

    /// Stamp out a live [`Plugin`] with host state `data`: memcpy the
    /// snapshot, run `start`. (The policy's fuel is armed by the plugin
    /// per ABI call.)
    pub fn instantiate(&self, data: T) -> Result<Plugin<T>, PluginError> {
        let instance = self
            .pre
            .instantiate(data)
            .map_err(PluginError::Instantiate)?;
        Ok(Plugin::from_parts(
            instance,
            self.policy,
            self.abi,
            self.content_hash,
        ))
    }
}

/// Templates the cache holds before a miss evicts the least recently
/// used. A fleet preset keeps at most 3 distinct modules per process and
/// the churn benchmark's working set is 28 (24 fresh + 3 stock + 1
/// hostile), so every working set in the repo stays resident with 2x
/// headroom, while a process that is pushed never-seen modules forever
/// retains a bounded number of them.
const TEMPLATE_CAPACITY: usize = 64;

struct TemplateEntry<T> {
    /// The bytecode, shared by every entry built from equal bytes.
    bytes: Arc<[u8]>,
    policy: SandboxPolicy,
    pre: PluginPre<T>,
    /// Cache tick of the most recent hit (or the insert).
    last_used: u64,
}

impl<T> TemplateEntry<T> {
    fn matches(&self, bytes: &[u8], policy: SandboxPolicy) -> bool {
        self.policy == policy && self.bytes.as_ref() == bytes
    }
}

struct CacheState<T> {
    /// Entries bucketed by the FNV-1a hash of their bytecode.
    buckets: HashMap<u64, Vec<TemplateEntry<T>>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<T> CacheState<T> {
    fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// The template for `(bytes, policy)`, stamped as just used.
    fn hit(&mut self, key: u64, bytes: &[u8], policy: SandboxPolicy) -> Option<PluginPre<T>> {
        self.tick += 1;
        let entry = self
            .buckets
            .get_mut(&key)?
            .iter_mut()
            .find(|entry| entry.matches(bytes, policy))?;
        entry.last_used = self.tick;
        Some(entry.pre.clone())
    }

    /// Drop the cache's reference to the least recently used template.
    fn evict_lru(&mut self) {
        let oldest = self
            .buckets
            .iter()
            .flat_map(|(&key, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(idx, entry)| (entry.last_used, key, idx))
            })
            .min();
        let Some((_, key, idx)) = oldest else {
            return;
        };
        let bucket = self.buckets.get_mut(&key).expect("key came from the map");
        bucket.swap_remove(idx);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.evictions += 1;
    }
}

/// Counters and sizes of a [`TemplateCache`], from [`TemplateCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TemplateCacheStats {
    /// Lookups answered by a cached template.
    pub hits: u64,
    /// Lookups that had to build (or failed to build) a template.
    pub misses: u64,
    /// Templates dropped to stay within capacity.
    pub evictions: u64,
    /// Templates currently cached.
    pub templates: usize,
    /// Snapshot memory-image bytes the cached templates pin.
    pub image_bytes: usize,
}

/// The fleet-wide cache of [`PluginPre`] templates, content-addressed by
/// `(bytecode, policy)` — the one place loaded plugin code is retained.
///
/// A cache is built around the one [`Linker`] its templates resolve their
/// imports against, so "which host functions" is a property of the cache,
/// not a key dimension: embedders with different host interfaces hold
/// different caches.
///
/// A miss decodes, validates, lowers and analyses the module, resolves
/// imports and the ABI and captures the segment-init snapshot; a hit is a
/// few `Arc` bumps. Entries built from equal bytes under different
/// policies share one `Arc<Module>` and one copy of the bytecode. Installing one xApp into 100 cells costs one template build
/// and 100 stamp-outs.
///
/// Content addressing doubles as live-swap correctness: a swap that
/// installs different bytes necessarily builds (or re-uses) a *different*
/// template, so post-swap instances can never be stamped from the old
/// module's snapshot. Swapping back to previous bytes deliberately re-uses
/// the previous template — the template is a pure function of its key.
///
/// The cache is bounded: a miss that takes it past its capacity drops the
/// least recently used entry. Eviction only drops the *cache's* `Arc`s —
/// live instances, retained last-good plugins and template clones keep
/// their module alive — and re-requesting evicted bytes rebuilds an
/// identical template, so eviction is invisible except in memory and in
/// the cost of the next install.
///
/// Keys are FNV-1a hashes verified by byte equality on every hit, so a
/// collision can never alias two plugins. Builds run outside the lock.
pub struct TemplateCache<T> {
    linker: Linker<T>,
    /// Recovered, not refused, after a panic under it (as every host
    /// lock is): builds run outside the lock, so at worst a counter or an
    /// eviction is stale, and one panic cannot fail every later install
    /// in the process.
    state: Mutex<CacheState<T>>,
}

impl<T> TemplateCache<T> {
    /// An empty cache whose templates instantiate against `linker`.
    pub fn new(linker: Linker<T>) -> Self {
        TemplateCache {
            linker,
            state: Mutex::new(CacheState {
                buckets: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Return the cached template for `(bytes, policy)`, building it on
    /// the first request.
    pub fn get_or_build(
        &self,
        bytes: &[u8],
        policy: SandboxPolicy,
    ) -> Result<PluginPre<T>, PluginError> {
        let key = fnv1a(bytes);
        let shared = {
            let mut state = self.state.lock();
            if let Some(pre) = state.hit(key, bytes, policy) {
                state.hits += 1;
                return Ok(pre);
            }
            state.misses += 1;
            // Same bytes under another policy: share its module.
            state.buckets.get(&key).and_then(|bucket| {
                let same = bucket.iter().find(|e| e.bytes.as_ref() == bytes)?;
                Some((Arc::clone(&same.bytes), Arc::clone(same.pre.module())))
            })
        };
        // Build outside the lock: decode/validate/lowering/snapshot are
        // the expensive paths and concurrent installs must not serialize.
        let (bytes, module) = match shared {
            Some(shared) => shared,
            None => {
                let module = waran_wasm::load_module(bytes).map_err(PluginError::Load)?;
                (Arc::from(bytes), Arc::new(module))
            }
        };
        let pre = PluginPre::new(module, &self.linker, policy)?.with_content_hash(key);
        let mut state = self.state.lock();
        // A racing install may have added it between unlock and relock.
        if let Some(raced) = state.hit(key, &bytes, policy) {
            return Ok(raced);
        }
        let last_used = state.tick;
        state.buckets.entry(key).or_default().push(TemplateEntry {
            bytes,
            policy,
            pre: pre.clone(),
            last_used,
        });
        if state.len() > TEMPLATE_CAPACITY {
            state.evict_lru();
        }
        Ok(pre)
    }

    /// Number of distinct templates cached.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters and what the cache currently pins.
    pub fn stats(&self) -> TemplateCacheStats {
        let state = self.state.lock();
        TemplateCacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            templates: state.len(),
            image_bytes: state
                .buckets
                .values()
                .flatten()
                .map(|entry| entry.pre.pre.image_bytes())
                .sum(),
        }
    }
}

impl<T> std::fmt::Debug for TemplateCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl TemplateCache<()> {
    /// The process-wide cache used by the scenario engine's stateless
    /// (`T = ()`) plugin installs: no host functions.
    pub fn global() -> &'static TemplateCache<()> {
        static GLOBAL: OnceLock<TemplateCache<()>> = OnceLock::new();
        GLOBAL.get_or_init(|| TemplateCache::new(Linker::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_wasm::interp::Value;

    /// A cache with no host functions, like [`TemplateCache::global`].
    fn empty_cache() -> TemplateCache<()> {
        TemplateCache::new(Linker::new())
    }

    fn counter_wasm() -> Vec<u8> {
        waran_wat::assemble(
            r#"(module
                 (memory 1)
                 (data (i32.const 16) "seeded")
                 (global $g (mut i32) (i32.const 7))
                 (func (export "bump") (result i32)
                   global.get $g
                   i32.const 1
                   i32.add
                   global.set $g
                   global.get $g))"#,
        )
        .unwrap()
    }

    #[test]
    fn template_stamps_are_isolated_and_seeded() {
        let module = Arc::new(waran_wasm::load_module(&counter_wasm()).unwrap());
        let pre = PluginPre::new(module, &Linker::<()>::new(), SandboxPolicy::default()).unwrap();
        let mut p1 = pre.instantiate(()).unwrap();
        let mut p2 = pre.instantiate(()).unwrap();
        // Data segment present in every stamp-out.
        assert_eq!(p1.instance().memory().read_bytes(16, 6).unwrap(), b"seeded");
        // Globals start from the snapshot and diverge per instance.
        let bump = |p: &mut Plugin<()>| p.instance_mut().invoke("bump", &[]).unwrap();
        assert_eq!(bump(&mut p1), Some(Value::I32(8)));
        assert_eq!(bump(&mut p1), Some(Value::I32(9)));
        assert_eq!(bump(&mut p2), Some(Value::I32(8)));
        // Mutating a stamped instance never leaks back into the template.
        p1.instance_mut()
            .memory_mut()
            .write_bytes(16, b"dirty!")
            .unwrap();
        let p3 = pre.instantiate(()).unwrap();
        assert_eq!(p3.instance().memory().read_bytes(16, 6).unwrap(), b"seeded");
    }

    #[test]
    fn template_cache_keys_on_bytes_and_policy() {
        let cache = empty_cache();
        let wasm = counter_wasm();
        let p1 = cache.get_or_build(&wasm, SandboxPolicy::default()).unwrap();
        let p2 = cache.get_or_build(&wasm, SandboxPolicy::default()).unwrap();
        assert!(Arc::ptr_eq(p1.module(), p2.module()));
        assert_eq!(cache.len(), 1);
        // Different policy → different template.
        cache
            .get_or_build(&wasm, SandboxPolicy::realtime())
            .unwrap();
        assert_eq!(cache.len(), 2);
        // Different bytes → different template.
        cache
            .get_or_build(&numbered_wasm(0), SandboxPolicy::default())
            .unwrap();
        assert_eq!(cache.len(), 3);
    }

    /// `n`-th member of a family of modules that differ in one constant.
    fn numbered_wasm(n: usize) -> Vec<u8> {
        waran_wat::assemble(&format!(
            r#"(module (memory 1) (func (export "n") (result i32) i32.const {n}))"#
        ))
        .unwrap()
    }

    #[test]
    fn eviction_frees_the_module_with_its_last_owner() {
        let cache = empty_cache();
        let wasm = counter_wasm();
        let held = || {
            // Two deployments of the same bytes share one module.
            let pre = cache.get_or_build(&wasm, SandboxPolicy::default()).unwrap();
            let other = cache
                .get_or_build(&wasm, SandboxPolicy::realtime())
                .unwrap();
            assert!(Arc::ptr_eq(pre.module(), other.module()));
            let plugin = pre.instantiate(()).unwrap();
            (Arc::downgrade(pre.module()), plugin)
        };
        // A full capacity of never-seen modules evicts every older entry.
        let mut next = 0;
        let mut flood = || {
            for n in next..next + TEMPLATE_CAPACITY {
                cache
                    .get_or_build(&numbered_wasm(n), SandboxPolicy::default())
                    .unwrap();
            }
            next += TEMPLATE_CAPACITY;
        };

        let (module, plugin) = held();
        flood();
        assert!(module.upgrade().is_some(), "live instance keeps its module");
        drop(plugin);
        assert!(
            module.upgrade().is_none(),
            "evicted module survived its last instance"
        );

        let (module, plugin) = held();
        drop(plugin);
        assert!(
            module.upgrade().is_some(),
            "cached template owns the module"
        );
        flood();
        assert!(
            module.upgrade().is_none(),
            "evicted template kept the module"
        );
    }

    #[test]
    fn invalid_modules_are_rejected_and_not_cached() {
        let cache = empty_cache();
        let err = cache
            .get_or_build(b"not wasm", SandboxPolicy::default())
            .unwrap_err();
        assert!(matches!(err, PluginError::Load(_)));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_bounds_the_cache_and_spares_recent_entries() {
        let cache = empty_cache();
        let policy = SandboxPolicy::default();
        let get = |n: usize| cache.get_or_build(&numbered_wasm(n), policy);
        let call = |pre: &PluginPre<()>| {
            let mut plugin = pre.instantiate(()).unwrap();
            plugin.instance_mut().invoke("n", &[]).unwrap()
        };

        let first = get(0).unwrap();
        for n in 1..TEMPLATE_CAPACITY {
            get(n).unwrap();
        }
        // Touch 0 so that 1 is the least recently used, then overflow.
        get(0).unwrap();
        get(TEMPLATE_CAPACITY).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.templates, TEMPLATE_CAPACITY);
        assert_eq!((stats.hits, stats.evictions), (1, 1));
        assert_eq!(stats.misses, TEMPLATE_CAPACITY as u64 + 1);

        get(0).unwrap();
        assert_eq!(cache.stats().hits, 2, "recently used entry was evicted");
        let rebuilt = get(1).unwrap();
        assert_eq!(cache.stats().evictions, 2, "LRU entry was still cached");
        assert!(cache.len() <= TEMPLATE_CAPACITY);

        // An evicted template's clones keep working, and the rebuild is
        // the same template.
        assert_eq!(call(&first), Some(Value::I32(0)));
        assert_eq!(call(&rebuilt), Some(Value::I32(1)));
        assert_eq!(rebuilt.content_hash(), Some(fnv1a(&numbered_wasm(1))));
    }

    #[test]
    fn racing_installs_of_the_same_bytes_share_one_template() {
        let cache = empty_cache();
        let wasm = counter_wasm();
        let start = std::sync::Barrier::new(4);
        let modules: Vec<Arc<Module>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let pre = cache.get_or_build(&wasm, SandboxPolicy::default()).unwrap();
                        Arc::clone(pre.module())
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        // Losers of the build race adopt the winner's entry.
        assert!(modules.iter().all(|m| Arc::ptr_eq(m, &modules[0])));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
    }

    #[test]
    fn stats_track_pinned_image_bytes() {
        let cache = empty_cache();
        cache
            .get_or_build(&counter_wasm(), SandboxPolicy::default())
            .unwrap();
        // The snapshot keeps the data segment's extent ("seeded" at 16),
        // not the 64 KiB memory.
        assert_eq!(cache.stats().image_bytes, 22);
        assert!(format!("{cache:?}").contains("image_bytes: 22"));
    }
}
