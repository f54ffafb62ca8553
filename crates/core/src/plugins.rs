//! The standard WA-RAN plugin library: intra-slice schedulers and the
//! §5.D fault-demonstration plugins, all authored in PlugC and compiled to
//! Wasm on first use.
//!
//! The scheduler plugins implement exactly the three policies the paper's
//! MVNOs use (Round Robin, Proportional Fair, Maximum Throughput) against
//! the documented `waran-abi::sched` byte layout. They are bit-for-bit
//! ordinary `.wasm` modules — the same bytes could be loaded by any other
//! conformant runtime.

use std::sync::OnceLock;

/// ABI offsets used by the plugin sources below (kept in sync with
/// `waran_abi::sched` by the `abi_offsets_locked` test):
/// request: `n_ues@4 (u16)`, `prbs@16 (i32)`, records at 24 + 32·i with
/// `ue_id@0 (u32)`, `buffer@+8 (u32)`, `avg@+16 (f64)`, `cap@+24 (f64)`;
/// response: 8-byte header then 8-byte allocation records.
///
/// Shared PlugC helpers: request accessors, response-header writer and
/// allocation-record writer.
const COMMON: &str = r#"
fn req_n(req: i32) -> i32 {
    return load_u8(req + 4) | (load_u8(req + 5) << 8);
}

fn req_prbs(req: i32) -> i32 {
    return load_i32(req + 16);
}

fn rec(req: i32, i: i32) -> i32 {
    return req + 24 + i * 32;
}

fn write_header(out: i32, n: i32) {
    store_u8(out, 0x52); store_u8(out + 1, 0x57);
    store_u8(out + 2, 1); store_u8(out + 3, 0);
    store_u8(out + 4, n & 255); store_u8(out + 5, (n >> 8) & 255);
    store_u8(out + 6, 0); store_u8(out + 7, 0);
}

fn write_alloc(out: i32, idx: i32, ue_id: i32, prbs: i32, priority: i32) {
    var slot: i32 = out + 8 + idx * 8;
    store_i32(slot, ue_id);
    store_u8(slot + 4, prbs & 255);
    store_u8(slot + 5, (prbs >> 8) & 255);
    store_u8(slot + 6, priority & 255);
    store_u8(slot + 7, 0);
}

// PRBs needed to drain the buffer of record i.
fn needed(req: i32, i: i32) -> i32 {
    var cap: f64 = load_f64(rec(req, i) + 24);
    if (cap <= 0.0) { return 0; }
    var bits: f64 = (load_i32(rec(req, i) + 8) as f64) * 8.0;
    return ceil(bits / cap) as i32;
}
"#;

/// Round-robin scheduler plugin: equal shares over backlogged UEs with a
/// rotating head; unusable quota spills to the next UE in rotation.
pub const RR_SOURCE_BODY: &str = r#"
global next: i32 = 0;

export fn schedule(req: i32, len: i32) -> i64 {
    var n: i32 = req_n(req);
    var prbs: i32 = req_prbs(req);
    var out: i32 = wrn_alloc(8 + n * 8);
    // Count backlogged UEs.
    var m: i32 = 0;
    var i: i32 = 0;
    while (i < n) {
        if (load_i32(rec(req, i) + 8) > 0) { m = m + 1; }
        i = i + 1;
    }
    if (m == 0 || prbs == 0) {
        write_header(out, 0);
        return pack(out, 8);
    }
    var rotation: i32 = next % m;
    next = next + 1;
    var share: i32 = prbs / m;
    var extra: i32 = prbs % m;
    var written: i32 = 0;
    var remaining: i32 = prbs;
    var spill: i32 = 0;
    // Record index of the `rotation`-th backlogged UE (one pass).
    var idx: i32 = 0;
    var seen: i32 = 0;
    while (idx < n) {
        if (load_i32(rec(req, idx) + 8) > 0) {
            if (seen == rotation) { break; }
            seen = seen + 1;
        }
        idx = idx + 1;
    }
    // Circular walk from there: each backlogged record is visited once.
    var step: i32 = 0;
    while (step < m) {
        if (load_i32(rec(req, idx) + 8) > 0) {
            var quota: i32 = share + spill;
            if (step < extra) { quota = quota + 1; }
            if (quota > remaining) { quota = remaining; }
            var need: i32 = needed(req, idx);
            var give: i32 = quota;
            if (need < give) { give = need; }
            spill = quota - give;
            remaining = remaining - give;
            if (give > 0) {
                write_alloc(out, written, load_i32(rec(req, idx)), give, step);
                written = written + 1;
            }
            step = step + 1;
        }
        idx = idx + 1;
        if (idx == n) { idx = 0; }
    }
    write_header(out, written);
    return pack(out, 8 + written * 8);
}
"#;

/// Greedy argmax scheduler skeleton shared by PF and MT: repeatedly pick
/// the unserved backlogged UE with the best metric and give it the PRBs it
/// needs. The `metric` function differs per policy.
fn greedy_source(metric_fn: &str) -> String {
    format!(
        r#"
{metric_fn}

export fn schedule(req: i32, len: i32) -> i64 {{
    var n: i32 = req_n(req);
    var prbs: i32 = req_prbs(req);
    var out: i32 = wrn_alloc(8 + n * 8);
    // One served flag per record; the heap is recycled, so clear it.
    var served: i32 = wrn_alloc(n);
    var i: i32 = 0;
    while (i < n) {{ store_u8(served + i, 0); i = i + 1; }}
    var written: i32 = 0;
    var remaining: i32 = prbs;
    var rank: i32 = 0;
    while (remaining > 0) {{
        // Argmax over unserved, backlogged UEs.
        var best: i32 = 0 - 1;
        var best_metric: f64 = 0.0 - 1.0e300;
        var j: i32 = 0;
        while (j < n) {{
            if (load_u8(served + j) == 0 && load_i32(rec(req, j) + 8) > 0) {{
                var m: f64 = metric(req, j);
                if (m > best_metric) {{
                    best_metric = m;
                    best = j;
                }}
            }}
            j = j + 1;
        }}
        if (best < 0) {{ break; }}
        store_u8(served + best, 1);
        var need: i32 = needed(req, best);
        var give: i32 = need;
        if (remaining < give) {{ give = remaining; }}
        if (give > 0) {{
            write_alloc(out, written, load_i32(rec(req, best)), give, rank);
            written = written + 1;
            remaining = remaining - give;
        }}
        rank = rank + 1;
    }}
    write_header(out, written);
    return pack(out, 8 + written * 8);
}}
"#
    )
}

/// Proportional-fair metric: achievable per-PRB rate over long-term
/// average.
const PF_METRIC: &str = r#"
fn metric(req: i32, i: i32) -> f64 {
    return load_f64(rec(req, i) + 24) / max(load_f64(rec(req, i) + 16), 0.001);
}
"#;

/// Maximum-throughput metric: achievable per-PRB rate.
const MT_METRIC: &str = r#"
fn metric(req: i32, i: i32) -> f64 {
    return load_f64(rec(req, i) + 24);
}
"#;

/// §5.D fault plugins: each triggers one class of unsafe behaviour inside
/// the sandbox when `schedule` runs.
pub mod faulty {
    /// "Null pointer dereference": writing through a null pointer. Wasm has
    /// no guard page at 0, so (as C compilers targeting wasm do) null is
    /// modelled as an address that cannot be valid — here `0 - 4`, which
    /// wraps to the top of the 32-bit space and trips the bounds check.
    pub const NULL_DEREF: &str = r#"
export fn schedule(req: i32, len: i32) -> i64 {
    var p: i32 = 0;          // NULL
    store_i32(p - 4, 42);    // *(p - 1) = 42
    return pack(0, 0);
}
"#;

    /// Out-of-bounds array write: indexes one past the end of memory.
    pub const OOB_ACCESS: &str = r#"
export fn schedule(req: i32, len: i32) -> i64 {
    var end: i32 = memory_size() * 65536;
    store_i32(end - 3, 7);   // straddles the boundary
    return pack(0, 0);
}
"#;

    /// Double free: a free-list allocator that detects freeing a block
    /// already on the free list and aborts (what hardened allocators do;
    /// in the sandbox the abort is a catchable trap).
    pub const DOUBLE_FREE: &str = r#"
global free_head: i32 = 0;

fn mini_free(p: i32) {
    // Walk the free list; freeing a block twice is heap corruption.
    var cur: i32 = free_head;
    while (cur != 0) {
        if (cur == p) { trap(); }
        cur = load_i32(cur);
    }
    store_i32(p, free_head);
    free_head = p;
}

export fn schedule(req: i32, len: i32) -> i64 {
    var block: i32 = wrn_alloc(64);
    mini_free(block);
    mini_free(block);   // double free -> trap
    return pack(0, 0);
}
"#;

    /// Fuel burner: a long busy loop the fuel meter halts deterministically
    /// (out-of-fuel, not the wall-clock deadline) — the resource-exhaustion
    /// strike class for governance tests and churn soaks. The bound is far
    /// beyond any sane per-call fuel budget but finite, so a meterless host
    /// still terminates.
    pub const FUEL_BURNER: &str = r#"
export fn schedule(req: i32, len: i32) -> i64 {
    var x: i32 = 0;
    while (x < 2000000000) { x = x + 1; }
    return pack(0, 0);
}
"#;

    /// The §5.D / Fig. 5c leaky scheduler: allocates on every invocation
    /// and never frees. Compiled **without** the ABI prelude so nothing
    /// recycles the heap; its memory growth is bounded only by the host's
    /// page policy.
    pub const LEAKY: &str = r#"
global heap: i32 = 4096;

export fn wrn_alloc(n: i32) -> i32 {
    var p: i32 = heap;
    heap = heap + n;
    while (memory_size() * 65536 < heap) {
        if (memory_grow(1) < 0) { trap(); }
    }
    return p;
}

export fn schedule(req: i32, len: i32) -> i64 {
    // Leak 4 KiB per slot, touching it so it is really "used".
    var p: i32 = wrn_alloc(4096);
    store_i32(p, 1);
    // Still answer correctly: single UE gets everything.
    var n: i32 = load_u8(req + 4) | (load_u8(req + 5) << 8);
    var prbs: i32 = load_i32(req + 16);
    var out: i32 = wrn_alloc(16);
    store_u8(out, 0x52); store_u8(out + 1, 0x57);
    store_u8(out + 2, 1); store_u8(out + 3, 0);
    if (n == 0) {
        store_u8(out + 4, 0); store_u8(out + 5, 0);
        store_u8(out + 6, 0); store_u8(out + 7, 0);
        return pack(out, 8);
    }
    store_u8(out + 4, 1); store_u8(out + 5, 0);
    store_u8(out + 6, 0); store_u8(out + 7, 0);
    store_i32(out + 8, load_i32(req + 24));
    store_u8(out + 12, prbs & 255);
    store_u8(out + 13, (prbs >> 8) & 255);
    store_u8(out + 14, 0);
    store_u8(out + 15, 0);
    return pack(out, 16);
}
"#;
}

fn compile_cached(cell: &'static OnceLock<Vec<u8>>, body: &str) -> &'static [u8] {
    cell.get_or_init(|| {
        let source = format!("{COMMON}\n{body}");
        waran_plugc::compile(&source).expect("standard plugin library compiles")
    })
}

/// Compiled round-robin scheduler plugin (`.wasm` bytes).
pub fn rr_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    compile_cached(&CELL, RR_SOURCE_BODY)
}

/// Compiled proportional-fair scheduler plugin.
pub fn pf_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    static SRC: OnceLock<String> = OnceLock::new();
    let src = SRC.get_or_init(|| greedy_source(PF_METRIC));
    compile_cached(&CELL, src)
}

/// Compiled maximum-throughput scheduler plugin.
pub fn mt_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    static SRC: OnceLock<String> = OnceLock::new();
    let src = SRC.get_or_init(|| greedy_source(MT_METRIC));
    compile_cached(&CELL, src)
}

/// Compile one of the §5.D fault plugins (no caching; tests tweak options).
pub fn compile_faulty(body: &str) -> Vec<u8> {
    if body.contains("export fn wrn_alloc") {
        // The leaky plugin ships its own allocator.
        waran_plugc::compile_with(
            body,
            &waran_plugc::Options::default().with_abi_prelude(false),
        )
        .expect("fault plugin compiles")
    } else {
        waran_plugc::compile(body).expect("fault plugin compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_abi::sched as abi;

    #[test]
    fn abi_offsets_locked() {
        // The PlugC sources hard-code these; fail loudly if the ABI moves.
        assert_eq!(abi::REQUEST_HEADER_LEN, 24);
        assert_eq!(abi::UE_RECORD_LEN, 32);
        assert_eq!(abi::RESPONSE_HEADER_LEN, 8);
        assert_eq!(abi::ALLOC_RECORD_LEN, 8);
        assert_eq!(abi::MAGIC, 0x5752);
    }

    /// The register lowering maps every flat op: the flat IR has no dead
    /// op, so an unmapped one would be dropped code.
    fn assert_every_flat_op_is_lowered(module: &waran_wasm::Module) {
        for f in 0..module.funcs.len() as u32 {
            assert!(!module.reg_func(f).pc_map.contains(&u32::MAX), "func {f}");
        }
    }

    #[test]
    fn standard_plugins_compile_and_validate() {
        for bytes in [rr_wasm(), pf_wasm(), mt_wasm()] {
            let module = waran_wasm::load_module(bytes).expect("validates");
            assert!(module.exported_func("schedule").is_some());
            assert!(module.exported_func("wrn_alloc").is_some());
            assert_every_flat_op_is_lowered(&module);
        }
    }

    #[test]
    fn fault_plugins_compile() {
        for body in [
            faulty::NULL_DEREF,
            faulty::OOB_ACCESS,
            faulty::DOUBLE_FREE,
            faulty::LEAKY,
        ] {
            let bytes = compile_faulty(body);
            let module = waran_wasm::load_module(&bytes).expect("validates");
            assert_every_flat_op_is_lowered(&module);
        }
    }
}
