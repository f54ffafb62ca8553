//! The standard WA-RAN plugin library: intra-slice schedulers and the
//! §5.D fault-demonstration plugins, all authored in PlugC and compiled to
//! Wasm on first use.
//!
//! The scheduler plugins implement exactly the three policies the paper's
//! MVNOs use (Round Robin, Proportional Fair, Maximum Throughput) on top of
//! the PlugC prelude `waran_abi::sched` renders from its field table, and
//! read per-UE fields at offsets taken from that table. They are bit-for-bit
//! ordinary `.wasm` modules — the same bytes could be loaded by any other
//! conformant runtime.

use std::sync::OnceLock;

use waran_abi::sched::{plugc_prelude, ue, Field};

/// PlugC that loads `field` of UE record `i` as `ty`. The templates below
/// name these loads `{<field>_<i>}`, so every per-UE offset comes from the
/// `waran_abi::sched` field table.
fn load<const W: usize>(ty: &str, field: Field<W>, i: &str) -> String {
    format!("load_{ty}({})", field.addr(&format!("rec(req, {i})")))
}

/// The ABI prelude plus the helper every policy shares.
fn common() -> String {
    format!(
        r#"{prelude}
// PRBs needed to drain the buffer of record i.
fn needed(req: i32, i: i32) -> i32 {{
    var cap: f64 = {cap_i};
    if (cap <= 0.0) {{ return 0; }}
    var bits: f64 = ({buffer_i} as f64) * 8.0;
    return ceil(bits / cap) as i32;
}}
"#,
        prelude = plugc_prelude(),
        cap_i = load("f64", ue::PRB_CAPACITY, "i"),
        buffer_i = load("i32", ue::BUFFER, "i"),
    )
}

/// Round-robin scheduler plugin: equal shares over backlogged UEs with a
/// rotating head; unusable quota spills to the next UE in rotation.
fn rr_source() -> String {
    format!(
        r#"
global next: i32 = 0;

export fn schedule(req: i32, len: i32) -> i64 {{
    var n: i32 = req_n(req);
    var prbs: i32 = req_prbs(req);
    var out: i32 = wrn_alloc(8 + n * 8);
    // Count backlogged UEs.
    var m: i32 = 0;
    var i: i32 = 0;
    while (i < n) {{
        if ({buffer_i} > 0) {{ m = m + 1; }}
        i = i + 1;
    }}
    if (m == 0 || prbs == 0) {{
        write_header(out, 0);
        return pack(out, 8);
    }}
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
    while (idx < n) {{
        if ({buffer_idx} > 0) {{
            if (seen == rotation) {{ break; }}
            seen = seen + 1;
        }}
        idx = idx + 1;
    }}
    // Circular walk from there: each backlogged record is visited once.
    var step: i32 = 0;
    while (step < m) {{
        if ({buffer_idx} > 0) {{
            var quota: i32 = share + spill;
            if (step < extra) {{ quota = quota + 1; }}
            if (quota > remaining) {{ quota = remaining; }}
            var need: i32 = needed(req, idx);
            var give: i32 = quota;
            if (need < give) {{ give = need; }}
            spill = quota - give;
            remaining = remaining - give;
            if (give > 0) {{
                write_alloc(out, written, {id_idx}, give, step);
                written = written + 1;
            }}
            step = step + 1;
        }}
        idx = idx + 1;
        if (idx == n) {{ idx = 0; }}
    }}
    write_header(out, written);
    return pack(out, 8 + written * 8);
}}
"#,
        buffer_i = load("i32", ue::BUFFER, "i"),
        buffer_idx = load("i32", ue::BUFFER, "idx"),
        id_idx = load("i32", ue::ID, "idx"),
    )
}

/// Greedy argmax scheduler skeleton shared by PF and MT: repeatedly pick
/// the unserved backlogged UE with the best metric and give it the PRBs it
/// needs. The `metric` of record `i` differs per policy.
fn greedy_source(metric: String) -> String {
    format!(
        r#"
fn metric(req: i32, i: i32) -> f64 {{
    return {metric};
}}

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
            if (load_u8(served + j) == 0 && {buffer_j} > 0) {{
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
            write_alloc(out, written, {id_best}, give, rank);
            written = written + 1;
            remaining = remaining - give;
        }}
        rank = rank + 1;
    }}
    write_header(out, written);
    return pack(out, 8 + written * 8);
}}
"#,
        buffer_j = load("i32", ue::BUFFER, "j"),
        id_best = load("i32", ue::ID, "best"),
    )
}

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
    /// — the resource-exhaustion strike class for governance tests and
    /// churn soaks. The bound is far beyond any sane per-call fuel budget
    /// but finite, so a meterless host still terminates.
    pub const FUEL_BURNER: &str = r#"
export fn schedule(req: i32, len: i32) -> i64 {
    var x: i32 = 0;
    while (x < 2000000000) { x = x + 1; }
    return pack(0, 0);
}
"#;

    /// The §5.D / Fig. 5c leaky scheduler: allocates 4 KiB on every
    /// invocation and never frees it. The host rewinds `wrn_heap` (where
    /// the request and the response live) every call, so the leak runs
    /// through the plugin's own pointer, from the end of its initial page
    /// up; its memory growth is bounded only by the host's page policy.
    pub const LEAKY: &str = r#"
global leak_top: i32 = 65536;

export fn schedule(req: i32, len: i32) -> i64 {
    // Leak 4 KiB per slot, touching it so it is really "used".
    var p: i32 = leak_top;
    leak_top = p + 4096;
    while (memory_size() * 65536 < leak_top) {
        if (memory_grow(1) < 0) { trap(); }
    }
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

fn compile_cached(cell: &'static OnceLock<Vec<u8>>, body: fn() -> String) -> &'static [u8] {
    cell.get_or_init(|| {
        let source = format!("{}\n{}", common(), body());
        waran_plugc::compile(&source).expect("standard plugin library compiles")
    })
}

/// Compiled round-robin scheduler plugin (`.wasm` bytes).
pub fn rr_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    compile_cached(&CELL, rr_source)
}

/// Compiled proportional-fair scheduler plugin: the metric is the
/// achievable per-PRB rate over the long-term average.
pub fn pf_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    compile_cached(&CELL, || {
        let (cap, avg) = (
            load("f64", ue::PRB_CAPACITY, "i"),
            load("f64", ue::AVG_TPUT, "i"),
        );
        greedy_source(format!("{cap} / max({avg}, 0.001)"))
    })
}

/// Compiled maximum-throughput scheduler plugin: the metric is the
/// achievable per-PRB rate.
pub fn mt_wasm() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    compile_cached(&CELL, || greedy_source(load("f64", ue::PRB_CAPACITY, "i")))
}

/// Compile one of the §5.D fault plugins (no caching).
pub fn compile_faulty(body: &str) -> Vec<u8> {
    waran_plugc::compile(body).expect("fault plugin compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_plugins_compile_and_validate() {
        for bytes in [rr_wasm(), pf_wasm(), mt_wasm()] {
            let module = waran_wasm::load_module(bytes).expect("validates");
            assert!(module.exported_func("schedule").is_some());
            assert!(matches!(
                module.export("wrn_heap").map(|e| &e.kind),
                Some(waran_wasm::module::ExportKind::Global(_))
            ));
            // The proof rejects a flat op the lowering left unmapped.
            module.analysis().expect("every flat op lowered and proven");
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
            // The proof rejects a flat op the lowering left unmapped.
            module.analysis().expect("every flat op lowered and proven");
        }
    }
}
