//! The host's one front door is the Wasm binary format. Every stock binary
//! the repo ships — the three schedulers, the leaky §5.D plugin and the
//! §3.B power-widening adapter — decodes and re-encodes to the same bytes,
//! so nothing in a module is dropped or invented between `decode_module`
//! and `encode_module`.

use waran_core::plugins::{self, faulty};
use waran_ric::adapter::POWER_WIDEN_PLUGC;
use waran_wasm::decode::decode_module;
use waran_wasm::encode::encode_module;

#[test]
fn stock_binaries_round_trip_byte_identical() {
    let stock = [
        ("rr", plugins::rr_wasm().to_vec()),
        ("pf", plugins::pf_wasm().to_vec()),
        ("mt", plugins::mt_wasm().to_vec()),
        ("faulty/leaky", plugins::compile_faulty(faulty::LEAKY)),
        (
            "adapter/power_widen",
            waran_plugc::compile(POWER_WIDEN_PLUGC).expect("adapter compiles"),
        ),
    ];
    for (name, wasm) in stock {
        let module = decode_module(&wasm).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
        assert_eq!(
            encode_module(&module),
            wasm,
            "{name}: decode → encode changed the {}-byte binary",
            wasm.len()
        );
    }
}
