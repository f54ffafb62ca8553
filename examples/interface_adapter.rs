//! The §3.B interface-mismatch demo: two vendors disagree on the bit width
//! of a power-control field (8 vs 12 bits); a sandboxed Wasm plugin at the
//! boundary re-packs records so they interoperate — no firmware changes on
//! either side.
//!
//! Run with: `cargo run --release --example interface_adapter`

use wa_ran::abi::bitpack::RecordSpec;
use wa_ran::host::PluginHost;
use wa_ran::ric::adapter::{install_widen_plugin, InterfaceAdapter};

fn main() {
    // Vendor A's radio emits 2-byte records: power in 8 bits, antenna in 4.
    let vendor_a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
    // Vendor B's controller expects power in 12 bits.
    let vendor_b = RecordSpec::new(&[("power", 12), ("antenna", 4)]);

    let commands: [(u64, u64); 4] = [(30, 0), (128, 3), (200, 7), (255, 15)];
    let mut wire_a = Vec::new();
    for (power, antenna) in commands {
        wire_a.extend_from_slice(&vendor_a.encode(&[power, antenna]).expect("fits"));
    }
    println!(
        "vendor A wire ({} records): {:02x?}",
        commands.len(),
        wire_a
    );

    // Without adaptation, vendor B misreads every field:
    let misread = vendor_b.decode(&wire_a[..2]).expect("decodes structurally");
    println!(
        "vendor B reading vendor A bytes directly: power={} antenna={}  ← wrong!",
        misread[0], misread[1]
    );

    // The SI deploys the adapter as a sandboxed Wasm plugin, in a slot of
    // a plugin host that strikes and quarantines it if it misbehaves.
    let host = PluginHost::new();
    let plugin = install_widen_plugin(&host).expect("adapter plugin builds");
    let wire_b = plugin.call("adapt", &wire_a).expect("adapts");
    println!("adapter plugin output: {:02x?}", wire_b);

    println!("\nvendor B after adaptation:");
    let out_len = 2; // 16 bits per vendor-B record
    for (chunk, (power, antenna)) in wire_b.chunks_exact(out_len).zip(commands) {
        let decoded = vendor_b.decode(chunk).expect("decodes");
        let ok = decoded == vec![power, antenna];
        println!(
            "  power={:>3} antenna={:>2}  (expected {:>3}/{:>2})  {}",
            decoded[0],
            decoded[1],
            power,
            antenna,
            if ok { "✓" } else { "✗" }
        );
    }

    // The native adapter agrees bit-for-bit with the sandboxed one.
    let native = InterfaceAdapter::power_example();
    assert_eq!(native.adapt_stream(&wire_a).expect("adapts"), wire_b);
    println!("\nnative and sandboxed adapters agree bit-for-bit.");
}
