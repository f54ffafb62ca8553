//! The §3.B interface-mismatch adapter.
//!
//! The paper's running example: vendor A's radio encodes output power in
//! 8 bits, vendor B's controller expects 12 bits, and neither will patch
//! closed firmware. WA-RAN's answer is a plugin at the boundary that
//! re-packs records between layouts. This module provides the adapter both
//! natively ([`InterfaceAdapter`]) and as a PlugC-compiled Wasm plugin
//! ([`POWER_WIDEN_PLUGC`] / [`install_widen_plugin`]) hosted in a governed
//! plugin-host slot, to show the full sandboxed path.

use waran_abi::bitpack::{Adaptation, BitWriter, RecordSpec};
use waran_abi::CodecError;
use waran_host::{PluginError, PluginHost, SlotHandle, TemplateCache};

/// A native record adapter between two packed layouts.
pub struct InterfaceAdapter {
    /// Source layout (what arrives).
    pub from: RecordSpec,
    /// Target layout (what the peer expects).
    pub to: RecordSpec,
    /// The field mapping, resolved once — or why the layouts do not map.
    adaptation: Result<Adaptation, CodecError>,
}

impl InterfaceAdapter {
    /// Adapter from `from` to `to` ([`RecordSpec::adaptation`]'s policy).
    pub fn new(from: RecordSpec, to: RecordSpec) -> Self {
        let adaptation = from.adaptation(&to);
        InterfaceAdapter {
            from,
            to,
            adaptation,
        }
    }

    /// The paper's example pair: 8-bit power + 4-bit antenna (vendor A) and
    /// 12-bit power + 4-bit antenna (vendor B).
    pub fn power_example() -> Self {
        InterfaceAdapter::new(
            RecordSpec::new(&[("power", 8), ("antenna", 4)]),
            RecordSpec::new(&[("power", 12), ("antenna", 4)]),
        )
    }

    /// Adapt one record.
    pub fn adapt(&self, record: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.from.adapt_to(&self.to, record)
    }

    /// Adapt a stream of fixed-size records into one output sized up
    /// front.
    pub fn adapt_stream(&self, records: &[u8]) -> Result<Vec<u8>, CodecError> {
        let in_len = self.from.bit_len().div_ceil(8);
        if in_len == 0 || !records.len().is_multiple_of(in_len) {
            return Err(CodecError::Malformed(format!(
                "stream length {} not a multiple of record size {in_len}",
                records.len()
            )));
        }
        let out_len = self.to.bit_len().div_ceil(8);
        let mut w = BitWriter::with_capacity(records.len() / in_len * out_len);
        let mut values = Vec::with_capacity(self.from.fields.len());
        for rec in records.chunks_exact(in_len) {
            let adaptation = self.adaptation.as_ref().map_err(Clone::clone)?;
            adaptation.adapt_into(rec, &mut values, &mut w)?;
        }
        Ok(w.finish())
    }
}

/// PlugC source for the Wasm version of the 8→12-bit power widener.
///
/// Input: a stream of 2-byte vendor-A records (`power:8, antenna:4`,
/// padded to a byte). Output: 2-byte vendor-B records (`power:12,
/// antenna:4`). Pure bit arithmetic in the sandbox — no host trust needed.
pub const POWER_WIDEN_PLUGC: &str = r#"
export fn adapt(ptr: i32, len: i32) -> i64 {
    var n: i32 = len / 2;
    var out: i32 = wrn_alloc(n * 2);
    var i: i32 = 0;
    while (i < n) {
        var b0: i32 = load_u8(ptr + i * 2);       // power, 8 bits
        var b1: i32 = load_u8(ptr + i * 2 + 1);   // antenna in top 4 bits
        var power: i32 = b0;
        var antenna: i32 = (b1 >> 4) & 15;
        // Vendor B layout, MSB-first: power(12) then antenna(4).
        var packed: i32 = (power << 4) | antenna;  // 16 bits total
        store_u8(out + i * 2, (packed >> 8) & 255);
        store_u8(out + i * 2 + 1, packed & 255);
        i = i + 1;
    }
    return pack(out, n * 2);
}
"#;

/// Compile the Wasm power-widening adapter into slot `"power-widen"` of
/// `host` (class `besteffort`); call `adapt` through the returned handle.
pub fn install_widen_plugin(host: &PluginHost<()>) -> Result<SlotHandle<()>, PluginError> {
    let wasm = waran_plugc::compile(POWER_WIDEN_PLUGC)
        .map_err(|e| PluginError::Abi(format!("adapter source failed to compile: {e}")))?;
    crate::install_besteffort(TemplateCache::global(), host, "power-widen", &wasm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widen_plugin() -> SlotHandle<()> {
        install_widen_plugin(&PluginHost::new()).expect("adapter builds")
    }

    #[test]
    fn native_adapter_power_example() {
        let adapter = InterfaceAdapter::power_example();
        let a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
        let b = RecordSpec::new(&[("power", 12), ("antenna", 4)]);
        let rec = a.encode(&[200, 7]).unwrap();
        let out = adapter.adapt(&rec).unwrap();
        assert_eq!(b.decode(&out).unwrap(), vec![200, 7]);
    }

    #[test]
    fn native_adapter_stream() {
        let adapter = InterfaceAdapter::power_example();
        let a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
        let mut stream = Vec::new();
        for (p, ant) in [(1u64, 2u64), (255, 15), (128, 0)] {
            stream.extend_from_slice(&a.encode(&[p, ant]).unwrap());
        }
        let out = adapter.adapt_stream(&stream).unwrap();
        let b = RecordSpec::new(&[("power", 12), ("antenna", 4)]);
        let out_len = b.bit_len().div_ceil(8);
        let decoded: Vec<Vec<u64>> = out
            .chunks_exact(out_len)
            .map(|r| b.decode(r).unwrap())
            .collect();
        assert_eq!(decoded, vec![vec![1, 2], vec![255, 15], vec![128, 0]]);
    }

    #[test]
    fn native_adapter_rejects_ragged_stream() {
        let adapter = InterfaceAdapter::power_example();
        assert!(adapter.adapt_stream(&[1, 2, 3]).is_err());
    }

    #[test]
    fn wasm_adapter_matches_native() {
        let plugin = widen_plugin();
        let native = InterfaceAdapter::power_example();
        let a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
        let mut stream = Vec::new();
        for (p, ant) in [(0u64, 0u64), (200, 7), (255, 15), (1, 8)] {
            stream.extend_from_slice(&a.encode(&[p, ant]).unwrap());
        }
        let native_out = native.adapt_stream(&stream).unwrap();
        let wasm_out = plugin.call("adapt", &stream).unwrap();
        assert_eq!(
            wasm_out, native_out,
            "sandboxed adapter must agree with native"
        );
    }

    #[test]
    fn wasm_adapter_handles_empty_stream() {
        let host = PluginHost::new();
        let plugin = install_widen_plugin(&host).unwrap();
        assert_eq!(plugin.call("adapt", &[]).unwrap(), Vec::<u8>::new());
        let health = host.health(plugin.name()).expect("slot exists");
        assert_eq!((health.calls_ok, health.strikes.total()), (1, 0));
    }
}
