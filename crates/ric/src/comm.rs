//! Communication plugins: the pluggable wire between E2 nodes and the
//! near-RT RIC.
//!
//! §4.B: "operators may choose to use ZeroMQ or Apache Kafka for
//! communication, encode the payload in ASN.1, JSON, or Protocol Buffers".
//! [`CommCodec`] is that choice; three native codecs implement it over the
//! waran-abi wire formats, and [`WasmCommPlugin`] hosts an arbitrary Wasm
//! plugin so a third party can ship a codec (or a vendor-mismatch adapter,
//! §3.B) as sandboxed bytecode, in a governed plugin-host slot of its own.

use std::sync::Arc;

use waran_abi::pbwire::{PbReader, PbWriter};
use waran_abi::sjson::Json;
use waran_abi::tlv::{TlvReader, TlvWriter};
use waran_abi::CodecError;
use waran_host::{PluginError, PluginHost, SlotHandle, TemplateCache};

use crate::e2::{ControlAction, Indication, KpiReport};

/// Encodes/decodes E2-style messages to/from wire bytes.
pub trait CommCodec: Send {
    /// Encode an indication.
    fn encode_indication(&self, ind: &Indication) -> Vec<u8>;
    /// Decode an indication.
    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError>;
    /// Encode a batch of control actions.
    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8>;
    /// Decode a batch of control actions.
    ///
    /// Returns the decoded actions plus the number of records the codec
    /// had to skip (unknown tags, a truncated trailing record): skips are
    /// not errors — the rest of the frame is still usable — but callers
    /// fold them into their decode-error counters so they stay visible.
    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError>;
    /// Codec name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// TLV codec
// ---------------------------------------------------------------------

/// TLV wire format.
#[derive(Debug, Default, Clone, Copy)]
pub struct TlvCodec;

mod tlv_tags {
    pub const SLOT: u16 = 1;
    pub const REPORT: u16 = 2;
    pub const UE: u16 = 10;
    pub const SLICE: u16 = 11;
    pub const CQI: u16 = 12;
    pub const MCS: u16 = 13;
    pub const BUFFER: u16 = 14;
    pub const TPUT: u16 = 15;
    pub const ACTIONS: u16 = 3;
}

impl CommCodec for TlvCodec {
    fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u64(tlv_tags::SLOT, ind.slot);
        for r in &ind.reports {
            w.nested(tlv_tags::REPORT, |n| {
                n.u32(tlv_tags::UE, r.ue_id);
                n.u32(tlv_tags::SLICE, r.slice_id);
                n.u32(tlv_tags::CQI, r.cqi as u32);
                n.u32(tlv_tags::MCS, r.mcs as u32);
                n.u32(tlv_tags::BUFFER, r.buffer_bytes);
                n.f64(tlv_tags::TPUT, r.tput_bps);
            });
        }
        w.finish()
    }

    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
        let mut reader = TlvReader::new(bytes);
        let mut ind = Indication::default();
        while let Some(field) = reader.next_field()? {
            match field.tag {
                tlv_tags::SLOT => ind.slot = field.as_u64()?,
                tlv_tags::REPORT => {
                    let n = field.nested();
                    ind.reports.push(KpiReport {
                        ue_id: n.require(tlv_tags::UE)?.as_u32()?,
                        slice_id: n.require(tlv_tags::SLICE)?.as_u32()?,
                        cqi: n.require(tlv_tags::CQI)?.as_u32()? as u8,
                        mcs: n.require(tlv_tags::MCS)?.as_u32()? as u8,
                        buffer_bytes: n.require(tlv_tags::BUFFER)?.as_u32()?,
                        tput_bps: n.require(tlv_tags::TPUT)?.as_f64()?,
                    });
                }
                _ => {} // forward compatible: skip unknown tags
            }
        }
        Ok(ind)
    }

    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.bytes(tlv_tags::ACTIONS, &ControlAction::list_to_bytes(actions));
        w.finish()
    }

    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
        let reader = TlvReader::new(bytes);
        let field = reader.require(tlv_tags::ACTIONS)?;
        Ok(ControlAction::list_from_bytes(field.value))
    }

    fn name(&self) -> &'static str {
        "tlv"
    }
}

// ---------------------------------------------------------------------
// Protobuf-wire codec
// ---------------------------------------------------------------------

/// Protobuf wire format.
#[derive(Debug, Default, Clone, Copy)]
pub struct PbCodec;

impl CommCodec for PbCodec {
    fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
        let mut w = PbWriter::new();
        w.uint(1, ind.slot);
        for r in &ind.reports {
            w.message(2, |m| {
                m.uint(1, r.ue_id as u64)
                    .uint(2, r.slice_id as u64)
                    .uint(3, r.cqi as u64)
                    .uint(4, r.mcs as u64)
                    .uint(5, r.buffer_bytes as u64)
                    .double(6, r.tput_bps);
            });
        }
        w.finish()
    }

    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
        let mut ind = Indication::default();
        let mut reader = PbReader::new(bytes);
        while let Some((field, value)) = reader.next_field()? {
            match field {
                1 => ind.slot = value.as_uint()?,
                2 => {
                    let inner = PbReader::new(value.as_bytes()?);
                    let mut r = KpiReport {
                        ue_id: 0,
                        slice_id: 0,
                        cqi: 0,
                        mcs: 0,
                        buffer_bytes: 0,
                        tput_bps: 0.0,
                    };
                    let mut inner_reader = inner;
                    while let Some((f, v)) = inner_reader.next_field()? {
                        match f {
                            1 => r.ue_id = v.as_uint()? as u32,
                            2 => r.slice_id = v.as_uint()? as u32,
                            3 => r.cqi = v.as_uint()? as u8,
                            4 => r.mcs = v.as_uint()? as u8,
                            5 => r.buffer_bytes = v.as_uint()? as u32,
                            6 => r.tput_bps = v.as_double()?,
                            _ => {}
                        }
                    }
                    ind.reports.push(r);
                }
                _ => {}
            }
        }
        Ok(ind)
    }

    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8> {
        let mut w = PbWriter::new();
        w.bytes(1, &ControlAction::list_to_bytes(actions));
        w.finish()
    }

    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
        let reader = PbReader::new(bytes);
        let value = reader
            .find(1)?
            .ok_or_else(|| CodecError::Malformed("missing actions field".into()))?;
        Ok(ControlAction::list_from_bytes(value.as_bytes()?))
    }

    fn name(&self) -> &'static str {
        "pbwire"
    }
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

/// JSON wire format.
#[derive(Debug, Default, Clone, Copy)]
pub struct JsonCodec;

impl CommCodec for JsonCodec {
    fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
        let reports: Vec<Json> = ind
            .reports
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("ue", Json::Num(r.ue_id as f64)),
                    ("slice", Json::Num(r.slice_id as f64)),
                    ("cqi", Json::Num(r.cqi as f64)),
                    ("mcs", Json::Num(r.mcs as f64)),
                    ("buffer", Json::Num(r.buffer_bytes as f64)),
                    ("tput", Json::Num(r.tput_bps)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("slot", Json::Num(ind.slot as f64)),
            ("reports", Json::Arr(reports)),
        ])
        .encode()
        .into_bytes()
    }

    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Malformed("invalid UTF-8".into()))?;
        let v = Json::decode(text)?;
        let num = |j: &Json, key: &str| -> Result<f64, CodecError> {
            j.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| CodecError::Malformed(format!("missing `{key}`")))
        };
        let mut ind = Indication {
            slot: num(&v, "slot")? as u64,
            reports: Vec::new(),
        };
        for r in v
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or_else(|| CodecError::Malformed("missing `reports`".into()))?
        {
            ind.reports.push(KpiReport {
                ue_id: num(r, "ue")? as u32,
                slice_id: num(r, "slice")? as u32,
                cqi: num(r, "cqi")? as u8,
                mcs: num(r, "mcs")? as u8,
                buffer_bytes: num(r, "buffer")? as u32,
                tput_bps: num(r, "tput")?,
            });
        }
        Ok(ind)
    }

    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8> {
        let items: Vec<Json> = actions
            .iter()
            .map(|a| match a {
                ControlAction::SetSliceTarget {
                    slice_id,
                    target_bps,
                } => Json::obj(vec![
                    ("type", Json::Str("slice_target".into())),
                    ("slice", Json::Num(*slice_id as f64)),
                    ("target", Json::Num(*target_bps)),
                ]),
                ControlAction::Handover { ue_id, target_cell } => Json::obj(vec![
                    ("type", Json::Str("handover".into())),
                    ("ue", Json::Num(*ue_id as f64)),
                    ("cell", Json::Num(*target_cell as f64)),
                ]),
                ControlAction::SetCqiTable { ue_id, table } => Json::obj(vec![
                    ("type", Json::Str("cqi_table".into())),
                    ("ue", Json::Num(*ue_id as f64)),
                    ("table", Json::Num(*table as f64)),
                ]),
            })
            .collect();
        Json::Arr(items).encode().into_bytes()
    }

    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Malformed("invalid UTF-8".into()))?;
        let v = Json::decode(text)?;
        let arr = v
            .as_arr()
            .ok_or_else(|| CodecError::Malformed("expected array".into()))?;
        let num = |j: &Json, key: &str| -> Result<f64, CodecError> {
            j.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| CodecError::Malformed(format!("missing `{key}`")))
        };
        let mut actions = Vec::with_capacity(arr.len());
        let mut skipped = 0usize;
        for item in arr {
            // A missing or unknown `type` is this codec's unknown-tag case:
            // skip the record (counted) instead of failing the whole frame.
            let Some(ty) = item.get("type").and_then(Json::as_str) else {
                skipped += 1;
                continue;
            };
            actions.push(match ty {
                "slice_target" => ControlAction::SetSliceTarget {
                    slice_id: num(item, "slice")? as u32,
                    target_bps: num(item, "target")?,
                },
                "handover" => ControlAction::Handover {
                    ue_id: num(item, "ue")? as u32,
                    target_cell: num(item, "cell")? as u32,
                },
                "cqi_table" => ControlAction::SetCqiTable {
                    ue_id: num(item, "ue")? as u32,
                    table: num(item, "table")? as u8,
                },
                _ => {
                    skipped += 1;
                    continue;
                }
            });
        }
        Ok((actions, skipped))
    }

    fn name(&self) -> &'static str {
        "json"
    }
}

// ---------------------------------------------------------------------
// Wasm-plugin-backed codec wrapper
// ---------------------------------------------------------------------

/// A communication plugin: a Wasm module whose `encode_indication` /
/// `decode_indication` / `encode_actions` / `decode_actions` exports
/// transform between the fixed xApp-ABI layout and the vendor's wire bytes.
///
/// This is how WA-RAN lets a third party bridge two vendors without either
/// one changing device code: the SI ships a plugin, not a firmware patch.
/// A faulting call encodes to an empty frame or fails to decode.
pub struct WasmCommPlugin {
    host: Arc<PluginHost<()>>,
    handle: SlotHandle<()>,
    name: &'static str,
}

impl WasmCommPlugin {
    /// Host `wasm` as the codec `name`, stamped from
    /// [`TemplateCache::global`] into a `besteffort` slot of its own.
    pub fn new(wasm: &[u8], name: &'static str) -> Result<Self, PluginError> {
        let host = Arc::new(PluginHost::new());
        let handle = crate::install_besteffort(TemplateCache::global(), &host, name, wasm)?;
        Ok(WasmCommPlugin { host, handle, name })
    }

    /// The host of this codec's slot, named after the codec.
    pub fn plugins(&self) -> &Arc<PluginHost<()>> {
        &self.host
    }
}

impl CommCodec for WasmCommPlugin {
    fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
        self.handle
            .call("encode_indication", &ind.to_xapp_bytes())
            .unwrap_or_default()
    }

    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
        let out = self
            .handle
            .call("decode_indication", bytes)
            .map_err(|e| CodecError::Malformed(format!("comm plugin fault: {e}")))?;
        Indication::from_xapp_bytes(&out)
            .ok_or_else(|| CodecError::Malformed("comm plugin returned bad layout".into()))
    }

    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8> {
        self.handle
            .call("encode_actions", &ControlAction::list_to_bytes(actions))
            .unwrap_or_default()
    }

    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
        let out = self
            .handle
            .call("decode_actions", bytes)
            .map_err(|e| CodecError::Malformed(format!("comm plugin fault: {e}")))?;
        Ok(ControlAction::list_from_bytes(&out))
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Indication {
        Indication {
            slot: 31337,
            reports: vec![
                KpiReport {
                    ue_id: 70,
                    slice_id: 0,
                    cqi: 12,
                    mcs: 22,
                    buffer_bytes: 512,
                    tput_bps: 9.25e6,
                },
                KpiReport {
                    ue_id: 71,
                    slice_id: 2,
                    cqi: 3,
                    mcs: 4,
                    buffer_bytes: 1 << 20,
                    tput_bps: 0.125e6,
                },
            ],
        }
    }

    fn actions() -> Vec<ControlAction> {
        vec![
            ControlAction::SetSliceTarget {
                slice_id: 1,
                target_bps: 22e6,
            },
            ControlAction::Handover {
                ue_id: 70,
                target_cell: 5,
            },
        ]
    }

    fn check_codec(codec: &dyn CommCodec) {
        let ind = sample();
        let bytes = codec.encode_indication(&ind);
        let decoded = codec.decode_indication(&bytes).unwrap();
        assert_eq!(decoded, ind, "{} indication roundtrip", codec.name());

        let acts = actions();
        let bytes = codec.encode_actions(&acts);
        let (decoded, skipped) = codec.decode_actions(&bytes).unwrap();
        assert_eq!(decoded, acts, "{} actions roundtrip", codec.name());
        assert_eq!(skipped, 0, "{} clean frame skips nothing", codec.name());
    }

    #[test]
    fn tlv_roundtrip() {
        check_codec(&TlvCodec);
    }

    #[test]
    fn pbwire_roundtrip() {
        check_codec(&PbCodec);
    }

    #[test]
    fn json_roundtrip() {
        check_codec(&JsonCodec);
    }

    #[test]
    fn codecs_interop_through_semantic_model() {
        // Encode with one codec, decode, re-encode with another: the
        // semantic content survives (the SI's adapter story).
        let ind = sample();
        let tlv_bytes = TlvCodec.encode_indication(&ind);
        let recovered = TlvCodec.decode_indication(&tlv_bytes).unwrap();
        let json_bytes = JsonCodec.encode_indication(&recovered);
        assert_eq!(JsonCodec.decode_indication(&json_bytes).unwrap(), ind);
    }

    #[test]
    fn decoders_reject_garbage() {
        for codec in [&TlvCodec as &dyn CommCodec, &PbCodec, &JsonCodec] {
            assert!(
                codec.decode_indication(&[0xde, 0xad, 0xbe]).is_err(),
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn wire_sizes_differ_as_expected() {
        // Sanity for ablation A3: protobuf-wire is the smallest encoding at
        // every batch size. TLV against JSON flips with the batch (TLV is
        // larger from 10 A3-shaped reports up), so it is not asserted here;
        // `fig5d --fuel` pins each codec's exact bytes.
        let reports = sample().reports;
        for n in [1, 2, 10, 100] {
            let ind = Indication {
                slot: 31337,
                reports: reports.iter().copied().cycle().take(n).collect(),
            };
            let tlv = TlvCodec.encode_indication(&ind).len();
            let pb = PbCodec.encode_indication(&ind).len();
            let json = JsonCodec.encode_indication(&ind).len();
            assert!(
                pb < tlv && pb < json,
                "{n} reports: pb {pb} tlv {tlv} json {json}"
            );
        }
    }
}
