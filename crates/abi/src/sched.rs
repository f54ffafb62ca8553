//! The intra-slice scheduler ABI.
//!
//! Every slot, the gNB's inter-slice scheduler hands each slice plugin the
//! resources it was granted plus a snapshot of the slice's UEs (§4.A of the
//! paper: "channel quality, buffer status, long-term throughput, and UE
//! identifiers"), and the plugin answers with per-UE allocations and
//! priorities.
//!
//! The encoding is a fixed-layout little-endian binary format so PlugC
//! plugins can parse it with plain `load_*` intrinsics at fixed offsets —
//! no dynamic parsing inside the 1 ms slot budget. The layout is declared
//! once, as the [`Field`] consts below: a request is the [`frame`], the
//! [`request`] fields and `n` [`ue`] records; a response is the [`frame`]
//! and `n` [`alloc`] records. The Rust codec reads and writes only through
//! these consts, [`plugc_prelude`] renders the PlugC accessors from them,
//! and a compile-time assertion per record checks that its fields tile it.
//!
//! The record count is a `u16`, so a message carries at most
//! [`MAX_RECORDS`] records; the encoders write no more than that, and the
//! count they write is always the number of records that follow.

use crate::CodecError;

/// ABI magic: `"RW"` little-endian.
pub const MAGIC: u16 = 0x5752;
/// Current ABI version.
pub const VERSION: u16 = 1;
/// Size of the request header in bytes.
pub const REQUEST_HEADER_LEN: usize = 24;
/// Size of one UE record in bytes.
pub const UE_RECORD_LEN: usize = 32;
/// Size of the response header (the [`frame`]) in bytes.
pub const RESPONSE_HEADER_LEN: usize = 8;
/// Size of one allocation record in bytes.
pub const ALLOC_RECORD_LEN: usize = 8;
/// Most records one request or response carries: the count is a `u16`.
pub const MAX_RECORDS: usize = u16::MAX as usize;

/// Flag bit: the UE has a pending retransmission.
pub const FLAG_RETX: u16 = 1 << 0;

/// A little-endian field `W` bytes wide at `offset` in its record. The
/// width is part of the type, so a value of another width neither reads
/// nor writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field<const W: usize> {
    /// Byte offset from the start of the record.
    pub offset: usize,
}

/// PlugC for the address `offset` bytes into the record at `base`: `base`
/// itself at offset 0, `base + <offset>` elsewhere.
fn addr_at(base: &str, offset: usize) -> String {
    match offset {
        0 => base.to_string(),
        off => format!("{base} + {off}"),
    }
}

impl<const W: usize> Field<W> {
    /// PlugC for the field's address in the record at `base`.
    pub fn addr(self, base: &str) -> String {
        addr_at(base, self.offset)
    }

    /// PlugC for the address of each of the field's bytes, low first.
    fn byte_addrs(self, base: &str) -> [String; W] {
        std::array::from_fn(|k| addr_at(base, self.offset + k))
    }

    /// The field's bytes in `rec`, which its record's tiling assertion
    /// proves long enough.
    fn get<const N: usize>(self, rec: &[u8; N]) -> [u8; W] {
        let mut bytes = [0; W];
        bytes.copy_from_slice(&rec[self.offset..self.offset + W]);
        bytes
    }

    /// Store `bytes` into `rec`, as [`Self::get`] reads them.
    fn put<const N: usize>(self, rec: &mut [u8; N], bytes: [u8; W]) {
        rec[self.offset..self.offset + W].copy_from_slice(&bytes);
    }
}

/// True when the `(offset, width)` spans, in order, cover `start..end`
/// with no gap or overlap.
const fn tiles(spans: &[(usize, usize)], start: usize, end: usize) -> bool {
    match spans {
        [] => start == end,
        [(offset, width), rest @ ..] => *offset == start && tiles(rest, start + *width, end),
    }
}

/// Declares one record's fields, in order, as [`Field`] consts of module
/// `$record`, each `NAME: width @ offset => "doc"`, and asserts at compile
/// time that they tile `$start..$end`.
macro_rules! fields {
    ($(#[$doc:meta])* $record:ident, $start:expr, $end:expr, {
        $($name:ident: $width:literal @ $offset:literal => $fdoc:literal,)*
    }) => {
        $(#[$doc])*
        pub mod $record {
            use super::Field;
            $(#[doc = $fdoc] pub const $name: Field<$width> = Field { offset: $offset };)*
        }
        const _: () = assert!(tiles(&[$(($offset, $width)),*], $start, $end));
    };
}

fields! {
    /// The 8-byte header every request and response starts with.
    frame, 0, RESPONSE_HEADER_LEN, {
    MAGIC: 2 @ 0 => "Magic, [`super::MAGIC`].",
    VERSION: 2 @ 2 => "ABI version, [`super::VERSION`].",
    COUNT: 2 @ 4 => "Records that follow: UEs in a request, allocations in a response.",
    RESERVED: 2 @ 6 => "Reserved, 0.",
}}

fields! {
    /// The rest of the request header, after the [`frame`].
    request, RESPONSE_HEADER_LEN, REQUEST_HEADER_LEN, {
    SLOT: 8 @ 8 => "Slot number.",
    PRBS: 4 @ 16 => "PRBs granted to the slice this slot.",
    SLICE_ID: 4 @ 20 => "Slice id.",
}}

fields! {
    /// One UE record, [`UeInfo`].
    ue, 0, UE_RECORD_LEN, {
    ID: 4 @ 0 => "UE id (RNTI).",
    CQI: 1 @ 4 => "CQI, 1–15.",
    MCS: 1 @ 5 => "MCS, 0–28.",
    FLAGS: 2 @ 6 => "Flags (bit 0: retransmission pending).",
    BUFFER: 4 @ 8 => "DL buffer occupancy in bytes (u32).",
    RESERVED: 4 @ 12 => "Reserved, 0.",
    AVG_TPUT: 8 @ 16 => "Long-term average throughput in bit/s (f64).",
    PRB_CAPACITY: 8 @ 24 => "Transport bits one PRB carries this slot at the current MCS (f64).",
}}

fields! {
    /// One allocation record, [`Allocation`].
    alloc, 0, ALLOC_RECORD_LEN, {
    UE_ID: 4 @ 0 => "UE id.",
    PRBS: 2 @ 4 => "PRBs allocated (u16).",
    PRIORITY: 1 @ 6 => "Priority, 0 = highest; ties are broken by record order.",
    RESERVED: 1 @ 7 => "Reserved, 0.",
}}

/// A header of `N` bytes that starts with the frame for `count` records;
/// callers pass at most [`MAX_RECORDS`].
fn header<const N: usize>(count: usize) -> [u8; N] {
    let mut head = [0; N];
    frame::MAGIC.put(&mut head, MAGIC.to_le_bytes());
    frame::VERSION.put(&mut head, VERSION.to_le_bytes());
    frame::COUNT.put(&mut head, (count as u16).to_le_bytes());
    head
}

/// Check the `HEAD`-byte header at the start of `buf` — the codec's one
/// length-checked read — and split off the `LEN`-byte records its frame
/// counts (at most `max`).
fn records<const HEAD: usize, const LEN: usize>(
    buf: &[u8],
    max: usize,
) -> Result<(&[u8; HEAD], &[[u8; LEN]]), CodecError> {
    let head = buf.first_chunk().ok_or(CodecError::UnexpectedEof)?;
    let magic = u16::from_le_bytes(frame::MAGIC.get(head));
    if magic != MAGIC {
        return Err(CodecError::Malformed(format!("bad magic {magic:#06x}")));
    }
    let version = u16::from_le_bytes(frame::VERSION.get(head));
    if version != VERSION {
        return Err(CodecError::VersionMismatch {
            expected: VERSION,
            found: version,
        });
    }
    let n = u16::from_le_bytes(frame::COUNT.get(head)) as usize;
    if n > max {
        // Only a response's caller sets `max` below the `u16` range.
        return Err(CodecError::Malformed(format!(
            "plugin returned {n} allocations, limit is {max}"
        )));
    }
    let need = HEAD + n * LEN;
    let body = buf.get(HEAD..need).ok_or(CodecError::BadLength {
        need,
        have: buf.len(),
    })?;
    Ok((head, body.as_chunks().0))
}

/// The PlugC helpers a scheduler plugin is built on, rendered from the
/// field table: `req_n`, `req_prbs`, `rec`, `write_header`, `write_alloc`.
///
/// Offsets are rendered as literals, not as PlugC `const`s: a `const`
/// compiles to a `global.get` and no PlugC pass folds it, so constants
/// would change every module built on the prelude.
pub fn plugc_prelude() -> String {
    let [n_lo, n_hi] = frame::COUNT.byte_addrs("req");
    let req_prbs = request::PRBS.addr("req");
    let [magic_0, magic_1] = frame::MAGIC.byte_addrs("out");
    let [magic_lo, magic_hi] = MAGIC.to_le_bytes();
    let [version_0, version_1] = frame::VERSION.byte_addrs("out");
    let [version_lo, version_hi] = VERSION.to_le_bytes();
    let [count_0, count_1] = frame::COUNT.byte_addrs("out");
    let [reserved_0, reserved_1] = frame::RESERVED.byte_addrs("out");
    let alloc_id = alloc::UE_ID.addr("slot");
    let [prbs_0, prbs_1] = alloc::PRBS.byte_addrs("slot");
    let alloc_priority = alloc::PRIORITY.addr("slot");
    let alloc_reserved = alloc::RESERVED.addr("slot");
    format!(
        r#"
fn req_n(req: i32) -> i32 {{
    return load_u8({n_lo}) | (load_u8({n_hi}) << 8);
}}

fn req_prbs(req: i32) -> i32 {{
    return load_i32({req_prbs});
}}

fn rec(req: i32, i: i32) -> i32 {{
    return req + {REQUEST_HEADER_LEN} + i * {UE_RECORD_LEN};
}}

fn write_header(out: i32, n: i32) {{
    store_u8({magic_0}, {magic_lo:#04x}); store_u8({magic_1}, {magic_hi:#04x});
    store_u8({version_0}, {version_lo}); store_u8({version_1}, {version_hi});
    store_u8({count_0}, n & 255); store_u8({count_1}, (n >> 8) & 255);
    store_u8({reserved_0}, 0); store_u8({reserved_1}, 0);
}}

fn write_alloc(out: i32, idx: i32, ue_id: i32, prbs: i32, priority: i32) {{
    var slot: i32 = out + {RESPONSE_HEADER_LEN} + idx * {ALLOC_RECORD_LEN};
    store_i32({alloc_id}, ue_id);
    store_u8({prbs_0}, prbs & 255);
    store_u8({prbs_1}, (prbs >> 8) & 255);
    // Ranks past 255 saturate: all ones stores as 255, the lowest
    // priority (wrapping would sort the 257th-ranked UE first). No branch,
    // so this stays a straight-line helper PlugC splices at its call sites.
    store_u8({alloc_priority}, priority | -(priority > 255));
    store_u8({alloc_reserved}, 0);
}}
"#
    )
}

/// Snapshot of one UE handed to the intra-slice scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UeInfo {
    /// UE identifier (RNTI).
    pub ue_id: u32,
    /// Channel quality indicator, 1–15.
    pub cqi: u8,
    /// Modulation and coding scheme, 0–28.
    pub mcs: u8,
    /// Flags (see `FLAG_*`).
    pub flags: u16,
    /// Downlink buffer occupancy in bytes.
    pub buffer_bytes: u32,
    /// Long-term average throughput in bit/s (EWMA; the PF denominator).
    pub avg_tput_bps: f64,
    /// Transport bits one PRB carries for this UE in the current slot
    /// (already reflects MCS and overhead).
    pub prb_capacity_bits: f64,
}

impl UeInfo {
    fn encode(&self) -> [u8; UE_RECORD_LEN] {
        let mut rec = [0; UE_RECORD_LEN];
        ue::ID.put(&mut rec, self.ue_id.to_le_bytes());
        ue::CQI.put(&mut rec, [self.cqi]);
        ue::MCS.put(&mut rec, [self.mcs]);
        ue::FLAGS.put(&mut rec, self.flags.to_le_bytes());
        ue::BUFFER.put(&mut rec, self.buffer_bytes.to_le_bytes());
        ue::AVG_TPUT.put(&mut rec, self.avg_tput_bps.to_le_bytes());
        ue::PRB_CAPACITY.put(&mut rec, self.prb_capacity_bits.to_le_bytes());
        rec
    }

    fn decode(rec: &[u8; UE_RECORD_LEN]) -> UeInfo {
        UeInfo {
            ue_id: u32::from_le_bytes(ue::ID.get(rec)),
            cqi: u8::from_le_bytes(ue::CQI.get(rec)),
            mcs: u8::from_le_bytes(ue::MCS.get(rec)),
            flags: u16::from_le_bytes(ue::FLAGS.get(rec)),
            buffer_bytes: u32::from_le_bytes(ue::BUFFER.get(rec)),
            avg_tput_bps: f64::from_le_bytes(ue::AVG_TPUT.get(rec)),
            prb_capacity_bits: f64::from_le_bytes(ue::PRB_CAPACITY.get(rec)),
        }
    }
}

/// The per-slot request handed to an intra-slice scheduler plugin.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRequest {
    /// Slot number (monotone).
    pub slot: u64,
    /// PRBs the inter-slice scheduler granted to this slice.
    pub prbs_granted: u32,
    /// Slice identifier.
    pub slice_id: u32,
    /// UEs currently subscribed to the slice.
    pub ues: Vec<UeInfo>,
}

impl SchedRequest {
    /// Encode to the wire layout; only the first [`MAX_RECORDS`] UEs fit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire layout to `out` — the reusable-buffer variant for
    /// per-slot callers that want to avoid an allocation per request. Only
    /// the first [`MAX_RECORDS`] UEs fit.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let ues = &self.ues[..self.ues.len().min(MAX_RECORDS)];
        out.reserve(REQUEST_HEADER_LEN + ues.len() * UE_RECORD_LEN);
        let mut head = header::<REQUEST_HEADER_LEN>(ues.len());
        request::SLOT.put(&mut head, self.slot.to_le_bytes());
        request::PRBS.put(&mut head, self.prbs_granted.to_le_bytes());
        request::SLICE_ID.put(&mut head, self.slice_id.to_le_bytes());
        out.extend_from_slice(&head);
        for ue in ues {
            out.extend_from_slice(&ue.encode());
        }
    }

    /// Decode from the wire layout (what a Rust-side "plugin" or test does;
    /// PlugC plugins read the same bytes with `load_*`).
    pub fn decode(buf: &[u8]) -> Result<SchedRequest, CodecError> {
        let (head, records) = records::<REQUEST_HEADER_LEN, UE_RECORD_LEN>(buf, MAX_RECORDS)?;
        Ok(SchedRequest {
            slot: u64::from_le_bytes(request::SLOT.get(head)),
            prbs_granted: u32::from_le_bytes(request::PRBS.get(head)),
            slice_id: u32::from_le_bytes(request::SLICE_ID.get(head)),
            ues: records.iter().map(UeInfo::decode).collect(),
        })
    }
}

/// One allocation decision returned by the plugin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// UE to serve.
    pub ue_id: u32,
    /// PRBs granted to the UE.
    pub prbs: u16,
    /// Priority (0 = highest) used by the resource allocator when the sum
    /// of requests exceeds the grant.
    pub priority: u8,
}

/// The plugin's response for one slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedResponse {
    /// Allocations, at most one per UE.
    pub allocs: Vec<Allocation>,
}

impl SchedResponse {
    /// Encode to the wire layout; only the first [`MAX_RECORDS`]
    /// allocations fit.
    pub fn encode(&self) -> Vec<u8> {
        let allocs = &self.allocs[..self.allocs.len().min(MAX_RECORDS)];
        let mut out = Vec::with_capacity(RESPONSE_HEADER_LEN + allocs.len() * ALLOC_RECORD_LEN);
        out.extend_from_slice(&header::<RESPONSE_HEADER_LEN>(allocs.len()));
        for a in allocs {
            let mut rec = [0; ALLOC_RECORD_LEN];
            alloc::UE_ID.put(&mut rec, a.ue_id.to_le_bytes());
            alloc::PRBS.put(&mut rec, a.prbs.to_le_bytes());
            alloc::PRIORITY.put(&mut rec, [a.priority]);
            out.extend_from_slice(&rec);
        }
        out
    }

    /// Decode and structurally validate a plugin response.
    ///
    /// `max_allocs` bounds how many records a (possibly hostile) plugin may
    /// return — the fault policy treats violations as plugin faults.
    pub fn decode(buf: &[u8], max_allocs: usize) -> Result<SchedResponse, CodecError> {
        let (_, records) = records::<RESPONSE_HEADER_LEN, ALLOC_RECORD_LEN>(buf, max_allocs)?;
        let allocs = records.iter().map(|rec| Allocation {
            ue_id: u32::from_le_bytes(alloc::UE_ID.get(rec)),
            prbs: u16::from_le_bytes(alloc::PRBS.get(rec)),
            priority: u8::from_le_bytes(alloc::PRIORITY.get(rec)),
        });
        Ok(SchedResponse {
            allocs: allocs.collect(),
        })
    }

    /// Total PRBs requested across all allocations.
    pub fn total_prbs(&self) -> u32 {
        self.allocs.iter().map(|a| a.prbs as u32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SchedRequest {
        SchedRequest {
            slot: 123456,
            prbs_granted: 52,
            slice_id: 3,
            ues: vec![
                UeInfo {
                    ue_id: 70,
                    cqi: 12,
                    mcs: 24,
                    flags: 0,
                    buffer_bytes: 150_000,
                    avg_tput_bps: 12.5e6,
                    prb_capacity_bits: 350_000.0,
                },
                UeInfo {
                    ue_id: 71,
                    cqi: 7,
                    mcs: 13,
                    flags: FLAG_RETX,
                    buffer_bytes: 9_000,
                    avg_tput_bps: 2.5e6,
                    prb_capacity_bits: 160_000.0,
                },
            ],
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let bytes = req.encode();
        assert_eq!(bytes.len(), REQUEST_HEADER_LEN + 2 * UE_RECORD_LEN);
        assert_eq!(SchedRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn response_roundtrip() {
        let resp = SchedResponse {
            allocs: vec![
                Allocation {
                    ue_id: 70,
                    prbs: 40,
                    priority: 0,
                },
                Allocation {
                    ue_id: 71,
                    prbs: 12,
                    priority: 1,
                },
            ],
        };
        let bytes = resp.encode();
        assert_eq!(SchedResponse::decode(&bytes, 16).unwrap(), resp);
        assert_eq!(resp.total_prbs(), 52);
    }

    #[test]
    fn empty_request_and_response() {
        let req = SchedRequest {
            slot: 0,
            prbs_granted: 0,
            slice_id: 0,
            ues: vec![],
        };
        assert_eq!(SchedRequest::decode(&req.encode()).unwrap(), req);
        let resp = SchedResponse::default();
        assert_eq!(SchedResponse::decode(&resp.encode(), 0).unwrap(), resp);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_request().encode();
        bytes[0] = 0;
        assert!(matches!(
            SchedRequest::decode(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_version_mismatch() {
        let mut bytes = sample_request().encode();
        bytes[2] = 9;
        assert_eq!(
            SchedRequest::decode(&bytes),
            Err(CodecError::VersionMismatch {
                expected: 1,
                found: 9
            })
        );
    }

    #[test]
    fn rejects_truncated_records() {
        let bytes = sample_request().encode();
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            SchedRequest::decode(cut),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn rejects_oversized_response() {
        let resp = SchedResponse {
            allocs: (0..10)
                .map(|i| Allocation {
                    ue_id: i,
                    prbs: 1,
                    priority: 0,
                })
                .collect(),
        };
        let bytes = resp.encode();
        assert!(matches!(
            SchedResponse::decode(&bytes, 5),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn counts_never_wrap() {
        // 65 536 records used to encode a count of 0 and then all of them.
        let ue = sample_request().ues[0];
        let req = SchedRequest {
            ues: vec![ue; MAX_RECORDS + 1],
            ..sample_request()
        };
        let bytes = req.encode();
        assert_eq!(
            bytes.len(),
            REQUEST_HEADER_LEN + MAX_RECORDS * UE_RECORD_LEN
        );
        assert_eq!(SchedRequest::decode(&bytes).unwrap().ues.len(), MAX_RECORDS);
        let alloc = Allocation {
            ue_id: 1,
            prbs: 1,
            priority: 0,
        };
        let resp = SchedResponse {
            allocs: vec![alloc; MAX_RECORDS + 1],
        };
        let decoded = SchedResponse::decode(&resp.encode(), usize::MAX).unwrap();
        assert_eq!(decoded.allocs.len(), MAX_RECORDS);
    }
}
