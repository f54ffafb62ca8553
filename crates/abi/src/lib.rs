//! # waran-abi — the WA-RAN host↔plugin data plane
//!
//! Everything that crosses the sandbox boundary or the (plugin-wrapped)
//! wire between RAN components is defined here:
//!
//! * [`sched`] — the scheduler ABI: fixed-layout binary records describing
//!   UEs ([`sched::UeInfo`]) and the plugin's allocation decisions
//!   ([`sched::Allocation`]), with versioned request/response framing.
//! * [`tlv`] — a tag-length-value codec (the "keep it simple" wire choice).
//! * [`pbwire`] — a protobuf-compatible wire format (varints, doubles,
//!   length-delimited fields) implemented from scratch.
//! * [`bitpack`] — bit-level packing in the style of ASN.1 PER; used by the
//!   §3.B interface-mismatch demo (8-bit vs 12-bit power-control fields).
//! * [`sjson`] — a small JSON encoder/decoder for human-readable payloads.
//!
//! The paper's §4.B point is that the wire format is an *operator choice*
//! wrapped inside communication plugins; these codecs are the menu the RIC
//! substrate (waran-ric) selects from, and the ablation bench compares
//! them.

pub mod bitpack;
pub mod pbwire;
pub mod sched;
pub mod sjson;
pub mod tlv;

/// Errors shared by the codecs in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// A length prefix points past the end of the buffer.
    BadLength {
        /// Bytes the prefix claims.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A tag/discriminant byte has no defined meaning.
    BadTag(u32),
    /// Structural or semantic violation, with detail.
    Malformed(String),
    /// Version field does not match what this build speaks.
    VersionMismatch {
        /// Version this build encodes.
        expected: u16,
        /// Version found on the wire.
        found: u16,
    },
    /// A value does not fit in the field width it must be encoded into.
    FieldOverflow {
        /// The value.
        value: u64,
        /// The target width.
        bits: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadLength { need, have } => {
                write!(f, "length prefix needs {need} bytes, only {have} available")
            }
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
            CodecError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "ABI version mismatch: expected {expected}, found {found}"
                )
            }
            CodecError::FieldOverflow { value, bits } => {
                write!(f, "value {value} does not fit in {bits} bits")
            }
        }
    }
}

impl std::error::Error for CodecError {}
