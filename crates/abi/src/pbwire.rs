//! Protocol-Buffers-compatible wire format, from scratch.
//!
//! Implements the protobuf wire encoding without code generation: messages
//! are written field-by-field and read via a field iterator, exactly how
//! hand-rolled protobuf parsers work. Compatible with real protobuf for the
//! supported wire types, which is the point of the §4.B menu — an operator
//! can pick "protobuf" and interoperate with stock tooling.
//!
//! The writer emits the field types the RIC's protobuf codec uses; the
//! reader parses all four wire types, so a message carrying a field it does
//! not know is skipped field by field rather than refused.
//!
//! | wire type | meaning | written for |
//! |---|---|---|
//! | 0 | varint | u64 |
//! | 1 | 64-bit | f64 |
//! | 2 | length-delimited | bytes/sub-messages |
//! | 5 | 32-bit | (read only) |

use crate::CodecError;

/// Wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint,
    /// Little-endian 64-bit.
    Fixed64,
    /// Length-delimited bytes.
    LengthDelimited,
    /// Little-endian 32-bit.
    Fixed32,
}

impl WireType {
    fn from_bits(bits: u32) -> Result<WireType, CodecError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(CodecError::BadTag(other)),
        }
    }

    fn bits(self) -> u32 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Malformed("varint longer than 10 bytes".into()));
        }
        result |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Message writer.
#[derive(Debug, Default, Clone)]
pub struct PbWriter {
    buf: Vec<u8>,
}

impl PbWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, field: u32, wt: WireType) {
        write_varint(&mut self.buf, ((field << 3) | wt.bits()) as u64);
    }

    /// Unsigned varint field.
    pub fn uint(&mut self, field: u32, v: u64) -> &mut Self {
        self.key(field, WireType::Varint);
        write_varint(&mut self.buf, v);
        self
    }

    /// f64 field.
    pub fn double(&mut self, field: u32, v: f64) -> &mut Self {
        self.key(field, WireType::Fixed64);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Bytes field.
    pub fn bytes(&mut self, field: u32, v: &[u8]) -> &mut Self {
        self.key(field, WireType::LengthDelimited);
        write_varint(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Sub-message field.
    pub fn message(&mut self, field: u32, build: impl FnOnce(&mut PbWriter)) -> &mut Self {
        let mut inner = PbWriter::new();
        build(&mut inner);
        let inner = inner.finish();
        self.bytes(field, &inner)
    }

    /// Take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A decoded field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PbValue<'a> {
    /// Wire type 0.
    Varint(u64),
    /// Wire type 1.
    Fixed64(u64),
    /// Wire type 2.
    Bytes(&'a [u8]),
    /// Wire type 5.
    Fixed32(u32),
}

impl<'a> PbValue<'a> {
    /// As unsigned integer.
    pub fn as_uint(&self) -> Result<u64, CodecError> {
        match self {
            PbValue::Varint(v) => Ok(*v),
            other => Err(CodecError::Malformed(format!(
                "expected varint, got {other:?}"
            ))),
        }
    }

    /// As f64.
    pub fn as_double(&self) -> Result<f64, CodecError> {
        match self {
            PbValue::Fixed64(v) => Ok(f64::from_bits(*v)),
            other => Err(CodecError::Malformed(format!(
                "expected fixed64, got {other:?}"
            ))),
        }
    }

    /// As raw bytes.
    pub fn as_bytes(&self) -> Result<&'a [u8], CodecError> {
        match self {
            PbValue::Bytes(b) => Ok(b),
            other => Err(CodecError::Malformed(format!(
                "expected bytes, got {other:?}"
            ))),
        }
    }
}

/// Field-by-field reader.
#[derive(Debug, Clone)]
pub struct PbReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PbReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PbReader { buf, pos: 0 }
    }

    /// Next `(field_number, value)` pair, or `None` at end.
    pub fn next_field(&mut self) -> Result<Option<(u32, PbValue<'a>)>, CodecError> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let key = read_varint(self.buf, &mut self.pos)?;
        let field = (key >> 3) as u32;
        if field == 0 {
            return Err(CodecError::Malformed("field number 0 is reserved".into()));
        }
        let wt = WireType::from_bits((key & 7) as u32)?;
        let value = match wt {
            WireType::Varint => PbValue::Varint(read_varint(self.buf, &mut self.pos)?),
            WireType::Fixed64 => {
                let end = self.pos + 8;
                let b = self
                    .buf
                    .get(self.pos..end)
                    .ok_or(CodecError::UnexpectedEof)?;
                self.pos = end;
                PbValue::Fixed64(u64::from_le_bytes(b.try_into().expect("sized")))
            }
            WireType::Fixed32 => {
                let end = self.pos + 4;
                let b = self
                    .buf
                    .get(self.pos..end)
                    .ok_or(CodecError::UnexpectedEof)?;
                self.pos = end;
                PbValue::Fixed32(u32::from_le_bytes(b.try_into().expect("sized")))
            }
            WireType::LengthDelimited => {
                let len = read_varint(self.buf, &mut self.pos)? as usize;
                let end = self.pos.checked_add(len).ok_or(CodecError::UnexpectedEof)?;
                let b = self.buf.get(self.pos..end).ok_or(CodecError::BadLength {
                    need: len,
                    have: self.buf.len().saturating_sub(self.pos),
                })?;
                self.pos = end;
                PbValue::Bytes(b)
            }
        };
        Ok(Some((field, value)))
    }

    /// Find the first occurrence of `field`.
    pub fn find(&self, field: u32) -> Result<Option<PbValue<'a>>, CodecError> {
        let mut r = PbReader::new(self.buf);
        while let Some((f, v)) = r.next_field()? {
            if f == field {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_compatible_with_protobuf_reference() {
        // Protobuf docs example: field 1 varint 150 encodes as 08 96 01.
        let mut w = PbWriter::new();
        w.uint(1, 150);
        assert_eq!(w.finish(), vec![0x08, 0x96, 0x01]);
        // Field 2 string "testing" -> 12 07 74 65 73 74 69 6e 67.
        let mut w = PbWriter::new();
        w.bytes(2, b"testing");
        assert_eq!(
            w.finish(),
            vec![0x12, 0x07, 0x74, 0x65, 0x73, 0x74, 0x69, 0x6e, 0x67]
        );
    }

    #[test]
    fn roundtrip_all_written_types() {
        let mut w = PbWriter::new();
        w.uint(1, u64::MAX).double(3, 2.75).bytes(5, b"wa-ran");
        let bytes = w.finish();
        let r = PbReader::new(&bytes);
        assert_eq!(r.find(1).unwrap().unwrap().as_uint().unwrap(), u64::MAX);
        assert_eq!(r.find(3).unwrap().unwrap().as_double().unwrap(), 2.75);
        assert_eq!(r.find(5).unwrap().unwrap().as_bytes().unwrap(), b"wa-ran");
    }

    #[test]
    fn unknown_fixed32_fields_are_skipped() {
        // Field 4, wire type 5 (f32 -1.5), between two known fields.
        let mut bytes = PbWriter::new();
        bytes.uint(1, 7);
        let mut bytes = bytes.finish();
        bytes.push((4 << 3) | 5);
        bytes.extend_from_slice(&(-1.5f32).to_le_bytes());
        bytes.extend_from_slice(&[2 << 3, 9]);
        let r = PbReader::new(&bytes);
        assert_eq!(r.find(2).unwrap().unwrap().as_uint().unwrap(), 9);
        assert_eq!(
            r.find(4).unwrap(),
            Some(PbValue::Fixed32((-1.5f32).to_bits()))
        );
    }

    #[test]
    fn nested_messages() {
        let mut w = PbWriter::new();
        w.message(1, |inner| {
            inner.uint(1, 42);
            inner.message(2, |deep| {
                deep.bytes(1, b"deep");
            });
        });
        let bytes = w.finish();
        let outer = PbReader::new(&bytes).find(1).unwrap().unwrap();
        let inner = PbReader::new(outer.as_bytes().unwrap());
        assert_eq!(inner.find(1).unwrap().unwrap().as_uint().unwrap(), 42);
        let deep_bytes = inner.find(2).unwrap().unwrap();
        let deep = PbReader::new(deep_bytes.as_bytes().unwrap());
        assert_eq!(deep.find(1).unwrap().unwrap().as_bytes().unwrap(), b"deep");
    }

    #[test]
    fn repeated_fields_iterate_in_order() {
        let mut w = PbWriter::new();
        w.uint(7, 1).uint(7, 2).uint(7, 3);
        let bytes = w.finish();
        let mut r = PbReader::new(&bytes);
        let mut vals = Vec::new();
        while let Some((field, v)) = r.next_field().unwrap() {
            vals.push((field, v.as_uint().unwrap()));
        }
        assert_eq!(vals, vec![(7, 1), (7, 2), (7, 3)]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        // Truncated varint.
        let mut r = PbReader::new(&[0x08, 0x96]);
        assert!(r.next_field().is_err());
        // Reserved field number 0.
        let mut r = PbReader::new(&[0x00, 0x01]);
        assert!(r.next_field().is_err());
        // Unknown wire type 3 (group start, unsupported).
        let mut r = PbReader::new(&[0x0b]);
        assert!(matches!(r.next_field(), Err(CodecError::BadTag(3))));
        // Length-delimited field pointing past the end.
        let mut r = PbReader::new(&[0x12, 0x0a, 0x01]);
        assert!(r.next_field().is_err());
    }

    #[test]
    fn varint_overlong_rejected() {
        // 11 continuation bytes: longer than any u64 varint.
        let bytes = [0xff; 11];
        let mut pos = 0;
        assert!(read_varint(&bytes, &mut pos).is_err());
    }
}
