//! Bit-level packing in the style of ASN.1 PER.
//!
//! Radio interfaces squeeze fields into odd bit widths (the paper's §3.B
//! example: one vendor encodes radio output power in 8 bits, another in
//! 12). This module provides the exact-width bit reader/writer those
//! interfaces use, plus [`FieldSpec`]/[`RecordSpec::adapt_to`]-style helpers the
//! interface-adapter plugin builds on.
//!
//! Bits are written MSB-first within each byte, PER-style.

use crate::CodecError;

/// Writes values of arbitrary bit width, MSB-first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits used in the last byte (0 means byte-aligned).
    bit_pos: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            bit_pos: 0,
        }
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Append the low `bits` bits of `value` (MSB of the field first).
    pub fn write(&mut self, value: u64, bits: u32) -> Result<(), CodecError> {
        if bits == 0 || bits > 64 {
            return Err(CodecError::Malformed(format!("bad field width {bits}")));
        }
        if bits < 64 && value >> bits != 0 {
            return Err(CodecError::FieldOverflow { value, bits });
        }
        for i in (0..bits).rev() {
            let bit = ((value >> i) & 1) as u8;
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            let last = self.buf.last_mut().expect("just ensured non-empty");
            *last |= bit << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
        Ok(())
    }

    /// Pad with zero bits to a byte boundary.
    pub fn align(&mut self) {
        self.bit_pos = 0;
    }

    /// Take the encoded bytes (final partial byte zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads values of arbitrary bit width, MSB-first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos_bits: 0 }
    }

    /// Bits left.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos_bits
    }

    /// Read a `bits`-wide unsigned value.
    pub fn read(&mut self, bits: u32) -> Result<u64, CodecError> {
        if bits == 0 || bits > 64 {
            return Err(CodecError::Malformed(format!("bad field width {bits}")));
        }
        if self.remaining_bits() < bits as usize {
            return Err(CodecError::UnexpectedEof);
        }
        let mut out = 0u64;
        for _ in 0..bits {
            let byte = self.buf[self.pos_bits / 8];
            let bit = (byte >> (7 - (self.pos_bits % 8) as u32)) & 1;
            out = (out << 1) | bit as u64;
            self.pos_bits += 1;
        }
        Ok(out)
    }

    /// Skip to the next byte boundary.
    pub fn align(&mut self) {
        self.pos_bits = self.pos_bits.div_ceil(8) * 8;
    }
}

/// Description of one fixed-width field in a packed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name (for diagnostics).
    pub name: &'static str,
    /// Width in bits.
    pub bits: u32,
}

/// A packed record layout: an ordered list of fields.
#[derive(Debug, Clone)]
pub struct RecordSpec {
    /// Fields in wire order.
    pub fields: Vec<FieldSpec>,
}

impl RecordSpec {
    /// Build from `(name, bits)` pairs.
    pub fn new(fields: &[(&'static str, u32)]) -> Self {
        RecordSpec {
            fields: fields
                .iter()
                .map(|(name, bits)| FieldSpec { name, bits: *bits })
                .collect(),
        }
    }

    /// Total bits per record.
    pub fn bit_len(&self) -> usize {
        self.fields.iter().map(|f| f.bits as usize).sum()
    }

    /// Encode field values (in spec order) into packed bytes.
    pub fn encode(&self, values: &[u64]) -> Result<Vec<u8>, CodecError> {
        if values.len() != self.fields.len() {
            return Err(CodecError::Malformed(format!(
                "record has {} fields, got {} values",
                self.fields.len(),
                values.len()
            )));
        }
        let mut w = BitWriter::new();
        for (f, v) in self.fields.iter().zip(values) {
            w.write(*v, f.bits)?;
        }
        Ok(w.finish())
    }

    /// Decode packed bytes into field values (in spec order).
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<u64>, CodecError> {
        let mut r = BitReader::new(bytes);
        self.fields.iter().map(|f| r.read(f.bits)).collect()
    }

    /// The field mapping from this layout into `target`, resolved once.
    ///
    /// This is the §3.B adapter: fields are matched by name; a value that
    /// does not fit the narrower target width saturates (the adapter's
    /// documented policy — dropping control actions would be worse than
    /// clamping power). Widening left-pads with zeros, i.e. preserves the
    /// value exactly.
    pub fn adaptation(&self, target: &RecordSpec) -> Result<Adaptation, CodecError> {
        let to = target
            .fields
            .iter()
            .map(|tf| {
                let idx = self
                    .fields
                    .iter()
                    .position(|f| f.name == tf.name)
                    .ok_or_else(|| {
                        CodecError::Malformed(format!("field `{}` missing in source", tf.name))
                    })?;
                let max = if tf.bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << tf.bits) - 1
                };
                Ok((idx, tf.bits, max))
            })
            .collect::<Result<_, CodecError>>()?;
        Ok(Adaptation {
            from: self.fields.iter().map(|f| f.bits).collect(),
            to,
        })
    }

    /// Re-pack one record from this layout into `target`, field by field
    /// (see [`RecordSpec::adaptation`]).
    pub fn adapt_to(&self, target: &RecordSpec, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut w = BitWriter::new();
        self.adaptation(target)?
            .adapt_into(bytes, &mut Vec::new(), &mut w)?;
        Ok(w.finish())
    }
}

/// A field mapping between two [`RecordSpec`]s, resolved by
/// [`RecordSpec::adaptation`], so re-packing a record looks nothing up.
#[derive(Debug, Clone)]
pub struct Adaptation {
    /// Source field widths, in wire order.
    from: Vec<u32>,
    /// Per target field, in wire order: the source field's index, the
    /// target width and the largest value it holds.
    to: Vec<(usize, u32, u64)>,
}

impl Adaptation {
    /// Re-pack one record and append it to `w`, zero-padded to a byte
    /// boundary. `values` is scratch the caller may reuse across records.
    pub fn adapt_into(
        &self,
        record: &[u8],
        values: &mut Vec<u64>,
        w: &mut BitWriter,
    ) -> Result<(), CodecError> {
        let mut r = BitReader::new(record);
        values.clear();
        for &bits in &self.from {
            values.push(r.read(bits)?);
        }
        for &(idx, bits, max) in &self.to {
            w.write(values[idx].min(max), bits)?;
        }
        w.align();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_msb_first() {
        let mut w = BitWriter::new();
        w.write(1, 1).unwrap();
        w.write(0, 1).unwrap();
        w.write(1, 1).unwrap();
        // 101 padded with zeros -> 1010_0000.
        assert_eq!(w.finish(), vec![0b1010_0000]);
    }

    #[test]
    fn cross_byte_fields() {
        let mut w = BitWriter::new();
        w.write(0b1_1111_1111, 9).unwrap(); // 9 ones
        w.write(0, 3).unwrap();
        w.write(0b1111, 4).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1111, 0b1000_1111]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(9).unwrap(), 0b1_1111_1111);
        assert_eq!(r.read(3).unwrap(), 0);
        assert_eq!(r.read(4).unwrap(), 0b1111);
    }

    #[test]
    fn overflow_rejected() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.write(256, 8),
            Err(CodecError::FieldOverflow {
                value: 256,
                bits: 8
            })
        );
        assert!(w.write(255, 8).is_ok());
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read(8).unwrap(), 0xff);
        assert_eq!(r.read(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn align_semantics() {
        let mut w = BitWriter::new();
        w.write(1, 1).unwrap();
        w.align();
        w.write(0xab, 8).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000, 0xab]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(1).unwrap(), 1);
        r.align();
        assert_eq!(r.read(8).unwrap(), 0xab);
    }

    #[test]
    fn record_roundtrip() {
        let spec = RecordSpec::new(&[("power", 8), ("antenna", 3), ("flags", 5)]);
        assert_eq!(spec.bit_len(), 16);
        let bytes = spec.encode(&[200, 5, 17]).unwrap();
        assert_eq!(bytes.len(), 2);
        assert_eq!(spec.decode(&bytes).unwrap(), vec![200, 5, 17]);
    }

    #[test]
    fn adapter_widens_8_to_12_bits() {
        // The paper's example: vendor A speaks 8-bit power, vendor B 12-bit.
        let vendor_a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
        let vendor_b = RecordSpec::new(&[("power", 12), ("antenna", 4)]);
        let a_bytes = vendor_a.encode(&[200, 3]).unwrap();
        let b_bytes = vendor_a.adapt_to(&vendor_b, &a_bytes).unwrap();
        assert_eq!(vendor_b.decode(&b_bytes).unwrap(), vec![200, 3]);
    }

    #[test]
    fn adapter_narrows_with_saturation() {
        let wide = RecordSpec::new(&[("power", 12)]);
        let narrow = RecordSpec::new(&[("power", 8)]);
        // 4000 doesn't fit 8 bits: clamps to 255.
        let bytes = wide.encode(&[4000]).unwrap();
        let out = wide.adapt_to(&narrow, &bytes).unwrap();
        assert_eq!(narrow.decode(&out).unwrap(), vec![255]);
        // 200 fits: preserved.
        let bytes = wide.encode(&[200]).unwrap();
        let out = wide.adapt_to(&narrow, &bytes).unwrap();
        assert_eq!(narrow.decode(&out).unwrap(), vec![200]);
    }

    #[test]
    fn adapter_reorders_by_name() {
        let src = RecordSpec::new(&[("a", 4), ("b", 4)]);
        let dst = RecordSpec::new(&[("b", 8), ("a", 8)]);
        let bytes = src.encode(&[1, 2]).unwrap();
        let out = src.adapt_to(&dst, &bytes).unwrap();
        assert_eq!(dst.decode(&out).unwrap(), vec![2, 1]);
    }

    #[test]
    fn adapter_missing_field_error() {
        let src = RecordSpec::new(&[("a", 4)]);
        let dst = RecordSpec::new(&[("zz", 4)]);
        let bytes = src.encode(&[1]).unwrap();
        assert!(src.adapt_to(&dst, &bytes).is_err());
    }

    #[test]
    fn full_width_64_bit_fields() {
        let mut w = BitWriter::new();
        w.write(u64::MAX, 64).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(64).unwrap(), u64::MAX);
    }
}
