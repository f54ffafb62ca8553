//! LEB128 variable-length integer and IEEE-754 primitive encoding.
//!
//! The WebAssembly binary format encodes all integers as LEB128 (unsigned
//! for counts/indices, signed for constants) and floats as little-endian
//! IEEE-754. This module provides both directions over byte slices and a
//! growable output buffer, with strict canonical-form-agnostic decoding
//! bounded exactly as the spec requires (ceil(N/7) bytes max).

/// Error returned by the LEB128 decoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LebError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// More bytes than the encoding of the target width permits.
    Overlong,
    /// Set bits beyond the target integer width.
    Overflow,
}

impl std::fmt::Display for LebError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LebError::UnexpectedEof => write!(f, "unexpected end of input in LEB128 value"),
            LebError::Overlong => write!(f, "LEB128 value uses too many bytes"),
            LebError::Overflow => write!(f, "LEB128 value overflows target width"),
        }
    }
}

impl std::error::Error for LebError {}

/// Decode an unsigned LEB128 value of at most `bits` significant bits.
/// Returns the value and the number of bytes consumed.
pub fn read_unsigned(buf: &[u8], bits: u32) -> Result<(u64, usize), LebError> {
    let max_bytes = (bits as usize).div_ceil(7);
    let mut result: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= max_bytes {
            return Err(LebError::Overlong);
        }
        let low = (byte & 0x7f) as u64;
        // The final byte may only carry the bits that still fit.
        if shift + 7 > bits {
            let allowed = bits - shift;
            if low >> allowed != 0 {
                return Err(LebError::Overflow);
            }
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((result, i + 1));
        }
        shift += 7;
    }
    Err(LebError::UnexpectedEof)
}

/// Decode a signed LEB128 value of at most `bits` significant bits.
/// Returns the value and the number of bytes consumed.
pub fn read_signed(buf: &[u8], bits: u32) -> Result<(i64, usize), LebError> {
    let max_bytes = (bits as usize).div_ceil(7);
    let mut result: i64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= max_bytes {
            return Err(LebError::Overlong);
        }
        let payload = byte & 0x7f;
        if shift + 7 > bits {
            // The final byte's payload bits beyond the target width (and the
            // bit just below them, which determines the sign) must be a
            // correct sign extension.
            let used = bits - shift; // payload bits that still carry value
            let sign_bit = if used == 0 {
                // All payload is extension; sign comes from the accumulated
                // result's top bit, so every payload bit must match it.
                (result >> (bits - 1)) & 1 == 1
            } else {
                (payload >> (used - 1)) & 1 == 1
            };
            let ext_mask: u8 = if used >= 7 { 0 } else { (!0u8 << used) & 0x7f };
            let ext = payload & ext_mask;
            if sign_bit {
                if ext != ext_mask {
                    return Err(LebError::Overflow);
                }
            } else if ext != 0 {
                return Err(LebError::Overflow);
            }
        }
        result |= (payload as i64) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            // Sign-extend from the last payload bit.
            if shift < 64 && (byte & 0x40) != 0 {
                result |= -1i64 << shift;
            }
            // Narrow to the target width's sign semantics.
            if bits < 64 {
                let drop = 64 - bits;
                result = (result << drop) >> drop;
            }
            return Ok((result, i + 1));
        }
    }
    Err(LebError::UnexpectedEof)
}

/// Encode an unsigned LEB128 value into `out`.
pub fn write_unsigned(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encode a signed LEB128 value into `out`.
pub fn write_signed(out: &mut Vec<u8>, mut value: i64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        let sign = byte & 0x40 != 0;
        if (value == 0 && !sign) || (value == -1 && sign) {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn leb_unsigned_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_unsigned(&mut buf, v);
            let (got, n) = read_unsigned(&buf, 64).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
        }

        #[test]
        fn leb_signed_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            write_signed(&mut buf, v);
            let (got, n) = read_signed(&buf, 64).unwrap();
            prop_assert_eq!(got, v);
            prop_assert_eq!(n, buf.len());
        }

        #[test]
        fn leb_u32_roundtrip(v in any::<u32>()) {
            let mut buf = Vec::new();
            write_unsigned(&mut buf, v as u64);
            let (got, _) = read_unsigned(&buf, 32).unwrap();
            prop_assert_eq!(got, v as u64);
        }

        #[test]
        fn leb_i32_roundtrip(v in any::<i32>()) {
            let mut buf = Vec::new();
            write_signed(&mut buf, v as i64);
            let (got, _) = read_signed(&buf, 32).unwrap();
            prop_assert_eq!(got, v as i64);
        }
    }

    fn roundtrip_u(v: u64, bits: u32) {
        let mut buf = Vec::new();
        write_unsigned(&mut buf, v);
        let (got, n) = read_unsigned(&buf, bits).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    }

    fn roundtrip_s(v: i64, bits: u32) {
        let mut buf = Vec::new();
        write_signed(&mut buf, v);
        let (got, _) = read_signed(&buf, bits).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn unsigned_roundtrip() {
        for v in [0u64, 1, 127, 128, 255, 624485, u32::MAX as u64] {
            roundtrip_u(v, 32);
        }
        for v in [0u64, u64::MAX, u64::MAX / 3, 1 << 62] {
            roundtrip_u(v, 64);
        }
    }

    #[test]
    fn signed_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            64,
            -64,
            -65,
            127,
            -128,
            2147483647,
            -2147483648,
        ] {
            roundtrip_s(v, 32);
        }
        for v in [i64::MIN, i64::MAX, -123456789012345, 987654321098765] {
            roundtrip_s(v, 64);
        }
    }

    #[test]
    fn unsigned_eof() {
        assert_eq!(read_unsigned(&[0x80], 32), Err(LebError::UnexpectedEof));
        assert_eq!(read_unsigned(&[], 32), Err(LebError::UnexpectedEof));
    }

    #[test]
    fn unsigned_overlong() {
        // Six continuation bytes is more than a u32 can need.
        assert_eq!(
            read_unsigned(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00], 32),
            Err(LebError::Overlong)
        );
    }

    #[test]
    fn unsigned_overflow_bits() {
        // Fifth byte of a u32 may only use 4 low bits.
        assert_eq!(
            read_unsigned(&[0xff, 0xff, 0xff, 0xff, 0x1f], 32),
            Err(LebError::Overflow)
        );
        let (v, _) = read_unsigned(&[0xff, 0xff, 0xff, 0xff, 0x0f], 32).unwrap();
        assert_eq!(v, u32::MAX as u64);
    }

    #[test]
    fn signed_known_encodings() {
        // Examples from the LEB128 literature.
        let mut buf = Vec::new();
        write_signed(&mut buf, -123456);
        assert_eq!(buf, vec![0xc0, 0xbb, 0x78]);
        let (v, n) = read_signed(&[0xc0, 0xbb, 0x78], 32).unwrap();
        assert_eq!(v, -123456);
        assert_eq!(n, 3);
    }

    #[test]
    fn signed_overflow_bits() {
        // i32: fifth byte payload must be proper sign extension.
        assert!(read_signed(&[0xff, 0xff, 0xff, 0xff, 0x0f], 32).is_err());
        let (v, _) = read_signed(&[0xff, 0xff, 0xff, 0xff, 0x7f], 32).unwrap();
        assert_eq!(v, -1);
    }

    #[test]
    fn non_canonical_accepted() {
        // 0 encoded with a redundant continuation byte is still valid LEB128.
        let (v, n) = read_unsigned(&[0x80, 0x00], 32).unwrap();
        assert_eq!(v, 0);
        assert_eq!(n, 2);
    }
}
