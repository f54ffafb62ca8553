//! Property tests: every codec round-trips arbitrary well-typed data, and
//! no decoder panics on arbitrary bytes or on any cut of a valid message.

use proptest::prelude::*;

use waran_abi::bitpack::{BitReader, BitWriter, RecordSpec};
use waran_abi::pbwire::{PbReader, PbWriter};
use waran_abi::sched::{
    Allocation, SchedRequest, SchedResponse, UeInfo, REQUEST_HEADER_LEN, RESPONSE_HEADER_LEN,
};
use waran_abi::sjson::Json;
use waran_abi::tlv::{TlvReader, TlvWriter};
use waran_abi::CodecError;

fn arb_ue() -> impl Strategy<Value = UeInfo> {
    (
        any::<u32>(),
        1u8..=15,
        0u8..=28,
        any::<u16>(),
        any::<u32>(),
        0.0f64..1e9,
        0.0f64..1e7,
    )
        .prop_map(|(ue_id, cqi, mcs, flags, buffer_bytes, avg, rate)| UeInfo {
            ue_id,
            cqi,
            mcs,
            flags,
            buffer_bytes,
            avg_tput_bps: avg,
            prb_capacity_bits: rate,
        })
}

fn arb_alloc() -> impl Strategy<Value = Allocation> {
    (any::<u32>(), any::<u16>(), any::<u8>()).prop_map(|(ue_id, prbs, priority)| Allocation {
        ue_id,
        prbs,
        priority,
    })
}

/// The error the first `cut` bytes of a `len`-byte message with a
/// `header_len`-byte header decode to: a cut header is `UnexpectedEof`, cut
/// records are `BadLength`.
fn cut_error(cut: usize, header_len: usize, len: usize) -> CodecError {
    if cut < header_len {
        CodecError::UnexpectedEof
    } else {
        CodecError::BadLength {
            need: len,
            have: cut,
        }
    }
}

proptest! {
    #[test]
    fn sched_request_roundtrip(
        slot in any::<u64>(),
        prbs in 0u32..1000,
        slice_id in any::<u32>(),
        ues in proptest::collection::vec(arb_ue(), 0..64),
    ) {
        let req = SchedRequest { slot, prbs_granted: prbs, slice_id, ues };
        let decoded = SchedRequest::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn sched_response_roundtrip(allocs in proptest::collection::vec(arb_alloc(), 0..64)) {
        let resp = SchedResponse { allocs };
        let decoded = SchedResponse::decode(&resp.encode(), 64).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn sched_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = SchedRequest::decode(&bytes);
        let _ = SchedResponse::decode(&bytes, 32);
    }

    #[test]
    fn sched_strict_prefixes_are_short_and_the_whole_decodes(
        slot in any::<u64>(),
        ues in proptest::collection::vec(arb_ue(), 0..6),
        allocs in proptest::collection::vec(arb_alloc(), 0..6),
    ) {
        let req = SchedRequest { slot, prbs_granted: 52, slice_id: 7, ues };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                SchedRequest::decode(&bytes[..cut]).err(),
                Some(cut_error(cut, REQUEST_HEADER_LEN, bytes.len()))
            );
        }
        prop_assert_eq!(SchedRequest::decode(&bytes).unwrap(), req);
        let resp = SchedResponse { allocs };
        let bytes = resp.encode();
        let max = resp.allocs.len();
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                SchedResponse::decode(&bytes[..cut], max).err(),
                Some(cut_error(cut, RESPONSE_HEADER_LEN, bytes.len()))
            );
        }
        prop_assert_eq!(SchedResponse::decode(&bytes, max).unwrap(), resp);
    }

    #[test]
    fn tlv_roundtrip(fields in proptest::collection::vec(
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64)), 0..16)
    ) {
        let mut w = TlvWriter::new();
        for (tag, value) in &fields {
            w.bytes(*tag, value);
        }
        let bytes = w.finish();
        let mut r = TlvReader::new(&bytes);
        let mut got = Vec::new();
        while let Some(f) = r.next_field().unwrap() {
            got.push((f.tag, f.value.to_vec()));
        }
        prop_assert_eq!(got, fields);
    }

    #[test]
    fn tlv_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = TlvReader::new(&bytes);
        while let Ok(Some(_)) = r.next_field() {}
    }

    #[test]
    fn pbwire_roundtrip(
        u in any::<u64>(),
        d in any::<f64>(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        inner in any::<u64>(),
    ) {
        let mut w = PbWriter::new();
        w.uint(1, u)
            .double(3, d)
            .bytes(4, &raw)
            .message(5, |m| {
                m.uint(1, inner);
            });
        let bytes = w.finish();
        let r = PbReader::new(&bytes);
        prop_assert_eq!(r.find(1).unwrap().unwrap().as_uint().unwrap(), u);
        let got = r.find(3).unwrap().unwrap().as_double().unwrap();
        prop_assert!(got == d || (got.is_nan() && d.is_nan()));
        prop_assert_eq!(r.find(4).unwrap().unwrap().as_bytes().unwrap(), &raw[..]);
        let sub = PbReader::new(r.find(5).unwrap().unwrap().as_bytes().unwrap());
        prop_assert_eq!(sub.find(1).unwrap().unwrap().as_uint().unwrap(), inner);
    }

    #[test]
    fn pbwire_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = PbReader::new(&bytes);
        while let Ok(Some(_)) = r.next_field() {}
    }

    #[test]
    fn bitpack_roundtrip(values in proptest::collection::vec((1u32..=32, any::<u64>()), 1..24)) {
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for (bits, raw) in &values {
            let v = raw & ((1u64 << bits) - 1);
            w.write(v, *bits).unwrap();
            expected.push((*bits, v));
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (bits, v) in expected {
            prop_assert_eq!(r.read(bits).unwrap(), v);
        }
    }

    #[test]
    fn bitpack_adapter_preserves_values_that_fit(
        power in 0u64..256,
        antenna in 0u64..16,
    ) {
        let a = RecordSpec::new(&[("power", 8), ("antenna", 4)]);
        let b = RecordSpec::new(&[("power", 12), ("antenna", 4)]);
        let bytes = a.encode(&[power, antenna]).unwrap();
        let widened = a.adapt_to(&b, &bytes).unwrap();
        prop_assert_eq!(b.decode(&widened).unwrap(), vec![power, antenna]);
        // And back: narrowing something that fits is lossless.
        let narrowed = b.adapt_to(&a, &widened).unwrap();
        prop_assert_eq!(a.decode(&narrowed).unwrap(), vec![power, antenna]);
    }

    #[test]
    fn json_roundtrip_numbers(v in -1e12f64..1e12) {
        let text = Json::Num(v).encode();
        let back = Json::decode(&text).unwrap().as_num().unwrap();
        prop_assert!((back - v).abs() <= v.abs() * 1e-12 + 1e-12);
    }

    #[test]
    fn json_roundtrip_strings(s in "\\PC{0,64}") {
        let v = Json::Str(s.clone());
        let back = Json::decode(&v.encode()).unwrap();
        prop_assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn json_decoder_never_panics(s in "\\PC{0,128}") {
        let _ = Json::decode(&s);
    }

    #[test]
    fn json_structured_roundtrip(
        nums in proptest::collection::vec(-1e6f64..1e6, 0..8),
        key in "[a-z]{1,8}",
    ) {
        let v = Json::obj(vec![
            (&key, Json::Arr(nums.iter().map(|n| Json::Num(*n)).collect())),
            ("flag", Json::Bool(true)),
        ]);
        let back = Json::decode(&v.encode()).unwrap();
        prop_assert_eq!(back.get(&key).unwrap().as_arr().unwrap().len(), nums.len());
    }
}
