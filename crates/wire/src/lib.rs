//! # smart-wire
//!
//! A compact, non-self-describing binary serialization format used by the
//! Smart runtime to ship reduction objects between ranks during global
//! combination, and by the MiniSpark baseline to model inter-stage
//! serialization.
//!
//! The format is deliberately simple and fast:
//!
//! * all multi-byte integers and floats are little-endian, fixed width;
//! * sequences, maps, strings and byte strings are prefixed with a `u64`
//!   element/byte count;
//! * `Option` is a one-byte tag (`0`/`1`) followed by the value;
//! * enum variants are encoded as a `u32` variant index followed by the
//!   variant payload;
//! * structs and tuples are the concatenation of their fields (no framing).
//!
//! Because the format is not self-describing, a value can only be decoded
//! with the exact type it was encoded from. That is always the case inside
//! the Smart runtime: the analytics type fixes the reduction-object type on
//! every rank.
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Cluster { centroid: Vec<f64>, size: u64 }
//!
//! let c = Cluster { centroid: vec![1.0, 2.0], size: 7 };
//! let bytes = smart_wire::to_bytes(&c).unwrap();
//! let back: Cluster = smart_wire::from_bytes(&bytes).unwrap();
//! assert_eq!(back, c);
//! ```

mod count;
mod de;
mod error;
pub mod runs;
mod ser;
mod view;

pub use count::encoded_len;
pub use de::{from_bytes, vec_from_bytes, Deserializer};
pub use error::{Error, Result};
pub use ser::{to_bytes, to_writer, Serializer};
pub use view::EntriesCursor;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + serde::de::DeserializeOwned,
    {
        let bytes = to_bytes(v).expect("serialize");
        from_bytes(&bytes).expect("deserialize")
    }

    #[test]
    fn primitives_roundtrip() {
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&0u8), 0u8);
        assert_eq!(roundtrip(&255u8), 255u8);
        assert_eq!(roundtrip(&-1i8), -1i8);
        assert_eq!(roundtrip(&u16::MAX), u16::MAX);
        assert_eq!(roundtrip(&i16::MIN), i16::MIN);
        assert_eq!(roundtrip(&u32::MAX), u32::MAX);
        assert_eq!(roundtrip(&i32::MIN), i32::MIN);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&i64::MIN), i64::MIN);
        assert_eq!(roundtrip(&u128::MAX), u128::MAX);
        assert_eq!(roundtrip(&i128::MIN), i128::MIN);
        assert_eq!(roundtrip(&1.5f32), 1.5f32);
        assert_eq!(roundtrip(&-2.25f64), -2.25f64);
        assert_eq!(roundtrip(&'λ'), 'λ');
    }

    #[test]
    fn float_nan_roundtrips_bitwise() {
        let v = f64::NAN;
        let back: f64 = roundtrip(&v);
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn strings_roundtrip() {
        assert_eq!(roundtrip(&String::new()), "");
        assert_eq!(roundtrip(&"hello".to_string()), "hello");
        assert_eq!(roundtrip(&"héllo wörld λ".to_string()), "héllo wörld λ");
    }

    #[test]
    fn vectors_roundtrip() {
        assert_eq!(roundtrip(&Vec::<u64>::new()), Vec::<u64>::new());
        let v: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        assert_eq!(roundtrip(&v), v);
        let nested = vec![vec![1u32, 2], vec![], vec![3]];
        assert_eq!(roundtrip(&nested), nested);
    }

    #[test]
    fn options_roundtrip() {
        assert_eq!(roundtrip(&Option::<u32>::None), None);
        assert_eq!(roundtrip(&Some(42u32)), Some(42));
        assert_eq!(roundtrip(&Some(Some(1u8))), Some(Some(1u8)));
        assert_eq!(roundtrip(&vec![Some(1u8), None, Some(3)]), vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn tuples_roundtrip() {
        assert_eq!(roundtrip(&(1u8, 2u64, -3i32)), (1u8, 2u64, -3i32));
        assert_eq!(roundtrip(&((1u8, "x".to_string()), 2.5f64)), ((1u8, "x".to_string()), 2.5f64));
    }

    #[test]
    fn maps_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(1i64, vec![1.0f64, 2.0]);
        m.insert(-5i64, vec![]);
        assert_eq!(roundtrip(&m), m);

        let mut h = HashMap::new();
        h.insert("a".to_string(), 1u32);
        h.insert("b".to_string(), 2u32);
        assert_eq!(roundtrip(&h), h);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Unit;

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Newtype(u64);

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Bucket {
        count: u64,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    struct Cluster {
        centroid: Vec<f64>,
        sum: Vec<f64>,
        size: u64,
        tag: Option<String>,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    enum Shape {
        Empty,
        Point(f64),
        Pair(f64, f64),
        Labelled { name: String, dims: Vec<u32> },
    }

    #[test]
    fn structs_roundtrip() {
        assert_eq!(roundtrip(&Unit), Unit);
        assert_eq!(roundtrip(&Newtype(9)), Newtype(9));
        assert_eq!(roundtrip(&Bucket { count: 77 }), Bucket { count: 77 });
        let c =
            Cluster { centroid: vec![0.5, 1.5, 2.5], sum: vec![], size: 3, tag: Some("cl".into()) };
        assert_eq!(roundtrip(&c), c);
    }

    #[test]
    fn enums_roundtrip() {
        for s in [
            Shape::Empty,
            Shape::Point(1.25),
            Shape::Pair(1.0, -2.0),
            Shape::Labelled { name: "n".into(), dims: vec![1, 2, 3] },
        ] {
            assert_eq!(roundtrip(&s), s);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&12345u64).unwrap();
        for cut in 0..bytes.len() {
            let res: Result<u64> = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        let res: Result<u8> = from_bytes(&bytes);
        assert!(res.is_err());
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let res: Result<bool> = from_bytes(&[2]);
        assert!(res.is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        // length 1, byte 0xFF
        let bytes = [1, 0, 0, 0, 0, 0, 0, 0, 0xFF];
        let res: Result<String> = from_bytes(&bytes);
        assert!(res.is_err());
    }

    #[test]
    fn absurd_length_prefix_is_an_error_not_a_huge_alloc() {
        // A sequence claiming u64::MAX elements with no payload must fail
        // cleanly instead of trying to reserve memory for them.
        let bytes = u64::MAX.to_le_bytes();
        let res: Result<Vec<u64>> = from_bytes(&bytes);
        assert!(res.is_err());
    }

    #[test]
    fn to_writer_matches_to_bytes() {
        let c = Cluster { centroid: vec![1.0], sum: vec![2.0], size: 1, tag: None };
        let a = to_bytes(&c).unwrap();
        let mut b = Vec::new();
        to_writer(&mut b, &c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_is_compact() {
        // A Vec<f64> of n elements is exactly 8 (length) + 8n bytes.
        let v = vec![1.0f64; 100];
        assert_eq!(to_bytes(&v).unwrap().len(), 8 + 8 * 100);
        // Option<u8> is 1 tag byte + payload.
        assert_eq!(to_bytes(&Some(3u8)).unwrap().len(), 2);
        assert_eq!(to_bytes(&Option::<u8>::None).unwrap().len(), 1);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
        struct Mixed {
            a: i64,
            b: Vec<f64>,
            c: Option<String>,
            d: (u8, i32),
            e: Vec<(i64, u64)>,
        }

        fn mixed_strategy() -> impl Strategy<Value = Mixed> {
            (
                any::<i64>(),
                proptest::collection::vec(any::<f64>(), 0..20),
                proptest::option::of(".*"),
                (any::<u8>(), any::<i32>()),
                proptest::collection::vec((any::<i64>(), any::<u64>()), 0..10),
            )
                .prop_map(|(a, b, c, d, e)| Mixed { a, b, c, d, e })
        }

        proptest! {
            #[test]
            fn roundtrip_u64(v: u64) {
                prop_assert_eq!(roundtrip(&v), v);
            }

            #[test]
            fn roundtrip_i64(v: i64) {
                prop_assert_eq!(roundtrip(&v), v);
            }

            #[test]
            fn roundtrip_f64_bits(v: u64) {
                let f = f64::from_bits(v);
                let back: f64 = roundtrip(&f);
                prop_assert_eq!(back.to_bits(), v);
            }

            #[test]
            fn roundtrip_string(s in ".*") {
                prop_assert_eq!(roundtrip(&s.clone()), s);
            }

            #[test]
            fn roundtrip_vec_f64(v in proptest::collection::vec(any::<f64>(), 0..200)) {
                let back: Vec<f64> = roundtrip(&v);
                prop_assert_eq!(back.len(), v.len());
                for (a, b) in back.iter().zip(v.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }

            #[test]
            fn roundtrip_map(m in proptest::collection::btree_map(any::<i64>(), any::<u64>(), 0..50)) {
                prop_assert_eq!(roundtrip(&m.clone()), m);
            }

            #[test]
            fn roundtrip_mixed(v in mixed_strategy()) {
                // Compare through Debug formatting to get NaN-tolerant equality
                // for the float vector.
                let back = roundtrip(&v);
                prop_assert_eq!(format!("{back:?}"), format!("{v:?}"));
            }

            #[test]
            fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
                // Decoding garbage may fail but must never panic or OOM.
                let _ : Result<Vec<f64>> = from_bytes(&data);
                let _ : Result<(u64, String)> = from_bytes(&data);
                let _ : Result<BTreeMap<i64, Vec<u8>>> = from_bytes(&data);
            }
        }
    }
}
