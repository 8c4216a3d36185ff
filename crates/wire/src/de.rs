//! The wire-format deserializer.

use crate::error::{Error, Result};
use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};

/// Deserialize a value of type `T` from `input`, requiring that the whole
/// input is consumed.
pub fn from_bytes<'de, T: de::Deserialize<'de>>(input: &'de [u8]) -> Result<T> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    if de.input.is_empty() {
        Ok(value)
    } else {
        Err(Error::TrailingBytes(de.input.len()))
    }
}

/// Deserialize a top-level `Vec<T>` from `input`, reserving its capacity
/// exactly once and requiring that the whole input is consumed.
///
/// Byte-for-byte the same format as `from_bytes::<Vec<T>>`, but serde's
/// `Vec` visitor caps the capacity it takes from the size hint (1 MiB) and
/// then regrows by doubling — three to four reallocations and copies for an
/// 8 MiB time-step. Here the length prefix is checked against the remaining
/// input first (every non-zero-sized element encodes to at least one byte),
/// so a hostile prefix is an [`Error::LengthOverrun`], never an allocation
/// beyond `input.len()` elements; the reservation itself is fallible.
pub fn vec_from_bytes<'de, T: de::Deserialize<'de>>(input: &'de [u8]) -> Result<Vec<T>> {
    let mut de = Deserializer::new(input);
    let len = de.read_len(usize::from(std::mem::size_of::<T>() != 0))?;
    let mut values = Vec::new();
    values.try_reserve_exact(len).map_err(|e| Error::Message(e.to_string()))?;
    for _ in 0..len {
        values.push(T::deserialize(&mut de)?);
    }
    if de.input.is_empty() {
        Ok(values)
    } else {
        Err(Error::TrailingBytes(de.input.len()))
    }
}

/// Cursor-style deserializer over a borrowed byte slice.
pub struct Deserializer<'de> {
    input: &'de [u8],
}

impl<'de> Deserializer<'de> {
    /// Create a deserializer reading from `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Advance the cursor past `n` bytes without interpreting them — for
    /// hand-written wire-view merges (`Analytics::merge_wire` overrides in `smart-core`)
    /// that know a field's encoded size and don't need its value.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    /// Borrow the next `n` bytes uninterpreted and advance past them — for
    /// hand-laid frames (the in-transit stream's batch frame) whose payloads
    /// are decoded later, straight from the borrowed slice.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'de [u8]> {
        self.take(n)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'de [u8]> {
        if self.input.len() < n {
            return Err(Error::UnexpectedEof { needed: n, remaining: self.input.len() });
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        // `take` guarantees the slice has exactly N bytes.
        Ok(bytes.try_into().expect("take returned wrong length"))
    }

    /// Read a `u64` length prefix and sanity-check it against the remaining
    /// input so corrupt prefixes cannot trigger giant allocations.
    ///
    /// `min_elem_size` is the smallest possible encoded size of one element
    /// (1 byte covers everything except zero-sized elements, for which the
    /// caller passes 0 and no check is possible).
    #[inline]
    pub(crate) fn read_len(&mut self, min_elem_size: usize) -> Result<usize> {
        let declared = u64::from_le_bytes(self.take_array::<8>()?);
        if let Some(per_elem) = self.input.len().checked_div(min_elem_size) {
            let possible = per_elem as u64;
            if declared > possible {
                return Err(Error::LengthOverrun { declared, possible });
            }
        }
        Ok(declared as usize)
    }
}

macro_rules! de_le {
    ($name:ident, $visit:ident, $ty:ty, $n:expr) => {
        #[inline]
        fn $name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let v = <$ty>::from_le_bytes(self.take_array::<$n>()?);
            visitor.$visit(v)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take_array::<1>()?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(Error::InvalidBool(b)),
        }
    }

    de_le!(deserialize_i8, visit_i8, i8, 1);
    de_le!(deserialize_i16, visit_i16, i16, 2);
    de_le!(deserialize_i32, visit_i32, i32, 4);
    de_le!(deserialize_i64, visit_i64, i64, 8);
    de_le!(deserialize_i128, visit_i128, i128, 16);
    de_le!(deserialize_u8, visit_u8, u8, 1);
    de_le!(deserialize_u16, visit_u16, u16, 2);
    de_le!(deserialize_u32, visit_u32, u32, 4);
    de_le!(deserialize_u64, visit_u64, u64, 8);
    de_le!(deserialize_u128, visit_u128, u128, 16);
    de_le!(deserialize_f32, visit_f32, f32, 4);
    de_le!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let code = u32::from_le_bytes(self.take_array::<4>()?);
        let c = char::from_u32(code).ok_or(Error::InvalidChar(code))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len(1)?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| Error::InvalidUtf8)?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len(1)?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_bytes(bytes)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take_array::<1>()?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(Error::InvalidOptionTag(b)),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len(1)?;
        visitor.visit_seq(Counted { de: self, left: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(Counted { de: self, left: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_seq(Counted { de: self, left: len })
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len(1)?;
        visitor.visit_map(Counted { de: self, left: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_seq(Counted { de: self, left: fields.len() })
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Sequence/map access that yields exactly `left` elements.
struct Counted<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    left: usize,
}

impl<'de, 'a> de::SeqAccess<'de> for Counted<'a, 'de> {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de, 'a> de::MapAccess<'de> for Counted<'a, 'de> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = Error;
    type Variant = VariantAccess<'a, 'de>;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self::Variant)> {
        let index = u32::from_le_bytes(self.de.take_array::<4>()?);
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de, 'a> de::VariantAccess<'de> for VariantAccess<'a, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<()> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(Counted { de: self.de, left: len })
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_seq(Counted { de: self.de, left: fields.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::to_bytes;

    #[test]
    fn remaining_reports_cursor_position() {
        let bytes = to_bytes(&(1u8, 2u32)).unwrap();
        let mut de = Deserializer::new(&bytes);
        assert_eq!(de.remaining(), 5);
        let _: u8 = serde::Deserialize::deserialize(&mut de).unwrap();
        assert_eq!(de.remaining(), 4);
    }

    #[test]
    fn borrowed_str_deserializes_without_copy() {
        let bytes = to_bytes("zero-copy").unwrap();
        let s: &str = from_bytes(&bytes).unwrap();
        assert_eq!(s, "zero-copy");
    }

    #[test]
    fn vec_from_bytes_matches_from_bytes_and_reserves_exactly() {
        let floats: Vec<f64> = (0..300_000).map(|i| i as f64 * 0.25).collect();
        let bytes = to_bytes(&floats).unwrap();
        let got: Vec<f64> = vec_from_bytes(&bytes).unwrap();
        assert_eq!(got, floats);
        assert_eq!(got.capacity(), floats.len(), "one exact reservation, no doubling");

        let nested = vec![(1i64, vec![1u8, 2]), (-7, vec![])];
        let bytes = to_bytes(&nested).unwrap();
        assert_eq!(vec_from_bytes::<(i64, Vec<u8>)>(&bytes).unwrap(), nested);
        assert_eq!(from_bytes::<Vec<(i64, Vec<u8>)>>(&bytes).unwrap(), nested);

        let units = vec![(); 5];
        assert_eq!(vec_from_bytes::<()>(&to_bytes(&units).unwrap()).unwrap(), units);
        assert!(vec_from_bytes::<u64>(&to_bytes(&Vec::<u64>::new()).unwrap()).unwrap().is_empty());
    }

    #[test]
    fn vec_from_bytes_rejects_malformed_input_without_allocating_for_it() {
        let bytes = to_bytes(&vec![1u64, 2, 3]).unwrap();
        for cut in 0..bytes.len() {
            assert!(vec_from_bytes::<u64>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(vec_from_bytes::<u64>(&trailing), Err(Error::TrailingBytes(1)));
        // A hostile prefix fails the plausibility check before any reserve.
        let mut hostile = bytes;
        hostile[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(vec_from_bytes::<u64>(&hostile), Err(Error::LengthOverrun { .. })));
    }

    #[test]
    fn take_bytes_borrows_and_advances() {
        let mut de = Deserializer::new(&[1, 2, 3, 4, 5]);
        assert_eq!(de.take_bytes(2).unwrap(), &[1, 2]);
        assert_eq!(de.remaining(), 3);
        assert!(matches!(de.take_bytes(4), Err(Error::UnexpectedEof { needed: 4, remaining: 3 })));
        assert_eq!(de.take_bytes(3).unwrap(), &[3, 4, 5]);
    }

    #[test]
    fn zero_len_seq_ok() {
        let bytes = to_bytes(&Vec::<u64>::new()).unwrap();
        let v: Vec<u64> = from_bytes(&bytes).unwrap();
        assert!(v.is_empty());
    }
}
