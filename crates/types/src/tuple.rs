//! Raw NSM record encoding and field access.
//!
//! Records are fixed-length byte slices laid out by a [`Schema`]: each field
//! lives at a fixed offset.  Two access styles are provided:
//!
//! * **Generic access** ([`read_value`] / [`write_value`]) goes through
//!   [`Value`] and a `match` on the data type — this is what the iterator
//!   engine uses and it models the per-field interpretation overhead the
//!   paper attributes to generic query engines.
//! * **Direct access** ([`read_i32_at`], [`read_f64_at`], ...) reads a
//!   primitive at a known offset with no type dispatch — this is what the
//!   holistic generated kernels use (the Rust analogue of the paper's
//!   `int *value = tuple + predicate_offset`).

use crate::datatype::DataType;
use crate::error::{HiqueError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Read the little-endian `i32` at `offset`.
#[inline(always)]
pub fn read_i32_at(record: &[u8], offset: usize) -> i32 {
    #[expect(clippy::unwrap_used, reason = "a 4-byte slice converts to [u8; 4]")]
    let bytes: [u8; 4] = record[offset..offset + 4].try_into().unwrap();
    i32::from_le_bytes(bytes)
}

/// Read the little-endian `i64` at `offset`.
#[inline(always)]
pub fn read_i64_at(record: &[u8], offset: usize) -> i64 {
    #[expect(clippy::unwrap_used, reason = "an 8-byte slice converts to [u8; 8]")]
    let bytes: [u8; 8] = record[offset..offset + 8].try_into().unwrap();
    i64::from_le_bytes(bytes)
}

/// Read the little-endian `f64` at `offset`.
#[inline(always)]
pub fn read_f64_at(record: &[u8], offset: usize) -> f64 {
    #[expect(clippy::unwrap_used, reason = "an 8-byte slice converts to [u8; 8]")]
    let bytes: [u8; 8] = record[offset..offset + 8].try_into().unwrap();
    f64::from_le_bytes(bytes)
}

/// Write an `i32` at `offset`.
#[inline(always)]
pub fn write_i32_at(record: &mut [u8], offset: usize, v: i32) {
    record[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
}

/// Write an `i64` at `offset`.
#[inline(always)]
pub fn write_i64_at(record: &mut [u8], offset: usize, v: i64) {
    record[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
}

/// Write an `f64` at `offset`.
#[inline(always)]
pub fn write_f64_at(record: &mut [u8], offset: usize, v: f64) {
    record[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
}

/// Write a fixed-width, space-padded string field at `offset`.
#[inline]
pub fn write_str_at(record: &mut [u8], offset: usize, width: usize, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(width);
    record[offset..offset + n].copy_from_slice(&bytes[..n]);
    for b in &mut record[offset + n..offset + width] {
        *b = b' ';
    }
}

/// Decode the fixed-width string field at `offset`, trimming pad spaces.
#[inline]
pub fn read_str_at(record: &[u8], offset: usize, width: usize) -> &str {
    let raw = &record[offset..offset + width];
    let end = raw.iter().rposition(|&b| b != b' ').map_or(0, |i| i + 1);
    std::str::from_utf8(&raw[..end]).unwrap_or("")
}

/// Read column `idx` of `record` as a [`Value`] (generic, interpreted path).
pub fn read_value(record: &[u8], schema: &Schema, idx: usize) -> Value {
    let off = schema.offset(idx);
    match schema.column(idx).dtype {
        DataType::Int32 => Value::Int32(read_i32_at(record, off)),
        DataType::Int64 => Value::Int64(read_i64_at(record, off)),
        DataType::Float64 => Value::Float64(read_f64_at(record, off)),
        DataType::Date => Value::Date(read_i32_at(record, off)),
        DataType::Char(n) => Value::Str(read_str_at(record, off, n as usize).to_string()),
    }
}

/// Write `value` into column `idx` of `record` (generic, interpreted path).
pub fn write_value(record: &mut [u8], schema: &Schema, idx: usize, value: &Value) -> Result<()> {
    let off = schema.offset(idx);
    let dtype = schema.column(idx).dtype;
    match (dtype, value) {
        (DataType::Int32, Value::Int32(v)) => write_i32_at(record, off, *v),
        (DataType::Int32, Value::Int64(v)) => {
            let narrowed = i32::try_from(*v)
                .map_err(|_| HiqueError::Type(format!("{v} out of range for int column")))?;
            write_i32_at(record, off, narrowed);
        }
        (DataType::Int64, Value::Int64(v)) => write_i64_at(record, off, *v),
        (DataType::Int64, Value::Int32(v)) => write_i64_at(record, off, *v as i64),
        (DataType::Float64, Value::Float64(v)) => write_f64_at(record, off, *v),
        (DataType::Float64, Value::Int32(v)) => write_f64_at(record, off, *v as f64),
        (DataType::Float64, Value::Int64(v)) => write_f64_at(record, off, *v as f64),
        (DataType::Date, Value::Date(v)) => write_i32_at(record, off, *v),
        (DataType::Date, Value::Int32(v)) => write_i32_at(record, off, *v),
        (DataType::Char(n), Value::Str(s)) => write_str_at(record, off, n as usize, s),
        (dtype, value) => {
            return Err(HiqueError::Type(format!(
                "cannot store {value} into {} column '{}'",
                dtype,
                schema.column(idx).name
            )))
        }
    }
    Ok(())
}

/// Encode a full row of values into a freshly allocated record.
pub fn encode_record(schema: &Schema, values: &[Value]) -> Result<Vec<u8>> {
    if values.len() != schema.len() {
        return Err(HiqueError::Type(format!(
            "expected {} values, got {}",
            schema.len(),
            values.len()
        )));
    }
    let mut record = vec![0u8; schema.tuple_size()];
    for (i, v) in values.iter().enumerate() {
        write_value(&mut record, schema, i, v)?;
    }
    Ok(record)
}

/// Decode a full record into its values.
pub fn decode_record(schema: &Schema, record: &[u8]) -> Vec<Value> {
    (0..schema.len())
        .map(|i| read_value(record, schema, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("b", DataType::Int64),
            Column::new("c", DataType::Float64),
            Column::new("d", DataType::Char(8)),
            Column::new("e", DataType::Date),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = schema();
        let vals = vec![
            Value::Int32(-7),
            Value::Int64(1 << 40),
            Value::Float64(3.25),
            Value::Str("hi".into()),
            Value::Date(10_000),
        ];
        let rec = encode_record(&s, &vals).unwrap();
        assert_eq!(rec.len(), s.tuple_size());
        assert_eq!(decode_record(&s, &rec), vals);
    }

    #[test]
    fn direct_access_matches_generic_access() {
        let s = schema();
        let rec = encode_record(
            &s,
            &[
                Value::Int32(123),
                Value::Int64(-456),
                Value::Float64(7.5),
                Value::Str("abcdefgh".into()),
                Value::Date(42),
            ],
        )
        .unwrap();
        assert_eq!(read_i32_at(&rec, s.offset(0)), 123);
        assert_eq!(read_i64_at(&rec, s.offset(1)), -456);
        assert_eq!(read_f64_at(&rec, s.offset(2)), 7.5);
        assert_eq!(read_str_at(&rec, s.offset(3), 8), "abcdefgh");
        assert_eq!(read_i32_at(&rec, s.offset(4)), 42);
    }

    #[test]
    fn strings_truncate_and_pad() {
        let s = Schema::new(vec![Column::new("d", DataType::Char(4))]);
        let rec = encode_record(&s, &[Value::Str("toolong".into())]).unwrap();
        assert_eq!(read_str_at(&rec, 0, 4), "tool");
        let rec2 = encode_record(&s, &[Value::Str("a".into())]).unwrap();
        assert_eq!(&rec2, b"a   ");
        assert_eq!(read_str_at(&rec2, 0, 4), "a");
    }

    #[test]
    fn write_value_coerces_numerics() {
        let s = schema();
        let mut rec = vec![0u8; s.tuple_size()];
        write_value(&mut rec, &s, 2, &Value::Int32(9)).unwrap();
        assert_eq!(read_f64_at(&rec, s.offset(2)), 9.0);
        write_value(&mut rec, &s, 1, &Value::Int32(5)).unwrap();
        assert_eq!(read_i64_at(&rec, s.offset(1)), 5);
        assert!(write_value(&mut rec, &s, 0, &Value::Str("x".into())).is_err());
        assert!(write_value(&mut rec, &s, 0, &Value::Int64(i64::MAX)).is_err());
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let s = schema();
        assert!(encode_record(&s, &[Value::Int32(1)]).is_err());
    }
}
