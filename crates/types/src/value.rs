//! Runtime values.
//!
//! [`Value`] is the boxed, dynamically-typed representation used by the
//! *interpreted* parts of the system: the SQL front-end (literals), the
//! iterator engine (the paper's baseline, which pays for this genericity),
//! the optimizer (statistics and constants) and query results.  The holistic
//! engine's generated kernels never manipulate `Value`s in their hot loops —
//! they read primitives straight out of NSM records — which is exactly the
//! contrast the paper measures.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::datatype::DataType;
use crate::error::{HiqueError, Result};

/// A dynamically typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 32-bit integer.
    Int32(i32),
    /// 64-bit integer.
    Int64(i64),
    /// Double-precision float.
    Float64(f64),
    /// Days since the Unix epoch.
    Date(i32),
    /// Character string (logically `CHAR(n)`; trailing pad spaces trimmed).
    Str(String),
}

impl Value {
    /// The data type this value naturally carries.
    ///
    /// `Str` maps to a `Char` whose width is the string's byte length; the
    /// schema's declared width wins when encoding into a record.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int32(_) => DataType::Int32,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Date(_) => DataType::Date,
            Value::Str(s) => DataType::Char(s.len().min(u16::MAX as usize) as u16),
        }
    }

    /// The typed value of a number computed in `f64` — the numeric cast
    /// table every engine's expression outputs and SUM/AVG/MIN/MAX
    /// finishes go through (`Char` has no numeric form and stays
    /// `Float64`).
    ///
    /// Every NaN leaves as [`f64::NAN`] (bits `0x7FF8_0000_0000_0000`).
    /// IEEE 754 leaves the sign and payload of an invalid operation's NaN
    /// unspecified: x86 produces a negative one at run time, a compiler's
    /// constant folder a positive one, and a NaN operand propagates its
    /// own.  So which NaN a computation yields depends on the build and on
    /// operand order, and the engine's answer must not.
    #[inline]
    pub fn from_f64(v: f64, dtype: DataType) -> Value {
        match dtype {
            DataType::Int32 => Value::Int32(v as i32),
            DataType::Int64 => Value::Int64(v as i64),
            DataType::Date => Value::Date(v as i32),
            DataType::Float64 | DataType::Char(_) if v.is_nan() => Value::Float64(f64::NAN),
            DataType::Float64 | DataType::Char(_) => Value::Float64(v),
        }
    }

    /// Interpret the value as `f64` for aggregate arithmetic.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int32(v) => Ok(*v as f64),
            Value::Int64(v) => Ok(*v as f64),
            Value::Float64(v) => Ok(*v),
            Value::Date(v) => Ok(*v as f64),
            Value::Str(s) => Err(HiqueError::Type(format!(
                "cannot use string '{s}' in numeric context"
            ))),
        }
    }

    /// Interpret the value as `i64`, truncating floats.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int32(v) => Ok(*v as i64),
            Value::Int64(v) => Ok(*v),
            Value::Float64(v) => Ok(*v as i64),
            Value::Date(v) => Ok(*v as i64),
            Value::Str(s) => Err(HiqueError::Type(format!(
                "cannot use string '{s}' in integer context"
            ))),
        }
    }

    /// Borrow the string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Coerce this value to the given type, used when binding literals to
    /// column types during semantic analysis.
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        let out = match (self, ty) {
            (Value::Int32(v), DataType::Int32) => Value::Int32(*v),
            (Value::Int32(v), DataType::Int64) => Value::Int64(*v as i64),
            (Value::Int32(v), DataType::Float64) => Value::Float64(*v as f64),
            (Value::Int32(v), DataType::Date) => Value::Date(*v),
            (Value::Int64(v), DataType::Int64) => Value::Int64(*v),
            (Value::Int64(v), DataType::Int32) => {
                let narrowed = i32::try_from(*v)
                    .map_err(|_| HiqueError::Type(format!("integer {v} out of range for int")))?;
                Value::Int32(narrowed)
            }
            (Value::Int64(v), DataType::Float64) => Value::Float64(*v as f64),
            (Value::Float64(v), DataType::Float64) => Value::Float64(*v),
            (Value::Date(v), DataType::Date) => Value::Date(*v),
            (Value::Date(v), DataType::Int32) => Value::Int32(*v),
            (Value::Str(s), DataType::Char(_)) => Value::Str(s.clone()),
            (Value::Str(s), DataType::Date) => Value::Date(parse_date(s)?),
            (v, ty) => return Err(HiqueError::Type(format!("cannot coerce {v} to {ty}"))),
        };
        Ok(out)
    }

    /// Total-order comparison across compatible value kinds.
    ///
    /// Integers (`Int32`, `Int64`, `Date`) compare as `i64` regardless of
    /// width; an integer against a float compares exactly, the float placed
    /// where `f64::total_cmp` puts it (`-0.0` just below zero, NaNs beyond
    /// the infinities by sign); floats compare by `f64::total_cmp`; strings
    /// compare lexicographically.  A string against a number is a type
    /// error at analysis time; here it sorts below every number.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Str(_), _) => Ordering::Less,
            (_, Value::Str(_)) => Ordering::Greater,
            (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
            (Value::Float64(a), b) => cmp_int_f64(b.integer(), *a).reverse(),
            (a, Value::Float64(b)) => cmp_int_f64(a.integer(), *b),
            (a, b) => a.integer().cmp(&b.integer()),
        }
    }

    /// The payload of an integer kind; `total_cmp` calls it on nothing else.
    fn integer(&self) -> i64 {
        match self {
            Value::Int32(v) | Value::Date(v) => *v as i64,
            Value::Int64(v) => *v,
            Value::Float64(_) | Value::Str(_) => 0,
        }
    }

    /// Equality as used by equi-join and grouping logic.
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

/// Order the integer `i` against the float `f` exactly.  Every float below
/// 2^63 truncates to an `i64` without loss (below -2^63 the cast saturates
/// and the tie-break still orders it), so the integer parts decide and the
/// fraction breaks a tie; `-0.0` truncates to `0` and sorts below it.
fn cmp_int_f64(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= 9_223_372_036_854_775_808.0 {
        return 0.0f64.total_cmp(&f);
    }
    let t = f.trunc() as i64;
    i.cmp(&t).then_with(|| (t as f64).total_cmp(&f))
}

/// Parse `YYYY-MM-DD` into days since 1970-01-01 (proleptic Gregorian).
pub fn parse_date(s: &str) -> Result<i32> {
    let parts: Vec<&str> = s.trim().split('-').collect();
    if parts.len() != 3 {
        return Err(HiqueError::Type(format!("invalid date literal '{s}'")));
    }
    let year: i32 = parts[0]
        .parse()
        .map_err(|_| HiqueError::Type(format!("invalid year in date '{s}'")))?;
    let month: i32 = parts[1]
        .parse()
        .map_err(|_| HiqueError::Type(format!("invalid month in date '{s}'")))?;
    let day: i32 = parts[2]
        .parse()
        .map_err(|_| HiqueError::Type(format!("invalid day in date '{s}'")))?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(HiqueError::Type(format!("date out of range '{s}'")));
    }
    Ok(days_from_civil(year, month, day))
}

/// Format days-since-epoch back into `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `days_from_civil` algorithm (public domain).
pub fn days_from_civil(y: i32, m: i32, d: i32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i32) -> (i32, i32, i32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = (mp + 2) % 12 + 1;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Numbers hash through their nearest f64's bits: an integer equals
            // a float only when the float is exactly that integer, so values
            // equal across kinds and widths hash identically.  Integers
            // beyond 2^53 that round to one f64 only share a bucket.
            Value::Int32(v) => (*v as f64).to_bits().hash(state),
            Value::Int64(v) => (*v as f64).to_bits().hash(state),
            Value::Date(v) => (*v as f64).to_bits().hash(state),
            Value::Float64(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v:.4}"),
            Value::Date(v) => write!(f, "{}", format_date(*v)),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_spans_widths() {
        assert!(Value::Int32(5).sql_eq(&Value::Int64(5)));
        assert!(Value::Int32(5) < Value::Float64(5.5));
        assert!(Value::Int64(10) > Value::Int32(2));
    }

    #[test]
    fn integers_beyond_2_pow_53_compare_exactly() {
        let big = 1i64 << 53;
        assert!(Value::Int64(big) < Value::Int64(big + 1));
        assert_ne!(Value::Int64(big), Value::Int64(big + 1));
        assert!(Value::Int64(i64::MAX - 1) < Value::Int64(i64::MAX));
        // Against a float the comparison is exact too, so equality stays
        // transitive: 2^53 + 1 equals neither 2^53 as a float nor 2^53.
        let f = Value::Float64(big as f64);
        assert_eq!(Value::Int64(big), f);
        assert!(Value::Int64(big + 1) > f);
        assert!(f < Value::Int64(big + 1));
        assert!(Value::Int64(i64::MAX) < Value::Float64(9_223_372_036_854_775_808.0));
        assert!(Value::Int64(i64::MIN) == Value::Float64(-9_223_372_036_854_775_808.0));
        assert!(Value::Int64(i64::MIN) > Value::Float64(f64::NEG_INFINITY));
    }

    #[test]
    fn an_integer_sits_where_total_cmp_puts_the_float() {
        assert!(Value::Int32(0) > Value::Float64(-0.0));
        assert_eq!(Value::Int32(0), Value::Float64(0.0));
        assert!(Value::Int32(0) > Value::Float64(-0.5));
        assert!(Value::Int32(-1) < Value::Float64(-0.5));
        assert!(Value::Int32(2) > Value::Float64(1.5));
        assert!(Value::Int32(1) < Value::Float64(1.5));
        assert!(Value::Int64(i64::MAX) < Value::Float64(f64::NAN));
        assert!(Value::Int64(i64::MIN) > Value::Float64(-f64::NAN));
        assert!(Value::Date(3) == Value::Int64(3));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert!(Value::Str("BUILDING".into()) < Value::Str("HOUSEHOLD".into()));
        assert!(Value::Str("A".into()).sql_eq(&Value::Str("A".into())));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int32(7).coerce_to(DataType::Int64).unwrap(),
            Value::Int64(7)
        );
        assert_eq!(
            Value::Int64(7).coerce_to(DataType::Int32).unwrap(),
            Value::Int32(7)
        );
        assert!(Value::Int64(i64::MAX).coerce_to(DataType::Int32).is_err());
        assert_eq!(
            Value::Int32(3).coerce_to(DataType::Float64).unwrap(),
            Value::Float64(3.0)
        );
        assert!(Value::Str("x".into()).coerce_to(DataType::Int32).is_err());
    }

    #[test]
    fn every_computed_nan_leaves_as_the_canonical_one() {
        let canonical = 0x7FF8_0000_0000_0000u64;
        for bits in [canonical, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0001] {
            let Value::Float64(v) = Value::from_f64(f64::from_bits(bits), DataType::Float64) else {
                panic!("a float stays a float");
            };
            assert_eq!(v.to_bits(), canonical, "{bits:#x}");
        }
        // Everything else keeps its bits, signed zero included.
        for v in [-0.0, 0.0, f64::NEG_INFINITY, 1.5] {
            let out = Value::from_f64(v, DataType::Float64);
            assert!(matches!(out, Value::Float64(o) if o.to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn date_round_trip() {
        for (y, m, d) in [(1970, 1, 1), (1992, 2, 29), (1998, 12, 1), (2026, 6, 14)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(
            parse_date("1995-03-15").unwrap(),
            days_from_civil(1995, 3, 15)
        );
        assert_eq!(format_date(parse_date("1998-12-01").unwrap()), "1998-12-01");
    }

    #[test]
    fn date_parse_errors() {
        assert!(parse_date("1995/03/15").is_err());
        assert!(parse_date("1995-13-15").is_err());
        assert!(parse_date("not-a-date").is_err());
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Value::Int32(4).as_f64().unwrap(), 4.0);
        assert_eq!(Value::Float64(2.5).as_i64().unwrap(), 2);
        assert!(Value::Str("a".into()).as_f64().is_err());
        assert_eq!(Value::Str("abc".into()).as_str(), Some("abc"));
        assert_eq!(Value::Int32(1).as_str(), None);
    }

    #[test]
    fn hash_consistent_with_eq_across_widths() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int32(42)), h(&Value::Int64(42)));
        assert_eq!(h(&Value::Int32(42)), h(&Value::Float64(42.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int32(3).to_string(), "3");
        assert_eq!(Value::Float64(1.5).to_string(), "1.5000");
        assert_eq!(Value::Str("ok".into()).to_string(), "ok");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }
}
