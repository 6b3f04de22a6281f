//! SQL data types with fixed on-disk widths.
//!
//! Every type has a fixed byte width so that records are fixed-length and
//! generated code can locate a field as `record_base + column_offset`, which
//! is the key enabler of the paper's template-generated access code
//! (Listing 1 of the paper).

use std::fmt;

/// A SQL data type supported by the engine.
///
/// All types are fixed width.  Strings are stored as fixed-length,
/// space-padded `CHAR(n)` fields (TPC-H columns are declared with known
/// maximum widths, so this loses no information for the reproduced
/// workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float (used for prices/discounts; the paper's
    /// workloads do not require exact decimals).
    Float64,
    /// Calendar date stored as days since 1970-01-01 (32-bit).
    Date,
    /// Fixed-length character string of `n` bytes, space padded.
    Char(u16),
}

impl DataType {
    /// Byte width of a value of this type inside an NSM record.
    #[inline]
    pub const fn width(&self) -> usize {
        match self {
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Date => 4,
            DataType::Char(n) => *n as usize,
        }
    }

    /// True for types whose comparison is a primitive machine comparison
    /// (the paper's generated code reverts predicate evaluation on these to
    /// direct comparisons instead of function calls).
    #[inline]
    pub const fn is_primitive(&self) -> bool {
        !matches!(self, DataType::Char(_))
    }

    /// Whether a key of this type is wholly captured by its 64-bit order
    /// image, so that equal images mean equal keys: every type but a string
    /// wider than eight bytes.  Value directories (map aggregation, fine
    /// partitioning) index by the image and are planned only over such keys.
    #[inline]
    pub const fn has_exact_key_image(&self) -> bool {
        self.width() <= 8
    }

    /// True if the type is numeric (valid input for SUM/AVG/MIN/MAX
    /// arithmetic aggregates).
    #[inline]
    pub const fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64 | DataType::Float64)
    }

    /// Short lowercase SQL-ish name, used by the plan explainer and by
    /// `Display`.
    pub fn sql_name(&self) -> String {
        match self {
            DataType::Int32 => "int".to_string(),
            DataType::Int64 => "bigint".to_string(),
            DataType::Float64 => "double".to_string(),
            DataType::Date => "date".to_string(),
            DataType::Char(n) => format!("char({n})"),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_fixed_and_positive() {
        assert_eq!(DataType::Int32.width(), 4);
        assert_eq!(DataType::Int64.width(), 8);
        assert_eq!(DataType::Float64.width(), 8);
        assert_eq!(DataType::Date.width(), 4);
        assert_eq!(DataType::Char(10).width(), 10);
        assert_eq!(DataType::Char(1).width(), 1);
    }

    #[test]
    fn primitive_classification() {
        assert!(DataType::Int32.is_primitive());
        assert!(DataType::Int64.is_primitive());
        assert!(DataType::Float64.is_primitive());
        assert!(DataType::Date.is_primitive());
        assert!(!DataType::Char(25).is_primitive());
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int32.is_numeric());
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Date.is_numeric());
        assert!(!DataType::Char(4).is_numeric());
    }

    #[test]
    fn names_round_trip_reasonably() {
        assert_eq!(DataType::Int32.sql_name(), "int");
        assert_eq!(DataType::Char(25).sql_name(), "char(25)");
        assert_eq!(format!("{}", DataType::Date), "date");
    }
}
