//! Result-set canonicalization and tolerant comparison.
//!
//! Engines are free to produce rows in any order not pinned down by the
//! query's ORDER BY, and floating-point aggregates may differ in the last
//! bits depending on accumulation order. Canonicalization makes results
//! directly comparable: rows are sorted by [`Value::total_cmp`] across all
//! columns (left to right), and [`compare`] applies the same relative float
//! tolerance the integration tests use. [`CanonicalResult::to_text`] renders
//! a byte-stable form (floats at fixed precision, dates in ISO format) for
//! golden-file pinning.

use std::cmp::Ordering;
use std::fmt;

use hique_types::value::format_date;
use hique_types::{QueryResult, Value};

/// Relative float tolerance: `|a - b| <= EPS * (1 + |a|)`.
pub const FLOAT_RELATIVE_EPS: f64 = 1e-6;

/// A result set reduced to its comparable essence: column names and rows in
/// a canonical total order.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

fn cmp_value_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (va, vb) in a.iter().zip(b) {
        let ord = va.total_cmp(vb);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Canonicalize a query result: clone the rows and sort them by every
/// column, major column first.
pub fn canonicalize(result: &QueryResult) -> CanonicalResult {
    let mut rows: Vec<Vec<Value>> = result
        .rows
        .iter()
        .map(|row| row.values().to_vec())
        .collect();
    rows.sort_by(|a, b| cmp_value_rows(a, b));
    CanonicalResult {
        columns: result
            .schema
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect(),
        rows,
    }
}

fn format_value(value: &Value) -> String {
    match value {
        // Fixed precision keeps the text byte-stable across engines whose
        // float aggregates differ only by accumulation order.
        Value::Float64(f) => {
            let f = if *f == 0.0 { 0.0 } else { *f };
            format!("{f:.4}")
        }
        Value::Date(d) => format_date(*d),
        other => other.to_string(),
    }
}

impl CanonicalResult {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Byte-stable text rendering: `col|col` header plus one `value|value`
    /// line per canonical row, newline-terminated.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join("|"));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(format_value).collect();
            out.push_str(&line.join("|"));
            out.push('\n');
        }
        out
    }
}

/// A description of the first difference found between two canonical results.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Row index in the canonical order, if the difference is inside a row.
    pub row: Option<usize>,
    /// Column index, if the difference is inside a row.
    pub column: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.row, self.column) {
            (Some(r), Some(c)) => write!(f, "row {r}, column {c}: {}", self.detail),
            (Some(r), None) => write!(f, "row {r}: {}", self.detail),
            _ => f.write_str(&self.detail),
        }
    }
}

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Float accumulation order is the one difference engines may have.
        (Value::Float64(fa), Value::Float64(fb)) => {
            (fa - fb).abs() <= FLOAT_RELATIVE_EPS * (1.0 + fa.abs())
        }
        // Everything else is the same type and the same value: an integer
        // of another width, or a date as its day number, is a typing bug.
        _ => a.data_type() == b.data_type() && a == b,
    }
}

/// Compare two canonical results, tolerating relative float error of
/// [`FLOAT_RELATIVE_EPS`]. Returns the first difference found.
pub fn compare(a: &CanonicalResult, b: &CanonicalResult) -> Result<(), Mismatch> {
    if a.columns.len() != b.columns.len() {
        return Err(Mismatch {
            row: None,
            column: None,
            detail: format!("arity {} vs {}", a.columns.len(), b.columns.len()),
        });
    }
    if a.rows.len() != b.rows.len() {
        return Err(Mismatch {
            row: None,
            column: None,
            detail: format!("row count {} vs {}", a.rows.len(), b.rows.len()),
        });
    }
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        if ra.len() != rb.len() {
            return Err(Mismatch {
                row: Some(i),
                column: None,
                detail: format!("row arity {} vs {}", ra.len(), rb.len()),
            });
        }
        for (j, (va, vb)) in ra.iter().zip(rb).enumerate() {
            if !values_match(va, vb) {
                return Err(Mismatch {
                    row: Some(i),
                    column: Some(j),
                    detail: format!("{va:?} vs {vb:?}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Row, Schema};

    fn result(rows: Vec<Vec<Value>>) -> QueryResult {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
        ]);
        QueryResult::new(schema, rows.into_iter().map(Row::new).collect())
    }

    #[test]
    fn canonical_order_is_input_order_independent() {
        let a = result(vec![
            vec![Value::Int32(2), Value::Float64(1.0)],
            vec![Value::Int32(1), Value::Float64(9.0)],
        ]);
        let b = result(vec![
            vec![Value::Int32(1), Value::Float64(9.0)],
            vec![Value::Int32(2), Value::Float64(1.0)],
        ]);
        let ca = canonicalize(&a);
        let cb = canonicalize(&b);
        assert_eq!(ca.to_text(), cb.to_text());
        assert!(compare(&ca, &cb).is_ok());
        assert_eq!(ca.rows[0][0], Value::Int32(1));
    }

    #[test]
    fn float_tolerance_absorbs_accumulation_error() {
        let a = canonicalize(&result(vec![vec![Value::Int32(1), Value::Float64(1e9)]]));
        let b = canonicalize(&result(vec![vec![
            Value::Int32(1),
            Value::Float64(1e9 + 100.0),
        ]]));
        assert!(compare(&a, &b).is_ok(), "within 1e-6 relative");
        let c = canonicalize(&result(vec![vec![
            Value::Int32(1),
            Value::Float64(1e9 + 1e5),
        ]]));
        assert!(compare(&a, &c).is_err(), "beyond 1e-6 relative");
    }

    #[test]
    fn int_widths_are_a_mismatch() {
        assert!(values_match(&Value::Int64(5), &Value::Int64(5)));
        assert!(!values_match(&Value::Int32(5), &Value::Int64(5)));
        assert!(!values_match(&Value::Int64(5), &Value::Int32(5)));
        assert!(!values_match(&Value::Int64(5), &Value::Float64(5.0)));
        assert!(!values_match(&Value::Str("5".into()), &Value::Int64(5)));
    }

    #[test]
    fn int64_neighbours_beyond_2_pow_53_are_a_mismatch() {
        let big = 1i64 << 53;
        assert!(!values_match(&Value::Int64(big), &Value::Int64(big + 1)));
        let a = canonicalize(&result(vec![vec![Value::Int64(big), Value::Float64(1.0)]]));
        let b = canonicalize(&result(vec![vec![
            Value::Int64(big + 1),
            Value::Float64(1.0),
        ]]));
        assert!(compare(&a, &b).is_err());
    }

    #[test]
    fn a_date_never_matches_its_day_number_as_a_float() {
        assert!(values_match(&Value::Date(8041), &Value::Date(8041)));
        assert!(!values_match(&Value::Date(8041), &Value::Float64(8041.0)));
        assert!(!values_match(&Value::Float64(8041.0), &Value::Date(8041)));
    }

    #[test]
    fn mismatches_locate_the_difference() {
        let a = canonicalize(&result(vec![vec![Value::Int32(1), Value::Float64(1.0)]]));
        let b = canonicalize(&result(vec![vec![Value::Int32(1), Value::Float64(2.0)]]));
        let err = compare(&a, &b).unwrap_err();
        assert_eq!((err.row, err.column), (Some(0), Some(1)));
        let short = canonicalize(&result(vec![]));
        let err = compare(&a, &short).unwrap_err();
        assert!(err.to_string().contains("row count"));
    }

    #[test]
    fn text_form_is_byte_stable() {
        let r = result(vec![vec![Value::Int32(1), Value::Float64(2.5)]]);
        assert_eq!(canonicalize(&r).to_text(), "k|v\n1|2.5000\n");
        let neg_zero = result(vec![vec![Value::Int32(1), Value::Float64(-0.0)]]);
        assert_eq!(canonicalize(&neg_zero).to_text(), "k|v\n1|0.0000\n");
    }
}
