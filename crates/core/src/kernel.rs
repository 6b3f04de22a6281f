//! Specialized kernels: the instantiated form of the paper's code templates.
//!
//! At generation time every predicate, projection and arithmetic expression
//! is resolved to concrete byte offsets, primitive types and constants.  At
//! execution time the kernels run over raw NSM records with direct reads —
//! the Rust analogue of the generated C code's
//! `int *value = tuple + predicate_offset; if (*value != constant) continue;`.

use hique_sql::analyze::{ColumnFilter, ScalarExpr};
use hique_sql::ast::{BinOp, CmpOp};
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at, read_str_at};
use hique_types::{DataType, HiqueError, Result, Schema, Value};

/// A predicate specialized to a column's offset, type and constant.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledFilter {
    /// Compare the `i32` at `offset` with `value`.
    I32 {
        /// Byte offset of the column.
        offset: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: i32,
    },
    /// Compare the `i64` at `offset` with `value`.
    I64 {
        /// Byte offset of the column.
        offset: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: i64,
    },
    /// Compare the `f64` at `offset` with `value`.
    F64 {
        /// Byte offset of the column.
        offset: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: f64,
    },
    /// Compare the fixed-width string at `offset` with `value`
    /// (space-padded to the column width at compile time).
    Str {
        /// Byte offset of the column.
        offset: usize,
        /// Column width in bytes.
        width: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand, already padded to `width`.
        value: Vec<u8>,
    },
}

impl CompiledFilter {
    /// Instantiate a filter template for a column of `schema`.
    pub fn compile(filter: &ColumnFilter, schema: &Schema) -> Result<Self> {
        let col = schema.column(filter.column);
        let offset = schema.offset(filter.column);
        Ok(match col.dtype {
            DataType::Int32 | DataType::Date => CompiledFilter::I32 {
                offset,
                op: filter.op,
                value: filter.value.as_i64()? as i32,
            },
            DataType::Int64 => CompiledFilter::I64 {
                offset,
                op: filter.op,
                value: filter.value.as_i64()?,
            },
            DataType::Float64 => CompiledFilter::F64 {
                offset,
                op: filter.op,
                value: filter.value.as_f64()?,
            },
            DataType::Char(w) => {
                let s = filter.value.as_str().ok_or_else(|| {
                    HiqueError::Codegen("string filter on non-string constant".into())
                })?;
                let mut bytes = s.as_bytes().to_vec();
                bytes.resize(w as usize, b' ');
                CompiledFilter::Str {
                    offset,
                    width: w as usize,
                    op: filter.op,
                    value: bytes,
                }
            }
        })
    }

    /// Evaluate the predicate against a raw record.
    #[inline(always)]
    pub fn matches(&self, record: &[u8]) -> bool {
        match self {
            CompiledFilter::I32 { offset, op, value } => {
                op.matches(read_i32_at(record, *offset).cmp(value))
            }
            CompiledFilter::I64 { offset, op, value } => {
                op.matches(read_i64_at(record, *offset).cmp(value))
            }
            CompiledFilter::F64 { offset, op, value } => {
                op.matches(read_f64_at(record, *offset).total_cmp(value))
            }
            CompiledFilter::Str {
                offset,
                width,
                op,
                value,
            } => op.matches(record[*offset..*offset + *width].cmp(value)),
        }
    }
}

/// A staging projection compiled to raw byte copies: `(src_offset, width,
/// dst_offset)` per kept column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProjection {
    segments: Vec<(usize, usize, usize)>,
    output_width: usize,
}

impl CompiledProjection {
    /// Compile the projection keeping `keep` (base-schema column indexes).
    pub fn compile(base: &Schema, keep: &[usize]) -> Self {
        let mut segments = Vec::with_capacity(keep.len());
        let mut dst = 0usize;
        for &c in keep {
            let w = base.column(c).dtype.width();
            segments.push((base.offset(c), w, dst));
            dst += w;
        }
        CompiledProjection {
            segments,
            output_width: dst,
        }
    }

    /// Width of a projected record.
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Copy the kept columns of `src` into `dst` (which must be
    /// `output_width` bytes).
    #[inline(always)]
    pub fn project_into(&self, src: &[u8], dst: &mut [u8]) {
        for &(so, w, d) in &self.segments {
            dst[d..d + w].copy_from_slice(&src[so..so + w]);
        }
    }
}

/// An arithmetic expression compiled to record offsets (all numeric
/// expressions evaluate as `f64`, which covers the paper's aggregate
/// workloads).
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// `i32`/date column at a fixed offset.
    ColI32(usize),
    /// `i64` column at a fixed offset.
    ColI64(usize),
    /// `f64` column at a fixed offset.
    ColF64(usize),
    /// Constant.
    Const(f64),
    /// Binary arithmetic node.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
}

impl CompiledExpr {
    /// Instantiate an expression template over `schema`.
    pub fn compile(expr: &ScalarExpr, schema: &Schema) -> Result<Self> {
        Ok(match expr {
            ScalarExpr::Column { index, dtype } => {
                let off = schema.offset(*index);
                match dtype {
                    DataType::Int32 | DataType::Date => CompiledExpr::ColI32(off),
                    DataType::Int64 => CompiledExpr::ColI64(off),
                    DataType::Float64 => CompiledExpr::ColF64(off),
                    DataType::Char(_) => {
                        return Err(HiqueError::Codegen(
                            "string column in arithmetic expression".into(),
                        ))
                    }
                }
            }
            ScalarExpr::Literal(v) => CompiledExpr::Const(v.as_f64()?),
            ScalarExpr::Binary {
                op, left, right, ..
            } => CompiledExpr::Bin {
                op: *op,
                left: Box::new(Self::compile(left, schema)?),
                right: Box::new(Self::compile(right, schema)?),
            },
        })
    }

    /// Evaluate over a raw record.
    #[inline]
    pub fn eval(&self, record: &[u8]) -> f64 {
        match self {
            CompiledExpr::ColI32(off) => read_i32_at(record, *off) as f64,
            CompiledExpr::ColI64(off) => read_i64_at(record, *off) as f64,
            CompiledExpr::ColF64(off) => read_f64_at(record, *off),
            CompiledExpr::Const(c) => *c,
            CompiledExpr::Bin { op, left, right } => {
                apply(*op, left.eval(record), right.eval(record))
            }
        }
    }
}

/// `l <op> r` in `f64` — the one arithmetic every compiled expression
/// form (output trees, the aggregate program) evaluates with.
#[inline(always)]
pub(crate) fn apply(op: BinOp, l: f64, r: f64) -> f64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
    }
}

/// A single-column key accessor specialized on type and offset, used by the
/// sort, partition and join kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledKey {
    /// Byte offset of the key column.
    pub offset: usize,
    /// Width of the key column.
    pub width: usize,
    /// The key's data type.
    pub dtype: DataType,
}

impl CompiledKey {
    /// Key accessor for column `column` of `schema`.
    pub fn compile(schema: &Schema, column: usize) -> Self {
        CompiledKey {
            offset: schema.offset(column),
            width: schema.column(column).dtype.width(),
            dtype: schema.column(column).dtype,
        }
    }

    /// Key as `i64` (integers and dates; float keys are ordered by their
    /// IEEE total order, strings by their first 8 bytes — sufficient for
    /// partitioning and exact for the workloads' integer join keys).
    #[inline(always)]
    pub fn as_i64(&self, record: &[u8]) -> i64 {
        match self.dtype {
            DataType::Int32 | DataType::Date => read_i32_at(record, self.offset) as i64,
            DataType::Int64 => read_i64_at(record, self.offset) as i64,
            DataType::Float64 => {
                // Order-preserving mapping of f64 to i64.
                let bits = read_f64_at(record, self.offset).to_bits() as i64;
                bits ^ (((bits >> 63) as u64) >> 1) as i64
            }
            DataType::Char(_) => {
                // First `min(width, 8)` bytes, big-endian, zero-padded — byte
                // by byte: a variable-length copy would be a `memcpy` call
                // per key per tuple.
                let bytes = &record[self.offset..self.offset + self.width.min(8)];
                let image = bytes.iter().fold(0u64, |v, &b| (v << 8) | b as u64);
                (image << (8 * (8 - bytes.len()))) as i64
            }
        }
    }

    /// Compare the key field of two records.
    #[inline(always)]
    pub fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        match self.dtype {
            DataType::Int32 | DataType::Date => {
                read_i32_at(a, self.offset).cmp(&read_i32_at(b, self.offset))
            }
            DataType::Int64 => read_i64_at(a, self.offset).cmp(&read_i64_at(b, self.offset)),
            DataType::Float64 => {
                read_f64_at(a, self.offset).total_cmp(&read_f64_at(b, self.offset))
            }
            DataType::Char(_) => a[self.offset..self.offset + self.width]
                .cmp(&b[self.offset..self.offset + self.width]),
        }
    }

    /// Whether the key fields of two records are equal.
    #[inline(always)]
    pub fn equals(&self, a: &[u8], b: &[u8]) -> bool {
        self.compare(a, b) == std::cmp::Ordering::Equal
    }

    /// Multiplicative hash of the key (for coarse partitioning).
    #[inline(always)]
    pub fn hash(&self, record: &[u8]) -> u64 {
        // Fibonacci hashing over the integer image of the key.
        (self.as_i64(record) as u64).wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// Decode the key field into a boxed [`Value`] (used only when building
    /// result rows and value directories, never in the per-tuple hot loops).
    pub fn value(&self, record: &[u8]) -> Value {
        match self.dtype {
            DataType::Int32 => Value::Int32(read_i32_at(record, self.offset)),
            DataType::Date => Value::Date(read_i32_at(record, self.offset)),
            DataType::Int64 => Value::Int64(read_i64_at(record, self.offset)),
            DataType::Float64 => Value::Float64(read_f64_at(record, self.offset)),
            DataType::Char(_) => {
                Value::Str(read_str_at(record, self.offset, self.width).to_string())
            }
        }
    }
}

/// Compare two records on a sequence of keys (multi-column sort orders).
#[inline]
pub fn compare_keys(keys: &[CompiledKey], a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    for k in keys {
        let ord = k.compare(a, b);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::tuple::encode_record;
    use hique_types::{Column, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("f", DataType::Float64),
            Column::new("s", DataType::Char(6)),
            Column::new("d", DataType::Date),
            Column::new("l", DataType::Int64),
        ])
    }

    fn record(i: i32, f: f64, s: &str, d: i32, l: i64) -> Vec<u8> {
        encode_record(
            &schema(),
            &[
                Value::Int32(i),
                Value::Float64(f),
                Value::Str(s.into()),
                Value::Date(d),
                Value::Int64(l),
            ],
        )
        .unwrap()
    }

    #[test]
    fn compiled_filters_match_all_types() {
        let s = schema();
        let rec = record(5, 2.5, "abc", 100, 1 << 40);
        let f = |col: usize, op: CmpOp, value: Value| {
            CompiledFilter::compile(
                &ColumnFilter {
                    table: 0,
                    column: col,
                    op,
                    value,
                },
                &s,
            )
            .unwrap()
        };
        assert!(f(0, CmpOp::Eq, Value::Int32(5)).matches(&rec));
        assert!(!f(0, CmpOp::NotEq, Value::Int32(5)).matches(&rec));
        assert!(f(1, CmpOp::Lt, Value::Float64(3.0)).matches(&rec));
        assert!(f(2, CmpOp::Eq, Value::Str("abc".into())).matches(&rec));
        assert!(!f(2, CmpOp::Eq, Value::Str("abd".into())).matches(&rec));
        assert!(f(2, CmpOp::Lt, Value::Str("abd".into())).matches(&rec));
        assert!(f(3, CmpOp::GtEq, Value::Date(100)).matches(&rec));
        assert!(f(4, CmpOp::Gt, Value::Int64(0)).matches(&rec));
        // String filter against a non-string constant is a codegen error.
        assert!(CompiledFilter::compile(
            &ColumnFilter {
                table: 0,
                column: 2,
                op: CmpOp::Eq,
                value: Value::Int32(1)
            },
            &s
        )
        .is_err());
    }

    #[test]
    fn projection_copies_selected_bytes() {
        let s = schema();
        let rec = record(7, 1.5, "xyz", 3, 9);
        let proj = CompiledProjection::compile(&s, &[3, 0]);
        assert_eq!(proj.output_width(), 8);
        let mut out = vec![0u8; proj.output_width()];
        proj.project_into(&rec, &mut out);
        assert_eq!(read_i32_at(&out, 0), 3);
        assert_eq!(read_i32_at(&out, 4), 7);
    }

    #[test]
    fn compiled_expr_matches_interpreted() {
        let s = schema();
        let rec = record(4, 0.25, "zz", 0, 8);
        // f * (1 - i) + l
        let expr = ScalarExpr::Binary {
            op: BinOp::Add,
            left: Box::new(ScalarExpr::Binary {
                op: BinOp::Mul,
                left: Box::new(ScalarExpr::Column {
                    index: 1,
                    dtype: DataType::Float64,
                }),
                right: Box::new(ScalarExpr::Binary {
                    op: BinOp::Sub,
                    left: Box::new(ScalarExpr::Literal(Value::Int32(1))),
                    right: Box::new(ScalarExpr::Column {
                        index: 0,
                        dtype: DataType::Int32,
                    }),
                    dtype: DataType::Float64,
                }),
                dtype: DataType::Float64,
            }),
            right: Box::new(ScalarExpr::Column {
                index: 4,
                dtype: DataType::Int64,
            }),
            dtype: DataType::Float64,
        };
        let compiled = CompiledExpr::compile(&expr, &s).unwrap();
        let expected = expr.eval_f64_record(&rec, &s);
        assert!((compiled.eval(&rec) - expected).abs() < 1e-12);
        assert!((compiled.eval(&rec) - (0.25 * (1.0 - 4.0) + 8.0)).abs() < 1e-12);
        // Division and string rejection.
        let div = ScalarExpr::Binary {
            op: BinOp::Div,
            left: Box::new(ScalarExpr::Column {
                index: 4,
                dtype: DataType::Int64,
            }),
            right: Box::new(ScalarExpr::Literal(Value::Int32(2))),
            dtype: DataType::Float64,
        };
        assert_eq!(CompiledExpr::compile(&div, &s).unwrap().eval(&rec), 4.0);
        let bad = ScalarExpr::Column {
            index: 2,
            dtype: DataType::Char(6),
        };
        assert!(CompiledExpr::compile(&bad, &s).is_err());
    }

    #[test]
    fn key_accessors_order_and_hash() {
        let s = schema();
        let a = record(1, 1.0, "aa", 10, 5);
        let b = record(2, -3.5, "ab", 10, 5);
        let ki = CompiledKey::compile(&s, 0);
        let kf = CompiledKey::compile(&s, 1);
        let ks = CompiledKey::compile(&s, 2);
        let kd = CompiledKey::compile(&s, 3);
        assert_eq!(ki.compare(&a, &b), std::cmp::Ordering::Less);
        assert_eq!(kf.compare(&a, &b), std::cmp::Ordering::Greater);
        assert_eq!(ks.compare(&a, &b), std::cmp::Ordering::Less);
        assert!(kd.equals(&a, &b));
        assert_eq!(ki.as_i64(&a), 1);
        assert_eq!(kd.as_i64(&b), 10);
        assert_ne!(ki.hash(&a), ki.hash(&b));
        assert_eq!(kd.hash(&a), kd.hash(&b));
        assert_eq!(ki.value(&a), Value::Int32(1));
        assert_eq!(ks.value(&b), Value::Str("ab".into()));
        assert_eq!(kd.value(&a), Value::Date(10));
        // Float ordering through the i64 image is consistent with compare.
        assert!(kf.as_i64(&b) < kf.as_i64(&a));
        // Multi-key comparison falls through equal prefixes.
        assert_eq!(compare_keys(&[kd, ki], &a, &b), std::cmp::Ordering::Less);
        assert_eq!(compare_keys(&[kd], &a, &b), std::cmp::Ordering::Equal);
    }
}
