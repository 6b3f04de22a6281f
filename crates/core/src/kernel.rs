//! Specialized kernels: the instantiated form of the paper's code templates.
//!
//! At generation time every predicate, projection and arithmetic expression
//! is resolved to concrete byte offsets, primitive types and constants.  At
//! execution time the kernels run over raw NSM records with direct reads —
//! the Rust analogue of the generated C code's
//! `int *value = tuple + predicate_offset; if (*value != constant) continue;`.

use hique_sql::analyze::ColumnFilter;
use hique_sql::ast::CmpOp;
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at, read_str_at};
use hique_types::{DataType, HiqueError, Result, Schema, Value};

/// Order-preserving `u64` image of an integer: unsigned order of the images
/// is signed order of the values.
#[inline(always)]
fn image_i64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Order-preserving `u64` image of a float: unsigned order of the images is
/// the IEEE total order (`f64::total_cmp`) of the values.
#[inline(always)]
fn image_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Order-preserving `u64` image of at most eight string bytes: big-endian,
/// zero-padded — byte by byte, because a variable-length copy would be a
/// `memcpy` call per tuple.
#[inline(always)]
fn image_bytes(bytes: &[u8]) -> u64 {
    let image = bytes.iter().fold(0u64, |v, &b| (v << 8) | b as u64);
    image << (8 * (8 - bytes.len()))
}

/// Evaluate `$body` with `$image` bound to a closure computing
/// [`CompiledKey::order_image`] for `$key` — resolved on the key's type
/// here, once, so a loop inside `$body` is monomorphic in it.
macro_rules! with_order_image {
    ($key:expr, |$image:ident| $body:expr) => {{
        let off = $key.offset;
        match $key.dtype {
            DataType::Int32 | DataType::Date => {
                let $image = move |r: &[u8]| image_i64(read_i32_at(r, off) as i64);
                $body
            }
            DataType::Int64 => {
                let $image = move |r: &[u8]| image_i64(read_i64_at(r, off));
                $body
            }
            DataType::Float64 => {
                let $image = move |r: &[u8]| image_f64(read_f64_at(r, off));
                $body
            }
            // Flags are one byte wide.
            DataType::Char(1) => {
                let $image = move |r: &[u8]| (r[off] as u64) << 56;
                $body
            }
            DataType::Char(_) => {
                let end = off + $key.width.min(8);
                let $image = move |r: &[u8]| image_bytes(&r[off..end]);
                $body
            }
        }
    }};
}

/// The rows of one packed page still in play: every row — not written out
/// until a filter narrows it — or an ascending list of row indexes.
#[derive(Debug, Default)]
pub struct Selection {
    rows: Vec<u32>,
    /// `Some(n)`: all `n` rows of the page; `rows` is stale.
    all: Option<usize>,
}

impl Selection {
    /// An empty selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select every row of an `n`-row page.
    pub fn select_all(&mut self, n: usize) {
        self.all = Some(n);
    }

    /// Select nothing; rows are then [`Selection::push`]ed in ascending
    /// order.
    pub fn clear(&mut self) {
        self.all = None;
        self.rows.clear();
    }

    /// Add `row` (greater than every row selected so far).
    pub fn push(&mut self, row: u32) {
        debug_assert!(self.all.is_none() && self.rows.last().is_none_or(|&r| r < row));
        self.rows.push(row);
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.all.unwrap_or(self.rows.len())
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected row indexes, ascending.
    pub fn rows(&mut self) -> &[u32] {
        if let Some(n) = self.all.take() {
            self.rows.clear();
            self.rows.extend(0..n as u32);
        }
        &self.rows
    }

    /// Keep the selected rows of `data` (records of `ts` bytes) that `pass`,
    /// which sees the page from the row's first byte on.  Branch-free
    /// compaction: every candidate is written back and the cursor advances
    /// by the test's result, so a 50 % selective predicate costs no
    /// mispredictions.
    #[inline(always)]
    fn retain(&mut self, data: &[u8], ts: usize, mut pass: impl FnMut(&[u8]) -> bool) {
        let mut kept = 0;
        match self.all.take() {
            Some(n) => {
                self.rows.clear();
                self.rows.resize(n, 0);
                for (i, rec) in data.chunks_exact(ts).take(n).enumerate() {
                    self.rows[kept] = i as u32;
                    kept += pass(rec) as usize;
                }
            }
            None => {
                for j in 0..self.rows.len() {
                    let i = self.rows[j];
                    self.rows[kept] = i;
                    kept += pass(&data[i as usize * ts..]) as usize;
                }
            }
        }
        self.rows.truncate(kept);
    }
}

/// A predicate specialized to a column's offset, type and constant.
///
/// Every comparison against a constant is an interval test on the column's
/// order-preserving image ([`CompiledKey::order_image`]): `=` is `[v, v]`,
/// `<` is `[0, v − 1]`, `>=` is `[v, MAX]`, `<>` is `[v, v]` inverted.  The
/// operator is therefore resolved when the filter is compiled, and the only
/// thing left to resolve per scan is the column type — which
/// [`CompiledFilter::narrow`] does once per page, outside the row loop.
/// Strings wider than eight bytes have no exact image and compare as slices.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFilter {
    key: CompiledKey,
    test: FilterTest,
}

#[derive(Debug, Clone, PartialEq)]
enum FilterTest {
    /// `lo <= image <= hi`, inverted when `negate`.
    Interval { lo: u64, hi: u64, negate: bool },
    /// Slice comparison with `value` (already padded to the column width).
    Bytes { op: CmpOp, value: Vec<u8> },
}

impl FilterTest {
    fn interval(op: CmpOp, v: u64) -> Self {
        // `lo > hi` is the empty interval (`< MIN`, `> MAX`).
        let (lo, hi) = match op {
            CmpOp::Eq | CmpOp::NotEq => (v, v),
            CmpOp::Lt => v.checked_sub(1).map_or((1, 0), |hi| (0, hi)),
            CmpOp::LtEq => (0, v),
            CmpOp::Gt => v.checked_add(1).map_or((1, 0), |lo| (lo, u64::MAX)),
            CmpOp::GtEq => (v, u64::MAX),
        };
        FilterTest::Interval {
            lo,
            hi,
            negate: op == CmpOp::NotEq,
        }
    }
}

impl CompiledFilter {
    /// Instantiate a filter template for a column of `schema`.
    pub fn compile(filter: &ColumnFilter, schema: &Schema) -> Result<Self> {
        let key = CompiledKey::compile(schema, filter.column);
        Ok(match key.dtype {
            DataType::Int32 | DataType::Date => {
                Self::on_int(key, filter.op, filter.value.as_i64()? as i32 as i64)
            }
            DataType::Int64 => Self::on_int(key, filter.op, filter.value.as_i64()?),
            DataType::Float64 => Self::on_float(key, filter.op, filter.value.as_f64()?),
            DataType::Char(_) => {
                let s = filter.value.as_str().ok_or_else(|| {
                    HiqueError::Codegen("string filter on non-string constant".into())
                })?;
                let mut bytes = s.as_bytes().to_vec();
                bytes.resize(key.width, b' ');
                Self::on_bytes(key, filter.op, bytes)
            }
        })
    }

    /// `key <op> value` for an integer or date key (an `i32` key is compared
    /// after sign extension, so `value` may lie outside its range).
    pub fn on_int(key: CompiledKey, op: CmpOp, value: i64) -> Self {
        CompiledFilter {
            key,
            test: FilterTest::interval(op, image_i64(value)),
        }
    }

    /// `key <op> value` for a float key, under the IEEE total order.
    pub fn on_float(key: CompiledKey, op: CmpOp, value: f64) -> Self {
        CompiledFilter {
            key,
            test: FilterTest::interval(op, image_f64(value)),
        }
    }

    /// `key <op> value` for a string key; `value` is `key.width` bytes.
    pub fn on_bytes(key: CompiledKey, op: CmpOp, value: Vec<u8>) -> Self {
        debug_assert_eq!(value.len(), key.width);
        let test = if key.image_is_exact() {
            FilterTest::interval(op, image_bytes(&value))
        } else {
            FilterTest::Bytes { op, value }
        };
        CompiledFilter { key, test }
    }

    /// Whether `other` is this filter: the same test on the same image of
    /// the same field ([`CompiledKey::same_image`]).  A float constant
    /// compares by its order image, so `-0.0` is not `0.0`.
    pub fn same_test(&self, other: &CompiledFilter) -> bool {
        self.key.same_image(&other.key) && self.test == other.test
    }

    /// Evaluate the predicate against one raw record — the definition the
    /// page sweep is tested against; scans use [`CompiledFilter::narrow`].
    pub fn matches(&self, record: &[u8]) -> bool {
        match &self.test {
            FilterTest::Interval { lo, hi, negate } => {
                let x = self.key.order_image(record);
                ((*lo <= x) & (x <= *hi)) ^ negate
            }
            FilterTest::Bytes { op, value } => {
                let (off, w) = (self.key.offset, self.key.width);
                op.matches(record[off..off + w].cmp(value))
            }
        }
    }

    /// Narrow `sel` to the rows of a packed page (`data`, records of `ts`
    /// bytes) that satisfy the predicate.
    pub fn narrow(&self, data: &[u8], ts: usize, sel: &mut Selection) {
        match &self.test {
            FilterTest::Interval { lo, hi, negate } => {
                let (lo, hi, negate) = (*lo, *hi, *negate);
                with_order_image!(self.key, |image| sel.retain(data, ts, |rec| {
                    let x = image(rec);
                    ((lo <= x) & (x <= hi)) ^ negate
                }))
            }
            FilterTest::Bytes { op, value } => {
                let (off, end) = (self.key.offset, self.key.offset + self.key.width);
                sel.retain(data, ts, |rec| op.matches(rec[off..end].cmp(value)))
            }
        }
    }
}

/// Widest single copy of a projection: wider segments repeat it.
const MAX_PIECE: usize = 64;

/// A staging projection compiled to raw byte copies.
///
/// Adjacent kept columns are coalesced into one segment, and every segment
/// is cut into power-of-two pieces (34 bytes = 32 + 2) so that each copy has
/// a width known at its call site — the paper's `memcpy` of constant size —
/// whatever widths a schema produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProjection {
    /// `(src_offset, dst_offset, width)`, widths powers of two up to
    /// [`MAX_PIECE`].
    pieces: Vec<(usize, usize, usize)>,
    output_width: usize,
}

impl CompiledProjection {
    /// Compile the projection keeping `keep` (base-schema column indexes).
    pub fn compile(base: &Schema, keep: &[usize]) -> Self {
        let mut dst = 0usize;
        Self::from_copies(keep.iter().map(|&c| {
            let w = base.column(c).dtype.width();
            dst += w;
            (base.offset(c), w, dst - w)
        }))
    }

    /// Compile a list of `(src_offset, width, dst_offset)` copies that tile
    /// the projected record.
    pub fn from_copies(copies: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let mut segments: Vec<(usize, usize, usize)> = Vec::new();
        for (src, w, dst) in copies {
            match segments.last_mut() {
                Some((s, sw, d)) if *s + *sw == src && *d + *sw == dst => *sw += w,
                _ => segments.push((src, w, dst)),
            }
        }
        let mut pieces = Vec::new();
        let mut output_width = 0;
        for (mut src, mut w, mut dst) in segments {
            output_width = output_width.max(dst + w);
            while w > 0 {
                let piece = MAX_PIECE.min(1 << w.ilog2());
                pieces.push((src, dst, piece));
                (src, dst, w) = (src + piece, dst + piece, w - piece);
            }
        }
        CompiledProjection {
            pieces,
            output_width,
        }
    }

    /// Width of a projected record.
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Project rows `rows` of a packed page (`data`, records of `ts` bytes)
    /// onto the tail of `out`, one sweep over the rows per piece.
    pub fn append(&self, data: &[u8], ts: usize, rows: &[u32], out: &mut Vec<u8>) {
        let width = self.output_width;
        if width == 0 {
            return;
        }
        let base = out.len();
        out.resize(base + rows.len() * width, 0);
        let tail = &mut out[base..];
        for &(src, dst, piece) in &self.pieces {
            match piece {
                1 => copy_piece::<1>(data, ts, src, rows, tail, width, dst),
                2 => copy_piece::<2>(data, ts, src, rows, tail, width, dst),
                4 => copy_piece::<4>(data, ts, src, rows, tail, width, dst),
                8 => copy_piece::<8>(data, ts, src, rows, tail, width, dst),
                16 => copy_piece::<16>(data, ts, src, rows, tail, width, dst),
                32 => copy_piece::<32>(data, ts, src, rows, tail, width, dst),
                _ => copy_piece::<MAX_PIECE>(data, ts, src, rows, tail, width, dst),
            }
        }
    }
}

/// Copy the `W` bytes at `src` of every selected row to `dst` of its output
/// record.
#[inline(always)]
fn copy_piece<const W: usize>(
    data: &[u8],
    ts: usize,
    src: usize,
    rows: &[u32],
    tail: &mut [u8],
    width: usize,
    dst: usize,
) {
    for (out, &i) in tail.chunks_exact_mut(width).zip(rows) {
        let at = i as usize * ts + src;
        out[dst..dst + W].copy_from_slice(&data[at..at + W]);
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
    /// Key accessor for a `dtype` field at byte `offset` of a record.
    pub fn at(offset: usize, dtype: DataType) -> Self {
        let width = dtype.width();
        CompiledKey {
            offset,
            width,
            dtype,
        }
    }

    /// Key accessor for column `column` of `schema`.
    pub fn compile(schema: &Schema, column: usize) -> Self {
        Self::at(schema.offset(column), schema.column(column).dtype)
    }

    /// Whether `other` reads the same field into the same image: offset,
    /// width and image kind agree.  `Int32` and `Date` share one image; a
    /// key's decode type is otherwise part of its image.
    pub fn same_image(&self, other: &CompiledKey) -> bool {
        let kind = |dtype| match dtype {
            DataType::Date => DataType::Int32,
            other => other,
        };
        self.offset == other.offset
            && self.width == other.width
            && kind(self.dtype) == kind(other.dtype)
    }

    /// Append [`CompiledKey::order_image`] of every record of a packed
    /// buffer to `out`, the key's type resolved once for the whole sweep.
    pub fn images_into(&self, buf: &[u8], ts: usize, out: &mut Vec<u64>) {
        with_order_image!(self, |image| out.extend(buf.chunks_exact(ts).map(image)))
    }

    /// Set `changed[i]` for every record `i > 0` of a packed buffer that
    /// differs in the key field from record `i - 1`: exactly where
    /// [`CompiledKey::compare`] is not `Equal`, which for every key type is
    /// byte inequality of the field.
    pub(crate) fn mark_changes(&self, buf: &[u8], ts: usize, changed: &mut [bool]) {
        let (off, end) = (self.offset, self.offset + self.width);
        let records = buf.chunks_exact(ts);
        let pairs = changed
            .iter_mut()
            .skip(1)
            .zip(records.clone().zip(records.skip(1)));
        match self.width {
            4 => {
                for (c, (a, b)) in pairs {
                    *c |= read_i32_at(a, off) != read_i32_at(b, off);
                }
            }
            8 => {
                for (c, (a, b)) in pairs {
                    *c |= read_i64_at(a, off) != read_i64_at(b, off);
                }
            }
            // A slice comparison is worth skipping where an earlier
            // attribute already split the rows.
            _ => {
                for (c, (a, b)) in pairs {
                    *c = *c || a[off..end] != b[off..end];
                }
            }
        }
    }

    /// Order-preserving `u64` image of the key — the one image every
    /// kernel orders, hashes, partitions and indexes by: unsigned order of
    /// the images never contradicts [`CompiledKey::compare`], and equals it
    /// when [`CompiledKey::image_is_exact`].  Equal images are equal keys
    /// only then.
    #[inline(always)]
    pub fn order_image(&self, record: &[u8]) -> u64 {
        with_order_image!(self, |image| image(record))
    }

    /// `(order image, row index)` of every record of a packed buffer, the
    /// key's type resolved once for the whole sweep.
    pub(crate) fn image_pairs(&self, buf: &[u8], ts: usize) -> Vec<(u64, u32)> {
        with_order_image!(self, |image| buf
            .chunks_exact(ts)
            .zip(0u32..)
            .map(|(rec, i)| (image(rec), i))
            .collect())
    }

    /// Whether [`CompiledKey::order_image`] is the whole key
    /// ([`DataType::has_exact_key_image`]): false only for strings wider
    /// than eight bytes, whose image is a prefix and whose ties must fall
    /// back to the key bytes.
    pub fn image_is_exact(&self) -> bool {
        self.dtype.has_exact_key_image()
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

    /// Compare this key of `a` with `other`'s key of `b`, where the two
    /// records may have different layouts (the two sides of a join): by
    /// order image, with a tie broken on the key bytes when either image
    /// is not the whole key.
    #[inline(always)]
    pub fn compare_across(&self, a: &[u8], other: &CompiledKey, b: &[u8]) -> std::cmp::Ordering {
        let ord = self.order_image(a).cmp(&other.order_image(b));
        if ord.is_ne() || (self.image_is_exact() && other.image_is_exact()) {
            return ord;
        }
        let (x, y) = (self.offset, other.offset);
        a[x..x + self.width].cmp(&b[y..y + other.width])
    }

    /// Multiplicative hash of the key (for coarse partitioning): equal keys
    /// hash equally.
    #[inline(always)]
    pub fn hash(&self, record: &[u8]) -> u64 {
        // Fibonacci hashing over the order image of the key.
        self.order_image(record).wrapping_mul(0x9E3779B97F4A7C15)
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
        let page = [record(7, 1.5, "xyz", 3, 9), record(8, 2.5, "abc", 4, 10)].concat();
        let proj = CompiledProjection::compile(&s, &[3, 0]);
        assert_eq!(proj.output_width(), 8);
        let mut out = vec![0xAA];
        proj.append(&page, s.tuple_size(), &[1], &mut out);
        assert_eq!(out.len(), 9, "appended to the tail");
        assert_eq!(read_i32_at(&out, 1), 4);
        assert_eq!(read_i32_at(&out, 5), 8);
    }

    #[test]
    fn projection_coalesces_adjacent_columns_into_power_of_two_pieces() {
        let s = schema();
        // f, s, d are adjacent: one 18-byte segment, copied as 16 + 2.
        let proj = CompiledProjection::compile(&s, &[1, 2, 3]);
        assert_eq!(proj.pieces, vec![(4, 0, 16), (20, 16, 2)]);
        // Reordered columns do not coalesce.
        let proj = CompiledProjection::compile(&s, &[3, 1]);
        assert_eq!(proj.pieces, vec![(18, 0, 4), (4, 4, 8)]);
        // Segments wider than the widest piece repeat it.
        let proj = CompiledProjection::from_copies([(0, 150, 0)]);
        assert_eq!(proj.output_width(), 150);
        assert_eq!(
            proj.pieces.iter().map(|p| p.2).collect::<Vec<_>>(),
            vec![64, 64, 16, 4, 2]
        );
    }

    #[test]
    fn narrow_agrees_with_matches_for_every_operator() {
        let s = schema();
        let ts = s.tuple_size();
        let recs: Vec<Vec<u8>> = (0..40)
            .map(|i| {
                record(
                    i % 5 - 2,
                    (i % 7) as f64 - 3.0,
                    ["a", "b", "\u{e9}"][i as usize % 3],
                    i,
                    -(i as i64),
                )
            })
            .collect();
        let page = recs.concat();
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            for (column, value) in [
                (0, Value::Int32(0)),
                (1, Value::Float64(-0.0)),
                (2, Value::Str("b".into())),
                (3, Value::Date(i32::MAX)),
                (4, Value::Int64(i64::MIN)),
            ] {
                let filter = CompiledFilter::compile(
                    &ColumnFilter {
                        table: 0,
                        column,
                        op,
                        value,
                    },
                    &s,
                )
                .unwrap();
                let expected: Vec<u32> = (0..recs.len() as u32)
                    .filter(|&i| filter.matches(&recs[i as usize]))
                    .collect();
                // From the whole page, and from an explicit selection.
                let mut sel = Selection::new();
                sel.select_all(recs.len());
                filter.narrow(&page, ts, &mut sel);
                assert_eq!(sel.rows(), expected, "{op:?} on column {column}");
                sel.clear();
                (0..recs.len() as u32).step_by(2).for_each(|i| sel.push(i));
                filter.narrow(&page, ts, &mut sel);
                let even: Vec<u32> = expected.iter().copied().filter(|i| i % 2 == 0).collect();
                assert_eq!(sel.rows(), even, "{op:?} on column {column}, even rows");
            }
        }
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
        assert!(kd.compare(&a, &b).is_eq());
        assert_eq!(ki.order_image(&a), 1 ^ (1 << 63));
        assert_eq!(kd.order_image(&b), 10 ^ (1 << 63));
        assert_ne!(ki.hash(&a), ki.hash(&b));
        assert_eq!(kd.hash(&a), kd.hash(&b));
        assert_eq!(ki.value(&a), Value::Int32(1));
        assert_eq!(ks.value(&b), Value::Str("ab".into()));
        assert_eq!(kd.value(&a), Value::Date(10));
        // Float ordering through the image is consistent with compare.
        assert!(kf.order_image(&b) < kf.order_image(&a));
        // Multi-key comparison falls through equal prefixes.
        assert_eq!(compare_keys(&[kd, ki], &a, &b), std::cmp::Ordering::Less);
        assert_eq!(compare_keys(&[kd], &a, &b), std::cmp::Ordering::Equal);
    }

    /// Every key type — integers at their extremes, dates, floats with
    /// signed zeros, infinities and NaN, and `Char(1)`, `Char(8)` and
    /// `Char(12)` strings sharing prefixes and holding bytes ≥ 0x80 — against
    /// every other: the image order never contradicts `compare` and equals
    /// it when the image is exact, equal keys hash equally, the cross-record
    /// comparator is `compare`, and the page sweep is the record image.
    #[test]
    fn key_images_order_hash_and_compare_like_the_keys() {
        let s = Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("l", DataType::Int64),
            Column::new("f", DataType::Float64),
            Column::new("d", DataType::Date),
            Column::new("c1", DataType::Char(1)),
            Column::new("c8", DataType::Char(8)),
            Column::new("c12", DataType::Char(12)),
        ]);
        let ints = [i32::MIN, -7, -1, 0, 1, 7, i32::MAX];
        let longs = [i64::MIN, -(1 << 40), -1, 0, 1, 1 << 40, i64::MAX];
        let floats = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let tail = [b' ', b'a', b'z', 0x80, 0xff];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let records: Vec<Vec<u8>> = (0..200)
            .map(|_| {
                let mut rec = encode_record(
                    &s,
                    &[
                        Value::Int32(ints[next(ints.len())]),
                        Value::Int64(longs[next(longs.len())]),
                        Value::Float64(floats[next(floats.len())]),
                        Value::Date(ints[next(ints.len())]),
                        Value::Str(String::new()),
                        Value::Str(String::new()),
                        Value::Str(String::new()),
                    ],
                )
                .unwrap();
                // "Manufacturer" cut to the column, one byte (or none)
                // replaced: twelve-byte keys often differ only past their
                // eight-byte image.
                for c in 4..7 {
                    let (off, w) = (s.offset(c), s.column(c).dtype.width());
                    rec[off..off + w].copy_from_slice(&b"Manufacturer"[..w]);
                    if next(4) > 0 {
                        rec[off + next(w)] = tail[next(tail.len())];
                    }
                }
                rec
            })
            .collect();
        let page = records.concat();
        for column in 0..s.len() {
            let key = CompiledKey::compile(&s, column);
            assert_eq!(key.image_is_exact(), column != 6, "column {column}");
            let mut lane = Vec::new();
            key.images_into(&page, s.tuple_size(), &mut lane);
            for (a, &image) in records.iter().zip(&lane) {
                assert_eq!(image, key.order_image(a), "column {column}: sweep");
                for b in &records {
                    let (by_key, by_image) = (
                        key.compare(a, b),
                        key.order_image(a).cmp(&key.order_image(b)),
                    );
                    if key.image_is_exact() {
                        assert_eq!(by_image, by_key, "column {column}: exact image");
                    } else {
                        assert!(by_image.is_eq() || by_image == by_key, "column {column}");
                    }
                    if by_key.is_eq() {
                        assert_eq!(key.hash(a), key.hash(b), "column {column}: hash");
                    }
                    assert_eq!(key.compare_across(a, &key, b), by_key, "column {column}");
                }
            }
        }
    }
}
