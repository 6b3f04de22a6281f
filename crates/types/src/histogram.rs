//! Per-column value distributions: most-common-value lists and equi-depth
//! histograms.
//!
//! The paper's optimizer picks join orders greedily "with the objective of
//! minimizing the size of intermediate results" (§IV); the quality of that
//! greedy choice is bounded by the quality of the cardinality estimates
//! feeding it.  `ANALYZE` builds one [`ColumnDistribution`] per column:
//!
//! * an **MCV list** — the values whose frequency is above the column
//!   average (all values, when the column has at most [`MCV_LIMIT`]
//!   distinct ones, making equality estimates exact);
//! * an **equi-depth histogram** over the remaining values — up to
//!   [`HISTOGRAM_BUCKETS`] buckets holding roughly equal row counts, each
//!   remembering its value bounds, row count and distinct count.
//!
//! Estimation consults the MCV list first, then the histogram; a column
//! that was never analyzed has no [`ColumnDistribution`] at all, which is
//! the planner's cue to fall back to textbook heuristics.

use crate::value::Value;

/// Comparison kinds the estimator understands, mirroring the SQL dialect's
/// comparison operators (defined here because `hique-sql` depends on this
/// crate, not the other way around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

/// Maximum number of equi-depth buckets per column.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Maximum number of most-common-value entries per column.  Columns with at
/// most this many distinct values store *all* of them, making equality and
/// range estimates exact (up to staleness).
pub const MCV_LIMIT: usize = 32;

/// One equi-depth histogram bucket over the non-MCV values of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Smallest value in the bucket (inclusive).
    pub lo: Value,
    /// Largest value in the bucket (inclusive).
    pub hi: Value,
    /// Rows whose value falls in `[lo, hi]` (excluding MCV rows).
    pub rows: usize,
    /// Distinct values in `[lo, hi]` (excluding MCV values).
    pub distinct: usize,
}

/// The collected distribution of one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnDistribution {
    /// Rows observed when the distribution was built.
    pub rows: usize,
    /// Distinct values observed.
    pub distinct: usize,
    /// Most common values with their exact observed row counts, ordered by
    /// descending count (ties broken by ascending value).
    pub mcv: Vec<(Value, usize)>,
    /// Equi-depth buckets over the non-MCV values, in ascending value order.
    pub buckets: Vec<Bucket>,
}

impl ColumnDistribution {
    /// Build the distribution from an unsorted snapshot of the column.
    pub fn build(mut values: Vec<Value>) -> ColumnDistribution {
        values.sort_unstable_by(|a, b| a.total_cmp(b));
        Self::from_sorted(&values)
    }

    /// Build the distribution from an ascending-sorted snapshot.
    pub fn from_sorted(values: &[Value]) -> ColumnDistribution {
        let rows = values.len();
        if rows == 0 {
            return ColumnDistribution::default();
        }
        // Run-length encode the sorted values.
        let mut runs: Vec<(Value, usize)> = Vec::new();
        for v in values {
            match runs.last_mut() {
                Some((rv, count)) if rv.sql_eq(v) => *count += 1,
                _ => runs.push((v.clone(), 1)),
            }
        }
        let distinct = runs.len();

        // MCV selection: with few distinct values keep them all (estimates
        // become exact); otherwise keep the values strictly more frequent
        // than the column average, capped at MCV_LIMIT.
        let mcv: Vec<(Value, usize)> = if distinct <= MCV_LIMIT {
            let mut all = runs.clone();
            all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
            all
        } else {
            let mut candidates: Vec<(Value, usize)> = runs
                .iter()
                .filter(|(_, count)| count * distinct > rows)
                .cloned()
                .collect();
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
            candidates.truncate(MCV_LIMIT);
            candidates
        };

        // Equi-depth buckets over the remaining runs: bucket membership by
        // cumulative row count, so each bucket holds ~rest_rows/B rows while
        // a single run never splits across buckets.
        let rest: Vec<&(Value, usize)> = runs
            .iter()
            .filter(|(v, _)| !mcv.iter().any(|(m, _)| m.sql_eq(v)))
            .collect();
        let rest_rows: usize = rest.iter().map(|(_, c)| c).sum();
        let mut buckets: Vec<Bucket> = Vec::new();
        if !rest.is_empty() {
            let nb = HISTOGRAM_BUCKETS.min(rest.len());
            let mut cum = 0usize;
            for (v, count) in rest {
                let slot = (cum * nb / rest_rows).min(nb - 1);
                let extend_last = buckets.len() == slot + 1;
                if extend_last {
                    #[expect(
                        clippy::expect_used,
                        reason = "extend_last holds only when buckets.len() == slot + 1, so a last bucket exists"
                    )]
                    let b = buckets.last_mut().expect("slot bucket exists");
                    b.hi = v.clone();
                    b.rows += count;
                    b.distinct += 1;
                } else {
                    buckets.push(Bucket {
                        lo: v.clone(),
                        hi: v.clone(),
                        rows: *count,
                        distinct: 1,
                    });
                }
                cum += count;
            }
        }

        ColumnDistribution {
            rows,
            distinct,
            mcv,
            buckets,
        }
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<&Value> {
        let hist = self.buckets.first().map(|b| &b.lo);
        let mcv = self.mcv.iter().map(|(v, _)| v).min();
        match (hist, mcv) {
            (Some(h), Some(m)) => Some(if h.total_cmp(m).is_le() { h } else { m }),
            (h, m) => h.or(m),
        }
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<&Value> {
        let hist = self.buckets.last().map(|b| &b.hi);
        let mcv = self.mcv.iter().map(|(v, _)| v).max();
        match (hist, mcv) {
            (Some(h), Some(m)) => Some(if h.total_cmp(m).is_ge() { h } else { m }),
            (h, m) => h.or(m),
        }
    }

    /// The guarded selectivity ratio `matched / rows`, clamped to `[0, 1]`.
    /// Every estimator path divides by the observed row count through this
    /// one helper: a zero-row distribution (analyzed-empty column, or stale
    /// statistics whose row count was reset) estimates `0.0` instead of the
    /// `NaN` a bare division would produce.  A NaN selectivity would poison
    /// every downstream cost comparison — `NaN < x` is false for all `x`,
    /// so the greedy join-order search would silently degenerate.
    fn ratio(&self, matched: f64) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (matched / self.rows as f64).clamp(0.0, 1.0)
    }

    /// Fraction of rows equal to `v` (MCV first, then the containing
    /// histogram bucket under a uniform-within-bucket assumption).  An
    /// analyzed-empty column and constants outside the observed value set
    /// both estimate `0.0`.
    pub fn eq_fraction(&self, v: &Value) -> f64 {
        if let Some((_, count)) = self.mcv.iter().find(|(m, _)| m.sql_eq(v)) {
            return self.ratio(*count as f64);
        }
        for b in &self.buckets {
            if b.lo.total_cmp(v).is_le() && b.hi.total_cmp(v).is_ge() {
                return self.ratio(b.rows as f64 / b.distinct.max(1) as f64);
            }
        }
        // Not an MCV and in no bucket: the value was not observed.
        0.0
    }

    /// Fraction of rows strictly below (`inclusive = false`) or at-or-below
    /// (`inclusive = true`) `v`.
    pub fn le_fraction(&self, v: &Value, inclusive: bool) -> f64 {
        let mut matched = 0.0f64;
        for (m, count) in &self.mcv {
            let ord = m.total_cmp(v);
            if ord.is_lt() || (inclusive && ord.is_eq()) {
                matched += *count as f64;
            }
        }
        for b in &self.buckets {
            if b.hi.total_cmp(v).is_lt() || (inclusive && b.hi.total_cmp(v).is_eq()) {
                matched += b.rows as f64;
            } else if b.lo.total_cmp(v).is_le() {
                matched += b.rows as f64 * bucket_fraction_below(b, v, inclusive);
            }
        }
        self.ratio(matched)
    }

    /// Fraction of rows satisfying `column <op> v`, following the same
    /// MCV-then-histogram order for every comparison kind.
    pub fn cmp_fraction(&self, op: CmpKind, v: &Value) -> f64 {
        match op {
            CmpKind::Eq => self.eq_fraction(v),
            CmpKind::NotEq => (1.0 - self.eq_fraction(v)).max(0.0),
            CmpKind::Lt => self.le_fraction(v, false),
            CmpKind::LtEq => self.le_fraction(v, true),
            CmpKind::Gt => (1.0 - self.le_fraction(v, true)).max(0.0),
            CmpKind::GtEq => (1.0 - self.le_fraction(v, false)).max(0.0),
        }
    }

    /// Fraction of rows satisfying **all** of `preds` over this one column.
    ///
    /// Unlike multiplying per-predicate selectivities (the System-R
    /// independence assumption, which is plainly wrong for two predicates
    /// over the same column), this intersects the predicates: MCV entries
    /// are tested exactly, and within each histogram bucket the range
    /// predicates reduce to one interval.  Contradictory conjunctions like
    /// `x < 10 AND x > 20` therefore estimate exactly zero.
    pub fn conjunction_fraction(&self, preds: &[(CmpKind, &Value)]) -> f64 {
        if preds.is_empty() {
            // All rows qualify: 1.0, or 0.0 for a zero-row distribution.
            return self.ratio(self.rows as f64);
        }
        let mut matched = 0.0f64;
        for (v, count) in &self.mcv {
            if preds.iter().all(|&(op, c)| value_matches(v, op, c)) {
                matched += *count as f64;
            }
        }
        for b in &self.buckets {
            matched += b.rows as f64 * bucket_conjunction_fraction(b, preds);
        }
        self.ratio(matched)
    }
}

/// Whether a concrete value satisfies `value <op> constant`.
pub fn value_matches(value: &Value, op: CmpKind, constant: &Value) -> bool {
    let ord = value.total_cmp(constant);
    match op {
        CmpKind::Eq => ord.is_eq(),
        CmpKind::NotEq => ord.is_ne(),
        CmpKind::Lt => ord.is_lt(),
        CmpKind::LtEq => ord.is_le(),
        CmpKind::Gt => ord.is_gt(),
        CmpKind::GtEq => ord.is_ge(),
    }
}

/// Fraction of one bucket's rows satisfying all of `preds`, assuming values
/// spread uniformly across the bucket.  Range predicates intersect into a
/// single `[lo, hi)` window of the bucket's below-fraction space; an
/// equality predicate collapses the window to one point (checked against
/// every other predicate exactly); inequalities scale by the one excluded
/// value when it falls inside the bucket.
fn bucket_conjunction_fraction(b: &Bucket, preds: &[(CmpKind, &Value)]) -> f64 {
    // Equality predicates pin the value: evaluate everything at that point.
    if let Some(&(_, point)) = preds.iter().find(|(op, _)| *op == CmpKind::Eq) {
        let in_bucket = b.lo.total_cmp(point).is_le() && b.hi.total_cmp(point).is_ge();
        let all_hold = preds.iter().all(|&(op, c)| value_matches(point, op, c));
        return if in_bucket && all_hold {
            1.0 / b.distinct.max(1) as f64
        } else {
            0.0
        };
    }
    let mut below_lo = 0.0f64;
    let mut below_hi = 1.0f64;
    let mut scale = 1.0f64;
    for &(op, c) in preds {
        match op {
            CmpKind::Lt => below_hi = below_hi.min(bucket_fraction_below(b, c, false)),
            CmpKind::LtEq => below_hi = below_hi.min(bucket_fraction_below(b, c, true)),
            CmpKind::Gt => below_lo = below_lo.max(bucket_fraction_below(b, c, true)),
            CmpKind::GtEq => below_lo = below_lo.max(bucket_fraction_below(b, c, false)),
            CmpKind::NotEq => {
                if b.lo.total_cmp(c).is_le() && b.hi.total_cmp(c).is_ge() {
                    scale *= 1.0 - 1.0 / b.distinct.max(1) as f64;
                }
            }
            CmpKind::Eq => unreachable!("handled above"),
        }
    }
    (below_hi - below_lo).max(0.0) * scale
}

/// Fraction of a bucket's rows below `v`.  Buckets that don't straddle the
/// constant resolve exactly by comparison (this covers degenerate
/// single-value buckets and every non-interpolable value kind); straddled
/// buckets interpolate linearly between the bounds — integer-like values
/// (ints, dates) count whole points so that e.g. `x < 5` and `x <= 5`
/// differ by exactly one point, and incomparable straddled values
/// (strings) assume half the bucket.
fn bucket_fraction_below(b: &Bucket, v: &Value, inclusive: bool) -> f64 {
    // Bucket entirely below the constant: every row qualifies.
    let hi_ord = b.hi.total_cmp(v);
    if hi_ord.is_lt() || (inclusive && hi_ord.is_eq()) {
        return 1.0;
    }
    // Bucket entirely above (or starting at an excluded point): none do.
    let lo_ord = b.lo.total_cmp(v);
    if lo_ord.is_gt() || (!inclusive && lo_ord.is_eq()) {
        return 0.0;
    }
    let integer_like = |x: &Value| matches!(x, Value::Int32(_) | Value::Int64(_) | Value::Date(_));
    if integer_like(&b.lo) && integer_like(&b.hi) && integer_like(v) {
        let (lo, hi, c) = (
            b.lo.as_i64().unwrap_or(0),
            b.hi.as_i64().unwrap_or(0),
            v.as_i64().unwrap_or(0),
        );
        let width = (hi - lo + 1) as f64;
        let below = (c - lo) + i64::from(inclusive);
        return (below as f64 / width).clamp(0.0, 1.0);
    }
    match (b.lo.as_f64(), b.hi.as_f64(), v.as_f64()) {
        (Ok(lo), Ok(hi), Ok(c)) if hi > lo => ((c - lo) / (hi - lo)).clamp(0.0, 1.0),
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: impl IntoIterator<Item = i32>) -> Vec<Value> {
        values.into_iter().map(Value::Int32).collect()
    }

    #[test]
    fn empty_column_estimates_zero() {
        let d = ColumnDistribution::build(Vec::new());
        assert_eq!(d.rows, 0);
        assert_eq!(d.distinct, 0);
        assert!(d.min().is_none() && d.max().is_none());
        assert_eq!(d.eq_fraction(&Value::Int32(5)), 0.0);
        assert_eq!(d.cmp_fraction(CmpKind::Lt, &Value::Int32(5)), 0.0);
    }

    #[test]
    fn zero_row_distributions_never_divide_to_nan() {
        let c = Value::Int32(5);
        // An analyzed-empty column: every comparison kind stays finite and
        // selects nothing (NotEq is 1 - eq by definition).
        let empty = ColumnDistribution::build(Vec::new());
        for op in [
            CmpKind::Eq,
            CmpKind::NotEq,
            CmpKind::Lt,
            CmpKind::LtEq,
            CmpKind::Gt,
            CmpKind::GtEq,
        ] {
            let f = empty.cmp_fraction(op, &c);
            assert!(f.is_finite(), "{op:?} estimated {f}");
        }
        assert_eq!(empty.conjunction_fraction(&[]), 0.0);
        assert_eq!(empty.conjunction_fraction(&[(CmpKind::Lt, &c)]), 0.0);
        // A stale shape — row count reset to zero but leftover MCV and
        // bucket entries.  Every division routes through the guarded ratio,
        // so the estimate is 0.0, never NaN (a NaN selectivity makes every
        // cost comparison false and degenerates the greedy join order).
        let stale = ColumnDistribution {
            rows: 0,
            distinct: 5,
            mcv: vec![(Value::Int32(5), 3)],
            buckets: vec![Bucket {
                lo: Value::Int32(0),
                hi: Value::Int32(9),
                rows: 4,
                distinct: 4,
            }],
        };
        assert_eq!(stale.eq_fraction(&c), 0.0);
        assert_eq!(stale.le_fraction(&c, true), 0.0);
        assert_eq!(stale.le_fraction(&c, false), 0.0);
        assert_eq!(stale.conjunction_fraction(&[(CmpKind::GtEq, &c)]), 0.0);
        for op in [CmpKind::Eq, CmpKind::Lt, CmpKind::Gt] {
            assert!(stale.cmp_fraction(op, &c).is_finite());
        }
    }

    #[test]
    fn single_value_column_is_one_mcv() {
        let d = ColumnDistribution::build(ints(std::iter::repeat_n(7, 100)));
        assert_eq!(d.distinct, 1);
        assert_eq!(d.mcv, vec![(Value::Int32(7), 100)]);
        assert!(d.buckets.is_empty());
        assert_eq!(d.eq_fraction(&Value::Int32(7)), 1.0);
        assert_eq!(d.eq_fraction(&Value::Int32(8)), 0.0);
        assert_eq!(d.cmp_fraction(CmpKind::LtEq, &Value::Int32(7)), 1.0);
        assert_eq!(d.cmp_fraction(CmpKind::Lt, &Value::Int32(7)), 0.0);
    }

    #[test]
    fn fewer_distinct_than_buckets_keeps_all_values_as_mcvs() {
        // 10 distinct values with different frequencies: every one becomes
        // an MCV and both equality and ranges are exact.
        let mut values = Vec::new();
        for v in 0..10 {
            values.extend(std::iter::repeat_n(v, (v as usize + 1) * 3));
        }
        let total: usize = (1..=10).map(|k| k * 3).sum();
        let d = ColumnDistribution::build(ints(values));
        assert_eq!(d.distinct, 10);
        assert_eq!(d.mcv.len(), 10);
        assert!(d.buckets.is_empty());
        // Most frequent first.
        assert_eq!(d.mcv[0], (Value::Int32(9), 30));
        let sel = d.eq_fraction(&Value::Int32(4));
        assert!((sel - 15.0 / total as f64).abs() < 1e-12);
        let lt = d.cmp_fraction(CmpKind::Lt, &Value::Int32(2));
        assert!((lt - 9.0 / total as f64).abs() < 1e-12);
    }

    #[test]
    fn uniform_wide_column_builds_equi_depth_buckets() {
        let d = ColumnDistribution::build(ints(0..3200));
        assert_eq!(d.distinct, 3200);
        assert!(
            d.mcv.is_empty(),
            "uniform column has no over-represented values"
        );
        assert_eq!(d.buckets.len(), HISTOGRAM_BUCKETS);
        for b in &d.buckets {
            assert_eq!(b.rows, 100);
            assert_eq!(b.distinct, 100);
        }
        assert_eq!(d.min(), Some(&Value::Int32(0)));
        assert_eq!(d.max(), Some(&Value::Int32(3199)));
        // Range estimates track the true fraction closely.
        let lt = d.cmp_fraction(CmpKind::Lt, &Value::Int32(800));
        assert!((lt - 0.25).abs() < 0.01, "{lt}");
        // Lt vs LtEq differ by exactly one point of the domain.
        let lteq = d.cmp_fraction(CmpKind::LtEq, &Value::Int32(800));
        assert!((lteq - lt - 1.0 / 3200.0).abs() < 1e-9);
        // Equality within a bucket assumes uniformity: 1/3200.
        let eq = d.eq_fraction(&Value::Int32(1234));
        assert!((eq - 1.0 / 3200.0).abs() < 1e-6);
        // Outside the observed domain: zero.
        assert_eq!(d.eq_fraction(&Value::Int32(99_999)), 0.0);
        assert_eq!(d.cmp_fraction(CmpKind::Gt, &Value::Int32(99_999)), 0.0);
        assert_eq!(d.cmp_fraction(CmpKind::Lt, &Value::Int32(-5)), 0.0);
    }

    #[test]
    fn zipfian_column_puts_head_values_in_mcv() {
        // Frequency ~ N/rank over 200 distinct values: the head is heavily
        // over-represented and must be captured exactly by the MCV list.
        let mut values = Vec::new();
        for rank in 1..=200usize {
            values.extend(std::iter::repeat_n(rank as i32, 2000 / rank));
        }
        let total = values.len();
        let d = ColumnDistribution::build(ints(values));
        assert_eq!(d.distinct, 200);
        assert!(!d.mcv.is_empty() && d.mcv.len() <= MCV_LIMIT);
        assert_eq!(d.mcv[0], (Value::Int32(1), 2000));
        // The top value's equality estimate is exact.
        assert_eq!(d.eq_fraction(&Value::Int32(1)), 2000.0 / total as f64);
        // Tail values go through the histogram and stay within 3x.
        let est = d.eq_fraction(&Value::Int32(150)) * total as f64;
        let actual = (2000 / 150) as f64;
        assert!(
            est / actual < 3.0 && actual / est < 3.0,
            "est {est} vs {actual}"
        );
        // The whole distribution accounts for every row.
        let mcv_rows: usize = d.mcv.iter().map(|(_, c)| c).sum();
        let bucket_rows: usize = d.buckets.iter().map(|b| b.rows).sum();
        assert_eq!(mcv_rows + bucket_rows, total);
    }

    #[test]
    fn string_columns_support_exact_mcv_and_half_bucket_ranges() {
        let values: Vec<Value> = ["A", "B", "B", "C", "C", "C"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let d = ColumnDistribution::from_sorted(&values);
        assert_eq!(d.eq_fraction(&Value::Str("C".into())), 0.5);
        assert_eq!(d.eq_fraction(&Value::Str("Z".into())), 0.0);
        let lt = d.cmp_fraction(CmpKind::Lt, &Value::Str("C".into()));
        assert!((lt - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_column_conjunctions_intersect_instead_of_multiplying() {
        let d = ColumnDistribution::build(ints(0..1000));
        // A window: 100 <= x < 300 covers ~20% of the rows.
        let (lo, hi) = (Value::Int32(100), Value::Int32(300));
        let frac = d.conjunction_fraction(&[(CmpKind::GtEq, &lo), (CmpKind::Lt, &hi)]);
        assert!((frac - 0.2).abs() < 0.02, "{frac}");
        // Contradictory bounds estimate exactly zero (independence would
        // have said 0.3 * 0.3 = 9%).
        let (lo, hi) = (Value::Int32(700), Value::Int32(300));
        let frac = d.conjunction_fraction(&[(CmpKind::Gt, &lo), (CmpKind::Lt, &hi)]);
        assert_eq!(frac, 0.0);
        // Equality inside / outside a consistent range.
        let (point, bound) = (Value::Int32(500), Value::Int32(400));
        let frac = d.conjunction_fraction(&[(CmpKind::Eq, &point), (CmpKind::Gt, &bound)]);
        assert!((frac - 1.0 / 1000.0).abs() < 1e-6, "{frac}");
        let frac = d.conjunction_fraction(&[(CmpKind::Eq, &point), (CmpKind::Lt, &bound)]);
        assert_eq!(frac, 0.0);
        // MCV-only columns intersect exactly too.
        let small = ColumnDistribution::build(ints((0..10).flat_map(|v| [v; 3])));
        let (a, b) = (Value::Int32(4), Value::Int32(7));
        let frac = small.conjunction_fraction(&[(CmpKind::GtEq, &a), (CmpKind::Lt, &b)]);
        assert_eq!(frac, 9.0 / 30.0);
        // NotEq carves one value out of the window.
        let ne = Value::Int32(5);
        let frac = small.conjunction_fraction(&[
            (CmpKind::GtEq, &a),
            (CmpKind::Lt, &b),
            (CmpKind::NotEq, &ne),
        ]);
        assert_eq!(frac, 6.0 / 30.0);
    }

    #[test]
    fn wide_string_columns_resolve_range_bounds_exactly() {
        // More distinct strings than the MCV limit forces histogram form;
        // buckets entirely below/above a constant must contribute all/none
        // of their rows through both the single-predicate and conjunction
        // paths (only a straddled string bucket falls back to one half).
        let values: Vec<Value> = (0..200)
            .map(|i| Value::Str(format!("name{i:04}")))
            .collect();
        let d = ColumnDistribution::from_sorted(&values);
        assert!(d.mcv.len() < d.distinct, "histogram form expected");
        let below_all = Value::Str("aaaa".into());
        let above_all = Value::Str("zzzz".into());
        assert_eq!(d.cmp_fraction(CmpKind::Lt, &below_all), 0.0);
        assert_eq!(d.conjunction_fraction(&[(CmpKind::Lt, &below_all)]), 0.0);
        assert_eq!(d.cmp_fraction(CmpKind::Lt, &above_all), 1.0);
        assert_eq!(d.conjunction_fraction(&[(CmpKind::Lt, &above_all)]), 1.0);
        assert_eq!(d.conjunction_fraction(&[(CmpKind::GtEq, &above_all)]), 0.0);
        // A mid-domain constant is off by at most one straddled bucket.
        let mid = Value::Str("name0100".into());
        let frac = d.conjunction_fraction(&[(CmpKind::Lt, &mid)]);
        assert!((frac - 0.5).abs() < 0.05, "{frac}");
        // Single-predicate and conjunction paths agree.
        assert_eq!(frac, d.cmp_fraction(CmpKind::Lt, &mid));
    }

    #[test]
    fn degenerate_point_buckets_estimate_exactly() {
        // Even values are over-represented (MCVs), odd values land in the
        // histogram as single-value buckets: lo == hi.  Range estimates must
        // treat those as points, not leak the 0.5 "unknown" fallback.
        let mut values = Vec::new();
        for v in 0..40 {
            let reps = if v % 2 == 0 { 4 } else { 2 };
            values.extend(std::iter::repeat_n(v, reps));
        }
        let d = ColumnDistribution::build(ints(values));
        assert_eq!(d.distinct, 40);
        assert_eq!(d.mcv.len(), 20, "evens are above-average MCVs");
        assert!(d.buckets.iter().all(|b| b.lo == b.hi && b.distinct == 1));
        // <= 10: evens 0,2,..,10 (6x4) + odds 1,3,..,9 (5x2) of 120 rows.
        let c = Value::Int32(10);
        let expected = (6.0 * 4.0 + 5.0 * 2.0) / 120.0;
        assert_eq!(d.cmp_fraction(CmpKind::LtEq, &c), expected);
        assert_eq!(d.conjunction_fraction(&[(CmpKind::LtEq, &c)]), expected);
        // < 10 drops exactly the even point 10.
        let below = (5.0 * 4.0 + 5.0 * 2.0) / 120.0;
        assert_eq!(d.conjunction_fraction(&[(CmpKind::Lt, &c)]), below);
    }

    #[test]
    fn rebuild_after_growth_reflects_new_data() {
        let small = ColumnDistribution::build(ints(0..10));
        assert_eq!(small.distinct, 10);
        assert!(small.buckets.is_empty());
        // Table grows 100x and is re-analyzed: the distribution switches
        // from MCV-only to histogram form and widens its bounds.
        let grown = ColumnDistribution::build(ints(0..1000));
        assert_eq!(grown.distinct, 1000);
        assert!(!grown.buckets.is_empty());
        assert_eq!(grown.max(), Some(&Value::Int32(999)));
        let lt = grown.cmp_fraction(CmpKind::Lt, &Value::Int32(500));
        assert!((lt - 0.5).abs() < 0.01);
    }
}
