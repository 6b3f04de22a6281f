//! Cardinality estimation.
//!
//! The paper's optimizer "chooses the optimal evaluation plan using a greedy
//! approach, with the objective of minimizing the size of intermediate
//! results".  Estimation consults the statistics gathered by
//! `Catalog::analyze_table` in a fixed order:
//!
//! 1. **MCV list** — exact frequencies of the most common values (all
//!    values, for low-cardinality columns);
//! 2. **equi-depth histogram** — bucket counts with within-bucket
//!    interpolation (integer-aware, so `<` and `<=` differ by one point of
//!    the domain);
//! 3. **fallback heuristics** — classic System-R `1/distinct` equality and
//!    the textbook 1/3 range guess, used only for tables that were never
//!    analyzed.
//!
//! An analyzed table is allowed to estimate **zero** rows (empty table, or
//! an equality constant outside the observed domain); only unanalyzed
//! tables keep the conservative minimum of one row.

use hique_sql::analyze::ColumnFilter;
use hique_sql::ast::CmpOp;
use hique_storage::catalog::TableInfo;
use hique_types::{CmpKind, ColumnDistribution, Value};

/// Statistics snapshot of one base table, as the planner sees it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Total rows in the table.
    pub rows: usize,
    /// Whether `ANALYZE` ever ran on the table.  When false the per-column
    /// distributions are empty and estimation falls back to heuristics.
    pub analyzed: bool,
    /// Per-column distributions (MCVs + histogram), aligned with the schema.
    pub cols: Vec<ColumnDistribution>,
}

impl TableStats {
    /// Extract a snapshot from catalog metadata.
    pub fn from_table(info: &TableInfo) -> Self {
        let n = info.schema.len();
        let analyzed = !info.column_stats.is_empty();
        let mut cols = info.column_stats.clone();
        cols.resize(n, ColumnDistribution::default());
        TableStats {
            rows: info.row_count(),
            analyzed,
            cols,
        }
    }

    /// Statistics for a table the planner knows nothing about beyond its row
    /// count (used in unit tests and for freshly generated data).
    pub fn unknown(rows: usize, columns: usize) -> Self {
        TableStats {
            rows,
            analyzed: false,
            cols: vec![ColumnDistribution::default(); columns],
        }
    }

    /// Statistics built from explicit per-column value snapshots (analyzed).
    pub fn from_columns(rows: usize, columns: Vec<ColumnDistribution>) -> Self {
        TableStats {
            rows,
            analyzed: true,
            cols: columns,
        }
    }

    /// The collected distribution of a column, when the table was analyzed.
    pub fn distribution(&self, column: usize) -> Option<&ColumnDistribution> {
        if self.analyzed {
            self.cols.get(column)
        } else {
            None
        }
    }

    /// Distinct count of a column, falling back to a default guess.
    pub fn distinct_or(&self, column: usize, default: usize) -> usize {
        match self.cols.get(column) {
            Some(d) if d.distinct > 0 => d.distinct,
            _ => default,
        }
    }

    /// Minimum observed value of a column.
    pub fn min(&self, column: usize) -> Option<&Value> {
        self.cols.get(column).and_then(|d| d.min())
    }

    /// Maximum observed value of a column.
    pub fn max(&self, column: usize) -> Option<&Value> {
        self.cols.get(column).and_then(|d| d.max())
    }
}

/// Map the SQL comparison operator onto the estimator's comparison kind.
fn cmp_kind(op: CmpOp) -> CmpKind {
    match op {
        CmpOp::Eq => CmpKind::Eq,
        CmpOp::NotEq => CmpKind::NotEq,
        CmpOp::Lt => CmpKind::Lt,
        CmpOp::LtEq => CmpKind::LtEq,
        CmpOp::Gt => CmpKind::Gt,
        CmpOp::GtEq => CmpKind::GtEq,
    }
}

/// Estimated selectivity of a single filter: MCV list first, then histogram
/// buckets, then the unanalyzed-table heuristics (equality `1/distinct`,
/// range 1/3, inequality keeps almost everything).
pub fn filter_selectivity(filter: &ColumnFilter, stats: &TableStats) -> f64 {
    if let Some(dist) = stats.distribution(filter.column) {
        return dist.cmp_fraction(cmp_kind(filter.op), &filter.value);
    }
    let distinct = stats.distinct_or(filter.column, 10);
    match filter.op {
        CmpOp::Eq => 1.0 / distinct as f64,
        CmpOp::NotEq => 1.0 - 1.0 / distinct as f64,
        CmpOp::Lt | CmpOp::LtEq | CmpOp::Gt | CmpOp::GtEq => 1.0 / 3.0,
    }
}

/// Estimated number of rows of `table` surviving all of `filters`.
///
/// Filters over the **same column** are intersected through the column's
/// distribution (so `x > 20 AND x < 10` estimates zero rather than the
/// product of two selectivities); independence is assumed only *across*
/// columns, as in System R.
///
/// Analyzed tables may estimate zero — an empty table, or a conjunction
/// that is impossible against the observed domain, estimates no output at
/// all.  Unanalyzed tables keep the conservative minimum of one row.
pub fn estimate_filtered_rows(stats: &TableStats, filters: &[&ColumnFilter]) -> usize {
    let mut by_column: std::collections::BTreeMap<usize, Vec<&ColumnFilter>> = Default::default();
    for f in filters {
        by_column.entry(f.column).or_default().push(f);
    }
    let mut rows = stats.rows as f64;
    let mut impossible = false;
    for (column, fs) in by_column {
        let sel = match stats.distribution(column) {
            Some(dist) => {
                let preds: Vec<(CmpKind, &Value)> =
                    fs.iter().map(|f| (cmp_kind(f.op), &f.value)).collect();
                dist.conjunction_fraction(&preds)
            }
            None => fs.iter().map(|f| filter_selectivity(f, stats)).product(),
        };
        impossible |= sel == 0.0;
        rows *= sel;
    }
    if stats.analyzed && (stats.rows == 0 || impossible) {
        return 0;
    }
    rows.round().max(1.0) as usize
}

/// Estimated cardinality of an equi-join between two inputs.
///
/// `|L ⋈ R| = |L| * |R| / max(d_L, d_R)` where `d` are the distinct counts
/// of the join keys (0 = unknown → assume key-foreign-key, i.e. the larger
/// row count).
pub fn estimate_join_rows(
    left_rows: usize,
    left_distinct: usize,
    right_rows: usize,
    right_distinct: usize,
) -> usize {
    if left_rows == 0 || right_rows == 0 {
        return 0;
    }
    let dl = if left_distinct > 0 {
        left_distinct
    } else {
        left_rows.max(1)
    };
    let dr = if right_distinct > 0 {
        right_distinct
    } else {
        right_rows.max(1)
    };
    let denom = dl.max(dr).max(1);
    ((left_rows as f64) * (right_rows as f64) / denom as f64)
        .round()
        .max(1.0) as usize
}

/// Histogram-aware equi-join estimate.
///
/// When both join keys carry collected distributions, the key domains are
/// intersected first: rows whose key falls outside `[max(min_L, min_R),
/// min(max_L, max_R)]` cannot match, so both inputs (and their distinct
/// counts) are scaled by the in-overlap fraction before the classic
/// `|L|*|R|/max(d_L, d_R)` formula runs.  Disjoint key domains estimate
/// zero.  Without distributions this degrades to [`estimate_join_rows`]
/// with the provided distinct hints.
///
/// `filter_clamp` is a multiplier in `(0, 1]` produced by
/// [`correlated_range_clamp`]: it intersects the *predicate-filtered* key
/// domains of the two sides (concretely, correlated date windows such as
/// Q3's `o_orderdate < D` against `l_shipdate > D`), which the raw
/// column-domain overlap above cannot see.  Pass `1.0` when the sides carry
/// no correlated predicates.
pub fn estimate_join_rows_dist(
    left_rows: usize,
    left_key: Option<&ColumnDistribution>,
    left_distinct_hint: usize,
    right_rows: usize,
    right_key: Option<&ColumnDistribution>,
    right_distinct_hint: usize,
    filter_clamp: f64,
) -> usize {
    if left_rows == 0 || right_rows == 0 {
        return 0;
    }
    let clamp = if filter_clamp > 0.0 && filter_clamp < 1.0 {
        filter_clamp
    } else {
        1.0
    };
    let clamped = |est: usize| -> usize {
        if est == 0 {
            0
        } else {
            (est as f64 * clamp).round().max(1.0) as usize
        }
    };
    let (l, r) = match (left_key, right_key) {
        (Some(l), Some(r)) if l.rows > 0 && r.rows > 0 => (l, r),
        _ => {
            let dl = left_key.map_or(left_distinct_hint, |d| d.distinct);
            let dr = right_key.map_or(right_distinct_hint, |d| d.distinct);
            return clamped(estimate_join_rows(left_rows, dl, right_rows, dr));
        }
    };
    let (Some(lmin), Some(lmax), Some(rmin), Some(rmax)) = (l.min(), l.max(), r.min(), r.max())
    else {
        return clamped(estimate_join_rows(
            left_rows, l.distinct, right_rows, r.distinct,
        ));
    };
    let lo = if lmin.total_cmp(rmin).is_ge() {
        lmin
    } else {
        rmin
    };
    let hi = if lmax.total_cmp(rmax).is_le() {
        lmax
    } else {
        rmax
    };
    if lo.total_cmp(hi).is_gt() {
        return 0; // disjoint key domains: no row can match
    }
    let overlap = |d: &ColumnDistribution| -> f64 {
        (d.le_fraction(hi, true) - d.le_fraction(lo, false)).clamp(0.0, 1.0)
    };
    let lfrac = overlap(l);
    let rfrac = overlap(r);
    if lfrac == 0.0 || rfrac == 0.0 {
        return 0;
    }
    let eff_left = left_rows as f64 * lfrac;
    let eff_right = right_rows as f64 * rfrac;
    let dl = (l.distinct as f64 * lfrac).max(1.0);
    let dr = (r.distinct as f64 * rfrac).max(1.0);
    (eff_left * eff_right / dl.max(dr) * clamp).round().max(1.0) as usize
}

/// Multiplier correcting a join estimate for *cross-table correlated range
/// predicates* — the predicate-filtered key-domain intersection the raw
/// column-domain overlap of [`estimate_join_rows_dist`] cannot express.
///
/// The motivating case is TPC-H Q3: `o_orderdate < D` on one join side and
/// `l_shipdate > D` on the other.  Both columns describe the same time axis
/// (their observed domains almost coincide), and a lineitem ships shortly
/// after its order is placed, so the two windows are strongly
/// anti-correlated across the `o_orderkey = l_orderkey` join: multiplying
/// the per-side selectivities (the independence assumption baked into the
/// filtered row counts) over-estimates the join by roughly 10×.
///
/// The correction intersects the two predicate windows on the shared axis:
/// when date-typed range predicates exist on both sides and the columns'
/// observed domains substantially overlap, the joint fraction is estimated
/// as the fraction of the domain satisfying *both* predicate sets at once,
/// floored by a square-root damping of the independent product — the
/// intersection is exact only if the two columns were equal across the
/// join, and the damping keeps the clamp conservative for loosely
/// correlated pairs.  Sides without such a predicate pair return `1.0`
/// (no correction); the clamp never raises an estimate.
pub fn correlated_range_clamp(
    left_filters: &[ColumnFilter],
    left: &TableStats,
    right_filters: &[ColumnFilter],
    right: &TableStats,
) -> f64 {
    // Date-typed columns carrying range/equality predicates, per side.
    let date_preds =
        |filters: &[ColumnFilter], stats: &TableStats| -> Vec<(usize, Vec<(CmpKind, Value)>)> {
            let mut by_column: std::collections::BTreeMap<usize, Vec<(CmpKind, Value)>> =
                Default::default();
            for f in filters {
                if !matches!(f.value, Value::Date(_)) {
                    continue;
                }
                if stats.distribution(f.column).is_none_or(|d| d.rows == 0) {
                    continue;
                }
                by_column
                    .entry(f.column)
                    .or_default()
                    .push((cmp_kind(f.op), f.value.clone()));
            }
            by_column.into_iter().collect()
        };
    let span = |stats: &TableStats, column: usize| -> Option<(i64, i64)> {
        let d = stats.distribution(column)?;
        match (d.min(), d.max()) {
            (Some(Value::Date(lo)), Some(Value::Date(hi))) => Some((*lo as i64, *hi as i64)),
            _ => None,
        }
    };

    let mut clamp = 1.0f64;
    for (lcol, lpreds) in date_preds(left_filters, left) {
        let Some((llo, lhi)) = span(left, lcol) else {
            continue;
        };
        for (rcol, rpreds) in date_preds(right_filters, right) {
            let Some((rlo, rhi)) = span(right, rcol) else {
                continue;
            };
            // The two columns must describe the same axis: their observed
            // domains overlap over at least half of each span.
            let inter = (lhi.min(rhi) - llo.max(rlo)) as f64;
            if inter <= 0.0 || inter < 0.5 * (lhi - llo) as f64 || inter < 0.5 * (rhi - rlo) as f64
            {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "date_preds keeps only columns with a distribution, checked by its guard"
            )]
            let ldist = left.distribution(lcol).expect("checked above");
            #[expect(
                clippy::expect_used,
                reason = "date_preds keeps only columns with a distribution, checked by its guard"
            )]
            let rdist = right.distribution(rcol).expect("checked above");
            fn as_refs(preds: &[(CmpKind, Value)]) -> Vec<(CmpKind, &Value)> {
                preds.iter().map(|(k, v)| (*k, v)).collect()
            }
            let s_l = ldist.conjunction_fraction(&as_refs(&lpreds));
            let s_r = rdist.conjunction_fraction(&as_refs(&rpreds));
            let independent = s_l * s_r;
            if independent <= 0.0 || independent >= 1.0 {
                continue;
            }
            // Both windows applied to one shared axis: the intersection of
            // the predicate-filtered domains, evaluated on *both* sides'
            // distributions and averaged so the clamp is independent of
            // which side the greedy search treats as the current
            // intermediate (the same edge is costed from both directions).
            let mut joint_preds = as_refs(&lpreds);
            joint_preds.extend(as_refs(&rpreds));
            let intersected = 0.5
                * (ldist.conjunction_fraction(&joint_preds)
                    + rdist.conjunction_fraction(&joint_preds));
            let corrected = intersected.max(independent * independent.sqrt());
            clamp = clamp.min((corrected / independent).min(1.0));
        }
    }
    clamp
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`
/// with both sides clamped to at least one row, so an exact estimate (and
/// the 0-vs-0 case) scores 1.0.  The standard accuracy metric for
/// cardinality estimators (Moerkotte et al., "Preventing bad plans by
/// bounding the impact of cardinality estimation errors", VLDB 2009).
pub fn q_error(estimated: usize, actual: usize) -> f64 {
    let e = estimated.max(1) as f64;
    let a = actual.max(1) as f64;
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(op: CmpOp, v: Value) -> ColumnFilter {
        ColumnFilter {
            table: 0,
            column: 0,
            op,
            value: v,
        }
    }

    /// 1000 rows, integers 0..100 each appearing 10 times.
    fn analyzed_stats() -> TableStats {
        let values: Vec<Value> = (0..100)
            .flat_map(|v| std::iter::repeat_n(Value::Int32(v), 10))
            .collect();
        TableStats::from_columns(1000, vec![ColumnDistribution::build(values)])
    }

    #[test]
    fn equality_uses_observed_frequencies() {
        let s = analyzed_stats();
        let sel = filter_selectivity(&filter(CmpOp::Eq, Value::Int32(5)), &s);
        assert!((sel - 0.01).abs() < 1e-3, "{sel}");
        let sel = filter_selectivity(&filter(CmpOp::NotEq, Value::Int32(5)), &s);
        assert!((sel - 0.99).abs() < 1e-3, "{sel}");
    }

    #[test]
    fn equality_outside_domain_estimates_zero() {
        let s = analyzed_stats();
        assert_eq!(
            filter_selectivity(&filter(CmpOp::Eq, Value::Int32(500)), &s),
            0.0
        );
        let f = filter(CmpOp::Eq, Value::Int32(-3));
        assert_eq!(estimate_filtered_rows(&s, &[&f]), 0);
    }

    #[test]
    fn analyzed_empty_table_estimates_zero() {
        let s = TableStats::from_columns(0, vec![ColumnDistribution::default()]);
        assert_eq!(estimate_filtered_rows(&s, &[]), 0);
        let f = filter(CmpOp::Eq, Value::Int32(1));
        assert_eq!(estimate_filtered_rows(&s, &[&f]), 0);
        // An unanalyzed empty table keeps the conservative 1-row floor.
        let u = TableStats::unknown(0, 1);
        assert_eq!(estimate_filtered_rows(&u, &[]), 1);
    }

    #[test]
    fn zero_row_distribution_selectivities_are_finite_not_nan() {
        // Regression: a zero-row distribution must estimate through the
        // guarded ratio — a bare `matched / rows` division would hand the
        // planner NaN, and a NaN selectivity propagates into every cost
        // product, where `NaN < x` being always-false silently degenerates
        // the greedy join-order search.  This covers both the analyzed-empty
        // shape and a stale one (leftover MCV entries with rows reset).
        use hique_types::Bucket;
        let stale = ColumnDistribution {
            rows: 0,
            distinct: 5,
            mcv: vec![(Value::Int32(1), 3)],
            buckets: vec![Bucket {
                lo: Value::Int32(0),
                hi: Value::Int32(9),
                rows: 4,
                distinct: 4,
            }],
        };
        let s = TableStats::from_columns(0, vec![stale]);
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            let sel = filter_selectivity(&filter(op, Value::Int32(1)), &s);
            assert!(sel.is_finite(), "{op:?} estimated {sel}");
        }
        let f = filter(CmpOp::Eq, Value::Int32(1));
        assert_eq!(estimate_filtered_rows(&s, &[&f]), 0);
        let lo = filter(CmpOp::GtEq, Value::Int32(0));
        let hi = filter(CmpOp::Lt, Value::Int32(9));
        assert_eq!(estimate_filtered_rows(&s, &[&lo, &hi]), 0);
    }

    #[test]
    fn range_interpolates_within_histogram() {
        let s = analyzed_stats();
        let sel = filter_selectivity(&filter(CmpOp::Lt, Value::Int32(25)), &s);
        assert!((sel - 0.25).abs() < 0.02, "{sel}");
        let sel = filter_selectivity(&filter(CmpOp::GtEq, Value::Int32(25)), &s);
        assert!((sel - 0.75).abs() < 0.02, "{sel}");
        // Out-of-range constants clamp to nothing / everything.
        assert_eq!(
            filter_selectivity(&filter(CmpOp::Lt, Value::Int32(-5)), &s),
            0.0
        );
        let sel = filter_selectivity(&filter(CmpOp::Gt, Value::Int32(-5)), &s);
        assert!((sel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lt_and_lteq_differ_on_integer_columns() {
        let s = analyzed_stats();
        let lt = filter_selectivity(&filter(CmpOp::Lt, Value::Int32(50)), &s);
        let lteq = filter_selectivity(&filter(CmpOp::LtEq, Value::Int32(50)), &s);
        // `<= 50` admits exactly one more value (10 more rows of 1000).
        assert!(lteq > lt);
        assert!((lteq - lt - 0.01).abs() < 5e-3, "lt {lt} lteq {lteq}");
        // Same distinction through the full row estimate.
        let f_lt = filter(CmpOp::Lt, Value::Int32(50));
        let f_le = filter(CmpOp::LtEq, Value::Int32(50));
        let r_lt = estimate_filtered_rows(&s, &[&f_lt]);
        let r_le = estimate_filtered_rows(&s, &[&f_le]);
        assert_eq!(r_le - r_lt, 10, "lt {r_lt} lteq {r_le}");
    }

    #[test]
    fn same_column_filters_intersect() {
        let s = analyzed_stats();
        // 20 <= x < 40 keeps ~200 of 1000 rows.
        let f1 = filter(CmpOp::GtEq, Value::Int32(20));
        let f2 = filter(CmpOp::Lt, Value::Int32(40));
        let est = estimate_filtered_rows(&s, &[&f1, &f2]);
        assert!((190..=210).contains(&est), "{est}");
        // Contradictory bounds on one column are recognized as impossible.
        let f1 = filter(CmpOp::Gt, Value::Int32(70));
        let f2 = filter(CmpOp::Lt, Value::Int32(30));
        assert_eq!(estimate_filtered_rows(&s, &[&f1, &f2]), 0);
        // An equality that violates a range on the same column is impossible
        // too, while a consistent one keeps the equality estimate.
        let eq = filter(CmpOp::Eq, Value::Int32(50));
        let below = filter(CmpOp::Lt, Value::Int32(40));
        assert_eq!(estimate_filtered_rows(&s, &[&eq, &below]), 0);
        let above = filter(CmpOp::Gt, Value::Int32(40));
        assert_eq!(estimate_filtered_rows(&s, &[&eq, &above]), 10);
    }

    #[test]
    fn range_without_statistics_falls_back() {
        let s = TableStats::unknown(1000, 1);
        let sel = filter_selectivity(&filter(CmpOp::Lt, Value::Float64(25.0)), &s);
        assert!((sel - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.distinct_or(0, 42), 42);
        let sel = filter_selectivity(&filter(CmpOp::Eq, Value::Float64(25.0)), &s);
        assert!((sel - 0.1).abs() < 1e-9);
    }

    #[test]
    fn filters_on_different_columns_multiply_selectivities() {
        // Two columns with the same 0..100 x10 shape.
        let column = || {
            ColumnDistribution::build(
                (0..100)
                    .flat_map(|v| std::iter::repeat_n(Value::Int32(v), 10))
                    .collect(),
            )
        };
        let s = TableStats::from_columns(1000, vec![column(), column()]);
        let f1 = filter(CmpOp::Eq, Value::Int32(5));
        let mut f2 = filter(CmpOp::Lt, Value::Int32(50));
        f2.column = 1;
        let est = estimate_filtered_rows(&s, &[&f1, &f2]);
        assert!((4..=6).contains(&est), "~1000 * 0.01 * 0.5, got {est}");
        assert_eq!(estimate_filtered_rows(&s, &[]), 1000);
    }

    #[test]
    fn join_estimation() {
        // Key–foreign-key: 1M rows joining 100k distinct keys on both sides.
        assert_eq!(
            estimate_join_rows(1_000_000, 100_000, 100_000, 100_000),
            1_000_000
        );
        // Unknown distincts assume the larger side is a key.
        assert_eq!(estimate_join_rows(1000, 0, 100, 0), 100);
        // Inflationary join: few distinct values on both sides.
        assert_eq!(estimate_join_rows(10_000, 10, 10_000, 10), 10_000_000);
        // Empty inputs estimate an empty join.
        assert_eq!(estimate_join_rows(0, 10, 10_000, 10), 0);
    }

    #[test]
    fn join_estimation_uses_domain_overlap() {
        let keys = |range: std::ops::Range<i32>| {
            ColumnDistribution::build(range.map(Value::Int32).collect())
        };
        let l = keys(0..1000);
        let r = keys(0..1000);
        // Full overlap behaves like the classic formula.
        assert_eq!(
            estimate_join_rows_dist(1000, Some(&l), 0, 1000, Some(&r), 0, 1.0),
            1000
        );
        // Half overlap: only the shared half of each domain can match.
        let r_half = keys(500..1500);
        let est = estimate_join_rows_dist(1000, Some(&l), 0, 1000, Some(&r_half), 0, 1.0);
        assert!((400..=600).contains(&est), "{est}");
        // Disjoint domains cannot match at all.
        let r_far = keys(5000..6000);
        assert_eq!(
            estimate_join_rows_dist(1000, Some(&l), 0, 1000, Some(&r_far), 0, 1.0),
            0
        );
        // Missing distributions degrade to the hint-based formula.
        assert_eq!(
            estimate_join_rows_dist(1000, None, 100, 500, None, 100, 1.0),
            5000
        );
    }

    #[test]
    fn correlated_date_windows_clamp_join_estimates() {
        let dates =
            |lo: i32, hi: i32| ColumnDistribution::build((lo..hi).map(Value::Date).collect());
        let f = |op, v| ColumnFilter {
            table: 0,
            column: 0,
            op,
            value: Value::Date(v),
        };
        let left = TableStats::from_columns(2000, vec![dates(0, 2000)]);
        let right = TableStats::from_columns(2000, vec![dates(0, 2000)]);

        // Q3 shape: `left < D` against `right > D` — the predicate windows
        // are disjoint on the shared axis, so the clamp falls to the
        // square-root damping floor sqrt(s_l * s_r).
        let lf = [f(CmpOp::Lt, 1000)];
        let rf = [f(CmpOp::Gt, 1000)];
        let clamp = correlated_range_clamp(&lf, &left, &rf, &right);
        assert!((clamp - 0.5).abs() < 0.05, "{clamp}");
        // Direction-independent: the greedy search costs the same edge from
        // both sides, so swapped roles must produce the same clamp.
        let swapped = correlated_range_clamp(&rf, &right, &lf, &left);
        assert!((clamp - swapped).abs() < 1e-9, "{clamp} vs {swapped}");

        // Aligned windows (`> D` on both sides): the intersection equals
        // each window, so positively correlated predicates are not clamped.
        let rf_same = [f(CmpOp::Gt, 1000)];
        let clamp = correlated_range_clamp(&rf_same, &left, &rf_same, &right);
        assert_eq!(clamp, 1.0);

        // A predicate on only one side, a non-date predicate pair, or
        // disjoint observed domains: no correction.
        assert_eq!(correlated_range_clamp(&lf, &left, &[], &right), 1.0);
        let ints = TableStats::from_columns(
            2000,
            vec![ColumnDistribution::build(
                (0..2000).map(Value::Int32).collect(),
            )],
        );
        let int_f = [ColumnFilter {
            table: 0,
            column: 0,
            op: CmpOp::Gt,
            value: Value::Int32(1000),
        }];
        assert_eq!(correlated_range_clamp(&int_f, &ints, &int_f, &ints), 1.0);
        let far = TableStats::from_columns(2000, vec![dates(10_000, 12_000)]);
        let far_f = [f(CmpOp::Lt, 11_000)];
        assert_eq!(correlated_range_clamp(&lf, &left, &far_f, &far), 1.0);

        // The clamp scales the join estimate itself.
        let keys = ColumnDistribution::build((0..1000).map(Value::Int32).collect());
        let unclamped = estimate_join_rows_dist(1000, Some(&keys), 0, 1000, Some(&keys), 0, 1.0);
        let clamped = estimate_join_rows_dist(1000, Some(&keys), 0, 1000, Some(&keys), 0, 0.5);
        assert_eq!(clamped, unclamped / 2);
        // Out-of-range multipliers are ignored rather than amplifying.
        assert_eq!(
            estimate_join_rows_dist(1000, Some(&keys), 0, 1000, Some(&keys), 0, 7.0),
            unclamped
        );
        // Empty inputs still estimate zero whatever the clamp.
        assert_eq!(
            estimate_join_rows_dist(0, Some(&keys), 0, 1000, Some(&keys), 0, 0.5),
            0
        );
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(100, 100), 1.0);
        assert_eq!(q_error(10, 100), 10.0);
        assert_eq!(q_error(100, 10), 10.0);
        assert_eq!(q_error(0, 0), 1.0);
        assert_eq!(q_error(0, 5), 5.0);
        assert_eq!(q_error(5, 0), 5.0);
    }
}
