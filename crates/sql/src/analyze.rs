//! Semantic analysis: binding a parsed [`Query`] against table schemas.
//!
//! The analyzer resolves column references, type-checks and constant-folds
//! expressions, and classifies `WHERE` conjuncts into
//!
//! * **per-table filters** (`column op constant`) — applied during the data
//!   staging step of whichever engine runs the query, and
//! * **equi-join predicates** (`table_a.col = table_b.col`) — the only join
//!   form the paper's grammar supports.
//!
//! The result, [`BoundQuery`], is the input of the optimizer in
//! `hique-plan`; all three engines ultimately execute plans derived from it,
//! which is what makes their results comparable.

use hique_types::{
    tuple, value::civil_from_days, value::days_from_civil, DataType, HiqueError, Result, Schema,
    Value,
};

use crate::ast::{AggFunc, BinOp, CmpOp, Expr, Query};

/// Source of table schemas (implemented by the catalog in `hique-plan`).
pub trait SchemaProvider {
    /// The schema of `table`, if it exists.
    fn table_schema(&self, table: &str) -> Option<Schema>;
}

impl SchemaProvider for std::collections::HashMap<String, Schema> {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        self.get(&table.to_ascii_lowercase()).cloned()
    }
}

/// A typed, bound scalar expression over the combined `FROM` schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to a column of the combined input schema.
    Column {
        /// Index into the combined schema.
        index: usize,
        /// The column's type.
        dtype: DataType,
    },
    /// A constant.
    Literal(Value),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
        /// Result type.
        dtype: DataType,
    },
}

impl ScalarExpr {
    /// The expression's result type.
    pub fn dtype(&self) -> DataType {
        match self {
            ScalarExpr::Column { dtype, .. } => *dtype,
            ScalarExpr::Literal(v) => v.data_type(),
            ScalarExpr::Binary { dtype, .. } => *dtype,
        }
    }

    /// Collect the combined-schema column indexes referenced.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column { index, .. } => out.push(*index),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
        }
    }

    /// Evaluate against a slice of column values (iterator-engine path).
    pub fn eval_values(&self, values: &[Value]) -> Result<Value> {
        match self {
            ScalarExpr::Column { index, .. } => Ok(values[*index].clone()),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Binary {
                op,
                left,
                right,
                dtype,
            } => {
                let l = left.eval_values(values)?;
                let r = right.eval_values(values)?;
                eval_binary(*op, &l, &r, *dtype)
            }
        }
    }

    /// Evaluate as `f64` directly over an NSM record (no `Value` boxing);
    /// used by the columnar and holistic engines for numeric expressions.
    pub fn eval_f64_record(&self, record: &[u8], schema: &Schema) -> f64 {
        match self {
            ScalarExpr::Column { index, dtype } => {
                let off = schema.offset(*index);
                match dtype {
                    DataType::Int32 | DataType::Date => tuple::read_i32_at(record, off) as f64,
                    DataType::Int64 => tuple::read_i64_at(record, off) as f64,
                    DataType::Float64 => tuple::read_f64_at(record, off),
                    DataType::Char(_) => f64::NAN,
                }
            }
            ScalarExpr::Literal(v) => v.as_f64().unwrap_or(f64::NAN),
            ScalarExpr::Binary {
                op, left, right, ..
            } => {
                let l = left.eval_f64_record(record, schema);
                let r = right.eval_f64_record(record, schema);
                match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                }
            }
        }
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value, dtype: DataType) -> Result<Value> {
    // Date ± integer days.
    if let (Value::Date(d), BinOp::Add | BinOp::Sub) = (l, op) {
        if let Ok(days) = r.as_i64() {
            let shifted = if op == BinOp::Add {
                d + days as i32
            } else {
                d - days as i32
            };
            return Ok(Value::Date(shifted));
        }
    }
    let a = l.as_f64()?;
    let b = r.as_f64()?;
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(HiqueError::Execution("division by zero".into()));
            }
            a / b
        }
    };
    Ok(match dtype {
        DataType::Int32 => Value::Int32(out as i32),
        DataType::Int64 => Value::Int64(out as i64),
        DataType::Date => Value::Date(out as i32),
        _ => Value::Float64(out),
    })
}

/// A filter over a single table: `column op constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnFilter {
    /// Index of the table in [`BoundQuery::tables`].
    pub table: usize,
    /// Column index *within that table's schema*.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// The constant, coerced to the column's type.
    pub value: Value,
}

impl ColumnFilter {
    /// Apply the filter to a value read from the column.
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        self.op.matches(v.total_cmp(&self.value))
    }
}

/// An equi-join predicate between two tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquiJoin {
    /// Left table index in [`BoundQuery::tables`].
    pub left_table: usize,
    /// Column index within the left table's schema.
    pub left_column: usize,
    /// Right table index.
    pub right_table: usize,
    /// Column index within the right table's schema.
    pub right_column: usize,
}

/// A table bound from the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTable {
    /// Catalog name of the table.
    pub name: String,
    /// Qualifier used in the query (alias or table name).
    pub qualifier: String,
    /// The table's schema with columns qualified by `qualifier`.
    pub schema: Schema,
}

/// A bound aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument over the combined schema; `None` for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    /// Result type.
    pub dtype: DataType,
}

/// What an output column of the query computes.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputExpr {
    /// A grouping column (index into the combined schema); only present in
    /// aggregate queries.
    GroupColumn(usize),
    /// A scalar expression (non-aggregate queries).
    Scalar(ScalarExpr),
    /// The `i`-th aggregate of [`BoundQuery::aggregates`].
    Aggregate(usize),
}

/// The analyzer's output: a fully bound, type-checked query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Tables in `FROM` order.
    pub tables: Vec<BoundTable>,
    /// Per-table filters from the `WHERE` clause.
    pub filters: Vec<ColumnFilter>,
    /// Equi-join predicates from the `WHERE` clause.
    pub joins: Vec<EquiJoin>,
    /// Grouping columns as combined-schema indexes (empty when the query has
    /// no `GROUP BY`; an aggregate query with no grouping columns computes a
    /// single global group).
    pub group_by: Vec<usize>,
    /// Aggregate calls (empty for non-aggregate queries).
    pub aggregates: Vec<BoundAggregate>,
    /// Output columns in `SELECT` order.
    pub output: Vec<OutputExpr>,
    /// `ORDER BY` keys as (output column index, ascending).
    pub order_by: Vec<(usize, bool)>,
    /// `LIMIT`, if any.
    pub limit: Option<u64>,
    /// Concatenation of all table schemas, in `FROM` order, columns
    /// qualified by each table's qualifier.
    pub combined_schema: Schema,
    /// Schema of the query result.
    pub output_schema: Schema,
}

impl BoundQuery {
    /// True when the query computes aggregates (with or without `GROUP BY`).
    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty() || !self.group_by.is_empty()
    }

    /// Offset of table `t`'s first column inside the combined schema.
    pub fn table_column_base(&self, t: usize) -> usize {
        self.tables[..t].iter().map(|bt| bt.schema.len()).sum()
    }

    /// Map a (table, table-local column) pair to a combined-schema index.
    pub fn combined_index(&self, table: usize, column: usize) -> usize {
        self.table_column_base(table) + column
    }
}

/// Analyze a parsed query against the given schema provider.
pub fn analyze(query: &Query, provider: &dyn SchemaProvider) -> Result<BoundQuery> {
    if query.from.is_empty() {
        return Err(HiqueError::Analysis("FROM clause is required".into()));
    }
    // ---- Bind tables -------------------------------------------------
    let mut tables = Vec::new();
    for tref in &query.from {
        let schema = provider
            .table_schema(&tref.name)
            .ok_or_else(|| HiqueError::Analysis(format!("unknown table '{}'", tref.name)))?;
        let qualifier = tref.qualifier().to_ascii_lowercase();
        if tables.iter().any(|t: &BoundTable| t.qualifier == qualifier) {
            return Err(HiqueError::Analysis(format!(
                "duplicate table qualifier '{qualifier}'"
            )));
        }
        tables.push(BoundTable {
            name: tref.name.to_ascii_lowercase(),
            qualifier: qualifier.clone(),
            schema: schema.qualify(&qualifier),
        });
    }
    let combined_schema = tables
        .iter()
        .fold(Schema::empty(), |acc, t| acc.join(&t.schema));

    let binder = Binder {
        tables: &tables,
        combined: &combined_schema,
    };

    // ---- Classify WHERE conjuncts ------------------------------------
    let mut filters = Vec::new();
    let mut joins = Vec::new();
    for pred in &query.predicates {
        binder.classify_predicate(pred, &mut filters, &mut joins)?;
    }

    // ---- Group by -----------------------------------------------------
    let mut group_by = Vec::new();
    for g in &query.group_by {
        match g {
            Expr::Column(name) => group_by.push(combined_schema.index_of(name)?),
            other => {
                return Err(HiqueError::Unsupported(format!(
                    "GROUP BY supports plain columns only, got '{other}'"
                )))
            }
        }
    }

    // ---- Select list ---------------------------------------------------
    let has_aggregate = query.select.iter().any(|s| s.expr.contains_aggregate());
    if has_aggregate || !group_by.is_empty() {
        // Aggregate query: every item must be a grouping column or an
        // aggregate call.
        for item in &query.select {
            if !item.expr.contains_aggregate() {
                match &item.expr {
                    Expr::Column(name) => {
                        let idx = combined_schema.index_of(name)?;
                        if !group_by.contains(&idx) {
                            return Err(HiqueError::Analysis(format!(
                                "column '{name}' must appear in GROUP BY"
                            )));
                        }
                    }
                    other => {
                        return Err(HiqueError::Unsupported(format!(
                            "non-aggregate select item '{other}' in aggregate query"
                        )))
                    }
                }
            }
        }
    }

    let mut aggregates: Vec<BoundAggregate> = Vec::new();
    let mut output = Vec::new();
    let mut output_columns = Vec::new();
    for item in &query.select {
        // `SELECT *` expands to every column of the combined schema
        // (non-aggregate queries only).
        if item.expr == Expr::Column("*".into()) {
            if has_aggregate || !group_by.is_empty() {
                return Err(HiqueError::Analysis(
                    "SELECT * cannot be combined with aggregation".into(),
                ));
            }
            for (i, col) in combined_schema.columns().iter().enumerate() {
                output.push(OutputExpr::Scalar(ScalarExpr::Column {
                    index: i,
                    dtype: col.dtype,
                }));
                output_columns.push(hique_types::Column::new(col.name.clone(), col.dtype));
            }
            continue;
        }
        let name = item.output_name();
        if let Expr::Aggregate { func, arg } = &item.expr {
            let bound_arg = match arg {
                Some(e) => Some(binder.bind_scalar(e)?),
                None => None,
            };
            let dtype = aggregate_dtype(*func, bound_arg.as_ref());
            aggregates.push(BoundAggregate {
                func: *func,
                arg: bound_arg,
                dtype,
            });
            output.push(OutputExpr::Aggregate(aggregates.len() - 1));
            output_columns.push(hique_types::Column::new(name, dtype));
        } else if has_aggregate || !group_by.is_empty() {
            // Validated above to be a grouping column; expressions *over*
            // aggregates (e.g. `max(x) - 1`) are outside the dialect.
            let idx = match &item.expr {
                Expr::Column(n) => combined_schema.index_of(n)?,
                other => {
                    return Err(HiqueError::Unsupported(format!(
                        "expressions over aggregates are not supported: '{other}'"
                    )))
                }
            };
            let dtype = combined_schema.column(idx).dtype;
            output.push(OutputExpr::GroupColumn(idx));
            output_columns.push(hique_types::Column::new(name, dtype));
        } else {
            let bound = binder.bind_scalar(&item.expr)?;
            let dtype = bound.dtype();
            output.push(OutputExpr::Scalar(bound));
            output_columns.push(hique_types::Column::new(name, dtype));
        }
    }
    let output_schema = Schema::new(output_columns);

    // ---- Order by --------------------------------------------------------
    let mut order_by = Vec::new();
    for o in &query.order_by {
        let idx = match &o.expr {
            Expr::Column(name) => {
                // Prefer an output column (alias or name); fall back to a
                // grouping column's output position.
                if let Ok(i) = output_schema.index_of(name) {
                    i
                } else if let Ok(ci) = combined_schema.index_of(name) {
                    output
                        .iter()
                        .position(|oe| matches!(oe, OutputExpr::GroupColumn(g) if *g == ci))
                        .ok_or_else(|| {
                            HiqueError::Analysis(format!(
                                "ORDER BY column '{name}' is not in the select list"
                            ))
                        })?
                } else {
                    return Err(HiqueError::Analysis(format!(
                        "unknown ORDER BY column '{name}'"
                    )));
                }
            }
            other => {
                return Err(HiqueError::Unsupported(format!(
                    "ORDER BY supports columns/aliases only, got '{other}'"
                )))
            }
        };
        order_by.push((idx, o.asc));
    }

    Ok(BoundQuery {
        tables,
        filters,
        joins,
        group_by,
        aggregates,
        output,
        order_by,
        limit: query.limit,
        combined_schema,
        output_schema,
    })
}

fn aggregate_dtype(func: AggFunc, arg: Option<&ScalarExpr>) -> DataType {
    match func {
        AggFunc::Count => DataType::Int64,
        AggFunc::Avg => DataType::Float64,
        AggFunc::Sum => match arg.map(|a| a.dtype()) {
            Some(DataType::Float64) => DataType::Float64,
            Some(DataType::Int32) | Some(DataType::Int64) => DataType::Int64,
            _ => DataType::Float64,
        },
        AggFunc::Min | AggFunc::Max => arg.map(|a| a.dtype()).unwrap_or(DataType::Float64),
    }
}

struct Binder<'a> {
    tables: &'a [BoundTable],
    combined: &'a Schema,
}

impl Binder<'_> {
    /// Bind an expression over the combined schema, folding constants.
    fn bind_scalar(&self, expr: &Expr) -> Result<ScalarExpr> {
        match expr {
            Expr::Column(name) => {
                let index = self.combined.index_of(name)?;
                Ok(ScalarExpr::Column {
                    index,
                    dtype: self.combined.column(index).dtype,
                })
            }
            Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            Expr::IntervalDays(d) => Ok(ScalarExpr::Literal(Value::Int64(*d))),
            Expr::Aggregate { .. } => Err(HiqueError::Analysis(
                "aggregate call in scalar context".into(),
            )),
            Expr::Binary { op, left, right } => {
                let l = self.bind_scalar(left)?;
                let r = self.bind_scalar(right)?;
                // Constant folding (needed so that e.g.
                // `date '1998-12-01' - interval '90' day` becomes a single
                // Date constant the filter classifier can use).
                if let (ScalarExpr::Literal(lv), ScalarExpr::Literal(rv)) = (&l, &r) {
                    let dtype = binary_dtype(*op, lv.data_type(), rv.data_type())?;
                    let folded = eval_binary(*op, lv, rv, dtype)?;
                    return Ok(ScalarExpr::Literal(folded));
                }
                let dtype = binary_dtype(*op, l.dtype(), r.dtype())?;
                Ok(ScalarExpr::Binary {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                    dtype,
                })
            }
        }
    }

    /// Which table (and table-local column) a combined index belongs to.
    fn locate(&self, combined_index: usize) -> (usize, usize) {
        let mut base = 0usize;
        for (t, table) in self.tables.iter().enumerate() {
            if combined_index < base + table.schema.len() {
                return (t, combined_index - base);
            }
            base += table.schema.len();
        }
        unreachable!("combined index out of range")
    }

    fn classify_predicate(
        &self,
        pred: &crate::ast::Predicate,
        filters: &mut Vec<ColumnFilter>,
        joins: &mut Vec<EquiJoin>,
    ) -> Result<()> {
        let left = self.bind_scalar(&pred.left)?;
        let right = self.bind_scalar(&pred.right)?;
        match (&left, &right) {
            // column op column  → equi-join (must be `=` across tables)
            (ScalarExpr::Column { index: li, .. }, ScalarExpr::Column { index: ri, .. }) => {
                if pred.op != CmpOp::Eq {
                    return Err(HiqueError::Unsupported(format!(
                        "only equi-joins are supported, got '{}'",
                        pred.op
                    )));
                }
                let (lt, lc) = self.locate(*li);
                let (rt, rc) = self.locate(*ri);
                if lt == rt {
                    return Err(HiqueError::Unsupported(
                        "column-to-column predicates within one table are not supported".into(),
                    ));
                }
                joins.push(EquiJoin {
                    left_table: lt,
                    left_column: lc,
                    right_table: rt,
                    right_column: rc,
                });
                Ok(())
            }
            // column op constant (either side)
            (ScalarExpr::Column { index, dtype }, ScalarExpr::Literal(v)) => {
                let (t, c) = self.locate(*index);
                filters.push(ColumnFilter {
                    table: t,
                    column: c,
                    op: pred.op,
                    value: coerce_literal(v, *dtype)?,
                });
                Ok(())
            }
            (ScalarExpr::Literal(v), ScalarExpr::Column { index, dtype }) => {
                let (t, c) = self.locate(*index);
                filters.push(ColumnFilter {
                    table: t,
                    column: c,
                    op: flip(pred.op),
                    value: coerce_literal(v, *dtype)?,
                });
                Ok(())
            }
            _ => Err(HiqueError::Unsupported(format!(
                "unsupported predicate '{} {} {}'",
                pred.left, pred.op, pred.right
            ))),
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        other => other,
    }
}

fn coerce_literal(v: &Value, target: DataType) -> Result<Value> {
    // Strings compared against date columns are parsed as dates; against a
    // CHAR column they lose their trailing spaces, SQL's pad rule, since a
    // stored field is read back trimmed; numbers are widened/narrowed;
    // everything else must match.
    match (v, target) {
        (Value::Str(s), DataType::Date) => Ok(Value::Date(hique_types::value::parse_date(s)?)),
        (Value::Str(s), DataType::Char(_)) => Ok(Value::Str(s.trim_end_matches(' ').into())),
        _ => v.coerce_to(target),
    }
}

fn binary_dtype(op: BinOp, l: DataType, r: DataType) -> Result<DataType> {
    use DataType::*;
    // Date arithmetic: date ± integer-days stays a date.
    if l == Date && matches!(op, BinOp::Add | BinOp::Sub) && matches!(r, Int32 | Int64) {
        return Ok(Date);
    }
    if (!l.is_numeric() && l != Date || !r.is_numeric() && r != Date)
        && (matches!(l, Char(_)) || matches!(r, Char(_)))
    {
        return Err(HiqueError::Type(format!(
            "arithmetic over non-numeric types {l} and {r}"
        )));
    }
    Ok(match (l, r) {
        (Float64, _) | (_, Float64) => Float64,
        (Int64, _) | (_, Int64) => Int64,
        (Date, _) | (_, Date) => Int32,
        _ => Int32,
    })
}

/// Shift a date by whole civil months (used by the TPC-H query definitions:
/// `date '1995-01-01' + interval '3' month`).  Exposed here because the
/// analyzer's interval folding treats months as 30 days, which is fine for
/// the paper's workloads, but query definitions that need exact month
/// arithmetic can pre-compute bounds with this helper.
pub fn add_months(days_since_epoch: i32, months: i32) -> i32 {
    let (y, m, d) = civil_from_days(days_since_epoch);
    let total = y * 12 + (m - 1) + months;
    let ny = total.div_euclid(12);
    let nm = total.rem_euclid(12) + 1;
    // Clamp the day to the target month's length.
    let last = match nm {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => {
            if (ny % 4 == 0 && ny % 100 != 0) || ny % 400 == 0 {
                29
            } else {
                28
            }
        }
    };
    days_from_civil(ny, nm, d.min(last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use hique_types::Column;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "orders".to_string(),
            Schema::new(vec![
                Column::new("o_orderkey", DataType::Int32),
                Column::new("o_custkey", DataType::Int32),
                Column::new("o_orderdate", DataType::Date),
                Column::new("o_totalprice", DataType::Float64),
            ]),
        );
        m.insert(
            "lineitem".to_string(),
            Schema::new(vec![
                Column::new("l_orderkey", DataType::Int32),
                Column::new("l_quantity", DataType::Float64),
                Column::new("l_extendedprice", DataType::Float64),
                Column::new("l_discount", DataType::Float64),
                Column::new("l_shipdate", DataType::Date),
                Column::new("l_returnflag", DataType::Char(1)),
            ]),
        );
        m
    }

    fn bind(sql: &str) -> Result<BoundQuery> {
        analyze(&parse_query(sql)?, &provider())
    }

    #[test]
    fn binds_simple_projection_and_filter() {
        let b =
            bind("select o_orderkey, o_totalprice from orders where o_totalprice > 100").unwrap();
        assert_eq!(b.tables.len(), 1);
        assert_eq!(b.filters.len(), 1);
        assert!(b.joins.is_empty());
        assert!(!b.is_aggregate());
        assert_eq!(b.filters[0].table, 0);
        assert_eq!(b.filters[0].column, 3);
        assert_eq!(b.filters[0].value, Value::Float64(100.0));
        assert_eq!(b.output_schema.names(), vec!["o_orderkey", "o_totalprice"]);
    }

    #[test]
    fn classifies_join_and_filter_predicates() {
        let b = bind(
            "select o.o_orderkey from orders o, lineitem l \
             where o.o_orderkey = l.l_orderkey and l.l_shipdate > '1995-03-15' and 10 < o.o_totalprice",
        )
        .unwrap();
        assert_eq!(b.joins.len(), 1);
        assert_eq!(
            b.joins[0],
            EquiJoin {
                left_table: 0,
                left_column: 0,
                right_table: 1,
                right_column: 0
            }
        );
        assert_eq!(b.filters.len(), 2);
        // String literal coerced to Date for the date column.
        assert!(matches!(b.filters[0].value, Value::Date(_)));
        // Flipped literal-first comparison.
        assert_eq!(b.filters[1].op, CmpOp::Gt);
        assert_eq!(b.filters[1].column, 3);
    }

    #[test]
    fn select_star_expands() {
        let b = bind("select * from orders").unwrap();
        assert_eq!(b.output_schema.len(), 4);
        assert_eq!(b.output_schema.names()[0], "orders.o_orderkey");
    }

    #[test]
    fn aggregate_query_binds_groups_and_aggregates() {
        let b = bind(
            "select l_returnflag, sum(l_extendedprice * (1 - l_discount)) as rev, count(*) as n \
             from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
             group by l_returnflag order by l_returnflag",
        )
        .unwrap();
        assert!(b.is_aggregate());
        assert_eq!(b.group_by, vec![5]);
        assert_eq!(b.aggregates.len(), 2);
        assert_eq!(b.aggregates[0].func, AggFunc::Sum);
        assert_eq!(b.aggregates[0].dtype, DataType::Float64);
        assert_eq!(b.aggregates[1].func, AggFunc::Count);
        assert_eq!(b.output.len(), 3);
        assert_eq!(b.order_by, vec![(0, true)]);
        // The shipdate filter folded to a single Date constant.
        assert_eq!(b.filters.len(), 1);
        match &b.filters[0].value {
            Value::Date(d) => {
                let expected = hique_types::value::parse_date("1998-12-01").unwrap() - 90;
                assert_eq!(*d, expected);
            }
            other => panic!("expected date constant, got {other:?}"),
        }
    }

    #[test]
    fn order_by_alias_and_group_column() {
        let b = bind(
            "select l_returnflag, sum(l_quantity) as q from lineitem \
             group by l_returnflag order by q desc, l_returnflag asc",
        )
        .unwrap();
        assert_eq!(b.order_by, vec![(1, false), (0, true)]);
    }

    #[test]
    fn analysis_errors() {
        // Unknown table/column.
        assert!(bind("select x from nosuch").is_err());
        assert!(bind("select nope from orders").is_err());
        // Non-grouped column in aggregate query.
        assert!(
            bind("select o_custkey, sum(o_totalprice) from orders group by o_orderkey").is_err()
        );
        // Non-equi join.
        assert!(bind(
            "select o.o_orderkey from orders o, lineitem l where o.o_orderkey < l.l_orderkey"
        )
        .is_err());
        // Self-comparison inside one table.
        assert!(bind("select o_orderkey from orders where o_orderkey = o_custkey").is_err());
        // SELECT * with aggregation.
        assert!(bind("select * from orders group by o_orderkey").is_err());
        // ORDER BY something not in the output.
        assert!(bind("select o_orderkey from orders order by o_totalprice, nope").is_err());
        // Duplicate qualifier.
        assert!(
            bind("select o.o_orderkey from orders o, lineitem o where o.o_orderkey = 1").is_err()
        );
        // String arithmetic.
        assert!(bind("select l_returnflag + 1 from lineitem").is_err());
        // Aggregates nested in scalar context of WHERE.
        assert!(bind("select o_orderkey from orders where sum(o_totalprice) > 5").is_err());
    }

    #[test]
    fn eval_scalar_expressions() {
        let b = bind("select l_extendedprice * (1 - l_discount) from lineitem").unwrap();
        let expr = match &b.output[0] {
            OutputExpr::Scalar(e) => e,
            _ => panic!(),
        };
        assert_eq!(expr.dtype(), DataType::Float64);
        let values = vec![
            Value::Int32(1),
            Value::Float64(5.0),
            Value::Float64(100.0),
            Value::Float64(0.1),
            Value::Date(0),
            Value::Str("A".into()),
        ];
        let v = expr.eval_values(&values).unwrap();
        assert!((v.as_f64().unwrap() - 90.0).abs() < 1e-9);
        let mut cols = Vec::new();
        expr.collect_columns(&mut cols);
        assert_eq!(cols, vec![2, 3]);
        // Record-based evaluation agrees.
        let rec = hique_types::tuple::encode_record(&b.combined_schema, &values).unwrap();
        assert!((expr.eval_f64_record(&rec, &b.combined_schema) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn division_by_zero_and_date_shift() {
        let b = bind("select o_totalprice / 0 from orders");
        // Folding happens lazily at eval time for column/constant division,
        // but constant/constant folds at bind time and errors.
        assert!(b.is_ok());
        assert!(bind("select 1 / 0 from orders").is_err());
        assert_eq!(
            add_months(days_from_civil(1995, 1, 31), 1),
            days_from_civil(1995, 2, 28)
        );
        assert_eq!(
            add_months(days_from_civil(1995, 11, 15), 3),
            days_from_civil(1996, 2, 15)
        );
        assert_eq!(
            add_months(days_from_civil(1996, 1, 31), 1),
            days_from_civil(1996, 2, 29)
        );
    }

    #[test]
    fn count_distinct_types() {
        let b = bind("select count(*) from lineitem").unwrap();
        assert_eq!(b.aggregates[0].dtype, DataType::Int64);
        assert!(b.is_aggregate());
        assert!(b.group_by.is_empty());
    }

    fn analysis_error(sql: &str) -> String {
        match bind(sql) {
            Err(HiqueError::Analysis(msg)) => msg,
            other => panic!("{sql:?}: expected Analysis error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tables_and_columns_are_analysis_errors() {
        assert!(analysis_error("select x from missing").contains("unknown table 'missing'"));
        let msg = analysis_error("select nothere from orders");
        assert!(msg.contains("nothere"), "{msg}");
        // Unknown column inside a filter predicate.
        let msg = analysis_error("select o_orderkey from orders where ghost > 5");
        assert!(msg.contains("ghost"), "{msg}");
        // Unknown column inside an aggregate argument.
        let msg = analysis_error("select sum(ghost) from orders group by o_orderkey");
        assert!(msg.contains("ghost"), "{msg}");
        // Unknown qualifier: the column exists but the table reference doesn't.
        assert!(bind("select bogus.o_orderkey from orders").is_err());
    }

    #[test]
    fn unknown_order_and_group_columns_are_errors() {
        assert!(bind("select o_orderkey from orders order by ghost").is_err());
        assert!(bind("select o_orderkey from orders group by ghost").is_err());
    }

    #[test]
    fn duplicate_table_references_are_rejected() {
        // Same table twice without distinct aliases is ambiguous.
        assert!(bind("select o_orderkey from orders, orders").is_err());
    }

    #[test]
    fn unsupported_constructs_are_flagged_as_unsupported() {
        // Non-equi join predicate between two tables.
        let err =
            bind("select o.o_orderkey from orders o, lineitem l where o.o_orderkey < l.l_orderkey")
                .unwrap_err();
        assert!(matches!(err, HiqueError::Unsupported(_)), "{err:?}");
        // Expressions over aggregates (explicitly outside the dialect).
        let err = bind("select max(o_totalprice) - 1 from orders group by o_custkey").unwrap_err();
        assert!(
            matches!(err, HiqueError::Unsupported(_) | HiqueError::Analysis(_)),
            "{err:?}"
        );
    }

    #[test]
    fn type_mismatches_surface_with_both_types_named() {
        let err = bind("select o_orderkey from orders where o_orderdate > 'not-a-date'");
        assert!(err.is_err(), "bad date literal must not bind");
        let err = bind("select o_orderkey + 'abc' from orders");
        assert!(err.is_err(), "int + string must not bind");
    }
}
