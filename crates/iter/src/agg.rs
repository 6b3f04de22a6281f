//! Aggregation iterators: sort, hybrid hash-sort and map aggregation.
//!
//! The iterator-engine implementations mirror the paper's three aggregation
//! algorithms (§V-B) while staying within the tuple-at-a-time model: the
//! input is pulled row by row through `next()` calls and every accumulator
//! update goes through boxed [`Value`]s.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use hique_plan::AggregateSpec;
use hique_sql::ast::AggFunc;
use hique_types::{result::sort_rows, Column, DataType, HiqueError, Result, Row, Schema, Value};

use crate::expr::eval_scalar;
use crate::iterator::{ExecContext, QueryIterator};
use crate::BoxedIterator;

/// A single aggregate accumulator.
#[derive(Debug, Clone)]
pub enum AggAccum {
    /// Running sum.
    Sum(f64),
    /// Running count.
    Count(i64),
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Running sum + count for AVG.
    Avg { sum: f64, count: i64 },
}

impl AggAccum {
    /// Fresh accumulator for the given function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggAccum::Sum(0.0),
            AggFunc::Count => AggAccum::Count(0),
            AggFunc::Min => AggAccum::Min(None),
            AggFunc::Max => AggAccum::Max(None),
            AggFunc::Avg => AggAccum::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one input value (None only for `COUNT(*)`).
    pub fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        match self {
            AggAccum::Sum(s) => {
                *s += arg
                    .ok_or_else(|| HiqueError::Execution("SUM requires an argument".into()))?
                    .as_f64()?;
            }
            AggAccum::Count(c) => *c += 1,
            AggAccum::Min(m) => {
                let v =
                    arg.ok_or_else(|| HiqueError::Execution("MIN requires an argument".into()))?;
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggAccum::Max(m) => {
                let v =
                    arg.ok_or_else(|| HiqueError::Execution("MAX requires an argument".into()))?;
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggAccum::Avg { sum, count } => {
                *sum += arg
                    .ok_or_else(|| HiqueError::Execution("AVG requires an argument".into()))?
                    .as_f64()?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value with the planned output type.
    pub fn finish(&self, dtype: DataType) -> Value {
        match self {
            AggAccum::Sum(s) => match dtype {
                DataType::Int64 => Value::Int64(*s as i64),
                DataType::Int32 => Value::Int32(*s as i32),
                _ => Value::Float64(*s),
            },
            AggAccum::Count(c) => Value::Int64(*c),
            AggAccum::Min(m) | AggAccum::Max(m) => m.clone().unwrap_or(Value::Float64(f64::NAN)),
            AggAccum::Avg { sum, count } => {
                if *count == 0 {
                    Value::Float64(f64::NAN)
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
        }
    }
}

/// Output schema of an aggregation: group columns followed by aggregates.
fn agg_output_schema(spec: &AggregateSpec, input: &Schema) -> Schema {
    let mut cols: Vec<Column> = spec
        .group_columns
        .iter()
        .map(|&c| input.column(c).clone())
        .collect();
    for (i, a) in spec.aggregates.iter().enumerate() {
        cols.push(Column::new(format!("agg_{i}"), a.dtype));
    }
    Schema::new(cols)
}

/// Accumulate a row into a group's accumulators.
fn update_group(
    accums: &mut [AggAccum],
    spec: &AggregateSpec,
    row: &Row,
    ctx: &ExecContext,
) -> Result<()> {
    for (a, acc) in spec.aggregates.iter().zip(accums.iter_mut()) {
        let arg = match &a.arg {
            Some(e) => Some(eval_scalar(e, row, ctx)?),
            None => None,
        };
        ctx.add_generic_call(1);
        acc.update(arg.as_ref())?;
    }
    Ok(())
}

fn group_row(key: &[Value], accums: &[AggAccum], spec: &AggregateSpec) -> Row {
    let mut values: Vec<Value> = key.to_vec();
    for (acc, a) in accums.iter().zip(&spec.aggregates) {
        values.push(acc.finish(a.dtype));
    }
    Row::new(values)
}

/// The three aggregation strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Input sorted on the grouping columns; one linear scan.
    Sort,
    /// Hash-partition on the first grouping column, sort partitions, scan.
    HybridHashSort,
    /// Per-attribute value directories; single scan, no staging.
    Map,
}

/// Blocking aggregation iterator (computes all groups on `open()`).
pub struct AggregateIterator<'a> {
    child: BoxedIterator<'a>,
    spec: AggregateSpec,
    strategy: AggStrategy,
    ctx: ExecContext,
    schema: Schema,
    groups: Vec<Row>,
    pos: usize,
}

impl<'a> AggregateIterator<'a> {
    /// Aggregate `child` according to `spec` using `strategy`.
    pub fn new(
        child: BoxedIterator<'a>,
        spec: AggregateSpec,
        strategy: AggStrategy,
        ctx: ExecContext,
    ) -> Self {
        let schema = agg_output_schema(&spec, child.schema());
        AggregateIterator {
            child,
            spec,
            strategy,
            ctx,
            schema,
            groups: Vec::new(),
            pos: 0,
        }
    }

    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.ctx
            .add_generic_call(self.spec.group_columns.len() as u64);
        self.spec
            .group_columns
            .iter()
            .map(|&c| row.get(c).clone())
            .collect()
    }

    /// Pull one child row, charging the iterator-interface calls and tuple
    /// counters exactly as the materializing drain used to.
    fn pull(&mut self, width: usize) -> Result<Option<Row>> {
        match self.child.next()? {
            Some(row) => {
                self.ctx.add_calls(2);
                self.ctx.add_tuple(width);
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    /// Scan a run of rows sorted by group key, emitting one row per group.
    fn aggregate_sorted_run(&mut self, rows: &[Row]) -> Result<()> {
        let mut current_key: Option<Vec<Value>> = None;
        let mut accums: Vec<AggAccum> = Vec::new();
        for row in rows {
            let key = self.key_of(row);
            let same = current_key.as_ref() == Some(&key);
            if !same {
                if let Some(k) = current_key.take() {
                    self.groups.push(group_row(&k, &accums, &self.spec));
                }
                current_key = Some(key);
                accums = self
                    .spec
                    .aggregates
                    .iter()
                    .map(|a| AggAccum::new(a.func))
                    .collect();
            }
            self.ctx
                .add_comparisons(self.spec.group_columns.len() as u64);
            update_group(&mut accums, &self.spec, row, &self.ctx)?;
        }
        if let Some(k) = current_key.take() {
            self.groups.push(group_row(&k, &accums, &self.spec));
        }
        Ok(())
    }

    /// Sort aggregation over an already-sorted child, streamed: one pulled
    /// row at a time through the group-boundary scan, so a spilled sort run
    /// below flows page-by-page straight into the accumulators without ever
    /// re-materializing as a row vector.
    fn stream_sorted(&mut self, width: usize) -> Result<()> {
        let mut current_key: Option<Vec<Value>> = None;
        let mut accums: Vec<AggAccum> = Vec::new();
        while let Some(row) = self.pull(width)? {
            let key = self.key_of(&row);
            let same = current_key.as_ref() == Some(&key);
            if !same {
                if let Some(k) = current_key.take() {
                    self.groups.push(group_row(&k, &accums, &self.spec));
                }
                current_key = Some(key);
                accums = self
                    .spec
                    .aggregates
                    .iter()
                    .map(|a| AggAccum::new(a.func))
                    .collect();
            }
            self.ctx
                .add_comparisons(self.spec.group_columns.len() as u64);
            update_group(&mut accums, &self.spec, &row, &self.ctx)?;
        }
        if let Some(k) = current_key.take() {
            self.groups.push(group_row(&k, &accums, &self.spec));
        }
        Ok(())
    }

    /// Hybrid hash-sort aggregation, streamed: rows scatter into hash
    /// partitions as they are pulled; the per-partition sorts then run
    /// across the context's pool (deterministic chunk order) and each
    /// sorted partition is scanned in partition order.
    fn stream_hybrid(&mut self, width: usize) -> Result<()> {
        if self.spec.group_columns.is_empty() {
            return self.stream_sorted(width);
        }
        let partitions = 64usize;
        self.ctx.add_partition_pass();
        let first = self.spec.group_columns[0];
        let mut parts: Vec<Vec<Row>> = vec![Vec::new(); partitions];
        while let Some(row) = self.pull(width)? {
            let mut h = DefaultHasher::new();
            row.get(first).hash(&mut h);
            self.ctx.add_hashes(1);
            parts[(h.finish() as usize) % partitions].push(row);
        }
        let keys: Vec<(usize, bool)> = self.spec.group_columns.iter().map(|&c| (c, true)).collect();
        let pool = *self.ctx.pool();
        // One owned task per partition, results in partition order — the
        // same rows the serial loop would sort, never clones of them.
        let sorted: Vec<Vec<Row>> = pool.map_owned(parts, |_, mut p| {
            sort_rows(&mut p, &keys);
            p
        });
        for part in &sorted {
            if part.is_empty() {
                continue;
            }
            self.ctx.add_sort_pass();
            self.aggregate_sorted_run(part)?;
        }
        Ok(())
    }

    /// Map aggregation, streamed: per-attribute value directories assigning
    /// dense identifiers, plus a map from the composed group identifier to
    /// accumulators, fed one pulled row at a time.  The iterator flavour
    /// keeps the directories as ordered maps of boxed values — the holistic
    /// engine replaces all of this with offset arithmetic over primitive
    /// directories.
    fn stream_map(&mut self, width: usize) -> Result<()> {
        let mut directories: Vec<BTreeMap<Value, usize>> =
            vec![BTreeMap::new(); self.spec.group_columns.len()];
        let mut groups: BTreeMap<Vec<usize>, (Vec<Value>, Vec<AggAccum>)> = BTreeMap::new();
        while let Some(row) = self.pull(width)? {
            let key = self.key_of(&row);
            let mut ids = Vec::with_capacity(key.len());
            for (d, v) in directories.iter_mut().zip(key.iter()) {
                let next = d.len();
                let id = *d.entry(v.clone()).or_insert(next);
                self.ctx.add_hashes(1);
                ids.push(id);
            }
            let entry = groups.entry(ids).or_insert_with(|| {
                (
                    key.clone(),
                    self.spec
                        .aggregates
                        .iter()
                        .map(|a| AggAccum::new(a.func))
                        .collect(),
                )
            });
            update_group(&mut entry.1, &self.spec, &row, &self.ctx)?;
        }
        let spec = self.spec.clone();
        self.groups.extend(
            groups
                .into_values()
                .map(|(k, accums)| group_row(&k, &accums, &spec)),
        );
        Ok(())
    }
}

impl QueryIterator for AggregateIterator<'_> {
    fn open(&mut self) -> Result<()> {
        self.ctx.add_calls(1);
        self.child.open()?;
        self.ctx.add_calls(1);
        let width = self.child.schema().tuple_size();

        // Streaming consumption: every strategy folds pulled rows straight
        // into its own state (accumulators, hash partitions, directories)
        // instead of materializing the child first — the child's rows,
        // possibly decoded page-at-a-time off a spilled sort run, are never
        // collected into an input vector here.
        self.groups.clear();
        match self.strategy {
            AggStrategy::Sort => self.stream_sorted(width)?,
            AggStrategy::HybridHashSort => self.stream_hybrid(width)?,
            AggStrategy::Map => self.stream_map(width)?,
        }
        self.child.close();
        self.ctx.add_calls(1);
        // Deterministic output order across strategies: sort by group key.
        let group_keys: Vec<(usize, bool)> = (0..self.spec.group_columns.len())
            .map(|i| (i, true))
            .collect();
        sort_rows(&mut self.groups, &group_keys);
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.ctx.add_calls(2);
        if self.pos < self.groups.len() {
            let row = self.groups[self.pos].clone();
            self.pos += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    fn close(&mut self) {
        self.ctx.add_calls(1);
        self.groups.clear();
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::{drain, ExecMode};
    use crate::scan::ScanIterator;
    use crate::sort::SortIterator;
    use hique_plan::{AggAlgorithm, StagedTable, StagingStrategy};
    use hique_sql::analyze::{BoundAggregate, ScalarExpr};
    use hique_storage::TableHeap;
    use hique_types::DataType;

    fn heap() -> TableHeap {
        let schema = Schema::new(vec![
            Column::new("grp", DataType::Int32),
            Column::new("val", DataType::Float64),
        ]);
        TableHeap::from_rows(
            schema,
            (0..1000)
                .map(|i| Row::new(vec![Value::Int32(i % 10), Value::Float64((i % 100) as f64)])),
        )
        .unwrap()
    }

    fn scan<'a>(heap: &'a TableHeap, ctx: &ExecContext) -> BoxedIterator<'a> {
        let staged = StagedTable {
            table: 0,
            table_name: "t".into(),
            filters: vec![],
            keep: vec![0, 1],
            schema: heap.schema().clone(),
            strategy: StagingStrategy::None,
            estimated_rows: 0,
        };
        Box::new(ScanIterator::new(heap, staged, ctx.clone()))
    }

    fn spec() -> AggregateSpec {
        AggregateSpec {
            group_columns: vec![0],
            aggregates: vec![
                BoundAggregate {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column {
                        index: 1,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Count,
                    arg: None,
                    dtype: DataType::Int64,
                },
                BoundAggregate {
                    func: AggFunc::Min,
                    arg: Some(ScalarExpr::Column {
                        index: 1,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Avg,
                    arg: Some(ScalarExpr::Column {
                        index: 1,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
                BoundAggregate {
                    func: AggFunc::Max,
                    arg: Some(ScalarExpr::Column {
                        index: 1,
                        dtype: DataType::Float64,
                    }),
                    dtype: DataType::Float64,
                },
            ],
            algorithm: AggAlgorithm::Map,
        }
    }

    fn run(strategy: AggStrategy) -> Vec<Row> {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Optimized);
        let child: BoxedIterator = if strategy == AggStrategy::Sort {
            Box::new(SortIterator::ascending(
                scan(&heap, &ctx),
                &[0],
                ctx.clone(),
            ))
        } else {
            scan(&heap, &ctx)
        };
        let mut agg = AggregateIterator::new(child, spec(), strategy, ctx.clone());
        drain(&mut agg, &ctx).unwrap()
    }

    #[test]
    fn all_strategies_agree() {
        let sort = run(AggStrategy::Sort);
        let hybrid = run(AggStrategy::HybridHashSort);
        let map = run(AggStrategy::Map);
        assert_eq!(sort.len(), 10);
        assert_eq!(sort, hybrid);
        assert_eq!(sort, map);
        // Spot-check group 0: values are (0, 10, ..., 90) repeated 10 times.
        let g0 = &sort[0];
        assert_eq!(g0.get(0), &Value::Int32(0));
        assert_eq!(g0.get(1), &Value::Float64(4500.0)); // sum
        assert_eq!(g0.get(2), &Value::Int64(100)); // count
        assert_eq!(g0.get(3), &Value::Float64(0.0)); // min
        assert_eq!(g0.get(4), &Value::Float64(45.0)); // avg
        assert_eq!(g0.get(5), &Value::Float64(90.0)); // max
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let heap = heap();
        let ctx = ExecContext::new(ExecMode::Generic);
        let mut s = spec();
        s.group_columns = vec![];
        let mut agg = AggregateIterator::new(scan(&heap, &ctx), s, AggStrategy::Map, ctx.clone());
        let rows = drain(&mut agg, &ctx).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(1000)); // count(*)
    }

    #[test]
    fn accumulator_finish_types() {
        let mut sum = AggAccum::new(AggFunc::Sum);
        sum.update(Some(&Value::Int32(3))).unwrap();
        sum.update(Some(&Value::Int32(4))).unwrap();
        assert_eq!(sum.finish(DataType::Int64), Value::Int64(7));
        assert_eq!(sum.finish(DataType::Float64), Value::Float64(7.0));
        assert!(sum.update(None).is_err());

        let mut count = AggAccum::new(AggFunc::Count);
        count.update(None).unwrap();
        count.update(Some(&Value::Int32(1))).unwrap();
        assert_eq!(count.finish(DataType::Int64), Value::Int64(2));

        let empty_avg = AggAccum::new(AggFunc::Avg);
        assert!(matches!(empty_avg.finish(DataType::Float64), Value::Float64(v) if v.is_nan()));
    }

    #[test]
    fn min_max_over_strings() {
        let mut min = AggAccum::new(AggFunc::Min);
        let mut max = AggAccum::new(AggFunc::Max);
        for s in ["pear", "apple", "zucchini"] {
            min.update(Some(&Value::Str(s.into()))).unwrap();
            max.update(Some(&Value::Str(s.into()))).unwrap();
        }
        assert_eq!(min.finish(DataType::Char(10)), Value::Str("apple".into()));
        assert_eq!(
            max.finish(DataType::Char(10)),
            Value::Str("zucchini".into())
        );
    }
}
