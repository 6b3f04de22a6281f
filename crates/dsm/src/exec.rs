//! Column-at-a-time plan execution with full materialization of
//! intermediates (selection vectors, join alignments, gathered columns).
//!
//! Two pipeline-substrate properties extend to this engine:
//!
//! * **Partition parallelism** — selection vectors and join probes divide
//!   into contiguous chunks across the plan's worker pool; per-chunk outputs
//!   concatenate in chunk order, so `threads = 1 ≡ threads = N` bit-exactly.
//! * **Pool-backed intermediates** — under a memory budget on a paged
//!   source catalog, alignment vectors above the spill threshold are written
//!   through the buffer pool between join steps (the operator-at-a-time
//!   model's "BAT on disk") and read back through pin guards when the next
//!   operator consumes them.  The spill decision is size-only, so results
//!   are identical for every budget and thread count.

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::{RunEnvelope, SpillContext};
use hique_plan::PhysicalPlan;
use hique_sql::analyze::{ColumnFilter, OutputExpr, ScalarExpr};
use hique_sql::ast::{AggFunc, BinOp};
use hique_storage::SpillHandle;
use hique_types::{
    result::finalize_rows, DataType, ExecOptions, ExecStats, HiqueError, PhaseTimings, QueryResult,
    Result, Row, Value,
};

use crate::column::{ColumnData, ColumnStore, DsmDatabase, Key};

/// A `u32` intermediate vector (selection or alignment) that is either
/// memory-resident or spilled through the buffer pool.
enum U32Slot {
    Mem(Vec<u32>),
    Spilled(SpillHandle),
}

impl U32Slot {
    /// Wrap a vector, spilling it when a context is active and the vector
    /// exceeds the size-only threshold.
    fn stage(v: Vec<u32>, ctx: Option<&SpillContext>) -> Result<U32Slot> {
        match ctx {
            Some(ctx) if ctx.should_spill(v.len() * 4) => {
                let mut buf = Vec::with_capacity(v.len() * 4);
                for x in &v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Ok(U32Slot::Spilled(ctx.spill(&buf, 4)?))
            }
            _ => Ok(U32Slot::Mem(v)),
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        match self {
            U32Slot::Mem(v) => v.len(),
            U32Slot::Spilled(h) => h.records,
        }
    }

    /// Materialize the vector (alignment consumers gather by random index,
    /// so a spilled slot reads its pages back through pin guards here).
    /// Memory-resident slots hand out a borrow — the common unspilled path
    /// never copies a vector just to read it.
    fn load(&self, ctx: Option<&SpillContext>) -> Result<Cow<'_, [u32]>> {
        match self {
            U32Slot::Mem(v) => Ok(Cow::Borrowed(v)),
            U32Slot::Spilled(h) => {
                let ctx = ctx.ok_or_else(|| {
                    HiqueError::Execution(
                        "spilled alignment vector loaded without a spill context".into(),
                    )
                })?;
                let _resident = ctx.meter().track(h.pages);
                let mut out = Vec::with_capacity(h.records);
                for i in 0..h.pages {
                    ctx.cancel().check()?;
                    let page = ctx.temp().page_guard(h, i)?;
                    for rec in page.data().chunks_exact(4) {
                        #[expect(
                            clippy::expect_used,
                            reason = "chunks_exact(4) yields 4-byte records"
                        )]
                        out.push(u32::from_le_bytes(rec.try_into().expect("4-byte record")));
                    }
                }
                Ok(Cow::Owned(out))
            }
        }
    }
}

/// Execute a physical plan with the DSM engine.  `options.cancel` is polled
/// between column operators (filter applications, join steps, gathers) and
/// at every spilled-vector page pull; when `options.collect_rows` is `false`
/// a non-aggregate result is only counted (`stats.rows_out`), never
/// gathered into rows.
pub fn execute_plan(
    plan: &PhysicalPlan,
    db: &DsmDatabase,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let cancel = &options.cancel;
    let mut stats = ExecStats::new();
    let mut timings = PhaseTimings::new();
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let started = Instant::now();
    let pool = ScopedPool::new(plan.threads);
    let envelope = RunEnvelope::begin(db.pool(), db.temp(), plan.memory_budget_pages, cancel)?;
    let spill = envelope.spill();

    // Resolve the decomposed tables in FROM order.
    let stores: Vec<&ColumnStore> = plan
        .query
        .tables
        .iter()
        .map(|t| db.table(&t.name))
        .collect::<Result<_>>()?;

    // joined-schema column index -> (table index, base column index)
    let mut joined_map: Vec<(usize, usize)> = Vec::new();
    for &t in &plan.join_order {
        for &c in &plan.staged[t].keep {
            joined_map.push((t, c));
        }
    }

    // ---- Selection (column-wise filters, materialized selection vectors) ----
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t0 = Instant::now();
    let mut selections: Vec<Vec<u32>> = Vec::with_capacity(stores.len());
    for (t, store) in stores.iter().enumerate() {
        stats.add_calls(1);
        cancel.check()?;
        let mut sel: Vec<u32> = (0..store.rows as u32).collect();
        for f in plan.staged[t].filters.iter() {
            cancel.check()?;
            sel = apply_filter(store, f, &sel, &pool, &mut stats)?;
        }
        stats.add_materialized(sel.len() * 4);
        selections.push(sel);
    }
    timings.record("selection", t0.elapsed());

    // ---- Joins (hash joins over key columns, alignments materialized) --------
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t1 = Instant::now();
    // alignment[t] = for each current output position, the row id in table t
    // — staged through the pool between steps under a memory budget.
    let mut alignment: HashMap<usize, U32Slot> = HashMap::new();
    let first = plan.join_order[0];
    alignment.insert(first, U32Slot::stage(selections[first].clone(), spill)?);

    let steps = plan.binary_steps();

    for step in &steps {
        stats.add_calls(1);
        cancel.check()?;
        let right_table = step.right;
        let right_base_col = plan.staged[right_table].keep[step.right_key];
        // For join teams the left key column lives in the first member's
        // staged schema; for cascades it is a joined-schema index.
        let (left_table, left_base_col) = if plan.join_team.is_some() {
            (first, plan.staged[first].keep[step.left_key])
        } else {
            joined_map[step.left_key]
        };

        // Build a hash table over the right side's selected rows.
        let right_col = &stores[right_table].columns[right_base_col];
        let mut table: HashMap<Key<'_>, Vec<u32>> = HashMap::new();
        for &rid in &selections[right_table] {
            stats.add_hashes(1);
            table
                .entry(right_col.key_at(rid as usize))
                .or_default()
                .push(rid);
        }
        stats.add_materialized(selections[right_table].len() * 12);

        // Probe with the current alignment's left-key column, chunk-parallel
        // with chunk-order concatenation (= the serial probe order).
        let left_rows = alignment
            .get(&left_table)
            .ok_or_else(|| HiqueError::Execution("join references an unjoined table".into()))?
            .load(spill)?;
        let left_col = &stores[left_table].columns[left_base_col];
        stats.add_hashes(left_rows.len() as u64);
        stats.tuples_processed += left_rows.len() as u64;
        let probe = |range: std::ops::Range<usize>| {
            let mut positions: Vec<u32> = Vec::new();
            let mut matches: Vec<u32> = Vec::new();
            for pos in range {
                let lrid = left_rows[pos];
                if let Some(found) = table.get(&left_col.key_at(lrid as usize)) {
                    for &rid in found {
                        positions.push(pos as u32);
                        matches.push(rid);
                    }
                }
            }
            (positions, matches)
        };
        let (new_positions, right_matches): (Vec<u32>, Vec<u32>) = if pool.is_serial() {
            probe(0..left_rows.len())
        } else {
            let ranges = chunk_ranges(left_rows.len(), pool.threads());
            let chunks: Vec<(Vec<u32>, Vec<u32>)> =
                pool.map_items(&ranges, |_, r| probe(r.clone()));
            let mut positions = Vec::new();
            let mut matches = Vec::new();
            for (p, m) in chunks {
                positions.extend(p);
                matches.extend(m);
            }
            (positions, matches)
        };

        // Re-materialize every existing alignment vector through the match
        // positions (full materialization, as MonetDB's operator-at-a-time
        // model requires), re-staging each through the pool under a budget.
        // The probe side's vector is already loaded — reuse it instead of
        // page-walking (or copying) it a second time.
        let mut new_alignment: HashMap<usize, U32Slot> = HashMap::new();
        for (&t, slot) in &alignment {
            let rows: Cow<'_, [u32]> = if t == left_table {
                Cow::Borrowed(left_rows.as_ref())
            } else {
                slot.load(spill)?
            };
            let gathered: Vec<u32> = new_positions.iter().map(|&p| rows[p as usize]).collect();
            stats.add_materialized(gathered.len() * 4);
            new_alignment.insert(t, U32Slot::stage(gathered, spill)?);
        }
        stats.add_materialized(right_matches.len() * 4);
        new_alignment.insert(right_table, U32Slot::stage(right_matches, spill)?);
        drop(left_rows);
        alignment = new_alignment;
    }
    let output_len = alignment
        .get(&first)
        .map(|v| v.len())
        .unwrap_or_else(|| selections[first].len());
    timings.record("join", t1.elapsed());

    // The gather phase reads each alignment vector repeatedly (once per
    // output column): load the final vectors once, through pin guards when
    // they sit in the spill space.
    let alignment: HashMap<usize, Vec<u32>> = alignment
        .into_iter()
        .map(|(t, slot)| match slot {
            U32Slot::Mem(v) => Ok((t, v)),
            spilled => spilled.load(spill).map(|v| (t, v.into_owned())),
        })
        .collect::<Result<_>>()?;

    // Helper: materialize a joined-schema column for the current alignment,
    // counting the gathered bytes exactly (every call site threads the real
    // counter set through — no clones that drop counts on the floor).
    let gather_joined = |joined_idx: usize, stats: &mut ExecStats| -> ColumnData {
        let (t, c) = joined_map[joined_idx];
        let rows = &alignment[&t];
        let g = stores[t].columns[c].gather(rows);
        stats.add_materialized(g.byte_size());
        g
    };

    // ---- Aggregation ------------------------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t2 = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    // The row count of a count-only output.
    let mut counted = None;
    if let Some(spec) = &plan.aggregate {
        stats.add_calls(1);
        cancel.check()?;
        // Materialize group-key columns and aggregate argument vectors.
        let mut group_cols: Vec<(ColumnData, DataType)> = Vec::new();
        for &g in &spec.group_columns {
            let dtype = plan.joined_schema.column(g).dtype;
            group_cols.push((gather_joined(g, &mut stats), dtype));
        }
        let mut arg_vectors: Vec<Option<Vec<f64>>> = Vec::new();
        for a in &spec.aggregates {
            arg_vectors.push(
                a.arg
                    .as_ref()
                    .map(|e| eval_vectorized(e, output_len, &mut |i| gather_joined(i, &mut stats))),
            );
        }

        #[derive(Clone)]
        struct Acc {
            sum: f64,
            count: i64,
            min: f64,
            max: f64,
        }
        let mut groups: HashMap<Vec<Key<'_>>, (Vec<Value>, Vec<Acc>)> = HashMap::new();
        for i in 0..output_len {
            stats.tuples_processed += 1;
            let key: Vec<Key<'_>> = group_cols.iter().map(|(c, _)| c.key_at(i)).collect();
            stats.add_hashes(1);
            let entry = groups.entry(key).or_insert_with(|| {
                (
                    group_cols
                        .iter()
                        .map(|(c, dt)| c.value_at(i, *dt))
                        .collect(),
                    vec![
                        Acc {
                            sum: 0.0,
                            count: 0,
                            min: f64::INFINITY,
                            max: f64::NEG_INFINITY
                        };
                        spec.aggregates.len()
                    ],
                )
            });
            for (a, acc) in arg_vectors.iter().zip(entry.1.iter_mut()) {
                match a {
                    Some(vec) => {
                        let v = vec[i];
                        acc.sum += v;
                        acc.count += 1;
                        if v < acc.min {
                            acc.min = v;
                        }
                        if v > acc.max {
                            acc.max = v;
                        }
                    }
                    None => acc.count += 1,
                }
            }
        }
        // Global aggregate over empty input still yields no group, matching
        // the other engines (SQL would yield one row, but none of the
        // benchmarked queries hit this).
        for (_, (key_values, accs)) in groups {
            let values: Vec<Value> = plan
                .output
                .iter()
                .map(|o| match o {
                    OutputExpr::GroupColumn(ci) => {
                        #[expect(clippy::unwrap_used, reason = "the spec lists every group column")]
                        let pos = spec.group_columns.iter().position(|g| g == ci).unwrap();
                        key_values[pos].clone()
                    }
                    OutputExpr::Aggregate(i) => {
                        let acc = &accs[*i];
                        let a = &spec.aggregates[*i];
                        match a.func {
                            AggFunc::Count => Value::Int64(acc.count),
                            AggFunc::Sum => Value::from_f64(acc.sum, a.dtype),
                            AggFunc::Avg => Value::Float64(acc.sum / acc.count.max(1) as f64),
                            AggFunc::Min => Value::from_f64(acc.min, a.dtype),
                            AggFunc::Max => Value::from_f64(acc.max, a.dtype),
                        }
                    }
                    OutputExpr::Scalar(_) => unreachable!("scalar output in aggregate plan"),
                })
                .collect();
            rows.push(Row::new(values));
        }
        timings.record("aggregation", t2.elapsed());
    } else if !options.collect_rows {
        // Count-only output: nothing is gathered or decoded.
        counted = Some(output_len as u64);
    } else {
        // Non-aggregate output: materialize each output column, then zip.
        stats.add_calls(1);
        cancel.check()?;
        let mut out_cols: Vec<(ColumnData, DataType)> = Vec::new();
        for (o, col) in plan.output.iter().zip(plan.output_schema.columns()) {
            out_cols.push(match o {
                OutputExpr::Scalar(ScalarExpr::Column { index, .. }) => {
                    (gather_joined(*index, &mut stats), col.dtype)
                }
                OutputExpr::Scalar(e) => (
                    ColumnData::F64(eval_vectorized(e, output_len, &mut |i| {
                        gather_joined(i, &mut stats)
                    })),
                    col.dtype,
                ),
                _ => unreachable!("aggregate output in non-aggregate plan"),
            });
        }
        for i in 0..output_len {
            rows.push(Row::new(
                out_cols.iter().map(|(c, dt)| c.value_at(i, *dt)).collect(),
            ));
        }
        timings.record("projection", t2.elapsed());
    }

    finalize_rows(&mut rows, &plan.order_by, plan.limit);
    stats.rows_out = counted.unwrap_or(rows.len() as u64);
    timings.record("total", started.elapsed());
    envelope.finish(&mut stats);
    Ok(QueryResult {
        schema: plan.output_schema.clone(),
        rows,
        stats,
        timings,
    })
}

/// Apply one filter column-at-a-time, producing a new selection vector.
///
/// The selection divides into contiguous chunks across `pool`; per-chunk
/// survivors concatenate in chunk order, reproducing the serial vector.
fn apply_filter(
    store: &ColumnStore,
    filter: &ColumnFilter,
    sel: &[u32],
    pool: &ScopedPool,
    stats: &mut ExecStats,
) -> Result<Vec<u32>> {
    let col = &store.columns[filter.column];
    let dtype = store.schema.column(filter.column).dtype;
    stats.add_comparisons(sel.len() as u64);
    let filter_chunk = |chunk: &[u32]| -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(chunk.len());
        match (col, dtype) {
            (ColumnData::Str(values), _) => {
                let needle = filter
                    .value
                    .as_str()
                    .ok_or_else(|| HiqueError::Execution("string filter on non-string".into()))?;
                for &i in chunk {
                    if filter.op.matches(values[i as usize].as_str().cmp(needle)) {
                        out.push(i);
                    }
                }
            }
            _ => {
                // Numbers compare as `Value`s: integers exactly, where
                // through f64 keys beyond 2^53 would collide.  A string
                // constant is a type error.
                filter.value.as_f64()?;
                for &i in chunk {
                    let value = col.value_at(i as usize, dtype);
                    if filter.op.matches(value.total_cmp(&filter.value)) {
                        out.push(i);
                    }
                }
            }
        }
        Ok(out)
    };
    if pool.is_serial() {
        return filter_chunk(sel);
    }
    let ranges = chunk_ranges(sel.len(), pool.threads());
    let chunks: Vec<Result<Vec<u32>>> =
        pool.map_items(&ranges, |_, r| filter_chunk(&sel[r.clone()]));
    let mut out = Vec::with_capacity(sel.len());
    for chunk in chunks {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Evaluate a scalar expression one column at a time, producing a
/// materialized `f64` vector of length `len`.  `gather` receives the real
/// counter set through its captured environment, so every gathered column
/// is counted exactly.
fn eval_vectorized(
    expr: &ScalarExpr,
    len: usize,
    gather: &mut dyn FnMut(usize) -> ColumnData,
) -> Vec<f64> {
    match expr {
        ScalarExpr::Column { index, .. } => {
            let col = gather(*index);
            (0..len).map(|i| col.f64_at(i)).collect()
        }
        ScalarExpr::Literal(v) => vec![v.as_f64().unwrap_or(f64::NAN); len],
        ScalarExpr::Binary {
            op, left, right, ..
        } => {
            let l = eval_vectorized(left, len, gather);
            let r = eval_vectorized(right, len, gather);
            l.iter()
                .zip(&r)
                .map(|(a, b)| match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_storage::Catalog;
    use hique_types::{CancelToken, Column, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
                Column::new("tag", DataType::Char(4)),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Int32),
            ]),
        )
        .unwrap();
        for i in 0..200 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 20),
                    Value::Float64(i as f64),
                    Value::Str(if i % 2 == 0 { "ev" } else { "od" }.into()),
                ]))
                .unwrap();
        }
        for i in 0..40 {
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i % 20), Value::Int32(i)]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        cat
    }

    fn run_both(sql: &str, cat: &Catalog) -> (QueryResult, QueryResult) {
        run_both_config(sql, cat, &PlannerConfig::default())
    }

    fn run_both_config(
        sql: &str,
        cat: &Catalog,
        config: &PlannerConfig,
    ) -> (QueryResult, QueryResult) {
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(cat)).unwrap();
        let plan = plan_query(&bound, cat, config).unwrap();
        let db = DsmDatabase::from_catalog(cat).unwrap();
        let options = ExecOptions::default();
        let dsm = execute_plan(&plan, &db, &options).unwrap();
        let iter = hique_iter::execute_plan(&plan, cat, hique_iter::ExecMode::Optimized, &options)
            .unwrap();
        (dsm, iter)
    }

    #[test]
    fn selection_and_projection_match_iterator_engine() {
        let cat = catalog();
        let (dsm, iter) = run_both(
            "select v, tag from r where k = 3 and v < 100 order by v",
            &cat,
        );
        assert_eq!(dsm.rows, iter.rows);
        assert!(dsm.stats.bytes_materialized > 0);
    }

    #[test]
    fn join_aggregation_matches_iterator_engine() {
        let cat = catalog();
        let (dsm, iter) = run_both(
            "select r.k, sum(r.v * (1 - 0.1)) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            &cat,
        );
        assert_eq!(dsm.rows.len(), 20);
        for (a, b) in dsm.rows.iter().zip(&iter.rows) {
            assert_eq!(a.get(0), b.get(0));
            assert!((a.get(1).as_f64().unwrap() - b.get(1).as_f64().unwrap()).abs() < 1e-6);
            assert_eq!(a.get(2), b.get(2));
        }
    }

    #[test]
    fn materialization_accounting_is_exact() {
        // Single-table aggregate with an expression argument: every
        // materialized intermediate is enumerable by hand, so the counter
        // must equal the exact sum — this pins the fix for the historical
        // under-count where expression-argument gathers were recorded into
        // a cloned (and discarded) counter set.
        let cat = catalog();
        let (dsm, _) = run_both(
            "select k, sum(v * 2) as d from r group by k order by k",
            &cat,
        );
        let expected = 200 * 4   // selection vector over r (200 row ids)
            + 200 * 4            // gathered group-key column k (I32)
            + 200 * 8; // gathered argument column v (F64) inside sum(v * 2)
        assert_eq!(dsm.stats.bytes_materialized, expected as u64);
    }

    #[test]
    fn parallel_dsm_execution_matches_serial_bit_exactly() {
        let cat = catalog();
        let queries = [
            "select v, tag from r where k = 3 and v < 100 order by v",
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            "select tag, max(v) as mx from r group by tag order by mx desc",
        ];
        for sql in queries {
            let (serial, _) = run_both_config(sql, &cat, &PlannerConfig::default().with_threads(1));
            for threads in [2usize, 4] {
                let (par, _) =
                    run_both_config(sql, &cat, &PlannerConfig::default().with_threads(threads));
                assert_eq!(par.rows, serial.rows, "{sql} x{threads}");
                assert_eq!(par.stats, serial.stats, "{sql} x{threads}");
            }
        }
    }

    #[test]
    fn budgeted_dsm_execution_spills_alignment_vectors() {
        // One page of budget: the post-join alignment vectors (400 entries,
        // 1600 bytes) sit above the ~1 KB spill threshold.
        const BUDGET: usize = 1;
        let sql = "select r.k, sum(r.v) as sv, count(*) as n from r, s \
                   where r.k = s.k group by r.k order by r.k";
        let plain = catalog();
        let (unbounded, _) = run_both(sql, &plain);
        let mut paged = catalog();
        paged.spill_to_disk(BUDGET).unwrap();
        for threads in [1usize, 4] {
            let config = PlannerConfig::default()
                .with_threads(threads)
                .with_memory_budget_pages(BUDGET);
            let (budgeted, _) = run_both_config(sql, &paged, &config);
            assert_eq!(budgeted.rows, unbounded.rows, "threads={threads}");
            assert!(
                budgeted.stats.spilled_temporaries > 0,
                "threads={threads}: no alignment vector spilled under a {BUDGET}-page budget"
            );
            assert!(
                budgeted.stats.peak_resident_pages <= BUDGET as u64,
                "peak {} > budget {BUDGET}",
                budgeted.stats.peak_resident_pages
            );
            let io = budgeted.stats.io;
            assert!(io.pool_hits + io.pool_misses > 0, "no pool traffic");
        }
    }

    #[test]
    fn cancelled_dsm_execution_surfaces_a_typed_error() {
        let cat = catalog();
        let sql = "select r.k, sum(r.v) as sv from r, s where r.k = s.k group by r.k";
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        let db = DsmDatabase::from_catalog(&cat).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let options = |cancel| ExecOptions {
            cancel,
            ..ExecOptions::default()
        };
        let err = execute_plan(&plan, &db, &options(cancel)).unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let ok = execute_plan(&plan, &db, &options(generous)).unwrap();
        assert_eq!(ok.stats.cancelled, 0);
        assert_eq!(ok.stats.faults_injected, 0);
    }

    #[test]
    fn scalar_expression_outputs() {
        let cat = catalog();
        let (dsm, iter) = run_both(
            "select v * 2 as d, tag from r where k = 1 order by d limit 4",
            &cat,
        );
        assert_eq!(dsm.rows, iter.rows);
        assert_eq!(dsm.num_rows(), 4);
    }

    #[test]
    fn order_desc_and_global_aggregate() {
        let cat = catalog();
        let (dsm, iter) = run_both(
            "select tag, max(v) as mx from r group by tag order by mx desc",
            &cat,
        );
        assert_eq!(dsm.rows, iter.rows);
        assert_eq!(dsm.rows[0].get(1), &Value::Float64(199.0));
    }
}
