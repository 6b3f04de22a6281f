//! Plan execution: building the iterator pipeline and running it.

use std::time::Instant;

use hique_par::ScopedPool;
use hique_pipeline::RunEnvelope;
use hique_plan::{AggAlgorithm, JoinAlgorithm, PhysicalPlan, StagingStrategy};
use hique_storage::Catalog;
use hique_types::{result::finalize_rows, ExecOptions, PhaseTimings, QueryResult, Result};

use crate::agg::{AggStrategy, AggregateIterator};
use crate::iterator::{ExecContext, ExecMode, QueryIterator};
use crate::join::{HybridJoinIterator, MergeJoinIterator, PartitionJoinIterator};
use crate::project::OutputIterator;
use crate::scan::ScanIterator;
use crate::sort::SortIterator;
use crate::BoxedIterator;

/// Execute a physical plan with the iterator engine.
///
/// `mode` selects between the paper's "generic iterators" and "optimized
/// iterators" implementations.  When `options.collect_rows` is `false` the
/// final result rows are only counted (`stats.rows_out`), not materialized
/// — matching the paper's micro-benchmark methodology of never
/// materializing query output; aggregate results are always collected.
/// `options.cancel` is polled at the engine's page-granularity points
/// (scan page fetches, spilled partition pulls, spill-admission waits,
/// output batches).
pub fn execute_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    mode: ExecMode,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let cancel = &options.cancel;
    // The blocking operators (sort runs, partition scatters) honor the
    // plan's worker count through the shared substrate's deterministic
    // fan-out, so `threads = 1 ≡ threads = N` holds for this engine too.
    let pool = ScopedPool::new(plan.threads);
    // Under a memory budget on a paged catalog, sort runs and hash
    // partitions above the threshold spill through the buffer pool (the
    // same size-only policy as the holistic engine).
    let envelope = RunEnvelope::begin(
        catalog.buffer_pool(),
        catalog.storage().map(|s| s.temp()),
        plan.memory_budget_pages,
        cancel,
    )?;
    let ctx = ExecContext::new(mode)
        .with_pool(pool)
        .with_spill(envelope.spill_shared())
        .with_cancel(cancel.clone());
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let started = Instant::now();

    // ---- Staged inputs ----------------------------------------------------
    let staged_iter = |t: usize, ctx: &ExecContext| -> Result<BoxedIterator<'_>> {
        let st = &plan.staged[t];
        let info = catalog.table(&st.table_name)?;
        let scan: BoxedIterator = Box::new(ScanIterator::new(&info.heap, st.clone(), ctx.clone()));
        Ok(match &st.strategy {
            StagingStrategy::Sort { key_columns } => {
                Box::new(SortIterator::ascending(scan, key_columns, ctx.clone()))
            }
            // Partitioning strategies are realised inside the join/agg
            // iterators themselves.
            _ => scan,
        })
    };

    // ---- Join pipeline -------------------------------------------------------
    let mut current: BoxedIterator = staged_iter(plan.join_order[0], &ctx)?;

    // Either the explicit binary cascade, or a cascade synthesised from the
    // join team (the iterator model has no fused multi-way join — that is
    // precisely the holistic engine's advantage in Figure 7(b)).
    let steps = plan.binary_steps();

    for (i, step) in steps.iter().enumerate() {
        let right = staged_iter(step.right, &ctx)?;
        current = match step.algorithm {
            JoinAlgorithm::Merge => {
                // Merge join needs the intermediate sorted on the new key.
                // The first step's left input and any merge-join output that
                // is already ordered on the same key can skip the sort.
                let left_sorted_already = i == 0
                    || (plan.join_team.is_some() && i > 0)
                    || matches!(
                        steps.get(i - 1),
                        Some(prev) if prev.algorithm == JoinAlgorithm::Merge
                            && prev.left_key == step.left_key
                    );
                let left: BoxedIterator = if left_sorted_already {
                    current
                } else {
                    Box::new(SortIterator::ascending(
                        current,
                        &[step.left_key],
                        ctx.clone(),
                    ))
                };
                Box::new(MergeJoinIterator::new(
                    left,
                    right,
                    step.left_key,
                    step.right_key,
                    ctx.clone(),
                ))
            }
            JoinAlgorithm::Partition => Box::new(PartitionJoinIterator::new(
                current,
                right,
                step.left_key,
                step.right_key,
                ctx.clone(),
            )),
            JoinAlgorithm::HybridHashSortMerge => {
                let partitions = match &plan.staged[step.right].strategy {
                    StagingStrategy::PartitionThenSort { partitions, .. } => *partitions,
                    _ => 64,
                };
                Box::new(HybridJoinIterator::new(
                    current,
                    right,
                    step.left_key,
                    step.right_key,
                    partitions,
                    ctx.clone(),
                ))
            }
        };
    }

    // ---- Aggregation -----------------------------------------------------------
    if let Some(spec) = &plan.aggregate {
        let (strategy, child): (AggStrategy, BoxedIterator) = match spec.algorithm {
            AggAlgorithm::Sort => {
                // Sort aggregation requires its input ordered on the group
                // columns; reuse the interesting order when the pipeline
                // already provides it, otherwise sort here.
                let sorted: BoxedIterator = Box::new(SortIterator::ascending(
                    current,
                    &spec.group_columns,
                    ctx.clone(),
                ));
                (AggStrategy::Sort, sorted)
            }
            AggAlgorithm::HybridHashSort => (AggStrategy::HybridHashSort, current),
            AggAlgorithm::Map => (AggStrategy::Map, current),
        };
        current = Box::new(AggregateIterator::new(
            child,
            spec.clone(),
            strategy,
            ctx.clone(),
        ));
    }

    // ---- Output, ordering, limit --------------------------------------------------
    let mut output = OutputIterator::new(current, plan, ctx.clone());
    output.open()?;
    let mut rows = Vec::new();
    let mut counted: u64 = 0;
    let keep_rows = options.collect_rows || plan.aggregate.is_some();
    while let Some(row) = output.next()? {
        // One check per page-sized batch of output rows keeps deadline
        // tokens (which read the clock) off the per-tuple path.
        if counted.is_multiple_of(256) {
            cancel.check()?;
        }
        counted += 1;
        if keep_rows {
            rows.push(row);
        }
    }
    output.close();
    finalize_rows(&mut rows, &plan.order_by, plan.limit);
    ctx.set_rows_out(if keep_rows {
        rows.len() as u64
    } else {
        counted
    });

    let mut timings = PhaseTimings::new();
    timings.record("total", started.elapsed());
    let mut stats = ctx.stats();
    envelope.finish(&mut stats);
    Ok(QueryResult {
        schema: plan.output_schema.clone(),
        rows,
        stats,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_types::{CancelToken, Column, DataType, HiqueError, Row, Schema, Value};

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
        cat.create_table(
            "u",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("z", DataType::Int32),
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
        for i in 0..20 {
            cat.table_mut("u")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Int32(100 + i)]))
                .unwrap();
        }
        for t in ["r", "s", "u"] {
            cat.analyze_table(t).unwrap();
        }
        cat
    }

    fn run(sql: &str, cat: &Catalog, config: &PlannerConfig, mode: ExecMode) -> QueryResult {
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(cat)).unwrap();
        let plan = plan_query(&bound, cat, config).unwrap();
        execute_plan(&plan, cat, mode, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn filter_and_projection_query() {
        let cat = catalog();
        let res = run(
            "select v, tag from r where k = 3 and v < 100 order by v",
            &cat,
            &PlannerConfig::default(),
            ExecMode::Generic,
        );
        assert_eq!(res.schema.names(), vec!["v", "tag"]);
        assert_eq!(res.num_rows(), 5); // k=3: v=3,23,43,63,83 (<100)
        assert_eq!(res.rows[0].get(0), &Value::Float64(3.0));
        assert!(res.stats.function_calls > 0);
        assert_eq!(res.stats.rows_out, 5);
    }

    #[test]
    fn join_with_aggregation_and_order() {
        let cat = catalog();
        for algo in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            let res = run(
                "select r.k, sum(r.v) as sv, count(*) as n from r, s \
                 where r.k = s.k group by r.k order by r.k limit 5",
                &cat,
                &PlannerConfig::default().with_join_algorithm(algo),
                ExecMode::Optimized,
            );
            assert_eq!(res.num_rows(), 5, "{algo:?}");
            // Each r.k matches 2 s rows; r has 10 rows per k.
            assert_eq!(res.rows[0].get(0), &Value::Int32(0));
            assert_eq!(res.rows[0].get(2), &Value::Int64(20));
        }
    }

    #[test]
    fn generic_mode_counts_more_calls_than_optimized() {
        let cat = catalog();
        let sql = "select r.k, sum(r.v) as sv from r, s where r.k = s.k group by r.k";
        let generic = run(sql, &cat, &PlannerConfig::default(), ExecMode::Generic);
        let optimized = run(sql, &cat, &PlannerConfig::default(), ExecMode::Optimized);
        assert_eq!(generic.rows, optimized.rows);
        assert!(generic.stats.function_calls > optimized.stats.function_calls);
    }

    #[test]
    fn three_way_join_team_falls_back_to_cascade() {
        let cat = catalog();
        let sql = "select r.v, s.w, u.z from r, s, u \
                   where r.k = s.k and r.k = u.k order by r.v limit 7";
        let with_team = run(sql, &cat, &PlannerConfig::default(), ExecMode::Optimized);
        let without_team = run(
            sql,
            &cat,
            &PlannerConfig::default().with_join_teams(false),
            ExecMode::Optimized,
        );
        assert_eq!(with_team.rows, without_team.rows);
        assert_eq!(with_team.num_rows(), 7);
    }

    #[test]
    fn aggregation_algorithms_agree_end_to_end() {
        let cat = catalog();
        let sql = "select tag, sum(v) as sv, avg(v) as av, count(*) as n from r group by tag order by tag";
        let mut results = Vec::new();
        for algo in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            results.push(run(
                sql,
                &cat,
                &PlannerConfig::default().with_agg_algorithm(algo),
                ExecMode::Generic,
            ));
        }
        assert_eq!(results[0].rows, results[1].rows);
        assert_eq!(results[0].rows, results[2].rows);
        assert_eq!(results[0].num_rows(), 2);
    }

    #[test]
    fn budgeted_iterator_execution_spills_and_matches_unbounded() {
        // A paged catalog under a tiny budget: merge-join sort runs and
        // hybrid hash partitions spill through the pool, stream back
        // page-at-a-time, and results match the memory-resident run for
        // every thread count.
        const BUDGET: usize = 2;
        let queries_and_configs = [
            (
                "select r.k, sum(r.v) as sv, count(*) as n from r, s \
                 where r.k = s.k group by r.k order by r.k",
                PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Merge),
            ),
            (
                "select r.v, s.w from r, s where r.k = s.k order by r.v, s.w limit 50",
                PlannerConfig::default().with_join_algorithm(JoinAlgorithm::HybridHashSortMerge),
            ),
            (
                "select tag, sum(v) as sv from r group by tag order by tag",
                PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Sort),
            ),
        ];
        let plain = catalog();
        let mut paged = catalog();
        paged.spill_to_disk(BUDGET).unwrap();
        for (sql, config) in queries_and_configs {
            let unbounded = run(sql, &plain, &config, ExecMode::Optimized);
            for threads in [1usize, 4] {
                let budgeted_config = config
                    .clone()
                    .with_threads(threads)
                    .with_memory_budget_pages(BUDGET);
                let budgeted = run(sql, &paged, &budgeted_config, ExecMode::Optimized);
                assert_eq!(budgeted.rows, unbounded.rows, "{sql} x{threads}");
                assert!(
                    budgeted.stats.spilled_temporaries > 0,
                    "{sql} x{threads}: nothing spilled under a {BUDGET}-page budget"
                );
                assert!(
                    budgeted.stats.peak_resident_pages <= BUDGET as u64,
                    "{sql} x{threads}: peak {} > budget {BUDGET}",
                    budgeted.stats.peak_resident_pages
                );
                let io = budgeted.stats.io;
                assert!(io.pool_hits + io.pool_misses > 0, "{sql}: no pool traffic");
                if sql.starts_with("select tag") {
                    // The sort-agg pipeline streams the spilled sort run:
                    // one page of decoded rows resident at a time, never the
                    // whole run.
                    assert_eq!(
                        budgeted.stats.spill_consumer_peak_pages, 1,
                        "{sql} x{threads}: sorted-run emit re-materialized the run"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_iterator_execution_matches_serial() {
        let cat = catalog();
        let queries = [
            "select v, tag from r where k = 3 and v < 100 order by v",
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k limit 5",
            "select r.v, s.w, u.z from r, s, u \
             where r.k = s.k and r.k = u.k order by r.v, s.w limit 11",
            "select tag, sum(v) as sv, avg(v) as av from r group by tag order by tag",
        ];
        let mut configs = vec![PlannerConfig::default()];
        for join in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            configs.push(PlannerConfig::default().with_join_algorithm(join));
        }
        for agg in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            configs.push(PlannerConfig::default().with_agg_algorithm(agg));
        }
        for sql in queries {
            for config in &configs {
                for mode in [ExecMode::Generic, ExecMode::Optimized] {
                    let serial = run(sql, &cat, &config.clone().with_threads(1), mode);
                    for threads in [2, 4] {
                        let par = run(sql, &cat, &config.clone().with_threads(threads), mode);
                        assert_eq!(par.rows, serial.rows, "{sql} / {config:?} x{threads}");
                        // The blocking operators derive their counters from
                        // totals, so the full counter set matches serial.
                        assert_eq!(par.stats, serial.stats, "{sql} / {config:?} x{threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn cancelled_iterator_execution_surfaces_a_typed_error() {
        let cat = catalog();
        let q = hique_sql::parse_query("select r.v, s.w from r, s where r.k = s.k").unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let plan = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        for mode in [ExecMode::Generic, ExecMode::Optimized] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let options = |cancel| ExecOptions {
                cancel,
                ..ExecOptions::default()
            };
            let err = execute_plan(&plan, &cat, mode, &options(cancel)).unwrap_err();
            assert!(matches!(err, HiqueError::Cancelled(_)), "{mode:?}: {err}");
            let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
            let ok = execute_plan(&plan, &cat, mode, &options(generous)).unwrap();
            assert_eq!(ok.stats.cancelled, 0, "{mode:?}");
        }
    }

    #[test]
    fn global_aggregate() {
        let cat = catalog();
        let res = run(
            "select count(*) as n, min(v) as mn, max(v) as mx from r where tag = 'ev'",
            &cat,
            &PlannerConfig::default(),
            ExecMode::Optimized,
        );
        assert_eq!(res.num_rows(), 1);
        assert_eq!(res.rows[0].get(0), &Value::Int64(100));
        assert_eq!(res.rows[0].get(1), &Value::Float64(0.0));
        assert_eq!(res.rows[0].get(2), &Value::Float64(198.0));
    }
}
