//! The evaluate-query driver.
//!
//! The paper's generated program is one composed `evaluate_query` function:
//! stage every input, run the join cascade (materializing intermediate
//! results as temporary relations, or streaming the final join straight
//! into the output), aggregate, order/limit and emit.  Only the kernels
//! plugged into that skeleton change per query.  [`run`] is the skeleton,
//! written once over one resolved [`KernelSet`] — whether the generator
//! instantiated it from the plan or the bytecode VM resolved it from its
//! verified fragments — and runs the plan's staging strategies, join
//! algorithms (a join team in one call) and aggregation algorithm.
//! Everything around the kernels lives here: the
//! [`hique_pipeline::RunEnvelope`], staged-slot spilling between phases,
//! the streaming-or-materializing record sink, the one worker rule of the
//! output phase ([`hique_pipeline::PartitionSet::shares`]), cancellation
//! checks between steps, the four [`PhaseTimings`] phases and result
//! finalization.

use std::time::Instant;

use hique_par::ScopedPool;
use hique_pipeline::{RunEnvelope, SpillContext};
use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{
    result::finalize_rows, CancelToken, ExecOptions, ExecStats, HiqueError, PhaseTimings,
    QueryResult, Result, Row,
};

use crate::compiled::KernelSet;
use crate::relation::StagedRelation;
use crate::spill::StagedSlot;
use crate::staging::{stage_table, StagedInput};

/// What every kernel call works against for the length of one execution.
pub(crate) struct Run<'a> {
    /// The plan being evaluated.
    pub plan: &'a PhysicalPlan,
    /// The run's work counters; parallel kernels merge their per-worker
    /// sets into it in task order.
    pub stats: ExecStats,
    /// Worker pool of the plan's width.
    pub pool: ScopedPool,
    /// The statement's cancellation token.
    pub cancel: &'a CancelToken,
    /// Spill context of a budgeted run on a paged catalog.
    pub spill: Option<&'a SpillContext>,
}

/// Where a join step (or the final output scan) sends its records.
pub(crate) enum RecordSink<'a, D> {
    /// Materialize into the relation the next step consumes.
    Relation(&'a mut StagedRelation),
    /// Decode into result rows.
    Rows {
        decode: &'a mut D,
        rows: &'a mut Vec<Row>,
    },
    /// Count without materializing (`collect_rows == false`).
    Count(&'a mut u64),
}

impl<D: FnMut(&[u8]) -> Row> RecordSink<'_, D> {
    /// Consume one record of the step's output layout.
    #[inline]
    pub(crate) fn push(&mut self, record: &[u8]) {
        match self {
            RecordSink::Relation(out) => out.push(record),
            RecordSink::Rows { decode, rows } => rows.push(decode(record)),
            RecordSink::Count(n) => **n += 1,
        }
    }
}

/// Evaluate `plan` over `catalog` with its resolved kernel set.
pub fn run(
    kernels: &KernelSet,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    options: &ExecOptions,
) -> Result<QueryResult> {
    // The spill decision depends only on relation sizes, so results (and
    // work counters) are identical for every budget.
    let envelope = RunEnvelope::begin(
        catalog.buffer_pool(),
        catalog.storage().map(|s| s.temp()),
        plan.memory_budget_pages,
        &options.cancel,
    )?;
    let mut run = Run {
        plan,
        stats: ExecStats::new(),
        pool: ScopedPool::new(plan.threads),
        cancel: &options.cancel,
        spill: envelope.spill(),
    };
    let (cancel, spill) = (run.cancel, run.spill);
    let mut timings = PhaseTimings::new();

    // ---- Staging -----------------------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t0 = Instant::now();
    let mut staged: Vec<Option<StagedSlot>> = (0..plan.staged.len()).map(|_| None).collect();
    for &t in &plan.join_order {
        cancel.check()?;
        let (desc, scan) = (&plan.staged[t], &kernels.scans[t]);
        let heap = &catalog.table(&desc.table_name)?.heap;
        let input = stage_table(heap, scan, desc, &mut run.stats, &run.pool, cancel)?;
        staged[t] = Some(StagedSlot::stage(input, spill)?);
    }
    timings.record("staging", t0.elapsed());

    // ---- Joins --------------------------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t1 = Instant::now();
    let streams_to_sink = plan.aggregate.is_none();
    let mut decode = kernels.decoder();
    let mut rows: Vec<Row> = Vec::new();
    let mut counted: u64 = 0;
    #[expect(
        clippy::expect_used,
        reason = "staged-slot takes follow the plan's join order; every slot is filled by the staging pass above"
    )]
    let mut take = |t: usize| staged[t].take().expect("every input is staged once");
    // The right-hand inputs of each cascade step, in join order: a join
    // team is one step over all of its members.
    let steps: Vec<&[usize]> = match &plan.join_team {
        Some(team) => vec![&team.members[1..]],
        None => plan
            .joins
            .iter()
            .map(|j| std::slice::from_ref(&j.right))
            .collect(),
    };
    // The running intermediate stays a slot (possibly spilled) until its
    // consumer runs: each step materializes it (merge cursors and hash
    // builds need random access), joins, and re-stages the output — which
    // spills through the pool under a budget, the paper's temporary table
    // subject to the same LRU pressure as base pages — and streaming
    // consumers read it back page-at-a-time.  `None` once the last join has
    // streamed into the result.
    let mut current = Some(take(plan.join_order[0]));
    for (i, rights) in steps.iter().enumerate() {
        cancel.check()?;
        #[expect(
            clippy::expect_used,
            reason = "each cascade step consumes the intermediate the previous step produced"
        )]
        let left = current
            .take()
            .expect("intermediate feeds the next step")
            .into_input(spill)?;
        let rights: Vec<StagedInput> = rights
            .iter()
            .map(|&r| take(r).into_input(spill))
            .collect::<Result<_>>()?;
        let out_schema = rights
            .iter()
            .fold(left.relation.schema().clone(), |schema, right| {
                schema.join(right.relation.schema())
            });
        let mut out = StagedRelation::new(out_schema);
        let stream_this = streams_to_sink && i == steps.len() - 1;
        let mut sink = match (stream_this, options.collect_rows) {
            (false, _) => RecordSink::Relation(&mut out),
            (true, true) => RecordSink::Rows {
                decode: &mut decode,
                rows: &mut rows,
            },
            (true, false) => RecordSink::Count(&mut counted),
        };
        kernels.join(i, left, rights, &mut run, &mut sink)?;
        if !stream_this {
            run.stats.add_materialized(out.data_bytes());
            current = Some(StagedSlot::stage(StagedInput::unpartitioned(out), spill)?);
        }
    }
    timings.record("join", t1.elapsed());

    // ---- Aggregation / output -------------------------------------------------
    if let Some(spec) = &plan.aggregate {
        #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
        let t2 = Instant::now();
        cancel.check()?;
        let slot = current
            .take()
            .ok_or_else(|| HiqueError::Execution("aggregation input missing".into()))?;
        rows = kernels.aggregate(spec, slot, &mut run)?;
        timings.record("aggregation", t2.elapsed());
    } else if let Some(slot) = current.take() {
        // Non-aggregate result that did not stream out of a join: run the
        // output decoder over every record.
        #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
        let t3 = Instant::now();
        cancel.check()?;
        let set = slot.partitions(spill)?;
        if options.collect_rows {
            // One decoder per share of the set, rows appended in share
            // order (= serial record order); a spilled relation's one
            // reader decodes straight off pinned pool pages, one page
            // resident at a time, never re-materialized on its way out.
            for chunk in run
                .pool
                .map_items(&set.shares(run.pool.threads()), |_, share| {
                    let mut decode = kernels.decoder();
                    let mut rows = Vec::with_capacity(share.num_records());
                    share.for_each_record(|rec| rows.push(decode(rec)))?;
                    Ok::<_, HiqueError>(rows)
                })
            {
                rows.extend(chunk?);
            }
        } else {
            set.for_each_record(|_| counted += 1)?;
        }
        timings.record("output", t3.elapsed());
    }

    // ---- Finalize ---------------------------------------------------------------
    #[expect(clippy::disallowed_methods, reason = "phase timing (PhaseTimings)")]
    let t4 = Instant::now();
    finalize_rows(&mut rows, &plan.order_by, plan.limit);
    let Run { mut stats, .. } = run;
    stats.rows_out = if options.collect_rows || plan.aggregate.is_some() {
        rows.len() as u64
    } else {
        counted
    };
    timings.record("output", t4.elapsed());
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
    use crate::generator::generate;
    use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, PlannerConfig};
    use hique_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    /// Tables `r(k, v, tag)`, `s(k, w)` and `u(k, z)` with the given row
    /// counts, analyzed.
    fn catalog_with(r_rows: i32, s_rows: i32, u_rows: i32) -> Catalog {
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
        for t in ["s", "u"] {
            let payload = if t == "s" { "w" } else { "z" };
            cat.create_table(
                t,
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new(payload, DataType::Int32),
                ]),
            )
            .unwrap();
        }
        let mut append = |table: &str, values: Vec<Value>| {
            cat.table_mut(table)
                .unwrap()
                .heap
                .append_row(&Row::new(values))
                .unwrap();
        };
        for i in 0..r_rows {
            let tag = if i % 2 == 0 { "ev" } else { "od" };
            append(
                "r",
                vec![
                    Value::Int32(i % 20),
                    Value::Float64(i as f64),
                    Value::Str(tag.into()),
                ],
            );
        }
        for i in 0..s_rows {
            append("s", vec![Value::Int32(i % 20), Value::Int32(i)]);
        }
        for i in 0..u_rows {
            append("u", vec![Value::Int32(i), Value::Int32(100 + i)]);
        }
        for t in ["r", "s", "u"] {
            cat.analyze_table(t).unwrap();
        }
        cat
    }

    fn catalog() -> Catalog {
        catalog_with(200, 40, 20)
    }

    fn plan(sql: &str, cat: &Catalog, config: &PlannerConfig) -> PhysicalPlan {
        plan_sql(sql, cat, config).unwrap()
    }

    fn run(sql: &str, cat: &Catalog, config: &PlannerConfig) -> QueryResult {
        generate(&plan(sql, cat, config))
            .unwrap()
            .execute(cat)
            .unwrap()
    }

    fn run_iter(sql: &str, cat: &Catalog, config: &PlannerConfig) -> QueryResult {
        hique_iter::execute_plan(
            &plan(sql, cat, config),
            cat,
            hique_iter::ExecMode::Optimized,
            &ExecOptions::default(),
        )
        .unwrap()
    }

    const JOIN_SQL: &str = "select r.v, s.w from r, s where r.k = s.k";

    #[test]
    fn holistic_matches_iterator_engine_on_filters_and_projection() {
        let cat = catalog();
        let sql = "select v, tag from r where k = 3 and v < 100 order by v";
        let h = run(sql, &cat, &PlannerConfig::default());
        let i = run_iter(sql, &cat, &PlannerConfig::default());
        assert_eq!(h.rows, i.rows);
        assert_eq!(h.num_rows(), 5);
        // The holistic engine makes far fewer "function calls".
        assert!(h.stats.function_calls < i.stats.function_calls / 10);
    }

    #[test]
    fn holistic_matches_iterator_engine_on_joins_and_aggregation() {
        let cat = catalog();
        let sql = "select r.k, sum(r.v) as sv, count(*) as n from r, s \
                   where r.k = s.k group by r.k order by r.k limit 5";
        for algo in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            let config = PlannerConfig::default().with_join_algorithm(algo);
            let h = run(sql, &cat, &config);
            let i = run_iter(sql, &cat, &config);
            assert_eq!(h.rows, i.rows, "{algo:?}");
        }
    }

    #[test]
    fn aggregation_algorithms_agree_with_iterator_engine() {
        let cat = catalog();
        let sql =
            "select tag, sum(v) as sv, avg(v) as av, min(v) as mn, max(v) as mx, count(*) as n \
             from r group by tag order by tag";
        for algo in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            let config = PlannerConfig::default().with_agg_algorithm(algo);
            let h = run(sql, &cat, &config);
            let i = run_iter(sql, &cat, &config);
            assert_eq!(h.rows, i.rows, "{algo:?}");
            assert_eq!(h.num_rows(), 2);
        }
    }

    #[test]
    fn join_team_streams_and_matches_cascade() {
        let cat = catalog();
        let sql = "select r.v, s.w, u.z from r, s, u \
                   where r.k = s.k and r.k = u.k order by r.v, s.w limit 11";
        let team = run(sql, &cat, &PlannerConfig::default());
        let cascade = run(sql, &cat, &PlannerConfig::default().with_join_teams(false));
        let iter = run_iter(sql, &cat, &PlannerConfig::default().with_join_teams(false));
        assert_eq!(team.rows, cascade.rows);
        assert_eq!(team.rows, iter.rows);
        assert_eq!(team.num_rows(), 11);
    }

    #[test]
    fn count_only_execution_skips_row_materialization() {
        let cat = catalog();
        let generated = generate(&plan(JOIN_SQL, &cat, &PlannerConfig::default())).unwrap();
        let counted = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    collect_rows: false,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        let collected = generated.execute(&cat).unwrap();
        assert!(counted.rows.is_empty());
        assert_eq!(counted.stats.rows_out, collected.num_rows() as u64);
        // 200 r-rows, each matching 2 s-rows.
        assert_eq!(counted.stats.rows_out, 400);
    }

    #[test]
    fn parallel_execution_matches_serial_on_every_query_shape() {
        let cat = catalog();
        let queries = [
            // Scan/filter/project with ordered output.
            "select v, tag from r where k = 3 and v < 100 order by v",
            // Sorted staging + merge join + grouped aggregation.
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            // Three-way join (team and cascade both covered via config).
            "select r.v, s.w, u.z from r, s, u \
             where r.k = s.k and r.k = u.k order by r.v, s.w limit 11",
            // Global aggregate.
            "select count(*) as n, max(v) as mx from r where tag = 'ev'",
            // Empty result set.
            "select v from r where k > 9999 order by v",
        ];
        let mut configs = vec![PlannerConfig::default().with_join_teams(false)];
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
                let serial = run(sql, &cat, config);
                for threads in [2, 4] {
                    let par = run(sql, &cat, &config.clone().with_threads(threads));
                    assert_eq!(par.rows, serial.rows, "{sql} / {config:?} x{threads}");
                    // Per-worker counters sum exactly to the serial counts
                    // (rows_out included).
                    assert_eq!(par.stats, serial.stats, "{sql} / {config:?} x{threads}");
                }
            }
        }
    }

    /// The work counters `conformance/tests/golden.rs` pins: tuples,
    /// bytes, comparisons, hashes, calls and passes — not the pool's I/O,
    /// the spill and peak fields or the timings.
    fn work_counters(s: &ExecStats) -> [(&'static str, u64); 10] {
        [
            ("calls", s.function_calls),
            ("tuples", s.tuples_processed),
            ("bytes_touched", s.bytes_touched),
            ("bytes_materialized", s.bytes_materialized),
            ("comparisons", s.comparisons),
            ("hash_ops", s.hash_ops),
            ("sort_passes", s.sort_passes),
            ("partition_passes", s.partition_passes),
            ("vm_batches", s.vm_batches),
            ("rows_out", s.rows_out),
        ]
    }

    #[test]
    fn budgeted_execution_streams_spilled_temporaries_and_matches_unbounded() {
        // A paged catalog under a tiny budget: staged inputs and join
        // temporaries spill, their consumers stream them back
        // page-at-a-time, and results and work counters match the
        // unbudgeted serial execution for every thread count — the budget
        // decides where a temporary lives, never which kernel runs.
        const BUDGET: usize = 4;
        let queries = [
            // Single staged input feeding the output kernels (streamed).
            "select v, tag from r where v < 1500 order by v",
            // Join temporary feeding grouped aggregation (all algorithms).
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            // Global aggregate over a spilled input.
            "select count(*) as n, max(v) as mx from r",
        ];
        // A working set well past the budget (the shared test catalog's
        // 200-row tables never cross the spill threshold).
        let big_catalog = || catalog_with(2000, 200, 0);
        let plain = big_catalog();
        let mut paged = big_catalog();
        paged.spill_to_disk(BUDGET).unwrap();
        for sql in queries {
            for algo in [
                AggAlgorithm::Sort,
                AggAlgorithm::HybridHashSort,
                AggAlgorithm::Map,
            ] {
                let config = PlannerConfig::default().with_agg_algorithm(algo);
                let unbounded = run(sql, &plain, &config);
                for threads in [1usize, 4] {
                    let budgeted = run(
                        sql,
                        &paged,
                        &config
                            .clone()
                            .with_threads(threads)
                            .with_memory_budget_pages(BUDGET),
                    );
                    assert_eq!(budgeted.rows, unbounded.rows, "{sql} {algo:?} x{threads}");
                    assert_eq!(
                        work_counters(&budgeted.stats),
                        work_counters(&unbounded.stats),
                        "{sql} {algo:?} x{threads}: the budget moved a work counter"
                    );
                    assert!(
                        budgeted.stats.spilled_temporaries > 0,
                        "{sql} {algo:?} x{threads}: nothing spilled under an {BUDGET}-page budget"
                    );
                    // The pool's high-water mark proves page-at-a-time
                    // consumption never outgrew the budget.
                    assert!(
                        budgeted.stats.peak_resident_pages <= BUDGET as u64,
                        "{sql}: peak {} > budget {BUDGET}",
                        budgeted.stats.peak_resident_pages
                    );
                    assert!(budgeted.stats.io.pool_misses > 0, "{sql}: no pool traffic");
                    if sql == queries[0] {
                        // The non-aggregate output path streams the spilled
                        // staged input: the consumer holds ONE page of the
                        // spilled relation at a time, where whole-partition
                        // reload would have held the full range — which does
                        // not even fit the budget.
                        let spilled_pages =
                            1500_usize.div_ceil(hique_storage::records_per_page(12)) as u64;
                        assert!(
                            spilled_pages > BUDGET as u64,
                            "premise: the spilled input must outsize the budget"
                        );
                        assert_eq!(
                            budgeted.stats.spill_consumer_peak_pages, 1,
                            "{sql} x{threads}: output streaming re-materialized the partition"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn denied_spill_claim_queues_and_is_surfaced_in_stats() {
        // Regression for the silent-unbounded bug: with the admission cap at
        // one claim, a second budgeted execution must QUEUE behind the
        // holder (never proceed without spill capability) and report the
        // wait as spill_claim_denied once it runs.
        const BUDGET: usize = 4;
        let build = || catalog_with(2000, 0, 0);
        let plain = build();
        let mut paged = build();
        paged.spill_to_disk(BUDGET).unwrap();
        let temp = Arc::clone(paged.storage().expect("paged").temp());
        temp.set_max_claims(1);
        let sql = "select v, tag from r where v < 1500 order by v";
        let config = PlannerConfig::default().with_memory_budget_pages(BUDGET);
        let unbounded = run(sql, &plain, &PlannerConfig::default());

        // Uncontended execution: the claim is granted without waiting.
        let first = run(sql, &paged, &config);
        assert_eq!(first.stats.spill_claim_denied, 0);
        assert!(first.stats.spilled_temporaries > 0);
        assert_eq!(first.rows, unbounded.rows);

        // Interleaved: another budgeted execution's claim (stood in for by a
        // directly acquired SpillContext) holds the only slot.
        let blocker =
            SpillContext::acquire(&temp, BUDGET, CancelToken::disabled()).expect("first claim");
        assert_eq!(blocker.claim_denied(), 0);
        let second = std::thread::scope(|s| {
            let handle = s.spawn(|| run(sql, &paged, &config));
            // Give the execution time to reach the claim; it must block
            // there rather than finish unbudgeted.
            std::thread::sleep(std::time::Duration::from_millis(150));
            assert!(
                !handle.is_finished(),
                "losing execution must queue for admission, not run unbounded"
            );
            drop(blocker);
            handle.join().expect("queued execution completes")
        });
        assert_eq!(
            second.stats.spill_claim_denied, 1,
            "the queued claim must be surfaced in ExecStats"
        );
        assert!(second.stats.spilled_temporaries > 0, "budget still honored");
        assert!(second.stats.peak_resident_pages <= BUDGET as u64);
        assert_eq!(second.rows, unbounded.rows, "results unchanged by the wait");
    }

    #[test]
    fn cancelled_execution_surfaces_a_typed_error_not_a_panic() {
        let cat = catalog();
        let generated = generate(&plan(JOIN_SQL, &cat, &PlannerConfig::default())).unwrap();
        // Pre-cancelled token: the execution stops at the first check point.
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel,
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        assert!(err.is_retryable());
        // An expired deadline behaves the same; a generous one is inert.
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel: expired,
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let ok = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel: generous,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(ok.stats.cancelled, 0);
        assert_eq!(ok.stats.faults_injected, 0);
    }

    #[test]
    fn global_aggregate_and_phase_timings() {
        let cat = catalog();
        let res = run(
            "select count(*) as n, max(v) as mx from r where tag = 'ev'",
            &cat,
            &PlannerConfig::default(),
        );
        assert_eq!(res.num_rows(), 1);
        assert_eq!(res.rows[0].get(0), &Value::Int64(100));
        assert_eq!(res.rows[0].get(1), &Value::Float64(198.0));
        assert!(res.timings.get("staging").is_some());
        assert!(res.timings.get("aggregation").is_some());
    }
}
