//! The query optimizer: from a [`BoundQuery`] to a [`PhysicalPlan`].
//!
//! Responsibilities (paper §IV):
//!
//! 1. estimate per-table cardinalities after filters;
//! 2. choose a greedy join order minimising intermediate results;
//! 3. detect join teams (all joins over one common key) and fuse them;
//! 4. pick the evaluation algorithm of every operator (merge / partition /
//!    hybrid hash-sort-merge join; sort / hybrid hash-sort / map
//!    aggregation) from the statistics and cache parameters;
//! 5. decide how each input is staged (filters, projection, sorting or
//!    partitioning) and emit the parameters the code templates need.

use hique_sql::analyze::{BoundQuery, ColumnFilter, OutputExpr, ScalarExpr};
use hique_storage::Catalog;
use hique_types::{HiqueError, Result, Schema};

use crate::config::PlannerConfig;
use crate::joinorder::{detect_join_team, greedy_order};
use crate::physical::{
    AggAlgorithm, AggregateSpec, JoinAlgorithm, JoinStep, JoinTeam, PhysicalPlan, StagedTable,
    StagingStrategy,
};
use crate::provider::CatalogProvider;
use crate::stats::{
    correlated_range_clamp, estimate_filtered_rows, estimate_join_rows_dist, TableStats,
};

/// Maximum number of distinct join-key values for which fine-grained
/// partitioning (a value→partition map) is preferred over coarse hashing.
const FINE_PARTITION_LIMIT: usize = 1024;

/// Parse, analyze and optimize `sql` against `catalog`: the front half of
/// every preparation, and the one plan all engines then execute.
pub fn plan_sql(sql: &str, catalog: &Catalog, config: &PlannerConfig) -> Result<PhysicalPlan> {
    let parsed = hique_sql::parse_query(sql)?;
    let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(catalog))?;
    plan_query(&bound, catalog, config)
}

/// Optimize a bound query into a physical plan.
pub fn plan_query(
    bound: &BoundQuery,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> Result<PhysicalPlan> {
    let n = bound.tables.len();

    // ---- Statistics ----------------------------------------------------
    let stats: Vec<TableStats> = bound
        .tables
        .iter()
        .map(|t| catalog.table(&t.name).map(TableStats::from_table))
        .collect::<Result<_>>()?;

    // ---- Filters grouped per table --------------------------------------
    let mut filters_per_table: Vec<Vec<ColumnFilter>> = vec![Vec::new(); n];
    for f in &bound.filters {
        filters_per_table[f.table].push(f.clone());
    }
    let estimated_rows: Vec<usize> = (0..n)
        .map(|t| {
            let refs: Vec<&ColumnFilter> = filters_per_table[t].iter().collect();
            estimate_filtered_rows(&stats[t], &refs)
        })
        .collect();

    // ---- Columns each table must keep after staging ----------------------
    let keep_per_table = compute_needed_columns(bound);

    // ---- Join ordering ----------------------------------------------------
    let estimate_pair = |current_est: usize, candidate: usize, edge: usize| -> usize {
        let j = &bound.joins[edge];
        let (cand_col, other_table, other_col) = if j.left_table == candidate {
            (j.left_column, j.right_table, j.right_column)
        } else {
            (j.right_column, j.left_table, j.left_column)
        };
        let cand_distinct = stats[candidate].distinct_or(cand_col, estimated_rows[candidate]);
        let other_distinct = stats[other_table].distinct_or(other_col, current_est);
        // Correlated range predicates across the edge (e.g. Q3's
        // o_orderdate/l_shipdate pair) shrink the predicate-filtered key
        // domains beyond what the raw column-domain overlap sees.
        let clamp = correlated_range_clamp(
            &filters_per_table[other_table],
            &stats[other_table],
            &filters_per_table[candidate],
            &stats[candidate],
        );
        // The left side may be an intermediate result; its join-key values
        // still come from the base table owning the other end of the edge,
        // so that column's distribution bounds the key domain overlap.
        estimate_join_rows_dist(
            current_est,
            stats[other_table].distribution(other_col),
            other_distinct,
            estimated_rows[candidate],
            stats[candidate].distribution(cand_col),
            cand_distinct,
            clamp,
        )
    };
    let order = greedy_order(&estimated_rows, &bound.joins, &estimate_pair);

    // ---- Join team detection -----------------------------------------------
    let team_members = if config.enable_join_teams {
        detect_join_team(n, &bound.joins)
    } else {
        None
    };

    // ---- Choose join algorithms and staging per table ------------------------
    let mut strategies: Vec<StagingStrategy> = vec![StagingStrategy::None; n];
    let mut joins: Vec<JoinStep> = Vec::new();
    let mut join_team: Option<JoinTeam> = None;
    let mut join_order = order.order.clone();

    // Staged tuple widths, used to size partitions against the L2 cache.
    let staged_width = |t: usize| -> usize {
        keep_per_table[t]
            .iter()
            .map(|&c| bound.tables[t].schema.column(c).dtype.width())
            .sum::<usize>()
            .max(1)
    };
    let partitions_for = |rows: usize, width: usize| -> usize {
        let bytes = rows.saturating_mul(width);
        let target = (config.l2_cache_bytes / 2).max(1);
        (bytes.div_ceil(target)).next_power_of_two().max(1)
    };

    if let Some(members) = &team_members {
        // Every join shares a common key: fuse into a join team.  Member
        // order: largest (probe) table first, as the generated deeply-nested
        // loops iterate the first table outermost.
        let mut members = members.clone();
        members.sort_by_key(|&(t, _)| std::cmp::Reverse(estimated_rows[t]));
        let algorithm = match config.force_join_algorithm {
            Some(JoinAlgorithm::Merge) => JoinAlgorithm::Merge,
            Some(JoinAlgorithm::HybridHashSortMerge) | Some(JoinAlgorithm::Partition) => {
                JoinAlgorithm::HybridHashSortMerge
            }
            _ => {
                // Merge when every member fits in the L2 cache once staged,
                // hybrid hash-sort otherwise.
                let all_fit = members.iter().all(|&(t, _)| {
                    estimated_rows[t].saturating_mul(staged_width(t)) <= config.l2_cache_bytes
                });
                if all_fit {
                    JoinAlgorithm::Merge
                } else {
                    JoinAlgorithm::HybridHashSortMerge
                }
            }
        };
        for &(t, key) in &members {
            let staged_key = staged_index(&keep_per_table[t], key);
            strategies[t] = match algorithm {
                JoinAlgorithm::Merge => StagingStrategy::Sort {
                    key_columns: vec![staged_key],
                },
                _ => StagingStrategy::PartitionThenSort {
                    key_column: staged_key,
                    partitions: partitions_for(estimated_rows[t], staged_width(t)),
                },
            };
        }
        join_order = members.iter().map(|&(t, _)| t).collect();
        join_team = Some(JoinTeam {
            members: join_order.clone(),
            key_columns: members
                .iter()
                .map(|&(t, key)| staged_index(&keep_per_table[t], key))
                .collect(),
            algorithm,
        });
    } else if n > 1 {
        // Binary join cascade following the greedy order.
        for (step_idx, &table) in join_order.iter().enumerate().skip(1) {
            let edge = order.edges[step_idx - 1].ok_or_else(|| {
                HiqueError::Plan(format!(
                    "query requires a cross product involving table '{}' which is not supported",
                    bound.tables[table].qualifier
                ))
            })?;
            let j = &bound.joins[edge];
            let (right_col_base, left_table, left_col_base) = if j.left_table == table {
                (j.left_column, j.right_table, j.right_column)
            } else {
                (j.right_column, j.left_table, j.left_column)
            };

            // Algorithm choice.
            let current_est = order.estimates[step_idx - 1];
            let left_bytes = current_est.saturating_mul(staged_width(left_table));
            let right_bytes = estimated_rows[table].saturating_mul(staged_width(table));
            let key_distinct = stats[table].distinct_or(right_col_base, usize::MAX);
            // Fine partitioning indexes its value directories by key image,
            // which stands for the key only when it is the whole key.
            let exact = [(table, right_col_base), (left_table, left_col_base)]
                .iter()
                .all(|&(t, c)| bound.tables[t].schema.column(c).dtype.has_exact_key_image());
            let algorithm = match config.force_join_algorithm {
                Some(JoinAlgorithm::Partition) if !exact => JoinAlgorithm::HybridHashSortMerge,
                Some(a) => a,
                None => {
                    if exact && key_distinct <= FINE_PARTITION_LIMIT {
                        JoinAlgorithm::Partition
                    } else if left_bytes <= config.l2_cache_bytes
                        && right_bytes <= config.l2_cache_bytes
                    {
                        JoinAlgorithm::Merge
                    } else {
                        JoinAlgorithm::HybridHashSortMerge
                    }
                }
            };

            // Staging of the newly joined (right) table.
            let right_staged_key = staged_index(&keep_per_table[table], right_col_base);
            strategies[table] = staging_for_join(
                algorithm,
                right_staged_key,
                partitions_for(estimated_rows[table], staged_width(table)),
                key_distinct,
            );
            // The first (build) table of the pipeline is staged the same way.
            if step_idx == 1 {
                let left_staged_key = staged_index(&keep_per_table[left_table], left_col_base);
                strategies[left_table] = staging_for_join(
                    algorithm,
                    left_staged_key,
                    partitions_for(estimated_rows[left_table], staged_width(left_table)),
                    stats[left_table].distinct_or(left_col_base, usize::MAX),
                );
            }

            // Join-key position within the joined-so-far schema.
            let left_key = joined_offset(
                &join_order[..step_idx],
                &keep_per_table,
                left_table,
                left_col_base,
            )?;
            joins.push(JoinStep {
                right: table,
                left_key,
                right_key: right_staged_key,
                algorithm,
                estimated_rows: order.estimates[step_idx],
            });
        }
    }

    // ---- Staged tables ----------------------------------------------------
    let staged: Vec<StagedTable> = (0..n)
        .map(|t| {
            let schema = bound.tables[t].schema.project(&keep_per_table[t]);
            StagedTable {
                table: t,
                table_name: bound.tables[t].name.clone(),
                filters: filters_per_table[t].clone(),
                keep: keep_per_table[t].clone(),
                schema,
                strategy: strategies[t].clone(),
                estimated_rows: estimated_rows[t],
            }
        })
        .collect();

    // ---- Joined schema and rebinding ---------------------------------------
    let joined_schema = join_order
        .iter()
        .fold(Schema::empty(), |acc, &t| acc.join(&staged[t].schema));

    let rebind_col = |combined_idx: usize| -> Result<usize> {
        let name = &bound.combined_schema.column(combined_idx).name;
        joined_schema.index_of(name)
    };
    let rebind_scalar =
        |e: &ScalarExpr| rebind_scalar_expr(e, &bound.combined_schema, &joined_schema);

    let group_columns: Vec<usize> = bound
        .group_by
        .iter()
        .map(|&g| rebind_col(g))
        .collect::<Result<_>>()?;

    // ---- Aggregation specification ---------------------------------------
    let aggregate = if bound.is_aggregate() {
        let aggregates = bound
            .aggregates
            .iter()
            .map(|a| {
                Ok(hique_sql::analyze::BoundAggregate {
                    func: a.func,
                    arg: a.arg.as_ref().map(&rebind_scalar).transpose()?,
                    dtype: a.dtype,
                })
            })
            .collect::<Result<Vec<_>>>()?;

        // Distinct-count estimates of the grouping columns: map back to the
        // base tables' statistics through the combined schema.
        let domain_estimates: Vec<usize> = bound
            .group_by
            .iter()
            .map(|&g| {
                let (t, c) = locate(bound, g);
                stats[t].distinct_or(c, 0)
            })
            .collect();
        let total_groups: Option<usize> = domain_estimates.iter().try_fold(1usize, |acc, &d| {
            if d == 0 {
                None
            } else {
                acc.checked_mul(d)
            }
        });

        // Map aggregation's value directories index by key image, which
        // stands for the key only when it is the whole key.
        let exact = bound
            .group_by
            .iter()
            .all(|&g| bound.combined_schema.column(g).dtype.has_exact_key_image());
        let algorithm = match config.force_agg_algorithm {
            Some(AggAlgorithm::Map) if !exact => AggAlgorithm::HybridHashSort,
            Some(a) => a,
            None => match total_groups {
                // A single global group: map aggregation degenerates to a
                // handful of accumulators.
                _ if group_columns.is_empty() => AggAlgorithm::Map,
                Some(groups) if exact && groups <= config.map_agg_group_limit(aggregates.len()) => {
                    AggAlgorithm::Map
                }
                _ => AggAlgorithm::HybridHashSort,
            },
        };

        Some(AggregateSpec {
            group_columns: group_columns.clone(),
            aggregates,
            algorithm,
        })
    } else {
        None
    };

    // For a single-table aggregate query the table's staging is dictated by
    // the aggregation algorithm (joins take precedence otherwise).
    if n == 1 && bound.joins.is_empty() {
        if let Some(spec) = &aggregate {
            let t = 0usize;
            strategies[t] = match spec.algorithm {
                AggAlgorithm::Map => StagingStrategy::None,
                AggAlgorithm::Sort => StagingStrategy::Sort {
                    key_columns: spec.group_columns.clone(),
                },
                AggAlgorithm::HybridHashSort => {
                    if let Some(&first) = spec.group_columns.first() {
                        StagingStrategy::PartitionThenSort {
                            key_column: first,
                            partitions: partitions_for(estimated_rows[t], staged_width(t)),
                        }
                    } else {
                        StagingStrategy::None
                    }
                }
            };
        }
    }
    // Re-assemble staged tables if the single-table aggregation overrode the
    // strategy (cheap; avoids plumbing mutability above).
    let staged: Vec<StagedTable> = staged
        .into_iter()
        .enumerate()
        .map(|(t, mut st)| {
            st.strategy = strategies[t].clone();
            st
        })
        .collect();

    // ---- Output expressions -------------------------------------------------
    let output: Vec<OutputExpr> = bound
        .output
        .iter()
        .map(|o| match o {
            OutputExpr::GroupColumn(ci) => Ok(OutputExpr::GroupColumn(rebind_col(*ci)?)),
            OutputExpr::Scalar(e) => Ok(OutputExpr::Scalar(rebind_scalar(e)?)),
            OutputExpr::Aggregate(i) => Ok(OutputExpr::Aggregate(*i)),
        })
        .collect::<Result<_>>()?;

    Ok(PhysicalPlan {
        query: bound.clone(),
        staged,
        join_order,
        joins,
        join_team,
        joined_schema,
        aggregate,
        output,
        output_schema: bound.output_schema.clone(),
        order_by: bound.order_by.clone(),
        limit: bound.limit,
        threads: config.threads.max(1),
        memory_budget_pages: config.memory_budget_pages,
    })
}

/// Columns of each table that must survive staging: join keys, grouping
/// columns, aggregate arguments and projected outputs.  Filters run during
/// the scan, so a column used *only* in a filter is dropped.
fn compute_needed_columns(bound: &BoundQuery) -> Vec<Vec<usize>> {
    let n = bound.tables.len();
    let mut needed: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    let add_combined = |needed: &mut Vec<std::collections::BTreeSet<usize>>, ci: usize| {
        let (t, c) = locate(bound, ci);
        needed[t].insert(c);
    };

    for j in &bound.joins {
        needed[j.left_table].insert(j.left_column);
        needed[j.right_table].insert(j.right_column);
    }
    for &g in &bound.group_by {
        add_combined(&mut needed, g);
    }
    let mut cols = Vec::new();
    for a in &bound.aggregates {
        if let Some(arg) = &a.arg {
            cols.clear();
            arg.collect_columns(&mut cols);
            for &ci in &cols {
                add_combined(&mut needed, ci);
            }
        }
    }
    for o in &bound.output {
        match o {
            OutputExpr::GroupColumn(ci) => add_combined(&mut needed, *ci),
            OutputExpr::Scalar(e) => {
                cols.clear();
                e.collect_columns(&mut cols);
                for &ci in &cols {
                    add_combined(&mut needed, ci);
                }
            }
            OutputExpr::Aggregate(_) => {}
        }
    }
    needed
        .into_iter()
        .map(|s| {
            if s.is_empty() {
                // Keep at least one (the narrowest) column so staged records
                // are non-empty, e.g. `SELECT count(*) FROM t`.
                vec![0]
            } else {
                s.into_iter().collect()
            }
        })
        .collect()
}

/// Map a combined-schema column index to (table, table-local column).
fn locate(bound: &BoundQuery, combined_idx: usize) -> (usize, usize) {
    let mut base = 0usize;
    for (t, table) in bound.tables.iter().enumerate() {
        if combined_idx < base + table.schema.len() {
            return (t, combined_idx - base);
        }
        base += table.schema.len();
    }
    unreachable!("combined column index {combined_idx} out of range")
}

/// Position of base-table column `col` within the staged (projected) schema.
#[expect(
    clippy::expect_used,
    reason = "compute_needed_columns retains every join and group key by construction"
)]
fn staged_index(keep: &[usize], col: usize) -> usize {
    keep.iter()
        .position(|&k| k == col)
        .expect("join/group key retained by compute_needed_columns")
}

/// Offset of (`table`, base column `col`) inside the concatenation of staged
/// schemas for `placed` tables (in that order).
fn joined_offset(
    placed: &[usize],
    keep_per_table: &[Vec<usize>],
    table: usize,
    col: usize,
) -> Result<usize> {
    let mut off = 0usize;
    for &t in placed {
        if t == table {
            return Ok(off + staged_index(&keep_per_table[t], col));
        }
        off += keep_per_table[t].len();
    }
    Err(HiqueError::Plan(format!(
        "join references table {table} before it is placed in the join order"
    )))
}

fn staging_for_join(
    algorithm: JoinAlgorithm,
    key_column: usize,
    partitions: usize,
    key_distinct: usize,
) -> StagingStrategy {
    match algorithm {
        JoinAlgorithm::Merge => StagingStrategy::Sort {
            key_columns: vec![key_column],
        },
        JoinAlgorithm::Partition => StagingStrategy::PartitionFine {
            key_column,
            partitions: if key_distinct == usize::MAX {
                partitions
            } else {
                key_distinct
            },
        },
        JoinAlgorithm::HybridHashSortMerge => StagingStrategy::PartitionThenSort {
            key_column,
            partitions,
        },
    }
}

/// Rebind a scalar expression from one schema to another by column name.
pub fn rebind_scalar_expr(expr: &ScalarExpr, from: &Schema, to: &Schema) -> Result<ScalarExpr> {
    Ok(match expr {
        ScalarExpr::Column { index, dtype } => ScalarExpr::Column {
            index: to.index_of(&from.column(*index).name)?,
            dtype: *dtype,
        },
        ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
        ScalarExpr::Binary {
            op,
            left,
            right,
            dtype,
        } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(rebind_scalar_expr(left, from, to)?),
            right: Box::new(rebind_scalar_expr(right, from, to)?),
            dtype: *dtype,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::{Column, DataType, Row, Value};

    /// Catalog with orders (1k rows), lineitem (10k rows), customer (100).
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "customer",
            Schema::new(vec![
                Column::new("c_custkey", DataType::Int32),
                Column::new("c_mktsegment", DataType::Char(10)),
            ]),
        )
        .unwrap();
        cat.create_table(
            "orders",
            Schema::new(vec![
                Column::new("o_orderkey", DataType::Int32),
                Column::new("o_custkey", DataType::Int32),
                Column::new("o_orderdate", DataType::Date),
            ]),
        )
        .unwrap();
        cat.create_table(
            "lineitem",
            Schema::new(vec![
                Column::new("l_orderkey", DataType::Int32),
                Column::new("l_extendedprice", DataType::Float64),
                Column::new("l_discount", DataType::Float64),
                Column::new("l_shipdate", DataType::Date),
                Column::new("l_returnflag", DataType::Char(1)),
                Column::new("l_linestatus", DataType::Char(1)),
                Column::new("l_quantity", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..100 {
            cat.table_mut("customer")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i),
                    Value::Str(if i % 2 == 0 { "BUILDING" } else { "AUTOMOBILE" }.into()),
                ]))
                .unwrap();
        }
        for i in 0..1000 {
            cat.table_mut("orders")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 100),
                    Value::Date(9000 + (i % 300)),
                ]))
                .unwrap();
        }
        for i in 0..10_000 {
            cat.table_mut("lineitem")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 1000),
                    Value::Float64(100.0 + (i % 50) as f64),
                    Value::Float64(0.05),
                    Value::Date(9000 + (i % 400)),
                    Value::Str(if i % 4 == 0 { "R" } else { "N" }.into()),
                    Value::Str(if i % 2 == 0 { "O" } else { "F" }.into()),
                    Value::Float64((i % 40) as f64),
                ]))
                .unwrap();
        }
        for t in ["customer", "orders", "lineitem"] {
            cat.analyze_table(t).unwrap();
        }
        cat
    }

    #[test]
    fn single_table_aggregate_uses_map_for_small_domains() {
        let cat = catalog();
        let p = plan_sql(
            "select l_returnflag, l_linestatus, sum(l_quantity) as q, count(*) as n \
             from lineitem where l_shipdate <= '1998-12-01' \
             group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(p.staged.len(), 1);
        assert!(!p.has_joins());
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.algorithm, AggAlgorithm::Map);
        assert_eq!(p.staged[0].strategy, StagingStrategy::None);
        // Projection keeps only referenced columns: returnflag, linestatus,
        // quantity (+ nothing else; shipdate is filter-only).
        assert_eq!(p.staged[0].keep.len(), 3);
        assert_eq!(p.output_schema.len(), 4);
    }

    #[test]
    fn large_group_domain_switches_to_hybrid() {
        let cat = catalog();
        // Group on l_orderkey: 1000 distinct here, but shrink the cache so
        // the directories "overflow" it.
        let config = PlannerConfig {
            l2_cache_bytes: 16 * 1024,
            ..PlannerConfig::default()
        };
        let p = plan_sql(
            "select l_orderkey, sum(l_quantity) as q from lineitem group by l_orderkey",
            &cat,
            &config,
        )
        .unwrap();
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.algorithm, AggAlgorithm::HybridHashSort);
        assert!(matches!(
            p.staged[0].strategy,
            StagingStrategy::PartitionThenSort { .. }
        ));
    }

    #[test]
    fn join_plan_orders_by_size_and_stages_inputs() {
        let cat = catalog();
        let p = plan_sql(
            "select o.o_orderkey, l.l_extendedprice from orders o, lineitem l \
             where o.o_orderkey = l.l_orderkey and o.o_orderdate < '1995-01-01'",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert!(p.has_joins());
        assert_eq!(p.joins.len(), 1);
        assert!(p.join_team.is_none());
        // Both inputs staged with a join-compatible strategy.
        for st in &p.staged {
            assert!(!matches!(st.strategy, StagingStrategy::None));
        }
        // The joined schema contains the qualified key and payload columns.
        assert!(p.joined_schema.contains("o.o_orderkey"));
        assert!(p.joined_schema.contains("l.l_extendedprice"));
        // left_key/right_key point at the join key columns.
        let step = &p.joins[0];
        let left_name = &p.joined_schema.column(step.left_key).name;
        assert!(left_name.ends_with("orderkey"));
    }

    #[test]
    fn forced_join_algorithm_is_respected() {
        let cat = catalog();
        for algo in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            let p = plan_sql(
                "select o.o_orderkey from orders o, lineitem l where o.o_orderkey = l.l_orderkey",
                &cat,
                &PlannerConfig::default().with_join_algorithm(algo),
            )
            .unwrap();
            assert_eq!(p.joins[0].algorithm, algo);
        }
    }

    #[test]
    fn value_directories_are_never_planned_over_a_wide_string_key() {
        let cat = catalog();
        let fine = |p: &PhysicalPlan| {
            p.joins
                .iter()
                .any(|j| j.algorithm == JoinAlgorithm::Partition)
                || p.staged
                    .iter()
                    .any(|st| matches!(st.strategy, StagingStrategy::PartitionFine { .. }))
        };
        let join = |key: &str| {
            format!("select a.c_custkey from customer a, customer b where a.{key} = b.{key}")
        };
        let group = "select c_mktsegment, count(*) as n from customer group by c_mktsegment";
        for (config, join_algorithm) in [
            // Both sides fit the cache: merge instead of fine partitioning.
            (PlannerConfig::default(), JoinAlgorithm::Merge),
            (
                PlannerConfig::default()
                    .with_join_algorithm(JoinAlgorithm::Partition)
                    .with_agg_algorithm(AggAlgorithm::Map),
                JoinAlgorithm::HybridHashSortMerge,
            ),
        ] {
            // `c_mktsegment` is a Char(10) of two values: a small domain,
            // but its eight-byte image is not the whole key.
            let p = plan_sql(&join("c_mktsegment"), &cat, &config).unwrap();
            assert!(!fine(&p), "{config:?}");
            assert_eq!(p.joins[0].algorithm, join_algorithm);
            let p = plan_sql(group, &cat, &config).unwrap();
            let agg = p.aggregate.as_ref().unwrap();
            assert_eq!(agg.algorithm, AggAlgorithm::HybridHashSort, "{config:?}");
            // An integer key of a small domain keeps its directories.
            let p = plan_sql(&join("c_custkey"), &cat, &config).unwrap();
            assert!(fine(&p), "{config:?}");
        }
    }

    #[test]
    fn three_way_join_on_different_keys_is_a_cascade() {
        let cat = catalog();
        let p = plan_sql(
            "select c.c_custkey, sum(l.l_extendedprice * (1 - l.l_discount)) as revenue \
             from customer c, orders o, lineitem l \
             where c.c_custkey = o.o_custkey and o.o_orderkey = l.l_orderkey \
             group by c.c_custkey order by revenue desc limit 20",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert!(p.join_team.is_none(), "different keys must not form a team");
        assert_eq!(p.joins.len(), 2);
        assert_eq!(p.join_order.len(), 3);
        assert_eq!(p.limit, Some(20));
        assert_eq!(p.order_by, vec![(1, false)]);
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.group_columns.len(), 1);
        assert_eq!(agg.aggregates.len(), 1);
    }

    #[test]
    fn common_key_star_becomes_join_team() {
        let mut cat = Catalog::new();
        for name in ["fact", "d1", "d2", "d3"] {
            cat.create_table(
                name,
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new("v", DataType::Int32),
                ]),
            )
            .unwrap();
            let rows = if name == "fact" { 1000 } else { 100 };
            for i in 0..rows {
                cat.table_mut(name)
                    .unwrap()
                    .heap
                    .append_row(&Row::new(vec![Value::Int32(i % 100), Value::Int32(i)]))
                    .unwrap();
            }
            cat.analyze_table(name).unwrap();
        }
        let p = plan_sql(
            "select fact.v from fact, d1, d2, d3 \
             where fact.k = d1.k and fact.k = d2.k and fact.k = d3.k",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        let team = p.join_team.as_ref().expect("team expected");
        assert_eq!(team.members.len(), 4);
        assert!(p.joins.is_empty());
        // The largest table (fact) drives the team.
        assert_eq!(p.staged[p.join_order[0]].table_name, "fact");

        // Disabling teams falls back to a cascade.
        let p2 = plan_sql(
            "select fact.v from fact, d1, d2, d3 \
             where fact.k = d1.k and fact.k = d2.k and fact.k = d3.k",
            &cat,
            &PlannerConfig::default().with_join_teams(false),
        )
        .unwrap();
        assert!(p2.join_team.is_none());
        assert_eq!(p2.joins.len(), 3);
    }

    #[test]
    fn cross_product_is_rejected() {
        let cat = catalog();
        let err = plan_sql(
            "select o.o_orderkey from orders o, customer c",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HiqueError::Plan(_)));
    }

    #[test]
    fn count_star_only_query_keeps_one_column() {
        let cat = catalog();
        let p = plan_sql(
            "select count(*) as n from orders",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(p.staged[0].keep, vec![0]);
        assert!(p.aggregate.is_some());
        assert_eq!(p.output_schema.names(), vec!["n"]);
    }
}
