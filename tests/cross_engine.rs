//! Cross-engine equivalence: the iterator, DSM and holistic engines must
//! produce identical results for the same physical plan, across join
//! algorithms, aggregation algorithms and randomized data.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique::dsm::DsmDatabase;
use hique::iter::ExecMode;
use hique::plan::{plan_query, AggAlgorithm, CatalogProvider, JoinAlgorithm, PlannerConfig};
use hique::storage::Catalog;
use hique::types::{Column, DataType, QueryResult, Result, Row, Schema, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn build_catalog(r_rows: &[(i32, f64, &str)], s_rows: &[(i32, i32)]) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    catalog.create_table(
        "r",
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
            Column::new("tag", DataType::Char(4)),
        ]),
    )?;
    catalog.create_table(
        "s",
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("w", DataType::Int32),
        ]),
    )?;
    for &(k, v, tag) in r_rows {
        catalog.table_mut("r")?.heap.append_row(&Row::new(vec![
            Value::Int32(k),
            Value::Float64(v),
            Value::Str(tag.to_string()),
        ]))?;
    }
    for &(k, w) in s_rows {
        catalog
            .table_mut("s")?
            .heap
            .append_row(&Row::new(vec![Value::Int32(k), Value::Int32(w)]))?;
    }
    catalog.analyze_table("r")?;
    catalog.analyze_table("s")?;
    Ok(catalog)
}

fn run_all_engines(sql: &str, catalog: &Catalog, config: &PlannerConfig) -> Vec<QueryResult> {
    let parsed = hique::sql::parse_query(sql).unwrap();
    let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(catalog)).unwrap();
    let plan = plan_query(&bound, catalog, config).unwrap();
    let db = DsmDatabase::from_catalog(catalog).unwrap();
    vec![
        hique::iter::execute_plan(&plan, catalog, ExecMode::Generic, &Default::default()).unwrap(),
        hique::iter::execute_plan(&plan, catalog, ExecMode::Optimized, &Default::default())
            .unwrap(),
        hique::dsm::execute_plan(&plan, &db, &Default::default()).unwrap(),
        hique::holistic::execute_plan(&plan, catalog).unwrap(),
    ]
}

/// Compare result row sets, tolerating tiny floating point differences from
/// different accumulation orders.
fn assert_equivalent(results: &[QueryResult], context: &str) {
    let base = &results[0];
    for (i, other) in results.iter().enumerate().skip(1) {
        assert_eq!(
            base.rows.len(),
            other.rows.len(),
            "{context}: engine {i} row count"
        );
        for (a, b) in base.rows.iter().zip(&other.rows) {
            assert_eq!(a.len(), b.len(), "{context}: arity");
            for (va, vb) in a.values().iter().zip(b.values()) {
                match (va.as_f64(), vb.as_f64()) {
                    (Ok(fa), Ok(fb)) => assert!(
                        (fa - fb).abs() <= 1e-6 * (1.0 + fa.abs()),
                        "{context}: engine {i}: {fa} vs {fb}"
                    ),
                    _ => assert_eq!(va, vb, "{context}: engine {i}"),
                }
            }
        }
    }
}

fn default_rows() -> (Vec<(i32, f64, &'static str)>, Vec<(i32, i32)>) {
    let r = (0..500)
        .map(|i| (i % 40, i as f64 * 0.5, if i % 3 == 0 { "aa" } else { "bb" }))
        .collect();
    let s = (0..120).map(|i| (i % 60, i)).collect();
    (r, s)
}

#[test]
fn join_algorithms_agree_across_engines() {
    let (r, s) = default_rows();
    let catalog = build_catalog(&r, &s).unwrap();
    for algo in [
        JoinAlgorithm::Merge,
        JoinAlgorithm::Partition,
        JoinAlgorithm::HybridHashSortMerge,
    ] {
        let results = run_all_engines(
            "select r.k, r.v, s.w from r, s where r.k = s.k order by r.k, r.v, s.w",
            &catalog,
            &PlannerConfig::default().with_join_algorithm(algo),
        );
        assert!(results[0].num_rows() > 0);
        assert_equivalent(&results, &format!("{algo:?}"));
    }
}

#[test]
fn aggregation_algorithms_agree_across_engines() {
    let (r, s) = default_rows();
    let catalog = build_catalog(&r, &s).unwrap();
    for algo in [
        AggAlgorithm::Sort,
        AggAlgorithm::HybridHashSort,
        AggAlgorithm::Map,
    ] {
        let results = run_all_engines(
            "select tag, sum(v) as sv, avg(v) as av, min(v) as mn, max(v) as mx, count(*) as n \
             from r where k < 30 group by tag order by tag",
            &catalog,
            &PlannerConfig::default().with_agg_algorithm(algo),
        );
        assert_eq!(results[0].num_rows(), 2);
        assert_equivalent(&results, &format!("{algo:?}"));
    }
}

#[test]
fn join_plus_aggregation_with_expressions() {
    let (r, s) = default_rows();
    let catalog = build_catalog(&r, &s).unwrap();
    let results = run_all_engines(
        "select r.k, sum(r.v * (1 - 0.05)) as rev, count(*) as n from r, s \
         where r.k = s.k and r.v > 3 group by r.k order by rev desc, r.k limit 7",
        &catalog,
        &PlannerConfig::default(),
    );
    assert_eq!(results[0].num_rows(), 7);
    assert_equivalent(&results, "join+agg+limit");
}

#[test]
fn empty_filter_results_are_consistent() {
    let (r, s) = default_rows();
    let catalog = build_catalog(&r, &s).unwrap();
    let results = run_all_engines(
        "select r.k, s.w from r, s where r.k = s.k and r.v > 100000 order by r.k",
        &catalog,
        &PlannerConfig::default(),
    );
    assert_eq!(results[0].num_rows(), 0);
    assert_equivalent(&results, "empty");
}

/// Randomized data: the holistic engine agrees with the iterator engine on a
/// join + aggregation query for arbitrary key distributions, and the total of
/// per-group COUNT(*) equals the join cardinality. Seeded loop standing in
/// for the original proptest harness (unavailable offline); 16 cases, same
/// key/length distributions.
#[test]
fn engines_agree_on_random_data() {
    let mut rng = SmallRng::seed_from_u64(0xc405_5e17);
    for case in 0..16 {
        let r_keys: Vec<i32> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0..30i32))
            .collect();
        let s_keys: Vec<i32> = (0..rng.gen_range(1..100usize))
            .map(|_| rng.gen_range(0..30i32))
            .collect();
        let r: Vec<(i32, f64, &str)> = r_keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as f64, if i % 2 == 0 { "xx" } else { "yy" }))
            .collect();
        let s: Vec<(i32, i32)> = s_keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as i32))
            .collect();
        let catalog = build_catalog(&r, &s).unwrap();
        let results = run_all_engines(
            "select r.k, count(*) as n, sum(s.w) as sw from r, s where r.k = s.k \
             group by r.k order by r.k",
            &catalog,
            &PlannerConfig::default(),
        );
        assert_equivalent(&results, &format!("random case {case}"));

        // Expected join cardinality computed naively.
        let expected: i64 = r_keys
            .iter()
            .map(|rk| s_keys.iter().filter(|sk| *sk == rk).count() as i64)
            .sum();
        let total: i64 = results[0]
            .rows
            .iter()
            .map(|row| row.get(1).as_i64().unwrap())
            .sum();
        assert_eq!(expected, total, "join cardinality, case {case}");
    }
}

/// The sum of SUM(v) over all groups equals the filtered column total,
/// independent of the aggregation algorithm used. Seeded loop standing in
/// for the original proptest harness; 16 cases cycling the algorithms.
#[test]
fn group_sums_partition_the_total() {
    let mut rng = SmallRng::seed_from_u64(0x9a5_0bef);
    for case in 0..16 {
        let keys: Vec<i32> = (0..rng.gen_range(1..300usize))
            .map(|_| rng.gen_range(0..10i32))
            .collect();
        let r: Vec<(i32, f64, &str)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i % 17) as f64, "zz"))
            .collect();
        let catalog = build_catalog(&r, &[(0, 0)]).unwrap();
        let algo = [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ][case % 3];
        let parsed =
            hique::sql::parse_query("select k, sum(v) as sv from r group by k order by k").unwrap();
        let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(&catalog)).unwrap();
        let plan = plan_query(
            &bound,
            &catalog,
            &PlannerConfig::default().with_agg_algorithm(algo),
        )
        .unwrap();
        let result = hique::holistic::execute_plan(&plan, &catalog).unwrap();
        let total: f64 = result.rows.iter().map(|r| r.get(1).as_f64().unwrap()).sum();
        let expected: f64 = r.iter().map(|(_, v, _)| *v).sum();
        assert!(
            (total - expected).abs() < 1e-6,
            "case {case} ({algo:?}): {total} vs {expected}"
        );
        assert!(result.num_rows() <= 10);
    }
}
