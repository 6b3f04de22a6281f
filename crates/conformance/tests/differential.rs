//! The conformance gate: a fixed budget of seeded random queries, each
//! planned once and executed through all five engine modes (generic
//! iterators, optimized iterators, DSM, holistic), with canonicalized
//! results required to agree exactly (modulo float accumulation tolerance).
//!
//! Every failure message carries the per-query seed; reproduce one with
//! `cargo run --release -p hique-conformance --bin conformance -- --replay <seed>`.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::runner::run_engine;
use hique_conformance::{
    canonicalize, compare, run_suite, Engine, Fixture, QueryGenerator, RandomQuery,
};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, PlannerConfig, StagingStrategy};
use hique_server::{Server, ServerConfig};
use hique_storage::Catalog;
use hique_types::{Column, DataType, Row, Schema, Value};

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x41_1CDE; // fixed so failures are reproducible
const SUITE_QUERIES: usize = 120;

#[test]
fn random_queries_agree_across_all_engines() {
    let fixture = Fixture::generate(SF).unwrap();
    let report = run_suite(&fixture, SUITE_SEED, SUITE_QUERIES);
    assert_eq!(report.queries, SUITE_QUERIES);
    assert!(
        report.is_clean(),
        "cross-engine divergences found:\n{report}"
    );
    // The suite must actually exercise the engines, not compare empty sets.
    assert!(
        report.nonempty_queries >= SUITE_QUERIES / 2,
        "only {}/{} queries returned rows; generator drifted towards empty results",
        report.nonempty_queries,
        report.queries
    );
    assert!(report.total_rows > 1000, "suspiciously few baseline rows");
}

/// The plan vocabulary is what the optimizer produces: planning the corpus
/// (each query under its own generated config, which forces every join and
/// aggregation algorithm the figures force and toggles join teams) names
/// every join algorithm, staging strategy and aggregation algorithm at
/// least once.  The matches are exhaustive, so a new variant does not
/// compile here until it is given a label — which the corpus must then
/// produce.
#[test]
fn the_corpus_plans_every_algorithm_and_staging_strategy() {
    let fixture = Fixture::generate(SF).unwrap();
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut missing = vec![
        "merge join",
        "partition join",
        "hybrid hash-sort-merge join",
        "scan",
        "sort",
        "fine partition",
        "partition then sort",
        "sort aggregation",
        "hybrid hash-sort aggregation",
        "map aggregation",
    ];
    let mut produced = |label: &str| missing.retain(|&m| m != label);
    for _ in 0..SUITE_QUERIES {
        let query = generator.next_query();
        let plan = plan_sql(&query.sql, &fixture.catalog, &query.config)
            .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
        for step in plan.binary_steps() {
            produced(match step.algorithm {
                a @ (JoinAlgorithm::Merge
                | JoinAlgorithm::Partition
                | JoinAlgorithm::HybridHashSortMerge) => a.name(),
            });
        }
        for staged in &plan.staged {
            produced(match staged.strategy {
                StagingStrategy::None => "scan",
                StagingStrategy::Sort { .. } => "sort",
                StagingStrategy::PartitionFine { .. } => "fine partition",
                StagingStrategy::PartitionThenSort { .. } => "partition then sort",
            });
        }
        if let Some(spec) = &plan.aggregate {
            produced(match spec.algorithm {
                a @ (AggAlgorithm::Sort | AggAlgorithm::HybridHashSort | AggAlgorithm::Map) => {
                    a.name()
                }
            });
        }
    }
    assert!(
        missing.is_empty(),
        "plan vocabulary the optimizer never produced over the corpus: {missing:?}"
    );
}

/// The default plan, join teams off, and each join and aggregation
/// algorithm forced in turn.
fn forced_configs() -> Vec<PlannerConfig> {
    let joins = [
        JoinAlgorithm::Merge,
        JoinAlgorithm::Partition,
        JoinAlgorithm::HybridHashSortMerge,
    ];
    let aggs = [
        AggAlgorithm::Sort,
        AggAlgorithm::HybridHashSort,
        AggAlgorithm::Map,
    ];
    let base = PlannerConfig::default;
    [base(), base().with_join_teams(false)]
        .into_iter()
        .chain(joins.map(|j| base().with_join_algorithm(j)))
        .chain(aggs.map(|a| base().with_agg_algorithm(a)))
        .collect()
}

/// String keys wider than eight bytes whose values share their first
/// eight (`Manufacturer#…`, `Clerk#…`, `Customer#…`, `Supplier#…`, part
/// types), grouped and joined under the default plan, every forced join
/// and aggregation algorithm and with join teams off, at threads 1 and 4,
/// from a resident catalog and from a paged one with the budget forced into
/// every plan: every engine returns what `iter-generic` does.  A key's
/// eight-byte image is a prefix here, so an engine that matched or grouped
/// by image alone would fold these keys together.
#[test]
fn wide_char_keys_agree_across_all_engines() {
    const STATEMENTS: [&str; 6] = [
        "select p_mfgr, count(*) as n from part group by p_mfgr",
        "select p_type, count(*) as n, sum(p_retailprice) as s from part group by p_type",
        "select o_clerk, count(*) as n from orders group by o_clerk",
        "select c.c_name, count(*) as n from customer c, orders o \
         where c.c_custkey = o.o_custkey group by c.c_name",
        "select count(*) as n from supplier a, supplier b where a.s_name = b.s_name",
        "select a.c_name, c.c_acctbal from customer a, customer b, customer c \
         where a.c_name = b.c_name and b.c_name = c.c_name",
    ];
    let configs = forced_configs();
    const BUDGET_PAGES: usize = 64;
    for (fixture, budget) in [
        (Fixture::generate(SF).unwrap(), 0),
        (
            Fixture::generate_paged(SF, BUDGET_PAGES).unwrap(),
            BUDGET_PAGES,
        ),
    ] {
        for (i, sql) in STATEMENTS.iter().enumerate() {
            for config in &configs {
                for threads in [1, 4] {
                    let query = RandomQuery {
                        sql: sql.to_string(),
                        config: config
                            .clone()
                            .with_threads(threads)
                            .with_memory_budget_pages(budget),
                        seed: i as u64,
                    };
                    let outcome = fixture.check(&query);
                    assert!(
                        outcome.divergences.is_empty(),
                        "budget {budget}, {:?}:\n{}",
                        query.config,
                        outcome.divergences[0]
                    );
                    assert!(outcome.baseline.num_rows() > 0, "{sql}");
                }
            }
        }
    }
}

/// `Int64` keys beyond 2^53, where neighbouring integers share one f64:
/// filtered by `=`, `<` and `>`, grouped, self-joined and ordered under the
/// default plan, every forced join and aggregation algorithm and with join
/// teams off, at threads 1 and 4.  Every engine returns holistic's rows,
/// holistic returns the exact answer, and ORDER BY leaves the keys
/// strictly increasing.  An engine that compared integers through f64
/// would match, group, join and order these keys as one.
#[test]
fn int64_values_beyond_2_pow_53_agree_across_all_engines() {
    const BIG: i64 = 1 << 53;
    // (statement, rows of the exact answer)
    let statements = [
        (format!("select k, v from t where k = {}", BIG + 1), 1),
        (format!("select k, v from t where k < {}", BIG + 1), 2),
        (format!("select k, v from t where k > {BIG}"), 2),
        ("select k, count(*) as n from t group by k".to_string(), 4),
        (
            "select a.k, b.v from t a, t b where a.k = b.k".to_string(),
            4,
        ),
        ("select k, v from t order by k".to_string(), 4),
    ];
    let mut catalog = Catalog::new();
    catalog
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("k", DataType::Int64),
                Column::new("v", DataType::Int32),
            ]),
        )
        .unwrap();
    // Descending, so a sort that took the big keys for equal would keep
    // them out of order.
    for (k, v) in [(BIG + 2, 1), (BIG + 1, 2), (BIG, 3), (5, 4)] {
        let row = Row::new(vec![Value::Int64(k), Value::Int32(v)]);
        catalog
            .table_mut("t")
            .unwrap()
            .heap
            .append_row(&row)
            .unwrap();
    }
    catalog.analyze_table("t").unwrap();
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    let configs = forced_configs();
    for (sql, rows) in &statements {
        for config in &configs {
            for threads in [1, 4] {
                let plan = plan_sql(sql, &catalog, &config.clone().with_threads(threads)).unwrap();
                let holistic = run_engine(Engine::Holistic, &plan, &catalog, &dsm).unwrap();
                assert_eq!(holistic.rows.len(), *rows, "{sql}");
                let expected = canonicalize(&holistic);
                for engine in Engine::ALL {
                    let result = run_engine(engine, &plan, &catalog, &dsm)
                        .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", engine.name()));
                    if let Err(m) = compare(&canonicalize(&result), &expected) {
                        panic!(
                            "{} vs holistic on {sql} ({config:?}, threads {threads}): {m}",
                            engine.name()
                        );
                    }
                    if sql.contains("order by") {
                        let keys: Vec<&Value> = result.rows.iter().map(|r| r.get(0)).collect();
                        assert!(
                            keys.windows(2).all(|w| w[0] < w[1]),
                            "{} left {keys:?} out of order",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

/// One row per `(k, b, d, tag)`: an `Int32`, an `Int64`, a date and a
/// `CHAR(4)` column, analyzed, with its DSM decomposition.
fn typed_table(rows: &[(i32, i64, i32, &str)]) -> (Catalog, DsmDatabase) {
    let mut catalog = Catalog::new();
    catalog
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("b", DataType::Int64),
                Column::new("d", DataType::Date),
                Column::new("tag", DataType::Char(4)),
            ]),
        )
        .unwrap();
    for &(k, b, d, tag) in rows {
        let row = Row::new(vec![
            Value::Int32(k),
            Value::Int64(b),
            Value::Date(d),
            Value::Str(tag.to_string()),
        ]);
        catalog
            .table_mut("t")
            .unwrap()
            .heap
            .append_row(&row)
            .unwrap();
    }
    catalog.analyze_table("t").unwrap();
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    (catalog, dsm)
}

/// Arithmetic over an `Int32`, an `Int64` and a date column leaves as the
/// plan's output types — `Int32`, `Int64` and `Date` — on every engine,
/// under every forced algorithm at threads 1 and 4, with and without a
/// filter and an ORDER BY.  An engine that handed out the `f64` it
/// computed in would return `Float64` values here.
#[test]
fn integer_and_date_expressions_keep_their_type_on_all_engines() {
    let (catalog, dsm) = typed_table(&[
        (0, 1 << 40, 8041, "a"),
        (7, -3, 9000, "b"),
        (-2, 5, 10_000, "c"),
    ]);
    let statements = [
        "select k + 1 as a, b + 1 as c, d + 1 as e from t",
        "select k * 2 as a, b - 7 as c, d - 30 as e from t where k < 5 order by a",
        "select tag, k - 1 as a, b * 3 as c, d + 365 as e from t order by tag",
    ];
    for sql in statements {
        for config in forced_configs() {
            for threads in [1, 4] {
                let plan = plan_sql(sql, &catalog, &config.clone().with_threads(threads)).unwrap();
                let types: Vec<DataType> = plan
                    .output_schema
                    .columns()
                    .iter()
                    .map(|c| c.dtype)
                    .collect();
                assert_eq!(
                    &types[types.len() - 3..],
                    [DataType::Int32, DataType::Int64, DataType::Date],
                    "{sql}"
                );
                let expected =
                    canonicalize(&run_engine(Engine::IterGeneric, &plan, &catalog, &dsm).unwrap());
                for engine in Engine::ALL {
                    let result = run_engine(engine, &plan, &catalog, &dsm)
                        .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", engine.name()));
                    assert!(!result.rows.is_empty(), "{sql}");
                    for row in &result.rows {
                        let got: Vec<DataType> =
                            row.values().iter().map(Value::data_type).collect();
                        assert_eq!(
                            got[got.len() - 3..],
                            types[types.len() - 3..],
                            "{} on {sql}: {row:?}",
                            engine.name()
                        );
                    }
                    if let Err(m) = compare(&canonicalize(&result), &expected) {
                        panic!(
                            "{} vs iter-generic on {sql} ({config:?}, threads {threads}): {m}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

/// A string literal outside ASCII matches the row that holds it, on every
/// engine: the lexer keeps the literal's UTF-8 as written.
#[test]
fn a_non_ascii_literal_matches_its_row_on_all_engines() {
    let (catalog, dsm) = typed_table(&[(1, 1, 1, "é"), (2, 2, 2, "e"), (3, 3, 3, "Ã©")]);
    let plan = plan_sql(
        "select k from t where tag = 'é'",
        &catalog,
        &PlannerConfig::default(),
    )
    .unwrap();
    for engine in Engine::ALL {
        let result = run_engine(engine, &plan, &catalog, &dsm).unwrap();
        let keys: Vec<&Value> = result.rows.iter().map(|r| r.get(0)).collect();
        assert_eq!(keys, [&Value::Int32(1)], "{}", engine.name());
    }
}

/// A string literal compared with a `CHAR(4)` column follows SQL's pad
/// rule on every engine: trailing spaces do not count, and a literal longer
/// than the column orders above every field it extends.  Each answer is
/// stated, and checked on all five engines and through a server session,
/// whose `vm` rebinds one statement's bytecode for the next literal.
#[test]
fn char_literals_follow_the_pad_rule_on_all_engines() {
    let (catalog, dsm) = typed_table(&[(1, 1, 1, "ABCD"), (2, 2, 2, "AB"), (3, 3, 3, "ABCE")]);
    let statements: [(&str, &[i32]); 5] = [
        ("select k from t where tag = 'ABCDE' order by k", &[]),
        ("select k from t where tag < 'ABCDE' order by k", &[1, 2]),
        ("select k from t where tag > 'ABCD' order by k", &[3]),
        (
            "select k from t where tag <> 'ABCDE' order by k",
            &[1, 2, 3],
        ),
        ("select k from t where tag = 'AB  ' order by k", &[2]),
    ];
    let keys = |rows: &[Row]| -> Vec<i32> {
        rows.iter()
            .map(|r| match r.get(0) {
                Value::Int32(k) => *k,
                other => panic!("key {other:?}"),
            })
            .collect()
    };
    for (sql, expected) in statements {
        let plan = plan_sql(sql, &catalog, &PlannerConfig::default()).unwrap();
        for engine in Engine::ALL {
            let result = run_engine(engine, &plan, &catalog, &dsm).unwrap();
            assert_eq!(keys(&result.rows), expected, "{} on {sql}", engine.name());
        }
    }
    let server = Server::new(catalog, ServerConfig::default()).unwrap();
    for engine in [Engine::Vm, Engine::Holistic] {
        let mut session = server.session();
        for (sql, expected) in statements {
            let result = session.execute_on(sql, engine).unwrap();
            assert_eq!(
                keys(&result.rows),
                expected,
                "session {} on {sql}",
                engine.name()
            );
        }
    }
}

/// A number in exponent form is a `Float64` on every engine: `1e3` is
/// 1000, not the integer 1 under the alias `e3`.
#[test]
fn exponent_literals_are_floats_on_all_engines() {
    let (catalog, dsm) = typed_table(&[(1, 1, 1, "a"), (2, 2, 2, "b")]);
    let plan = plan_sql(
        "select k, 1e3 as x, 1.5e2 + k as y from t order by k",
        &catalog,
        &PlannerConfig::default(),
    )
    .unwrap();
    for engine in Engine::ALL {
        let result = run_engine(engine, &plan, &catalog, &dsm).unwrap();
        let cells: Vec<(&Value, &Value)> =
            result.rows.iter().map(|r| (r.get(1), r.get(2))).collect();
        assert_eq!(
            cells,
            [
                (&Value::Float64(1000.0), &Value::Float64(151.0)),
                (&Value::Float64(1000.0), &Value::Float64(152.0)),
            ],
            "{}",
            engine.name()
        );
    }
}

/// Register programs wider and deeper than a one-byte register file:
/// right-nested output expressions of 255, 256 and 300 levels with and
/// without a filter, a left-nested 300-term sum, and 100 aggregates over
/// one column (a 201-node aggregate program).  On all five engines at
/// threads 1 and 4, and through a server session on `engine=vm` (the
/// server's pooled compile + rebind path), every result equals
/// `iter-generic`'s.
#[test]
fn deep_and_wide_expressions_agree_across_all_engines() {
    let nested = |levels: usize| {
        (0..levels).fold("o_totalprice".to_string(), |e, _| {
            format!("o_totalprice + ({e})")
        })
    };
    let mut statements = Vec::new();
    for levels in [255, 256, 300] {
        let deep = nested(levels);
        statements.push(format!(
            "select o_orderkey, {deep} as x from orders order by o_orderkey"
        ));
        statements.push(format!(
            "select o_orderkey, {deep} as x from orders where o_orderkey < 500 \
             order by o_orderkey"
        ));
    }
    let terms: Vec<String> = (1..300).map(|i| i.to_string()).collect();
    statements.push(format!(
        "select o_orderkey, o_totalprice + {} as x from orders order by o_orderkey",
        terms.join(" + ")
    ));
    let sums: Vec<String> = (1..=100)
        .map(|i| format!("sum(o_totalprice + {i}) as a{i}"))
        .collect();
    statements.push(format!(
        "select o_orderstatus, {} from orders group by o_orderstatus order by o_orderstatus",
        sums.join(", ")
    ));

    let fixture = Fixture::generate(SF).unwrap();
    let server = Server::new(
        hique_tpch::generate_into_catalog(SF).unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut session = server.session();
    session.set_engine(Engine::Vm);
    for (i, sql) in statements.iter().enumerate() {
        let mut baseline = None;
        for threads in [1, 4] {
            let query = RandomQuery {
                sql: sql.clone(),
                config: PlannerConfig::default().with_threads(threads),
                seed: i as u64,
            };
            let outcome = fixture.check(&query);
            assert!(
                outcome.divergences.is_empty(),
                "statement {i}, threads {threads}:\n{}",
                outcome.divergences[0]
            );
            assert!(outcome.baseline.num_rows() > 0, "statement {i}");
            baseline = Some(outcome.baseline);
        }
        let served = session
            .execute(sql)
            .unwrap_or_else(|e| panic!("statement {i} on a vm session: {e}"));
        if let Err(mismatch) = compare(&canonicalize(&served), &baseline.unwrap()) {
            panic!("statement {i} on a vm session vs iter-generic: {mismatch}");
        }
    }
}

#[test]
fn random_queries_agree_on_an_empty_catalog() {
    // Same schemas, zero rows everywhere, statistics collected: the planner
    // knows every table is empty (post-filter estimates of 0 rows) and all
    // five engines must still agree — on zero-row results — through every
    // staging strategy, join algorithm and aggregation path the generator
    // randomizes.  Probes the zero-cardinality code paths that a populated
    // catalog rarely exercises.
    let fixture = Fixture::empty(SF).unwrap();
    for (name, info) in [("lineitem", 16), ("nation", 4)] {
        let table = fixture.catalog.table(name).unwrap();
        assert_eq!(table.row_count(), 0);
        assert_eq!(table.column_stats.len(), info, "{name} must be analyzed");
    }
    let report = run_suite(&fixture, SUITE_SEED, 60);
    assert!(
        report.is_clean(),
        "divergences on the empty catalog:\n{report}"
    );
    assert_eq!(report.total_rows, 0, "no rows can come out of empty tables");
}

#[test]
fn divergence_reports_carry_reproduction_seeds() {
    // Manufacture a mismatch so the reporting path itself is under test:
    // the rendered divergence must carry everything needed to reproduce
    // (engine pair, seed, SQL) plus the located difference.
    use hique_conformance::{compare, CanonicalResult, Divergence};
    use hique_types::Value;

    let got = CanonicalResult {
        columns: vec!["k".into()],
        rows: vec![vec![Value::Int32(1)]],
    };
    let expected = CanonicalResult {
        columns: vec!["k".into()],
        rows: vec![vec![Value::Int32(2)]],
    };
    let mismatch = compare(&got, &expected).unwrap_err();
    assert_eq!((mismatch.row, mismatch.column), (Some(0), Some(0)));
    let divergence = Divergence {
        seed: 0xabc123,
        sql: "select k from r".to_string(),
        engine: "holistic",
        baseline: "iter-generic",
        mismatch,
    };
    let rendered = divergence.to_string();
    for needle in ["holistic", "iter-generic", "0xabc123", "select k from r"] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in {rendered}"
        );
    }

    // And the seed in a report is a faithful reproduction handle: direct
    // replay rebuilds the identical (sql, config) pair.
    let query = hique_conformance::query_for_seed(7, 3, 0.001);
    let replayed = hique_conformance::replay_seed(query.seed, 0.001);
    assert_eq!(query.sql, replayed.sql);
    assert_eq!(query.config, replayed.config);
}
