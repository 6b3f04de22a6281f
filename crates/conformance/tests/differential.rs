//! The conformance gate: a fixed budget of seeded random queries, each
//! planned once and executed through all five engine modes (generic
//! iterators, optimized iterators, DSM, holistic), with canonicalized
//! results required to agree exactly (modulo float accumulation tolerance).
//!
//! Every failure message carries the per-query seed; reproduce one with
//! `cargo run --release -p hique-conformance --bin conformance -- --replay <seed>`.

use hique_conformance::{run_suite, Fixture, QueryGenerator};
use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, StagingStrategy};

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
