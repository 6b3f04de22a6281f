//! Experiment E1/E2 — Figure 5: join profiling across five implementations.
//!
//! Join Query #1: inflationary merge join (each outer tuple matches many
//! inner tuples).  Join Query #2: large inputs, low selectivity, hybrid
//! hash-sort-merge join.  Compared implementations: generic iterators,
//! optimized iterators, generic hard-coded, optimized hard-coded, HIQUE.
//!
//! Sizes scale with `--scale` (1.0 = quick defaults; ~5.0 approaches the
//! paper's 10,000×10,000 / 1,000,000×1,000,000 workloads).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::handcoded::{hybrid_join_count, merge_join_count, HandVariant};
use hique_bench::runner::{render_profile_table, run_engine, run_handcoded, Engine};
use hique_bench::workload::{join_query_sql, join_workload};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();

    // ---- Join Query #1: paper sizes 10k x 10k, 1,000 matches per outer tuple.
    let outer1 = args.scaled(2_000);
    let inner1 = args.scaled(2_000);
    let matches1 = (inner1 / 10).max(1);
    run_query(
        args.repeats,
        &format!("Figure 5(a)/(c) Join Query #1 (merge join, {outer1}x{inner1}, {matches1} matches/outer)"),
        outer1,
        inner1,
        matches1,
        JoinAlgorithm::Merge,
    );

    // ---- Join Query #2: paper sizes 1M x 1M, 10 matches per outer tuple.
    let outer2 = args.scaled(50_000);
    let inner2 = args.scaled(50_000);
    run_query(
        args.repeats,
        &format!(
            "Figure 5(b)/(d) Join Query #2 (hybrid hash-sort-merge join, {outer2}x{inner2}, 10 matches/outer)"
        ),
        outer2,
        inner2,
        10,
        JoinAlgorithm::HybridHashSortMerge,
    );
}

fn run_query(
    repeats: usize,
    title: &str,
    outer: usize,
    inner: usize,
    matches: usize,
    algo: JoinAlgorithm,
) {
    let catalog = join_workload(outer, inner, matches).expect("workload");
    let config = PlannerConfig::default().with_join_algorithm(algo);
    let plan = plan_sql(join_query_sql(), &catalog, &config).expect("plan");

    let mut measurements = Vec::new();
    for engine in [Engine::IterGeneric, Engine::IterOptimized] {
        measurements.push(run_engine(engine, &plan, &catalog, None, false, repeats).expect("run"));
    }
    // Hand-coded variants.
    let outer_heap = &catalog.table("outer_t").unwrap().heap;
    let inner_heap = &catalog.table("inner_t").unwrap().heap;
    for (label, variant) in [
        ("Generic hard-coded", HandVariant::Generic),
        ("Optimized hard-coded", HandVariant::Optimized),
    ] {
        measurements.push(run_handcoded(label, repeats, |stats| match algo {
            JoinAlgorithm::Merge => merge_join_count(outer_heap, inner_heap, variant, stats),
            _ => hybrid_join_count(outer_heap, inner_heap, 64, variant, stats),
        }));
    }
    measurements
        .push(run_engine(Engine::Holistic, &plan, &catalog, None, false, repeats).expect("run"));

    let expected = measurements[0].rows;
    assert!(
        measurements.iter().all(|m| m.rows == expected),
        "implementations disagree on the join cardinality"
    );
    println!("{}", render_profile_table(title, &measurements));
}
