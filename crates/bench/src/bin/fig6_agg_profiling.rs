//! Experiment E3/E4 — Figure 6: aggregation profiling across five
//! implementations.
//!
//! Aggregation Query #1: many distinct groups → hybrid hash-sort
//! aggregation.  Aggregation Query #2: 10 distinct groups → map
//! aggregation.  Two SUM functions over 72-byte tuples, as in the paper.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::handcoded::{aggregate, HandVariant};
use hique_bench::runner::{render_profile_table, run_engine, run_handcoded, Engine};
use hique_bench::workload::{agg_query_sql, agg_workload};
use hique_plan::{plan_sql, AggAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let rows = args.scaled(100_000);
    let many_groups = (rows / 10).max(1);

    run_query(
        args.repeats,
        &format!(
            "Figure 6(a)/(c) Aggregation Query #1 (hybrid hash-sort, {rows} rows, {many_groups} groups)"
        ),
        rows,
        many_groups,
        AggAlgorithm::HybridHashSort,
        false,
    );
    let few_groups = rows.min(10);
    run_query(
        args.repeats,
        &format!(
            "Figure 6(b)/(d) Aggregation Query #2 (map aggregation, {rows} rows, {few_groups} groups)"
        ),
        rows,
        few_groups,
        AggAlgorithm::Map,
        true,
    );
}

fn run_query(
    repeats: usize,
    title: &str,
    rows: usize,
    groups: usize,
    algo: AggAlgorithm,
    use_map: bool,
) {
    let catalog = agg_workload(rows, groups).expect("workload");
    let config = PlannerConfig::default().with_agg_algorithm(algo);
    let plan = plan_sql(agg_query_sql(), &catalog, &config).expect("plan");

    let mut measurements = Vec::new();
    for engine in [Engine::IterGeneric, Engine::IterOptimized] {
        measurements.push(run_engine(engine, &plan, &catalog, None, true, repeats).expect("run"));
    }
    let heap = &catalog.table("agg_t").unwrap().heap;
    for (label, variant) in [
        ("Generic hard-coded", HandVariant::Generic),
        ("Optimized hard-coded", HandVariant::Optimized),
    ] {
        measurements.push(run_handcoded(label, repeats, |stats| {
            aggregate(heap, groups, use_map, variant, stats).0 as u64
        }));
    }
    measurements
        .push(run_engine(Engine::Holistic, &plan, &catalog, None, true, repeats).expect("run"));

    let expected = measurements[0].rows;
    assert!(
        measurements.iter().all(|m| m.rows == expected),
        "implementations disagree on the number of groups"
    );
    println!("{}", render_profile_table(title, &measurements));
}
