//! Experiment E3/E4 — Figure 6: aggregation profiling across five
//! implementations.
//!
//! Aggregation Query #1: many distinct groups → hybrid hash-sort
//! aggregation.  Aggregation Query #2: 10 distinct groups → map
//! aggregation.  Two SUM functions over 72-byte tuples, as in the paper.

#![forbid(unsafe_code)]

use std::time::Instant;

use hique_bench::handcoded::{aggregate, HandVariant};
use hique_bench::runner::{
    bench_scale, plan_sql, render_profile_table, run_engine, Engine, Measurement,
};
use hique_bench::workload::{agg_query_sql, agg_workload};
use hique_plan::{AggAlgorithm, PlannerConfig};
use hique_types::ExecStats;

fn main() {
    let s = bench_scale();
    let rows = (100_000.0 * s) as usize;

    run_query(
        &format!(
            "Figure 6(a)/(c) Aggregation Query #1 (hybrid hash-sort, {rows} rows, {} groups)",
            rows / 10
        ),
        rows,
        rows / 10,
        AggAlgorithm::HybridHashSort,
        false,
    );
    run_query(
        &format!("Figure 6(b)/(d) Aggregation Query #2 (map aggregation, {rows} rows, 10 groups)"),
        rows,
        10,
        AggAlgorithm::Map,
        true,
    );
}

fn run_query(title: &str, rows: usize, groups: usize, algo: AggAlgorithm, use_map: bool) {
    let catalog = agg_workload(rows, groups).expect("workload");
    let config = PlannerConfig::default().with_agg_algorithm(algo);
    let plan = plan_sql(agg_query_sql(), &catalog, &config).expect("plan");

    let mut measurements = Vec::new();
    for engine in [Engine::IterGeneric, Engine::IterOptimized] {
        measurements.push(run_engine(engine, &plan, &catalog, None, true).expect("run"));
    }
    let heap = &catalog.table("agg_t").unwrap().heap;
    for (label, variant) in [
        ("Generic hard-coded", HandVariant::Generic),
        ("Optimized hard-coded", HandVariant::Optimized),
    ] {
        let mut stats = ExecStats::new();
        let start = Instant::now();
        let (count, _checksum) = aggregate(heap, groups, use_map, variant, &mut stats);
        measurements.push(Measurement {
            engine: label.to_string(),
            elapsed: start.elapsed(),
            stats,
            rows: count as u64,
        });
    }
    measurements.push(run_engine(Engine::Holistic, &plan, &catalog, None, true).expect("run"));

    let expected = measurements[0].rows;
    assert!(
        measurements.iter().all(|m| m.rows == expected),
        "implementations disagree on the number of groups"
    );
    println!("{}", render_profile_table(title, &measurements));
}
