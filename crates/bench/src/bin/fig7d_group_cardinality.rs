//! Experiment E9 — Figure 7(d): grouping attribute cardinality.
//!
//! One table, two SUM aggregates, one grouping attribute whose distinct
//! count sweeps 10 → 100,000.  Series: sort, hybrid hash-sort and map
//! aggregation, each on the iterator engine and on HIQUE.  The paper's
//! crossover — map aggregation wins while its value directory and aggregate
//! arrays fit in the L2 cache, staged aggregation wins beyond — should
//! reproduce as a crossover between the map and hybrid columns.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_series_table, run_engine, Engine};
use hique_bench::workload::{agg_query_sql, agg_workload};
use hique_plan::{plan_sql, AggAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let rows = args.scaled(100_000);
    let columns = [
        "Sort - Iterators",
        "Hybrid - Iterators",
        "Map - Iterators",
        "Sort - HIQUE",
        "Hybrid - HIQUE",
        "Map - HIQUE",
    ];
    let mut table = Vec::new();
    for groups in [10usize, 100, 1_000, 10_000, 100_000] {
        let groups = groups.min(rows);
        let catalog = agg_workload(rows, groups).expect("workload");
        let mut times = Vec::new();
        for engine in [Engine::IterOptimized, Engine::Holistic] {
            for algo in [
                AggAlgorithm::Sort,
                AggAlgorithm::HybridHashSort,
                AggAlgorithm::Map,
            ] {
                let config = PlannerConfig::default().with_agg_algorithm(algo);
                let plan = plan_sql(agg_query_sql(), &catalog, &config).expect("plan");
                let m = run_engine(engine, &plan, &catalog, None, true, args.repeats).expect("run");
                assert_eq!(m.rows, groups as u64, "{engine:?} {algo:?}");
                times.push(m.elapsed);
            }
        }
        table.push((format!("{groups} groups"), times));
    }
    println!(
        "{}",
        render_series_table(
            &format!("Figure 7(d) grouping attribute cardinality ({rows} rows, 2 SUMs)"),
            "log10(group cardinality)",
            &columns,
            &table
        )
    );
}
