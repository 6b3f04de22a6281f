//! Experiment E6 — Figure 7(a): join scalability.
//!
//! Outer table fixed, inner cardinality swept; every outer tuple matches 10
//! inner tuples.  Series: merge join and hybrid hash-sort-merge join, each
//! on the iterator engine and on HIQUE.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_series_table, run_engine, Engine};
use hique_bench::workload::{join_query_sql, join_workload};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let outer = args.scaled(20_000);
    let steps = 5usize;
    let columns = [
        "Merge - Iterators",
        "Hybrid - Iterators",
        "Merge - HIQUE",
        "Hybrid - HIQUE",
    ];
    let mut rows = Vec::new();
    for step in 1..=steps {
        let inner = outer * step;
        let catalog = join_workload(outer, inner, 10).expect("workload");
        let mut times = Vec::new();
        for (engine, algo) in [
            (Engine::IterOptimized, JoinAlgorithm::Merge),
            (Engine::IterOptimized, JoinAlgorithm::HybridHashSortMerge),
            (Engine::Holistic, JoinAlgorithm::Merge),
            (Engine::Holistic, JoinAlgorithm::HybridHashSortMerge),
        ] {
            let config = PlannerConfig::default().with_join_algorithm(algo);
            let plan = plan_sql(join_query_sql(), &catalog, &config).expect("plan");
            let m = run_engine(engine, &plan, &catalog, None, false, args.repeats).expect("run");
            times.push(m.elapsed);
        }
        rows.push((format!("inner = {inner}"), times));
    }
    println!(
        "{}",
        render_series_table(
            &format!("Figure 7(a) join scalability (outer = {outer}, 10 matches/outer)"),
            "inner cardinality",
            &columns,
            &rows
        )
    );
}
