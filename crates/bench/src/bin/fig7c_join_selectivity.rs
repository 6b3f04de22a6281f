//! Experiment E8 — Figure 7(c): join predicate selectivity.
//!
//! Two equally sized tables; the number of inner tuples matching each outer
//! tuple sweeps 1 → 1,000, inflating the join output.  Series: merge and
//! hybrid joins on the iterator engine and on HIQUE.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_series_table, run_engine, Engine};
use hique_bench::workload::{join_query_sql, join_workload};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let rows = args.scaled(20_000);
    let columns = [
        "Merge - Iterators",
        "Hybrid - Iterators",
        "Merge - HIQUE",
        "Hybrid - HIQUE",
    ];
    let mut table = Vec::new();
    for matches in [1usize, 10, 100, 1000] {
        let catalog = join_workload(rows, rows, matches).expect("workload");
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
        table.push((format!("{matches} matches/outer"), times));
    }
    println!(
        "{}",
        render_series_table(
            &format!("Figure 7(c) join predicate selectivity ({rows}x{rows} tuples)"),
            "log10(matching tuples)",
            &columns,
            &table
        )
    );
}
