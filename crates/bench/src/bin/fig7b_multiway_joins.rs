//! Experiment E7 — Figure 7(b): multi-way joins and join teams.
//!
//! One fact table joined with 2–8 dimension tables on a single common key;
//! output cardinality stays equal to the fact table.  Series: binary merge
//! joins on the iterator engine, binary merge joins on HIQUE, and HIQUE join
//! teams (merge and hybrid staging).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_series_table, run_engine, Engine};
use hique_bench::workload::{multiway_query_sql, multiway_workload};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let fact = args.scaled(50_000);
    let dim = args.scaled(5_000);
    let columns = [
        "Merge - Iterators",
        "Merge - HIQUE (binary)",
        "Merge - HIQUE (team)",
        "Hybrid - HIQUE (team)",
    ];
    let mut rows = Vec::new();
    for num_dims in 2..=8usize {
        let catalog = multiway_workload(fact, dim, num_dims).expect("workload");
        let sql = multiway_query_sql(num_dims);
        let mut times = Vec::new();
        // Binary cascades (join teams disabled).
        let cascade_cfg = PlannerConfig::default()
            .with_join_algorithm(JoinAlgorithm::Merge)
            .with_join_teams(false);
        let cascade_plan = plan_sql(&sql, &catalog, &cascade_cfg).expect("plan");
        times.push(
            run_engine(
                Engine::IterOptimized,
                &cascade_plan,
                &catalog,
                None,
                false,
                args.repeats,
            )
            .expect("run")
            .elapsed,
        );
        times.push(
            run_engine(
                Engine::Holistic,
                &cascade_plan,
                &catalog,
                None,
                false,
                args.repeats,
            )
            .expect("run")
            .elapsed,
        );
        // Join teams.
        for algo in [JoinAlgorithm::Merge, JoinAlgorithm::HybridHashSortMerge] {
            let cfg = PlannerConfig::default()
                .with_join_algorithm(algo)
                .with_join_teams(true);
            let plan = plan_sql(&sql, &catalog, &cfg).expect("plan");
            assert!(
                plan.join_team.is_some(),
                "team expected for {num_dims} dims"
            );
            times.push(
                run_engine(Engine::Holistic, &plan, &catalog, None, false, args.repeats)
                    .expect("run")
                    .elapsed,
            );
        }
        rows.push((format!("{num_dims} joined tables"), times));
    }
    println!(
        "{}",
        render_series_table(
            &format!("Figure 7(b) multi-way joins (fact = {fact}, dims = {dim} rows each)"),
            "number of joined tables",
            &columns,
            &rows
        )
    );
}
