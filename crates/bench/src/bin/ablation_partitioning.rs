//! Ablations for the join-staging design choices: the hybrid join's
//! partition fan-out, and fine vs coarse partitioning vs plain sorting.
//!
//! Neither sweep reproduces a figure of the paper (so neither has a `fig*`
//! twin): the first shows how sensitive the hybrid join is to the L2 size
//! the planner assumes when it derives the partition count, the second what
//! a value directory buys over hash partitions for a join whose key domain
//! is small enough to have one.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_series_table, run_engine, Engine};
use hique_bench::workload::{join_query_sql, join_workload};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let rows = args.scaled(20_000);

    let catalog = join_workload(rows, rows, 10).expect("workload");
    let mut fanout = Vec::new();
    for l2_kb in [256usize, 1024, 2048, 8192] {
        let mut config =
            PlannerConfig::default().with_join_algorithm(JoinAlgorithm::HybridHashSortMerge);
        config.l2_cache_bytes = l2_kb * 1024;
        let plan = plan_sql(join_query_sql(), &catalog, &config).expect("plan");
        let m =
            run_engine(Engine::Holistic, &plan, &catalog, None, false, args.repeats).expect("run");
        fanout.push((format!("{l2_kb} KiB"), vec![m.elapsed]));
    }
    println!(
        "{}",
        render_series_table(
            &format!("Ablation: hybrid-join partition fan-out ({rows}x{rows} tuples)"),
            "assumed L2 size",
            &["Hybrid - HIQUE"],
            &fanout
        )
    );

    // 40 matches per outer tuple: rows / 40 distinct keys.
    let catalog = join_workload(rows, rows, 40).expect("workload");
    let mut times = Vec::new();
    for algo in [
        JoinAlgorithm::Partition,
        JoinAlgorithm::HybridHashSortMerge,
        JoinAlgorithm::Merge,
    ] {
        let config = PlannerConfig::default().with_join_algorithm(algo);
        let plan = plan_sql(join_query_sql(), &catalog, &config).expect("plan");
        let m =
            run_engine(Engine::Holistic, &plan, &catalog, None, false, args.repeats).expect("run");
        times.push(m.elapsed);
    }
    println!(
        "{}",
        render_series_table(
            "Ablation: fine vs coarse partitioning vs sorting",
            "distinct join keys",
            &["Fine partition", "Hybrid hash-sort", "Merge"],
            &[(format!("{}", rows / 40), times)]
        )
    );
}
