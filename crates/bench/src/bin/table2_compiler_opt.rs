//! Experiment E5 — Table II: effect of compiler optimization.
//!
//! The paper recompiles every implementation at `-O0` and `-O2` and shows
//! that compiler optimizations matter most for generic code and least for
//! the already-specialized generated code.  The analogue here: run this
//! binary once as a debug build (`cargo run -p hique-bench --bin
//! table2_compiler_opt`) and once as a release build (`--release`), and
//! compare the two printed tables — the debug/release ratio plays the role
//! of the `-O0`/`-O2` speedup.  The build profile in effect is printed with
//! each table.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{render_profile_table, run_engine, Engine};
use hique_bench::workload::{agg_query_sql, agg_workload, join_query_sql, join_workload};
use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, PlannerConfig};

fn main() {
    let profile = if cfg!(debug_assertions) {
        "debug build (the paper's -O0 analogue)"
    } else {
        "release build (the paper's -O2 analogue)"
    };
    println!("Table II — effect of compiler optimization; this run: {profile}\n");

    let args = Args::from_env();
    let engines = [Engine::IterGeneric, Engine::IterOptimized, Engine::Holistic];

    // The four micro-benchmark queries of Figures 5 and 6, at reduced size.
    let join1 = join_workload(args.scaled(1_000), args.scaled(1_000), 100).unwrap();
    let join2 = join_workload(args.scaled(20_000), args.scaled(20_000), 10).unwrap();
    let agg1 = agg_workload(args.scaled(50_000), args.scaled(5_000)).unwrap();
    let agg2 = agg_workload(args.scaled(50_000), 10).unwrap();

    let cases = [
        (
            "Join Query #1",
            &join1,
            join_query_sql(),
            PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Merge),
            false,
        ),
        (
            "Join Query #2",
            &join2,
            join_query_sql(),
            PlannerConfig::default().with_join_algorithm(JoinAlgorithm::HybridHashSortMerge),
            false,
        ),
        (
            "Aggregation Query #1",
            &agg1,
            agg_query_sql(),
            PlannerConfig::default().with_agg_algorithm(AggAlgorithm::HybridHashSort),
            true,
        ),
        (
            "Aggregation Query #2",
            &agg2,
            agg_query_sql(),
            PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Map),
            true,
        ),
    ];

    for (name, catalog, sql, config, materialize) in cases {
        let plan = plan_sql(sql, catalog, &config).expect("plan");
        let measurements: Vec<_> = engines
            .iter()
            .map(|&e| run_engine(e, &plan, catalog, None, materialize, args.repeats).expect("run"))
            .collect();
        println!(
            "{}",
            render_profile_table(&format!("{name} [{profile}]"), &measurements)
        );
    }
}
