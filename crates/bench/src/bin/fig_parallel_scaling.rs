//! Experiment P1 — partition-parallel scaling (not in the paper: the
//! original HIQUE is single-threaded; this measures the reproduction's
//! partition-parallel execution mode, and is the only place the `threads`
//! knob is swept — no `benchmark/` workload sets it).
//!
//! Sweeps `--threads` over the two micro-benchmarks whose hot phases
//! parallelize across staged partitions:
//!
//! * **partitioned join** — the paper's binary join micro-benchmark forced
//!   onto the fine partition join, so staging scatter and the per-key
//!   partition-pair cross products divide across the pool; and
//! * **map aggregation** — the grouped aggregation micro-benchmark forced
//!   onto map aggregation, so the accumulation pass runs on thread-local
//!   arrays merged at the end.
//!
//! Every thread count must return the serial row counts.  There is no
//! speedup gate: the ratio is noise-limited on shared runners and only
//! meaningful with at least as many cores as threads (the header prints
//! the core count).
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_parallel_scaling -- --sf 0.1
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{run_engine, Engine, Measurement};
use hique_bench::workload::{agg_query_sql, agg_workload, join_query_sql, join_workload};
use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, PlannerConfig};

fn main() {
    let args = Args::from_env();
    let sf = args.sf.unwrap_or(0.1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // The paper's micro-benchmark tables, sized in TPC-H proportions
    // (lineitem : orders = 4 : 1 at 6M : 1.5M rows per SF unit).
    let join_inner = ((6_000_000.0 * sf) as usize).max(1);
    let join_outer = ((1_500_000.0 * sf) as usize).max(1);
    let agg_rows = join_inner;
    println!(
        "parallel scaling at SF {sf} ({join_outer}x{join_inner} join, {agg_rows}-row aggregation), \
         best of {}, {cores} cores",
        args.repeats
    );

    let join_catalog = join_workload(join_outer, join_inner, 50).expect("workload");
    let join_config = PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Partition);
    let agg_catalog = agg_workload(agg_rows, 1000).expect("workload");
    let agg_config = PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Map);

    println!(
        "{:<10} {:>20} {:>10} {:>20} {:>10}",
        "threads", "part-join (ms)", "speedup", "map-agg (ms)", "speedup"
    );
    // `--threads` leads with 1, so the first row is the serial baseline of
    // both the speedups and the row counts.
    let mut serial = None;
    for &threads in &args.threads {
        let measure = |sql, catalog, config: &PlannerConfig| {
            let plan = plan_sql(sql, catalog, &config.clone().with_threads(threads)).expect("plan");
            run_engine(Engine::Holistic, &plan, catalog, None, false, args.repeats).expect("run")
        };
        let join = measure(join_query_sql(), &join_catalog, &join_config);
        let agg = measure(agg_query_sql(), &agg_catalog, &agg_config);
        let (base_join, base_agg) = serial.get_or_insert((join.clone(), agg.clone()));
        assert_eq!(
            (join.rows, agg.rows),
            (base_join.rows, base_agg.rows),
            "row counts diverged from the serial baseline at {threads} threads"
        );
        let ms = |m: &Measurement| m.elapsed.as_secs_f64() * 1000.0;
        println!(
            "{threads:<10} {:>20.2} {:>9.2}x {:>20.2} {:>9.2}x",
            ms(&join),
            ms(base_join) / ms(&join).max(1e-6),
            ms(&agg),
            ms(base_agg) / ms(&agg).max(1e-6),
        );
    }
}
