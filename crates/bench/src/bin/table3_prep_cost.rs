//! Experiment E11 — Table III: query preparation cost.
//!
//! For TPC-H Q1/Q3/Q10, measures the time spent parsing, optimizing and
//! generating query-specific code, and reports the size of the generated
//! source artifact.  (The paper additionally reports `gcc` compile times and
//! shared-library sizes; this reproduction executes specialized kernels
//! in-process, so those two columns do not apply — see `DESIGN.md`.)
//! `--sf` is the TPC-H scale factor (default 0.01); each query is prepared
//! once, cold, so `--repeats` is not read.

#![forbid(unsafe_code)]

use std::time::Instant;

use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
use hique_tpch::queries::all_queries;

fn main() {
    let sf = hique_bench::cli::Args::from_env().sf.unwrap_or(0.01);
    let catalog = hique_tpch::generate_into_catalog(sf).expect("tpch generation");

    println!("== Table III: query preparation cost (SF = {sf}) ==");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>16}",
        "query", "parse (µs)", "optimize (µs)", "generate (µs)", "source (bytes)"
    );
    for (name, sql) in all_queries() {
        let t0 = Instant::now();
        let parsed = hique_sql::parse_query(sql).expect("parse");
        let parse_us = t0.elapsed().as_micros();

        let t1 = Instant::now();
        let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(&catalog)).expect("analyze");
        let plan = plan_query(&bound, &catalog, &PlannerConfig::default()).expect("plan");
        let optimize_us = t1.elapsed().as_micros();

        let t2 = Instant::now();
        let generated = hique_holistic::generate(&plan).expect("generate");
        let generate_us = t2.elapsed().as_micros();

        println!(
            "{:<8} {:>12} {:>14} {:>14} {:>16}",
            name,
            parse_us,
            optimize_us,
            generate_us,
            generated.source().size_bytes()
        );
    }
}
