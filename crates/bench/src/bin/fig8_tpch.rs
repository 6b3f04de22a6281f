//! Experiment E10 — Figure 8: TPC-H Queries 1, 3 and 10.
//!
//! Systems compared (substitutions documented in `DESIGN.md`):
//!
//! * *Generic iterators over NSM* — stands in for PostgreSQL (traditional
//!   interpreted, I/O-optimized design).
//! * *Optimized iterators over NSM* — stands in for the commercial
//!   "System X" (still iterator-based; its software prefetching is not
//!   modelled).
//! * *DSM column engine* — stands in for MonetDB.
//! * *HIQUE* — holistic generated code.
//!
//! `--sf` is the TPC-H scale factor; it defaults to 0.02 so the harness
//! finishes quickly (`--sf 1.0` — several GiB of RAM and a few minutes — is
//! the paper's scale factor).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_bench::cli::Args;
use hique_bench::runner::{run_engine, Engine};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, PlannerConfig};
use hique_tpch::queries::all_queries;

fn main() {
    let args = Args::from_env();
    let sf = args.sf.unwrap_or(0.02);
    eprintln!("generating TPC-H data at SF={sf} ...");
    let catalog = hique_tpch::generate_into_catalog(sf).expect("tpch generation");
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    eprintln!(
        "data ready: {} lineitem rows",
        catalog.table("lineitem").unwrap().row_count()
    );

    println!("== Figure 8: TPC-H (SF = {sf}) ==");
    println!(
        "{:<8} {:<28} {:>12} {:>10}",
        "query", "system", "time (ms)", "rows"
    );
    for (name, sql) in all_queries() {
        let plan = plan_sql(sql, &catalog, &PlannerConfig::default()).expect("plan");
        for (engine, label) in [
            (Engine::IterGeneric, "PostgreSQL-class (iterators)"),
            (Engine::IterOptimized, "System X-class (opt. iter.)"),
            (Engine::Dsm, "MonetDB-class (DSM)"),
            (Engine::Holistic, "HIQUE"),
        ] {
            let m =
                run_engine(engine, &plan, &catalog, Some(&dsm), true, args.repeats).expect("run");
            println!(
                "{:<8} {:<28} {:>12.2} {:>10}",
                name,
                label,
                m.elapsed.as_secs_f64() * 1000.0,
                m.rows
            );
        }
        println!();
    }
}
