//! Inspect the query-specific source code the holistic generator emits for
//! a TPC-H query (the paper's Listing 1/2 templates instantiated with real
//! offsets, predicates and algorithm choices).
//!
//! ```bash
//! cargo run --example codegen_inspect           # Q1 (default)
//! cargo run --example codegen_inspect -- q10    # Q3 / Q10
//! ```

use hique::plan::{plan_sql, PlannerConfig};
use hique::tpch;

fn main() -> hique::types::Result<()> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "q1".to_string());
    let sql = match which.to_ascii_lowercase().as_str() {
        "q3" => tpch::Q3_SQL,
        "q10" => tpch::Q10_SQL,
        _ => tpch::Q1_SQL,
    };
    // A tiny data-set is enough: the generated code depends on schemas and
    // statistics, not on data volume.
    let catalog = tpch::generate_into_catalog(0.001)?;
    let plan = plan_sql(sql, &catalog, &PlannerConfig::default())?;

    println!("-- physical plan ------------------------------------------------");
    println!("{}", hique::plan::explain::explain(&plan));
    let generated = hique::holistic::generate(&plan)?;
    println!(
        "-- generated source ({} bytes) -----------------------------------",
        generated.source().size_bytes()
    );
    println!("{}", generated.source().full_text());
    Ok(())
}
