//! TPC-H Query 1 on every engine: the paper's headline experiment
//! (Figure 8(a)) at a laptop-friendly scale factor.
//!
//! ```bash
//! cargo run --release --example tpch_q1            # SF 0.02
//! cargo run --release --example tpch_q1 -- 0.1     # scale factor as the argument
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "demos may panic")]

use std::time::Instant;

use hique::dsm::DsmDatabase;
use hique::iter::ExecMode;
use hique::plan::{plan_sql, PlannerConfig};
use hique::tpch;

fn main() -> hique::types::Result<()> {
    let sf: f64 = match std::env::args().nth(1) {
        None => 0.02,
        Some(arg) => arg
            .parse()
            .map_err(|_| hique::types::HiqueError::Parse(format!("scale factor {arg:?}")))?,
    };
    println!("generating TPC-H data at SF={sf} ...");
    let catalog = tpch::generate_into_catalog(sf)?;
    println!(
        "lineitem rows: {}\n",
        catalog.table("lineitem")?.row_count()
    );

    let plan = plan_sql(tpch::Q1_SQL, &catalog, &PlannerConfig::default())?;

    // Iterator engine (PostgreSQL-class baseline).
    #[expect(clippy::disallowed_methods, reason = "the example times each engine")]
    let t = Instant::now();
    let iter_result =
        hique::iter::execute_plan(&plan, &catalog, ExecMode::Generic, &Default::default())?;
    println!(
        "generic iterators : {:>10.2} ms",
        t.elapsed().as_secs_f64() * 1000.0
    );

    // DSM column engine (MonetDB-class baseline).
    let db = DsmDatabase::from_catalog(&catalog).unwrap();
    #[expect(clippy::disallowed_methods, reason = "the example times each engine")]
    let t = Instant::now();
    let dsm_result = hique::dsm::execute_plan(&plan, &db, &Default::default())?;
    println!(
        "DSM column engine : {:>10.2} ms",
        t.elapsed().as_secs_f64() * 1000.0
    );

    // HIQUE holistic generated code.
    let generated = hique::holistic::generate(&plan)?;
    #[expect(clippy::disallowed_methods, reason = "the example times each engine")]
    let t = Instant::now();
    let hique_result = generated.execute(&catalog)?;
    println!(
        "HIQUE (holistic)  : {:>10.2} ms\n",
        t.elapsed().as_secs_f64() * 1000.0
    );

    assert_eq!(iter_result.num_rows(), hique_result.num_rows());
    assert_eq!(dsm_result.num_rows(), hique_result.num_rows());
    println!("{}", hique_result.to_text());
    Ok(())
}
