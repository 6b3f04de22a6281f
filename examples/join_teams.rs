//! Join teams: fusing a multi-way join over a common key into one set of
//! deeply nested loops (paper §V-B, Figure 7(b)).
//!
//! ```bash
//! cargo run --release --example join_teams
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "demos may panic")]

use std::time::Instant;

use hique::plan::{plan_query, CatalogProvider, PlannerConfig};
use hique::storage::Catalog;
use hique::types::{Column, DataType, Row, Schema, Value};

fn star_catalog(fact_rows: usize, dim_rows: usize, dims: usize) -> hique::types::Result<Catalog> {
    let mut catalog = Catalog::new();
    let schema = |prefix: &str| {
        Schema::new(vec![
            Column::new(format!("{prefix}_key"), DataType::Int32),
            Column::new(format!("{prefix}_val"), DataType::Int32),
        ])
    };
    catalog.create_table("fact", schema("f"))?;
    for i in 0..fact_rows {
        catalog.table_mut("fact")?.heap.append_row(&Row::new(vec![
            Value::Int32((i % dim_rows) as i32),
            Value::Int32(i as i32),
        ]))?;
    }
    for d in 0..dims {
        let name = format!("dim{d}");
        catalog.create_table(&name, schema("d"))?;
        for i in 0..dim_rows {
            catalog.table_mut(&name)?.heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Int32((i * 10) as i32),
            ]))?;
        }
    }
    for name in catalog
        .table_names()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
    {
        catalog.analyze_table(&name)?;
    }
    Ok(catalog)
}

fn main() -> hique::types::Result<()> {
    let dims = 4;
    let catalog = star_catalog(200_000, 20_000, dims)?;
    let sql = format!(
        "select fact.f_val from fact, {} where {}",
        (0..dims)
            .map(|d| format!("dim{d}"))
            .collect::<Vec<_>>()
            .join(", "),
        (0..dims)
            .map(|d| format!("fact.f_key = dim{d}.d_key"))
            .collect::<Vec<_>>()
            .join(" and "),
    );
    let parsed = hique::sql::parse_query(&sql)?;
    let bound = hique::sql::analyze(&parsed, &CatalogProvider::new(&catalog))?;

    // With join teams: one fused multi-way join, no intermediate results.
    let team_plan = plan_query(&bound, &catalog, &PlannerConfig::default())?;
    assert!(team_plan.join_team.is_some());
    let generated = hique::holistic::generate(&team_plan)?;
    #[expect(clippy::disallowed_methods, reason = "the example times each plan")]
    let t = Instant::now();
    let team = generated.execute_with(
        &catalog,
        &hique::types::ExecOptions {
            collect_rows: false,
            ..Default::default()
        },
    )?;
    let team_time = t.elapsed();

    // Without join teams: a cascade of binary joins with materialized
    // intermediates.
    let cascade_plan = plan_query(
        &bound,
        &catalog,
        &PlannerConfig::default().with_join_teams(false),
    )?;
    assert!(cascade_plan.join_team.is_none());
    let generated = hique::holistic::generate(&cascade_plan)?;
    #[expect(clippy::disallowed_methods, reason = "the example times each plan")]
    let t = Instant::now();
    let cascade = generated.execute_with(
        &catalog,
        &hique::types::ExecOptions {
            collect_rows: false,
            ..Default::default()
        },
    )?;
    let cascade_time = t.elapsed();

    assert_eq!(team.stats.rows_out, cascade.stats.rows_out);
    println!(
        "{dims}-way join over a common key, {} output tuples",
        team.stats.rows_out
    );
    println!(
        "  join team (fused loops)     : {:>8.2} ms, {} bytes of intermediates",
        team_time.as_secs_f64() * 1000.0,
        team.stats.bytes_materialized
    );
    println!(
        "  binary cascade (materialize): {:>8.2} ms, {} bytes of intermediates",
        cascade_time.as_secs_f64() * 1000.0,
        cascade.stats.bytes_materialized
    );
    Ok(())
}
