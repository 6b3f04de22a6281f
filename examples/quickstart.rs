//! Quickstart: create tables, load rows, and run SQL through the holistic
//! engine and the bytecode VM compiled from the same generated program.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "demos may panic")]

use hique::holistic;
use hique::plan::{plan_sql, PlannerConfig};
use hique::storage::Catalog;
use hique::types::{Column, DataType, Row, Schema, Value};

fn main() -> hique::types::Result<()> {
    // 1. Define a schema and load some rows (NSM heap, 4 KiB pages).
    let mut catalog = Catalog::new();
    catalog.create_table(
        "sales",
        Schema::new(vec![
            Column::new("region", DataType::Char(8)),
            Column::new("product", DataType::Int32),
            Column::new("amount", DataType::Float64),
            Column::new("sold_on", DataType::Date),
        ]),
    )?;
    let regions = ["north", "south", "east", "west"];
    for i in 0..10_000i32 {
        catalog.table_mut("sales")?.heap.append_row(&Row::new(vec![
            Value::Str(regions[(i % 4) as usize].to_string()),
            Value::Int32(i % 50),
            Value::Float64(10.0 + (i % 90) as f64),
            Value::Date(9000 + i % 365),
        ]))?;
    }
    catalog.analyze_table("sales")?;

    // 2. Parse, analyze and optimize a query.
    let sql = "select region, sum(amount) as total, count(*) as n \
               from sales where product < 25 group by region order by total desc";
    let plan = plan_sql(sql, &catalog, &PlannerConfig::default())?;
    println!("{}", hique::plan::explain::explain(&plan));

    // 3. Generate query-specific code and execute it.
    let generated = holistic::generate(&plan)?;
    let result = generated.execute(&catalog)?;
    println!("{}", result.to_text());
    println!("counters: {}", result.stats);

    // 4. Compile the same program at query time: lower its kernels to
    //    register bytecode and run them through the same driver (the `vm`
    //    engine, the fastest mode).
    let program = hique::vm::compile(&generated, &catalog, hique::vm::CompileMode::Specialized)?;
    let vm = program.execute(&generated, &catalog, &Default::default())?;
    println!(
        "\nvm: {} bytecode ops compiled in {:?}, {} rows",
        program.code_len(),
        program.compile_cost(),
        vm.num_rows()
    );
    println!("counters: {}", vm.stats);
    Ok(())
}
