//! Experiment E11 — Table III: query preparation cost.
//!
//! For TPC-H Q1/Q3/Q10, measures the time spent parsing, optimizing,
//! generating the query's kernel program and compiling it at query time,
//! and reports the size of what that compile produced.  The paper's last
//! two columns are its `gcc` compile time and shared-library size; here the
//! query-time compiler is the bytecode VM, so *compile* is
//! `hique_vm::compile` in [`CompileMode::Specialized`] (the per-query
//! constant specialization the paper's `gcc` step performs) and *bytecode*
//! is the compiled program's length in ops.  The paper's source-size column
//! is not reproduced: the generator instantiates its templates directly as
//! kernels and emits no source text (`DESIGN.md` §2).
//!
//! After the table, each query's bytecode runs once and must return the
//! holistic program's rows; a disagreement fails the binary.  `--sf` is the
//! TPC-H scale factor (default 0.01); each query is prepared once, cold, so
//! `--repeats` is not read.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use std::time::Instant;

use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
use hique_tpch::queries::all_queries;
use hique_types::ExecOptions;
use hique_vm::CompileMode;

fn main() {
    let sf = hique_bench::cli::Args::from_env().sf.unwrap_or(0.01);
    let catalog = hique_tpch::generate_into_catalog(sf).expect("tpch generation");

    println!("== Table III: query preparation cost (SF = {sf}) ==");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>14} {:>16}",
        "query", "parse (µs)", "optimize (µs)", "generate (µs)", "compile (µs)", "bytecode (ops)"
    );
    let mut prepared = Vec::new();
    for (name, sql) in all_queries() {
        #[expect(clippy::disallowed_methods, reason = "Table III times each stage")]
        let t0 = Instant::now();
        let parsed = hique_sql::parse_query(sql).expect("parse");
        let parse_us = t0.elapsed().as_micros();

        #[expect(clippy::disallowed_methods, reason = "Table III times each stage")]
        let t1 = Instant::now();
        let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(&catalog)).expect("analyze");
        let plan = plan_query(&bound, &catalog, &PlannerConfig::default()).expect("plan");
        let optimize_us = t1.elapsed().as_micros();

        #[expect(clippy::disallowed_methods, reason = "Table III times each stage")]
        let t2 = Instant::now();
        let generated = hique_holistic::generate(&plan).expect("generate");
        let generate_us = t2.elapsed().as_micros();

        #[expect(clippy::disallowed_methods, reason = "Table III times each stage")]
        let t3 = Instant::now();
        let program =
            hique_vm::compile(&generated, &catalog, CompileMode::Specialized).expect("compile");
        let compile_us = t3.elapsed().as_micros();

        println!(
            "{:<8} {:>12} {:>14} {:>14} {:>14} {:>16}",
            name,
            parse_us,
            optimize_us,
            generate_us,
            compile_us,
            program.code_len()
        );
        prepared.push((name, generated, program));
    }

    let mut agreed = Vec::new();
    for (name, generated, program) in &prepared {
        let holistic = generated.execute(&catalog).expect("holistic execution");
        let vm = program
            .execute(generated, &catalog, &ExecOptions::default())
            .expect("bytecode execution");
        assert_eq!(
            vm.rows, holistic.rows,
            "{name}: the compiled bytecode disagrees with the holistic program"
        );
        agreed.push(format!("{name} ({} rows)", vm.num_rows()));
    }
    println!(
        "bytecode agrees with the holistic program: {}",
        agreed.join(", ")
    );
}
