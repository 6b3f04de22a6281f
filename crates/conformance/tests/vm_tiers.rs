//! Front-end differential: `engine=vm` is the holistic execution.
//!
//! The bytecode VM resolves its verified fragments into the kernel set the
//! generator builds from the plan, and the one driver runs the plan's
//! staging strategies, join algorithms (teams fused) and aggregation
//! algorithm over it.  So over the conformance corpus, each query with its
//! own configuration (threads, join teams), the two front ends must return
//! the same rows in the same order with floats equal by bits, and the same
//! [`hique_types::ExecStats`].  The only permitted difference is the VM's
//! own counter, `vm_batches` (the pages its resolved scans swept), which
//! the holistic engine leaves at zero.  A second pass runs the corpus from
//! a disk-backed catalog behind a 64-page pool with that budget forced into
//! every plan, as the spill lane does.
//!
//! Failure messages carry the per-query seed; reproduce one with
//! `cargo run --release -p hique-conformance --bin conformance -- --replay <seed>`.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::{Fixture, QueryGenerator};
use hique_plan::plan_sql;
use hique_types::{ExecStats, IoStats, Row, Value};
use hique_vm::CompileMode;

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x41_1CDE; // same corpus as the cross-engine gate
const SUITE_QUERIES: usize = 120;
/// The spill lane's forced budget, in pool frames and in every plan.
const BUDGET_PAGES: usize = 64;

/// Rows as exact text: floats by bit pattern.
fn exact(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            let values = row.values().iter().map(|v| match v {
                Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            });
            values.collect::<Vec<_>>().join("|")
        })
        .collect()
}

/// Run the corpus on both front ends over `fixture`, `budget` pages forced
/// into every plan when nonzero; returns (queries that swept pages on the
/// VM, runs that spilled).
fn check_corpus(fixture: &Fixture, budget: usize) -> (usize, usize) {
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let (mut swept, mut spilled) = (0usize, 0usize);
    for _ in 0..SUITE_QUERIES {
        let query = generator.next_query();
        let config = match budget {
            0 => query.config.clone(),
            pages => query.config.clone().with_memory_budget_pages(pages),
        };
        let seed = query.seed;
        let plan = plan_sql(&query.sql, &fixture.catalog, &config)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: planning failed: {e}"));
        let generated = hique_holistic::generate(&plan)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: codegen failed: {e}"));
        // Every plan the generator accepts lowers to bytecode.
        let program = hique_vm::compile(&generated, &fixture.catalog, CompileMode::Specialized)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: vm compile failed: {e}"));

        let options = hique_types::ExecOptions::default();
        let holistic = generated
            .execute_with(&fixture.catalog, &options)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: holistic failed: {e}"));
        let vm = program
            .execute(&generated, &fixture.catalog, &options)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: vm failed: {e}"));

        assert!(
            exact(&vm.rows) == exact(&holistic.rows),
            "seed {seed:#x} budget {budget}: vm rows diverge from holistic\n  sql: {}",
            query.sql
        );
        assert_eq!(
            holistic.stats.vm_batches, 0,
            "seed {seed:#x}: the holistic engine counted VM pages"
        );
        if vm.stats.tuples_processed > 0 {
            assert!(
                vm.stats.vm_batches > 0,
                "seed {seed:#x}: the VM processed {} tuples without sweeping a page",
                vm.stats.tuples_processed
            );
            swept += 1;
        }
        spilled += usize::from(vm.stats.spilled_temporaries > 0);

        // Every other counter — tuples, bytes, comparisons, hashes, passes,
        // calls, spill accounting — is the same work.  A budgeted run reads
        // through a pool the previous run left warm, so its pool traffic
        // (`io`) is not comparable between two runs and stays out.
        let masked = |stats: ExecStats| ExecStats {
            vm_batches: 0,
            io: if budget == 0 {
                stats.io
            } else {
                IoStats::default()
            },
            ..stats
        };
        assert_eq!(
            masked(vm.stats),
            masked(holistic.stats),
            "seed {seed:#x} budget {budget}: counters diverge between front ends\n  sql: {}",
            query.sql
        );
    }
    (swept, spilled)
}

#[test]
fn the_vm_front_end_is_the_holistic_execution_over_the_corpus() {
    let (swept, _) = check_corpus(&Fixture::generate(SF).unwrap(), 0);
    // The corpus must genuinely exercise the comparison: most queries move
    // tuples through the resolved scans.
    assert!(
        swept >= SUITE_QUERIES / 2,
        "only {swept}/{SUITE_QUERIES} queries swept a page on the VM"
    );

    let paged = Fixture::generate_paged(SF, BUDGET_PAGES).unwrap();
    let (swept, spilled) = check_corpus(&paged, BUDGET_PAGES);
    assert!(swept >= SUITE_QUERIES / 2, "budgeted: only {swept} swept");
    assert!(
        spilled > 0,
        "no query spilled under the {BUDGET_PAGES}-page budget; the pass proved nothing"
    );
}
