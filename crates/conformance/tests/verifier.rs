//! The static-verification gate for the bytecode VM.
//!
//! Three properties, each worthless without the others:
//!
//! 1. **Zero false positives** — every program the lowering pipeline emits
//!    for the 120-query conformance corpus verifies cleanly, in both
//!    compile modes.  A verifier that rejects real programs is a planner
//!    bug generator, not a safety net.
//! 2. **The mutation gate** — seeded single-op corruptions of those same
//!    programs are caught statically (≥ 95%) or fail typed at runtime;
//!    none panics, none returns rows.
//! 3. **Degradation leaks nothing** — when the VM refuses a plan at
//!    execution time (nested-loops degradation), the staging work it did
//!    before refusing must release every spill claim and pinned frame.

use hique_conformance::{run_mutation_suite, Fixture, QueryGenerator, MIN_REJECTION_RATE};
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};
use hique_types::HiqueError;
use hique_vm::CompileMode;

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x41_1CDE; // same stream as the differential suite
const CORPUS_QUERIES: usize = 120;

#[test]
fn conformance_corpus_compiles_and_verifies_cleanly_in_both_modes() {
    let fixture = Fixture::generate(SF).unwrap();
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut programs = 0usize;
    for _ in 0..CORPUS_QUERIES {
        let query = generator.next_query();
        let plan = plan_sql(&query.sql, &fixture.catalog, &query.config)
            .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
        let generated = hique_holistic::generate(&plan)
            .unwrap_or_else(|e| panic!("codegen failed (seed {:#x}): {e}", query.seed));
        for mode in [CompileMode::Specialized, CompileMode::Pooled] {
            // compile() verifies internally; an Err on a corpus query is a
            // false positive (or a lowering bug — both block the gate).
            let program =
                hique_vm::compile(&generated, &fixture.catalog, mode).unwrap_or_else(|e| {
                    panic!(
                        "verifier false positive (seed {:#x}, {mode:?}): {e}\n  sql: {}",
                        query.seed, query.sql
                    )
                });
            // And the explicit re-check, so the test still means something
            // if compile() ever stops verifying internally.
            program
                .verify(&generated, &fixture.catalog)
                .unwrap_or_else(|e| {
                    panic!(
                        "re-verify false positive (seed {:#x}, {mode:?}): {e}\n  sql: {}",
                        query.seed, query.sql
                    )
                });
            assert!(
                program.verify_cost() > std::time::Duration::ZERO,
                "compile() must record the verifier's cost"
            );
            programs += 1;
        }
    }
    assert_eq!(programs, 2 * CORPUS_QUERIES);
}

#[test]
fn mutation_gate_holds_on_the_corpus() {
    let fixture = Fixture::generate(SF).unwrap();
    let report = run_mutation_suite(&fixture, SUITE_SEED, 160);
    assert!(
        report.mutants >= 160,
        "mutation lane under-delivered: {} mutants",
        report.mutants
    );
    assert!(
        report.is_clean(),
        "mutation gate failed (needs ≥ {:.0}% rejected, zero silent, zero false \
         positives):\n{report}",
        MIN_REJECTION_RATE * 100.0
    );
    // The verifier is designed to catch every mutation kind statically; a
    // drop below 100% means a kind regressed to runtime-only detection.
    assert_eq!(
        report.rejected, report.mutants,
        "some mutants slipped past static verification:\n{report}"
    );
}

#[test]
fn nested_loops_degradation_releases_spills_and_pins() {
    // A paged fixture with a plan budget far below the join's staging
    // footprint: the VM stages (and spills) both inputs before discovering
    // the nested-loops step it cannot run.  The refusal must be typed and
    // must leave the temp space and buffer pool exactly as it found them.
    const POOL_PAGES: usize = 64;
    const PLAN_BUDGET_PAGES: usize = 16;
    let fixture = Fixture::generate_paged(0.01, POOL_PAGES).unwrap();
    let sql = "select o.o_orderkey, c.c_name from customer c, orders o \
               where c.c_custkey = o.o_custkey and o.o_totalprice < 100000";

    // Non-vacuity: the same query under the same budget with the default
    // join algorithm runs to completion *and spills* — so the degraded run
    // below really did have claims at stake when it bailed out.
    let hash_config = PlannerConfig::default().with_memory_budget_pages(PLAN_BUDGET_PAGES);
    let hash_plan = plan_sql(sql, &fixture.catalog, &hash_config).unwrap();
    let generated = hique_holistic::generate(&hash_plan).unwrap();
    let program =
        hique_vm::compile(&generated, &fixture.catalog, CompileMode::Specialized).unwrap();
    let result = program
        .execute(&generated, &fixture.catalog, &Default::default())
        .unwrap();
    assert!(
        result.stats.spilled_temporaries > 0,
        "the {PLAN_BUDGET_PAGES}-page budget did not force staging spills; \
         the leak assertions below would be vacuous"
    );

    let temp = fixture.catalog.storage().unwrap().temp().clone();
    let pool = fixture.catalog.buffer_pool().unwrap().clone();
    assert_eq!(temp.active_claims(), 0, "hash-join run leaked spill claims");
    assert_eq!(
        pool.pinned_frames(),
        0,
        "hash-join run leaked pinned frames"
    );

    // The degraded plan: same query, nested loops forced.  Compilation and
    // verification succeed (the bytecode is well-formed; the *executor*
    // refuses the algorithm), so the error surfaces mid-execution, after
    // staging has spilled.
    let nl_config = PlannerConfig::default()
        .with_join_algorithm(JoinAlgorithm::NestedLoops)
        .with_memory_budget_pages(PLAN_BUDGET_PAGES);
    let nl_plan = plan_sql(sql, &fixture.catalog, &nl_config).unwrap();
    assert_eq!(nl_plan.joins[0].algorithm, JoinAlgorithm::NestedLoops);
    let nl_generated = hique_holistic::generate(&nl_plan).unwrap();
    let nl_program =
        hique_vm::compile(&nl_generated, &fixture.catalog, CompileMode::Specialized).unwrap();
    let err = nl_program
        .execute(&nl_generated, &fixture.catalog, &Default::default())
        .expect_err("the VM must refuse nested-loops joins");
    assert!(
        matches!(err, HiqueError::Unsupported(_)),
        "degradation must be a typed Unsupported error, got: {err}"
    );
    assert_eq!(
        temp.active_claims(),
        0,
        "nested-loops degradation leaked spill claims"
    );
    assert_eq!(
        pool.pinned_frames(),
        0,
        "nested-loops degradation leaked pinned frames"
    );
    let orphans = std::fs::read_dir(fixture.catalog.storage().unwrap().dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "spill"))
        .count();
    assert_eq!(orphans, 0, "nested-loops degradation leaked spill files");
}
