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
//! 3. **Failure leaks nothing** — when a VM run fails after its staging
//!    has spilled (a scheduled storage fault, the chaos lane's mechanism),
//!    every spill claim, pinned frame and spill file it made is released.

use std::sync::Arc;

use hique_conformance::{run_mutation_suite, Fixture, QueryGenerator, MIN_REJECTION_RATE};
use hique_plan::{plan_sql, PlannerConfig};
use hique_storage::FaultPlan;
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
fn a_fault_after_staging_spilled_releases_spills_and_pins() {
    // A paged fixture with a plan budget far below the join's staging
    // footprint, so the VM's staged inputs spill.  A fault scheduled on the
    // run's last spill allocation then fails it after the earlier spills
    // succeeded: the error must be typed and must leave the temp space,
    // buffer pool and spill directory exactly as it found them.
    const POOL_PAGES: usize = 64;
    const PLAN_BUDGET_PAGES: usize = 16;
    let fixture = Fixture::generate_paged(0.01, POOL_PAGES).unwrap();
    let sql = "select o.o_orderkey, c.c_name from customer c, orders o \
               where c.c_custkey = o.o_custkey and o.o_totalprice < 100000";
    let config = PlannerConfig::default().with_memory_budget_pages(PLAN_BUDGET_PAGES);
    let plan = plan_sql(sql, &fixture.catalog, &config).unwrap();
    let generated = hique_holistic::generate(&plan).unwrap();
    let program =
        hique_vm::compile(&generated, &fixture.catalog, CompileMode::Specialized).unwrap();
    let storage = fixture.catalog.storage().unwrap();
    let run = |faults: FaultPlan| {
        let faults = Arc::new(faults);
        storage.install_fault_plan(Some(Arc::clone(&faults)));
        let result = program.execute(&generated, &fixture.catalog, &Default::default());
        storage.install_fault_plan(None);
        (result, faults)
    };
    let temp = storage.temp().clone();
    let pool = fixture.catalog.buffer_pool().unwrap().clone();
    let assert_released = |context: &str| {
        assert_eq!(temp.active_claims(), 0, "{context} leaked spill claims");
        assert_eq!(pool.pinned_frames(), 0, "{context} leaked pinned frames");
        let orphans = std::fs::read_dir(storage.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "spill"))
            .count();
        assert_eq!(orphans, 0, "{context} leaked spill files");
    };

    // Non-vacuity: fault-free, the run completes *and spills*, through
    // more than one allocation — so the faulted run below still has the
    // earlier spills' claims at stake when it fails.
    let (result, counted) = run(FaultPlan::new());
    let result = result.unwrap();
    assert!(
        result.stats.spilled_temporaries > 0,
        "the {PLAN_BUDGET_PAGES}-page budget did not force staging spills; \
         the leak assertions below would be vacuous"
    );
    let (_, _, allocations) = counted.ops_seen();
    assert!(
        allocations >= 2,
        "{allocations} spill allocation(s): no spill precedes the last one"
    );
    assert_released("the fault-free run");

    // Spill allocations depend only on the plan and the budget, not on
    // what the pool holds, so the same schedule fires on the same one.
    let (result, faults) = run(FaultPlan::new().disk_full_on_alloc(allocations));
    assert_eq!(faults.injected(), 1, "the scheduled fault did not fire");
    let err = result.expect_err("a failed spill allocation must fail the run");
    assert!(
        err.is_retryable() && err.to_string().contains("injected fault:"),
        "the failure must be the typed injected fault, got: {err}"
    );
    assert_released("the faulted run");
}
