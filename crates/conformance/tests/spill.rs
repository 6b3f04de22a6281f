//! The memory-budget differential gate: tight-memory execution must be
//! invisible in results.
//!
//! A paged fixture puts every base table behind an LRU buffer pool whose
//! frame budget is far below the SF 0.01 working set, and every query runs
//! across the full matrix the pipeline substrate promises: all five engine
//! modes × `threads ∈ {1, 4}` × budget ∈ {64 pages, unbounded}.  Every cell
//! must return canonicalized results bit-identical to the unbounded
//! memory-resident fixture — and the pool must show real evictions, or the
//! budget was not actually below the working set and the suite proved
//! nothing.  Budgeted runs additionally prove the page-at-a-time contract:
//! the pool's peak residency never exceeds the budget, and the engines
//! report spilled temporaries (whole-partition reload would have blown the
//! pool's frame budget long before these queries finished).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::{canonicalize, compare, Engine, Fixture};
use hique_conformance::{runner::run_engine, QueryGenerator};
use hique_plan::{plan_sql, PlannerConfig};

const SF: f64 = 0.01;
/// Frames in the pool — the SF 0.01 working set is thousands of pages.
const BUDGET_PAGES: usize = 64;
const SUITE_SEED: u64 = 0x59111; // fixed so failures are reproducible
const SUITE_QUERIES: usize = 10;

#[test]
fn tight_budget_matches_unbounded_results_on_every_engine_mode() {
    let unbounded = Fixture::generate(SF).unwrap();
    let paged = Fixture::generate_paged(SF, BUDGET_PAGES).unwrap();

    // The premise of the gate: the budget sits far below the working set.
    let working_set: usize = paged
        .catalog
        .table_names()
        .iter()
        .map(|n| paged.catalog.table(n).unwrap().heap.num_pages())
        .sum();
    assert!(
        working_set > 8 * BUDGET_PAGES,
        "working set {working_set} pages does not dwarf the {BUDGET_PAGES}-page budget"
    );

    // Snapshot after fixture construction: the eviction assertion at the
    // end must be about the query suite, not about the DSM decomposition
    // (which trivially evicts while building the fixture).
    let suite_base = paged.catalog.pool_stats();

    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut nonempty = 0usize;
    let mut spilled_runs = 0usize;
    for _ in 0..SUITE_QUERIES {
        let query = generator.next_query();
        // The unbounded baseline is thread-independent: plan and run it once
        // per query, outside the thread sweep.
        let base_config = query
            .config
            .clone()
            .with_threads(1)
            .with_memory_budget_pages(BUDGET_PAGES);
        let mem_plan = plan_sql(&query.sql, &unbounded.catalog, &base_config)
            .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
        let baseline = run_engine(
            Engine::IterGeneric,
            &mem_plan,
            &unbounded.catalog,
            &unbounded.dsm,
        )
        .unwrap_or_else(|e| panic!("unbounded baseline failed (seed {:#x}): {e}", query.seed));
        let canonical_baseline = canonicalize(&baseline);
        nonempty += usize::from(canonical_baseline.num_rows() > 0);

        for threads in [1usize, 4] {
            for budget in [BUDGET_PAGES, 0] {
                let config = query
                    .config
                    .clone()
                    .with_threads(threads)
                    .with_memory_budget_pages(budget);
                // Statistics were collected before the spill, so both
                // catalogs produce the same plan; assert that premise
                // instead of assuming it.
                let paged_plan = plan_sql(&query.sql, &paged.catalog, &config)
                    .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
                assert_eq!(
                    mem_plan.join_order, paged_plan.join_order,
                    "plans diverged between fixtures (seed {:#x})",
                    query.seed
                );
                assert_eq!(paged_plan.memory_budget_pages, budget);

                for engine in Engine::ALL {
                    let result = run_engine(engine, &paged_plan, &paged.catalog, &paged.dsm)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} failed (seed {:#x}, threads {threads}, budget {budget}): {e}\n  sql: {}",
                                engine.name(),
                                query.seed,
                                query.sql
                            )
                        });
                    if let Err(mismatch) = compare(&canonicalize(&result), &canonical_baseline) {
                        panic!(
                            "{}: budget {budget} pages diverged from unbounded: {mismatch}\n  \
                             seed: {:#x}\n  threads: {threads}\n  sql: {}",
                            engine.name(),
                            query.seed,
                            query.sql
                        );
                    }
                    // Paged executions report their pool traffic; the
                    // holistic engine always scans base pages through the
                    // pool.
                    if engine == Engine::Holistic {
                        let io = result.stats.io;
                        assert!(
                            io.pool_hits + io.pool_misses > 0,
                            "holistic run reported no pool traffic (seed {:#x})",
                            query.seed
                        );
                    }
                    if budget > 0 {
                        // The page-at-a-time contract: the pool's peak
                        // residency never exceeds the budget, whatever the
                        // engine spilled and reloaded.
                        assert!(
                            result.stats.peak_resident_pages <= BUDGET_PAGES as u64,
                            "{}: peak {} pages > budget {BUDGET_PAGES} (seed {:#x})",
                            engine.name(),
                            result.stats.peak_resident_pages,
                            query.seed
                        );
                        spilled_runs += usize::from(result.stats.spilled_temporaries > 0);
                    }
                }
            }
        }
    }
    assert!(
        nonempty >= SUITE_QUERIES / 2,
        "only {nonempty}/{SUITE_QUERIES} baselines had rows; suite is too vacuous"
    );
    assert!(
        spilled_runs > 0,
        "no engine spilled a single temporary under the {BUDGET_PAGES}-page budget; \
         the spill paths were not exercised"
    );

    // The query suite itself must have actually spilled: evictions at the
    // pool and pages physically read back, beyond whatever fixture
    // construction did.
    let io = paged.catalog.pool_stats().since(&suite_base);
    assert!(io.pool_evictions > 0, "{io:?}");
    assert!(io.pages_read > 0, "{io:?}");
    // Unbounded fixture never touched a pool.
    assert_eq!(unbounded.catalog.pool_stats().evictions, 0);
}

/// Spill namespaces must not leak between queries: three budgeted
/// executions back-to-back on one catalog each claim, use and fully release
/// a private namespace — no claims outstanding afterwards, no spill files
/// left on disk, no admission-queue waits.
#[test]
fn temp_space_claims_released_between_sequential_queries() {
    let paged = Fixture::generate_paged(SF, BUDGET_PAGES).unwrap();
    let runtime = paged.catalog.storage().expect("paged fixture has storage");
    // A join + aggregation whose staged inputs comfortably exceed the
    // 64-page spill threshold at SF 0.01.
    let sql = "select o_orderpriority, count(*) as n from orders, lineitem \
               where o_orderkey = l_orderkey group by o_orderpriority \
               order by o_orderpriority";
    let config = PlannerConfig::default().with_memory_budget_pages(BUDGET_PAGES);
    let plan = plan_sql(sql, &paged.catalog, &config).unwrap();

    let spill_dir = runtime
        .temp()
        .path()
        .parent()
        .expect("spill base path has a directory")
        .to_path_buf();
    let spill_files = |dir: &std::path::Path| -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| {
                        e.path()
                            .extension()
                            .is_some_and(|ext| ext.to_str() == Some("spill"))
                    })
                    .count()
            })
            .unwrap_or(0)
    };

    let mut results = Vec::new();
    for _ in 0..3 {
        let result = run_engine(Engine::Holistic, &plan, &paged.catalog, &paged.dsm).unwrap();
        assert!(
            result.stats.spilled_temporaries > 0,
            "the probe query must actually spill for this test to mean anything"
        );
        // Sequential executions never queue for admission.
        assert_eq!(result.stats.spill_claim_denied, 0);
        results.push(canonicalize(&result));
        // The namespace was fully released: no claim outstanding, no spill
        // file left behind, and a reset probe (which refuses while claims
        // are live) succeeds.
        assert_eq!(runtime.temp().active_claims(), 0, "spill claim leaked");
        assert_eq!(
            spill_files(&spill_dir),
            0,
            "spill namespace file leaked in {}",
            spill_dir.display()
        );
        runtime.temp().reset().expect("no claims outstanding");
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}
