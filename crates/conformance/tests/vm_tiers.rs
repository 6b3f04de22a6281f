//! Tier differential: the vectorized tier — the verified fragments resolved
//! into the compiled kernels' objects and run through core's loops — must
//! be bit-identical to the scalar reference interpreter over the
//! conformance corpus: canonical rows AND every [`hique_types::ExecStats`]
//! counter.  The only permitted difference is the vectorized tier's own
//! telemetry (`vm_batches`), which the scalar tier leaves at zero.
//!
//! Failure messages carry the per-query seed; reproduce one with
//! `cargo run --release -p hique-conformance --bin conformance -- --replay <seed>`.

use hique_conformance::{canonicalize, compare, Fixture, QueryGenerator};
use hique_plan::plan_sql;
use hique_vm::{CompileMode, Tier};

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x41_1CDE; // same corpus as the cross-engine gate
const SUITE_QUERIES: usize = 120;

#[test]
fn vectorized_tier_is_bit_identical_to_scalar_over_the_corpus() {
    let fixture = Fixture::generate(SF).unwrap();
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut batched = 0usize;
    for _ in 0..SUITE_QUERIES {
        let query = generator.next_query();
        let plan = plan_sql(&query.sql, &fixture.catalog, &query.config)
            .unwrap_or_else(|e| panic!("seed {:#x}: planning failed: {e}", query.seed));
        let generated = hique_holistic::generate(&plan)
            .unwrap_or_else(|e| panic!("seed {:#x}: codegen failed: {e}", query.seed));
        // Every plan the generator accepts lowers to bytecode.
        let program = hique_vm::compile(&generated, &fixture.catalog, CompileMode::Specialized)
            .unwrap_or_else(|e| panic!("seed {:#x}: vm compile failed: {e}", query.seed));

        let options = hique_types::ExecOptions::default();
        let scalar = program
            .execute_with_tier(&generated, &fixture.catalog, &options, Tier::Scalar)
            .unwrap_or_else(|e| panic!("seed {:#x}: scalar tier failed: {e}", query.seed));
        let vectorized = program
            .execute_with_tier(&generated, &fixture.catalog, &options, Tier::Vectorized)
            .unwrap_or_else(|e| panic!("seed {:#x}: vectorized tier failed: {e}", query.seed));

        if let Err(mismatch) = compare(&canonicalize(&vectorized), &canonicalize(&scalar)) {
            panic!(
                "seed {:#x}: vectorized rows diverge from scalar: {mismatch}\n  sql: {}",
                query.seed, query.sql
            );
        }

        // The scalar tier must not report batch telemetry...
        assert_eq!(
            scalar.stats.vm_batches, 0,
            "seed {:#x}: scalar tier reported batch telemetry",
            query.seed
        );
        // ...and the vectorized tier must actually run batched whenever it
        // touched a tuple.
        if vectorized.stats.tuples_processed > 0 {
            assert!(
                vectorized.stats.vm_batches > 0,
                "seed {:#x}: vectorized tier processed {} tuples in zero batches",
                query.seed,
                vectorized.stats.tuples_processed
            );
            batched += 1;
        }

        // Every shared counter — tuples, bytes, comparisons, hashes, spill
        // accounting, io — must agree exactly once the vectorized-only
        // telemetry is zeroed out.
        let mut masked = vectorized.stats;
        masked.vm_batches = 0;
        assert_eq!(
            masked, scalar.stats,
            "seed {:#x}: counters diverge between tiers\n  sql: {}",
            query.seed, query.sql
        );
    }
    // The corpus must genuinely exercise the comparison: most queries move
    // tuples through batches.
    assert!(
        batched >= SUITE_QUERIES / 2,
        "only {batched}/{SUITE_QUERIES} queries moved tuples through batches"
    );
}
