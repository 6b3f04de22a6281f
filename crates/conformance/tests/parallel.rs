//! The `threads = 1` ≡ `threads = N` equivalence gate.
//!
//! The partition-parallel executor promises that every generated query
//! produces identical canonicalized results whatever the pool width.  This
//! suite plans each random query twice — once serial, once with four
//! workers — and runs *all five engine modes* under both plans: the
//! iterator and DSM engines ignore the knob (a trivial identity that guards
//! against the knob leaking into planning), while the holistic engine
//! exercises the parallel staging, join and aggregation paths for real.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::{canonicalize, compare, Engine, Fixture};
use hique_conformance::{runner::run_engine, QueryGenerator};
use hique_plan::plan_sql;

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x9A_11E1; // fixed so failures are reproducible
const SUITE_QUERIES: usize = 40;

#[test]
fn four_workers_agree_with_serial_on_every_engine_mode() {
    let fixture = Fixture::generate(SF).unwrap();
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut nonempty = 0usize;
    for _ in 0..SUITE_QUERIES {
        let query = generator.next_query();
        let serial_config = query.config.clone().with_threads(1);
        let parallel_config = query.config.clone().with_threads(4);
        let serial_plan = plan_sql(&query.sql, &fixture.catalog, &serial_config)
            .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
        let parallel_plan = plan_sql(&query.sql, &fixture.catalog, &parallel_config)
            .unwrap_or_else(|e| panic!("planning failed (seed {:#x}): {e}", query.seed));
        assert_eq!(serial_plan.threads, 1);
        assert_eq!(parallel_plan.threads, 4);

        for engine in Engine::ALL {
            let serial = run_engine(engine, &serial_plan, &fixture.catalog, &fixture.dsm)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} failed serial (seed {:#x}): {e}\n  sql: {}",
                        engine.name(),
                        query.seed,
                        query.sql
                    )
                });
            let parallel = run_engine(engine, &parallel_plan, &fixture.catalog, &fixture.dsm)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} failed with 4 workers (seed {:#x}): {e}\n  sql: {}",
                        engine.name(),
                        query.seed,
                        query.sql
                    )
                });
            if let Err(mismatch) = compare(&canonicalize(&parallel), &canonicalize(&serial)) {
                panic!(
                    "{}: threads=4 diverged from threads=1: {mismatch}\n  seed: {:#x}\n  sql: {}",
                    engine.name(),
                    query.seed,
                    query.sql
                );
            }
            if engine == Engine::Holistic {
                // The stats contract is stronger than result equality:
                // per-worker counters must sum exactly to the serial counts.
                assert_eq!(
                    parallel.stats, serial.stats,
                    "holistic stats diverged (seed {:#x})\n  sql: {}",
                    query.seed, query.sql
                );
                nonempty += usize::from(parallel.num_rows() > 0);
            }
        }
    }
    assert!(
        nonempty >= SUITE_QUERIES / 2,
        "only {nonempty}/{SUITE_QUERIES} holistic results had rows; suite is too vacuous"
    );
}
