//! Golden-file pinning of TPC-H Q1/Q3/Q10 results.
//!
//! The canonical text of each query's result at a fixed scale factor is
//! checked into `tests/golden/`. Every engine must reproduce those bytes
//! exactly, so a regression in any layer — parser, optimizer, staging,
//! joins, aggregation, ordering — of any engine fails immediately with a
//! diff against a known-good answer.
//!
//! Regenerate after an intentional change with:
//! `HIQUE_BLESS=1 cargo test -p hique-conformance --test golden`

use std::path::PathBuf;

use hique_conformance::runner::{run_engine, Engine, Fixture};
use hique_conformance::{canonicalize, compare};
use hique_plan::{plan_sql, PlannerConfig};
use hique_types::ExecStats;

const SF: f64 = 0.004;

/// The work counters of [`ExecStats`]: what a plan over fixed data costs in
/// tuples, bytes, comparisons, hashes, calls and passes.  `io`, the spill
/// and peak fields and the timings depend on the pool and the clock, not on
/// the work, and stay out.
fn work_counters(s: &ExecStats) -> String {
    format!(
        "calls={} tuples={} bytes_touched={} bytes_materialized={} comparisons={} hash_ops={} \
         sort_passes={} partition_passes={} vm_batches={} rows_out={}",
        s.function_calls,
        s.tuples_processed,
        s.bytes_touched,
        s.bytes_materialized,
        s.comparisons,
        s.hash_ops,
        s.sort_passes,
        s.partition_passes,
        s.vm_batches,
        s.rows_out,
    )
}

/// Pin the work counters of the two kernel-providing engines at threads 1
/// and 4 in `<name>.stats.txt`: the tier and thread parity suites compare
/// runs of one commit with each other, this compares every commit with the
/// blessed one.
fn check_work_counters(fixture: &Fixture, name: &str, sql: &str) {
    let mut text = String::new();
    for engine in [Engine::Holistic, Engine::Vm] {
        for threads in [1usize, 4] {
            let config = PlannerConfig::default().with_threads(threads);
            let plan = plan_sql(sql, &fixture.catalog, &config).unwrap();
            let result = run_engine(engine, &plan, &fixture.catalog, &fixture.dsm).unwrap();
            text.push_str(&format!(
                "{} threads={threads} {}\n",
                engine.name(),
                work_counters(&result.stats)
            ));
        }
    }
    let path = golden_path(&format!("{name}.stats"));
    if std::env::var_os("HIQUE_BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: missing golden file {path:?} ({e}); run with HIQUE_BLESS=1 to create it")
    });
    assert_eq!(text, golden, "{name}: work counters moved from {path:?}");
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_query(fixture: &Fixture, name: &str, sql: &str) {
    let plan = plan_sql(sql, &fixture.catalog, &PlannerConfig::default()).unwrap();
    let path = golden_path(name);

    if std::env::var_os("HIQUE_BLESS").is_some() {
        let result = run_engine(Engine::Holistic, &plan, &fixture.catalog, &fixture.dsm).unwrap();
        std::fs::write(&path, canonicalize(&result).to_text()).unwrap();
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: missing golden file {path:?} ({e}); run with HIQUE_BLESS=1 to create it")
    });
    // The holistic engine is pinned byte-for-byte (the goldens were blessed
    // from it). The other engines may legally differ in float accumulation
    // order, which near a {:.4} rounding boundary could flip a printed
    // digit — so they are held to the harness's tolerant comparison against
    // the holistic result instead of to the exact bytes.
    let holistic =
        canonicalize(&run_engine(Engine::Holistic, &plan, &fixture.catalog, &fixture.dsm).unwrap());
    assert_eq!(
        holistic.to_text(),
        golden,
        "{name} on holistic no longer matches {path:?}"
    );
    for engine in Engine::ALL {
        if engine == Engine::Holistic {
            continue;
        }
        let canonical =
            canonicalize(&run_engine(engine, &plan, &fixture.catalog, &fixture.dsm).unwrap());
        if let Err(mismatch) = compare(&canonical, &holistic) {
            panic!(
                "{name} on {} diverges from golden: {mismatch}",
                engine.name()
            );
        }
    }
}

#[test]
fn tpch_results_match_golden_files() {
    let fixture = Fixture::generate(SF).unwrap();
    for (name, sql) in hique_tpch::queries::all_queries() {
        check_query(&fixture, &name.to_ascii_lowercase(), sql);
        check_work_counters(&fixture, &name.to_ascii_lowercase(), sql);
    }
    // The golden results must not be vacuous: Q1 always has the full
    // flag/status groups at this scale factor.
    let q1 = std::fs::read_to_string(golden_path("q1")).unwrap();
    assert!(
        q1.lines().count() >= 4,
        "q1 golden file is suspiciously small"
    );
}
