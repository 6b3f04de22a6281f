//! The concurrent-session differential gate.
//!
//! Four threads, each owning a [`hique_server::Session`] on one shared
//! server (one catalog, one 64-page buffer pool, one plan cache), replay
//! disjoint slices of the random-query battery *simultaneously* — with the
//! engine mode rotating deterministically per query index.  Every
//! canonicalized result must be bit-identical to a serial replay of the
//! same battery through a single session, every execution must stay inside
//! the pool budget (the per-execution peak window), no execution may hit
//! the spill-admission queue (four sessions, four claim slots), and the
//! concurrent pass must run entirely off the plan cache the serial pass
//! populated.
//!
//! This is the regression gate for the two PR 6 bug fixes: the
//! single-claim `TempSpace` (concurrent budgeted executions used to race
//! one claim or silently run unbounded) and the clobberable
//! `peak_resident` rebase (overlapping executions used to report each
//! other's high-water marks).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::{canonicalize, QueryGenerator};
use hique_server::{Engine, Server, ServerConfig};

const SF: f64 = 0.01;
/// Pool frames — far below the SF 0.01 working set, so queries page and
/// budgeted ones spill.
const BUDGET_PAGES: usize = 64;
const SUITE_SEED: u64 = 0xC0C0; // fixed so failures are reproducible
const SUITE_QUERIES: usize = 24;
const SESSIONS: usize = 4;

fn engine_for(index: usize) -> Engine {
    Engine::ALL[index % Engine::ALL.len()]
}

/// The cache-key regression gate: a point-lookup workload — one query
/// template replayed with a varying constant — used to miss the
/// literal-preserving plan cache on every single request.  Keyed on the
/// shape class, every replay after the first must hit (rebinding the
/// pooled bytecode template to the new constants), and the answers must
/// match the paper's engine evaluating each query from scratch.
#[test]
fn literal_varying_replays_hit_the_class_keyed_cache() {
    let catalog = hique_tpch::generate_into_catalog(SF).unwrap();
    let server = Server::new(catalog, ServerConfig::default()).unwrap();
    let mut session = server.session();
    let mut reference = server.session();
    for qty in [5, 10, 15, 20, 25, 30, 35, 40] {
        let sql = format!(
            "select l_returnflag, count(*) as n, sum(l_extendedprice) as rev \
             from lineitem where l_quantity < {qty} \
             group by l_returnflag order by l_returnflag"
        );
        let vm = session.execute_on(&sql, Engine::Vm).unwrap();
        let holistic = reference.execute_on(&sql, Engine::Holistic).unwrap();
        assert_eq!(
            canonicalize(&vm).to_text(),
            canonicalize(&holistic).to_text(),
            "rebound bytecode diverged on qty < {qty}"
        );
    }
    let stats = server.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "only the first replay pays a full preparation: {stats:?}"
    );
    assert_eq!(stats.template_hits, 7, "{stats:?}");
    assert!(
        stats.hits > stats.template_hits,
        "the reference session's exact repeats must also hit: {stats:?}"
    );
}

#[test]
fn concurrent_sessions_match_serial_replay_bit_for_bit() {
    let mut catalog = hique_tpch::generate_into_catalog(SF).unwrap();
    catalog.spill_to_disk(BUDGET_PAGES).unwrap();
    let server = Server::new(
        catalog,
        ServerConfig {
            max_sessions: SESSIONS,
            threads: 1,
            memory_budget_pages: BUDGET_PAGES,
            plan_cache_capacity: 256,
        },
    )
    .unwrap();

    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let queries: Vec<String> = (0..SUITE_QUERIES)
        .map(|_| generator.next_query().sql)
        .collect();

    // Serial baseline: one session, every query in order, rotating engines.
    let mut session = server.session();
    let mut baseline = Vec::with_capacity(queries.len());
    let mut spilled_runs = 0usize;
    for (i, sql) in queries.iter().enumerate() {
        let result = session
            .execute_on(sql, engine_for(i))
            .unwrap_or_else(|e| panic!("serial query {i} failed: {e}\n  sql: {sql}"));
        assert!(
            result.stats.peak_resident_pages <= BUDGET_PAGES as u64,
            "serial query {i}: peak {} pages > budget {BUDGET_PAGES}",
            result.stats.peak_resident_pages
        );
        assert_eq!(
            result.stats.spill_claim_denied, 0,
            "serial query {i} queued for a spill claim with no contention"
        );
        spilled_runs += usize::from(result.stats.spilled_temporaries > 0);
        baseline.push(canonicalize(&result).to_text());
    }
    assert!(
        spilled_runs > 0,
        "no query spilled under the {BUDGET_PAGES}-page budget; the gate \
         is not exercising the multi-tenant spill path"
    );
    let after_serial = server.cache_stats();
    assert!(after_serial.misses > 0);

    // Concurrent replay: SESSIONS threads, strided slices, same engine
    // rotation.  Every preparation must come from the shared cache.
    let slices: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let server = &server;
        let queries = &queries;
        let handles: Vec<_> = (0..SESSIONS)
            .map(|t| {
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut out = Vec::new();
                    for (i, sql) in queries.iter().enumerate().skip(t).step_by(SESSIONS) {
                        let result = session.execute_on(sql, engine_for(i)).unwrap_or_else(|e| {
                            panic!("session {t} query {i} failed: {e}\n  sql: {sql}")
                        });
                        // The two fixed bugs, asserted under real
                        // concurrency: each execution's peak window stays
                        // inside the shared budget, and with one claim slot
                        // per session nobody waits in the admission queue.
                        assert!(
                            result.stats.peak_resident_pages <= BUDGET_PAGES as u64,
                            "session {t} query {i}: peak {} pages > budget {BUDGET_PAGES}",
                            result.stats.peak_resident_pages
                        );
                        assert_eq!(
                            result.stats.spill_claim_denied, 0,
                            "session {t} query {i} was denied a spill claim \
                             ({SESSIONS} sessions, {SESSIONS} slots)"
                        );
                        out.push((i, canonicalize(&result).to_text()));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut replayed = 0usize;
    for (i, text) in slices.into_iter().flatten() {
        assert_eq!(
            text, baseline[i],
            "concurrent replay diverged from serial on query {i}\n  sql: {}",
            queries[i]
        );
        replayed += 1;
    }
    assert_eq!(replayed, SUITE_QUERIES);

    // The concurrent pass ran entirely off the cache the serial pass
    // populated: hits grew by the full battery, misses not at all.
    let stats = server.cache_stats();
    assert_eq!(
        stats.misses, after_serial.misses,
        "concurrent sessions re-prepared cached shapes: {stats:?}"
    );
    assert!(
        stats.hits >= after_serial.hits + SUITE_QUERIES as u64,
        "expected every concurrent execution to hit the plan cache: {stats:?}"
    );

    // Nothing leaked: all spill claims released once the threads joined.
    let runtime = server.catalog().storage().expect("paged catalog");
    assert_eq!(runtime.temp().active_claims(), 0, "spill claim leaked");
}
