//! The chaos lane: differential conformance under injected storage faults
//! and cooperative cancellation.
//!
//! The plain differential suite ([`crate::runner`]) checks that all four
//! engine modes agree on the *happy path*.  This module checks the paper's
//! implicit robustness contract on the unhappy paths: with a seeded
//! [`FaultPlan`] installed under the buffer pool, or a cancellation deadline
//! armed, every engine must produce **either** a result bit-identical to the
//! fault-free baseline **or** a typed, retryable error ([`HiqueError`]
//! carrying the `injected fault:` marker, or [`HiqueError::Cancelled`]) —
//! never a panic, never a wrong answer, and never a leak:
//!
//! * zero outstanding spill claims ([`TempSpace::active_claims`]) after
//!   every run, successful or failed;
//! * zero pinned buffer-pool frames ([`BufferPool::pinned_frames`]);
//! * no page image lost by the pool ([`BufferPool::images`] no lower than
//!   before the run);
//! * zero orphaned `*.spill` files in the storage runtime directory;
//! * a follow-up fault-free query on the same pool still matches the
//!   baseline (the pool survived the failure usable).
//!
//! Every run is deterministic from `(base_seed, query index, engine,
//! threads)`: the fault schedule comes from [`FaultPlan::from_seed`] and the
//! cancel schedule picks a deadline from the same hash, so any reported
//! failure replays exactly.
//!
//! [`TempSpace::active_claims`]: hique_storage::TempSpace::active_claims
//! [`BufferPool::pinned_frames`]: hique_storage::BufferPool::pinned_frames
//! [`BufferPool::images`]: hique_storage::BufferPool::images

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use hique_plan::plan_sql;
use hique_server::run_plan;
use hique_storage::FaultPlan;
use hique_types::{CancelToken, ExecOptions, HiqueError};

use crate::canon::{canonicalize, compare, CanonicalResult};
use crate::genquery::QueryGenerator;
use crate::runner::{run_engine, Engine, Fixture};

/// Spill budget (in pool pages) forced onto every chaos query's planner
/// config, so spill paths (the fault surface for writes and allocations) are
/// exercised on every run.
pub const CHAOS_BUDGET_PAGES: usize = 64;

/// Thread counts each chaos query is planned and executed under.
pub const CHAOS_THREADS: [usize; 2] = [1, 4];

/// One chaos run that broke the contract.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Per-query generator seed (replays the SQL and base config).
    pub seed: u64,
    pub engine: &'static str,
    pub threads: usize,
    /// Which schedule was active: `fault`, `cancel`, `recovery` or `leak`.
    pub mode: &'static str,
    pub detail: String,
    pub sql: String,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (threads {}): {}\n  seed: {:#x}\n  sql: {}",
            self.mode, self.engine, self.threads, self.detail, self.seed, self.sql
        )
    }
}

/// Aggregate outcome of a chaos suite.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Seeded queries replayed.
    pub queries: usize,
    /// Individual engine runs (fault + cancel schedules, all engines and
    /// thread counts, plus recovery probes).
    pub runs: usize,
    /// Runs that completed and matched the fault-free baseline exactly.
    pub matched: usize,
    /// Runs that surfaced a typed injected-fault error.
    pub injected_errors: usize,
    /// Runs that surfaced a typed cancellation.
    pub cancellations: usize,
    /// Total faults the installed plans actually fired.
    pub faults_fired: u64,
    /// Contract violations (wrong result, untyped error, or leak).
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos: {} queries, {} runs ({} matched baseline, {} injected errors, \
             {} cancellations, {} faults fired), {} failures",
            self.queries,
            self.runs,
            self.matched,
            self.injected_errors,
            self.cancellations,
            self.faults_fired,
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "--- {failure}")?;
        }
        Ok(())
    }
}

/// `*.spill` files currently present under the storage runtime directory.
/// Namespaces unlink their file on drop, so anything left between runs is a
/// leak.
fn orphan_spill_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut orphans = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "spill") {
                orphans.push(path);
            }
        }
    }
    orphans
}

/// Post-run leak audit: claims, pins and spill files must all be back to
/// zero whether the run succeeded, faulted or was cancelled, and the pool
/// must own at least as many page images as before the run
/// (`images_before`): an image leaves the pool only with a reader still
/// holding it, and none is left once the run has returned.  The count may
/// grow while the pool is not yet full; on the chaos fixtures the first
/// scan fills it, so there it stays exactly the same.
fn leak_detail(fixture: &Fixture, images_before: usize) -> Option<String> {
    let storage = fixture.catalog.storage()?;
    let claims = storage.temp().active_claims();
    let pins = storage.pool().pinned_frames();
    let images = storage.pool().images();
    let orphans = orphan_spill_files(storage.dir());
    if claims == 0 && pins == 0 && images >= images_before && orphans.is_empty() {
        return None;
    }
    Some(format!(
        "leaked state after run: {claims} spill claim(s), {pins} pinned frame(s), \
         {images} of {images_before} page image(s), {} orphan spill file(s) {:?}",
        orphans.len(),
        orphans
    ))
}

/// How one chaos run resolved against the contract.
enum RunOutcome {
    Matched,
    InjectedError,
    Cancelled,
    Violation(String),
}

/// Classify one engine result against the fault-free baseline.  `allow`
/// names the error class this schedule may legitimately produce.
fn classify(
    result: Result<hique_types::QueryResult, HiqueError>,
    baseline: &CanonicalResult,
    allow_cancel: bool,
) -> RunOutcome {
    match result {
        Ok(result) => match compare(&canonicalize(&result), baseline) {
            Ok(()) => RunOutcome::Matched,
            Err(mismatch) => RunOutcome::Violation(format!(
                "completed but diverged from fault-free baseline: {mismatch}"
            )),
        },
        Err(HiqueError::Cancelled(_)) if allow_cancel => RunOutcome::Cancelled,
        Err(e) if e.is_retryable() && !allow_cancel => RunOutcome::InjectedError,
        Err(e) => RunOutcome::Violation(format!(
            "surfaced an error outside this schedule's contract: {e}"
        )),
    }
}

/// The finalizer step of splitmix64, used to derive per-run schedules.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replay `count` seeded queries under seeded fault and cancellation
/// schedules across all five engine modes and both [`CHAOS_THREADS`]
/// settings, auditing results, error types and storage leaks after every
/// run.
///
/// The fixture must be paged ([`Fixture::generate_paged`]) so the buffer
/// pool and spill space exist to inject into; a memory-resident fixture
/// makes the lane vacuous and panics instead of silently passing.
pub fn run_chaos_suite(fixture: &Fixture, base_seed: u64, count: usize) -> ChaosReport {
    #[expect(
        clippy::expect_used,
        reason = "harness precondition: the chaos lane demands a paged fixture and says so"
    )]
    let storage = fixture
        .catalog
        .storage()
        .expect("chaos lane requires a paged fixture (Fixture::generate_paged)");
    let mut generator = QueryGenerator::new(base_seed, fixture.sf);
    let mut report = ChaosReport::default();

    for _ in 0..count {
        let query = generator.next_query();
        report.queries += 1;
        for threads in CHAOS_THREADS {
            let config = query
                .config
                .clone()
                .with_memory_budget_pages(CHAOS_BUDGET_PAGES)
                .with_threads(threads);
            let plan = match plan_sql(&query.sql, &fixture.catalog, &config) {
                Ok(plan) => plan,
                Err(e) => {
                    report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: "planner",
                        threads,
                        mode: "fault",
                        detail: format!("planning failed: {e}"),
                        sql: query.sql.clone(),
                    });
                    continue;
                }
            };

            // Fault-free baseline for this plan; a baseline error is a plain
            // engine bug, not chaos.
            let baseline =
                match run_engine(Engine::IterGeneric, &plan, &fixture.catalog, &fixture.dsm) {
                    Ok(result) => canonicalize(&result),
                    Err(e) => {
                        report.failures.push(ChaosFailure {
                            seed: query.seed,
                            engine: "iter-generic",
                            threads,
                            mode: "recovery",
                            detail: format!("fault-free baseline failed: {e}"),
                            sql: query.sql.clone(),
                        });
                        continue;
                    }
                };

            for (engine_idx, engine) in Engine::ALL.into_iter().enumerate() {
                let run_seed = mix(query.seed ^ ((engine_idx as u64) << 32) ^ threads as u64);

                // Schedule 1: a seeded storage fault under the pool.
                let images = storage.pool().images();
                let fault_plan = Arc::new(FaultPlan::from_seed(run_seed));
                storage.install_fault_plan(Some(Arc::clone(&fault_plan)));
                let result = run_engine(engine, &plan, &fixture.catalog, &fixture.dsm);
                storage.install_fault_plan(None);
                report.runs += 1;
                report.faults_fired += fault_plan.injected();
                match classify(result, &baseline, false) {
                    RunOutcome::Matched => report.matched += 1,
                    RunOutcome::InjectedError => report.injected_errors += 1,
                    RunOutcome::Cancelled => unreachable!("fault schedule cannot cancel"),
                    RunOutcome::Violation(detail) => report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: engine.name(),
                        threads,
                        mode: "fault",
                        detail,
                        sql: query.sql.clone(),
                    }),
                }
                if let Some(detail) = leak_detail(fixture, images) {
                    report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: engine.name(),
                        threads,
                        mode: "leak",
                        detail,
                        sql: query.sql.clone(),
                    });
                }

                // Schedule 2: a seeded cancellation deadline (0–2ms; zero
                // always fires, the rest race the query, and both outcomes
                // are legal).
                let images = storage.pool().images();
                let deadline = Duration::from_millis((run_seed >> 16) % 3);
                let cancel = CancelToken::with_deadline(deadline);
                let options = ExecOptions {
                    cancel,
                    ..ExecOptions::default()
                };
                let result = run_plan(
                    engine,
                    &plan,
                    &fixture.catalog,
                    Some(&fixture.dsm),
                    &options,
                );
                report.runs += 1;
                match classify(result, &baseline, true) {
                    RunOutcome::Matched => report.matched += 1,
                    RunOutcome::Cancelled => report.cancellations += 1,
                    RunOutcome::InjectedError => unreachable!("no fault plan installed"),
                    RunOutcome::Violation(detail) => report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: engine.name(),
                        threads,
                        mode: "cancel",
                        detail,
                        sql: query.sql.clone(),
                    }),
                }
                if let Some(detail) = leak_detail(fixture, images) {
                    report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: engine.name(),
                        threads,
                        mode: "leak",
                        detail,
                        sql: query.sql.clone(),
                    });
                }
            }

            // Recovery probe: after the whole fault/cancel battery, the pool
            // must still serve a clean holistic run that matches baseline.
            let recovered = run_engine(Engine::Holistic, &plan, &fixture.catalog, &fixture.dsm);
            report.runs += 1;
            match classify(recovered, &baseline, false) {
                RunOutcome::Matched => report.matched += 1,
                RunOutcome::Violation(detail) => report.failures.push(ChaosFailure {
                    seed: query.seed,
                    engine: "holistic",
                    threads,
                    mode: "recovery",
                    detail,
                    sql: query.sql.clone(),
                }),
                RunOutcome::InjectedError | RunOutcome::Cancelled => {
                    report.failures.push(ChaosFailure {
                        seed: query.seed,
                        engine: "holistic",
                        threads,
                        mode: "recovery",
                        detail: "recovery run errored with no schedule installed".into(),
                        sql: query.sql.clone(),
                    })
                }
            }
        }
    }
    report
}
