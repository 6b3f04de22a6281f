//! The differential harness: plan a query once, execute it through every
//! engine, canonicalize, and compare.
//!
//! The paper's central claim is that the holistic engine returns *the same
//! results* as the iterator and DSM baselines, only faster. This module is
//! the mechanized form of that claim: any divergence in any engine layer
//! (staging, join, aggregation, ordering) surfaces as a [`Divergence`]
//! carrying the SQL text and seed needed to reproduce it.

use std::fmt;

use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, PhysicalPlan};
use hique_server::run_plan;
pub use hique_server::Engine;
use hique_storage::Catalog;
use hique_types::{ExecOptions, HiqueError, QueryResult};

use crate::canon::{canonicalize, compare, CanonicalResult, Mismatch};
use crate::genquery::{QueryGenerator, RandomQuery};

/// Execute a shared plan on one engine, preparing from scratch.
pub fn run_engine(
    engine: Engine,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    dsm: &DsmDatabase,
) -> Result<QueryResult, HiqueError> {
    run_plan(engine, plan, catalog, Some(dsm), &ExecOptions::default())
}

/// One engine disagreeing with the baseline on one query.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    pub sql: String,
    pub engine: &'static str,
    pub baseline: &'static str,
    pub mismatch: Mismatch,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {}\n  seed: {:#x}\n  sql: {}",
            self.engine, self.baseline, self.mismatch, self.seed, self.sql
        )
    }
}

/// Outcome of one differential check: the canonical baseline result and the
/// divergences (empty when every engine agreed).
#[derive(Debug)]
pub struct CheckOutcome {
    pub baseline: CanonicalResult,
    pub divergences: Vec<Divergence>,
}

/// Fixture bundling a TPC-H-shaped catalog with its DSM decomposition.
pub struct Fixture {
    pub catalog: Catalog,
    pub dsm: DsmDatabase,
    pub sf: f64,
}

impl Fixture {
    /// Generate a catalog at scale factor `sf` and vertically decompose it
    /// for the DSM engine.
    pub fn generate(sf: f64) -> Result<Self, HiqueError> {
        let catalog = hique_tpch::generate_into_catalog(sf)?;
        let dsm = DsmDatabase::from_catalog(&catalog)?;
        Ok(Fixture { catalog, dsm, sf })
    }

    /// Like [`Fixture::generate`], but the catalog is moved onto disk behind
    /// an LRU buffer pool of `budget_pages` frames before the DSM
    /// decomposition runs — every engine then reads base pages through the
    /// pool, and budgets below the working set force eviction/reload during
    /// the suite.  Statistics are collected before the spill, so plans (and
    /// therefore results) are identical to the memory-resident fixture's.
    pub fn generate_paged(sf: f64, budget_pages: usize) -> Result<Self, HiqueError> {
        let mut catalog = hique_tpch::generate_into_catalog(sf)?;
        catalog.spill_to_disk(budget_pages)?;
        let dsm = DsmDatabase::from_catalog(&catalog)?;
        Ok(Fixture { catalog, dsm, sf })
    }

    /// A TPC-H-shaped catalog whose tables are all **empty** (and analyzed,
    /// so the planner knows they are empty).  Every generated query must
    /// return zero rows through every engine — a dedicated probe for
    /// zero-cardinality paths in staging, joins and aggregation.
    pub fn empty(sf: f64) -> Result<Self, HiqueError> {
        use hique_tpch::schema;
        let mut catalog = Catalog::new();
        for (name, schema) in [
            ("nation", schema::nation()),
            ("region", schema::region()),
            ("customer", schema::customer()),
            ("supplier", schema::supplier()),
            ("part", schema::part()),
            ("orders", schema::orders()),
            ("lineitem", schema::lineitem()),
        ] {
            catalog.create_table(name, schema)?;
            catalog.analyze_table(name)?;
        }
        let dsm = DsmDatabase::from_catalog(&catalog)?;
        Ok(Fixture { catalog, dsm, sf })
    }

    /// Plan `query` once and execute it on all five engine modes, comparing
    /// canonicalized results against the generic-iterator baseline.
    ///
    /// Planning or execution errors are reported as divergences too: every
    /// query the generator emits is in the supported dialect, so an error is
    /// an engine bug, not an invalid query.
    pub fn check(&self, query: &RandomQuery) -> CheckOutcome {
        let plan = match plan_sql(&query.sql, &self.catalog, &query.config) {
            Ok(plan) => plan,
            Err(e) => {
                return CheckOutcome {
                    baseline: CanonicalResult {
                        columns: Vec::new(),
                        rows: Vec::new(),
                    },
                    divergences: vec![Divergence {
                        seed: query.seed,
                        sql: query.sql.clone(),
                        engine: "planner",
                        baseline: "-",
                        mismatch: Mismatch {
                            row: None,
                            column: None,
                            detail: format!("planning failed: {e}"),
                        },
                    }],
                }
            }
        };

        let mut results: Vec<(Engine, CanonicalResult)> = Vec::new();
        let mut divergences = Vec::new();
        for engine in Engine::ALL {
            match run_engine(engine, &plan, &self.catalog, &self.dsm) {
                Ok(result) => results.push((engine, canonicalize(&result))),
                Err(e) => divergences.push(Divergence {
                    seed: query.seed,
                    sql: query.sql.clone(),
                    engine: engine.name(),
                    baseline: "-",
                    mismatch: Mismatch {
                        row: None,
                        column: None,
                        detail: format!("execution failed: {e}"),
                    },
                }),
            }
        }

        let baseline = match results.first() {
            Some((_, canonical)) => canonical.clone(),
            None => CanonicalResult {
                columns: Vec::new(),
                rows: Vec::new(),
            },
        };
        if let Some(((base_engine, base), rest)) = results.split_first() {
            for (engine, canonical) in rest {
                // Engine first, baseline second, so the mismatch detail reads
                // in the same order as the "engine vs baseline" header.
                if let Err(mismatch) = compare(canonical, base) {
                    divergences.push(Divergence {
                        seed: query.seed,
                        sql: query.sql.clone(),
                        engine: engine.name(),
                        baseline: base_engine.name(),
                        mismatch,
                    });
                }
            }
        }
        CheckOutcome {
            baseline,
            divergences,
        }
    }
}

/// Aggregate statistics of a suite run.
#[derive(Debug, Default)]
pub struct SuiteReport {
    /// Queries executed.
    pub queries: usize,
    /// Total canonical baseline rows seen (sanity signal that the suite is
    /// not vacuously comparing empty results).
    pub total_rows: usize,
    /// Queries whose baseline result had at least one row.
    pub nonempty_queries: usize,
    /// Every divergence across the suite.
    pub divergences: Vec<Divergence>,
}

impl SuiteReport {
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance: {} queries, {} non-empty, {} baseline rows, {} divergences",
            self.queries,
            self.nonempty_queries,
            self.total_rows,
            self.divergences.len()
        )?;
        for d in &self.divergences {
            writeln!(f, "--- {d}")?;
        }
        Ok(())
    }
}

/// Run `count` seeded random queries from `base_seed` against the fixture.
pub fn run_suite(fixture: &Fixture, base_seed: u64, count: usize) -> SuiteReport {
    run_suite_with_budget(fixture, base_seed, count, None)
}

/// Like [`run_suite`], but when `force_budget_pages` is set every generated
/// query's planner config carries exactly that memory budget (the generator
/// otherwise randomizes budgets independently of threads).  This is the
/// spill-stream lane: randomized `threads ∈ {1, 2, 4}` from the generator
/// *combined* with a forced tight budget on every single query.
pub fn run_suite_with_budget(
    fixture: &Fixture,
    base_seed: u64,
    count: usize,
    force_budget_pages: Option<usize>,
) -> SuiteReport {
    let mut generator = QueryGenerator::new(base_seed, fixture.sf);
    let mut report = SuiteReport::default();
    for _ in 0..count {
        let mut query = generator.next_query();
        if let Some(pages) = force_budget_pages {
            query.config = query.config.clone().with_memory_budget_pages(pages);
        }
        let outcome = fixture.check(&query);
        report.queries += 1;
        report.total_rows += outcome.baseline.num_rows();
        if outcome.baseline.num_rows() > 0 {
            report.nonempty_queries += 1;
        }
        report.divergences.extend(outcome.divergences);
    }
    report
}
