//! The bytecode mutation lane: negative testing for the VM verifier.
//!
//! The differential suites prove the engines agree on *well-formed*
//! programs; this lane proves the verifier actually stands between the
//! interpreter and *malformed* ones.  It compiles seeded generator queries
//! to bytecode (alternating specialized and pooled modes), applies seeded
//! single-op corruptions ([`hique_vm::mutants`] — every kind is
//! definitely-wrong by construction, no equivalent mutants), and holds the
//! workspace's safety contract over each one:
//!
//! * the verifier rejects it (the expected outcome — the gate requires
//!   ≥ 95% of mutants caught statically), or
//! * execution fails with a typed [`hique_types::HiqueError`] — never a panic, never a
//!   silently wrong answer.
//!
//! The unmutated template is also re-verified per query, so the same lane
//! doubles as the zero-false-positive check over the generator's query
//! space.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hique_plan::plan_sql;
use hique_vm::CompileMode;

use crate::genquery::QueryGenerator;
use crate::runner::Fixture;

/// The verifier's gate: at least this share of seeded mutants must be
/// rejected statically (the remainder must still fail typed at runtime).
pub const MIN_REJECTION_RATE: f64 = 0.95;

/// Outcome of a mutation-lane run.
#[derive(Debug, Default)]
pub struct MutationReport {
    /// Compiled template programs mutated.
    pub programs: usize,
    /// Mutants generated and checked.
    pub mutants: usize,
    /// Mutants the verifier rejected before execution.
    pub rejected: usize,
    /// Mutants that slipped past the verifier but failed with a typed
    /// error at runtime (tolerated below the 5% budget).
    pub typed_runtime_errors: usize,
    /// Contract violations: mutants that executed to a result or panicked
    /// (descriptions with seed/SQL context).  Any entry fails the lane.
    pub silent: Vec<String>,
    /// Well-formed programs the verifier refused — false positives.  Any
    /// entry fails the lane.
    pub false_positives: Vec<String>,
}

impl MutationReport {
    /// Share of mutants rejected statically.
    pub fn rejection_rate(&self) -> f64 {
        if self.mutants == 0 {
            0.0
        } else {
            self.rejected as f64 / self.mutants as f64
        }
    }

    /// The lane's pass criterion: no silent survivors, no false positives,
    /// and the static rejection rate at or above [`MIN_REJECTION_RATE`].
    pub fn is_clean(&self) -> bool {
        self.mutants > 0
            && self.silent.is_empty()
            && self.false_positives.is_empty()
            && self.rejection_rate() >= MIN_REJECTION_RATE
    }
}

impl fmt::Display for MutationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mutation lane: {} programs, {} mutants, {} verifier-rejected ({:.1}%), \
             {} typed runtime errors, {} silent, {} false positives",
            self.programs,
            self.mutants,
            self.rejected,
            self.rejection_rate() * 100.0,
            self.typed_runtime_errors,
            self.silent.len(),
            self.false_positives.len()
        )?;
        for s in &self.false_positives {
            writeln!(f, "--- false positive: {s}")?;
        }
        for s in &self.silent {
            writeln!(f, "--- contract violation: {s}")?;
        }
        Ok(())
    }
}

/// Mutants taken from each compiled program before moving to the next
/// generator query — keeps the lane's coverage spread across query shapes
/// instead of exhausting the budget on one program.
const MUTANTS_PER_PROGRAM: usize = 8;

/// Run the mutation lane: compile seeded generator queries over `fixture`
/// and check `target_mutants` single-op corruptions against the
/// verifier-or-typed-error contract.
pub fn run_mutation_suite(
    fixture: &Fixture,
    base_seed: u64,
    target_mutants: usize,
) -> MutationReport {
    let mut generator = QueryGenerator::new(base_seed, fixture.sf);
    let mut report = MutationReport::default();
    // Every query yields at least one mutant in practice; the attempt cap
    // only guards against a degenerate generator stream.
    let max_queries = target_mutants.max(1) * 4;
    for qi in 0..max_queries {
        if report.mutants >= target_mutants {
            break;
        }
        let query = generator.next_query();
        let plan = match plan_sql(&query.sql, &fixture.catalog, &query.config) {
            Ok(plan) => plan,
            Err(_) => continue, // not a lane concern; the fuzz suite gates planning
        };
        let generated = match hique_holistic::generate(&plan) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let mode = if qi % 2 == 0 {
            CompileMode::Specialized
        } else {
            CompileMode::Pooled
        };
        // compile() verifies internally, so an Err here on a well-formed
        // generator query is a verifier false positive (or a lowering bug —
        // either way the lane must fail loudly, not skip).
        let program = match hique_vm::compile(&generated, &fixture.catalog, mode) {
            Ok(p) => p,
            Err(e) => {
                report.false_positives.push(format!(
                    "seed {:#x} ({mode:?}): {e}\n  sql: {}",
                    query.seed, query.sql
                ));
                continue;
            }
        };
        if let Err(e) = program.verify(&generated, &fixture.catalog) {
            report.false_positives.push(format!(
                "seed {:#x} ({mode:?}) re-verify: {e}\n  sql: {}",
                query.seed, query.sql
            ));
            continue;
        }
        report.programs += 1;

        let budget = MUTANTS_PER_PROGRAM.min(target_mutants - report.mutants);
        let mutant_seed = base_seed ^ (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for mutant in hique_vm::mutants(&program, mutant_seed, budget) {
            report.mutants += 1;
            if mutant.program.verify(&generated, &fixture.catalog).is_err() {
                report.rejected += 1;
                continue;
            }
            // Past the verifier: execution must fail typed — never panic,
            // never return rows as if the program were sound.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                mutant
                    .program
                    .execute(&generated, &fixture.catalog, &Default::default())
            }));
            match outcome {
                Ok(Err(_)) => report.typed_runtime_errors += 1,
                Ok(Ok(_)) => report.silent.push(format!(
                    "executed to a result: {} (seed {:#x}, {mode:?})\n  sql: {}",
                    mutant.description, query.seed, query.sql
                )),
                Err(_) => report.silent.push(format!(
                    "panicked: {} (seed {:#x}, {mode:?})\n  sql: {}",
                    mutant.description, query.seed, query.sql
                )),
            }
        }
    }
    report
}
