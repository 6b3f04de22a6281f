//! # hique-holistic
//!
//! The paper's contribution: **holistic query evaluation through
//! template-based code generation**.
//!
//! Given a [`hique_plan::PhysicalPlan`], [`generate`] instantiates the
//! per-operator code templates (the paper's Listing 1 staging and Listing 2
//! join/aggregation templates) once, with this query's offsets, types,
//! constants and partition counts, into a [`GeneratedQuery`]: a program of
//! fully specialized Rust kernels ([`kernel`]).  Predicates become fixed
//! offset/constant comparisons, projections become byte-range copies,
//! arithmetic becomes one register program over record offsets, and every
//! operator runs as a tight loop over packed NSM records with no per-tuple
//! function calls or `Value` boxing.  The bytecode VM (`hique-vm`) lowers
//! the same instantiated kernels when a query is compiled at query time.
//!
//! The substitution of an in-process specialized-kernel program for the
//! paper's `gcc`+`dlopen` pipeline is documented in `DESIGN.md`; the
//! performance property it preserves is the elimination of per-tuple
//! interpretation overhead, which is what the paper measures against the
//! iterator engine.

pub mod agg;
mod agg_program;
mod compiled;
pub mod exec;
pub mod generator;
pub mod join;
pub mod kernel;
pub mod relation;
pub mod spill;
pub mod staging;

pub use compiled::KernelSet;
pub use generator::{generate, GeneratedQuery, OutputKernel};
pub use relation::StagedRelation;

use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{QueryResult, Result};

/// Convenience entry point: generate the query-specific program for `plan`
/// and execute it immediately.
pub fn execute_plan(plan: &PhysicalPlan, catalog: &Catalog) -> Result<QueryResult> {
    let generated = generate(plan)?;
    generated.execute(catalog)
}
