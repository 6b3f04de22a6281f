//! # hique-holistic
//!
//! The paper's contribution: **holistic query evaluation through
//! template-based code generation**.
//!
//! Given a [`hique_plan::PhysicalPlan`], [`generate`]
//! instantiates per-operator code templates into a [`GeneratedQuery`]:
//!
//! * a **source artifact** ([`source::GeneratedSource`]) — the query-specific
//!   C-style source the paper's generator would hand to `gcc` (Listing 1 and
//!   Listing 2 templates instantiated with this query's offsets, types,
//!   constants and partition counts), emitted so the user can inspect what
//!   "generated code" means for their query and so Table III's
//!   source-size/preparation-cost experiment can be reproduced; and
//! * an **executable kernel program** — the same templates instantiated as
//!   fully specialized Rust kernels ([`kernel`]): predicates become fixed
//!   offset/constant comparisons, projections become byte-range copies,
//!   arithmetic becomes a pre-compiled expression over record offsets, and
//!   every operator runs as a tight loop over packed NSM records with no
//!   per-tuple function calls or `Value` boxing.
//!
//! The substitution of an in-process specialized-kernel program for the
//! paper's `gcc`+`dlopen` pipeline is documented in `DESIGN.md`; the
//! performance property it preserves is the elimination of per-tuple
//! interpretation overhead, which is what the paper measures against the
//! iterator engine.

#![forbid(unsafe_code)]

pub mod agg;
mod agg_program;
mod compiled;
pub mod exec;
pub mod generator;
pub mod join;
pub mod kernel;
pub mod relation;
pub mod source;
pub mod spill;
pub mod staging;

pub use exec::ExecOptions;
pub use generator::{generate, GeneratedQuery, OutputKernel, PreparationCost};
pub use relation::StagedRelation;
pub use source::GeneratedSource;

use hique_plan::PhysicalPlan;
use hique_storage::Catalog;
use hique_types::{QueryResult, Result};

/// Convenience entry point: generate the query-specific program for `plan`
/// and execute it immediately.
pub fn execute_plan(plan: &PhysicalPlan, catalog: &Catalog) -> Result<QueryResult> {
    let generated = generate(plan)?;
    generated.execute(catalog)
}
