//! # hique-iter
//!
//! The **iterator-model (Volcano) baseline engine** of the HIQUE
//! reproduction.  This engine deliberately embodies the design the paper
//! criticises (§II-B):
//!
//! * operators communicate through a generic `open()/next()/close()`
//!   interface behind dynamic dispatch — every in-flight tuple costs at
//!   least two function calls;
//! * tuples travel as materialized [`hique_types::Row`]s of boxed [`hique_types::Value`]s
//!   rather than raw records;
//! * predicate evaluation and field access are generic: in
//!   [`ExecMode::Generic`] they are counted as separate accessor/comparator
//!   calls, in [`ExecMode::Optimized`] the per-field calls are inlined
//!   (the paper's "optimized iterators") but the tuple-at-a-time interface
//!   and `Row` materialization remain.
//!
//! The engine executes the same [`hique_plan::PhysicalPlan`]s as the DSM and
//! holistic engines, so the measured difference isolates the execution
//! model, which is exactly the comparison of the paper's Figures 5–7.

#![forbid(unsafe_code)]

pub mod agg;
pub mod exec;
pub mod expr;
pub mod iterator;
pub mod join;
pub mod project;
pub mod scan;
pub mod sort;
pub mod spill;

pub use exec::{execute_plan, execute_plan_cancellable};
pub use iterator::{ExecContext, ExecMode, QueryIterator};

/// Convenience alias for boxed operators in a pipeline borrowing the catalog
/// for lifetime `'a`.
pub type BoxedIterator<'a> = Box<dyn QueryIterator + 'a>;
