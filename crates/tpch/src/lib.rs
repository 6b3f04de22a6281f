//! # hique-tpch
//!
//! A deterministic, TPC-H-shaped data generator and the benchmark query
//! definitions used by the paper's evaluation (§VI-C: Queries 1, 3 and 10).
//!
//! The generator follows the TPC-H schema (fixed-width columns, realistic
//! record widths so that NSM tuples span multiple cache lines — the property
//! the paper's DSM-vs-NSM discussion hinges on) and the value distributions
//! that matter for the three queries: ship/order date ranges, return
//! flag/line status domains, market segments and the key/foreign-key
//! structure.  It is not the official `dbgen` (see `DESIGN.md` for the
//! substitution rationale); scale factor 1.0 produces roughly the same row
//! counts as the official generator.

pub mod gen;
pub mod queries;
pub mod schema;

pub use gen::{generate_into_catalog, TpchGenerator};
pub use queries::{Q10_SQL, Q1_SQL, Q3_SQL};
