//! # hique-dsm
//!
//! A **column-at-a-time (DSM) execution engine** in the architectural style
//! of MonetDB, the paper's main-memory, architecture-conscious baseline
//! (§III, §VI-C).  Its defining properties, reproduced here:
//!
//! * tables are vertically decomposed into typed column arrays
//!   ([`column::ColumnData`]), so an operator touches only the columns it
//!   needs (the advantage the paper credits MonetDB with on wide TPC-H
//!   tuples);
//! * operators are array primitives executed one column at a time, with
//!   every intermediate result **fully materialized** (selection vectors,
//!   join index pairs, gathered columns), which is the property the paper
//!   contrasts with holistic evaluation's cache-resident pipelining.
//!
//! The engine executes the same physical plans as the other two engines and
//! returns identical results; only the execution model differs.

pub mod column;
pub mod exec;

pub use column::{ColumnData, ColumnStore, DsmDatabase, Key};
pub use exec::execute_plan;
