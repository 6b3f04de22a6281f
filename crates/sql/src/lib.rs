//! # hique-sql
//!
//! SQL front-end for the HIQUE reproduction.  The supported grammar follows
//! the paper (§IV): conjunctive queries with equi-joins, arbitrary groupings
//! and sort orders, plus the arithmetic expressions and aggregate functions
//! (`SUM`, `AVG`, `MIN`, `MAX`, `COUNT`) needed by the TPC-H workloads the
//! paper evaluates.  Nested queries and statistical aggregates are
//! unsupported, as in the paper.
//!
//! Pipeline: [`lexer`] turns SQL text into [`token::Token`]s, [`parser`]
//! builds the [`ast::Query`], and [`analyze`](mod@analyze) binds it against a schema
//! provider (the catalog), classifying predicates into per-table filters and
//! equi-join conditions and type-checking every expression.

pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use analyze::{analyze, BoundQuery, SchemaProvider};
pub use ast::Query;
pub use parser::parse_query;
