//! # hique-types
//!
//! Fundamental data model for the HIQUE query engine reproduction:
//! SQL data types, runtime values, schemas with fixed NSM record layout,
//! raw tuple encoding/decoding, and the software execution counters that
//! substitute for the paper's hardware performance events.
//!
//! The paper ("Generating code for holistic query evaluation", ICDE 2010)
//! stores tuples in the N-ary Storage Model with *fixed-length* records so
//! that generated code can address fields with plain pointer arithmetic
//! (`tuple + predicate_offset`).  This crate provides exactly that layout:
//! every [`Schema`] knows the byte offset of each of its columns and the
//! total record width, and [`tuple`](mod@tuple) reads/writes typed fields at those
//! offsets over `&[u8]`/`&mut [u8]` without any per-field dispatch.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod datatype;
pub mod error;
pub mod histogram;
pub mod result;
pub mod row;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;

pub use cancel::CancelToken;
pub use datatype::DataType;
pub use error::{HiqueError, Result};
pub use histogram::{Bucket, CmpKind, ColumnDistribution};
pub use result::{PhaseTimings, QueryResult};
pub use row::Row;
pub use schema::{Column, Schema};
pub use stats::{ExecStats, IoStats};
pub use value::Value;
