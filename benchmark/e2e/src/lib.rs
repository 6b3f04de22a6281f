//! The end-to-end half of the repo's benchmark (see `benchmark/README.md`).
//!
//! Std only and free of any dependency on the repo's crates: it knows the
//! server's CLI flags and its line protocol and nothing else, so the numbers
//! it reports survive any internal refactor.  The traced, in-process half
//! lives in `../trace` and reuses the generator and the client from here.

#![forbid(unsafe_code)]

pub mod gen;
pub mod json;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod stats;
pub mod tcp;
pub mod wire;

/// Measured window of a full run, in seconds (`run_seconds` in
/// `BENCHMARK.json`); `--quick` uses [`QUICK_SECONDS`].
pub const FULL_SECONDS: f64 = 20.0;
pub const QUICK_SECONDS: f64 = 5.0;
