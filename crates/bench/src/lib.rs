//! # hique-bench
//!
//! The benchmark harness reproducing every table and figure of the paper's
//! evaluation (§VI), and nothing else: wire latency, preparation stages,
//! the pool and the VM front end are measured by `benchmark/`.  See `DESIGN.md`
//! §4 for the measurement-layer index and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! * [`workload`] — the synthetic join/aggregation micro-benchmark tables
//!   (72-byte tuples) and the multi-way join workload.
//! * [`handcoded`] — the hand-written "generic hard-coded" and "optimized
//!   hard-coded" implementations compared in Figures 5 and 6.
//! * [`runner`] — execution, the one best-of-N timing loop and the table
//!   renderers used by the `fig*`/`table*` harness binaries.
//! * [`cli`] — the one command line all of them take.

pub mod cli;
pub mod handcoded;
pub mod runner;
pub mod workload;
