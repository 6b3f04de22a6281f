//! # hique-conformance
//!
//! Cross-engine differential test harness for the HIQUE reproduction.
//!
//! The paper's evaluation only means something if the execution models
//! — Volcano iterators ([`hique_iter`]), column-at-a-time DSM
//! ([`hique_dsm`]), holistic generated kernels ([`hique_holistic`]) and the
//! query-time-compiled bytecode VM ([`hique_vm`]) — compute *identical*
//! answers for the same physical plan. This crate mechanizes that property:
//!
//! * [`genquery`] — a seeded random query generator over the TPC-H-shaped
//!   schema: conjunctive filters, equi-joins along the foreign-key graph (up
//!   to four tables), grouped aggregates, ORDER BY and LIMIT, plus a random
//!   planner configuration (forced join/aggregation algorithms, join teams
//!   on/off) so algorithm selection is fuzzed together with query shape;
//! * [`canon`] — result canonicalization (rows sorted by typed value over
//!   all columns) with relative float tolerance and a byte-stable text form
//!   for golden-file pinning;
//! * [`runner`] — plans each query once, executes it on all five engine
//!   modes (generic iterators, optimized iterators, DSM, holistic, bytecode
//!   VM) and reports any divergence with the seed and SQL to reproduce it;
//! * [`planquality`] — the estimate-vs-actual harness: measures real
//!   per-operator cardinalities (filtered scans, join steps) against the
//!   planner's estimates and aggregates q-error distributions, gating the
//!   histogram/MCV statistics the greedy join order depends on;
//! * [`chaos`] — the robustness lane: replays seeded queries under seeded
//!   storage-fault and cancellation schedules, asserting every run is
//!   bit-identical to its fault-free baseline or a typed retryable error,
//!   with zero leaked spill claims, pins or temp files afterwards;
//! * [`mutate`] — the verifier negative-test lane: seeded single-op
//!   corruptions of compiled bytecode programs, every one of which the
//!   static verifier must reject — never a panic, never a silently wrong
//!   answer — with the unmutated templates doubling as the
//!   zero-false-positive check.
//!
//! The `conformance` binary runs an arbitrary-size fuzz budget; the crate's
//! integration tests run a fixed suite (100+ queries) plus golden-file
//! checks pinning TPC-H Q1/Q3/Q10 results.

pub mod canon;
pub mod chaos;
pub mod genquery;
pub mod mutate;
pub mod planquality;
pub mod runner;

pub use canon::{canonicalize, compare, CanonicalResult, Mismatch};
pub use chaos::{run_chaos_suite, ChaosFailure, ChaosReport, CHAOS_BUDGET_PAGES, CHAOS_THREADS};
pub use genquery::{query_for_seed, replay_seed, scan_query_for_seed, QueryGenerator, RandomQuery};
pub use mutate::{run_mutation_suite, MutationReport, MIN_REJECTION_RATE};
pub use planquality::{measure_actuals, q_error, CardSample, QualityReport};
pub use runner::{
    run_suite, run_suite_with_budget, CheckOutcome, Divergence, Engine, Fixture, SuiteReport,
};
