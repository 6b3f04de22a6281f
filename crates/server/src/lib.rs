//! # hique-server
//!
//! The HIQUE query service: one long-lived process serving N concurrent
//! sessions over **one shared catalog and buffer pool**.
//!
//! The paper's Table III measures per-query preparation cost (code
//! generation, compilation) against execution time — economics that only
//! pay off when preparation is amortized across many requests.  That is
//! this crate's job:
//!
//! * [`Server`] owns the catalog, its paged storage runtime, the DSM
//!   decomposition (built by the first dsm statement, not at start-up),
//!   and a [`PlanCache`] of prepared plans + instantiated
//!   kernel programs keyed on the statement's tokens, lexed once
//!   ([`hique_plan::ShapeKey`]);
//! * [`Session`] is one client's handle: it prepares through the shared
//!   cache (first request of a shape pays the Table III cost, every repeat
//!   is a cache hit) and executes on any of the five engine modes;
//! * [`wire`] is the std-only line-based TCP protocol (`hique-server`
//!   binary), usable with nothing but `nc`.
//!
//! Concurrency contracts the storage layer provides (PR 6):
//! per-execution **spill namespaces** (each budgeted execution claims its
//! own temp file behind the shared pool, admission-capped to the session
//! count) and **epoch-tagged peak windows** (each execution's
//! `peak_resident_pages` is its own high-water mark, not a shared
//! clobberable watermark).

pub mod cache;
pub mod engine;
pub mod session;
pub mod wire;

pub use cache::{CacheStats, PlanCache, PreparedQuery};
pub use engine::{run_plan, Engine};
pub use session::{Server, ServerConfig, Session};
pub use wire::{serve, WireClient, WireResponse};
