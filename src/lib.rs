//! # HIQUE — Holistic Integrated Query Engine (Rust reproduction)
//!
//! Facade crate re-exporting the workspace's public API.  See the individual
//! crates for details:
//!
//! * [`types`] — data types, values, schemas, NSM tuple layout, counters.
//! * [`storage`] — slotted 4 KiB pages, heap files, buffer manager, catalog.
//! * [`sql`] — SQL tokenizer/parser/semantic analysis.
//! * [`plan`] — statistics, greedy optimizer, join teams, operator
//!   descriptors.
//! * [`iter`] — the Volcano/iterator baseline engine (generic and optimized).
//! * [`dsm`] — the column-at-a-time (MonetDB-style) baseline engine.
//! * [`holistic`] — the paper's contribution: template-based code generation
//!   and specialized kernel execution, plus the evaluate-query driver every
//!   kernel provider plugs into.
//! * [`vm`] — query-time compilation to register bytecode: a second kernel
//!   provider for the same driver.
//! * [`server`] — sessions over one shared catalog, the prepared-plan cache,
//!   the engine modes ([`server::Engine`], [`server::run_plan`]) and the
//!   line protocol.
//! * [`tpch`] — TPC-H-shaped data generation and the benchmark queries.

pub use hique_dsm as dsm;
pub use hique_holistic as holistic;
pub use hique_iter as iter;
pub use hique_plan as plan;
pub use hique_server as server;
pub use hique_sql as sql;
pub use hique_storage as storage;
pub use hique_tpch as tpch;
pub use hique_types as types;
pub use hique_vm as vm;
